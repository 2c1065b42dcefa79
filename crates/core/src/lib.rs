//! # hoard-core — the Hoard scalable memory allocator
//!
//! A from-scratch Rust implementation of the allocator described in
//! Berger, McKinley, Blumofe & Wilson, *"Hoard: A Scalable Memory
//! Allocator for Multithreaded Applications"*, ASPLOS 2000.
//!
//! ## The algorithm in one paragraph
//!
//! Memory is carved into **superblocks** of `S` bytes (default 8 KiB),
//! each holding blocks of one **size class** (classes ≈ a factor 1.2
//! apart). Threads hash to one of `P` **per-processor heaps**; a heap
//! owns superblocks and serves `malloc` from the fullest superblock of
//! the right class. `free` returns a block to its superblock's *owning*
//! heap (not the freeing thread's), which prevents allocator-induced
//! false sharing from spreading. Each per-processor heap `i` maintains
//! the **emptiness invariant** `u_i ≥ a_i − K·S ∨ u_i ≥ (1−f)·a_i`
//! (`u` = bytes in use, `a` = bytes held): when a `free` leaves the heap
//! too empty, a superblock that is at least `f`-empty migrates to the
//! **global heap** (heap 0), where any processor may reclaim it. This
//! bounds per-heap slack — and therefore blowup — by a constant factor
//! plus `O(P·S)`, while keeping nearly every operation local to one
//! heap's lock.
//!
//! ## Quickstart
//!
//! ```
//! use hoard_core::HoardAllocator;
//! use hoard_mem::MtAllocator;
//!
//! let hoard = HoardAllocator::new_default();
//! let ptr = unsafe { hoard.allocate(100) }.expect("oom");
//! unsafe {
//!     std::ptr::write_bytes(ptr.as_ptr(), 0xAB, 100);
//!     hoard.deallocate(ptr);
//! }
//! assert_eq!(hoard.stats().live_current, 0);
//! ```
//!
//! The allocator also implements [`core::alloc::GlobalAlloc`] and is
//! usable as `#[global_allocator]` (see `examples/global_allocator.rs`):
//! it is `const`-constructible and allocation-free on its own paths.

mod config;
mod harden;
mod heap;
mod hoard;
mod list;
mod magazine;
mod superblock;

pub mod debug;

pub use config::{ConfigError, Frontend, HoardConfig};
pub use harden::{CorruptionHook, CorruptionKind, CorruptionLog, CorruptionReport, HardeningLevel};
pub use hoard::{HoardAllocator, RecoverySnapshot};
pub use magazine::MAGAZINE_CAPACITY;
pub use hoard_mem::{SizeClass, SizeClassTable, MAX_CLASSES, MAX_SUPERBLOCK_SIZE};
// The observability layer (see DESIGN.md §10): re-exported so harness
// and tests attach a probe without naming hoard-trace.
pub use hoard_trace::{
    chrome_trace_json, jsonio, Event, EventKind, HeapMap, HeapMapClass, HeapMapHeap,
    HeapProfiler, HistogramSnapshot, LeakRecord, MetricsRegistry, MetricsSnapshot, Probe,
    ProfileConfig, ProfileSnapshot, RecorderStats, SiteStats, TimelinePoint,
    TraceConfig, TraceLog, TraceSink, TrackLog, TrcError, TrcOp, TrcReader, TrcRecord, TrcRecorder,
    TrcTrace, TrcWriter, CHROME_PID, HEAP_PROFILE_SCHEMA, OCCUPANCY_BUCKETS,
};

/// Number of per-processor heaps (the paper's `P`; the global heap is
/// extra). A thread on processor `p` uses heap `1 + p % HEAPS`.
pub const HEAPS: usize = 16;

/// Number of fullness groups per size class (the paper's "groups of
/// superblocks sorted by fullness"). Group `0` is emptiest; an extra
/// internal group holds completely full superblocks.
pub const FULLNESS_GROUPS: usize = 8;
