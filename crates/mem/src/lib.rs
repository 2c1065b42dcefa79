//! # hoard-mem — memory substrate and common allocator API
//!
//! Everything the allocators in this reproduction share:
//!
//! * [`ChunkSource`] — the "operating system": a provider of large,
//!   aligned chunks (superblocks). [`SystemSource`] backs chunks with the
//!   host allocator and charges the virtual OS cost; [`LimitedSource`],
//!   [`FailingSource`], and [`InjectingSource`] (driven by a seeded
//!   deterministic [`FaultPlan`]) inject out-of-memory conditions for
//!   testing.
//! * [`MtAllocator`] — the `malloc`/`free`-shaped interface every
//!   allocator (Hoard and the baselines) implements, with self-describing
//!   blocks (`deallocate` takes only the pointer, like C `free`).
//! * [`AllocStats`] / [`AllocSnapshot`] — the accounting the paper's
//!   fragmentation table needs: bytes *in use* (`U`) versus bytes *held*
//!   from the OS (`A`), with high-water marks.
//! * [`AllocBox`] — a typed RAII box over any [`MtAllocator`], so real
//!   data structures (e.g. the Barnes–Hut octree) can live in the
//!   allocator under test.
//!
//! ## Example
//!
//! ```
//! use hoard_mem::{ChunkSource, SystemSource};
//! use std::alloc::Layout;
//!
//! let source = SystemSource::new();
//! let layout = Layout::from_size_align(8192, 8192).unwrap();
//! let chunk = unsafe { source.alloc_chunk(layout) }.expect("oom");
//! assert_eq!(chunk.as_ptr() as usize % 8192, 0, "chunk is aligned");
//! unsafe { source.free_chunk(chunk, layout) };
//! assert_eq!(source.stats().held_current, 0);
//! ```

mod alloc_box;
mod alloc_vec;
mod api;
mod chunk;
mod fault;
mod header;
pub mod large;
mod size_class;
mod stats;
mod util;

pub use alloc_box::AllocBox;
pub use alloc_vec::AllocVec;
pub use api::MtAllocator;
pub use chunk::{ChunkSource, FailingSource, LimitedSource, SourceStats, SystemSource};
pub use fault::{FaultPlan, InjectingSource};
pub use large::LargePool;
pub use header::{read_header, try_read_header, write_header, HeaderWord, Tag, HEADER_SIZE};
pub use size_class::{SizeClass, SizeClassTable, MAX_CLASSES, MAX_SUPERBLOCK_SIZE};
pub use stats::{AllocSnapshot, AllocStats, MagazineStats, StatsShard, LIVE_GRANT};
pub use util::{align_down, align_up, CACHE_LINE, MIN_ALIGN};
