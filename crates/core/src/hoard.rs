//! The Hoard allocator: per-processor heaps, a global heap, and the
//! emptiness invariant. This module is the paper's Figure-level `malloc`
//! / `free` pseudocode, made real.
//!
//! ## Locking protocol
//!
//! * `malloc` locks the calling thread's per-processor heap; if it must
//!   consult the global heap it locks heap 0 *while holding* its own
//!   heap's lock.
//! * `free` reads the block's superblock's `owner` index (atomic), locks
//!   that heap, re-checks ownership (the superblock may have migrated in
//!   between) and retries on mismatch. Migrations to the global heap
//!   take heap 0's lock while holding the per-processor heap's lock.
//!
//! Lock order is therefore always *per-processor heap → global heap* and
//! never two per-processor heaps at once: no deadlock is possible.
//!
//! ## The emptiness invariant
//!
//! After every `free` on per-processor heap `i`, the implementation
//! migrates `f`-empty superblocks to the global heap until either
//!
//! * `u_i ≥ a_i − K·S` or `u_i ≥ (1−f)·a_i` (the paper's invariant), or
//! * heap `i` holds no superblock that is at least `f`-empty (possible
//!   only transiently, because per-block headers make usable capacity
//!   slightly less than `S`).
//!
//! This is exactly the postcondition the property tests in
//! `tests/invariants.rs` verify.

use crate::config::HoardConfig;
use crate::global_cache::GlobalCache;
use crate::harden::{self, CorruptionKind, CorruptionLog, SuperblockRegistry};
use crate::heap::Heap;
use crate::magazine::{Magazine, MagazineSlot, SlotClaim, SlotHeap, MAG_CLASSES, MAG_SLOTS};
use crate::superblock::Superblock;
use crate::MAX_HEAPS;
use hoard_mem::{
    large, read_header, try_read_header, write_header, AllocSnapshot, AllocStats, ChunkSource,
    HeaderWord, LargePool, MtAllocator, SizeClassTable, SystemSource, Tag,
};
use hoard_sim::{charge_cost, current_alloc_site, current_proc, now, Cost, VLockGuard};
use hoard_trace::{
    EventKind, HeapMap, HeapMapClass, HeapMapHeap, HeapProfiler, MetricsRegistry, MetricsSnapshot,
    TraceSink, TrcRecorder,
};
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::Acquire, Ordering::Release};
// Counters here publish no other data, so relaxed ordering suffices
// throughout. Who may write which counter, and in what form (load +
// store under a guard, or an RMW), is tabulated in DESIGN.md §15; each
// guarded update below names its guard in a `Guard:` comment.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

/// Alignment requested for superblock chunks in the locked back-end.
/// The lock-free back-end aligns chunks to the superblock size instead,
/// which is what makes the O(1) address-mask metadata lookup sound.
const CHUNK_ALIGN: usize = 4096;

/// First pseudo-owner index naming a magazine slot's private mini-heap
/// (lock-free back-end only). `Superblock::owner` then encodes three
/// domains: `0` = global (heap 0, or the lock-free cache), `1..=MAX_HEAPS`
/// = per-processor heaps, `SLOT_OWNER_BASE + s` = magazine slot `s`.
pub(crate) const SLOT_OWNER_BASE: usize = MAX_HEAPS + 1;

/// Counters for the allocator's out-of-memory recovery path: when the
/// chunk source refuses a chunk, the allocator returns every completely
/// empty superblock it is hoarding (per-heap slack plus the global
/// heap's pool) to the source and retries once.
#[derive(Debug)]
pub(crate) struct RecoveryStats {
    chunk_reclaims: AtomicU64,
    rescued_allocations: AtomicU64,
}

impl RecoveryStats {
    const fn new() -> Self {
        RecoveryStats {
            chunk_reclaims: AtomicU64::new(0),
            rescued_allocations: AtomicU64::new(0),
        }
    }

    fn on_reclaim(&self, n: u64) {
        self.chunk_reclaims.fetch_add(n, Relaxed);
    }

    fn on_rescue(&self) {
        self.rescued_allocations.fetch_add(1, Relaxed);
    }
}

/// Point-in-time view of [`HoardAllocator::recovery_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySnapshot {
    /// Empty superblocks returned to the chunk source under memory
    /// pressure.
    pub chunk_reclaims: u64,
    /// Allocations that failed on the first pass and succeeded after
    /// reclamation — requests that would have been spurious `None`s.
    pub rescued_allocations: u64,
}

/// A superblock's occupancy as a percentage of its block capacity —
/// the telemetry coordinate for transfer events ("how full were
/// superblocks when they migrated").
///
/// # Safety
///
/// `sb` must point to a live superblock; the caller holds its owning
/// heap's lock.
unsafe fn fullness_pct(sb: *mut Superblock) -> u64 {
    ((*sb).in_use as u64 * 100) / ((*sb).capacity.max(1) as u64)
}

/// A held heap lock plus the telemetry context captured at
/// acquisition. Dropping it reports the release (hold duration in
/// virtual units) *before* the lock itself is released, so hold times
/// never under-report. Constructed by `HoardAllocator::lock_heap`.
struct HeapLockToken<'a> {
    tracer: Option<&'a TraceSink>,
    metrics: Option<&'a MetricsRegistry>,
    heap_index: u32,
    acquired_at: u64,
    _guard: VLockGuard<'a>,
}

impl Drop for HeapLockToken<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.tracer.is_none() && self.metrics.is_none() {
            return;
        }
        let held = now().saturating_sub(self.acquired_at);
        if let Some(m) = self.metrics {
            m.on_unlock(self.heap_index as usize, held);
        }
        if let Some(t) = self.tracer {
            t.emit(EventKind::LockRelease, self.heap_index, held);
        }
    }
}

/// The Hoard allocator. See the [crate docs](crate) for the algorithm.
///
/// Generic over the [`ChunkSource`] "operating system"; defaults to
/// [`SystemSource`]. `const`-constructible (see
/// [`new_static`](HoardAllocator::new_static)) so it can be installed as
/// `#[global_allocator]`.
pub struct HoardAllocator<Src: ChunkSource = SystemSource> {
    config: HoardConfig,
    classes: SizeClassTable,
    /// `heaps[0]` is the global heap; `heaps[1..=P]` are per-processor.
    heaps: [Heap; MAX_HEAPS + 1],
    stats: AllocStats,
    source: Src,
    /// Corruption events detected by the hardened paths and by the
    /// large pool's always-on check of a parked header.
    log: CorruptionLog,
    /// Freed large chunks, parked for the next request of their page
    /// count.
    large: LargePool,
    /// Chunk addresses of live large objects, kept when hardening is
    /// on. A freed large chunk is parked in `large` or returned to the
    /// OS, and either way may be live again — or unmapped — by the time
    /// a second free arrives, so — unlike small blocks, whose headers
    /// are retagged [`Tag::Freed`] in place — double frees are caught
    /// against this registry.
    large_live: Mutex<Vec<usize>>,
    recovery: RecoveryStats,
    /// Thread-local front-end: per-virtual-processor magazines of
    /// detached free blocks (slot = `proc % MAG_SLOTS`). Inert when
    /// `config.magazine_capacity == 0`.
    frontend: [MagazineSlot; MAG_SLOTS],
    /// Lock-free global superblock cache (Treiber stacks); replaces the
    /// global heap's lock entirely when `config.lockfree_backend`.
    /// Inert otherwise.
    cache: GlobalCache,
    /// Live superblock base addresses, maintained when
    /// `config.lockfree_backend`: lets `free` derive the superblock
    /// from `ptr & !(S-1)` (one mask + one probe) and lets the hardened
    /// path reject forged headers without trusting their contents.
    registry: SuperblockRegistry,
    /// Attachable event tracer (null = tracing off). Holds a raw
    /// `Arc<TraceSink>` installed by [`attach_tracer`]; released on
    /// drop or replacement. When null, every hot path pays exactly one
    /// atomic load and a branch — and zero *virtual* time, so traces of
    /// an untraced run are bit-identical to a build without telemetry
    /// (enforced by `tests/telemetry.rs`).
    ///
    /// [`attach_tracer`]: HoardAllocator::attach_tracer
    tracer: AtomicPtr<TraceSink>,
    /// Attachable metrics registry (null = metering off); same
    /// lifecycle and gating contract as `tracer`.
    metrics: AtomicPtr<MetricsRegistry>,
    /// Attachable `.trc` capture device (null = recording off); same
    /// lifecycle and gating contract as `tracer`. Unlike the
    /// address-free event tracer, the recorder captures the replayable
    /// stream — sizes, pointer tokens, per-proc program order — that
    /// `hoardscope record` writes to disk.
    recorder: AtomicPtr<TrcRecorder>,
    /// Attachable live-heap profiler (null = profiling off); same
    /// lifecycle and gating contract as `tracer`. When attached, every
    /// successful `allocate`/`deallocate` feeds the site books (charged
    /// [`Cost::ProfileSample`]), and CAS-claimed virtual-clock ticks
    /// append `A`/`U` fragmentation-timeline points (DESIGN.md §14).
    profiler: AtomicPtr<HeapProfiler>,
}

impl HoardAllocator<SystemSource> {
    /// The paper's default configuration over the system chunk source.
    pub fn new_default() -> Self {
        Self::with_config(HoardConfig::new()).expect("default config is valid")
    }

    /// Build with a custom configuration over the system chunk source.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) when `config` is
    /// inconsistent.
    pub fn with_config(config: HoardConfig) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        Ok(Self::new_static(config))
    }

    /// `const` constructor for `static` use (e.g. `#[global_allocator]`).
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const`/`static` context)
    /// if `config` is invalid.
    pub const fn new_static(config: HoardConfig) -> Self {
        if config.validate().is_err() {
            panic!("invalid Hoard configuration");
        }
        Self::build(config, SystemSource::new())
    }
}

impl<Src: ChunkSource> HoardAllocator<Src> {
    /// Build with a custom configuration and chunk source.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`](crate::ConfigError) when `config` is
    /// inconsistent.
    pub fn with_source(config: HoardConfig, source: Src) -> Result<Self, crate::ConfigError> {
        config.validate()?;
        Ok(Self::build(config, source))
    }

    /// The one struct literal; `config` already validated.
    const fn build(config: HoardConfig, source: Src) -> Self {
        HoardAllocator {
            config,
            classes: SizeClassTable::for_superblock_size(config.superblock_size),
            heaps: [const { Heap::new() }; MAX_HEAPS + 1],
            stats: AllocStats::new(),
            source,
            log: CorruptionLog::new(),
            large: LargePool::new(),
            large_live: Mutex::new(Vec::new()),
            recovery: RecoveryStats::new(),
            frontend: [const { MagazineSlot::new() }; MAG_SLOTS],
            cache: GlobalCache::new(),
            registry: SuperblockRegistry::new(),
            tracer: AtomicPtr::new(std::ptr::null_mut()),
            metrics: AtomicPtr::new(std::ptr::null_mut()),
            recorder: AtomicPtr::new(std::ptr::null_mut()),
            profiler: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// This allocator's configuration.
    pub fn config(&self) -> &HoardConfig {
        &self.config
    }

    /// The size-class table in effect.
    pub fn size_classes(&self) -> &SizeClassTable {
        &self.classes
    }

    /// The chunk source (for its [`held`](hoard_mem::SourceStats)
    /// accounting).
    pub fn source(&self) -> &Src {
        &self.source
    }

    /// The large-object pool (its `live`/`parked`/`peak` byte counts and
    /// its lock's telemetry).
    pub fn large_pool(&self) -> &LargePool {
        &self.large
    }

    /// Heap index serving the calling thread: `1 + proc mod P` (heap 0
    /// is the global heap). This is the paper's thread-to-heap hash.
    #[inline]
    pub fn heap_index_for_current_thread(&self) -> usize {
        let p = current_proc();
        // `heap_count` is a run-time value, so `%` is a hardware divide:
        // taken only by a processor id that actually wraps.
        if p < self.config.heap_count {
            1 + p
        } else {
            1 + p % self.config.heap_count
        }
    }

    /// Total superblock transfers to/from the global heap so far
    /// (`(to_global, from_global)`).
    pub fn transfer_counts(&self) -> (u64, u64) {
        let snap = self.stats.snapshot();
        (snap.transfers_to_global, snap.transfers_from_global)
    }

    /// Corruption events detected by the hardened deallocation paths.
    /// With `config.hardening` [`Off`](crate::HardeningLevel::Off) the
    /// one check left that can add to it is the large pool's, which
    /// verifies a parked chunk's header at every level.
    pub fn corruption_log(&self) -> &CorruptionLog {
        &self.log
    }

    /// Out-of-memory recovery counters.
    pub fn recovery_stats(&self) -> RecoverySnapshot {
        RecoverySnapshot {
            chunk_reclaims: self.recovery.chunk_reclaims.load(Relaxed),
            rescued_allocations: self.recovery.rescued_allocations.load(Relaxed),
        }
    }

    // ----- telemetry (attachable; off and virtually free by default) -----

    /// Install an event tracer; subsequent operations record typed
    /// events stamped with the emitting thread's virtual clock (each
    /// charged [`Cost::TraceEvent`]). Replaces (and releases) any
    /// previously attached sink — attach at a quiescent point, not
    /// while other threads are inside the allocator.
    pub fn attach_tracer(&self, sink: Arc<TraceSink>) {
        let old = self.tracer.swap(Arc::into_raw(sink).cast_mut(), Release);
        if !old.is_null() {
            unsafe { drop(Arc::from_raw(old)) };
        }
    }

    /// Install a metrics registry (see [`new_metrics_registry`] for one
    /// matched to this allocator's geometry). Same lifecycle contract
    /// as [`attach_tracer`].
    ///
    /// [`new_metrics_registry`]: HoardAllocator::new_metrics_registry
    /// [`attach_tracer`]: HoardAllocator::attach_tracer
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        let old = self.metrics.swap(Arc::into_raw(registry).cast_mut(), Release);
        if !old.is_null() {
            unsafe { drop(Arc::from_raw(old)) };
        }
    }

    /// A [`MetricsRegistry`] sized to this allocator: `heap_count + 1`
    /// heaps (index 0 = global) × the size-class table's length.
    pub fn new_metrics_registry(&self) -> MetricsRegistry {
        MetricsRegistry::new(self.config.heap_count + 1, self.classes.len())
    }

    /// Install a `.trc` capture device; every subsequent successful
    /// `allocate` and every `deallocate` is recorded (size, pointer
    /// token, emitting proc, virtual timestamp), each charged
    /// [`Cost::TraceEvent`] like the event tracer. Same lifecycle
    /// contract as [`attach_tracer`] — attach and detach only at
    /// quiescent points.
    ///
    /// [`attach_tracer`]: HoardAllocator::attach_tracer
    pub fn attach_recorder(&self, rec: Arc<TrcRecorder>) {
        let old = self.recorder.swap(Arc::into_raw(rec).cast_mut(), Release);
        if !old.is_null() {
            unsafe { drop(Arc::from_raw(old)) };
        }
    }

    /// Install a live-heap profiler; every subsequent successful
    /// `allocate` and `deallocate` feeds its site/live books (each
    /// charged [`Cost::ProfileSample`]), and whichever thread claims a
    /// timeline tick appends an `A`/`U` fragmentation sample. Same
    /// lifecycle contract as [`attach_tracer`] — attach and detach only
    /// at quiescent points.
    ///
    /// [`attach_tracer`]: HoardAllocator::attach_tracer
    pub fn attach_profiler(&self, prof: Arc<HeapProfiler>) {
        let old = self.profiler.swap(Arc::into_raw(prof).cast_mut(), Release);
        if !old.is_null() {
            unsafe { drop(Arc::from_raw(old)) };
        }
    }

    /// Snapshot the attached metrics registry, first refreshing its
    /// hardening gauges from the corruption log and OOM-recovery
    /// counters. `None` when no registry is attached.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let m = self.metrics_ref()?;
        let rec = self.recovery_stats();
        m.set_hardening(
            self.log.total(),
            self.log.quarantined(),
            rec.chunk_reclaims,
            rec.rescued_allocations,
        );
        m.set_registry(
            self.registry.occupancy() as u64,
            self.registry.capacity() as u64,
            self.registry.overflowed(),
        );
        Some(m.snapshot())
    }

    #[inline]
    fn tracer_ref(&self) -> Option<&TraceSink> {
        let p = self.tracer.load(Acquire);
        // Safety: `p` came from `Arc::into_raw` and is only released by
        // `Drop` (`&mut self`) or `attach_tracer` (documented not to
        // race operations), so it outlives this `&self` borrow.
        if p.is_null() {
            None
        } else {
            Some(unsafe { &*p })
        }
    }

    #[inline]
    fn metrics_ref(&self) -> Option<&MetricsRegistry> {
        let p = self.metrics.load(Acquire);
        // Safety: as for `tracer_ref`.
        if p.is_null() {
            None
        } else {
            Some(unsafe { &*p })
        }
    }

    #[inline]
    fn recorder_ref(&self) -> Option<&TrcRecorder> {
        let p = self.recorder.load(Acquire);
        // Safety: as for `tracer_ref`.
        if p.is_null() {
            None
        } else {
            Some(unsafe { &*p })
        }
    }

    #[inline]
    fn profiler_ref(&self) -> Option<&HeapProfiler> {
        let p = self.profiler.load(Acquire);
        // Safety: as for `tracer_ref`.
        if p.is_null() {
            None
        } else {
            Some(unsafe { &*p })
        }
    }

    /// Claim and record a fragmentation-timeline sample when one is
    /// due. The CAS in `maybe_tick` lets exactly one thread win each
    /// interval, so a sequential replay claims ticks at the same
    /// virtual instants every run.
    #[inline]
    fn profile_tick(&self, prof: &HeapProfiler) {
        if prof.maybe_tick(now()) {
            charge_cost(Cost::ProfileSample);
            let live = self.app_live(self.stats.live_now());
            prof.record_sample(now(), self.source.stats().held_current, live);
        }
    }

    /// The application's share of `cell` (a reading of the `live` cell,
    /// which also counts what the magazines hold and what is left of
    /// each heap's grant): less every slot's `cached_bytes` and every
    /// heap's headroom, read without claiming the slot or locking the
    /// heap. Exact at quiescence; saturating, because under traffic the
    /// gauges are read later than the cell and may have grown past it.
    fn app_live(&self, cell: u64) -> u64 {
        cell.saturating_sub(self.live_in_shards())
    }

    /// What the shards hold of the `live` cell between them: every
    /// slot's magazine contents and every heap's headroom.
    pub(crate) fn live_in_shards(&self) -> u64 {
        let slots = self.frontend.iter().map(MagazineSlot::cached_bytes);
        let heaps = self.heaps.iter().map(Heap::live_headroom);
        slots.chain(heaps).sum()
    }

    /// A structural photograph of every heap: per-class superblock
    /// occupancy histograms plus the `u`/`a` gauges, stamped with the
    /// current virtual time. Walks each heap's superblock lists under
    /// that heap's lock, so call at a quiescent point (or accept the
    /// lock traffic); superblocks parked on the empty list are counted
    /// under the class they last served.
    pub fn heap_map_snapshot(&self) -> HeapMap {
        let mut heaps = Vec::with_capacity(self.config.heap_count + 1);
        for hi in 0..=self.config.heap_count {
            let heap = &self.heaps[hi];
            let _token = self.lock_heap(heap, hi);
            let mut classes: Vec<HeapMapClass> = Vec::new();
            // Safety: heap lock held; the closure only reads.
            unsafe {
                heap.for_each_superblock(|sb| {
                    let class = (*sb).class;
                    let row = match classes.iter_mut().find(|c| c.class == class) {
                        Some(row) => row,
                        None => {
                            classes.push(HeapMapClass {
                                class,
                                block_size: (*sb).block_size,
                                ..HeapMapClass::default()
                            });
                            classes.last_mut().unwrap()
                        }
                    };
                    row.superblocks += 1;
                    row.blocks_in_use += (*sb).in_use as u64;
                    row.capacity += (*sb).capacity as u64;
                    row.occupancy
                        [HeapMapClass::bucket((*sb).in_use as u64, (*sb).capacity as u64)] += 1;
                });
            }
            classes.sort_by_key(|c| c.class);
            heaps.push(HeapMapHeap {
                index: hi,
                live_bytes: heap.u(),
                held_bytes: heap.a.load(Relaxed),
                empty_superblocks: heap.empty_count(),
                classes,
            });
        }
        HeapMap { ts: now(), heaps }
    }

    /// Record one trace event when a tracer is attached; a single
    /// atomic load + branch (and no virtual time) when not.
    #[inline]
    fn emit(&self, kind: EventKind, arg0: u32, arg1: u64) {
        if let Some(t) = self.tracer_ref() {
            t.emit(kind, arg0, arg1);
        }
    }

    /// Lock `heap` (index `hi`), reporting the acquisition — and, when
    /// the returned token drops, the release and hold time — to the
    /// attached tracer/registry. With neither attached this is exactly
    /// `heap.lock.lock()` plus two atomic loads.
    #[inline]
    fn lock_heap<'a>(&'a self, heap: &'a Heap, hi: usize) -> HeapLockToken<'a> {
        let guard = heap.lock.lock();
        let tracer = self.tracer_ref();
        let metrics = self.metrics_ref();
        if tracer.is_none() && metrics.is_none() {
            return HeapLockToken {
                tracer: None,
                metrics: None,
                heap_index: hi as u32,
                acquired_at: 0,
                _guard: guard,
            };
        }
        let waited = guard.waited();
        if let Some(m) = metrics {
            m.on_lock(hi, waited);
        }
        if let Some(t) = tracer {
            t.emit(EventKind::LockAcquire, hi as u32, waited);
        }
        // Stamped after the acquire event so the hold slice excludes
        // the cost of recording it.
        HeapLockToken {
            tracer,
            metrics,
            heap_index: hi as u32,
            acquired_at: now(),
            _guard: guard,
        }
    }

    /// Report a corruption event to the log and, when attached, the
    /// tracer (`arg0` = [`CorruptionKind`] ordinal).
    fn report_corruption(&self, kind: CorruptionKind, addr: usize, note: &'static str) {
        self.log.report(kind, addr, note);
        self.emit(EventKind::Corruption, kind as u32, 0);
    }

    /// Bytes reserved past each block payload (the `Full`-mode canary).
    const fn block_extra(&self) -> usize {
        if self.config.hardening.poisons() {
            harden::CANARY_SIZE
        } else {
            0
        }
    }

    /// Whether the thread-local magazine front-end is enabled.
    fn magazines_on(&self) -> bool {
        self.config.magazine_capacity != 0
    }

    /// Whether a free of `class` can end up on a superblock's deferred
    /// stack instead of its free list. The locked back-end defers only
    /// through the front-end, which serves classes below `MAG_CLASSES`;
    /// the lock-free back-end also defers frees of bigger classes whose
    /// superblock sits in a CAS-guarded domain (`free_dispatch`).
    fn defers_frees(&self, class: usize) -> bool {
        self.lockfree() || (self.magazines_on() && class < MAG_CLASSES)
    }

    /// Blocks a magazine refill pulls, and a flush returns, under one
    /// heap-lock acquisition: half the magazine.
    #[inline]
    fn magazine_batch(&self) -> usize {
        (self.config.magazine_capacity / 2).max(1)
    }

    /// Whether the lock-free back-end is enabled (implies magazines;
    /// enforced by `HoardConfig::validate`).
    fn lockfree(&self) -> bool {
        self.config.lockfree_backend
    }

    /// Chunk alignment in effect: the lock-free back-end aligns chunks
    /// to the superblock size so `ptr & !(S-1)` recovers the superblock
    /// base — O(1) metadata lookup by address masking.
    fn chunk_align(&self) -> usize {
        if self.lockfree() {
            self.config.superblock_size.max(CHUNK_ALIGN)
        } else {
            CHUNK_ALIGN
        }
    }

    /// Layout of one superblock chunk under the back-end in effect.
    fn superblock_layout(&self) -> Layout {
        Layout::from_size_align(self.config.superblock_size, self.chunk_align())
            .expect("superblock layout")
    }

    /// Pull one superblock chunk from the source, registering its base
    /// for mask-lookup when the lock-free back-end is on.
    ///
    /// # Safety
    ///
    /// As for [`ChunkSource::alloc_chunk`].
    unsafe fn alloc_sb_chunk(&self) -> Option<NonNull<u8>> {
        let chunk = self.source.alloc_chunk(self.superblock_layout())?;
        if self.lockfree() {
            self.registry.insert(chunk.as_ptr() as usize);
        }
        Some(chunk)
    }

    /// Return a superblock chunk to the source (the inverse of
    /// [`alloc_sb_chunk`](Self::alloc_sb_chunk)).
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock chunk the caller exclusively owns.
    unsafe fn free_sb_chunk(&self, sb: *mut Superblock) {
        if self.lockfree() {
            self.registry.remove(sb as usize);
        }
        self.source
            .free_chunk(NonNull::new_unchecked(sb as *mut u8), self.superblock_layout());
    }

    /// Total (acquisitions, virtually contended acquisitions) across all
    /// heap locks — the counters behind the "fast path bypasses the
    /// lock" measurements in `results/`.
    pub fn heap_lock_stats(&self) -> (u64, u64) {
        let mut acq = 0;
        let mut con = 0;
        for heap in self.heaps.iter().take(self.config.heap_count + 1) {
            acq += heap.lock.acquisitions();
            con += heap.lock.contentions();
        }
        (acq, con)
    }

    // ----- the thread-local front-end (magazines + deferred frees) -----

    /// Deferred remote frees tolerated on one superblock before foreign
    /// `free`s fall back to the locked path (which drains): half the
    /// superblock's blocks, so a producer can never park more than half
    /// a superblock per superblock.
    fn remote_limit(capacity: u32) -> u32 {
        (capacity / 2).max(1)
    }

    /// Fast-path `malloc`: pop from this processor's magazine, refilling
    /// a half-capacity batch under one lock acquisition when dry.
    /// `None` (slot collision or refill OOM) falls back to the locked
    /// path.
    unsafe fn magazine_alloc(&self, class: usize) -> Option<NonNull<u8>> {
        let slot = &self.frontend[current_proc() % MAG_SLOTS];
        let claim = slot.try_claim()?;
        let mag = claim.magazine(class);
        let block_size = self.classes.class(class).block_size;
        let (p, hit) = match mag.pop() {
            Some(p) => {
                charge_cost(Cost::MagazineOp);
                (p, true)
            }
            None => {
                charge_cost(Cost::MallocFast);
                let got = if self.lockfree() {
                    self.refill_lockfree(claim.heap(), current_proc() % MAG_SLOTS, class, mag)
                } else {
                    self.refill_magazine(class, mag)
                };
                if got == 0 {
                    return None;
                }
                // Guard: `claim`. The whole batch leaves the heaps here,
                // in the one RMW this path makes on the `live` cell.
                self.stats
                    .on_magazine_refill_in(claim.stats(), got as u64 * block_size as u64);
                self.emit(EventKind::MagazineRefill, class as u32, got as u64);
                if let Some(m) = self.metrics_ref() {
                    m.on_magazine_refill(self.heap_index_for_current_thread(), class);
                }
                (mag.pop()?, false)
            }
        };
        self.prepare_block_for_handout(p, block_size);
        // Guard: `claim`, still held (refill or not, it never dropped).
        // The block was already out of the heaps: no shared cell moves.
        claim.stats().on_magazine_alloc(block_size as u64, hit);
        self.emit(EventKind::AllocMagazine, class as u32, block_size as u64);
        if let Some(m) = self.metrics_ref() {
            // A refill-then-pop took the heap lock, so only a pop hit
            // counts as a lock bypass (as in the shard).
            m.on_alloc(self.heap_index_for_current_thread(), class, hit);
        }
        Some(NonNull::new_unchecked(p))
    }

    /// Hardening transforms a block needs on its way out of a magazine;
    /// mirrors what `alloc_small` does after `alloc_block`.
    unsafe fn prepare_block_for_handout(&self, p: *mut u8, block_size: u32) {
        if self.config.hardening.detects() {
            let h = read_header(p);
            if h.tag == Tag::Freed {
                // Stashed by a front-end free: its poison sat unguarded
                // in the magazine; check before reuse.
                if self.config.hardening.poisons() && !harden::poison_intact(p, block_size) {
                    self.report_corruption(
                        CorruptionKind::PoisonOverwrite,
                        p as usize,
                        "freed block modified before reuse",
                    );
                }
                write_header(p, HeaderWord::new(Tag::Superblock, h.value));
            }
        }
        if self.config.hardening.poisons() {
            harden::write_canary(p, block_size);
        }
    }

    /// Pull a half-capacity batch of blocks for `class` into `mag` under
    /// one acquisition of the caller's heap lock, draining deferred
    /// remote frees first (the producer–consumer return path). Returns
    /// the number of blocks obtained (0 = heap and source exhausted).
    unsafe fn refill_magazine(&self, class: usize, mag: &mut Magazine) -> usize {
        let block_size = self.classes.class(class).block_size;
        let hi = self.heap_index_for_current_thread();
        let heap = &self.heaps[hi];
        let _guard = self.lock_heap(heap, hi);
        if let Some(m) = self.metrics_ref() {
            // A refill only runs on a dry magazine; record the boundary.
            m.on_magazine_level(0);
        }

        // Full superblocks are exactly where deferred remote frees pool
        // up (the consumer's heap looks exhausted while its blocks sit
        // parked); recover them before pulling fresh memory.
        let mut trigger = self.drain_full_group_remotes(heap, class);

        let want = self.magazine_batch();
        let mut got = 0usize;
        let mut escalated = false;
        while got < want {
            // The same four-step waterfall as `alloc_small_attempt`.
            // Guard: `_guard` (heap `hi`'s lock), for every `heap` update.
            let mut sb = heap.find_with_free(class);
            if sb.is_null() {
                sb = self.recycle_empty(heap, class, block_size);
            }
            if sb.is_null() && !escalated {
                // Cross-thread churn parks blocks on partially-full
                // superblocks' deferred stacks too; a whole-class drain
                // beats transferring or mapping fresh memory. Once per
                // refill: a second pass would find the stacks empty.
                escalated = true;
                trigger |= self.drain_class_remotes(heap, class);
                continue;
            }
            if sb.is_null() {
                sb = self.fetch_from_global(heap, hi, class, block_size);
            }
            if sb.is_null() {
                sb = self.fresh_superblock(heap, hi, class);
            }
            if sb.is_null() {
                break;
            }
            if Superblock::remote_pending(sb) {
                // Draining can re-home `sb` — onto the empty list when
                // every live block was sitting parked — so reselect
                // instead of allocating from a possibly-moved superblock.
                trigger |= self.drain_remote_locked(heap, sb);
                continue;
            }
            let mut taken = 0u64;
            while got < want && Superblock::has_free(sb) {
                let reused = self.config.hardening.poisons() && !(*sb).free_head.is_null();
                let p = Superblock::alloc_block(sb);
                if reused && !harden::poison_intact(p, block_size) {
                    self.report_corruption(
                        CorruptionKind::PoisonOverwrite,
                        p as usize,
                        "freed block modified before reuse",
                    );
                }
                mag.push(p);
                taken += 1;
                got += 1;
            }
            heap.add_u(class, taken * block_size as u64);
            heap.relink(sb);
            if !self.config.f_empty_blocks((*sb).in_use, (*sb).capacity) {
                (*sb).armed = true;
            }
        }
        // Restore only when a drain fired the armed-latch trigger (the
        // same hysteresis as `free_small`): refills run every few dozen
        // allocations, and restoring unconditionally here ping-pongs
        // marginal superblocks through the global heap.
        if trigger {
            self.restore_invariant(heap, hi, class);
        }
        got
    }

    /// Fast-path `free`. Returns `true` when handled: same-heap blocks
    /// stash into the magazine (flushing half when full), foreign blocks
    /// push onto their superblock's deferred stack. `false` (slot
    /// collision, global-owned block, or drain pressure) sends the
    /// caller to the locked path.
    unsafe fn frontend_free(&self, sb: *mut Superblock, payload: *mut u8) -> bool {
        let block_size = (*sb).block_size;
        let owner = Superblock::owner(sb);
        if owner == self.heap_index_for_current_thread() {
            let slot = &self.frontend[current_proc() % MAG_SLOTS];
            let Some(claim) = slot.try_claim() else {
                return false;
            };
            let class = (*sb).class as usize;
            let mag = claim.magazine(class);
            if mag.len() >= self.config.magazine_capacity {
                let n = self.flush_magazine(class, mag);
                // Guard: `claim`; the batch's bytes in one RMW.
                self.stats
                    .on_magazine_flush_in(claim.stats(), n as u64 * block_size as u64);
                if let Some(m) = self.metrics_ref() {
                    m.on_magazine_flush(owner, class);
                }
            }
            if !self.harden_on_stash(sb, payload, block_size) {
                return true; // quarantined: handled, nothing stashed
            }
            mag.push(payload);
            charge_cost(Cost::MagazineOp);
            // Guard: `claim`. The block stays out of the heaps: no
            // shared cell moves.
            claim.stats().on_magazine_free(block_size as u64);
            self.emit(EventKind::FreeMagazine, class as u32, 0);
            if let Some(m) = self.metrics_ref() {
                m.on_free(owner, class, true);
            }
            true
        } else if owner != 0 {
            // Foreign per-processor heap: defer instead of bouncing its
            // lock — until the stack is deep enough that someone should
            // take the lock and drain it.
            if Superblock::remote_len(sb) >= Self::remote_limit((*sb).capacity) {
                return false;
            }
            if !self.harden_on_stash(sb, payload, block_size) {
                return true;
            }
            let _ = Superblock::push_remote(sb, payload);
            charge_cost(Cost::RemoteFreePush);
            // No guard: neither a claim nor the owner's lock is held
            // on a deferred push, so this stays on the shared cell.
            self.stats.on_deferred_free(block_size as u64);
            self.emit(EventKind::RemoteFreePush, (*sb).class, owner as u64);
            if let Some(m) = self.metrics_ref() {
                m.on_remote_free(owner, (*sb).class as usize);
            }
            true
        } else {
            // Global-owned: the locked path may also release empties.
            false
        }
    }

    /// Hardening transforms for a block entering a magazine or deferred
    /// stack — the same checks the locked `free_small` runs, so
    /// detection fires no later than it would without the front-end.
    /// Returns `false` when the block was quarantined (caller must not
    /// stash it).
    unsafe fn harden_on_stash(&self, sb: *mut Superblock, payload: *mut u8, block_size: u32) -> bool {
        if self.config.hardening.poisons() && !harden::canary_intact(payload, block_size) {
            self.report_corruption(
                CorruptionKind::CanarySmashed,
                payload as usize,
                "block quarantined",
            );
            self.log.on_quarantine();
            return false;
        }
        if self.config.hardening.detects() {
            // A second free of this pointer now hits Tag::Freed in
            // `deallocate_hardened`, exactly as on the locked path.
            write_header(payload, HeaderWord::new(Tag::Freed, sb as usize));
        }
        if self.config.hardening.poisons() {
            harden::poison_payload(payload, block_size);
        }
        true
    }

    /// Return the oldest half of `mag` to the heaps under one
    /// acquisition of the caller's own heap lock; blocks whose
    /// superblock migrated away since they were stashed go through the
    /// lock-free deferred stacks (never a second heap lock — the lock
    /// order stays per-processor → global). Returns the number of blocks
    /// that left the magazine.
    unsafe fn flush_magazine(&self, class: usize, mag: &mut Magazine) -> usize {
        if let Some(m) = self.metrics_ref() {
            // Flushes only run on a full magazine; record the boundary.
            m.on_magazine_level(mag.len() as u64);
        }
        let mut batch = [std::ptr::null_mut(); crate::magazine::MAX_MAGAZINE_CAPACITY];
        let n = mag.take_oldest(self.magazine_batch(), &mut batch);
        let hi = self.heap_index_for_current_thread();
        let heap = &self.heaps[hi];
        let _guard = self.lock_heap(heap, hi);
        self.emit(EventKind::MagazineFlush, class as u32, n as u64);
        let mut trigger = false;
        for &p in &batch[..n] {
            let h = read_header(p);
            let sb = h.value as *mut Superblock;
            // The batch mixes stashed blocks (already `Freed`-tagged and
            // poisoned by `harden_on_stash`) with refill-loaded ones
            // (still `Superblock`-tagged, never poisoned). Both are
            // about to rejoin a free list, whose hardening invariant is
            // `Freed` + intact poison; give the refill-loaded ones the
            // stash transforms now, exactly as `park_claimed_slot` does,
            // or the next reuse check misreads them as corruption.
            if self.config.hardening.detects() && h.tag != Tag::Freed {
                write_header(p, HeaderWord::new(Tag::Freed, sb as usize));
                if self.config.hardening.poisons() {
                    harden::poison_payload(p, (*sb).block_size);
                }
            }
            if Superblock::owner(sb) == hi {
                Superblock::free_block(sb, p);
                // Guard: `_guard` (heap `hi`'s lock).
                trigger |= self.settle_freed(heap, sb, 1);
            } else {
                let _ = Superblock::push_remote(sb, p);
            }
        }
        if trigger {
            self.restore_invariant(heap, hi, class);
        }
        n
    }

    /// Drain one superblock's deferred remote-free stack into its free
    /// list. Caller holds the owning heap's lock; `sb` is linked there.
    ///
    /// Returns [`settle_freed`](Self::settle_freed)'s verdict on the
    /// whole batch. An unconditional restore here would migrate a
    /// superblock to the global heap on nearly every drain only for the
    /// next refill to fetch it straight back: transfer ping-pong that
    /// costs more than the locks the front-end saves.
    unsafe fn drain_remote_locked(&self, heap: &Heap, sb: *mut Superblock) -> bool {
        let (mut p, n) = Superblock::take_remote(sb);
        if p.is_null() {
            return false;
        }
        while !p.is_null() {
            let next = Superblock::remote_next(sb, p);
            Superblock::free_block(sb, p);
            p = next;
        }
        self.stats.on_remote_drain();
        self.emit(EventKind::RemoteFreeDrain, (*sb).class, n as u64);
        // Guard: the caller holds `heap`'s lock.
        self.settle_freed(heap, sb, n)
    }

    /// Drain deferred stacks parked on `class`'s *full* superblocks —
    /// where producer–consumer traffic pools, since a superblock whose
    /// blocks all sit with the consumer looks full to its owner.
    unsafe fn drain_full_group_remotes(&self, heap: &Heap, class: usize) -> bool {
        self.drain_group_remotes(heap, class, Superblock::full_group())
    }

    /// Escalation before paying for a fresh superblock: drain deferred
    /// stacks across *every* fullness group of `class`. Cross-thread
    /// churn (larson-style bleeding) parks blocks on partially-full
    /// superblocks too, and recovering them beats an `OsChunk` by orders
    /// of magnitude.
    unsafe fn drain_class_remotes(&self, heap: &Heap, class: usize) -> bool {
        let mut trigger = false;
        for group in 0..=Superblock::full_group() {
            trigger |= self.drain_group_remotes(heap, class, group);
        }
        trigger
    }

    /// Steps 1b and 1c of `alloc_small_attempt`, out of line so the
    /// common path stays small: drain `class`'s full superblocks and
    /// retry; failing that, walk the remaining groups once — pricier,
    /// but it beats transferring or mapping fresh memory. Superblocks
    /// drained to empty are left for step 2. Returns a superblock with a
    /// free block, or null.
    #[cold]
    unsafe fn recover_deferred_frees(&self, heap: &Heap, class: usize) -> *mut Superblock {
        // A drain moves blocks from a deferred stack to a free list and
        // takes them out of `u_c`: a stage that left it alone freed
        // nothing, and its re-scan would find what step 1 found.
        let u = heap.class_u(class);
        self.drain_full_group_remotes(heap, class);
        if heap.class_u(class) != u {
            let sb = heap.find_with_free(class);
            if !sb.is_null() {
                return sb;
            }
        }
        let u = heap.class_u(class);
        for group in 0..Superblock::full_group() {
            self.drain_group_remotes(heap, class, group);
        }
        if heap.class_u(class) == u {
            return std::ptr::null_mut();
        }
        heap.find_with_free(class)
    }

    unsafe fn drain_group_remotes(&self, heap: &Heap, class: usize, group: usize) -> bool {
        let mut trigger = false;
        let mut sb = heap.group_head(class, group);
        while !sb.is_null() {
            let next = (*sb).next; // drain relinks; step first
            if Superblock::remote_pending(sb) {
                trigger |= self.drain_remote_locked(heap, sb);
            }
            sb = next;
        }
        trigger
    }

    /// Park every block of an already-claimed slot on its superblock's
    /// deferred stack (lock-free; the stacks are drained under the
    /// proper heap locks afterwards).
    unsafe fn park_claimed_slot(&self, claim: &SlotClaim<'_>) {
        let mut bytes = 0u64;
        for class in 0..MAG_CLASSES {
            let mag = claim.magazine(class);
            bytes += mag.len() as u64 * self.classes.class(class).block_size as u64;
            while let Some(p) = mag.pop() {
                let h = read_header(p);
                let sb = h.value as *mut Superblock;
                // A magazine holds blocks in two states: stashed by a
                // front-end free (already retagged `Freed` and poisoned
                // by `harden_on_stash`) and loaded by a refill (still
                // tagged `Superblock`, never poisoned — hardening is
                // deferred to handout). Parking sends both to the free
                // list, whose invariant under hardening is
                // `Freed`-tagged and poison-intact; give refill-loaded
                // blocks the stash transforms now or the next reuse
                // check misreads them as corruption. (No canary check:
                // refill-loaded blocks only get a canary at handout.)
                if self.config.hardening.detects() && h.tag != Tag::Freed {
                    write_header(p, HeaderWord::new(Tag::Freed, sb as usize));
                    if self.config.hardening.poisons() {
                        harden::poison_payload(p, (*sb).block_size);
                    }
                }
                let _ = Superblock::push_remote(sb, p);
            }
        }
        if bytes != 0 {
            // Guard: `claim`. Everything the slot held is back with the
            // heaps (parked blocks stay in `u`, DESIGN.md §9).
            self.stats.on_magazines_parked_in(claim.stats(), bytes);
        }
    }

    /// Drain every superblock of `heap` with a pending deferred stack.
    /// Allocation-free (rescans instead of collecting), so it is safe
    /// inside a `#[global_allocator]`. Caller holds `heap`'s lock.
    unsafe fn drain_all_remotes_locked(&self, heap: &Heap) {
        loop {
            let sb = heap.find_remote_pending();
            if sb.is_null() {
                return;
            }
            self.drain_remote_locked(heap, sb);
        }
    }

    /// Flush every magazine and drain every deferred remote-free stack,
    /// then re-establish the emptiness invariant on every heap.
    ///
    /// Intended for quiescent moments — between benchmark phases, or
    /// before asserting `live == 0` / heap-emptiness postconditions in
    /// tests. Spins briefly when an in-flight operation holds a slot
    /// claim. No-op when the front-end is disabled.
    pub fn flush_frontend(&self) {
        if !self.magazines_on() {
            return;
        }
        unsafe {
            for slot in &self.frontend {
                let claim = loop {
                    match slot.try_claim() {
                        Some(c) => break c,
                        None => std::thread::yield_now(),
                    }
                };
                self.park_claimed_slot(&claim);
            }
            if self.lockfree() {
                // Slot heaps drain only after *every* slot is parked (a
                // later slot's magazine may hold an earlier slot's
                // blocks), then settle their invariants.
                for (i, slot) in self.frontend.iter().enumerate() {
                    let claim = loop {
                        match slot.try_claim() {
                            Some(c) => break c,
                            None => std::thread::yield_now(),
                        }
                    };
                    let sh = claim.heap();
                    for class in 0..MAG_CLASSES {
                        self.drain_slot_class(sh, class);
                    }
                    self.restore_slot_invariant(sh, i);
                }
            }
            // Per-processor heaps first: their restorations migrate
            // superblocks *to* the global heap, which is settled last.
            for hi in (0..=self.config.heap_count).rev() {
                let heap = &self.heaps[hi];
                let _guard = self.lock_heap(heap, hi);
                self.drain_all_remotes_locked(heap);
                if hi == 0 {
                    continue;
                }
                // No free to name a class: every class answers for its
                // own partials (the empties go with the first call).
                for class in 0..self.classes.len() {
                    self.restore_invariant(heap, hi, class);
                }
            }
            if self.lockfree() {
                self.settle_cache();
            }
        }
    }

    // ----- the lock-free back-end -----
    //
    // With `config.lockfree_backend` the three lock rendezvous of the
    // magazine design disappear:
    //
    // * metadata lookup: chunks are aligned to `S`, so `free` recovers
    //   the superblock as `ptr & !(S-1)` plus one probe of the live-base
    //   registry (no header dependency on the unhardened path);
    // * remote frees: each superblock's deferred stack is one packed
    //   64-bit word (head index | count | ABA tag), so pushes are one
    //   CAS and the owner drains with one swap;
    // * the global heap: whole superblocks park on Treiber stacks
    //   (`GlobalCache`) instead of heap 0's locked lists.
    //
    // Small-class superblocks are owned by *magazine slots* (pseudo-
    // owner `SLOT_OWNER_BASE + slot`), each a claim-guarded mini-heap
    // (`SlotHeap`) obeying the same emptiness invariant as a heap, so
    // the paper's O(U + P·S) blowup bound survives with `P` counted as
    // heaps + slots. Heap locks remain only on the rare fallback paths
    // (slot collisions and classes too big for magazines).

    /// Lock-free refill: pull a half-capacity batch for `class` from
    /// the slot's own mini-heap, falling back to the cache and then the
    /// OS. The slot-claim counterpart of `refill_magazine`; never takes
    /// a heap lock. Returns the number of blocks obtained.
    unsafe fn refill_lockfree(
        &self,
        sh: &mut SlotHeap,
        slot_idx: usize,
        class: usize,
        mag: &mut Magazine,
    ) -> usize {
        let block_size = self.classes.class(class).block_size;
        let s = self.config.superblock_size;
        let me = SLOT_OWNER_BASE + slot_idx;
        if let Some(m) = self.metrics_ref() {
            // A refill only runs on a dry magazine; record the boundary.
            m.on_magazine_level(0);
        }
        // Parked remote frees are where this class's blocks pool up;
        // recover them before pulling fresh memory. Slot bins are short
        // (the invariant bounds them), so one whole-class sweep covers
        // what the locked path does in two.
        let mut trigger = self.drain_slot_class(sh, class);
        let want = self.magazine_batch();
        let mut got = 0usize;
        while got < want {
            // The same waterfall as `refill_magazine`, against the
            // slot's structures: bin → own empty → cache → OS.
            let mut sb = sh.find_with_free(class);
            if sb.is_null() {
                sb = sh.pop_empty();
                if !sb.is_null() {
                    if (*sb).class as usize != class {
                        let before = Superblock::usable_bytes(sb);
                        Superblock::reformat(sb, s, class as u32, block_size, self.block_extra());
                        sh.a += Superblock::usable_bytes(sb);
                        sh.a -= before;
                    }
                    sh.link(sb);
                }
            }
            if sb.is_null() {
                sb = self.adopt_from_cache(sh, me, class, block_size);
            }
            if sb.is_null() {
                let Some(chunk) = self.alloc_sb_chunk() else {
                    break;
                };
                sb = Superblock::init(
                    chunk.as_ptr(),
                    s,
                    class as u32,
                    block_size,
                    me,
                    self.block_extra(),
                );
                sh.a += Superblock::usable_bytes(sb);
                sh.link(sb);
            }
            if Superblock::remote_pending(sb) {
                // Draining can re-home `sb` onto the empty list;
                // reselect instead of allocating from a moved superblock.
                trigger |= self.drain_slot_sb(sh, sb);
                continue;
            }
            let mut taken = 0u64;
            while got < want && Superblock::has_free(sb) {
                let reused = self.config.hardening.poisons() && !(*sb).free_head.is_null();
                let p = Superblock::alloc_block(sb);
                if reused && !harden::poison_intact(p, block_size) {
                    self.report_corruption(
                        CorruptionKind::PoisonOverwrite,
                        p as usize,
                        "freed block modified before reuse",
                    );
                }
                mag.push(p);
                taken += 1;
                got += 1;
            }
            sh.u += taken * block_size as u64;
            if !self.config.f_empty_blocks((*sb).in_use, (*sb).capacity) {
                (*sb).armed = true;
            }
        }
        // Same armed-latch hysteresis as `refill_magazine`.
        if trigger {
            self.restore_slot_invariant(sh, slot_idx);
        }
        got
    }

    /// Adopt one superblock from the lock-free cache into a slot heap:
    /// partials of `class` first, then an empty to reformat. One CAS
    /// per stack attempted; accounting is pure post-adoption arithmetic
    /// on the claim-guarded slot counters.
    unsafe fn adopt_from_cache(
        &self,
        sh: &mut SlotHeap,
        me: usize,
        class: usize,
        block_size: u32,
    ) -> *mut Superblock {
        let mut sb = self.cache.pop_partial(class);
        if sb.is_null() {
            sb = self.cache.pop_empty();
            if !sb.is_null() && (*sb).class as usize != class {
                Superblock::reformat(
                    sb,
                    self.config.superblock_size,
                    class as u32,
                    block_size,
                    self.block_extra(),
                );
            }
        }
        if sb.is_null() {
            return sb;
        }
        charge_cost(Cost::AtomicRmw);
        Superblock::set_owner(sb, me);
        sh.a += Superblock::usable_bytes(sb);
        sh.u += Superblock::used_bytes(sb);
        sh.link(sb);
        self.stats.on_transfer_from_global();
        charge_cost(Cost::SuperblockTransfer);
        let pct = fullness_pct(sb);
        self.emit(EventKind::TransferFromGlobal, 0, pct);
        if let Some(m) = self.metrics_ref() {
            m.on_transfer_from_global(0, pct);
        }
        sb
    }

    /// `free` for the lock-free back-end (small classes). Same-slot
    /// blocks stash into the magazine under the claim; everything else
    /// rides the superblock's packed remote word. Never takes a heap
    /// lock.
    unsafe fn lockfree_free(&self, sb: *mut Superblock, payload: *mut u8) {
        let block_size = (*sb).block_size;
        let class = (*sb).class as usize;
        let slot_idx = current_proc() % MAG_SLOTS;
        let me = SLOT_OWNER_BASE + slot_idx;
        if Superblock::owner(sb) == me {
            if let Some(claim) = self.frontend[slot_idx].try_claim() {
                // Owner can only change under this slot's claim, so the
                // re-check below makes the read stable for the stash.
                if Superblock::owner(sb) == me {
                    let mag = claim.magazine(class);
                    if mag.len() >= self.config.magazine_capacity {
                        let n = self.flush_magazine_lockfree(claim.heap(), slot_idx, class, mag);
                        // Guard: `claim`; the batch's bytes in one RMW.
                        self.stats
                            .on_magazine_flush_in(claim.stats(), n as u64 * block_size as u64);
                        if let Some(m) = self.metrics_ref() {
                            m.on_magazine_flush(self.heap_index_for_current_thread(), class);
                        }
                    }
                    if !self.harden_on_stash(sb, payload, block_size) {
                        return; // quarantined: handled, nothing stashed
                    }
                    mag.push(payload);
                    charge_cost(Cost::MagazineOp);
                    // Guard: `claim`. The block stays out of the heaps:
                    // no shared cell moves.
                    claim.stats().on_magazine_free(block_size as u64);
                    self.emit(EventKind::FreeMagazine, class as u32, 0);
                    if let Some(m) = self.metrics_ref() {
                        m.on_free(self.heap_index_for_current_thread(), class, true);
                    }
                    return;
                }
            }
        }
        // Foreign (another slot, a heap, the cache) or claim collision.
        self.lockfree_remote_free(sb, payload);
    }

    /// Account and defer one free onto `sb`'s packed remote word
    /// (hardening transforms included; quarantine swallows the push).
    unsafe fn lockfree_remote_free(&self, sb: *mut Superblock, payload: *mut u8) {
        if !self.harden_on_stash(sb, payload, (*sb).block_size) {
            return;
        }
        let owner = Superblock::owner(sb);
        // No guard: callers arrive with or without a claim (and never
        // with the owner's), so this stays on the shared cell.
        self.stats.on_deferred_free((*sb).block_size as u64);
        self.emit(EventKind::RemoteFreePush, (*sb).class, owner as u64);
        if let Some(m) = self.metrics_ref() {
            let hi = if owner <= MAX_HEAPS { owner } else { 0 };
            m.on_remote_free(hi, (*sb).class as usize);
        }
        self.push_remote_lockfree(sb, payload);
    }

    /// Push one block onto `sb`'s packed remote word; when the stack
    /// crosses `remote_limit`, try to steal the owner's structure and
    /// drain in place (the lock-free analogue of the forced-drain
    /// fallback in `frontend_free`).
    unsafe fn push_remote_lockfree(&self, sb: *mut Superblock, payload: *mut u8) {
        let count = Superblock::push_remote(sb, payload);
        charge_cost(Cost::AtomicRmw);
        if count >= Self::remote_limit((*sb).capacity) {
            self.steal_drain(sb);
        }
    }

    /// Drain a superblock whose remote stack crossed the threshold,
    /// wherever it lives: a slot heap (claim it), a per-processor heap
    /// (lock it), or the cache (nothing to do — adoption drains). Best
    /// effort: a busy owner keeps the stack until its next operation.
    unsafe fn steal_drain(&self, sb: *mut Superblock) {
        let owner = Superblock::owner(sb);
        if owner == 0 {
            return;
        }
        if owner >= SLOT_OWNER_BASE {
            let slot_idx = owner - SLOT_OWNER_BASE;
            if let Some(claim) = self.frontend[slot_idx].try_claim() {
                // Stable once re-checked under the claim (see
                // `lockfree_free`).
                if Superblock::owner(sb) == owner {
                    let sh = claim.heap();
                    if self.drain_slot_sb(sh, sb) {
                        self.restore_slot_invariant(sh, slot_idx);
                    }
                }
            }
            return;
        }
        let heap = &self.heaps[owner];
        let guard = self.lock_heap(heap, owner);
        if Superblock::owner(sb) != owner {
            return; // migrated while we were locking; its new owner drains
        }
        if self.drain_remote_locked(heap, sb) {
            self.restore_invariant(heap, owner, (*sb).class as usize);
        }
        drop(guard);
    }

    /// Drain `sb`'s packed remote word into its free list with one
    /// atomic swap. Caller holds the owning slot's claim; `sb` is
    /// linked in `sh`. Returns whether to trigger invariant restoration
    /// (the armed-latch hysteresis of `drain_remote_locked`).
    unsafe fn drain_slot_sb(&self, sh: &mut SlotHeap, sb: *mut Superblock) -> bool {
        let (mut p, n) = Superblock::take_remote(sb);
        charge_cost(Cost::AtomicRmw);
        if p.is_null() {
            return false;
        }
        let was_f_empty = self.config.f_empty_blocks((*sb).in_use, (*sb).capacity);
        let block_size = (*sb).block_size as u64;
        while !p.is_null() {
            let next = Superblock::remote_next(sb, p);
            Superblock::free_block(sb, p);
            p = next;
        }
        sh.u -= block_size * n as u64;
        sh.relink(sb);
        self.stats.on_remote_drain();
        self.emit(EventKind::RemoteFreeDrain, (*sb).class, n as u64);
        let crossed = !was_f_empty && self.config.f_empty_blocks((*sb).in_use, (*sb).capacity);
        let too_many_empties = (*sb).in_use == 0 && sh.empty_count > self.config.slack_k;
        let trigger = ((*sb).armed && crossed) || too_many_empties;
        if crossed {
            (*sb).armed = false;
            self.emit(EventKind::EmptinessCross, 0, 0);
        }
        trigger
    }

    /// Drain every pending remote stack on `class`'s superblocks in a
    /// slot heap. Returns the accumulated restoration trigger.
    unsafe fn drain_slot_class(&self, sh: &mut SlotHeap, class: usize) -> bool {
        let mut trigger = false;
        let mut sb = sh.class_head(class);
        while !sb.is_null() {
            let next = (*sb).next; // drain may relink; step first
            if Superblock::remote_pending(sb) {
                trigger |= self.drain_slot_sb(sh, sb);
            }
            sb = next;
        }
        trigger
    }

    /// Lock-free flush: return the oldest half of the `class` magazine.
    /// Slot-owned blocks free directly under the claim; blocks whose
    /// superblock migrated away ride its remote word. The slot-claim
    /// counterpart of `flush_magazine`; returns the number of blocks
    /// that left the magazine.
    unsafe fn flush_magazine_lockfree(
        &self,
        sh: &mut SlotHeap,
        slot_idx: usize,
        class: usize,
        mag: &mut Magazine,
    ) -> usize {
        if let Some(m) = self.metrics_ref() {
            // Flushes only run on a full magazine; record the boundary.
            m.on_magazine_level(mag.len() as u64);
        }
        let mut batch = [std::ptr::null_mut(); crate::magazine::MAX_MAGAZINE_CAPACITY];
        let n = mag.take_oldest(self.magazine_batch(), &mut batch);
        let me = SLOT_OWNER_BASE + slot_idx;
        self.emit(EventKind::MagazineFlush, class as u32, n as u64);
        let mut trigger = false;
        for &p in &batch[..n] {
            let h = read_header(p);
            let sb = h.value as *mut Superblock;
            // Same two-population normalization as `flush_magazine`:
            // refill-loaded blocks get the stash transforms on their way
            // to a free list.
            if self.config.hardening.detects() && h.tag != Tag::Freed {
                write_header(p, HeaderWord::new(Tag::Freed, sb as usize));
                if self.config.hardening.poisons() {
                    harden::poison_payload(p, (*sb).block_size);
                }
            }
            if Superblock::owner(sb) == me {
                let was_f_empty = self.config.f_empty_blocks((*sb).in_use, (*sb).capacity);
                Superblock::free_block(sb, p);
                sh.u -= (*sb).block_size as u64;
                sh.relink(sb);
                let crossed = !was_f_empty && self.config.f_empty_blocks((*sb).in_use, (*sb).capacity);
                let too_many_empties = (*sb).in_use == 0 && sh.empty_count > self.config.slack_k;
                trigger |= ((*sb).armed && crossed) || too_many_empties;
                if crossed {
                    (*sb).armed = false;
                    self.emit(EventKind::EmptinessCross, 0, 0);
                }
            } else {
                let _ = Superblock::push_remote(sb, p);
                charge_cost(Cost::AtomicRmw);
            }
        }
        if trigger {
            self.restore_slot_invariant(sh, slot_idx);
        }
        n
    }

    /// Re-establish the emptiness invariant on a slot heap by retiring
    /// superblocks to the lock-free cache: the same policy and
    /// hysteresis as `restore_invariant`, with CAS pushes in place of
    /// heap 0's lock. Caller holds the slot's claim.
    unsafe fn restore_slot_invariant(&self, sh: &mut SlotHeap, _slot_idx: usize) {
        let mut moved_partial = false;
        loop {
            if !self.config.invariant_violated(sh.u, sh.a) {
                return;
            }
            let (victim, used) = if moved_partial {
                // Only empties may continue the loop.
                (sh.pop_empty(), 0)
            } else {
                sh.take_emptiest(&self.config)
            };
            if victim.is_null() {
                return; // nothing eligible (transient; see module docs)
            }
            if (*victim).in_use != 0 {
                moved_partial = true;
            }
            sh.a -= Superblock::usable_bytes(victim);
            sh.u -= used;
            self.retire_to_cache(victim, 0);
        }
    }

    /// Push an unlinked superblock the caller exclusively owns onto the
    /// cache (empty stack, or its class's partial stack) and hand it to
    /// the global domain. One CAS; no lock. `from` is the heap index
    /// reported to telemetry (0 for slot retirements).
    unsafe fn retire_to_cache(&self, victim: *mut Superblock, from: usize) {
        // Ownership must transfer *before* the push publishes the
        // superblock: the popper adopts it immediately, and concurrent
        // frees routed by a stale slot/heap owner would chase a
        // structure that no longer tracks it. Frees that see owner 0
        // defer onto the remote word, which survives the transfer.
        Superblock::set_owner(victim, 0);
        charge_cost(Cost::AtomicRmw);
        let pct = fullness_pct(victim);
        if (*victim).in_use == 0 {
            self.cache.push_empty(victim);
        } else {
            self.cache.push_partial((*victim).class as usize, victim);
        }
        self.stats.on_transfer_to_global();
        charge_cost(Cost::SuperblockTransfer);
        self.emit(EventKind::TransferToGlobal, from as u32, pct);
        if let Some(m) = self.metrics_ref() {
            m.on_transfer_to_global(from, pct);
        }
    }

    /// Quiescent sweep of the cache: drain deferred frees parked on
    /// cached partials (pop → drain → re-push through an intrusive
    /// local chain; allocation-free) and re-home drained ones onto the
    /// empty stack.
    unsafe fn settle_cache(&self) {
        for class in 0..self.classes.len() {
            let mut kept: *mut Superblock = std::ptr::null_mut();
            loop {
                let sb = self.cache.pop_partial(class);
                if sb.is_null() {
                    break;
                }
                if Superblock::remote_pending(sb) {
                    let (mut p, n) = Superblock::take_remote(sb);
                    while !p.is_null() {
                        let next = Superblock::remote_next(sb, p);
                        Superblock::free_block(sb, p);
                        p = next;
                    }
                    self.stats.on_remote_drain();
                    self.emit(EventKind::RemoteFreeDrain, (*sb).class, n as u64);
                }
                if (*sb).in_use == 0 {
                    self.cache.push_empty(sb);
                } else {
                    (*sb).next = kept;
                    kept = sb;
                }
            }
            while !kept.is_null() {
                let next = (*kept).next;
                self.cache.push_partial(class, kept);
                kept = next;
            }
        }
    }

    // ----- malloc -----

    unsafe fn alloc_small(&self, class: usize) -> Option<NonNull<u8>> {
        if let Some(p) = self.alloc_small_attempt(class) {
            return Some(p);
        }
        // OOM recovery: the source refused a chunk. Flush the empty
        // superblocks hoarded as per-heap slack (and the global pool)
        // back to the source and retry once — the request may fit in
        // the memory we were keeping for locality.
        if self.reclaim_empty_superblocks() == 0 {
            return None;
        }
        let p = self.alloc_small_attempt(class)?;
        self.recovery.on_rescue();
        Some(p)
    }

    unsafe fn alloc_small_attempt(&self, class: usize) -> Option<NonNull<u8>> {
        let block_size = self.classes.class(class).block_size;
        let hi = self.heap_index_for_current_thread();
        let heap = &self.heaps[hi];
        let _guard = self.lock_heap(heap, hi);

        // 1. Fullest superblock of this class with a free block.
        let mut sb = heap.find_with_free(class);

        // 1b/1c. (Classes with deferred frees only) An exhausted class
        //     may just mean its blocks sit parked on deferred stacks.
        if sb.is_null() && self.defers_frees(class) {
            sb = self.recover_deferred_frees(heap, class);
        }

        // 2. Recycle one of our own empty superblocks (any class).
        // Guard: `_guard` (heap `hi`'s lock), for every `heap` update.
        if sb.is_null() {
            sb = self.recycle_empty(heap, class, block_size);
        }

        // 3. Ask the global heap for a superblock of this class (or an
        //    empty one to reformat).
        if sb.is_null() {
            sb = self.fetch_from_global(heap, hi, class, block_size);
        }

        // 4. Fresh superblock from the OS.
        if sb.is_null() {
            sb = self.fresh_superblock(heap, hi, class);
        }
        if sb.is_null() {
            return None;
        }

        // In Full mode a block coming off the free list still carries
        // its poison; peek before alloc_block consumes the list head.
        let reused = self.config.hardening.poisons() && !(*sb).free_head.is_null();
        let payload = Superblock::alloc_block(sb);
        if reused && !harden::poison_intact(payload, block_size) {
            // Something wrote through a dangling pointer while the
            // block sat freed. The block itself is fine to hand out;
            // report and continue.
            self.report_corruption(
                CorruptionKind::PoisonOverwrite,
                payload as usize,
                "freed block modified before reuse",
            );
        }
        if self.config.hardening.poisons() {
            harden::write_canary(payload, block_size);
        }
        heap.add_u(class, block_size as u64);
        heap.relink(sb);
        // Re-arm the eviction latch once the superblock fills back past
        // the f-emptiness boundary (see `free_small`).
        if !self.config.f_empty_blocks((*sb).in_use, (*sb).capacity) {
            (*sb).armed = true;
        }
        // Guard: `_guard` (heap `hi`'s shard).
        self.stats.on_alloc_in(heap.stats(), block_size as u64);
        self.emit(EventKind::Alloc, class as u32, block_size as u64);
        if let Some(m) = self.metrics_ref() {
            m.on_alloc(hi, class, false);
        }
        Some(NonNull::new_unchecked(payload))
    }

    /// Step 2 of `malloc`: recycle one of `heap`'s own empties for
    /// `class`, reformatting one that last served another (its payload
    /// capacity, hence `a`, changes). Linked, or null. `heap` locked.
    unsafe fn recycle_empty(&self, heap: &Heap, class: usize, block_size: u32) -> *mut Superblock {
        let sb = heap.pop_empty();
        if sb.is_null() {
            return sb;
        }
        if (*sb).class as usize != class {
            heap.guarded_sub(&heap.a, Superblock::usable_bytes(sb));
            let s = self.config.superblock_size;
            Superblock::reformat(sb, s, class as u32, block_size, self.block_extra());
            heap.guarded_add(&heap.a, Superblock::usable_bytes(sb));
        }
        heap.link(sb);
        sb
    }

    /// Step 4 of `malloc`: a fresh superblock of `class` from the chunk
    /// source, linked into `heap` (locked); null when the source refuses.
    unsafe fn fresh_superblock(&self, heap: &Heap, hi: usize, class: usize) -> *mut Superblock {
        let Some(chunk) = self.alloc_sb_chunk() else {
            return std::ptr::null_mut();
        };
        let (s, size) = (self.config.superblock_size, self.classes.class(class).block_size);
        let sb = Superblock::init(chunk.as_ptr(), s, class as u32, size, hi, self.block_extra());
        heap.guarded_add(&heap.a, Superblock::usable_bytes(sb));
        heap.link(sb);
        sb
    }

    /// Step 3 of `malloc`: while holding heap `hi`'s lock, move one
    /// suitable superblock over from the global domain — the locked
    /// global heap, or the lock-free cache. Returns the superblock
    /// linked into `heap`, or null.
    unsafe fn fetch_from_global(
        &self,
        heap: &Heap,
        hi: usize,
        class: usize,
        block_size: u32,
    ) -> *mut Superblock {
        let sb = if self.lockfree() {
            let mut sb = self.cache.pop_partial(class);
            if sb.is_null() {
                sb = self.cache.pop_empty();
            }
            if sb.is_null() {
                return sb;
            }
            charge_cost(Cost::AtomicRmw);
            Superblock::set_owner(sb, hi);
            sb
        } else {
            // The global lock covers only list surgery, accounting, and
            // the ownership handoff; the (comparatively expensive)
            // reformat runs after it drops. Ownership *must* transfer
            // under the lock: a concurrent free still reading owner 0
            // would lock heap 0 and relink the already-unlinked
            // superblock there. Once the owner reads `hi`, such frees
            // serialize on heap `hi`'s lock — which the caller holds for
            // the duration of the reformat.
            let global = &self.heaps[0];
            let _g0 = self.lock_heap(global, 0);
            let found = global.find_with_free(class);
            let sb = if !found.is_null() {
                global.unlink(found);
                found
            } else {
                global.pop_empty()
            };
            if sb.is_null() {
                return sb;
            }
            // Debit the global heap at the superblock's *current*
            // geometry; ours is credited at the new one below.
            // Guard: `_g0` (the global heap's lock).
            global.guarded_sub(&global.a, Superblock::usable_bytes(sb));
            global.sub_u((*sb).class as usize, Superblock::used_bytes(sb));
            Superblock::set_owner(sb, hi);
            sb
        };
        if (*sb).class as usize != class {
            debug_assert_eq!((*sb).in_use, 0, "only empty superblocks reformat");
            let s = self.config.superblock_size;
            Superblock::reformat(sb, s, class as u32, block_size, self.block_extra());
        }
        let used = Superblock::used_bytes(sb);
        // Guard: the caller holds `heap`'s lock.
        heap.guarded_add(&heap.a, Superblock::usable_bytes(sb));
        heap.add_u(class, used);
        heap.link(sb);
        self.stats.on_transfer_from_global();
        charge_cost(Cost::SuperblockTransfer);
        let pct = fullness_pct(sb);
        self.emit(EventKind::TransferFromGlobal, hi as u32, pct);
        if let Some(m) = self.metrics_ref() {
            m.on_transfer_from_global(hi, pct);
        }
        sb
    }

    // ----- free -----

    /// Route a validated small-block free: through the front-end when
    /// magazines are on and the class qualifies, else (or on fallback)
    /// through the locked path.
    unsafe fn free_dispatch(&self, sb: *mut Superblock, payload: *mut u8) {
        if self.lockfree() {
            if ((*sb).class as usize) < MAG_CLASSES {
                self.lockfree_free(sb, payload);
                return;
            }
            let owner = Superblock::owner(sb);
            if owner == 0 || owner >= SLOT_OWNER_BASE {
                // A big-class superblock in a CAS-guarded domain (the
                // cache, or transiently a slot): its lists must never be
                // mutated under heap 0's lock, so defer onto the remote
                // word — the next adopter drains.
                self.lockfree_remote_free(sb, payload);
                return;
            }
            self.free_small(sb, payload);
            return;
        }
        if self.magazines_on()
            && ((*sb).class as usize) < MAG_CLASSES
            && self.frontend_free(sb, payload)
        {
            return;
        }
        self.free_small(sb, payload);
    }

    unsafe fn free_small(&self, sb: *mut Superblock, payload: *mut u8) {
        loop {
            let owner = Superblock::owner(sb);
            if self.lockfree() && (owner == 0 || owner >= SLOT_OWNER_BASE) {
                // Migrated into a CAS-guarded domain between dispatch
                // and lock: defer instead (heap 0 is never locked for
                // superblock traffic in this mode).
                self.lockfree_remote_free(sb, payload);
                return;
            }
            let heap = &self.heaps[owner];
            let guard = self.lock_heap(heap, owner);
            if Superblock::owner(sb) != owner {
                drop(guard);
                // Superblock migrated between the owner read and the
                // lock; chase it. Counted so the targeted stress test
                // (and production telemetry) can see the race fire.
                self.stats.on_free_owner_retry();
                continue;
            }
            let mut drain_trigger = false;
            if self.magazines_on() && Superblock::remote_pending(sb) {
                // Deferred foreign frees are drained by whoever next
                // holds the owner's lock over this superblock — this is
                // the forced-drain path once a stack hits remote_limit.
                drain_trigger = self.drain_remote_locked(heap, sb);
            }

            let block_size = (*sb).block_size as u64;
            if self.config.hardening.poisons()
                && !harden::canary_intact(payload, (*sb).block_size)
            {
                // The program wrote past the end of this block. Freeing
                // it would let the smashed region recirculate; instead
                // quarantine it — leave it allocated (accounting
                // unchanged, so the heap invariants stay intact) and
                // keep going.
                drop(guard);
                self.report_corruption(
                    CorruptionKind::CanarySmashed,
                    payload as usize,
                    "block quarantined",
                );
                self.log.on_quarantine();
                return;
            }
            Superblock::free_block(sb, payload);
            if self.config.hardening.detects() {
                // Retag the header so a second free of this pointer is
                // caught in O(1); alloc_block retags on reuse.
                write_header(payload, HeaderWord::new(Tag::Freed, sb as usize));
            }
            if self.config.hardening.poisons() {
                harden::poison_payload(payload, (*sb).block_size);
            }
            // Guard: `guard` (heap `owner`'s lock — the block's heap,
            // not necessarily the caller's), for the shard and for
            // `settle_freed`'s `u`.
            let remote = owner != self.heap_index_for_current_thread();
            self.stats
                .on_free_in(heap.stats(), block_size, owner == 0 || remote);
            self.emit(EventKind::Free, (*sb).class, owner as u64);
            if let Some(m) = self.metrics_ref() {
                m.on_free(owner, (*sb).class as usize, false);
            }

            let trigger = self.settle_freed(heap, sb, 1);
            if owner != 0 && (trigger || drain_trigger) {
                self.restore_invariant(heap, owner, (*sb).class as usize);
            }
            return;
        }
    }

    /// Book `freed` blocks that just went back onto `sb`'s free list
    /// (one block, a magazine flush, a drained deferred stack): take
    /// them out of `u_c`, re-home `sb`, and say whether the caller should
    /// restore the emptiness invariant. Caller holds `heap`'s lock; `sb`
    /// is linked there.
    ///
    /// Emptiness-group hysteresis: only frees that move an *armed*
    /// superblock across the f-emptiness boundary trigger restoration;
    /// the latch re-arms when the superblock fills back past it (see
    /// `alloc_small`). A heap whose occupancy random-walks at the
    /// boundary therefore keeps its superblocks instead of ping-ponging
    /// the marginal one through the global heap: the role the paper
    /// assigns to its emptiness groups. A drained superblock first parks
    /// on the heap's empty list, where any size class can recycle it;
    /// only a heap hoarding more than K empties (the paper's bound on a
    /// heap's free-space slack) triggers on a drain.
    #[inline]
    unsafe fn settle_freed(&self, heap: &Heap, sb: *mut Superblock, freed: u32) -> bool {
        // A copy: `self` holds interior-mutable cells, so after each store
        // through `sb` or `heap` a read of `self.config` is a reload (28.0
        // against 27.0 ns per locked call, `results/mode_trial.md`).
        let cfg = self.config;
        let (in_use, capacity) = ((*sb).in_use, (*sb).capacity);
        let was_f_empty = cfg.f_empty_blocks(in_use + freed, capacity);
        heap.sub_u((*sb).class as usize, (*sb).block_size as u64 * freed as u64);
        heap.relink(sb);
        let crossed = !was_f_empty && cfg.f_empty_blocks(in_use, capacity);
        let too_many_empties = in_use == 0 && heap.empty_count() > cfg.slack_k;
        let trigger = ((*sb).armed && crossed) || too_many_empties;
        if crossed {
            (*sb).armed = false;
            self.emit(EventKind::EmptinessCross, Superblock::owner(sb) as u32, 0);
        }
        trigger
    }

    /// Migrate superblocks from heap `hi` to the global heap while the
    /// emptiness invariant is violated. *Completely empty* superblocks
    /// answer to the heap-wide `u`/`a` and may migrate freely (no live
    /// blocks, no class: moving them causes neither remote frees nor
    /// fetch-back thrash). A *partially filled* one answers to its size
    /// class, for which the paper states and proves the invariant: once
    /// the empties are gone, at most one moves per triggering free, only
    /// if `class` — the class of that free — itself violates
    /// `u_c ≥ a_c − K·S ∨ u_c ≥ (1−f)·a_c`, and then `class`'s emptiest
    /// f-empty superblock (the paper's "transfer a superblock that is at
    /// least f empty"). Judged heap-wide, a heap of many thin classes is
    /// always in violation, and a crossing in any class evicted the
    /// first class's superblock, to be fetched straight back. With the
    /// crossing trigger this converges at quiescence (every superblock
    /// that drains triggers). Caller holds heap `hi`'s lock.
    unsafe fn restore_invariant(&self, heap: &Heap, hi: usize, class: usize) {
        let mut moved_partial = false;
        loop {
            // Cheapest first: with no empty to give and `class` inside its
            // slack nothing can move, whatever the O(classes) sum says.
            let partial_due = !moved_partial
                && self.config.invariant_violated(heap.class_u(class), heap.class_a(class));
            if (heap.empty_count() == 0 && !partial_due)
                || !self.config.invariant_violated(heap.u(), heap.a.load(Relaxed))
            {
                return;
            }
            let mut victim = heap.pop_empty();
            if victim.is_null() {
                victim = heap.take_emptiest(class, &self.config);
                moved_partial = true;
            }
            if victim.is_null() {
                return; // nothing eligible (transient; see module docs)
            }
            // A partial is `class`'s own; an empty has no bytes in use.
            let used = Superblock::used_bytes(victim);
            // Guard: the caller holds `heap`'s lock.
            heap.guarded_sub(&heap.a, Superblock::usable_bytes(victim));
            heap.sub_u(class, used);

            if self.lockfree() {
                self.retire_to_cache(victim, hi);
                continue;
            }

            let global = &self.heaps[0];
            let _g0 = self.lock_heap(global, 0);
            Superblock::set_owner(victim, 0);
            // Guard: `_g0` (the global heap's lock).
            global.guarded_add(&global.a, Superblock::usable_bytes(victim));
            global.add_u(class, used);
            global.place(victim);
            self.stats.on_transfer_to_global();
            charge_cost(Cost::SuperblockTransfer);
            let pct = fullness_pct(victim);
            self.emit(EventKind::TransferToGlobal, hi as u32, pct);
            if let Some(m) = self.metrics_ref() {
                m.on_transfer_to_global(hi, pct);
            }
        }
    }

    /// Out-of-memory recovery: return every completely empty superblock
    /// — the global heap's pool plus each per-processor heap's K-slack —
    /// and every parked large chunk to the chunk source. Returns the
    /// number of chunks reclaimed.
    ///
    /// Locks one heap at a time and never nests, so it may only be
    /// called with **no** heap lock held (the allocation paths call it
    /// after their first attempt has fully unwound).
    unsafe fn reclaim_empty_superblocks(&self) -> u64 {
        if self.magazines_on() {
            // Best effort: park the blocks of any uncontended magazine
            // (lock-free, so no heap lock is held here) — they may be
            // all that keeps otherwise-empty superblocks allocated.
            for slot in &self.frontend {
                if let Some(claim) = slot.try_claim() {
                    self.park_claimed_slot(&claim);
                }
            }
        }
        let mut reclaimed = 0u64;
        for (hi, heap) in self
            .heaps
            .iter()
            .take(self.config.heap_count + 1)
            .enumerate()
        {
            let _guard = self.lock_heap(heap, hi);
            if self.magazines_on() {
                self.drain_all_remotes_locked(heap);
            }
            let mut here = 0u64;
            loop {
                let sb = heap.pop_empty();
                if sb.is_null() {
                    break;
                }
                // Guard: `_guard` (heap `hi`'s lock).
                heap.guarded_sub(&heap.a, Superblock::usable_bytes(sb));
                self.free_sb_chunk(sb);
                here += 1;
            }
            if here > 0 {
                self.emit(EventKind::OomReclaim, hi as u32, here);
            }
            reclaimed += here;
        }
        if self.lockfree() {
            // Slot-owned and cached empties live outside the heaps.
            let mut extra = 0u64;
            for slot in &self.frontend {
                if let Some(claim) = slot.try_claim() {
                    let sh = claim.heap();
                    for class in 0..MAG_CLASSES {
                        self.drain_slot_class(sh, class);
                    }
                    loop {
                        let sb = sh.pop_empty();
                        if sb.is_null() {
                            break;
                        }
                        sh.a -= Superblock::usable_bytes(sb);
                        self.free_sb_chunk(sb);
                        extra += 1;
                    }
                }
            }
            loop {
                let sb = self.cache.pop_empty();
                if sb.is_null() {
                    break;
                }
                self.free_sb_chunk(sb);
                extra += 1;
            }
            if extra > 0 {
                self.emit(EventKind::OomReclaim, 0, extra);
            }
            reclaimed += extra;
        }
        // Parked large chunks are hoarded memory like any empty
        // superblock.
        let parked = self
            .large
            .drain(&self.source, |addr| self.report_parked_corruption(addr));
        if parked > 0 {
            self.emit(EventKind::OomReclaim, 0, parked);
        }
        reclaimed += parked;
        if reclaimed > 0 {
            self.recovery.on_reclaim(reclaimed);
        }
        reclaimed
    }

    // ----- hardened deallocation -----

    /// `deallocate` with `Basic`/`Full` hardening: every way a pointer
    /// can be wrong is turned into a [`CorruptionReport`] and a clean
    /// return instead of undefined behavior. Classification of wild
    /// pointers is best-effort — it requires reading the word before
    /// the pointer, which for a pointer into unmapped memory can still
    /// fault — but every pointer this allocator ever returned, plus any
    /// pointer into memory it owns, is classified safely.
    ///
    /// [`CorruptionReport`]: crate::CorruptionReport
    unsafe fn deallocate_hardened(&self, ptr: NonNull<u8>) {
        let p = ptr.as_ptr();
        if !(p as usize).is_multiple_of(hoard_mem::MIN_ALIGN) {
            self.report_corruption(
                CorruptionKind::MisalignedPointer,
                p as usize,
                "free of a misaligned pointer",
            );
            return;
        }
        let Some(header) = try_read_header(p) else {
            self.report_corruption(
                CorruptionKind::ForeignPointer,
                p as usize,
                "header tag is not one this allocator writes",
            );
            return;
        };
        match header.tag {
            Tag::Freed => {
                self.report_corruption(CorruptionKind::DoubleFree, p as usize, "small block");
            }
            Tag::Superblock => {
                let sb = header.value as *mut Superblock;
                if sb.is_null() || !(sb as usize).is_multiple_of(self.chunk_align()) {
                    self.report_corruption(
                        CorruptionKind::ForeignPointer,
                        p as usize,
                        "header names a misaligned superblock",
                    );
                    return;
                }
                if self.lockfree() && !self.registry.overflowed() {
                    // Mask-derived forgery check: the header must name
                    // exactly the base the address maps to, and that
                    // base must be a live registered superblock. A
                    // forged header can satisfy neither without the
                    // pointer actually lying inside one of our chunks.
                    charge_cost(Cost::MaskLookup);
                    let masked = p as usize & !(self.config.superblock_size - 1);
                    if masked != sb as usize || !self.registry.contains(masked) {
                        self.report_corruption(
                            CorruptionKind::ForeignPointer,
                            p as usize,
                            "header disagrees with the address mask",
                        );
                        return;
                    }
                }
                if (*sb).magic != crate::superblock::SB_MAGIC {
                    self.report_corruption(
                        CorruptionKind::BadSuperblockMagic,
                        p as usize,
                        "free of a block of a dead or forged superblock",
                    );
                    return;
                }
                let owner = Superblock::owner(sb);
                let owner_ok = owner <= MAX_HEAPS
                    || (self.lockfree() && owner < SLOT_OWNER_BASE + MAG_SLOTS);
                if !owner_ok {
                    self.report_corruption(
                        CorruptionKind::ForeignPointer,
                        p as usize,
                        "superblock owner out of range",
                    );
                    return;
                }
                if !Superblock::contains(sb, p) {
                    self.report_corruption(
                        CorruptionKind::OutOfRangePointer,
                        p as usize,
                        "pointer is not on a block boundary of its superblock",
                    );
                    return;
                }
                self.free_dispatch(sb, p);
            }
            Tag::Large => {
                if !self.large_forget(header.value) {
                    self.report_corruption(CorruptionKind::DoubleFree, p as usize, "large object");
                    return;
                }
                match self.large.free(&self.source, header.value) {
                    Some((size, parked)) => {
                        // No guard on the large path: RMWs on the
                        // shared cell.
                        self.stats.on_free(size as u64, false);
                        self.emit(EventKind::FreeLarge, parked as u32, size as u64);
                    }
                    None => {
                        // Header magic failed after the registry said the
                        // object was live: an overflow reached the chunk
                        // header. Quarantine the chunk (leak it) rather
                        // than hand free_chunk a forged layout.
                        self.report_corruption(
                            CorruptionKind::BadLargeMagic,
                            p as usize,
                            "chunk quarantined",
                        );
                        self.log.on_quarantine();
                    }
                }
            }
            Tag::Baseline | Tag::Offset => {
                self.report_corruption(
                    CorruptionKind::ForeignPointer,
                    p as usize,
                    "block belongs to a different allocator or is interior",
                );
            }
        }
    }

    /// A parked large chunk's header was overwritten (a write through a
    /// stale pointer); the pool has abandoned that bucket's list. The
    /// check is on at every hardening level, like `free`'s.
    fn report_parked_corruption(&self, addr: usize) {
        self.report_corruption(
            CorruptionKind::BadLargeMagic,
            addr,
            "parked large chunk overwritten; its list abandoned",
        );
    }

    /// Lock the large-object registry, tolerating poisoning: a thread
    /// that panicked mid-push leaves the `Vec` in a sane state (at
    /// worst one address over- or under-recorded), so recovery is
    /// strictly better than wedging every later large free. The one
    /// place this policy lives; recoveries surface as a hardening trace
    /// event so they are observable rather than silent.
    fn large_live_locked(&self) -> std::sync::MutexGuard<'_, Vec<usize>> {
        self.large_live.lock().unwrap_or_else(|poisoned| {
            self.emit(EventKind::LockPoisoned, 0, 0);
            poisoned.into_inner()
        })
    }

    /// Record a live large object's chunk address (hardened modes only).
    fn large_remember(&self, chunk_addr: usize) {
        if self.config.hardening.detects() {
            self.large_live_locked().push(chunk_addr);
        }
    }

    /// Remove a large object from the live registry; `false` means it
    /// was not live (double free).
    fn large_forget(&self, chunk_addr: usize) -> bool {
        let mut live = self.large_live_locked();
        match live.iter().position(|&a| a == chunk_addr) {
            Some(i) => {
                live.swap_remove(i);
                true
            }
            None => false,
        }
    }

    // ----- validation plumbing (used by `debug` and tests) -----

    pub(crate) fn heaps(&self) -> &[Heap; MAX_HEAPS + 1] {
        &self.heaps
    }

    pub(crate) fn frontend(&self) -> &[MagazineSlot; MAG_SLOTS] {
        &self.frontend
    }

    pub(crate) fn cache(&self) -> &GlobalCache {
        &self.cache
    }

    pub(crate) fn live_cell(&self) -> u64 {
        self.stats.live_now()
    }
}

unsafe impl<Src: ChunkSource> MtAllocator for HoardAllocator<Src> {
    fn name(&self) -> &'static str {
        "hoard"
    }

    unsafe fn allocate(&self, size: usize) -> Option<NonNull<u8>> {
        let recorder = self.recorder_ref();
        let profiler = self.profiler_ref();
        // Only stamped when a device is attached: `now()` is free of
        // virtual time but the off-path must stay branch-minimal.
        let start = if recorder.is_some() { now() } else { 0 };
        let p = self.allocate_impl(size);
        if let Some(p) = p {
            let addr = p.as_ptr() as usize;
            // Recorded after the allocation so the token maps a pointer
            // no other thread can race on (the caller owns it
            // exclusively).
            if let Some(r) = recorder {
                r.record_alloc(addr, size, current_alloc_site(), start);
            }
            if let Some(prof) = profiler {
                charge_cost(Cost::ProfileSample);
                prof.record_alloc(addr, size as u32, current_alloc_site(), now());
                self.profile_tick(prof);
            }
        }
        p
    }

    unsafe fn deallocate(&self, ptr: NonNull<u8>) {
        let recorder = self.recorder_ref();
        // Recorded before the free: once the block is back on a free
        // list another proc may re-allocate the same address, and the
        // token map must retire this token first (likewise the
        // profiler's live-block map).
        if let Some(r) = recorder {
            r.record_free(ptr.as_ptr() as usize, now());
        }
        if let Some(prof) = self.profiler_ref() {
            charge_cost(Cost::ProfileSample);
            prof.record_free(ptr.as_ptr() as usize);
            self.profile_tick(prof);
        }
        self.deallocate_impl(ptr);
        if let Some(r) = recorder {
            // Extend the span over the free's own cost so replay gaps
            // only cover genuine think time.
            r.finish_op(now());
        }
    }

    fn stats(&self) -> AllocSnapshot {
        let mut snap = self.stats.snapshot();
        for heap in self.heaps.iter() {
            heap.add_stats_to(&mut snap);
        }
        for slot in self.frontend.iter() {
            slot.add_stats_to(&mut snap);
        }
        // `live_peak` stays the cell's own peak (an upper bound on `max U`).
        snap.live_current = self.app_live(snap.live_current);
        snap.with_source(self.source.stats())
    }

    unsafe fn usable_size(&self, ptr: NonNull<u8>) -> usize {
        let header = read_header(ptr.as_ptr());
        match header.tag {
            Tag::Superblock => (*(header.value as *mut Superblock)).block_size as usize,
            Tag::Large => large::large_size(header.value),
            Tag::Freed => unreachable!("usable_size of a freed pointer"),
            Tag::Baseline | Tag::Offset => unreachable!("pointer was not allocated by Hoard"),
        }
    }
}

impl<Src: ChunkSource> HoardAllocator<Src> {
    /// The allocation path behind [`MtAllocator::allocate`]; the trait
    /// method wraps it with the (usually detached) `.trc` recorder.
    ///
    /// # Safety
    ///
    /// As for [`MtAllocator::allocate`].
    unsafe fn allocate_impl(&self, size: usize) -> Option<NonNull<u8>> {
        debug_assert!(size > 0, "allocate(0)");
        let class_for_size = self.classes.index_for(size);
        if let Some(class) = class_for_size {
            if self.magazines_on() && class < MAG_CLASSES {
                if let Some(p) = self.magazine_alloc(class) {
                    return Some(p);
                }
            }
        }
        charge_cost(Cost::MallocFast);
        match class_for_size {
            Some(class) => self.alloc_small(class),
            None => {
                let corrupt = |addr| self.report_parked_corruption(addr);
                let (p, hit) = match self.large.alloc(&self.source, size, corrupt) {
                    Some(got) => got,
                    None => {
                        // OOM recovery, mirroring alloc_small: hand the
                        // hoarded empty superblocks back and retry once.
                        if self.reclaim_empty_superblocks() == 0 {
                            return None;
                        }
                        let got = self.large.alloc(&self.source, size, corrupt)?;
                        self.recovery.on_rescue();
                        got
                    }
                };
                self.large_remember(read_header(p.as_ptr()).value);
                // No guard on the large path: RMWs on the shared cell.
                self.stats.on_alloc(size as u64);
                self.emit(EventKind::AllocLarge, hit as u32, size as u64);
                Some(p)
            }
        }
    }

    /// The deallocation path behind [`MtAllocator::deallocate`]; the
    /// trait method wraps it with the recorder.
    ///
    /// # Safety
    ///
    /// As for [`MtAllocator::deallocate`].
    unsafe fn deallocate_impl(&self, ptr: NonNull<u8>) {
        charge_cost(Cost::FreeFast);
        if self.config.hardening.detects() {
            self.deallocate_hardened(ptr);
            return;
        }
        if self.lockfree() && !self.registry.overflowed() {
            // O(1) metadata lookup by address masking: chunks are
            // aligned to `S`, so the pointer's superblock base is one
            // AND away, and the live-base registry tells small from
            // large without touching the block header. A masked base
            // inside a large chunk can never alias a registered one —
            // any address within `S` above a superblock base is inside
            // that superblock's own chunk.
            let masked = ptr.as_ptr() as usize & !(self.config.superblock_size - 1);
            if self.registry.contains(masked) {
                charge_cost(Cost::MaskLookup);
                let sb = masked as *mut Superblock;
                debug_assert_eq!((*sb).magic, crate::superblock::SB_MAGIC, "bad free");
                debug_assert_eq!(
                    read_header(ptr.as_ptr()).value,
                    masked,
                    "mask and header disagree on the superblock base"
                );
                self.free_dispatch(sb, ptr.as_ptr());
                return;
            }
        }
        let header = read_header(ptr.as_ptr());
        match header.tag {
            Tag::Superblock => {
                let sb = header.value as *mut Superblock;
                debug_assert_eq!((*sb).magic, crate::superblock::SB_MAGIC, "bad free");
                self.free_dispatch(sb, ptr.as_ptr());
            }
            Tag::Large => {
                let (size, parked) = self
                    .large
                    .free(&self.source, header.value)
                    .expect("corrupt large-object header");
                // No guard on the large path: RMWs on the shared cell.
                self.stats.on_free(size as u64, false);
                self.emit(EventKind::FreeLarge, parked as u32, size as u64);
            }
            Tag::Freed | Tag::Baseline | Tag::Offset => {
                unreachable!("pointer was not allocated by Hoard")
            }
        }
    }
}

// Safety: all superblock state is guarded by per-heap locks; the raw
// pointers in heaps refer to chunks owned by this allocator.
unsafe impl<Src: ChunkSource> Send for HoardAllocator<Src> {}
unsafe impl<Src: ChunkSource> Sync for HoardAllocator<Src> {}

impl<Src: ChunkSource> Drop for HoardAllocator<Src> {
    /// Return every parked large chunk and every owned superblock chunk
    /// to the source. Live blocks inside the latter become dangling —
    /// the same contract as dropping an arena; tests and the harness
    /// drop allocators only when idle.
    fn drop(&mut self) {
        // Release the attached telemetry Arcs (their other owners — the
        // harness, tests — keep the sink/registry alive independently).
        let t = self.tracer.swap(std::ptr::null_mut(), Relaxed);
        if !t.is_null() {
            unsafe { drop(Arc::from_raw(t)) };
        }
        let m = self.metrics.swap(std::ptr::null_mut(), Relaxed);
        if !m.is_null() {
            unsafe { drop(Arc::from_raw(m)) };
        }
        let r = self.recorder.swap(std::ptr::null_mut(), Relaxed);
        if !r.is_null() {
            unsafe { drop(Arc::from_raw(r)) };
        }
        let p = self.profiler.swap(std::ptr::null_mut(), Relaxed);
        if !p.is_null() {
            unsafe { drop(Arc::from_raw(p)) };
        }
        // Safety: `&mut self`; every parked chunk came from `source`.
        unsafe { self.large.drain(&self.source, |_| ()) };
        for heap in self.heaps.iter() {
            unsafe {
                // Collected first (freeing invalidates the links), then
                // freed without unlinking: the lists die with `self`,
                // and `&mut self` stands in for the lock the guarded
                // list bookkeeping would otherwise assert.
                let mut chunks: Vec<*mut Superblock> = Vec::new();
                heap.for_each_superblock(|sb| chunks.push(sb));
                for sb in chunks {
                    self.free_sb_chunk(sb);
                }
            }
        }
        if self.lockfree() {
            // Slot-owned and cached superblocks live outside the heaps.
            unsafe {
                for slot in &self.frontend {
                    let claim = slot.try_claim().expect("drop requires quiescence");
                    let sh = claim.heap();
                    let mut chunks: Vec<*mut Superblock> = Vec::new();
                    sh.for_each(|sb| chunks.push(sb));
                    for sb in chunks {
                        sh.unlink(sb);
                        self.free_sb_chunk(sb);
                    }
                }
                loop {
                    let sb = self.cache.pop_empty();
                    if sb.is_null() {
                        break;
                    }
                    self.free_sb_chunk(sb);
                }
                for class in 0..self.classes.len() {
                    loop {
                        let sb = self.cache.pop_partial(class);
                        if sb.is_null() {
                            break;
                        }
                        self.free_sb_chunk(sb);
                    }
                }
            }
        }
    }
}

/// `GlobalAlloc` so a Hoard instance can be the Rust global allocator.
///
/// Alignments ≤ 8 map directly onto [`MtAllocator::allocate`]; larger
/// alignments over-allocate and leave an [`Tag::Offset`] breadcrumb
/// header just before the aligned payload.
unsafe impl<Src: ChunkSource> std::alloc::GlobalAlloc for HoardAllocator<Src> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size().max(1);
        if layout.align() <= hoard_mem::MIN_ALIGN {
            return self
                .allocate(size)
                .map_or(std::ptr::null_mut(), |p| p.as_ptr());
        }
        // Over-aligned: allocate `size + align` and align within it.
        let Some(base) = self.allocate(size + layout.align()) else {
            return std::ptr::null_mut();
        };
        let base = base.as_ptr();
        let aligned = hoard_mem::align_up(base as usize, layout.align()) as *mut u8;
        if aligned == base {
            return base;
        }
        debug_assert!(aligned as usize - base as usize >= hoard_mem::HEADER_SIZE);
        hoard_mem::write_header(
            aligned,
            HeaderWord::from_int(Tag::Offset, aligned as usize - base as usize),
        );
        aligned
    }

    unsafe fn dealloc(&self, ptr: *mut u8, _layout: Layout) {
        if ptr.is_null() {
            return;
        }
        // Hardened modes must survive a wild pointer even here, where
        // the Offset breadcrumb is resolved before `deallocate` runs.
        let base = if self.config.hardening.detects() {
            match try_read_header(ptr) {
                Some(h) if h.tag == Tag::Offset => ptr.sub(h.to_int()),
                Some(_) => ptr,
                None => {
                    self.report_corruption(
                        CorruptionKind::ForeignPointer,
                        ptr as usize,
                        "dealloc of an unrecognized pointer",
                    );
                    return;
                }
            }
        } else {
            let header = read_header(ptr);
            if header.tag == Tag::Offset {
                ptr.sub(header.to_int())
            } else {
                ptr
            }
        };
        self.deallocate(NonNull::new_unchecked(base));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Over-aligned blocks carry an Offset header; keep them on the
        // slow path (alloc + copy + dealloc) to preserve alignment.
        if layout.align() <= hoard_mem::MIN_ALIGN && !ptr.is_null() && new_size > 0 {
            let p = NonNull::new_unchecked(ptr);
            if let Some(q) = self.reallocate(p, layout.size(), new_size) {
                return q.as_ptr();
            }
            return std::ptr::null_mut();
        }
        // Fallback identical to the default GlobalAlloc::realloc.
        let new_layout = Layout::from_size_align_unchecked(new_size.max(1), layout.align());
        let fresh = std::alloc::GlobalAlloc::alloc(self, new_layout);
        if !fresh.is_null() {
            std::ptr::copy_nonoverlapping(ptr, fresh, layout.size().min(new_size));
            std::alloc::GlobalAlloc::dealloc(self, ptr, layout);
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_mem::LIVE_GRANT;

    fn hoard() -> HoardAllocator {
        HoardAllocator::new_default()
    }

    #[test]
    fn small_alloc_roundtrip() {
        let h = hoard();
        unsafe {
            let p = h.allocate(24).unwrap();
            assert_eq!(p.as_ptr() as usize % 8, 0);
            std::ptr::write_bytes(p.as_ptr(), 0x7E, 24);
            assert_eq!(h.usable_size(p), 24);
            h.deallocate(p);
        }
        let snap = h.stats();
        assert_eq!(snap.live_current, 0);
        assert_eq!(snap.allocs, 1);
        assert_eq!(snap.frees, 1);
    }

    #[test]
    fn size_is_rounded_to_class() {
        let h = hoard();
        unsafe {
            let p = h.allocate(25).unwrap();
            assert_eq!(h.usable_size(p), 32, "25 rounds to the 32-byte class");
            h.deallocate(p);
        }
    }

    #[test]
    fn large_alloc_roundtrip() {
        let source = SystemSource::new();
        let h = HoardAllocator::with_source(HoardConfig::new(), &source).unwrap();
        unsafe {
            let p = h.allocate(100_000).unwrap();
            std::ptr::write_bytes(p.as_ptr(), 0x3C, 100_000);
            assert_eq!(h.usable_size(p), 100_000);
            h.deallocate(p);
            assert_eq!(h.stats().live_current, 0);
            assert_eq!(h.stats().held_current, 25 * 4096, "the chunk is parked");
            let q = h.allocate(100_000).unwrap();
            assert_eq!(q, p, "and serves the next request of its page count");
            assert_eq!(source.stats().chunk_allocs, 1, "with no second trip to the source");
            h.deallocate(q);
        }
        drop(h);
        assert_eq!(source.stats().held_current, 0, "drop returns parked chunks");
    }

    #[test]
    fn threshold_boundary_routes_correctly() {
        let h = hoard();
        let t = h.config().large_threshold();
        unsafe {
            let small = h.allocate(t).unwrap(); // exactly S/2: superblock path
            let large = h.allocate(t + 1).unwrap(); // S/2+1: large path
            assert_eq!(h.usable_size(small), t);
            assert_eq!(h.usable_size(large), t + 1);
            h.deallocate(small);
            h.deallocate(large);
        }
    }

    #[test]
    fn many_allocations_get_distinct_memory() {
        let h = hoard();
        unsafe {
            let ptrs: Vec<_> = (0..1000).map(|_| h.allocate(64).unwrap()).collect();
            for (i, p) in ptrs.iter().enumerate() {
                std::ptr::write_bytes(p.as_ptr(), i as u8, 64);
            }
            for (i, p) in ptrs.iter().enumerate() {
                for off in 0..64 {
                    assert_eq!(*p.as_ptr().add(off), i as u8);
                }
            }
            for p in ptrs {
                h.deallocate(p);
            }
        }
        assert_eq!(h.stats().live_current, 0);
    }

    #[test]
    fn freed_memory_is_reused_not_leaked() {
        let h = hoard();
        unsafe {
            for _ in 0..10_000 {
                let p = h.allocate(128).unwrap();
                h.deallocate(p);
            }
        }
        let snap = h.stats();
        // Churning one block must not accumulate superblocks.
        assert!(
            snap.held_peak <= 4 * h.config().superblock_size as u64,
            "held_peak {} indicates a leak",
            snap.held_peak
        );
    }

    #[test]
    fn cross_thread_free_is_remote_and_safe() {
        let h = std::sync::Arc::new(hoard());
        let ptrs: Vec<usize> = unsafe {
            (0..100)
                .map(|_| h.allocate(40).unwrap().as_ptr() as usize)
                .collect()
        };
        let h2 = std::sync::Arc::clone(&h);
        std::thread::spawn(move || unsafe {
            for p in ptrs {
                h2.deallocate(NonNull::new_unchecked(p as *mut u8));
            }
        })
        .join()
        .unwrap();
        let snap = h.stats();
        assert_eq!(snap.live_current, 0);
        assert!(snap.remote_frees > 0, "frees from another proc are remote");
    }

    #[test]
    fn global_alloc_impl_handles_overalignment() {
        use std::alloc::GlobalAlloc;
        let h = hoard();
        unsafe {
            for align in [16usize, 64, 256, 4096] {
                let layout = Layout::from_size_align(100, align).unwrap();
                let p = h.alloc(layout);
                assert!(!p.is_null());
                assert_eq!(p as usize % align, 0, "alignment {align} violated");
                std::ptr::write_bytes(p, 0xEE, 100);
                h.dealloc(p, layout);
            }
        }
        assert_eq!(h.stats().live_current, 0);
    }

    #[test]
    fn exhausted_source_returns_none_not_panic() {
        use hoard_mem::{FailingSource, SystemSource};
        let h = HoardAllocator::with_source(
            HoardConfig::new(),
            FailingSource::new(SystemSource::new(), 1),
        )
        .unwrap();
        unsafe {
            // First superblock succeeds; fill it to force a second.
            let mut live = Vec::new();
            while let Some(p) = h.allocate(4096) {
                live.push(p);
                assert!(live.len() < 100, "failure injection never triggered");
            }
            assert!(!live.is_empty(), "first superblock should have served");
            for p in live {
                h.deallocate(p);
            }
        }
    }

    #[test]
    fn static_construction_works() {
        static H: HoardAllocator = HoardAllocator::new_static(HoardConfig::new());
        unsafe {
            let p = H.allocate(16).unwrap();
            H.deallocate(p);
        }
        assert_eq!(H.stats().live_current, 0);
    }

    #[test]
    fn emptiness_invariant_triggers_transfers() {
        let h = hoard();
        unsafe {
            // Allocate enough 512-byte blocks for several superblocks,
            // then free them all: the invariant must push superblocks to
            // the global heap.
            let ptrs: Vec<_> = (0..200).map(|_| h.allocate(512).unwrap()).collect();
            for p in ptrs {
                h.deallocate(p);
            }
        }
        let (to_global, _) = h.transfer_counts();
        assert!(to_global > 0, "freeing everything must migrate superblocks");
    }

    /// A heap with a thin superblock in each of many classes is always
    /// in heap-wide violation, yet no class is over its own `K·S`: a
    /// crossing must not hand a superblock with a live block to the
    /// global heap, whichever class crosses. (Judged heap-wide, every
    /// crossing below evicted the first f-empty superblock of the
    /// lowest class, to be fetched straight back.)
    #[test]
    fn a_class_inside_its_slack_keeps_its_partials() {
        let h = HoardAllocator::with_config(HoardConfig::new()).unwrap();
        hoard_sim::switch_context(0, 0);
        let global_u = || {
            let v = crate::debug::validate(&h);
            assert!(v.is_consistent(), "{:?}", v.errors);
            v.heaps[0].u
        };
        unsafe {
            // One resident block in each of 24 classes.
            let sizes = [
                8usize, 16, 24, 32, 40, 56, 64, 72, 80, 96, 112, 128, 160, 200, 256, 320, 400,
                512, 640, 800, 1024, 1300, 1700, 2200,
            ];
            let residents = sizes.map(|size| h.allocate(size).unwrap());
            let classes: std::collections::HashSet<_> =
                sizes.iter().map(|&size| h.classes.index_for(size)).collect();
            assert!(classes.len() >= 20, "only {} distinct classes", classes.len());

            // Fill one 48 B superblock to one block above its f-emptiness
            // boundary, so each free below crosses it and each
            // allocation re-arms the latch.
            let class = h.classes.index_for(48).unwrap();
            let first = h.allocate(48).unwrap();
            let sb = read_header(first.as_ptr()).value as *mut Superblock;
            let mut held = vec![first];
            while h.config.f_empty_blocks((*sb).in_use, (*sb).capacity) {
                held.push(h.allocate(48).unwrap());
            }
            assert_eq!(h.heaps[Superblock::owner(sb)].class_a(class), Superblock::usable_bytes(sb));

            // The largest class holds one block a superblock: every free
            // drains one, which may leave — as an empty.
            let big = h.config.large_threshold();
            for _ in 0..1_000 {
                h.deallocate(held.pop().unwrap());
                assert!(!(*sb).armed, "the free did not cross the boundary");
                assert_eq!(global_u(), 0, "a 48 B crossing evicted a live superblock");
                held.push(h.allocate(48).unwrap());
                h.deallocate(h.allocate(big).unwrap());
                assert_eq!(global_u(), 0, "a drained superblock took a live one along");
            }
            let (to_global, from_global) = h.transfer_counts();
            assert!(to_global > 0 && from_global > 0, "the empties did circulate");
            held.into_iter().chain(residents).for_each(|p| h.deallocate(p));
        }
        assert_eq!(h.stats().live_current, 0);
    }

    #[test]
    fn global_heap_superblocks_are_reused_across_threads() {
        let h = std::sync::Arc::new(hoard());
        // Thread A allocates and frees a lot (pushing superblocks global).
        unsafe {
            let ptrs: Vec<_> = (0..500).map(|_| h.allocate(256).unwrap()).collect();
            for p in ptrs {
                h.deallocate(p);
            }
        }
        let held_before = h.stats().held_current;
        // Thread B allocates the same class: should reuse, not grow.
        let h2 = std::sync::Arc::clone(&h);
        std::thread::spawn(move || unsafe {
            let ptrs: Vec<_> = (0..500).map(|_| h2.allocate(256).unwrap()).collect();
            for p in ptrs {
                h2.deallocate(p);
            }
        })
        .join()
        .unwrap();
        let (_, from_global) = h.transfer_counts();
        assert!(from_global > 0, "thread B must fetch from the global heap");
        // Thread A's heap legitimately retains K superblocks of slack, so
        // thread B may need up to K+1 fresh superblocks from the OS.
        let slack = (h.config().slack_k as u64 + 1) * h.config().superblock_size as u64;
        assert!(
            h.stats().held_current <= held_before + slack,
            "reuse should prevent growth beyond the K-slack"
        );
    }

    #[test]
    fn every_superblock_size_validate_accepts_constructs() {
        for shift in 0..usize::BITS {
            let cfg = HoardConfig::new().with_superblock_size(1 << shift);
            // Building an accepted `S` must not panic in the class table
            // (2^19 did: `validate` took it, the table has 56 entries).
            assert_eq!(HoardAllocator::with_config(cfg).map(|_| ()), cfg.validate());
        }
    }

    /// The two configurations with a magazine front-end.
    fn frontends() -> [HoardConfig; 2] {
        [
            HoardConfig::with_default_magazines(),
            HoardConfig::with_lockfree(),
        ]
    }

    /// DESIGN.md §15's inventory for a hit: no counter of the shared
    /// cell moves, while `stats()` still sees every call.
    #[test]
    fn a_magazine_hit_writes_no_shared_counter() {
        const N: u64 = 1000;
        for cfg in frontends() {
            let h = HoardAllocator::with_config(cfg).unwrap();
            hoard_sim::switch_context(0, 0);
            unsafe {
                // Warm: the first allocation refills, its free stashes.
                h.deallocate(h.allocate(64).unwrap());
                let cell = h.stats.snapshot();
                let before = h.stats();
                for _ in 0..N {
                    h.deallocate(h.allocate(64).unwrap());
                }
                assert_eq!(h.stats.snapshot(), cell, "a hit moved the shared cell");
                let mut want = before;
                want.allocs += N;
                want.frees += N;
                want.magazines.alloc_hits += N;
                want.magazines.free_hits += N;
                assert_eq!(h.stats(), want);
            }
        }
    }

    /// The same inventory for the locked path of plain `hoard`: inside
    /// its heap's grant, an allocation or a free moves no counter of the
    /// shared cell, while `stats()` still sees every call.
    #[test]
    fn a_locked_call_inside_its_grant_writes_no_shared_counter() {
        const N: u64 = 10_000;
        let sizes = [16usize, 64, 256];
        let h = HoardAllocator::with_config(HoardConfig::new()).unwrap();
        hoard_sim::switch_context(0, 0);
        unsafe {
            // Warm: the first allocation draws the heap's grant, and a
            // resident block a class keeps its superblock linked.
            let resident = sizes.map(|size| h.allocate(size).unwrap());
            let cell = h.stats.snapshot();
            let before = h.stats();
            for i in 0..N as usize {
                h.deallocate(h.allocate(sizes[i % 3]).unwrap());
            }
            assert_eq!(
                h.stats.snapshot(),
                cell,
                "a locked call inside the grant moved the shared cell"
            );
            let mut want = before;
            want.allocs += N;
            want.frees += N;
            assert_eq!(h.stats(), want);
            resident.into_iter().for_each(|p| h.deallocate(p));
        }
        assert_eq!(h.stats().live_current, 0);
    }

    /// Outside the grant the cell moves once per `LIVE_GRANT` bytes, not
    /// once per call: walking `u` up by five grants and back down takes
    /// at most six writes of `live` each way.
    #[test]
    fn walking_u_by_five_grants_moves_the_cell_six_times_at_most() {
        let h = HoardAllocator::with_config(HoardConfig::new()).unwrap();
        hoard_sim::switch_context(0, 0);
        let moves = |step: &mut dyn FnMut()| {
            let before = h.stats.live_now();
            step();
            (h.stats.live_now() != before) as u32
        };
        unsafe {
            let mut held = Vec::new();
            let (mut u, mut up) = (0, 0);
            while u < 5 * LIVE_GRANT {
                up += moves(&mut || held.push(h.allocate(256).unwrap()));
                u += h.usable_size(held[0]) as u64;
            }
            assert_eq!(h.stats().live_current, u);
            let down: u32 = std::mem::take(&mut held)
                .into_iter()
                .map(|p| moves(&mut || h.deallocate(p)))
                .sum();
            assert!(
                (1..=6).contains(&up) && (1..=6).contains(&down),
                "{up} up, {down} down"
            );
            let s = h.stats();
            assert_eq!(s.live_current, 0);
            assert!(h.heaps[1].live_headroom() <= 2 * LIVE_GRANT);
            assert!(
                u <= s.live_peak && s.live_peak <= u + 2 * LIVE_GRANT,
                "{s:?}"
            );
        }
    }

    /// A deferred remote free moves `live` and the push count, from
    /// which the snapshot derives its share of `frees`/`remote_frees`;
    /// nothing else in the cell, and no shard.
    #[test]
    fn a_deferred_free_moves_only_live_and_the_push_count() {
        // Below `remote_limit` of a 64-byte superblock: every free defers.
        const N: u64 = 20;
        for cfg in frontends() {
            let h = HoardAllocator::with_config(cfg).unwrap();
            hoard_sim::switch_context(0, 0);
            unsafe {
                let blocks: Vec<_> = (0..N).map(|_| h.allocate(64).unwrap()).collect();
                hoard_sim::switch_context(1, 0);
                let cell = h.stats.snapshot();
                let before = h.stats();
                for p in blocks {
                    h.deallocate(p);
                }
                let deferred = |mut snap: AllocSnapshot| {
                    snap.live_current -= N * 64;
                    snap.frees += N;
                    snap.remote_frees += N;
                    snap.magazines.remote_pushes += N;
                    snap
                };
                assert_eq!(h.stats.snapshot(), deferred(cell));
                assert_eq!(h.stats(), deferred(before));
            }
        }
    }

    /// A refill and a flush each move the cell's `live` once, by the
    /// batch's bytes, and nothing else in it; their event counts are
    /// the shard's.
    #[test]
    fn a_refill_or_flush_moves_live_by_the_batch() {
        for cfg in frontends() {
            let h = HoardAllocator::with_config(cfg).unwrap();
            hoard_sim::switch_context(0, 0);
            let batch = h.magazine_batch() as u64;
            assert_eq!(h.config().magazine_capacity as u64, 2 * batch);
            unsafe {
                let cell = h.stats.snapshot();
                let mut held = vec![h.allocate(64).unwrap()];
                let mut want = cell;
                want.live_current += batch * 64;
                want.live_peak += batch * 64;
                assert_eq!(h.stats.snapshot(), want, "refill");
                let s = h.stats();
                assert_eq!((s.magazines.refills, s.allocs, s.live_current), (1, 1, 64));

                // Two more refills leave `batch - 1` blocks cached and
                // `2 * batch + 1` held: freeing them all overflows the
                // magazine exactly once.
                held.extend((0..2 * batch).map(|_| h.allocate(64).unwrap()));
                let cell = h.stats.snapshot();
                assert_eq!(cell.live_current, 3 * batch * 64);
                for p in held {
                    h.deallocate(p);
                }
                let mut want = cell;
                want.live_current -= batch * 64;
                assert_eq!(h.stats.snapshot(), want, "flush");
                let s = h.stats();
                assert_eq!((s.magazines.refills, s.magazines.flushes), (3, 1));
                assert_eq!(
                    (s.allocs, s.frees, s.live_current),
                    (2 * batch + 1, 2 * batch + 1, 0)
                );
                assert_eq!(h.frontend[0].cached_bytes(), cell.live_current - batch * 64);
            }
        }
    }

    /// `live_peak` is the peak of the `live` cell: above `max U` by no
    /// more than the magazines of the slots in use can hold plus two
    /// grants for every heap in use. `live_current` is the application's
    /// figure throughout, with nothing flushed.
    #[test]
    fn live_peak_bounds_max_u_from_above_by_the_cached_capacity() {
        const PROCS: usize = 3;
        let configs = [
            HoardConfig::new(),
            HoardConfig::with_default_magazines(),
            HoardConfig::with_lockfree(),
        ];
        for cfg in configs {
            let h = HoardAllocator::with_config(cfg).unwrap();
            let slack: u64 = (0..MAG_CLASSES)
                .map(|c| {
                    h.config().magazine_capacity as u64
                        * h.size_classes().class(c).block_size as u64
                })
                .sum::<u64>()
                * PROCS as u64;
            assert_eq!(slack == 0, !h.magazines_on());
            // The heaps in use: one per processor, and the global heap
            // (a free into a superblock it owns lands in its shard).
            let slack = slack + 2 * LIVE_GRANT * (PROCS as u64 + 1);
            let sizes = [16usize, 64, 200, 520, 24, 1024, 96, 5000, 40, 300];
            let mut held: Vec<(NonNull<u8>, u64)> = Vec::new();
            let (mut live, mut peak) = (0u64, 0u64);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            for step in 0..60_000u32 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (rng >> 33) as usize;
                hoard_sim::switch_context(r % PROCS, 0);
                // Grow for a while, shrink for a while.
                let growing = (step / 5000) % 2 == 0;
                unsafe {
                    if held.is_empty() || (r / 8) % 3 < if growing { 2 } else { 1 } {
                        let p = h.allocate(sizes[(r / 64) % sizes.len()]).unwrap();
                        let bytes = h.usable_size(p) as u64;
                        held.push((p, bytes));
                        live += bytes;
                        peak = peak.max(live);
                    } else {
                        let (p, bytes) = held.swap_remove((r / 64) % held.len());
                        h.deallocate(p);
                        live -= bytes;
                    }
                }
                let s = h.stats();
                assert_eq!(s.live_current, live, "step {step}");
                assert!(
                    peak <= s.live_peak && s.live_peak <= peak + slack,
                    "step {step}: {s:?}"
                );
            }
            for (p, _) in held.drain(..) {
                unsafe { h.deallocate(p) };
            }
            let s = h.stats();
            assert_eq!(s.live_current, 0);
            s.check_consistency().unwrap();
            if !h.magazines_on() {
                assert!(peak <= s.live_peak && s.live_peak <= peak + slack, "{s:?}");
            } else {
                assert!(s.live_peak > peak, "magazines held blocks at the peak");
            }
        }
    }
}
