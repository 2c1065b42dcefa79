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

use crate::config::{Frontend, HoardConfig};
use crate::harden::{self, CorruptionKind, CorruptionLog};
use crate::heap::Heap;
use crate::magazine::{
    Magazine, MagazineSlot, SlotClaim, MAGAZINE_BATCH, MAGAZINE_CAPACITY, MAG_CLASSES, MAG_SLOTS,
};
use crate::superblock::Superblock;
use crate::HEAPS;
use hoard_mem::{
    large, read_header, try_read_header, write_header, AllocSnapshot, AllocStats, ChunkSource,
    HeaderWord, LargePool, MtAllocator, SizeClassTable, SystemSource, Tag,
};
use hoard_sim::{charge_cost, current_proc, now, Cost, LockClass, VLockGuard};
use hoard_trace::{
    EventKind, HeapMap, HeapMapClass, HeapMapHeap, MetricsRegistry, MetricsSnapshot, Probe,
};
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::AcqRel, Ordering::Acquire};
// Counters here publish no other data, so relaxed ordering suffices
// throughout. Who may write which counter, and in what form (load +
// store under a guard, or an RMW), is tabulated in DESIGN.md §15; each
// guarded update below names its guard in a `Guard:` comment.
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

/// Alignment of every superblock chunk: a page. No lookup needs it (a
/// block finds its superblock through its header); the hardened `free`
/// uses it to refuse a header that names a superblock off a page
/// boundary before it reads that address's magic. Nothing else depends
/// on the value, which stays what it was.
const CHUNK_ALIGN: usize = 4096;

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

/// A held heap lock plus the probe loaded at acquisition. Dropping it
/// reports the release (hold duration in virtual units) *before* the
/// lock itself is released, so hold times never under-report.
/// Constructed by `HoardAllocator::lock_heap`.
struct HeapLockToken<'a> {
    probe: Option<&'a Probe>,
    heap_index: u32,
    acquired_at: u64,
    _guard: VLockGuard<'a>,
}

impl Drop for HeapLockToken<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(p) = self.probe {
            let held = now().saturating_sub(self.acquired_at);
            p.lock_released(self.heap_index as usize, held);
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
    /// `heaps[0]` is the global heap; `heaps[1..=HEAPS]` are
    /// per-processor.
    heaps: [Heap; HEAPS + 1],
    stats: AllocStats,
    source: Src,
    /// Corruption events detected by the hardened paths and by the
    /// large pool's always-on check of a parked header.
    log: CorruptionLog,
    /// Freed large chunks, parked for the next request of their page
    /// count — first a request from the heap that last had them out
    /// (the pool's home is the heap index, modulo `large::HOMES`).
    large: LargePool,
    recovery: RecoveryStats,
    /// Thread-local front-end: per-virtual-processor magazines of
    /// detached free blocks (slot = `proc % MAG_SLOTS`). Inert under
    /// `Frontend::Off`.
    frontend: [MagazineSlot; MAG_SLOTS],
    /// The attached telemetry (null = unobserved): a raw `Arc<Probe>`
    /// installed by [`attach`](HoardAllocator::attach). When null, every
    /// telemetry site pays one atomic load and a branch — and zero
    /// *virtual* time, so an unobserved run is bit-identical to a build
    /// without telemetry (enforced by `tests/telemetry.rs`).
    probe: AtomicPtr<Probe>,
    /// Probes `attach` replaced. An operation that loaded one before the
    /// swap may still be using it, so each lives until the allocator
    /// drops.
    retired: Mutex<Vec<Arc<Probe>>>,
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
            heaps: [const { Heap::new() }; HEAPS + 1],
            stats: AllocStats::new(),
            source,
            log: CorruptionLog::new(),
            large: LargePool::new(),
            recovery: RecoveryStats::new(),
            frontend: [const { MagazineSlot::new() }; MAG_SLOTS],
            probe: AtomicPtr::new(std::ptr::null_mut()),
            retired: Mutex::new(Vec::new()),
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

    /// Heap index serving the calling thread: `1 + proc mod HEAPS`
    /// (heap 0 is the global heap). This is the paper's thread-to-heap
    /// hash.
    #[inline]
    pub fn heap_index_for_current_thread(&self) -> usize {
        1 + current_proc() % HEAPS
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

    /// Attach `probe`: every later operation reports to the instruments
    /// it carries. Safe at any time, also while other threads are inside
    /// the allocator; a probe it replaces stays alive until the
    /// allocator drops, since one of them may still be using it.
    pub fn attach(&self, probe: Arc<Probe>) {
        let old = self.probe.swap(Arc::into_raw(probe).cast_mut(), AcqRel);
        if !old.is_null() {
            // Safety: `old` came from `Arc::into_raw` in an earlier
            // `attach`, and the swap took it out of `self.probe`: this is
            // its one release.
            let old = unsafe { Arc::from_raw(old) };
            // A push leaves the list valid even if it panics: recover it.
            let mut retired = self.retired.lock().unwrap_or_else(|e| e.into_inner());
            retired.push(old);
        }
    }

    /// Attach a probe carrying `registry` alone (replacing any other).
    pub fn attach_metrics(&self, registry: Arc<MetricsRegistry>) {
        self.attach(Arc::new(Probe {
            metrics: Some(registry),
            ..Probe::default()
        }));
    }

    /// The attached probe, if any.
    #[inline]
    pub fn probe(&self) -> Option<&Probe> {
        let p = self.probe.load(Acquire);
        // Safety: `p` came from `Arc::into_raw` in `attach`, and neither a
        // replacement (retired) nor anything short of `Drop` (`&mut
        // self`) releases it, so it outlives this `&self` borrow.
        unsafe { p.as_ref() }
    }

    /// Hand the attached probe, if any, to `f`.
    #[inline]
    fn with_probe(&self, f: impl FnOnce(&Probe)) {
        if let Some(p) = self.probe() {
            f(p);
        }
    }

    /// A [`MetricsRegistry`] sized to this allocator: `HEAPS + 1`
    /// heaps (index 0 = global) × the size-class table's length.
    pub fn new_metrics_registry(&self) -> MetricsRegistry {
        MetricsRegistry::new(HEAPS + 1, self.classes.len())
    }

    /// Snapshot the attached metrics registry, first refreshing its
    /// hardening gauges from the corruption log and OOM-recovery
    /// counters. `None` when no registry is attached.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let m = self.probe()?.metrics.as_deref()?;
        let rec = self.recovery_stats();
        m.set_hardening(
            self.log.total(),
            self.log.quarantined(),
            rec.chunk_reclaims,
            rec.rescued_allocations,
        );
        Some(m.snapshot())
    }

    /// Held bytes `A` and the application's live bytes `U`: a point of
    /// the profiler's fragmentation timeline.
    fn footprint(&self) -> (u64, u64) {
        let live = self.app_live(self.stats.live_now());
        (self.source.stats().held_current, live)
    }

    /// The application's share of `cell` (a reading of the `live` cell,
    /// which also counts what the magazines hold, what is left of each
    /// heap's grant and what the slots' deferred frees keep back): less
    /// every such gauge, read without claiming the slot or locking the
    /// heap. Exact at quiescence; saturating, because under traffic the
    /// gauges are read later than the cell and may have grown past it.
    fn app_live(&self, cell: u64) -> u64 {
        cell.saturating_sub(self.live_in_shards())
    }

    /// What the shards hold of the `live` cell between them: every
    /// slot's magazine contents and deferred headroom, and every heap's
    /// headroom.
    pub(crate) fn live_in_shards(&self) -> u64 {
        let slots = self
            .frontend
            .iter()
            .map(|slot| slot.cached_bytes() + slot.deferred_headroom());
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
        let mut heaps = Vec::with_capacity(HEAPS + 1);
        for (hi, heap) in self.heaps.iter().enumerate() {
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

    /// Record one trace event when a probe is attached; a single
    /// atomic load + branch (and no virtual time) when not.
    #[inline]
    fn emit(&self, kind: EventKind, arg0: u32, arg1: u64) {
        self.with_probe(|p| p.emit(kind, arg0, arg1));
    }

    /// Lock `heap` (index `hi`), reporting the acquisition — and, when
    /// the returned token drops, the release and hold time — to the
    /// attached probe. Unobserved this is exactly `heap.lock.lock()`
    /// plus one atomic load.
    #[inline]
    fn lock_heap<'a>(&'a self, heap: &'a Heap, hi: usize) -> HeapLockToken<'a> {
        let class = if hi == 0 { LockClass::Global } else { LockClass::Heap };
        let guard = heap.lock.lock_as(class);
        let probe = self.probe();
        let mut acquired_at = 0;
        if let Some(p) = probe {
            p.lock_acquired(hi, guard.waited());
            // Stamped after the acquire event so the hold slice excludes
            // the cost of recording it.
            acquired_at = now();
        }
        HeapLockToken {
            probe,
            heap_index: hi as u32,
            acquired_at,
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
        self.config.frontend != Frontend::Off
    }

    /// Whether blocks of `class` may be sitting on deferred stacks
    /// instead of free lists: only the front-end defers, and it serves
    /// the classes below `MAG_CLASSES`.
    #[inline]
    fn defers_frees(&self, class: usize) -> bool {
        class < MAG_CLASSES && self.magazines_on()
    }

    /// Book one deferred remote free of `bytes` under the calling
    /// processor's own slot claim, taken for the books alone: one swap
    /// on a line no other processor writes, and load + store beside it.
    /// When a colliding processor holds that slot, the shared cell's
    /// RMWs instead.
    #[inline]
    fn book_deferred_free(&self, bytes: u64) {
        match self.frontend[current_proc() % MAG_SLOTS].try_claim() {
            // Guard: the claim.
            Some(claim) => self.stats.on_deferred_free_in(claim.deferred(), bytes),
            None => self.stats.on_deferred_free(bytes),
        }
    }

    /// Blocks a refill of `block_size`-byte blocks pulls under one
    /// acquisition: a flush's batch, but no more than a quarter of a
    /// superblock's bytes, and at least one block. A batch counted in
    /// blocks would claim most of a superblock for a mid-size class (16
    /// of the 408-B class is 80 % of 8 KiB) and send the waterfall on
    /// to the global heap or the source to fill the batch, not the
    /// request; counted in bytes, classes up to `S / 64` keep the full
    /// half-magazine batch.
    #[inline]
    fn refill_batch(&self, block_size: u32) -> usize {
        let quarter = self.config.superblock_size / (4 * block_size as usize);
        MAGAZINE_BATCH.min(quarter).max(1)
    }

    /// Layout of one superblock chunk: `S` bytes at `CHUNK_ALIGN`.
    fn superblock_layout(&self) -> Layout {
        Layout::from_size_align(self.config.superblock_size, CHUNK_ALIGN)
            .expect("superblock layout")
    }

    /// Return a superblock chunk to the source.
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock chunk the caller exclusively owns.
    unsafe fn free_sb_chunk(&self, sb: *mut Superblock) {
        self.source
            .free_chunk(NonNull::new_unchecked(sb as *mut u8), self.superblock_layout());
    }

    /// Total (acquisitions, virtually contended acquisitions) across all
    /// heap locks — the counters behind the "fast path bypasses the
    /// lock" measurements in `results/`.
    pub fn heap_lock_stats(&self) -> (u64, u64) {
        let mut acq = 0;
        let mut con = 0;
        for heap in &self.heaps {
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
    /// a batch under one lock acquisition when dry.
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
                let got = self.refill_magazine(class, mag);
                self.with_probe(|p| {
                    p.magazine_refill(self.heap_index_for_current_thread(), class, got)
                });
                if got == 0 {
                    return None;
                }
                // Guard: `claim`. The whole batch leaves the heaps here,
                // in the one RMW this path makes on the `live` cell.
                self.stats
                    .on_magazine_refill_in(claim.stats(), got as u64 * block_size as u64);
                (mag.pop()?, false)
            }
        };
        self.prepare_block_for_handout(p, block_size);
        // Guard: `claim`, still held (refill or not, it never dropped).
        // The block was already out of the heaps: no shared cell moves.
        claim.stats().on_magazine_alloc(block_size as u64, hit);
        // A refill-then-pop took the heap lock, so only a pop hit counts
        // as a lock bypass (as in the shard).
        self.with_probe(|p| {
            p.magazine_alloc(self.heap_index_for_current_thread(), class, block_size, hit)
        });
        Some(NonNull::new_unchecked(p))
    }

    /// Hardening transforms a block needs on its way out of a magazine;
    /// mirrors what `take_block` and `alloc_small_attempt` do.
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

    /// Pull a [`refill_batch`](Self::refill_batch) of blocks for `class`
    /// into `mag` under one acquisition of the caller's heap lock.
    /// Returns the number of blocks obtained (0 = heap and source
    /// exhausted).
    ///
    /// Out of line, like `flush_magazine` and `free_small`: inlined,
    /// these slow paths share registers and stack with the magazine hits
    /// beside them, so the hits' speed follows whatever the slow paths
    /// compile to. Deleting one branch of the refill moved churn-local's
    /// `hoard_mag` from 13.2 to 13.6 ns a call; out of line it reads 12.9.
    #[inline(never)]
    unsafe fn refill_magazine(&self, class: usize, mag: &mut Magazine) -> usize {
        let hi = self.heap_index_for_current_thread();
        let heap = &self.heaps[hi];
        let _guard = self.lock_heap(heap, hi);
        let want = self.refill_batch(self.classes.class(class).block_size);
        self.take_blocks(heap, hi, class, want, |p| mag.push(p))
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
            if mag.len() >= MAGAZINE_CAPACITY {
                let n = self.flush_magazine(class, mag);
                // Guard: `claim`; the batch's bytes in one RMW.
                self.stats
                    .on_magazine_flush_in(claim.stats(), n as u64 * block_size as u64);
            }
            if !self.harden_on_stash(sb, payload, block_size) {
                return true; // quarantined: handled, nothing stashed
            }
            mag.push(payload);
            charge_cost(Cost::MagazineOp);
            // Guard: `claim`. The block stays out of the heaps: no
            // shared cell moves.
            claim.stats().on_magazine_free(block_size as u64);
            self.with_probe(|p| p.magazine_free(owner, class));
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
            charge_cost(Cost::AtomicRmw);
            self.book_deferred_free(block_size as u64);
            let class = (*sb).class as usize;
            self.with_probe(|p| p.remote_free(owner, class, owner));
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

    /// Put `p`, a magazine block bound for a free list or a deferred
    /// stack, in the form those keep under hardening (`Freed`, poison
    /// intact) and return its superblock. A stashed block is in it
    /// already; a refill-loaded one is not (hardening, canary included,
    /// waits for handout), and the next reuse check would misread it.
    unsafe fn unload(&self, p: *mut u8) -> *mut Superblock {
        let h = read_header(p);
        let sb = h.value as *mut Superblock;
        if self.config.hardening.detects() && h.tag != Tag::Freed {
            write_header(p, HeaderWord::new(Tag::Freed, sb as usize));
            if self.config.hardening.poisons() {
                harden::poison_payload(p, (*sb).block_size);
            }
        }
        sb
    }

    /// Return the oldest half of `mag` to the heaps under one
    /// acquisition of the caller's own heap lock; blocks whose
    /// superblock migrated away since they were stashed go through the
    /// lock-free deferred stacks (never a second heap lock — the lock
    /// order stays per-processor → global). Returns the number of blocks
    /// that left the magazine. Out of line (see `refill_magazine`).
    #[inline(never)]
    unsafe fn flush_magazine(&self, class: usize, mag: &mut Magazine) -> usize {
        let level = mag.len();
        let mut batch = [std::ptr::null_mut(); MAGAZINE_BATCH];
        let n = mag.take_oldest(MAGAZINE_BATCH, &mut batch);
        let hi = self.heap_index_for_current_thread();
        let heap = &self.heaps[hi];
        let _guard = self.lock_heap(heap, hi);
        self.with_probe(|p| p.magazine_flush(hi, class, level, n));
        let mut trigger = false;
        for &p in &batch[..n] {
            let sb = self.unload(p);
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
    /// costs more than the locks the front-end saves. Out of line: the
    /// paper's own locked `malloc` never drains, and keeps this out of
    /// its body.
    #[inline(never)]
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

    /// Drain the deferred stacks of `class`'s superblocks in fullness
    /// `groups` of `heap` (locked); returns the restoration trigger.
    /// Producer–consumer traffic pools on full superblocks (blocks held
    /// by a consumer look in use to their owner), cross-thread churn on
    /// partial ones too; either beats an `OsChunk` by orders of
    /// magnitude. Cold: the paper's own locked `malloc` never drains.
    #[cold]
    unsafe fn drain_groups(
        &self,
        heap: &Heap,
        class: usize,
        groups: std::ops::RangeInclusive<usize>,
    ) -> bool {
        let mut trigger = false;
        for group in groups {
            let mut sb = heap.group_head(class, group);
            while !sb.is_null() {
                let next = (*sb).next; // drain relinks; step first
                if Superblock::remote_pending(sb) {
                    trigger |= self.drain_remote_locked(heap, sb);
                }
                sb = next;
            }
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
                let _ = Superblock::push_remote(self.unload(p), p);
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
                self.park_claimed_slot(&slot.claim());
            }
            // Per-processor heaps first: their restorations migrate
            // superblocks *to* the global heap, which is settled last.
            for (hi, heap) in self.heaps.iter().enumerate().rev() {
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
        }
    }

    // ----- malloc -----

    /// Run `attempt`; when it fails, the source has refused a chunk:
    /// flush the empty superblocks hoarded as per-heap slack (and the
    /// global pool, and the parked large chunks) back to the source and
    /// retry once — the request may fit in the memory kept for locality.
    #[inline(always)]
    unsafe fn with_oom_retry<T>(&self, mut attempt: impl FnMut() -> Option<T>) -> Option<T> {
        if let Some(got) = attempt() {
            return Some(got);
        }
        if self.reclaim_empty_superblocks() == 0 {
            return None;
        }
        let got = attempt()?;
        self.recovery.on_rescue();
        Some(got)
    }

    /// A locked `malloc` of a small class: the waterfall's one block,
    /// plus its canary, the heap shard's books and the probe.
    unsafe fn alloc_small_attempt(&self, class: usize) -> Option<NonNull<u8>> {
        let block_size = self.classes.class(class).block_size;
        let hi = self.heap_index_for_current_thread();
        let heap = &self.heaps[hi];
        let guard = self.lock_heap(heap, hi);
        let mut payload = std::ptr::null_mut();
        if self.take_blocks(heap, hi, class, 1, |p| payload = p) == 0 {
            return None;
        }
        if self.config.hardening.poisons() {
            harden::write_canary(payload, block_size);
        }
        // Guard: `guard` (heap `hi`'s shard).
        self.stats.on_alloc_in(heap.stats(), block_size as u64);
        // The probe the lock loaded: no second load on the locked path.
        if let Some(p) = guard.probe {
            p.alloc(hi, class, block_size);
        }
        Some(NonNull::new_unchecked(payload))
    }

    /// The paper's `malloc` waterfall, under heap `hi`'s lock, which the
    /// caller holds: hand up to `want` blocks of `class` to `out` from
    /// the fullest superblock of the class with a free block, else one
    /// of the heap's own empties, else a superblock from the global
    /// heap, else a fresh chunk from the source. Returns how many it
    /// handed out (0 = heap and source exhausted).
    ///
    /// A class that can have deferred frees (`defers_frees`) first
    /// drains its full superblocks, drains the whole class once before
    /// it looks beyond the heap, and drains a superblock it finds with
    /// frees pending, then finds again (the drain may empty it); one
    /// from the global heap comes as it is. The invariant is restored
    /// only when a drain fired the armed-latch trigger (the hysteresis
    /// of `free_small`): refills run every few dozen allocations, and
    /// restoring on each would ping-pong marginal superblocks through
    /// the global heap.
    #[inline(always)]
    unsafe fn take_blocks(
        &self,
        heap: &Heap,
        hi: usize,
        class: usize,
        want: usize,
        mut out: impl FnMut(*mut u8),
    ) -> usize {
        let block_size = self.classes.class(class).block_size;
        let full = Superblock::full_group();
        let defers = self.defers_frees(class);
        let mut trigger = defers && self.drain_groups(heap, class, full..=full);
        let mut escalated = !defers;
        let mut got = 0;
        while got < want {
            // Guard: the caller holds heap `hi`'s lock, for every `heap`
            // update.
            let mut sb = heap.find_with_free(class);
            if defers && !sb.is_null() && Superblock::remote_pending(sb) {
                trigger |= self.drain_remote_locked(heap, sb);
                continue;
            }
            if sb.is_null() {
                sb = self.recycle_empty(heap, class, block_size);
            }
            if sb.is_null() && !escalated {
                escalated = true;
                trigger |= self.drain_groups(heap, class, 0..=full);
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
            // Every step leaves `sb` with a free block.
            debug_assert!(Superblock::has_free(sb));
            let mut taken = 0u64;
            loop {
                out(self.take_block(sb, block_size));
                taken += 1;
                got += 1;
                if got == want || !Superblock::has_free(sb) {
                    break;
                }
            }
            heap.add_u(class, taken * block_size as u64);
            heap.relink(sb);
            // Re-arm the eviction latch once the superblock fills back
            // past the f-emptiness boundary (see `free_small`).
            if !self.config.f_empty_blocks((*sb).in_use, (*sb).capacity) {
                (*sb).armed = true;
            }
        }
        if trigger {
            self.restore_invariant(heap, hi, class);
        }
        got
    }

    /// One block off `sb`'s free list (or its unused tail). In `Full`
    /// mode a block coming off the free list still carries its poison:
    /// a write through a dangling pointer while it sat freed is
    /// reported, and the block itself is still fine to hand out.
    #[inline(always)]
    unsafe fn take_block(&self, sb: *mut Superblock, block_size: u32) -> *mut u8 {
        // Peek before `alloc_block` consumes the list head.
        let reused = self.config.hardening.poisons() && !(*sb).free_head.is_null();
        let p = Superblock::alloc_block(sb);
        if reused && !harden::poison_intact(p, block_size) {
            self.report_corruption(
                CorruptionKind::PoisonOverwrite,
                p as usize,
                "freed block modified before reuse",
            );
        }
        p
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
        let Some(chunk) = self.source.alloc_chunk(self.superblock_layout()) else {
            return std::ptr::null_mut();
        };
        let (s, size) = (self.config.superblock_size, self.classes.class(class).block_size);
        let sb = Superblock::init(chunk.as_ptr(), s, class as u32, size, hi, self.block_extra());
        heap.guarded_add(&heap.a, Superblock::usable_bytes(sb));
        heap.link(sb);
        sb
    }

    /// Step 3 of `malloc`: while holding heap `hi`'s lock, move one
    /// suitable superblock over from the global heap. Returns the
    /// superblock linked into `heap`, or null. The global heap gives the
    /// fullest partial of `class` first, then the newest empty that
    /// `heap` gave it, then the newest empty.
    unsafe fn fetch_from_global(
        &self,
        heap: &Heap,
        hi: usize,
        class: usize,
        block_size: u32,
    ) -> *mut Superblock {
        // The global lock covers only list surgery, accounting, and the
        // ownership handoff; the (comparatively expensive) reformat runs
        // after it drops. Ownership *must* transfer under the lock: a
        // concurrent free still reading owner 0 would lock heap 0 and
        // relink the already-unlinked superblock there. Once the owner
        // reads `hi`, such frees serialize on heap `hi`'s lock — which
        // the caller holds for the duration of the reformat.
        let sb = {
            let global = &self.heaps[0];
            let _g0 = self.lock_heap(global, 0);
            let found = global.find_with_free(class);
            let sb = if !found.is_null() {
                global.unlink(found);
                found
            } else {
                global.take_empty_homed(hi)
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
        self.with_probe(|p| p.transfer_from_global(hi, pct));
        sb
    }

    // ----- free -----

    /// Route a validated small-block free: through the front-end when
    /// magazines are on and the class qualifies, else (or on fallback)
    /// through the locked path.
    unsafe fn free_dispatch(&self, sb: *mut Superblock, payload: *mut u8) {
        if self.magazines_on()
            && ((*sb).class as usize) < MAG_CLASSES
            && self.frontend_free(sb, payload)
        {
            return;
        }
        self.free_small(sb, payload);
    }

    /// The paper's locked `free`; out of line (see `refill_magazine`).
    #[inline(never)]
    unsafe fn free_small(&self, sb: *mut Superblock, payload: *mut u8) {
        loop {
            let owner = Superblock::owner(sb);
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
            if let Some(p) = guard.probe {
                p.free(owner, (*sb).class as usize);
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
    /// `take_blocks`). A heap whose occupancy random-walks at the
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
            // Its lines were last written here: the global heap gives it
            // back to this heap first.
            (*victim).home = hi as u16;
            // A partial is `class`'s own; an empty has no bytes in use.
            let used = Superblock::used_bytes(victim);
            // Guard: the caller holds `heap`'s lock.
            heap.guarded_sub(&heap.a, Superblock::usable_bytes(victim));
            heap.sub_u(class, used);

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
            self.with_probe(|p| p.transfer_to_global(hi, pct));
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
        for (hi, heap) in self.heaps.iter().enumerate() {
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
                if sb.is_null() || !(sb as usize).is_multiple_of(CHUNK_ALIGN) {
                    self.report_corruption(
                        CorruptionKind::ForeignPointer,
                        p as usize,
                        "header names a misaligned superblock",
                    );
                    return;
                }
                if (*sb).magic != crate::superblock::SB_MAGIC {
                    self.report_corruption(
                        CorruptionKind::BadSuperblockMagic,
                        p as usize,
                        "free of a block of a dead or forged superblock",
                    );
                    return;
                }
                // Owners are the global heap (0) and the per-processor
                // heaps (1..=HEAPS); nothing else owns a superblock.
                if Superblock::owner(sb) > HEAPS {
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
            // A large tag that does not describe `p` (interior or
            // foreign pointer): refused before the named chunk is read.
            Tag::Large if !large::is_payload_of(p as usize, header.value) => {
                self.report_corruption(
                    CorruptionKind::ForeignPointer,
                    p as usize,
                    "header names no large object at this address",
                );
            }
            // The chunk header's magic tells a live large object from
            // a freed one: a free parks the chunk under `PARKED_MAGIC`
            // or hands it back to the source under `RELEASED_MAGIC`.
            Tag::Large => match self.large.free(&self.source, header.value) {
                Some((size, parked)) => {
                    // No guard on the large path: RMWs on the shared cell.
                    self.stats.on_free(size as u64, false);
                    self.emit(EventKind::FreeLarge, parked as u32, size as u64);
                }
                None if large::was_freed(header.value) => {
                    self.report_corruption(CorruptionKind::DoubleFree, p as usize, "large object");
                }
                None => {
                    // An overflow reached the chunk header. Quarantine
                    // the chunk (leak it) rather than hand free_chunk a
                    // forged layout.
                    self.report_corruption(
                        CorruptionKind::BadLargeMagic,
                        p as usize,
                        "chunk quarantined",
                    );
                    self.log.on_quarantine();
                }
            },
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

    // ----- validation plumbing (used by `debug` and tests) -----

    pub(crate) fn heaps(&self) -> &[Heap; HEAPS + 1] {
        &self.heaps
    }

    pub(crate) fn frontend(&self) -> &[MagazineSlot; MAG_SLOTS] {
        &self.frontend
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
        let probe = self.probe();
        // Only stamped when a probe is attached: `now()` is free of
        // virtual time but the off-path must stay branch-minimal.
        let start = if probe.is_some() { now() } else { 0 };
        let p = self.allocate_impl(size);
        if let (Some(probe), Some(p)) = (probe, p) {
            probe.allocated(p.as_ptr() as usize, size, start, || self.footprint());
        }
        p
    }

    unsafe fn deallocate(&self, ptr: NonNull<u8>) {
        let probe = self.probe();
        if let Some(probe) = probe {
            probe.freeing(ptr.as_ptr() as usize, || self.footprint());
        }
        self.deallocate_impl(ptr);
        if let Some(probe) = probe {
            probe.freed();
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
    /// method wraps it with the (usually detached) probe.
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
            Some(class) => self.with_oom_retry(|| self.alloc_small_attempt(class)),
            None => {
                let corrupt = |addr| self.report_parked_corruption(addr);
                let home = self.heap_index_for_current_thread();
                let (p, served) =
                    self.with_oom_retry(|| self.large.alloc(&self.source, home, size, corrupt))?;
                // No guard on the large path: RMWs on the shared cell.
                self.stats.on_alloc(size as u64);
                self.emit(EventKind::AllocLarge, served as u32, size as u64);
                Some(p)
            }
        }
    }

    /// The deallocation path behind [`MtAllocator::deallocate`]; the
    /// trait method wraps it with the probe.
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
        // Release the attached probe (`retired` drops with `self`; the
        // harness and tests keep their instruments alive independently).
        let p = *self.probe.get_mut();
        if !p.is_null() {
            // Safety: from `Arc::into_raw` in `attach`; `&mut self`.
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
        use hoard_mem::{FaultPlan, InjectingSource, SystemSource};
        let h = HoardAllocator::with_source(
            HoardConfig::new(),
            InjectingSource::new(
                SystemSource::new(),
                FaultPlan::Burst {
                    start: 1,
                    len: u64::MAX,
                },
            ),
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

    /// DESIGN.md §15's inventory for a hit: no counter of the shared
    /// cell moves, while `stats()` still sees every call.
    #[test]
    fn a_magazine_hit_writes_no_shared_counter() {
        const N: u64 = 1000;
        let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
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

    /// The same inventory for a deferred remote free: inside its slot's
    /// headroom it writes no field of the shared cell — its two RMWs are
    /// the push CAS and its own slot's claim swap — while `stats()` sees
    /// every free as a free, a remote free and a push. When a colliding
    /// processor holds the pusher's slot the books go to the cell, and
    /// `stats()` reads the same.
    #[test]
    fn a_deferred_free_writes_no_shared_counter() {
        // Below `remote_limit` of a 64-byte superblock: every free defers.
        const N: u64 = 20;
        let deferred = |mut snap: AllocSnapshot| {
            snap.live_current -= N * 64;
            snap.frees += N;
            snap.remote_frees += N;
            snap.magazines.remote_pushes += N;
            snap
        };
        let cfg = HoardConfig::with_default_magazines();
        // Processor 1 frees `N` of processor 0's blocks, its slot held
        // elsewhere or not: the cell's and the whole snapshot, before
        // and after, and the slot's headroom.
        let run = |collide: bool| {
            let h = HoardAllocator::with_config(cfg).unwrap();
            hoard_sim::switch_context(0, 0);
            unsafe {
                let blocks: Vec<_> = (0..N).map(|_| h.allocate(64).unwrap()).collect();
                hoard_sim::switch_context(1, 0);
                let before = (h.stats.snapshot(), h.stats());
                let held = collide.then(|| h.frontend[1].try_claim().unwrap());
                for p in blocks {
                    h.deallocate(p);
                }
                drop(held);
                let after = (h.stats.snapshot(), h.stats());
                (before, after, h.frontend[1].deferred_headroom())
            }
        };
        let ((cell, before), (cell_after, after), headroom) = run(false);
        assert_eq!(cell_after, cell, "a deferred free moved the shared cell");
        assert_eq!(after, deferred(before));
        assert_eq!(headroom, N * 64);
        let ((cell, before_c), (cell_after, after_c), headroom) = run(true);
        assert_eq!(cell_after, deferred(cell), "a collision books on the cell");
        assert_eq!((before_c, after_c), (before, after));
        assert_eq!(headroom, 0);
    }

    /// One slot's deferred frees, well past two grants, interleaved with
    /// its own refills and flushes: `live_current` is the program's bytes
    /// at every step, and no gauge the cell is read against wraps — the
    /// deferred headroom goes back to the cell, never the magazines'.
    #[test]
    fn deferred_frees_past_two_grants_keep_live_exact_beside_refills_and_flushes() {
        let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
        let (mut theirs, mut mine) = (Vec::new(), Vec::new());
        let (mut live, mut returned, mut last) = (0u64, 0u32, 0u64);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000u32 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            // Each list grows for a while and shrinks for a while, so
            // processor 1's magazine refills and overflows.
            let grow = (step / 400) % 2 == 0;
            let to_them = rng & 1 == 0;
            let held = if to_them { &mut theirs } else { &mut mine };
            unsafe {
                if held.is_empty() || (rng >> 8) % 3 < if grow { 2 } else { 1 } {
                    hoard_sim::switch_context(if to_them { 0 } else { 1 }, 0);
                    held.push(h.allocate(64).unwrap());
                    live += 64;
                } else {
                    // Processor 1 frees either way: its own blocks go
                    // to its magazine, processor 0's are deferred.
                    hoard_sim::switch_context(1, 0);
                    let i = (rng >> 16) as usize % held.len();
                    h.deallocate(held.swap_remove(i));
                    live -= 64;
                }
            }
            let s = h.stats();
            assert_eq!(s.live_current, live, "step {step}: {s:?}");
            assert!(h.live_cell() >= h.live_in_shards(), "step {step}");
            for slot in &h.frontend {
                assert!(
                    slot.cached_bytes() < 1 << 32,
                    "step {step}: a gauge wrapped"
                );
                assert!(slot.deferred_headroom() <= 2 * LIVE_GRANT, "step {step}");
            }
            let headroom = h.frontend[1].deferred_headroom();
            returned += (headroom < last) as u32;
            last = headroom;
        }
        let s = h.stats();
        assert!(returned >= 3, "the headroom went back {returned} times");
        assert!(s.magazines.refills > 2 && s.magazines.flushes > 2, "{s:?}");
        unsafe {
            hoard_sim::switch_context(1, 0);
            theirs.into_iter().chain(mine).for_each(|p| h.deallocate(p));
        }
        h.flush_frontend();
        let v = crate::debug::validate(&h);
        assert!(v.is_consistent(), "{:?}", v.errors);
        assert_eq!(h.stats().live_current, 0);
    }

    /// A `hoard_mag` allocation whose processor finds its slot claimed
    /// falls back to the locked `malloc`, which, for a magazine class,
    /// recovers the blocks other processors parked on the deferred
    /// stacks of its superblocks, full or partial, before it maps a new
    /// chunk.
    #[test]
    fn a_slot_collision_recovers_parked_blocks_without_a_new_chunk() {
        let source = SystemSource::new();
        let cfg = HoardConfig::with_default_magazines();
        let h = HoardAllocator::with_source(cfg, &source).unwrap();
        let size = 64;
        assert!(h.classes.index_for(size).unwrap() < MAG_CLASSES);
        let sb_of = |p: NonNull<u8>| unsafe { read_header(p.as_ptr()).value as *mut Superblock };
        unsafe {
            hoard_sim::switch_context(0, 0);
            let held = h.frontend[0].try_claim().unwrap();
            // Every allocation takes the locked path: fill one
            // superblock, then take one block of a second.
            let mut mine = vec![h.allocate(size).unwrap()];
            let first = sb_of(mine[0]);
            while Superblock::has_free(first) {
                mine.push(h.allocate(size).unwrap());
            }
            mine.push(h.allocate(size).unwrap());
            let second = sb_of(mine[mine.len() - 1]);
            assert_ne!(second, first);
            // Processor 1 frees one block of each: both park, on a full
            // superblock and on a partial one.
            hoard_sim::switch_context(1, 0);
            let parked = [mine.pop().unwrap(), mine.swap_remove(0)];
            for p in parked {
                h.deallocate(p);
            }
            assert_eq!(Superblock::remote_len(first), 1);
            assert_eq!(Superblock::remote_len(second), 1);
            // Back on processor 0, still colliding: as many allocations
            // as the two superblocks have free or parked blocks.
            hoard_sim::switch_context(0, 0);
            let chunks = source.stats().chunk_allocs;
            let room = (*first).capacity + (*second).capacity - (*first).in_use - (*second).in_use;
            let got: Vec<_> = (0..room + 2).map(|_| h.allocate(size).unwrap()).collect();
            assert_eq!(source.stats().chunk_allocs, chunks, "no fresh chunk");
            assert!(got.iter().all(|&p| sb_of(p) == first || sb_of(p) == second));
            assert!(parked.iter().all(|p| got.contains(p)), "both parked blocks came back");
            assert_eq!(Superblock::remote_len(first) + Superblock::remote_len(second), 0);
            drop(held);
            let v = crate::debug::validate(&h);
            assert!(v.is_consistent(), "{:?}", v.errors);
            mine.into_iter().chain(got).for_each(|p| h.deallocate(p));
        }
        h.flush_frontend();
        assert_eq!(h.stats().live_current, 0);
    }

    /// A refill and a flush each move the cell's `live` once, by the
    /// batch's bytes, and nothing else in it; their event counts are
    /// the shard's. A flush returns half the magazine in every class; a
    /// refill pulls as many only up to `S / 64`-byte blocks, and 7 of
    /// the 280-B class.
    #[test]
    fn a_refill_or_flush_moves_live_by_the_batch() {
        let cfg = HoardConfig::with_default_magazines();
        for (size, refill) in [(64u64, 16u64), (280, 7)] {
            let h = HoardAllocator::with_config(cfg).unwrap();
            hoard_sim::switch_context(0, 0);
            let flush = MAGAZINE_BATCH as u64;
            unsafe {
                let cell = h.stats.snapshot();
                let mut held = vec![h.allocate(size as usize).unwrap()];
                let mut want = cell;
                want.live_current += refill * size;
                want.live_peak += refill * size;
                assert_eq!(h.stats.snapshot(), want, "refill of {size}-B blocks");
                let s = h.stats();
                assert_eq!(
                    (s.magazines.refills, s.allocs, s.live_current),
                    (1, 1, size)
                );

                // `2 * flush + 1` held leave fewer than `flush`
                // cached: freeing them all overflows the magazine
                // exactly once.
                let n = 2 * flush + 1;
                let refills = n.div_ceil(refill);
                held.extend((1..n).map(|_| h.allocate(size as usize).unwrap()));
                let cell = h.stats.snapshot();
                assert_eq!(cell.live_current, refills * refill * size);
                for p in held {
                    h.deallocate(p);
                }
                let mut want = cell;
                want.live_current -= flush * size;
                assert_eq!(h.stats.snapshot(), want, "flush of {size}-B blocks");
                let s = h.stats();
                assert_eq!((s.magazines.refills, s.magazines.flushes), (refills, 1));
                assert_eq!((s.allocs, s.frees, s.live_current), (n, n, 0));
                assert_eq!(
                    h.frontend[0].cached_bytes(),
                    cell.live_current - flush * size
                );
            }
        }
    }

    /// A refill pulls at least one block and at most half the magazine,
    /// and no more than a quarter of a superblock's bytes unless it is a
    /// single block — as many as those bounds allow — in every
    /// magazine class and superblock size.
    #[test]
    fn a_refill_is_half_a_magazine_capped_at_a_quarter_superblock() {
        let cfg = HoardConfig::with_default_magazines();
        for s in [4096usize, 8192, 16384] {
            let h = HoardAllocator::with_config(cfg.with_superblock_size(s)).unwrap();
            hoard_sim::switch_context(0, 0);
            let half = MAGAZINE_CAPACITY / 2;
            for class in 0..MAG_CLASSES {
                let size = h.size_classes().class(class).block_size as usize;
                let before = h.frontend[0].cached_bytes();
                let p = unsafe { h.allocate(size).unwrap() };
                let cached = h.frontend[0].cached_bytes() - before;
                let got = cached as usize / size + 1;
                let case = format!("S {s}, {size}-B class: {got}");
                assert!((1..=half).contains(&got), "{case}");
                assert!(got == 1 || got * size <= s / 4, "{case}");
                assert!(got == half || (got + 1) * size > s / 4, "{case}");
                unsafe { h.deallocate(p) };
            }
        }
    }

    /// The allocator is built by value (`const` construction, then moved
    /// into place), so debug builds copy it through several stack
    /// temporaries; its size decides whether the tests fit the default
    /// 2 MiB test-thread stack. The bound is the size the stack need in
    /// DESIGN.md §13 was measured at, so any growth re-measures it.
    #[test]
    fn the_allocator_fits_in_a_quarter_mebibyte() {
        let size = std::mem::size_of::<HoardAllocator>();
        assert!(
            size <= 207_488,
            "HoardAllocator is {size} B by value: re-measure the deepest test's stack \
             need as DESIGN.md §13 \"Size by value\" describes before growing it"
        );
    }

    /// `live_peak` is the peak of the `live` cell: above `max U` by no
    /// more than the magazines of the slots in use can hold plus two
    /// grants for every heap and every slot in use (a slot's deferred
    /// headroom). `live_current` is the application's figure throughout,
    /// with nothing flushed.
    #[test]
    fn live_peak_bounds_max_u_from_above_by_the_cached_capacity() {
        const PROCS: usize = 3;
        let configs = [HoardConfig::new(), HoardConfig::with_default_magazines()];
        for cfg in configs {
            let h = HoardAllocator::with_config(cfg).unwrap();
            let capacity = if h.magazines_on() { MAGAZINE_CAPACITY as u64 } else { 0 };
            let slack: u64 = (0..MAG_CLASSES)
                .map(|c| capacity * h.size_classes().class(c).block_size as u64)
                .sum::<u64>()
                * PROCS as u64;
            // The heaps in use: one per processor, and the global heap
            // (a free into a superblock it owns lands in its shard); and
            // with the front-end, each processor's slot.
            let shards = PROCS as u64 + 1 + if h.magazines_on() { PROCS as u64 } else { 0 };
            let slack = slack + 2 * LIVE_GRANT * shards;
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
