//! The tunable cost model of the virtual machine.
//!
//! Every abstract event in the simulation (a fast-path `malloc`, a lock
//! handoff, a remote cache-line transfer, a chunk request to the
//! "operating system") has a cost in dimensionless *units*. The defaults
//! below are calibrated so the *shapes* of the paper's figures emerge:
//! they roughly correspond to nanoseconds on a late-1990s SMP
//! (uncontended lock ≈ tens of ns, remote cache transfer ≈ hundred ns,
//! page-granularity OS allocation ≈ microseconds).
//!
//! Costs are stored in global atomics so the allocator hot paths can read
//! them with a single relaxed load and experiments can install a custom
//! [`CostModel`] without locking.

use std::sync::atomic::{AtomicU64, Ordering};

/// A named cost in the virtual-machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Cost {
    /// Instruction cost of a `malloc` fast path (excluding locks/cache).
    MallocFast,
    /// Instruction cost of a `free` fast path (excluding locks/cache).
    FreeFast,
    /// Uncontended lock acquisition.
    LockAcquire,
    /// Lock release.
    LockRelease,
    /// Extra serialized penalty when a lock acquisition was contended
    /// (models the cache-line transfer of the lock word and the data it
    /// protects; it extends the lock's occupancy, which is what makes a
    /// single-lock allocator *slow down* as processors are added).
    LockHandoff,
    /// Reading/writing a cache line already owned by this processor.
    CacheHit,
    /// Remote cache-line transfer (line last written by another
    /// processor). This is the cost false sharing multiplies.
    CacheRemote,
    /// Requesting a fresh superblock-sized chunk from the OS.
    OsChunk,
    /// Returning a chunk to the OS.
    OsRelease,
    /// Moving a superblock between heaps (pointer surgery, bookkeeping).
    SuperblockTransfer,
    /// Cross-thread object handoff through a channel.
    ChannelTransfer,
    /// Barrier synchronization overhead per participant.
    Barrier,
    /// A `malloc`/`free` served entirely by the thread-local magazine
    /// (a push/pop on a warm, thread-private array: no lock, no shared
    /// cache line). This is the cost the front-end substitutes for a
    /// lock acquisition on the common path.
    MagazineOp,
    /// Pushing a block onto a superblock's deferred remote-free stack
    /// (one CAS on a line shared with the owner — cheaper than a lock
    /// handoff and, crucially, not serializing).
    RemoteFreePush,
    /// Recording one telemetry event into a thread-private trace ring
    /// (a bump and a store on warm memory). Charged only when a tracer
    /// is attached, so tracing-off runs are bit-identical in virtual
    /// time; tracing-on overhead stays small but *visible*, the honest
    /// way to model an always-on profiler.
    TraceEvent,
    /// One atomic read-modify-write on a potentially shared cache line
    /// (a CAS or exchange on a Treiber-stack head, a packed remote-free
    /// word, or a shared counter). Costlier than a private cache hit,
    /// cheaper than a lock handoff — and, crucially, it never extends
    /// anyone else's critical section.
    AtomicRmw,
    /// Deriving a block's superblock by masking the pointer's low bits
    /// (one AND plus a validation probe on warm metadata) — the
    /// lock-free back-end's replacement for the header-chase lookup.
    MaskLookup,
    /// One heap-profiler sample: updating a site's live-byte counters on
    /// an allocation/free, or taking one fragmentation-timeline reading
    /// (two atomic loads plus a store into a thread-shared series).
    /// Charged only when a profiler is attached, so profiling-off runs
    /// are bit-identical in virtual time; timeline ticks are CAS-claimed
    /// on the virtual clock so `.trc` replay stays byte-deterministic.
    ProfileSample,
}

const N_COSTS: usize = 18;

#[inline]
fn index(cost: Cost) -> usize {
    match cost {
        Cost::MallocFast => 0,
        Cost::FreeFast => 1,
        Cost::LockAcquire => 2,
        Cost::LockRelease => 3,
        Cost::LockHandoff => 4,
        Cost::CacheHit => 5,
        Cost::CacheRemote => 6,
        Cost::OsChunk => 7,
        Cost::OsRelease => 8,
        Cost::SuperblockTransfer => 9,
        Cost::ChannelTransfer => 10,
        Cost::Barrier => 11,
        Cost::MagazineOp => 12,
        Cost::RemoteFreePush => 13,
        Cost::TraceEvent => 14,
        Cost::AtomicRmw => 15,
        Cost::MaskLookup => 16,
        Cost::ProfileSample => 17,
    }
}

/// A complete assignment of costs, installable as the global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    pub malloc_fast: u64,
    pub free_fast: u64,
    pub lock_acquire: u64,
    pub lock_release: u64,
    pub lock_handoff: u64,
    pub cache_hit: u64,
    pub cache_remote: u64,
    pub os_chunk: u64,
    pub os_release: u64,
    pub superblock_transfer: u64,
    pub channel_transfer: u64,
    pub barrier: u64,
    pub magazine_op: u64,
    pub remote_free_push: u64,
    pub trace_event: u64,
    pub atomic_rmw: u64,
    pub mask_lookup: u64,
    pub profile_sample: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            malloc_fast: 35,
            free_fast: 30,
            lock_acquire: 15,
            lock_release: 5,
            lock_handoff: 180,
            cache_hit: 2,
            cache_remote: 90,
            os_chunk: 6_000,
            os_release: 3_000,
            superblock_transfer: 300,
            channel_transfer: 250,
            barrier: 400,
            // A magazine hit is a bounds check plus an array push/pop on
            // thread-private memory: a handful of instructions, cheaper
            // than even an uncontended lock acquire+release.
            magazine_op: 6,
            // A deferred remote free is one CAS on a cache line the
            // owner also touches: comparable to a remote transfer,
            // strictly cheaper than a contended lock handoff — and it
            // does not serialize the owner.
            remote_free_push: 60,
            // One ring-buffer store on thread-private memory. Non-zero
            // so tracing-on runs honestly report their perturbation,
            // small so the perturbation stays well under the events it
            // observes.
            trace_event: 1,
            // A CAS/exchange on a line other processors also touch:
            // dearer than an uncontended acquire because the line is
            // often in a remote cache, but far below a lock handoff —
            // the losing CAS retries, it never blocks the winner.
            atomic_rmw: 40,
            // One AND plus a bounds probe on warm metadata; about a
            // cache hit, and strictly cheaper than chasing the per-block
            // header line it replaces.
            mask_lookup: 2,
            // A profiler sample is a couple of counter bumps on a warm
            // shared line: pricier than a ring store (it contends with
            // other samplers), far below a fast-path malloc — the honest
            // tax for keeping per-site live-byte books.
            profile_sample: 2,
        }
    }
}

impl CostModel {
    /// The calibrated default model (see module docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// A model approximating the paper's testbed, a late-1990s bus-based
    /// SMP (Sun Enterprise 5000): slower remote transfers and costlier
    /// lock handoffs relative to compute than the default.
    pub fn sun_e5000() -> Self {
        CostModel {
            lock_handoff: 260,
            cache_remote: 140,
            os_chunk: 10_000,
            ..Self::default()
        }
    }

    /// A flat model charging `unit` for every event: useful to separate
    /// *algorithmic* serialization (who waits on whom) from the cost
    /// constants — if a result only appears under skewed costs, it is a
    /// property of the machine model, not the allocator.
    pub fn uniform(unit: u64) -> Self {
        CostModel {
            malloc_fast: unit,
            free_fast: unit,
            lock_acquire: unit,
            lock_release: unit,
            lock_handoff: unit,
            cache_hit: unit,
            cache_remote: unit,
            os_chunk: unit,
            os_release: unit,
            superblock_transfer: unit,
            channel_transfer: unit,
            barrier: unit,
            magazine_op: unit,
            remote_free_push: unit,
            trace_event: unit,
            atomic_rmw: unit,
            mask_lookup: unit,
            profile_sample: unit,
        }
    }

    /// Value assigned to `cost` in this model.
    pub fn get(&self, cost: Cost) -> u64 {
        match cost {
            Cost::MallocFast => self.malloc_fast,
            Cost::FreeFast => self.free_fast,
            Cost::LockAcquire => self.lock_acquire,
            Cost::LockRelease => self.lock_release,
            Cost::LockHandoff => self.lock_handoff,
            Cost::CacheHit => self.cache_hit,
            Cost::CacheRemote => self.cache_remote,
            Cost::OsChunk => self.os_chunk,
            Cost::OsRelease => self.os_release,
            Cost::SuperblockTransfer => self.superblock_transfer,
            Cost::ChannelTransfer => self.channel_transfer,
            Cost::Barrier => self.barrier,
            Cost::MagazineOp => self.magazine_op,
            Cost::RemoteFreePush => self.remote_free_push,
            Cost::TraceEvent => self.trace_event,
            Cost::AtomicRmw => self.atomic_rmw,
            Cost::MaskLookup => self.mask_lookup,
            Cost::ProfileSample => self.profile_sample,
        }
    }

    /// Install this model as the process-global cost model.
    ///
    /// Affects all subsequent charges; intended to be called between
    /// experiment runs, not concurrently with one.
    pub fn install(&self) {
        for (i, slot) in GLOBAL.iter().enumerate() {
            let cost = ALL[i];
            slot.store(self.get(cost), Ordering::Relaxed);
        }
    }

    /// Read back the currently installed global model.
    pub fn current() -> Self {
        CostModel {
            malloc_fast: get(Cost::MallocFast),
            free_fast: get(Cost::FreeFast),
            lock_acquire: get(Cost::LockAcquire),
            lock_release: get(Cost::LockRelease),
            lock_handoff: get(Cost::LockHandoff),
            cache_hit: get(Cost::CacheHit),
            cache_remote: get(Cost::CacheRemote),
            os_chunk: get(Cost::OsChunk),
            os_release: get(Cost::OsRelease),
            superblock_transfer: get(Cost::SuperblockTransfer),
            channel_transfer: get(Cost::ChannelTransfer),
            barrier: get(Cost::Barrier),
            magazine_op: get(Cost::MagazineOp),
            remote_free_push: get(Cost::RemoteFreePush),
            trace_event: get(Cost::TraceEvent),
            atomic_rmw: get(Cost::AtomicRmw),
            mask_lookup: get(Cost::MaskLookup),
            profile_sample: get(Cost::ProfileSample),
        }
    }
}

const ALL: [Cost; N_COSTS] = [
    Cost::MallocFast,
    Cost::FreeFast,
    Cost::LockAcquire,
    Cost::LockRelease,
    Cost::LockHandoff,
    Cost::CacheHit,
    Cost::CacheRemote,
    Cost::OsChunk,
    Cost::OsRelease,
    Cost::SuperblockTransfer,
    Cost::ChannelTransfer,
    Cost::Barrier,
    Cost::MagazineOp,
    Cost::RemoteFreePush,
    Cost::TraceEvent,
    Cost::AtomicRmw,
    Cost::MaskLookup,
    Cost::ProfileSample,
];

static GLOBAL: [AtomicU64; N_COSTS] = {
    const D: CostModel = CostModel {
        malloc_fast: 35,
        free_fast: 30,
        lock_acquire: 15,
        lock_release: 5,
        lock_handoff: 180,
        cache_hit: 2,
        cache_remote: 90,
        os_chunk: 6_000,
        os_release: 3_000,
        superblock_transfer: 300,
        channel_transfer: 250,
        barrier: 400,
        magazine_op: 6,
        remote_free_push: 60,
        trace_event: 1,
        atomic_rmw: 40,
        mask_lookup: 2,
        profile_sample: 2,
    };
    [
        AtomicU64::new(D.malloc_fast),
        AtomicU64::new(D.free_fast),
        AtomicU64::new(D.lock_acquire),
        AtomicU64::new(D.lock_release),
        AtomicU64::new(D.lock_handoff),
        AtomicU64::new(D.cache_hit),
        AtomicU64::new(D.cache_remote),
        AtomicU64::new(D.os_chunk),
        AtomicU64::new(D.os_release),
        AtomicU64::new(D.superblock_transfer),
        AtomicU64::new(D.channel_transfer),
        AtomicU64::new(D.barrier),
        AtomicU64::new(D.magazine_op),
        AtomicU64::new(D.remote_free_push),
        AtomicU64::new(D.trace_event),
        AtomicU64::new(D.atomic_rmw),
        AtomicU64::new(D.mask_lookup),
        AtomicU64::new(D.profile_sample),
    ]
};

/// Read one cost from the installed global model (relaxed; hot path).
#[inline]
pub(crate) fn get(cost: Cost) -> u64 {
    GLOBAL[index(cost)].load(Ordering::Relaxed)
}

/// Held by unit tests that install a non-default model, and by those
/// that compare virtual times across calls, so the two cannot overlap.
#[cfg(test)]
pub(crate) static TEST_MODEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_roundtrips_through_install() {
        let model = CostModel::default();
        model.install();
        assert_eq!(CostModel::current(), model);
    }

    #[test]
    fn install_changes_lookup() {
        let _model = TEST_MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = CostModel {
            cache_remote: 1234,
            ..Default::default()
        };
        model.install();
        assert_eq!(get(Cost::CacheRemote), 1234);
        CostModel::default().install();
        assert_eq!(get(Cost::CacheRemote), CostModel::default().cache_remote);
    }

    #[test]
    fn every_cost_has_distinct_index() {
        let mut seen = [false; N_COSTS];
        for c in ALL {
            let i = index(c);
            assert!(!seen[i], "duplicate index for {c:?}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn presets_are_distinct_and_valid() {
        let default = CostModel::new();
        let e5000 = CostModel::sun_e5000();
        assert!(e5000.cache_remote > default.cache_remote);
        assert!(e5000.lock_handoff > default.lock_handoff);
        let flat = CostModel::uniform(7);
        assert_eq!(flat.malloc_fast, 7);
        assert_eq!(flat.cache_remote, 7);
        // Install/restore round-trip.
        let _model = TEST_MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        e5000.install();
        assert_eq!(CostModel::current(), e5000);
        CostModel::default().install();
    }

    #[test]
    fn handoff_dominates_uncontended_acquire() {
        // The model only produces the paper's "serial allocator slows
        // down with more processors" shape if contended handoffs cost
        // more than uncontended acquisitions.
        let m = CostModel::default();
        assert!(m.lock_handoff > m.lock_acquire + m.lock_release);
    }

    #[test]
    fn lockfree_costs_sit_between_hit_and_handoff() {
        // The lock-free back-end only wins if its primitives undercut
        // the locked protocol they replace: a CAS must be cheaper than
        // a lock handoff, and a mask lookup cheaper than the remote
        // header-line chase it removes.
        let m = CostModel::default();
        assert!(m.atomic_rmw > m.cache_hit);
        assert!(m.atomic_rmw < m.lock_handoff);
        assert!(m.mask_lookup <= m.cache_hit);
    }
}
