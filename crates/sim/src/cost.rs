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
//! A price belongs to the operation, not to the code path that issues
//! it: one CAS costs [`Cost::AtomicRmw`] whoever runs it. The defaults
//! are written once, in `default_price`; the installed model lives in
//! global atomics so the allocator hot paths can read a price with a
//! single relaxed load and experiments can install a custom
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
    /// Handing an object to another processor (a `Send` record): the
    /// receiver cannot use it earlier than this after the send.
    ChannelTransfer,
    /// Barrier synchronization overhead per participant.
    Barrier,
    /// A `malloc`/`free` served entirely by the thread-local magazine
    /// (a push/pop on a warm, thread-private array: no lock, no shared
    /// cache line). This is the cost the front-end substitutes for a
    /// lock acquisition on the common path.
    MagazineOp,
    /// Recording one telemetry event into a thread-private trace ring
    /// (a bump and a store on warm memory). Charged only when a tracer
    /// is attached, so tracing-off runs are bit-identical in virtual
    /// time; tracing-on overhead stays small but *visible*, the honest
    /// way to model an always-on profiler.
    TraceEvent,
    /// One atomic read-modify-write on a potentially shared cache line:
    /// the CAS that pushes a deferred remote free onto a superblock's
    /// packed remote-free word. Costlier than a private cache hit,
    /// cheaper than a lock handoff — and, crucially, it never extends
    /// anyone else's critical section.
    AtomicRmw,
    /// One heap-profiler sample: updating a site's live-byte counters on
    /// an allocation/free, or taking one fragmentation-timeline reading
    /// (two atomic loads plus a store into a thread-shared series).
    /// Charged only when a profiler is attached, so profiling-off runs
    /// are bit-identical in virtual time; timeline ticks are CAS-claimed
    /// on the virtual clock so `.trc` replay stays byte-deterministic.
    ProfileSample,
}

/// Number of costs: `ProfileSample` is the last variant.
pub(crate) const N_COSTS: usize = Cost::ProfileSample as usize + 1;

impl Cost {
    /// Every cost, in discriminant order.
    pub(crate) const ALL: [Cost; N_COSTS] = [
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
        Cost::TraceEvent,
        Cost::AtomicRmw,
        Cost::ProfileSample,
    ];

    /// The cost's place in a price table.
    #[inline]
    pub(crate) const fn index(self) -> usize {
        self as usize
    }
}

/// The calibrated default price of `cost` (see module docs).
const fn default_price(cost: Cost) -> u64 {
    match cost {
        Cost::MallocFast => 35,
        Cost::FreeFast => 30,
        Cost::LockAcquire => 15,
        Cost::LockRelease => 5,
        Cost::LockHandoff => 180,
        Cost::CacheHit => 2,
        Cost::CacheRemote => 90,
        Cost::OsChunk => 6_000,
        Cost::OsRelease => 3_000,
        Cost::SuperblockTransfer => 300,
        Cost::ChannelTransfer => 250,
        Cost::Barrier => 400,
        // A magazine hit is a bounds check plus an array push/pop on
        // thread-private memory: a handful of instructions, cheaper
        // than even an uncontended lock acquire+release.
        Cost::MagazineOp => 6,
        // One ring-buffer store on thread-private memory. Non-zero so
        // tracing-on runs honestly report their perturbation, small so
        // the perturbation stays well under the events it observes.
        Cost::TraceEvent => 1,
        // A CAS/exchange on a line other processors also touch: dearer
        // than an uncontended acquire because the line is often in a
        // remote cache, but far below a lock handoff — the losing CAS
        // retries, it never blocks the winner.
        Cost::AtomicRmw => 40,
        // A profiler sample is a couple of counter bumps on a warm
        // shared line: pricier than a ring store (it contends with other
        // samplers), far below a fast-path malloc — the honest tax for
        // keeping per-site live-byte books.
        Cost::ProfileSample => 2,
    }
}

/// A complete assignment of prices, indexed by [`Cost`], installable as
/// the global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel([u64; N_COSTS]);

impl Default for CostModel {
    fn default() -> Self {
        CostModel(Cost::ALL.map(default_price))
    }
}

impl CostModel {
    /// A flat model charging `unit` for every event: useful to separate
    /// *algorithmic* serialization (who waits on whom) from the cost
    /// constants — if a result only appears under skewed costs, it is a
    /// property of the machine model, not the allocator.
    pub fn uniform(unit: u64) -> Self {
        CostModel([unit; N_COSTS])
    }

    /// This model with `cost` priced at `price`.
    pub fn with(mut self, cost: Cost, price: u64) -> Self {
        self.0[cost.index()] = price;
        self
    }

    /// Value assigned to `cost` in this model.
    pub fn get(&self, cost: Cost) -> u64 {
        self.0[cost.index()]
    }

    /// Install this model as the process-global cost model.
    ///
    /// Affects all subsequent charges; intended to be called between
    /// experiment runs, not concurrently with one.
    pub fn install(&self) {
        for (slot, &price) in GLOBAL.iter().zip(&self.0) {
            slot.store(price, Ordering::Relaxed);
        }
    }

    /// Read back the currently installed global model.
    pub fn current() -> Self {
        CostModel(std::array::from_fn(|i| GLOBAL[i].load(Ordering::Relaxed)))
    }
}

static GLOBAL: [AtomicU64; N_COSTS] = {
    let mut prices = [const { AtomicU64::new(0) }; N_COSTS];
    let mut i = 0;
    while i < N_COSTS {
        prices[i] = AtomicU64::new(default_price(Cost::ALL[i]));
        i += 1;
    }
    prices
};

/// Read one cost from the installed global model (relaxed; hot path).
#[inline]
pub(crate) fn get(cost: Cost) -> u64 {
    GLOBAL[cost.index()].load(Ordering::Relaxed)
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
        CostModel::default().with(Cost::CacheRemote, 1234).install();
        assert_eq!(get(Cost::CacheRemote), 1234);
        assert_eq!(
            get(Cost::CacheHit),
            CostModel::default().get(Cost::CacheHit)
        );
        CostModel::default().install();
        assert_eq!(
            get(Cost::CacheRemote),
            CostModel::default().get(Cost::CacheRemote)
        );
    }

    #[test]
    fn all_lists_every_cost_in_discriminant_order() {
        for (i, c) in Cost::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn uniform_prices_every_cost_alike() {
        let flat = CostModel::uniform(7);
        assert!(Cost::ALL.iter().all(|&c| flat.get(c) == 7));
        assert_eq!(flat.with(Cost::Barrier, 9).get(Cost::Barrier), 9);
    }

    #[test]
    fn handoff_dominates_uncontended_acquire() {
        // The model only produces the paper's "serial allocator slows
        // down with more processors" shape if contended handoffs cost
        // more than uncontended acquisitions.
        let m = CostModel::default();
        assert!(m.get(Cost::LockHandoff) > m.get(Cost::LockAcquire) + m.get(Cost::LockRelease));
    }

    #[test]
    fn a_deferred_free_cas_sits_between_hit_and_handoff() {
        // A deferred remote free pays one CAS in place of the owner's
        // lock, so it only wins if the CAS undercuts a lock handoff.
        let m = CostModel::default();
        assert!(m.get(Cost::AtomicRmw) > m.get(Cost::CacheHit));
        assert!(m.get(Cost::AtomicRmw) < m.get(Cost::LockHandoff));
    }
}
