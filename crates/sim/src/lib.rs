//! # hoard-sim — a virtual-time SMP substrate
//!
//! The Hoard paper (ASPLOS 2000) evaluates allocator scalability on a
//! 14-processor Sun Enterprise 5000. This reproduction runs on commodity
//! hardware that may have only **one** core, so wall-clock speedup curves
//! cannot physically be measured. Instead, this crate provides a
//! *virtual-time* model of a small shared-memory multiprocessor:
//!
//! * every simulated thread is a **virtual processor** with its own
//!   [`VirtualClock`] (a plain per-thread counter of abstract cost units);
//! * [`VLock`] is a real spinlock that *additionally* serializes virtual
//!   time: a thread entering the lock observes the previous holder's
//!   release time and advances its own clock past it, plus a handoff
//!   penalty when the acquisition was virtually contended;
//! * [`CacheModel`] is a lossy cache-line directory: writing a line whose
//!   last writer was another virtual processor costs a remote-transfer
//!   penalty — this is what makes *false sharing* visible in the model;
//! * [`Machine::run`] executes one closure per virtual processor on real
//!   OS threads and reports the **virtual makespan** (the maximum final
//!   clock), from which speedup curves are computed.
//!
//! The allocators under test are *real* concurrent data structures — real
//! memory, real atomic operations, real mutual exclusion. Only *time* is
//! modelled. The three effects the paper's figures measure — lock
//! serialization, heap contention and cache-line ping-ponging — are
//! exactly the quantities the virtual clock accounts.
//!
//! ## Example
//!
//! ```
//! use hoard_sim::{Machine, CostModel, work, VLock};
//! use std::sync::Arc;
//!
//! let lock = Arc::new(VLock::new());
//! let report = Machine::new(4).run(|proc_id| {
//!     let lock = Arc::clone(&lock);
//!     move || {
//!         for _ in 0..100 {
//!             work(10); // local compute: advances only this clock
//!             let _g = lock.lock(); // serializes virtual time
//!             work(5);
//!         }
//!         let _ = proc_id;
//!     }
//! });
//! assert!(report.makespan() > 0);
//! ```

mod cache;
mod channel;
mod clock;
mod cost;
mod gate;
mod machine;
mod report;
mod rng;
mod vbarrier;
mod vlock;

pub use cache::CacheModel;
pub use channel::{vchannel, VReceiver, VSender};
pub use clock::{
    charge, current_alloc_site, current_proc, has_proc, now, set_alloc_site, set_clock,
    switch_context, VirtualClock,
};
pub use cost::{Cost, CostModel};
pub use machine::{sequential_scope, Machine};
pub use report::RunReport;
pub use rng::Rng;
pub use vbarrier::VBarrier;
pub use vlock::{single_writer_add, single_writer_sub, VLock, VLockGuard};

/// Advance the calling virtual processor's clock by `units` of local
/// compute work.
///
/// This is how workloads express "the application did some computation
/// here" without actually burning host cycles; purely local work
/// parallelizes perfectly across virtual processors.
#[inline]
pub fn work(units: u64) {
    clock::charge(units);
}

/// Charge a named cost from the globally installed [`CostModel`].
#[inline]
pub fn charge_cost(cost: Cost) {
    clock::charge(cost::get(cost));
}

/// Clear the fallback global [`CacheModel`] (directory, residency,
/// counters). Machine workers use a per-machine cache model created
/// fresh by every [`Machine::run`], so runs cannot contaminate each
/// other; this reset only affects non-machine threads' modelling.
pub fn reset_cache() {
    cache::global().reset();
}

/// Remote-transfer / local-hit counters of the calling thread's cache
/// model (the machine's own when attached, the global fallback
/// otherwise).
pub fn cache_counters() -> (u64, u64) {
    gate::machine_cache(|c| (c.remote_transfers(), c.local_hits()))
        .unwrap_or_else(|| {
            let g = cache::global();
            (g.remote_transfers(), g.local_hits())
        })
}

/// Record a live block with the global [`CacheModel`]'s residency
/// directory (see [`CacheModel::register_block`]): lines hosting live
/// blocks of several virtual processors charge remote-transfer costs on
/// every write — the observable form of allocator-induced false sharing.
pub fn register_block(ptr: *mut u8, len: usize) {
    if gate::machine_cache(|c| c.register_block(ptr, len)).is_none() {
        cache::global().register_block(ptr, len);
    }
}

/// Remove a block recorded by [`register_block`]; `owner_proc` is the
/// processor that registered it (which may differ from the caller).
pub fn unregister_block(ptr: *mut u8, len: usize, owner_proc: usize) {
    if gate::machine_cache(|c| c.unregister_block(ptr, len, owner_proc)).is_none() {
        cache::global().unregister_block(ptr, len, owner_proc);
    }
}

/// Tell the calling thread's cache model that `ptr..ptr+len` was just
/// handed out fresh by the operating system (see
/// [`CacheModel::chunk_acquired`]). Chunk sources call this on every
/// OS-level chunk allocation so that, in deterministic replay, a
/// recycled address behaves exactly like a brand-new one.
///
/// Deliberately no global-cache fallback: only machine-scoped caches
/// can be deterministic, so on a detached thread this is a no-op —
/// and since chunk sources call it from *inside* an allocation, lazily
/// initializing the global cache here would recurse into the allocator
/// when a Hoard instance is installed as `#[global_allocator]`.
pub fn chunk_acquired(ptr: *mut u8, len: usize) {
    let _ = gate::machine_cache(|c| c.chunk_acquired(ptr, len));
}

/// Touch `len` bytes at `ptr` through the global [`CacheModel`],
/// charging cache-hit or remote-transfer costs per 64-byte line and
/// performing a real volatile write per line when `write` is true (so the
/// memory access pattern is real, not just modelled).
///
/// # Safety
///
/// `ptr..ptr+len` must be valid for writes when `write` is true (reads
/// otherwise).
pub unsafe fn touch(ptr: *mut u8, len: usize, write: bool) {
    if gate::machine_cache(|c| c.touch(ptr, len, write)).is_none() {
        cache::global().touch(ptr, len, write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_advances_clock() {
        let before = now();
        work(123);
        assert_eq!(now(), before + 123);
    }

    #[test]
    fn charge_cost_uses_model() {
        let before = now();
        charge_cost(Cost::MallocFast);
        assert!(now() > before);
    }
}
