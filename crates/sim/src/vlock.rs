//! [`VLock`] — a real spinlock that also serializes *virtual* time.
//!
//! The lock provides genuine mutual exclusion between OS threads (the
//! allocators' correctness relies on it), and simultaneously keeps a
//! virtual-time ledger: the virtual instant at which the previous holder
//! released it. An acquiring thread whose own clock is behind that
//! instant "waits" in virtual time (its clock jumps forward), and a
//! virtually contended acquisition additionally pays the handoff penalty
//! — the modelled cache-line transfer of the lock word and the data it
//! protects.
//!
//! This is the mechanism that makes a single-lock serial allocator's
//! virtual speedup *collapse* as virtual processors are added, exactly
//! like the Solaris allocator in the paper's figures, while Hoard's
//! per-processor heap locks stay uncontended and scale.
//!
//! The lock is allocation-free and `const`-constructible so it can live
//! inside a `#[global_allocator]`.

use crate::clock;
use crate::cost::{self, Cost};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A virtual-time-aware spinlock. See the module docs.
#[derive(Debug)]
pub struct VLock {
    /// Real mutual exclusion flag.
    locked: AtomicBool,
    /// Virtual instant of the most recent release. Written while holding
    /// the lock, read immediately after acquiring it.
    v_release: AtomicU64,
    /// Total acquisitions (telemetry). Like `contended`, written only
    /// by the current holder: [`single_writer_add`], no RMW.
    acquisitions: AtomicU64,
    /// Acquisitions that were *virtually* contended: the acquirer's clock
    /// was behind the previous release (it would have had to wait on a
    /// real multiprocessor).
    contended: AtomicU64,
}

/// `counter += n` as a relaxed load + store instead of an atomic
/// read-modify-write, for a counter that has **one writer at a time**: a
/// guard the caller holds (a [`VLock`], a claimed slot) excludes every
/// other writer, and the guard's Release/Acquire handoff orders
/// successive ones, so nothing is lost. Readers may be concurrent —
/// hence still an atomic cell — and see some value the counter held.
/// Without the guard, concurrent updates are silently dropped.
#[inline]
pub fn single_writer_add(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// `counter -= n`; as for [`single_writer_add`].
#[inline]
pub fn single_writer_sub(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) - n, Ordering::Relaxed);
}

impl VLock {
    /// Create an unlocked lock. `const`, so it can sit in a `static`.
    pub const fn new() -> Self {
        VLock {
            locked: AtomicBool::new(false),
            v_release: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Acquire the lock, spinning (with `yield_now` back-off) until it is
    /// available, and advance the caller's virtual clock per the model.
    #[inline]
    pub fn lock(&self) -> VLockGuard<'_> {
        // Conservative ordering: workers far ahead in virtual time yield
        // until laggards catch up, so real acquisition order approximates
        // virtual-time order (see `gate`). Never while holding a lock —
        // that keeps the protocol deadlock-free. A thread attached to no
        // machine has nobody to wait for and skips the call.
        if crate::gate::attached() && crate::gate::lock_depth() == 0 {
            crate::gate::gate(clock::now());
        }
        // --- real acquisition ---
        let mut spins = 0u32;
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                break;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }

        self.account_acquired()
    }

    /// Try to acquire without spinning. On failure the caller's clock is
    /// untouched (a real `trylock` returns immediately).
    #[inline]
    pub fn try_lock(&self) -> Option<VLockGuard<'_>> {
        if self.locked.swap(true, Ordering::Acquire) {
            return None;
        }
        Some(self.account_acquired())
    }

    /// Virtual accounting of an acquisition; the caller has just won the
    /// real lock.
    #[inline]
    fn account_acquired(&self) -> VLockGuard<'_> {
        // Guard: this lock — only the holder (this thread, from the
        // `swap` above until `unlock`) writes the two telemetry counters.
        self.debug_assert_held("lock telemetry bumped");
        single_writer_add(&self.acquisitions, 1);
        let mut t = clock::now() + cost::get(Cost::LockAcquire);
        let rel = self.v_release.load(Ordering::Relaxed);
        let mut waited = 0;
        if rel > t {
            // Another processor held the lock past our arrival: we wait
            // in virtual time and pay the contended-handoff penalty,
            // which is serialized (it delays the next holder too because
            // our eventual release time includes it).
            let target = rel + cost::get(Cost::LockHandoff);
            waited = target - t;
            t = target;
            single_writer_add(&self.contended, 1);
        }
        clock::set_clock(t);
        crate::gate::inc_lock_depth();
        VLockGuard { lock: self, waited }
    }

    /// Debug builds: panic with `what` unless *some* thread holds the
    /// lock (it cannot tell who). Release builds: nothing. For state the
    /// lock guards and its holder updates with [`single_writer_add`].
    #[inline]
    pub fn debug_assert_held(&self, what: &str) {
        debug_assert!(
            self.locked.load(Ordering::Relaxed),
            "{what} without the lock held"
        );
    }

    /// Total acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Virtually contended acquisitions so far.
    pub fn contentions(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Reset telemetry counters (between experiment runs).
    pub fn reset_counters(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.v_release.store(0, Ordering::Relaxed);
    }

    #[inline]
    fn unlock(&self) {
        let t = clock::now() + cost::get(Cost::LockRelease);
        clock::set_clock(t);
        self.v_release.store(t, Ordering::Relaxed);
        self.locked.store(false, Ordering::Release);
    }
}

impl Default for VLock {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard returned by [`VLock::lock`]; releases on drop.
#[derive(Debug)]
pub struct VLockGuard<'a> {
    lock: &'a VLock,
    /// Virtual units this acquisition waited beyond an uncontended
    /// acquire (0 when uncontended). Includes the handoff penalty.
    waited: u64,
}

impl VLockGuard<'_> {
    /// Whether this particular acquisition was virtually contended
    /// (the acquirer's clock was behind the previous holder's release).
    pub fn was_contended(&self) -> bool {
        self.waited > 0
    }

    /// Virtual units spent waiting on this acquisition beyond the
    /// uncontended acquire cost; 0 when uncontended. The per-acquisition
    /// datum behind the tracer's lock-wait histogram.
    pub fn waited(&self) -> u64 {
        self.waited
    }
}

impl Drop for VLockGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.lock.unlock();
        crate::gate::dec_lock_depth();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{charge, now};
    use std::sync::Arc;

    #[test]
    fn lock_advances_clock_by_acquire_and_release() {
        let l = VLock::new();
        charge(1000); // get ahead of any stale v_release
        let t0 = now();
        drop(l.lock());
        let m = crate::CostModel::current();
        assert_eq!(now(), t0 + m.lock_acquire + m.lock_release);
        assert_eq!(l.acquisitions(), 1);
        assert_eq!(l.contentions(), 0);
    }

    #[test]
    fn reacquisition_by_same_thread_is_uncontended() {
        let l = VLock::new();
        charge(1000);
        for _ in 0..10 {
            drop(l.lock());
        }
        assert_eq!(l.contentions(), 0, "own releases are never in our future");
    }

    #[test]
    fn cross_thread_contention_is_detected_and_serializes_time() {
        // Thread A holds the lock while far ahead in virtual time; when B
        // (at time 0) acquires, B must jump past A's release.
        let l = Arc::new(VLock::new());
        let l2 = Arc::clone(&l);
        {
            let _g = l.lock();
            charge(10_000); // A accumulates virtual work inside...
        } // release records ~10k
        let handle = std::thread::spawn(move || {
            let _g = l2.lock();
            now()
        });
        let b_time = handle.join().unwrap();
        let m = crate::CostModel::current();
        assert!(
            b_time >= 10_000 + m.lock_handoff,
            "B acquired at {b_time}, expected to wait past 10000"
        );
        assert_eq!(l.contentions(), 1);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let l = VLock::new();
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn held_probe_fires_only_when_nobody_holds_the_lock() {
        let l = VLock::new();
        {
            let _g = l.lock();
            l.debug_assert_held("guarded write");
        }
        let unheld = std::panic::catch_unwind(|| l.debug_assert_held("guarded write"));
        assert!(unheld.is_err(), "probe passed on an unlocked lock");
    }

    #[test]
    fn real_mutual_exclusion_under_hammering() {
        // Classic counter test: without real mutual exclusion the final
        // count would be lost-update-corrupted.
        struct RacyCell(std::cell::UnsafeCell<u64>);
        // Safety: all accesses to the cell happen under `l`.
        unsafe impl Send for RacyCell {}
        unsafe impl Sync for RacyCell {}
        let l = Arc::new(VLock::new());
        let counter = Arc::new(RacyCell(std::cell::UnsafeCell::new(0u64)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let _g = l.lock();
                        unsafe { *c.0.get() += 1 };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(unsafe { *counter.0.get() }, 40_000);
        assert_eq!(l.acquisitions(), 40_000);
    }

    #[test]
    fn reset_counters_clears_telemetry() {
        let l = VLock::new();
        drop(l.lock());
        l.reset_counters();
        assert_eq!(l.acquisitions(), 0);
        assert_eq!(l.contentions(), 0);
    }
}
