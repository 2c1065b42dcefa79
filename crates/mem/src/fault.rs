//! Deterministic fault injection for chunk sources.
//!
//! [`LimitedSource`](crate::LimitedSource) and
//! [`FailingSource`](crate::FailingSource) cover the two simplest
//! out-of-memory shapes (a byte budget and a hard cliff). Real systems
//! fail in richer patterns — periodic pressure, random spikes, a burst
//! that passes, a cold start that recovers — and a robustness campaign
//! needs all of them *reproducibly*. [`FaultPlan`] describes such a
//! pattern as a pure function of the allocation-call index (plus a seed
//! for the probabilistic plan), and [`InjectingSource`] applies it to
//! any inner [`ChunkSource`]: the same plan over the same call sequence
//! always fails the same calls, so a failing campaign run can be
//! replayed exactly.

use crate::chunk::{ChunkSource, SourceStats};
use hoard_sim::Rng;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic schedule of chunk-allocation failures, evaluated
/// against the 0-based index of each `alloc_chunk` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Every `n`-th call fails (call indices `n-1, 2n-1, ...`).
    /// `n = 1` fails everything; useful as the harshest setting.
    EveryNth {
        /// Period of the failure pattern (must be ≥ 1).
        n: u64,
    },
    /// Each call independently fails with probability
    /// `p_permille / 1000`, drawn from a seeded hash of the call index —
    /// deterministic for a given `(seed, index)` pair.
    Probability {
        /// Failure probability in parts per thousand (0..=1000).
        p_permille: u32,
        /// Seed decorrelating this plan from other instances.
        seed: u64,
    },
    /// Calls with index in `start .. start + len` fail; everything
    /// before and after succeeds (an outage window).
    Burst {
        /// First failing call index.
        start: u64,
        /// Number of consecutive failing calls.
        len: u64,
    },
    /// The first `fail_first` calls fail, then the source recovers for
    /// good (cold-start / transient pressure).
    TransientThenRecover {
        /// Number of leading calls that fail.
        fail_first: u64,
    },
}

impl FaultPlan {
    /// Whether the `index`-th allocation call (0-based) fails under this
    /// plan. Pure: same inputs, same answer.
    pub fn fails(&self, index: u64) -> bool {
        match *self {
            FaultPlan::EveryNth { n } => {
                debug_assert!(n >= 1, "EveryNth needs n >= 1");
                index % n.max(1) == n.max(1) - 1
            }
            FaultPlan::Probability { p_permille, seed } => {
                Rng::new(seed, index as usize).next_u64() % 1000 < p_permille as u64
            }
            FaultPlan::Burst { start, len } => index >= start && index - start < len,
            FaultPlan::TransientThenRecover { fail_first } => index < fail_first,
        }
    }
}

/// A [`ChunkSource`] decorator that fails `alloc_chunk` calls according
/// to a [`FaultPlan`]. Frees always pass through — a failed OS cannot
/// refuse to take memory back.
#[derive(Debug)]
pub struct InjectingSource<S> {
    inner: S,
    plan: FaultPlan,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl<S: ChunkSource> InjectingSource<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        InjectingSource {
            inner,
            plan,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Total `alloc_chunk` calls observed (successful or not).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

unsafe impl<S: ChunkSource> ChunkSource for InjectingSource<S> {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        let index = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.plan.fails(index) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.inner.alloc_chunk(layout)
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        self.inner.free_chunk(ptr, layout);
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemSource;

    #[test]
    fn every_nth_fails_exactly_on_schedule() {
        let plan = FaultPlan::EveryNth { n: 3 };
        let fails: Vec<u64> = (0..12).filter(|&i| plan.fails(i)).collect();
        assert_eq!(fails, vec![2, 5, 8, 11]);
        let always = FaultPlan::EveryNth { n: 1 };
        assert!((0..10).all(|i| always.fails(i)));
    }

    #[test]
    fn probability_is_deterministic_and_roughly_calibrated() {
        let plan = FaultPlan::Probability {
            p_permille: 100,
            seed: 42,
        };
        let first: Vec<bool> = (0..1000).map(|i| plan.fails(i)).collect();
        let second: Vec<bool> = (0..1000).map(|i| plan.fails(i)).collect();
        assert_eq!(first, second, "same seed, same schedule");
        let rate = first.iter().filter(|&&b| b).count();
        assert!(
            (50..200).contains(&rate),
            "p=0.1 over 1000 draws gave {rate} failures"
        );
        // A different seed gives a different schedule.
        let other = FaultPlan::Probability {
            p_permille: 100,
            seed: 43,
        };
        assert_ne!(
            first,
            (0..1000).map(|i| other.fails(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn burst_and_transient_windows() {
        let burst = FaultPlan::Burst { start: 5, len: 3 };
        let fails: Vec<u64> = (0..12).filter(|&i| burst.fails(i)).collect();
        assert_eq!(fails, vec![5, 6, 7]);
        let transient = FaultPlan::TransientThenRecover { fail_first: 4 };
        let fails: Vec<u64> = (0..12).filter(|&i| transient.fails(i)).collect();
        assert_eq!(fails, vec![0, 1, 2, 3]);
    }

    #[test]
    fn injecting_source_counts_and_delegates() {
        let src = InjectingSource::new(SystemSource::new(), FaultPlan::EveryNth { n: 2 });
        let layout = Layout::from_size_align(8192, 4096).unwrap();
        let mut got = Vec::new();
        for _ in 0..6 {
            if let Some(p) = unsafe { src.alloc_chunk(layout) } {
                got.push(p);
            }
        }
        assert_eq!(src.calls(), 6);
        assert_eq!(src.injected_failures(), 3, "indices 1, 3, 5 fail");
        assert_eq!(got.len(), 3);
        for p in got {
            unsafe { src.free_chunk(p, layout) };
        }
        assert_eq!(src.stats().held_current, 0);
    }
}
