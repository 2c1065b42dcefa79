//! The simulated multiprocessor: run one closure per virtual processor.
//!
//! [`Machine::run`] spawns `p` real OS threads, assigns them processor
//! ids `0..p`, zeroes their virtual clocks, runs the provided workers and
//! collects each worker's final virtual time. The **makespan** — the
//! maximum final clock — plays the role of the paper's wall-clock
//! runtime; `speedup(P) = makespan(1) / makespan(P)` for equal total
//! work.

use crate::clock;
use crate::gate;
use crate::report::RunReport;

/// A virtual multiprocessor with a fixed number of processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    processors: usize,
}

impl Machine {
    /// Create a machine with `processors` virtual processors.
    ///
    /// # Panics
    ///
    /// Panics if `processors == 0`.
    pub fn new(processors: usize) -> Self {
        assert!(processors > 0, "a machine needs at least one processor");
        Machine { processors }
    }

    /// Number of virtual processors.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Run the simulation.
    ///
    /// `make_worker` is called once per processor id (on the calling
    /// thread, in order) to build that processor's workload closure; each
    /// closure then runs on its own OS thread with its virtual clock
    /// reset to zero. Threads are *scoped*, so workers may borrow from
    /// the caller's stack (e.g. a shared `&dyn MtAllocator`). Returns a
    /// [`RunReport`] with per-processor final virtual times.
    ///
    /// # Panics
    ///
    /// Propagates panics from worker threads.
    pub fn run<W, F>(&self, mut make_worker: F) -> RunReport
    where
        W: FnOnce() + Send,
        F: FnMut(usize) -> W,
    {
        let workers: Vec<W> = (0..self.processors).map(&mut make_worker).collect();
        let state = gate::MachineState::new(self.processors);
        let finals: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(proc_id, worker)| {
                    let state = std::sync::Arc::clone(&state);
                    std::thread::Builder::new()
                        .name(format!("vcpu-{proc_id}"))
                        .spawn_scoped(scope, move || {
                            clock::set_proc(proc_id);
                            clock::reset_clock();
                            gate::attach(&state, proc_id);
                            worker();
                            gate::detach();
                            clock::now()
                        })
                        .expect("spawn vcpu thread")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("vcpu thread panicked"))
                .collect()
        });
        RunReport::new(finals)
    }
}

/// Run `f` on the calling thread inside a private machine context for a
/// **sequential** `processors`-way simulation.
///
/// This is the substrate for deterministic replay: instead of spawning
/// real threads (whose host scheduling leaks into virtual lock-handoff
/// and cache-transfer order), a single thread impersonates every
/// virtual processor in turn via [`crate::switch_context`]. The scope
/// provides a **private** [`crate::CacheModel`] (so concurrent
/// simulations in one process cannot contaminate each other's coherence
/// state) and disables the ordering gate — a lone runner needs no
/// conservative window, and its execution order is exactly the virtual
/// order its driver chooses.
///
/// The caller's own `(proc, clock)` context is restored when `f`
/// returns. Must not be called from inside a [`Machine`] worker.
pub fn sequential_scope<T>(processors: usize, f: impl FnOnce() -> T) -> T {
    let state = gate::MachineState::with_cache(
        processors.max(1),
        crate::CacheModel::deterministic(),
    );
    // Only the calling thread ever runs; every other slot is marked done
    // so the ordering gate's minimum is empty and never spins.
    for s in state.states.iter().skip(1) {
        s.store(gate::STATE_DONE, std::sync::atomic::Ordering::Relaxed);
    }
    // Restore the caller's context even if `f` unwinds.
    struct Restore {
        prev_ctx: Option<gate::MachineCtx>,
        prev: (usize, u64),
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            clock::switch_context(self.prev.0, self.prev.1);
            gate::swap_ctx(self.prev_ctx.take());
        }
    }
    let prev_ctx = gate::swap_ctx(Some((state, 0)));
    let prev = clock::switch_context(0, 0);
    let _restore = Restore { prev_ctx, prev };
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{work, VLock};
    use std::sync::Arc;

    #[test]
    fn makespan_is_max_of_processor_times() {
        let report = Machine::new(3).run(|proc_id| move || work((proc_id as u64 + 1) * 100));
        assert_eq!(report.makespan(), 300);
        assert_eq!(report.per_processor(), &[100, 200, 300]);
    }

    #[test]
    fn independent_work_parallelizes_perfectly() {
        // Total work 8000 units: 1 processor does it alone; 8 split it.
        let t1 = Machine::new(1).run(|_| || work(8000)).makespan();
        let t8 = Machine::new(8).run(|_| || work(1000)).makespan();
        assert_eq!(t1, 8000);
        assert_eq!(t8, 1000);
        assert_eq!(t1 / t8, 8, "perfect virtual speedup for lock-free work");
    }

    #[test]
    fn fully_serialized_work_does_not_speed_up() {
        // All work under one lock: makespan must be >= total critical work
        // regardless of processor count.
        let total_ops = 64u64;
        let per_op = 100u64;
        let run = |p: usize| {
            let lock = Arc::new(VLock::new());
            let ops_per_proc = total_ops / p as u64;
            Machine::new(p)
                .run(|_proc| {
                    let lock = Arc::clone(&lock);
                    move || {
                        for _ in 0..ops_per_proc {
                            let _g = lock.lock();
                            work(per_op);
                        }
                    }
                })
                .makespan()
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(t1 >= total_ops * per_op);
        // Contended handoffs make 4 processors *slower* than 1 — the
        // serial-allocator shape from the paper.
        assert!(
            t4 > t1,
            "serialized+contended should degrade: t1={t1} t4={t4}"
        );
    }

    #[test]
    fn clocks_reset_between_runs() {
        let m = Machine::new(2);
        let r1 = m.run(|_| || work(10));
        let r2 = m.run(|_| || work(10));
        assert_eq!(r1.makespan(), r2.makespan());
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::new(0);
    }

    #[test]
    fn sequential_scope_isolates_and_restores_context() {
        let my_proc = crate::current_proc();
        crate::charge(123);
        let my_clock = crate::now();
        let inside = sequential_scope(3, || {
            // Starts as processor 0 at time 0.
            assert_eq!(crate::current_proc(), 0);
            assert_eq!(crate::now(), 0);
            // Impersonate processor 2, run some work, switch back.
            clock::switch_context(2, 500);
            work(50);
            let t2 = crate::now();
            clock::switch_context(0, 10);
            assert_eq!(crate::now(), 10, "clock may move backwards here");
            t2
        });
        assert_eq!(inside, 550);
        assert_eq!(crate::current_proc(), my_proc, "identity restored");
        assert_eq!(crate::now(), my_clock, "clock restored");
    }

    #[test]
    fn publish_slot_follows_scopes_in_and_out() {
        use std::sync::atomic::Ordering::Relaxed;
        let outside = gate::publish_slot();
        sequential_scope(2, || {
            let outer = gate::publish_slot();
            assert!(!outer.is_null());
            assert_ne!(outer, outside);
            sequential_scope(2, || {
                assert_ne!(
                    gate::publish_slot(),
                    outer,
                    "the inner scope has its own slot"
                );
                work(5);
            });
            assert_eq!(
                gate::publish_slot(),
                outer,
                "nested scope restores the outer slot"
            );
            work(7);
            // SAFETY: the outer scope's machine state is alive until
            // this closure returns.
            assert_eq!(unsafe { (*outer).load(Relaxed) }, crate::now());
        });
        assert_eq!(gate::publish_slot(), outside);
        // The scope's machine state is gone; this must not store into it.
        let t = crate::now();
        work(3);
        assert_eq!(crate::now(), t + 3);
    }

    #[test]
    fn sequential_scope_serializes_virtual_lock_time() {
        // Two virtual processors take the same lock from one real
        // thread; the second (virtually earlier) acquirer must wait
        // past the first's release — same model as real Machine runs.
        let m = crate::CostModel::current();
        let (t_a, t_b) = sequential_scope(2, || {
            let lock = VLock::new();
            clock::switch_context(0, 0);
            {
                let _g = lock.lock();
                work(10_000);
            }
            let t_a = crate::now();
            clock::switch_context(1, 0);
            let _g = lock.lock();
            (t_a, crate::now())
        });
        assert!(t_b >= t_a + m.lock_handoff, "t_a={t_a} t_b={t_b}");
    }
}
