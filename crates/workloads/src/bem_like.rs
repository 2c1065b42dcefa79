//! `bem-like` — a phase-structured solver allocation pattern.
//!
//! The paper evaluates BEMengine, a proprietary boundary-element-method
//! solver. Per the substitution rule (see `DESIGN.md`), this workload
//! reproduces its published allocation *signature* rather than its
//! physics: repeated phases of (a) **assembly** — every thread allocates
//! a batch of medium-sized matrix panels and fills them; (b)
//! **exchange** — half of each thread's panels are handed to the next
//! thread, which releases them (remote frees, as the solver's
//! distributed panels are freed by whichever worker consumed them); and
//! (c) **solve** — compute-heavy iterations with small transient
//! allocations (work vectors). Allocator pressure is moderate, remote
//! frees are regular, and phases synchronize at barriers.

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{vchannel, work, Machine, Rng, VBarrier, VReceiver, VSender};
use std::sync::Mutex;

/// Parameters for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Assembly/solve phases.
    pub phases: usize,
    /// Matrix panels allocated per phase, split across threads (fixed
    /// total problem size).
    pub panels_per_phase_total: usize,
    /// Panel size in bytes (medium-sized).
    pub panel_size: usize,
    /// Solve iterations per phase, split across threads.
    pub solve_iters_total: usize,
    /// Transient work-vector size per solve iteration.
    pub transient_size: usize,
    /// Compute units per solve iteration (BEM is solver-dominated).
    pub work_per_iter: u64,
    /// Resident matrix panels, allocated once and live for the whole
    /// run, split across threads (the solver's system matrix).
    pub resident_panels_total: usize,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            phases: 4,
            panels_per_phase_total: 160,
            panel_size: 2048,
            solve_iters_total: 1600,
            transient_size: 64,
            work_per_iter: 1_000,
            resident_panels_total: 120,
            seed: 0xBE4,
        }
    }
}

/// Run the BEM-like workload on `threads` virtual processors.
pub fn run(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();
    let barrier = VBarrier::new(threads);

    // Exchange ring, as in larson.
    let mut senders: Vec<Option<VSender<Vec<Obj>>>> = Vec::new();
    let mut receivers: Vec<Option<VReceiver<Vec<Obj>>>> = Vec::new();
    for _ in 0..threads {
        let (tx, rx) = vchannel::<Vec<Obj>>();
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }
    let senders = Mutex::new(senders);
    let receivers = Mutex::new(receivers);

    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        let barrier = &barrier;
        let tx = senders.lock().expect("senders")[(proc + 1) % threads]
            .take()
            .expect("sender taken once");
        let rx = receivers.lock().expect("receivers")[proc]
            .take()
            .expect("receiver taken once");
        move || {
            let mut rng = Rng::new(params.seed, proc);
            let my_panels = (params.panels_per_phase_total / threads).max(1);
            let my_iters = (params.solve_iters_total / threads).max(1);
            let my_resident = (params.resident_panels_total / threads).max(1);
            // The system matrix: allocated once, resident across phases.
            let resident: Vec<Obj> = (0..my_resident)
                .map(|_| {
                    let obj = Obj::alloc(alloc, meter, params.panel_size);
                    obj.write();
                    obj
                })
                .collect();
            for _phase in 0..params.phases {
                // (a) Assembly.
                let mut panels: Vec<Obj> = (0..my_panels)
                    .map(|_| {
                        let jitter = rng.range(0, params.panel_size / 4);
                        let obj =
                            Obj::alloc(alloc, meter, params.panel_size - jitter);
                        obj.write();
                        obj
                    })
                    .collect();
                work(my_panels as u64 * 20);
                barrier.wait();

                // (b) Exchange: bleed half the panels to the next thread.
                let half = panels.split_off(panels.len() / 2);
                tx.send(half).expect("ring closed");
                let received = rx.recv().expect("ring closed");
                for obj in received {
                    obj.read();
                    obj.free(alloc, meter); // remote free
                }
                barrier.wait();

                // (c) Solve: transient allocations inside the hot loop.
                for _ in 0..my_iters {
                    let tmp = Obj::alloc(alloc, meter, params.transient_size);
                    tmp.write();
                    work(params.work_per_iter);
                    tmp.free(alloc, meter);
                }
                // Release the panels we kept.
                for obj in panels {
                    obj.free(alloc, meter);
                }
                barrier.wait();
            }
            for obj in resident {
                obj.free(alloc, meter);
            }
        }
    });

    let ops =
        (params.phases * (params.panels_per_phase_total + params.solve_iters_total)) as u64;
    WorkloadResult {
        makespan: report.makespan(),
        ops,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_core::HoardAllocator;

    fn small() -> Params {
        Params {
            phases: 2,
            panels_per_phase_total: 40,
            solve_iters_total: 200,
            resident_panels_total: 40,
            ..Params::default()
        }
    }

    #[test]
    fn completes_with_zero_leak_and_remote_frees() {
        let h = HoardAllocator::new_default();
        let r = run(&h, 4, &small());
        assert_eq!(r.snapshot.live_current, 0);
        assert!(r.snapshot.remote_frees > 0, "exchange produces remote frees");
    }

    #[test]
    fn single_thread_ring_works() {
        let h = HoardAllocator::new_default();
        let r = run(&h, 1, &small());
        assert_eq!(r.snapshot.live_current, 0);
    }

    #[test]
    fn hoard_scales_on_bem() {
        let p = small();
        let t1 = run(&HoardAllocator::new_default(), 1, &p).makespan;
        let t4 = run(&HoardAllocator::new_default(), 4, &p).makespan;
        let speedup = t1 as f64 / t4 as f64;
        // The test-scale problem is small (exchange + cold-footprint
        // overheads weigh more than at E8's full scale); require a
        // clearly-parallel result rather than the full-scale ratio.
        assert!(speedup > 1.7, "hoard speedup on bem-like: {speedup:.2}");
    }

    #[test]
    fn default_slack_prevents_superblock_thrashing() {
        // With K = 0 the solve phase's transient superblock ping-pongs
        // through the global heap (the E12 pathology); the default K
        // must keep transfer counts small.
        let p = small();
        let defaults = HoardAllocator::new_default();
        let r = run(&defaults, 2, &p);
        let transfers = r.snapshot.transfers_to_global + r.snapshot.transfers_from_global;
        assert!(
            transfers < 100,
            "default config must not thrash: {transfers} transfers"
        );
    }
}
