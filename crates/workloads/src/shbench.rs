//! `shbench` — mixed sizes with random lifetimes.
//!
//! Models the MicroQuill SmartHeap benchmark the paper uses: each thread
//! keeps an array of slots; every operation picks a random slot, frees
//! whatever lives there, and allocates a new object of random size
//! (1..=1000 bytes). Unlike `threadtest`, objects have *random overlapping
//! lifetimes* and span many size classes, which stresses size-class
//! management and produces the paper's worst observed fragmentation for
//! Hoard.

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{work, Machine, Rng};

/// Parameters for [`run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Total replacement operations, split across threads (fixed total
    /// work, so speedup curves are comparable across thread counts).
    pub total_ops: u64,
    /// Slots (max live objects) per thread.
    pub slots: usize,
    /// Minimum object size in bytes.
    pub min_size: usize,
    /// Maximum object size in bytes.
    pub max_size: usize,
    /// Local compute units per operation.
    pub work_per_op: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            total_ops: 40_000,
            slots: 500,
            min_size: 1,
            max_size: 1000,
            work_per_op: 20,
            seed: 0x5B,
        }
    }
}

/// Run shbench on `threads` virtual processors.
pub fn run(alloc: &dyn MtAllocator, threads: usize, params: &Params) -> WorkloadResult {
    hoard_sim::reset_cache();
    let meter = LiveMeter::new();

    let ops_per_thread = (params.total_ops / threads as u64).max(1);
    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        move || {
            let mut rng = Rng::new(params.seed, proc);
            let mut slots: Vec<Option<Obj>> = (0..params.slots).map(|_| None).collect();
            for _ in 0..ops_per_thread {
                let idx = rng.range(0, params.slots - 1);
                if let Some(old) = slots[idx].take() {
                    old.free(alloc, meter);
                }
                let size = rng.range(params.min_size, params.max_size);
                let obj = Obj::alloc(alloc, meter, size);
                obj.write();
                work(params.work_per_op);
                slots[idx] = Some(obj);
            }
            for obj in slots.drain(..).flatten() {
                obj.free(alloc, meter);
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: ops_per_thread * threads as u64,
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
            total_ops: 6_000,
            slots: 100,
            ..Params::default()
        }
    }

    #[test]
    fn completes_with_zero_leak() {
        let h = HoardAllocator::new_default();
        let r = run(&h, 4, &small());
        assert_eq!(r.snapshot.live_current, 0);
        assert!(r.snapshot.allocs >= 6_000);
        assert!(r.max_live_requested > 0);
    }

    #[test]
    fn spans_many_size_classes() {
        // With sizes 1..=1000 the allocator must touch both linear and
        // geometric classes; fragmentation is defined and finite.
        let h = HoardAllocator::new_default();
        let r = run(&h, 2, &small());
        let frag = r.fragmentation().expect("allocations happened");
        assert!(frag > 1.0, "held always exceeds requested");
        assert!(frag < 20.0, "fragmentation should not explode: {frag}");
    }

    #[test]
    fn deterministic_given_seed_single_thread() {
        let p = small();
        let a = run(&HoardAllocator::new_default(), 1, &p);
        let b = run(&HoardAllocator::new_default(), 1, &p);
        assert_eq!(a.max_live_requested, b.max_live_requested);
        assert_eq!(a.snapshot.allocs, b.snapshot.allocs);
    }
}
