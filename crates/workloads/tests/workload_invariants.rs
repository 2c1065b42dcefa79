//! Property tests across workload parameter spaces: for random
//! parameters and any allocator, every workload must terminate, return
//! all memory, and report sane accounting. These catch parameter-edge
//! bugs (single thread, tiny batches, working sets larger than the
//! trace) that fixed-parameter tests never visit. Each property runs
//! [`CASES`] generated parameter sets; a failure names the seed that
//! reproduces it.

use hoard_baselines::SerialAllocator;
use hoard_core::HoardAllocator;
use hoard_mem::MtAllocator;
use hoard_sim::Rng;
use hoard_workloads as wl;

/// Generated parameter sets per workload.
const CASES: u64 = 12;

fn allocator(pick: usize) -> Box<dyn MtAllocator> {
    match pick % 2 {
        0 => Box::new(HoardAllocator::new_default()),
        _ => Box::new(SerialAllocator::new()),
    }
}

fn check(result: &wl::WorkloadResult, what: &str) {
    assert_eq!(result.snapshot.live_current, 0, "{}: leak", what);
    assert!(result.makespan > 0, "{}: empty run", what);
    assert!(result.ops > 0, "{}: no ops recorded", what);
    assert!(
        result.snapshot.held_peak >= result.max_live_requested / 2,
        "{}: held ({}) cannot be far below live ({})",
        what,
        result.snapshot.held_peak,
        result.max_live_requested
    );
}

#[test]
fn threadtest_any_params() {
    Rng::for_each_case(CASES, |rng| {
        let threads = rng.range(1, 6);
        let params = wl::threadtest::Params {
            total_objects: rng.range(200, 4_000) as u64,
            batch: rng.range(1, 120),
            size: rng.range(1, 512),
            work_per_object: 10,
        };
        let alloc = allocator(rng.range(0, 1));
        let r = wl::threadtest::run(&*alloc, threads, &params);
        check(&r, "threadtest");
    });
}

#[test]
fn shbench_any_params() {
    Rng::for_each_case(CASES, |rng| {
        let threads = rng.range(1, 6);
        let params = wl::shbench::Params {
            total_ops: rng.range(100, 3_000) as u64,
            slots: rng.range(1, 200),
            min_size: 1,
            max_size: rng.range(1, 2_000),
            work_per_op: 5,
            seed: 7,
        };
        let alloc = allocator(rng.range(0, 1));
        let r = wl::shbench::run(&*alloc, threads, &params);
        check(&r, "shbench");
    });
}

#[test]
fn larson_any_params() {
    Rng::for_each_case(CASES, |rng| {
        let threads = rng.range(1, 5);
        let params = wl::larson::Params {
            slots_per_thread: rng.range(1, 100),
            rounds: rng.range(1, 4),
            ops_per_round: rng.range(1, 600) as u64,
            min_size: 8,
            max_size: 64,
            work_per_op: 5,
            seed: 11,
        };
        let alloc = allocator(rng.range(0, 1));
        let r = wl::larson::run(&*alloc, threads, &params);
        check(&r, "larson");
    });
}

#[test]
fn false_sharing_any_params() {
    Rng::for_each_case(CASES, |rng| {
        let threads = rng.range(1, 6);
        let params = wl::false_sharing::Params {
            object_size: 8,
            total_writes: rng.range(100, 5_000) as u64,
            writes_per_object: rng.range(1, 200) as u64,
            work_per_write: 2,
        };
        let pick = rng.range(0, 1);
        let a = allocator(pick);
        let r = wl::false_sharing::active_false(&*a, threads, &params);
        check(&r, "active");
        let b = allocator(pick + 1);
        let r = wl::false_sharing::passive_false(&*b, threads, &params);
        check(&r, "passive");
    });
}

#[test]
fn trace_synthesis_any_params() {
    Rng::for_each_case(CASES, |rng| {
        let params = wl::trace::SynthesisParams {
            threads: rng.range(1, 5),
            allocs_per_thread: rng.range(10, 400),
            min_size: 8,
            max_size: 256,
            working_set: rng.range(1, 64),
            remote_free_permille: rng.range(0, 500) as u32,
            work_between: 2,
            seed: 3,
        };
        let trace = wl::trace::synthesize(&params);
        assert!(trace.validate().is_ok());
        let alloc = HoardAllocator::new_default();
        let r = wl::trace::replay(&alloc, &trace);
        assert_eq!(r.snapshot.live_current, 0, "trace replay leak");
    });
}
