//! Trace record / replay: synthesize an allocation trace once, then
//! replay the identical event sequence against every allocator.
//!
//! This is how allocator research compares candidates apples-to-apples:
//! the workload is frozen as data, so differences in the results are
//! attributable to the allocators alone. The trace round-trips through
//! the checksummed binary `.trc` encoding on the way, demonstrating that
//! traces can be stored in files and shared (`hoardscope trc
//! gen/replay/report` work on the same files).
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use hoard_harness::AllocatorKind;
use hoard_core::TrcTrace;
use hoard_workloads::trace::{replay, synthesize, SynthesisParams, Trace};

fn main() {
    let params = SynthesisParams {
        threads: 6,
        allocs_per_thread: 3_000,
        min_size: 16,
        max_size: 768,
        working_set: 128,
        remote_free_permille: 150, // 15% of frees happen on another thread
        ..Default::default()
    };
    let trace = synthesize(&params);
    println!(
        "synthesized trace: {} threads, {} events ({} allocations)\n",
        trace.threads(),
        trace.len(),
        params.threads * params.allocs_per_thread,
    );

    // Round-trip through the `.trc` bytes (as if loaded from a file).
    let bytes = trace.to_trc(params.seed, "trace_replay").encode();
    let trc = TrcTrace::decode(&bytes).expect("checksummed bytes decode");
    let trace = Trace::from_trc(&trc).expect(".trc round-trip");
    trace.validate().expect("well-formed");
    println!(".trc encoding: {} KiB", bytes.len() / 1024);

    println!(
        "\n{:<10} {:>12} {:>10} {:>12} {:>8}",
        "allocator", "makespan", "remote", "held peak", "frag"
    );
    for kind in AllocatorKind::sweep() {
        let alloc = kind.build();
        let result = replay(&*alloc, &trace);
        assert_eq!(result.snapshot.live_current, 0, "replay must return all memory");
        println!(
            "{:<10} {:>12} {:>10} {:>12} {:>8.2}",
            kind.label(),
            result.makespan,
            result.snapshot.remote_frees,
            result.snapshot.held_peak,
            result.fragmentation().unwrap_or(f64::NAN)
        );
    }
    println!("\nsame events, same threads — the allocator is the only variable");
}
