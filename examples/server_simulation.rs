//! A server simulation on the `hoard-trc` pipeline, comparing every
//! allocator in the paper's sweep against one shared traffic trace.
//!
//! Instead of each allocator running its own randomized workload, a
//! single server-shaped `.trc` trace is generated once (Poisson
//! arrivals, long-tail session lifetimes, tenant churn, connection
//! storms, cross-worker teardown) and deterministically replayed
//! against every allocator — the same sessions, in the same order, for
//! every contender. Differences in makespan, remote frees and
//! fragmentation are then attributable to the allocator alone.
//!
//! The run is checked, not just printed: every allocator must serve
//! every session in the trace and end with zero live bytes. Any
//! shortfall (a dropped session, a leak, an allocation failure) makes
//! the process exit non-zero, so CI smoke runs cannot pass vacuously.
//!
//! ```text
//! cargo run --release --example server_simulation
//! ```

use hoard_harness::AllocatorKind;
use hoard_workloads::server_traffic::{self, Params};
use hoard_workloads::trace::{replay, Trace};

fn main() {
    let params = Params {
        workers: 4,
        sessions: 20_000,
        ..Params::default()
    };
    let (trc, summary) = server_traffic::generate(&params);
    let trace = match Trace::from_trc(&trc) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("generated trace failed to convert: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "server traffic: {} sessions, {} workers, {} storms, {} evictions, {} migrated, peak {} live\n",
        summary.sessions, params.workers, summary.storms, summary.evictions,
        summary.migrated, summary.peak_live
    );
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>14} {:>8}",
        "allocator", "makespan", "throughput", "remote frees", "frag (A/U)", "status"
    );

    let mut failures = 0u32;
    for kind in AllocatorKind::sweep() {
        // Fresh instance per run: virtual-time state must not leak
        // across measurements.
        let alloc = kind.build();
        let result = replay(&*alloc, &trace);
        let s = &result.snapshot;
        let served_all = s.allocs == summary.sessions;
        let drained = s.frees == s.allocs && s.live_current == 0;
        let ok = served_all && drained;
        // `max A` over the replay's own `max U` (requested bytes), the
        // ratio every table in this repo uses.
        let frag = result.fragmentation().unwrap_or(0.0);
        println!(
            "{:<10} {:>14} {:>12.1} {:>12} {:>14.2} {:>8}",
            kind.label(),
            result.makespan,
            result.throughput(),
            s.remote_frees,
            frag,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
            eprintln!(
                "{}: served {}/{} sessions, freed {}/{}, {} bytes still live",
                kind.label(),
                s.allocs,
                summary.sessions,
                s.frees,
                s.allocs,
                s.live_current
            );
        }
    }

    println!("\nthroughput = trace operations per Munit of virtual time");
    println!("frag = held-peak over requested-live-peak, the paper's A/U");
    if failures > 0 {
        eprintln!("\n{failures} allocator(s) dropped sessions or leaked — failing");
        std::process::exit(1);
    }
}
