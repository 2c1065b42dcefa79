//! Telemetry overhead: the same workload with tracing off, metrics
//! only, and full tracing (sink + registry).
//!
//! Two ledgers matter:
//!
//! 1. **virtual time** — the sim charges `Cost::TraceEvent` per emitted
//!    event, so tracing shifts the modelled makespan; the acceptance
//!    bound is ≤ 10% on threadtest/larson. Printed first (it needs one
//!    run each, not sampling).
//! 2. **wall time** — the real cost of the hooks themselves (the atomic
//!    gate when off; the ring-buffer write when on).
//!
//! Medians are recorded in `results/trace_overhead.txt`.

use hoard_bench::report;
use hoard_core::{HoardAllocator, HoardConfig, TraceConfig, TraceSink};
use hoard_mem::MtAllocator;
use hoard_workloads::{larson, threadtest};
use std::hint::black_box;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Metrics,
    Full,
}

const MODES: [(Mode, &str); 3] = [
    (Mode::Off, "off"),
    (Mode::Metrics, "metrics"),
    (Mode::Full, "trace+metrics"),
];

fn build(mode: Mode) -> HoardAllocator {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines())
        .expect("valid config");
    if mode != Mode::Off {
        h.attach_metrics(Arc::new(h.new_metrics_registry()));
    }
    if mode == Mode::Full {
        h.attach_tracer(Arc::new(TraceSink::with_config(TraceConfig {
            tracks: 8,
            capacity: 1 << 20,
        })));
    }
    h
}

/// One-shot virtual-makespan comparison (deterministic, no sampling
/// needed): prints the tracing-on/off ratio for both acceptance
/// workloads.
fn report_virtual_overhead() {
    println!("# virtual-time overhead (single deterministic run each)");
    let tt = |mode: Mode| {
        let h = build(mode);
        threadtest::run(&h, 4, &threadtest::Params::default()).makespan
    };
    let ls = |mode: Mode| {
        let h = build(mode);
        larson::run(&h, 4, &larson::Params::default()).makespan
    };
    for (name, run) in [
        ("threadtest", &tt as &dyn Fn(Mode) -> u64),
        ("larson", &ls),
    ] {
        let off = run(Mode::Off);
        let on = run(Mode::Full);
        println!(
            "{name}: makespan off={off} on={on} overhead={:+.2}%",
            100.0 * (on as f64 - off as f64) / off as f64
        );
    }
}

fn bench_pair() {
    for (mode, label) in MODES {
        let alloc = build(mode);
        let name = format!("trace_alloc_free_pair/{label}");
        report(&name, 1, || unsafe {
            let p = alloc.allocate(black_box(64)).unwrap();
            alloc.deallocate(black_box(p));
        });
    }
}

fn bench_churn() {
    const BATCH: usize = 100;
    for (mode, label) in MODES {
        let alloc = build(mode);
        let mut ptrs = Vec::with_capacity(BATCH);
        let name = format!("trace_batch_churn/{label}");
        report(&name, 2 * BATCH as u64, || unsafe {
            for _ in 0..BATCH {
                ptrs.push(alloc.allocate(black_box(64)).unwrap());
            }
            for p in ptrs.drain(..) {
                alloc.deallocate(p);
            }
        });
    }
}

fn main() {
    report_virtual_overhead();
    println!("# wall time of the hooks themselves");
    bench_pair();
    bench_churn();
}
