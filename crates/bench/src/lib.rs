//! # hoard-bench — wall-clock overhead benches for the reproduction
//!
//! Two plain programs live under `benches/` (`harness = false`, timed
//! with [`std::time::Instant`]); each is the `Source:` of a
//! `results/*.txt` file:
//!
//! * `hardening_overhead` — `HardeningLevel` Off vs Basic vs Full on the
//!   small-allocation paths the levels touch.
//! * `trace_overhead` — telemetry off vs metrics-only vs full tracing,
//!   in virtual time and in wall time.
//!
//! End-to-end numbers (virtual makespans, `wall_ns_per_op.*`, the
//! per-layer probes) come from the repo benchmark under `benchmark/` and
//! from `reproduce`; this library hosts the one shared timer.

use std::time::{Duration, Instant};

/// Samples per measurement; [`median_ns`] reports their median.
const SAMPLES: usize = 20;

/// Wall time one sample should take: long enough that the clock reads
/// at its two ends are noise.
const SAMPLE_TIME: Duration = Duration::from_millis(5);

fn time_calls(calls: u64, iter: &mut impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..calls {
        iter();
    }
    start.elapsed()
}

/// Median wall-clock nanoseconds per call of `iter` over [`SAMPLES`]
/// samples. The calls per sample are doubled until one sample fills
/// [`SAMPLE_TIME`], which also warms the measured path up.
fn median_ns(mut iter: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    while time_calls(calls, &mut iter) < SAMPLE_TIME {
        calls *= 2;
    }
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| time_calls(calls, &mut iter).as_nanos() as f64 / calls as f64)
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[SAMPLES / 2 - 1] + samples[SAMPLES / 2]) / 2.0
}

/// Measure `iter` and print one `results/*.txt` row: `name`, ns per
/// call, and ns per operation when one call performs `ops` of them.
pub fn report(name: &str, ops: u64, iter: impl FnMut()) {
    let ns = median_ns(iter);
    if ops == 1 {
        println!("{name:<36}{ns:>9.1} ns/iter");
    } else {
        let per_op = ns / ops as f64;
        println!("{name:<36}{ns:>9.1} ns/iter  ({per_op:>5.1} ns/op)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_per_call_and_every_sample_runs() {
        let mut calls = 0u64;
        let ns = median_ns(|| {
            calls += 1;
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(ns.is_finite() && ns > 0.0);
        // One sample of this closure is far below a millisecond, so the
        // calibration doubled at least once and 20 samples followed.
        assert!(ns < 1e6, "per call, not per sample: {ns}");
        assert!(calls > SAMPLES as u64);
    }
}
