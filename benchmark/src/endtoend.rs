//! The end-to-end run: no instrument attached.

use crate::common::{
    checked_replay, median, quartiles, run_flat, Attempts, Checks, Config, HostSpeed, Inputs,
    CONFIGS, MAG,
};
use crate::workloads::Workload;
use crate::Outcome;
use std::time::{Duration, Instant};

/// Fewest set-ups per run; `setup_s` is their median. A set-up is short
/// and full of page faults, so the small workloads repeat it for
/// `SETUP_BUDGET`.
const MIN_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(4);
/// Fewest timed replays behind `replay_mrec_per_s`.
const MIN_REPLAYS: usize = 7;
/// Fewest wall-clock repetitions per configuration.
const MIN_WALL_REPS: usize = 15;
/// Share of `--seconds` spent on timed replays; the rest goes to the
/// wall-clock loop.
const REPLAY_SHARE: f64 = 0.35;

/// Repeated host-time samples of one metric, each with the host's
/// slowness while it was taken.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    slowness: Vec<f64>,
}

impl Samples {
    fn push(&mut self, raw: f64, slowness: f64) {
        self.raw.push(raw);
        self.slowness.push(slowness);
    }

    /// Record the median of the samples at reference host speed; the
    /// quartiles, n, raw median and host slowness go to a note. A time
    /// is divided by the slowness, a rate multiplied.
    fn report(&self, out: &mut Outcome, name: &str, is_rate: bool) {
        let at_reference: Vec<f64> = self
            .raw
            .iter()
            .zip(&self.slowness)
            .map(|(&v, &s)| if is_rate { v * s } else { v / s })
            .collect();
        let (q1, q2, q3) = quartiles(&at_reference);
        out.metric(name, q2);
        out.note(format!(
            "{name}: n={} q1={q1:.4} q3={q3:.4}; as timed {:.4}, host slowness {:.3}",
            self.raw.len(),
            median(&self.raw),
            median(&self.slowness)
        ));
    }
}

/// Generation, flattening, construction of the three allocators and one
/// warm-up pass of the flat trace.
fn set_up(workload: Workload, seed: u64, attempts: &mut Attempts, checks: &mut Checks) -> Inputs {
    let inputs = Inputs::derive(workload.generate(seed));
    let allocators = CONFIGS.map(Config::fresh);
    run_flat(&*allocators[MAG], &inputs.flat, 1, false, attempts, checks);
    inputs
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let mut attempts = Attempts::default();
    let mut out = Outcome::default();
    let host = HostSpeed::new();

    let mut setups = Samples::default();
    let mut inputs = None;
    let phase = Instant::now();
    while setups.raw.len() < MIN_SETUPS || phase.elapsed() < SETUP_BUDGET {
        let ((made, dt), slowness) = host.around(|| {
            let t = Instant::now();
            let made = set_up(workload, seed, &mut attempts, &mut checks);
            (made, t.elapsed())
        });
        setups.push(dt.as_secs_f64(), slowness);
        inputs = Some(made);
    }
    setups.report(&mut out, "setup_s", false);
    let inputs = inputs.expect("MIN_SETUPS > 0");
    let allocs = inputs.totals.allocs;
    out.note(format!(
        "trace: {} records, {} allocations, {} bytes, {} above the large threshold",
        inputs.p8.len(),
        allocs,
        inputs.totals.bytes,
        inputs.totals.large
    ));

    // Untimed pass that fills every block and checks it before its free.
    for c in CONFIGS {
        run_flat(
            &*c.fresh(),
            &inputs.flat,
            1,
            true,
            &mut attempts,
            &mut checks,
        );
    }

    // Virtual time and fragmentation: one replay each, exact.
    let p8_results = CONFIGS.map(|c| {
        let r8 = checked_replay(
            &*c.fresh(),
            &inputs.p8,
            &format!("{} P=8", c.name()),
            allocs,
            &mut attempts,
            &mut checks,
        );
        let r1 = checked_replay(
            &*c.fresh(),
            &inputs.p1,
            &format!("{} P=1", c.name()),
            allocs,
            &mut attempts,
            &mut checks,
        );
        checks.require(r1.max_live_requested == inputs.p1_peak, || {
            format!(
                "{} P=1: replay peaked at {} live bytes, the trace at {}",
                c.name(),
                r1.max_live_requested,
                inputs.p1_peak
            )
        });
        out.metric(&format!("vtime_p8.{}", c.name()), r8.makespan as f64);
        out.metric(&format!("vtime_p1.{}", c.name()), r1.makespan as f64);
        out.metric(
            &format!("frag_p8.{}", c.name()),
            r8.fragmentation().unwrap_or(f64::NAN),
        );
        out.note(format!(
            "frag_p8.{}: held_peak={} max_live_requested={}",
            c.name(),
            r8.snapshot.held_peak,
            r8.max_live_requested
        ));
        r8
    });
    let mag_p8 = &p8_results[MAG];

    // Replay speed; every timed replay must also reproduce the first.
    let budget = Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let phase = Instant::now();
    let mut rates = Samples::default();
    while rates.raw.len() < MIN_REPLAYS || phase.elapsed() < budget {
        let alloc = Config::HoardMag.fresh();
        let ((r, dt), slowness) = host.around(|| {
            let t = Instant::now();
            let r = checked_replay(
                &*alloc,
                &inputs.p8,
                "hoard_mag P=8 again",
                allocs,
                &mut attempts,
                &mut checks,
            );
            (r, t.elapsed())
        });
        rates.push(inputs.p8.len() as f64 / dt.as_secs_f64() / 1e6, slowness);
        checks.require(
            r.makespan == mag_p8.makespan && r.snapshot.held_peak == mag_p8.snapshot.held_peak,
            || {
                format!(
                    "replay not deterministic: makespan {} then {}, held_peak {} then {}",
                    mag_p8.makespan, r.makespan, mag_p8.snapshot.held_peak, r.snapshot.held_peak
                )
            },
        );
    }
    rates.report(&mut out, "replay_mrec_per_s", true);

    // Wall clock: the three configurations take turns.
    let budget = Duration::from_secs_f64(seconds * (1.0 - REPLAY_SHARE));
    let phase = Instant::now();
    let loops = workload.wall_loops();
    let calls = (inputs.flat.len() * loops) as f64;
    let mut ns_per_op: [Samples; 3] = Default::default();
    while ns_per_op[0].raw.len() < MIN_WALL_REPS || phase.elapsed() < budget {
        for (i, c) in CONFIGS.into_iter().enumerate() {
            let alloc = c.fresh();
            hoard_sim::reset_cache();
            let (dt, slowness) = host.around(|| {
                run_flat(
                    &*alloc,
                    &inputs.flat,
                    loops,
                    false,
                    &mut attempts,
                    &mut checks,
                )
            });
            ns_per_op[i].push(dt.as_nanos() as f64 / calls, slowness);
        }
    }
    for (samples, c) in ns_per_op.iter().zip(CONFIGS) {
        samples.report(&mut out, &format!("wall_ns_per_op.{}", c.name()), false);
    }
    out.note(format!("wall_ns_per_op: {calls} calls per repetition"));

    out.finish(attempts, checks)
}
