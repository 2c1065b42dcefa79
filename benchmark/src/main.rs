//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! `benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//! prints every metric by name with unit, direction and bound, then one
//! JSON object as the last line of standard output. `--trace 0` is the
//! end-to-end run (no instrument attached); `--trace 1` is the traced
//! run that yields the per-layer metrics and writes its spans.

mod catalog;
mod common;
mod endtoend;
mod flat;
mod traced;
mod workloads;

use common::{Attempts, Checks};
use std::process::ExitCode;
use workloads::Workload;

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values in the order measured.
    pub metrics: Vec<(String, f64)>,
    /// Sample counts, quartiles and sizes: printed, not scored.
    pub notes: Vec<String>,
    pub attempts: Attempts,
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn finish(mut self, attempts: Attempts, checks: Checks) -> Outcome {
        self.attempts = attempts;
        self.failures = checks.failures;
        self
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: String,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = catalog::RUN_SECONDS as f64;
    let mut traced = false;
    let mut out_dir = "benchmark/out".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--print-benchmark-json" {
            print!("{}", catalog::benchmark_json());
            return Ok(None);
        }
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out_dir = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
        format!("--workload is required: one of {}", names.join(", "))
    })?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        traced,
        out_dir,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "end to end" }
    );
    let outcome = if args.traced {
        traced::run(args.workload, args.seed, args.seconds, &args.out_dir)
    } else {
        endtoend::run(args.workload, args.seed, args.seconds)
    };

    let declared = if args.traced {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    let mut failures = outcome.failures.clone();
    let mut fields = Vec::new();
    println!(
        "{:<44} {:>18} {:<8} {:<7} bound",
        "metric", "value", "unit", "better"
    );
    for m in &declared {
        match outcome.value(&m.name) {
            Some(v) if v.is_finite() => {
                let bound = m
                    .bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
                println!(
                    "{:<44} {:>18} {:<8} {:<7} {bound}",
                    m.name,
                    catalog::number(v),
                    m.unit,
                    m.better
                );
                fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    catalog::number(v),
                    m.unit
                ));
            }
            _ => failures.push(format!("metric {} was not measured", m.name)),
        }
    }
    for (name, _) in &outcome.metrics {
        if !declared.iter().any(|m| &m.name == name) {
            failures.push(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        outcome.attempts.attempted.max(1),
        outcome.attempts.failed,
        fields.join(", ")
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
