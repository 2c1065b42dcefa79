//! The ledger of the repo benchmark's own traces: replay one workload's
//! `P = 8` (or `P = 1`) trace, as `benchmark/` generates it for a seed,
//! on `hoard` and `hoard_mag`, and print every processor's
//! clock split into the columns of `hoard_sim::Ledger` (tab-separated,
//! virtual units), then the remote line writes by cause and touch length.
//!
//! ```text
//! cargo run --release --offline --example bench_ledger -- prodcons-drift 2000
//! cargo run --release --offline --example bench_ledger -- server-bleed 2000 hoard --p1
//! ```
//!
//! Arguments: the workload, the seed, optionally one configuration, and
//! `--p1` for the one-stream variant. The makespans printed are the
//! benchmark's `vtime_*` cells.

#[path = "../benchmark/src/workloads.rs"]
#[allow(dead_code, clippy::all)]
mod workloads;
#[path = "../benchmark/src/flat.rs"]
#[allow(dead_code, clippy::all)]
mod flat;

use hoard_core::{HoardAllocator, HoardConfig};
use hoard_sim::{Column, Cost, CostModel, WriteCause};
use hoard_workloads::trace::replay;
use std::process::ExitCode;

/// The benchmark's configurations, by its names. (Its `hoard_lf`
/// column now builds the `hoard_mag` configuration and prints the same
/// cells.)
fn configs() -> [(&'static str, HoardConfig); 2] {
    [
        ("hoard", HoardConfig::new()),
        ("hoard_mag", HoardConfig::with_default_magazines()),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let (Some(workload), Some(seed)) = (
        positional.first().and_then(|w| workloads::Workload::parse(w)),
        positional.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!(
            "usage: bench_ledger WORKLOAD SEED [hoard|hoard_mag] [--p1]\n\
             workloads: churn-local server-bleed prodcons-drift phase-large"
        );
        return ExitCode::from(2);
    };
    let only = positional.get(2).map(|s| s.as_str());
    if only.is_some_and(|c| configs().iter().all(|(name, _)| *name != c)) {
        eprintln!("unknown configuration {:?}", only.unwrap_or_default());
        return ExitCode::from(2);
    }
    let generated = workload.generate(seed);
    let (p, trace) = if args.iter().any(|a| a == "--p1") {
        (1, workloads::single_stream(&generated.p8, &generated.order))
    } else {
        (workloads::PROCS, generated.p8)
    };
    let remote = CostModel::current().get(Cost::CacheRemote);
    for (name, config) in configs() {
        if only.is_some_and(|c| c != name) {
            continue;
        }
        let h = HoardAllocator::with_config(config).expect("stock config is valid");
        let r = replay(&h, &trace);
        let ledger = r.report.ledger();
        println!("{} seed {seed}, P = {p}, {name}: makespan {}", workload.name(), r.makespan);
        print!("{}", ledger.render(r.report.per_processor()));
        let w = r.report.remote_writes();
        print!("remote line writes (<=4K / >4K):");
        for (cause, label, total) in [
            (WriteCause::CoResident, "co_resident", w.co_resident),
            (WriteCause::OtherWriter, "other_writer", w.other_writer),
            (WriteCause::NoEntry, "no_entry", w.no_entry),
        ] {
            let lines = |large| ledger.column_total(Column::RemoteWrite { cause, large }) / remote;
            print!(" {label} {total} = {} / {}", lines(false), lines(true));
        }
        println!("\n");
    }
    ExitCode::SUCCESS
}
