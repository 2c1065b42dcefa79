//! `hoardscope` — analyze allocator telemetry traces.
//!
//! ```text
//! hoardscope --demo [--threads N] [--quick] [--lockfree]
//! hoardscope --demo --trace out.json          # also save the native trace
//! hoardscope --demo --chrome out.trace.json   # also save Chrome/Perfetto JSON
//! hoardscope --gate BUDGET [--threads N] [--quick]
//! hoardscope FILE                             # report on a saved native trace
//!
//! hoardscope trc record WORKLOAD OUT.trc [--threads N] [--quick] [--lockfree]
//! hoardscope trc replay FILE.trc [--lockfree] [--twice]
//! hoardscope trc gen OUT.trc [--sessions N] [--workers N] [--seed S]
//! hoardscope trc report FILE.trc [--lockfree] [--json OUT]
//!
//! hoardscope profile [TARGET] [--top K] [--timeline] [--gate]
//!            [--budget FILE] [--inject-leak] [--overhead]
//!            [--threads N] [--quick] [--lockfree]
//!            [--json OUT] [--collapsed OUT]
//! ```
//!
//! `--demo` runs traced larson and prints the full report; `--lockfree`
//! switches the allocator to the lock-free back-end.
//!
//! `--gate` is the CI contention gate: it runs larson on both back-ends,
//! prints each lock ranking and the superblock-registry gauges, and
//! exits nonzero if the lock-free run's heap-lock acquisitions exceed
//! `BUDGET` (the checked-in budget lives in `ci/contention_budget.txt`)
//! or either run's superblock registry latched degraded mode.
//!
//! The `trc` subcommands drive the binary `.trc` allocation-trace
//! pipeline: `record` captures a named workload (threadtest|larson)
//! and prints the capture's virtual-time overhead, `replay` re-executes
//! a capture against a fresh allocator and prints the determinism
//! digest (`--twice` replays twice and fails on any divergence), `gen`
//! synthesizes server-shaped traffic, and `report` scores a replay as
//! JSON (including a `heap_profile` section from a second, profiled
//! replay). The `trc` prefix is optional — `hoardscope record …` works
//! too.
//!
//! `profile` is the live-heap profiler front-end. `TARGET` is either a
//! `.trc` capture (profiled via deterministic replay) or a catalog
//! workload name (threadtest|prod-cons|server-traffic); with no target
//! the whole catalog runs. It prints allocation-site Pareto tables and
//! the leak report, `--timeline` adds the A/U fragmentation timeline,
//! `--overhead` also runs an unprofiled baseline and reports the
//! virtual-time overhead, `--json`/`--collapsed` export the full
//! `hoard-heap-profile-v1` document and collapsed-stack site profile.
//! `--gate` is the CI memory gate: each run is scored against
//! `ci/memory_budget.txt` (or `--budget FILE`) and any violation —
//! leaked bytes, fragmentation ceiling, held-peak ceiling — exits
//! nonzero. `--inject-leak` deliberately leaks blocks so CI can prove
//! the gate fails loudly.
//!
//! The Chrome export loads in `chrome://tracing` or
//! <https://ui.perfetto.dev> — one track per virtual processor, lock
//! holds as duration slices, everything else as instants.

use hoard_core::{
    chrome_trace_json, jsonio, HoardConfig, ProfileConfig, TraceLog, TrcTrace,
};
use hoard_harness::{
    heap_lock_acquisitions, heap_profile_section, lock_table, profile_trc, profile_workload,
    record_workload, render_profile, replay_trc, report_for, scope_report,
    traced_larson_with, BudgetFile, ProfiledRun, PROFILE_CATALOG,
};
use hoard_workloads::server_traffic;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trc") {
        args.remove(0);
    }
    match args.first().map(String::as_str) {
        Some("record") => trc_record(&args[1..]),
        Some("replay") => trc_replay(&args[1..]),
        Some("gen") => trc_gen(&args[1..]),
        Some("report") => trc_report(&args[1..]),
        Some("profile") => profile_cmd(&args[1..]),
        _ if args.iter().any(|a| a == "--gate") => gate(&args),
        _ if args.iter().any(|a| a == "--demo") => demo(&args),
        Some(path) if !path.starts_with("--") => from_file(path),
        _ => {
            eprintln!(
                "usage: hoardscope --demo [--threads N] [--quick] [--lockfree] \
                 [--trace FILE] [--chrome FILE]\n       \
                 hoardscope --gate BUDGET [--threads N] [--quick]\n       \
                 hoardscope FILE\n       \
                 hoardscope [trc] record WORKLOAD OUT.trc [--threads N] [--quick] [--lockfree]\n       \
                 hoardscope [trc] replay FILE.trc [--lockfree] [--twice]\n       \
                 hoardscope [trc] gen OUT.trc [--sessions N] [--workers N] [--seed S]\n       \
                 hoardscope [trc] report FILE.trc [--lockfree] [--json OUT]\n       \
                 hoardscope profile [TARGET] [--top K] [--timeline] [--gate] [--budget FILE] \
                 [--inject-leak] [--overhead] [--json OUT] [--collapsed OUT]"
            );
            std::process::exit(2);
        }
    }
}

fn hoard_config(args: &[String]) -> HoardConfig {
    if args.iter().any(|a| a == "--lockfree") {
        HoardConfig::with_lockfree()
    } else {
        HoardConfig::with_default_magazines()
    }
}

/// Value-taking flags of the `trc` subcommands (under `profile`,
/// `--gate` is a boolean and `--top`/`--budget`/`--collapsed` take
/// values — see [`PROFILE_VALUE_FLAGS`]).
const TRC_VALUE_FLAGS: [&str; 6] = [
    "--threads", "--seed", "--sessions", "--workers", "--json", "--gate",
];

/// Value-taking flags of the `profile` subcommand.
const PROFILE_VALUE_FLAGS: [&str; 5] = [
    "--threads", "--top", "--budget", "--json", "--collapsed",
];

/// Positional (non-flag) arguments, skipping the values of value-taking
/// flags.
fn positionals<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if a.starts_with("--") {
            skip = value_flags.contains(&a.as_str());
        } else {
            out.push(a);
        }
    }
    out
}

fn load_trc(path: &str) -> TrcTrace {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    TrcTrace::decode(&bytes).unwrap_or_else(|e| {
        eprintln!("{path} is not a valid .trc capture: {e}");
        std::process::exit(2);
    })
}

fn trc_record(args: &[String]) {
    let pos = positionals(args, &TRC_VALUE_FLAGS);
    let [workload, out] = pos[..] else {
        eprintln!("usage: hoardscope trc record WORKLOAD OUT.trc (threadtest|larson)");
        std::process::exit(2);
    };
    if !matches!(workload.as_str(), "threadtest" | "larson") {
        eprintln!("recordable workloads are threadtest|larson, got {workload:?}");
        std::process::exit(2);
    }
    let threads = threads_arg(args, 4);
    let quick = args.iter().any(|a| a == "--quick");
    let rec = record_workload(workload, hoard_config(args), threads, quick);
    std::fs::write(out, rec.trc.encode()).expect("write .trc");
    eprintln!(
        "recorded {workload} P={threads}: {} records ({} allocs, {} frees, {} spilled) -> {out}",
        rec.trc.len(),
        rec.stats.allocs,
        rec.stats.frees,
        rec.stats.spilled,
    );
    println!(
        "makespan plain={} recorded={} overhead={:.2}%",
        rec.plain_makespan,
        rec.recorded_makespan,
        rec.overhead_pct()
    );
}

fn trc_replay(args: &[String]) {
    let pos = positionals(args, &TRC_VALUE_FLAGS);
    let [path] = pos[..] else {
        eprintln!("usage: hoardscope trc replay FILE.trc [--lockfree] [--twice]");
        std::process::exit(2);
    };
    let trc = load_trc(path);
    let out = replay_trc(&trc, hoard_config(args)).unwrap_or_else(|e| {
        eprintln!("cannot replay {path}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "replayed {path}: {} streams, {} records, makespan {}, {} allocs, live_peak {}",
        trc.streams.len(),
        trc.len(),
        out.result.makespan,
        out.result.snapshot.allocs,
        out.result.snapshot.live_peak,
    );
    if args.iter().any(|a| a == "--twice") {
        let again = replay_trc(&trc, hoard_config(args)).expect("second replay");
        if again.digest != out.digest {
            eprintln!(
                "replay NONDETERMINISTIC: digest {:016x} != {:016x}",
                out.digest, again.digest
            );
            std::process::exit(1);
        }
        eprintln!("second replay agreed");
    }
    println!("digest {:016x}", out.digest);
}

fn trc_gen(args: &[String]) {
    let pos = positionals(args, &TRC_VALUE_FLAGS);
    let [out] = pos[..] else {
        eprintln!("usage: hoardscope trc gen OUT.trc [--sessions N] [--workers N] [--seed S]");
        std::process::exit(2);
    };
    let mut params = server_traffic::Params::default();
    if let Some(v) = flag_value(args, "--sessions") {
        params.sessions = v.parse().expect("--sessions takes a number");
    }
    if let Some(v) = flag_value(args, "--workers") {
        params.workers = v.parse().expect("--workers takes a number");
    }
    if let Some(v) = flag_value(args, "--seed") {
        params.seed = v.parse().expect("--seed takes a number");
    }
    let (trc, summary) = server_traffic::generate(&params);
    let bytes = trc.encode();
    std::fs::write(out, &bytes).expect("write .trc");
    println!(
        "generated {} sessions ({} records, {} bytes) -> {out}: {} storms, \
         {} evictions ({} sessions), {} migrated, peak_live {} B",
        summary.sessions,
        trc.len(),
        bytes.len(),
        summary.storms,
        summary.evictions,
        summary.evicted_sessions,
        summary.migrated,
        summary.peak_live,
    );
}

fn trc_report(args: &[String]) {
    let pos = positionals(args, &TRC_VALUE_FLAGS);
    let [path] = pos[..] else {
        eprintln!("usage: hoardscope trc report FILE.trc [--lockfree] [--json OUT]");
        std::process::exit(2);
    };
    let trc = load_trc(path);
    let config = hoard_config(args);
    let out = replay_trc(&trc, config).unwrap_or_else(|e| {
        eprintln!("cannot replay {path}: {e}");
        std::process::exit(2);
    });
    // A second, profiled replay supplies the report's heap_profile
    // section (the plain replay above keeps the determinism digest
    // untouched by profiling charges).
    let profiled = profile_trc(&trc, config, ProfileConfig::default(), false, 0)
        .expect("trace replayed once already");
    let json = report_for(
        &trc,
        &out,
        &config,
        Some(heap_profile_section(&profiled, 10)),
    );
    if let Some(dest) = flag_value(args, "--json") {
        std::fs::write(dest, &json).expect("write report");
        eprintln!("wrote report to {dest}");
    }
    println!("{json}");
}

fn profile_cmd(args: &[String]) {
    let pos = positionals(args, &PROFILE_VALUE_FLAGS);
    let top_k: usize = flag_value(args, "--top")
        .map(|v| v.parse().expect("--top takes a number"))
        .unwrap_or(10);
    let with_timeline = args.iter().any(|a| a == "--timeline");
    let gate = args.iter().any(|a| a == "--gate");
    let overhead = args.iter().any(|a| a == "--overhead");
    // 64 KiB of deliberate leakage: enough to trip any sane budget,
    // small enough not to distort the run (CI's negative test).
    let inject = if args.iter().any(|a| a == "--inject-leak") {
        65_536
    } else {
        0
    };
    let threads = threads_arg(args, 4);
    let quick = args.iter().any(|a| a == "--quick");
    let config = hoard_config(args);
    let pconfig = ProfileConfig::default();

    let runs: Vec<ProfiledRun> = match pos[..] {
        [] => PROFILE_CATALOG
            .iter()
            .map(|n| profile_workload(n, config, threads, quick, pconfig, overhead, inject))
            .collect(),
        [target] if target.ends_with(".trc") => {
            let trc = load_trc(target);
            let mut run = profile_trc(&trc, config, pconfig, overhead, inject)
                .unwrap_or_else(|e| {
                    eprintln!("cannot profile {target}: {e}");
                    std::process::exit(2);
                });
            run.name = target.clone();
            vec![run]
        }
        [target] if PROFILE_CATALOG.contains(&target.as_str()) || target == "larson" => {
            vec![profile_workload(
                target, config, threads, quick, pconfig, overhead, inject,
            )]
        }
        _ => {
            eprintln!(
                "usage: hoardscope profile [FILE.trc | {}|larson] [--top K] [--timeline] \
                 [--gate] [--budget FILE] [--inject-leak] [--overhead]",
                PROFILE_CATALOG.join("|")
            );
            std::process::exit(2);
        }
    };

    for run in &runs {
        println!("{}", render_profile(run, top_k, with_timeline));
    }

    if let Some(dest) = flag_value(args, "--json") {
        let doc = jsonio::obj(
            runs.iter()
                .map(|r| (r.name.as_str(), r.profile.to_json_value()))
                .collect(),
        );
        std::fs::write(dest, doc.to_json()).expect("write profile JSON");
        eprintln!("wrote heap profile JSON to {dest}");
    }
    if let Some(dest) = flag_value(args, "--collapsed") {
        let text: String = runs.iter().map(|r| r.profile.collapsed_stack(true)).collect();
        std::fs::write(dest, text).expect("write collapsed stacks");
        eprintln!("wrote collapsed-stack site profile to {dest}");
    }

    if gate {
        let budget_path = flag_value(args, "--budget")
            .map(String::as_str)
            .unwrap_or("ci/memory_budget.txt");
        let text = std::fs::read_to_string(budget_path).unwrap_or_else(|e| {
            eprintln!("cannot read budget {budget_path}: {e}");
            std::process::exit(2);
        });
        let budgets = BudgetFile::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad budget file {budget_path}: {e}");
            std::process::exit(2);
        });
        let mut failed = false;
        for run in &runs {
            for v in budgets.for_workload(&run.name).violations(run) {
                eprintln!("memory gate FAILED ({}): {v}", run.name);
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "memory gate passed: {} run(s) within {budget_path}",
            runs.len()
        );
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1))
}

fn threads_arg(args: &[String], default: usize) -> usize {
    flag_value(args, "--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(default)
}

fn demo(args: &[String]) {
    let threads = threads_arg(args, 4);
    let quick = args.iter().any(|a| a == "--quick");
    let config = if args.iter().any(|a| a == "--lockfree") {
        HoardConfig::with_lockfree()
    } else {
        HoardConfig::with_default_magazines()
    };
    let run = traced_larson_with(config, threads, quick);
    eprintln!(
        "traced larson: {} threads, makespan {}, {} events",
        threads,
        run.makespan,
        run.log.total_events()
    );
    if let Some(path) = flag_value(args, "--trace") {
        std::fs::write(path, run.log.to_json()).expect("write trace");
        eprintln!("wrote native trace to {path}");
    }
    if let Some(path) = flag_value(args, "--chrome") {
        std::fs::write(path, chrome_trace_json(&run.log)).expect("write chrome trace");
        eprintln!("wrote Chrome/Perfetto trace to {path} (open in ui.perfetto.dev)");
    }
    println!("{}", scope_report(&run.log, Some(&run.metrics)));
}

fn gate(args: &[String]) {
    let budget: u64 = flag_value(args, "--gate")
        .map(|v| v.parse().expect("--gate takes a heap-lock acquisition budget"))
        .expect("--gate requires a budget argument");
    let threads = threads_arg(args, 14);
    let quick = args.iter().any(|a| a == "--quick");

    let locked = traced_larson_with(HoardConfig::with_default_magazines(), threads, quick);
    let lockfree = traced_larson_with(HoardConfig::with_lockfree(), threads, quick);
    let locked_acqs = heap_lock_acquisitions(&locked.log);
    let lockfree_acqs = heap_lock_acquisitions(&lockfree.log);

    println!("== locked back-end (larson, {threads} threads) ==");
    println!("{}", lock_table(&locked.log).render());
    println!("== lock-free back-end (larson, {threads} threads) ==");
    println!("{}", lock_table(&lockfree.log).render());
    println!(
        "heap-lock acquisitions: locked={locked_acqs} lockfree={lockfree_acqs} \
         budget={budget} makespans: locked={} lockfree={}",
        locked.makespan, lockfree.makespan
    );
    // The superblock registry must stay healthy: a latched overflow
    // silently downgrades the masked-metadata checks to header walks,
    // so a degraded run fails the gate even under its lock budget.
    let mut degraded = false;
    for (label, run) in [("locked", &locked), ("lockfree", &lockfree)] {
        let reg = &run.metrics.registry;
        println!(
            "sb registry ({label}): occupancy {}/{} ({:.1}%), degraded: {}",
            reg.occupancy,
            reg.capacity,
            100.0 * reg.occupancy_ratio(),
            if reg.overflowed { "YES" } else { "no" }
        );
        degraded |= reg.overflowed;
    }
    if degraded {
        eprintln!(
            "contention gate FAILED: superblock registry latched degraded mode \
             (mask checks falling back to header walks)"
        );
        std::process::exit(1);
    }
    if lockfree_acqs > budget {
        eprintln!(
            "contention gate FAILED: lock-free back-end took {lockfree_acqs} \
             heap-lock acquisitions, budget is {budget}"
        );
        std::process::exit(1);
    }
    eprintln!("contention gate passed: {lockfree_acqs} <= {budget}");
}

fn from_file(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let log = TraceLog::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{path} is not a native trace (TraceLog JSON): {e}");
        std::process::exit(2);
    });
    println!("{}", scope_report(&log, None));
}
