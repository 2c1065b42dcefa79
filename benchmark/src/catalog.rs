//! Every metric's name, unit, direction and bound, in one place.
//! `BENCHMARK.json` is this module printed (`--print-benchmark-json`);
//! a test keeps the committed file equal to it.

use crate::common::CONFIGS;
use crate::workloads::ALL;

/// Seconds one run measures for when `--seconds` is absent.
pub const RUN_SECONDS: u32 = 20;

const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

fn metric(name: String, unit: &'static str, better: &'static str, bound: Option<f64>) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

// Virtual time and fragmentation repeat exactly for one seed, so their
// bounds only have to cover how far another seed moves them: three times
// the widest spread seen over ten seeds, which `server-bleed` sets.
const VTIME_P8_BOUND: f64 = 0.15;
const VTIME_P1_BOUND: f64 = 0.10;
const FRAG_BOUND: f64 = 0.20;
// Host time, read at reference host speed (`common::HostSpeed`). Over
// ten seeds the spread was 2-6 % in the host's quiet periods; its busy
// ones the probe can only partly undo.
const HOST_BOUND: f64 = 0.20;
// Replays lean on memory latency, which the probe's cache-resident loop
// does not see: 9-11 % over ten seeds on `prodcons-drift`, `phase-large`.
const REPLAY_BOUND: f64 = 0.25;
const SETUP_BOUND: f64 = 0.25;

pub fn end_to_end() -> Vec<Metric> {
    let mut m = vec![metric("setup_s".into(), "s", "lower", Some(SETUP_BOUND))];
    for (stem, unit, bound) in [
        ("vtime_p8", "vunits", VTIME_P8_BOUND),
        ("vtime_p1", "vunits", VTIME_P1_BOUND),
        ("frag_p8", "ratio", FRAG_BOUND),
        ("wall_ns_per_op", "ns", HOST_BOUND),
    ] {
        for c in CONFIGS {
            m.push(metric(
                format!("{stem}.{}", c.name()),
                unit,
                "lower",
                Some(bound),
            ));
        }
    }
    m.push(metric(
        "replay_mrec_per_s".into(),
        "Mrec/s",
        "higher",
        Some(REPLAY_BOUND),
    ));
    m
}

pub fn per_layer() -> Vec<Metric> {
    let mut m = Vec::new();
    let per_config =
        |m: &mut Vec<Metric>, stem: &str, fields: &[(&str, &'static str, &'static str)]| {
            for &(field, unit, better) in fields {
                for c in CONFIGS {
                    m.push(metric(
                        format!("{stem}.{field}.{}", c.name()),
                        unit,
                        better,
                        None,
                    ));
                }
            }
        };
    per_config(
        &mut m,
        "core.magazine",
        &[
            ("alloc_hits", "count", "higher"),
            ("free_hits", "count", "higher"),
            ("refills", "count", "lower"),
            ("flushes", "count", "lower"),
            ("hit_ratio", "ratio", "higher"),
        ],
    );
    per_config(
        &mut m,
        "core.heap",
        &[
            ("lock_acquires", "count", "lower"),
            ("lock_contended", "count", "lower"),
            ("lock_wait_vunits", "vunits", "lower"),
            ("lock_hold_vunits", "vunits", "lower"),
        ],
    );
    per_config(
        &mut m,
        "core.global",
        &[
            ("lock_acquires", "count", "lower"),
            ("lock_wait_vunits", "vunits", "lower"),
            ("transfers_out", "count", "lower"),
            ("transfers_in", "count", "lower"),
        ],
    );
    per_config(
        &mut m,
        "core.remote",
        &[
            ("remote_frees", "count", "lower"),
            ("pushes", "count", "lower"),
            ("drains", "count", "lower"),
            ("owner_retries", "count", "lower"),
        ],
    );
    m.push(metric("mem.large.allocs".into(), "count", "lower", None));
    per_config(&mut m, "mem.large", &[("probe_pair_ns", "ns", "lower")]);
    per_config(
        &mut m,
        "mem.chunk",
        &[
            ("allocs", "count", "lower"),
            ("frees", "count", "lower"),
            ("held_peak_bytes", "bytes", "lower"),
            ("host_ns_total", "ns", "lower"),
        ],
    );
    for (name, unit) in [
        ("mem.chunk.probe_ns_per_chunk", "ns"),
        ("core.heap.probe_pair_ns", "ns"),
        ("core.magazine.probe_pair_ns", "ns"),
    ] {
        m.push(metric(name.into(), unit, "lower", None));
    }
    per_config(&mut m, "core.remote", &[("probe_free_ns", "ns", "lower")]);
    for (name, unit, better) in [
        ("sim.charge_ns", "ns", "lower"),
        ("sim.vlock_ns", "ns", "lower"),
        ("sim.touch_ns_per_line", "ns", "lower"),
        ("trace.metrics.host_overhead_pct", "%", "lower"),
        ("trace.metrics.vtime_delta_units", "vunits", "lower"),
        ("trace.trc.encode_mb_per_s", "MB/s", "higher"),
        ("trace.trc.decode_mb_per_s", "MB/s", "higher"),
    ] {
        m.push(metric(name.into(), unit, better, None));
    }
    per_config(
        &mut m,
        "workloads.replay",
        &[("host_ns_per_record", "ns", "lower")],
    );
    for (name, unit) in [
        ("workloads.replay.host_ns_per_record.serial", "ns"),
        ("baselines.vtime_p8.serial", "vunits"),
        ("baselines.vtime_p1.serial", "vunits"),
        ("baselines.vtime_p8.ownership", "vunits"),
        ("baselines.frag_p8.ownership", "ratio"),
        ("baselines.wall_ns_per_op.serial", "ns"),
    ] {
        m.push(metric(name.into(), unit, "lower", None));
    }
    m
}

/// A measured number with all its digits, as JSON accepts it.
pub fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let metrics = |list: Vec<Metric>| {
        list.iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name, m.unit, m.better
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        strings(&COMMAND),
        metrics(end_to_end()),
        metrics(per_layer()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn catalog_meets_the_contract_limits() {
        let (e2e, layers) = (end_to_end(), per_layer());
        assert_eq!(e2e.len(), 14);
        assert!(layers.len() <= 128);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|m| m.name.as_str()).collect();
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "names are used once");
        assert!(e2e.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(ALL.iter().all(|w| w.why().len() <= 200));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
