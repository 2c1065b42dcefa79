//! End-to-end export check (the PR's acceptance scenario): a fixed-seed
//! larson run on 4 virtual processors with magazines, tracer, and
//! metrics attached must produce a valid Chrome `trace_event` JSON with
//! one track per processor covering allocation, magazine, transfer and
//! lock activity — and `hoardscope` must summarize it.

use hoard_core::{
    chrome_trace_json, jsonio::JsonValue, EventKind, HoardConfig, ProfileConfig, CHROME_PID,
    HEAP_PROFILE_SCHEMA,
};
use hoard_harness::{
    heap_profile_section, profile_trc, replay_trc, report_for, scope_report, traced_larson,
    TRC_REPORT_SCHEMA,
};
use hoard_workloads::server_traffic;

#[test]
fn traced_larson_exports_valid_chrome_trace_and_hoardscope_reports_it() {
    let run = traced_larson(4, true);
    let log = &run.log;
    assert_eq!(log.dropped, 0, "sink must be sized for the run");

    // Per-processor coverage: all four machine workers traced.
    let procs: Vec<usize> = log.tracks.iter().map(|t| t.proc).collect();
    for p in 0..4 {
        assert!(procs.contains(&p), "missing track for vcpu {p}: {procs:?}");
    }

    // Event-kind coverage: the categories the ISSUE names.
    for kind in [
        EventKind::AllocMagazine,
        EventKind::FreeMagazine,
        EventKind::MagazineRefill,
        EventKind::MagazineFlush,
        EventKind::RemoteFreePush,
        EventKind::RemoteFreeDrain,
        EventKind::TransferToGlobal,
        EventKind::LockAcquire,
        EventKind::LockRelease,
    ] {
        assert!(log.count(kind) > 0, "no {} events traced", kind.label());
    }

    // Chrome trace_event schema: parse with the same JSON layer the
    // exporter uses.
    let chrome = chrome_trace_json(log);
    let root = JsonValue::parse(&chrome).expect("well-formed JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > log.total_events(), "events + metadata");

    let mut last_ts: Vec<(u64, u64)> = Vec::new(); // (tid, last ts)
    let mut metadata = 0usize;
    let mut instants = 0usize;
    let mut slices = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(|v| v.as_str()).expect("ph present");
        let pid = ev.get("pid").and_then(|v| v.as_u64()).expect("pid present");
        let tid = ev.get("tid").and_then(|v| v.as_u64()).expect("tid present");
        assert_eq!(pid, CHROME_PID);
        match ph {
            "M" => {
                metadata += 1;
                continue; // metadata carries no ts
            }
            "i" => {
                assert_eq!(ev.get("s").and_then(|v| v.as_str()), Some("t"));
                instants += 1;
            }
            "X" => {
                assert!(ev.get("dur").and_then(|v| v.as_u64()).is_some());
                slices += 1;
            }
            other => panic!("unexpected phase {other:?}"),
        }
        let ts = ev.get("ts").and_then(|v| v.as_u64()).expect("ts present");
        match last_ts.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, last)) => {
                assert!(*last <= ts, "ts not monotone on tid {tid}");
                *last = ts;
            }
            None => last_ts.push((tid, ts)),
        }
    }
    assert_eq!(metadata, 1 + log.tracks.len(), "process + one per thread");
    assert_eq!(slices, log.count(EventKind::LockRelease), "one slice per hold");
    assert_eq!(instants + slices, log.total_events());
    assert!(last_ts.len() >= 4, "at least one timed track per vcpu");

    // hoardscope renders all four sections with real content.
    let report = scope_report(log, Some(&run.metrics));
    for needle in [
        "trace summary",
        "heap locks by virtual wait",
        "superblock transfers",
        "per-class front-end bypass",
        "registry digests",
        "alloc.magazine",
        "corruption reports",
    ] {
        assert!(report.contains(needle), "report missing {needle:?}:\n{report}");
    }

    // Byte-reproducibility is only promised for single-processor runs
    // (the core golden-trace test): with P=4, OS scheduling reorders
    // contended acquisitions. The *workload-determined* aggregates must
    // still reproduce exactly on a fixed seed — but not the slow-path /
    // magazine split of those totals: whether an op hits the magazine
    // depends on refill/flush/remote-drain timing, which real-thread
    // scheduling perturbs under host load (the ROADMAP's
    // "deterministic virtual time under host load" open item). Replay
    // determinism for that is what the `.trc` pipeline's sequential
    // engine provides; here we assert the per-path *sums*.
    let again = traced_larson(4, true);
    assert_eq!(run.metrics.total_allocs(), again.metrics.total_allocs());
    assert_eq!(run.metrics.total_frees(), again.metrics.total_frees());
    for (a, b, label) in [
        (EventKind::Alloc, EventKind::AllocMagazine, "alloc"),
        (EventKind::Free, EventKind::FreeMagazine, "free"),
    ] {
        assert_eq!(
            log.count(a) + log.count(b),
            again.log.count(a) + again.log.count(b),
            "fixed-seed {label} count must reproduce"
        );
    }
}

/// The `hoardscope trc report` schema with the heap-profile section:
/// every field CI's validator reads must be present with the right
/// shape, and the section must agree with the profiled replay it came
/// from.
#[test]
fn trc_report_carries_the_heap_profile_section() {
    let (trc, _) = server_traffic::generate(&server_traffic::Params {
        workers: 2,
        sessions: 800,
        seed: 11,
        ..Default::default()
    });
    let config = HoardConfig::with_default_magazines();
    let out = replay_trc(&trc, config).expect("replays");
    let profiled = profile_trc(&trc, config, ProfileConfig::default(), false, 0).expect("profiles");
    let json = report_for(
        &trc,
        &out,
        &config,
        Some(heap_profile_section(&profiled, 5)),
    );

    let doc = JsonValue::parse(&json).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some(TRC_REPORT_SCHEMA)
    );
    let hp = doc.get("heap_profile").expect("heap_profile section");
    assert_eq!(
        hp.get("schema").and_then(JsonValue::as_str),
        Some(HEAP_PROFILE_SCHEMA)
    );
    assert_eq!(
        hp.get("total_allocs").and_then(JsonValue::as_u64),
        Some(profiled.profile.total_allocs)
    );
    assert_eq!(hp.get("unmatched_frees").and_then(JsonValue::as_u64), Some(0));

    let timeline = hp.get("timeline").expect("timeline summary");
    for field in ["points", "interval", "held_peak_bytes", "live_peak_bytes"] {
        assert!(
            timeline.get(field).and_then(JsonValue::as_u64).is_some(),
            "timeline.{field} missing or not a number"
        );
    }
    assert!(
        timeline.get("peak_fragmentation").is_some(),
        "peak_fragmentation present (number or null)"
    );

    let sites = hp
        .get("top_sites")
        .and_then(JsonValue::as_array)
        .expect("top_sites array");
    assert!(!sites.is_empty() && sites.len() <= 5);
    for s in sites {
        assert!(s.get("site").and_then(JsonValue::as_u64).is_some());
        assert!(s.get("name").and_then(JsonValue::as_str).is_some());
        for field in ["live_bytes", "total_bytes", "total_allocs"] {
            assert!(s.get(field).and_then(JsonValue::as_u64).is_some());
        }
    }

    let leaks = hp.get("leaks").expect("leaks summary");
    assert_eq!(leaks.get("bytes").and_then(JsonValue::as_u64), Some(0));
    assert_eq!(leaks.get("sites").and_then(JsonValue::as_u64), Some(0));

    let map = hp.get("heap_map").expect("heap_map gauges");
    assert_eq!(map.get("live_bytes").and_then(JsonValue::as_u64), Some(0));
    assert!(map.get("held_bytes").and_then(JsonValue::as_u64).is_some());
    assert!(map
        .get("empty_superblocks")
        .and_then(JsonValue::as_u64)
        .is_some());

    // Without a profiled replay the section is simply absent — the v1
    // report shape is unchanged.
    let plain = report_for(&trc, &out, &config, None);
    let plain_doc = JsonValue::parse(&plain).expect("valid JSON");
    assert!(plain_doc.get("heap_profile").is_none());
}
