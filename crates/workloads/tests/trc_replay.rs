//! Replay-determinism tests for the `.trc` pipeline: generated server
//! traffic must replay to identical virtual-time results on every run,
//! and a replay captured through the recorder must preserve the
//! trace's operation counts exactly.

use hoard_core::{HeapProfiler, HoardAllocator, HoardConfig, TrcRecorder};
use hoard_workloads::server_traffic::{self, Params};
use hoard_workloads::threadtest;
use hoard_workloads::trace::{replay, synthesize, SynthesisParams, Trace, TraceOp};
use std::sync::Arc;

fn small_traffic() -> (hoard_core::TrcTrace, server_traffic::GenSummary) {
    server_traffic::generate(&Params {
        workers: 2,
        sessions: 800,
        seed: 7,
        ..Params::default()
    })
}

#[test]
fn generation_is_deterministic() {
    let (a, sa) = small_traffic();
    let (b, sb) = small_traffic();
    assert_eq!(a.encode(), b.encode(), "same params → same bytes");
    assert_eq!(sa.sessions, sb.sessions);
    assert_eq!(sa.peak_live, sb.peak_live);
}

#[test]
fn replay_is_deterministic_across_runs() {
    let (trc, _) = small_traffic();
    let trace = Trace::from_trc(&trc).expect("generated trace converts");

    let run = || {
        let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
        replay(&h, &trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan, b.makespan, "virtual makespan must not drift");
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.max_live_requested, b.max_live_requested);
    assert_eq!(a.snapshot, b.snapshot, "allocator counters must match");
}

#[test]
fn capture_during_replay_preserves_counts() {
    let (trc, summary) = small_traffic();
    let trace = Trace::from_trc(&trc).expect("generated trace converts");

    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let rec = Arc::new(TrcRecorder::new(trc.seed, "recapture", 2));
    h.attach_recorder(rec.clone());
    let result = replay(&h, &trace);

    // Every session allocated once and the replay drains all leftovers,
    // so the recapture must see exactly the original op counts.
    let stats = rec.stats();
    assert_eq!(stats.allocs, summary.sessions);
    assert_eq!(stats.frees, stats.allocs, "replay drains everything");
    assert_eq!(stats.unmatched_frees, 0);
    assert_eq!(result.snapshot.live_current, 0);

    let recaptured = rec.trace();
    assert_eq!(recaptured.allocs(), trc.allocs());

    // The recaptured trace is itself replayable. The recorder keeps
    // per-op spans and synthesizes the inter-op gaps as Work records,
    // so timing carries over alongside the operation counts.
    let trace2 = Trace::from_trc(&recaptured).expect("recapture converts");
    let h2 = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let second = replay(&h2, &trace2);
    assert_eq!(second.snapshot.allocs, summary.sessions);
    assert_eq!(second.snapshot.frees, second.snapshot.allocs);
    assert_eq!(second.snapshot.live_current, 0);
}

#[test]
fn recorded_makespan_is_reproduced_by_replay() {
    // Timing fidelity (single worker: one lane, no scheduling noise):
    // the recorder's per-op spans plus synthesized Work gaps must make
    // the replayed virtual makespan land close to the recorded one.
    // The known bias: the replay re-executes the cache-model touch that
    // the recording folded into the inter-op gap, so replays run a few
    // percent long — the tolerance bounds that bias, and the workload
    // carries realistic per-object app compute so allocator-adjacent
    // costs don't dominate the gap.
    let params = threadtest::Params {
        total_objects: 5_000,
        batch: 50,
        size: 64,
        work_per_object: 40,
    };
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let rec = Arc::new(TrcRecorder::new(42, "tt-fidelity", 2));
    h.attach_recorder(Arc::clone(&rec));
    let recorded = threadtest::run(&h, 1, &params);

    let trace = Trace::from_trc(&rec.trace()).expect("recapture converts");
    let h2 = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let replayed = replay(&h2, &trace);

    let rel = (replayed.makespan as f64 - recorded.makespan as f64).abs()
        / recorded.makespan as f64;
    assert!(
        rel <= 0.10,
        "replayed makespan {} drifted {:.1}% from recorded {}",
        replayed.makespan,
        100.0 * rel,
        recorded.makespan
    );
    assert_eq!(replayed.snapshot.allocs, recorded.snapshot.allocs);
}

#[test]
fn profiled_replay_twice_is_deterministic() {
    // Profiling charges real virtual time (Cost::ProfileSample per op
    // and per timeline tick), so the profiled makespan differs from the
    // bare one — but it must differ *identically* on every replay, and
    // the frozen profile must be byte-identical too.
    let (trc, _) = small_traffic();
    let trace = Trace::from_trc(&trc).expect("generated trace converts");

    let run = || {
        let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
        let prof = Arc::new(HeapProfiler::new());
        h.attach_profiler(Arc::clone(&prof));
        let result = replay(&h, &trace);
        let snap = prof.snapshot(result.makespan);
        (result, snap)
    };
    let (ra, sa) = run();
    let (rb, sb) = run();
    assert_eq!(ra.makespan, rb.makespan, "profiled makespan must not drift");
    assert_eq!(ra.snapshot, rb.snapshot, "allocator counters must match");
    assert_eq!(sa, sb, "profile snapshots byte-identical across replays");
    assert!(sa.total_allocs > 0 && !sa.timeline.is_empty());

    // And the profiler saw exactly what the allocator did.
    assert_eq!(sa.total_allocs, ra.snapshot.allocs);
    assert_eq!(sa.total_frees, ra.snapshot.frees);
}

/// What a replay must reproduce exactly: makespan, per-processor
/// clocks, peak requested bytes, and the snapshot's allocs / frees /
/// remote frees.
type Pinned = (u64, &'static [u64], u64, [u64; 3]);

fn assert_pinned(what: &str, trace: &Trace, expected: [Pinned; 2]) {
    let configs = [
        ("hoard", HoardConfig::new()),
        ("hoard-mag", HoardConfig::with_default_magazines()),
    ];
    for ((name, config), (makespan, clocks, peak, counts)) in configs.into_iter().zip(expected) {
        let h = HoardAllocator::with_config(config).unwrap();
        let r = replay(&h, trace);
        let got = (
            r.makespan,
            r.report.per_processor(),
            r.max_live_requested,
            [r.snapshot.allocs, r.snapshot.frees, r.snapshot.remote_frees],
        );
        assert_eq!(
            got,
            (makespan, clocks, peak, counts),
            "{what}, {name}: replay drifted from the values recorded at PR 12"
        );
    }
}

/// The engine's scheduling order, in-flight-send blocking, inbox pickup
/// and end-of-trace cleanup order are part of every published virtual
/// time. These values were recorded with the `HashMap`-based engine and
/// cache model of PR 12; a rewrite of either must reproduce them.
///
/// They also follow the allocator's policy, and were re-recorded once
/// for it: since partials answer to their own size class (PR 23) a class
/// of these small traces (a few hundred allocations a thread over the
/// whole size table: seldom more than two superblocks a class) is
/// hardly ever over its own `K·S`, so a heap keeps its partly-filled
/// superblocks instead of handing them to the global heap, every free
/// into which counts as remote. Allocs and frees cannot move; the rest
/// read, at PR 12 (makespan, remote frees, transfers out):
///
/// | trace | `hoard` | `hoard-mag` |
/// |---|---|---|
/// | P=4, 25 % remote | 1 038 764, 675, 239 (now 184) | 1 109 268, 601, 15 (now 0) |
/// | never freed | 336 766, 353, 98 (now 84) | 317 062, 327, 7 (now 0) |
/// | P=1 | 914 864, 71, 108 (now 106) | 975 218, 15, 52 (now 60) |
///
/// Where a row got slower (`hoard-mag` at P=4 +5.2 %, P=1 +1.2–1.5 %) a
/// superblock that used to come back from the global heap is now a
/// fresh chunk. `assert_pinned` stops at the first row that differs, so
/// a change to the engine still shows against these values.
#[test]
fn replay_matches_values_pinned_at_pr12() {
    // Frees that block on in-flight sends.
    let blocking = synthesize(&SynthesisParams {
        threads: 4,
        allocs_per_thread: 600,
        remote_free_permille: 250,
        ..SynthesisParams::default()
    });
    assert_pinned(
        "P=4, 25% remote frees",
        &blocking,
        [
            (
                1_012_427,
                &[1_004_292, 1_002_509, 1_000_460, 1_012_427],
                19_672,
                [2400, 2400, 565],
            ),
            (
                1_167_108,
                &[1_165_144, 1_164_290, 1_163_932, 1_167_108],
                19_672,
                [2400, 2400, 565],
            ),
        ],
    );

    // Sent objects the trace never frees: the receiver's cleanup frees
    // them in (proc, id) order after the streams end.
    let mut orphaned = synthesize(&SynthesisParams {
        threads: 3,
        allocs_per_thread: 400,
        remote_free_permille: 300,
        seed: 0x0BAD_5EED,
        ..SynthesisParams::default()
    });
    let sent: std::collections::HashSet<u32> = orphaned
        .streams
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            TraceOp::Send { id, .. } => Some(id),
            _ => None,
        })
        .collect();
    for stream in &mut orphaned.streams {
        stream.retain(|op| !matches!(op, TraceOp::Free { id } if sent.contains(id)));
    }
    assert!(sent.len() > 50);
    assert_pinned(
        "sent objects never freed",
        &orphaned,
        [
            (
                322_574,
                &[296_894, 305_809, 322_574],
                130_016,
                [1200, 1200, 327],
            ),
            (
                305_587,
                &[305_442, 305_587, 303_272],
                121_333,
                [1200, 1200, 327],
            ),
        ],
    );

    let single = synthesize(&SynthesisParams {
        threads: 1,
        allocs_per_thread: 1_500,
        max_size: 3_000,
        ..SynthesisParams::default()
    });
    assert_pinned(
        "P=1",
        &single,
        [
            (928_544, &[928_544], 118_952, [1500, 1500, 2]),
            (987_426, &[987_426], 118_952, [1500, 1500, 3]),
        ],
    );
}
