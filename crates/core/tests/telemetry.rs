//! The observability layer's contracts (DESIGN.md §10):
//!
//! * **off = free, on = honest**: in every configuration and with any
//!   probe attached, layout and lock counts are bit-identical to an
//!   unobserved run, and the virtual clock moves by exactly one
//!   `Cost::TraceEvent` per event and `.trc` record plus one
//!   `Cost::ProfileSample` per profiled operation and timeline tick —
//!   so metrics alone move it by nothing;
//! * **golden traces**: a fixed-seed single-processor workload yields a
//!   byte-identical trace JSON on every run;
//! * the metrics registry agrees with `AllocStats` at quiescence and
//!   surfaces corruption/OOM-recovery gauges;
//! * the live-heap profiler's books cross-check `AllocStats` and the
//!   heap-map snapshot;
//! * a probe replaced while attached stays alive until the allocator
//!   drops.

use hoard_core::{
    EventKind, HardeningLevel, HeapProfiler, HoardAllocator, HoardConfig, MetricsRegistry, Probe,
    ProfileConfig, TraceConfig, TraceLog, TraceSink, TrcRecorder,
};
use hoard_mem::MtAllocator;
use hoard_workloads::threadtest;
use std::ptr::NonNull;
use std::sync::Arc;

/// Same normalization as `tests/magazine.rs`: addresses become (page
/// index in order of first appearance, offset), which is stable across
/// allocator instances whose *layout decisions* agree.
fn normalize(addrs: &[usize]) -> Vec<(usize, usize)> {
    const S: usize = 4096;
    let mut bases: Vec<usize> = Vec::new();
    addrs
        .iter()
        .map(|&a| {
            let base = a & !(S - 1);
            let idx = bases.iter().position(|&b| b == base).unwrap_or_else(|| {
                bases.push(base);
                bases.len() - 1
            });
            (idx, a - base)
        })
        .collect()
}

/// The fixed mixed-size trace from `tests/magazine.rs`.
fn churn(h: &HoardAllocator) -> Vec<usize> {
    let mut addrs = Vec::new();
    let mut live: Vec<NonNull<u8>> = Vec::new();
    for i in 0..4_000usize {
        let size = 8 + (i * 37) % 500;
        let p = unsafe { h.allocate(size) }.unwrap();
        addrs.push(p.as_ptr() as usize);
        live.push(p);
        if i % 3 == 0 {
            let victim = live.swap_remove((i * 31) % live.len());
            unsafe { h.deallocate(victim) };
        }
    }
    for p in live {
        unsafe { h.deallocate(p) };
    }
    addrs
}

/// A probe carrying `instruments` (any of "tracer", "metrics",
/// "recorder", "profiler", or "all"), each fresh and sized for `h`.
fn probe(h: &HoardAllocator, instruments: &str) -> Probe {
    let has = |name: &str| instruments == name || instruments == "all";
    Probe {
        tracer: has("tracer").then(|| {
            Arc::new(TraceSink::with_config(TraceConfig {
                tracks: 1,
                capacity: 1 << 16,
            }))
        }),
        metrics: has("metrics").then(|| Arc::new(h.new_metrics_registry())),
        recorder: has("recorder").then(|| Arc::new(TrcRecorder::new(0, instruments, 1))),
        profiler: has("profiler").then(|| Arc::new(HeapProfiler::new())),
    }
}

/// `churn`'s size mix on two processors taking turns, one object in a
/// hundred large, then a flush, twice: a free is remote half the time,
/// magazines fill and flush, and the second round refills from what the
/// first handed back. Returns its normalized layout, lock traffic and
/// virtual time.
fn observed_churn(h: &HoardAllocator) -> (Vec<(usize, usize)>, (u64, u64), u64) {
    let (addrs, dt) = hoard_sim::sequential_scope(|| {
        let mut addrs = Vec::new();
        for _ in 0..2 {
            let mut live: Vec<NonNull<u8>> = Vec::new();
            for i in 0..3_000usize {
                hoard_sim::switch_context(i % 2, hoard_sim::now());
                let size = if i % 100 == 99 {
                    20_000
                } else {
                    8 + (i * 37) % 500
                };
                let p = unsafe { h.allocate(size) }.unwrap();
                addrs.push(p.as_ptr() as usize);
                live.push(p);
                if i % 3 == 0 {
                    let victim = live.swap_remove((i * 31) % live.len());
                    unsafe { h.deallocate(victim) };
                }
            }
            for p in live {
                unsafe { h.deallocate(p) };
            }
            h.flush_frontend();
        }
        (addrs, hoard_sim::now())
    });
    (normalize(&addrs), h.heap_lock_stats(), dt)
}

#[test]
fn every_probe_keeps_layout_and_locks_and_charges_exactly_its_records() {
    let costs = hoard_sim::CostModel::current();
    let configs = [
        ("hoard", HoardConfig::new()),
        ("hoard_mag", HoardConfig::with_default_magazines()),
    ];
    for (config, cfg) in configs {
        let plain = observed_churn(&HoardAllocator::with_config(cfg).unwrap());
        let again = observed_churn(&HoardAllocator::with_config(cfg).unwrap());
        assert_eq!(plain, again, "{config}: unobserved runs are bit-identical");

        for instruments in ["tracer", "metrics", "recorder", "profiler", "all"] {
            let h = HoardAllocator::with_config(cfg).unwrap();
            let probe = Arc::new(probe(&h, instruments));
            h.attach(Arc::clone(&probe));
            let (layout, locks, dt) = observed_churn(&h);
            let what = format!("{config} with {instruments}");
            assert_eq!(layout, plain.0, "{what}: layout decisions moved");
            assert_eq!(locks, plain.1, "{what}: lock traffic moved");

            let allocs = h.stats().allocs;
            let events = probe.tracer.as_ref().map_or(0, |sink| {
                let log = sink.collect();
                assert_eq!(log.dropped, 0);
                let kinds = [
                    EventKind::Alloc,
                    EventKind::AllocMagazine,
                    EventKind::AllocLarge,
                ];
                let counted: usize = kinds.iter().map(|&k| log.count(k)).sum();
                assert_eq!(counted as u64, allocs, "{what}: one event per allocation");
                log.total_events() as u64
            });
            let records = probe.recorder.as_ref().map_or(0, |rec| {
                let stats = rec.stats();
                assert_eq!((stats.allocs, stats.unmatched_frees), (allocs, 0), "{what}");
                stats.allocs + stats.frees
            });
            let samples = probe.profiler.as_ref().map_or(0, |prof| {
                let snap = prof.snapshot(hoard_sim::now());
                assert_eq!(
                    snap.total_allocs, allocs,
                    "{what}: one sample per allocation"
                );
                snap.total_allocs + snap.total_frees + snap.timeline.len() as u64
            });
            assert_eq!(
                dt,
                plain.2
                    + (events + records) * costs.get(hoard_sim::Cost::TraceEvent)
                    + samples * costs.get(hoard_sim::Cost::ProfileSample),
                "{what}: the overhead is exactly the records' charges"
            );
        }
    }
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    // A fixed-seed, single-processor machine run: every emission happens
    // on vcpu 0 with a deterministic virtual clock, so two runs must
    // serialize to the same bytes — traces are diffable artifacts.
    let run_once = || {
        let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
        let sink = Arc::new(TraceSink::with_config(TraceConfig {
            tracks: 2,
            capacity: 1 << 16,
        }));
        h.attach(Arc::new(Probe {
            tracer: Some(Arc::clone(&sink)),
            ..Probe::default()
        }));
        threadtest::run(
            &h,
            1,
            &threadtest::Params {
                total_objects: 2_000,
                batch: 50,
                size: 64,
                work_per_object: 5,
            },
        );
        sink.collect().to_json()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "golden trace drifted between runs");

    let log = TraceLog::from_json(&first).expect("valid native trace JSON");
    assert_eq!(log.dropped, 0);
    assert_eq!(log.tracks.len(), 1, "one processor, one track");
    assert_eq!(log.tracks[0].proc, 0, "simulated processor 0");
    assert!(log.total_events() > 1_000, "the workload actually traced");
    for t in &log.tracks {
        assert!(
            t.events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "timestamps monotone per track"
        );
    }
}

#[test]
fn profiler_books_cross_check_alloc_stats_and_heap_map() {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let prof = Arc::new(HeapProfiler::new());
    h.attach(Arc::new(Probe {
        profiler: Some(Arc::clone(&prof)),
        ..Probe::default()
    }));

    // Mixed-size churn with sites, leaving a live set behind; the test
    // keeps its own requested-bytes ledger to check the profiler's.
    let mut live: Vec<(NonNull<u8>, usize)> = Vec::new();
    let mut expected_live = 0u64;
    for i in 0..2_000usize {
        let size = 8 + (i * 37) % 500;
        let prev = hoard_sim::set_alloc_site(1 + (i % 7) as u32);
        let p = unsafe { h.allocate(size) }.unwrap();
        hoard_sim::set_alloc_site(prev);
        live.push((p, size));
        expected_live += size as u64;
        if i % 3 == 0 {
            let (victim, vsize) = live.swap_remove((i * 31) % live.len());
            expected_live -= vsize as u64;
            unsafe { h.deallocate(victim) };
        }
    }

    // Mid-run: the profiler's live books equal the requested-bytes
    // ledger, per-site totals partition it, and the allocator's own
    // block-byte gauges bound it from above (`AllocStats.live_current`
    // counts size-class block bytes, so rounding makes it larger).
    let stats = h.stats();
    stats.check_consistency().expect("stats consistent");
    assert!(expected_live > 0, "live set survives");
    assert_eq!(prof.live_bytes(), expected_live);
    let snap = prof.snapshot(hoard_sim::now());
    assert_eq!(snap.live_bytes, expected_live);
    assert_eq!(
        snap.sites.iter().map(|s| s.live_bytes).sum::<u64>(),
        expected_live,
        "site attribution partitions live bytes"
    );
    assert!(
        stats.live_current >= expected_live,
        "block bytes ({}) cover requested bytes ({expected_live})",
        stats.live_current
    );
    assert_eq!(snap.sites.len(), 7, "all seven sites attributed");
    assert!(
        snap.sites.iter().all(|s| s.site != 0),
        "every allocation was tagged"
    );
    // Live blocks show up in the leak report until they are freed.
    assert_eq!(snap.leaked_bytes(), expected_live);

    let map = h.heap_map_snapshot();
    assert!(
        map.live_bytes() >= expected_live,
        "block bytes in use ({}) cover requested live bytes ({expected_live})",
        map.live_bytes(),
    );
    assert!(
        map.held_bytes() >= map.live_bytes(),
        "held covers in-use: A={} U={}",
        map.held_bytes(),
        map.live_bytes()
    );

    // Drain: books return to zero and the leak report empties.
    for (p, _) in live {
        unsafe { h.deallocate(p) };
    }
    h.flush_frontend();
    assert_eq!(prof.live_bytes(), 0);
    let end = prof.snapshot(hoard_sim::now());
    assert_eq!(end.leaked_bytes(), 0);
    assert_eq!(end.total_frees, end.total_allocs);
    assert_eq!(h.heap_map_snapshot().live_bytes(), 0);
}

/// The allocator's `live` cell counts bytes out of the heaps, magazine
/// contents included; the timeline's `U` must stay the application's.
#[test]
fn timeline_samples_the_applications_bytes_not_the_magazines() {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    // An interval of one unit: every operation claims a tick.
    let prof = Arc::new(HeapProfiler::with_config(ProfileConfig {
        timeline_interval: 1,
    }));
    h.attach(Arc::new(Probe {
        profiler: Some(Arc::clone(&prof)),
        ..Probe::default()
    }));
    unsafe {
        // The first allocation refills: a batch leaves the heaps, one
        // block of it is the program's.
        let p = h.allocate(64).unwrap();
        let q = h.allocate(64).unwrap();
        // A free is sampled before it takes effect.
        h.deallocate(p);
        h.deallocate(q);
    }
    let u: Vec<u64> = prof
        .snapshot(hoard_sim::now())
        .timeline
        .iter()
        .map(|point| point.live_bytes)
        .collect();
    assert_eq!(u, [64, 128, 128, 64]);
}

#[test]
fn metrics_registry_agrees_with_alloc_stats_at_quiescence() {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    h.attach(Arc::new(probe(&h, "metrics")));
    churn(&h);
    h.flush_frontend();

    let stats = h.stats();
    stats.check_consistency().expect("stats consistent");
    let snap = h.metrics_snapshot().expect("registry attached");
    assert_eq!(snap.total_allocs(), stats.allocs);
    assert_eq!(snap.total_frees(), stats.frees);
    assert!(
        snap.heaps.iter().any(|hm| hm.lock_acquires > 0),
        "lock telemetry recorded: {snap:?}"
    );
    let (acqs, _) = h.heap_lock_stats();
    let metered: u64 = snap.heaps.iter().map(|hm| hm.lock_acquires).sum();
    assert_eq!(metered, acqs, "registry lock counts match VLock's own");
    assert_eq!(snap.lock_hold.count, acqs, "every hold sampled");

    // Magazine bypass visibility: the front-end's lock-free operations
    // are attributed per class.
    let mag_ops: u64 = snap
        .heaps
        .iter()
        .flat_map(|hm| &hm.classes)
        .map(|c| c.magazine_ops)
        .sum();
    let m = stats.magazines;
    assert_eq!(mag_ops, m.alloc_hits + m.free_hits);
}

#[test]
fn hardening_gauges_surface_through_the_registry() {
    let h = HoardAllocator::with_config(
        HoardConfig::new().with_hardening(HardeningLevel::Basic),
    )
    .unwrap();
    let sink = Arc::new(TraceSink::new());
    h.attach(Arc::new(Probe {
        tracer: Some(Arc::clone(&sink)),
        metrics: Some(Arc::new(h.new_metrics_registry())),
        ..Probe::default()
    }));

    let p = unsafe { h.allocate(64) }.unwrap();
    unsafe { h.deallocate(p) };
    unsafe { h.deallocate(p) }; // double free: detected, not fatal

    let snap = h.metrics_snapshot().expect("registry attached");
    assert_eq!(snap.hardening.corruption_reports, 1);
    assert_eq!(
        sink.collect().count(EventKind::Corruption),
        1,
        "corruption also traced as an event"
    );
}

#[test]
fn large_events_say_whether_the_pool_served_them() {
    let h = HoardAllocator::new_default();
    let sink = Arc::new(TraceSink::new());
    h.attach(Arc::new(Probe {
        tracer: Some(Arc::clone(&sink)),
        ..Probe::default()
    }));
    hoard_sim::sequential_scope(|| unsafe {
        let p = h.allocate(100_000).unwrap(); // miss: the source is asked
        h.deallocate(p); // parked on processor 0's list
        let q = h.allocate(100_000).unwrap(); // hit on the caller's own home
        let r = h.allocate(400_000).unwrap(); // above the pool's 64 pages
        h.deallocate(r); // returned to the source
        h.deallocate(q); // parked
        hoard_sim::switch_context(1, hoard_sim::now());
        let s = h.allocate(100_000).unwrap(); // hit on processor 0's chunk
        h.deallocate(s); // parked, now on processor 1's list
    });
    use EventKind::{AllocLarge, FreeLarge};
    let log = sink.collect();
    let large: Vec<(EventKind, u32)> = log
        .iter()
        .filter(|(_, e)| matches!(e.kind, AllocLarge | FreeLarge))
        .map(|(_, e)| (e.kind, e.arg0))
        .collect();
    assert_eq!(
        large,
        [
            (AllocLarge, 0),
            (FreeLarge, 1),
            (AllocLarge, 2),
            (AllocLarge, 0),
            (FreeLarge, 0),
            (FreeLarge, 1),
            (AllocLarge, 1),
            (FreeLarge, 1),
        ]
    );
}

/// `attach` may race operations, so a replaced probe is retired, not
/// released: a reference loaded before the swap stays valid until the
/// allocator drops, and the drop releases every probe it held.
#[test]
fn a_replaced_probe_lives_until_the_allocator_drops() {
    let sink1 = Arc::new(TraceSink::new());
    let sink2 = Arc::new(TraceSink::new());
    let registry = Arc::new(MetricsRegistry::new(2, 2));
    {
        let h = HoardAllocator::new_default();
        h.attach(Arc::new(Probe {
            tracer: Some(Arc::clone(&sink1)),
            ..Probe::default()
        }));
        let loaded = h.probe().expect("attached");
        h.attach(Arc::new(Probe {
            tracer: Some(Arc::clone(&sink2)),
            metrics: Some(Arc::clone(&registry)),
            ..Probe::default()
        }));
        let retired = Arc::strong_count(&sink1);
        assert_eq!(retired, 2, "the replaced probe is retired");
        loaded.emit(EventKind::Alloc, 0, 0);
        assert_eq!(sink1.len(), 1, "and still usable");
        let p = unsafe { h.allocate(32) }.unwrap();
        unsafe { h.deallocate(p) };
        assert_eq!(sink1.len(), 1, "the new probe gets the traffic");
        assert!(!sink2.is_empty());
    }
    // Drop released the allocator's references, retired ones included.
    assert_eq!(Arc::strong_count(&sink1), 1);
    assert_eq!(Arc::strong_count(&sink2), 1);
    assert_eq!(Arc::strong_count(&registry), 1);
}
