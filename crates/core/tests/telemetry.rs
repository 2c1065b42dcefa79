//! The observability layer's contracts (DESIGN.md §10):
//!
//! * **off = free**: with no tracer/registry attached, the telemetry
//!   hooks charge zero virtual time and perturb nothing — layout, lock
//!   counts, and the virtual clock advance are bit-identical to an
//!   allocator that never heard of telemetry;
//! * **on = honest**: tracing changes virtual time by *exactly* one
//!   `Cost::TraceEvent` per recorded event and never changes layout;
//! * **golden traces**: a fixed-seed single-processor workload yields a
//!   byte-identical trace JSON on every run;
//! * the metrics registry agrees with `AllocStats` at quiescence and
//!   surfaces corruption/OOM-recovery gauges;
//! * the live-heap profiler follows the same off-free/on-honest
//!   contract: unattached it perturbs nothing, attached it charges
//!   exactly one `Cost::ProfileSample` per profiled operation and per
//!   timeline tick, and its books cross-check `AllocStats` and the
//!   heap-map snapshot.

use hoard_core::{
    HardeningLevel, HeapProfiler, HoardAllocator, HoardConfig, MetricsRegistry, ProfileConfig,
    TraceConfig, TraceLog, TraceSink,
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

#[test]
fn tracing_off_is_bit_identical_and_tracing_on_costs_exactly_the_events() {
    // Untraced run: the baseline this build must not move from.
    let plain = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let t0 = hoard_sim::now();
    let plain_addrs = churn(&plain);
    let plain_dt = hoard_sim::now() - t0;

    // Second untraced run: telemetry-off is deterministic.
    let plain2 = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let t1 = hoard_sim::now();
    let plain2_addrs = churn(&plain2);
    let plain2_dt = hoard_sim::now() - t1;
    assert_eq!(normalize(&plain_addrs), normalize(&plain2_addrs));
    assert_eq!(plain_dt, plain2_dt, "telemetry-off runs are bit-identical");

    // Traced run: identical layout and lock traffic; virtual time
    // differs by exactly one TraceEvent charge per recorded event —
    // tracing is modelled honestly, and nothing else moved.
    let traced = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let sink = Arc::new(TraceSink::with_config(TraceConfig {
        tracks: 4,
        capacity: 1 << 16,
    }));
    let registry = Arc::new(traced.new_metrics_registry());
    traced.attach_tracer(Arc::clone(&sink));
    traced.attach_metrics(Arc::clone(&registry));
    let t2 = hoard_sim::now();
    let traced_addrs = churn(&traced);
    let traced_dt = hoard_sim::now() - t2;

    assert_eq!(
        normalize(&plain_addrs),
        normalize(&traced_addrs),
        "tracing must never change layout decisions"
    );
    assert_eq!(
        plain.heap_lock_stats(),
        traced.heap_lock_stats(),
        "tracing must never change lock traffic"
    );
    assert_eq!(sink.dropped(), 0, "sized to hold the whole run");
    let per_event = hoard_sim::CostModel::current().trace_event;
    assert_eq!(
        traced_dt,
        plain_dt + sink.len() as u64 * per_event,
        "tracing-on overhead is exactly #events × Cost::TraceEvent"
    );

    // Cross-instance isolation: the traced allocator's sink saw nothing
    // from the plain allocators.
    let log = sink.collect();
    assert_eq!(log.count(hoard_core::EventKind::Alloc) as u64 + log.count(hoard_core::EventKind::AllocMagazine) as u64,
        traced.stats().allocs,
        "every allocation shows up as exactly one event");
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
        h.attach_tracer(Arc::clone(&sink));
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
    assert_eq!(log.tracks[0].proc, 0, "machine worker 0");
    assert!(log.total_events() > 1_000, "the workload actually traced");
    for t in &log.tracks {
        assert!(
            t.events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "timestamps monotone per track"
        );
    }
}

#[test]
fn profiler_off_is_bit_identical_and_on_charges_exactly_profile_samples() {
    // Unprofiled baseline.
    let plain = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let t0 = hoard_sim::now();
    let plain_addrs = churn(&plain);
    let plain_dt = hoard_sim::now() - t0;

    // Profiled run: identical layout and lock traffic; the virtual
    // clock moves by exactly one ProfileSample per alloc, per free,
    // and per claimed timeline tick — nothing else.
    let profiled = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let prof = Arc::new(HeapProfiler::new());
    profiled.attach_profiler(Arc::clone(&prof));
    let t1 = hoard_sim::now();
    let profiled_addrs = churn(&profiled);
    let profiled_dt = hoard_sim::now() - t1;

    assert_eq!(
        normalize(&plain_addrs),
        normalize(&profiled_addrs),
        "profiling must never change layout decisions"
    );
    assert_eq!(
        plain.heap_lock_stats(),
        profiled.heap_lock_stats(),
        "profiling must never change lock traffic"
    );
    let snap = prof.snapshot(hoard_sim::now());
    assert_eq!(snap.total_allocs, profiled.stats().allocs);
    let per = hoard_sim::CostModel::current().profile_sample;
    let charged = snap.total_allocs + snap.total_frees + snap.timeline.len() as u64;
    assert_eq!(
        profiled_dt,
        plain_dt + charged * per,
        "profiling-on overhead is exactly #ops+#ticks × Cost::ProfileSample"
    );
}

#[test]
fn profiler_books_cross_check_alloc_stats_and_heap_map() {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let prof = Arc::new(HeapProfiler::new());
    h.attach_profiler(Arc::clone(&prof));

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
    for cfg in [
        HoardConfig::with_default_magazines(),
        HoardConfig::with_lockfree(),
    ] {
        let h = HoardAllocator::with_config(cfg).unwrap();
        // An interval of one unit: every operation claims a tick.
        let prof = Arc::new(HeapProfiler::with_config(ProfileConfig {
            timeline_interval: 1,
            ..ProfileConfig::default()
        }));
        h.attach_profiler(Arc::clone(&prof));
        unsafe {
            // The first allocation refills: a batch leaves the heaps,
            // one block of it is the program's.
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
}

#[test]
fn metrics_registry_agrees_with_alloc_stats_at_quiescence() {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let registry = Arc::new(h.new_metrics_registry());
    h.attach_metrics(Arc::clone(&registry));
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
    let registry = Arc::new(h.new_metrics_registry());
    let sink = Arc::new(TraceSink::new());
    h.attach_metrics(Arc::clone(&registry));
    h.attach_tracer(Arc::clone(&sink));

    let p = unsafe { h.allocate(64) }.unwrap();
    unsafe { h.deallocate(p) };
    unsafe { h.deallocate(p) }; // double free: detected, not fatal

    let snap = h.metrics_snapshot().expect("registry attached");
    assert_eq!(snap.hardening.corruption_reports, 1);
    assert_eq!(
        sink.collect().count(hoard_core::EventKind::Corruption),
        1,
        "corruption also traced as an event"
    );
}

#[test]
fn large_events_say_whether_the_pool_served_them() {
    let h = HoardAllocator::new_default();
    let sink = Arc::new(TraceSink::new());
    h.attach_tracer(Arc::clone(&sink));
    unsafe {
        let p = h.allocate(100_000).unwrap(); // miss: the source is asked
        h.deallocate(p); // parked
        let q = h.allocate(100_000).unwrap(); // hit
        let r = h.allocate(400_000).unwrap(); // above the pool's 64 pages
        h.deallocate(r); // returned to the source
        h.deallocate(q); // parked
    }
    use hoard_core::EventKind::{AllocLarge, FreeLarge};
    let log = sink.collect();
    let large: Vec<(hoard_core::EventKind, u32)> = log
        .iter()
        .filter(|(_, e)| matches!(e.kind, AllocLarge | FreeLarge))
        .map(|(_, e)| (e.kind, e.arg0))
        .collect();
    assert_eq!(
        large,
        [(AllocLarge, 0), (FreeLarge, 1), (AllocLarge, 1), (AllocLarge, 0), (FreeLarge, 0), (FreeLarge, 1)]
    );
}

#[test]
fn attach_replaces_and_drop_releases_the_sink() {
    let sink1 = Arc::new(TraceSink::new());
    let sink2 = Arc::new(TraceSink::new());
    let registry = Arc::new(MetricsRegistry::new(2, 2));
    {
        let h = HoardAllocator::new_default();
        h.attach_tracer(Arc::clone(&sink1));
        h.attach_tracer(Arc::clone(&sink2)); // replaces, releases sink1
        h.attach_metrics(Arc::clone(&registry));
        assert_eq!(Arc::strong_count(&sink1), 1);
        assert_eq!(Arc::strong_count(&sink2), 2);
        let p = unsafe { h.allocate(32) }.unwrap();
        unsafe { h.deallocate(p) };
        assert!(sink1.is_empty());
        assert!(!sink2.is_empty());
    }
    // Drop released the allocator's references.
    assert_eq!(Arc::strong_count(&sink2), 1);
    assert_eq!(Arc::strong_count(&registry), 1);
}
