//! `magbench` — before/after evidence for the magazine front-end.
//!
//! ```text
//! magbench            # full grid (the numbers committed under results/)
//! magbench --quick    # reduced scale, for CI smoke
//! ```
//!
//! Three sections:
//!
//! 1. **Lock bypass** — the single-thread hot-path patterns (pair
//!    churn, batch churn) run against plain Hoard and the magazine
//!    variant, reporting heap-lock acquisitions per allocator operation.
//!    The front-end's contract is that ≥ 90 % of small allocations
//!    bypass the heap lock entirely.
//! 2. **Virtual-time speedups** — threadtest, larson and prod-cons at
//!    P ∈ {1, 8, 14}, plain Hoard vs magazines, as makespans and ratios.
//! 3. **Front-end telemetry** — the `MagazineStats` counters for one
//!    representative producer–consumer run.
//! 4. **Slow-path storm** — the `storm` workload (refill/flush/transfer
//!    ping-pong) at P ∈ {8, 14}, locked magazines vs the lock-free
//!    back-end: makespans plus the back-end traffic counters.

use hoard_core::{HoardAllocator, HoardConfig};
use hoard_harness::Table;
use hoard_mem::MtAllocator;
use hoard_workloads as wl;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale: u64 = std::env::var("MAGBENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 4_000 } else { 40_000 });

    for table in [
        lock_bypass_table(scale),
        speedup_table(scale),
        telemetry_table(scale),
        storm_table(scale),
    ] {
        println!("{}", table.render());
    }
}

fn hoard_plain() -> HoardAllocator {
    HoardAllocator::new_default()
}

fn hoard_mag() -> HoardAllocator {
    HoardAllocator::with_config(HoardConfig::with_default_magazines()).expect("valid config")
}

fn hoard_lockfree() -> HoardAllocator {
    HoardAllocator::with_config(HoardConfig::with_lockfree()).expect("valid config")
}

/// Run `ops` pair-churn iterations (allocate then free immediately).
fn pair_churn(h: &HoardAllocator, size: usize, ops: u64) {
    for _ in 0..ops {
        let p = unsafe { h.allocate(size) }.expect("oom");
        unsafe { h.deallocate(p) };
    }
}

/// Run batch churn: allocate `batch`, then free them all, `ops / batch`
/// times (LIFO).
fn batch_churn(h: &HoardAllocator, size: usize, ops: u64) {
    const BATCH: usize = 100;
    let mut ptrs = Vec::with_capacity(BATCH);
    for _ in 0..ops / BATCH as u64 {
        for _ in 0..BATCH {
            ptrs.push(unsafe { h.allocate(size) }.expect("oom"));
        }
        for p in ptrs.drain(..) {
            unsafe { h.deallocate(p) };
        }
    }
}

fn lock_bypass_table(scale: u64) -> Table {
    let mut t = Table::new(
        "mag-locks",
        "MAGBENCH: heap-lock traffic on the single-thread hot paths",
        vec![
            "pattern".into(),
            "allocator".into(),
            "size".into(),
            "ops".into(),
            "lock acqs".into(),
            "contended".into(),
            "locks/op".into(),
            "bypass %".into(),
        ],
    );
    type Pattern = (&'static str, fn(&HoardAllocator, usize, u64));
    let patterns: [Pattern; 2] = [("pair", pair_churn), ("batch", batch_churn)];
    let mut totals = [(0u64, 0u64); 2]; // (ops, acqs) per allocator
    for (name, pattern) in patterns {
        for size in [8usize, 64, 512] {
            for (i, (label, h)) in [("hoard", hoard_plain()), ("hoard-mag", hoard_mag())]
                .into_iter()
                .enumerate()
            {
                pattern(&h, size, scale);
                let (acqs, contended) = h.heap_lock_stats();
                // Pair and batch churn perform one alloc and one free
                // per op-pair; normalize per allocator operation.
                let total_ops = 2 * scale;
                totals[i].0 += total_ops;
                totals[i].1 += acqs;
                let per_op = acqs as f64 / total_ops as f64;
                t.push_row(vec![
                    name.into(),
                    label.into(),
                    size.to_string(),
                    total_ops.to_string(),
                    acqs.to_string(),
                    contended.to_string(),
                    format!("{per_op:.4}"),
                    format!("{:.1}", 100.0 * (1.0 - per_op.min(1.0))),
                ]);
            }
        }
    }
    for (i, label) in ["hoard", "hoard-mag"].into_iter().enumerate() {
        let (ops, acqs) = totals[i];
        let per_op = acqs as f64 / ops as f64;
        t.push_row(vec![
            "all".into(),
            label.into(),
            "-".into(),
            ops.to_string(),
            acqs.to_string(),
            "-".into(),
            format!("{per_op:.4}"),
            format!("{:.1}", 100.0 * (1.0 - per_op.min(1.0))),
        ]);
    }
    t.push_note("single-threaded; one op = one allocate or one free");
    t.push_note("acceptance: hoard-mag bypasses the heap lock on >=90% of ops");
    t.push_note("lock acqs include global-heap restore traffic (present in plain hoard too: see batch/512)");
    t
}

fn speedup_table(scale: u64) -> Table {
    let mut t = Table::new(
        "mag-speedup",
        "MAGBENCH: virtual-time makespans, plain Hoard vs magazine front-end",
        vec![
            "workload".into(),
            "P".into(),
            "hoard".into(),
            "hoard-mag".into(),
            "ratio".into(),
        ],
    );
    type Workload = (&'static str, Box<dyn Fn(&dyn MtAllocator, usize) -> u64>);
    let tt = wl::threadtest::Params {
        total_objects: scale,
        ..Default::default()
    };
    let la = wl::larson::Params {
        ops_per_round: (scale / 20).max(100),
        ..Default::default()
    };
    let pc = wl::prod_cons::Params {
        total_objects: scale,
        ..Default::default()
    };
    let workloads: [Workload; 3] = [
        (
            "threadtest",
            Box::new(move |a, p| wl::threadtest::run(a, p, &tt).makespan),
        ),
        (
            "larson",
            Box::new(move |a, p| wl::larson::run(a, p, &la).makespan),
        ),
        (
            "prod-cons",
            Box::new(move |a, p| wl::prod_cons::run(a, p, &pc).makespan),
        ),
    ];
    // Multi-threaded makespans depend on real thread interleavings
    // (lock handoff order, which drained blocks a refill recycles under
    // the cache model), so single runs are bimodal; the median of five
    // is stable.
    let median = |f: &dyn Fn() -> u64| -> u64 {
        let mut xs: Vec<u64> = (0..5).map(|_| f()).collect();
        xs.sort_unstable();
        xs[2]
    };
    for (name, run) in &workloads {
        for p in [1usize, 8, 14] {
            let base = median(&|| run(&hoard_plain(), p)).max(1);
            let mag = median(&|| run(&hoard_mag(), p)).max(1);
            t.push_row(vec![
                (*name).into(),
                p.to_string(),
                base.to_string(),
                mag.to_string(),
                format!("{:.2}x", base as f64 / mag as f64),
            ]);
        }
    }
    t.push_note("ratio > 1.00x means the magazine front-end is faster");
    t.push_note("fresh allocator per cell; median of 5 runs; virtual time (see DESIGN.md)");
    t
}

/// One workload cell: the snapshot plus heap-lock telemetry.
struct Probe {
    snap: hoard_mem::AllocSnapshot,
    lock_acqs: u64,
    lock_contended: u64,
}

fn probe(h: &HoardAllocator, run: impl FnOnce(&HoardAllocator)) -> Probe {
    run(h);
    let (lock_acqs, lock_contended) = h.heap_lock_stats();
    Probe {
        snap: h.stats(),
        lock_acqs,
        lock_contended,
    }
}

fn telemetry_table(scale: u64) -> Table {
    let pc = wl::prod_cons::Params {
        total_objects: scale,
        ..Default::default()
    };
    let la = wl::larson::Params {
        ops_per_round: (scale / 20).max(100),
        ..Default::default()
    };
    let cells: Vec<Probe> = vec![
        probe(&hoard_plain(), |h| {
            wl::prod_cons::run(h, 8, &pc);
        }),
        probe(&hoard_mag(), |h| {
            wl::prod_cons::run(h, 8, &pc);
        }),
        probe(&hoard_plain(), |h| {
            wl::larson::run(h, 14, &la);
        }),
        probe(&hoard_mag(), |h| {
            wl::larson::run(h, 14, &la);
        }),
    ];
    let mut t = Table::new(
        "mag-telemetry",
        "MAGBENCH: allocator counters on the cross-thread workloads",
        vec![
            "counter".into(),
            "pc/hoard P=8".into(),
            "pc/mag P=8".into(),
            "larson/hoard P=14".into(),
            "larson/mag P=14".into(),
        ],
    );
    let row = |name: &str, f: &dyn Fn(&Probe) -> u64| {
        let mut r = vec![name.to_string()];
        r.extend(cells.iter().map(|c| f(c).to_string()));
        r
    };
    t.push_row(row("allocs", &|c| c.snap.allocs));
    t.push_row(row("frees", &|c| c.snap.frees));
    t.push_row(row("remote frees", &|c| c.snap.remote_frees));
    t.push_row(row("magazine alloc hits", &|c| c.snap.magazines.alloc_hits));
    t.push_row(row("magazine free hits", &|c| c.snap.magazines.free_hits));
    t.push_row(row("refills (locked)", &|c| c.snap.magazines.refills));
    t.push_row(row("flushes (locked)", &|c| c.snap.magazines.flushes));
    t.push_row(row("remote pushes (CAS)", &|c| c.snap.magazines.remote_pushes));
    t.push_row(row("remote drains", &|c| c.snap.magazines.remote_drains));
    t.push_row(row("free owner retries", &|c| {
        c.snap.magazines.free_owner_retries
    }));
    t.push_row(row("transfers to global", &|c| c.snap.transfers_to_global));
    t.push_row(row("transfers from global", &|c| {
        c.snap.transfers_from_global
    }));
    t.push_row(row("held peak (bytes)", &|c| c.snap.held_peak));
    t.push_row(row("heap-lock acqs", &|c| c.lock_acqs));
    t.push_row(row("heap-lock contended", &|c| c.lock_contended));
    t.push_row(row("live at end", &|c| c.snap.live_current));
    t.push_note("remote pushes are foreign frees deferred without a lock");
    t
}

fn storm_table(scale: u64) -> Table {
    // Scale rounds with the global knob; batch stays fixed so each
    // round still overflows the magazines.
    let params = wl::storm::Params {
        rounds: (scale / 2_000).clamp(4, 40) as usize,
        ..Default::default()
    };
    let mut t = Table::new(
        "backend-storm",
        "MAGBENCH: slow-path storm (refill/flush/transfer ping-pong), locked vs lock-free back-end",
        vec![
            "P".into(),
            "allocator".into(),
            "makespan".into(),
            "ratio".into(),
            "lock acqs".into(),
            "contended".into(),
            "to-global".into(),
            "from-global".into(),
            "remote pushes".into(),
            "remote drains".into(),
        ],
    );
    // Median-of-5 makespans (multi-threaded runs are bimodal, see
    // speedup_table); counters from a fresh representative run.
    let run_cell = |mk: fn() -> HoardAllocator, p: usize| -> (u64, Probe) {
        let mut xs: Vec<u64> = (0..5)
            .map(|_| wl::storm::run(&mk(), p, &params).makespan)
            .collect();
        xs.sort_unstable();
        (xs[2], probe(&mk(), |h| {
            wl::storm::run(h, p, &params);
        }))
    };
    for p in [8usize, 14] {
        let (mag_mk, mag) = run_cell(hoard_mag, p);
        let (lf_mk, lf) = run_cell(hoard_lockfree, p);
        for (label, mk, pr, ratio) in [
            ("hoard-mag", mag_mk, &mag, 1.0),
            ("hoard-lockfree", lf_mk, &lf, mag_mk as f64 / lf_mk.max(1) as f64),
        ] {
            t.push_row(vec![
                p.to_string(),
                label.into(),
                mk.to_string(),
                format!("{ratio:.2}x"),
                pr.lock_acqs.to_string(),
                pr.lock_contended.to_string(),
                pr.snap.transfers_to_global.to_string(),
                pr.snap.transfers_from_global.to_string(),
                pr.snap.magazines.remote_pushes.to_string(),
                pr.snap.magazines.remote_drains.to_string(),
            ]);
        }
    }
    t.push_note("ratio > 1.00x means the lock-free back-end is faster");
    t.push_note("fresh allocator per cell; median-of-5 makespans; counters from one representative run");
    t
}
