//! Deterministic fault-injection campaign.
//!
//! Every allocation path — the small fast path, superblock acquisition,
//! global-heap transfer, and large objects — is driven under seeded
//! [`FaultPlan`]s that fail chunk allocations every-Nth, with seeded
//! probability, in burst windows, and transiently at startup. After
//! each storm the campaign asserts the robustness contract:
//!
//! * every injected failure surfaces as a clean `None` from `allocate`
//!   (a panic anywhere fails the test);
//! * the allocator stays internally consistent
//!   ([`debug::check_invariants`]) with zero corruption reports;
//! * nothing leaks: all live blocks drain to `live_current == 0`, and
//!   after the allocator drops, the source holds zero chunks.
//!
//! Plans are pure functions of (seed, call index), so a failing run
//! replays exactly.

use hoard_core::{debug, HardeningLevel, HoardAllocator, HoardConfig};
use hoard_mem::{ChunkSource, FaultPlan, InjectingSource, MtAllocator, SystemSource};

/// Sizes covering all paths: repeated small sizes (fast path + free-list
/// reuse), a spread of classes (superblock acquisition + reformat),
/// boundary sizes, and large objects — recurring ones (parked by the
/// large pool and handed out again, or released by a miss that must
/// make room under the peak) and one above the pool's 64 pages (direct
/// chunk path both ways).
const SIZES: [usize; 17] = [
    16, 16, 24, 48, 48, 96, 200, 512, 1024, 2048, 4096, 4097, 10_000, 70_000, 10_000, 300_000,
    70_000,
];

/// Operations per campaign run. Enough to drain and refill superblocks
/// repeatedly (driving global-heap transfers) while staying fast.
const OPS: usize = 4000;

fn lcg(state: &mut u64) -> u64 {
    // Numerical Recipes LCG: deterministic free-victim selection.
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Run one allocate/free storm under `plan`; returns
/// `(successes, clean_failures)`.
fn run_campaign(plan: FaultPlan, hardening: HardeningLevel) -> (u64, u64) {
    run_campaign_cfg(plan, HoardConfig::new().with_hardening(hardening))
}

fn run_campaign_cfg(plan: FaultPlan, cfg: HoardConfig) -> (u64, u64) {
    let source = InjectingSource::new(SystemSource::new(), plan);
    let mut successes = 0u64;
    let mut failures = 0u64;
    {
        // `&source` is itself a ChunkSource, so the original stays
        // inspectable after the allocator (and its Drop) are gone.
        let alloc = HoardAllocator::with_source(cfg, &source).unwrap();
        let mut rng = 0x5EED_u64;
        let mut live: Vec<(std::ptr::NonNull<u8>, usize)> = Vec::new();
        for round in 0..OPS {
            let size = SIZES[round % SIZES.len()];
            match unsafe { alloc.allocate(size) } {
                Some(p) => {
                    // The memory must be real: write it end to end.
                    unsafe { std::ptr::write_bytes(p.as_ptr(), round as u8, size) };
                    live.push((p, size));
                    successes += 1;
                }
                None => failures += 1,
            }
            // Free roughly half the time so superblocks drain, migrate
            // to the global heap, and get fetched back.
            if !live.is_empty() && lcg(&mut rng).is_multiple_of(2) {
                let victim = live.swap_remove(lcg(&mut rng) as usize % live.len());
                unsafe { alloc.deallocate(victim.0) };
            }
        }
        for (p, _) in live.drain(..) {
            unsafe { alloc.deallocate(p) };
        }
        // With the magazine front-end on, the final frees sit parked in
        // thread-local magazines; return them before the quiescence
        // asserts. A no-op when the front-end is disabled.
        alloc.flush_frontend();
        debug::check_invariants(&alloc)
            .unwrap_or_else(|e| panic!("invariants broken under {plan:?}: {e:?}"));
        assert_eq!(
            alloc.stats().live_current,
            0,
            "all blocks drained under {plan:?}"
        );
        assert_eq!(
            alloc.corruption_log().total(),
            0,
            "injected OOM must never read as corruption ({plan:?})"
        );
    }
    assert_eq!(
        source.stats().held_current,
        0,
        "leaked chunks under {plan:?}"
    );
    assert!(
        source.injected_failures() > 0 || matches!(plan, FaultPlan::Burst { len: 0, .. }),
        "plan {plan:?} never fired; campaign not exercising the OOM paths"
    );
    (successes, failures)
}

#[test]
fn every_nth_failures_are_clean() {
    for n in [1, 2, 3, 7] {
        let plan = FaultPlan::EveryNth { n };
        for level in [HardeningLevel::Off, HardeningLevel::Full] {
            let (successes, failures) = run_campaign(plan, level);
            assert!(failures > 0, "n={n} must produce visible failures");
            if n > 1 {
                assert!(successes > 0, "n={n} must still serve most requests");
            }
        }
    }
}

#[test]
fn probabilistic_failures_are_clean_across_rates_and_seeds() {
    for p_permille in [10, 100, 500] {
        for seed in [1, 0xDEAD_BEEF] {
            let plan = FaultPlan::Probability { p_permille, seed };
            let (successes, _) = run_campaign(plan, HardeningLevel::Full);
            assert!(successes > 0);
        }
    }
}

#[test]
fn burst_outage_recovers() {
    // An outage window mid-run: everything before and after succeeds.
    let plan = FaultPlan::Burst { start: 20, len: 40 };
    let (successes, failures) = run_campaign(plan, HardeningLevel::Full);
    assert!(successes > 0);
    // OOM recovery reclaims hoarded empties, so some calls inside the
    // window may still be served; the plan itself must have fired.
    assert!(failures <= 40, "at most the window can fail");
}

#[test]
fn transient_startup_pressure_recovers() {
    let plan = FaultPlan::TransientThenRecover { fail_first: 10 };
    let (successes, failures) = run_campaign(plan, HardeningLevel::Basic);
    assert!(successes > 0, "post-recovery traffic must succeed");
    assert!(failures <= 10);
}

#[test]
fn fault_storms_with_magazines_enabled() {
    // The front-end adds two OOM-sensitive paths: a refill whose
    // waterfall ends at a failing chunk source (must return 0, fall
    // back cleanly, and leave the heap invariant-clean) and the
    // reclaim pass that parks magazine contents to recover empties.
    // Same contract as the seed campaign: clean Nones, no corruption,
    // no leaks.
    for plan in [
        FaultPlan::EveryNth { n: 2 },
        FaultPlan::EveryNth { n: 7 },
        FaultPlan::Probability {
            p_permille: 100,
            seed: 0xBEEF,
        },
        FaultPlan::Burst { start: 20, len: 40 },
    ] {
        for level in [HardeningLevel::Off, HardeningLevel::Full] {
            let cfg = HoardConfig::with_default_magazines().with_hardening(level);
            let (successes, _) = run_campaign_cfg(plan, cfg);
            assert!(successes > 0, "magazines + {plan:?} must serve requests");
        }
    }
}

#[test]
fn oom_recovery_rescues_allocations_from_hoarded_empties() {
    // Build up empty-superblock slack under a byte budget, then ask for
    // more than the remaining budget: the allocator must rescue the
    // request by returning its hoarded empties to the source first.
    let source = hoard_mem::LimitedSource::new(SystemSource::new(), 200_000);
    let alloc = HoardAllocator::with_source(HoardConfig::new(), &source).unwrap();
    unsafe {
        // Many 2048-byte blocks: a stack of superblocks, all within
        // budget.
        let ptrs: Vec<_> = (0..60).map(|_| alloc.allocate(2048).unwrap()).collect();
        for p in ptrs {
            alloc.deallocate(p);
        }
        // Everything is free again, but the drained superblocks are
        // still *held* — per-heap slack plus the global pool — so a
        // ~100 KiB large object blows the budget unless they go back.
        assert!(source.stats().held_current > 100_000);
        let p = alloc.allocate(100_000).expect("rescued by reclamation");
        alloc.deallocate(p);
    }
    let rec = alloc.recovery_stats();
    assert!(rec.chunk_reclaims > 0, "empties were returned to the source");
    assert!(rec.rescued_allocations > 0, "the large request was rescued");
    debug::check_invariants(&alloc).expect("consistent after recovery");
    drop(alloc);
    assert_eq!(source.stats().held_current, 0);

    // The mirror case: parked large chunks hold the budget, and a small
    // request that needs a superblock is rescued by draining the pool.
    let source = hoard_mem::LimitedSource::new(SystemSource::new(), 200_000);
    let alloc = HoardAllocator::with_source(HoardConfig::new(), &source).unwrap();
    unsafe {
        // Six 8-page chunks, out at once (so all six may stay parked).
        let ptrs: Vec<_> = (0..6).map(|_| alloc.allocate(32_000).unwrap()).collect();
        for p in ptrs {
            alloc.deallocate(p);
        }
        assert_eq!(source.stats().held_current, 6 * 32_768);
        let p = alloc.allocate(2048).expect("rescued by draining the pool");
        alloc.deallocate(p);
    }
    let rec = alloc.recovery_stats();
    assert_eq!((rec.chunk_reclaims, rec.rescued_allocations), (6, 1));
    debug::check_invariants(&alloc).expect("consistent after recovery");
    drop(alloc);
    assert_eq!(source.stats().held_current, 0);
}

#[test]
fn concurrent_storm_under_probabilistic_faults() {
    // Four threads hammering a shared allocator while the source fails
    // 10% of chunk calls: no panics, no leaks, invariants hold. The
    // interleaving is nondeterministic; the assertions are not.
    let source = InjectingSource::new(
        SystemSource::new(),
        FaultPlan::Probability {
            p_permille: 100,
            seed: 7,
        },
    );
    {
        let alloc = HoardAllocator::with_source(
            HoardConfig::new().with_hardening(HardeningLevel::Full),
            &source,
        )
        .unwrap();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let alloc = &alloc;
                s.spawn(move || {
                    let mut rng = 0xACE0 + t as u64;
                    let mut live = Vec::new();
                    for round in 0..2000usize {
                        let size = SIZES[(round + t) % SIZES.len()];
                        if let Some(p) = unsafe { alloc.allocate(size) } {
                            unsafe { std::ptr::write_bytes(p.as_ptr(), t as u8, size) };
                            live.push(p.as_ptr() as usize);
                        }
                        if !live.is_empty() && lcg(&mut rng).is_multiple_of(2) {
                            let v = live.swap_remove(lcg(&mut rng) as usize % live.len());
                            unsafe {
                                alloc.deallocate(std::ptr::NonNull::new_unchecked(v as *mut u8))
                            };
                        }
                    }
                    for v in live {
                        unsafe {
                            alloc.deallocate(std::ptr::NonNull::new_unchecked(v as *mut u8))
                        };
                    }
                });
            }
        });
        assert_eq!(alloc.stats().live_current, 0);
        assert_eq!(alloc.corruption_log().total(), 0);
        debug::check_invariants(&alloc).expect("consistent after concurrent storm");
    }
    assert_eq!(source.stats().held_current, 0, "no leaked chunks");
}
