//! The lock-free back-end's contracts (DESIGN.md §11):
//!
//! * **off = seed**: with `lockfree_backend` off the allocator is the
//!   locked back-end, bit for bit — layout, lock traffic, and virtual
//!   time are deterministic and unchanged by the feature's existence;
//! * **on = lock-free**: front-end-class traffic takes zero heap-lock
//!   acquisitions; remote frees ride the packed 64-bit CAS word;
//!   superblock transfers ride the Treiber-stack cache;
//! * **races**: owner migration (slot → cache → slot/heap) racing
//!   remote pushes, packed drains, and steal-drains never corrupts the
//!   structures — every schedule ends consistent under full validation;
//! * the emptiness-invariant postcondition and the blowup bound survive
//!   lock-free transfers in both configurations.

use hoard_core::{debug, HoardAllocator, HoardConfig, TraceConfig, TraceLog, TraceSink};
use hoard_mem::MtAllocator;
use std::ptr::NonNull;
use std::sync::Arc;

fn lockfree() -> HoardConfig {
    HoardConfig::with_lockfree()
}

/// Mixed-size single-threaded churn over front-end classes, returning
/// the allocation addresses in order.
fn churn(h: &HoardAllocator, rounds: usize) -> Vec<usize> {
    let mut addrs = Vec::new();
    let mut live: Vec<NonNull<u8>> = Vec::new();
    for i in 0..rounds {
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

/// Address normalization from `tests/telemetry.rs`: (page index in
/// order of first appearance, offset) — stable across instances whose
/// layout decisions agree.
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

/// Per-track events rebased to the run's first timestamp: the virtual
/// clock is global and monotonic across runs, so absolute stamps always
/// differ — the event *sequence and spacing* is what must not drift.
fn rebase(log: &TraceLog) -> Vec<Vec<(u64, String, u32, u64)>> {
    let t0 = log
        .tracks
        .iter()
        .filter_map(|t| t.events.first().map(|e| e.ts))
        .min()
        .unwrap_or(0);
    log.tracks
        .iter()
        .map(|t| {
            t.events
                .iter()
                .map(|e| (e.ts - t0, e.kind.label().to_string(), e.arg0, e.arg1))
                .collect()
        })
        .collect()
}

/// The ablation contract: `lockfree_backend = false` (the default) IS
/// the seed allocator. Two spellings of the off configuration produce
/// identical traces (event-for-event, with identical virtual spacing),
/// identical layout decisions, identical lock traffic, and identical
/// virtual time — the back-end's existence is invisible until on.
#[test]
fn lockfree_off_is_bit_identical_to_the_locked_backend() {
    let run = |cfg: HoardConfig| {
        let h = HoardAllocator::with_config(cfg).unwrap();
        let sink = Arc::new(TraceSink::with_config(TraceConfig {
            tracks: 2,
            capacity: 1 << 16,
        }));
        h.attach_tracer(Arc::clone(&sink));
        let t0 = hoard_sim::now();
        let addrs = churn(&h, 4_000);
        let dt = hoard_sim::now() - t0;
        let log = sink.collect();
        assert_eq!(log.dropped, 0);
        (normalize(&addrs), dt, h.heap_lock_stats(), rebase(&log))
    };
    let seed = run(HoardConfig::with_default_magazines());
    let off = run(HoardConfig::with_default_magazines().with_lockfree_backend(false));
    assert_eq!(seed.0, off.0, "layout decisions must not drift");
    assert_eq!(seed.1, off.1, "virtual time must not drift");
    assert_eq!(seed.2, off.2, "lock traffic must not drift");
    assert_eq!(seed.3, off.3, "traces must not drift");
}

/// With the back-end on, single-threaded front-end-class traffic never
/// touches a heap lock: refills come from slot heaps and the cache,
/// flushes and invariant restoration push back over CAS.
#[test]
fn lockfree_front_end_traffic_takes_zero_heap_locks() {
    let h = HoardAllocator::with_config(lockfree()).unwrap();
    churn(&h, 6_000);
    let (acqs, _) = h.heap_lock_stats();
    assert_eq!(acqs, 0, "lock-free churn acquired {acqs} heap locks");
    assert_eq!(h.stats().live_current, 0);
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    let (to_global, _) = h.transfer_counts();
    assert!(to_global > 0, "churn must retire superblocks to the cache");
    // Flushing the front-end parks everything in the cache; the next
    // churn must adopt it back — still without a single heap lock
    // (flushing itself may sweep the locked heaps, so sample after it).
    h.flush_frontend();
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    assert_eq!(v.total_u(), 0);
    let (acqs_after_flush, _) = h.heap_lock_stats();
    churn(&h, 2_000);
    let (_, from_global) = h.transfer_counts();
    assert!(from_global > 0, "refills must adopt from the cache");
    let (acqs, _) = h.heap_lock_stats();
    assert_eq!(
        acqs, acqs_after_flush,
        "adopting from the cache must not lock"
    );
}

/// Satellite regression for the `fetch_from_global` fix: the global
/// heap's lock now covers only list surgery + accounting + the
/// ownership handoff — the superblock reformat and the transfer charge
/// run after it drops. Asserted through the metrics registry's lock
/// telemetry: during a fetch-heavy phase, the *mean* virtual hold of
/// heap 0's lock must be below one `Cost::SuperblockTransfer`, which
/// the pre-fix code paid inside the critical section.
#[test]
fn global_fetch_holds_exclude_reformat_and_transfer_costs() {
    let h = HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap();
    let registry = Arc::new(h.new_metrics_registry());
    h.attach_metrics(Arc::clone(&registry));
    unsafe {
        // Phase 1: park superblocks on the global heap (allocate a
        // burst of one class, free it all, flush).
        let burst: Vec<_> = (0..2_000).map(|_| h.allocate(128).unwrap()).collect();
        for p in burst {
            h.deallocate(p);
        }
        h.flush_frontend();
        let before = h.metrics_snapshot().unwrap();
        assert!(
            h.transfer_counts().0 > 0,
            "phase 1 must push superblocks to the global heap"
        );
        // Phase 2: allocate a *different* class — every refill that
        // reaches the global heap pops an empty superblock and
        // reformats it (the expensive step the lock no longer covers).
        let burst: Vec<_> = (0..2_000).map(|_| h.allocate(256).unwrap()).collect();
        let after = h.metrics_snapshot().unwrap();
        let d = after.delta(&before);
        let g0 = d
            .heaps
            .iter()
            .find(|m| m.heap == 0)
            .expect("phase 2 fetched from the global heap");
        assert!(g0.lock_acquires > 0);
        let mean_hold = g0.lock_hold_units as f64 / g0.lock_acquires as f64;
        let transfer = hoard_sim::CostModel::current().superblock_transfer as f64;
        assert!(
            mean_hold < transfer,
            "global-heap lock held for {mean_hold} units on average; \
             the reformat/transfer work (>= {transfer}) is back under the lock"
        );
        for p in burst {
            h.deallocate(p);
        }
    }
}

/// Producer–consumer across the packed remote word: every consumer
/// free is foreign, so it rides the 64-bit CAS stack; the producer's
/// refills drain them in one exchange. The paper's blowup pattern must
/// stay bounded with no heap locks on either side.
#[test]
fn packed_remote_word_carries_producer_consumer_traffic() {
    #[derive(Clone, Copy)]
    struct Payload(usize);
    unsafe impl Send for Payload {}

    let h = Arc::new(HoardAllocator::with_config(lockfree()).unwrap());
    let (tx, rx) = std::sync::mpsc::sync_channel::<Payload>(128);
    let producer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            for i in 0..20_000usize {
                let p = unsafe { h.allocate(8 + (i % 200)) }.unwrap();
                tx.send(Payload(p.as_ptr() as usize)).unwrap();
            }
        })
    };
    let consumer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            let mut n = 0usize;
            while let Ok(pl) = rx.recv() {
                unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
                n += 1;
            }
            n
        })
    };
    producer.join().unwrap();
    assert_eq!(consumer.join().unwrap(), 20_000);

    let snap = h.stats();
    assert_eq!(snap.live_current, 0);
    assert!(snap.remote_frees > 0, "consumer frees are remote");
    assert!(
        snap.magazines.remote_pushes > 0,
        "remote frees must ride the packed CAS word"
    );
    assert!(
        snap.magazines.remote_drains > 0,
        "owners must drain the packed word"
    );
    assert!(
        snap.held_peak <= 64 * h.config().superblock_size as u64,
        "producer-consumer blowup: held_peak = {}",
        snap.held_peak
    );
    h.flush_frontend();
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}

/// A remote word crossing its threshold while the owning slot is idle:
/// the freeing thread steals the slot's claim and drains in place —
/// no owner intervention, no heap lock.
#[test]
fn overflowing_remote_word_is_stolen_and_drained() {
    let h = Arc::new(HoardAllocator::with_config(lockfree()).unwrap());
    // Owner thread allocates a superblock's worth of one class and
    // parks the blocks; its magazine slot then sits idle.
    let blocks: Vec<usize> = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            (0..512)
                .map(|_| unsafe { h.allocate(64) }.unwrap().as_ptr() as usize)
                .collect()
        })
        .join()
        .unwrap()
    };
    let drains_before = h.stats().magazines.remote_drains;
    // This thread frees them all: every free is foreign, and the
    // packed word repeatedly crosses `remote_limit`, forcing the
    // steal-drain path against the idle owner slot.
    for addr in blocks {
        unsafe { h.deallocate(NonNull::new_unchecked(addr as *mut u8)) };
    }
    assert!(
        h.stats().magazines.remote_drains > drains_before,
        "crossing the remote threshold must force a steal-drain"
    );
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}

/// Schedule exploration: several seeds' worth of threads interleaving
/// remote pushes, packed drains, slot-steals, retirements to the cache
/// (owner → 0) and adoptions out of it (0 → owner) — the full
/// owner-migration surface — with validation at each quiescent point.
#[test]
fn migration_races_end_consistent_across_schedules() {
    for seed in [0x1u64, 0x5EED, 0xDEAD_BEEF] {
        let h = Arc::new(HoardAllocator::with_config(lockfree()).unwrap());
        std::thread::scope(|s| {
            for t in 0..6 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    let mut rng = seed ^ ((t as u64 + 1) * 0x9E37_79B9);
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let mut live: Vec<usize> = Vec::new();
                    for _ in 0..4_000usize {
                        match next() % 4 {
                            // Burst-allocate: refills, adoptions, fresh chunks.
                            0 => {
                                for _ in 0..(next() % 48) {
                                    let size = 8 + (next() % 500) as usize;
                                    let p = unsafe { h.allocate(size) }.unwrap();
                                    live.push(p.as_ptr() as usize);
                                }
                            }
                            // Burst-free: flushes, drains, retirements.
                            1 => {
                                let n = (next() as usize % 64).min(live.len());
                                for _ in 0..n {
                                    let idx = next() as usize % live.len();
                                    let a = live.swap_remove(idx);
                                    unsafe {
                                        h.deallocate(NonNull::new_unchecked(a as *mut u8))
                                    };
                                }
                            }
                            // Steady churn.
                            _ => {
                                let size = 8 + (next() % 500) as usize;
                                let p = unsafe { h.allocate(size) }.unwrap();
                                if next() % 2 == 0 {
                                    unsafe { h.deallocate(p) };
                                } else {
                                    live.push(p.as_ptr() as usize);
                                }
                            }
                        }
                        if live.len() > 512 {
                            // Cap the working set so retirements happen.
                            while live.len() > 256 {
                                let a = live.pop().unwrap();
                                unsafe {
                                    h.deallocate(NonNull::new_unchecked(a as *mut u8))
                                };
                            }
                        }
                    }
                    for a in live {
                        unsafe { h.deallocate(NonNull::new_unchecked(a as *mut u8)) };
                    }
                });
            }
        });
        assert_eq!(h.stats().live_current, 0, "seed {seed:#x}");
        let (to_global, from_global) = h.transfer_counts();
        assert!(to_global > 0, "seed {seed:#x}: no retirements raced");
        assert!(from_global > 0, "seed {seed:#x}: no adoptions raced");
        h.flush_frontend();
        let v = debug::validate(&h);
        assert!(v.is_consistent(), "seed {seed:#x}: {:?}", v.errors);
        assert_eq!(v.total_u(), 0, "seed {seed:#x}");
    }
}

/// The paper's emptiness-invariant postcondition — a size class of a
/// heap violating `u_c ≥ a_c − K·S ∨ u_c ≥ (1−f)·a_c` holds no f-empty
/// superblock of that class, and a heap violating the heap-wide form
/// holds no empty one (a slot heap keeps one `u`/`a` pair and answers
/// to the heap-wide form alone) — must hold at quiescence in BOTH
/// back-ends, on the same workload.
#[test]
fn emptiness_postcondition_holds_in_both_backends() {
    for cfg in [
        HoardConfig::with_default_magazines(),
        HoardConfig::with_lockfree(),
    ] {
        let on = cfg.lockfree_backend;
        let h = HoardAllocator::with_config(cfg).unwrap();
        unsafe {
            let mut live = Vec::new();
            for i in 0..3_000usize {
                live.push(h.allocate(8 + (i * 29) % 400).unwrap());
                if i % 2 == 0 {
                    let victim = live.swap_remove((i * 13) % live.len());
                    h.deallocate(victim);
                }
            }
            for p in live {
                h.deallocate(p);
            }
        }
        h.flush_frontend();
        let v = debug::validate(&h);
        assert!(v.is_consistent(), "lockfree={on}: {:?}", v.errors);
        for obs in &v.heaps {
            // Index 0 is the global heap (or the cache): exempt, like
            // the paper's global heap.
            if obs.index == 0 {
                continue;
            }
            assert!(
                obs.emptiness_postcondition_holds(),
                "lockfree={on}: domain {} violates the invariant while \
                 holding an f-empty superblock (u={} a={} empties={} classes={:?})",
                obs.index,
                obs.u,
                obs.a,
                obs.empties,
                obs.classes
            );
        }
        // Blowup stays bounded: everything is freed, so held memory is
        // pure slack — superblocks parked across heaps, slots, and the
        // global domain, each domain bounded by the invariant.
        assert_eq!(h.stats().live_current, 0);
        let superblocks: usize = v.heaps.iter().map(|o| o.superblocks).sum();
        assert_eq!(
            h.stats().held_current,
            (superblocks * h.config().superblock_size) as u64,
            "lockfree={on}: held memory beyond scanned superblocks"
        );
    }
}

/// Hardened lock-free mode: the mask-derived foreign-pointer check and
/// the registry round-trip — forged interior pointers are rejected,
/// honest traffic is clean, double frees are caught.
#[test]
fn hardened_lockfree_rejects_forged_and_double_frees() {
    let h = HoardAllocator::with_config(
        lockfree().with_hardening(hoard_core::HardeningLevel::Basic),
    )
    .unwrap();
    unsafe {
        let p = h.allocate(64).unwrap();
        // Interior pointer: rejected by the header/mask checks, not fatal.
        let forged = NonNull::new_unchecked(p.as_ptr().add(8));
        h.deallocate(forged);
        assert_eq!(h.corruption_log().total(), 1, "forged pointer rejected");
        h.deallocate(p);
        h.deallocate(p); // double free
        assert_eq!(h.corruption_log().total(), 2, "double free rejected");
        // Honest traffic stays clean.
        let live: Vec<_> = (0..500).map(|i| h.allocate(8 + i % 300).unwrap()).collect();
        for q in live {
            h.deallocate(q);
        }
        assert_eq!(h.corruption_log().total(), 2);
    }
    h.flush_frontend();
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}
