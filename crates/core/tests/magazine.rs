//! Integration tests for the thread-local magazine front-end: the
//! `Frontend::Off` ablation (exact seed behaviour), quiescence
//! via `flush_frontend`, emptiness accounting of parked blocks, the
//! deferred remote-free protocol on the packed remote word under real
//! threads, the owner-migration retry race in `free_small`, and the
//! global heap's lock holds.

use hoard_core::{debug, Frontend, HoardAllocator, HoardConfig, Probe};
use hoard_mem::MtAllocator;
use std::ptr::NonNull;
use std::sync::Arc;

/// Wrapper making raw payload addresses sendable between threads.
#[derive(Clone, Copy)]
struct Payload(usize);
unsafe impl Send for Payload {}

fn mag_on() -> HoardAllocator {
    HoardAllocator::with_config(HoardConfig::with_default_magazines()).unwrap()
}

/// A fixed single-thread trace: mixed sizes, interleaved frees.
/// Returns each handed-out address normalized to (page index in order
/// of first appearance, offset within the page), so two allocator
/// instances with identical *layout decisions* compare equal even
/// though their chunks land at different OS addresses. Pages, not
/// superblocks: chunks are only CHUNK_ALIGN (4096)-aligned, so the
/// page decomposition is the finest one stable across instances.
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

fn trace(h: &HoardAllocator) -> Vec<usize> {
    let mut addrs = Vec::new();
    let mut live: Vec<(NonNull<u8>, usize)> = Vec::new();
    for i in 0..4_000usize {
        let size = 8 + (i * 37) % 500;
        let p = unsafe { h.allocate(size) }.unwrap();
        addrs.push(p.as_ptr() as usize);
        live.push((p, size));
        if i % 3 == 0 {
            let (victim, _) = live.swap_remove((i * 31) % live.len());
            unsafe { h.deallocate(victim) };
        }
    }
    for (p, _) in live {
        unsafe { h.deallocate(p) };
    }
    addrs
}

#[test]
fn frontend_off_is_bit_identical_to_the_seed_paths() {
    // The ablation gate: with the front-end disabled, every operation
    // must take exactly the pre-magazine code paths. Single-threaded
    // allocation is deterministic, so the address sequences (and the
    // lock counts) of a default-config allocator and the magazine
    // configuration with its front-end switched off must match exactly.
    let a = HoardAllocator::new_default();
    let b = HoardAllocator::with_config(HoardConfig {
        frontend: Frontend::Off,
        ..HoardConfig::with_default_magazines()
    })
    .unwrap();
    assert_eq!(
        normalize(&trace(&a)),
        normalize(&trace(&b)),
        "a front-end that is off must not perturb layout"
    );
    assert_eq!(a.heap_lock_stats().0, b.heap_lock_stats().0);
    for h in [&a, &b] {
        let m = h.stats().magazines;
        assert_eq!(
            (m.alloc_hits, m.free_hits, m.refills, m.flushes, m.remote_pushes),
            (0, 0, 0, 0, 0),
            "front-end counters must stay silent when disabled"
        );
    }
}

#[test]
fn magazines_change_lock_traffic_not_outcomes() {
    // Same trace with the front-end on: far fewer lock acquisitions,
    // identical external behaviour (everything freed, heap consistent).
    let plain = HoardAllocator::new_default();
    let mag = mag_on();
    trace(&plain);
    trace(&mag);
    let (plain_acqs, _) = plain.heap_lock_stats();
    let (mag_acqs, _) = mag.heap_lock_stats();
    assert!(
        mag_acqs * 5 < plain_acqs,
        "front-end must bypass most heap locks: {mag_acqs} vs {plain_acqs}"
    );
    let m = mag.stats().magazines;
    assert!(m.alloc_hits > 0 && m.refills > 0);
    mag.flush_frontend();
    assert_eq!(mag.stats().live_current, 0);
    let v = debug::validate(&mag);
    assert!(v.is_consistent(), "{:?}", v.errors);
    assert_eq!(v.total_u(), 0, "flush returns every parked block");
}

#[test]
fn magazines_bypass_the_heap_lock_on_single_thread_churn() {
    // The front-end's contract on the single-thread hot paths: 40 000
    // allocate/free pairs, as pair churn (each block freed right after
    // its allocation) and as batch churn (400 batches of 100
    // allocations, then their frees, LIFO). The ceilings are exact: a
    // change that sends one more of these operations through a heap lock
    // fails here.
    // Batch churn at 512 B takes four times as many as at 8 or 64 B: a
    // refill pulls at most a quarter of a superblock, 4 blocks of 512 B.
    const PAIRS: usize = 40_000;
    const BATCH: usize = 100;
    for (size, pair_ceiling, batch_ceiling) in [(8, 2, 4_003), (64, 2, 4_003), (512, 2, 16_677)] {
        let pair = mag_on();
        for _ in 0..PAIRS {
            let p = unsafe { pair.allocate(size) }.unwrap();
            unsafe { pair.deallocate(p) };
        }
        let batch = mag_on();
        let mut ptrs = Vec::with_capacity(BATCH);
        for _ in 0..PAIRS / BATCH {
            ptrs.extend((0..BATCH).map(|_| unsafe { batch.allocate(size) }.unwrap()));
            for p in ptrs.drain(..) {
                unsafe { batch.deallocate(p) };
            }
        }
        for (pattern, h, ceiling) in [("pair", &pair, pair_ceiling), ("batch", &batch, batch_ceiling)] {
            let (acqs, _) = h.heap_lock_stats();
            assert!(
                acqs <= ceiling,
                "{pattern} churn at {size} B: {acqs} heap-lock acquisitions, ceiling {ceiling}"
            );
            assert_eq!(h.stats().allocs, PAIRS as u64, "{pattern} churn at {size} B");
        }
    }
}

#[test]
fn parked_blocks_stay_counted_in_u() {
    // The emptiness invariant stays provable because magazine-held
    // blocks are treated as allocated: freeing into a magazine must NOT
    // lower the heap's u; flushing must.
    let h = mag_on();
    let ptrs: Vec<_> = (0..8).map(|_| unsafe { h.allocate(64) }.unwrap()).collect();
    let u_live = debug::validate(&h).total_u();
    assert!(u_live > 0);
    for p in ptrs {
        unsafe { h.deallocate(p) };
    }
    // All eight fit in one magazine (capacity >= 8): u unchanged.
    assert_eq!(
        debug::validate(&h).total_u(),
        u_live,
        "magazine-parked blocks must stay in u"
    );
    assert_eq!(h.stats().live_current, 0, "but the app-facing count drops");
    h.flush_frontend();
    assert_eq!(debug::validate(&h).total_u(), 0, "flush releases them");
}

#[test]
fn deferred_remote_frees_drain_back_to_the_owner() {
    // Producer allocates on its heap; consumer frees on another thread.
    // With magazines on, those frees ride the superblock's deferred
    // stack (remote_pushes) and are recovered by the producer's refills
    // (remote_drains); nothing is lost at quiescence.
    let h = Arc::new(mag_on());
    let (tx, rx) = std::sync::mpsc::sync_channel::<Payload>(256);
    let producer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            for i in 0..20_000usize {
                let size = 8 + (i % 12) * 16;
                let p = unsafe { h.allocate(size) }.unwrap();
                tx.send(Payload(p.as_ptr() as usize)).unwrap();
            }
        })
    };
    let consumer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            while let Ok(p) = rx.recv() {
                unsafe { h.deallocate(NonNull::new_unchecked(p.0 as *mut u8)) };
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();
    let m = h.stats().magazines;
    assert!(m.remote_pushes > 0, "consumer frees must defer: {m:?}");
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    assert_eq!(v.total_u(), 0, "every deferred block recovered");
}

#[test]
fn owner_migration_retry_loses_no_blocks() {
    // The free/migration race: `free_small` reads the superblock's
    // owner, locks that heap, and must re-check the owner — a
    // concurrent `restore_invariant` may have migrated the superblock
    // to the global heap between the read and the lock. This hammers
    // exactly that window: one thread churns enough to keep
    // migrations flowing (K = 0 makes every drained superblock
    // eligible), others free its blocks remotely.
    let cfg = HoardConfig::with_default_magazines().with_slack(0);
    let h = Arc::new(HoardAllocator::with_config(cfg).unwrap());
    let (tx, rx) = std::sync::mpsc::sync_channel::<Payload>(64);
    // std's receiver is single-consumer: the freers take turns waiting
    // on it, and free with the lock released.
    let rx = Arc::new(std::sync::Mutex::new(rx));
    let churner = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            let mut held: Vec<NonNull<u8>> = Vec::new();
            for i in 0..30_000usize {
                let p = unsafe { h.allocate(8 + (i % 4) * 8) }.unwrap();
                if i % 2 == 0 {
                    tx.send(Payload(p.as_ptr() as usize)).unwrap();
                } else {
                    held.push(p);
                }
                // Free bursts force f-emptiness crossings -> migrations,
                // and overflow the four classes' magazines -> flushes.
                if held.len() >= 256 {
                    for q in held.drain(..) {
                        unsafe { h.deallocate(q) };
                    }
                }
            }
            for q in held {
                unsafe { h.deallocate(q) };
            }
        })
    };
    let remote_freers: Vec<_> = (0..3)
        .map(|_| {
            let h = Arc::clone(&h);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || {
                let next = || rx.lock().unwrap().recv();
                while let Ok(p) = next() {
                    unsafe { h.deallocate(NonNull::new_unchecked(p.0 as *mut u8)) };
                }
            })
        })
        .collect();
    churner.join().unwrap();
    drop(rx);
    for t in remote_freers {
        t.join().unwrap();
    }
    assert!(h.stats().magazines.flushes > 0, "the bursts overflow magazines");
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0, "no block lost in the race");
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    assert_eq!(v.total_u(), 0);
}

#[test]
fn refill_survives_a_drain_that_empties_the_superblock() {
    // Regression: a refill that selects a superblock and then drains
    // its deferred stack can empty it completely — the drain re-homes
    // it onto the empty list, and allocating from it without
    // reselecting corrupted the fullness groups (debug_assert "relink
    // of an empty-list superblock"). Alternate phases where one side
    // frees *everything* the other allocated, so refill-time drains
    // routinely empty superblocks.
    let h = Arc::new(mag_on());
    let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<Payload>>(4);
    let alloc_side = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            for _ in 0..200 {
                let batch: Vec<Payload> = (0..256)
                    .map(|_| {
                        let p = unsafe { h.allocate(32) }.unwrap();
                        Payload(p.as_ptr() as usize)
                    })
                    .collect();
                tx.send(batch).unwrap();
            }
        })
    };
    let free_side = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            while let Ok(batch) = rx.recv() {
                for p in batch {
                    unsafe { h.deallocate(NonNull::new_unchecked(p.0 as *mut u8)) };
                }
            }
        })
    };
    alloc_side.join().unwrap();
    free_side.join().unwrap();
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}

#[test]
fn flush_frontend_is_a_noop_when_disabled() {
    let h = HoardAllocator::new_default();
    let p = unsafe { h.allocate(64) }.unwrap();
    h.flush_frontend();
    unsafe { h.deallocate(p) };
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    assert!(debug::validate(&h).is_consistent());
}

/// Producer–consumer across the packed remote word: every consumer
/// free is foreign, so it rides the superblock's 64-bit CAS stack until
/// the stack reaches `remote_limit`, and the producer's refills drain
/// what it holds in one exchange. The paper's blowup pattern stays
/// bounded.
#[test]
fn packed_remote_word_carries_producer_consumer_traffic() {
    let h = Arc::new(mag_on());
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

/// A remote word reaching `remote_limit` while its owner sits idle: the
/// freeing thread's next free of that superblock takes the locked path,
/// locks the owner's heap and drains the stack there — no owner
/// intervention needed.
#[test]
fn overflowing_remote_word_is_stolen_and_drained() {
    let h = Arc::new(mag_on());
    // Owner thread allocates a superblock's worth of one class and
    // parks the blocks; its heap then sits idle.
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
    // packed word repeatedly reaches `remote_limit`, forcing the drain
    // under the idle owner's lock.
    for addr in blocks {
        unsafe { h.deallocate(NonNull::new_unchecked(addr as *mut u8)) };
    }
    assert!(
        h.stats().magazines.remote_drains > drains_before,
        "reaching the remote limit must force a drain"
    );
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}

/// Schedule exploration: several seeds' worth of threads interleaving
/// remote pushes, drains, flushes, migrations to the global heap
/// (owner → 0) and fetches back out of it (0 → owner) — the full
/// owner-migration surface — with validation at each quiescent point.
#[test]
fn migration_races_end_consistent_across_schedules() {
    for seed in [0x1u64, 0x5EED, 0xDEAD_BEEF] {
        let h = Arc::new(mag_on());
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
                    // One size in eight is of a class too big for the
                    // front-end, freed on the locked path.
                    let size = |r: u64| {
                        if r.is_multiple_of(8) {
                            600 + (r >> 8) as usize % 3000
                        } else {
                            8 + (r >> 8) as usize % 500
                        }
                    };
                    let mut live: Vec<usize> = Vec::new();
                    for _ in 0..4_000usize {
                        match next() % 4 {
                            // Burst-allocate: refills, fetches, fresh chunks.
                            0 => {
                                for _ in 0..(next() % 48) {
                                    let p = unsafe { h.allocate(size(next())) }.unwrap();
                                    live.push(p.as_ptr() as usize);
                                }
                            }
                            // Burst-free: flushes, drains, migrations.
                            1 => {
                                let n = (next() as usize % 64).min(live.len());
                                for _ in 0..n {
                                    let idx = next() as usize % live.len();
                                    let a = live.swap_remove(idx);
                                    unsafe { h.deallocate(NonNull::new_unchecked(a as *mut u8)) };
                                }
                            }
                            // Steady churn.
                            _ => {
                                let p = unsafe { h.allocate(size(next())) }.unwrap();
                                if next() % 2 == 0 {
                                    unsafe { h.deallocate(p) };
                                } else {
                                    live.push(p.as_ptr() as usize);
                                }
                            }
                        }
                        if live.len() > 512 {
                            // Cap the working set so migrations happen.
                            while live.len() > 256 {
                                let a = live.pop().unwrap();
                                unsafe { h.deallocate(NonNull::new_unchecked(a as *mut u8)) };
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
        assert!(to_global > 0, "seed {seed:#x}: no migrations raced");
        assert!(from_global > 0, "seed {seed:#x}: no fetches raced");
        // Quiescent but unflushed: blocks still sit in magazines and on
        // deferred stacks, and the books must agree with the walk.
        let v = debug::validate(&h);
        assert!(v.is_consistent(), "seed {seed:#x}: {:?}", v.errors);
        h.flush_frontend();
        let v = debug::validate(&h);
        assert!(v.is_consistent(), "seed {seed:#x}: {:?}", v.errors);
        assert_eq!(v.total_u(), 0, "seed {seed:#x}");
    }
}

/// The paper's emptiness-invariant postcondition — a size class of a
/// heap violating `u_c ≥ a_c − K·S ∨ u_c ≥ (1−f)·a_c` holds no f-empty
/// superblock of that class, and a heap violating the heap-wide form
/// holds no empty one — must hold at quiescence with the front-end on
/// and off, on the same workload.
#[test]
fn emptiness_postcondition_holds_with_and_without_magazines() {
    for cfg in [HoardConfig::new(), HoardConfig::with_default_magazines()] {
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
        assert!(v.is_consistent(), "{cfg:?}: {:?}", v.errors);
        for obs in &v.heaps {
            // Index 0 is the global heap: exempt, like the paper's.
            if obs.index == 0 {
                continue;
            }
            assert!(
                obs.emptiness_postcondition_holds(),
                "{cfg:?}: heap {} violates the invariant while holding an \
                 f-empty superblock (u={} a={} empties={} classes={:?})",
                obs.index,
                obs.u,
                obs.a,
                obs.empties,
                obs.classes
            );
        }
        // Blowup stays bounded: everything is freed, so held memory is
        // pure slack — superblocks parked across the heaps, each bounded
        // by the invariant.
        assert_eq!(h.stats().live_current, 0);
        let superblocks: usize = v.heaps.iter().map(|o| o.superblocks).sum();
        assert_eq!(
            h.stats().held_current,
            (superblocks * h.config().superblock_size) as u64,
            "{cfg:?}: held memory beyond scanned superblocks"
        );
    }
}

/// The global heap's lock covers only list surgery, accounting and the
/// ownership handoff — the superblock reformat and the transfer charge
/// run after it drops. Asserted through the metrics registry's lock
/// telemetry: during a fetch-heavy phase, the *mean* virtual hold of
/// heap 0's lock must be below one `Cost::SuperblockTransfer`, which
/// a fetch that reformatted under the lock would pay inside it.
#[test]
fn global_fetch_holds_exclude_reformat_and_transfer_costs() {
    let h = mag_on();
    h.attach(Arc::new(Probe {
        metrics: Some(Arc::new(h.new_metrics_registry())),
        ..Probe::default()
    }));
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
        // reformats it (the expensive step the lock does not cover).
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
        let transfer =
            hoard_sim::CostModel::current().get(hoard_sim::Cost::SuperblockTransfer) as f64;
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
