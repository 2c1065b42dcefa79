//! Integration tests for the thread-local magazine front-end: the
//! `magazine_capacity = 0` ablation (exact seed behaviour), quiescence
//! via `flush_frontend`, emptiness accounting of parked blocks, the
//! deferred remote-free protocol under real threads, and the
//! owner-migration retry race in `free_small`.

use hoard_core::{debug, HoardAllocator, HoardConfig};
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
fn capacity_zero_is_bit_identical_to_the_seed_paths() {
    // The ablation gate: with the front-end disabled, every operation
    // must take exactly the pre-magazine code paths. Single-threaded
    // allocation is deterministic, so the address sequences (and the
    // lock counts) of a default-config allocator and an explicit
    // `magazine_capacity = 0` allocator must match exactly.
    let a = HoardAllocator::new_default();
    let b = HoardAllocator::with_config(HoardConfig::new().with_magazine_capacity(0)).unwrap();
    assert_eq!(
        normalize(&trace(&a)),
        normalize(&trace(&b)),
        "capacity 0 must not perturb layout"
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
    let cfg = HoardConfig::new().with_slack(0).with_magazine_capacity(8);
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
                // Free bursts force f-emptiness crossings -> migrations.
                if held.len() >= 128 {
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
