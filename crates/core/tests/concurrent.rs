//! Concurrency stress tests: real threads hammering one allocator with
//! local and remote (cross-thread) traffic, then full validation at
//! quiescence.

use hoard_core::{debug, HoardAllocator, HoardConfig};
use hoard_mem::MtAllocator;
use std::ptr::NonNull;
use std::sync::Arc;

/// Wrapper making raw payload addresses sendable between threads.
#[derive(Clone, Copy)]
struct Payload(usize, usize); // (addr, size)
unsafe impl Send for Payload {}

fn fill(p: &Payload, value: u8) {
    unsafe { std::ptr::write_bytes(p.0 as *mut u8, value, p.1) };
}

fn check(p: &Payload, value: u8) {
    for off in 0..p.1 {
        let got = unsafe { *(p.0 as *const u8).add(off) };
        assert_eq!(got, value, "corruption at {off} of block {:#x}", p.0);
    }
}

#[test]
fn local_churn_from_many_threads() {
    let h = Arc::new(HoardAllocator::new_default());
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut rng = (t as u64 + 1) * 0x9E37_79B9;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut live: Vec<Payload> = Vec::new();
                for i in 0..5_000usize {
                    if live.len() < 64 && next() % 3 != 0 {
                        let size = 1 + (next() % 1024) as usize;
                        let p = unsafe { h.allocate(size) }.unwrap();
                        let pl = Payload(p.as_ptr() as usize, size);
                        fill(&pl, (t * 31 + i) as u8);
                        check(&pl, (t * 31 + i) as u8);
                        live.push(pl);
                    } else if !live.is_empty() {
                        let idx = (next() as usize) % live.len();
                        let pl = live.swap_remove(idx);
                        unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
                    }
                }
                for pl in live {
                    unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = h.stats();
    assert_eq!(snap.live_current, 0);
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}

#[test]
fn producer_consumer_remote_frees() {
    // The blowup-inducing pattern of the paper's Section 2: producer
    // allocates, consumer frees. Hoard's ownership-based frees plus the
    // global heap must keep memory bounded and state consistent.
    let h = Arc::new(HoardAllocator::new_default());
    let (tx, rx) = std::sync::mpsc::sync_channel::<Payload>(128);

    let producer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            for i in 0..20_000usize {
                let size = 8 + (i % 200);
                let p = unsafe { h.allocate(size) }.unwrap();
                let pl = Payload(p.as_ptr() as usize, size);
                fill(&pl, i as u8);
                tx.send(pl).unwrap();
            }
        })
    };
    let consumer = {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            let mut n = 0usize;
            while let Ok(pl) = rx.recv() {
                check(&pl, n as u8);
                unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
                n += 1;
            }
            n
        })
    };
    producer.join().unwrap();
    let consumed = consumer.join().unwrap();
    assert_eq!(consumed, 20_000);

    let snap = h.stats();
    assert_eq!(snap.live_current, 0);
    assert!(snap.remote_frees > 0, "consumer frees are remote");
    // Bounded footprint: live memory never exceeded ~200B x 128 queue
    // slots; held memory must stay within a few superblocks of that.
    assert!(
        snap.held_peak <= 64 * h.config().superblock_size as u64,
        "producer-consumer blowup: held_peak = {}",
        snap.held_peak
    );
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
}

#[test]
fn superblocks_migrate_under_imbalanced_load() {
    // One thread allocates a burst and frees it (pushing superblocks to
    // the global heap); others then allocate the same class and must be
    // served from the global heap rather than fresh OS chunks.
    let h = Arc::new(HoardAllocator::new_default());
    {
        let h = Arc::clone(&h);
        std::thread::spawn(move || {
            let ptrs: Vec<Payload> = (0..2000)
                .map(|_| {
                    let p = unsafe { h.allocate(128) }.unwrap();
                    Payload(p.as_ptr() as usize, 128)
                })
                .collect();
            for pl in ptrs {
                unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
            }
        })
        .join()
        .unwrap();
    }
    let held_after_burst = h.stats().held_current;
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let ptrs: Vec<Payload> = (0..400)
                    .map(|_| {
                        let p = unsafe { h.allocate(128) }.unwrap();
                        Payload(p.as_ptr() as usize, 128)
                    })
                    .collect();
                for pl in ptrs {
                    unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let (to_global, from_global) = h.transfer_counts();
    assert!(to_global > 0);
    assert!(from_global > 0, "later threads must reuse global superblocks");
    assert!(
        h.stats().held_current <= held_after_burst + 4 * h.config().superblock_size as u64,
        "reuse should prevent significant growth"
    );
}

#[test]
fn mixed_small_and_large_concurrent() {
    let h = Arc::new(HoardAllocator::new_default());
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..500usize {
                    let size = if i % 17 == 0 { 10_000 + t * 1000 } else { 8 + i % 512 };
                    let p = unsafe { h.allocate(size) }.unwrap();
                    let pl = Payload(p.as_ptr() as usize, size);
                    fill(&pl, (i ^ t) as u8);
                    check(&pl, (i ^ t) as u8);
                    unsafe { h.deallocate(NonNull::new_unchecked(pl.0 as *mut u8)) };
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(h.stats().live_current, 0);
    // Only superblocks parked in heaps and large chunks parked in the
    // pool remain, the latter no more than the threads ever had out.
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    let superblocks: usize = v.heaps.iter().map(|o| o.superblocks).sum();
    assert_eq!(
        h.stats().held_current,
        (superblocks * h.config().superblock_size) as u64 + v.large_parked
    );
    assert_eq!(v.large_live, 0);
    assert!(v.large_parked <= v.large_peak);
    // Six threads, one large object each at a time, 4 pages at most.
    assert!(v.large_peak <= 6 * 4 * 4096);
}

#[test]
fn many_heap_configs_under_concurrency() {
    for p in [1usize, 2, 5, 16] {
        let h = Arc::new(
            HoardAllocator::with_config(HoardConfig::new().with_heap_count(p)).unwrap(),
        );
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000usize {
                        let p = unsafe { h.allocate(8 + (i + t) % 300) }.unwrap();
                        unsafe { h.deallocate(p) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.stats().live_current, 0, "heap_count={p}");
        let v = debug::validate(&h);
        assert!(v.is_consistent(), "heap_count={p}: {:?}", v.errors);
    }
}
