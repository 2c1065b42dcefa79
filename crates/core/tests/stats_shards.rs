//! The statistics shards are single-writer: a magazine slot's shard is
//! bumped with a plain load + store under the slot claim, a heap's under
//! the heap lock. A shard written from outside its guard loses updates
//! silently, so this suite makes real threads collide on one slot and
//! one heap — procs `p` and `p + 16` share slot `p % 16` and heap
//! `1 + p % 16` — and then holds every event counter to two independent
//! tallies: what the threads know they issued, and what each thread's
//! private trace track recorded.
//!
//! `live_current` is the shared `live` cell less every slot's
//! single-writer `cached_bytes` gauge and deferred headroom and every
//! heap's single-writer headroom, read at different instants, so a
//! reader thread snapshots throughout and holds each snapshot to what a
//! racing reader is promised: it never wraps, and never exceeds
//! `live_peak`. At the end the gauges must account for the cell exactly:
//! a headroom written from outside its guard drifts, upward into a
//! `live_current` that is not 0 or downward into a cell below what the
//! shards claim of it (`debug::validate`). Deferred frees land in a
//! colliding slot too, so some of them take the cell's path.

use hoard_core::{debug, EventKind, HoardAllocator, HoardConfig, Probe, TraceConfig, TraceSink};
use hoard_mem::{MtAllocator, LIVE_GRANT};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Two colliding pairs: slot 0 / heap 1 and slot 1 / heap 2 (the
/// default config has 16 heaps and the front-end 16 slots).
const PROCS: [usize; 4] = [0, 16, 1, 17];
const HEAPS: usize = 16;
const ALLOCS_PER_THREAD: usize = 10_000;

/// Wrapper making raw payload addresses sendable between threads.
struct Payload(usize);
unsafe impl Send for Payload {}

fn free(h: &HoardAllocator, p: Payload) {
    unsafe { h.deallocate(NonNull::new_unchecked(p.0 as *mut u8)) };
}

/// One worker: allocate a mix of magazine-class, locked-class and large
/// sizes; free a quarter at once, hold a quarter for burst frees, hand a
/// quarter to the thread sharing its slot and heap, and a quarter to a
/// thread on the other heap; free whatever the others hand over.
fn worker(
    h: &HoardAllocator,
    me: usize,
    inbox: std::sync::mpsc::Receiver<Payload>,
    peers: Vec<std::sync::mpsc::Sender<Payload>>,
    start: &Barrier,
) {
    hoard_sim::switch_context(PROCS[me], 0);
    start.wait();
    let sizes = [16usize, 64, 200, 520, 1024, 24, 5000, 96];
    let mut held = Vec::new();
    for i in 0..ALLOCS_PER_THREAD {
        let size = sizes[(i / 4 + me) % sizes.len()];
        let p = unsafe { h.allocate(size) }.expect("oom");
        unsafe { p.as_ptr().write_bytes(me as u8, size) };
        let p = Payload(p.as_ptr() as usize);
        match i % 4 {
            0 => free(h, p),
            1 => held.push(p),
            2 => peers[me ^ 1].send(p).expect("sibling alive"),
            _ => peers[(me + 2) % 4].send(p).expect("peer alive"),
        }
        if held.len() >= 96 {
            held.drain(..).for_each(|p| free(h, p));
        }
        while let Ok(p) = inbox.try_recv() {
            free(h, p);
        }
    }
    held.into_iter().for_each(|p| free(h, p));
    // Closing our senders is what lets the others' final drains end.
    drop(peers);
    while let Ok(p) = inbox.recv() {
        free(h, p);
    }
}

fn collide(cfg: HoardConfig) {
    let h = HoardAllocator::with_config(cfg).unwrap();
    // One private track per proc id in use, deep enough to drop nothing.
    let sink = Arc::new(TraceSink::with_config(TraceConfig {
        tracks: PROCS.iter().max().unwrap() + 1,
        capacity: 1 << 17,
    }));
    h.attach(Arc::new(Probe {
        tracer: Some(Arc::clone(&sink)),
        ..Probe::default()
    }));

    let (txs, rxs): (Vec<_>, Vec<_>) = PROCS
        .iter()
        .map(|_| std::sync::mpsc::channel::<Payload>())
        .unzip();
    let start = Barrier::new(PROCS.len() + 2);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let workers: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| {
                let (h, start, peers) = (&h, &start, txs.clone());
                scope.spawn(move || worker(h, me, inbox, peers, start))
            })
            .collect();
        drop(txs);
        // A quiescence flush racing the traffic: it claims every slot
        // and locks every heap in turn, a third party to both guards.
        let flusher = scope.spawn(|| {
            start.wait();
            while !done.load(Ordering::Relaxed) {
                h.flush_frontend();
                std::thread::yield_now();
            }
        });
        let reader = scope.spawn(|| {
            start.wait();
            let mut snapshots = 0u64;
            while !done.load(Ordering::Relaxed) {
                let s = h.stats();
                assert!(s.live_current <= s.live_peak, "{s:?}");
                // Far above anything this traffic can hold at once: a
                // wrapped difference would be near 2^64.
                assert!(s.live_current < 1 << 32, "live_current wrapped: {s:?}");
                snapshots += 1;
            }
            snapshots
        });
        for w in workers {
            w.join().expect("worker panicked");
        }
        done.store(true, Ordering::Relaxed);
        flusher.join().expect("flusher panicked");
        assert!(reader.join().expect("reader panicked") > 0);
    });
    h.flush_frontend();

    let issued = (PROCS.len() * ALLOCS_PER_THREAD) as u64;
    let stats = h.stats();
    assert_eq!(stats.allocs, issued, "an alloc count was lost: {stats:?}");
    assert_eq!(stats.frees, issued, "a free count was lost: {stats:?}");
    assert_eq!(stats.live_current, 0);
    stats.check_consistency().expect("consistent at quiescence");
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    // Two grants at most for each heap in use: the colliding pairs'
    // heaps 1 and 2, and the global heap (a free into a superblock it
    // owns lands in its shard).
    let headroom: u64 = v.heaps.iter().map(|h| h.live_headroom).sum();
    assert!(
        headroom <= 2 * LIVE_GRANT * 3,
        "{headroom} B of headroom: {:?}",
        v.heaps
    );
    // And two for each slot in use, slots 0 and 1, whose deferred frees
    // keep back what they have not yet handed to the cell.
    assert!(
        v.deferred_headroom <= 2 * LIVE_GRANT * 2,
        "{} B of deferred headroom",
        v.deferred_headroom
    );

    // Each thread's own event track, summed.
    let log = sink.collect();
    assert_eq!(log.dropped, 0, "tracks sized to keep every event");
    let (mut magazine_allocs, mut refills, mut free_hits, mut remote_frees) =
        (0u64, 0u64, 0u64, 0u64);
    let mut pushes = 0u64;
    let (mut allocs, mut frees) = (0u64, 0u64);
    for track in &log.tracks {
        let my_heap = (1 + track.proc % HEAPS) as u64;
        for ev in &track.events {
            match ev.kind {
                EventKind::AllocMagazine => {
                    allocs += 1;
                    magazine_allocs += 1;
                }
                EventKind::MagazineRefill => refills += 1,
                EventKind::Alloc | EventKind::AllocLarge => allocs += 1,
                EventKind::FreeMagazine => {
                    frees += 1;
                    free_hits += 1;
                }
                // A deferred free: the allocator counts the push alone
                // and derives its share of `frees` and `remote_frees`.
                EventKind::RemoteFreePush => {
                    frees += 1;
                    remote_frees += 1;
                    pushes += 1;
                }
                // `arg1` is the owning heap the block was freed into.
                EventKind::Free => {
                    frees += 1;
                    if ev.arg1 == 0 || ev.arg1 != my_heap {
                        remote_frees += 1;
                    }
                }
                EventKind::FreeLarge => frees += 1,
                _ => {}
            }
        }
    }
    assert_eq!(
        (allocs, frees),
        (issued, issued),
        "the tracks saw every call"
    );
    // A magazine allocation that had to refill first is not a hit.
    assert_eq!(
        stats.magazines.alloc_hits,
        magazine_allocs - refills,
        "{stats:?}"
    );
    assert_eq!(stats.magazines.refills, refills, "{stats:?}");
    assert_eq!(stats.magazines.free_hits, free_hits, "{stats:?}");
    assert_eq!(stats.remote_frees, remote_frees, "{stats:?}");
    assert_eq!(stats.magazines.remote_pushes, pushes, "{stats:?}");
    assert!(
        remote_frees > 0,
        "the cross-heap quarter must free remotely"
    );
}

#[test]
fn locked_heaps_lose_no_counts() {
    collide(HoardConfig::new());
}

#[test]
fn magazine_slots_lose_no_counts() {
    collide(HoardConfig::with_default_magazines());
}
