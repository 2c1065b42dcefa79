//! Behavioral tests for Hoard's configuration knobs and secondary paths:
//! the eviction hysteresis latch, `reallocate`, heap-count effects, and
//! failure injection mid-run.

use hoard_core::{debug, HoardAllocator, HoardConfig};
use hoard_mem::{FailingSource, MtAllocator, SystemSource};

#[test]
fn hysteresis_latch_prevents_boundary_oscillation_thrash() {
    // Hold a superblock's occupancy exactly at the f-emptiness boundary
    // and oscillate: without the armed latch every downward crossing
    // would migrate a superblock; with it, only the first does.
    let h = HoardAllocator::new_default();
    let cfg = *h.config();
    // One size class, fill several superblocks to just above the
    // boundary, then alternate free/alloc of one block many times.
    let size = 128usize;
    unsafe {
        let mut blocks: Vec<_> = (0..400).map(|_| h.allocate(size).unwrap()).collect();
        // Free down to ~the boundary (leave ~72% of blocks).
        for _ in 0..112 {
            h.deallocate(blocks.pop().unwrap());
        }
        let before = h.transfer_counts().0;
        for _ in 0..500 {
            let p = h.allocate(size).unwrap();
            h.deallocate(p);
        }
        let after = h.transfer_counts().0;
        assert!(
            after - before <= 2,
            "boundary oscillation caused {} migrations",
            after - before
        );
        let _ = cfg;
        for p in blocks {
            h.deallocate(p);
        }
    }
}

#[test]
fn reallocate_grows_within_class_in_place_and_moves_across() {
    let h = HoardAllocator::new_default();
    unsafe {
        // 100 requested -> 104-byte class: growing to 104 stays put.
        let p = h.allocate(100).unwrap();
        std::ptr::write_bytes(p.as_ptr(), 0x3D, 100);
        let q = h.reallocate(p, 100, h.usable_size(p)).unwrap();
        assert_eq!(q, p, "within-class growth is in place");
        // Growing past the class moves and preserves content.
        let r = h.reallocate(q, 100, 5000).unwrap();
        assert_ne!(r, q);
        for off in 0..100 {
            assert_eq!(*r.as_ptr().add(off), 0x3D);
        }
        // Growing a large object into a larger large object.
        let s = h.reallocate(r, 5000, 100_000).unwrap();
        for off in 0..100 {
            assert_eq!(*s.as_ptr().add(off), 0x3D);
        }
        h.deallocate(s);
    }
    assert_eq!(h.stats().live_current, 0);
}

#[test]
fn heap_count_one_degenerates_to_serial_like_but_correct() {
    let h =
        HoardAllocator::with_config(HoardConfig::new().with_heap_count(1)).unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| unsafe {
                for i in 0..2000usize {
                    let p = h.allocate(8 + i % 500).unwrap();
                    h.deallocate(p);
                }
            });
        }
    });
    assert_eq!(h.stats().live_current, 0);
    assert!(debug::validate(&h).is_consistent());
}

#[test]
fn mid_run_source_exhaustion_is_clean() {
    // Inject OOM after 3 chunks; the allocator must keep serving from
    // what it has, fail cleanly beyond, and recover as memory frees.
    let h = HoardAllocator::with_source(
        HoardConfig::new(),
        FailingSource::new(SystemSource::new(), 3),
    )
    .unwrap();
    unsafe {
        let mut live = Vec::new();
        while let Some(p) = h.allocate(512) {
            live.push(p);
            assert!(live.len() < 10_000, "failure injection never fired");
        }
        let served = live.len();
        assert!(served > 10, "three superblocks should serve many blocks");
        // Free half: allocation must work again (recycling, no new chunks).
        let half = live.split_off(served / 2);
        for p in half {
            h.deallocate(p);
        }
        let p = h.allocate(512).expect("recycled memory serves");
        h.deallocate(p);
        for p in live {
            h.deallocate(p);
        }
    }
    assert_eq!(h.stats().live_current, 0);
    assert!(debug::validate(&h).is_consistent());
}

#[test]
fn large_objects_do_not_participate_in_heap_accounting() {
    let h = HoardAllocator::new_default();
    unsafe {
        let p = h.allocate(1_000_000).unwrap();
        let v = debug::validate(&h);
        assert_eq!(v.total_a(), 0, "large chunks bypass heaps entirely");
        assert!(h.stats().held_current >= 1_000_000);
        h.deallocate(p);
    }
    assert_eq!(h.stats().held_current, 0);
}

#[test]
fn many_configs_roundtrip_mixed_traffic() {
    for s in [2048usize, 8192, 32768] {
        for (num, den) in [(1usize, 8usize), (1, 2), (7, 8)] {
            for k in [0usize, 3] {
                let cfg = HoardConfig::new()
                    .with_superblock_size(s)
                    .with_empty_fraction(num, den)
                    .with_slack(k)
                    .with_heap_count(5);
                let h = HoardAllocator::with_config(cfg).unwrap();
                unsafe {
                    let ptrs: Vec<_> = (0..500)
                        .map(|i| h.allocate(1 + (i * 13) % (s / 2)).unwrap())
                        .collect();
                    for p in ptrs {
                        h.deallocate(p);
                    }
                }
                assert_eq!(
                    h.stats().live_current,
                    0,
                    "S={s} f={num}/{den} K={k}"
                );
                let v = debug::validate(&h);
                assert!(v.is_consistent(), "S={s} f={num}/{den} K={k}: {:?}", v.errors);
            }
        }
    }
}

#[test]
fn alloc_vec_growth_exercises_hoard_realloc() {
    // Vec-style amortized doubling through Hoard: early doublings stay
    // within size classes (in place), later ones move across classes and
    // finally into the large-object path — content must survive it all.
    let h = HoardAllocator::new_default();
    {
        let mut v = hoard_mem::AllocVec::new_in(&h);
        for i in 0..20_000u64 {
            v.push(i);
        }
        assert_eq!(v.len(), 20_000);
        for probe in [0usize, 1, 4_095, 19_999] {
            assert_eq!(v[probe], probe as u64);
        }
        // 20k u64 = 160 KB: the buffer must be a large object by now.
        assert!(h.stats().held_current >= 160_000);
        while v.len() > 3 {
            v.pop();
        }
        v.shrink_to_fit();
        assert_eq!(&v[..], &[0, 1, 2]);
    }
    assert_eq!(h.stats().live_current, 0);
    assert!(debug::validate(&h).is_consistent());
}
