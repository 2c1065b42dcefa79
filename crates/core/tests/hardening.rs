//! Hardened-path detection tests: each classic allocator-abuse pattern
//! must produce a typed [`CorruptionReport`] and a graceful return —
//! never a panic, never undefined behavior — while the allocator stays
//! internally consistent and usable.

use hoard_core::{debug, CorruptionKind, HardeningLevel, HoardAllocator, HoardConfig};
use hoard_mem::{
    read_header, write_header, ChunkSource, HeaderWord, MtAllocator, SystemSource, Tag,
};
use std::ptr::NonNull;

fn hardened(level: HardeningLevel) -> HoardAllocator {
    HoardAllocator::with_config(HoardConfig::new().with_hardening(level))
        .expect("hardened config is valid")
}

fn last_kind(h: &HoardAllocator<impl ChunkSource>) -> Option<CorruptionKind> {
    h.corruption_log().recent().last().map(|r| r.kind)
}

#[test]
fn clean_traffic_produces_no_reports() {
    for level in [HardeningLevel::Basic, HardeningLevel::Full] {
        let h = hardened(level);
        unsafe {
            let mut live = Vec::new();
            for i in 0..3000usize {
                let size = 8 + (i * 37) % 6000; // small and large classes
                let p = h.allocate(size).unwrap();
                std::ptr::write_bytes(p.as_ptr(), 0x5A, size);
                live.push(p);
                if i % 3 == 0 {
                    h.deallocate(live.swap_remove((i * 31) % live.len()));
                }
            }
            for p in live {
                h.deallocate(p);
            }
        }
        assert_eq!(
            h.corruption_log().total(),
            0,
            "false positive under {level:?}"
        );
        assert_eq!(h.stats().live_current, 0);
        debug::check_invariants(&h).expect("consistent after traffic");
    }
}

#[test]
fn small_double_free_is_detected_and_harmless() {
    let h = hardened(HardeningLevel::Basic);
    unsafe {
        let p = h.allocate(24).unwrap();
        h.deallocate(p);
        h.deallocate(p); // double free
        h.deallocate(p); // and again
    }
    assert_eq!(h.corruption_log().total(), 2);
    assert_eq!(last_kind(&h), Some(CorruptionKind::DoubleFree));
    // The allocator still works and the block is reusable exactly once.
    unsafe {
        let q = h.allocate(24).unwrap();
        std::ptr::write_bytes(q.as_ptr(), 0xEE, 24);
        h.deallocate(q);
    }
    assert_eq!(h.stats().live_current, 0);
    debug::check_invariants(&h).expect("consistent after double free");
}

#[test]
fn misaligned_and_foreign_pointers_are_refused() {
    let h = hardened(HardeningLevel::Basic);
    unsafe {
        let p = h.allocate(64).unwrap();

        // Misaligned: cannot be a block payload.
        h.deallocate(NonNull::new_unchecked(p.as_ptr().add(1)));
        assert_eq!(last_kind(&h), Some(CorruptionKind::MisalignedPointer));

        // Foreign: an aligned buffer whose "header" is a tag this
        // allocator never writes (bits 5..7 are unassigned).
        let mut buf = [0u64; 8];
        let base = buf.as_mut_ptr() as *mut u8;
        let fake = base.add(16);
        (fake.sub(8) as *mut usize).write(0b101);
        h.deallocate(NonNull::new_unchecked(fake));
        assert_eq!(last_kind(&h), Some(CorruptionKind::ForeignPointer));

        // A block of a different allocator design (baseline tag).
        let fake2 = base.add(40);
        write_header(fake2, HeaderWord::from_int(Tag::Baseline, 3));
        h.deallocate(NonNull::new_unchecked(fake2));
        assert_eq!(last_kind(&h), Some(CorruptionKind::ForeignPointer));

        h.deallocate(p);
    }
    assert_eq!(h.corruption_log().total(), 3);
    assert_eq!(h.stats().live_current, 0);
}

#[test]
fn interior_pointer_is_out_of_range() {
    let h = hardened(HardeningLevel::Basic);
    unsafe {
        let p = h.allocate(64).unwrap();
        let sb = read_header(p.as_ptr()).value;
        // Forge a plausible header in the block's own payload pointing
        // at the real superblock, then free the interior address: the
        // range check must catch that it is not on a block boundary.
        let interior = p.as_ptr().add(16);
        write_header(interior, HeaderWord::new(Tag::Superblock, sb));
        h.deallocate(NonNull::new_unchecked(interior));
        assert_eq!(last_kind(&h), Some(CorruptionKind::OutOfRangePointer));
        h.deallocate(p);
    }
    assert_eq!(h.stats().live_current, 0);
    debug::check_invariants(&h).expect("consistent after interior free");
}

#[test]
fn canary_smash_quarantines_the_block() {
    let h = hardened(HardeningLevel::Full);
    unsafe {
        let p = h.allocate(24).unwrap();
        let live_before = h.stats().live_current;
        // Overrun: write one byte past the payload's 8-aligned end,
        // straight into the canary word.
        p.as_ptr().add(24).write(0x00);
        h.deallocate(p);
        assert_eq!(last_kind(&h), Some(CorruptionKind::CanarySmashed));
        assert_eq!(h.corruption_log().quarantined(), 1);
        // The block was withheld, not freed: accounting unchanged, and
        // the heap scan still balances.
        assert_eq!(h.stats().live_current, live_before);
        debug::check_invariants(&h).expect("quarantine keeps the heap consistent");
        // The allocator keeps serving.
        let q = h.allocate(24).unwrap();
        assert_ne!(q, p, "quarantined block must not be recycled");
        h.deallocate(q);
    }
}

#[test]
fn use_after_free_write_is_reported_on_reuse() {
    let h = hardened(HardeningLevel::Full);
    unsafe {
        let p = h.allocate(48).unwrap();
        h.deallocate(p);
        // Dangling write, past the free-list link word.
        p.as_ptr().add(16).write(0xAA);
        // Same class allocates LIFO: the poisoned block comes back.
        let q = h.allocate(48).unwrap();
        assert_eq!(q, p, "LIFO reuse expected for this test");
        assert_eq!(last_kind(&h), Some(CorruptionKind::PoisonOverwrite));
        h.deallocate(q);
    }
    assert_eq!(h.stats().live_current, 0);
}

#[test]
fn corruption_hook_fires_synchronously() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static HITS: AtomicUsize = AtomicUsize::new(0);
    fn on_report(r: &hoard_core::CorruptionReport) {
        assert_eq!(r.kind, CorruptionKind::DoubleFree);
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    let h = hardened(HardeningLevel::Basic);
    h.corruption_log().set_hook(Some(on_report));
    unsafe {
        let p = h.allocate(32).unwrap();
        h.deallocate(p);
        h.deallocate(p);
    }
    assert_eq!(HITS.load(Ordering::Relaxed), 1);
}

#[test]
fn large_double_free_is_detected_via_registry() {
    for level in [HardeningLevel::Basic, HardeningLevel::Full] {
        let h = hardened(level);
        unsafe {
            let p = h.allocate(100_000).unwrap();
            h.deallocate(p);
            // The chunk is parked in the large pool, so its Tag::Large
            // header is still readable — but the live registry knows it
            // is gone.
            h.deallocate(p);
        }
        assert_eq!(h.corruption_log().total(), 1, "{level:?}");
        assert_eq!(last_kind(&h), Some(CorruptionKind::DoubleFree));
        debug::check_invariants(&h).expect("consistent after large double free");
    }
}

#[test]
fn large_double_free_without_hardening_never_reaches_the_source() {
    // `Off` keeps no registry, but a parked chunk's header no longer
    // carries the live magic: the always-on check refuses the second
    // free (a panic, as for any corrupt large header at this level)
    // before the chunk can go to the source a second time.
    let source = SystemSource::new();
    let h = HoardAllocator::with_source(HoardConfig::new(), &source).unwrap();
    let p = unsafe { h.allocate(100_000).unwrap() };
    unsafe { h.deallocate(p) };
    let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
        h.deallocate(p)
    }));
    let cause = second.expect_err("second free refused");
    let cause = cause
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| cause.downcast_ref::<&str>().copied());
    assert!(cause.is_some_and(|c| c.contains("corrupt large-object header")), "{cause:?}");
    assert_eq!(source.stats().chunk_frees, 0);
    drop(h);
    let stats = source.stats();
    assert_eq!((stats.chunk_frees, stats.held_current), (1, 0), "freed once, at drop");
}

#[test]
fn corrupt_large_header_is_quarantined_not_freed() {
    let h = hardened(HardeningLevel::Basic);
    unsafe {
        let p = h.allocate(50_000).unwrap();
        let chunk = read_header(p.as_ptr()).value as *mut u64;
        let held = h.stats().held_current;
        chunk.write(0xBAD0_BEEF); // smash the LargeHeader magic
        h.deallocate(p);
        assert_eq!(last_kind(&h), Some(CorruptionKind::BadLargeMagic));
        assert_eq!(h.corruption_log().quarantined(), 1);
        assert_eq!(
            h.stats().held_current,
            held,
            "a forged layout must never reach free_chunk"
        );
    }
}

#[test]
fn overwritten_parked_large_header_is_reported_and_its_list_abandoned() {
    let h = hardened(HardeningLevel::Basic);
    unsafe {
        let p = h.allocate(50_000).unwrap();
        let chunk = read_header(p.as_ptr()).value as *mut u64;
        h.deallocate(p); // parked
        let held = h.stats().held_current;
        chunk.write(0xBAD0_BEEF); // use after free reaches the parked header
        let q = h.allocate(50_000).expect("served by the source instead");
        assert_ne!(q, p, "the overwritten chunk is never handed out");
        assert_eq!(last_kind(&h), Some(CorruptionKind::BadLargeMagic));
        assert_eq!(h.corruption_log().total(), 1);
        h.deallocate(q);
        // The abandoned chunk is leaked (still held), not followed —
        // and still accounted for, so later checks keep their meaning.
        assert_eq!(h.stats().held_current, 2 * held);
        assert_eq!(h.large_pool().abandoned_bytes(), held);
    }
    assert_eq!(h.stats().live_current, 0);
    debug::check_invariants(&h).expect("consistent apart from the reported leak");
}

#[test]
fn off_mode_keeps_the_papers_layout_and_paths() {
    // Off must not pay for hardening: no canary stride, no reports.
    let off = hardened(HardeningLevel::Off);
    let full = hardened(HardeningLevel::Full);
    unsafe {
        let ptrs_off: Vec<_> = (0..64).map(|_| off.allocate(64).unwrap()).collect();
        let ptrs_full: Vec<_> = (0..64).map(|_| full.allocate(64).unwrap()).collect();
        let stride = |v: &[NonNull<u8>]| v[1].as_ptr() as usize - v[0].as_ptr() as usize;
        assert_eq!(stride(&ptrs_off), 64 + 8, "paper layout: payload + header");
        assert_eq!(
            stride(&ptrs_full),
            64 + 8 + 8,
            "Full layout adds one canary word"
        );
        for p in ptrs_off {
            off.deallocate(p);
        }
        for p in ptrs_full {
            full.deallocate(p);
        }
    }
    assert_eq!(off.corruption_log().total(), 0);
    assert_eq!(full.corruption_log().total(), 0);
}

// ----- magazine front-end interactions -----
//
// With the front-end on, a small free parks in a thread-local magazine
// instead of returning to its superblock. Every detection the locked
// path makes must still fire: double frees against the retagged header,
// canary smashes on the way *into* the magazine (quarantine, nothing
// stashed), and poison overwrites on the way *out* (the poison sits
// unguarded while parked).

fn hardened_mag(level: HardeningLevel) -> HoardAllocator {
    HoardAllocator::with_config(
        HoardConfig::with_default_magazines().with_hardening(level),
    )
    .expect("hardened magazine config is valid")
}

#[test]
fn magazine_clean_traffic_produces_no_reports() {
    for level in [HardeningLevel::Basic, HardeningLevel::Full] {
        let h = hardened_mag(level);
        unsafe {
            let mut live = Vec::new();
            for i in 0..3000usize {
                let size = 8 + (i * 37) % 6000;
                let p = h.allocate(size).unwrap();
                std::ptr::write_bytes(p.as_ptr(), 0x5A, size);
                live.push(p);
                if i % 3 == 0 {
                    h.deallocate(live.swap_remove((i * 31) % live.len()));
                }
            }
            for p in live {
                h.deallocate(p);
            }
        }
        assert_eq!(
            h.corruption_log().total(),
            0,
            "false positive under {level:?} with magazines"
        );
        h.flush_frontend();
        assert_eq!(h.stats().live_current, 0);
        debug::check_invariants(&h).expect("consistent after magazine traffic");
    }
}

#[test]
fn double_free_of_a_magazine_parked_block_is_detected() {
    let h = hardened_mag(HardeningLevel::Basic);
    unsafe {
        let p = h.allocate(24).unwrap();
        h.deallocate(p); // parks in the magazine, header retagged Freed
        h.deallocate(p); // second free must hit the retagged header
    }
    assert_eq!(h.corruption_log().total(), 1);
    assert_eq!(last_kind(&h), Some(CorruptionKind::DoubleFree));
    // The parked block comes back out exactly once and stays usable.
    unsafe {
        let q = h.allocate(24).unwrap();
        std::ptr::write_bytes(q.as_ptr(), 0xEE, 24);
        h.deallocate(q);
    }
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    debug::check_invariants(&h).expect("consistent after magazine double free");
}

#[test]
fn canary_smash_is_caught_on_the_frontend_free() {
    let h = hardened_mag(HardeningLevel::Full);
    unsafe {
        let p = h.allocate(40).unwrap();
        // Overflow one byte past the requested size into the canary.
        std::ptr::write_bytes(p.as_ptr(), 0xAB, 41);
        h.deallocate(p); // front-end free must quarantine, not stash
    }
    assert_eq!(last_kind(&h), Some(CorruptionKind::CanarySmashed));
    assert_eq!(
        h.stats().live_current,
        40,
        "quarantined block stays allocated (accounting untouched)"
    );
    // The magazine must NOT recirculate the smashed block.
    unsafe {
        let q = h.allocate(40).unwrap();
        std::ptr::write_bytes(q.as_ptr(), 0x11, 40);
        h.deallocate(q);
    }
    assert_eq!(h.corruption_log().total(), 1, "no further reports");
    h.flush_frontend();
    debug::check_invariants(&h).expect("consistent after quarantine");
}

#[test]
fn poison_overwrite_while_parked_is_caught_on_reuse() {
    let h = hardened_mag(HardeningLevel::Full);
    unsafe {
        let p = h.allocate(48).unwrap();
        h.deallocate(p); // parked and poisoned in the magazine
        // Use-after-free through the dangling pointer while parked.
        *p.as_ptr().add(8) = 0x77;
        // LIFO magazine: the next same-class alloc pops that block.
        let q = h.allocate(48).unwrap();
        assert_eq!(q.as_ptr(), p.as_ptr(), "magazine is LIFO");
        h.deallocate(q);
    }
    assert_eq!(last_kind(&h), Some(CorruptionKind::PoisonOverwrite));
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
    debug::check_invariants(&h).expect("consistent after poison report");
}
