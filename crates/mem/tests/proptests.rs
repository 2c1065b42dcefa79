//! Property-based tests for the memory substrate: size-class geometry,
//! header encodings, and chunk-source accounting under random traffic.

use hoard_mem::{
    ChunkSource, HeaderWord, LimitedSource, SizeClassTable, SystemSource, Tag,
};
use hoard_sim::Rng;
use std::alloc::Layout;

/// Generated cases per property; a failure names the seed that
/// reproduces it.
const CASES: u64 = 256;

const TAGS: [Tag; 4] = [Tag::Superblock, Tag::Large, Tag::Baseline, Tag::Offset];

#[test]
fn size_classes_cover_and_order() {
    Rng::for_each_case(CASES, |rng| {
        let size = rng.range(1, 4096);
        let table = SizeClassTable::for_superblock_size(8192);
        let idx = table.index_for(size).expect("covered");
        let class = table.class(idx);
        assert!(class.block_size as usize >= size);
        // Tightness: the class below (if any) must be too small.
        if idx > 0 {
            assert!((table.class(idx - 1).block_size as usize) < size);
        }
        // Bounded internal fragmentation: ≤ 20% + 8-byte rounding.
        assert!(
            (class.block_size as usize) <= size * 6 / 5 + 8,
            "class {} for size {size}",
            class.block_size
        );
    });
}

#[test]
fn size_classes_for_any_superblock() {
    for shift in 10u32..=17 {
        let s = 1usize << shift;
        let table = SizeClassTable::for_superblock_size(s);
        assert_eq!(table.max_size(), s / 2);
        assert!(table.len() <= hoard_mem::MAX_CLASSES);
        let mut prev = 0u32;
        for c in table.iter() {
            assert!(c.block_size > prev);
            assert_eq!(c.block_size % 8, 0);
            prev = c.block_size;
        }
    }
}

#[test]
fn header_word_roundtrips() {
    Rng::for_each_case(CASES, |rng| {
        let int = rng.next_u64() as usize >> 4;
        for tag in TAGS {
            let word = HeaderWord::from_int(tag, int);
            assert_eq!(word.to_int(), int);
            assert_eq!(word.tag, tag);
        }
    });
}

#[test]
fn header_storage_roundtrips() {
    Rng::for_each_case(CASES, |rng| {
        let int = rng.range(0, 1_000_000);
        let tag = TAGS[rng.range(0, 3)];
        let mut buf = [0u8; 32];
        let payload = hoard_mem::align_up(buf.as_mut_ptr() as usize + 8, 8) as *mut u8;
        unsafe {
            hoard_mem::write_header(payload, HeaderWord::from_int(tag, int));
            let read = hoard_mem::read_header(payload);
            assert_eq!(read.to_int(), int);
            assert_eq!(read.tag, tag);
        }
    });
}

#[test]
fn limited_source_never_exceeds_budget() {
    Rng::for_each_case(CASES, |rng| {
        let chunks: Vec<usize> = (0..rng.range(1, 19)).map(|_| rng.range(1, 4)).collect();
        let capacity_chunks = rng.range(1, 8);
        let unit = 8192usize;
        let source = LimitedSource::new(SystemSource::new(), (capacity_chunks * unit) as u64);
        let mut live: Vec<(std::ptr::NonNull<u8>, Layout)> = Vec::new();
        for &n in &chunks {
            let layout = Layout::from_size_align(n * unit, 4096).unwrap();
            if let Some(p) = unsafe { source.alloc_chunk(layout) } {
                live.push((p, layout));
            }
            assert!(
                source.stats().held_current <= source.capacity(),
                "budget exceeded: {} > {}",
                source.stats().held_current,
                source.capacity()
            );
            // Free oldest periodically to exercise reuse.
            if live.len() > 2 {
                let (p, l) = live.remove(0);
                unsafe { source.free_chunk(p, l) };
            }
        }
        for (p, l) in live {
            unsafe { source.free_chunk(p, l) };
        }
        assert_eq!(source.stats().held_current, 0);
    });
}

#[test]
fn alignment_helpers_are_consistent_exhaustively() {
    for x in 0..10_000usize {
        for a in [8usize, 16, 64, 4096] {
            let up = hoard_mem::align_up(x, a);
            let down = hoard_mem::align_down(x, a);
            assert!(down <= x && x <= up);
            assert_eq!(up % a, 0);
            assert_eq!(down % a, 0);
            if x % a == 0 {
                assert_eq!(up, down, "aligned values are fixed points");
            } else {
                assert_eq!(up - down, a, "bracketing multiples are adjacent");
            }
        }
    }
}
