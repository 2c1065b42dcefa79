//! Size classes.
//!
//! The paper spaces size classes a factor `b = 1.2` apart, which bounds
//! internal fragmentation at 20% while keeping the class count
//! logarithmic in `S`. We use the hybrid rule
//! `next = max(cur + 8, round8(cur · 6/5))`: exact 8-byte steps for tiny
//! sizes (where ×1.2 would round to a no-op) and geometric growth above.
//! Classes cover `8 ..= S/2`; larger requests bypass superblocks.
//!
//! The table is computed by a `const fn`, so a [`SizeClassTable`] can be
//! embedded in a `static` allocator.

/// Upper bound on the number of size classes for any supported
/// superblock size.
pub const MAX_CLASSES: usize = 56;

/// Largest superblock size whose classes (`8 ..= S/2`) fit in
/// [`MAX_CLASSES`] entries: [`SizeClassTable::for_superblock_size`]
/// panics above it.
pub const MAX_SUPERBLOCK_SIZE: usize = 1 << 18;

// The table builds at the bound (`bound_is_the_last_size_that_fits`
// shows the next power of two does not).
const _: () = {
    SizeClassTable::for_superblock_size(MAX_SUPERBLOCK_SIZE);
};

/// One size class: all blocks of a class have the same payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SizeClass {
    /// Usable payload bytes per block (multiple of 8).
    pub block_size: u32,
}

/// Sizes up to here are exact 8-byte classes, resolved arithmetically;
/// larger ones go through [`SizeClassTable::tail`].
const LINEAR_MAX: usize = 128;

/// `log2(LINEAR_MAX)`: the octave of the first tail bucket.
const TAIL_FIRST_OCTAVE: u32 = LINEAR_MAX.ilog2();

/// Each octave `[2^k, 2^(k+1))` of the tail splits into `2^3` buckets by
/// the three bits below the leading one, so a bucket spans a ratio of at
/// most 9/8 — narrower than the 6/5 between geometric classes.
const TAIL_SUB_BITS: u32 = 3;

/// Octaves the tail table covers: sizes below `2^19`, beyond what
/// [`MAX_CLASSES`] classes can reach.
const TAIL_OCTAVES: usize = 12;

const TAIL_LEN: usize = TAIL_OCTAVES << TAIL_SUB_BITS;

/// The full table of size classes for a given superblock size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeClassTable {
    classes: [SizeClass; MAX_CLASSES],
    count: usize,
    /// Largest size served from superblocks (== largest block_size).
    max_size: usize,
    /// Size → class for the geometric tail: `tail[bucket]` is the first
    /// class that fits the *smallest* size of the bucket (see
    /// [`tail_bucket`](Self::tail_bucket)), so a lookup starts there and
    /// steps forward past at most the class boundaries inside one bucket.
    /// Why a table: scanning up from class 16 takes 11–17 compares for
    /// requests of 2–32 KiB, measured at 2–6 % of the repo benchmark's
    /// `phase-large` ns per call (results/fast_path_cost.md §3a).
    tail: [u8; TAIL_LEN],
}

const fn round8(x: usize) -> usize {
    (x + 7) & !7
}

impl SizeClassTable {
    /// Build the table for superblocks of `s` bytes (classes up to
    /// `s/2`). `const`, so usable in statics.
    ///
    /// # Panics
    ///
    /// Panics (at compile time for const use) if `s/2 < 8` or `s`
    /// exceeds [`MAX_SUPERBLOCK_SIZE`] (the table capacity).
    pub const fn for_superblock_size(s: usize) -> Self {
        let limit = s / 2;
        assert!(limit >= 8, "superblock too small for any size class");
        let mut classes = [SizeClass { block_size: 0 }; MAX_CLASSES];
        let mut count = 0usize;
        let mut cur = 8usize;
        while cur <= limit {
            assert!(count < MAX_CLASSES, "size class table overflow");
            classes[count] = SizeClass {
                block_size: cur as u32,
            };
            count += 1;
            // Exact 8-byte steps up to 128 (so small sizes resolve
            // arithmetically), geometric ×1.2 above.
            cur = if cur < 128 {
                cur + 8
            } else {
                let geometric = round8(cur * 6 / 5);
                if geometric > cur + 8 {
                    geometric
                } else {
                    cur + 8
                }
            };
        }
        // Ensure the table covers requests up to exactly S/2 (the paper's
        // large-object threshold): the geometric sequence may stop short.
        if classes[count - 1].block_size < limit as u32 {
            assert!(count < MAX_CLASSES, "size class table overflow");
            classes[count] = SizeClass {
                block_size: limit as u32,
            };
            count += 1;
        }
        let max_size = classes[count - 1].block_size as usize;
        assert!(
            max_size >> TAIL_FIRST_OCTAVE < 1 << TAIL_OCTAVES,
            "size class tail table too short"
        );
        let mut tail = [0u8; TAIL_LEN];
        let mut bucket = 0usize;
        let mut class = 0usize;
        while bucket < TAIL_LEN {
            // Smallest size that maps to `bucket`; they ascend with it.
            let octave = (bucket >> TAIL_SUB_BITS) as u32 + TAIL_FIRST_OCTAVE;
            let sub = bucket & ((1 << TAIL_SUB_BITS) - 1);
            let lowest = ((1 << TAIL_SUB_BITS) + sub) << (octave - TAIL_SUB_BITS);
            while class < count && (classes[class].block_size as usize) < lowest {
                class += 1;
            }
            // `count` marks buckets past `max_size`; `index_for` rejects
            // those sizes before it looks here.
            tail[bucket] = class as u8;
            bucket += 1;
        }
        SizeClassTable {
            classes,
            count,
            max_size,
            tail,
        }
    }

    /// Index into `tail` for a `size > LINEAR_MAX`: its octave above
    /// [`TAIL_FIRST_OCTAVE`], then the [`TAIL_SUB_BITS`] bits below the
    /// leading one.
    #[inline]
    const fn tail_bucket(size: usize) -> usize {
        let octave = size.ilog2();
        let sub = (size >> (octave - TAIL_SUB_BITS)) & ((1 << TAIL_SUB_BITS) - 1);
        (((octave - TAIL_FIRST_OCTAVE) as usize) << TAIL_SUB_BITS) | sub
    }

    /// Number of classes in the table.
    pub const fn len(&self) -> usize {
        self.count
    }

    /// Whether the table is empty (never true for a valid table).
    pub const fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest request size served from superblocks.
    pub const fn max_size(&self) -> usize {
        self.max_size
    }

    /// The class at `index`. `const`, so per-class derived tables can
    /// live in statics.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub const fn class(&self, index: usize) -> SizeClass {
        assert!(index < self.count, "size class index out of range");
        self.classes[index]
    }

    /// Map a request of `size` bytes to its class index, or `None` when
    /// the request exceeds [`max_size`](Self::max_size) (large-object
    /// path).
    ///
    /// Sizes ≤ 128 are resolved arithmetically (classes there are exact
    /// 8-byte steps); larger sizes through the bucket table.
    #[inline]
    pub fn index_for(&self, size: usize) -> Option<usize> {
        if size > self.max_size {
            return None;
        }
        if size <= LINEAR_MAX {
            // Classes 0..=15 are 8, 16, ..., 128.
            return Some((size.max(1) - 1) / 8);
        }
        // Consecutive tail classes are a factor ~6/5 apart and a bucket
        // spans at most 9/8, so at most one class boundary falls inside
        // the bucket — two where the final `S/2` class, appended out of
        // sequence, sits close behind its predecessor. `size ≤ max_size`
        // bounds the walk.
        let mut i = self.tail[Self::tail_bucket(size)] as usize;
        while (self.classes[i].block_size as usize) < size {
            i += 1;
        }
        Some(i)
    }

    /// Iterate over the classes.
    pub fn iter(&self) -> impl Iterator<Item = SizeClass> + '_ {
        self.classes[..self.count].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: SizeClassTable = SizeClassTable::for_superblock_size(8192);

    #[test]
    fn table_is_const_constructible() {
        assert!(!TABLE.is_empty());
        assert_eq!(TABLE.max_size(), 4096);
    }

    #[test]
    fn linear_prefix_is_exact_8_byte_steps() {
        for (i, expect) in (8..=128).step_by(8).enumerate() {
            assert_eq!(TABLE.class(i).block_size, expect as u32);
        }
    }

    #[test]
    fn classes_are_monotone_and_8_aligned() {
        let mut prev = 0;
        for c in TABLE.iter() {
            assert!(c.block_size > prev);
            assert_eq!(c.block_size % 8, 0);
            prev = c.block_size;
        }
    }

    #[test]
    fn growth_ratio_is_bounded() {
        // Consecutive classes differ by at most the 1.2 factor (plus
        // 8-byte rounding slack), bounding internal fragmentation.
        let classes: Vec<_> = TABLE.iter().collect();
        for w in classes.windows(2) {
            let ratio = w[1].block_size as f64 / w[0].block_size as f64;
            assert!(
                ratio <= 1.2 + 8.0 / w[0].block_size as f64 + 1e-9,
                "ratio {ratio} too large between {} and {}",
                w[0].block_size,
                w[1].block_size
            );
        }
    }

    #[test]
    fn index_for_covers_every_size() {
        for size in 1..=TABLE.max_size() {
            let idx = TABLE
                .index_for(size)
                .unwrap_or_else(|| panic!("no class for size {size}"));
            let c = TABLE.class(idx);
            assert!(
                c.block_size as usize >= size,
                "class {} too small for {size}",
                c.block_size
            );
            if idx > 0 {
                assert!(
                    (TABLE.class(idx - 1).block_size as usize) < size,
                    "size {size} should use the smaller class {idx}"
                );
            }
        }
    }

    /// The linear scan `index_for` used before the bucket table.
    fn index_by_scan(t: &SizeClassTable, size: usize) -> Option<usize> {
        t.iter().position(|c| c.block_size as usize >= size)
    }

    #[test]
    fn bucket_table_agrees_with_the_scan_for_every_size() {
        for shift in 10..=17 {
            let t = SizeClassTable::for_superblock_size(1 << shift);
            for size in 1..=t.max_size() + 1 {
                let found = t.index_for(size);
                assert_eq!(found, index_by_scan(&t, size), "S = 2^{shift}, size {size}");
                // ... and the walk from the bucket's first class is short.
                if size > LINEAR_MAX && size <= t.max_size() {
                    let start = t.tail[SizeClassTable::tail_bucket(size)] as usize;
                    assert!(found.unwrap() - start <= 2, "S = 2^{shift}, size {size}");
                }
            }
        }
    }

    #[test]
    fn oversize_requests_have_no_class() {
        assert_eq!(TABLE.index_for(TABLE.max_size() + 1), None);
        assert_eq!(TABLE.index_for(usize::MAX), None);
    }

    #[test]
    fn exact_class_sizes_map_to_themselves() {
        for (i, c) in TABLE.iter().enumerate() {
            assert_eq!(TABLE.index_for(c.block_size as usize), Some(i));
        }
    }

    #[test]
    fn other_superblock_sizes_work() {
        for s in [1024usize, 4096, 16 * 1024, 64 * 1024] {
            let t = SizeClassTable::for_superblock_size(s);
            assert_eq!(t.max_size(), s / 2, "coverage up to exactly S/2");
            assert!(t.len() <= MAX_CLASSES);
            // Full coverage.
            for size in [1usize, 8, 9, 100, s / 4, t.max_size()] {
                assert!(t.index_for(size).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "size class table overflow")]
    fn bound_is_the_last_size_that_fits() {
        let _ = SizeClassTable::for_superblock_size(2 * MAX_SUPERBLOCK_SIZE);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_index_bounds_checked() {
        let _ = TABLE.class(TABLE.len());
    }
}
