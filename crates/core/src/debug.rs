//! Validation and introspection for tests and the property suite.
//!
//! [`validate`] takes every heap lock (global last, matching the
//! allocator's lock order) and performs a full consistency scan:
//! accounting (each class's `u_c`/`a_c`, and the heap's `a`, versus the
//! superblocks actually linked), list placement (each superblock in the
//! fullness group matching its occupancy), and the emptiness-invariant
//! postcondition, heap-wide for the empties and per size class for the
//! partials. It is O(heap contents) and meant for tests, not production
//! paths. It also holds every gauge the `live` cell is read against to
//! its bound.

use crate::hoard::HoardAllocator;
use crate::superblock::Superblock;
use hoard_mem::{ChunkSource, LIVE_GRANT, MAX_CLASSES};
use std::sync::atomic::Ordering::Relaxed;

/// Observation of one populated size class of a heap during
/// [`validate`]: the superblocks in its bins (empties belong to no class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassObservation {
    /// Size class index.
    pub class: usize,
    /// Bytes in use per the class's counter (`u_c`).
    pub u: u64,
    /// Usable bytes of its linked superblocks per its counter (`a_c`).
    pub a: u64,
    /// Whether `u_c ≥ a_c − K·S ∨ u_c ≥ (1−f)·a_c` holds.
    pub invariant_holds: bool,
    /// Whether the class still holds an at least `f`-empty superblock.
    pub has_f_empty_superblock: bool,
}

/// Observation of one heap during [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapObservation {
    /// Heap index (0 = global).
    pub index: usize,
    /// Bytes in use: the sum of the heap's per-class counters.
    pub u: u64,
    /// Bytes held per the heap's counter.
    pub a: u64,
    /// Superblocks linked in the heap.
    pub superblocks: usize,
    /// How many of those sit drained on the empty list.
    pub empties: usize,
    /// The populated size classes.
    pub classes: Vec<ClassObservation>,
    /// What the heap holds of the allocator's `live` cell beyond the
    /// program's bytes (the undrawn part of its grant).
    pub live_headroom: u64,
    /// Whether the paper's emptiness invariant `u ≥ a − K·S ∨ u ≥ (1−f)·a`
    /// holds (always reported; only *meaningful* for per-processor heaps).
    pub invariant_holds: bool,
    /// Whether the heap still owns a superblock that is at least
    /// `f`-empty, drained ones included.
    pub has_f_empty_superblock: bool,
}

impl HeapObservation {
    /// The implementation's postcondition once every superblock has
    /// crossed (in between, the armed latch may leave it open), stated
    /// where it binds: a heap violating the heap-wide invariant holds no
    /// *empty* superblock, and a class violating its own holds no
    /// f-empty superblock of that class.
    pub fn emptiness_postcondition_holds(&self) -> bool {
        let settled = |c: &ClassObservation| c.invariant_holds || !c.has_f_empty_superblock;
        (self.invariant_holds || self.empties == 0) && self.classes.iter().all(settled)
    }
}

/// Result of a full-allocator consistency scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Validation {
    /// Per-heap observations (index 0 = global heap), only heaps in use.
    pub heaps: Vec<HeapObservation>,
    /// Chunk bytes of large objects out with the program.
    pub large_live: u64,
    /// Chunk bytes of freed large objects parked in the pool.
    pub large_parked: u64,
    /// High-water mark of `large_live`.
    pub large_peak: u64,
    /// What the magazine slots' deferred frees hold of the `live` cell
    /// between them (each slot's share at most `2·LIVE_GRANT`).
    pub deferred_headroom: u64,
    /// Human-readable consistency violations (empty = consistent).
    pub errors: Vec<String>,
}

impl Validation {
    /// Whether the scan found no internal inconsistency. (The emptiness
    /// invariant is reported per heap in [`HeapObservation`] but is not a
    /// consistency requirement between f-emptiness crossings — see the
    /// hysteresis discussion in `hoard.rs`.)
    pub fn is_consistent(&self) -> bool {
        self.errors.is_empty()
    }

    /// Sum of `u` over all heaps (block-size bytes in use).
    pub fn total_u(&self) -> u64 {
        self.heaps.iter().map(|h| h.u).sum()
    }

    /// Sum of `a` over all heaps (bytes held in superblocks).
    pub fn total_a(&self) -> u64 {
        self.heaps.iter().map(|h| h.a).sum()
    }
}

/// What [`validate`] requires of any superblock a heap links: intact
/// magic, that heap as its owner, and no more blocks out than it has.
unsafe fn check_superblock(who: &str, owner: usize, sb: *mut Superblock, errors: &mut Vec<String>) {
    if (*sb).magic != crate::superblock::SB_MAGIC {
        errors.push(format!("{who}: superblock with bad magic"));
    }
    if Superblock::owner(sb) != owner {
        errors.push(format!(
            "{who}: linked superblock owned by {}",
            Superblock::owner(sb)
        ));
    }
    if (*sb).in_use > (*sb).capacity {
        errors.push(format!("{who}: in_use exceeds capacity"));
    }
}

/// Scan `alloc` for internal consistency. Takes all heap locks; do not
/// call concurrently with a thread that holds one (it would deadlock on
/// the global heap only if that thread also waits on a scanned heap —
/// tests call this at quiescent points).
pub fn validate<Src: ChunkSource>(alloc: &HoardAllocator<Src>) -> Validation {
    let cfg = alloc.config();
    let mut heaps = Vec::new();
    let mut errors = Vec::new();

    for (index, heap) in alloc.heaps().iter().enumerate() {
        let _guard = heap.lock.lock();
        let u = heap.u();
        let a = heap.a.load(Relaxed);

        // Per class, what the walk finds in its bins: used bytes, usable
        // bytes, any f-empty superblock.
        let mut scanned = [(0u64, 0u64, false); MAX_CLASSES];
        let mut scanned_usable = 0u64;
        let mut scanned_count = 0usize;
        let mut empties = 0usize;
        let mut has_f_empty = false;
        let who = format!("heap {index}");
        unsafe {
            heap.for_each_superblock(|sb| {
                scanned_count += 1;
                scanned_usable += Superblock::usable_bytes(sb);
                if (*sb).group == u8::MAX {
                    empties += 1;
                } else {
                    let c = &mut scanned[(*sb).class as usize];
                    c.0 += Superblock::used_bytes(sb);
                    c.1 += Superblock::usable_bytes(sb);
                    c.2 |= cfg.f_empty_blocks((*sb).in_use, (*sb).capacity);
                }
                check_superblock(&who, index, sb, &mut errors);
                has_f_empty |= cfg.f_empty_blocks((*sb).in_use, (*sb).capacity);
                // Group placement: superblocks on bins must match their
                // occupancy group; empty-list ones carry the sentinel.
                let group = (*sb).group;
                if group != u8::MAX {
                    let expect = Superblock::fullness_group(sb);
                    if group as usize != expect {
                        errors.push(format!(
                            "heap {index}: superblock in group {group}, expected {expect}"
                        ));
                    }
                    if (*sb).in_use == 0 {
                        errors.push(format!(
                            "heap {index}: drained superblock still in a fullness bin"
                        ));
                    }
                } else if (*sb).in_use != 0 {
                    errors.push(format!(
                        "heap {index}: non-empty superblock on the empty list"
                    ));
                }
            });
        }

        // `u` is the sum of the `u_c` by construction; what can be wrong
        // is a class's own gauge. `a` is kept apart from the `a_c`, so
        // `Σ a_c + empties == a` follows from these checks and the next.
        let mut classes = Vec::new();
        for (class, &(used, usable, has_f_empty_superblock)) in scanned.iter().enumerate() {
            let (u, a) = (heap.class_u(class), heap.class_a(class));
            if (used, usable) != (u, a) {
                errors.push(format!(
                    "{who} class {class}: u_c {u} / a_c {a} != scanned {used} / {usable} bytes"
                ));
            }
            if usable > 0 {
                classes.push(ClassObservation {
                    class,
                    u,
                    a,
                    invariant_holds: !cfg.invariant_violated(u, a),
                    has_f_empty_superblock,
                });
            }
        }
        if scanned_usable != a {
            errors.push(format!(
                "heap {index}: a counter {a} != scanned usable bytes {scanned_usable}"
            ));
        }
        let live_headroom = heap.live_headroom();
        if live_headroom > 2 * LIVE_GRANT {
            errors.push(format!(
                "heap {index}: live headroom {live_headroom} above two grants"
            ));
        }

        heaps.push(HeapObservation {
            index,
            u,
            a,
            superblocks: scanned_count,
            empties,
            classes,
            live_headroom,
            invariant_holds: !cfg.invariant_violated(u, a),
            has_f_empty_superblock: has_f_empty,
        });
    }

    // The cell counts the program's bytes *plus* what the shards hold of
    // it, so a shard gauge that lost a decrement shows here (it would
    // only saturate `live_current` to 0, which is what a test expects).
    let (cell, in_shards) = (alloc.live_cell(), alloc.live_in_shards());
    if cell < in_shards {
        errors.push(format!(
            "live cell {cell} below the {in_shards} its shards hold of it"
        ));
    }
    let mut deferred_headroom = 0;
    for (i, slot) in alloc.frontend().iter().enumerate() {
        let headroom = slot.deferred_headroom();
        if headroom > 2 * LIVE_GRANT {
            errors.push(format!(
                "slot {i}: deferred headroom {headroom} above two grants"
            ));
        }
        deferred_headroom += headroom;
    }

    // The large pool holds at most what the program itself has had out
    // at once, and — with the superblocks — accounts for every byte the
    // source has handed over.
    let pool = alloc.large_pool();
    let (large_live, large_parked, large_peak) =
        (pool.live_bytes(), pool.parked_bytes(), pool.peak_bytes());
    if large_live + large_parked > large_peak {
        errors.push(format!(
            "large pool: live {large_live} + parked {large_parked} above peak {large_peak}"
        ));
    }
    // Chunks the pool abandoned with a corrupt list are leaked, not
    // lost track of.
    let superblocks: usize = heaps.iter().map(|h| h.superblocks).sum();
    let accounted = (superblocks * cfg.superblock_size) as u64
        + large_live
        + large_parked
        + pool.abandoned_bytes();
    let held = alloc.source().stats().held_current;
    if held != accounted {
        errors.push(format!(
            "source holds {held} bytes, superblocks and large pool account for {accounted}"
        ));
    }

    Validation {
        heaps,
        errors,
        large_live,
        large_parked,
        large_peak,
        deferred_headroom,
    }
}

/// [`validate`] as a pass/fail check: `Ok(())` when the allocator is
/// internally consistent, `Err` with the violation descriptions
/// otherwise. The shape the fault-injection campaign asserts after
/// every storm of injected failures.
///
/// # Errors
///
/// Returns every consistency violation [`validate`] found.
pub fn check_invariants<Src: ChunkSource>(alloc: &HoardAllocator<Src>) -> Result<(), Vec<String>> {
    let v = validate(alloc);
    if v.errors.is_empty() {
        Ok(())
    } else {
        Err(v.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_mem::MtAllocator;

    #[test]
    fn fresh_allocator_is_consistent() {
        let h = HoardAllocator::new_default();
        let v = validate(&h);
        assert!(v.is_consistent(), "{:?}", v.errors);
        assert_eq!(v.total_u(), 0);
        assert_eq!(v.total_a(), 0);
    }

    #[test]
    fn consistency_after_mixed_traffic() {
        let h = HoardAllocator::new_default();
        let mut live = Vec::new();
        unsafe {
            for i in 0..2000usize {
                let size = 8 + (i * 37) % 2048;
                live.push(h.allocate(size).unwrap());
                if i % 3 == 0 {
                    let victim = live.swap_remove((i * 31) % live.len());
                    h.deallocate(victim);
                }
            }
        }
        let v = validate(&h);
        assert!(v.is_consistent(), "{:?}", v.errors);
        assert!(v.total_u() > 0);
        unsafe {
            for p in live {
                h.deallocate(p);
            }
        }
        let v = validate(&h);
        assert!(v.is_consistent(), "{:?}", v.errors);
        assert_eq!(v.total_u(), 0, "all blocks returned");
    }

    #[test]
    fn validation_reports_totals_matching_stats() {
        let h = HoardAllocator::new_default();
        unsafe {
            let _p = h.allocate(100).unwrap();
            let v = validate(&h);
            assert_eq!(v.total_u(), h.stats().live_current);
        }
    }
}
