//! Validation and introspection for tests and the property suite.
//!
//! [`validate`] takes every heap lock (global last, matching the
//! allocator's lock order) and performs a full consistency scan:
//! accounting (each class's `u_c`/`a_c`, and the heap's `a`, versus the
//! superblocks actually linked), list placement (each superblock in the
//! fullness group matching its occupancy), and the emptiness-invariant
//! postcondition, heap-wide for the empties and per size class for the
//! partials. It is O(heap contents) and meant for tests, not production
//! paths.
//!
//! Under the lock-free back-end the scan widens to the other two owner
//! domains: each magazine slot's private mini-heap (claimed like any
//! slot operation, then scanned against its own `u`/`a`) reports as a
//! [`HeapObservation`] with index `SLOT_OWNER_BASE + slot`, and the
//! global Treiber-stack cache is walked quiescently in place of the
//! (then inert) global heap's lists, reporting as index 0.

use crate::hoard::{HoardAllocator, SLOT_OWNER_BASE};
use crate::magazine::{MagazineSlot, SlotClaim};
use crate::superblock::Superblock;
use hoard_mem::{ChunkSource, LIVE_GRANT, MAX_CLASSES};
use std::sync::atomic::Ordering::Relaxed;

/// Claim a magazine slot for scanning, spinning out any in-flight
/// allocator operation (claims are held per-operation, never across
/// blocking calls, so this terminates quickly at the quiescent points
/// validation is meant for).
fn claim_slot(slot: &MagazineSlot) -> SlotClaim<'_> {
    loop {
        if let Some(c) = slot.try_claim() {
            return c;
        }
        std::hint::spin_loop();
    }
}

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
    /// The populated size classes (none for a slot's private heap,
    /// which keeps one `u`/`a` pair).
    pub classes: Vec<ClassObservation>,
    /// What the heap holds of the allocator's `live` cell beyond the
    /// program's bytes (the undrawn part of its grant; a slot's private
    /// heap takes none).
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
    /// f-empty superblock of that class. A slot heap answers to the
    /// heap-wide form alone.
    pub fn emptiness_postcondition_holds(&self) -> bool {
        if self.classes.is_empty() {
            return self.invariant_holds || !self.has_f_empty_superblock;
        }
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

/// Aggregated per-size-class usage across all heaps (including the
/// global heap): how many superblocks serve each class and how full they
/// are. The view behind fragmentation diagnostics — a class with many
/// superblocks and few live blocks is where the held-vs-live gap lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassUsage {
    /// Size class index.
    pub class: usize,
    /// Payload bytes per block.
    pub block_size: u32,
    /// Superblocks currently formatted for this class.
    pub superblocks: usize,
    /// Live blocks across those superblocks.
    pub blocks_in_use: u64,
    /// Total block capacity across those superblocks.
    pub capacity: u64,
}

impl ClassUsage {
    /// Occupancy fraction (`0.0..=1.0`); 0 for an unused class.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.blocks_in_use as f64 / self.capacity as f64
        }
    }
}

/// Scan per-class usage. Takes all heap locks (quiescent points only,
/// like [`validate`]).
pub fn class_usage<Src: ChunkSource>(alloc: &HoardAllocator<Src>) -> Vec<ClassUsage> {
    let cfg = *alloc.config();
    let table = alloc.size_classes();
    let mut usage: Vec<ClassUsage> = (0..table.len())
        .map(|i| ClassUsage {
            class: i,
            block_size: table.class(i).block_size,
            superblocks: 0,
            blocks_in_use: 0,
            capacity: 0,
        })
        .collect();
    let mut tally = |sb: *mut Superblock| unsafe {
        let entry = &mut usage[(*sb).class as usize];
        entry.superblocks += 1;
        entry.blocks_in_use += (*sb).in_use as u64;
        entry.capacity += (*sb).capacity as u64;
    };
    for (index, heap) in alloc.heaps().iter().enumerate() {
        if index > cfg.heap_count {
            break;
        }
        let _guard = heap.lock.lock();
        unsafe {
            heap.for_each_superblock(&mut tally);
        }
    }
    if cfg.lockfree_backend {
        // The other two owner domains: slot heaps and the cache.
        for slot in alloc.frontend() {
            let claim = claim_slot(slot);
            unsafe { claim.heap().for_each(&mut tally) };
        }
        unsafe { alloc.cache().for_each(&mut tally) };
    }
    usage.retain(|u| u.superblocks > 0);
    usage
}

/// Owning heap index of a live small block (`None` for large objects).
///
/// Reads the superblock's `owner` without a lock; meaningful only at
/// quiescent points or in single-threaded tests (ownership may change
/// concurrently otherwise).
///
/// # Safety
///
/// `ptr` must be a live block previously returned by `alloc`.
pub unsafe fn block_owner<Src: ChunkSource>(
    _alloc: &HoardAllocator<Src>,
    ptr: std::ptr::NonNull<u8>,
) -> Option<usize> {
    let header = hoard_mem::read_header(ptr.as_ptr());
    match header.tag {
        hoard_mem::Tag::Superblock => {
            Some(Superblock::owner(header.value as *mut Superblock))
        }
        _ => None,
    }
}

/// What [`validate`] requires of any superblock wherever it is linked:
/// intact magic, the owner of the domain `who` that links it, and no
/// more blocks out than it has.
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
        if index > cfg.heap_count {
            break;
        }
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

    if cfg.lockfree_backend {
        // The global heap is inert in this mode: every transfer rides
        // the cache. Anything linked or counted there is a leak from
        // the locked paths.
        if let Some(g) = heaps.first() {
            if g.u != 0 || g.a != 0 || g.superblocks != 0 {
                errors.push("lockfree: global heap holds state (cache should)".into());
            }
        }

        // Replace the inert global-heap observation with a quiescent
        // walk of the cache — the lock-free owner domain 0. Cached
        // superblocks have no live counters (accounting is debited on
        // retirement and credited on adoption), so the observation is
        // purely scan-derived.
        let mut used = 0u64;
        let mut usable = 0u64;
        let mut count = 0usize;
        let mut drained = 0usize;
        let mut has_f_empty = false;
        unsafe {
            alloc.cache().for_each(|sb| {
                count += 1;
                used += Superblock::used_bytes(sb);
                usable += Superblock::usable_bytes(sb);
                if (*sb).in_use == 0 {
                    drained += 1;
                }
                check_superblock("cache", 0, sb, &mut errors);
                has_f_empty |= cfg.f_empty_blocks((*sb).in_use, (*sb).capacity);
            });
        }
        if alloc.cache().is_empty() != (count == 0) {
            errors.push("cache: is_empty disagrees with walk".into());
        }
        // Quiescently, a cached superblock is drained iff it sits on
        // the empty stack (partials are pushed with live blocks and
        // only settle/adoption touch them), so the approximate counter
        // must be exact here.
        if alloc.cache().empty_count() != drained {
            errors.push(format!(
                "cache: empty_count {} != walked drained superblocks {drained}",
                alloc.cache().empty_count()
            ));
        }
        heaps[0] = HeapObservation {
            index: 0,
            u: used,
            a: usable,
            superblocks: count,
            empties: drained,
            classes: Vec::new(),
            live_headroom: heaps[0].live_headroom,
            invariant_holds: true, // not meaningful for the cache
            has_f_empty_superblock: has_f_empty,
        };

        for (i, slot) in alloc.frontend().iter().enumerate() {
            let claim = claim_slot(slot);
            let sh = claim.heap();
            let index = SLOT_OWNER_BASE + i;
            let mut scanned_used = 0u64;
            let mut scanned_usable = 0u64;
            let mut scanned_count = 0usize;
            let mut empties = 0usize;
            let mut has_f_empty = false;
            let who = format!("slot {i}");
            unsafe {
                sh.for_each(|sb| {
                    scanned_count += 1;
                    scanned_used += Superblock::used_bytes(sb);
                    scanned_usable += Superblock::usable_bytes(sb);
                    check_superblock(&who, index, sb, &mut errors);
                    has_f_empty |= cfg.f_empty_blocks((*sb).in_use, (*sb).capacity);
                    // Slots keep no fullness groups: binned superblocks
                    // carry group 0, empty-list ones the sentinel.
                    match (*sb).group {
                        u8::MAX => {
                            empties += 1;
                            if (*sb).in_use != 0 {
                                errors.push(format!(
                                    "slot {i}: non-empty superblock on the empty list"
                                ));
                            }
                        }
                        0 => {
                            if (*sb).class as usize >= crate::magazine::MAG_CLASSES {
                                errors.push(format!(
                                    "slot {i}: binned superblock of non-front-end class {}",
                                    (*sb).class
                                ));
                            }
                            if (*sb).in_use == 0 {
                                errors.push(format!(
                                    "slot {i}: drained superblock still in a class bin"
                                ));
                            }
                        }
                        g => errors.push(format!("slot {i}: unexpected group {g}")),
                    }
                });
            }
            if empties != sh.empty_count {
                errors.push(format!(
                    "slot {i}: empty_count {} != walked empties {empties}",
                    sh.empty_count
                ));
            }
            if scanned_used != sh.u {
                errors.push(format!(
                    "slot {i}: u counter {} != scanned used bytes {scanned_used}",
                    sh.u
                ));
            }
            if scanned_usable != sh.a {
                errors.push(format!(
                    "slot {i}: a counter {} != scanned usable bytes {scanned_usable}",
                    sh.a
                ));
            }
            if scanned_count > 0 || sh.u != 0 || sh.a != 0 {
                heaps.push(HeapObservation {
                    index,
                    u: sh.u,
                    a: sh.a,
                    superblocks: scanned_count,
                    empties,
                    classes: Vec::new(),
                    live_headroom: 0,
                    invariant_holds: !cfg.invariant_violated(sh.u, sh.a),
                    has_f_empty_superblock: has_f_empty,
                });
            }
        }
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
    fn class_usage_reflects_live_blocks() {
        let h = HoardAllocator::new_default();
        unsafe {
            let a = h.allocate(24).unwrap(); // 24-byte class
            let b = h.allocate(24).unwrap();
            let c = h.allocate(1000).unwrap(); // ~1040-byte class
            let usage = class_usage(&h);
            let small = usage.iter().find(|u| u.block_size == 24).expect("24B class");
            assert_eq!(small.blocks_in_use, 2);
            assert_eq!(small.superblocks, 1);
            assert!(small.occupancy() > 0.0 && small.occupancy() < 1.0);
            let big = usage
                .iter()
                .find(|u| u.block_size as usize >= 1000)
                .expect("1000B class");
            assert_eq!(big.blocks_in_use, 1);
            h.deallocate(a);
            h.deallocate(b);
            h.deallocate(c);
        }
        // After frees the blocks are gone but (empty) superblocks may
        // remain formatted for their classes.
        let usage = class_usage(&h);
        assert!(usage.iter().all(|u| u.blocks_in_use == 0));
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
