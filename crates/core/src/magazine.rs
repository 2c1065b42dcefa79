//! The thread-local allocation front-end: bounded per-class magazines.
//!
//! A **magazine** is a small fixed array of detached free-block payload
//! pointers for one size class. The hot `malloc` pops from it and the
//! hot `free` pushes onto it — no heap lock, no shared cache line. When
//! a magazine runs dry it *refills* (a batch of blocks pulled from the
//! owning heap under **one** lock acquisition); when it overflows it
//! *flushes* (a batch returned under one acquisition, running the
//! existing emptiness-invariant machinery). This is the design lineage
//! of mimalloc's thread-free lists, rpmalloc's thread caches, and the
//! magazine layer of Bonwick's vmem — grafted onto Hoard's heaps
//! without breaking the paper's bounds, because capacity is strictly
//! bounded and magazine-held blocks remain counted in the owning heap's
//! `u`/`a` (see DESIGN.md §9).
//!
//! Magazines are keyed by *virtual processor* (`hoard_sim::current_proc`),
//! not by OS thread: the allocator owns a fixed array of
//! [`MagazineSlot`]s and a thread uses slot `proc % MAG_SLOTS`. Slots
//! are claimed per *operation* with one atomic swap — if two procs
//! hash to the same slot and collide, the loser simply falls back to
//! the locked path, so sharing degrades throughput but never
//! correctness. Keeping the storage inside the allocator (instead of
//! `thread_local!`) preserves `const` construction for
//! `#[global_allocator]` use and lets tests flush every magazine
//! deterministically.

use crate::list;
use crate::superblock::Superblock;
use crate::HoardConfig;
use hoard_mem::{AllocSnapshot, StatsShard};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// Number of magazine slots per allocator. A power of two above the
/// simulated processor counts (P ≤ 14 in the experiment grid), so live
/// procs rarely collide; a collision costs a locked-path fallback, not
/// correctness. Kept modest because the slots are embedded in the
/// (`const`-constructible, hence stack-transiting) allocator struct.
pub(crate) const MAG_SLOTS: usize = 16;

/// Size classes served by the front-end: the 8-byte-step classes
/// (≤ 128 B) plus the first ×1.2 classes, up to ~550 B — where
/// allocation rates are highest and superblocks hold many blocks.
/// Larger classes hold only a handful of blocks per superblock, so
/// even a small magazine would hoard a superblock's worth — they stay
/// on the locked path.
pub(crate) const MAG_CLASSES: usize = 24;

/// Hard upper bound on [`HoardConfig::magazine_capacity`]
/// (`crate::HoardConfig::magazine_capacity`); also the static size of
/// each magazine's pointer array.
pub const MAX_MAGAZINE_CAPACITY: usize = 64;

/// Capacity installed by
/// [`HoardConfig::with_default_magazines`](crate::HoardConfig::with_default_magazines).
/// With half-capacity batching this bounds the locked share of a pure
/// allocation burst to 1 in 16 operations.
pub const DEFAULT_MAGAZINE_CAPACITY: usize = 32;

/// One size class's stash of detached free blocks. All access happens
/// under the owning [`MagazineSlot`]'s claim.
pub(crate) struct Magazine {
    len: u32,
    blocks: [*mut u8; MAX_MAGAZINE_CAPACITY],
}

impl Magazine {
    const fn new() -> Self {
        Magazine {
            len: 0,
            blocks: [std::ptr::null_mut(); MAX_MAGAZINE_CAPACITY],
        }
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[cfg_attr(not(test), allow(dead_code))] // test helper
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pop the most recently stashed block (LIFO keeps payloads warm).
    pub fn pop(&mut self) -> Option<*mut u8> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.blocks[self.len as usize])
    }

    /// Stash a block. Caller keeps `len < capacity ≤ MAX_MAGAZINE_CAPACITY`.
    pub fn push(&mut self, p: *mut u8) {
        debug_assert!((self.len as usize) < MAX_MAGAZINE_CAPACITY);
        self.blocks[self.len as usize] = p;
        self.len += 1;
    }

    /// Remove the `n` oldest blocks (the magazine's bottom) into `out`,
    /// keeping the warm recently-freed top in place. Returns how many
    /// were taken.
    pub fn take_oldest(&mut self, n: usize, out: &mut [*mut u8]) -> usize {
        let n = n.min(self.len as usize);
        out[..n].copy_from_slice(&self.blocks[..n]);
        self.blocks.copy_within(n..self.len as usize, 0);
        self.len -= n as u32;
        n
    }
}

/// Sentinel for `Superblock::group` marking membership of a slot's
/// empty list (mirrors `heap::EMPTY_LIST`; slots keep no fullness
/// groups, so binned slot superblocks carry group `0`).
const SLOT_EMPTY_LIST: u8 = u8::MAX;

/// A magazine slot's private mini-heap, used only by the lock-free
/// back-end: the superblocks this slot *owns* (their `owner` is
/// `SLOT_OWNER_BASE + slot`) plus the slot's own emptiness-invariant
/// coordinates. Every field is guarded by the slot's claim — plain
/// integers, list heads touched single-threadedly — which is what lets
/// refills, flushes, and same-slot frees run without any heap lock.
///
/// Unlike a [`Heap`](crate::heap::Heap) there are no fullness groups:
/// the emptiness invariant bounds a slot's slack to `K·S`, so these
/// lists stay a handful of superblocks long and a fullest-first linear
/// scan costs less than group bookkeeping.
pub(crate) struct SlotHeap {
    /// Bytes in use across slot-owned superblocks (deferred remote
    /// frees still count until drained, exactly as on the heaps).
    pub u: u64,
    /// Usable bytes held across slot-owned superblocks.
    pub a: u64,
    /// One intrusive superblock list per front-end size class.
    bins: [AtomicPtr<Superblock>; MAG_CLASSES],
    /// Completely empty slot-owned superblocks (any class).
    empty: AtomicPtr<Superblock>,
    pub empty_count: usize,
}

impl SlotHeap {
    const fn new() -> Self {
        SlotHeap {
            u: 0,
            a: 0,
            bins: [const { AtomicPtr::new(std::ptr::null_mut()) }; MAG_CLASSES],
            empty: AtomicPtr::new(std::ptr::null_mut()),
            empty_count: 0,
        }
    }

    /// Link an unlinked superblock into its class bin (even when empty
    /// — the refill path links before allocating from it, exactly as
    /// `Heap::link` does).
    ///
    /// # Safety
    ///
    /// Claim held; `sb` live, unlinked, owned by this slot, and its
    /// class within `MAG_CLASSES`.
    pub unsafe fn link(&mut self, sb: *mut Superblock) {
        (*sb).group = 0;
        list::push_front(&self.bins[(*sb).class as usize], sb);
    }

    /// Unlink `sb` from whichever list it is on.
    ///
    /// # Safety
    ///
    /// Claim held; `sb` linked in this slot heap.
    pub unsafe fn unlink(&mut self, sb: *mut Superblock) {
        if (*sb).group == SLOT_EMPTY_LIST {
            list::remove(&self.empty, sb);
            self.empty_count -= 1;
        } else {
            list::remove(&self.bins[(*sb).class as usize], sb);
        }
    }

    /// Re-home `sb` after its occupancy changed: a drained superblock
    /// moves to the empty list; others stay put (one bin per class).
    ///
    /// # Safety
    ///
    /// Claim held; `sb` linked in one of this slot's class bins.
    pub unsafe fn relink(&mut self, sb: *mut Superblock) {
        debug_assert_ne!((*sb).group, SLOT_EMPTY_LIST);
        if (*sb).in_use == 0 {
            list::remove(&self.bins[(*sb).class as usize], sb);
            self.push_empty(sb);
        }
    }

    /// Push a drained superblock onto the empty list.
    ///
    /// # Safety
    ///
    /// Claim held; `sb` live, unlinked, `in_use == 0`.
    pub unsafe fn push_empty(&mut self, sb: *mut Superblock) {
        debug_assert_eq!((*sb).in_use, 0);
        (*sb).group = SLOT_EMPTY_LIST;
        list::push_front(&self.empty, sb);
        self.empty_count += 1;
    }

    /// Pop a superblock from the empty list (caller reformats if the
    /// class differs), or null.
    ///
    /// # Safety
    ///
    /// Claim held.
    pub unsafe fn pop_empty(&mut self) -> *mut Superblock {
        let sb = list::pop_front(&self.empty);
        if !sb.is_null() {
            self.empty_count -= 1;
            (*sb).group = 0;
        }
        sb
    }

    /// Fullest superblock of `class` with a free block (the paper's
    /// allocation policy, by linear scan), still linked; null when none.
    ///
    /// # Safety
    ///
    /// Claim held; `class < MAG_CLASSES`.
    pub unsafe fn find_with_free(&self, class: usize) -> *mut Superblock {
        let mut best: *mut Superblock = std::ptr::null_mut();
        let mut cur = self.bins[class].load(Ordering::Relaxed);
        while !cur.is_null() {
            if Superblock::has_free(cur) && (best.is_null() || (*cur).in_use > (*best).in_use) {
                best = cur;
            }
            cur = (*cur).next;
        }
        best
    }

    /// Head of the class bin (for drain scans).
    ///
    /// # Safety
    ///
    /// Claim held; `class < MAG_CLASSES`.
    pub unsafe fn class_head(&self, class: usize) -> *mut Superblock {
        self.bins[class].load(Ordering::Relaxed)
    }

    /// Remove and return the emptiest superblock that is at least
    /// `f`-empty, plus its used bytes — empties first, then the
    /// emptiest qualifying partial across all bins. Null when none
    /// qualifies.
    ///
    /// # Safety
    ///
    /// Claim held.
    pub unsafe fn take_emptiest(&mut self, cfg: &HoardConfig) -> (*mut Superblock, u64) {
        let sb = self.pop_empty();
        if !sb.is_null() {
            return (sb, 0);
        }
        let mut best: *mut Superblock = std::ptr::null_mut();
        for bin in &self.bins {
            let mut cur = bin.load(Ordering::Relaxed);
            while !cur.is_null() {
                if cfg.f_empty_blocks((*cur).in_use, (*cur).capacity)
                    && (best.is_null()
                        || ((*cur).in_use as u64 * (*best).capacity as u64)
                            < ((*best).in_use as u64 * (*cur).capacity as u64))
                {
                    best = cur;
                }
                cur = (*cur).next;
            }
        }
        if best.is_null() {
            return (std::ptr::null_mut(), 0);
        }
        list::remove(&self.bins[(*best).class as usize], best);
        (best, Superblock::used_bytes(best))
    }

    /// Visit every slot-owned superblock (bins first, then empties).
    ///
    /// # Safety
    ///
    /// Claim held; `f` must not unlink elements.
    pub unsafe fn for_each(&self, mut f: impl FnMut(*mut Superblock)) {
        for bin in &self.bins {
            let mut cur = bin.load(Ordering::Relaxed);
            while !cur.is_null() {
                let next = (*cur).next;
                f(cur);
                cur = next;
            }
        }
        let mut cur = self.empty.load(Ordering::Relaxed);
        while !cur.is_null() {
            let next = (*cur).next;
            f(cur);
            cur = next;
        }
    }
}

/// One virtual processor's set of magazines, guarded by a per-operation
/// claim flag instead of a lock: the owner is the only live claimant in
/// the common case, so the claim is one uncontended atomic swap, and a
/// collision (two procs hashing to one slot, or a quiescent flusher)
/// makes the loser fall back to the locked allocation path.
pub(crate) struct MagazineSlot {
    claimed: AtomicBool,
    mags: UnsafeCell<[Magazine; MAG_CLASSES]>,
    /// Lock-free back-end state (inert unless `lockfree_backend`).
    /// A separate cell so `&mut SlotHeap` and `&mut Magazine` borrows
    /// never derive from the same place.
    backend: UnsafeCell<SlotHeap>,
    /// Event counters for operations that run under the claim; written
    /// only through [`SlotClaim::stats`].
    stats: StatsShard,
}

// Safety: `mags` is only touched through a `SlotClaim`, and `claimed`
// admits exactly one claimant at a time.
unsafe impl Sync for MagazineSlot {}
unsafe impl Send for MagazineSlot {}

impl MagazineSlot {
    pub const fn new() -> Self {
        MagazineSlot {
            claimed: AtomicBool::new(false),
            mags: UnsafeCell::new([const { Magazine::new() }; MAG_CLASSES]),
            backend: UnsafeCell::new(SlotHeap::new()),
            stats: StatsShard::new(),
        }
    }

    /// Sum the shard into a snapshot (read-only, no claim needed).
    pub fn add_stats_to(&self, snap: &mut AllocSnapshot) {
        self.stats.add_to(snap);
    }

    /// Bytes of blocks in this slot's magazines (read-only, no claim
    /// needed; the claimant keeps the gauge through its shard).
    pub fn cached_bytes(&self) -> u64 {
        self.stats.cached_bytes()
    }

    /// Claim exclusive access for one operation; `None` when another
    /// claimant holds the slot (caller falls back to the locked path).
    #[inline]
    pub fn try_claim(&self) -> Option<SlotClaim<'_>> {
        if self.claimed.swap(true, Ordering::Acquire) {
            return None;
        }
        Some(SlotClaim { slot: self })
    }
}

/// RAII claim on a [`MagazineSlot`]; releases on drop.
pub(crate) struct SlotClaim<'a> {
    slot: &'a MagazineSlot,
}

impl SlotClaim<'_> {
    /// The magazine for `class`. Exclusive by virtue of the claim.
    #[allow(clippy::mut_from_ref)] // exclusivity is the claim's contract
    pub fn magazine(&self, class: usize) -> &mut Magazine {
        debug_assert!(class < MAG_CLASSES);
        unsafe { &mut (*self.slot.mags.get())[class] }
    }

    /// The slot's lock-free back-end heap. Exclusive by virtue of the
    /// claim; a distinct cell from the magazines, so this may be held
    /// alongside a `magazine()` borrow.
    #[allow(clippy::mut_from_ref)] // exclusivity is the claim's contract
    pub fn heap(&self) -> &mut SlotHeap {
        unsafe { &mut *self.slot.backend.get() }
    }

    /// The slot's statistics shard, for the claimant to write. Nothing
    /// to assert: a `SlotClaim` exists only between a won `try_claim`
    /// and its drop, so having one *is* being the shard's only writer,
    /// and the claim flag's Acquire/Release orders successive claimants.
    #[inline]
    pub fn stats(&self) -> &StatsShard {
        &self.slot.stats
    }
}

impl Drop for SlotClaim<'_> {
    #[inline]
    fn drop(&mut self) {
        self.slot.claimed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magazine_is_lifo_and_bounded() {
        let mut m = Magazine::new();
        assert!(m.is_empty());
        assert_eq!(m.pop(), None);
        for i in 1..=MAX_MAGAZINE_CAPACITY {
            m.push(i as *mut u8);
        }
        assert_eq!(m.len(), MAX_MAGAZINE_CAPACITY);
        for i in (1..=MAX_MAGAZINE_CAPACITY).rev() {
            assert_eq!(m.pop(), Some(i as *mut u8));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn take_oldest_keeps_the_warm_top() {
        let mut m = Magazine::new();
        for i in 1..=8usize {
            m.push(i as *mut u8);
        }
        let mut out = [std::ptr::null_mut(); MAX_MAGAZINE_CAPACITY];
        assert_eq!(m.take_oldest(3, &mut out), 3);
        let oldest: Vec<usize> = out[..3].iter().map(|p| *p as usize).collect();
        assert_eq!(oldest, [1, 2, 3]);
        assert_eq!(m.len(), 5);
        // Remaining pops still come newest-first: 8, 7, ...
        assert_eq!(m.pop(), Some(8 as *mut u8));
        assert_eq!(m.pop(), Some(7 as *mut u8));
        // Asking for more than present takes what's there.
        assert_eq!(m.take_oldest(99, &mut out), 3);
        assert!(m.is_empty());
    }

    #[test]
    fn slot_claim_is_exclusive_and_reentrant_after_release() {
        let slot = MagazineSlot::new();
        let c = slot.try_claim().expect("fresh slot claimable");
        assert!(slot.try_claim().is_none(), "second claim must fail");
        c.magazine(0).push(8 as *mut u8);
        drop(c);
        let c2 = slot.try_claim().expect("released slot reclaimable");
        assert_eq!(c2.magazine(0).pop(), Some(8 as *mut u8));
    }

    #[test]
    fn slot_contents_survive_across_claims_per_class() {
        let slot = MagazineSlot::new();
        {
            let c = slot.try_claim().unwrap();
            c.magazine(3).push(0x30 as *mut u8);
            c.magazine(7).push(0x70 as *mut u8);
        }
        let c = slot.try_claim().unwrap();
        assert_eq!(c.magazine(3).pop(), Some(0x30 as *mut u8));
        assert_eq!(c.magazine(7).pop(), Some(0x70 as *mut u8));
        assert!(c.magazine(0).is_empty());
    }

    const S: usize = 8192;

    struct Chunk(*mut u8, std::alloc::Layout);

    impl Chunk {
        fn new() -> Self {
            let layout = std::alloc::Layout::from_size_align(S, S).unwrap();
            let p = unsafe { std::alloc::alloc(layout) };
            assert!(!p.is_null());
            Chunk(p, layout)
        }
        fn sb(&self, class: u32, block_size: u32) -> *mut Superblock {
            unsafe { Superblock::init(self.0, S, class, block_size, 0, 0) }
        }
    }

    impl Drop for Chunk {
        fn drop(&mut self) {
            unsafe { std::alloc::dealloc(self.0, self.1) };
        }
    }

    #[test]
    fn slot_heap_places_empties_and_partials_separately() {
        let (c1, c2) = (Chunk::new(), Chunk::new());
        let mut sh = SlotHeap::new();
        unsafe {
            let empty = c1.sb(2, 64);
            let partial = c2.sb(2, 64);
            let _ = Superblock::alloc_block(partial);
            sh.push_empty(empty);
            sh.link(partial);
            assert_eq!(sh.empty_count, 1);
            assert_eq!(sh.find_with_free(2), partial, "partial is binned by class");
            assert!(sh.find_with_free(3).is_null());
            let popped = sh.pop_empty();
            assert_eq!(popped, empty);
            assert_eq!(sh.empty_count, 0);
        }
    }

    #[test]
    fn slot_heap_find_prefers_fullest() {
        let (c1, c2) = (Chunk::new(), Chunk::new());
        let mut sh = SlotHeap::new();
        unsafe {
            let half = c1.sb(0, 64);
            for _ in 0..((*half).capacity / 2) {
                let _ = Superblock::alloc_block(half);
            }
            let light = c2.sb(0, 64);
            let _ = Superblock::alloc_block(light);
            sh.link(light);
            sh.link(half);
            assert_eq!(sh.find_with_free(0), half, "fullest superblock wins");
        }
    }

    #[test]
    fn slot_heap_relink_moves_drained_to_empty_list() {
        let c = Chunk::new();
        let mut sh = SlotHeap::new();
        unsafe {
            let sb = c.sb(1, 32);
            let p = Superblock::alloc_block(sb);
            sh.link(sb);
            Superblock::free_block(sb, p);
            sh.relink(sb);
            assert_eq!(sh.empty_count, 1);
            assert!(sh.find_with_free(1).is_null(), "bin no longer holds it");
            assert_eq!(sh.pop_empty(), sb);
        }
    }

    #[test]
    fn slot_heap_take_emptiest_prefers_empties_then_f_empty() {
        let cfg = HoardConfig::default();
        let (c1, c2, c3) = (Chunk::new(), Chunk::new(), Chunk::new());
        let mut sh = SlotHeap::new();
        unsafe {
            let empty = c1.sb(0, 64);
            let sparse = c2.sb(0, 64);
            let _ = Superblock::alloc_block(sparse);
            let dense = c3.sb(0, 64);
            for _ in 0..(*dense).capacity {
                let _ = Superblock::alloc_block(dense);
            }
            sh.push_empty(empty);
            sh.link(sparse);
            sh.link(dense);
            let (v1, used1) = sh.take_emptiest(&cfg);
            assert_eq!(v1, empty);
            assert_eq!(used1, 0);
            let (v2, used2) = sh.take_emptiest(&cfg);
            assert_eq!(v2, sparse, "sparse is f-empty, dense is not");
            assert_eq!(used2, 64);
            let (v3, _) = sh.take_emptiest(&cfg);
            assert!(v3.is_null(), "dense superblock is not f-empty");
            assert_eq!(sh.class_head(0), dense, "dense stays linked");
        }
    }

    #[test]
    fn slot_heap_for_each_visits_everything_once() {
        let (c1, c2, c3) = (Chunk::new(), Chunk::new(), Chunk::new());
        let mut sh = SlotHeap::new();
        unsafe {
            let a = c1.sb(0, 64);
            let b = c2.sb(5, 128);
            let _ = Superblock::alloc_block(b);
            let d = c3.sb(0, 64);
            let _ = Superblock::alloc_block(d);
            sh.push_empty(a);
            sh.link(b);
            sh.link(d);
            let mut seen = std::collections::HashSet::new();
            sh.for_each(|sb| {
                assert!(seen.insert(sb as usize));
            });
            assert_eq!(seen.len(), 3);
        }
    }
}
