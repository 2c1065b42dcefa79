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

use hoard_mem::{AllocSnapshot, DeferredShard, StatsShard};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

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

/// Blocks one magazine holds (per thread slot and size class). A flush
/// returns half of it, and a refill pulls half of it for blocks up to
/// `S/64` bytes, which bounds the locked share of a pure allocation
/// burst to 1 in 16 operations; larger classes refill a quarter of a
/// superblock's bytes at a time.
pub const MAGAZINE_CAPACITY: usize = 32;

/// Blocks a magazine flush returns under one heap-lock acquisition:
/// half the magazine.
pub(crate) const MAGAZINE_BATCH: usize = MAGAZINE_CAPACITY / 2;

/// One size class's stash of detached free blocks. All access happens
/// under the owning [`MagazineSlot`]'s claim.
pub(crate) struct Magazine {
    len: u32,
    blocks: [*mut u8; MAGAZINE_CAPACITY],
}

impl Magazine {
    const fn new() -> Self {
        Magazine {
            len: 0,
            blocks: [std::ptr::null_mut(); MAGAZINE_CAPACITY],
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

    /// Stash a block. Caller keeps `len < MAGAZINE_CAPACITY`.
    pub fn push(&mut self, p: *mut u8) {
        debug_assert!((self.len as usize) < MAGAZINE_CAPACITY);
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

/// One virtual processor's set of magazines, guarded by a per-operation
/// claim flag instead of a lock: the owner is the only live claimant in
/// the common case, so the claim is one uncontended atomic swap, and a
/// collision (two procs hashing to one slot, or a quiescent flusher)
/// makes the loser fall back to the locked allocation path.
///
/// `repr(C)` keeps `deferred` beside `claimed`, on the first line of the
/// slot: a deferred free claims the slot for its books alone, and then
/// writes no line but the one its claim swap took.
#[repr(C)]
pub(crate) struct MagazineSlot {
    claimed: AtomicBool,
    /// Books of the deferred remote frees this slot's claimants made;
    /// written only through [`SlotClaim::deferred`].
    deferred: DeferredShard,
    mags: UnsafeCell<[Magazine; MAG_CLASSES]>,
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
            deferred: DeferredShard::new(),
            mags: UnsafeCell::new([const { Magazine::new() }; MAG_CLASSES]),
            stats: StatsShard::new(),
        }
    }

    /// Sum both shards into a snapshot (read-only, no claim needed).
    pub fn add_stats_to(&self, snap: &mut AllocSnapshot) {
        self.stats.add_to(snap);
        self.deferred.add_to(snap);
    }

    /// Bytes of blocks in this slot's magazines (read-only, no claim
    /// needed; the claimant keeps the gauge through its shard).
    pub fn cached_bytes(&self) -> u64 {
        self.stats.cached_bytes()
    }

    /// Bytes this slot's deferred frees took from the program and have
    /// not yet handed back to the `live` cell (read-only, no claim
    /// needed).
    pub fn deferred_headroom(&self) -> u64 {
        self.deferred.headroom()
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

    /// Claim the slot, yielding until an in-flight operation releases
    /// it. Claims are held per operation, never across a blocking call,
    /// so this ends quickly at the quiescent points it is meant for
    /// (flushing the front-end, validation).
    pub fn claim(&self) -> SlotClaim<'_> {
        loop {
            if let Some(c) = self.try_claim() {
                return c;
            }
            std::thread::yield_now();
        }
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

    /// The slot's statistics shard, for the claimant to write. Nothing
    /// to assert: a `SlotClaim` exists only between a won `try_claim`
    /// and its drop, so having one *is* being the shard's only writer,
    /// and the claim flag's Acquire/Release orders successive claimants.
    #[inline]
    pub fn stats(&self) -> &StatsShard {
        &self.slot.stats
    }

    /// The slot's deferred-free books, for the claimant to write; as
    /// [`stats`](Self::stats).
    #[inline]
    pub fn deferred(&self) -> &DeferredShard {
        &self.slot.deferred
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
        for i in 1..=MAGAZINE_CAPACITY {
            m.push(i as *mut u8);
        }
        assert_eq!(m.len(), MAGAZINE_CAPACITY);
        for i in (1..=MAGAZINE_CAPACITY).rev() {
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
        let mut out = [std::ptr::null_mut(); MAGAZINE_CAPACITY];
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
}
