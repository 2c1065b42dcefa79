//! Per-processor heaps (and the global heap, which is the same struct at
//! index 0).
//!
//! A heap owns superblocks, organized per size class into **fullness
//! groups** — the paper's policy of allocating from the *fullest*
//! non-full superblock first, which densifies memory and lets empty
//! superblocks surface for reuse or migration. Completely empty
//! superblocks live on a separate per-heap list where any size class can
//! recycle them (with a reformat).
//!
//! The paper states its emptiness invariant for one size class, and so
//! does this heap: bytes in use are kept per class (`u_c`, beside the
//! usable bytes `a_c` of the superblocks linked in that class's bins),
//! and a partial is only evicted by, and from, a class whose own pair is
//! out of bounds. Heap-wide `u` is the sum of the `u_c`, on request;
//! heap-wide `a` (the `a_c` plus the empties) governs the empty list.
//!
//! Every field except the lock itself is *written* only under
//! [`Heap::lock`] — the `u_c`/`a_c`/`a`/`empty_count` gauges and the
//! statistics shard included, which is why they are updated with a
//! plain load + store rather than an atomic read-modify-write. The
//! atomics exist to make the struct `Sync` and cheaply snapshotable
//! (readers need no lock), not for lock-free algorithms.

use crate::list;
use crate::superblock::Superblock;
use crate::{HoardConfig, FULLNESS_GROUPS};
use hoard_mem::{AllocSnapshot, StatsShard, MAX_CLASSES};
use hoard_sim::{single_writer_add, single_writer_sub, VLock};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Sentinel `group` value for superblocks on the empty list.
const EMPTY_LIST: u8 = u8::MAX;

/// One size class's share of a heap: its gauges beside the list heads
/// that the call writing `u_c` walks anyway.
struct ClassBins {
    /// Bytes in use (`u_c`) in the superblocks linked below, in
    /// block-size units. Guarded: [`Heap::add_u`] / [`Heap::sub_u`].
    u: AtomicU64,
    /// Usable bytes (`a_c`) of the superblocks linked below. Guarded:
    /// [`Heap::link`] / [`Heap::unlink`] keep it.
    a: AtomicU64,
    /// `groups[group]`: list heads; group [`FULLNESS_GROUPS`] holds
    /// completely full superblocks.
    groups: [AtomicPtr<Superblock>; FULLNESS_GROUPS + 1],
}

/// One heap: lock, `u`/`a` accounting, per-class fullness groups and the
/// empty-superblock recycle list. Cache-line aligned so neighboring
/// heaps' locks do not false-share.
#[repr(align(64))]
pub(crate) struct Heap {
    pub lock: VLock,
    /// Bytes held (`a_i`): usable bytes of every owned superblock, the
    /// empties included. Guarded by `lock`: written through
    /// [`guarded_add`](Self::guarded_add) / `guarded_sub` only.
    pub a: AtomicU64,
    bins: [ClassBins; MAX_CLASSES],
    /// Completely empty superblocks, recyclable by any class.
    empty: AtomicPtr<Superblock>,
    /// Length of `empty` (telemetry and eviction fast path). Guarded.
    empty_count: AtomicU64,
    /// Event counters for operations that run under `lock`. Guarded.
    stats: StatsShard,
}

impl Heap {
    /// A fresh heap with no superblocks. `const` for static embedding.
    pub const fn new() -> Self {
        Heap {
            lock: VLock::new(),
            a: AtomicU64::new(0),
            bins: [const {
                ClassBins {
                    u: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    groups: [const { AtomicPtr::new(ptr::null_mut()) }; FULLNESS_GROUPS + 1],
                }
            }; MAX_CLASSES],
            empty: AtomicPtr::new(ptr::null_mut()),
            empty_count: AtomicU64::new(0),
            stats: StatsShard::new(),
        }
    }

    /// Length of the empty list. Exact for the lock holder; a relaxed
    /// snapshot for anyone else.
    #[inline]
    pub fn empty_count(&self) -> usize {
        self.empty_count.load(Ordering::Relaxed) as usize
    }

    /// `gauge += n` for one of this heap's guarded gauges (`u_c`, `a_c`,
    /// `a`, `empty_count`). Lock held — asserted here, the one place — so
    /// the holder is the only writer and a load + store replaces the
    /// RMW.
    #[inline]
    pub fn guarded_add(&self, gauge: &AtomicU64, n: u64) {
        self.lock.debug_assert_held("heap gauge written");
        single_writer_add(gauge, n);
    }

    /// `gauge -= n`; as for [`guarded_add`](Self::guarded_add).
    #[inline]
    pub fn guarded_sub(&self, gauge: &AtomicU64, n: u64) {
        self.lock.debug_assert_held("heap gauge written");
        single_writer_sub(gauge, n);
    }

    /// `u_c += n` for blocks of `class` handed out (or arriving inside
    /// a migrating superblock). Lock held.
    #[inline]
    pub fn add_u(&self, class: usize, n: u64) {
        self.guarded_add(&self.bins[class].u, n);
    }

    /// `u_c -= n`; as for [`add_u`](Self::add_u).
    #[inline]
    pub fn sub_u(&self, class: usize, n: u64) {
        self.guarded_sub(&self.bins[class].u, n);
    }

    /// Bytes in use in `class` (`u_c`). Exact for the lock holder.
    #[inline]
    pub fn class_u(&self, class: usize) -> u64 {
        self.bins[class].u.load(Ordering::Relaxed)
    }

    /// Usable bytes of the superblocks linked in `class`'s bins (`a_c`).
    #[inline]
    pub fn class_a(&self, class: usize) -> u64 {
        self.bins[class].a.load(Ordering::Relaxed)
    }

    /// Heap-wide bytes in use (`u_i`): one load per class, so for the
    /// trigger path and for observers, not for every `malloc` or `free`.
    pub fn u(&self) -> u64 {
        self.bins.iter().map(|b| b.u.load(Ordering::Relaxed)).sum()
    }

    /// The statistics shard, for the lock holder to write.
    #[inline]
    pub fn stats(&self) -> &StatsShard {
        self.lock.debug_assert_held("heap stats shard taken");
        &self.stats
    }

    /// Sum the shard into a snapshot (read-only, no lock needed).
    pub fn add_stats_to(&self, snap: &mut AllocSnapshot) {
        self.stats.add_to(snap);
    }

    /// What this heap holds of the allocator's `live` cell beyond the
    /// program's bytes: the undrawn part of its grant (see
    /// [`hoard_mem::AllocStats::on_alloc_in`]). Read-only, no lock
    /// needed.
    pub fn live_headroom(&self) -> u64 {
        self.stats.cached_bytes()
    }

    /// Link `sb` into the fullness group matching its occupancy.
    ///
    /// # Safety
    ///
    /// Lock held; `sb` live, unlinked, and its `class` within range.
    #[inline]
    pub unsafe fn link(&self, sb: *mut Superblock) {
        let group = Superblock::fullness_group(sb);
        (*sb).group = group as u8;
        let bins = &self.bins[(*sb).class as usize];
        self.guarded_add(&bins.a, Superblock::usable_bytes(sb));
        list::push_front(&bins.groups[group], sb);
    }

    /// Unlink `sb` from whichever list it is on (fullness bin or empty
    /// list).
    ///
    /// # Safety
    ///
    /// Lock held; `sb` live and linked in this heap.
    #[inline]
    pub unsafe fn unlink(&self, sb: *mut Superblock) {
        if (*sb).group == EMPTY_LIST {
            list::remove(&self.empty, sb);
            self.guarded_sub(&self.empty_count, 1);
        } else {
            let bins = &self.bins[(*sb).class as usize];
            self.guarded_sub(&bins.a, Superblock::usable_bytes(sb));
            list::remove(&bins.groups[(*sb).group as usize], sb);
        }
    }

    /// Re-home `sb` after its occupancy changed: move it between fullness
    /// groups, or onto the empty list when it drained completely.
    ///
    /// # Safety
    ///
    /// Lock held; `sb` live and linked in one of this heap's bins.
    #[inline]
    pub unsafe fn relink(&self, sb: *mut Superblock) {
        debug_assert_ne!((*sb).group, EMPTY_LIST, "relink of an empty-list superblock");
        if (*sb).in_use == 0 {
            self.unlink(sb);
            self.push_empty(sb);
            return;
        }
        let new_group = Superblock::fullness_group(sb);
        if new_group != (*sb).group as usize {
            let groups = &self.bins[(*sb).class as usize].groups;
            list::remove(&groups[(*sb).group as usize], sb);
            (*sb).group = new_group as u8;
            list::push_front(&groups[new_group], sb);
        }
    }

    /// Place a superblock arriving from elsewhere (migration, fresh from
    /// the OS): empty list if drained, fullness bin otherwise.
    ///
    /// # Safety
    ///
    /// Lock held; `sb` live and unlinked.
    #[inline]
    pub unsafe fn place(&self, sb: *mut Superblock) {
        if (*sb).in_use == 0 {
            self.push_empty(sb);
        } else {
            self.link(sb);
        }
    }

    /// Push a drained superblock onto the empty list.
    ///
    /// # Safety
    ///
    /// Lock held; `sb` live, unlinked, `in_use == 0`.
    #[inline]
    pub unsafe fn push_empty(&self, sb: *mut Superblock) {
        debug_assert_eq!((*sb).in_use, 0);
        (*sb).group = EMPTY_LIST;
        list::push_front(&self.empty, sb);
        self.guarded_add(&self.empty_count, 1);
    }

    /// Pop a superblock from the empty list (caller reformats if the
    /// class differs), or null.
    ///
    /// # Safety
    ///
    /// Lock held.
    #[inline]
    pub unsafe fn pop_empty(&self) -> *mut Superblock {
        let sb = list::pop_front(&self.empty);
        if !sb.is_null() {
            self.guarded_sub(&self.empty_count, 1);
            (*sb).group = 0;
        }
        sb
    }

    /// Find a superblock of `class` with at least one free block,
    /// preferring the fullest (the paper's allocation policy). Returns a
    /// superblock still linked in its bin, or null.
    ///
    /// # Safety
    ///
    /// Lock held; `class < MAX_CLASSES`.
    #[inline]
    pub unsafe fn find_with_free(&self, class: usize) -> *mut Superblock {
        for group in (0..FULLNESS_GROUPS).rev() {
            let head = self.bins[class].groups[group].load(Ordering::Relaxed);
            if !head.is_null() {
                debug_assert!(Superblock::has_free(head));
                return head;
            }
        }
        ptr::null_mut()
    }

    /// Remove and return the emptiest superblock of `class` that is at
    /// least `f`-empty (per `cfg`), for migration to the global heap;
    /// null when none qualifies.
    ///
    /// # Safety
    ///
    /// Lock held; `class < MAX_CLASSES`.
    pub unsafe fn take_emptiest(&self, class: usize, cfg: &HoardConfig) -> *mut Superblock {
        for group in 0..FULLNESS_GROUPS {
            let head = self.group_head(class, group);
            if !head.is_null() && cfg.f_empty_blocks((*head).in_use, (*head).capacity) {
                self.unlink(head);
                return head;
            }
        }
        ptr::null_mut()
    }

    /// Head of the `bins[class][group]` list (null when empty). The
    /// front-end's remote-drain scan walks the full group with this.
    ///
    /// # Safety
    ///
    /// Lock held; `class < MAX_CLASSES`, `group <= FULLNESS_GROUPS`.
    #[inline]
    pub unsafe fn group_head(&self, class: usize, group: usize) -> *mut Superblock {
        self.bins[class].groups[group].load(Ordering::Relaxed)
    }

    /// First linked superblock with a pending deferred remote-free
    /// stack, or null. The quiescent flush rescans after every drain —
    /// O(n²) worst case but allocation-free, which matters inside a
    /// `#[global_allocator]`. (Empty-list superblocks can't have
    /// pending frees: parked blocks keep `in_use > 0`.)
    ///
    /// # Safety
    ///
    /// Lock held.
    pub unsafe fn find_remote_pending(&self) -> *mut Superblock {
        for class_bins in self.bins.iter() {
            for head in class_bins.groups.iter() {
                let mut cur = head.load(Ordering::Relaxed);
                while !cur.is_null() {
                    if Superblock::remote_pending(cur) {
                        return cur;
                    }
                    cur = (*cur).next;
                }
            }
        }
        ptr::null_mut()
    }

    /// Telemetry/validation: total superblocks linked (O(n), lock held).
    ///
    /// # Safety
    ///
    /// Lock held.
    #[cfg_attr(not(test), allow(dead_code))] // test & validation helper
    pub unsafe fn superblock_count(&self) -> usize {
        let mut n = self.empty_count();
        for class_bins in self.bins.iter() {
            for head in class_bins.groups.iter() {
                n += list::len(head);
            }
        }
        n
    }

    /// Validation: walk every linked superblock, calling `f`.
    ///
    /// # Safety
    ///
    /// Lock held; `f` must not mutate lists.
    pub unsafe fn for_each_superblock(&self, mut f: impl FnMut(*mut Superblock)) {
        let mut cur = self.empty.load(Ordering::Relaxed);
        while !cur.is_null() {
            f(cur);
            cur = (*cur).next;
        }
        for class_bins in self.bins.iter() {
            for head in class_bins.groups.iter() {
                let mut cur = head.load(Ordering::Relaxed);
                while !cur.is_null() {
                    f(cur);
                    cur = (*cur).next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    const S: usize = 8192;

    fn make_sb(class: u32, block_size: u32) -> *mut Superblock {
        let layout = Layout::from_size_align(S, 4096).unwrap();
        unsafe {
            let p = std::alloc::alloc(layout);
            assert!(!p.is_null());
            Superblock::init(p, S, class, block_size, 1, 0)
        }
    }

    unsafe fn drop_sb(sb: *mut Superblock) {
        let layout = Layout::from_size_align(S, 4096).unwrap();
        std::alloc::dealloc(sb as *mut u8, layout);
    }

    #[test]
    fn link_find_prefers_fullest() {
        let heap = Heap::new();
        let _held = heap.lock.lock();
        unsafe {
            let a = make_sb(2, 24);
            let b = make_sb(2, 24);
            // Make b fuller than a.
            for _ in 0..10 {
                Superblock::alloc_block(b);
            }
            Superblock::alloc_block(a);
            heap.link(a);
            heap.link(b);
            // find should return b (higher fullness group) — unless both
            // land in the same group, in which case either is fine.
            let found = heap.find_with_free(2);
            if Superblock::fullness_group(b) > Superblock::fullness_group(a) {
                assert_eq!(found, b);
            } else {
                assert!(!found.is_null());
            }
            heap.unlink(a);
            heap.unlink(b);
            drop_sb(a);
            drop_sb(b);
        }
    }

    #[test]
    fn full_superblocks_are_not_found() {
        let heap = Heap::new();
        let _held = heap.lock.lock();
        unsafe {
            let sb = make_sb(0, 8);
            heap.link(sb);
            while Superblock::has_free(sb) {
                Superblock::alloc_block(sb);
                heap.relink(sb);
            }
            assert!(heap.find_with_free(0).is_null(), "full sb must be hidden");
            assert_eq!(heap.superblock_count(), 1, "but still owned");
            heap.unlink(sb);
            drop_sb(sb);
        }
    }

    #[test]
    fn drained_superblock_moves_to_empty_list() {
        let heap = Heap::new();
        let _held = heap.lock.lock();
        unsafe {
            let sb = make_sb(0, 8);
            heap.link(sb);
            let p = Superblock::alloc_block(sb);
            heap.relink(sb);
            Superblock::free_block(sb, p);
            heap.relink(sb);
            assert_eq!(heap.empty_count(), 1);
            assert!(heap.find_with_free(0).is_null(), "empties are recycled, not found");
            let popped = heap.pop_empty();
            assert_eq!(popped, sb);
            assert_eq!(heap.empty_count(), 0);
            drop_sb(sb);
        }
    }

    #[test]
    fn take_emptiest_stays_inside_its_class() {
        let cfg = HoardConfig::new().with_empty_fraction(1, 4);
        let heap = Heap::new();
        let _held = heap.lock.lock();
        unsafe {
            let empty = make_sb(0, 8);
            let nearly_full = make_sb(0, 8);
            let sparse = make_sb(1, 16);
            let sparser = make_sb(1, 16);
            // nearly_full: fill above 1-f occupancy.
            let cap = (*nearly_full).capacity;
            for _ in 0..(cap as usize * 9 / 10) {
                Superblock::alloc_block(nearly_full);
            }
            for _ in 0..(*sparse).capacity / 2 {
                Superblock::alloc_block(sparse);
            }
            Superblock::alloc_block(sparser);
            Superblock::alloc_block(sparser);
            for sb in [empty, nearly_full, sparse, sparser] {
                heap.place(sb);
            }
            assert_eq!(heap.class_a(0), Superblock::usable_bytes(nearly_full));
            assert_eq!(heap.class_a(1), 2 * Superblock::usable_bytes(sparse));

            // Class 0 has nothing f-empty in its bins: neither class 1's
            // sparse superblocks nor the class-less empty answer for it.
            let none = heap.take_emptiest(0, &cfg);
            assert!(none.is_null(), "nearly_full must not be evicted");
            assert_eq!(heap.empty_count(), 1, "empties are not take_emptiest's");
            // Class 1 gives up its emptiest first, then the other.
            assert_eq!(heap.take_emptiest(1, &cfg), sparser);
            assert_eq!(heap.class_a(1), Superblock::usable_bytes(sparse));
            let second = heap.take_emptiest(1, &cfg);
            assert_eq!(second, sparse, "half full is still f-empty at f = 1/4");
            assert!(heap.take_emptiest(1, &cfg).is_null());
            assert_eq!(heap.class_a(1), 0);
            heap.unlink(nearly_full);
            assert_eq!(heap.class_a(0), 0);
            assert_eq!(heap.pop_empty(), empty);
            for sb in [empty, nearly_full, sparse, sparser] {
                drop_sb(sb);
            }
        }
    }

    #[test]
    fn superblock_count_spans_all_lists() {
        let heap = Heap::new();
        let _held = heap.lock.lock();
        unsafe {
            let sbs: Vec<_> = (0..4).map(|_| make_sb(0, 8)).collect();
            Superblock::alloc_block(sbs[1]);
            for &sb in &sbs {
                heap.place(sb);
            }
            assert_eq!(heap.superblock_count(), 4);
            let mut seen = 0;
            heap.for_each_superblock(|_| seen += 1);
            assert_eq!(seen, 4);
            for &sb in &sbs {
                heap.unlink(sb);
                drop_sb(sb);
            }
        }
    }
}
