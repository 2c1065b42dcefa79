//! Superblocks: fixed-size chunks carved into equal blocks of one size
//! class.
//!
//! A superblock occupies one `S`-byte chunk from the
//! [`ChunkSource`](hoard_mem::ChunkSource). Its header lives at the
//! start of the chunk; block slots follow, each slot being one header
//! word (pointing back at the superblock — how `free(ptr)` finds home)
//! plus the class's payload. Freed blocks form an intrusive LIFO through
//! their payload's first word; never-yet-allocated blocks are carved
//! lazily with a bump index, so creating a superblock touches only its
//! header.
//!
//! All mutable fields are guarded by the *owning heap's* lock; the only
//! field read without it is `owner`, an atomic, which `free` uses to
//! find (and then verify under the lock) the heap to lock. Access is by
//! raw pointer throughout — no `&mut` references are formed, so aliasing
//! rules are respected even with concurrent readers of `owner`.

use crate::FULLNESS_GROUPS;
use hoard_mem::{write_header, HeaderWord, Tag, HEADER_SIZE};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Magic value marking a live superblock header (helps catch wild
/// pointers in debug assertions).
pub(crate) const SB_MAGIC: u64 = 0x5B10_C0DE_5B10_C0DE;

// ---- packed remote-free word -------------------------------------------
//
// The deferred remote-free stack is one `AtomicU64`:
//
// ```text
//   63            40 39            20 19             0
//  +----------------+----------------+----------------+
//  |  ABA tag (24)  |   count (20)   | head index (20)|
//  +----------------+----------------+----------------+
// ```
//
// The head is a *block index* into the superblock's slot array
// (`NULL_IDX` = empty), and the chain runs through each parked payload's
// first word, which stores the next block's index. Because the head,
// the length, and a wrapping tag travel in one word, a push is a single
// CAS, and the owner detaches the whole chain *and* learns exactly how
// many blocks it got with a single `swap` — that count is what lets the
// emptiness-invariant accounting (`u -= count * block_size`) happen
// without a lock. The tag increments on every push so a CAS can never
// mistake a recycled (head, count) pair for an unchanged stack.
const IDX_BITS: u32 = 20;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
/// Sentinel head index meaning "stack empty". Also the hard cap on
/// block indices, asserted at `init`: the smallest stride is 16 bytes
/// and `HoardConfig::validate` rejects `S` above
/// `hoard_mem::MAX_SUPERBLOCK_SIZE` (2^18), so a superblock has at most
/// 16 Ki slots.
pub(crate) const NULL_IDX: u32 = IDX_MASK as u32;
const COUNT_SHIFT: u32 = 20;
const TAG_SHIFT: u32 = 40;
/// The empty remote word (tag 0, count 0, head NULL).
const REMOTE_EMPTY: u64 = IDX_MASK;

const fn pack_remote(head: u32, count: u32, tag: u64) -> u64 {
    (head as u64 & IDX_MASK)
        | ((count as u64 & IDX_MASK) << COUNT_SHIFT)
        | (tag << TAG_SHIFT)
}

const fn remote_head_idx(word: u64) -> u32 {
    (word & IDX_MASK) as u32
}

const fn remote_word_count(word: u64) -> u32 {
    ((word >> COUNT_SHIFT) & IDX_MASK) as u32
}

/// Offset of the first block slot within the chunk (past the header,
/// rounded to a cache line so block payloads of distinct superblocks
/// never share a line with header metadata).
pub(crate) const fn blocks_offset() -> usize {
    hoard_mem::align_up(std::mem::size_of::<Superblock>(), hoard_mem::CACHE_LINE)
}

/// The in-chunk superblock header. `repr(C)` so the layout is stable
/// regardless of field reordering heuristics.
#[repr(C)]
pub(crate) struct Superblock {
    pub magic: u64,
    /// Size class index this superblock currently serves.
    pub class: u32,
    /// Payload bytes per block.
    pub block_size: u32,
    /// Bytes between consecutive block payloads (header + payload).
    pub stride: u32,
    /// Total block slots in this superblock.
    pub capacity: u32,
    /// Blocks currently allocated. Guarded by the owner heap's lock.
    pub in_use: u32,
    /// Next never-used slot index (lazy carving). Guarded.
    pub bump: u32,
    /// Intrusive LIFO of freed block payloads. Guarded.
    pub free_head: *mut u8,
    /// Intrusive doubly-linked list through the owning heap's fullness
    /// group (or empty list). Guarded.
    pub next: *mut Superblock,
    pub prev: *mut Superblock,
    /// Index of the owning heap (0 = global). Written under *both* the
    /// old and new owners' locks during migration; read lock-free by
    /// `free` to decide which lock to take.
    pub owner: AtomicUsize,
    /// Deferred remote-free stack, packed into one word: (head block
    /// index, exact count, ABA tag) — see the module-level layout
    /// comment. Pushed lock-free ([`push_remote`](Self::push_remote)),
    /// detached whole by the owner in one exchange
    /// ([`take_remote`](Self::take_remote)), which also yields the
    /// exact count for `u` accounting. Blocks parked here still count
    /// as allocated (`in_use` undecremented), so the superblock can
    /// never be reformatted or released while the stack is non-empty.
    pub remote: AtomicU64,
    /// Fullness group this superblock is currently linked into.
    pub group: u8,
    /// Eviction hysteresis latch: set when the superblock fills past the
    /// `1 − f` boundary, consumed when it crosses back below. Prevents a
    /// superblock whose occupancy random-walks around the boundary from
    /// triggering invariant restoration on every oscillation.
    pub armed: bool,
}

impl Superblock {
    /// Initialize the header of a fresh chunk at `chunk` (size
    /// `superblock_size`) for blocks of `block_size` bytes (class index
    /// `class`), owned by `owner`. `extra` bytes are reserved past each
    /// block's payload (hardened allocators put their canary word
    /// there; pass 0 for the paper's layout).
    ///
    /// # Safety
    ///
    /// `chunk` must point at the start of an exclusively owned,
    /// writable chunk of `superblock_size` bytes, 8-aligned.
    pub unsafe fn init(
        chunk: *mut u8,
        superblock_size: usize,
        class: u32,
        block_size: u32,
        owner: usize,
        extra: usize,
    ) -> *mut Superblock {
        let sb = chunk as *mut Superblock;
        let stride = hoard_mem::align_up(block_size as usize, 8) + HEADER_SIZE + extra;
        let capacity = (superblock_size - blocks_offset()) / stride;
        debug_assert!(capacity >= 1, "superblock must hold at least one block");
        debug_assert!(
            capacity < NULL_IDX as usize,
            "block indices must fit the packed remote word"
        );
        sb.write(Superblock {
            magic: SB_MAGIC,
            class,
            block_size,
            stride: stride as u32,
            capacity: capacity as u32,
            in_use: 0,
            bump: 0,
            free_head: std::ptr::null_mut(),
            next: std::ptr::null_mut(),
            prev: std::ptr::null_mut(),
            owner: AtomicUsize::new(owner),
            remote: AtomicU64::new(REMOTE_EMPTY),
            group: 0,
            armed: true,
        });
        sb
    }

    /// Reformat an *empty* superblock for a different size class
    /// (cross-class recycling of empty superblocks).
    ///
    /// # Safety
    ///
    /// Caller must hold the owning heap's lock and `(*sb).in_use == 0`;
    /// `sb` must be unlinked from all lists. `extra` as in
    /// [`init`](Self::init).
    pub unsafe fn reformat(
        sb: *mut Superblock,
        superblock_size: usize,
        class: u32,
        block_size: u32,
        extra: usize,
    ) {
        debug_assert_eq!((*sb).in_use, 0, "reformat requires an empty superblock");
        debug_assert_eq!((*sb).magic, SB_MAGIC);
        // in_use == 0 implies no block is parked in the remote stack
        // (parked blocks keep in_use raised), so the stack must be empty.
        debug_assert!(
            remote_head_idx((*sb).remote.load(Ordering::Relaxed)) == NULL_IDX,
            "reformat with pending remote frees"
        );
        let stride = hoard_mem::align_up(block_size as usize, 8) + HEADER_SIZE + extra;
        let capacity = (superblock_size - blocks_offset()) / stride;
        (*sb).class = class;
        (*sb).block_size = block_size;
        (*sb).stride = stride as u32;
        (*sb).capacity = capacity as u32;
        (*sb).bump = 0;
        (*sb).free_head = std::ptr::null_mut();
        (*sb).group = 0;
        (*sb).armed = true;
    }

    /// Whether this superblock has a free block.
    ///
    /// # Safety
    ///
    /// Caller must hold the owning heap's lock.
    #[inline]
    pub unsafe fn has_free(sb: *mut Superblock) -> bool {
        (*sb).in_use < (*sb).capacity
    }

    /// Bytes of payload currently allocated from this superblock.
    ///
    /// # Safety
    ///
    /// Caller must hold the owning heap's lock.
    #[inline]
    pub unsafe fn used_bytes(sb: *mut Superblock) -> u64 {
        (*sb).in_use as u64 * (*sb).block_size as u64
    }

    /// Total payload capacity of this superblock in bytes
    /// (`capacity x block_size`). Heap `a_i` accounting uses usable
    /// bytes, so a completely full superblock has `u == a` contribution
    /// exactly — matching the paper's idealized model, in which the
    /// emptiness invariant is a fullness fraction.
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock.
    #[inline]
    pub unsafe fn usable_bytes(sb: *mut Superblock) -> u64 {
        (*sb).capacity as u64 * (*sb).block_size as u64
    }

    /// Pop one block; returns the payload pointer. The block's header
    /// word is (re)written to point at this superblock.
    ///
    /// # Safety
    ///
    /// Caller must hold the owning heap's lock and have checked
    /// [`has_free`](Self::has_free).
    #[inline]
    pub unsafe fn alloc_block(sb: *mut Superblock) -> *mut u8 {
        debug_assert!(Self::has_free(sb));
        let payload = {
            let head = (*sb).free_head;
            if !head.is_null() {
                // Reuse a freed block: next pointer lives in its payload.
                (*sb).free_head = (head as *mut *mut u8).read();
                head
            } else {
                // Carve a never-used slot.
                let idx = (*sb).bump;
                debug_assert!(idx < (*sb).capacity);
                (*sb).bump = idx + 1;
                let base = (sb as *mut u8).add(blocks_offset());
                base.add(idx as usize * (*sb).stride as usize + HEADER_SIZE)
            }
        };
        (*sb).in_use += 1;
        write_header(payload, HeaderWord::new(Tag::Superblock, sb as usize));
        payload
    }

    /// Push a block's payload back onto the free list.
    ///
    /// # Safety
    ///
    /// Caller must hold the owning heap's lock; `payload` must be a live
    /// block of this superblock.
    #[inline]
    pub unsafe fn free_block(sb: *mut Superblock, payload: *mut u8) {
        debug_assert!((*sb).in_use > 0, "free on an empty superblock");
        debug_assert!(Self::contains(sb, payload));
        (payload as *mut *mut u8).write((*sb).free_head);
        (*sb).free_head = payload;
        (*sb).in_use -= 1;
    }

    /// Whether `payload` lies within this superblock's block area.
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock.
    pub unsafe fn contains(sb: *mut Superblock, payload: *mut u8) -> bool {
        let base = (sb as *mut u8).add(blocks_offset());
        let off = (payload as usize).wrapping_sub(base as usize);
        off < (*sb).capacity as usize * (*sb).stride as usize
            && off % (*sb).stride as usize == HEADER_SIZE
    }

    /// Fullness group for the current occupancy: group 0 is emptiest,
    /// `FULLNESS_GROUPS - 1` is fullest-but-not-full, and
    /// [`full_group`](Self::full_group) holds completely full
    /// superblocks.
    ///
    /// # Safety
    ///
    /// Caller must hold the owning heap's lock.
    #[inline]
    pub unsafe fn fullness_group(sb: *mut Superblock) -> usize {
        let in_use = (*sb).in_use as usize;
        let cap = (*sb).capacity as usize;
        if in_use == cap {
            Self::full_group()
        } else {
            (in_use * FULLNESS_GROUPS / cap).min(FULLNESS_GROUPS - 1)
        }
    }

    /// Index of the group containing completely full superblocks.
    pub const fn full_group() -> usize {
        FULLNESS_GROUPS
    }

    /// Load the owner heap index (lock-free; pairs with
    /// [`set_owner`](Self::set_owner)).
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock.
    #[inline]
    pub unsafe fn owner(sb: *mut Superblock) -> usize {
        (*sb).owner.load(Ordering::Acquire)
    }

    /// Store the owner heap index. Must be called with both the old and
    /// new owners' locks held (migration).
    ///
    /// # Safety
    ///
    /// See above; `sb` must be a live superblock.
    #[inline]
    pub unsafe fn set_owner(sb: *mut Superblock, owner: usize) {
        (*sb).owner.store(owner, Ordering::Release);
    }

    /// Payload pointer of the block at slot `idx`.
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock and `idx < capacity`.
    pub unsafe fn idx_to_payload(sb: *mut Superblock, idx: u32) -> *mut u8 {
        debug_assert!(idx < (*sb).capacity);
        (sb as *mut u8)
            .add(blocks_offset())
            .add(idx as usize * (*sb).stride as usize + HEADER_SIZE)
    }

    /// Slot index of `payload` within this superblock.
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock and `payload` one of its blocks
    /// ([`contains`](Self::contains)).
    pub unsafe fn payload_to_idx(sb: *mut Superblock, payload: *mut u8) -> u32 {
        let base = (sb as *mut u8).add(blocks_offset());
        let off = (payload as usize) - (base as usize) - HEADER_SIZE;
        debug_assert_eq!(off % (*sb).stride as usize, 0);
        (off / (*sb).stride as usize) as u32
    }

    /// Push a freed block onto the deferred remote-free stack without
    /// taking any lock: write the old head's index into the payload's
    /// first word, then CAS the whole packed word (head, count+1,
    /// tag+1). The block stays accounted as allocated until the owner
    /// drains it. Returns the stack length *after* this push — the
    /// lock-free back-end's drain-pressure signal.
    ///
    /// # Safety
    ///
    /// `payload` must be a live allocated block of this superblock that
    /// the caller relinquishes; no lock is required.
    pub unsafe fn push_remote(sb: *mut Superblock, payload: *mut u8) -> u32 {
        let idx = Self::payload_to_idx(sb, payload);
        let word = &(*sb).remote;
        let mut cur = word.load(Ordering::Relaxed);
        loop {
            (payload as *mut u64).write(remote_head_idx(cur) as u64);
            let count = remote_word_count(cur) + 1;
            let tag = (cur >> TAG_SHIFT).wrapping_add(1) & ((1u64 << (64 - TAG_SHIFT)) - 1);
            let next = pack_remote(idx, count, tag);
            // Release publishes the link write (and the freeing thread's
            // poison/retag stores) to the draining owner.
            match word.compare_exchange_weak(cur, next, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return count,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Detach the whole deferred remote-free chain in one exchange,
    /// returning `(head payload or null, exact block count)`. The
    /// caller walks the chain via [`remote_next`](Self::remote_next)
    /// and may debit `u` by `count * block_size` *before* walking —
    /// the count travels in the same word as the head, so it is exact.
    ///
    /// # Safety
    ///
    /// Caller must own the superblock (heap lock in the locked
    /// back-end; slot claim or exclusivity-after-pop in the lock-free
    /// one) so drained blocks can be pushed onto the free list.
    pub unsafe fn take_remote(sb: *mut Superblock) -> (*mut u8, u32) {
        // Acquire pairs with the Release push: the chain's link words and
        // the pushers' payload writes are visible. An unconditional swap
        // is immune to ABA — whatever chain is in the word, we own it.
        let word = (*sb).remote.swap(REMOTE_EMPTY, Ordering::Acquire);
        let head = remote_head_idx(word);
        if head == NULL_IDX {
            (std::ptr::null_mut(), 0)
        } else {
            (Self::idx_to_payload(sb, head), remote_word_count(word))
        }
    }

    /// Follow the remote chain one link: the payload's first word holds
    /// the next block's slot index (or [`NULL_IDX`]).
    ///
    /// # Safety
    ///
    /// `payload` must be a block detached via
    /// [`take_remote`](Self::take_remote) whose link word is unclobbered.
    pub unsafe fn remote_next(sb: *mut Superblock, payload: *mut u8) -> *mut u8 {
        let next = (payload as *mut u64).read() as u32;
        if next == NULL_IDX {
            std::ptr::null_mut()
        } else {
            Self::idx_to_payload(sb, next)
        }
    }

    /// Exact current length of the deferred remote-free stack
    /// (lock-free peek; may be stale by the time the caller acts).
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock.
    #[inline]
    pub unsafe fn remote_len(sb: *mut Superblock) -> u32 {
        remote_word_count((*sb).remote.load(Ordering::Relaxed))
    }

    /// Whether the deferred remote-free stack is non-empty (lock-free
    /// peek; a false negative only delays a drain by one round).
    ///
    /// # Safety
    ///
    /// `sb` must be a live superblock.
    #[inline]
    pub unsafe fn remote_pending(sb: *mut Superblock) -> bool {
        remote_head_idx((*sb).remote.load(Ordering::Relaxed)) != NULL_IDX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_mem::read_header;
    use std::alloc::Layout;

    const S: usize = 8192;

    struct Chunk(*mut u8, Layout);

    impl Chunk {
        fn new() -> Self {
            let layout = Layout::from_size_align(S, 4096).unwrap();
            let p = unsafe { std::alloc::alloc(layout) };
            assert!(!p.is_null());
            Chunk(p, layout)
        }
    }

    impl Drop for Chunk {
        fn drop(&mut self) {
            unsafe { std::alloc::dealloc(self.0, self.1) };
        }
    }

    #[test]
    fn init_computes_capacity() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 3, 32, 1, 0);
            let stride = 32 + HEADER_SIZE;
            assert_eq!((*sb).capacity as usize, (S - blocks_offset()) / stride);
            assert_eq!((*sb).in_use, 0);
            assert_eq!(Superblock::owner(sb), 1);
            assert_eq!((*sb).magic, SB_MAGIC);
        }
    }

    #[test]
    fn alloc_until_full_then_free_all() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 8, 1, 0);
            let cap = (*sb).capacity;
            let mut blocks = Vec::new();
            for i in 0..cap {
                assert!(Superblock::has_free(sb));
                let p = Superblock::alloc_block(sb);
                assert_eq!(p as usize % 8, 0, "payload 8-aligned");
                // Header points home.
                let h = read_header(p);
                assert_eq!(h.tag, Tag::Superblock);
                assert_eq!(h.value, sb as usize);
                blocks.push(p);
                assert_eq!((*sb).in_use, i + 1);
            }
            assert!(!Superblock::has_free(sb));
            assert_eq!(Superblock::fullness_group(sb), Superblock::full_group());
            for p in blocks.drain(..) {
                Superblock::free_block(sb, p);
            }
            assert_eq!((*sb).in_use, 0);
            assert_eq!(Superblock::fullness_group(sb), 0);
        }
    }

    #[test]
    fn blocks_do_not_overlap_and_are_writable() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 5, 48, 1, 0);
            let cap = (*sb).capacity as usize;
            let mut ptrs = Vec::new();
            for _ in 0..cap {
                ptrs.push(Superblock::alloc_block(sb));
            }
            // Fill each block with a distinct pattern, then verify.
            for (i, &p) in ptrs.iter().enumerate() {
                std::ptr::write_bytes(p, i as u8, 48);
            }
            for (i, &p) in ptrs.iter().enumerate() {
                for off in 0..48 {
                    assert_eq!(*p.add(off), i as u8, "block {i} corrupted at {off}");
                }
            }
            // All within the chunk.
            for &p in &ptrs {
                assert!(p as usize >= c.0 as usize + blocks_offset());
                assert!((p as usize + 48) <= c.0 as usize + S);
                assert!(Superblock::contains(sb, p));
            }
        }
    }

    #[test]
    fn free_list_is_lifo() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 16, 1, 0);
            let a = Superblock::alloc_block(sb);
            let b = Superblock::alloc_block(sb);
            Superblock::free_block(sb, a);
            Superblock::free_block(sb, b);
            assert_eq!(Superblock::alloc_block(sb), b, "LIFO reuse");
            assert_eq!(Superblock::alloc_block(sb), a);
        }
    }

    #[test]
    fn reformat_changes_class_geometry() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 8, 1, 0);
            let p = Superblock::alloc_block(sb);
            Superblock::free_block(sb, p);
            Superblock::reformat(sb, S, 9, 256, 0);
            assert_eq!((*sb).class, 9);
            assert_eq!((*sb).block_size, 256);
            assert_eq!((*sb).bump, 0);
            assert!((*sb).free_head.is_null());
            let q = Superblock::alloc_block(sb);
            std::ptr::write_bytes(q, 0xFF, 256);
            assert!(Superblock::contains(sb, q));
        }
    }

    #[test]
    fn fullness_groups_partition_occupancy() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 8, 1, 0);
            let cap = (*sb).capacity;
            let mut prev_group = 0;
            let mut ptrs = Vec::new();
            for _ in 0..cap {
                ptrs.push(Superblock::alloc_block(sb));
                let g = Superblock::fullness_group(sb);
                assert!(g >= prev_group, "groups grow with occupancy");
                prev_group = g;
            }
            assert_eq!(prev_group, Superblock::full_group());
        }
    }

    #[test]
    fn packed_remote_word_roundtrips_fields() {
        assert_eq!(remote_head_idx(REMOTE_EMPTY), NULL_IDX);
        assert_eq!(remote_word_count(REMOTE_EMPTY), 0);
        let w = pack_remote(42, 7, 0xABCDEF);
        assert_eq!(remote_head_idx(w), 42);
        assert_eq!(remote_word_count(w), 7);
        assert_eq!(w >> TAG_SHIFT, 0xABCDEF);
        // Extremes stay in their fields.
        let w = pack_remote(NULL_IDX - 1, NULL_IDX - 1, (1 << 24) - 1);
        assert_eq!(remote_head_idx(w), NULL_IDX - 1);
        assert_eq!(remote_word_count(w), NULL_IDX - 1);
        assert_eq!(w >> TAG_SHIFT, (1 << 24) - 1);
    }

    #[test]
    fn remote_stack_push_take_is_lifo_and_complete() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 16, 1, 0);
            let a = Superblock::alloc_block(sb);
            let b = Superblock::alloc_block(sb);
            let d = Superblock::alloc_block(sb);
            assert!(!Superblock::remote_pending(sb));
            assert_eq!(Superblock::push_remote(sb, a), 1);
            assert_eq!(Superblock::push_remote(sb, b), 2);
            assert_eq!(Superblock::push_remote(sb, d), 3);
            assert!(Superblock::remote_pending(sb));
            assert_eq!(Superblock::remote_len(sb), 3);
            // Drain: one exchange yields the LIFO chain d -> b -> a and
            // the exact count.
            let (head, count) = Superblock::take_remote(sb);
            assert_eq!(count, 3);
            let mut drained = Vec::new();
            let mut cur = head;
            while !cur.is_null() {
                let next = Superblock::remote_next(sb, cur);
                drained.push(cur);
                cur = next;
            }
            assert_eq!(drained, vec![d, b, a]);
            assert_eq!(Superblock::remote_len(sb), 0);
            assert!(!Superblock::remote_pending(sb));
            for p in drained {
                Superblock::free_block(sb, p);
            }
            assert_eq!((*sb).in_use, 0);
            // A drained stack accepts new pushes.
            let e = Superblock::alloc_block(sb);
            assert_eq!(Superblock::push_remote(sb, e), 1);
            let (head, count) = Superblock::take_remote(sb);
            assert_eq!((head, count), (e, 1));
            Superblock::free_block(sb, e);
        }
    }

    #[test]
    fn remote_stack_survives_concurrent_pushers() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 16, 1, 0);
            let cap = (*sb).capacity as usize;
            let n = cap.min(64);
            let ptrs: Vec<usize> = (0..n)
                .map(|_| Superblock::alloc_block(sb) as usize)
                .collect();
            let sb_addr = sb as usize;
            std::thread::scope(|scope| {
                for chunk in ptrs.chunks(n / 4 + 1) {
                    let chunk = chunk.to_vec();
                    scope.spawn(move || {
                        for p in chunk {
                            Superblock::push_remote(sb_addr as *mut Superblock, p as *mut u8);
                        }
                    });
                }
            });
            assert_eq!(Superblock::remote_len(sb), n as u32);
            let (head, count) = Superblock::take_remote(sb);
            assert_eq!(count, n as u32, "packed count is exact");
            let mut cur = head;
            let mut seen = std::collections::HashSet::new();
            while !cur.is_null() {
                let next = Superblock::remote_next(sb, cur);
                assert!(seen.insert(cur as usize), "block pushed twice");
                Superblock::free_block(sb, cur);
                cur = next;
            }
            assert_eq!(seen.len(), n, "no pushes lost under contention");
            assert_eq!((*sb).in_use, 0);
        }
    }

    #[test]
    fn idx_payload_roundtrip() {
        let c = Chunk::new();
        unsafe {
            let sb = Superblock::init(c.0, S, 0, 16, 1, 0);
            for _ in 0..8 {
                let p = Superblock::alloc_block(sb);
                let idx = Superblock::payload_to_idx(sb, p);
                assert_eq!(Superblock::idx_to_payload(sb, idx), p);
            }
        }
    }

    #[test]
    fn contains_rejects_foreign_pointers() {
        let c1 = Chunk::new();
        let c2 = Chunk::new();
        unsafe {
            let sb1 = Superblock::init(c1.0, S, 0, 8, 1, 0);
            let sb2 = Superblock::init(c2.0, S, 0, 8, 1, 0);
            let p2 = Superblock::alloc_block(sb2);
            assert!(!Superblock::contains(sb1, p2));
            // Misaligned interior pointer.
            let p1 = Superblock::alloc_block(sb1);
            assert!(!Superblock::contains(sb1, p1.add(1)));
        }
    }
}
