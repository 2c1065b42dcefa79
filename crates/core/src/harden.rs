//! Hardened allocation paths: corruption detection and reporting.
//!
//! A memory allocator sits under every bug in the program above it, and
//! the classic failure modes — double free, free of a foreign or
//! interior pointer, use-after-free writes, heap overruns into block
//! metadata — all reach it through `deallocate`. The paper's allocator
//! (like its contemporaries) answers them with undefined behavior. This
//! module gives Hoard a configurable defense:
//!
//! * [`HardeningLevel::Basic`] adds O(1) validation to every
//!   `deallocate`: pointer alignment, header-tag sanity, superblock
//!   magic/ownership/range checks, and double-free detection via the
//!   [`Tag::Freed`](hoard_mem::Tag) header rewrite (small blocks) and a
//!   live registry (large objects).
//! * [`HardeningLevel::Full`] additionally poisons freed payloads
//!   (verifying the poison on reuse, which catches use-after-free
//!   writes) and plants a per-block canary past the payload (verifying
//!   it on free, which catches overruns). Canary-smashed blocks are
//!   **quarantined**: withheld from the free list but still counted
//!   in use, so the heap's accounting invariants keep holding and the
//!   process degrades gracefully instead of corrupting itself.
//!
//! Violations never panic the allocator. Each one produces a
//! [`CorruptionReport`] recorded in the allocator's [`CorruptionLog`]
//! (a fixed-capacity ring — reporting allocates nothing, so it is safe
//! even when the corrupted allocator *is* the global allocator) and
//! forwarded to an optional hook for the embedding application.
//!
//! Detection is best-effort by nature: classifying a wild pointer
//! requires reading the word before it, and a racing double free from
//! two threads can slip past the header check. Sequential misuse — by
//! far the common case — is detected deterministically.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering, Ordering::Relaxed};
use std::sync::Mutex;

/// How much checking the allocator performs on its hot paths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HardeningLevel {
    /// No checks beyond debug assertions — the paper's allocator.
    #[default]
    Off,
    /// O(1) per-operation validation: double-free and invalid-pointer
    /// detection on `deallocate`.
    Basic,
    /// `Basic` plus freed-payload poisoning (verified on reuse) and
    /// per-block canaries (verified on free, smashed blocks
    /// quarantined). Costs one extra word per block and a payload-sized
    /// memset per free.
    Full,
}

impl HardeningLevel {
    /// Whether `deallocate` validates pointers and headers.
    pub const fn detects(self) -> bool {
        !matches!(self, HardeningLevel::Off)
    }

    /// Whether freed payloads are poisoned and blocks carry canaries.
    pub const fn poisons(self) -> bool {
        matches!(self, HardeningLevel::Full)
    }
}

/// What kind of heap corruption a check caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// The same pointer was freed twice ([`Tag::Freed`](hoard_mem::Tag)
    /// header on a small block, or a large object absent from the live
    /// registry).
    DoubleFree,
    /// The pointer's header does not decode to anything this allocator
    /// ever wrote (wild or foreign pointer).
    ForeignPointer,
    /// The pointer is not [`MIN_ALIGN`](hoard_mem::MIN_ALIGN)-aligned,
    /// so it cannot be a block payload.
    MisalignedPointer,
    /// The header named a superblock, but the pointer does not lie on a
    /// block boundary inside it (interior or out-of-range pointer).
    OutOfRangePointer,
    /// The named superblock's magic word does not verify — the header
    /// or the superblock itself was overwritten.
    BadSuperblockMagic,
    /// A large object's chunk header failed its magic check.
    BadLargeMagic,
    /// A freed block's poison pattern was overwritten while the block
    /// was on the free list: a use-after-free write.
    PoisonOverwrite,
    /// A block's trailing canary was overwritten while the block was
    /// live: a heap overrun. The block is quarantined.
    CanarySmashed,
}

impl std::fmt::Display for CorruptionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CorruptionKind::DoubleFree => "double free",
            CorruptionKind::ForeignPointer => "foreign pointer",
            CorruptionKind::MisalignedPointer => "misaligned pointer",
            CorruptionKind::OutOfRangePointer => "out-of-range pointer",
            CorruptionKind::BadSuperblockMagic => "bad superblock magic",
            CorruptionKind::BadLargeMagic => "bad large-object magic",
            CorruptionKind::PoisonOverwrite => "use-after-free write",
            CorruptionKind::CanarySmashed => "canary smashed (overrun)",
        };
        f.write_str(s)
    }
}

/// One detected corruption event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionReport {
    /// What check failed.
    pub kind: CorruptionKind,
    /// The offending pointer (block payload address).
    pub address: usize,
    /// Short fixed description of the context.
    pub note: &'static str,
}

impl CorruptionReport {
    const EMPTY: CorruptionReport = CorruptionReport {
        kind: CorruptionKind::ForeignPointer,
        address: 0,
        note: "",
    };
}

impl std::fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at {:#x} ({})", self.kind, self.address, self.note)
    }
}

/// Callback invoked synchronously on every report (e.g. to log or
/// abort). Runs on the thread that called `deallocate`, outside all
/// heap locks; it must not re-enter the reporting allocator's
/// `deallocate` with the offending pointer.
pub type CorruptionHook = fn(&CorruptionReport);

/// Reports kept in the in-allocator ring. Older reports are evicted
/// first; counters never lose events.
const RECENT_CAP: usize = 32;

struct RecentRing {
    slots: [CorruptionReport; RECENT_CAP],
    len: usize,
    next: usize,
}

/// Fixed-capacity corruption-event sink owned by each allocator.
///
/// `const`-constructible and allocation-free on the reporting path, so
/// a `static` Hoard installed as `#[global_allocator]` can report its
/// own corruption without recursing into itself.
pub struct CorruptionLog {
    total: AtomicU64,
    quarantined: AtomicU64,
    recent: Mutex<RecentRing>,
    hook: Mutex<Option<CorruptionHook>>,
}

impl CorruptionLog {
    pub(crate) const fn new() -> Self {
        CorruptionLog {
            total: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            recent: Mutex::new(RecentRing {
                slots: [CorruptionReport::EMPTY; RECENT_CAP],
                len: 0,
                next: 0,
            }),
            hook: Mutex::new(None),
        }
    }

    /// Total corruption events detected over the allocator's lifetime.
    pub fn total(&self) -> u64 {
        self.total.load(Relaxed)
    }

    /// Blocks currently quarantined (withheld from reuse after a
    /// canary smash; each stays accounted as in-use).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Relaxed)
    }

    /// The most recent reports, oldest first (bounded ring; see
    /// [`total`](Self::total) for the lossless count).
    pub fn recent(&self) -> Vec<CorruptionReport> {
        let ring = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::with_capacity(ring.len);
        for i in 0..ring.len {
            let idx = (ring.next + RECENT_CAP - ring.len + i) % RECENT_CAP;
            out.push(ring.slots[idx]);
        }
        out
    }

    /// Install (or clear) the report hook.
    pub fn set_hook(&self, hook: Option<CorruptionHook>) {
        *self.hook.lock().unwrap_or_else(|e| e.into_inner()) = hook;
    }

    /// Record one event. Called outside all heap locks.
    pub(crate) fn report(&self, kind: CorruptionKind, address: usize, note: &'static str) {
        let report = CorruptionReport {
            kind,
            address,
            note,
        };
        self.total.fetch_add(1, Relaxed);
        {
            let mut ring = self.recent.lock().unwrap_or_else(|e| e.into_inner());
            let next = ring.next;
            ring.slots[next] = report;
            ring.next = (next + 1) % RECENT_CAP;
            ring.len = (ring.len + 1).min(RECENT_CAP);
        }
        let hook = *self.hook.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(hook) = hook {
            hook(&report);
        }
    }

    pub(crate) fn on_quarantine(&self) {
        self.quarantined.fetch_add(1, Relaxed);
    }
}

// ----- live-superblock registry (lock-free back-end) -----

/// Slots in the live-superblock registry. 4096 superblocks at the
/// default `S` = 8 KiB is 32 MiB of small-object heap — far past any
/// simulated workload; overflow degrades gracefully (see
/// [`SuperblockRegistry::overflowed`]).
pub(crate) const REGISTRY_CAP: usize = 4096;

const SLOT_EMPTY: usize = 0;
const SLOT_TOMB: usize = 1;

/// A `const`-constructible, allocation-free set of live superblock base
/// addresses: open-addressed linear probing over atomic slots, with
/// tombstones for removal.
///
/// The lock-free back-end derives a block's superblock by masking the
/// pointer's low bits instead of reading the per-block header — which
/// means a forged or foreign pointer masks to an address the allocator
/// may never have owned. Dereferencing it to check `SB_MAGIC` would be
/// the vulnerability, not the defense. This registry is the ground
/// truth the hardened free path consults *before* touching the masked
/// address: chunks register on allocation (before any block is handed
/// out) and unregister before release, and chunks are disjoint and
/// `S`-aligned, so a hit proves the pointer lies inside a live
/// superblock.
///
/// Addresses are chunk-aligned (≥ 4 KiB), so `0` and `1` are free to
/// serve as the empty and tombstone sentinels.
pub(crate) struct SuperblockRegistry {
    slots: [AtomicUsize; REGISTRY_CAP],
    overflowed: AtomicBool,
    /// Live entries (inserts minus removes of present addresses) — the
    /// occupancy gauge surfaced through `MetricsSnapshot::registry`.
    occupancy: AtomicUsize,
}

impl SuperblockRegistry {
    pub(crate) const fn new() -> Self {
        SuperblockRegistry {
            slots: [const { AtomicUsize::new(SLOT_EMPTY) }; REGISTRY_CAP],
            overflowed: AtomicBool::new(false),
            occupancy: AtomicUsize::new(0),
        }
    }

    /// Fibonacci-hash the aligned address into a starting slot.
    fn home(addr: usize) -> usize {
        // Low 12 bits are always zero (chunk alignment); mix the rest.
        ((addr >> 12).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % REGISTRY_CAP
    }

    /// Register a live superblock base address. Must be called before
    /// any block of the chunk is handed out. Returns `false` (and
    /// latches the overflow flag) if the table is full.
    pub(crate) fn insert(&self, addr: usize) -> bool {
        debug_assert!(addr > SLOT_TOMB);
        let home = Self::home(addr);
        for i in 0..REGISTRY_CAP {
            let slot = &self.slots[(home + i) % REGISTRY_CAP];
            let cur = slot.load(Relaxed);
            if cur == SLOT_EMPTY || cur == SLOT_TOMB {
                // Release pairs with the Acquire in `contains`: a hit
                // proves the chunk's registration (and everything the
                // registering thread published before it) is visible.
                if slot
                    .compare_exchange(cur, addr, Ordering::Release, Relaxed)
                    .is_ok()
                {
                    self.occupancy.fetch_add(1, Relaxed);
                    return true;
                }
                // Lost the slot to a concurrent insert; keep probing.
            }
        }
        self.overflowed.store(true, Ordering::Release);
        false
    }

    /// Unregister a superblock about to be released. Returns whether it
    /// was present.
    pub(crate) fn remove(&self, addr: usize) -> bool {
        let home = Self::home(addr);
        for i in 0..REGISTRY_CAP {
            let slot = &self.slots[(home + i) % REGISTRY_CAP];
            match slot.load(Relaxed) {
                a if a == addr => {
                    slot.store(SLOT_TOMB, Relaxed);
                    self.occupancy.fetch_sub(1, Relaxed);
                    return true;
                }
                SLOT_EMPTY => return false,
                _ => {}
            }
        }
        false
    }

    /// Whether `addr` is a registered live superblock base.
    pub(crate) fn contains(&self, addr: usize) -> bool {
        if addr <= SLOT_TOMB {
            // A forged pointer can mask to anything, including the
            // sentinels; never let it match an empty slot.
            return false;
        }
        let home = Self::home(addr);
        for i in 0..REGISTRY_CAP {
            let slot = &self.slots[(home + i) % REGISTRY_CAP];
            match slot.load(Ordering::Acquire) {
                a if a == addr => return true,
                SLOT_EMPTY => return false,
                _ => {}
            }
        }
        false
    }

    /// Whether an insert ever failed for lack of space. Once latched,
    /// the mask-based free path must fall back to header dispatch —
    /// absence from the registry no longer proves a pointer foreign.
    pub(crate) fn overflowed(&self) -> bool {
        self.overflowed.load(Ordering::Acquire)
    }

    /// Live entries right now (exact only at quiescent points, like
    /// every other gauge).
    pub(crate) fn occupancy(&self) -> usize {
        self.occupancy.load(Relaxed)
    }

    /// Slot capacity of the fixed table.
    pub(crate) const fn capacity(&self) -> usize {
        REGISTRY_CAP
    }
}

// ----- poisoning and canaries (Full mode) -----

/// Byte pattern written over freed payloads.
pub(crate) const POISON_BYTE: u8 = 0xF5;

/// Extra bytes appended to each block's stride for the canary word.
pub(crate) const CANARY_SIZE: usize = 8;

/// Seed mixed with the payload address, so canaries differ per block
/// and a bulk overwrite cannot accidentally restore one.
const CANARY_SEED: u64 = 0xC0DE_CAFE_5AFE_F00D;

/// First payload word holds the free-list link while a block is freed;
/// poison covers everything after it.
const LINK_BYTES: usize = std::mem::size_of::<*mut u8>();

unsafe fn canary_slot(payload: *mut u8, block_size: u32) -> *mut u64 {
    // The slot sits right past the 8-aligned payload end; strides are
    // extended by CANARY_SIZE when hardening is Full, so it is always
    // inside the block's slot.
    payload.add(hoard_mem::align_up(block_size as usize, 8)) as *mut u64
}

pub(crate) unsafe fn canary_value(payload: *mut u8) -> u64 {
    CANARY_SEED ^ payload as u64
}

/// Plant the canary for a block being handed out.
///
/// # Safety
///
/// `payload` must be a live block of a canary-strided superblock with
/// payload size `block_size`.
pub(crate) unsafe fn write_canary(payload: *mut u8, block_size: u32) {
    canary_slot(payload, block_size).write(canary_value(payload));
}

/// Whether a block's canary is intact.
///
/// # Safety
///
/// As for [`write_canary`].
pub(crate) unsafe fn canary_intact(payload: *mut u8, block_size: u32) -> bool {
    canary_slot(payload, block_size).read() == canary_value(payload)
}

/// Poison a freed payload (sparing the free-list link word).
///
/// # Safety
///
/// `payload` must be a freed block with `block_size` payload bytes.
pub(crate) unsafe fn poison_payload(payload: *mut u8, block_size: u32) {
    let size = block_size as usize;
    if size > LINK_BYTES {
        std::ptr::write_bytes(payload.add(LINK_BYTES), POISON_BYTE, size - LINK_BYTES);
    }
}

/// Whether a freed block's poison survived its stay on the free list.
///
/// # Safety
///
/// As for [`poison_payload`]; the free-list link must not yet have been
/// overwritten by reuse.
pub(crate) unsafe fn poison_intact(payload: *mut u8, block_size: u32) -> bool {
    let size = block_size as usize;
    (LINK_BYTES..size).all(|i| payload.add(i).read() == POISON_BYTE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_classify_checks() {
        assert!(!HardeningLevel::Off.detects());
        assert!(!HardeningLevel::Off.poisons());
        assert!(HardeningLevel::Basic.detects());
        assert!(!HardeningLevel::Basic.poisons());
        assert!(HardeningLevel::Full.detects());
        assert!(HardeningLevel::Full.poisons());
        assert_eq!(HardeningLevel::default(), HardeningLevel::Off);
    }

    #[test]
    fn log_ring_keeps_the_latest_reports() {
        let log = CorruptionLog::new();
        for i in 0..(RECENT_CAP + 5) {
            log.report(CorruptionKind::DoubleFree, 0x1000 + i * 8, "test");
        }
        assert_eq!(log.total(), (RECENT_CAP + 5) as u64);
        let recent = log.recent();
        assert_eq!(recent.len(), RECENT_CAP);
        assert_eq!(recent[0].address, 0x1000 + 5 * 8, "oldest surviving");
        assert_eq!(
            recent[RECENT_CAP - 1].address,
            0x1000 + (RECENT_CAP + 4) * 8,
            "newest last"
        );
    }

    #[test]
    fn hook_fires_per_report() {
        use std::sync::atomic::AtomicUsize;
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        fn hook(r: &CorruptionReport) {
            assert_eq!(r.kind, CorruptionKind::CanarySmashed);
            FIRED.fetch_add(1, Relaxed);
        }
        let log = CorruptionLog::new();
        log.set_hook(Some(hook));
        log.report(CorruptionKind::CanarySmashed, 0xABC0, "test");
        log.report(CorruptionKind::CanarySmashed, 0xABC8, "test");
        assert_eq!(FIRED.load(Relaxed), 2);
        log.set_hook(None);
        log.report(CorruptionKind::CanarySmashed, 0xABD0, "test");
        assert_eq!(FIRED.load(Relaxed), 2, "cleared hook stays silent");
    }

    #[test]
    fn poison_and_canary_roundtrip() {
        let mut buf = [0u8; 64];
        let payload = unsafe { buf.as_mut_ptr().add(8) };
        unsafe {
            poison_payload(payload, 24);
            assert!(poison_intact(payload, 24));
            payload.add(16).write(0x00);
            assert!(!poison_intact(payload, 24));

            write_canary(payload, 24);
            assert!(canary_intact(payload, 24));
            payload.add(hoard_mem::align_up(24, 8)).write(0xFF);
            assert!(!canary_intact(payload, 24));
        }
    }

    #[test]
    fn registry_insert_contains_remove() {
        let reg = SuperblockRegistry::new();
        let a = 0x10_0000usize;
        let b = 0x20_0000usize;
        assert!(!reg.contains(a));
        assert!(reg.insert(a));
        assert!(reg.insert(b));
        assert!(reg.contains(a));
        assert!(reg.contains(b));
        assert!(!reg.contains(0x30_0000));
        assert!(!reg.contains(0), "sentinel addresses never match");
        assert!(!reg.contains(1));
        assert!(reg.remove(a));
        assert!(!reg.contains(a));
        assert!(reg.contains(b), "tombstone does not break b's probe chain");
        assert!(!reg.remove(a), "double remove reports absence");
        assert!(!reg.overflowed());
    }

    #[test]
    fn registry_survives_collisions_and_reuses_tombstones() {
        let reg = SuperblockRegistry::new();
        // Many aligned addresses; some will collide in a 4096-slot table.
        let addrs: Vec<usize> = (1..=512).map(|i| i * 0x2000).collect();
        for &a in &addrs {
            assert!(reg.insert(a));
        }
        for &a in &addrs {
            assert!(reg.contains(a));
        }
        for &a in &addrs {
            assert!(reg.remove(a));
        }
        for &a in &addrs {
            assert!(!reg.contains(a));
        }
        // The table is now all tombstones in those chains; reinsert must
        // reclaim them rather than overflow.
        for &a in &addrs {
            assert!(reg.insert(a));
            assert!(reg.contains(a));
        }
        assert!(!reg.overflowed());
    }

    #[test]
    fn registry_occupancy_tracks_live_entries() {
        let reg = SuperblockRegistry::new();
        assert_eq!(reg.occupancy(), 0);
        assert_eq!(reg.capacity(), REGISTRY_CAP);
        reg.insert(0x10_0000);
        reg.insert(0x20_0000);
        assert_eq!(reg.occupancy(), 2);
        reg.remove(0x10_0000);
        assert_eq!(reg.occupancy(), 1);
        reg.remove(0x10_0000); // absent: no change
        assert_eq!(reg.occupancy(), 1);
    }

    #[test]
    fn registry_overflow_latches() {
        let reg = SuperblockRegistry::new();
        for i in 1..=REGISTRY_CAP {
            assert!(reg.insert(i * 0x1000), "fits exactly");
        }
        assert!(!reg.overflowed());
        assert!(!reg.insert((REGISTRY_CAP + 1) * 0x1000));
        assert!(reg.overflowed(), "overflow latched for fallback dispatch");
    }

    #[test]
    fn reports_format_readably() {
        let r = CorruptionReport {
            kind: CorruptionKind::DoubleFree,
            address: 0x1000,
            note: "small block",
        };
        let s = format!("{r}");
        assert!(s.contains("double free"));
        assert!(s.contains("0x1000"));
    }
}
