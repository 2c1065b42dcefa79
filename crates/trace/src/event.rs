//! The event taxonomy: every dynamic behaviour the allocator's claims
//! rest on, as a small fixed vocabulary of typed records.
//!
//! Events are deliberately *address-free*: they carry a virtual
//! timestamp, a kind, and two small integer arguments (size class, heap
//! index, batch size, wait duration — whatever the kind calls for, see
//! each variant). Omitting pointers is what makes traces deterministic
//! and diffable across runs: two runs of the same seeded workload
//! produce byte-identical traces even though the OS hands their chunks
//! out at different addresses.

/// What happened. The `arg0`/`arg1` documentation on each variant is
/// the schema for [`Event`]'s payload fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Small allocation served under the heap lock.
    /// `arg0` = size class, `arg1` = block size in bytes.
    Alloc,
    /// Small allocation served lock-free from a thread magazine.
    /// `arg0` = size class, `arg1` = block size in bytes.
    AllocMagazine,
    /// Large allocation: its own chunk, from the large pool or the
    /// chunk source. `arg0` = 1 for a pool hit (0 = the source was
    /// asked), `arg1` = requested bytes.
    AllocLarge,
    /// Small free applied under the owning heap's lock.
    /// `arg0` = size class, `arg1` = owning heap index.
    Free,
    /// Small free absorbed lock-free by a thread magazine.
    /// `arg0` = size class, `arg1` = 0.
    FreeMagazine,
    /// Large free. `arg0` = 1 when the chunk was parked in the large
    /// pool (0 = returned to the chunk source), `arg1` = freed bytes.
    FreeLarge,
    /// A dry magazine pulled a batch from its heap.
    /// `arg0` = size class, `arg1` = blocks pulled.
    MagazineRefill,
    /// A full magazine returned a batch to its heap.
    /// `arg0` = size class, `arg1` = blocks returned.
    MagazineFlush,
    /// A free from a non-owning thread deferred onto the superblock's
    /// remote stack. `arg0` = size class, `arg1` = owning heap index.
    RemoteFreePush,
    /// The owner drained a superblock's deferred remote stack.
    /// `arg0` = size class, `arg1` = blocks drained.
    RemoteFreeDrain,
    /// A superblock migrated from a per-processor heap to the global
    /// heap (emptiness-invariant restoration).
    /// `arg0` = source heap index, `arg1` = superblock fullness in
    /// percent at the moment of transfer.
    TransferToGlobal,
    /// A superblock fetched from the global heap into a per-processor
    /// heap. `arg0` = destination heap index, `arg1` = fullness %.
    TransferFromGlobal,
    /// A free pushed its heap across the emptiness-invariant boundary
    /// (`u < a − K·S ∧ u < (1−f)·a`), arming the release latch.
    /// `arg0` = heap index, `arg1` = 0.
    EmptinessCross,
    /// A heap lock acquisition, including its (possibly zero) virtual
    /// wait. `arg0` = heap index, `arg1` = virtual units waited beyond
    /// an uncontended acquire (> 0 means the acquisition was contended).
    LockAcquire,
    /// A heap lock release, closing an acquisition.
    /// `arg0` = heap index, `arg1` = virtual units the lock was held.
    LockRelease,
    /// The hardening layer rejected a corrupt operation.
    /// `arg0` = `CorruptionKind` as ordinal, `arg1` = 0.
    Corruption,
    /// OOM recovery reclaimed cached empty superblocks.
    /// `arg0` = heap index scanned from, `arg1` = chunks reclaimed.
    OomReclaim,
    /// A poisoned mutex (a thread panicked while holding it) was
    /// recovered by the poisoning-tolerant accessor.
    /// `arg0` = 0, `arg1` = 0.
    LockPoisoned,
}

impl EventKind {
    /// Stable short label, used by the Chrome exporter and `hoardscope`.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Alloc => "alloc",
            EventKind::AllocMagazine => "alloc.magazine",
            EventKind::AllocLarge => "alloc.large",
            EventKind::Free => "free",
            EventKind::FreeMagazine => "free.magazine",
            EventKind::FreeLarge => "free.large",
            EventKind::MagazineRefill => "magazine.refill",
            EventKind::MagazineFlush => "magazine.flush",
            EventKind::RemoteFreePush => "remote.push",
            EventKind::RemoteFreeDrain => "remote.drain",
            EventKind::TransferToGlobal => "transfer.to_global",
            EventKind::TransferFromGlobal => "transfer.from_global",
            EventKind::EmptinessCross => "emptiness.cross",
            EventKind::LockAcquire => "lock.acquire",
            EventKind::LockRelease => "lock.release",
            EventKind::Corruption => "corruption",
            EventKind::OomReclaim => "oom.reclaim",
            EventKind::LockPoisoned => "lock.poisoned",
        }
    }

    /// Inverse of [`label`](Self::label), for parsing native traces.
    pub fn from_label(label: &str) -> Option<EventKind> {
        Self::ALL.iter().copied().find(|k| k.label() == label)
    }

    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 18] = [
        EventKind::Alloc,
        EventKind::AllocMagazine,
        EventKind::AllocLarge,
        EventKind::Free,
        EventKind::FreeMagazine,
        EventKind::FreeLarge,
        EventKind::MagazineRefill,
        EventKind::MagazineFlush,
        EventKind::RemoteFreePush,
        EventKind::RemoteFreeDrain,
        EventKind::TransferToGlobal,
        EventKind::TransferFromGlobal,
        EventKind::EmptinessCross,
        EventKind::LockAcquire,
        EventKind::LockRelease,
        EventKind::Corruption,
        EventKind::OomReclaim,
        EventKind::LockPoisoned,
    ];

    /// Chrome-trace category for the kind (groups tracks of related
    /// events in the Perfetto UI).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Alloc | EventKind::AllocMagazine | EventKind::AllocLarge => "alloc",
            EventKind::Free | EventKind::FreeMagazine | EventKind::FreeLarge => "free",
            EventKind::MagazineRefill
            | EventKind::MagazineFlush
            | EventKind::RemoteFreePush
            | EventKind::RemoteFreeDrain => "magazine",
            EventKind::TransferToGlobal
            | EventKind::TransferFromGlobal
            | EventKind::EmptinessCross => "transfer",
            EventKind::LockAcquire | EventKind::LockRelease => "lock",
            EventKind::Corruption | EventKind::OomReclaim | EventKind::LockPoisoned => "hardening",
        }
    }

    /// Names for (`arg0`, `arg1`) per the variant schemas above; used
    /// for the `args` object in the Chrome export.
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Alloc | EventKind::AllocMagazine => ("class", "bytes"),
            EventKind::AllocLarge | EventKind::FreeLarge => ("pooled", "bytes"),
            EventKind::Free | EventKind::RemoteFreePush => ("class", "heap"),
            EventKind::FreeMagazine => ("class", "zero"),
            EventKind::MagazineRefill | EventKind::MagazineFlush | EventKind::RemoteFreeDrain => {
                ("class", "blocks")
            }
            EventKind::TransferToGlobal | EventKind::TransferFromGlobal => {
                ("heap", "fullness_pct")
            }
            EventKind::EmptinessCross => ("heap", "zero"),
            EventKind::LockAcquire => ("heap", "waited"),
            EventKind::LockRelease => ("heap", "held"),
            EventKind::Corruption => ("kind", "zero"),
            EventKind::OomReclaim => ("heap", "chunks"),
            EventKind::LockPoisoned => ("zero", "zero"),
        }
    }
}

/// One recorded occurrence: virtual timestamp plus the kind's payload.
/// The emitting virtual processor is implied by the track the event sits
/// in (see [`crate::TraceLog`]), keeping the record at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual-clock instant (`hoard_sim::now()`) at emission.
    pub ts: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload field; see [`EventKind`] variant docs.
    pub arg0: u32,
    /// Second payload field; see [`EventKind`] variant docs.
    pub arg1: u64,
}

impl Event {
    /// Zeroed placeholder used to pre-fill ring storage.
    pub(crate) const EMPTY: Event = Event {
        ts: 0,
        kind: EventKind::Alloc,
        arg0: 0,
        arg1: 0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_roundtrip() {
        let mut labels: Vec<_> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_label(k.label()), Some(k));
        }
        assert_eq!(EventKind::from_label("nonsense"), None);
    }

    #[test]
    fn event_record_stays_small() {
        // The ring pre-allocates capacity × tracks of these; keep the
        // record compact so a default sink stays a few megabytes.
        assert!(std::mem::size_of::<Event>() <= 24);
    }
}
