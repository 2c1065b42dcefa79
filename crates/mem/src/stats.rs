//! Allocator accounting.
//!
//! The paper's memory-efficiency results are stated in terms of two
//! quantities: `U(t)` — bytes *in use* by the program (requested through
//! `malloc` and not yet freed) — and `A(t)` — bytes *held* from the
//! operating system. **Fragmentation** is `max A / max U`, and **blowup**
//! compares `max A` against what an ideal serial allocator would hold.
//! [`AllocStats`] is the shared, thread-safe ledger each allocator
//! updates on its hot paths (relaxed atomics; a handful of nanoseconds).
//!
//! A locked read-modify-write on one process-global line is what a
//! scalable allocator must not do per call, so the per-call *event*
//! counters can instead live in [`StatsShard`]s: one per exclusive
//! context the allocator already holds on that path (a claimed magazine
//! slot, a locked heap), bumped with a plain load + store
//! ([`hoard_sim::single_writer_add`]) and summed into the snapshot by
//! [`StatsShard::add_to`].
//!
//! `live` stays one shared cell, but it counts more than the program's
//! bytes, so that no common path has to write it. A magazine slot's
//! blocks stay counted while they sit in the magazine (the cell moves
//! once per *batch*: a refill, a flush), and a locked heap draws the
//! cell down in *grants* of [`LIVE_GRANT`] bytes: an allocation inside
//! the heap's headroom, and every free until the headroom passes twice
//! the grant, is a load + store on the heap's own shard. Each shard
//! keeps what it holds of the cell in its single-writer
//! [`cached_bytes`](StatsShard::cached_bytes) gauge, so at every instant
//! `cell = U(t) + Σ cached_bytes`; the application-facing `U(t)` is the
//! cell less the sum of the gauges (exact at quiescence and at every
//! step of a sequential run), and `live_peak` is the peak of the cell:
//! `max U ≤ live_peak ≤ max U + magazine capacity of the slots in use +
//! 2·LIVE_GRANT·heaps in use` — the same `P·S` shape as the paper's
//! blowup bound. Only the unguarded paths (large objects, deferred
//! remote frees, the baselines) move the cell per call.

use hoard_sim::{single_writer_add, single_writer_sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of the `live` cell a locked heap's shard draws at a time (the
/// default superblock size `S`): see [`AllocStats::on_alloc_in`]. A
/// shard's headroom stays within `0 ..= 2 * LIVE_GRANT`, which is the
/// per-heap term of the [`live_peak`](AllocSnapshot::live_peak) bound.
pub const LIVE_GRANT: u64 = 8192;

/// Monotone `fetch_max` for high-water marks on a relaxed atomic.
#[inline]
pub(crate) fn peak_max(peak: &AtomicU64, candidate: u64) {
    let mut cur = peak.load(Ordering::Relaxed);
    while candidate > cur {
        match peak.compare_exchange_weak(cur, candidate, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// The per-call event counters of [`AllocStats`], for one exclusive
/// context. **Single writer**: every `on_*` below (and the
/// [`AllocStats`] `*_in` entry points taking a shard) may only be
/// called while holding whatever guards the shard, so the owner hands a
/// `&StatsShard` out only to the guard's holder and gives a snapshot
/// [`add_to`](Self::add_to) instead. Misuse loses counts; it is not a
/// memory-safety matter. Cache-line aligned so two contexts' shards
/// never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct StatsShard {
    allocs: AtomicU64,
    frees: AtomicU64,
    remote_frees: AtomicU64,
    mag_alloc_hits: AtomicU64,
    mag_free_hits: AtomicU64,
    mag_refills: AtomicU64,
    mag_flushes: AtomicU64,
    /// Bytes counted in [`AllocStats`]'s `live` cell that are not the
    /// program's: the blocks in a slot's magazines, or what is left of a
    /// heap's grant ([`LIVE_GRANT`]).
    cached_bytes: AtomicU64,
}

// One cache line: a guarded call dirties no second line for its books.
const _: () = assert!(std::mem::size_of::<StatsShard>() == 64);

impl StatsShard {
    /// A zeroed shard. `const`, so it can live in a `static` allocator.
    pub const fn new() -> Self {
        StatsShard {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            remote_frees: AtomicU64::new(0),
            mag_alloc_hits: AtomicU64::new(0),
            mag_free_hits: AtomicU64::new(0),
            mag_refills: AtomicU64::new(0),
            mag_flushes: AtomicU64::new(0),
            cached_bytes: AtomicU64::new(0),
        }
    }

    /// Record an allocation of `bytes` popped from a magazine: the block
    /// was already out of the heaps, so only this shard moves. `hit` is
    /// false when the pop followed a refill (which took the heap's
    /// guard, so it is no lock bypass).
    #[inline]
    pub fn on_magazine_alloc(&self, bytes: u64, hit: bool) {
        single_writer_add(&self.allocs, 1);
        single_writer_sub(&self.cached_bytes, bytes);
        if hit {
            single_writer_add(&self.mag_alloc_hits, 1);
        }
    }

    /// Record a free of `bytes` absorbed by a magazine: the block stays
    /// out of the heaps, so only this shard moves.
    #[inline]
    pub fn on_magazine_free(&self, bytes: u64) {
        single_writer_add(&self.frees, 1);
        single_writer_add(&self.mag_free_hits, 1);
        single_writer_add(&self.cached_bytes, bytes);
    }

    /// Bytes this shard holds of the `live` cell beyond the program's (a
    /// slot's magazine contents, a heap's headroom). Read-only, so it
    /// needs no guard; a reader subtracts it from the cell, saturating,
    /// because the two are read at different instants.
    #[inline]
    pub fn cached_bytes(&self) -> u64 {
        self.cached_bytes.load(Ordering::Relaxed)
    }

    /// Sum this shard's event counts into `snap` (the
    /// [`cached_bytes`](Self::cached_bytes) gauge is the caller's to
    /// subtract from `live_current`). Read-only, so it needs no guard:
    /// exact at quiescence; under traffic each counter is some value it
    /// held during the call, as for any relaxed snapshot.
    pub fn add_to(&self, snap: &mut AllocSnapshot) {
        snap.allocs += self.allocs.load(Ordering::Relaxed);
        snap.frees += self.frees.load(Ordering::Relaxed);
        snap.remote_frees += self.remote_frees.load(Ordering::Relaxed);
        snap.magazines.alloc_hits += self.mag_alloc_hits.load(Ordering::Relaxed);
        snap.magazines.free_hits += self.mag_free_hits.load(Ordering::Relaxed);
        snap.magazines.refills += self.mag_refills.load(Ordering::Relaxed);
        snap.magazines.flushes += self.mag_flushes.load(Ordering::Relaxed);
    }
}

/// Thread-safe allocator accounting cell. Embed one per allocator.
///
/// Every counter here is updated with an atomic RMW, so any thread may
/// call any `on_*` at any time (the `*_in` ones from inside the guard of
/// the shard they take); nothing here is ever written with the shards'
/// load + store.
#[derive(Debug, Default)]
pub struct AllocStats {
    live: AtomicU64,
    live_peak: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
    remote_frees: AtomicU64,
    transfers_to_global: AtomicU64,
    transfers_from_global: AtomicU64,
    mag_remote_pushes: AtomicU64,
    mag_remote_drains: AtomicU64,
    free_owner_retries: AtomicU64,
}

impl AllocStats {
    /// A zeroed ledger. `const`, so it can live in a `static` allocator.
    pub const fn new() -> Self {
        AllocStats {
            live: AtomicU64::new(0),
            live_peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            remote_frees: AtomicU64::new(0),
            transfers_to_global: AtomicU64::new(0),
            transfers_from_global: AtomicU64::new(0),
            mag_remote_pushes: AtomicU64::new(0),
            mag_remote_drains: AtomicU64::new(0),
            free_owner_retries: AtomicU64::new(0),
        }
    }

    /// `bytes` more are out of the heaps; raises the peak. One RMW (and
    /// a CAS only when it sets a new peak).
    #[inline]
    fn live_add(&self, bytes: u64) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        peak_max(&self.live_peak, now);
    }

    /// Record a successful allocation of `bytes` usable payload bytes.
    #[inline]
    pub fn on_alloc(&self, bytes: u64) {
        self.live_add(bytes);
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// [`on_alloc`](Self::on_alloc) from inside the lock guarding a
    /// heap's `shard`: the event count goes to the shard, and so do the
    /// bytes while they fit the shard's headroom. One that does not fit
    /// draws the shortfall plus a fresh [`LIVE_GRANT`] from the cell in
    /// one RMW (which is where the peak is raised).
    #[inline]
    pub fn on_alloc_in(&self, shard: &StatsShard, bytes: u64) {
        let room = shard.cached_bytes.load(Ordering::Relaxed);
        if bytes <= room {
            shard.cached_bytes.store(room - bytes, Ordering::Relaxed);
        } else {
            self.live_add(bytes + LIVE_GRANT - room);
            shard.cached_bytes.store(LIVE_GRANT, Ordering::Relaxed);
        }
        single_writer_add(&shard.allocs, 1);
    }

    /// Record a free of `bytes`; `remote` means the freeing thread is not
    /// the one mapped to the block's owning heap (the paper's
    /// cross-thread / "bled" frees).
    #[inline]
    pub fn on_free(&self, bytes: u64, remote: bool) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
        self.frees.fetch_add(1, Ordering::Relaxed);
        if remote {
            self.remote_frees.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`on_free`](Self::on_free) from inside the lock guarding a heap's
    /// `shard`: the event counts go to the shard and the bytes to its
    /// headroom, which hands everything above one [`LIVE_GRANT`] back to
    /// the cell in one RMW once it passes two.
    #[inline]
    pub fn on_free_in(&self, shard: &StatsShard, bytes: u64, remote: bool) {
        let mut room = shard.cached_bytes.load(Ordering::Relaxed) + bytes;
        if room > 2 * LIVE_GRANT {
            self.live.fetch_sub(room - LIVE_GRANT, Ordering::Relaxed);
            room = LIVE_GRANT;
        }
        shard.cached_bytes.store(room, Ordering::Relaxed);
        single_writer_add(&shard.frees, 1);
        if remote {
            single_writer_add(&shard.remote_frees, 1);
        }
    }

    /// Record a superblock migration to the global heap.
    #[inline]
    pub fn on_transfer_to_global(&self) {
        self.transfers_to_global.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a superblock migration from the global heap to a
    /// per-processor heap.
    #[inline]
    pub fn on_transfer_from_global(&self) {
        self.transfers_from_global.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a magazine refill (one batch pulled from a heap) from
    /// inside the exclusive context guarding `shard`: `bytes` leave the
    /// heaps for the shard's magazines in one RMW on the cell.
    #[inline]
    pub fn on_magazine_refill_in(&self, shard: &StatsShard, bytes: u64) {
        self.live_add(bytes);
        single_writer_add(&shard.cached_bytes, bytes);
        single_writer_add(&shard.mag_refills, 1);
    }

    /// Record a magazine flush (one batch returned to the heaps), as
    /// for [`on_magazine_refill_in`](Self::on_magazine_refill_in).
    #[inline]
    pub fn on_magazine_flush_in(&self, shard: &StatsShard, bytes: u64) {
        self.on_magazines_parked_in(shard, bytes);
        single_writer_add(&shard.mag_flushes, 1);
    }

    /// `bytes` of the shard's magazine contents went back to the heaps
    /// outside a flush event (a quiescence park).
    #[inline]
    pub fn on_magazines_parked_in(&self, shard: &StatsShard, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
        single_writer_sub(&shard.cached_bytes, bytes);
    }

    /// Record a free of `bytes` pushed onto a superblock's deferred
    /// remote-free stack. The pusher holds no guard, so this is the
    /// cell's: two RMWs, the bytes and the push count — every such push
    /// is one remote free, which [`snapshot`](Self::snapshot) adds to
    /// `frees` and `remote_frees` instead of counting it three times.
    #[inline]
    pub fn on_deferred_free(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
        self.mag_remote_pushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the owner draining a deferred remote-free stack
    /// (one drain event, regardless of how many blocks it recovered).
    #[inline]
    pub fn on_remote_drain(&self) {
        self.mag_remote_drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a `free` that re-read the block's owner and retried because
    /// the superblock migrated between the read and the lock acquisition.
    #[inline]
    pub fn on_free_owner_retry(&self) {
        self.free_owner_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// The cell as it stands: bytes in use by the program, plus whatever
    /// the shards hold of it ([`StatsShard::cached_bytes`]).
    #[inline]
    pub fn live_now(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of this cell alone: an allocator that
    /// hands out shards sums each in with [`StatsShard::add_to`] and
    /// takes their `cached_bytes` off `live_current`.
    pub fn snapshot(&self) -> AllocSnapshot {
        let live = self.live.load(Ordering::Relaxed);
        let deferred = self.mag_remote_pushes.load(Ordering::Relaxed);
        AllocSnapshot {
            live_current: live,
            // A writer raises the peak after the cell, so a racing
            // reader can catch the cell ahead of it.
            live_peak: self.live_peak.load(Ordering::Relaxed).max(live),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed) + deferred,
            remote_frees: self.remote_frees.load(Ordering::Relaxed) + deferred,
            transfers_to_global: self.transfers_to_global.load(Ordering::Relaxed),
            transfers_from_global: self.transfers_from_global.load(Ordering::Relaxed),
            held_current: 0,
            held_peak: 0,
            magazines: MagazineStats {
                alloc_hits: 0,
                free_hits: 0,
                refills: 0,
                flushes: 0,
                remote_pushes: deferred,
                remote_drains: self.mag_remote_drains.load(Ordering::Relaxed),
                free_owner_retries: self.free_owner_retries.load(Ordering::Relaxed),
            },
        }
    }
}

/// Snapshot of an allocator's counters, optionally enriched
/// with the backing [`SourceStats`](crate::SourceStats) (`held_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Bytes in use by the program (`U(t)`): exact at quiescence; under
    /// traffic a difference of values read at different instants,
    /// clamped to `0 ..= live_peak`.
    pub live_current: u64,
    /// Peak of the `live` cell: `max U` exactly for an allocator that
    /// hands out no shards (the baselines); for Hoard a one-sided bound,
    /// `max U ≤ live_peak ≤ max U + what the magazines of the slots in
    /// use can hold + 2·`[`LIVE_GRANT`]`·heaps in use` (blocks in a
    /// magazine and a heap's undrawn grant are counted in the cell but
    /// are not the program's).
    pub live_peak: u64,
    /// `malloc` count.
    pub allocs: u64,
    /// `free` count.
    pub frees: u64,
    /// Frees performed by a thread other than the owner.
    pub remote_frees: u64,
    /// Superblocks moved to the global heap (Hoard only).
    pub transfers_to_global: u64,
    /// Superblocks taken from the global heap (Hoard only).
    pub transfers_from_global: u64,
    /// Bytes held from the OS (`A(t)`), from the chunk source.
    pub held_current: u64,
    /// High-water mark of held bytes (`max A`).
    pub held_peak: u64,
    /// Thread-local front-end counters (all zero unless the allocator
    /// runs with `magazine_capacity > 0`).
    pub magazines: MagazineStats,
}

/// Counters for the thread-local magazine front-end and the deferred
/// remote-free protocol. All zero when the front-end is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MagazineStats {
    /// Allocations served from a magazine without touching any lock.
    pub alloc_hits: u64,
    /// Frees absorbed by a magazine without touching any lock.
    pub free_hits: u64,
    /// Locked batch refills (magazine empty → pull from owning heap).
    pub refills: u64,
    /// Locked batch flushes (magazine full → return to owning heap).
    pub flushes: u64,
    /// Foreign frees deferred via a superblock's atomic remote stack.
    pub remote_pushes: u64,
    /// Drain events where an owner recovered deferred remote frees.
    pub remote_drains: u64,
    /// `free_small` owner-migration races detected and retried.
    pub free_owner_retries: u64,
}

impl AllocSnapshot {
    /// Merge chunk-source accounting into this snapshot.
    pub fn with_source(mut self, src: crate::SourceStats) -> Self {
        self.held_current = src.held_current;
        self.held_peak = src.held_peak;
        self
    }

    /// The paper's fragmentation ratio `max A / max U`, with
    /// [`live_peak`](Self::live_peak) — the peak of the `live` cell —
    /// standing for `max U`: exact for the baselines, a slight
    /// under-estimate for Hoard. (The experiment tables divide by the
    /// workload's own meter instead, `WorkloadResult::max_live_requested`.)
    ///
    /// Returns `None` when nothing was ever allocated.
    pub fn fragmentation(&self) -> Option<f64> {
        if self.live_peak == 0 {
            None
        } else {
            Some(self.held_peak as f64 / self.live_peak as f64)
        }
    }

    /// Cross-counter consistency checks, valid for any snapshot taken at
    /// a quiescent point (no in-flight operations); a reader racing
    /// traffic can rely on `live_current <= live_peak` only. Returns the
    /// first violated relation. Harness summaries and tests call this so a
    /// counter that silently stops being maintained fails loudly instead
    /// of skewing results tables.
    pub fn check_consistency(&self) -> Result<(), String> {
        let rules: [(&str, bool); 7] = [
            ("frees <= allocs", self.frees <= self.allocs),
            (
                "allocs == frees implies live_current == 0",
                self.allocs != self.frees || self.live_current == 0,
            ),
            ("live_current <= live_peak", self.live_current <= self.live_peak),
            ("held_current <= held_peak", self.held_current <= self.held_peak),
            ("remote_frees <= frees", self.remote_frees <= self.frees),
            (
                "magazine alloc hits <= allocs",
                self.magazines.alloc_hits <= self.allocs,
            ),
            (
                "magazine free hits <= frees",
                self.magazines.free_hits <= self.frees,
            ),
        ];
        for (rule, holds) in rules {
            if !holds {
                return Err(format!("inconsistent snapshot: {rule} violated in {self:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_sim::Rng;

    #[test]
    fn live_accounting_and_peak() {
        let s = AllocStats::new();
        s.on_alloc(100);
        s.on_alloc(50);
        assert_eq!(s.live_now(), 150);
        s.on_free(100, false);
        let snap = s.snapshot();
        assert_eq!(snap.live_current, 50);
        assert_eq!(snap.live_peak, 150);
        assert_eq!(snap.allocs, 2);
        assert_eq!(snap.frees, 1);
        assert_eq!(snap.remote_frees, 0);
    }

    #[test]
    fn remote_frees_counted_separately() {
        let s = AllocStats::new();
        s.on_alloc(8);
        s.on_free(8, true);
        assert_eq!(s.snapshot().remote_frees, 1);
    }

    #[test]
    fn fragmentation_ratio() {
        let snap = AllocSnapshot {
            live_peak: 100,
            held_peak: 135,
            ..Default::default()
        };
        assert!((snap.fragmentation().unwrap() - 1.35).abs() < 1e-9);
        assert_eq!(AllocSnapshot::default().fragmentation(), None);
    }

    #[test]
    fn with_source_merges_held() {
        let snap = AllocSnapshot::default().with_source(crate::SourceStats {
            held_current: 7,
            held_peak: 9,
            chunk_allocs: 1,
            chunk_frees: 0,
        });
        assert_eq!(snap.held_current, 7);
        assert_eq!(snap.held_peak, 9);
    }

    /// The cell's snapshot with `shards` summed in and their cached
    /// bytes taken off `live_current`, as an allocator that hands them
    /// out builds its own.
    fn snapshot_with(stats: &AllocStats, shards: &[StatsShard]) -> AllocSnapshot {
        let mut snap = stats.snapshot();
        for shard in shards {
            shard.add_to(&mut snap);
            snap.live_current = snap.live_current.saturating_sub(shard.cached_bytes());
        }
        snap
    }

    /// Every field of the snapshot, in declaration order. Destructured
    /// without `..`, so a new field fails to compile here until the
    /// test below accounts for it.
    fn flatten(snap: &AllocSnapshot) -> [u64; 16] {
        let AllocSnapshot {
            live_current,
            live_peak,
            allocs,
            frees,
            remote_frees,
            transfers_to_global,
            transfers_from_global,
            held_current,
            held_peak,
            magazines:
                MagazineStats {
                    alloc_hits,
                    free_hits,
                    refills,
                    flushes,
                    remote_pushes,
                    remote_drains,
                    free_owner_retries,
                },
        } = *snap;
        [
            live_current,
            live_peak,
            allocs,
            frees,
            remote_frees,
            transfers_to_global,
            transfers_from_global,
            held_current,
            held_peak,
            alloc_hits,
            free_hits,
            refills,
            flushes,
            remote_pushes,
            remote_drains,
            free_owner_retries,
        ]
    }

    /// Drive every entry point — through a slot-like shard, a heap-like
    /// shard, and the unowned RMW cell — and check that each moves
    /// exactly the snapshot fields it names, by exactly one event, and
    /// that between them they reach every counter of both structs.
    #[test]
    fn every_counter_surfaces_exactly_once_through_every_entry_point() {
        // Indices into `flatten`'s array.
        const LIVE: usize = 0;
        const PEAK: usize = 1;
        const ALLOCS: usize = 2;
        const FREES: usize = 3;
        const REMOTE: usize = 4;
        const TO_GLOBAL: usize = 5;
        const FROM_GLOBAL: usize = 6;
        const HELD: [usize; 2] = [7, 8];
        const HITS_A: usize = 9;
        const HITS_F: usize = 10;
        const REFILLS: usize = 11;
        const FLUSHES: usize = 12;
        const PUSHES: usize = 13;
        const DRAINS: usize = 14;
        const RETRIES: usize = 15;

        let stats = AllocStats::new();
        let shards = [StatsShard::new(), StatsShard::new()];
        // Exhaustive: a counter added to either struct must be given an
        // entry point in the calls below.
        let AllocStats {
            live: _,
            live_peak: _,
            allocs: _,
            frees: _,
            remote_frees: _,
            transfers_to_global: _,
            transfers_from_global: _,
            mag_remote_pushes: _,
            mag_remote_drains: _,
            free_owner_retries: _,
        } = &stats;
        let StatsShard {
            allocs: _,
            frees: _,
            remote_frees: _,
            mag_alloc_hits: _,
            mag_free_hits: _,
            mag_refills: _,
            mag_flushes: _,
            cached_bytes: _,
        } = &shards[0];

        // Something to free before anything was allocated.
        stats.on_alloc(64);
        let mut reached = [false; 16];
        let mut check = |name: &str, deltas: &[(usize, i64)], call: &dyn Fn()| {
            // Raise the `live` cell to the standing peak first, so an
            // entry point that moves bytes out of the heaps moves
            // `live_peak` by exactly that many; the padding goes through
            // the unowned cell, which is fine here.
            let cell = stats.snapshot();
            if cell.live_current < cell.live_peak {
                stats.on_alloc(cell.live_peak - cell.live_current);
            }
            let before = flatten(&snapshot_with(&stats, &shards));
            call();
            let after = flatten(&snapshot_with(&stats, &shards));
            let mut expect = before.map(|v| v as i64);
            for &(field, delta) in deltas {
                expect[field] += delta;
                reached[field] = true;
            }
            assert_eq!(
                after.map(|v| v as i64),
                expect,
                "{name} moved the wrong fields"
            );
        };
        let alloc = [(LIVE, 8), (PEAK, 8), (ALLOCS, 1)];
        let free = [(LIVE, -8), (FREES, 1)];
        let free_remote = [(LIVE, -8), (FREES, 1), (REMOTE, 1)];
        check("on_alloc", &alloc, &|| stats.on_alloc(8));
        check("on_free", &free, &|| stats.on_free(8, false));
        check("on_free remote", &free_remote, &|| stats.on_free(8, true));
        check("to_global", &[(TO_GLOBAL, 1)], &|| {
            stats.on_transfer_to_global()
        });
        check("from_global", &[(FROM_GLOBAL, 1)], &|| {
            stats.on_transfer_from_global()
        });
        // A deferred free surfaces in four fields from two RMWs: the
        // cell's own `frees` and `remote_frees` stay put.
        let deferred = [(LIVE, -8), (FREES, 1), (REMOTE, 1), (PUSHES, 1)];
        let raw = |s: &AllocStats| {
            (
                s.frees.load(Ordering::Relaxed),
                s.remote_frees.load(Ordering::Relaxed),
            )
        };
        let raw_before = raw(&stats);
        check("deferred_free", &deferred, &|| stats.on_deferred_free(8));
        assert_eq!(raw(&stats), raw_before);
        check("remote_drain", &[(DRAINS, 1)], &|| stats.on_remote_drain());
        check("owner_retry", &[(RETRIES, 1)], &|| {
            stats.on_free_owner_retry()
        });
        // Once as a slot's shard would be driven, once as a heap's.
        for shard in &shards {
            // A heap's first allocation draws its grant with the bytes;
            // inside the grant the shard moves alone.
            let granted = [(LIVE, 8), (PEAK, 8 + LIVE_GRANT as i64), (ALLOCS, 1)];
            let inside = [(LIVE, 8), (ALLOCS, 1)];
            check("on_alloc_in", &granted, &|| stats.on_alloc_in(shard, 8));
            let cell_before = stats.snapshot();
            check("on_alloc_in, granted", &inside, &|| {
                stats.on_alloc_in(shard, 8)
            });
            check("on_free_in", &free, &|| stats.on_free_in(shard, 8, false));
            check("on_free_in remote", &free_remote, &|| {
                stats.on_free_in(shard, 8, true)
            });
            assert_eq!(
                stats.snapshot(),
                cell_before,
                "a locked call inside the grant wrote the shared cell"
            );
            // A batch into the shard's magazines: out of the heaps
            // (the peak sees it), not yet the application's.
            check("refill_in", &[(PEAK, 24), (REFILLS, 1)], &|| {
                stats.on_magazine_refill_in(shard, 24)
            });
            // Hits and the pop after a refill move the shard alone: the
            // cell's own snapshot is bit-identical across them.
            let cell_before = stats.snapshot();
            let hit = [(LIVE, 8), (ALLOCS, 1), (HITS_A, 1)];
            let popped = [(LIVE, 8), (ALLOCS, 1)];
            let stashed = [(LIVE, -8), (FREES, 1), (HITS_F, 1)];
            check("magazine alloc hit", &hit, &|| {
                shard.on_magazine_alloc(8, true)
            });
            check("magazine alloc after refill", &popped, &|| {
                shard.on_magazine_alloc(8, false)
            });
            check("magazine free", &stashed, &|| shard.on_magazine_free(8));
            assert_eq!(stats.snapshot(), cell_before, "a hit wrote the shared cell");
            check("flush_in", &[(FLUSHES, 1)], &|| {
                stats.on_magazine_flush_in(shard, 8)
            });
            check("parked_in", &[], &|| stats.on_magazines_parked_in(shard, 8));
            // The magazines' share is back to zero; the heap side keeps
            // its grant, and the one block more it freed than it took.
            assert_eq!(shard.cached_bytes(), LIVE_GRANT + 8);
        }
        for (field, hit) in reached.iter().enumerate() {
            // `held_*` come from `SourceStats` (see `with_source`).
            assert!(
                *hit || HELD.contains(&field),
                "no entry point reaches snapshot field {field}"
            );
        }
        // A shard left out of the sum loses exactly its own events.
        let partial = snapshot_with(&stats, &shards[..1]);
        let full = snapshot_with(&stats, &shards);
        assert_eq!(full.allocs - partial.allocs, 4);
        assert_eq!(full.frees - partial.frees, 3);
        assert_eq!(full.magazines.alloc_hits - partial.magazines.alloc_hits, 1);
        assert_eq!(full.magazines.refills - partial.magazines.refills, 1);
    }

    /// The grant protocol against a model: `k` heap shards, blocks from
    /// 8 B to three grants, and every free landing on whichever shard
    /// the generator picks — not the one that allocated the block, as
    /// when its superblock migrated in between.
    #[test]
    fn live_grants_match_a_model_across_shards() {
        for k in [1usize, 3, 8] {
            Rng::for_each_case(24, |rng| {
                let stats = AllocStats::new();
                let shards: Vec<StatsShard> = (0..k).map(|_| StatsShard::new()).collect();
                let rooms = || shards.iter().map(StatsShard::cached_bytes).sum::<u64>();
                let mut held: Vec<u64> = Vec::new();
                let (mut live, mut peak) = (0u64, 0u64);
                for step in 0..3000 {
                    let shard = &shards[rng.range(0, k - 1)];
                    // Grow for a while, shrink for a while, so headroom
                    // runs out and overflows many times over.
                    let growing = (step / 300) % 2 == 0;
                    if held.is_empty() || rng.range(0, 9) < if growing { 7 } else { 3 } {
                        let bytes = match rng.range(0, 9) {
                            0 => rng.range(8, 3 * LIVE_GRANT as usize),
                            _ => rng.range(8, 600),
                        } as u64;
                        stats.on_alloc_in(shard, bytes);
                        held.push(bytes);
                        live += bytes;
                        peak = peak.max(live);
                    } else {
                        let bytes = held.swap_remove(rng.range(0, held.len() - 1));
                        stats.on_free_in(shard, bytes, false);
                        live -= bytes;
                    }
                    let cell = stats.snapshot();
                    assert_eq!(cell.live_current - rooms(), live, "step {step}");
                    assert!(shards.iter().all(|s| s.cached_bytes() <= 2 * LIVE_GRANT));
                    assert!(
                        peak <= cell.live_peak
                            && cell.live_peak <= peak + 2 * LIVE_GRANT * k as u64,
                        "step {step}: model peak {peak}, {cell:?}"
                    );
                }
                for bytes in held.drain(..) {
                    stats.on_free_in(&shards[rng.range(0, k - 1)], bytes, false);
                }
                let end = snapshot_with(&stats, &shards);
                assert_eq!(end.live_current, 0);
                assert_eq!(end.check_consistency(), Ok(()));
            });
        }
    }

    #[test]
    fn consistency_checks_accept_real_traffic_and_reject_drift() {
        let s = AllocStats::new();
        s.on_alloc(64);
        s.on_alloc(32);
        s.on_free(64, false);
        let shard = StatsShard::new();
        s.on_magazine_refill_in(&shard, 16);
        shard.on_magazine_alloc(16, true);
        let real = snapshot_with(&s, &[shard]);
        assert_eq!(real.magazines.alloc_hits, 1);
        assert_eq!(real.check_consistency(), Ok(()));

        let mut bad = s.snapshot();
        bad.frees = bad.allocs + 1;
        assert!(bad.check_consistency().unwrap_err().contains("frees <= allocs"));

        let mut leak = s.snapshot();
        leak.frees = leak.allocs;
        assert!(leak
            .check_consistency()
            .unwrap_err()
            .contains("live_current == 0"));
    }

    #[test]
    fn peak_max_is_monotone_under_contention() {
        let peak = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let peak = &peak;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        peak_max(peak, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(peak.load(Ordering::Relaxed), 3999);
    }
}
