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
//! [`StatsShard::add_to`]. Only `live`/`live_peak` stay a shared RMW, so
//! that `max U` is exact.

use hoard_sim::single_writer_add;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

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
}

impl StatsShard {
    /// A zeroed shard. `const`, so it can live in a `static` allocator.
    pub const fn new() -> Self {
        StatsShard {
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            remote_frees: AtomicU64::new(0),
            mag_alloc_hits: AtomicU64::new(0),
            mag_free_hits: AtomicU64::new(0),
        }
    }

    /// Record an allocation served straight from a magazine.
    #[inline]
    pub fn on_magazine_alloc_hit(&self) {
        single_writer_add(&self.mag_alloc_hits, 1);
    }

    /// Record a free absorbed by a magazine.
    #[inline]
    pub fn on_magazine_free_hit(&self) {
        single_writer_add(&self.mag_free_hits, 1);
    }

    /// Sum this shard's counts into `snap`. Read-only, so it needs no
    /// guard: exact at quiescence; under traffic each counter is some
    /// value it held during the call, as for any relaxed snapshot.
    pub fn add_to(&self, snap: &mut AllocSnapshot) {
        snap.allocs += self.allocs.load(Ordering::Relaxed);
        snap.frees += self.frees.load(Ordering::Relaxed);
        snap.remote_frees += self.remote_frees.load(Ordering::Relaxed);
        snap.magazines.alloc_hits += self.mag_alloc_hits.load(Ordering::Relaxed);
        snap.magazines.free_hits += self.mag_free_hits.load(Ordering::Relaxed);
    }
}

/// Thread-safe allocator accounting cell. Embed one per allocator.
///
/// Every counter here is updated with an atomic RMW, so any thread may
/// call any `on_*` at any time; nothing here is ever written with the
/// shards' load + store.
#[derive(Debug, Default)]
pub struct AllocStats {
    live: AtomicU64,
    live_peak: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
    remote_frees: AtomicU64,
    transfers_to_global: AtomicU64,
    transfers_from_global: AtomicU64,
    mag_refills: AtomicU64,
    mag_flushes: AtomicU64,
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
            mag_refills: AtomicU64::new(0),
            mag_flushes: AtomicU64::new(0),
            mag_remote_pushes: AtomicU64::new(0),
            mag_remote_drains: AtomicU64::new(0),
            free_owner_retries: AtomicU64::new(0),
        }
    }

    /// `U(t) += bytes`, raising `max U`: the one shared RMW every
    /// allocation keeps, so the peak is exact under any interleaving.
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

    /// [`on_alloc`](Self::on_alloc) from inside the exclusive context
    /// guarding `shard`: the event count goes to the shard.
    #[inline]
    pub fn on_alloc_in(&self, shard: &StatsShard, bytes: u64) {
        self.live_add(bytes);
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

    /// [`on_free`](Self::on_free) from inside the exclusive context
    /// guarding `shard`: the event counts go to the shard.
    #[inline]
    pub fn on_free_in(&self, shard: &StatsShard, bytes: u64, remote: bool) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
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

    /// Record a magazine refill (one locked batch pull from a heap).
    #[inline]
    pub fn on_magazine_refill(&self) {
        self.mag_refills.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a magazine flush (one locked batch return to a heap).
    #[inline]
    pub fn on_magazine_flush(&self) {
        self.mag_flushes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a push onto a superblock's deferred remote-free stack.
    #[inline]
    pub fn on_remote_push(&self) {
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

    /// Bytes currently live (in use by the program).
    #[inline]
    pub fn live_now(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of this cell alone: an allocator that
    /// hands out shards sums each in with [`StatsShard::add_to`].
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            live_current: self.live.load(Ordering::Relaxed),
            live_peak: self.live_peak.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            remote_frees: self.remote_frees.load(Ordering::Relaxed),
            transfers_to_global: self.transfers_to_global.load(Ordering::Relaxed),
            transfers_from_global: self.transfers_from_global.load(Ordering::Relaxed),
            held_current: 0,
            held_peak: 0,
            magazines: MagazineStats {
                alloc_hits: 0,
                free_hits: 0,
                refills: self.mag_refills.load(Ordering::Relaxed),
                flushes: self.mag_flushes.load(Ordering::Relaxed),
                remote_pushes: self.mag_remote_pushes.load(Ordering::Relaxed),
                remote_drains: self.mag_remote_drains.load(Ordering::Relaxed),
                free_owner_retries: self.free_owner_retries.load(Ordering::Relaxed),
            },
        }
    }
}

/// Serializable snapshot of an allocator's counters, optionally enriched
/// with the backing [`SourceStats`](crate::SourceStats) (`held_*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocSnapshot {
    /// Bytes in use (`U(t)`).
    pub live_current: u64,
    /// High-water mark of bytes in use (`max U`).
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
    #[serde(default)]
    pub magazines: MagazineStats,
}

/// Counters for the thread-local magazine front-end and the deferred
/// remote-free protocol. All zero when the front-end is disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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

    /// The paper's fragmentation ratio `max A / max U`.
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
    /// a quiescent point (no in-flight operations). Returns the first
    /// violated relation. Harness summaries and tests call this so a
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

    /// The cell's snapshot with `shards` summed in, as an allocator
    /// that hands them out builds its own.
    fn snapshot_with(stats: &AllocStats, shards: &[StatsShard]) -> AllocSnapshot {
        let mut snap = stats.snapshot();
        for shard in shards {
            shard.add_to(&mut snap);
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
            mag_refills: _,
            mag_flushes: _,
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
        } = &shards[0];

        let mut reached = [false; 16];
        let mut check = |name: &str, deltas: &[(usize, i64)], call: &dyn Fn()| {
            // Raise `live` to the standing peak first, so an allocating
            // entry point moves `live_peak` by exactly its bytes; the
            // padding goes through the unowned cell, which is fine here.
            let at = snapshot_with(&stats, &shards);
            stats.on_alloc(at.live_peak - at.live_current + 16);
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
        check("refill", &[(REFILLS, 1)], &|| stats.on_magazine_refill());
        check("flush", &[(FLUSHES, 1)], &|| stats.on_magazine_flush());
        check("remote_push", &[(PUSHES, 1)], &|| stats.on_remote_push());
        check("remote_drain", &[(DRAINS, 1)], &|| stats.on_remote_drain());
        check("owner_retry", &[(RETRIES, 1)], &|| {
            stats.on_free_owner_retry()
        });
        // Once as a slot's shard would be driven, once as a heap's.
        for shard in &shards {
            check("on_alloc_in", &alloc, &|| stats.on_alloc_in(shard, 8));
            check("on_free_in", &free, &|| stats.on_free_in(shard, 8, false));
            check("on_free_in remote", &free_remote, &|| {
                stats.on_free_in(shard, 8, true)
            });
            check("shard alloc hit", &[(HITS_A, 1)], &|| {
                shard.on_magazine_alloc_hit()
            });
            check("shard free hit", &[(HITS_F, 1)], &|| {
                shard.on_magazine_free_hit()
            });
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
        assert_eq!(full.allocs - partial.allocs, 1);
        assert_eq!(full.frees - partial.frees, 2);
        assert_eq!(full.magazines.alloc_hits - partial.magazines.alloc_hits, 1);
    }

    #[test]
    fn consistency_checks_accept_real_traffic_and_reject_drift() {
        let s = AllocStats::new();
        s.on_alloc(64);
        s.on_alloc(32);
        s.on_free(64, false);
        let shard = StatsShard::new();
        shard.on_magazine_alloc_hit();
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
