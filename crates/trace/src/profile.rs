//! The live-heap profiler: allocation-site attribution, fragmentation
//! timelines, and leak/retention reports.
//!
//! The telemetry layer (PR 3) and trace pipeline (PR 8) observe
//! *events*; this module observes *memory state over time* — which
//! allocation sites own the live bytes, how held bytes `A` track live
//! bytes `U` across a run, and what remains unfreed at quiesce. It is
//! an attachable device like [`crate::TraceSink`] and
//! [`crate::TrcRecorder`]: the allocator holds it behind a null-default
//! `AtomicPtr`, so with no profiler attached the hot paths pay one
//! atomic load and are bit-identical (the same off-path proof
//! obligation the telemetry tests enforce).
//!
//! Three kinds of record flow in:
//!
//! * **site samples** — every allocation carries the thread's current
//!   *allocation-site* tag (`hoard_sim::set_alloc_site`, a workload-
//!   chosen token; 0 = untagged). The profiler keeps per-site live
//!   bytes/objects, cumulative counters and peaks, and the live-block
//!   map that turns a later free back into its site. Each sample is
//!   charged `Cost::ProfileSample` by the allocator, so profiling-on
//!   perturbs virtual time honestly (and deterministically).
//! * **timeline samples** — `(ts, A, U)` readings taken at CAS-claimed
//!   virtual-clock ticks: one thread wins the claim per interval,
//!   charges one `Cost::ProfileSample`, and appends the point — so
//!   `.trc` replay with profiling on stays byte-deterministic.
//! * **the quiesce report** — [`HeapProfiler::snapshot`] freezes the
//!   state into a [`ProfileSnapshot`]: Pareto-ranked sites, the
//!   timeline, and unfreed blocks grouped by site and age decile.
//!
//! Sampling: with `sample_shift = k > 0` only one in `2^k` allocations
//! is tracked (frees of untracked blocks are recognized by their
//! absence from the live map). The default is 0 — exact accounting —
//! because the leak gate's "zero leaks" budget is only meaningful when
//! every block is tracked.

use crate::jsonio::{obj, JsonValue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Schema identifier stamped into exported heap-profile JSON.
pub const HEAP_PROFILE_SCHEMA: &str = "hoard-heap-profile-v1";

/// Default virtual-time distance between fragmentation-timeline samples.
pub const DEFAULT_TIMELINE_INTERVAL: u64 = 20_000;

/// Profiler construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Track one in `2^sample_shift` allocations (0 = every allocation,
    /// required for exact leak accounting).
    pub sample_shift: u32,
    /// Virtual units between fragmentation-timeline samples.
    pub timeline_interval: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            sample_shift: 0,
            timeline_interval: DEFAULT_TIMELINE_INTERVAL,
        }
    }
}

/// One tracked live block.
#[derive(Debug, Clone, Copy)]
struct LiveBlock {
    site: u32,
    size: u32,
    ts: u64,
}

/// Mutable per-site books.
#[derive(Debug, Clone, Copy, Default)]
struct SiteBooks {
    live_bytes: u64,
    live_objects: u64,
    total_allocs: u64,
    total_bytes: u64,
    peak_live_bytes: u64,
}

/// Everything the profiler mutates, behind one mutex. The allocator
/// charges a flat `Cost::ProfileSample` per record, so the host mutex
/// never shows up in virtual time; it only bounds wall-clock
/// concurrency, and replay (the deterministic consumer) is sequential.
#[derive(Debug, Default)]
struct ProfState {
    sites: HashMap<u32, SiteBooks>,
    live: HashMap<usize, LiveBlock>,
    names: HashMap<u32, String>,
    timeline: Vec<TimelinePoint>,
    live_bytes: u64,
    live_objects: u64,
    live_peak_bytes: u64,
    held_peak_bytes: u64,
    total_allocs: u64,
    total_frees: u64,
    unmatched_frees: u64,
}

/// The attachable live-heap profiler. See the module docs.
#[derive(Debug)]
pub struct HeapProfiler {
    config: ProfileConfig,
    /// Virtual timestamp of the last claimed timeline tick (CAS-claimed).
    last_tick: AtomicU64,
    /// Allocation ordinal, used only when `sample_shift > 0`.
    alloc_ordinal: AtomicU64,
    state: Mutex<ProfState>,
}

impl Default for HeapProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl HeapProfiler {
    /// An exact (unsampled) profiler with the default timeline interval.
    pub fn new() -> Self {
        Self::with_config(ProfileConfig::default())
    }

    /// A profiler with explicit sampling/timeline knobs.
    pub fn with_config(config: ProfileConfig) -> Self {
        HeapProfiler {
            config,
            last_tick: AtomicU64::new(0),
            alloc_ordinal: AtomicU64::new(0),
            state: Mutex::new(ProfState::default()),
        }
    }

    fn locked(&self) -> MutexGuard<'_, ProfState> {
        // Poisoning only marks a panic elsewhere; the books themselves
        // are always internally consistent, so recover and read on.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attach a human-readable name to a site id (used by the
    /// collapsed-stack exporter; unnamed sites print as `site_<id>`).
    pub fn name_site(&self, site: u32, name: &str) {
        self.locked().names.insert(site, name.to_string());
    }

    /// Record an allocation of `size` bytes at `addr`, tagged with
    /// `site`, at virtual time `ts`. Returns `false` when the sampling
    /// filter skipped it.
    pub fn record_alloc(&self, addr: usize, size: u32, site: u32, ts: u64) -> bool {
        if self.config.sample_shift > 0 {
            let n = self.alloc_ordinal.fetch_add(1, Ordering::Relaxed);
            if n & ((1 << self.config.sample_shift) - 1) != 0 {
                return false;
            }
        }
        let mut s = self.locked();
        if let Some(stale) = s.live.insert(addr, LiveBlock { site, size, ts }) {
            // The address came back without a free we could see (e.g.
            // the profiler was attached mid-run): retire the stale
            // entry so site books never double-count a block.
            release(&mut s, stale);
        }
        s.live_bytes += size as u64;
        s.live_objects += 1;
        s.live_peak_bytes = s.live_peak_bytes.max(s.live_bytes);
        s.total_allocs += 1;
        let live_bytes = s.live_bytes;
        let books = s.sites.entry(site).or_default();
        books.live_bytes += size as u64;
        books.live_objects += 1;
        books.total_allocs += 1;
        books.total_bytes += size as u64;
        books.peak_live_bytes = books.peak_live_bytes.max(books.live_bytes);
        debug_assert!(live_bytes >= books.live_bytes);
        true
    }

    /// Record a free of the block at `addr`. Returns `true` when the
    /// block was tracked (false for sampled-out or pre-attach blocks).
    pub fn record_free(&self, addr: usize) -> bool {
        let mut s = self.locked();
        s.total_frees += 1;
        match s.live.remove(&addr) {
            Some(block) => {
                release(&mut s, block);
                true
            }
            None => {
                s.unmatched_frees += 1;
                false
            }
        }
    }

    /// Claim the fragmentation-timeline tick due at virtual time `now`,
    /// if any. At most one caller per interval wins; the winner charges
    /// one `Cost::ProfileSample` and calls [`record_sample`]
    /// (Self::record_sample) with the `A`/`U` gauges it read.
    pub fn maybe_tick(&self, now: u64) -> bool {
        let last = self.last_tick.load(Ordering::Relaxed);
        if now < last.saturating_add(self.config.timeline_interval) {
            return false;
        }
        self.last_tick
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Append a fragmentation-timeline point: held bytes `A` and live
    /// bytes `U` as the allocator's own books see them at `ts`.
    pub fn record_sample(&self, ts: u64, held_bytes: u64, live_bytes: u64) {
        let mut s = self.locked();
        s.held_peak_bytes = s.held_peak_bytes.max(held_bytes);
        s.timeline.push(TimelinePoint {
            ts,
            held_bytes,
            live_bytes,
        });
    }

    /// Bytes currently tracked as live across all sites (the profiler's
    /// own `U`; equals the allocator's `live_current` when the profiler
    /// was attached from the start with sampling off).
    pub fn live_bytes(&self) -> u64 {
        self.locked().live_bytes
    }

    /// Freeze the books into a report as of virtual time `end_ts`.
    /// Anything still live becomes a leak record; call after quiescing
    /// (flushing magazines and draining the workload) for a true leak
    /// report, or mid-run for a retention snapshot.
    pub fn snapshot(&self, end_ts: u64) -> ProfileSnapshot {
        let s = self.locked();
        let mut sites: Vec<SiteStats> = s
            .sites
            .iter()
            .map(|(&site, b)| SiteStats {
                site,
                name: site_name(&s.names, site),
                live_bytes: b.live_bytes,
                live_objects: b.live_objects,
                total_allocs: b.total_allocs,
                total_bytes: b.total_bytes,
                peak_live_bytes: b.peak_live_bytes,
            })
            .collect();
        // Pareto order: who owns the live bytes, ties broken by
        // cumulative volume then id so the report is deterministic.
        sites.sort_by(|a, b| {
            b.live_bytes
                .cmp(&a.live_bytes)
                .then(b.total_bytes.cmp(&a.total_bytes))
                .then(a.site.cmp(&b.site))
        });

        let max_age = s
            .live
            .values()
            .map(|b| end_ts.saturating_sub(b.ts))
            .max()
            .unwrap_or(0);
        let mut age_deciles = [0u64; 10];
        let mut by_site: HashMap<u32, LeakRecord> = HashMap::new();
        for block in s.live.values() {
            let age = end_ts.saturating_sub(block.ts);
            age_deciles[decile(age, max_age)] += 1;
            let rec = by_site.entry(block.site).or_insert_with(|| LeakRecord {
                site: block.site,
                name: site_name(&s.names, block.site),
                objects: 0,
                bytes: 0,
                oldest_age: 0,
            });
            rec.objects += 1;
            rec.bytes += block.size as u64;
            rec.oldest_age = rec.oldest_age.max(age);
        }
        let mut leaks: Vec<LeakRecord> = by_site.into_values().collect();
        leaks.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));

        ProfileSnapshot {
            end_ts,
            sample_shift: self.config.sample_shift,
            timeline_interval: self.config.timeline_interval,
            total_allocs: s.total_allocs,
            total_frees: s.total_frees,
            unmatched_frees: s.unmatched_frees,
            live_bytes: s.live_bytes,
            live_objects: s.live_objects,
            live_peak_bytes: s.live_peak_bytes,
            held_peak_bytes: s.held_peak_bytes,
            sites,
            timeline: s.timeline.clone(),
            leaks,
            age_deciles,
        }
    }
}

/// Retire `block` from the aggregate and per-site live books.
fn release(s: &mut ProfState, block: LiveBlock) {
    s.live_bytes = s.live_bytes.saturating_sub(block.size as u64);
    s.live_objects = s.live_objects.saturating_sub(1);
    if let Some(b) = s.sites.get_mut(&block.site) {
        b.live_bytes = b.live_bytes.saturating_sub(block.size as u64);
        b.live_objects = b.live_objects.saturating_sub(1);
    }
}

fn site_name(names: &HashMap<u32, String>, site: u32) -> String {
    names.get(&site).cloned().unwrap_or_else(|| {
        if site == 0 {
            "untagged".to_string()
        } else {
            format!("site_{site}")
        }
    })
}

/// Decile bucket for `age` given the observed `max_age` (0..=9).
fn decile(age: u64, max_age: u64) -> usize {
    if max_age == 0 {
        return 0;
    }
    (((age * 10) / (max_age + 1)) as usize).min(9)
}

/// One allocation site's frozen books.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    /// The workload-chosen site id (0 = untagged).
    pub site: u32,
    /// Display name (`site_<id>` unless registered via `name_site`).
    pub name: String,
    /// Bytes currently live from this site.
    pub live_bytes: u64,
    /// Objects currently live from this site.
    pub live_objects: u64,
    /// Allocations ever tracked from this site.
    pub total_allocs: u64,
    /// Bytes ever allocated from this site.
    pub total_bytes: u64,
    /// High-water mark of this site's live bytes.
    pub peak_live_bytes: u64,
}

/// One fragmentation-timeline reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Virtual timestamp of the sample.
    pub ts: u64,
    /// Held bytes `A` at the sample (allocator bookkeeping).
    pub held_bytes: u64,
    /// Live bytes `U` at the sample.
    pub live_bytes: u64,
}

/// Unfreed blocks from one site at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakRecord {
    /// Site id owning the unfreed blocks.
    pub site: u32,
    /// Display name of the site.
    pub name: String,
    /// Unfreed object count.
    pub objects: u64,
    /// Unfreed bytes.
    pub bytes: u64,
    /// Age of the oldest unfreed block (virtual units).
    pub oldest_age: u64,
}

/// A frozen heap profile: Pareto-ranked sites, the `A`/`U` timeline,
/// and the leak report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Virtual timestamp the books were frozen at.
    pub end_ts: u64,
    /// Sampling shift the profile ran with (0 = exact).
    pub sample_shift: u32,
    /// Timeline sampling interval (virtual units).
    pub timeline_interval: u64,
    /// Allocations tracked.
    pub total_allocs: u64,
    /// Frees observed (tracked or not).
    pub total_frees: u64,
    /// Frees of blocks the profiler was not tracking (sampled-out or
    /// allocated before attach) — nonzero is expected under sampling,
    /// suspicious without it.
    pub unmatched_frees: u64,
    /// Bytes live at snapshot time.
    pub live_bytes: u64,
    /// Objects live at snapshot time.
    pub live_objects: u64,
    /// High-water mark of tracked live bytes.
    pub live_peak_bytes: u64,
    /// High-water mark of held bytes `A` seen by timeline samples.
    pub held_peak_bytes: u64,
    /// Per-site books, Pareto-ordered by live bytes.
    pub sites: Vec<SiteStats>,
    /// The fragmentation timeline in sample order.
    pub timeline: Vec<TimelinePoint>,
    /// Unfreed blocks by site, largest first.
    pub leaks: Vec<LeakRecord>,
    /// Unfreed object counts by age decile (bucket 9 = oldest) over
    /// the observed age range.
    pub age_deciles: [u64; 10],
}

impl ProfileSnapshot {
    /// The top `k` sites by live bytes.
    pub fn top_sites(&self, k: usize) -> &[SiteStats] {
        &self.sites[..self.sites.len().min(k)]
    }

    /// Leaked bytes across all sites.
    pub fn leaked_bytes(&self) -> u64 {
        self.leaks.iter().map(|l| l.bytes).sum()
    }

    /// Collapsed-stack ("folded") site profile: one
    /// `hoard;<site> <bytes>` line per site, flamegraph-compatible.
    /// `live` selects live bytes (a live-heap flame graph) versus
    /// cumulative allocated bytes.
    pub fn collapsed_stack(&self, live: bool) -> String {
        let mut out = String::new();
        for s in &self.sites {
            let value = if live { s.live_bytes } else { s.total_bytes };
            if value > 0 {
                out.push_str(&format!("hoard;{} {}\n", s.name, value));
            }
        }
        out
    }

    /// The profile as a deterministic JSON value under the
    /// [`HEAP_PROFILE_SCHEMA`] schema.
    pub fn to_json_value(&self) -> JsonValue {
        obj(vec![
            ("schema", JsonValue::Str(HEAP_PROFILE_SCHEMA.into())),
            ("end_ts", JsonValue::Uint(self.end_ts)),
            ("sample_shift", JsonValue::Uint(self.sample_shift as u64)),
            (
                "timeline_interval",
                JsonValue::Uint(self.timeline_interval),
            ),
            (
                "totals",
                obj(vec![
                    ("allocs", JsonValue::Uint(self.total_allocs)),
                    ("frees", JsonValue::Uint(self.total_frees)),
                    ("unmatched_frees", JsonValue::Uint(self.unmatched_frees)),
                    ("live_bytes", JsonValue::Uint(self.live_bytes)),
                    ("live_objects", JsonValue::Uint(self.live_objects)),
                    ("live_peak_bytes", JsonValue::Uint(self.live_peak_bytes)),
                    ("held_peak_bytes", JsonValue::Uint(self.held_peak_bytes)),
                ]),
            ),
            (
                "sites",
                JsonValue::Arr(
                    self.sites
                        .iter()
                        .map(|s| {
                            obj(vec![
                                ("site", JsonValue::Uint(s.site as u64)),
                                ("name", JsonValue::Str(s.name.clone())),
                                ("live_bytes", JsonValue::Uint(s.live_bytes)),
                                ("live_objects", JsonValue::Uint(s.live_objects)),
                                ("total_allocs", JsonValue::Uint(s.total_allocs)),
                                ("total_bytes", JsonValue::Uint(s.total_bytes)),
                                ("peak_live_bytes", JsonValue::Uint(s.peak_live_bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "timeline",
                JsonValue::Arr(
                    self.timeline
                        .iter()
                        .map(|p| {
                            obj(vec![
                                ("ts", JsonValue::Uint(p.ts)),
                                ("held_bytes", JsonValue::Uint(p.held_bytes)),
                                ("live_bytes", JsonValue::Uint(p.live_bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "leaks",
                JsonValue::Arr(
                    self.leaks
                        .iter()
                        .map(|l| {
                            obj(vec![
                                ("site", JsonValue::Uint(l.site as u64)),
                                ("name", JsonValue::Str(l.name.clone())),
                                ("objects", JsonValue::Uint(l.objects)),
                                ("bytes", JsonValue::Uint(l.bytes)),
                                ("oldest_age", JsonValue::Uint(l.oldest_age)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "age_deciles",
                JsonValue::Arr(self.age_deciles.iter().map(|&n| JsonValue::Uint(n)).collect()),
            ),
        ])
    }

    /// Serialized [`Self::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn books_balance_across_alloc_and_free() {
        let p = HeapProfiler::new();
        assert!(p.record_alloc(0x1000, 64, 7, 10));
        assert!(p.record_alloc(0x2000, 100, 7, 20));
        assert!(p.record_alloc(0x3000, 8, 9, 30));
        assert_eq!(p.live_bytes(), 172);
        assert!(p.record_free(0x2000));
        assert_eq!(p.live_bytes(), 72);

        let snap = p.snapshot(100);
        assert_eq!(snap.total_allocs, 3);
        assert_eq!(snap.total_frees, 1);
        assert_eq!(snap.unmatched_frees, 0);
        assert_eq!(snap.live_peak_bytes, 172);
        let s7 = snap.sites.iter().find(|s| s.site == 7).unwrap();
        assert_eq!(s7.live_bytes, 64);
        assert_eq!(s7.total_bytes, 164);
        assert_eq!(s7.peak_live_bytes, 164);
        assert_eq!(s7.name, "site_7");
    }

    #[test]
    fn unmatched_and_reused_addresses_stay_consistent() {
        let p = HeapProfiler::new();
        assert!(!p.record_free(0x1000), "free of an untracked block");
        p.record_alloc(0x1000, 32, 1, 0);
        // Address reuse without an observed free: the stale entry is
        // retired so the books never double-count.
        p.record_alloc(0x1000, 48, 2, 5);
        assert_eq!(p.live_bytes(), 48);
        let snap = p.snapshot(10);
        assert_eq!(snap.unmatched_frees, 1);
        assert_eq!(snap.live_objects, 1);
        let s1 = snap.sites.iter().find(|s| s.site == 1).unwrap();
        assert_eq!(s1.live_bytes, 0, "stale block released from site 1");
    }

    #[test]
    fn ticks_claim_once_per_interval() {
        let p = HeapProfiler::with_config(ProfileConfig {
            sample_shift: 0,
            timeline_interval: 100,
        });
        assert!(!p.maybe_tick(50), "inside the first interval");
        assert!(p.maybe_tick(100));
        assert!(!p.maybe_tick(150), "tick already claimed");
        assert!(p.maybe_tick(230));
        p.record_sample(100, 800, 500);
        p.record_sample(230, 900, 400);
        let snap = p.snapshot(300);
        assert_eq!(snap.timeline.len(), 2);
        assert_eq!(snap.held_peak_bytes, 900);
    }

    #[test]
    fn sampling_shift_tracks_a_subset() {
        let p = HeapProfiler::with_config(ProfileConfig {
            sample_shift: 2,
            timeline_interval: DEFAULT_TIMELINE_INTERVAL,
        });
        let mut tracked = 0;
        for i in 0..16 {
            if p.record_alloc(0x1000 + i * 64, 64, 3, i as u64) {
                tracked += 1;
            }
        }
        assert_eq!(tracked, 4, "one in 2^2 allocations tracked");
        assert_eq!(p.live_bytes(), 4 * 64);
        for i in 0..16 {
            p.record_free(0x1000 + i * 64);
        }
        assert_eq!(p.live_bytes(), 0);
        assert_eq!(p.snapshot(20).unmatched_frees, 12);
    }

    #[test]
    fn leaks_group_by_site_and_age_decile() {
        let p = HeapProfiler::new();
        p.name_site(5, "session_buf");
        p.record_alloc(0x1000, 100, 5, 0); // oldest
        p.record_alloc(0x2000, 50, 5, 900);
        p.record_alloc(0x3000, 10, 6, 990); // youngest
        p.record_free(0x3000);
        let snap = p.snapshot(1000);
        assert_eq!(snap.leaks.len(), 1);
        let leak = &snap.leaks[0];
        assert_eq!((leak.site, leak.objects, leak.bytes), (5, 2, 150));
        assert_eq!(leak.name, "session_buf");
        assert_eq!(leak.oldest_age, 1000);
        assert_eq!(snap.leaked_bytes(), 150);
        assert_eq!(snap.age_deciles[9], 1, "age 1000 of max 1000");
        assert_eq!(snap.age_deciles[0], 1, "age 100 of max 1000");
        assert_eq!(snap.age_deciles.iter().sum::<u64>(), 2);
    }

    #[test]
    fn sites_rank_by_live_bytes_and_top_k_trims() {
        let p = HeapProfiler::new();
        for (addr, size, site) in [(0x1000, 10u32, 1u32), (0x2000, 300, 2), (0x3000, 20, 3)] {
            p.record_alloc(addr, size, site, 0);
        }
        let snap = p.snapshot(1);
        let order: Vec<u32> = snap.sites.iter().map(|s| s.site).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(snap.top_sites(2).len(), 2);
        assert_eq!(snap.top_sites(10).len(), 3);
    }

    #[test]
    fn collapsed_stack_and_json_are_deterministic() {
        let p = HeapProfiler::new();
        p.name_site(1, "request");
        p.record_alloc(0x1000, 128, 1, 0);
        p.record_alloc(0x2000, 64, 0, 0);
        p.record_free(0x2000);
        let snap = p.snapshot(10);

        let folded = snap.collapsed_stack(true);
        assert_eq!(folded, "hoard;request 128\n", "only live sites listed");
        let cumulative = snap.collapsed_stack(false);
        assert!(cumulative.contains("hoard;untagged 64\n"));

        let text = snap.to_json();
        assert_eq!(text, snap.to_json(), "stable serialization");
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(
            v.get("schema").unwrap().as_str(),
            Some(HEAP_PROFILE_SCHEMA)
        );
        assert_eq!(
            v.get("totals").unwrap().get("live_bytes").unwrap().as_u64(),
            Some(128)
        );
        assert_eq!(v.get("sites").unwrap().as_array().unwrap().len(), 2);
    }
}
