//! `hoardscope` — turn a collected [`TraceLog`] (and optionally a
//! [`MetricsSnapshot`]) into the three diagnoses an allocator engineer
//! actually asks for:
//!
//! 1. **which locks hurt** — per-heap acquisition/contention/wait/hold,
//!    ranked by virtual wait;
//! 2. **transfer storms** — superblock migration between the global and
//!    processor heaps, bucketed over virtual time so bursts stand out;
//! 3. **front-end bypass** — per size class, how much traffic the
//!    magazines kept away from the heap locks.
//!
//! Everything except the hardening gauges is derived from the event log
//! alone, so a trace JSON written by one process can be analyzed by
//! another (`hoardscope FILE`).

use crate::Table;
use hoard_core::{
    EventKind, HoardAllocator, HoardConfig, MetricsSnapshot, TraceConfig, TraceLog, TraceSink,
};
use hoard_workloads::larson;
use std::sync::Arc;

/// Everything one traced run produces.
pub struct ScopeRun {
    /// The collected event trace.
    pub log: TraceLog,
    /// The metrics registry's snapshot at quiescence.
    pub metrics: MetricsSnapshot,
    /// Virtual makespan of the workload.
    pub makespan: u64,
}

/// Run larson (the remote-free-heavy benchmark) on `threads` virtual
/// processors with tracing and metrics attached — the standard demo and
/// test fixture. Deterministic: the workload seed and the virtual clock
/// are both fixed.
pub fn traced_larson(threads: usize, quick: bool) -> ScopeRun {
    traced_larson_with(HoardConfig::with_default_magazines(), threads, quick)
}

/// [`traced_larson`] against an explicit allocator configuration — the
/// contention gate runs it once per back-end and diffs the lock tables.
pub fn traced_larson_with(config: HoardConfig, threads: usize, quick: bool) -> ScopeRun {
    let h = HoardAllocator::with_config(config).expect("valid config");
    let sink = Arc::new(TraceSink::with_config(TraceConfig {
        tracks: threads.max(1),
        capacity: 1 << 18,
    }));
    let registry = Arc::new(h.new_metrics_registry());
    h.attach_tracer(Arc::clone(&sink));
    h.attach_metrics(Arc::clone(&registry));

    let mut params = larson::Params::default();
    if quick {
        params.slots_per_thread = 200;
        params.rounds = 2;
        params.ops_per_round = 1_000;
    }
    let result = larson::run(&h, threads, &params);
    h.flush_frontend();
    ScopeRun {
        log: sink.collect(),
        metrics: h.metrics_snapshot().expect("registry attached"),
        makespan: result.makespan,
    }
}

/// Total heap-lock acquisitions in a trace — the contention gate's
/// scalar. Every `LockAcquire` is one acquisition of one heap's `VLock`
/// (magazine and lock-free back-end traffic never emits one).
pub fn heap_lock_acquisitions(log: &TraceLog) -> u64 {
    log.count(EventKind::LockAcquire) as u64
}

/// Count events of `kind` per `arg0` (heap or class index, depending on
/// the kind), returning `(arg0, count, sum_arg1)` ascending by index.
fn by_arg0(log: &TraceLog, kind: EventKind) -> Vec<(u32, u64, u64)> {
    let mut acc: Vec<(u32, u64, u64)> = Vec::new();
    for (_, ev) in log.iter().filter(|(_, e)| e.kind == kind) {
        match acc.iter_mut().find(|(i, _, _)| *i == ev.arg0) {
            Some((_, n, s)) => {
                *n += 1;
                *s += ev.arg1;
            }
            None => acc.push((ev.arg0, 1, ev.arg1)),
        }
    }
    acc.sort_by_key(|&(i, _, _)| i);
    acc
}

/// Per-heap lock traffic ranked by total virtual wait (worst first).
/// Heap 0 is the global heap.
pub fn lock_table(log: &TraceLog) -> Table {
    let acquires = by_arg0(log, EventKind::LockAcquire);
    let releases = by_arg0(log, EventKind::LockRelease);
    let mut rows: Vec<(u32, u64, u64, u64, u64)> = acquires
        .iter()
        .map(|&(heap, n, wait)| {
            let contended = log
                .iter()
                .filter(|(_, e)| {
                    e.kind == EventKind::LockAcquire && e.arg0 == heap && e.arg1 > 0
                })
                .count() as u64;
            let held = releases
                .iter()
                .find(|&&(h, _, _)| h == heap)
                .map_or(0, |&(_, _, s)| s);
            (heap, n, contended, wait, held)
        })
        .collect();
    rows.sort_by_key(|&(_, _, _, wait, _)| std::cmp::Reverse(wait));

    let mut t = Table::new(
        "locks",
        "heap locks by virtual wait (0 = global heap)",
        vec![
            "heap".into(),
            "acquires".into(),
            "contended".into(),
            "wait".into(),
            "held".into(),
        ],
    );
    for (heap, n, contended, wait, held) in rows {
        t.push_row(vec![
            heap.to_string(),
            n.to_string(),
            contended.to_string(),
            wait.to_string(),
            held.to_string(),
        ]);
    }
    t.push_note("wait/held are virtual time units; contended = acquires with nonzero wait");
    t
}

/// Superblock transfers bucketed over virtual time: storms show up as
/// buckets far above the mean. One row per nonempty bucket.
pub fn transfer_table(log: &TraceLog, buckets: usize) -> Table {
    let transfers: Vec<(u64, bool)> = log
        .iter()
        .filter_map(|(_, e)| match e.kind {
            EventKind::TransferToGlobal => Some((e.ts, true)),
            EventKind::TransferFromGlobal => Some((e.ts, false)),
            _ => None,
        })
        .collect();
    let mut t = Table::new(
        "transfers",
        "superblock transfers over virtual time",
        vec![
            "window".into(),
            "to-global".into(),
            "from-global".into(),
            "total".into(),
        ],
    );
    if transfers.is_empty() {
        t.push_note("no superblock transfers in this trace");
        return t;
    }
    let end = transfers.iter().map(|&(ts, _)| ts).max().unwrap() + 1;
    let width = end.div_ceil(buckets.max(1) as u64).max(1);
    let mut counts = vec![(0u64, 0u64); buckets.max(1)];
    for &(ts, out) in &transfers {
        let b = ((ts / width) as usize).min(counts.len() - 1);
        if out {
            counts[b].0 += 1;
        } else {
            counts[b].1 += 1;
        }
    }
    let peak = counts.iter().map(|&(o, i)| o + i).max().unwrap_or(0);
    for (b, &(out, inn)) in counts.iter().enumerate() {
        if out + inn == 0 {
            continue;
        }
        let lo = b as u64 * width;
        let mark = if out + inn == peak && peak > 0 { " <- peak" } else { "" };
        t.push_row(vec![
            format!("[{lo}, {})", lo + width),
            out.to_string(),
            inn.to_string(),
            format!("{}{mark}", out + inn),
        ]);
    }
    t.push_note(format!(
        "{} transfers total; a bucket far above the others is a transfer storm",
        transfers.len()
    ));
    t
}

/// Per-class traffic split into lock-free front-end operations
/// (magazine hits, deferred remote pushes) and locked heap operations.
pub fn class_table(log: &TraceLog) -> Table {
    let classes: Vec<u32> = {
        let mut c: Vec<u32> = log
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.kind,
                    EventKind::Alloc
                        | EventKind::AllocMagazine
                        | EventKind::Free
                        | EventKind::FreeMagazine
                        | EventKind::RemoteFreePush
                )
            })
            .map(|(_, e)| e.arg0)
            .collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    let count = |kind: EventKind, class: u32| -> u64 {
        log.iter()
            .filter(|(_, e)| e.kind == kind && e.arg0 == class)
            .count() as u64
    };
    let mut t = Table::new(
        "classes",
        "per-class front-end bypass",
        vec![
            "class".into(),
            "allocs".into(),
            "frees".into(),
            "frontend".into(),
            "locked".into(),
            "bypass%".into(),
        ],
    );
    for class in classes {
        let front = count(EventKind::AllocMagazine, class)
            + count(EventKind::FreeMagazine, class)
            + count(EventKind::RemoteFreePush, class);
        let locked = count(EventKind::Alloc, class) + count(EventKind::Free, class);
        let allocs = count(EventKind::Alloc, class) + count(EventKind::AllocMagazine, class);
        let frees = count(EventKind::Free, class)
            + count(EventKind::FreeMagazine, class)
            + count(EventKind::RemoteFreePush, class);
        let total = front + locked;
        t.push_row(vec![
            class.to_string(),
            allocs.to_string(),
            frees.to_string(),
            front.to_string(),
            locked.to_string(),
            format!("{:.1}", 100.0 * front as f64 / total.max(1) as f64),
        ]);
    }
    t.push_note("frontend = magazine ops + deferred remote pushes (no heap lock taken)");
    t
}

/// Event counts by kind, descending, with per-track totals in the notes.
pub fn event_summary(log: &TraceLog) -> Table {
    let mut t = Table::new(
        "events",
        "trace summary",
        vec!["event".into(), "count".into()],
    );
    let mut counts: Vec<(EventKind, usize)> = EventKind::ALL
        .iter()
        .map(|&k| (k, log.count(k)))
        .filter(|&(_, n)| n > 0)
        .collect();
    counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (kind, n) in counts {
        t.push_row(vec![kind.label().to_string(), n.to_string()]);
    }
    let tracks: Vec<String> = log
        .tracks
        .iter()
        .map(|tr| format!("proc {}: {}", tr.proc, tr.events.len()))
        .collect();
    let large_allocs = log.count(EventKind::AllocLarge);
    let large_frees = log.count(EventKind::FreeLarge);
    if large_allocs + large_frees > 0 {
        // `arg0` = 1 marks a pool hit / a park.
        let pooled = |kind| log.iter().filter(|(_, e)| e.kind == kind && e.arg0 == 1).count();
        t.push_note(format!(
            "large pool: {} of {large_allocs} large allocs were hits, {} of {large_frees} large frees parked",
            pooled(EventKind::AllocLarge),
            pooled(EventKind::FreeLarge),
        ));
    }
    t.push_note(format!(
        "{} events on {} tracks ({}); {} dropped",
        log.total_events(),
        log.tracks.len(),
        tracks.join(", "),
        log.dropped
    ));
    t
}

/// Hardening and histogram digests only the registry knows.
pub fn metrics_table(m: &MetricsSnapshot) -> Table {
    let mut t = Table::new(
        "metrics",
        "registry digests",
        vec!["metric".into(), "value".into()],
    );
    let hist = |name: &str, h: &hoard_core::HistogramSnapshot| {
        vec![
            name.to_string(),
            format!("n={} mean={:.1} p99={}", h.count, h.mean(), h.percentile(0.99)),
        ]
    };
    t.push_row(hist("lock wait", &m.lock_wait));
    t.push_row(hist("lock hold", &m.lock_hold));
    t.push_row(hist("transfer fullness %", &m.transfer_fullness));
    t.push_row(hist("magazine fill", &m.magazine_fill));
    t.push_row(vec![
        "corruption reports".into(),
        m.hardening.corruption_reports.to_string(),
    ]);
    t.push_row(vec!["quarantined".into(), m.hardening.quarantined.to_string()]);
    t.push_row(vec![
        "oom chunk reclaims".into(),
        m.hardening.chunk_reclaims.to_string(),
    ]);
    t.push_row(vec![
        "oom rescued allocs".into(),
        m.hardening.rescued_allocations.to_string(),
    ]);
    t.push_row(vec![
        "sb registry occupancy".into(),
        format!(
            "{}/{} ({:.1}%)",
            m.registry.occupancy,
            m.registry.capacity,
            100.0 * m.registry.occupancy_ratio()
        ),
    ]);
    t.push_row(vec![
        "sb registry degraded".into(),
        if m.registry.overflowed {
            "YES (overflow latched; mask checks fall back to headers)".into()
        } else {
            "no".to_string()
        },
    ]);
    t
}

/// The full text report: event summary, lock ranking, transfer
/// timeline, bypass rates, and (when a registry snapshot is available)
/// the histogram/hardening digests.
pub fn scope_report(log: &TraceLog, metrics: Option<&MetricsSnapshot>) -> String {
    let mut out = String::new();
    out.push_str(&event_summary(log).render());
    out.push('\n');
    out.push_str(&lock_table(log).render());
    out.push('\n');
    out.push_str(&transfer_table(log, 20).render());
    out.push('\n');
    out.push_str(&class_table(log).render());
    if let Some(m) = metrics {
        out.push('\n');
        out.push_str(&metrics_table(m).render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_log_renders_without_panicking() {
        let log = TraceLog {
            tracks: vec![],
            dropped: 0,
        };
        let report = scope_report(&log, None);
        assert!(report.contains("trace summary"));
        assert!(report.contains("no superblock transfers"));
    }

    #[test]
    fn summary_notes_the_large_pool_hit_rate() {
        let event = |kind, arg0| hoard_core::Event { ts: 0, kind, arg0, arg1: 100_000 };
        let log = TraceLog {
            tracks: vec![hoard_core::TrackLog {
                proc: 0,
                events: vec![
                    event(EventKind::AllocLarge, 0),
                    event(EventKind::FreeLarge, 1),
                    event(EventKind::AllocLarge, 1),
                ],
            }],
            dropped: 0,
        };
        let summary = event_summary(&log).render();
        assert!(
            summary.contains("1 of 2 large allocs were hits, 1 of 1 large frees parked"),
            "{summary}"
        );
    }
}
