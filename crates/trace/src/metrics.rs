//! The metrics registry: `AllocStats` generalized from one global
//! struct to **per-heap × per-size-class** counters plus virtual-time
//! histograms.
//!
//! The registry is the aggregate companion to the event tracer: the
//! tracer answers *when and in what order*, the registry answers *how
//! much, where* without the storage cost of a full trace. Both are
//! attachable and both are off (and free) by default.
//!
//! All counters are relaxed atomics — the registry is updated from
//! allocator hot paths under whatever concurrency the allocator already
//! has, and a snapshot is a point-in-time read, exact only at quiescent
//! points (the same contract `AllocStats` has). Snapshots subtract
//! ([`MetricsSnapshot::delta`]) so an experiment can meter one phase of
//! a run.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Power-of-two histogram buckets: bucket 0 holds zeros, bucket *i*
/// holds values in `[2^(i−1), 2^i)`, the last bucket saturates.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free log₂ histogram of `u64` samples (virtual-time durations,
/// percentages, occupancy levels).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializable copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`] for the layout).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (not delta-able; a delta keeps `self`'s max).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `p`-th percentile (`0.0..=1.0`) as the upper bound of
    /// the bucket containing that rank; 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.max
    }

    /// Samples recorded since `base` (saturating per bucket).
    pub fn delta(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(base.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            max: self.max,
        }
    }
}

#[derive(Debug, Default)]
struct ClassCell {
    allocs: AtomicU64,
    frees: AtomicU64,
    remote_frees: AtomicU64,
    magazine_ops: AtomicU64,
    refills: AtomicU64,
    flushes: AtomicU64,
}

#[derive(Debug, Default)]
struct HeapCell {
    lock_acquires: AtomicU64,
    lock_contended: AtomicU64,
    lock_wait_units: AtomicU64,
    lock_hold_units: AtomicU64,
    transfers_in: AtomicU64,
    transfers_out: AtomicU64,
}

/// Per-heap × per-size-class counters, virtual-time histograms, and
/// hardening gauges. Construct with the allocator's geometry and attach
/// through a [`Probe`](crate::Probe).
#[derive(Debug)]
pub struct MetricsRegistry {
    heaps: usize,
    classes: usize,
    class_cells: Box<[ClassCell]>,
    heap_cells: Box<[HeapCell]>,
    lock_wait: Histogram,
    lock_hold: Histogram,
    transfer_fullness: Histogram,
    magazine_fill: Histogram,
    /// corruption_reports, quarantined, chunk_reclaims, rescued_allocations
    hardening: [AtomicU64; 4],
}

impl MetricsRegistry {
    /// A registry for `heaps` heaps (index 0 = global) × `classes` size
    /// classes.
    pub fn new(heaps: usize, classes: usize) -> Self {
        let heaps = heaps.max(1);
        let classes = classes.max(1);
        MetricsRegistry {
            heaps,
            classes,
            class_cells: (0..heaps * classes).map(|_| ClassCell::default()).collect(),
            heap_cells: (0..heaps).map(|_| HeapCell::default()).collect(),
            lock_wait: Histogram::new(),
            lock_hold: Histogram::new(),
            transfer_fullness: Histogram::new(),
            magazine_fill: Histogram::new(),
            hardening: [const { AtomicU64::new(0) }; 4],
        }
    }

    /// Number of heaps this registry meters.
    pub fn heaps(&self) -> usize {
        self.heaps
    }

    /// Number of size classes this registry meters.
    pub fn classes(&self) -> usize {
        self.classes
    }

    fn class_cell(&self, heap: usize, class: usize) -> Option<&ClassCell> {
        if heap < self.heaps && class < self.classes {
            Some(&self.class_cells[heap * self.classes + class])
        } else {
            None
        }
    }

    /// Count a small allocation on `heap`/`class` (`magazine` = served
    /// lock-free by the front-end).
    pub fn on_alloc(&self, heap: usize, class: usize, magazine: bool) {
        if let Some(c) = self.class_cell(heap, class) {
            c.allocs.fetch_add(1, Relaxed);
            if magazine {
                c.magazine_ops.fetch_add(1, Relaxed);
            }
        }
    }

    /// Count a small free on `heap`/`class`.
    pub fn on_free(&self, heap: usize, class: usize, magazine: bool) {
        if let Some(c) = self.class_cell(heap, class) {
            c.frees.fetch_add(1, Relaxed);
            if magazine {
                c.magazine_ops.fetch_add(1, Relaxed);
            }
        }
    }

    /// Count a deferred remote free pushed toward `heap`/`class`. This
    /// is the user-facing free (it also counts in `frees`, keeping
    /// `total_frees` in step with `AllocStats`); the later drain under
    /// the owner's lock is bookkeeping, not a second free.
    pub fn on_remote_free(&self, heap: usize, class: usize) {
        if let Some(c) = self.class_cell(heap, class) {
            c.frees.fetch_add(1, Relaxed);
            c.remote_frees.fetch_add(1, Relaxed);
        }
    }

    /// Count a magazine refill for `heap`/`class` (a dry magazine
    /// pulled a batch under the heap lock). A high refill *frequency*
    /// says the class's capacity or batch size is too small.
    pub fn on_magazine_refill(&self, heap: usize, class: usize) {
        if let Some(c) = self.class_cell(heap, class) {
            c.refills.fetch_add(1, Relaxed);
        }
    }

    /// Count a magazine flush for `heap`/`class` (a full magazine
    /// returned a batch); the flush-side companion to
    /// [`on_magazine_refill`](Self::on_magazine_refill).
    pub fn on_magazine_flush(&self, heap: usize, class: usize) {
        if let Some(c) = self.class_cell(heap, class) {
            c.flushes.fetch_add(1, Relaxed);
        }
    }

    /// Record a heap-lock acquisition and its virtual wait (0 when
    /// uncontended; contended waits also feed the wait histogram).
    pub fn on_lock(&self, heap: usize, waited: u64) {
        if let Some(h) = self.heap_cells.get(heap) {
            h.lock_acquires.fetch_add(1, Relaxed);
            if waited > 0 {
                h.lock_contended.fetch_add(1, Relaxed);
                h.lock_wait_units.fetch_add(waited, Relaxed);
                self.lock_wait.record(waited);
            }
        }
    }

    /// Record a heap-lock release after holding it `held` virtual units.
    pub fn on_unlock(&self, heap: usize, held: u64) {
        if let Some(h) = self.heap_cells.get(heap) {
            h.lock_hold_units.fetch_add(held, Relaxed);
            self.lock_hold.record(held);
        }
    }

    /// Record a superblock leaving `heap` for the global heap at
    /// `fullness_pct` percent occupancy.
    pub fn on_transfer_to_global(&self, heap: usize, fullness_pct: u64) {
        if let Some(h) = self.heap_cells.get(heap) {
            h.transfers_out.fetch_add(1, Relaxed);
            self.transfer_fullness.record(fullness_pct);
        }
    }

    /// Record a superblock arriving at `heap` from the global heap at
    /// `fullness_pct` percent occupancy.
    pub fn on_transfer_from_global(&self, heap: usize, fullness_pct: u64) {
        if let Some(h) = self.heap_cells.get(heap) {
            h.transfers_in.fetch_add(1, Relaxed);
            self.transfer_fullness.record(fullness_pct);
        }
    }

    /// Record a magazine's occupancy at a refill or flush boundary.
    pub fn on_magazine_level(&self, level: u64) {
        self.magazine_fill.record(level);
    }

    /// Set the hardening gauges (absolute values, not increments) —
    /// called by the allocator when snapshotting, from its
    /// `CorruptionLog` and `RecoveryStats`.
    pub fn set_hardening(
        &self,
        corruption_reports: u64,
        quarantined: u64,
        chunk_reclaims: u64,
        rescued_allocations: u64,
    ) {
        let values = [
            corruption_reports,
            quarantined,
            chunk_reclaims,
            rescued_allocations,
        ];
        for (slot, v) in self.hardening.iter().zip(values) {
            slot.store(v, Relaxed);
        }
    }

    /// Point-in-time copy of everything (heaps with no activity are
    /// omitted, classes with no activity are omitted per heap).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut heaps = Vec::new();
        for heap in 0..self.heaps {
            let h = &self.heap_cells[heap];
            let mut classes = Vec::new();
            for class in 0..self.classes {
                let c = &self.class_cells[heap * self.classes + class];
                let m = ClassMetrics {
                    class,
                    allocs: c.allocs.load(Relaxed),
                    frees: c.frees.load(Relaxed),
                    remote_frees: c.remote_frees.load(Relaxed),
                    magazine_ops: c.magazine_ops.load(Relaxed),
                    refills: c.refills.load(Relaxed),
                    flushes: c.flushes.load(Relaxed),
                };
                if !m.is_zero() {
                    classes.push(m);
                }
            }
            let hm = HeapMetrics {
                heap,
                lock_acquires: h.lock_acquires.load(Relaxed),
                lock_contended: h.lock_contended.load(Relaxed),
                lock_wait_units: h.lock_wait_units.load(Relaxed),
                lock_hold_units: h.lock_hold_units.load(Relaxed),
                transfers_in: h.transfers_in.load(Relaxed),
                transfers_out: h.transfers_out.load(Relaxed),
                classes,
            };
            if !hm.is_zero() {
                heaps.push(hm);
            }
        }
        let hd = &self.hardening;
        MetricsSnapshot {
            heaps,
            lock_wait: self.lock_wait.snapshot(),
            lock_hold: self.lock_hold.snapshot(),
            transfer_fullness: self.transfer_fullness.snapshot(),
            magazine_fill: self.magazine_fill.snapshot(),
            hardening: HardeningMetrics {
                corruption_reports: hd[0].load(Relaxed),
                quarantined: hd[1].load(Relaxed),
                chunk_reclaims: hd[2].load(Relaxed),
                rescued_allocations: hd[3].load(Relaxed),
            },
        }
    }
}

/// One size class's counters within one heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassMetrics {
    /// Size-class index.
    pub class: usize,
    /// Allocations served (magazine + locked).
    pub allocs: u64,
    /// Frees applied (magazine + locked).
    pub frees: u64,
    /// Deferred remote frees pushed toward this heap/class.
    pub remote_frees: u64,
    /// Operations that bypassed the heap lock via a magazine.
    pub magazine_ops: u64,
    /// Magazine refills (dry magazine pulled a batch).
    pub refills: u64,
    /// Magazine flushes (full magazine returned a batch).
    pub flushes: u64,
}

impl ClassMetrics {
    fn is_zero(&self) -> bool {
        self.allocs == 0
            && self.frees == 0
            && self.remote_frees == 0
            && self.magazine_ops == 0
            && self.refills == 0
            && self.flushes == 0
    }

    fn delta(&self, base: &ClassMetrics) -> ClassMetrics {
        ClassMetrics {
            class: self.class,
            allocs: self.allocs.saturating_sub(base.allocs),
            frees: self.frees.saturating_sub(base.frees),
            remote_frees: self.remote_frees.saturating_sub(base.remote_frees),
            magazine_ops: self.magazine_ops.saturating_sub(base.magazine_ops),
            refills: self.refills.saturating_sub(base.refills),
            flushes: self.flushes.saturating_sub(base.flushes),
        }
    }
}

/// One heap's counters and its per-class breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapMetrics {
    /// Heap index (0 = global heap).
    pub heap: usize,
    /// Lock acquisitions on this heap's lock.
    pub lock_acquires: u64,
    /// Virtually contended acquisitions.
    pub lock_contended: u64,
    /// Total virtual units spent waiting on contended acquisitions.
    pub lock_wait_units: u64,
    /// Total virtual units the lock was held.
    pub lock_hold_units: u64,
    /// Superblocks received from the global heap.
    pub transfers_in: u64,
    /// Superblocks surrendered to the global heap.
    pub transfers_out: u64,
    /// Per-class activity (classes with any activity only).
    pub classes: Vec<ClassMetrics>,
}

impl HeapMetrics {
    fn is_zero(&self) -> bool {
        self.lock_acquires == 0
            && self.transfers_in == 0
            && self.transfers_out == 0
            && self.classes.is_empty()
    }

    /// Sum of `allocs` across classes.
    pub fn total_allocs(&self) -> u64 {
        self.classes.iter().map(|c| c.allocs).sum()
    }

    /// Sum of `frees` across classes.
    pub fn total_frees(&self) -> u64 {
        self.classes.iter().map(|c| c.frees).sum()
    }
}

/// Hardening visibility: corruption and OOM-recovery totals, surfaced
/// so harness summaries see them without installing a corruption hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HardeningMetrics {
    /// Corrupt operations detected and rejected (`CorruptionLog::total`).
    pub corruption_reports: u64,
    /// Blocks quarantined instead of recycled.
    pub quarantined: u64,
    /// Empty-superblock chunks reclaimed by OOM recovery.
    pub chunk_reclaims: u64,
    /// Allocations that succeeded only thanks to OOM recovery.
    pub rescued_allocations: u64,
}

impl HardeningMetrics {
    fn delta(&self, base: &HardeningMetrics) -> HardeningMetrics {
        HardeningMetrics {
            corruption_reports: self.corruption_reports.saturating_sub(base.corruption_reports),
            quarantined: self.quarantined.saturating_sub(base.quarantined),
            chunk_reclaims: self.chunk_reclaims.saturating_sub(base.chunk_reclaims),
            rescued_allocations: self
                .rescued_allocations
                .saturating_sub(base.rescued_allocations),
        }
    }
}

/// Serializable point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Heaps with any recorded activity, ascending by index.
    pub heaps: Vec<HeapMetrics>,
    /// Contended lock waits (virtual units).
    pub lock_wait: HistogramSnapshot,
    /// Lock hold durations (virtual units).
    pub lock_hold: HistogramSnapshot,
    /// Superblock fullness (percent) at global↔local transfer.
    pub transfer_fullness: HistogramSnapshot,
    /// Magazine occupancy at refill/flush boundaries.
    pub magazine_fill: HistogramSnapshot,
    /// Corruption / OOM-recovery gauges.
    pub hardening: HardeningMetrics,
}

impl MetricsSnapshot {
    /// Activity recorded since `base` (counter-wise saturating
    /// subtraction; heaps/classes that saw no new activity drop out).
    pub fn delta(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let heaps = self
            .heaps
            .iter()
            .map(|h| {
                let empty;
                let b = match base.heaps.iter().find(|b| b.heap == h.heap) {
                    Some(b) => b,
                    None => {
                        empty = HeapMetrics {
                            heap: h.heap,
                            lock_acquires: 0,
                            lock_contended: 0,
                            lock_wait_units: 0,
                            lock_hold_units: 0,
                            transfers_in: 0,
                            transfers_out: 0,
                            classes: Vec::new(),
                        };
                        &empty
                    }
                };
                let zero = |class| ClassMetrics {
                    class,
                    allocs: 0,
                    frees: 0,
                    remote_frees: 0,
                    magazine_ops: 0,
                    refills: 0,
                    flushes: 0,
                };
                HeapMetrics {
                    heap: h.heap,
                    lock_acquires: h.lock_acquires.saturating_sub(b.lock_acquires),
                    lock_contended: h.lock_contended.saturating_sub(b.lock_contended),
                    lock_wait_units: h.lock_wait_units.saturating_sub(b.lock_wait_units),
                    lock_hold_units: h.lock_hold_units.saturating_sub(b.lock_hold_units),
                    transfers_in: h.transfers_in.saturating_sub(b.transfers_in),
                    transfers_out: h.transfers_out.saturating_sub(b.transfers_out),
                    classes: h
                        .classes
                        .iter()
                        .map(|c| {
                            c.delta(
                                &b.classes
                                    .iter()
                                    .find(|x| x.class == c.class)
                                    .copied()
                                    .unwrap_or_else(|| zero(c.class)),
                            )
                        })
                        .filter(|c| !c.is_zero())
                        .collect(),
                }
            })
            .filter(|h| !h.is_zero())
            .collect();
        MetricsSnapshot {
            heaps,
            lock_wait: self.lock_wait.delta(&base.lock_wait),
            lock_hold: self.lock_hold.delta(&base.lock_hold),
            transfer_fullness: self.transfer_fullness.delta(&base.transfer_fullness),
            magazine_fill: self.magazine_fill.delta(&base.magazine_fill),
            hardening: self.hardening.delta(&base.hardening),
        }
    }

    /// Total allocations across all heaps and classes.
    pub fn total_allocs(&self) -> u64 {
        self.heaps.iter().map(|h| h.total_allocs()).sum()
    }

    /// Total frees across all heaps and classes.
    pub fn total_frees(&self) -> u64 {
        self.heaps.iter().map(|h| h.total_frees()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 1, "zeros");
        assert_eq!(s.buckets[1], 1, "[1,2)");
        assert_eq!(s.buckets[2], 2, "[2,4)");
        assert_eq!(s.buckets[11], 1, "[1024,2048)");
    }

    #[test]
    fn histogram_percentile_and_mean() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1 << 20);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.5), 8, "p50 in the [4,8) bucket -> bound 8");
        assert_eq!(s.percentile(1.0), 1 << 21);
        assert!(s.mean() > 4.0);
    }

    #[test]
    fn registry_counts_per_heap_and_class() {
        let r = MetricsRegistry::new(4, 8);
        r.on_alloc(1, 2, false);
        r.on_alloc(1, 2, true);
        r.on_free(1, 2, true);
        r.on_remote_free(3, 5);
        r.on_lock(1, 0);
        r.on_lock(1, 120);
        r.on_unlock(1, 40);
        r.on_transfer_to_global(1, 12);
        r.on_transfer_from_global(2, 80);
        let s = r.snapshot();
        assert_eq!(s.heaps.len(), 3);
        let h1 = &s.heaps[0];
        assert_eq!(h1.heap, 1);
        assert_eq!(h1.lock_acquires, 2);
        assert_eq!(h1.lock_contended, 1);
        assert_eq!(h1.lock_wait_units, 120);
        assert_eq!(h1.lock_hold_units, 40);
        assert_eq!(h1.transfers_out, 1);
        assert_eq!(h1.classes.len(), 1);
        assert_eq!(h1.classes[0].allocs, 2);
        assert_eq!(h1.classes[0].frees, 1);
        assert_eq!(h1.classes[0].magazine_ops, 2);
        assert_eq!(s.heaps[1].heap, 2);
        assert_eq!(s.heaps[1].transfers_in, 1);
        assert_eq!(s.heaps[2].classes[0].remote_frees, 1);
        assert_eq!(s.heaps[2].classes[0].frees, 1, "remote free is a free");
        assert_eq!(s.total_allocs(), 2);
        assert_eq!(s.transfer_fullness.count, 2);
    }

    #[test]
    fn out_of_range_indices_are_ignored() {
        let r = MetricsRegistry::new(2, 2);
        r.on_alloc(99, 0, false);
        r.on_alloc(0, 99, false);
        r.on_lock(99, 5);
        assert!(r.snapshot().heaps.is_empty());
    }

    #[test]
    fn delta_subtracts_and_drops_quiet_entries() {
        let r = MetricsRegistry::new(4, 4);
        r.on_alloc(1, 1, false);
        r.on_alloc(2, 0, false);
        let base = r.snapshot();
        r.on_alloc(1, 1, false);
        r.on_alloc(1, 1, false);
        r.on_lock(3, 50);
        let d = r.snapshot().delta(&base);
        assert_eq!(d.heaps.len(), 2, "heap 2 saw nothing new: {d:?}");
        assert_eq!(d.heaps[0].heap, 1);
        assert_eq!(d.heaps[0].classes[0].allocs, 2);
        assert_eq!(d.heaps[1].heap, 3);
        assert_eq!(d.heaps[1].lock_contended, 1);
        assert_eq!(d.lock_wait.count, 1);
    }

    #[test]
    fn hardening_gauges_are_absolute() {
        let r = MetricsRegistry::new(1, 1);
        r.set_hardening(3, 2, 1, 4);
        r.set_hardening(5, 2, 1, 4);
        let s = r.snapshot();
        assert_eq!(s.hardening.corruption_reports, 5);
        assert_eq!(s.hardening.rescued_allocations, 4);
    }

    #[test]
    fn refill_flush_counters_survive_snapshots_and_deltas() {
        let r = MetricsRegistry::new(4, 8);
        r.on_alloc(1, 2, true);
        r.on_alloc(2, 2, true);
        r.on_free(1, 2, true);
        r.on_alloc(1, 2, false);
        r.on_magazine_refill(1, 2);
        r.on_magazine_refill(2, 2);
        r.on_magazine_flush(1, 2);
        let s = r.snapshot();
        let class = |s: &MetricsSnapshot, heap: usize, class: usize| {
            let h = s.heaps.iter().find(|h| h.heap == heap)?;
            h.classes.iter().find(|c| c.class == class).copied()
        };
        let counts = |c: ClassMetrics| (c.allocs, c.frees, c.magazine_ops, c.refills, c.flushes);
        assert_eq!(class(&s, 1, 2).map(counts), Some((2, 1, 2, 1, 1)));
        assert_eq!(class(&s, 2, 2).map(counts), Some((1, 0, 1, 1, 0)), "each heap its own refills");
        assert_eq!(class(&s, 1, 7), None, "idle class");
        // Refill-only activity must survive snapshotting and deltas.
        r.on_magazine_refill(1, 5);
        let d = r.snapshot().delta(&s);
        assert_eq!(class(&d, 1, 5).map(|c| c.refills), Some(1));
        assert_eq!(class(&d, 1, 2), None, "nothing new on class 2");
    }
}
