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

use crate::jsonio::{obj, JsonValue};
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
/// (see `HoardAllocator::attach_metrics`).
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
    /// occupancy, capacity, overflowed (0/1) of the lock-free
    /// superblock registry.
    registry: [AtomicU64; 3],
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
            registry: [const { AtomicU64::new(0) }; 3],
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
    /// pulled a batch under the heap lock, or from the lock-free
    /// back-end). A high refill *frequency* says the class's capacity
    /// or batch size is too small.
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

    /// Set the superblock-registry gauges (absolute values) — occupancy
    /// and capacity of the lock-free registry backing the masked-
    /// metadata checks, and whether its overflow latch has tripped
    /// (degraded mode: contains-checks fall back to header validation).
    pub fn set_registry(&self, occupancy: u64, capacity: u64, overflowed: bool) {
        let values = [occupancy, capacity, u64::from(overflowed)];
        for (slot, v) in self.registry.iter().zip(values) {
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
            registry: RegistryMetrics {
                occupancy: self.registry[0].load(Relaxed),
                capacity: self.registry[1].load(Relaxed),
                overflowed: self.registry[2].load(Relaxed) != 0,
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

/// Superblock-registry visibility: the lock-free registry that
/// validates masked metadata lookups is a fixed open-addressed table;
/// when it fills, an overflow latch trips and `contains` degrades to
/// header-only validation (ROADMAP's "degraded mode deserves a
/// gauge"). These are absolute gauges sampled at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryMetrics {
    /// Live entries in the registry (tombstones excluded).
    pub occupancy: u64,
    /// Slot capacity of the fixed table.
    pub capacity: u64,
    /// Whether the overflow latch has tripped (sticky: once degraded,
    /// the registry stays degraded for the allocator's lifetime).
    pub overflowed: bool,
}

impl RegistryMetrics {
    /// Occupancy as a fraction of capacity (0.0 for a zero-capacity /
    /// unsampled gauge).
    pub fn occupancy_ratio(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupancy as f64 / self.capacity as f64
        }
    }
}

/// One size class summed across all heaps (see
/// [`MetricsSnapshot::class_totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTotals {
    /// Allocations served (magazine + locked).
    pub allocs: u64,
    /// Frees applied (magazine + locked).
    pub frees: u64,
    /// Deferred remote frees.
    pub remote_frees: u64,
    /// Operations that bypassed the heap lock via a magazine.
    pub magazine_ops: u64,
    /// Magazine refills.
    pub refills: u64,
    /// Magazine flushes.
    pub flushes: u64,
}

impl ClassTotals {
    /// Total allocator operations (allocs + frees) on the class.
    pub fn ops(&self) -> u64 {
        self.allocs + self.frees
    }

    /// Share of operations the front-end absorbed without a heap lock,
    /// in percent (100 when the class saw no traffic, so an idle class
    /// never reads as "needs a bigger magazine").
    pub fn bypass_pct(&self) -> u64 {
        (self.magazine_ops * 100).checked_div(self.ops()).unwrap_or(100)
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
    /// Superblock-registry occupancy / degraded-mode gauges.
    pub registry: RegistryMetrics,
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
            // Gauges, not counters: a delta keeps the later sample.
            registry: self.registry,
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

    /// One size class's counters aggregated across every heap.
    pub fn class_totals(&self, class: usize) -> ClassTotals {
        let mut t = ClassTotals::default();
        for h in &self.heaps {
            for c in h.classes.iter().filter(|c| c.class == class) {
                t.allocs += c.allocs;
                t.frees += c.frees;
                t.remote_frees += c.remote_frees;
                t.magazine_ops += c.magazine_ops;
                t.refills += c.refills;
                t.flushes += c.flushes;
            }
        }
        t
    }

    /// Superblock transfers in either direction summed across heaps.
    pub fn total_transfers(&self) -> u64 {
        self.heaps
            .iter()
            .map(|h| h.transfers_in + h.transfers_out)
            .sum()
    }

    /// Serialize to JSON (the form the harness writes next to its
    /// summary tables). Deterministic member order.
    pub fn to_json(&self) -> String {
        let heaps = self
            .heaps
            .iter()
            .map(|h| {
                let classes = h
                    .classes
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("class", JsonValue::Uint(c.class as u64)),
                            ("allocs", JsonValue::Uint(c.allocs)),
                            ("frees", JsonValue::Uint(c.frees)),
                            ("remote_frees", JsonValue::Uint(c.remote_frees)),
                            ("magazine_ops", JsonValue::Uint(c.magazine_ops)),
                            ("refills", JsonValue::Uint(c.refills)),
                            ("flushes", JsonValue::Uint(c.flushes)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("heap", JsonValue::Uint(h.heap as u64)),
                    ("lock_acquires", JsonValue::Uint(h.lock_acquires)),
                    ("lock_contended", JsonValue::Uint(h.lock_contended)),
                    ("lock_wait_units", JsonValue::Uint(h.lock_wait_units)),
                    ("lock_hold_units", JsonValue::Uint(h.lock_hold_units)),
                    ("transfers_in", JsonValue::Uint(h.transfers_in)),
                    ("transfers_out", JsonValue::Uint(h.transfers_out)),
                    ("classes", JsonValue::Arr(classes)),
                ])
            })
            .collect();
        let hist = |h: &HistogramSnapshot| {
            obj(vec![
                (
                    "buckets",
                    JsonValue::Arr(h.buckets.iter().map(|&b| JsonValue::Uint(b)).collect()),
                ),
                ("count", JsonValue::Uint(h.count)),
                ("sum", JsonValue::Uint(h.sum)),
                ("max", JsonValue::Uint(h.max)),
            ])
        };
        obj(vec![
            ("heaps", JsonValue::Arr(heaps)),
            ("lock_wait", hist(&self.lock_wait)),
            ("lock_hold", hist(&self.lock_hold)),
            ("transfer_fullness", hist(&self.transfer_fullness)),
            ("magazine_fill", hist(&self.magazine_fill)),
            (
                "hardening",
                obj(vec![
                    (
                        "corruption_reports",
                        JsonValue::Uint(self.hardening.corruption_reports),
                    ),
                    ("quarantined", JsonValue::Uint(self.hardening.quarantined)),
                    (
                        "chunk_reclaims",
                        JsonValue::Uint(self.hardening.chunk_reclaims),
                    ),
                    (
                        "rescued_allocations",
                        JsonValue::Uint(self.hardening.rescued_allocations),
                    ),
                ]),
            ),
            (
                "registry",
                obj(vec![
                    ("occupancy", JsonValue::Uint(self.registry.occupancy)),
                    ("capacity", JsonValue::Uint(self.registry.capacity)),
                    ("overflowed", JsonValue::Bool(self.registry.overflowed)),
                ]),
            ),
        ])
        .to_json()
    }

    /// Parse a JSON snapshot (the inverse of [`to_json`](Self::to_json)).
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(json)?;
        let u = |v: &JsonValue, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing numeric '{key}'"))
        };
        let hist = |key: &str| -> Result<HistogramSnapshot, String> {
            let h = doc.get(key).ok_or_else(|| format!("missing '{key}'"))?;
            Ok(HistogramSnapshot {
                buckets: h
                    .get("buckets")
                    .and_then(|b| b.as_array())
                    .ok_or("missing histogram buckets")?
                    .iter()
                    .map(|b| b.as_u64().ok_or("bad bucket"))
                    .collect::<Result<_, _>>()?,
                count: u(h, "count")?,
                sum: u(h, "sum")?,
                max: u(h, "max")?,
            })
        };
        let mut heaps = Vec::new();
        for h in doc
            .get("heaps")
            .and_then(|v| v.as_array())
            .ok_or("missing 'heaps' array")?
        {
            let mut classes = Vec::new();
            for c in h
                .get("classes")
                .and_then(|v| v.as_array())
                .ok_or("heap missing 'classes'")?
            {
                classes.push(ClassMetrics {
                    class: u(c, "class")? as usize,
                    allocs: u(c, "allocs")?,
                    frees: u(c, "frees")?,
                    remote_frees: u(c, "remote_frees")?,
                    magazine_ops: u(c, "magazine_ops")?,
                    // Later additions; default to 0 so snapshots
                    // written before them still parse.
                    refills: u(c, "refills").unwrap_or(0),
                    flushes: u(c, "flushes").unwrap_or(0),
                });
            }
            heaps.push(HeapMetrics {
                heap: u(h, "heap")? as usize,
                lock_acquires: u(h, "lock_acquires")?,
                lock_contended: u(h, "lock_contended")?,
                lock_wait_units: u(h, "lock_wait_units")?,
                lock_hold_units: u(h, "lock_hold_units")?,
                transfers_in: u(h, "transfers_in")?,
                transfers_out: u(h, "transfers_out")?,
                classes,
            });
        }
        let hd = doc.get("hardening").ok_or("missing 'hardening'")?;
        let rg = doc.get("registry").ok_or("missing 'registry'")?;
        Ok(MetricsSnapshot {
            heaps,
            lock_wait: hist("lock_wait")?,
            lock_hold: hist("lock_hold")?,
            transfer_fullness: hist("transfer_fullness")?,
            magazine_fill: hist("magazine_fill")?,
            hardening: HardeningMetrics {
                corruption_reports: u(hd, "corruption_reports")?,
                quarantined: u(hd, "quarantined")?,
                chunk_reclaims: u(hd, "chunk_reclaims")?,
                rescued_allocations: u(hd, "rescued_allocations")?,
            },
            registry: RegistryMetrics {
                occupancy: u(rg, "occupancy")?,
                capacity: u(rg, "capacity")?,
                overflowed: rg
                    .get("overflowed")
                    .and_then(|v| v.as_bool())
                    .ok_or("missing boolean 'overflowed'")?,
            },
        })
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
    fn snapshot_json_roundtrip() {
        let r = MetricsRegistry::new(3, 3);
        r.on_alloc(1, 2, true);
        r.on_lock(1, 7);
        r.set_hardening(1, 0, 2, 3);
        r.set_registry(17, 4096, true);
        let s = r.snapshot();
        let back = MetricsSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn refill_flush_counters_and_class_totals() {
        let r = MetricsRegistry::new(4, 8);
        r.on_alloc(1, 2, true);
        r.on_alloc(2, 2, true);
        r.on_free(1, 2, true);
        r.on_alloc(1, 2, false);
        r.on_magazine_refill(1, 2);
        r.on_magazine_refill(2, 2);
        r.on_magazine_flush(1, 2);
        let s = r.snapshot();
        let t = s.class_totals(2);
        assert_eq!(t.allocs, 3);
        assert_eq!(t.frees, 1);
        assert_eq!(t.magazine_ops, 3);
        assert_eq!(t.refills, 2, "refills aggregate across heaps");
        assert_eq!(t.flushes, 1);
        assert_eq!(t.bypass_pct(), 75);
        assert_eq!(s.class_totals(7).bypass_pct(), 100, "idle class");
        // Refill-only activity must survive snapshotting and deltas.
        r.on_magazine_refill(1, 5);
        let d = r.snapshot().delta(&s);
        assert_eq!(d.class_totals(5).refills, 1);
        assert_eq!(d.class_totals(2).refills, 0);
        // And the JSON round-trip carries the new counters.
        let back = MetricsSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn registry_gauges_are_absolute_and_survive_delta() {
        let r = MetricsRegistry::new(1, 1);
        r.set_registry(10, 4096, false);
        let base = r.snapshot();
        assert_eq!(base.registry.occupancy, 10);
        assert!(!base.registry.overflowed);
        assert!((base.registry.occupancy_ratio() - 10.0 / 4096.0).abs() < 1e-12);
        r.set_registry(4096, 4096, true);
        let d = r.snapshot().delta(&base);
        assert_eq!(d.registry.occupancy, 4096, "gauge keeps the later sample");
        assert!(d.registry.overflowed);
    }
}
