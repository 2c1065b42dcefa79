//! The four seeded trace workloads.
//!
//! Each generator emits a `P = 8` trace *task by task*, visiting the
//! streams in turn, and remembers the order in which it emitted the
//! ops. That emission order is a valid sequential execution (a `Send`
//! is always emitted before the `Free` that waits for it), so the
//! `P = 1` variant is the same ops, in that order, on one stream with
//! the `Send`s dropped: identical allocations, sizes and bytes.
//!
//! Sizes are frozen here (BENCHMARK.json admits no extra keys) so that
//! one run of one workload takes about 25 s on the 2-core reference
//! host; `README.md` repeats them.

use hoard_workloads::server_traffic;
use hoard_workloads::trace::{Trace, TraceBuilder, TraceOp};

/// Virtual processors of the parallel variant.
pub const PROCS: usize = 8;

/// Seed used when `--seed` is absent and for `results/BENCH_11.json`.
pub const DEFAULT_SEED: u64 = 2000;

/// SplitMix64. The library's own generator is crate-private, and the
/// benchmark must own its inputs anyway.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChurnLocal,
    ServerBleed,
    ProdconsDrift,
    PhaseLarge,
}

pub const ALL: [Workload; 4] = [
    Workload::ChurnLocal,
    Workload::ServerBleed,
    Workload::ProdconsDrift,
    Workload::PhaseLarge,
];

// churn-local
const CHURN_ROUNDS: usize = 640;
const CHURN_BATCH: usize = 24;
const CHURN_SIZES: [u32; 3] = [16, 64, 256];
const CHURN_WORK: std::ops::RangeInclusive<u32> = 28..=32;
/// Held by every stream from its first op to its last, so a heap is
/// never emptier than the slack `K·S` allows and plain `hoard` keeps
/// its three superblocks instead of bouncing one off the global heap
/// each round. Chosen to fit the superblocks the batches already use.
const CHURN_RESIDENTS: [(usize, u32); 2] = [(20, 256), (90, 64)];
// server-bleed
const SERVER_SESSIONS: u64 = 300_000;
const SERVER_BASE_LIFETIME: f64 = 40_000.0;
// prodcons-drift
const PRODCONS_BATCHES: usize = 560;
const PRODCONS_BATCH: std::ops::RangeInclusive<u32> = 46..=50;
const PRODCONS_SIZE: u32 = 64;
const PRODCONS_PRODUCE_WORK: u32 = 60;
const PRODCONS_CONSUME_WORK: u32 = 20;
// phase-large
const PHASES: usize = 8;
const PANEL_SIZES: [u32; 5] = [2048, 3000, 8192, 16384, 32768];
const PANEL_SETS: usize = 3;
const TRANSIENT_PAIRS: usize = 330;
const TRANSIENT_SIZE: std::ops::RangeInclusive<u32> = 1024..=2048;
const TRANSIENT_WORK: u32 = 200;

/// What a generator hands back: the parallel trace and a sequential
/// execution order of its ops (the stream of each op, in turn).
pub struct Generated {
    pub p8: Trace,
    pub order: Vec<u16>,
}

/// A `TraceBuilder` that also logs which stream each op went to.
struct Gen {
    b: TraceBuilder,
    order: Vec<u16>,
}

impl Gen {
    fn new() -> Self {
        Gen {
            b: TraceBuilder::new(PROCS),
            order: Vec::new(),
        }
    }

    fn alloc(&mut self, t: usize, size: u32) -> u32 {
        self.order.push(t as u16);
        self.b.alloc(t, size)
    }

    fn free(&mut self, t: usize, id: u32) {
        self.order.push(t as u16);
        self.b.free(t, id);
    }

    fn send(&mut self, from: usize, id: u32, to: usize) {
        self.order.push(from as u16);
        self.b.send(from, id, to);
    }

    fn work(&mut self, t: usize, units: u32) {
        self.order.push(t as u16);
        self.b.work(t, units);
    }

    fn finish(self) -> Generated {
        Generated {
            p8: self.b.finish().expect("generated trace is well formed"),
            order: self.order,
        }
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChurnLocal => "churn-local",
            Workload::ServerBleed => "server-bleed",
            Workload::ProdconsDrift => "prodcons-drift",
            Workload::PhaseLarge => "phase-large",
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::ChurnLocal => {
                "small same-processor batches that fit a magazine: pure fast path, no transfers, no remote frees"
            }
            Workload::ServerBleed => {
                "Pareto-sized server sessions with storms, evictions and 15% cross-worker frees: every layer carries weight"
            }
            Workload::ProdconsDrift => {
                "paired producers and consumers: every free is foreign, so remote-free and refill paths dominate"
            }
            Workload::PhaseLarge => {
                "phased large panels and 1-2 KiB transients: large path, chunk source and global recycling; magazines bypassed"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Times the flat trace is looped in one wall-clock repetition, so a
    /// repetition lasts at least 0.25 s on the reference host.
    pub fn wall_loops(self) -> usize {
        match self {
            Workload::ChurnLocal => 12,
            Workload::ServerBleed => 5,
            Workload::ProdconsDrift => 10,
            Workload::PhaseLarge => 40,
        }
    }

    /// One line naming the frozen sizes, for the result file.
    pub fn sizes(self) -> String {
        match self {
            Workload::ChurnLocal => format!(
                "rounds/stream={CHURN_ROUNDS} batch={CHURN_BATCH} sizes={CHURN_SIZES:?} work={CHURN_WORK:?} residents/stream={CHURN_RESIDENTS:?}"
            ),
            Workload::ServerBleed => format!(
                "sessions={SERVER_SESSIONS} workers={PROCS} base_lifetime={SERVER_BASE_LIFETIME}"
            ),
            Workload::ProdconsDrift => format!(
                "batches/pair={PRODCONS_BATCHES} batch={PRODCONS_BATCH:?} size={PRODCONS_SIZE}"
            ),
            Workload::PhaseLarge => format!(
                "phases={PHASES} panel_sets={PANEL_SETS} panels={PANEL_SIZES:?} transients/phase={TRANSIENT_PAIRS}"
            ),
        }
    }

    pub fn generate(self, seed: u64) -> Generated {
        match self {
            Workload::ChurnLocal => churn_local(seed),
            Workload::ServerBleed => server_bleed(seed),
            Workload::ProdconsDrift => prodcons_drift(seed),
            Workload::PhaseLarge => phase_large(seed),
        }
    }
}

fn churn_local(seed: u64) -> Generated {
    let mut g = Gen::new();
    let mut rngs: Vec<Rng> = (0..PROCS).map(|t| Rng::new(seed, t as u64)).collect();
    let mut batch = Vec::new();
    let mut residents = Vec::new();
    for t in 0..PROCS {
        for (count, size) in CHURN_RESIDENTS {
            for _ in 0..count {
                residents.push((t, g.alloc(t, size)));
            }
        }
    }
    for _ in 0..CHURN_ROUNDS {
        for (t, rng) in rngs.iter_mut().enumerate() {
            let phase = rng.range(0, 2) as usize;
            for i in 0..CHURN_BATCH {
                batch.push(g.alloc(t, CHURN_SIZES[(phase + i) % CHURN_SIZES.len()]));
                g.work(t, rng.range(*CHURN_WORK.start(), *CHURN_WORK.end()));
            }
            for id in batch.drain(..) {
                g.free(t, id);
            }
        }
    }
    for (t, id) in residents {
        g.free(t, id);
    }
    g.finish()
}

fn server_bleed(seed: u64) -> Generated {
    let (trc, _) = server_traffic::generate(&server_traffic::Params {
        workers: PROCS,
        sessions: SERVER_SESSIONS,
        base_lifetime: SERVER_BASE_LIFETIME,
        seed,
        ..server_traffic::Params::default()
    });
    let p8 = Trace::from_trc(&trc).expect("generator output converts");
    p8.validate().expect("server trace is well formed");
    // The library generator keeps no emission order; round-robin is one.
    let order = crate::flat::round_robin(&p8)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    Generated { p8, order }
}

fn prodcons_drift(seed: u64) -> Generated {
    let mut g = Gen::new();
    let mut rng = Rng::new(seed, 0);
    let mut batch = Vec::new();
    for _ in 0..PRODCONS_BATCHES {
        for pair in 0..PROCS / 2 {
            let (producer, consumer) = (2 * pair, 2 * pair + 1);
            let n = rng.range(*PRODCONS_BATCH.start(), *PRODCONS_BATCH.end());
            for _ in 0..n {
                batch.push(g.alloc(producer, PRODCONS_SIZE));
                g.work(producer, PRODCONS_PRODUCE_WORK);
            }
            for &id in &batch {
                g.send(producer, id, consumer);
            }
            for id in batch.drain(..) {
                g.work(consumer, PRODCONS_CONSUME_WORK);
                g.free(consumer, id);
            }
        }
    }
    g.finish()
}

fn phase_large(seed: u64) -> Generated {
    let mut g = Gen::new();
    let mut rngs: Vec<Rng> = (0..PROCS).map(|t| Rng::new(seed, t as u64)).collect();
    let mut panels: Vec<Vec<u32>> = vec![Vec::new(); PROCS];
    for _ in 0..PHASES {
        for (t, rng) in rngs.iter_mut().enumerate() {
            for _ in 0..PANEL_SETS {
                let first = rng.range(0, PANEL_SIZES.len() as u32 - 1) as usize;
                for i in 0..PANEL_SIZES.len() {
                    let size = PANEL_SIZES[(first + i) % PANEL_SIZES.len()];
                    panels[t].push(g.alloc(t, size));
                }
            }
            for _ in 0..TRANSIENT_PAIRS {
                let id = g.alloc(t, rng.range(*TRANSIENT_SIZE.start(), *TRANSIENT_SIZE.end()));
                g.work(t, TRANSIENT_WORK);
                g.free(t, id);
            }
        }
        for (t, held) in panels.iter().enumerate() {
            for &id in held {
                g.send(t, id, (t + 1) % PROCS);
            }
        }
        for (t, held) in panels.iter_mut().enumerate() {
            for id in held.drain(..) {
                g.free((t + 1) % PROCS, id);
            }
        }
    }
    g.finish()
}

/// The `P = 1` variant: every op of `p8`, in `order`, on one stream,
/// `Send`s dropped (the single stream already holds the object).
pub fn single_stream(p8: &Trace, order: &[u16]) -> Trace {
    let mut pcs = vec![0usize; p8.threads()];
    let mut stream = Vec::with_capacity(order.len());
    for &t in order {
        let op = p8.streams[t as usize][pcs[t as usize]];
        pcs[t as usize] += 1;
        if !matches!(op, TraceOp::Send { .. }) {
            stream.push(op);
        }
    }
    assert_eq!(
        pcs.iter().sum::<usize>(),
        p8.len(),
        "order covers every op of the trace"
    );
    Trace {
        streams: vec![stream],
    }
}

/// Allocation count, requested bytes, requests above `large_threshold`
/// and the peak of live requested bytes when the streams run in the
/// given per-stream order one after another (exact for one stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTotals {
    pub allocs: u64,
    pub bytes: u64,
    pub large: u64,
    pub sequential_peak: u64,
}

pub fn totals(trace: &Trace, large_threshold: usize) -> TraceTotals {
    // A foreign free may sit in an earlier stream than its alloc.
    let sizes: std::collections::HashMap<u32, u32> = trace
        .streams
        .iter()
        .flatten()
        .filter_map(|op| match *op {
            TraceOp::Alloc { id, size, .. } => Some((id, size)),
            _ => None,
        })
        .collect();
    let mut t = TraceTotals {
        allocs: 0,
        bytes: 0,
        large: 0,
        sequential_peak: 0,
    };
    let mut live = 0u64;
    for op in trace.streams.iter().flatten() {
        match *op {
            TraceOp::Alloc { size, .. } => {
                t.allocs += 1;
                t.bytes += u64::from(size);
                t.large += u64::from(size as usize > large_threshold);
                live += u64::from(size);
                t.sequential_peak = t.sequential_peak.max(live);
            }
            TraceOp::Free { id } => live = live.saturating_sub(u64::from(sizes[&id])),
            TraceOp::Send { .. } | TraceOp::Work { .. } => {}
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_workloads::trace::{synthesize, SynthesisParams};

    #[test]
    fn traces_validate_and_repeat_per_seed() {
        for w in ALL {
            let a = w.generate(11);
            a.p8.validate().expect("valid");
            assert_eq!(a.p8.threads(), PROCS);
            let b = w.generate(11);
            assert_eq!(a.p8.to_text(), b.p8.to_text(), "{}: same seed", w.name());
            assert_eq!(a.order, b.order);
            let c = w.generate(12);
            assert_ne!(a.p8.to_text(), c.p8.to_text(), "{}: other seed", w.name());
        }
    }

    #[test]
    fn p1_carries_the_same_allocations_and_bytes() {
        for w in ALL {
            let g = w.generate(5);
            let p1 = single_stream(&g.p8, &g.order);
            p1.validate().expect("valid");
            assert_eq!(p1.threads(), 1);
            let (a, b) = (totals(&g.p8, 4096), totals(&p1, 4096));
            assert_eq!((a.allocs, a.bytes, a.large), (b.allocs, b.bytes, b.large));
            assert!(p1
                .streams
                .iter()
                .flatten()
                .all(|op| !matches!(op, TraceOp::Send { .. })));
        }
    }

    /// Largest lead, as a share of its stream, that a `Send` has over
    /// the foreign `Free` waiting for it. Near 0: the streams advance
    /// together. Near 1: some stream opens with frees that wait for
    /// another stream's whole program, and replay serialises.
    fn worst_send_lead(trace: &Trace) -> f64 {
        let mut sent_at = std::collections::HashMap::new();
        for stream in &trace.streams {
            for (i, op) in stream.iter().enumerate() {
                if let TraceOp::Send { id, .. } = *op {
                    sent_at.insert(id, i as f64 / stream.len() as f64);
                }
            }
        }
        let mut worst = 0.0f64;
        for stream in &trace.streams {
            for (i, op) in stream.iter().enumerate() {
                if let TraceOp::Free { id } = *op {
                    if let Some(&s) = sent_at.get(&id) {
                        worst = worst.max(s - i as f64 / stream.len() as f64);
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn generation_is_interleaved_across_streams() {
        for w in ALL {
            let lead = worst_send_lead(&w.generate(3).p8);
            assert!(lead < 0.05, "{}: send leads its free by {lead}", w.name());
        }
        // The defect this guards against, shown on the library's
        // stream-at-a-time synthesiser.
        let serialised = synthesize(&SynthesisParams {
            threads: 4,
            remote_free_permille: 300,
            ..SynthesisParams::default()
        });
        assert!(worst_send_lead(&serialised) > 0.5);
    }

    #[test]
    fn workloads_keep_their_shape() {
        let large = |w: Workload| totals(&w.generate(1).p8, 4096).large;
        assert_eq!(large(Workload::ChurnLocal), 0);
        assert_eq!(large(Workload::ProdconsDrift), 0);
        assert!(large(Workload::PhaseLarge) > 0);
        let sends = |w: Workload| {
            w.generate(1)
                .p8
                .streams
                .iter()
                .flatten()
                .filter(|op| matches!(op, TraceOp::Send { .. }))
                .count() as u64
        };
        assert_eq!(sends(Workload::ChurnLocal), 0);
        let pc = Workload::ProdconsDrift.generate(1);
        assert_eq!(sends(Workload::ProdconsDrift), totals(&pc.p8, 4096).allocs);
    }
}
