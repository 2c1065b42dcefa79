//! Allocation-trace recording and replay.
//!
//! Allocator research lives and dies by traces: a reproducible sequence
//! of `malloc`/`free` events (with thread attribution) that can be
//! replayed against any allocator. This module provides
//!
//! * [`Trace`] — a compact in-memory trace: per-thread event streams of
//!   [`TraceOp`]s referring to objects by dense ids;
//! * [`TraceBuilder`] — record a trace programmatically (or from a
//!   generator);
//! * [`synthesize`] — parameterized random-trace generation
//!   (sizes, lifetimes, cross-thread free fraction) for quick studies;
//! * [`replay`] — run a trace on any [`MtAllocator`] with a
//!   *deterministic* sequential discrete-event engine (byte-identical
//!   results across replays of the same trace), returning the usual
//!   [`WorkloadResult`]; [`replay_concurrent`] is the real-threads
//!   variant for concurrency stress;
//! * [`Trace::to_text`] — a line-per-event dump for diffing two traces
//!   (files use the binary `.trc` format: [`Trace::to_trc`] /
//!   [`Trace::from_trc`]).

use crate::{LiveMeter, Obj, WorkloadResult};
use hoard_mem::MtAllocator;
use hoard_sim::{vchannel, work, Machine, Rng, VReceiver, VSender};
use hoard_trace::{TrcOp, TrcRecord, TrcTrace};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Mutex;

/// One event in a thread's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Allocate `size` bytes and bind the result to object `id`,
    /// attributed to allocation site `site` (0 = untagged).
    Alloc { id: u32, size: u32, site: u32 },
    /// Free object `id` (which this thread allocated or received).
    Free { id: u32 },
    /// Send object `id` to thread `to` (it will free or hold it).
    Send { id: u32, to: u16 },
    /// Local computation.
    Work { units: u32 },
}

/// A multi-threaded allocation trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Per-thread event streams.
    pub streams: Vec<Vec<TraceOp>>,
}

impl Trace {
    /// Number of threads the trace was recorded for.
    pub fn threads(&self) -> usize {
        self.streams.len()
    }

    /// Total events across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dump as one line per event (`t0 a 5 128` / `t0 a 5 128 7` with
    /// a site tag / `t0 f 5` / `t0 s 5 2` / `t0 w 40`): equal traces
    /// give equal text, and two dumps diff line by line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (t, stream) in self.streams.iter().enumerate() {
            for op in stream {
                match op {
                    TraceOp::Alloc { id, size, site: 0 } => {
                        out.push_str(&format!("t{t} a {id} {size}\n"));
                    }
                    TraceOp::Alloc { id, size, site } => {
                        out.push_str(&format!("t{t} a {id} {size} {site}\n"));
                    }
                    TraceOp::Free { id } => out.push_str(&format!("t{t} f {id}\n")),
                    TraceOp::Send { id, to } => {
                        out.push_str(&format!("t{t} s {id} {to}\n"));
                    }
                    TraceOp::Work { units } => out.push_str(&format!("t{t} w {units}\n")),
                }
            }
        }
        out
    }

    /// Validate referential integrity: every freed/sent id was allocated
    /// (or received) earlier in the same stream, sends target real
    /// threads, and every id is allocated exactly once.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let threads = self.threads();
        let mut allocated: HashMap<u32, usize> = HashMap::new();
        for (t, stream) in self.streams.iter().enumerate() {
            for op in stream {
                if let TraceOp::Alloc { id, size, .. } = op {
                    if *size == 0 {
                        return Err(format!("object {id}: zero size"));
                    }
                    if allocated.insert(*id, t).is_some() {
                        return Err(format!("object {id} allocated twice"));
                    }
                }
            }
        }
        // Track possession per thread (moves via Send).
        let mut held: HashMap<u32, usize> = HashMap::new();
        // Replay per-stream in order; sends are asynchronous so receipt
        // is modelled eagerly (conservative: only checks existence).
        for (t, stream) in self.streams.iter().enumerate() {
            for op in stream {
                match op {
                    TraceOp::Alloc { id, .. } => {
                        held.insert(*id, t);
                    }
                    TraceOp::Free { id } => {
                        if !allocated.contains_key(id) {
                            return Err(format!("thread {t} frees unknown object {id}"));
                        }
                    }
                    TraceOp::Send { id, to } => {
                        if !allocated.contains_key(id) {
                            return Err(format!("thread {t} sends unknown object {id}"));
                        }
                        if *to as usize >= threads {
                            return Err(format!("send to nonexistent thread {to}"));
                        }
                    }
                    TraceOp::Work { .. } => {}
                }
            }
        }
        // Every allocated object must be freed exactly once somewhere.
        let mut freed: HashMap<u32, u32> = HashMap::new();
        for stream in &self.streams {
            for op in stream {
                if let TraceOp::Free { id } = op {
                    *freed.entry(*id).or_insert(0) += 1;
                }
            }
        }
        for (id, t) in &allocated {
            match freed.get(id) {
                Some(1) => {}
                Some(n) => return Err(format!("object {id} freed {n} times")),
                None => return Err(format!("object {id} (thread {t}) never freed")),
            }
        }
        Ok(())
    }

    /// Convert to the on-disk [`TrcTrace`] form: object ids become
    /// pointer tokens verbatim, `dt` is 0 throughout (an in-memory
    /// `Trace` carries its timing in explicit `Work` ops, not in
    /// record timestamps).
    pub fn to_trc(&self, seed: u64, config: &str) -> TrcTrace {
        TrcTrace {
            seed,
            config: config.to_string(),
            streams: self
                .streams
                .iter()
                .map(|stream| {
                    stream
                        .iter()
                        .map(|op| TrcRecord {
                            dt: 0,
                            op: match *op {
                                TraceOp::Alloc { id, size, site } => TrcOp::Alloc {
                                    token: u64::from(id),
                                    size,
                                    site,
                                },
                                TraceOp::Free { id } => TrcOp::Free {
                                    token: u64::from(id),
                                },
                                TraceOp::Send { id, to } => TrcOp::Send {
                                    token: u64::from(id),
                                    to: u32::from(to),
                                },
                                TraceOp::Work { units } => TrcOp::Work { units },
                            },
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Build a replayable `Trace` from a [`TrcTrace`] (captured by the
    /// allocator's recorder, produced by the server-traffic generator,
    /// or round-tripped through [`to_trc`](Self::to_trc)).
    ///
    /// Pointer tokens are remapped to dense `u32` object ids in
    /// first-appearance order. Record `dt`s are dropped: replay timing
    /// comes from driving the allocator itself (plus explicit `Work`
    /// records), which is what makes replaying one `.trc` twice
    /// byte-deterministic.
    ///
    /// **Cross-stream frees.** A recorded trace has no `Send` records —
    /// the recorder only sees allocs and frees — so a token allocated on
    /// stream *a* but freed on stream *t ≠ a* would leave the replaying
    /// thread *t* without the object. When (and only when) the source
    /// trace contains no explicit `Send`s, a `Send{id, to: t}` is
    /// inserted in stream *a* directly after the `Alloc`: the earliest
    /// deadlock-safe point, since the real run's interleaving proves the
    /// alloc happens before the free in every consistent order. Traces
    /// with explicit `Send`s (generator output) are converted verbatim.
    ///
    /// # Errors
    ///
    /// Returns a message when a free or send references a token never
    /// allocated in the trace, or a send targets a stream out of range.
    pub fn from_trc(trc: &TrcTrace) -> Result<Trace, String> {
        let threads = trc.streams.len();
        // Pass 1: dense ids in first-appearance order, alloc streams,
        // and whether any explicit sends exist.
        let mut ids: HashMap<u64, u32> = HashMap::new();
        let mut alloc_stream: HashMap<u32, usize> = HashMap::new();
        let mut has_sends = false;
        for (t, stream) in trc.streams.iter().enumerate() {
            for r in stream {
                match r.op {
                    TrcOp::Alloc { token, .. } => {
                        let next = ids.len() as u32;
                        let id = *ids.entry(token).or_insert(next);
                        if alloc_stream.insert(id, t).is_some() {
                            return Err(format!("token {token} allocated twice"));
                        }
                    }
                    TrcOp::Send { .. } => has_sends = true,
                    TrcOp::Free { .. } | TrcOp::Work { .. } => {}
                }
            }
        }
        let id_of = |token: u64, what: &str| -> Result<u32, String> {
            ids.get(&token)
                .copied()
                .ok_or_else(|| format!("{what} of token {token} never allocated"))
        };
        // Pass 2 (recorded traces only): which stream frees each id,
        // to synthesize the cross-stream handoffs.
        let mut inserted_sends: HashMap<u32, u16> = HashMap::new();
        if !has_sends {
            for (t, stream) in trc.streams.iter().enumerate() {
                for r in stream {
                    if let TrcOp::Free { token } = r.op {
                        let id = id_of(token, "free")?;
                        if alloc_stream.get(&id) != Some(&t) {
                            inserted_sends.insert(id, t as u16);
                        }
                    }
                }
            }
        }
        // Pass 3: emit.
        let mut streams: Vec<Vec<TraceOp>> = vec![Vec::new(); threads];
        for (t, stream) in trc.streams.iter().enumerate() {
            for r in stream {
                match r.op {
                    TrcOp::Alloc { token, size, site } => {
                        let id = ids[&token];
                        streams[t].push(TraceOp::Alloc {
                            id,
                            size: size.max(1),
                            site,
                        });
                        if let Some(&to) = inserted_sends.get(&id) {
                            streams[t].push(TraceOp::Send { id, to });
                        }
                    }
                    TrcOp::Free { token } => {
                        streams[t].push(TraceOp::Free {
                            id: id_of(token, "free")?,
                        });
                    }
                    TrcOp::Send { token, to } => {
                        if to as usize >= threads {
                            return Err(format!("send to nonexistent stream {to}"));
                        }
                        streams[t].push(TraceOp::Send {
                            id: id_of(token, "send")?,
                            to: to as u16,
                        });
                    }
                    TrcOp::Work { units } => streams[t].push(TraceOp::Work { units }),
                }
            }
        }
        Ok(Trace { streams })
    }
}

/// Incremental trace construction.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    trace: Trace,
    next_id: u32,
}

impl TraceBuilder {
    /// Start a trace for `threads` threads.
    pub fn new(threads: usize) -> Self {
        TraceBuilder {
            trace: Trace {
                streams: vec![Vec::new(); threads],
            },
            next_id: 0,
        }
    }

    /// Record an allocation on `thread`; returns the object id.
    pub fn alloc(&mut self, thread: usize, size: u32) -> u32 {
        self.alloc_site(thread, size, 0)
    }

    /// Record an allocation tagged with allocation site `site`.
    pub fn alloc_site(&mut self, thread: usize, size: u32, site: u32) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.trace.streams[thread].push(TraceOp::Alloc { id, size, site });
        id
    }

    /// Record a free on `thread`.
    pub fn free(&mut self, thread: usize, id: u32) {
        self.trace.streams[thread].push(TraceOp::Free { id });
    }

    /// Record a cross-thread handoff.
    pub fn send(&mut self, from: usize, id: u32, to: usize) {
        self.trace.streams[from].push(TraceOp::Send { id, to: to as u16 });
    }

    /// Record local work.
    pub fn work(&mut self, thread: usize, units: u32) {
        self.trace.streams[thread].push(TraceOp::Work { units });
    }

    /// Finish, validating the trace.
    ///
    /// # Errors
    ///
    /// Propagates [`Trace::validate`] failures.
    pub fn finish(self) -> Result<Trace, String> {
        self.trace.validate()?;
        Ok(self.trace)
    }
}

/// Parameters for [`synthesize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthesisParams {
    /// Threads in the trace.
    pub threads: usize,
    /// Allocation events per thread.
    pub allocs_per_thread: usize,
    /// Size range (inclusive).
    pub min_size: u32,
    /// Size range (inclusive).
    pub max_size: u32,
    /// Live objects a thread keeps before freeing the oldest.
    pub working_set: usize,
    /// Per-mille of frees routed through another thread (remote frees).
    pub remote_free_permille: u32,
    /// Compute units between operations.
    pub work_between: u32,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SynthesisParams {
    fn default() -> Self {
        SynthesisParams {
            threads: 4,
            allocs_per_thread: 2_000,
            min_size: 8,
            max_size: 512,
            working_set: 64,
            remote_free_permille: 100,
            work_between: 20,
            seed: 0x7ACE,
        }
    }
}

/// Generate a random (but reproducible) trace.
pub fn synthesize(params: &SynthesisParams) -> Trace {
    let mut b = TraceBuilder::new(params.threads);
    for t in 0..params.threads {
        let mut rng = Rng::new(params.seed, t);
        let mut live: Vec<u32> = Vec::new();
        for _ in 0..params.allocs_per_thread {
            let size = rng.range(params.min_size as usize, params.max_size as usize) as u32;
            let id = b.alloc(t, size);
            live.push(id);
            b.work(t, params.work_between);
            if live.len() > params.working_set {
                let victim = live.remove(rng.range(0, live.len() - 1));
                if params.threads > 1
                    && rng.range(0, 999) < params.remote_free_permille as usize
                {
                    // Bleed to a random other thread, which frees it.
                    let mut to = rng.range(0, params.threads - 2);
                    if to >= t {
                        to += 1;
                    }
                    b.send(t, victim, to);
                    b.free(to, victim);
                } else {
                    b.free(t, victim);
                }
            }
        }
        for id in live {
            b.free(t, id);
        }
    }
    b.finish().expect("synthesized traces are well-formed")
}

/// Replay a trace against `alloc` **deterministically**: a sequential
/// discrete-event engine drives every virtual processor from one real
/// thread, executing the runnable stream with the smallest virtual
/// clock (ties broken by processor id) one event at a time.
///
/// Because execution order is a pure function of the trace and the cost
/// model — host thread scheduling never enters — replaying the same
/// trace twice on the same allocator configuration yields
/// **byte-identical** results: the makespan, every per-processor clock,
/// and the allocator's entire metrics state. This is the property the
/// `.trc` pipeline's CI determinism gate checks.
///
/// Semantics mirror [`replay_concurrent`]: per-thread program order is
/// preserved, virtual lock serialization and cache-line transfer
/// charges apply identically, and a cross-thread free cannot execute
/// before (in virtual time) its `Send` plus the channel-transfer cost.
/// Sent objects are delivered lazily — a stream whose next event is a
/// `Free` of an object still in flight simply is not runnable until the
/// sender catches up.
///
/// # Panics
///
/// Panics if the trace deadlocks (a `Free` waits for a `Send` that
/// never executes); [`Trace::validate`]d traces cannot.
pub fn replay(alloc: &dyn MtAllocator, trace: &Trace) -> WorkloadResult {
    hoard_sim::reset_cache();
    let threads = trace.threads().max(1);
    let meter = LiveMeter::new();
    let transfer_cost = hoard_sim::CostModel::current().channel_transfer;
    let (streams, objects) = dense_streams(trace);

    let clocks = hoard_sim::sequential_scope(threads, || {
        let mut clocks: Vec<u64> = vec![0; threads];
        let mut pcs: Vec<usize> = vec![0; threads];
        // Every live object, by id: who holds it and, for one that was
        // sent and not yet picked up, when it arrives.
        let mut table: Vec<Option<Held>> = vec![None; objects];

        loop {
            // Pick the runnable stream with the smallest (clock, proc).
            let mut next: Option<usize> = None;
            let mut live_streams = false;
            for p in 0..threads {
                let Some(op) = streams.get(p).and_then(|s| s.get(pcs[p])) else {
                    continue;
                };
                live_streams = true;
                if let TraceOp::Free { id } = *op {
                    let held = matches!(table.get(id as usize), Some(Some(h)) if h.by == p);
                    if !held {
                        continue; // still in flight: blocked
                    }
                }
                if next.is_none_or(|b| clocks[p] < clocks[b]) {
                    next = Some(p);
                }
            }
            let Some(p) = next else {
                assert!(
                    !live_streams,
                    "replay deadlocked: a free waits on a send that never executes"
                );
                break;
            };

            hoard_sim::switch_context(p, clocks[p]);
            match streams[p][pcs[p]] {
                TraceOp::Alloc { id, size, site } => {
                    let obj = Obj::alloc_site(alloc, &meter, size as usize, site);
                    obj.write();
                    table[id as usize] = Some(Held {
                        obj,
                        by: p,
                        arrives: None,
                    });
                }
                TraceOp::Free { id } => {
                    let held = table[id as usize]
                        .take()
                        .expect("runnable free holds its object");
                    if let Some(arrives) = held.arrives {
                        // Picked up from the inbox: the free happens no
                        // earlier than the message's arrival.
                        hoard_sim::set_clock(arrives);
                    }
                    held.obj.free(alloc, &meter);
                }
                TraceOp::Send { id, to } => {
                    assert!((to as usize) < threads, "send to nonexistent thread {to}");
                    // An object still in the inbox is not held yet.
                    let held = table
                        .get_mut(id as usize)
                        .and_then(Option::as_mut)
                        .filter(|h| h.by == p && h.arrives.is_none())
                        .expect("send of object not held");
                    held.by = to as usize;
                    held.arrives = Some(hoard_sim::now() + transfer_cost);
                }
                TraceOp::Work { units } => work(units as u64),
            }
            clocks[p] = hoard_sim::now();
            pcs[p] += 1;
        }

        // Anything still held (sent but never freed by the trace) is
        // freed at exit by its holder, in deterministic (proc, id)
        // order, to keep accounting clean. Dense ids keep the order of
        // the trace's own ids, so one pass over the table sorts them.
        let mut leftovers: Vec<Vec<Held>> = vec![Vec::new(); threads];
        for held in table.into_iter().flatten() {
            leftovers[held.by].push(held);
        }
        for (p, held) in leftovers.into_iter().enumerate() {
            let arrived = held.iter().filter_map(|h| h.arrives).max();
            clocks[p] = clocks[p].max(arrived.unwrap_or(0));
            hoard_sim::switch_context(p, clocks[p]);
            for h in held {
                h.obj.free(alloc, &meter);
            }
            clocks[p] = hoard_sim::now();
        }
        clocks
    });

    WorkloadResult {
        makespan: clocks.iter().copied().max().unwrap_or(0),
        ops: trace.len() as u64,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report: hoard_sim::RunReport::from_per_processor(clocks),
    }
}

/// A live object in [`replay`]'s table.
#[derive(Clone, Copy)]
struct Held {
    obj: Obj,
    /// The processor that holds it, or whose inbox it is in.
    by: usize,
    /// Virtual arrival time while it sits in `by`'s inbox.
    arrives: Option<u64>,
}

/// The trace's streams with object ids that index a table no longer
/// than the trace has allocations, and that table's length.
///
/// A trace may name its objects by any `u32` (`streams` is public and
/// [`replay`] does not validate), so the largest id alone must never
/// size the table. Ids below the allocation count (every generator's) are
/// used as they are; otherwise ids are renumbered by rank among the
/// allocated ids, which keeps their order. An id that is never allocated
/// maps past the table, where nothing is ever held.
fn dense_streams(trace: &Trace) -> (Cow<'_, [Vec<TraceOp>]>, usize) {
    let allocated = || {
        trace.streams.iter().flatten().filter_map(|op| match *op {
            TraceOp::Alloc { id, .. } => Some(id),
            _ => None,
        })
    };
    // `span`: one past the largest allocated id.
    let (span, allocs) = allocated().fold((0, 0), |(span, allocs), id| {
        (span.max(id as usize + 1), allocs + 1)
    });
    if span <= allocs {
        return (Cow::Borrowed(&trace.streams), span);
    }
    let mut ids: Vec<u32> = allocated().collect();
    ids.sort_unstable();
    ids.dedup();
    let rank = |id: u32| ids.binary_search(&id).map_or(u32::MAX, |i| i as u32);
    let streams = trace
        .streams
        .iter()
        .map(|stream| {
            stream
                .iter()
                .map(|op| match *op {
                    TraceOp::Alloc { id, size, site } => TraceOp::Alloc {
                        id: rank(id),
                        size,
                        site,
                    },
                    TraceOp::Free { id } => TraceOp::Free { id: rank(id) },
                    TraceOp::Send { id, to } => TraceOp::Send { id: rank(id), to },
                    work @ TraceOp::Work { .. } => work,
                })
                .collect()
        })
        .collect();
    (Cow::Owned(streams), ids.len())
}

/// Replay a trace against `alloc` on the simulated machine with **real
/// concurrency**: one OS thread per virtual processor, exercising the
/// allocator's actual lock and atomic paths under genuine interleaving.
///
/// Use this to stress-test correctness; use [`replay`] when results
/// must be reproducible (virtual timings here vary slightly run to run
/// because host scheduling resolves virtual-time ties).
///
/// Cross-thread frees are delivered through sim channels (the receiving
/// thread polls its mailbox between events), so remote frees really are
/// performed by the remote thread, as in the Larson benchmark.
pub fn replay_concurrent(alloc: &dyn MtAllocator, trace: &Trace) -> WorkloadResult {
    hoard_sim::reset_cache();
    let threads = trace.threads().max(1);
    let meter = LiveMeter::new();

    // Mailbox per thread for (id -> Obj) handoffs.
    let mut senders: Vec<VSender<(u32, Obj)>> = Vec::new();
    let mut receivers: Vec<Option<VReceiver<(u32, Obj)>>> = Vec::new();
    for _ in 0..threads {
        let (tx, rx) = vchannel();
        senders.push(tx);
        receivers.push(Some(rx));
    }
    let receivers = Mutex::new(receivers);
    let ops_total: u64 = trace.len() as u64;

    let report = Machine::new(threads).run(|proc| {
        let meter = &meter;
        let senders: Vec<VSender<(u32, Obj)>> = senders.clone();
        let rx = receivers.lock().expect("receivers")[proc]
            .take()
            .expect("receiver taken once");
        let stream: Vec<TraceOp> = trace.streams.get(proc).cloned().unwrap_or_default();
        move || {
            let mut objects: HashMap<u32, Obj> = HashMap::new();
            let drain_mailbox = |objects: &mut HashMap<u32, Obj>| {
                while let Ok(Some((id, obj))) = rx.try_recv() {
                    objects.insert(id, obj);
                }
            };
            for op in &stream {
                drain_mailbox(&mut objects);
                match *op {
                    TraceOp::Alloc { id, size, site } => {
                        let obj = Obj::alloc_site(alloc, meter, size as usize, site);
                        obj.write();
                        objects.insert(id, obj);
                    }
                    TraceOp::Free { id } => {
                        // The object may still be in transit; wait for it.
                        let obj = loop {
                            if let Some(obj) = objects.remove(&id) {
                                break obj;
                            }
                            match rx.recv() {
                                Ok((got, obj)) => {
                                    objects.insert(got, obj);
                                }
                                Err(_) => panic!("object {id} never arrived"),
                            }
                        };
                        obj.free(alloc, meter);
                    }
                    TraceOp::Send { id, to } => {
                        let obj = objects.remove(&id).expect("send of object not held");
                        senders[to as usize]
                            .send((id, obj))
                            .expect("receiver alive");
                    }
                    TraceOp::Work { units } => work(units as u64),
                }
            }
            // Anything still held (sent here but never freed by the
            // trace) is freed at exit to keep accounting clean.
            drain_mailbox(&mut objects);
            for (_, obj) in objects.drain() {
                obj.free(alloc, meter);
            }
        }
    });

    WorkloadResult {
        makespan: report.makespan(),
        ops: ops_total,
        max_live_requested: meter.peak(),
        snapshot: alloc.stats(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_core::HoardAllocator;

    /// An untagged allocation, for the `Trace { streams }` literals below.
    fn alloc(id: u32, size: u32) -> TraceOp {
        TraceOp::Alloc { id, size, site: 0 }
    }

    #[test]
    fn builder_validate_roundtrip() {
        let mut b = TraceBuilder::new(2);
        let a = b.alloc(0, 64);
        let c = b.alloc(0, 128);
        b.work(0, 10);
        b.send(0, a, 1);
        b.free(1, a);
        b.free(0, c);
        let trace = b.finish().expect("valid");
        assert_eq!(trace.threads(), 2);
        assert_eq!(trace.len(), 6);
    }

    #[test]
    fn validation_catches_errors() {
        // Double free.
        let mut b = TraceBuilder::new(1);
        let a = b.alloc(0, 8);
        b.free(0, a);
        b.free(0, a);
        assert!(b.finish().unwrap_err().contains("freed 2 times"));
        // Leak.
        let mut b = TraceBuilder::new(1);
        b.alloc(0, 8);
        assert!(b.finish().unwrap_err().contains("never freed"));
        // Unknown free.
        let t = Trace {
            streams: vec![vec![TraceOp::Free { id: 7 }]],
        };
        assert!(t.validate().unwrap_err().contains("unknown object"));
    }

    #[test]
    fn text_dump_is_one_line_per_event() {
        let t = Trace {
            streams: vec![
                vec![
                    alloc(0, 8),
                    TraceOp::Alloc { id: 1, size: 128, site: 7 },
                    TraceOp::Work { units: 40 },
                    TraceOp::Send { id: 0, to: 1 },
                    TraceOp::Free { id: 1 },
                ],
                vec![TraceOp::Free { id: 0 }],
            ],
        };
        assert_eq!(t.to_text(), "t0 a 0 8\nt0 a 1 128 7\nt0 w 40\nt0 s 0 1\nt0 f 1\nt1 f 0\n");
    }

    #[test]
    fn synthesized_traces_validate_and_replay() {
        let trace = synthesize(&SynthesisParams {
            threads: 3,
            allocs_per_thread: 300,
            remote_free_permille: 200,
            ..Default::default()
        });
        trace.validate().expect("well-formed");
        let h = HoardAllocator::new_default();
        let result = replay(&h, &trace);
        assert_eq!(result.snapshot.live_current, 0, "replay returns all memory");
        assert!(result.snapshot.remote_frees > 0, "remote frees were exercised");
        assert!(result.makespan > 0);
    }

    #[test]
    fn replay_is_deterministic_across_threads() {
        // The sequential engine must be bit-deterministic even for
        // multi-threaded traces with cross-thread frees — the property
        // the .trc pipeline's CI gate relies on.
        let trace = synthesize(&SynthesisParams {
            threads: 4,
            allocs_per_thread: 500,
            remote_free_permille: 250,
            ..Default::default()
        });
        let a = replay(&HoardAllocator::new_default(), &trace);
        let b = replay(&HoardAllocator::new_default(), &trace);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.report.per_processor(), b.report.per_processor());
        assert_eq!(a.max_live_requested, b.max_live_requested);
        assert_eq!(a.snapshot, b.snapshot);
    }

    #[test]
    fn concurrent_replay_agrees_with_deterministic_on_counts() {
        let trace = synthesize(&SynthesisParams {
            threads: 3,
            allocs_per_thread: 300,
            remote_free_permille: 150,
            ..Default::default()
        });
        let seq = replay(&HoardAllocator::new_default(), &trace);
        let conc = replay_concurrent(&HoardAllocator::new_default(), &trace);
        // Interleaving-independent accounting must agree exactly; only
        // timing-dependent quantities (makespan, peaks) may differ.
        assert_eq!(seq.snapshot.allocs, conc.snapshot.allocs);
        assert_eq!(seq.snapshot.frees, conc.snapshot.frees);
        assert_eq!(seq.snapshot.live_current, 0);
        assert_eq!(conc.snapshot.live_current, 0);
    }

    #[test]
    fn replay_table_is_sized_by_the_trace_not_by_its_largest_id() {
        // `streams` takes any u32 as an id and `replay` does not
        // validate: a table of `max id + 1` entries would be ~100 GB.
        let with_ids = |a: u32, b: u32| Trace {
            streams: vec![
                vec![
                    alloc(a, 64),
                    alloc(b, 128),
                    TraceOp::Work { units: 10 },
                    TraceOp::Send { id: a, to: 1 },
                    TraceOp::Free { id: b },
                ],
                vec![TraceOp::Free { id: a }],
            ],
        };
        let sparse = with_ids(u32::MAX - 1, 7);
        let (streams, objects) = dense_streams(&sparse);
        assert_eq!(objects, 2);
        assert_eq!(streams[1], [TraceOp::Free { id: 1 }], "rank keeps id order");

        // Same trace with the ids a generator would have given.
        let dense = with_ids(1, 0);
        assert!(matches!(dense_streams(&dense), (Cow::Borrowed(_), 2)));
        let a = replay(&HoardAllocator::new_default(), &sparse);
        let b = replay(&HoardAllocator::new_default(), &dense);
        assert_eq!(a.snapshot.live_current, 0);
        assert_eq!((a.snapshot.allocs, a.snapshot.frees), (2, 2));
        assert_eq!(a.report.per_processor(), b.report.per_processor());
    }

    #[test]
    #[should_panic(expected = "replay deadlocked")]
    fn free_of_an_object_never_sent_deadlocks_loudly() {
        // Object 0 stays with thread 0; object 9 is never allocated.
        let t = Trace {
            streams: vec![
                vec![alloc(0, 8), TraceOp::Free { id: 9 }],
                vec![TraceOp::Free { id: 0 }],
            ],
        };
        replay(&HoardAllocator::new_default(), &t);
    }

    #[test]
    #[should_panic(expected = "send of object not held")]
    fn send_of_an_object_still_in_the_inbox_is_rejected() {
        // Thread 1 forwards object 0 without ever picking it up.
        let t = Trace {
            streams: vec![
                vec![alloc(0, 8), TraceOp::Send { id: 0, to: 1 }],
                vec![TraceOp::Work { units: 5000 }, TraceOp::Send { id: 0, to: 0 }],
            ],
        };
        replay(&HoardAllocator::new_default(), &t);
    }

    #[test]
    fn replay_runs_on_every_allocator() {
        let trace = synthesize(&SynthesisParams {
            threads: 2,
            allocs_per_thread: 200,
            ..Default::default()
        });
        let allocators: Vec<Box<dyn MtAllocator>> = vec![
            Box::new(HoardAllocator::new_default()),
            Box::new(hoard_baselines::SerialAllocator::new()),
            Box::new(hoard_baselines::PurePrivateAllocator::new()),
            Box::new(hoard_baselines::OwnershipAllocator::new()),
            Box::new(hoard_baselines::MtLikeAllocator::new()),
        ];
        for a in allocators {
            let r = replay(&*a, &trace);
            assert_eq!(r.snapshot.live_current, 0, "{} leaked", a.name());
        }
    }
}
