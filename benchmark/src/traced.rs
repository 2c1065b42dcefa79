//! The traced run: the same trace with the instruments attached.
//!
//! A `MetricsRegistry` on the allocator, a timing `ChunkSource` under
//! it, the allocator's own `AllocSnapshot`, and forced-path probes give
//! one number per layer; spans around every call into a layer are kept
//! in memory and written with those numbers when the run ends. Nothing
//! here feeds an end-to-end metric.

use crate::common::{
    checked_replay, median, run_flat, Attempts, Checks, Config, Heap, HostSpeed, Inputs, CONFIGS,
};
use crate::workloads::{Workload, PROCS};
use crate::Outcome;
use hoard_baselines::{OwnershipAllocator, SerialAllocator};
use hoard_core::HoardAllocator;
use hoard_mem::{ChunkSource, MtAllocator, SourceStats, SystemSource};
use hoard_sim::VLock;
use hoard_trace::TrcTrace;
use hoard_workloads::trace::replay;
use std::alloc::Layout;
use std::hint::black_box;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Share of `--seconds` spent alternating traced and untraced replays.
const OVERHEAD_SHARE: f64 = 0.5;
/// Fewest replays on each side of the overhead comparison.
const MIN_OVERHEAD_REPS: usize = 5;
/// Timed batches per probe; the probe reports their median.
const PROBE_BATCHES: usize = 7;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Spans of this run, kept in memory until it ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a top-level span named `name`; returns the span's
    /// index, its duration and `f`'s result.
    fn scope<T>(&mut self, name: String, f: impl FnOnce() -> T) -> (usize, Duration, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
        });
        (
            self.spans.len() - 1,
            Duration::from_nanos(end_ns - start_ns),
            out,
        )
    }

    /// File the chunk-source calls made inside span `parent`.
    fn adopt(&mut self, parent: usize, source: &TimingSource) {
        for (is_alloc, start_ns, end_ns) in source.take_events() {
            self.spans.push(Span {
                name: if is_alloc {
                    "chunk.alloc"
                } else {
                    "chunk.free"
                }
                .to_string(),
                start_ns,
                end_ns,
                parent: Some(parent),
            });
        }
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n    {}\n  ]", rows.join(",\n    "))
    }
}

/// `SystemSource` with a stopwatch round every call.
struct TimingSource {
    inner: SystemSource,
    epoch: Instant,
    host_ns: AtomicU64,
    /// (is_alloc, start_ns, end_ns) since the last `take_events`.
    events: Mutex<Vec<(bool, u64, u64)>>,
}

impl TimingSource {
    fn new(epoch: Instant) -> Self {
        TimingSource {
            inner: SystemSource::new(),
            epoch,
            host_ns: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    fn timed<T>(&self, is_alloc: bool, f: impl FnOnce() -> T) -> T {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.host_ns.fetch_add(end - start, Ordering::Relaxed);
        self.events
            .lock()
            .expect("no panic while the event list is locked")
            .push((is_alloc, start, end));
        out
    }

    fn take_events(&self) -> Vec<(bool, u64, u64)> {
        std::mem::take(&mut *self.events.lock().expect("as above"))
    }
}

// SAFETY: every chunk comes from and goes back to the wrapped
// `SystemSource`, whose guarantees carry over unchanged.
unsafe impl ChunkSource for TimingSource {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        self.timed(true, || self.inner.alloc_chunk(layout))
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        self.timed(false, || self.inner.free_chunk(ptr, layout));
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

/// An allocator with the registry attached and the timing source under it.
fn instrumented(c: Config, epoch: Instant) -> Box<HoardAllocator<TimingSource>> {
    let alloc = Box::new(
        HoardAllocator::with_source(c.hoard_config(), TimingSource::new(epoch))
            .expect("stock config is valid"),
    );
    alloc.attach_metrics(Arc::new(alloc.new_metrics_registry()));
    alloc
}

/// Median over `PROBE_BATCHES` batches of ns per call of `f`, which is
/// called `calls` times per batch, inside a span `probe.<metric>`.
fn probe(spans: &mut Spans, metric: &str, calls: usize, mut f: impl FnMut()) -> f64 {
    let (_, _, per_call) = spans.scope(format!("probe.{metric}"), || {
        let mut per_call = Vec::new();
        for _ in 0..PROBE_BATCHES {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
        }
        per_call
    });
    median(&per_call)
}

/// A warm alloc+free pair of `size` bytes on one processor.
fn pair_probe<H: Heap>(
    spans: &mut Spans,
    out: &mut Outcome,
    metric: &str,
    heap: &H,
    size: usize,
    calls: usize,
    attempts: &mut Attempts,
) {
    let caller = hoard_sim::switch_context(0, 0);
    let mut failed = 0u64;
    let ns = probe(spans, metric, calls, || {
        // SAFETY: the block is freed once, with its size, and not used after.
        unsafe {
            let p = heap.get(size);
            if p.is_null() {
                failed += 1;
            } else {
                p.write_volatile(1);
                heap.put(black_box(p), size);
            }
        }
    });
    hoard_sim::switch_context(caller.0, caller.1);
    out.metric(metric, ns);
    attempts.attempted += (calls * PROBE_BATCHES) as u64;
    attempts.failed += failed;
}

/// ns per free when processor 1 frees what processor 0 allocated.
fn remote_free_probe(spans: &mut Spans, out: &mut Outcome, c: Config, attempts: &mut Attempts) {
    const BATCH: usize = 256;
    const ROUNDS: usize = 60;
    let heap = c.fresh();
    let caller = hoard_sim::switch_context(0, 0);
    let mut ptrs = [std::ptr::null_mut::<u8>(); BATCH];
    let metric = format!("core.remote.probe_free_ns.{}", c.name());
    let (_, _, per_free) = spans.scope(format!("probe.{metric}"), || {
        let mut per_free = Vec::new();
        for _ in 0..PROBE_BATCHES {
            let mut spent = Duration::ZERO;
            for _ in 0..ROUNDS {
                hoard_sim::switch_context(0, 0);
                for p in ptrs.iter_mut() {
                    // SAFETY: nonzero size.
                    *p = unsafe { heap.get(64) };
                    attempts.attempted += 1;
                    attempts.failed += u64::from(p.is_null());
                }
                hoard_sim::switch_context(1, 0);
                let t = Instant::now();
                for p in ptrs.iter().filter(|p| !p.is_null()) {
                    // SAFETY: allocated above with this size, freed once.
                    unsafe { heap.put(*p, 64) };
                }
                spent += t.elapsed();
            }
            per_free.push(spent.as_nanos() as f64 / (BATCH * ROUNDS) as f64);
        }
        per_free
    });
    hoard_sim::switch_context(caller.0, caller.1);
    out.metric(&metric, median(&per_free));
}

fn layer_counts(
    out: &mut Outcome,
    c: Config,
    alloc: &HoardAllocator<TimingSource>,
    checks: &mut Checks,
) {
    let n = c.name();
    let s = alloc.stats();
    let m = s.magazines;
    let mut counts = vec![
        ("core.magazine.alloc_hits", m.alloc_hits),
        ("core.magazine.free_hits", m.free_hits),
        ("core.magazine.refills", m.refills),
        ("core.magazine.flushes", m.flushes),
        ("core.remote.remote_frees", s.remote_frees),
        ("core.remote.pushes", m.remote_pushes),
        ("core.remote.drains", m.remote_drains),
        ("core.remote.owner_retries", m.free_owner_retries),
        ("core.global.transfers_out", s.transfers_to_global),
        ("core.global.transfers_in", s.transfers_from_global),
    ];
    out.metric(
        &format!("core.magazine.hit_ratio.{n}"),
        (m.alloc_hits + m.free_hits) as f64 / (s.allocs + s.frees) as f64,
    );

    match alloc.metrics_snapshot() {
        Some(snap) => {
            let sum = |global: bool, f: fn(&hoard_trace::HeapMetrics) -> u64| -> u64 {
                let heaps = snap.heaps.iter().filter(|h| (h.heap == 0) == global);
                heaps.map(f).sum()
            };
            counts.extend([
                ("core.heap.lock_acquires", sum(false, |h| h.lock_acquires)),
                ("core.heap.lock_contended", sum(false, |h| h.lock_contended)),
                (
                    "core.heap.lock_wait_vunits",
                    sum(false, |h| h.lock_wait_units),
                ),
                (
                    "core.heap.lock_hold_vunits",
                    sum(false, |h| h.lock_hold_units),
                ),
                ("core.global.lock_acquires", sum(true, |h| h.lock_acquires)),
                (
                    "core.global.lock_wait_vunits",
                    sum(true, |h| h.lock_wait_units),
                ),
            ]);
        }
        None => checks
            .failures
            .push(format!("{n}: the attached registry gave no snapshot")),
    }

    let src = alloc.source();
    let stats = src.stats();
    counts.extend([
        ("mem.chunk.allocs", stats.chunk_allocs),
        ("mem.chunk.frees", stats.chunk_frees),
        ("mem.chunk.held_peak_bytes", stats.held_peak),
        (
            "mem.chunk.host_ns_total",
            src.host_ns.load(Ordering::Relaxed),
        ),
    ]);
    for (stem, value) in counts {
        out.metric(&format!("{stem}.{n}"), value as f64);
    }
}

/// What each workload is built to exercise, and to leave alone.
fn purity(workload: Workload, out: &Outcome, inputs: &Inputs, checks: &mut Checks) {
    let value = |name: String| out.value(&name).unwrap_or(f64::NAN);
    for c in CONFIGS {
        let n = c.name();
        match workload {
            Workload::ChurnLocal => {
                let t = value(format!("core.global.transfers_out.{n}"));
                let r = value(format!("core.remote.remote_frees.{n}"));
                // Plain hoard gives one superblock per heap back when the
                // residents go, at the very end; nothing moves before.
                let teardown = if c == Config::Hoard {
                    PROCS as f64
                } else {
                    0.0
                };
                checks.require(t <= teardown && r == 0.0, || {
                    format!("churn-local {n}: {t} transfers out (want <= {teardown}), {r} remote frees (want 0)")
                });
            }
            Workload::ProdconsDrift => {
                let r = value(format!("core.remote.remote_frees.{n}"));
                checks.require(r == inputs.totals.allocs as f64, || {
                    format!(
                        "prodcons-drift {n}: {r} remote frees of {} frees",
                        inputs.totals.allocs
                    )
                });
            }
            Workload::PhaseLarge | Workload::ServerBleed => {}
        }
    }
    if workload == Workload::PhaseLarge {
        let hits = value("core.magazine.alloc_hits.hoard_mag".to_string());
        checks.require(hits == 0.0, || {
            format!("phase-large: {hits} magazine hits, want none")
        });
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, out_dir: &str) -> Outcome {
    let mut checks = Checks::default();
    let mut attempts = Attempts::default();
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let epoch = spans.epoch;
    // Per-layer host times are printed as timed; the note says how fast
    // the host was, for a reader comparing two runs.
    let host = HostSpeed::new();
    let slowness_at_start = host.around(|| ()).1;

    let (_, _, generated) = spans.scope("setup.generate".to_string(), || workload.generate(seed));
    let (_, _, inputs) = spans.scope("setup.flatten".to_string(), || Inputs::derive(generated));
    let allocs = inputs.totals.allocs;
    let records = inputs.p8.len() as f64;
    out.note(format!("sizes: {}", workload.sizes()));
    out.metric("mem.large.allocs", inputs.totals.large as f64);

    // One traced and one plain replay per configuration.
    let mut vtime_delta = 0u64;
    for c in CONFIGS {
        let alloc = instrumented(c, epoch);
        let what = format!("{} P=8 traced", c.name());
        let (id, _, traced) = spans.scope(format!("replay.{}.p8", c.name()), || {
            checked_replay(
                &*alloc,
                &inputs.p8,
                &what,
                allocs,
                &mut attempts,
                &mut checks,
            )
        });
        spans.adopt(id, alloc.source());
        layer_counts(&mut out, c, &alloc, &mut checks);

        let plain_alloc = c.fresh();
        let t = Instant::now();
        let plain = checked_replay(
            &*plain_alloc,
            &inputs.p8,
            &format!("{} P=8", c.name()),
            allocs,
            &mut attempts,
            &mut checks,
        );
        let plain_ns = t.elapsed().as_nanos() as f64;
        vtime_delta = vtime_delta.max(traced.makespan.abs_diff(plain.makespan));
        out.metric(
            &format!("workloads.replay.host_ns_per_record.{}", c.name()),
            plain_ns / records,
        );
    }
    out.metric("trace.metrics.vtime_delta_units", vtime_delta as f64);
    checks.require(vtime_delta == 0, || {
        format!("attaching the registry moved virtual time by {vtime_delta} units")
    });
    purity(workload, &out, &inputs, &mut checks);

    // Tracing overhead in host time: hoard_mag, the two sides in turn.
    let budget = Duration::from_secs_f64(seconds * OVERHEAD_SHARE);
    let phase = Instant::now();
    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    while plain_ns.len() < MIN_OVERHEAD_REPS || phase.elapsed() < budget {
        let alloc = Config::HoardMag.fresh();
        let t = Instant::now();
        replay(&*alloc, &inputs.p8);
        plain_ns.push(t.elapsed().as_nanos() as f64);
        let alloc = instrumented(Config::HoardMag, epoch);
        let t = Instant::now();
        replay(&*alloc, &inputs.p8);
        traced_ns.push(t.elapsed().as_nanos() as f64);
        attempts.attempted += 2 * allocs;
    }
    let (plain_med, traced_med) = (median(&plain_ns), median(&traced_ns));
    out.metric(
        "trace.metrics.host_overhead_pct",
        (traced_med - plain_med) / plain_med * 100.0,
    );
    out.note(format!(
        "trace.metrics.host_overhead_pct: n={} per side, plain {plain_med:.0} ns, traced {traced_med:.0} ns",
        plain_ns.len()
    ));

    // One pass of the flat trace under the instruments, for its spans.
    for c in CONFIGS {
        for rep in 0..2 {
            let alloc = instrumented(c, epoch);
            let (id, _, _) = spans.scope(format!("wall.{}.rep{rep}", c.name()), || {
                run_flat(&*alloc, &inputs.flat, 1, false, &mut attempts, &mut checks)
            });
            spans.adopt(id, alloc.source());
        }
    }

    // Reference points no hoard change may move.
    let t = Instant::now();
    let serial8 = checked_replay(
        &SerialAllocator::new(),
        &inputs.p8,
        "serial P=8",
        allocs,
        &mut attempts,
        &mut checks,
    );
    let serial_ns = t.elapsed().as_nanos() as f64;
    let serial1 = checked_replay(
        &SerialAllocator::new(),
        &inputs.p1,
        "serial P=1",
        allocs,
        &mut attempts,
        &mut checks,
    );
    let owner8 = checked_replay(
        &OwnershipAllocator::new(),
        &inputs.p8,
        "ownership P=8",
        allocs,
        &mut attempts,
        &mut checks,
    );
    out.metric(
        "workloads.replay.host_ns_per_record.serial",
        serial_ns / records,
    );
    out.metric("baselines.vtime_p8.serial", serial8.makespan as f64);
    out.metric("baselines.vtime_p1.serial", serial1.makespan as f64);
    out.metric("baselines.vtime_p8.ownership", owner8.makespan as f64);
    out.metric(
        "baselines.frag_p8.ownership",
        owner8.fragmentation().unwrap_or(f64::NAN),
    );
    let loops = workload.wall_loops();
    let calls = (inputs.flat.len() * loops) as f64;
    let serial_wall: Vec<f64> = (0..5)
        .map(|rep| {
            let alloc = SerialAllocator::new();
            let (_, dt, _) = spans.scope(format!("wall.serial.rep{rep}"), || {
                run_flat(
                    &alloc,
                    &inputs.flat,
                    loops,
                    false,
                    &mut attempts,
                    &mut checks,
                )
            });
            dt.as_nanos() as f64 / calls
        })
        .collect();
    out.metric("baselines.wall_ns_per_op.serial", median(&serial_wall));

    // Forced-path probes.
    pair_probe(
        &mut spans,
        &mut out,
        "core.heap.probe_pair_ns",
        &*Config::Hoard.fresh(),
        64,
        100_000,
        &mut attempts,
    );
    pair_probe(
        &mut spans,
        &mut out,
        "core.magazine.probe_pair_ns",
        &*Config::HoardMag.fresh(),
        64,
        100_000,
        &mut attempts,
    );
    for c in CONFIGS {
        remote_free_probe(&mut spans, &mut out, c, &mut attempts);
        pair_probe(
            &mut spans,
            &mut out,
            &format!("mem.large.probe_pair_ns.{}", c.name()),
            &*c.fresh(),
            64 * 1024,
            2_000,
            &mut attempts,
        );
    }
    let superblock = Config::Hoard.hoard_config().superblock_size;
    let chunk = Layout::from_size_align(superblock, superblock).expect("power of two");
    let source = SystemSource::new();
    let ns = probe(&mut spans, "mem.chunk.probe_ns_per_chunk", 5_000, || {
        // SAFETY: nonzero layout; the chunk goes straight back with it.
        unsafe {
            if let Some(p) = source.alloc_chunk(chunk) {
                source.free_chunk(black_box(p), chunk);
            }
        }
    });
    out.metric("mem.chunk.probe_ns_per_chunk", ns);
    let ns = probe(&mut spans, "sim.charge_ns", 2_000_000, || {
        hoard_sim::work(black_box(1));
    });
    out.metric("sim.charge_ns", ns);
    let lock = VLock::new();
    let ns = probe(&mut spans, "sim.vlock_ns", 500_000, || {
        drop(black_box(lock.lock()));
    });
    out.metric("sim.vlock_ns", ns);
    const LINES: usize = 64;
    let mut buffer = vec![0u8; LINES * 64];
    hoard_sim::reset_cache();
    let ns = probe(&mut spans, "sim.touch_ns_per_line", 20_000, || {
        // SAFETY: the buffer is live and writable for its whole length.
        unsafe { hoard_sim::touch(buffer.as_mut_ptr(), buffer.len(), true) };
    });
    out.metric("sim.touch_ns_per_line", ns / LINES as f64);

    // The `.trc` codec on this workload's own trace.
    let trc = inputs.p8.to_trc(seed, workload.name());
    let (_, _, (bytes, encode_s)) = spans.scope("probe.trace.trc.encode".to_string(), || {
        let mut times = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            bytes = black_box(trc.encode());
            times.push(t.elapsed().as_secs_f64());
        }
        (bytes, median(&times))
    });
    let (_, _, (decoded, decode_s)) = spans.scope("probe.trace.trc.decode".to_string(), || {
        let mut times = Vec::new();
        let mut decoded = None;
        for _ in 0..3 {
            let t = Instant::now();
            decoded = black_box(TrcTrace::decode(&bytes).ok());
            times.push(t.elapsed().as_secs_f64());
        }
        (decoded, median(&times))
    });
    checks.require(decoded.as_ref() == Some(&trc), || {
        "the .trc codec did not round-trip the trace".to_string()
    });
    let mb = bytes.len() as f64 / 1e6;
    out.metric("trace.trc.encode_mb_per_s", mb / encode_s);
    out.metric("trace.trc.decode_mb_per_s", mb / decode_s);

    out.note(format!(
        "host slowness {slowness_at_start:.3} at the start, {:.3} at the end (1.0 = reference)",
        host.around(|| ()).1
    ));

    // Spans and numbers leave memory only now.
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\": {}", crate::catalog::number(*v)))
        .collect();
    let doc = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"metrics\": {{\n    {}\n  }},\n  \"spans\": {}\n}}\n",
        workload.name(),
        metrics.join(",\n    "),
        spans.to_json()
    );
    let path = format!("{out_dir}/{}.traced.json", workload.name());
    match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => out.note(format!("{} spans written to {path}", spans.spans.len())),
        Err(e) => checks.failures.push(format!("cannot write {path}: {e}")),
    }

    out.finish(attempts, checks)
}
