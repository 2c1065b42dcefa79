//! Pieces both runs share: the allocator configurations, the prepared
//! inputs, the wall-clock loop over the flat trace, and the checks.

use crate::flat::{flatten, FlatOp};
use crate::workloads::{single_stream, totals, Generated, TraceTotals, PROCS};
use hoard_baselines::SerialAllocator;
use hoard_core::{HoardAllocator, HoardConfig};
use hoard_mem::{ChunkSource, MtAllocator};
use hoard_workloads::trace::Trace;
use hoard_workloads::WorkloadResult;
use std::alloc::{GlobalAlloc, Layout};
use std::ptr::NonNull;
use std::time::{Duration, Instant};

/// The three allocator configurations every metric is reported for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Hoard,
    HoardMag,
    HoardLf,
}

pub const CONFIGS: [Config; 3] = [Config::Hoard, Config::HoardMag, Config::HoardLf];
/// `hoard_mag`'s place in [`CONFIGS`]: the warm-up and the timed replays use it.
pub const MAG: usize = 1;
const _: () = assert!(matches!(CONFIGS[MAG], Config::HoardMag));

impl Config {
    pub fn name(self) -> &'static str {
        match self {
            Config::Hoard => "hoard",
            Config::HoardMag => "hoard_mag",
            Config::HoardLf => "hoard_lf",
        }
    }

    pub fn hoard_config(self) -> HoardConfig {
        match self {
            Config::Hoard => HoardConfig::new(),
            Config::HoardMag => HoardConfig::with_default_magazines(),
            Config::HoardLf => HoardConfig::with_lockfree(),
        }
    }

    /// A fresh allocator, boxed: the value is a few hundred KiB.
    pub fn fresh(self) -> Box<HoardAllocator> {
        Box::new(HoardAllocator::with_config(self.hoard_config()).expect("stock config is valid"))
    }
}

/// Failed checks, collected so one run reports all of them.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Allocations attempted and refused, over the whole run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attempts {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything generated from the seed.
pub struct Inputs {
    pub p8: Trace,
    pub p1: Trace,
    pub flat: Vec<FlatOp>,
    pub totals: TraceTotals,
    /// Peak live requested bytes of the one-stream variant, from the
    /// trace alone.
    pub p1_peak: u64,
}

impl Inputs {
    /// The one-stream and flat forms of a generated trace, and its totals.
    pub fn derive(generated: Generated) -> Inputs {
        let p1 = single_stream(&generated.p8, &generated.order);
        let flat = flatten(&generated.p8);
        let large = HoardConfig::new().large_threshold();
        let p1_peak = totals(&p1, large).sequential_peak;
        Inputs {
            totals: totals(&generated.p8, large),
            p8: generated.p8,
            p1,
            flat,
            p1_peak,
        }
    }
}

/// A fixed piece of work whose time says how fast the host is right now.
///
/// The reference host is a shared VM whose speed steps by up to 30 % for
/// minutes at a time, for all code alike (a loop of thread-local adds
/// slows as much as the allocator does). Every timed region is therefore
/// bracketed by this probe and its time divided by the probe's time over
/// [`HostSpeed::REFERENCE_NS`]: host-time metrics read as the reference
/// host in its usual state would, and the raw medians are printed beside
/// them. The probe depends on nothing in the repo, so no change to the
/// allocator moves it.
pub struct HostSpeed {
    /// One random cycle through 64 Ki entries (256 KiB: second-level cache).
    next: Vec<u32>,
}

impl HostSpeed {
    /// The probe's time on the reference host in its usual state.
    pub const REFERENCE_NS: f64 = 7_000_000.0;
    const STEPS: u64 = 1_500_000;

    pub fn new() -> Self {
        let len = 64 * 1024;
        let mut order: Vec<u32> = (0..len as u32).collect();
        let mut rng = crate::workloads::Rng::new(0x5EED, 0);
        for i in (1..len).rev() {
            order.swap(i, rng.range(0, i as u32) as usize);
        }
        let mut next = vec![0u32; len];
        for k in 0..len {
            next[order[k] as usize] = order[(k + 1) % len];
        }
        HostSpeed { next }
    }

    /// Dependent loads and multiplies, about 7 ms; returns time over reference.
    fn sample(&self) -> f64 {
        let start = Instant::now();
        let (mut i, mut x) = (0u32, 0x9E37_79B9_7F4A_7C15u64);
        for k in 0..Self::STEPS {
            i = self.next[i as usize];
            x = (x ^ (x >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(k ^ u64::from(i));
        }
        std::hint::black_box(x);
        start.elapsed().as_nanos() as f64 / Self::REFERENCE_NS
    }

    /// Run `f` between two samples; returns its result and the host's
    /// slowness over that stretch (1.0 = the reference state).
    pub fn around<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample();
        let out = f();
        (out, (before + self.sample()) / 2.0)
    }
}

/// `malloc`/`free` as the wall-clock loop calls them.
pub trait Heap {
    /// # Safety
    /// `size` is nonzero.
    unsafe fn get(&self, size: usize) -> *mut u8;
    /// # Safety
    /// `ptr` came from `get(size)` on this heap and is not used again.
    unsafe fn put(&self, ptr: *mut u8, size: usize);
}

impl<S: ChunkSource> Heap for HoardAllocator<S> {
    unsafe fn get(&self, size: usize) -> *mut u8 {
        self.alloc(Layout::from_size_align_unchecked(size, 8))
    }
    unsafe fn put(&self, ptr: *mut u8, size: usize) {
        self.dealloc(ptr, Layout::from_size_align_unchecked(size, 8));
    }
}

// The baselines have no `GlobalAlloc` impl; `MtAllocator` is their entry.
impl Heap for SerialAllocator {
    unsafe fn get(&self, size: usize) -> *mut u8 {
        self.allocate(size)
            .map_or(std::ptr::null_mut(), NonNull::as_ptr)
    }
    unsafe fn put(&self, ptr: *mut u8, _size: usize) {
        self.deallocate(NonNull::new_unchecked(ptr));
    }
}

/// Run the flat trace `loops` times through `heap` on this thread,
/// impersonating the issuing processor before each call, and return the
/// time taken. With `verify`, every block is filled with a byte derived
/// from its slot and checked before its free, so overlapping blocks show.
pub fn run_flat<H: Heap>(
    heap: &H,
    flat: &[FlatOp],
    loops: usize,
    verify: bool,
    attempts: &mut Attempts,
    checks: &mut Checks,
) -> Duration {
    let slots = flat
        .iter()
        .map(|op| op.slot as usize + 1)
        .max()
        .unwrap_or(0);
    let mut ptrs: Vec<*mut u8> = vec![std::ptr::null_mut(); slots];
    let mut clocks = [0u64; PROCS];
    let mut failed = 0u64;
    let mut corrupt = 0u64;
    let caller = hoard_sim::switch_context(0, 0);
    let start = Instant::now();
    for _ in 0..loops {
        for op in flat {
            let p = op.proc as usize;
            hoard_sim::switch_context(p, clocks[p]);
            let size = op.size as usize;
            // SAFETY: sizes are nonzero (validated trace); each pointer
            // is freed once, by the op the trace pairs with its alloc,
            // with the size it was allocated with.
            unsafe {
                if op.free {
                    let ptr = std::mem::replace(&mut ptrs[op.slot as usize], std::ptr::null_mut());
                    if !ptr.is_null() {
                        if verify {
                            let block = std::slice::from_raw_parts(ptr, size);
                            corrupt += u64::from(block.iter().any(|&b| b != op.slot as u8));
                        }
                        heap.put(ptr, size);
                    }
                } else {
                    let ptr = heap.get(size);
                    if ptr.is_null() {
                        failed += 1;
                    } else if verify {
                        ptr.write_bytes(op.slot as u8, size);
                    } else {
                        ptr.write_volatile(op.slot as u8);
                    }
                    ptrs[op.slot as usize] = ptr;
                }
            }
            clocks[p] = hoard_sim::now();
        }
    }
    let elapsed = start.elapsed();
    hoard_sim::switch_context(caller.0, caller.1);
    attempts.attempted += (flat.len() / 2 * loops) as u64;
    attempts.failed += failed;
    checks.require(failed == 0, || {
        format!("{failed} allocations returned null")
    });
    checks.require(corrupt == 0, || {
        format!("{corrupt} blocks were overwritten while live")
    });
    elapsed
}

/// Replay `trace` on `alloc` and check the books balance.
pub fn checked_replay(
    alloc: &dyn MtAllocator,
    trace: &Trace,
    what: &str,
    allocs: u64,
    attempts: &mut Attempts,
    checks: &mut Checks,
) -> WorkloadResult {
    // `replay` panics on a refused allocation, so reaching the checks
    // below means every attempt succeeded.
    let r = hoard_workloads::trace::replay(alloc, trace);
    attempts.attempted += allocs;
    let s = &r.snapshot;
    checks.require(s.allocs == allocs && s.frees == allocs, || {
        format!(
            "{what}: allocs {} frees {} want {allocs}",
            s.allocs, s.frees
        )
    });
    checks.require(s.live_current == 0, || {
        format!("{what}: {} bytes live after replay", s.live_current)
    });
    if let Err(e) = s.check_consistency() {
        checks.failures.push(format!("{what}: {e}"));
    }
    r
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(1), q(2), q(3))
}

pub fn median(values: &[f64]) -> f64 {
    if values.len() == 1 {
        values[0]
    } else {
        quartiles(values).1
    }
}
