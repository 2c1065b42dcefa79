//! Property-based verification of the paper's formal claims.
//!
//! * **Emptiness invariant postcondition** — once every superblock has
//!   crossed, each per-processor heap either satisfies
//!   `u ≥ a − K·S ∨ u ≥ (1−f)·a` or holds no empty superblock, and each
//!   of its size classes either satisfies the same over its own
//!   `u_c`/`a_c` or holds no `f`-empty superblock left to migrate.
//! * **Relaxed invariant after any op** — one superblock of slack covers
//!   in-flight `malloc` acquisitions.
//! * **Bounded blowup** — held memory never exceeds a constant factor of
//!   peak live memory plus an `O(P·S)` additive term.
//! * **Memory safety model check** — live blocks never overlap, survive
//!   fill patterns, and are all returned.
//!
//! Each property runs over [`CASES`] generated traces, one per seed; a
//! failure names the seed that reproduces it.

use hoard_core::{debug, Frontend, HardeningLevel, HoardAllocator, HoardConfig, HEAPS};
use hoard_mem::{ChunkSource, MtAllocator, SourceStats, SystemSource};
use hoard_sim::{Column, Cost, CostModel, Rng, Wait};
use hoard_workloads::Program;
use std::alloc::Layout;
use std::ptr::NonNull;
use std::sync::Mutex;

/// Generated cases per property.
const CASES: u64 = 64;

/// A single step in a generated allocation trace.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate this many bytes.
    Alloc(usize),
    /// Free the live block at (index % live-count).
    Free(usize),
}

/// Mostly small sizes, some medium, occasional large; frees pick any
/// live block.
fn gen_op(rng: &mut Rng) -> Op {
    match rng.range(0, 11) {
        0..=3 => Op::Alloc(rng.range(1, 256)),
        4..=5 => Op::Alloc(rng.range(257, 4096)),
        6 => Op::Alloc(rng.range(4097, 20_000)),
        _ => Op::Free(rng.next_u64() as usize),
    }
}

/// A trace of `min..max` ops.
fn gen_ops(rng: &mut Rng, min: usize, max: usize) -> Vec<Op> {
    (0..rng.range(min, max - 1)).map(|_| gen_op(rng)).collect()
}

fn gen_config(rng: &mut Rng) -> HoardConfig {
    let (num, den) = [(1, 8), (1, 4), (1, 2)][rng.range(0, 2)];
    HoardConfig {
        // Both front-ends: the emptiness invariant must stay provable
        // with blocks parked in magazines.
        frontend: [Frontend::Off, Frontend::Magazines][rng.range(0, 1)],
        ..HoardConfig::new()
            .with_superblock_size([4096, 8192, 16384][rng.range(0, 2)])
            .with_empty_fraction(num, den)
            .with_slack(rng.range(0, 4))
    }
}

/// Processors a generated trace takes turns on: one alone, three on
/// three heaps, or three congruent modulo `HEAPS`, which share heap 1.
fn gen_procs(rng: &mut Rng) -> Vec<usize> {
    match rng.range(0, 2) {
        0 => vec![0],
        1 => vec![0, 1, 2],
        _ => vec![0, HEAPS, 2 * HEAPS],
    }
}

/// Run a trace, the ops taking turns on `procs`, checking consistency
/// and the invariant postcondition after every free, and accounting at
/// the end.
fn run_trace(cfg: HoardConfig, procs: &[usize], ops: &[Op]) {
    let h = HoardAllocator::with_config(cfg).expect("valid config");
    let mut live: Vec<(std::ptr::NonNull<u8>, usize, u8)> = Vec::new();
    let mut stamp = 0u8;

    for (i, op) in ops.iter().enumerate() {
        hoard_sim::switch_context(procs[i % procs.len()], 0);
        match op {
            Op::Alloc(size) => {
                stamp = stamp.wrapping_add(1);
                let p = unsafe { h.allocate(*size) }.expect("host memory available");
                unsafe { std::ptr::write_bytes(p.as_ptr(), stamp, *size) };
                // No overlap with any live block.
                let start = p.as_ptr() as usize;
                let end = start + *size;
                for (q, qsize, _) in &live {
                    let qs = q.as_ptr() as usize;
                    let qe = qs + qsize;
                    assert!(end <= qs || qe <= start, "overlapping blocks handed out");
                }
                assert!(unsafe { h.usable_size(p) } >= *size);
                live.push((p, *size, stamp));
            }
            Op::Free(raw) => {
                if live.is_empty() {
                    continue;
                }
                let idx = raw % live.len();
                let (p, size, fill) = live.swap_remove(idx);
                // Pattern must have survived neighbors' traffic.
                for off in 0..size {
                    assert_eq!(
                        unsafe { *p.as_ptr().add(off) },
                        fill,
                        "block corrupted at offset {off}"
                    );
                }
                unsafe { h.deallocate(p) };
                // Structural accounting must scan clean after every free.
                // (The emptiness invariant itself is restored at
                // f-emptiness *crossings*, not on every free — the
                // emptiness-group hysteresis; it is asserted in full at
                // the end of the trace, when every superblock has
                // drained and therefore crossed.)
                let v = debug::validate(&h);
                assert!(v.errors.is_empty(), "{:?}", v.errors);
            }
        }
        // After *any* op the structural accounting must scan clean.
        // (The emptiness invariant itself is a postcondition of `free`
        // only — a `malloc` that just acquired a superblock may leave the
        // heap temporarily violated, exactly as in the paper's
        // pseudocode, until the next free migrates an f-empty
        // superblock.)
        let v = debug::validate(&h);
        assert!(v.errors.is_empty(), "{:?}", v.errors);
    }

    // Drain and check final accounting. With the magazine front-end on,
    // the last frees sit parked in thread-local magazines (still counted
    // in u — they are allocated as far as the heaps are concerned);
    // quiescence asserts require flushing them home first. A no-op when
    // the front-end is disabled.
    for (p, ..) in live.drain(..) {
        unsafe { h.deallocate(p) };
    }
    h.flush_frontend();
    let snap = h.stats();
    assert_eq!(snap.live_current, 0, "all blocks returned");
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    assert_eq!(v.total_u(), 0);
    // With u = 0 everywhere, the emptiness invariant demands that every
    // per-processor heap retain at most K superblocks' worth of usable
    // bytes — the rest must have migrated to the global heap.
    let k_slack = (cfg.slack_k * cfg.superblock_size) as u64;
    for obs in v.heaps.iter().skip(1) {
        assert!(
            obs.a <= k_slack,
            "heap {} retains a={} > K*S={k_slack} at quiescence",
            obs.index,
            obs.a
        );
    }
}

#[test]
fn trace_preserves_invariants_default_config() {
    Rng::for_each_case(CASES, |rng| {
        run_trace(HoardConfig::new(), &[0], &gen_ops(rng, 1, 400));
    });
}

#[test]
fn trace_preserves_invariants_random_config() {
    Rng::for_each_case(CASES, |rng| {
        let cfg = gen_config(rng);
        let procs = gen_procs(rng);
        run_trace(cfg, &procs, &gen_ops(rng, 1, 200));
    });
}

#[test]
fn trace_preserves_invariants_with_magazines() {
    Rng::for_each_case(CASES, |rng| {
        run_trace(HoardConfig::with_default_magazines(), &[0], &gen_ops(rng, 1, 400));
    });
}

/// The six configurations there are — two stacks by three hardening
/// levels — each take the same small/large churn from three virtual
/// processors, any of which may free any live block, validated as it
/// goes and once everything is back.
#[test]
fn all_six_configurations_survive_cross_processor_churn() {
    const PROCS: usize = 3;
    let stacks = [HoardConfig::new(), HoardConfig::with_default_magazines()];
    let levels = [HardeningLevel::Off, HardeningLevel::Basic, HardeningLevel::Full];
    Rng::for_each_case(4, |rng| {
        let ops: Vec<(usize, Op)> = (0..rng.range(300, 600))
            .map(|_| (rng.range(0, PROCS - 1), gen_op(rng)))
            .collect();
        for cfg in stacks.iter().flat_map(|s| levels.map(|l| s.with_hardening(l))) {
            let h = HoardAllocator::with_config(cfg).expect("valid config");
            let mut live = Vec::new();
            for (step, (proc, op)) in ops.iter().enumerate() {
                // Mid-run, with blocks in magazines and on deferred
                // stacks: the books must agree with the walk here as well.
                if step % 64 == 0 {
                    let v = debug::validate(&h);
                    assert!(v.is_consistent(), "{cfg:?}, step {step}: {:?}", v.errors);
                }
                hoard_sim::switch_context(*proc, 0);
                match op {
                    Op::Alloc(size) => {
                        let p = unsafe { h.allocate(*size) }.expect("host memory available");
                        unsafe { std::ptr::write_bytes(p.as_ptr(), 0xA5, *size) };
                        live.push(p);
                    }
                    Op::Free(raw) if !live.is_empty() => {
                        let p = live.swap_remove(raw % live.len());
                        unsafe { h.deallocate(p) };
                    }
                    Op::Free(_) => {}
                }
            }
            // A burst of one class too big for the front-end, three
            // quarters freed by its own processor: its heap hands partly
            // used superblocks to the global heap, where the frees of
            // the rest below arrive.
            hoard_sim::switch_context(0, 0);
            let burst: Vec<_> = (0..48)
                .map(|_| unsafe { h.allocate(2000) }.expect("host memory available"))
                .collect();
            for (i, p) in burst.into_iter().enumerate() {
                if i % 4 == 0 {
                    live.push(p);
                } else {
                    unsafe { h.deallocate(p) };
                }
            }
            for (i, p) in live.drain(..).enumerate() {
                hoard_sim::switch_context(i % PROCS, 0);
                unsafe { h.deallocate(p) };
            }
            let v = debug::validate(&h);
            assert!(v.is_consistent(), "{cfg:?}, unflushed: {:?}", v.errors);
            h.flush_frontend();
            let v = debug::validate(&h);
            assert!(v.is_consistent(), "{cfg:?}: {:?}", v.errors);
            let snap = h.stats();
            assert_eq!(snap.live_current, 0, "{cfg:?}");
            assert!(snap.remote_frees > 0, "{cfg:?}: no free crossed processors");
            assert_eq!(h.corruption_log().total(), 0, "{cfg:?}");
        }
    });
}

/// A system source that records the layout of every chunk request.
struct Recording {
    inner: SystemSource,
    layouts: Mutex<Vec<Layout>>,
}

// SAFETY: every chunk is `inner`'s, handed out and taken back unchanged.
unsafe impl ChunkSource for Recording {
    unsafe fn alloc_chunk(&self, layout: Layout) -> Option<NonNull<u8>> {
        self.layouts.lock().unwrap().push(layout);
        self.inner.alloc_chunk(layout)
    }

    unsafe fn free_chunk(&self, ptr: NonNull<u8>, layout: Layout) {
        self.inner.free_chunk(ptr, layout);
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }
}

/// Every configuration lays superblocks out alike: each chunk a
/// small-object churn pulls from the source is `S` bytes at 4 KiB
/// alignment, whatever the front-end. A block finds its superblock
/// through its header, so no configuration needs `S`-aligned chunks.
#[test]
fn all_six_configurations_request_superblocks_alike() {
    const PROCS: usize = 3;
    let stacks = [HoardConfig::new(), HoardConfig::with_default_magazines()];
    let levels = [
        HardeningLevel::Off,
        HardeningLevel::Basic,
        HardeningLevel::Full,
    ];
    for cfg in stacks
        .iter()
        .flat_map(|s| levels.map(|l| s.with_hardening(l)))
    {
        let source = Recording {
            inner: SystemSource::new(),
            layouts: Mutex::new(Vec::new()),
        };
        let h = HoardAllocator::with_source(cfg, source).expect("valid config");
        let max = h.size_classes().max_size();
        let mut rng = Rng::new(7, 0);
        let mut live = Vec::new();
        for step in 0..3000 {
            hoard_sim::switch_context(step % PROCS, 0);
            if rng.range(0, 2) > 0 || live.is_empty() {
                let size = rng.range(1, max);
                live.push(unsafe { h.allocate(size) }.expect("host memory available"));
            } else {
                let p = live.swap_remove(rng.range(0, live.len() - 1));
                unsafe { h.deallocate(p) };
            }
        }
        for p in live {
            unsafe { h.deallocate(p) };
        }
        let want = Layout::from_size_align(cfg.superblock_size, 4096).unwrap();
        let layouts = h.source().layouts.lock().unwrap().clone();
        assert!(layouts.len() > 8, "{cfg:?}: only {} chunks", layouts.len());
        let odd = layouts.iter().find(|&&l| l != want);
        assert_eq!(
            odd, None,
            "{cfg:?}: a superblock chunk asked as other than {want:?}"
        );
    }
}

/// Processors of [`ledger_program`].
const LEDGER_PROCS: usize = 4;

/// A seeded program with sends, large objects, touches, barriers and a
/// burst that overflows the magazines.
fn ledger_program(rng: &mut Rng) -> Program {
    let mut program = Program::new(LEDGER_PROCS);
    // Per processor: the objects it holds or has in its inbox.
    let mut with: Vec<Vec<u32>> = vec![Vec::new(); LEDGER_PROCS];
    let take_any =
        |rng: &mut Rng, ids: &mut Vec<u32>| ids.swap_remove(rng.range(0, ids.len() - 1));
    for _ in 0..rng.range(400, 800) {
        let t = rng.range(0, LEDGER_PROCS - 1);
        match rng.range(0, 11) {
            0..=3 => {
                let size = if rng.range(0, 9) == 0 {
                    rng.range(20_000, 70_000)
                } else {
                    rng.range(8, 512)
                };
                with[t].push(program.alloc(t, size));
            }
            4 | 5 if !with[t].is_empty() => {
                let id = take_any(rng, &mut with[t]);
                program.free(t, id);
            }
            6 | 7 if !with[t].is_empty() => {
                let id = take_any(rng, &mut with[t]);
                let to = (t + rng.range(1, LEDGER_PROCS - 1)) % LEDGER_PROCS;
                program.send(t, id, to);
                with[to].push(id);
            }
            8 if !with[t].is_empty() => {
                let id = with[t][rng.range(0, with[t].len() - 1)];
                if rng.range(0, 1) == 0 {
                    program.write(t, id);
                } else {
                    program.read(t, id);
                }
            }
            9 if rng.range(0, 3) == 0 => program.barrier(),
            _ => program.work(t, 50 * rng.range(1, 4) as u64),
        }
    }
    // More frees of one class than a magazine holds: a flush.
    let burst: Vec<u32> = (0..300).map(|_| program.alloc(1, 48)).collect();
    for id in burst {
        program.free(1, id);
    }
    for (t, ids) in with.iter().enumerate() {
        for &id in ids {
            program.free(t, id);
        }
    }
    program
}

/// The replay engine's ledger books every advance of every clock: a
/// [`ledger_program`] runs in each of the six configurations, and
/// every processor's columns sum exactly to its final clock.
#[test]
fn all_six_configurations_book_every_clock_in_the_ledger() {
    let stacks = [HoardConfig::new(), HoardConfig::with_default_magazines()];
    let levels = [HardeningLevel::Off, HardeningLevel::Basic, HardeningLevel::Full];
    Rng::for_each_case(4, |rng| {
        let program = ledger_program(rng);
        for cfg in stacks.iter().flat_map(|s| levels.map(|l| s.with_hardening(l))) {
            let h = HoardAllocator::with_config(cfg).expect("valid config");
            let r = program.run(&h);
            let (ledger, clocks) = (r.report.ledger(), r.report.per_processor());
            assert_eq!(ledger.processors(), LEDGER_PROCS, "{cfg:?}");
            for (p, &clock) in clocks.iter().enumerate() {
                assert_eq!(ledger.total(p), clock, "{cfg:?}, processor {p}:\n{}", ledger.render(clocks));
            }
            let mut used = vec![
                Column::Wait(Wait::Inbox),
                Column::Wait(Wait::Barrier),
                Column::Cost(Cost::Barrier),
                Column::Cost(Cost::OsChunk),
                Column::Cost(Cost::CacheHit),
                Column::Work,
            ];
            if cfg.frontend != Frontend::Off {
                used.push(Column::Cost(Cost::MagazineOp));
            }
            for column in used {
                assert!(ledger.column_total(column) > 0, "{cfg:?}: {column:?} unused");
            }
            assert_eq!(h.stats().live_current, 0, "{cfg:?}");
        }
    });
}

/// A foreign free that the magazine front-end defers is one CAS on the
/// superblock's remote word, priced like every other CAS. That push is
/// the only `AtomicRmw` there is, so the column is exactly the pushes
/// times the price.
#[test]
fn a_deferred_remote_free_costs_one_atomic_rmw() {
    let levels = [
        HardeningLevel::Off,
        HardeningLevel::Basic,
        HardeningLevel::Full,
    ];
    let price = CostModel::current().get(Cost::AtomicRmw);
    Rng::for_each_case(4, |rng| {
        let program = ledger_program(rng);
        for level in levels {
            let cfg = HoardConfig::with_default_magazines().with_hardening(level);
            let r = program.run(&HoardAllocator::with_config(cfg).expect("valid config"));
            let pushes = r.snapshot.magazines.remote_pushes;
            assert!(pushes > 0, "{cfg:?}: no free was deferred");
            assert_eq!(
                r.report
                    .ledger()
                    .column_total(Column::Cost(Cost::AtomicRmw)),
                pushes * price,
                "{cfg:?}"
            );
        }
    });
}

/// Replay the small-object part of `ops` and check the paper's Theorem,
/// `A(t) = O(U_small(t) + P·S) + max U_large`, with `extra` more bytes
/// of additive slack. The paper proves it for one size class, and the
/// invariant is kept per class, so the additive term is written out per
/// class: a heap may hold `K·S` of empties, and each class `c` it has
/// populated `max(K·S, f·a_c) ≤ K·S + f·a_c` of free space in partials
/// — `P · (K·S + Σ_c max(K·S, f·a_c))` in all, the number of classes a
/// constant, so still `O(U + P)`. The `f·a_c` go with the
/// multiplicative part, which the size-class factor (1.2) times the
/// inverse emptiness bound (1/(1-f)) covers generously with 3x; two
/// more superblocks a heap cover an acquisition in flight and the
/// per-superblock headers. The large term is exact, not `O(·)`: live
/// plus parked large chunks never exceed the high-water mark of the
/// live ones, each a request rounded up to whole pages behind a 64-byte
/// prefix.
fn check_blowup(cfg: HoardConfig, ops: &[Op], extra: u64) {
    let h = HoardAllocator::with_config(cfg).unwrap();
    let mut live: Vec<(std::ptr::NonNull<u8>, usize)> = Vec::new();
    let large_chunk = |size: usize| {
        if size > cfg.large_threshold() {
            (size as u64 + 64).next_multiple_of(4096)
        } else {
            0
        }
    };
    let (mut u_large, mut max_u_large) = (0u64, 0u64);
    let mut classes = std::collections::HashSet::new();
    for op in ops {
        match op {
            Op::Alloc(size) => {
                let p = unsafe { h.allocate(*size) }.unwrap();
                live.push((p, *size));
                classes.extend(h.size_classes().index_for(*size));
                u_large += large_chunk(*size);
                max_u_large = max_u_large.max(u_large);
            }
            Op::Free(raw) if !live.is_empty() => {
                let (p, size) = live.swap_remove(raw % live.len());
                unsafe { h.deallocate(p) };
                u_large -= large_chunk(size);
            }
            Op::Free(_) => {}
        }
    }
    let snap = h.stats();
    let p_heaps = (HEAPS + 1) as u64;
    let s = cfg.superblock_size as u64;
    let k_slack = cfg.slack_k as u64 * s;
    let per_heap = k_slack + classes.len() as u64 * k_slack + 2 * s;
    let bound = 3 * snap.live_peak + p_heaps * per_heap + extra + max_u_large;
    assert!(
        snap.held_peak <= bound,
        "blowup: held_peak={} live_peak={} max_u_large={} bound={}",
        snap.held_peak,
        snap.live_peak,
        max_u_large,
        bound
    );
    let v = debug::validate(&h);
    assert!(v.is_consistent(), "{:?}", v.errors);
    assert_eq!((v.large_live, v.large_peak), (u_large, max_u_large));
    for (p, _) in live {
        unsafe { h.deallocate(p) };
    }
    h.flush_frontend();
    assert_eq!(h.stats().live_current, 0);
}

#[test]
fn blowup_is_bounded() {
    Rng::for_each_case(CASES, |rng| {
        check_blowup(HoardConfig::new(), &gen_ops(rng, 50, 400), 0);
    });
}

#[test]
fn blowup_is_bounded_with_magazines() {
    // The same theorem plus the front-end's additive term: each
    // magazine slot can park at most capacity blocks per size class
    // (DESIGN.md §9's O(U + P) argument). One thread here, so one
    // slot's worth is enough slack: 24 classes x 32 blocks x the
    // largest magazine-served class (~553 B).
    Rng::for_each_case(CASES, |rng| {
        let ops = gen_ops(rng, 50, 400);
        check_blowup(HoardConfig::with_default_magazines(), &ops, 24 * 32 * 560);
    });
}

#[test]
fn usable_size_covers_request() {
    Rng::for_each_case(CASES, |rng| {
        let size = rng.range(1, 50_000);
        let h = HoardAllocator::new_default();
        unsafe {
            let p = h.allocate(size).unwrap();
            // Rounding is bounded: at most the 1.2 class factor + 8,
            // except in the sub-128 linear region (absolute +8).
            let usable = h.usable_size(p);
            assert!(usable >= size);
            if size > h.config().large_threshold() {
                assert_eq!(usable, size);
            } else {
                assert!(usable <= size * 6 / 5 + 8);
            }
            h.deallocate(p);
        }
    });
}

/// Two traces that once failed, shrunk and kept as fixed inputs.
#[test]
fn shrunk_mixed_size_trace_preserves_invariants() {
    use Op::{Alloc, Free};
    #[rustfmt::skip]
    let ops = [
        Alloc(139), Alloc(79), Free(132550389768223347), Alloc(607), Alloc(3281), Alloc(14792),
        Free(5098981842140094925), Alloc(2198), Free(3133386258224989400), Alloc(113),
        Alloc(4031), Free(7400786692029868178), Alloc(177), Alloc(3697), Alloc(2129),
        Alloc(236), Alloc(47), Alloc(195), Alloc(103), Alloc(534), Alloc(1384),
        Free(15306508146787784693), Free(13160789358179673764), Free(14242411603458746117),
        Free(16809841275878905700), Free(10719742183829749491), Alloc(208), Alloc(2079),
        Free(16493982666943684019), Free(16459895485665473294), Alloc(177), Alloc(35),
        Alloc(950), Free(5371120883543688807), Alloc(1620), Alloc(54), Alloc(132), Alloc(125),
        Free(17659587974682062347), Alloc(3039), Free(7311537367697767743), Alloc(1551),
        Alloc(16835), Alloc(3444), Alloc(2582), Free(7766738856465548193),
        Free(13319687665075105457), Alloc(27), Alloc(47), Free(3684884525354687445),
        Free(14478507460947029870), Free(2160946910886668428), Free(2596710135065387557),
        Free(3528870112711394136), Alloc(127), Alloc(211), Free(1677894312354424996),
        Alloc(1715), Alloc(212), Alloc(176), Alloc(1042), Free(5861721588356130431),
        Free(10874100067182328655), Free(11056442081415956558), Free(12038081726555276305),
        Alloc(18786), Free(5352129411177308322), Free(12236504285946343961),
        Free(3296109168227995347), Alloc(24), Alloc(31), Alloc(151), Alloc(12582),
        Free(468215198831004829), Alloc(10),
    ];
    run_trace(HoardConfig::new(), &[0], &ops);
    run_trace(HoardConfig::with_default_magazines(), &[0], &ops);
}

#[test]
fn shrunk_zero_slack_single_heap_trace_preserves_invariants() {
    use Op::{Alloc, Free};
    let cfg = HoardConfig::new()
        .with_superblock_size(8192)
        .with_empty_fraction(1, 2)
        .with_slack(0);
    #[rustfmt::skip]
    let ops = [
        Alloc(1), Alloc(1), Alloc(1), Alloc(1), Free(0), Free(35975472783383849), Alloc(199),
        Alloc(4049), Alloc(825), Free(16581188910829224525), Alloc(75), Alloc(821), Alloc(154),
        Alloc(2), Free(2693161170787745041), Alloc(4996), Free(16105122483210055881),
        Free(9436094879178576597), Alloc(146), Free(1024790931380453937),
        Free(12401636919656850015), Free(10812428001597948881), Free(14611914759958136995),
        Free(9721255189199592211), Alloc(35), Alloc(13307), Alloc(138),
        Free(792200726798317816), Free(15933471406970649884), Alloc(3783), Alloc(43),
        Alloc(2701), Free(17859320636369945273), Alloc(18631), Alloc(3755), Alloc(246),
        Alloc(63), Free(9881504889978048509), Alloc(1), Alloc(139), Alloc(15329),
        Free(4021416315261018708), Alloc(17149), Alloc(2197), Free(15492996838433885801),
        Alloc(4045), Alloc(221), Free(15409699931080064955), Free(14343851521693653969),
    ];
    // Three processors that share heap 1: one heap, as the trace was
    // shrunk on.
    run_trace(cfg, &[0, HEAPS, 2 * HEAPS], &ops);
}

#[test]
fn worst_case_producer_consumer_pattern_stays_bounded() {
    // The paper's motivating blowup scenario: repeatedly allocate a
    // batch and free it. Hoard must reuse superblocks via the global
    // heap instead of growing.
    let h = HoardAllocator::new_default();
    let mut peak_after_first_round = 0;
    for round in 0..50 {
        let ptrs: Vec<_> = (0..256)
            .map(|_| unsafe { h.allocate(100) }.unwrap())
            .collect();
        for p in ptrs {
            unsafe { h.deallocate(p) };
        }
        if round == 0 {
            peak_after_first_round = h.stats().held_peak;
        }
    }
    assert_eq!(
        h.stats().held_peak,
        peak_after_first_round,
        "steady-state churn must not grow the footprint"
    );
}
