//! The experiment registry: `E1`..`E12`, one per paper table/figure.
//!
//! See `DESIGN.md` §4 for the index mapping experiments to the paper's
//! artefacts, and `EXPERIMENTS.md` for recorded paper-vs-measured
//! outcomes.

use crate::factory::AllocatorKind;
use crate::speedup::{run_speedup, speedup_table};
use crate::table::Table;
use hoard_core::HoardConfig;
use hoard_mem::MtAllocator;
use hoard_workloads as wl;
use hoard_workloads::WorkloadResult;

/// A named benchmark closure for the fragmentation table.
type FragRun<'a> = (&'a str, Box<dyn Fn(&dyn MtAllocator) -> WorkloadResult>);

/// Options shared by every experiment run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Thread counts for scalability sweeps (paper: 1..14 on the Sun
    /// E5000).
    pub threads: Vec<usize>,
    /// Reduced-scale parameters for a fast smoke run.
    pub quick: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: vec![1, 2, 4, 6, 8, 10, 12, 14],
            quick: false,
        }
    }
}

impl RunOptions {
    /// Quick-mode options (small sweeps, small workloads).
    pub fn quick() -> Self {
        RunOptions {
            threads: vec![1, 2, 4, 8],
            quick: true,
        }
    }

    fn scale(&self, full: u64, quick: u64) -> u64 {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One reproducible experiment (a paper table or figure).
pub struct Experiment {
    id: &'static str,
    title: &'static str,
    paper_ref: &'static str,
    runner: fn(&RunOptions) -> Vec<Table>,
}

impl Experiment {
    /// Experiment id (`e1`..`e12`).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// Human title.
    pub fn title(&self) -> &'static str {
        self.title
    }

    /// Which paper artefact this regenerates.
    pub fn paper_ref(&self) -> &'static str {
        self.paper_ref
    }

    /// Run the experiment, producing one or more tables.
    pub fn run(&self, opts: &RunOptions) -> Vec<Table> {
        (self.runner)(opts)
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish()
    }
}

/// All experiments, in order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "e1",
            title: "benchmark suite inventory",
            paper_ref: "Table: the benchmarks used in the evaluation",
            runner: e1_catalog,
        },
        Experiment {
            id: "e2",
            title: "threadtest speedup",
            paper_ref: "Figure: threadtest speedup vs. processors",
            runner: e2_threadtest,
        },
        Experiment {
            id: "e3",
            title: "shbench speedup",
            paper_ref: "Figure: shbench speedup vs. processors",
            runner: e3_shbench,
        },
        Experiment {
            id: "e4",
            title: "larson throughput & speedup",
            paper_ref: "Figure: Larson server benchmark",
            runner: e4_larson,
        },
        Experiment {
            id: "e5",
            title: "active-false speedup",
            paper_ref: "Figure: active false sharing",
            runner: e5_active_false,
        },
        Experiment {
            id: "e6",
            title: "passive-false speedup",
            paper_ref: "Figure: passive false sharing",
            runner: e6_passive_false,
        },
        Experiment {
            id: "e7",
            title: "barnes-hut speedup",
            paper_ref: "Figure: Barnes-Hut (compute-bound control)",
            runner: e7_barnes_hut,
        },
        Experiment {
            id: "e8",
            title: "BEM-like solver speedup",
            paper_ref: "Figure: BEMengine (substituted; see DESIGN.md)",
            runner: e8_bem,
        },
        Experiment {
            id: "e9",
            title: "Hoard memory efficiency (fragmentation)",
            paper_ref: "Table: max held / max live per benchmark",
            runner: e9_fragmentation,
        },
        Experiment {
            id: "e10",
            title: "uniprocessor overhead (real time)",
            paper_ref: "Table/discussion: Hoard vs. serial on one processor",
            runner: e10_uniprocessor,
        },
        Experiment {
            id: "e11",
            title: "producer-consumer blowup",
            paper_ref: "Sections 2-3: blowup by allocator class",
            runner: e11_blowup,
        },
        Experiment {
            id: "e12",
            title: "sensitivity to f, K and S",
            paper_ref: "Design-parameter discussion (robustness)",
            runner: e12_sensitivity,
        },
    ]
}

/// Find an experiment by case-insensitive id.
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    let id = id.to_ascii_lowercase();
    all_experiments().into_iter().find(|e| e.id == id)
}

// ---------- individual experiments ----------

fn e1_catalog(_opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(
        "e1",
        "benchmark suite inventory",
        vec!["benchmark".into(), "description".into(), "default parameters".into()],
    );
    for info in wl::catalog() {
        t.push_row(vec![
            info.name.to_string(),
            info.description.split_whitespace().collect::<Vec<_>>().join(" "),
            info.parameters,
        ]);
    }
    t.push_note("shbench and bem-like are substitutes for proprietary originals (DESIGN.md)");
    vec![t]
}

fn e2_threadtest(opts: &RunOptions) -> Vec<Table> {
    let params = wl::threadtest::Params {
        total_objects: opts.scale(100_000, 10_000),
        ..Default::default()
    };
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::threadtest::run(a, p, &params),
        &AllocatorKind::sweep(),
        &opts.threads,
    );
    vec![speedup_table("e2", "threadtest speedup", &opts.threads, &series)]
}

fn e3_shbench(opts: &RunOptions) -> Vec<Table> {
    let params = wl::shbench::Params {
        total_ops: opts.scale(40_000, 6_000),
        ..Default::default()
    };
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::shbench::run(a, p, &params),
        &AllocatorKind::sweep(),
        &opts.threads,
    );
    vec![speedup_table("e3", "shbench speedup", &opts.threads, &series)]
}

fn e4_larson(opts: &RunOptions) -> Vec<Table> {
    let params = wl::larson::Params {
        ops_per_round: opts.scale(4_000, 800),
        slots_per_thread: if opts.quick { 200 } else { 500 },
        ..Default::default()
    };
    // Larson is a *throughput* benchmark: per-thread work is constant
    // (a server taking more connections with more processors), so the
    // figure reports throughput scaled to serial at P=1.
    let kinds = AllocatorKind::sweep();
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::larson::run(a, p, &params),
        &kinds,
        &opts.threads,
    );
    let per_thread_ops = params.ops_per_round * params.rounds as u64;
    let serial_tput_1 = {
        let s0 = &series[0]; // serial is first in sweep()
        per_thread_ops as f64 / s0.points[0].makespan.max(1) as f64
    };
    let mut tput = Table::new(
        "e4",
        "larson throughput, relative to serial at P=1",
        {
            let mut c = vec!["P".to_string()];
            c.extend(kinds.iter().map(|k| k.label().to_string()));
            c
        },
    );
    for (i, &p) in opts.threads.iter().enumerate() {
        let mut row = vec![p.to_string()];
        for s in &series {
            let ops = per_thread_ops * p as u64;
            let tp = ops as f64 / s.points[i].makespan.max(1) as f64;
            row.push(format!("{:.2}", tp / serial_tput_1));
        }
        tput.push_row(row);
    }
    tput.push_note("per-thread work constant (server model); value = throughput / serial@1");
    tput.push_note("virtual-time makespans from the simulated SMP (see DESIGN.md)");
    vec![tput]
}

fn e5_active_false(opts: &RunOptions) -> Vec<Table> {
    let params = wl::false_sharing::Params {
        total_writes: opts.scale(100_000, 20_000),
        ..Default::default()
    };
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::false_sharing::active_false(a, p, &params),
        &AllocatorKind::sweep(),
        &opts.threads,
    );
    vec![speedup_table("e5", "active-false speedup", &opts.threads, &series)]
}

fn e6_passive_false(opts: &RunOptions) -> Vec<Table> {
    let params = wl::false_sharing::Params {
        total_writes: opts.scale(100_000, 20_000),
        ..Default::default()
    };
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::false_sharing::passive_false(a, p, &params),
        &AllocatorKind::sweep(),
        &opts.threads,
    );
    vec![speedup_table("e6", "passive-false speedup", &opts.threads, &series)]
}

fn e7_barnes_hut(opts: &RunOptions) -> Vec<Table> {
    let params = wl::barnes_hut::Params {
        bodies: if opts.quick { 500 } else { 2_000 },
        steps: if opts.quick { 2 } else { 3 },
        ..Default::default()
    };
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::barnes_hut::run(a, p, &params),
        &AllocatorKind::sweep(),
        &opts.threads,
    );
    vec![speedup_table("e7", "barnes-hut speedup", &opts.threads, &series)]
}

fn e8_bem(opts: &RunOptions) -> Vec<Table> {
    let params = wl::bem_like::Params {
        phases: if opts.quick { 2 } else { 4 },
        solve_iters_total: if opts.quick { 400 } else { 1_600 },
        ..Default::default()
    };
    let series = run_speedup(
        &|a: &dyn MtAllocator, p| wl::bem_like::run(a, p, &params),
        &AllocatorKind::sweep(),
        &opts.threads,
    );
    vec![speedup_table("e8", "bem-like speedup", &opts.threads, &series)]
}

fn e9_fragmentation(opts: &RunOptions) -> Vec<Table> {
    let threads = 8.min(*opts.threads.last().unwrap_or(&8));
    let mut t = Table::new(
        "e9",
        "Hoard memory efficiency per benchmark",
        vec![
            "benchmark".into(),
            "max live U (bytes)".into(),
            "max held A (bytes)".into(),
            "frag A/U".into(),
        ],
    );
    // Parameterized so each benchmark carries an application-realistic
    // live heap (the paper's table measures real programs; a
    // microbenchmark whose live set is a few hundred bytes would just
    // report the additive O(P*S) term). The false-sharing
    // microbenchmarks are excluded for that reason.
    let runs: Vec<FragRun> = vec![
        ("threadtest", {
            let p = wl::threadtest::Params {
                total_objects: opts.scale(100_000, 10_000),
                batch: 500,
                size: 64,
                ..Default::default()
            };
            Box::new(move |a: &dyn MtAllocator| wl::threadtest::run(a, threads, &p))
        }),
        ("shbench", {
            let p = wl::shbench::Params {
                total_ops: opts.scale(40_000, 6_000),
                ..Default::default()
            };
            Box::new(move |a: &dyn MtAllocator| wl::shbench::run(a, threads, &p))
        }),
        ("larson", {
            let p = wl::larson::Params {
                ops_per_round: opts.scale(4_000, 800),
                ..Default::default()
            };
            Box::new(move |a: &dyn MtAllocator| wl::larson::run(a, threads, &p))
        }),
        ("barnes-hut", {
            let p = wl::barnes_hut::Params {
                bodies: if opts.quick { 500 } else { 2_000 },
                ..Default::default()
            };
            Box::new(move |a: &dyn MtAllocator| wl::barnes_hut::run(a, threads, &p))
        }),
        ("bem-like", {
            let p = wl::bem_like::Params {
                phases: if opts.quick { 2 } else { 4 },
                ..Default::default()
            };
            Box::new(move |a: &dyn MtAllocator| wl::bem_like::run(a, threads, &p))
        }),
    ];
    for (name, runner) in runs {
        let hoard = AllocatorKind::Hoard(HoardConfig::new()).build();
        let result = runner(&*hoard);
        let frag = result
            .fragmentation()
            .map_or_else(|| "n/a".to_string(), |f| format!("{f:.2}"));
        t.push_row(vec![
            name.to_string(),
            result.max_live_requested.to_string(),
            result.snapshot.held_peak.to_string(),
            frag,
        ]);
    }
    t.push_note(format!("run at P = {threads}; U counts requested bytes, A bytes held from the OS"));
    vec![t]
}

fn e10_uniprocessor(opts: &RunOptions) -> Vec<Table> {
    // Real wall-clock time: valid on one host CPU by construction.
    let params = wl::threadtest::Params {
        total_objects: opts.scale(200_000, 20_000),
        work_per_object: 0,
        ..Default::default()
    };
    let mut t = Table::new(
        "e10",
        "single-processor runtime, real time (allocator-bound churn)",
        vec![
            "allocator".into(),
            "wall time (ms)".into(),
            "vs serial".into(),
        ],
    );
    let mut serial_ms = None;
    for kind in AllocatorKind::sweep() {
        let alloc = kind.build();
        let start = std::time::Instant::now();
        let _ = wl::threadtest::run(&*alloc, 1, &params);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if kind.label() == "serial" {
            serial_ms = Some(ms);
        }
        let rel = serial_ms.map_or(1.0, |s| ms / s);
        t.push_row(vec![
            kind.label().to_string(),
            format!("{ms:.1}"),
            format!("{rel:.2}x"),
        ]);
    }
    t.push_note("host wall-clock, single thread; includes simulator bookkeeping overhead equally for all allocators");
    vec![t]
}

fn e11_blowup(opts: &RunOptions) -> Vec<Table> {
    let params = wl::consume::Params {
        rounds: if opts.quick { 20 } else { 50 },
        ..Default::default()
    };
    let kinds = AllocatorKind::sweep();
    let mut t = Table::new(
        "e11",
        "producer-consumer footprint growth (held KiB after round N)",
        {
            let mut c = vec!["round".to_string()];
            c.extend(kinds.iter().map(|k| k.label().to_string()));
            c
        },
    );
    let series: Vec<Vec<u64>> = kinds
        .iter()
        .map(|kind| {
            let alloc = kind.build();
            wl::consume::run(&*alloc, 2, &params).held_series
        })
        .collect();
    let checkpoints: Vec<usize> = [0usize, 4, 9, 19, 29, 39, 49]
        .iter()
        .copied()
        .filter(|&r| r < params.rounds)
        .collect();
    for r in checkpoints {
        let mut row = vec![(r + 1).to_string()];
        for s in &series {
            row.push(format!("{:.0}", s[r] as f64 / 1024.0));
        }
        t.push_row(row);
    }
    t.push_note("live memory is one batch throughout; growth = allocator blowup (paper §2-3)");
    vec![t]
}

fn e12_sensitivity(opts: &RunOptions) -> Vec<Table> {
    let threads = 8.min(*opts.threads.last().unwrap_or(&8));
    let base = HoardConfig::new();
    let columns = || -> Vec<String> {
        vec![
            "f".into(),
            "K".into(),
            "S (KiB)".into(),
            "makespan (Kunits)".into(),
            "frag A/U".into(),
            "global transfers".into(),
        ]
    };
    let row = |cfg: &HoardConfig, result: &WorkloadResult| -> Vec<String> {
        let frag = result
            .fragmentation()
            .map_or_else(|| "n/a".to_string(), |f| format!("{f:.2}"));
        let transfers =
            result.snapshot.transfers_to_global + result.snapshot.transfers_from_global;
        vec![
            format!("{}/{}", cfg.empty_fraction_num, cfg.empty_fraction_den),
            cfg.slack_k.to_string(),
            (cfg.superblock_size / 1024).to_string(),
            format!("{:.0}", result.makespan as f64 / 1e3),
            frag,
            transfers.to_string(),
        ]
    };

    // (a) f on shbench: mixed sizes with random lifetimes settle heaps at
    // ~60% fullness, so the emptiness threshold's placement decides
    // whether the allocator perpetually migrates superblocks.
    let sh = wl::shbench::Params {
        total_ops: opts.scale(20_000, 5_000),
        ..Default::default()
    };
    let mut tf = Table::new(
        "e12",
        "Hoard sensitivity to f (shbench: random lifetimes, mixed sizes)",
        columns(),
    );
    for (num, den) in [(1usize, 8usize), (1, 4), (1, 2), (3, 4)] {
        let cfg = base.with_empty_fraction(num, den);
        let alloc = AllocatorKind::Hoard(cfg).build();
        let result = wl::shbench::run(&*alloc, threads, &sh);
        tf.push_row(row(&cfg, &result));
    }
    tf.push_note(format!(
        "shbench at P = {threads}; a partial leaves a heap only when its own size \
         class is over K·S, which binds before any f does here: f hardly moves \
         transfers or memory (heap-wide, f = 1/8 made 11x the transfers of f = 1/2)"
    ));

    // (b) K and S on threadtest: batch churn drains superblocks fully,
    // exercising the empty-list slack and superblock-size trade-offs.
    let tt = wl::threadtest::Params {
        total_objects: opts.scale(50_000, 8_000),
        ..Default::default()
    };
    let mut tks = Table::new(
        "e12",
        "Hoard sensitivity to K and S (threadtest: batch churn)",
        columns(),
    );
    let mut configs: Vec<HoardConfig> = Vec::new();
    for k in [0usize, 1, 2, 8] {
        configs.push(base.with_slack(k));
    }
    for s in [4096usize, 16384] {
        configs.push(base.with_superblock_size(s));
    }
    for cfg in configs {
        let alloc = AllocatorKind::Hoard(cfg).build();
        let result = wl::threadtest::run(&*alloc, threads, &tt);
        tks.push_row(row(&cfg, &result));
    }
    tks.push_note(format!(
        "threadtest at P = {threads}; K = 0 shows superblock ping-ponging via transfer counts"
    ));
    vec![tf, tks]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> RunOptions {
        RunOptions {
            threads: vec![1, 2],
            quick: true,
        }
    }

    #[test]
    fn e1_lists_all_benchmarks() {
        let tables = e1_catalog(&tiny_opts());
        assert_eq!(tables[0].rows.len(), 9);
    }

    #[test]
    fn e2_runs_and_orders_hoard_above_serial() {
        let tables = e2_threadtest(&tiny_opts());
        let t = &tables[0];
        assert_eq!(t.columns[0], "P");
        // Last row (P=2): hoard column must beat serial column.
        let row = t.rows.last().unwrap();
        let serial: f64 = row[1].parse().unwrap();
        let hoard: f64 = row[t.columns.iter().position(|c| c == "hoard").unwrap()]
            .parse()
            .unwrap();
        assert!(hoard > serial, "hoard {hoard} vs serial {serial}");
    }

    #[test]
    fn e9_reports_finite_fragmentation() {
        let tables = e9_fragmentation(&tiny_opts());
        for row in &tables[0].rows {
            let frag: f64 = row[3].parse().expect("numeric fragmentation");
            assert!((1.0..100.0).contains(&frag), "{}: frag {frag}", row[0]);
        }
    }

    #[test]
    fn e11_shows_private_growth_hoard_flat() {
        let tables = e11_blowup(&tiny_opts());
        let t = &tables[0];
        let private_col = t.columns.iter().position(|c| c == "private").unwrap();
        let hoard_col = t.columns.iter().position(|c| c == "hoard").unwrap();
        let first = &t.rows[1]; // round 5
        let last = t.rows.last().unwrap();
        let private_growth: f64 = last[private_col].parse::<f64>().unwrap()
            - first[private_col].parse::<f64>().unwrap();
        let hoard_growth: f64 =
            last[hoard_col].parse::<f64>().unwrap() - first[hoard_col].parse::<f64>().unwrap();
        assert!(private_growth > 50.0, "private grew {private_growth} KiB");
        assert!(hoard_growth <= 16.0, "hoard grew {hoard_growth} KiB");
    }
}
