//! # hoard-workloads — the Hoard paper's benchmark suite
//!
//! Reimplementations of the workloads the paper's evaluation uses, each
//! parameterized by any [`MtAllocator`](hoard_mem::MtAllocator) and
//! executed on the virtual-time machine from `hoard_sim`:
//!
//! * [`threadtest`] — per-thread batch allocate/free churn (the paper's
//!   most allocation-intensive benchmark);
//! * [`shbench`] — mixed sizes with random lifetimes, modelled on the
//!   MicroQuill SmartHeap benchmark;
//! * [`larson`] — the Larson server benchmark: slot churn plus
//!   cross-thread "bleeding" of surviving objects;
//! * [`false_sharing`] — `active-false` and `passive-false`;
//! * [`consume`] — the producer–consumer blowup demonstration of the
//!   paper's Sections 2–3;
//! * [`prod_cons`] — sustained producer–consumer throughput (the stress
//!   test for foreign frees and the deferred remote-free protocol);
//! * [`storm`] — slow-path stress: batch bursts past the magazines with
//!   ring-bled foreign frees (refill/flush/transfer ping-pong);
//! * [`barnes_hut`] — an n-body Barnes–Hut simulation (little allocator
//!   pressure; every allocator should scale);
//! * [`bem_like`] — a phase-structured solver allocation pattern standing
//!   in for the proprietary BEMengine.
//!
//! Each workload reports a [`WorkloadResult`]: virtual makespan,
//! operation count, the *requested-bytes* live-memory peak (the `U` of
//! the paper's fragmentation table) and the allocator's own snapshot.

mod meter;
mod object;

pub mod barnes_hut;
pub mod server_traffic;
pub mod trace;
pub mod bem_like;
pub mod consume;
pub mod false_sharing;
pub mod larson;
pub mod prod_cons;
pub mod shbench;
pub mod storm;
pub mod threadtest;

pub use meter::LiveMeter;
pub use object::Obj;

use hoard_mem::AllocSnapshot;
use hoard_sim::RunReport;

/// Outcome of one workload run on one allocator at one thread count.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Virtual makespan (the simulated wall-clock runtime).
    pub makespan: u64,
    /// Workload-defined operation count (for throughput figures).
    pub ops: u64,
    /// Peak of requested (not size-class-rounded) live bytes — the `U`
    /// in the paper's fragmentation ratio.
    pub max_live_requested: u64,
    /// The allocator's own accounting at the end of the run (includes
    /// `held_peak`, the `A`).
    pub snapshot: AllocSnapshot,
    /// Per-processor virtual times.
    pub report: RunReport,
}

impl WorkloadResult {
    /// Throughput in operations per million virtual time units.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.ops as f64 * 1_000_000.0 / self.makespan as f64
        }
    }

    /// The paper's fragmentation ratio `max A / max U` for this run.
    pub fn fragmentation(&self) -> Option<f64> {
        if self.max_live_requested == 0 {
            None
        } else {
            Some(self.snapshot.held_peak as f64 / self.max_live_requested as f64)
        }
    }
}

/// Catalog entry describing one benchmark (regenerates the paper's
/// benchmark table, experiment E1).
#[derive(Debug, Clone)]
pub struct WorkloadInfo {
    /// Short name used across tables and the CLI.
    pub name: &'static str,
    /// What the benchmark exercises.
    pub description: &'static str,
    /// Default parameters, rendered for the table.
    pub parameters: String,
}

/// The benchmark suite, in the paper's presentation order.
pub fn catalog() -> Vec<WorkloadInfo> {
    vec![
        WorkloadInfo {
            name: "threadtest",
            description: "each thread repeatedly allocates and frees batches of \
                          equal-sized objects (allocator-bound churn)",
            parameters: format!("{:?}", threadtest::Params::default()),
        },
        WorkloadInfo {
            name: "shbench",
            description: "SmartHeap-style mix: random sizes 1..=1000 with random \
                          slot lifetimes",
            parameters: format!("{:?}", shbench::Params::default()),
        },
        WorkloadInfo {
            name: "larson",
            description: "server simulation: random slot replacement, surviving \
                          objects bled to the next thread each round",
            parameters: format!("{:?}", larson::Params::default()),
        },
        WorkloadInfo {
            name: "active-false",
            description: "threads repeatedly write objects allocated back-to-back; \
                          measures allocator-induced active false sharing",
            parameters: format!("{:?}", false_sharing::Params::default()),
        },
        WorkloadInfo {
            name: "passive-false",
            description: "objects allocated by one thread are freed and re-used by \
                          others; measures passive false sharing",
            parameters: format!("{:?}", false_sharing::Params::default()),
        },
        WorkloadInfo {
            name: "barnes-hut",
            description: "n-body octree simulation (compute-bound; modest \
                          allocator pressure)",
            parameters: format!("{:?}", barnes_hut::Params::default()),
        },
        WorkloadInfo {
            name: "bem-like",
            description: "phase-structured solver: assembly allocations, remote \
                          releases, transient solve-phase allocations (stands in \
                          for the proprietary BEMengine)",
            parameters: format!("{:?}", bem_like::Params::default()),
        },
        WorkloadInfo {
            name: "consume",
            description: "producer-consumer rounds; reports footprint growth \
                          (the paper's blowup analysis)",
            parameters: format!("{:?}", consume::Params::default()),
        },
        WorkloadInfo {
            name: "prod-cons",
            description: "sustained producer-consumer throughput: producers \
                          allocate flat-out, consumers free foreign blocks \
                          (stresses the ownership/remote-free path)",
            parameters: format!("{:?}", prod_cons::Params::default()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_described() {
        let cat = catalog();
        assert_eq!(cat.len(), 9);
        let mut names: Vec<_> = cat.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9, "duplicate workload names");
        for w in &cat {
            assert!(!w.description.is_empty());
            assert!(!w.parameters.is_empty());
        }
    }

    #[test]
    fn throughput_and_fragmentation_math() {
        let r = WorkloadResult {
            makespan: 2_000_000,
            ops: 4000,
            max_live_requested: 1000,
            snapshot: AllocSnapshot {
                held_peak: 1500,
                ..Default::default()
            },
            report: hoard_sim::Machine::new(1).run(|_| || {}),
        };
        assert!((r.throughput() - 2000.0).abs() < 1e-9);
        assert!((r.fragmentation().unwrap() - 1.5).abs() < 1e-9);
    }
}
