//! # hoard-harness — regenerating the paper's tables and figures
//!
//! Each published table or figure of the Hoard paper's evaluation maps
//! to one [`Experiment`] (`E1`..`E12`; see `DESIGN.md` for the index).
//! The `reproduce` binary runs them and renders ASCII tables plus
//! optional CSV:
//!
//! ```text
//! reproduce all            # every experiment, paper-scale parameters
//! reproduce e2 e4 --quick  # selected experiments, reduced scale
//! reproduce e9 --csv out/  # also write CSV files
//! ```
//!
//! Measurement rules the harness enforces:
//!
//! * a **fresh allocator instance per run** — `VLock`s carry virtual
//!   release times, so reuse across machine runs (which reset clocks)
//!   would contaminate measurements;
//! * the global cache model is reset by each workload;
//! * speedups are normalized to the **serial allocator's one-processor
//!   makespan** on the same workload, as in the paper's figures (so an
//!   allocator faster than serial at P=1 starts above 1.0).

mod experiments;
mod factory;
mod heap_profile;
mod scope;
mod speedup;
mod summary;
mod table;
mod trc_tools;

pub use experiments::{all_experiments, experiment_by_id, Experiment, RunOptions};
pub use factory::AllocatorKind;
pub use heap_profile::{
    heap_profile_section, profile_trc, profile_workload, render_profile, BudgetFile, MemoryBudget,
    ProfiledRun, INJECTED_LEAK_SITE, PROFILE_CATALOG,
};
pub use scope::{
    class_table, event_summary, heap_lock_acquisitions, lock_table, metrics_table, scope_report,
    traced_larson, traced_larson_with, transfer_table, ScopeRun,
};
pub use speedup::{run_speedup, SpeedupPoint, SpeedupSeries};
pub use summary::{markdown_report, summarize_speedup, CurveSummary, Shape};
pub use table::Table;
pub use trc_tools::{
    record_workload, replay_digest, replay_trc, report_for, RecordOutcome, ReplayOutcome,
    TRC_REPORT_SCHEMA,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = all_experiments();
        assert_eq!(all.len(), 12);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.id(), format!("e{}", i + 1));
            assert!(!e.title().is_empty());
            assert!(!e.paper_ref().is_empty());
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(experiment_by_id("e1").is_some());
        assert!(experiment_by_id("E9").is_some(), "case-insensitive");
        assert!(experiment_by_id("e99").is_none());
    }
}
