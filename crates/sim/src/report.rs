//! Results of one simulated machine run.

/// Per-run virtual-time results returned by [`crate::Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    per_processor: Vec<u64>,
}

impl RunReport {
    pub(crate) fn new(per_processor: Vec<u64>) -> Self {
        RunReport { per_processor }
    }

    /// Build a report from externally tracked per-processor final
    /// clocks — for simulations that drive virtual processors without
    /// [`crate::Machine::run`] (e.g. the sequential replay engine under
    /// [`crate::sequential_scope`]).
    pub fn from_per_processor(per_processor: Vec<u64>) -> Self {
        RunReport::new(per_processor)
    }

    /// Virtual makespan: the maximum final clock over all processors —
    /// the analogue of wall-clock runtime on the simulated machine.
    pub fn makespan(&self) -> u64 {
        self.per_processor.iter().copied().max().unwrap_or(0)
    }

    /// Final virtual clock of each processor, indexed by processor id.
    pub fn per_processor(&self) -> &[u64] {
        &self.per_processor
    }

    /// Number of processors that participated.
    pub fn processors(&self) -> usize {
        self.per_processor.len()
    }

    /// Load imbalance: makespan divided by mean processor time (1.0 =
    /// perfectly balanced). Returns 1.0 for an empty or all-zero run.
    pub fn imbalance(&self) -> f64 {
        let n = self.per_processor.len();
        if n == 0 {
            return 1.0;
        }
        let sum: u64 = self.per_processor.iter().sum();
        if sum == 0 {
            return 1.0;
        }
        self.makespan() as f64 * n as f64 / sum as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_and_imbalance() {
        let r = RunReport::new(vec![100, 200, 300]);
        assert_eq!(r.makespan(), 300);
        assert_eq!(r.processors(), 3);
        assert!((r.imbalance() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn balanced_run_has_unit_imbalance() {
        let r = RunReport::new(vec![500, 500]);
        assert!((r.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_runs_are_safe() {
        assert_eq!(RunReport::new(vec![]).makespan(), 0);
        assert!((RunReport::new(vec![]).imbalance() - 1.0).abs() < 1e-9);
        assert!((RunReport::new(vec![0, 0]).imbalance() - 1.0).abs() < 1e-9);
    }
}
