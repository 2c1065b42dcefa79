//! The speedup runner behind every scalability figure.

use crate::factory::AllocatorKind;
use crate::table::Table;
use hoard_mem::MtAllocator;
use hoard_workloads::WorkloadResult;

/// One measured point of a speedup curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupPoint {
    /// Virtual processors.
    pub threads: usize,
    /// Virtual makespan of this run.
    pub makespan: u64,
    /// `serial makespan at P=1` / `this makespan` (paper normalization).
    pub speedup: f64,
}

/// A full curve for one allocator.
#[derive(Debug, Clone)]
pub struct SpeedupSeries {
    /// Allocator label.
    pub allocator: String,
    /// Points in ascending thread order.
    pub points: Vec<SpeedupPoint>,
}

/// Run the paper-style speedup sweep: every allocator kind at every
/// thread count, fresh instance per run, normalized to the serial
/// allocator's one-processor makespan.
pub fn run_speedup(
    workload: &dyn Fn(&dyn MtAllocator, usize) -> WorkloadResult,
    kinds: &[AllocatorKind],
    threads: &[usize],
) -> Vec<SpeedupSeries> {
    // Normalization baseline: serial at P=1.
    let baseline = {
        let serial = AllocatorKind::Serial.build();
        workload(&*serial, 1).makespan.max(1)
    };

    kinds
        .iter()
        .map(|kind| {
            let points = threads
                .iter()
                .map(|&p| {
                    let alloc = kind.build();
                    let result = workload(&*alloc, p);
                    SpeedupPoint {
                        threads: p,
                        makespan: result.makespan,
                        speedup: baseline as f64 / result.makespan.max(1) as f64,
                    }
                })
                .collect();
            SpeedupSeries {
                allocator: kind.label().to_string(),
                points,
            }
        })
        .collect()
}

/// Render speedup series as a table: one row per thread count, one
/// column per allocator.
pub fn speedup_table(
    id: &str,
    title: &str,
    threads: &[usize],
    series: &[SpeedupSeries],
) -> Table {
    let mut columns = vec!["P".to_string()];
    columns.extend(series.iter().map(|s| s.allocator.clone()));
    let mut table = Table::new(id, title, columns);
    for (i, &p) in threads.iter().enumerate() {
        let mut row = vec![p.to_string()];
        for s in series {
            row.push(format!("{:.2}", s.points[i].speedup));
        }
        table.push_row(row);
    }
    table.push_note("speedup normalized to the serial allocator at P=1");
    table.push_note("virtual-time makespans from the simulated SMP (see DESIGN.md)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoard_workloads::threadtest;

    #[test]
    fn speedup_sweep_has_expected_shape() {
        let params = threadtest::Params {
            total_objects: 2_000,
            batch: 50,
            size: 8,
            work_per_object: 30,
        };
        let kinds = [
            AllocatorKind::Serial,
            AllocatorKind::Hoard(hoard_core::HoardConfig::new()),
        ];
        let threads = [1usize, 4];
        let series = run_speedup(
            &|alloc, p| threadtest::run(alloc, p, &params),
            &kinds,
            &threads,
        );
        assert_eq!(series.len(), 2);
        let serial = &series[0];
        let hoard = &series[1];
        assert!(
            (serial.points[0].speedup - 1.0).abs() < 0.25,
            "serial at P=1 is the (noisy) baseline: {}",
            serial.points[0].speedup
        );
        assert!(
            hoard.points[1].speedup > serial.points[1].speedup,
            "hoard must beat serial at P=4"
        );
        let table = speedup_table("e2", "threadtest", &threads, &series);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.columns, vec!["P", "serial", "hoard"]);
    }
}
