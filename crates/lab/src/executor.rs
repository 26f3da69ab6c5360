//! The multi-threaded sweep executor.
//!
//! Simulations are deterministic, independent, and CPU-bound, so a sweep is
//! embarrassingly parallel: cells fan out over the lab's one worker pool
//! (the private `pool` module, shared with the service, crosscheck and
//! mutate drivers), which hands results back **in matrix order**. That
//! makes every downstream artifact (aggregation, JSON, Markdown)
//! independent of the worker count and of scheduling noise — run the same
//! matrix on 1 thread or 16 and the report bytes are identical.
//! The executor's only nondeterministic observable is wall-clock time:
//! [`SweepEngine::execute_cells`] hands it back for the benchmark, and it
//! never enters a lab report.

use std::time::{Duration, Instant};

use validity_simnet::Metrics;

use crate::matrix::{CellSpec, ScenarioMatrix};
use crate::observe::CellObservation;
use crate::pool;
use crate::report::SweepReport;
use crate::runner::{execute_with_budget, run_cell, CellRecord, Outcome};

/// The sweep engine: a worker-pool width plus an observe switch.
#[derive(Clone, Copy, Debug)]
pub struct SweepEngine {
    threads: usize,
    observe: bool,
}

/// Wall-clock cost of one executed cell of a sweep or of the service
/// driver: the benchmark's per-cell sample, never part of a lab report.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// The cell's key.
    pub label: String,
    /// Simulator events processed (classification cells report their
    /// admissibility-evaluation cost instead; service cells count none and
    /// report 0).
    pub events: u64,
    /// Wall-clock duration of the cell.
    pub wall: Duration,
}

/// Events (or classifier cost) attributed to a record's timing.
fn record_events(record: &CellRecord) -> u64 {
    match &record.outcome {
        Outcome::Run(r) => r.events,
        Outcome::Classify(c) => c.cost,
    }
}

impl SweepEngine {
    /// Creates an engine with the given worker count; `0` means one worker
    /// per available core.
    pub fn new(threads: usize) -> Self {
        SweepEngine {
            threads: pool::width(threads),
            observe: false,
        }
    }

    /// The worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enables (or disables) engine observation: run cells execute with a
    /// [`Metrics`] probe attached and the sweep returns per-cell
    /// [`CellObservation`]s. Records and reports are byte-identical either
    /// way — probes observe, never perturb (builder-style).
    pub fn observe(mut self, on: bool) -> Self {
        self.observe = on;
        self
    }

    /// Whether this engine observes run cells.
    pub fn observing(&self) -> bool {
        self.observe
    }

    /// Executes a pre-enumerated cell list and returns the ordered
    /// records, the sweep's wall clock, per-cell timings and — when the
    /// engine observes — per-run-cell observations, all in record order.
    /// `max_steps` is the per-cell step budget; over-budget cells come
    /// back quarantined. Observations are deterministic but still
    /// non-canonical: they feed the `--observe` section and artifacts,
    /// never the report, and classification cells contribute none.
    pub fn execute_cells(
        &self,
        cells: &[CellSpec],
        max_steps: Option<u64>,
    ) -> (
        Vec<CellRecord>,
        Duration,
        Vec<CellTiming>,
        Vec<CellObservation>,
    ) {
        let started = Instant::now();
        let results = pool::ordered_map(self.threads, cells.len(), |i| {
            match (&cells[i], self.observe) {
                (CellSpec::Run(c), true) => {
                    let (record, m) = run_cell(c, max_steps, Metrics::new);
                    (record, Some(m))
                }
                (cell, _) => (execute_with_budget(cell, max_steps), None),
            }
        });
        let mut records = Vec::with_capacity(cells.len());
        let mut timings = Vec::with_capacity(cells.len());
        let mut observed = Vec::new();
        for ((record, metrics), wall) in results {
            if let (Some(metrics), Outcome::Run(r)) = (metrics, &record.outcome) {
                observed.push(CellObservation {
                    label: record.key.clone(),
                    metrics,
                    equivocations: r.stats.equivocations,
                    omissions: r.stats.omissions,
                });
            }
            timings.push(CellTiming {
                label: record.key.clone(),
                events: record_events(&record),
                wall,
            });
            records.push(record);
        }
        (records, started.elapsed(), timings, observed)
    }

    /// Executes every cell of `matrix` (under its step budget, if any)
    /// and aggregates into a [`SweepReport`] (fit groups included, when
    /// the matrix declares measures to fit), with the observations of an
    /// observing engine.
    pub fn run(&self, matrix: &ScenarioMatrix) -> (SweepReport, Vec<CellObservation>) {
        let (records, _, _, observed) = self.execute_cells(&matrix.cells(), matrix.max_steps);
        (SweepReport::aggregate_matrix(matrix, &records), observed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ProtocolAxis, ScheduleSpec, ValiditySpec};
    use validity_adversary::BehaviorId;
    use validity_protocols::find_vector;

    fn matrix() -> ScenarioMatrix {
        let mut m = ScenarioMatrix::new("exec-test");
        m.protocols = vec![ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap())];
        m.validities = vec![ValiditySpec::Strong, ValiditySpec::Median];
        m.behaviors = vec![BehaviorId::Silent];
        m.faults = vec![1];
        m.schedules = vec![ScheduleSpec::Synchronous, ScheduleSpec::PartialSync];
        m.systems = vec![(4, 1)];
        m.seeds = 0..3;
        m
    }

    #[test]
    fn zero_threads_resolves_to_one_worker_per_core() {
        assert!(SweepEngine::new(0).threads() >= 1);
        assert_eq!(SweepEngine::new(3).threads(), 3);
    }

    #[test]
    fn records_come_back_in_matrix_order() {
        let m = matrix();
        let keys: Vec<String> = m.cells().iter().map(|c| c.key()).collect();
        let (report, _) = SweepEngine::new(2).run(&m);
        let got: Vec<String> = report.cells.iter().map(|r| r.key.clone()).collect();
        assert_eq!(keys, got);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let m = matrix();
        let one = SweepEngine::new(1).run(&m).0.cells;
        let four = SweepEngine::new(4).run(&m).0.cells;
        assert_eq!(one, four);
    }

    #[test]
    fn observing_does_not_change_records() {
        let m = matrix();
        let (plain, none) = SweepEngine::new(2).run(&m);
        let (observing, observed) = SweepEngine::new(2).observe(true).run(&m);
        assert_eq!(plain.cells, observing.cells);
        assert!(none.is_empty());
        assert_eq!(observed.len(), m.cells().len());
    }

    /// Single source of truth: the metrics probe's event count per cell is
    /// the same number the per-cell timings carry (both are
    /// `Simulation::events_processed`, counted at the same hook).
    #[test]
    fn observed_events_match_timing_events() {
        let m = matrix();
        let (_, _, timings, observed) = SweepEngine::new(1)
            .observe(true)
            .execute_cells(&m.cells(), m.max_steps);
        assert_eq!(observed.len(), timings.len());
        for (obs, timing) in observed.iter().zip(&timings) {
            assert_eq!(obs.label, timing.label);
            assert_eq!(
                obs.metrics.events, timing.events,
                "probe and timing disagree for {}",
                obs.label
            );
        }
    }
}
