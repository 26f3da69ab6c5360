//! The multi-threaded sweep executor.
//!
//! Simulations are deterministic, independent, and CPU-bound, so a sweep is
//! embarrassingly parallel: cells fan out over the lab's one worker pool
//! (the private `pool` module, shared with the service, crosscheck and
//! mutate drivers), which hands results back **in matrix order**. That
//! makes every downstream artifact (aggregation, JSON, Markdown)
//! independent of the worker count and of scheduling noise — run the same
//! matrix on 1 thread or 16 and the report bytes are identical.
//! The executor's only nondeterministic observable is wall-clock time,
//! which is reported separately and never enters reports.

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

/// What a finished sweep hands back: ordered records plus timing.
#[derive(Debug)]
pub struct SweepRun {
    /// One record per cell, in matrix order.
    pub records: Vec<CellRecord>,
    /// Worker-pool width actually used.
    pub threads: usize,
    /// Wall-clock duration of the sweep (excluded from reports).
    pub wall: Duration,
    /// Per-cell wall clock, in record order. Like `wall`, this is a
    /// nondeterministic observable: it feeds the `--timing` harness and
    /// never enters canonical reports.
    pub timings: Vec<CellTiming>,
    /// Per-run-cell engine metrics, in record order, when the engine ran with
    /// [`SweepEngine::observe`]. Unlike `timings` these are fully
    /// deterministic — but still non-canonical: they feed the `--observe`
    /// section and artifacts, never the report. Classification cells run
    /// no simulator and contribute no observation.
    pub observed: Vec<CellObservation>,
}

/// Wall-clock cost of one executed cell of any driver — sweep, service or
/// crosscheck.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// The cell's key.
    pub label: String,
    /// Simulator events processed (classification cells report their
    /// admissibility-evaluation cost instead; service and crosscheck cells
    /// count none and report 0).
    pub events: u64,
    /// Wall-clock duration of the cell.
    pub wall: Duration,
}

/// Renders the timing table appended to Markdown output under `--timing`:
/// one row per cell.
pub fn timing_markdown(timings: &[CellTiming]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("## Timing (wall clock; never part of canonical reports)\n\n");
    out.push_str("One row per **cell** (single seed).\n\n");
    out.push_str("| cell | events | wall ms | events/sec |\n|---|---|---|---|\n");
    let mut events_total = 0u64;
    let mut wall_total = Duration::ZERO;
    for t in timings {
        let secs = t.wall.as_secs_f64();
        let rate = if secs > 0.0 {
            t.events as f64 / secs
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "| {} | {} | {:.3} | {:.0} |",
            t.label,
            t.events,
            secs * 1e3,
            rate
        );
        events_total += t.events;
        wall_total += t.wall;
    }
    let secs = wall_total.as_secs_f64();
    let rate = if secs > 0.0 {
        events_total as f64 / secs
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "| **total** | {events_total} | {:.3} | {:.0} |",
        secs * 1e3,
        rate
    );
    out
}

/// Renders the `--timing` appendix of `lab service` / `lab crosscheck`:
/// per-cell wall clock, slowest first. Diagnostic only — wall time never
/// enters a report.
pub fn slowest_first_markdown(timings: &[CellTiming]) -> String {
    use std::fmt::Write as _;
    let mut rows: Vec<&CellTiming> = timings.iter().collect();
    rows.sort_by(|a, b| b.wall.cmp(&a.wall).then_with(|| a.label.cmp(&b.label)));
    let mut out =
        String::from("## Cell timing (wall clock, slowest first)\n\n| cell | ms |\n|---|---|\n");
    for t in rows {
        let _ = writeln!(out, "| {} | {:.3} |", t.label, t.wall.as_secs_f64() * 1e3);
    }
    out
}

/// Events (or classifier cost) attributed to a record for timing purposes.
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

    /// Executes every cell of `matrix` (under its step budget, if any) and
    /// returns the ordered records.
    pub fn execute(&self, matrix: &ScenarioMatrix) -> SweepRun {
        let (records, wall, timings, observed) =
            self.execute_cells(&matrix.cells(), matrix.max_steps);
        SweepRun {
            records,
            threads: self.threads,
            wall,
            timings,
            observed,
        }
    }

    /// Executes a pre-enumerated cell list (used by `execute` and by the
    /// regression tests that compare worker counts). `max_steps` is the
    /// per-cell step budget; over-budget cells come back quarantined.
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

    /// Executes `matrix` and aggregates into a [`SweepReport`] (fit groups
    /// included, when the matrix declares measures to fit).
    pub fn run(&self, matrix: &ScenarioMatrix) -> (SweepReport, SweepRun) {
        let run = self.execute(matrix);
        let report = SweepReport::aggregate_matrix(matrix, &run.records);
        (report, run)
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
        let run = SweepEngine::new(2).execute(&m);
        let got: Vec<String> = run.records.iter().map(|r| r.key.clone()).collect();
        assert_eq!(keys, got);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let m = matrix();
        let one = SweepEngine::new(1).execute(&m).records;
        let four = SweepEngine::new(4).execute(&m).records;
        assert_eq!(one, four);
    }

    #[test]
    fn observing_does_not_change_records() {
        let m = matrix();
        let plain = SweepEngine::new(2).execute(&m);
        let observed = SweepEngine::new(2).observe(true).execute(&m);
        assert_eq!(plain.records, observed.records);
        assert!(plain.observed.is_empty());
        assert_eq!(observed.observed.len(), m.cells().len());
    }

    /// Single source of truth: the metrics probe's event count per cell is
    /// the same number the `--timing` harness reports (both are
    /// `Simulation::events_processed`, counted at the same hook).
    #[test]
    fn observed_events_match_timing_events() {
        let m = matrix();
        let run = SweepEngine::new(1).observe(true).execute(&m);
        assert_eq!(run.observed.len(), run.timings.len());
        for (obs, timing) in run.observed.iter().zip(&run.timings) {
            assert_eq!(obs.label, timing.label);
            assert_eq!(
                obs.metrics.events, timing.events,
                "probe and timing disagree for {}",
                obs.label
            );
        }
    }

    #[test]
    fn slowest_first_orders_by_wall_then_label() {
        let row = |label: &str, ms| CellTiming {
            label: label.into(),
            events: 0,
            wall: Duration::from_millis(ms),
        };
        let md = slowest_first_markdown(&[row("b", 1), row("slow", 9), row("a", 1)]);
        let rows: Vec<&str> = md.lines().filter(|l| l.ends_with(" |")).skip(1).collect();
        assert_eq!(rows, ["| slow | 9.000 |", "| a | 1.000 |", "| b | 1.000 |"]);
    }

    #[test]
    fn timing_markdown_labels_the_row_unit() {
        let timings = vec![CellTiming {
            label: "k".into(),
            events: 10,
            wall: Duration::from_millis(1),
        }];
        let md = timing_markdown(&timings);
        assert!(md.contains("| cell |"));
        assert!(md.contains("per **cell**"));
    }
}
