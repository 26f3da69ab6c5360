//! The multi-threaded sweep executor.
//!
//! Simulations are deterministic, independent, and CPU-bound, so a sweep is
//! embarrassingly parallel: cells fan out over the lab's one worker pool
//! (the private `pool` module), which hands results back **in matrix
//! order**. That makes every downstream artifact (aggregation, JSON,
//! Markdown) independent of the worker count and of scheduling noise —
//! run the same matrix on 1 thread or 16 and the report bytes are
//! identical. The crosscheck and mutate engine columns are cells here too.
//! The executor's only nondeterministic observable is wall-clock time:
//! [`SweepEngine::execute_cells`] hands it back for the benchmark, and it
//! never enters a lab report.

use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

use validity_simnet::{Metrics, NoProbe, Probe, Time};

use crate::matrix::{CellSpec, Inputs, ProtocolAxis, RunCell, ScenarioMatrix};
use crate::observe::CellObservation;
use crate::pool;
use crate::report::SweepReport;
use crate::runner::{execute_with_budget, record, simulate_engine, CellRecord, Outcome};

/// The sweep engine: a worker-pool width plus an observe switch.
#[derive(Clone, Copy, Debug)]
pub struct SweepEngine {
    threads: usize,
    observe: bool,
}

/// Wall-clock cost of one executed cell of a sweep or of the service
/// driver: the benchmark's per-cell sample, never part of a lab report.
/// Timings come back in cell order, so the cell (or its record) names
/// each one.
#[derive(Clone, Debug)]
pub struct CellTiming {
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
    ///
    /// Run cells that differ only in their `Λ` — same engine,
    /// [`RunCell::inputs`], adversary, Byzantine count, schedule, system
    /// and seed — share one execution, simulated once: each member reads
    /// its record from that run, and an observing engine gives every
    /// member the run's metrics. The shared
    /// simulation's wall clock is charged to the unit's first member;
    /// every other member is charged only for reading its record.
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
        let units = execution_units(cells);
        let results = pool::ordered_map(self.threads, units.len(), |u| {
            let members = &units[u];
            match (&cells[members[0]], self.observe) {
                (CellSpec::Classify(_), _) => {
                    let started = Instant::now();
                    let record = execute_with_budget(&cells[members[0]], max_steps);
                    (vec![(record, started.elapsed())], None)
                }
                (_, true) => {
                    let (records, metrics) = run_unit(cells, members, max_steps, Metrics::new);
                    (records, Some(Box::new(metrics)))
                }
                (_, false) => (run_unit(cells, members, max_steps, |_| NoProbe).0, None),
            }
        });
        let mut unit_of = vec![0; cells.len()];
        for (u, members) in units.iter().enumerate() {
            for &i in members {
                unit_of[i] = u;
            }
        }
        let mut outs: Vec<_> = results
            .map(|((records, metrics), _)| (records.into_iter(), metrics))
            .collect();
        let mut records = Vec::with_capacity(cells.len());
        let mut timings = Vec::with_capacity(cells.len());
        let mut observed = Vec::new();
        // A unit's members ascend, so walking the cells in order takes
        // each unit's records in order.
        for u in unit_of {
            let (unit, metrics) = &mut outs[u];
            let (record, wall) = unit.next().expect("one record per member");
            if let (Some(metrics), Outcome::Run(r)) = (metrics, &record.outcome) {
                observed.push(CellObservation {
                    label: record.key.clone(),
                    metrics: Metrics::clone(metrics),
                    equivocations: r.stats.equivocations,
                    omissions: r.stats.omissions,
                });
            }
            timings.push(CellTiming {
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

/// What one simulation of `c` depends on: its input family, and the cell
/// itself as a raw column of its engine — everything but the `Λ` a
/// `Universal` cell applies after its vector engine decides (the fault
/// load only names fit groups; `byz` is what runs).
fn execution_key(c: &RunCell) -> (Inputs, RunCell) {
    let raw = RunCell {
        protocol: ProtocolAxis::raw(c.protocol.engine),
        validity: None,
        fault: 0,
        ..*c
    };
    (c.inputs(), raw)
}

/// Partitions `cells` into execution units, each a list of cell indices
/// in matrix order: run cells with equal [`execution_key`]s share one unit,
/// and every classification cell is a unit of its own. Units come in the
/// order of their first members.
fn execution_units(cells: &[CellSpec]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut index: HashMap<(Inputs, RunCell), usize> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        match cell {
            CellSpec::Run(c) => match index.entry(execution_key(c)) {
                Entry::Occupied(unit) => units[*unit.get()].push(i),
                Entry::Vacant(slot) => {
                    slot.insert(units.len());
                    units.push(vec![i]);
                }
            },
            CellSpec::Classify(_) => units.push(vec![i]),
        }
    }
    units
}

/// Simulates the execution the run cells `members` share once, with
/// `probe` attached, and returns each member's record and wall clock (the
/// first member's includes the simulation), and the probe.
fn run_unit<P: Probe>(
    cells: &[CellSpec],
    members: &[usize],
    max_steps: Option<u64>,
    probe: impl FnOnce(Time) -> P,
) -> (Vec<(CellRecord, Duration)>, P) {
    let run_cell = |i: usize| match &cells[i] {
        CellSpec::Run(c) => c,
        CellSpec::Classify(_) => unreachable!("classification cells are units of their own"),
    };
    let mut started = Instant::now();
    let (run, probe) = simulate_engine(run_cell(members[0]), max_steps, probe);
    let records = members
        .iter()
        .map(|&i| {
            let record = record(run_cell(i), &run);
            let wall = started.elapsed();
            started = Instant::now();
            (record, wall)
        })
        .collect();
    (records, probe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ScheduleSpec, ValiditySpec};
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

    /// A raw column and three `Universal` columns over one engine: the
    /// two decimal properties share the raw column's executions, and
    /// correct-proposal (binary inputs) runs its own.
    fn shared_matrix() -> ScenarioMatrix {
        let engine = find_vector("alg1-auth").unwrap();
        let mut m = matrix();
        m.protocols = vec![ProtocolAxis::raw(engine), ProtocolAxis::wrapped(engine)];
        m.validities = vec![
            ValiditySpec::Strong,
            ValiditySpec::Median,
            ValiditySpec::CorrectProposal,
        ];
        m.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
        m.faults = vec![0, 1];
        m.seeds = 0..2;
        m.classifications = vec![crate::matrix::ClassifyCell {
            validity: ValiditySpec::Strong,
            n: 4,
            t: 1,
            domain: 2,
        }];
        m
    }

    #[test]
    fn execution_units_share_runs_across_decimal_lambdas_only() {
        let cells = shared_matrix().cells();
        let units = execution_units(&cells);
        // Per (behaviour, fault, schedule, seed): one unit for raw +
        // strong + median, one for correct-proposal; plus the classifier.
        let run_cells = cells.len() - 1;
        assert_eq!(units.len(), 1 + run_cells / 4 * 2);
        for members in &units {
            let kinds: Vec<Inputs> = members
                .iter()
                .filter_map(|&i| match &cells[i] {
                    CellSpec::Run(c) => Some(c.inputs()),
                    CellSpec::Classify(_) => None,
                })
                .collect();
            assert!(kinds.windows(2).all(|w| w[0] == w[1]), "{members:?}");
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            assert!(matches!(members.len(), 1 | 3), "{members:?}");
        }
    }

    #[test]
    fn shared_executions_equal_cell_by_cell_execution() {
        let m = shared_matrix();
        let cells = m.cells();
        let alone: Vec<CellRecord> = cells
            .iter()
            .map(|c| execute_with_budget(c, m.max_steps))
            .collect();
        for threads in [1, 2] {
            let engine = SweepEngine::new(threads).observe(true);
            let (records, _, timings, observed) = engine.execute_cells(&cells, m.max_steps);
            assert_eq!(records, alone, "threads = {threads}");
            assert_eq!(timings.len(), cells.len(), "one timing per cell");
            let events: Vec<u64> = timings.iter().map(|t| t.events).collect();
            let want: Vec<u64> = records.iter().map(record_events).collect();
            assert_eq!(events, want, "timings in matrix order");
            // Each observation equals the cell's own observed run.
            let runs = cells.iter().filter(|c| matches!(c, CellSpec::Run(_)));
            assert_eq!(observed.len(), runs.clone().count());
            for (cell, obs) in runs.zip(&observed) {
                let (_, _, _, own) = engine.execute_cells(std::slice::from_ref(cell), m.max_steps);
                assert_eq!(own.len(), 1);
                assert_eq!(obs.label, own[0].label);
                assert_eq!(obs.metrics, own[0].metrics, "{}", obs.label);
                assert_eq!(
                    (obs.equivocations, obs.omissions),
                    (own[0].equivocations, own[0].omissions)
                );
            }
        }
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
            assert_eq!(
                obs.metrics.events, timing.events,
                "probe and timing disagree for {}",
                obs.label
            );
        }
    }
}
