//! The multi-threaded sweep executor.
//!
//! Simulations are deterministic, independent, and CPU-bound, so a sweep is
//! embarrassingly parallel: cells (or adaptive work units) fan out over the
//! lab's one worker pool (the private `pool` module, shared with the service,
//! crosscheck and mutate drivers), which hands results back **in matrix
//! order**. That makes every downstream artifact (aggregation, JSON,
//! Markdown) independent of the worker count and of scheduling noise — run
//! the same matrix on 1 thread or 16 and the report bytes are identical.
//! The executor's only nondeterministic observable is wall-clock time,
//! which is reported separately and never enters reports.

use std::time::{Duration, Instant};

use validity_simnet::Metrics;

use crate::matrix::{CellSpec, RunCell, SamplingSpec, ScenarioMatrix, ShardSpec, WorkUnit};
use crate::observe::CellObservation;
use crate::pool;
use crate::report::SweepReport;
use crate::runner::{
    execute_run_with_context, execute_run_with_probe, execute_with_budget, CellRecord,
    GroupContext, Outcome,
};
use crate::sampling;

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
    /// Per-cell wall clock (fixed sweeps) or per-work-unit wall clock
    /// (adaptive sweeps), in record/unit order. Like `wall`, this is a
    /// nondeterministic observable: it feeds the `--timing` harness and
    /// never enters canonical reports.
    pub timings: Vec<CellTiming>,
    /// Per-cell (fixed sweeps) or per-work-unit (adaptive sweeps) engine
    /// metrics, aligned with `timings`, when the engine ran with
    /// [`SweepEngine::observe`]. Unlike `timings` these are fully
    /// deterministic — but still non-canonical: they feed the `--observe`
    /// section and artifacts, never the report. Classification cells run
    /// no simulator and contribute no observation.
    pub observed: Vec<CellObservation>,
}

/// Wall-clock cost of one executed cell (or adaptive work unit) of any
/// driver — sweep, service or crosscheck.
#[derive(Clone, Debug)]
pub struct CellTiming {
    /// The cell's key (fixed sweeps, service and crosscheck cells) or the
    /// group key (adaptive units).
    pub label: String,
    /// Simulator events processed (classification cells report their
    /// admissibility-evaluation cost instead; service and crosscheck cells
    /// count none and report 0).
    pub events: u64,
    /// Wall-clock duration of the cell/unit.
    pub wall: Duration,
}

/// Renders the timing table appended to Markdown output under `--timing`.
///
/// `adaptive` selects the row-unit label: a fixed sweep times each *cell*,
/// an adaptive sweep times each *work unit* (a whole seed ladder, many
/// cells deep, or one classification cell). The header names the unit so
/// the two modes cannot be misread as comparable events/sec figures.
pub fn timing_markdown(timings: &[CellTiming], adaptive: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("## Timing (wall clock; never part of canonical reports)\n\n");
    if adaptive {
        out.push_str(
            "Adaptive sampling: one row per **work unit** (a full seed \
             ladder, or one classification cell) — events/sec is per unit \
             and not comparable with fixed-sweep per-cell rows.\n\n",
        );
        out.push_str("| work unit | events | wall ms | events/sec |\n|---|---|---|---|\n");
    } else {
        out.push_str("One row per **cell** (single seed).\n\n");
        out.push_str("| cell | events | wall ms | events/sec |\n|---|---|---|---|\n");
    }
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

/// The adversary's self-reported `(equivocations, omissions)` for one
/// record — zero everywhere except under behaviours that file them.
fn record_adversary_notes(record: &CellRecord) -> (u64, u64) {
    match &record.outcome {
        Outcome::Run(r) => (r.stats.equivocations, r.stats.omissions),
        Outcome::Classify(_) => (0, 0),
    }
}

/// Files one executed pool item — a cell, or an adaptive work unit with
/// all its records — as a timing row plus, when it ran probed, an
/// observation.
fn file_item(
    label: String,
    records: &[CellRecord],
    wall: Duration,
    metrics: Option<Metrics>,
    timings: &mut Vec<CellTiming>,
    observed: &mut Vec<CellObservation>,
) {
    if let Some(metrics) = metrics {
        let (equivocations, omissions) = records
            .iter()
            .map(record_adversary_notes)
            .fold((0, 0), |(e, o), (de, dol)| (e + de, o + dol));
        observed.push(CellObservation {
            label: label.clone(),
            metrics,
            equivocations,
            omissions,
        });
    }
    timings.push(CellTiming {
        label,
        events: records.iter().map(record_events).sum(),
        wall,
    });
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
    /// [`Metrics`] probe attached and the sweep returns per-cell/unit
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
    /// returns the ordered records: [`SweepEngine::execute_shard`] of the
    /// trivial one-shard partition.
    pub fn execute(&self, matrix: &ScenarioMatrix) -> SweepRun {
        self.execute_shard(matrix, ShardSpec::full())
    }

    /// Executes one shard of `matrix` (see [`crate::matrix::ShardSpec`]):
    /// only the cells the shard owns run, in matrix order, under the
    /// matrix's step budget. The records are exactly the sub-list an
    /// unsharded [`SweepEngine::execute`] would produce for those cells —
    /// cell execution is a pure function of the cell — which is what lets
    /// [`crate::partial::merge`] reassemble byte-identical reports from
    /// partial runs on different processes or machines.
    ///
    /// Adaptive matrices ([`ScenarioMatrix::sampling`]) run the per-group
    /// seed ladder instead of the fixed seed range, and shard at the
    /// *work-unit* granularity (round-robin over classification cells and
    /// whole run groups): a group's stopping decision depends on its own
    /// records, so the shard that owns a group runs its entire seed ladder
    /// and arrives at exactly the stopping point the unsharded run would —
    /// no coordination, same bytes.
    pub fn execute_shard(&self, matrix: &ScenarioMatrix, shard: ShardSpec) -> SweepRun {
        let (records, wall, timings, observed) = if matrix.sampling.is_some() {
            self.execute_units(matrix, &matrix.shard_units(shard))
        } else {
            self.execute_cells(&matrix.shard_cells(shard), matrix.max_steps)
        };
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
                    let ctx = GroupContext::new(c, max_steps);
                    let probe = Metrics::new(ctx.round_width());
                    let (record, m) = execute_run_with_probe(&ctx, c.seed, probe);
                    (record, Some(m))
                }
                (cell, _) => (execute_with_budget(cell, max_steps), None),
            }
        });
        let mut records = Vec::with_capacity(cells.len());
        let mut timings = Vec::with_capacity(cells.len());
        let mut observed = Vec::new();
        for ((record, metrics), wall) in results {
            let label = record.key.clone();
            let one = std::slice::from_ref(&record);
            file_item(label, one, wall, metrics, &mut timings, &mut observed);
            records.push(record);
        }
        (records, started.elapsed(), timings, observed)
    }

    /// Executes a pre-enumerated work-unit list under the matrix's
    /// sampling spec — the adaptive counterpart of
    /// [`SweepEngine::execute_cells`]. Units fan out across the worker
    /// pool; results are read back in unit order (then seed order within
    /// a group), so the flattened record list is independent of the
    /// worker count.
    pub fn execute_units(
        &self,
        matrix: &ScenarioMatrix,
        units: &[WorkUnit],
    ) -> (
        Vec<CellRecord>,
        Duration,
        Vec<CellTiming>,
        Vec<CellObservation>,
    ) {
        let spec = matrix
            .sampling
            .expect("execute_units requires an adaptive matrix");
        let started = Instant::now();
        let results = pool::ordered_map(self.threads, units.len(), |i| match &units[i] {
            WorkUnit::Classify(c) => (
                vec![execute_with_budget(
                    &CellSpec::Classify(*c),
                    matrix.max_steps,
                )],
                None,
            ),
            WorkUnit::Group(template) if self.observe => {
                let (records, m) = run_adaptive_group_observed(
                    template,
                    &spec,
                    &matrix.fit_measures,
                    matrix.seeds.start,
                    matrix.max_steps,
                );
                (records, Some(m))
            }
            WorkUnit::Group(template) => (
                run_adaptive_group(
                    template,
                    &spec,
                    &matrix.fit_measures,
                    matrix.seeds.start,
                    matrix.max_steps,
                ),
                None,
            ),
        });
        let mut records = Vec::new();
        let mut timings = Vec::with_capacity(units.len());
        let mut observed = Vec::new();
        for (((unit_records, metrics), wall), unit) in results.zip(units) {
            let label = match unit {
                WorkUnit::Classify(c) => c.key(),
                WorkUnit::Group(template) => template.group_key(),
            };
            file_item(
                label,
                &unit_records,
                wall,
                metrics,
                &mut timings,
                &mut observed,
            );
            records.extend(unit_records);
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

/// Runs one group's adaptive seed ladder: batches of `spec.batch` seeds
/// from `first_seed`, stopping at the first stable prefix or when the next
/// batch would exceed the seed cap. The result is a pure function of the
/// group template and the spec — the invariant the whole adaptive
/// determinism story (worker counts, shard layouts, merge verification)
/// rests on.
pub fn run_adaptive_group(
    template: &RunCell,
    spec: &SamplingSpec,
    measures: &[crate::matrix::FitMeasure],
    first_seed: u64,
    max_steps: Option<u64>,
) -> Vec<CellRecord> {
    // Everything seed-invariant (the SimConfig with its start_times vector
    // and schedule closures, the validity property, the actual-input
    // configuration) is built once for the whole ladder instead of once
    // per seed.
    let context = GroupContext::new(template, max_steps);
    run_ladder(
        &context,
        template,
        spec,
        measures,
        first_seed,
        execute_run_with_context,
    )
}

/// [`run_adaptive_group`] with a [`Metrics`] probe on every seed, folded
/// into one per-group observation. The record ladder — including its
/// stopping point — is byte-identical to the unobserved one: the probe is
/// outside the stability decision entirely.
pub(crate) fn run_adaptive_group_observed(
    template: &RunCell,
    spec: &SamplingSpec,
    measures: &[crate::matrix::FitMeasure],
    first_seed: u64,
    max_steps: Option<u64>,
) -> (Vec<CellRecord>, Metrics) {
    let context = GroupContext::new(template, max_steps);
    let mut metrics = Metrics::new(context.round_width());
    let records = run_ladder(
        &context,
        template,
        spec,
        measures,
        first_seed,
        |ctx, seed| {
            let (record, m) = execute_run_with_probe(ctx, seed, Metrics::new(ctx.round_width()));
            metrics.merge(&m);
            record
        },
    );
    (records, metrics)
}

/// The shared seed-ladder loop: batches of `spec.batch` seeds from
/// `first_seed`, stopping at the first stable prefix or when the next
/// batch would exceed the seed cap. `exec` runs one seed; the stopping
/// decision is a pure function of the records it returns.
fn run_ladder(
    context: &GroupContext,
    template: &RunCell,
    spec: &SamplingSpec,
    measures: &[crate::matrix::FitMeasure],
    first_seed: u64,
    mut exec: impl FnMut(&GroupContext, u64) -> CellRecord,
) -> Vec<CellRecord> {
    let batch = spec.batch_size();
    let mut records: Vec<CellRecord> = Vec::new();
    loop {
        let from = records.len() as u64;
        for s in from..from + batch {
            records.push(exec(context, first_seed + s));
        }
        let consumed = records.len() as u64;
        if sampling::is_stable(&records, measures, spec.precision)
            || consumed + batch > spec.max_seeds
        {
            debug_assert_eq!(
                sampling::expected_consumed(&records, spec, measures),
                consumed,
                "adaptive loop and replay disagree for {}",
                template.group_key()
            );
            return records;
        }
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
    fn adaptive_observation_pools_the_whole_ladder() {
        let mut m = matrix();
        m.sampling = Some(crate::matrix::SamplingSpec::default());
        let plain = SweepEngine::new(2).execute(&m);
        let observed = SweepEngine::new(2).observe(true).execute(&m);
        assert_eq!(plain.records, observed.records);
        // One observation per run group (this matrix has no classify cells).
        assert_eq!(observed.observed.len(), observed.timings.len());
        for (obs, timing) in observed.observed.iter().zip(&observed.timings) {
            assert_eq!(obs.label, timing.label);
            assert_eq!(obs.metrics.events, timing.events);
        }
    }

    #[test]
    fn execute_is_the_full_shard_in_both_modes() {
        let mut m = matrix();
        for sampling in [None, Some(crate::matrix::SamplingSpec::default())] {
            m.sampling = sampling;
            let whole = SweepEngine::new(2).execute(&m);
            let sharded = SweepEngine::new(2).execute_shard(&m, ShardSpec::full());
            assert_eq!(whole.records, sharded.records);
            assert_eq!(whole.threads, 2);
            let halves: usize = (1..=2)
                .map(|index| ShardSpec { index, count: 2 })
                .map(|shard| SweepEngine::new(1).execute_shard(&m, shard).records.len())
                .sum();
            assert_eq!(halves, whole.records.len());
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
        let fixed = timing_markdown(&timings, false);
        let adaptive = timing_markdown(&timings, true);
        assert!(fixed.contains("| cell |"));
        assert!(fixed.contains("per **cell**"));
        assert!(adaptive.contains("| work unit |"));
        assert!(adaptive.contains("not comparable"));
    }
}
