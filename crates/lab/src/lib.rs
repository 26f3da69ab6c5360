//! # validity-lab
//!
//! A parallel scenario-sweep engine over the deterministic simulator of
//! *On the Validity of Consensus* (PODC 2023).
//!
//! The paper's results are claims over whole *families* of executions:
//! every validity property, every adversary, every schedule, every
//! `(n, t)`. This crate turns the one-run-at-a-time simulator into an
//! experiment engine that sweeps such families in one shot:
//!
//! * **[`ScenarioMatrix`]** (module [`matrix`]) — the cartesian product of
//!   the experiment axes: protocol (the [`validity_protocols`] registry,
//!   raw or under `Universal`), validity property, Byzantine behaviour
//!   ([`validity_adversary::BehaviorId`]), network schedule, fault load,
//!   `(n, t)`, and seed — plus a grid of solvability-classification cells.
//!   Enumeration order is deterministic, and incompatible combinations
//!   (e.g. `Universal` with a property that violates `C_S`) are skipped.
//! * **[`SweepEngine`]** (module [`executor`]) — fans the cells out across
//!   threads. Simulations are deterministic and independent, so the sweep
//!   is embarrassingly parallel; results are collected *in matrix order*,
//!   making every report byte-for-byte independent of the worker count.
//!   The private `pool` module underneath is the crate's one worker pool:
//!   the sweep, service, crosscheck and mutate drivers all fan out through
//!   its `ordered_map`.
//! * **[`SweepReport`]** (module [`report`]) — per-configuration
//!   aggregation (decision latency, message/word complexity, safety and
//!   validity violations) with JSON and Markdown emitters.
//! * **[`suites`]** — curated matrices reproducing the paper's experiment
//!   families, including the Figure-1 classification grid as one sweep.
//! * **[`sampling`]** (with [`SamplingSpec`] in [`matrix`]) — adaptive,
//!   precision-targeted seed budgets: each run group consumes seeds in
//!   deterministic batches until every fitted measure's 95% CI is tight
//!   enough or a cap is hit, so stable groups stop early and noisy groups
//!   get the budget — at bytes identical across worker counts and shard
//!   layouts.
//! * **[`partial`]** (with [`ShardSpec`] in [`matrix`]) — horizontal
//!   scale-out: `lab run --shard i/m` executes one deterministic slice of
//!   a matrix and emits a partial report; `lab merge` recombines all `m`
//!   partials into a report **byte-identical** to an unsharded run. For
//!   adaptive sweeps the merge runs a two-phase measure/commit protocol,
//!   replaying every shard's stopping decision before accepting it.
//! * **[`trend`]** — the versioned `BENCH_lab.json` artifact plus
//!   historical comparison: `lab trend --baseline` diffs today's fitted
//!   exponents against a previous artifact and fails on regressions.
//! * **[`observe`]** — per-cell engine metrics from the simulator's
//!   zero-cost probe layer (`lab run --observe`, `lab profile`): latency
//!   and queue-depth histograms, per-round traffic, occupancy high-water
//!   marks, and timeline export. Deterministic but non-canonical.
//! * **[`crosscheck`]** — the differential oracle (`lab crosscheck`):
//!   every applicable registry engine, the solvability classifier, and
//!   both report emitters run on identical cells and graded into an
//!   agreement matrix (`full` / `expected-divergence` /
//!   `DISAGREEMENT`), with unexplained splits failing the run.
//! * **[`mutate`]** — the fault-injection harness (`lab mutate`): every
//!   registry engine crossed with a corpus of mutation operators, each
//!   mutant run through the crosscheck oracle next to the clean columns
//!   and reported in a kill matrix — every mutant killed or explicitly
//!   catalogued equivalent, and zero false kills on the clean baseline.
//! * **[`flags`]** — the CLI's one flag table: every `--flag`, the
//!   commands that accept it, and the reason where a command refuses it.
//! * the **`lab`** binary — `run` / `service` / `crosscheck` / `mutate` /
//!   `list` / `diff` / `merge` / `trend` / `profile` over all of the
//!   above, validating every argv against [`flags`].
//!
//! ## Example
//!
//! ```
//! use validity_lab::{suites, SweepEngine};
//!
//! let matrix = suites::build("quick").expect("built-in suite");
//! let (report, run) = SweepEngine::new(2).run(&matrix);
//! assert!(run.threads >= 1);
//! assert_eq!(report.violations(), 0);
//! // Same matrix, different worker count — identical bytes.
//! let (again, _) = SweepEngine::new(1).run(&matrix);
//! assert_eq!(report.to_json(), again.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosscheck;
pub mod executor;
pub mod fit;
pub mod flags;
pub mod json;
pub mod matrix;
pub mod mutate;
pub mod observe;
pub mod partial;
mod pool;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod service;
pub mod suites;
pub mod trend;

pub use crosscheck::{
    classifier_in_band, compare_emitted, execute_crosscheck, grade, run_crosscheck, AgreementLevel,
    CrosscheckCell, CrosscheckMatrix, CrosscheckRecord, CrosscheckReport, EngineColumn,
    EngineOutcome, EngineVerdict, CLASSIFIER_CONFIG_BUDGET, CROSSCHECK_SCHEMA,
};
pub use executor::{
    run_adaptive_group, slowest_first_markdown, timing_markdown, CellTiming, SweepEngine, SweepRun,
};
pub use fit::{fit_exponent, try_fit_exponent, PowerFit};
pub use matrix::{
    CellSpec, ClassifyCell, FitAxis, FitBand, FitMeasure, ProtocolAxis, RunCell, SamplingSpec,
    ScenarioMatrix, ScheduleSpec, ShardSpec, ValiditySpec, WorkUnit,
};
pub use mutate::{
    run_mutate, Fate, MutantFate, MutateMatrix, MutateReport, CATALOGUED_EQUIVALENT, MUTATE_SCHEMA,
};
pub use observe::{
    hottest_by_events, observe_json, observe_markdown, profile_markdown, timeline_for,
    CellObservation, OBSERVE_SCHEMA,
};
pub use partial::{merge, PartialReport, PARTIAL_SCHEMA};
pub use report::{FitRow, GroupSummary, SamplingSection, SweepReport, REPORT_SCHEMA};
pub use runner::{execute, execute_with_budget, CellRecord, ClassifyRecord, Outcome, RunRecord};
pub use sampling::GroupSampling;
pub use service::{
    execute_service, run_service, ServiceCell, ServiceGroup, ServiceMatrix, ServiceRecord,
    ServiceReport, SERVICE_SCHEMA,
};
pub use trend::{compare, BenchArtifact, BenchFit, BenchSuite, TrendDiff, BENCH_SCHEMA};
