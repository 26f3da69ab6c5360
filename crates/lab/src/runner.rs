//! Executes a single scenario cell: builds the nodes, runs the simulator
//! (or the classifier), and condenses the outcome into a [`CellRecord`].
//!
//! Everything here is a pure function of the cell — no globals, no clocks,
//! no thread-local state — which is what lets the executor fan cells out
//! across any number of workers and still aggregate byte-identical results.
//! The same purity is what makes sharded sweeps sound: a record computed
//! by shard `i/m` on one machine equals the record an unsharded run would
//! compute for that cell, so [`crate::partial::merge`] can reassemble the
//! exact single-process report from partial runs — no cross-process state
//! exists for the shards to disagree about.

use validity_core::{
    classify_with_cost, Classification, Domain, InputConfig, ProcessId, SystemParams,
    UnsolvableReason,
};
use validity_protocols::{ProtocolContext, Universal};
use validity_simnet::{
    agreement_holds, Machine, NetStats, NoProbe, Probe, RunOutcome, SimBuilder, Simulation, Time,
};

use crate::matrix::{CellSpec, ClassifyCell, RunCell, ValiditySpec};

/// Condensed result of one simulation cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRecord {
    /// Whether every correct process decided.
    pub decided: bool,
    /// Whether Agreement held among correct decisions.
    pub agreement: bool,
    /// Whether every correct decision was admissible for the cell's
    /// validity property (`None` when the run did not decide).
    pub validity_ok: Option<bool>,
    /// Messages sent by correct processes in `[GST, ∞)`.
    pub messages_after_gst: u64,
    /// Words sent by correct processes in `[GST, ∞)`.
    pub words_after_gst: u64,
    /// Messages over the whole execution.
    pub messages_total: u64,
    /// Words over the whole execution.
    pub words_total: u64,
    /// Time of the last correct decision (0 when undecided).
    pub latency: Time,
    /// Debug rendering of the first correct decision.
    pub decision: String,
    /// Whether the run blew its step budget (`ScenarioMatrix::max_steps`)
    /// or the simulator's hard time/event limits and was aborted before
    /// every correct process decided. Quarantined runs are reported
    /// separately and excluded from fit observations.
    pub quarantined: bool,
    /// Simulator events processed (starts + deliveries + timer fires).
    /// Deterministic, but **not** part of any report or partial artifact —
    /// it exists for the `--timing` harness (events/sec per cell).
    pub events: u64,
    /// The run's full simulator counters, for [`NetStats::merge`]-based
    /// pooling in the aggregation layer.
    pub stats: NetStats,
}

/// Condensed result of one classification cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassifyRecord {
    /// The classifier's verdict label.
    pub verdict: String,
    /// The certificate accompanying the verdict.
    pub certificate: String,
    /// `n > 3t` (the regime in which non-trivial solvability is possible).
    pub high_resilience: bool,
    /// Theorem-1 consistency: at `n ≤ 3t`, solvable ⇒ trivial.
    pub theorem1_consistent: bool,
    /// Classification cost: admissibility evaluations performed by the
    /// decision procedure (deterministic; the measure
    /// [`crate::matrix::FitMeasure::ClassifyCost`] fits against the
    /// domain size).
    pub cost: u64,
}

/// The result of one cell, tagged with its stable keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellRecord {
    /// Full per-cell key.
    pub key: String,
    /// Aggregation bucket (equals `key` for classification cells).
    pub group: String,
    /// The outcome payload.
    pub outcome: Outcome,
}

/// Outcome payload of a cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A simulation ran.
    Run(RunRecord),
    /// The classifier ran.
    Classify(ClassifyRecord),
}

/// Executes one cell to completion with no extra step budget.
pub fn execute(cell: &CellSpec) -> CellRecord {
    execute_with_budget(cell, None)
}

/// Executes one cell to completion, aborting (and quarantining) a run cell
/// that processes more than `max_steps` simulator events.
pub fn execute_with_budget(cell: &CellSpec, max_steps: Option<u64>) -> CellRecord {
    match cell {
        CellSpec::Run(c) => execute_run_with_context(&GroupContext::new(c, max_steps), c.seed),
        CellSpec::Classify(c) => CellRecord {
            key: c.key(),
            group: c.key(),
            outcome: Outcome::Classify(execute_classify(c)),
        },
    }
}

fn params_of(n: usize, t: usize) -> SystemParams {
    SystemParams::new(n, t).expect("matrix enumerated an invalid (n, t)")
}

/// The seed-invariant part of executing one run cell.
///
/// The adaptive seed ladder ([`crate::executor::run_adaptive_group`])
/// executes the *same* cell template at many seeds; everything here — the
/// simulator configuration (including its `start_times` vector and any
/// per-link schedule closure), the validity property, the actual input
/// configuration the admissibility check compares against, and the step
/// budget — is a pure function of the template, so it is built once per
/// group instead of once per seed.
pub(crate) struct GroupContext {
    cell: RunCell,
    params: SystemParams,
    /// Budgeted builder template; per-seed execution clones it and swaps
    /// the seed, and `build` validates the nodes against it.
    builder: SimBuilder,
    /// Universal path: the property and actual inputs for the
    /// admissibility check (`None` for raw vector cells).
    universal: Option<UniversalContext>,
}

struct UniversalContext {
    validity: ValiditySpec,
    property: validity_core::DynValidity<u64>,
    actual: InputConfig<u64>,
}

impl GroupContext {
    /// Builds the context for `template` (the template's own seed is
    /// irrelevant; callers pass the per-cell seed at execution time).
    pub(crate) fn new(template: &RunCell, max_steps: Option<u64>) -> GroupContext {
        let params = params_of(template.n, template.t);
        let builder = budgeted(template.schedule.builder(params, 0), max_steps);
        let universal = template.protocol.universal.then(|| {
            let validity = template
                .validity
                .expect("universal cells always carry a validity");
            UniversalContext {
                validity,
                property: validity.property(params.t()),
                actual: actual_config(params, template.byz, |i| validity.input_for(i)),
            }
        });
        GroupContext {
            cell: *template,
            params,
            builder,
            universal,
        }
    }

    /// The cell's `δ` — the natural round width for a
    /// [`validity_simnet::Metrics`] probe observing this group.
    pub(crate) fn round_width(&self) -> Time {
        self.builder.config().delta
    }
}

/// Executes the context's cell template at `seed` (see [`GroupContext`]).
pub(crate) fn execute_run_with_context(ctx: &GroupContext, seed: u64) -> CellRecord {
    execute_run_with_probe(ctx, seed, NoProbe).0
}

/// Executes the context's cell template at `seed` with an instrumentation
/// probe attached, returning the probe alongside the record. The record is
/// byte-identical to the unprobed one — probes observe, never perturb —
/// which is what keeps `--observe` runs on the canonical fingerprints.
pub(crate) fn execute_run_with_probe<P: Probe>(
    ctx: &GroupContext,
    seed: u64,
    probe: P,
) -> (CellRecord, P) {
    let mut cell = ctx.cell;
    cell.seed = seed;
    let (record, probe) = if ctx.universal.is_some() {
        run_universal(&cell, ctx, seed, probe)
    } else {
        run_raw(&cell, ctx, seed, probe)
    };
    (
        CellRecord {
            key: cell.key(),
            group: cell.group_key(),
            outcome: Outcome::Run(record),
        },
        probe,
    )
}

/// The actual input configuration: correct processes only.
fn actual_config(
    params: SystemParams,
    byz: usize,
    input_of: impl Fn(usize) -> u64,
) -> InputConfig<u64> {
    InputConfig::from_pairs(params, (0..params.n() - byz).map(|i| (i, input_of(i))))
        .expect("n − byz ≥ n − t pairs are always a valid configuration")
}

fn collect<M: Machine, P: Probe>(
    sim: &mut Simulation<M, P>,
    check: impl Fn(&M::Output) -> bool,
) -> RunRecord
where
    M::Output: std::fmt::Debug + PartialEq,
{
    let outcome = sim.run_until_decided();
    let quarantined = matches!(outcome, RunOutcome::EventLimit | RunOutcome::TimeLimit);
    let stats = sim.stats();
    let decided = sim.all_correct_decided();
    let decisions = sim.decisions();
    let outputs: Vec<&M::Output> = decisions.iter().flatten().map(|(_, o)| o).collect();
    RunRecord {
        decided,
        agreement: agreement_holds(decisions),
        validity_ok: if outputs.is_empty() {
            None
        } else {
            Some(outputs.iter().all(|o| check(o)))
        },
        messages_after_gst: stats.messages_after_gst,
        words_after_gst: stats.words_after_gst,
        messages_total: stats.messages_total,
        words_total: stats.words_total,
        latency: stats.last_decision_at.unwrap_or(0),
        decision: outputs
            .first()
            .map(|o| format!("{o:?}"))
            .unwrap_or_else(|| "⊥".to_string()),
        quarantined,
        events: sim.events_processed(),
        stats: stats.clone(),
    }
}

/// Applies the matrix's per-cell step budget to a builder template.
fn budgeted(builder: SimBuilder, max_steps: Option<u64>) -> SimBuilder {
    match max_steps {
        Some(budget) => builder.max_events(budget),
        None => builder,
    }
}

fn run_universal<P: Probe>(
    cell: &RunCell,
    gctx: &GroupContext,
    seed: u64,
    probe: P,
) -> (RunRecord, P) {
    let params = gctx.params;
    let uni = gctx
        .universal
        .as_ref()
        .expect("run_universal requires a universal context");
    let validity = uni.validity;
    let ctx = ProtocolContext::new(params, seed);
    let builder = gctx.builder.clone().seed(seed);
    let gst = builder.config().gst;
    let engine = cell.protocol.engine;
    let mk = |p: ProcessId, face: u64| {
        let input = if face == 0 {
            validity.input_for(p.index())
        } else {
            validity.alt_input_for(p.index())
        };
        Universal::new(
            engine.machine(&ctx, p, input),
            validity
                .lambda(params)
                .expect("matrix only pairs Universal with Λ-bearing properties"),
        )
    };
    let nodes = cell.behavior.populate(params, cell.byz, gst, &mk);
    let mut sim = builder
        .build_with_probe(nodes, probe)
        .expect("matrix-derived configurations always validate");
    let record = collect(&mut sim, |v: &u64| {
        uni.property.is_admissible(&uni.actual, v)
    });
    (record, sim.into_probe())
}

fn run_raw<P: Probe>(cell: &RunCell, gctx: &GroupContext, seed: u64, probe: P) -> (RunRecord, P) {
    let params = gctx.params;
    let ctx = ProtocolContext::new(params, seed);
    let builder = gctx.builder.clone().seed(seed);
    let gst = builder.config().gst;
    let engine = cell.protocol.engine;
    let input_of = |i: usize| (i as u64) * 10;
    let mk = |p: ProcessId, face: u64| engine.machine(&ctx, p, input_of(p.index()) + face * 5);
    let nodes = cell.behavior.populate(params, cell.byz, gst, &mk);
    let mut sim = builder
        .build_with_probe(nodes, probe)
        .expect("matrix-derived configurations always validate");
    // Vector Validity: the decided vector has ≥ n − t entries and every
    // entry attributed to a *correct* process carries its real proposal.
    let quorum = params.quorum();
    let correct_bound = params.n() - cell.byz;
    let record = collect(&mut sim, move |vector: &InputConfig<u64>| {
        vector.pi().len() >= quorum
            && vector
                .pairs()
                .all(|(p, v)| p.index() >= correct_bound || *v == input_of(p.index()))
    });
    (record, sim.into_probe())
}

fn execute_classify(cell: &ClassifyCell) -> ClassifyRecord {
    let params = params_of(cell.n, cell.t);
    let domain = Domain::range(cell.domain);
    let property = cell.validity.property(cell.t);
    let (c, cost) = classify_with_cost(&property, params, &domain);
    let certificate = match &c {
        Classification::Trivial { witness } => format!("always-admissible {witness:?}"),
        Classification::SolvableNonTrivial { lambda_table } => {
            format!("Λ table over |I_(n-t)| = {}", lambda_table.len())
        }
        Classification::Unsolvable(UnsolvableReason::LowResilience { rejections }) => {
            format!("{} per-value rejections", rejections.len())
        }
        Classification::Unsolvable(UnsolvableReason::SimilarityViolation { config }) => {
            format!("∩ sim = ∅ at {config:?}")
        }
    };
    ClassifyRecord {
        verdict: c.label().to_string(),
        certificate,
        high_resilience: params.supports_non_trivial(),
        theorem1_consistent: params.supports_non_trivial() || !c.is_solvable() || c.is_trivial(),
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{ProtocolAxis, ScheduleSpec};
    use validity_adversary::BehaviorId;
    use validity_protocols::find_vector;

    fn strong_cell(seed: u64) -> CellSpec {
        CellSpec::Run(RunCell {
            protocol: ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
            validity: Some(ValiditySpec::Strong),
            behavior: BehaviorId::Silent,
            byz: 1,
            fault: 1,
            schedule: ScheduleSpec::Synchronous,
            n: 4,
            t: 1,
            seed,
        })
    }

    #[test]
    fn universal_cell_decides_admissibly() {
        let rec = execute(&strong_cell(1));
        let Outcome::Run(r) = rec.outcome else {
            panic!("expected run outcome")
        };
        assert!(r.decided && r.agreement);
        assert_eq!(r.validity_ok, Some(true));
        assert!(!r.quarantined);
        assert!(r.messages_total > 0);
    }

    #[test]
    fn tiny_step_budget_quarantines_instead_of_running() {
        // A healthy cell needs far more than 3 events to decide: with a
        // 3-event budget the runner must abort it cleanly and mark it.
        let rec = execute_with_budget(&strong_cell(1), Some(3));
        let Outcome::Run(r) = rec.outcome else {
            panic!("expected run outcome")
        };
        assert!(r.quarantined);
        assert!(!r.decided);
        // An ample budget leaves the run untouched.
        let rec = execute_with_budget(&strong_cell(1), Some(10_000_000));
        let Outcome::Run(r) = rec.outcome else {
            panic!("expected run outcome")
        };
        assert!(!r.quarantined);
        assert!(r.decided);
    }

    #[test]
    fn same_cell_is_byte_identical() {
        assert_eq!(execute(&strong_cell(7)), execute(&strong_cell(7)));
    }

    #[test]
    fn raw_vector_cell_checks_vector_validity() {
        let cell = CellSpec::Run(RunCell {
            protocol: ProtocolAxis::raw(find_vector("alg1-auth").unwrap()),
            validity: None,
            behavior: BehaviorId::Crash,
            byz: 1,
            fault: 1,
            schedule: ScheduleSpec::PartialSync,
            n: 4,
            t: 1,
            seed: 3,
        });
        let Outcome::Run(r) = execute(&cell).outcome else {
            panic!("expected run outcome")
        };
        assert!(r.decided && r.agreement);
        assert_eq!(r.validity_ok, Some(true));
    }

    #[test]
    fn classification_cell_matches_fig1() {
        let cell = CellSpec::Classify(ClassifyCell {
            validity: ValiditySpec::Parity,
            n: 4,
            t: 1,
            domain: 2,
        });
        let Outcome::Classify(c) = execute(&cell).outcome else {
            panic!("expected classify outcome")
        };
        assert!(c.verdict.contains("unsolvable"), "{c:?}");
        assert!(c.theorem1_consistent);
    }
}
