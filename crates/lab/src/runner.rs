//! Executes scenario cells: runs the classifier, or simulates a cell's
//! vector-consensus engine once and reads the execution through the
//! cell's lens, condensing the outcome into a [`CellRecord`].
//!
//! A run cell's record is a lens over one execution: a raw cell checks
//! Vector Validity on the decided vectors, and a `Universal` cell applies
//! its `Λ` to them (Algorithm 2 decides `Λ(vec)` once the vector engine
//! decides `vec`, and nothing the run sends depends on `Λ`). So cells
//! that differ only in their `Λ` read one execution, and a read checks
//! each distinct decided vector once, not each correct process's copy.
//!
//! Everything here is a pure function of the cell — no globals, no clocks,
//! no thread-local state — which is what lets the executor fan cells out
//! across any number of workers and still aggregate byte-identical results.

use validity_core::{
    classify_with_cost, Classification, Domain, InputConfig, LambdaFn, ProcessId, SystemParams,
    UnsolvableReason, ValidityProperty,
};
use validity_protocols::ProtocolContext;
use validity_simnet::{Machine, NetStats, NoProbe, Probe, RunOutcome, Time};

use crate::matrix::{CellSpec, ClassifyCell, RunCell};

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
    /// it feeds the per-cell timings the benchmark reads (events/sec per
    /// cell).
    pub events: u64,
    /// The run's full simulator counters, for [`NetStats::merge`]-based
    /// pooling in the aggregation layer.
    pub stats: NetStats,
}

impl RunRecord {
    /// The run as the oracles grade it.
    pub fn verdict(&self) -> Verdict {
        Verdict {
            decided: self.decided,
            agreement: self.agreement,
            validity_ok: self.validity_ok,
            quarantined: self.quarantined,
        }
    }
}

/// What one run says about the paper's three properties: the part of a
/// [`RunRecord`] the crosscheck and mutate oracles grade.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Whether every correct process decided.
    pub decided: bool,
    /// Whether Agreement held among correct decisions.
    pub agreement: bool,
    /// Whether every correct decision was admissible (`None` when the run
    /// never decided).
    pub validity_ok: Option<bool>,
    /// Whether the run blew its step budget.
    pub quarantined: bool,
}

/// What kind of wrong a run, or a comparison of two runs, shows; ordered
/// most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// Agreement broke: correct processes decided differently.
    Safety,
    /// A correct process decided a value the property does not admit.
    Validity,
    /// An admissible value other than a reference run's — only a
    /// comparison of two runs (a mutant and its base engine) shows it.
    Value,
    /// Termination failed: the run stalled or blew its step budget.
    Liveness,
}

impl ViolationKind {
    /// The stable label.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::Safety => "safety",
            ViolationKind::Validity => "validity",
            ViolationKind::Value => "value",
            ViolationKind::Liveness => "liveness",
        }
    }
}

impl Verdict {
    /// The most severe property this run broke; `None` when every correct
    /// process decided an admissible value in Agreement.
    pub fn kind(&self) -> Option<ViolationKind> {
        match (self.agreement, self.validity_ok) {
            (false, _) => Some(ViolationKind::Safety),
            (_, Some(false)) => Some(ViolationKind::Validity),
            (_, Some(true)) if self.decided && !self.quarantined => None,
            _ => Some(ViolationKind::Liveness),
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match (self.decided, self.validity_ok) {
            _ if self.quarantined => "quarantined",
            _ if !self.agreement => "violated Agreement",
            (true, Some(true)) => "decided admissibly",
            (_, Some(false)) => "decided inadmissibly",
            (true, None) => "decided, admissibility unchecked",
            (false, _) => "undecided",
        })
    }
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
        CellSpec::Run(c) => record(c, &simulate_engine(c, max_steps, |_| NoProbe).0),
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

/// One simulated execution of a cell's vector engine: everything a
/// [`lens`] reads. Nothing in it depends on the `Λ` a `Universal` cell
/// applies, so every cell with the same engine, inputs, adversary,
/// Byzantine count, schedule, system and seed reads the same execution.
pub(crate) struct Execution<O = InputConfig<u64>> {
    /// Each process's first output and when it came (`None` for an
    /// undecided or Byzantine slot).
    decisions: Vec<Option<(Time, O)>>,
    /// The processes that decided a value no earlier process decided, in
    /// process order: every distinct decision once. Found by comparing
    /// the decisions once here, not in each of the cells that read the
    /// execution.
    distinct: Vec<usize>,
    /// Whether every correct process decided.
    decided: bool,
    /// Why the simulator stopped.
    outcome: RunOutcome,
    /// Simulator events processed.
    events: u64,
    /// The run's simulator counters.
    stats: NetStats,
}

/// Simulates `cell` under `max_steps` with the instrumentation probe
/// `probe(δ)` attached (`δ` the cell's round width, which a
/// [`validity_simnet::Metrics`] probe buckets by), building every machine
/// — each correct node's and each Byzantine face's — with `make` from the
/// cell's [`RunCell::inputs`]. The sweep passes the cell's registry
/// engine; `lab mutate` passes a mutant of it. Probes observe, never
/// perturb, which is what keeps `--observe` runs on the canonical
/// fingerprints.
pub(crate) fn simulate<M, P>(
    cell: &RunCell,
    max_steps: Option<u64>,
    probe: impl FnOnce(Time) -> P,
    make: impl Fn(&ProtocolContext, ProcessId, u64) -> M,
) -> (Execution<M::Output>, P)
where
    M: Machine + 'static,
    M::Output: PartialEq,
    P: Probe,
{
    let params = params_of(cell.n, cell.t);
    let mut builder = cell.schedule.builder(params, cell.seed);
    if let Some(budget) = max_steps {
        builder = builder.max_events(budget);
    }
    let probe = probe(builder.config().delta);
    let gst = builder.config().gst;
    let ctx = ProtocolContext::new(params, cell.seed);
    let inputs = cell.inputs();
    let mk = |p: ProcessId, face: u64| {
        let i = p.index();
        let input = if face == 0 {
            inputs.proposal(i)
        } else {
            inputs.alternate(i)
        };
        make(&ctx, p, input)
    };
    let nodes = cell.behavior.populate(params, cell.byz, gst, &mk);
    let mut sim = builder
        .build_with_probe(nodes, probe)
        .expect("matrix-derived configurations always validate");
    let outcome = sim.run_until_decided();
    let decisions = sim.decisions().to_vec();
    let run = Execution {
        distinct: first_of_each(&decisions),
        decisions,
        decided: sim.all_correct_decided(),
        outcome,
        events: sim.events_processed(),
        stats: sim.stats().clone(),
    };
    (run, sim.into_probe())
}

/// The indices of `decisions` whose value no earlier decision equals.
fn first_of_each<O: PartialEq>(decisions: &[Option<(Time, O)>]) -> Vec<usize> {
    let value = |i: usize| decisions[i].as_ref().map(|(_, v)| v);
    let mut distinct: Vec<usize> = Vec::new();
    for (i, decision) in decisions.iter().enumerate() {
        if let Some((_, v)) = decision {
            if !distinct.iter().any(|&j| value(j) == Some(v)) {
                distinct.push(i);
            }
        }
    }
    distinct
}

/// [`simulate`] with the cell's registry engine.
pub(crate) fn simulate_engine<P: Probe>(
    cell: &RunCell,
    max_steps: Option<u64>,
    probe: impl FnOnce(Time) -> P,
) -> (Execution, P) {
    let engine = cell.protocol.engine;
    simulate(cell, max_steps, probe, |ctx, p, input| {
        engine.machine(ctx, p, input)
    })
}

/// `cell` run on the machines `make` builds, under `max_steps`: the one
/// entry point for a machine that is not the cell's registry engine (a
/// mutant, a test's planted engine).
pub fn run_machines<M: Machine<Output = InputConfig<u64>> + 'static>(
    cell: &RunCell,
    max_steps: Option<u64>,
    make: impl Fn(&ProtocolContext, ProcessId, u64) -> M,
) -> RunRecord {
    lens(cell, &simulate(cell, max_steps, |_| NoProbe, make).0)
}

/// `cell`'s record of `run`, tagged with the cell's keys.
pub(crate) fn record(cell: &RunCell, run: &Execution) -> CellRecord {
    let (key, group) = cell.keys();
    CellRecord {
        key,
        group,
        outcome: Outcome::Run(lens(cell, run)),
    }
}

/// Reads a vector-consensus execution as `cell` grades it.
///
/// A raw cell checks Vector Validity on the decided vectors. A
/// `Universal` cell is Algorithm 2: each correct process decides
/// `Λ(vec)` for its decided vector `vec`, and Agreement, admissibility
/// (against the correct processes' actual inputs) and the reported
/// decision are read over those values. Latency, message and word
/// counts, events and the quarantine flag are the execution's own.
pub(crate) fn lens(cell: &RunCell, run: &Execution) -> RunRecord {
    let params = params_of(cell.n, cell.t);
    if !cell.protocol.universal {
        // Vector Validity: the decided vector has ≥ n − t entries and every
        // entry attributed to a *correct* process carries its real proposal.
        let inputs = cell.inputs();
        let quorum = params.quorum();
        let correct_bound = params.n() - cell.byz;
        return grade(
            run,
            |vector| vector,
            |vector| {
                vector.pi().len() >= quorum
                    && vector.pairs().all(|(p, v)| {
                        p.index() >= correct_bound || *v == inputs.proposal(p.index())
                    })
            },
        );
    }
    let validity = cell
        .validity
        .expect("universal cells always carry a validity");
    let lambda = validity
        .lambda(params)
        .expect("matrix only pairs Universal with Λ-bearing properties");
    universal_lens(cell, run, &*lambda, &*validity.property(params.t()))
}

/// Algorithm 2's reading of `run`: each correct process decides `lambda`
/// of its decided vector, checked by `property` against the correct
/// processes' actual inputs.
fn universal_lens(
    cell: &RunCell,
    run: &Execution,
    lambda: &dyn LambdaFn<u64>,
    property: &dyn ValidityProperty<u64>,
) -> RunRecord {
    let params = params_of(cell.n, cell.t);
    let inputs = cell.inputs();
    let actual = InputConfig::from_pairs(
        params,
        (0..params.n() - cell.byz).map(|i| (i, inputs.proposal(i))),
    )
    .expect("n − byz ≥ n − t pairs are always a valid configuration");
    let decide = |vector: &InputConfig<u64>| {
        lambda.lambda(vector).unwrap_or_else(|e| {
            panic!(
                "{} undefined at decided vector ({e}); the validity \
                 property violates C_S",
                lambda.name()
            )
        })
    };
    grade(run, decide, |v| property.is_admissible(&actual, v))
}

/// The record of `run` whose correct processes each decide `read` of
/// their decided vector, every output checked by `admissible`.
///
/// `read` runs once per distinct decided vector and `admissible` once per
/// distinct output, not once per correct process: a run in vector
/// Agreement reads one vector however many processes decide it.
/// Agreement, admissibility and the first output are the same over the
/// distinct outputs as over every process's.
fn grade<'r, O: std::fmt::Debug + PartialEq>(
    run: &'r Execution,
    read: impl Fn(&'r InputConfig<u64>) -> O,
    admissible: impl Fn(&O) -> bool,
) -> RunRecord {
    let mut first: Option<O> = None;
    // Outputs that differ from the first, each checked once; empty unless
    // Agreement broke.
    let mut others: Vec<O> = Vec::new();
    let mut admissible_all = true;
    for &i in &run.distinct {
        let (_, vector) = run.decisions[i].as_ref().expect("a distinct decision");
        let output = read(vector);
        match &first {
            None => {
                admissible_all = admissible(&output);
                first = Some(output);
            }
            Some(f) if *f == output => {}
            Some(_) if others.contains(&output) => {}
            Some(_) => {
                admissible_all = admissible_all && admissible(&output);
                others.push(output);
            }
        }
    }
    let stats = &run.stats;
    RunRecord {
        decided: run.decided,
        agreement: others.is_empty(),
        validity_ok: first.is_some().then_some(admissible_all),
        messages_after_gst: stats.messages_after_gst,
        words_after_gst: stats.words_after_gst,
        messages_total: stats.messages_total,
        words_total: stats.words_total,
        latency: stats.last_decision_at.unwrap_or(0),
        decision: first
            .map(|o| format!("{o:?}"))
            .unwrap_or_else(|| "⊥".to_string()),
        quarantined: matches!(run.outcome, RunOutcome::EventLimit | RunOutcome::TimeLimit),
        events: run.events,
        stats: stats.clone(),
    }
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
    use crate::matrix::{ProtocolAxis, ScheduleSpec, ValiditySpec};
    use std::sync::atomic::{AtomicU64, Ordering};
    use validity_adversary::BehaviorId;
    use validity_core::{CountingValidity, LambdaError, StrongLambda, StrongValidity};
    use validity_protocols::find_vector;
    use validity_simnet::{agreement_holds, Env, Message, StepSink};

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

    /// A `Universal` cell over `alg1-auth` at `(n, t)` under `validity`,
    /// with `byz` silent processes in a synchronous run.
    fn universal_cell(validity: ValiditySpec, n: usize, t: usize, byz: usize) -> RunCell {
        RunCell {
            protocol: ProtocolAxis::wrapped(find_vector("alg1-auth").unwrap()),
            validity: Some(validity),
            behavior: BehaviorId::Silent,
            byz,
            fault: byz,
            schedule: ScheduleSpec::Synchronous,
            n,
            t,
            seed: 0,
        }
    }

    /// `Λ`, counting its evaluations.
    struct CountingLambda<'a> {
        inner: &'a dyn LambdaFn<u64>,
        evals: AtomicU64,
    }

    impl<'a> CountingLambda<'a> {
        fn new(inner: &'a dyn LambdaFn<u64>) -> Self {
            CountingLambda {
                inner,
                evals: AtomicU64::new(0),
            }
        }

        fn evals(&self) -> u64 {
            self.evals.load(Ordering::Relaxed)
        }
    }

    impl LambdaFn<u64> for CountingLambda<'_> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn lambda(&self, vector: &InputConfig<u64>) -> Result<u64, LambdaError> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            self.inner.lambda(vector)
        }
    }

    /// Algorithm 2 read process by process: `Λ` and the property applied
    /// to every correct decision.
    fn per_decision(cell: &RunCell, run: &Execution) -> RunRecord {
        let params = params_of(cell.n, cell.t);
        let validity = cell.validity.unwrap();
        let lambda = validity.lambda(params).unwrap();
        let decisions: Vec<Option<(Time, u64)>> = run
            .decisions
            .iter()
            .map(|d| d.as_ref().map(|(at, v)| (*at, lambda.lambda(v).unwrap())))
            .collect();
        let actual = InputConfig::from_pairs(
            params,
            (0..cell.n - cell.byz).map(|i| (i, cell.inputs().proposal(i))),
        )
        .unwrap();
        let property = validity.property(cell.t);
        let outputs: Vec<u64> = decisions.iter().flatten().map(|d| d.1).collect();
        RunRecord {
            agreement: agreement_holds(&decisions),
            validity_ok: (!outputs.is_empty())
                .then(|| outputs.iter().all(|v| property.is_admissible(&actual, v))),
            decision: outputs
                .first()
                .map_or_else(|| "⊥".to_string(), |v| format!("{v:?}")),
            ..lens(cell, run)
        }
    }

    /// The counts `universal_lens` makes reading `run` as `cell` under
    /// Strong Validity: `Λ` evaluations and admissibility checks.
    fn strong_reads(cell: &RunCell, run: &Execution) -> (u64, u64, RunRecord) {
        let lambda = CountingLambda::new(&StrongLambda);
        let property = CountingValidity::new(&StrongValidity);
        let record = universal_lens(cell, run, &lambda, &property);
        (lambda.evals(), property.evals(), record)
    }

    #[test]
    fn lambda_is_evaluated_once_per_distinct_decided_vector() {
        let cell = universal_cell(ValiditySpec::Strong, 16, 5, 5);
        let (run, _) = simulate_engine(&cell, None, |_| NoProbe);
        assert!(run.decided);
        assert_eq!(run.decisions.iter().flatten().count(), 11);
        let (evals, checks, record) = strong_reads(&cell, &run);
        assert_eq!((evals, checks), (1, 1));
        assert!(record.agreement && record.validity_ok == Some(true));
        assert_eq!(record, lens(&cell, &run));
        assert_eq!(record, per_decision(&cell, &run));
    }

    #[derive(Clone, Debug)]
    struct Never;

    impl Message for Never {}

    /// Decides its vector at start and sends nothing.
    struct Decides(InputConfig<u64>);

    impl Machine for Decides {
        type Msg = Never;
        type Output = InputConfig<u64>;

        fn init(&mut self, _: &Env, sink: &mut StepSink<Never, InputConfig<u64>>) {
            sink.output(self.0.clone());
        }

        fn on_message(
            &mut self,
            _: ProcessId,
            _: &Never,
            _: &Env,
            _: &mut StepSink<Never, Self::Output>,
        ) {
        }
    }

    /// An execution of `cell` in which even processes decide that the
    /// first `n − t` processes proposed `low`, and odd ones that the last
    /// `n − t` proposed `high`.
    fn split_run(cell: &RunCell, low: u64, high: u64) -> Execution {
        let (n, quorum) = (cell.n, cell.n - cell.t);
        simulate(
            cell,
            None,
            |_| NoProbe,
            |ctx, p, _| {
                let (first, value) = if p.index() % 2 == 0 {
                    (0, low)
                } else {
                    (n - quorum, high)
                };
                let pairs = (first..first + quorum).map(|i| (i, value));
                Decides(InputConfig::from_pairs(ctx.params, pairs).unwrap())
            },
        )
        .0
    }

    #[test]
    fn two_distinct_vectors_are_read_twice() {
        let cell = universal_cell(ValiditySpec::Strong, 7, 2, 0);
        // Two vectors, one value: Agreement holds over what Λ decides.
        let run = split_run(&cell, 0, 0);
        let (evals, checks, record) = strong_reads(&cell, &run);
        assert_eq!((evals, checks), (2, 1));
        assert!(record.decided && record.agreement, "{record:?}");
        assert_eq!(record, per_decision(&cell, &run));
        // Two vectors, two values: each is read and checked once.
        let run = split_run(&cell, 0, 10);
        let (evals, checks, record) = strong_reads(&cell, &run);
        assert_eq!((evals, checks), (2, 2));
        assert!(!record.agreement, "{record:?}");
        assert_eq!(record, per_decision(&cell, &run));
    }

    #[test]
    fn each_distinct_decision_is_found_at_its_first_decider() {
        let decided = |v: u64| Some((0, v));
        let decisions = [
            None,
            decided(7),
            decided(3),
            None,
            decided(7),
            decided(3),
            decided(9),
        ];
        assert_eq!(first_of_each(&decisions), [1, 2, 6]);
        assert_eq!(first_of_each::<u64>(&[None, None]), [] as [usize; 0]);
        // The split run's two vectors: P1 decides the first, P2 the second.
        let cell = universal_cell(ValiditySpec::Strong, 7, 2, 0);
        assert_eq!(split_run(&cell, 0, 10).distinct, [0, 1]);
    }
}
