//! A sweep runs each vector-consensus execution once and reads every
//! `Universal` cell from it by applying `Λ` to the decided vectors. This
//! suite holds that lens to the machine it stands for: Algorithm 2 as the
//! paper writes it, `Universal` wrapped around the registry engine in
//! every correct process and every Byzantine face, simulated cell by cell.
//! The two records must agree field for field, simulator counters and
//! event counts included, over every engine in its band, every runnable
//! property, every adversary (adaptive ones included), every schedule,
//! both fault loads and two system sizes.

use validity_adversary::BehaviorId;
use validity_core::{InputConfig, ProcessId, SystemParams};
use validity_lab::runner::run_machines;
use validity_lab::{
    CellSpec, CrosscheckMatrix, Outcome, ProtocolAxis, RunCell, RunRecord, ScenarioMatrix,
    ScheduleSpec, SweepEngine, ValiditySpec,
};
use validity_protocols::{find_vector, vector_registry, ProtocolContext, Universal};
use validity_simnet::{agreement_holds, Env, Machine, Message, RunOutcome, StepSink};

/// Flood adversaries never let a run quiesce; the budget ends them.
const BUDGET: u64 = 20_000;

/// `cell` simulated as Algorithm 2 itself, over the vector-consensus
/// machines `make` builds.
fn reference<M>(cell: &RunCell, make: impl Fn(&ProtocolContext, ProcessId, u64) -> M) -> RunRecord
where
    M: Machine<Output = InputConfig<u64>> + 'static,
{
    let params = SystemParams::new(cell.n, cell.t).unwrap();
    let validity = cell.validity.expect("a Universal cell");
    let builder = cell.schedule.builder(params, cell.seed).max_events(BUDGET);
    let gst = builder.config().gst;
    let ctx = ProtocolContext::new(params, cell.seed);
    let mk = |p: ProcessId, face: u64| {
        let input = if face == 0 {
            validity.input_for(p.index())
        } else {
            validity.alt_input_for(p.index())
        };
        Universal::new(make(&ctx, p, input), validity.lambda(params).unwrap())
    };
    let nodes = cell.behavior.populate(params, cell.byz, gst, &mk);
    let mut sim = builder.build(nodes).unwrap();
    let outcome = sim.run_until_decided();
    let property = validity.property(params.t());
    let actual = InputConfig::from_pairs(
        params,
        (0..params.n() - cell.byz).map(|i| (i, validity.input_for(i))),
    )
    .unwrap();
    let stats = sim.stats().clone();
    let outputs: Vec<u64> = sim.decisions().iter().flatten().map(|d| d.1).collect();
    RunRecord {
        decided: sim.all_correct_decided(),
        agreement: agreement_holds(sim.decisions()),
        validity_ok: (!outputs.is_empty())
            .then(|| outputs.iter().all(|v| property.is_admissible(&actual, v))),
        messages_after_gst: stats.messages_after_gst,
        words_after_gst: stats.words_after_gst,
        messages_total: stats.messages_total,
        words_total: stats.words_total,
        latency: stats.last_decision_at.unwrap_or(0),
        decision: outputs
            .first()
            .map_or_else(|| "⊥".to_string(), |v| format!("{v:?}")),
        quarantined: matches!(outcome, RunOutcome::EventLimit | RunOutcome::TimeLimit),
        events: sim.events_processed(),
        stats,
    }
}

/// Every `Universal` cell of `engine`'s grid, read through the sweep's
/// shared executions, equals its reference run.
fn lens_matches_universal(engine: &str) {
    let engine = find_vector(engine).expect("a registry engine");
    let mut m = ScenarioMatrix::new("universal-lens");
    // The raw column makes the decimal properties read its runs.
    m.protocols = vec![ProtocolAxis::raw(engine), ProtocolAxis::wrapped(engine)];
    m.validities = ValiditySpec::RUNNABLE.to_vec();
    m.behaviors = BehaviorId::ALL.to_vec();
    m.faults = vec![0, usize::MAX];
    m.schedules = ScheduleSpec::ALL.to_vec();
    m.systems = [(4, 1), (7, 2)]
        .into_iter()
        .filter(|&(n, t)| engine.applicable_to(n, t))
        .collect();
    m.seeds = 0..2;
    m.max_steps = Some(BUDGET);
    let cells = m.cells();
    let (records, _, _, _) = SweepEngine::new(1).execute_cells(&cells, m.max_steps);
    let mut checked = 0;
    for (cell, record) in cells.iter().zip(&records) {
        let (CellSpec::Run(cell), Outcome::Run(got)) = (cell, &record.outcome) else {
            panic!("a run matrix enumerates run cells");
        };
        if cell.protocol.universal {
            let registry = |ctx: &ProtocolContext, p, input| engine.machine(ctx, p, input);
            assert_eq!(*got, reference(cell, registry), "{}", cell.key());
            checked += 1;
        }
    }
    assert!(checked > 0, "{engine}: no Universal cell in band");
}

#[test]
fn the_lambda_lens_equals_universal_over_alg1() {
    lens_matches_universal("alg1-auth");
}

#[test]
fn the_lambda_lens_equals_universal_over_alg3() {
    lens_matches_universal("alg3-nonauth");
}

#[test]
fn the_lambda_lens_equals_universal_over_alg6() {
    lens_matches_universal("alg6-fast");
}

#[test]
fn every_registry_engine_is_checked() {
    let names: Vec<&str> = vector_registry::<u64>().iter().map(|e| e.name()).collect();
    assert_eq!(names, ["alg1-auth", "alg3-nonauth", "alg6-fast"]);
}

/// A vector "engine" that breaks Agreement on vectors but not on values:
/// at start, process `p` decides that the `n − t` processes after it
/// (cyclically) proposed 0. The vectors differ, and every runnable `Λ`
/// maps each to 0.
struct Divergent(InputConfig<u64>);

#[derive(Clone, Debug)]
struct Never;

impl Message for Never {}

impl Machine for Divergent {
    type Msg = Never;
    type Output = InputConfig<u64>;

    fn init(&mut self, _env: &Env, sink: &mut StepSink<Never, InputConfig<u64>>) {
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

/// The lens reads Agreement over the values `Λ` chose, as Algorithm 2's
/// processes decide them, not over the vectors underneath.
#[test]
fn the_lambda_lens_reads_agreement_over_values() {
    let mut grid = CrosscheckMatrix::new("universal-lens-divergent");
    let s = &mut grid.scenarios;
    s.validities = ValiditySpec::RUNNABLE.to_vec();
    s.behaviors = vec![BehaviorId::Silent, BehaviorId::TwoFaced];
    s.faults = vec![0, usize::MAX];
    s.schedules = vec![ScheduleSpec::Synchronous];
    s.systems = vec![(4, 1), (7, 2)];
    s.max_steps = Some(BUDGET);
    let divergent = |ctx: &ProtocolContext, p: ProcessId, _| {
        let (n, quorum) = (ctx.params.n(), ctx.params.quorum());
        let others = (1..=quorum).map(|k| ((p.index() + k) % n, 0));
        Divergent(InputConfig::from_pairs(ctx.params, others).unwrap())
    };
    let cells = grid.cells();
    assert_eq!(cells.len(), 5 * 3 * 2);
    for cell in cells {
        let got = run_machines(&cell, grid.scenarios.max_steps, divergent);
        let want = reference(&cell, divergent);
        assert!(want.decided && want.agreement, "{}: {want:?}", cell.key());
        assert_eq!(got, want, "{}", cell.key());
    }
}
