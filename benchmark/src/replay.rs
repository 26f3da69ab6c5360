//! The traced replay: each cell re-executed through the same public
//! pieces `validity_lab::runner` and `validity_lab::service` use, with a
//! span at every layer boundary and benchmark-owned timing wrappers around
//! every machine and Byzantine behaviour.
//!
//! A traced number from a different program is worthless, so the replay's
//! records must equal the runner's for every cell: the traced run compares
//! digests, and the tests compare whole records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use validity_core::{
    classify_with_cost, Classification, Domain, InputConfig, ProcessId, SystemParams,
    UnsolvableReason,
};
use validity_lab::{
    CellRecord, CellSpec, ClassifyCell, ClassifyRecord, Outcome, RunCell, RunRecord,
    ScenarioMatrix, ServiceCell, ServiceMatrix, ServiceRecord, ServiceReport, SweepReport,
};
use validity_protocols::{batch_proposal, ProtocolContext, Replicated, Universal};
use validity_simnet::{
    agreement_holds, ByzSink, Byzantine, Env, Hist, Machine, Message, Metrics, NodeKind,
    ObservedState, Probe, RunOutcome, SimBuilder, Simulation, StepSink, Time,
};

use crate::fingerprint::{service_line, sweep_line, CellLine};
use crate::spans::{SpanLog, NO_CELL};
use crate::workloads::Plan;

/// Per-cell accumulators the timing wrappers add into. A simulation runs
/// on one thread, but machines must be `Send`, hence atomics; they publish
/// nothing but themselves, so `Relaxed`.
#[derive(Default)]
struct Clock {
    handler_ns: AtomicU64,
    handler_calls: AtomicU64,
    hook_ns: AtomicU64,
    hook_calls: AtomicU64,
}

impl Clock {
    fn handler(&self, since: Instant) {
        self.handler_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.handler_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn hook(&self, since: Instant) {
        self.hook_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.hook_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the accumulated calls under the innermost open span.
    fn fold_into(&self, log: &mut SpanLog) {
        log.fold(
            "protocols.handler",
            self.handler_ns.load(Ordering::Relaxed),
            self.handler_calls.load(Ordering::Relaxed),
        );
        log.fold(
            "adversary.hook",
            self.hook_ns.load(Ordering::Relaxed),
            self.hook_calls.load(Ordering::Relaxed),
        );
    }
}

/// Times every hook of a correct machine. Forwards everything unchanged.
pub struct Timed<M> {
    inner: M,
    clock: Arc<Clock>,
}

impl<M> Timed<M> {
    /// The wrapped machine.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Machine> Machine for Timed<M> {
    type Msg = M::Msg;
    type Output = M::Output;

    fn init(&mut self, env: &Env, sink: &mut StepSink<M::Msg, M::Output>) {
        let t = Instant::now();
        self.inner.init(env, sink);
        self.clock.handler(t);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &M::Msg,
        env: &Env,
        sink: &mut StepSink<M::Msg, M::Output>,
    ) {
        let t = Instant::now();
        self.inner.on_message(from, msg, env, sink);
        self.clock.handler(t);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<M::Msg, M::Output>) {
        let t = Instant::now();
        self.inner.on_timer(tag, env, sink);
        self.clock.handler(t);
    }
}

/// Times every hook of a Byzantine behaviour, `observe` included (an
/// adaptive adversary's view digestion is adversary time).
pub struct TimedByz<Msg> {
    inner: Box<dyn Byzantine<Msg>>,
    clock: Arc<Clock>,
}

impl<Msg: Message> Byzantine<Msg> for TimedByz<Msg> {
    fn init(&mut self, env: &Env, sink: &mut ByzSink<Msg>) {
        let t = Instant::now();
        self.inner.init(env, sink);
        self.clock.hook(t);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Msg, env: &Env, sink: &mut ByzSink<Msg>) {
        let t = Instant::now();
        self.inner.on_message(from, msg, env, sink);
        self.clock.hook(t);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut ByzSink<Msg>) {
        let t = Instant::now();
        self.inner.on_timer(tag, env, sink);
        self.clock.hook(t);
    }

    fn observes(&self) -> bool {
        self.inner.observes()
    }

    fn observe(&mut self, state: &ObservedState) {
        let t = Instant::now();
        self.inner.observe(state);
        self.clock.hook(t);
    }
}

/// Builds the node vector the way the runner does — correct machines in
/// the first `n − byz` slots, the cell's behaviour in the rest — with
/// every node wrapped. Opens `protocols.machines`, with the behaviours'
/// construction folded into one `adversary.instantiate` child.
fn build_nodes<M: Machine + 'static>(
    params: SystemParams,
    byz: usize,
    behavior: validity_adversary::BehaviorId,
    gst: Time,
    mk: impl Fn(ProcessId, u64) -> M,
    clock: &Arc<Clock>,
    log: &mut SpanLog,
) -> Vec<NodeKind<Timed<M>>> {
    let span = log.open("protocols.machines");
    let mut instantiate_ns = 0u64;
    let nodes = (0..params.n())
        .map(|i| {
            let p = ProcessId::from_index(i);
            if i < params.n() - byz {
                NodeKind::Correct(Timed {
                    inner: mk(p, 0),
                    clock: Arc::clone(clock),
                })
            } else {
                let t = Instant::now();
                let inner = behavior.instantiate(params, gst, p, &mk);
                instantiate_ns += t.elapsed().as_nanos() as u64;
                NodeKind::Byzantine(Box::new(TimedByz {
                    inner,
                    clock: Arc::clone(clock),
                }))
            }
        })
        .collect();
    log.fold("adversary.instantiate", instantiate_ns, byz as u64);
    log.close(span);
    nodes
}

/// `simnet.build` + `simnet.run` (handler and hook time folded beneath
/// it) for an assembled node vector.
fn build_and_run<M: Machine, P: Probe>(
    builder: SimBuilder,
    nodes: Vec<NodeKind<Timed<M>>>,
    probe: P,
    clock: &Clock,
    log: &mut SpanLog,
) -> (Simulation<Timed<M>, P>, RunOutcome) {
    let mut sim = log.leaf("simnet.build", || {
        builder
            .build_with_probe(nodes, probe)
            .expect("matrix-derived configurations always validate")
    });
    let span = log.open("simnet.run");
    let outcome = sim.run_until_decided();
    clock.fold_into(log);
    log.close(span);
    (sim, outcome)
}

/// The runner's `collect`, minus the run itself.
fn collect<M: Machine, P: Probe>(
    sim: &Simulation<Timed<M>, P>,
    outcome: RunOutcome,
    check: impl Fn(&M::Output) -> bool,
) -> RunRecord
where
    M::Output: std::fmt::Debug + PartialEq,
{
    let stats = sim.stats();
    let decisions = sim.decisions();
    let outputs: Vec<&M::Output> = decisions.iter().flatten().map(|(_, o)| o).collect();
    RunRecord {
        decided: sim.all_correct_decided(),
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
        quarantined: matches!(outcome, RunOutcome::EventLimit | RunOutcome::TimeLimit),
        events: sim.events_processed(),
        stats: stats.clone(),
    }
}

/// Replays one run cell; `probe` receives the cell's `δ` (the round width
/// a `Metrics` probe buckets by).
fn replay_run<P: Probe>(
    cell: &RunCell,
    max_steps: Option<u64>,
    probe: impl FnOnce(Time) -> P,
    log: &mut SpanLog,
) -> (RunRecord, P) {
    let params = SystemParams::new(cell.n, cell.t).expect("matrix enumerated an invalid (n, t)");
    let seed = cell.seed;
    let clock = Arc::new(Clock::default());

    let (builder, probe) = log.leaf("simnet.build", || {
        let mut builder = cell.schedule.builder(params, 0);
        if let Some(budget) = max_steps {
            builder = builder.max_events(budget);
        }
        let builder = builder.seed(seed);
        let probe = probe(builder.config().delta);
        (builder, probe)
    });
    let gst = builder.config().gst;
    let ctx = log.leaf("protocols.context", || ProtocolContext::new(params, seed));

    let engine = cell.protocol.engine;
    if cell.protocol.universal {
        let validity = cell
            .validity
            .expect("universal cells always carry a validity");
        let property = validity.property(params.t());
        let actual = InputConfig::from_pairs(
            params,
            (0..params.n() - cell.byz).map(|i| (i, validity.input_for(i))),
        )
        .expect("n − byz ≥ n − t pairs are always a valid configuration");
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
        let nodes = build_nodes(params, cell.byz, cell.behavior, gst, mk, &clock, log);
        let (sim, outcome) = build_and_run(builder, nodes, probe, &clock, log);
        let record = log.leaf("lab.collect", || {
            collect(&sim, outcome, |v: &u64| property.is_admissible(&actual, v))
        });
        (record, sim.into_probe())
    } else {
        let input_of = |i: usize| (i as u64) * 10;
        let mk = |p: ProcessId, face: u64| engine.machine(&ctx, p, input_of(p.index()) + face * 5);
        let nodes = build_nodes(params, cell.byz, cell.behavior, gst, mk, &clock, log);
        let (sim, outcome) = build_and_run(builder, nodes, probe, &clock, log);
        let quorum = params.quorum();
        let correct_bound = params.n() - cell.byz;
        let record = log.leaf("lab.collect", || {
            collect(&sim, outcome, |vector: &InputConfig<u64>| {
                vector.pi().len() >= quorum
                    && vector
                        .pairs()
                        .all(|(p, v)| p.index() >= correct_bound || *v == input_of(p.index()))
            })
        });
        (record, sim.into_probe())
    }
}

/// Replays one classification cell: one `core.classify` span around the
/// decision procedure; rendering the certificate is lab time.
fn replay_classify(cell: &ClassifyCell, log: &mut SpanLog) -> ClassifyRecord {
    let params = SystemParams::new(cell.n, cell.t).expect("matrix enumerated an invalid (n, t)");
    let domain = Domain::range(cell.domain);
    let property = cell.validity.property(cell.t);
    let (c, cost) = log.leaf("core.classify", || {
        classify_with_cost(&property, params, &domain)
    });
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

/// Replays one sweep cell inside a `lab.cell` span.
pub fn replay_cell<P: Probe>(
    cell: &CellSpec,
    max_steps: Option<u64>,
    probe: impl FnOnce(Time) -> P,
    log: &mut SpanLog,
) -> (CellRecord, Option<P>) {
    let span = log.open("lab.cell");
    let out = match cell {
        CellSpec::Run(c) => {
            let (record, probe) = replay_run(c, max_steps, probe, log);
            (
                CellRecord {
                    key: c.key(),
                    group: c.group_key(),
                    outcome: Outcome::Run(record),
                },
                Some(probe),
            )
        }
        CellSpec::Classify(c) => (
            CellRecord {
                key: c.key(),
                group: c.key(),
                outcome: Outcome::Classify(replay_classify(c, log)),
            },
            None,
        ),
    };
    log.close(span);
    out
}

/// Replays one service cell inside a `lab.cell` span.
pub fn replay_service_cell<P: Probe>(
    cell: &ServiceCell,
    probe: impl FnOnce(Time) -> P,
    log: &mut SpanLog,
) -> (ServiceRecord, P) {
    let cell_span = log.open("lab.cell");
    let params = SystemParams::new(cell.n, cell.t).expect("matrix enumerated an invalid (n, t)");
    let clock = Arc::new(Clock::default());

    let service = log.leaf("protocols.context", || {
        Replicated::new(
            cell.engine,
            ProtocolContext::new(params, cell.seed),
            cell.service,
        )
    });
    let (builder, probe) = log.leaf("simnet.build", || {
        let builder = cell.schedule.builder(params, cell.seed);
        let probe = probe(builder.config().delta);
        (builder, probe)
    });
    let gst = builder.config().gst;

    let batch = cell.service.batch_size();
    let mk = |p: ProcessId, face: u64| {
        service.replica_with(p, move |slot| {
            batch_proposal(slot, batch).wrapping_add(face)
        })
    };
    let nodes = build_nodes(params, cell.byz, cell.behavior, gst, mk, &clock, log);
    let (sim, outcome) = build_and_run(builder, nodes, probe, &clock, log);

    let span = log.open("lab.collect");
    let mut latency = Hist::new();
    let mut committed = u32::MAX;
    let mut duration: Time = 0;
    for i in 0..params.n() - cell.byz {
        let NodeKind::Correct(mux) = sim.node(ProcessId::from_index(i)) else {
            unreachable!("correct replicas occupy the first n − byz slots")
        };
        let slots = mux.inner().decisions();
        committed = committed.min(slots.len() as u32);
        for d in slots {
            latency.record(d.decided_at.saturating_sub(d.opened_at));
            duration = duration.max(d.decided_at);
        }
    }
    if committed == u32::MAX {
        committed = 0;
    }
    let record = ServiceRecord {
        committed,
        decided: sim.all_correct_decided(),
        agreement: agreement_holds(sim.decisions()),
        duration,
        latency,
        messages_total: sim.stats().messages_total,
        words_total: sim.stats().words_total,
        quarantined: matches!(outcome, RunOutcome::EventLimit | RunOutcome::TimeLimit),
    };
    log.close(span);
    let probe = sim.into_probe();
    log.close(cell_span);
    (record, probe)
}

/// What a replayed pass produced.
pub struct ReplayedPass {
    /// Whole-pipeline wall clock, seconds.
    pub wall: f64,
    /// The records in canonical form.
    pub lines: Vec<CellLine>,
    /// `SweepReport::violations()` / `ServiceReport::failures()`.
    pub violations: u64,
    /// The cells' probes merged (`Some` when `counting`).
    pub metrics: Option<Metrics>,
    /// Adversary self-reports summed over the cells: `(equivocations,
    /// omissions)`. Service records do not carry them (0).
    pub adversary_notes: (u64, u64),
}

/// Replays a whole pass of `plan` on the calling thread: enumerate, every
/// cell, aggregate, emit — each a span in `log`. With `counting`, every
/// simulation carries a [`Metrics`] probe (exact counts, slower loop);
/// without, the simulator runs unprobed exactly as in an untraced pass.
pub fn replay_pass(plan: &Plan, counting: bool, log: &mut SpanLog) -> ReplayedPass {
    let started = Instant::now();
    let mut merged = counting.then(|| Metrics::new(1));
    let mut merge = |m: Option<Metrics>| {
        if let (Some(all), Some(m)) = (merged.as_mut(), m) {
            all.merge(&m);
        }
    };
    log.set_cell(NO_CELL);
    let (lines, violations, adversary_notes) = match plan {
        Plan::Sweep(matrix) => {
            let cells = log.leaf("lab.enumerate", || matrix.cells());
            let mut records = Vec::with_capacity(cells.len());
            for (i, cell) in cells.iter().enumerate() {
                log.set_cell(i as u32);
                records.push(if counting {
                    let (record, m) = replay_cell(cell, matrix.max_steps, Metrics::new, log);
                    merge(m);
                    record
                } else {
                    replay_cell(cell, matrix.max_steps, |_| validity_simnet::NoProbe, log).0
                });
            }
            log.set_cell(NO_CELL);
            let violations = finish_sweep(matrix, &records, log);
            let notes = records.iter().fold((0, 0), |(e, o), r| match &r.outcome {
                Outcome::Run(r) => (e + r.stats.equivocations, o + r.stats.omissions),
                Outcome::Classify(_) => (e, o),
            });
            (records.iter().map(sweep_line).collect(), violations, notes)
        }
        Plan::Service(matrix) => {
            let cells = log.leaf("lab.enumerate", || matrix.cells());
            let mut records = Vec::with_capacity(cells.len());
            for (i, cell) in cells.into_iter().enumerate() {
                log.set_cell(i as u32);
                let record = if counting {
                    let (record, m) = replay_service_cell(&cell, Metrics::new, log);
                    merge(Some(m));
                    record
                } else {
                    replay_service_cell(&cell, |_| validity_simnet::NoProbe, log).0
                };
                records.push((cell, record));
            }
            log.set_cell(NO_CELL);
            let (lines, violations) = finish_service(matrix, records, log);
            (lines, violations, (0, 0))
        }
    };
    ReplayedPass {
        wall: started.elapsed().as_secs_f64(),
        lines,
        violations,
        metrics: merged,
        adversary_notes,
    }
}

fn finish_sweep(matrix: &ScenarioMatrix, records: &[CellRecord], log: &mut SpanLog) -> u64 {
    let report = log.leaf("lab.aggregate", || {
        SweepReport::aggregate_matrix(matrix, records)
    });
    log.leaf("lab.emit_json", || std::hint::black_box(report.to_json()));
    log.leaf("lab.emit_md", || std::hint::black_box(report.to_markdown()));
    report.violations()
}

fn finish_service(
    matrix: &ServiceMatrix,
    records: Vec<(ServiceCell, ServiceRecord)>,
    log: &mut SpanLog,
) -> (Vec<CellLine>, u64) {
    let report = log.leaf("lab.aggregate", || {
        ServiceReport::build(&matrix.name, records)
    });
    log.leaf("lab.emit_json", || std::hint::black_box(report.to_json()));
    log.leaf("lab.emit_md", || std::hint::black_box(report.to_markdown()));
    let lines = report
        .cells
        .iter()
        .map(|(key, record)| service_line(key, record, matrix.slots))
        .collect();
    (lines, report.failures())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::self_times;
    use crate::workloads::{Size, WORKLOADS};
    use validity_lab::{execute_service, execute_with_budget, suites};
    use validity_simnet::NoProbe;

    /// Replays every cell of `matrix` (traced or counting) and asserts
    /// whole-record equality with the runner.
    fn assert_sweep_replay_equals_runner(matrix: &ScenarioMatrix) {
        for cell in matrix.cells() {
            let expected = execute_with_budget(&cell, matrix.max_steps);
            let mut log = SpanLog::recording();
            let (traced, _) = replay_cell(&cell, matrix.max_steps, |_| NoProbe, &mut log);
            assert_eq!(traced, expected, "traced replay diverged");
            let mut off = SpanLog::disabled();
            let (counted, metrics) = replay_cell(&cell, matrix.max_steps, Metrics::new, &mut off);
            assert_eq!(counted, expected, "counting replay diverged");
            if let (Outcome::Run(r), Some(m)) = (&expected.outcome, metrics) {
                assert_eq!(m.events, r.events, "probe and record disagree");
            }
        }
    }

    #[test]
    fn quick_suite_replays_to_the_runners_records() {
        assert_sweep_replay_equals_runner(&suites::build("quick").expect("built-in suite"));
    }

    #[test]
    fn every_workload_cut_replays_to_the_runners_records() {
        for w in &WORKLOADS {
            match w.plan(Size::Tiny, 0) {
                Plan::Sweep(matrix) => assert_sweep_replay_equals_runner(&matrix),
                Plan::Service(matrix) => {
                    for cell in matrix.cells() {
                        let expected = execute_service(&cell);
                        let mut log = SpanLog::recording();
                        let (traced, _) = replay_service_cell(&cell, |_| NoProbe, &mut log);
                        assert_eq!(traced, expected, "{}: {}", w.name, cell.key());
                        let mut off = SpanLog::disabled();
                        let (counted, _) = replay_service_cell(&cell, Metrics::new, &mut off);
                        assert_eq!(counted, expected, "{}: {}", w.name, cell.key());
                    }
                }
            }
        }
    }

    /// A whole replayed pass yields the untraced pass's lines, and its
    /// span tree has the documented shape.
    #[test]
    fn replayed_pass_matches_the_pipeline_and_nests_as_documented() {
        let plan = crate::workloads::find("chaos_small")
            .unwrap()
            .plan(Size::Tiny, 0);
        let untraced = crate::pipeline::run_pass(&plan, 1);
        let mut log = SpanLog::recording();
        let traced = replay_pass(&plan, false, &mut log);
        assert_eq!(traced.lines, untraced.lines);
        assert_eq!(traced.violations, untraced.violations);
        assert!(traced.metrics.is_none());
        let counted = replay_pass(&plan, true, &mut SpanLog::disabled());
        assert_eq!(counted.lines, untraced.lines);
        let events: u64 = untraced.lines.iter().map(|l| l.events).sum();
        assert_eq!(counted.metrics.expect("counting pass").events, events);

        let spans = log.into_spans();
        let parent_name = |s: &crate::spans::Span| s.parent.map(|p| spans[p as usize].name);
        for s in &spans {
            let expected = match s.name {
                "lab.cell" | "lab.enumerate" | "lab.aggregate" | "lab.emit_json"
                | "lab.emit_md" => None,
                "adversary.instantiate" => Some("protocols.machines"),
                "protocols.handler" | "adversary.hook" => Some("simnet.run"),
                _ => Some("lab.cell"),
            };
            assert_eq!(parent_name(s), expected, "{}", s.name);
        }
        let times = self_times(&spans);
        let cells = untraced.lines.len() as u64;
        assert_eq!(times["lab.cell"].calls, cells);
        assert_eq!(times["simnet.run"].calls, cells);
        assert!(times["protocols.handler"].calls > cells);
        assert!(times["adversary.hook"].calls > 0);
    }
}
