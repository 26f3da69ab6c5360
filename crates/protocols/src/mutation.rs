//! Systematic fault injection over the protocol registry: mutation
//! operators ([`MutationOp`]) and the [`Mutant`] wrapper that applies one
//! to a registered engine.
//!
//! The crosscheck oracle's non-vacuity used to rest on a single
//! hand-written saboteur (the `planted-broken` factory in
//! `validity-lab`). This module turns that one planted fault into a
//! *corpus*: every registered vector-consensus engine crossed with a
//! catalogue of small, realistic implementation mistakes — a shifted
//! proposal, a dropped origin check, an off-by-one threshold, a skipped
//! broadcast, a stale echo. A mutant registers as a first-class
//! [`VectorSpec`] (same `Copy` record, same applicability band as its
//! base engine), so the differential harness can run `(engine ×
//! operator)` pairs through exactly the machinery it uses for real
//! engines and report which mutants it *kills*. The const-generic
//! [`mutant_spec`] table gives every pair its own `fn`-pointer factory,
//! keeping specs plain `Copy` values.
//!
//! Mutants live behind the [`VectorMachine::Mutated`] variant and are
//! deterministic: each operator is a pure, stateful rewrite of the hook
//! stream, so mutated runs are exactly as replayable as clean ones.

use validity_core::{InputConfig, ProcessId, Value};
use validity_simnet::{Env, Machine, Step, StepSink};

use crate::codec::{Codec, Words};
use crate::registry::{
    vector_registry, ProtocolContext, ProtocolSpec, VectorMachine, VectorMsg, VectorSpec,
};

/// A small, realistic implementation mistake to plant into an engine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MutationOp {
    /// Proposes `input + 1_000_000` instead of `input` — the classic
    /// planted fault: decisions drift outside the admissible bracket.
    ShiftProposal,
    /// Models a dropped origin-authentication check: every incoming
    /// message is attributed to the *next* process id, as if the receiver
    /// never verified who signed/sent it.
    DropSigCheck,
    /// Models an off-by-one quorum threshold: the machine never counts its
    /// successor's contributions, so every `≥ k` wait needs one message
    /// more than the protocol budgeted for — unsatisfiable at maximum
    /// fault load. (Crediting *extra* phantom messages would not do: the
    /// engines collect distinct validated per-sender contributions, so
    /// surplus credit only accelerates them — the chaos `duplication`
    /// schedule already proves duplicates are absorbed.)
    OffByOneThreshold,
    /// Swallows the engine's first broadcast — one protocol-critical
    /// `send-to-all` that simply never happens.
    SkipBroadcast,
    /// Replaces each broadcast's payload with the *previous* broadcast's
    /// payload (the first goes out unchanged): a stale-buffer reuse bug.
    StaleEcho,
}

impl MutationOp {
    /// Every operator, in presentation (and kill-matrix column) order.
    pub const ALL: [MutationOp; 5] = [
        MutationOp::ShiftProposal,
        MutationOp::DropSigCheck,
        MutationOp::OffByOneThreshold,
        MutationOp::SkipBroadcast,
        MutationOp::StaleEcho,
    ];

    /// The stable registry name (used by CLIs and reports).
    pub fn name(self) -> &'static str {
        match self {
            MutationOp::ShiftProposal => "shift-proposal",
            MutationOp::DropSigCheck => "drop-sig-check",
            MutationOp::OffByOneThreshold => "off-by-one-threshold",
            MutationOp::SkipBroadcast => "skip-broadcast",
            MutationOp::StaleEcho => "stale-echo",
        }
    }

    /// Looks an operator up by its registry name.
    pub fn parse(name: &str) -> Option<MutationOp> {
        MutationOp::ALL.into_iter().find(|o| o.name() == name)
    }

    /// One-line description for `lab list`-style output.
    pub fn describe(self) -> &'static str {
        match self {
            MutationOp::ShiftProposal => "proposes input + 1_000_000 (inadmissible decisions)",
            MutationOp::DropSigCheck => "attributes every delivery to the next process id",
            MutationOp::OffByOneThreshold => {
                "never counts its successor's messages (every quorum waits for one extra)"
            }
            MutationOp::SkipBroadcast => "silently drops the engine's first broadcast",
            MutationOp::StaleEcho => "each broadcast carries the previous broadcast's payload",
        }
    }
}

impl std::fmt::Display for MutationOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A registered engine with one [`MutationOp`] planted into it.
///
/// The wrapper sits between the simulator and the unmodified inner
/// machine: input-side operators rewrite deliveries before the engine
/// sees them, output-side operators rewrite the effect stream the engine
/// emits. Everything else — outputs, timers, halts — passes through
/// untouched, so a mutant differs from its base engine by exactly the
/// planted fault.
pub struct Mutant<V: Value> {
    inner: VectorMachine<V>,
    op: MutationOp,
    /// Whether a one-shot operator (skip-broadcast) has fired.
    fired: bool,
    /// The previous broadcast payload (stale-echo).
    stale: Option<VectorMsg<V>>,
    /// Scratch buffer the inner machine writes into; reused across events.
    scratch: StepSink<VectorMsg<V>, InputConfig<V>>,
}

impl<V: Value> Mutant<V> {
    /// Wraps `inner` with the planted fault `op`.
    pub fn new(inner: VectorMachine<V>, op: MutationOp) -> Self {
        Mutant {
            inner,
            op,
            fired: false,
            stale: None,
            scratch: StepSink::new(),
        }
    }

    /// The planted operator.
    pub fn op(&self) -> MutationOp {
        self.op
    }

    /// Drains the inner machine's steps into `sink`, applying the
    /// output-side operators.
    fn relay(&mut self, sink: &mut StepSink<VectorMsg<V>, InputConfig<V>>) {
        for step in self.scratch.drain() {
            match step {
                Step::Broadcast(m) => match self.op {
                    MutationOp::SkipBroadcast if !self.fired => {
                        self.fired = true; // exactly one broadcast vanishes
                    }
                    MutationOp::StaleEcho => {
                        let prev = self.stale.replace(m.clone());
                        sink.broadcast(prev.unwrap_or(m));
                    }
                    _ => sink.broadcast(m),
                },
                Step::Send(to, m) => sink.send(to, m),
                Step::Timer(d, tag) => sink.timer(d, tag),
                Step::Output(o) => sink.output(o),
                Step::Halt => sink.halt(),
            }
        }
    }
}

impl<V: Value + Codec + Words> Machine for Mutant<V> {
    type Msg = VectorMsg<V>;
    type Output = InputConfig<V>;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.inner.init(env, &mut self.scratch);
        self.relay(sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        match self.op {
            MutationOp::DropSigCheck => {
                let forged = ProcessId::from_index((from.index() + 1) % env.n());
                self.inner.on_message(forged, msg, env, &mut self.scratch);
            }
            MutationOp::OffByOneThreshold => {
                // Discount one contributor: with its successor never
                // counted, every `>= quorum` wait needs one message more
                // than the protocol budgeted for.
                let ignored = ProcessId::from_index((env.id.index() + 1) % env.n());
                if from != ignored {
                    self.inner.on_message(from, msg, env, &mut self.scratch);
                }
            }
            _ => self.inner.on_message(from, msg, env, &mut self.scratch),
        }
        self.relay(sink);
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.inner.on_timer(tag, env, &mut self.scratch);
        self.relay(sink);
    }
}

/// The factory behind one `(engine × operator)` pair. Each `(E, O)`
/// instantiation coerces to a distinct plain `fn` pointer, which is what
/// lets mutants register as ordinary `Copy` [`VectorSpec`]s.
fn mutant_factory<const E: usize, const O: usize>(
    ctx: &ProtocolContext,
    p: ProcessId,
    input: u64,
) -> VectorMachine<u64> {
    let op = MutationOp::ALL[O];
    let base = vector_registry::<u64>()[E];
    let input = if op == MutationOp::ShiftProposal {
        input.wrapping_add(1_000_000)
    } else {
        input
    };
    VectorMachine::Mutated(Box::new(Mutant::new(base.machine(ctx, p, input), op)))
}

fn spec_for<const E: usize, const O: usize>(name: &'static str) -> VectorSpec {
    let base = vector_registry::<u64>()[E];
    ProtocolSpec::new(
        name,
        base.authenticated(),
        "fault-injected mutant",
        mutant_factory::<E, O>,
    )
    .with_applicability(base.applicability())
}

/// The registration record of engine `engine_index` (in
/// [`vector_registry`] order) mutated by `op`. The mutant's name is
/// `"<engine>+<operator>"` and it inherits the base engine's
/// applicability band and authentication flag.
///
/// # Panics
///
/// Panics if `engine_index` is out of range for the registry.
pub fn mutant_spec(engine_index: usize, op: MutationOp) -> VectorSpec {
    // One arm per (engine, operator) pair: the const generics must be
    // literals for each instantiation to be its own `fn` pointer.
    match (engine_index, op) {
        (0, MutationOp::ShiftProposal) => spec_for::<0, 0>("alg1-auth+shift-proposal"),
        (0, MutationOp::DropSigCheck) => spec_for::<0, 1>("alg1-auth+drop-sig-check"),
        (0, MutationOp::OffByOneThreshold) => spec_for::<0, 2>("alg1-auth+off-by-one-threshold"),
        (0, MutationOp::SkipBroadcast) => spec_for::<0, 3>("alg1-auth+skip-broadcast"),
        (0, MutationOp::StaleEcho) => spec_for::<0, 4>("alg1-auth+stale-echo"),
        (1, MutationOp::ShiftProposal) => spec_for::<1, 0>("alg3-nonauth+shift-proposal"),
        (1, MutationOp::DropSigCheck) => spec_for::<1, 1>("alg3-nonauth+drop-sig-check"),
        (1, MutationOp::OffByOneThreshold) => spec_for::<1, 2>("alg3-nonauth+off-by-one-threshold"),
        (1, MutationOp::SkipBroadcast) => spec_for::<1, 3>("alg3-nonauth+skip-broadcast"),
        (1, MutationOp::StaleEcho) => spec_for::<1, 4>("alg3-nonauth+stale-echo"),
        (2, MutationOp::ShiftProposal) => spec_for::<2, 0>("alg6-fast+shift-proposal"),
        (2, MutationOp::DropSigCheck) => spec_for::<2, 1>("alg6-fast+drop-sig-check"),
        (2, MutationOp::OffByOneThreshold) => spec_for::<2, 2>("alg6-fast+off-by-one-threshold"),
        (2, MutationOp::SkipBroadcast) => spec_for::<2, 3>("alg6-fast+skip-broadcast"),
        (2, MutationOp::StaleEcho) => spec_for::<2, 4>("alg6-fast+stale-echo"),
        (i, o) => panic!("no engine {i} in the registry (operator {o})"),
    }
}

/// Every `(engine × operator)` mutant, engine-major in registry order —
/// the built-in corpus a kill matrix sweeps.
pub fn mutant_registry() -> Vec<VectorSpec> {
    let engines = vector_registry::<u64>().len();
    (0..engines)
        .flat_map(|e| {
            MutationOp::ALL
                .into_iter()
                .map(move |op| mutant_spec(e, op))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::{agreement_holds, NodeKind, SimBuilder};

    #[test]
    fn operator_names_roundtrip() {
        for op in MutationOp::ALL {
            assert_eq!(MutationOp::parse(op.name()), Some(op));
            assert!(!op.describe().is_empty());
        }
        assert_eq!(MutationOp::parse("?"), None);
    }

    #[test]
    fn mutant_registry_covers_every_pair_with_unique_names() {
        let mutants = mutant_registry();
        assert_eq!(mutants.len(), 3 * MutationOp::ALL.len());
        let mut names: Vec<&str> = mutants.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), mutants.len(), "duplicate mutant names");
        // Mutants inherit their base engine's band.
        let base = vector_registry::<u64>();
        for (i, spec) in base.iter().enumerate() {
            for op in MutationOp::ALL {
                let m = mutant_spec(i, op);
                assert!(m.name().starts_with(spec.name()), "{m} not over {spec}");
                assert!(m.name().ends_with(op.name()));
                assert_eq!(m.applicability(), spec.applicability());
                assert_eq!(m.authenticated(), spec.authenticated());
            }
        }
    }

    /// Runs 4 correct nodes of `spec` and returns (all decided, agreement,
    /// decision debug strings).
    fn run_spec(spec: VectorSpec, seed: u64) -> (bool, bool, Vec<String>) {
        let params = SystemParams::new(4, 1).unwrap();
        let ctx = ProtocolContext::new(params, seed);
        let nodes: Vec<NodeKind<VectorMachine<u64>>> = (0..4)
            .map(|i| NodeKind::Correct(spec.machine(&ctx, ProcessId::from_index(i), i as u64 % 2)))
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(seed)
            .max_events(500_000)
            .build(nodes)
            .expect("valid configuration");
        sim.run_until_decided();
        (
            sim.all_correct_decided(),
            agreement_holds(sim.decisions()),
            sim.decisions()
                .iter()
                .flatten()
                .map(|(_, o)| format!("{o:?}"))
                .collect(),
        )
    }

    #[test]
    fn every_mutant_builds_and_runs_deterministically() {
        for spec in mutant_registry() {
            let a = run_spec(spec, 7);
            let b = run_spec(spec, 7);
            assert_eq!(a, b, "{spec} is not replayable");
        }
    }

    #[test]
    fn shift_proposal_mutant_decides_outside_the_input_bracket() {
        let clean = run_spec(vector_registry::<u64>()[0], 7);
        assert!(clean.0 && clean.1);
        let (decided, agreement, decisions) =
            run_spec(mutant_spec(0, MutationOp::ShiftProposal), 7);
        // The mutant still runs the real engine, so it reaches agreement —
        // but every decided value carries the shifted proposals.
        assert!(decided && agreement);
        assert_ne!(decisions, clean.2, "planted shift left no trace");
        assert!(
            decisions.iter().all(|d| d.contains("1000000")),
            "shifted proposals missing from {decisions:?}"
        );
    }
}
