//! Named, protocol-generic Byzantine behaviour factories.
//!
//! The concrete attack modules in this crate ([`crate::strawman`],
//! [`crate::dolev_reischuk`], …) target specific protocols. Scenario sweeps
//! (`validity-lab`) instead need behaviours that can wrap *any*
//! [`Machine`]: [`BehaviorId`] names that family, and
//! [`BehaviorId::instantiate`] builds one for a node slot given a factory
//! for the underlying correct machine.
//!
//! Every behaviour here is deterministic, so sweeps stay replayable.

use validity_core::{ProcessId, ProcessSet, SystemParams};
use validity_simnet::{
    ByzSink, Byzantine, Env, FilteredMachine, Machine, Message, NodeKind, Silent, Time,
};

use crate::adaptive::{
    AdaptiveFlood, AdaptiveHost, LastMinute, RoutePolicy, SplitBrain, TargetLeader,
};
use crate::behaviors::TwoFaced;

/// Names a protocol-generic Byzantine behaviour.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BehaviorId {
    /// Sends nothing, ever — the canonical-execution adversary (§3.1).
    Silent,
    /// Behaves correctly, then crashes halfway to GST.
    Crash,
    /// Behaves correctly but drops the first `t` incoming messages
    /// (the Theorem-4 `E_base` step 5.1 shape).
    Stale,
    /// Behaves correctly but omits all sends to the upper half of the
    /// system (the Theorem-4 `E_base` step 5.2 shape).
    OmitHalf,
    /// Runs two correct copies with different proposals, one facing the
    /// lower half, one the upper half — the Lemma-2 partitioner.
    TwoFaced,
    /// Never participates in the protocol, but keeps the event queue alive
    /// forever: a timer re-arms every tick, and every received message is
    /// replayed back at the whole system. An intentionally non-terminating
    /// adversary — the execution it inhabits never quiesces, so a run that
    /// cannot decide runs until a step budget aborts it. Exercises the
    /// `validity-lab` per-cell quarantine machinery.
    Flood,
    /// *Adaptive*: equivocates only toward the node currently closest to
    /// deciding (see [`crate::adaptive::TargetLeader`]).
    TargetLeader,
    /// *Adaptive*: honest until the first correct node decides, then
    /// partitions (see [`crate::adaptive::LastMinute`]).
    LastMinute,
    /// *Adaptive*: splits its lies at the observed delivery median (see
    /// [`crate::adaptive::SplitBrain`]).
    SplitBrain,
    /// *Adaptive*: floods only the node with the deepest pending queue
    /// (see [`crate::adaptive::AdaptiveFlood`]). Non-terminating, like
    /// [`BehaviorId::Flood`].
    AdaptiveFlood,
}

impl BehaviorId {
    /// Every registered behaviour, in presentation order (oblivious
    /// first, then adaptive).
    pub const ALL: [BehaviorId; 10] = [
        BehaviorId::Silent,
        BehaviorId::Crash,
        BehaviorId::Stale,
        BehaviorId::OmitHalf,
        BehaviorId::TwoFaced,
        BehaviorId::Flood,
        BehaviorId::TargetLeader,
        BehaviorId::LastMinute,
        BehaviorId::SplitBrain,
        BehaviorId::AdaptiveFlood,
    ];

    /// The adaptive behaviours, in presentation order — the ones that
    /// read the simulator's [`ObservedState`](validity_simnet::ObservedState)
    /// view.
    pub const ADAPTIVE: [BehaviorId; 4] = [
        BehaviorId::TargetLeader,
        BehaviorId::LastMinute,
        BehaviorId::SplitBrain,
        BehaviorId::AdaptiveFlood,
    ];

    /// The stable registry name (used by CLIs and reports).
    pub fn name(self) -> &'static str {
        match self {
            BehaviorId::Silent => "silent",
            BehaviorId::Crash => "crash",
            BehaviorId::Stale => "stale",
            BehaviorId::OmitHalf => "omit-half",
            BehaviorId::TwoFaced => "two-faced",
            BehaviorId::Flood => "flood",
            BehaviorId::TargetLeader => "target-leader",
            BehaviorId::LastMinute => "last-minute",
            BehaviorId::SplitBrain => "split-brain",
            BehaviorId::AdaptiveFlood => "adaptive-flood",
        }
    }

    /// Looks a behaviour up by its registry name.
    pub fn parse(name: &str) -> Option<BehaviorId> {
        BehaviorId::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Looks a behaviour up by name, or explains every valid name —
    /// the CLI-facing counterpart of [`BehaviorId::parse`].
    pub fn parse_or_err(name: &str) -> Result<BehaviorId, String> {
        BehaviorId::parse(name).ok_or_else(|| {
            format!(
                "unknown behavior: '{name}' (valid: {})",
                BehaviorId::ALL.map(|b| b.name()).join(", ")
            )
        })
    }

    /// Whether this behaviour observes protocol state (adaptive).
    pub fn is_adaptive(self) -> bool {
        BehaviorId::ADAPTIVE.contains(&self)
    }

    /// One-line description for `lab list`-style output.
    pub fn describe(self) -> &'static str {
        match self {
            BehaviorId::Silent => "sends nothing (canonical execution)",
            BehaviorId::Crash => "correct until a mid-run crash",
            BehaviorId::Stale => "correct but ignores its first t deliveries",
            BehaviorId::OmitHalf => "correct but omits sends to the upper half",
            BehaviorId::TwoFaced => "two correct faces with different proposals",
            BehaviorId::Flood => "replays traffic and re-arms timers forever (never quiesces)",
            BehaviorId::TargetLeader => "adaptive: equivocates toward the node closest to deciding",
            BehaviorId::LastMinute => "adaptive: honest until the first decision, then partitions",
            BehaviorId::SplitBrain => "adaptive: splits its lies at the observed delivery median",
            BehaviorId::AdaptiveFlood => "adaptive: floods only the deepest queue (never quiesces)",
        }
    }

    /// Builds the behaviour for the node in `slot`.
    ///
    /// `mk(slot, face)` must return the correct machine that slot would run,
    /// proposing its regular input for `face = 0` and a different (but still
    /// domain-valid) input for `face = 1` — only the two-faced behaviours
    /// ([`BehaviorId::TwoFaced`] and the three adaptive equivocators)
    /// request the second face.
    pub fn instantiate<M: Machine + 'static>(
        self,
        params: SystemParams,
        gst: Time,
        slot: ProcessId,
        mk: &dyn Fn(ProcessId, u64) -> M,
    ) -> Box<dyn Byzantine<M::Msg>> {
        let n = params.n();
        let lower: ProcessSet = (0..n / 2).collect();
        let upper: ProcessSet = (n / 2..n).collect();
        match self {
            BehaviorId::Silent => Box::new(Silent),
            BehaviorId::Crash => {
                Box::new(FilteredMachine::new(mk(slot, 0)).crash_after((gst / 2).max(1)))
            }
            BehaviorId::Stale => {
                Box::new(FilteredMachine::new(mk(slot, 0)).ignore_first(params.t()))
            }
            BehaviorId::OmitHalf => {
                Box::new(FilteredMachine::new(mk(slot, 0)).omit_to(upper.iter()))
            }
            BehaviorId::TwoFaced => Box::new(TwoFaced::new(mk(slot, 0), lower, mk(slot, 1), upper)),
            BehaviorId::Flood => Box::new(Flood::<M::Msg>::new(slot)),
            BehaviorId::TargetLeader => adaptive(slot, mk, TargetLeader::default()),
            BehaviorId::LastMinute => adaptive(slot, mk, LastMinute::new(lower)),
            BehaviorId::SplitBrain => adaptive(slot, mk, SplitBrain::default()),
            BehaviorId::AdaptiveFlood => Box::new(AdaptiveFlood::<M::Msg>::new(slot)),
        }
    }

    /// Builds a run's node vector: the correct machine `mk(p, 0)` in the
    /// first `n − byz` slots, this behaviour in the rest. `mk` is called
    /// in slot order (and face order within a slot) — callers whose
    /// factories consume shared state, such as signer handles, get the
    /// same sequence on every run.
    pub fn populate<M: Machine + 'static>(
        self,
        params: SystemParams,
        byz: usize,
        gst: Time,
        mk: &dyn Fn(ProcessId, u64) -> M,
    ) -> Vec<NodeKind<M>> {
        (0..params.n())
            .map(|i| {
                let p = ProcessId::from_index(i);
                if i < params.n() - byz {
                    NodeKind::Correct(mk(p, 0))
                } else {
                    NodeKind::Byzantine(self.instantiate(params, gst, p, mk))
                }
            })
            .collect()
    }
}

/// The adaptive two-faced host for `slot` under `policy`: face A on the
/// slot's regular input, face B on the conflicting one.
fn adaptive<M: Machine + 'static>(
    slot: ProcessId,
    mk: &dyn Fn(ProcessId, u64) -> M,
    policy: impl RoutePolicy + 'static,
) -> Box<dyn Byzantine<M::Msg>> {
    Box::new(AdaptiveHost::new(slot, mk(slot, 0), mk(slot, 1), policy))
}

/// The non-terminating behaviour behind [`BehaviorId::Flood`].
///
/// It sends no protocol state of its own (it never runs the correct
/// machine), but it re-arms a tick timer forever and replays every message
/// other processes send it back at the whole system — so the simulation's
/// event queue never drains. Correct protocols still decide under it (it is
/// just noise), but a cell that *cannot* decide — e.g. a quorum-starved
/// configuration — would run forever; only a step budget stops it. Replay
/// is limited to messages from *other* processes, so the echo traffic stays
/// linear in what the rest of the system sends: the unbounded part is the
/// timer stream, which costs one event per tick.
#[derive(Clone, Debug)]
pub struct Flood<Msg> {
    slot: ProcessId,
    last: Option<Msg>,
}

impl<Msg> Flood<Msg> {
    /// Creates the behaviour for the node in `slot`.
    pub fn new(slot: ProcessId) -> Self {
        Flood { slot, last: None }
    }
}

impl<Msg: Message> Byzantine<Msg> for Flood<Msg> {
    fn init(&mut self, _env: &Env, sink: &mut ByzSink<Msg>) {
        sink.timer(1, 0);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Msg, _env: &Env, sink: &mut ByzSink<Msg>) {
        if from == self.slot {
            // Own replays come back as self-deliveries; echoing those would
            // compound the storm exponentially. Drop them.
            return;
        }
        self.last = Some(msg.clone());
        sink.broadcast(msg.clone());
    }

    fn on_timer(&mut self, _tag: u64, _env: &Env, sink: &mut ByzSink<Msg>) {
        sink.timer(1, 0);
        if let Some(m) = &self.last {
            sink.broadcast(m.clone());
        }
    }
}

impl std::fmt::Display for BehaviorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::{
        agreement_holds, Env, Message, NodeKind, SimConfig, Simulation, StepSink,
    };

    #[derive(Clone, Debug)]
    struct Val(#[allow(dead_code)] u64); // payload carried for Debug-trace realism
    impl Message for Val {}

    /// Broadcasts its input; decides on quorum receipt count.
    #[derive(Clone, Debug)]
    struct Bcast(u64, usize);

    impl Machine for Bcast {
        type Msg = Val;
        type Output = u64;
        fn init(&mut self, _env: &Env, sink: &mut StepSink<Val, u64>) {
            sink.broadcast(Val(self.0));
        }
        fn on_message(
            &mut self,
            _f: ProcessId,
            _m: &Val,
            env: &Env,
            sink: &mut StepSink<Val, u64>,
        ) {
            self.1 += 1;
            if self.1 == env.quorum() {
                sink.output(self.1 as u64);
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in BehaviorId::ALL {
            assert_eq!(BehaviorId::parse(b.name()), Some(b));
        }
        assert_eq!(BehaviorId::parse("?"), None);
    }

    #[test]
    fn flood_keeps_the_queue_alive_forever() {
        use validity_simnet::RunOutcome;

        /// Broadcasts once and never decides: the run's only exits are
        /// quiescence or a limit.
        #[derive(Clone, Debug)]
        struct Mute;
        impl Machine for Mute {
            type Msg = Val;
            type Output = u64;
            fn init(&mut self, _env: &Env, sink: &mut StepSink<Val, u64>) {
                sink.broadcast(Val(0));
            }
            fn on_message(
                &mut self,
                _f: ProcessId,
                _m: &Val,
                _env: &Env,
                _sink: &mut StepSink<Val, u64>,
            ) {
            }
        }

        let params = SystemParams::new(4, 1).unwrap();
        let run = |behavior: BehaviorId| {
            let mk = |_p: ProcessId, _face: u64| Mute;
            let nodes: Vec<NodeKind<Mute>> = (0..4)
                .map(|i| {
                    if i < 3 {
                        NodeKind::Correct(Mute)
                    } else {
                        NodeKind::Byzantine(behavior.instantiate(
                            params,
                            validity_simnet::DEFAULT_GST,
                            ProcessId::from_index(i),
                            &mk,
                        ))
                    }
                })
                .collect();
            let mut cfg = SimConfig::new(params).seed(9);
            cfg.max_events = 5_000;
            Simulation::new(cfg, nodes).run_until_decided()
        };
        // A silent adversary lets the undecidable run drain its queue...
        assert_eq!(run(BehaviorId::Silent), RunOutcome::Quiescent);
        // ...the flood adversaries keep it alive until the event limit.
        assert_eq!(run(BehaviorId::Flood), RunOutcome::EventLimit);
        assert_eq!(run(BehaviorId::AdaptiveFlood), RunOutcome::EventLimit);
    }

    #[test]
    fn parse_or_err_names_every_behavior() {
        assert_eq!(
            BehaviorId::parse_or_err("split-brain"),
            Ok(BehaviorId::SplitBrain)
        );
        let err = BehaviorId::parse_or_err("bogus").unwrap_err();
        assert!(err.contains("unknown behavior: 'bogus'"));
        for b in BehaviorId::ALL {
            assert!(err.contains(b.name()), "error does not list {b}");
        }
    }

    #[test]
    fn adaptive_behaviors_declare_observation() {
        let params = SystemParams::new(4, 1).unwrap();
        let mk = |_p: ProcessId, face: u64| Bcast(10 + face, 0);
        for b in BehaviorId::ALL {
            let built: Box<dyn Byzantine<Val>> =
                b.instantiate(params, validity_simnet::DEFAULT_GST, ProcessId(3), &mk);
            assert_eq!(
                built.observes(),
                b.is_adaptive(),
                "observation flag mismatch for {b}"
            );
        }
    }

    #[test]
    fn every_behavior_runs_against_a_quorum_protocol() {
        let params = SystemParams::new(4, 1).unwrap();
        for b in BehaviorId::ALL {
            let mk = |_p: ProcessId, face: u64| Bcast(10 + face, 0);
            let nodes: Vec<NodeKind<Bcast>> = (0..4)
                .map(|i| {
                    if i < 3 {
                        NodeKind::Correct(Bcast(i as u64, 0))
                    } else {
                        NodeKind::Byzantine(b.instantiate(
                            params,
                            validity_simnet::DEFAULT_GST,
                            ProcessId::from_index(i),
                            &mk,
                        ))
                    }
                })
                .collect();
            let mut sim = Simulation::new(SimConfig::new(params).seed(5), nodes);
            sim.run_until_decided();
            assert!(
                sim.all_correct_decided(),
                "behavior {b} starved a quorum protocol that tolerates t = 1"
            );
            assert!(agreement_holds(sim.decisions()));
        }
    }
}
