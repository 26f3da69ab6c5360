//! Adaptive Byzantine behaviours: adversaries that choose their targets
//! from observed protocol state.
//!
//! The paper's adversary is *adaptive* (§3.1) — it corrupts and schedules
//! against the execution so far, not against a script fixed in advance.
//! The behaviours here implement that power on top of the simulator's
//! [`ObservedState`] view: each declares [`Byzantine::observes`] and is
//! handed a fresh snapshot before every hook, from which it derives its
//! current victims.
//!
//! ## Determinism contract
//!
//! Adaptive behaviours draw **no** randomness: every choice is a pure
//! function of the observed snapshot and internal state, and snapshots are
//! themselves deterministic (ties in `frontrunner` / `deepest_inbox` break
//! toward the lowest id). A seeded run with an adaptive adversary is
//! therefore exactly as replayable as one with an oblivious adversary —
//! which is what lets the lab pin adaptive sweeps with byte-identity
//! fingerprints.
//!
//! ## Counter contract
//!
//! Adaptive equivocators self-report through the [`ByzSink`] counters:
//! every send of the *lying* face is a [`ByzSink::note_equivocation`], and
//! every honest-face send deliberately withheld from a victim is a
//! [`ByzSink::note_omission`]. Oblivious behaviours report nothing, so the
//! counters stay zero (and unserialized) in every legacy artifact.

use validity_core::{ProcessId, ProcessSet};
use validity_simnet::{ByzSink, Byzantine, Env, Machine, Message, ObservedState, Step, StepSink};

/// How an adaptive router disposes of one outgoing send.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// Deliver as an honest-looking send.
    Deliver,
    /// Deliver, counting it as an equivocation (the lying face's send).
    Equivocate,
    /// Suppress, counting it as a deliberate omission of an honest send.
    Omit,
    /// Suppress silently (shadow-copy traffic that was never "owed").
    Drop,
}

/// One of the two copies of the correct machine an [`AdaptiveHost`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Face {
    /// The honest face: proposes the slot's regular input.
    A,
    /// The lying face: proposes the conflicting input.
    B,
}

impl Face {
    /// Both faces, in the order they run (and in timer-namespace order:
    /// a face's tags leave as `tag * 2 + face as u64`).
    const BOTH: [Face; 2] = [Face::A, Face::B];
}

/// What tells one adaptive two-faced adversary from another: where each
/// face's sends go, and what a snapshot teaches it. Implementations must
/// stay pure functions of the snapshots seen so far (the determinism
/// contract above).
pub trait RoutePolicy: Send {
    /// Disposes of one send from `face` to `to` (never the host itself).
    fn route(&self, face: Face, to: ProcessId) -> Route;

    /// Updates the policy from a fresh snapshot; `slot` is the host's id.
    fn observe(&mut self, slot: ProcessId, state: &ObservedState);
}

/// Applies `policy` to one send.
fn route_one<Msg>(
    policy: &impl RoutePolicy,
    face: Face,
    to: ProcessId,
    m: Msg,
    out: &mut ByzSink<Msg>,
) {
    match policy.route(face, to) {
        Route::Deliver => out.send(to, m),
        Route::Equivocate => {
            out.note_equivocation();
            out.send(to, m);
        }
        Route::Omit => out.note_omission(),
        Route::Drop => {}
    }
}

/// The host every adaptive equivocator shares: runs both faces of the
/// correct machine on the full incoming conversation (each sees every
/// message, so both stay consistent with it) and lets a [`RoutePolicy`]
/// decide, per recipient, which face's traffic leaves the node. The three
/// policies are [`TargetLeader`], [`LastMinute`] and [`SplitBrain`].
pub struct AdaptiveHost<M: Machine, P> {
    slot: ProcessId,
    faces: [M; 2],
    policy: P,
    /// Scratch buffer the faces write into; reused across events.
    scratch: StepSink<M::Msg, M::Output>,
}

impl<M: Machine, P: RoutePolicy> AdaptiveHost<M, P> {
    /// Creates the behaviour for the node in `slot`; `face_a` proposes the
    /// regular input, `face_b` the conflicting one.
    pub fn new(slot: ProcessId, face_a: M, face_b: M, policy: P) -> Self {
        AdaptiveHost {
            slot,
            faces: [face_a, face_b],
            policy,
            scratch: StepSink::new(),
        }
    }

    /// Drains `face`'s scratch steps into `out` through the policy.
    /// Broadcasts become per-recipient sends (in recipient order, self
    /// excluded); timers are namespaced odd/even exactly like
    /// [`TwoFaced`](crate::behaviors::TwoFaced); outputs and halts are
    /// dropped (faulty "decisions" don't count).
    fn drain_face(&mut self, face: Face, env: &Env, out: &mut ByzSink<M::Msg>) {
        let (slot, policy) = (self.slot, &self.policy);
        for step in self.scratch.drain() {
            match step {
                Step::Send(to, m) => {
                    if to != slot {
                        route_one(policy, face, to, m, out);
                    }
                }
                Step::Broadcast(m) => {
                    for i in 0..env.n() {
                        let to = ProcessId::from_index(i);
                        if to != slot {
                            route_one(policy, face, to, m.clone(), out);
                        }
                    }
                }
                Step::Timer(d, tag) => out.timer(d, tag * 2 + face as u64),
                Step::Output(_) | Step::Halt => {}
            }
        }
    }
}

impl<M: Machine, P: RoutePolicy> Byzantine<M::Msg> for AdaptiveHost<M, P> {
    fn init(&mut self, env: &Env, sink: &mut ByzSink<M::Msg>) {
        for face in Face::BOTH {
            self.faces[face as usize].init(env, &mut self.scratch);
            self.drain_face(face, env, sink);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: &M::Msg, env: &Env, sink: &mut ByzSink<M::Msg>) {
        if from == self.slot {
            return;
        }
        for face in Face::BOTH {
            self.faces[face as usize].on_message(from, msg, env, &mut self.scratch);
            self.drain_face(face, env, sink);
        }
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut ByzSink<M::Msg>) {
        let (face, inner) = (Face::BOTH[(tag % 2) as usize], tag / 2);
        self.faces[face as usize].on_timer(inner, env, &mut self.scratch);
        self.drain_face(face, env, sink);
    }

    fn observes(&self) -> bool {
        true
    }

    fn observe(&mut self, state: &ObservedState) {
        self.policy.observe(self.slot, state);
    }
}

/// Equivocates only toward the node closest to deciding.
///
/// The honest face A is shown to everyone **except** the current
/// frontrunner — the undecided node with the most consumed deliveries —
/// which instead receives face B's conflicting traffic. The victim is
/// re-chosen from every snapshot, so the lie follows whoever is currently
/// ahead.
#[derive(Clone, Copy, Debug, Default)]
pub struct TargetLeader {
    target: Option<ProcessId>,
}

impl RoutePolicy for TargetLeader {
    fn route(&self, face: Face, to: ProcessId) -> Route {
        match (face, Some(to) == self.target) {
            (Face::A, false) => Route::Deliver,
            (Face::A, true) => Route::Omit,
            (Face::B, true) => Route::Equivocate,
            (Face::B, false) => Route::Drop,
        }
    }

    fn observe(&mut self, slot: ProcessId, state: &ObservedState) {
        self.target = state.frontrunner(slot);
    }
}

/// Honest until the system is on the verge of completion, then partitions.
///
/// While no correct node has decided, face A behaves exactly like the
/// honest machine (face B runs silently as a warmed-up shadow copy). The
/// moment the snapshot shows a first decision — the observable proxy for
/// "one message from a decision" — the behaviour flips into a two-faced
/// split: face A keeps covering the lower half, the upper half is handed
/// to face B's conflicting state, and the honest sends now withheld from
/// the upper half are reported as omissions.
#[derive(Clone, Copy, Debug)]
pub struct LastMinute {
    lower: ProcessSet,
    triggered: bool,
}

impl LastMinute {
    /// After the trigger, face A keeps `lower` and face B takes everyone
    /// else.
    pub fn new(lower: ProcessSet) -> Self {
        LastMinute {
            lower,
            triggered: false,
        }
    }
}

impl RoutePolicy for LastMinute {
    fn route(&self, face: Face, to: ProcessId) -> Route {
        match (face, self.triggered && !self.lower.contains(to)) {
            (Face::A, false) => Route::Deliver,
            (Face::A, true) => Route::Omit,
            (Face::B, true) => Route::Equivocate,
            (Face::B, false) => Route::Drop,
        }
    }

    fn observe(&mut self, _slot: ProcessId, state: &ObservedState) {
        // Latched: once the system has started deciding, stay flipped even
        // if the snapshot's decided set can no longer grow.
        self.triggered = self.triggered || state.any_decided();
    }
}

/// Partitions its lies by the observed delivery majorities.
///
/// Each snapshot splits the system at the median consumed-delivery count:
/// nodes at or above the median ("ahead") see the honest face A, nodes
/// below it ("behind") see face B's conflicting state. At the start every
/// node sits at the median, so the behaviour opens honest and only begins
/// equivocating once the execution itself develops a skew — the lie
/// tracks the majority structure instead of a static group split.
#[derive(Clone, Copy, Debug)]
pub struct SplitBrain {
    ahead: ProcessSet,
}

impl Default for SplitBrain {
    /// Until the first snapshot arrives, everyone counts as ahead
    /// (equivalent to the zero-skew snapshot): fully honest.
    fn default() -> Self {
        SplitBrain {
            ahead: ProcessSet::full(validity_core::MAX_PROCESSES),
        }
    }
}

impl RoutePolicy for SplitBrain {
    fn route(&self, face: Face, to: ProcessId) -> Route {
        match (face, self.ahead.contains(to)) {
            (Face::A, true) => Route::Deliver,
            (Face::B, false) => Route::Equivocate,
            // The side a face does not own was never "owed" its traffic.
            (Face::A, false) | (Face::B, true) => Route::Drop,
        }
    }

    fn observe(&mut self, _slot: ProcessId, state: &ObservedState) {
        let median = state.median_delivered();
        self.ahead = (0..state.n())
            .filter(|&i| state.delivered(ProcessId::from_index(i)) >= median)
            .collect();
    }
}

/// Floods only the node with the deepest pending queue.
///
/// The oblivious [`Flood`](crate::factories::Flood) replays traffic at the
/// whole system; this variant reads the observed inbox depths and aims its
/// replay (and its forever-re-arming timer traffic) at whichever node is
/// already furthest behind on processing — a targeted starvation attack
/// rather than blanket noise. Like `Flood`, it keeps the event queue alive
/// forever, so runs that cannot decide only stop at a step budget.
pub struct AdaptiveFlood<Msg> {
    slot: ProcessId,
    target: Option<ProcessId>,
    last: Option<Msg>,
}

impl<Msg> AdaptiveFlood<Msg> {
    /// Creates the behaviour for the node in `slot`.
    pub fn new(slot: ProcessId) -> Self {
        AdaptiveFlood {
            slot,
            target: None,
            last: None,
        }
    }
}

impl<Msg: Message> Byzantine<Msg> for AdaptiveFlood<Msg> {
    fn init(&mut self, _env: &Env, sink: &mut ByzSink<Msg>) {
        sink.timer(1, 0);
    }

    fn on_message(&mut self, from: ProcessId, msg: &Msg, _env: &Env, sink: &mut ByzSink<Msg>) {
        if from == self.slot {
            // Own replays come back as self-deliveries; drop them.
            return;
        }
        self.last = Some(msg.clone());
        if let Some(to) = self.target {
            sink.send(to, msg.clone());
        }
    }

    fn on_timer(&mut self, _tag: u64, _env: &Env, sink: &mut ByzSink<Msg>) {
        sink.timer(1, 0);
        if let (Some(to), Some(m)) = (self.target, &self.last) {
            sink.send(to, m.clone());
        }
    }

    fn observes(&self) -> bool {
        true
    }

    fn observe(&mut self, state: &ObservedState) {
        self.target = state.deepest_inbox(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::ByzStep;

    #[derive(Clone, Debug)]
    struct Echo(u64);
    impl Message for Echo {}

    #[derive(Clone)]
    struct Announcer(u64);

    impl Machine for Announcer {
        type Msg = Echo;
        type Output = u64;

        fn init(&mut self, _env: &Env, sink: &mut StepSink<Echo, u64>) {
            sink.broadcast(Echo(self.0));
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            _m: &Echo,
            _env: &Env,
            sink: &mut StepSink<Echo, u64>,
        ) {
            sink.send(from, Echo(self.0));
        }
    }

    fn env(id: u32, n: usize, t: usize) -> Env {
        Env {
            id: ProcessId(id),
            params: SystemParams::new(n, t).unwrap(),
            now: 0,
            delta: 10,
        }
    }

    /// A view where node `winner` has consumed the most deliveries.
    fn view_with_frontrunner(n: usize, winner: u32) -> ObservedState {
        let mut v = ObservedState::tracking(n);
        v.note_enqueued(ProcessId(winner));
        v.note_dispatched(ProcessId(winner));
        v
    }

    #[test]
    fn target_leader_lies_only_to_the_frontrunner() {
        let mut b = AdaptiveHost::new(
            ProcessId(3),
            Announcer(0),
            Announcer(1),
            TargetLeader::default(),
        );
        b.observe(&view_with_frontrunner(4, 1));
        let mut sink = ByzSink::new();
        b.init(&env(3, 4, 1), &mut sink);
        let steps: Vec<_> = sink.drain().collect();
        // Face A to {0, 2} (victim omitted, self excluded), face B to {1}.
        assert_eq!(steps.len(), 3);
        for s in &steps {
            match s {
                ByzStep::Send(to, Echo(v)) => {
                    let expected = if to.index() == 1 { 1 } else { 0 };
                    assert_eq!(*v, expected, "wrong face shown to {to}");
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn target_leader_reports_equivocations_and_omissions() {
        let mut b = AdaptiveHost::new(
            ProcessId(3),
            Announcer(0),
            Announcer(1),
            TargetLeader::default(),
        );
        b.observe(&view_with_frontrunner(4, 1));
        let mut sink = ByzSink::new();
        b.init(&env(3, 4, 1), &mut sink);
        assert_eq!(sink.equivocations(), 1); // face B's send to the victim
        assert_eq!(sink.omissions(), 1); // face A's withheld send
    }

    #[test]
    fn target_leader_retargets_as_the_race_changes() {
        let mut b = AdaptiveHost::new(
            ProcessId(3),
            Announcer(0),
            Announcer(1),
            TargetLeader::default(),
        );
        let e = env(3, 4, 1);
        b.observe(&view_with_frontrunner(4, 1));
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(0), &Echo(9), &e, &mut sink);
        // Replies go back to the sender: face A's reply is honest (0 is
        // not the victim), face B's reply to 0 is dropped.
        let steps: Vec<_> = sink.drain().collect();
        assert!(matches!(
            steps.as_slice(),
            [ByzStep::Send(ProcessId(0), Echo(0))]
        ));
        // Now node 0 takes the lead; the lie follows it.
        let mut v = view_with_frontrunner(4, 0);
        v.note_enqueued(ProcessId(0));
        v.note_dispatched(ProcessId(0));
        b.observe(&v);
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(0), &Echo(9), &e, &mut sink);
        let steps: Vec<_> = sink.drain().collect();
        assert!(matches!(
            steps.as_slice(),
            [ByzStep::Send(ProcessId(0), Echo(1))]
        ));
    }

    #[test]
    fn last_minute_is_honest_until_a_decision_appears() {
        let lower: ProcessSet = [0usize, 1].into_iter().collect();
        let mut b = AdaptiveHost::new(
            ProcessId(4),
            Announcer(0),
            Announcer(1),
            LastMinute::new(lower),
        );
        let e = env(4, 5, 2);
        b.observe(&ObservedState::tracking(5));
        let mut sink = ByzSink::new();
        b.init(&e, &mut sink);
        // Honest phase: face A broadcasts to all 4 others, face B silent.
        let steps: Vec<_> = sink.drain().collect();
        assert_eq!(steps.len(), 4);
        assert!(steps.iter().all(|s| matches!(s, ByzStep::Send(_, Echo(0)))));
        // A first decision flips it into the two-faced split.
        let mut v = ObservedState::tracking(5);
        v.note_decided(ProcessId(0));
        b.observe(&v);
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(2), &Echo(9), &e, &mut sink);
        // Face A's reply to 2 (upper half) is withheld; face B's replaces it.
        let steps: Vec<_> = sink.drain().collect();
        assert!(matches!(
            steps.as_slice(),
            [ByzStep::Send(ProcessId(2), Echo(1))]
        ));
        assert_eq!(sink.equivocations(), 1);
        assert_eq!(sink.omissions(), 1);
    }

    #[test]
    fn split_brain_partitions_by_delivery_median() {
        let mut b = AdaptiveHost::new(
            ProcessId(3),
            Announcer(0),
            Announcer(1),
            SplitBrain::default(),
        );
        let e = env(3, 4, 1);
        // Zero skew: everyone is at the median, fully honest.
        b.observe(&ObservedState::tracking(4));
        let mut sink = ByzSink::new();
        b.init(&e, &mut sink);
        let steps: Vec<_> = sink.drain().collect();
        assert_eq!(steps.len(), 3);
        assert!(steps.iter().all(|s| matches!(s, ByzStep::Send(_, Echo(0)))));
        assert_eq!(sink.equivocations(), 0);
        // Skewed: nodes 1 and 2 pull ahead; node 0 falls behind the median
        // and starts seeing face B.
        let mut v = ObservedState::tracking(4);
        for p in [1u32, 2] {
            v.note_enqueued(ProcessId(p));
            v.note_dispatched(ProcessId(p));
        }
        b.observe(&v);
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(0), &Echo(9), &e, &mut sink);
        let steps: Vec<_> = sink.drain().collect();
        assert!(matches!(
            steps.as_slice(),
            [ByzStep::Send(ProcessId(0), Echo(1))]
        ));
        assert_eq!(sink.equivocations(), 1);
    }

    /// Arms timer `self.0` at init, re-arms `tag + 1` when one fires, and
    /// answers every message.
    #[derive(Clone)]
    struct Ticker(u64);

    impl Machine for Ticker {
        type Msg = Echo;
        type Output = u64;

        fn init(&mut self, _env: &Env, sink: &mut StepSink<Echo, u64>) {
            sink.timer(5, self.0);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            _m: &Echo,
            _env: &Env,
            sink: &mut StepSink<Echo, u64>,
        ) {
            sink.send(from, Echo(self.0));
        }

        fn on_timer(&mut self, tag: u64, _env: &Env, sink: &mut StepSink<Echo, u64>) {
            sink.timer(5, tag + 1);
        }
    }

    #[test]
    fn every_policy_drops_self_deliveries_and_namespaces_timers_by_face() {
        fn check(policy: impl RoutePolicy) {
            let mut b = AdaptiveHost::new(ProcessId(3), Ticker(3), Ticker(4), policy);
            let e = env(3, 4, 1);
            let mut sink = ByzSink::new();
            b.init(&e, &mut sink);
            // Face A's tag 3 leaves as 3·2+0, face B's tag 4 as 4·2+1.
            assert!(matches!(
                sink.drain().as_slice(),
                [ByzStep::Timer(5, 6), ByzStep::Timer(5, 9)]
            ));
            // Even tags fire face A, odd tags face B; each re-arms inside
            // its own namespace.
            b.on_timer(6, &e, &mut sink);
            assert!(matches!(sink.drain().as_slice(), [ByzStep::Timer(5, 8)]));
            b.on_timer(9, &e, &mut sink);
            assert!(matches!(sink.drain().as_slice(), [ByzStep::Timer(5, 11)]));
            // The host's own sends come back as self-deliveries: neither
            // face hears them, while any other sender is answered.
            b.on_message(ProcessId(3), &Echo(0), &e, &mut sink);
            assert!(sink.is_empty());
            b.on_message(ProcessId(0), &Echo(0), &e, &mut sink);
            assert!(matches!(
                sink.drain().as_slice(),
                [ByzStep::Send(ProcessId(0), Echo(3))]
            ));
        }
        check(TargetLeader::default());
        check(LastMinute::new([0usize, 1].into_iter().collect()));
        check(SplitBrain::default());
    }

    #[test]
    fn adaptive_flood_aims_at_the_deepest_queue() {
        let mut b = AdaptiveFlood::<Echo>::new(ProcessId(3));
        let e = env(3, 4, 1);
        let mut sink = ByzSink::new();
        b.init(&e, &mut sink);
        assert!(matches!(sink.drain().as_slice(), [ByzStep::Timer(1, 0)]));
        // No snapshot yet: traffic is cached, not sent.
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(0), &Echo(7), &e, &mut sink);
        assert!(sink.is_empty());
        // Node 2's queue is deepest; both the echo and the timer replay aim
        // at it.
        let mut v = ObservedState::tracking(4);
        v.note_enqueued(ProcessId(2));
        b.observe(&v);
        let mut sink = ByzSink::new();
        b.on_message(ProcessId(0), &Echo(8), &e, &mut sink);
        assert!(matches!(
            sink.drain().as_slice(),
            [ByzStep::Send(ProcessId(2), Echo(8))]
        ));
        let mut sink = ByzSink::new();
        b.on_timer(0, &e, &mut sink);
        let steps: Vec<_> = sink.drain().collect();
        assert!(matches!(steps[0], ByzStep::Timer(1, 0)));
        assert!(matches!(steps[1], ByzStep::Send(ProcessId(2), Echo(8))));
    }
}
