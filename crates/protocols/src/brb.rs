//! Byzantine Reliable Broadcast (Bracha \[20\]) — the non-authenticated
//! dissemination primitive used by Algorithm 3 (Appendix B.2).
//!
//! Guarantees (for `n > 3t`): *validity* (a correct sender's message is
//! delivered), *consistency* (no two correct processes deliver different
//! messages), *integrity* (at most one delivery, and only of a message the
//! sender broadcast if it is correct) and *totality* (if one correct process
//! delivers, all do).

use std::fmt::Debug;

use validity_core::{ProcessId, ProcessSet};
use validity_simnet::{Env, StepSink};

use crate::codec::Words;

/// Wire messages of one BRB instance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BrbMsg<P> {
    /// The sender's initial dissemination.
    Init(P),
    /// Witness echo of the payload.
    Echo(P),
    /// Delivery-commitment amplification.
    Ready(P),
}

impl<P: Words> Words for BrbMsg<P> {
    fn words(&self) -> usize {
        match self {
            BrbMsg::Init(p) | BrbMsg::Echo(p) | BrbMsg::Ready(p) => 1 + p.words(),
        }
    }
}

impl<P: Clone + Debug + Words + Send + 'static> validity_simnet::Message for BrbMsg<P> {
    fn words(&self) -> usize {
        Words::words(self)
    }
}

/// One instance of Bracha reliable broadcast, parameterized by the
/// designated sender. The component outputs the delivered payload.
///
/// A correct process sends one `ECHO` and one `READY` per instance, so only
/// each sender's *first* vote of each kind is counted: a tally holds at most
/// `n` payloads whatever Byzantine senders do, and any two `ECHO` quorums
/// still intersect in a correct process, which voted once. Since
/// `echo_from` / `ready_from` admit each sender once, a tally is a count per
/// payload, not a set of voters.
#[derive(Clone, Debug)]
pub struct BrbInstance<P> {
    sender: ProcessId,
    echoed: bool,
    sent_ready: bool,
    delivered: bool,
    echo_from: ProcessSet,
    ready_from: ProcessSet,
    echoes: Vec<(P, usize)>,
    readies: Vec<(P, usize)>,
}

/// Adds a sender's first vote to `payload`'s count and returns the new
/// count.
fn tally<P: Clone + Eq>(votes: &mut Vec<(P, usize)>, payload: &P) -> usize {
    let i = votes
        .iter()
        .position(|(p, _)| p == payload)
        .unwrap_or_else(|| {
            votes.push((payload.clone(), 0));
            votes.len() - 1
        });
    votes[i].1 += 1;
    votes[i].1
}

impl<P: Clone + Eq + Debug> BrbInstance<P> {
    /// Creates the instance for broadcasts by `sender`.
    pub fn new(sender: ProcessId) -> Self {
        BrbInstance {
            sender,
            echoed: false,
            sent_ready: false,
            delivered: false,
            echo_from: ProcessSet::new(),
            ready_from: ProcessSet::new(),
            echoes: Vec::new(),
            readies: Vec::new(),
        }
    }

    /// The designated sender.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// Whether this instance has delivered.
    pub fn has_delivered(&self) -> bool {
        self.delivered
    }

    /// Initiates the broadcast (only meaningful at the designated sender).
    ///
    /// # Panics
    ///
    /// Panics if called by a process other than the designated sender.
    pub fn broadcast(&mut self, payload: P, env: &Env, sink: &mut StepSink<BrbMsg<P>, P>) {
        assert_eq!(env.id, self.sender, "only the designated sender broadcasts");
        sink.broadcast(BrbMsg::Init(payload));
    }

    /// Echo quorum: `⌈(n + t + 1) / 2⌉`.
    fn echo_threshold(env: &Env) -> usize {
        (env.n() + env.t() + 1).div_ceil(2)
    }

    /// Handles a message belonging to this instance.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &BrbMsg<P>,
        env: &Env,
        sink: &mut StepSink<BrbMsg<P>, P>,
    ) {
        match msg {
            BrbMsg::Init(p) => {
                // Only the designated sender's INIT is honoured.
                if from == self.sender && !self.echoed {
                    self.echoed = true;
                    sink.broadcast(BrbMsg::Echo(p.clone()));
                }
            }
            // Delivery implies the READY went out: nothing is left to fire.
            BrbMsg::Echo(_) | BrbMsg::Ready(_) if self.delivered => {}
            BrbMsg::Echo(p) => {
                if self.echo_from.insert(from)
                    && tally(&mut self.echoes, p) >= Self::echo_threshold(env)
                    && !self.sent_ready
                {
                    self.sent_ready = true;
                    sink.broadcast(BrbMsg::Ready(p.clone()));
                }
            }
            BrbMsg::Ready(p) => {
                if self.ready_from.insert(from) {
                    let count = tally(&mut self.readies, p);
                    if count > env.t() && !self.sent_ready {
                        self.sent_ready = true;
                        sink.broadcast(BrbMsg::Ready(p.clone()));
                    }
                    if count > 2 * env.t() {
                        self.delivered = true;
                        sink.output(p.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::{
        agreement_holds, ByzSink, ByzStep, Byzantine, Machine, NodeKind, Silent, SimBuilder, Step,
    };

    /// Standalone machine wrapping one BRB instance with P1 as sender.
    #[derive(Clone, Debug)]
    struct BrbNode {
        instance: BrbInstance<u64>,
        payload: u64,
    }

    impl Machine for BrbNode {
        type Msg = BrbMsg<u64>;
        type Output = u64;

        fn init(&mut self, env: &Env, sink: &mut StepSink<BrbMsg<u64>, u64>) {
            if env.id == self.instance.sender() {
                self.instance.broadcast(self.payload, env, sink);
            }
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &BrbMsg<u64>,
            env: &Env,
            sink: &mut StepSink<BrbMsg<u64>, u64>,
        ) {
            self.instance.on_message(from, msg, env, sink);
        }
    }

    /// Drives one instance directly and returns the emitted steps.
    fn deliver(
        inst: &mut BrbInstance<u64>,
        from: ProcessId,
        msg: BrbMsg<u64>,
        env: &Env,
    ) -> Vec<Step<BrbMsg<u64>, u64>> {
        let mut sink = StepSink::new();
        inst.on_message(from, &msg, env, &mut sink);
        sink.drain().collect()
    }

    /// `P2`'s view of a `(4, 1)` system.
    fn env_at_p2() -> Env {
        Env {
            id: ProcessId(1),
            params: SystemParams::new(4, 1).unwrap(),
            now: 0,
            delta: 10,
        }
    }

    fn node(payload: u64) -> BrbNode {
        BrbNode {
            instance: BrbInstance::new(ProcessId(0)),
            payload,
        }
    }

    #[test]
    fn correct_sender_delivers_everywhere() {
        let params = SystemParams::new(4, 1).unwrap();
        let nodes = vec![
            NodeKind::Correct(node(42)),
            NodeKind::Correct(node(42)),
            NodeKind::Correct(node(42)),
            NodeKind::Byzantine(Box::new(Silent)),
        ];
        let mut sim = SimBuilder::new(params)
            .seed(1)
            .build(nodes)
            .expect("valid configuration");
        sim.run_until_decided();
        assert!(sim.all_correct_decided());
        for d in sim.decisions().iter().take(3) {
            assert_eq!(d.as_ref().unwrap().1, 42);
        }
    }

    /// Equivocating sender: INIT(1) to low half, INIT(2) to high half.
    struct EquivocatingSender;

    impl Byzantine<BrbMsg<u64>> for EquivocatingSender {
        fn init(&mut self, env: &Env, sink: &mut ByzSink<BrbMsg<u64>>) {
            for i in 0..env.n() {
                let v = if i < env.n() / 2 { 1 } else { 2 };
                sink.push(ByzStep::Send(ProcessId::from_index(i), BrbMsg::Init(v)));
            }
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_delivery() {
        let params = SystemParams::new(4, 1).unwrap();
        let nodes: Vec<NodeKind<BrbNode>> = vec![
            NodeKind::Byzantine(Box::new(EquivocatingSender)),
            NodeKind::Correct(node(0)),
            NodeKind::Correct(node(0)),
            NodeKind::Correct(node(0)),
        ];
        let mut sim = SimBuilder::new(params)
            .seed(2)
            .build(nodes)
            .expect("valid configuration");
        sim.run_to_quiescence();
        // Consistency: whatever was delivered (possibly nothing) is unanimous.
        assert!(agreement_holds(sim.decisions()));
    }

    #[test]
    fn non_sender_init_is_ignored() {
        let env = env_at_p2();
        let mut inst = BrbInstance::<u64>::new(ProcessId(0));
        // INIT claimed from a process that is not the designated sender:
        let steps = deliver(&mut inst, ProcessId(2), BrbMsg::Init(9), &env);
        assert!(steps.is_empty());
    }

    #[test]
    fn duplicate_echoes_do_not_double_count() {
        let env = env_at_p2();
        let mut inst = BrbInstance::<u64>::new(ProcessId(0));
        // echo threshold for (4,1) is ⌈6/2⌉ = 3; the same echo twice must not count as two
        assert!(deliver(&mut inst, ProcessId(0), BrbMsg::Echo(9), &env).is_empty());
        assert!(deliver(&mut inst, ProcessId(0), BrbMsg::Echo(9), &env).is_empty());
        assert!(deliver(&mut inst, ProcessId(2), BrbMsg::Echo(9), &env).is_empty());
        let steps = deliver(&mut inst, ProcessId(3), BrbMsg::Echo(9), &env);
        assert!(matches!(
            steps.as_slice(),
            [Step::Broadcast(BrbMsg::Ready(9))]
        ));
    }

    #[test]
    fn only_a_senders_first_vote_counts() {
        let env = env_at_p2();
        let mut inst = BrbInstance::<u64>::new(ProcessId(0));
        // One Byzantine process votes for a thousand payloads: one entry per
        // tally, and its later votes never help another payload to a quorum.
        for p in 0..1000 {
            assert!(deliver(&mut inst, ProcessId(3), BrbMsg::Echo(p), &env).is_empty());
            assert!(deliver(&mut inst, ProcessId(3), BrbMsg::Ready(p), &env).is_empty());
        }
        assert_eq!((inst.echoes.len(), inst.readies.len()), (1, 1));
        assert!(deliver(&mut inst, ProcessId(0), BrbMsg::Ready(9), &env).is_empty());
        // P4's READY(9) was its 10th, not its first: still below t + 1 = 2.
        assert!(!inst.sent_ready);
        let steps = deliver(&mut inst, ProcessId(2), BrbMsg::Ready(9), &env);
        assert!(matches!(
            steps.as_slice(),
            [Step::Broadcast(BrbMsg::Ready(9))]
        ));
    }

    #[test]
    fn votes_after_delivery_touch_nothing() {
        let env = env_at_p2();
        let mut inst = BrbInstance::<u64>::new(ProcessId(0));
        for p in [0, 2, 3] {
            deliver(&mut inst, ProcessId(p), BrbMsg::Ready(9), &env);
        }
        assert!(inst.has_delivered());
        assert!(deliver(&mut inst, ProcessId(1), BrbMsg::Echo(5), &env).is_empty());
        assert!(deliver(&mut inst, ProcessId(1), BrbMsg::Ready(5), &env).is_empty());
        assert_eq!((inst.echoes.len(), inst.readies.len()), (0, 1));
        // A late INIT is still echoed, as before.
        let steps = deliver(&mut inst, ProcessId(0), BrbMsg::Init(9), &env);
        assert!(matches!(
            steps.as_slice(),
            [Step::Broadcast(BrbMsg::Echo(9))]
        ));
    }

    #[test]
    fn ready_amplification_at_t_plus_one() {
        let env = env_at_p2();
        let mut inst = BrbInstance::<u64>::new(ProcessId(0));
        assert!(deliver(&mut inst, ProcessId(2), BrbMsg::Ready(9), &env).is_empty());
        let steps = deliver(&mut inst, ProcessId(3), BrbMsg::Ready(9), &env);
        // t + 1 = 2 readies → amplify
        assert!(matches!(
            steps.as_slice(),
            [Step::Broadcast(BrbMsg::Ready(9))]
        ));
        // 2t + 1 = 3 readies → deliver
        let steps = deliver(&mut inst, ProcessId(0), BrbMsg::Ready(9), &env);
        assert!(matches!(steps.as_slice(), [Step::Output(9)]));
        assert!(inst.has_delivered());
    }
}
