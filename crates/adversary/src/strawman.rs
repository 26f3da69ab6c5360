//! Strawman protocols — deliberately *cheap* consensus attempts that the
//! paper's impossibility results doom. They are the victims of the
//! executable lower-bound and partition arguments.

use std::collections::HashMap;

use validity_core::{ProcessId, Value};
use validity_simnet::{Env, Machine, Message, StepSink, Time};

use validity_protocols::codec::Words;

/// Messages of the [`LeaderEcho`] strawman.
#[derive(Clone, Debug)]
pub struct LeaderValue<V>(pub V);

impl<V: Value + Words> Message for LeaderValue<V> {
    fn words(&self) -> usize {
        self.0.words()
    }
}

/// `LeaderEcho`: the leader (`P_1`) broadcasts its value; everyone decides
/// what they hear, falling back to their own proposal on timeout.
///
/// Costs only `O(n)` messages — strictly below the Ω(t²) bound of
/// Theorem 4. Consequently it *cannot* be a correct consensus algorithm for
/// any non-trivial validity property: the Dolev–Reischuk harness
/// (`crate::dolev_reischuk`) constructs an agreement violation from its
/// very cheapness (a process that can decide without hearing anything).
#[derive(Clone, Debug)]
pub struct LeaderEcho<V> {
    input: V,
    decided: bool,
}

impl<V: Value> LeaderEcho<V> {
    /// Creates a node with its proposal.
    pub fn new(input: V) -> Self {
        LeaderEcho {
            input,
            decided: false,
        }
    }

    /// The timeout after which a process gives up waiting for the leader.
    pub fn timeout(env: &Env) -> Time {
        10 * env.delta
    }
}

impl<V: Value + Words> Machine for LeaderEcho<V> {
    type Msg = LeaderValue<V>;
    type Output = V;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, V>) {
        if env.id == ProcessId(0) {
            self.decided = true;
            sink.broadcast(LeaderValue(self.input.clone()));
            sink.output(self.input.clone());
            sink.halt();
        } else {
            sink.timer(Self::timeout(env), 0);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        _env: &Env,
        sink: &mut StepSink<Self::Msg, V>,
    ) {
        if self.decided || from != ProcessId(0) {
            return;
        }
        self.decided = true;
        sink.output(msg.0.clone());
        sink.halt();
    }

    fn on_timer(&mut self, _tag: u64, _env: &Env, sink: &mut StepSink<Self::Msg, V>) {
        if self.decided {
            return;
        }
        self.decided = true;
        // Termination fallback: decide own proposal. This is the "correct
        // local behaviour deciding without receiving any message" that
        // Lemma 5 extracts.
        sink.output(self.input.clone());
        sink.halt();
    }
}

/// Messages of the [`QuorumVote`] strawman.
#[derive(Clone, Debug)]
pub struct Vote<V>(pub V);

impl<V: Value + Words> Message for Vote<V> {
    fn words(&self) -> usize {
        self.0.words()
    }
}

/// `QuorumVote`: broadcast your proposal; decide any value seen `n − t`
/// times; after a timeout, decide the most frequent value seen.
///
/// Perfectly reasonable-looking — and sound against *silent* faults — but
/// with `n ≤ 3t` two `n − t` quorums need not intersect in a correct
/// process, so the two-faced partition adversary of Theorem 1 splits it
/// into disagreement (`crate::partition`).
#[derive(Clone, Debug)]
pub struct QuorumVote<V> {
    input: V,
    votes: HashMap<V, usize>,
    decided: bool,
}

impl<V: Value> QuorumVote<V> {
    /// Creates a node with its proposal.
    pub fn new(input: V) -> Self {
        QuorumVote {
            input,
            votes: HashMap::new(),
            decided: false,
        }
    }

    /// The give-up timeout.
    pub fn timeout(env: &Env) -> Time {
        20 * env.delta
    }
}

impl<V: Value + Words> Machine for QuorumVote<V> {
    type Msg = Vote<V>;
    type Output = V;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, V>) {
        sink.broadcast(Vote(self.input.clone()));
        sink.timer(Self::timeout(env), 0);
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, V>,
    ) {
        if self.decided {
            return;
        }
        let count = self.votes.entry(msg.0.clone()).or_insert(0);
        *count += 1;
        if *count >= env.quorum() {
            self.decided = true;
            sink.output(msg.0.clone());
            sink.halt();
        }
    }

    fn on_timer(&mut self, _tag: u64, _env: &Env, sink: &mut StepSink<Self::Msg, V>) {
        if self.decided {
            return;
        }
        self.decided = true;
        let best = self
            .votes
            .iter()
            .max_by_key(|(v, c)| (**c, std::cmp::Reverse((*v).clone())))
            .map(|(v, _)| v.clone())
            .unwrap_or_else(|| self.input.clone());
        sink.output(best);
        sink.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::SystemParams;
    use validity_simnet::{agreement_holds, NodeKind, Silent, SimBuilder};

    #[test]
    fn leader_echo_works_in_nice_runs() {
        let params = SystemParams::new(4, 1).unwrap();
        let nodes: Vec<NodeKind<LeaderEcho<u64>>> = (0..4)
            .map(|i| NodeKind::Correct(LeaderEcho::new(40 + i as u64)))
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(1)
            .build(nodes)
            .expect("valid configuration");
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
        assert_eq!(sim.decisions()[1].as_ref().unwrap().1, 40); // leader's value
                                                                // sub-quadratic cost: exactly n messages (one broadcast)
        assert_eq!(sim.stats().messages_total, 4);
    }

    #[test]
    fn leader_echo_times_out_without_leader() {
        let params = SystemParams::new(4, 1).unwrap();
        let nodes: Vec<NodeKind<LeaderEcho<u64>>> = (0..4)
            .map(|i| {
                if i == 0 {
                    NodeKind::Byzantine(Box::new(Silent))
                } else {
                    NodeKind::Correct(LeaderEcho::new(40 + i as u64))
                }
            })
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(2)
            .build(nodes)
            .expect("valid configuration");
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        // everyone fell back to their own value: termination holds,
        // agreement already wobbles (the protocol is broken by design).
        assert_eq!(sim.decisions()[1].as_ref().unwrap().1, 41);
        assert_eq!(sim.decisions()[2].as_ref().unwrap().1, 42);
    }

    #[test]
    fn quorum_vote_agrees_with_honest_majority() {
        let params = SystemParams::new(4, 1).unwrap();
        let nodes: Vec<NodeKind<QuorumVote<u64>>> = (0..4)
            .map(|_| NodeKind::Correct(QuorumVote::new(7u64)))
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(3)
            .build(nodes)
            .expect("valid configuration");
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
        assert_eq!(sim.decisions()[0].as_ref().unwrap().1, 7);
    }
}
