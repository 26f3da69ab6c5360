//! **Algorithm 3** — non-authenticated vector consensus (Appendix B.2).
//!
//! No cryptography at all: each process reliably broadcasts its proposal
//! (Bracha BRB), and one binary DBFT instance per process decides whether
//! that process's proposal makes it into the output vector:
//!
//! * on BRB-delivering `P_j`'s proposal, propose `1` to `dbft[j]` (while
//!   still in the "proposing 1s" phase);
//! * once `n − t` instances have decided `1`, propose `0` to every
//!   remaining instance;
//! * when all `n` instances have decided, output the configuration formed
//!   by the first `n − t` processes (by index) whose instance decided `1`
//!   (their proposals are guaranteed to arrive, by BRB totality).
//!
//! Message complexity is `O(n⁴)`: `n` BRB instances at `O(n²)` each plus
//! `n` DBFT instances at `O(n²)` per round — the price of dropping
//! signatures (the paper's Appendix B.2 bound).

use validity_core::{InputConfig, ProcessId, Value};
use validity_simnet::{Env, Machine, Message, StepSink};

use crate::brb::{BrbInstance, BrbMsg};
use crate::codec::Words;
use crate::dbft::{DbftBinary, DbftMsg};

/// Timer-tag stride: DBFT instance `j` owns tags `{r · MAX_N + j}`.
const MAX_N: u64 = 128;

/// Shorthand for the outer sink the Algorithm-3 helpers write into.
type OutSink<'a, V> = &'a mut StepSink<VectorNonAuthMsg<V>, InputConfig<V>>;

/// Wire messages of Algorithm 3.
#[derive(Clone, Debug)]
pub enum VectorNonAuthMsg<V> {
    /// A message of the BRB instance whose designated sender is `sender`.
    Brb {
        /// The designated sender of the instance.
        sender: ProcessId,
        /// Inner BRB message.
        inner: BrbMsg<V>,
    },
    /// A message of DBFT instance `instance`.
    Dbft {
        /// Which process's inclusion is being decided.
        instance: u32,
        /// Inner DBFT message.
        inner: DbftMsg,
    },
}

impl<V: Value + Words> Message for VectorNonAuthMsg<V> {
    fn words(&self) -> usize {
        match self {
            VectorNonAuthMsg::Brb { inner, .. } => 1 + Words::words(inner),
            VectorNonAuthMsg::Dbft { inner, .. } => 1 + Words::words(inner),
        }
    }
}

/// The Algorithm 3 machine. Output: the decided `vector ∈ I_{n−t}`.
pub struct VectorNonAuth<V> {
    input: V,
    brbs: Vec<BrbInstance<V>>,
    dbfts: Vec<DbftBinary>,
    /// Scratch sink lent to BRB instances; reused across events.
    brb_sink: StepSink<BrbMsg<V>, V>,
    /// Scratch sink lent to DBFT instances; reused across events.
    dbft_sink: StepSink<DbftMsg, bool>,
    proposals: Vec<Option<V>>,
    dbft_proposing: bool,
    /// DBFT instances that decided `1` / have not decided yet, counted
    /// where `lift_dbft` sees the decision.
    ones: usize,
    undecided: usize,
    decided: bool,
}

impl<V: Value + Words> VectorNonAuth<V> {
    /// Creates the machine for one process with its proposal.
    pub fn new(input: V, n: usize) -> Self {
        VectorNonAuth {
            input,
            brbs: (0..n)
                .map(|j| BrbInstance::new(ProcessId::from_index(j)))
                .collect(),
            dbfts: (0..n).map(|_| DbftBinary::new()).collect(),
            brb_sink: StepSink::new(),
            dbft_sink: StepSink::new(),
            proposals: vec![None; n],
            dbft_proposing: true,
            ones: 0,
            undecided: n,
            decided: false,
        }
    }

    /// Drains the BRB scratch sink for instance `j` into the outer sink,
    /// then acts on the delivery (after the instance's own sends, so the
    /// wire order is the instance's, then the reaction's).
    fn lift_brb(&mut self, j: usize, env: &Env, out: OutSink<'_, V>) {
        let sender = ProcessId::from_index(j);
        let mut delivered = None;
        self.brb_sink.drain_map(
            out,
            |inner| VectorNonAuthMsg::Brb { sender, inner },
            |_| unreachable!("BRB uses no timers"),
            |v, _| {
                debug_assert!(delivered.is_none(), "BRB integrity: one delivery");
                delivered = Some(v);
            },
            |_| unreachable!("BRB never halts"),
        );
        if let Some(v) = delivered {
            self.on_brb_delivery(j, v, env, out);
        }
    }

    /// Drains the DBFT scratch sink for instance `j` into the outer sink,
    /// then counts and reacts to the decision if it reported one.
    fn lift_dbft(&mut self, j: usize, env: &Env, out: OutSink<'_, V>) {
        let instance = j as u32;
        let mut decision = None;
        self.dbft_sink.drain_map(
            out,
            |inner| VectorNonAuthMsg::Dbft { instance, inner },
            |tag| tag * MAX_N + j as u64,
            |v, _| {
                debug_assert!(decision.is_none(), "DBFT decides once");
                decision = Some(v);
            },
            |_| {}, // instance-local halt
        );
        if let Some(v) = decision {
            self.undecided -= 1;
            self.ones += v as usize;
            self.on_dbft_decision(env, out);
        }
    }

    /// Lines 11–15: a BRB delivery of `P_j`'s proposal.
    fn on_brb_delivery(&mut self, j: usize, v: V, env: &Env, out: OutSink<'_, V>) {
        self.proposals[j] = Some(v);
        if self.dbft_proposing && !self.dbfts[j].has_proposed() {
            self.dbfts[j].propose(true, env, &mut self.dbft_sink);
            self.lift_dbft(j, env, out);
        }
        self.try_decide(env, out);
    }

    /// Lines 16–20 and 21–23: react to DBFT progress.
    fn on_dbft_decision(&mut self, env: &Env, out: OutSink<'_, V>) {
        if self.ones >= env.quorum() && self.dbft_proposing {
            self.dbft_proposing = false;
            for j in 0..self.dbfts.len() {
                if !self.dbfts[j].has_proposed() && self.dbfts[j].decided().is_none() {
                    self.dbfts[j].propose(false, env, &mut self.dbft_sink);
                    self.lift_dbft(j, env, out);
                }
            }
        }
        self.try_decide(env, out);
    }

    /// Lines 21–23: all instances decided + proposals present ⇒ decide.
    fn try_decide(&mut self, env: &Env, out: OutSink<'_, V>) {
        if self.decided || self.undecided > 0 {
            return;
        }
        let winners: Vec<usize> = (0..self.dbfts.len())
            .filter(|&j| self.dbfts[j].decided() == Some(true))
            .take(env.quorum())
            .collect();
        if winners.len() < env.quorum() {
            // Fewer than n − t instances decided 1: impossible in a valid
            // run (at least n − t instances receive 1-proposals from all
            // correct processes), but guard anyway.
            return;
        }
        if winners.iter().any(|&j| self.proposals[j].is_none()) {
            return; // await BRB totality
        }
        self.decided = true;
        let vector = InputConfig::from_pairs(
            env.params,
            winners
                .iter()
                .map(|&j| (ProcessId::from_index(j), self.proposals[j].clone().unwrap())),
        )
        .expect("n − t distinct winners form a valid configuration");
        out.output(vector);
    }
}

impl<V: Value + Words> Machine for VectorNonAuth<V> {
    type Msg = VectorNonAuthMsg<V>;
    type Output = InputConfig<V>;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        let me = env.id.index();
        let input = self.input.clone();
        self.brbs[me].broadcast(input, env, &mut self.brb_sink);
        self.lift_brb(me, env, sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        match msg {
            VectorNonAuthMsg::Brb { sender, inner } => {
                let j = sender.index();
                if j >= self.brbs.len() {
                    return;
                }
                self.brbs[j].on_message(from, inner, env, &mut self.brb_sink);
                self.lift_brb(j, env, sink);
            }
            VectorNonAuthMsg::Dbft { instance, inner } => {
                let j = *instance as usize;
                if j >= self.dbfts.len() {
                    return;
                }
                self.dbfts[j].on_message(from, inner, env, &mut self.dbft_sink);
                self.lift_dbft(j, env, sink);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        let j = (tag % MAX_N) as usize;
        let inner_tag = tag / MAX_N;
        if j >= self.dbfts.len() {
            return;
        }
        self.dbfts[j].on_timer(inner_tag, env, &mut self.dbft_sink);
        self.lift_dbft(j, env, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::{check_decision, SystemParams, VectorValidity};
    use validity_simnet::{agreement_holds, NodeKind, Silent, SimConfig, Simulation};

    fn build(
        n: usize,
        t: usize,
        inputs: &[u64],
        byz: usize,
        seed: u64,
    ) -> Simulation<VectorNonAuth<u64>> {
        let params = SystemParams::new(n, t).unwrap();
        let nodes: Vec<NodeKind<VectorNonAuth<u64>>> = (0..n)
            .map(|i| {
                if i < n - byz {
                    NodeKind::Correct(VectorNonAuth::new(inputs[i], n))
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        Simulation::new(SimConfig::new(params).seed(seed), nodes)
    }

    #[test]
    fn failure_free_run_decides_valid_vector() {
        let inputs = [5u64, 6, 7, 8];
        let mut sim = build(4, 1, &inputs, 0, 1);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
        let vector = &sim.decisions()[0].as_ref().unwrap().1;
        assert_eq!(vector.len(), 3);
        let params = SystemParams::new(4, 1).unwrap();
        let real = InputConfig::complete(params, inputs.to_vec());
        for (p, v) in vector.pairs() {
            assert_eq!(real.proposal(p), Some(v), "vector misreports {p}");
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        let inputs = [5u64, 6, 7, 8];
        for seed in 0..3 {
            let mut sim = build(4, 1, &inputs, 1, seed);
            assert_eq!(
                sim.run_until_decided(),
                validity_simnet::RunOutcome::AllDecided,
                "seed {seed}"
            );
            assert!(agreement_holds(sim.decisions()));
            let vector = &sim.decisions()[0].as_ref().unwrap().1;
            let params = SystemParams::new(4, 1).unwrap();
            let actual = InputConfig::from_pairs(params, (0..3).map(|i| (i, inputs[i]))).unwrap();
            assert!(check_decision(&VectorValidity, &actual, vector).is_ok());
        }
    }

    #[test]
    fn larger_system_with_faults() {
        let inputs: Vec<u64> = (0..7).collect();
        let mut sim = build(7, 2, &inputs, 2, 5);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
    }

    #[test]
    fn costs_more_messages_than_algorithm_1() {
        // The paper's point: dropping signatures costs O(n⁴) vs O(n²).
        use crate::vector_auth::VectorAuth;
        use validity_crypto::{KeyStore, ThresholdScheme};

        let n = 7;
        let t = 2;
        let params = SystemParams::new(n, t).unwrap();
        let inputs: Vec<u64> = (0..n as u64).collect();

        let mut sim3 = build(n, t, &inputs, 0, 3);
        sim3.run_until_decided();
        let msgs3 = sim3.stats().messages_total;

        let ks = KeyStore::new(n, 3);
        let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
        let nodes: Vec<NodeKind<VectorAuth<u64>>> = (0..n)
            .map(|i| {
                NodeKind::Correct(VectorAuth::new(
                    inputs[i],
                    ks.clone(),
                    ks.signer(ProcessId(i as u32)),
                    scheme.clone(),
                    params,
                ))
            })
            .collect();
        let mut sim1 = Simulation::new(SimConfig::new(params).seed(3), nodes);
        sim1.run_until_decided();
        let msgs1 = sim1.stats().messages_total;

        assert!(
            msgs3 > 3 * msgs1,
            "Algorithm 3 ({msgs3} msgs) should cost much more than Algorithm 1 ({msgs1} msgs)"
        );
    }
}
