//! **Algorithm 6** — vector consensus with `O(n² log n)` communication
//! (Appendix B.3.2).
//!
//! The subcubic construction: instead of agreeing on linear-size vectors
//! through Quad (which costs `O(n³)` words as in Algorithm 1), processes
//!
//! 1. broadcast signed proposals and assemble a vector (as in Algorithm 1);
//! 2. *disseminate* the vector via Algorithm 5 (slow broadcast + threshold
//!    acknowledgments), acquiring a constant-size hash–signature pair;
//! 3. run **Quad on the hashes** (`V_Quad` = hash values, `P_Quad` =
//!    threshold signatures, `verify` = threshold-signature validity);
//! 4. reconstruct the pre-image of the decided hash with **ADD**: by the
//!    redundancy property of dissemination, at least `t + 1` correct
//!    processes cached it, exactly ADD's precondition.
//!
//! The price is the exponential worst-case latency inherited from slow
//! broadcast — the trade-off the paper states ("highly impractical due to
//! its exponential latency" yet within a log factor of the communication
//! lower bound).

use std::collections::BTreeMap;

use validity_core::{InputConfig, ProcessId, SystemParams, Value};
use validity_crypto::{Digest, KeyStore, Signer, ThresholdScheme, ThresholdSignature};
use validity_simnet::{Env, Machine, Message, StepSink};

use crate::add::{Add, AddMsg};
use crate::codec::{Codec, Words};
use crate::dissemination::{Acquired, DissemMsg, VectorDissemination};
use crate::quad::{QuadConfig, QuadCore, QuadMsg, QuadSink};
use crate::vector_auth::{sign_proposal, ProposalVerifier, SignedProposal, VectorProof};

/// Timer tags of the embedded children are namespaced as
/// `inner_tag * CHILD_STRIDE + child_index`.
const CHILD_STRIDE: u64 = 8;
const CHILD_QUAD: u64 = 0;
const CHILD_DISSEM: u64 = 1;

/// Namespaces an inner timer tag for child `child`.
fn tag_wrap(child: u64, inner: u64) -> u64 {
    debug_assert!(child < CHILD_STRIDE);
    inner * CHILD_STRIDE + child
}

/// Splits a namespaced tag into `(child, inner)`.
fn tag_unwrap(tag: u64) -> (u64, u64) {
    (tag % CHILD_STRIDE, tag / CHILD_STRIDE)
}

/// Shorthand for the outer sink the Algorithm-6 helpers write into.
type OutSink<'a, V> = &'a mut StepSink<VectorFastMsg<V>, InputConfig<V>>;

/// Wire messages of Algorithm 6.
#[derive(Clone, Debug)]
pub enum VectorFastMsg<V> {
    /// A signed proposal (same as Algorithm 1).
    Proposal {
        /// Proposed value.
        value: V,
        /// Signature by the sender.
        sig: validity_crypto::Signature,
    },
    /// Vector-dissemination traffic (Algorithm 5).
    Dissem(DissemMsg<V>),
    /// Quad over hash–signature pairs.
    Quad(QuadMsg<Digest, ThresholdSignature>),
    /// ADD reconstruction traffic.
    Add(AddMsg),
}

impl<V: Value + Words> Message for VectorFastMsg<V> {
    fn words(&self) -> usize {
        match self {
            VectorFastMsg::Proposal { value, .. } => value.words() + 1,
            VectorFastMsg::Dissem(m) => Words::words(m),
            VectorFastMsg::Quad(m) => Words::words(m),
            VectorFastMsg::Add(m) => Words::words(m),
        }
    }
}

/// The Algorithm 6 machine. Output: the decided `vector ∈ I_{n−t}`.
pub struct VectorFast<V: Value> {
    input: V,
    signer: Signer,
    proposals: BTreeMap<ProcessId, SignedProposal<V>>,
    dissem: VectorDissemination<V>,
    quad: QuadCore<Digest, ThresholdSignature>,
    add: Add,
    /// Scratch sinks lent to the embedded components; reused across events.
    quad_sink: QuadSink<Digest, ThresholdSignature>,
    dissem_sink: StepSink<DissemMsg<V>, Acquired>,
    add_sink: StepSink<AddMsg, Vec<u8>>,
    disseminating: bool,
    proposed_to_quad: bool,
    add_started: bool,
    decided: bool,
}

impl<V> VectorFast<V>
where
    V: Value + Codec + Words,
{
    /// Creates the machine for one process.
    pub fn new(
        input: V,
        keystore: KeyStore,
        signer: Signer,
        scheme: ThresholdScheme,
        params: SystemParams,
    ) -> Self {
        let verify_scheme = scheme.clone();
        let quad: QuadCore<Digest, ThresholdSignature> = QuadCore::new(QuadConfig {
            scheme: scheme.clone(),
            signer: signer.clone(),
            verify: Box::new(move |h: &Digest, tsig: &ThresholdSignature| {
                verify_scheme.verify(h, tsig)
            }),
            label: "validity/alg6/quad",
        });
        let verifier = ProposalVerifier::new(keystore, params);
        let dissem = VectorDissemination::new(scheme, signer.clone(), verifier);
        VectorFast {
            input,
            signer,
            proposals: BTreeMap::new(),
            dissem,
            quad,
            add: Add::new(params.n(), params.t()),
            quad_sink: StepSink::new(),
            dissem_sink: StepSink::new(),
            add_sink: StepSink::new(),
            disseminating: false,
            proposed_to_quad: false,
            add_started: false,
            decided: false,
        }
    }

    fn lift_quad(&mut self, env: &Env, out: OutSink<'_, V>) {
        let mut outputs = Vec::new();
        self.quad_sink.drain_map(
            out,
            VectorFastMsg::Quad,
            |tag| tag_wrap(CHILD_QUAD, tag),
            |o, _| outputs.push(o),
            |_| {}, // quad halting must not halt Algorithm 6
        );
        for (h, _tsig) in outputs {
            self.on_quad_decision(h, env, out);
        }
    }

    fn lift_dissem(&mut self, env: &Env, out: OutSink<'_, V>) {
        let mut acquired = Vec::new();
        self.dissem_sink.drain_map(
            out,
            VectorFastMsg::Dissem,
            |tag| tag_wrap(CHILD_DISSEM, tag),
            |o, _| acquired.push(o),
            |_| {},
        );
        for (h, tsig) in acquired {
            // lines 19–21: propose the acquired pair to Quad (once).
            if !self.proposed_to_quad {
                self.proposed_to_quad = true;
                self.quad.propose(h, tsig, env, &mut self.quad_sink);
                self.lift_quad(env, out);
            }
        }
    }

    fn lift_add(&mut self, out: OutSink<'_, V>) {
        self.add_sink.drain_map(
            out,
            VectorFastMsg::Add,
            |_| unreachable!("ADD uses no timers"),
            |blob, out| {
                // lines 25–26: decode and decide.
                if !self.decided {
                    if let Some(vector) = InputConfig::<V>::decode_all(&blob) {
                        self.decided = true;
                        out.output(vector);
                        out.halt();
                    }
                }
            },
            |_| {},
        );
    }

    /// Lines 22–24: Quad decided a hash — feed ADD with the cached
    /// pre-image (or `⊥`).
    fn on_quad_decision(&mut self, h: Digest, env: &Env, out: OutSink<'_, V>) {
        if self.add_started {
            return;
        }
        self.add_started = true;
        let blob = self.dissem.cached(&h).map(Codec::encode);
        self.add.input(blob, env, &mut self.add_sink);
        self.lift_add(out);
    }
}

impl<V> Machine for VectorFast<V>
where
    V: Value + Codec + Words,
{
    type Msg = VectorFastMsg<V>;
    type Output = InputConfig<V>;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        let sig = sign_proposal(&self.signer, &self.input);
        sink.broadcast(VectorFastMsg::Proposal {
            value: self.input.clone(),
            sig,
        });
        self.quad.start(env, &mut self.quad_sink);
        self.lift_quad(env, sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        match msg {
            VectorFastMsg::Proposal { value, sig } => {
                // lines 12–18: collect n − t valid proposals, then
                // disseminate the assembled vector.
                if self.disseminating
                    || self.proposals.contains_key(&from)
                    || !self.dissem.verifier_mut().verify_proposal(from, value, sig)
                {
                    return;
                }
                self.proposals.insert(
                    from,
                    SignedProposal {
                        from,
                        value: value.clone(),
                        sig: *sig,
                    },
                );
                if self.proposals.len() < env.quorum() {
                    return;
                }
                self.disseminating = true;
                let vector = InputConfig::from_pairs(
                    env.params,
                    self.proposals
                        .values()
                        .map(|sp| (sp.from, sp.value.clone())),
                )
                .expect("n − t distinct proposals form a valid configuration");
                let proof: VectorProof<V> = self.proposals.values().cloned().collect();
                self.dissem
                    .disseminate(vector, proof, 0, env, &mut self.dissem_sink);
                self.lift_dissem(env, sink);
            }
            VectorFastMsg::Dissem(inner) => {
                self.dissem
                    .on_message(from, inner, env, &mut self.dissem_sink);
                self.lift_dissem(env, sink);
            }
            VectorFastMsg::Quad(inner) => {
                self.quad.on_message(from, inner, env, &mut self.quad_sink);
                self.lift_quad(env, sink);
            }
            VectorFastMsg::Add(inner) => {
                self.add.on_message(from, inner, env, &mut self.add_sink);
                self.lift_add(sink);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        let (child, inner) = tag_unwrap(tag);
        match child {
            CHILD_QUAD => {
                self.quad.on_timer(inner, env, &mut self.quad_sink);
                self.lift_quad(env, sink);
            }
            CHILD_DISSEM => {
                self.dissem.on_timer(inner, env, &mut self.dissem_sink);
                self.lift_dissem(env, sink);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::{check_decision, VectorValidity};
    use validity_simnet::{agreement_holds, NodeKind, Silent, SimBuilder, Simulation};

    fn build(
        n: usize,
        t: usize,
        inputs: &[u64],
        byz: usize,
        seed: u64,
    ) -> Simulation<VectorFast<u64>> {
        let params = SystemParams::new(n, t).unwrap();
        let ks = KeyStore::new(n, seed);
        let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
        let nodes: Vec<NodeKind<VectorFast<u64>>> = (0..n)
            .map(|i| {
                if i < n - byz {
                    NodeKind::Correct(VectorFast::new(
                        inputs[i],
                        ks.clone(),
                        ks.signer(ProcessId(i as u32)),
                        scheme.clone(),
                        params,
                    ))
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        SimBuilder::new(params)
            .seed(seed)
            .build(nodes)
            .expect("valid configuration")
    }

    #[test]
    fn child_timer_tags_roundtrip() {
        for child in 0..CHILD_STRIDE {
            for inner in [0u64, 1, 7, 1000] {
                assert_eq!(tag_unwrap(tag_wrap(child, inner)), (child, inner));
            }
        }
    }

    #[test]
    fn failure_free_run_decides_valid_vector() {
        let inputs = [11u64, 22, 33, 44];
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
            assert_eq!(real.proposal(p), Some(v));
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        let inputs = [1u64, 2, 3, 4];
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
    fn larger_system() {
        let inputs: Vec<u64> = (100..107).collect();
        let mut sim = build(7, 2, &inputs, 2, 9);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
    }

    #[test]
    fn word_complexity_beats_algorithm_1_at_scale() {
        // The whole point of Algorithm 6: fewer words than Algorithm 1 as n
        // grows (here measured on totals; the paper's bound is post-GST).
        use crate::vector_auth::VectorAuth;
        let n = 10;
        let t = 3;
        let params = SystemParams::new(n, t).unwrap();
        let inputs: Vec<u64> = (0..n as u64).collect();

        let mut sim6 = build(n, t, &inputs, 0, 4);
        sim6.run_until_decided();
        let words6 = sim6.stats().words_total;

        let ks = KeyStore::new(n, 4);
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
        let mut sim1 = SimBuilder::new(params)
            .seed(4)
            .build(nodes)
            .expect("valid configuration");
        sim1.run_until_decided();
        let words1 = sim1.stats().words_total;

        assert!(
            words6 < words1,
            "Algorithm 6 ({words6} words) should beat Algorithm 1 ({words1} words)"
        );
    }

    #[test]
    fn latency_is_worse_than_algorithm_1() {
        // The stated trade-off: slow broadcast costs (virtual) time.
        use crate::vector_auth::VectorAuth;
        let n = 4;
        let t = 1;
        let params = SystemParams::new(n, t).unwrap();
        let inputs: Vec<u64> = (0..n as u64).collect();

        let mut sim6 = build(n, t, &inputs, t, 2);
        sim6.run_until_decided();
        let latency6 = sim6.stats().last_decision_at.unwrap();

        let ks = KeyStore::new(n, 2);
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
        let mut sim1 = SimBuilder::new(params)
            .seed(2)
            .build(nodes)
            .expect("valid configuration");
        sim1.run_until_decided();
        let latency1 = sim1.stats().last_decision_at.unwrap();

        assert!(
            latency6 > latency1,
            "Algorithm 6 latency ({latency6}) should exceed Algorithm 1 ({latency1})"
        );
    }
}
