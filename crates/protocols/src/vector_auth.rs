//! **Algorithm 1** — authenticated vector consensus (§5.2.1).
//!
//! Each process signs and broadcasts its proposal. Upon receiving `n − t`
//! signed `PROPOSAL` messages it assembles an input configuration `vector`
//! (the candidate decision) together with the proof `Σ` (the signed
//! messages themselves), and proposes `(vector, Σ)` to Quad instantiated
//! with
//!
//! ```text
//! verify(vector, Σ) = true  ⟺  every pair (P_j, v_j) ∈ vector is backed by
//!                              ⟨PROPOSAL, v_j⟩_{σ_j} ∈ Σ
//! ```
//!
//! Whatever pair Quad decides is the vector-consensus decision. Message
//! complexity: `O(n²)` (`n²` proposal messages + Quad); communication:
//! `O(n³)` words since proofs are linear-size.

use std::collections::BTreeMap;

use validity_core::{InputConfig, ProcessId, SystemParams, Value};
use validity_crypto::{KeyStore, Signature, Signer};
use validity_simnet::{Env, Machine, Message, StepSink};

use crate::codec::{Codec, Words};
use crate::quad::{QuadConfig, QuadCore, QuadMsg, QuadSink, Verify};

/// A signed proposal message, as carried inside Quad proofs.
#[derive(Clone, Debug)]
pub struct SignedProposal<V> {
    /// The proposing process.
    pub from: ProcessId,
    /// The proposed value.
    pub value: V,
    /// Signature over the proposal.
    pub sig: Signature,
}

impl<V: Words> Words for SignedProposal<V> {
    fn words(&self) -> usize {
        self.value.words() + 1
    }
}

/// The Quad proof type of Algorithm 1: `n − t` signed proposal messages.
pub type VectorProof<V> = Vec<SignedProposal<V>>;

impl<V: Words> Words for VectorProof<V> {
    fn words(&self) -> usize {
        self.iter().map(Words::words).sum::<usize>().max(1)
    }
}

/// Domain tag of a signed proposal.
const PROPOSAL_DOMAIN: &str = "validity/alg1/proposal";

/// Domain-separated bytes signed for a proposal of `v`.
pub fn proposal_sign_bytes<V: Codec>(v: &V) -> Vec<u8> {
    validity_crypto::sig::message_bytes(PROPOSAL_DOMAIN, &[&v.encode()])
}

/// Signs a proposal of `v`: the signature over [`proposal_sign_bytes`],
/// streamed into the hasher.
pub(crate) fn sign_proposal<V: Codec>(signer: &Signer, v: &V) -> Signature {
    signer.sign_parts(PROPOSAL_DOMAIN, &[&v.encode()])
}

/// The scratch sink of the embedded Quad instance, before the Algorithm-1
/// wrapper drains it onto the outer wire type.
type AuthQuadSink<V> = QuadSink<InputConfig<V>, VectorProof<V>>;

/// One process's check of signed proposals — the receipt check of
/// Algorithms 1 and 6, Quad's `verify(vector, Σ)` of Algorithm 1 and the
/// `Slow` check of Algorithm 5 — which hashes each proposal once.
///
/// The verifier remembers, per signer, the last `(value, signature)` *it*
/// verified by recomputing the tag. A later check of the exact same triple
/// (same signer, `==` value, `==` tag) is answered from that memo; anything
/// else — an equivocator's second value, a tampered tag, a signer not seen
/// yet — is hashed, and only successes are remembered. At most `n` entries.
/// Never shared: one process's check must not vouch for another's, so every
/// machine (and each face of a two-faced host) owns its own.
pub struct ProposalVerifier<V> {
    keystore: KeyStore,
    params: SystemParams,
    verified: Vec<Option<(V, Signature)>>,
    encoded: Vec<u8>,
    cold: u64,
}

impl<V: Value + Codec> ProposalVerifier<V> {
    /// A verifier that has verified nothing yet.
    pub fn new(keystore: KeyStore, params: SystemParams) -> Self {
        ProposalVerifier {
            verified: vec![None; keystore.n()],
            keystore,
            params,
            encoded: Vec::new(),
            cold: 0,
        }
    }

    /// How many signatures this verifier has checked by hashing.
    pub fn cold_verifications(&self) -> u64 {
        self.cold
    }

    /// Whether `sig` is `from`'s signature over a proposal of `value`.
    pub fn verify_proposal(&mut self, from: ProcessId, value: &V, sig: &Signature) -> bool {
        if sig.signer() != from {
            return false;
        }
        let Some(slot) = self.verified.get_mut(from.index()) else {
            return false;
        };
        if slot.as_ref().is_some_and(|(v, s)| v == value && s == sig) {
            return true;
        }
        self.cold += 1;
        self.encoded.clear();
        value.encode_into(&mut self.encoded);
        let valid = self
            .keystore
            .verify_parts(PROPOSAL_DOMAIN, &[&self.encoded], sig);
        if valid {
            *slot = Some((value.clone(), *sig));
        }
        valid
    }
}

/// The Quad `verify` function of Algorithm 1: `vector` is a quorum-size
/// configuration and every pair of it is backed by a signed proposal of
/// `proof`.
impl<V: Value + Codec> Verify<InputConfig<V>, VectorProof<V>> for ProposalVerifier<V> {
    fn verify(&mut self, vector: &InputConfig<V>, proof: &VectorProof<V>) -> bool {
        if vector.params() != self.params || vector.len() != self.params.quorum() {
            return false;
        }
        vector.pairs().all(|(p, v)| {
            proof
                .iter()
                .any(|sp| sp.from == p && &sp.value == v && self.verify_proposal(p, v, &sp.sig))
        })
    }
}

/// Wire messages of Algorithm 1.
#[derive(Clone, Debug)]
pub enum VectorAuthMsg<V> {
    /// A signed proposal.
    Proposal {
        /// The proposed value.
        value: V,
        /// Signature by the sender.
        sig: Signature,
    },
    /// An embedded Quad message.
    Quad(QuadMsg<InputConfig<V>, VectorProof<V>>),
}

impl<V: Value + Words> Message for VectorAuthMsg<V> {
    fn words(&self) -> usize {
        match self {
            VectorAuthMsg::Proposal { value, .. } => value.words() + 1,
            VectorAuthMsg::Quad(m) => m.words(),
        }
    }
}

/// The Algorithm 1 machine. Output: the decided `vector ∈ I_{n−t}`.
pub struct VectorAuth<V: Value> {
    input: V,
    signer: Signer,
    quad: QuadCore<InputConfig<V>, VectorProof<V>, ProposalVerifier<V>>,
    quad_sink: AuthQuadSink<V>,
    proposals: BTreeMap<ProcessId, SignedProposal<V>>,
    proposed_to_quad: bool,
    decided: bool,
}

impl<V> VectorAuth<V>
where
    V: Value + Codec + Words,
{
    /// Creates the machine for one process.
    ///
    /// `keystore` is the shared PKI; `signer` must belong to this process;
    /// the Quad threshold scheme must use `k = n − t`.
    pub fn new(
        input: V,
        keystore: KeyStore,
        signer: Signer,
        scheme: validity_crypto::ThresholdScheme,
        params: SystemParams,
    ) -> Self {
        let quad = QuadCore::new(QuadConfig {
            scheme,
            signer: signer.clone(),
            verify: ProposalVerifier::new(keystore, params),
            label: "validity/alg1/quad",
        });
        VectorAuth {
            input,
            signer,
            quad,
            quad_sink: StepSink::new(),
            proposals: BTreeMap::new(),
            proposed_to_quad: false,
            decided: false,
        }
    }

    /// Drains the Quad scratch sink into the outer sink, wrapping messages
    /// and intercepting the (vector, proof) decision.
    fn drain_quad(&mut self, out: &mut StepSink<VectorAuthMsg<V>, InputConfig<V>>) {
        self.quad_sink.drain_map(
            out,
            VectorAuthMsg::Quad,
            |tag| tag,
            |(vector, _proof), out| {
                if !self.decided {
                    self.decided = true;
                    out.output(vector);
                }
            },
            |out| out.halt(),
        );
    }
}

impl<V> Machine for VectorAuth<V>
where
    V: Value + Codec + Words,
{
    type Msg = VectorAuthMsg<V>;
    type Output = InputConfig<V>;

    fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        let sig = sign_proposal(&self.signer, &self.input);
        sink.broadcast(VectorAuthMsg::Proposal {
            value: self.input.clone(),
            sig,
        });
        self.quad.start(env, &mut self.quad_sink);
        self.drain_quad(sink);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        env: &Env,
        sink: &mut StepSink<Self::Msg, Self::Output>,
    ) {
        match msg {
            VectorAuthMsg::Proposal { value, sig } => {
                // lines 10–17 of Algorithm 1: collect the first n − t valid
                // signed proposals, then propose to Quad.
                if self.proposed_to_quad
                    || self.proposals.contains_key(&from)
                    || !self.quad.verifier_mut().verify_proposal(from, value, sig)
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
                self.proposed_to_quad = true;
                let vector = InputConfig::from_pairs(
                    env.params,
                    self.proposals
                        .values()
                        .map(|sp| (sp.from, sp.value.clone())),
                )
                .expect("n − t distinct proposals form a valid configuration");
                let proof: VectorProof<V> = self.proposals.values().cloned().collect();
                self.quad.propose(vector, proof, env, &mut self.quad_sink);
                self.drain_quad(sink);
            }
            VectorAuthMsg::Quad(inner) => {
                self.quad.on_message(from, inner, env, &mut self.quad_sink);
                self.drain_quad(sink);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Self::Output>) {
        self.quad.on_timer(tag, env, &mut self.quad_sink);
        self.drain_quad(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::{check_decision, SystemParams, VectorValidity};
    use validity_crypto::ThresholdScheme;
    use validity_simnet::{agreement_holds, NodeKind, Silent, SimConfig, Simulation};

    fn build(
        n: usize,
        t: usize,
        inputs: &[u64],
        byz: usize,
        seed: u64,
    ) -> Simulation<VectorAuth<u64>> {
        let params = SystemParams::new(n, t).unwrap();
        let ks = KeyStore::new(n, seed);
        let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
        let nodes: Vec<NodeKind<VectorAuth<u64>>> = (0..n)
            .map(|i| {
                if i < n - byz {
                    NodeKind::Correct(VectorAuth::new(
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
        Simulation::new(SimConfig::new(params).seed(seed), nodes)
    }

    #[test]
    fn decides_a_valid_vector() {
        let inputs = [10u64, 20, 30, 40];
        let mut sim = build(4, 1, &inputs, 0, 1);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        assert!(agreement_holds(sim.decisions()));
        let vector = &sim.decisions()[0].as_ref().unwrap().1;
        assert_eq!(vector.len(), 3);
        // Vector Validity: every named process's value matches its input.
        let params = SystemParams::new(4, 1).unwrap();
        let real = InputConfig::complete(params, inputs.to_vec());
        for (p, v) in vector.pairs() {
            assert_eq!(real.proposal(p), Some(v));
        }
    }

    #[test]
    fn vector_validity_with_silent_byzantine() {
        let inputs = [1u64, 2, 3, 4, 5, 6, 7];
        for seed in 0..3 {
            let mut sim = build(7, 2, &inputs, 2, seed);
            assert_eq!(
                sim.run_until_decided(),
                validity_simnet::RunOutcome::AllDecided
            );
            assert!(agreement_holds(sim.decisions()));
            let vector = &sim.decisions()[0].as_ref().unwrap().1;
            // Check against the formalism's Vector Validity property.
            let params = SystemParams::new(7, 2).unwrap();
            let actual_config =
                InputConfig::from_pairs(params, (0..5).map(|i| (i, inputs[i]))).unwrap();
            assert!(
                check_decision(&VectorValidity, &actual_config, vector).is_ok(),
                "vector validity violated: {vector:?}"
            );
        }
    }

    #[test]
    fn each_process_hashes_each_proposal_and_the_vector_once() {
        // Fault-free and synchronous at (16, 5): one view. A process meets at
        // most n distinct signed proposals (its own n − t, then the leader's)
        // however many Quad messages carry them, and hashes the decided
        // vector for the first of them only.
        let (n, t) = (16usize, 5usize);
        let params = SystemParams::new(n, t).unwrap();
        let ks = KeyStore::new(n, 3);
        let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
        let nodes = (0..n)
            .map(|i| {
                NodeKind::Correct(VectorAuth::new(
                    i as u64,
                    ks.clone(),
                    ks.signer(ProcessId::from_index(i)),
                    scheme.clone(),
                    params,
                ))
            })
            .collect();
        let mut sim = Simulation::new(SimConfig::synchronous(params).seed(3), nodes);
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        for i in 0..n {
            let NodeKind::Correct(node) = sim.node(ProcessId::from_index(i)) else {
                unreachable!("every node is correct");
            };
            let cold = node.quad.verifier().cold_verifications();
            assert!(
                (params.quorum() as u64..=n as u64).contains(&cold),
                "process {i}: {cold} cold verifications"
            );
            let hashes = node.quad.value_hashes();
            assert!((1..=2).contains(&hashes), "process {i}: {hashes} hashes");
        }
    }

    #[test]
    fn message_complexity_shape_is_quadratic() {
        // Failure-free runs at increasing n: messages / n² stays bounded.
        let mut ratios = Vec::new();
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let inputs: Vec<u64> = (0..n as u64).collect();
            let mut sim = build(n, t, &inputs, 0, 7);
            sim.run_until_decided();
            let msgs = sim.stats().messages_total as f64;
            ratios.push(msgs / (n * n) as f64);
        }
        // quadratic shape: the ratio must not grow superlinearly
        assert!(
            ratios[2] < ratios[0] * 8.0,
            "msgs/n² grew too fast: {ratios:?}"
        );
    }
}
