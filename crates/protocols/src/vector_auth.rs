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
//!
//! The vector and `Σ` travel by reference: Quad runs over
//! `Arc<InputConfig<V>>` and [`VectorProof`] is an `Arc` slice, so a lock,
//! a certificate or a message naming the pair shares one immutable copy.
//! [`Codec`] and [`Words`] forward through `Arc`, so every encoding,
//! digest and word count is that of the plain pair.

use std::sync::Arc;

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

/// The Quad proof type of Algorithm 1: `n − t` signed proposal messages,
/// shared by every message and certificate that carries them.
pub type VectorProof<V> = Arc<[SignedProposal<V>]>;

impl<V: Words> Words for [SignedProposal<V>] {
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
/// streamed into the tag.
pub(crate) fn sign_proposal<V: Codec>(signer: &Signer, v: &V) -> Signature {
    signer.sign_parts(PROPOSAL_DOMAIN, &[&v.encode()])
}

/// The value Algorithm 1 proposes to Quad: the assembled vector, shared.
type SharedVector<V> = Arc<InputConfig<V>>;

/// The scratch sink of the embedded Quad instance, before the Algorithm-1
/// wrapper drains it onto the outer wire type.
type AuthQuadSink<V> = QuadSink<SharedVector<V>, VectorProof<V>>;

/// One process's check of signed proposals — the receipt check of
/// Algorithms 1 and 6, Quad's `verify(vector, Σ)` of Algorithm 1 and the
/// `Slow` check of Algorithm 5 — which tags each proposal once.
///
/// The verifier remembers, per signer, the last `(value, signature)` *it*
/// verified by recomputing the tag. A later check of the exact same triple
/// (same signer, `==` value, `==` tag) is answered from that memo; anything
/// else — an equivocator's second value, a tampered tag, a signer not seen
/// yet — is tagged again, and only successes are remembered. At most `n` entries.
///
/// Quad's `verify` over the shared pair also remembers the last
/// `(vector, Σ)` it accepted, as clones of both `Arc`s: the leader's one
/// pair reaches a process in its `Propose`, `Prepared`, `Committed` and
/// `Decided` messages and in view-change certificates, and a check of the
/// same two allocations (`Arc::ptr_eq` on both) is answered without walking
/// the pairs again. The memo holds the `Arc`s, so neither allocation can be
/// freed and its address reused by another pair while it is remembered;
/// `verify` is a function of the pair's immutable contents, so the answer is
/// the one the walk would give. Only an accepted pair is remembered.
///
/// Never shared: one process's check must not vouch for another's, so every
/// machine (and each face of a two-faced host) owns its own.
pub struct ProposalVerifier<V> {
    keystore: KeyStore,
    params: SystemParams,
    verified: Vec<Option<(V, Signature)>>,
    accepted: Option<(SharedVector<V>, VectorProof<V>)>,
    encoded: Vec<u8>,
    cold: u64,
    walks: u64,
}

impl<V: Value + Codec> ProposalVerifier<V> {
    /// A verifier that has verified nothing yet.
    pub fn new(keystore: KeyStore, params: SystemParams) -> Self {
        ProposalVerifier {
            verified: vec![None; keystore.n()],
            keystore,
            params,
            accepted: None,
            encoded: Vec::new(),
            cold: 0,
            walks: 0,
        }
    }

    /// How many `(vector, Σ)` checks this verifier has answered by walking
    /// the vector's pairs, rather than from its last accepted shared pair.
    pub fn pair_walks(&self) -> u64 {
        self.walks
    }

    /// How many signatures this verifier has checked by recomputing the tag.
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
        self.walks += 1;
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

/// The same check over the shared vector Quad carries, answered from the
/// last accepted pair when both `Arc`s are the ones it holds.
impl<V: Value + Codec> Verify<SharedVector<V>, VectorProof<V>> for ProposalVerifier<V> {
    fn verify(&mut self, vector: &SharedVector<V>, proof: &VectorProof<V>) -> bool {
        if let Some((v, p)) = &self.accepted {
            if Arc::ptr_eq(v, vector) && Arc::ptr_eq(p, proof) {
                return true;
            }
        }
        let valid = Verify::<InputConfig<V>, _>::verify(self, vector, proof);
        if valid {
            self.accepted = Some((vector.clone(), proof.clone()));
        }
        valid
    }
}

/// The signed proposals a process collects before it proposes a vector —
/// Algorithm 1 lines 10–17 and Algorithm 6 lines 12–18: the first valid
/// proposal of each sender, indexed by sender, until `n − t` are in.
pub(crate) struct ProposalTable<V> {
    params: SystemParams,
    slots: Vec<Option<SignedProposal<V>>>,
    count: usize,
}

impl<V: Value + Codec> ProposalTable<V> {
    /// An empty table for the processes of `params`.
    pub(crate) fn new(params: SystemParams) -> Self {
        ProposalTable {
            params,
            slots: vec![None; params.n()],
            count: 0,
        }
    }

    /// Offers `from`'s signed proposal of `value`, checked by this process's
    /// `verifier`. The offer that completes the quorum returns the assembled
    /// `(vector, proof)`, both in ascending process order; every other
    /// offer — a refused signature, a sender already counted, anything after
    /// the quorum — returns `None` and changes nothing.
    pub(crate) fn offer(
        &mut self,
        from: ProcessId,
        value: &V,
        sig: &Signature,
        verifier: &mut ProposalVerifier<V>,
    ) -> Option<(InputConfig<V>, VectorProof<V>)> {
        if self.count == self.params.quorum() {
            return None;
        }
        let slot = self.slots.get_mut(from.index())?;
        if slot.is_some() || !verifier.verify_proposal(from, value, sig) {
            return None;
        }
        *slot = Some(SignedProposal {
            from,
            value: value.clone(),
            sig: *sig,
        });
        self.count += 1;
        if self.count < self.params.quorum() {
            return None;
        }
        let mut entries = Vec::with_capacity(self.count);
        entries.extend(self.slots.iter().flatten().cloned());
        let proof: VectorProof<V> = entries.into();
        let vector = InputConfig::from_pairs(
            self.params,
            proof.iter().map(|sp| (sp.from, sp.value.clone())),
        )
        .expect("n − t distinct proposals form a valid configuration");
        Some((vector, proof))
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
    Quad(QuadMsg<SharedVector<V>, VectorProof<V>>),
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
    quad: QuadCore<SharedVector<V>, VectorProof<V>, ProposalVerifier<V>>,
    quad_sink: AuthQuadSink<V>,
    proposals: ProposalTable<V>,
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
            proposals: ProposalTable::new(params),
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
                    out.output(Arc::unwrap_or_clone(vector));
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
                let verifier = self.quad.verifier_mut();
                if let Some((vector, proof)) = self.proposals.offer(from, value, sig, verifier) {
                    self.quad
                        .propose(Arc::new(vector), proof, env, &mut self.quad_sink);
                    self.drain_quad(sink);
                }
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

/// The order test both vector engines run through their own `on_message`:
/// whatever order proposals arrive in, the assembled `(vector, Σ)` lists the
/// first `n − t` valid senders in ascending process order.
#[cfg(test)]
pub(crate) mod assembly_order {
    use std::collections::BTreeMap;

    use super::*;

    /// One delivered proposal: sender, value, signature.
    pub(crate) type Arrival = (ProcessId, u64, Signature);

    /// An assembled pair as an engine put it on the wire.
    pub(crate) type Assembled = (InputConfig<u64>, Vec<SignedProposal<u64>>);

    /// Delivers one proposal to an engine and returns the pair it
    /// assembled in response, if it assembled one.
    pub(crate) type Deliver = Box<dyn FnMut(&Arrival) -> Option<Assembled>>;

    /// The collection `BTreeMap<ProcessId, SignedProposal>` performed,
    /// transcribed: the first valid proposal per sender, assembled from the
    /// map's values when the `n − t`-th is in. Returns the arrival index
    /// that completed the quorum and the pair.
    fn btree_reference(
        ks: &KeyStore,
        params: SystemParams,
        arrivals: &[Arrival],
    ) -> (usize, Assembled) {
        let mut proposals = BTreeMap::new();
        for (i, &(from, value, sig)) in arrivals.iter().enumerate() {
            let valid = sig.signer() == from && ks.verify(proposal_sign_bytes(&value), &sig);
            if proposals.contains_key(&from) || !valid {
                continue;
            }
            proposals.insert(from, SignedProposal { from, value, sig });
            if proposals.len() == params.quorum() {
                let vector = InputConfig::from_pairs(
                    params,
                    proposals.values().map(|sp| (sp.from, sp.value)),
                )
                .unwrap();
                return (i, (vector, proposals.into_values().collect()));
            }
        }
        panic!("every scenario reaches the quorum")
    }

    /// The reverse order, the identity, and seeded shuffles of `0..n`.
    fn orders(n: usize) -> Vec<Vec<usize>> {
        let mut orders = vec![(0..n).rev().collect(), (0..n).collect()];
        for seed in 1..=8u64 {
            let mut state = seed;
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            orders.push(order);
        }
        orders
    }

    /// Everyone's honest proposal in `order`, plus two the table must
    /// refuse: a forged tag from the first sender before its honest
    /// proposal, and a second, validly signed value from that sender once
    /// it is counted. The last `t` senders arrive after the quorum.
    fn arrivals(ks: &KeyStore, order: &[usize]) -> Vec<Arrival> {
        let honest = |p: usize, value: u64| {
            let from = ProcessId::from_index(p);
            (
                from,
                value,
                ks.signer(from).sign(proposal_sign_bytes(&value)),
            )
        };
        let first = order[0];
        let value = 10 + first as u64;
        let (from, _, forged) = honest(first, 99);
        let mut arrivals = vec![
            (from, value, forged),
            honest(first, value),
            honest(first, 50 + first as u64),
        ];
        arrivals.extend(order[1..].iter().map(|&p| honest(p, 10 + p as u64)));
        arrivals
    }

    /// Runs every arrival order through a `fresh` engine at `(7, 2)` and
    /// holds what it assembles, and when, to the transcribed reference.
    pub(crate) fn check(fresh: impl Fn(&KeyStore, SystemParams) -> Deliver) {
        let params = SystemParams::new(7, 2).unwrap();
        let ks = KeyStore::new(params.n(), 13);
        let triples = |proof: &[SignedProposal<u64>]| -> Vec<(ProcessId, u64, Signature)> {
            proof.iter().map(|sp| (sp.from, sp.value, sp.sig)).collect()
        };
        for order in orders(params.n()) {
            let arrivals = arrivals(&ks, &order);
            let (at, (vector, proof)) = btree_reference(&ks, params, &arrivals);
            let mut deliver = fresh(&ks, params);
            for (i, arrival) in arrivals.iter().enumerate() {
                let assembled = deliver(arrival);
                if i != at {
                    assert!(assembled.is_none(), "order {order:?}: assembled at {i}");
                    continue;
                }
                let (got_vector, got_proof) =
                    assembled.unwrap_or_else(|| panic!("order {order:?}: nothing at {i}"));
                assert_eq!(got_vector, vector, "order {order:?}");
                assert_eq!(triples(&got_proof), triples(&proof), "order {order:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use validity_core::{check_decision, SystemParams, VectorValidity};
    use validity_crypto::ThresholdScheme;
    use validity_simnet::{
        agreement_holds, NodeKind, Silent, SimBuilder, Simulation, Step, SyncModel,
    };

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
        SimBuilder::new(params)
            .seed(seed)
            .build(nodes)
            .expect("valid configuration")
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
        let mut sim = SimBuilder::new(params)
            .gst(0)
            .net(Arc::new(SyncModel))
            .seed(3)
            .build(nodes)
            .expect("valid configuration");
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
    fn proposes_the_first_quorum_in_process_order() {
        assembly_order::check(|ks, params| {
            let me = ProcessId(0);
            let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
            let mut node = VectorAuth::new(0u64, ks.clone(), ks.signer(me), scheme, params);
            let env = Env {
                id: me,
                params,
                now: 0,
                delta: 100,
            };
            let mut sink = StepSink::new();
            node.init(&env, &mut sink);
            // P1 leads view 1: let its leader wait (the earliest timer)
            // elapse and hand it n − t lock-free view changes, so it
            // proposes the pair to Quad as soon as it is assembled.
            let (_, wait) = sink
                .steps()
                .iter()
                .filter_map(|step| match step {
                    Step::Timer(delay, tag) => Some((*delay, *tag)),
                    _ => None,
                })
                .min()
                .expect("view 1 arms its timers");
            node.on_timer(wait, &env, &mut sink);
            let view_change = VectorAuthMsg::Quad(QuadMsg::ViewChange {
                view: 1,
                prepared: None,
            });
            for p in 0..params.quorum() {
                node.on_message(ProcessId::from_index(p), &view_change, &env, &mut sink);
            }
            sink.clear();
            Box::new(move |&(from, value, sig)| {
                let msg = VectorAuthMsg::Proposal { value, sig };
                node.on_message(from, &msg, &env, &mut sink);
                let proposed = sink.steps().iter().find_map(|step| match step {
                    Step::Broadcast(VectorAuthMsg::Quad(QuadMsg::Propose {
                        value, proof, ..
                    })) => Some((InputConfig::clone(value), proof.to_vec())),
                    _ => None,
                });
                sink.clear();
                proposed
            })
        });
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
