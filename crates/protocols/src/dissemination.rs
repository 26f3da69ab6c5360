//! **Algorithm 5** — vector dissemination (Appendix B.3.1).
//!
//! Every correct process slow-broadcasts its vector (with the signed
//! proposal messages justifying it); receivers cache the vector and return
//! a `STORED` acknowledgment carrying a partial threshold signature over
//! the vector's hash. `n − t` acknowledgments combine into a threshold
//! signature, which is `CONFIRM`-broadcast, re-broadcast once by every
//! receiver, *acquired*, and then the process stops participating.
//!
//! Guarantees: *termination* (everyone acquires a hash–signature pair),
//! *integrity* (acquired pairs verify) and *redundancy* (a combined
//! signature implies ≥ `t + 1` correct processes cached the pre-image
//! vector) — the properties Algorithm 6 needs for ADD to reconstruct.

use std::collections::HashMap;

use validity_core::{InputConfig, ProcessId, ProcessSet, Value};
use validity_crypto::{Digest, PartialSignature, Signer, ThresholdScheme, ThresholdSignature};
use validity_simnet::{Env, StepSink};

use crate::codec::{hash_encoding, Codec, Words};
use crate::quad::Verify;
use crate::slow_broadcast::SlowBroadcast;
use crate::vector_auth::{ProposalVerifier, VectorProof};

/// Wire messages of vector dissemination.
#[derive(Clone, Debug)]
pub enum DissemMsg<V> {
    /// Slow-broadcast payload: the vector plus its justification.
    Slow {
        /// The disseminated vector.
        vector: InputConfig<V>,
        /// Signed proposal messages backing every pair of the vector.
        proof: VectorProof<V>,
    },
    /// Acknowledgment: partial signature over the vector hash.
    Stored {
        /// Hash of the cached vector.
        hash: Digest,
        /// The partial threshold signature over it.
        partial: PartialSignature,
    },
    /// A combined threshold signature over a vector hash.
    Confirm {
        /// The vector hash.
        hash: Digest,
        /// The `(n − t)`-threshold signature.
        tsig: ThresholdSignature,
    },
}

impl<V: Value + Words> Words for DissemMsg<V> {
    fn words(&self) -> usize {
        match self {
            DissemMsg::Slow { vector, proof } => Words::words(vector) + Words::words(proof),
            DissemMsg::Stored { .. } => 2,
            DissemMsg::Confirm { .. } => 2,
        }
    }
}

/// The acquired output: a hash–signature pair.
pub type Acquired = (Digest, ThresholdSignature);

/// Hash of a vector: SHA-256 of its canonical encoding, streamed into the
/// hash without a buffer.
pub fn vector_hash<V: Value + Codec>(vector: &InputConfig<V>) -> Digest {
    hash_encoding(vector)
}

/// One instance of vector dissemination (a composable component).
pub struct VectorDissemination<V: Value> {
    scheme: ThresholdScheme,
    signer: Signer,
    verifier: ProposalVerifier<V>,
    slow: SlowBroadcast<(InputConfig<V>, VectorProof<V>)>,
    own_hash: Option<Digest>,
    vectors: HashMap<Digest, InputConfig<V>>,
    acked: ProcessSet,
    partials: Vec<PartialSignature>,
    confirmed: bool,
    halted: bool,
}

impl<V> VectorDissemination<V>
where
    V: Value + Codec + Words,
{
    /// Creates the component; `verifier` is this process's one check of
    /// signed proposals (the parent reaches it through
    /// [`VectorDissemination::verifier_mut`] for its own receipt check).
    pub fn new(scheme: ThresholdScheme, signer: Signer, verifier: ProposalVerifier<V>) -> Self {
        VectorDissemination {
            scheme,
            signer,
            verifier,
            slow: SlowBroadcast::new(),
            own_hash: None,
            vectors: HashMap::new(),
            acked: ProcessSet::new(),
            partials: Vec::new(),
            confirmed: false,
            halted: false,
        }
    }

    /// This process's proposal verifier.
    pub fn verifier_mut(&mut self) -> &mut ProposalVerifier<V> {
        &mut self.verifier
    }

    /// The cached vector whose hash is `h`, if any (Algorithm 6 line 23).
    pub fn cached(&self, h: &Digest) -> Option<&InputConfig<V>> {
        self.vectors.get(h)
    }

    /// Starts disseminating `vector` (line 8).
    pub fn disseminate(
        &mut self,
        vector: InputConfig<V>,
        proof: VectorProof<V>,
        tag: u64,
        env: &Env,
        sink: &mut StepSink<DissemMsg<V>, Acquired>,
    ) {
        let h = vector_hash(&vector);
        self.own_hash = Some(h);
        self.slow.broadcast(
            (vector, proof),
            |(v, p)| DissemMsg::Slow {
                vector: v,
                proof: p,
            },
            tag,
            env,
            sink,
        );
    }

    /// Slow-broadcast pacing timer.
    pub fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<DissemMsg<V>, Acquired>) {
        if self.halted {
            return;
        }
        self.slow.on_timer(
            |(v, p)| DissemMsg::Slow {
                vector: v,
                proof: p,
            },
            tag,
            env,
            sink,
        );
    }

    /// Handles a dissemination message.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &DissemMsg<V>,
        env: &Env,
        sink: &mut StepSink<DissemMsg<V>, Acquired>,
    ) {
        if self.halted {
            return;
        }
        match msg {
            DissemMsg::Slow { vector, proof } => {
                // lines 11–15: cache once per disseminator, verify the
                // justification (the check Theorem 11 mentions), ack with a
                // partial signature.
                if self.acked.contains(from) {
                    return;
                }
                if !self.verifier.verify(vector, proof) {
                    return;
                }
                self.acked.insert(from);
                let h = vector_hash(vector);
                self.vectors.insert(h, vector.clone());
                let partial = self.scheme.partially_sign(&self.signer, &h);
                sink.send(from, DissemMsg::Stored { hash: h, partial });
            }
            DissemMsg::Stored { hash, partial } => {
                let (hash, partial) = (*hash, *partial);
                // lines 17–19: collect n − t acks for own hash, combine.
                if self.confirmed
                    || Some(hash) != self.own_hash
                    || !self.scheme.verify_partial(&hash, &partial)
                    || self.partials.iter().any(|p| p.signer() == partial.signer())
                {
                    return;
                }
                self.partials.push(partial);
                if self.partials.len() < env.quorum() {
                    return;
                }
                self.confirmed = true;
                let tsig = self
                    .scheme
                    .combine(&hash, self.partials.iter().copied())
                    .expect("verified distinct partials combine");
                sink.broadcast(DissemMsg::Confirm { hash, tsig });
            }
            DissemMsg::Confirm { hash, tsig } => {
                let (hash, tsig) = (*hash, *tsig);
                // lines 21–25: verify, rebroadcast, acquire, stop.
                if !self.scheme.verify(&hash, &tsig) {
                    return;
                }
                self.halted = true;
                self.slow.halt();
                sink.broadcast(DissemMsg::Confirm { hash, tsig });
                sink.output((hash, tsig));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector_auth::{proposal_sign_bytes, SignedProposal};
    use validity_core::SystemParams;
    use validity_crypto::KeyStore;
    use validity_simnet::{Machine, Message, NodeKind, Silent, SimBuilder};

    impl Message for DissemMsg<u64> {
        fn words(&self) -> usize {
            Words::words(self)
        }
    }

    /// Standalone machine: every process disseminates a pre-built vector.
    struct DissemNode {
        dissem: VectorDissemination<u64>,
        vector: InputConfig<u64>,
        proof: VectorProof<u64>,
    }

    impl Machine for DissemNode {
        type Msg = DissemMsg<u64>;
        type Output = Acquired;

        fn init(&mut self, env: &Env, sink: &mut StepSink<Self::Msg, Acquired>) {
            self.dissem
                .disseminate(self.vector.clone(), self.proof.clone(), 0, env, sink);
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: &Self::Msg,
            env: &Env,
            sink: &mut StepSink<Self::Msg, Acquired>,
        ) {
            self.dissem.on_message(from, msg, env, sink);
        }

        fn on_timer(&mut self, tag: u64, env: &Env, sink: &mut StepSink<Self::Msg, Acquired>) {
            self.dissem.on_timer(tag, env, sink);
        }
    }

    fn signed_vector(
        ks: &KeyStore,
        params: SystemParams,
        ids: &[usize],
        values: &[u64],
    ) -> (InputConfig<u64>, VectorProof<u64>) {
        let vector =
            InputConfig::from_pairs(params, ids.iter().zip(values.iter()).map(|(&i, &v)| (i, v)))
                .unwrap();
        let proof = ids
            .iter()
            .zip(values.iter())
            .map(|(&i, &v)| SignedProposal {
                from: ProcessId::from_index(i),
                value: v,
                sig: ks
                    .signer(ProcessId::from_index(i))
                    .sign(proposal_sign_bytes(&v)),
            })
            .collect();
        (vector, proof)
    }

    #[test]
    fn all_processes_acquire_a_valid_pair() {
        let params = SystemParams::new(4, 1).unwrap();
        let ks = KeyStore::new(4, 5);
        let scheme = ThresholdScheme::new(ks.clone(), 3);
        let (vector, proof) = signed_vector(&ks, params, &[0, 1, 2], &[7, 8, 9]);
        let nodes: Vec<NodeKind<DissemNode>> = (0..4)
            .map(|i| {
                if i < 3 {
                    NodeKind::Correct(DissemNode {
                        dissem: VectorDissemination::new(
                            scheme.clone(),
                            ks.signer(ProcessId(i as u32)),
                            ProposalVerifier::new(ks.clone(), params),
                        ),
                        vector: vector.clone(),
                        proof: proof.clone(),
                    })
                } else {
                    NodeKind::Byzantine(Box::new(Silent))
                }
            })
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(5)
            .build(nodes)
            .expect("valid configuration");
        assert_eq!(
            sim.run_until_decided(),
            validity_simnet::RunOutcome::AllDecided
        );
        // integrity: all acquired pairs verify
        for d in sim.decisions().iter().take(3) {
            let (h, tsig) = &d.as_ref().unwrap().1;
            assert!(scheme.verify(h, tsig));
            assert_eq!(*h, vector_hash(&vector));
        }
    }

    #[test]
    fn unjustified_vector_is_not_cached() {
        let params = SystemParams::new(4, 1).unwrap();
        let ks = KeyStore::new(4, 6);
        let scheme = ThresholdScheme::new(ks.clone(), 3);
        let mut d = VectorDissemination::<u64>::new(
            scheme,
            ks.signer(ProcessId(1)),
            ProposalVerifier::new(ks.clone(), params),
        );
        let env = Env {
            id: ProcessId(1),
            params,
            now: 0,
            delta: 100,
        };
        // Proof signed by the wrong process:
        let vector = InputConfig::from_pairs(params, [(0usize, 1u64), (1, 2), (2, 3)]).unwrap();
        let bad_proof: VectorProof<u64> = vector
            .pairs()
            .map(|(p, v)| SignedProposal {
                from: p,
                value: *v,
                sig: ks.signer(ProcessId(3)).sign(proposal_sign_bytes(v)),
            })
            .collect();
        let mut sink = StepSink::new();
        d.on_message(
            ProcessId(0),
            &DissemMsg::Slow {
                vector: vector.clone(),
                proof: bad_proof,
            },
            &env,
            &mut sink,
        );
        assert!(sink.is_empty());
        assert!(d.cached(&vector_hash(&vector)).is_none());
    }

    #[test]
    fn redundancy_confirmed_hash_is_cached_by_ackers() {
        // After a run, the confirmed hash's pre-image must be cached at the
        // correct processes that acknowledged it.
        let params = SystemParams::new(4, 1).unwrap();
        let ks = KeyStore::new(4, 7);
        let scheme = ThresholdScheme::new(ks.clone(), 3);
        let (vector, proof) = signed_vector(&ks, params, &[0, 1, 3], &[1, 2, 3]);
        let nodes: Vec<NodeKind<DissemNode>> = (0..4)
            .map(|i| {
                NodeKind::Correct(DissemNode {
                    dissem: VectorDissemination::new(
                        scheme.clone(),
                        ks.signer(ProcessId(i as u32)),
                        ProposalVerifier::new(ks.clone(), params),
                    ),
                    vector: vector.clone(),
                    proof: proof.clone(),
                })
            })
            .collect();
        let mut sim = SimBuilder::new(params)
            .seed(8)
            .build(nodes)
            .expect("valid configuration");
        sim.run_until_decided();
        let (h, _) = sim.decisions()[0].as_ref().unwrap().1;
        let mut cached = 0;
        for i in 0..4 {
            if let NodeKind::Correct(node) = sim.node(ProcessId(i)) {
                if node.dissem.cached(&h).is_some() {
                    cached += 1;
                }
            }
        }
        assert!(cached > params.t(), "redundancy violated: {cached}");
    }
}
