//! The per-process proposal memo is an optimisation, never a relaxation:
//! [`ProposalVerifier`] must accept exactly what re-hashing every signature
//! on every call accepts. A table of the forgeries a memo could be fooled
//! by, cold and warm, plus a property test against a plain re-hash
//! reference kept here — over plain vectors and over the shared
//! `(Arc<InputConfig>, Σ)` pairs Quad carries, whose last accepted pair the
//! verifier remembers by identity.

use std::sync::Arc;

use proptest::prelude::*;
use validity_core::{InputConfig, ProcessId, SystemParams};
use validity_crypto::{KeyStore, Signature};
use validity_protocols::{
    proposal_sign_bytes, ProposalVerifier, SignedProposal, VectorProof, Verify,
};

const N: usize = 7;
const T: usize = 2;

fn setup() -> (KeyStore, SystemParams) {
    (KeyStore::new(N, 21), SystemParams::new(N, T).unwrap())
}

fn fresh(ks: &KeyStore, params: SystemParams) -> ProposalVerifier<u64> {
    ProposalVerifier::new(ks.clone(), params)
}

fn sign(ks: &KeyStore, p: usize, value: u64) -> Signature {
    ks.signer(ProcessId::from_index(p))
        .sign(proposal_sign_bytes(&value))
}

fn signed(ks: &KeyStore, p: usize, value: u64) -> SignedProposal<u64> {
    SignedProposal {
        from: ProcessId::from_index(p),
        value,
        sig: sign(ks, p, value),
    }
}

/// The reference: Algorithm 1's `verify(vector, Σ)` with every signature
/// re-hashed on every call.
fn plain_verify(
    ks: &KeyStore,
    params: SystemParams,
    vector: &InputConfig<u64>,
    proof: &VectorProof<u64>,
) -> bool {
    vector.params() == params
        && vector.len() == params.quorum()
        && vector.pairs().all(|(p, v)| {
            proof.iter().any(|sp| {
                sp.from == p && &sp.value == v && plain_verify_proposal(ks, p, v, &sp.sig)
            })
        })
}

fn plain_verify_proposal(ks: &KeyStore, from: ProcessId, value: &u64, sig: &Signature) -> bool {
    sig.signer() == from && ks.verify(proposal_sign_bytes(value), sig)
}

#[test]
fn forgeries_are_refused_cold_and_warm() {
    let (ks, params) = setup();
    let p = ProcessId(3);
    let honest = sign(&ks, 3, 50);
    // Signed by a process the 7-process PKI has no key for.
    let outsider = KeyStore::new(N + 2, 21)
        .signer(ProcessId::from_index(N + 1))
        .sign(proposal_sign_bytes(&50u64));
    let forgeries: [(&str, ProcessId, u64, Signature); 4] = [
        ("wrong claimed signer", ProcessId(4), 50, honest),
        ("same signer and tag, another value", p, 51, honest),
        ("same value, another tag", p, 50, sign(&ks, 3, 51)),
        ("out-of-range signer", outsider.signer(), 50, outsider),
    ];
    for warm in [false, true] {
        for (what, from, value, sig) in &forgeries {
            let mut verifier = fresh(&ks, params);
            if warm {
                assert!(verifier.verify_proposal(p, &50, &honest));
            }
            assert!(
                !verifier.verify_proposal(*from, value, sig),
                "{what} accepted (warm: {warm})"
            );
            // a refusal is not remembered either, and does not evict the truth
            assert!(!verifier.verify_proposal(*from, value, sig), "{what}");
            assert!(verifier.verify_proposal(p, &50, &honest));
        }
    }
}

#[test]
fn forged_proof_entries_are_refused_cold_and_warm() {
    let (ks, params) = setup();
    let ids = [0usize, 1, 2, 3, 4];
    let vector = InputConfig::from_pairs(params, ids.map(|i| (i, 10 + i as u64))).unwrap();
    let honest: VectorProof<u64> = ids.iter().map(|&i| signed(&ks, i, 10 + i as u64)).collect();
    let forge = |entry: SignedProposal<u64>| -> VectorProof<u64> {
        let mut proof = honest.to_vec();
        proof[3] = entry;
        proof.into()
    };
    let forgeries = [
        // P5's signature presented as P4's
        forge(SignedProposal {
            from: ProcessId(3),
            value: 13,
            sig: sign(&ks, 4, 13),
        }),
        // P4's signature over another value
        forge(SignedProposal {
            from: ProcessId(3),
            value: 13,
            sig: sign(&ks, 3, 99),
        }),
        // the right signature under the wrong name
        forge(SignedProposal {
            from: ProcessId(5),
            value: 13,
            sig: sign(&ks, 3, 13),
        }),
        // no entry for P4 at all
        honest
            .iter()
            .filter(|sp| sp.from != ProcessId(3))
            .cloned()
            .collect(),
    ];
    for warm in [false, true] {
        for (i, proof) in forgeries.iter().enumerate() {
            let mut verifier = fresh(&ks, params);
            if warm {
                assert!(verifier.verify(&vector, &honest));
            }
            assert!(
                !verifier.verify(&vector, proof),
                "forgery {i} (warm: {warm})"
            );
            assert!(verifier.verify(&vector, &honest));
        }
    }
    // A vector naming a value its signer never signed fails however warm.
    let mut verifier = fresh(&ks, params);
    assert!(verifier.verify(&vector, &honest));
    let other = InputConfig::from_pairs(params, ids.map(|i| (i, 20 + i as u64))).unwrap();
    assert!(!verifier.verify(&other, &honest));
    // ... and so does one of the wrong size.
    let six = InputConfig::from_pairs(params, (0..6).map(|i| (i, 10 + i as u64))).unwrap();
    let six_proof: VectorProof<u64> = (0..6).map(|i| signed(&ks, i, 10 + i as u64)).collect();
    assert!(!verifier.verify(&six, &six_proof));
}

#[test]
fn an_equivocators_two_signed_values_are_both_accepted() {
    let (ks, params) = setup();
    let mut verifier = fresh(&ks, params);
    let (a, b) = (sign(&ks, 6, 100), sign(&ks, 6, 200));
    for _ in 0..3 {
        assert!(verifier.verify_proposal(ProcessId(6), &100, &a));
        assert!(verifier.verify_proposal(ProcessId(6), &200, &b));
        assert!(!verifier.verify_proposal(ProcessId(6), &100, &b));
        assert!(!verifier.verify_proposal(ProcessId(6), &200, &a));
    }
}

#[test]
fn a_fresh_verifier_starts_cold_and_hashes_each_triple_once() {
    let (ks, params) = setup();
    let sig = sign(&ks, 2, 7);
    let mut first = fresh(&ks, params);
    assert_eq!(first.cold_verifications(), 0);
    for _ in 0..5 {
        assert!(first.verify_proposal(ProcessId(2), &7, &sig));
    }
    assert_eq!(first.cold_verifications(), 1);
    // Another process's verifier has seen nothing: it hashes for itself.
    let mut second = fresh(&ks, params);
    assert!(second.verify_proposal(ProcessId(2), &7, &sig));
    assert_eq!(second.cold_verifications(), 1);
}

/// Quad's shared pair: the vector and `Σ` as the `Arc`s a message carries.
type Shared = (Arc<InputConfig<u64>>, VectorProof<u64>);

/// The quorum `ids` proposing `10 + i`, every entry honest.
fn honest_pair(ks: &KeyStore, params: SystemParams, ids: &[usize]) -> Shared {
    let vector = InputConfig::from_pairs(params, ids.iter().map(|&i| (i, 10 + i as u64))).unwrap();
    let proof = ids.iter().map(|&i| signed(ks, i, 10 + i as u64)).collect();
    (Arc::new(vector), proof)
}

/// The same contents in two fresh allocations.
fn copy_of((vector, proof): &Shared) -> Shared {
    (Arc::new(InputConfig::clone(vector)), proof.to_vec().into())
}

#[test]
fn a_second_check_of_an_accepted_shared_pair_walks_nothing() {
    let (ks, params) = setup();
    let pair = honest_pair(&ks, params, &[0, 1, 2, 3, 4]);
    let mut verifier = fresh(&ks, params);
    let counters = |v: &ProposalVerifier<u64>| (v.cold_verifications(), v.pair_walks());
    assert!(verifier.verify(&pair.0, &pair.1));
    assert_eq!(counters(&verifier), (5, 1));
    // The same two allocations, through any clone of the `Arc`s: answered
    // from the memo, no pair walked and no tag recomputed.
    for _ in 0..3 {
        let (vector, proof) = pair.clone();
        assert!(verifier.verify(&vector, &proof));
    }
    assert_eq!(counters(&verifier), (5, 1));
    // Equal contents elsewhere are walked (every tag already warm), and
    // then remembered in place of the first pair.
    let copy = copy_of(&pair);
    assert!(verifier.verify(&copy.0, &copy.1));
    assert_eq!(counters(&verifier), (5, 2));
    assert!(verifier.verify(&copy.0, &copy.1));
    assert!(verifier.verify(&pair.0, &pair.1));
    assert_eq!(counters(&verifier), (5, 3));
    // Half a remembered pair is no hit either.
    assert!(verifier.verify(&pair.0, &copy.1));
    assert_eq!(counters(&verifier), (5, 4));
}

#[test]
fn a_refused_shared_pair_is_not_remembered() {
    let (ks, params) = setup();
    let valid = honest_pair(&ks, params, &[0, 1, 2, 3, 4]);
    let mut entries = valid.1.to_vec();
    entries[2].sig = sign(&ks, 2, 99);
    let refused: Shared = (valid.0.clone(), entries.into());
    for warm in [false, true] {
        let mut verifier = fresh(&ks, params);
        if warm {
            assert!(verifier.verify(&valid.0, &valid.1));
        }
        for _ in 0..3 {
            assert!(!verifier.verify(&refused.0, &refused.1), "warm: {warm}");
        }
        // ... and does not evict the valid pair's answer.
        assert!(verifier.verify(&valid.0, &valid.1));
        assert!(!verifier.verify(&refused.0, &refused.1));
    }
}

#[test]
fn a_forged_pair_at_a_freed_pairs_address_is_refused() {
    // The memo holds its `Arc`s, so an accepted pair's allocations cannot
    // be freed and handed to a forged pair while it is remembered. A memo
    // of bare addresses would accept the forgery whenever the allocator
    // reuses them, as it readily does for a same-sized pair dropped just
    // before.
    let (ks, params) = setup();
    let mut verifier = fresh(&ks, params);
    for round in 0..16u64 {
        let valid = honest_pair(&ks, params, &[0, 1, 2, 3, 4]);
        assert!(verifier.verify(&valid.0, &valid.1));
        drop(valid);
        let forged = InputConfig::from_pairs(params, (0..5).map(|i| (i, 90 + round + i as u64)));
        let forged: Shared = (
            Arc::new(forged.unwrap()),
            (0..5).map(|i| signed(&ks, i, 10 + i as u64)).collect(),
        );
        assert!(
            !verifier.verify(&forged.0, &forged.1),
            "round {round}: a vector its signers never signed was accepted"
        );
    }
}

/// One proof entry of a generated call: honest, or tampered one way.
fn entry(ks: &KeyStore, p: usize, value: u64, tamper: u8) -> Option<SignedProposal<u64>> {
    let mut sp = signed(ks, p, value);
    match tamper {
        4 => sp.sig = sign(ks, (p + 1) % N, value),
        5 => sp.sig = sign(ks, p, value + 1),
        6 => sp.from = ProcessId::from_index((p + 1) % N),
        7 => return None,
        _ => {}
    }
    Some(sp)
}

/// How a generated vector check presents its pair to the verifier.
#[derive(Clone, Copy, Debug)]
enum Presented {
    /// A plain `InputConfig`, never remembered.
    Plain,
    /// A shared pair in fresh allocations.
    Fresh,
    /// The previous shared pair's very `Arc`s, whatever this call built.
    Same,
    /// The previous shared pair's contents in fresh allocations.
    Copy,
    /// The previous shared vector's `Arc` with this call's proof.
    SameVector,
}

fn presented() -> impl Strategy<Value = Presented> {
    const ALL: [Presented; 5] = [
        Presented::Plain,
        Presented::Fresh,
        Presented::Same,
        Presented::Copy,
        Presented::SameVector,
    ];
    (0..ALL.len()).prop_map(|i| ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One verifier fed a random sequence of vector checks and receipt
    /// checks — honest, equivocated, tampered, wrong-sized, in any order,
    /// plain or shared, the shared pair fresh, the same `Arc`s again, an
    /// equal copy or half the previous pair — answers every one as the
    /// re-hashing reference does.
    #[test]
    fn memoised_verifier_matches_plain_rehash(
        calls in prop::collection::vec(
            (
                (0usize..N, 0usize..N, any::<bool>(), presented()),
                prop::collection::vec(0u64..3, N),
                prop::collection::vec(0u8..8, N),
            ),
            1..24,
        ),
    ) {
        let (ks, params) = setup();
        let mut verifier = fresh(&ks, params);
        let mut previous: Option<Shared> = None;
        for ((skip_a, skip_b, receipt, presented), values, tampers) in calls {
            if receipt {
                // a single proposal as it arrives off the wire
                let (from, p) = (ProcessId::from_index(skip_a), skip_b);
                if let Some(sp) = entry(&ks, p, values[p], tampers[p]) {
                    prop_assert_eq!(
                        verifier.verify_proposal(from, &sp.value, &sp.sig),
                        plain_verify_proposal(&ks, from, &sp.value, &sp.sig)
                    );
                }
                continue;
            }
            // quorum-sized when the two skipped ids differ, one too many otherwise
            let ids: Vec<usize> = (0..N).filter(|&i| i != skip_a && i != skip_b).collect();
            let vector =
                InputConfig::from_pairs(params, ids.iter().map(|&i| (i, values[i]))).unwrap();
            let proof: VectorProof<u64> = ids
                .iter()
                .filter_map(|&i| entry(&ks, i, values[i], tampers[i]))
                .collect();
            let built: Shared = (Arc::new(vector), proof);
            let (vector, proof) = match (presented, &previous) {
                (Presented::Plain, _) => {
                    let (vector, proof) = &built;
                    prop_assert_eq!(
                        verifier.verify(&**vector, proof),
                        plain_verify(&ks, params, vector, proof)
                    );
                    continue;
                }
                (Presented::Same, Some(prev)) => prev.clone(),
                (Presented::Copy, Some(prev)) => copy_of(prev),
                (Presented::SameVector, Some(prev)) => (prev.0.clone(), built.1),
                _ => built,
            };
            prop_assert_eq!(
                verifier.verify(&vector, &proof),
                plain_verify(&ks, params, &vector, &proof)
            );
            previous = Some((vector, proof));
        }
    }
}
