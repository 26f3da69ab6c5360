//! Property-based tests of the wire codec and word accounting used by
//! every protocol: deterministic round-trips, prefix-decoding discipline,
//! monotone word sizes, `Arc` transparency — a shared value encodes,
//! decodes, counts and renders exactly as the value itself — and streamed
//! hashing: an encoding written straight into SHA-256 hashes the bytes
//! `encode()` returns.

use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;
use validity_core::{InputConfig, ProcessId, SystemParams};
use validity_crypto::{sha256, Digest, KeyStore, Sha256, ThresholdScheme};
use validity_protocols::{
    bytes_to_words, hash_encoding, proposal_sign_bytes, vector_hash, Codec, PreparedCert, QuadMsg,
    SignedProposal, VectorAuthMsg, VectorProof, Words,
};

/// `Arc::new(v)` and `v` share one encoding, one decoding and one size.
fn assert_arc_transparent<T: Codec + Words + PartialEq + Debug>(v: T) {
    let shared = Arc::new(v);
    let plain: &T = &shared;
    let bytes = plain.encode();
    assert_eq!(shared.encode(), bytes);
    assert_eq!(Words::words(&shared), plain.words());
    let mut tail = bytes.clone();
    tail.push(0xA5);
    let (decoded, used) = Arc::<T>::decode_from(&tail).expect("decodes");
    assert_eq!((&*decoded, used), (plain, bytes.len()));
    assert!(Arc::<T>::decode_all(&tail).is_none());
    assert_eq!(Arc::<T>::decode_all(&bytes).as_deref(), Some(plain));
}

/// Streaming `v`'s encoding into SHA-256 — fresh, and after `prefix`, so
/// the writes straddle the hash's 64-byte blocks at every offset — hashes
/// exactly the bytes of `encode()`.
fn assert_streams_as_encoded<T: Codec>(v: &T, prefix: &[u8]) {
    let bytes = v.encode();
    assert_eq!(hash_encoding(v), sha256(&bytes));
    let mut streamed = Sha256::new();
    streamed.update(prefix);
    v.encode_into(&mut streamed);
    let mut buffered = prefix.to_vec();
    buffered.extend_from_slice(&bytes);
    assert_eq!(streamed.finalize(), sha256(&buffered));
}

/// A signed proposal of `value` by process `p`.
fn signed(ks: &KeyStore, p: usize, value: u64) -> SignedProposal<u64> {
    let from = ProcessId::from_index(p);
    SignedProposal {
        from,
        value,
        sig: ks.signer(from).sign(proposal_sign_bytes(&value)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn u64_roundtrip(v in any::<u64>()) {
        prop_assert_eq!(u64::decode_all(&v.encode()), Some(v));
    }

    #[test]
    fn bytes_roundtrip(v in prop::collection::vec(any::<u8>(), 0..200)) {
        let enc = v.encode();
        prop_assert_eq!(Vec::<u8>::decode_all(&enc), Some(v));
    }

    #[test]
    fn string_roundtrip(v in "\\PC{0,40}") {
        prop_assert_eq!(String::decode_all(&v.encode()), Some(v));
    }

    /// decode_from reports exactly how many bytes it consumed: appending
    /// more data after an encoding still decodes the original prefix.
    #[test]
    fn prefix_decoding(v in any::<u64>(), tail in prop::collection::vec(any::<u8>(), 0..16)) {
        let mut enc = v.encode();
        let consumed_expected = enc.len();
        enc.extend_from_slice(&tail);
        let (decoded, consumed) = u64::decode_from(&enc).unwrap();
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(consumed, consumed_expected);
    }

    /// Input configurations round-trip with arbitrary correct sets.
    #[test]
    fn input_config_roundtrip(
        values in prop::collection::vec(any::<u64>(), 7),
        drop in 0usize..3,
    ) {
        let params = SystemParams::new(7, 2).unwrap();
        let cfg = InputConfig::from_pairs(
            params,
            (0..7 - drop).map(|i| (i, values[i])),
        ).unwrap();
        let enc = cfg.encode();
        prop_assert_eq!(InputConfig::<u64>::decode_all(&enc), Some(cfg));
    }

    /// Truncated encodings never decode.
    #[test]
    fn truncation_detected(v in any::<u64>(), cut in 1usize..8) {
        let enc = v.encode();
        prop_assert!(u64::decode_all(&enc[..enc.len() - cut]).is_none());
    }

    /// Word accounting is monotone in byte length and never zero.
    #[test]
    fn word_size_monotone(a in 0usize..4096, b in 0usize..4096) {
        prop_assert!(bytes_to_words(a) >= 1);
        if a <= b {
            prop_assert!(bytes_to_words(a) <= bytes_to_words(b));
        }
    }

    /// A configuration's word size is 1 + one word per u64 proposal.
    #[test]
    fn config_words(count in 5usize..8) {
        let params = SystemParams::new(7, 2).unwrap();
        let cfg = InputConfig::from_pairs(params, (0..count).map(|i| (i, i as u64))).unwrap();
        prop_assert_eq!(Words::words(&cfg), 1 + count);
    }

    /// `Arc<u64>`, `Arc<InputConfig<u64>>` and an `Arc` proof slice are
    /// indistinguishable from the plain values on the wire and in the
    /// word tally.
    #[test]
    fn arc_is_transparent(
        v in any::<u64>(),
        values in prop::collection::vec(any::<u64>(), 7),
        drop in 0usize..3,
    ) {
        assert_arc_transparent(v);
        let params = SystemParams::new(7, 2).unwrap();
        let cfg = InputConfig::from_pairs(params, (0..7 - drop).map(|i| (i, values[i]))).unwrap();
        assert_arc_transparent(cfg);
        let ks = KeyStore::new(7, v);
        let entries: Vec<SignedProposal<u64>> =
            (0..7 - drop).map(|i| signed(&ks, i, values[i])).collect();
        let proof: VectorProof<u64> = entries.clone().into();
        prop_assert_eq!(Words::words(&proof), entries.as_slice().words());
        prop_assert_eq!(Words::words(&proof), 2 * (7 - drop));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every `Codec` implementation streams into SHA-256 the bytes it
    /// encodes, and `vector_hash` is the hash of the vector's encoding.
    #[test]
    fn every_codec_streams_into_sha256_as_encoded(
        (word, half, flag) in (any::<u64>(), any::<u32>(), any::<bool>()),
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        text in "\\PC{0,40}",
        (values, n, drop) in (prop::collection::vec(any::<u64>(), 64), 4usize..65, 0usize..3),
        prefix in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        assert_streams_as_encoded(&word, &prefix);
        assert_streams_as_encoded(&half, &prefix);
        assert_streams_as_encoded(&flag, &prefix);
        assert_streams_as_encoded(&bytes, &prefix);
        assert_streams_as_encoded(&text, &prefix);
        let params = SystemParams::new(n, (n - 1) / 3).unwrap();
        let drop = drop.min(params.t());
        let cfg = InputConfig::from_pairs(params, (drop..n).map(|i| (i, values[i]))).unwrap();
        assert_streams_as_encoded(&cfg, &prefix);
        prop_assert_eq!(vector_hash(&cfg), sha256(cfg.encode()));
        let shared = Arc::new(cfg);
        assert_streams_as_encoded(&shared, &prefix);
        assert_streams_as_encoded(&Arc::new(word), &prefix);
        assert_streams_as_encoded(&sha256(&bytes), &prefix);
        assert_streams_as_encoded(&Digest([flag as u8; 32]), &prefix);
    }
}

/// An Algorithm 1 Quad message over shared values renders, and so lands in
/// a `--observe` timeline, exactly as the same message over plain values.
#[test]
fn shared_quad_messages_render_as_plain_ones() {
    let params = SystemParams::new(4, 1).unwrap();
    let ks = KeyStore::new(4, 3);
    let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
    let vector = InputConfig::from_pairs(params, [(0usize, 7u64), (2, 8), (3, 9)]).unwrap();
    let entries = vec![signed(&ks, 0, 7), signed(&ks, 2, 8), signed(&ks, 3, 9)];
    let digest = sha256(b"a phase digest");
    let partials =
        (0..3).map(|i| scheme.partially_sign(&ks.signer(ProcessId::from_index(i)), &digest));
    let tsig = scheme.combine(&digest, partials).unwrap();
    let shared_vector = Arc::new(vector.clone());
    let shared_proof: VectorProof<u64> = entries.clone().into();
    let shared: [VectorAuthMsg<u64>; 3] = [
        VectorAuthMsg::Quad(QuadMsg::Propose {
            view: 2,
            value: shared_vector.clone(),
            proof: shared_proof.clone(),
            justification: Some(PreparedCert {
                view: 1,
                value: shared_vector.clone(),
                proof: shared_proof.clone(),
                tsig,
            }),
        }),
        VectorAuthMsg::Quad(QuadMsg::ViewChange {
            view: 3,
            prepared: None,
        }),
        VectorAuthMsg::Quad(QuadMsg::Decided {
            view: 2,
            value: shared_vector,
            proof: shared_proof,
            tsig,
        }),
    ];
    let plain: [QuadMsg<InputConfig<u64>, Vec<SignedProposal<u64>>>; 3] = [
        QuadMsg::Propose {
            view: 2,
            value: vector.clone(),
            proof: entries.clone(),
            justification: Some(PreparedCert {
                view: 1,
                value: vector.clone(),
                proof: entries.clone(),
                tsig,
            }),
        },
        QuadMsg::ViewChange {
            view: 3,
            prepared: None,
        },
        QuadMsg::Decided {
            view: 2,
            value: vector,
            proof: entries,
            tsig,
        },
    ];
    for (shared, plain) in shared.iter().zip(&plain) {
        assert_eq!(format!("{shared:?}"), format!("Quad({plain:?})"));
    }
}
