//! Simulated public-key infrastructure (§3.1 "Cryptographic primitives").
//!
//! The paper assumes that "faulty processes cannot forge signatures of
//! correct processes". Inside a closed simulation this contract can be
//! enforced *by construction*: a [`Signer`] holds a per-process secret and is
//! handed only to the node that owns it; signatures are keyed SipHash-2-4
//! tags over the message under that secret. Byzantine behaviours receive
//! their own signers only, so the only way to produce `⟨m⟩_{σ_i}` is to *be*
//! `P_i`. Verification recomputes the tag via the shared [`KeyStore`].
//!
//! **Tag layout.** `tag_i(m) = SipHash-2-4-128(key_i, m)`, where `key_i` is
//! the first 16 bytes of `secret_i = SHA-256("validity-crypto/keygen" ‖
//! seed ‖ i)`, read as two little-endian words `(k0, k1)`. A per-process
//! key binds the signer; the PRF binds the message. A signed `u64` proposal
//! is a handful of 64-bit words, far less work than a SHA-256 block, and
//! [`Signer::sign_parts`] / [`KeyStore::verify_parts`] stream a structured
//! message into the state without building it. Tags are compared only with
//! `==` and appear in no report or ordering; `hash(·)` stays SHA-256.
//!
//! This substitutes computational unforgeability with structural
//! unforgeability — the property actually used by the paper's proofs.

use std::fmt;
use std::sync::Arc;

use validity_core::ProcessId;

use crate::sha256::Sha256;
use crate::siphash::SipHasher128;

/// A digital signature `⟨m⟩_{σ_i}`: the claimed signer plus the tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: ProcessId,
    tag: [u64; 2],
}

const _: () = assert!(std::mem::size_of::<Signature>() <= 24);

impl Signature {
    /// The process that (claims to have) produced the signature.
    pub fn signer(&self) -> ProcessId {
        self.signer
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨…⟩σ{}", self.signer.0 + 1)
    }
}

/// The shared key material of the PKI: per-process secrets derived from a
/// setup seed. Cheap to clone (`Arc` inside).
///
/// # Examples
///
/// ```
/// use validity_core::ProcessId;
/// use validity_crypto::sig::KeyStore;
///
/// let ks = KeyStore::new(4, 42);
/// let signer = ks.signer(ProcessId(0));
/// let sig = signer.sign(b"hello");
/// assert!(ks.verify(b"hello", &sig));
/// assert!(!ks.verify(b"tampered", &sig));
/// ```
#[derive(Clone, Debug)]
pub struct KeyStore {
    inner: Arc<KeyStoreInner>,
}

#[derive(Debug)]
struct KeyStoreInner {
    /// Per process: its SipHash key `(k0, k1)`.
    keys: Vec<[u64; 2]>,
}

impl KeyStore {
    /// Generates key material for `n` processes from a setup seed.
    pub fn new(n: usize, seed: u64) -> Self {
        let keys = (0..n)
            .map(|i| {
                let mut h = Sha256::new();
                h.update(b"validity-crypto/keygen");
                h.update(seed.to_le_bytes());
                h.update((i as u64).to_le_bytes());
                let secret = h.finalize();
                let word = |at: usize| {
                    u64::from_le_bytes(secret.as_bytes()[at..at + 8].try_into().expect("8 bytes"))
                };
                [word(0), word(8)]
            })
            .collect();
        KeyStore {
            inner: Arc::new(KeyStoreInner { keys }),
        }
    }

    /// Number of processes provisioned.
    pub fn n(&self) -> usize {
        self.inner.keys.len()
    }

    /// Hands out the signing capability of process `p`.
    ///
    /// In a simulation harness, call this once per node and give each node
    /// only its own signer — that is what makes forgery impossible.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn signer(&self, p: ProcessId) -> Signer {
        assert!(p.index() < self.n(), "no key material for {p}");
        Signer {
            keystore: self.clone(),
            id: p,
        }
    }

    /// The tag of `p` over the message that `absorb` feeds to the state.
    fn tag(&self, p: ProcessId, absorb: impl FnOnce(&mut SipHasher128)) -> [u64; 2] {
        let mut h = SipHasher128::new(self.inner.keys[p.index()]);
        absorb(&mut h);
        h.finalize()
    }

    fn tag_parts(&self, p: ProcessId, domain: &str, parts: &[&[u8]]) -> [u64; 2] {
        self.tag(p, |h| for_each_chunk(domain, parts, |c| h.update(c)))
    }

    /// Verifies `sig` over `msg` (public operation).
    pub fn verify(&self, msg: impl AsRef<[u8]>, sig: &Signature) -> bool {
        let msg = msg.as_ref();
        sig.signer.index() < self.n() && self.tag(sig.signer, |h| h.update(msg)) == sig.tag
    }

    /// Verifies `sig` over [`message_bytes`]`(domain, parts)` without
    /// building the bytes.
    pub fn verify_parts(&self, domain: &str, parts: &[&[u8]], sig: &Signature) -> bool {
        sig.signer.index() < self.n() && self.tag_parts(sig.signer, domain, parts) == sig.tag
    }
}

/// The signing capability of a single process.
#[derive(Clone, Debug)]
pub struct Signer {
    keystore: KeyStore,
    id: ProcessId,
}

impl Signer {
    /// The owning process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `msg` as this process.
    pub fn sign(&self, msg: impl AsRef<[u8]>) -> Signature {
        let msg = msg.as_ref();
        Signature {
            signer: self.id,
            tag: self.keystore.tag(self.id, |h| h.update(msg)),
        }
    }

    /// Signs [`message_bytes`]`(domain, parts)` without building the bytes.
    pub fn sign_parts(&self, domain: &str, parts: &[&[u8]]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.keystore.tag_parts(self.id, domain, parts),
        }
    }
}

/// Walks the byte layout of a signed message, chunk by chunk: the domain
/// tag, a zero byte, then every part behind its 64-bit length. The one
/// place the layout lives — [`message_bytes`] collects the chunks,
/// [`Signer::sign_parts`] and [`KeyStore::verify_parts`] tag them.
fn for_each_chunk(domain: &str, parts: &[&[u8]], mut f: impl FnMut(&[u8])) {
    f(domain.as_bytes());
    f(&[0]);
    for p in parts {
        f(&(p.len() as u64).to_le_bytes());
        f(p);
    }
}

/// The bytes signed for a structured message: a domain tag plus
/// length-prefixed parts, so distinct `(domain, parts)` never collide.
pub fn message_bytes(domain: &str, parts: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for_each_chunk(domain, parts, |c| out.extend_from_slice(c));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let ks = KeyStore::new(4, 7);
        for i in 0..4 {
            let s = ks.signer(ProcessId(i));
            let sig = s.sign(b"msg");
            assert!(ks.verify(b"msg", &sig));
            assert_eq!(sig.signer(), ProcessId(i));
        }
    }

    #[test]
    fn tampered_message_fails() {
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(1)).sign(b"original");
        assert!(!ks.verify(b"other", &sig));
    }

    #[test]
    fn claimed_signer_must_match() {
        // A signature by P2 presented as P3's is rejected: the tag binds the
        // signer identity.
        let ks = KeyStore::new(4, 7);
        let sig = ks.signer(ProcessId(1)).sign(b"m");
        let forged = Signature {
            signer: ProcessId(2),
            tag: sig.tag,
        };
        assert!(!ks.verify(b"m", &forged));
    }

    #[test]
    fn different_seeds_are_incompatible() {
        let ks1 = KeyStore::new(4, 1);
        let ks2 = KeyStore::new(4, 2);
        let sig = ks1.signer(ProcessId(0)).sign(b"m");
        assert!(!ks2.verify(b"m", &sig));
    }

    #[test]
    #[should_panic(expected = "no key material")]
    fn signer_out_of_range_panics() {
        let ks = KeyStore::new(2, 1);
        let _ = ks.signer(ProcessId(5));
    }

    #[test]
    fn roundtrip_at_every_length_across_the_block_edges() {
        // SipHash absorbs the message in 8-byte words and puts the length
        // (mod 256) in the top byte of the last one: lengths 0..=130 put
        // every tail of 0 to 7 bytes behind 0 to 16 full words.
        let ks = KeyStore::new(3, 11);
        let signer = ks.signer(ProcessId(2));
        let data: Vec<u8> = (0..=130u8).collect();
        for len in 0..=130 {
            let msg = &data[..len];
            let sig = signer.sign(msg);
            assert!(ks.verify(msg, &sig), "length {len}");
            if len > 0 {
                assert!(!ks.verify(&msg[1..], &sig), "length {len}: shifted message");
                let mut flipped = msg.to_vec();
                flipped[len - 1] ^= 1;
                assert!(!ks.verify(&flipped, &sig), "length {len}: flipped bit");
            }
        }
    }

    #[test]
    fn tags_are_distinct_across_signers_and_setup_seeds() {
        let mut tags = std::collections::HashSet::new();
        for seed in 0..8 {
            let ks = KeyStore::new(8, seed);
            for i in 0..8 {
                assert!(tags.insert(ks.signer(ProcessId(i)).sign(b"m").tag));
            }
        }
    }

    #[test]
    fn parts_and_bytes_give_the_same_tag() {
        let ks = KeyStore::new(4, 7);
        let signer = ks.signer(ProcessId(1));
        let long = [9u8; 100];
        let cases: &[&[&[u8]]] = &[&[], &[b""], &[b"ab", b"c"], &[&[7u8; 8]], &[&long, b"x"]];
        for parts in cases {
            let sig = signer.sign_parts("dom", parts);
            assert_eq!(sig, signer.sign(message_bytes("dom", parts)));
            assert!(ks.verify_parts("dom", parts, &sig));
            assert!(ks.verify(message_bytes("dom", parts), &sig));
            assert!(!ks.verify_parts("other", parts, &sig));
        }
        // the length prefixes carry over: regrouped parts sign differently
        let sig = signer.sign_parts("dom", &[b"ab", b"c"]);
        assert!(!ks.verify_parts("dom", &[b"a", b"bc"], &sig));
    }

    #[test]
    fn message_bytes_is_injective_on_parts() {
        // Length prefixes prevent concatenation ambiguity.
        let a = message_bytes("d", &[b"ab", b"c"]);
        let b = message_bytes("d", &[b"a", b"bc"]);
        assert_ne!(a, b);
        // And the domain tag separates otherwise equal messages.
        assert_ne!(message_bytes("d1", &[b"x"]), message_bytes("d2", &[b"x"]));
    }
}
