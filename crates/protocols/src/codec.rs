//! Value encoding and word-size accounting shared by all protocols.
//!
//! Protocols need two things from the values they carry:
//!
//! * a deterministic byte encoding ([`Codec`]) — for signing (`⟨m⟩_{σ_i}`),
//!   hashing (Appendix B.3), and erasure coding (ADD);
//! * a size in *words* ([`Words`]) — the paper's communication-complexity
//!   unit (footnote 4: a word holds a constant number of values, hashes,
//!   and signatures).
//!
//! Both forward through [`Arc`]: a shared value encodes, decodes and
//! counts exactly as the value itself, so a protocol may pass large
//! immutable payloads by reference without changing a byte on the wire
//! or a word in the tally.
//!
//! An encoding is written into a [`ByteSink`]: a `Vec<u8>` buffers it, and
//! a [`Sha256`] absorbs it as it is written. Every implementation emits the
//! same bytes in the same order into either, so [`hash_encoding`] is the
//! SHA-256 digest of `encode()`'s bytes without the buffer, and a protocol
//! hashes a value's encoding that way rather than through `encode()`.

use std::sync::Arc;

use validity_core::{InputConfig, ProcessId, SystemParams, Value};
use validity_crypto::{Digest, Sha256};

/// Bytes per word for blob-size accounting.
pub const BYTES_PER_WORD: usize = 8;

/// Rounds a byte length up to words (at least one word).
pub fn bytes_to_words(bytes: usize) -> usize {
    bytes.div_ceil(BYTES_PER_WORD).max(1)
}

/// Where [`Codec::encode_into`] writes: an append-only byte stream.
///
/// The contract is the concatenation: whatever the sink, it receives the
/// encoding as a sequence of `put`s whose concatenation is `encode()`, so a
/// sink may not tell one split of the bytes from another.
pub trait ByteSink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl ByteSink for Sha256 {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// The SHA-256 digest of `v`'s encoding, streamed into the hash as it is
/// written: the digest of `v.encode()`, with no intermediate buffer.
pub fn hash_encoding<T: Codec>(v: &T) -> Digest {
    let mut h = Sha256::new();
    v.encode_into(&mut h);
    h.finalize()
}

/// Writes a length-prefixed byte string: the `Vec<u8>` and `String` encoding.
fn put_len_prefixed(bytes: &[u8], out: &mut impl ByteSink) {
    out.put(&(bytes.len() as u32).to_le_bytes());
    out.put(bytes);
}

/// A deterministic, self-delimiting byte encoding.
///
/// Implementations must round-trip: `decode(encode(v)) == Some((v, len))`.
pub trait Codec: Sized {
    /// Writes the encoding of `self` into `out`.
    fn encode_into(&self, out: &mut impl ByteSink);

    /// Decodes a value from the front of `bytes`, returning it and the
    /// number of bytes consumed.
    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)>;

    /// Encodes to a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a value that must consume the entire buffer.
    fn decode_all(bytes: &[u8]) -> Option<Self> {
        match Self::decode_from(bytes) {
            Some((v, used)) if used == bytes.len() => Some(v),
            _ => None,
        }
    }
}

impl Codec for u64 {
    fn encode_into(&self, out: &mut impl ByteSink) {
        out.put(&self.to_le_bytes());
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let chunk: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        Some((u64::from_le_bytes(chunk), 8))
    }
}

impl Codec for u32 {
    fn encode_into(&self, out: &mut impl ByteSink) {
        out.put(&self.to_le_bytes());
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let chunk: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        Some((u32::from_le_bytes(chunk), 4))
    }
}

impl Codec for bool {
    fn encode_into(&self, out: &mut impl ByteSink) {
        out.put(&[u8::from(*self)]);
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        match bytes.first()? {
            0 => Some((false, 1)),
            1 => Some((true, 1)),
            _ => None,
        }
    }
}

impl Codec for Vec<u8> {
    fn encode_into(&self, out: &mut impl ByteSink) {
        put_len_prefixed(self, out);
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let len: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
        let len = u32::from_le_bytes(len) as usize;
        let data = bytes.get(4..4 + len)?;
        Some((data.to_vec(), 4 + len))
    }
}

impl Codec for String {
    fn encode_into(&self, out: &mut impl ByteSink) {
        put_len_prefixed(self.as_bytes(), out);
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let (raw, used) = Vec::<u8>::decode_from(bytes)?;
        Some((String::from_utf8(raw).ok()?, used))
    }
}

impl<V: Value + Codec> Codec for InputConfig<V> {
    fn encode_into(&self, out: &mut impl ByteSink) {
        let params = self.params();
        out.put(&(params.n() as u32).to_le_bytes());
        out.put(&(params.t() as u32).to_le_bytes());
        out.put(&(self.len() as u32).to_le_bytes());
        for (p, v) in self.pairs() {
            out.put(&(p.index() as u32).to_le_bytes());
            v.encode_into(out);
        }
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let mut at = 0usize;
        let mut read_u32 = |bytes: &[u8]| -> Option<u32> {
            let chunk: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
            at += 4;
            Some(u32::from_le_bytes(chunk))
        };
        let n = read_u32(bytes)? as usize;
        let t = read_u32(bytes)? as usize;
        let count = read_u32(bytes)? as usize;
        let params = SystemParams::new(n, t).ok()?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            let chunk: [u8; 4] = bytes.get(at..at + 4)?.try_into().ok()?;
            at += 4;
            let pid = u32::from_le_bytes(chunk) as usize;
            let (v, used) = V::decode_from(bytes.get(at..)?)?;
            at += used;
            pairs.push((ProcessId::from_index(pid), v));
        }
        let cfg = InputConfig::from_pairs(params, pairs).ok()?;
        Some((cfg, at))
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn encode_into(&self, out: &mut impl ByteSink) {
        T::encode_into(self, out);
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        T::decode_from(bytes).map(|(v, used)| (Arc::new(v), used))
    }
}

/// Word-size accounting for payloads (footnote 4 of the paper).
pub trait Words {
    /// Size in words.
    fn words(&self) -> usize;
}

impl<T: Words + ?Sized> Words for Arc<T> {
    fn words(&self) -> usize {
        T::words(self)
    }
}

impl Words for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl Words for u32 {
    fn words(&self) -> usize {
        1
    }
}

impl Words for bool {
    fn words(&self) -> usize {
        1
    }
}

impl Words for String {
    fn words(&self) -> usize {
        bytes_to_words(self.len())
    }
}

impl Words for Vec<u8> {
    fn words(&self) -> usize {
        bytes_to_words(self.len())
    }
}

impl<V: Value + Words> Words for InputConfig<V> {
    fn words(&self) -> usize {
        // one word of framing + one word-count per contained proposal
        1 + self.proposals().map(Words::words).sum::<usize>()
    }
}

impl<T: Words> Words for Option<T> {
    fn words(&self) -> usize {
        match self {
            Some(t) => t.words(),
            None => 1,
        }
    }
}

impl Words for Digest {
    fn words(&self) -> usize {
        1
    }
}

impl Codec for Digest {
    fn encode_into(&self, out: &mut impl ByteSink) {
        out.put(self.as_bytes());
    }

    fn decode_from(bytes: &[u8]) -> Option<(Self, usize)> {
        let chunk: [u8; 32] = bytes.get(..32)?.try_into().ok()?;
        Some((Digest(chunk), 32))
    }
}

impl Words for validity_crypto::Signature {
    fn words(&self) -> usize {
        1
    }
}

impl Words for validity_crypto::ThresholdSignature {
    fn words(&self) -> usize {
        1
    }
}

impl Words for validity_crypto::PartialSignature {
    fn words(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode();
        assert_eq!(T::decode_all(&bytes), Some(v));
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(12345u32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip("hello κόσμος".to_string());
    }

    #[test]
    fn bool_rejects_garbage() {
        assert!(bool::decode_all(&[2]).is_none());
    }

    #[test]
    fn input_config_roundtrip() {
        let params = SystemParams::new(4, 1).unwrap();
        let c = InputConfig::from_pairs(params, [(0usize, 5u64), (2, 7), (3, 9)]).unwrap();
        roundtrip(c);
    }

    #[test]
    fn decode_all_rejects_trailing_bytes() {
        let mut bytes = 7u64.encode();
        bytes.push(0);
        assert!(u64::decode_all(&bytes).is_none());
    }

    #[test]
    fn words_accounting() {
        assert_eq!(5u64.words(), 1);
        assert_eq!(vec![0u8; 17].words(), 3);
        assert_eq!(bytes_to_words(0), 1);
        let params = SystemParams::new(4, 1).unwrap();
        let c = InputConfig::from_pairs(params, [(0usize, 5u64), (2, 7), (3, 9)]).unwrap();
        assert_eq!(c.words(), 4); // 1 framing + 3 values
    }
}
