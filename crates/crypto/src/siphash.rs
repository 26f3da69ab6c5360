//! SipHash-2-4 with 128-bit output (Aumasson & Bernstein, INDOCRYPT 2012):
//! the keyed PRF behind the simulated signature tags of [`crate::sig`].
//!
//! The state absorbs its input as little-endian 64-bit words, two
//! SipRounds per word; the last word carries the input length (mod 256)
//! in its top byte, and finalisation runs four SipRounds per output word.
//! [`SipHasher128::update`] streams: splitting the input anywhere gives
//! the same tag as absorbing it at once.

/// A SipHash-2-4-128 state under one 128-bit key `(k0, k1)`.
#[derive(Clone, Debug)]
pub(crate) struct SipHasher128 {
    v: [u64; 4],
    /// Up to seven input bytes not yet absorbed, little-endian.
    tail: u64,
    ntail: usize,
    /// Input length so far; only its low byte reaches the tag.
    len: usize,
}

impl SipHasher128 {
    /// A fresh state under the key `(k0, k1)`.
    #[inline]
    pub(crate) fn new(key: [u64; 2]) -> Self {
        let [k0, k1] = key;
        SipHasher128 {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d ^ 0xee,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    /// Absorbs `data`. Inlined into the signing and verifying paths, so
    /// the fixed-width chunks of a signed message (the separator byte, the
    /// 8-byte part lengths) compile to straight-line word loads.
    #[inline]
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len());
        if self.ntail > 0 {
            let need = 8 - self.ntail;
            if data.len() < need {
                self.tail |= load_partial(data) << (8 * self.ntail);
                self.ntail += data.len();
                return;
            }
            let (head, rest) = data.split_at(need);
            self.absorb(self.tail | load_partial(head) << (8 * self.ntail));
            data = rest;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.absorb(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail = load_partial(rest);
        self.ntail = rest.len();
    }

    /// The 128-bit tag: the first output word, then the second.
    #[inline]
    pub(crate) fn finalize(mut self) -> [u64; 2] {
        self.absorb(((self.len as u64) << 56) | self.tail);
        self.v[2] ^= 0xee;
        self.rounds(4);
        let first = self.v.iter().fold(0, |acc, w| acc ^ w);
        self.v[1] ^= 0xdd;
        self.rounds(4);
        let second = self.v.iter().fold(0, |acc, w| acc ^ w);
        [first, second]
    }

    #[inline]
    fn absorb(&mut self, m: u64) {
        self.v[3] ^= m;
        self.rounds(2);
        self.v[0] ^= m;
    }

    #[inline]
    fn rounds(&mut self, count: usize) {
        let [mut v0, mut v1, mut v2, mut v3] = self.v;
        for _ in 0..count {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13) ^ v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16) ^ v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21) ^ v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17) ^ v2;
            v2 = v2.rotate_left(32);
        }
        self.v = [v0, v1, v2, v3];
    }
}

/// Fewer than eight bytes as a little-endian word, zero-extended: at most
/// one 4-, one 2- and one 1-byte load, no copy of variable length.
#[inline]
fn load_partial(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() < 8);
    let mut word = 0;
    let mut at = 0;
    if bytes.len() >= 4 {
        word = u64::from(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
        at = 4;
    }
    if bytes.len() - at >= 2 {
        word |= u64::from(u16::from_le_bytes([bytes[at], bytes[at + 1]])) << (8 * at);
        at += 2;
    }
    if at < bytes.len() {
        word |= u64::from(bytes[at]) << (8 * at);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference key `00 01 … 0f`.
    const KEY: [u64; 2] = [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908];

    fn tag_hex(tag: [u64; 2]) -> String {
        tag.iter()
            .flat_map(|w| w.to_le_bytes())
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    fn one_shot(msg: &[u8]) -> [u64; 2] {
        let mut h = SipHasher128::new(KEY);
        h.update(msg);
        h.finalize()
    }

    #[test]
    fn known_answers_of_the_reference_implementation() {
        // Key 00 01 … 0f, message 00 01 … (len − 1).
        let data: Vec<u8> = (0..64u8).collect();
        for (len, want) in [
            (0, "a3817f04ba25a8e66df67214c7550293"),
            (1, "da87c1d86b99af44347659119b22fc45"),
            (2, "8177228da4a45dc7fca38bdef60affe4"),
            (7, "a1f1ebbed8dbc153c0b84aa61ff08239"),
            (8, "3b62a9ba6258f5610f83e264f31497b4"),
            (15, "5493e99933b0a8117e08ec0f97cfc3d9"),
            (63, "5150d1772f50834a503e069a973fbd7c"),
        ] {
            assert_eq!(tag_hex(one_shot(&data[..len])), want, "length {len}");
        }
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = one_shot(msg);
            for a in 0..=len {
                for b in a..=len {
                    let mut h = SipHasher128::new(KEY);
                    h.update(&msg[..a]);
                    h.update(&msg[a..b]);
                    h.update(&msg[b..]);
                    assert_eq!(h.finalize(), want, "length {len} split at {a}, {b}");
                }
            }
        }
    }

    /// A 256-byte message puts length byte 0 in the last word, as the
    /// empty one does.
    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 255, 256] {
            let mut h = SipHasher128::new(KEY);
            for b in &data[..len] {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), one_shot(&data[..len]), "length {len}");
        }
    }
}
