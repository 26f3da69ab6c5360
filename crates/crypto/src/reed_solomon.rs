//! Reed–Solomon coding over GF(2⁸) with Berlekamp–Welch error decoding.
//!
//! ADD \[36\] (Appendix B.3) disperses a data blob as a `(t+1, n)` RS code and
//! reconstructs it by *online error correction*: decoding is retried with an
//! increasing error budget as fragments arrive, since up to `t` Byzantine
//! processes may contribute corrupted fragments. [`ReedSolomon::decode`]
//! implements exactly that loop for one code word; [`ReedSolomon`]'s blob
//! API chunks arbitrary byte strings column-wise.
//!
//! There is one decoder, and it decodes each row at the smallest budget
//! `e = 0, 1, …, max_errors` that has a codeword within `e` of *all* `m`
//! shares.
//!
//! * **`e = 0`: one inverse per share set.** The interpolant through the
//!   first `k` shares is `V⁻¹·y`, where `V` is the Vandermonde matrix of
//!   their points. `V` depends only on the share indices, so
//!   [`ReedSolomon::decode_blob`] inverts it once per call (the Lagrange
//!   basis, `O(k²)`). Each row then costs a `k × k` product written straight
//!   into the output, plus a check of the other `m − k` shares.
//! * **`e ≥ 1`: Berlekamp–Welch, per row.** Only a row that fails the check
//!   runs Berlekamp–Welch for `e = 1, …, max_errors` on the first `k + 2e`
//!   shares and accepts a result only if it disagrees with at most `e` of
//!   all the shares. With `m ≥ k + 2·max_errors` shares, a codeword within
//!   `e` of all of them is the only one within `e` of any `k + 2e` of them
//!   (two such codewords would agree on `k` points), so Berlekamp–Welch on
//!   the prefix finds it whenever it exists, and the check against all
//!   shares rejects everything else.
//!
//! For the same reason a call at budget `E` returns what the first
//! successful call at `e = 0, 1, …, E` would: a row's codeword within some
//! `e ≤ E` is its only codeword within `E`, so the budget only decides how
//! far a failing row may fall back. [`ReedSolomon::decode`] is the one-row
//! case of the same path.

use std::fmt;

use crate::gf256::{poly_eval, solve_linear, Gf256};

/// Errors from Reed–Solomon operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RsError {
    /// Parameters must satisfy `1 ≤ k ≤ n ≤ 256`.
    BadParameters {
        /// Data shards.
        k: usize,
        /// Total shards.
        n: usize,
    },
    /// `encode` requires exactly `k` data symbols.
    WrongDataLen {
        /// Supplied length.
        got: usize,
        /// Required length `k`.
        expected: usize,
    },
    /// A share index was out of range or duplicated.
    BadShareIndex(usize),
    /// Not enough shares to decode (`< k` for erasures, `< k + 2e` for `e`
    /// errors).
    NotEnoughShares {
        /// Supplied share count.
        got: usize,
        /// Minimum required.
        needed: usize,
    },
    /// No consistent codeword found within the error budget.
    DecodingFailed,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::BadParameters { k, n } => {
                write!(f, "invalid Reed-Solomon parameters k = {k}, n = {n}")
            }
            RsError::WrongDataLen { got, expected } => {
                write!(f, "encode requires {expected} data symbols, got {got}")
            }
            RsError::BadShareIndex(i) => write!(f, "share index {i} out of range or duplicated"),
            RsError::NotEnoughShares { got, needed } => {
                write!(f, "need at least {needed} shares, got {got}")
            }
            RsError::DecodingFailed => write!(f, "no consistent codeword within error budget"),
        }
    }
}

impl std::error::Error for RsError {}

/// A fragment of an encoded blob: the share index plus one byte per chunk
/// row.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Share {
    /// Which evaluation point this share corresponds to (`0 ≤ index < n`).
    pub index: usize,
    /// One byte per chunk row.
    pub data: Vec<u8>,
}

/// A `(k, n)` Reed–Solomon code over GF(2⁸): `k` data symbols are the
/// coefficients of a degree-`< k` polynomial evaluated at points `0..n`.
///
/// # Examples
///
/// ```
/// use validity_crypto::reed_solomon::ReedSolomon;
///
/// let rs = ReedSolomon::new(2, 4)?;
/// let code = rs.encode(&[7, 9])?;
/// // any 2 intact shares reconstruct; here shares 1 and 3:
/// let data = rs.decode(&[(1, code[1]), (3, code[3])], 0)?;
/// assert_eq!(data, vec![7, 9]);
/// # Ok::<(), validity_crypto::reed_solomon::RsError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
}

impl ReedSolomon {
    /// Creates a `(k, n)` code.
    ///
    /// # Errors
    ///
    /// [`RsError::BadParameters`] unless `1 ≤ k ≤ n ≤ 256`.
    pub fn new(k: usize, n: usize) -> Result<Self, RsError> {
        if k == 0 || k > n || n > 256 {
            return Err(RsError::BadParameters { k, n });
        }
        Ok(ReedSolomon { k, n })
    }

    /// Data shards `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total shards `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of symbol errors correctable from all `n` shares:
    /// `⌊(n − k) / 2⌋`.
    pub fn max_errors(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Encodes exactly `k` data symbols into `n` code symbols.
    ///
    /// # Errors
    ///
    /// [`RsError::WrongDataLen`] if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        if data.len() != self.k {
            return Err(RsError::WrongDataLen {
                got: data.len(),
                expected: self.k,
            });
        }
        Ok((0..self.n).map(|i| eval(data, i)).collect())
    }

    /// Checks a share-index set: in range, distinct, and at least
    /// `k + 2·max_errors` of them.
    fn check_shares(
        &self,
        indices: impl ExactSizeIterator<Item = usize>,
        max_errors: usize,
    ) -> Result<(), RsError> {
        let got = indices.len();
        let mut seen = [false; 256];
        for i in indices {
            if i >= self.n || seen[i] {
                return Err(RsError::BadShareIndex(i));
            }
            seen[i] = true;
        }
        let needed = self.k + 2 * max_errors;
        if got < needed {
            return Err(RsError::NotEnoughShares { got, needed });
        }
        Ok(())
    }

    /// Decodes the `k` data symbols from shares `(index, symbol)`, tolerating
    /// up to `max_errors` *corrupted* shares (Berlekamp–Welch). Missing
    /// shares are erasures and simply absent from the slice.
    ///
    /// Requires `shares.len() ≥ k + 2·max_errors`.
    ///
    /// # Errors
    ///
    /// [`RsError::NotEnoughShares`], [`RsError::BadShareIndex`], or
    /// [`RsError::DecodingFailed`] if no codeword is consistent with the
    /// shares within the error budget.
    pub fn decode(&self, shares: &[(usize, u8)], max_errors: usize) -> Result<Vec<u8>, RsError> {
        self.check_shares(shares.iter().map(|&(i, _)| i), max_errors)?;
        self.decode_rows(
            shares.len(),
            1,
            |s| shares[s].0,
            |s, _| shares[s].1,
            max_errors,
        )
    }

    /// Decodes `rows` code words over `m` shares [`ReedSolomon::check_shares`]
    /// accepted, share `s` sitting at point `index(s)` with symbol
    /// `symbol(s, r)` in row `r`; returns the rows' data symbols back to back.
    ///
    /// Each row is first interpolated from the first `k` shares through the
    /// inverse Vandermonde matrix of their points, computed once for all
    /// rows, and kept if it matches the other `m − k` shares. Only a row that
    /// fails this `e = 0` check runs Berlekamp–Welch for `e = 1, …,
    /// max_errors`.
    fn decode_rows(
        &self,
        m: usize,
        rows: usize,
        index: impl Fn(usize) -> usize,
        symbol: impl Fn(usize, usize) -> u8,
        max_errors: usize,
    ) -> Result<Vec<u8>, RsError> {
        let k = self.k;
        let mut points = [Gf256::ZERO; 256];
        for (s, x) in points[..k].iter_mut().enumerate() {
            *x = Gf256(index(s) as u8);
        }
        let basis = lagrange_basis(&points[..k]);
        let mut out = vec![0u8; rows * k];
        let mut row = Vec::new();
        for (r, data) in out.chunks_exact_mut(k).enumerate() {
            // data = Σ_s y_s · L_s, i.e. V⁻¹ · (y_0, …, y_{k−1}).
            for (s, l) in basis.chunks_exact(k).enumerate() {
                let y = Gf256(symbol(s, r));
                for (d, &c) in data.iter_mut().zip(l) {
                    *d = (Gf256(*d) + y * c).0;
                }
            }
            if (k..m).all(|s| eval(data, index(s)) == symbol(s, r)) {
                continue;
            }
            row.clear();
            row.extend((0..m).map(|s| (index(s), symbol(s, r))));
            let fixed = (1..=max_errors)
                .find_map(|e| self.try_decode_with_e(&row, e))
                .ok_or(RsError::DecodingFailed)?;
            data.copy_from_slice(&fixed);
        }
        Ok(out)
    }

    /// One Berlekamp–Welch attempt assuming ≤ `e` errors: solved on the first
    /// `k + 2e` shares, checked against all of them.
    fn try_decode_with_e(&self, shares: &[(usize, u8)], e: usize) -> Option<Vec<u8>> {
        let k = self.k;
        // Unknowns: Q (k + e coeffs) then E_0..E_{e-1} (E is monic deg e).
        // Equation per share: Q(x_i) − y_i·Σ_{j<e} E_j x_i^j = y_i·x_i^e.
        let cols = k + 2 * e;
        let mut a = Vec::with_capacity(cols);
        let mut b = Vec::with_capacity(cols);
        for &(xi, yi) in &shares[..cols] {
            let x = Gf256(xi as u8);
            let y = Gf256(yi);
            let mut row = Vec::with_capacity(cols);
            let mut xp = Gf256::ONE;
            for _ in 0..k + e {
                row.push(xp);
                xp *= x;
            }
            let mut xp = Gf256::ONE;
            for _ in 0..e {
                row.push(y * xp); // note: −y == y in GF(2⁸)
                xp *= x;
            }
            a.push(row);
            b.push(y * x.pow(e));
        }
        let mut sol = solve_linear(a, b)?;
        // Divide Q by the monic E in place, top coefficient first: the
        // quotient P (degree < k) is left in sol[e..k + e], the remainder in
        // sol[..e].
        let (q, err_poly) = sol.split_at_mut(k + e);
        for i in (0..k).rev() {
            let c = q[i + e];
            for (j, &ej) in err_poly.iter().enumerate() {
                q[i + j] -= c * ej;
            }
        }
        let (rem, p) = q.split_at(e);
        if rem.iter().any(|c| !c.is_zero()) {
            return None;
        }
        let mismatches = shares
            .iter()
            .filter(|&&(xi, yi)| poly_eval(p, Gf256(xi as u8)).0 != yi)
            .count();
        (mismatches <= e).then(|| p.iter().map(|c| c.0).collect())
    }

    /// Encodes an arbitrary blob into `n` [`Share`]s (column-wise chunking
    /// with a length header).
    pub fn encode_blob(&self, blob: &[u8]) -> Vec<Share> {
        let mut framed = Vec::with_capacity(blob.len() + 4 + self.k);
        framed.extend_from_slice(&(blob.len() as u32).to_le_bytes());
        framed.extend_from_slice(blob);
        framed.resize(framed.len().next_multiple_of(self.k), 0);
        (0..self.n)
            .map(|index| Share {
                index,
                data: framed
                    .chunks_exact(self.k)
                    .map(|row| eval(row, index))
                    .collect(),
            })
            .collect()
    }

    /// Reconstructs a blob from shares, tolerating up to `max_errors`
    /// corrupted shares (each corrupted share may corrupt every row).
    ///
    /// # Errors
    ///
    /// The errors of [`ReedSolomon::decode`]; also fails if shares disagree
    /// on length or the length header is implausible.
    pub fn decode_blob(&self, shares: &[Share], max_errors: usize) -> Result<Vec<u8>, RsError> {
        let rows = shares.first().map(|s| s.data.len()).unwrap_or(0);
        if rows == 0 || shares.iter().any(|s| s.data.len() != rows) {
            return Err(RsError::DecodingFailed);
        }
        self.check_shares(shares.iter().map(|s| s.index), max_errors)?;
        let mut framed = self.decode_rows(
            shares.len(),
            rows,
            |s| shares[s].index,
            |s, r| shares[s].data[r],
            max_errors,
        )?;
        if framed.len() < 4 {
            return Err(RsError::DecodingFailed);
        }
        let len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
        if len > framed.len() - 4 {
            return Err(RsError::DecodingFailed);
        }
        framed.truncate(4 + len);
        framed.drain(..4);
        Ok(framed)
    }
}

/// The code symbol at point `x` of the data word `data`: its polynomial
/// evaluated by Horner's rule.
fn eval(data: &[u8], x: usize) -> u8 {
    let x = Gf256(x as u8);
    data.iter()
        .rev()
        .fold(Gf256::ZERO, |acc, &c| x * acc + Gf256(c))
        .0
}

/// The inverse of the Vandermonde matrix `V[i][j] = points[i]^j`, one
/// Lagrange basis polynomial `L_i(x) = Π_{j≠i} (x − x_j) / (x_i − x_j)` per
/// `k` entries: `L_i`'s coefficients are column `i` of `V⁻¹`, so
/// `Σ_i y_i · L_i` is the polynomial through every `(x_i, y_i)`. `O(k²)`:
/// each `L_i` is `Π_j (x − x_j)` divided by `x − x_i`, then scaled.
///
/// The points must be distinct, as [`ReedSolomon::check_shares`] ensures.
fn lagrange_basis(points: &[Gf256]) -> Vec<Gf256> {
    let k = points.len();
    // Π_j (x − x_j), monic of degree k, one factor at a time.
    let mut product = [Gf256::ZERO; 257];
    product[0] = Gf256::ONE;
    for (degree, &x) in points.iter().enumerate() {
        for j in (1..=degree + 1).rev() {
            product[j] = product[j - 1] + x * product[j];
        }
        product[0] = x * product[0];
    }
    let mut basis = vec![Gf256::ZERO; k * k];
    for (&x, l) in points.iter().zip(basis.chunks_exact_mut(k)) {
        // Synthetic division by x − x_i, top coefficient first; the
        // remainder is the product at x_i, which is zero.
        let mut carry = Gf256::ZERO;
        for j in (0..k).rev() {
            carry = product[j + 1] + x * carry;
            l[j] = carry;
        }
        let scale = poly_eval(l, x).inv().expect("the points are distinct");
        for c in l.iter_mut() {
            *c *= scale;
        }
    }
    basis
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_rejects_wrong_len() {
        let rs = ReedSolomon::new(3, 5).unwrap();
        assert!(matches!(
            rs.encode(&[1, 2]),
            Err(RsError::WrongDataLen {
                got: 2,
                expected: 3
            })
        ));
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(5, 4).is_err());
        assert!(ReedSolomon::new(1, 257).is_err());
        assert!(ReedSolomon::new(1, 1).is_ok());
    }

    #[test]
    fn erasure_decoding_from_any_k_shares() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let data = [10u8, 200, 33];
        let code = rs.encode(&data).unwrap();
        // every 3-subset of shares reconstructs
        for a in 0..7 {
            for b in a + 1..7 {
                for c in b + 1..7 {
                    let shares = [(a, code[a]), (b, code[b]), (c, code[c])];
                    assert_eq!(rs.decode(&shares, 0).unwrap(), data.to_vec());
                }
            }
        }
    }

    #[test]
    fn error_decoding_up_to_capacity() {
        let rs = ReedSolomon::new(3, 9).unwrap(); // corrects ⌊6/2⌋ = 3 errors
        let data = [1u8, 2, 3];
        let mut code = rs.encode(&data).unwrap();
        code[0] ^= 0xff;
        code[4] ^= 0x55;
        code[8] ^= 0x01;
        let shares: Vec<(usize, u8)> = code.iter().copied().enumerate().collect();
        assert_eq!(rs.decode(&shares, 3).unwrap(), data.to_vec());
    }

    #[test]
    fn too_many_errors_fail_cleanly() {
        let rs = ReedSolomon::new(3, 7).unwrap(); // capacity 2
        let data = [9u8, 8, 7];
        let mut code = rs.encode(&data).unwrap();
        for c in code.iter_mut().take(3) {
            *c ^= 0xff; // 3 errors > capacity
        }
        let shares: Vec<(usize, u8)> = code.iter().copied().enumerate().collect();
        match rs.decode(&shares, 2) {
            Err(RsError::DecodingFailed) => {}
            Ok(decoded) => assert_ne!(decoded, data.to_vec(), "must not silently mis-decode"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn duplicate_share_index_rejected() {
        let rs = ReedSolomon::new(2, 4).unwrap();
        let code = rs.encode(&[1, 2]).unwrap();
        assert!(matches!(
            rs.decode(&[(1, code[1]), (1, code[1])], 0),
            Err(RsError::BadShareIndex(1))
        ));
    }

    #[test]
    fn not_enough_shares_reported() {
        let rs = ReedSolomon::new(4, 8).unwrap();
        assert!(matches!(
            rs.decode(&[(0, 1), (1, 2)], 1),
            Err(RsError::NotEnoughShares { got: 2, needed: 6 })
        ));
    }

    #[test]
    fn blob_roundtrip_clean() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        for len in [0usize, 1, 2, 3, 10, 100] {
            let blob: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let shares = rs.encode_blob(&blob);
            assert_eq!(shares.len(), 7);
            assert_eq!(rs.decode_blob(&shares, 0).unwrap(), blob, "len {len}");
        }
    }

    #[test]
    fn blob_roundtrip_with_corrupted_shares() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let blob: Vec<u8> = (0..50u8).collect();
        let mut shares = rs.encode_blob(&blob);
        // Corrupt two whole shares (a Byzantine process corrupts everything
        // it sends).
        for byte in &mut shares[2].data {
            *byte ^= 0xaa;
        }
        for byte in &mut shares[5].data {
            *byte ^= 0x33;
        }
        assert_eq!(rs.decode_blob(&shares, 2).unwrap(), blob);
    }

    #[test]
    fn blob_decoding_from_subset_of_shares() {
        // t+1 = 3 of n = 7 shares suffice when all are honest.
        let rs = ReedSolomon::new(3, 7).unwrap();
        let blob = b"vector consensus".to_vec();
        let shares = rs.encode_blob(&blob);
        let subset: Vec<Share> = shares[3..6].to_vec();
        assert_eq!(rs.decode_blob(&subset, 0).unwrap(), blob);
    }

    #[test]
    fn add_style_online_error_correction() {
        // The ADD usage pattern: k = t+1, n = 3t+1; up to t corrupted
        // fragments among n − t received.
        let t = 2;
        let rs = ReedSolomon::new(t + 1, 3 * t + 1).unwrap();
        let blob = b"ADD payload".to_vec();
        let mut shares = rs.encode_blob(&blob);
        shares.truncate(3 * t + 1 - t); // only n − t fragments arrive
        for byte in &mut shares[0].data {
            *byte ^= 0x77; // one of them Byzantine-corrupted
        }
        // capacity: m − k = 5 − 3 = 2 ⇒ can fix ⌊2/2⌋ = 1 error
        assert_eq!(rs.decode_blob(&shares, 1).unwrap(), blob);
    }
}
