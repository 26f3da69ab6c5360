//! The Reed–Solomon decoder against the one it replaced.
//!
//! [`RefRs`] is the earlier decoder, kept here as the reference: `interpolate`
//! from the first `k` shares at budget 0, Berlekamp–Welch over *all* `m`
//! shares above it, the budget loop run again for every row, and the share
//! indices checked again for every row. `ReedSolomon::decode` and
//! `ReedSolomon::decode_blob` must return the same `Result` on every input:
//! random erasures, 0 to capacity + 1 corrupted shares, every budget up to
//! `max_errors`, any share order, duplicate and out-of-range indices, too
//! few shares and unequal row counts.
//!
//! The vendored proptest does not shrink, so each case is a `(code, seed)`
//! pair and a failure prints the seed and the shares.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use validity_crypto::gf256::{poly_divmod, poly_eval, solve_linear, Gf256};
use validity_crypto::reed_solomon::{ReedSolomon, RsError, Share};

const CODES: [(usize, usize); 5] = [(1, 1), (2, 4), (3, 7), (6, 16), (22, 64)];

struct RefRs {
    k: usize,
    n: usize,
}

impl RefRs {
    fn check_shares(&self, shares: &[(usize, u8)]) -> Result<(), RsError> {
        let mut seen = [false; 256];
        for &(i, _) in shares {
            if i >= self.n || seen[i] {
                return Err(RsError::BadShareIndex(i));
            }
            seen[i] = true;
        }
        Ok(())
    }

    fn decode(&self, shares: &[(usize, u8)], max_errors: usize) -> Result<Vec<u8>, RsError> {
        self.check_shares(shares)?;
        if shares.len() < self.k + 2 * max_errors {
            return Err(RsError::NotEnoughShares {
                got: shares.len(),
                needed: self.k + 2 * max_errors,
            });
        }
        for e in 0..=max_errors {
            if let Some(data) = self.try_decode_with_e(shares, e) {
                return Ok(data);
            }
        }
        Err(RsError::DecodingFailed)
    }

    fn try_decode_with_e(&self, shares: &[(usize, u8)], e: usize) -> Option<Vec<u8>> {
        let m = shares.len();
        let k = self.k;
        if e == 0 {
            let data = self.interpolate(&shares[..k])?;
            return self.verify_against(&data, shares, 0).then_some(data);
        }
        let cols = k + 2 * e;
        let mut a = Vec::with_capacity(m);
        let mut b = Vec::with_capacity(m);
        for &(xi, yi) in shares {
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
                row.push(y * xp);
                xp *= x;
            }
            a.push(row);
            b.push(y * x.pow(e));
        }
        let sol = solve_linear(a, b)?;
        let q = &sol[..k + e];
        let mut err_poly: Vec<Gf256> = sol[k + e..].to_vec();
        err_poly.push(Gf256::ONE);
        let (p, rem) = poly_divmod(q, &err_poly);
        if rem.iter().any(|c| !c.is_zero()) {
            return None;
        }
        let mut data: Vec<u8> = p.iter().map(|c| c.0).collect();
        data.resize(k, 0);
        if p.len() > k && p[k..].iter().any(|c| !c.is_zero()) {
            return None;
        }
        self.verify_against(&data, shares, e).then_some(data)
    }

    fn interpolate(&self, shares: &[(usize, u8)]) -> Option<Vec<u8>> {
        let k = self.k;
        let mut a = Vec::with_capacity(k);
        let mut b = Vec::with_capacity(k);
        for &(xi, yi) in shares {
            let x = Gf256(xi as u8);
            let mut row = Vec::with_capacity(k);
            let mut xp = Gf256::ONE;
            for _ in 0..k {
                row.push(xp);
                xp *= x;
            }
            a.push(row);
            b.push(Gf256(yi));
        }
        solve_linear(a, b).map(|sol| sol.into_iter().map(|c| c.0).collect())
    }

    fn verify_against(&self, data: &[u8], shares: &[(usize, u8)], e: usize) -> bool {
        let coeffs: Vec<Gf256> = data.iter().map(|&b| Gf256(b)).collect();
        let mismatches = shares
            .iter()
            .filter(|&&(xi, yi)| poly_eval(&coeffs, Gf256(xi as u8)).0 != yi)
            .count();
        mismatches <= e
    }

    fn decode_blob(&self, shares: &[Share], max_errors: usize) -> Result<Vec<u8>, RsError> {
        let rows = shares.first().map(|s| s.data.len()).unwrap_or(0);
        if rows == 0 || shares.iter().any(|s| s.data.len() != rows) {
            return Err(RsError::DecodingFailed);
        }
        let mut framed = Vec::with_capacity(rows * self.k);
        for r in 0..rows {
            let row_shares: Vec<(usize, u8)> =
                shares.iter().map(|s| (s.index, s.data[r])).collect();
            framed.extend(self.decode(&row_shares, max_errors)?);
        }
        if framed.len() < 4 {
            return Err(RsError::DecodingFailed);
        }
        let len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
        if len > framed.len() - 4 {
            return Err(RsError::DecodingFailed);
        }
        Ok(framed[4..4 + len].to_vec())
    }
}

fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.below(100) < percent
}

/// One input: shares of a random blob under code `CODES[code]`, and a budget.
#[derive(Debug)]
struct Case {
    shares: Vec<Share>,
    budget: usize,
    corrupted: usize,
}

/// Keeps a random subset of the encoded shares (sometimes fewer than `k`),
/// corrupts 0 to capacity + 1 of them (a corrupted share may still agree on
/// some rows), shuffles them, and now and then plants a duplicate index, an
/// out-of-range index or a share of another row count. The budget is any of
/// `0..=max_errors`, or one past it.
fn case(code: usize, seed: u64) -> Case {
    let (k, n) = CODES[code];
    let rs = ReedSolomon::new(k, n).unwrap();
    let rng = &mut TestRng::from_seed(seed);
    let len = rng.below(3 * k as u64 + 8) as usize;
    let blob: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
    let mut shares = rs.encode_blob(&blob);
    let kept = if chance(rng, 70) {
        n - rng.below(n as u64 - k as u64 + 1) as usize
    } else {
        rng.below(n as u64 + 1) as usize
    };
    for i in 0..n {
        shares.swap(i, i + rng.below((n - i) as u64) as usize);
    }
    shares.truncate(kept);
    let capacity = kept.saturating_sub(k) / 2;
    let corrupted = (rng.below(capacity as u64 + 2) as usize).min(kept);
    for share in &mut shares[..corrupted] {
        for byte in &mut share.data {
            *byte ^= rng.below(256) as u8;
        }
    }
    for i in 0..kept {
        shares.swap(i, i + rng.below((kept - i) as u64) as usize);
    }
    if !shares.is_empty() {
        let victim = rng.below(shares.len() as u64) as usize;
        if chance(rng, 8) {
            let mut twin = shares[victim].clone();
            if chance(rng, 50) {
                twin.data[0] ^= 1;
            }
            shares.insert(rng.below(shares.len() as u64 + 1) as usize, twin);
        }
        if chance(rng, 8) {
            shares[victim].index = [n, n + 1, 255, 256, usize::MAX][rng.below(5) as usize];
        }
        if chance(rng, 8) {
            if chance(rng, 50) {
                shares[victim].data.pop();
            } else {
                shares[victim].data.push(0);
            }
        }
    }
    let budget = rng.below(rs.max_errors() as u64 + 2) as usize;
    Case {
        shares,
        budget,
        corrupted,
    }
}

/// What a case made the decoder return.
#[derive(Default, Debug)]
struct Reached {
    budgets: Vec<bool>,
    decoded_with_corruption: usize,
    failed: usize,
    too_few: usize,
    bad_index: usize,
}

/// Compares `decode` on the first row and `decode_blob` on all rows.
fn check(code: usize, seed: u64, reached: &mut Reached) {
    let (k, n) = CODES[code];
    let (rs, reference) = (ReedSolomon::new(k, n).unwrap(), RefRs { k, n });
    let c = case(code, seed);
    let row: Vec<(usize, u8)> = c
        .shares
        .iter()
        .filter_map(|s| Some((s.index, *s.data.first()?)))
        .collect();
    let (got, want) = (rs.decode(&row, c.budget), reference.decode(&row, c.budget));
    assert_eq!(got, want, "{:?} seed {seed}: decode\n{c:?}", CODES[code]);
    let (got, want) = (
        rs.decode_blob(&c.shares, c.budget),
        reference.decode_blob(&c.shares, c.budget),
    );
    assert_eq!(
        got, want,
        "{:?} seed {seed}: decode_blob\n{c:?}",
        CODES[code]
    );
    if reached.budgets.len() <= c.budget {
        reached.budgets.resize(c.budget + 1, false);
    }
    reached.budgets[c.budget] = true;
    match got {
        Ok(_) => reached.decoded_with_corruption += (c.corrupted > 0) as usize,
        Err(RsError::DecodingFailed) => reached.failed += 1,
        Err(RsError::NotEnoughShares { .. }) => reached.too_few += 1,
        Err(RsError::BadShareIndex(_)) => reached.bad_index += 1,
        Err(e) => panic!("{:?} seed {seed}: unexpected {e}", CODES[code]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Same `Result`s as the reference, for `decode` and `decode_blob`.
    #[test]
    fn decoder_matches_the_reference(code in 0..CODES.len(), seed in any::<u64>()) {
        check(code, seed, &mut Reached::default());
    }
}

/// The cases are worth comparing on: for every code, every budget up to one
/// past `max_errors` comes up, and decodes that corrected errors, decoding
/// failures, too few shares and bad indices all occur.
#[test]
fn the_generator_reaches_every_outcome() {
    for (code, &(k, n)) in CODES.iter().enumerate() {
        let mut reached = Reached::default();
        for seed in 0..200 {
            check(code, seed, &mut reached);
        }
        let max_errors = ReedSolomon::new(k, n).unwrap().max_errors();
        assert!(
            reached.budgets.len() == max_errors + 2 && reached.budgets.iter().all(|&b| b),
            "{:?}: budgets {:?}",
            CODES[code],
            reached.budgets
        );
        let mut counts = vec![reached.failed, reached.too_few, reached.bad_index];
        if k < n {
            // A (1, 1) code has no redundancy to correct anything with.
            counts.push(reached.decoded_with_corruption);
        }
        assert!(
            counts.iter().all(|&c| c >= 3),
            "{:?}: {reached:?}",
            CODES[code]
        );
    }
}
