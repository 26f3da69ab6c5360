//! Arithmetic in GF(2⁸), the field underlying the Reed–Solomon codec used
//! by ADD (Appendix B.3 / \[36\]).
//!
//! Representation: polynomials over GF(2) modulo the AES polynomial
//! `x⁸ + x⁴ + x³ + x + 1` (0x11b), with generator 0x03. Multiplication uses
//! log/exp tables computed at compile time.

// In characteristic 2, addition *is* xor and subtraction *is* addition;
// clippy's suspicion that `^` in `Add` (etc.) is a typo does not apply to a
// field implementation.
#![allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)]

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

const POLY: u16 = 0x11b;

struct Tables {
    exp: [u8; 512], // doubled to skip the mod-255 reduction
    log: [u8; 256],
}

static TABLES: Tables = tables();

/// `exp[i] = 3^i` (period 255, so the doubled half repeats the first) and
/// `log` its inverse on the non-zero elements.
const fn tables() -> Tables {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 512 {
        exp[i] = x as u8;
        if i < 255 {
            log[x as usize] = i as u8;
        }
        // multiply x by the generator 0x03 = x·2 ⊕ x
        let mut x2 = x << 1;
        if x2 & 0x100 != 0 {
            x2 ^= POLY;
        }
        x ^= x2;
        i += 1;
    }
    Tables { exp, log }
}

/// An element of GF(2⁸).
///
/// # Examples
///
/// ```
/// use validity_crypto::gf256::Gf256;
///
/// let a = Gf256(0x57);
/// let b = Gf256(0x83);
/// assert_eq!(a * b, Gf256(0xc1)); // the classic AES example
/// assert_eq!(a + a, Gf256(0));    // characteristic 2
/// assert_eq!(a * a.inv().unwrap(), Gf256(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gf256(pub u8);

impl Gf256 {
    /// The additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// The multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);

    /// Whether this is the zero element.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplicative inverse, or `None` for zero.
    pub fn inv(self) -> Option<Gf256> {
        if self.0 == 0 {
            return None;
        }
        let t = &TABLES;
        Some(Gf256(t.exp[255 - t.log[self.0 as usize] as usize]))
    }

    /// `self^k` with `0⁰ = 1`.
    pub fn pow(self, mut k: usize) -> Gf256 {
        if k == 0 {
            return Gf256::ONE;
        }
        if self.0 == 0 {
            return Gf256::ZERO;
        }
        let t = &TABLES;
        k %= 255;
        let l = t.log[self.0 as usize] as usize;
        Gf256(t.exp[(l * k) % 255])
    }
}

impl Add for Gf256 {
    type Output = Gf256;
    fn add(self, rhs: Gf256) -> Gf256 {
        Gf256(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf256 {
    fn add_assign(&mut self, rhs: Gf256) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf256 {
    type Output = Gf256;
    fn sub(self, rhs: Gf256) -> Gf256 {
        self + rhs // characteristic 2
    }
}

impl SubAssign for Gf256 {
    fn sub_assign(&mut self, rhs: Gf256) {
        *self += rhs;
    }
}

impl Neg for Gf256 {
    type Output = Gf256;
    fn neg(self) -> Gf256 {
        self
    }
}

impl Mul for Gf256 {
    type Output = Gf256;
    fn mul(self, rhs: Gf256) -> Gf256 {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256::ZERO;
        }
        let t = &TABLES;
        Gf256(t.exp[t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize])
    }
}

impl MulAssign for Gf256 {
    fn mul_assign(&mut self, rhs: Gf256) {
        *self = *self * rhs;
    }
}

impl Div for Gf256 {
    type Output = Gf256;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: Gf256) -> Gf256 {
        self * rhs.inv().expect("division by zero in GF(256)")
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl From<u8> for Gf256 {
    fn from(b: u8) -> Self {
        Gf256(b)
    }
}

/// Evaluates the polynomial `coeffs\[0\] + coeffs\[1\]·x + ...` at `x` (Horner).
pub fn poly_eval(coeffs: &[Gf256], x: Gf256) -> Gf256 {
    let mut acc = Gf256::ZERO;
    for &c in coeffs.iter().rev() {
        acc = acc * x + c;
    }
    acc
}

/// Polynomial division: returns `(quotient, remainder)` of `num / den`.
///
/// # Panics
///
/// Panics if `den` is zero (all-zero coefficients).
pub fn poly_divmod(num: &[Gf256], den: &[Gf256]) -> (Vec<Gf256>, Vec<Gf256>) {
    let dd = den
        .iter()
        .rposition(|c| !c.is_zero())
        .expect("polynomial division by zero");
    let mut rem: Vec<Gf256> = num.to_vec();
    let nd = rem.iter().rposition(|c| !c.is_zero()).unwrap_or(0);
    if nd < dd {
        return (vec![Gf256::ZERO], rem);
    }
    let mut quot = vec![Gf256::ZERO; nd - dd + 1];
    let lead_inv = den[dd].inv().expect("non-zero leading coefficient");
    for i in (0..=nd - dd).rev() {
        let coef = rem[i + dd] * lead_inv;
        quot[i] = coef;
        if !coef.is_zero() {
            for j in 0..=dd {
                rem[i + j] -= coef * den[j];
            }
        }
    }
    rem.truncate(dd.max(1));
    (quot, rem)
}

/// Solves the linear system `A·x = b` over GF(256) by Gaussian elimination.
///
/// `a` is row-major with `rows × cols` entries; underdetermined free
/// variables are set to zero. Returns `None` if the system is inconsistent.
pub fn solve_linear(mut a: Vec<Vec<Gf256>>, mut b: Vec<Gf256>) -> Option<Vec<Gf256>> {
    let rows = a.len();
    if rows == 0 {
        return Some(Vec::new());
    }
    let cols = a[0].len();
    let mut pivot_of_col: Vec<Option<usize>> = vec![None; cols];
    let mut r = 0usize;
    for c in 0..cols {
        // find pivot
        let Some(pr) = (r..rows).find(|&i| !a[i][c].is_zero()) else {
            continue;
        };
        a.swap(r, pr);
        b.swap(r, pr);
        let inv = a[r][c].inv().expect("pivot is non-zero");
        for v in &mut a[r][c..cols] {
            *v *= inv;
        }
        b[r] *= inv;
        for i in 0..rows {
            if i != r && !a[i][c].is_zero() {
                let f = a[i][c];
                // Indexed loop: rows `i` and `r` are read/written
                // simultaneously, which iterator adapters cannot express
                // without cloning the pivot row.
                #[allow(clippy::needless_range_loop)]
                for j in c..cols {
                    a[i][j] = a[i][j] - f * a[r][j];
                }
                b[i] = b[i] - f * b[r];
            }
        }
        pivot_of_col[c] = Some(r);
        r += 1;
        if r == rows {
            break;
        }
    }
    // consistency: zero rows must have zero rhs
    if b[r..rows].iter().any(|v| !v.is_zero()) {
        return None;
    }
    let mut x = vec![Gf256::ZERO; cols];
    for c in 0..cols {
        if let Some(pr) = pivot_of_col[c] {
            // back-substitute free variables (all set to zero), so the pivot
            // value is just b minus contributions of later free columns —
            // which are zero. Reduced row echelon form makes this direct:
            x[c] = b[pr];
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_exhaustive_addition() {
        for a in 0..=255u8 {
            let ga = Gf256(a);
            assert_eq!(ga + Gf256::ZERO, ga);
            assert_eq!(ga + ga, Gf256::ZERO);
            for b in [0u8, 1, 7, 100, 255] {
                let gb = Gf256(b);
                assert_eq!(ga + gb, gb + ga);
                assert_eq!(ga - gb, ga + gb);
            }
        }
    }

    #[test]
    fn multiplication_identities() {
        for a in 0..=255u8 {
            let ga = Gf256(a);
            assert_eq!(ga * Gf256::ONE, ga);
            assert_eq!(ga * Gf256::ZERO, Gf256::ZERO);
        }
    }

    #[test]
    fn inverses_exhaustive() {
        assert!(Gf256::ZERO.inv().is_none());
        for a in 1..=255u8 {
            let ga = Gf256(a);
            assert_eq!(ga * ga.inv().unwrap(), Gf256::ONE, "inv failed for {a}");
        }
    }

    /// Product in GF(2)[x] / 0x11b by shift and xor — the field's definition,
    /// sharing nothing with the log/exp tables.
    fn shift_xor_mul(mut a: u8, mut b: u8) -> u8 {
        let mut product = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                product ^= a;
            }
            a = (((a as u16) << 1) ^ if a & 0x80 != 0 { POLY } else { 0 }) as u8;
            b >>= 1;
        }
        product
    }

    #[test]
    fn tables_match_the_field_definition() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!((Gf256(a) * Gf256(b)).0, shift_xor_mul(a, b), "{a} · {b}");
            }
            if a != 0 {
                assert_eq!(
                    shift_xor_mul(a, Gf256(a).inv().unwrap().0),
                    1,
                    "inverse of {a}"
                );
            }
            // k past 255 exercises the exponent reduction.
            let mut power = 1u8;
            for k in 0..600 {
                assert_eq!(Gf256(a).pow(k).0, power, "{a}^{k}");
                power = shift_xor_mul(power, a);
            }
        }
    }

    #[test]
    fn aes_reference_product() {
        assert_eq!(Gf256(0x57) * Gf256(0x83), Gf256(0xc1));
    }

    #[test]
    fn distributivity_sample() {
        for a in [3u8, 17, 91, 200] {
            for b in [5u8, 33, 128] {
                for c in [1u8, 77, 254] {
                    let (a, b, c) = (Gf256(a), Gf256(b), Gf256(c));
                    assert_eq!(a * (b + c), a * b + a * c);
                    assert_eq!((a * b) * c, a * (b * c));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 91, 255] {
            let ga = Gf256(a);
            let mut acc = Gf256::ONE;
            for k in 0..10 {
                assert_eq!(ga.pow(k), acc, "a = {a}, k = {k}");
                acc *= ga;
            }
        }
        assert_eq!(Gf256(7).pow(255), Gf256::ONE); // multiplicative order divides 255
    }

    #[test]
    fn poly_eval_horner() {
        // p(x) = 1 + 2x + 3x²  at x = 2: 1 ⊕ (2·2) ⊕ 3·4
        let p = [Gf256(1), Gf256(2), Gf256(3)];
        let x = Gf256(2);
        let expected = Gf256(1) + Gf256(2) * x + Gf256(3) * x * x;
        assert_eq!(poly_eval(&p, x), expected);
    }

    #[test]
    fn poly_divmod_roundtrip() {
        // (x² + 3x + 2) with den (x + 1): quotient·den + rem == num
        let num = vec![Gf256(2), Gf256(3), Gf256(1)];
        let den = vec![Gf256(1), Gf256(1)];
        let (q, r) = poly_divmod(&num, &den);
        // recompose: q*den + r
        let mut recomposed = vec![Gf256::ZERO; num.len()];
        for (i, &qc) in q.iter().enumerate() {
            for (j, &dc) in den.iter().enumerate() {
                recomposed[i + j] += qc * dc;
            }
        }
        for (i, &rc) in r.iter().enumerate() {
            recomposed[i] += rc;
        }
        assert_eq!(recomposed, num);
    }

    #[test]
    fn solve_linear_simple() {
        // x + y = 3, x = 1  (over GF(256): + is xor)
        let a = vec![vec![Gf256(1), Gf256(1)], vec![Gf256(1), Gf256(0)]];
        let b = vec![Gf256(3), Gf256(1)];
        let x = solve_linear(a, b).unwrap();
        assert_eq!(x, vec![Gf256(1), Gf256(2)]);
    }

    #[test]
    fn solve_linear_detects_inconsistency() {
        let a = vec![vec![Gf256(1), Gf256(1)], vec![Gf256(1), Gf256(1)]];
        let b = vec![Gf256(3), Gf256(4)];
        assert!(solve_linear(a, b).is_none());
    }

    #[test]
    fn solve_linear_underdetermined_sets_free_to_zero() {
        let a = vec![vec![Gf256(1), Gf256(1)]];
        let b = vec![Gf256(5)];
        let x = solve_linear(a, b).unwrap();
        assert_eq!(x, vec![Gf256(5), Gf256(0)]);
    }
}
