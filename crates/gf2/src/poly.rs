//! Polynomials over GF(2) with degree up to 63.

use std::fmt;

use crate::BitMatrix;

/// A polynomial over GF(2), with coefficient `i` stored in bit `i` of a
/// `u64`.
///
/// The SCFI construction works in the ring `F₂[α]` where `α` is the companion
/// matrix of `X⁸ + X² + 1` (the paper's choice, which — note — factors as
/// `(X⁴ + X + 1)²` and is therefore *not* irreducible). [`Gf2Poly`] provides
/// the polynomial arithmetic needed to build and reason about such rings:
/// carry-less multiplication, remainder, gcd, irreducibility testing and
/// companion matrices.
///
/// # Example
///
/// ```
/// use scfi_gf2::Gf2Poly;
///
/// let scfi = Gf2Poly::from_coeffs(0b1_0000_0101); // X^8 + X^2 + 1
/// let quartic = Gf2Poly::from_coeffs(0b1_0011); // X^4 + X + 1
/// assert!(!scfi.is_irreducible());
/// assert!(quartic.is_irreducible());
/// assert_eq!(quartic.mul(quartic), scfi); // (X^4+X+1)^2 = X^8+X^2+1
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Gf2Poly(u64);

impl Gf2Poly {
    /// The zero polynomial.
    pub const ZERO: Gf2Poly = Gf2Poly(0);
    /// The constant polynomial 1.
    pub const ONE: Gf2Poly = Gf2Poly(1);
    /// The monomial X.
    pub const X: Gf2Poly = Gf2Poly(2);

    /// Creates a polynomial from its coefficient mask (bit `i` ⇒ `Xⁱ`).
    pub fn from_coeffs(mask: u64) -> Self {
        Gf2Poly(mask)
    }

    /// The monomial `X^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k > 63`.
    pub fn monomial(k: u32) -> Self {
        assert!(k <= 63, "monomial degree {k} exceeds 63");
        Gf2Poly(1u64 << k)
    }

    /// Coefficient mask (bit `i` ⇒ `Xⁱ`).
    pub fn coeffs(self) -> u64 {
        self.0
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    pub fn degree(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some(63 - self.0.leading_zeros())
        }
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Polynomial addition (XOR of coefficient masks).
    #[allow(clippy::should_implement_trait)] // consuming-by-value ring ops, named for clarity
    pub fn add(self, other: Gf2Poly) -> Gf2Poly {
        Gf2Poly(self.0 ^ other.0)
    }

    /// Carry-less polynomial multiplication.
    ///
    /// # Panics
    ///
    /// Panics if the product degree would exceed 63.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Gf2Poly) -> Gf2Poly {
        if self.is_zero() || other.is_zero() {
            return Gf2Poly::ZERO;
        }
        let da = self.degree().expect("nonzero");
        let db = other.degree().expect("nonzero");
        assert!(da + db <= 63, "product degree {} exceeds 63", da + db);
        let mut acc = 0u64;
        let mut a = self.0;
        let mut shift = 0;
        while a != 0 {
            if a & 1 == 1 {
                acc ^= other.0 << shift;
            }
            a >>= 1;
            shift += 1;
        }
        Gf2Poly(acc)
    }

    /// Remainder of `self` modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, modulus: Gf2Poly) -> Gf2Poly {
        let dm = modulus.degree().expect("modulus must be nonzero");
        let mut r = self.0;
        while let Some(dr) = Gf2Poly(r).degree() {
            if dr < dm {
                break;
            }
            r ^= modulus.0 << (dr - dm);
        }
        Gf2Poly(r)
    }

    /// Modular multiplication `self · other mod modulus`.
    ///
    /// Unlike [`Gf2Poly::mul`], this never overflows as long as both inputs
    /// are already reduced and `modulus` has degree ≤ 32.
    pub fn mul_mod(self, other: Gf2Poly, modulus: Gf2Poly) -> Gf2Poly {
        let a = self.rem(modulus);
        let mut b = other.rem(modulus).0;
        let mut shifted = a;
        let mut acc = Gf2Poly::ZERO;
        while b != 0 {
            if b & 1 == 1 {
                acc = acc.add(shifted);
            }
            b >>= 1;
            // shifted = shifted * X mod modulus
            shifted = Gf2Poly(shifted.0 << 1).rem(modulus);
        }
        acc
    }

    /// Greatest common divisor (monic by construction over GF(2)).
    pub fn gcd(self, other: Gf2Poly) -> Gf2Poly {
        let (mut a, mut b) = (self, other);
        while !b.is_zero() {
            let r = a.rem(b);
            a = b;
            b = r;
        }
        a
    }

    /// Rabin irreducibility test.
    ///
    /// A degree-`n` polynomial `f` is irreducible over GF(2) iff
    /// `X^(2^n) ≡ X (mod f)` and `gcd(X^(2^(n/p)) − X, f) = 1` for every
    /// prime divisor `p` of `n`.
    pub fn is_irreducible(self) -> bool {
        let Some(n) = self.degree() else {
            return false;
        };
        if n == 0 {
            return false;
        }
        if n == 1 {
            return true;
        }
        // X^(2^n) mod f must equal X.
        let mut t = Gf2Poly::X.rem(self);
        for _ in 0..n {
            t = t.mul_mod(t, self);
        }
        if t != Gf2Poly::X.rem(self) {
            return false;
        }
        // For each prime p | n: gcd(X^(2^(n/p)) - X, f) == 1.
        for p in prime_divisors(n) {
            let e = n / p;
            let mut u = Gf2Poly::X.rem(self);
            for _ in 0..e {
                u = u.mul_mod(u, self);
            }
            let diff = u.add(Gf2Poly::X.rem(self));
            if self.gcd(diff).degree() != Some(0) {
                return false;
            }
        }
        true
    }

    /// Companion matrix of this polynomial (which must be monic of degree
    /// `n ≥ 1`): the `n × n` matrix implementing multiplication by `X`
    /// modulo `self` on coefficient vectors (bit `i` of the vector holds the
    /// coefficient of `Xⁱ`).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is constant or zero.
    pub fn companion_matrix(self) -> BitMatrix {
        let n = self.degree().expect("nonzero polynomial required") as usize;
        assert!(n >= 1, "companion matrix needs degree >= 1");
        // Multiplication by X: coefficient i moves to i+1; overflow of X^n
        // folds back through the modulus tail.
        BitMatrix::from_fn(n, n, |r, c| {
            if c + 1 == n {
                // X^(n-1) * X = X^n ≡ tail of modulus.
                (self.0 >> r) & 1 == 1
            } else {
                r == c + 1
            }
        })
    }

    /// Evaluates this polynomial at a square matrix `alpha`:
    /// `p(A) = Σ_{i : coeff_i = 1} Aⁱ`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not square.
    pub fn eval_matrix(self, alpha: &BitMatrix) -> BitMatrix {
        assert!(alpha.is_square(), "eval_matrix requires a square matrix");
        let n = alpha.rows();
        let mut acc = BitMatrix::zero(n, n);
        let mut power = BitMatrix::identity(n);
        let mut mask = self.0;
        while mask != 0 {
            if mask & 1 == 1 {
                acc = acc.add(&power);
            }
            mask >>= 1;
            if mask != 0 {
                power = power.mul_matrix(alpha);
            }
        }
        acc
    }
}

/// Prime divisors of `n`, ascending, without multiplicity.
fn prime_divisors(mut n: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

impl fmt::Debug for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2Poly({self})")
    }
}

impl fmt::Display for Gf2Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for i in (0..64).rev() {
            if (self.0 >> i) & 1 == 1 {
                if !first {
                    write!(f, " + ")?;
                }
                match i {
                    0 => write!(f, "1")?,
                    1 => write!(f, "X")?,
                    _ => write!(f, "X^{i}")?,
                }
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitVec;

    /// The SCFI paper's ring modulus X^8 + X^2 + 1.
    const SCFI_POLY: u64 = 0x105;
    /// The AES field modulus X^8 + X^4 + X^3 + X + 1.
    const AES_POLY: u64 = 0x11B;

    #[test]
    fn degree_and_zero() {
        assert_eq!(Gf2Poly::ZERO.degree(), None);
        assert_eq!(Gf2Poly::ONE.degree(), Some(0));
        assert_eq!(Gf2Poly::from_coeffs(SCFI_POLY).degree(), Some(8));
    }

    #[test]
    fn mul_is_carryless() {
        // (X+1)(X+1) = X^2 + 1 over GF(2).
        let xp1 = Gf2Poly::from_coeffs(0b11);
        assert_eq!(xp1.mul(xp1).coeffs(), 0b101);
    }

    #[test]
    fn scfi_poly_is_square_of_quartic() {
        let quartic = Gf2Poly::from_coeffs(0b1_0011);
        assert_eq!(quartic.mul(quartic).coeffs(), SCFI_POLY);
    }

    #[test]
    fn rem_reduces_degree() {
        let m = Gf2Poly::from_coeffs(AES_POLY);
        let big = Gf2Poly::monomial(8);
        // X^8 mod AES = X^4 + X^3 + X + 1 = 0x1B.
        assert_eq!(big.rem(m).coeffs(), 0x1B);
        assert!(Gf2Poly::from_coeffs(0x42).rem(m).coeffs() == 0x42);
    }

    #[test]
    fn mul_mod_matches_schoolbook() {
        let m = Gf2Poly::from_coeffs(AES_POLY);
        let a = Gf2Poly::from_coeffs(0x57);
        let b = Gf2Poly::from_coeffs(0x83);
        // Known AES example: 0x57 * 0x83 = 0xC1 in GF(2^8)/0x11B.
        assert_eq!(a.mul_mod(b, m).coeffs(), 0xC1);
    }

    #[test]
    fn gcd_works() {
        let quartic = Gf2Poly::from_coeffs(0b1_0011);
        let square = Gf2Poly::from_coeffs(SCFI_POLY);
        assert_eq!(square.gcd(quartic), quartic);
        let coprime = Gf2Poly::from_coeffs(0b111); // X^2+X+1
        assert_eq!(square.gcd(coprime).degree(), Some(0));
    }

    #[test]
    fn irreducibility_classification() {
        assert!(Gf2Poly::from_coeffs(AES_POLY).is_irreducible());
        assert!(!Gf2Poly::from_coeffs(SCFI_POLY).is_irreducible());
        assert!(Gf2Poly::from_coeffs(0b1_0011).is_irreducible()); // X^4+X+1
        assert!(Gf2Poly::from_coeffs(0b111).is_irreducible()); // X^2+X+1
        assert!(!Gf2Poly::from_coeffs(0b101).is_irreducible()); // X^2+1=(X+1)^2
        assert!(Gf2Poly::from_coeffs(0b10).is_irreducible()); // X
        assert!(!Gf2Poly::ONE.is_irreducible());
        assert!(!Gf2Poly::ZERO.is_irreducible());
        // X^8 + X^4 + X^3 + X^2 + 1 (0x11D) is also irreducible (CRC-8 poly).
        assert!(Gf2Poly::from_coeffs(0x11D).is_irreducible());
    }

    #[test]
    fn companion_matrix_multiplies_by_x() {
        let m = Gf2Poly::from_coeffs(AES_POLY);
        let alpha = m.companion_matrix();
        assert_eq!(alpha.rows(), 8);
        // alpha * e_i = e_{i+1} for i < 7.
        for i in 0..7 {
            let mut e = BitVec::zeros(8);
            e.set(i, true);
            let out = alpha.mul_vec(&e);
            let mut expect = BitVec::zeros(8);
            expect.set(i + 1, true);
            assert_eq!(out, expect, "shift of e_{i}");
        }
        // alpha * e_7 = coefficients of X^8 mod m = 0x1B.
        let mut e7 = BitVec::zeros(8);
        e7.set(7, true);
        assert_eq!(alpha.mul_vec(&e7).to_u64(), 0x1B);
        // alpha^255 = identity in the field case.
        assert_eq!(alpha.pow(255), BitMatrix::identity(8));
    }

    #[test]
    fn companion_matrix_agrees_with_mul_mod() {
        // Multiplying a polynomial by X via the companion matrix equals
        // mul_mod by X, for both the field and the SCFI ring modulus.
        for modulus in [AES_POLY, SCFI_POLY] {
            let m = Gf2Poly::from_coeffs(modulus);
            let alpha = m.companion_matrix();
            for val in [0x01u64, 0x80, 0x57, 0xFF, 0xA5] {
                let v = BitVec::from_u64(val, 8);
                let via_matrix = alpha.mul_vec(&v).to_u64();
                let via_poly = Gf2Poly::from_coeffs(val).mul_mod(Gf2Poly::X, m).coeffs();
                assert_eq!(via_matrix, via_poly, "modulus {modulus:#x} val {val:#x}");
            }
        }
    }

    #[test]
    fn eval_matrix_linearity() {
        let m = Gf2Poly::from_coeffs(SCFI_POLY);
        let alpha = m.companion_matrix();
        // p = X^2 + 1 evaluated at alpha equals alpha^2 + I.
        let p = Gf2Poly::from_coeffs(0b101);
        let expect = alpha.pow(2).add(&BitMatrix::identity(8));
        assert_eq!(p.eval_matrix(&alpha), expect);
        assert!(Gf2Poly::ZERO.eval_matrix(&alpha).is_zero());
    }

    #[test]
    fn scfi_companion_is_invertible_but_not_of_full_order() {
        // Even though X^8+X^2+1 is reducible, its companion matrix is
        // invertible (constant term 1) — the SCFI construction relies on
        // this.
        let alpha = Gf2Poly::from_coeffs(SCFI_POLY).companion_matrix();
        assert!(alpha.is_invertible());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Gf2Poly::from_coeffs(SCFI_POLY).to_string(), "X^8 + X^2 + 1");
        assert_eq!(Gf2Poly::ZERO.to_string(), "0");
        assert_eq!(Gf2Poly::from_coeffs(0b11).to_string(), "X + 1");
    }

    #[test]
    fn prime_divisors_basic() {
        assert_eq!(prime_divisors(8), vec![2]);
        assert_eq!(prime_divisors(12), vec![2, 3]);
        assert_eq!(prime_divisors(7), vec![7]);
        assert_eq!(prime_divisors(1), Vec::<u32>::new());
    }
}
