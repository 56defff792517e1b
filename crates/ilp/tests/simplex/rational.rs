//! Exact rational arithmetic on `i128`.
//!
//! The simplex oracle works over exact rationals so that optimality and
//! integrality decisions are never subject to floating-point noise. Values
//! are kept normalized (reduced by their gcd, denominator strictly
//! positive), which keeps intermediate magnitudes small for the
//! near-totally-unimodular systems produced by the ImaGen scheduler.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always reduced.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

const fn gcd(a: i128, b: i128) -> i128 {
    // Work on unsigned magnitudes: negating `i128::MIN` in signed space
    // overflows (silently wrapping in release builds), which used to make
    // gcd(i128::MIN, k) garbage. The result only exceeds `i128::MAX` when
    // both magnitudes are 2^127, which no reduced rational can produce.
    let mut a = a.unsigned_abs();
    let mut b = b.unsigned_abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    assert!(a <= i128::MAX as u128, "gcd magnitude overflows i128");
    a as i128
}

impl Rational {
    /// The rational number zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num / den`, reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if normalization overflows `i128` (only
    /// possible when a magnitude-`2^127` numerator or denominator must be
    /// negated, e.g. `new(1, i128::MIN)`).
    #[track_caller]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rational::ZERO;
        }
        if num == den {
            return Rational::ONE;
        }
        // Both operands are nonzero and distinct, so at least one
        // magnitude is below 2^127 and the gcd (≤ the smaller magnitude)
        // always fits an i128.
        let g = gcd(num, den);
        let (mut n, mut d) = (num / g, den / g);
        if d < 0 {
            n = n
                .checked_neg()
                .unwrap_or_else(|| panic!("rational overflow normalizing {num}/{den}"));
            d = d
                .checked_neg()
                .unwrap_or_else(|| panic!("rational overflow normalizing {num}/{den}"));
        }
        Rational { num: n, den: d }
    }

    /// Returns the numerator of the reduced form.
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Returns the (strictly positive) denominator of the reduced form.
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is an integer (denominator one).
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the numerator is `i128::MIN` (its magnitude is not
    /// representable).
    #[track_caller]
    pub fn abs(&self) -> Rational {
        let num = if self.num < 0 {
            self.num
                .checked_neg()
                .unwrap_or_else(|| panic!("rational abs overflow on {self}"))
        } else {
            self.num
        };
        Rational { num, den: self.den }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    #[track_caller]
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "reciprocal of zero");
        Rational::new(self.den, self.num)
    }

    /// Converts to `f64` (approximately; for reporting only).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Returns the integer value if the rational is integral.
    pub fn to_integer(self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Checked addition; `None` on `i128` overflow.
    pub fn checked_add(&self, rhs: &Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            // Integer fast path: no gcd normalization needed.
            return Some(Rational {
                num: self.num.checked_add(rhs.num)?,
                den: 1,
            });
        }
        let g = gcd(self.den, rhs.den);
        let lcm_l = self.den / g;
        let n = self
            .num
            .checked_mul(rhs.den / g)?
            .checked_add(rhs.num.checked_mul(lcm_l)?)?;
        let d = lcm_l.checked_mul(rhs.den)?;
        Some(Rational::new(n, d))
    }

    /// Checked subtraction; `None` on `i128` overflow.
    ///
    /// Computed directly (not as `a + (-b)`) so that subtracting a
    /// magnitude-`2^127` value works wherever the result is representable.
    pub fn checked_sub(&self, rhs: &Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            return Some(Rational {
                num: self.num.checked_sub(rhs.num)?,
                den: 1,
            });
        }
        let g = gcd(self.den, rhs.den);
        let lcm_l = self.den / g;
        let n = self
            .num
            .checked_mul(rhs.den / g)?
            .checked_sub(rhs.num.checked_mul(lcm_l)?)?;
        let d = lcm_l.checked_mul(rhs.den)?;
        Some(Rational::new(n, d))
    }

    /// Checked multiplication; `None` on `i128` overflow.
    pub fn checked_mul(&self, rhs: &Rational) -> Option<Rational> {
        if self.den == 1 && rhs.den == 1 {
            // Integer fast path: no cross-reduction needed.
            return Some(Rational {
                num: self.num.checked_mul(rhs.num)?,
                den: 1,
            });
        }
        // Cross-reduce before multiplying to minimize overflow risk.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let n = (self.num / g1).checked_mul(rhs.num / g2)?;
        let d = (self.den / g2).checked_mul(rhs.den / g1)?;
        Some(Rational::new(n, d))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i128> for Rational {
    fn from(v: i128) -> Self {
        Rational { num: v, den: 1 }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Self {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    #[track_caller]
    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(&rhs).expect("rational addition overflow")
    }
}

impl Sub for Rational {
    type Output = Rational;
    #[track_caller]
    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(&rhs)
            .expect("rational subtraction overflow")
    }
}

impl Mul for Rational {
    type Output = Rational;
    #[track_caller]
    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs)
            .expect("rational multiplication overflow")
    }
}

impl Div for Rational {
    type Output = Rational;
    #[track_caller]
    fn div(self, rhs: Rational) -> Rational {
        self.checked_mul(&rhs.recip())
            .expect("rational division overflow")
    }
}

impl Neg for Rational {
    type Output = Rational;
    #[track_caller]
    fn neg(self) -> Rational {
        Rational {
            num: self
                .num
                .checked_neg()
                .unwrap_or_else(|| panic!("rational negation overflow on {self}")),
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Signs first; magnitudes by continued-fraction descent, which is
        // exact at any magnitude (the previous cross-multiplication could
        // overflow an i128 for values near the representation limits).
        let (sa, sb) = (self.num.signum(), other.num.signum());
        if sa != sb {
            return sa.cmp(&sb);
        }
        if sa == 0 {
            return Ordering::Equal;
        }
        let mag = cmp_frac(
            self.num.unsigned_abs(),
            self.den.unsigned_abs(),
            other.num.unsigned_abs(),
            other.den.unsigned_abs(),
        );
        if sa > 0 {
            mag
        } else {
            mag.reverse()
        }
    }
}

/// Compares `an/ad` against `bn/bd` (all strictly positive) by comparing
/// integer parts and recursing on reciprocals of the fractional parts —
/// Euclid's algorithm run on both numbers in lockstep. Exact and
/// overflow-free for any `u128` operands.
fn cmp_frac(mut an: u128, mut ad: u128, mut bn: u128, mut bd: u128) -> Ordering {
    let mut flipped = false;
    loop {
        let (qa, ra) = (an / ad, an % ad);
        let (qb, rb) = (bn / bd, bn % bd);
        let ord = if qa != qb {
            qa.cmp(&qb)
        } else {
            match (ra == 0, rb == 0) {
                (true, true) => return Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => {
                    // ra/ad vs rb/bd flips under reciprocal: ad/ra vs bd/rb.
                    (an, ad, bn, bd) = (ad, ra, bd, rb);
                    flipped = !flipped;
                    continue;
                }
            }
        };
        return if flipped { ord.reverse() } else { ord };
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
