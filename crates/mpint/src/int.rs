//! Signed arbitrary-precision integers ([`Integer`]).
//!
//! The signed layer exists chiefly for the extended Euclidean algorithm
//! ([`crate::gcd`]), whose Bézout coefficients alternate in sign.

use crate::nat::Natural;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Mul, Neg, Sub};

/// Sign of an [`Integer`]. Zero is represented with [`Sign::Zero`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Zero.
    Zero,
    /// Strictly positive.
    Positive,
}

/// An arbitrary-precision signed integer (sign–magnitude form).
///
/// # Examples
///
/// ```
/// use mpint::{Integer, Natural};
///
/// let a = Integer::from(Natural::from_u64(5));
/// let b = Integer::from(Natural::from_u64(9));
/// assert_eq!((&a - &b).to_string(), "-4");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Integer {
    sign: Sign,
    mag: Natural,
}

impl Integer {
    /// The value zero.
    pub fn zero() -> Self {
        Integer {
            sign: Sign::Zero,
            mag: Natural::zero(),
        }
    }

    /// The value one.
    pub fn one() -> Self {
        Integer {
            sign: Sign::Positive,
            mag: Natural::one(),
        }
    }

    /// Builds an integer from a sign and magnitude. A zero magnitude
    /// always yields the zero integer regardless of `sign`.
    fn from_sign_magnitude(sign: Sign, mag: Natural) -> Self {
        if mag.is_zero() {
            Integer::zero()
        } else {
            let sign = match sign {
                Sign::Zero => Sign::Positive,
                s => s,
            };
            Integer { sign, mag }
        }
    }

    /// Creates an integer from an `i64`.
    fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Less => Integer {
                sign: Sign::Negative,
                mag: Natural::from_u64(v.unsigned_abs()),
            },
            Ordering::Equal => Integer::zero(),
            Ordering::Greater => Integer {
                sign: Sign::Positive,
                mag: Natural::from_u64(v as u64),
            },
        }
    }

    /// The sign of the integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude (absolute value).
    pub fn magnitude(&self) -> &Natural {
        &self.mag
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Converts to a [`Natural`] if non-negative.
    pub fn to_natural(&self) -> Option<Natural> {
        match self.sign {
            Sign::Negative => None,
            _ => Some(self.mag.clone()),
        }
    }

    /// Reduces modulo a positive natural, always returning a value in
    /// `[0, m)` (i.e. the mathematical residue, also for negatives).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem_euclid(&self, m: &Natural) -> Natural {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let r = &self.mag % m;
        match self.sign {
            Sign::Negative if !r.is_zero() => m - &r,
            _ => r,
        }
    }
}

impl From<Natural> for Integer {
    fn from(mag: Natural) -> Self {
        Integer::from_sign_magnitude(Sign::Positive, mag)
    }
}

impl From<i64> for Integer {
    fn from(v: i64) -> Self {
        Integer::from_i64(v)
    }
}

impl Neg for Integer {
    type Output = Integer;

    fn neg(self) -> Integer {
        let sign = match self.sign {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        };
        Integer {
            sign,
            mag: self.mag,
        }
    }
}

impl Add for &Integer {
    type Output = Integer;

    fn add(self, rhs: &Integer) -> Integer {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => Integer {
                sign: a,
                mag: &self.mag + &rhs.mag,
            },
            (a, _) => {
                // Opposite signs: subtract the smaller magnitude.
                match self.mag.cmp(&rhs.mag) {
                    Ordering::Equal => Integer::zero(),
                    Ordering::Greater => Integer {
                        sign: a,
                        mag: &self.mag - &rhs.mag,
                    },
                    Ordering::Less => Integer {
                        sign: if a == Sign::Positive {
                            Sign::Negative
                        } else {
                            Sign::Positive
                        },
                        mag: &rhs.mag - &self.mag,
                    },
                }
            }
        }
    }
}

impl Sub for &Integer {
    type Output = Integer;

    fn sub(self, rhs: &Integer) -> Integer {
        self + &(-rhs.clone())
    }
}

impl Mul for &Integer {
    type Output = Integer;

    fn mul(self, rhs: &Integer) -> Integer {
        if self.is_zero() || rhs.is_zero() {
            return Integer::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        Integer {
            sign,
            mag: &self.mag * &rhs.mag,
        }
    }
}

impl PartialOrd for Integer {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Integer {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(s: Sign) -> i8 {
            match s {
                Sign::Negative => -1,
                Sign::Zero => 0,
                Sign::Positive => 1,
            }
        }
        match rank(self.sign).cmp(&rank(other.sign)) {
            Ordering::Equal => match self.sign {
                Sign::Negative => other.mag.cmp(&self.mag),
                _ => self.mag.cmp(&other.mag),
            },
            o => o,
        }
    }
}

impl fmt::Debug for Integer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-{:?}", self.mag)
        } else {
            write!(f, "{:?}", self.mag)
        }
    }
}

impl fmt::Display for Integer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            write!(f, "-{}", self.mag)
        } else {
            write!(f, "{}", self.mag)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Integer {
        Integer::from_i64(v)
    }

    #[test]
    fn add_covers_all_sign_combinations() {
        for a in [-7i64, -1, 0, 1, 7] {
            for b in [-5i64, -1, 0, 1, 5] {
                assert_eq!(&int(a) + &int(b), int(a + b), "{a}+{b}");
                assert_eq!(&int(a) - &int(b), int(a - b), "{a}-{b}");
                assert_eq!(&int(a) * &int(b), int(a * b), "{a}*{b}");
            }
        }
    }

    #[test]
    fn ordering_matches_i64() {
        let vals = [-9i64, -2, 0, 3, 11];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(int(a).cmp(&int(b)), a.cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn rem_euclid_is_nonnegative() {
        let m = Natural::from_u64(7);
        assert_eq!(int(-1).rem_euclid(&m).to_u64(), Some(6));
        assert_eq!(int(-14).rem_euclid(&m).to_u64(), Some(0));
        assert_eq!(int(13).rem_euclid(&m).to_u64(), Some(6));
    }

    #[test]
    fn zero_magnitude_is_canonical() {
        let z = Integer::from_sign_magnitude(Sign::Negative, Natural::zero());
        assert!(z.is_zero());
        assert_eq!(z, Integer::zero());
        assert_eq!(z.to_string(), "0");
    }

    #[test]
    fn display_shows_sign() {
        assert_eq!(int(-42).to_string(), "-42");
        assert_eq!(int(42).to_string(), "42");
    }

    #[test]
    fn to_natural_rejects_negative() {
        assert!(int(-3).to_natural().is_none());
        assert_eq!(int(3).to_natural(), Some(Natural::from_u64(3)));
    }
}
