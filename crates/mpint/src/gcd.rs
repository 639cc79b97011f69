//! Greatest common divisor, extended Euclid and modular inverse.
//!
//! The paper's call graph for optimized modular exponentiation (Fig. 4)
//! includes `mpz_gcdext`, used to derive Montgomery constants and CRT
//! coefficients; this module provides those routines.

use crate::int::Integer;
use crate::nat::Natural;

/// Computes `gcd(a, b)` by the Euclidean algorithm.
///
/// # Examples
///
/// ```
/// use mpint::{gcd, Natural};
///
/// let g = gcd::gcd(&Natural::from_u64(48), &Natural::from_u64(36));
/// assert_eq!(g, Natural::from_u64(12));
/// ```
pub fn gcd(a: &Natural, b: &Natural) -> Natural {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y = g = gcd(a, b)`.
///
/// # Examples
///
/// ```
/// use mpint::{gcd, Integer, Natural};
///
/// let a = Natural::from_u64(240);
/// let b = Natural::from_u64(46);
/// let (g, x, y) = gcd::gcd_ext(&a, &b);
/// assert_eq!(g, Natural::from_u64(2));
/// let lhs = &(&Integer::from(a) * &x) + &(&Integer::from(b) * &y);
/// assert_eq!(lhs, Integer::from(g));
/// ```
pub fn gcd_ext(a: &Natural, b: &Natural) -> (Natural, Integer, Integer) {
    let mut r0 = Integer::from(a.clone());
    let mut r1 = Integer::from(b.clone());
    let mut s0 = Integer::one();
    let mut s1 = Integer::zero();
    let mut t0 = Integer::zero();
    let mut t1 = Integer::one();
    while !r1.is_zero() {
        let r0n = r0.magnitude();
        let r1n = r1.magnitude();
        let (q, _) = r0n.div_rem(r1n);
        let q = Integer::from(q);
        let r2 = &r0 - &(&q * &r1);
        let s2 = &s0 - &(&q * &s1);
        let t2 = &t0 - &(&q * &t1);
        r0 = r1;
        r1 = r2;
        s0 = s1;
        s1 = s2;
        t0 = t1;
        t1 = t2;
    }
    let g = r0
        .to_natural()
        .expect("gcd remainder is nonnegative by construction");
    (g, s0, t0)
}

/// Computes the modular inverse of `a` modulo `m`, if it exists
/// (`gcd(a, m) == 1`). The result is in `[0, m)`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_inverse(a: &Natural, m: &Natural) -> Option<Natural> {
    assert!(!m.is_zero(), "modulus must be nonzero");
    if m.is_one() {
        return Some(Natural::zero());
    }
    let (g, x, _) = gcd_ext(&(a % m), m);
    if !g.is_one() {
        return None;
    }
    Some(x.rem_euclid(m))
}

/// Binary (Stein) gcd — division-free variant used when the target
/// platform lacks a fast divider.
pub fn gcd_binary(a: &Natural, b: &Natural) -> Natural {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let mut a = a.clone();
    let mut b = b.clone();
    let mut shift = 0usize;
    while a.is_even() && b.is_even() {
        a = a >> 1;
        b = b >> 1;
        shift += 1;
    }
    while a.is_even() {
        a = a >> 1;
    }
    loop {
        while b.is_even() {
            b = b >> 1;
        }
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b = &b - &a;
        if b.is_zero() {
            break;
        }
    }
    a << shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u64) -> Natural {
        Natural::from_u64(v)
    }

    #[test]
    fn gcd_matches_euclid_on_small_values() {
        fn ref_gcd(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                let r = a % b;
                a = b;
                b = r;
            }
            a
        }
        for a in [0u64, 1, 12, 35, 100, 97] {
            for b in [0u64, 1, 18, 35, 64, 89] {
                assert_eq!(gcd(&nat(a), &nat(b)).to_u64(), Some(ref_gcd(a, b)));
                if a != 0 || b != 0 {
                    assert_eq!(gcd_binary(&nat(a), &nat(b)).to_u64(), Some(ref_gcd(a, b)));
                }
            }
        }
    }

    #[test]
    fn gcd_ext_bezout_identity() {
        let a = Natural::from_hex_str("ffeeddccbbaa99887766554433221101").unwrap();
        let b = Natural::from_hex_str("fedcba9876543210").unwrap();
        let (g, x, y) = gcd_ext(&a, &b);
        let lhs = &(&Integer::from(a.clone()) * &x) + &(&Integer::from(b.clone()) * &y);
        assert_eq!(lhs, Integer::from(g.clone()));
        assert!((&a % &g).is_zero());
        assert!((&b % &g).is_zero());
    }

    #[test]
    fn mod_inverse_works_for_coprime() {
        let m = nat(1_000_003); // prime
        for a in [2u64, 3, 65537, 999_999] {
            let inv = mod_inverse(&nat(a), &m).unwrap();
            let prod = &(&nat(a) * &inv) % &m;
            assert!(prod.is_one(), "a={a}");
        }
    }

    #[test]
    fn mod_inverse_rejects_non_coprime() {
        assert!(mod_inverse(&nat(6), &nat(9)).is_none());
        assert!(mod_inverse(&nat(0), &nat(7)).is_none());
    }

    #[test]
    fn mod_inverse_modulus_one() {
        assert_eq!(mod_inverse(&nat(5), &nat(1)), Some(Natural::zero()));
    }
}
