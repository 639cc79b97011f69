//! Property-based tests for the multi-precision layers.

use mpint::{gcd, karatsuba, monty::MontyCtx, mpn, Natural};
use proptest::prelude::*;

/// Strategy: a Natural of up to `max_limbs` random limbs.
fn natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    prop::collection::vec(any::<u32>(), 0..=max_limbs).prop_map(Natural::from_limbs)
}

/// Strategy: a nonzero Natural.
fn natural_nonzero(max_limbs: usize) -> impl Strategy<Value = Natural> {
    natural(max_limbs).prop_map(|n| if n.is_zero() { Natural::one() } else { n })
}

/// Strategy: an odd Natural > 1 (valid Montgomery modulus).
fn odd_modulus(max_limbs: usize) -> impl Strategy<Value = Natural> {
    natural_nonzero(max_limbs).prop_map(|n| {
        let n = if n.is_even() { &n + &Natural::one() } else { n };
        if n.is_one() {
            Natural::from_u64(3)
        } else {
            n
        }
    })
}

proptest! {
    #[test]
    fn add_commutes(a in natural(12), b in natural(12)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_then_sub_roundtrips(a in natural(12), b in natural(12)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutes_and_distributes(a in natural(8), b in natural(8), c in natural(8)) {
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn divrem_reconstructs(a in natural(12), d in natural_nonzero(6)) {
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn karatsuba_equals_basecase(a in prop::collection::vec(any::<u32>(), 1..80),
                                 b in prop::collection::vec(any::<u32>(), 1..80)) {
        let k = karatsuba::mul(&a, &b);
        let mut s = vec![0u32; a.len() + b.len()];
        mpn::mul_basecase(&mut s, &a, &b);
        prop_assert_eq!(k, s);
    }

    #[test]
    fn shifts_are_multiplication_by_powers_of_two(a in natural(8), s in 0usize..200) {
        let shifted = a.clone() << s;
        let back = shifted.clone() >> s;
        prop_assert_eq!(back, a.clone());
        // Shifting left then dividing by 2^s is exact.
        let (q, r) = shifted.div_rem(&(Natural::one() << s));
        prop_assert_eq!(q, a);
        prop_assert!(r.is_zero());
    }

    #[test]
    fn montgomery_mul_matches_divrem(m in odd_modulus(8), a in natural(8), b in natural(8)) {
        let ctx = MontyCtx::new(&m).unwrap();
        let ar = &a % &m;
        let br = &b % &m;
        let got = ctx.from_monty(&ctx.mul(&ctx.to_monty(&ar), &ctx.to_monty(&br)));
        prop_assert_eq!(got, &(&ar * &br) % &m);
    }

    #[test]
    fn pow_mod_strategies_agree(m in odd_modulus(4), b in natural(4), e in natural(2)) {
        let reference = b.pow_mod(&e, &m);
        let monty = MontyCtx::new(&m).unwrap().pow_mod(&b, &e);
        prop_assert_eq!(&reference, &monty);
    }

    #[test]
    fn gcd_divides_both_and_bezout_holds(a in natural_nonzero(6), b in natural_nonzero(6)) {
        let (g, x, y) = gcd::gcd_ext(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
        use mpint::Integer;
        let lhs = &(&Integer::from(a.clone()) * &x) + &(&Integer::from(b.clone()) * &y);
        prop_assert_eq!(lhs, Integer::from(g.clone()));
        prop_assert_eq!(gcd::gcd_binary(&a, &b), g);
    }

    #[test]
    fn mod_inverse_really_inverts(m in odd_modulus(5), a in natural_nonzero(5)) {
        let ar = &a % &m;
        prop_assume!(!ar.is_zero());
        if let Some(inv) = gcd::mod_inverse(&ar, &m) {
            prop_assert!((&(&ar * &inv) % &m).is_one());
        } else {
            prop_assert!(!gcd::gcd(&ar, &m).is_one());
        }
    }

    #[test]
    fn decimal_roundtrip(a in natural(10)) {
        let s = a.to_string();
        prop_assert_eq!(Natural::from_decimal_str(&s).unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip(a in natural(10)) {
        prop_assert_eq!(Natural::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn radix16_limbs_preserve_value(a in natural(10)) {
        let l16: Vec<u16> = a.to_radix_limbs();
        prop_assert_eq!(Natural::from_radix_limbs(&l16), a);
    }

    #[test]
    fn mpn_divrem_1_matches_full_division(a in natural(10), d in 1u32..) {
        let dn = Natural::from_u32(d);
        let limbs = a.limbs().to_vec();
        let mut q = vec![0u32; limbs.len()];
        let r = mpn::divrem_1(&mut q, &limbs, d);
        let (qq, rr) = a.div_rem(&dn);
        prop_assert_eq!(Natural::from_limbs(q), qq);
        prop_assert_eq!(Natural::from_u32(r), rr);
    }
}
