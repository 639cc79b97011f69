//! Primality testing and prime generation.
//!
//! The paper's complex-operations layer includes "prime number
//! generation, Miller–Rabin primality testing"; RSA and ElGamal key
//! generation are built on these routines. Each Miller–Rabin witness
//! runs on the same modular exponentiation as the rest of the layer
//! ([`mod_exp`] over [`NativeMpn`]).

use crate::modexp::{mod_exp, ExpCache};
use crate::ops::NativeMpn;
use crate::space::{CacheMode, CrtMode, ModExpConfig, MulAlgo, Radix};
use mpint::Natural;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xpar::Pool;

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Number of Miller–Rabin rounds used by the convenience functions; gives
/// an error probability below 4^-32.
const DEFAULT_ROUNDS: u32 = 32;

/// The exponentiation each witness runs: Montgomery products over
/// 32-bit limbs with a 4-bit window. A witness is used once, so
/// nothing is cached.
const WITNESS_EXP: ModExpConfig = ModExpConfig {
    mul: MulAlgo::Montgomery,
    window: 4,
    crt: CrtMode::None,
    radix: Radix::R32,
    cache: CacheMode::None,
};

/// Deterministically checks divisibility by the small-prime table.
/// Returns `Some(true/false)` when trial division settles the question,
/// `None` when Miller–Rabin is needed.
fn trial_division(n: &Natural) -> Option<bool> {
    if let Some(v) = n.to_u64() {
        if v < 2 {
            return Some(false);
        }
        for &p in &SMALL_PRIMES {
            let p = p as u64;
            if v == p {
                return Some(true);
            }
            if v % p == 0 {
                return Some(false);
            }
        }
        if v < 251 * 251 {
            return Some(true);
        }
        return None;
    }
    for &p in &SMALL_PRIMES {
        let r = n % &Natural::from_u32(p);
        if r.is_zero() {
            return Some(false);
        }
    }
    None
}

/// A single Miller–Rabin round with witness `a` (`2 <= a <= n-2`) for
/// an odd `n > 1`. Returns `false` if `a` proves `n` composite.
fn miller_rabin_round(
    n: &Natural,
    n_minus_1: &Natural,
    d: &Natural,
    s: usize,
    a: &Natural,
) -> bool {
    let mut ops = NativeMpn::new();
    let mut x = mod_exp(&mut ops, a, d, n, &WITNESS_EXP, &mut ExpCache::new())
        .expect("odd modulus above one");
    if x.is_one() || &x == n_minus_1 {
        return true;
    }
    for _ in 1..s {
        x = &(&x * &x) % n;
        if &x == n_minus_1 {
            return true;
        }
        if x.is_one() {
            return false;
        }
    }
    false
}

/// Miller–Rabin probabilistic primality test with `rounds` random
/// witnesses.
///
/// # Examples
///
/// ```
/// use mpint::Natural;
/// use pubkey::prime;
///
/// let mut rng = rand::rng();
/// let p = Natural::from_u64(0xffff_ffff_ffff_ffc5); // largest 64-bit prime
/// assert!(prime::is_probable_prime(&p, 16, &mut rng));
/// let composite = Natural::from_u64(0xffff_ffff); // 3 * 5 * 17 * 257 * 65537
/// assert!(!prime::is_probable_prime(&composite, 16, &mut rng));
/// ```
pub fn is_probable_prime<R: Rng + ?Sized>(n: &Natural, rounds: u32, rng: &mut R) -> bool {
    // Constant caller-RNG consumption: exactly one `u64` witness seed
    // per call, independent of `rounds` and of how early a witness
    // fails. The witnesses themselves come from a private derived
    // stream, so they can be drawn up front and checked in parallel.
    is_probable_prime_seeded(n, rounds, rng.random())
}

/// [`is_probable_prime`] with an explicit witness seed: the `rounds`
/// Miller–Rabin witnesses are derived deterministically from
/// `witness_seed`, drawn up front, and evaluated on an
/// environment-sized [`xpar::Pool`] in waves with early exit between
/// waves. The verdict is a pure function of `(n, rounds,
/// witness_seed)` — identical for any thread count.
fn is_probable_prime_seeded(n: &Natural, rounds: u32, witness_seed: u64) -> bool {
    if let Some(answer) = trial_division(n) {
        return answer;
    }
    if n.is_even() {
        return false;
    }
    let one = Natural::one();
    let n_minus_1 = n - &one;
    // n - 1 = d * 2^s with d odd.
    let mut s = 0usize;
    let mut d = n_minus_1.clone();
    while d.is_even() {
        d = d >> 1;
        s += 1;
    }
    let two = Natural::from_u64(2);
    let span = &n_minus_1 - &two; // witnesses in [2, n-2]
    let mut wrng = StdRng::seed_from_u64(witness_seed);
    let witnesses: Vec<Natural> = (0..rounds)
        .map(|_| &Natural::random_below(&mut wrng, &span) + &two)
        .collect();
    Pool::from_env().par_all(&witnesses, |_, a| {
        miller_rabin_round(n, &n_minus_1, &d, s, a)
    })
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Natural {
    assert!(bits >= 2, "primes need at least 2 bits");
    loop {
        let mut cand = Natural::random_bits(rng, bits);
        if cand.is_even() {
            cand = &cand + &Natural::one();
            if cand.bit_length() != bits {
                continue;
            }
        }
        if is_probable_prime(&cand, DEFAULT_ROUNDS, rng) {
            return cand;
        }
    }
}

/// Returns the smallest probable prime strictly greater than `n`.
pub fn next_prime<R: Rng + ?Sized>(n: &Natural, rng: &mut R) -> Natural {
    let mut cand = n + &Natural::one();
    if cand < Natural::from_u64(2) {
        return Natural::from_u64(2);
    }
    if cand.is_even() && cand != Natural::from_u64(2) {
        cand = &cand + &Natural::one();
    }
    loop {
        if is_probable_prime(&cand, DEFAULT_ROUNDS, rng) {
            return cand;
        }
        cand = &cand + &Natural::from_u64(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xdac_2002)
    }

    #[test]
    fn small_values_classified_correctly() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 97, 251, 257, 65537, 1_000_003];
        let composites = [0u64, 1, 4, 9, 255, 65535, 1_000_001, 251 * 257];
        for p in primes {
            assert!(
                is_probable_prime(&Natural::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !is_probable_prime(&Natural::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn known_large_prime_and_composite() {
        let mut r = rng();
        // 2^127 - 1 is a Mersenne prime.
        let m127 = (Natural::one() << 127) - Natural::one();
        assert!(is_probable_prime(&m127, 16, &mut r));
        // 2^128 - 1 = 3 * 5 * 17 * 257 * ... is composite but has no
        // factor caught by our 8-bit trial division beyond 3/5/17.
        let m128 = (Natural::one() << 128) - Natural::one();
        assert!(!is_probable_prime(&m128, 16, &mut r));
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 825_265] {
            assert!(
                !is_probable_prime(&Natural::from_u64(c), 16, &mut r),
                "carmichael {c}"
            );
        }
    }

    #[test]
    fn seeded_primality_is_deterministic_and_seed_driven() {
        // 2^127 - 1 is prime; 2^128 - 1 is composite past trial
        // division. Verdicts must be a pure function of the seed.
        let m127 = (Natural::one() << 127) - Natural::one();
        let m128 = (Natural::one() << 128) - Natural::one();
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert!(is_probable_prime_seeded(&m127, 16, seed), "seed {seed}");
            assert!(!is_probable_prime_seeded(&m128, 16, seed), "seed {seed}");
        }
        // The caller-facing wrapper consumes exactly one u64 whatever
        // the verdict or round count, keeping the caller's stream
        // independent of the test's internals.
        let mut a = rng();
        let mut b = rng();
        is_probable_prime(&m127, 16, &mut a); // prime: every round runs
        is_probable_prime(&m128, 2, &mut b); // composite: early exit
        let mut fresh = rng();
        let _ = fresh.random::<u64>();
        let expect = fresh.random::<u64>();
        assert_eq!(a.random::<u64>(), expect);
        assert_eq!(b.random::<u64>(), expect);
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut r = rng();
        for bits in [16usize, 64, 128, 256] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_length(), bits);
            assert!(p.is_odd() || p.to_u64() == Some(2));
        }
    }

    #[test]
    fn next_prime_walks_forward() {
        let mut r = rng();
        assert_eq!(next_prime(&Natural::zero(), &mut r).to_u64(), Some(2));
        assert_eq!(next_prime(&Natural::from_u64(2), &mut r).to_u64(), Some(3));
        assert_eq!(
            next_prime(&Natural::from_u64(13), &mut r).to_u64(),
            Some(17)
        );
        assert_eq!(
            next_prime(&Natural::from_u64(65536), &mut r).to_u64(),
            Some(65537)
        );
    }
}
