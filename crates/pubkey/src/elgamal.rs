//! ElGamal encryption over `Z_p*`.
//!
//! The paper lists ElGamal alongside RSA as a supported public-key
//! primitive of the platform. Operations route through the same
//! configurable modular-exponentiation engine, so the design-space
//! machinery applies unchanged.

use crate::modexp::{mod_exp, ExpCache, ModExpError};
use crate::ops::MpnOps;
use crate::prime;
use crate::space::ModExpConfig;
use mpint::Natural;
use rand::Rng;
use std::fmt;

/// Public parameters: a prime modulus and a generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Params {
    /// Prime modulus `p`.
    pub p: Natural,
    /// Generator `g` of (a large subgroup of) `Z_p*`.
    pub g: Natural,
}

impl Params {
    /// Generates parameters with a safe prime `p = 2q + 1` of `bits`
    /// bits and `g = 4` (a generator of the order-`q` subgroup).
    ///
    /// # Panics
    ///
    /// Panics if `bits < 16`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Params {
        assert!(bits >= 16);
        loop {
            let q = prime::gen_prime(bits - 1, rng);
            let p = &(&q * &Natural::from_u64(2)) + &Natural::one();
            if p.bit_length() == bits && prime::is_probable_prime(&p, 16, rng) {
                // 4 = 2² is a quadratic residue, hence generates the
                // order-q subgroup.
                return Params {
                    p,
                    g: Natural::from_u64(4),
                };
            }
        }
    }
}

/// An ElGamal key pair: secret `x`, public `y = g^x mod p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    /// The shared parameters.
    pub params: Params,
    /// Secret exponent.
    pub x: Natural,
    /// Public value `g^x mod p`.
    pub y: Natural,
}

/// An ElGamal ciphertext `(c1, c2) = (g^k, m·y^k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    /// `g^k mod p`.
    pub c1: Natural,
    /// `m · y^k mod p`.
    pub c2: Natural,
}

/// Errors from ElGamal operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElGamalError {
    /// The message is not in `[1, p)`.
    MessageOutOfRange,
    /// The underlying exponentiation failed.
    ModExp(ModExpError),
}

impl fmt::Display for ElGamalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElGamalError::MessageOutOfRange => write!(f, "message must lie in [1, p)"),
            ElGamalError::ModExp(e) => write!(f, "modular exponentiation failed: {e}"),
        }
    }
}

impl std::error::Error for ElGamalError {}

impl From<ModExpError> for ElGamalError {
    fn from(e: ModExpError) -> Self {
        ElGamalError::ModExp(e)
    }
}

impl KeyPair {
    /// Generates a key pair under the given parameters.
    pub fn generate<R, O>(
        params: Params,
        rng: &mut R,
        ops: &mut O,
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<KeyPair, ElGamalError>
    where
        R: Rng + ?Sized,
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
    {
        let two = Natural::from_u64(2);
        let span = &params.p - &two;
        let x = &Natural::random_below(rng, &span) + &Natural::one(); // [1, p-2]
        let y = mod_exp(ops, &params.g, &x, &params.p, cfg, cache)?;
        Ok(KeyPair { params, x, y })
    }

    /// Encrypts `m ∈ [1, p)` with an ephemeral exponent.
    ///
    /// # Errors
    ///
    /// Returns [`ElGamalError::MessageOutOfRange`] or a propagated
    /// exponentiation error.
    pub fn encrypt<R, O>(
        &self,
        m: &Natural,
        rng: &mut R,
        ops: &mut O,
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<Ciphertext, ElGamalError>
    where
        R: Rng + ?Sized,
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
    {
        if m.is_zero() || m >= &self.params.p {
            return Err(ElGamalError::MessageOutOfRange);
        }
        let two = Natural::from_u64(2);
        let span = &self.params.p - &two;
        let k = &Natural::random_below(rng, &span) + &Natural::one();
        let c1 = mod_exp(ops, &self.params.g, &k, &self.params.p, cfg, cache)?;
        let yk = mod_exp(ops, &self.y, &k, &self.params.p, cfg, cache)?;
        let c2 = &(m * &yk) % &self.params.p;
        Ok(Ciphertext { c1, c2 })
    }

    /// Decrypts a ciphertext: `m = c2 · (c1^x)⁻¹ mod p`, computed as
    /// `c2 · c1^(p-1-x)` to avoid an explicit inverse.
    ///
    /// # Errors
    ///
    /// Returns a propagated exponentiation error.
    pub fn decrypt<O>(
        &self,
        ct: &Ciphertext,
        ops: &mut O,
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<Natural, ElGamalError>
    where
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
    {
        let exp = &(&self.params.p - &Natural::one()) - &self.x;
        let s_inv = mod_exp(ops, &ct.c1, &exp, &self.params.p, cfg, cache)?;
        Ok(&(&ct.c2 * &s_inv) % &self.params.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NativeMpn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixed_params() -> Params {
        // p = 2·q + 1 with q prime: p = 0xE3 * ... use a known safe
        // prime: p = 1907 (q = 953 prime), g = 4 for tiny tests... use a
        // larger known safe prime 2^89 - ... simpler: generate once with
        // a seeded rng at 64 bits.
        let mut rng = StdRng::seed_from_u64(99);
        Params::generate(64, &mut rng)
    }

    #[test]
    fn roundtrip() {
        let params = fixed_params();
        let mut rng = StdRng::seed_from_u64(7);
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let cfg = ModExpConfig::optimized();
        let kp = KeyPair::generate(params, &mut rng, &mut ops, &cfg, &mut cache).unwrap();
        for m in [1u64, 2, 12345, 0xffff_ffff] {
            let m = Natural::from_u64(m);
            let ct = kp
                .encrypt(&m, &mut rng, &mut ops, &cfg, &mut cache)
                .unwrap();
            assert_ne!(ct.c2, m);
            let back = kp.decrypt(&ct, &mut ops, &cfg, &mut cache).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let params = fixed_params();
        let mut rng = StdRng::seed_from_u64(8);
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let cfg = ModExpConfig::baseline();
        let kp = KeyPair::generate(params, &mut rng, &mut ops, &cfg, &mut cache).unwrap();
        let m = Natural::from_u64(777);
        let a = kp
            .encrypt(&m, &mut rng, &mut ops, &cfg, &mut cache)
            .unwrap();
        let b = kp
            .encrypt(&m, &mut rng, &mut ops, &cfg, &mut cache)
            .unwrap();
        assert_ne!(a, b, "fresh ephemeral key per encryption");
    }

    #[test]
    fn message_range_validated() {
        let params = fixed_params();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let cfg = ModExpConfig::baseline();
        let kp = KeyPair::generate(params, &mut rng, &mut ops, &cfg, &mut cache).unwrap();
        assert!(matches!(
            kp.encrypt(&Natural::zero(), &mut rng, &mut ops, &cfg, &mut cache),
            Err(ElGamalError::MessageOutOfRange)
        ));
        let p = kp.params.p.clone();
        assert!(matches!(
            kp.encrypt(&p, &mut rng, &mut ops, &cfg, &mut cache),
            Err(ElGamalError::MessageOutOfRange)
        ));
    }

    #[test]
    fn params_are_safe_prime_shaped() {
        let p = fixed_params();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(prime::is_probable_prime(&p.p, 16, &mut rng));
        let q = &(&p.p - &Natural::one()) / &Natural::from_u64(2);
        assert!(prime::is_probable_prime(&q, 16, &mut rng));
    }
}
