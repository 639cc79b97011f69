//! RSA key generation, encryption and decryption.
//!
//! The paper's headline public-key numbers (Table 1: RSA encryption
//! 10.8×, decryption 66.4×) come from 1024-bit RSA with `e = 65537`:
//! the optimized platform pairs the explored modular-exponentiation
//! configuration (Montgomery + windows + CRT) with custom instructions,
//! while the baseline runs schoolbook multiply/divide binary
//! exponentiation without CRT.

use crate::modexp::{mod_exp, mod_exp_crt, CrtKey, ExpCache, ModExpError};
use crate::ops::MpnOps;
use crate::prime;
use crate::space::{CrtMode, ModExpConfig};
use mpint::{gcd, Natural};
use rand::Rng;
use std::fmt;

/// The conventional public exponent.
const E_65537: u64 = 65_537;

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    /// Modulus.
    pub n: Natural,
    /// Public exponent.
    pub e: Natural,
}

/// An RSA private key with CRT components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrivateKey {
    /// Modulus.
    pub n: Natural,
    /// Public exponent.
    pub e: Natural,
    /// Private exponent.
    pub d: Natural,
    /// CRT material (`p`, `q`, `dp`, `dq`, `qinv`).
    pub crt: CrtKey,
}

/// An RSA key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    /// The public half.
    pub public: PublicKey,
    /// The private half.
    pub private: PrivateKey,
}

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// The message is numerically not below the modulus.
    MessageTooLarge,
    /// The underlying exponentiation failed.
    ModExp(ModExpError),
    /// Padding was requested for data that does not fit the modulus.
    DataTooLong {
        /// Bytes supplied.
        data: usize,
        /// Maximum payload for this modulus.
        max: usize,
    },
    /// PKCS#1 v1.5 unpadding failed.
    BadPadding,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::MessageTooLarge => write!(f, "message representative exceeds the modulus"),
            RsaError::ModExp(e) => write!(f, "modular exponentiation failed: {e}"),
            RsaError::DataTooLong { data, max } => {
                write!(
                    f,
                    "data of {data} bytes exceeds the {max}-byte payload limit"
                )
            }
            RsaError::BadPadding => write!(f, "invalid pkcs#1 v1.5 padding"),
        }
    }
}

impl std::error::Error for RsaError {}

impl From<ModExpError> for RsaError {
    fn from(e: ModExpError) -> Self {
        RsaError::ModExp(e)
    }
}

impl KeyPair {
    /// Generates a key pair with a modulus of exactly `bits` bits and
    /// `e = 65537`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 32`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> KeyPair {
        assert!(bits >= 32, "modulus too small");
        let e = Natural::from_u64(E_65537);
        loop {
            let p = prime::gen_prime(bits / 2, rng);
            let q = prime::gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = &p * &q;
            if n.bit_length() != bits {
                continue;
            }
            let one = Natural::one();
            let phi = &(&p - &one) * &(&q - &one);
            let d = match gcd::mod_inverse(&e, &phi) {
                Some(d) => d,
                None => continue, // e not coprime with phi; rare
            };
            let dp = &d % &(&p - &one);
            let dq = &d % &(&q - &one);
            let qinv = gcd::mod_inverse(&q, &p).expect("p != q primes");
            let public = PublicKey {
                n: n.clone(),
                e: e.clone(),
            };
            let private = PrivateKey {
                n,
                e: e.clone(),
                d,
                crt: CrtKey { p, q, dp, dq, qinv },
            };
            return KeyPair { public, private };
        }
    }
}

impl PublicKey {
    /// Raw (textbook) encryption: `m^e mod n` under a design-space
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLarge`] when `m >= n`, or a
    /// propagated exponentiation error.
    pub fn encrypt_raw<O>(
        &self,
        ops: &mut O,
        m: &Natural,
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<Natural, RsaError>
    where
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
    {
        if m >= &self.n {
            return Err(RsaError::MessageTooLarge);
        }
        // Encryption has no CRT (the factorization is private).
        let mut cfg = *cfg;
        cfg.crt = CrtMode::None;
        Ok(mod_exp(ops, m, &self.e, &self.n, &cfg, cache)?)
    }

    /// PKCS#1 v1.5 block-type-2 encryption of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::DataTooLong`] if `data` exceeds the payload
    /// limit (modulus bytes − 11), or a propagated exponentiation error.
    pub fn encrypt_pkcs1<O, R>(
        &self,
        ops: &mut O,
        rng: &mut R,
        data: &[u8],
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<Vec<u8>, RsaError>
    where
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
        R: Rng + ?Sized,
    {
        let k = self.n.bit_length().div_ceil(8);
        if data.len() + 11 > k {
            return Err(RsaError::DataTooLong {
                data: data.len(),
                max: k - 11,
            });
        }
        // 0x00 0x02 <nonzero padding> 0x00 <data>
        let mut block = Vec::with_capacity(k);
        block.push(0x00);
        block.push(0x02);
        for _ in 0..k - 3 - data.len() {
            loop {
                let b: u8 = rng.random();
                if b != 0 {
                    block.push(b);
                    break;
                }
            }
        }
        block.push(0x00);
        block.extend_from_slice(data);
        let m = Natural::from_bytes_be(&block);
        let c = self.encrypt_raw(ops, &m, cfg, cache)?;
        let mut out = c.to_bytes_be();
        while out.len() < k {
            out.insert(0, 0);
        }
        Ok(out)
    }
}

impl PrivateKey {
    /// Raw (textbook) decryption: `c^d mod n`, honoring the
    /// configuration's CRT mode.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::MessageTooLarge`] when `c >= n`, or a
    /// propagated exponentiation error.
    pub fn decrypt_raw<O>(
        &self,
        ops: &mut O,
        c: &Natural,
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<Natural, RsaError>
    where
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
    {
        if c >= &self.n {
            return Err(RsaError::MessageTooLarge);
        }
        match cfg.crt {
            CrtMode::None => Ok(mod_exp(ops, c, &self.d, &self.n, cfg, cache)?),
            _ => Ok(mod_exp_crt(ops, c, &self.crt, cfg, cache)?),
        }
    }

    /// PKCS#1 v1.5 decryption (inverse of
    /// [`PublicKey::encrypt_pkcs1`]).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError::BadPadding`] when the decrypted block is not
    /// a valid type-2 block, or a propagated exponentiation error.
    pub fn decrypt_pkcs1<O>(
        &self,
        ops: &mut O,
        ciphertext: &[u8],
        cfg: &ModExpConfig,
        cache: &mut ExpCache,
    ) -> Result<Vec<u8>, RsaError>
    where
        O: MpnOps<u16> + MpnOps<u32> + ?Sized,
    {
        let c = Natural::from_bytes_be(ciphertext);
        let m = self.decrypt_raw(ops, &c, cfg, cache)?;
        let k = self.n.bit_length().div_ceil(8);
        let mut block = m.to_bytes_be();
        while block.len() < k - 1 {
            block.insert(0, 0);
        }
        // block should now be 0x02 || PS || 0x00 || data (leading 0x00
        // stripped by the integer conversion).
        if block.first() != Some(&0x02) {
            return Err(RsaError::BadPadding);
        }
        let sep = block
            .iter()
            .skip(1)
            .position(|&b| b == 0)
            .ok_or(RsaError::BadPadding)?;
        if sep < 8 {
            return Err(RsaError::BadPadding); // PS must be >= 8 bytes
        }
        Ok(block[sep + 2..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NativeMpn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5a5a)
    }

    fn small_key() -> KeyPair {
        KeyPair::generate(256, &mut rng())
    }

    #[test]
    fn generated_key_is_consistent() {
        let kp = small_key();
        assert_eq!(kp.public.n, kp.private.n);
        assert_eq!(kp.private.n, &kp.private.crt.p * &kp.private.crt.q);
        assert_eq!(kp.public.n.bit_length(), 256);
        // e*d ≡ 1 mod phi
        let one = Natural::one();
        let phi = &(&kp.private.crt.p - &one) * &(&kp.private.crt.q - &one);
        let ed = &kp.public.e * &kp.private.d;
        assert!((&ed % &phi).is_one());
    }

    #[test]
    fn raw_roundtrip_all_crt_modes() {
        let kp = small_key();
        let msg = Natural::from_u64(0xdead_beef_cafe_babe);
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let c = kp
            .public
            .encrypt_raw(&mut ops, &msg, &ModExpConfig::optimized(), &mut cache)
            .unwrap();
        assert_ne!(c, msg);
        for crt in CrtMode::ALL {
            let mut cfg = ModExpConfig::optimized();
            cfg.crt = crt;
            let m = kp
                .private
                .decrypt_raw(&mut ops, &c, &cfg, &mut cache)
                .unwrap();
            assert_eq!(m, msg, "crt {crt}");
        }
    }

    #[test]
    fn baseline_config_also_roundtrips() {
        let kp = small_key();
        let msg = Natural::from_u64(42);
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let cfg = ModExpConfig::baseline();
        let c = kp
            .public
            .encrypt_raw(&mut ops, &msg, &cfg, &mut cache)
            .unwrap();
        let m = kp
            .private
            .decrypt_raw(&mut ops, &c, &cfg, &mut cache)
            .unwrap();
        assert_eq!(m, msg);
    }

    #[test]
    fn message_larger_than_modulus_rejected() {
        let kp = small_key();
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let too_big = &kp.public.n + &Natural::one();
        assert_eq!(
            kp.public
                .encrypt_raw(&mut ops, &too_big, &ModExpConfig::baseline(), &mut cache),
            Err(RsaError::MessageTooLarge)
        );
    }

    #[test]
    fn pkcs1_roundtrip() {
        let kp = small_key();
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let cfg = ModExpConfig::optimized();
        let mut r = rng();
        let data = b"premaster secret";
        let ct = kp
            .public
            .encrypt_pkcs1(&mut ops, &mut r, data, &cfg, &mut cache)
            .unwrap();
        assert_eq!(ct.len(), 32); // 256-bit modulus
        let pt = kp
            .private
            .decrypt_pkcs1(&mut ops, &ct, &cfg, &mut cache)
            .unwrap();
        assert_eq!(pt, data);
    }

    #[test]
    fn pkcs1_rejects_oversized_payload() {
        let kp = small_key();
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let mut r = rng();
        let data = [0u8; 30]; // 32-byte modulus → max 21 bytes
        assert!(matches!(
            kp.public.encrypt_pkcs1(
                &mut ops,
                &mut r,
                &data,
                &ModExpConfig::baseline(),
                &mut cache
            ),
            Err(RsaError::DataTooLong { .. })
        ));
    }

    #[test]
    fn pkcs1_detects_corruption() {
        let kp = small_key();
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let cfg = ModExpConfig::optimized();
        let mut r = rng();
        let mut ct = kp
            .public
            .encrypt_pkcs1(&mut ops, &mut r, b"hello", &cfg, &mut cache)
            .unwrap();
        ct[5] ^= 0xff;
        // Either padding fails or the payload differs.
        match kp.private.decrypt_pkcs1(&mut ops, &ct, &cfg, &mut cache) {
            Err(RsaError::BadPadding) => {}
            Ok(pt) => assert_ne!(pt, b"hello"),
            Err(other) => panic!("unexpected error {other}"),
        }
    }
}
