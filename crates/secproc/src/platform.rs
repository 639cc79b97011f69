//! The layered security-primitive API of the platform.
//!
//! [`SecurityProcessor`] is the top of the paper's layered software
//! architecture: "a generic interface (API) using which security
//! protocols and applications can be ported to our platform …
//! security primitives such as key generation, encryption, or
//! decryption of a block of data using a specific public- or
//! private-key cryptographic algorithm". Two platform kinds exist:
//!
//! - [`PlatformKind::Baseline`]: the configurable core without custom
//!   instructions, running the optimized-software kernels;
//! - [`PlatformKind::Optimized`]: the custom-instruction extension set
//!   and the design-space-explored algorithms.
//!
//! Bulk data operations are *functionally* computed by the host crypto
//! (`ciphers`) while cycle accounting uses the per-block simulator
//! measurements, so multi-megabyte workloads remain practical.

use crate::measure;
use crate::simcipher::{SimAes, SimDes, SimSha1, Variant};
use ciphers::modes::{self, CipherError};
use ciphers::{Aes, Sha1, TripleDes};
use mpint::Natural;
use pubkey::modexp::ExpCache;
use pubkey::ops::NativeMpn;
use pubkey::rsa::{KeyPair, RsaError};
use pubkey::space::ModExpConfig;
use rand::Rng;
use std::collections::BTreeMap;
use xr32::config::CpuConfig;

/// Symmetric algorithms exposed by the platform API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algorithm {
    /// Single DES.
    Des,
    /// Triple DES (EDE3).
    TripleDes,
    /// AES-128.
    Aes128,
    /// SHA-1 (hashing; the unaccelerated misc workload).
    Sha1,
}

/// Which platform configuration the processor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// Base core, optimized software only.
    Baseline,
    /// Custom instructions + explored algorithms.
    Optimized,
}

/// The security processing platform facade.
pub struct SecurityProcessor {
    kind: PlatformKind,
    config: CpuConfig,
    cpb_cache: BTreeMap<Algorithm, f64>,
}

impl SecurityProcessor {
    /// Creates a platform of the given kind with the default core
    /// configuration.
    pub fn new(kind: PlatformKind) -> Self {
        Self::with_config(kind, CpuConfig::default())
    }

    /// Creates a platform with an explicit core configuration.
    pub fn with_config(kind: PlatformKind, config: CpuConfig) -> Self {
        SecurityProcessor {
            kind,
            config,
            cpb_cache: BTreeMap::new(),
        }
    }

    /// The platform kind.
    pub fn kind(&self) -> PlatformKind {
        self.kind
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    fn variant(&self) -> Variant {
        match self.kind {
            PlatformKind::Baseline => Variant::Base,
            PlatformKind::Optimized => Variant::Accelerated,
        }
    }

    /// The modular-exponentiation configuration this platform's software
    /// library uses.
    fn modexp_config(&self) -> ModExpConfig {
        match self.kind {
            PlatformKind::Baseline => ModExpConfig::baseline(),
            PlatformKind::Optimized => ModExpConfig::optimized(),
        }
    }

    /// Measured cycles/byte of a symmetric algorithm on this platform
    /// (simulator-backed; cached after the first call).
    pub fn symmetric_cycles_per_byte(&mut self, algorithm: Algorithm) -> f64 {
        if let Some(&c) = self.cpb_cache.get(&algorithm) {
            return c;
        }
        let blocks = 6;
        let cpb = match algorithm {
            Algorithm::Des => SimDes::new(self.config.clone(), self.variant(), *b"platform")
                .cycles_per_byte(blocks),
            Algorithm::TripleDes => {
                measure::measure_tdes(&self.config, blocks, None).pick(self.kind)
            }
            Algorithm::Aes128 => {
                SimAes::new(self.config.clone(), self.variant(), b"platform-aes-key")
                    .cycles_per_byte(blocks)
            }
            Algorithm::Sha1 => SimSha1::new(self.config.clone()).cycles_per_byte(blocks),
        };
        self.cpb_cache.insert(algorithm, cpb);
        cpb
    }

    /// Estimated sustained throughput in Mbit/s for a symmetric
    /// algorithm, from the measured cycles/byte and the core clock.
    pub fn throughput_mbps(&mut self, algorithm: Algorithm) -> f64 {
        let cpb = self.symmetric_cycles_per_byte(algorithm);
        self.config.clock_hz as f64 / cpb * 8.0 / 1.0e6
    }

    /// Encrypts bulk data in CBC mode (functional host computation; use
    /// [`SecurityProcessor::symmetric_cycles_per_byte`] for the platform
    /// cost).
    ///
    /// # Errors
    ///
    /// Returns [`CipherError`] for bad IV lengths.
    ///
    /// # Panics
    ///
    /// Panics if the key length does not match the algorithm (8 bytes
    /// for DES, 24 for 3DES, 16 for AES-128), or for
    /// [`Algorithm::Sha1`], which is not a cipher.
    pub fn encrypt_cbc(
        &self,
        algorithm: Algorithm,
        key: &[u8],
        iv: &[u8],
        data: &[u8],
    ) -> Result<Vec<u8>, CipherError> {
        match algorithm {
            Algorithm::Des => {
                let des = ciphers::Des::new(key.try_into().expect("DES keys are 8 bytes"));
                modes::cbc_encrypt(&des, iv, data)
            }
            Algorithm::TripleDes => {
                let tdes =
                    TripleDes::from_key_bytes(key.try_into().expect("3DES keys are 24 bytes"));
                modes::cbc_encrypt(&tdes, iv, data)
            }
            Algorithm::Aes128 => {
                let aes = Aes::new_128(key.try_into().expect("AES-128 keys are 16 bytes"));
                modes::cbc_encrypt(&aes, iv, data)
            }
            Algorithm::Sha1 => panic!("SHA-1 is a hash, not a cipher"),
        }
    }

    /// Decrypts bulk data in CBC mode.
    ///
    /// # Errors
    ///
    /// Returns [`CipherError`] on bad IV/length/padding.
    ///
    /// # Panics
    ///
    /// Panics on key-length mismatch or [`Algorithm::Sha1`].
    pub fn decrypt_cbc(
        &self,
        algorithm: Algorithm,
        key: &[u8],
        iv: &[u8],
        data: &[u8],
    ) -> Result<Vec<u8>, CipherError> {
        match algorithm {
            Algorithm::Des => {
                let des = ciphers::Des::new(key.try_into().expect("DES keys are 8 bytes"));
                modes::cbc_decrypt(&des, iv, data)
            }
            Algorithm::TripleDes => {
                let tdes =
                    TripleDes::from_key_bytes(key.try_into().expect("3DES keys are 24 bytes"));
                modes::cbc_decrypt(&tdes, iv, data)
            }
            Algorithm::Aes128 => {
                let aes = Aes::new_128(key.try_into().expect("AES-128 keys are 16 bytes"));
                modes::cbc_decrypt(&aes, iv, data)
            }
            Algorithm::Sha1 => panic!("SHA-1 is a hash, not a cipher"),
        }
    }

    /// Hashes data with SHA-1.
    pub fn sha1(&self, data: &[u8]) -> [u8; 20] {
        Sha1::digest(data)
    }

    /// Generates an RSA key pair.
    pub fn rsa_generate<R: Rng + ?Sized>(&self, bits: usize, rng: &mut R) -> KeyPair {
        KeyPair::generate(bits, rng)
    }

    /// RSA public-key encryption with this platform's explored
    /// configuration (functional host computation).
    ///
    /// # Errors
    ///
    /// Returns [`RsaError`] from the underlying operation.
    pub fn rsa_encrypt(&self, key: &KeyPair, m: &Natural) -> Result<Natural, RsaError> {
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        key.public
            .encrypt_raw(&mut ops, m, &self.modexp_config(), &mut cache)
    }

    /// RSA private-key decryption with this platform's explored
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RsaError`] from the underlying operation.
    pub fn rsa_decrypt(&self, key: &KeyPair, c: &Natural) -> Result<Natural, RsaError> {
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        key.private
            .decrypt_raw(&mut ops, c, &self.modexp_config(), &mut cache)
    }
}

impl measure::SymmetricRow {
    /// Picks the cycles/byte matching a platform kind.
    pub fn pick(&self, kind: PlatformKind) -> f64 {
        match kind {
            PlatformKind::Baseline => self.base_cpb,
            PlatformKind::Optimized => self.opt_cpb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn optimized_platform_beats_baseline_on_des() {
        let mut base = SecurityProcessor::new(PlatformKind::Baseline);
        let mut opt = SecurityProcessor::new(PlatformKind::Optimized);
        let b = base.symmetric_cycles_per_byte(Algorithm::Des);
        let o = opt.symmetric_cycles_per_byte(Algorithm::Des);
        assert!(b / o > 5.0, "speedup {:.1}", b / o);
        // Cached on second call.
        assert_eq!(base.symmetric_cycles_per_byte(Algorithm::Des), b);
    }

    #[test]
    fn throughput_follows_cpb() {
        let mut opt = SecurityProcessor::new(PlatformKind::Optimized);
        let cpb = opt.symmetric_cycles_per_byte(Algorithm::Des);
        let mbps = opt.throughput_mbps(Algorithm::Des);
        let expect = 188.0e6 / cpb * 8.0 / 1.0e6;
        assert!((mbps - expect).abs() < 1e-6);
        // The paper's goal: secure 3G data rates (up to 2 Mbps).
        assert!(mbps > 2.0, "optimized DES throughput {mbps:.1} Mbps");
    }

    #[test]
    fn cbc_roundtrip_via_api() {
        let proc = SecurityProcessor::new(PlatformKind::Optimized);
        let key = [7u8; 16];
        let iv = [9u8; 16];
        let msg = b"the platform API moves bulk data";
        let ct = proc.encrypt_cbc(Algorithm::Aes128, &key, &iv, msg).unwrap();
        let pt = proc.decrypt_cbc(Algorithm::Aes128, &key, &iv, &ct).unwrap();
        assert_eq!(pt, msg);
    }

    #[test]
    fn rsa_via_api_roundtrips() {
        let proc = SecurityProcessor::new(PlatformKind::Optimized);
        let mut rng = StdRng::seed_from_u64(77);
        let kp = proc.rsa_generate(256, &mut rng);
        let m = Natural::from_u64(123_456_789);
        let c = proc.rsa_encrypt(&kp, &m).unwrap();
        assert_eq!(proc.rsa_decrypt(&kp, &c).unwrap(), m);
    }

    #[test]
    fn sha1_via_api() {
        let proc = SecurityProcessor::new(PlatformKind::Baseline);
        assert_eq!(proc.sha1(b"abc")[..4], [0xa9, 0x99, 0x3e, 0x36],);
    }
}
