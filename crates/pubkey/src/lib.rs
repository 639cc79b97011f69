//! Public-key cryptography and the modular-exponentiation algorithm
//! design space of the DAC 2002 wireless security processing platform.
//!
//! - [`ops`]: the metered basic-operations boundary ([`ops::MpnOps`])
//!   separating the algorithm layer from the `mpn` kernels, with native
//!   and macro-model-metered providers;
//! - [`algo`]: multiplication, division, Barrett and Montgomery
//!   machinery expressed over that boundary;
//! - [`modexp`]: configurable modular exponentiation covering the full
//!   450-candidate design space of [`space`] (5 modular-multiplication
//!   algorithms × 5 window sizes × 3 CRT modes × 2 radices × 3 caching
//!   options);
//! - [`prime`]: Miller–Rabin primality testing and prime generation,
//!   with each witness run by [`modexp`];
//! - [`rsa`] and [`elgamal`]: the platform's public-key primitives.
//!
//! # Examples
//!
//! ```
//! use pubkey::rsa::KeyPair;
//! use pubkey::ops::NativeMpn;
//! use pubkey::modexp::ExpCache;
//! use pubkey::space::ModExpConfig;
//! use mpint::Natural;
//!
//! let mut rng = rand::rng();
//! let kp = KeyPair::generate(256, &mut rng);
//! let mut ops = NativeMpn::new();
//! let mut cache = ExpCache::new();
//! let cfg = ModExpConfig::optimized();
//! let msg = Natural::from_u64(12345);
//! let ct = kp.public.encrypt_raw(&mut ops, &msg, &cfg, &mut cache)?;
//! let pt = kp.private.decrypt_raw(&mut ops, &ct, &cfg, &mut cache)?;
//! assert_eq!(pt, msg);
//! # Ok::<(), pubkey::rsa::RsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod elgamal;
pub mod modexp;
pub mod ops;
pub mod prime;
pub mod rsa;
pub mod space;

pub use modexp::{mod_exp, mod_exp_crt, ExpCache};
pub use ops::{ModeledMpn, MpnOps, NativeMpn};
pub use space::{CacheMode, CrtMode, ModExpConfig, MulAlgo, Radix};
