//! Multi-precision integer arithmetic for public-key cryptography.
//!
//! This crate is a from-scratch replacement for the GNU MP library used by
//! the DAC 2002 wireless security processing platform paper. It mirrors
//! GMP's layered structure:
//!
//! - [`mpn`]: the *basic operations* layer — low-level functions over
//!   little-endian limb slices (`mpn_add_n`, `mpn_addmul_1`, …). These are
//!   the routines the paper characterizes on the instruction-set simulator
//!   and accelerates with custom instructions. They are generic over the
//!   limb width (radix 2^16 or 2^32), one of the axes of the paper's
//!   algorithm design space.
//! - [`Natural`] / [`Integer`]: the *complex operations* layer — arbitrary
//!   precision unsigned/signed integers with full arithmetic.
//! - [`monty`], [`karatsuba`], [`prime`], [`gcd`]: Montgomery modular
//!   reduction, sub-quadratic multiplication and number-theoretic
//!   routines used by RSA/ElGamal.
//!
//! # Examples
//!
//! ```
//! use mpint::Natural;
//!
//! let a = Natural::from_u64(0xdead_beef);
//! let b = Natural::from_u64(0x1234_5678);
//! let p = &a * &b;
//! assert_eq!(p, Natural::from_u64(0xdead_beef * 0x1234_5678));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gcd;
pub mod int;
pub mod karatsuba;
pub mod limb;
pub mod monty;
pub mod mpn;
pub mod nat;
pub mod prime;

pub use int::Integer;
pub use limb::Limb;
pub use monty::MontyCtx;
pub use nat::Natural;
