//! XR32 assembly kernels for the platform's basic operations.
//!
//! Each submodule provides assembly source text plus (in tests and the
//! ISS-backed ops provider) the host-side calling conventions. The
//! kernels are the "lower software layers (standard libraries, basic
//! operations)" the paper characterizes and accelerates.
//!
//! The multi-precision and SHA-1 libraries live in the kernel registry
//! crate ([`kreg::kernels`]) so every methodology phase shares one
//! source of truth.

pub mod aes;
pub mod des;
