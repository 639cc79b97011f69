//! The platform's unified error vocabulary.
//!
//! Every failure the methodology layers can surface — typed kernel
//! failures from the registry ([`kreg::KernelError`]), arithmetic
//! failures from the public-key layer ([`pubkey::rsa::RsaError`]),
//! report-validation failures, wire-protocol failures from the serving
//! layer, and flow/builder configuration conflicts — folds into one
//! [`enum@Error`] with a **stable numeric code** per failure class.
//!
//! The codes are a public contract shared by two consumers:
//!
//! - `degradations` entries in structured run reports carry the code
//!   of the error they degraded on, so report consumers can classify
//!   failures without parsing prose;
//! - the `xserve` line-delimited JSON protocol returns the same codes
//!   in its `error` responses, so a service client and a report reader
//!   speak one vocabulary.
//!
//! Code ranges (never renumber, only append):
//!
//! | range | class                                   |
//! |-------|-----------------------------------------|
//! | 1000s | kernel layer ([`kreg::KernelError`])    |
//! | 2000s | public-key layer ([`RsaError`])         |
//! | 3000s | report validation                       |
//! | 4000s | wire protocol (`xserve`)                |
//! | 5000s | flow configuration / job specs / jobs   |

use std::fmt;

use kreg::KernelError;
use pubkey::modexp::ModExpError;
use pubkey::rsa::RsaError;

/// Stable numeric error codes, one per failure class. These are wire
/// and report contract: a code, once shipped, is never renumbered.
pub mod codes {
    /// Kernel name not in the registry.
    pub const KERNEL_UNKNOWN: u32 = 1001;
    /// ISS result disagreed with the host golden reference.
    pub const KERNEL_DIVERGENCE: u32 = 1002;
    /// Kernel registered but the request does not apply to it.
    pub const KERNEL_UNSUPPORTED: u32 = 1003;
    /// Cycle-budget watchdog stopped a runaway kernel.
    pub const KERNEL_TIMEOUT: u32 = 1004;
    /// An injected fault corrupted the run.
    pub const KERNEL_FAULTED: u32 = 1005;
    /// Kernel quarantined after repeated failures.
    pub const KERNEL_QUARANTINED: u32 = 1006;

    /// RSA message does not fit the modulus.
    pub const RSA_MESSAGE_TOO_LARGE: u32 = 2001;
    /// Modular-exponentiation precondition failed.
    pub const RSA_MODEXP: u32 = 2002;
    /// Payload too long for the padding scheme.
    pub const RSA_DATA_TOO_LONG: u32 = 2003;
    /// Padding check failed on decrypt.
    pub const RSA_BAD_PADDING: u32 = 2004;

    /// A structured run report failed schema validation.
    pub const REPORT_INVALID: u32 = 3001;

    /// Malformed protocol request (unparseable line / missing field).
    pub const PROTO_BAD_REQUEST: u32 = 4001;
    /// Request named an unknown operation or job id.
    pub const PROTO_UNKNOWN: u32 = 4002;
    /// Job was cancelled before completion.
    pub const PROTO_CANCELLED: u32 = 4004;
    /// Daemon is shutting down; job not accepted.
    pub const PROTO_SHUTDOWN: u32 = 4005;

    /// Generic flow-level failure (the catch-all for string-typed
    /// degradations predating the unified vocabulary).
    pub const FLOW: u32 = 5000;
    /// `FlowBuilder::build` rejected a conflicting configuration.
    pub const FLOW_CONFLICT: u32 = 5001;
    /// A `JobSpec` failed to parse or referenced unknown ids.
    pub const JOB_SPEC: u32 = 5002;
    /// A job's body panicked; the daemon contained it to that job.
    pub const JOB_PANICKED: u32 = 5003;
}

/// A failure anywhere in the platform, tagged with a stable numeric
/// code (see [`codes`]) shared by run-report `degradations` entries and
/// the `xserve` wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A typed kernel-layer failure.
    Kernel(KernelError),
    /// A public-key-layer failure.
    Rsa(RsaError),
    /// A structured run report failed validation.
    Report {
        /// What the validator rejected.
        detail: String,
    },
    /// A wire-protocol failure, pre-coded by the serving layer.
    Protocol {
        /// One of the 4000-range [`codes`].
        code: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// A flow-level failure that has no more specific class.
    Flow {
        /// Human-readable detail.
        detail: String,
    },
    /// `FlowBuilder::build` found a conflicting configuration.
    Conflict {
        /// Which knobs conflict and why.
        detail: String,
    },
    /// A job spec failed to parse or referenced unknown ids.
    JobSpec {
        /// What was malformed.
        detail: String,
    },
    /// A job's body panicked and was contained to that job.
    JobPanicked {
        /// The panic message.
        detail: String,
    },
}

impl Error {
    /// A generic flow-level error from prose.
    pub fn flow(detail: impl Into<String>) -> Self {
        Error::Flow {
            detail: detail.into(),
        }
    }

    /// The stable numeric code of this error's class (see [`codes`]).
    pub fn code(&self) -> u32 {
        match self {
            Error::Kernel(k) => match k {
                KernelError::Unknown(_) => codes::KERNEL_UNKNOWN,
                KernelError::Divergence { .. } => codes::KERNEL_DIVERGENCE,
                KernelError::Unsupported { .. } => codes::KERNEL_UNSUPPORTED,
                KernelError::Timeout { .. } => codes::KERNEL_TIMEOUT,
                KernelError::Faulted { .. } => codes::KERNEL_FAULTED,
                KernelError::Quarantined { .. } => codes::KERNEL_QUARANTINED,
            },
            Error::Rsa(r) => match r {
                RsaError::MessageTooLarge => codes::RSA_MESSAGE_TOO_LARGE,
                RsaError::ModExp(_) => codes::RSA_MODEXP,
                RsaError::DataTooLong { .. } => codes::RSA_DATA_TOO_LONG,
                RsaError::BadPadding => codes::RSA_BAD_PADDING,
            },
            Error::Report { .. } => codes::REPORT_INVALID,
            Error::Protocol { code, .. } => *code,
            Error::Flow { .. } => codes::FLOW,
            Error::Conflict { .. } => codes::FLOW_CONFLICT,
            Error::JobSpec { .. } => codes::JOB_SPEC,
            Error::JobPanicked { .. } => codes::JOB_PANICKED,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Kernel(k) => write!(f, "{k}"),
            Error::Rsa(r) => write!(f, "{r}"),
            Error::Report { detail } => write!(f, "invalid report: {detail}"),
            Error::Protocol { detail, .. } => write!(f, "{detail}"),
            Error::Flow { detail } => write!(f, "{detail}"),
            Error::Conflict { detail } => write!(f, "conflicting flow configuration: {detail}"),
            Error::JobSpec { detail } => write!(f, "bad job spec: {detail}"),
            Error::JobPanicked { detail } => write!(f, "job panicked: {detail}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<KernelError> for Error {
    fn from(e: KernelError) -> Self {
        Error::Kernel(e)
    }
}

impl From<RsaError> for Error {
    fn from(e: RsaError) -> Self {
        Error::Rsa(e)
    }
}

impl From<ModExpError> for Error {
    fn from(e: ModExpError) -> Self {
        Error::Rsa(RsaError::ModExp(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::id;

    #[test]
    fn codes_are_stable_and_class_banded() {
        assert_eq!(
            Error::from(KernelError::Unknown("nope".into())).code(),
            1001
        );
        assert_eq!(Error::from(RsaError::BadPadding).code(), 2004);
        assert_eq!(Error::flow("anything").code(), 5000);
        assert_eq!(
            Error::Conflict {
                detail: String::new()
            }
            .code(),
            5001
        );
        assert_eq!(
            Error::JobSpec {
                detail: String::new()
            }
            .code(),
            5002
        );
        assert_eq!(
            Error::JobPanicked {
                detail: String::new()
            }
            .code(),
            5003
        );
        assert_eq!(
            Error::Report {
                detail: String::new()
            }
            .code(),
            3001
        );
    }

    #[test]
    fn kernel_variants_map_to_distinct_codes() {
        let errs = [
            KernelError::Unknown("x".into()),
            KernelError::Divergence {
                kernel: id::ADD_N,
                detail: "d".into(),
            },
            KernelError::Unsupported {
                kernel: id::ADD_N,
                detail: "d".into(),
            },
        ];
        let codes: Vec<u32> = errs.iter().map(|e| Error::from(e.clone()).code()).collect();
        assert_eq!(codes, vec![1001, 1002, 1003]);
    }

    #[test]
    fn modexp_folds_into_the_rsa_band() {
        let e = Error::from(ModExpError::ZeroModulus);
        assert_eq!(e.code(), codes::RSA_MODEXP);
        assert!(e.to_string().contains("modulus"));
    }

    #[test]
    fn display_carries_the_underlying_detail() {
        let e = Error::from(KernelError::Unknown("mystery".into()));
        assert!(e.to_string().contains("mystery"));
        let p = Error::Protocol {
            code: codes::PROTO_CANCELLED,
            detail: "job 7 cancelled".into(),
        };
        assert_eq!(p.code(), 4004);
        assert_eq!(p.to_string(), "job 7 cancelled");
    }
}
