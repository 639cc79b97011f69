//! Methodology-as-a-service: the serving layer (DESIGN §18).
//!
//! Every methodology the workspace implements — kernel
//! characterization, §4.3 design-space exploration with the
//! cross-product lattice, area/delay curve extraction, direct
//! measurement, fault campaigns — is reachable two ways that produce
//! the same answer:
//!
//! * **CLI**: a bench binary parses its arguments into a
//!   [`secproc::job::JobSpec`] and calls `run` in-process.
//! * **Service**: the `xserve` daemon accepts the *same* serialized
//!   spec over a line-delimited JSON socket ([`proto`]), schedules it
//!   onto the shared worker pool with priorities, per-job fault
//!   policies and cooperative cancellation ([`server`]), and streams
//!   the schema-8 run report back as bounded frames ([`xobs::frames`]).
//!
//! Because the spec is the single entry point and `JobSpec::run`
//! assembles the complete report (fresh metrics/span sinks per job),
//! the two paths are byte-identical for every deterministic field; only
//! volatile wall-clock keys differ, and `xobs::report::
//! normalize` strips exactly those. The daemon additionally serves
//! point lookups of kernel-cycle measurements from the shard-locked
//! [`secproc::kcache::KCache`] (`query` op), so downstream tools can
//! treat a warm daemon as a cycle oracle.
//!
//! Binaries: `xserve` (the daemon) and `xserve-gate` (CI smoke: daemon
//! ≡ CLI byte-identity, cancellation, concurrent queries).

pub mod client;
pub mod proto;
pub mod server;

pub use client::Client;
pub use proto::{Request, Response, StatsBody};
pub use server::{Bind, Server, ServerConfig};
