//! xobs: observability for the wireless security processing platform.
//!
//! The paper's whole methodology is measurement — per-function cycle
//! profiles feed macro-models, annotated call graphs feed A-D
//! propagation, and the §4.3 accuracy claims compare estimators against
//! ISS ground truth. This crate turns the simulator from a number
//! printer into an inspectable instrument, in five layers:
//!
//! - **Event tracing** ([`trace`]): the [`TraceSink`] trait the XR32
//!   executor feeds with [`TraceEvent`]s (instruction retire, interlock
//!   stalls, taken branches, I/D-cache hit/miss, custom-instruction
//!   dispatch, call/ret), plus an in-memory recorder ([`VecSink`]) and
//!   a shared handle ([`Shared`]).
//! - **Binary traces** ([`bintrace`]): a streaming compact `.xtrace`
//!   writer and its reader, with interned names and a versioned header.
//! - **Cycle attribution** ([`attrib`]): call-stack reconstruction into
//!   an exclusive/inclusive per-function cycle tree, exported as
//!   folded-stack (flamegraph-compatible) text and a top-N hot-function
//!   report; plus an event tally for cache/stall/branch behaviour.
//! - **Hierarchical spans** ([`span`]): enter/exit phase and task
//!   spans with dual clocks — deterministic sequence/ISS-cycle fields
//!   kept separate from wall time so the thread-count byte-identity
//!   contract survives — serialized into schema-5 reports and
//!   renderable as a text tree or Chrome trace-event JSON.
//! - **Metrics & reports** ([`metrics`], [`report`], [`json`]):
//!   counters/gauges/histograms for the 4-phase flow, snapshot into a
//!   schema-versioned [`RunReport`] serialized by a hand-rolled
//!   dependency-free JSON module (writer *and* parser, so CI can
//!   validate what harnesses emit).
//!
//! The crate depends on nothing (not even the vendored shims), so every
//! other crate in the workspace can adopt it without cycles.
//!
//! # Example: attributing cycles from a recorded event stream
//!
//! ```
//! use xobs::attrib::Attribution;
//! use xobs::trace::{TraceEvent, TraceSink};
//!
//! let mut attr = Attribution::new();
//! attr.on_event(&TraceEvent::Call { pc: 0, callee: "des_block", cycle: 0 });
//! attr.on_event(&TraceEvent::Call { pc: 7, callee: "feistel", cycle: 10 });
//! attr.on_event(&TraceEvent::Ret { pc: 31, cycle: 90 });
//! attr.on_event(&TraceEvent::Ret { pc: 40, cycle: 100 });
//! assert_eq!(attr.total_cycles(), 100);
//! let flat = attr.flat();
//! assert_eq!(flat[0].name, "feistel"); // hottest by exclusive cycles
//! assert_eq!(flat[0].exclusive, 80);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod bintrace;
pub mod frames;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;
pub mod trace;

pub use attrib::{Attribution, EventStats, FlatEntry};
pub use bintrace::{read_trace, BinaryTraceWriter, TraceReadError};
pub use frames::{Assembler, Frame, FrameError};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot, Registry};
pub use report::{RunReport, SCHEMA_VERSION};
pub use span::{SpanGuard, Spans};
pub use trace::{CacheSide, Shared, TraceEvent, TraceSink, VecSink};
