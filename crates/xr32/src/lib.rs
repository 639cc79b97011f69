//! XR32: a configurable, extensible 32-bit embedded RISC processor with a
//! cycle-accurate instruction-set simulator.
//!
//! XR32 is this repository's stand-in for the Tensilica Xtensa T1040 used
//! by the DAC 2002 wireless security processing platform paper. It mirrors
//! the properties the paper's methodology depends on:
//!
//! - a **32-bit RISC base ISA** (16 general registers, load/store,
//!   single-cycle ALU, optional hardware multiplier) — see [`isa`];
//! - a **two-pass assembler** for writing library kernels — see [`asm`];
//! - **one functional executor** ([`xjit`]): every run pre-decodes its
//!   program once per core into basic blocks of resolved micro-ops and
//!   interprets those; the ISA semantics, error paths and fault hooks
//!   live there and nowhere else;
//! - **pluggable cycle-accurate timing models** fed by the executor's
//!   per-op stream: the in-order baseline (load-use interlocks, branch
//!   penalty) and a scoreboarded out-of-order family (ROB, renaming,
//!   reservation stations, load-store queue, 2-bit branch predictor),
//!   both over I/D caches with configurable geometry — see [`xcore`],
//!   [`cpu`] and [`cache`];
//! - **page-lazy data memory** ([`mem`]): 4 KiB pages allocated on first
//!   store, so residency follows what a kernel touches;
//! - a **TIE-like extension interface**: designer-specified custom
//!   instructions with semantics, latency, and a structural gate-count
//!   area model, plus wide *user registers* and custom load/stores — see
//!   [`ext`] and [`area`];
//! - **fault injection hooks** for deterministic, seed-reproducible
//!   resilience campaigns (bit-flips in loads and registers, cache-tag
//!   corruption, stuck-at custom-instruction results) — see
//!   [`Cpu::set_fault_plan`](cpu::Cpu::set_fault_plan) and the `xfault`
//!   crate;
//! - **call-tree cycle attribution** producing the annotated call graphs
//!   the paper's global custom-instruction selection consumes — attach an
//!   `xobs::Attribution` sink to any traced run;
//! - a **dual-fidelity execution choice**: the executor driving a
//!   timing model for measurement, or driving none for golden-reference
//!   checks and stimulus triage — see [`xjit::Fidelity`] and
//!   [`Cpu::set_fidelity`](cpu::Cpu::set_fidelity).
//!
//! # Examples
//!
//! ```
//! use xr32::asm::assemble;
//! use xr32::cpu::Cpu;
//! use xr32::config::CpuConfig;
//!
//! let program = assemble(
//!     "        movi a2, 20
//!             movi a3, 22
//!             add  a2, a2, a3
//!             halt",
//! )?;
//! let mut cpu = Cpu::new(CpuConfig::default());
//! cpu.run(&program)?;
//! assert_eq!(cpu.reg(2), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod asm;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod energy;
pub mod ext;
pub mod isa;
pub mod mem;
pub mod xcore;
pub mod xjit;

pub use asm::{assemble, AssembleError, Program};
pub use config::{CacheConfig, CpuConfig};
pub use cpu::{Cpu, RunSummary, SimError};
pub use ext::{CustomInsnDef, ExtensionSet};
pub use isa::{Insn, Reg};
pub use xcore::{CoreSpec, OooParams};
pub use xjit::Fidelity;
