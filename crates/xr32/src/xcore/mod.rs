//! Core microarchitecture timing models.
//!
//! The ISA semantics live in one place, the functional executor of
//! [`crate::xjit`]. A core model here never touches registers, carry,
//! memory or user registers: it is a *timing model* that consumes the
//! executor's per-op `Retired` records (pc, class, source and
//! destination registers, memory address, cache-tag fault, branch
//! outcome, custom latency) and owns everything microarchitectural —
//! the cycle counter, per-register ready times, the I/D caches, the
//! branch predictor and scoreboard, and trace-event emission. Two
//! models ship:
//!
//! - [`inorder`]: the single-issue in-order 5-stage pipeline
//!   abstraction (per-register ready-time interlocks, taken branches pay
//!   the refill penalty, loads incur a load-use delay);
//! - [`ooo`]: a scoreboarded out-of-order family (reorder buffer,
//!   register renaming, reservation stations, a load-store queue and a
//!   2-bit branch predictor, all width-parameterized by [`OooParams`]).
//!
//! A call memo ([`memo`]) lets the in-order core run a known
//! constant-time kernel call, or a register-only one whose per-op costs
//! it proved constant, on the functional executor and apply its
//! in-order cost. Every cycle-accurate run, a discarded warm-up
//! included, goes through the core's one timed model or through the
//! memo that serves it.
//!
//! Because both observe the same executor, the architectural state
//! after a run is bit-identical across core models and the fast path
//! ([`Fidelity::Fast`](crate::xjit::Fidelity) runs the executor with no
//! timing model) by construction; only the cycle accounting differs.
//! The in-order core charges a single global clock as it goes, while
//! the out-of-order core books each op through a dataflow scoreboard
//! and reports the in-order *commit* time of the last one. This is what
//! makes cross-core co-simulation (the `xooo_gate` CI bin) a pure
//! equality check.
//!
//! Which model a [`Cpu`](crate::cpu::Cpu) drives is selected by
//! [`CoreSpec`] on [`CpuConfig`]; the spec's [`id()`](CoreSpec::id)
//! string (`"io"`, `"ooo-…"`) is the *CoreConfigId* stamped into cache
//! keys, measurement-unit names, span attributes and run reports by the
//! layers above.

pub mod inorder;
pub mod memo;
pub mod ooo;

pub(crate) use inorder::InOrderCore;
pub use memo::{CallMemo, MemoStats};
pub(crate) use ooo::OooCore;
pub use ooo::OooParams;

use crate::asm::Program;
use crate::cache::Cache;
use crate::config::CpuConfig;
use crate::isa::Insn;
use crate::xjit::{OpClass, Retired};
use xobs::trace::{CacheSide, TraceEvent, TraceSink};

/// Core microarchitecture selection, carried by
/// [`CpuConfig`].
///
/// The spec is part of a configuration's identity: it is mixed into
/// [`CpuConfig::fingerprint`](crate::config::CpuConfig::fingerprint)
/// (so kernel-cycle cache keys can never collide across core models)
/// and rendered by [`CoreSpec::id`] for human-readable cache units,
/// span attributes and report fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CoreSpec {
    /// The in-order baseline pipeline.
    #[default]
    InOrder,
    /// An out-of-order pipeline with the given structure widths.
    OutOfOrder(OooParams),
}

impl CoreSpec {
    /// The short core-configuration identifier (*CoreConfigId*) used in
    /// cache keys, measurement-unit names, span attributes and report
    /// fields: `"io"` for the in-order core, `"ooo-…"` (widths
    /// encoded) for out-of-order members.
    pub fn id(&self) -> String {
        match self {
            CoreSpec::InOrder => "io".to_owned(),
            CoreSpec::OutOfOrder(p) => p.id(),
        }
    }

    /// Structural gate-equivalent cost of this core's out-of-order
    /// machinery *relative to the in-order baseline* (which prices at
    /// zero): ROB, reservation-station and load-store-queue entries
    /// plus the branch-predictor counter table, from the
    /// [`crate::area`] constants. This is the core axis of the
    /// cross-product (core × accelerator level) Pareto fronts.
    pub fn area_gates(&self) -> u64 {
        match self {
            CoreSpec::InOrder => 0,
            CoreSpec::OutOfOrder(p) => p.area_gates(),
        }
    }

    /// Parses a *CoreConfigId* produced by [`CoreSpec::id`] back to the
    /// spec — the wire-deserialization inverse used by serialized job
    /// specs. `None` for malformed ids and for a zero or oversized width
    /// (issue and retire widths above 64, ROB, reservation-station and
    /// load-store-queue entries above 4096, predictor counters above
    /// 65536), so a parsed spec always builds and runs with bounded
    /// memory.
    pub fn parse(id: &str) -> Option<CoreSpec> {
        if id == "io" {
            return Some(CoreSpec::InOrder);
        }
        let rest = id.strip_prefix("ooo-i")?;
        let (issue, rest) = rest.split_once('x')?;
        let (retire, rest) = rest.split_once("-r")?;
        let (rob, rest) = rest.split_once('s')?;
        let (rs, rest) = rest.split_once('l')?;
        let (lsq, pred) = rest.split_once('b')?;
        let width = |text: &str, cap: u32| text.parse().ok().filter(|w| (1..=cap).contains(w));
        Some(CoreSpec::OutOfOrder(OooParams {
            issue_width: width(issue, 64)?,
            retire_width: width(retire, 64)?,
            rob_entries: width(rob, 4096)?,
            rs_entries: width(rs, 4096)?,
            lsq_entries: width(lsq, 4096)?,
            predictor_entries: width(pred, 1 << 16)?,
        }))
    }
}

/// The timing state a core keeps across runs: the cycle counter,
/// per-register result-ready times, the I/D caches and (out-of-order
/// cores only) the branch-predictor counters. The reorder buffer,
/// reservation stations and load-store queue drain between runs, so
/// they live in the per-run model.
#[derive(Debug)]
pub(crate) struct Timing {
    /// The global cycle counter (monotone across runs on one core).
    pub cycles: u64,
    /// Per-register result-ready times (the RAW interlock/completion
    /// table).
    pub reg_ready: [u64; 16],
    pub icache: Cache,
    pub dcache: Cache,
    /// 2-bit saturating counters, direct-mapped by pc; `>= 2` predicts
    /// taken.
    pub counters: Vec<u8>,
}

impl Timing {
    /// Cold timing state for `config`'s core: all caches invalid and
    /// every predictor counter strongly-not-taken.
    pub(crate) fn new(config: &CpuConfig) -> Self {
        let entries = match config.core {
            CoreSpec::InOrder => 0,
            CoreSpec::OutOfOrder(p) => p.predictor_entries.max(1) as usize,
        };
        Timing {
            cycles: 0,
            reg_ready: [0; 16],
            icache: Cache::new(config.icache),
            dcache: Cache::new(config.dcache),
            counters: vec![0; entries],
        }
    }

    /// Returns to the cold state.
    pub(crate) fn reset(&mut self) {
        self.cycles = 0;
        self.reg_ready = [0; 16];
        self.icache.reset();
        self.dcache.reset();
        self.counters.fill(0);
    }

    /// Consults and trains the 2-bit counter of the conditional branch
    /// at `pc`; returns whether it mispredicted `taken`.
    #[inline(always)]
    pub(crate) fn predict(&mut self, pc: usize, taken: bool) -> bool {
        let ix = pc % self.counters.len();
        let counter = &mut self.counters[ix];
        let mispredicted = (*counter >= 2) != taken;
        *counter = if taken {
            (*counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        mispredicted
    }
}

/// Trace-event emission shared by the core models: the synthetic entry
/// frame, call/return frames and their balanced close when a run ends,
/// so cycle attribution over the stream always accounts for every
/// cycle. Every method is a no-op without a sink.
pub(crate) struct Tracer<'a> {
    sink: Option<&'a mut (dyn TraceSink + 'a)>,
    program: &'a Program,
    /// Frames currently open: the entry frame plus executed calls minus
    /// executed returns.
    depth: u64,
}

impl<'a> Tracer<'a> {
    /// Opens the synthetic entry frame at `cycle`.
    pub(crate) fn new(
        sink: Option<&'a mut (dyn TraceSink + '_)>,
        program: &'a Program,
        entry: usize,
        entry_name: &str,
        cycle: u64,
    ) -> Self {
        let mut sink = sink.map(|s| -> &'a mut (dyn TraceSink + 'a) { s });
        if let Some(s) = sink.as_deref_mut() {
            s.on_event(&TraceEvent::Call {
                pc: entry as u32,
                callee: entry_name,
                cycle,
            });
        }
        let depth = sink.is_some() as u64;
        Tracer {
            sink,
            program,
            depth,
        }
    }

    /// One cache access: a miss adds `miss_latency` to `cycles`, and a
    /// traced access emits its `Cache` event. Returns whether it hit.
    pub(crate) fn access(
        &mut self,
        cache: &mut Cache,
        side: CacheSide,
        addr: u64,
        cycles: &mut u64,
        miss_latency: u32,
    ) -> bool {
        match self.sink.as_deref_mut() {
            None => {
                let hit = cache.access(addr);
                if !hit {
                    *cycles += miss_latency as u64;
                }
                hit
            }
            Some(s) => {
                let (hit, after) = cache.access_traced(addr, side, *cycles, miss_latency, s);
                *cycles = after;
                hit
            }
        }
    }

    /// Emits a `Stall` event for `op`.
    pub(crate) fn stall(&mut self, op: &Retired<'_>, cycles: u64, cycle: u64) {
        if let Some(s) = self.sink.as_deref_mut() {
            s.on_event(&TraceEvent::Stall {
                pc: op.pc as u32,
                cycles: cycles as u32,
                cycle,
            });
        }
    }

    /// Opens a frame if `op` is a call, and emits a `Custom` event if
    /// it is a custom instruction.
    pub(crate) fn call_or_custom(&mut self, op: &Retired<'_>, cycle: u64) {
        let Some(s) = self.sink.as_deref_mut() else {
            return;
        };
        let pc = op.pc as u32;
        match op.class {
            OpClass::Call => {
                let callee = self.program.label_at(op.next_pc).unwrap_or("<anon>");
                s.on_event(&TraceEvent::Call { pc, callee, cycle });
                self.depth += 1;
            }
            OpClass::Custom => {
                if let Some(Insn::Custom(c)) = self.program.insns().get(op.pc) {
                    s.on_event(&TraceEvent::Custom {
                        pc,
                        name: &c.name,
                        latency: op.latency,
                        cycle,
                    });
                }
            }
            _ => {}
        }
    }

    /// Emits a `TakenBranch` event charging `penalty` refill cycles.
    pub(crate) fn branch(&mut self, op: &Retired<'_>, penalty: u32, cycle: u64) {
        if let Some(s) = self.sink.as_deref_mut() {
            s.on_event(&TraceEvent::TakenBranch {
                pc: op.pc as u32,
                target: op.next_pc as u32,
                penalty,
                cycle,
            });
        }
    }

    /// Closes a frame if `op` is a return, then emits its `Retire`.
    pub(crate) fn retire(&mut self, op: &Retired<'_>, cycle: u64) {
        if let Some(s) = self.sink.as_deref_mut() {
            let pc = op.pc as u32;
            if op.class == OpClass::Ret && self.depth > 0 {
                s.on_event(&TraceEvent::Ret { pc, cycle });
                self.depth -= 1;
            }
            s.on_event(&TraceEvent::Retire { pc, cycle });
        }
    }

    /// Ends a completed run at `pc`: closes the frames left open (the
    /// entry frame, plus any callees a `halt` ended inside) and flushes.
    pub(crate) fn finish(mut self, pc: usize, cycle: u64) {
        if let Some(s) = self.sink.as_deref_mut() {
            for _ in 0..self.depth {
                s.on_event(&TraceEvent::Ret {
                    pc: pc as u32,
                    cycle,
                });
            }
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ids_are_distinct_and_stable() {
        assert_eq!(CoreSpec::InOrder.id(), "io");
        let ooo = CoreSpec::OutOfOrder(OooParams::default());
        assert!(ooo.id().starts_with("ooo-"));
        assert_ne!(ooo.id(), CoreSpec::InOrder.id());
        let narrow = CoreSpec::OutOfOrder(OooParams {
            rob_entries: 8,
            ..OooParams::default()
        });
        assert_ne!(narrow.id(), ooo.id(), "widths are part of the id");
    }

    #[test]
    fn inorder_core_area_is_the_baseline_zero() {
        assert_eq!(CoreSpec::InOrder.area_gates(), 0);
        assert!(CoreSpec::OutOfOrder(OooParams::default()).area_gates() > 0);
    }

    #[test]
    fn spec_ids_round_trip_through_parse() {
        let specs = [
            CoreSpec::InOrder,
            CoreSpec::OutOfOrder(OooParams::default()),
            CoreSpec::OutOfOrder(OooParams {
                issue_width: 4,
                retire_width: 3,
                rob_entries: 64,
                rs_entries: 24,
                lsq_entries: 12,
                predictor_entries: 512,
            }),
        ];
        for spec in specs {
            assert_eq!(CoreSpec::parse(&spec.id()), Some(spec), "{}", spec.id());
        }
        assert_eq!(CoreSpec::parse("ooo"), None);
        assert_eq!(CoreSpec::parse("ooo-i2x2"), None);
        assert_eq!(CoreSpec::parse("io2"), None);
    }

    #[test]
    fn zero_and_oversized_widths_do_not_parse() {
        let widest = "ooo-i64x64-r4096s4096l4096b65536";
        assert!(CoreSpec::parse(widest).is_some(), "every cap is inclusive");
        for id in [
            "ooo-i0x2-r32s16l8b256",
            "ooo-i2x0-r32s16l8b256",
            "ooo-i2x2-r0s16l8b256",
            "ooo-i2x2-r32s0l8b256",
            "ooo-i2x2-r32s16l0b256",
            "ooo-i2x2-r32s16l8b0",
            "ooo-i0x0-r0s0l0b0",
            "ooo-i65x2-r32s16l8b256",
            "ooo-i2x65-r32s16l8b256",
            "ooo-i2x2-r4097s16l8b256",
            "ooo-i2x2-r32s4097l8b256",
            "ooo-i2x2-r32s16l4097b256",
            "ooo-i2x2-r32s16l8b65537",
            "ooo-i2x2-r32s16l8b4294967295",
        ] {
            assert_eq!(CoreSpec::parse(id), None, "{id}");
        }
    }

    #[test]
    fn default_spec_is_in_order() {
        assert_eq!(CoreSpec::default(), CoreSpec::InOrder);
    }
}
