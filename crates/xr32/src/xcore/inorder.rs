//! The single-issue in-order pipeline timing model — the paper's
//! baseline core.
//!
//! Timing model (single-issue, in-order, 5-stage pipeline abstraction):
//!
//! - every instruction costs one issue cycle;
//! - instruction fetch goes through the I-cache: a miss adds
//!   `mem_latency` cycles;
//! - loads and stores go through the D-cache: a miss adds `mem_latency`;
//!   a load's result is available one cycle late (load-use interlock);
//! - taken branches, jumps, calls and returns add `branch_penalty`
//!   refill cycles;
//! - `mul`/`mulhu` results are available after `mul_latency` cycles
//!   (the executor raises the error when the hardware-multiplier option
//!   is missing);
//! - custom instructions cost their registered latency.
//!
//! Dependent-result delays are modeled with per-register ready times: an
//! instruction that reads a register before its ready cycle stalls until
//! it is ready.

use super::{Timing, Tracer};
use crate::config::CpuConfig;
use crate::xjit::{OpClass, Retired, TimingModel};
use xobs::trace::CacheSide;

/// One run of the in-order timing model. All of its state — the global
/// cycle counter, per-register ready times and caches — persists in the
/// core's [`Timing`]; the model charges it as ops retire.
pub(crate) struct InOrderCore<'a> {
    timing: &'a mut Timing,
    config: &'a CpuConfig,
    trace: Tracer<'a>,
}

impl<'a> InOrderCore<'a> {
    /// A run charging `timing` under `config`'s latencies.
    pub(crate) fn new(timing: &'a mut Timing, config: &'a CpuConfig, trace: Tracer<'a>) -> Self {
        InOrderCore {
            timing,
            config,
            trace,
        }
    }
}

impl TimingModel for InOrderCore<'_> {
    #[inline(always)]
    fn retire(&mut self, op: &Retired<'_>) {
        let t = &mut *self.timing;
        let cfg = self.config;
        // Source-operand interlock: stall until inputs are ready.
        let before_stall = t.cycles;
        for &r in op.srcs {
            t.cycles = t.cycles.max(t.reg_ready[r as usize]);
        }
        if t.cycles > before_stall {
            self.trace.stall(op, t.cycles - before_stall, t.cycles);
        }
        // Instruction fetch, then issue.
        let fetch = op.pc as u64 * 4;
        let side = CacheSide::Instruction;
        self.trace
            .access(&mut t.icache, side, fetch, &mut t.cycles, cfg.mem_latency);
        t.cycles += 1;
        if op.class.is_mem() {
            if op.tag_fault {
                t.dcache.invalidate(op.addr as u64);
            }
            let (side, addr) = (CacheSide::Data, op.addr as u64);
            self.trace
                .access(&mut t.dcache, side, addr, &mut t.cycles, cfg.mem_latency);
        }
        if op.faulted {
            return;
        }
        match (op.class, op.dest) {
            (OpClass::Mul, Some(d)) => {
                t.reg_ready[d as usize] = t.cycles + cfg.mul_latency.saturating_sub(1) as u64;
            }
            // Load-use delay: the result arrives one cycle late.
            (OpClass::Load, Some(d)) => t.reg_ready[d as usize] = t.cycles + 1,
            (OpClass::Custom, _) => t.cycles += op.latency.saturating_sub(1) as u64,
            _ => {}
        }
        self.trace.call_or_custom(op, t.cycles);
        if op.taken {
            t.cycles += cfg.branch_penalty as u64;
            self.trace.branch(op, cfg.branch_penalty, t.cycles);
        }
        // A return's frame closes after its refill cycles, so they stay
        // inside the returning frame.
        self.trace.retire(op, t.cycles);
    }

    fn finish(self, end: Option<usize>) {
        if let Some(pc) = end {
            self.trace.finish(pc, self.timing.cycles);
        }
    }
}
