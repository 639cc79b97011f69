//! The scoreboarded out-of-order pipeline timing model (`ooo-…` core
//! family).
//!
//! # Design
//!
//! Instructions execute **functionally in program order** in the
//! executor ([`crate::xjit`]), so the architectural state is
//! bit-identical to the in-order core and the fast path by
//! construction. What differs is *when* the clock says each
//! instruction happened: the model books every retired op through an
//! analytic dataflow scoreboard that mirrors the classic Tomasulo
//! structures:
//!
//! - a **2-bit branch predictor** (per-PC saturating counters):
//!   correctly predicted branches cost nothing; a mispredict restarts
//!   the front end `branch_penalty` cycles after the branch resolves.
//!   Unconditional transfers (`j`/`call`/`ret`/`jr`) are treated as
//!   BTB/return-stack hits;
//! - a **reorder buffer** (ROB): dispatch stalls when all
//!   [`OooParams::rob_entries`] are occupied by uncommitted
//!   instructions, bounding run-ahead;
//! - **register renaming**: only true (RAW) dependences wait — the
//!   per-register table holds result *completion* times, and every
//!   writer simply overwrites its slot (WAW/WAR never stall);
//! - **reservation stations**: dispatch stalls when all
//!   [`OooParams::rs_entries`] in-flight instructions are still
//!   executing (entries free at execution completion, in any order);
//! - a **load-store queue**: at most [`OooParams::lsq_entries`] memory
//!   operations in flight (entries free at commit);
//! - **issue/retire width**: at most [`OooParams::issue_width`]
//!   dispatches and [`OooParams::retire_width`] commits per cycle,
//!   both in program order.
//!
//! Cache behavior is identical to the in-order core (same accesses, in
//! the same order, against the same `Cache` state), so hit/miss
//! *counts* agree exactly; only the cycles a miss costs land
//! differently — an I-miss delays the front end, a D-miss lengthens
//! that operation's execution instead of stalling the whole machine.
//!
//! Trace events are emitted at **commit** time, so the event stream's
//! cycle field is monotone and call-tree cycle attribution balances
//! exactly as it does in order. Stall and cache events are not emitted
//! (there is no single architectural stall point); mispredicted
//! branches emit the `TakenBranch` event carrying the refill penalty.

use super::{Timing, Tracer};
use crate::area::AreaModel;
use crate::config::CpuConfig;
use crate::xjit::{OpClass, Retired, TimingModel};
use std::collections::VecDeque;

/// Structure widths of one out-of-order core configuration.
///
/// The defaults describe a modest dual-issue machine appropriate for
/// the paper's 0.18 µm embedded setting; the fields are public so the
/// design-space exploration can enumerate family members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooParams {
    /// Instructions renamed/dispatched per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub retire_width: u32,
    /// Reorder-buffer entries (bounds run-ahead).
    pub rob_entries: u32,
    /// Reservation-station entries (bounds in-flight execution).
    pub rs_entries: u32,
    /// Load-store-queue entries (bounds in-flight memory operations).
    pub lsq_entries: u32,
    /// 2-bit branch-predictor counters (direct-mapped by PC).
    pub predictor_entries: u32,
}

impl Default for OooParams {
    fn default() -> Self {
        OooParams {
            issue_width: 2,
            retire_width: 2,
            rob_entries: 32,
            rs_entries: 16,
            lsq_entries: 8,
            predictor_entries: 256,
        }
    }
}

impl OooParams {
    /// The *CoreConfigId* for this member of the family, with every
    /// width encoded: `ooo-i<issue>x<retire>-r<rob>s<rs>l<lsq>b<pred>`.
    pub fn id(&self) -> String {
        format!(
            "ooo-i{}x{}-r{}s{}l{}b{}",
            self.issue_width,
            self.retire_width,
            self.rob_entries,
            self.rs_entries,
            self.lsq_entries,
            self.predictor_entries
        )
    }

    /// Structural gate cost of the out-of-order machinery (see
    /// [`crate::area`] for the per-entry constants).
    pub fn area_gates(&self) -> u64 {
        AreaModel::new()
            .rob_entries(self.rob_entries as u64)
            .rs_entries(self.rs_entries as u64)
            .lsq_entries(self.lsq_entries as u64)
            .predictor_counters(self.predictor_entries as u64)
            .gates()
    }
}

/// One run of the out-of-order timing model. The predictor counters
/// persist in the core's [`Timing`]; the scoreboard clocks and the
/// occupancy rings of the ROB, reservation stations and LSQ drain
/// between runs, so they live here. The ROB and LSQ free entries at
/// commit (in program order); reservation stations free at execution
/// completion (any order).
pub(crate) struct OooCore<'a> {
    timing: &'a mut Timing,
    config: &'a CpuConfig,
    p: OooParams,
    trace: Tracer<'a>,
    fetch_cycle: u64,
    last_dispatch: u64,
    last_commit: u64,
    rob: VecDeque<u64>,
    rs: Vec<u64>,
    lsq: VecDeque<u64>,
    disp_slots: VecDeque<u64>,
    commit_slots: VecDeque<u64>,
}

impl<'a> OooCore<'a> {
    /// A run of the `p` family member charging `timing` under
    /// `config`'s latencies.
    pub(crate) fn new(
        timing: &'a mut Timing,
        config: &'a CpuConfig,
        p: OooParams,
        trace: Tracer<'a>,
    ) -> Self {
        let base = timing.cycles;
        OooCore {
            timing,
            config,
            p,
            trace,
            fetch_cycle: base,
            last_dispatch: base,
            last_commit: base,
            rob: VecDeque::with_capacity(p.rob_entries as usize),
            rs: Vec::with_capacity(p.rs_entries as usize),
            lsq: VecDeque::with_capacity(p.lsq_entries as usize),
            disp_slots: VecDeque::with_capacity(p.issue_width as usize),
            commit_slots: VecDeque::with_capacity(p.retire_width as usize),
        }
    }
}

impl TimingModel for OooCore<'_> {
    #[inline(always)]
    fn retire(&mut self, op: &Retired<'_>) {
        let (t, cfg, p) = (&mut *self.timing, self.config, self.p);
        // Front end: fetch through the I-cache; a miss delays the
        // fetch stream, not the whole machine.
        if !t.icache.access(op.pc as u64 * 4) {
            self.fetch_cycle += cfg.mem_latency as u64;
        }
        // Execution latency once the operands arrive; a D-cache miss
        // lengthens it.
        let mut exec_lat = match op.class {
            OpClass::Mul => cfg.mul_latency.max(1) as u64,
            OpClass::Custom => op.latency.max(1) as u64,
            _ => 1,
        };
        let is_mem = op.class.is_mem();
        if is_mem {
            if op.tag_fault {
                t.dcache.invalidate(op.addr as u64);
            }
            if !t.dcache.access(op.addr as u64) {
                exec_lat += cfg.mem_latency as u64;
            }
        }
        if op.faulted {
            return;
        }

        // Rename/dispatch: in program order, bounded by the issue
        // width and by a free ROB entry and reservation station.
        let mut disp = self.last_dispatch.max(self.fetch_cycle + 1);
        if self.rob.len() == p.rob_entries as usize {
            if let Some(free_at) = self.rob.pop_front() {
                disp = disp.max(free_at);
            }
        }
        if self.rs.len() == p.rs_entries as usize {
            let min_ix = (0..self.rs.len())
                .min_by_key(|&i| self.rs[i])
                .expect("non-empty reservation stations");
            disp = disp.max(self.rs.swap_remove(min_ix));
        }
        if self.disp_slots.len() == p.issue_width.max(1) as usize {
            let oldest = self.disp_slots.pop_front().expect("full dispatch window");
            if disp <= oldest {
                disp = oldest + 1;
            }
        }
        self.last_dispatch = disp;
        self.disp_slots.push_back(disp);

        // Wake-up: renamed operands wait only on true (RAW)
        // dependences — the completion time of the latest writer.
        let mut ready = disp;
        for &r in op.srcs {
            ready = ready.max(t.reg_ready[r as usize]);
        }
        if is_mem && self.lsq.len() == p.lsq_entries as usize {
            if let Some(free_at) = self.lsq.pop_front() {
                ready = ready.max(free_at);
            }
        }
        let exec_done = ready + exec_lat;
        self.rs.push(exec_done);
        // Rename-table update: the destination's value exists once
        // execution completes (full bypass — consumers issue against
        // completion, never against commit).
        if let Some(d) = op.dest {
            t.reg_ready[d as usize] = exec_done;
        }

        // Branch prediction: conditional branches consult and train
        // the 2-bit counter table; unconditional transfers are
        // BTB/return-stack hits. A mispredict restarts the front end a
        // refill after the branch resolves.
        let mispredicted = op.class == OpClass::Branch && t.predict(op.pc, op.taken);
        if mispredicted {
            self.fetch_cycle = self.fetch_cycle.max(exec_done) + cfg.branch_penalty as u64;
        }

        // Commit: in program order, bounded by the retire width.
        let mut commit = self.last_commit.max(exec_done);
        if self.commit_slots.len() == p.retire_width.max(1) as usize {
            let oldest = self.commit_slots.pop_front().expect("full commit window");
            if commit <= oldest {
                commit = oldest + 1;
            }
        }
        self.last_commit = commit;
        self.commit_slots.push_back(commit);
        self.rob.push_back(commit);
        if is_mem {
            self.lsq.push_back(commit);
        }

        self.trace.call_or_custom(op, commit);
        if mispredicted {
            self.trace.branch(op, cfg.branch_penalty, commit);
        }
        self.trace.retire(op, commit);
    }

    fn finish(self, end: Option<usize>) {
        // The run's clock is the commit time of its last instruction;
        // after an error it also covers the front end's progress (the
        // counter is monotone across runs on one core).
        match end {
            Some(pc) => {
                self.timing.cycles = self.last_commit;
                self.trace.finish(pc, self.last_commit);
            }
            None => self.timing.cycles = self.last_commit.max(self.fetch_cycle),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::asm::assemble;
    use crate::config::CpuConfig;
    use crate::cpu::Cpu;
    use crate::xcore::{CoreSpec, OooParams};

    fn ooo_cpu() -> Cpu {
        Cpu::new(CpuConfig::ooo())
    }

    fn io_cpu() -> Cpu {
        Cpu::new(CpuConfig::default())
    }

    fn loop_program() -> crate::asm::Program {
        // Sum 16 words: a tight loop with a load, dependent add and a
        // backward branch — the predictor's bread and butter.
        assemble(
            "main:
                movi a0, 0x100
                movi a1, 16
                movi a2, 0
                movi a4, 0
            loop:
                lw   a3, a0, 0
                add  a2, a2, a3
                addi a0, a0, 4
                addi a1, a1, -1
                bne  a1, a4, loop
                halt",
        )
        .unwrap()
    }

    #[test]
    fn ooo_matches_inorder_architecturally() {
        let p = loop_program();
        let mut io = io_cpu();
        io.mem_mut().write_words(0x100, &[3; 16]).unwrap();
        let s_io = io.run(&p).unwrap();
        let mut ooo = ooo_cpu();
        ooo.mem_mut().write_words(0x100, &[3; 16]).unwrap();
        let s_ooo = ooo.run(&p).unwrap();
        for i in 0..16 {
            assert_eq!(io.reg(i), ooo.reg(i), "register a{i} diverged");
        }
        assert_eq!(io.reg(2), 48);
        assert_eq!(s_io.instructions, s_ooo.instructions);
        assert_eq!(s_io.dcache.misses, s_ooo.dcache.misses, "same accesses");
        assert_eq!(s_io.icache.misses, s_ooo.icache.misses);
    }

    #[test]
    fn ooo_is_faster_on_a_predictable_loop() {
        let p = loop_program();
        let mut io = io_cpu();
        io.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_io = io.run(&p).unwrap();
        let mut ooo = ooo_cpu();
        ooo.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_ooo = ooo.run(&p).unwrap();
        assert!(
            s_ooo.cycles < s_io.cycles,
            "ooo {} must beat in-order {}",
            s_ooo.cycles,
            s_io.cycles
        );
    }

    #[test]
    fn ipc_bounded_by_issue_width() {
        let p = loop_program();
        let mut ooo = ooo_cpu();
        ooo.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s = ooo.run(&p).unwrap();
        let ipc = s.instructions as f64 / s.cycles as f64;
        assert!(ipc <= 2.0, "ipc {ipc} above the dual-issue bound");
        assert!(ipc > 0.0);
    }

    #[test]
    fn narrow_structures_are_slower() {
        let narrow = CpuConfig {
            core: CoreSpec::OutOfOrder(OooParams {
                issue_width: 1,
                retire_width: 1,
                rob_entries: 2,
                rs_entries: 2,
                lsq_entries: 1,
                predictor_entries: 16,
            }),
            ..CpuConfig::default()
        };
        let p = loop_program();
        let mut wide = ooo_cpu();
        wide.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_wide = wide.run(&p).unwrap();
        let mut small = Cpu::new(narrow);
        small.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let s_small = small.run(&p).unwrap();
        assert!(
            s_small.cycles > s_wide.cycles,
            "narrow {} must trail wide {}",
            s_small.cycles,
            s_wide.cycles
        );
    }

    #[test]
    fn reset_timing_resets_the_predictor() {
        let p = loop_program();
        let mut c = ooo_cpu();
        c.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let first = c.run(&p).unwrap().cycles;
        // A second run on warm predictor + caches is cheaper…
        c.reset_timing();
        c.mem_mut().write_words(0x100, &[1; 16]).unwrap();
        let after_reset = c.run(&p).unwrap().cycles;
        // …but after reset_timing the run must reproduce the cold run
        // exactly (determinism contract).
        assert_eq!(first, after_reset);
    }

    #[test]
    fn traced_ooo_attribution_balances() {
        let p = assemble(
            "main:
                call leaf
                call leaf
                halt
             leaf:
                movi a0, 0x100
                lw   a1, a0, 0
                add  a2, a1, a1
                ret",
        )
        .unwrap();
        let mut c = ooo_cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        assert_eq!(attr.open_frames(), 0);
        assert_eq!(attr.total_cycles(), s.cycles);
        let flat = attr.flat();
        let leaf = flat.iter().find(|e| e.name == "leaf").unwrap();
        assert_eq!(leaf.calls, 2);
    }

    #[test]
    fn ooo_fuel_exhaustion_is_detected() {
        let p = assemble("spin: j spin").unwrap();
        let mut c = ooo_cpu();
        c.set_fuel(1000);
        assert!(matches!(
            c.run(&p),
            Err(crate::cpu::SimError::OutOfFuel { .. })
        ));
    }

    #[test]
    fn ooo_reports_same_errors_as_inorder() {
        let bad_load = assemble("movi a0, 0xfffffff0\n lw a1, a0, 0\n halt").unwrap();
        let mut io = io_cpu();
        let mut ooo = ooo_cpu();
        let e_io = io.run(&bad_load).unwrap_err();
        let e_ooo = ooo.run(&bad_load).unwrap_err();
        assert_eq!(e_io, e_ooo);

        let no_mul = CpuConfig {
            has_mul: false,
            ..CpuConfig::ooo()
        };
        let p = assemble("movi a0, 6\n movi a1, 7\n mul a2, a0, a1\n halt").unwrap();
        let mut soft = Cpu::new(no_mul);
        assert!(matches!(
            soft.run(&p),
            Err(crate::cpu::SimError::Illegal { pc: 2, .. })
        ));
    }
}
