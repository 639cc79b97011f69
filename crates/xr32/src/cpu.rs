//! The XR32 core: one functional executor driving a pluggable timing
//! model.
//!
//! `Cpu` owns a core's architectural state — registers, carry, memory,
//! user registers — and its timing state — cycle counter, caches,
//! ready times, predictor. A run pre-decodes the program once per core
//! and executes it on the one functional executor ([`crate::xjit`]),
//! which streams each op to the timing model selected by
//! [`CpuConfig::core`] and [`Cpu::set_fidelity`]:
//!
//! - the in-order model ([`crate::xcore::inorder`]): the paper's
//!   baseline single-issue in-order 5-stage pipeline abstraction;
//! - the out-of-order model ([`crate::xcore::ooo`]): a scoreboarded
//!   family with parameterized structure widths;
//! - no model at all under [`Fidelity::Fast`].
//!
//! A core with a [`CallMemo`] attached ([`Cpu::set_call_memo`])
//! accounts known constant-time kernel calls without executing them,
//! runs proven register-only ones on the functional executor instead
//! (or applies a record of an earlier call with the same live-in
//! registers), and applies the in-order model's cost of each
//! ([`crate::xcore::memo`]). The registers a call it did not execute
//! wrote are made exact when read.
//!
//! The architectural state after a run is therefore bit-identical
//! across core models and fidelities; only cycle accounting differs.

use crate::asm::Program;
use crate::cache::CacheStats;
use crate::config::CpuConfig;
use crate::ext::{CustomInsnError, ExtensionSet, UserRegFile};
use crate::isa::Reg;
use crate::mem::{AccessError, Memory};
use crate::xcore::memo::{MemoCall, Served};
use crate::xcore::{CallMemo, CoreSpec, InOrderCore, OooCore, Timing, Tracer};
use crate::xjit::{self, Arch, FastProgram, Fidelity, Untimed, ALL};
use std::fmt;
use xfault::FaultPlan;
use xobs::trace::TraceSink;

/// PC value that terminates a [`Cpu::call`]-style run when returned to.
pub const RETURN_SENTINEL: u32 = u32::MAX;

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A data-memory access failed.
    Mem {
        /// Instruction index of the faulting access.
        pc: usize,
        /// The underlying access error.
        source: AccessError,
    },
    /// An instruction illegal under the current configuration
    /// (e.g. `mul` without the multiplier option, unknown custom
    /// instruction).
    Illegal {
        /// Instruction index.
        pc: usize,
        /// Explanation.
        reason: String,
    },
    /// A custom instruction's semantics failed.
    Custom {
        /// Instruction index.
        pc: usize,
        /// The underlying error.
        source: CustomInsnError,
    },
    /// The program counter left the program.
    PcOutOfRange {
        /// Offending instruction index.
        pc: usize,
    },
    /// The fuel (maximum instruction) budget was exhausted — the usual
    /// sign of an infinite loop in a kernel under test.
    OutOfFuel {
        /// Instructions executed before giving up.
        executed: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem { pc, source } => write!(f, "at insn {pc}: {source}"),
            SimError::Illegal { pc, reason } => {
                write!(f, "illegal instruction at insn {pc}: {reason}")
            }
            SimError::Custom { pc, source } => write!(f, "at insn {pc}: {source}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program"),
            SimError::OutOfFuel { executed } => {
                write!(f, "out of fuel after {executed} instructions")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Mem { source, .. } => Some(source),
            SimError::Custom { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Executed-instruction counts by class, for workload analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ClassCounts {
    /// ALU and move instructions.
    pub alu: u64,
    /// Loads and stores.
    pub mem: u64,
    /// Branches, jumps, calls, returns.
    pub control: u64,
    /// Hardware multiplies.
    pub mul: u64,
    /// Custom (TIE) instructions.
    pub custom: u64,
}

impl ClassCounts {
    /// Total classified instructions.
    pub fn total(&self) -> u64 {
        self.alu + self.mem + self.control + self.mul + self.custom
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Executed instructions by class.
    pub classes: ClassCounts,
    /// Instruction-cache statistics.
    pub icache: CacheStats,
    /// Data-cache statistics.
    pub dcache: CacheStats,
    /// Whether the call memo accounted for the call without executing
    /// it (see [`CallMemo::declare_computed`]): the call's memory
    /// outputs and its return value in `a0` are then the caller's to
    /// write.
    pub skipped: bool,
}

/// A simulated XR32 core.
pub struct Cpu {
    config: CpuConfig,
    arch: Arch,
    ext: ExtensionSet,
    timing: Timing,
    fuel: u64,
    fault: Option<FaultPlan>,
    fidelity: Fidelity,
    /// Cumulative retired-instruction count across all runs (both
    /// engines) — part of the architectural state the dual-fidelity
    /// co-simulation checks compare.
    retired: u64,
    /// Pre-decoded programs, keyed by content fingerprint. Safe
    /// per-core: the configuration and extension set are fixed at
    /// construction.
    decoded: Vec<(u64, FastProgram)>,
    /// The call memo serving [`Cpu::call_at`], if attached.
    memo: Option<CallMemo>,
}

impl fmt::Debug for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (regs, carry) = self.exact(ALL);
        f.debug_struct("Cpu")
            .field("cycles", &self.timing.cycles)
            .field("regs", &regs)
            .field("carry", &carry)
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// Creates a core with the given configuration and no custom
    /// instructions.
    pub fn new(config: CpuConfig) -> Self {
        Self::with_extensions(config, ExtensionSet::new())
    }

    /// Creates a core with custom-instruction extensions. The stack
    /// pointer (`sp`) starts at the top of data memory.
    pub fn with_extensions(config: CpuConfig, ext: ExtensionSet) -> Self {
        let mut regs = [0; 16];
        regs[Reg::SP.index()] = config.mem_size as u32;
        Cpu {
            arch: Arch {
                regs,
                carry: false,
                mem: Memory::new(config.mem_size),
                uregs: UserRegFile::new(config.user_regs, config.user_reg_words),
            },
            ext,
            timing: Timing::new(&config),
            fuel: 200_000_000,
            fault: None,
            fidelity: Fidelity::CycleAccurate,
            retired: 0,
            decoded: Vec::new(),
            memo: None,
            config,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The configured extension set.
    pub fn extensions(&self) -> &ExtensionSet {
        &self.ext
    }

    /// Reads general register `i`. If a call the memo did not execute
    /// wrote it last, that call is re-executed on a scratch copy to
    /// read it (see [`crate::xcore::memo`]).
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn reg(&self, i: usize) -> u32 {
        let v = self.arch.regs[i];
        match &self.memo {
            Some(memo) if memo.is_stale(1 << i) => self.exact(1 << i).0[i],
            _ => v,
        }
    }

    /// Reads all sixteen general registers, re-executing at most once
    /// each call the memo did not execute that wrote one last.
    pub fn regs(&self) -> [u32; 16] {
        self.exact(ALL).0
    }

    /// The carry flag.
    #[cfg(test)]
    pub(crate) fn carry(&self) -> bool {
        self.exact(xjit::CARRY).1
    }

    /// The registers and carry, with the stale ones of `want` (bit 16:
    /// the carry) made exact.
    fn exact(&self, want: u32) -> ([u32; 16], bool) {
        let (mut regs, mut carry) = (self.arch.regs, self.arch.carry);
        if let Some(memo) = &self.memo {
            memo.exact(&self.decoded, &self.config, want, &mut regs, &mut carry);
        }
        (regs, carry)
    }

    /// Makes the stale registers of `want` exact on the core.
    fn settle(&mut self, want: u32) {
        if let Some(memo) = &mut self.memo {
            let (arch, config) = (&mut self.arch, &self.config);
            let done = memo.exact(&self.decoded, config, want, &mut arch.regs, &mut arch.carry);
            memo.forget(done);
        }
    }

    /// Marks the registers of `written` exact.
    fn forget(&mut self, written: u32) {
        if let Some(memo) = &mut self.memo {
            memo.forget(written);
        }
    }

    /// Writes general register `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > 15`.
    pub fn set_reg(&mut self, i: usize, v: u32) {
        self.arch.regs[i] = v;
        self.forget(1 << i);
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.arch.mem
    }

    /// Mutable access to data memory (for setting up kernel inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.arch.mem
    }

    /// The user (wide) register file.
    #[cfg(test)]
    pub(crate) fn uregs(&self) -> &UserRegFile {
        &self.arch.uregs
    }

    /// Cycles elapsed since construction or [`Cpu::reset_timing`].
    pub fn cycles(&self) -> u64 {
        self.timing.cycles
    }

    /// Sets the maximum number of instructions a run may execute before
    /// failing with [`SimError::OutOfFuel`].
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Selects the execution engine for subsequent runs. The default is
    /// [`Fidelity::CycleAccurate`]. With [`Fidelity::Fast`] selected,
    /// runs drive no timing model: architectural state (registers,
    /// carry, memory, user registers, retired count) and the draws of
    /// an armed fault plan are bit-identical, but summaries report zero
    /// cycles and zero cache activity, the core's timing state is left
    /// untouched, and trace sinks are **not** invoked.
    pub fn set_fidelity(&mut self, fidelity: Fidelity) {
        self.fidelity = fidelity;
    }

    /// The currently selected execution engine.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Attaches (or, with `None`, detaches) a call memo. While one is
    /// attached, a [`Cpu::call_at`] call of one of its declared entries
    /// on a cycle-accurate in-order core, with no trace sink and no
    /// fault plan, is replayed from the memo when its key is known and
    /// its footprint resident, and recorded otherwise; a call of a
    /// register-only entry is timed from its proven cost table when its
    /// code is resident, or applied from the record of an earlier
    /// tabled call with the same live-in registers, which writes the
    /// registers it wrote. Every cycle, cache statistic and later hit or
    /// miss is the plain model's (see [`crate::xcore::memo`]). A
    /// replayed call of a keyed entry does not execute: the registers
    /// it writes are made exact when read, and its caller writes its
    /// memory outputs and return value ([`RunSummary::skipped`]). Other
    /// runs ignore the memo, and start from exact registers. Replacing
    /// a memo makes every register exact first.
    pub fn set_call_memo(&mut self, memo: Option<CallMemo>) {
        self.settle(ALL);
        self.memo = memo;
    }

    /// The attached call memo, if any.
    pub fn call_memo(&self) -> Option<&CallMemo> {
        self.memo.as_ref()
    }

    /// Whether every register's result is ready by the clock.
    #[cfg(test)]
    pub(crate) fn settled(&self) -> bool {
        self.timing
            .reg_ready
            .iter()
            .all(|&r| r <= self.timing.cycles)
    }

    /// Instructions retired across all runs on this core (both
    /// engines), part of the architectural state compared by the
    /// dual-fidelity co-simulation checks. Not cleared by
    /// [`Cpu::reset_timing`].
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Arms a fault-injection plan: subsequent runs consult it at the
    /// data-memory, register-file, cache-tag and custom-instruction
    /// hook points. With no plan armed (the default), those hook points
    /// cost one `Option` test and execution is bit-identical to a core
    /// without the feature.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Disarms and returns the current fault plan (with its per-site
    /// fired-injection counters), if any.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Clears cycles, caches, registers, the carry flag and the core
    /// model's internal timing state such as branch-predictor counters
    /// (memory is preserved).
    pub fn reset_timing(&mut self) {
        self.forget(ALL);
        self.timing.reset();
        self.arch.regs = [0; 16];
        self.arch.regs[Reg::SP.index()] = self.config.mem_size as u32;
        self.arch.carry = false;
        self.arch.uregs.clear();
    }

    /// Runs `program` from its `main` label (or instruction 0 when no
    /// `main` exists) until `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run(&mut self, program: &Program) -> Result<RunSummary, SimError> {
        self.run_traced(program, None)
    }

    /// Like [`Cpu::run`], with an optional [`TraceSink`] observing the
    /// execution. The run is bracketed by a synthetic Call/Ret pair for
    /// the entry point, so cycle attribution over the event stream
    /// accounts for every simulated cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run_traced(
        &mut self,
        program: &Program,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        let entry = program.label("main").unwrap_or(0);
        self.run_from_traced(program, entry, sink)
    }

    /// Runs `program` starting at instruction index `entry` until `halt`
    /// or a return to [`RETURN_SENTINEL`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    pub fn run_from(&mut self, program: &Program, entry: usize) -> Result<RunSummary, SimError> {
        self.run_from_traced(program, entry, None)
    }

    /// Like [`Cpu::run_from`], with an optional [`TraceSink`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on faults or fuel exhaustion.
    fn run_from_traced(
        &mut self,
        program: &Program,
        entry: usize,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        let entry_name = program.label_at(entry).unwrap_or("<entry>").to_owned();
        self.execute(program, entry, &entry_name, sink, false)
    }

    /// Calls a labeled routine: loads `args` into `a0…`, runs until the
    /// routine returns (or halts), and returns the summary. The routine's
    /// return value convention is `a0` (read it with [`Cpu::reg`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Illegal`] if the label is undefined, and any
    /// simulation error from the run itself.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied (a0–a5 is the
    /// argument convention).
    pub fn call(
        &mut self,
        program: &Program,
        label: &str,
        args: &[u32],
    ) -> Result<RunSummary, SimError> {
        self.call_traced(program, label, args, None)
    }

    /// Like [`Cpu::call`], with an optional [`TraceSink`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Illegal`] if the label is undefined, and any
    /// simulation error from the run itself.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied (a0–a5 is the
    /// argument convention).
    pub fn call_traced(
        &mut self,
        program: &Program,
        label: &str,
        args: &[u32],
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        let entry = program.label(label).ok_or_else(|| SimError::Illegal {
            pc: 0,
            reason: format!("undefined entry label {label:?}"),
        })?;
        self.call_at(program, entry, label, args, sink)
    }

    /// Like [`Cpu::call_traced`], with the routine's entry already
    /// resolved to instruction index `entry`; `name` labels the entry
    /// frame of a traced run. Callers that invoke the same routines
    /// many times resolve their labels once and call through this.
    ///
    /// # Errors
    ///
    /// Returns any simulation error from the run.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied (a0–a5 is the
    /// argument convention).
    pub fn call_at(
        &mut self,
        program: &Program,
        entry: usize,
        name: &str,
        args: &[u32],
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<RunSummary, SimError> {
        assert!(args.len() <= 6, "at most 6 register arguments (a0-a5)");
        self.arch.regs[..args.len()].copy_from_slice(args);
        self.arch.regs[Reg::RA.index()] = RETURN_SENTINEL;
        self.forget(((1 << args.len()) - 1) | (1 << Reg::RA.index()));
        self.execute(program, entry, name, sink, true)
    }

    /// Runs `program` from `entry`. `call` marks a [`Cpu::call_at`]
    /// call, which returns to [`RETURN_SENTINEL`] and may be served by
    /// the call memo.
    fn execute(
        &mut self,
        program: &Program,
        entry: usize,
        entry_name: &str,
        sink: Option<&mut (dyn TraceSink + '_)>,
        call: bool,
    ) -> Result<RunSummary, SimError> {
        let fp = program.fingerprint();
        let ix = match self.decoded.iter().position(|(key, _)| *key == fp) {
            Some(ix) => ix,
            None => {
                let decoded = FastProgram::decode(program, &self.config, &self.ext);
                self.decoded.push((fp, decoded));
                self.decoded.len() - 1
            }
        };
        let start = self.timing.cycles;
        let (icache, dcache) = (self.timing.icache.stats(), self.timing.dcache.stats());
        let memoizable = call
            && sink.is_none()
            && self.fault.is_none()
            && self.fidelity == Fidelity::CycleAccurate
            && self.config.core == CoreSpec::InOrder;
        let served = loop {
            let prog = &self.decoded[ix].1;
            let served = match self.memo.as_mut() {
                Some(memo) if memoizable => memo.call(MemoCall {
                    program,
                    prog,
                    entry,
                    arch: &mut self.arch,
                    fuel: self.fuel,
                    timing: &mut self.timing,
                    config: &self.config,
                }),
                _ => None,
            };
            match served {
                Some(Served::Settle(want)) => self.settle(want),
                Some(Served::Ran(out)) => break Some((out, false)),
                Some(Served::Skipped(classes)) => break Some((Ok(classes), true)),
                // A run the memo does not serve reads what it likes.
                None => {
                    self.settle(ALL);
                    break None;
                }
            }
        };
        let prog = &self.decoded[ix].1;
        let (arch, fuel, fault) = (&mut self.arch, self.fuel, self.fault.as_mut());
        let (classes, skipped) = match (served, self.fidelity, self.config.core) {
            (Some(served), _, _) => served,
            (None, Fidelity::Fast, _) => {
                (xjit::run(prog, entry, arch, fuel, fault, Untimed), false)
            }
            (None, Fidelity::CycleAccurate, core) => {
                let trace = Tracer::new(sink, program, entry, entry_name, start);
                let (timing, config) = (&mut self.timing, &self.config);
                let out = match core {
                    CoreSpec::InOrder => {
                        let model = InOrderCore::new(timing, config, trace);
                        xjit::run(prog, entry, arch, fuel, fault, model)
                    }
                    CoreSpec::OutOfOrder(p) => {
                        let model = OooCore::new(timing, config, p, trace);
                        xjit::run(prog, entry, arch, fuel, fault, model)
                    }
                };
                (out, false)
            }
        };
        let classes = classes?;
        self.retired += classes.total();
        let since = |now: CacheStats, before: CacheStats| CacheStats {
            hits: now.hits - before.hits,
            misses: now.misses - before.misses,
        };
        Ok(RunSummary {
            cycles: self.timing.cycles - start,
            instructions: classes.total(),
            classes,
            icache: since(self.timing.icache.stats(), icache),
            dcache: since(self.timing.dcache.stats(), dcache),
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::ext::CustomInsnDef;

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::default())
    }

    #[test]
    fn arithmetic_and_halt() {
        let p = assemble("movi a2, 20\n movi a3, 22\n add a4, a2, a3\n halt").unwrap();
        let mut c = cpu();
        let s = c.run(&p).unwrap();
        assert_eq!(c.reg(4), 42);
        assert_eq!(s.instructions, 4);
        assert!(s.cycles >= 4);
    }

    #[test]
    fn carry_chain_addc() {
        // 0xffffffff + 1 with carry into the next word.
        let p = assemble(
            "movi a2, 0xffffffff
             movi a3, 1
             movi a4, 0
             movi a5, 0
             add  a6, a2, a2   ; does not touch carry
             addc a6, a2, a3   ; sets carry
             addc a7, a4, a5   ; consumes carry
             halt",
        )
        .unwrap();
        let mut c = cpu();
        c.run(&p).unwrap();
        // addc a6, a2, a3 -> a6 = 0, carry = 1; addc a7 consumes the carry.
        assert_eq!(c.reg(6), 0);
        assert_eq!(c.reg(7), 1);
    }

    #[test]
    fn loop_sums_memory() {
        // Sum four words written by the host.
        let p = assemble(
            "main:
                movi a0, 0x100   ; ptr
                movi a1, 4       ; count
                movi a2, 0       ; acc
            loop:
                lw   a3, a0, 0
                add  a2, a2, a3
                addi a0, a0, 4
                addi a1, a1, -1
                movi a4, 0
                bne  a1, a4, loop
                halt",
        )
        .unwrap();
        let mut c = cpu();
        c.mem_mut().write_words(0x100, &[10, 20, 30, 40]).unwrap();
        c.run(&p).unwrap();
        assert_eq!(c.reg(2), 100);
    }

    #[test]
    fn call_convention_and_sentinel_return() {
        let p = assemble(
            "double:
                add a0, a0, a0
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let s = c.call(&p, "double", &[21]).unwrap();
        assert_eq!(c.reg(0), 42);
        assert_eq!(s.instructions, 2);
    }

    #[test]
    fn nested_calls_profile_edges() {
        let p = assemble(
            "main:
                call outer
                halt
             outer:
                addi sp, sp, -4
                sw   ra, sp, 0
                call inner
                call inner
                lw   ra, sp, 0
                addi sp, sp, 4
                ret
             inner:
                nop
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        let flat = attr.flat();
        let find = |name: &str| flat.iter().find(|e| e.name == name).unwrap();
        assert_eq!(find("outer").calls, 1);
        assert_eq!(find("inner").calls, 2);
        assert_eq!(attr.total_cycles(), s.cycles);
    }

    #[test]
    fn mul_requires_option() {
        let p = assemble("movi a0, 6\n movi a1, 7\n mul a2, a0, a1\n halt").unwrap();
        let mut soft = Cpu::new(CpuConfig {
            has_mul: false,
            ..CpuConfig::default()
        });
        assert!(matches!(soft.run(&p), Err(SimError::Illegal { pc: 2, .. })));
        let mut hard = cpu();
        hard.run(&p).unwrap();
        assert_eq!(hard.reg(2), 42);
    }

    #[test]
    fn mulhu_computes_high_word() {
        let p = assemble("movi a0, 0x80000000\n movi a1, 4\n mulhu a2, a0, a1\n halt").unwrap();
        let mut c = cpu();
        c.run(&p).unwrap();
        assert_eq!(c.reg(2), 2);
    }

    #[test]
    fn out_of_fuel_detected() {
        let p = assemble("spin: j spin").unwrap();
        let mut c = cpu();
        c.set_fuel(1000);
        assert!(matches!(c.run(&p), Err(SimError::OutOfFuel { .. })));
    }

    #[test]
    fn pc_out_of_range_detected() {
        let p = assemble("nop").unwrap(); // falls off the end
        let mut c = cpu();
        assert!(matches!(c.run(&p), Err(SimError::PcOutOfRange { pc: 1 })));
    }

    #[test]
    fn memory_fault_reported_with_pc() {
        let p = assemble("movi a0, 0xfffffff0\n lw a1, a0, 0\n halt").unwrap();
        let mut c = cpu();
        match c.run(&p) {
            Err(SimError::Mem { pc: 1, .. }) => {}
            other => panic!("expected memory fault, got {other:?}"),
        }
    }

    #[test]
    fn custom_instruction_executes_with_latency() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 5, 100, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble("movi a3, 40\n cust addimm a3, 2\n halt").unwrap();
        let mut fast = Cpu::with_extensions(CpuConfig::default(), ext);
        let s = fast.run(&p).unwrap();
        assert_eq!(fast.reg(3), 42);
        // movi(1) + custom(5) + halt(1) + fetch misses.
        assert!(s.cycles >= 7);
    }

    #[test]
    fn unknown_custom_instruction_is_illegal() {
        let p = assemble("cust nosuch a0\n halt").unwrap();
        let mut c = cpu();
        assert!(matches!(c.run(&p), Err(SimError::Illegal { pc: 0, .. })));
    }

    #[test]
    fn taken_branch_costs_more_than_fallthrough() {
        let taken = assemble("movi a0, 1\n movi a1, 1\n beq a0, a1, t\n t: halt").unwrap();
        let fall = assemble("movi a0, 1\n movi a1, 2\n beq a0, a1, t\n t: halt").unwrap();
        let mut c1 = cpu();
        let s1 = c1.run(&taken).unwrap();
        let mut c2 = cpu();
        let s2 = c2.run(&fall).unwrap();
        assert!(
            s1.cycles > s2.cycles,
            "taken {} vs fallthrough {}",
            s1.cycles,
            s2.cycles
        );
    }

    #[test]
    fn load_use_stall_costs_a_cycle() {
        // Using a load result immediately should be slower than spacing
        // it with an independent instruction.
        let tight = assemble(
            "movi a0, 0x100
             lw   a1, a0, 0
             add  a2, a1, a1
             movi a3, 7
             halt",
        )
        .unwrap();
        let spaced = assemble(
            "movi a0, 0x100
             lw   a1, a0, 0
             movi a3, 7
             add  a2, a1, a1
             halt",
        )
        .unwrap();
        let mut c1 = cpu();
        let s1 = c1.run(&tight).unwrap();
        let mut c2 = cpu();
        let s2 = c2.run(&spaced).unwrap();
        assert_eq!(s1.instructions, s2.instructions);
        assert!(s1.cycles > s2.cycles, "{} vs {}", s1.cycles, s2.cycles);
    }

    #[test]
    fn dcache_misses_cost_mem_latency() {
        // Two loads to the same line: second hits.
        let p = assemble(
            "movi a0, 0x100
             lw a1, a0, 0
             lw a2, a0, 4
             halt",
        )
        .unwrap();
        let mut c = cpu();
        let s = c.run(&p).unwrap();
        assert_eq!(s.dcache.misses, 1);
        assert_eq!(s.dcache.hits, 1);
    }

    #[test]
    fn classes_are_counted() {
        let p = assemble(
            "main:
                movi a0, 0x100
                lw   a1, a0, 0
                sw   a1, a0, 4
                mul  a2, a1, a1
                j    end
             end:
                halt",
        )
        .unwrap();
        let s = cpu().run(&p).unwrap();
        assert_eq!(s.classes.mem, 2);
        assert_eq!(s.classes.mul, 1);
        assert_eq!(s.classes.control, 1);
        assert!(s.classes.alu >= 1);
        assert_eq!(s.classes.total(), s.instructions);
    }

    fn nested_program() -> crate::asm::Program {
        assemble(
            "main:
                call outer
                call outer
                halt
             outer:
                addi sp, sp, -4
                sw   ra, sp, 0
                call inner
                lw   ra, sp, 0
                addi sp, sp, 4
                ret
             inner:
                movi a0, 0x100
                lw   a1, a0, 0
                add  a2, a1, a1
                ret",
        )
        .unwrap()
    }

    #[test]
    fn tracing_has_zero_observer_effect() {
        let p = nested_program();
        let mut plain = cpu();
        let s_plain = plain.run(&p).unwrap();
        let mut traced = cpu();
        let mut sink = xobs::VecSink::new();
        let s_traced = traced.run_traced(&p, Some(&mut sink)).unwrap();
        assert_eq!(s_plain.cycles, s_traced.cycles);
        assert_eq!(s_plain.instructions, s_traced.instructions);
        for i in 0..16 {
            assert_eq!(plain.reg(i), traced.reg(i), "register a{i} diverged");
        }
        assert!(!sink.events().is_empty());
    }

    #[test]
    fn attribution_root_equals_total_cycles_across_runs() {
        // Two cpu.call invocations on one core: the cycle counter
        // persists, and attribution over the combined stream must cover
        // every cycle.
        let p = assemble(
            "double:
                add a0, a0, a0
                ret
             triple:
                add a1, a0, a0
                add a0, a1, a0
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        c.call_traced(&p, "double", &[21], Some(&mut attr)).unwrap();
        c.call_traced(&p, "triple", &[5], Some(&mut attr)).unwrap();
        assert_eq!(attr.open_frames(), 0);
        assert_eq!(attr.unmatched_rets(), 0);
        assert_eq!(attr.total_cycles(), c.cycles());
    }

    #[test]
    fn attribution_accounts_every_cycle_of_nested_calls() {
        let p = nested_program();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        assert_eq!(attr.total_cycles(), s.cycles);
        let flat = attr.flat();
        let outer = flat.iter().find(|e| e.name == "outer").unwrap();
        let inner = flat.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.calls, 2, "main calls outer twice");
        assert_eq!(inner.calls, 2, "each outer calls inner once");
        assert!(
            inner.inclusive < outer.inclusive,
            "callee inclusive ({}) must nest inside caller inclusive ({})",
            inner.inclusive,
            outer.inclusive
        );
        let exclusive_sum: u64 = flat.iter().map(|e| e.exclusive).sum();
        assert_eq!(
            exclusive_sum, s.cycles,
            "exclusive cycles partition the run"
        );
    }

    #[test]
    fn recursion_attribution_counts_topmost_only() {
        // count(n): if n == 0 return else count(n - 1). Pins the
        // topmost-only recursion accounting over raw call/ret events:
        // inclusive cycles must not double-count nested activations.
        let p = assemble(
            "main:
                movi a0, 5
                call count
                halt
             count:
                movi a7, 0
                beq  a0, a7, done
                addi a0, a0, -1
                addi sp, sp, -4
                sw   ra, sp, 0
                call count
                lw   ra, sp, 0
                addi sp, sp, 4
             done:
                ret",
        )
        .unwrap();
        let mut c = cpu();
        let mut attr = xobs::Attribution::new();
        let s = c.run_traced(&p, Some(&mut attr)).unwrap();
        let traced = attr.flat().into_iter().find(|e| e.name == "count").unwrap();
        assert_eq!(traced.calls, 6);
        assert!(
            traced.inclusive <= s.cycles,
            "inclusive {} must not exceed run total {}",
            traced.inclusive,
            s.cycles
        );
        assert!(traced.exclusive <= traced.inclusive);
        assert_eq!(attr.total_cycles(), s.cycles);
    }

    #[test]
    fn fault_plan_with_zero_rate_is_bit_identical_to_no_plan() {
        let p = nested_program();
        let mut plain = cpu();
        let s_plain = plain.run(&p).unwrap();
        let mut faulted = cpu();
        faulted.set_fault_plan(xfault::PlanSpec::all_sites(1, 0).plan(0));
        let s_faulted = faulted.run(&p).unwrap();
        assert_eq!(s_plain.cycles, s_faulted.cycles);
        assert_eq!(s_plain.instructions, s_faulted.instructions);
        for i in 0..16 {
            assert_eq!(plain.reg(i), faulted.reg(i), "register a{i} diverged");
        }
        assert_eq!(faulted.take_fault_plan().unwrap().total_fired(), 0);
    }

    #[test]
    fn data_fault_flips_a_loaded_bit() {
        let p = assemble("movi a0, 0x100\n lw a1, a0, 0\n halt").unwrap();
        let mut c = cpu();
        c.mem_mut().write_words(0x100, &[42]).unwrap();
        let spec = xfault::PlanSpec::new(7, 1_000_000, &[xfault::FaultSite::DataMem]);
        c.set_fault_plan(spec.plan(0));
        c.run(&p).unwrap();
        let got = c.reg(1);
        assert_ne!(got, 42, "a certain data fault must corrupt the load");
        assert_eq!((got ^ 42).count_ones(), 1, "exactly one bit flips");
        assert_eq!(
            c.take_fault_plan()
                .unwrap()
                .fired(xfault::FaultSite::DataMem),
            1
        );
    }

    #[test]
    fn same_fault_seed_reproduces_the_same_corruption() {
        let p = assemble("movi a0, 0x100\n lw a1, a0, 0\n lw a2, a0, 4\n halt").unwrap();
        let spec = xfault::PlanSpec::new(99, 400_000, &[xfault::FaultSite::DataMem]);
        let run = |stream: u64| {
            let mut c = cpu();
            c.mem_mut().write_words(0x100, &[1111, 2222]).unwrap();
            c.set_fault_plan(spec.plan(stream));
            c.run(&p).unwrap();
            (c.reg(1), c.reg(2))
        };
        assert_eq!(run(5), run(5), "same seed+stream, same corruption");
    }

    #[test]
    fn cache_tag_fault_perturbs_timing_not_results() {
        let p = assemble(
            "movi a0, 0x100
             lw a1, a0, 0
             lw a2, a0, 0
             lw a3, a0, 0
             add a4, a1, a2
             add a4, a4, a3
             halt",
        )
        .unwrap();
        let mut plain = cpu();
        plain.mem_mut().write_words(0x100, &[5]).unwrap();
        let s_plain = plain.run(&p).unwrap();
        let mut faulted = cpu();
        faulted.mem_mut().write_words(0x100, &[5]).unwrap();
        faulted.set_fault_plan(
            xfault::PlanSpec::new(3, 1_000_000, &[xfault::FaultSite::CacheTag]).plan(0),
        );
        let s_faulted = faulted.run(&p).unwrap();
        assert_eq!(
            plain.reg(4),
            faulted.reg(4),
            "tag corruption is benign to data"
        );
        assert!(
            s_faulted.dcache.misses > s_plain.dcache.misses,
            "every corrupted tag forces a refill"
        );
        assert!(s_faulted.cycles > s_plain.cycles, "misses cost latency");
    }

    #[test]
    fn custom_result_fault_sticks_a_bit() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("zero", 1, 10, |ctx, op| {
            ctx.regs[op.regs[0].index()] = 0;
            Ok(())
        }));
        let p = assemble("cust zero a3\n halt").unwrap();
        let mut c = Cpu::with_extensions(CpuConfig::default(), ext);
        c.set_fault_plan(
            xfault::PlanSpec::new(11, 1_000_000, &[xfault::FaultSite::CustomResult]).plan(0),
        );
        c.run(&p).unwrap();
        assert_eq!(c.reg(3).count_ones(), 1, "stuck-at-one on one result line");
    }

    #[test]
    fn trace_events_cover_all_hook_points() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 3, 50, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble(
            "main:
                movi a0, 0x100
                lw   a1, a0, 0
                add  a2, a1, a1    ; load-use stall
                cust addimm a2, 1
                movi a3, 1
                movi a4, 1
                beq  a3, a4, end   ; taken branch
             end:
                halt",
        )
        .unwrap();
        let mut c = Cpu::with_extensions(CpuConfig::default(), ext);
        let mut stats = xobs::EventStats::new();
        let s = c.run_traced(&p, Some(&mut stats)).unwrap();
        assert_eq!(stats.retires, s.instructions);
        assert!(stats.stalls >= 1, "expected a load-use stall event");
        assert!(stats.taken_branches >= 1);
        assert_eq!(stats.custom.get("addimm"), Some(&1));
        assert_eq!(
            stats.icache.hits + stats.icache.misses,
            s.icache.hits + s.icache.misses
        );
        assert_eq!(
            stats.dcache.hits + stats.dcache.misses,
            s.dcache.hits + s.dcache.misses
        );
        assert_eq!(stats.last_cycle, c.cycles());
    }

    /// A kernel-shaped routine: a counted loop of loads, multiplies and
    /// stores closed by a conditional branch, ending in a return.
    fn scale_kernel() -> Program {
        assemble(
            "scale:
                movi a4, 0
             .loop:
                lw   a5, a1, 0
                mul  a6, a5, a3
                sw   a6, a0, 0
                addi a0, a0, 4
                addi a1, a1, 4
                addi a2, a2, -1
                bne  a2, a4, .loop
                ret",
        )
        .unwrap()
    }

    #[test]
    fn call_at_is_call_with_a_resolved_entry() {
        let p = scale_kernel();
        let args = [0x4000, 0x2000, 8, 3];
        let mut by_label = cpu();
        let a = by_label.call(&p, "scale", &args).unwrap();
        let mut by_entry = cpu();
        let entry = p.label("scale").unwrap();
        let b = by_entry.call_at(&p, entry, "scale", &args, None).unwrap();
        assert_eq!((a.cycles, a.instructions), (b.cycles, b.instructions));
        assert_eq!(by_label.mem().digest(), by_entry.mem().digest());
        let err = by_label.call(&p, "nope", &args).unwrap_err();
        assert!(err.to_string().contains("undefined entry label"), "{err}");
    }
}
