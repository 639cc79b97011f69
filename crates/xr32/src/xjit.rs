//! xjit: the functional executor — the one place the XR32 ISA
//! semantics live.
//!
//! Every run, at every fidelity, executes here. A
//! [`crate::asm::Program`] is pre-decoded once per core into a
//! basic-block cache of resolved micro-ops:
//!
//! - immediates folded to `u32` operands,
//! - register operands narrowed to raw indices,
//! - custom-instruction handlers and latencies resolved at decode time
//!   (no per-step `BTreeMap` lookup),
//! - each op's class and its source and destination registers
//!   resolved once (no per-step allocation),
//! - branch targets linked, and blocks tiling the program contiguously
//!   so *any* entry pc (labels, `jr`/`ret` targets) maps to a block
//!   suffix,
//!
//! and executes them with threaded dispatch over straight-line block
//! slices. The executor owns the architectural state (registers, carry,
//! memory, user registers), the retired-instruction count, fuel, and
//! every fault-plan hook point. Timing is someone else's job: after
//! each op the executor streams one `Retired` record to a
//! `TimingModel`, which owns cycles, caches and trace events. The
//! cycle-accurate core models of [`crate::xcore`] are timing models;
//! [`Fidelity::Fast`] runs the same loop with the zero-sized
//! `Untimed` model, for which no record is ever built.
//!
//! Select the engine per-core with [`crate::cpu::Cpu::set_fidelity`];
//! the default everywhere is [`Fidelity::CycleAccurate`] so cycle
//! measurements can never silently land on the fast path.

use crate::asm::Program;
use crate::config::CpuConfig;
use crate::cpu::{ClassCounts, SimError, RETURN_SENTINEL};
use crate::ext::{CustomFn, ExecCtx, ExtensionSet, UserRegFile};
use crate::isa::{CustomOp, Insn};
use crate::mem::Memory;
use std::ops::Range;
use xfault::FaultPlan;

/// Which execution engine a [`crate::cpu::Cpu`] run uses.
///
/// Both run the one functional executor in [`crate::xjit`], so
/// architectural results — registers, memory, retired counts, errors
/// and the draws of an armed fault plan — are identical.
/// `CycleAccurate` is the default: the executor drives the configured
/// core's timing model (caches, interlocks or scoreboard), the only
/// source cycle measurements may come from. `Fast` drives no timing
/// model: summaries report zero cycles and zero cache activity, and
/// trace sinks are not invoked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Fidelity {
    /// Full pipeline/cache timing model (the measurement engine).
    #[default]
    CycleAccurate,
    /// Functional execution only (architectural state, no timing).
    Fast,
}

/// One resolved micro-op, 1:1 with the source instructions (the
/// executor knows each op's pc). Register operands are raw indices and
/// immediates are pre-folded to the `u32` the ALU consumes.
enum FastOp {
    Add(u8, u8, u8),
    Addc(u8, u8, u8),
    Sub(u8, u8, u8),
    Subc(u8, u8, u8),
    And(u8, u8, u8),
    Or(u8, u8, u8),
    Xor(u8, u8, u8),
    Sll(u8, u8, u8),
    Srl(u8, u8, u8),
    Sra(u8, u8, u8),
    Sltu(u8, u8, u8),
    Slt(u8, u8, u8),
    Mul(u8, u8, u8),
    Mulhu(u8, u8, u8),
    /// `mul`/`mulhu` decoded on a core without the multiplier option:
    /// an error only if executed.
    MulIllegal,
    Addi(u8, u8, u32),
    Andi(u8, u8, u32),
    Ori(u8, u8, u32),
    Xori(u8, u8, u32),
    Slli(u8, u8, u32),
    Srli(u8, u8, u32),
    Srai(u8, u8, u32),
    Movi(u8, u32),
    Mov(u8, u8),
    /// Loads `(d, base, off)` and stores `(v, base, off)`.
    Lw(u8, u8, u32),
    Lbu(u8, u8, u32),
    Lhu(u8, u8, u32),
    Sw(u8, u8, u32),
    Sb(u8, u8, u32),
    Sh(u8, u8, u32),
    /// Conditional branches `(a, b, target)`.
    Beq(u8, u8, u32),
    Bne(u8, u8, u32),
    Bltu(u8, u8, u32),
    Bgeu(u8, u8, u32),
    Blt(u8, u8, u32),
    Bge(u8, u8, u32),
    J(u32),
    Call(u32),
    Jr(u8),
    Ret,
    Clc,
    Nop,
    Halt,
    /// Custom instruction with its handler and latency resolved at
    /// decode time.
    Custom {
        exec: CustomFn,
        op: Box<CustomOp>,
        latency: u32,
    },
    /// Custom instruction whose name was unknown at decode time: an
    /// error only if executed.
    CustomUnknown(Box<str>),
}

/// What an op is, as far as class counts and timing models care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpClass {
    /// ALU, move, `clc`, `nop` and `halt`.
    Alu,
    /// `mul`/`mulhu`.
    Mul,
    /// `lw`/`lbu`/`lhu`.
    Load,
    /// `sw`/`sb`/`sh`.
    Store,
    /// Conditional branches.
    Branch,
    /// `j` and `jr`.
    Jump,
    /// `call`.
    Call,
    /// `ret`.
    Ret,
    /// Custom instructions.
    Custom,
}

impl OpClass {
    const COUNT: usize = 9;

    /// Loads and stores.
    pub(crate) fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

/// Per-op facts resolved at decode for the timing models.
struct OpInfo {
    class: OpClass,
    /// Register written, if any (custom ops: their first register).
    dest: Option<u8>,
    /// The op's source registers, as a range of `FastProgram::srcs`.
    srcs: Range<u32>,
}

/// The carry flag's bit in a write set; bits 0–15 are the general
/// registers.
pub(crate) const CARRY: u32 = 1 << 16;

/// Every general register and the carry, as a register mask.
pub(crate) const ALL: u32 = 0xffff | CARRY;

/// The bit that marks a write set holding a custom op's.
pub(crate) const CUSTOM: u32 = 1 << 17;

/// The timing facts of one op, streamed by the executor to the
/// [`TimingModel`] after the op's functional effects.
pub(crate) struct Retired<'a> {
    /// Instruction index.
    pub pc: usize,
    /// The op's class.
    pub class: OpClass,
    /// Registers read (true dependences).
    pub srcs: &'a [u8],
    /// Register written, if any.
    pub dest: Option<u8>,
    /// Effective address of a load or store.
    pub addr: u32,
    /// Whether the cache-tag fault hook fired on this load or store.
    pub tag_fault: bool,
    /// Whether control transferred (taken branch, jump, call, return).
    pub taken: bool,
    /// The pc that executes next.
    pub next_pc: usize,
    /// Registered latency of a custom op (0 otherwise).
    pub latency: u32,
    /// The op raised the run's error after issuing: a model charges
    /// what the hardware did up to the fault and nothing after it.
    pub faulted: bool,
}

/// How control leaves an op that reads and writes nothing but
/// registers and the carry (see [`FastProgram::register_flow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Falls through to the next op.
    Next,
    /// A conditional branch to the target.
    Branch(usize),
    /// `j` to the target.
    Jump(usize),
    /// `ret`.
    Ret,
}

/// A consumer of the executor's per-op stream: a core's timing model.
pub(crate) trait TimingModel {
    /// `false` only for [`Untimed`]: the executor then builds no
    /// records at all.
    const TIMED: bool = true;

    /// Accounts one op.
    fn retire(&mut self, op: &Retired<'_>);

    /// Closes the run: `Some(pc)` after a halt or a sentinel return
    /// (`pc` is the final pc), `None` after an error.
    fn finish(self, end: Option<usize>);
}

/// The fast path's timing model: none at all.
pub(crate) struct Untimed;

impl TimingModel for Untimed {
    const TIMED: bool = false;

    fn retire(&mut self, _: &Retired<'_>) {}

    fn finish(self, _: Option<usize>) {}
}

/// A core's architectural state: everything the ISA semantics read or
/// write.
pub(crate) struct Arch {
    pub regs: [u32; 16],
    pub carry: bool,
    pub mem: Memory,
    pub uregs: UserRegFile,
}

/// A pre-decoded program: micro-ops 1:1 with the source instructions,
/// tiled into basic blocks. `block_end[pc]` is the exclusive end of the
/// straight-line slice containing `pc`, so execution enters a block at
/// any offset (computed `jr`/`ret` targets included) and runs without
/// per-step control checks until the block boundary.
pub(crate) struct FastProgram {
    ops: Vec<FastOp>,
    /// Timing facts per op (parallel to `ops`).
    info: Vec<OpInfo>,
    /// Source registers of all ops, concatenated.
    srcs: Vec<u8>,
    /// Exclusive end of the basic block containing each pc.
    block_end: Vec<u32>,
    /// Whether any op is a custom instruction.
    has_custom: bool,
}

impl FastProgram {
    /// Pre-decodes `program` for the given core configuration and
    /// extension set. Decode never fails: configuration errors (missing
    /// multiplier, unknown custom name) become error-on-execute ops.
    pub(crate) fn decode(program: &Program, config: &CpuConfig, ext: &ExtensionSet) -> Self {
        use OpClass as C;
        let insns = program.insns();
        let n = insns.len();
        let mut ops = Vec::with_capacity(n);
        let mut info = Vec::with_capacity(n);
        let mut srcs = Vec::new();
        for insn in insns {
            let r = |r: &crate::isa::Reg| r.index() as u8;
            let (op, class) = match insn {
                Insn::Add(d, a, b) => (FastOp::Add(r(d), r(a), r(b)), C::Alu),
                Insn::Addc(d, a, b) => (FastOp::Addc(r(d), r(a), r(b)), C::Alu),
                Insn::Sub(d, a, b) => (FastOp::Sub(r(d), r(a), r(b)), C::Alu),
                Insn::Subc(d, a, b) => (FastOp::Subc(r(d), r(a), r(b)), C::Alu),
                Insn::And(d, a, b) => (FastOp::And(r(d), r(a), r(b)), C::Alu),
                Insn::Or(d, a, b) => (FastOp::Or(r(d), r(a), r(b)), C::Alu),
                Insn::Xor(d, a, b) => (FastOp::Xor(r(d), r(a), r(b)), C::Alu),
                Insn::Sll(d, a, b) => (FastOp::Sll(r(d), r(a), r(b)), C::Alu),
                Insn::Srl(d, a, b) => (FastOp::Srl(r(d), r(a), r(b)), C::Alu),
                Insn::Sra(d, a, b) => (FastOp::Sra(r(d), r(a), r(b)), C::Alu),
                Insn::Sltu(d, a, b) => (FastOp::Sltu(r(d), r(a), r(b)), C::Alu),
                Insn::Slt(d, a, b) => (FastOp::Slt(r(d), r(a), r(b)), C::Alu),
                Insn::Mul(d, a, b) if config.has_mul => (FastOp::Mul(r(d), r(a), r(b)), C::Mul),
                Insn::Mulhu(d, a, b) if config.has_mul => (FastOp::Mulhu(r(d), r(a), r(b)), C::Mul),
                Insn::Mul(..) | Insn::Mulhu(..) => (FastOp::MulIllegal, C::Mul),
                Insn::Addi(d, a, imm) => (FastOp::Addi(r(d), r(a), *imm as u32), C::Alu),
                Insn::Andi(d, a, imm) => (FastOp::Andi(r(d), r(a), *imm), C::Alu),
                Insn::Ori(d, a, imm) => (FastOp::Ori(r(d), r(a), *imm), C::Alu),
                Insn::Xori(d, a, imm) => (FastOp::Xori(r(d), r(a), *imm), C::Alu),
                Insn::Slli(d, a, sh) => (FastOp::Slli(r(d), r(a), *sh), C::Alu),
                Insn::Srli(d, a, sh) => (FastOp::Srli(r(d), r(a), *sh), C::Alu),
                Insn::Srai(d, a, sh) => (FastOp::Srai(r(d), r(a), *sh), C::Alu),
                Insn::Movi(d, imm) => (FastOp::Movi(r(d), *imm as u32), C::Alu),
                Insn::Mov(d, a) => (FastOp::Mov(r(d), r(a)), C::Alu),
                Insn::Lw(d, b, off) => (FastOp::Lw(r(d), r(b), *off as u32), C::Load),
                Insn::Lbu(d, b, off) => (FastOp::Lbu(r(d), r(b), *off as u32), C::Load),
                Insn::Lhu(d, b, off) => (FastOp::Lhu(r(d), r(b), *off as u32), C::Load),
                Insn::Sw(v, b, off) => (FastOp::Sw(r(v), r(b), *off as u32), C::Store),
                Insn::Sb(v, b, off) => (FastOp::Sb(r(v), r(b), *off as u32), C::Store),
                Insn::Sh(v, b, off) => (FastOp::Sh(r(v), r(b), *off as u32), C::Store),
                Insn::Beq(a, b, t) => (FastOp::Beq(r(a), r(b), *t as u32), C::Branch),
                Insn::Bne(a, b, t) => (FastOp::Bne(r(a), r(b), *t as u32), C::Branch),
                Insn::Bltu(a, b, t) => (FastOp::Bltu(r(a), r(b), *t as u32), C::Branch),
                Insn::Bgeu(a, b, t) => (FastOp::Bgeu(r(a), r(b), *t as u32), C::Branch),
                Insn::Blt(a, b, t) => (FastOp::Blt(r(a), r(b), *t as u32), C::Branch),
                Insn::Bge(a, b, t) => (FastOp::Bge(r(a), r(b), *t as u32), C::Branch),
                Insn::J(t) => (FastOp::J(*t as u32), C::Jump),
                Insn::Jr(a) => (FastOp::Jr(r(a)), C::Jump),
                Insn::Call(t) => (FastOp::Call(*t as u32), C::Call),
                Insn::Ret => (FastOp::Ret, C::Ret),
                Insn::Clc => (FastOp::Clc, C::Alu),
                Insn::Nop => (FastOp::Nop, C::Alu),
                Insn::Halt => (FastOp::Halt, C::Alu),
                Insn::Custom(op) => match ext.get(&op.name) {
                    Some(def) => (
                        FastOp::Custom {
                            exec: def.exec.clone(),
                            op: Box::new(op.clone()),
                            latency: def.latency,
                        },
                        C::Custom,
                    ),
                    None => (FastOp::CustomUnknown(op.name.as_str().into()), C::Custom),
                },
            };
            let dest = match insn {
                Insn::Custom(op) => op.regs.first().copied(),
                _ => insn.dest(),
            };
            let at = srcs.len() as u32;
            srcs.extend(insn.sources().iter().map(r));
            ops.push(op);
            info.push(OpInfo {
                class,
                dest: dest.as_ref().map(r),
                srcs: at..srcs.len() as u32,
            });
        }

        // Basic-block leaders: pc 0, every label, every branch target,
        // and the instruction after every block-ending op. Blocks tile
        // the program contiguously, so `block_end` is total over pcs.
        let mut leader = vec![false; n + 1];
        if n > 0 {
            leader[0] = true;
        }
        leader[n] = true;
        for &at in program.labels().values() {
            if at <= n {
                leader[at] = true;
            }
        }
        for (pc, insn) in insns.iter().enumerate() {
            if let Some(t) = insn.branch_target() {
                if t <= n {
                    leader[t] = true;
                }
            }
            if insn.ends_block() {
                leader[pc + 1] = true;
            }
        }
        let mut block_end = vec![0u32; n];
        let mut end = n as u32;
        for pc in (0..n).rev() {
            if leader[pc + 1] {
                end = (pc + 1) as u32;
            }
            block_end[pc] = end;
        }

        FastProgram {
            has_custom: info.iter().any(|i| i.class == C::Custom),
            ops,
            info,
            srcs,
            block_end,
        }
    }

    /// The registers the op at `pc` writes, as a mask: bits 0–15 the
    /// general registers, [`CARRY`] the carry flag. A custom op's set
    /// holds [`CUSTOM`], every register operand and the carry: a
    /// superset of what its semantics write.
    pub(crate) fn writes(&self, pc: usize) -> u32 {
        let dest = self.info[pc].dest.map_or(0, |d| 1 << d);
        match &self.ops[pc] {
            // The executor cannot see which of its operands a custom
            // op's semantics write, nor whether they touch the carry.
            FastOp::Custom { op, .. } => op
                .regs
                .iter()
                .fold(CARRY | CUSTOM, |m, r| m | 1 << r.index()),
            FastOp::Addc(..) | FastOp::Subc(..) | FastOp::Clc => CARRY | dest,
            _ => dest,
        }
    }

    /// The registers the op at `pc` reads, as a mask like
    /// [`FastProgram::writes`]'s.
    pub(crate) fn reads(&self, pc: usize) -> u32 {
        let info = &self.info[pc];
        let srcs = &self.srcs[info.srcs.start as usize..info.srcs.end as usize];
        let carry = match self.ops[pc] {
            FastOp::Addc(..) | FastOp::Subc(..) | FastOp::Custom { .. } => CARRY,
            _ => 0,
        };
        srcs.iter().fold(carry, |m, &r| m | 1 << r)
    }

    /// Whether the program has a custom op.
    pub(crate) fn has_custom(&self) -> bool {
        self.has_custom
    }

    /// How control leaves the op at `pc` when it touches only registers
    /// and the carry; `None` for a pc outside the program, a load or
    /// store, a custom op, `call`, `jr`, `halt`, and an op that fails
    /// when executed.
    pub(crate) fn register_flow(&self, pc: usize) -> Option<Flow> {
        use FastOp as F;
        Some(match self.ops.get(pc)? {
            F::Add(..) | F::Addc(..) | F::Sub(..) | F::Subc(..) | F::And(..) | F::Or(..) => {
                Flow::Next
            }
            F::Xor(..) | F::Sll(..) | F::Srl(..) | F::Sra(..) | F::Sltu(..) | F::Slt(..) => {
                Flow::Next
            }
            F::Mul(..) | F::Mulhu(..) | F::Addi(..) | F::Andi(..) | F::Ori(..) | F::Xori(..) => {
                Flow::Next
            }
            F::Slli(..) | F::Srli(..) | F::Srai(..) | F::Movi(..) | F::Mov(..) => Flow::Next,
            F::Clc | F::Nop => Flow::Next,
            F::Beq(_, _, t) | F::Bne(_, _, t) | F::Bltu(_, _, t) | F::Bgeu(_, _, t) => {
                Flow::Branch(*t as usize)
            }
            F::Blt(_, _, t) | F::Bge(_, _, t) => Flow::Branch(*t as usize),
            F::J(t) => Flow::Jump(*t as usize),
            F::Ret => Flow::Ret,
            _ => return None,
        })
    }

    /// The record the executor streams for the op at `pc` when it
    /// retires with outcome `taken` and continues at `next_pc`, with no
    /// memory access, fault or custom latency.
    #[inline(always)]
    pub(crate) fn retired(&self, pc: usize, taken: bool, next_pc: usize) -> Retired<'_> {
        let op = &self.info[pc];
        Retired {
            pc,
            class: op.class,
            srcs: &self.srcs[op.srcs.start as usize..op.srcs.end as usize],
            dest: op.dest,
            addr: 0,
            tag_fault: false,
            taken,
            next_pc,
            latency: 0,
            faulted: false,
        }
    }
}

/// Executes `prog` from `entry` on `arch`, streaming every op to
/// `model` and consulting `fault` (when armed) at each hook point, then
/// closes the model. Returns the executed ops' class counts.
pub(crate) fn run<M: TimingModel>(
    prog: &FastProgram,
    entry: usize,
    arch: &mut Arch,
    fuel: u64,
    fault: Option<&mut FaultPlan>,
    mut model: M,
) -> Result<ClassCounts, SimError> {
    // Two instantiations per model, so a run without a plan pays
    // nothing for the hook points.
    let out = match fault {
        Some(_) => execute::<M, true>(prog, entry, arch, fuel, fault, &mut model),
        None => execute::<M, false>(prog, entry, arch, fuel, None, &mut model),
    };
    model.finish(out.as_ref().ok().map(|&(_, pc)| pc));
    out.map(|(counts, _)| {
        let c = |class: OpClass| counts[class as usize];
        ClassCounts {
            alu: c(OpClass::Alu),
            mem: c(OpClass::Load) + c(OpClass::Store),
            control: c(OpClass::Branch) + c(OpClass::Jump) + c(OpClass::Call) + c(OpClass::Ret),
            mul: c(OpClass::Mul),
            custom: c(OpClass::Custom),
        }
    })
}

/// The executor loop. Returns per-class op counts and the final pc (the
/// `halt`, or [`RETURN_SENTINEL`]). Fault hooks draw in a fixed order:
/// `cache_tag` then `data` on a load, `cache_tag` on a store,
/// `custom_result` after a custom op, and `regfile` after every retired
/// op.
fn execute<M: TimingModel, const FAULTS: bool>(
    prog: &FastProgram,
    entry: usize,
    arch: &mut Arch,
    fuel: u64,
    mut fault: Option<&mut FaultPlan>,
    model: &mut M,
) -> Result<([u64; OpClass::COUNT], usize), SimError> {
    const RA: usize = 15;
    let Arch {
        regs,
        carry,
        mem,
        uregs,
    } = arch;
    let mut executed: u64 = 0;
    let mut counts = [0u64; OpClass::COUNT];
    let mut pc = entry;
    let ops = &prog.ops[..];
    let info = &prog.info[..];

    macro_rules! rr {
        ($r:expr) => {
            regs[$r as usize]
        };
    }
    // Runs `$e` with the armed plan as `$f`; compiled out without one.
    macro_rules! hook {
        (|$f:ident| $e:expr) => {
            if FAULTS {
                if let Some($f) = fault.as_deref_mut() {
                    $e
                }
            }
        };
    }

    'outer: loop {
        if pc == RETURN_SENTINEL as usize {
            break; // clean return from a `call`
        }
        let end = match prog.block_end.get(pc) {
            Some(&e) => e as usize,
            None => return Err(SimError::PcOutOfRange { pc }),
        };
        let mut i = pc;
        'block: while i < end {
            if executed >= fuel {
                return Err(SimError::OutOfFuel { executed });
            }
            executed += 1;
            counts[info[i].class as usize] += 1;
            // Timing facts the op discovers, read only by timed models.
            let mut addr = 0u32;
            let mut tag_fault = false;
            let mut latency = 0u32;

            // Streams the op to the model; a retired (not faulted) op
            // then gets its register-file upset opportunity.
            macro_rules! retire {
                ($taken:expr, $next:expr, $faulted:expr) => {
                    if M::TIMED {
                        model.retire(&Retired {
                            addr,
                            tag_fault,
                            latency,
                            faulted: $faulted,
                            ..prog.retired(i, $taken, $next)
                        });
                    }
                    if !$faulted {
                        hook!(|f| if let Some((r, mask)) = f.regfile(regs.len()) {
                            regs[r] ^= mask;
                        });
                    }
                };
            }
            macro_rules! fail {
                ($e:expr) => {{
                    retire!(false, i + 1, true);
                    return Err($e);
                }};
            }
            macro_rules! load {
                ($d:expr, $base:expr, $off:expr, $load:ident) => {{
                    addr = rr!(*$base).wrapping_add(*$off);
                    hook!(|f| tag_fault = f.cache_tag());
                    let mut v = match mem.$load(addr) {
                        Ok(v) => u32::from(v),
                        Err(source) => fail!(SimError::Mem { pc: i, source }),
                    };
                    hook!(|f| v = f.data(v));
                    regs[*$d as usize] = v;
                }};
            }
            macro_rules! store {
                ($v:expr, $base:expr, $off:expr, $store:ident, $ty:ty) => {{
                    addr = rr!(*$base).wrapping_add(*$off);
                    hook!(|f| tag_fault = f.cache_tag());
                    if let Err(source) = mem.$store(addr, rr!(*$v) as $ty) {
                        fail!(SimError::Mem { pc: i, source });
                    }
                }};
            }

            // A timed run's taken transfer leaves the `'op` block for
            // the retire site after it, and a fall-through reaches the
            // one at the block's end: the model's `retire` is inlined at
            // these two sites, each with a constant `taken`, not at
            // every jump. Without a model a jump retires in place.
            let next;
            'op: {
                macro_rules! jump {
                    ($t:expr) => {{
                        next = $t as usize;
                        if !M::TIMED {
                            retire!(true, next, false);
                            pc = next;
                            continue 'outer;
                        }
                        break 'op;
                    }};
                }
                match &ops[i] {
                    FastOp::Add(d, a, b) => regs[*d as usize] = rr!(*a).wrapping_add(rr!(*b)),
                    FastOp::Addc(d, a, b) => {
                        let t = rr!(*a) as u64 + rr!(*b) as u64 + *carry as u64;
                        regs[*d as usize] = t as u32;
                        *carry = t >> 32 != 0;
                    }
                    FastOp::Sub(d, a, b) => regs[*d as usize] = rr!(*a).wrapping_sub(rr!(*b)),
                    FastOp::Subc(d, a, b) => {
                        let t = (rr!(*a) as u64)
                            .wrapping_sub(rr!(*b) as u64)
                            .wrapping_sub(*carry as u64);
                        regs[*d as usize] = t as u32;
                        *carry = t >> 32 != 0;
                    }
                    FastOp::And(d, a, b) => regs[*d as usize] = rr!(*a) & rr!(*b),
                    FastOp::Or(d, a, b) => regs[*d as usize] = rr!(*a) | rr!(*b),
                    FastOp::Xor(d, a, b) => regs[*d as usize] = rr!(*a) ^ rr!(*b),
                    FastOp::Sll(d, a, b) => regs[*d as usize] = rr!(*a) << (rr!(*b) & 31),
                    FastOp::Srl(d, a, b) => regs[*d as usize] = rr!(*a) >> (rr!(*b) & 31),
                    FastOp::Sra(d, a, b) => {
                        regs[*d as usize] = ((rr!(*a) as i32) >> (rr!(*b) & 31)) as u32
                    }
                    FastOp::Sltu(d, a, b) => regs[*d as usize] = (rr!(*a) < rr!(*b)) as u32,
                    FastOp::Slt(d, a, b) => {
                        regs[*d as usize] = ((rr!(*a) as i32) < (rr!(*b) as i32)) as u32
                    }
                    FastOp::Mul(d, a, b) => {
                        regs[*d as usize] = (rr!(*a) as u64 * rr!(*b) as u64) as u32
                    }
                    FastOp::Mulhu(d, a, b) => {
                        regs[*d as usize] = ((rr!(*a) as u64 * rr!(*b) as u64) >> 32) as u32
                    }
                    FastOp::MulIllegal => fail!(SimError::Illegal {
                        pc: i,
                        reason: "mul requires the hardware-multiplier option".into(),
                    }),
                    FastOp::Addi(d, a, imm) => regs[*d as usize] = rr!(*a).wrapping_add(*imm),
                    FastOp::Andi(d, a, imm) => regs[*d as usize] = rr!(*a) & imm,
                    FastOp::Ori(d, a, imm) => regs[*d as usize] = rr!(*a) | imm,
                    FastOp::Xori(d, a, imm) => regs[*d as usize] = rr!(*a) ^ imm,
                    FastOp::Slli(d, a, sh) => regs[*d as usize] = rr!(*a) << sh,
                    FastOp::Srli(d, a, sh) => regs[*d as usize] = rr!(*a) >> sh,
                    FastOp::Srai(d, a, sh) => regs[*d as usize] = ((rr!(*a) as i32) >> sh) as u32,
                    FastOp::Movi(d, imm) => regs[*d as usize] = *imm,
                    FastOp::Mov(d, a) => regs[*d as usize] = rr!(*a),
                    FastOp::Lw(d, base, off) => load!(d, base, off, load_u32),
                    FastOp::Lbu(d, base, off) => load!(d, base, off, load_u8),
                    FastOp::Lhu(d, base, off) => load!(d, base, off, load_u16),
                    FastOp::Sw(v, base, off) => store!(v, base, off, store_u32, u32),
                    FastOp::Sb(v, base, off) => store!(v, base, off, store_u8, u8),
                    FastOp::Sh(v, base, off) => store!(v, base, off, store_u16, u16),
                    FastOp::Beq(a, b, t) => {
                        if rr!(*a) == rr!(*b) {
                            jump!(*t)
                        }
                    }
                    FastOp::Bne(a, b, t) => {
                        if rr!(*a) != rr!(*b) {
                            jump!(*t)
                        }
                    }
                    FastOp::Bltu(a, b, t) => {
                        if rr!(*a) < rr!(*b) {
                            jump!(*t)
                        }
                    }
                    FastOp::Bgeu(a, b, t) => {
                        if rr!(*a) >= rr!(*b) {
                            jump!(*t)
                        }
                    }
                    FastOp::Blt(a, b, t) => {
                        if (rr!(*a) as i32) < (rr!(*b) as i32) {
                            jump!(*t)
                        }
                    }
                    FastOp::Bge(a, b, t) => {
                        if (rr!(*a) as i32) >= (rr!(*b) as i32) {
                            jump!(*t)
                        }
                    }
                    FastOp::J(t) => jump!(*t),
                    FastOp::Call(t) => {
                        regs[RA] = i as u32 + 1;
                        jump!(*t)
                    }
                    FastOp::Jr(a) => jump!(rr!(*a)),
                    FastOp::Ret => jump!(regs[RA]),
                    FastOp::Clc => *carry = false,
                    FastOp::Nop => {}
                    FastOp::Halt => {
                        retire!(false, i + 1, false);
                        pc = i;
                        break 'outer;
                    }
                    FastOp::Custom {
                        exec,
                        op,
                        latency: l,
                    } => {
                        latency = *l;
                        let mut ctx = ExecCtx {
                            regs,
                            uregs,
                            mem,
                            carry,
                        };
                        if let Err(source) = exec(&mut ctx, op) {
                            fail!(SimError::Custom { pc: i, source });
                        }
                        hook!(|f| if let Some(mask) = f.custom_result() {
                            // Stuck-at-one fault on one line of the result
                            // bus (the destination register).
                            if let Some(d) = op.regs.first() {
                                regs[d.index()] |= mask;
                            }
                        });
                    }
                    FastOp::CustomUnknown(name) => fail!(SimError::Illegal {
                        pc: i,
                        reason: format!("unknown custom instruction `{name}`"),
                    }),
                }
                retire!(false, i + 1, false);
                i += 1;
                continue 'block;
            }
            retire!(true, next, false);
            pc = next;
            continue 'outer;
        }
        pc = end; // fell through to the next block's leader
    }
    Ok((counts, pc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::cpu::Cpu;
    use crate::ext::CustomInsnDef;

    fn decode(src: &str) -> (Program, FastProgram) {
        let p = assemble(src).unwrap();
        let fp = FastProgram::decode(&p, &CpuConfig::default(), &ExtensionSet::new());
        (p, fp)
    }

    #[test]
    fn blocks_tile_the_program() {
        let (_, fp) = decode(
            "main:
                movi a0, 3
            loop:
                addi a0, a0, -1
                movi a1, 0
                bne  a0, a1, loop
                halt",
        );
        assert_eq!(fp.ops.len(), 5);
        // Block boundaries: [0,1) main, [1,4) loop body, [4,5) halt.
        assert_eq!(fp.block_end, vec![1, 4, 4, 4, 5]);
    }

    #[test]
    fn fast_run_matches_accurate_architectural_state() {
        let src = "main:
                movi a0, 0x100
                movi a1, 4
                movi a2, 0
            loop:
                lw   a3, a0, 0
                add  a2, a2, a3
                addi a0, a0, 4
                addi a1, a1, -1
                movi a4, 0
                bne  a1, a4, loop
                halt";
        let p = assemble(src).unwrap();
        let mut accurate = Cpu::new(CpuConfig::default());
        accurate
            .mem_mut()
            .write_words(0x100, &[10, 20, 30, 40])
            .unwrap();
        let sa = accurate.run(&p).unwrap();
        let mut fast = Cpu::new(CpuConfig::default());
        fast.set_fidelity(Fidelity::Fast);
        fast.mem_mut()
            .write_words(0x100, &[10, 20, 30, 40])
            .unwrap();
        let sf = fast.run(&p).unwrap();
        assert_eq!(sf.cycles, 0, "fast path models no timing");
        assert_eq!(sa.instructions, sf.instructions);
        assert_eq!(sa.classes, sf.classes);
        for i in 0..16 {
            assert_eq!(accurate.reg(i), fast.reg(i), "register a{i}");
        }
        assert_eq!(accurate.mem().digest(), fast.mem().digest());
    }

    #[test]
    fn fast_custom_insn_resolved_at_decode() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 5, 100, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble("movi a3, 40\n cust addimm a3, 2\n halt").unwrap();
        let mut c = Cpu::with_extensions(CpuConfig::default(), ext);
        c.set_fidelity(Fidelity::Fast);
        let s = c.run(&p).unwrap();
        assert_eq!(c.reg(3), 42);
        assert_eq!(s.classes.custom, 1);
    }

    #[test]
    fn fast_errors_match_accurate_engine() {
        // Unknown custom: Illegal at the same pc.
        let p = assemble("nop\n cust nosuch a0\n halt").unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        assert!(matches!(c.run(&p), Err(SimError::Illegal { pc: 1, .. })));
        // Fuel exhaustion: identical executed count.
        let spin = assemble("spin: j spin").unwrap();
        let mut fast = Cpu::new(CpuConfig::default());
        fast.set_fidelity(Fidelity::Fast);
        fast.set_fuel(1000);
        let mut accurate = Cpu::new(CpuConfig::default());
        accurate.set_fuel(1000);
        match (fast.run(&spin), accurate.run(&spin)) {
            (
                Err(SimError::OutOfFuel { executed: ef }),
                Err(SimError::OutOfFuel { executed: ea }),
            ) => assert_eq!(ef, ea),
            other => panic!("expected OutOfFuel on both engines, got {other:?}"),
        }
        // Falling off the end: PcOutOfRange at the same pc.
        let fall = assemble("nop").unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        assert!(matches!(
            c.run(&fall),
            Err(SimError::PcOutOfRange { pc: 1 })
        ));
        // mul without the option: Illegal at the same pc.
        let mul = assemble("movi a0, 6\n movi a1, 7\n mul a2, a0, a1\n halt").unwrap();
        let mut soft = Cpu::new(CpuConfig {
            has_mul: false,
            ..CpuConfig::default()
        });
        soft.set_fidelity(Fidelity::Fast);
        assert!(matches!(
            soft.run(&mul),
            Err(SimError::Illegal { pc: 2, .. })
        ));
    }

    #[test]
    fn fast_call_convention_matches() {
        let p = assemble(
            "double:
                add a0, a0, a0
                ret",
        )
        .unwrap();
        let mut c = Cpu::new(CpuConfig::default());
        c.set_fidelity(Fidelity::Fast);
        let s = c.call(&p, "double", &[21]).unwrap();
        assert_eq!(c.reg(0), 42);
        assert_eq!(s.instructions, 2);
        assert_eq!(c.retired(), 2);
    }

    #[test]
    fn armed_fault_plan_runs_on_every_engine_alike() {
        let mut ext = ExtensionSet::new();
        ext.register(CustomInsnDef::new("addimm", 3, 50, |ctx, op| {
            let d = op.regs[0].index();
            ctx.regs[d] = ctx.regs[d].wrapping_add(op.imm as u32);
            Ok(())
        }));
        let p = assemble(
            "main:
                movi a0, 0x100
                movi a1, 6
            loop:
                lw   a2, a0, 0
                cust addimm a2, 1
                sw   a2, a0, 4
                addi a0, a0, 4
                addi a1, a1, -1
                movi a3, 0
                bne  a1, a3, loop
                halt",
        )
        .unwrap();
        let run = |config: CpuConfig, fidelity: Fidelity| {
            let mut c = Cpu::with_extensions(config, ext.clone());
            c.set_fidelity(fidelity);
            c.mem_mut().write_words(0x100, &[42]).unwrap();
            c.set_fault_plan(xfault::PlanSpec::all_sites(3, 250_000).plan(0));
            let s = c.run(&p).unwrap();
            let regs: Vec<u32> = (0..16).map(|i| c.reg(i)).collect();
            let plan = c.take_fault_plan().unwrap();
            let fired = xfault::FaultSite::ALL.map(|site| plan.fired(site));
            (s.cycles, (regs, c.mem().digest(), c.retired(), fired))
        };
        let (fast_cycles, fast) = run(CpuConfig::default(), Fidelity::Fast);
        assert_eq!(fast_cycles, 0, "the fast path models no timing");
        assert!(
            fast.3.iter().all(|&n| n > 0),
            "every fault site must still fire: {:?}",
            fast.3
        );
        for config in [CpuConfig::default(), CpuConfig::ooo()] {
            let (cycles, accurate) = run(config, Fidelity::CycleAccurate);
            assert!(cycles > 0);
            assert_eq!(accurate, fast, "same plan, same outcome");
        }
    }
}
