//! The secret-taint constant-time checker.
//!
//! Forward may-analysis from each declared entry. Every register
//! carries two taint bits — VAL (holds a secret value) and PTR (points
//! at secret data) — plus a small constant lattice used to resolve
//! absolute and `sp`-relative addresses. The carry flag and the wide
//! user registers carry VAL bits of their own.
//!
//! Flagged as errors:
//!
//! - **secret-branch** — a conditional branch comparing VAL-tainted
//!   registers (execution time depends on a secret);
//! - **secret-load** / **secret-store** — a memory access whose
//!   *address* is VAL-tainted (classic table-lookup / cache timing
//!   leak). Loading *through* a PTR-tainted base is fine — that is how
//!   secrets legitimately enter the datapath — but the loaded value
//!   becomes VAL-tainted;
//! - **secret-jump** — an indirect jump through a VAL-tainted register.
//!
//! Memory taint is tracked flow-insensitively: declared `secret-mem`
//! ranges, plus ranges and `sp`-relative stack slots that the program
//! itself stores secrets into. The register analysis re-runs until
//! that global memory state reaches a fixpoint; findings are collected
//! across iterations (taint only grows, so early findings stay valid).
//!
//! PTR taint survives `sp`-relative spills (storing a secret pointer
//! to a stack slot and reloading it keeps the PTR bit — the DES kernel
//! does exactly this with its key-schedule argument).
//!
//! Known soundness limits (documented, deliberate): a secret stored
//! through an address that is neither constant, `sp`-relative, nor
//! PTR-tainted is not tracked, and a pointer spilled anywhere other
//! than a `sp`-relative slot loses its PTR bit.

use std::collections::BTreeSet;

use xr32::asm::Program;
use xr32::isa::{Insn, Reg};

use crate::cfg::Cfg;
use crate::dataflow::RegSet;
use crate::lints::emit;
use crate::report::{Report, Rule};
use crate::spec::{CustomKind, EntrySpec, MemRange, SecretSpec};

/// Constant-propagation lattice for one register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Const {
    /// Absolute value known.
    Known(i64),
    /// `sp`-at-entry plus a known displacement.
    SpRel(i64),
    /// Unknown.
    Top,
}

impl Const {
    fn join(self, other: Const) -> Const {
        match (self, other) {
            (a, b) if a == b => a,
            _ => Const::Top,
        }
    }
}

/// Per-program-point analysis state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    /// VAL taint (carry bit included via [`RegSet`]'s carry slot).
    val: RegSet,
    /// PTR taint.
    ptr: RegSet,
    /// VAL taint of the 16 user registers.
    ureg_val: u16,
    konst: [Const; 16],
}

impl State {
    fn entry(entry: &EntrySpec) -> State {
        let mut konst = [Const::Top; 16];
        konst[Reg::SP.index()] = Const::SpRel(0);
        State {
            val: entry.secret,
            ptr: entry.secret_ptr,
            ureg_val: 0,
            konst,
        }
    }

    fn join(&self, other: &State) -> State {
        let mut konst = [Const::Top; 16];
        for (i, k) in konst.iter_mut().enumerate() {
            *k = self.konst[i].join(other.konst[i]);
        }
        State {
            val: self.val.union(other.val),
            ptr: self.ptr.union(other.ptr),
            ureg_val: self.ureg_val | other.ureg_val,
            konst,
        }
    }
}

/// Memory taint accumulated across the whole analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MemTaint {
    /// Declared plus program-written secret address ranges.
    ranges: Vec<(u32, u32)>,
    /// Secret `sp`-relative byte displacements.
    slots: BTreeSet<i64>,
    /// `sp`-relative byte displacements holding a spilled secret
    /// *pointer*.
    ptr_slots: BTreeSet<i64>,
}

impl MemTaint {
    fn range_hit(&self, addr: i64, width: u32) -> bool {
        if addr < 0 || addr > u32::MAX as i64 {
            return false;
        }
        self.ranges
            .iter()
            .any(|&(base, len)| MemRange { base, len }.overlaps(addr as u32, width))
    }

    fn add_range(&mut self, addr: i64, width: u32) {
        if (0..=u32::MAX as i64).contains(&addr) && !self.range_hit(addr, width) {
            self.ranges.push((addr as u32, width));
        }
    }

    fn slot_hit(&self, disp: i64, width: u32) -> bool {
        (disp..disp + width as i64).any(|b| self.slots.contains(&b))
    }

    fn add_slot(&mut self, disp: i64, width: u32) {
        for b in disp..disp + width as i64 {
            self.slots.insert(b);
        }
    }

    fn ptr_slot_hit(&self, disp: i64, width: u32) -> bool {
        (disp..disp + width as i64).any(|b| self.ptr_slots.contains(&b))
    }

    fn add_ptr_slot(&mut self, disp: i64, width: u32) {
        for b in disp..disp + width as i64 {
            self.ptr_slots.insert(b);
        }
    }
}

/// Runs the constant-time check for every entry in `spec`.
pub(crate) fn check(report: &mut Report, program: &Program, cfg: &Cfg, spec: &SecretSpec) {
    for entry in spec.entries() {
        if entry.secret == RegSet::EMPTY
            && entry.secret_ptr == RegSet::EMPTY
            && spec.secret_mem().is_empty()
        {
            continue; // public entry, nothing to taint
        }
        let Some(entry_pc) = program.label(&entry.label) else {
            continue; // analyze() has already validated labels
        };
        check_entry(report, program, cfg, spec, entry, entry_pc);
    }
}

fn check_entry(
    report: &mut Report,
    program: &Program,
    cfg: &Cfg,
    spec: &SecretSpec,
    entry: &EntrySpec,
    entry_pc: usize,
) {
    let insns = program.insns();
    if entry_pc >= insns.len() {
        return; // an entry label past the last instruction runs nothing
    }
    let mut mem = MemTaint {
        ranges: spec.secret_mem().iter().map(|r| (r.base, r.len)).collect(),
        slots: BTreeSet::new(),
        ptr_slots: BTreeSet::new(),
    };
    // Deduped across fixpoint iterations.
    let mut findings: BTreeSet<(usize, Rule, String)> = BTreeSet::new();

    loop {
        let mem_before = mem.clone();
        let mut in_states: Vec<Option<State>> = vec![None; insns.len()];
        in_states[entry_pc] = Some(State::entry(entry));
        let mut work = vec![entry_pc];
        while let Some(pc) = work.pop() {
            let Some(state) = in_states[pc].clone() else {
                continue;
            };
            let out = transfer(&state, pc, insns, spec, &mut mem, &mut findings);
            for s in cfg.insn_succs(pc, insns) {
                let joined = match &in_states[s] {
                    Some(old) => {
                        let j = old.join(&out);
                        if j == *old {
                            continue;
                        }
                        j
                    }
                    None => out.clone(),
                };
                in_states[s] = Some(joined);
                work.push(s);
            }
        }
        if mem == mem_before {
            break;
        }
    }

    for (pc, rule, message) in findings {
        emit(report, program, spec, pc, rule, Some(&entry.label), message);
    }
}

/// Applies one instruction to the state, recording findings and memory
/// taint as side effects.
fn transfer(
    state: &State,
    pc: usize,
    insns: &[Insn],
    spec: &SecretSpec,
    mem: &mut MemTaint,
    findings: &mut BTreeSet<(usize, Rule, String)>,
) -> State {
    use Insn::*;
    let insn = &insns[pc];
    let mut out = state.clone();

    let src_val = |st: &State| insn.sources().iter().any(|&r| st.val.contains(r));
    let src_ptr = |st: &State| insn.sources().iter().any(|&r| st.ptr.contains(r));

    match insn {
        // Conditional branches: comparing anything secret leaks timing.
        Beq(a, b, _)
        | Bne(a, b, _)
        | Bltu(a, b, _)
        | Bgeu(a, b, _)
        | Blt(a, b, _)
        | Bge(a, b, _) => {
            for r in [a, b] {
                if state.val.contains(*r) {
                    findings.insert((
                        pc,
                        Rule::SecretBranch,
                        format!("branch condition depends on secret value in `{r}`"),
                    ));
                }
            }
        }
        Jr(r) => {
            if state.val.contains(*r) {
                findings.insert((
                    pc,
                    Rule::SecretJump,
                    format!("indirect jump through secret-dependent `{r}`"),
                ));
            }
        }
        Lw(d, base, off) | Lbu(d, base, off) | Lhu(d, base, off) => {
            let w = insn.mem_width().unwrap_or(1);
            if state.val.contains(*base) {
                findings.insert((
                    pc,
                    Rule::SecretLoad,
                    format!("load address in `{base}` depends on a secret (table lookup?)"),
                ));
            }
            let loaded_secret = state.val.contains(*base)
                || state.ptr.contains(*base)
                || match state.konst[base.index()] {
                    Const::Known(k) => mem.range_hit(k + *off as i64, w),
                    Const::SpRel(k) => mem.slot_hit(k + *off as i64, w),
                    Const::Top => false,
                };
            let loaded_ptr = matches!(state.konst[base.index()], Const::SpRel(k)
                if mem.ptr_slot_hit(k + *off as i64, w));
            set_val(&mut out, *d, loaded_secret);
            if loaded_ptr {
                out.ptr.insert(*d);
            } else {
                out.ptr.remove(*d);
            }
            out.konst[d.index()] = Const::Top;
        }
        Sw(v, base, off) | Sb(v, base, off) | Sh(v, base, off) => {
            let w = insn.mem_width().unwrap_or(1);
            if state.val.contains(*base) {
                findings.insert((
                    pc,
                    Rule::SecretStore,
                    format!("store address in `{base}` depends on a secret"),
                ));
            }
            if state.val.contains(*v) {
                match state.konst[base.index()] {
                    Const::Known(k) => mem.add_range(k + *off as i64, w),
                    Const::SpRel(k) => mem.add_slot(k + *off as i64, w),
                    Const::Top => {} // untracked (documented limitation)
                }
            }
            if state.ptr.contains(*v) {
                if let Const::SpRel(k) = state.konst[base.index()] {
                    mem.add_ptr_slot(k + *off as i64, w);
                }
            }
        }
        Custom(op) => {
            transfer_custom(op, state, &mut out, pc, spec, mem, findings);
        }
        Call(_) => {
            set_val(&mut out, Reg::RA, false);
            out.ptr.remove(Reg::RA);
            out.konst[Reg::RA.index()] = Const::Top;
        }
        Clc => {
            out.val.remove_carry();
        }
        Addc(..) | Subc(..) => {
            let d = insn.dest().expect("addc/subc write a register");
            let t = src_val(state) || state.val.has_carry();
            set_val(&mut out, d, t);
            if t {
                out.val.insert_carry();
            } else {
                out.val.remove_carry();
            }
            out.ptr.remove(d);
            out.konst[d.index()] = Const::Top;
        }
        _ => {
            // Plain ALU / move / immediate forms.
            if let Some(d) = insn.dest() {
                set_val(&mut out, d, src_val(state));
                if src_ptr(state) {
                    out.ptr.insert(d);
                } else {
                    out.ptr.remove(d);
                }
                out.konst[d.index()] = eval_const(insn, state);
                // A known address inside a secret range is a secret
                // pointer: indexing from it must keep the PTR bit.
                if let Const::Known(k) = out.konst[d.index()] {
                    if mem.range_hit(k, 1) {
                        out.ptr.insert(d);
                    }
                }
            }
        }
    }
    out
}

fn set_val(state: &mut State, r: Reg, tainted: bool) {
    if tainted {
        state.val.insert(r);
    } else {
        state.val.remove(r);
    }
}

fn eval_const(insn: &Insn, state: &State) -> Const {
    use Insn::*;
    let k = |r: &Reg| state.konst[r.index()];
    match insn {
        Movi(_, imm) => Const::Known(*imm as i64),
        Mov(_, s) => k(s),
        Addi(_, s, imm) => match k(s) {
            Const::Known(v) => Const::Known(v + *imm as i64),
            Const::SpRel(v) => Const::SpRel(v + *imm as i64),
            Const::Top => Const::Top,
        },
        Add(_, a, b) => match (k(a), k(b)) {
            (Const::Known(x), Const::Known(y)) => Const::Known(x + y),
            (Const::SpRel(x), Const::Known(y)) | (Const::Known(y), Const::SpRel(x)) => {
                Const::SpRel(x + y)
            }
            _ => Const::Top,
        },
        Sub(_, a, b) => match (k(a), k(b)) {
            (Const::Known(x), Const::Known(y)) => Const::Known(x - y),
            (Const::SpRel(x), Const::Known(y)) => Const::SpRel(x - y),
            _ => Const::Top,
        },
        Slli(_, s, sh) => match k(s) {
            Const::Known(v) => Const::Known((v as u32).wrapping_shl(*sh) as i64),
            _ => Const::Top,
        },
        _ => Const::Top,
    }
}

fn transfer_custom(
    op: &xr32::isa::CustomOp,
    state: &State,
    out: &mut State,
    pc: usize,
    spec: &SecretSpec,
    mem: &mut MemTaint,
    findings: &mut BTreeSet<(usize, Rule, String)>,
) {
    let Some(sig) = spec.sig(&op.name) else {
        return; // unknown instruction: the custom-unknown lint warns
    };
    let ureg_bit = |u: xr32::isa::UserReg| 1u16 << u.index();
    match sig.kind {
        CustomKind::Load | CustomKind::Store => {
            let base = op.regs.first();
            let data = op.uregs.first();
            let width = 4 * op.imm.max(0) as u32;
            if let Some(&b) = base {
                if state.val.contains(b) {
                    let rule = if sig.kind == CustomKind::Load {
                        Rule::SecretLoad
                    } else {
                        Rule::SecretStore
                    };
                    findings.insert((
                        pc,
                        rule,
                        format!("`{}` address in `{b}` depends on a secret", op.name),
                    ));
                }
            }
            match (sig.kind, base, data) {
                (CustomKind::Load, Some(&b), Some(&d)) => {
                    let secret = state.val.contains(b)
                        || state.ptr.contains(b)
                        || match state.konst[b.index()] {
                            Const::Known(k) => mem.range_hit(k, width),
                            Const::SpRel(k) => mem.slot_hit(k, width),
                            Const::Top => false,
                        };
                    if secret {
                        out.ureg_val |= ureg_bit(d);
                    } else {
                        out.ureg_val &= !ureg_bit(d);
                    }
                }
                (CustomKind::Store, Some(&b), Some(&d)) if state.ureg_val & ureg_bit(d) != 0 => {
                    match state.konst[b.index()] {
                        Const::Known(k) => mem.add_range(k, width),
                        Const::SpRel(k) => mem.add_slot(k, width),
                        Const::Top => {}
                    }
                }
                _ => {}
            }
        }
        CustomKind::Compute => {
            let mut t = op.regs.iter().any(|&r| state.val.contains(r))
                || op.uregs.iter().any(|&u| state.ureg_val & ureg_bit(u) != 0);
            if sig.reads_carry {
                t |= state.val.has_carry();
            }
            // Conservative: every ureg operand and every declared GPR
            // write receives the combined taint.
            for &u in &op.uregs {
                if t {
                    out.ureg_val |= ureg_bit(u);
                } else {
                    out.ureg_val &= !ureg_bit(u);
                }
            }
            for &ix in &sig.reg_writes {
                if let Some(&r) = op.regs.get(ix) {
                    set_val(out, r, t);
                    out.ptr.remove(r);
                    out.konst[r.index()] = Const::Top;
                }
            }
            if sig.writes_carry {
                if t {
                    out.val.insert_carry();
                } else {
                    out.val.remove_carry();
                }
            }
        }
    }
}
