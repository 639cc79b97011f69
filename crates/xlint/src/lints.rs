//! The non-taint lint rules.

use xr32::asm::Program;
use xr32::isa::{Insn, Reg};

use crate::cfg::Cfg;
use crate::dataflow::{insn_dests, Liveness, MustDefined, ReachingDefs, RegSet, ENTRY_DEF};
use crate::report::{Finding, Report, Rule};
use crate::spec::SecretSpec;

/// Pushes a finding unless the source line allowlists the rule.
pub(crate) fn emit(
    report: &mut Report,
    program: &Program,
    spec: &SecretSpec,
    pc: usize,
    rule: Rule,
    entry: Option<&str>,
    message: String,
) {
    let line = program.line_of(pc);
    if spec.is_allowed(line, rule) {
        return;
    }
    report.push(Finding {
        pc,
        rule,
        line,
        entry: entry.map(str::to_owned),
        message,
    });
}

/// Registers assumed live when control returns to the host: the return
/// value pair and the stack pointer.
pub(crate) fn exit_live() -> RegSet {
    let mut s = RegSet::EMPTY;
    s.insert(Reg::new(0));
    s.insert(Reg::new(1));
    s.insert(Reg::SP);
    s
}

/// The pcs where control can leave the program entirely: `halt`,
/// indirect jumps, falling off the end, and `ret` inside a region whose
/// start is a declared entry (host-callable).
pub(crate) fn exit_pcs(program: &Program, cfg: &Cfg, entry_pcs: &[usize]) -> Vec<usize> {
    let insns = program.insns();
    let mut out = Vec::new();
    for (pc, insn) in insns.iter().enumerate() {
        let is_exit = match insn {
            Insn::Halt | Insn::Jr(_) => true,
            Insn::Ret => entry_pcs.contains(&cfg.region_of(pc)),
            _ => pc + 1 == insns.len() && insn.falls_through(),
        };
        if is_exit {
            out.push(pc);
        }
    }
    out
}

/// Flags instructions unreachable from every entry (one finding per
/// basic block).
pub(crate) fn check_unreachable(
    report: &mut Report,
    program: &Program,
    cfg: &Cfg,
    spec: &SecretSpec,
    entry_pcs: &[usize],
) -> Vec<bool> {
    let reach = cfg.reachable_from(entry_pcs, program.insns());
    for block in cfg.blocks() {
        if !reach[block.start] {
            let label = program
                .label_at(block.start)
                .map(|l| format!(" (label `{l}`)"))
                .unwrap_or_default();
            emit(
                report,
                program,
                spec,
                block.start,
                Rule::Unreachable,
                None,
                format!(
                    "{} instruction(s) unreachable from any entry{label}",
                    block.end - block.start
                ),
            );
        }
    }
    reach
}

/// Flags reads of registers (or the carry flag) not definitely written
/// on every path from `entry_pc`.
pub(crate) fn check_read_before_write(
    report: &mut Report,
    program: &Program,
    cfg: &Cfg,
    spec: &SecretSpec,
    entry_label: &str,
    entry_pc: usize,
    inputs: RegSet,
) {
    let insns = program.insns();
    let md = MustDefined::solve(cfg, insns, spec, entry_pc, inputs);
    for (pc, insn) in insns.iter().enumerate() {
        if !md.reachable(pc) {
            continue;
        }
        let defined = md.defined_at(pc);
        for src in insn.sources() {
            if !defined.contains(src) {
                emit(
                    report,
                    program,
                    spec,
                    pc,
                    Rule::ReadBeforeWrite,
                    Some(entry_label),
                    format!("`{src}` may be read before it is written"),
                );
            }
        }
        let reads_carry = matches!(insn, Insn::Addc(..) | Insn::Subc(..))
            || matches!(insn, Insn::Custom(op) if spec.sig(&op.name).is_some_and(|s| s.reads_carry));
        if reads_carry && !defined.has_carry() {
            emit(
                report,
                program,
                spec,
                pc,
                Rule::ReadBeforeWrite,
                Some(entry_label),
                "the carry flag may be read before `clc` or a carry-setting op".to_owned(),
            );
        }
    }
}

/// Flags register writes whose value no execution can observe.
pub(crate) fn check_dead_stores(
    report: &mut Report,
    program: &Program,
    cfg: &Cfg,
    spec: &SecretSpec,
    entry_pcs: &[usize],
    reach: &[bool],
) {
    let insns = program.insns();
    let exits = exit_pcs(program, cfg, entry_pcs);
    let lv = Liveness::solve(cfg, insns, spec, exit_live(), &exits);
    for (pc, insn) in insns.iter().enumerate() {
        if !reach[pc] {
            continue; // already reported as unreachable
        }
        // `call` writing `ra` and custom instructions (memory and ureg
        // side effects) are never "dead".
        if matches!(insn, Insn::Call(_) | Insn::Custom(_)) {
            continue;
        }
        let Some(d) = insn.dest() else { continue };
        let out = lv.live_out(pc);
        if out.contains(d) {
            continue;
        }
        // A carry-setting op is still useful if the carry is consumed.
        let writes_carry = matches!(insn, Insn::Addc(..) | Insn::Subc(..));
        if writes_carry && out.has_carry() {
            continue;
        }
        emit(
            report,
            program,
            spec,
            pc,
            Rule::DeadStore,
            None,
            format!("value written to `{d}` is never read"),
        );
    }
}

/// Net `sp` displacement lattice for the stack-discipline lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpDelta {
    Unvisited,
    Delta(i32),
    Unknown,
}

impl SpDelta {
    fn join(self, other: SpDelta) -> SpDelta {
        use SpDelta::*;
        match (self, other) {
            (Unvisited, x) | (x, Unvisited) => x,
            (Delta(a), Delta(b)) if a == b => Delta(a),
            _ => Unknown,
        }
    }
}

/// Checks that `sp` is balanced (net delta zero) at every `ret` of the
/// entry's function, and that `ra` still holds the caller's return
/// address there.
pub(crate) fn check_stack_discipline(
    report: &mut Report,
    program: &Program,
    cfg: &Cfg,
    spec: &SecretSpec,
    entry_label: &str,
    entry_pc: usize,
) {
    let insns = program.insns();
    if entry_pc >= insns.len() {
        return; // an entry label past the last instruction runs nothing
    }

    // Forward sp-delta propagation.
    let mut delta_in = vec![SpDelta::Unvisited; insns.len()];
    delta_in[entry_pc] = SpDelta::Delta(0);
    let mut work = vec![entry_pc];
    while let Some(pc) = work.pop() {
        let out = match (&insns[pc], delta_in[pc]) {
            (Insn::Addi(d, s, imm), SpDelta::Delta(v)) if *d == Reg::SP && *s == Reg::SP => {
                SpDelta::Delta(v.wrapping_add(*imm))
            }
            (insn, inn) => {
                if insn_dests(insn, spec).contains(&Reg::SP) {
                    SpDelta::Unknown
                } else {
                    inn
                }
            }
        };
        for s in cfg.insn_succs(pc, insns) {
            let joined = delta_in[s].join(out);
            if joined != delta_in[s] {
                delta_in[s] = joined;
                work.push(s);
            }
        }
    }

    let rd = ReachingDefs::solve(cfg, insns, spec, entry_pc);
    let entry_region = cfg.region_of(entry_pc);
    for (pc, insn) in insns.iter().enumerate() {
        if !matches!(insn, Insn::Ret) || cfg.region_of(pc) != entry_region {
            continue;
        }
        match delta_in[pc] {
            SpDelta::Unvisited => continue, // not reachable from this entry
            SpDelta::Delta(0) => {}
            SpDelta::Delta(d) => emit(
                report,
                program,
                spec,
                pc,
                Rule::StackMismatch,
                Some(entry_label),
                format!("`sp` is off by {d} byte(s) at `ret`"),
            ),
            SpDelta::Unknown => emit(
                report,
                program,
                spec,
                pc,
                Rule::StackMismatch,
                Some(entry_label),
                "`sp` displacement at `ret` differs across paths or is not statically known"
                    .to_owned(),
            ),
        }
        // If any definition of `ra` reaching this `ret` is a `call`,
        // the function would return into itself instead of its caller.
        for &def in rd.defs_at(pc, Reg::RA) {
            if def != ENTRY_DEF && matches!(insns[def], Insn::Call(_)) {
                let at = program
                    .line_of(def)
                    .map(|l| format!("line {l}"))
                    .unwrap_or_else(|| format!("pc {def}"));
                emit(
                    report,
                    program,
                    spec,
                    pc,
                    Rule::RaClobber,
                    Some(entry_label),
                    format!("`ra` clobbered by the call at {at} may reach this `ret` unrestored"),
                );
            }
        }
    }
}

/// Flags explicit load/store offsets that break the access width's
/// alignment (bases are word-aligned by convention).
pub(crate) fn check_alignment(
    report: &mut Report,
    program: &Program,
    spec: &SecretSpec,
    reach: &[bool],
) {
    for (pc, insn) in program.insns().iter().enumerate() {
        if !reach[pc] {
            continue;
        }
        let (Some((_, off)), Some(w)) = (insn.mem_addr(), insn.mem_width()) else {
            continue;
        };
        if w > 1 && off.rem_euclid(w as i32) != 0 {
            emit(
                report,
                program,
                spec,
                pc,
                Rule::MisalignedMem,
                None,
                format!("offset {off} breaks {w}-byte alignment"),
            );
        }
    }
}

/// Checks `cust` operand shapes against the registered signatures.
/// Silent when no signatures are registered at all.
pub(crate) fn check_custom_ops(
    report: &mut Report,
    program: &Program,
    spec: &SecretSpec,
    reach: &[bool],
) {
    if !spec.has_sigs() {
        return;
    }
    for (pc, insn) in program.insns().iter().enumerate() {
        if !reach[pc] {
            continue;
        }
        let Insn::Custom(op) = insn else { continue };
        match spec.sig(&op.name) {
            None => emit(
                report,
                program,
                spec,
                pc,
                Rule::CustomUnknown,
                None,
                format!(
                    "no signature registered for custom instruction `{}`",
                    op.name
                ),
            ),
            Some(sig) => {
                if op.regs.len() != sig.regs || op.uregs.len() != sig.uregs {
                    emit(
                        report,
                        program,
                        spec,
                        pc,
                        Rule::CustomOperands,
                        None,
                        format!(
                            "`{}` expects {} register and {} user-register operand(s), got {} and {}",
                            op.name,
                            sig.regs,
                            sig.uregs,
                            op.regs.len(),
                            op.uregs.len()
                        ),
                    );
                }
            }
        }
    }
}
