//! Classic dataflow passes at instruction granularity.
//!
//! All three solvers run a worklist to a fixpoint over the
//! interprocedural successor relation from [`Cfg::insn_succs`]:
//!
//! - [`Liveness`] — backward may-analysis (`live_out` per instruction);
//! - [`MustDefined`] — forward must-analysis of definitely-written
//!   registers (drives the read-before-write lint);
//! - [`ReachingDefs`] — forward may-analysis of which definition sites
//!   reach each instruction (drives the `ra`-clobber lint).
//!
//! Registers are tracked as a bitset with one extra bit for the carry
//! flag, which XR32 multi-precision chains treat as a real dataflow
//! value (`clc`/`addc`/`subc`).

use std::collections::BTreeSet;

use xr32::isa::{Insn, Reg};

use crate::cfg::Cfg;
use crate::spec::SecretSpec;

/// Bit index used for the carry flag in [`RegSet`].
const CARRY_BIT: u32 = 16;

/// Synthetic definition site meaning "defined before entry" in
/// [`ReachingDefs`].
pub const ENTRY_DEF: usize = usize::MAX;

/// A set of general registers plus the carry flag, as a 17-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord)]
pub struct RegSet(pub u32);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);
    /// All sixteen registers and the carry flag.
    pub const ALL: RegSet = RegSet((1 << 17) - 1);

    /// The singleton set `{r}`.
    pub fn of(r: Reg) -> RegSet {
        RegSet(1 << r.index())
    }

    /// Inserts a register.
    pub fn insert(&mut self, r: Reg) {
        self.0 |= 1 << r.index();
    }

    /// Removes a register.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !(1 << r.index());
    }

    /// Membership test.
    pub fn contains(self, r: Reg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Inserts the carry flag.
    pub fn insert_carry(&mut self) {
        self.0 |= 1 << CARRY_BIT;
    }

    /// Removes the carry flag.
    pub fn remove_carry(&mut self) {
        self.0 &= !(1 << CARRY_BIT);
    }

    /// Whether the carry flag is in the set.
    pub fn has_carry(self) -> bool {
        self.0 & (1 << CARRY_BIT) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// Iterates the general registers in the set (not the carry bit).
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        (0..16u8)
            .filter(move |&i| self.0 & (1 << i) != 0)
            .map(Reg::new)
    }
}

/// Carry-flag behaviour of an instruction, custom signatures included.
fn carry_effect(insn: &Insn, spec: &SecretSpec) -> (bool, bool) {
    // (reads, writes)
    match insn {
        Insn::Addc(..) | Insn::Subc(..) => (true, true),
        Insn::Clc => (false, true),
        Insn::Custom(op) => match spec.sig(&op.name) {
            Some(sig) => (sig.reads_carry, sig.writes_carry),
            None => (false, false),
        },
        _ => (false, false),
    }
}

/// General registers written by an instruction, custom signatures
/// included (`mac`/`msub` write their carry-limb GPR operand).
pub fn insn_dests(insn: &Insn, spec: &SecretSpec) -> Vec<Reg> {
    match insn {
        Insn::Custom(op) => match spec.sig(&op.name) {
            Some(sig) => sig
                .reg_writes
                .iter()
                .filter_map(|&ix| op.regs.get(ix).copied())
                .collect(),
            None => Vec::new(),
        },
        _ => insn.dest().into_iter().collect(),
    }
}

/// Instruction-level predecessor lists for the whole program.
fn build_preds(cfg: &Cfg, insns: &[Insn]) -> Vec<Vec<usize>> {
    let mut preds = vec![Vec::new(); insns.len()];
    for pc in 0..insns.len() {
        for s in cfg.insn_succs(pc, insns) {
            preds[s].push(pc);
        }
    }
    preds
}

/// Backward liveness: `live_out[pc]` is the set of registers (and the
/// carry flag) that some later execution may read before writing.
pub struct Liveness {
    live_out: Vec<RegSet>,
}

impl Liveness {
    /// Solves liveness over the whole program. `exit_live` is the set
    /// assumed live when control leaves the program (host return,
    /// `halt`, falling off the end); `exit_pcs` are the instructions
    /// where that can happen.
    pub fn solve(
        cfg: &Cfg,
        insns: &[Insn],
        spec: &SecretSpec,
        exit_live: RegSet,
        exit_pcs: &[usize],
    ) -> Liveness {
        let n = insns.len();
        let is_exit = {
            let mut v = vec![false; n];
            for &pc in exit_pcs {
                if pc < n {
                    v[pc] = true;
                }
            }
            v
        };
        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];
        // Seed every pc once; iterate to fixpoint.
        let mut work: Vec<usize> = (0..n).rev().collect();
        let preds = build_preds(cfg, insns);
        while let Some(pc) = work.pop() {
            let mut out = if is_exit[pc] {
                exit_live
            } else {
                RegSet::EMPTY
            };
            for s in cfg.insn_succs(pc, insns) {
                out = out.union(live_in[s]);
            }
            live_out[pc] = out;
            let mut inn = out;
            let (reads_c, writes_c) = carry_effect(&insns[pc], spec);
            for d in insn_dests(&insns[pc], spec) {
                inn.remove(d);
            }
            if writes_c {
                inn.remove_carry();
            }
            for s in insns[pc].sources() {
                inn.insert(s);
            }
            if reads_c {
                inn.insert_carry();
            }
            if inn != live_in[pc] {
                live_in[pc] = inn;
                work.extend(preds[pc].iter().copied());
            }
        }
        Liveness { live_out }
    }

    /// Registers live immediately after `pc`.
    pub fn live_out(&self, pc: usize) -> RegSet {
        self.live_out[pc]
    }
}

/// Forward must-analysis: which registers are definitely written on
/// *every* path from the entry to a point.
pub struct MustDefined {
    /// `in_defined[pc]`; `RegSet::ALL` for unreachable pcs.
    in_defined: Vec<RegSet>,
    reachable: Vec<bool>,
}

impl MustDefined {
    /// Solves from a single entry pc whose incoming state is
    /// `entry_defined`.
    pub fn solve(
        cfg: &Cfg,
        insns: &[Insn],
        spec: &SecretSpec,
        entry: usize,
        entry_defined: RegSet,
    ) -> MustDefined {
        let n = insns.len();
        let mut in_defined = vec![RegSet::ALL; n];
        let reachable = cfg.reachable_from(&[entry], insns);
        if entry < n {
            in_defined[entry] = entry_defined;
        }
        let mut work = vec![entry];
        while let Some(pc) = work.pop() {
            if pc >= n {
                continue; // an entry label past the last instruction
            }
            let mut out = in_defined[pc];
            let (_, writes_c) = carry_effect(&insns[pc], spec);
            for d in insn_dests(&insns[pc], spec) {
                out.insert(d);
            }
            if writes_c {
                out.insert_carry();
            }
            for s in cfg.insn_succs(pc, insns) {
                let joined = in_defined[s].intersect(out);
                if joined != in_defined[s] {
                    in_defined[s] = joined;
                    work.push(s);
                }
            }
        }
        MustDefined {
            in_defined,
            reachable,
        }
    }

    /// Registers definitely defined when control reaches `pc`.
    pub fn defined_at(&self, pc: usize) -> RegSet {
        self.in_defined[pc]
    }

    /// Whether `pc` is reachable from the analyzed entry.
    pub fn reachable(&self, pc: usize) -> bool {
        self.reachable[pc]
    }
}

/// Forward reaching definitions: for each pc and register, the set of
/// definition sites (pcs, or [`ENTRY_DEF`]) whose value may still be in
/// the register.
pub struct ReachingDefs {
    /// `in_defs[pc][reg]`.
    in_defs: Vec<[BTreeSet<usize>; 16]>,
}

impl ReachingDefs {
    /// Solves from a single entry pc; every register initially holds
    /// the synthetic [`ENTRY_DEF`] definition.
    pub fn solve(cfg: &Cfg, insns: &[Insn], spec: &SecretSpec, entry: usize) -> ReachingDefs {
        let n = insns.len();
        let empty: [BTreeSet<usize>; 16] = Default::default();
        let mut in_defs = vec![empty; n];
        if entry < n {
            for set in in_defs[entry].iter_mut() {
                set.insert(ENTRY_DEF);
            }
        }
        let mut work = vec![entry];
        while let Some(pc) = work.pop() {
            if pc >= n {
                continue;
            }
            let mut out = in_defs[pc].clone();
            for d in insn_dests(&insns[pc], spec) {
                let set = &mut out[d.index()];
                set.clear();
                set.insert(pc);
            }
            for s in cfg.insn_succs(pc, insns) {
                let mut changed = false;
                for r in 0..16 {
                    for &def in &out[r] {
                        changed |= in_defs[s][r].insert(def);
                    }
                }
                if changed {
                    work.push(s);
                }
            }
        }
        ReachingDefs { in_defs }
    }

    /// Definition sites of `r` that may reach `pc`.
    pub fn defs_at(&self, pc: usize, r: Reg) -> &BTreeSet<usize> {
        &self.in_defs[pc][r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr32::asm::assemble;

    fn setup(src: &str) -> (xr32::asm::Program, Cfg, SecretSpec) {
        let p = assemble(src).expect("assembles");
        let c = Cfg::build(&p);
        (p, c, SecretSpec::default())
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::EMPTY;
        s.insert(Reg::new(3));
        s.insert(Reg::SP);
        s.insert_carry();
        assert!(s.contains(Reg::new(3)));
        assert!(s.contains(Reg::SP));
        assert!(s.has_carry());
        assert!(!s.contains(Reg::new(0)));
        assert_eq!(s.iter().count(), 2);
        s.remove(Reg::new(3));
        assert!(!s.contains(Reg::new(3)));
    }

    #[test]
    fn liveness_sees_branch_uses() {
        let (p, c, spec) = setup(
            "main:
                movi a0, 4
                movi a1, 0
            loop:
                addi a0, a0, -1
                bne  a0, a1, loop
                halt",
        );
        let lv = Liveness::solve(&c, p.insns(), &spec, RegSet::EMPTY, &[p.len() - 1]);
        // After `movi a0, 4`, both a0 and (soon) a1 are live.
        assert!(lv.live_out(0).contains(Reg::new(0)));
        // Around the loop, a1 stays live for the branch.
        assert!(lv.live_out(2).contains(Reg::new(1)));
    }

    #[test]
    fn liveness_kills_overwritten() {
        let (p, c, spec) = setup(
            "main:
                movi a0, 1
                movi a0, 2
                halt",
        );
        let lv = Liveness::solve(&c, p.insns(), &spec, RegSet::of(Reg::new(0)), &[2]);
        // The first movi's value is never observable.
        assert!(!lv.live_out(0).contains(Reg::new(0)));
        assert!(lv.live_out(1).contains(Reg::new(0)));
    }

    #[test]
    fn must_defined_requires_all_paths() {
        let (p, c, spec) = setup(
            "main:
                beq a0, a1, skip
                movi a2, 1
            skip:
                addi a3, a2, 0
                halt",
        );
        let entry = RegSet::of(Reg::new(0)).union(RegSet::of(Reg::new(1)));
        let md = MustDefined::solve(&c, p.insns(), &spec, 0, entry);
        let skip = p.label("skip").unwrap();
        // a2 is written on only one path into `skip`.
        assert!(!md.defined_at(skip).contains(Reg::new(2)));
        assert!(md.defined_at(skip).contains(Reg::new(0)));
    }

    #[test]
    fn reaching_defs_merge_at_joins() {
        let (p, c, spec) = setup(
            "main:
                movi a2, 1
                beq a0, a1, skip
                movi a2, 2
            skip:
                halt",
        );
        let rd = ReachingDefs::solve(&c, p.insns(), &spec, 0);
        let skip = p.label("skip").unwrap();
        let defs = rd.defs_at(skip, Reg::new(2));
        assert!(defs.contains(&0), "fall-through def reaches");
        assert!(defs.contains(&2), "taken-path def reaches");
        assert!(!defs.contains(&ENTRY_DEF), "entry def killed on both paths");
    }

    #[test]
    fn carry_is_tracked_like_a_register() {
        let (p, c, spec) = setup(
            "main:
                clc
                addc a2, a0, a1
                halt",
        );
        let lv = Liveness::solve(&c, p.insns(), &spec, RegSet::EMPTY, &[2]);
        // The carry written by clc is consumed by addc.
        assert!(lv.live_out(0).has_carry());
        let md = MustDefined::solve(&c, p.insns(), &spec, 0, RegSet::EMPTY);
        assert!(md.defined_at(1).has_carry());
    }
}
