//! Custom-instruction selection: match an [`kreg::InsnFamilySpec`]'s
//! [`LoopPattern`] against a kernel's SSA-lite dataflow and recover the
//! register roles the wide-datapath rewrite needs.
//!
//! Matching is structural, not positional: operands are traced through
//! [`SsaView`] use-def edges, so the matcher is insensitive to the
//! exact ordering of pointer bumps and loads inside the loop body and
//! refuses (rather than mis-rewrites) anything whose dataflow deviates
//! from the family's canonical shape.

use kreg::LoopPattern;
use xlint::ir::UnitIr;
use xr32::isa::{Insn, Reg};

use crate::ssa::SsaView;
use crate::OptError;

/// The single counted loop of a kernel entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopShape {
    /// First body pc (the back-branch target).
    pub head: usize,
    /// The conditional back-branch pc (last body instruction).
    pub back: usize,
    /// The loop counter (decremented once per iteration).
    pub counter: Reg,
    /// The register holding zero that the back-branch compares against.
    pub zero: Reg,
}

/// Roles recovered from an `ElementwiseCarry` loop
/// (`mpn_add_n`/`mpn_sub_n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementwiseMatch {
    /// The loop.
    pub shape: LoopShape,
    /// Result stream pointer.
    pub rp: Reg,
    /// First source stream pointer.
    pub ap: Reg,
    /// Second source stream pointer.
    pub bp: Reg,
    /// True for the borrow chain (`subc`), false for carry (`addc`).
    pub subtract: bool,
}

/// Roles recovered from a `MulAccumulate` loop
/// (`mpn_addmul_1`/`mpn_submul_1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulAccMatch {
    /// The loop.
    pub shape: LoopShape,
    /// Accumulated stream pointer (read and written).
    pub rp: Reg,
    /// Multiplicand stream pointer.
    pub ap: Reg,
    /// The loop-invariant scalar multiplier.
    pub b: Reg,
    /// The GPR threading the carry limb between iterations.
    pub carry: Reg,
    /// True when the product is subtracted (`submul`).
    pub subtract: bool,
}

/// A successful pattern match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternMatch {
    /// Two loads, one carry-chained add/sub, one store.
    Elementwise(ElementwiseMatch),
    /// Load × invariant scalar accumulated into a second stream.
    MulAcc(MulAccMatch),
}

impl PatternMatch {
    /// The matched loop.
    pub fn shape(&self) -> LoopShape {
        match self {
            PatternMatch::Elementwise(m) => m.shape,
            PatternMatch::MulAcc(m) => m.shape,
        }
    }
}

/// Finds the entry's single counted loop: a conditional back-branch
/// `bne counter, zero, head` with `head <= back`, where the counter is
/// decremented in the body and `zero` is a `movi 0` from the prologue.
fn find_loop(ssa: &SsaView<'_>) -> Result<LoopShape, OptError> {
    let insns = ssa.ir().program.insns();
    let mut found = None;
    for (pc, insn) in insns.iter().enumerate() {
        if !ssa.reachable(pc) {
            continue;
        }
        let Insn::Bne(c, z, t) = insn else {
            continue; // the canonical counted-loop back edge is a bne
        };
        if *t > pc {
            continue; // forward branch, not a back edge
        }
        if found.is_some() {
            return Err(OptError::PatternMismatch(
                "more than one counted loop in entry".into(),
            ));
        }
        found = Some((pc, *t, *c, *z));
    }
    let Some((back, head, counter, zero)) = found else {
        return Err(OptError::PatternMismatch("no counted loop found".into()));
    };
    // The compared-against register must be a constant zero from
    // outside the loop.
    let Some(zdef) = ssa.unique_def(back, zero) else {
        return Err(OptError::PatternMismatch(format!(
            "loop bound {zero} is not singly defined"
        )));
    };
    if !matches!(insns[zdef], Insn::Movi(r, 0) if r == zero) || zdef >= head {
        return Err(OptError::PatternMismatch(format!(
            "loop bound {zero} is not a prologue zero"
        )));
    }
    // The counter must step by exactly -1 inside the body.
    let steps: Vec<usize> = (head..=back)
        .filter(|&pc| matches!(insns[pc], Insn::Addi(d, s, -1) if d == counter && s == counter))
        .collect();
    if steps.len() != 1 {
        return Err(OptError::PatternMismatch(format!(
            "loop counter {counter} must be decremented exactly once per iteration"
        )));
    }
    Ok(LoopShape {
        head,
        back,
        counter,
        zero,
    })
}

/// Matches `pattern` against `entry_label`'s loop in `ir`.
///
/// # Errors
///
/// [`OptError::PatternMismatch`] with a diagnostic when the entry's
/// dataflow does not have the family's canonical shape, and
/// [`OptError::Unsupported`] when the entry was not analyzed.
pub fn match_pattern(
    ir: &UnitIr,
    entry_label: &str,
    pattern: LoopPattern,
) -> Result<PatternMatch, OptError> {
    let ssa = SsaView::new(ir, entry_label)
        .ok_or_else(|| OptError::Unsupported(format!("entry {entry_label} not analyzed")))?;
    let shape = find_loop(&ssa)?;
    match pattern {
        LoopPattern::ElementwiseCarry => match_elementwise(&ssa, shape),
        LoopPattern::MulAccumulate => match_mul_acc(&ssa, shape),
    }
}

/// Body pcs of `shape`, back-branch included.
fn body(shape: LoopShape) -> std::ops::RangeInclusive<usize> {
    shape.head..=shape.back
}

/// The word loads (`lw _, base, 0`) inside the body.
fn body_loads(insns: &[Insn], shape: LoopShape) -> Vec<(usize, Reg, Reg)> {
    body(shape)
        .filter_map(|pc| match insns[pc] {
            Insn::Lw(d, base, 0) => Some((pc, d, base)),
            _ => None,
        })
        .collect()
}

/// Checks the body bumps pointer `p` by exactly `step` once.
fn bumped_once(insns: &[Insn], shape: LoopShape, p: Reg, step: i32) -> bool {
    body(shape)
        .filter(|&pc| matches!(insns[pc], Insn::Addi(d, s, k) if d == p && s == p && k == step))
        .count()
        == 1
}

fn match_elementwise(ssa: &SsaView<'_>, shape: LoopShape) -> Result<PatternMatch, OptError> {
    let insns = ssa.ir().program.insns();
    let loads = body_loads(insns, shape);
    if loads.len() != 2 {
        return Err(OptError::PatternMismatch(format!(
            "elementwise loop needs exactly 2 streamed loads, found {}",
            loads.len()
        )));
    }
    // The carry-chained combine, with both operands traced to the
    // loads by SSA use-def edges.
    let mut combine = None;
    for pc in body(shape) {
        let (d, x, y, subtract) = match insns[pc] {
            Insn::Addc(d, x, y) => (d, x, y, false),
            Insn::Subc(d, x, y) => (d, x, y, true),
            _ => continue,
        };
        if combine.is_some() {
            return Err(OptError::PatternMismatch(
                "multiple carry-chained combines in body".into(),
            ));
        }
        combine = Some((pc, d, x, y, subtract));
    }
    let Some((cpc, _, cx, cy, subtract)) = combine else {
        return Err(OptError::PatternMismatch(
            "no carry-chained add/sub in body".into(),
        ));
    };
    let xd = ssa.unique_def(cpc, cx);
    let yd = ssa.unique_def(cpc, cy);
    // x must come from the first-stream load, y from the second; for
    // subtraction the operand order fixes which stream is the
    // minuend, so ap/bp are recovered from the combine's operand
    // order, not from load order.
    let ap = loads
        .iter()
        .find(|&&(pc, d, _)| Some(pc) == xd && d == cx)
        .map(|&(_, _, base)| base);
    let bp = loads
        .iter()
        .find(|&&(pc, d, _)| Some(pc) == yd && d == cy)
        .map(|&(_, _, base)| base);
    let (Some(ap), Some(bp)) = (ap, bp) else {
        return Err(OptError::PatternMismatch(
            "combine operands are not the streamed loads".into(),
        ));
    };
    if ap == bp {
        return Err(OptError::PatternMismatch(
            "both streams load through the same pointer".into(),
        ));
    }
    // The result is stored to a third stream.
    let mut store = None;
    for pc in body(shape) {
        if let Insn::Sw(v, base, 0) = insns[pc] {
            if store.is_some() {
                return Err(OptError::PatternMismatch("multiple stores in body".into()));
            }
            store = Some((pc, v, base));
        }
    }
    let Some((spc, sv, rp)) = store else {
        return Err(OptError::PatternMismatch(
            "no streamed store in body".into(),
        ));
    };
    if ssa.unique_def(spc, sv) != Some(cpc) {
        return Err(OptError::PatternMismatch(
            "stored value is not the combine result".into(),
        ));
    }
    for p in [rp, ap, bp] {
        if !bumped_once(insns, shape, p, 4) {
            return Err(OptError::PatternMismatch(format!(
                "stream pointer {p} is not bumped by 4 exactly once"
            )));
        }
    }
    Ok(PatternMatch::Elementwise(ElementwiseMatch {
        shape,
        rp,
        ap,
        bp,
        subtract,
    }))
}

fn match_mul_acc(ssa: &SsaView<'_>, shape: LoopShape) -> Result<PatternMatch, OptError> {
    let insns = ssa.ir().program.insns();
    let loads = body_loads(insns, shape);
    if loads.len() != 2 {
        return Err(OptError::PatternMismatch(format!(
            "mul-accumulate loop needs exactly 2 streamed loads, found {}",
            loads.len()
        )));
    }
    // The low product: one operand from a streamed load, the other
    // loop-invariant (the scalar b).
    let mut mul = None;
    for pc in body(shape) {
        if let Insn::Mul(d, x, y) = insns[pc] {
            if mul.is_some() {
                return Err(OptError::PatternMismatch("multiple muls in body".into()));
            }
            mul = Some((pc, d, x, y));
        }
    }
    let Some((mpc, _, mx, my)) = mul else {
        return Err(OptError::PatternMismatch("no mul in body".into()));
    };
    let from_load = |r: Reg| {
        ssa.unique_def(mpc, r)
            .and_then(|d| loads.iter().find(|&&(pc, ld, _)| pc == d && ld == r))
            .map(|&(_, _, base)| base)
    };
    let (ap, b) = if ssa.entry_valued(mpc, my) {
        (from_load(mx), my)
    } else if ssa.entry_valued(mpc, mx) {
        (from_load(my), mx)
    } else {
        return Err(OptError::PatternMismatch(
            "neither mul operand is loop-invariant".into(),
        ));
    };
    let Some(ap) = ap else {
        return Err(OptError::PatternMismatch(
            "mul operand is not a streamed load".into(),
        ));
    };
    // The high product must mirror the low one.
    let mulhu_ok = body(shape).any(|pc| {
        matches!(insns[pc], Insn::Mulhu(_, x, y)
            if (x, y) == (mx, my) || (x, y) == (my, mx))
    });
    if !mulhu_ok {
        return Err(OptError::PatternMismatch(
            "no matching mulhu for the carry limb".into(),
        ));
    }
    // The accumulated stream: the second load's base, stored back to.
    let rp = loads
        .iter()
        .map(|&(_, _, base)| base)
        .find(|&base| base != ap)
        .ok_or_else(|| {
            OptError::PatternMismatch("no accumulated stream distinct from the multiplicand".into())
        })?;
    let stores_rp = body(shape).any(|pc| matches!(insns[pc], Insn::Sw(_, base, 0) if base == rp));
    if !stores_rp {
        return Err(OptError::PatternMismatch(
            "accumulated stream is never stored back".into(),
        ));
    }
    for p in [rp, ap] {
        if !bumped_once(insns, shape, p, 4) {
            return Err(OptError::PatternMismatch(format!(
                "stream pointer {p} is not bumped by 4 exactly once"
            )));
        }
    }
    // The carry-limb GPR: zero-initialized in the prologue, read in the
    // body, redefined by a body `mov` — a loop-carried join of exactly
    // those two def sites.
    let mut carry = None;
    for pc in body(shape) {
        let Insn::Mov(cr, _) = insns[pc] else {
            continue;
        };
        if cr == shape.counter || cr == shape.zero {
            continue;
        }
        let sites = ssa.def_sites(shape.head, cr);
        let [init, redef] = sites.as_slice() else {
            continue;
        };
        let prologue_zero =
            *init < shape.head && matches!(insns[*init], Insn::Movi(r, 0) if r == cr);
        if prologue_zero && *redef == pc {
            if carry.is_some() {
                return Err(OptError::PatternMismatch(
                    "multiple carry-limb candidates in body".into(),
                ));
            }
            carry = Some(cr);
        }
    }
    let Some(carry) = carry else {
        return Err(OptError::PatternMismatch(
            "no loop-carried carry-limb GPR found".into(),
        ));
    };
    let subtract = body(shape).any(|pc| matches!(insns[pc], Insn::Sub(..) | Insn::Subc(..)));
    Ok(PatternMatch::MulAcc(MulAccMatch {
        shape,
        rp,
        ap,
        b,
        carry,
        subtract,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::{id, kernels::mpn};

    fn matched(id: kreg::KernelId, pattern: LoopPattern) -> PatternMatch {
        let src = mpn::canonical_source32(id).unwrap();
        let ir = UnitIr::from_source(src).unwrap();
        match_pattern(&ir, id.name(), pattern).unwrap()
    }

    #[test]
    fn add_n_matches_elementwise_carry() {
        let PatternMatch::Elementwise(m) = matched(id::ADD_N, LoopPattern::ElementwiseCarry) else {
            panic!("wrong match kind");
        };
        assert_eq!(m.rp, Reg::new(0));
        assert_eq!(m.ap, Reg::new(1));
        assert_eq!(m.bp, Reg::new(2));
        assert!(!m.subtract);
        assert_eq!(m.shape.counter, Reg::new(3));
        assert_eq!(m.shape.zero, Reg::new(6));
    }

    #[test]
    fn sub_n_matches_with_subtract_direction() {
        let PatternMatch::Elementwise(m) = matched(id::SUB_N, LoopPattern::ElementwiseCarry) else {
            panic!("wrong match kind");
        };
        // Operand order of subc fixes the minuend stream: ap must be
        // the first-loaded stream (a1), not whichever load came first.
        assert_eq!(m.ap, Reg::new(1));
        assert_eq!(m.bp, Reg::new(2));
        assert!(m.subtract);
    }

    #[test]
    fn addmul_1_matches_mul_accumulate() {
        let PatternMatch::MulAcc(m) = matched(id::ADDMUL_1, LoopPattern::MulAccumulate) else {
            panic!("wrong match kind");
        };
        assert_eq!(m.rp, Reg::new(0));
        assert_eq!(m.ap, Reg::new(1));
        assert_eq!(m.b, Reg::new(3));
        assert_eq!(m.carry, Reg::new(7));
        assert!(!m.subtract);
        assert_eq!(m.shape.counter, Reg::new(2));
    }

    #[test]
    fn mismatched_pattern_is_refused() {
        let src = mpn::canonical_source32(id::ADD_N).unwrap();
        let ir = UnitIr::from_source(src).unwrap();
        let err = match_pattern(&ir, "mpn_add_n", LoopPattern::MulAccumulate).unwrap_err();
        assert!(matches!(err, OptError::PatternMismatch(_)), "{err}");
    }
}
