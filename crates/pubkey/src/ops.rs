//! The metered basic-operations interface.
//!
//! The paper's layered software architecture treats the basic operations
//! (`mpn_add_n`, `mpn_addmul_1`, …) as black boxes below the algorithm
//! layer. [`MpnOps`] is that boundary: the modular-exponentiation
//! algorithms in [`crate::algo`]/[`crate::modexp`] perform *all* limb
//! work through it, so swapping the implementation swaps the evaluation
//! method:
//!
//! - [`NativeMpn`]: plain computation, only call counting — the fastest
//!   way to check functional behavior;
//! - [`ModeledMpn`]: computation plus cycle accrual from fitted
//!   macro-models — the paper's native-execution estimation (§3.2);
//! - an ISS-backed implementation (in the `secproc` crate): every call
//!   runs the XR32 assembly kernel on the cycle-accurate simulator —
//!   the paper's slow reference.

use kreg::{id, KernelId};
use macromodel::model::MacroModel;
use mpint::limb::Limb;
use mpint::mpn;
use std::collections::BTreeMap;

/// Canonical names of the metered basic operations (used as macro-model
/// registry keys and kernel names). These are the kernel-registry names:
/// the typed ids live in [`kreg::id`].
pub use kreg::opname;

/// Number of metered basic operations: the length of [`kreg::id::MPN`].
const N_OPS: usize = id::MPN.len();

/// Array slot of each metered basic operation in the per-op count and
/// model arrays: its position in [`kreg::id::MPN`].
pub mod slot {
    /// `mpn_add_n`
    pub const ADD_N: usize = 0;
    /// `mpn_sub_n`
    pub const SUB_N: usize = 1;
    /// `mpn_mul_1`
    pub const MUL_1: usize = 2;
    /// `mpn_addmul_1`
    pub const ADDMUL_1: usize = 3;
    /// `mpn_submul_1`
    pub const SUBMUL_1: usize = 4;
    /// `mpn_lshift`
    pub const LSHIFT: usize = 5;
    /// `mpn_rshift`
    pub const RSHIFT: usize = 6;
    /// `div_qhat`
    pub const DIV_QHAT: usize = 7;
}

/// The array slot of `op`, or `None` for a kernel that is not a metered
/// basic operation (e.g. `sha1_compress`).
fn slot_of(op: KernelId) -> Option<usize> {
    id::MPN.iter().position(|&k| k == op)
}

/// Per-op call counters, one per [`slot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCounts([u64; N_OPS]);

impl CallCounts {
    /// Counts one call of the op in `slot`.
    pub fn bump(&mut self, slot: usize) {
        self.0[slot] += 1;
    }

    /// Calls recorded for `op` (0 for a non-metered kernel).
    pub fn get(&self, op: KernelId) -> u64 {
        slot_of(op).map_or(0, |s| self.0[s])
    }

    /// Zeroes every counter.
    pub fn clear(&mut self) {
        self.0 = [0; N_OPS];
    }
}

/// The basic-operations provider: computes limb-level results and
/// accounts their cost.
pub trait MpnOps<L: Limb> {
    /// `r = a + b`, returning the carry (see [`mpn::add_n`]).
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool;
    /// `r = a - b`, returning the borrow.
    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool;
    /// `r = a * b` (single-limb `b`), returning the high limb.
    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L;
    /// `r += a * b`, returning the carry limb.
    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L;
    /// `r -= a * b`, returning the borrow limb.
    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L;
    /// Left shift by `0 < cnt < L::BITS`.
    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L;
    /// Right shift by `0 < cnt < L::BITS`.
    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L;
    /// Knuth division quotient-limb estimate with correction
    /// (divides `(n2, n1, n0)` by normalized `(d1, d0)`).
    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L;
    /// Accounts `units` of algorithm-layer control overhead (loop
    /// bookkeeping, function-call glue) — cycles outside the basic ops.
    fn glue(&mut self, units: u64);

    /// Cycles accounted so far.
    fn cycles(&self) -> f64;
    /// Resets the cycle and call counters.
    fn reset(&mut self);
    /// Calls recorded for `op` since the last reset (0 for a kernel
    /// that is not a metered basic operation).
    fn call_count(&self, op: KernelId) -> u64;
}

/// Reference implementation of the 3-by-2 quotient estimate shared by
/// all providers (semantics must be identical across them). Lives in
/// [`mpn`] so the kernel registry can embed it as a golden reference.
pub use mpint::mpn::div_qhat_reference;

/// Pure computation with call counting (zero cycle cost).
#[derive(Debug, Clone, Default)]
pub struct NativeMpn {
    counts: CallCounts,
}

impl NativeMpn {
    /// Creates a fresh provider.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<L: Limb> MpnOps<L> for NativeMpn {
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.counts.bump(slot::ADD_N);
        mpn::add_n(r, a, b)
    }

    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.counts.bump(slot::SUB_N);
        mpn::sub_n(r, a, b)
    }

    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.counts.bump(slot::MUL_1);
        mpn::mul_1(r, a, b)
    }

    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.counts.bump(slot::ADDMUL_1);
        mpn::addmul_1(r, a, b)
    }

    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.counts.bump(slot::SUBMUL_1);
        mpn::submul_1(r, a, b)
    }

    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.counts.bump(slot::LSHIFT);
        mpn::lshift(r, a, cnt)
    }

    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.counts.bump(slot::RSHIFT);
        mpn::rshift(r, a, cnt)
    }

    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L {
        self.counts.bump(slot::DIV_QHAT);
        div_qhat_reference(n2, n1, n0, d1, d0)
    }

    fn glue(&mut self, _units: u64) {}

    fn cycles(&self) -> f64 {
        0.0
    }

    fn reset(&mut self) {
        self.counts.clear();
    }

    fn call_count(&self, op: KernelId) -> u64 {
        self.counts.get(op)
    }
}

/// One macro-model registry laid out by [`slot`]; a name that is not a
/// metered basic operation has no slot and is dropped.
type ModelSlots<'m> = [Option<&'m MacroModel>; N_OPS];

fn model_slots<'m>(models: &'m BTreeMap<&'static str, MacroModel>) -> ModelSlots<'m> {
    id::MPN.map(|op| models.get(op.name()))
}

/// Computation plus macro-model cycle accrual: the paper's fast
/// native-execution performance estimation.
///
/// Each basic op's cycles come from a fitted [`MacroModel`] evaluated at
/// the operand length (in limbs); `div_qhat` and `glue` use constant
/// models. A model's prediction depends only on the length, so each
/// (radix, slot, length) is predicted once and then read from a table.
/// The provider borrows its models from the registries it was built
/// from, so building one per estimate copies no model.
#[derive(Debug, Clone)]
pub struct ModeledMpn<'m> {
    /// Models indexed by radix (0: 32-bit limbs, 1: 16-bit limbs) and
    /// [`slot`].
    models: [ModelSlots<'m>; 2],
    /// `models[radix][slot]`'s prediction at each length, indexed like
    /// `models`; NaN until first used.
    predicted: [[Vec<f64>; N_OPS]; 2],
    glue_cost: f64,
    cycles: f64,
    counts: CallCounts,
}

impl<'m> ModeledMpn<'m> {
    /// Builds a provider from per-op macro-models (keyed by
    /// [`opname`] constants) and a per-unit glue cost. The same models
    /// serve both limb widths; use [`ModeledMpn::with_radix_models`]
    /// when the 16-bit kernels were characterized separately.
    ///
    /// Ops without a model cost zero cycles (call counting still
    /// happens), so partial registries degrade gracefully during
    /// bring-up. Models under names that are not basic operations are
    /// ignored.
    pub fn new(models: &'m BTreeMap<&'static str, MacroModel>, glue_cost: f64) -> Self {
        Self::with_radix_models(models, models, glue_cost)
    }

    /// Builds a provider with distinct model registries per limb width
    /// (radix 2^32 vs. radix 2^16 kernels have different cycle
    /// profiles).
    pub fn with_radix_models(
        models32: &'m BTreeMap<&'static str, MacroModel>,
        models16: &'m BTreeMap<&'static str, MacroModel>,
        glue_cost: f64,
    ) -> Self {
        ModeledMpn {
            models: [model_slots(models32), model_slots(models16)],
            predicted: Default::default(),
            glue_cost,
            cycles: 0.0,
            counts: CallCounts::default(),
        }
    }

    /// Counts one call of the op in `slot` and adds its predicted cycles
    /// at `len`: a table read once the length has been predicted.
    #[inline]
    fn charge(&mut self, width: u32, slot: usize, len: usize) {
        self.counts.bump(slot);
        let radix = usize::from(width == 16);
        match self.predicted[radix][slot].get(len) {
            Some(&c) if !c.is_nan() => self.cycles += c,
            _ => self.charge_unpredicted(radix, slot, len),
        }
    }

    /// [`ModeledMpn::charge`] for a length not yet predicted, or an op
    /// without a model (which costs nothing).
    #[cold]
    #[inline(never)]
    fn charge_unpredicted(&mut self, radix: usize, slot: usize, len: usize) {
        if let Some(m) = self.models[radix][slot] {
            let row = &mut self.predicted[radix][slot];
            if len >= row.len() {
                row.resize(len + 1, f64::NAN);
            }
            if row[len].is_nan() {
                row[len] = m.predict(&[len as u64]);
            }
            self.cycles += row[len];
        }
    }
}

impl<L: Limb> MpnOps<L> for ModeledMpn<'_> {
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.charge(L::BITS, slot::ADD_N, a.len());
        mpn::add_n(r, a, b)
    }

    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.charge(L::BITS, slot::SUB_N, a.len());
        mpn::sub_n(r, a, b)
    }

    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.charge(L::BITS, slot::MUL_1, a.len());
        mpn::mul_1(r, a, b)
    }

    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.charge(L::BITS, slot::ADDMUL_1, a.len());
        mpn::addmul_1(r, a, b)
    }

    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.charge(L::BITS, slot::SUBMUL_1, a.len());
        mpn::submul_1(r, a, b)
    }

    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.charge(L::BITS, slot::LSHIFT, a.len());
        mpn::lshift(r, a, cnt)
    }

    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.charge(L::BITS, slot::RSHIFT, a.len());
        mpn::rshift(r, a, cnt)
    }

    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L {
        self.charge(L::BITS, slot::DIV_QHAT, 1);
        div_qhat_reference(n2, n1, n0, d1, d0)
    }

    fn glue(&mut self, units: u64) {
        self.cycles += self.glue_cost * units as f64;
    }

    fn cycles(&self) -> f64 {
        self.cycles
    }

    fn reset(&mut self) {
        self.cycles = 0.0;
        self.counts.clear();
    }

    fn call_count(&self, op: KernelId) -> u64 {
        self.counts.get(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macromodel::model::Monomial;

    fn linear_model(name: &str, c0: f64, c1: f64) -> MacroModel {
        MacroModel::new(
            name,
            vec![Monomial::constant(1), Monomial::linear(1, 0)],
            vec![c0, c1],
        )
    }

    #[test]
    fn native_counts_but_costs_nothing() {
        let mut ops = NativeMpn::new();
        let a = [1u32, 2, 3];
        let b = [4u32, 5, 6];
        let mut r = [0u32; 3];
        MpnOps::add_n(&mut ops, &mut r, &a, &b);
        MpnOps::add_n(&mut ops, &mut r, &a, &b);
        MpnOps::addmul_1(&mut ops, &mut r, &a, 7);
        assert_eq!(<NativeMpn as MpnOps<u32>>::cycles(&ops), 0.0);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::ADD_N), 2);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::ADDMUL_1), 1);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::SUB_N), 0);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::SHA1), 0);
    }

    #[test]
    fn slots_follow_the_registry_order() {
        let slots = [
            (slot::ADD_N, id::ADD_N),
            (slot::SUB_N, id::SUB_N),
            (slot::MUL_1, id::MUL_1),
            (slot::ADDMUL_1, id::ADDMUL_1),
            (slot::SUBMUL_1, id::SUBMUL_1),
            (slot::LSHIFT, id::LSHIFT),
            (slot::RSHIFT, id::RSHIFT),
            (slot::DIV_QHAT, id::DIV_QHAT),
        ];
        for (s, op) in slots {
            assert_eq!(id::MPN[s], op);
            assert_eq!(slot_of(op), Some(s));
        }
        assert_eq!(slot_of(id::SHA1), None);
    }

    #[test]
    fn modeled_op_without_a_model_costs_nothing_but_counts() {
        let mut models = BTreeMap::new();
        models.insert(opname::ADD_N, linear_model(opname::ADD_N, 12.0, 6.0));
        let mut ops = ModeledMpn::new(&models, 0.0);
        let a = [1u32; 4];
        let mut r = [0u32; 4];
        MpnOps::mul_1(&mut ops, &mut r, &a, 3);
        MpnOps::lshift(&mut ops, &mut r, &a, 5);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 0.0);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::MUL_1), 1);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::LSHIFT), 1);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::ADD_N), 0);
    }

    #[test]
    fn modeled_limb_widths_pick_their_own_registry() {
        let mut models32 = BTreeMap::new();
        models32.insert(opname::ADD_N, linear_model(opname::ADD_N, 10.0, 1.0));
        let mut models16 = BTreeMap::new();
        models16.insert(opname::ADD_N, linear_model(opname::ADD_N, 100.0, 2.0));
        models16.insert(opname::DIV_QHAT, linear_model(opname::DIV_QHAT, 7.0, 0.0));
        let mut ops = ModeledMpn::with_radix_models(&models32, &models16, 0.0);
        let mut r32 = [0u32; 3];
        MpnOps::add_n(&mut ops, &mut r32, &[1, 2, 3], &[4, 5, 6]);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 10.0 + 3.0);
        let mut r16 = [0u16; 3];
        MpnOps::add_n(&mut ops, &mut r16, &[1, 2, 3], &[4, 5, 6]);
        assert_eq!(
            <ModeledMpn as MpnOps<u16>>::cycles(&ops),
            13.0 + 100.0 + 6.0
        );
        // div_qhat has a 16-bit model only: the 32-bit call is free.
        MpnOps::<u32>::div_qhat(&mut ops, 1, 2, 3, 0x8000_0000, 0);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 119.0);
        MpnOps::<u16>::div_qhat(&mut ops, 1, 2, 3, 0x8000, 0);
        assert_eq!(<ModeledMpn as MpnOps<u16>>::cycles(&ops), 126.0);
        // One counter set serves both widths.
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::ADD_N), 2);
        assert_eq!(MpnOps::<u16>::call_count(&ops, id::DIV_QHAT), 2);
    }

    #[test]
    fn modeled_ignores_models_of_non_mpn_kernels() {
        let mut models = BTreeMap::new();
        models.insert(opname::SHA1, linear_model(opname::SHA1, 1000.0, 1000.0));
        let mut ops = ModeledMpn::new(&models, 0.0);
        let a = [1u32; 4];
        let mut r = [0u32; 4];
        MpnOps::add_n(&mut ops, &mut r, &a, &a);
        MpnOps::addmul_1(&mut ops, &mut r, &a, 9);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 0.0);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::SHA1), 0);
    }

    #[test]
    fn modeled_reset_clears_cycles_and_counts() {
        let mut models = BTreeMap::new();
        models.insert(opname::SUB_N, linear_model(opname::SUB_N, 5.0, 1.0));
        let mut ops = ModeledMpn::new(&models, 2.0);
        let a = [7u32; 2];
        let mut r = [0u32; 2];
        MpnOps::sub_n(&mut ops, &mut r, &a, &a);
        MpnOps::rshift(&mut ops, &mut r, &a, 1);
        MpnOps::<u32>::glue(&mut ops, 3);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 7.0 + 6.0);
        MpnOps::<u32>::reset(&mut ops);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 0.0);
        for op in id::MPN {
            assert_eq!(MpnOps::<u32>::call_count(&ops, op), 0, "{op}");
        }
        // The models survive a reset.
        MpnOps::sub_n(&mut ops, &mut r, &a, &a);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 7.0);
        assert_eq!(MpnOps::<u32>::call_count(&ops, id::SUB_N), 1);
    }

    #[test]
    fn modeled_accrues_predicted_cycles() {
        let mut models = BTreeMap::new();
        models.insert(opname::ADD_N, linear_model(opname::ADD_N, 12.0, 6.0));
        let mut ops = ModeledMpn::new(&models, 3.0);
        let a = [1u32; 8];
        let b = [2u32; 8];
        let mut r = [0u32; 8];
        MpnOps::add_n(&mut ops, &mut r, &a, &b);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 12.0 + 6.0 * 8.0);
        MpnOps::<u32>::glue(&mut ops, 4);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 60.0 + 12.0);
        MpnOps::<u32>::reset(&mut ops);
        assert_eq!(<ModeledMpn as MpnOps<u32>>::cycles(&ops), 0.0);
    }

    #[test]
    fn div_qhat_reference_matches_division() {
        // Random-ish normalized divisors; compare against u128 division.
        for seed in 1u64..200 {
            let d1 = 0x8000_0000u32 | (seed as u32).wrapping_mul(2654435761);
            let d0 = (seed as u32).wrapping_mul(0x9e3779b9);
            let n2 = d1 - 1 - (seed as u32 % 7).min(d1 - 1);
            let n1 = (seed as u32).wrapping_mul(123456789);
            let n0 = (seed as u32).wrapping_mul(987654321);
            let q = div_qhat_reference(n2, n1, n0, d1, d0);
            // qhat is either the true quotient limb or within the Knuth
            // bound (at most 2 over before correction; ours corrects
            // against d1d0, so error vs the 3-limb/2-limb true quotient
            // is 0 or +1).
            let n = ((n2 as u128) << 64) | ((n1 as u128) << 32) | n0 as u128;
            let d = ((d1 as u128) << 32) | d0 as u128;
            let true_q = (n / d) as u64;
            assert!(
                (q as u64 == true_q) || (q as u64 == true_q + 1),
                "seed {seed}: qhat {q} vs true {true_q}"
            );
        }
    }

    #[test]
    fn results_identical_across_providers() {
        let mut native = NativeMpn::new();
        let no_models = BTreeMap::new();
        let mut modeled = ModeledMpn::new(&no_models, 1.0);
        let a: Vec<u32> = (0u32..16)
            .map(|i| i.wrapping_mul(0x0101_0101) + 7)
            .collect();
        let b: Vec<u32> = (0u32..16)
            .map(|i| i.wrapping_mul(0x2020_2020) + 3)
            .collect();
        let mut r1 = vec![0u32; 16];
        let mut r2 = vec![0u32; 16];
        let c1 = MpnOps::add_n(&mut native, &mut r1, &a, &b);
        let c2 = MpnOps::add_n(&mut modeled, &mut r2, &a, &b);
        assert_eq!(r1, r2);
        assert_eq!(c1, c2);
        let h1 = MpnOps::addmul_1(&mut native, &mut r1, &a, 0xdead_beef);
        let h2 = MpnOps::addmul_1(&mut modeled, &mut r2, &a, 0xdead_beef);
        assert_eq!(r1, r2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn u16_limbs_supported() {
        let mut ops = NativeMpn::new();
        let a = [0xffffu16, 0xffff];
        let b = [1u16, 0];
        let mut r = [0u16; 2];
        let carry = MpnOps::add_n(&mut ops, &mut r, &a, &b);
        assert!(carry);
        assert_eq!(r, [0, 0]);
    }
}
