//! Multi-precision algorithms expressed over the metered [`MpnOps`]
//! boundary.
//!
//! Everything here performs its limb work *exclusively* through an
//! [`MpnOps`] provider, so the same code path serves functional
//! execution, macro-model estimation, and ISS co-simulation. Limb-vector
//! conventions match [`mpint::mpn`] (little-endian, `Vec<L>` results
//! sized exactly).

use crate::ops::MpnOps;
use mpint::limb::Limb;
use mpint::mpn;
use std::cmp::Ordering;

/// Default operand size (limbs) above which Karatsuba recursion is used.
pub const KARATSUBA_THRESHOLD: usize = 16;

/// Schoolbook product `a × b` (lengths may differ).
pub fn mul_schoolbook<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, a: &[L], b: &[L]) -> Vec<L> {
    let mut r = vec![L::ZERO; a.len() + b.len()];
    schoolbook_into(ops, &mut r, a, b);
    r
}

/// Schoolbook product `a × b` into the zeroed prefix
/// `r[..a.len() + b.len()]`.
fn schoolbook_into<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, r: &mut [L], a: &[L], b: &[L]) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    for (j, &bj) in b.iter().enumerate() {
        let carry = ops.addmul_1(&mut r[j..j + a.len()], a, bj);
        r[j + a.len()] = carry;
    }
    ops.glue(b.len() as u64);
}

/// Karatsuba product with the given basecase threshold.
pub fn mul_karatsuba<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    a: &[L],
    b: &[L],
    threshold: usize,
) -> Vec<L> {
    let an = mpn::normalized(a);
    let bn = mpn::normalized(b);
    let mut r = vec![L::ZERO; a.len() + b.len()];
    if an.is_empty() || bn.is_empty() {
        return r;
    }
    let prod = kara_rec(ops, an, bn, threshold.max(2));
    r[..prod.len()].copy_from_slice(&prod);
    r
}

fn kara_rec<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    a: &[L],
    b: &[L],
    threshold: usize,
) -> Vec<L> {
    if a.len().min(b.len()) <= threshold {
        return mul_schoolbook(ops, a, b);
    }
    let m = a.len().max(b.len()) / 2;
    let (a0, a1) = split_at_limb(a, m);
    let (b0, b1) = split_at_limb(b, m);

    let z0 = mul_nonempty(ops, a0, b0, threshold);
    let z2 = mul_nonempty(ops, a1, b1, threshold);
    let asum = add_full(ops, a0, a1);
    let bsum = add_full(ops, b0, b1);
    let mut z1 = mul_nonempty(ops, &asum, &bsum, threshold);
    sub_in_place(ops, &mut z1, &z0);
    sub_in_place(ops, &mut z1, &z2);

    let mut r = vec![L::ZERO; a.len() + b.len()];
    add_at(ops, &mut r, &z0, 0);
    add_at(ops, &mut r, &z1, m);
    add_at(ops, &mut r, &z2, 2 * m);
    ops.glue(3);
    r
}

fn mul_nonempty<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    a: &[L],
    b: &[L],
    threshold: usize,
) -> Vec<L> {
    let a = mpn::normalized(a);
    let b = mpn::normalized(b);
    if a.is_empty() || b.is_empty() {
        Vec::new()
    } else {
        kara_rec(ops, a, b, threshold)
    }
}

fn split_at_limb<L: Limb>(a: &[L], m: usize) -> (&[L], &[L]) {
    if a.len() <= m {
        (a, &[])
    } else {
        (&a[..m], &a[m..])
    }
}

/// Full-width addition of arbitrary-length vectors, metered as one
/// `add_n` of the longer length.
pub fn add_full<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, a: &[L], b: &[L]) -> Vec<L> {
    let n = a.len().max(b.len()) + 1;
    let mut ap = a.to_vec();
    ap.resize(n, L::ZERO);
    let mut bp = b.to_vec();
    bp.resize(n, L::ZERO);
    let mut r = vec![L::ZERO; n];
    let carry = ops.add_n(&mut r, &ap, &bp);
    debug_assert!(!carry);
    while r.last() == Some(&L::ZERO) && r.len() > a.len().max(b.len()) {
        r.pop();
    }
    r
}

/// In-place subtraction `a -= b` (numerically `a >= b`), metered as one
/// `sub_n`.
fn sub_in_place<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, a: &mut [L], b: &[L]) {
    let b = mpn::normalized(b);
    if b.is_empty() {
        return;
    }
    let mut bp = b.to_vec();
    bp.resize(a.len(), L::ZERO);
    let tmp = a.to_vec();
    let borrow = ops.sub_n(a, &tmp, &bp);
    debug_assert!(!borrow, "subtraction went negative");
}

/// Adds `v` into `r` at limb offset `off`, metered as one `add_n` of
/// `v`'s length (carry ripple accounted as glue).
fn add_at<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, r: &mut [L], v: &[L], off: usize) {
    let v = mpn::normalized(v);
    if v.is_empty() {
        return;
    }
    let seg = r[off..off + v.len()].to_vec();
    let mut out = vec![L::ZERO; v.len()];
    let mut carry = ops.add_n(&mut out, &seg, v);
    r[off..off + v.len()].copy_from_slice(&out);
    let mut i = off + v.len();
    while carry {
        debug_assert!(i < r.len(), "recombination overflow");
        let (s, c) = r[i].add_carry(L::ONE, false);
        r[i] = s;
        carry = c;
        i += 1;
        ops.glue(1);
    }
}

/// Full division: `(quotient, remainder)` via Knuth algorithm D with the
/// quotient estimate metered through [`MpnOps::div_qhat`].
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn divrem<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, n: &[L], d: &[L]) -> (Vec<L>, Vec<L>) {
    let d = mpn::normalized(d);
    assert!(!d.is_empty(), "division by zero");
    let n = mpn::normalized(n);
    if mpn::cmp(n, d) == Ordering::Less {
        return (Vec::new(), n.to_vec());
    }
    if d.len() == 1 {
        // Single-limb divisor: one div_qhat per quotient limb against the
        // normalized divisor.
        let shift = d[0].leading_zeros();
        let dd = d[0] << shift;
        let mut nv = vec![L::ZERO; n.len() + 1];
        if shift > 0 {
            let out = ops.lshift(&mut nv[..n.len()], n, shift);
            nv[n.len()] = out;
        } else {
            nv[..n.len()].copy_from_slice(n);
        }
        let mut q = vec![L::ZERO; n.len()];
        let mut rem = nv[n.len()];
        for i in (0..n.len()).rev() {
            // Degenerate 2-by-1 estimate: reuse div_qhat with d0 = 0.
            let qi = ops.div_qhat(rem, nv[i], L::ZERO, dd, L::ZERO);
            // Correct residue natively (the kernel returns the quotient).
            let num = (rem.to_u64() << L::BITS) | nv[i].to_u64();
            rem = L::from_u64(num - qi.to_u64() * dd.to_u64());
            q[i] = qi;
        }
        let rem = rem >> shift;
        let rv = if rem == L::ZERO {
            Vec::new()
        } else {
            vec![rem]
        };
        return (mpn::normalized(&q).to_vec(), rv);
    }

    // Normalize so the divisor's top bit is set.
    let shift = d[d.len() - 1].leading_zeros();
    let mut dv = d.to_vec();
    let mut nv = vec![L::ZERO; n.len() + 1];
    if shift > 0 {
        let dsrc = d.to_vec();
        ops.lshift(&mut dv, &dsrc, shift);
        let out = ops.lshift(&mut nv[..n.len()], n, shift);
        nv[n.len()] = out;
    } else {
        nv[..n.len()].copy_from_slice(n);
    }
    let dn = dv.len();
    let m = nv.len() - 1;
    let d1 = dv[dn - 1];
    let d0 = dv[dn - 2];
    let mut q = vec![L::ZERO; m - dn + 1];
    for j in (0..=m - dn).rev() {
        let qhat = ops.div_qhat(nv[j + dn], nv[j + dn - 1], nv[j + dn - 2], d1, d0);
        let borrow = ops.submul_1(&mut nv[j..j + dn], &dv, qhat);
        let (t, under) = nv[j + dn].sub_borrow(borrow, false);
        nv[j + dn] = t;
        let mut qv = qhat;
        if under {
            qv = L::from_u64(qv.to_u64().wrapping_sub(1));
            let seg = nv[j..j + dn].to_vec();
            let mut out = vec![L::ZERO; dn];
            let carry = ops.add_n(&mut out, &seg, &dv);
            nv[j..j + dn].copy_from_slice(&out);
            let (t, _) = nv[j + dn].add_carry(L::from_u64(carry as u64), false);
            nv[j + dn] = t;
        }
        q[j] = qv;
        ops.glue(1);
    }
    let mut rem = nv[..dn].to_vec();
    if shift > 0 {
        let tmp = rem.clone();
        ops.rshift(&mut rem, &tmp, shift);
    }
    (mpn::normalized(&q).to_vec(), mpn::normalized(&rem).to_vec())
}

/// Computes the negated inverse of the odd limb `n0` modulo the limb
/// base (the Montgomery `n0'` constant), by Newton iteration.
pub fn monty_n0inv<L: Limb>(n0: L) -> L {
    debug_assert!(n0.to_u64() & 1 == 1, "montgomery modulus must be odd");
    let mask = L::MAX.to_u64();
    let x = n0.to_u64();
    let mut y = x;
    for _ in 0..6 {
        y = y.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(y))) & mask;
    }
    debug_assert_eq!(x.wrapping_mul(y) & mask, 1);
    L::from_u64(y.wrapping_neg() & mask)
}

/// Precomputed Montgomery context over the metered ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MontyState<L: Limb> {
    /// Modulus limbs (normalized length `k`).
    pub n: Vec<L>,
    /// `-n[0]^{-1} mod base`.
    pub n0inv: L,
    /// `R² mod n`, padded to `k` limbs.
    pub rr: Vec<L>,
}

impl<L: Limb> MontyState<L> {
    /// Builds the context, metering the `R² mod n` division through
    /// `ops`.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is even or zero.
    pub fn new<O: MpnOps<L> + ?Sized>(ops: &mut O, modulus: &[L]) -> Self {
        let n = mpn::normalized(modulus).to_vec();
        assert!(!n.is_empty(), "zero modulus");
        assert!(n[0].to_u64() & 1 == 1, "montgomery modulus must be odd");
        let k = n.len();
        // R^2 = base^(2k): a 1 followed by 2k zero limbs.
        let mut r2 = vec![L::ZERO; 2 * k + 1];
        r2[2 * k] = L::ONE;
        let (_, rem) = divrem(ops, &r2, &n);
        let mut rr = rem;
        rr.resize(k, L::ZERO);
        MontyState {
            n0inv: monty_n0inv(n[0]),
            n,
            rr,
        }
    }

    /// Montgomery product `a·b·R⁻¹ mod n` of `k`-limb operands.
    pub fn mul<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, a: &[L], b: &[L]) -> Vec<L> {
        let k = self.n.len();
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        let mut t = vec![L::ZERO; 2 * k + 1];
        schoolbook_into(ops, &mut t, a, b);
        self.reduce(ops, &mut t)
    }

    /// Montgomery reduction of a `2k+1`-limb value.
    fn reduce<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, t: &mut [L]) -> Vec<L> {
        let k = self.n.len();
        debug_assert_eq!(t.len(), 2 * k + 1);
        for i in 0..k {
            let m = L::from_u64(t[i].to_u64().wrapping_mul(self.n0inv.to_u64()) & L::MAX.to_u64());
            let carry = ops.addmul_1(&mut t[i..i + k], &self.n, m);
            let mut j = i + k;
            let mut c = carry;
            while c != L::ZERO {
                let (s, over) = t[j].add_carry(c, false);
                t[j] = s;
                c = if over { L::ONE } else { L::ZERO };
                j += 1;
            }
            ops.glue(1);
        }
        let hi = &t[k..2 * k];
        if t[2 * k] != L::ZERO || mpn::cmp_n(hi, &self.n) != Ordering::Less {
            let mut r = vec![L::ZERO; k];
            ops.sub_n(&mut r, hi, &self.n);
            r
        } else {
            hi.to_vec()
        }
    }

    /// Converts a `k`-limb value into the Montgomery domain.
    pub fn to_monty<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, a: &[L]) -> Vec<L> {
        self.mul(ops, a, &self.rr)
    }

    /// Converts a Montgomery-domain value back to plain representation.
    pub fn from_monty<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, a: &[L]) -> Vec<L> {
        let k = self.n.len();
        let mut one = vec![L::ZERO; k];
        one[0] = L::ONE;
        self.mul(ops, a, &one)
    }
}

/// Precomputed Barrett context over the metered ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrettState<L: Limb> {
    /// Modulus limbs (normalized length `k`).
    pub m: Vec<L>,
    /// `⌊base^(2k) / m⌋`.
    pub mu: Vec<L>,
}

impl<L: Limb> BarrettState<L> {
    /// Builds the context, metering the `mu` division through `ops`.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is zero.
    pub fn new<O: MpnOps<L> + ?Sized>(ops: &mut O, modulus: &[L]) -> Self {
        let m = mpn::normalized(modulus).to_vec();
        assert!(!m.is_empty(), "zero modulus");
        let k = m.len();
        let mut pow = vec![L::ZERO; 2 * k + 1];
        pow[2 * k] = L::ONE;
        let (mu, _) = divrem(ops, &pow, &m);
        BarrettState { m, mu }
    }

    /// Reduces `x < m²` modulo `m`.
    pub fn reduce<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, x: &[L]) -> Vec<L> {
        let k = self.m.len();
        let x = mpn::normalized(x);
        if mpn::cmp(x, &self.m) == Ordering::Less {
            return x.to_vec();
        }
        // q1 = x >> base^(k-1) (limb-granular; free slice).
        let q1 = &x[(k - 1).min(x.len())..];
        let q2 = mul_schoolbook(ops, q1, &self.mu);
        let q3 = if q2.len() > k + 1 {
            q2[k + 1..].to_vec()
        } else {
            Vec::new()
        };
        let r2 = mul_schoolbook(ops, &q3, &self.m);
        // r = x - r2, then correct into [0, m).
        let mut r = x.to_vec();
        sub_in_place(ops, &mut r, &r2);
        let mut r = mpn::normalized(&r).to_vec();
        while mpn::cmp(&r, &self.m) != Ordering::Less {
            let mut rp = r.clone();
            rp.resize(r.len().max(k), L::ZERO);
            let mut mp = self.m.clone();
            mp.resize(rp.len(), L::ZERO);
            let tmp = rp.clone();
            ops.sub_n(&mut rp, &tmp, &mp);
            r = mpn::normalized(&rp).to_vec();
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NativeMpn;
    use mpint::Natural;

    fn nat(hex: &str) -> Natural {
        Natural::from_hex_str(hex).unwrap()
    }

    fn to_nat(limbs: &[u32]) -> Natural {
        Natural::from_radix_limbs(limbs)
    }

    #[test]
    fn schoolbook_matches_natural_mul() {
        let mut ops = NativeMpn::new();
        let a = nat("fedcba9876543210deadbeef");
        let b = nat("0123456789abcdef");
        let p = mul_schoolbook::<u32, _>(&mut ops, a.limbs(), b.limbs());
        assert_eq!(to_nat(&p), &a * &b);
    }

    #[test]
    fn karatsuba_matches_schoolbook_over_ops() {
        let mut ops = NativeMpn::new();
        let a: Vec<u32> = (0u32..50).map(|i| i.wrapping_mul(2654435761) + 1).collect();
        let b: Vec<u32> = (0u32..47).map(|i| i * 40503 + 9).collect();
        let k = mul_karatsuba(&mut ops, &a, &b, 8);
        let s = mul_schoolbook(&mut ops, &a, &b);
        assert_eq!(k, s);
    }

    #[test]
    fn karatsuba_costs_fewer_cycles_on_large_inputs() {
        use crate::ops::{opname, ModeledMpn};
        use macromodel::model::{MacroModel, Monomial};
        // Linear addmul model: karatsuba trades fewer total limb-steps
        // for more (smaller) calls, so the modeled cycles must drop even
        // though the raw call count rises.
        let model = MacroModel::new(
            opname::ADDMUL_1,
            vec![Monomial::constant(1), Monomial::linear(1, 0)],
            vec![10.0, 10.0],
        );
        let mut models = std::collections::BTreeMap::new();
        models.insert(opname::ADDMUL_1, model);
        let a: Vec<u32> = (0u32..128)
            .map(|i| i.wrapping_mul(0x9e3779b9) | 1)
            .collect();
        let mut s_ops = ModeledMpn::new(models.clone(), 0.0);
        mul_schoolbook(&mut s_ops, &a, &a);
        let mut k_ops = ModeledMpn::new(models, 0.0);
        mul_karatsuba(&mut k_ops, &a, &a, 16);
        let s_c = MpnOps::<u32>::cycles(&s_ops);
        let k_c = MpnOps::<u32>::cycles(&k_ops);
        assert!(k_c < s_c, "karatsuba {k_c} vs schoolbook {s_c}");
    }

    #[test]
    fn divrem_matches_natural_division() {
        let mut ops = NativeMpn::new();
        let n = nat("fedcba9876543210fedcba9876543210fedcba98");
        let d = nat("123456789abcdef123");
        let (q, r) = divrem::<u32, _>(&mut ops, n.limbs(), d.limbs());
        let (qq, rr) = n.div_rem(&d);
        assert_eq!(to_nat(&q), qq);
        assert_eq!(to_nat(&r), rr);
    }

    #[test]
    fn divrem_single_limb_divisor() {
        let mut ops = NativeMpn::new();
        let n = nat("deadbeefcafebabe012345");
        let d = [0x8765_4321u32];
        let (q, r) = divrem(&mut ops, n.limbs(), &d);
        let (qq, rr) = n.div_rem(&Natural::from_u32(d[0]));
        assert_eq!(to_nat(&q), qq);
        assert_eq!(to_nat(&r), rr);
    }

    #[test]
    fn divrem_u16_radix() {
        let mut ops = NativeMpn::new();
        let n = nat("0123456789abcdef0123456789");
        let d = nat("fedcba987");
        let nl: Vec<u16> = n.to_radix_limbs();
        let dl: Vec<u16> = d.to_radix_limbs();
        let (q, r) = divrem(&mut ops, &nl, &dl);
        let (qq, rr) = n.div_rem(&d);
        assert_eq!(Natural::from_radix_limbs(&q), qq);
        assert_eq!(Natural::from_radix_limbs(&r), rr);
    }

    #[test]
    fn monty_state_roundtrip_and_mul() {
        let mut ops = NativeMpn::new();
        let m = nat("f123456789abcdef0000000000000061");
        let st = MontyState::<u32>::new(&mut ops, m.limbs());
        let a = &nat("deadbeef0badf00ddeadbeef0badf00d") % &m;
        let b = &nat("cafebabecafebabecafebabecafebabe") % &m;
        let k = st.n.len();
        let ap = a.to_limbs_padded(k);
        let bp = b.to_limbs_padded(k);
        let am = st.to_monty(&mut ops, &ap);
        let bm = st.to_monty(&mut ops, &bp);
        let pm = st.mul(&mut ops, &am, &bm);
        let p = st.from_monty(&mut ops, &pm);
        assert_eq!(to_nat(&p), &(&a * &b) % &m);
    }

    #[test]
    fn monty_state_u16_radix() {
        let mut ops = NativeMpn::new();
        let m = nat("e0000000000000000000000000000000f1"); // odd
        let ml: Vec<u16> = m.to_radix_limbs();
        let st = MontyState::<u16>::new(&mut ops, &ml);
        let a = &nat("123456789abcdef") % &m;
        let k = st.n.len();
        let mut ap: Vec<u16> = a.to_radix_limbs();
        ap.resize(k, 0);
        let am = st.to_monty(&mut ops, &ap);
        let back = st.from_monty(&mut ops, &am);
        assert_eq!(Natural::from_radix_limbs(&back), a);
    }

    #[test]
    fn barrett_state_reduces_products() {
        let mut ops = NativeMpn::new();
        let m = nat("fedcba987654321123456789abcdef01");
        let st = BarrettState::<u32>::new(&mut ops, m.limbs());
        let a = &nat("ffffffffffffffffffffffffffffffff") % &m;
        let b = &nat("12345678912345678912345678912345") % &m;
        let prod = mul_schoolbook::<u32, _>(&mut ops, a.limbs(), b.limbs());
        let r = st.reduce(&mut ops, &prod);
        assert_eq!(to_nat(&r), &(&a * &b) % &m);
    }

    #[test]
    fn barrett_reduce_small_input_is_identity() {
        let mut ops = NativeMpn::new();
        let m = nat("10000000000000001");
        let st = BarrettState::<u32>::new(&mut ops, m.limbs());
        let small = nat("1234");
        let r = st.reduce(&mut ops, small.limbs());
        assert_eq!(to_nat(&r), small);
    }

    #[test]
    fn monty_n0inv_correct_for_both_radices() {
        let v32 = monty_n0inv(0xdeadbeefu32 | 1);
        let x = (0xdeadbeefu32 | 1) as u64;
        assert_eq!((x.wrapping_mul(v32 as u64)) & 0xffff_ffff, 0xffff_ffff);
        let v16 = monty_n0inv(0xbeefu16 | 1);
        let x = (0xbeefu16 | 1) as u64;
        assert_eq!((x.wrapping_mul(v16 as u64)) & 0xffff, 0xffff);
    }

    #[test]
    fn add_full_handles_carry_growth() {
        let mut ops = NativeMpn::new();
        let a = [u32::MAX, u32::MAX];
        let b = [1u32];
        let r = add_full(&mut ops, &a, &b);
        assert_eq!(to_nat(&r), nat("10000000000000000"));
    }
}
