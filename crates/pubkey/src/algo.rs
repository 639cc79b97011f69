//! Multi-precision algorithms expressed over the metered [`MpnOps`]
//! boundary.
//!
//! Everything here performs its limb work *exclusively* through an
//! [`MpnOps`] provider, so the same code path serves functional
//! execution, macro-model estimation, and ISS co-simulation. Limb-vector
//! conventions match [`mpint::mpn`] (little-endian, `Vec<L>` results
//! sized exactly).
//!
//! Each routine exists once, in a workspace form that writes into
//! caller buffers and takes its temporaries from a `Work`; the
//! `Vec`-returning functions wrap those forms. An exponentiation runs
//! every modular product through one `Work`, so once its buffers have
//! grown to the operand size no product allocates.

use crate::ops::MpnOps;
use mpint::limb::Limb;
use mpint::mpn;
use std::cmp::Ordering;

/// Default operand size (limbs) above which Karatsuba recursion is used.
pub const KARATSUBA_THRESHOLD: usize = 16;

/// Reusable limb buffers for the workspace forms. A routine clears and
/// resizes the buffers it uses; none is reallocated once it has grown
/// to the operand size.
#[derive(Debug, Clone, Default)]
pub(crate) struct Work<L: Limb> {
    /// The unreduced product of a modular multiplication.
    pub(crate) prod: Vec<L>,
    /// Division: the shifted numerator, reduced in place.
    num: Vec<L>,
    /// Division: the shifted divisor.
    div: Vec<L>,
    /// Division: the quotient, normalized.
    quot: Vec<L>,
    /// Division and Barrett reduction: the remainder, normalized.
    pub(crate) rem: Vec<L>,
    /// Barrett reduction: `q2 = q1·mu` (its tail is `q3`).
    q2: Vec<L>,
    /// Barrett reduction: `r2 = q3·m`.
    r2: Vec<L>,
    /// Copy and padding temporaries of the in-place ops.
    tmp: Temps<L>,
    /// Karatsuba partial products, one frame per recursion depth.
    kara: Vec<KaraFrame<L>>,
}

impl<L: Limb> Work<L> {
    /// A workspace for modular products of `k`-limb operands: every
    /// buffer a product below the Karatsuba threshold uses starts with
    /// room for its largest length (`2k + 2` limbs).
    pub(crate) fn new(k: usize) -> Self {
        let buf = || Vec::with_capacity(2 * k + 2);
        Work {
            prod: buf(),
            num: buf(),
            div: buf(),
            quot: buf(),
            rem: buf(),
            q2: buf(),
            r2: buf(),
            tmp: Temps {
                copy: buf(),
                pad: buf(),
            },
            kara: Vec::new(),
        }
    }
}

/// The temporaries of [`sub_in_place`], [`add_at`] and [`add_full_into`]:
/// the metered ops take no aliased destination, so an operand is copied
/// or zero-padded first.
#[derive(Debug, Clone, Default)]
struct Temps<L: Limb> {
    copy: Vec<L>,
    pad: Vec<L>,
}

/// One Karatsuba recursion level's partial products and operand sums.
#[derive(Debug, Clone, Default)]
struct KaraFrame<L: Limb> {
    z0: Vec<L>,
    z1: Vec<L>,
    z2: Vec<L>,
    asum: Vec<L>,
    bsum: Vec<L>,
}

/// Sets `v` to `n` zero limbs.
fn zeroed<L: Limb>(v: &mut Vec<L>, n: usize) {
    v.clear();
    v.resize(n, L::ZERO);
}

/// Sets `v` to a copy of `src`.
fn copied<L: Limb>(v: &mut Vec<L>, src: &[L]) {
    v.clear();
    v.extend_from_slice(src);
}

/// Sets `v` to `src` zero-extended to `n` limbs.
fn padded<L: Limb>(v: &mut Vec<L>, src: &[L], n: usize) {
    copied(v, src);
    v.resize(n, L::ZERO);
}

/// Drops `v`'s high zero limbs.
fn trim<L: Limb>(v: &mut Vec<L>) {
    let n = mpn::normalized(v).len();
    v.truncate(n);
}

/// Schoolbook product `a × b` (lengths may differ).
pub fn mul_schoolbook<L: Limb, O: MpnOps<L> + ?Sized>(ops: &mut O, a: &[L], b: &[L]) -> Vec<L> {
    let mut r = Vec::new();
    mul_schoolbook_into(ops, &mut r, a, b);
    r
}

/// Schoolbook product `a × b` into `r`, sized `a.len() + b.len()`.
pub(crate) fn mul_schoolbook_into<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    r: &mut Vec<L>,
    a: &[L],
    b: &[L],
) {
    zeroed(r, a.len() + b.len());
    schoolbook_into(ops, r, a, b);
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
    let mut r = Vec::new();
    mul_karatsuba_into(ops, &mut Work::default(), &mut r, a, b, threshold);
    r
}

/// Karatsuba product `a × b` into `r`, sized `a.len() + b.len()`; the
/// recursion runs over the normalized operands.
pub(crate) fn mul_karatsuba_into<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    w: &mut Work<L>,
    r: &mut Vec<L>,
    a: &[L],
    b: &[L],
    threshold: usize,
) {
    zeroed(r, a.len() + b.len());
    let an = mpn::normalized(a);
    let bn = mpn::normalized(b);
    if an.is_empty() || bn.is_empty() {
        return;
    }
    kara_rec(
        ops,
        w,
        0,
        &mut r[..an.len() + bn.len()],
        an,
        bn,
        threshold.max(2),
    );
}

/// Karatsuba product of the normalized `a`, `b` into the zeroed `r`
/// (`a.len() + b.len()` limbs), keeping its partial products in frame
/// `depth` of `w`.
fn kara_rec<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    w: &mut Work<L>,
    depth: usize,
    r: &mut [L],
    a: &[L],
    b: &[L],
    threshold: usize,
) {
    if a.len().min(b.len()) <= threshold {
        schoolbook_into(ops, r, a, b);
        return;
    }
    let m = a.len().max(b.len()) / 2;
    let (a0, a1) = split_at_limb(a, m);
    let (b0, b1) = split_at_limb(b, m);

    if w.kara.len() <= depth {
        w.kara.resize_with(depth + 1, KaraFrame::default);
    }
    // Taken out for the recursion below, which uses the deeper frames.
    let mut f = std::mem::take(&mut w.kara[depth]);
    mul_nonempty(ops, w, depth + 1, &mut f.z0, a0, b0, threshold);
    mul_nonempty(ops, w, depth + 1, &mut f.z2, a1, b1, threshold);
    add_full_into(ops, &mut w.tmp, &mut f.asum, a0, a1);
    add_full_into(ops, &mut w.tmp, &mut f.bsum, b0, b1);
    mul_nonempty(ops, w, depth + 1, &mut f.z1, &f.asum, &f.bsum, threshold);
    sub_in_place(ops, &mut w.tmp, &mut f.z1, &f.z0);
    sub_in_place(ops, &mut w.tmp, &mut f.z1, &f.z2);

    add_at(ops, &mut w.tmp, r, &f.z0, 0);
    add_at(ops, &mut w.tmp, r, &f.z1, m);
    add_at(ops, &mut w.tmp, r, &f.z2, 2 * m);
    ops.glue(3);
    w.kara[depth] = f;
}

/// Karatsuba product of the normalized `a`, `b` into `z`; empty when
/// either is zero.
fn mul_nonempty<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    w: &mut Work<L>,
    depth: usize,
    z: &mut Vec<L>,
    a: &[L],
    b: &[L],
    threshold: usize,
) {
    let a = mpn::normalized(a);
    let b = mpn::normalized(b);
    if a.is_empty() || b.is_empty() {
        z.clear();
    } else {
        zeroed(z, a.len() + b.len());
        kara_rec(ops, w, depth, z, a, b, threshold);
    }
}

fn split_at_limb<L: Limb>(a: &[L], m: usize) -> (&[L], &[L]) {
    if a.len() <= m {
        (a, &[])
    } else {
        (&a[..m], &a[m..])
    }
}

/// Full-width addition of arbitrary-length vectors into `r`, metered as
/// one `add_n` of the longer length.
fn add_full_into<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    t: &mut Temps<L>,
    r: &mut Vec<L>,
    a: &[L],
    b: &[L],
) {
    let n = a.len().max(b.len()) + 1;
    padded(&mut t.copy, a, n);
    padded(&mut t.pad, b, n);
    zeroed(r, n);
    let carry = ops.add_n(r, &t.copy, &t.pad);
    debug_assert!(!carry);
    while r.last() == Some(&L::ZERO) && r.len() > a.len().max(b.len()) {
        r.pop();
    }
}

/// In-place subtraction `a -= b` (numerically `a >= b`), metered as one
/// `sub_n`.
fn sub_in_place<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    t: &mut Temps<L>,
    a: &mut [L],
    b: &[L],
) {
    let b = mpn::normalized(b);
    if b.is_empty() {
        return;
    }
    padded(&mut t.pad, b, a.len());
    copied(&mut t.copy, a);
    let borrow = ops.sub_n(a, &t.copy, &t.pad);
    debug_assert!(!borrow, "subtraction went negative");
}

/// Adds `v` into `r` at limb offset `off`, metered as one `add_n` of
/// `v`'s length (carry ripple accounted as glue).
fn add_at<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    t: &mut Temps<L>,
    r: &mut [L],
    v: &[L],
    off: usize,
) {
    let v = mpn::normalized(v);
    if v.is_empty() {
        return;
    }
    copied(&mut t.copy, &r[off..off + v.len()]);
    zeroed(&mut t.pad, v.len());
    let mut carry = ops.add_n(&mut t.pad, &t.copy, v);
    r[off..off + v.len()].copy_from_slice(&t.pad);
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
    let mut w = Work::default();
    divrem_into(ops, &mut w, n, d);
    (w.quot, w.rem)
}

/// [`divrem`] into the workspace: the normalized quotient and remainder
/// are left in `w.quot` and `w.rem`.
pub(crate) fn divrem_into<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    w: &mut Work<L>,
    n: &[L],
    d: &[L],
) {
    let Work {
        num: nv,
        div: dv,
        quot: q,
        rem,
        tmp,
        ..
    } = w;
    let d = mpn::normalized(d);
    assert!(!d.is_empty(), "division by zero");
    let n = mpn::normalized(n);
    if mpn::cmp(n, d) == Ordering::Less {
        q.clear();
        copied(rem, n);
        return;
    }
    if d.len() == 1 {
        // Single-limb divisor: one div_qhat per quotient limb against the
        // normalized divisor.
        let shift = d[0].leading_zeros();
        let dd = d[0] << shift;
        zeroed(nv, n.len() + 1);
        if shift > 0 {
            let out = ops.lshift(&mut nv[..n.len()], n, shift);
            nv[n.len()] = out;
        } else {
            nv[..n.len()].copy_from_slice(n);
        }
        zeroed(q, n.len());
        let mut r = nv[n.len()];
        for i in (0..n.len()).rev() {
            // Degenerate 2-by-1 estimate: reuse div_qhat with d0 = 0.
            let qi = ops.div_qhat(r, nv[i], L::ZERO, dd, L::ZERO);
            // Correct residue natively (the kernel returns the quotient).
            let num = (r.to_u64() << L::BITS) | nv[i].to_u64();
            r = L::from_u64(num - qi.to_u64() * dd.to_u64());
            q[i] = qi;
        }
        trim(q);
        rem.clear();
        let r = r >> shift;
        if r != L::ZERO {
            rem.push(r);
        }
        return;
    }

    // Normalize so the divisor's top bit is set.
    let shift = d[d.len() - 1].leading_zeros();
    copied(dv, d);
    zeroed(nv, n.len() + 1);
    if shift > 0 {
        ops.lshift(dv, d, shift);
        let out = ops.lshift(&mut nv[..n.len()], n, shift);
        nv[n.len()] = out;
    } else {
        nv[..n.len()].copy_from_slice(n);
    }
    let dn = dv.len();
    let m = nv.len() - 1;
    let d1 = dv[dn - 1];
    let d0 = dv[dn - 2];
    zeroed(q, m - dn + 1);
    for j in (0..=m - dn).rev() {
        let qhat = ops.div_qhat(nv[j + dn], nv[j + dn - 1], nv[j + dn - 2], d1, d0);
        let borrow = ops.submul_1(&mut nv[j..j + dn], dv, qhat);
        let (t, under) = nv[j + dn].sub_borrow(borrow, false);
        nv[j + dn] = t;
        let mut qv = qhat;
        if under {
            qv = L::from_u64(qv.to_u64().wrapping_sub(1));
            copied(&mut tmp.copy, &nv[j..j + dn]);
            zeroed(&mut tmp.pad, dn);
            let carry = ops.add_n(&mut tmp.pad, &tmp.copy, dv);
            nv[j..j + dn].copy_from_slice(&tmp.pad);
            let (t, _) = nv[j + dn].add_carry(L::from_u64(carry as u64), false);
            nv[j + dn] = t;
        }
        q[j] = qv;
        ops.glue(1);
    }
    trim(q);
    copied(rem, &nv[..dn]);
    if shift > 0 {
        ops.rshift(rem, &nv[..dn], shift);
    }
    trim(rem);
}

/// Computes the negated inverse of the odd limb `n0` modulo the limb
/// base (the Montgomery `n0'` constant), by Newton iteration.
fn monty_n0inv<L: Limb>(n0: L) -> L {
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
        let mut out = Vec::new();
        self.mul_into(ops, &mut Vec::new(), &mut out, a, b);
        out
    }

    /// [`MontyState::mul`] into `out` (`k` limbs), with the `2k+1`-limb
    /// product in `t`.
    pub(crate) fn mul_into<O: MpnOps<L> + ?Sized>(
        &self,
        ops: &mut O,
        t: &mut Vec<L>,
        out: &mut Vec<L>,
        a: &[L],
        b: &[L],
    ) {
        let k = self.n.len();
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        zeroed(t, 2 * k + 1);
        schoolbook_into(ops, t, a, b);
        self.reduce_into(ops, t, out);
    }

    /// Montgomery reduction of a `2k+1`-limb value into `out`.
    fn reduce_into<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, t: &mut [L], out: &mut Vec<L>) {
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
            zeroed(out, k);
            ops.sub_n(out, hi, &self.n);
        } else {
            copied(out, hi);
        }
    }

    /// Converts a `k`-limb value into the Montgomery domain.
    pub fn to_monty<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, a: &[L]) -> Vec<L> {
        self.mul(ops, a, &self.rr)
    }

    /// Converts a Montgomery-domain value back to plain representation.
    pub fn from_monty<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, a: &[L]) -> Vec<L> {
        let mut out = Vec::new();
        self.to_plain_into(ops, &mut Work::default(), &mut out, a);
        out
    }

    /// [`MontyState::from_monty`] into `out`: the Montgomery product
    /// with one, which it builds in the workspace.
    pub(crate) fn to_plain_into<O: MpnOps<L> + ?Sized>(
        &self,
        ops: &mut O,
        w: &mut Work<L>,
        out: &mut Vec<L>,
        a: &[L],
    ) {
        let one = &mut w.tmp.pad;
        zeroed(one, self.n.len());
        one[0] = L::ONE;
        self.mul_into(ops, &mut w.prod, out, a, &w.tmp.pad);
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
        let mut out = Vec::new();
        self.reduce_into(ops, &mut Work::default(), &mut out, x);
        out
    }

    /// [`BarrettState::reduce`] into `out`, normalized.
    pub(crate) fn reduce_into<O: MpnOps<L> + ?Sized>(
        &self,
        ops: &mut O,
        w: &mut Work<L>,
        out: &mut Vec<L>,
        x: &[L],
    ) {
        let k = self.m.len();
        let x = mpn::normalized(x);
        if mpn::cmp(x, &self.m) == Ordering::Less {
            copied(out, x);
            return;
        }
        let Work {
            rem: r,
            q2,
            r2,
            tmp,
            ..
        } = w;
        // q1 = x >> base^(k-1) (limb-granular; free slice).
        let q1 = &x[(k - 1).min(x.len())..];
        mul_schoolbook_into(ops, q2, q1, &self.mu);
        let q3 = if q2.len() > k + 1 { &q2[k + 1..] } else { &[] };
        mul_schoolbook_into(ops, r2, q3, &self.m);
        // r = x - r2, then correct into [0, m).
        copied(r, x);
        sub_in_place(ops, tmp, r, r2);
        trim(r);
        while mpn::cmp(r, &self.m) != Ordering::Less {
            let n = r.len().max(k);
            r.resize(n, L::ZERO);
            padded(&mut tmp.pad, &self.m, n);
            copied(&mut tmp.copy, r);
            ops.sub_n(r, &tmp.copy, &tmp.pad);
            trim(r);
        }
        copied(out, r);
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
        let mut s_ops = ModeledMpn::new(&models, 0.0);
        mul_schoolbook(&mut s_ops, &a, &a);
        let mut k_ops = ModeledMpn::new(&models, 0.0);
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
    fn add_full_into_handles_carry_growth() {
        let mut ops = NativeMpn::new();
        let a = [u32::MAX, u32::MAX];
        let b = [1u32];
        let mut r = Vec::new();
        add_full_into(&mut ops, &mut Temps::default(), &mut r, &a, &b);
        assert_eq!(to_nat(&r), nat("10000000000000000"));
    }
}
