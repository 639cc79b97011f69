//! The basic-operations layer: GMP-style functions over limb slices.
//!
//! All slices store limbs **least-significant first**. These routines are
//! the "basic mathematical operations" of the paper's layered software
//! architecture: they are the granularity at which the instruction-set
//! simulator characterizes performance and at which custom instructions
//! are formulated (`mpn_add_n`, `mpn_addmul_1`, …).
//!
//! Functions follow GMP naming: the `_n` suffix means both operands have
//! the same length, `_1` means the second operand is a single limb.
//!
//! # Examples
//!
//! ```
//! use mpint::mpn;
//!
//! let a = [0xffff_ffffu32, 1];
//! let b = [1u32, 0];
//! let mut r = [0u32; 2];
//! let carry = mpn::add_n(&mut r, &a, &b);
//! assert_eq!(r, [0, 2]);
//! assert!(!carry);
//! ```

use crate::limb::Limb;
use core::cmp::Ordering;

/// Adds `a` and `b` (same length) into `r`, returning the carry-out.
///
/// # Panics
///
/// Panics if `r`, `a` and `b` do not all have the same length.
pub fn add_n<L: Limb>(r: &mut [L], a: &[L], b: &[L]) -> bool {
    assert_eq!(a.len(), b.len());
    assert_eq!(r.len(), a.len());
    let mut carry = false;
    for i in 0..a.len() {
        let (s, c) = a[i].add_carry(b[i], carry);
        r[i] = s;
        carry = c;
    }
    carry
}

/// Adds `b` into `r` in place (same length), returning the carry-out.
///
/// # Panics
///
/// Panics if `r` and `b` have different lengths.
pub fn add_n_in_place<L: Limb>(r: &mut [L], b: &[L]) -> bool {
    assert_eq!(r.len(), b.len());
    let mut carry = false;
    for i in 0..b.len() {
        let (s, c) = r[i].add_carry(b[i], carry);
        r[i] = s;
        carry = c;
    }
    carry
}

/// Subtracts `b` from `a` (same length) into `r`, returning the borrow-out.
///
/// # Panics
///
/// Panics if `r`, `a` and `b` do not all have the same length.
pub fn sub_n<L: Limb>(r: &mut [L], a: &[L], b: &[L]) -> bool {
    assert_eq!(a.len(), b.len());
    assert_eq!(r.len(), a.len());
    let mut borrow = false;
    for i in 0..a.len() {
        let (d, bo) = a[i].sub_borrow(b[i], borrow);
        r[i] = d;
        borrow = bo;
    }
    borrow
}

/// Subtracts `b` from `r` in place (same length), returning the borrow-out.
///
/// # Panics
///
/// Panics if `r` and `b` have different lengths.
pub fn sub_n_in_place<L: Limb>(r: &mut [L], b: &[L]) -> bool {
    assert_eq!(r.len(), b.len());
    let mut borrow = false;
    for i in 0..b.len() {
        let (d, bo) = r[i].sub_borrow(b[i], borrow);
        r[i] = d;
        borrow = bo;
    }
    borrow
}

/// Multiplies `a` by the single limb `b` into `r`, returning the high
/// (carry-out) limb.
///
/// # Panics
///
/// Panics if `r` and `a` have different lengths.
pub fn mul_1<L: Limb>(r: &mut [L], a: &[L], b: L) -> L {
    assert_eq!(r.len(), a.len());
    let mut carry = 0u64;
    for i in 0..a.len() {
        let t = a[i].to_u64() * b.to_u64() + carry;
        r[i] = L::from_u64(t);
        carry = t >> L::BITS;
    }
    L::from_u64(carry)
}

/// Multiply-accumulate: `r += a * b` where `b` is a single limb. Returns
/// the carry-out limb. This is the inner kernel of schoolbook
/// multiplication and the paper's `mpn_addmul_1`.
///
/// # Panics
///
/// Panics if `r` is shorter than `a`.
pub fn addmul_1<L: Limb>(r: &mut [L], a: &[L], b: L) -> L {
    assert!(r.len() >= a.len());
    let mut carry = 0u64;
    for i in 0..a.len() {
        let t = a[i].to_u64() * b.to_u64() + r[i].to_u64() + carry;
        r[i] = L::from_u64(t);
        carry = t >> L::BITS;
    }
    L::from_u64(carry)
}

/// Multiply-subtract: `r -= a * b` where `b` is a single limb. Returns the
/// borrow-out limb. Used by the Knuth division inner loop.
///
/// # Panics
///
/// Panics if `r` is shorter than `a`.
pub fn submul_1<L: Limb>(r: &mut [L], a: &[L], b: L) -> L {
    assert!(r.len() >= a.len());
    let mut carry = 0u64;
    for i in 0..a.len() {
        let prod = a[i].to_u64() * b.to_u64() + carry;
        let lo = L::from_u64(prod);
        carry = prod >> L::BITS;
        let (d, borrow) = r[i].sub_borrow(lo, false);
        r[i] = d;
        carry += borrow as u64;
    }
    L::from_u64(carry)
}

/// Schoolbook multiplication: `r = a * b`.
///
/// # Panics
///
/// Panics if `r.len() != a.len() + b.len()`.
pub fn mul_basecase<L: Limb>(r: &mut [L], a: &[L], b: &[L]) {
    assert_eq!(r.len(), a.len() + b.len());
    for x in r.iter_mut() {
        *x = L::ZERO;
    }
    for (j, &bj) in b.iter().enumerate() {
        let carry = addmul_1(&mut r[j..j + a.len()], a, bj);
        r[j + a.len()] = carry;
    }
}

/// Shifts `a` left by `cnt` bits (0 < cnt < limb bits) into `r`, returning
/// the bits shifted out of the top limb.
///
/// # Panics
///
/// Panics if `cnt` is zero or at least the limb width, or if `r` and `a`
/// have different lengths.
pub fn lshift<L: Limb>(r: &mut [L], a: &[L], cnt: u32) -> L {
    assert!(cnt > 0 && cnt < L::BITS, "shift count out of range");
    assert_eq!(r.len(), a.len());
    let mut out = L::ZERO;
    for i in 0..a.len() {
        let v = a[i];
        r[i] = (v << cnt) | out;
        out = v >> (L::BITS - cnt);
    }
    out
}

/// Shifts `a` right by `cnt` bits (0 < cnt < limb bits) into `r`, returning
/// the bits shifted out of the bottom limb (left-aligned).
///
/// # Panics
///
/// Panics if `cnt` is zero or at least the limb width, or if `r` and `a`
/// have different lengths.
pub fn rshift<L: Limb>(r: &mut [L], a: &[L], cnt: u32) -> L {
    assert!(cnt > 0 && cnt < L::BITS, "shift count out of range");
    assert_eq!(r.len(), a.len());
    let mut out = L::ZERO;
    for i in (0..a.len()).rev() {
        let v = a[i];
        r[i] = (v >> cnt) | out;
        out = v << (L::BITS - cnt);
    }
    out
}

/// Compares two equal-length limb vectors numerically.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
pub fn cmp_n<L: Limb>(a: &[L], b: &[L]) -> Ordering {
    assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    Ordering::Equal
}

/// Compares two limb vectors of possibly different lengths (both
/// interpreted with implicit high zero limbs).
pub fn cmp<L: Limb>(a: &[L], b: &[L]) -> Ordering {
    let a = normalized(a);
    let b = normalized(b);
    match a.len().cmp(&b.len()) {
        Ordering::Equal => cmp_n(a, b),
        o => o,
    }
}

/// Reference implementation of the 3-by-2 quotient-limb estimate used
/// by schoolbook division (Knuth's D3 step with correction): divides
/// `(n2, n1, n0)` by the normalized two-limb divisor `(d1, d0)`. All
/// metered basic-operation providers and the ISS kernel must agree with
/// this function exactly.
pub fn div_qhat_reference<L: Limb>(n2: L, n1: L, n0: L, d1: L, d0: L) -> L {
    debug_assert!(d1.to_u64() >> (L::BITS - 1) == 1, "divisor not normalized");
    let b = 1u64 << L::BITS;
    let num = (n2.to_u64() << L::BITS) | n1.to_u64();
    let mut qhat = num / d1.to_u64();
    let mut rhat = num - qhat * d1.to_u64();
    // Knuth D3: decrease qhat while it does not fit a limb or while the
    // two-limb test shows it is too large; the product test is only
    // evaluated while rhat fits a limb. Exits with qhat < b.
    while qhat >= b || (rhat < b && qhat * d0.to_u64() > ((rhat << L::BITS) | n0.to_u64())) {
        qhat -= 1;
        rhat += d1.to_u64();
    }
    L::from_u64(qhat)
}

/// Returns the slice with high zero limbs trimmed.
pub fn normalized<L: Limb>(a: &[L]) -> &[L] {
    let mut n = a.len();
    while n > 0 && a[n - 1] == L::ZERO {
        n -= 1;
    }
    &a[..n]
}

/// Number of significant bits in `a` (0 for the empty/zero vector).
pub fn bit_length<L: Limb>(a: &[L]) -> usize {
    let a = normalized(a);
    match a.last() {
        None => 0,
        Some(&top) => a.len() * L::BITS as usize - top.leading_zeros() as usize,
    }
}

/// Tests bit `i` of `a` (bits beyond the vector are zero).
pub fn test_bit<L: Limb>(a: &[L], i: usize) -> bool {
    let limb = i / L::BITS as usize;
    if limb >= a.len() {
        return false;
    }
    (a[limb].to_u64() >> (i as u32 % L::BITS)) & 1 == 1
}

/// Divides `n` by the single limb `d`, writing the quotient to `q` and
/// returning the remainder.
///
/// # Panics
///
/// Panics if `d` is zero or if `q` and `n` have different lengths.
pub fn divrem_1<L: Limb>(q: &mut [L], n: &[L], d: L) -> L {
    assert!(d != L::ZERO, "division by zero");
    assert_eq!(q.len(), n.len());
    let mut rem = L::ZERO;
    for i in (0..n.len()).rev() {
        let (qi, r) = d.div_wide(rem, n[i]);
        q[i] = qi;
        rem = r;
    }
    rem
}

/// Knuth algorithm D division for a multi-limb divisor.
///
/// Requirements (asserted):
/// - `d.len() >= 2` and the top bit of `d`'s most significant limb is set
///   (the divisor is *normalized*);
/// - `n` holds the dividend with **one extra high limb** appended (which
///   may be non-zero only as produced by the normalizing left shift);
/// - `q.len() == n.len() - 1 - d.len() + 1`.
///
/// On return `q` holds the quotient and the low `d.len()` limbs of `n`
/// hold the remainder (the rest of `n` is cleared).
///
/// # Panics
///
/// Panics if the requirements above do not hold.
fn divrem_knuth<L: Limb>(q: &mut [L], n: &mut [L], d: &[L]) {
    let dn = d.len();
    assert!(dn >= 2, "use divrem_1 for single-limb divisors");
    let d1 = d[dn - 1].to_u64();
    assert!(
        d1 >> (L::BITS - 1) == 1,
        "divisor must be normalized (top bit set)"
    );
    let m = n.len() - 1;
    assert!(m >= dn, "dividend shorter than divisor");
    assert_eq!(q.len(), m - dn + 1);
    let d0 = d[dn - 2].to_u64();
    let b = 1u64 << L::BITS;

    for j in (0..=m - dn).rev() {
        let n2 = n[j + dn].to_u64();
        let n1 = n[j + dn - 1].to_u64();
        let n0 = n[j + dn - 2].to_u64();
        let num = (n2 << L::BITS) | n1;
        let mut qhat = num / d1;
        let mut rhat = num - qhat * d1;
        // Knuth D3: decrease qhat while it does not fit a limb or while
        // the two-limb test shows it is too large. The product test is
        // only meaningful (and only evaluated) while rhat fits a limb.
        while qhat >= b || (rhat < b && qhat * d0 > ((rhat << L::BITS) | n0)) {
            qhat -= 1;
            rhat += d1;
        }
        let borrow = submul_1(&mut n[j..j + dn], d, L::from_u64(qhat));
        let (t, under) = n[j + dn].sub_borrow(borrow, false);
        n[j + dn] = t;
        if under {
            // qhat was one too large; add the divisor back.
            qhat -= 1;
            let carry = {
                let (head, _) = n.split_at_mut(j + dn);
                add_n_in_place(&mut head[j..], d)
            };
            let (t, _) = n[j + dn].add_carry(L::from_u64(carry as u64), false);
            n[j + dn] = t;
        }
        q[j] = L::from_u64(qhat);
    }
    // Clear the quotient area of n so only the remainder survives.
    for x in n[dn..].iter_mut() {
        *x = L::ZERO;
    }
}

/// Convenience full division: returns `(quotient, remainder)` limb vectors
/// for arbitrary (normalized-or-not) operands. Handles the normalizing
/// shift internally.
///
/// # Panics
///
/// Panics if `d` is zero.
pub fn divrem<L: Limb>(n: &[L], d: &[L]) -> (Vec<L>, Vec<L>) {
    let d = normalized(d);
    assert!(!d.is_empty(), "division by zero");
    let n = normalized(n);
    if cmp(n, d) == Ordering::Less {
        return (Vec::new(), n.to_vec());
    }
    if d.len() == 1 {
        let mut q = vec![L::ZERO; n.len()];
        let r = divrem_1(&mut q, n, d[0]);
        let rv = if r == L::ZERO { Vec::new() } else { vec![r] };
        return (normalized(&q).to_vec(), rv);
    }
    // Normalize: shift both so the divisor's top bit is set.
    let shift = d[d.len() - 1].leading_zeros();
    let mut dv = d.to_vec();
    let mut nv = vec![L::ZERO; n.len() + 1];
    if shift > 0 {
        lshift(&mut dv, d, shift);
        let out = lshift(&mut nv[..n.len()], n, shift);
        nv[n.len()] = out;
    } else {
        nv[..n.len()].copy_from_slice(n);
    }
    let mut q = vec![L::ZERO; nv.len() - 1 - dv.len() + 1];
    divrem_knuth(&mut q, &mut nv, &dv);
    let mut rem = nv[..dv.len()].to_vec();
    if shift > 0 {
        let tmp = rem.clone();
        rshift(&mut rem, &tmp, shift);
    }
    (normalized(&q).to_vec(), normalized(&rem).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_u128(a: &[u32]) -> u128 {
        a.iter()
            .rev()
            .fold(0u128, |acc, &l| (acc << 32) | l as u128)
    }

    fn from_u128(v: u128, len: usize) -> Vec<u32> {
        (0..len).map(|i| (v >> (32 * i)) as u32).collect()
    }

    #[test]
    fn add_n_carries_across_limbs() {
        let a = from_u128(u64::MAX as u128, 3);
        let b = from_u128(1, 3);
        let mut r = [0u32; 3];
        let c = add_n(&mut r, &a, &b);
        assert!(!c);
        assert_eq!(to_u128(&r), u64::MAX as u128 + 1);
    }

    #[test]
    fn add_n_reports_overflow() {
        let a = [u32::MAX; 2];
        let b = from_u128(1, 2);
        let mut r = [0u32; 2];
        assert!(add_n(&mut r, &a, &b));
        assert_eq!(to_u128(&r), 0);
    }

    #[test]
    fn sub_n_borrows() {
        let a = from_u128(1 << 64, 3);
        let b = from_u128(1, 3);
        let mut r = [0u32; 3];
        assert!(!sub_n(&mut r, &a, &b));
        assert_eq!(to_u128(&r), (1 << 64) - 1);
    }

    #[test]
    fn mul_1_matches_u128() {
        let a = from_u128(0x1234_5678_9abc_def0, 2);
        let mut r = [0u32; 2];
        let hi = mul_1(&mut r, &a, 0xdead_beef);
        let expect = 0x1234_5678_9abc_def0u128 * 0xdead_beefu128;
        assert_eq!(to_u128(&r) | ((hi as u128) << 64), expect);
    }

    #[test]
    fn addmul_1_accumulates() {
        let a = from_u128(0xffff_ffff_ffff_ffff, 2);
        let mut r = from_u128(0x1111_1111_2222_2222, 2);
        let hi = addmul_1(&mut r, &a, 3);
        let expect = 0x1111_1111_2222_2222u128 + 0xffff_ffff_ffff_ffffu128 * 3;
        assert_eq!(to_u128(&r) | ((hi as u128) << 64), expect);
    }

    #[test]
    fn submul_1_is_inverse_of_addmul_1() {
        let a = from_u128(0xdead_beef_0bad_f00d, 2);
        let orig = from_u128(0x7777_7777_7777_7777, 3);
        let mut r = orig.clone();
        let c = addmul_1(&mut r[..2], &a, 0x1234_5678);
        r[2] += c;
        let b = submul_1(&mut r[..2], &a, 0x1234_5678);
        r[2] -= b;
        assert_eq!(r, orig);
    }

    #[test]
    fn mul_basecase_matches_u128() {
        let a = from_u128(0xffff_ffff_ffff_ffff, 2);
        let b = from_u128(0xffff_ffff, 1);
        let mut r = vec![0u32; 3];
        mul_basecase(&mut r, &a, &b);
        assert_eq!(to_u128(&r), 0xffff_ffff_ffff_ffffu128 * 0xffff_ffff);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = from_u128(0x0123_4567_89ab_cdef_fedc_ba98, 3);
        let mut l = [0u32; 3];
        let mut r = [0u32; 3];
        let out = lshift(&mut l, &a, 7);
        assert_eq!(out, 0); // top limb has >= 7 leading zeros
        rshift(&mut r, &l, 7);
        assert_eq!(r.to_vec(), a);
    }

    #[test]
    fn divrem_1_matches_u128() {
        let n = from_u128(0x0123_4567_89ab_cdef_0f1e_2d3c, 3);
        let mut q = [0u32; 3];
        let r = divrem_1(&mut q, &n, 0x8765_4321);
        let nv = to_u128(&n);
        assert_eq!(to_u128(&q), nv / 0x8765_4321);
        assert_eq!(r as u128, nv % 0x8765_4321);
    }

    #[test]
    fn divrem_matches_u128() {
        let n = from_u128(0xfedc_ba98_7654_3210_0123_4567_89ab_cdef, 4);
        let d = from_u128(0x1_0000_0001_0000_0003, 3);
        let (q, r) = divrem(&n, &d);
        let nv = to_u128(&n);
        let dv = to_u128(&d);
        assert_eq!(to_u128(&q), nv / dv);
        assert_eq!(to_u128(&r), nv % dv);
    }

    #[test]
    fn divrem_small_dividend() {
        let n = from_u128(5, 1);
        let d = from_u128(0x1_0000_0000, 2);
        let (q, r) = divrem(&n, &d);
        assert!(q.is_empty());
        assert_eq!(to_u128(&r), 5);
    }

    #[test]
    fn divrem_exact() {
        let d = from_u128(0xdead_beef_1234_5679, 2);
        let q0 = from_u128(0x9999_8888_7777_6666, 2);
        let mut n = vec![0u32; 4];
        mul_basecase(&mut n, &d, &q0);
        let (q, r) = divrem(&n, &d);
        assert_eq!(to_u128(&q), to_u128(&q0));
        assert!(r.is_empty());
    }

    #[test]
    fn bit_length_and_test_bit() {
        let a = from_u128(0x8000_0000_0000_0001, 3);
        assert_eq!(bit_length(&a), 64);
        assert!(test_bit(&a, 0));
        assert!(test_bit(&a, 63));
        assert!(!test_bit(&a, 62));
        assert!(!test_bit(&a, 200));
        assert_eq!(bit_length::<u32>(&[]), 0);
    }

    #[test]
    fn cmp_handles_unequal_lengths() {
        let a = from_u128(5, 4);
        let b = from_u128(5, 1);
        assert_eq!(cmp(&a, &b), Ordering::Equal);
        let c = from_u128(6, 1);
        assert_eq!(cmp(&a, &c), Ordering::Less);
    }

    #[test]
    fn u16_limbs_work_too() {
        let a: Vec<u16> = vec![0xffff, 0xffff, 0x1];
        let b: Vec<u16> = vec![1, 0, 0];
        let mut r = vec![0u16; 3];
        assert!(!add_n(&mut r, &a, &b));
        assert_eq!(r, vec![0, 0, 2]);
        let (q, rem) = divrem(&a, &b);
        assert_eq!(normalized(&q), normalized(&a[..]));
        assert!(rem.is_empty());
    }
}
