//! Arbitrary-precision unsigned integers ([`Natural`]).
//!
//! This is the "complex mathematical operations" layer of the paper's
//! software architecture: it composes the limb-level [`crate::mpn`]
//! routines into full arithmetic on unsigned integers of any size.

use crate::limb::Limb;
use crate::mpn;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, Div, Mul, Rem, Shl, Shr, Sub};
use rand::Rng;

/// An arbitrary-precision unsigned integer stored as normalized
/// little-endian `u32` limbs.
///
/// # Examples
///
/// ```
/// use mpint::Natural;
///
/// let a = Natural::from_decimal_str("340282366920938463463374607431768211456")?;
/// assert_eq!(a, Natural::one() << 128);
/// # Ok::<(), mpint::nat::ParseNaturalError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Natural {
    limbs: Vec<u32>,
}

/// Error returned when parsing a [`Natural`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNaturalError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
}

impl fmt::Display for ParseNaturalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse integer from empty string"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit found in string: {c:?}"),
        }
    }
}

impl std::error::Error for ParseNaturalError {}

impl Natural {
    /// Creates the value zero.
    pub fn new() -> Self {
        Self::zero()
    }

    /// The value zero.
    pub fn zero() -> Self {
        Natural { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        Natural { limbs: vec![1] }
    }

    /// Creates a natural from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![v as u32, (v >> 32) as u32];
        trim(&mut limbs);
        Natural { limbs }
    }

    /// Creates a natural from a `u32`.
    pub fn from_u32(v: u32) -> Self {
        Self::from_u64(v as u64)
    }

    /// Creates a natural from little-endian `u32` limbs (high zeros are
    /// trimmed).
    pub fn from_limbs(limbs: Vec<u32>) -> Self {
        let mut limbs = limbs;
        trim(&mut limbs);
        Natural { limbs }
    }

    /// The normalized little-endian limb representation (empty for zero).
    pub fn limbs(&self) -> &[u32] {
        &self.limbs
    }

    /// Returns the limbs zero-padded (or asserted to fit) to exactly
    /// `n` limbs.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `n` limbs.
    pub fn to_limbs_padded(&self, n: usize) -> Vec<u32> {
        assert!(self.limbs.len() <= n, "value does not fit in {n} limbs");
        let mut v = self.limbs.clone();
        v.resize(n, 0);
        v
    }

    /// Converts to generic limbs of radix `2^L::BITS` (little-endian,
    /// normalized). For `u32` limbs this is a copy; for `u16` limbs each
    /// `u32` limb is split in two.
    pub fn to_radix_limbs<L: Limb>(&self) -> Vec<L> {
        let mut out = Vec::with_capacity(self.limbs.len() * (32 / L::BITS as usize));
        for &l in &self.limbs {
            let mut v = l as u64;
            for _ in 0..(32 / L::BITS) {
                out.push(L::from_u64(v));
                v >>= L::BITS;
            }
        }
        while out.last() == Some(&L::ZERO) {
            out.pop();
        }
        out
    }

    /// Builds a natural from generic radix limbs (inverse of
    /// [`Natural::to_radix_limbs`]).
    pub fn from_radix_limbs<L: Limb>(limbs: &[L]) -> Self {
        let per = 32 / L::BITS as usize;
        let mut out: Vec<u32> = Vec::with_capacity(limbs.len().div_ceil(per));
        for chunk in limbs.chunks(per) {
            let mut v = 0u64;
            for (i, &l) in chunk.iter().enumerate() {
                v |= l.to_u64() << (i as u32 * L::BITS);
            }
            out.push(v as u32);
        }
        Self::from_limbs(out)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// Parses from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(4));
        let mut acc = 0u32;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u32) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        while out.first() == Some(&0) {
            out.remove(0);
        }
        out
    }

    /// Parses a decimal string.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNaturalError`] if the string is empty or contains a
    /// non-decimal character.
    pub fn from_decimal_str(s: &str) -> Result<Self, ParseNaturalError> {
        if s.is_empty() {
            return Err(ParseNaturalError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut v = Natural::zero();
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let chunk_len = (bytes.len() - i).min(9);
            let chunk = &s[i..i + chunk_len];
            let mut part: u32 = 0;
            for c in chunk.chars() {
                match c.to_digit(10) {
                    Some(d) => part = part * 10 + d,
                    None => {
                        return Err(ParseNaturalError {
                            kind: ParseErrorKind::InvalidDigit(c),
                        })
                    }
                }
            }
            let scale = 10u32.pow(chunk_len as u32);
            v = &(&v * &Natural::from_u32(scale)) + &Natural::from_u32(part);
            i += chunk_len;
        }
        Ok(v)
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseNaturalError`] if the string is empty or contains a
    /// non-hex character.
    pub fn from_hex_str(s: &str) -> Result<Self, ParseNaturalError> {
        if s.is_empty() {
            return Err(ParseNaturalError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut limbs: Vec<u32> = Vec::with_capacity(s.len().div_ceil(8));
        let bytes = s.as_bytes();
        let mut end = bytes.len();
        while end > 0 {
            let start = end.saturating_sub(8);
            let mut v = 0u32;
            for &c in &bytes[start..end] {
                let d = (c as char).to_digit(16).ok_or(ParseNaturalError {
                    kind: ParseErrorKind::InvalidDigit(c as char),
                })?;
                v = (v << 4) | d;
            }
            limbs.push(v);
            end = start;
        }
        Ok(Self::from_limbs(limbs))
    }

    /// Formats as a lowercase hexadecimal string (no prefix; `"0"` for
    /// zero).
    fn to_hex_string(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = format!("{:x}", self.limbs[self.limbs.len() - 1]);
        for &l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{l:08x}"));
        }
        s
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> usize {
        mpn::bit_length(&self.limbs)
    }

    /// Tests bit `i` (bits beyond the value are zero).
    pub fn bit(&self, i: usize) -> bool {
        mpn::test_bit(&self.limbs, i)
    }

    /// Extracts the `width`-bit window starting at bit `lo`
    /// (`width <= 32`). Used by windowed exponentiation.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than 32.
    pub fn bits(&self, lo: usize, width: u32) -> u32 {
        assert!((1..=32).contains(&width));
        let mut v = 0u32;
        for k in (0..width as usize).rev() {
            v = (v << 1) | self.bit(lo + k) as u32;
        }
        v
    }

    /// Checked subtraction: `self - rhs`, or `None` if it would underflow.
    pub fn checked_sub(&self, rhs: &Natural) -> Option<Natural> {
        if self < rhs {
            return None;
        }
        let mut r = self.limbs.clone();
        let borrow = mpn::sub_n_in_place(&mut r[..rhs.limbs.len()], &rhs.limbs);
        if borrow {
            let mut i = rhs.limbs.len();
            let mut b = true;
            while b {
                let (d, bo) = r[i].sub_borrow(1, false);
                r[i] = d;
                b = bo;
                i += 1;
            }
        }
        Some(Self::from_limbs(r))
    }

    /// Euclidean division: returns `(self / rhs, self % rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div_rem(&self, rhs: &Natural) -> (Natural, Natural) {
        let (q, r) = mpn::divrem(&self.limbs, &rhs.limbs);
        (Self::from_limbs(q), Self::from_limbs(r))
    }

    /// Modular exponentiation `self^exp mod m` by simple binary
    /// square-and-multiply with division-based reduction. This is the
    /// *reference* implementation; optimized variants live in the
    /// `pubkey` crate.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn pow_mod(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m.is_one() {
            return Natural::zero();
        }
        let mut result = Natural::one();
        let mut base = self % m;
        for i in 0..exp.bit_length() {
            if exp.bit(i) {
                result = &(&result * &base) % m;
            }
            base = &(&base * &base) % m;
        }
        result
    }

    /// A uniformly random natural with exactly `bits` bits (the top bit is
    /// set), from the given RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Natural {
        assert!(bits > 0);
        let limbs = bits.div_ceil(32);
        let mut v: Vec<u32> = (0..limbs).map(|_| rng.random()).collect();
        let top_bits = bits - (limbs - 1) * 32;
        let top = &mut v[limbs - 1];
        if top_bits < 32 {
            *top &= (1u32 << top_bits) - 1;
        }
        *top |= 1 << (top_bits - 1);
        Self::from_limbs(v)
    }

    /// A uniformly random natural in `[0, bound)`, by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Natural) -> Natural {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_length();
        let limbs = bits.div_ceil(32);
        let top_bits = bits - (limbs - 1) * 32;
        let mask = if top_bits == 32 {
            u32::MAX
        } else {
            (1u32 << top_bits) - 1
        };
        loop {
            let mut v: Vec<u32> = (0..limbs).map(|_| rng.random()).collect();
            v[limbs - 1] &= mask;
            let cand = Self::from_limbs(v);
            if &cand < bound {
                return cand;
            }
        }
    }
}

fn trim(v: &mut Vec<u32>) {
    while v.last() == Some(&0) {
        v.pop();
    }
}

impl PartialOrd for Natural {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Natural {
    fn cmp(&self, other: &Self) -> Ordering {
        mpn::cmp(&self.limbs, &other.limbs)
    }
}

impl fmt::Debug for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Natural(0x{})", self.to_hex_string())
    }
}

impl fmt::Display for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "", "0");
        }
        // Repeated division by 10^9.
        let mut digits = String::new();
        let mut cur = self.limbs.clone();
        while !cur.is_empty() {
            let mut q = vec![0u32; cur.len()];
            let r = mpn::divrem_1(&mut q, &cur, 1_000_000_000);
            trim(&mut q);
            if q.is_empty() {
                digits.insert_str(0, &format!("{r}"));
            } else {
                digits.insert_str(0, &format!("{r:09}"));
            }
            cur = q;
        }
        f.pad_integral(true, "", &digits)
    }
}

impl fmt::LowerHex for Natural {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_hex_string())
    }
}

impl From<u64> for Natural {
    fn from(v: u64) -> Self {
        Natural::from_u64(v)
    }
}

impl From<u32> for Natural {
    fn from(v: u32) -> Self {
        Natural::from_u32(v)
    }
}

impl std::str::FromStr for Natural {
    type Err = ParseNaturalError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Natural::from_decimal_str(s)
    }
}

impl Add for &Natural {
    type Output = Natural;

    fn add(self, rhs: &Natural) -> Natural {
        let (long, short) = if self.limbs.len() >= rhs.limbs.len() {
            (&self.limbs, &rhs.limbs)
        } else {
            (&rhs.limbs, &self.limbs)
        };
        let mut r = long.clone();
        let mut carry = mpn::add_n_in_place(&mut r[..short.len()], short);
        let mut i = short.len();
        while carry && i < r.len() {
            let (s, c) = r[i].add_carry(1, false);
            r[i] = s;
            carry = c;
            i += 1;
        }
        if carry {
            r.push(1);
        }
        Natural::from_limbs(r)
    }
}

impl Sub for &Natural {
    type Output = Natural;

    /// # Panics
    ///
    /// Panics if the result would be negative; use
    /// [`Natural::checked_sub`] for a non-panicking variant.
    fn sub(self, rhs: &Natural) -> Natural {
        self.checked_sub(rhs)
            .expect("attempt to subtract with underflow on Natural")
    }
}

impl Mul for &Natural {
    type Output = Natural;

    fn mul(self, rhs: &Natural) -> Natural {
        if self.is_zero() || rhs.is_zero() {
            return Natural::zero();
        }
        let mut r = vec![0; self.limbs.len() + rhs.limbs.len()];
        mpn::mul_basecase(&mut r, &self.limbs, &rhs.limbs);
        Natural::from_limbs(r)
    }
}

impl Div for &Natural {
    type Output = Natural;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).0
    }
}

impl Rem for &Natural {
    type Output = Natural;

    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: &Natural) -> Natural {
        self.div_rem(rhs).1
    }
}

impl Shl<usize> for Natural {
    type Output = Natural;

    fn shl(self, bits: usize) -> Natural {
        if self.is_zero() || bits == 0 {
            return self;
        }
        let limb_shift = bits / 32;
        let bit_shift = (bits % 32) as u32;
        let mut r = vec![0u32; self.limbs.len() + limb_shift + 1];
        r[limb_shift..limb_shift + self.limbs.len()].copy_from_slice(&self.limbs);
        if bit_shift > 0 {
            let src = r[limb_shift..limb_shift + self.limbs.len()].to_vec();
            let out = mpn::lshift(
                &mut r[limb_shift..limb_shift + self.limbs.len()],
                &src,
                bit_shift,
            );
            let top = limb_shift + self.limbs.len();
            r[top] = out;
        }
        Natural::from_limbs(r)
    }
}

impl Shr<usize> for Natural {
    type Output = Natural;

    fn shr(self, bits: usize) -> Natural {
        if self.is_zero() || bits == 0 {
            return self;
        }
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return Natural::zero();
        }
        let bit_shift = (bits % 32) as u32;
        let mut r = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let src = r.clone();
            mpn::rshift(&mut r, &src, bit_shift);
        }
        Natural::from_limbs(r)
    }
}

// Owned/mixed-operand conveniences delegate to the borrowed
// implementations.
macro_rules! forward_binop {
    ($tr:ident, $method:ident) => {
        impl $tr<&Natural> for Natural {
            type Output = Natural;
            fn $method(self, rhs: &Natural) -> Natural {
                $tr::$method(&self, rhs)
            }
        }
        impl $tr<Natural> for &Natural {
            type Output = Natural;
            fn $method(self, rhs: Natural) -> Natural {
                $tr::$method(self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add);
forward_binop!(Sub, sub);
forward_binop!(Mul, mul);
forward_binop!(Div, div);
forward_binop!(Rem, rem);

impl Add for Natural {
    type Output = Natural;
    fn add(self, rhs: Natural) -> Natural {
        &self + &rhs
    }
}

impl Sub for Natural {
    type Output = Natural;
    /// # Panics
    ///
    /// Panics if the result would be negative.
    fn sub(self, rhs: Natural) -> Natural {
        &self - &rhs
    }
}

impl Mul for Natural {
    type Output = Natural;
    fn mul(self, rhs: Natural) -> Natural {
        &self * &rhs
    }
}

impl Div for Natural {
    type Output = Natural;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Natural) -> Natural {
        &self / &rhs
    }
}

impl Rem for Natural {
    type Output = Natural;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn rem(self, rhs: Natural) -> Natural {
        &self % &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_roundtrips() {
        for v in [0u64, 1, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            assert_eq!(Natural::from_u64(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Natural::from_u64(u64::MAX);
        let b = Natural::from_u64(u64::MAX - 1);
        let s = &a + &b;
        assert_eq!(&s - &b, a);
        assert_eq!(&s - &a, b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = &Natural::from_u64(1) - &Natural::from_u64(2);
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = Natural::from_hex_str("fedcba9876543210fedcba9876543210").unwrap();
        let b = Natural::from_hex_str("123456789abcdef").unwrap();
        let p = &a * &b;
        let (q, r) = p.div_rem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "123456789012345678901234567890123456789";
        let v = Natural::from_decimal_str(s).unwrap();
        assert_eq!(v.to_string(), s);
    }

    #[test]
    fn decimal_parse_rejects_garbage() {
        assert!(Natural::from_decimal_str("").is_err());
        assert!(Natural::from_decimal_str("12x4").is_err());
    }

    #[test]
    fn hex_roundtrip() {
        let s = "deadbeefcafebabe0123456789abcdef";
        let v = Natural::from_hex_str(s).unwrap();
        assert_eq!(v.to_hex_string(), s);
        assert_eq!(Natural::zero().to_hex_string(), "0");
    }

    #[test]
    fn bytes_roundtrip() {
        let v = Natural::from_hex_str("0102030405060708090a").unwrap();
        let b = v.to_bytes_be();
        assert_eq!(b, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(Natural::from_bytes_be(&b), v);
    }

    #[test]
    fn shifts() {
        let v = Natural::from_u64(0x1234);
        assert_eq!((v.clone() << 100).bit_length(), 13 + 100);
        assert_eq!((v.clone() << 100) >> 100, v);
        assert_eq!(Natural::from_u64(0xff) >> 8, Natural::zero());
    }

    #[test]
    fn bits_window_extraction() {
        let v = Natural::from_u64(0b1101_0110);
        assert_eq!(v.bits(0, 4), 0b0110);
        assert_eq!(v.bits(4, 4), 0b1101);
        assert_eq!(v.bits(6, 4), 0b0011);
    }

    #[test]
    fn pow_mod_small_cases() {
        let b = Natural::from_u64(7);
        let e = Natural::from_u64(128);
        let m = Natural::from_u64(1000);
        // 7^128 mod 1000 computed independently: pow cycle of 7 mod 1000 has period 20; 128 % 20 = 8; 7^8 = 5764801 -> 801.
        assert_eq!(b.pow_mod(&e, &m).to_u64(), Some(801));
        assert_eq!(b.pow_mod(&Natural::zero(), &m).to_u64(), Some(1));
        assert_eq!(b.pow_mod(&e, &Natural::one()).to_u64(), Some(0));
    }

    #[test]
    fn radix_limbs_roundtrip() {
        let v = Natural::from_hex_str("0123456789abcdef00ff").unwrap();
        let l16: Vec<u16> = v.to_radix_limbs();
        assert_eq!(Natural::from_radix_limbs(&l16), v);
        let l32: Vec<u32> = v.to_radix_limbs();
        assert_eq!(Natural::from_radix_limbs(&l32), v);
        assert_eq!(l32, v.limbs());
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rng();
        let bound = Natural::from_u64(1000);
        for _ in 0..50 {
            let v = Natural::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = rand::rng();
        for bits in [1usize, 31, 32, 33, 512, 1024] {
            let v = Natural::random_bits(&mut rng, bits);
            assert_eq!(v.bit_length(), bits);
        }
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Natural::from_u64(u64::MAX);
        let b = Natural::one() << 64;
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
