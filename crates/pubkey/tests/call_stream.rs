//! Pins the metered call stream of the modular-exponentiation programs.
//!
//! Macro-model estimates and ISS co-simulation cycles are sums over the
//! calls an exponentiation makes through [`MpnOps`], so they stay
//! bit-identical exactly when that stream does: the same ops, in the
//! same order, at the same lengths, on the same limbs. [`Recorder`]
//! folds every call into one FNV-1a digest, and the digest is pinned.
//! A failure here means the metered work changed, never a reason to
//! re-pin the value.

use kreg::KernelId;
use mpint::limb::Limb;
use mpint::Natural;
use pubkey::algo;
use pubkey::modexp::{mod_exp, prime, ExpCache};
use pubkey::ops::{MpnOps, NativeMpn};
use pubkey::space::{CrtMode, ModExpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The digest of [`call_stream_digest`], computed before the
/// exponentiation moved onto reused workspace buffers.
const PINNED: u64 = 0x6c41_dc58_1a42_4c45;

/// Computes through [`NativeMpn`] and folds each call's op, radix and
/// lengths, the limbs it reads, its scalar or shift count and its
/// outputs into an FNV-1a digest.
struct Recorder {
    inner: NativeMpn,
    hash: u64,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            inner: NativeMpn::new(),
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn limbs<L: Limb>(&mut self, s: &[L]) {
        self.word(s.len() as u64);
        for &l in s {
            self.word(l.to_u64());
        }
    }

    /// Opens a call record: the op (its slot, 8 for `glue`) and radix.
    fn op<L: Limb>(&mut self, slot: u64) {
        self.word(slot);
        self.word(u64::from(L::BITS));
    }
}

impl<L: Limb> MpnOps<L> for Recorder {
    fn add_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.op::<L>(0);
        self.word(r.len() as u64);
        self.limbs(a);
        self.limbs(b);
        let carry = self.inner.add_n(r, a, b);
        self.limbs(r);
        self.word(u64::from(carry));
        carry
    }

    fn sub_n(&mut self, r: &mut [L], a: &[L], b: &[L]) -> bool {
        self.op::<L>(1);
        self.word(r.len() as u64);
        self.limbs(a);
        self.limbs(b);
        let borrow = self.inner.sub_n(r, a, b);
        self.limbs(r);
        self.word(u64::from(borrow));
        borrow
    }

    fn mul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.op::<L>(2);
        self.word(r.len() as u64);
        self.limbs(a);
        self.word(b.to_u64());
        let hi = self.inner.mul_1(r, a, b);
        self.limbs(r);
        self.word(hi.to_u64());
        hi
    }

    fn addmul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.op::<L>(3);
        self.limbs(r);
        self.limbs(a);
        self.word(b.to_u64());
        let carry = self.inner.addmul_1(r, a, b);
        self.limbs(r);
        self.word(carry.to_u64());
        carry
    }

    fn submul_1(&mut self, r: &mut [L], a: &[L], b: L) -> L {
        self.op::<L>(4);
        self.limbs(r);
        self.limbs(a);
        self.word(b.to_u64());
        let borrow = self.inner.submul_1(r, a, b);
        self.limbs(r);
        self.word(borrow.to_u64());
        borrow
    }

    fn lshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.op::<L>(5);
        self.word(r.len() as u64);
        self.limbs(a);
        self.word(u64::from(cnt));
        let out = self.inner.lshift(r, a, cnt);
        self.limbs(r);
        self.word(out.to_u64());
        out
    }

    fn rshift(&mut self, r: &mut [L], a: &[L], cnt: u32) -> L {
        self.op::<L>(6);
        self.word(r.len() as u64);
        self.limbs(a);
        self.word(u64::from(cnt));
        let out = self.inner.rshift(r, a, cnt);
        self.limbs(r);
        self.word(out.to_u64());
        out
    }

    fn div_qhat(&mut self, n2: L, n1: L, n0: L, d1: L, d0: L) -> L {
        self.op::<L>(7);
        self.limbs(&[n2, n1, n0, d1, d0]);
        let q = self.inner.div_qhat(n2, n1, n0, d1, d0);
        self.word(q.to_u64());
        q
    }

    fn glue(&mut self, units: u64) {
        self.op::<L>(8);
        self.word(units);
    }

    fn cycles(&self) -> f64 {
        MpnOps::<L>::cycles(&self.inner)
    }

    fn reset(&mut self) {
        MpnOps::<L>::reset(&mut self.inner);
    }

    fn call_count(&self, op: KernelId) -> u64 {
        MpnOps::<L>::call_count(&self.inner, op)
    }
}

/// The fixed phase-2 workload `(m, base, exp)`: an odd `bits`-bit
/// modulus drawn from seed `0xE4B0`, as the exploration flow uses it.
fn phase2_workload(bits: usize) -> (Natural, Natural, Natural) {
    let mut rng = StdRng::seed_from_u64(0xE4B0);
    let mut m = Natural::random_bits(&mut rng, bits);
    if m.is_even() {
        m = &m + &Natural::one();
    }
    let base = Natural::random_below(&mut rng, &m);
    let exp = Natural::random_bits(&mut rng, bits);
    (m, base, exp)
}

/// Pseudo-random limbs from a multiplicative hash of the index.
fn limbs<L: Limb>(n: usize, salt: u64) -> Vec<L> {
    (0..n as u64)
        .map(|i| L::from_u64((i + salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17))
        .collect()
}

/// A division whose first nonzero quotient estimate is one too large,
/// so Knuth's add-back step runs: the numerator's top limbs are an
/// exact multiple of the divisor's top two limbs, and the divisor's low
/// limb is nonzero.
fn add_back_case<L: Limb>() -> (Vec<L>, Vec<L>) {
    let max = L::MAX.to_u64();
    let (d1, d0, low, q) = ((max >> 1) + 3, max / 3, max / 5, max - 7);
    let top = u128::from(q) * ((u128::from(d1) << L::BITS) + u128::from(d0));
    let limb = |i: u32| L::from_u64((top >> (i * L::BITS)) as u64);
    let n = vec![L::ZERO, limb(0), limb(1), limb(2)];
    let d = vec![L::from_u64(low), L::from_u64(d0), L::from_u64(d1)];
    (n, d)
}

/// Divisions at one radix: through the add-back step, and a multi-limb
/// and a single-limb divisor on pseudo-random limbs.
fn divisions<L: Limb>(rec: &mut Recorder) {
    let n: Vec<L> = limbs(23, 1);
    let cases = [
        add_back_case::<L>(),
        (n.clone(), limbs(7, 2)),
        (n, limbs(1, 3)),
    ];
    for (n, d) in cases {
        let (q, r) = algo::divrem(rec, &n, &d);
        let (qq, rr) = Natural::from_radix_limbs(&n).div_rem(&Natural::from_radix_limbs(&d));
        assert_eq!(
            (Natural::from_radix_limbs(&q), Natural::from_radix_limbs(&r)),
            (qq, rr)
        );
        rec.limbs(&q);
        rec.limbs(&r);
    }
}

/// Every call the exponentiation programs, divisions and a Karatsuba
/// product above the threshold make, folded into one digest. Each
/// program also runs on base 3, whose domain operand has high zero
/// limbs, and the Karatsuba operands have zero limbs at the split
/// points, so operand normalization shows in the lengths.
fn call_stream_digest() -> u64 {
    let mut rec = Recorder::new();
    for bits in [64, 128] {
        let (m, base, exp) = phase2_workload(bits);
        let programs = ModExpConfig::enumerate()
            .into_iter()
            .filter(|c| c.crt == CrtMode::None);
        for cfg in programs {
            for base in [&base, &Natural::from_u64(3)] {
                for full_warm_up in [false, true] {
                    let mut cache = ExpCache::new();
                    if full_warm_up {
                        mod_exp(&mut rec, base, &exp, &m, &cfg, &mut cache).expect("odd modulus");
                    } else {
                        prime(&mut rec, base, &exp, &m, &cfg, &mut cache).expect("odd modulus");
                    }
                    let out =
                        mod_exp(&mut rec, base, &exp, &m, &cfg, &mut cache).expect("odd modulus");
                    assert_eq!(out, base.pow_mod(&exp, &m), "{cfg} at {bits} bits");
                    rec.limbs(out.limbs());
                }
            }
        }
    }
    divisions::<u32>(&mut rec);
    divisions::<u16>(&mut rec);
    let n = 3 * algo::KARATSUBA_THRESHOLD;
    let mut a: Vec<u32> = limbs(n, 4);
    let mut b: Vec<u32> = limbs(n - 5, 5);
    for i in [n / 4 - 1, n / 2 - 1] {
        a[i] = 0;
        b[i] = 0;
    }
    let p = algo::mul_karatsuba(&mut rec, &a, &b, algo::KARATSUBA_THRESHOLD);
    rec.limbs(&p);
    rec.hash
}

#[test]
fn metered_call_stream_is_pinned() {
    assert_eq!(
        call_stream_digest(),
        PINNED,
        "the metered call stream changed: estimates and co-simulation cycles would move"
    );
}
