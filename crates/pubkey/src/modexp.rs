//! Configurable modular exponentiation over the metered ops boundary.
//!
//! [`mod_exp`] executes any point of the paper's 450-candidate design
//! space ([`crate::space::ModExpConfig`]): it selects the
//! modular-multiplication strategy, exponent window width, limb radix
//! and caching behavior, while performing all limb arithmetic through an
//! [`MpnOps`] provider so the same code is used for functional runs,
//! macro-model estimation, and ISS co-simulation.

use crate::algo::{self, BarrettState, MontyState, Work};
use crate::ops::MpnOps;
use crate::space::{CacheMode, ModExpConfig, MulAlgo, Radix};
use mpint::limb::Limb;
use mpint::mpn;
use mpint::Natural;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from configurable modular exponentiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModExpError {
    /// The modulus was zero.
    ZeroModulus,
    /// Montgomery multiplication requires an odd modulus.
    EvenModulusMontgomery,
}

impl fmt::Display for ModExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModExpError::ZeroModulus => write!(f, "modulus must be nonzero"),
            ModExpError::EvenModulusMontgomery => {
                write!(f, "montgomery multiplication requires an odd modulus")
            }
        }
    }
}

impl std::error::Error for ModExpError {}

/// Window-table cache key: `(modulus, base, window bits, mul algo)`.
type TableKey<L> = (Vec<L>, Vec<L>, u32, MulAlgo);

/// Per-radix cache of reduction contexts and window tables.
#[derive(Debug, Clone, Default)]
struct RadixCache<L: Limb> {
    monty: BTreeMap<Vec<L>, MontyState<L>>,
    barrett: BTreeMap<Vec<L>, BarrettState<L>>,
    tables: BTreeMap<TableKey<L>, Vec<Vec<L>>>,
}

/// Cross-call cache implementing the design space's software caching
/// axis. Create one per key/session and pass it to every call.
#[derive(Debug, Clone, Default)]
pub struct ExpCache {
    r16: RadixCache<u16>,
    r32: RadixCache<u32>,
}

impl ExpCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached reduction contexts (both radices).
    pub fn context_entries(&self) -> usize {
        self.r16.monty.len()
            + self.r16.barrett.len()
            + self.r32.monty.len()
            + self.r32.barrett.len()
    }

    /// Number of cached window tables (both radices).
    pub fn table_entries(&self) -> usize {
        self.r16.tables.len() + self.r32.tables.len()
    }
}

/// Computes `base^exp mod modulus` under the given design-space
/// configuration: the setup stage (reduction context and window table,
/// cache-aware) followed by the MSB-first window scan.
///
/// # Errors
///
/// Returns [`ModExpError`] for a zero modulus, or an even modulus with
/// a Montgomery configuration.
///
/// # Examples
///
/// ```
/// use pubkey::modexp::{mod_exp, ExpCache};
/// use pubkey::ops::NativeMpn;
/// use pubkey::space::ModExpConfig;
/// use mpint::Natural;
///
/// let mut ops = NativeMpn::new();
/// let mut cache = ExpCache::new();
/// let m = Natural::from_u64(0xffff_ffff_ffff_ffc5);
/// let b = Natural::from_u64(3);
/// let e = Natural::from_u64(1 << 40);
/// let got = mod_exp(&mut ops, &b, &e, &m, &ModExpConfig::optimized(), &mut cache)?;
/// assert_eq!(got, b.pow_mod(&e, &m));
/// # Ok::<(), pubkey::modexp::ModExpError>(())
/// ```
pub fn mod_exp<O>(
    ops: &mut O,
    base: &Natural,
    exp: &Natural,
    modulus: &Natural,
    cfg: &ModExpConfig,
    cache: &mut ExpCache,
) -> Result<Natural, ModExpError>
where
    O: MpnOps<u16> + MpnOps<u32> + ?Sized,
{
    match cfg.radix {
        Radix::R16 => mod_exp_radix::<u16, O>(ops, base, exp, modulus, cfg, &mut cache.r16),
        Radix::R32 => mod_exp_radix::<u32, O>(ops, base, exp, modulus, cfg, &mut cache.r32),
    }
}

/// Runs only the setup stage of [`mod_exp`]: fills `cache` exactly as a
/// full `mod_exp` call with the same arguments would, metering the same
/// setup work through `ops`, without the window scan. The window table
/// is built only under [`CacheMode::ContextAndTable`], the one mode
/// that keeps it.
///
/// # Errors
///
/// Returns the same [`ModExpError`] as [`mod_exp`].
pub fn prime<O>(
    ops: &mut O,
    base: &Natural,
    exp: &Natural,
    modulus: &Natural,
    cfg: &ModExpConfig,
    cache: &mut ExpCache,
) -> Result<(), ModExpError>
where
    O: MpnOps<u16> + MpnOps<u32> + ?Sized,
{
    match cfg.radix {
        Radix::R16 => prime_radix::<u16, O>(ops, base, exp, modulus, cfg, &mut cache.r16),
        Radix::R32 => prime_radix::<u32, O>(ops, base, exp, modulus, cfg, &mut cache.r32),
    }
}

fn mod_exp_radix<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    base: &Natural,
    exp: &Natural,
    modulus: &Natural,
    cfg: &ModExpConfig,
    cache: &mut RadixCache<L>,
) -> Result<Natural, ModExpError> {
    let RadixCache {
        monty,
        barrett,
        tables,
    } = cache;
    match Setup::new(ops, base, exp, modulus, cfg, monty, barrett)? {
        Setup::Trivial(out) => Ok(out),
        Setup::Ready(ctx) => {
            let mut work = Work::new(ctx.m.len());
            let table = ctx.table(ops, &mut work, tables);
            Ok(ctx.scan(ops, &mut work, exp, &table))
        }
    }
}

fn prime_radix<L: Limb, O: MpnOps<L> + ?Sized>(
    ops: &mut O,
    base: &Natural,
    exp: &Natural,
    modulus: &Natural,
    cfg: &ModExpConfig,
    cache: &mut RadixCache<L>,
) -> Result<(), ModExpError> {
    let RadixCache {
        monty,
        barrett,
        tables,
    } = cache;
    if let Setup::Ready(ctx) = Setup::new(ops, base, exp, modulus, cfg, monty, barrett)? {
        if cfg.cache == CacheMode::ContextAndTable {
            ctx.table(ops, &mut Work::new(ctx.m.len()), tables);
        }
    }
    Ok(())
}

/// The reduction context of one exponentiation: built for the call
/// under [`CacheMode::None`], borrowed from the cache otherwise.
enum Reducer<'c, L: Limb> {
    /// Full division by the modulus; nothing to precompute.
    Div,
    Monty(Cow<'c, MontyState<L>>),
    Barrett(Cow<'c, BarrettState<L>>),
}

/// The outcome of the setup stage.
enum Setup<'c, L: Limb> {
    /// The answer needs no scan (unit modulus or zero exponent).
    Trivial(Natural),
    /// The scan's operands, in the reduction domain.
    Ready(Context<'c, L>),
}

/// Everything the window table and the scan read.
struct Context<'c, L: Limb> {
    cfg: ModExpConfig,
    /// Modulus limbs (`k` of them).
    m: Vec<L>,
    reducer: Reducer<'c, L>,
    /// The reduced base, `k` limbs, in the domain.
    base: Vec<L>,
    /// One, `k` limbs, in the domain.
    one: Vec<L>,
}

impl<'c, L: Limb> Setup<'c, L> {
    /// Validates the operands and sets up the reduction context (cached
    /// per modulus unless [`CacheMode::None`]) and the domain operands.
    fn new<O: MpnOps<L> + ?Sized>(
        ops: &mut O,
        base: &Natural,
        exp: &Natural,
        modulus: &Natural,
        cfg: &ModExpConfig,
        monty: &'c mut BTreeMap<Vec<L>, MontyState<L>>,
        barrett: &'c mut BTreeMap<Vec<L>, BarrettState<L>>,
    ) -> Result<Self, ModExpError> {
        if modulus.is_zero() {
            return Err(ModExpError::ZeroModulus);
        }
        if modulus.is_one() {
            return Ok(Setup::Trivial(Natural::zero()));
        }
        let m: Vec<L> = modulus.to_radix_limbs();
        let k = m.len();
        if matches!(cfg.mul, MulAlgo::Montgomery) && modulus.is_even() {
            return Err(ModExpError::EvenModulusMontgomery);
        }
        let base_red = base % modulus;
        if exp.is_zero() {
            return Ok(Setup::Trivial(Natural::one()));
        }

        let cached = cfg.cache != CacheMode::None;
        let reducer = match cfg.mul {
            MulAlgo::Montgomery if cached => Reducer::Monty(Cow::Borrowed(
                monty
                    .entry(m.clone())
                    .or_insert_with(|| MontyState::new(ops, &m)),
            )),
            MulAlgo::Montgomery => Reducer::Monty(Cow::Owned(MontyState::new(ops, &m))),
            MulAlgo::Barrett | MulAlgo::KaratsubaBarrett if cached => {
                Reducer::Barrett(Cow::Borrowed(
                    barrett
                        .entry(m.clone())
                        .or_insert_with(|| BarrettState::new(ops, &m)),
                ))
            }
            MulAlgo::Barrett | MulAlgo::KaratsubaBarrett => {
                Reducer::Barrett(Cow::Owned(BarrettState::new(ops, &m)))
            }
            MulAlgo::MulDiv | MulAlgo::KaratsubaDiv => Reducer::Div,
        };

        // Domain representation: k-limb vectors, Montgomery domain when
        // applicable.
        let mut base_dom: Vec<L> = base_red.to_radix_limbs();
        base_dom.resize(k, L::ZERO);
        let mut one = vec![L::ZERO; k];
        one[0] = L::ONE;
        let (base, one) = match &reducer {
            Reducer::Monty(st) => (st.to_monty(ops, &base_dom), st.to_monty(ops, &one)),
            _ => (base_dom, one),
        };
        Ok(Setup::Ready(Context {
            cfg: *cfg,
            m,
            reducer,
            base,
            one,
        }))
    }
}

impl<L: Limb> Context<'_, L> {
    /// Modular product `a·b` of `k`-limb domain operands into `out`
    /// (`k` limbs), through the workspace `w`.
    fn modmul<O: MpnOps<L> + ?Sized>(
        &self,
        ops: &mut O,
        w: &mut Work<L>,
        out: &mut Vec<L>,
        a: &[L],
        b: &[L],
    ) {
        if let Reducer::Monty(st) = &self.reducer {
            return st.mul_into(ops, &mut w.prod, out, a, b);
        }
        // Out of the workspace while the reductions use the rest of it.
        let mut t = std::mem::take(&mut w.prod);
        match self.cfg.mul {
            MulAlgo::KaratsubaDiv | MulAlgo::KaratsubaBarrett => {
                algo::mul_karatsuba_into(ops, w, &mut t, a, b, algo::KARATSUBA_THRESHOLD);
            }
            _ => algo::mul_schoolbook_into(ops, &mut t, a, b),
        }
        match &self.reducer {
            Reducer::Barrett(st) => st.reduce_into(ops, w, out, &t),
            _ => {
                algo::divrem_into(ops, w, &t, &self.m);
                out.clear();
                out.extend_from_slice(&w.rem);
            }
        }
        out.resize(self.m.len(), L::ZERO);
        w.prod = t;
    }

    /// The window table `table[i] = base^i` (domain), `i < 2^w`: looked
    /// up in or added to `tables` under [`CacheMode::ContextAndTable`],
    /// built for the call otherwise.
    fn table<'t, O: MpnOps<L> + ?Sized>(
        &self,
        ops: &mut O,
        w: &mut Work<L>,
        tables: &'t mut BTreeMap<TableKey<L>, Vec<Vec<L>>>,
    ) -> Cow<'t, [Vec<L>]> {
        if self.cfg.cache != CacheMode::ContextAndTable {
            return Cow::Owned(self.build_table(ops, w));
        }
        let key = (
            self.m.clone(),
            self.base.clone(),
            self.cfg.window,
            self.cfg.mul,
        );
        match tables.entry(key) {
            Entry::Occupied(hit) => {
                ops.glue(1); // hash lookup
                Cow::Borrowed(hit.into_mut())
            }
            Entry::Vacant(slot) => Cow::Borrowed(slot.insert(self.build_table(ops, w))),
        }
    }

    fn build_table<O: MpnOps<L> + ?Sized>(&self, ops: &mut O, w: &mut Work<L>) -> Vec<Vec<L>> {
        let entries = 1usize << self.cfg.window;
        let mut t: Vec<Vec<L>> = Vec::with_capacity(entries);
        t.push(self.one.clone());
        if entries > 1 {
            t.push(self.base.clone());
        }
        for i in 2..entries {
            let mut next = Vec::with_capacity(self.m.len());
            self.modmul(ops, w, &mut next, &t[i - 1], &self.base);
            t.push(next);
        }
        t
    }

    /// The MSB-first fixed-window scan of `exp` over `table`, converted
    /// back out of the domain. Each product goes to the spare of two
    /// accumulators, which then swap.
    fn scan<O: MpnOps<L> + ?Sized>(
        &self,
        ops: &mut O,
        w: &mut Work<L>,
        exp: &Natural,
        table: &[Vec<L>],
    ) -> Natural {
        let win = self.cfg.window;
        let digits = exp.bit_length().div_ceil(win as usize);
        let mut acc = Vec::with_capacity(self.m.len());
        let mut spare = Vec::with_capacity(self.m.len());
        // False until the first nonzero digit.
        let mut started = false;
        for d in (0..digits).rev() {
            if started {
                for _ in 0..win {
                    self.modmul(ops, w, &mut spare, &acc, &acc);
                    std::mem::swap(&mut acc, &mut spare);
                }
            }
            let digit = exp.bits(d * win as usize, win) as usize;
            if digit != 0 {
                if started {
                    self.modmul(ops, w, &mut spare, &acc, &table[digit]);
                    std::mem::swap(&mut acc, &mut spare);
                } else {
                    acc.extend_from_slice(&table[digit]);
                    started = true;
                }
            }
            ops.glue(1);
        }
        // A zero exponent never reaches the scan; defensive.
        if !started {
            acc.extend_from_slice(&self.one);
        }
        if let Reducer::Monty(st) = &self.reducer {
            st.to_plain_into(ops, w, &mut spare, &acc);
            std::mem::swap(&mut acc, &mut spare);
        }
        Natural::from_radix_limbs(mpn::normalized(&acc))
    }
}

/// RSA-CRT private-key material for [`mod_exp_crt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtKey {
    /// First prime factor.
    pub p: Natural,
    /// Second prime factor.
    pub q: Natural,
    /// `d mod (p-1)`.
    pub dp: Natural,
    /// `d mod (q-1)`.
    pub dq: Natural,
    /// Precomputed `q⁻¹ mod p` (used by [`crate::space::CrtMode::Garner`]).
    pub qinv: Natural,
}

/// Computes `base^d mod pq` with the configuration's CRT mode:
/// two half-size exponentiations recombined by Garner's formula, with
/// `q⁻¹ mod p` either precomputed or recomputed per call.
///
/// # Errors
///
/// Returns [`ModExpError`] from the underlying exponentiations.
pub fn mod_exp_crt<O>(
    ops: &mut O,
    base: &Natural,
    key: &CrtKey,
    cfg: &ModExpConfig,
    cache: &mut ExpCache,
) -> Result<Natural, ModExpError>
where
    O: MpnOps<u16> + MpnOps<u32> + ?Sized,
{
    use crate::space::CrtMode;
    let n = &key.p * &key.q;
    match cfg.crt {
        CrtMode::None => {
            // Caller should pass the full exponent through mod_exp; CRT
            // keys always carry dp/dq, so reconstruct d via CRT of the
            // exponents is not possible — the caller handles this case.
            unreachable!("mod_exp_crt requires a CRT mode; use mod_exp for CrtMode::None")
        }
        CrtMode::Recompute | CrtMode::Garner => {
            let m1 = mod_exp(ops, &(base % &key.p), &key.dp, &key.p, cfg, cache)?;
            let m2 = mod_exp(ops, &(base % &key.q), &key.dq, &key.q, cfg, cache)?;
            let qinv = match cfg.crt {
                CrtMode::Garner => key.qinv.clone(),
                _ => {
                    // Recompute q^{-1} mod p; metered as glue
                    // proportional to the (quadratic-ish) gcd work.
                    let bits = key.p.bit_length() as u64;
                    MpnOps::<u32>::glue(ops, bits * bits / 16);
                    mpint::gcd::mod_inverse(&key.q, &key.p)
                        .expect("p, q are distinct primes, so q is invertible mod p")
                }
            };
            // h = qinv * (m1 - m2) mod p  (Garner), result = m2 + h*q.
            let m2p = &m2 % &key.p;
            let diff = if m1 >= m2p {
                &m1 - &m2p
            } else {
                &(&m1 + &key.p) - &m2p
            };
            let h = mul_mod_metered(ops, &qinv, &diff, &key.p);
            let hq = mul_metered(ops, &h, &key.q);
            let out = &(&m2 + &hq) % &n;
            Ok(out)
        }
    }
}

/// `a*b` with the product metered through the 32-bit ops path.
fn mul_metered<O>(ops: &mut O, a: &Natural, b: &Natural) -> Natural
where
    O: MpnOps<u32> + ?Sized,
{
    let p = algo::mul_schoolbook::<u32, O>(ops, a.limbs(), b.limbs());
    Natural::from_limbs(p.to_vec())
}

/// `a*b mod m`, metered.
fn mul_mod_metered<O>(ops: &mut O, a: &Natural, b: &Natural, m: &Natural) -> Natural
where
    O: MpnOps<u32> + ?Sized,
{
    let p = algo::mul_schoolbook::<u32, O>(ops, a.limbs(), b.limbs());
    let (_, r) = algo::divrem::<u32, O>(ops, &p, m.limbs());
    Natural::from_limbs(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NativeMpn;
    use crate::space::{CrtMode, ModExpConfig};
    use mpint::gcd;

    fn nat(hex: &str) -> Natural {
        Natural::from_hex_str(hex).unwrap()
    }

    /// A 128-bit odd modulus and operands for quick sweeps.
    fn fixture() -> (Natural, Natural, Natural) {
        let m = nat("f0000000000000000000000000000461"); // odd
        let b = nat("0123456789abcdef0123456789abcdef");
        let e = nat("deadbeefcafebabe");
        (m, b, e)
    }

    #[test]
    fn every_config_matches_the_reference() {
        let (m, b, e) = fixture();
        let expect = b.pow_mod(&e, &m);
        let mut cache = ExpCache::new();
        let mut ops = NativeMpn::new();
        for cfg in ModExpConfig::enumerate() {
            let got = mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache)
                .unwrap_or_else(|err| panic!("{cfg}: {err}"));
            assert_eq!(got, expect, "config {cfg}");
        }
    }

    #[test]
    fn even_modulus_rejected_only_by_montgomery() {
        let m = Natural::from_u64(1 << 40);
        let b = Natural::from_u64(12345);
        let e = Natural::from_u64(77);
        let mut cache = ExpCache::new();
        let mut ops = NativeMpn::new();
        let mut monty_cfg = ModExpConfig::baseline();
        monty_cfg.mul = MulAlgo::Montgomery;
        assert_eq!(
            mod_exp(&mut ops, &b, &e, &m, &monty_cfg, &mut cache),
            Err(ModExpError::EvenModulusMontgomery)
        );
        let cfg = ModExpConfig::baseline();
        assert_eq!(
            mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap(),
            b.pow_mod(&e, &m)
        );
    }

    #[test]
    fn trivial_cases() {
        let mut cache = ExpCache::new();
        let mut ops = NativeMpn::new();
        let cfg = ModExpConfig::optimized();
        let m = Natural::from_u64(97);
        let b = Natural::from_u64(5);
        assert_eq!(
            mod_exp(&mut ops, &b, &Natural::zero(), &m, &cfg, &mut cache).unwrap(),
            Natural::one()
        );
        assert_eq!(
            mod_exp(&mut ops, &b, &Natural::one(), &m, &cfg, &mut cache).unwrap(),
            b
        );
        assert_eq!(
            mod_exp(
                &mut ops,
                &b,
                &Natural::from_u64(2),
                &Natural::one(),
                &cfg,
                &mut cache
            )
            .unwrap(),
            Natural::zero()
        );
        assert!(matches!(
            mod_exp(&mut ops, &b, &b, &Natural::zero(), &cfg, &mut cache),
            Err(ModExpError::ZeroModulus)
        ));
    }

    #[test]
    fn caching_reuses_contexts() {
        let (m, b, e) = fixture();
        let mut cache = ExpCache::new();
        let mut ops = NativeMpn::new();
        let mut cfg = ModExpConfig::optimized();
        cfg.cache = CacheMode::ContextAndTable;
        mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap();
        assert_eq!(cache.context_entries(), 1);
        assert_eq!(cache.table_entries(), 1);
        mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap();
        assert_eq!(cache.context_entries(), 1, "context reused");
        assert_eq!(cache.table_entries(), 1, "table reused");
    }

    #[test]
    fn cache_mode_none_keeps_cache_empty() {
        let (m, b, e) = fixture();
        let mut cache = ExpCache::new();
        let mut ops = NativeMpn::new();
        let mut cfg = ModExpConfig::optimized();
        cfg.cache = CacheMode::None;
        mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap();
        assert_eq!(cache.context_entries(), 0);
        assert_eq!(cache.table_entries(), 0);
    }

    #[test]
    fn wider_windows_use_fewer_multiplications() {
        let (m, b, _) = fixture();
        let e = nat("ffffffffffffffffffffffffffffffff"); // dense exponent
        let mut counts = Vec::new();
        for w in [1u32, 4] {
            let mut ops = NativeMpn::new();
            let mut cache = ExpCache::new();
            let mut cfg = ModExpConfig::baseline();
            cfg.mul = MulAlgo::Montgomery;
            cfg.window = w;
            mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap();
            counts.push(MpnOps::<u32>::call_count(&ops, kreg::id::ADDMUL_1));
        }
        assert!(
            counts[1] < counts[0],
            "w=4 ({}) should beat w=1 ({})",
            counts[1],
            counts[0]
        );
    }

    #[test]
    fn crt_matches_full_exponentiation() {
        // p, q small primes; d chosen valid for e=65537? For the test we
        // only need m^d mod n consistency between CRT and direct paths.
        let p = nat("f123456789abcdf1"); // will be replaced by real primes below
        let _ = p;
        let p = Natural::from_u64(0xffff_fffb); // not prime; need primes.
        let _ = p;
        // Use known primes.
        let p = Natural::from_u64(4_294_967_291); // 2^32 - 5, prime
        let q = Natural::from_u64(4_294_967_279); // 2^32 - 17, prime
        let n = &p * &q;
        let d = nat("12345671234567");
        let dp = &d % &(&p - &Natural::one());
        let dq = &d % &(&q - &Natural::one());
        let qinv = gcd::mod_inverse(&q, &p).unwrap();
        let key = CrtKey {
            p: p.clone(),
            q: q.clone(),
            dp,
            dq,
            qinv,
        };
        let msg = nat("0123456789abcdeffedcba987");
        let direct = msg.pow_mod(&d, &n);
        for crt in [CrtMode::Recompute, CrtMode::Garner] {
            let mut cfg = ModExpConfig::optimized();
            cfg.crt = crt;
            let mut ops = NativeMpn::new();
            let mut cache = ExpCache::new();
            let got = mod_exp_crt(&mut ops, &msg, &key, &cfg, &mut cache).unwrap();
            assert_eq!(got, direct, "crt mode {crt}");
        }
    }

    #[test]
    fn radix16_and_radix32_agree() {
        let (m, b, e) = fixture();
        let expect = b.pow_mod(&e, &m);
        for mul in MulAlgo::ALL {
            let mut cfg = ModExpConfig::baseline();
            cfg.mul = mul;
            let mut ops = NativeMpn::new();
            let mut cache = ExpCache::new();
            cfg.radix = Radix::R16;
            assert_eq!(
                mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap(),
                expect,
                "{mul} r16"
            );
            cfg.radix = Radix::R32;
            assert_eq!(
                mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).unwrap(),
                expect,
                "{mul} r32"
            );
        }
    }
}
