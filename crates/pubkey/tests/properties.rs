//! Property-based tests for the public-key layer and the algorithm
//! design space.

use kreg::id;
use macromodel::model::{MacroModel, Monomial};
use mpint::limb::Limb;
use mpint::Natural;
use proptest::prelude::*;
use pubkey::algo;
use pubkey::modexp::{mod_exp, prime, ExpCache};
use pubkey::ops::{ModeledMpn, MpnOps, NativeMpn};
use pubkey::space::{CacheMode, CrtMode, ModExpConfig, MulAlgo, Radix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

fn natural(max_limbs: usize) -> impl Strategy<Value = Natural> {
    prop::collection::vec(any::<u32>(), 1..=max_limbs).prop_map(Natural::from_limbs)
}

fn odd_modulus(max_limbs: usize) -> impl Strategy<Value = Natural> {
    natural(max_limbs).prop_map(|n| {
        let n = if n.is_even() { &n + &Natural::one() } else { n };
        if n.is_one() || n.is_zero() {
            Natural::from_u64(0xffff_ffff_ffff_ffc5)
        } else {
            n
        }
    })
}

fn any_config() -> impl Strategy<Value = ModExpConfig> {
    (
        prop::sample::select(MulAlgo::ALL.to_vec()),
        prop::sample::select(ModExpConfig::WINDOWS.to_vec()),
        prop::sample::select(CrtMode::ALL.to_vec()),
        prop::sample::select(Radix::ALL.to_vec()),
        prop::sample::select(CacheMode::ALL.to_vec()),
    )
        .prop_map(|(mul, window, crt, radix, cache)| ModExpConfig {
            mul,
            window,
            crt,
            radix,
            cache,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn any_config_matches_reference_pow_mod(
        cfg in any_config(),
        m in odd_modulus(4),
        b in natural(4),
        e in natural(2),
    ) {
        let mut ops = NativeMpn::new();
        let mut cache = ExpCache::new();
        let got = mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache)
            .expect("odd modulus works for every strategy");
        prop_assert_eq!(got, b.pow_mod(&e, &m), "config {}", cfg);
    }

    #[test]
    fn cached_and_uncached_agree(
        m in odd_modulus(3),
        b in natural(3),
        e in natural(2),
    ) {
        let mut cfg = ModExpConfig::optimized();
        let mut ops = NativeMpn::new();
        cfg.cache = CacheMode::None;
        let mut c1 = ExpCache::new();
        let plain = mod_exp(&mut ops, &b, &e, &m, &cfg, &mut c1).expect("runs");
        cfg.cache = CacheMode::ContextAndTable;
        let mut c2 = ExpCache::new();
        let first = mod_exp(&mut ops, &b, &e, &m, &cfg, &mut c2).expect("runs");
        let second = mod_exp(&mut ops, &b, &e, &m, &cfg, &mut c2).expect("runs");
        prop_assert_eq!(&plain, &first);
        prop_assert_eq!(&plain, &second);
    }

    #[test]
    fn ops_divrem_matches_natural(n in natural(8), d in natural(4)) {
        let mut ops = NativeMpn::new();
        let (q, r) = algo::divrem::<u32, _>(&mut ops, n.limbs(), d.limbs());
        let (qq, rr) = n.div_rem(&d);
        prop_assert_eq!(Natural::from_limbs(q), qq);
        prop_assert_eq!(Natural::from_limbs(r), rr);
    }

    #[test]
    fn ops_karatsuba_matches_schoolbook(
        a in prop::collection::vec(any::<u32>(), 1..60),
        b in prop::collection::vec(any::<u32>(), 1..60),
    ) {
        let mut ops = NativeMpn::new();
        let k = algo::mul_karatsuba(&mut ops, &a, &b, 8);
        let s = algo::mul_schoolbook(&mut ops, &a, &b);
        prop_assert_eq!(k, s);
    }

    #[test]
    fn monty_state_roundtrips(m in odd_modulus(4), a in natural(4)) {
        let mut ops = NativeMpn::new();
        let ml: Vec<u32> = m.to_radix_limbs();
        let st = algo::MontyState::<u32>::new(&mut ops, &ml);
        let ar = &a % &m;
        let k = st.n.len();
        let ap = ar.to_limbs_padded(k);
        let dom = st.to_monty(&mut ops, &ap);
        let back = st.from_monty(&mut ops, &dom);
        prop_assert_eq!(Natural::from_limbs(back), ar);
    }

    #[test]
    fn barrett_state_reduces_correctly(m in odd_modulus(4), x in natural(4)) {
        let mut ops = NativeMpn::new();
        let ml: Vec<u32> = m.to_radix_limbs();
        let st = algo::BarrettState::<u32>::new(&mut ops, &ml);
        let xr = &x % &m;
        let sq = &xr * &xr;
        let mut padded = sq.limbs().to_vec();
        padded.resize(2 * ml.len(), 0);
        let r = st.reduce(&mut ops, &padded);
        prop_assert_eq!(Natural::from_limbs(r), &sq % &m);
    }

    #[test]
    fn call_counts_scale_with_window(e_raw in prop::collection::vec(any::<u32>(), 2..4)) {
        // More window bits => fewer total multiplications for *dense*
        // exponents (table cost amortized); sparse exponents favor
        // narrow windows, so densify the random input.
        let e = Natural::from_limbs(e_raw.iter().map(|l| l | 0xffff_fff0).collect());
        let m = Natural::from_hex_str("f0000000000000000000000000000461").unwrap();
        let b = Natural::from_u64(0x1234_5678_9abc_def1);
        prop_assume!(e.bit_length() > 48);
        let count = |w: u32| {
            let mut cfg = ModExpConfig::baseline();
            cfg.mul = MulAlgo::Montgomery;
            cfg.window = w;
            let mut ops = NativeMpn::new();
            let mut cache = ExpCache::new();
            mod_exp(&mut ops, &b, &e, &m, &cfg, &mut cache).expect("runs");
            MpnOps::<u32>::call_count(&ops, id::ADDMUL_1)
        };
        prop_assert!(count(5) < count(1));
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

/// A linear-plus-quadratic model with fractional coefficients, so a
/// changed summation order would show in the bits of a sum.
fn synthetic_model(name: &'static str, c: [f64; 3]) -> MacroModel {
    MacroModel::new(
        name,
        vec![
            Monomial::constant(1),
            Monomial::linear(1, 0),
            Monomial::quadratic(1, 0),
        ],
        c.to_vec(),
    )
}

/// Fixed synthetic models for every metered op, distinct per radix:
/// the 32-bit and the 16-bit registry.
fn synthetic_registries() -> [BTreeMap<&'static str, MacroModel>; 2] {
    let models = |salt: f64| -> BTreeMap<&'static str, MacroModel> {
        id::MPN
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let i = i as f64;
                let c = [3.1 + 0.7 * i + salt, 1.3 + 0.11 * i, 0.017 * (i + 1.0)];
                (op.name(), synthetic_model(op.name(), c))
            })
            .collect()
    };
    [models(0.0), models(5.3)]
}

/// Warms a fresh cache for `cfg` (a full `mod_exp`, or only `prime`),
/// then runs one costed `mod_exp`; returns its result, the provider and
/// the cache.
fn warm_then_cost<O: MpnOps<u16> + MpnOps<u32>>(
    mut ops: O,
    full_warm_up: bool,
    (m, base, exp): &(Natural, Natural, Natural),
    cfg: &ModExpConfig,
) -> (Natural, O, ExpCache) {
    let mut cache = ExpCache::new();
    if full_warm_up {
        mod_exp(&mut ops, base, exp, m, cfg, &mut cache).expect("odd modulus");
    } else {
        prime(&mut ops, base, exp, m, cfg, &mut cache).expect("odd modulus");
    }
    MpnOps::<u32>::reset(&mut ops);
    let out = mod_exp(&mut ops, base, exp, m, cfg, &mut cache).expect("odd modulus");
    (out, ops, cache)
}

#[test]
fn priming_leaves_the_cache_a_warm_up_run_leaves() {
    let registries = synthetic_registries();
    let synthetic_modeled_ops =
        || ModeledMpn::with_radix_models(&registries[0], &registries[1], 2.7);
    for bits in [64, 128] {
        let work = phase2_workload(bits);
        let programs = ModExpConfig::enumerate()
            .into_iter()
            .filter(|c| c.crt == CrtMode::None);
        for cfg in programs {
            let (r_warm, n_warm, c_warm) = warm_then_cost(NativeMpn::new(), true, &work, &cfg);
            let (r_prime, n_prime, c_prime) = warm_then_cost(NativeMpn::new(), false, &work, &cfg);
            assert_eq!(r_prime, r_warm, "{cfg} at {bits} bits");
            for op in id::MPN {
                assert_eq!(
                    MpnOps::<u32>::call_count(&n_prime, op),
                    MpnOps::<u32>::call_count(&n_warm, op),
                    "{op} calls, {cfg} at {bits} bits"
                );
            }
            assert_eq!(c_prime.context_entries(), c_warm.context_entries(), "{cfg}");
            assert_eq!(c_prime.table_entries(), c_warm.table_entries(), "{cfg}");

            let (_, m_warm, _) = warm_then_cost(synthetic_modeled_ops(), true, &work, &cfg);
            let (_, m_prime, _) = warm_then_cost(synthetic_modeled_ops(), false, &work, &cfg);
            assert_eq!(
                MpnOps::<u32>::cycles(&m_prime).to_bits(),
                MpnOps::<u32>::cycles(&m_warm).to_bits(),
                "{cfg} at {bits} bits"
            );
        }
    }
}

/// Runs the metered op in `slot` (8: `glue`) on `len`-limb operands;
/// returns the length the op is charged at.
fn run_op<L: Limb, O: MpnOps<L>>(ops: &mut O, slot: usize, len: usize) -> usize {
    let a = vec![L::from_u64(0x1234_5678) | L::ONE; len];
    let b = vec![L::from_u64(0x0f0f_0f0f); len];
    let mut r = vec![L::ZERO; len];
    let top = L::ONE << (L::BITS - 1);
    match slot {
        0 => {
            ops.add_n(&mut r, &a, &b);
        }
        1 => {
            ops.sub_n(&mut r, &a, &b);
        }
        2 => {
            ops.mul_1(&mut r, &a, L::from_u64(3));
        }
        3 => {
            ops.addmul_1(&mut r, &a, L::from_u64(5));
        }
        4 => {
            ops.submul_1(&mut r, &a, L::from_u64(7));
        }
        5 => {
            ops.lshift(&mut r, &a, 1);
        }
        6 => {
            ops.rshift(&mut r, &a, 1);
        }
        7 => {
            ops.div_qhat(L::ONE, L::ZERO, L::ZERO, top, L::ZERO);
            return 1;
        }
        _ => ops.glue(len as u64),
    }
    len
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn prediction_table_matches_direct_prediction(
        present in any::<[[bool; 8]; 2]>(),
        coeffs in any::<[[u32; 3]; 16]>(),
        calls in prop::collection::vec((any::<bool>(), 0usize..9, 1usize..=600), 1..160),
    ) {
        // models[radix] holds a model for slot s only where present[radix][s].
        let models: Vec<BTreeMap<&'static str, MacroModel>> = (0..2)
            .map(|radix| {
                id::MPN
                    .iter()
                    .enumerate()
                    .filter(|&(s, _)| present[radix][s])
                    .map(|(s, op)| {
                        let c = coeffs[radix * 8 + s].map(|x| f64::from(x) / 7.0e6);
                        (op.name(), synthetic_model(op.name(), c))
                    })
                    .collect()
            })
            .collect();
        let glue_cost = 1.9;
        let mut ops = ModeledMpn::with_radix_models(&models[0], &models[1], glue_cost);
        let mut expect = 0.0f64;
        let mut counts = [0u64; 8];
        for &(narrow, slot, len) in &calls {
            let charged = if narrow {
                run_op::<u16, _>(&mut ops, slot, len)
            } else {
                run_op::<u32, _>(&mut ops, slot, len)
            };
            if slot == 8 {
                expect += glue_cost * len as f64;
                continue;
            }
            counts[slot] += 1;
            if let Some(m) = models[usize::from(narrow)].get(id::MPN[slot].name()) {
                expect += m.predict(&[charged as u64]);
            }
        }
        prop_assert_eq!(MpnOps::<u32>::cycles(&ops).to_bits(), expect.to_bits());
        for (s, op) in id::MPN.iter().enumerate() {
            prop_assert_eq!(MpnOps::<u32>::call_count(&ops, *op), counts[s], "{}", op);
        }
    }
}
