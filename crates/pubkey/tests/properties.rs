//! Property-based tests for the public-key layer and the algorithm
//! design space.

use mpint::Natural;
use proptest::prelude::*;
use pubkey::algo;
use pubkey::modexp::{mod_exp, ExpCache};
use pubkey::ops::{MpnOps, NativeMpn};
use pubkey::space::{CacheMode, CrtMode, ModExpConfig, MulAlgo, Radix};

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
            MpnOps::<u32>::call_count(&ops, kreg::id::ADDMUL_1)
        };
        prop_assert!(count(5) < count(1));
    }
}
