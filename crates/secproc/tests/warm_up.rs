//! A discarded warm-up ([`IssMpn::warm_up`]) must leave every later
//! timed measurement exactly where a timed warm-up run leaves it: the
//! same cycles, the same architectural state, the same fault draws.

use mpint::Natural;
use pubkey::modexp::{mod_exp, ExpCache};
use pubkey::ops::MpnOps;
use pubkey::space::ModExpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secproc::issops::{ArchState, IssMpn, KernelVariant};
use xfault::PlanSpec;
use xr32::config::CpuConfig;

/// 150 of the 450 candidates: every (multiply, window, CRT, radix)
/// program, each with one of the three caching options in turn.
fn programs() -> Vec<ModExpConfig> {
    ModExpConfig::enumerate()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 3 == (i / 3) % 3)
        .map(|(_, c)| c)
        .collect()
}

/// `base^exp mod m` for an odd `bits`-bit modulus.
fn workload(bits: usize) -> (Natural, Natural, Natural) {
    let mut rng = StdRng::seed_from_u64(0x3A2);
    let mut m = Natural::random_bits(&mut rng, bits);
    if m.is_even() {
        m = &m + &Natural::one();
    }
    let base = Natural::random_below(&mut rng, &m);
    let exp = Natural::random_bits(&mut rng, bits);
    (base, exp, m)
}

/// What a co-simulation observes: the timed run's cycles (as bits) and
/// both cores' architectural state.
type Observed = (u64, ArchState, ArchState);

/// Co-simulates `program`: a warm-up run, then a timed run. The warm-up
/// is a discarded [`IssMpn::warm_up`] (`warm_only`) or a timed run whose
/// cycles are reset away, as co-simulation did before warm-ups existed.
fn cosim(config: &CpuConfig, program: &ModExpConfig, bits: usize, warm_only: bool) -> Observed {
    let (base, exp, m) = workload(bits);
    let mut iss = IssMpn::with_variant(config.clone(), KernelVariant::Base);
    iss.set_verify(false);
    let mut cache = ExpCache::new();
    if warm_only {
        iss.warm_up(|iss| mod_exp(iss, &base, &exp, &m, program, &mut cache))
            .expect("warm-up runs");
    } else {
        mod_exp(&mut iss, &base, &exp, &m, program, &mut cache).expect("warm-up runs");
        MpnOps::<u32>::reset(&mut iss);
    }
    mod_exp(&mut iss, &base, &exp, &m, program, &mut cache).expect("timed run");
    assert!(iss.kernel_errors().is_empty(), "{:?}", iss.kernel_errors());
    let cycles = MpnOps::<u32>::cycles(&iss);
    (cycles.to_bits(), iss.arch_state32(), iss.arch_state16())
}

fn warm_up_equals_two_timed_runs(config: CpuConfig, bits: usize) {
    for program in programs() {
        let (cycles, r32, r16) = cosim(&config, &program, bits, true);
        let timed = cosim(&config, &program, bits, false);
        assert_eq!(
            (cycles, &r32, &r16),
            (timed.0, &timed.1, &timed.2),
            "{program} at {bits} bits"
        );
    }
}

#[test]
fn in_order_warm_ups_are_exact_at_64_bits() {
    warm_up_equals_two_timed_runs(CpuConfig::default(), 64);
}

#[test]
fn in_order_warm_ups_are_exact_at_128_bits() {
    warm_up_equals_two_timed_runs(CpuConfig::default(), 128);
}

#[test]
fn out_of_order_warm_ups_are_exact_at_64_bits() {
    warm_up_equals_two_timed_runs(CpuConfig::ooo(), 64);
}

#[test]
fn out_of_order_warm_ups_are_exact_at_128_bits() {
    warm_up_equals_two_timed_runs(CpuConfig::ooo(), 128);
}

#[test]
fn in_order_warm_ups_are_exact_with_a_slow_multiplier() {
    // A multiply result 5 cycles late can outlast a kernel's return on
    // the in-order core, so a timed run may start on an unsettled
    // pipeline.
    let config = CpuConfig {
        mul_latency: 6,
        ..CpuConfig::default()
    };
    warm_up_equals_two_timed_runs(config, 64);
}

#[test]
fn fault_armed_warm_ups_draw_and_charge_as_before() {
    let measure = |warm_only: bool, stream: u64| {
        let mut iss = IssMpn::base(CpuConfig::default());
        iss.set_fault_plan(PlanSpec::all_sites(0xFA17, 3_000), stream);
        iss.set_cycle_budget(100_000);
        let mut out = Vec::new();
        for kernel in kreg::id::MPN {
            for n in [1usize, 4, 9] {
                let warm = if warm_only {
                    iss.warm_up(|iss| iss.measure32(kernel, n, 7))
                } else {
                    iss.measure32(kernel, n, 7)
                };
                out.push((warm, iss.measure32(kernel, n, 8)));
            }
        }
        let fired = iss.faults_fired();
        let errors = iss.take_kernel_errors();
        let (p32, p16) = iss.take_fault_plans();
        (
            out,
            errors,
            format!("{p32:?} {p16:?}"),
            iss.core_cycles(),
            fired,
        )
    };
    for stream in 0..4 {
        let (warm, timed) = (measure(true, stream), measure(false, stream));
        assert_eq!(warm, timed, "stream {stream}");
        assert!(warm.4 > 0, "stream {stream}: no fault fired");
    }
}
