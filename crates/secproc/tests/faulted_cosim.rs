//! A faulted co-simulation attempt stops at its first detected kernel
//! error.
//!
//! Under a fault campaign the provider verifies every kernel call, and
//! the attempt is lost as soon as one call fails. From then on the
//! provider serves golden results without simulating, so a corrupted
//! result can never reach the reduction arithmetic above the kernels,
//! and a runaway `div_qhat` can burn the watchdog budget at most once
//! per attempt.

use macromodel::charact::CharactOptions;
use pubkey::space::{CacheMode, CrtMode, ModExpConfig, Radix};
use pubkey::MulAlgo;
use secproc::flow::FlowBuilder;
use std::time::{Duration, Instant};
use xfault::{FaultPolicy, PlanSpec};
use xpar::Pool;
use xr32::config::CpuConfig;

#[test]
fn faulted_cosimulations_stop_at_their_first_kernel_error() {
    let cfg = CpuConfig::default();
    let pool = Pool::new(1);
    let opts = CharactOptions {
        train_samples: 12,
        validation_points: 5,
    };
    let models = FlowBuilder::new(&cfg)
        .pool(&pool)
        .build()
        .unwrap()
        .characterize(8, &opts);
    let faulted = FlowBuilder::new(&cfg)
        .pool(&pool)
        .fault_policy(FaultPolicy {
            cycle_budget: 1_000_000,
            ..FaultPolicy::with_plan(PlanSpec::all_sites(11, 2_000))
        })
        .build()
        .unwrap();

    // A corrupted limb reaching a Barrett reduction used to make its
    // final subtraction go negative (a panic with debug assertions).
    let barrett = ModExpConfig {
        mul: MulAlgo::Barrett,
        window: 4,
        crt: CrtMode::None,
        radix: Radix::R16,
        cache: CacheMode::Context,
    };
    assert_eq!(barrett.to_string(), "barrett/w4/no-crt/r16/ctxcache");
    let cycles = faulted.cosimulate(&models, &barrett, 64, 4.0).unwrap();
    assert!(cycles > 0.0);

    // Every runaway `div_qhat` call after the first error used to burn
    // the whole budget (36 s for this unit).
    let muldiv = ModExpConfig {
        mul: MulAlgo::MulDiv,
        window: 1,
        crt: CrtMode::None,
        radix: Radix::R32,
        cache: CacheMode::None,
    };
    assert_eq!(muldiv.to_string(), "muldiv/w1/no-crt/r32/nocache");
    let t = Instant::now();
    let cycles = faulted.cosimulate(&models, &muldiv, 64, 4.0).unwrap();
    let took = t.elapsed();
    assert!(cycles > 0.0);
    assert!(
        took < Duration::from_secs(1),
        "the faulted muldiv co-simulation took {took:?}"
    );
    assert!(
        !faulted.degradations().is_empty(),
        "the campaign failed some attempts"
    );
}
