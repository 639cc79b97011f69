//! Phase 2 costs each distinct exponentiation program once and shares
//! the estimate among a program's CRT siblings. These tests hold that
//! shortcut to a naive reference that runs every one of the 450
//! candidates twice and costs the second run.

use macromodel::charact::CharactOptions;
use mpint::Natural;
use pubkey::modexp::{mod_exp, ExpCache};
use pubkey::ops::MpnOps;
use pubkey::space::{CrtMode, ModExpConfig, ParetoFront};
use rand::rngs::StdRng;
use rand::SeedableRng;
use secproc::flow::{self, KernelModels};
use secproc::FlowBuilder;
use std::collections::BTreeMap;
use xobs::metrics::MetricValue;
use xobs::Registry;
use xr32::config::CpuConfig;

/// The fixed phase-2 workload (seed `0xE4B0`), drawn here independently
/// of the flow: `(modulus, base, exponent)`.
fn workload(bits: usize) -> (Natural, Natural, Natural) {
    let mut rng = StdRng::seed_from_u64(0xE4B0);
    let mut m = Natural::random_bits(&mut rng, bits);
    if m.is_even() {
        m = &m + &Natural::one();
    }
    let base = Natural::random_below(&mut rng, &m);
    let exp = Natural::random_bits(&mut rng, bits);
    (m, base, exp)
}

/// Every candidate in enumeration order with its estimate: two runs
/// sharing one cache, the second costed.
fn naive_reference(models: &KernelModels, bits: usize, glue_cost: f64) -> Vec<(ModExpConfig, f64)> {
    let (m, base, exp) = workload(bits);
    let expect = base.pow_mod(&exp, &m);
    ModExpConfig::enumerate()
        .into_iter()
        .map(|config| {
            let mut ops = models.modeled_ops(glue_cost);
            let mut cache = ExpCache::new();
            mod_exp(&mut ops, &base, &exp, &m, &config, &mut cache).unwrap();
            MpnOps::<u32>::reset(&mut ops);
            let r = mod_exp(&mut ops, &base, &exp, &m, &config, &mut cache).unwrap();
            assert_eq!(r, expect, "{config}");
            (config, MpnOps::<u32>::cycles(&ops))
        })
        .collect()
}

/// The `flow.phase2.*` and `space.*` metrics phase 2 publishes for the
/// reference estimates, minus the wall-clock gauge.
fn reference_metrics(reference: &[(ModExpConfig, f64)], bits: usize) -> Vec<(String, MetricValue)> {
    let reg = Registry::new();
    let evaluated = reg.counter("flow.phase2.candidates_evaluated");
    let hist = reg.histogram("flow.phase2.candidate_cycles");
    let mut front = ParetoFront::new();
    for &(config, cycles) in reference {
        evaluated.inc();
        hist.observe(cycles);
        front.offer(config, cycles, config.table_bytes(bits));
    }
    let best = reference
        .iter()
        .map(|&(_, c)| c)
        .min_by(f64::total_cmp)
        .unwrap();
    reg.gauge("flow.phase2.best_cycles").set(best);
    front.record_metrics(&reg);
    deterministic(&reg)
}

fn deterministic(reg: &Registry) -> Vec<(String, MetricValue)> {
    reg.snapshot()
        .entries
        .into_iter()
        .filter(|(name, _)| name != "flow.phase2.wall_ms")
        .collect()
}

fn models() -> KernelModels {
    let cfg = CpuConfig::default();
    FlowBuilder::new(&cfg).build().unwrap().characterize(
        8,
        &CharactOptions {
            train_samples: 12,
            validation_points: 5,
        },
    )
}

#[test]
fn exploration_matches_the_naive_reference() {
    let models = models();
    let cfg = CpuConfig::default();
    for bits in [64, 128] {
        for glue in [0.0, 4.0] {
            let reg = Registry::new();
            let ctx = FlowBuilder::new(&cfg).metrics(&reg).build().unwrap();
            let explored = ctx.explore(&models, bits, glue).unwrap();
            let mut reference = naive_reference(&models, bits, glue);
            assert_eq!(explored.evaluated, 450);

            assert_eq!(deterministic(&reg), reference_metrics(&reference, bits));
            assert_eq!(
                reg.snapshot().counter("flow.phase2.candidates_evaluated"),
                Some(450)
            );

            // Ranked fastest-first, ties in enumeration order.
            reference.sort_by(|a, b| a.1.total_cmp(&b.1));
            assert_eq!(explored.ranked.len(), reference.len());
            for (got, (config, cycles)) in explored.ranked.iter().zip(&reference) {
                assert_eq!(got.config, *config, "bits {bits} glue {glue}");
                assert_eq!(
                    got.cycles.to_bits(),
                    cycles.to_bits(),
                    "{config} at bits {bits} glue {glue}"
                );
            }
        }
    }
}

/// `mod_exp` never reads `crt`, so a candidate's three CRT siblings
/// must estimate bit-equal; a CRT-aware exponentiation breaks this
/// loudly instead of silently sharing one estimate.
#[test]
fn crt_siblings_estimate_bit_equal() {
    let models = models();
    for bits in [64, 128] {
        for glue in [0.0, 4.0] {
            let mut single = BTreeMap::new();
            for (config, cycles) in naive_reference(&models, bits, glue) {
                let est = flow::explore_single(&models, &config, bits, glue).unwrap();
                assert_eq!(est.to_bits(), cycles.to_bits(), "{config}");
                single.insert(config, est.to_bits());
            }
            for (config, est) in &single {
                let program = ModExpConfig {
                    crt: CrtMode::None,
                    ..*config
                };
                assert_eq!(
                    *est, single[&program],
                    "{config} vs {program} at bits {bits} glue {glue}"
                );
            }
        }
    }
}
