//! End-to-end observability tests: cycle attribution over full RSA
//! co-simulations, traced cipher blocks, and the metered methodology
//! phases.

use std::cell::RefCell;
use std::rc::Rc;

use macromodel::charact::CharactOptions;
use mpint::Natural;
use pubkey::modexp::ExpCache;
use pubkey::rsa::KeyPair;
use pubkey::space::ModExpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secproc::issops::{IssMpn, KernelVariant};
use secproc::simcipher::{SimDes, Variant};
use secproc::FlowBuilder;
use xobs::trace::Shared;
use xobs::{Attribution, Json, Registry, Spans};
use xpar::Pool;
use xr32::config::CpuConfig;

fn folded_sum(attr: &Attribution) -> u64 {
    attr.folded()
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// The PR's acceptance criterion, at test-friendly modulus size (the
/// invariant is exact at any size; `xr32-trace record rsa` runs the
/// full 1024-bit version): an RSA-CRT decrypt co-simulation with an
/// attribution sink attached yields a folded-stack profile whose
/// inclusive root cycles equal the total simulated cycles exactly.
#[test]
fn rsa_crt_decrypt_attribution_covers_every_cycle() {
    let mut rng = StdRng::seed_from_u64(0x45A);
    let kp = KeyPair::generate(128, &mut rng);
    let msg = Natural::random_below(&mut rng, &kp.public.n);

    let mut iss = IssMpn::with_variant(
        CpuConfig::default(),
        KernelVariant::Accelerated {
            add_lanes: 16,
            mac_lanes: 4,
        },
    );
    iss.set_verify(false);
    let attr = Rc::new(RefCell::new(Attribution::new()));
    iss.set_trace_sink(Some(Box::new(Shared::new(attr.clone()))));

    // Montgomery + 5-bit windows + Garner CRT: the explored winner.
    let cfg = ModExpConfig::optimized();
    let mut cache = ExpCache::new();
    let ct = kp
        .public
        .encrypt_raw(&mut iss, &msg, &cfg, &mut cache)
        .expect("encrypt runs");
    let pt = kp
        .private
        .decrypt_raw(&mut iss, &ct, &cfg, &mut cache)
        .expect("decrypt runs");
    assert_eq!(pt, msg, "RSA-CRT roundtrip on the simulator");

    let (c32, c16) = iss.core_cycles();
    let total = c32 + c16;
    assert!(total > 0);
    let attr = attr.borrow();
    assert_eq!(attr.open_frames(), 0, "every kernel frame closed");
    assert_eq!(attr.unmatched_rets(), 0);
    assert_eq!(
        attr.total_cycles(),
        total,
        "inclusive root must equal total ISS cycles exactly"
    );
    assert_eq!(folded_sum(&attr), total, "folded stacks sum to the total");

    // The hot functions are the multi-precision kernels.
    let flat = attr.flat();
    assert!(
        flat.iter().any(|f| f.name.starts_with("mpn_")),
        "expected mpn_* kernels in the profile: {:?}",
        flat.iter().map(|f| &f.name).collect::<Vec<_>>()
    );
}

#[test]
fn traced_des_blocks_attribute_to_des_kernel() {
    let mut sim = SimDes::new(
        CpuConfig::default(),
        Variant::Base,
        0x1334_5779_9BBC_DFF1u64.to_be_bytes(),
    );
    let mut attr = Attribution::new();
    let (ct, c1) = sim.crypt_block_traced(0x0123_4567_89AB_CDEF, false, Some(&mut attr));
    let (pt, c2) = sim.crypt_block_traced(ct, true, Some(&mut attr));
    assert_eq!(ct, 0x85E8_1354_0F0A_B405);
    assert_eq!(pt, 0x0123_4567_89AB_CDEF);
    assert_eq!(attr.open_frames(), 0);
    assert_eq!(attr.total_cycles(), c1 + c2);
    let report = attr.hot_report(3);
    assert!(report.contains("des_block"), "hot report:\n{report}");
}

#[test]
fn metered_flow_publishes_phase_metrics() {
    let reg = Registry::new();
    let options = CharactOptions {
        train_samples: 12,
        validation_points: 5,
    };
    let config = CpuConfig::default();
    let ctx = FlowBuilder::new(&config).metrics(&reg).build().unwrap();
    let models = ctx.characterize(8, &options);
    let result = ctx.explore(&models, 128, 4.0).expect("space explores");
    assert_eq!(result.evaluated, 450);
    let sample = ctx
        .cosim_sample(&models, &ModExpConfig::optimized(), 128, 4.0)
        .expect("validation runs");
    assert_eq!(sample.config, ModExpConfig::optimized());
    // A fault-free run records no *resilience* degradations, but poor
    // regression fits surface as first-class `bad-fit` entries (an op
    // with a near-constant cycle profile fits worse than its mean at
    // small stimulus budgets).
    let degradations = ctx.degradations();
    assert!(
        degradations.iter().all(|d| d.action == "bad-fit"),
        "fault-free run degrades nothing beyond fit quality: {degradations:?}"
    );
    assert!(
        !degradations.is_empty(),
        "negative-r_squared fits must be reported, not buried in a gauge"
    );
    assert!(degradations.iter().all(|d| d.attempts == 0));

    let snap = reg.snapshot();
    // Phase 1: every registered kernel at every supported radix (8 mpn
    // ops × 2 radices + SHA-1 at radix 32), each fit over 12 + 5
    // stimuli.
    assert_eq!(snap.counter("flow.phase1.ops_characterized"), Some(17));
    assert_eq!(snap.counter("charact.stimuli_run"), Some(17 * 17));
    assert!(snap.counter("flow.phase1.iss_cycles").unwrap() > 0);
    assert!(snap.get("flow.phase1.mean_abs_error_pct").is_some());
    // Phase 2: the full 450-point lattice, with Pareto survivors.
    assert_eq!(snap.counter("flow.phase2.candidates_evaluated"), Some(450));
    assert!(snap.get("flow.phase2.best_cycles").is_some());
    assert!(snap.get("space.pareto_survivors").is_some());
    // Model-vs-ISS validation histogram saw one observation.
    assert!(snap.get("flow.model_error_pct").is_some());

    // The whole snapshot serializes into the report JSON layer.
    let json = snap.to_json().to_string_pretty();
    assert!(json.contains("flow.phase2.candidates_evaluated"));
}

/// The schema-5 span contract over a real flow: the root's inclusive
/// cycles equal the summed phase metrics (phase-1 ISS cycles plus the
/// co-simulated sample), the tree validates, and — after report
/// normalization strips wall stamps and per-worker spans — it is
/// byte-identical for 1 and 8 worker threads.
#[test]
fn span_tree_covers_phase_cycles_and_is_thread_invariant() {
    let options = CharactOptions {
        train_samples: 12,
        validation_points: 5,
    };
    let config = CpuConfig::default();
    let mut normalized = Vec::new();
    for threads in [1usize, 8] {
        let pool = Pool::new(threads);
        let reg = Registry::new();
        let spans = Spans::new();
        let ctx = FlowBuilder::new(&config)
            .pool(&pool)
            .metrics(&reg)
            .spans(&spans)
            .build()
            .unwrap();
        let root = spans.enter("flow");
        let models = ctx.characterize(8, &options);
        let result = ctx.explore(&models, 128, 4.0).expect("space explores");
        let best = result.best().config;
        let cosim = ctx
            .cosimulate(&models, &best, 128, 4.0)
            .expect("winner co-simulates");
        root.end();

        let roots = spans.to_json_roots();
        assert_eq!(roots.len(), 1, "one flow root");
        xobs::span::validate_span_json(&roots[0]).expect("well-formed tree");

        let phase1_iss = reg
            .snapshot()
            .counter("flow.phase1.iss_cycles")
            .expect("phase 1 metered") as f64;
        let children = roots[0].get("children").and_then(Json::as_arr).unwrap();
        let p1 = children
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("phase1.characterize"))
            .expect("phase-1 span present");
        assert_eq!(
            p1.get("cycles").and_then(Json::as_f64),
            Some(phase1_iss),
            "phase-1 span rollup equals the flow.phase1.iss_cycles counter"
        );
        assert_eq!(
            roots[0].get("cycles").and_then(Json::as_f64),
            Some(phase1_iss + cosim),
            "root inclusive cycles equal the summed phase metrics"
        );

        normalized.push(xobs::report::normalize(&Json::from(roots)).to_string_compact());
    }
    assert_eq!(
        normalized[0], normalized[1],
        "normalized span tree byte-identical across thread counts"
    );
}
