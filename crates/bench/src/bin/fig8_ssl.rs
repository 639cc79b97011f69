//! Regenerates **Fig. 8**: estimated speedups for SSL transactions of
//! 1 KB – 32 KB, with the workload breakdown between the public-key
//! algorithm, the symmetric algorithm and miscellaneous computations.
//!
//! Component costs are measured on the XR32 ISS: 3DES bulk cycles/byte
//! and SHA-1 MAC cycles/byte directly; the RSA-1024 handshake via
//! macro-model-metered execution (calibrated against co-simulation by
//! the §4.3 harness). With `--json`, stdout carries a single structured
//! run report instead of prose.

use bench::{Cli, Harness};
use kreg::KernelVariant;
use pubkey::modexp::ExpCache;
use pubkey::ops::MpnOps;
use pubkey::rsa::KeyPair;
use pubkey::space::ModExpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secproc::kcache;
use secproc::measure;
use secproc::simcipher::SimSha1;
use secproc::ssl::{self, SslCostModel};
use xobs::{Json, Registry, RunReport};
use xr32::config::CpuConfig;

fn main() {
    let cli = Cli::parse();
    let config = CpuConfig::default();
    let rsa_bits = cli.pos_usize(0, 1024);
    let harness = Harness::from_env();
    let ctx = harness.flow_ctx(&config);

    if !cli.json {
        println!("Fig. 8 — estimated speedups for SSL transactions (RSA-{rsa_bits} handshake)\n");
    }

    // Bulk and MAC costs from the ISS, served from the kernel-cycle
    // cache on re-runs.
    let tdes = measure::measure_tdes(&config, 6, harness.cache());
    let sha_cpb = harness.kcache.get_or_compute(
        &kcache::key(config.fingerprint(), "sim", "fig8:sha1", 6, 0),
        1,
        || vec![SimSha1::new(config.clone()).cycles_per_byte(6)],
    )[0];

    // Handshake: RSA private-key op, macro-model metered.
    let models =
        bench::default_models_on(rsa_bits.div_ceil(32).max(8), &harness.pool, harness.cache());
    let mut rng = StdRng::seed_from_u64(0x55E);
    let kp = KeyPair::generate(rsa_bits, &mut rng);
    let msg = mpint::Natural::random_below(&mut rng, &kp.public.n);
    let handshake = |cfg: &ModExpConfig| -> f64 {
        let mut ops = models.modeled_ops(4.0);
        let mut cache = ExpCache::new();
        let ct = kp
            .public
            .encrypt_raw(&mut ops, &msg, cfg, &mut cache)
            .expect("encrypt");
        MpnOps::<u32>::reset(&mut ops);
        kp.private
            .decrypt_raw(&mut ops, &ct, cfg, &mut cache)
            .expect("decrypt");
        MpnOps::<u32>::cycles(&ops)
    };
    let hs_base = handshake(&ModExpConfig::baseline());
    // Optimized handshake additionally benefits from the MAC/adder
    // datapaths; scale by the kernel-level gain measured for addmul.
    // The two measurements go through the context's resilient path: a
    // kernel/reference divergence is retried with reseeded stimuli,
    // falls back fault-free, and quarantines a repeat offender — in
    // which case the gain degrades to 1.0 (the macro-model handshake
    // estimate ships unscaled) and the event lands in the report's
    // `degradations` array. The cache is bypassed while injecting so a
    // campaign always exercises the kernels.
    let kernel_errors = std::cell::RefCell::new(Vec::<String>::new());
    let measure_addmul = |variant: KernelVariant| -> Option<f64> {
        match ctx.measure_kernel_cycles(variant, kreg::id::ADDMUL_1, 32, 3, 4) {
            Ok(cycles) => Some(cycles),
            Err(e) => {
                kernel_errors.borrow_mut().push(e.to_string());
                None
            }
        }
    };
    let accel_gain = {
        let measure_pair = || -> Option<Vec<f64>> {
            let bc = measure_addmul(KernelVariant::Base)?;
            let fc = measure_addmul(KernelVariant::Accelerated {
                add_lanes: 16,
                mac_lanes: 4,
            })?;
            Some(vec![bc, fc])
        };
        let pair = if ctx.policy().injecting() {
            measure_pair()
        } else {
            let key = kcache::key(config.fingerprint(), "iss", "fig8:addmul_gain", 32, 0x0304);
            harness
                .kcache
                .try_get_or_compute(&key, 2, || measure_pair().ok_or(()))
                .ok()
        };
        match pair {
            Some(pair) => pair[0] / pair[1],
            None => {
                ctx.note_degradation(secproc::Degradation::harness(
                    "fig8",
                    "fig8:addmul_gain",
                    kreg::id::ADDMUL_1.name(),
                    kernel_errors.borrow().last().cloned().unwrap_or_default(),
                    "fallback-unit-gain",
                ));
                1.0
            }
        }
    };
    let hs_opt = handshake(&ModExpConfig::optimized()) / accel_gain;

    let base = SslCostModel {
        handshake_cycles: hs_base,
        bulk_cycles_per_byte: tdes.base_cpb,
        misc_cycles_per_byte: sha_cpb,
        misc_fixed_cycles: 2.0e6,
    };
    let opt = SslCostModel {
        handshake_cycles: hs_opt,
        bulk_cycles_per_byte: tdes.opt_cpb,
        misc_cycles_per_byte: sha_cpb,
        misc_fixed_cycles: 2.0e6,
    };

    let sizes: Vec<u64> = (0..=10).map(|i| 1024u64 << i).collect();
    let series = ssl::speedup_series(&base, &opt, &sizes);

    if cli.json {
        let components = Json::obj()
            .set("handshake_base_cycles", hs_base)
            .set("handshake_opt_cycles", hs_opt)
            .set("tdes_base_cpb", tdes.base_cpb)
            .set("tdes_opt_cpb", tdes.opt_cpb)
            .set("sha1_cpb", sha_cpb);
        let metrics = Registry::new();
        harness.record_metrics(&metrics);
        let report = RunReport::new("fig8_ssl")
            .with_fingerprint(config.fingerprint())
            .result("rsa_bits", rsa_bits as u64)
            .result("components", components)
            .result("series", ssl::series_to_json(&series))
            .with_kernel_errors(kernel_errors.into_inner())
            .with_degradations(ctx.degradations_json())
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
        return;
    }
    let _ = harness.kcache.save();
    for e in kernel_errors.into_inner() {
        eprintln!("fig8_ssl: kernel error: {e}");
    }
    for d in ctx.degradations() {
        eprintln!("fig8_ssl: degraded: {}", d.to_json().to_string_compact());
    }

    println!("measured components:");
    println!(
        "  handshake (RSA): base {hs_base:.3e} -> opt {hs_opt:.3e} cycles ({:.1}X)",
        hs_base / hs_opt
    );
    println!(
        "  3DES bulk: base {:.1} -> opt {:.1} c/B ({:.1}X)",
        tdes.base_cpb,
        tdes.opt_cpb,
        tdes.speedup()
    );
    println!("  SHA-1 misc: {sha_cpb:.1} c/B (unaccelerated)\n");
    print!("{}", ssl::render_series(&series));

    println!(
        "\nPaper shape: ~21.8X for small (handshake-dominated) transactions,\n\
         declining toward ~3X for large (bulk/misc-dominated) ones. The paper\n\
         plots 1-32 KB; our handshake/bulk cycle ratio differs, so the same\n\
         crossover appears further out on the size axis."
    );
}
