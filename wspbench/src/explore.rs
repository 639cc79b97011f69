//! `explore-cold` and `explore-warm`: the paper's §4.3 exploration job,
//! as a user submits it.
//!
//! An operation is one `JobSpec::explore` run on the benchmark's pool.
//! Cold runs start from an empty kernel-cycle cache, so phase-1
//! characterization, the co-simulated candidates and the cross-product
//! sweep all run on the ISS. Warm runs reuse the cache a set-up cold run
//! filled: every ISS unit is a cache hit, so the time left is phase-2
//! macro-model estimation on the pool plus cache lookups.
//!
//! A traced operation does not call `JobSpec::run`: it drives the same
//! `FlowCtx` phases in the same order itself, each inside a span, and
//! its results must equal the job's.

use crate::calib::Calibration;
use crate::{lattice, ms_since, Checks, Layers, Outcome, Params, POOL_THREADS};
use pubkey::space::ModExpConfig;
use secproc::flow;
use secproc::job::{JobEnv, JobSpec};
use secproc::kcache::KCache;
use std::time::Instant;
use xobs::report::normalize;
use xobs::{Json, Registry, Spans};
use xpar::Pool;
use xr32::config::CpuConfig;

/// Minimum share of a traced job's wall time its phase spans must
/// cover.
const RECONCILED: f64 = 0.95;

pub fn run(warm: bool, params: &Params) -> Outcome {
    let mut spec = JobSpec::explore(params.size.explore_bits, params.size.cosim_samples);
    spec.seed = params.seed;
    let pool = Pool::new(POOL_THREADS);
    let mut checks = Checks::default();
    let mut calib = Calibration::new();
    let mut setup_s = Vec::new();
    let mut set_up = None;
    for _ in 0..params.size.setup_reps {
        let t = Instant::now();
        let (lattice_doc, _) = lattice::self_check(params.size.lattice, params.seed, &mut checks);
        let cache = KCache::new();
        let filled = warm.then(|| job_results(&spec, &pool, &cache));
        setup_s.push(calib.set_up_s(t));
        set_up = Some((lattice_doc, cache, filled));
    }
    let (lattice_doc, cache, filled) = set_up.expect("at least one set-up");
    let mut reference = match filled {
        Some(Ok(results)) => Some(results),
        Some(Err(e)) => {
            checks.check(false, || format!("set-up cold job: {e}"));
            None
        }
        None => None,
    };

    let spans = Spans::new();
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let mut hit_rates = Vec::new();
    let (hits0, misses0) = (cache.hits(), cache.misses());
    let started = Instant::now();
    let mut ops = 0;
    while params.more(started, ops) {
        let traced = params.traced_op(ops);
        ops += 1;
        let fresh = KCache::new();
        let kc = if warm { &cache } else { &fresh };
        let t = Instant::now();
        let outcome = if traced {
            traced_job(&spec, &pool, kc, &spans).map(|(results, run)| {
                traced_runs.push(run);
                results
            })
        } else {
            job_results(&spec, &pool, kc)
        };
        let ms = ms_since(t);
        if !warm {
            hit_rates.push(fresh.hit_rate());
        }
        match outcome {
            Ok(results) => {
                let reference = reference.get_or_insert_with(|| results.clone());
                checks.check(&results == reference, || {
                    format!("operation {ops} results differ from the first run's")
                });
            }
            Err(e) => checks.check(false, || format!("operation {ops}: {e}")),
        }
        if traced {
            traced_ms.push(ms);
        } else {
            plain.push((ms, Instant::now()));
        }
        calib.keep_up(ms);
    }

    let roots = spans.to_json_roots();
    for root in &roots {
        let covered = 1.0 - crate::self_ms(root) / crate::span_wall_ms(root);
        checks.check(covered >= RECONCILED, || {
            format!(
                "traced phases cover {:.1}% of the job's wall time (< {:.0}%)",
                covered * 100.0,
                RECONCILED * 100.0
            )
        });
    }
    let metrics = if params.trace {
        let med = |f: &dyn Fn(&TracedRun) -> f64| {
            crate::stats::median(&traced_runs.iter().map(f).collect::<Vec<_>>())
        };
        let all = |f: &dyn Fn(&TracedRun) -> &[f64]| -> Vec<f64> {
            traced_runs.iter().flat_map(|r| f(r).to_vec()).collect()
        };
        let cosim_ms = all(&|r| &r.cosim_ms);
        let cosim_cycles: f64 = traced_runs.iter().map(|r| r.cosim_cycles).sum();
        // Only co-simulations that missed the cache time the ISS; a
        // warm one times a cache lookup.
        let cold_only = |v: f64| if warm { 0.0 } else { v };
        let layers = Layers {
            kcache_hit_rate: if warm {
                let hits = cache.hits() - hits0;
                hits as f64 / (hits + cache.misses() - misses0).max(1) as f64
            } else {
                crate::stats::median(&hit_rates)
            },
            flow_characterize_s: med(&|r| r.characterize_s),
            flow_explore_s: med(&|r| r.explore_s),
            flow_cosim_s: med(&|r| r.cosim_s),
            flow_cross_product_s: med(&|r| r.cross_product_s),
            flow_unaccounted_pct: crate::stats::median(
                &roots
                    .iter()
                    .map(|r| crate::self_ms(r) / crate::span_wall_ms(r) * 100.0)
                    .collect::<Vec<_>>(),
            ),
            flow_estimate_ms: crate::stats::median(&all(&|r| &r.estimate_ms)),
            flow_cosim_ms: cold_only(crate::stats::median(&cosim_ms)),
            flow_cosim_mcycles_per_s: cold_only(
                cosim_cycles / (cosim_ms.iter().sum::<f64>() / 1e3) / 1e6,
            ),
            flow_estimation_speedup: cold_only(crate::stats::median(&all(&|r| &r.speedups))),
            flow_model_error_pct: med(&|r| r.model_error_pct),
            ..Layers::default()
        };
        let plain_ms: Vec<f64> = plain.iter().map(|p| p.0).collect();
        let measured_s = plain_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
        crate::per_layer(
            params,
            &plain_ms,
            &traced_ms,
            ops as f64 / measured_s,
            &calib,
            &layers,
        )
    } else {
        crate::end_to_end(&setup_s, &crate::scaled_ms(&plain, &calib))
    };
    let name = if warm { "explore-warm" } else { "explore-cold" };
    Outcome {
        checks,
        metrics,
        results: Json::obj()
            .set("lattice", lattice_doc)
            .set("job", reference.unwrap_or(Json::Null)),
        trace: params
            .trace
            .then(|| crate::trace_report(name, params, &spans)),
    }
}

/// Runs the job through its public entry point and returns the
/// normalized `results` of its report.
fn job_results(spec: &JobSpec, pool: &Pool, cache: &KCache) -> Result<Json, String> {
    let env = JobEnv {
        cache: Some(cache),
        ..JobEnv::new(pool)
    };
    let report = spec.run(&env).map_err(|e| e.to_string())?;
    normalize(&report.to_json())
        .get("results")
        .cloned()
        .ok_or_else(|| "report has no results".to_owned())
}

/// Host timings of one traced job.
#[derive(Debug, Default)]
struct TracedRun {
    characterize_s: f64,
    explore_s: f64,
    cosim_s: f64,
    cross_product_s: f64,
    cosim_ms: Vec<f64>,
    estimate_ms: Vec<f64>,
    speedups: Vec<f64>,
    cosim_cycles: f64,
    model_error_pct: f64,
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The job's pipeline driven phase by phase, each phase in a span, in
/// the order `JobSpec::run` runs them. Returns the normalized results
/// (laid out as the job's report lays them out) and the timings.
fn traced_job(
    spec: &JobSpec,
    pool: &Pool,
    cache: &KCache,
    spans: &Spans,
) -> Result<(Json, TracedRun), String> {
    let metrics = Registry::new();
    let env = JobEnv {
        cache: Some(cache),
        metrics: Some(&metrics),
        spans: Some(spans),
        ..JobEnv::new(pool)
    };
    let (bits, glue) = (spec.bits, spec.glue_cost);
    let config = spec.config().map_err(|e| e.to_string())?;
    let ctx = spec.into_ctx(&config, &env).map_err(|e| e.to_string())?;
    let mut run = TracedRun::default();
    let job = spans.enter("job");

    let phase = spans.enter("characterize");
    let t = Instant::now();
    let models = ctx.characterize(spec.effective_limbs(), &spec.charact_options());
    run.characterize_s = secs(t);
    phase.end();

    let phase = spans.enter("explore");
    let t = Instant::now();
    let explored = ctx
        .explore(&models, bits, glue)
        .map_err(|e| e.to_string())?;
    run.explore_s = secs(t);
    phase.end();
    let baseline = explored
        .ranked
        .iter()
        .find(|c| c.config == ModExpConfig::baseline())
        .ok_or("baseline missing from the lattice")?;

    let phase = spans.enter("cosim");
    let t = Instant::now();
    let step = explored.ranked.len() / spec.cosim_samples.max(1);
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for i in 0..spec.cosim_samples {
        let cand = &explored.ranked[i * step];
        let span = spans.enter("cosimulate");
        let tc = Instant::now();
        let cosim = ctx
            .cosimulate(&models, &cand.config, bits, glue)
            .map_err(|e| e.to_string())?;
        let cosim_ms = ms_since(tc);
        span.end();
        let span = spans.enter("estimate");
        let te = Instant::now();
        flow::explore_single(&models, &cand.config, bits, glue).map_err(|e| e.to_string())?;
        let estimate_ms = ms_since(te);
        span.end();
        let err = ((cand.cycles - cosim) / cosim).abs() * 100.0;
        run.cosim_ms.push(cosim_ms);
        run.estimate_ms.push(estimate_ms);
        run.speedups.push(cosim_ms / estimate_ms);
        run.cosim_cycles += cosim;
        errors.push(err);
        // Laid out as the job's report lays out a sample; the speedup
        // is a volatile key that normalization removes.
        samples.push(
            Json::obj()
                .set("config", cand.config.to_string())
                .set("estimated_cycles", cand.cycles)
                .set("cosim_cycles", cosim)
                .set("error_pct", err)
                .set("estimation_speedup", cosim_ms / estimate_ms),
        );
    }
    run.cosim_s = secs(t);
    phase.end();
    run.model_error_pct = errors.iter().sum::<f64>() / errors.len() as f64;

    let phase = spans.enter("cross_product");
    let t = Instant::now();
    let ooo_config = CpuConfig::ooo();
    let ctx_ooo = spec
        .into_ctx(&ooo_config, &env)
        .map_err(|e| e.to_string())?;
    let n = spec.effective_limbs();
    let mut points = ctx.cross_product_axis(n);
    points.extend(ctx_ooo.cross_product_axis(n));
    let front_size = flow::mark_pareto_front(&mut points);
    run.cross_product_s = secs(t);
    phase.end();
    job.end();

    let best = explored.best();
    let results = Json::obj()
        .set("bits", bits as u64)
        .set("candidates_evaluated", explored.evaluated as u64)
        .set("best_config", best.config.to_string())
        .set("best_cycles", best.cycles)
        .set("baseline_cycles", baseline.cycles)
        .set("algorithmic_speedup", baseline.cycles / best.cycles)
        .set("cosim_samples", samples)
        .set("mean_abs_error_pct", run.model_error_pct)
        .set("mean_estimation_speedup", 0.0)
        .set(
            "cross_product",
            Json::obj()
                .set("n_limbs", n as u64)
                .set(
                    "points",
                    Json::Arr(points.iter().map(|p| p.to_json()).collect()),
                )
                .set("pareto_front_size", front_size as u64),
        );
    Ok((normalize(&results), run))
}
