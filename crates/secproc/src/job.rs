//! Serializable methodology jobs — the platform's single public entry
//! point for running the flow.
//!
//! A [`JobSpec`] names *what* to run (job kind, core configuration,
//! accelerator variant, kernel set, problem size, seed, fidelity and an
//! optional fault campaign) with no references to live resources, so it
//! can cross a process boundary as one line of JSON. A [`JobEnv`] names
//! *where* to run it (worker pool, kernel-cycle cache, optional
//! metrics/span sinks and a cancellation token). [`JobSpec::run`]
//! combines the two and returns a finished structured
//! [`xobs::RunReport`].
//!
//! Both front ends drive the same entry point: the `bench` command-line
//! binaries parse their arguments into a `JobSpec` and call `run`
//! directly, and the `xserve` daemon deserializes the same spec off its
//! socket and schedules `run` onto its shared pool. Because `run`
//! assembles the *entire* report (results, degradations, metrics,
//! spans, and the schema-8 `job` stanza), a daemon-run job's normalized
//! report is byte-identical to the CLI's for every deterministic field
//! — there is no second code path to drift.
//!
//! Specs serialize through [`JobSpec::to_json`] in a fixed canonical
//! key order; [`JobSpec::digest`] checksums that canonical form, giving
//! clients and the daemon a stable identity for deduplication and for
//! the report's `job.digest` field. Numeric fields ride JSON numbers
//! (IEEE doubles), so seeds are exact up to 2^53.

use std::time::Instant;

use kreg::{KernelError, KernelId, KernelVariant};
use macromodel::charact::CharactOptions;
use pubkey::space::ModExpConfig;
use xfault::{FaultPolicy, PlanSpec};
use xobs::span::Spans;
use xobs::{Json, Registry, RunReport};
use xpar::{CancelToken, Pool};
use xr32::config::CpuConfig;
use xr32::xcore::CoreSpec;
use xr32::Fidelity;

use crate::error::{codes, Error};
use crate::flow::{self, CosimSample, FlowBuilder, FlowCtx, KernelModels};
use crate::issops::IssMpn;
use crate::kcache::{self, KCache};

/// Which methodology pipeline a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Phase 1 only: fit kernel macro-models and report their quality.
    Characterize,
    /// The full §4.3 pipeline: characterize, explore the 450-candidate
    /// lattice, co-simulate a sample, sweep the (core × accelerator)
    /// cross-product. Reports under the name `sec43_exploration`.
    Explore,
    /// Phase 3: formulate the area-delay curves.
    Curves,
    /// Ad-hoc resilient kernel-cycle measurements over a kernel set.
    Measure,
    /// [`JobKind::Measure`] under a mandatory fault-injection campaign,
    /// reporting the quarantine outcome.
    FaultCampaign,
}

impl JobKind {
    /// The wire name of this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobKind::Characterize => "characterize",
            JobKind::Explore => "explore",
            JobKind::Curves => "curves",
            JobKind::Measure => "measure",
            JobKind::FaultCampaign => "fault_campaign",
        }
    }

    /// Parses a wire name back to the kind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`] for an unknown name.
    pub fn parse(name: &str) -> Result<JobKind, Error> {
        match name {
            "characterize" => Ok(JobKind::Characterize),
            "explore" => Ok(JobKind::Explore),
            "curves" => Ok(JobKind::Curves),
            "measure" => Ok(JobKind::Measure),
            "fault_campaign" => Ok(JobKind::FaultCampaign),
            other => Err(Error::JobSpec {
                detail: format!("unknown job kind {other:?}"),
            }),
        }
    }
}

/// A complete, serializable description of one methodology job.
///
/// Defaults (from [`JobSpec::new`]) reproduce the bench harnesses'
/// conventions: in-order core, base variant, 512-bit exponent, derived
/// limb count, six co-simulation samples, the standard characterization
/// options, seed 8, glue cost 4.0, cycle-accurate fidelity, no faults.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which pipeline to run.
    pub kind: JobKind,
    /// Core-configuration id (`"io"`, `"ooo-…"`; see
    /// [`CoreSpec::id`]).
    pub core: String,
    /// Accelerator-variant tag (`"base"`, `"accel-a4m2"`, …).
    pub variant: String,
    /// Kernel set for measurement kinds; empty means the whole mpn
    /// registry.
    pub kernels: Vec<KernelId>,
    /// Modular-exponentiation operand width in bits (exploration), 1
    /// to 4096.
    pub bits: usize,
    /// Limb count for characterization/curves/measurement; `0` derives
    /// `(bits / 32).max(8)` like the bench binaries. The effective
    /// count is 1 to 1024, or to 2^20 for measure and fault-campaign
    /// jobs.
    pub limbs: usize,
    /// Candidates re-evaluated by full ISS co-simulation, 1 to 450 (the
    /// whole lattice).
    pub cosim_samples: usize,
    /// Characterization stimuli per measurement unit, 4 to 1024.
    pub train_samples: usize,
    /// Characterization held-out validation points, 1 to 1024.
    pub validation_points: usize,
    /// Stimulus seed for measurement kinds.
    pub seed: u64,
    /// Software glue cost per modeled call (cycles).
    pub glue_cost: f64,
    /// Simulation fidelity, part of the wire format and the digest.
    /// Every job measures cycles on the cycle-accurate engine, so it is
    /// read only to reject `Fast` with a fault campaign (see
    /// [`JobSpec::into_ctx`]).
    pub fidelity: Fidelity,
    /// Optional fault-injection campaign.
    pub faults: Option<PlanSpec>,
}

impl JobSpec {
    /// A job of `kind` with the bench harnesses' default knobs.
    pub fn new(kind: JobKind) -> Self {
        JobSpec {
            kind,
            core: CoreSpec::InOrder.id(),
            variant: KernelVariant::Base.tag(),
            kernels: Vec::new(),
            bits: 512,
            limbs: 0,
            cosim_samples: 6,
            train_samples: 24,
            validation_points: 8,
            seed: 8,
            glue_cost: 4.0,
            fidelity: Fidelity::CycleAccurate,
            faults: None,
        }
    }

    /// The §4.3 exploration job the `sec43_exploration` binary runs.
    pub fn explore(bits: usize, cosim_samples: usize) -> Self {
        JobSpec {
            bits,
            cosim_samples,
            ..JobSpec::new(JobKind::Explore)
        }
    }

    /// The effective limb count: the explicit `limbs`, or the bench
    /// binaries' `(bits / 32).max(8)` rule when left at `0`.
    pub fn effective_limbs(&self) -> usize {
        if self.limbs != 0 {
            self.limbs
        } else {
            (self.bits / 32).max(8)
        }
    }

    /// The characterization options this spec encodes.
    pub fn charact_options(&self) -> CharactOptions {
        CharactOptions {
            train_samples: self.train_samples,
            validation_points: self.validation_points,
        }
    }

    /// The fault policy this spec encodes: the default resilience
    /// policy, with the campaign attached when one is specified.
    pub fn policy(&self) -> FaultPolicy {
        match self.faults {
            Some(plan) => FaultPolicy::with_plan(plan),
            None => FaultPolicy::default(),
        }
    }

    /// Builds the [`CpuConfig`] this spec's core id names.
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`] for an unparseable core id.
    pub fn config(&self) -> Result<CpuConfig, Error> {
        let core = CoreSpec::parse(&self.core).ok_or_else(|| Error::JobSpec {
            detail: format!("unknown core id {:?}", self.core),
        })?;
        Ok(CpuConfig {
            core,
            ..CpuConfig::default()
        })
    }

    /// Resolves this spec's accelerator-variant tag.
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`] for an unparseable tag.
    pub fn kernel_variant(&self) -> Result<KernelVariant, Error> {
        KernelVariant::parse_tag(&self.variant).ok_or_else(|| Error::JobSpec {
            detail: format!("unknown variant tag {:?}", self.variant),
        })
    }

    /// Builds the flow context this spec describes over live resources
    /// — the one construction path both front ends share.
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`] for unresolvable ids and
    /// [`Error::Conflict`] (code [`codes::FLOW_CONFLICT`]) when `Fast`
    /// fidelity is combined with a fault campaign: the campaign's
    /// retries, fault-free fallbacks and quarantine act on cycle
    /// measurements, which never run on the fast path, so the spec asks
    /// for something no job does. Clients see this rule as code 5001,
    /// so it is part of the wire contract.
    pub fn into_ctx<'a>(
        &self,
        config: &'a CpuConfig,
        env: &JobEnv<'a>,
    ) -> Result<FlowCtx<'a>, Error> {
        if self.fidelity == Fidelity::Fast && self.faults.is_some() {
            return Err(Error::Conflict {
                detail: "Fast fidelity cannot host a fault campaign: the campaign's retries, \
                         fallbacks and quarantine act on cycle measurements, which never run on \
                         the fast path"
                    .to_owned(),
            });
        }
        let mut b = FlowBuilder::new(config)
            .variant(self.kernel_variant()?)
            .pool(env.pool)
            .fault_policy(self.policy());
        if let Some(kc) = env.cache {
            b = b.cache(kc);
        }
        if let Some(reg) = env.metrics {
            b = b.metrics(reg);
        }
        if let Some(sp) = env.spans {
            b = b.spans(sp);
        }
        b.build()
    }

    /// The canonical JSON form of this spec (fixed key order; the
    /// [`digest`](JobSpec::digest) input and the wire format).
    pub fn to_json(&self) -> Json {
        let mut spec = Json::obj()
            .set("kind", self.kind.as_str())
            .set("core", self.core.as_str())
            .set("variant", self.variant.as_str())
            .set(
                "kernels",
                Json::Arr(self.kernels.iter().map(|k| Json::from(k.name())).collect()),
            )
            .set("bits", self.bits as u64)
            .set("limbs", self.limbs as u64)
            .set("cosim_samples", self.cosim_samples as u64)
            .set("train_samples", self.train_samples as u64)
            .set("validation_points", self.validation_points as u64)
            // Decimal string: seeds use the full u64 range, which JSON
            // numbers (f64 here and in most peers) cannot carry exactly.
            .set("seed", self.seed.to_string())
            .set("glue_cost", self.glue_cost)
            .set(
                "fidelity",
                match self.fidelity {
                    Fidelity::CycleAccurate => "accurate",
                    Fidelity::Fast => "fast",
                },
            );
        if let Some(plan) = &self.faults {
            spec = spec.set("faults", plan.to_string());
        }
        spec
    }

    /// Parses a spec from its JSON object form. Missing fields take the
    /// [`JobSpec::new`] defaults, so wire requests can be terse
    /// (`{"kind":"explore","bits":128}`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`] (code 5002) for a non-object, an
    /// unknown kind, a malformed kernel list, seed, fidelity or fault
    /// spec, a non-finite glue cost, a count that is not a whole number
    /// in its field's range, or an unresolvable core id (a zero or
    /// oversized width included) or variant tag, and the kernel layer's
    /// [`KernelError::Unknown`] (code 1001) for an unregistered kernel
    /// name.
    pub fn from_json(v: &Json) -> Result<JobSpec, Error> {
        let bad = |detail: String| Error::JobSpec { detail };
        let Json::Obj(_) = v else {
            return Err(bad("spec must be a JSON object".into()));
        };
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some(name) => JobKind::parse(name)?,
            None => return Err(bad("missing job kind".into())),
        };
        let mut spec = JobSpec::new(kind);
        if let Some(core) = v.get("core").and_then(Json::as_str) {
            spec.core = core.to_owned();
        }
        if let Some(tag) = v.get("variant").and_then(Json::as_str) {
            spec.variant = tag.to_owned();
        }
        if let Some(Json::Arr(names)) = v.get("kernels") {
            spec.kernels = names
                .iter()
                .map(|n| {
                    let name = n
                        .as_str()
                        .ok_or_else(|| bad("kernel names must be strings".into()))?;
                    KernelId::parse(name).map_err(Error::from)
                })
                .collect::<Result<_, _>>()?;
        }
        let count = |name: &str, into: &mut usize| {
            if let Some(value) = v.get(name) {
                let x = value.as_f64().unwrap_or(f64::NAN);
                if !(x >= 0.0 && x.fract() == 0.0) {
                    let text = value.to_string_compact();
                    return Err(bad(format!("{name} {text} is not a whole number")));
                }
                // Saturates past `usize::MAX`, which no range holds.
                *into = x as usize;
            }
            Ok(())
        };
        count("bits", &mut spec.bits)?;
        count("limbs", &mut spec.limbs)?;
        count("cosim_samples", &mut spec.cosim_samples)?;
        count("train_samples", &mut spec.train_samples)?;
        count("validation_points", &mut spec.validation_points)?;
        match v.get("seed") {
            None => {}
            Some(Json::Str(text)) => {
                spec.seed = text
                    .parse()
                    .map_err(|_| bad(format!("seed {text:?} is not a u64")))?;
            }
            // Numeric seeds are accepted for terse hand-written specs
            // (exact only below 2^53).
            Some(Json::Num(x)) => spec.seed = *x as u64,
            Some(_) => return Err(bad("seed must be a u64 string or number".into())),
        }
        if let Some(x) = v.get("glue_cost").and_then(Json::as_f64) {
            // JSON text carries no NaN or infinity; a built value could,
            // and would print as `null`.
            if !x.is_finite() {
                return Err(bad(format!("glue_cost {x} is not finite")));
            }
            spec.glue_cost = x;
        }
        match v.get("fidelity").and_then(Json::as_str) {
            None | Some("accurate") => {}
            Some("fast") => spec.fidelity = Fidelity::Fast,
            Some(other) => return Err(bad(format!("unknown fidelity {other:?}"))),
        }
        if let Some(f) = v.get("faults") {
            if !matches!(f, Json::Null) {
                let text = f
                    .as_str()
                    .ok_or_else(|| bad("faults must be a plan-spec string".into()))?;
                spec.faults = Some(PlanSpec::parse(text).map_err(|e| bad(format!("faults: {e}")))?);
            }
        }
        // Validate the counts and resolvable ids eagerly so a bad spec
        // fails at parse time, not mid-run.
        spec.check_counts()?;
        spec.config()?;
        spec.kernel_variant()?;
        Ok(spec)
    }

    /// Checks each count field against its range (see the field docs).
    /// The caps bound the work one job can do. Past the kernel operand
    /// regions a measure job's limb count is the kernel layer's typed
    /// error, but the model-building kinds would fail inside the flow,
    /// so their cap is lower.
    fn check_counts(&self) -> Result<(), Error> {
        let max_limbs = match self.kind {
            JobKind::Measure | JobKind::FaultCampaign => 1 << 20,
            _ => 1024,
        };
        for (name, value, range) in [
            ("bits", self.bits, 1..=4096),
            ("limbs", self.effective_limbs(), 1..=max_limbs),
            (
                "cosim_samples",
                self.cosim_samples,
                1..=ModExpConfig::enumerate().len(),
            ),
            ("train_samples", self.train_samples, 4..=1024),
            ("validation_points", self.validation_points, 1..=1024),
        ] {
            if !range.contains(&value) {
                return Err(Error::JobSpec {
                    detail: format!(
                        "{name} {value} is outside {}..={}",
                        range.start(),
                        range.end()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`] for malformed JSON or a malformed
    /// spec (see [`JobSpec::from_json`]).
    pub fn parse(text: &str) -> Result<JobSpec, Error> {
        let v = xobs::json::parse(text).map_err(|e| Error::JobSpec {
            detail: format!("malformed JSON: {e}"),
        })?;
        JobSpec::from_json(&v)
    }

    /// A stable identity checksum over the canonical JSON form.
    pub fn digest(&self) -> u64 {
        xpar::memo::checksum(&self.to_json().to_string_compact(), &[])
    }

    /// The schema-8 `job` stanza stamped into every report this spec
    /// produces: kind, digest, and the canonical spec itself — only
    /// spec-derived fields, so CLI and daemon runs emit identical
    /// bytes.
    pub fn job_json(&self) -> Json {
        Json::obj()
            .set("kind", self.kind.as_str())
            .set("digest", format!("{:016x}", self.digest()))
            .set("spec", self.to_json())
    }

    /// Runs the job to completion and returns the finished report,
    /// with results, degradations, metrics, span tree, the wall-clock
    /// fields and the `job` stanza all stamped — callers only emit or
    /// transmit it.
    ///
    /// When `env` carries no metrics registry or span sink, fresh local
    /// ones are used, so the report shape does not depend on the
    /// caller. Cancellation is polled at phase boundaries (and per
    /// co-simulation sample / per kernel); a fired token surfaces as
    /// [`Error::Protocol`] with code
    /// [`codes::PROTO_CANCELLED`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::JobSpec`]/[`Error::Conflict`] for an
    /// unbuildable spec (a count outside its range, or a
    /// characterization whose stimuli cannot determine a fit, included),
    /// the underlying typed error for genuine (fault-free) failures,
    /// and the cancellation protocol error above.
    pub fn run(&self, env: &JobEnv<'_>) -> Result<RunReport, Error> {
        let t0 = Instant::now();
        self.check_counts()?;
        let local_spans;
        let spans = match env.spans {
            Some(sp) => sp,
            None => {
                local_spans = Spans::new();
                &local_spans
            }
        };
        let local_metrics;
        let metrics = match env.metrics {
            Some(reg) => reg,
            None => {
                local_metrics = Registry::new();
                &local_metrics
            }
        };
        let env = JobEnv {
            metrics: Some(metrics),
            spans: Some(spans),
            ..*env
        };
        let report = match self.kind {
            JobKind::Characterize => self.run_characterize(&env, spans)?,
            JobKind::Explore => self.run_explore(&env, spans)?,
            JobKind::Curves => self.run_curves(&env, spans)?,
            JobKind::Measure | JobKind::FaultCampaign => self.run_measure(&env, spans)?,
        };
        record_env_metrics(&env, metrics);
        let report = report
            .with_job(self.job_json())
            .with_metrics(metrics.snapshot());
        let report = if spans.is_empty() {
            report
        } else {
            report.with_spans(spans.to_json_roots())
        };
        Ok(report
            .with_wall_ms(t0.elapsed().as_secs_f64() * 1e3)
            .with_threads(env.pool.threads())
            .with_memo_hit_rate(env.cache.map_or(0.0, |kc| kc.hit_rate())))
    }

    /// Phase 1 only: fit the kernel macro-models.
    fn run_characterize(&self, env: &JobEnv<'_>, spans: &Spans) -> Result<RunReport, Error> {
        let config = self.config()?;
        let ctx = self.into_ctx(&config, env)?;
        let flow_span = spans.enter("flow");
        check_cancel(env)?;
        let limbs = self.effective_limbs();
        let models = self.characterize(&ctx)?;
        flow_span.end();
        Ok(RunReport::new("job_characterize")
            .with_fingerprint(config.fingerprint())
            .result("max_limbs", limbs as u64)
            .result("ops_characterized", models.quality.len() as u64)
            .result("mean_abs_error_pct", models.mean_abs_error_pct())
            .with_core_configs([core_config_json(&config)])
            .with_degradations(ctx.degradations_json()))
    }

    /// The full §4.3 pipeline, field-for-field what the
    /// `sec43_exploration` binary historically computed (same report
    /// name, so envelope diffs line up across the reimplementation).
    fn run_explore(&self, env: &JobEnv<'_>, spans: &Spans) -> Result<RunReport, Error> {
        let bits = self.bits;
        let config = self.config()?;
        let ctx = self.into_ctx(&config, env)?;
        let flow_span = spans.enter("flow");
        check_cancel(env)?;
        let models = self.characterize(&ctx)?;
        check_cancel(env)?;
        let result = ctx
            .explore(&models, bits, self.glue_cost)
            .map_err(Error::from)?;
        let baseline = result
            .ranked
            .iter()
            .find(|c| c.config == ModExpConfig::baseline())
            .ok_or_else(|| Error::flow("baseline missing from the lattice"))?;

        let step = result.ranked.len() / self.cosim_samples.max(1);
        let mut samples = Vec::new();
        for i in 0..self.cosim_samples {
            check_cancel(env)?;
            let cand = &result.ranked[i * step].config;
            samples.push(ctx.cosim_sample(&models, cand, bits, self.glue_cost)?);
        }
        let mean =
            |f: fn(&CosimSample) -> f64| samples.iter().map(f).sum::<f64>() / samples.len() as f64;
        let mae = mean(|s| s.error_pct);
        let mean_speedup = mean(|s| s.estimation_speedup);
        let rendered: Vec<Json> = samples
            .iter()
            .map(|s| {
                Json::obj()
                    .set("config", s.config.to_string())
                    .set("estimated_cycles", s.estimated_cycles)
                    .set("cosim_cycles", s.cosim_cycles)
                    .set("error_pct", s.error_pct)
                    .set("estimation_speedup", s.estimation_speedup)
            })
            .collect();

        check_cancel(env)?;
        let ooo_config = CpuConfig::ooo();
        let ctx_ooo = self.into_ctx(&ooo_config, env)?;
        let xprod_n = self.effective_limbs();
        let mut points = ctx.cross_product_axis(xprod_n);
        points.extend(ctx_ooo.cross_product_axis(xprod_n));
        let front_size = flow::mark_pareto_front(&mut points);
        flow_span.end();

        Ok(RunReport::new("sec43_exploration")
            .with_fingerprint(config.fingerprint())
            .result("bits", bits as u64)
            .result("candidates_evaluated", result.evaluated as u64)
            .result("best_config", result.best().config.to_string())
            .result("best_cycles", result.best().cycles)
            .result("baseline_cycles", baseline.cycles)
            .result(
                "algorithmic_speedup",
                baseline.cycles / result.best().cycles,
            )
            .result("cosim_samples", rendered)
            .result("mean_abs_error_pct", mae)
            .result("mean_estimation_speedup", mean_speedup)
            .result(
                "cross_product",
                Json::obj()
                    .set("n_limbs", xprod_n as u64)
                    .set(
                        "points",
                        Json::Arr(points.iter().map(|p| p.to_json()).collect()),
                    )
                    .set("pareto_front_size", front_size as u64),
            )
            .with_core_configs([core_config_json(&config), core_config_json(&ooo_config)])
            .with_degradations(ctx.degradations_json()))
    }

    /// Phase 1 at the spec's limb count, or [`Error::JobSpec`] when a
    /// unit's training stimuli cannot determine its fit (too few limb
    /// counts to draw two operand sizes from).
    fn characterize(&self, ctx: &FlowCtx<'_>) -> Result<KernelModels, Error> {
        let (limbs, options) = (self.effective_limbs(), self.charact_options());
        if let Some(unit) = flow::undetermined_unit(limbs, &options) {
            return Err(Error::JobSpec {
                detail: format!(
                    "{} training stimuli at {limbs} limbs draw one operand size for {unit}",
                    self.train_samples
                ),
            });
        }
        Ok(ctx.characterize(limbs, &options))
    }

    /// Phase 3: formulate the area-delay curves.
    fn run_curves(&self, env: &JobEnv<'_>, spans: &Spans) -> Result<RunReport, Error> {
        let config = self.config()?;
        let ctx = self.into_ctx(&config, env)?;
        let flow_span = spans.enter("flow");
        check_cancel(env)?;
        let n = self.effective_limbs();
        let curves = ctx.curves(n);
        flow_span.end();
        let mut rendered = Json::obj();
        for (op, curve) in &curves {
            rendered = rendered.set(
                op.as_str(),
                Json::Arr(
                    curve
                        .points()
                        .iter()
                        .map(|p| Json::obj().set("area", p.area()).set("cycles", p.cycles))
                        .collect(),
                ),
            );
        }
        Ok(RunReport::new("job_curves")
            .with_fingerprint(config.fingerprint())
            .result("n_limbs", n as u64)
            .result("ops", curves.len() as u64)
            .result("curves", rendered)
            .with_core_configs([core_config_json(&config)])
            .with_degradations(ctx.degradations_json()))
    }

    /// Resilient ad-hoc kernel measurements; doubles as the fault
    /// campaign when a plan is attached.
    fn run_measure(&self, env: &JobEnv<'_>, spans: &Spans) -> Result<RunReport, Error> {
        if self.kind == JobKind::FaultCampaign && self.faults.is_none() {
            return Err(Error::JobSpec {
                detail: "fault_campaign requires a faults plan".into(),
            });
        }
        let config = self.config()?;
        let variant = self.kernel_variant()?;
        let ctx = self.into_ctx(&config, env)?;
        let flow_span = spans.enter("flow");
        let kernels: Vec<KernelId> = if self.kernels.is_empty() {
            kreg::id::MPN.to_vec()
        } else {
            self.kernels.clone()
        };
        let n = self.effective_limbs();
        let mut cycles = Json::obj();
        for kernel in &kernels {
            check_cancel(env)?;
            match ctx.measure_kernel_cycles(variant, *kernel, n, 7, self.seed) {
                Ok(c) => cycles = cycles.set(kernel.name(), c),
                // Quarantined kernels degrade to a null measurement (the
                // degradations list carries the detail); anything else
                // failing fault-free is a genuine defect.
                Err(KernelError::Quarantined { .. }) => {
                    cycles = cycles.set(kernel.name(), Json::Null);
                }
                Err(e) => return Err(e.into()),
            }
        }
        flow_span.end();
        let name = match self.kind {
            JobKind::FaultCampaign => "job_fault_campaign",
            _ => "job_measure",
        };
        let mut report = RunReport::new(name)
            .with_fingerprint(config.fingerprint())
            .result("n_limbs", n as u64)
            .result("seed", self.seed)
            .result("kernels", kernels.len() as u64)
            .result("cycles", cycles);
        if let Some(plan) = &self.faults {
            report = report.result("fault_plan", plan.to_string()).result(
                "quarantined",
                Json::Arr(ctx.quarantined().into_iter().map(Json::from).collect()),
            );
        }
        Ok(report
            .with_core_configs([core_config_json(&config)])
            .with_degradations(ctx.degradations_json()))
    }
}

/// The live resources a job runs against. Everything is borrowed: the
/// caller (a bench binary's harness or the daemon's scheduler) owns the
/// pool and cache and may share them across many jobs.
#[derive(Clone, Copy)]
pub struct JobEnv<'a> {
    /// The worker pool to schedule measurement units onto.
    pub pool: &'a Pool,
    /// The persistent kernel-cycle cache, if warm starts are wanted.
    pub cache: Option<&'a KCache>,
    /// Metrics sink; [`JobSpec::run`] supplies a fresh one when absent.
    pub metrics: Option<&'a Registry>,
    /// Span sink; [`JobSpec::run`] supplies a fresh one when absent.
    pub spans: Option<&'a Spans>,
    /// Cooperative cancellation, polled at phase boundaries.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> JobEnv<'a> {
    /// An environment with just a pool (no cache, sinks or
    /// cancellation).
    pub fn new(pool: &'a Pool) -> Self {
        JobEnv {
            pool,
            cache: None,
            metrics: None,
            spans: None,
            cancel: None,
        }
    }
}

/// Surfaces a fired cancellation token as the typed protocol error.
fn check_cancel(env: &JobEnv<'_>) -> Result<(), Error> {
    match env.cancel {
        Some(token) if token.is_cancelled() => Err(Error::Protocol {
            code: codes::PROTO_CANCELLED,
            detail: "job cancelled".into(),
        }),
        _ => Ok(()),
    }
}

/// The schema-7 `core_configs` entry for one configuration.
fn core_config_json(config: &CpuConfig) -> Json {
    Json::obj()
        .set("id", config.core_id())
        .set("core_area", config.core.area_gates())
}

/// Publishes the environment's parallel-execution metrics exactly as
/// the bench harness does (`xpar.*` worker stats, `kcache.*` traffic).
fn record_env_metrics(env: &JobEnv<'_>, reg: &Registry) {
    reg.gauge("xpar.threads").set(env.pool.threads() as f64);
    reg.gauge("xpar.utilization").set(env.pool.utilization());
    let (hits, misses, hit_rate, entries) = match env.cache {
        Some(kc) => (kc.hits(), kc.misses(), kc.hit_rate(), kc.len()),
        None => (0, 0, 0.0, 0),
    };
    reg.counter("kcache.hits").add(hits);
    reg.counter("kcache.misses").add(misses);
    reg.gauge("kcache.hit_rate").set(hit_rate);
    reg.gauge("kcache.entries").set(entries as f64);
}

/// One cached, fault-free kernel-cycle measurement — the daemon's
/// query-path primitive. The first query for a `(config, variant,
/// kernel, n, seed)` point pays one ISS run; every later query is a
/// shard-locked cache hit. Keys live in the `query:` unit namespace so
/// they can never collide with the flow's own cache entries.
///
/// # Errors
///
/// Returns the kernel layer's typed error on measurement failure.
pub fn cached_kernel_cycles(
    config: &CpuConfig,
    variant: KernelVariant,
    kernel: KernelId,
    n: usize,
    seed: u64,
    cache: Option<&KCache>,
) -> Result<f64, Error> {
    let measure = || -> Result<f64, KernelError> {
        let mut iss = IssMpn::with_variant(config.clone(), variant);
        iss.set_verify(false);
        let _ = iss.warm_up(|iss| iss.measure32(kernel, n, 7));
        iss.measure32(kernel, n, seed)
    };
    match cache {
        Some(kc) => {
            let key = kcache::key(
                config.fingerprint(),
                &variant.tag(),
                &format!("query:{}@{}", kernel.name(), config.core_id()),
                n as u64,
                seed,
            );
            Ok(kc.try_get_or_compute(&key, 1, || measure().map(|c| vec![c]))?[0])
        }
        None => measure().map_err(Error::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_round_trip_through_canonical_json() {
        let mut spec = JobSpec::explore(128, 2);
        spec.kernels = vec![kreg::id::ADD_N, kreg::id::SHA1];
        spec.faults = Some(PlanSpec::all_sites(7, 20_000));
        let text = spec.to_json().to_string_compact();
        let back = JobSpec::parse(&text).expect("round-trips");
        assert_eq!(back, spec);
        assert_eq!(back.digest(), spec.digest());
    }

    #[test]
    fn terse_specs_take_harness_defaults() {
        let spec = JobSpec::parse(r#"{"kind":"explore","bits":128}"#).expect("parses");
        assert_eq!(spec.bits, 128);
        assert_eq!(spec.cosim_samples, 6);
        assert_eq!(spec.core, "io");
        assert_eq!(spec.effective_limbs(), 8);
        assert_eq!(spec.fidelity, Fidelity::CycleAccurate);
        assert!(spec.faults.is_none());
    }

    #[test]
    fn malformed_specs_fail_with_the_job_spec_code() {
        for text in [
            "not json",
            r#"{"bits":128}"#,
            r#"{"kind":"frobnicate"}"#,
            r#"{"kind":"explore","core":"xeon"}"#,
            r#"{"kind":"explore","variant":"accel-zz"}"#,
            r#"{"kind":"explore","kernels":["mpn_nope"]}"#,
            r#"{"kind":"explore","fidelity":"psychic"}"#,
            r#"{"kind":"explore","faults":"rate=banana"}"#,
        ] {
            let err = JobSpec::parse(text).expect_err(text);
            assert!(
                err.code() == codes::JOB_SPEC || err.code() == codes::KERNEL_UNKNOWN,
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn fault_campaign_requires_a_plan() {
        let spec = JobSpec::new(JobKind::FaultCampaign);
        let pool = Pool::new(1);
        let err = spec.run(&JobEnv::new(&pool)).expect_err("rejected");
        assert_eq!(err.code(), codes::JOB_SPEC);
    }

    #[test]
    fn digests_differ_across_specs_and_survive_reparse() {
        let a = JobSpec::explore(128, 2);
        let b = JobSpec::explore(256, 2);
        assert_ne!(a.digest(), b.digest());
        let c = JobSpec::parse(&a.to_json().to_string_compact()).unwrap();
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn cancelled_jobs_surface_the_protocol_code() {
        let spec = JobSpec::explore(64, 1);
        let pool = Pool::new(1);
        let token = CancelToken::new();
        token.cancel();
        let env = JobEnv {
            cancel: Some(&token),
            ..JobEnv::new(&pool)
        };
        let err = spec.run(&env).expect_err("cancelled before phase 1");
        assert_eq!(err.code(), codes::PROTO_CANCELLED);
    }

    #[test]
    fn fast_fidelity_is_rejected_under_fault_injection() {
        let pool = Pool::new(1);
        let env = JobEnv::new(&pool);
        let spec = |extra: &str| {
            JobSpec::parse(&format!(
                r#"{{"kind":"measure","kernels":["mpn_add_n"],"limbs":4{extra}}}"#
            ))
            .expect("parses")
        };
        let both = spec(r#","fidelity":"fast","faults":"seed=7,rate=200""#);
        let err = both
            .run(&env)
            .expect_err("conflicting spec must be rejected");
        assert_eq!(err.code(), codes::FLOW_CONFLICT);
        assert!(err.to_string().contains("Fast fidelity"), "{err}");
        // Either field alone is fine.
        for extra in [r#","fidelity":"fast""#, r#","faults":"seed=7,rate=200""#] {
            let one = spec(extra);
            assert!(one.run(&env).is_ok(), "{extra}");
        }
    }

    #[test]
    fn cached_queries_hit_after_one_compute() {
        let config = CpuConfig::default();
        let kc = KCache::new();
        let first = cached_kernel_cycles(
            &config,
            KernelVariant::Base,
            kreg::id::ADD_N,
            8,
            8,
            Some(&kc),
        )
        .expect("measures");
        let misses = kc.misses();
        let second = cached_kernel_cycles(
            &config,
            KernelVariant::Base,
            kreg::id::ADD_N,
            8,
            8,
            Some(&kc),
        )
        .expect("cached");
        assert_eq!(first, second);
        assert_eq!(kc.misses(), misses, "second query is a pure hit");
        assert!(kc.hits() > 0);
    }

    #[test]
    fn unsupported_lane_counts_are_spec_errors() {
        let text = r#"{"kind":"measure","variant":"accel-a3m1"}"#;
        let err = JobSpec::parse(text).expect_err("unsupported lanes");
        assert_eq!(err.code(), codes::JOB_SPEC, "{err}");
        let mut spec = JobSpec::new(JobKind::Measure);
        spec.variant = "accel-a3m1".into();
        spec.kernels = vec![kreg::id::ADD_N];
        let pool = Pool::new(1);
        let err = spec.run(&JobEnv::new(&pool)).expect_err("rejected");
        assert!(matches!(err, Error::JobSpec { .. }), "{err}");
    }

    #[test]
    fn zero_and_oversized_core_widths_are_spec_errors() {
        let pool = Pool::new(1);
        for core in ["ooo-i2x2-r32s0l8b256", "ooo-i2x2-r32s16l8b4294967295"] {
            let text = format!(r#"{{"kind":"measure","kernels":["mpn_add_n"],"core":"{core}"}}"#);
            let err = JobSpec::parse(&text).expect_err(core);
            assert_eq!(err.code(), codes::JOB_SPEC, "{core}: {err}");
            // A spec built in process reaches the same check when it runs.
            let mut spec = JobSpec::new(JobKind::Measure);
            spec.core = core.into();
            spec.kernels = vec![kreg::id::ADD_N];
            let err = spec.run(&JobEnv::new(&pool)).expect_err(core);
            assert_eq!(err.code(), codes::JOB_SPEC, "{core}: {err}");
        }
    }

    #[test]
    fn counts_parse_at_their_floor_and_cap_and_not_past_them() {
        // (kind, field, floor, cap); a limb count of 0 derives one.
        let ranges = [
            ("explore", "bits", 1, 4096),
            ("explore", "limbs", 1, 1024),
            ("curves", "limbs", 1, 1024),
            ("measure", "limbs", 1, 1 << 20),
            ("fault_campaign", "limbs", 1, 1 << 20),
            ("explore", "cosim_samples", 1, 450),
            ("characterize", "train_samples", 4, 1024),
            ("characterize", "validation_points", 1, 1024),
        ];
        let parse = |kind: &str, field: &str, value: &str| {
            JobSpec::parse(&format!(r#"{{"kind":"{kind}","{field}":{value}}}"#))
        };
        for (kind, field, floor, cap) in ranges {
            for ok in [floor, cap] {
                parse(kind, field, &ok.to_string()).expect(field);
            }
            let mut outside = vec![
                (cap + 1).to_string(),
                "-1".into(),
                "1.5".into(),
                "1e300".into(),
            ];
            outside.extend(["\"8\"", "null", "[8]"].map(Into::into));
            if field != "limbs" {
                outside.push((floor - 1).to_string());
            }
            for bad in outside {
                let err = parse(kind, field, &bad).expect_err(&bad);
                assert_eq!(err.code(), codes::JOB_SPEC, "{kind} {field} {bad}: {err}");
            }
        }
        assert_eq!(
            parse("explore", "limbs", "0").unwrap().effective_limbs(),
            16
        );
    }

    #[test]
    fn jobs_at_every_floor_run_to_a_report() {
        let pool = Pool::new(1);
        let env = JobEnv::new(&pool);
        let floors = JobSpec {
            bits: 1,
            limbs: 4,
            cosim_samples: 1,
            train_samples: 4,
            validation_points: 1,
            ..JobSpec::new(JobKind::Explore)
        };
        for kind in [JobKind::Characterize, JobKind::Explore] {
            let spec = JobSpec {
                kind,
                ..floors.clone()
            };
            spec.run(&env).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
        for kind in [JobKind::Curves, JobKind::Measure] {
            let spec = JobSpec {
                kind,
                limbs: 1,
                kernels: vec![kreg::id::ADD_N],
                ..floors.clone()
            };
            spec.run(&env).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    #[test]
    fn counts_without_meaning_are_spec_errors_when_run() {
        let pool = Pool::new(1);
        let env = JobEnv::new(&pool);
        let no_bits = JobSpec {
            bits: 0,
            ..JobSpec::explore(64, 1)
        };
        let no_training = JobSpec {
            train_samples: 0,
            ..JobSpec::new(JobKind::Characterize)
        };
        // One limb size, or two drawn alike: no fit is determined.
        let one_size = JobSpec {
            limbs: 1,
            ..JobSpec::new(JobKind::Characterize)
        };
        let alike = JobSpec {
            limbs: 2,
            train_samples: 4,
            ..JobSpec::new(JobKind::Characterize)
        };
        for spec in [no_bits, no_training, one_size, alike] {
            let err = spec.run(&env).expect_err("rejected");
            assert_eq!(err.code(), codes::JOB_SPEC, "{err}");
        }
        for text in [
            r#"{"kind":"explore","bits":0}"#,
            r#"{"kind":"characterize","train_samples":0}"#,
        ] {
            let err = JobSpec::parse(text).expect_err(text);
            assert_eq!(err.code(), codes::JOB_SPEC, "{text}: {err}");
        }
    }

    #[test]
    fn oversized_operand_counts_are_typed_kernel_errors() {
        let config = CpuConfig::default();
        let kc = KCache::new();
        let err = cached_kernel_cycles(
            &config,
            KernelVariant::Base,
            kreg::id::ADD_N,
            1 << 20,
            1,
            Some(&kc),
        )
        .expect_err("overruns the operand regions");
        assert_eq!(err.code(), codes::KERNEL_UNSUPPORTED, "{err}");
        assert_eq!(kc.len(), 0, "nothing cached");
        let mut spec = JobSpec::new(JobKind::Measure);
        spec.kernels = vec![kreg::id::MUL_1];
        spec.limbs = 1 << 20;
        let pool = Pool::new(1);
        let err = spec.run(&JobEnv::new(&pool)).expect_err("rejected");
        assert_eq!(err.code(), codes::KERNEL_UNSUPPORTED, "{err}");
    }
}
