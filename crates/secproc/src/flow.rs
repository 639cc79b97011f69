//! The four-phase system design methodology (the paper's Fig. 3).
//!
//! All four phases hang off one context object, [`FlowCtx`], which owns
//! the execution resources every phase shares — the worker pool, the
//! kernel-cycle memo cache, the metrics registry, and the fault policy:
//!
//! 1. **Performance characterization** ([`FlowCtx::characterize`]): run
//!    each library kernel on the cycle-accurate ISS with pseudo-random
//!    stimuli and fit macro-models by regression.
//! 2. **Algorithm exploration** ([`FlowCtx::explore`]): evaluate every
//!    candidate of the 450-point modular-exponentiation design space
//!    natively with macro-model cycle accrual, replacing ISS runs.
//! 3. **Custom-instruction formulation** ([`FlowCtx::curves`]): measure
//!    each routine under every resource level of its custom instruction
//!    family, producing local A-D curves.
//! 4. **Global selection** ([`FlowCtx::selector`], and
//!    [`tie::Selector::select`]): propagate A-D curves through the
//!    algorithm's call graph and pick the best point under an area
//!    budget.
//!
//! # Resilience
//!
//! A [`FaultPolicy`] on the context arms the ISS fault-injection hooks
//! (see the `xfault` crate) and makes every ISS-backed measurement
//! *resilient*: a unit whose measurement diverges or times out is
//! retried with deterministically reseeded stimuli (bounded attempts,
//! seeds recorded), falls back to a fault-free re-measurement when the
//! retries are exhausted, and quarantines the kernel after repeated
//! failures. Later phases degrade gracefully around quarantined
//! kernels — co-simulation falls back to the macro-model estimate —
//! so the figure pipelines always complete. Every such event is
//! recorded as a [`Degradation`] and exposed via
//! [`FlowCtx::degradations`] for run reports.
//!
//! All resilience decisions happen inside a unit's own worker task and
//! are folded into shared state serially in submission order, so the
//! whole flow — results *and* degradation log — stays bit-identical
//! for any thread count.
//!

use crate::error::{codes, Error};
use crate::genvar::{self, AdmittedVariant, GeneratedVariantRecord};
use crate::issops::{IssMpn, KernelVariant};
use crate::kcache::{self, KCache};
use crate::simcipher::SimSha1;
use kreg::{CallConv, KernelDescriptor, KernelError, KernelId, LibKind};
use macromodel::charact::{fit_planned, plan_stimuli, with_name, CharactOptions, StimulusPlan};
use macromodel::model::{MacroModel, ModelQuality, Monomial};
use mpint::Natural;
use pubkey::modexp::{mod_exp, prime, ExpCache, ModExpError};
use pubkey::ops::{ModeledMpn, MpnOps};
use pubkey::space::{CacheMode, CrtMode, ModExpConfig, ParetoFront};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tie::adcurve::{AdCurve, AdPoint};
use tie::callgraph::CallGraph;
use tie::insn::CustomInsn;
use tie::select::Selector;
use xfault::{FaultPolicy, PlanSpec};
use xobs::json::Json;
use xobs::span::{SpanGuard, Spans};
use xpar::{Pool, SEED_STEP};
use xr32::config::CpuConfig;

/// Fitted macro-models for every basic operation, with accuracy
/// metadata.
#[derive(Debug, Clone)]
pub struct KernelModels {
    /// Per-op models for 32-bit limbs.
    pub models32: BTreeMap<&'static str, MacroModel>,
    /// Per-op models for 16-bit limbs.
    pub models16: BTreeMap<&'static str, MacroModel>,
    /// Fit quality per (op, radix-tag) pair, e.g. `("mpn_add_n", 32)`.
    pub quality: BTreeMap<(&'static str, u32), ModelQuality>,
}

impl KernelModels {
    /// Builds the macro-model-metered ops provider from these models.
    pub fn modeled_ops(&self, glue_cost: f64) -> ModeledMpn<'_> {
        ModeledMpn::with_radix_models(&self.models32, &self.models16, glue_cost)
    }

    /// Mean absolute percentage error across all fitted models (the
    /// paper reports 11.8 % overall).
    pub fn mean_abs_error_pct(&self) -> f64 {
        if self.quality.is_empty() {
            return 0.0;
        }
        self.quality.values().map(|q| q.mae_pct).sum::<f64>() / self.quality.len() as f64
    }
}

/// One recorded resilience event: a measurement unit that could not be
/// taken at face value and what the flow did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The flow phase ("characterize", "cosim", "curves", "fig4",
    /// "measure").
    pub phase: &'static str,
    /// The measurement unit, e.g. `mpn_addmul_1.r32` or a candidate's
    /// display form.
    pub unit: String,
    /// The kernel charged with the failure (the quarantine key).
    pub kernel: String,
    /// The last error observed before the recovery action.
    pub error: String,
    /// Measurement attempts consumed (0 = the unit was skipped without
    /// measuring, e.g. a quarantine fallback).
    pub attempts: u32,
    /// The reseeded stimulus seeds tried after the original (recorded
    /// so a campaign can be replayed exactly).
    pub retry_seeds: Vec<u64>,
    /// What the flow did: `retried-ok`, `fallback-fault-free`,
    /// `fallback-macro-model`, `quarantined`, `quarantined-fallback`.
    pub action: &'static str,
    /// Stable numeric code of the error's class (see
    /// [`crate::error::codes`]) — the same vocabulary the serving
    /// layer's wire protocol uses, so report consumers can classify
    /// degradations without parsing prose.
    pub code: u32,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Degradation {
    /// An externally observed event (a bench harness degrading on its
    /// own authority, outside the flow's retry machinery): no attempts
    /// were consumed and no stimuli were reseeded.
    pub fn harness(
        phase: &'static str,
        unit: impl Into<String>,
        kernel: impl Into<String>,
        error: impl Into<String>,
        action: &'static str,
    ) -> Self {
        Degradation {
            phase,
            unit: unit.into(),
            kernel: kernel.into(),
            error: error.into(),
            attempts: 0,
            retry_seeds: Vec::new(),
            action,
            code: codes::FLOW,
        }
    }

    /// Renders the event as a JSON object (one element of a run
    /// report's `degradations` array).
    pub fn to_json(&self) -> String {
        let seeds = self
            .retry_seeds
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"phase\":\"{}\",\"unit\":\"{}\",\"kernel\":\"{}\",\"action\":\"{}\",\
             \"code\":{},\"attempts\":{},\"retry_seeds\":[{}],\"error\":\"{}\"}}",
            self.phase,
            json_escape(&self.unit),
            json_escape(&self.kernel),
            self.action,
            self.code,
            self.attempts,
            seeds,
            json_escape(&self.error)
        )
    }
}

/// Mutable flow state shared across phases (behind a mutex; only ever
/// touched serially, either before a fan-out or during the
/// submission-order merge).
#[derive(Debug, Default)]
struct FlowState {
    /// Failed units per kernel (a retry-exhausted unit counts one).
    failures: BTreeMap<String, u32>,
    /// Kernels past the quarantine threshold.
    quarantined: BTreeSet<String>,
    /// Every recorded resilience event, in flow order.
    degradations: Vec<Degradation>,
}

/// The pool a context runs on: its own environment-sized pool, or one
/// borrowed from a harness.
#[derive(Debug)]
enum PoolHandle<'a> {
    Owned(Pool),
    Borrowed(&'a Pool),
}

/// Shared context for the four methodology phases: core configuration,
/// kernel variant, worker pool, optional kernel-cycle cache, optional
/// metrics registry, and the fault/resilience policy.
///
/// Construct through [`FlowBuilder`], which validates conflicting
/// knobs once at [`FlowBuilder::build`]:
///
/// ```no_run
/// use secproc::flow::FlowBuilder;
/// use macromodel::charact::CharactOptions;
/// use xr32::config::CpuConfig;
///
/// let cfg = CpuConfig::default();
/// let ctx = FlowBuilder::new(&cfg).build().unwrap();
/// let models = ctx.characterize(16, &CharactOptions::default());
/// let ranked = ctx.explore(&models, 512, 4.0).unwrap();
/// let selector = ctx.selector(32);
/// # let _ = (ranked, selector);
/// ```
pub struct FlowCtx<'a> {
    config: &'a CpuConfig,
    variant: KernelVariant,
    pool: PoolHandle<'a>,
    cache: Option<&'a KCache>,
    metrics: Option<&'a xobs::Registry>,
    spans: Option<&'a Spans>,
    policy: FaultPolicy,
    state: Mutex<FlowState>,
}

/// Builder for [`FlowCtx`]: collects the same knobs the old chained
/// `FlowCtx::with_*` setters offered, then validates them *once* in
/// [`FlowBuilder::build`] so conflicting configurations are rejected
/// up front instead of surfacing as mid-flow surprises.
///
/// This is the single construction path for flow contexts: the bench
/// harnesses and [`crate::job::JobSpec::into_ctx`] both build through
/// it.
#[derive(Clone, Copy)]
pub struct FlowBuilder<'a> {
    config: &'a CpuConfig,
    variant: KernelVariant,
    pool: Option<&'a Pool>,
    cache: Option<&'a KCache>,
    metrics: Option<&'a xobs::Registry>,
    spans: Option<&'a Spans>,
    policy: FaultPolicy,
}

impl<'a> FlowBuilder<'a> {
    /// A builder over `config` with the defaults: base kernels, an
    /// environment-sized pool, no cache, no metrics, no injection.
    pub fn new(config: &'a CpuConfig) -> Self {
        FlowBuilder {
            config,
            variant: KernelVariant::Base,
            pool: None,
            cache: None,
            metrics: None,
            spans: None,
            policy: FaultPolicy::default(),
        }
    }

    /// As [`FlowBuilder::new`], additionally arming the fault campaign
    /// from the `WSP_FAULTS` environment spec when one is set (see
    /// [`xfault::PlanSpec::parse`]).
    pub fn from_env(config: &'a CpuConfig) -> Self {
        FlowBuilder::new(config).fault_policy(FaultPolicy::from_env())
    }

    /// Selects the kernel variant measured by the ISS-backed phases.
    pub fn variant(mut self, variant: KernelVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Runs the phases on a borrowed pool (e.g. a bench harness's).
    pub fn pool(mut self, pool: &'a Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Serves ISS measurements from a kernel-cycle memo cache. The
    /// cache is bypassed whenever fault injection is active, so
    /// corrupted timings are never persisted.
    pub fn cache(mut self, cache: &'a KCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Publishes per-phase progress metrics into a registry.
    pub fn metrics(mut self, metrics: &'a xobs::Registry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Records the phases into a hierarchical span tree (see
    /// [`FlowCtx`] docs for the determinism contract).
    pub fn spans(mut self, spans: &'a Spans) -> Self {
        self.spans = Some(spans);
        self
    }

    /// Sets the fault-injection and resilience policy.
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Validates the collected knobs and constructs the context.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Conflict`] (code [`codes::FLOW_CONFLICT`])
    /// when a resilience policy quarantines (`quarantine_after > 0`)
    /// but allows zero measurement attempts (`max_retries` underflowed
    /// to `u32::MAX`), which can never converge.
    pub fn build(self) -> Result<FlowCtx<'a>, Error> {
        if self.policy.quarantine_after > 0 && self.policy.max_retries == u32::MAX {
            return Err(Error::Conflict {
                detail: "unbounded max_retries with a quarantine threshold never converges"
                    .to_owned(),
            });
        }
        Ok(FlowCtx {
            config: self.config,
            variant: self.variant,
            pool: match self.pool {
                Some(p) => PoolHandle::Borrowed(p),
                None => PoolHandle::Owned(Pool::from_env()),
            },
            cache: self.cache,
            metrics: self.metrics,
            spans: self.spans,
            policy: self.policy,
            state: Mutex::new(FlowState::default()),
        })
    }
}

/// Per-phase bases for fault-plan stream numbers; each measurement unit
/// gets its own `STREAM_STRIDE`-wide window so retries never reuse a
/// stream.
const STREAM_STRIDE: u64 = 1 << 10;
const CHARACT_STREAMS: u64 = 0x0100_0000;
const COSIM_STREAMS: u64 = 0x0200_0000;
const CURVE_STREAMS: u64 = 0x0300_0000;
const FIG4_STREAMS: u64 = 0x0400_0000;
const ADHOC_STREAMS: u64 = 0x0500_0000;

impl<'a> FlowCtx<'a> {
    /// The core configuration the phases simulate.
    pub fn config(&self) -> &CpuConfig {
        self.config
    }

    /// The kernel variant the ISS-backed phases measure.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The worker pool the phases fan out on.
    pub fn pool(&self) -> &Pool {
        match &self.pool {
            PoolHandle::Owned(p) => p,
            PoolHandle::Borrowed(p) => p,
        }
    }

    /// The kernel-cycle cache, if one is attached.
    pub fn cache(&self) -> Option<&KCache> {
        self.cache
    }

    /// The metrics registry, if one is attached.
    pub fn metrics(&self) -> Option<&xobs::Registry> {
        self.metrics
    }

    /// The span tree, if one is attached.
    pub fn spans(&self) -> Option<&Spans> {
        self.spans
    }

    /// The active fault/resilience policy.
    pub fn policy(&self) -> FaultPolicy {
        self.policy
    }

    /// Every resilience event recorded so far, in flow order.
    pub fn degradations(&self) -> Vec<Degradation> {
        self.state().degradations.clone()
    }

    /// The recorded resilience events rendered as JSON objects (the
    /// run-report `degradations` array).
    pub fn degradations_json(&self) -> Vec<String> {
        self.state()
            .degradations
            .iter()
            .map(Degradation::to_json)
            .collect()
    }

    /// Kernels currently quarantined (sorted).
    pub fn quarantined(&self) -> Vec<String> {
        self.state().quarantined.iter().cloned().collect()
    }

    /// Whether `kernel` is quarantined.
    fn is_quarantined(&self, kernel: &str) -> bool {
        self.state().quarantined.contains(kernel)
    }

    /// Quarantines `kernel` directly (campaign drivers and tests; the
    /// flow itself quarantines after repeated unit failures).
    pub fn quarantine(&self, kernel: &str) {
        self.state().quarantined.insert(kernel.to_owned());
    }

    /// Appends an externally observed resilience event (e.g. a bench
    /// harness falling back to a model estimate).
    pub fn note_degradation(&self, event: Degradation) {
        self.span_degradation(&event);
        self.state().degradations.push(event);
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FlowState> {
        self.state.lock().expect("flow state poisoned")
    }

    /// Mirrors a degradation onto the innermost open span as an event
    /// (always called serially, so the event stream is deterministic).
    fn span_degradation(&self, d: &Degradation) {
        if let Some(sp) = self.spans {
            sp.event(
                "degradation",
                Json::obj()
                    .set("phase", d.phase)
                    .set("unit", d.unit.as_str())
                    .set("kernel", d.kernel.as_str())
                    .set("action", d.action)
                    .set("attempts", u64::from(d.attempts)),
            );
        }
    }

    /// Opens a phase span (when a tree is attached) and enables the
    /// pool's job tracing so the phase can attach per-worker spans.
    fn phase_span(&self, name: &str) -> Option<SpanGuard<'a>> {
        self.spans.map(|sp| {
            self.pool().set_tracing(true);
            sp.enter(name)
        })
    }

    /// Converts the pool's recorded job traces into `wall_only`
    /// per-worker spans under the innermost open span (queue wait and
    /// busy fraction as attributes), and publishes the busy fraction as
    /// an `xpar.busy_fraction` gauge when a registry is attached.
    /// Wall-clock observability only: report normalization drops every
    /// span this creates, so the worker count never leaks into the
    /// deterministic tree.
    fn drain_worker_spans(&self) {
        let Some(sp) = self.spans else { return };
        for job in self.pool().take_job_traces() {
            let job_wall_ms = job.wall_nanos as f64 / 1e6;
            // Drained right after the fan-out returns, so "now minus the
            // job's wall time" anchors the job start closely enough for
            // a timeline view.
            let job_start_ms = (sp.elapsed_ms() - job_wall_ms).max(0.0);
            let busy_fraction = job.busy_fraction();
            if let Some(reg) = self.metrics {
                reg.gauge("xpar.busy_fraction").set(busy_fraction);
            }
            for w in &job.workers {
                let queue_wait_ms = w.queue_wait_nanos as f64 / 1e6;
                sp.wall_span(
                    format!("xpar.worker-{}", w.worker),
                    job_start_ms + queue_wait_ms,
                    w.busy_nanos as f64 / 1e6,
                    &[
                        ("worker", Json::from(w.worker as u64)),
                        ("items", Json::from((w.hi - w.lo) as u64)),
                        ("queue_wait_ms", Json::from(queue_wait_ms)),
                        ("busy_fraction", Json::from(busy_fraction)),
                    ],
                );
            }
        }
    }

    /// Effective cache for an ISS measurement phase: the attached cache
    /// unless injection is active.
    fn measurement_cache(&self) -> Option<&KCache> {
        if self.policy.injecting() {
            None
        } else {
            self.cache
        }
    }

    /// Folds one unit's resilience outcome into the shared state
    /// (called serially, in submission order) and returns its value.
    fn absorb<T>(&self, report: UnitReport<T>) -> T {
        if report.failed || report.degradation.is_some() {
            if let Some(mut d) = report.degradation {
                {
                    let mut st = self.state();
                    if report.failed && self.policy.quarantine_after > 0 {
                        let count = st.failures.entry(d.kernel.clone()).or_insert(0);
                        *count += 1;
                        if *count >= self.policy.quarantine_after
                            && st.quarantined.insert(d.kernel.clone())
                        {
                            d.action = "quarantined-fallback";
                        }
                    }
                    st.degradations.push(d.clone());
                }
                self.span_degradation(&d);
            }
        }
        report.value
    }

    /// Phase 1: characterizes every registered kernel of the context's
    /// variant on the ISS, fitting linear macro-models in the operand
    /// length over `1..=max_limbs`.
    ///
    /// Stimulus plans are drawn serially from the shared RNG (so the
    /// stimulus stream is identical for any thread count), the
    /// `(width, kernel)` measurement units run in parallel with one
    /// fresh simulation harness each, and fits are merged in submission
    /// order. With a cache attached (and injection off), each unit's
    /// cycle vector is served under
    /// `fingerprint × variant × op × max_limbs × plan-digest`.
    ///
    /// When a metrics registry is attached, publishes
    /// `flow.phase1.iss_cycles`, `flow.phase1.ops_characterized`,
    /// `flow.phase1.mean_abs_error_pct`, `flow.phase1.wall_ms`,
    /// `flow.phase1.iss_wall_ms` (host time inside ISS measurement
    /// units), plus the `charact.*` metrics of every fit.
    ///
    /// The result — models, quality, degradation log, and every
    /// published metric except `*wall_ms` — is bit-identical for any
    /// thread count and any cache state.
    ///
    /// # Panics
    ///
    /// Panics if a kernel fails *without* injected faults (a genuine
    /// defect), or if a regression fit is degenerate (cannot happen for
    /// the bundled kernels, whose profiles are near-affine).
    pub fn characterize(&self, max_limbs: usize, options: &CharactOptions) -> KernelModels {
        let scratch;
        let reg = match self.metrics {
            Some(reg) => reg,
            None => {
                scratch = xobs::Registry::new();
                &scratch
            }
        };
        let iss_cycles = reg.counter("flow.phase1.iss_cycles");
        let ops_done = reg.counter("flow.phase1.ops_characterized");
        let _phase = self.phase_span("phase1.characterize");
        let t0 = Instant::now();
        let config = self.config;
        let variant = self.variant;

        let tasks = charact_tasks(max_limbs, options);

        // Parallel measurement + fit; results return in submission
        // order. Retries and fallbacks are decided inside the unit's
        // own task, keyed by its submission index, so the outcome is
        // identical for any thread count.
        if let Some(sp) = self.spans {
            sp.set_attr("max_limbs", max_limbs as u64);
            sp.set_attr("units", tasks.len() as u64);
            sp.set_attr("core", config.core_id());
        }
        let fp = config.fingerprint();
        let vtag = variant.tag();
        let core_id = config.core_id();
        let cache = self.measurement_cache();
        let policy = self.policy;
        let budget = policy.cycle_budget;
        let fitted = self.pool().par_map(&tasks, |i, t| {
            let unit_start = Instant::now();
            let unit = format!("{}.r{}", t.name(), t.width);
            let key = kcache::key(
                fp,
                &vtag,
                &t.desc.charact_unit_on(t.width, &core_id),
                max_limbs as u64,
                plan_digest(&t.plan),
            );
            let report = serve_unit(
                cache,
                &key,
                t.plan.len(),
                &policy,
                &Unit {
                    phase: "characterize",
                    name: &unit,
                    kernel: t.name(),
                    stream_base: CHARACT_STREAMS + (i as u64) * STREAM_STRIDE,
                    base_seed: 1,
                },
                |seed, arm| measure_charact_task(config, variant, t, seed, arm, budget),
            );
            let ch = fit_planned(&t.basis, &t.plan, &report.value)
                .unwrap_or_else(|e| panic!("characterization of {unit} failed: {e}"));
            let sim_cycles: u64 = report.value.iter().map(|&c| c as u64).sum();
            let unit_wall_ms = unit_start.elapsed().as_secs_f64() * 1e3;
            (
                with_name(ch, t.name()),
                sim_cycles,
                report.map(|_| ()),
                unit_wall_ms,
            )
        });

        // Serial merge in submission order: metric and degradation
        // streams stay deterministic, and memo hits count like fresh
        // measurements so warm and cold runs report identical
        // flow/charact metrics.
        let mut models32 = BTreeMap::new();
        let mut models16 = BTreeMap::new();
        let mut quality = BTreeMap::new();
        let mut iss_wall_ms = 0.0;
        for (t, (ch, sim_cycles, outcome, unit_wall_ms)) in tasks.iter().zip(fitted) {
            self.absorb(outcome);
            iss_cycles.add(sim_cycles);
            iss_wall_ms += unit_wall_ms;
            ops_done.inc();
            if self.metrics.is_some() {
                reg.counter("charact.stimuli_run").add(t.plan.len() as u64);
                reg.gauge("charact.last_r_squared")
                    .set(ch.quality.r_squared);
                reg.gauge("charact.last_mae_pct").set(ch.quality.mae_pct);
                reg.histogram("charact.mae_pct").observe(ch.quality.mae_pct);
            }
            if let Some(sp) = self.spans {
                sp.leaf(
                    format!("{}.r{}", t.name(), t.width),
                    sim_cycles as f64,
                    t.plan.len() as u64,
                    Some(unit_wall_ms),
                );
            }
            // A negative r² means the regression explains the cycle
            // profile worse than its mean — a first-class signal, not
            // something to bury in a gauge.
            if ch.quality.r_squared < 0.0 {
                self.note_degradation(Degradation {
                    phase: "characterize",
                    unit: format!("{}.r{}", t.name(), t.width),
                    kernel: t.name().to_owned(),
                    error: format!(
                        "poor macro-model fit: r_squared={:.3}, mae={:.2}%",
                        ch.quality.r_squared, ch.quality.mae_pct
                    ),
                    attempts: 0,
                    retry_seeds: Vec::new(),
                    action: "bad-fit",
                    code: codes::FLOW,
                });
            }
            quality.insert((t.name(), t.width), ch.quality);
            if t.width == 32 {
                models32.insert(t.name(), ch.model);
            } else {
                models16.insert(t.name(), ch.model);
            }
        }
        self.drain_worker_spans();
        let models = KernelModels {
            models32,
            models16,
            quality,
        };
        reg.gauge("flow.phase1.mean_abs_error_pct")
            .set(models.mean_abs_error_pct());
        reg.gauge("flow.phase1.wall_ms")
            .set(t0.elapsed().as_secs_f64() * 1e3);
        // Host time spent inside ISS measurement units (the part a
        // fidelity change moves), as distinct from whole-phase wall.
        reg.gauge("flow.phase1.iss_wall_ms").set(iss_wall_ms);
        models
    }

    /// Phase 2: evaluates every candidate of the design space with
    /// macro-model metering on a fixed RSA-decrypt-like workload
    /// (`base^exp mod m` with `bits`-bit operands). Purely native —
    /// no ISS runs, so the fault policy does not apply. The workload is
    /// a plain exponentiation, so a candidate's CRT mode does not change
    /// the program that runs: each distinct program is costed once and
    /// CRT moves only the memory axis.
    ///
    /// The 150 distinct programs of the 450-candidate lattice are
    /// costed in parallel (each owns its modeled-ops provider and
    /// cache; one metered exponentiation per program, after a
    /// setup-only [`prime`] for the 100 that cache), then every
    /// candidate is ranked and offered to the Pareto front in
    /// enumeration order, so the result is bit-identical to the serial
    /// run for any thread count.
    ///
    /// When a metrics registry is attached, publishes
    /// `flow.phase2.candidates_evaluated`, a
    /// `flow.phase2.candidate_cycles` histogram over the whole space,
    /// `flow.phase2.best_cycles`, and the `space.*` gauges of the
    /// speed/space [`ParetoFront`] (memory axis =
    /// [`ModExpConfig::table_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModExpError`] if a configuration fails (which would be
    /// a defect — all 450 are executable).
    pub fn explore(
        &self,
        models: &KernelModels,
        bits: usize,
        glue_cost: f64,
    ) -> Result<ExplorationResult, ModExpError> {
        let _phase = self.phase_span("phase2.explore");
        if let Some(sp) = self.spans {
            sp.set_attr("bits", bits as u64);
            sp.set_attr("core", self.config.core_id());
        }
        let scratch;
        let reg = match self.metrics {
            Some(reg) => reg,
            None => {
                scratch = xobs::Registry::new();
                &scratch
            }
        };
        let evaluated = reg.counter("flow.phase2.candidates_evaluated");
        let cycles_hist = reg.histogram("flow.phase2.candidate_cycles");
        let mut front = ParetoFront::new();
        let work = Workload::new(bits);
        let expect = work.base.pow_mod(&work.exp, &work.m);

        let start = Instant::now();
        let configs = ModExpConfig::enumerate();
        // `mod_exp` never reads `crt`, so each distinct (mul, window,
        // radix, cache) program is costed once and shared by its CRT
        // siblings.
        let programs: Vec<ModExpConfig> = configs
            .iter()
            .filter(|c| c.crt == CrtMode::None)
            .copied()
            .collect();
        let estimates = self.pool().par_map(&programs, |_, program| {
            let (result, cycles) = estimate(models, &work, program, glue_cost)?;
            assert_eq!(result, expect, "program {program} computed a wrong result");
            Ok(cycles)
        });
        let by_program: BTreeMap<ModExpConfig, Result<f64, ModExpError>> =
            programs.into_iter().zip(estimates).collect();

        // Serial merge in enumeration order: metric observation order
        // and Pareto tie-breaking match the serial loop exactly.
        let mut ranked = Vec::with_capacity(configs.len());
        for config in configs {
            let program = ModExpConfig {
                crt: CrtMode::None,
                ..config
            };
            let cycles = by_program[&program].clone()?;
            evaluated.inc();
            cycles_hist.observe(cycles);
            front.offer(config, cycles, config.table_bytes(bits));
            ranked.push(Candidate { config, cycles });
        }
        ranked.sort_by(|a, b| a.cycles.total_cmp(&b.cycles));
        reg.gauge("flow.phase2.best_cycles").set(ranked[0].cycles);
        reg.gauge("flow.phase2.wall_ms")
            .set(start.elapsed().as_secs_f64() * 1e3);
        front.record_metrics(reg);
        if let Some(sp) = self.spans {
            sp.add_tasks(ranked.len() as u64);
            sp.set_attr("evaluated", ranked.len() as u64);
            sp.set_attr("best_cycles", ranked[0].cycles);
        }
        self.drain_worker_spans();
        Ok(ExplorationResult {
            evaluated: ranked.len(),
            elapsed: start.elapsed(),
            ranked,
        })
    }

    /// Evaluates a single candidate by full ISS co-simulation (the slow
    /// reference the paper could only afford for six candidates),
    /// serving the result from the cache when one is attached (and
    /// injection is off).
    ///
    /// Under an active fault campaign the co-simulation is resilient:
    /// an attempt whose kernel stream diverges or times out is retried
    /// on a fresh fault stream, then falls back to a fault-free run.
    /// When any kernel is quarantined the ISS is not trusted at all and
    /// the candidate degrades to its macro-model estimate from
    /// `models` (action `fallback-macro-model`), so validation always
    /// completes.
    ///
    /// # Errors
    ///
    /// Returns [`ModExpError`] on genuine (fault-free) configuration
    /// failure.
    pub fn cosimulate(
        &self,
        models: &KernelModels,
        candidate: &ModExpConfig,
        bits: usize,
        glue_cost: f64,
    ) -> Result<f64, ModExpError> {
        let t0 = Instant::now();
        let result = self.cosimulate_inner(models, candidate, bits, glue_cost);
        if let (Some(sp), Ok(cycles)) = (self.spans, &result) {
            sp.leaf(
                format!("cosim.{candidate}"),
                *cycles,
                1,
                Some(t0.elapsed().as_secs_f64() * 1e3),
            );
        }
        result
    }

    fn cosimulate_inner(
        &self,
        models: &KernelModels,
        candidate: &ModExpConfig,
        bits: usize,
        glue_cost: f64,
    ) -> Result<f64, ModExpError> {
        let quarantined = self.quarantined();
        if !quarantined.is_empty() {
            let est = explore_single(models, candidate, bits, glue_cost)?;
            self.note_degradation(Degradation {
                phase: "cosim",
                unit: candidate.to_string(),
                kernel: quarantined.join("+"),
                error: format!("quarantined kernels: {}", quarantined.join(", ")),
                attempts: 0,
                retry_seeds: Vec::new(),
                action: "fallback-macro-model",
                code: codes::KERNEL_QUARANTINED,
            });
            return Ok(est);
        }
        let unit = candidate.to_string();
        // The workload is part of the measured quantity (the estimate
        // it is compared against uses the same fixed seed), so retries
        // vary the fault stream, not the stimuli.
        let cosim = |_seed, arm| {
            cosim_once(
                self.config,
                self.variant,
                candidate,
                bits,
                glue_cost,
                arm,
                self.policy.cycle_budget,
            )
        };
        // The memo key embeds the core fingerprint, the kernel variant,
        // the candidate, the operand size and the glue cost, so any
        // changed determinant recomputes.
        if let Some(kc) = self.measurement_cache() {
            let key = kcache::key(
                self.config.fingerprint(),
                &self.variant.tag(),
                &format!("cosim:{unit}"),
                bits as u64,
                glue_cost.to_bits(),
            );
            return Ok(kc.try_get_or_compute(&key, 1, || {
                cosim(WORKLOAD_SEED, None)
                    .unwrap_or_else(|e| panic!("cosim unit {unit} failed fault-free: {e}"))
                    .map(|c| vec![c])
            })?[0]);
        }
        let stream_base = COSIM_STREAMS
            + xpar::memo::checksum(&format!("cosim:{unit}"), &[bits as f64]) % (1 << 20)
                * STREAM_STRIDE;
        let report = run_resilient(
            &self.policy,
            &Unit {
                phase: "cosim",
                name: &unit,
                kernel: "modexp",
                stream_base,
                base_seed: WORKLOAD_SEED,
            },
            cosim,
        )
        .unwrap_or_else(|e| panic!("cosim unit {unit} failed fault-free: {e}"));
        self.absorb(report)
    }

    /// One sample of the macro-model validation (the paper could afford
    /// six): co-simulates `candidate` (see [`FlowCtx::cosimulate`]),
    /// then re-runs and times its macro-model estimate, and reports the
    /// estimate's error against the ISS and how much faster it was. When
    /// a metrics registry is attached, observes the error into the
    /// `flow.model_error_pct` histogram.
    ///
    /// # Errors
    ///
    /// Returns [`ModExpError`] if the candidate fails to execute.
    pub fn cosim_sample(
        &self,
        models: &KernelModels,
        candidate: &ModExpConfig,
        bits: usize,
        glue_cost: f64,
    ) -> Result<CosimSample, ModExpError> {
        let t = Instant::now();
        let cosim_cycles = self.cosimulate(models, candidate, bits, glue_cost)?;
        let cosim_time = t.elapsed();
        let t = Instant::now();
        let estimated_cycles = explore_single(models, candidate, bits, glue_cost)?;
        let estimate_time = t.elapsed().max(Duration::from_nanos(1));
        let error_pct = ((estimated_cycles - cosim_cycles) / cosim_cycles).abs() * 100.0;
        if let Some(reg) = self.metrics {
            reg.histogram("flow.model_error_pct").observe(error_pct);
        }
        Ok(CosimSample {
            config: *candidate,
            estimated_cycles,
            cosim_cycles,
            error_pct,
            estimation_speedup: cosim_time.as_secs_f64() / estimate_time.as_secs_f64(),
        })
    }

    /// Phase 3: formulates the A-D curves for `mpn_add_n` and
    /// `mpn_addmul_1` by measuring the base kernel and every
    /// accelerated resource level on the ISS at `n` limbs (the paper's
    /// Fig. 5(a)/(b)).
    ///
    /// The nine `(op, resource level)` points are measured in parallel
    /// (one fresh ISS each, warmed with seed 7 and measured with seed
    /// 8) and assembled into curves in the fixed serial order. With a
    /// cache attached (and injection off), each point is served under
    /// `fingerprint × variant × "curve:op" × n × seed`. Quarantined
    /// kernels are measured with the fault arm off (action
    /// `quarantined`), so the curves always complete.
    pub fn curves(&self, n: usize) -> BTreeMap<String, AdCurve> {
        self.curves_with_variants(n).0
    }

    /// [`FlowCtx::curves`] plus the per-level generated-variant records
    /// (schema 4's `generated_variants`): for kernels registered with
    /// [`kreg::VariantSource::Generated`], the `xopt` pipeline produces
    /// each resource level's library, both gate halves run (constant-
    /// time lint differential + golden verification under the level's
    /// extension set), and *admitted* variants drive the curve points —
    /// the hand-written library is still measured at every such level
    /// as the side-by-side baseline. A rejected level falls back to the
    /// hand-written variant and records a `fallback-handwritten`
    /// degradation, so the curves always complete.
    pub fn curves_with_variants(
        &self,
        n: usize,
    ) -> (BTreeMap<String, AdCurve>, Vec<GeneratedVariantRecord>) {
        let _phase = self.phase_span("phase3.curves");
        if let Some(sp) = self.spans {
            sp.set_attr("n", n as u64);
            sp.set_attr("core", self.config.core_id());
        }
        // Every kernel with a registered custom-instruction family gets
        // a curve: its base point plus one point per resource level
        // (`mpn_add_n`: add2/4/8/16; `mpn_addmul_1`: mac1/2/4).
        let mut tasks = Vec::new();
        let mut admitted: Vec<AdmittedVariant> = Vec::new();
        let mut records: Vec<(GeneratedVariantRecord, usize)> = Vec::new();
        for desc in kreg::registry() {
            let Some(fam) = desc.family else { continue };
            tasks.push(CurveTask {
                kernel: desc.id,
                variant: KernelVariant::Base,
                insn: None,
                gen: None,
                on_curve: true,
            });
            let gen_outcomes: Vec<Option<Result<AdmittedVariant, xopt::OptError>>> =
                match desc.variants {
                    kreg::VariantSource::Generated => {
                        // The xopt generation + admission pipeline runs
                        // serially here; give it its own span with one
                        // gate-verdict event per level.
                        let gen_span = self
                            .spans
                            .map(|sp| sp.enter(format!("xopt.generate.{}", desc.id.name())));
                        if let Some(sp) = self.spans {
                            // Golden admission sweeps run on the
                            // pre-decoded fast path.
                            sp.set_attr("fidelity", "fast");
                        }
                        let outcomes = genvar::admitted_variants(desc, self.config);
                        if let Some(sp) = self.spans {
                            sp.add_tasks(outcomes.len() as u64);
                            for (level, outcome) in &outcomes {
                                match outcome {
                                    Ok(adm) => sp.event(
                                        "variant-admitted",
                                        Json::obj().set("tag", adm.gen.tag.as_str()),
                                    ),
                                    Err(e) => {
                                        let (lint_ok, golden_ok) = genvar::gate_verdicts(e);
                                        sp.event(
                                            "variant-rejected",
                                            Json::obj()
                                                .set("tag", level.generated_tag())
                                                .set("lint_ok", lint_ok)
                                                .set("golden_ok", golden_ok),
                                        );
                                    }
                                }
                            }
                        }
                        drop(gen_span);
                        outcomes
                            .into_iter()
                            .map(|(_, outcome)| Some(outcome))
                            .collect()
                    }
                    kreg::VariantSource::HandWritten => fam.levels.iter().map(|_| None).collect(),
                };
            for (level, outcome) in fam.levels.iter().zip(gen_outcomes) {
                // A generated level's record; its cycle fields are
                // filled from the hand-written task (and, when admitted,
                // the generated one right after it) after the merge.
                let hand_task = tasks.len();
                let record = |lint_ok, golden_ok, error: Option<String>| GeneratedVariantRecord {
                    kernel: desc.id,
                    family: fam.family,
                    lanes: level.lanes,
                    tag: level.generated_tag(),
                    lint_ok,
                    golden_ok,
                    admitted: error.is_none(),
                    error,
                    cycles_generated: None,
                    cycles_hand: 0.0,
                };
                let mut gen = None;
                match outcome {
                    None => {}
                    Some(Ok(adm)) => {
                        admitted.push(adm);
                        gen = Some(admitted.len() - 1);
                        records.push((record(true, true, None), hand_task));
                    }
                    Some(Err(e)) => {
                        let (lint_ok, golden_ok) = genvar::gate_verdicts(&e);
                        self.note_degradation(Degradation {
                            phase: "curves",
                            unit: format!("{}@{}", desc.id.name(), level.generated_tag()),
                            kernel: desc.id.name().to_owned(),
                            error: e.to_string(),
                            attempts: 0,
                            retry_seeds: Vec::new(),
                            action: "fallback-handwritten",
                            code: codes::FLOW,
                        });
                        records.push((record(lint_ok, golden_ok, Some(e.to_string())), hand_task));
                    }
                }
                tasks.push(CurveTask {
                    kernel: desc.id,
                    variant: level.variant(),
                    insn: Some((fam.family, level.lanes)),
                    gen: None,
                    on_curve: gen.is_none(),
                });
                if gen.is_some() {
                    tasks.push(CurveTask {
                        gen,
                        on_curve: true,
                        ..tasks[hand_task]
                    });
                }
            }
        }

        let gens = &admitted;
        let config = self.config;
        let fp = config.fingerprint();
        let core_id = config.core_id();
        let cache = self.measurement_cache();
        let policy = self.policy;
        let quarantined: BTreeSet<String> = self.state().quarantined.clone();
        let measured = self.pool().par_map(&tasks, |i, t| {
            let unit_start = Instant::now();
            let desc = kreg::get(t.kernel).expect("curve kernel registered");
            let tag = match t.gen {
                Some(ix) => gens[ix].gen.tag.clone(),
                None => t.variant.tag(),
            };
            let name = format!("{}@{}", t.kernel.name(), tag);
            let measure = |seed, arm| {
                let iss = match t.gen {
                    Some(ix) => IssMpn::with_library(
                        config.clone(),
                        &gens[ix].gen.source,
                        gens[ix].ext.clone(),
                    ),
                    None => IssMpn::with_variant(config.clone(), t.variant),
                };
                let mut iss = armed(iss, policy.cycle_budget, arm);
                let _ = iss.warm_up(|iss| iss.measure32(t.kernel, n, 7));
                iss.measure32(t.kernel, n, seed).map(|c| vec![c])
            };
            let report = if policy.injecting() && quarantined.contains(t.kernel.name()) {
                UnitReport {
                    value: measure(8, None).expect("curve kernels use register conventions"),
                    degradation: Some(Degradation {
                        phase: "curves",
                        unit: name.clone(),
                        kernel: t.kernel.name().to_owned(),
                        error: "kernel quarantined; measured with the fault arm off".to_owned(),
                        attempts: 1,
                        retry_seeds: Vec::new(),
                        action: "quarantined",
                        code: codes::KERNEL_QUARANTINED,
                    }),
                    failed: false,
                }
            } else {
                serve_unit(
                    cache,
                    &kcache::key(fp, &tag, &desc.curve_unit_on(&core_id), n as u64, 0x0708),
                    1,
                    &policy,
                    &Unit {
                        phase: "curves",
                        name: &name,
                        kernel: t.kernel.name(),
                        stream_base: CURVE_STREAMS + (i as u64) * STREAM_STRIDE,
                        base_seed: 8,
                    },
                    measure,
                )
            };
            (
                report.map(|v| v[0]),
                name,
                unit_start.elapsed().as_secs_f64() * 1e3,
            )
        });

        let values: Vec<f64> = measured
            .into_iter()
            .map(|(report, name, unit_wall_ms)| {
                let cycles = self.absorb(report);
                if let Some(sp) = self.spans {
                    sp.leaf(name, cycles, 1, Some(unit_wall_ms));
                }
                cycles
            })
            .collect();
        self.drain_worker_spans();
        let mut curves = BTreeMap::new();
        let mut points_by_op: BTreeMap<&str, Vec<AdPoint>> = BTreeMap::new();
        for (t, &cycles) in tasks.iter().zip(&values) {
            if !t.on_curve {
                continue;
            }
            let point = match t.insn {
                None => AdPoint::base(cycles),
                Some((family, lanes)) => {
                    let area = match family {
                        "add" => crate::insns::add_k(lanes).area,
                        _ => crate::insns::mac_k(lanes).area,
                    };
                    AdPoint::new([ur_ls_insn(), CustomInsn::new(family, lanes, area)], cycles)
                }
            };
            points_by_op.entry(t.kernel.name()).or_default().push(point);
        }
        for (op, points) in points_by_op {
            curves.insert(op.to_owned(), AdCurve::from_points(points));
        }
        let records = records
            .into_iter()
            .map(|(mut record, hand_task)| {
                record.cycles_hand = values[hand_task];
                record.cycles_generated = record.admitted.then(|| values[hand_task + 1]);
                record
            })
            .collect();
        (curves, records)
    }

    /// Builds the paper's Fig. 4 call graph — the optimized modular
    /// exponentiation example — annotated with this platform's measured
    /// leaf cycles. `k` is the operand size in limbs.
    ///
    /// The two leaves are one measurement unit (they share one ISS
    /// sequentially, preserving the serial cache-warmth coupling),
    /// cached under `fingerprint × base × "fig4:leaves" × k` and
    /// measured resiliently under an active fault campaign.
    pub fn fig4_graph(&self, k: usize) -> CallGraph {
        let t0 = Instant::now();
        let measure = |seed, arm| {
            let mut iss = armed(
                IssMpn::base(self.config.clone()),
                self.policy.cycle_budget,
                arm,
            );
            let mut leaf = |kernel| {
                let _ = iss.warm_up(|iss| iss.measure32(kernel, k, 3));
                iss.measure32(kernel, k, seed)
            };
            Ok::<_, KernelError>(vec![leaf(kreg::id::ADD_N)?, leaf(kreg::id::ADDMUL_1)?])
        };
        let key = kcache::key(
            self.config.fingerprint(),
            &KernelVariant::Base.tag(),
            "fig4:leaves",
            k as u64,
            0x0304,
        );
        let leaves = self.absorb(serve_unit(
            self.measurement_cache(),
            &key,
            2,
            &self.policy,
            &Unit {
                phase: "fig4",
                name: "fig4:leaves",
                kernel: "fig4:leaves",
                stream_base: FIG4_STREAMS,
                base_seed: 4,
            },
            measure,
        ));
        let (addn, addmul) = (leaves[0], leaves[1]);
        if let Some(sp) = self.spans {
            sp.leaf(
                "fig4.leaves",
                addn + addmul,
                2,
                Some(t0.elapsed().as_secs_f64() * 1e3),
            );
        }

        let add_n = kreg::id::ADD_N.name();
        let addmul_1 = kreg::id::ADDMUL_1.name();
        let mut g = CallGraph::new();
        g.add_node("decrypt", 120.0);
        g.add_node("mpz_mul", 40.0);
        g.add_node("mod_hw", 30.0);
        g.add_node("mpz_mod", 60.0);
        g.add_node("mpz_add", 10.0);
        g.add_node("mpz_sub", 10.0);
        g.add_node("mpz_gcdext", 200.0);
        g.add_node(add_n, addn);
        g.add_node(addmul_1, addmul);
        for (caller, callee, count) in [
            ("decrypt", "mpz_mul", 4.0),
            ("decrypt", "mod_hw", 4.0),
            ("decrypt", "mpz_mod", 2.0),
            ("decrypt", "mpz_add", 2.0),
            ("decrypt", "mpz_sub", 2.0),
            ("mpz_mul", addmul_1, k as f64),
            ("mod_hw", addmul_1, k as f64),
            ("mod_hw", add_n, 2.0),
            ("mpz_mod", add_n, 1.0),
            ("mpz_add", add_n, 1.0),
            ("mpz_sub", add_n, 1.0),
            ("mpz_gcdext", add_n, 3.0),
        ] {
            g.add_call(caller, callee, count)
                .expect("nodes declared above");
        }
        g
    }

    /// Phase 4: assembles the global selector from the Fig. 4 call
    /// graph and the formulated curves.
    pub fn selector(&self, k: usize) -> Selector {
        let graph = self.fig4_graph(k);
        let curves = self.curves(k);
        let mut sel = Selector::new(graph);
        for (name, curve) in curves {
            sel.set_leaf_curve(name, curve);
        }
        sel
    }

    /// One axis of the cross-product (core config × accelerator level)
    /// design space: measures the whole mpn registry workload at `n`
    /// limbs under every accelerator level on *this context's* core
    /// model, pricing each point as core area (zero for the in-order
    /// baseline, the ROB/RS/LSQ/predictor gate cost for out-of-order
    /// members) plus the level's custom-instruction area.
    ///
    /// Callers build the full two-axis lattice by collecting the axes
    /// of one context per core configuration and handing the union to
    /// [`mark_pareto_front`]. Points return in the fixed level order
    /// (base, then ascending lanes) regardless of thread count; with a
    /// cache attached (and injection off) each level is served under
    /// `fingerprint × level-tag × "xprod@core" × n`.
    pub fn cross_product_axis(&self, n: usize) -> Vec<CrossPoint> {
        let _phase = self.phase_span("phase4.cross_product");
        let config = self.config;
        let core_id = config.core_id();
        if let Some(sp) = self.spans {
            sp.set_attr("n", n as u64);
            sp.set_attr("core", core_id.as_str());
        }
        let fp = config.fingerprint();
        let core_area = config.core.area_gates();
        let cache = self.measurement_cache();
        let levels = XPROD_LEVELS;
        let measured = self.pool().par_map(&levels, |_, v| {
            let measure = || {
                // The full registry workload, warmed then measured with
                // the phase-3 seeds; verification off (measurement, not
                // admission — xooo_gate owns the co-sim identity check).
                let mut iss = IssMpn::with_variant(config.clone(), *v);
                iss.set_verify(false);
                let mut total = 0.0;
                for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
                    let _ = iss.warm_up(|iss| iss.measure32(desc.id, n, 7));
                    total += iss
                        .measure32(desc.id, n, 8)
                        .expect("registry kernels use register conventions");
                }
                total
            };
            match cache {
                Some(kc) => kc.scalar(
                    &kcache::key(fp, &v.tag(), &format!("xprod@{core_id}"), n as u64, 0x0708),
                    measure,
                ),
                None => measure(),
            }
        });
        self.drain_worker_spans();
        levels
            .iter()
            .zip(measured)
            .map(|(v, cycles)| {
                let accel_area = match v {
                    KernelVariant::Base => 0,
                    KernelVariant::Accelerated {
                        add_lanes,
                        mac_lanes,
                    } => {
                        crate::insns::ldur().area
                            + crate::insns::stur().area
                            + crate::insns::add_k(*add_lanes).area
                            + crate::insns::mac_k(*mac_lanes).area
                    }
                };
                let point = CrossPoint {
                    core: core_id.clone(),
                    level: v.tag(),
                    area: core_area + accel_area,
                    cycles,
                    on_front: false,
                };
                if let Some(sp) = self.spans {
                    sp.leaf(
                        format!("xprod.{}@{}", point.level, point.core),
                        cycles,
                        1,
                        None,
                    );
                }
                point
            })
            .collect()
    }

    /// One resilient ad-hoc ISS measurement (the bench harnesses' entry
    /// point): measures `kernel` at `n` limbs under `variant`, warming
    /// with `warm_seed` and measuring with `seed`, applying the
    /// context's retry / fallback / quarantine policy.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Quarantined`] without measuring when the
    /// kernel is quarantined (callers degrade to a model estimate), or
    /// the underlying typed error when the kernel fails fault-free.
    pub fn measure_kernel_cycles(
        &self,
        variant: KernelVariant,
        kernel: KernelId,
        n: usize,
        warm_seed: u64,
        seed: u64,
    ) -> Result<f64, KernelError> {
        let t0 = Instant::now();
        let unit = format!("{}@{}", kernel.name(), variant.tag());
        if self.is_quarantined(kernel.name()) {
            let failures = *self.state().failures.get(kernel.name()).unwrap_or(&0);
            self.note_degradation(Degradation {
                phase: "measure",
                unit,
                kernel: kernel.name().to_owned(),
                error: format!("quarantined after {failures} failed units"),
                attempts: 0,
                retry_seeds: Vec::new(),
                action: "quarantined",
                code: codes::KERNEL_QUARANTINED,
            });
            return Err(KernelError::Quarantined { kernel, failures });
        }
        let stream_base = ADHOC_STREAMS
            + xpar::memo::checksum(&format!("measure:{unit}"), &[n as f64, seed as f64])
                % (1 << 20)
                * STREAM_STRIDE;
        let report = run_resilient(
            &self.policy,
            &Unit {
                phase: "measure",
                name: &unit,
                kernel: kernel.name(),
                stream_base,
                base_seed: seed,
            },
            |seed, arm| {
                let iss = IssMpn::with_variant(self.config.clone(), variant);
                let mut iss = armed(iss, self.policy.cycle_budget, arm);
                let _ = iss.warm_up(|iss| iss.measure32(kernel, n, warm_seed));
                iss.measure32(kernel, n, seed)
            },
        )?;
        let cycles = self.absorb(report);
        if let Some(sp) = self.spans {
            sp.leaf_with(
                format!("measure.{unit}"),
                cycles,
                1,
                Some(t0.elapsed().as_secs_f64() * 1e3),
                &[("fidelity", Json::from("accurate"))],
            );
        }
        Ok(cycles)
    }
}

/// One resilient measurement outcome, produced inside a worker task and
/// folded into the flow state serially at merge time.
struct UnitReport<T> {
    value: T,
    degradation: Option<Degradation>,
    /// Whether the unit exhausted its injected-fault retries (counts
    /// toward the kernel's quarantine at merge time).
    failed: bool,
}

impl<T> UnitReport<T> {
    fn clean(value: T) -> Self {
        UnitReport {
            value,
            degradation: None,
            failed: false,
        }
    }

    fn map<U>(self, f: impl FnOnce(T) -> U) -> UnitReport<U> {
        UnitReport {
            value: f(self.value),
            degradation: self.degradation,
            failed: self.failed,
        }
    }
}

/// The identity of one ISS measurement unit: what its degradations
/// record and where its attempts draw their seeds and fault streams.
struct Unit<'u> {
    phase: &'static str,
    name: &'u str,
    kernel: &'u str,
    /// The fault-plan stream of the first attempt; retry `k` uses
    /// `stream_base + k`.
    stream_base: u64,
    /// The stimulus seed of the first attempt and of every fault-free
    /// run.
    base_seed: u64,
}

/// Serves one ISS measurement unit. With a cache attached the unit's
/// cycle vector is served under `key` (entries of another arity than
/// `len` are recomputed), and a miss calls `measure` once with
/// `(base_seed, None)`; otherwise the unit runs [`run_resilient`].
///
/// # Panics
///
/// Panics if the unit fails without injected faults, whichever way it
/// was served: that is a genuine defect, not a measurement.
fn serve_unit<E>(
    cache: Option<&KCache>,
    key: &str,
    len: usize,
    policy: &FaultPolicy,
    unit: &Unit<'_>,
    measure: impl Fn(u64, Option<(PlanSpec, u64)>) -> Result<Vec<f64>, E>,
) -> UnitReport<Vec<f64>>
where
    E: std::fmt::Display + Into<Error>,
{
    let served = match cache {
        Some(kc) => kc
            .try_get_or_compute(key, len, || measure(unit.base_seed, None))
            .map(UnitReport::clean),
        None => run_resilient(policy, unit, measure),
    };
    served.unwrap_or_else(|e| panic!("{} unit {} failed fault-free: {e}", unit.phase, unit.name))
}

/// Runs one measurement unit under the resilience protocol: bounded
/// retries with deterministically reseeded stimuli (each attempt on its
/// own fault-plan stream), then a fault-free fallback. Pure w.r.t. the
/// unit's identity — all state effects are deferred to the serial
/// merge via the returned report.
///
/// # Errors
///
/// Returns the unit's error when it fails without injected faults —
/// its only attempt with no campaign, or the fallback under one: that
/// is a genuine defect no retry can mend.
fn run_resilient<T, E>(
    policy: &FaultPolicy,
    unit: &Unit<'_>,
    measure: impl Fn(u64, Option<(PlanSpec, u64)>) -> Result<T, E>,
) -> Result<UnitReport<T>, E>
where
    E: std::fmt::Display + Into<Error>,
{
    let degradation =
        |err: E, attempts: u32, retry_seeds: Vec<u64>, action: &'static str| Degradation {
            phase: unit.phase,
            unit: unit.name.to_owned(),
            kernel: unit.kernel.to_owned(),
            error: err.to_string(),
            attempts,
            retry_seeds,
            action,
            code: Into::<Error>::into(err).code(),
        };
    let mut retry_seeds = Vec::new();
    let mut last_err = None;
    for attempt in 0..=policy.max_retries {
        let seed = policy.retry_seed(unit.base_seed, attempt);
        if attempt > 0 {
            retry_seeds.push(seed);
        }
        let arm = policy
            .plan
            .map(|spec| (spec, unit.stream_base.wrapping_add(u64::from(attempt))));
        match measure(seed, arm) {
            Ok(value) => {
                return Ok(UnitReport {
                    value,
                    degradation: last_err
                        .map(|e| degradation(e, attempt + 1, retry_seeds, "retried-ok")),
                    failed: false,
                })
            }
            Err(e) if policy.injecting() => last_err = Some(e),
            // A fault-free failure is genuine; retrying cannot help.
            Err(e) => return Err(e),
        }
    }
    let err = last_err.expect("every injected attempt failed");
    let value = measure(unit.base_seed, None)?;
    Ok(UnitReport {
        value,
        degradation: Some(degradation(
            err,
            policy.max_retries + 1,
            retry_seeds,
            "fallback-fault-free",
        )),
        failed: true,
    })
}

/// Sets up `iss` for one measurement attempt: golden verification on
/// exactly when a fault plan is armed (so corrupted results surface as
/// typed divergences), the policy's watchdog budget, and the plan on
/// its stream.
fn armed(mut iss: IssMpn, cycle_budget: u64, arm: Option<(PlanSpec, u64)>) -> IssMpn {
    iss.set_verify(arm.is_some());
    iss.set_cycle_budget(cycle_budget);
    if let Some((spec, stream)) = arm {
        iss.set_fault_plan(spec, stream);
    }
    iss
}

/// One phase-1 measurement unit: a registered kernel characterized at
/// one radix width against a pre-drawn stimulus plan. The stimulus
/// space, monomial basis and cache-key unit all come from the kernel's
/// registry descriptor.
struct CharactTask {
    width: u32,
    desc: &'static KernelDescriptor,
    basis: Vec<Monomial>,
    plan: StimulusPlan,
}

impl CharactTask {
    fn name(&self) -> &'static str {
        self.desc.id.name()
    }
}

/// Plans every characterization unit at `max_limbs`, serially: the
/// shared RNG is consumed in a fixed order. The multi-precision kernels
/// keep their historical plan order (width-major over the registry) and
/// block kernels are appended afterwards, so their registration does
/// not perturb the existing stimulus streams (which are part of the
/// cache identity).
fn charact_tasks(max_limbs: usize, options: &CharactOptions) -> Vec<CharactTask> {
    let mut rng = StdRng::seed_from_u64(0xC0DE_2002);
    let mut tasks = Vec::with_capacity(2 * kreg::registry().len());
    let plan_for = |desc: &'static KernelDescriptor, width: u32, rng: &mut StdRng| {
        let spec = desc
            .stimulus
            .unwrap_or_else(|| panic!("kernel {} has no stimulus space", desc.id));
        CharactTask {
            width,
            desc,
            basis: spec.basis(),
            plan: plan_stimuli(&spec.space(max_limbs), options, rng),
        }
    };
    for width in [32u32, 16] {
        for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
            tasks.push(plan_for(desc, width, &mut rng));
        }
    }
    for desc in kreg::registry().iter().filter(|d| d.lib != LibKind::Mpn) {
        for &width in desc.widths() {
            tasks.push(plan_for(desc, width, &mut rng));
        }
    }
    tasks
}

/// The first characterization unit at `max_limbs` whose training
/// stimuli hold fewer distinct points than its basis has terms, so that
/// its fit is degenerate, or `None` when every unit can be fitted.
pub(crate) fn undetermined_unit(max_limbs: usize, options: &CharactOptions) -> Option<String> {
    charact_tasks(max_limbs, options)
        .into_iter()
        .find(|t| {
            let points: BTreeSet<&Vec<u64>> = t.plan.train.iter().collect();
            points.len() < t.basis.len()
        })
        .map(|t| format!("{}.r{}", t.name(), t.width))
}

/// Content digest of a stimulus plan (folded into the kernel-cycle
/// cache key so changed characterization options cannot be served stale
/// measurements).
fn plan_digest(plan: &StimulusPlan) -> u64 {
    let flat: Vec<f64> = plan
        .points()
        .flat_map(|p| p.iter().map(|&v| v as f64))
        .collect();
    xpar::memo::checksum(
        &format!("plan:t{}v{}", plan.train.len(), plan.validation.len()),
        &flat,
    )
}

/// Runs one characterization task on a fresh simulation harness (each
/// worker owns its `Cpu`), returning the cycle count of every planned
/// stimulus in plan order. The harness is chosen by the kernel's
/// registered calling convention: register-convention kernels run
/// through the ISS ops provider, block-memory kernels through their
/// dedicated engine. `seed_base` is the pre-advance stimulus seed
/// (`1` is the canonical stream; retries reseed it), and `arm`
/// attaches a fault plan on the given stream — block kernels have no
/// fault ports and always measure clean.
fn measure_charact_task(
    config: &CpuConfig,
    variant: KernelVariant,
    t: &CharactTask,
    seed_base: u64,
    arm: Option<(PlanSpec, u64)>,
    cycle_budget: u64,
) -> Result<Vec<f64>, KernelError> {
    // Characterization measures timing only, and one warm-up stimulus
    // is discarded so every task starts from the same (warm) cache
    // state regardless of which worker runs it.
    if matches!(t.desc.conv, CallConv::BlockMem { .. }) {
        let mut sim = SimSha1::new(config.clone());
        sim.set_verify(false);
        sim.measure_blocks(1, 0x5EED);
        let mut seed = seed_base;
        Ok(t.plan
            .points()
            .map(|params| {
                seed = seed.wrapping_add(SEED_STEP);
                sim.measure_blocks(params[0] as usize, seed)
            })
            .collect())
    } else {
        let kernel = t.desc.id;
        let mut iss = armed(
            IssMpn::with_variant(config.clone(), variant),
            cycle_budget,
            arm,
        );
        iss.warm_up(|iss| {
            if t.width == 32 {
                iss.measure32(kernel, 1, 0x5EED)
            } else {
                iss.measure16(kernel, 1, 0x5EED)
            }
        })?;
        let mut seed = seed_base;
        let mut out = Vec::with_capacity(t.plan.len());
        for params in t.plan.points() {
            seed = seed.wrapping_add(SEED_STEP);
            let n = params[0] as usize;
            let cycles = if t.width == 32 {
                iss.measure32(kernel, n, seed)
            } else {
                iss.measure16(kernel, n, seed)
            };
            out.push(cycles?);
        }
        Ok(out)
    }
}

/// One evaluated design-space candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The configuration.
    pub config: ModExpConfig,
    /// Estimated cycles for the workload.
    pub cycles: f64,
}

/// Phase 2 result: the ranked design space plus timing bookkeeping.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// All candidates, sorted fastest-first.
    pub ranked: Vec<Candidate>,
    /// Wall-clock time of the whole exploration.
    pub elapsed: Duration,
    /// Candidates evaluated.
    pub evaluated: usize,
}

impl ExplorationResult {
    /// The winning configuration.
    pub fn best(&self) -> &Candidate {
        &self.ranked[0]
    }
}

/// One co-simulated candidate of the macro-model validation (see
/// [`FlowCtx::cosim_sample`]).
#[derive(Debug, Clone)]
pub struct CosimSample {
    /// The candidate.
    pub config: ModExpConfig,
    /// Its macro-model estimate.
    pub estimated_cycles: f64,
    /// Its co-simulated cycles (the macro-model estimate when a
    /// quarantined kernel ruled the ISS out).
    pub cosim_cycles: f64,
    /// The estimate's absolute error against co-simulation, in percent.
    pub error_pct: f64,
    /// Co-simulation wall time over estimation wall time.
    pub estimation_speedup: f64,
}

/// The accelerator levels the cross-product axis sweeps: the base core
/// plus the four A-D resource levels (the same lattice the fast-path
/// equivalence suite covers).
const XPROD_LEVELS: [KernelVariant; 5] = [
    KernelVariant::Base,
    KernelVariant::Accelerated {
        add_lanes: 2,
        mac_lanes: 1,
    },
    KernelVariant::Accelerated {
        add_lanes: 4,
        mac_lanes: 2,
    },
    KernelVariant::Accelerated {
        add_lanes: 8,
        mac_lanes: 4,
    },
    KernelVariant::Accelerated {
        add_lanes: 16,
        mac_lanes: 4,
    },
];

/// One point of the cross-product (core config × accelerator level)
/// design space: its coordinates on both axes, its price and speed, and
/// its Pareto verdict (filled in by [`mark_pareto_front`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossPoint {
    /// The core-configuration id (`"io"`, `"ooo-…"`).
    pub core: String,
    /// The accelerator-level tag (`"base"`, `"accel-a4m2"`, …).
    pub level: String,
    /// Total gate-equivalent price: core structures + custom-instruction
    /// datapaths.
    pub area: u64,
    /// Registry-workload cycles at this point.
    pub cycles: f64,
    /// Whether the point survives Pareto filtering over (area, cycles).
    pub on_front: bool,
}

impl CrossPoint {
    /// The report/JSON form of this point (schema 7's per-point `core`
    /// field included).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("core", self.core.as_str())
            .set("level", self.level.as_str())
            .set("area", self.area)
            .set("cycles", self.cycles)
            .set("on_front", self.on_front)
    }
}

/// Marks every point of the combined (possibly multi-core) lattice that
/// is Pareto-optimal over (area, cycles) — both lower-better — and
/// returns the front size. A point is dominated when another point is
/// no worse on both axes and strictly better on at least one;
/// duplicate coordinates stay on the front together.
pub fn mark_pareto_front(points: &mut [CrossPoint]) -> usize {
    let flags: Vec<bool> = (0..points.len())
        .map(|i| {
            !points.iter().enumerate().any(|(j, q)| {
                j != i
                    && q.area <= points[i].area
                    && q.cycles <= points[i].cycles
                    && (q.area < points[i].area || q.cycles < points[i].cycles)
            })
        })
        .collect();
    let mut size = 0;
    for (p, flag) in points.iter_mut().zip(flags) {
        p.on_front = flag;
        size += usize::from(flag);
    }
    size
}

/// Seed of the fixed phase-2 workload.
const WORKLOAD_SEED: u64 = 0xE4B0;

/// The fixed workload every phase-2 estimate and co-simulation
/// exponentiates: `base^exp mod m` for an odd `bits`-bit modulus.
struct Workload {
    m: Natural,
    base: Natural,
    exp: Natural,
}

impl Workload {
    fn new(bits: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(WORKLOAD_SEED);
        let mut m = Natural::random_bits(&mut rng, bits);
        if m.is_even() {
            m = &m + &Natural::one();
        }
        let base = Natural::random_below(&mut rng, &m);
        let exp = Natural::random_bits(&mut rng, bits);
        Workload { m, base, exp }
    }
}

/// Macro-model estimate of one program on `work`, with its result.
/// Caching benefits repeat calls, so the costed run sees a warm
/// cross-call cache. A warm-up run would leave only the setup stage's
/// entries in it, so [`prime`] runs just that stage and its cost is
/// discarded; under [`CacheMode::None`] nothing is cached and priming
/// is skipped. The estimate equals the cost of the second of two full
/// runs, bit for bit.
fn estimate(
    models: &KernelModels,
    work: &Workload,
    config: &ModExpConfig,
    glue_cost: f64,
) -> Result<(Natural, f64), ModExpError> {
    let mut ops = models.modeled_ops(glue_cost);
    let mut cache = ExpCache::new();
    if config.cache != CacheMode::None {
        prime(&mut ops, &work.base, &work.exp, &work.m, config, &mut cache)?;
        MpnOps::<u32>::reset(&mut ops);
    }
    let result = mod_exp(&mut ops, &work.base, &work.exp, &work.m, config, &mut cache)?;
    Ok((result, MpnOps::<u32>::cycles(&ops)))
}

/// Evaluates a single candidate with macro-model metering on the same
/// fixed workload as [`FlowCtx::explore`], returning estimated cycles.
///
/// # Errors
///
/// Returns [`ModExpError`] on configuration failure.
pub fn explore_single(
    models: &KernelModels,
    candidate: &ModExpConfig,
    bits: usize,
    glue_cost: f64,
) -> Result<f64, ModExpError> {
    estimate(models, &Workload::new(bits), candidate, glue_cost).map(|(_, cycles)| cycles)
}

/// One ISS co-simulation pass, optionally with a fault arm. Kernel-level
/// errors (divergence, timeout) and — under injection — modexp-level
/// failures are surfaced as the retryable `Err(Error)`; a fault-free
/// [`ModExpError`] is a genuine defect and passes through in the value.
///
/// A fault-free pass arms the provider's call memo, so repeated
/// constant-time kernel calls replay at functional speed with every
/// cycle unchanged. A faulted pass verifies every call and is lost at
/// its first kernel error, so from then on the provider serves golden
/// results without simulating.
fn cosim_once(
    config: &CpuConfig,
    variant: KernelVariant,
    candidate: &ModExpConfig,
    bits: usize,
    glue_cost: f64,
    arm: Option<(PlanSpec, u64)>,
    cycle_budget: u64,
) -> Result<Result<f64, ModExpError>, Error> {
    let mut iss = armed(
        IssMpn::with_variant(config.clone(), variant),
        cycle_budget,
        arm,
    );
    iss.set_glue_cost(glue_cost);
    if arm.is_some() {
        iss.golden_after_error();
    } else {
        iss.memoize_calls();
    }
    let run = cosim_run(&mut iss, &Workload::new(bits), candidate);
    if let Some(e) = iss.kernel_errors().first() {
        return Err(Error::from(e.clone()));
    }
    match run {
        Ok(cycles) => Ok(Ok(cycles)),
        // Under injection a modexp failure is a fault artifact: retry.
        Err(e) if arm.is_some() => Err(Error::from(e)),
        Err(e) => Ok(Err(e)),
    }
}

/// The co-simulated exponentiation of `work` under `candidate`: a
/// discarded warm-up run, then the timed run. Returns the timed run's
/// cycles.
fn cosim_run(
    iss: &mut IssMpn,
    work: &Workload,
    candidate: &ModExpConfig,
) -> Result<f64, ModExpError> {
    let Workload { m, base, exp } = work;
    let mut cache = ExpCache::new();
    // A full warm-up run, not `prime`: it also warms the simulated I- and
    // D-caches (and an out-of-order core's predictor), which are part of
    // the measured state.
    iss.warm_up(|iss| mod_exp(iss, base, exp, m, candidate, &mut cache))?;
    mod_exp(iss, base, exp, m, candidate, &mut cache)?;
    Ok(MpnOps::<u32>::cycles(iss))
}

/// The shared user-register load/store plumbing as a selection-level
/// instruction (counted once however many datapaths share it).
fn ur_ls_insn() -> CustomInsn {
    let area = crate::insns::ldur().area + crate::insns::stur().area;
    CustomInsn::new("ur_ls", 1, area)
}

/// One phase-3 measurement unit: one kernel under one kernel variant
/// (its resource level), warmed with seed 7 and measured with seed 8 on
/// a private ISS — exactly the serial per-point procedure, so the
/// curves are identical for any thread count.
struct CurveTask {
    kernel: KernelId,
    variant: KernelVariant,
    /// `Some((family, lanes))` for accelerated points; `None` = base.
    insn: Option<(&'static str, u32)>,
    /// Index into the admitted generated variants, when this task
    /// measures an `xopt`-generated library instead of the hand-written
    /// one at the same resource level.
    gen: Option<usize>,
    /// Whether this measurement becomes an A-D curve point (hand-written
    /// shadows of admitted generated variants are measured for the
    /// side-by-side record only).
    on_curve: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubkey::ops::opname;
    use xfault::FaultSite;
    use xr32::xcore::MemoStats;

    /// Co-simulates every candidate on `variant`'s kernels at each of
    /// `bits` with the call memo armed and without, and checks they
    /// agree bit for bit: the timed run's cycles and both cores'
    /// architectural state. Returns the memo's summed statistics.
    fn memo_equals_plain(variant: KernelVariant, bits: &[usize]) -> MemoStats {
        let config = CpuConfig::default();
        let budget = FaultPolicy::default().cycle_budget;
        let pool = xpar::Pool::new(2);
        let candidates = ModExpConfig::enumerate();
        assert_eq!(candidates.len(), 450);
        let mut total = MemoStats::default();
        for &bits in bits {
            let work = Workload::new(bits);
            let runs = pool.par_map(&candidates, |_, candidate| {
                let run = |memo: bool| {
                    let base = IssMpn::with_variant(config.clone(), variant);
                    let mut iss = armed(base, budget, None);
                    iss.set_glue_cost(4.0);
                    if memo {
                        iss.memoize_calls();
                    }
                    let cycles = cosim_run(&mut iss, &work, candidate).expect("co-simulates");
                    let observed = (cycles.to_bits(), iss.arch_state32(), iss.arch_state16());
                    (observed, iss.memo_stats())
                };
                let ((memo, stats), (plain, _)) = (run(true), run(false));
                assert_eq!(memo, plain, "{candidate} on {variant:?} at {bits} bits");
                stats
            });
            for s in runs {
                total.calls += s.calls;
                total.replays += s.replays;
                total.tabled += s.tabled;
            }
        }
        total
    }

    #[test]
    fn memoized_cosimulation_equals_the_plain_model_for_every_candidate() {
        let stats = memo_equals_plain(KernelVariant::Base, &[64, 128]);
        assert!(stats.replays > 0, "the memo replayed no call: {stats:?}");
        assert!(stats.tabled > 0, "the memo tabled no call: {stats:?}");
    }

    /// The same on an accelerated library, whose `div_qhat` sits at
    /// other pcs and I-lines.
    #[test]
    fn memoized_accelerated_cosimulation_equals_the_plain_model() {
        let variant = KernelVariant::Accelerated {
            add_lanes: 4,
            mac_lanes: 2,
        };
        let stats = memo_equals_plain(variant, &[64]);
        assert!(stats.replays > 0 && stats.tabled > 0, "{stats:?}");
    }

    fn quick_options() -> CharactOptions {
        CharactOptions {
            train_samples: 12,
            validation_points: 5,
        }
    }

    #[test]
    fn characterization_fits_linear_kernels_well() {
        let cfg = CpuConfig::default();
        let models = FlowBuilder::new(&cfg)
            .build()
            .unwrap()
            .characterize(16, &quick_options());
        for op in opname::ALL {
            assert!(models.models32.contains_key(op), "{op} missing (r32)");
            assert!(models.models16.contains_key(op), "{op} missing (r16)");
        }
        let q = models.quality[&(opname::ADDMUL_1, 32)];
        assert!(q.mae_pct < 15.0, "addmul_1 fit error {}%", q.mae_pct);
        assert!(models.mean_abs_error_pct() < 20.0);
        // The registered SHA-1 block kernel is characterized too (the
        // registry's extensibility proof): linear in the block count.
        assert!(models.models32.contains_key(opname::SHA1), "sha1 missing");
        let qs = models.quality[&(opname::SHA1, 32)];
        assert!(qs.mae_pct < 15.0, "sha1 fit error {}%", qs.mae_pct);
        let one = models.models32[opname::SHA1].predict(&[1]);
        let four = models.models32[opname::SHA1].predict(&[4]);
        assert!(four > 3.0 * one, "sha1 cycles scale with blocks");
        // Per-limb cost: addmul > add (multiplies dominate).
        let am = models.models32[opname::ADDMUL_1].predict(&[16]);
        let an = models.models32[opname::ADD_N].predict(&[16]);
        assert!(am > an, "addmul {am} vs add {an}");
    }

    #[test]
    fn exploration_ranks_the_space_and_best_beats_baseline() {
        let cfg = CpuConfig::default();
        let ctx = FlowBuilder::new(&cfg).build().unwrap();
        let models = ctx.characterize(8, &quick_options());
        let result = ctx.explore(&models, 128, 4.0).unwrap();
        assert_eq!(result.evaluated, 450);
        let best = result.best();
        let baseline = result
            .ranked
            .iter()
            .find(|c| c.config == ModExpConfig::baseline())
            .expect("baseline in the space");
        assert!(
            best.cycles < baseline.cycles / 2.0,
            "exploration should find large algorithmic wins: best {} vs baseline {}",
            best.cycles,
            baseline.cycles
        );
        // The winner should use a modern reduction, CRT and caching.
        assert_ne!(best.config.mul, pubkey::MulAlgo::MulDiv);
    }

    #[test]
    fn ad_curves_are_monotone_in_resources() {
        let cfg = CpuConfig::default();
        let curves = FlowBuilder::new(&cfg).build().unwrap().curves(32);
        let addn = &curves[opname::ADD_N];
        assert_eq!(addn.len(), 5);
        let pts = addn.points();
        assert_eq!(pts[0].area(), 0);
        for w in pts.windows(2) {
            assert!(w[0].cycles > w[1].cycles, "more lanes, fewer cycles");
        }
        let addmul = &curves[opname::ADDMUL_1];
        assert_eq!(addmul.len(), 4);
    }

    #[test]
    fn generated_variants_drive_the_curves() {
        let cfg = CpuConfig::default();
        let ctx = FlowBuilder::new(&cfg).build().unwrap();
        let (curves, records) = ctx.curves_with_variants(16);
        // One record per resource level of the two Generated kernels.
        assert_eq!(records.len(), 7);
        for r in &records {
            assert!(r.admitted, "{} {} rejected: {:?}", r.kernel, r.tag, r.error);
            assert!(r.lint_ok && r.golden_ok);
            let gen = r.cycles_generated.expect("admitted variants are measured");
            // The generated variant must be within 5% of (or beat) the
            // hand-written library at the same level — the list
            // scheduler recovers the hand-written tail's interlock
            // stalls, so in practice it wins outright.
            assert!(
                gen <= r.cycles_hand * 1.05,
                "{} {}: generated {gen} vs hand-written {}",
                r.kernel,
                r.tag,
                r.cycles_hand
            );
        }
        // The curve points are the generated measurements: each
        // accelerated point's cycles equal the record's.
        let addn = &curves[opname::ADD_N];
        let addn_recs: Vec<_> = records
            .iter()
            .filter(|r| r.kernel == kreg::id::ADD_N)
            .collect();
        for (p, r) in addn.points().iter().skip(1).zip(addn_recs) {
            assert_eq!(p.cycles, r.cycles_generated.unwrap(), "{}", r.tag);
        }
        // No degradations: every level was admitted, nothing fell back.
        assert!(ctx.degradations().is_empty());
    }

    #[test]
    fn selector_improves_with_budget() {
        let cfg = CpuConfig::default();
        let sel = FlowBuilder::new(&cfg).build().unwrap().selector(32);
        let root = sel.root_curve("decrypt").unwrap();
        assert!(root.len() >= 3);
        let no_hw = sel.select("decrypt", 0).unwrap().unwrap();
        let big = sel.select("decrypt", 1_000_000).unwrap().unwrap();
        assert!(no_hw.cycles > big.cycles);
        assert_eq!(no_hw.area(), 0);
    }

    #[test]
    fn cross_product_front_spans_both_cores() {
        // The two-axis lattice: one axis per core configuration, union
        // handed to the Pareto filter. The front must mix core models —
        // the cheap in-order/base corner is undominated on area, and an
        // out-of-order point must win somewhere on cycles.
        let io_cfg = CpuConfig::default();
        let ooo_cfg = CpuConfig::ooo();
        let mut points = FlowBuilder::new(&io_cfg)
            .build()
            .unwrap()
            .cross_product_axis(6);
        points.extend(
            FlowBuilder::new(&ooo_cfg)
                .build()
                .unwrap()
                .cross_product_axis(6),
        );
        assert_eq!(points.len(), 10);
        let front = mark_pareto_front(&mut points);
        assert!(front >= 2, "degenerate front: {points:?}");
        assert_eq!(front, points.iter().filter(|p| p.on_front).count());
        assert!(
            points.iter().any(|p| p.on_front && p.core == "io"),
            "no in-order point on the front: {points:?}"
        );
        assert!(
            points
                .iter()
                .any(|p| p.on_front && p.core.starts_with("ooo-")),
            "no out-of-order point on the front: {points:?}"
        );
        // The in-order/base corner is the unique area minimum, so it is
        // always Pareto-optimal.
        let io_base = points
            .iter()
            .find(|p| p.core == "io" && p.level == "base")
            .unwrap();
        assert_eq!(io_base.area, 0);
        assert!(io_base.on_front);
        // OoO points price in the core structures on top of the level.
        let ooo_base = points
            .iter()
            .find(|p| p.core.starts_with("ooo-") && p.level == "base")
            .unwrap();
        assert_eq!(ooo_base.area, ooo_cfg.core.area_gates());
        assert!(ooo_base.cycles < io_base.cycles, "OoO should beat in-order");
    }

    #[test]
    fn pareto_front_marks_dominance_correctly() {
        let mk = |core: &str, level: &str, area: u64, cycles: f64| CrossPoint {
            core: core.into(),
            level: level.into(),
            area,
            cycles,
            on_front: false,
        };
        let mut pts = vec![
            mk("io", "base", 0, 100.0),
            mk("io", "a", 50, 60.0),
            mk("ooo", "base", 40, 70.0), // dominated by (50,60)? no: area 40<50 → on front
            mk("ooo", "a", 90, 60.0),    // dominated by (50, 60.0)
            mk("ooo", "b", 120, 40.0),
        ];
        let front = mark_pareto_front(&mut pts);
        assert_eq!(front, 4);
        assert!(!pts[3].on_front, "strictly worse on area at equal cycles");
        // Duplicate coordinates stay on the front together.
        let mut dups = vec![mk("io", "x", 10, 10.0), mk("ooo", "x", 10, 10.0)];
        assert_eq!(mark_pareto_front(&mut dups), 2);
    }

    #[test]
    fn cross_product_axis_is_cache_and_thread_invariant() {
        let cfg = CpuConfig::ooo();
        let kc = KCache::new();
        let p4 = Pool::new(4);
        let serial = FlowBuilder::new(&cfg)
            .build()
            .unwrap()
            .cross_product_axis(4);
        let pooled_ctx = FlowBuilder::new(&cfg).pool(&p4).cache(&kc).build().unwrap();
        let cold = pooled_ctx.cross_product_axis(4);
        let warm = pooled_ctx.cross_product_axis(4);
        assert_eq!(serial, cold);
        assert_eq!(cold, warm);
        assert_eq!(kc.misses(), 5, "one computed entry per level");
        assert_eq!(kc.hits(), 5, "warm rerun served entirely from cache");
    }

    #[test]
    fn pooled_flow_is_thread_count_and_cache_invariant() {
        let cfg = CpuConfig::default();
        let opts = quick_options();
        let kc = KCache::new();
        let p1 = Pool::new(1);
        let p4 = Pool::new(4);
        let serial = FlowBuilder::new(&cfg).pool(&p1).build().unwrap();
        let pooled = FlowBuilder::new(&cfg).pool(&p4).cache(&kc).build().unwrap();

        // Phase 1: serial/uncached vs pooled/cold-cache vs pooled/warm.
        let a = serial.characterize(8, &opts);
        let b = pooled.characterize(8, &opts);
        let c = pooled.characterize(8, &opts);
        assert!(kc.hits() > 0, "second run must hit the memo cache");
        for op in opname::ALL {
            for n in [1u64, 4, 8] {
                let pa = a.models32[op].predict(&[n]);
                assert_eq!(pa, b.models32[op].predict(&[n]), "{op} n={n} threads");
                assert_eq!(pa, c.models32[op].predict(&[n]), "{op} n={n} warm cache");
                assert_eq!(
                    a.models16[op].predict(&[n]),
                    c.models16[op].predict(&[n]),
                    "{op} n={n} r16"
                );
            }
            let (qa, qc) = (a.quality[&(op, 32)], c.quality[&(op, 32)]);
            assert_eq!(qa.mae_pct, qc.mae_pct, "{op} fit quality");
        }

        // Phase 2: identical ranking for any thread count.
        let ea = serial.explore(&a, 128, 4.0).unwrap();
        let eb = pooled.explore(&b, 128, 4.0).unwrap();
        assert_eq!(ea.ranked.len(), eb.ranked.len());
        for (x, y) in ea.ranked.iter().zip(&eb.ranked) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.cycles, y.cycles);
        }

        // Phase 3: identical curves, and the warm pass hits the cache.
        let ca = serial.curves(16);
        let misses_before = kc.misses();
        let cb = pooled.curves(16);
        let cc = pooled.curves(16);
        // 2 base + 7 hand-written + 7 admitted generated variants.
        assert_eq!(kc.misses(), misses_before + 16, "sixteen cold curve points");
        for (name, curve) in &ca {
            for (i, p) in curve.points().iter().enumerate() {
                assert_eq!(p.cycles, cb[name].points()[i].cycles, "{name}[{i}]");
                assert_eq!(p.cycles, cc[name].points()[i].cycles, "{name}[{i}] warm");
            }
        }
        // A fault-free flow records no resilience degradations. Fit
        // quality is a workload fact, so `bad-fit` entries may appear —
        // but identically for any thread count or cache state.
        let non_fit = |ds: Vec<Degradation>| -> Vec<Degradation> {
            ds.into_iter().filter(|d| d.action != "bad-fit").collect()
        };
        assert!(non_fit(serial.degradations()).is_empty());
        assert!(non_fit(pooled.degradations()).is_empty());
        // The pooled context characterized twice (cold + warm): the
        // bad-fit log must repeat the serial one exactly both times.
        let sd = serial.degradations();
        let pd = pooled.degradations();
        assert_eq!(pd.len(), 2 * sd.len());
        assert_eq!(&pd[..sd.len()], &sd[..], "cold-cache bad-fit log");
        assert_eq!(&pd[sd.len()..], &sd[..], "warm-cache bad-fit log");
    }

    #[test]
    fn cosimulation_agrees_with_models_roughly() {
        let cpu = CpuConfig::default();
        let ctx = FlowBuilder::new(&cpu).build().unwrap();
        let models = ctx.characterize(8, &quick_options());
        let cfg = ModExpConfig::optimized();
        let modeled = explore_single(&models, &cfg, 128, 4.0).unwrap();
        let cosim = ctx.cosimulate(&models, &cfg, 128, 4.0).unwrap();
        let err = ((modeled - cosim) / cosim).abs() * 100.0;
        assert!(
            err < 30.0,
            "macro-model estimate {modeled:.0} vs co-sim {cosim:.0} ({err:.1}% off)"
        );
    }

    #[test]
    fn faulty_characterization_is_thread_count_invariant() {
        let cfg = CpuConfig::default();
        let opts = quick_options();
        let plan = PlanSpec::all_sites(7, 200);
        let run = |threads: usize| {
            let pool = Pool::new(threads);
            let ctx = FlowBuilder::new(&cfg)
                .pool(&pool)
                .fault_policy(FaultPolicy::with_plan(plan))
                .build()
                .unwrap();
            let models = ctx.characterize(8, &opts);
            (models, ctx.degradations())
        };
        let (ma, da) = run(1);
        let (mb, db) = run(4);
        assert_eq!(da, db, "degradation log must not depend on threads");
        for op in opname::ALL {
            for n in [1u64, 4, 8] {
                assert_eq!(
                    ma.models32[op].predict(&[n]),
                    mb.models32[op].predict(&[n]),
                    "{op} n={n}"
                );
            }
        }
    }

    #[test]
    fn certain_faults_fall_back_fault_free_and_quarantine() {
        let cfg = CpuConfig::default();
        // Every data load flips a bit: every injected attempt diverges.
        let plan = PlanSpec::new(3, 1_000_000, &[FaultSite::DataMem]);
        let ctx = FlowBuilder::new(&cfg)
            .fault_policy(FaultPolicy::with_plan(plan))
            .build()
            .unwrap();
        let clean = FlowBuilder::new(&cfg).build().unwrap();

        let c1 = ctx
            .measure_kernel_cycles(KernelVariant::Base, kreg::id::ADD_N, 8, 7, 8)
            .unwrap();
        let reference = clean
            .measure_kernel_cycles(KernelVariant::Base, kreg::id::ADD_N, 8, 7, 8)
            .unwrap();
        assert_eq!(c1, reference, "fallback measures without faults");
        let degs = ctx.degradations();
        assert_eq!(degs.len(), 1);
        assert_eq!(degs[0].action, "fallback-fault-free");
        assert_eq!(degs[0].attempts, xfault::DEFAULT_MAX_RETRIES + 1);
        assert_eq!(
            degs[0].retry_seeds.len(),
            xfault::DEFAULT_MAX_RETRIES as usize
        );

        // A second failed unit crosses the quarantine threshold…
        let c2 = ctx
            .measure_kernel_cycles(KernelVariant::Base, kreg::id::ADD_N, 8, 7, 8)
            .unwrap();
        assert_eq!(c2, reference);
        assert_eq!(ctx.quarantined(), vec![kreg::id::ADD_N.name().to_owned()]);
        assert_eq!(ctx.degradations()[1].action, "quarantined-fallback");

        // …after which the kernel is refused with a typed error.
        let e = ctx
            .measure_kernel_cycles(KernelVariant::Base, kreg::id::ADD_N, 8, 7, 8)
            .unwrap_err();
        assert!(matches!(e, KernelError::Quarantined { .. }), "{e}");
        assert_eq!(ctx.degradations()[2].action, "quarantined");
    }

    #[test]
    fn quarantined_kernels_degrade_to_macro_models() {
        let cfg = CpuConfig::default();
        let ctx = FlowBuilder::new(&cfg).build().unwrap();
        let models = ctx.characterize(8, &quick_options());
        ctx.quarantine(opname::ADDMUL_1);

        // Co-simulation of a candidate degrades to the macro-model
        // estimate instead of trusting a quarantined kernel's ISS.
        let candidate = ModExpConfig::optimized();
        let cosim = ctx.cosimulate(&models, &candidate, 128, 4.0).unwrap();
        let modeled = explore_single(&models, &candidate, 128, 4.0).unwrap();
        assert_eq!(cosim, modeled);
        let degs = ctx.degradations();
        assert_eq!(degs.last().unwrap().action, "fallback-macro-model");

        // Validation (and with it fig4/fig5-style pipelines) still
        // completes end to end.
        let sample = ctx.cosim_sample(&models, &candidate, 128, 4.0).unwrap();
        assert_eq!(sample.cosim_cycles, modeled);
        assert_eq!(sample.estimated_cycles, modeled);
        assert_eq!(
            sample.error_pct, 0.0,
            "degraded cosim equals the model estimate"
        );
    }

    #[test]
    fn degradations_render_as_json() {
        let d = Degradation {
            phase: "measure",
            unit: "mpn_add_n@base".to_owned(),
            kernel: "mpn_add_n".to_owned(),
            error: "diverged: \"x\"".to_owned(),
            attempts: 3,
            retry_seeds: vec![10, 20],
            action: "fallback-fault-free",
            code: codes::KERNEL_DIVERGENCE,
        };
        let json = d.to_json();
        assert!(json.contains("\"phase\":\"measure\""), "{json}");
        assert!(json.contains("\"retry_seeds\":[10,20]"), "{json}");
        assert!(json.contains("\"code\":1002"), "{json}");
        assert!(json.contains("\\\"x\\\""), "escapes quotes: {json}");
    }

    #[test]
    fn builder_rejects_unbounded_retries_under_quarantine() {
        let cfg = CpuConfig::default();
        let unbounded = FaultPolicy {
            max_retries: u32::MAX,
            ..FaultPolicy::default()
        };
        let err = match FlowBuilder::new(&cfg).fault_policy(unbounded).build() {
            Err(e) => e,
            Ok(_) => panic!("conflicting builder must be rejected"),
        };
        assert_eq!(err.code(), codes::FLOW_CONFLICT);
        // Without a quarantine threshold there is nothing to converge.
        assert!(FlowBuilder::new(&cfg)
            .fault_policy(FaultPolicy {
                quarantine_after: 0,
                ..unbounded
            })
            .build()
            .is_ok());
    }
}
