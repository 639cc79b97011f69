//! `wsp-bench`: the platform's benchmark, end to end and per layer.
//!
//! One invocation runs one workload in its own process (so its peak
//! RSS is its own): it sets up several times and keeps the last set-up,
//! measures operations for a fixed number of seconds, checks every
//! output it produced, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced). Every layer is reached
//! from outside through its public functions; no other crate carries
//! benchmark code. `README.md` has the metric tables and the reasons
//! behind each workload.

pub mod calib;
pub mod explore;
pub mod iss;
pub mod lattice;
pub mod layers;
pub mod serve;
pub mod spec;
pub mod stats;

use calib::Calibration;
use std::time::{Duration, Instant};
use xobs::Json;

/// Worker threads of the `xpar::Pool` every workload runs on. One: on
/// the two-vCPU host the benchmark was calibrated on, the second vCPU's
/// speed changed from run to run, and a two-worker pool waits for its
/// slower worker, so a warm exploration's median moved by up to 1.8x
/// between runs — more than any bound can absorb. The pool's own
/// dispatch cost is a layer micro-call on two workers.
pub const POOL_THREADS: usize = 1;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreCold,
    ExploreWarm,
    IssFast,
    IssInorder,
    IssOoo,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ExploreCold,
        Workload::ExploreWarm,
        Workload::IssFast,
        Workload::IssInorder,
        Workload::IssOoo,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore-cold",
            Workload::ExploreWarm => "explore-warm",
            Workload::IssFast => "iss-fast",
            Workload::IssInorder => "iss-inorder",
            Workload::IssOoo => "iss-ooo",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. [`Size::FULL`] is the benchmark; [`Size::TINY`] runs
/// the same code paths in a fraction of a second for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Modular-exponentiation width of the §4.3 exploration job.
    pub explore_bits: usize,
    /// Candidates the exploration job co-simulates.
    pub cosim_samples: usize,
    /// Operand sizes (limbs) of the ISS lattice.
    pub lattice: &'static [usize],
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Samples per layer micro-call; the metric is their median.
    pub micro_samples: usize,
}

impl Size {
    pub const FULL: Size = Size {
        explore_bits: 128,
        cosim_samples: 6,
        lattice: &lattice::SIZES,
        setup_reps: 5,
        micro_samples: 7,
    };

    pub const TINY: Size = Size {
        explore_bits: 64,
        cosim_samples: 1,
        lattice: &[1, 3, 8],
        setup_reps: 1,
        micro_samples: 1,
    };
}

/// Operations measured even when the time budget is spent: two, so a
/// traced run has one plain and one traced operation.
const MIN_OPS: usize = 2;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seeds every generated input; the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure operations for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

impl Params {
    /// True while the run should start another operation.
    fn more(&self, started: Instant, done: usize) -> bool {
        done < MIN_OPS || started.elapsed() < Duration::from_secs_f64(self.seconds)
    }

    /// Whether operation `i` of a traced run is a traced one: traced
    /// runs alternate plain and traced operations so both see the same
    /// machine state, and `trace_overhead_pct` compares the two.
    fn traced_op(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// One reported metric: the median of its samples, with their spread.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub iqr: f64,
    pub samples: usize,
}

impl Metric {
    /// The median of `samples`.
    pub fn of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: stats::median(samples),
            iqr: stats::iqr(samples),
            samples: samples.len(),
        }
    }

    /// A single measured (or counted) value.
    pub fn value(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            iqr: 0.0,
            samples: 1,
        }
    }
}

/// Every checked operation of a run. Each timed operation and each
/// output check counts as attempted; a wrong output or an error counts
/// as failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records `n` operations that completed and were checked.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Deterministic outputs for the given seed: their digest is pinned
    /// in `expected.json` for seed 1.
    pub results: Json,
    /// The span tree of a traced run, as a run report.
    pub trace: Option<Json>,
}

/// Runs one workload.
pub fn run(workload: Workload, params: &Params) -> Outcome {
    match workload {
        Workload::ExploreCold => explore::run(false, params),
        Workload::ExploreWarm => explore::run(true, params),
        Workload::IssFast => iss::run(lattice::Engine::Fast, params),
        Workload::IssInorder => iss::run(lattice::Engine::InOrder, params),
        Workload::IssOoo => iss::run(lattice::Engine::Ooo, params),
        Workload::ServeMixed => serve::run(params),
    }
}

/// The end-to-end metrics every workload reports, from its set-up
/// times (s, already scaled by [`Calibration::set_up_s`]) and its plain
/// operations' latencies (ms). Compute-bound operations come scaled to
/// the calibration host's speed ([`scaled_ms`]); operations that wait
/// on something other than this thread's computing (a daemon, a timer)
/// come as measured.
fn end_to_end(setup_s: &[f64], op_ms: &[f64]) -> Vec<Metric> {
    vec![
        Metric::of("setup_s", "s", setup_s),
        Metric::of("op_ms", "ms", op_ms),
        Metric::value("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// Plain operations, each `(ms, end)`, at the calibration host's speed.
fn scaled_ms(plain: &[(f64, Instant)], calib: &Calibration) -> Vec<f64> {
    plain
        .iter()
        .map(|&(ms, end)| calib.scaled_ms(ms, end))
        .collect()
}

/// Per-layer values a workload derives from its own operations. A
/// layer the workload does not exercise reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub kcache_hit_rate: f64,
    pub flow_characterize_s: f64,
    pub flow_explore_s: f64,
    pub flow_cosim_s: f64,
    pub flow_cross_product_s: f64,
    pub flow_unaccounted_pct: f64,
    pub flow_estimate_ms: f64,
    pub flow_cosim_ms: f64,
    pub flow_cosim_mcycles_per_s: f64,
    pub flow_estimation_speedup: f64,
    pub flow_model_error_pct: f64,
    pub sim_insns: f64,
    pub sim_cycles: f64,
    pub sim_ipc: f64,
    pub xserve_query_hit_p50_ms: f64,
    pub xserve_query_miss_p50_ms: f64,
    pub xserve_query_tail_ms: f64,
    pub xserve_job_overhead_ms: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        [
            ("kcache.hit_rate", "ratio", self.kcache_hit_rate),
            ("flow.characterize_s", "s", self.flow_characterize_s),
            ("flow.explore_s", "s", self.flow_explore_s),
            ("flow.cosim_s", "s", self.flow_cosim_s),
            ("flow.cross_product_s", "s", self.flow_cross_product_s),
            ("flow.unaccounted_pct", "%", self.flow_unaccounted_pct),
            ("flow.estimate_ms", "ms", self.flow_estimate_ms),
            ("flow.cosim_ms", "ms", self.flow_cosim_ms),
            (
                "flow.cosim_mcycles_per_s",
                "M/s",
                self.flow_cosim_mcycles_per_s,
            ),
            ("flow.estimation_speedup", "x", self.flow_estimation_speedup),
            ("flow.model_error_pct", "%", self.flow_model_error_pct),
            ("sim.insns", "count", self.sim_insns),
            ("sim.cycles", "count", self.sim_cycles),
            ("sim.ipc", "ratio", self.sim_ipc),
            (
                "xserve.query_hit_p50_ms",
                "ms",
                self.xserve_query_hit_p50_ms,
            ),
            (
                "xserve.query_miss_p50_ms",
                "ms",
                self.xserve_query_miss_p50_ms,
            ),
            ("xserve.query_tail_ms", "ms", self.xserve_query_tail_ms),
            ("xserve.job_overhead_ms", "ms", self.xserve_job_overhead_ms),
        ]
        .into_iter()
        .map(|(name, unit, value)| Metric::value(name, unit, value))
        .collect()
    }
}

/// The per-layer metrics of a traced run, as measured (unscaled): the
/// run's calibration scale, the operation latency median and tail, the
/// mean throughput (work per second of operation time,
/// in the workload's unit of work), the cost of tracing (traced against
/// plain operations of the same run), the workload's own layer values,
/// and the layer micro-calls.
fn per_layer(
    params: &Params,
    plain_ms: &[f64],
    traced_ms: &[f64],
    throughput: f64,
    calib: &Calibration,
    layers: &Layers,
) -> Vec<Metric> {
    let all: Vec<f64> = plain_ms.iter().chain(traced_ms).copied().collect();
    let mut metrics = vec![
        Metric::value("calib.scale", "ratio", calib.scale()),
        Metric::of("op_p50_ms", "ms", plain_ms),
        Metric::value("op_tail_ms", "ms", stats::tail(&all).0),
        Metric::value("throughput", "1/s", throughput),
        Metric::value(
            "trace_overhead_pct",
            "%",
            (stats::median(traced_ms) / stats::median(plain_ms) - 1.0) * 100.0,
        ),
    ];
    metrics.extend(layers.metrics());
    metrics.extend(layers::measure(params.size.micro_samples));
    metrics
}

/// The process's peak resident set (`VmHWM`) in MB; NaN where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A stable hex digest of a JSON document's compact form.
pub fn digest(doc: &Json) -> String {
    format!(
        "{:016x}",
        xpar::memo::checksum(&doc.to_string_compact(), &[])
    )
}

fn span_wall_ms(span: &Json) -> f64 {
    span.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0)
}

/// A serialized span's self time: its duration minus the time its
/// children cover. Per-worker (`wall_only`) spans run on other threads
/// inside a child's interval, so they cover nothing of their own.
fn self_ms(span: &Json) -> f64 {
    let children = span.get("children").and_then(Json::as_arr).unwrap_or(&[]);
    let covered: f64 = children
        .iter()
        .filter(|c| c.get("wall_only") != Some(&Json::Bool(true)))
        .map(span_wall_ms)
        .sum();
    span_wall_ms(span) - covered
}

/// A report carrying a traced run's span tree (readable by
/// `xr32-trace spans` and `xr32-trace chrome`).
fn trace_report(workload: &str, params: &Params, spans: &xobs::Spans) -> Json {
    xobs::RunReport::new("wsp_bench")
        .result("workload", workload)
        .result("seed", params.seed)
        .with_spans(spans.to_json_roots())
        .to_json()
}
