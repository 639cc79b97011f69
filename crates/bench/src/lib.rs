//! Shared helpers for the benchmark harnesses that regenerate the
//! paper's tables and figures (see `src/bin/*` and `benches/*`).

use kreg::LibKind;
use secproc::flow::{FlowBuilder, FlowCtx, KernelModels};
use secproc::issops::{ArchState, IssMpn};
use secproc::job::JobEnv;
use secproc::kcache::KCache;
use std::time::Instant;
use xobs::{RunReport, Spans};
use xpar::Pool;
use xr32::config::CpuConfig;

/// The per-run execution context shared by every harness binary: the
/// worker pool (sized by `WSP_THREADS`, else the host's parallelism),
/// the persistent kernel-cycle cache (`$WSP_KCACHE`, else
/// `target/kcache.json`), the run's span tree, and its wall-clock
/// start.
pub struct Harness {
    /// The worker pool every pooled flow/measure call runs on.
    pub pool: Pool,
    /// The persistent kernel-cycle memo cache.
    pub kcache: KCache,
    spans: Spans,
    start: Instant,
}

impl Harness {
    /// Opens the environment-default pool and cache and starts the
    /// wall clock.
    pub fn from_env() -> Self {
        Harness {
            pool: Pool::from_env(),
            kcache: KCache::open_default(),
            spans: Spans::new(),
            start: Instant::now(),
        }
    }

    /// The run's span tree. Harness binaries open one root span
    /// (conventionally `"flow"`) around the methodology phases; the
    /// phases themselves open their children through the
    /// [`FlowCtx`] this harness builds.
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// The cache as the `Option` the pooled measure helpers take.
    pub fn cache(&self) -> Option<&KCache> {
        Some(&self.kcache)
    }

    /// A pre-wired [`FlowBuilder`] on this harness's pool, cache and
    /// span tree, with the fault policy from the environment
    /// (`WSP_FAULTS` arms an injection campaign; the cache is bypassed
    /// while injecting). Binaries needing extra knobs (a metrics
    /// registry, a variant) chain them on before `build()`.
    pub fn builder<'a>(&'a self, config: &'a CpuConfig) -> FlowBuilder<'a> {
        FlowBuilder::from_env(config)
            .pool(&self.pool)
            .cache(&self.kcache)
            .spans(&self.spans)
    }

    /// A methodology context built from [`Harness::builder`] with no
    /// extra knobs.
    ///
    /// # Panics
    ///
    /// Panics if the environment-derived configuration conflicts
    /// (cannot happen for the default knobs).
    pub fn flow_ctx<'a>(&'a self, config: &'a CpuConfig) -> FlowCtx<'a> {
        self.builder(config)
            .build()
            .expect("harness flow configuration is conflict-free")
    }

    /// The job environment running [`secproc::job::JobSpec`]s on this
    /// harness's pool and cache (fresh metrics/span sinks per job, no
    /// cancellation).
    pub fn job_env(&self) -> JobEnv<'_> {
        JobEnv {
            cache: Some(&self.kcache),
            ..JobEnv::new(&self.pool)
        }
    }

    /// Milliseconds since the harness started.
    pub fn wall_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Publishes the run's parallel-execution metrics: worker count and
    /// utilization (`xpar.*`) and memo-cache traffic (`kcache.*`).
    pub fn record_metrics(&self, reg: &xobs::Registry) {
        reg.gauge("xpar.threads").set(self.pool.threads() as f64);
        reg.gauge("xpar.utilization").set(self.pool.utilization());
        reg.counter("kcache.hits").add(self.kcache.hits());
        reg.counter("kcache.misses").add(self.kcache.misses());
        reg.gauge("kcache.hit_rate").set(self.kcache.hit_rate());
        reg.gauge("kcache.entries").set(self.kcache.len() as f64);
    }

    /// Stamps the schema-2 wall-clock fields and the schema-5 span
    /// tree onto the report and persists the kernel-cycle cache
    /// (best-effort: an unwritable cache path only costs future warm
    /// starts, never the run).
    pub fn finish(&self, report: RunReport) -> RunReport {
        let _ = self.kcache.save();
        let report = if self.spans.is_empty() {
            report
        } else {
            report.with_spans(self.spans.to_json_roots())
        };
        report
            .with_wall_ms(self.wall_ms())
            .with_threads(self.pool.threads())
            .with_memo_hit_rate(self.kcache.hit_rate())
    }
}

/// The characterization options every harness binary uses.
fn harness_options() -> macromodel::charact::CharactOptions {
    macromodel::charact::CharactOptions {
        train_samples: 24,
        validation_points: 8,
    }
}

/// Characterizes the base kernels with harness-default options on an
/// explicit pool and cache.
pub fn default_models_on(max_limbs: usize, pool: &Pool, cache: Option<&KCache>) -> KernelModels {
    let config = CpuConfig::default();
    let mut b = FlowBuilder::new(&config).pool(pool);
    if let Some(kc) = cache {
        b = b.cache(kc);
    }
    b.build()
        .expect("default flow configuration is conflict-free")
        .characterize(max_limbs, &harness_options())
}

/// The golden-verification lattice's operand sizes: sizes crossing
/// lane boundaries (1..=4), typical mpn operand lengths, and larger
/// points where interpreter overhead dominates and out-of-order overlap
/// has room to show.
pub const SIZES: [usize; 10] = [1, 2, 3, 4, 8, 16, 64, 128, 256, 512];

/// Runs pass `pass` of the golden-verification lattice on `iss`: every
/// register-convention mpn kernel at every [`SIZES`] size on both
/// radices, each verified against its golden reference on the
/// pass-and-size seeded stimulus. Appends each kernel's rendered kernel
/// errors to `errors` and, when `states` is given, the kernel's
/// end-of-sweep `(kernel, arch32, arch16)` state. Returns the kernel
/// sweeps that passed.
pub fn verify_lattice(
    iss: &mut IssMpn,
    pass: usize,
    errors: &mut Vec<String>,
    mut states: Option<&mut Vec<(&'static str, ArchState, ArchState)>>,
) -> u64 {
    let mut sweeps = 0;
    for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
        for (i, &n) in SIZES.iter().enumerate() {
            let seed = 0x600D_5EED ^ ((pass as u64) << 32) ^ (i as u64);
            sweeps += iss.verify32(desc.id, n, seed).is_ok() as u64;
            sweeps += iss.verify16(desc.id, n, seed).is_ok() as u64;
        }
        errors.extend(iss.take_kernel_errors().iter().map(|e| e.to_string()));
        if let Some(states) = states.as_deref_mut() {
            states.push((desc.id.name(), iss.arch_state32(), iss.arch_state16()));
        }
    }
    sweeps
}

/// Command-line options shared by every harness binary: `--json`
/// switches stdout from the human-readable report to a single
/// structured [`RunReport`] document; remaining arguments are
/// positional.
pub struct Cli {
    /// Emit a machine-readable run report instead of prose.
    pub json: bool,
    positional: Vec<String>,
}

impl Cli {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        let mut json = false;
        let mut positional = Vec::new();
        for arg in std::env::args().skip(1) {
            if arg == "--json" {
                json = true;
            } else {
                positional.push(arg);
            }
        }
        Cli { json, positional }
    }

    /// The `i`-th positional argument parsed as `usize`, or `default`.
    pub fn pos_usize(&self, i: usize, default: usize) -> usize {
        self.positional
            .get(i)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }
}

/// Prints the finished run report as a compact single-document JSON on
/// stdout (the `--json` contract every harness binary honors).
pub fn emit_report(report: &RunReport) {
    println!("{}", report.to_json().to_string_compact());
}

/// Prints a section header in the harness output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}
