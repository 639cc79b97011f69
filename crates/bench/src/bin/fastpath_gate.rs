//! `fastpath_gate` — the dual-fidelity co-simulation and speedup gate.
//!
//! Runs the kreg golden-reference verification workload (every
//! register-convention kernel, both radices, a deterministic size ×
//! seed lattice) on the pre-decoded fast path and on the cycle-accurate
//! pipeline. For every kernel sweep it compares the end-of-sweep
//! architectural state (final registers, whole-memory digest,
//! retired-instruction count) between the two engines, then checks
//! that the fast path beat the cycle-accurate engine by at least the
//! required wall-clock factor.
//!
//! ```text
//! fastpath_gate [--json] [min_speedup] [passes]
//! ```
//!
//! `min_speedup` (default 3) is the gate bound — pass `0` to skip the
//! timing check (co-simulation agreement is always enforced). `passes`
//! (default 3) is how many passes over the workload one timing sample
//! covers. The gate takes [`PAIRS`] interleaved (fast, accurate)
//! samples and reads the median of their per-pair ratios, so a burst
//! of host noise during one sample cannot fail or pass it alone.
//!
//! Exits non-zero on any architectural divergence between the engines,
//! on any kernel error, when a call memo saw any cycle-accurate call
//! (the gate times the plain timing model), or when the measured
//! speedup falls below the bound. Under `--json` emits a run report
//! carrying the `verify.fast_path.{sweeps,insns,wall_ms}` metrics and a
//! `fidelity_summary` envelope field, whose accurate side carries the
//! call-memo tallies (`memo_calls`, `tabled`; both zero on a pass).

use bench::{Cli, Harness, SIZES};
use secproc::issops::{ArchState, IssMpn};
use std::process::ExitCode;
use std::time::Instant;
use xobs::{Json, Registry, RunReport};
use xr32::config::CpuConfig;
use xr32::Fidelity;

/// Interleaved (fast, accurate) timing samples per gate run.
const PAIRS: usize = 9;

/// One engine's provider and what one repetition of the workload —
/// the co-simulation pass plus the first timing sample — saw.
struct Engine {
    iss: IssMpn,
    /// `(kernel, arch32, arch16)` captured after each kernel's sweep.
    states: Vec<(&'static str, ArchState, ArchState)>,
    /// Kernel sweeps executed (kernel × radix × size).
    sweeps: u64,
    /// Retired instructions across both cores.
    insns: u64,
    /// Rendered kernel errors over every sample (must be empty).
    errors: Vec<String>,
    /// Wall time of each timing sample.
    wall_ms: Vec<f64>,
}

impl Engine {
    /// A provider on `fidelity` that has run the untimed co-simulation
    /// pass. The stimulus stream is fixed, so both engines and every
    /// pass see byte-identical inputs.
    fn new(config: &CpuConfig, fidelity: Fidelity, passes: usize) -> Self {
        // One provider per engine: library assembly and core setup are
        // paid once, so the timing compares execution engines, not
        // setup.
        let mut iss = IssMpn::base(config.clone());
        iss.set_fidelity(fidelity);
        let mut engine = Engine {
            iss,
            states: Vec::new(),
            sweeps: 0,
            insns: 0,
            errors: Vec::new(),
            wall_ms: Vec::new(),
        };
        // The per-kernel architectural-state digests are host hashing
        // work common to both engines, and would otherwise drown the
        // execution-engine difference being measured: capture them on
        // a pass of their own.
        engine.sweeps = engine.sweep(passes, true);
        engine
    }

    /// One sweep over the workload with the stimulus of `pass`,
    /// capturing per-kernel states when asked. Returns the kernel
    /// sweeps that succeeded.
    fn sweep(&mut self, pass: usize, capture: bool) -> u64 {
        let states = capture.then_some(&mut self.states);
        bench::verify_lattice(&mut self.iss, pass, &mut self.errors, states)
    }

    /// Takes one timing sample of `passes` passes. The first completes
    /// the repetition the work counts describe.
    fn sample(&mut self, passes: usize) -> f64 {
        let t0 = Instant::now();
        let sweeps: u64 = (0..passes).map(|pass| self.sweep(pass, false)).sum();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if self.wall_ms.is_empty() {
            self.sweeps += sweeps;
            self.insns = self.iss.arch_state32().retired + self.iss.arch_state16().retired;
        }
        self.wall_ms.push(ms);
        ms
    }
}

/// The median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let config = CpuConfig::default();
    let harness = Harness::from_env();
    let min_speedup = cli.pos_usize(0, 3);
    let passes = cli.pos_usize(1, 3).max(1);

    let mut fast = Engine::new(&config, Fidelity::Fast, passes);
    let mut accurate = Engine::new(&config, Fidelity::CycleAccurate, passes);
    // Without a bound one sample completes the repetition.
    let pairs = if min_speedup > 0 { PAIRS } else { 1 };
    let ratios: Vec<f64> = (0..pairs)
        .map(|_| {
            let fast_ms = fast.sample(passes);
            accurate.sample(passes) / fast_ms
        })
        .collect();
    let speedup = median(ratios);
    let (fast_ms, accurate_ms) = (
        median(fast.wall_ms.clone()),
        median(accurate.wall_ms.clone()),
    );

    // Co-simulation: every kernel sweep's architectural state must be
    // bit-identical between the engines.
    let mut violations = Vec::new();
    let mismatches: Vec<&str> = fast
        .states
        .iter()
        .zip(&accurate.states)
        .filter(|(f, a)| f != a)
        .map(|(f, _)| f.0)
        .collect();
    if !mismatches.is_empty() {
        violations.push(format!(
            "architectural divergence fast vs accurate on: {}",
            mismatches.join(", ")
        ));
    }
    if fast.sweeps != accurate.sweeps || fast.insns != accurate.insns {
        violations.push(format!(
            "work disagreement: fast {}sw/{}in vs accurate {}sw/{}in",
            fast.sweeps, fast.insns, accurate.sweeps, accurate.insns
        ));
    }
    for e in fast.errors.iter().chain(&accurate.errors) {
        violations.push(format!("kernel error: {e}"));
    }
    // The gate times the plain cycle-accurate model: no call may have
    // consulted a call memo, keyed or cost-tabled.
    let memo = accurate.iss.memo_stats();
    if memo.calls > 0 {
        violations.push(format!(
            "the cycle-accurate provider consulted a call memo: {memo:?}"
        ));
    }
    if min_speedup > 0 && speedup < min_speedup as f64 {
        violations.push(format!(
            "fast path median speedup {speedup:.2}x over {pairs} pairs below required \
             {min_speedup}x (median fast {fast_ms:.2}ms vs accurate {accurate_ms:.2}ms)"
        ));
    }

    if cli.json {
        let metrics = Registry::new();
        metrics.counter("verify.fast_path.sweeps").add(fast.sweeps);
        metrics.counter("verify.fast_path.insns").add(fast.insns);
        metrics.gauge("verify.fast_path.wall_ms").set(fast_ms);
        metrics.gauge("verify.accurate.wall_ms").set(accurate_ms);
        harness.record_metrics(&metrics);
        let report = RunReport::new("fastpath_gate")
            .with_fingerprint(config.fingerprint())
            .result("min_speedup", min_speedup as u64)
            .result("passes", passes as u64)
            .result("kernels", fast.states.len() as u64)
            .result("sweeps", fast.sweeps)
            .result("insns", fast.insns)
            .result("cosim_mismatches", mismatches.len() as u64)
            .result("fast_wall_ms", fast_ms)
            .result("accurate_wall_ms", accurate_ms)
            .result("fast_path_speedup", speedup)
            .result(
                "violations",
                Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
            )
            .with_fidelity_summary(
                Json::obj()
                    .set(
                        "fast",
                        Json::obj()
                            .set("sweeps", fast.sweeps)
                            .set("insns", fast.insns),
                    )
                    .set(
                        "accurate",
                        Json::obj()
                            .set("sweeps", accurate.sweeps)
                            .set("insns", accurate.insns)
                            .set("memo_calls", memo.calls)
                            .set("tabled", memo.tabled),
                    ),
            )
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
    } else {
        println!(
            "fastpath_gate — {} kernels x {} sizes x 2 radices x {passes} passes",
            fast.states.len(),
            SIZES.len()
        );
        println!(
            "  co-sim: {}/{} kernel sweeps bit-identical",
            fast.states.len() - mismatches.len(),
            fast.states.len()
        );
        println!(
            "  fast     {fast_ms:8.2}ms  {:>10} insns  {} sweeps",
            fast.insns, fast.sweeps
        );
        println!(
            "  accurate {accurate_ms:8.2}ms  {:>10} insns  {} sweeps",
            accurate.insns, accurate.sweeps
        );
        println!(
            "  speedup  {speedup:8.2}x  (median of {pairs} pairs, required >= {min_speedup}x)"
        );
        for v in &violations {
            eprintln!("fastpath_gate: VIOLATION: {v}");
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
