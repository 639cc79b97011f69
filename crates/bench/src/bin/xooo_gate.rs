//! `xooo_gate` — the out-of-order core's co-simulation and IPC gate.
//!
//! Runs the kreg golden-reference verification workload (every
//! register-convention kernel, both radices, a deterministic size ×
//! seed lattice) on three engines: the cycle-accurate in-order
//! pipeline, the cycle-accurate out-of-order pipeline, and the
//! pre-decoded in-order fast path. For every kernel sweep it compares
//! the end-of-sweep architectural state (final registers, whole-memory
//! digest, retired-instruction count) across all three — out-of-order
//! execution reorders *timing*, never *results* — then checks the
//! out-of-order core's timing claims: fewer simulated cycles than the
//! in-order baseline on the aggregate workload, and an IPC inside the
//! sanity window (above the in-order rate, at most the issue width).
//!
//! ```text
//! xooo_gate [--json] [passes]
//! ```
//!
//! `passes` (default 1) repeats the workload; the simulated counts are
//! pass-count-proportional and deterministic, so one pass is enough
//! for the gate and more only smooth nothing.
//!
//! Exits non-zero on any architectural divergence between the engines,
//! on any kernel error, or when a timing claim fails. Under `--json`
//! emits a run report carrying the `core_configs` array (one
//! entry per swept core model) and per-core `*_cycles` / `*_ipc`
//! results.

use bench::{Cli, Harness, SIZES};
use secproc::issops::{ArchState, IssMpn};
use std::process::ExitCode;
use xobs::{Json, Registry, RunReport};
use xr32::config::CpuConfig;
use xr32::{Fidelity, OooParams};

/// One engine's pass over the whole workload.
struct EngineRun {
    /// The engine's *CoreConfigId* (`"io"`, `"ooo-…"`).
    core_id: String,
    /// `(kernel, arch32, arch16)` captured after each kernel's sweep.
    states: Vec<(&'static str, ArchState, ArchState)>,
    /// Kernel sweeps executed (kernel × radix × size).
    sweeps: u64,
    /// Retired instructions across both radix cores.
    insns: u64,
    /// Simulated cycles across both radix cores.
    cycles: u64,
    /// Rendered kernel errors (must be empty).
    errors: Vec<String>,
}

/// Runs the golden-verification workload `passes` times on the given
/// core configuration and fidelity. The stimulus stream is fixed, so
/// every engine sees byte-identical inputs.
fn run_workload(config: &CpuConfig, fidelity: Fidelity, passes: usize) -> EngineRun {
    let mut iss = IssMpn::base(config.clone());
    iss.set_fidelity(fidelity);
    let mut states = Vec::new();
    let mut errors = Vec::new();
    let mut sweeps = 0;
    for pass in 0..passes {
        let last = (pass + 1 == passes).then_some(&mut states);
        sweeps += bench::verify_lattice(&mut iss, pass, &mut errors, last);
    }
    let (c32, c16) = iss.core_cycles();
    EngineRun {
        core_id: iss.core_id(),
        states,
        sweeps,
        insns: iss.arch_state32().retired + iss.arch_state16().retired,
        cycles: c32 + c16,
        errors,
    }
}

impl EngineRun {
    /// Aggregate instructions per cycle (0 for the fast path, which
    /// models no cycles).
    fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insns as f64 / self.cycles as f64
        }
    }
}

/// The kernels whose final architectural state differs between the two
/// runs (register files, memory digests or retired counts).
fn divergent<'a>(a: &'a EngineRun, b: &EngineRun) -> Vec<&'a str> {
    a.states
        .iter()
        .zip(&b.states)
        .filter(|(x, y)| x != y)
        .map(|(x, _)| x.0)
        .collect()
}

fn main() -> ExitCode {
    let cli = Cli::parse();
    let harness = Harness::from_env();
    let passes = cli.pos_usize(0, 1).max(1);
    let io_config = CpuConfig::default();
    let ooo_config = CpuConfig::ooo();
    let issue_width = OooParams::default().issue_width as f64;

    let io = run_workload(&io_config, Fidelity::CycleAccurate, passes);
    let ooo = run_workload(&ooo_config, Fidelity::CycleAccurate, passes);
    let fast = run_workload(&io_config, Fidelity::Fast, passes);

    // Co-simulation: every kernel sweep's architectural state must be
    // bit-identical across all three engines.
    let mut violations = Vec::new();
    let vs_ooo = divergent(&io, &ooo);
    if !vs_ooo.is_empty() {
        violations.push(format!(
            "architectural divergence in-order vs out-of-order on: {}",
            vs_ooo.join(", ")
        ));
    }
    let vs_fast = divergent(&io, &fast);
    if !vs_fast.is_empty() {
        violations.push(format!(
            "architectural divergence in-order vs fast path on: {}",
            vs_fast.join(", ")
        ));
    }
    if io.sweeps != ooo.sweeps || io.insns != ooo.insns || io.sweeps != fast.sweeps {
        violations.push(format!(
            "work disagreement: io {}sw/{}in vs ooo {}sw/{}in vs fast {}sw/{}in",
            io.sweeps, io.insns, ooo.sweeps, ooo.insns, fast.sweeps, fast.insns
        ));
    }
    for e in io.errors.iter().chain(&ooo.errors).chain(&fast.errors) {
        violations.push(format!("kernel error: {e}"));
    }

    // Timing claims: the out-of-order core must beat the in-order
    // baseline on aggregate cycles, and its IPC must sit in the sanity
    // window (above the in-order rate, at most the issue width — an
    // IPC beyond the issue width means the scoreboard leaks cycles).
    if ooo.cycles >= io.cycles {
        violations.push(format!(
            "no out-of-order win: {} cycles vs in-order {}",
            ooo.cycles, io.cycles
        ));
    }
    if io.ipc() > 1.0 {
        violations.push(format!("in-order IPC {:.3} exceeds single issue", io.ipc()));
    }
    if ooo.ipc() <= io.ipc() || ooo.ipc() > issue_width {
        violations.push(format!(
            "out-of-order IPC {:.3} outside sanity window ({:.3}, {issue_width}]",
            ooo.ipc(),
            io.ipc()
        ));
    }

    if cli.json {
        let metrics = Registry::new();
        metrics.counter("xooo.sweeps").add(io.sweeps);
        metrics.counter("xooo.insns").add(io.insns);
        metrics.gauge("xooo.io_ipc").set(io.ipc());
        metrics.gauge("xooo.ooo_ipc").set(ooo.ipc());
        harness.record_metrics(&metrics);
        let report = RunReport::new("xooo_gate")
            .with_fingerprint(io_config.fingerprint())
            .result("passes", passes as u64)
            .result("kernels", io.states.len() as u64)
            .result("sweeps", io.sweeps)
            .result("insns", io.insns)
            .result("cosim_mismatches", (vs_ooo.len() + vs_fast.len()) as u64)
            .result("io_cycles", io.cycles)
            .result("ooo_cycles", ooo.cycles)
            .result("io_ipc", io.ipc())
            .result("ooo_ipc", ooo.ipc())
            .result("ooo_cycle_speedup", io.cycles as f64 / ooo.cycles as f64)
            .result(
                "violations",
                Json::Arr(violations.iter().map(|v| Json::from(v.as_str())).collect()),
            )
            .with_core_configs([&io_config, &ooo_config].map(|c| {
                Json::obj()
                    .set("id", c.core_id())
                    .set("core_area", c.core.area_gates())
            }))
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
    } else {
        println!(
            "xooo_gate — {} kernels x {} sizes x 2 radices x {passes} pass(es)",
            io.states.len(),
            SIZES.len()
        );
        println!(
            "  co-sim: {}/{} kernel sweeps bit-identical across three engines",
            io.states.len() - vs_ooo.len().max(vs_fast.len()),
            io.states.len()
        );
        for run in [&io, &ooo] {
            println!(
                "  {:<22} {:>12} cycles  {:>10} insns  IPC {:.3}",
                run.core_id,
                run.cycles,
                run.insns,
                run.ipc()
            );
        }
        println!(
            "  out-of-order cycle speedup {:.2}x (issue width {issue_width})",
            io.cycles as f64 / ooo.cycles as f64
        );
        for v in &violations {
            eprintln!("xooo_gate: VIOLATION: {v}");
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
