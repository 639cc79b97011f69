//! CI gate for the `xopt` optimizing pipeline.
//!
//! For every kernel registered with [`kreg::VariantSource::Generated`],
//! generates one variant per accelerator level, runs the full
//! admission gate (constant-time lint differential + golden-reference
//! sweep), measures the admitted variants against their hand-written
//! counterparts on the ISS, and **fails** (exit code 1) if any level's
//! variant is rejected or measures more than 5% slower than the
//! hand-written baseline.
//!
//! Usage: `xopt_gate [n] [--json] [--dump]`
//!
//! - `n`: operand size in limbs for the cycle comparison (default 32);
//! - `--json`: emit a run report with the `generated_variants`
//!   array instead of prose;
//! - `--dump`: print each generated variant's assembly source (with
//!   its `;!` annotations) and exit — pipe a unit into
//!   `xr32-lint --ir` to inspect its CFG/dataflow facts.

use bench::{Cli, Harness};
use xobs::{Registry, RunReport};
use xr32::config::CpuConfig;

/// Admitted variants may be at most this much slower than the
/// hand-written baseline.
const MAX_SLOWDOWN: f64 = 1.05;

fn main() {
    let cli = Cli::parse();
    let dump = std::env::args().any(|a| a == "--dump");
    let config = CpuConfig::default();
    let n = cli.pos_usize(0, 32);

    if dump {
        for desc in kreg::registry() {
            if desc.variants != kreg::VariantSource::Generated {
                continue;
            }
            for (level, outcome) in secproc::genvar::admitted_variants(desc, &config) {
                match outcome {
                    Ok(adm) => {
                        println!("; ==== {} {} ====", desc.id, adm.gen.tag);
                        println!("{}", adm.gen.source);
                    }
                    Err(e) => println!(
                        "; ==== {} {} REJECTED: {e} ====",
                        desc.id,
                        level.generated_tag()
                    ),
                }
            }
        }
        return;
    }

    let harness = Harness::from_env();
    let ctx = harness.flow_ctx(&config);
    let (_curves, records) = ctx.curves_with_variants(n);

    let mut failures = Vec::new();
    for r in &records {
        let verdict = if !r.admitted {
            failures.push(format!(
                "{} {}: rejected (lint {}, golden {}): {}",
                r.kernel,
                r.tag,
                if r.lint_ok { "ok" } else { "fail" },
                if r.golden_ok { "ok" } else { "fail" },
                r.error.as_deref().unwrap_or("?")
            ));
            "REJECTED"
        } else if r.cycle_ratio().is_none_or(|ratio| ratio > MAX_SLOWDOWN) {
            failures.push(format!(
                "{} {}: generated {:?} vs hand {} cycles exceeds the {:.0}% budget",
                r.kernel,
                r.tag,
                r.cycles_generated,
                r.cycles_hand,
                (MAX_SLOWDOWN - 1.0) * 100.0
            ));
            "TOO SLOW"
        } else {
            "ok"
        };
        if !cli.json {
            println!(
                "{:<12} {:<9} gen {:>8}  hand {:>8.0}  {verdict}",
                r.kernel.name(),
                r.tag,
                r.cycles_generated
                    .map_or_else(|| "-".into(), |c| format!("{c:.0}")),
                r.cycles_hand
            );
        }
    }
    if records.is_empty() {
        failures.push("no generated-variant kernels in the registry".into());
    }

    if cli.json {
        let metrics = Registry::new();
        harness.record_metrics(&metrics);
        let report = RunReport::new("xopt_gate")
            .with_fingerprint(config.fingerprint())
            .result("limbs", n as u64)
            .result("levels", records.len() as u64)
            .result("failures", failures.len() as u64)
            .with_generated_variants(records.iter().map(|r| r.to_json()))
            .with_degradations(ctx.degradations_json())
            .with_kernel_errors(failures.iter().cloned())
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
    } else {
        let _ = harness.kcache.save();
        for f in &failures {
            eprintln!("xopt_gate: {f}");
        }
        println!(
            "xopt_gate: {} levels checked, {} failures",
            records.len(),
            failures.len()
        );
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
