//! Regenerates **Table 1**: performance speedups for DES, 3DES, AES and
//! RSA on the optimized platform vs. optimized software on the base
//! processor.
//!
//! Symmetric rows are cycles/byte measured block-by-block on the
//! cycle-accurate XR32 ISS; RSA rows are full co-simulations (every limb
//! operation executes on the ISS). Pass an RSA modulus size as the first
//! argument (default 1024; co-simulation at 1024 bits takes a few
//! minutes — use 256 for a quick pass). With `--json`, stdout carries a
//! single structured run report instead of prose.

use bench::{Cli, Harness};
use secproc::measure::Table1;
use xobs::{Registry, RunReport};
use xr32::config::CpuConfig;

fn main() {
    let cli = Cli::parse();
    let rsa_bits = cli.pos_usize(0, 1024);
    let blocks = 8;
    let config = CpuConfig::default();
    let harness = Harness::from_env();

    if !cli.json {
        println!("Table 1 — performance speedups for popular security algorithms");
        println!(
            "(XR32 @ {} MHz; RSA-{rsa_bits})\n",
            config.clock_hz / 1_000_000
        );
    }

    // The four measurement units (DES, 3DES, AES, RSA) run in parallel
    // and re-runs are served whole from the kernel-cycle cache.
    let table = Table1::measure(&config, blocks, rsa_bits, &harness.pool, harness.cache());

    if cli.json {
        let metrics = Registry::new();
        harness.record_metrics(&metrics);
        let report = RunReport::new("table1_speedups")
            .with_fingerprint(config.fingerprint())
            .result("blocks", blocks as u64)
            .result("table", table.to_json())
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
        return;
    }
    let _ = harness.kcache.save();

    print!("{}", table.render());

    println!("\nPaper reference (Xtensa T1040, RSA-1024):");
    println!("  DES  476.8 -> 15.4 c/B (31.0X)");
    println!("  3DES 1426.4 -> 42.1 c/B (33.9X)");
    println!("  AES  1526.2 -> 87.5 c/B (17.4X)");
    println!("  RSA enc. 34.29e6 -> 3.16e6 cycles (10.8X)");
    println!("  RSA dec. 12658e6 -> 190.78e6 cycles (66.4X)");
    println!(
        "\nExpected agreement: qualitative shape — symmetric speedups in the\n\
         tens, RSA decryption gaining far more than encryption (CRT + windows\n\
         + MAC datapaths), not absolute cycle counts (different core, compiler\n\
         and libraries)."
    );
}
