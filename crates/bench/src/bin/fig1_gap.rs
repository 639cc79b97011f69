//! Regenerates **Fig. 1**: the security processing gap — MIPS required
//! for security processing vs. embedded-processor MIPS across wireless
//! generations and silicon nodes.
//!
//! The required-MIPS curve uses this platform's *measured* baseline
//! protocol cost: 3DES bulk encryption plus SHA-1 MACs, the dominant
//! per-byte work of an SSL-protected stream. With `--json`, stdout
//! carries a single structured run report instead of prose.

use bench::{Cli, Harness};
use secproc::gap;
use secproc::kcache;
use secproc::simcipher::SimSha1;
use secproc::{measure, platform::PlatformKind};
use xobs::{Json, Registry, RunReport};
use xr32::config::CpuConfig;

fn main() {
    let cli = Cli::parse();
    let config = CpuConfig::default();
    let harness = Harness::from_env();
    if !cli.json {
        println!("Fig. 1 — the security processing gap");
        println!("(required MIPS = data rate x measured baseline security cycles/byte)\n");
    }

    let tdes = measure::measure_tdes(&config, 4, harness.cache());
    let sha_cpb = harness.kcache.get_or_compute(
        &kcache::key(config.fingerprint(), "sim", "fig1:sha1", 4, 0),
        1,
        || vec![SimSha1::new(config.clone()).cycles_per_byte(4)],
    )[0];
    let cpb = tdes.base_cpb + sha_cpb;
    let rows = gap::trend(cpb);

    if cli.json {
        let mut out = Vec::with_capacity(rows.len());
        for r in &rows {
            out.push(
                Json::obj()
                    .set("generation", r.point.generation)
                    .set("node_um", r.point.node_um)
                    .set("data_rate_kbps", r.point.data_rate_kbps)
                    .set("processor_mips", r.point.processor_mips)
                    .set("required_mips", r.required_mips)
                    .set("gap_factor", r.gap_factor()),
            );
        }
        let metrics = Registry::new();
        harness.record_metrics(&metrics);
        let report = RunReport::new("fig1_gap")
            .with_fingerprint(config.fingerprint())
            .result("tdes_base_cpb", tdes.base_cpb)
            .result("sha1_cpb", sha_cpb)
            .result("security_cpb", cpb)
            .result("trend", out)
            .with_metrics(metrics.snapshot());
        bench::emit_report(&harness.finish(report));
        return;
    }
    let _ = harness.kcache.save();

    println!(
        "measured baseline cost: 3DES {:.1} c/B + SHA-1 {:.1} c/B = {:.1} c/B\n",
        tdes.base_cpb, sha_cpb, cpb
    );
    print!("{}", gap::render(&rows));

    println!(
        "\nPaper shape: the requirement curve crosses the processor curve between\n\
         2G and 3G and diverges afterwards — the gap motivating the platform."
    );
    let _ = PlatformKind::Baseline;
}
