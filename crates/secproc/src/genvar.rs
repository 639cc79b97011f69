//! Generated kernel variants: production, admission and reporting.
//!
//! This module is the platform-side face of the `xopt` pipeline. For a
//! kernel whose [`kreg::KernelDescriptor`] opts in with
//! [`kreg::VariantSource::Generated`], it generates one variant per
//! family resource level, runs both halves of the admission gate, and
//! packages the outcome — including the hand-written baseline cycles
//! measured side-by-side by the flow — as [`GeneratedVariantRecord`]s
//! for run reports (schema 4's `generated_variants` array).
//!
//! The lint half, a constant-time differential, runs inside
//! `xopt::generate`. The golden half runs here, on the kernel harness
//! every other kernel is verified on: the variant's unit becomes the
//! 32-bit library of an [`IssMpn`] on the fast path, under this
//! platform's custom instruction semantics from [`crate::insns`], and
//! [`IssMpn::verify32`] checks its limbs and carry against the
//! registry's golden reference at every [`xopt::sweep_sizes`] size.

use kreg::{AccelLevel, KernelDescriptor, KernelId};
use xobs::json::Json;
use xopt::{GeneratedVariant, OptError};
use xr32::config::CpuConfig;
use xr32::ext::ExtensionSet;
use xr32::Fidelity;

use crate::insns;
use crate::issops::IssMpn;

/// A generated variant that passed both gate halves, with the
/// extension set it must run under.
pub struct AdmittedVariant {
    /// The gated variant (source, tag, pass statistics).
    pub gen: GeneratedVariant,
    /// The custom instructions the variant's blocked loop issues.
    pub ext: ExtensionSet,
}

/// Generates and gates every family level of `desc`, in registry
/// order (cheapest first). Each level is independent: one level's
/// rejection does not stop the others — the flow falls back to the
/// hand-written variant for that level alone.
pub fn admitted_variants(
    desc: &KernelDescriptor,
    config: &CpuConfig,
) -> Vec<(AccelLevel, Result<AdmittedVariant, OptError>)> {
    let Some(fam) = desc.family else {
        return Vec::new();
    };
    fam.levels
        .iter()
        .map(|level| {
            let outcome = xopt::generate(desc, level, config).and_then(|gen| {
                let ext = insns::mpn_extension_set(level.add_lanes, level.mac_lanes);
                let lanes = match gen.family {
                    "mac" => level.mac_lanes,
                    _ => level.add_lanes,
                };
                verify_golden(&gen.source, desc.id, lanes, config, &ext)?;
                Ok(AdmittedVariant { gen, ext })
            });
            (*level, outcome)
        })
        .collect()
}

/// The golden half of the admission gate: runs `kernel` from the unit
/// `source` under `ext` on the fast path once per
/// [`xopt::sweep_sizes`]`(lanes)` size, each on fresh stimuli seeded
/// by the size, and returns the provider that ran the sweep. `source` has passed the
/// lint gate, which assembles it.
fn verify_golden(
    source: &str,
    kernel: KernelId,
    lanes: u32,
    config: &CpuConfig,
    ext: &ExtensionSet,
) -> Result<IssMpn, OptError> {
    let mut iss = IssMpn::with_library(config.clone(), source, ext.clone());
    iss.set_fidelity(Fidelity::Fast);
    for n in xopt::sweep_sizes(lanes) {
        iss.verify32(kernel, n as usize, u64::from(n))
            .map_err(|e| OptError::GoldenRejected {
                n,
                detail: e.to_string(),
            })?;
    }
    Ok(iss)
}

/// One level's generated-vs-hand-written outcome, as recorded in run
/// reports.
#[derive(Debug, Clone)]
pub struct GeneratedVariantRecord {
    /// The kernel.
    pub kernel: KernelId,
    /// Family mnemonic root (`add`, `mac`).
    pub family: &'static str,
    /// The level's datapath lanes (the A-D curve point).
    pub lanes: u32,
    /// Generated-variant tag (`gen-a{a}m{m}`).
    pub tag: String,
    /// Whether the variant passed the constant-time lint differential.
    pub lint_ok: bool,
    /// Whether the variant passed golden-reference verification.
    pub golden_ok: bool,
    /// Whether the variant drives the curve point (both gates passed).
    pub admitted: bool,
    /// The gate/pipeline error, when not admitted.
    pub error: Option<String>,
    /// ISS cycles of the generated variant (admitted variants only).
    pub cycles_generated: Option<f64>,
    /// ISS cycles of the hand-written variant at the same level.
    pub cycles_hand: f64,
}

impl GeneratedVariantRecord {
    /// The record's run-report row (stable key order).
    pub fn to_json(&self) -> Json {
        let mut row = Json::obj()
            .set("kernel", self.kernel.name())
            .set("family", self.family)
            .set("lanes", u64::from(self.lanes))
            .set("tag", self.tag.as_str())
            .set("lint_ok", self.lint_ok)
            .set("golden_ok", self.golden_ok)
            .set("admitted", self.admitted)
            .set("cycles_hand", self.cycles_hand);
        if let Some(c) = self.cycles_generated {
            row = row.set("cycles_generated", c);
        }
        if let Some(e) = &self.error {
            row = row.set("error", e.as_str());
        }
        row
    }

    /// Generated-over-hand-written cycle ratio, when both were
    /// measured (`< 1.0` means the generated variant is faster).
    pub fn cycle_ratio(&self) -> Option<f64> {
        match (self.cycles_generated, self.cycles_hand) {
            (Some(g), h) if h > 0.0 => Some(g / h),
            _ => None,
        }
    }
}

/// Classifies an [`OptError`] into the two gate verdicts: which halves
/// are known to have passed when the pipeline stopped at `err`.
pub fn gate_verdicts(err: &OptError) -> (bool, bool) {
    match err {
        // Lint gate runs first inside generate(): reaching the golden
        // gate implies lint passed.
        OptError::GoldenRejected { .. } => (true, false),
        OptError::LintRejected { .. } => (false, false),
        _ => (false, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::id;
    use pubkey::ops::MpnOps;

    fn desc(kid: KernelId) -> &'static KernelDescriptor {
        kreg::registry().iter().find(|d| d.id == kid).unwrap()
    }

    #[test]
    fn both_generated_kernels_admit_every_level() {
        let config = CpuConfig::default();
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let outcomes = admitted_variants(desc(kid), &config);
            assert!(!outcomes.is_empty());
            for (level, outcome) in outcomes {
                let adm = outcome.unwrap_or_else(|e| {
                    panic!(
                        "{kid} level a{}m{} rejected: {e}",
                        level.add_lanes, level.mac_lanes
                    )
                });
                assert_eq!(adm.gen.tag, level.generated_tag());
            }
        }
    }

    #[test]
    fn the_canonical_kernels_pass_the_golden_sweep() {
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let src = kreg::kernels::mpn::canonical_source32(kid).unwrap();
            verify_golden(src, kid, 1, &CpuConfig::default(), &ExtensionSet::new()).unwrap();
        }
    }

    #[test]
    fn the_golden_sweep_rejects_a_wrong_kernel() {
        // "add" that drops the carry chain: wrong for carrying inputs.
        let wrong = "
;! entry mpn_add_n inputs=a0-a3 secret-ptr=a1,a2
mpn_add_n:
    movi a6, 0
.lp:
    lw   a4, a1, 0
    lw   a5, a2, 0
    add  a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a1, a1, 4
    addi a2, a2, 4
    addi a3, a3, -1
    bne  a3, a6, .lp
    movi a0, 0
    ret
";
        let config = CpuConfig::default();
        let err = verify_golden(wrong, id::ADD_N, 1, &config, &ExtensionSet::new())
            .err()
            .expect("a carry-dropping add is rejected");
        assert!(matches!(err, OptError::GoldenRejected { .. }), "{err}");
        assert_eq!(gate_verdicts(&err), (true, false));
    }

    #[test]
    fn the_golden_sweep_verifies_once_per_sweep_size() {
        let config = CpuConfig::default();
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let d = desc(kid);
            let fam = d.family.unwrap();
            for level in fam.levels {
                let lanes = match fam.family {
                    "mac" => level.mac_lanes,
                    _ => level.add_lanes,
                };
                let gen = xopt::generate(d, level, &config).unwrap();
                let ext = insns::mpn_extension_set(level.add_lanes, level.mac_lanes);
                let iss = verify_golden(&gen.source, kid, lanes, &config, &ext).unwrap();
                assert_eq!(
                    MpnOps::<u32>::call_count(&iss, kid),
                    xopt::sweep_sizes(lanes).len() as u64,
                    "{kid} {}",
                    gen.tag
                );
            }
        }
    }

    #[test]
    fn record_json_carries_the_gate_verdicts() {
        let rec = GeneratedVariantRecord {
            kernel: id::ADD_N,
            family: "add",
            lanes: 4,
            tag: "gen-a4m1".into(),
            lint_ok: true,
            golden_ok: true,
            admitted: true,
            error: None,
            cycles_generated: Some(90.0),
            cycles_hand: 100.0,
        };
        let j = rec.to_json();
        assert_eq!(j.get("kernel").and_then(Json::as_str), Some("mpn_add_n"));
        assert_eq!(j.get("admitted"), Some(&Json::Bool(true)));
        assert_eq!(rec.cycle_ratio(), Some(0.9));
        assert_eq!(j.get("cycles_generated").and_then(Json::as_f64), Some(90.0));
    }
}
