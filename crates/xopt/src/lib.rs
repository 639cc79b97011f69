//! `xopt`: an SSA-lite optimizing rewrite pipeline for XR32 kernel
//! sources, built on `xlint`'s published dataflow facts.
//!
//! The DAC 2002 methodology hand-writes one accelerated kernel library
//! per custom-instruction configuration. This crate generates those
//! variants instead: starting from the *canonical* (base, scalar)
//! kernel source, it
//!
//! 1. builds an SSA-lite view from `xlint` reaching definitions
//!    ([`ssa`]),
//! 2. pattern-matches the kernel's registered
//!    [`kreg::InsnFamilySpec`] loop shape and recovers operand roles
//!    ([`select`]),
//! 3. emits a blocked wide-datapath loop with the canonical body as
//!    scalar tail ([`emit`]),
//! 4. list-schedules straight-line runs against the core's
//!    [`xr32::config::CostModel`] ([`sched`]),
//! 5. cleans up with liveness-backed DCE and a peephole ([`peep`]),
//!    and
//! 6. refuses to admit any variant that fails the constant-time lint
//!    gate or golden-reference verification ([`gate`]).
//!
//! The pipeline's outputs are complete annotated units: they carry the
//! canonical entry/secret annotations plus generated custom-instruction
//! signatures, so the same `xlint` checks that gate hand-written
//! libraries gate generated ones.

use std::fmt;

use kreg::{AccelLevel, KernelDescriptor, KernelId};
use xlint::ir::UnitIr;
use xlint::AnalyzeError;
use xr32::asm::AssembleError;
use xr32::config::CpuConfig;
use xr32::ext::ExtensionSet;

pub mod emit;
pub mod gate;
pub mod peep;
pub mod sched;
pub mod select;
pub mod ssa;
pub mod unit;

pub use gate::{golden_gate, lint_gate, sweep_sizes};
pub use select::{match_pattern, PatternMatch};
pub use ssa::{SsaView, Value};
pub use unit::{Item, Unit};

/// Why the pipeline could not produce (or refused to admit) a variant.
#[derive(Debug)]
pub enum OptError {
    /// The source failed to assemble or analyze.
    Analyze(AnalyzeError),
    /// The kernel has no registered custom-instruction family.
    NoFamily(KernelId),
    /// The kernel has no canonical 32-bit source to rewrite.
    NoCanonical(KernelId),
    /// The kernel's dataflow does not match the family's loop pattern.
    PatternMismatch(String),
    /// No free general register for the blocking threshold.
    NoFreeReg,
    /// The generated variant fired lint errors the canonical source
    /// does not.
    LintRejected {
        /// The fresh findings, rendered.
        findings: Vec<String>,
    },
    /// The generated variant diverged from the golden reference.
    GoldenRejected {
        /// Operand size at which the divergence was observed.
        n: u32,
        /// What diverged.
        detail: String,
    },
    /// A simulation fault while running the golden gate.
    Sim(String),
    /// The construct is outside the rewriter's scope.
    Unsupported(String),
}

impl OptError {
    pub(crate) fn from_assemble(e: AssembleError) -> OptError {
        OptError::Analyze(AnalyzeError::Assemble(e))
    }
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Analyze(e) => write!(f, "analysis failed: {e}"),
            OptError::NoFamily(k) => write!(f, "{k}: no custom-instruction family registered"),
            OptError::NoCanonical(k) => write!(f, "{k}: no canonical source to rewrite"),
            OptError::PatternMismatch(d) => write!(f, "pattern mismatch: {d}"),
            OptError::NoFreeReg => write!(f, "no free register for the blocking threshold"),
            OptError::LintRejected { findings } => {
                write!(f, "lint gate rejected the variant: {}", findings.join("; "))
            }
            OptError::GoldenRejected { n, detail } => {
                write!(f, "golden gate rejected the variant at n={n}: {detail}")
            }
            OptError::Sim(d) => write!(f, "simulation fault: {d}"),
            OptError::Unsupported(d) => write!(f, "unsupported: {d}"),
        }
    }
}

impl std::error::Error for OptError {}

/// One generated, lint-gated kernel variant.
#[derive(Debug, Clone)]
pub struct GeneratedVariant {
    /// The kernel this variant implements.
    pub kernel: KernelId,
    /// The entry label (same as the canonical unit's).
    pub entry: String,
    /// The family level the variant was generated for.
    pub level: AccelLevel,
    /// The family mnemonic root (`add`, `mac`).
    pub family: &'static str,
    /// Cache/report tag (`gen-a{a}m{m}`), distinct from the
    /// hand-written `accel-` tags.
    pub tag: String,
    /// The complete annotated unit source.
    pub source: String,
    /// Straight-line runs the scheduler actually reordered.
    pub scheduled_runs: usize,
    /// Items removed by DCE + peephole.
    pub cleaned: usize,
}

impl GeneratedVariant {
    /// Runs the golden-reference half of the admission gate on this
    /// variant, under the caller's core configuration and custom
    /// instruction set (the half that needs hardware semantics, which
    /// live above this crate).
    ///
    /// # Errors
    ///
    /// See [`gate::golden_gate`].
    pub fn verify_golden(
        &self,
        conv: &kreg::CallConv,
        config: &CpuConfig,
        ext: &ExtensionSet,
    ) -> Result<(), OptError> {
        let lanes = match self.family {
            "mac" => self.level.mac_lanes,
            _ => self.level.add_lanes,
        };
        gate::golden_gate(&self.source, &self.entry, conv, lanes, config, ext)
    }
}

/// Generates the variant of `desc` at `level`, running every rewrite
/// pass and the lint half of the admission gate. The golden half needs
/// the custom instructions' execution semantics, so it is a separate
/// step: [`GeneratedVariant::verify_golden`].
///
/// # Errors
///
/// Any [`OptError`]: unregistered family, missing canonical source,
/// pattern mismatch, or a lint-gate rejection.
pub fn generate(
    desc: &KernelDescriptor,
    level: &AccelLevel,
    config: &CpuConfig,
) -> Result<GeneratedVariant, OptError> {
    let family = desc.family.ok_or(OptError::NoFamily(desc.id))?;
    let canonical =
        kreg::kernels::mpn::canonical_source32(desc.id).ok_or(OptError::NoCanonical(desc.id))?;

    // Passes 1-2: SSA-lite facts + instruction selection.
    let ir = UnitIr::from_source(canonical).map_err(OptError::Analyze)?;
    let matched = select::match_pattern(&ir, desc.entry, family.pattern)?;

    // Pass 3: blocked wide-datapath emission.
    let base = Unit::parse(canonical)?;
    let mut rewritten = emit::emit(&base, &matched, level)?;

    // Pass 4: list scheduling under the core's cost model.
    let spec = xlint::SecretSpec::from_source(&rewritten.print())
        .map_err(|e| OptError::Analyze(AnalyzeError::Spec(e)))?;
    let cost = config.cost_model();
    let scheduled_runs = sched::schedule_unit(&mut rewritten, &spec, &cost);

    // Pass 5: DCE + peephole.
    let cleaned = peep::clean(&mut rewritten)?;

    // Gate (lint half): the variant may not regress a single verdict.
    let source = rewritten.print();
    gate::lint_gate(canonical, &source)?;

    Ok(GeneratedVariant {
        kernel: desc.id,
        entry: desc.entry.to_string(),
        level: *level,
        family: family.family,
        tag: level.generated_tag(),
        source,
        scheduled_runs,
        cleaned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::{id, registry, VariantSource};
    use xr32::asm::assemble;

    fn desc(kid: KernelId) -> &'static KernelDescriptor {
        registry().iter().find(|d| d.id == kid).unwrap()
    }

    #[test]
    fn generates_every_level_for_both_generated_kernels() {
        let config = CpuConfig::default();
        for kid in [id::ADD_N, id::ADDMUL_1] {
            let d = desc(kid);
            assert_eq!(d.variants, VariantSource::Generated);
            for level in d.family.unwrap().levels {
                let v = generate(d, level, &config).unwrap();
                let prog = assemble(&v.source).unwrap();
                assert!(prog.label(&v.entry).is_some());
                assert!(v.tag.starts_with("gen-a"));
            }
        }
    }

    #[test]
    fn generated_add_n_schedules_its_scalar_tail() {
        let config = CpuConfig::default();
        let d = desc(id::ADD_N);
        let level = d.family.unwrap().levels[0];
        let v = generate(d, &level, &config).unwrap();
        // The canonical body already hides its load-use slots; the
        // emitted unit must still be branch-correct and keep the addc
        // away from its producing loads.
        let tail = v.source.split(".xg_tail:").nth(1).unwrap();
        let addc_pos = tail.find("addc").unwrap();
        let before = &tail[..addc_pos];
        assert!(
            before.matches("lw").count() == 2,
            "tail keeps both scalar loads before the combine:\n{}",
            v.source
        );
    }

    #[test]
    fn hand_written_kernels_refuse_generation() {
        let config = CpuConfig::default();
        let d = desc(id::SUB_N);
        assert_eq!(d.variants, VariantSource::HandWritten);
        // sub_n has no registered family, so generation refuses.
        let level = desc(id::ADD_N).family.unwrap().levels[0];
        let err = generate(d, &level, &config).unwrap_err();
        assert!(matches!(err, OptError::NoFamily(_)), "{err}");
    }
}
