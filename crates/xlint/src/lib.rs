//! `xlint` — dataflow static analysis for XR32 kernel assembly.
//!
//! The crate builds an interprocedural CFG over an assembled
//! [`Program`], runs classic dataflow passes (reaching definitions,
//! liveness, must-defined, reachability), and layers two products on
//! top:
//!
//! 1. a **lint engine** — read-before-write registers (carry flag
//!    included), dead stores, unreachable blocks, stack discipline
//!    (`sp` balance and `ra` clobber at `ret`), misaligned memory
//!    offsets, and custom-instruction operand shapes;
//! 2. a **constant-time checker** — secret-taint propagation from
//!    declared secret registers and memory ranges, flagging
//!    secret-dependent branches, loads, stores, and indirect jumps
//!    (see [`taint`](crate::report::Rule::SecretBranch) rules).
//!
//! Analysis intent is declared with `;!` annotation comments inside
//! the assembly source (invisible to the assembler); see
//! [`SecretSpec::from_source`] for the grammar. Use [`analyze`] with a
//! programmatic spec, or [`analyze_source`] to assemble and pick up
//! annotations in one step:
//!
//! ```
//! let report = xlint::analyze_source(
//!     ";! entry leak secret=a1
//!      leak:
//!          beq a1, a0, done   ; branches on the key!
//!      done:
//!          ret",
//! )
//! .unwrap();
//! assert!(!report.no_errors());
//! assert_eq!(report.findings()[0].rule, xlint::Rule::SecretBranch);
//! ```

pub mod cfg;
pub mod dataflow;
pub mod ir;
mod lints;
mod report;
mod spec;
mod taint;

use std::fmt;

use xr32::asm::{assemble, AssembleError, Program};

pub use report::{Finding, Report, Rule, Severity};
pub use spec::{CustomKind, CustomSig, EntrySpec, MemRange, SecretSpec, SpecError};

/// Analyzes `program` under `spec` and returns every finding.
///
/// When the spec declares no entries, every global label is analyzed
/// as an entry with the default input set and no secrets (lints only).
///
/// # Panics
///
/// Panics if a spec entry names a label the program does not define —
/// that is a configuration bug the caller should fix, not a finding.
pub fn analyze(program: &Program, spec: &SecretSpec) -> Report {
    let mut report = Report::default();
    if program.is_empty() {
        return report;
    }

    let entries: Vec<EntrySpec> = if spec.entries().is_empty() {
        program
            .global_labels()
            .map(|(name, _)| EntrySpec::new(name))
            .collect()
    } else {
        spec.entries().to_vec()
    };
    let entry_pcs: Vec<usize> = entries
        .iter()
        .map(|e| {
            program
                .label(&e.label)
                .unwrap_or_else(|| panic!("spec entry `{}` is not a label in the program", e.label))
        })
        .collect();

    let cfg = cfg::Cfg::build(program);
    let reach = lints::check_unreachable(&mut report, program, &cfg, spec, &entry_pcs);
    for (entry, &pc) in entries.iter().zip(&entry_pcs) {
        lints::check_read_before_write(
            &mut report,
            program,
            &cfg,
            spec,
            &entry.label,
            pc,
            entry.inputs,
        );
        lints::check_stack_discipline(&mut report, program, &cfg, spec, &entry.label, pc);
    }
    lints::check_dead_stores(&mut report, program, &cfg, spec, &entry_pcs, &reach);
    lints::check_alignment(&mut report, program, spec, &reach);
    lints::check_custom_ops(&mut report, program, spec, &reach);

    // Taint runs against the declared spec entries only (the default
    // no-annotation entries carry no secrets).
    let taint_spec;
    let spec_for_taint = if spec.entries().is_empty() {
        taint_spec = {
            let mut s = spec.clone();
            for e in &entries {
                s.add_entry(e.clone());
            }
            s
        };
        &taint_spec
    } else {
        spec
    };
    taint::check(&mut report, program, &cfg, spec_for_taint);

    report.finish();
    report
}

/// Everything that can go wrong in [`analyze_source`].
#[derive(Debug)]
pub enum AnalyzeError {
    /// The source did not assemble.
    Assemble(AssembleError),
    /// A `;!` annotation did not parse.
    Spec(SpecError),
    /// A `;! entry` annotation names a label the program does not
    /// define.
    UnknownEntry(String),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Assemble(e) => write!(f, "{e}"),
            AnalyzeError::Spec(e) => write!(f, "{e}"),
            AnalyzeError::UnknownEntry(label) => {
                write!(f, "`;! entry {label}` names no label in the program")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<AssembleError> for AnalyzeError {
    fn from(e: AssembleError) -> Self {
        AnalyzeError::Assemble(e)
    }
}

impl From<SpecError> for AnalyzeError {
    fn from(e: SpecError) -> Self {
        AnalyzeError::Spec(e)
    }
}

/// Assembles `src`, parses its `;!` annotations, and analyzes it.
///
/// Unlike [`analyze`], an entry annotation naming an unknown label is
/// reported as an [`AnalyzeError::UnknownEntry`] rather than a panic —
/// the annotation came from the same untrusted source text.
pub fn analyze_source(src: &str) -> Result<Report, AnalyzeError> {
    analyze_source_at(src, 1)
}

/// Like [`analyze_source`], for a unit that starts at 1-based line
/// `first_line` of a larger file: every finding's line is rebased to be
/// file-absolute, so diagnostics for units sliced out of a library
/// (e.g. one kernel's section of a `kreg-audit --dump` unit) point at
/// the real source line instead of the slice-relative one.
fn analyze_source_at(src: &str, first_line: usize) -> Result<Report, AnalyzeError> {
    let program = assemble(src)?;
    let spec = SecretSpec::from_source(src)?;
    for entry in spec.entries() {
        if program.label(&entry.label).is_none() {
            return Err(AnalyzeError::UnknownEntry(entry.label.clone()));
        }
    }
    let mut report = analyze(&program, &spec);
    if first_line > 1 {
        report.rebase_lines(first_line);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(report: &Report) -> Vec<Rule> {
        report.findings().iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_kernel_is_clean() {
        let report = analyze_source(
            ";! entry sum inputs=a0,a1,sp,ra
             sum:
                add a0, a0, a1
                ret",
        )
        .unwrap();
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn read_before_write_fires_with_line_info() {
        let report = analyze_source(
            ";! entry f inputs=a0,sp,ra
             f:
                add a0, a0, a7
                ret",
        )
        .unwrap();
        let f = &report.findings()[0];
        assert_eq!(f.rule, Rule::ReadBeforeWrite);
        assert_eq!(f.line, Some(3));
        assert!(f.message.contains("a7"));
    }

    #[test]
    fn analyze_source_at_reports_file_absolute_lines() {
        let src = ";! entry f inputs=a0,sp,ra
             f:
                add a0, a0, a7
                ret";
        let rel = analyze_source(src).unwrap();
        assert_eq!(rel.findings()[0].line, Some(3));
        // The same unit sliced out of a library starting at line 40:
        // findings point at the real file line, not the slice line.
        let abs = analyze_source_at(src, 40).unwrap();
        assert_eq!(abs.findings()[0].line, Some(42));
        assert_eq!(abs.findings()[0].rule, rel.findings()[0].rule);
    }

    #[test]
    fn partial_path_definition_is_flagged() {
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra
             f:
                beq a0, a1, skip
                movi a2, 1
             skip:
                add a0, a2, a0
                ret",
        )
        .unwrap();
        assert!(rules_of(&report).contains(&Rule::ReadBeforeWrite));
    }

    #[test]
    fn dead_store_and_unreachable_warn() {
        let report = analyze_source(
            ";! entry f inputs=a0,sp,ra
             f:
                movi a3, 7
                ret
             orphan:
                nop
                halt",
        )
        .unwrap();
        let rules = rules_of(&report);
        assert!(rules.contains(&Rule::DeadStore));
        assert!(rules.contains(&Rule::Unreachable));
        assert!(report.no_errors(), "both are warnings: {report}");
    }

    #[test]
    fn unbalanced_sp_and_clobbered_ra_error() {
        let report = analyze_source(
            ";! entry f inputs=a0,sp,ra
             f:
                addi sp, sp, -16
                call helper
                addi sp, sp, 12
                ret
             helper:
                ret",
        )
        .unwrap();
        let rules = rules_of(&report);
        assert!(rules.contains(&Rule::StackMismatch), "got {report}");
        assert!(rules.contains(&Rule::RaClobber), "got {report}");
    }

    #[test]
    fn saved_ra_and_balanced_sp_pass() {
        let report = analyze_source(
            ";! entry f inputs=a0,sp,ra
             f:
                addi sp, sp, -4
                sw ra, sp, 0
                call helper
                lw ra, sp, 0
                addi sp, sp, 4
                ret
             helper:
                movi a0, 1
                ret",
        )
        .unwrap();
        assert!(report.is_clean(), "unexpected: {report}");
    }

    #[test]
    fn misaligned_offset_warns() {
        let report = analyze_source(
            ";! entry f inputs=a0,sp,ra
             f:
                lw a1, a0, 2
                ret",
        )
        .unwrap();
        assert!(rules_of(&report).contains(&Rule::MisalignedMem));
    }

    #[test]
    fn secret_branch_and_secret_load_error() {
        let report = analyze_source(
            ";! entry leak inputs=a0,a1,sp,ra secret=a1
             leak:
                beq a1, a0, skip
                movi a2, 0x1000
                add a2, a2, a1
                lw a3, a2, 0
             skip:
                ret",
        )
        .unwrap();
        let rules = rules_of(&report);
        assert!(rules.contains(&Rule::SecretBranch), "got {report}");
        assert!(rules.contains(&Rule::SecretLoad), "got {report}");
    }

    #[test]
    fn allow_annotation_suppresses() {
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra secret=a1
             f:
                movi a2, 0x1000
                add a2, a2, a1
                lw a3, a2, 0 ;! allow(secret-load)
                ret",
        )
        .unwrap();
        assert!(
            !rules_of(&report).contains(&Rule::SecretLoad),
            "got {report}"
        );
    }

    #[test]
    fn loading_through_secret_pointer_is_fine_but_taints_value() {
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra secret-ptr=a1
             f:
                lw a2, a1, 0
                beq a2, a0, skip
                nop
             skip:
                ret",
        )
        .unwrap();
        let rules = rules_of(&report);
        assert!(!rules.contains(&Rule::SecretLoad), "got {report}");
        assert!(rules.contains(&Rule::SecretBranch), "got {report}");
    }

    #[test]
    fn secret_mem_ranges_taint_constant_loads() {
        let report = analyze_source(
            ";! entry f inputs=a0,sp,ra
             ;! secret-mem 0x30000 32
             f:
                movi a1, 0x30000
                lw a2, a1, 4
                bne a2, a0, out
                nop
             out:
                ret",
        )
        .unwrap();
        assert!(
            rules_of(&report).contains(&Rule::SecretBranch),
            "got {report}"
        );
    }

    #[test]
    fn taint_flows_through_stack_spills() {
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra secret=a1
             f:
                addi sp, sp, -4
                sw a1, sp, 0
                lw a2, sp, 0
                beq a2, a0, out
                nop
             out:
                addi sp, sp, 4
                ret",
        )
        .unwrap();
        assert!(
            rules_of(&report).contains(&Rule::SecretBranch),
            "got {report}"
        );
    }

    #[test]
    fn pointer_taint_survives_stack_spills() {
        // The DES kernel spills its key-schedule pointer to the stack
        // and reloads it; the PTR bit must survive the round trip.
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra secret-ptr=a1
             f:
                addi sp, sp, -4
                sw a1, sp, 0
                lw a2, sp, 0
                lw a3, a2, 0
                beq a3, a0, out
                nop
             out:
                addi sp, sp, 4
                ret",
        )
        .unwrap();
        let rules = rules_of(&report);
        assert!(!rules.contains(&Rule::SecretLoad), "got {report}");
        assert!(rules.contains(&Rule::SecretBranch), "got {report}");
    }

    #[test]
    fn xor_clears_nothing_masking_still_tainted() {
        // Masking a secret with itself is still treated as tainted —
        // the checker is a may-analysis, not an algebra.
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra secret=a1
             f:
                xor a2, a1, a1
                beq a2, a0, out
                nop
             out:
                ret",
        )
        .unwrap();
        assert!(rules_of(&report).contains(&Rule::SecretBranch));
    }

    #[test]
    fn custom_signature_checks_operands_and_taint() {
        let report = analyze_source(
            ";! entry f inputs=a0,a1,sp,ra secret-ptr=a1
             ;! cust ldur regs=1 uregs=1 kind=load
             ;! cust bogus regs=2 uregs=0 kind=compute
             f:
                cust ldur ur0, a1, 4
                cust bogus a0, 1
                ret",
        )
        .unwrap();
        let rules = rules_of(&report);
        assert!(rules.contains(&Rule::CustomOperands), "got {report}");
        assert!(
            !rules.contains(&Rule::SecretLoad),
            "ptr-based wide load is fine"
        );
    }

    #[test]
    fn custom_compute_propagates_ureg_taint_to_store() {
        let report = analyze_source(
            ";! entry f inputs=a0,a1,a2,sp,ra secret-ptr=a1
             ;! cust ldur regs=1 uregs=1 kind=load
             ;! cust stur regs=1 uregs=1 kind=store
             ;! cust add4 regs=0 uregs=3 kind=compute reads-carry writes-carry
             f:
                clc
                cust ldur ur0, a1, 4
                cust add4 ur1, ur0, ur2
                cust stur ur1, a2, 4
                ret
             ;! entry g inputs=a0,sp,ra
             g:
                movi a3, 0x40000
                cust ldur ur3, a3, 4
                ret",
        )
        .unwrap();
        // `f` stores secrets through an untracked pointer (a2: Top) —
        // silent by design; `g` loads public memory — clean.
        assert!(report.no_errors(), "got {report}");
    }

    #[test]
    fn unknown_entry_label_panics() {
        let program = assemble("main: halt").unwrap();
        let mut spec = SecretSpec::default();
        spec.add_entry(EntrySpec::new("missing"));
        let r = std::panic::catch_unwind(|| analyze(&program, &spec));
        assert!(r.is_err());
    }

    #[test]
    fn unknown_entry_label_is_an_error_from_source() {
        let err = analyze_source(
            ";! entry ghost inputs=a0
             f:
                ret",
        )
        .unwrap_err();
        assert!(matches!(err, AnalyzeError::UnknownEntry(ref l) if l == "ghost"));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn no_entries_defaults_to_global_labels() {
        let report = analyze_source(
            "f:
                add a0, a0, a7
                ret",
        )
        .unwrap();
        assert!(rules_of(&report).contains(&Rule::ReadBeforeWrite));
    }
}
