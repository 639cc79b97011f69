//! The lint half of the admission gate, and the size sweep the golden
//! half runs.
//!
//! The lint gate is differential: the generated unit may not fire any
//! error rule the canonical source does not already fire (canonical
//! kernels are clean, so in practice the generated unit must be clean
//! too — but the differential form also keeps the gate meaningful for
//! sources that carry waived findings). The golden half needs the
//! custom instructions' execution semantics, which live above this
//! crate: the platform runs the variant through its kernel harness at
//! every [`sweep_sizes`] size and compares it with the registry's
//! golden reference.

use std::collections::BTreeSet;

use crate::OptError;

/// Checks that `generated` does not fire any error rule `canonical`
/// does not already fire.
///
/// # Errors
///
/// [`OptError::LintRejected`] listing the fresh findings, or
/// [`OptError::Analyze`] if either source fails to analyze.
pub fn lint_gate(canonical: &str, generated: &str) -> Result<(), OptError> {
    let base = xlint::analyze_source(canonical).map_err(OptError::Analyze)?;
    let genr = xlint::analyze_source(generated).map_err(OptError::Analyze)?;
    let waived: BTreeSet<_> = base.errors().map(|f| f.rule).collect();
    let fresh: Vec<String> = genr
        .errors()
        .filter(|f| !waived.contains(&f.rule))
        .map(|f| f.to_string())
        .collect();
    if fresh.is_empty() {
        Ok(())
    } else {
        Err(OptError::LintRejected { findings: fresh })
    }
}

/// The operand-size sweep for `lanes`-limb blocking: the degenerate
/// sizes, both sides of each block boundary, and a multi-block run.
pub fn sweep_sizes(lanes: u32) -> Vec<u32> {
    let mut sizes: Vec<u32> = [
        1,
        2,
        lanes.saturating_sub(1),
        lanes,
        lanes + 1,
        2 * lanes,
        2 * lanes + 1,
        32,
    ]
    .into_iter()
    .filter(|&n| n >= 1)
    .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use kreg::{id, kernels::mpn};

    #[test]
    fn sweep_straddles_block_boundaries() {
        assert_eq!(sweep_sizes(4), vec![1, 2, 3, 4, 5, 8, 9, 32]);
        assert_eq!(sweep_sizes(1), vec![1, 2, 3, 32]);
    }

    #[test]
    fn lint_gate_accepts_the_canonical_source_itself() {
        let src = mpn::canonical_source32(id::ADD_N).unwrap();
        lint_gate(src, src).unwrap();
    }

    #[test]
    fn lint_gate_rejects_a_fresh_secret_leak() {
        let canonical = mpn::canonical_source32(id::ADDMUL_1).unwrap();
        // A rewrite that branches on the secret multiplier: must be
        // refused even though it assembles fine.
        let leaky = "
;! entry mpn_addmul_1 inputs=a0-a3 secret=a3 secret-ptr=a0,a1
mpn_addmul_1:
    movi a6, 0
    beq  a3, a6, .zero
    movi a0, 1
    ret
.zero:
    movi a0, 0
    ret
";
        let err = lint_gate(canonical, leaky).unwrap_err();
        assert!(matches!(err, OptError::LintRejected { .. }), "{err}");
    }
}
