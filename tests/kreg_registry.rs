//! Registry-driven property tests: every kernel registered in
//! [`wsp::kreg`] must assemble, run on the cycle-accurate ISS, and
//! match the golden host reference embedded in its descriptor; its
//! cache identities must be unique; and its assembly must carry an
//! xlint entry spec and analyze clean. Adding a kernel to the registry
//! automatically enrolls it in every one of these checks.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wsp::kreg::{self, id, CallConv, LibKind};
use wsp::secproc::issops::IssMpn;
use wsp::secproc::simcipher::SimSha1;
use wsp::xlint::analyze_source;
use wsp::xr32::asm::assemble;
use wsp::xr32::config::CpuConfig;
use wsp::xr32::Fidelity;

/// The audit CI gates on holds, and the individual identity
/// derivations it summarizes are collision-free.
#[test]
fn registry_audit_is_clean_and_identities_are_unique() {
    assert_eq!(kreg::audit(), Vec::<String>::new());

    let mut tags = BTreeSet::new();
    let mut units = BTreeSet::new();
    for desc in kreg::registry() {
        assert!(tags.insert(desc.cache_tag()), "tag {}", desc.cache_tag());
        for &width in desc.widths() {
            assert!(units.insert(desc.charact_unit(width)));
        }
        assert!(units.insert(desc.curve_unit()));
    }
}

/// Every assembly library the registry enumerates assembles, is
/// lint-clean, and between them the libraries carry an annotated
/// `;! entry` spec for every registered kernel.
#[test]
fn every_registered_kernel_has_a_lintable_annotated_entry() {
    let units = kreg::lint_units();
    for unit in &units {
        assemble(&unit.source).unwrap_or_else(|e| panic!("{} does not assemble: {e}", unit.label));
        let report = analyze_source(&unit.source)
            .unwrap_or_else(|e| panic!("{} does not analyze: {e}", unit.label));
        assert!(
            report.no_errors(),
            "{} has lint errors:\n{report}",
            unit.label
        );
    }
    for desc in kreg::registry() {
        let annotated = format!(";! entry {}", desc.entry);
        assert!(
            units.iter().any(|u| u.source.contains(&annotated)),
            "kernel {} has no annotated entry in any lint unit",
            desc.id
        );
    }
}

// Each ISS case executes thousands of simulated instructions, so keep
// the case count low.
fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    }
}

proptest! {
    #![proptest_config(config())]

    /// Every register-convention kernel in the registry runs on the ISS
    /// at every supported radix and matches its descriptor's golden
    /// reference (verify mode checks each call; a mismatch would be
    /// recorded as a [`wsp::kreg::KernelError::Divergence`]).
    #[test]
    fn registered_mpn_kernels_match_their_goldens_on_the_iss(
        n in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut iss = IssMpn::base(CpuConfig::default());
        for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
            iss.measure32(desc.id, n, seed).expect("mpn kernel measures at radix 32");
            iss.measure16(desc.id, n, seed).expect("mpn kernel measures at radix 16");
        }
        let errors = iss.take_kernel_errors();
        prop_assert!(errors.is_empty(), "divergences: {errors:?}");
    }

    /// The pre-decoded fast path verifies every register-convention
    /// kernel against the same goldens, and its end-of-sweep
    /// architectural state (registers, memory digest, retired count)
    /// is bit-identical to the cycle-accurate engine's.
    #[test]
    fn fast_path_golden_sweeps_match_cycle_accurate(
        n in 1usize..10,
        seed in any::<u64>(),
    ) {
        let sweep = |fidelity: Fidelity| {
            let mut iss = IssMpn::base(CpuConfig::default());
            iss.set_fidelity(fidelity);
            for desc in kreg::registry().iter().filter(|d| d.lib == LibKind::Mpn) {
                iss.verify32(desc.id, n, seed).expect("mpn kernel verifies at radix 32");
                iss.verify16(desc.id, n, seed).expect("mpn kernel verifies at radix 16");
            }
            let errors = iss.take_kernel_errors();
            prop_assert!(errors.is_empty(), "divergences: {errors:?}");
            Ok((iss.arch_state32(), iss.arch_state16()))
        };
        prop_assert_eq!(sweep(Fidelity::Fast)?, sweep(Fidelity::CycleAccurate)?);
    }

    /// The block-memory SHA-1 kernel matches the golden reference the
    /// registry carries in its calling convention, compared explicitly
    /// here against the registry's own function pointer (the engine
    /// also verifies every compression against `ciphers::sha1`).
    #[test]
    fn registered_sha1_kernel_matches_its_registry_golden(
        state in any::<[u32; 5]>(),
        block in any::<[u8; 64]>(),
    ) {
        let desc = kreg::get(id::SHA1).expect("sha1 is registered");
        let CallConv::BlockMem { golden_sha1 } = desc.conv else {
            panic!("sha1 must use the block-memory convention");
        };
        let mut sim = SimSha1::new(CpuConfig::default());
        let (out, cycles) = sim.compress(state, &block);
        let mut expect = state;
        golden_sha1(&mut expect, &block);
        prop_assert_eq!(out, expect);
        prop_assert!(cycles > 0);
    }
}
