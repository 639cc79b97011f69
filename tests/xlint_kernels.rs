//! Static-analysis integration tests: every shipped kernel must be
//! lint-clean under `xlint`, and a deliberately leaky kernel must be
//! flagged with rule, pc and source line.

use std::collections::BTreeSet;

use wsp::kreg::kernels::{mpn, sha};
use wsp::secproc::insns::{cipher_extension_set, mpn_extension_set};
use wsp::secproc::kernels::{aes, des};
use wsp::tie::insn::CustomInsn;
use wsp::xlint::{analyze_source, Report, Rule, SecretSpec};
use wsp::xr32::asm::assemble;
use wsp::xr32::ext::ExtensionSet;
use wsp::xr32::isa::Insn;

/// Analyzes `src` and asserts there are no error-severity findings.
fn assert_clean(name: &str, src: &str) {
    let report = analyze_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(report.no_errors(), "{name} has lint errors:\n{report}");
}

#[test]
fn mpn_base32_kernels_are_clean() {
    assert_clean("mpn base32", &mpn::base32_source());
}

#[test]
fn mpn_base16_kernels_are_clean() {
    assert_clean("mpn base16", &mpn::base16_source());
}

#[test]
fn mpn_accel32_kernels_are_clean_for_all_lane_configs() {
    for add_lanes in [2u32, 4, 8, 16] {
        for mac_lanes in [1u32, 2, 4] {
            assert_clean(
                &format!("mpn accel32 al={add_lanes} ml={mac_lanes}"),
                &mpn::accel32_source(add_lanes, mac_lanes),
            );
        }
    }
}

#[test]
fn des_kernels_are_clean() {
    let map = des::MemoryMap::default();
    assert_clean("des base", &des::base_source(&map));
    assert_clean("des accel", &des::accel_source(&map));
}

#[test]
fn aes_kernels_are_clean() {
    let map = aes::MemoryMap::default();
    assert_clean("aes base", &aes::base_source(&map));
    assert_clean("aes accel", &aes::accel_source(&map));
}

#[test]
fn sha_kernel_is_clean() {
    let map = sha::MemoryMap::default();
    assert_clean("sha1", &sha::source(&map));
}

/// A deliberately leaky kernel: branches on a secret and indexes a
/// table with one. Both leaks must be reported with the right rule,
/// the right pc, and the right source line.
const LEAKY: &str = "\
;! entry leaky inputs=a0,a1 secret=a1
leaky:
    movi a2, 0
    beq  a1, a2, skip
    nop
skip:
    movi a3, 0x1000
    add  a3, a3, a1
    lw   a4, a3, 0
    ret
";

fn finding(report: &Report, rule: Rule) -> &wsp::xlint::Finding {
    report
        .findings()
        .iter()
        .find(|f| f.rule == rule)
        .unwrap_or_else(|| panic!("no {rule} finding in:\n{report}"))
}

#[test]
fn leaky_fixture_is_flagged_with_rule_pc_and_line() {
    let report = analyze_source(LEAKY).expect("leaky fixture analyzes");
    assert!(!report.no_errors(), "leak went undetected:\n{report}");
    let program = assemble(LEAKY).expect("leaky fixture assembles");

    let branch = finding(&report, Rule::SecretBranch);
    // pc 0: movi, pc 1: beq.
    assert_eq!(branch.pc, 1, "got {branch}");
    assert_eq!(branch.line, program.line_of(branch.pc), "got {branch}");
    assert_eq!(branch.line, Some(4), "got {branch}");

    let load = finding(&report, Rule::SecretLoad);
    assert_eq!(load.pc, 5, "got {load}");
    assert_eq!(load.line, Some(9), "got {load}");
}

/// Every `cust` mnemonic an accelerated kernel uses must carry a
/// `;! cust` operand signature (so the operand lint actually checks
/// it) and must exist in the extension set the kernel is run under.
fn assert_custom_usage_covered(name: &str, src: &str, ext: &ExtensionSet) {
    let spec = SecretSpec::from_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let used: BTreeSet<&str> = program
        .insns()
        .iter()
        .filter_map(|i| match i {
            Insn::Custom(op) => Some(op.name.as_str()),
            _ => None,
        })
        .collect();
    assert!(!used.is_empty(), "{name}: accel kernel uses no cust insns?");
    let registered: BTreeSet<&str> = ext.names().collect();
    for mnemonic in used {
        assert!(
            spec.sig(mnemonic).is_some(),
            "{name}: `{mnemonic}` has no `;! cust` signature annotation"
        );
        assert!(
            registered.contains(mnemonic),
            "{name}: `{mnemonic}` is not in the kernel's extension set"
        );
    }
}

#[test]
fn accel_kernel_custom_usage_is_annotated_and_registered() {
    for add_lanes in [2u32, 4, 8, 16] {
        for mac_lanes in [1u32, 2, 4] {
            assert_custom_usage_covered(
                &format!("mpn accel32 al={add_lanes} ml={mac_lanes}"),
                &mpn::accel32_source(add_lanes, mac_lanes),
                &mpn_extension_set(add_lanes, mac_lanes),
            );
        }
    }
    let ext = cipher_extension_set();
    assert_custom_usage_covered(
        "des accel",
        &des::accel_source(&des::MemoryMap::default()),
        &ext,
    );
    assert_custom_usage_covered(
        "aes accel",
        &aes::accel_source(&aes::MemoryMap::default()),
        &ext,
    );
}

/// TIE design points name instructions `family_level`; the assembler
/// and the `;! cust` annotations use the fused mnemonic. The bridge
/// must agree with what the extension sets register.
#[test]
fn tie_mnemonics_match_extension_set_names() {
    for (add_lanes, mac_lanes) in [(2u32, 1u32), (16, 4)] {
        let ext = mpn_extension_set(add_lanes, mac_lanes);
        let registered: BTreeSet<&str> = ext.names().collect();
        for family in ["add", "sub"] {
            let m = CustomInsn::new(family, add_lanes, 0).mnemonic();
            assert!(registered.contains(m.as_str()), "missing {m}");
        }
        for family in ["mac", "msub"] {
            let m = CustomInsn::new(family, mac_lanes, 0).mnemonic();
            assert!(registered.contains(m.as_str()), "missing {m}");
        }
    }
}

/// The allowlist is what keeps the software S-box variants "clean":
/// stripping the `;! allow` annotations must resurface the accepted
/// table-lookup leaks in the base DES and AES kernels.
#[test]
fn sbox_leaks_resurface_without_allow_annotations() {
    for (name, src) in [
        ("des base", des::base_source(&des::MemoryMap::default())),
        ("aes base", aes::base_source(&aes::MemoryMap::default())),
    ] {
        let stripped: String = src
            .lines()
            .map(|l| match l.find(";! allow(") {
                Some(ix) => &l[..ix],
                None => l,
            })
            .collect::<Vec<_>>()
            .join("\n");
        let report = analyze_source(&stripped).expect("kernel analyzes");
        assert!(
            report.findings().iter().any(|f| f.rule == Rule::SecretLoad),
            "{name}: expected secret-load findings once allows are stripped:\n{report}"
        );
    }
}
