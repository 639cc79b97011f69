//! Deterministic fuzz tests for assembly text, the input boundary of
//! the assembler and the linter.
//!
//! Two generators, both seeded from the test's name (set
//! `PROPTEST_SEED` to vary them): *token soup* joins random tokens of
//! the assembly and annotation vocabulary — mnemonics, registers,
//! numbers at and past their limits, labels, annotation keywords,
//! punctuation and stray Unicode — and *mutation* damages an annotated
//! kernel that lints clean (deleting, duplicating, swapping and
//! truncating lines and spans, and splicing tokens in). For every input
//! [`assemble`], [`SecretSpec::from_source`] and [`analyze_source`]
//! must return without panicking, and every error must be typed and
//! carry a 1-based line inside the input.

use proptest::prelude::*;
use xlint::{analyze_source, AnalyzeError, SecretSpec};
use xr32::asm::assemble;

/// The assembly and annotation vocabulary, with hostile neighbours.
const TOKENS: &[&str] = &[
    // Mnemonics.
    "add",
    "addc",
    "sub",
    "subc",
    "and",
    "or",
    "xor",
    "sll",
    "srl",
    "sra",
    "sltu",
    "slt",
    "mul",
    "mulhu",
    "addi",
    "andi",
    "ori",
    "xori",
    "slli",
    "srli",
    "srai",
    "movi",
    "mov",
    "lw",
    "lbu",
    "lhu",
    "sw",
    "sb",
    "sh",
    "beq",
    "bne",
    "bltu",
    "bgeu",
    "blt",
    "bge",
    "j",
    "call",
    "jr",
    "ret",
    "clc",
    "nop",
    "halt",
    "cust",
    "ADD",
    "mo v",
    // Registers, good and bad.
    "a0",
    "a1",
    "a5",
    "a15",
    "a16",
    "a-1",
    "sp",
    "ra",
    "ur0",
    "ur7",
    "ur99",
    "carry",
    "none",
    // Numbers.
    "0",
    "1",
    "-1",
    "31",
    "32",
    "0x7fffffff",
    "0xffffffff",
    "0x100000000",
    "-0x80000000",
    "4294967296",
    "99999999999999999999999",
    "0x",
    "0xg",
    "--1",
    "1e3",
    // Labels and references.
    "main",
    "main:",
    "f:",
    ".l1",
    ".l1:",
    "div_qhat",
    ":",
    "::",
    ".",
    "f",
    // Annotations.
    ";!",
    ";",
    ";! entry",
    "entry",
    "inputs=a0-a3",
    "inputs=a0-a15,sp,ra",
    "inputs=a3-a1",
    "inputs=",
    "secret=a1",
    "secret-ptr=a1,a2",
    "secret=carry",
    "public",
    "secret-mem",
    "0x30000",
    "0x60",
    "regs=1",
    "regs=99",
    "uregs=2",
    "kind=load",
    "kind=store",
    "kind=compute",
    "kind=bogus",
    "writes-reg=1",
    "writes-reg=7,0",
    "reads-carry",
    "writes-carry",
    "allow(secret-load)",
    "allow(",
    "allow()",
    "allow(no-such-rule)",
    // Punctuation, whitespace and stray text.
    ",",
    ", ,",
    "\t",
    " ",
    "(",
    ")",
    "=",
    "-",
    "é",
    "∞",
    "\u{0}",
    "\u{feff}",
    "\r",
];

/// A correct annotated unit: two entries, a custom-instruction
/// signature, a secret range and an allowlisted line.
const CLEAN: &str = "\
;! entry add inputs=a0-a3,sp,ra secret-ptr=a1,a2
;! entry leak inputs=a0,sp,ra secret=a0
;! secret-mem 0x30000 0x60
;! cust ldur regs=1 uregs=1 kind=load
add:                       ; a0=rp a1=ap a2=bp a3=n -> a0=carry
    movi a6, 0
    clc
.add_loop:
    lw   a4, a1, 0
    lw   a5, a2, 0
    addi a1, a1, 4
    addi a2, a2, 4
    addc a4, a4, a5
    sw   a4, a0, 0
    addi a0, a0, 4
    addi a3, a3, -1
    bne  a3, a6, .add_loop
    movi a0, 0
    movi a5, 0
    addc a0, a0, a5
    ret
leak:
    movi a1, 0x30000
    add  a1, a1, a0
    lw   a2, a1, 0         ;! allow(secret-load)
    mov  a0, a2
    ret
";

/// The number of lines an error may point at: every `\n`-separated
/// piece, so a trailing empty line counts too.
fn lines(src: &str) -> usize {
    src.split('\n').count()
}

/// Runs the three entry points on `src` and checks their errors.
fn check(src: &str) {
    let last = lines(src);
    let within = |line: usize, what: &str| {
        assert!(
            (1..=last).contains(&line),
            "{what} error at line {line} of {last}: {src:?}"
        );
    };
    if let Err(e) = assemble(src) {
        within(e.line, "assemble");
        assert!(!e.message.is_empty());
    }
    if let Err(e) = SecretSpec::from_source(src) {
        within(e.line, "spec");
        assert!(!e.message.is_empty());
    }
    match analyze_source(src) {
        Ok(report) => {
            for finding in report.findings() {
                if let Some(line) = finding.line {
                    within(line, "finding");
                }
            }
        }
        Err(AnalyzeError::Assemble(e)) => within(e.line, "analyze: assemble"),
        Err(AnalyzeError::Spec(e)) => within(e.line, "analyze: spec"),
        Err(AnalyzeError::UnknownEntry(label)) => {
            assert!(
                src.contains(label.as_str()),
                "unknown entry {label:?}: {src:?}"
            )
        }
    }
}

/// Separators between soup tokens: mostly spaces, with the line,
/// operand and comment structure mixed in.
const SEPARATORS: &[&str] = &[
    " ", " ", " ", ", ", "\n", "\n    ", "\t", "", " ;! ", "\r\n",
];

fn soup() -> impl Strategy<Value = String> {
    let token = (0..TOKENS.len(), 0..SEPARATORS.len());
    prop::collection::vec(token, 0..40).prop_map(|picks| {
        let mut src = String::new();
        for (t, s) in picks {
            src.push_str(TOKENS[t]);
            src.push_str(SEPARATORS[s]);
        }
        src
    })
}

/// One damage to a line-split source.
fn mutate(lines: &mut Vec<String>, (kind, a, b, t): (u8, usize, usize, usize)) {
    if lines.is_empty() {
        lines.push(TOKENS[t % TOKENS.len()].to_owned());
        return;
    }
    let (i, j) = (a % lines.len(), b % lines.len());
    match kind {
        0 => {
            lines.remove(i);
        }
        1 => {
            let copy = lines[i].clone();
            lines.insert(j, copy);
        }
        2 => lines.swap(i, j),
        3 => {
            // Truncate a line at a character boundary.
            let line = &mut lines[i];
            let keep = line
                .char_indices()
                .map(|(at, _)| at)
                .nth(b % 8)
                .unwrap_or(0);
            line.truncate(keep);
        }
        4 => {
            // Splice a token in at a character boundary.
            let line = &mut lines[i];
            let at = line
                .char_indices()
                .map(|(at, _)| at)
                .nth(b % 24)
                .unwrap_or(line.len());
            line.insert_str(at, TOKENS[t % TOKENS.len()]);
        }
        5 => {
            // Replace one whitespace-separated word.
            let words: Vec<&str> = lines[i].split_whitespace().collect();
            if !words.is_empty() {
                let k = b % words.len();
                let replaced: Vec<&str> = words
                    .iter()
                    .enumerate()
                    .map(|(w, &word)| {
                        if w == k {
                            TOKENS[t % TOKENS.len()]
                        } else {
                            word
                        }
                    })
                    .collect();
                lines[i] = replaced.join(" ");
            }
        }
        _ => lines.truncate(i),
    }
}

fn mutant() -> impl Strategy<Value = String> {
    let edit = (0u8..7, 0usize..64, 0usize..64, 0..TOKENS.len());
    prop::collection::vec(edit, 1..6).prop_map(|edits| {
        let mut lines: Vec<String> = CLEAN.lines().map(str::to_owned).collect();
        for edit in edits {
            mutate(&mut lines, edit);
        }
        lines.join("\n")
    })
}

#[test]
fn the_unmutated_unit_lints_clean() {
    let report = analyze_source(CLEAN).expect("the seed unit analyzes");
    assert!(report.is_clean(), "{:?}", report.findings());
    assert_eq!(SecretSpec::from_source(CLEAN).unwrap().entries().len(), 2);
}

/// Found by the mutation generator: a label after the last
/// instruction, as an entry or as a branch target, panicked the
/// dataflow solvers and the CFG builder.
#[test]
fn labels_past_the_last_instruction_are_analyzed() {
    for src in [
        ";! entry end secret=a0\nf:\n    ret\nend:",
        "f:\n    ret\nend:\n",
        "f:\n    bne  a0, a1, .out\n    addi a0, a0, 1\n.out:",
        ";! entry f secret=a0\nf:\n    beq  a0, a1, .out\n    ret\n.out:",
    ] {
        check(src);
        analyze_source(src).expect("analyzes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    #[test]
    fn token_soup_gets_typed_errors_on_input_lines(src in soup()) {
        check(&src);
    }

    #[test]
    fn mutated_kernels_get_typed_errors_on_input_lines(src in mutant()) {
        check(&src);
    }
}
