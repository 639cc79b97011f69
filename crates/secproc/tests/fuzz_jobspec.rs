//! Deterministic fuzz tests for the job-spec parsers, [`JobSpec::parse`]
//! (a spec's JSON text, as a client sends it) and [`JobSpec::from_json`]
//! (an already parsed JSON value).
//!
//! Text inputs are valid specs of every job kind, mutated at the byte
//! level (flips, truncations, deletions, duplications) and with spliced
//! hostile tokens. Value inputs are objects built field by field from
//! valid and hostile values of every JSON type, including the
//! non-finite numbers that JSON text cannot carry. The generators are
//! seeded from the test's name (set `PROPTEST_SEED` to vary them). For
//! every input the parser must return without panicking, a rejection
//! must carry one of the two codes `from_json` documents, and an
//! accepted spec must print to canonical JSON that parses back to an
//! equal spec with the same digest.

use proptest::prelude::*;
use secproc::error::{codes, Error};
use secproc::job::{JobKind, JobSpec};
use xobs::Json;

/// The codes a rejected spec may carry.
const SPEC_CODES: &[u32] = &[codes::JOB_SPEC, codes::KERNEL_UNKNOWN];

const KINDS: [JobKind; 5] = [
    JobKind::Characterize,
    JobKind::Explore,
    JobKind::Curves,
    JobKind::Measure,
    JobKind::FaultCampaign,
];

/// Valid spec texts: every kind's defaults, and hand-written terse and
/// full specs.
fn spec_seeds() -> Vec<String> {
    let mut lines: Vec<String> = KINDS
        .iter()
        .map(|&kind| JobSpec::new(kind).to_json().to_string_compact())
        .collect();
    lines.extend(
        [
            r#"{"kind":"explore","bits":128}"#,
            r#"{"kind":"measure","kernels":["mpn_add_n","mpn_mul_1"],"limbs":4,"seed":42}"#,
            r#"{"kind":"fault_campaign","core":"ooo-i2x2-r32s16l8b256","variant":"accel-a4m2","seed":"18446744073709551615","faults":"seed=7,rate=20000,sites=data+custom","glue_cost":2.5,"fidelity":"accurate"}"#,
            r#" { "kind" : "curves" , "limbs" : 8 , "faults" : null , "fidelity" : "fast" } "#,
        ]
        .map(str::to_owned),
    );
    lines
}

/// Hostile fragments spliced into spec texts.
const TOKENS: &[&str] = &[
    "\"kind\":\"bake\"",
    "\"kind\":7",
    "\"kernels\":[\"mpn_nope\"]",
    "\"kernels\":[1]",
    "\"kernels\":\"mpn_add_n\"",
    "\"core\":\"ooo-i\"",
    "\"core\":\"ooo-i0x0-r0s0l0b0\"",
    "\"core\":\"ooo-i2x2-r32s0l8b256\"",
    "\"core\":\"ooo-i2x2-r32s16l8b4294967295\"",
    "\"variant\":\"accel-a3m1\"",
    "\"variant\":\"accel-a99m99\"",
    "\"faults\":\"rate=x\"",
    "\"faults\":\"sites=\"",
    "\"faults\":7",
    "\"fidelity\":\"warp\"",
    "\"seed\":\"-1\"",
    "\"seed\":\"18446744073709551616\"",
    "\"seed\":true",
    "\"seed\":-5",
    "\"bits\":-1",
    "\"limbs\":1e300",
    "\"glue_cost\":-0",
    "\"glue_cost\":\"4\"",
    "1e400",
    "-1e400",
    "99999999999999999999999999999",
    "\\u",
    "\\ud800",
    "\"",
    ",",
    ":",
    "{",
    "}",
    "[",
    "]",
    "null",
    "\u{0}",
    "é",
    " ",
];

/// Checks the parser contract for one input and its outcome.
fn check(input: &str, parsed: Result<JobSpec, Error>) {
    match parsed {
        Ok(spec) => {
            let text = spec.to_json().to_string_compact();
            let back = JobSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{input:?} printed as {text} fails to parse: {e}"));
            assert_eq!(back, spec, "{input:?}");
            assert_eq!(back.digest(), spec.digest(), "{input:?}");
        }
        Err(e) => assert!(
            SPEC_CODES.contains(&e.code()),
            "code {} for {input:?}: {e}",
            e.code()
        ),
    }
}

fn check_text(text: &str) {
    check(text, JobSpec::parse(text));
}

fn check_value(v: &Json) {
    check(&v.to_string_compact(), JobSpec::from_json(v));
}

/// One damage to a text's bytes.
fn mutate(text: &mut Vec<u8>, (kind, a, b, t): (u8, usize, usize, usize)) {
    let token = TOKENS[t % TOKENS.len()].as_bytes();
    if text.is_empty() {
        text.extend_from_slice(token);
        return;
    }
    let (i, j) = (a % text.len(), b % text.len());
    match kind {
        0 => text[i] ^= 1 << (b % 8),
        1 => text.truncate(i),
        2 => {
            text.remove(i);
        }
        3 => {
            let (lo, hi) = (i.min(j), i.max(j));
            let span = text[lo..hi].to_vec();
            text.splice(hi..hi, span);
        }
        4 => {
            text.splice(i..i, token.iter().copied());
        }
        _ => {
            let end = (i + b % 12).min(text.len());
            text.splice(i..end, token.iter().copied());
        }
    }
}

fn mutant() -> impl Strategy<Value = String> {
    let seeds = spec_seeds();
    let edit = (0u8..6, 0usize..1024, 0usize..1024, 0..TOKENS.len());
    (0..seeds.len(), prop::collection::vec(edit, 1..4)).prop_map(move |(seed, edits)| {
        let mut text = seeds[seed].as_bytes().to_vec();
        for edit in edits {
            mutate(&mut text, edit);
        }
        String::from_utf8_lossy(&text).into_owned()
    })
}

/// The fields `from_json` reads, plus one it ignores.
const FIELDS: &[&str] = &[
    "kind",
    "core",
    "variant",
    "kernels",
    "bits",
    "limbs",
    "cosim_samples",
    "train_samples",
    "validation_points",
    "seed",
    "glue_cost",
    "fidelity",
    "faults",
    "extra",
];

/// Strings a field may hold: every valid name of each string field and
/// hostile ones.
const STRINGS: &[&str] = &[
    "characterize",
    "explore",
    "curves",
    "measure",
    "fault_campaign",
    "io",
    "ooo-i2x2-r32s16l8b256",
    "ooo-i64x64-r4096s4096l4096b65536",
    "ooo-i2x2-r32s0l8b256",
    "ooo-i2x2-r32s16l8b65537",
    "base",
    "accel-a4m2",
    "accel-a16m4",
    "accel-a3m1",
    "mpn_add_n",
    "mpn_nope",
    "accurate",
    "fast",
    "seed=7,rate=200",
    "seed=5,rate=300000,sites=data",
    "rate=banana",
    "0",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "",
];

/// Numbers a field may hold, non-finite ones included.
const NUMBERS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    2.5,
    8.0,
    128.0,
    -1.0,
    9.007_199_254_740_993e15,
    1.844_674_407_370_955_2e19,
    1e300,
    -1e300,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// One field value of any JSON type.
fn value((kind, a, b): (u8, usize, usize)) -> Json {
    let string = || Json::from(STRINGS[a % STRINGS.len()]);
    match kind {
        0 => Json::Null,
        1 => Json::Bool(a % 2 == 0),
        2 => Json::Num(NUMBERS[a % NUMBERS.len()]),
        3 => string(),
        4 => Json::Arr(
            (0..b % 4)
                .map(|k| Json::from(STRINGS[(a + k) % STRINGS.len()]))
                .collect(),
        ),
        5 => Json::Arr(vec![Json::Num(NUMBERS[a % NUMBERS.len()]), string()]),
        _ => Json::obj().set("kind", string()),
    }
}

fn spec_value() -> impl Strategy<Value = Json> {
    let field = (0..FIELDS.len(), (0u8..7, 0usize..64, 0usize..64));
    (0..KINDS.len(), prop::collection::vec(field, 0..8)).prop_map(|(kind, fields)| {
        let mut v = Json::obj().set("kind", KINDS[kind].as_str());
        for (name, val) in fields {
            v = v.set(FIELDS[name], value(val));
        }
        v
    })
}

#[test]
fn the_seed_specs_parse_and_round_trip() {
    for text in spec_seeds() {
        JobSpec::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        check_text(&text);
    }
}

#[test]
fn non_objects_are_spec_errors() {
    for v in [
        Json::Null,
        Json::Bool(true),
        Json::Num(f64::NAN),
        Json::from("explore"),
        Json::Arr(vec![Json::obj().set("kind", "explore")]),
    ] {
        let e = JobSpec::from_json(&v).unwrap_err();
        assert_eq!(e.code(), codes::JOB_SPEC, "{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn mutated_spec_texts_get_typed_errors_or_round_trip(text in mutant()) {
        check_text(&text);
    }

    #[test]
    fn hostile_spec_values_get_typed_errors_or_round_trip(v in spec_value()) {
        check_value(&v);
    }
}
