//! Deterministic fuzz tests for [`json::parse`], the parser every wire
//! line and every report validation goes through.
//!
//! Two generators, both seeded from the test's name (set
//! `PROPTEST_SEED` to vary them): *mutation* damages valid documents
//! (byte flips, truncations, deletions, duplications and spliced
//! hostile tokens: huge numbers, bad escapes, lone and paired
//! surrogates, stray Unicode), and *nesting* wraps a value in arrays
//! and objects on both sides of the depth limit. For every input the
//! parser must return without panicking; a rejection must be a typed
//! error at an offset inside the input, and an accepted document must
//! hold only finite numbers and come back equal from both printers.

use proptest::prelude::*;
use xobs::json::{self, Json};

/// Valid documents: a run report's shape, interchange JSON with
/// whitespace and escapes, and bare scalars.
const SEEDS: &[&str] = &[
    r#"{"schema":"xobs.run-report","version":8,"results":{"cycles":1234,"ratio":2.5,"neg":-7,"tiny":1e-300,"big":1.5e300},"ok":true,"none":null,"tags":["a","b\"c","d\\e"]}"#,
    " { \"a\" : [ 1 , 2.5e1 , \"\\u0041\\n\\t\\/\" , { } , [ ] ] , \"é∞\" : false } ",
    r#"[0,-0,1,-1,9007199254740993,123456789012345678901234567890,0.1,-2.5E-3,1E+2]"#,
    r#"{"op":"submit","id":"job-\ud83d\ude00","priority":3,"spec":{"kind":"measure","kernels":["mpn_add_n"],"limbs":4,"seed":"18446744073709551615"}}"#,
    r#""\u00e9\u20ac\uD834\uDD1E""#,
    "true",
    "null",
    "-12.75",
];

/// Hostile fragments spliced into documents.
const TOKENS: &[&str] = &[
    "1e400",
    "-1e400",
    "1e-400",
    "99999999999999999999999999999999999999",
    "0x10",
    "+1",
    "-",
    "1.",
    ".5",
    "1e",
    "NaN",
    "Infinity",
    "\\",
    "\\x",
    "\\u",
    "\\u12",
    "\\u+041",
    "\\uzzzz",
    "\\ud800",
    "\\udc00",
    "\\ud800\\u0041",
    "\\ud800\\udc00",
    "\\udbff\\udfff",
    "\"",
    "\"\"",
    "\u{0}",
    "\u{1f}",
    "\u{feff}",
    "\u{fffd}",
    "é",
    "😀",
    "[",
    "]",
    "{",
    "}",
    ":",
    ",",
    ",,",
    "{\"k\":",
    "[[[[[[[[",
    "]]]]]]]]",
    "nul",
    "tru",
    "falsey",
    " ",
    "\n",
    "\t",
    "\r",
];

/// The deepest nesting the parser accepts (its documented limit).
const MAX_DEPTH: usize = 128;

/// Parses `src` and checks the outcome.
fn check(src: &str) {
    match json::parse(src) {
        Err(e) => {
            assert!(e.offset <= src.len(), "offset {} past {src:?}", e.offset);
            assert!(!e.message.is_empty(), "untyped error for {src:?}");
        }
        Ok(v) => {
            assert!(finite(&v), "non-finite number from {src:?}");
            for text in [v.to_string_compact(), v.to_string_pretty()] {
                assert_eq!(
                    json::parse(&text).as_ref(),
                    Ok(&v),
                    "{src:?} printed as {text:?}"
                );
            }
        }
    }
}

fn finite(v: &Json) -> bool {
    match v {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(finite),
        Json::Obj(fields) => fields.iter().all(|(_, v)| finite(v)),
        _ => true,
    }
}

/// One damage to a document's bytes.
fn mutate(doc: &mut Vec<u8>, (kind, a, b, t): (u8, usize, usize, usize)) {
    let token = TOKENS[t % TOKENS.len()].as_bytes();
    if doc.is_empty() {
        doc.extend_from_slice(token);
        return;
    }
    let (i, j) = (a % doc.len(), b % doc.len());
    match kind {
        0 => doc[i] ^= 1 << (b % 8),
        1 => doc.truncate(i),
        2 => {
            doc.remove(i);
        }
        3 => {
            let (lo, hi) = (i.min(j), i.max(j));
            let span = doc[lo..hi].to_vec();
            doc.splice(hi..hi, span);
        }
        4 => {
            doc.splice(i..i, token.iter().copied());
        }
        _ => {
            // Replace a span with a token.
            let end = (i + b % 6).min(doc.len());
            doc.splice(i..end, token.iter().copied());
        }
    }
}

fn mutant() -> impl Strategy<Value = String> {
    let edit = (0u8..6, 0usize..512, 0usize..512, 0..TOKENS.len());
    (0..SEEDS.len(), prop::collection::vec(edit, 1..5)).prop_map(|(seed, edits)| {
        let mut doc = SEEDS[seed].as_bytes().to_vec();
        for edit in edits {
            mutate(&mut doc, edit);
        }
        // Byte damage can break UTF-8; the parser takes `&str`.
        String::from_utf8_lossy(&doc).into_owned()
    })
}

/// Array and object nesting of `v`, counting `v` itself.
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A seed document wrapped in arrays and objects to a total nesting
/// near the limit, possibly left unclosed. Yields the text, its total
/// nesting and whether it is closed.
fn nested() -> impl Strategy<Value = (String, usize, bool)> {
    (
        MAX_DEPTH - 6..MAX_DEPTH + 4,
        prop::collection::vec(any::<bool>(), MAX_DEPTH + 4),
        0..SEEDS.len(),
        any::<bool>(),
    )
        .prop_map(|(wraps, objects, seed, close)| {
            let mut src = String::new();
            for &obj in &objects[..wraps] {
                src.push_str(if obj { "{\"k\":" } else { "[" });
            }
            src.push_str(SEEDS[seed]);
            if close {
                for &obj in objects[..wraps].iter().rev() {
                    src.push(if obj { '}' } else { ']' });
                }
            }
            let total = wraps + depth(&json::parse(SEEDS[seed]).expect("seed parses"));
            (src, total, close)
        })
}

#[test]
fn the_seed_documents_parse() {
    for seed in SEEDS {
        json::parse(seed).unwrap_or_else(|e| panic!("{seed:?}: {e}"));
        check(seed);
    }
}

/// The mutation generator found numbers past `f64` parsing to
/// infinities that print as `null`. The escapes beside them had two
/// more faults: `\u` took a sign (`\u+041`), and an escaped surrogate
/// pair became two replacement characters.
#[test]
fn numbers_and_escapes_found_by_fuzzing() {
    for src in [
        "1e400",
        "[-1e400]",
        "{\"a\":1e999}",
        "\"\\u+041\"",
        "\"\\u-041\"",
    ] {
        assert!(json::parse(src).is_err(), "{src:?} accepted");
        check(src);
    }
    let pair = json::parse(r#""\ud83d\ude00""#).unwrap();
    assert_eq!(pair, Json::Str("😀".into()));
    let lone = json::parse(r#""\ud800\u0041\udc00""#).unwrap();
    assert_eq!(lone, Json::Str("\u{fffd}A\u{fffd}".into()));
    check(r#""\ud800\u0041\udc00""#);
}

/// A string's characters are copied in runs: decoding one character
/// at a time re-validated the rest of the input each time, so this
/// 1 MiB string took minutes.
#[test]
fn long_strings_parse() {
    let src = format!("[\"{}\"]", "é".repeat(1 << 19));
    let v = json::parse(&src).unwrap();
    assert_eq!(v.as_arr().unwrap()[0].as_str().map(str::len), Some(1 << 20));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

    #[test]
    fn mutated_documents_get_typed_errors_or_round_trip(src in mutant()) {
        check(&src);
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error(case in nested()) {
        let (src, total, closed) = case;
        check(&src);
        let got = json::parse(&src);
        if total > MAX_DEPTH {
            prop_assert!(got.is_err(), "nesting {total} accepted");
        } else {
            prop_assert_eq!(got.is_ok(), closed, "nesting {total}: {got:?}");
        }
    }
}
