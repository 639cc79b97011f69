//! Deterministic fuzz test for the fault-campaign spec parser,
//! [`PlanSpec::parse`] (the `WSP_FAULTS` variable and a job spec's
//! `faults` field).
//!
//! Inputs are valid spec strings mutated at the byte level (flips,
//! truncations, deletions, duplications) and with spliced hostile
//! tokens, drawn from the vendored `rand` shim under a fixed seed. For
//! every input the parser must return without panicking, a rejection
//! must be an error naming what is wrong, and an accepted spec must
//! print through `to_string` to a canonical form that parses back to an
//! equal spec, with a rate of at most 1,000,000 ppm (certainty).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xfault::PlanSpec;

/// Mutated strings per run.
const CASES: usize = 5000;

/// Valid spec strings.
const SEEDS: &[&str] = &[
    "",
    "seed=7,rate=20000,sites=data+custom",
    "seed=1",
    "rate=0,sites=tag",
    "rate=1000000",
    " seed = 18446744073709551615 , rate = 300000 , sites = reg + tag + custom + data ",
    "sites=custom+data+custom,",
];

/// Hostile fragments spliced into spec strings.
const TOKENS: &[&str] = &[
    "seed=",
    "rate=",
    "sites=",
    "=",
    ",",
    "+",
    "data",
    "reg",
    "tag",
    "custom",
    "bogus",
    "-1",
    "+5",
    "0x10",
    "1000001",
    "4294967295",
    "4294967296",
    "18446744073709551616",
    " ",
    "\t",
    "\u{0}",
    "é",
    "==",
];

/// One damage to a string's bytes.
fn mutate(text: &mut Vec<u8>, rng: &mut StdRng) {
    let token = TOKENS[rng.random_range(0..TOKENS.len())].as_bytes();
    if text.is_empty() {
        text.extend_from_slice(token);
        return;
    }
    let (i, j) = (
        rng.random_range(0..text.len()),
        rng.random_range(0..text.len()),
    );
    match rng.random_range(0..6) {
        0 => text[i] ^= 1u8 << rng.random_range(0..8u32),
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
            let end = (i + rng.random_range(0..8usize)).min(text.len());
            text.splice(i..end, token.iter().copied());
        }
    }
}

/// Checks the parser contract for one input.
fn check(input: &str) {
    match PlanSpec::parse(input) {
        Ok(spec) => {
            assert!(
                spec.rate_ppm <= 1_000_000,
                "{input:?}: rate {}",
                spec.rate_ppm
            );
            let text = spec.to_string();
            let back = PlanSpec::parse(&text)
                .unwrap_or_else(|e| panic!("{input:?} printed as {text:?} fails to parse: {e}"));
            assert_eq!(back, spec, "{input:?}");
            assert_eq!(back.to_string(), text, "{input:?}");
        }
        Err(e) => assert!(
            e.starts_with("fault spec") || e.contains('`'),
            "{input:?}: {e}"
        ),
    }
}

#[test]
fn the_seed_specs_parse_and_round_trip() {
    for text in SEEDS {
        PlanSpec::parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        check(text);
    }
}

#[test]
fn rates_past_certainty_are_rejected() {
    assert_eq!(PlanSpec::parse("rate=1000000").unwrap().rate_ppm, 1_000_000);
    for text in ["rate=1000001", "rate=4294967295", "rate=4294967296"] {
        let e = PlanSpec::parse(text).expect_err(text);
        assert!(e.contains("rate"), "{text}: {e}");
    }
}

#[test]
fn mutated_specs_get_errors_or_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xFA_0175);
    for _ in 0..CASES {
        let mut text = SEEDS[rng.random_range(0..SEEDS.len())].as_bytes().to_vec();
        for _ in 0..rng.random_range(1..4) {
            mutate(&mut text, &mut rng);
        }
        check(&String::from_utf8_lossy(&text));
    }
}
