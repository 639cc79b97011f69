//! Deterministic fuzz tests for the wire protocol's two parsers,
//! [`Request::parse`] (every line a client sends) and
//! [`Response::parse`] (every line the daemon sends back).
//!
//! Valid lines of every request op and response type are mutated at
//! the byte level (flips, truncations, deletions, duplications) and
//! with spliced hostile tokens: wrong-typed fields, huge and negative
//! numbers, bad escapes and surrogates, unknown ops, kinds, kernels,
//! cores, variants and fault plans, and nesting past the JSON depth
//! limit. The generators are seeded from the test's name (set
//! `PROPTEST_SEED` to vary them). For every line the parsers must
//! return without panicking, a rejection must carry one of the
//! workspace's stable error codes, and an accepted line must parse
//! back to the same value from its printed form.

use proptest::prelude::*;
use secproc::error::codes;
use secproc::job::{JobKind, JobSpec};
use xobs::Frame;
use xserve::{Request, Response, StatsBody};

/// Codes a malformed line may surface: the protocol's own, and the
/// spec-level and kernel-name codes of an embedded [`JobSpec`].
const LINE_CODES: &[u32] = &[
    codes::PROTO_BAD_REQUEST,
    codes::PROTO_UNKNOWN,
    codes::JOB_SPEC,
    codes::KERNEL_UNKNOWN,
];

/// One valid line per request op, and submits of every job kind.
fn request_seeds() -> Vec<String> {
    let mut lines = vec![
        r#"{"op":"submit","spec":{"kind":"measure","kernels":["mpn_add_n","mpn_mul_1"],"limbs":4}}"#.to_owned(),
        r#"{"op":"submit","id":"job-😀","priority":-3,"spec":{"kind":"fault_campaign","core":"ooo-i2x2-r32s16l8b256","variant":"accel-a4m1","seed":"18446744073709551615","faults":"seed=7,rate=20000,sites=data+custom","glue_cost":2.5,"fidelity":"accurate"}}"#.to_owned(),
        r#"{"op":"submit","priority":1e3,"spec":{"kind":"explore","bits":128,"seed":42,"fidelity":"fast","faults":null}}"#.to_owned(),
        r#"{"op":"cancel","id":"j-1"}"#.to_owned(),
        r#"{"op":"query","core":"io","variant":"base","kernel":"mpn_add_n","n":8,"seed":1}"#.to_owned(),
        r#"{"op":"stats"}"#.to_owned(),
        r#" { "op" : "shutdown" } "#.to_owned(),
    ];
    for kind in [
        JobKind::Characterize,
        JobKind::Explore,
        JobKind::Curves,
        JobKind::Measure,
        JobKind::FaultCampaign,
    ] {
        let submit = Request::Submit {
            id: Some(format!("{}-1", kind.as_str())),
            priority: 7,
            spec: JobSpec::new(kind),
        };
        lines.push(submit.to_json().to_string_compact());
    }
    lines
}

/// One valid line per response type.
fn response_seeds() -> Vec<String> {
    let responses = [
        Response::Accepted {
            id: "j-1".into(),
            digest: "0123456789abcdef".into(),
        },
        Response::JobFrame {
            id: "j-1".into(),
            frame: Frame {
                seq: 3,
                last: true,
                data: "{\"schema\":\"xobs.run-report\",\"n\":[1,2]}\n".into(),
            },
        },
        Response::JobError {
            id: "j-2".into(),
            code: codes::PROTO_CANCELLED,
            detail: "cancelled by client".into(),
        },
        Response::QueryResult { cycles: 202.0 },
        Response::QueryResult { cycles: 0.125 },
        Response::Stats(StatsBody {
            submitted: 9,
            completed: 7,
            cancelled: 1,
            failed: 1,
            queries: 40,
            queue_depth: 0,
            threads: 8,
            cache_entries: 1234,
        }),
        Response::Ok,
        Response::Error {
            code: codes::PROTO_UNKNOWN,
            detail: "unknown op `frobnicate`".into(),
        },
    ];
    responses
        .iter()
        .map(|r| r.to_json().to_string_compact())
        .collect()
}

/// Hostile fragments spliced into lines.
const TOKENS: &[&str] = &[
    "\"op\":\"frobnicate\"",
    "\"op\":7",
    "\"type\":\"nope\"",
    "\"type\":null",
    "\"spec\":[]",
    "\"spec\":\"measure\"",
    "\"kind\":\"bake\"",
    "\"kernels\":[\"mpn_nope\"]",
    "\"kernels\":[1]",
    "\"kernels\":\"mpn_add_n\"",
    "\"core\":\"ooo-i\"",
    "\"core\":\"ooo-i0x0-r0s0l0b0\"",
    "\"variant\":\"accel-a4\"",
    "\"variant\":\"accel-a99m99\"",
    "\"faults\":\"rate=x\"",
    "\"faults\":\"sites=\"",
    "\"faults\":\"bogus\"",
    "\"faults\":7",
    "\"fidelity\":\"warp\"",
    "\"seed\":\"-1\"",
    "\"seed\":\"18446744073709551616\"",
    "\"seed\":true",
    "\"seed\":-5",
    "\"n\":-1",
    "\"n\":1e300",
    "\"priority\":-1e300",
    "\"cycles\":\"many\"",
    "\"last\":\"yes\"",
    "\"seq\":-2",
    "\"code\":4294967296",
    "1e400",
    "-1e400",
    "99999999999999999999999999999",
    "\\u",
    "\\uzzzz",
    "\\ud800",
    "\\udc00\\ud800",
    "\\x",
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
    "😀",
    " ",
];

/// Checks that `result` is either a value that parses back to itself
/// through `print`, or an error with a stable code.
fn check<T: PartialEq + std::fmt::Debug>(
    line: &str,
    result: Result<T, secproc::error::Error>,
    reparse: impl Fn(&T) -> Result<T, secproc::error::Error>,
) {
    match result {
        Ok(v) => assert_eq!(reparse(&v).as_ref(), Ok(&v), "{line:?}"),
        Err(e) => assert!(
            LINE_CODES.contains(&e.code()),
            "code {} for {line:?}: {e}",
            e.code()
        ),
    }
}

fn check_request(line: &str) {
    check(line, Request::parse(line), |r| {
        Request::parse(&r.to_json().to_string_compact())
    });
}

fn check_response(line: &str) {
    check(line, Response::parse(line), |r| {
        Response::parse(&r.to_json().to_string_compact())
    });
}

/// One damage to a line's bytes.
fn mutate(line: &mut Vec<u8>, (kind, a, b, t): (u8, usize, usize, usize)) {
    let token = TOKENS[t % TOKENS.len()].as_bytes();
    if line.is_empty() {
        line.extend_from_slice(token);
        return;
    }
    let (i, j) = (a % line.len(), b % line.len());
    match kind {
        0 => line[i] ^= 1 << (b % 8),
        1 => line.truncate(i),
        2 => {
            line.remove(i);
        }
        3 => {
            let (lo, hi) = (i.min(j), i.max(j));
            let span = line[lo..hi].to_vec();
            line.splice(hi..hi, span);
        }
        4 => {
            line.splice(i..i, token.iter().copied());
        }
        _ => {
            // Replace a span with a token.
            let end = (i + b % 12).min(line.len());
            line.splice(i..end, token.iter().copied());
        }
    }
}

fn mutant(seeds: Vec<String>) -> impl Strategy<Value = String> {
    let edit = (0u8..6, 0usize..1024, 0usize..1024, 0..TOKENS.len());
    (0..seeds.len(), prop::collection::vec(edit, 1..4)).prop_map(move |(seed, edits)| {
        let mut line = seeds[seed].as_bytes().to_vec();
        for edit in edits {
            mutate(&mut line, edit);
        }
        String::from_utf8_lossy(&line).into_owned()
    })
}

#[test]
fn the_seed_lines_parse_and_round_trip() {
    for line in request_seeds() {
        Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        check_request(&line);
    }
    for line in response_seeds() {
        Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        check_response(&line);
    }
}

#[test]
fn nesting_past_the_json_limit_is_a_bad_request() {
    for depth in [129, 100_000] {
        let line = format!(
            "{{\"op\":\"submit\",\"spec\":{}1{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let e = Request::parse(&line).unwrap_err();
        assert_eq!(e.code(), codes::PROTO_BAD_REQUEST, "{e}");
        let e = Response::parse(&line.replace("\"op\"", "\"type\"")).unwrap_err();
        assert_eq!(e.code(), codes::PROTO_BAD_REQUEST, "{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn mutated_requests_get_typed_errors_or_round_trip(line in mutant(request_seeds())) {
        check_request(&line);
    }

    #[test]
    fn mutated_responses_get_typed_errors_or_round_trip(line in mutant(response_seeds())) {
        check_response(&line);
    }
}
