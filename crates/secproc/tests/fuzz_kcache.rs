//! Deterministic fuzz test for loading a persisted kernel-cycle cache
//! ([`KCache::open`]).
//!
//! Inputs are a valid `kcache.json` document, written by the cache
//! itself, mutated at the byte level (flips, truncations, deletions,
//! duplications) and with spliced hostile tokens. The generator is the
//! vendored `rand` shim under a fixed seed. For every input the load
//! must return without panicking and must never serve an entry that
//! differs from what the writer recorded. When the document still
//! parses to an `entries` array, each element is either loaded or
//! dropped and counted in [`KCache::poisoned_dropped`]; a document that
//! does not loads nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secproc::kcache::{key, KCache};
use std::collections::{BTreeMap, BTreeSet};
use xobs::Json;
use xpar::memo::checksum;

/// Mutated documents per run.
const CASES: usize = 3000;

/// Hostile fragments spliced into documents.
const TOKENS: &[&str] = &[
    "null",
    "true",
    "7",
    "-1",
    "1e400",
    "\"x\"",
    "\"check\":\"zz\"",
    "\"check\":7",
    "\"check\":\"+0\"",
    "\"key\":7",
    "\"key\":\"\"",
    "\"values\":[1,\"x\"]",
    "\"values\":[]",
    "\"values\":{}",
    "\"entries\":{}",
    "\"entries\":[1,[],{}]",
    "{}",
    "[]",
    "\"",
    ",",
    ":",
    "{",
    "}",
    "[",
    "]",
    "\\u",
    "\u{0}",
    "é",
    " ",
];

/// The writer's entries: key to cycles.
fn originals() -> BTreeMap<String, Vec<f64>> {
    let mut out = BTreeMap::new();
    for i in 0..12u64 {
        let op = ["mpn_add_n", "mpn_addmul_1", "charact:mpn_mul_1.r16"][i as usize % 3];
        let k = key(0xC0FFEE ^ i, "base", op, 1 + i % 5, i * 977);
        let values = (0..=i % 3).map(|j| 100.5 * (i + j) as f64).collect();
        out.insert(k, values);
    }
    out
}

/// One damage to a document's bytes.
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
            let end = (i + rng.random_range(0..12usize)).min(text.len());
            text.splice(i..end, token.iter().copied());
        }
    }
}

/// Whether a document element is one of the writer's entries: its key,
/// its cycles and its checksum are the ones recorded. Only a checksum
/// collision could make the cache accept anything else.
fn is_original(entry: &Json, originals: &BTreeMap<String, Vec<f64>>) -> bool {
    let Some(k) = entry.get("key").and_then(Json::as_str) else {
        return false;
    };
    let Some(want) = originals.get(k) else {
        return false;
    };
    let values: Option<Vec<f64>> = entry
        .get("values")
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().map(Json::as_f64).collect())
        .and_then(|vs: Vec<Option<f64>>| vs.into_iter().collect());
    let check = entry
        .get("check")
        .and_then(Json::as_str)
        .and_then(|c| u64::from_str_radix(c, 16).ok());
    values.as_ref() == Some(want) && check == Some(checksum(k, want))
}

/// Loads `doc` from `path` and checks the load contract.
fn check(doc: &[u8], path: &std::path::Path, originals: &BTreeMap<String, Vec<f64>>) {
    std::fs::write(path, doc).unwrap();
    let cache = KCache::open(path);
    let shown = String::from_utf8_lossy(doc);
    for (k, v) in cache.entries() {
        assert_eq!(originals.get(&k), Some(&v), "served {k} from {shown}");
    }
    let parsed = std::str::from_utf8(doc)
        .ok()
        .and_then(|text| xobs::json::parse(text).ok());
    let elements = parsed
        .as_ref()
        .and_then(|json| json.get("entries"))
        .and_then(Json::as_arr);
    match elements {
        Some(elements) => {
            let kept: Vec<&Json> = elements
                .iter()
                .filter(|e| is_original(e, originals))
                .collect();
            let keys: BTreeSet<&str> = kept
                .iter()
                .filter_map(|e| e.get("key").and_then(Json::as_str))
                .collect();
            assert_eq!(cache.len(), keys.len(), "{shown}");
            assert_eq!(
                cache.poisoned_dropped(),
                (elements.len() - kept.len()) as u64,
                "{shown}"
            );
        }
        None => {
            assert_eq!(cache.len(), 0, "{shown}");
            assert_eq!(cache.poisoned_dropped(), 0, "{shown}");
        }
    }
}

/// A file of this test's own: the tests run in parallel.
fn scratch_path(test: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("fuzz_kcache_{test}_{}.json", std::process::id()));
    path
}

#[test]
fn the_writers_document_loads_whole() {
    let originals = originals();
    let writer = KCache::new();
    for (k, v) in &originals {
        writer.insert(k, v.clone());
    }
    let doc = writer.to_json().to_string_compact();
    let path = scratch_path("whole");
    check(doc.as_bytes(), &path, &originals);
    let cache = KCache::open(&path);
    assert_eq!(cache.len(), originals.len());
    assert_eq!(cache.poisoned_dropped(), 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_entries_are_dropped_and_counted() {
    let (k, v) = (key(1, "base", "mpn_add_n", 4, 2), 117.0);
    let check_hex = format!("{:016x}", checksum(&k, &[v]));
    let entries = [
        format!(r#"{{"key":"{k}","values":[{v}],"check":"{check_hex}"}}"#),
        "7".to_owned(),
        "{}".to_owned(),
        format!(r#"{{"key":"{k}","values":[{v}],"check":"zz"}}"#),
        format!(r#"{{"key":"{k}","values":[{v},"x"],"check":"{check_hex}"}}"#),
        format!(r#"{{"key":7,"values":[{v}],"check":"{check_hex}"}}"#),
    ];
    let doc = format!(
        r#"{{"schema_version":1,"entries":[{}]}}"#,
        entries.join(",")
    );
    let path = scratch_path("malformed");
    check(doc.as_bytes(), &path, &[(k, vec![v])].into());
    let cache = KCache::open(&path);
    assert_eq!((cache.len(), cache.poisoned_dropped()), (1, 5));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutated_documents_load_only_what_the_writer_recorded() {
    let originals = originals();
    let writer = KCache::new();
    for (k, v) in &originals {
        writer.insert(k, v.clone());
    }
    let doc = writer.to_json().to_string_compact().into_bytes();
    let path = scratch_path("mutated");
    let mut rng = StdRng::seed_from_u64(0x6B_CAC4E);
    for _ in 0..CASES {
        let mut text = doc.clone();
        for _ in 0..rng.random_range(1..4) {
            mutate(&mut text, &mut rng);
        }
        check(&text, &path, &originals);
    }
    let _ = std::fs::remove_file(&path);
}
