//! `bench_diff` — the exact regression gate over BENCH envelopes (the
//! documents `scripts/bench_report.sh` writes).
//!
//! ```text
//! bench_diff <baseline.json> <new.json>
//! ```
//!
//! Both envelopes are parsed, every run report is normalized with
//! [`xobs::report::normalize`] (host-timing fields, `xpar.*`/`kcache.*`
//! metrics, span wall stamps and per-worker spans stripped), and the
//! surviving scalar leaves are flattened to `path → value` maps and
//! diffed.
//!
//! The exit code is non-zero when a report is missing from either
//! envelope, or when any `results.*` leaf changed, is missing or was
//! added. The results are the simulated numbers, so they must match
//! exactly, whichever way they moved. Other leaves (metrics,
//! degradations, span shapes) describe how a run executed: their
//! changes are listed but never fail the gate. A change that
//! legitimately moves a simulated number regenerates the baseline, and
//! this diff then shows the move.
//!
//! The report is a markdown delta summary on stdout, one section per
//! run report with changes, so a CI log (or a PR description) can carry
//! it as-is.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;

use xobs::Json;

/// Run reports of one envelope, keyed by report name.
type Reports = BTreeMap<String, Json>;

/// One leaf that differs between two normalized reports.
struct Delta {
    path: String,
    old: Option<Json>,
    new: Option<Json>,
}

/// The result of diffing two envelopes.
struct Outcome {
    /// Markdown delta summary.
    markdown: String,
    /// Missing or added reports plus changed, missing or added
    /// `results.*` leaves.
    failures: usize,
    /// Differing leaves outside `results.*`, listed only.
    listed: usize,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, new_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <baseline.json> <new.json>");
        return ExitCode::from(2);
    };
    let (base, new) = match (load_envelope(base_path), load_envelope(new_path)) {
        (Ok(base), Ok(new)) => (base, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("# bench_diff: `{base_path}` → `{new_path}`\n");
    let outcome = diff_envelopes(&base, &new);
    print!("{}", outcome.markdown);
    println!(
        "**summary**: {} failing difference(s), {} listed change(s)",
        outcome.failures, outcome.listed
    );
    if outcome.failures > 0 {
        eprintln!(
            "bench_diff: {} deterministic difference(s)",
            outcome.failures
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads and parses the envelope at `path`.
fn load_envelope(path: &str) -> Result<Reports, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = xobs::json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
    reports_of(&json).map_err(|e| format!("{path}: {e}"))
}

/// The envelope's reports keyed by name.
fn reports_of(envelope: &Json) -> Result<Reports, String> {
    let reports = envelope
        .get("reports")
        .and_then(Json::as_arr)
        .ok_or("not a BENCH envelope (no `reports` array)")?;
    Ok(reports
        .iter()
        .map(|r| {
            let name = r.get("report").and_then(Json::as_str).unwrap_or("?");
            (name.to_owned(), r.clone())
        })
        .collect())
}

fn diff_envelopes(base: &Reports, new: &Reports) -> Outcome {
    let mut out = Outcome {
        markdown: String::new(),
        failures: 0,
        listed: 0,
    };
    let md = &mut out.markdown;
    let names: BTreeSet<&String> = base.keys().chain(new.keys()).collect();
    for name in names {
        let (base_report, new_report) = match (base.get(name), new.get(name)) {
            (Some(a), Some(b)) => (a, b),
            (Some(_), None) => {
                let _ = writeln!(
                    md,
                    "## {name}\n\n**FAIL**: report missing from new envelope\n"
                );
                out.failures += 1;
                continue;
            }
            _ => {
                let _ = writeln!(md, "## {name}\n\n**FAIL**: report not in the baseline\n");
                out.failures += 1;
                continue;
            }
        };
        let deltas = diff_reports(base_report, new_report);
        if deltas.is_empty() {
            continue;
        }
        let _ = writeln!(md, "## {name}\n");
        let _ = writeln!(md, "| leaf | baseline | new | gate |");
        let _ = writeln!(md, "|---|---|---|---|");
        const MAX_ROWS: usize = 40;
        for d in deltas.iter().take(MAX_ROWS) {
            let gate = if gated(&d.path) { "**FAIL**" } else { "listed" };
            let _ = writeln!(
                md,
                "| `{}` | {} | {} | {gate} |",
                d.path,
                render(d.old.as_ref()),
                render(d.new.as_ref())
            );
        }
        if deltas.len() > MAX_ROWS {
            let _ = writeln!(
                md,
                "\n… and {} more differing leaves",
                deltas.len() - MAX_ROWS
            );
        }
        let _ = writeln!(md);
        let failing = deltas.iter().filter(|d| gated(&d.path)).count();
        out.failures += failing;
        out.listed += deltas.len() - failing;
    }
    out
}

/// Normalizes both reports, flattens them, and returns every leaf that
/// differs, is missing or was added.
fn diff_reports(base: &Json, new: &Json) -> Vec<Delta> {
    let mut base_leaves = BTreeMap::new();
    flatten(&xobs::report::normalize(base), "", &mut base_leaves);
    let mut new_leaves = BTreeMap::new();
    flatten(&xobs::report::normalize(new), "", &mut new_leaves);

    let paths: BTreeSet<&String> = base_leaves.keys().chain(new_leaves.keys()).collect();
    paths
        .into_iter()
        .filter_map(|path| {
            let (old, new) = (base_leaves.get(path), new_leaves.get(path));
            (old != new).then(|| Delta {
                path: path.clone(),
                old: old.cloned(),
                new: new.cloned(),
            })
        })
        .collect()
}

/// Only `results.*` leaves gate the exit code: they are the simulated
/// outputs the determinism contract covers.
fn gated(path: &str) -> bool {
    path.starts_with("results.")
}

/// Flatten a JSON tree to leaves keyed by dotted path
/// (`results.cosim_samples[2].error_pct`). Scalars and empty
/// containers are leaves, so every change to a tree changes a leaf.
fn flatten(json: &Json, prefix: &str, out: &mut BTreeMap<String, Json>) {
    match json {
        Json::Obj(pairs) if !pairs.is_empty() => {
            for (k, v) in pairs {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(v, &path, out);
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{prefix}[{i}]"), out);
            }
        }
        leaf => {
            out.insert(prefix.to_owned(), leaf.clone());
        }
    }
}

fn render(json: Option<&Json>) -> String {
    match json {
        None => "(absent)".into(),
        Some(Json::Str(s)) => format!("`{s}`"),
        Some(other) => other.to_string_compact(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table1-like report: two RSA rows, one metric, one span.
    fn report(name: &str, wall_ms: f64, opt_cycles: f64, base_cycles: f64, metric: f64) -> String {
        format!(
            r#"{{"schema_version":8,"report":"{name}","wall_ms":{wall_ms},
                "results":{{"table":{{"rsa":[
                    {{"name":"RSA enc.","base_cycles":{base_cycles},"opt_cycles":900}},
                    {{"name":"RSA dec.","base_cycles":5000,"opt_cycles":{opt_cycles}}}]}}}},
                "metrics":{{"flow.candidates":{{"type":"counter","value":{metric}}}}},
                "spans":[{{"name":"flow","seq_start":0,"seq_end":1,"cycles":0,"tasks":0}}]}}"#
        )
    }

    fn envelope(reports: &[String]) -> Reports {
        let text = format!(
            r#"{{"schema_version":2,"reports":[{}]}}"#,
            reports.join(",")
        );
        reports_of(&xobs::json::parse(&text).unwrap()).unwrap()
    }

    fn baseline() -> Reports {
        envelope(&[
            report("a", 1.0, 400.0, 1000.0, 450.0),
            report("b", 1.0, 400.0, 1000.0, 1.0),
        ])
    }

    #[test]
    fn identical_envelopes_pass() {
        let o = diff_envelopes(&baseline(), &baseline());
        assert_eq!((o.failures, o.listed), (0, 0));
        assert!(o.markdown.is_empty());
    }

    #[test]
    fn an_improved_result_fails() {
        let new = envelope(&[
            report("a", 1.0, 200.0, 1000.0, 450.0),
            report("b", 1.0, 400.0, 1000.0, 1.0),
        ]);
        let o = diff_envelopes(&baseline(), &new);
        assert_eq!((o.failures, o.listed), (1, 0));
        assert!(o.markdown.contains("results.table.rsa[1].opt_cycles"));
    }

    #[test]
    fn a_changed_reference_result_fails() {
        let new = envelope(&[
            report("a", 1.0, 400.0, 1500.0, 450.0),
            report("b", 1.0, 400.0, 1000.0, 1.0),
        ]);
        let o = diff_envelopes(&baseline(), &new);
        assert_eq!((o.failures, o.listed), (1, 0));
        assert!(o.markdown.contains("results.table.rsa[0].base_cycles"));
    }

    #[test]
    fn a_missing_or_added_report_fails() {
        let fewer = envelope(&[report("a", 1.0, 400.0, 1000.0, 450.0)]);
        let o = diff_envelopes(&baseline(), &fewer);
        assert_eq!(o.failures, 1);
        assert!(o.markdown.contains("missing"));
        let o = diff_envelopes(&fewer, &baseline());
        assert_eq!(o.failures, 1);
        assert!(o.markdown.contains("not in the baseline"));
    }

    #[test]
    fn a_missing_or_added_result_leaf_fails() {
        let mut new = baseline();
        let b = new.get_mut("b").unwrap();
        *b =
            xobs::json::parse(&b.to_string_compact().replace(r#""name":"RSA dec.","#, "")).unwrap();
        assert_eq!(diff_envelopes(&baseline(), &new).failures, 1);
        assert_eq!(diff_envelopes(&new, &baseline()).failures, 1);
    }

    #[test]
    fn changed_metrics_and_spans_are_listed_but_pass() {
        let mut new = envelope(&[
            report("a", 1.0, 400.0, 1000.0, 451.0),
            report("b", 1.0, 400.0, 1000.0, 1.0),
        ]);
        let b = new.get_mut("b").unwrap();
        *b = xobs::json::parse(
            &b.to_string_compact()
                .replace(r#""seq_end":1"#, r#""seq_end":2"#),
        )
        .unwrap();
        let o = diff_envelopes(&baseline(), &new);
        assert_eq!((o.failures, o.listed), (0, 2));
        assert!(o.markdown.contains("metrics.flow.candidates.value"));
        assert!(o.markdown.contains("spans[0].seq_end"));
    }

    #[test]
    fn raw_wall_time_is_ignored() {
        let new = envelope(&[
            report("a", 99.0, 400.0, 1000.0, 450.0),
            report("b", 0.5, 400.0, 1000.0, 1.0),
        ]);
        let o = diff_envelopes(&baseline(), &new);
        assert_eq!((o.failures, o.listed), (0, 0));
    }
}
