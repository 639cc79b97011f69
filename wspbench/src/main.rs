//! `wsp-bench` — the platform benchmark's command line.
//!
//! ```text
//! wsp-bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! wsp-bench [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--out FILE]
//! wsp-bench compare A.json B.json
//! ```
//!
//! With `--workload`, runs that one workload in this process: prints
//! every metric with its unit, median, IQR and sample count, then, as
//! the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`, which also writes the span tree to
//! `$CARGO_TARGET_DIR/wsp-bench/`, default `target/wsp-bench/`). Exits
//! 1 when any output check fails.
//!
//! Without `--workload`, runs every workload `K` times (seeds N, N+1,
//! …), each in a child process of its own, prints the median, IQR and
//! run count of every metric, and with `--out` saves the runs for
//! `compare`. `compare` prints one row per workload and end-to-end
//! metric with both sides' medians and IQRs and the verdict against the
//! bound in `BENCHMARK.json`, and exits 1 when any verdict is `worse`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use wspbench::spec::{BenchSpec, MetricSpec};
use wspbench::stats::{self, Verdict};
use wspbench::{Checks, Metric, Params, Size, Workload};
use xobs::Json;

/// Seed-1 digests of every workload's deterministic results.
const EXPECTED_JSON: &str = include_str!("../expected.json");

const USAGE: &str = "usage: wsp-bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--runs K] [--out FILE]\n       wsp-bench compare A.json B.json";

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String], spec: &BenchSpec) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: None,
            seed: 1,
            seconds: spec.run_seconds,
            trace: false,
            runs: 1,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: &str| format!("bad value {v:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    opts.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
                }
                "--seed" => {
                    let v = value()?;
                    opts.seed = v.parse().map_err(|_| bad(v))?;
                }
                "--seconds" => {
                    let v = value()?;
                    opts.seconds = v
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad(v))?;
                }
                "--trace" => {
                    let v = value()?;
                    opts.trace = match v.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(v)),
                    };
                }
                "--runs" => {
                    let v = value()?;
                    opts.runs = v.parse().ok().filter(|&k| k > 0).ok_or_else(|| bad(v))?;
                }
                "--out" => opts.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if opts.workload.is_some() && (opts.runs != 1 || opts.out.is_some()) {
            return Err("--runs and --out collect every workload; drop --workload".into());
        }
        Ok(opts)
    }
}

fn main() -> ExitCode {
    let spec = BenchSpec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare(&spec, a, b),
            _ => usage("compare takes two files"),
        };
    }
    match Opts::parse(&args, &spec) {
        Ok(opts) => match opts.workload {
            Some(w) => run_one(&spec, w, &opts),
            None => run_all(&spec, &opts),
        },
        Err(e) => usage(&e),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("wsp-bench: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// The metrics `BENCHMARK.json` asks of a run in this mode.
fn wanted(spec: &BenchSpec, trace: bool) -> &[MetricSpec] {
    if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

fn run_one(spec: &BenchSpec, workload: Workload, opts: &Opts) -> ExitCode {
    let params = Params {
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        size: Size::FULL,
    };
    let outcome = wspbench::run(workload, &params);
    let mut checks = outcome.checks;

    let digest = wspbench::digest(&outcome.results);
    if let Some(pinned) = expected_digest(workload, opts.seed) {
        checks.check(pinned == digest, || {
            format!("results digest {digest} differs from expected.json's {pinned}")
        });
    }
    if let Some(trace) = &outcome.trace {
        match write_trace(workload, opts.seed, trace) {
            Ok(path) => eprintln!("wsp-bench: span tree written to {}", path.display()),
            Err(e) => checks.check(false, || format!("writing the span tree: {e}")),
        }
    }

    let mut metrics = Json::obj();
    for want in wanted(spec, opts.trace) {
        let got = outcome.metrics.iter().find(|m| m.name == want.name);
        checks.check(
            got.is_some_and(|m| m.value.is_finite() && m.unit == want.unit),
            || {
                format!(
                    "metric {} missing, non-finite or not in {}",
                    want.name, want.unit
                )
            },
        );
        if let Some(m) = got {
            print_metric(m);
            metrics = metrics.set(
                &m.name,
                Json::obj().set("value", m.value).set("unit", m.unit),
            );
        }
    }
    println!("{:<34} {digest}", "results digest");
    report_failures(workload.name(), &checks);
    let line = Json::obj()
        .set("correct", checks.failed == 0)
        .set("attempted", checks.attempted)
        .set("failed", checks.failed)
        .set("metrics", metrics);
    println!("{}", line.to_string_compact());
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metric(m: &Metric) {
    println!(
        "{:<34} {:>14.6} {:<6} median of {:>5}, IQR {:.6}",
        m.name, m.value, m.unit, m.samples, m.iqr
    );
}

fn report_failures(workload: &str, checks: &Checks) {
    for f in &checks.failures {
        eprintln!("wsp-bench: {workload}: CHECK FAILED: {f}");
    }
    if checks.failed > checks.failures.len() as u64 {
        eprintln!(
            "wsp-bench: {workload}: … and {} more failed checks",
            checks.failed - checks.failures.len() as u64
        );
    }
}

/// The pinned digest for `workload` at `seed`, if `expected.json` has
/// one.
fn expected_digest(workload: Workload, seed: u64) -> Option<String> {
    let doc = xobs::json::parse(EXPECTED_JSON).expect("expected.json parses");
    if doc.get("seed").and_then(Json::as_f64) != Some(seed as f64) {
        return None;
    }
    doc.get("digests")?
        .get(workload.name())?
        .as_str()
        .map(str::to_owned)
}

fn write_trace(workload: Workload, seed: u64, report: &Json) -> std::io::Result<PathBuf> {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("wsp-bench");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
    std::fs::write(&path, report.to_string_compact() + "\n")?;
    Ok(path)
}

/// Per workload, per metric: one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn run_all(spec: &BenchSpec, opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs: Runs = BTreeMap::new();
    let mut ok = true;
    for workload in Workload::ALL {
        for r in 0..opts.runs {
            let seed = opts.seed + r;
            eprintln!("wsp-bench: {} seed {seed}", workload.name());
            let child = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let line = match &child {
                Ok(out) => String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .last()
                    .and_then(|l| xobs::json::parse(l).ok()),
                Err(e) => {
                    eprintln!("wsp-bench: cannot run {}: {e}", exe.display());
                    None
                }
            };
            let Some(line) = line else {
                ok = false;
                continue;
            };
            ok &= child.as_ref().is_ok_and(|o| o.status.success())
                && line.get("correct") == Some(&Json::Bool(true));
            let per_metric = runs.entry(workload.name().to_owned()).or_default();
            for want in wanted(spec, opts.trace) {
                let value = line
                    .get("metrics")
                    .and_then(|m| m.get(&want.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if let Some(v) = value {
                    per_metric.entry(want.name.clone()).or_default().push(v);
                }
            }
        }
    }

    println!(
        "{:<14} {:<34} {:>14} {:>12} {:>5}  unit",
        "workload", "metric", "median", "IQR", "runs"
    );
    for (workload, metrics) in &runs {
        for want in wanted(spec, opts.trace) {
            if let Some(values) = metrics.get(&want.name) {
                println!(
                    "{workload:<14} {:<34} {:>14.6} {:>12.6} {:>5}  {}",
                    want.name,
                    stats::median(values),
                    stats::iqr(values),
                    values.len(),
                    want.unit
                );
            }
        }
    }
    if let Some(path) = &opts.out {
        let doc = Json::obj()
            .set("trace", opts.trace)
            .set("runs", runs_json(&runs));
        if let Err(e) = std::fs::write(path, doc.to_string_pretty() + "\n") {
            eprintln!("wsp-bench: writing {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("wsp-bench: some runs failed or produced wrong outputs");
        ExitCode::FAILURE
    }
}

fn runs_json(runs: &Runs) -> Json {
    let mut doc = Json::obj();
    for (workload, metrics) in runs {
        let mut m = Json::obj();
        for (name, values) in metrics {
            m = m.set(
                name,
                Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
            );
        }
        doc = doc.set(workload, m);
    }
    doc
}

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = xobs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Obj(workloads)) = doc.get("runs") else {
        return Err(format!("{path}: no `runs` object"));
    };
    let mut runs = Runs::new();
    for (workload, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            return Err(format!("{path}: `{workload}` is not an object"));
        };
        for (name, values) in metrics {
            let values = values
                .as_arr()
                .ok_or_else(|| format!("{path}: {workload}.{name} is not an array"))?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            runs.entry(workload.clone())
                .or_default()
                .insert(name.clone(), values);
        }
    }
    Ok(runs)
}

fn compare(spec: &BenchSpec, a: &str, b: &str) -> ExitCode {
    let (parent, change) = match (load_runs(a), load_runs(b)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    println!(
        "{:<14} {:<14} {:>14} {:>10} {:>14} {:>10} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A IQR", "B median", "B IQR", "change", "bound"
    );
    let mut worse = false;
    for (workload, metrics) in &parent {
        for want in &spec.end_to_end {
            let (Some(a), Some(b)) = (
                metrics.get(&want.name),
                change.get(workload).and_then(|m| m.get(&want.name)),
            ) else {
                continue;
            };
            let bound = want.bound.unwrap_or(0.0);
            let v = stats::verdict(a, b, want.better, bound);
            worse |= v == Verdict::Worse;
            println!(
                "{workload:<14} {:<14} {:>14.6} {:>10.6} {:>14.6} {:>10.6} {:>+7.1}% {:>5.0}%  {}",
                want.name,
                stats::median(a),
                stats::iqr(a),
                stats::median(b),
                stats::iqr(b),
                (stats::median(b) / stats::median(a) - 1.0) * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
    }
    if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
