//! `xr32-trace` — record, replay and inspect XR32 binary traces.
//!
//! ```text
//! xr32-trace record <des|aes|aes-accel|rsa> <out.xtrace> [n]
//!     Run a workload with a streaming trace writer attached and save
//!     the compact binary trace. `n` is blocks for ciphers (default 2)
//!     or RSA modulus bits (default 128 — file traces of full-size
//!     co-simulations are huge; see `rsa-attrib`).
//! xr32-trace flame <in.xtrace>
//!     Replay the trace into folded-stack lines (flamegraph input).
//! xr32-trace summary <in.xtrace> [top_n]
//!     Replay into the top-N hot-function report plus event tallies.
//! xr32-trace cache <in.xtrace>
//!     I/D-cache hit/miss tallies reconstructed from the trace.
//! xr32-trace rsa-attrib [bits]
//!     Full RSA-CRT co-simulation (default 1024-bit) with an in-memory
//!     attribution sink — no trace file — verifying that the inclusive
//!     root of the folded profile equals total ISS cycles exactly.
//! xr32-trace check-report <file.json|->
//!     Validate a `--json` run report against the xobs schema
//!     (including the schema-5 `spans` tree: monotone sequence
//!     intervals, strict nesting, inclusive cycle rollups).
//! xr32-trace normalize-report <file.json|->
//!     Print the report with every host-timing-dependent field
//!     (`wall_ms`, `threads`, `memo_hit_rate`, estimation speedups,
//!     `xpar.*`/`kcache.*` metrics, span wall stamps and `wall_only`
//!     worker spans) stripped, so two runs of the same workload diff
//!     byte-for-byte.
//! xr32-trace spans <file.json|->
//!     Render the report's span tree as indented text (cycles, tasks,
//!     wall time, attrs, `!`-prefixed events). Non-zero exit when the
//!     report carries no spans — the CI span-smoke gate.
//! xr32-trace chrome <file.json|->
//!     Convert the report's span tree to Chrome trace-event JSON
//!     (load in Perfetto or chrome://tracing); deterministic spans on
//!     track 1, per-worker wall spans on tracks 2+.
//! ```

use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Read};
use std::process::ExitCode;
use std::rc::Rc;

use mpint::Natural;
use pubkey::modexp::ExpCache;
use pubkey::rsa::KeyPair;
use pubkey::space::ModExpConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use secproc::issops::{IssMpn, KernelVariant};
use secproc::simcipher::{SimAes, SimDes, Variant};
use xobs::trace::Shared;
use xobs::{read_trace, Attribution, BinaryTraceWriter, EventStats, TraceEvent};
use xr32::config::CpuConfig;

fn usage() -> ExitCode {
    eprintln!(
        "usage: xr32-trace <command>\n\
         \x20 record <des|aes|aes-accel|rsa> <out.xtrace> [n]\n\
         \x20 flame <in.xtrace>\n\
         \x20 summary <in.xtrace> [top_n]\n\
         \x20 cache <in.xtrace>\n\
         \x20 rsa-attrib [bits]\n\
         \x20 check-report <file.json|->\n\
         \x20 normalize-report <file.json|->\n\
         \x20 spans <file.json|->\n\
         \x20 chrome <file.json|->"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first() {
        Some(c) => c.as_str(),
        None => return usage(),
    };
    match cmd {
        "record" => match (args.get(1), args.get(2)) {
            (Some(workload), Some(path)) => {
                let n = args.get(3).and_then(|s| s.parse().ok());
                record(workload, path, n)
            }
            _ => usage(),
        },
        "flame" => match args.get(1) {
            Some(path) => {
                let events = load(path);
                let mut attr = Attribution::new();
                xobs::bintrace::replay(&events, &mut attr);
                print!("{}", attr.folded());
                ExitCode::SUCCESS
            }
            None => usage(),
        },
        "summary" => match args.get(1) {
            Some(path) => {
                let top = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);
                summary(&load(path), top)
            }
            None => usage(),
        },
        "cache" => match args.get(1) {
            Some(path) => {
                let mut stats = EventStats::new();
                xobs::bintrace::replay(&load(path), &mut stats);
                for (name, t) in [("icache", &stats.icache), ("dcache", &stats.dcache)] {
                    println!(
                        "{name}: {} hits, {} misses ({:.1}% hit rate)",
                        t.hits,
                        t.misses,
                        100.0 * t.hit_rate()
                    );
                }
                ExitCode::SUCCESS
            }
            None => usage(),
        },
        "rsa-attrib" => {
            let bits = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1024);
            rsa_attrib(bits)
        }
        "check-report" => match args.get(1) {
            Some(path) => check_report(path),
            None => usage(),
        },
        "normalize-report" => match args.get(1) {
            Some(path) => normalize_report(path),
            None => usage(),
        },
        "spans" => match args.get(1) {
            Some(path) => spans_cmd(path),
            None => usage(),
        },
        "chrome" => match args.get(1) {
            Some(path) => chrome_cmd(path),
            None => usage(),
        },
        _ => usage(),
    }
}

fn load(path: &str) -> Vec<TraceEvent<String>> {
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("xr32-trace: cannot open {path}: {e}");
        std::process::exit(1);
    });
    read_trace(file).unwrap_or_else(|e| {
        eprintln!("xr32-trace: cannot decode {path}: {e}");
        std::process::exit(1);
    })
}

fn record(workload: &str, path: &str, n: Option<usize>) -> ExitCode {
    let config = CpuConfig::default();
    let out = BufWriter::new(File::create(path).unwrap_or_else(|e| {
        eprintln!("xr32-trace: cannot create {path}: {e}");
        std::process::exit(1);
    }));
    let mut writer = BinaryTraceWriter::new(out).expect("header writes");

    match workload {
        "des" => {
            let blocks = n.unwrap_or(2);
            let mut sim = SimDes::new(config, Variant::Base, *b"deskey!!");
            let mut x = 0x0123_4567_89ab_cdefu64;
            for _ in 0..blocks {
                let (out, _) = sim.crypt_block_traced(x, false, Some(&mut writer));
                x = out;
            }
        }
        "aes" | "aes-accel" => {
            let blocks = n.unwrap_or(2);
            let variant = if workload == "aes" {
                Variant::Base
            } else {
                Variant::Accelerated
            };
            let mut sim = SimAes::new(config, variant, b"paper-aes-key128");
            let mut block = *b"0123456789abcdef";
            for _ in 0..blocks {
                let (out, _) = sim.encrypt_block_traced(&block, Some(&mut writer));
                block = out;
            }
        }
        "rsa" => {
            let bits = n.unwrap_or(128);
            let shared = Rc::new(RefCell::new(writer));
            let mut iss = IssMpn::with_variant(
                config,
                KernelVariant::Accelerated {
                    add_lanes: 16,
                    mac_lanes: 4,
                },
            );
            iss.set_verify(false);
            iss.set_trace_sink(Some(Box::new(Shared::new(shared.clone()))));
            run_rsa_crt(&mut iss, bits);
            iss.set_trace_sink(None);
            writer = Rc::try_unwrap(shared)
                .unwrap_or_else(|_| unreachable!("provider dropped its sink handle"))
                .into_inner();
        }
        _ => return usage(),
    }

    let events = writer.events_written();
    match writer.finish() {
        Ok(_) => {
            eprintln!("wrote {events} events to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xr32-trace: write to {path} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One RSA-CRT encrypt + decrypt round on the co-simulating provider.
fn run_rsa_crt(iss: &mut IssMpn, bits: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x45A);
    let kp = KeyPair::generate(bits, &mut rng);
    let msg = Natural::random_below(&mut rng, &kp.public.n);
    let cfg = ModExpConfig::optimized();
    let mut cache = ExpCache::new();
    let ct = kp
        .public
        .encrypt_raw(iss, &msg, &cfg, &mut cache)
        .expect("encrypt runs");
    let pt = kp
        .private
        .decrypt_raw(iss, &ct, &cfg, &mut cache)
        .expect("decrypt runs");
    assert_eq!(pt, msg, "RSA-CRT roundtrip on the simulator");
    iss.core_cycles()
}

fn summary(events: &[TraceEvent<String>], top: usize) -> ExitCode {
    let mut attr = Attribution::new();
    let mut stats = EventStats::new();
    xobs::bintrace::replay(events, &mut attr);
    xobs::bintrace::replay(events, &mut stats);
    println!("{}", attr.hot_report(top));
    print!("{}", stats.render());
    println!("attributed cycles    : {}", attr.total_cycles());
    ExitCode::SUCCESS
}

fn rsa_attrib(bits: usize) -> ExitCode {
    let mut iss = IssMpn::with_variant(
        CpuConfig::default(),
        KernelVariant::Accelerated {
            add_lanes: 16,
            mac_lanes: 4,
        },
    );
    iss.set_verify(false);
    let attr = Rc::new(RefCell::new(Attribution::new()));
    iss.set_trace_sink(Some(Box::new(Shared::new(attr.clone()))));
    let (c32, c16) = run_rsa_crt(&mut iss, bits);
    let total = c32 + c16;
    let attr = attr.borrow();

    println!("{}", attr.hot_report(10));
    println!("r32 core cycles      : {c32}");
    println!("r16 core cycles      : {c16}");
    println!("attributed cycles    : {}", attr.total_cycles());
    if attr.total_cycles() == total && attr.open_frames() == 0 {
        println!("attribution root == total ISS cycles: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "attribution MISMATCH: root {} vs total {total} ({} open frames)",
            attr.total_cycles(),
            attr.open_frames()
        );
        ExitCode::FAILURE
    }
}

/// Read a report from `path` (`-` for stdin) and parse it as JSON.
fn read_report(path: &str) -> Result<xobs::Json, ExitCode> {
    let mut text = String::new();
    if path == "-" {
        if let Err(e) = std::io::stdin().read_to_string(&mut text) {
            eprintln!("xr32-trace: cannot read stdin: {e}");
            return Err(ExitCode::FAILURE);
        }
    } else {
        match std::fs::read_to_string(path) {
            Ok(t) => text = t,
            Err(e) => {
                eprintln!("xr32-trace: cannot read {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    xobs::json::parse(&text).map_err(|e| {
        eprintln!("xr32-trace: not valid JSON: {e}");
        ExitCode::FAILURE
    })
}

fn check_report(path: &str) -> ExitCode {
    let json = match read_report(path) {
        Ok(j) => j,
        Err(code) => return code,
    };
    match xobs::report::validate(&json) {
        Ok(()) => {
            let name = json.get("report").and_then(|j| j.as_str()).unwrap_or("?");
            println!("valid run report: {name}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xr32-trace: invalid run report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn normalize_report(path: &str) -> ExitCode {
    let json = match read_report(path) {
        Ok(j) => j,
        Err(code) => return code,
    };
    if let Err(e) = xobs::report::validate(&json) {
        eprintln!("xr32-trace: invalid run report: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", xobs::report::normalize(&json).to_string_compact());
    ExitCode::SUCCESS
}

/// Read a validated report and return its `spans` array, failing when
/// the report has none (the span-smoke contract).
fn report_spans(path: &str) -> Result<Vec<xobs::Json>, ExitCode> {
    let json = read_report(path)?;
    if let Err(e) = xobs::report::validate(&json) {
        eprintln!("xr32-trace: invalid run report: {e}");
        return Err(ExitCode::FAILURE);
    }
    match json
        .get("spans")
        .and_then(|s| s.as_arr().map(<[_]>::to_vec))
    {
        Some(spans) if !spans.is_empty() => Ok(spans),
        _ => {
            let name = json.get("report").and_then(|j| j.as_str()).unwrap_or("?");
            eprintln!("xr32-trace: report {name} carries no spans (schema 5 required)");
            Err(ExitCode::FAILURE)
        }
    }
}

fn spans_cmd(path: &str) -> ExitCode {
    match report_spans(path) {
        Ok(spans) => {
            print!("{}", xobs::span::render_tree(&spans));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn chrome_cmd(path: &str) -> ExitCode {
    match report_spans(path) {
        Ok(spans) => {
            println!(
                "{}",
                xobs::span::to_chrome_trace(&spans).to_string_compact()
            );
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}
