//! Layer micro-calls: each layer's public entry point on fixed inputs,
//! a fixed number of iterations per sample, reported as the median
//! sample. They run at the end of every traced run, whatever the
//! workload, so each per-layer figure has one definition.

use crate::{Metric, POOL_THREADS};
use macromodel::charact::{fit_planned, StimulusPlan};
use macromodel::Monomial;
use secproc::issops::IssMpn;
use secproc::job::{JobEnv, JobKind, JobSpec};
use secproc::kcache::{self, KCache};
use std::hint::black_box;
use std::time::Instant;
use xobs::{frames, Assembler};
use xpar::Pool;
use xr32::config::CpuConfig;
use xserve::{Bind, Client, Server, ServerConfig};

/// `samples` timings of `iters` calls of `f`, each as seconds per call.
fn sample(samples: usize, iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters as f64
        })
        .collect()
}

/// The median of `samples` seconds-per-call, scaled to `unit`.
fn per_call(name: &str, unit: &'static str, scale: f64, samples: &[f64]) -> Metric {
    let scaled: Vec<f64> = samples.iter().map(|s| s * scale).collect();
    Metric::of(name, unit, &scaled)
}

/// Throughput in MB/s of a call that handles `bytes` bytes.
fn mb_per_s(name: &str, bytes: usize, samples: &[f64]) -> Metric {
    let rates: Vec<f64> = samples.iter().map(|s| bytes as f64 / s / 1e6).collect();
    Metric::of(name, "MB/s", &rates)
}

/// The serving layer's unit job (also what `serve-mixed` submits).
fn measure_spec() -> JobSpec {
    let mut spec = JobSpec::new(JobKind::Measure);
    spec.kernels = vec![kreg::id::ADDMUL_1];
    spec.limbs = 8;
    spec
}

/// Runs every micro-call `samples` times.
pub fn measure(samples: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let n = samples.max(1);

    let src = kreg::kernels::mpn::base32_source();
    let s = sample(n, 20, || {
        black_box(xr32::asm::assemble(black_box(&src)).expect("bundled kernels assemble"));
    });
    out.push(per_call("xr32.asm_us", "us", 1e6, &s));

    let s = sample(n, 10, || {
        black_box(IssMpn::base(CpuConfig::default()));
    });
    out.push(per_call("issops.new_us", "us", 1e6, &s));

    let mut iss = IssMpn::base(CpuConfig::default());
    iss.set_verify(false);
    for kernel in kreg::id::MPN {
        let s = sample(n, 20, || {
            black_box(
                iss.measure32(kernel, 16, 8)
                    .expect("register-convention kernel"),
            );
        });
        out.push(per_call(
            &format!("issops.measure_us.{}", kernel.name()),
            "us",
            1e6,
            &s,
        ));
    }

    const ENTRIES: usize = 10_000;
    let keys: Vec<String> = (0..ENTRIES as u64)
        .map(|i| kcache::key(0x5eed, "base", "mpn_add_n", 16, i))
        .collect();
    let (mut inserts, mut gets) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let cache = KCache::new();
        inserts.extend(sample(1, 1, || {
            for k in &keys {
                cache.insert(k, vec![1.0]);
            }
        }));
        gets.extend(sample(1, 1, || {
            for k in &keys {
                black_box(cache.get(k));
            }
        }));
    }
    out.push(per_call(
        "kcache.insert_ns",
        "ns",
        1e9 / ENTRIES as f64,
        &inserts,
    ));
    out.push(per_call("kcache.get_ns", "ns", 1e9 / ENTRIES as f64, &gets));

    // Two workers, so the call pays for spawning and joining a worker.
    let pool = Pool::new(2);
    let items = vec![0u8; ENTRIES];
    let s = sample(n, 10, || {
        black_box(pool.par_map(&items, |_, x| *x));
    });
    out.push(per_call("xpar.task_overhead_us", "us", 1e6, &s));

    // A near-affine cycle profile over 1..=24 limbs, validated on a
    // sweep: the shape phase 1 fits for every kernel.
    let basis = vec![Monomial::constant(1), Monomial::linear(1, 0)];
    let plan = StimulusPlan {
        train: (1..=24u64).map(|n| vec![n]).collect(),
        validation: (0..8u64).map(|i| vec![1 + 3 * i]).collect(),
    };
    let cycles: Vec<f64> = plan
        .points()
        .map(|p| 12.0 + 6.25 * p[0] as f64 + (p[0] % 3) as f64)
        .collect();
    let s = sample(n, 50, || {
        black_box(fit_planned(&basis, &plan, &cycles).expect("well-posed fit"));
    });
    out.push(per_call("macromodel.fit_us", "us", 1e6, &s));
    let model = fit_planned(&basis, &plan, &cycles)
        .expect("well-posed fit")
        .model;
    let s = sample(n, 10_000, || {
        black_box(model.predict(black_box(&[17])));
    });
    out.push(per_call("macromodel.predict_ns", "ns", 1e9, &s));

    let spec = measure_spec();
    let run_pool = Pool::new(POOL_THREADS);
    let s = sample(n, 3, || {
        black_box(spec.run(&JobEnv::new(&run_pool)).expect("measure job runs"));
    });
    out.push(per_call("job.direct_ms", "ms", 1e3, &s));
    let s = sample(n, 1000, || {
        black_box(JobSpec::parse(&spec.to_json().to_string_compact()).expect("round-trips"));
    });
    out.push(per_call("job.spec_roundtrip_us", "us", 1e6, &s));

    let doc = spec
        .run(&JobEnv::new(&run_pool))
        .expect("measure job runs")
        .to_json()
        .to_string_compact();
    let parsed = xobs::json::parse(&doc).expect("reports parse");
    let s = sample(n, 100, || {
        black_box(xobs::json::parse(black_box(&doc)).expect("reports parse"));
    });
    out.push(mb_per_s("xobs.json_parse_mb_per_s", doc.len(), &s));
    let s = sample(n, 100, || {
        black_box(parsed.to_string_compact());
    });
    out.push(mb_per_s("xobs.json_encode_mb_per_s", doc.len(), &s));
    // Small frames, so one report crosses many frame boundaries.
    let s = sample(n, 100, || {
        let mut asm = Assembler::new();
        let mut done = None;
        for frame in frames::split(&doc, 256) {
            done = asm.push(&frame).expect("well-formed frames");
        }
        black_box(done.expect("last frame completes the document"));
    });
    out.push(mb_per_s("xobs.frames_mb_per_s", doc.len(), &s));

    out.push(per_call("xserve.stats_rtt_ms", "ms", 1e3, &stats_rtt(n)));
    out
}

/// Round trips of the cheapest request, `stats`, against a fresh
/// daemon on loopback TCP: the wire floor under every request.
fn stats_rtt(samples: usize) -> Vec<f64> {
    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
    config.pool = Pool::new(POOL_THREADS);
    let server = Server::bind(config).expect("loopback bind");
    let addr = server.local_addr().expect("tcp address");
    let serving = std::thread::spawn(move || server.run());
    let mut client = Client::connect_tcp(addr).expect("loopback connect");
    let s = sample(samples, 50, || {
        black_box(client.stats().expect("stats reply"));
    });
    client.shutdown().expect("shutdown reply");
    serving
        .join()
        .expect("serve loop ends")
        .expect("serve loop succeeds");
    s
}
