//! `serve-mixed`: the xserve daemon under mixed client traffic.
//!
//! An in-process `xserve::Server` on loopback TCP, with two executors,
//! the two-thread pool and an in-memory cache. Two client connections
//! run a closed loop, one request in flight each, for the run's
//! seconds. Each request is drawn from the seed: 90% hot `query` reads
//! over 64 keys filled at set-up, 5% `query` misses (a fresh seed, so
//! one ISS run plus a cache insert), 5% single-kernel `measure` jobs
//! timed from submit to the last frame of their report. The loop stays
//! closed and back to back; an operation is one job, the unit of work
//! one request.

use crate::calib::Calibration;
use crate::{lattice, ms_since, stats, Checks, Layers, Outcome, Params, POOL_THREADS};
use kreg::KernelId;
use secproc::issops::KernelVariant;
use secproc::job::{cached_kernel_cycles, JobEnv, JobKind, JobSpec};
use secproc::kcache::KCache;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Instant;
use xobs::report::normalize;
use xobs::{Json, Spans};
use xpar::Pool;
use xr32::config::CpuConfig;
use xserve::{Bind, Client, Server, ServerConfig};

const CLIENTS: usize = 2;
const HOT_KEYS: usize = 64;
/// Operand size of every query and job.
const LIMBS: usize = 8;
/// Jobs whose reports are compared against a direct in-process run.
const SAMPLED_JOBS: usize = 20;
/// Every this-many-th job of a client keeps its report for that
/// comparison, so memory use does not grow with the run.
const JOB_STRIDE: usize = 10;
/// Every this-many-th miss is re-measured on a fresh cache.
const MISS_STRIDE: usize = 10;

/// A running daemon.
struct Daemon {
    addr: SocketAddr,
    serving: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
        config.executors = 2;
        config.pool = Pool::new(POOL_THREADS);
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().ok_or("tcp server without an address")?;
        Ok(Daemon {
            addr,
            serving: std::thread::spawn(move || server.run()),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_tcp(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Shuts the daemon down and waits for its serve loop to end.
    fn stop(self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.serving.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve loop: {e}")),
            Err(_) => Err("serve loop panicked".into()),
        }
    }
}

/// SplitMix64: the request mix and stimulus seeds come from the run
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One kernel-cycle query point.
#[derive(Debug, Clone, Copy)]
struct Key {
    kernel: KernelId,
    seed: u64,
}

impl Key {
    fn query(&self, client: &mut Client) -> Result<f64, String> {
        client
            .query("io", "base", self.kernel.name(), LIMBS, self.seed)
            .map_err(|e| format!("query {}: {e}", self.kernel.name()))
    }

    /// The value a fresh cache computes for this key.
    fn direct(&self) -> Result<f64, String> {
        cached_kernel_cycles(
            &CpuConfig::default(),
            KernelVariant::Base,
            self.kernel,
            LIMBS,
            self.seed,
            Some(&KCache::new()),
        )
        .map_err(|e| e.to_string())
    }
}

/// Query seeds cross the wire as JSON numbers, so they stay below
/// 2^53: hot keys below 2^48, misses at or above 2^51.
fn hot_key(seed: u64, i: usize) -> Key {
    Key {
        kernel: kreg::id::MPN[i % kreg::id::MPN.len()],
        seed: (seed & ((1 << 40) - 1)) << 8 | i as u64,
    }
}

/// The unit job: one `mpn_addmul_1` measurement.
fn job_spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(JobKind::Measure);
    spec.kernels = vec![kreg::id::ADDMUL_1];
    spec.limbs = LIMBS;
    spec.seed = seed;
    spec
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Miss,
    Job,
}

/// What one client observed.
#[derive(Default)]
struct Log {
    /// `(kind, traced, latency ms)` per request.
    requests: Vec<(Kind, bool, f64)>,
    /// Every `MISS_STRIDE`-th miss with the value served.
    misses: Vec<(Key, f64)>,
    /// Jobs completed.
    jobs: usize,
    /// Every `JOB_STRIDE`-th job's seed with its normalized report.
    reports: Vec<(u64, Json)>,
    /// Hot reads that disagreed with the set-up value.
    stale_hits: u64,
    errors: Vec<String>,
}

/// One client's closed loop.
fn client_loop(
    mut client: Client,
    id: usize,
    params: &Params,
    hot: &[f64],
    spans: &Spans,
    started: Instant,
) -> Log {
    let mut rng = Rng(params.seed ^ ((id as u64 + 1) << 56));
    let mut log = Log::default();
    let mut misses = 0;
    while params.more(started, log.jobs) {
        // Requests between two jobs share one traced/plain state, so
        // jobs alternate between the two.
        let traced = params.traced_op(log.jobs);
        let draw = rng.next();
        let t = Instant::now();
        let kind = match draw % 100 {
            0..=89 => {
                let i = (draw >> 8) as usize % HOT_KEYS;
                match hot_key(params.seed, i).query(&mut client) {
                    Ok(v) => log.stale_hits += u64::from(v != hot[i]),
                    Err(e) => log.errors.push(e),
                }
                Kind::Hit
            }
            90..=94 => {
                let key = Key {
                    kernel: kreg::id::MPN[(draw >> 8) as usize % kreg::id::MPN.len()],
                    seed: rng.next() >> 12 | 1 << 51,
                };
                match key.query(&mut client) {
                    Ok(v) if misses % MISS_STRIDE == 0 => log.misses.push((key, v)),
                    Ok(_) => {}
                    Err(e) => log.errors.push(e),
                }
                misses += 1;
                Kind::Miss
            }
            _ => {
                let seed = rng.next() >> 1;
                match client.run_job(&job_spec(seed), 0) {
                    Ok(report) if log.jobs % JOB_STRIDE == 0 => {
                        log.reports.push((seed, normalize(&report)));
                    }
                    Ok(_) => {}
                    Err(e) => log.errors.push(format!("job: {e}")),
                }
                log.jobs += 1;
                Kind::Job
            }
        };
        let ms = ms_since(t);
        if traced {
            let name = match kind {
                Kind::Hit => "query_hit",
                Kind::Miss => "query_miss",
                Kind::Job => "job",
            };
            spans.leaf(name, 0.0, 1, Some(ms));
        }
        log.requests.push((kind, traced, ms));
    }
    log
}

/// A set-up daemon with its two client connections and the hot keys'
/// values.
struct SetUp {
    daemon: Daemon,
    clients: Vec<Client>,
    hot: Vec<f64>,
}

fn set_up(params: &Params, checks: &mut Checks) -> Result<(Json, SetUp), String> {
    let (lattice_doc, _) = lattice::self_check(params.size.lattice, params.seed, checks);
    let daemon = Daemon::start()?;
    let mut clients = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let hot = (0..HOT_KEYS)
        .map(|i| hot_key(params.seed, i).query(&mut clients[0]))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((
        lattice_doc,
        SetUp {
            daemon,
            clients,
            hot,
        },
    ))
}

pub fn run(params: &Params) -> Outcome {
    let mut checks = Checks::default();
    let mut calib = Calibration::new();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..params.size.setup_reps {
        let t = Instant::now();
        let up = set_up(params, &mut checks);
        setup_s.push(calib.set_up_s(t));
        if let Some(Ok((_, previous))) = last.replace(up) {
            drop(previous.clients);
            if let Err(e) = previous.daemon.stop() {
                checks.check(false, || e);
            }
        }
    }
    let (lattice_doc, up) = match last.expect("at least one set-up") {
        Ok(up) => up,
        Err(e) => {
            checks.check(false, || format!("set-up: {e}"));
            return Outcome {
                checks,
                metrics: Vec::new(),
                results: Json::Null,
                trace: None,
            };
        }
    };

    let spans = Spans::new();
    let root = params.trace.then(|| spans.enter("serve"));
    let started = Instant::now();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let workers: Vec<_> = up
            .clients
            .into_iter()
            .enumerate()
            .map(|(id, client)| {
                let (hot, spans) = (&up.hot, &spans);
                scope.spawn(move || client_loop(client, id, params, hot, spans, started))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    drop(root);

    // Every request must have been answered, and answered correctly.
    let requests: Vec<(Kind, bool, f64)> = logs.iter().flat_map(|l| l.requests.clone()).collect();
    let errors: Vec<&String> = logs.iter().flat_map(|l| &l.errors).collect();
    checks.passed(requests.len() as u64 - errors.len() as u64);
    for e in errors {
        checks.check(false, || e.clone());
    }
    let stale: u64 = logs.iter().map(|l| l.stale_hits).sum();
    checks.check(stale == 0, || {
        format!("{stale} hot reads disagreed with set-up")
    });
    for (i, &served) in up.hot.iter().enumerate() {
        let key = hot_key(params.seed, i);
        let direct = key.direct();
        checks.check(direct.as_ref() == Ok(&served), || {
            format!("hot key {i}: served {served}, direct {direct:?}")
        });
    }
    for (key, served) in logs.iter().flat_map(|l| &l.misses) {
        let direct = key.direct();
        checks.check(direct.as_ref() == Ok(served), || {
            format!("miss {key:?}: served {served}, direct {direct:?}")
        });
    }
    let jobs: Vec<&(u64, Json)> = logs.iter().flat_map(|l| &l.reports).collect();
    let pool = Pool::new(POOL_THREADS);
    let mut direct_ms = Vec::new();
    let stride = (jobs.len() / SAMPLED_JOBS).max(1);
    for (seed, served) in jobs.iter().step_by(stride).take(SAMPLED_JOBS) {
        let t = Instant::now();
        let direct = job_spec(*seed).run(&JobEnv::new(&pool));
        direct_ms.push(ms_since(t));
        checks.check(
            direct.as_ref().map(|r| normalize(&r.to_json())).as_ref() == Ok(served),
            || format!("job seed {seed}: daemon report differs from a direct run"),
        );
    }
    if let Err(e) = up.daemon.stop() {
        checks.check(false, || e);
    }

    let latencies = |kind: Kind, traced: Option<bool>| -> Vec<f64> {
        requests
            .iter()
            .filter(|r| r.0 == kind && traced.is_none_or(|t| r.1 == t))
            .map(|r| r.2)
            .collect()
    };
    let plain_jobs = latencies(Kind::Job, Some(false));
    let metrics = if params.trace {
        let hits = latencies(Kind::Hit, None);
        let misses = latencies(Kind::Miss, None);
        let queries: Vec<f64> = hits.iter().chain(&misses).copied().collect();
        let layers = Layers {
            kcache_hit_rate: hits.len() as f64 / queries.len().max(1) as f64,
            xserve_query_hit_p50_ms: stats::median(&hits),
            xserve_query_miss_p50_ms: stats::median(&misses),
            xserve_query_tail_ms: stats::tail(&queries).0,
            xserve_job_overhead_ms: stats::median(&latencies(Kind::Job, None))
                - stats::median(&direct_ms),
            ..Layers::default()
        };
        crate::per_layer(
            params,
            &plain_jobs,
            &latencies(Kind::Job, Some(true)),
            requests.len() as f64 / wall_s,
            &calib,
            &layers,
        )
    } else {
        // A job's latency is almost all the daemon's wait on the TCP
        // delayed-acknowledgement timer, not computing: reported as
        // measured.
        crate::end_to_end(&setup_s, &plain_jobs)
    };
    Outcome {
        checks,
        metrics,
        results: Json::obj().set("lattice", lattice_doc).set(
            "hot",
            Json::Arr(up.hot.iter().map(|&v| Json::from(v)).collect()),
        ),
        trace: params
            .trace
            .then(|| crate::trace_report("serve-mixed", params, &spans)),
    }
}
