//! The serving loop: listener, priority scheduler, executors.
//!
//! One [`Server`] owns the shared worker [`Pool`] and the shard-locked
//! kernel-cycle [`KCache`] for every job and query it ever runs — the
//! same sharing discipline the CLI harness uses, which is what makes a
//! daemon run of a [`JobSpec`] byte-identical (after normalization) to
//! a CLI run of the same spec.
//!
//! Threads: one accept loop, one reader thread per connection, and a
//! fixed set of executor threads draining a priority queue (higher
//! `priority` first, submission order within a priority). Executors
//! run jobs through [`JobSpec::run`] with a per-job [`CancelToken`];
//! results stream back as bounded frames interleaved with the
//! connection's other responses, each line written under the
//! connection's writer lock.
//!
//! Failures stay inside their job or connection: a panicking job ends
//! as a `5003 JOB_PANICKED` job error and its executor serves the next
//! job; a request line longer than 1 MiB is answered with `4001` and
//! its connection closed; the daemon's locks recover from poisoning.
//!
//! Shutdown is graceful: the flag flips, queued jobs drain as `4005
//! PROTO_SHUTDOWN` job errors, executors finish their in-flight jobs,
//! the cache is persisted, and [`Server::run`] returns (no process
//! exit — in-process harnesses reuse the thread).

use crate::proto::{read_line, Line, Request, Response, StatsBody, MAX_LINE};
use secproc::error::{codes, Error};
use secproc::job::{cached_kernel_cycles, JobEnv, JobKind, JobSpec};
use secproc::kcache::KCache;
use std::any::Any;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use xobs::{frames, RunReport};
use xpar::{CancelToken, Pool};

/// What an executor runs a job's spec with: [`JobSpec::run`].
type Runner = fn(&JobSpec, &JobEnv<'_>) -> Result<RunReport, Error>;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// A TCP address, e.g. `127.0.0.1:7444` (port `0` picks a free
    /// port; see [`Server::local_addr`]).
    Tcp(String),
    /// A Unix-domain socket path (an existing socket file is
    /// replaced).
    Unix(PathBuf),
}

/// Server construction knobs. The pool and cache are owned here so a
/// harness can hand the server an in-memory cache or an explicitly
/// sized pool; the daemon binary passes the environment defaults.
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Executor threads draining the job queue (clamped to ≥ 1).
    pub executors: usize,
    /// Frame payload cap in bytes for streamed reports.
    pub chunk: usize,
    /// The shared measurement pool (jobs fan out onto it).
    pub pool: Pool,
    /// The shared kernel-cycle cache (in-memory by default; pass
    /// [`KCache::open_default`] for persistence).
    pub kcache: KCache,
}

impl ServerConfig {
    /// Defaults: environment-sized pool, in-memory cache, four
    /// executors, [`frames::DEFAULT_CHUNK`] frames.
    pub fn new(bind: Bind) -> Self {
        ServerConfig {
            bind,
            executors: 4,
            chunk: frames::DEFAULT_CHUNK,
            pool: Pool::from_env(),
            kcache: KCache::new(),
        }
    }
}

/// A bound, not-yet-serving daemon instance.
pub struct Server {
    listener: Listener,
    executors: usize,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = match &config.bind {
            Bind::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr.as_str())?),
            Bind::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?)
            }
        };
        // Re-resolve the bind so shutdown's unblocking self-connect
        // reaches the actual socket even when the caller asked for
        // port 0.
        let resolved = match (&listener, &config.bind) {
            (Listener::Tcp(l), _) => Bind::Tcp(l.local_addr()?.to_string()),
            (_, bind) => bind.clone(),
        };
        Ok(Server {
            listener,
            executors: config.executors.max(1),
            shared: Arc::new(Shared {
                pool: config.pool,
                kcache: config.kcache,
                chunk: config.chunk.max(1),
                bind: resolved,
                queue: Mutex::new(BinaryHeap::new()),
                queue_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                next_seq: AtomicU64::new(0),
                next_id: AtomicU64::new(0),
                jobs: Mutex::new(HashMap::new()),
                stats: Counters::default(),
                runner: JobSpec::run,
            }),
        })
    }

    /// The bound TCP address (`None` for a Unix socket) — how a
    /// port-0 harness finds its server.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// Serves until a `shutdown` request: accepts connections, runs
    /// jobs, then drains, persists the cache and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn run(self) -> io::Result<()> {
        let mut executors = Vec::new();
        for _ in 0..self.executors {
            let shared = Arc::clone(&self.shared);
            executors.push(thread::spawn(move || executor_loop(&shared)));
        }
        loop {
            let conn = self.listener.accept()?;
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || handle_conn(&shared, conn));
        }
        for handle in executors {
            let _ = handle.join();
        }
        if let Bind::Unix(path) = &self.shared.bind {
            let _ = std::fs::remove_file(path);
        }
        let _ = self.shared.kcache.save();
        Ok(())
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => Ok(Conn::Tcp(l.accept()?.0)),
            Listener::Unix(l) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

/// One accepted connection, transport-erased.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn split(self) -> io::Result<(Box<dyn BufRead + Send>, Box<dyn Write + Send>)> {
        Ok(match self {
            Conn::Tcp(s) => {
                let w = s.try_clone()?;
                (
                    Box::new(BufReader::new(s)),
                    Box::new(BufWriter::new(w)) as Box<dyn Write + Send>,
                )
            }
            Conn::Unix(s) => {
                let w = s.try_clone()?;
                (
                    Box::new(BufReader::new(s)),
                    Box::new(BufWriter::new(w)) as Box<dyn Write + Send>,
                )
            }
        })
    }
}

/// A connection's write half, shared between its reader thread (acks,
/// query results) and the executors streaming its jobs' frames. Every
/// response is one line written and flushed under the lock, so frames
/// from concurrent jobs interleave but never tear.
#[derive(Clone)]
struct SharedWriter(Arc<Mutex<Box<dyn Write + Send>>>);

impl SharedWriter {
    fn send(&self, resp: &Response) -> io::Result<()> {
        let mut w = lock(&self.0);
        writeln!(w, "{}", resp.to_json().to_string_compact())?;
        w.flush()
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    queries: AtomicU64,
}

struct Shared {
    pool: Pool,
    kcache: KCache,
    chunk: usize,
    bind: Bind,
    queue: Mutex<BinaryHeap<QueuedJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    next_seq: AtomicU64,
    next_id: AtomicU64,
    jobs: Mutex<HashMap<String, Arc<CancelToken>>>,
    stats: Counters,
    runner: Runner,
}

/// Locks `m` even if a thread panicked while holding it: every
/// structure guarded here is consistent between statements, and one
/// failed job must not take the daemon down with it.
fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct QueuedJob {
    priority: i64,
    seq: u64,
    id: String,
    spec: JobSpec,
    cancel: Arc<CancelToken>,
    out: SharedWriter,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    // Max-heap: higher priority first, then earlier submission.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

fn executor_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared
                    .queue_cv
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        if shared.shutdown.load(Ordering::SeqCst) {
            finish(shared, &job, codes::PROTO_SHUTDOWN, "server shutting down");
            continue; // keep draining the queue
        }
        run_one(shared, job);
    }
}

fn run_one(shared: &Shared, job: QueuedJob) {
    let env = JobEnv {
        cache: Some(&shared.kcache),
        cancel: Some(&job.cancel),
        ..JobEnv::new(&shared.pool)
    };
    let result = if job.cancel.is_cancelled() {
        Err(Error::Protocol {
            code: codes::PROTO_CANCELLED,
            detail: "job cancelled".into(),
        })
    } else {
        // A panic ends this job only: the executor survives it and the
        // client gets a terminal job error.
        panic::catch_unwind(AssertUnwindSafe(|| (shared.runner)(&job.spec, &env))).unwrap_or_else(
            |payload| {
                Err(Error::JobPanicked {
                    detail: panic_message(payload.as_ref()),
                })
            },
        )
    };
    match result {
        Ok(report) => {
            let doc = report.to_json().to_string_compact();
            for frame in frames::split(&doc, shared.chunk) {
                // A client that hung up mid-stream only costs its own
                // frames; the job's work (and cache warmth) stands.
                if job
                    .out
                    .send(&Response::JobFrame {
                        id: job.id.clone(),
                        frame,
                    })
                    .is_err()
                {
                    break;
                }
            }
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            lock(&shared.jobs).remove(&job.id);
        }
        Err(e) => finish(shared, &job, e.code(), &e.to_string()),
    }
}

/// Ends a job without a report: records the outcome and sends the
/// typed `job_error` line.
fn finish(shared: &Shared, job: &QueuedJob, code: u32, detail: &str) {
    if code == codes::PROTO_CANCELLED {
        shared.stats.cancelled.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    }
    let _ = job.out.send(&Response::JobError {
        id: job.id.clone(),
        code,
        detail: detail.to_owned(),
    });
    lock(&shared.jobs).remove(&job.id);
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_owned(),
        None => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".into()),
    }
}

fn handle_conn(shared: &Shared, conn: Conn) {
    let Ok((mut reader, writer)) = conn.split() else {
        return;
    };
    let out = SharedWriter(Arc::new(Mutex::new(writer)));
    let mut buf = Vec::new();
    loop {
        let line = match read_line(&mut reader, &mut buf) {
            Ok(Line::Text(line)) => line,
            Ok(Line::TooLong) => {
                let _ = out.send(&Response::Error {
                    code: codes::PROTO_BAD_REQUEST,
                    detail: format!("request line exceeds {MAX_LINE} bytes"),
                });
                // Consume the rest of the line so the close is orderly
                // and the client can read the error.
                let _ = reader.skip_until(b'\n');
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Not UTF-8, but read to its end: refuse it and serve on.
                let _ = out.send(&Response::Error {
                    code: codes::PROTO_BAD_REQUEST,
                    detail: "request line is not UTF-8".into(),
                });
                continue;
            }
            Ok(Line::Eof) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        match handle_request(shared, &out, line) {
            Flow::Continue => {}
            Flow::Shutdown => break,
            Flow::Disconnect => break,
        }
    }
}

enum Flow {
    Continue,
    Shutdown,
    Disconnect,
}

fn handle_request(shared: &Shared, out: &SharedWriter, line: &str) -> Flow {
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            return respond(
                out,
                &Response::Error {
                    code: e.code(),
                    detail: e.to_string(),
                },
            );
        }
    };
    match req {
        Request::Submit { id, priority, spec } => {
            let resp = submit(shared, out, id, priority, spec);
            respond(out, &resp)
        }
        Request::Cancel { id } => {
            let resp = match lock(&shared.jobs).get(&id) {
                Some(token) => {
                    token.cancel();
                    Response::Ok
                }
                None => Response::Error {
                    code: codes::PROTO_BAD_REQUEST,
                    detail: format!("no live job with id `{id}`"),
                },
            };
            respond(out, &resp)
        }
        Request::Query {
            core,
            variant,
            kernel,
            n,
            seed,
        } => {
            let resp = match query(shared, &core, &variant, &kernel, n, seed) {
                Ok(cycles) => {
                    shared.stats.queries.fetch_add(1, Ordering::Relaxed);
                    Response::QueryResult { cycles }
                }
                Err(e) => Response::Error {
                    code: e.code(),
                    detail: e.to_string(),
                },
            };
            respond(out, &resp)
        }
        Request::Stats => {
            let queue_depth = lock(&shared.queue).len() as u64;
            let s = &shared.stats;
            respond(
                out,
                &Response::Stats(StatsBody {
                    submitted: s.submitted.load(Ordering::Relaxed),
                    completed: s.completed.load(Ordering::Relaxed),
                    cancelled: s.cancelled.load(Ordering::Relaxed),
                    failed: s.failed.load(Ordering::Relaxed),
                    queries: s.queries.load(Ordering::Relaxed),
                    queue_depth,
                    threads: shared.pool.threads() as u64,
                    cache_entries: shared.kcache.len() as u64,
                }),
            )
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            let _ = respond(out, &Response::Ok);
            // Unblock the accept loop so Server::run observes the flag.
            match &shared.bind {
                Bind::Tcp(addr) => {
                    let _ = TcpStream::connect(addr.as_str());
                }
                Bind::Unix(path) => {
                    let _ = UnixStream::connect(path);
                }
            }
            Flow::Shutdown
        }
    }
}

fn respond(out: &SharedWriter, resp: &Response) -> Flow {
    match out.send(resp) {
        Ok(()) => Flow::Continue,
        Err(_) => Flow::Disconnect,
    }
}

fn submit(
    shared: &Shared,
    out: &SharedWriter,
    id: Option<String>,
    priority: i64,
    spec: JobSpec,
) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::Error {
            code: codes::PROTO_SHUTDOWN,
            detail: "server shutting down".into(),
        };
    }
    let id =
        id.unwrap_or_else(|| format!("job-{}", shared.next_id.fetch_add(1, Ordering::Relaxed)));
    let cancel = Arc::new(CancelToken::new());
    {
        let mut jobs = lock(&shared.jobs);
        if jobs.contains_key(&id) {
            return Response::Error {
                code: codes::PROTO_BAD_REQUEST,
                detail: format!("job id `{id}` is already live"),
            };
        }
        jobs.insert(id.clone(), Arc::clone(&cancel));
    }
    let digest = format!("{:016x}", spec.digest());
    let queued = QueuedJob {
        priority,
        seq: shared.next_seq.fetch_add(1, Ordering::Relaxed),
        id: id.clone(),
        spec,
        cancel,
        out: out.clone(),
    };
    lock(&shared.queue).push(queued);
    shared.queue_cv.notify_one();
    shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
    Response::Accepted { id, digest }
}

/// The query path: resolve the wire strings through the same parsers a
/// spec uses, then serve the point from the shared cache.
fn query(
    shared: &Shared,
    core: &str,
    variant: &str,
    kernel: &str,
    n: usize,
    seed: u64,
) -> Result<f64, Error> {
    let mut probe = JobSpec::new(JobKind::Measure);
    probe.core = core.to_owned();
    probe.variant = variant.to_owned();
    let config = probe.config()?;
    let var = probe.kernel_variant()?;
    let kernel = kreg::KernelId::parse(kernel)?;
    cached_kernel_cycles(&config, var, kernel, n, seed, Some(&shared.kcache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;

    /// Runs specs like [`JobSpec::run`], except that seed 666 panics.
    fn panics_on_666(spec: &JobSpec, env: &JobEnv<'_>) -> Result<RunReport, Error> {
        assert_ne!(spec.seed, 666, "job body blew up");
        spec.run(env)
    }

    #[test]
    fn a_panicking_job_fails_alone_and_its_executor_serves_on() {
        let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
        config.executors = 1;
        let mut server = Server::bind(config).expect("bind loopback");
        Arc::get_mut(&mut server.shared)
            .expect("not serving yet")
            .runner = panics_on_666;
        let addr = server.local_addr().expect("tcp server has an address");
        let serve = thread::spawn(move || server.run());

        let mut spec = JobSpec::new(JobKind::Measure);
        spec.kernels = vec![kreg::id::ADD_N];
        spec.limbs = 4;
        let mut client = Client::connect_tcp(addr).expect("connect");
        let doomed = JobSpec {
            seed: 666,
            ..spec.clone()
        };
        let err = client.run_job(&doomed, 0).expect_err("the job panics");
        assert_eq!(err.code(), codes::JOB_PANICKED);
        assert!(err.to_string().contains("job body blew up"), "{err}");

        // The one executor survived and runs the next job.
        client.run_job(&spec, 0).expect("next job runs");
        let stats = client.stats().expect("stats");
        assert_eq!((stats.failed, stats.completed), (1, 1));

        client.shutdown().expect("shutdown");
        serve.join().expect("serve thread").expect("serve loop");
    }
}
