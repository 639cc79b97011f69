//! Deterministic scoped worker pool and content checksums for the
//! methodology engine.
//!
//! The paper's exploration loop is embarrassingly parallel: 450
//! modular-exponentiation candidates, 16 kernel characterizations, nine
//! A-D curve points — all independent. [`Pool`] runs such loops across
//! OS threads with a **determinism contract**: the output of
//! [`Pool::par_map`] is bit-identical to the serial run regardless of
//! thread count, because
//!
//! - items are split into *fixed contiguous chunks by index* (never
//!   work-stealing), and
//! - results are merged back *in submission order*.
//!
//! A task therefore must not share mutable state with its siblings;
//! anything order-dependent (metric observation order, Pareto-front
//! offers) belongs in the serial merge that consumes the returned
//! `Vec`.
//!
//! The worker count comes from the `WSP_THREADS` environment variable
//! when set (clamped to ≥ 1), else from
//! [`std::thread::available_parallelism`]. With one thread every
//! combinator degenerates to the plain serial loop — no threads are
//! spawned at all.
//!
//! [`memo::checksum`] is the FNV-1a content checksum that guards
//! persisted kernel-cycle cache entries and identifies job specs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memo;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A cloneable cooperative-cancellation flag.
///
/// The service layer hands one token per job to the workers executing
/// it, and jobs poll it at phase boundaries. Cancellation is therefore
/// *cooperative and lossy* — an in-flight phase completes — but never
/// corrupts results: a cancelled job returns an error rather than a
/// partial report.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The golden-ratio seed increment (⌊2⁶⁴/φ⌋, the Weyl constant of
/// splitmix64) used wherever the workspace steps a deterministic seed
/// between kernel measurements. One shared definition keeps every
/// stimulus stream — and therefore every kernel-cycle cache key —
/// consistent across the RNG shim, the methodology driver and the
/// benches.
pub const SEED_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 32-bit golden-ratio constant (the high word of [`SEED_STEP`]),
/// used by test-pattern generators that mix indices into words.
pub const SEED_STEP32: u32 = (SEED_STEP >> 32) as u32;

/// Cumulative utilization accounting across every parallel job a
/// [`Pool`] has run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel `par_map` executions (inline runs are not counted).
    pub jobs: u64,
    /// Items processed across all jobs (inline runs included).
    pub items: u64,
    /// Summed per-worker busy time, in nanoseconds.
    pub busy_nanos: u128,
    /// Summed `wall × workers` capacity, in nanoseconds.
    pub capacity_nanos: u128,
}

impl PoolStats {
    /// Fraction of worker capacity spent busy (0 when nothing parallel
    /// ran yet).
    pub fn utilization(&self) -> f64 {
        if self.capacity_nanos == 0 {
            return 0.0;
        }
        self.busy_nanos as f64 / self.capacity_nanos as f64
    }
}

/// Host-execution record of one worker's share of a [`Pool::par_map`]
/// job: its contiguous chunk, when it actually started relative to job
/// submission (queue wait), and how long it stayed busy. Wall-clock
/// facts only — observability input, never workload input.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Worker index within the job (0-based, chunk order).
    pub worker: usize,
    /// First item index of the worker's chunk.
    pub lo: usize,
    /// One past the last item index of the worker's chunk.
    pub hi: usize,
    /// Delay between job submission and the worker's first item.
    pub queue_wait_nanos: u128,
    /// Time the worker spent processing its chunk.
    pub busy_nanos: u128,
}

/// Host-execution record of one [`Pool::par_map`] call, drained by the
/// observability layer via [`Pool::take_job_traces`] when tracing is
/// enabled ([`Pool::set_tracing`]).
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Items the job processed.
    pub items: usize,
    /// Total job wall time (submission to last merge).
    pub wall_nanos: u128,
    /// One record per spawned worker (a single record for inline runs).
    pub workers: Vec<WorkerTrace>,
}

impl JobTrace {
    /// Fraction of `workers × wall` capacity spent busy.
    pub fn busy_fraction(&self) -> f64 {
        let capacity = self.wall_nanos.saturating_mul(self.workers.len() as u128);
        if capacity == 0 {
            return 0.0;
        }
        let busy: u128 = self.workers.iter().map(|w| w.busy_nanos).sum();
        busy as f64 / capacity as f64
    }
}

/// Traces retained before the oldest are dropped — a backstop so a
/// long-lived pool whose owner never drains (tracing enabled but no
/// observer attached) cannot grow without bound.
const MAX_JOB_TRACES: usize = 1024;

/// A fixed-width scoped worker pool (see the crate docs for the
/// determinism contract).
#[derive(Debug)]
pub struct Pool {
    threads: usize,
    stats: Mutex<PoolStats>,
    tracing: AtomicBool,
    traces: Mutex<Vec<JobTrace>>,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            stats: Mutex::new(PoolStats::default()),
            tracing: AtomicBool::new(false),
            traces: Mutex::new(Vec::new()),
        }
    }

    /// A single-threaded pool: every combinator runs inline.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// A pool sized from the environment: `WSP_THREADS` when set to a
    /// positive integer, else the host's available parallelism.
    pub fn from_env() -> Self {
        Pool::new(threads_from_env())
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the cumulative utilization accounting.
    pub fn stats(&self) -> PoolStats {
        *self.stats.lock().expect("pool stats poisoned")
    }

    /// Cumulative worker utilization in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.stats().utilization()
    }

    /// Enables or disables per-job execution tracing. Off by default:
    /// tracing allocates one [`JobTrace`] per `par_map` call, which
    /// only pays off when an observer drains them.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
        if !on {
            self.traces.lock().expect("pool traces poisoned").clear();
        }
    }

    /// Drains the job traces recorded since the previous drain (empty
    /// when tracing is off). Traces never influence results — they are
    /// wall-clock observability only.
    pub fn take_job_traces(&self) -> Vec<JobTrace> {
        std::mem::take(&mut *self.traces.lock().expect("pool traces poisoned"))
    }

    fn record_trace(&self, trace: JobTrace) {
        let mut traces = self.traces.lock().expect("pool traces poisoned");
        if traces.len() >= MAX_JOB_TRACES {
            traces.remove(0);
        }
        traces.push(trace);
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// `f` receives `(index, &item)`. Items are split into contiguous
    /// chunks of `ceil(n / workers)`; each worker owns one chunk, and
    /// chunk results are concatenated in submission order, so the
    /// output is identical to `items.iter().enumerate().map(f)` for any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic (by chunk order).
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let tracing = self.tracing.load(Ordering::Relaxed);
        if self.threads == 1 || n <= 1 {
            let t0 = Instant::now();
            let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            if tracing {
                let busy = t0.elapsed().as_nanos();
                self.record_trace(JobTrace {
                    items: n,
                    wall_nanos: busy,
                    workers: vec![WorkerTrace {
                        worker: 0,
                        lo: 0,
                        hi: n,
                        queue_wait_nanos: 0,
                        busy_nanos: busy,
                    }],
                });
            }
            let mut stats = self.stats.lock().expect("pool stats poisoned");
            stats.items += n as u64;
            return out;
        }
        let chunk = n.div_ceil(self.threads.min(n));
        // With chunk = ceil(n / threads), fewer than `threads` workers
        // may suffice (n = 9, threads = 8 → chunk = 2 → 5 workers);
        // spawning exactly ceil(n / chunk) keeps every slice in range.
        let workers = n.div_ceil(chunk);
        let job_start = Instant::now();
        let mut busy_nanos = 0u128;
        let mut worker_traces: Vec<WorkerTrace> = Vec::new();
        let mut out: Vec<R> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(n);
                    let slice = &items[lo..hi];
                    let handle = scope.spawn(move || {
                        let queue_wait = job_start.elapsed().as_nanos();
                        let t0 = Instant::now();
                        let res: Vec<R> = slice
                            .iter()
                            .enumerate()
                            .map(|(j, t)| f(lo + j, t))
                            .collect();
                        (res, queue_wait, t0.elapsed())
                    });
                    (lo, hi, handle)
                })
                .collect();
            for (w, (lo, hi, h)) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((res, queue_wait, busy)) => {
                        busy_nanos += busy.as_nanos();
                        if tracing {
                            worker_traces.push(WorkerTrace {
                                worker: w,
                                lo,
                                hi,
                                queue_wait_nanos: queue_wait,
                                busy_nanos: busy.as_nanos(),
                            });
                        }
                        out.extend(res);
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        let wall = job_start.elapsed().as_nanos();
        if tracing {
            self.record_trace(JobTrace {
                items: n,
                wall_nanos: wall,
                workers: worker_traces,
            });
        }
        let mut stats = self.stats.lock().expect("pool stats poisoned");
        stats.jobs += 1;
        stats.items += n as u64;
        stats.busy_nanos += busy_nanos;
        stats.capacity_nanos += wall * workers as u128;
        out
    }

    /// Returns whether `pred` holds for every item, evaluating one
    /// *wave* of `threads` items at a time with early exit between
    /// waves (the parallel shape of Miller–Rabin witness rounds: a
    /// composite is usually exposed by the first wave).
    ///
    /// The result is deterministic — `false` iff any item fails — even
    /// though the number of predicate evaluations may vary with the
    /// thread count.
    pub fn par_all<T: Sync>(&self, items: &[T], pred: impl Fn(usize, &T) -> bool + Sync) -> bool {
        let wave = self.threads;
        let mut lo = 0;
        while lo < items.len() {
            let hi = (lo + wave).min(items.len());
            let ok = self.par_map(&items[lo..hi], |j, t| pred(lo + j, t));
            if ok.iter().any(|pass| !pass) {
                return false;
            }
            lo = hi;
        }
        true
    }
}

/// The worker count [`Pool::from_env`] resolves: `WSP_THREADS` when set
/// to a positive integer, else the host's available parallelism (1 if
/// unknown).
fn threads_from_env() -> usize {
    if let Ok(v) = std::env::var("WSP_THREADS") {
        if let Ok(t) = v.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 128] {
            let pool = Pool::new(threads);
            let got = pool.par_map(&items, |i, v| v * 3 + i as u64);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_survives_items_barely_exceeding_threads() {
        // n = 9, threads = 8 → chunk = 2, only 5 workers needed; a
        // naive `threads.min(n)` worker count slices out of range.
        for (n, threads) in [(9usize, 8usize), (11, 10), (13, 12), (5, 4)] {
            let items: Vec<usize> = (0..n).collect();
            let got = Pool::new(threads).par_map(&items, |i, v| i + *v);
            let expect: Vec<usize> = (0..n).map(|i| 2 * i).collect();
            assert_eq!(got, expect, "n = {n}, threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(&[] as &[u32], |_, v| *v), Vec::<u32>::new());
        assert_eq!(pool.par_map(&[7u32], |i, v| *v + i as u32), vec![7]);
    }

    #[test]
    fn par_all_result_is_deterministic() {
        let items: Vec<u64> = (0..30).collect();
        for threads in [1, 4, 16] {
            let pool = Pool::new(threads);
            assert!(pool.par_all(&items, |_, v| *v < 30));
            assert!(!pool.par_all(&items, |_, v| *v != 17));
        }
    }

    #[test]
    fn par_all_early_exits_between_waves() {
        // Item 0 fails, so a serial pool must evaluate exactly one item.
        let evaluated = AtomicUsize::new(0);
        let items: Vec<u64> = (0..100).collect();
        let pool = Pool::new(1);
        let ok = pool.par_all(&items, |_, v| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            *v > 0
        });
        assert!(!ok);
        assert_eq!(evaluated.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn utilization_accumulates_for_parallel_jobs() {
        let pool = Pool::new(2);
        let _ = pool.par_map(&(0..64).collect::<Vec<u32>>(), |_, v| {
            (0..1000u64).fold(*v as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        });
        let stats = pool.stats();
        assert_eq!(stats.jobs, 1);
        assert_eq!(stats.items, 64);
        let u = stats.utilization();
        assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
    }

    #[test]
    fn job_traces_record_chunks_and_never_results() {
        let items: Vec<u32> = (0..20).collect();
        let pool = Pool::new(4);
        // Off by default: nothing recorded.
        let _ = pool.par_map(&items, |i, v| i as u32 + v);
        assert!(pool.take_job_traces().is_empty());

        pool.set_tracing(true);
        let expect = pool.par_map(&items, |i, v| i as u32 + v);
        let traces = pool.take_job_traces();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.items, 20);
        assert_eq!(t.workers.len(), 4);
        // Chunks tile [0, n) contiguously in worker order.
        let mut lo = 0;
        for (w, wt) in t.workers.iter().enumerate() {
            assert_eq!(wt.worker, w);
            assert_eq!(wt.lo, lo);
            lo = wt.hi;
        }
        assert_eq!(lo, 20);
        let bf = t.busy_fraction();
        assert!((0.0..=1.0 + 1e-9).contains(&bf), "busy fraction {bf}");
        // Drained means drained.
        assert!(pool.take_job_traces().is_empty());
        // Inline path records a single-worker trace.
        let serial = Pool::new(1);
        serial.set_tracing(true);
        let expect_serial = serial.par_map(&items, |i, v| i as u32 + v);
        assert_eq!(expect, expect_serial);
        let st = serial.take_job_traces();
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].workers.len(), 1);
        assert_eq!((st[0].workers[0].lo, st[0].workers[0].hi), (0, 20));
    }

    #[test]
    fn cancel_token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
    }

    #[test]
    #[should_panic(expected = "task 13")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..20).collect();
        Pool::new(4).par_map(&items, |i, _| {
            assert!(i != 13, "task 13");
            i
        });
    }
}
