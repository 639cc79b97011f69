//! CI smoke gate for the serving layer (run by `scripts/ci.sh`).
//!
//! Boots an in-process daemon (one executor, in-memory cache) and
//! checks the three service invariants:
//!
//! 1. **Byte-identity** — a job run through the daemon and the same
//!    [`JobSpec`] run directly in-process produce identical normalized
//!    reports (volatile wall-clock keys stripped).
//! 2. **Cancellation** — a queued job cancelled before execution
//!    surfaces the stable `4004 PROTO_CANCELLED` code and counts in
//!    the scheduler's `cancelled` stat.
//! 3. **Query coherence** — concurrent clients hammering the cached
//!    kernel-cycle query path all observe the same cycle count per
//!    key, and the daemon serves ≥ 1000 of them.
//! 4. **Hostile requests** — on one connection, a query with a variant
//!    tag of unsupported lane counts gets `5002 JOB_SPEC`, a query whose
//!    operand count overruns the kernel operand regions gets `1003
//!    KERNEL_UNSUPPORTED`, submits of an explore spec with `bits` 0 or
//!    -1 and of a characterize spec with `train_samples` 0 are refused
//!    with `5002` (never accepted, never `5003 JOB_PANICKED`), and the
//!    next valid query is still answered with the cached point.
//!
//! Exits 0 and prints `xserve-gate: PASS` on success; exits 1 with a
//! diagnostic on the first violated invariant.

use secproc::error::codes;
use secproc::job::{JobEnv, JobKind, JobSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use xobs::report::normalize;
use xpar::Pool;
use xserve::{Bind, Client, Request, Response, Server, ServerConfig};

fn fail(msg: &str) -> ! {
    eprintln!("xserve-gate: FAIL: {msg}");
    std::process::exit(1);
}

/// A characterization spec small enough for a smoke gate.
fn charact_spec() -> JobSpec {
    let mut spec = JobSpec::new(JobKind::Characterize);
    spec.limbs = 8;
    spec.train_samples = 8;
    spec.validation_points = 4;
    spec
}

/// A measurement spec heavy enough to hold the single executor busy
/// while the cancellation races in behind it.
fn blocker_spec() -> JobSpec {
    let mut spec = JobSpec::new(JobKind::Measure);
    spec.kernels = kreg::id::MPN.to_vec();
    spec.limbs = 8;
    spec
}

fn main() {
    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
    config.executors = 1; // deterministic cancel-while-queued ordering
    let server = Server::bind(config).unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let addr = server.local_addr().expect("tcp server has an address");
    let serve = thread::spawn(move || server.run());

    // 1. Byte-identity: daemon run vs direct in-process run.
    let spec = charact_spec();
    let mut client = Client::connect_tcp(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let served = client
        .run_job(&spec, 0)
        .unwrap_or_else(|e| fail(&format!("daemon job: {e}")));
    let pool = Pool::from_env();
    let direct = spec
        .run(&JobEnv::new(&pool))
        .unwrap_or_else(|e| fail(&format!("direct job: {e}")));
    let (served_n, direct_n) = (normalize(&served), normalize(&direct.to_json()));
    if served_n != direct_n {
        eprintln!("--- daemon ---\n{}", served_n.to_string_pretty());
        eprintln!("--- direct ---\n{}", direct_n.to_string_pretty());
        fail("daemon and direct reports differ after normalization");
    }
    println!("xserve-gate: byte-identity holds (daemon == direct, normalized)");

    // 2. Cancellation: queue a job behind a blocker, cancel it, and
    // expect the stable 4004 code on its stream. The three requests go
    // out in one write, so the server handles the cancel while the
    // blocker still holds the single executor, whatever the socket's
    // delayed-ACK timing. (Sent one at a time, a stalled `accepted`
    // reply could let the blocker and the victim finish first.)
    let batch: String = [
        Request::Submit {
            id: Some("blocker".into()),
            priority: 1,
            spec: blocker_spec(),
        },
        Request::Submit {
            id: Some("victim".into()),
            priority: 0,
            spec: charact_spec(),
        },
        Request::Cancel {
            id: "victim".into(),
        },
    ]
    .iter()
    .map(|r| r.to_json().to_string_compact() + "\n")
    .collect();
    let mut raw = TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    raw.write_all(batch.as_bytes())
        .unwrap_or_else(|e| fail(&format!("submit: {e}")));
    let (mut saw_cancel, mut blocker_last) = (false, false);
    for line in BufReader::new(raw).lines() {
        let line = line.unwrap_or_else(|e| fail(&format!("stream: {e}")));
        match Response::parse(&line) {
            Ok(Response::Accepted { .. } | Response::Ok) => {}
            Ok(Response::JobError { id, code, .. }) if id == "victim" => {
                if code != codes::PROTO_CANCELLED {
                    fail(&format!("victim ended with code {code}, want 4004"));
                }
                saw_cancel = true;
            }
            Ok(Response::JobFrame { id, frame }) if id == "blocker" => {
                blocker_last |= frame.last;
            }
            Ok(other) => fail(&format!("unexpected response: {other:?}")),
            Err(e) => fail(&format!("stream: {e}")),
        }
        if saw_cancel && blocker_last {
            break;
        }
    }
    if !(saw_cancel && blocker_last) {
        fail("connection closed before the blocker and the victim ended");
    }
    println!("xserve-gate: cancellation surfaces code 4004");

    // 3. Query coherence: 8 clients x 128 queries over 16 keys.
    let mut workers = Vec::new();
    for _ in 0..8 {
        workers.push(thread::spawn(move || {
            let mut c = Client::connect_tcp(addr)?;
            let mut seen = BTreeMap::new();
            for i in 0..128u64 {
                let seed = i % 16;
                let cycles = c.query("io", "base", "mpn_add_n", 4, seed)?;
                seen.insert(seed, cycles);
            }
            Ok::<_, secproc::Error>(seen)
        }));
    }
    let mut reference: Option<BTreeMap<u64, f64>> = None;
    for worker in workers {
        let seen = worker
            .join()
            .unwrap_or_else(|_| fail("query worker panicked"))
            .unwrap_or_else(|e| fail(&format!("query: {e}")));
        match &reference {
            None => reference = Some(seen),
            Some(reference) if *reference != seen => {
                fail("clients observed different cycle counts for the same key")
            }
            Some(_) => {}
        }
    }
    println!("xserve-gate: 8 clients agree on all cached query points");

    // 4. Hostile requests: typed errors, and the connection serves on.
    // Raw lines: no `JobSpec` holds `"bits":-1`.
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(&format!("connect: {e}")));
    let mut replies = BufReader::new(stream).lines();
    let mut ask = |line: &str| {
        writeln!(writer, "{line}").unwrap_or_else(|e| fail(&format!("send: {e}")));
        loop {
            match replies.next() {
                Some(Ok(reply)) if reply.trim().is_empty() => {}
                Some(Ok(reply)) => {
                    return Response::parse(&reply)
                        .unwrap_or_else(|e| fail(&format!("reply to {line}: {e}")))
                }
                _ => fail(&format!("connection closed after {line}")),
            }
        }
    };
    let query = |variant: &str, n: usize, seed: u64| {
        let core = "io".to_owned();
        let (variant, kernel) = (variant.to_owned(), "mpn_add_n".to_owned());
        let req = Request::Query {
            core,
            variant,
            kernel,
            n,
            seed,
        };
        req.to_json().to_string_compact()
    };
    let submit = |spec: &str| format!(r#"{{"op":"submit","spec":{spec}}}"#);
    let hostile = [
        (query("accel-a3m1", 4, 1), codes::JOB_SPEC),
        (query("base", 1 << 20, 1), codes::KERNEL_UNSUPPORTED),
        (submit(r#"{"kind":"explore","bits":0}"#), codes::JOB_SPEC),
        (submit(r#"{"kind":"explore","bits":-1}"#), codes::JOB_SPEC),
        (
            submit(r#"{"kind":"characterize","train_samples":0}"#),
            codes::JOB_SPEC,
        ),
    ];
    for (line, want) in &hostile {
        match ask(line) {
            Response::Error { code, .. } if code == *want => {}
            other => fail(&format!("{line}: got {other:?}, want code {want}")),
        }
    }
    let cached = reference.as_ref().and_then(|r| r.get(&0).copied());
    match ask(&query("base", 4, 0)) {
        Response::QueryResult { cycles } if Some(cycles) == cached => {}
        other => fail(&format!(
            "the valid query after hostile ones got {other:?}, want the cached point {cached:?}"
        )),
    }
    println!("xserve-gate: hostile requests get 5002 and 1003, and the connection serves on");

    let stats = client
        .stats()
        .unwrap_or_else(|e| fail(&format!("stats: {e}")));
    if stats.cancelled < 1 {
        fail("scheduler counted no cancellations");
    }
    if stats.queries < 1000 {
        fail(&format!(
            "served only {} queries, want >= 1000",
            stats.queries
        ));
    }
    if stats.completed < 2 {
        fail(&format!("completed {} jobs, want >= 2", stats.completed));
    }

    client
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown: {e}")));
    match serve.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => fail(&format!("serve loop: {e}")),
        Err(_) => fail("serve loop panicked"),
    }
    println!(
        "xserve-gate: PASS ({} jobs, {} queries, {} cancelled)",
        stats.completed, stats.queries, stats.cancelled
    );
}
