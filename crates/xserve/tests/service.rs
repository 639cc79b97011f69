//! Service-layer integration and property tests.
//!
//! The integration test is the crate's core promise executed end to
//! end: a job submitted to a live daemon over a real socket produces
//! the same normalized report as the same [`JobSpec`] run directly
//! in-process (the CLI path). The property tests pin the two wire
//! encodings everything else rides on — spec canonical JSON and report
//! framing — across generated inputs.

use proptest::prelude::*;
use secproc::job::{JobEnv, JobKind, JobSpec};
use std::thread;
use xobs::frames::{split, Assembler};
use xobs::report::normalize;
use xpar::Pool;
use xserve::{Bind, Client, Server, ServerConfig};

#[test]
fn daemon_and_direct_runs_agree_byte_for_byte_after_normalization() {
    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()));
    config.executors = 2;
    config.chunk = 512; // force multi-frame streaming
    let server = Server::bind(config).expect("bind loopback");
    let addr = server.local_addr().expect("tcp server has an address");
    let serve = thread::spawn(move || server.run());

    // A small measurement job: real ISS work, quick enough for a test.
    let mut spec = JobSpec::new(JobKind::Measure);
    spec.kernels = vec![kreg::id::ADD_N, kreg::id::MUL_1];
    spec.limbs = 4;

    let mut client = Client::connect_tcp(addr).expect("connect");
    let served = client.run_job(&spec, 0).expect("daemon job");

    let pool = Pool::from_env();
    let direct = spec.run(&JobEnv::new(&pool)).expect("direct job");

    assert_eq!(
        normalize(&served).to_string_compact(),
        normalize(&direct.to_json()).to_string_compact(),
        "daemon and direct reports must be byte-identical once normalized"
    );

    client.shutdown().expect("shutdown");
    serve.join().expect("serve thread").expect("serve loop");
}

#[test]
fn an_over_long_request_line_is_refused_and_the_daemon_serves_on() {
    use std::io::{BufRead, BufReader, Write};
    use xserve::proto::Response;

    let server =
        Server::bind(ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()))).expect("bind loopback");
    let addr = server.local_addr().expect("tcp server has an address");
    let serve = thread::spawn(move || server.run());

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut line = vec![b'x'; 2 << 20];
    line.push(b'\n');
    (&stream)
        .write_all(&line)
        .expect("the server reads the whole line");
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    match Response::parse(reply.trim_end()).expect("a protocol line") {
        Response::Error { code, detail } => {
            assert_eq!(code, secproc::error::codes::PROTO_BAD_REQUEST);
            assert_eq!(detail, "request line exceeds 1048576 bytes");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("orderly close"), 0);

    let mut client = Client::connect_tcp(addr).expect("a fresh connection");
    client.stats().expect("stats still answers");
    client.shutdown().expect("shutdown");
    serve.join().expect("serve thread").expect("serve loop");
}

#[test]
fn a_request_line_that_is_not_utf8_is_refused_and_the_connection_serves_on() {
    use std::io::{BufRead, BufReader, Write};
    use xserve::proto::Response;

    let server =
        Server::bind(ServerConfig::new(Bind::Tcp("127.0.0.1:0".into()))).expect("bind loopback");
    let addr = server.local_addr().expect("tcp server has an address");
    let serve = thread::spawn(move || server.run());

    let stream = std::net::TcpStream::connect(addr).expect("connect");
    (&stream)
        .write_all(b"\xff\xfe{}\n")
        .expect("the server reads the line");
    let mut reader = BufReader::new(&stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    match Response::parse(reply.trim_end()).expect("a protocol line") {
        Response::Error { code, detail } => {
            assert_eq!(code, secproc::error::codes::PROTO_BAD_REQUEST);
            assert_eq!(detail, "request line is not UTF-8");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    // The same connection answers the next request.
    (&stream)
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("a second request");
    reply.clear();
    reader.read_line(&mut reply).expect("stats reply");
    assert!(
        matches!(Response::parse(reply.trim_end()), Ok(Response::Stats(_))),
        "{reply}"
    );
    drop(reader);
    drop(stream);

    let mut client = Client::connect_tcp(addr).expect("a fresh connection");
    client.shutdown().expect("shutdown");
    serve.join().expect("serve thread").expect("serve loop");
}

#[test]
fn an_over_long_reply_line_is_a_typed_transport_error() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let peer = thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut request = String::new();
        BufReader::new(&stream)
            .read_line(&mut request)
            .expect("request line");
        // The client stops reading after 1 MiB and hangs up, so this
        // write may fail part-way.
        let _ = (&stream).write_all(&vec![b'x'; 2 << 20]);
    });

    let mut client = Client::connect_tcp(addr).expect("connect");
    let err = client.stats().expect_err("the reply is too long");
    assert_eq!(err.code(), secproc::error::codes::PROTO_BAD_REQUEST);
    assert!(
        err.to_string().contains("reply line exceeds 1048576 bytes"),
        "{err}"
    );
    drop(client);
    peer.join().expect("peer thread");
}

/// A generated-but-valid spec: every field the wire encoding carries,
/// drawn from the vocabulary the parsers accept.
#[allow(clippy::too_many_arguments)] // one argument per proptest-drawn field
fn arb_spec(
    kind_ix: usize,
    core_ix: usize,
    variant_ix: usize,
    bits: usize,
    limbs: usize,
    samples: usize,
    seed: u64,
    glue_tenths: u64,
) -> JobSpec {
    let kinds = [
        JobKind::Characterize,
        JobKind::Explore,
        JobKind::Curves,
        JobKind::Measure,
    ];
    let cores = ["io".to_owned(), xr32::config::CpuConfig::ooo().core_id()];
    let variants = ["base", "accel-a4m2"];
    let mut spec = JobSpec::new(kinds[kind_ix % kinds.len()]);
    spec.core = cores[core_ix % cores.len()].to_owned();
    spec.variant = variants[variant_ix % variants.len()].to_owned();
    spec.bits = bits;
    spec.limbs = limbs;
    spec.cosim_samples = samples;
    spec.seed = seed;
    spec.glue_cost = glue_tenths as f64 / 10.0;
    if kind_ix.is_multiple_of(2) {
        spec.kernels = vec![kreg::id::ADD_N];
    }
    spec
}

proptest! {
    #[test]
    fn job_specs_round_trip_through_wire_json(
        kind_ix in 0usize..4,
        core_ix in 0usize..2,
        variant_ix in 0usize..2,
        bits in 32usize..2048,
        limbs in 0usize..64,
        samples in 1usize..12,
        seed in any::<u64>(),
        glue_tenths in 0u64..1000,
    ) {
        let spec = arb_spec(kind_ix, core_ix, variant_ix, bits, limbs, samples, seed, glue_tenths);
        let wire = spec.to_json().to_string_compact();
        let back = JobSpec::parse(&wire).expect("canonical wire JSON reparses");
        prop_assert_eq!(&back, &spec, "wire {}", wire);
        // The digest is a function of the canonical encoding alone.
        prop_assert_eq!(back.digest(), spec.digest());
    }

    #[test]
    fn framed_documents_survive_any_chunking(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..256,
    ) {
        // 1-, 2-, 3- and 4-byte UTF-8 characters, so chunk caps land
        // inside multibyte sequences.
        const PALETTE: [char; 8] = ['a', '"', '{', '\n', '§', '×', '—', '𝛑'];
        let doc: String = bytes
            .iter()
            .map(|b| PALETTE[*b as usize % PALETTE.len()])
            .collect();
        let frames = split(&doc, chunk);
        prop_assert!(!frames.is_empty());
        prop_assert!(frames[frames.len() - 1].last);
        // Payloads may exceed the cap only by a partial char (< 4 bytes).
        for frame in &frames {
            prop_assert!(frame.data.len() < chunk + 4, "frame of {} bytes at cap {}", frame.data.len(), chunk);
        }
        let mut asm = Assembler::new();
        let mut out = None;
        for frame in &frames {
            prop_assert!(out.is_none());
            out = asm.push(frame).expect("in-order frames assemble");
        }
        prop_assert_eq!(out.as_deref(), Some(doc.as_str()));
    }
}
