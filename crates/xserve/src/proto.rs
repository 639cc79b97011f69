//! The line-delimited JSON wire protocol.
//!
//! Every request and every response is one compact JSON object on one
//! line. The request vocabulary is deliberately tiny — `submit`,
//! `cancel`, `query`, `stats`, `shutdown` — because the real API
//! surface is the [`JobSpec`] carried inside `submit`: the daemon runs
//! exactly the spec a CLI harness would run, so the protocol only has
//! to move specs in and framed reports out.
//!
//! Malformed traffic maps onto the workspace error vocabulary
//! ([`secproc::error::codes`]): an unparseable or incomplete request is
//! `4001 PROTO_BAD_REQUEST`, an unknown op is `4002 PROTO_UNKNOWN`, and
//! spec-level problems keep their own codes (`5002 JOB_SPEC`, …), so a
//! client can tell "you spoke garbage" from "that job can never run".

use secproc::error::{codes, Error};
use secproc::job::JobSpec;
use std::io::{self, BufRead, Read};
use xobs::{Frame, Json};

/// A client request, as parsed from one line of wire JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a job. `id` defaults to a server-assigned one;
    /// `priority` defaults to 0 (higher runs earlier; ties run in
    /// submission order).
    Submit {
        /// Client-chosen job id (must be unused among live jobs).
        id: Option<String>,
        /// Scheduling priority; higher pops first.
        priority: i64,
        /// The job to run — the single public entry point.
        spec: JobSpec,
    },
    /// Fire the cancellation token of a queued or running job.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// One kernel-cycle point from the shard-locked cache (computed on
    /// first touch).
    Query {
        /// Core spec string (e.g. `io`, `ooo`, `io+mul3`).
        core: String,
        /// Kernel variant tag (e.g. `base`, `mac2`).
        variant: String,
        /// Kernel name (e.g. `mpn_add_n`).
        kernel: String,
        /// Operand size in limbs.
        n: usize,
        /// Stimulus seed.
        seed: u64,
    },
    /// Scheduler and cache counters.
    Stats,
    /// Stop accepting work, fail queued jobs with `4005`, flush the
    /// cache and exit the serve loop.
    Shutdown,
}

impl Request {
    /// Renders the request as its wire JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit { id, priority, spec } => {
                let mut obj = Json::obj().set("op", "submit");
                if let Some(id) = id {
                    obj = obj.set("id", id.clone());
                }
                obj.set("priority", *priority).set("spec", spec.to_json())
            }
            Request::Cancel { id } => Json::obj().set("op", "cancel").set("id", id.clone()),
            Request::Query {
                core,
                variant,
                kernel,
                n,
                seed,
            } => Json::obj()
                .set("op", "query")
                .set("core", core.clone())
                .set("variant", variant.clone())
                .set("kernel", kernel.clone())
                .set("n", *n)
                .set("seed", *seed),
            Request::Stats => Json::obj().set("op", "stats"),
            Request::Shutdown => Json::obj().set("op", "shutdown"),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// `PROTO_BAD_REQUEST` for non-JSON or missing/ill-typed fields,
    /// `PROTO_UNKNOWN` for an unknown `op`, and the spec's own error
    /// for an invalid embedded [`JobSpec`].
    pub fn parse(line: &str) -> Result<Request, Error> {
        let v = xobs::json::parse(line).map_err(|e| bad_request(format!("bad JSON: {e}")))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("missing string field `op`"))?;
        match op {
            "submit" => {
                let spec = v
                    .get("spec")
                    .ok_or_else(|| bad_request("submit without `spec`"))?;
                Ok(Request::Submit {
                    id: v.get("id").and_then(Json::as_str).map(str::to_owned),
                    priority: v
                        .get("priority")
                        .and_then(Json::as_f64)
                        .map_or(0, |p| p as i64),
                    spec: JobSpec::from_json(spec)?,
                })
            }
            "cancel" => Ok(Request::Cancel {
                id: str_field(&v, "id")?,
            }),
            "query" => Ok(Request::Query {
                core: str_field(&v, "core")?,
                variant: str_field(&v, "variant")?,
                kernel: str_field(&v, "kernel")?,
                n: num_field(&v, "n")? as usize,
                seed: num_field(&v, "seed")? as u64,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(Error::Protocol {
                code: codes::PROTO_UNKNOWN,
                detail: format!("unknown op `{other}`"),
            }),
        }
    }
}

/// Scheduler counters, as reported by the `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Jobs accepted over the daemon's lifetime.
    pub submitted: u64,
    /// Jobs that finished with a streamed report.
    pub completed: u64,
    /// Jobs that surfaced the `4004` cancellation code.
    pub cancelled: u64,
    /// Jobs that failed with any other code.
    pub failed: u64,
    /// Kernel-cycle queries served.
    pub queries: u64,
    /// Jobs currently waiting in the priority queue.
    pub queue_depth: u64,
    /// Worker threads in the shared measurement pool.
    pub threads: u64,
    /// Entries in the kernel-cycle cache.
    pub cache_entries: u64,
}

/// A server response, as written to one wire line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A submit was queued.
    Accepted {
        /// The job's id (server-assigned when the submit had none).
        id: String,
        /// The spec digest, `{:016x}` — equal for equal specs.
        digest: String,
    },
    /// One slice of a job's framed report document.
    JobFrame {
        /// The job this frame belongs to.
        id: String,
        /// The frame (`seq`/`last`/`data`).
        frame: Frame,
    },
    /// A job ended without a report (cancelled jobs carry `4004`,
    /// shutdown-drained jobs `4005`).
    JobError {
        /// The job that ended.
        id: String,
        /// Stable numeric error code.
        code: u32,
        /// Human-readable detail.
        detail: String,
    },
    /// A query's kernel-cycle count.
    QueryResult {
        /// Measured (or cache-served) cycles.
        cycles: f64,
    },
    /// Scheduler counters.
    Stats(StatsBody),
    /// A request with no payload succeeded (cancel, shutdown).
    Ok,
    /// A request failed before doing anything.
    Error {
        /// Stable numeric error code.
        code: u32,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// Renders the response as its wire JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Accepted { id, digest } => Json::obj()
                .set("type", "accepted")
                .set("id", id.clone())
                .set("digest", digest.clone()),
            Response::JobFrame { id, frame } => Json::obj()
                .set("type", "frame")
                .set("id", id.clone())
                .set("seq", frame.seq)
                .set("last", frame.last)
                .set("data", frame.data.clone()),
            Response::JobError { id, code, detail } => Json::obj()
                .set("type", "job_error")
                .set("id", id.clone())
                .set("code", *code)
                .set("detail", detail.clone()),
            Response::QueryResult { cycles } => {
                Json::obj().set("type", "result").set("cycles", *cycles)
            }
            Response::Stats(s) => Json::obj()
                .set("type", "stats")
                .set("submitted", s.submitted)
                .set("completed", s.completed)
                .set("cancelled", s.cancelled)
                .set("failed", s.failed)
                .set("queries", s.queries)
                .set("queue_depth", s.queue_depth)
                .set("threads", s.threads)
                .set("cache_entries", s.cache_entries),
            Response::Ok => Json::obj().set("type", "ok"),
            Response::Error { code, detail } => Json::obj()
                .set("type", "error")
                .set("code", *code)
                .set("detail", detail.clone()),
        }
    }

    /// Parses one wire line (the client side of [`Response::to_json`]).
    ///
    /// # Errors
    ///
    /// `PROTO_BAD_REQUEST` when the line is not a response object.
    pub fn parse(line: &str) -> Result<Response, Error> {
        let v = xobs::json::parse(line).map_err(|e| bad_request(format!("bad JSON: {e}")))?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("missing string field `type`"))?;
        match ty {
            "accepted" => Ok(Response::Accepted {
                id: str_field(&v, "id")?,
                digest: str_field(&v, "digest")?,
            }),
            "frame" => Ok(Response::JobFrame {
                id: str_field(&v, "id")?,
                frame: Frame {
                    seq: num_field(&v, "seq")? as u64,
                    last: matches!(v.get("last"), Some(Json::Bool(true))),
                    data: str_field(&v, "data")?,
                },
            }),
            "job_error" => Ok(Response::JobError {
                id: str_field(&v, "id")?,
                code: num_field(&v, "code")? as u32,
                detail: str_field(&v, "detail")?,
            }),
            "result" => Ok(Response::QueryResult {
                cycles: num_field(&v, "cycles")?,
            }),
            "stats" => {
                let n = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                Ok(Response::Stats(StatsBody {
                    submitted: n("submitted"),
                    completed: n("completed"),
                    cancelled: n("cancelled"),
                    failed: n("failed"),
                    queries: n("queries"),
                    queue_depth: n("queue_depth"),
                    threads: n("threads"),
                    cache_entries: n("cache_entries"),
                }))
            }
            "ok" => Ok(Response::Ok),
            "error" => Ok(Response::Error {
                code: num_field(&v, "code")? as u32,
                detail: str_field(&v, "detail")?,
            }),
            other => Err(bad_request(format!("unknown response type `{other}`"))),
        }
    }
}

fn bad_request(detail: impl Into<String>) -> Error {
    Error::Protocol {
        code: codes::PROTO_BAD_REQUEST,
        detail: detail.into(),
    }
}

fn str_field(v: &Json, key: &str) -> Result<String, Error> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| bad_request(format!("missing string field `{key}`")))
}

fn num_field(v: &Json, key: &str) -> Result<f64, Error> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| bad_request(format!("missing numeric field `{key}`")))
}

/// Longest line either end buffers, in bytes (far above any
/// [`JobSpec`] or report frame).
pub(crate) const MAX_LINE: usize = 1 << 20;

/// One line read by [`read_line`].
pub(crate) enum Line<'b> {
    /// A line, terminator stripped.
    Text(&'b str),
    /// More than [`MAX_LINE`] bytes without a newline.
    TooLong,
    /// The peer closed the connection.
    Eof,
}

/// Reads one line into `buf`, buffering at most [`MAX_LINE`] bytes of
/// it. A line that is not UTF-8 is an `InvalidData` error. The daemon
/// reads requests and the client reads replies through it.
pub(crate) fn read_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<Line<'b>> {
    buf.clear();
    let limit = MAX_LINE as u64 + 1; // the line plus its newline
    if reader.take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE {
        return Ok(Line::TooLong);
    }
    std::str::from_utf8(buf)
        .map(Line::Text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use secproc::job::JobKind;

    #[test]
    fn requests_round_trip_through_wire_json() {
        let reqs = vec![
            Request::Submit {
                id: Some("j1".into()),
                priority: 3,
                spec: JobSpec::new(JobKind::Characterize),
            },
            Request::Submit {
                id: None,
                priority: 0,
                spec: JobSpec::explore(512, 6),
            },
            Request::Cancel { id: "j1".into() },
            Request::Query {
                core: "io".into(),
                variant: "base".into(),
                kernel: "mpn_add_n".into(),
                n: 8,
                seed: 42,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_json().to_string_compact();
            assert_eq!(Request::parse(&line).unwrap(), req, "line {line}");
        }
    }

    #[test]
    fn responses_round_trip_through_wire_json() {
        let resps = vec![
            Response::Accepted {
                id: "j1".into(),
                digest: format!("{:016x}", 0xdead_beefu64),
            },
            Response::JobFrame {
                id: "j1".into(),
                frame: Frame {
                    seq: 2,
                    last: true,
                    data: "tail".into(),
                },
            },
            Response::JobError {
                id: "j1".into(),
                code: codes::PROTO_CANCELLED,
                detail: "job cancelled".into(),
            },
            Response::QueryResult { cycles: 1234.5 },
            Response::Stats(StatsBody {
                submitted: 9,
                completed: 7,
                cancelled: 1,
                failed: 1,
                queries: 1000,
                queue_depth: 0,
                threads: 4,
                cache_entries: 64,
            }),
            Response::Ok,
            Response::Error {
                code: codes::PROTO_UNKNOWN,
                detail: "unknown op `frobnicate`".into(),
            },
        ];
        for resp in resps {
            let line = resp.to_json().to_string_compact();
            assert_eq!(Response::parse(&line).unwrap(), resp, "line {line}");
        }
    }

    #[test]
    fn malformed_traffic_gets_the_protocol_codes() {
        assert_eq!(Request::parse("not json").unwrap_err().code(), 4001);
        assert_eq!(Request::parse(r#"{"spec":{}}"#).unwrap_err().code(), 4001);
        assert_eq!(
            Request::parse(r#"{"op":"frobnicate"}"#).unwrap_err().code(),
            4002
        );
        // An embedded spec problem keeps its spec-level code.
        assert_eq!(
            Request::parse(r#"{"op":"submit","spec":{"kind":"nope"}}"#)
                .unwrap_err()
                .code(),
            5002
        );
        assert_eq!(Response::parse("{}").unwrap_err().code(), 4001);
        // A hostile nesting depth is a bad request, not a stack overflow.
        let deep = format!(r#"{{"op":"stats","x":{}}}"#, "[".repeat(100_000));
        assert_eq!(Request::parse(&deep).unwrap_err().code(), 4001);
    }

    #[test]
    fn read_line_bounds_what_it_buffers() {
        let exact = "y".repeat(MAX_LINE);
        let input = format!("ab\r\n{exact}\n{}\ntail", "x".repeat(MAX_LINE + 1));
        let mut reader = io::Cursor::new(input.into_bytes());
        let mut buf = Vec::new();
        assert!(matches!(
            read_line(&mut reader, &mut buf),
            Ok(Line::Text("ab"))
        ));
        assert!(matches!(read_line(&mut reader, &mut buf), Ok(Line::Text(l)) if l == exact));
        assert!(matches!(
            read_line(&mut reader, &mut buf),
            Ok(Line::TooLong)
        ));
        assert!(buf.len() <= MAX_LINE + 1);
        reader.skip_until(b'\n').expect("in-memory");
        assert!(matches!(
            read_line(&mut reader, &mut buf),
            Ok(Line::Text("tail"))
        ));
        assert!(matches!(read_line(&mut reader, &mut buf), Ok(Line::Eof)));
    }
}
