//! A blocking line-JSON client for the daemon.
//!
//! The client is synchronous and single-connection: requests go out as
//! one line each, responses come back in arrival order. Job reports
//! arrive as interleaved frames; [`Client::run_job`] hides the
//! reassembly for the common submit-and-wait case, while
//! [`Client::send`]/[`Client::next_response`] expose the raw stream
//! for pipelined harnesses that keep many jobs or queries in flight.
//!
//! Transport failures surface as the protocol's `4001` code so every
//! client-visible failure — local or remote — carries one stable
//! numeric code. Reply lines are read through the daemon's bounded
//! line reader: a reply longer than 1 MiB is a `4001` error, never
//! unbounded buffering.

use crate::proto::{read_line, Line, Request, Response, StatsBody, MAX_LINE};
use crate::server::Bind;
use secproc::error::{codes, Error};
use secproc::job::JobSpec;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use xobs::{Assembler, Json};

/// A connected client.
pub struct Client {
    reader: Box<dyn BufRead + Send>,
    writer: Box<dyn Write + Send>,
    /// Job traffic (frames, job errors) read past while waiting for a
    /// request's direct reply; replayed by [`Client::next_response`].
    backlog: VecDeque<Response>,
}

impl Client {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// `4001` on connection failure.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> Result<Client, Error> {
        let stream = TcpStream::connect(addr).map_err(io_error)?;
        let w = stream.try_clone().map_err(io_error)?;
        Ok(Client {
            reader: Box::new(BufReader::new(stream)),
            writer: Box::new(BufWriter::new(w)),
            backlog: VecDeque::new(),
        })
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// `4001` on connection failure.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, Error> {
        let stream = UnixStream::connect(path).map_err(io_error)?;
        let w = stream.try_clone().map_err(io_error)?;
        Ok(Client {
            reader: Box::new(BufReader::new(stream)),
            writer: Box::new(BufWriter::new(w)),
            backlog: VecDeque::new(),
        })
    }

    /// Connects to either transport.
    ///
    /// # Errors
    ///
    /// `4001` on connection failure.
    pub fn connect(bind: &Bind) -> Result<Client, Error> {
        match bind {
            Bind::Tcp(addr) => Client::connect_tcp(addr.as_str()),
            Bind::Unix(path) => Client::connect_unix(path),
        }
    }

    /// Writes one request line (flushed immediately).
    ///
    /// # Errors
    ///
    /// `4001` on write failure.
    pub fn send(&mut self, req: &Request) -> Result<(), Error> {
        writeln!(self.writer, "{}", req.to_json().to_string_compact()).map_err(io_error)?;
        self.writer.flush().map_err(io_error)
    }

    /// The next response: backlogged job traffic first (see
    /// [`Client::next_reply`]'s skimming), then the wire.
    ///
    /// # Errors
    ///
    /// `4001` on read failure, EOF, or an unparseable line.
    pub fn next_response(&mut self) -> Result<Response, Error> {
        if let Some(resp) = self.backlog.pop_front() {
            return Ok(resp);
        }
        self.read_response()
    }

    /// The next *direct reply*, skimming interleaved job traffic into
    /// the backlog — request/reply methods stay usable while jobs
    /// stream on the same connection.
    fn next_reply(&mut self) -> Result<Response, Error> {
        loop {
            match self.read_response()? {
                resp @ (Response::JobFrame { .. } | Response::JobError { .. }) => {
                    self.backlog.push_back(resp);
                }
                resp => return Ok(resp),
            }
        }
    }

    /// Reads the next nonblank reply line. After an over-long line the
    /// connection is mid-line and no longer usable.
    fn read_response(&mut self) -> Result<Response, Error> {
        let mut buf = Vec::new();
        loop {
            match read_line(&mut self.reader, &mut buf).map_err(io_error)? {
                Line::Text(line) if line.trim().is_empty() => {}
                Line::Text(line) => return Response::parse(line.trim_end()),
                Line::TooLong => {
                    return Err(Error::Protocol {
                        code: codes::PROTO_BAD_REQUEST,
                        detail: format!("reply line exceeds {MAX_LINE} bytes"),
                    })
                }
                Line::Eof => {
                    return Err(io_error(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed",
                    )))
                }
            }
        }
    }

    /// Submits a job and returns `(id, digest)` once the server
    /// accepts it.
    ///
    /// # Errors
    ///
    /// The server's error code on rejection, `4001` on transport
    /// failure.
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        priority: i64,
        id: Option<&str>,
    ) -> Result<(String, String), Error> {
        self.send(&Request::Submit {
            id: id.map(str::to_owned),
            priority,
            spec: spec.clone(),
        })?;
        match self.next_reply()? {
            Response::Accepted { id, digest } => Ok((id, digest)),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a job and blocks until its full report document
    /// arrives, reassembling the frames. Assumes this connection has
    /// no other job in flight.
    ///
    /// # Errors
    ///
    /// The job's error code (`4004` when cancelled) if it ends without
    /// a report, `4001` on transport failure.
    pub fn run_job(&mut self, spec: &JobSpec, priority: i64) -> Result<Json, Error> {
        let (id, _digest) = self.submit(spec, priority, None)?;
        let mut asm = Assembler::new();
        loop {
            match self.next_response()? {
                Response::JobFrame { id: fid, frame } if fid == id => {
                    let done = asm.push(&frame).map_err(|e| Error::Protocol {
                        code: codes::PROTO_BAD_REQUEST,
                        detail: format!("frame stream corrupt: {e}"),
                    })?;
                    if let Some(doc) = done {
                        return xobs::json::parse(&doc).map_err(|e| Error::Protocol {
                            code: codes::PROTO_BAD_REQUEST,
                            detail: format!("report document corrupt: {e}"),
                        });
                    }
                }
                Response::JobError {
                    id: fid,
                    code,
                    detail,
                } if fid == id => {
                    return Err(Error::Protocol { code, detail });
                }
                _ => {} // another job's traffic on a shared connection
            }
        }
    }

    /// One kernel-cycle query.
    ///
    /// # Errors
    ///
    /// The server's error code on failure, `4001` on transport
    /// failure.
    pub fn query(
        &mut self,
        core: &str,
        variant: &str,
        kernel: &str,
        n: usize,
        seed: u64,
    ) -> Result<f64, Error> {
        self.send(&Request::Query {
            core: core.to_owned(),
            variant: variant.to_owned(),
            kernel: kernel.to_owned(),
            n,
            seed,
        })?;
        match self.next_reply()? {
            Response::QueryResult { cycles } => Ok(cycles),
            other => Err(unexpected(&other)),
        }
    }

    /// Cancels a live job.
    ///
    /// # Errors
    ///
    /// The server's error code when the id is unknown, `4001` on
    /// transport failure.
    pub fn cancel(&mut self, id: &str) -> Result<(), Error> {
        self.send(&Request::Cancel { id: id.to_owned() })?;
        match self.next_reply()? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the scheduler counters.
    ///
    /// # Errors
    ///
    /// `4001` on transport failure.
    pub fn stats(&mut self) -> Result<StatsBody, Error> {
        self.send(&Request::Stats)?;
        match self.next_reply()? {
            Response::Stats(body) => Ok(body),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    ///
    /// `4001` on transport failure.
    pub fn shutdown(&mut self) -> Result<(), Error> {
        self.send(&Request::Shutdown)?;
        match self.next_reply()? {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

fn io_error(e: std::io::Error) -> Error {
    Error::Protocol {
        code: codes::PROTO_BAD_REQUEST,
        detail: format!("connection i/o failed: {e}"),
    }
}

fn unexpected(resp: &Response) -> Error {
    match resp {
        Response::Error { code, detail } => Error::Protocol {
            code: *code,
            detail: detail.clone(),
        },
        other => Error::Protocol {
            code: codes::PROTO_BAD_REQUEST,
            detail: format!("unexpected response: {:?}", other),
        },
    }
}
