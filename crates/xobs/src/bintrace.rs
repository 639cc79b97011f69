//! Streaming compact binary trace format (`.xtrace`).
//!
//! Layout: a 6-byte header (magic `XTRC`, little-endian `u16` version),
//! then a stream of tagged little-endian records. Strings (custom
//! instruction names, callee labels) are interned: the first use of a
//! name emits a `NameDef` record assigning it a dense `u32` id, and all
//! later records refer to the id. A DES block traces to a few tens of
//! kilobytes; a full RSA-1024 co-simulation stays well under typical
//! text-log sizes.
//!
//! The format is versioned: readers reject unknown versions rather than
//! guessing ([`TraceReadError`]). Record tags, in order:
//!
//! | tag  | record      | payload                                     |
//! |------|-------------|---------------------------------------------|
//! | 0x01 | NameDef     | u32 id, u16 len, utf-8 bytes                |
//! | 0x02 | Retire      | u32 pc, u64 cycle                           |
//! | 0x03 | Stall       | u32 pc, u32 cycles, u64 cycle               |
//! | 0x04 | TakenBranch | u32 pc, u32 target, u32 penalty, u64 cycle  |
//! | 0x05 | Cache       | u8 flags (bit0 data-side, bit1 hit), u64 addr, u64 cycle |
//! | 0x06 | Custom      | u32 pc, u32 name-id, u32 latency, u64 cycle |
//! | 0x07 | Call        | u32 pc, u32 callee-id, u64 cycle            |
//! | 0x08 | Ret         | u32 pc, u64 cycle                           |

use std::collections::HashMap;
use std::io::{self, Read, Write};

use crate::trace::{CacheSide, TraceEvent, TraceSink};

/// File magic, first four bytes of every trace.
const MAGIC: [u8; 4] = *b"XTRC";
/// Current format version.
const VERSION: u16 = 1;

const TAG_NAMEDEF: u8 = 0x01;
const TAG_RETIRE: u8 = 0x02;
const TAG_STALL: u8 = 0x03;
const TAG_TAKEN_BRANCH: u8 = 0x04;
const TAG_CACHE: u8 = 0x05;
const TAG_CUSTOM: u8 = 0x06;
const TAG_CALL: u8 = 0x07;
const TAG_RET: u8 = 0x08;

/// A [`TraceSink`] that streams events to a writer in the binary
/// format. I/O errors are latched: after the first failure the writer
/// drops events and [`BinaryTraceWriter::finish`] reports the error.
pub struct BinaryTraceWriter<W: Write> {
    out: W,
    names: HashMap<String, u32>,
    error: Option<io::Error>,
    events_written: u64,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Starts a trace, writing the header immediately.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        Ok(BinaryTraceWriter {
            out,
            names: HashMap::new(),
            error: None,
            events_written: 0,
        })
    }

    /// Number of events successfully encoded.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Flushes and returns the underlying writer, or the first error
    /// encountered while streaming.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    fn intern(&mut self, name: &str) -> io::Result<u32> {
        if let Some(&id) = self.names.get(name) {
            return Ok(id);
        }
        let id = self.names.len() as u32;
        self.names.insert(name.to_owned(), id);
        let bytes = name.as_bytes();
        let len = u16::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "name longer than u16"))?;
        self.out.write_all(&[TAG_NAMEDEF])?;
        self.out.write_all(&id.to_le_bytes())?;
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(bytes)?;
        Ok(id)
    }

    fn encode(&mut self, ev: &TraceEvent<&str>) -> io::Result<()> {
        match *ev {
            TraceEvent::Retire { pc, cycle } => {
                self.out.write_all(&[TAG_RETIRE])?;
                self.out.write_all(&pc.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
            TraceEvent::Stall { pc, cycles, cycle } => {
                self.out.write_all(&[TAG_STALL])?;
                self.out.write_all(&pc.to_le_bytes())?;
                self.out.write_all(&cycles.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
            TraceEvent::TakenBranch {
                pc,
                target,
                penalty,
                cycle,
            } => {
                self.out.write_all(&[TAG_TAKEN_BRANCH])?;
                self.out.write_all(&pc.to_le_bytes())?;
                self.out.write_all(&target.to_le_bytes())?;
                self.out.write_all(&penalty.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
            TraceEvent::Cache {
                side,
                addr,
                hit,
                cycle,
            } => {
                let mut flags = 0u8;
                if side == CacheSide::Data {
                    flags |= 1;
                }
                if hit {
                    flags |= 2;
                }
                self.out.write_all(&[TAG_CACHE, flags])?;
                self.out.write_all(&addr.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
            TraceEvent::Custom {
                pc,
                name,
                latency,
                cycle,
            } => {
                let id = self.intern(name)?;
                self.out.write_all(&[TAG_CUSTOM])?;
                self.out.write_all(&pc.to_le_bytes())?;
                self.out.write_all(&id.to_le_bytes())?;
                self.out.write_all(&latency.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
            TraceEvent::Call { pc, callee, cycle } => {
                let id = self.intern(callee)?;
                self.out.write_all(&[TAG_CALL])?;
                self.out.write_all(&pc.to_le_bytes())?;
                self.out.write_all(&id.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
            TraceEvent::Ret { pc, cycle } => {
                self.out.write_all(&[TAG_RET])?;
                self.out.write_all(&pc.to_le_bytes())?;
                self.out.write_all(&cycle.to_le_bytes())?;
            }
        }
        self.events_written += 1;
        Ok(())
    }
}

impl<W: Write> TraceSink for BinaryTraceWriter<W> {
    fn on_event(&mut self, ev: &TraceEvent<&str>) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.encode(ev) {
            self.error = Some(e);
        }
    }

    fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.error = Some(e);
        }
    }
}

/// Why a trace could not be decoded.
#[derive(Debug)]
pub enum TraceReadError {
    /// Underlying reader failed.
    Io(io::Error),
    /// The byte stream is not a trace or is damaged; the message says
    /// what was wrong and roughly where.
    Malformed(String),
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Malformed(m) => write!(f, "malformed trace: {m}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceReadError> {
        if self.pos + n > self.buf.len() {
            return Err(TraceReadError::Malformed(format!(
                "truncated record at byte {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TraceReadError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceReadError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, TraceReadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, TraceReadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Reads an entire trace into owned events.
pub fn read_trace<R: Read>(mut r: R) -> Result<Vec<TraceEvent<String>>, TraceReadError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    decode_trace(&buf)
}

/// Decodes a trace held in memory.
pub fn decode_trace(buf: &[u8]) -> Result<Vec<TraceEvent<String>>, TraceReadError> {
    let mut d = Decoder { buf, pos: 0 };
    if d.take(4)? != MAGIC {
        return Err(TraceReadError::Malformed("bad magic".into()));
    }
    let version = d.u16()?;
    if version != VERSION {
        return Err(TraceReadError::Malformed(format!(
            "unsupported trace version {version} (reader supports {VERSION})"
        )));
    }
    let mut names: Vec<String> = Vec::new();
    let mut events = Vec::new();
    while d.pos < d.buf.len() {
        let at = d.pos;
        let tag = d.u8()?;
        match tag {
            TAG_NAMEDEF => {
                let id = d.u32()?;
                if id as usize != names.len() {
                    return Err(TraceReadError::Malformed(format!(
                        "non-dense name id {id} at byte {at}"
                    )));
                }
                let len = d.u16()? as usize;
                let s = std::str::from_utf8(d.take(len)?).map_err(|_| {
                    TraceReadError::Malformed(format!("non-utf8 name at byte {at}"))
                })?;
                names.push(s.to_owned());
            }
            TAG_RETIRE => events.push(TraceEvent::Retire {
                pc: d.u32()?,
                cycle: d.u64()?,
            }),
            TAG_STALL => events.push(TraceEvent::Stall {
                pc: d.u32()?,
                cycles: d.u32()?,
                cycle: d.u64()?,
            }),
            TAG_TAKEN_BRANCH => events.push(TraceEvent::TakenBranch {
                pc: d.u32()?,
                target: d.u32()?,
                penalty: d.u32()?,
                cycle: d.u64()?,
            }),
            TAG_CACHE => {
                let flags = d.u8()?;
                events.push(TraceEvent::Cache {
                    side: if flags & 1 != 0 {
                        CacheSide::Data
                    } else {
                        CacheSide::Instruction
                    },
                    hit: flags & 2 != 0,
                    addr: d.u64()?,
                    cycle: d.u64()?,
                });
            }
            TAG_CUSTOM => {
                let pc = d.u32()?;
                let id = d.u32()? as usize;
                let latency = d.u32()?;
                let cycle = d.u64()?;
                let name = names.get(id).ok_or_else(|| {
                    TraceReadError::Malformed(format!("undefined name id {id} at byte {at}"))
                })?;
                events.push(TraceEvent::Custom {
                    pc,
                    name: name.clone(),
                    latency,
                    cycle,
                });
            }
            TAG_CALL => {
                let pc = d.u32()?;
                let id = d.u32()? as usize;
                let cycle = d.u64()?;
                let callee = names.get(id).ok_or_else(|| {
                    TraceReadError::Malformed(format!("undefined name id {id} at byte {at}"))
                })?;
                events.push(TraceEvent::Call {
                    pc,
                    callee: callee.clone(),
                    cycle,
                });
            }
            TAG_RET => events.push(TraceEvent::Ret {
                pc: d.u32()?,
                cycle: d.u64()?,
            }),
            other => {
                return Err(TraceReadError::Malformed(format!(
                    "unknown record tag {other:#04x} at byte {at}"
                )));
            }
        }
    }
    Ok(events)
}

/// Replays decoded events into any sink.
pub fn replay(events: &[TraceEvent<String>], sink: &mut dyn TraceSink) {
    for ev in events {
        sink.on_event(&ev.map_names(String::as_str));
    }
    sink.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::Attribution;

    fn sample_events() -> Vec<TraceEvent<&'static str>> {
        vec![
            TraceEvent::Call {
                pc: 0,
                callee: "des_block",
                cycle: 0,
            },
            TraceEvent::Cache {
                side: CacheSide::Instruction,
                addr: 0,
                hit: false,
                cycle: 20,
            },
            TraceEvent::Retire { pc: 0, cycle: 21 },
            TraceEvent::Stall {
                pc: 1,
                cycles: 1,
                cycle: 23,
            },
            TraceEvent::Custom {
                pc: 2,
                name: "sbox8",
                latency: 1,
                cycle: 24,
            },
            TraceEvent::Custom {
                pc: 3,
                name: "sbox8",
                latency: 1,
                cycle: 25,
            },
            TraceEvent::TakenBranch {
                pc: 4,
                target: 0,
                penalty: 2,
                cycle: 28,
            },
            TraceEvent::Ret { pc: 5, cycle: 40 },
        ]
    }

    fn encode(events: &[TraceEvent<&'static str>]) -> Vec<u8> {
        let mut w = BinaryTraceWriter::new(Vec::new()).unwrap();
        for ev in events {
            w.on_event(ev);
        }
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_events() {
        let events = sample_events();
        let bytes = encode(&events);
        let decoded = decode_trace(&bytes).unwrap();
        assert_eq!(decoded.len(), events.len());
        for (d, e) in decoded.iter().zip(&events) {
            assert_eq!(&d.map_names(String::as_str), e);
        }
    }

    #[test]
    fn names_are_interned_once() {
        let bytes = encode(&sample_events());
        // "sbox8" appears once as a NameDef despite two Custom records.
        let needle = b"sbox8";
        let count = bytes.windows(needle.len()).filter(|w| w == needle).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn replay_feeds_attribution() {
        let bytes = encode(&sample_events());
        let decoded = decode_trace(&bytes).unwrap();
        let mut attr = Attribution::new();
        replay(&decoded, &mut attr);
        assert_eq!(attr.total_cycles(), 40);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_trace(b"NOPE\x01\x00").unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&[]);
        bytes[4] = 0xff; // bump version field
        let err = decode_trace(&bytes).unwrap_err();
        assert!(err.to_string().contains("unsupported trace version"));
    }

    #[test]
    fn truncated_record_rejected() {
        let mut bytes = encode(&sample_events());
        bytes.truncate(bytes.len() - 3);
        let err = decode_trace(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = encode(&[]);
        bytes.push(0x7f);
        let err = decode_trace(&bytes).unwrap_err();
        assert!(err.to_string().contains("unknown record tag"));
    }
}
