//! Incremental framing for large JSON documents.
//!
//! A finished run report (with its metrics snapshot and span tree) can
//! be hundreds of kilobytes of compact JSON — too large to drop on a
//! line-delimited wire as one line without starving every other
//! response on the connection. [`split`] chops the rendered document
//! into bounded [`Frame`]s that interleave with other traffic, and
//! [`Assembler`] rebuilds the document on the receiving side, checking
//! sequence continuity so a dropped or reordered frame surfaces as a
//! typed error instead of a JSON parse failure deep inside the payload.
//!
//! Frames are transport-agnostic: the serving layer wraps each one in
//! its own response envelope (tagging it with the job id), but the
//! `seq`/`last`/`data` triple here is the whole framing contract.

use std::fmt;

/// Default maximum payload bytes per frame. Small enough that a frame
/// never monopolizes a shared connection, large enough that a typical
/// report ships in a handful of frames.
pub const DEFAULT_CHUNK: usize = 8 * 1024;

/// One bounded slice of a framed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Zero-based position of this frame in the document.
    pub seq: u64,
    /// Whether this is the document's final frame.
    pub last: bool,
    /// The payload slice (UTF-8; frames split on character
    /// boundaries).
    pub data: String,
}

/// Splits a rendered document into frames of about `chunk` bytes each
/// (`chunk` is clamped to at least 1; a frame may run up to three
/// bytes over when a multibyte character straddles the cap). Every
/// document — including the empty one — yields at least one frame, so
/// a receiver always sees a `last` frame.
pub fn split(text: &str, chunk: usize) -> Vec<Frame> {
    let chunk = chunk.max(1);
    let mut frames = Vec::new();
    let mut rest = text;
    loop {
        let mut take = rest.len().min(chunk);
        while take < rest.len() && !rest.is_char_boundary(take) {
            take += 1;
        }
        let (head, tail) = rest.split_at(take);
        frames.push(Frame {
            seq: frames.len() as u64,
            last: tail.is_empty(),
            data: head.to_owned(),
        });
        if tail.is_empty() {
            return frames;
        }
        rest = tail;
    }
}

/// Why an [`Assembler`] rejected a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A frame arrived out of order (or was dropped).
    OutOfOrder {
        /// The sequence number the assembler expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
    /// A frame arrived after the `last` frame completed the document.
    AfterLast,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::OutOfOrder { expected, got } => {
                write!(f, "frame {got} arrived where {expected} was expected")
            }
            FrameError::AfterLast => write!(f, "frame arrived after the final frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reassembles a document from its [`Frame`]s, enforcing in-order
/// delivery.
#[derive(Debug, Default)]
pub struct Assembler {
    buf: String,
    next_seq: u64,
    done: bool,
}

impl Assembler {
    /// An empty assembler expecting frame 0.
    pub fn new() -> Self {
        Assembler::default()
    }

    /// Accepts the next frame. Returns the completed document when
    /// `frame.last` closes it, `None` while more frames are expected.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a sequence gap, reorder, or a frame
    /// after completion; the assembler is left unchanged.
    pub fn push(&mut self, frame: &Frame) -> Result<Option<String>, FrameError> {
        if self.done {
            return Err(FrameError::AfterLast);
        }
        if frame.seq != self.next_seq {
            return Err(FrameError::OutOfOrder {
                expected: self.next_seq,
                got: frame.seq,
            });
        }
        self.buf.push_str(&frame.data);
        self.next_seq += 1;
        if frame.last {
            self.done = true;
            return Ok(Some(std::mem::take(&mut self.buf)));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(text: &str, chunk: usize) -> String {
        let mut asm = Assembler::new();
        let mut out = None;
        for frame in split(text, chunk) {
            assert!(out.is_none(), "frames after last");
            out = asm.push(&frame).expect("in-order frames assemble");
        }
        out.expect("last frame closes the document")
    }

    #[test]
    fn documents_round_trip_at_any_chunk_size() {
        let doc = r#"{"schema_version":8,"report":"r","results":{"x":1}}"#;
        for chunk in [1, 2, 7, 16, doc.len() - 1, doc.len(), doc.len() + 100] {
            assert_eq!(round_trip(doc, chunk), doc, "chunk {chunk}");
        }
    }

    #[test]
    fn empty_documents_still_emit_a_last_frame() {
        let frames = split("", 64);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].last);
        assert_eq!(round_trip("", 64), "");
    }

    #[test]
    fn multibyte_payloads_split_on_char_boundaries() {
        let doc = "§4.3 — 1407×";
        for chunk in 1..=doc.len() {
            assert_eq!(round_trip(doc, chunk), doc, "chunk {chunk}");
        }
    }

    #[test]
    fn gaps_reorders_and_stragglers_are_typed_errors() {
        let frames = split("abcdef", 2);
        let mut asm = Assembler::new();
        assert_eq!(
            asm.push(&frames[1]),
            Err(FrameError::OutOfOrder {
                expected: 0,
                got: 1
            })
        );
        asm.push(&frames[0]).unwrap();
        asm.push(&frames[1]).unwrap();
        assert_eq!(asm.push(&frames[2]), Ok(Some("abcdef".to_owned())));
        assert_eq!(asm.push(&frames[2]), Err(FrameError::AfterLast));
    }
}
