//! Deterministic fuzz tests for report framing: [`frames::split`] on
//! the sending side and [`Assembler`] on the receiving side, the
//! boundary every framed job report crosses on the wire.
//!
//! Texts are drawn from an alphabet of one- to four-byte characters
//! (so chunk caps land inside multibyte characters), and chunk sizes
//! run from 0 (clamped to 1) past the text length. Deliveries are the
//! split frames damaged by drops, repeats, swaps, forged frames and
//! frames pushed after the last one. The generators are seeded from
//! the test's name (set `PROPTEST_SEED` to vary them). Every in-order
//! delivery must rebuild the text exactly; every push of a damaged
//! delivery must return what a reference model of the sequencing
//! contract predicts, a typed [`FrameError`] for each rejected frame,
//! never a panic.

use proptest::prelude::*;
use xobs::frames::{self, Assembler, Frame, FrameError};

/// Characters of every UTF-8 length, and the framing-relevant ASCII.
const ALPHABET: &[char] = &[
    'a', 'z', '0', ' ', '"', '\\', '{', '}', '\n', '\u{0}', 'é', 'ß', '€', '∞', '\u{feff}', '😀',
    '𝄞',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..96)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// One damage to a delivery: `(kind, a, b, seq)`.
type Damage = (u8, usize, usize, u64);

fn damage(delivery: &mut Vec<Frame>, frames: &[Frame], (kind, a, b, seq): Damage) {
    let n = delivery.len();
    match kind {
        // Drop a frame.
        0 if n > 0 => {
            delivery.remove(a % n);
        }
        // Repeat a frame right after itself, or somewhere later.
        1 if n > 0 => {
            let f = delivery[a % n].clone();
            delivery.insert((a % n + 1 + b % n).min(n), f);
        }
        // Swap two frames.
        2 if n > 1 => delivery.swap(a % n, b % n),
        // Push an already-sent frame after the whole delivery.
        3 => delivery.push(frames[a % frames.len()].clone()),
        // Insert a forged frame with an arbitrary sequence number.
        _ => delivery.insert(
            a % (n + 1),
            Frame {
                seq,
                last: b % 2 == 0,
                data: "forged".to_owned(),
            },
        ),
    }
}

fn damaged() -> impl Strategy<Value = (String, usize, Vec<Damage>)> {
    let seq = prop::sample::select(vec![0u64, 1, 2, 3, 7, u64::MAX]);
    let edit = (0u8..5, 0usize..64, 0usize..64, seq);
    (text(), 0usize..24, prop::collection::vec(edit, 1..4))
}

/// Frames `text` in `chunk`-byte frames and checks the framing
/// contract: sequence numbers count up from 0, only the final frame is
/// `last`, and no frame exceeds the cap by more than one character's
/// continuation bytes.
fn split_checked(text: &str, chunk: usize) -> Vec<Frame> {
    let frames = frames::split(text, chunk);
    assert!(!frames.is_empty(), "{text:?} at {chunk}: no frames");
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.seq, i as u64, "{text:?} at {chunk}");
        assert_eq!(f.last, i + 1 == frames.len(), "{text:?} at {chunk}");
        assert!(f.data.len() <= chunk.max(1) + 3, "{text:?} at {chunk}");
    }
    frames
}

#[test]
fn an_empty_document_is_one_last_frame() {
    let frames = split_checked("", 16);
    assert_eq!(frames.len(), 1);
    assert_eq!(Assembler::new().push(&frames[0]), Ok(Some(String::new())));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3000, ..ProptestConfig::default() })]

    #[test]
    fn split_text_reassembles_exactly_at_any_chunk_size(
        text in text(),
        chunk in 0usize..120,
    ) {
        let frames = split_checked(&text, chunk);
        let mut asm = Assembler::new();
        let (last, body) = frames.split_last().expect("at least one frame");
        for f in body {
            prop_assert_eq!(asm.push(f), Ok(None));
        }
        prop_assert_eq!(asm.push(last), Ok(Some(text.clone())));
        prop_assert_eq!(asm.push(last), Err(FrameError::AfterLast));
    }

    #[test]
    fn damaged_deliveries_get_typed_frame_errors(case in damaged()) {
        let (text, chunk, damages) = case;
        let frames = split_checked(&text, chunk);
        let mut delivery = frames.clone();
        for d in damages {
            damage(&mut delivery, &frames, d);
        }
        // The reference model: the next expected sequence number, the
        // text so far, and whether a `last` frame closed it.
        let (mut next, mut doc, mut done) = (0u64, String::new(), false);
        let mut asm = Assembler::new();
        let mut rejected = 0;
        for f in &delivery {
            let want = if done {
                Err(FrameError::AfterLast)
            } else if f.seq != next {
                Err(FrameError::OutOfOrder { expected: next, got: f.seq })
            } else {
                next += 1;
                doc.push_str(&f.data);
                done = f.last;
                Ok(done.then(|| doc.clone()))
            };
            rejected += usize::from(want.is_err());
            prop_assert_eq!(asm.push(f), want);
        }
        // A delivery of genuine frames that is not the split frames in
        // order either draws an error or never completes the document.
        // (A forged frame carrying the expected sequence number is
        // accepted: frames carry no checksum.)
        let genuine = delivery.iter().all(|f| frames.contains(f));
        if genuine && delivery != frames {
            prop_assert!(rejected > 0 || !done, "{delivery:?}");
        }
    }
}
