//! A minimal JSON value model, writer and parser.
//!
//! DESIGN §5 keeps the workspace free of third-party crates, so the
//! structured run reports ([`crate::report`]) and metrics snapshots are
//! serialized by this hand-rolled writer instead of serde. The parser
//! exists so reports can be *validated* (CI schema checks,
//! `xr32-trace check-report`) without shelling out to external tools.
//!
//! The model is deliberately small: objects preserve insertion order
//! (reports are diffable), numbers are `f64` (ample for cycle counts up
//! to 2⁵³), and the parser accepts exactly the JSON this writer emits
//! plus ordinary interchange JSON (no comments, no trailing commas).

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds or replaces key `k` in an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(mut self, k: impl Into<String>, v: impl Into<Json>) -> Json {
        let Json::Obj(ref mut fields) = self else {
            panic!("Json::set on a non-object");
        };
        let k = k.into();
        let v = v.into();
        if let Some(slot) = fields.iter_mut().find(|(key, _)| *key == k) {
            slot.1 = v;
        } else {
            fields.push((k, v));
        }
        self
    }

    /// Looks up key `k` if `self` is an object.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(key, _)| key == k).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serializes to a compact single-line string.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (the report format).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        // Integral values print without a fraction so cycle counts stay
        // exact and greppable.
        let _ = fmt::Write::write_fmt(out, format_args!("{}", n as i64));
    } else {
        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest array/object nesting [`parse`] accepts: far above any
/// report's depth, and shallow enough that a hostile document cannot
/// exhaust the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input, trailing garbage, or
/// arrays and objects nested more than 128 deep.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by an escaped low
                            // one is one character; a lone surrogate
                            // becomes the replacement character.
                            let mut c = char::from_u32(code);
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                if let Ok(low @ 0xdc00..=0xdfff) = self.hex4(self.pos + 3) {
                                    c = char::from_u32(
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                                    );
                                    self.pos += 6;
                                }
                            }
                            out.push(c.unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape: both
                    // are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        match self.src[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            // The writer prints a non-finite number as `null`, so
            // accepting one would not survive a round trip.
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("bad number")),
        }
    }

    /// The value of the four hex digits at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        hex.iter()
            .try_fold(0, |code, &b| match (b as char).to_digit(16) {
                Some(d) => Ok(code << 4 | d),
                None => Err(self.err("bad \\u escape")),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let j = Json::obj()
            .set("name", "des")
            .set("cycles", 1234u64)
            .set("ok", true)
            .set("items", vec![Json::Num(1.0), Json::Num(2.5)]);
        assert_eq!(j.get("name").and_then(Json::as_str), Some("des"));
        assert_eq!(j.get("cycles").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(
            j.get("items").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(j.get("missing").is_none());
    }

    #[test]
    fn set_replaces_existing_key() {
        let j = Json::obj().set("k", 1u64).set("k", 2u64);
        assert_eq!(j.get("k").and_then(Json::as_f64), Some(2.0));
        let Json::Obj(fields) = &j else {
            unreachable!()
        };
        assert_eq!(fields.len(), 1);
    }

    #[test]
    fn compact_output_is_single_line() {
        let j = Json::obj().set("a", 1u64).set("b", vec![Json::Null]);
        assert_eq!(j.to_string_compact(), r#"{"a":1,"b":[null]}"#);
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string_compact(), "42");
        assert_eq!(Json::Num(-3.0).to_string_compact(), "-3");
        assert_eq!(Json::Num(2.5).to_string_compact(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
    }

    #[test]
    fn strings_escape_control_characters() {
        let j = Json::Str("a\"b\\c\nd\u{1}".to_owned());
        assert_eq!(j.to_string_compact(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::obj()
            .set("schema", "xobs.run-report")
            .set("n", 1.5e9)
            .set("neg", -7i64)
            .set("flag", false)
            .set("nested", Json::obj().set("s", "q\"uote\n"))
            .set("arr", vec![Json::Null, Json::Bool(true), Json::Num(3.0)]);
        for text in [j.to_string_compact(), j.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), j, "round trip of {text}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let mut v = parse(&nested(MAX_DEPTH)).unwrap();
        for _ in 1..MAX_DEPTH {
            v = v.as_arr().unwrap()[0].clone();
        }
        assert_eq!(v, Json::Arr(vec![]));
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // A hostile wire line is an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(100_000),
            "}".repeat(100_000)
        ))
        .is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("'single'").is_err());
    }

    #[test]
    fn parse_accepts_interchange_json() {
        let j = parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_arr).unwrap(),
            &[Json::Num(1.0), Json::Num(25.0), Json::Str("A".into())]
        );
    }
}
