//! The JSONL trace format: one event per line, written by
//! [`crate::JsonlSink`] and read back by `examples/trace_report.rs`.
//!
//! Each line is a flat JSON object whose `"ev"` field names the event
//! kind (`span_start`, `span_end`, `count`, `gauge`, `series`, `hist`);
//! the remaining fields mirror [`Event`]'s variants. Histograms are
//! serialized sparsely as `"buckets": [[bucket, count], …]` (non-zero
//! buckets only) plus exact `count` / `sum` / `min` / `max`.
//!
//! [`parse_line`] reads a line back, strict enough to catch format
//! drift in CI but tolerant of unknown fields, so the format can grow.
//! It sits on [`parse_object`], the workspace's one JSON reader (the
//! `serde_json` shim only writes): integers stay exact `u64`s, and a
//! string is scanned in one linear pass.

use std::fmt::Write as _;

use crate::event::{Event, OwnedEvent};
use crate::hist::Histogram;

/// Serialize one event as a single JSON line (no trailing newline).
pub fn to_line(event: &Event<'_>) -> String {
    let mut s = String::with_capacity(96);
    match *event {
        Event::SpanStart {
            id,
            parent,
            trace,
            name,
            t_us,
        } => {
            s.push_str("{\"ev\":\"span_start\",\"id\":");
            let _ = write!(s, "{id},\"parent\":{parent}");
            // Untraced spans (the common case) omit the field — old
            // traces and new ones stay byte-identical.
            if trace != 0 {
                let _ = write!(s, ",\"trace\":{trace}");
            }
            s.push_str(",\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"t_us\":{t_us}}}");
        }
        Event::SpanEnd {
            id,
            parent,
            trace,
            name,
            t_us,
            dur_us,
        } => {
            s.push_str("{\"ev\":\"span_end\",\"id\":");
            let _ = write!(s, "{id},\"parent\":{parent}");
            if trace != 0 {
                let _ = write!(s, ",\"trace\":{trace}");
            }
            s.push_str(",\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"t_us\":{t_us},\"dur_us\":{dur_us}}}");
        }
        Event::Count {
            span,
            name,
            n,
            t_us,
        } => {
            s.push_str("{\"ev\":\"count\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"n\":{n},\"t_us\":{t_us}}}");
        }
        Event::Gauge {
            span,
            name,
            value,
            t_us,
        } => {
            s.push_str("{\"ev\":\"gauge\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            s.push_str(",\"value\":");
            push_json_f64(&mut s, value);
            let _ = write!(s, ",\"t_us\":{t_us}}}");
        }
        Event::Series {
            span,
            name,
            index,
            values,
            t_us,
        } => {
            s.push_str("{\"ev\":\"series\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"index\":{index},\"values\":[");
            for (i, &v) in values.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_json_f64(&mut s, v);
            }
            let _ = write!(s, "],\"t_us\":{t_us}}}");
        }
        Event::Hist {
            span,
            name,
            hist,
            t_us,
        } => {
            s.push_str("{\"ev\":\"hist\",\"span\":");
            let _ = write!(s, "{span},\"name\":");
            push_json_str(&mut s, name);
            let _ = write!(s, ",\"count\":{},\"sum\":", hist.count());
            push_json_f64(&mut s, hist.sum());
            if hist.count() > 0 {
                s.push_str(",\"min\":");
                push_json_f64(&mut s, hist.min());
                s.push_str(",\"max\":");
                push_json_f64(&mut s, hist.max());
            }
            s.push_str(",\"buckets\":[");
            let mut first = true;
            for (b, &c) in hist.bucket_counts().iter().enumerate() {
                if c > 0 {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = write!(s, "[{b},{c}]");
                }
            }
            let _ = write!(s, "],\"t_us\":{t_us}}}");
        }
    }
    s
}

/// JSON string escaping (control characters, quote, backslash).
/// Append `s` to `out` as a JSON string literal (quoted and escaped) —
/// shared with the hand-rolled JSON writers of the introspection API.
pub fn push_str_escaped(out: &mut String, s: &str) {
    push_json_str(out, s);
}

/// Append `v` to `out` as a JSON number: Rust's shortest round-trip
/// decimal (so an `f64` survives a serialize → parse cycle bit-for-bit);
/// non-finite values become `null`.
pub fn push_f64(out: &mut String, v: f64) {
    push_json_f64(out, v);
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `f64` as JSON: shortest round-trip decimal; non-finite values become
/// `null` (JSON has no Infinity/NaN) and parse back as 0.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason, with a byte offset where applicable.
    pub reason: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(reason: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        reason: reason.into(),
    })
}

/// Text that is not the JSON [`parse_object`] reads: a fixed reason and
/// the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntaxError {
    /// What was wrong, e.g. `"unterminated string"`.
    pub what: &'static str,
    /// Byte offset into the parsed text.
    pub at: usize,
}

/// A parsed JSON value.
///
/// A number token of plain decimal digits that fits `u64` is
/// [`Json::Int`], kept exact: trace ids are FNV-1a hashes near 2⁶³ and
/// stream ids span all of `u64`, where `f64` has a grid of 1024 or
/// more, and a rounded id would silently name another trace or stream.
/// Every other number (a sign, a fraction, an exponent, or digits too
/// large for `u64`) is [`Json::Num`], which no `u64` accessor accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An exact unsigned integer.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(JsonObject),
}

impl Json {
    /// The value of a [`Json::Int`]; `None` for anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The value of a number. A whole-valued `f64` rendered without a
    /// fraction parses as [`Json::Int`]; both conversions round the same
    /// decimal to the nearest `f64`, so its bits survive.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            Json::Int(n) => Some(n as f64),
            _ => None,
        }
    }
}

/// A JSON object: its fields in input order. A name that appears twice
/// finds its first value. The typed accessors fail with a fixed reason.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonObject {
    fields: Vec<(String, Json)>,
}

impl JsonObject {
    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<&str, &'static str> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err("missing or non-string field"),
        }
    }

    /// An exact unsigned-integer field (see [`Json::Int`]).
    pub fn u64(&self, key: &str) -> Result<u64, &'static str> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or("missing or non-integer field")
    }

    /// An exact unsigned-integer field that may be `null`.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, &'static str> {
        match self.get(key) {
            Some(Json::Null) => Ok(None),
            Some(&Json::Int(n)) => Ok(Some(n)),
            _ => Err("missing or non-integer field"),
        }
    }

    /// An array of exact unsigned integers. An element that arrived
    /// fractional, negative or too large for `u64` is an error, never a
    /// rounded id.
    pub fn u64_array(&self, key: &str) -> Result<Vec<u64>, &'static str> {
        match self.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| v.as_u64().ok_or("non-integer array element"))
                .collect(),
            _ => Err("missing or non-array field"),
        }
    }

    /// An array of numbers.
    pub fn f64_array(&self, key: &str) -> Result<Vec<f64>, &'static str> {
        match self.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric array element"))
                .collect(),
            _ => Err("missing or non-array field"),
        }
    }
}

/// Parse `text` as one JSON object followed by nothing but whitespace.
/// The workspace's one JSON reader: trace lines ([`parse_line`]), the
/// cluster wire format and its control bodies all go through it.
pub fn parse_object(text: &str) -> Result<JsonObject, SyntaxError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
    };
    let object = p.object()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.error("trailing bytes after object"));
    }
    Ok(object)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &'static str) -> SyntaxError {
        SyntaxError { what, at: self.at }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), SyntaxError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error("unexpected character"))
        }
    }

    fn object(&mut self) -> Result<JsonObject, SyntaxError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(JsonObject { fields });
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(JsonObject { fields });
                }
                _ => return Err(self.error("expected , or } in object")),
            }
        }
    }

    fn value(&mut self) -> Result<Json, SyntaxError> {
        match self
            .peek()
            .ok_or_else(|| self.error("unexpected end of line"))?
        {
            b'"' => Ok(Json::Str(self.string()?)),
            b'{' => Ok(Json::Obj(self.object()?)),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected , or ] in array")),
                    }
                }
            }
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, SyntaxError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(self.error("bad literal"))
        }
    }

    /// One linear pass: unescaped runs are copied whole. A run ends only
    /// at an ASCII `"` or `\`, so every slice falls on char boundaries.
    fn string(&mut self) -> Result<String, SyntaxError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.at;
            while self
                .bytes
                .get(self.at)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let c = match self.bytes.get(self.at) {
                        None => return Err(self.error("unterminated escape")),
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.at + 1..self.at + 5)
                                .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        Some(_) => return Err(self.error("unsupported escape")),
                    };
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SyntaxError> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        // The scanned bytes are ASCII, so this slice is on char boundaries.
        let raw = &self.text[start..self.at];
        if raw.is_empty() {
            return Err(self.error("expected a number"));
        }
        // Only a digit-only token is an integer (`u64::from_str` would
        // also take a leading `+`); one too large for u64 is a Num.
        if raw.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = raw.parse() {
                return Ok(Json::Int(n));
            }
        }
        raw.parse().map(Json::Num).map_err(|_| SyntaxError {
            what: "bad number",
            at: start,
        })
    }
}

/// A trace line's float: `null` stands for a non-finite value and
/// reads back as 0 (see [`push_f64`]).
fn trace_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Null => Some(0.0),
        v => v.as_f64(),
    }
}

/// Parse one trace line back into an [`OwnedEvent`].
///
/// Unknown object fields are ignored (forward compatibility); a missing
/// required field, a malformed value or an unknown `"ev"` kind is an
/// error — `trace_report` runs in CI precisely to catch such drift.
pub fn parse_line(line: &str) -> Result<OwnedEvent, ParseError> {
    let fields = parse_object(line).map_err(|e| ParseError {
        reason: format!("{} at byte {}", e.what, e.at),
    })?;
    let field_error = |what: &str, key: &str| ParseError {
        reason: format!("{what} {key:?}"),
    };
    let get_u64 = |key: &str| fields.u64(key).map_err(|what| field_error(what, key));
    let get_f64 = |key: &str| {
        fields
            .get(key)
            .and_then(trace_f64)
            .ok_or_else(|| field_error("missing or non-numeric field", key))
    };
    let get_str = |key: &str| {
        fields
            .str(key)
            .map(str::to_string)
            .map_err(|what| field_error(what, key))
    };

    let ev = get_str("ev")?;
    // Optional on the wire (omitted when 0 — pre-tracing lines have no
    // trace field at all), so default rather than error.
    let trace = match fields.get("trace") {
        None => 0,
        Some(_) => get_u64("trace")?,
    };
    match ev.as_str() {
        "span_start" => Ok(OwnedEvent::SpanStart {
            id: get_u64("id")?,
            parent: get_u64("parent")?,
            trace,
            name: get_str("name")?,
            t_us: get_u64("t_us")?,
        }),
        "span_end" => Ok(OwnedEvent::SpanEnd {
            id: get_u64("id")?,
            parent: get_u64("parent")?,
            trace,
            name: get_str("name")?,
            t_us: get_u64("t_us")?,
            dur_us: get_u64("dur_us")?,
        }),
        "count" => Ok(OwnedEvent::Count {
            span: get_u64("span")?,
            name: get_str("name")?,
            n: get_u64("n")?,
            t_us: get_u64("t_us")?,
        }),
        "gauge" => Ok(OwnedEvent::Gauge {
            span: get_u64("span")?,
            name: get_str("name")?,
            value: get_f64("value")?,
            t_us: get_u64("t_us")?,
        }),
        "series" => {
            let values = match fields.get("values") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|v| {
                        trace_f64(v).ok_or_else(|| ParseError {
                            reason: "non-numeric series value".into(),
                        })
                    })
                    .collect::<Result<Vec<f64>, _>>()?,
                _ => return err("missing or non-array field \"values\""),
            };
            Ok(OwnedEvent::Series {
                span: get_u64("span")?,
                name: get_str("name")?,
                index: get_u64("index")?,
                values,
                t_us: get_u64("t_us")?,
            })
        }
        "hist" => {
            let buckets = match fields.get("buckets") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|pair| match pair {
                        Json::Arr(bc) if bc.len() == 2 => match (bc[0].as_u64(), bc[1].as_u64()) {
                            (Some(b), Some(c)) => Ok((b as usize, c)),
                            _ => err("non-integer bucket entry"),
                        },
                        _ => err("bucket entry is not a [bucket, count] pair"),
                    })
                    .collect::<Result<Vec<(usize, u64)>, _>>()?,
                _ => return err("missing or non-array field \"buckets\""),
            };
            let count = get_u64("count")?;
            let hist = Histogram::from_parts(
                &buckets,
                get_f64("sum")?,
                get_f64("min").unwrap_or(f64::INFINITY),
                get_f64("max").unwrap_or(f64::NEG_INFINITY),
            );
            if hist.count() != count {
                return err(format!(
                    "histogram count {count} disagrees with bucket total {}",
                    hist.count()
                ));
            }
            Ok(OwnedEvent::Hist {
                span: get_u64("span")?,
                name: get_str("name")?,
                hist: Box::new(hist),
                t_us: get_u64("t_us")?,
            })
        }
        other => err(format!("unknown event kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every event kind survives a write → parse round trip.
    #[test]
    fn round_trips_every_kind() {
        let mut h = Histogram::new();
        for v in [1.0, 3.0, 1000.0, 0.2] {
            h.record(v);
        }
        let events = [
            OwnedEvent::SpanStart {
                id: 3,
                parent: 1,
                trace: 0,
                name: "step1".into(),
                t_us: 10,
            },
            OwnedEvent::SpanEnd {
                id: 3,
                parent: 1,
                trace: 0,
                name: "step1".into(),
                t_us: 99,
                dur_us: 89,
            },
            OwnedEvent::SpanStart {
                id: 4,
                parent: 3,
                trace: u64::MAX,
                name: "cluster.forward".into(),
                t_us: 11,
            },
            OwnedEvent::SpanEnd {
                id: 4,
                parent: 3,
                trace: u64::MAX,
                name: "cluster.forward".into(),
                t_us: 12,
                dur_us: 1,
            },
            OwnedEvent::Count {
                span: 3,
                name: "step1.mergers".into(),
                n: 42,
                t_us: 50,
            },
            OwnedEvent::Gauge {
                span: 0,
                name: "step1.q".into(),
                value: -1.25,
                t_us: 51,
            },
            OwnedEvent::Series {
                span: 0,
                name: "online.posterior".into(),
                index: 7,
                values: vec![0.25, 0.5, 0.25],
                t_us: 52,
            },
            OwnedEvent::Hist {
                span: 0,
                name: "online.predict_ns".into(),
                hist: Box::new(h),
                t_us: 53,
            },
        ];
        for ev in &events {
            let line = to_line(&ev.as_event());
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, ev, "line: {line}");
        }
    }

    #[test]
    fn escapes_names() {
        let ev = OwnedEvent::Count {
            span: 0,
            name: "we\"ird\\na\nme".into(),
            n: 1,
            t_us: 0,
        };
        let line = to_line(&ev.as_event());
        assert_eq!(parse_line(&line).unwrap(), ev);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let ev = OwnedEvent::Hist {
            span: 0,
            name: "h".into(),
            hist: Box::new(Histogram::new()),
            t_us: 0,
        };
        let back = parse_line(&to_line(&ev.as_event())).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("[1,2]").is_err());
        assert!(parse_line("{\"ev\":\"nope\"}").is_err());
        assert!(parse_line("{\"ev\":\"count\",\"name\":\"x\"}").is_err());
        assert!(parse_line(
            "{\"ev\":\"count\",\"span\":0,\"name\":\"x\",\"n\":1,\"t_us\":0} extra"
        )
        .is_err());
        // A u64 field that is not an exact integer token is rejected,
        // never saturated or rounded into another id.
        assert!(
            parse_line("{\"ev\":\"count\",\"span\":1e20,\"name\":\"x\",\"n\":1,\"t_us\":0}")
                .is_err()
        );
        assert!(parse_line(
            "{\"ev\":\"count\",\"span\":99999999999999999999,\"name\":\"x\",\"n\":1,\"t_us\":0}"
        )
        .is_err());
        assert!(parse_line(
            "{\"ev\":\"span_start\",\"id\":1,\"parent\":0,\"trace\":7.823268718516768e18,\"name\":\"s\",\"t_us\":0}"
        )
        .is_err());
    }

    #[test]
    fn untraced_spans_serialize_without_a_trace_field() {
        let ev = OwnedEvent::SpanStart {
            id: 1,
            parent: 0,
            trace: 0,
            name: "s".into(),
            t_us: 0,
        };
        let line = to_line(&ev.as_event());
        assert!(!line.contains("trace"), "{line}");
        // A pre-tracing line (no trace field) parses to trace 0.
        assert_eq!(parse_line(&line).unwrap(), ev);
    }

    /// Trace ids are FNV-1a hashes near 2⁶³ — far beyond `f64`'s exact
    /// integer range (the ulp up there is 1024). They must survive the
    /// round trip bit-for-bit: a trace id rounded to the nearest ulp
    /// would silently re-key every span of a stitched trace.
    #[test]
    fn u64_fields_beyond_f64_precision_round_trip_exactly() {
        // Not a multiple of 1024, so an f64 detour would corrupt it.
        let trace = 7_823_268_718_516_767_775_u64;
        let ev = OwnedEvent::SpanEnd {
            id: u64::MAX - 1,
            parent: (1 << 53) + 1,
            trace,
            name: "cluster.forward".into(),
            t_us: 1,
            dur_us: 1,
        };
        let line = to_line(&ev.as_event());
        assert_eq!(parse_line(&line).unwrap(), ev, "line: {line}");
    }

    #[test]
    fn tolerates_unknown_fields() {
        let line =
            "{\"ev\":\"gauge\",\"span\":0,\"name\":\"g\",\"value\":1.5,\"t_us\":9,\"future\":true}";
        assert!(matches!(
            parse_line(line).unwrap(),
            OwnedEvent::Gauge { value, .. } if value == 1.5
        ));
    }
}
