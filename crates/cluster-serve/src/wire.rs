//! The router↔worker wire format: request batches and responses as
//! JSONL, snapshots as hex — human-readable with `curl`, parseable
//! without a JSON dependency, and bit-exact where it matters.
//!
//! One request per line, `op` discriminated — mirroring
//! `hom-serve`'s [`Request`] variants one-to-one:
//!
//! ```text
//! {"op":"predict","stream":7,"x":[1,0.5]}
//! {"op":"observe","stream":7,"x":[1,0.5],"y":1}
//! {"op":"step","stream":9,"x":[0,0.25],"y":0}
//! {"op":"advance","stream":9,"k":3}
//! ```
//!
//! and one response per line, in request order:
//!
//! ```text
//! {"stream":7,"prediction":1}
//! {"stream":9,"prediction":null}
//! ```
//!
//! Attribute values render with the shortest round-trip decimal
//! ([`hom_obs::jsonl::push_f64`]), so a finite `f64` parses back
//! **bit-identically** on the worker — the cluster differential bar
//! depends on it. Non-finite attributes are unrepresentable here by
//! design: the schema's row validation already rejects them at the
//! engine boundary, and this codec rejects them at encode time rather
//! than silently shipping `null`.
//!
//! Decoding is total: malformed lines are a typed [`WireError`] naming
//! the line, never a panic — a router must survive any bytes a confused
//! client POSTs at it. Lines are read with
//! [`hom_obs::jsonl::parse_object`], whose integers stay exact `u64`s.

use std::fmt;

use hom_obs::jsonl::{parse_object, push_f64};
use hom_serve::{Request, Response, StreamId};

/// Why a wire payload failed to encode or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A line (1-based) did not parse as the expected JSON shape.
    BadLine {
        /// 1-based line number within the payload.
        line: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// Encode-side: an attribute value was NaN or infinite — the JSONL
    /// wire cannot carry it (and the engine would reject it anyway).
    NonFiniteAttribute,
    /// A hex string had a non-hex digit or odd length.
    BadHex,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLine { line, what } => write!(f, "wire line {line}: {what}"),
            WireError::NonFiniteAttribute => {
                write!(f, "non-finite attribute value cannot be encoded")
            }
            WireError::BadHex => write!(f, "invalid hex string"),
        }
    }
}

impl std::error::Error for WireError {}

fn push_xs(out: &mut String, x: &[f64]) -> Result<(), WireError> {
    out.push('[');
    for (i, &v) in x.iter().enumerate() {
        if !v.is_finite() {
            return Err(WireError::NonFiniteAttribute);
        }
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v);
    }
    out.push(']');
    Ok(())
}

/// Encode a request batch as JSONL (one request per line, batch order).
pub fn encode_requests(batch: &[Request]) -> Result<String, WireError> {
    let mut out = String::with_capacity(batch.len() * 48);
    for r in batch {
        match r {
            Request::Predict { stream, x } => {
                out.push_str("{\"op\":\"predict\",\"stream\":");
                out.push_str(&stream.to_string());
                out.push_str(",\"x\":");
                push_xs(&mut out, x)?;
            }
            Request::Observe { stream, x, y } => {
                out.push_str("{\"op\":\"observe\",\"stream\":");
                out.push_str(&stream.to_string());
                out.push_str(",\"x\":");
                push_xs(&mut out, x)?;
                out.push_str(",\"y\":");
                out.push_str(&y.to_string());
            }
            Request::Step { stream, x, y } => {
                out.push_str("{\"op\":\"step\",\"stream\":");
                out.push_str(&stream.to_string());
                out.push_str(",\"x\":");
                push_xs(&mut out, x)?;
                out.push_str(",\"y\":");
                out.push_str(&y.to_string());
            }
            Request::Advance { stream, k } => {
                out.push_str("{\"op\":\"advance\",\"stream\":");
                out.push_str(&stream.to_string());
                out.push_str(",\"k\":");
                out.push_str(&k.to_string());
            }
        }
        out.push_str("}\n");
    }
    Ok(out)
}

/// Decode a JSONL request batch (the worker's `/submit` input).
pub fn decode_requests(text: &str) -> Result<Vec<Request>, WireError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what| WireError::BadLine { line: i + 1, what };
        let fields = parse_object(line).map_err(|e| err(e.what))?;
        let op = fields.str("op").map_err(err)?;
        let stream = fields.u64("stream").map_err(err)? as StreamId;
        let request = match op {
            "predict" => Request::Predict {
                stream,
                x: fields.f64_array("x").map_err(err)?,
            },
            "observe" => Request::Observe {
                stream,
                x: fields.f64_array("x").map_err(err)?,
                y: fields.u64("y").map_err(err)? as u32,
            },
            "step" => Request::Step {
                stream,
                x: fields.f64_array("x").map_err(err)?,
                y: fields.u64("y").map_err(err)? as u32,
            },
            "advance" => Request::Advance {
                stream,
                k: fields.u64("k").map_err(err)? as usize,
            },
            _ => return Err(err("unknown op")),
        };
        out.push(request);
    }
    Ok(out)
}

/// Encode responses as JSONL, one per line in batch order.
pub fn encode_responses(responses: &[Response]) -> String {
    let mut out = String::with_capacity(responses.len() * 32);
    for r in responses {
        out.push_str("{\"stream\":");
        out.push_str(&r.stream.to_string());
        out.push_str(",\"prediction\":");
        match r.prediction {
            Some(c) => out.push_str(&c.to_string()),
            None => out.push_str("null"),
        }
        out.push_str("}\n");
    }
    out
}

/// Decode a JSONL response payload (the router's `/submit` result).
pub fn decode_responses(text: &str) -> Result<Vec<Response>, WireError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what| WireError::BadLine { line: i + 1, what };
        let fields = parse_object(line).map_err(|e| err(e.what))?;
        out.push(Response {
            stream: fields.u64("stream").map_err(err)?,
            prediction: fields.opt_u64("prediction").map_err(err)?.map(|v| v as u32),
        });
    }
    Ok(out)
}

/// Snapshot bytes as lowercase hex (the migration payload — snapshots
/// are binary, JSONL lines are text).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decode [`to_hex`] output.
pub fn from_hex(text: &str) -> Result<Vec<u8>, WireError> {
    let text = text.trim();
    if !text.len().is_multiple_of(2) {
        return Err(WireError::BadHex);
    }
    let digit = |c: u8| -> Result<u8, WireError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(WireError::BadHex),
        }
    };
    let raw = text.as_bytes();
    let mut out = Vec::with_capacity(raw.len() / 2);
    for pair in raw.chunks_exact(2) {
        out.push(digit(pair[0])? << 4 | digit(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_bit_exactly() {
        let batch = vec![
            Request::Predict {
                stream: 7,
                x: vec![1.0, 0.5],
            },
            Request::Observe {
                stream: 8,
                x: vec![0.1 + 0.2, f64::MIN_POSITIVE],
                y: 1,
            },
            Request::Step {
                stream: u64::from(u32::MAX),
                x: vec![-0.0, 1e300],
                y: 0,
            },
            // u64::MAX exceeds f64's exact range — the id must survive.
            Request::Advance {
                stream: u64::MAX,
                k: 3,
            },
        ];
        let text = encode_requests(&batch).expect("finite batch encodes");
        let back = decode_requests(&text).expect("own encoding decodes");
        assert_eq!(back.len(), batch.len());
        for (a, b) in batch.iter().zip(&back) {
            match (a, b) {
                (
                    Request::Predict { stream: s1, x: x1 },
                    Request::Predict { stream: s2, x: x2 },
                ) => {
                    assert_eq!(s1, s2);
                    assert_eq!(bits(x1), bits(x2));
                }
                (
                    Request::Observe {
                        stream: s1,
                        x: x1,
                        y: y1,
                    },
                    Request::Observe {
                        stream: s2,
                        x: x2,
                        y: y2,
                    },
                )
                | (
                    Request::Step {
                        stream: s1,
                        x: x1,
                        y: y1,
                    },
                    Request::Step {
                        stream: s2,
                        x: x2,
                        y: y2,
                    },
                ) => {
                    assert_eq!((s1, y1), (s2, y2));
                    assert_eq!(bits(x1), bits(x2), "attribute bits diverged");
                }
                (
                    Request::Advance { stream: s1, k: k1 },
                    Request::Advance { stream: s2, k: k2 },
                ) => assert_eq!((s1, k1), (s2, k2)),
                other => panic!("variant mismatch: {other:?}"),
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response {
                stream: 7,
                prediction: Some(1),
            },
            Response {
                stream: 9,
                prediction: None,
            },
        ];
        let text = encode_responses(&responses);
        assert_eq!(
            text,
            "{\"stream\":7,\"prediction\":1}\n{\"stream\":9,\"prediction\":null}\n"
        );
        assert_eq!(decode_responses(&text).unwrap(), responses);
    }

    #[test]
    fn non_finite_attributes_are_rejected_at_encode() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let batch = vec![Request::Predict {
                stream: 1,
                x: vec![bad],
            }];
            assert_eq!(encode_requests(&batch), Err(WireError::NonFiniteAttribute));
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for (text, what) in [
            (
                "{\"op\":\"predict\",\"stream\":1}",
                "missing or non-array field",
            ),
            ("{\"op\":\"dance\",\"stream\":1,\"x\":[]}", "unknown op"),
            ("{\"stream\":1,\"x\":[1]}", "missing or non-string field"),
            ("not json", "unexpected character"),
            (
                "{\"op\":\"advance\",\"stream\":1,\"k\":2} trailing",
                "trailing bytes after object",
            ),
            // 20 nines overflow u64, fall back to f64 — and a rounded
            // stream id must be rejected, not silently truncated.
            (
                "{\"op\":\"advance\",\"stream\":99999999999999999999,\"k\":1}",
                "missing or non-integer field",
            ),
        ] {
            let err = decode_requests(text).expect_err(text);
            assert_eq!(err, WireError::BadLine { line: 1, what }, "{text}");
        }
        // Line numbers point at the offender.
        let two = "{\"stream\":1,\"prediction\":null}\nbroken\n";
        assert!(matches!(
            decode_responses(two),
            Err(WireError::BadLine { line: 2, .. })
        ));
    }

    #[test]
    fn u64_array_field_keeps_large_ids_exact() {
        // u64::MAX exceeds f64's exact integer range: the census parse
        // must keep it bit-exact, or the rebalancer migrates wrong ids.
        let line = format!("{{\"streams\":[0,7,{}]}}", u64::MAX);
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields.u64_array("streams").unwrap(), vec![0, 7, u64::MAX]);
        // Fractional, negative, or u64-overflowing (rounded) elements
        // are typed errors, never truncated ids.
        for bad in [
            "{\"streams\":[1.5]}",
            "{\"streams\":[-1]}",
            "{\"streams\":[99999999999999999999]}",
            "{\"streams\":7}",
        ] {
            let fields = parse_object(bad).unwrap();
            assert!(fields.u64_array("streams").is_err(), "{bad}");
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("abc").unwrap_err(), WireError::BadHex);
        assert_eq!(from_hex("zz").unwrap_err(), WireError::BadHex);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }
}
