//! The crate's JSON substrate: a tiny writer for single-line objects and a
//! tiny recursive-descent parser for validating them back.
//!
//! The workspace is fully offline (no serde); events carry only scalars
//! and two flat nested objects, so a hand-rolled writer plus a ~150-line
//! parser is the whole dependency. Numbers are kept as their raw digit
//! strings on the parse side so 64-bit counters (VM ops) never round
//! through `f64`. The parser also reads client-supplied bytes (serve
//! request lines), so it bounds its recursion at `MAX_DEPTH` and decodes
//! strings in linear time.

use std::fmt::Write as _;

/// Deepest container nesting [`Value::parse`] accepts; one level deeper is
/// an error, not a stack overflow. Telemetry events and serve messages
/// nest about 3 levels.
const MAX_DEPTH: usize = 128;

/// Escape a string for a JSON string literal (quotes, backslash, control
/// characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Builder for one single-line JSON object; fields render in insertion
/// order, so emitted lines are deterministic given deterministic values.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "\"{}\":", escape(key));
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, value: &str) -> JsonObject {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> JsonObject {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Append a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> JsonObject {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Append a field whose value is already-rendered JSON (nested
    /// objects).
    pub fn raw(mut self, key: &str, rendered: &str) -> JsonObject {
        self.key(key);
        self.buf.push_str(rendered);
        self
    }

    /// Close the object and return the rendered line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> JsonObject {
        JsonObject::new()
    }
}

/// A parsed JSON value. Objects keep insertion order; numbers keep their
/// raw text (lossless for u64 counters).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The fields of an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// A non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            char::from(byte),
            pos = *pos
        ))
    }
}

/// Parse one value nested inside `depth` containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("bad number at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Sanity: must at least parse as f64 (rejects "1.2.3", "--", "1e").
    raw.parse::<f64>()
        .map_err(|_| format!("bad number {raw:?} at byte {start}"))?;
    Ok(Value::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash.
                // Both are ASCII, so the run of the `&str` input ends on a
                // char boundary, and each byte is decoded once.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_in_order() {
        let line = JsonObject::new()
            .str("event", "round_end")
            .u64("round", 2)
            .bool("cached", false)
            .raw("counters", "{\"compiles\":3}")
            .finish();
        assert_eq!(
            line,
            "{\"event\":\"round_end\",\"round\":2,\"cached\":false,\
             \"counters\":{\"compiles\":3}}"
        );
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let line = JsonObject::new().str("s", nasty).finish();
        let parsed = Value::parse(&line).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parser_handles_nesting_and_numbers() {
        let v = Value::parse(
            "{\"a\": [1, 2.5, -3], \"b\": {\"c\": true, \"d\": null}, \
             \"big\": 18446744073709551615}",
        )
        .unwrap();
        assert_eq!(v.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        match v.get("a").unwrap() {
            Value::Arr(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_damage() {
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("{\"a\":1,}").is_err());
        assert!(Value::parse("[1 2]").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("\"open").is_err());
        assert!(Value::parse("1.2.3").is_err());
        assert!(Value::parse("tru").is_err());
    }

    /// Pinned: 10,000 open brackets used to overflow a 2 MiB thread's
    /// stack. Nesting up to the limit parses; one level more is an error.
    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(Value::parse(&"[".repeat(10_000)).is_err());
        let deep_object = format!("{}1{}", "{\"a\":".repeat(50_000), "}".repeat(50_000));
        assert!(Value::parse(&deep_object).is_err());
    }

    /// Pinned: each string character used to re-validate the rest of the
    /// line as UTF-8, so decoding was quadratic (a 160,000-char string
    /// took 0.4 s, four times the length sixteen times as long). The
    /// 400,000 two-byte chars here decode in milliseconds; the quadratic
    /// decoder needed minutes.
    #[test]
    fn long_strings_decode_in_linear_time() {
        let text = "é\\n".repeat(400_000);
        let line = format!("{{\"s\":\"{text}\"}}");
        let started = std::time::Instant::now();
        let parsed = Value::parse(&line).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(
            parsed.get("s").unwrap().as_str(),
            Some("é\n".repeat(400_000).as_str())
        );
        assert!(elapsed.as_secs() < 5, "decoding took {elapsed:?}");
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(Value::parse("[]").unwrap(), Value::Arr(vec![]));
    }
}
