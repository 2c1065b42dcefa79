//! Self-contained JSON reading/writing for the telemetry formats.
//!
//! The trace and metrics exports are *artifacts* — the golden-trace
//! test byte-compares them and `hoardscope`/Perfetto parse them — so
//! their encoding must be fully deterministic. This module is a
//! minimal, dependency-free JSON value model with a writer that
//! preserves insertion order and a recursive-descent parser; every
//! JSON format the workspace reads or writes goes through here.

use std::fmt::Write as _;

/// A JSON document node. Object member order is preserved (and written)
/// in insertion order — determinism is the point.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64` (the common case for
    /// counters and virtual timestamps; kept exact).
    Uint(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` otherwise).
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Exact `u64` value (`None` for non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value (`None` otherwise).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String contents (`None` otherwise).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialize compactly (no whitespace), deterministically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Uint(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description (with byte offset) for
    /// malformed input.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

/// Convenience: an object from `(key, value)` pairs.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn write_escaped(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad keyword at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if let Ok(n) = token.parse::<u64>() {
        return Ok(JsonValue::Uint(n));
    }
    token
        .parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("bad number '{token}' at byte {start}"))
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
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte safe).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().ok_or("empty char")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_document() {
        let doc = obj(vec![
            ("name", JsonValue::Str("vcpu-0 \"main\"\n".into())),
            ("n", JsonValue::Uint(u64::MAX)),
            ("pi", JsonValue::Float(3.5)),
            ("flag", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Arr(vec![JsonValue::Uint(1), JsonValue::Uint(2)]),
            ),
        ]);
        let text = doc.to_json();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.to_json(), text, "stable re-serialization");
    }

    #[test]
    fn u64_values_stay_exact() {
        let v = JsonValue::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn accessors_navigate() {
        let v = JsonValue::parse(r#"{"a":{"b":[10,"x"]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(10));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = JsonValue::parse(" { \"k\" : \"a\\u0041\\n\" , \"n\" : -2.5 } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("aA\n"));
        assert_eq!(v.get("n"), Some(&JsonValue::Float(-2.5)));
    }

    #[test]
    fn malformed_input_errors() {
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("12 34").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }
}
