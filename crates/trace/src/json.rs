//! Minimal hand-rolled JSON: escaping for the emitters, a pretty renderer and a
//! recursive-descent parser used to validate emitted output. The workspace
//! deliberately carries no JSON dependency, so this is the one shared implementation.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Object keys are sorted (BTreeMap); duplicate keys are
/// rejected during parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string with escapes resolved.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as JSON with a two-space indent, object members in key order.
    /// A number prints as its shortest round-trip decimal, and a non-finite one, which
    /// JSON cannot express, as `null`.
    ///
    /// ```
    /// use brb_trace::{parse_json, JsonValue};
    ///
    /// let doc = JsonValue::Object([("p99_ms".to_string(), JsonValue::Number(f64::NAN))].into());
    /// assert_eq!(doc.pretty(), "{\n  \"p99_ms\": null\n}");
    /// assert_eq!(parse_json(&doc.pretty()).unwrap().get("p99_ms"), Some(&JsonValue::Null));
    /// ```
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let (open, close, members): (char, char, Vec<(Option<&String>, &JsonValue)>) = match self {
            JsonValue::Array(items) => ('[', ']', items.iter().map(|item| (None, item)).collect()),
            JsonValue::Object(map) => ('{', '}', map.iter().map(|(k, v)| (Some(k), v)).collect()),
            JsonValue::Number(n) if n.is_finite() => return out.push_str(&n.to_string()),
            JsonValue::String(s) => return out.push_str(&format!("\"{}\"", escape_json(s))),
            JsonValue::Bool(b) => return out.push_str(&b.to_string()),
            JsonValue::Null | JsonValue::Number(_) => return out.push_str("null"),
        };
        out.push(open);
        for (i, (key, value)) in members.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(key) = key {
                let _ = write!(out, "\"{}\": ", escape_json(key));
            }
            value.write_pretty(out, depth + 1);
        }
        if !members.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

/// Checks well-formedness without keeping the parsed value.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(|_| ())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are accepted but replaced; emitted
                            // traces never contain them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "invalid escape {:?} at byte {}",
                                other.map(|c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control byte {b:#x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(format!("expected digit at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(format!("expected fraction digit at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(format!("expected exponent digit at byte {}", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_parseable_nested_json() {
        let object = |fields: Vec<(&str, JsonValue)>| {
            JsonValue::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let doc = object(vec![
            ("bench", JsonValue::String("demo \"quoted\"\n".to_string())),
            ("iters", JsonValue::Number(3.0)),
            (
                "mean_ms",
                JsonValue::Number((12.3456_f64 * 1e3).round() / 1e3),
            ),
            ("p99_ms", JsonValue::Number(f64::NAN)),
            (
                "points",
                JsonValue::Array(vec![JsonValue::Bool(true), object(vec![])]),
            ),
            (
                "curve",
                object(vec![("last_bytes", JsonValue::Number(400.0))]),
            ),
            ("empty", JsonValue::Array(Vec::new())),
        ]);
        let rendered = doc.pretty();
        assert!(rendered.contains("\"iters\": 3,"), "{rendered}");
        assert!(rendered.contains("\"mean_ms\": 12.346,"), "{rendered}");
        assert!(rendered.contains("\"p99_ms\": null,"), "{rendered}");
        assert!(
            rendered.contains("\n    \"last_bytes\": 400\n  },"),
            "{rendered}"
        );
        let parsed = parse_json(&rendered).expect("round-trips");
        let JsonValue::Object(mut fields) = doc else {
            unreachable!()
        };
        fields.insert("p99_ms".to_string(), JsonValue::Null);
        assert_eq!(parsed, JsonValue::Object(fields));
        assert_eq!(
            parsed.get("bench").and_then(JsonValue::as_str),
            Some("demo \"quoted\"\n")
        );
        assert_eq!(parsed.get("iters").and_then(JsonValue::as_u64), Some(3));
    }
}
