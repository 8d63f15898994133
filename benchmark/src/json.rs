//! A small JSON value with an emitter. The workspace has no JSON dependency, so result
//! files are emitted here and read back with `brb_trace::json::parse_json`.

use brb_trace::json::escape_json;

/// A JSON value; objects keep their insertion order so result files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A number, printed with every digit `f64` needs to round-trip.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// Text that already is JSON (a result file read back), emitted as it stands.
    Raw(String),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object (panics on any other variant: a harness bug).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            other => panic!("set() on a non-object JSON value: {other:?}"),
        }
        self
    }

    /// A string value.
    pub fn str(s: &str) -> Self {
        Json::Str(s.to_string())
    }

    /// An array of numbers.
    pub fn nums(values: &[f64]) -> Self {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            // JSON has no NaN or infinity: a non-finite measurement is written as null
            // so a reader fails loudly instead of comparing against a made-up number.
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Raw(text) => out.push_str(text),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    out.push_str(&escape_json(key));
                    out.push_str("\": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_trace::json::parse_json;

    #[test]
    fn emitted_json_parses_back_with_every_digit() {
        let mut doc = Json::obj();
        doc.set("name", Json::str("a \"quoted\"\nname"))
            .set("ok", Json::Bool(true))
            .set("count", Json::Int(591_134))
            .set("value", Json::Num(1.203_456_789_012_345))
            .set("samples", Json::nums(&[0.5, 2.0]))
            .set("none", Json::Null);
        let text = doc.render();
        let parsed = parse_json(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("a \"quoted\"\nname")
        );
        assert_eq!(parsed.get("count").and_then(|v| v.as_u64()), Some(591_134));
        assert_eq!(
            parsed.get("value").and_then(|v| v.as_f64()),
            Some(1.203_456_789_012_345)
        );
        assert_eq!(
            parsed
                .get("samples")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(0.25).render(), "0.25");
    }
}
