//! A minimal JSON value with compact and indented writers.
//!
//! The vendored `serde_json` shim only serializes derived types; the
//! benchmark's reports are free-form maps keyed by metric name, so they
//! are assembled as [`Json`] values and written here. Object keys keep
//! insertion order.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A whole number (counts, nanosecond stamps).
    Int(i64),
    /// A measured number; written with all its digits.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `{name: {"value": v, "unit": u}}`, the shape `BENCHMARK.json`'s
    /// contract gives a run's metrics.
    pub fn metrics(metrics: &[(&str, f64, &str)]) -> Json {
        Json::obj(metrics.iter().map(|&(name, value, unit)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        }))
    }

    /// One line, no spaces after separators inside nested values.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN/inf; a non-finite measurement is a bug
            // upstream, surfaced as null rather than invalid output.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => write!(out, "{n}").expect("write to String"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
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
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_values_and_escapes() {
        let v = Json::obj([
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Bool(true)])),
            ("c \"q\"", Json::str("line\nbreak")),
        ]);
        assert_eq!(v.compact(), r#"{"a": 1,"b": [1.5,null,true],"c \"q\"": "line\nbreak"}"#);
        assert!(v.pretty().contains("\n  \"b\": [\n    1.5,"));
    }
}
