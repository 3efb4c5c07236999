//! JSON for the hand-written exporters (the build is offline, so no
//! external JSON crate is available): the one string escaper every
//! exporter in the workspace routes its literals through, and a minimal
//! parser used to validate exported documents.
//!
//! The parser supports the full JSON grammar the exporters emit:
//! objects, arrays, strings with escapes, numbers, booleans, null. It is
//! not optimized — it is a test/validation tool, not a runtime dependency
//! of the simulator. The round-trip tests below pin the contract between
//! [`escape_json`] and [`parse`] on hostile inputs.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Escape a string for inclusion inside a JSON string literal.
///
/// Borrows when no escaping is needed (the common case for track/label
/// names), so callers pay no allocation unless the input actually contains
/// `"`, `\` or control characters.
pub fn escape_json(s: &str) -> Cow<'_, str> {
    if s.bytes().all(|b| b != b'"' && b != b'\\' && b >= 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse `src` as a single JSON document.
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser { src, b: src.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ascii");
        text.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                            if self.pos + 4 >= self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged). `pos` sits on a char boundary
                    // here, so slicing the source is O(1).
                    let c = self.src[self.pos..].chars().next().expect("non-empty");
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control char at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_json_borrows_when_clean() {
        assert!(matches!(escape_json("loc0/core1"), Cow::Borrowed(_)));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn multibyte_passes_through_unescaped() {
        assert_eq!(escape_json("héllo → 🌍"), "héllo → 🌍");
        // Mixed hostile + multibyte still only escapes what JSON requires.
        assert_eq!(escape_json("🌍\"\t"), "🌍\\\"\\t");
    }

    #[test]
    fn every_control_char_is_escaped() {
        for b in 0u32..0x20 {
            let s = char::from_u32(b).unwrap().to_string();
            let escaped = escape_json(&s);
            assert!(escaped.starts_with('\\'), "control {b:#x} not escaped: {escaped:?}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(vec![]));
    }

    /// `parse(escape_json(s))` must reproduce `s` exactly for any input —
    /// the workspace-wide contract between the shared escaper and this
    /// parser.
    fn round_trips(s: &str) -> bool {
        parse(&format!("\"{}\"", escape_json(s))).map(|v| v.as_str() == Some(s)).unwrap_or(false)
    }

    #[test]
    fn escape_round_trips_hostile_inputs() {
        for s in [
            "",
            "plain",
            "quote\" backslash\\ slash/",
            "newline\n carriage\r tab\t",
            "\u{0}\u{1}\u{1f}",                  // raw control chars
            "\\u0041 not an escape",             // escape-looking literal
            "{\"nested\":[\"json\"]}",           // json-in-a-string
            "多字节 🌍 ütf-8",                   // multibyte
            "mixed \"\\\n\u{7}🌍\u{1b}[31mansi", // everything at once
        ] {
            assert!(round_trips(s), "failed round trip: {s:?}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary BMP strings (multibyte and unassigned points
            /// included) survive the escape → parse round trip
            /// byte-identically.
            #[test]
            fn escape_parse_round_trip(
                points in proptest::collection::vec(any::<u16>(), 0..64)
            ) {
                let s: String = points
                    .iter()
                    .map(|&p| char::from_u32(p as u32).unwrap_or('\u{fffd}'))
                    .collect();
                prop_assert!(round_trips(&s), "failed round trip: {}", s.escape_debug());
            }

            /// Arbitrary ASCII strings with forced control chars.
            #[test]
            fn escape_parse_round_trip_controls(
                bytes in proptest::collection::vec(any::<u8>(), 0..64)
            ) {
                let s: String =
                    bytes.iter().map(|&b| char::from_u32(b as u32 % 0x80).unwrap()).collect();
                prop_assert!(round_trips(&s), "failed round trip: {}", s.escape_debug());
            }
        }
    }
}
