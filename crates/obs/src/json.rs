//! Minimal JSON parser + canonical writer (the workspace carries no
//! serde). Used by the trace schema checker, golden-trace normalization,
//! and metrics round-trip tests. Objects are `BTreeMap`s, so re-rendering
//! is canonical: key-sorted, compact, deterministic.

use crate::event::{write_json_f64, write_json_str};
use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64 is exact for the u64 ranges traces use in
    /// practice; counters stay below 2^53).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with sorted keys.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member access for objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Mutable member access for objects.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Obj(m) => m.get_mut(key),
            _ => None,
        }
    }
}

impl std::fmt::Display for Value {
    /// Canonical compact rendering (sorted object keys).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        write_value(&mut s, self);
        f.write_str(&s)
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => write_json_f64(out, *x),
        Value::Str(s) => write_json_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_str(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input or trailing
/// garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
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
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece. Both are
            // ASCII, so the run ends on a char boundary of the input.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let letter = self.bytes.get(self.pos + 1).copied();
            self.pos += 2;
            out.push(match letter {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.unicode_escape()?,
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }

    /// Decodes the four hex digits after a `\u`, joining a UTF-16
    /// surrogate pair written as two escapes into one scalar. A lone
    /// surrogate becomes U+FFFD.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        if (0xd800..0xdc00).contains(&code) && self.bytes[self.pos..].starts_with(b"\\u") {
            let high_end = self.pos;
            self.pos += 2;
            let low = self.hex4()?;
            if (0xdc00..0xe000).contains(&low) {
                let scalar = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                return Ok(char::from_u32(scalar).expect("surrogate pair is a scalar"));
            }
            // Not a low surrogate: leave that escape for the next round.
            self.pos = high_end;
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Exactly four hex digits (no sign, unlike `u32::from_str_radix`).
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let mut code = 0;
        for &d in digits {
            let nibble = char::from(d).to_digit(16).ok_or("bad \\u escape")?;
            code = code << 4 | nibble;
        }
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_trace_lines() {
        let line = r#"{"kind":"dip","name":"sat","ts":42,"iter":3,"ok":true,"x":null}"#;
        let v = parse(line).expect("parses");
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("dip"));
        assert_eq!(v.get("ts").and_then(Value::as_num), Some(42.0));
        let rendered = v.to_string();
        assert_eq!(parse(&rendered).expect("reparses"), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let v = parse(r#"{"s":"aA\n","arr":[1,-2.5e1,{}]}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Value::as_str), Some("aA\n"));
        match v.get("arr") {
            Some(Value::Arr(items)) => {
                assert_eq!(items[0], Value::Num(1.0));
                assert_eq!(items[1], Value::Num(-25.0));
            }
            other => panic!("bad arr: {other:?}"),
        }
    }

    #[test]
    fn joins_surrogate_pairs_and_replaces_lone_ones() {
        let decode = |text: &str| parse(text).expect("parses");
        let string = |s: &str| Value::Str(s.to_string());
        assert_eq!(decode(r#""\ud83d\ude00""#), string("\u{1f600}"));
        assert_eq!(decode(r#""a\uD834\uDD1Eb""#), string("a\u{1d11e}b"));
        assert_eq!(decode(r#""\ud83d""#), string("\u{fffd}"));
        assert_eq!(decode(r#""\ude00x""#), string("\u{fffd}x"));
        // A high surrogate followed by a non-surrogate escape keeps both.
        assert_eq!(decode(r#""\ud83d\u0041""#), string("\u{fffd}A"));
        assert_eq!(
            decode(r#""\ud83d\ud83d\ude00""#),
            string("\u{fffd}\u{1f600}")
        );
    }

    #[test]
    fn unicode_escapes_need_exactly_four_hex_digits() {
        assert!(parse(r#""\u+041""#).is_err());
        assert!(parse(r#""\u004""#).is_err());
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""\ud83d\u+e00""#).is_err());
        assert!(parse("\"\\").is_err());
        assert!(parse("\"abc").is_err());
        assert_eq!(
            parse(r#""\u00e9""#).unwrap(),
            Value::Str("\u{e9}".to_string())
        );
    }

    /// One random piece of string content: the JSON text that spells it
    /// and the text it decodes to.
    fn piece(rng: &mut u64) -> (String, String) {
        let mut next = |n: u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        };
        let escapes = [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\u0001", "\u{1}"),
            ("\\u00E9", "\u{e9}"),
            ("\\u20ac", "\u{20ac}"),
        ];
        match next(6) {
            0 => {
                let run: String = (0..next(200))
                    .map(|_| char::from(b' ' + next(95) as u8))
                    .filter(|&c| c != '"' && c != '\\')
                    .collect();
                (run.clone(), run)
            }
            1 => {
                let (text, decoded) = escapes[next(escapes.len() as u64) as usize];
                (text.to_string(), decoded.to_string())
            }
            2 => {
                let c = char::from_u32(0x80 + next(0x780) as u32).expect("2-byte scalar");
                (c.to_string(), c.to_string())
            }
            3 => {
                let c = char::from_u32(0x800 + next(0xd000) as u32).expect("3-byte scalar");
                (c.to_string(), c.to_string())
            }
            4 => {
                let c = char::from_u32(0x10000 + next(0x100000) as u32).expect("4-byte scalar");
                (c.to_string(), c.to_string())
            }
            _ => {
                let c = char::from_u32(0x10000 + next(0x100000) as u32).expect("4-byte scalar");
                let mut units = [0u16; 2];
                c.encode_utf16(&mut units);
                (
                    format!("\\u{:04x}\\u{:04X}", units[0], units[1]),
                    c.to_string(),
                )
            }
        }
    }

    #[test]
    fn strings_round_trip_up_to_64k() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..48u32 {
            // Lengths spread geometrically from empty to ~64K bytes.
            let target = if case == 0 { 0 } else { 1usize << (case % 17) };
            let (mut text, mut decoded) = (String::from("\""), String::new());
            while text.len() < target {
                let (t, d) = piece(&mut rng);
                text.push_str(&t);
                decoded.push_str(&d);
            }
            text.push('"');
            assert_eq!(parse(&text), Ok(Value::Str(decoded.clone())), "case {case}");
            let rendered = Value::Str(decoded.clone()).to_string();
            assert_eq!(parse(&rendered), Ok(Value::Str(decoded)), "case {case}");
        }
    }
}
