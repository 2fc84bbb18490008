//! Minimal JSON encode/decode for cache files and the run journal.
//!
//! The workspace builds fully offline, so instead of `serde_json` this is a
//! small hand-rolled value type. It supports exactly what the harness needs:
//! objects with stable key order, arrays, strings, integers and `f64`s that
//! round-trip bit-exactly (rendered with `{:?}`, Rust's shortest-roundtrip
//! float formatting).

use std::fmt::Write as _;

/// A JSON value. Object keys preserve insertion order so rendered files are
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (rendered without a decimal point).
    Int(i64),
    /// Floating point. Non-finite values render as `null`.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as an ordered key/value list.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Build an object from key/value pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Value)>) -> Self {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object; `None` for missing keys or non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (accepts both `Int` and `Num`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an `i64`.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact single-line JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(x) => {
                if x.is_finite() {
                    // `{:?}` always includes a `.0` or exponent, so ints and
                    // floats stay distinguishable and round-trip exactly.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Deepest array/object nesting [`parse`] accepts. The harness writes at
/// most 5 levels; the bound keeps the recursive descent from overflowing
/// the stack on a corrupt cache entry or journal line.
const MAX_DEPTH: usize = 64;

/// Parse a JSON document. Returns `Err` with a short description on invalid
/// input (the cache treats any parse failure as a miss).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// On a char boundary of `input`: tokens are ASCII, string runs end at one.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
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

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1; // [
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
        self.pos += 1; // {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy everything up to the next `"` or `\` in one piece: both
            // are ASCII, so the run is whole scalars of `input`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                        16,
                    )
                    .map_err(|_| "bad \\u escape")?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.pos += 4;
                }
                other => return Err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number `{text}`: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_object() {
        let v = Value::obj(vec![
            ("kind", Value::Str("sweep".into())),
            ("duty", Value::Num(0.3)),
            ("n", Value::Int(64)),
            ("ok", Value::Bool(true)),
            (
                "rows",
                Value::Arr(vec![Value::Num(1.5), Value::Num(-0.25), Value::Null]),
            ),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for x in [0.1, 1.0 / 3.0, 6.891_234_567_8e-12, f64::MAX, 5e-324] {
            let text = Value::Num(x).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
        }
    }

    #[test]
    fn string_escapes() {
        let v = Value::Str("a\"b\\c\nd\u{1}é".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    impl Parser<'_> {
        /// The char-at-a-time scanner [`Parser::string`] replaced, kept as
        /// the model the run-copying one is checked against.
        fn string_model(&mut self) -> Result<String, String> {
            if self.peek() != Some(b'"') {
                return Err(format!("expected string at byte {}", self.pos));
            }
            self.pos += 1;
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
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input came from &str, so the
                        // byte stream is valid UTF-8).
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                        let c = s.chars().next().unwrap();
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    fn parser(input: &str) -> Parser<'_> {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// [`parse`] of a document that starts with a string, scanned by the
    /// model.
    fn parse_string_doc_with_model(input: &str) -> Result<Value, String> {
        let mut p = parser(input);
        let v = p.string_model().map(Value::Str)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Pieces of string bodies: escapes whole and torn, `\u` with good,
    /// short and non-hex digits, multi-byte scalars, control characters.
    const PIECES: &[&str] = &[
        "a", "Z", " ", "0", "f", "u", "+", "\"", "\\", "\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t",
        "\\b", "\\u", "\\u00e9", "\\u+0e9", "\\u12", "\\ud800", "\\uzzzz", "\\é", "é", "ß", "€",
        "中", "😀", "\u{fffd}", "\n", "\t", "\u{0}", "\u{1f}", "\u{7f}",
    ];

    /// Characters for generated keys and strings.
    const CHARS: &[char] = &[
        'a',
        'k',
        '9',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{1f}',
        '\u{7f}',
        'é',
        'ß',
        '€',
        '中',
        '😀',
        '\u{fffd}',
        '\u{10ffff}',
    ];

    fn arb_string(rng: &mut proptest::TestRng) -> String {
        let len = rng.below(12);
        (0..len)
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// A random value nested at most `depth` levels deep. Floats are
    /// finite: a non-finite `Num` renders as `null` by design.
    fn arb_value(rng: &mut proptest::TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Num(f64::from_bits(rng.next_u64())),
            4 | 5 => Value::Str(arb_string(rng)),
            6 => Value::Arr(
                (0..rng.below(5))
                    .map(|_| arb_value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..rng.below(5))
                    .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Replaces every non-finite float, which renders as `null`.
    fn finite(v: Value) -> Value {
        match v {
            Value::Num(x) if !x.is_finite() => Value::Num(0.5),
            Value::Arr(items) => Value::Arr(items.into_iter().map(finite).collect()),
            Value::Obj(pairs) => {
                Value::Obj(pairs.into_iter().map(|(k, v)| (k, finite(v))).collect())
            }
            v => v,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn string_scanner_agrees_with_the_char_at_a_time_model(
            pieces in proptest::collection::vec(proptest::sample::select(PIECES.to_vec()), 0..24),
            close in any::<bool>(),
        ) {
            let mut doc = format!("\"{}", pieces.concat());
            if close {
                doc.push('"');
            }
            let (mut fast, mut model) = (parser(&doc), parser(&doc));
            let (got, want) = (fast.string(), model.string_model());
            prop_assert_eq!(&got, &want, "{:?}", doc);
            if got.is_ok() {
                prop_assert_eq!(fast.pos, model.pos, "{:?}", doc);
            }
            prop_assert_eq!(parse(&doc), parse_string_doc_with_model(&doc), "{:?}", doc);
        }

        #[test]
        fn nested_values_roundtrip_through_render_and_parse(
            seed in any::<u64>(),
        ) {
            let v = finite(arb_value(&mut proptest::TestRng::from_state(seed), 4));
            let text = v.render();
            prop_assert_eq!(parse(&text), Ok(v), "{}", text);
        }
    }
}
