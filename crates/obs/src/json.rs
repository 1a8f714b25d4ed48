//! The workspace's one JSON codec: a value tree, a compact and a pretty
//! writer, and a parser. Everything the workspace emits — metrics,
//! traces, serve bodies and archived reports — and every file it reads
//! back goes through these.
//!
//! The writers follow `serde_json`'s layout byte for byte: two-space
//! pretty indentation, its string escapes, and finite floats in ryu's
//! shortest round-trip form, which always reads back as a float.

/// A JSON value. Scalars serve run metadata; the composite variants
/// carry parsed trace events and budget files.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite values emit `null`, which is what strict JSON
    /// requires).
    F64(f64),
    /// String (escaped on write).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; insertion-ordered (writers emit sorted keys themselves
    /// when determinism matters).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Append this value's compact JSON form to `out`.
    pub fn write(&self, out: &mut String) {
        self.write_indented(out, None);
    }

    /// Append this value's JSON form to `out`, one member per line,
    /// indented by two spaces per level.
    pub fn write_pretty(&self, out: &mut String) {
        self.write_indented(out, Some(0));
    }

    /// `indent`: `None` for compact output, else the current depth.
    fn write_indented(&self, out: &mut String, indent: Option<usize>) {
        use std::fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_f64(out, *v),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => write_seq(out, ('[', ']'), items, indent, |out, v, ind| {
                v.write_indented(out, ind)
            }),
            Value::Obj(fields) => write_seq(out, ('{', '}'), fields, indent, |out, (k, v), ind| {
                write_str(out, k);
                out.push_str(if ind.is_some() { ": " } else { ":" });
                v.write_indented(out, ind);
            }),
        }
    }

    /// Member of an object by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            Value::F64(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a signed integer, when losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            Value::F64(v) if v.fract() == 0.0 && v.abs() <= i64::MAX as f64 => Some(*v as i64),
            _ => None,
        }
    }

    /// Any numeric value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// `open`, the items separated by commas, `close`; pretty (`indent` is
/// `Some`) puts each item on its own line one level deeper, and an empty
/// sequence stays `[]` / `{}`.
fn write_seq<T>(
    out: &mut String,
    (open, close): (char, char),
    items: &[T],
    indent: Option<usize>,
    mut each: impl FnMut(&mut String, &T, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|d| d + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            newline(out, d);
        }
        each(out, item, inner);
    }
    if let (Some(d), false) = (indent, items.is_empty()) {
        newline(out, d);
    }
    out.push(close);
}

fn newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Parse one JSON document (trailing whitespace allowed).
///
/// Strict enough for round-tripping this crate's own output and for
/// user-supplied budget files: rejects trailing garbage, unterminated
/// strings/composites, and malformed numbers. Numbers parse as `U64` /
/// `I64` when integral and in range, `F64` otherwise.
pub fn parse(s: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// Why a JSON document failed to parse: message plus byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the problem was noticed.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected `[`")?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected `{`")?;
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
            self.eat(b':', "expected `:` after object key")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by this
                            // crate; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Recover the full UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = match c {
                        _ if c < 0x80 => 1,
                        _ if c >= 0xf0 => 4,
                        _ if c >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Append `v` as JSON, in ryu's layout (`serde_json`'s) over the
/// shortest round-trip digits, which `{:e}` yields: plain decimals for
/// exponents in `[-5, 16]`, `d.ddde±x` outside, and always a fractional
/// part or an exponent, so the text reads back as a float. Non-finite
/// values are written as `null`, which is what strict JSON requires.
pub fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v == 0.0 {
        out.push_str(if v.is_sign_negative() { "-0.0" } else { "0.0" });
        return;
    }
    let sci = format!("{:e}", v.abs());
    let (mantissa, exp) = sci.split_once('e').expect("`{:e}` has an exponent");
    let exp: i32 = exp.parse().expect("`{:e}` exponent is an integer");
    let digits: String = mantissa.chars().filter(|c| *c != '.').collect();
    let len = digits.len() as i32;
    let kk = exp + 1; // 10^(kk-1) <= |v| < 10^kk
    if v < 0.0 {
        out.push('-');
    }
    if len <= kk && kk <= 16 {
        out.push_str(&digits);
        out.push_str(&"0".repeat((kk - len) as usize));
        out.push_str(".0");
    } else if 0 < kk && kk <= 16 {
        out.push_str(&digits[..kk as usize]);
        out.push('.');
        out.push_str(&digits[kk as usize..]);
    } else if -5 < kk && kk <= 0 {
        out.push_str("0.");
        out.push_str(&"0".repeat((-kk) as usize));
        out.push_str(&digits);
    } else {
        out.push_str(&digits[..1]);
        if len > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        let _ = write!(out, "e{}", kk - 1);
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: Value) -> String {
        let mut s = String::new();
        v.write(&mut s);
        s
    }

    #[test]
    fn scalars() {
        assert_eq!(render(Value::Null), "null");
        assert_eq!(render(Value::Bool(true)), "true");
        assert_eq!(
            render(Value::U64(18_446_744_073_709_551_615)),
            "18446744073709551615"
        );
        assert_eq!(render(Value::I64(-5)), "-5");
        assert_eq!(render(Value::F64(1.5)), "1.5");
        assert_eq!(render(Value::F64(f64::NAN)), "null");
        assert_eq!(render(Value::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn floats_use_the_ryu_layout_and_read_back_as_floats() {
        let float = |x: f64| render(Value::F64(x));
        assert_eq!(float(1.0), "1.0");
        assert_eq!(float(0.1), "0.1");
        assert_eq!(float(-2.5), "-2.5");
        assert_eq!(float(123456.0), "123456.0");
        assert_eq!(float(1e16), "1e16");
        assert_eq!(float(1.5e16), "1.5e16");
        assert_eq!(float(1234567890123456.0), "1234567890123456.0");
        assert_eq!(float(0.001234), "0.001234");
        assert_eq!(float(0.00001), "0.00001");
        assert_eq!(float(0.000001), "1e-6");
        assert_eq!(float(1.25e-7), "1.25e-7");
        assert_eq!(float(-0.0), "-0.0");
        for x in [
            1.0,
            0.0,
            1e16,
            3.0e-7,
            0.1 + 0.2,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(parse(&float(x)).unwrap(), Value::F64(x), "{x}");
        }
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Arr(vec![Value::U64(1), Value::F64(2.0)])),
            ("e".into(), Value::Arr(vec![])),
            ("o".into(), Value::Obj(vec![])),
            ("s".into(), Value::Str("q\"\n\u{1}\u{8}".into())),
        ]);
        let mut out = String::new();
        v.write_pretty(&mut out);
        assert_eq!(
            out,
            "{\n  \"a\": [\n    1,\n    2.0\n  ],\n  \"e\": [],\n  \"o\": {},\n  \"s\": \"q\\\"\\n\\u0001\\b\"\n}"
        );
        assert_eq!(parse(&out).unwrap(), v);
        assert_eq!(
            render(v),
            "{\"a\":[1,2.0],\"e\":[],\"o\":{},\"s\":\"q\\\"\\n\\u0001\\b\"}"
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(render(Value::Str("plain".into())), "\"plain\"");
        assert_eq!(render(Value::Str("a\"b\\c".into())), "\"a\\\"b\\\\c\"");
        assert_eq!(render(Value::Str("x\ny\t".into())), "\"x\\ny\\t\"");
        assert_eq!(render(Value::Str("\u{1}".into())), "\"\\u0001\"");
        assert_eq!(render(Value::Str("ünïcode".into())), "\"ünïcode\"");
    }

    #[test]
    fn composites_render_compact() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Arr(vec![Value::U64(1), Value::Null])),
            ("b".into(), Value::Bool(false)),
        ]);
        assert_eq!(render(v), "{\"a\":[1,null],\"b\":false}");
    }

    #[test]
    fn parse_scalars_and_number_typing() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("42").unwrap(), Value::U64(42));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(parse("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse("1.5").unwrap(), Value::F64(1.5));
        assert_eq!(parse("1e3").unwrap(), Value::F64(1000.0));
        assert_eq!(
            parse("\"hi\\n\\\"there\\\"\"").unwrap().as_str(),
            Some("hi\n\"there\"")
        );
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
    }

    #[test]
    fn parse_roundtrips_own_output() {
        let v = Value::Obj(vec![
            ("n".into(), Value::U64(3)),
            ("neg".into(), Value::I64(-9)),
            ("s".into(), Value::Str("a\"b\\c\nü".into())),
            (
                "arr".into(),
                Value::Arr(vec![Value::F64(0.25), Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        assert_eq!(parse(&render(v.clone())).unwrap(), v);
    }

    #[test]
    fn accessors_navigate_nested_values() {
        let v = parse(r#"{"a": {"b": [10, -2, 0.5, "s", true]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(10));
        assert_eq!(arr[1].as_i64(), Some(-2));
        assert_eq!(arr[2].as_f64(), Some(0.5));
        assert_eq!(arr[3].as_str(), Some("s"));
        assert_eq!(arr[4].as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        // Cross-type numeric coercions stay lossless-only.
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::I64(-1).as_u64(), None);
        assert_eq!(Value::F64(1.5).as_u64(), None);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"unterminated",
            "truex",
            "1 2",
            "{\"a\":1,}",
            "nul",
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(e.offset <= bad.len());
            assert!(!e.to_string().is_empty());
        }
    }
}
