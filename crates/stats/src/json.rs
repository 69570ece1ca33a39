//! A minimal JSON value type with a pretty printer and a recursive-descent
//! parser — just enough for the toolkit's table/figure export format, with
//! no external dependencies. Encoding of [`crate::Cell`] mirrors the
//! externally-tagged form (`{"UInt": 5}`) so existing dump consumers keep
//! working.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (rendered without decimal point).
    UInt(u64),
    /// Signed integer (rendered without decimal point).
    Int(i64),
    /// Floating point. `NaN`/infinite values render as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: ordered key/value pairs (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for building an object.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Borrow as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Read as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Convert to `f64` if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Convert to `u64` if an unsigned integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Convert to `i64` if an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::UInt(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Render with two-space indentation and a trailing newline-free body,
    /// matching conventional pretty-printed JSON.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Render on a single line with no whitespace — the newline-delimited
    /// JSON form the `gcl serve` protocol speaks.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            // Scalars render identically in both forms.
            other => other.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // Keep integral floats distinguishable from ints on re-parse.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        out.push_str(&format!("{v:.1}"));
                    } else {
                        out.push_str(&format!("{v}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Accepts exactly one top-level value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after top-level value"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_pretty())
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Write `s` as a JSON string literal. Every escaped character is ASCII, so
/// the text between two of them is pushed whole: a string that needs no
/// escaping is one `push_str`.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Error from [`Json::parse`]: a message plus the byte offset it refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go. Both
            // are ASCII, so the run is whole UTF-8 and `pos` stays on a char
            // boundary.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
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
                    if self.pos + 4 > self.bytes.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                        .map_err(|_| self.err("non-ascii \\u escape"))?;
                    // Digits only: `from_str_radix` would also read "+041".
                    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(self.err("invalid \\u escape"));
                    }
                    let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                    self.pos += 4;
                    // Surrogate pairs are not needed by our exports;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            message: format!("bad number `{text}`"),
            offset: start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::UInt(18_446_744_073_709_551_615),
            Json::Int(-42),
            Json::Float(0.125),
            Json::Str("hi \"there\"\nline".to_string()),
        ] {
            let text = v.render_pretty();
            assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn compact_render_is_single_line_and_reparses() {
        let v = Json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("n", Json::UInt(3)),
            ("list", Json::Arr(vec![Json::Bool(false), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let line = v.render_compact();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(
            line,
            r#"{"op":"submit","n":3,"list":[false,null],"empty":{}}"#
        );
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn round_trips_nested() {
        let v = Json::obj(vec![
            ("title", Json::Str("t".into())),
            (
                "rows",
                Json::Arr(vec![Json::Arr(vec![
                    Json::obj(vec![("UInt", Json::UInt(5))]),
                    Json::obj(vec![("Float", Json::Float(2.5))]),
                ])]),
            ),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , 2.5 , \"héllo\" ] } ").unwrap();
        assert_eq!(
            v,
            Json::obj(vec![(
                "k",
                Json::Arr(vec![
                    Json::UInt(1),
                    Json::Float(2.5),
                    Json::Str("héllo".into())
                ])
            )])
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let e = Json::parse("nul").unwrap_err();
        assert!(e.to_string().contains("null"));
    }

    #[test]
    fn strings_round_trip_through_every_escape_and_plain_run() {
        // What the writer escapes, and how.
        let escaped = [
            ("\"", r#""\"""#),
            ("\\", r#""\\""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\u{0}", r#""\u0000""#),
            ("\u{8}", r#""\u0008""#),
            ("\u{c}", r#""\u000c""#),
            ("\u{1f}", r#""\u001f""#),
            ("/\u{7f}", "\"/\u{7f}\""),
            (
                "h\u{e9}llo \u{20ac} \u{1d11e}",
                "\"h\u{e9}llo \u{20ac} \u{1d11e}\"",
            ),
        ];
        for (text, rendered) in escaped {
            let v = Json::Str(text.to_string());
            assert_eq!(v.render_compact(), rendered);
            assert_eq!(v.render_pretty(), rendered);
            assert_eq!(Json::parse(rendered).unwrap(), v, "{rendered}");
        }
        // Every control byte, escapes between plain runs, multi-byte UTF-8
        // at run boundaries, and a 64 KiB plain run.
        let mut mixed: String = (0u8..0x20).map(char::from).collect();
        mixed.push_str("plain\"quoted\"\\back\u{e9}\u{20ac}\u{1d11e}tail");
        mixed.push_str(&"0123456789abcdef".repeat(4096));
        mixed.push('\u{e9}');
        let v = Json::Str(mixed);
        assert_eq!(Json::parse(&v.render_compact()).unwrap(), v);

        // Escapes only the parser reads.
        let read = |text: &str| Json::parse(text).unwrap();
        assert_eq!(read(r#""a\/b""#), Json::Str("a/b".into()));
        assert_eq!(read(r#""\b\f""#), Json::Str("\u{8}\u{c}".into()));
        assert_eq!(
            read(r#""\u0041\u00e9\u20AC""#),
            Json::Str("A\u{e9}\u{20ac}".into())
        );
        // A lone surrogate becomes the replacement character.
        assert_eq!(read(r#""x\ud800y""#), Json::Str("x\u{fffd}y".into()));
        // Raw control bytes inside a string are accepted as they are.
        assert_eq!(read("\"a\u{1}\tb\nc\""), Json::Str("a\u{1}\tb\nc".into()));

        let err = |text: &str| {
            let e = Json::parse(text).unwrap_err();
            (e.message, e.offset)
        };
        assert_eq!(err("\"abc"), ("unterminated string".to_string(), 4));
        assert_eq!(err("\"ab\\"), ("unterminated escape".to_string(), 4));
        assert_eq!(err(r#""a\qb""#), ("unknown escape".to_string(), 4));
        assert_eq!(err(r#""\u12""#), ("truncated \\u escape".to_string(), 3));
        assert_eq!(err(r#""\u12zz""#), ("invalid \\u escape".to_string(), 3));
        assert_eq!(err(r#""\u+041""#), ("invalid \\u escape".to_string(), 3));
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(Json::Float(f64::NAN).render_pretty(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render_pretty(), "null");
    }
}
