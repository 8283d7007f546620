//! A minimal JSON value type with a parser and a compact serializer.
//!
//! The workspace's `serde` dependency is an offline derive-only shim (see
//! `shims/serde`), so the wire format of `ajd-server` is implemented
//! directly: [`Json`] is the value tree, [`Json::parse`] is a recursive
//! descent parser over the full JSON grammar, and the [`std::fmt::Display`]
//! impl renders the compact single-line form the protocol requires
//! (no interior newlines, so one value is always one frame).
//!
//! Two deliberate deviations from a general-purpose JSON library, both
//! specified in `docs/PROTOCOL.md`:
//!
//! * **Object key order is preserved** (insertion order), so serialised
//!   frames are deterministic and the spec's examples can be compared
//!   byte-for-byte in tests.  Duplicate keys are rejected at parse time.
//! * **Numbers are `f64`**.  Integral values within `±2^53` are printed
//!   without a fractional part; `u128`-valued protocol fields (join sizes)
//!   are therefore transported as decimal *strings* by the protocol layer,
//!   never as numbers.  Non-finite values serialise as `null` (the parser
//!   never produces them).
//!
//! The parser is hardened for untrusted network input: nesting depth is
//! capped at [`MAX_DEPTH`] so a deeply nested frame cannot overflow the
//! stack.

use std::fmt;

/// Maximum nesting depth [`Json::parse`] accepts before reporting an
/// error — network input must not be able to recurse the parser off the
/// stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Objects preserve insertion order (see the module docs); numbers are
/// `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input at which parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid json at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a number
    /// that is integral and exactly representable (`0 ≤ n ≤ 2^53`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && *n <= 9_007_199_254_740_992.0 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses one JSON value from `input` (surrounding whitespace allowed,
    /// trailing non-whitespace rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(input);
        let value = p.value(0)?;
        p.end()?;
        Ok(value)
    }

    /// Parses `input` exactly as [`Json::parse`] does, except that when the
    /// value is an object, the value under its key `key` is first offered
    /// to `take`.  If `take` decodes it (`Some`), the key is left out of the
    /// returned object and the decoded value comes back beside it.  If not,
    /// the value is parsed again from its start as a [`Json`] tree.  So the
    /// accepted inputs, the errors and their offsets are those of
    /// [`Json::parse`], provided `take` accepts only what the tree path
    /// accepts and stops where it stops.
    pub(crate) fn parse_taking<T>(
        input: &str,
        key: &str,
        mut take: impl FnMut(&mut Parser<'_>) -> Option<T>,
    ) -> Result<(Json, Option<T>), JsonError> {
        let mut p = Parser::new(input);
        let mut taken = None;
        let mut value = if p.peek() == Some(b'{') {
            // `value(0)` on an object, with the member hook.
            p.object_with(|p, k| {
                if k == key {
                    let start = p.pos;
                    if let Some(t) = take(p) {
                        taken = Some(t);
                        // A placeholder, so a repeated key is still a duplicate.
                        return Ok(Json::Null);
                    }
                    p.pos = start;
                }
                p.value(1)
            })?
        } else {
            p.value(0)?
        };
        p.end()?;
        if let (Some(_), Json::Obj(pairs)) = (&taken, &mut value) {
            pairs.retain(|(k, _)| k != key);
        }
        Ok((value, taken))
    }
}

/// Compact (single-line) serialisation; the inverse of [`Json::parse`] for
/// every value the protocol produces.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // The protocol never produces non-finite measures; `null` is the
        // defensive rendering if one ever slips through.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        write!(f, "{}", n as i64)
    } else {
        // `{}` on f64 is the shortest representation that round-trips.
        write!(f, "{n}")
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// The recursive-descent parser behind [`Json::parse`].  Crate-visible so
/// a payload decoder can read a value straight from the line with the
/// same string and whitespace routines (see [`Json::parse_taking`]).
pub(crate) struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-whitespace byte of `input`.
    fn new(input: &'a str) -> Self {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p
    }

    /// Accepts only trailing whitespace after the value.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing characters after the value"));
        }
        Ok(())
    }

    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is the next byte.
    pub(crate) fn eat(&mut self, b: u8) -> bool {
        let next = self.peek() == Some(b);
        if next {
            self.pos += 1;
        }
        next
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(format!("unexpected character '{}'", b as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.object_with(|p, _| p.value(depth + 1))
    }

    /// An object whose member values `field` parses, given the member key.
    fn object_with(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.error(format!("duplicate object key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = field(self, &key)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.string_into(&mut out)?;
        Ok(out)
    }

    /// Parses a string and appends its decoded text to `out`.
    pub(crate) fn string_into(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free UTF-8 run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so byte runs between ASCII delimiters
                // are valid UTF-8 — but a wire parser still reports rather
                // than panics if that reasoning ever breaks.
                let run = self
                    .bytes
                    .get(start..self.pos)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or_else(|| self.error("malformed UTF-8 inside string"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(out)?;
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.error("unterminated escape sequence"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must be followed by \uXXXX low half.
                    if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(cp).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.error("lone low surrogate"));
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid \\u escape"))?
                };
                out.push(c);
            }
            _ => return Err(self.error(format!("invalid escape '\\{}'", b as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.error("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("number has no digits"));
        }
        // JSON forbids leading zeros like 007.
        if self.pos - digits_start > 1 && self.bytes.get(digits_start) == Some(&b'0') {
            return Err(self.error("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("number has no digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("number has no digits in exponent"));
            }
        }
        // The scanned span is ASCII digits/sign/dot/exponent by
        // construction; report instead of panicking all the same.
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.error("malformed bytes inside number"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| self.error(format!("unparseable number '{text}'")))?;
        if !n.is_finite() {
            return Err(self.error(format!("number '{text}' overflows an f64")));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> Json {
        let v = Json::parse(text).unwrap();
        let rendered = v.to_string();
        let again = Json::parse(&rendered).unwrap();
        assert_eq!(v, again, "serialise/parse must round-trip for {text}");
        v
    }

    #[test]
    fn scalars_parse_and_roundtrip() {
        assert_eq!(roundtrip("null"), Json::Null);
        assert_eq!(roundtrip("true"), Json::Bool(true));
        assert_eq!(roundtrip("false"), Json::Bool(false));
        assert_eq!(roundtrip("0"), Json::Num(0.0));
        assert_eq!(roundtrip("-12"), Json::Num(-12.0));
        assert_eq!(roundtrip("3.5"), Json::Num(3.5));
        assert_eq!(roundtrip("1e3"), Json::Num(1000.0));
        assert_eq!(roundtrip("2.5e-1"), Json::Num(0.25));
        assert_eq!(roundtrip("\"hi\""), Json::str("hi"));
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn containers_preserve_order() {
        let v = roundtrip(r#"{"b":1,"a":[2,{"z":null}],"c":true}"#);
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["b", "a", "c"]);
        assert_eq!(v.to_string(), r#"{"b":1,"a":[2,{"z":null}],"c":true}"#);
        assert_eq!(roundtrip("[]"), Json::Arr(vec![]));
        assert_eq!(roundtrip("{}"), Json::Obj(vec![]));
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"s":"x","n":4,"b":false,"a":[1],"o":{}}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(4.0));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(v.get("o").unwrap().as_obj().unwrap().is_empty());
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn string_escapes() {
        let v = roundtrip(r#""a\"b\\c\/d\n\t\r\b\f e""#);
        assert_eq!(v.as_str(), Some("a\"b\\c/d\n\t\r\u{8}\u{c} e"));
        let v = roundtrip(r#""\u0041\u00e9\u05d0""#);
        assert_eq!(v.as_str(), Some("Aéא"));
        // Surrogate pair: U+1F600.
        let v = roundtrip(r#""\ud83d\ude00""#);
        assert_eq!(v.as_str(), Some("😀"));
        // Control characters are re-escaped on output.
        assert_eq!(Json::str("\u{01}").to_string(), r#""\u0001""#);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "nul",
            "tru",
            "{",
            "[",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u12g4\"",
            "\"\\ud800\"",
            "\"\\udc00x\"",
            "01",
            "1.",
            "1e",
            "--1",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "1e999",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_limit_protects_the_stack() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let deep_bad = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep_bad).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
    }
}
