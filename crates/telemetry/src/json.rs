//! The workspace's one JSON codec.
//!
//! Every JSON artifact — trace journals, experiment tables, margin
//! maps, `avfs-analyze --format json` reports — is written with
//! [`escape_into`] plus fixed-order templates (`format!`, or direct
//! pushes for the trace journal), and read back with [`parse`]. The shapes are all fixed, so a small value tree is
//! enough: numbers keep their raw text so `i64` and `u64` fields
//! round-trip exactly. Nesting is bounded by [`MAX_DEPTH`], so hostile
//! input is rejected with a [`JsonError`] rather than exhausting the
//! stack.

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts. The workspace's own
/// artifacts nest at most five levels (a table cell); the bound exists so
/// that malformed input cannot overflow the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text for lossless conversion.
    Num(String),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Exact integer value, if this is an integral number in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Exact integer value, if this is an integral number in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Floating-point value; `null` reads as NaN (the writer emits
    /// `null` for non-finite floats, which JSON cannot represent).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset where it went wrong.
    pub offset: usize,
}

impl JsonError {
    fn new(msg: impl Into<String>, offset: usize) -> JsonError {
        JsonError {
            msg: msg.into(),
            offset,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed construct.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        s: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.s.len() {
        return Err(JsonError::new("trailing characters after value", p.pos));
    }
    Ok(value)
}

/// Appends `s` to `out` as a quoted JSON string with escapes. A string
/// with no byte to escape — every name and label the workspace records —
/// is pushed whole.
pub fn escape_into(out: &mut String, s: &str) {
    if s.bytes().any(needs_escape) {
        escape_chars_into(out, s);
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// True for the bytes [`escape_chars_into`] rewrites. Multi-byte UTF-8
/// sequences are all `>= 0x80`, so a byte test decides per char.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The char-by-char escaper behind [`escape_into`].
fn escape_chars_into(out: &mut String, s: &str) {
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

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.s.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(
                format!("expected '{}'", char::from(b)),
                self.pos,
            ))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.s[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{kw}'"), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::new("unexpected character", self.pos)),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }
    }

    /// Runs `body` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError::new(
                format!("nesting deeper than {MAX_DEPTH} levels"),
                self.pos,
            ));
        }
        self.depth += 1;
        let result = body(self);
        self.depth -= 1;
        result
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(JsonError::new("expected ',' or '}'", self.pos)),
            }
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
                _ => return Err(JsonError::new("expected ',' or ']'", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(JsonError::new("invalid escape", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::new("control character in string", self.pos));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.s.len() && (self.s[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.s[start..self.pos])
                        .map_err(|_| JsonError::new("invalid UTF-8", start))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.s.len() {
            return Err(JsonError::new("truncated \\u escape", self.pos));
        }
        let hex = std::str::from_utf8(&self.s[self.pos..end])
            .map_err(|_| JsonError::new("invalid \\u escape", self.pos))?;
        let v = u16::from_str_radix(hex, 16)
            .map_err(|_| JsonError::new("invalid \\u escape", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let at = self.pos;
        let first = self.hex4()?;
        if (0xd800..0xdc00).contains(&first) {
            // High surrogate: must be followed by \uDC00–\uDFFF.
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(JsonError::new("unpaired surrogate", at));
            }
            let code = 0x10000 + ((u32::from(first) - 0xd800) << 10) + (u32::from(second) - 0xdc00);
            char::from_u32(code).ok_or_else(|| JsonError::new("invalid surrogate pair", at))
        } else {
            char::from_u32(u32::from(first)).ok_or_else(|| JsonError::new("unpaired surrogate", at))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            saw_digit = true;
            self.pos += 1;
        }
        if !saw_digit {
            return Err(JsonError::new("expected digit", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::new("expected exponent digit", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.s[start..self.pos])
            .map_err(|_| JsonError::new("invalid number", start))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, TraceKind, Value};
    use avfs_sim::time::SimTime;
    use proptest::prelude::*;

    /// A line from a traced `exp table3` journal.
    const JOURNAL_LINE: &str = r#"{"seq":1,"t_ns":0,"kind":"replan","actions":5,"recovery":"optimized","droop_guard":false}"#;

    /// JSON punctuation and keywords, so random input reaches the
    /// parser's deeper states rather than failing on its first byte.
    const TOKENS: [&str; 18] = [
        "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "0", "-", ".", "e", "true",
        "null", " ", "\n",
    ];

    /// Maps a draw onto a char, biased towards what escaping must get
    /// right: control characters, quotes and backslashes, printable
    /// ASCII and scalars outside the Basic Multilingual Plane.
    fn pick_char((class, raw): (u8, u32)) -> char {
        let code = match class {
            0 => raw % 0x20,
            1 => [0x22, 0x5c, 0x7f, 0x2028][raw as usize % 4],
            2 => 0x20 + raw % 0x60,
            3 => 0x1_0000 + raw % 0x10_0000,
            _ => raw % 0x11_0000,
        };
        char::from_u32(code).unwrap_or('\u{fffd}')
    }

    fn pick_token((class, raw): (u8, u32)) -> String {
        if class < 3 {
            TOKENS[raw as usize % TOKENS.len()].to_string()
        } else {
            pick_char((class, raw)).to_string()
        }
    }

    proptest! {
        #[test]
        fn escape_then_parse_is_identity(draws in collection::vec((0u8..5, any::<u32>()), 0..48)) {
            let s: String = draws.into_iter().map(pick_char).collect();
            let mut quoted = String::new();
            escape_into(&mut quoted, &s);
            prop_assert_eq!(parse(&quoted), Ok(Json::Str(s)));
        }

        #[test]
        fn escape_fast_path_equals_the_char_escaper(draws in collection::vec((0u8..5, any::<u32>()), 0..48)) {
            let s: String = draws.into_iter().map(pick_char).collect();
            let (mut fast, mut slow) = (String::new(), String::new());
            escape_into(&mut fast, &s);
            escape_chars_into(&mut slow, &s);
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn arbitrary_input_never_panics(draws in collection::vec((0u8..6, any::<u32>()), 0..64)) {
            let input: String = draws.into_iter().map(pick_token).collect();
            let _ = parse(&input);
        }

        #[test]
        fn truncated_journal_lines_are_errors(
            draws in collection::vec((0u8..5, any::<u32>()), 0..24),
            seq in any::<u64>(),
            t_ns in any::<u64>(),
        ) {
            let event = TraceEvent {
                seq,
                at: SimTime::from_nanos(t_ns),
                kind: TraceKind::MailboxFault,
                fields: vec![
                    ("error", Value::Text(draws.into_iter().map(pick_char).collect())),
                    ("power_w", Value::F64(t_ns as f64 / 7.0)),
                    ("retry", Value::Bool(seq.is_multiple_of(2))),
                ],
            };
            for line in [event.to_json_line().as_str(), JOURNAL_LINE] {
                prop_assert!(parse(line).is_ok(), "rejected {line}");
                for (cut, _) in line.char_indices() {
                    prop_assert!(parse(&line[..cut]).is_err(), "accepted prefix {:?}", &line[..cut]);
                }
            }
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = parse(&over).expect_err("too deep");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
        assert!(parse(&"[".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a": [1, -2.5, "x", true, null], "b": {"c": 1e3}}"#).unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a[0].as_i64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_str(), Some("x"));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn escapes_roundtrip() {
        let mut quoted = String::new();
        escape_into(&mut quoted, "line\n\"q\" \\ tab\t\u{1}");
        let back = parse(&quoted).unwrap();
        assert_eq!(back.as_str(), Some("line\n\"q\" \\ tab\t\u{1}"));
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{01}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn unicode_escapes_decode() {
        // \u escapes (BMP and a surrogate pair), then raw multibyte UTF-8.
        assert_eq!(parse("\"\\u00e9\"").unwrap().as_str(), Some("é"));
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
        assert!(parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn large_integers_are_exact() {
        let v = parse("9223372036854775807").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MAX));
        let v = parse("-9223372036854775808").unwrap();
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "01x", "\"abc", "1 2", "{'a':1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
