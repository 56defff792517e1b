//! Minimal JSON for the batch compile server — parser and writer over
//! `std` only (the container vendors no serde).
//!
//! Objects preserve insertion order so emission is deterministic: the
//! same request always yields byte-identical response text, which the
//! serve tests rely on when comparing a threaded run against a
//! sequential one.
//!
//! Both directions work on bytes: the parser and the writer copy each
//! run of text that needs no escape with one `push_str`, and the parser
//! looks at characters only to name one in an error. Error offsets count
//! characters, not bytes.

use std::fmt::Write as _;
use std::sync::Arc;

/// A JSON value.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// One value already rendered as JSON text, written verbatim: the
    /// batch server renders each certificate once and shares the text.
    /// Lookups see it as opaque.
    Raw(Arc<str>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer
    /// that `f64` represents *exactly* (≤ 2^53). Larger values already
    /// lost precision in parsing, so accepting them would silently serve
    /// a different number than the client sent — they are rejected like
    /// any other type error.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// Serializes the value on one line.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the value's one-line text to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Raw(text) => out.push_str(text),
        }
    }
}

/// Appends `s` as a JSON string literal. Every byte that needs an escape
/// is ASCII, so the runs between them are copied whole.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..0x20 => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Builder for response objects (ordered, chainable).
#[derive(Default)]
pub struct ObjBuilder(Vec<(String, Json)>);

impl ObjBuilder {
    /// Empty object builder.
    pub fn new() -> ObjBuilder {
        ObjBuilder::default()
    }

    /// Appends a member.
    pub fn push(mut self, key: &str, value: Json) -> ObjBuilder {
        self.0.push((key.to_string(), value));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

/// Deepest accepted array/object nesting. The serve protocol needs ~2
/// levels; the bound exists so a hostile `[[[[...` request line exhausts
/// a counter, not the worker thread's stack.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        src,
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.at != src.len() {
        let offset = src[..p.at].chars().count();
        return Err(format!("trailing content at offset {offset}"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// The character at the cursor, as error texts name it.
    fn found(&self) -> Option<char> {
        self.src[self.at..].chars().next()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}`, found {:?}",
                want as char,
                self.found()
            ))
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for want in word.bytes() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.depth += 1;
        let v = self.value_inner();
        self.depth -= 1;
        v
    }

    fn value_inner(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]`, found {:?}", self.found())),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected `,` or `}}`, found {:?}", self.found())),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected {:?}", self.found())),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.at..];
            let end = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&rest[..end]);
            self.at += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let unescaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        self.at += 1;
                        let d = self
                            .peek()
                            .and_then(|b| char::from(b).to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    // Surrogate pairs are not needed by the protocol;
                    // map lone surrogates to the replacement char.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(format!("bad escape {:?}", self.found())),
            };
            self.at += 1;
            out.push(unescaped);
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.at += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.at += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            digits(self);
        }
        let text = &self.src[start..self.at];
        // Integer literals must be exactly representable in the f64
        // value model (|n| <= 2^53): beyond that, parsing would silently
        // round and the server would act on a different number than the
        // client sent.
        if !text.contains(['.', 'e', 'E']) {
            const MAX_EXACT: i128 = 1 << 53;
            match text.parse::<i128>() {
                Ok(n) if n.abs() <= MAX_EXACT => {}
                _ => {
                    return Err(format!(
                        "integer `{text}` is outside the exactly-representable range"
                    ))
                }
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let src = r#"{"id":7,"cmd":"compile","source":"input a;\noutput b = im(x,y) a(x,y) end","flags":[true,false,null],"f":1.5}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("cmd").unwrap().as_str(), Some("compile"));
        assert!(v.get("source").unwrap().as_str().unwrap().contains('\n'));
        assert_eq!(parse(&v.to_line()).unwrap(), v);
    }

    #[test]
    fn escapes_survive() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        let line = v.to_line();
        assert_eq!(parse(&line).unwrap(), v);
        assert!(!line.contains('\n'), "one physical line");
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(42.0).to_line(), "42");
        assert_eq!(Json::Num(1.25).to_line(), "1.25");
        assert_eq!(Json::Num(f64::NAN).to_line(), "null");
    }

    #[test]
    fn inexact_integers_rejected() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        // 2^53 + 1 and 2^64 are not exactly representable as f64: the
        // parser rejects them rather than silently rounding/saturating.
        assert!(parse("9007199254740993").is_err());
        assert!(parse("18446744073709551616").is_err());
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        // Non-integer syntax still parses as plain f64.
        assert!(parse("1.5e300").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,]").is_err());
    }

    /// Every malformed input answers with the text and the character
    /// offset the `Vec<char>` parser gave it, non-ASCII text included.
    #[test]
    fn error_texts_are_pinned() {
        for (src, want) in [
            (r#"{"a":1} é"#, "trailing content at offset 8"),
            (r#"{"é":tru}"#, "expected `e`, found Some('}')"),
            (r#""\q""#, "bad escape Some('q')"),
            (r#""\é""#, "bad escape Some('é')"),
            (r#""\u12""#, "bad \\u escape"),
            (r#""\u00é1""#, "bad \\u escape"),
            ("[1,]", "unexpected Some(']')"),
            ("é", "unexpected Some('é')"),
            ("[", "unexpected None"),
            (
                "-",
                "integer `-` is outside the exactly-representable range",
            ),
            (
                "--1",
                "integer `-` is outside the exactly-representable range",
            ),
            (
                "9007199254740993",
                "integer `9007199254740993` is outside the exactly-representable range",
            ),
            (
                "-9007199254740993",
                "integer `-9007199254740993` is outside the exactly-representable range",
            ),
            ("1e", "bad number `1e`: invalid float literal"),
            ("1.5.3", "trailing content at offset 3"),
            (r#""abc"#, "unterminated string"),
            (r#""é\"#, "bad escape None"),
            (r#"{"a" 1}"#, "expected `:`, found Some('1')"),
            ("[1 2]", "expected `,` or `]`, found Some('2')"),
            (r#"{"a":1 "b"}"#, "expected `,` or `}`, found Some('\"')"),
            ("{1:2}", "expected `\"`, found Some('1')"),
            (r#"{"a":1,}"#, "expected `\"`, found Some('}')"),
            ("{", "expected `\"`, found None"),
            ("tx", "expected `r`, found Some('x')"),
            ("nul", "expected `l`, found None"),
            (r#"{"é":1,"ü":[tru"#, "expected `e`, found None"),
            (
                r#"{"a":[1,{"b":"é"}],"c":"é"} x"#,
                "trailing content at offset 28",
            ),
            (r#""é" é"#, "trailing content at offset 4"),
            ("[1,2]]", "trailing content at offset 5"),
            (&"[".repeat(65), "nesting deeper than 64"),
        ] {
            assert_eq!(parse(src), Err(want.to_string()), "{src:?}");
        }
    }

    #[test]
    fn every_escape_class_round_trips() {
        let text = "quote \" backslash \\ slash / nl \n cr \r tab \t bs \u{8} ff \u{c} \
                    nul \u{0} us \u{1f} del \u{7f} é ü 漢字 🦀";
        let line = Json::Str(text.into()).to_line();
        assert_eq!(
            line,
            "\"quote \\\" backslash \\\\ slash / nl \\n cr \\r tab \\t bs \\u0008 ff \\u000c \
             nul \\u0000 us \\u001f del \u{7f} é ü 漢字 🦀\""
        );
        assert_eq!(parse(&line), Ok(Json::Str(text.into())));
        // Every escape the parser accepts, `\u` in both cases.
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\téé\ud800x""#),
            Ok(Json::Str("\"\\/\u{8}\u{c}\n\r\té\u{e9}\u{fffd}x".into()))
        );
        // Keys escape like values.
        let obj = Json::Obj(vec![("k\"é\n".into(), Json::Str("v".into()))]);
        assert_eq!(obj.to_line(), r#"{"k\"é\n":"v"}"#);
        assert_eq!(parse(&obj.to_line()), Ok(obj));
    }

    #[test]
    fn raw_fragments_are_written_verbatim() {
        let cert: Arc<str> = r#"{"status":"proved","obligations":[{"detail":"a\"b"}]}"#.into();
        let resp = Json::Obj(vec![
            ("id".into(), Json::Num(3.0)),
            ("certificate".into(), Json::Raw(Arc::clone(&cert))),
            ("tail".into(), Json::Arr(vec![Json::Raw("1.50".into())])),
        ]);
        assert_eq!(
            resp.to_line(),
            format!(r#"{{"id":3,"certificate":{cert},"tail":[1.50]}}"#)
        );
        assert_eq!(resp.get("certificate"), Some(&Json::Raw(cert)));
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        // A 100k-bracket tower must exhaust the depth counter, not the
        // worker thread's stack.
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_obj).is_err());
        // Reasonable nesting is untouched.
        let ok = format!("{}1{}", "[".repeat(32), "]".repeat(32));
        assert!(parse(&ok).is_ok());
    }
}
