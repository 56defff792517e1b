//! Lexer for the Darkroom-like ImaGen DSL.

use std::fmt;

/// Source position (1-based line and column) for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical token. Identifiers borrow their text from the source, so a
/// token is `Copy` and lexing allocates nothing per token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token<'src> {
    /// `input` keyword.
    Input,
    /// `output` keyword.
    Output,
    /// `im` keyword.
    Im,
    /// `end` keyword.
    End,
    /// Identifier (stage or coordinate name).
    Ident(&'src str),
    /// Integer literal.
    Number(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Input => write!(f, "`input`"),
            Token::Output => write!(f, "`output`"),
            Token::Im => write!(f, "`im`"),
            Token::End => write!(f, "`end`"),
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Number(n) => write!(f, "number `{n}`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::Comma => write!(f, "`,`"),
            Token::Semi => write!(f, "`;`"),
            Token::Assign => write!(f, "`=`"),
            Token::Plus => write!(f, "`+`"),
            Token::Minus => write!(f, "`-`"),
            Token::Star => write!(f, "`*`"),
            Token::Slash => write!(f, "`/`"),
            Token::Shl => write!(f, "`<<`"),
            Token::Shr => write!(f, "`>>`"),
            Token::Lt => write!(f, "`<`"),
            Token::Le => write!(f, "`<=`"),
            Token::Gt => write!(f, "`>`"),
            Token::Ge => write!(f, "`>=`"),
            Token::EqEq => write!(f, "`==`"),
            Token::Ne => write!(f, "`!=`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<'src> {
    /// The token.
    pub token: Token<'src>,
    /// Where it starts.
    pub pos: Pos,
}

/// What went wrong lexically.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LexErrorKind {
    /// A character outside the language.
    BadChar(char),
    /// An integer literal exceeding `i64::MAX`. The seed lexer silently
    /// saturated these; they are now rejected so no literal ever changes
    /// value between source and IR.
    NumberTooLarge,
}

/// Lexical error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LexError {
    /// What went wrong.
    pub kind: LexErrorKind,
    /// Where it occurred.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LexErrorKind::BadChar(ch) => {
                write!(f, "unexpected character `{ch}` at {}", self.pos)
            }
            LexErrorKind::NumberTooLarge => {
                write!(f, "integer literal exceeds {} at {}", i64::MAX, self.pos)
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes DSL source. Supports `//` line comments and `/* */` block
/// comments.
///
/// # Errors
///
/// Returns [`LexError`] on any character outside the language or an
/// integer literal that does not fit in an `i64`.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let t = lexer.next_token()?;
        out.push(t);
        if t.token == Token::Eof {
            return Ok(out);
        }
    }
}

/// Scans the source's bytes one token at a time. Every byte of the
/// language is ASCII, so a non-ASCII byte outside a comment starts a
/// `BadChar`; columns still count characters, which only comments can
/// hold more than one byte of.
#[derive(Clone)]
pub(crate) struct Lexer<'src> {
    src: &'src str,
    at: usize,
    line: u32,
    col: u32,
}

impl<'src> Lexer<'src> {
    pub(crate) fn new(src: &'src str) -> Self {
        Lexer {
            src,
            at: 0,
            line: 1,
            col: 1,
        }
    }

    /// The next token; `Eof` (at the end position) once the source is
    /// exhausted, however often it is asked. Always inlined: called once
    /// per token, it cost the parse about twice as much.
    #[inline(always)]
    pub(crate) fn next_token(&mut self) -> Result<Spanned<'src>, LexError> {
        let bytes = self.src.as_bytes();
        loop {
            let pos = Pos {
                line: self.line,
                col: self.col,
            };
            let Some(&b) = bytes.get(self.at) else {
                return Ok(Spanned {
                    token: Token::Eof,
                    pos,
                });
            };
            let next = bytes.get(self.at + 1).copied();
            let (token, len) = match b {
                b' ' | b'\t' | b'\r' => {
                    self.advance(1);
                    continue;
                }
                b'\n' => {
                    self.at += 1;
                    self.line += 1;
                    self.col = 1;
                    continue;
                }
                b'/' if next == Some(b'/') => {
                    let end = bytes[self.at..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |n| self.at + n);
                    self.col += chars_in(&bytes[self.at..end]);
                    self.at = end;
                    continue;
                }
                b'/' if next == Some(b'*') => {
                    self.block_comment();
                    continue;
                }
                b'0'..=b'9' => return self.number(pos),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let len = bytes[self.at..]
                        .iter()
                        .position(|c| !(c.is_ascii_alphanumeric() || *c == b'_'))
                        .unwrap_or(bytes.len() - self.at);
                    let word = &self.src[self.at..self.at + len];
                    let token = match word {
                        "input" => Token::Input,
                        "output" => Token::Output,
                        "im" => Token::Im,
                        "end" => Token::End,
                        _ => Token::Ident(word),
                    };
                    (token, len)
                }
                b'(' => (Token::LParen, 1),
                b')' => (Token::RParen, 1),
                b',' => (Token::Comma, 1),
                b';' => (Token::Semi, 1),
                b'+' => (Token::Plus, 1),
                b'-' => (Token::Minus, 1),
                b'*' => (Token::Star, 1),
                b'/' => (Token::Slash, 1),
                b'=' if next == Some(b'=') => (Token::EqEq, 2),
                b'=' => (Token::Assign, 1),
                b'<' if next == Some(b'<') => (Token::Shl, 2),
                b'<' if next == Some(b'=') => (Token::Le, 2),
                b'<' => (Token::Lt, 1),
                b'>' if next == Some(b'>') => (Token::Shr, 2),
                b'>' if next == Some(b'=') => (Token::Ge, 2),
                b'>' => (Token::Gt, 1),
                b'!' if next == Some(b'=') => (Token::Ne, 2),
                _ => {
                    let ch = self.src[self.at..]
                        .chars()
                        .next()
                        .expect("a byte remains, so a character starts here");
                    return Err(LexError {
                        kind: LexErrorKind::BadChar(ch),
                        pos,
                    });
                }
            };
            self.advance(len);
            return Ok(Spanned { token, pos });
        }
    }

    /// Moves past `len` ASCII bytes of one line.
    fn advance(&mut self, len: usize) {
        self.at += len;
        self.col += len as u32;
    }

    /// Skips a `/* ... */` comment, or the rest of the source when it is
    /// never closed. The `/*` cannot share its `*` with the closing `*/`.
    fn block_comment(&mut self) {
        self.advance(2);
        let bytes = self.src.as_bytes();
        let mut prev = b' ';
        while let Some(&b) = bytes.get(self.at) {
            self.at += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += chars_in(&[b]);
            }
            if prev == b'*' && b == b'/' {
                return;
            }
            prev = b;
        }
    }

    /// Lexes a decimal literal starting at `pos`.
    fn number(&mut self, pos: Pos) -> Result<Spanned<'src>, LexError> {
        let digits = &self.src.as_bytes()[self.at..];
        let len = digits
            .iter()
            .position(|d| !d.is_ascii_digit())
            .unwrap_or(digits.len());
        let mut n: i64 = 0;
        for &d in &digits[..len] {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(i64::from(d - b'0')))
                .ok_or(LexError {
                    kind: LexErrorKind::NumberTooLarge,
                    pos,
                })?;
        }
        self.advance(len);
        Ok(Spanned {
            token: Token::Number(n),
            pos,
        })
    }
}

/// Characters in a run of UTF-8 bytes: every byte but the continuation
/// bytes starts one.
fn chars_in(bytes: &[u8]) -> u32 {
    bytes.iter().filter(|&&b| b & 0xC0 != 0x80).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("input K0;"),
            vec![Token::Input, Token::Ident("K0"), Token::Semi, Token::Eof]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("+ - * / << >> < <= > >= == != ="),
            vec![
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Shl,
                Token::Shr,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::EqEq,
                Token::Ne,
                Token::Assign,
                Token::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("// header\nim /* inline */ end"),
            vec![Token::Im, Token::End, Token::Eof]
        );
    }

    #[test]
    fn positions_tracked() {
        let ts = lex("ab\n  cd").unwrap();
        assert_eq!(ts[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(ts[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn bad_char_reported() {
        let err = lex("a $ b").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::BadChar('$'));
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        // A multi-byte character in a comment is one column ...
        let err = lex("/* é */ $").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::BadChar('$'));
        assert_eq!(err.pos, Pos { line: 1, col: 9 });
        // ... and outside one it is reported whole, at its own column.
        let err = lex("input é;").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::BadChar('é'));
        assert_eq!(err.pos, Pos { line: 1, col: 7 });
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("042"), vec![Token::Number(42), Token::Eof]);
    }

    #[test]
    fn i64_boundary_literals() {
        // i64::MAX lexes exactly; one more rejects instead of saturating.
        assert_eq!(
            toks("9223372036854775807"),
            vec![Token::Number(i64::MAX), Token::Eof]
        );
        let err = lex("a 9223372036854775808").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::NumberTooLarge);
        assert_eq!(err.pos, Pos { line: 1, col: 3 });
        let err = lex("99999999999999999999999999").unwrap_err();
        assert_eq!(err.kind, LexErrorKind::NumberTooLarge);
    }
}
