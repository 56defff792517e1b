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

/// A lexical token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Token {
    /// `input` keyword.
    Input,
    /// `output` keyword.
    Output,
    /// `im` keyword.
    Im,
    /// `end` keyword.
    End,
    /// Identifier (stage or coordinate name).
    Ident(String),
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

impl fmt::Display for Token {
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
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Spanned {
    /// The token.
    pub token: Token,
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
pub fn lex(src: &str) -> Result<Vec<Spanned>, LexError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if let Some(c) = c {
                if c == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            c
        }};
    }

    loop {
        let pos = Pos { line, col };
        let Some(&c) = chars.peek() else { break };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                bump!();
            }
            '/' => {
                bump!();
                match chars.peek() {
                    Some('/') => {
                        while let Some(&c) = chars.peek() {
                            if c == '\n' {
                                break;
                            }
                            bump!();
                        }
                    }
                    Some('*') => {
                        bump!();
                        let mut prev = ' ';
                        while let Some(c) = bump!() {
                            if prev == '*' && c == '/' {
                                break;
                            }
                            prev = c;
                        }
                    }
                    _ => out.push(Spanned {
                        token: Token::Slash,
                        pos,
                    }),
                }
            }
            '0'..='9' => {
                let mut n: i64 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(v) = d.to_digit(10) {
                        n = match n.checked_mul(10).and_then(|n| n.checked_add(v as i64)) {
                            Some(n) => n,
                            None => {
                                return Err(LexError {
                                    kind: LexErrorKind::NumberTooLarge,
                                    pos,
                                })
                            }
                        };
                        bump!();
                    } else {
                        break;
                    }
                }
                out.push(Spanned {
                    token: Token::Number(n),
                    pos,
                });
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        bump!();
                    } else {
                        break;
                    }
                }
                let token = match s.as_str() {
                    "input" => Token::Input,
                    "output" => Token::Output,
                    "im" => Token::Im,
                    "end" => Token::End,
                    _ => Token::Ident(s),
                };
                out.push(Spanned { token, pos });
            }
            '(' | ')' | ',' | ';' | '+' | '-' | '*' => {
                bump!();
                let token = match c {
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    ',' => Token::Comma,
                    ';' => Token::Semi,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    _ => Token::Star,
                };
                out.push(Spanned { token, pos });
            }
            '=' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned {
                        token: Token::EqEq,
                        pos,
                    });
                } else {
                    out.push(Spanned {
                        token: Token::Assign,
                        pos,
                    });
                }
            }
            '<' => {
                bump!();
                let token = match chars.peek() {
                    Some('<') => {
                        bump!();
                        Token::Shl
                    }
                    Some('=') => {
                        bump!();
                        Token::Le
                    }
                    _ => Token::Lt,
                };
                out.push(Spanned { token, pos });
            }
            '>' => {
                bump!();
                let token = match chars.peek() {
                    Some('>') => {
                        bump!();
                        Token::Shr
                    }
                    Some('=') => {
                        bump!();
                        Token::Ge
                    }
                    _ => Token::Gt,
                };
                out.push(Spanned { token, pos });
            }
            '!' => {
                bump!();
                if chars.peek() == Some(&'=') {
                    bump!();
                    out.push(Spanned {
                        token: Token::Ne,
                        pos,
                    });
                } else {
                    return Err(LexError {
                        kind: LexErrorKind::BadChar('!'),
                        pos,
                    });
                }
            }
            other => {
                return Err(LexError {
                    kind: LexErrorKind::BadChar(other),
                    pos,
                })
            }
        }
    }
    out.push(Spanned {
        token: Token::Eof,
        pos: Pos { line, col },
    });
    Ok(out)
}
