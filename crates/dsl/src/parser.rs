//! Recursive-descent parser for the ImaGen DSL.
//!
//! It reads the lexer's tokens as they come, with a two-token lookahead
//! (the current token, and the next one lexed on demand from a copy of
//! the lexer), and builds a tree that borrows its names from the source.
//! Binary operators parse by precedence climbing into left-leaning
//! trees; a comparison takes at most one operator on each side of it.
//!
//! Grammar (precedence low→high):
//!
//! ```text
//! program := item*
//! item    := "input" IDENT ";"
//!          | "output"? IDENT "=" rate? "im" "(" IDENT "," IDENT ")" expr "end" ";"?
//! rate    := ("downsample" | "upsample") "(" NUMBER "," NUMBER ")"
//! expr    := cmp
//! cmp     := add (("<"|"<="|">"|">="|"=="|"!=") add)?
//! add     := mul (("+"|"-") mul)*
//! mul     := unary (("*"|"/"|"<<"|">>") unary)*
//! unary   := "-" unary | primary
//! primary := NUMBER | "(" expr ")" | IDENT "(" args ")" | IDENT
//! args    := tap-coords | expr ("," expr)*
//! ```
//!
//! An `IDENT(...)` is a *tap* when its first argument starts with the
//! stage's coordinate variables (e.g. `K0(x-1, y+1)`), otherwise a
//! built-in call (`abs`, `min`, `max`, `clamp`, `select`).

use crate::ast::{AstExpr, AstRate, Item, Program};
use crate::token::{LexError, Lexer, Pos, Spanned, Token};
use imagen_ir::MAX_RATE_FACTOR;
use std::fmt;

/// Parse error with position information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// Lexing failed.
    Lex(LexError),
    /// Got an unexpected token.
    Unexpected {
        /// What was found.
        found: String,
        /// What was expected.
        expected: String,
        /// Where.
        pos: Pos,
    },
    /// Tap coordinate did not use the stage's bound variables.
    BadCoordinate {
        /// The coordinate variable seen.
        var: String,
        /// The variable that was expected.
        expected: String,
        /// Where.
        pos: Pos,
    },
    /// Unknown built-in function.
    UnknownFunction {
        /// Name used.
        func: String,
        /// Where.
        pos: Pos,
    },
    /// Wrong argument count for a built-in.
    BadArity {
        /// Function name.
        func: String,
        /// Expected argument count.
        expected: usize,
        /// Found argument count.
        found: usize,
        /// Where.
        pos: Pos,
    },
    /// A tap offset literal outside the `i32` range. The seed parser
    /// truncated these silently (`n as i32`), compiling a different
    /// window than the author wrote.
    OffsetOutOfRange {
        /// The signed offset as written.
        value: i64,
        /// Where.
        pos: Pos,
    },
    /// A `downsample`/`upsample` factor outside `1..=MAX_RATE_FACTOR`.
    /// Zero would collapse the iteration domain; factors above 2^20
    /// cannot arise from any realistic image geometry and would only
    /// serve to overflow downstream cycle arithmetic.
    RateOutOfRange {
        /// The factor as written.
        value: i64,
        /// Where.
        pos: Pos,
    },
    /// Expression nesting beyond [`MAX_EXPR_DEPTH`] or a stage body
    /// chaining more than [`MAX_EXPR_CHAIN`] binary operators. The
    /// recursive-descent parser (and everything downstream that walks
    /// the tree) must answer with an error, not a stack overflow, on
    /// `((((((...`- or `1+1+1+...`-shaped input.
    TooDeep {
        /// Where the limit was crossed.
        pos: Pos,
    },
}

/// Deepest accepted expression *nesting* (parentheses, unary minus,
/// call arguments). Real kernels are a few dozen levels deep at most;
/// the bound exists so hostile input exhausts a counter, not the stack
/// — parsing a nesting level costs several recursive parser frames.
pub const MAX_EXPR_DEPTH: usize = 128;

/// Most binary operators one stage body may chain (cumulative across
/// the whole body). Chains parse iteratively but build a left-leaning
/// tree that every later walk (lowering, evaluation, printing, drop)
/// recurses through one frame per link, so they get their own — larger
/// — budget: 384 links still admits a 19×19 convolution sum. The two
/// limits together keep the worst tree (~512 levels) safely inside a
/// 2 MiB thread stack for every recursive consumer, debug builds
/// included (empirically, ~768 levels is fine and ~1024 is not).
pub const MAX_EXPR_CHAIN: usize = 384;

impl ParseError {
    /// Source position of the error.
    pub fn pos(&self) -> Pos {
        match self {
            ParseError::Lex(e) => e.pos,
            ParseError::Unexpected { pos, .. }
            | ParseError::BadCoordinate { pos, .. }
            | ParseError::UnknownFunction { pos, .. }
            | ParseError::BadArity { pos, .. }
            | ParseError::OffsetOutOfRange { pos, .. }
            | ParseError::RateOutOfRange { pos, .. }
            | ParseError::TooDeep { pos } => *pos,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "{e}"),
            ParseError::Unexpected {
                found,
                expected,
                pos,
            } => write!(f, "expected {expected}, found {found} at {pos}"),
            ParseError::BadCoordinate { var, expected, pos } => write!(
                f,
                "tap coordinate uses `{var}` but the stage binds `{expected}` at {pos}"
            ),
            ParseError::UnknownFunction { func, pos } => {
                write!(f, "unknown function `{func}` at {pos}")
            }
            ParseError::BadArity {
                func,
                expected,
                found,
                pos,
            } => write!(
                f,
                "`{func}` takes {expected} argument(s), found {found} at {pos}"
            ),
            ParseError::OffsetOutOfRange { value, pos } => write!(
                f,
                "tap offset `{value}` is outside the supported range ({}..={}) at {pos}",
                i32::MIN,
                i32::MAX
            ),
            ParseError::RateOutOfRange { value, pos } => write!(
                f,
                "rate factor `{value}` is outside the supported range (1..={MAX_RATE_FACTOR}) at {pos}"
            ),
            ParseError::TooDeep { pos } => write!(
                f,
                "expression exceeds the supported size (nesting depth {MAX_EXPR_DEPTH}, {MAX_EXPR_CHAIN} chained operators) at {pos}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Parses DSL source text into a [`Program`].
///
/// A lexical error anywhere in the source wins over a syntax error
/// before it, as though the whole source were lexed first.
///
/// # Errors
///
/// Returns [`ParseError`] with source positions on malformed input.
pub fn parse_program(src: &str) -> Result<Program<'_>, ParseError> {
    let _s = imagen_obs::span("frontend.parse");
    let eof = Spanned {
        token: Token::Eof,
        pos: Pos { line: 1, col: 1 },
    };
    let mut p = Parser {
        lexer: Lexer::new(src),
        lex_error: None,
        cur: eof,
        depth: 0,
        chain: 0,
        x_var: "",
        y_var: "",
    };
    p.cur = p.lex_next();
    let result = p.program();
    if result.is_err() {
        // Finish lexing: a lexical error after the syntax error wins.
        while p.cur.token != Token::Eof {
            p.cur = p.lex_next();
        }
    }
    match p.lex_error {
        Some(e) => Err(ParseError::Lex(e)),
        None => result,
    }
}

/// The parser state: the current token, and the lexer positioned after
/// it, which [`Parser::peek2`] copies to look one token further.
struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The first lexical error. The lexer stops there and the parser
    /// sees end of input; [`parse_program`] reports the error instead of
    /// whatever the parser made of the cut-off source.
    lex_error: Option<LexError>,
    cur: Spanned<'src>,
    /// Current expression nesting, bounded by [`MAX_EXPR_DEPTH`].
    depth: usize,
    /// Binary operators chained so far in the current stage body,
    /// bounded by [`MAX_EXPR_CHAIN`] (reset per item).
    chain: usize,
    /// The current stage's coordinate variables.
    x_var: &'src str,
    y_var: &'src str,
}

/// Binding strength of a binary operator; higher binds tighter.
const CMP: u8 = 1;
const ADD: u8 = 2;
const MUL: u8 = 3;

impl<'src> Parser<'src> {
    fn peek(&self) -> Token<'src> {
        self.cur.token
    }

    fn pos(&self) -> Pos {
        self.cur.pos
    }

    /// Moves to the next token; at end of input, stays there. Inlined
    /// with the lexer into every caller: as a call per token, the token
    /// path cost about twice as much.
    #[inline(always)]
    fn bump(&mut self) {
        if self.cur.token != Token::Eof {
            self.cur = self.lex_next();
        }
    }

    /// The lexer's next token, or end of input from the first lexical
    /// error on.
    #[inline(always)]
    fn lex_next(&mut self) -> Spanned<'src> {
        let result = match self.lex_error {
            None => self.lexer.next_token(),
            Some(e) => Err(e),
        };
        result.unwrap_or_else(|e| {
            self.lex_error = Some(e);
            Spanned {
                token: Token::Eof,
                pos: e.pos,
            }
        })
    }

    /// The token after the current one. Only a tap's first argument
    /// needs it, so it is lexed again when it is moved to.
    fn peek2(&self) -> Token<'src> {
        match self.lex_error {
            None => self
                .lexer
                .clone()
                .next_token()
                .map_or(Token::Eof, |t| t.token),
            Some(_) => Token::Eof,
        }
    }

    fn expect(&mut self, want: Token<'src>, what: &str) -> Result<(), ParseError> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    fn unexpected(&self, expected: &str) -> ParseError {
        ParseError::Unexpected {
            found: self.peek().to_string(),
            expected: expected.to_string(),
            pos: self.pos(),
        }
    }

    fn ident(&mut self, what: &str) -> Result<(&'src str, Pos), ParseError> {
        match self.peek() {
            Token::Ident(s) => {
                let pos = self.pos();
                self.bump();
                Ok((s, pos))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn program(&mut self) -> Result<Program<'src>, ParseError> {
        let mut items = Vec::new();
        while self.peek() != Token::Eof {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> Result<Item<'src>, ParseError> {
        match self.peek() {
            Token::Input => {
                self.bump();
                let (name, pos) = self.ident("input stage name")?;
                self.expect(Token::Semi, "`;`")?;
                Ok(Item::Input { name, pos })
            }
            Token::Output | Token::Ident(_) => {
                let output = self.peek() == Token::Output;
                if output {
                    self.bump();
                }
                let (name, pos) = self.ident("stage name")?;
                self.expect(Token::Assign, "`=`")?;
                let rate = self.rate_modifier()?;
                self.expect(Token::Im, "`im`")?;
                self.expect(Token::LParen, "`(`")?;
                let (x_var, _) = self.ident("coordinate variable")?;
                self.expect(Token::Comma, "`,`")?;
                let (y_var, _) = self.ident("coordinate variable")?;
                self.expect(Token::RParen, "`)`")?;
                self.x_var = x_var;
                self.y_var = y_var;
                self.chain = 0;
                let body = self.expr()?;
                self.expect(Token::End, "`end`")?;
                if self.peek() == Token::Semi {
                    self.bump();
                }
                Ok(Item::Stage {
                    name,
                    output,
                    x_var,
                    y_var,
                    body,
                    rate,
                    pos,
                })
            }
            _ => Err(self.unexpected("`input`, `output`, or a stage definition")),
        }
    }

    /// Parses an optional `downsample(fx, fy)` / `upsample(fx, fy)`
    /// modifier between `=` and `im`. The modifier words are contextual
    /// (only recognized in this position), so stages and producers may
    /// still be *named* `downsample` or `upsample`.
    fn rate_modifier(&mut self) -> Result<AstRate, ParseError> {
        let down = match self.peek() {
            Token::Ident("downsample") => true,
            Token::Ident("upsample") => false,
            _ => return Ok(AstRate::Unit),
        };
        let pos = self.pos();
        self.bump();
        self.expect(Token::LParen, "`(`")?;
        let fx = self.rate_factor()?;
        self.expect(Token::Comma, "`,`")?;
        let fy = self.rate_factor()?;
        self.expect(Token::RParen, "`)`")?;
        Ok(if down {
            AstRate::Down { fx, fy, pos }
        } else {
            AstRate::Up { fx, fy, pos }
        })
    }

    /// Parses one rate factor, rejecting values outside `1..=MAX_RATE_FACTOR`
    /// with the literal's own span.
    fn rate_factor(&mut self) -> Result<i64, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Token::Number(n) => {
                self.bump();
                if n < 1 || n as u64 > MAX_RATE_FACTOR {
                    return Err(ParseError::RateOutOfRange { value: n, pos });
                }
                Ok(n)
            }
            _ => Err(self.unexpected("a rate factor (positive integer)")),
        }
    }

    /// One nesting level: a stage body, a parenthesized expression or a
    /// call argument.
    fn expr(&mut self) -> Result<AstExpr<'src>, ParseError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(ParseError::TooDeep { pos: self.pos() });
        }
        self.depth += 1;
        let result = self.binary(CMP);
        self.depth -= 1;
        result
    }

    /// The binary operator at the cursor and its binding strength.
    fn binary_op(&self) -> Option<(&'static str, u8)> {
        Some(match self.peek() {
            Token::Lt => ("<", CMP),
            Token::Le => ("<=", CMP),
            Token::Gt => (">", CMP),
            Token::Ge => (">=", CMP),
            Token::EqEq => ("==", CMP),
            Token::Ne => ("!=", CMP),
            Token::Plus => ("+", ADD),
            Token::Minus => ("-", ADD),
            Token::Star => ("*", MUL),
            Token::Slash => ("/", MUL),
            Token::Shl => ("<<", MUL),
            Token::Shr => (">>", MUL),
            _ => return None,
        })
    }

    /// Precedence climbing over operators binding at least `min`. Equal
    /// strengths fold to the left, one loop turn per operator, so a long
    /// chain costs no stack; a comparison ends its level.
    fn binary(&mut self, min: u8) -> Result<AstExpr<'src>, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, strength)) = self.binary_op() {
            if strength < min {
                break;
            }
            if strength > CMP {
                // Each chained arithmetic operator deepens the
                // left-leaning tree by one level, which later recursive
                // walks (lowering, evaluation, drop) pay for in stack —
                // bounded by the per-body budget.
                if self.chain >= MAX_EXPR_CHAIN {
                    return Err(ParseError::TooDeep { pos: self.pos() });
                }
                self.chain += 1;
            }
            self.bump();
            let rhs = if strength == MUL {
                self.unary()?
            } else {
                self.binary(strength + 1)?
            };
            lhs = AstExpr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
            if strength == CMP {
                break;
            }
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<AstExpr<'src>, ParseError> {
        if self.peek() == Token::Minus {
            if self.depth >= MAX_EXPR_DEPTH {
                return Err(ParseError::TooDeep { pos: self.pos() });
            }
            self.depth += 1;
            self.bump();
            let inner = self.unary();
            self.depth -= 1;
            return Ok(AstExpr::Neg(Box::new(inner?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<AstExpr<'src>, ParseError> {
        match self.peek() {
            Token::Number(n) => {
                self.bump();
                Ok(AstExpr::Number(n))
            }
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::Ident(name) => {
                let pos = self.pos();
                self.bump();
                if self.peek() != Token::LParen {
                    return Err(self.unexpected("`(` (taps are written `K(x, y)`)"));
                }
                self.bump();
                let arity = match name {
                    "abs" => 1,
                    "min" | "max" => 2,
                    "clamp" | "select" => 3,
                    // Not a builtin: this must be a stencil tap. A lone
                    // identifier as the first argument means a coordinate
                    // (possibly misnamed); anything else means the author
                    // used an unknown function.
                    _ => {
                        if let Token::Ident(first) = self.peek() {
                            if self.peek2() != Token::LParen {
                                if first != self.x_var {
                                    return Err(ParseError::BadCoordinate {
                                        var: first.to_string(),
                                        expected: self.x_var.to_string(),
                                        pos: self.pos(),
                                    });
                                }
                                return self.tap(name, pos);
                            }
                        }
                        return Err(ParseError::UnknownFunction {
                            func: name.to_string(),
                            pos,
                        });
                    }
                };
                // Built-in call.
                let mut args = Vec::with_capacity(arity);
                if self.peek() != Token::RParen {
                    args.push(self.expr()?);
                    while self.peek() == Token::Comma {
                        self.bump();
                        args.push(self.expr()?);
                    }
                }
                self.expect(Token::RParen, "`)`")?;
                if args.len() != arity {
                    return Err(ParseError::BadArity {
                        func: name.to_string(),
                        expected: arity,
                        found: args.len(),
                        pos,
                    });
                }
                Ok(AstExpr::Call {
                    func: name,
                    args,
                    pos,
                })
            }
            _ => Err(self.unexpected("a number, `(`, tap, or function call")),
        }
    }

    /// Parses the remainder of a tap after `NAME(`, consuming `x±dx, y±dy)`.
    fn tap(&mut self, stage: &'src str, pos: Pos) -> Result<AstExpr<'src>, ParseError> {
        let dx = self.coord(self.x_var)?;
        self.expect(Token::Comma, "`,`")?;
        let dy = self.coord(self.y_var)?;
        self.expect(Token::RParen, "`)`")?;
        Ok(AstExpr::Tap { stage, dx, dy, pos })
    }

    /// Parses `VAR`, `VAR+N`, or `VAR-N`, where `VAR` is the stage's
    /// coordinate variable `var`, returning the signed offset.
    fn coord(&mut self, var: &str) -> Result<i32, ParseError> {
        let pos = self.pos();
        match self.peek() {
            Token::Ident(name) if name == var => self.bump(),
            Token::Ident(name) => {
                return Err(ParseError::BadCoordinate {
                    var: name.to_string(),
                    expected: var.to_string(),
                    pos,
                })
            }
            _ => return Err(self.unexpected("coordinate variable")),
        }
        let sign: i64 = match self.peek() {
            Token::Plus => 1,
            Token::Minus => -1,
            _ => return Ok(0),
        };
        self.bump();
        let pos = self.pos();
        match self.peek() {
            Token::Number(n) => {
                self.bump();
                // The lexer guarantees `n <= i64::MAX`, so `sign * n` is
                // exact in i64; reject anything that cannot be an i32
                // offset instead of truncating it.
                let value = sign * n;
                i32::try_from(value).map_err(|_| ParseError::OffsetOutOfRange { value, pos })
            }
            _ => Err(self.unexpected("an integer offset")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // The program from the paper's Sec. 4 listing (shape only).
        let src = "
            input K0;
            // K1 reads a 3x3 window from K0
            K1 = im(x,y) K0(x-1,y-1)+K0(x,y-1)+K0(x+1,y+1) end
            output K2 = im(x,y) K0(x,y)+K1(x-1,y-1)+K1(x+1,y+1) end
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.items.len(), 3);
        assert!(matches!(&p.items[0], Item::Input { name, .. } if *name == "K0"));
        match &p.items[2] {
            Item::Stage { name, output, .. } => {
                assert_eq!(*name, "K2");
                assert!(output);
            }
            _ => panic!("expected stage"),
        }
    }

    #[test]
    fn tap_offsets() {
        let p = parse_program("input A; output B = im(x,y) A(x-2,y+3) end").unwrap();
        match &p.items[1] {
            Item::Stage { body, .. } => match body {
                AstExpr::Tap { dx, dy, .. } => {
                    assert_eq!(*dx, -2);
                    assert_eq!(*dy, 3);
                }
                _ => panic!("expected tap"),
            },
            _ => panic!("expected stage"),
        }
    }

    #[test]
    fn precedence() {
        let p = parse_program("input A; output B = im(x,y) A(x,y) + A(x,y) * 2 end").unwrap();
        match &p.items[1] {
            Item::Stage { body, .. } => match body {
                AstExpr::Bin { op: "+", rhs, .. } => {
                    assert!(matches!(**rhs, AstExpr::Bin { op: "*", .. }));
                }
                other => panic!("wrong shape: {other:?}"),
            },
            _ => panic!("expected stage"),
        }
    }

    #[test]
    fn calls_and_arity() {
        parse_program("input A; output B = im(x,y) min(A(x,y), 3) end").unwrap();
        parse_program("input A; output B = im(x,y) clamp(A(x,y), 0, 255) end").unwrap();
        let err = parse_program("input A; output B = im(x,y) min(A(x,y)) end").unwrap_err();
        assert!(matches!(err, ParseError::BadArity { expected: 2, .. }));
        let err = parse_program("input A; output B = im(x,y) frob(A(x,y)) end").unwrap_err();
        assert!(matches!(err, ParseError::UnknownFunction { .. }));
    }

    #[test]
    fn coordinate_names_enforced() {
        let err = parse_program("input A; output B = im(u,v) A(x, y) end").unwrap_err();
        assert!(matches!(err, ParseError::BadCoordinate { .. }));
        // Custom coordinate names work when used consistently.
        parse_program("input A; output B = im(u,v) A(u-1, v+1) end").unwrap();
    }

    #[test]
    fn error_positions() {
        let err = parse_program("input ;").unwrap_err();
        match err {
            ParseError::Unexpected { pos, .. } => assert_eq!(pos.col, 7),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn offset_boundaries_pinned() {
        // i32::MAX parses exactly (no truncation) ...
        let src = format!(
            "input A; output B = im(x,y) A(x+{}, y-{}) end",
            i32::MAX,
            i32::MAX
        );
        let p = parse_program(&src).unwrap();
        match &p.items[1] {
            Item::Stage { body, .. } => match body {
                AstExpr::Tap { dx, dy, .. } => {
                    assert_eq!(*dx, i32::MAX);
                    assert_eq!(*dy, -i32::MAX);
                }
                _ => panic!("expected tap"),
            },
            _ => panic!("expected stage"),
        }
        // ... i32::MAX + 1 is rejected with its source position, where the
        // seed parser silently wrapped it to i32::MIN.
        let src = format!(
            "input A;\noutput B = im(x,y) A(x+{}, y) end",
            1i64 + i32::MAX as i64
        );
        let err = parse_program(&src).unwrap_err();
        match err {
            ParseError::OffsetOutOfRange { value, pos } => {
                assert_eq!(value, i32::MAX as i64 + 1);
                assert_eq!(pos.line, 2);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // i32::MIN is representable and accepted.
        let src = format!("input A; output B = im(x,y) A(x-{}, y) end", 1u64 << 31);
        parse_program(&src).unwrap();
        // One further out is not.
        let src = format!(
            "input A; output B = im(x,y) A(x-{}, y) end",
            (1u64 << 31) + 1
        );
        assert!(matches!(
            parse_program(&src).unwrap_err(),
            ParseError::OffsetOutOfRange { .. }
        ));
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        // Parenthesis towers, unary-minus towers and kilometer-long
        // operator chains must all come back as TooDeep errors — the
        // parser and every later tree walk run on the caller's stack.
        let deep_parens = format!(
            "input A; output B = im(x,y) {}A(x,y){} end",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        assert!(matches!(
            parse_program(&deep_parens).unwrap_err(),
            ParseError::TooDeep { .. }
        ));
        let deep_neg = format!(
            "input A; output B = im(x,y) {}A(x,y) end",
            "-".repeat(100_000)
        );
        assert!(matches!(
            parse_program(&deep_neg).unwrap_err(),
            ParseError::TooDeep { .. }
        ));
        let long_chain = format!(
            "input A; output B = im(x,y) A(x,y){} end",
            " + 1".repeat(100_000)
        );
        assert!(matches!(
            parse_program(&long_chain).unwrap_err(),
            ParseError::TooDeep { .. }
        ));
        let long_mul_chain = format!(
            "input A; output B = im(x,y) A(x,y){} end",
            " * 2".repeat(100_000)
        );
        assert!(matches!(
            parse_program(&long_mul_chain).unwrap_err(),
            ParseError::TooDeep { .. }
        ));
        // Realistic programs sit far under the budget: an 81-term sum
        // (9x9 box filter shape) and 100-deep parens both parse.
        let sum_81 = format!(
            "input A; output B = im(x,y) A(x,y){} end",
            " + 1".repeat(80)
        );
        parse_program(&sum_81).unwrap();
        let nested_100 = format!(
            "input A; output B = im(x,y) {}A(x,y){} end",
            "(".repeat(100),
            ")".repeat(100)
        );
        parse_program(&nested_100).unwrap();
        // A body at the exact chain budget must survive not only parsing
        // but the recursive downstream walks (lowering + drop) — this
        // runs on a test thread's smaller stack on purpose.
        let max_chain = format!(
            "input A; output B = im(x,y) A(x,y){} end",
            " + 1".repeat(MAX_EXPR_CHAIN - 1)
        );
        let program = parse_program(&max_chain).unwrap();
        crate::lower("max-chain", &program).unwrap();
        // The budget is per stage body, not per program: many maximal
        // bodies in one file are fine.
        let two_bodies = format!(
            "input A; B = im(x,y) A(x,y){chain} end output C = im(x,y) B(x,y){chain} end",
            chain = " + 1".repeat(MAX_EXPR_CHAIN - 1)
        );
        parse_program(&two_bodies).unwrap();
    }

    #[test]
    fn columns_after_a_multibyte_comment_count_characters() {
        let err = parse_program("// ñ\ninput a; output b = im(x,y) a(z,y) end").unwrap_err();
        assert!(matches!(err, ParseError::BadCoordinate { .. }), "{err:?}");
        assert_eq!(err.pos(), Pos { line: 2, col: 31 });
    }

    #[test]
    fn lexical_errors_win_over_earlier_syntax_errors() {
        // The syntax error at `;` comes first in the source, but the
        // whole source lexes before it parses.
        let err = parse_program("input ; output b = im(x,y) a(x,y) $ end").unwrap_err();
        assert!(matches!(err, ParseError::Lex(_)), "{err:?}");
        assert_eq!(err.pos(), Pos { line: 1, col: 35 });
        let err = parse_program("input ;").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }), "{err:?}");
    }

    #[test]
    fn huge_literal_rejected_by_lexer() {
        let err = parse_program("input A; output B = im(x,y) A(x,y) + 99999999999999999999 end")
            .unwrap_err();
        assert!(matches!(err, ParseError::Lex(_)));
        assert_eq!(err.pos().col, 38);
    }

    #[test]
    fn rate_modifiers_parse() {
        let p = parse_program(
            "input K0;
             D = downsample(2, 2) im(x,y) K0(x,y) + K0(x+1,y+1) end
             output U = upsample(2,2) im(x,y) D(x,y) end",
        )
        .unwrap();
        match &p.items[1] {
            Item::Stage { rate, .. } => {
                assert!(matches!(
                    rate,
                    crate::ast::AstRate::Down { fx: 2, fy: 2, .. }
                ));
            }
            _ => panic!("expected stage"),
        }
        match &p.items[2] {
            Item::Stage { rate, .. } => {
                assert!(matches!(rate, crate::ast::AstRate::Up { fx: 2, fy: 2, .. }));
            }
            _ => panic!("expected stage"),
        }
        // No modifier → Unit.
        let p = parse_program("input A; output B = im(x,y) A(x,y) end").unwrap();
        match &p.items[1] {
            Item::Stage { rate, .. } => assert!(rate.is_unit()),
            _ => panic!("expected stage"),
        }
    }

    #[test]
    fn rate_modifier_words_stay_contextual() {
        // `downsample`/`upsample` are not keywords: stages may use the
        // names, and taps into them still parse.
        let p = parse_program(
            "input downsample;
             output upsample = im(x,y) downsample(x-1,y+1) end",
        )
        .unwrap();
        assert_eq!(p.items.len(), 2);
        // And a rate modifier composes with such names.
        parse_program(
            "input downsample;
             output upsample = downsample(2,2) im(x,y) downsample(x,y) end",
        )
        .unwrap();
    }

    #[test]
    fn hostile_rate_factors_error_with_spans() {
        let err =
            parse_program("input A;\noutput B = downsample(0, 2) im(x,y) A(x,y) end").unwrap_err();
        match err {
            ParseError::RateOutOfRange { value: 0, pos } => {
                assert_eq!(pos.line, 2);
                assert_eq!(pos.col, 23);
            }
            other => panic!("wrong error: {other:?}"),
        }
        let src = format!(
            "input A; output B = upsample(2, {}) im(x,y) A(x,y) end",
            MAX_RATE_FACTOR + 1
        );
        assert!(matches!(
            parse_program(&src).unwrap_err(),
            ParseError::RateOutOfRange { .. }
        ));
        // Exactly MAX_RATE_FACTOR parses (range is inclusive).
        let src = format!(
            "input A; output B = downsample({}, 1) im(x,y) A(x,y) end",
            MAX_RATE_FACTOR
        );
        parse_program(&src).unwrap();
        // Negative and non-numeric factors are unexpected-token errors.
        assert!(parse_program("input A; output B = downsample(-1, 2) im(x,y) A(x,y) end").is_err());
        assert!(parse_program("input A; output B = downsample(x, 2) im(x,y) A(x,y) end").is_err());
    }

    #[test]
    fn negation_and_comparison() {
        let p = parse_program("input A; output B = im(x,y) select(A(x,y) > 10, -A(x,y), 0) end")
            .unwrap();
        match &p.items[1] {
            Item::Stage { body, .. } => {
                assert!(matches!(body, AstExpr::Call { func, .. } if *func == "select"));
            }
            _ => panic!("expected stage"),
        }
    }
}
