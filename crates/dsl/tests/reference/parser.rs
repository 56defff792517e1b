//! Recursive-descent parser for the ImaGen DSL.
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

use super::ast::{AstExpr, AstRate, Item, Program};
use super::token::{lex, LexError, Pos, Spanned, Token};
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
/// # Errors
///
/// Returns [`ParseError`] with source positions on malformed input.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let _s = imagen_obs::span("frontend.parse");
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        at: 0,
        depth: 0,
        chain: 0,
        x_var: String::new(),
        y_var: String::new(),
    };
    p.program()
}

/// The parser state. Each identifier's `String` moves out of `tokens`
/// once consumed (nothing reads a token behind the cursor), so parsing
/// allocates no copy of a name.
struct Parser {
    tokens: Vec<Spanned>,
    at: usize,
    /// Current expression nesting, bounded by [`MAX_EXPR_DEPTH`].
    depth: usize,
    /// Binary operators chained so far in the current stage body,
    /// bounded by [`MAX_EXPR_CHAIN`] (reset per item).
    chain: usize,
    /// The current stage's coordinate variables, moved into its item
    /// once its body is parsed.
    x_var: String,
    y_var: String,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at].token
    }

    fn pos(&self) -> Pos {
        self.tokens[self.at].pos
    }

    fn bump(&mut self) {
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
    }

    fn expect(&mut self, want: &Token, what: &str) -> Result<(), ParseError> {
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

    /// Consumes an identifier, moving its name out of the token.
    fn ident(&mut self, what: &str) -> Result<(String, Pos), ParseError> {
        let pos = self.pos();
        match &mut self.tokens[self.at].token {
            Token::Ident(s) => {
                let s = std::mem::take(s);
                self.bump();
                Ok((s, pos))
            }
            _ => Err(self.unexpected(what)),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while *self.peek() != Token::Eof {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        match self.peek() {
            Token::Input => {
                self.bump();
                let (name, pos) = self.ident("input stage name")?;
                self.expect(&Token::Semi, "`;`")?;
                Ok(Item::Input { name, pos })
            }
            Token::Output | Token::Ident(_) => {
                let output = if *self.peek() == Token::Output {
                    self.bump();
                    true
                } else {
                    false
                };
                let (name, pos) = self.ident("stage name")?;
                self.expect(&Token::Assign, "`=`")?;
                let rate = self.rate_modifier()?;
                self.expect(&Token::Im, "`im`")?;
                self.expect(&Token::LParen, "`(`")?;
                let (xv, _) = self.ident("coordinate variable")?;
                self.expect(&Token::Comma, "`,`")?;
                let (yv, _) = self.ident("coordinate variable")?;
                self.expect(&Token::RParen, "`)`")?;
                self.x_var = xv;
                self.y_var = yv;
                self.chain = 0;
                let body = self.expr()?;
                self.expect(&Token::End, "`end`")?;
                if *self.peek() == Token::Semi {
                    self.bump();
                }
                Ok(Item::Stage {
                    name,
                    output,
                    x_var: std::mem::take(&mut self.x_var),
                    y_var: std::mem::take(&mut self.y_var),
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
            Token::Ident(s) if s == "downsample" => true,
            Token::Ident(s) if s == "upsample" => false,
            _ => return Ok(AstRate::Unit),
        };
        let pos = self.pos();
        self.bump();
        self.expect(&Token::LParen, "`(`")?;
        let fx = self.rate_factor()?;
        self.expect(&Token::Comma, "`,`")?;
        let fy = self.rate_factor()?;
        self.expect(&Token::RParen, "`)`")?;
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
        match *self.peek() {
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

    fn expr(&mut self) -> Result<AstExpr, ParseError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(ParseError::TooDeep { pos: self.pos() });
        }
        self.depth += 1;
        let result = self.cmp();
        self.depth -= 1;
        result
    }

    fn cmp(&mut self) -> Result<AstExpr, ParseError> {
        let lhs = self.add()?;
        let op = match self.peek() {
            Token::Lt => "<",
            Token::Le => "<=",
            Token::Gt => ">",
            Token::Ge => ">=",
            Token::EqEq => "==",
            Token::Ne => "!=",
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add()?;
        Ok(AstExpr::Bin {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn add(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                Token::Plus => "+",
                Token::Minus => "-",
                _ => return Ok(lhs),
            };
            // Each chained operator deepens the left-leaning tree by one
            // level, which later recursive walks (lowering, evaluation,
            // drop) pay for in stack — bounded by the per-body budget.
            if self.chain >= MAX_EXPR_CHAIN {
                return Err(ParseError::TooDeep { pos: self.pos() });
            }
            self.chain += 1;
            self.bump();
            let rhs = self.mul()?;
            lhs = AstExpr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn mul(&mut self) -> Result<AstExpr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => "*",
                Token::Slash => "/",
                Token::Shl => "<<",
                Token::Shr => ">>",
                _ => return Ok(lhs),
            };
            // See `add`: chain length counts against the per-body budget.
            if self.chain >= MAX_EXPR_CHAIN {
                return Err(ParseError::TooDeep { pos: self.pos() });
            }
            self.chain += 1;
            self.bump();
            let rhs = self.unary()?;
            lhs = AstExpr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
    }

    fn unary(&mut self) -> Result<AstExpr, ParseError> {
        if *self.peek() == Token::Minus {
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

    fn primary(&mut self) -> Result<AstExpr, ParseError> {
        match *self.peek() {
            Token::Number(n) => {
                self.bump();
                Ok(AstExpr::Number(n))
            }
            Token::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::Ident(_) => {
                let (name, pos) = self.ident("an identifier")?;
                if *self.peek() != Token::LParen {
                    return Err(self.unexpected("`(` (taps are written `K(x, y)`)"));
                }
                self.bump();
                let builtin = matches!(name.as_str(), "abs" | "min" | "max" | "clamp" | "select");
                if !builtin {
                    // Not a builtin: this must be a stencil tap. A lone
                    // identifier as the first argument means a coordinate
                    // (possibly misnamed); anything else means the author
                    // used an unknown function.
                    if let Token::Ident(first) = self.peek() {
                        let next = &self.tokens[(self.at + 1).min(self.tokens.len() - 1)].token;
                        if *next != Token::LParen {
                            if *first != self.x_var {
                                return Err(ParseError::BadCoordinate {
                                    var: first.clone(),
                                    expected: self.x_var.clone(),
                                    pos: self.pos(),
                                });
                            }
                            return self.tap(name, pos);
                        }
                    }
                    return Err(ParseError::UnknownFunction { func: name, pos });
                }
                // Built-in call.
                let mut args = Vec::new();
                if *self.peek() != Token::RParen {
                    args.push(self.expr()?);
                    while *self.peek() == Token::Comma {
                        self.bump();
                        args.push(self.expr()?);
                    }
                }
                self.expect(&Token::RParen, "`)`")?;
                let arity = match name.as_str() {
                    "abs" => 1,
                    "min" | "max" => 2,
                    "clamp" | "select" => 3,
                    _ => unreachable!("builtin set checked above"),
                };
                if args.len() != arity {
                    return Err(ParseError::BadArity {
                        func: name,
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
    fn tap(&mut self, stage: String, pos: Pos) -> Result<AstExpr, ParseError> {
        let dx = self.coord(false)?;
        self.expect(&Token::Comma, "`,`")?;
        let dy = self.coord(true)?;
        self.expect(&Token::RParen, "`)`")?;
        Ok(AstExpr::Tap { stage, dx, dy, pos })
    }

    /// Parses `VAR`, `VAR+N`, or `VAR-N`, where `VAR` is the stage's x
    /// (or, with `is_y`, y) coordinate variable, returning the signed
    /// offset.
    fn coord(&mut self, is_y: bool) -> Result<i32, ParseError> {
        let pos = self.pos();
        let var = if is_y { &self.y_var } else { &self.x_var };
        match self.peek() {
            Token::Ident(name) if name == var => self.bump(),
            Token::Ident(name) => {
                return Err(ParseError::BadCoordinate {
                    var: name.clone(),
                    expected: var.clone(),
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
        match *self.peek() {
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
