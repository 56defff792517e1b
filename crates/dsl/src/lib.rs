//! # imagen-dsl
//!
//! The Darkroom-like domain-specific language front end of the [ImaGen]
//! accelerator generator (paper Sec. 4).
//!
//! Programs are sequences of stage definitions; each stage is a stencil
//! expression over windows of earlier stages:
//!
//! ```text
//! input K0;
//! // K1 reads a 3x3 window from K0
//! K1 = im(x,y) K0(x-1,y-1) + K0(x,y-1) + ... + K0(x+1,y+1) end
//! output K2 = im(x,y) K0(x,y) + K1(x-1,y-1) + ... + K1(x+1,y+1) end
//! ```
//!
//! [`compile`] takes source text to a validated [`imagen_ir::Dag`];
//! [`to_dsl`] prints a DAG back as source (round-trip tested). Built-in
//! functions: `abs`, `min`, `max`, `clamp`, `select`; operators:
//! `+ - * / << >>` and comparisons producing 0/1.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352
//!
//! # Examples
//!
//! ```
//! let dag = imagen_dsl::compile("blur", "
//!     input raw;
//!     output blur = im(x,y)
//!         (raw(x-1,y) + raw(x,y) + raw(x+1,y)) / 3
//!     end
//! ")?;
//! assert_eq!(dag.num_stages(), 2);
//! # Ok::<(), imagen_dsl::DslError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod lower;
mod parser;
mod print;
mod token;

pub use ast::{AstExpr, AstRate, Item, Program};
pub use lower::{lower, LowerError};
pub use parser::{parse_program, ParseError, MAX_EXPR_CHAIN, MAX_EXPR_DEPTH};
pub use print::{expr_to_dsl, to_dsl};
pub use token::{lex, LexError, LexErrorKind, Pos, Spanned, Token};

use std::fmt;

/// Any front-end failure: lexing, parsing, or lowering.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DslError {
    /// Syntax error.
    Parse(ParseError),
    /// Name-resolution or structural error.
    Lower(LowerError),
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DslError::Parse(e) => write!(f, "{e}"),
            DslError::Lower(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DslError {}

impl DslError {
    /// Source position of the error, when one is known. Every syntax
    /// error carries one; structural lowering errors (dead stages, no
    /// output, ...) describe the pipeline rather than a span.
    ///
    /// Front ends (the `imagen` CLI, the batch server) use this to point
    /// at the offending source line.
    pub fn pos(&self) -> Option<Pos> {
        match self {
            DslError::Parse(e) => Some(e.pos()),
            DslError::Lower(e) => e.pos(),
        }
    }
}

impl From<ParseError> for DslError {
    fn from(e: ParseError) -> Self {
        DslError::Parse(e)
    }
}

impl From<LowerError> for DslError {
    fn from(e: LowerError) -> Self {
        DslError::Lower(e)
    }
}

/// Compiles DSL source text into a validated pipeline DAG.
///
/// # Errors
///
/// [`DslError`] describing the first syntax or semantic problem, with
/// source positions.
pub fn compile(name: &str, src: &str) -> Result<imagen_ir::Dag, DslError> {
    Ok(lower(name, &parse_program(src)?)?)
}
