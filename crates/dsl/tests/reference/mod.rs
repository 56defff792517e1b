//! The front end the byte lexer replaced: its lexer, parser, AST and
//! lowering, kept verbatim (bar module paths and their unit tests) as the
//! oracle `front_end_differential.rs` compares the shipped front end
//! against. It lexes the whole source into owned tokens before parsing
//! and parses each precedence level by its own recursive function.
#![allow(dead_code)]

pub mod ast;
pub mod lower;
pub mod parser;
pub mod token;
