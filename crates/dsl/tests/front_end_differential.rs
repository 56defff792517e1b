//! The shipped front end against the one it replaced.
//!
//! `reference/` holds the previous lexer, parser and lowering: owned
//! tokens lexed in full before parsing, one recursive function per
//! precedence level, hash lookups per tap. On every input below both must
//! agree exactly: the token stream, the AST (names converted), every
//! `LexError`, `ParseError` and `LowerError` (`Debug`, `Display` and
//! `pos()`), and the lowered DAG's fingerprint. The inputs are the
//! example programs, the analyzer's fixtures, printed synthetic pipelines
//! of 9–60 stages, programs at the parser's edges, and one-character
//! deletions, duplications and substitutions of them.
//! `PROPTEST_SHIM_SEED` moves the mutations.

mod reference;

use imagen_dsl::{AstExpr, AstRate, Item, Program, Token, MAX_EXPR_CHAIN, MAX_EXPR_DEPTH};
use proptest::prelude::*;
use reference::ast as r;
use std::path::Path;

/// Converts a shipped AST to the reference's owned form.
fn owned_program(p: &Program<'_>) -> r::Program {
    r::Program {
        items: p.items.iter().map(owned_item).collect(),
    }
}

fn owned_item(item: &Item<'_>) -> r::Item {
    match item {
        Item::Input { name, pos } => r::Item::Input {
            name: name.to_string(),
            pos: owned_pos(*pos),
        },
        Item::Stage {
            name,
            output,
            x_var,
            y_var,
            body,
            rate,
            pos,
        } => r::Item::Stage {
            name: name.to_string(),
            output: *output,
            x_var: x_var.to_string(),
            y_var: y_var.to_string(),
            body: owned_expr(body),
            rate: match *rate {
                AstRate::Unit => r::AstRate::Unit,
                AstRate::Down { fx, fy, pos } => r::AstRate::Down {
                    fx,
                    fy,
                    pos: owned_pos(pos),
                },
                AstRate::Up { fx, fy, pos } => r::AstRate::Up {
                    fx,
                    fy,
                    pos: owned_pos(pos),
                },
            },
            pos: owned_pos(*pos),
        },
    }
}

fn owned_expr(e: &AstExpr<'_>) -> r::AstExpr {
    match e {
        AstExpr::Number(n) => r::AstExpr::Number(*n),
        AstExpr::Tap { stage, dx, dy, pos } => r::AstExpr::Tap {
            stage: stage.to_string(),
            dx: *dx,
            dy: *dy,
            pos: owned_pos(*pos),
        },
        AstExpr::Neg(a) => r::AstExpr::Neg(Box::new(owned_expr(a))),
        AstExpr::Call { func, args, pos } => r::AstExpr::Call {
            func: func.to_string(),
            args: args.iter().map(owned_expr).collect(),
            pos: owned_pos(*pos),
        },
        AstExpr::Bin { op, lhs, rhs } => r::AstExpr::Bin {
            op,
            lhs: Box::new(owned_expr(lhs)),
            rhs: Box::new(owned_expr(rhs)),
        },
    }
}

fn owned_pos(p: imagen_dsl::Pos) -> reference::token::Pos {
    reference::token::Pos {
        line: p.line,
        col: p.col,
    }
}

fn owned_token(t: Token<'_>) -> reference::token::Token {
    use reference::token::Token as R;
    match t {
        Token::Input => R::Input,
        Token::Output => R::Output,
        Token::Im => R::Im,
        Token::End => R::End,
        Token::Ident(s) => R::Ident(s.to_string()),
        Token::Number(n) => R::Number(n),
        Token::LParen => R::LParen,
        Token::RParen => R::RParen,
        Token::Comma => R::Comma,
        Token::Semi => R::Semi,
        Token::Assign => R::Assign,
        Token::Plus => R::Plus,
        Token::Minus => R::Minus,
        Token::Star => R::Star,
        Token::Slash => R::Slash,
        Token::Shl => R::Shl,
        Token::Shr => R::Shr,
        Token::Lt => R::Lt,
        Token::Le => R::Le,
        Token::Gt => R::Gt,
        Token::Ge => R::Ge,
        Token::EqEq => R::EqEq,
        Token::Ne => R::Ne,
        Token::Eof => R::Eof,
    }
}

/// The fold the `W0105` lint reported before it folded in one walk:
/// `const_value` again at every node.
fn maximal_consts_by_refolding(e: &r::AstExpr, out: &mut Vec<i64>) {
    if matches!(e, r::AstExpr::Number(_)) {
        return;
    }
    if let Some(v) = e.const_value() {
        out.push(v);
        return;
    }
    match e {
        r::AstExpr::Number(_) | r::AstExpr::Tap { .. } => {}
        r::AstExpr::Neg(a) => maximal_consts_by_refolding(a, out),
        r::AstExpr::Call { args, .. } => {
            for a in args {
                maximal_consts_by_refolding(a, out);
            }
        }
        r::AstExpr::Bin { lhs, rhs, .. } => {
            maximal_consts_by_refolding(lhs, out);
            maximal_consts_by_refolding(rhs, out);
        }
    }
}

/// Both front ends on `src`: tokens, AST, errors, fingerprint, and the
/// AST queries the analyzer's lints make. Returns whether it parsed.
fn agree(name: &str, src: &str) -> Result<bool, TestCaseError> {
    let ctx = || format!("{name}: {src:?}");
    match (imagen_dsl::lex(src), reference::token::lex(src)) {
        (Ok(ts), Ok(rs)) => {
            let converted: Vec<_> = ts
                .iter()
                .map(|t| reference::token::Spanned {
                    token: owned_token(t.token),
                    pos: owned_pos(t.pos),
                })
                .collect();
            prop_assert_eq!(converted, rs, "tokens of {}", ctx());
        }
        (Err(e), Err(re)) => {
            prop_assert_eq!(format!("{e:?}"), format!("{re:?}"), "{}", ctx());
            prop_assert_eq!(e.to_string(), re.to_string(), "{}", ctx());
        }
        (t, r) => prop_assert!(false, "lex {:?} vs {:?}: {}", t.err(), r.err(), ctx()),
    }
    let (program, ref_program) = match (
        imagen_dsl::parse_program(src),
        reference::parser::parse_program(src),
    ) {
        (Ok(p), Ok(rp)) => (p, rp),
        (Err(e), Err(re)) => {
            prop_assert_eq!(format!("{e:?}"), format!("{re:?}"), "{}", ctx());
            prop_assert_eq!(e.to_string(), re.to_string(), "{}", ctx());
            prop_assert_eq!(owned_pos(e.pos()), re.pos(), "{}", ctx());
            return Ok(false);
        }
        (p, rp) => {
            return Err(TestCaseError::fail(format!(
                "parse {:?} vs {:?}: {}",
                p.err(),
                rp.err(),
                ctx()
            )))
        }
    };
    prop_assert_eq!(
        owned_program(&program),
        ref_program.clone(),
        "AST of {}",
        ctx()
    );

    for (item, ref_item) in program.items.iter().zip(&ref_program.items) {
        if let (Item::Stage { body, .. }, r::Item::Stage { body: ref_body, .. }) = (item, ref_item)
        {
            let mut folds = Vec::new();
            body.for_each_maximal_const(&mut |v| folds.push(v));
            let mut ref_folds = Vec::new();
            maximal_consts_by_refolding(ref_body, &mut ref_folds);
            prop_assert_eq!(folds, ref_folds, "W0105 folds of {}", ctx());
            // The multirate lint's producer list, deduplicated by a scan.
            let mut scanned = Vec::new();
            body.for_each_tap(&mut |stage, _, _, pos| {
                if !scanned.iter().any(|&(s, _)| s == stage) {
                    scanned.push((stage, pos));
                }
            });
            prop_assert_eq!(body.producers(), scanned, "producers of {}", ctx());
        }
    }

    match (
        imagen_dsl::lower(name, &program),
        reference::lower::lower(name, &ref_program),
    ) {
        (Ok(dag), Ok(ref_dag)) => {
            prop_assert_eq!(dag.fingerprint(), ref_dag.fingerprint(), "{}", ctx());
            prop_assert_eq!(dag.stage_scales(), ref_dag.stage_scales(), "{}", ctx());
        }
        (Err(e), Err(re)) => {
            prop_assert_eq!(format!("{e:?}"), format!("{re:?}"), "{}", ctx());
            prop_assert_eq!(e.to_string(), re.to_string(), "{}", ctx());
            prop_assert_eq!(e.pos().map(owned_pos), re.pos(), "{}", ctx());
        }
        (d, rd) => prop_assert!(false, "lower {:?} vs {:?}: {}", d.err(), rd.err(), ctx()),
    }
    Ok(true)
}

/// `(name, source)` of every `.imagen` file in `dir`, sorted by name.
fn imagen_files(dir: &Path) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "imagen"))
        .map(|p| {
            let name = p
                .file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let src = std::fs::read_to_string(&p).expect("readable program");
            (name, src)
        })
        .collect();
    out.sort();
    out
}

/// Shapes the other programs lack: block comments holding multi-byte
/// characters with tokens after them on the same line, a `/*/` that
/// does not close, custom coordinate names, rates, every operator and
/// built-in.
const HANDWRITTEN: &str = "/* é */ input a; // ñ → ü
/*/ still a comment ×*/ h = downsample(2, 2) im(u, v) a(u-1, v+1) /* ü */ end;
output o = upsample(2,2) im(x,y) select(h(x,y) != 0, clamp(-h(x,y) * 3 / 2, 0, 255), \
    min(abs(h(x+1,y) << 1), max(h(x,y-1) >> 1, 7))) + (h(x,y) <= 4) \
    - (h(x,y) == 5) * (h(x,y) > 1) + (h(x,y) >= 2) - (h(x,y) < 3) end
";

/// The unmutated corpus: 10 examples, the analyzer's fixtures, 30
/// printed synthetic pipelines of 9–60 stages and [`HANDWRITTEN`].
fn corpus() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let examples = imagen_files(&root.join("examples"));
    assert_eq!(examples.len(), 10, "the example corpus");
    let fixtures = imagen_files(&root.join("crates/analysis/tests/fixtures"));
    assert!(!fixtures.is_empty(), "the analyzer fixtures");
    let synthetic = (0..30u64).map(|i| {
        let stages = 9 + (i as usize * 51) / 29;
        let dag = imagen_algos::synthetic_pipeline(stages, 0x5eed_0000 + i);
        (dag.name().to_string(), imagen_dsl::to_dsl(&dag))
    });
    let handwritten = ("handwritten".to_string(), HANDWRITTEN.to_string());
    examples
        .into_iter()
        .chain(fixtures)
        .chain(synthetic)
        .chain([handwritten])
        .collect()
}

#[test]
fn front_ends_agree_on_the_corpus() {
    let corpus = corpus();
    let mut parsed = 0;
    for (name, src) in &corpus {
        if agree(name, src).unwrap_or_else(|e| panic!("{e}")) {
            parsed += 1;
        }
    }
    // Only the parse-error fixture fails to parse.
    assert_eq!(parsed, corpus.len() - 1);
}

/// Programs at the parser's edges: chained comparisons, operator chains
/// and nesting at and past their limits, comparisons outside the chain
/// budget, lexical errors before and after syntax errors.
fn edge_shapes() -> Vec<(String, String)> {
    let body = |b: &str| format!("input a; output b = im(x,y) {b} end");
    let links = |n: usize, op: &str| format!("a(x,y){}", format!(" {op} 1").repeat(n));
    let nest = |n: usize| format!("{}a(x,y){}", "(".repeat(n), ")".repeat(n));
    let shapes = [
        body("a(x,y) < 1 < 2"),
        body("a(x,y) < 1 + 2 * 3 > 4"),
        body("(a(x,y) < 1) < 2 == (3 >= a(x,y))"),
        body("a(x,y) + 1 < 2 * 3 - a(x-1,y) / 4 << 1 >> 2"),
        body("select(a(x,y) < 1 < 2, 3)"),
        body("- - -a(x,y) - -1"),
        body(&links(MAX_EXPR_CHAIN, "+")),
        body(&links(MAX_EXPR_CHAIN + 1, "+")),
        body(&(links(MAX_EXPR_CHAIN, "-") + " * 2")),
        body(&(links(MAX_EXPR_CHAIN, "<<") + " < 5")),
        body(&format!("{} < {}", links(200, "*"), links(185, "/"))),
        body(&format!("{} < {}", links(200, "*"), links(184, "/"))),
        body(&nest(MAX_EXPR_DEPTH - 1)),
        body(&nest(MAX_EXPR_DEPTH)),
        body(&format!("{}a(x,y)", "-".repeat(MAX_EXPR_DEPTH))),
        body(&format!(
            "min({}a(x,y)), 1)",
            "abs(".repeat(MAX_EXPR_DEPTH - 2)
        )),
        "input ; output b = im(x,y) a(x,y) $ end".to_string(),
        "input $; output b = im(x,y) a(x,y) end".to_string(),
        "input a output b = im(x,y) a(x,y) + 99999999999999999999 end".to_string(),
        "input a; output b = im(x,y) a(x,y) /* é".to_string(),
        "input a; output b = im(x,y) a(x,y) !".to_string(),
    ];
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, src)| (format!("edge{i}"), src))
        .collect()
}

#[test]
fn front_ends_agree_on_edge_shapes() {
    for (name, src) in edge_shapes() {
        agree(&name, &src).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Characters a substitution writes: the language's own, a letter of
/// each coordinate and producer shape, and characters outside it.
const SUBSTITUTES: &[char] = &[
    '(', ')', ',', ';', '=', '+', '-', '*', '/', '<', '>', '!', 'x', 'y', 'a', 'K', '_', '0', '1',
    '9', ' ', '\n', '$', 'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6_000))]

    /// One-character deletions, duplications and substitutions of the
    /// corpus and the edge shapes: 6,000 per run, spread evenly over the
    /// three kinds.
    #[test]
    fn front_ends_agree_on_one_character_mutations(
        pick in 0usize..1_000_000,
        at in 0usize..1_000_000,
        kind in 0u8..3,
        sub in 0usize..SUBSTITUTES.len(),
    ) {
        thread_local! {
            static CORPUS: Vec<(String, String)> =
                corpus().into_iter().chain(edge_shapes()).collect();
        }
        CORPUS.with(|corpus| {
            let (name, src) = &corpus[pick % corpus.len()];
            let chars: Vec<(usize, char)> = src.char_indices().collect();
            let (i, c) = chars[at % chars.len()];
            let mut mutated = String::with_capacity(src.len() + 2);
            mutated.push_str(&src[..i]);
            match kind {
                0 => {}
                1 => {
                    mutated.push(c);
                    mutated.push(c);
                }
                _ => mutated.push(SUBSTITUTES[sub]),
            }
            mutated.push_str(&src[i + c.len_utf8()..]);
            agree(name, &mutated).map(|_| ())
        })?;
    }
}
