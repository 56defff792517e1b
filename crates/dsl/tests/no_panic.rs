//! The front door must never panic: `imagen_dsl::compile` is the path
//! every *external* program takes into the compiler (the `imagen` CLI
//! feeds it arbitrary user files, the batch server arbitrary request
//! payloads), so for any input — valid, hostile, or random garbage — it
//! must return `Ok` or a positioned `Err`, never unwind.
//!
//! Three generators attack from different angles:
//!
//! * raw byte soup (exercises the lexer's error paths);
//! * token soup assembled from the language's own lexemes (parses far
//!   deeper before failing, exercising parser/lowerer error paths);
//! * structured-ish programs with extreme numbers and offsets
//!   (exercises overflow guards: literal bounds, window-span bounds).

use proptest::prelude::*;

/// Compiles and asserts the result is a value, not a panic. Also checks
/// every reported error renders (`Display`) and carries a sane position.
fn assert_total(src: &str) -> Result<(), TestCaseError> {
    match imagen_dsl::compile("fuzz", src) {
        Ok(dag) => {
            prop_assert!(dag.num_stages() > 0, "valid programs have stages");
        }
        Err(e) => {
            let msg = e.to_string();
            prop_assert!(!msg.is_empty(), "errors must render");
            if let Some(pos) = e.pos() {
                prop_assert!(pos.line >= 1 && pos.col >= 1, "1-based span: {pos}");
            }
        }
    }
    Ok(())
}

/// The language's own lexemes plus near-miss fragments.
const LEXEMES: &[&str] = &[
    "input",
    "output",
    "im",
    "end",
    "downsample",
    "upsample",
    "abs",
    "min",
    "max",
    "clamp",
    "select",
    "K0",
    "K1",
    "x",
    "y",
    "(",
    ")",
    ",",
    ";",
    "=",
    "+",
    "-",
    "*",
    "/",
    "<<",
    ">>",
    "<",
    "<=",
    ">",
    ">=",
    "==",
    "!=",
    "0",
    "1",
    "255",
    "2147483647",
    "2147483648",
    "9223372036854775807",
    "9223372036854775808",
    "//",
    "/*",
    "*/",
    "\n",
    " ",
    "!",
    "$",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_soup_never_panics(words in proptest::collection::vec(0u16..512, 0..200)) {
        let bytes: Vec<u8> = words.iter().map(|&w| (w & 0xff) as u8).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_total(&src)?;
    }

    #[test]
    fn token_soup_never_panics(picks in proptest::collection::vec(0usize..LEXEMES.len(), 0..120)) {
        let src: String = picks
            .iter()
            .flat_map(|&i| [LEXEMES[i], " "])
            .collect();
        assert_total(&src)?;
    }

    #[test]
    fn extreme_programs_never_panic(
        offsets in (
            -9_200_000_000_000_000_000i64..9_200_000_000_000_000_000,
            -3_000_000_000i64..3_000_000_000,
            -2_200_000i64..2_200_000,
            0i64..9_223_372_036_854_775_807,
        ),
        lit in 0i64..9_223_372_036_854_775_807,
        shift in -65i64..130,
    ) {
        let (dx1, dy1, dx2, dy2) = offsets;
        // Degenerate but well-formed shapes around every numeric guard:
        // huge literals, offsets at/over the i32 edge, window spans at/over
        // the absurdity bound, out-of-range shift amounts.
        let fmt_off = |v: i64| {
            if v < 0 {
                format!("-{}", v.unsigned_abs())
            } else {
                format!("+{v}")
            }
        };
        let src = format!(
            "input a;
             b = im(x,y) a(x{}, y{}) + a(x,y) * {lit} end
             output c = im(x,y) (b(x{}, y{}) + b(x,y)) << ({}) end",
            fmt_off(dx1),
            fmt_off(dy1),
            fmt_off(dx2),
            fmt_off(dy2),
            fmt_off(shift),
        );
        assert_total(&src)?;
    }

    /// Rate-modifier programs around every multirate guard: factors of
    /// 0, 1, powers of two, values at/over `MAX_RATE_FACTOR` (2^20) and
    /// near `i64::MAX`; down/up chains whose cumulative scale may
    /// overflow the bound or rise above the base grid; and a unit-rate
    /// stage tapping two producers whose scales may disagree. Compile
    /// must return `Ok` or a positioned `Err`, never unwind.
    #[test]
    fn rate_modifier_programs_never_panic(
        i1 in 0usize..9,
        i2 in 0usize..9,
        kind1 in 0u8..2,
        kind2 in 0u8..2,
        mismatch in 0u8..2,
    ) {
        // Factors clustered on every multirate guard boundary: zero, the
        // unit rate, small legal values, 2^20 ± 1, and absurd magnitudes.
        const FACTORS: [i64; 9] = [
            0,
            1,
            2,
            3,
            1_048_575,
            1_048_576,
            1_048_577,
            4_294_967_296,
            9_223_372_036_854_775_807,
        ];
        let (f1, f2) = (FACTORS[i1], FACTORS[i2]);
        let word = |k: u8| if k == 0 { "downsample" } else { "upsample" };
        let tail = if mismatch == 1 {
            // Taps `a` (base grid) next to `c` (whatever grid the chain
            // landed on): rate-mismatch rejection path.
            "output o = im(x,y) a(x,y) + c(x,y) end"
        } else {
            "output o = im(x,y) c(x,y) + c(x+1,y) end"
        };
        let src = format!(
            "input a;
             b = {}({f1}, {f2}) im(x,y) a(x,y) end
             c = {}({f2}, {f1}) im(x,y) b(x,y) + b(x+1,y+1) end
             {tail}",
            word(kind1),
            word(kind2),
        );
        assert_total(&src)?;
    }
}

/// Deterministic regressions for shapes the fuzzers found or the audit
/// flagged: each line previously panicked or silently miscompiled.
#[test]
fn audit_corpus_is_total() {
    let cases: &[&str] = &[
        "",                                                                         // empty program
        ";",                                                               // lone separator
        "input",                                                           // cut off mid-item
        "input a; output b = im(x,y) a(x,y)",                              // missing `end`
        "output b = im(x,y) 7 end", // constant-only, no input
        "input a; output b = im(x,y) b(x,y) end", // self-reference
        "input a; output b = im(x,y) a(x-2147483649,y) end", // offset < i32::MIN
        "input a; output b = im(x,y) a(x+9223372036854775808,y) end", // > i64::MAX
        "input a; output b = im(x,y) a(x-1048577,y) + a(x+1048577,y) end", // span blowout
        "input a; output b = im(x,y) a(x-2147483648, y+2147483647) end", // i32 extremes
        "input a; output b = im(x,y) min(a(x,y)) end", // arity
        "input a; output b = im(x,y) frob(a(x,y)) end", // unknown function
        "input a; output b = im(u,v) a(x,y) end", // wrong coordinates
        "input a; input a; output b = im(x,y) a(x,y) end", // duplicate
        "input a; output b = im(x,y) a(x,y) / 0 end", // constant zero divide
        "input a; output b = im(x,y) -9223372036854775807 * a(x,y) end", // negated max
        "input a; output b = downsample(0,2) im(x,y) a(x,y) end", // zero factor
        "input a; output b = downsample(1048577,1) im(x,y) a(x,y) end", // > MAX_RATE_FACTOR
        "input a; output b = downsample(9223372036854775808,1) im(x,y) a(x,y) end", // > i64::MAX
        "input a; output b = upsample(2,2) im(x,y) a(x,y) end", // above the base grid
        "input a; output b = downsample(-2,2) im(x,y) a(x,y) end", // negative factor
        "input a; output b = downsample(2) im(x,y) a(x,y) end", // arity
        "input a; output b = downsample(2,2) im(x,y) a(x,y)", // rated, missing `end`
        "input a; b = downsample(1048576,1) im(x,y) a(x,y) end
         output c = downsample(1048576,1) im(x,y) b(x,y) end", // cumulative scale blowout
        "input downsample; output b = im(x,y) downsample(x,y) end", // contextual word as name
        "input a; upsample = downsample(2,2) im(x,y) a(x,y) end
         output o = upsample(2,2) im(x,y) upsample(x,y) end", // contextual word as stage
    ];
    for src in cases {
        match imagen_dsl::compile("corpus", src) {
            Ok(_) | Err(_) => {}
        }
    }
    // Hostile nesting / chain shapes (stack-overflow class): built here
    // instead of string literals. Each must error via the size budgets.
    let owned: Vec<String> = vec![
        format!(
            "input a; output b = im(x,y) {}a(x,y){} end",
            "(".repeat(200_000),
            ")".repeat(200_000)
        ),
        format!(
            "input a; output b = im(x,y) {}a(x,y) end",
            "-".repeat(200_000)
        ),
        format!(
            "input a; output b = im(x,y) a(x,y){} end",
            " + a(x,y)".repeat(200_000)
        ),
        format!(
            "input a; output b = im(x,y) a(x,y){} end",
            " >> 1".repeat(200_000)
        ),
        format!(
            "input a; output b = im(x,y) min(a(x,y), {}a(x,y){}) end",
            "abs(".repeat(200_000),
            ")".repeat(200_000)
        ),
        // Unbalanced tower: errors at EOF, after deep partial state.
        format!("input a; output b = im(x,y) {}a(x,y)", "(".repeat(200_000)),
    ];
    for src in &owned {
        assert!(
            imagen_dsl::compile("corpus", src).is_err(),
            "hostile nesting must error"
        );
    }
}
