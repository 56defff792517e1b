//! DSL lints: pre-lowering checks over the AST.
//!
//! These run on the [`Program`] rather than the lowered DAG because the
//! lowerer *rejects* several of the shapes linted here (dead stages, for
//! one), and because only the AST still carries source positions and the
//! constant structure the `W0105` fold check needs.

use crate::width::MAX_TAP_REACH;
use crate::{codes, Diagnostic, Locus, Severity};
use imagen_dsl::{AstRate, Item, Pos, Program};
use imagen_ir::MAX_RATE_FACTOR;
use imagen_mem::ImageGeometry;
use std::collections::{HashMap, HashSet};

fn src(pos: Pos) -> Locus {
    Locus::Source {
        line: pos.line,
        col: pos.col,
    }
}

/// Runs every DSL lint over a parsed program against `geom`'s frame.
pub(crate) fn lint_program(program: &Program<'_>, geom: &ImageGeometry) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Each stage's distinct producers, in first-tap order with the first
    // tap's position; nothing for an input.
    let producers: Vec<Vec<(&str, Pos)>> = program
        .items
        .iter()
        .map(|item| match item {
            Item::Stage { body, .. } => body.producers(),
            Item::Input { .. } => Vec::new(),
        })
        .collect();

    // Which names each stage taps, in item order.
    let mut tapped: HashSet<&str> = HashSet::new();
    let mut taps_of: HashMap<&str, Vec<&str>> = HashMap::new();
    for (item, prods) in program.items.iter().zip(&producers) {
        if let Item::Stage { name, .. } = item {
            let entry = taps_of.entry(name).or_default();
            for &(stage, _) in prods {
                tapped.insert(stage);
                entry.push(stage);
            }
        }
    }

    // Backward reachability from the output stages over tap edges.
    let mut live: HashSet<&str> = HashSet::new();
    let mut work: Vec<&str> = Vec::new();
    for item in &program.items {
        if let Item::Stage {
            name, output: true, ..
        } = item
        {
            if live.insert(name) {
                work.push(name);
            }
        }
    }
    while let Some(n) = work.pop() {
        for &p in taps_of.get(n).into_iter().flatten() {
            if live.insert(p) {
                work.push(p);
            }
        }
    }

    // Unused / unreachable items, in source order.
    for item in &program.items {
        match item {
            Item::Input { name, pos } => {
                if !tapped.contains(name) {
                    diags.push(
                        Diagnostic::new(
                            codes::UNUSED_INPUT,
                            Severity::Warning,
                            format!("input `{name}` is never read"),
                        )
                        .at(src(*pos)),
                    );
                }
            }
            Item::Stage {
                name,
                output: false,
                pos,
                ..
            } => {
                if !tapped.contains(name) {
                    diags.push(
                        Diagnostic::new(
                            codes::UNUSED_STAGE,
                            Severity::Warning,
                            format!("stage `{name}` is never used"),
                        )
                        .at(src(*pos)),
                    );
                } else if !live.contains(name) {
                    diags.push(
                        Diagnostic::new(
                            codes::NO_PATH_TO_SINK,
                            Severity::Warning,
                            format!("stage `{name}` has no path to any output"),
                        )
                        .at(src(*pos)),
                    );
                }
            }
            Item::Stage { .. } => {}
        }
    }

    // Suspicious tap reach, in tap order.
    for item in &program.items {
        if let Item::Stage { body, .. } = item {
            body.for_each_tap(&mut |stage, dx, dy, pos| {
                if dx.abs() > MAX_TAP_REACH || dy.abs() > MAX_TAP_REACH {
                    diags.push(
                        Diagnostic::new(
                            codes::TAP_REACH,
                            Severity::Warning,
                            format!(
                                "tap into `{stage}` at offset ({dx:+}, {dy:+}) exceeds the \
                                 expected stencil reach of {MAX_TAP_REACH}"
                            ),
                        )
                        .at(src(pos)),
                    );
                }
            });
        }
    }

    // Multirate structure, mirroring the lowerer's cumulative-scale
    // composition over the AST. Stages whose rate factors are out of
    // range, whose upsample would rise above the base grid, or whose
    // producers are undeclared are skipped here — lowering owns those
    // rejections (`E0002`); the lints below cover shapes that *lower*
    // fine but then trip the planner (indivisible extents) or that
    // deserve a source position before the lowerer's flat error
    // (producers at mismatched scales under one kernel).
    let mut scales: HashMap<&str, (u64, u64)> = HashMap::new();
    for (item, prods) in program.items.iter().zip(&producers) {
        match item {
            Item::Input { name, .. } => {
                scales.insert(name, (1, 1));
            }
            Item::Stage { name, rate, .. } => {
                let known: Vec<(&str, (u64, u64), Pos)> = prods
                    .iter()
                    .filter_map(|&(s, p)| scales.get(s).map(|&sc| (s, sc, p)))
                    .collect();
                let Some(&(base_name, base, _)) = known.first() else {
                    continue;
                };
                for &(s, sc, pos) in &known[1..] {
                    if sc != base {
                        diags.push(
                            Diagnostic::new(
                                codes::RATE_MISMATCH,
                                Severity::Warning,
                                format!(
                                    "stage `{name}` taps `{s}` at cumulative scale \
                                     ({}, {}) alongside `{base_name}` at ({}, {}); \
                                     all producers of one stage must sit on the same grid",
                                    sc.0, sc.1, base.0, base.1
                                ),
                            )
                            .at(src(pos)),
                        );
                    }
                }
                let own = match *rate {
                    AstRate::Unit => Some(base),
                    AstRate::Down { fx, fy, .. } => (fx > 0
                        && fy > 0
                        && fx as u64 <= MAX_RATE_FACTOR
                        && fy as u64 <= MAX_RATE_FACTOR)
                        .then(|| (base.0 * fx as u64, base.1 * fy as u64))
                        .filter(|&(cx, cy)| cx <= MAX_RATE_FACTOR && cy <= MAX_RATE_FACTOR),
                    AstRate::Up { fx, fy, .. } => {
                        (fx > 0 && fy > 0 && base.0 % fx as u64 == 0 && base.1 % fy as u64 == 0)
                            .then(|| (base.0 / fx as u64, base.1 / fy as u64))
                    }
                };
                let Some((cx, cy)) = own else { continue };
                scales.insert(name, (cx, cy));
                // Report indivisible extents once, at the modifier that
                // introduces the offending scale — inherited unit-rate
                // stages downstream share the same root cause.
                let divides = u64::from(geom.width) % cx == 0 && u64::from(geom.height) % cy == 0;
                let inherited =
                    u64::from(geom.width) % base.0 == 0 && u64::from(geom.height) % base.1 == 0;
                if !divides && inherited {
                    if let AstRate::Down { pos, .. } | AstRate::Up { pos, .. } = *rate {
                        diags.push(
                            Diagnostic::new(
                                codes::RATE_INDIVISIBLE,
                                Severity::Warning,
                                format!(
                                    "stage `{name}` runs at cumulative scale ({cx}, {cy}), \
                                     which does not divide the {}x{} frame; the planner \
                                     will reject this geometry",
                                    geom.width, geom.height
                                ),
                            )
                            .at(src(pos)),
                        );
                    }
                }
            }
        }
    }

    // Constant-foldable subexpressions: maximal non-literal const subtrees.
    for item in &program.items {
        if let Item::Stage { name, body, .. } = item {
            body.for_each_maximal_const(&mut |value| {
                diags.push(
                    Diagnostic::new(
                        codes::CONST_FOLD,
                        Severity::Warning,
                        format!("subexpression in stage `{name}` always evaluates to {value}"),
                    )
                    .at(Locus::Stage(name.to_string())),
                );
            });
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_dsl::{parse_program, MAX_EXPR_CHAIN};

    fn lint(src: &str) -> Vec<Diagnostic> {
        let geom = ImageGeometry {
            width: 64,
            height: 48,
            pixel_bits: 16,
        };
        lint_program(&parse_program(src).unwrap(), &geom)
    }

    #[test]
    fn clean_program_is_quiet() {
        let d = lint("input a; output b = im(x,y) a(x-1,y) + a(x+1,y) end");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_stage_and_input() {
        let d = lint(
            "input a; input ghost;\n\
             dead = im(x,y) a(x,y) + 1 end\n\
             output o = im(x,y) a(x,y) end",
        );
        let got: Vec<_> = d.iter().map(|x| x.code).collect();
        assert_eq!(got, vec![codes::UNUSED_INPUT, codes::UNUSED_STAGE]);
        assert!(d[0].message.contains("ghost"));
        assert!(d[1].message.contains("dead"));
    }

    #[test]
    fn no_path_to_sink_is_distinct_from_unused() {
        // `b` is read (by `c`), but `c` itself is dead, so `b` never
        // reaches an output.
        let d = lint(
            "input a;\n\
             b = im(x,y) a(x,y) end\n\
             c = im(x,y) b(x,y) * 2 end\n\
             output o = im(x,y) a(x,y) end",
        );
        let got: Vec<_> = d.iter().map(|x| x.code).collect();
        assert_eq!(got, vec![codes::NO_PATH_TO_SINK, codes::UNUSED_STAGE]);
        assert!(d[0].message.contains('b'));
        assert!(d[1].message.contains('c'));
    }

    #[test]
    fn excessive_tap_reach() {
        let d = lint("input a; output o = im(x,y) a(x, y - 40) end");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::TAP_REACH);
        assert!(d[0].message.contains("-40"), "{}", d[0].message);
        assert!(matches!(d[0].locus, Locus::Source { .. }));
    }

    #[test]
    fn constant_fold_reports_maximal_subtree_once() {
        let d = lint("input a; output o = im(x,y) a(x,y) * (2 + 3 * 4) end");
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::CONST_FOLD);
        assert!(d[0].message.contains("14"), "{}", d[0].message);
    }

    #[test]
    fn folds_report_in_source_order() {
        let d = lint(
            "input a; output o = im(x,y) \
             a(x,y) * (2 + 3) + min(4, 5) - (a(x-1,y) + 6 * 7) + -8 end",
        );
        let folds: Vec<&str> = d.iter().map(|x| x.message.as_str()).collect();
        let want: Vec<String> = [5, 4, 42, -8]
            .iter()
            .map(|v| format!("subexpression in stage `o` always evaluates to {v}"))
            .collect();
        assert_eq!(folds, want);
    }

    #[test]
    fn longest_chains_fold_once() {
        // A chain at the parser's limit whose innermost leaf is a tap:
        // every link is on the tap's spine, so nothing folds ...
        let d = lint(&format!(
            "input a; output o = im(x,y) a(x,y){} end",
            " + 1".repeat(MAX_EXPR_CHAIN - 1)
        ));
        assert!(d.is_empty(), "{d:?}");
        // ... and an all-constant chain folds once, as a whole.
        let d = lint(&format!(
            "input a; output o = im(x,y) 1{} end",
            " + 1".repeat(MAX_EXPR_CHAIN - 1)
        ));
        let folds: Vec<_> = d.iter().filter(|x| x.code == codes::CONST_FOLD).collect();
        assert_eq!(folds.len(), 1, "{d:?}");
        assert!(
            folds[0]
                .message
                .ends_with(&format!("always evaluates to {MAX_EXPR_CHAIN}")),
            "{}",
            folds[0].message
        );
    }

    #[test]
    fn bare_literals_are_not_fold_candidates() {
        let d = lint("input a; output o = im(x,y) a(x,y) + 7 end");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn divisible_multirate_pipeline_is_quiet() {
        // 64x48 divides by (2, 2): no rate diagnostics.
        let d = lint(
            "input a;\n\
             h = downsample(2,2) im(x,y) a(x,y) end\n\
             output o = upsample(2,2) im(x,y) h(x,y) end",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn indivisible_extent_flagged_at_the_modifier() {
        // 48 % 5 != 0: the downsample introduces a scale the frame
        // cannot tile.
        let d = lint(
            "input a;\n\
             output o = downsample(5,5) im(x,y) a(x,y) end",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::RATE_INDIVISIBLE);
        assert!(d[0].message.contains("(5, 5)"), "{}", d[0].message);
        assert!(matches!(d[0].locus, Locus::Source { line: 2, .. }));
    }

    #[test]
    fn indivisible_extent_reported_once_not_per_downstream_stage() {
        // The unit-rate consumer inherits the same indivisible scale but
        // shares the root cause — one diagnostic, at the modifier.
        let d = lint(
            "input a;\n\
             h = downsample(5,5) im(x,y) a(x,y) end\n\
             output o = im(x,y) h(x,y) end",
        );
        let rate: Vec<_> = d
            .iter()
            .filter(|x| x.code == codes::RATE_INDIVISIBLE)
            .collect();
        assert_eq!(rate.len(), 1, "{d:?}");
    }

    #[test]
    fn rate_mismatched_taps_flagged_with_both_scales() {
        // `o` taps full-rate `a` alongside half-rate `h`.
        let d = lint(
            "input a;\n\
             h = downsample(2,2) im(x,y) a(x,y) end\n\
             output o = im(x,y) a(x,y) + h(x,y) end",
        );
        let m: Vec<_> = d
            .iter()
            .filter(|x| x.code == codes::RATE_MISMATCH)
            .collect();
        assert_eq!(m.len(), 1, "{d:?}");
        assert!(m[0].message.contains("(2, 2)"), "{}", m[0].message);
        assert!(m[0].message.contains("(1, 1)"), "{}", m[0].message);
        assert!(matches!(m[0].locus, Locus::Source { line: 3, .. }));
    }

    #[test]
    fn hostile_rate_shapes_do_not_confuse_the_lint() {
        // Shapes the lowerer rejects (upsampling above the base grid,
        // runaway cumulative downsampling past MAX_RATE_FACTOR) and taps
        // into undeclared names: the lint skips them without arithmetic
        // overflow and without spurious rate diagnostics.
        for src_text in [
            "input a; output o = upsample(2,2) im(x,y) a(x,y) end",
            "output o = downsample(2,2) im(x,y) ghost(x,y) end",
        ] {
            let d = lint(src_text);
            assert!(
                d.iter().all(|x| x.code != codes::RATE_INDIVISIBLE),
                "{src_text}: {d:?}"
            );
        }
        // A cumulative scale that would exceed MAX_RATE_FACTOR: the
        // first (in-range, genuinely indivisible) modifier is reported;
        // the runaway second stage is skipped, not overflowed.
        let d = lint(
            "input a;\n\
             d1 = downsample(1048576,1) im(x,y) a(x,y) end\n\
             output o = downsample(1048576,1) im(x,y) d1(x,y) end",
        );
        let rate: Vec<_> = d
            .iter()
            .filter(|x| x.code == codes::RATE_INDIVISIBLE)
            .collect();
        assert_eq!(rate.len(), 1, "{d:?}");
        assert!(rate[0].message.contains("`d1`"), "{}", rate[0].message);
    }
}
