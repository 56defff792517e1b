//! # imagen-analysis
//!
//! Multi-pass static analyzer for ImaGen pipelines. Where the rest of
//! the workspace proves correctness *dynamically* (golden-vs-netlist
//! differentials, no-panic fuzzing), this crate decides the same
//! properties *statically* — the premise of the source paper is that
//! memory and compute structure are decidable from the DAG and the ILP
//! schedule alone, before a single frame is simulated.
//!
//! Four pass families hang off one [`analyze`] entry point:
//!
//! 1. **DSL lints** (`W01xx`) — unused stages and inputs, stages with no
//!    path to the sink, taps far outside the usual stencil window,
//!    constant-foldable subexpressions. These run on the AST, *before*
//!    lowering, because the lowerer rejects dead stages outright.
//! 2. **Width & overflow dataflow** (`W02xx`/`N02xx`/`E02xx`) — interval
//!    inference over [`imagen_ir::Expr`] kernels propagated through the
//!    DAG, flagging computations that can exceed the accumulator width
//!    or truncate at the output register. Programs this pass certifies
//!    are guaranteed (and differentially tested) to produce identical
//!    frames on the hardware 16/32 and widened 64/64 datapaths.
//! 3. **Schedule invariants** (`W04xx`/`E04xx`) — an independent
//!    re-derivation that lints any [`imagen_schedule::Plan`] (including
//!    hand-edited ones) against the dependency/contention constraint
//!    system, sync groups, buffer sizing and port discipline, without
//!    re-running the solver.
//! 4. **Netlist lints** (`W03xx`/`E03xx`) — the accumulating structural
//!    pass ([`imagen_rtl::verify_all`]) plus dead nets, dead modules,
//!    unread SRAM read ports, combinational cycles and enable-domain
//!    consistency.
//! 5. **Translation validation** (`E05xx`/`W05xx`) — [`certify_netlist`]
//!    symbolically proves, per compile, that every stage's netlist
//!    datapath computes the lowered DSL kernel modulo declared width
//!    truncation, and that the ILP schedule plus line-buffer/SRA
//!    addressing delivers exactly the taps each kernel consumes. The
//!    result is a [`Certificate`] of per-stage proof obligations
//!    (proved / refuted-with-witness / fuzzed fallback), exposed as
//!    `imagen certify` and `imagen lint --prove`.
//!
//! Diagnostics carry a stable code, a severity and a locus, render as
//! one-line text, and are serialized to JSON by the `imagen lint`
//! driver in the CLI crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsl_lint;
mod equiv;
mod netlist_lint;
mod sched_lint;
mod symex;
mod width;

pub use equiv::{
    certify_dag, certify_dag_styled, certify_netlist, Certificate, Obligation, ObligationKind,
    ProofMode, ProofStatus,
};
pub use netlist_lint::lint_netlist;
pub use sched_lint::lint_plan;
pub use width::MAX_TAP_REACH;

use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::BitWidths;
use imagen_schedule::ScheduleOptions;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational: worth knowing, never gates anything.
    Note,
    /// Probable mistake: gates `--deny warnings`.
    Warning,
    /// Definite problem: the pipeline is broken or unanalyzable.
    Error,
}

impl Severity {
    /// Lowercase label used in rendered text and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Where a diagnostic points.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Locus {
    /// No specific location (whole-pipeline diagnostics).
    None,
    /// A source position in the DSL text.
    Source {
        /// 1-based line.
        line: u32,
        /// 1-based column.
        col: u32,
    },
    /// A pipeline stage, by name.
    Stage(String),
    /// A net inside a netlist module.
    Net {
        /// Module name.
        module: String,
        /// Net name.
        net: String,
    },
    /// A line buffer, by its producer stage index.
    Buffer {
        /// Producer stage index.
        stage: usize,
    },
}

/// One analyzer finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable code (`W0101`, `E0301`, ...).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable, single-line message.
    pub message: String,
    /// Location.
    pub locus: Locus,
}

impl Diagnostic {
    /// Builds a diagnostic with no locus.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            locus: Locus::None,
        }
    }

    /// Replaces the locus.
    pub fn at(mut self, locus: Locus) -> Diagnostic {
        self.locus = locus;
        self
    }

    /// Renders the diagnostic as one line of text, e.g.
    /// `warning[W0101]: stage `dead` is never used (line 2, col 1)`.
    pub fn render(&self) -> String {
        let mut s = format!("{}[{}]: {}", self.severity.label(), self.code, self.message);
        if let Locus::Source { line, col } = self.locus {
            s.push_str(&format!(" (line {line}, col {col})"));
        }
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Analyzer configuration: the hardware context the pipeline is checked
/// against.
#[derive(Clone, Debug)]
pub struct AnalysisOptions {
    /// Frame geometry.
    pub geom: ImageGeometry,
    /// Memory specification (backend, ports, coalescing).
    pub spec: MemorySpec,
    /// Datapath widths of the netlist being certified.
    pub widths: BitWidths,
    /// Inclusive value range of every input pixel. The default `[0, 127]`
    /// matches the 7-bit noise frames the differential test beds use;
    /// widen it (`--input-range`) to certify against hotter inputs.
    pub input_range: (i64, i64),
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        AnalysisOptions {
            geom: ImageGeometry {
                width: 64,
                height: 48,
                pixel_bits: 16,
            },
            spec: MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2),
            widths: BitWidths::default(),
            input_range: (0, 127),
        }
    }
}

/// The outcome of an analysis: all diagnostics, in pass order.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Every finding, ordered DSL → width → schedule → netlist.
    pub diagnostics: Vec<Diagnostic>,
    /// Stages analyzed (0 when the front end failed).
    pub stages: usize,
}

impl AnalysisReport {
    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of note-severity diagnostics.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// True when the report carries no errors and no warnings (notes are
    /// allowed — a clean pipeline may still truncate deliberately).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// True when the *width pass* found nothing at all: the pipeline is
    /// certified overflow- and truncation-free, so the 16/32 and 64/64
    /// interpretations are guaranteed to agree (differentially tested).
    pub fn certified_overflow_free(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| matches!(d.code, "W0201" | "N0202" | "E0203"))
    }
}

/// Analyzes DSL source text through every pass family.
///
/// Later families are skipped when an earlier one fails hard: a parse
/// error yields only `E0001`; a lowering error yields the DSL lints
/// plus `E0002`; a planning error yields everything up to `E0003`.
pub fn analyze(name: &str, src: &str, opts: &AnalysisOptions) -> AnalysisReport {
    let (mut report, dag) = front_pass(name, src, opts);
    if let Some(dag) = dag {
        analyze_back_end(&dag, opts, &mut report);
    }
    report
}

/// The cheap front half of [`analyze`]: parse, DSL lints, lowering and
/// the width/overflow dataflow — no scheduling, no netlist. This is the
/// admission pre-check the batch compile server runs per request.
pub fn front_lints(name: &str, src: &str, opts: &AnalysisOptions) -> AnalysisReport {
    front_pass(name, src, opts).0
}

/// [`front_lints`] plus the DAG it lowered: the same DAG
/// [`imagen_dsl::compile`] returns, so a caller that admits a program
/// compiles it without parsing and lowering it again. The DAG is `None`
/// after a parse (`E0001`) or lowering (`E0002`) error.
pub fn front_pass(
    name: &str,
    src: &str,
    opts: &AnalysisOptions,
) -> (AnalysisReport, Option<imagen_ir::Dag>) {
    let mut report = AnalysisReport::default();
    let program = match imagen_dsl::parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            let pos = e.pos();
            report.diagnostics.push(
                Diagnostic::new(codes::PARSE, Severity::Error, e.to_string()).at(Locus::Source {
                    line: pos.line,
                    col: pos.col,
                }),
            );
            return (report, None);
        }
    };
    report
        .diagnostics
        .extend(dsl_lint::lint_program(&program, &opts.geom));
    let dag = match imagen_dsl::lower(name, &program) {
        Ok(dag) => dag,
        Err(e) => {
            let locus = match e.pos() {
                Some(p) => Locus::Source {
                    line: p.line,
                    col: p.col,
                },
                None => Locus::None,
            };
            report
                .diagnostics
                .push(Diagnostic::new(codes::LOWER, Severity::Error, e.to_string()).at(locus));
            return (report, None);
        }
    };
    report.stages = dag.num_stages();
    report.diagnostics.extend(width::lint_dag(&dag, opts));
    (report, Some(dag))
}

/// Schedule + netlist passes: the back half of [`analyze`].
fn analyze_back_end(dag: &imagen_ir::Dag, opts: &AnalysisOptions, report: &mut AnalysisReport) {
    let plan = match imagen_schedule::plan_design(
        dag,
        &opts.geom,
        &opts.spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    ) {
        Ok(plan) => plan,
        Err(e) => {
            report
                .diagnostics
                .push(Diagnostic::new(codes::PLAN, Severity::Error, e.to_string()));
            return;
        }
    };
    report
        .diagnostics
        .extend(sched_lint::lint_plan(&plan, &opts.geom, &opts.spec));
    let net = imagen_rtl::build_netlist(&plan.dag, &plan.design, &opts.widths);
    report
        .diagnostics
        .extend(netlist_lint::lint_netlist(&net, opts));
}

/// The diagnostic code table. One constant per code keeps the codes
/// greppable and the passes honest about which they emit.
pub mod codes {
    /// Syntax error from the DSL parser.
    pub const PARSE: &str = "E0001";
    /// Name-resolution or structural error from the DSL lowerer.
    pub const LOWER: &str = "E0002";
    /// The scheduler/planner rejected the pipeline.
    pub const PLAN: &str = "E0003";

    /// A non-output stage is never read by any later stage.
    pub const UNUSED_STAGE: &str = "W0101";
    /// A stage is read, but no path from it reaches an output.
    pub const NO_PATH_TO_SINK: &str = "W0102";
    /// A declared input is never read.
    pub const UNUSED_INPUT: &str = "W0103";
    /// A tap offset exceeds [`crate::MAX_TAP_REACH`] — almost always a
    /// typo, and each row of reach costs a line-buffer row.
    pub const TAP_REACH: &str = "W0104";
    /// A non-trivial subexpression always evaluates to the same value.
    pub const CONST_FOLD: &str = "W0105";
    /// A rate modifier's cumulative scale does not divide the frame
    /// extents, so the planner will reject the geometry.
    pub const RATE_INDIVISIBLE: &str = "W0106";
    /// One kernel taps producers sitting at different cumulative scales;
    /// the lowerer rejects this shape.
    pub const RATE_MISMATCH: &str = "W0107";

    /// A kernel node's value interval can exceed the accumulator range.
    pub const ACC_OVERFLOW: &str = "W0201";
    /// A stage's output interval truncates at the output register.
    pub const OUT_TRUNCATES: &str = "N0202";
    /// The netlist's declared widths disagree with the analysis widths.
    pub const WIDTH_MISMATCH: &str = "E0203";

    /// Structural netlist errors ([`imagen_rtl::RtlError`] variants), in
    /// declaration order.
    pub const RTL_STRUCTURAL: [&str; 10] = [
        "E0301", "E0302", "E0303", "E0304", "E0305", "E0306", "E0307", "E0308", "E0309", "E0310",
    ];
    /// A non-port net is driven but never read.
    pub const DEAD_NET: &str = "W0311";
    /// A stage or line-buffer module is never instantiated.
    pub const DEAD_MODULE: &str = "W0312";
    /// An SRAM instance leaves every read-data port open.
    pub const UNREAD_SRAM: &str = "W0313";
    /// A combinational cycle threads through a net.
    pub const COMB_CYCLE: &str = "E0314";
    /// A stage or buffer enable is not driven by its scheduled stage
    /// enable.
    pub const ENABLE_DOMAIN: &str = "W0315";

    /// The plan's vectors disagree in length with the DAG.
    pub const PLAN_SHAPE: &str = "E0401";
    /// The schedule violates the re-derived constraint system.
    pub const CONSTRAINTS: &str = "E0402";
    /// Stages in one sync group have different start cycles.
    pub const SYNC_GROUP: &str = "E0403";
    /// A buffer holds fewer rows than the schedule requires.
    pub const BUFFER_UNDERSIZED: &str = "E0404";
    /// A buffer holds more rows than the schedule requires.
    pub const BUFFER_OVERSIZED: &str = "W0405";
    /// An absolute-row port-discipline violation.
    pub const PORT_ABSOLUTE: &str = "E0406";
    /// A physical (rotation-aliasing) port-discipline violation.
    pub const PORT_PHYSICAL: &str = "E0407";
    /// The design's start cycles disagree with the schedule's.
    pub const START_DRIFT: &str = "W0408";

    /// Translation validation (`imagen certify`): a stage datapath was
    /// refuted against its lowered DSL kernel, with a concrete tap
    /// assignment as witness.
    pub const DATAPATH_REFUTED: &str = "E0501";
    /// A stage datapath obligation was not symbolically decidable and
    /// fell back to directed differential sampling (which agreed).
    pub const DATAPATH_FUZZED: &str = "W0502";
    /// A kernel tap is not covered by its edge window / SRA storage.
    pub const TAP_UNCOVERED: &str = "E0503";
    /// The schedule reads a producer row before it is committed.
    pub const TAP_STALE: &str = "E0504";
    /// Line-buffer rotation overwrites a row a consumer still reads.
    pub const TAP_CLOBBERED: &str = "E0505";
    /// A clock gate turns a buffer read port off under a load that a
    /// kernel tap later fetches.
    pub const GATE_DEAD: &str = "E0506";
    /// The netlist's structure lacks what the certificate needs (a DAG
    /// stage at its index, its kernel, its start cycle); nothing is
    /// statable.
    pub const CERT_UNSTATABLE: &str = "E0507";
    /// The declared input range wraps in the input pixel register; the
    /// certificate holds for post-register values only.
    pub const INPUT_WRAPS: &str = "W0508";
    /// A gating obligation discharged by bounded enumeration: some
    /// loads are uncovered, but provably never fetched.
    pub const GATE_UNFETCHED: &str = "W0509";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_are_e0001_with_span() {
        let r = analyze(
            "t",
            "input raw\noutput o = im(x,y) raw(x,y) end",
            &Default::default(),
        );
        assert_eq!(r.diagnostics.len(), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.code, codes::PARSE);
        assert_eq!(d.severity, Severity::Error);
        assert!(matches!(d.locus, Locus::Source { .. }), "{:?}", d.locus);
        assert_eq!(r.errors(), 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn clean_pipeline_has_no_diagnostics() {
        let r = analyze(
            "blur",
            "input a; output b = im(x,y) (a(x-1,y) + 2*a(x,y) + a(x+1,y)) / 4 end",
            &Default::default(),
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.is_clean());
        assert!(r.certified_overflow_free());
        assert_eq!(r.stages, 2);
    }

    #[test]
    fn analyze_dag_matches_analyze_back_half() {
        let src = "input a; output b = im(x,y) a(x,y) * a(x,y) * a(x,y) end";
        let opts = AnalysisOptions::default();
        let dag = imagen_dsl::compile("t", src).unwrap();
        let full = analyze("t", src, &opts);
        // The program has no DSL lint: the DAG's width lints and back
        // end are the whole report.
        let mut back = AnalysisReport::default();
        back.diagnostics.extend(width::lint_dag(&dag, &opts));
        analyze_back_end(&dag, &opts, &mut back);
        assert_eq!(full.diagnostics, back.diagnostics);
    }

    #[test]
    fn front_lints_stop_before_planning() {
        // A pipeline the planner would reject (if at all) is still width-
        // checked; front_lints never runs the solver, so a clean program
        // reports clean quickly.
        let r = front_lints(
            "t",
            "input a; output b = im(x,y) a(x,y) << 9 end",
            &Default::default(),
        );
        assert_eq!(r.errors(), 0);
        assert_eq!(r.notes(), 1, "{:?}", r.diagnostics);
        assert!(!r.certified_overflow_free());
    }

    #[test]
    fn front_pass_hands_back_the_dag_compile_lowers() {
        for src in [
            "input a; output b = im(x,y) (a(x-1,y) + 2*a(x,y) + a(x+1,y)) / 4 end",
            "input a; output b = im(x,y) a(x,y) * (2 + 3 * 4) end",
            "input a; c = im(x,y) a(x,y) end; output b = im(x,y) a(x,y) end",
            "input a;\noutput b = im(x,y) c(x,y) end",
            "input raw\noutput o = im(x,y) raw(x,y) end",
        ] {
            let opts = AnalysisOptions::default();
            let (report, dag) = front_pass("t", src, &opts);
            assert_eq!(report.diagnostics, front_lints("t", src, &opts).diagnostics);
            match imagen_dsl::compile("t", src) {
                Ok(want) => {
                    let dag = dag.expect("a program compile lowers, front_pass lowers");
                    assert_eq!(dag.fingerprint(), want.fingerprint(), "{src}");
                    assert_eq!(imagen_dsl::to_dsl(&dag), imagen_dsl::to_dsl(&want));
                    assert_eq!(report.stages, want.num_stages());
                }
                Err(_) => {
                    assert!(dag.is_none(), "{src}");
                    assert_eq!(report.errors(), 1, "{:?}", report.diagnostics);
                }
            }
        }
    }

    #[test]
    fn render_includes_code_and_span() {
        let d = Diagnostic::new(
            codes::UNUSED_STAGE,
            Severity::Warning,
            "stage `x` is never used",
        )
        .at(Locus::Source { line: 3, col: 7 });
        assert_eq!(
            d.render(),
            "warning[W0101]: stage `x` is never used (line 3, col 7)"
        );
        assert_eq!(d.to_string(), d.render());
    }
}
