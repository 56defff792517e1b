//! Translation validation: a per-compile certificate that the generated
//! netlist computes what the lowered DSL program means.
//!
//! Instead of trusting the compiler (or sampling it with differentials),
//! [`certify_netlist`] discharges, for every compiled design, two
//! families of proof obligations against the *pinned* interpreter
//! semantics ([`imagen_rtl::eval_acc`] / [`imagen_rtl::interpret`]):
//!
//! - **Stage datapath** — each stage module's kernel term equals the
//!   lowered DSL kernel modulo the declared output-register truncation,
//!   shown by canonicalizing both terms (wide-semantics-preserving
//!   rewrites) and then eliminating the per-operation accumulator
//!   truncations with interval reasoning (`symex::trunc_verdict`). A
//!   netlist kernel that is the DSL kernel itself (the netlist shares the
//!   DAG's tree) or a structurally equal term has the same normal form,
//!   since canonicalization is a pure function, so only kernels that
//!   differ are canonicalized.
//! - **Stream alignment** — the ILP schedule plus the line-buffer /
//!   shift-register-array addressing delivers exactly the taps
//!   `(dx, dy)` each kernel consumes: tap coverage and SRA sizing,
//!   write-before-read freshness, no rotation clobbering, and (when a
//!   [`imagen_rtl::GatingPlan`] is attached) gate liveness over every
//!   fetched load. These are closed-form inequalities over start cycles
//!   and window shapes — a symbolic replay of the `Plan` enables, not a
//!   cycle simulation.
//!
//! Obligations the symbolic layer cannot decide fall back to *directed
//! differential sampling* of just that obligation; agreement downgrades
//! the certificate (`Fuzzed`), disagreement refutes it with a concrete
//! witness. The certificate surfaces as diagnostics `E0501..W0509` and
//! drives `imagen certify`, `imagen lint --prove`, the batch server's
//! per-compile certificate status, and optional DSE frontier
//! certification.

use crate::symex::{
    normalize, sample_datapath, tap_vars, trunc_verdict, SampleOutcome, TruncVerdict,
};
use crate::width::{signed_range, stage_intervals, Iv};
use crate::{codes, AnalysisOptions, Diagnostic, Locus, Severity};
use imagen_ir::{Dag, Expr};
use imagen_mem::DesignStyle;
use imagen_rtl::{
    build_netlist, sra_cells, BitWidths, BufferGate, Module, ModuleKind, Net, NetEdge, NetStage,
    Netlist, Structure,
};
use imagen_schedule::ScheduleOptions;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Number of directed differential samples per fuzzed obligation.
const FUZZ_SAMPLES: usize = 512;

/// What a single proof obligation asserts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObligationKind {
    /// The stage module's datapath term equals the lowered DSL kernel
    /// modulo output truncation, for all tap values in the inferred
    /// intervals.
    StageDatapath {
        /// Stage name.
        stage: String,
    },
    /// The schedule + SRA addressing deliver exactly the taps the
    /// consumer's kernel reads from this producer slot.
    TapDelivery {
        /// Consumer stage name.
        consumer: String,
        /// Producer slot in the consumer's kernel.
        slot: usize,
    },
    /// The clock-gating plan keeps the buffer's read port alive on
    /// every cycle whose loaded value some kernel tap later fetches.
    GateLiveness {
        /// Producer (buffer-owning) stage name.
        stage: String,
    },
    /// The declared input range fits the input pixel register, so input
    /// values enter the pipeline unwrapped.
    InputRange {
        /// Input stage name.
        stage: String,
    },
    /// The netlist's structure holds what the certificate needs (each
    /// stage at its DAG index, with its kernel and start cycle); without
    /// it nothing else is statable.
    Structure {
        /// Stage name.
        stage: String,
    },
}

impl ObligationKind {
    /// Short machine-readable label, e.g. `datapath(sobel)`.
    pub fn label(&self) -> String {
        match self {
            ObligationKind::StageDatapath { stage } => format!("datapath({stage})"),
            ObligationKind::TapDelivery { consumer, slot } => {
                format!("taps({consumer}, slot {slot})")
            }
            ObligationKind::GateLiveness { stage } => format!("gate({stage})"),
            ObligationKind::InputRange { stage } => format!("input({stage})"),
            ObligationKind::Structure { stage } => format!("structure({stage})"),
        }
    }

    fn locus(&self) -> Locus {
        match self {
            ObligationKind::StageDatapath { stage }
            | ObligationKind::GateLiveness { stage }
            | ObligationKind::InputRange { stage }
            | ObligationKind::Structure { stage } => Locus::Stage(stage.clone()),
            ObligationKind::TapDelivery { consumer, .. } => Locus::Stage(consumer.clone()),
        }
    }
}

/// How a proved obligation was discharged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProofMode {
    /// Every intermediate fits the accumulator; the datapath value is
    /// the mathematical value, bit for bit.
    Exact,
    /// Intermediates may wrap the accumulator, but the result is
    /// congruent to the wide value mod `2^pixel` — identical after the
    /// output register.
    Modular,
    /// Discharged by closed-form structural/schedule arithmetic (tap
    /// delivery, gating, input range, structure).
    Structural,
}

impl ProofMode {
    /// Lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            ProofMode::Exact => "exact",
            ProofMode::Modular => "modular",
            ProofMode::Structural => "structural",
        }
    }
}

/// The verdict on one obligation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProofStatus {
    /// Symbolically proved for *all* inputs in the inferred intervals.
    Proved(ProofMode),
    /// Not symbolically decided; discharged by weaker, still-sound-to-
    /// report evidence (directed differential sampling, or bounded
    /// reasoning that leaves a caveat). Carries the warning code it
    /// surfaces as (`W0502`, `W0508`, `W0509`).
    Fuzzed {
        /// Diagnostic code of the caveat.
        code: &'static str,
        /// Differential samples that agreed (0 for non-sampled caveats).
        samples: usize,
    },
    /// Disproved, with a concrete counterexample.
    Refuted {
        /// Diagnostic code of the refutation.
        code: &'static str,
        /// Human-readable witness (tap assignment and both values, or
        /// the offending cycle/net).
        witness: String,
    },
}

impl ProofStatus {
    /// True for [`ProofStatus::Proved`].
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofStatus::Proved(_))
    }

    /// True for [`ProofStatus::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, ProofStatus::Refuted { .. })
    }

    /// One-word label: `proved`, `fuzzed` or `refuted`.
    pub fn label(&self) -> &'static str {
        match self {
            ProofStatus::Proved(_) => "proved",
            ProofStatus::Fuzzed { .. } => "fuzzed",
            ProofStatus::Refuted { .. } => "refuted",
        }
    }
}

/// One discharged (or failed) proof obligation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Obligation {
    /// What is asserted.
    pub kind: ObligationKind,
    /// The verdict.
    pub status: ProofStatus,
    /// One-line explanation of how the verdict was reached.
    pub detail: String,
}

/// The per-compile certificate: every obligation the translation
/// validator discharged for one `(pipeline, widths)` pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Pipeline name.
    pub name: String,
    /// Datapath widths the netlist was certified at.
    pub widths: BitWidths,
    /// All obligations, in stage order.
    pub obligations: Vec<Obligation>,
}

impl Certificate {
    /// Number of symbolically proved obligations.
    pub fn proved(&self) -> usize {
        self.obligations
            .iter()
            .filter(|o| o.status.is_proved())
            .count()
    }

    /// Number of obligations discharged only by sampling / bounded
    /// reasoning.
    pub fn fuzzed(&self) -> usize {
        self.obligations
            .iter()
            .filter(|o| matches!(o.status, ProofStatus::Fuzzed { .. }))
            .count()
    }

    /// Number of refuted obligations.
    pub fn refuted(&self) -> usize {
        self.obligations
            .iter()
            .filter(|o| o.status.is_refuted())
            .count()
    }

    /// True when every obligation was symbolically proved: the netlist
    /// provably computes the DSL semantics (modulo declared output
    /// truncation) on all in-range inputs.
    pub fn all_proved(&self) -> bool {
        self.refuted() == 0 && self.fuzzed() == 0 && !self.obligations.is_empty()
    }

    /// Overall status word: `proved`, `fuzzed` or `refuted`.
    pub fn status(&self) -> &'static str {
        if self.refuted() > 0 {
            "refuted"
        } else if self.fuzzed() > 0 {
            "fuzzed"
        } else {
            "proved"
        }
    }

    /// Lowers the non-proved obligations to diagnostics (`E/W05xx`),
    /// for the lint pipeline.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for o in &self.obligations {
            match &o.status {
                ProofStatus::Proved(_) => {}
                ProofStatus::Fuzzed { code, samples } => {
                    let mut msg = format!("{}: {}", o.kind.label(), o.detail);
                    if *samples > 0 {
                        let _ = write!(msg, " ({samples} differential samples agreed)");
                    }
                    out.push(Diagnostic::new(code, Severity::Warning, msg).at(o.kind.locus()));
                }
                ProofStatus::Refuted { code, witness } => {
                    let msg = format!("{}: {} — witness: {}", o.kind.label(), o.detail, witness);
                    out.push(Diagnostic::new(code, Severity::Error, msg).at(o.kind.locus()));
                }
            }
        }
        out
    }

    /// Renders the certificate as a human-readable report.
    pub fn render(&self) -> String {
        let mut s = format!(
            "certificate `{}` @ {}/{}:\n",
            self.name, self.widths.pixel_bits, self.widths.acc_bits
        );
        for o in &self.obligations {
            let how = match &o.status {
                ProofStatus::Proved(m) => format!("proved ({})", m.label()),
                ProofStatus::Fuzzed { code, samples } => {
                    if *samples > 0 {
                        format!("fuzzed [{code}] ({samples} samples)")
                    } else {
                        format!("fuzzed [{code}]")
                    }
                }
                ProofStatus::Refuted { code, witness } => {
                    format!("REFUTED [{code}] witness: {witness}")
                }
            };
            let _ = writeln!(s, "  {:<28} {}  {}", o.kind.label(), how, o.detail);
        }
        let _ = write!(
            s,
            "  {} proved, {} fuzzed, {} refuted -> {}",
            self.proved(),
            self.fuzzed(),
            self.refuted(),
            self.status()
        );
        s
    }
}

/// Certifies a compiled netlist against the planned DAG it was built
/// from (`plan.dag`, *not* the pre-linearization input DAG — the
/// planner may insert relay stages, and the certificate covers those
/// too).
///
/// Geometry and widths are taken from the netlist itself; `opts`
/// contributes the declared input range.
pub fn certify_netlist(dag: &Dag, net: &Netlist, opts: &AnalysisOptions) -> Certificate {
    let eff = AnalysisOptions {
        geom: net.structure.geometry,
        widths: net.widths,
        ..opts.clone()
    };
    let intervals = stage_intervals(dag, &eff);
    let st = &net.structure;
    let mut obligations = Vec::new();
    // Each DAG stage's edges in edge order, gathered in one pass over the
    // netlist's edges. Indexing by the DAG, not by the netlist's stage
    // list, keeps the certifier from trusting that list; an edge whose
    // consumer is not a DAG stage is never asked for.
    let mut consumed: Vec<Vec<&NetEdge>> = vec![Vec::new(); dag.num_stages()];
    for e in &st.edges {
        if let Some(edges) = consumed.get_mut(e.consumer) {
            edges.push(e);
        }
    }
    // The declarations the tap obligations check each window against,
    // gathered once: the top module's SRA nets by name and each DAG
    // stage's compute module, the first declared of each (gathered last
    // to first).
    let sras: HashMap<&str, &Net> = (net.top_module().nets.iter().rev())
        .filter(|n| n.name.starts_with("sra_"))
        .map(|n| (n.name.as_str(), n))
        .collect();
    let mut stage_modules: Vec<Option<&Module>> = vec![None; dag.num_stages()];
    for m in net.modules.iter().rev() {
        if let ModuleKind::Stage(i) = m.kind {
            if let Some(slot) = stage_modules.get_mut(i) {
                *slot = Some(m);
            }
        }
    }

    for (id, stage) in dag.stages() {
        let i = id.index();
        if stage.is_input() {
            obligations.push(input_obligation(stage.name(), &eff));
            continue;
        }
        // Structure: everything below needs the netlist's stage at this
        // DAG index, with its kernel and start cycle. A netlist missing
        // them is not merely wrong — the obligations are unstatable.
        let Some(spec) = stage.kernel() else { continue };
        let Some((ns, impl_k)) = st.stage(i).and_then(|s| Some((s, s.kernel.as_deref()?))) else {
            obligations.push(Obligation {
                kind: ObligationKind::Structure {
                    stage: stage.name().to_string(),
                },
                status: ProofStatus::Refuted {
                    code: codes::CERT_UNSTATABLE,
                    witness: format!("stage {i} has no kernel in the netlist's structure"),
                },
                detail: "netlist lacks the structure the certificate needs".to_string(),
            });
            continue;
        };

        let slot_ivs: Vec<Iv> = stage
            .producers()
            .iter()
            .map(|p| intervals[p.index()])
            .collect();
        let producer_names: Vec<&str> = stage
            .producers()
            .iter()
            .map(|p| dag.stage(*p).name())
            .collect();

        obligations.push(datapath_obligation(
            stage.name(),
            spec,
            impl_k,
            &slot_ivs,
            &producer_names,
            &net.widths,
        ));

        let (module, name) = (stage_modules[i], stage.name());
        for edge in &consumed[i] {
            obligations.push(tap_obligation(st, &sras, module, name, ns, edge, impl_k));
        }
    }

    if let Some(gating) = &net.gating {
        // Each stage's outgoing edges in edge order, in one pass.
        let mut produced: Vec<Vec<&NetEdge>> = vec![Vec::new(); st.stages.len()];
        for e in &st.edges {
            if let Some(edges) = produced.get_mut(e.producer) {
                edges.push(e);
            }
        }
        for gate in &gating.gates {
            // A buffer or stage the structure lacks gates nothing the
            // certificate could state; a missing stage with consumers is
            // refuted above.
            let Some(buf) = st.buffers.get(gate.buffer) else {
                continue;
            };
            let Some(producer) = st.stage(buf.stage) else {
                continue;
            };
            obligations.push(gate_obligation(st, gate, producer, &produced[buf.stage]));
        }
    }

    Certificate {
        name: net.name.clone(),
        widths: net.widths,
        obligations,
    }
}

/// Plans, builds and certifies a DAG end to end with the given design
/// style — the entry point `imagen certify`, the batch server and DSE
/// frontier certification share.
///
/// # Errors
///
/// An `E0003` diagnostic when the planner rejects the pipeline.
pub fn certify_dag_styled(
    dag: &Dag,
    opts: &AnalysisOptions,
    style: DesignStyle,
) -> Result<Certificate, Diagnostic> {
    let plan = imagen_schedule::plan_design(
        dag,
        &opts.geom,
        &opts.spec,
        ScheduleOptions::default(),
        style,
    )
    .map_err(|e| Diagnostic::new(codes::PLAN, Severity::Error, e.to_string()))?;
    let net = build_netlist(&plan.dag, &plan.design, &opts.widths);
    Ok(certify_netlist(&plan.dag, &net, opts))
}

/// [`certify_dag_styled`] with the paper's line-buffered design style.
///
/// # Errors
///
/// An `E0003` diagnostic when the planner rejects the pipeline.
pub fn certify_dag(dag: &Dag, opts: &AnalysisOptions) -> Result<Certificate, Diagnostic> {
    certify_dag_styled(dag, opts, DesignStyle::Ours)
}

// ---------------------------------------------------------------------
// Individual obligations
// ---------------------------------------------------------------------

fn input_obligation(name: &str, opts: &AnalysisOptions) -> Obligation {
    let (lo, hi) = opts.input_range;
    let pr = signed_range(opts.widths.pixel_bits);
    let kind = ObligationKind::InputRange {
        stage: name.to_string(),
    };
    if (lo as i128) >= pr.0 && (hi as i128) <= pr.1 {
        Obligation {
            kind,
            status: ProofStatus::Proved(ProofMode::Structural),
            detail: format!(
                "input range [{lo}, {hi}] fits the {}-bit pixel register",
                opts.widths.pixel_bits
            ),
        }
    } else {
        // Out-of-range inputs wrap at the input register; the rest of
        // the certificate is stated over post-register values, so this
        // is a caveat rather than a refutation.
        let witness = if (hi as i128) > pr.1 { hi } else { lo };
        Obligation {
            kind,
            status: ProofStatus::Fuzzed {
                code: codes::INPUT_WRAPS,
                samples: 0,
            },
            detail: format!(
                "input value {witness} wraps in the {}-bit pixel register; certificate holds \
                 for post-register values only",
                opts.widths.pixel_bits
            ),
        }
    }
}

fn datapath_obligation(
    stage: &str,
    spec: &Expr,
    impl_k: &Expr,
    slot_ivs: &[Iv],
    producer_names: &[&str],
    widths: &BitWidths,
) -> Obligation {
    let kind = ObligationKind::StageDatapath {
        stage: stage.to_string(),
    };
    // `normalize` is a pure function: the shared tree, or an equal one,
    // has the DSL kernel's normal form without computing either.
    let same_normal_form =
        std::ptr::eq(spec, impl_k) || spec == impl_k || normalize(spec) == normalize(impl_k);
    if same_normal_form {
        // Wide semantics agree by normal-form equality; eliminate the
        // accumulator truncations on the *implementation* term (the one
        // the hardware evaluates — reassociation in the normal form
        // would move intermediate truncations around).
        match trunc_verdict(impl_k, slot_ivs, widths) {
            TruncVerdict::Exact => Obligation {
                kind,
                status: ProofStatus::Proved(ProofMode::Exact),
                detail: "normal forms equal; every intermediate fits the accumulator".to_string(),
            },
            TruncVerdict::Modular => Obligation {
                kind,
                status: ProofStatus::Proved(ProofMode::Modular),
                detail: format!(
                    "normal forms equal; ring congruence mod 2^{} absorbs accumulator wrap",
                    widths.pixel_bits
                ),
            },
            TruncVerdict::Unknown => fuzz_datapath(
                kind,
                spec,
                impl_k,
                slot_ivs,
                producer_names,
                widths,
                "truncation not symbolically eliminable",
            ),
        }
    } else {
        fuzz_datapath(
            kind,
            spec,
            impl_k,
            slot_ivs,
            producer_names,
            widths,
            "kernels differ structurally after normalization",
        )
    }
}

fn fuzz_datapath(
    kind: ObligationKind,
    spec: &Expr,
    impl_k: &Expr,
    slot_ivs: &[Iv],
    producer_names: &[&str],
    widths: &BitWidths,
    why: &str,
) -> Obligation {
    let vars = tap_vars(&[spec, impl_k], slot_ivs);
    match sample_datapath(spec, impl_k, &vars, widths, FUZZ_SAMPLES, 0x5eed) {
        SampleOutcome::Agreed { samples } => Obligation {
            kind,
            status: ProofStatus::Fuzzed {
                code: codes::DATAPATH_FUZZED,
                samples,
            },
            detail: why.to_string(),
        },
        SampleOutcome::Mismatch {
            assignment,
            spec: s,
            impl_: iv,
        } => {
            let mut w = String::new();
            for (v, x) in &assignment {
                let name = producer_names.get(v.slot).copied().unwrap_or("?");
                let _ = write!(
                    w,
                    "{}({}, {}) = {x}; ",
                    name,
                    coord("x", v.dx),
                    coord("y", v.dy)
                );
            }
            let _ = write!(w, "spec = {s}, netlist = {iv}");
            Obligation {
                kind,
                status: ProofStatus::Refuted {
                    code: codes::DATAPATH_REFUTED,
                    witness: w,
                },
                detail: why.to_string(),
            }
        }
    }
}

fn coord(base: &str, off: i32) -> String {
    match off.cmp(&0) {
        std::cmp::Ordering::Equal => base.to_string(),
        std::cmp::Ordering::Greater => format!("{base}+{off}"),
        std::cmp::Ordering::Less => format!("{base}-{}", -off),
    }
}

/// Distinct `(dx, dy)` taps a kernel reads from one slot.
fn slot_taps(kernel: &Expr, slot: usize) -> Vec<(i32, i32)> {
    let mut taps = Vec::new();
    kernel.for_each_tap(&mut |s, dx, dy| {
        if s == slot && !taps.contains(&(dx, dy)) {
            taps.push((dx, dy));
        }
    });
    taps.sort_unstable_by_key(|&(dx, dy)| (dy, dx));
    taps
}

/// The tap obligation of one consumed edge. `sras` are the top module's
/// SRA nets by name and `module` the consumer's compute module: the
/// declarations the edge's window must size.
fn tap_obligation(
    st: &Structure,
    sras: &HashMap<&str, &Net>,
    module: Option<&Module>,
    cname: &str,
    consumer: &NetStage,
    edge: &NetEdge,
    impl_kernel: &Expr,
) -> Obligation {
    let kind = ObligationKind::TapDelivery {
        consumer: cname.to_string(),
        slot: edge.slot,
    };
    let w = &edge.window;
    let geom = &st.geometry;
    let (fw, fh) = (geom.width as u64, geom.height as u64);
    let taps = slot_taps(impl_kernel, edge.slot);

    // 1. Tap coverage + SRA addressing range. The interpreter (and the
    //    RTL it models) computes the SRA row as `dy - lag` with
    //    saturating arithmetic and the column as `cols-1 + dx`; a tap
    //    outside `[lag, lag+height) x [dx_min, 0]` silently reads a
    //    clamped or stale cell.
    for &(dx, dy) in &taps {
        let in_rows = dy >= w.lag as i32 && dy < (w.lag + w.height) as i32;
        let in_cols = dx >= w.dx_min && dx <= 0;
        if !in_rows || !in_cols {
            return Obligation {
                kind,
                status: ProofStatus::Refuted {
                    code: codes::TAP_UNCOVERED,
                    witness: format!(
                        "tap ({}, {}) outside window rows [{}, {}] x cols [{}, 0]",
                        coord("x", dx),
                        coord("y", dy),
                        w.lag,
                        w.lag + w.height - 1,
                        w.dx_min
                    ),
                },
                detail: "kernel tap not covered by the edge window / SRA".to_string(),
            };
        }
    }

    // 2. SRA shape: the top-level array this edge loads into and the
    //    stage module port it feeds must both be sized from this window.
    let want = sra_cells(w);
    let sra_name = format!("sra_{}_{}", consumer.sanitized, edge.slot);
    let top_ok = sras
        .get(sra_name.as_str())
        .is_some_and(|n| n.array == Some(want));
    let port_ok = module.is_some_and(|m| {
        m.net(&format!("win{}", edge.slot))
            .is_some_and(|n| n.array == Some(want))
    });
    if !top_ok || !port_ok {
        return Obligation {
            kind,
            status: ProofStatus::Refuted {
                code: codes::TAP_UNCOVERED,
                witness: format!(
                    "`{sra_name}` / `win{}` not sized as {} cells from window {:?}",
                    edge.slot, want, w
                ),
            },
            detail: "declared SRA storage disagrees with the edge window".to_string(),
        };
    }

    // Start cycles: the consumer's was checked with its kernel; the
    // producer may be an input stage, which always has one.
    let Some(producer) = st.stage(edge.producer) else {
        return Obligation {
            kind,
            status: ProofStatus::Refuted {
                code: codes::CERT_UNSTATABLE,
                witness: format!(
                    "no start cycle for stages {} -> {}",
                    edge.producer, consumer.index
                ),
            },
            detail: "schedule enables missing from the netlist".to_string(),
        };
    };
    let (sc, sp) = (consumer.start_cycle, producer.start_cycle);

    // 3/4. Freshness and no-clobber, per distinct row offset, measured
    //    in the producer's row period `P_p = pcy*W` (plain `W` for
    //    rate-1). A load at consumer edge-active cycle
    //    `t = S_c + y*W + xp*pcx` fetches producer row
    //    `r = min(y/pcy + dy, ph-1)`, written at `S_p + r*P_p + xp*pcx`
    //    and committed at its *end* (reads strictly see earlier cycles):
    //      fresh    <=>  S_c - S_p >= P_p*min(dy, ph-1) + 1   (worst y=0)
    //    The rotating buffer reuses row r's slot for row r+R; the
    //    overwrite lands at `S_p + (r+R)*P_p + xp*pcx`, and a same-cycle
    //    read still sees the old value (read phase precedes write
    //    phase). An upsample reader (consumer row period `P_c < P_p`)
    //    re-reads row r for `P_p - P_c` base cycles past the rate-1
    //    model's last access, so the slack shrinks by that tail:
    //      intact   <=>  S_c - S_p <= (dy+R)*P_p - max(0, P_p - P_c)
    //                    when dy+R <= ph-1
    //    (rows clamped to ph-1 are never overwritten: row ph-1+R is
    //    never written).
    //    Columns cancel exactly in both inequalities.
    let pcy_scale = producer.scale_y;
    let pp = pcy_scale * fw;
    let ph = fh / pcy_scale.max(1);
    let extra = pp.saturating_sub(consumer.scale_y * fw);
    let storage = producer
        .buffer
        .and_then(|b| st.buffers.get(b))
        .map(|b| b.storage_rows as u64);
    let dys: Vec<u64> = {
        let mut v: Vec<u64> = taps.iter().map(|&(_, dy)| dy.max(0) as u64).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let lead = sc as i128 - sp as i128;
    for &dy in &dys {
        let need = pp as i128 * dy.min(ph - 1) as i128 + 1;
        if lead < need {
            return Obligation {
                kind,
                status: ProofStatus::Refuted {
                    code: codes::TAP_STALE,
                    witness: format!(
                        "start lead {lead} < {need}: row y+{dy} is read before the producer \
                         commits it (first stale read at consumer cycle {sc})"
                    ),
                },
                detail: "schedule violates write-before-read freshness".to_string(),
            };
        }
        if let Some(rows) = storage {
            if dy + rows < ph {
                let limit = (dy + rows) as i128 * pp as i128 - extra as i128;
                if lead > limit {
                    return Obligation {
                        kind,
                        status: ProofStatus::Refuted {
                            code: codes::TAP_CLOBBERED,
                            witness: format!(
                                "start lead {lead} > {limit}: {rows}-row buffer rotates row \
                                 y+{dy} away before the consumer reads it"
                            ),
                        },
                        detail: "buffer rotation clobbers a live row".to_string(),
                    };
                }
            }
        }
    }

    Obligation {
        kind,
        status: ProofStatus::Proved(ProofMode::Structural),
        detail: format!(
            "{} taps delivered: coverage, SRA shape, freshness (lead {lead} >= {}), rotation",
            taps.len(),
            pp * dys.last().map(|&d| d.min(ph - 1)).unwrap_or(0) + 1
        ),
    }
}

fn gate_obligation(
    st: &Structure,
    gate: &BufferGate,
    producer: &NetStage,
    produced: &[&NetEdge],
) -> Obligation {
    let kind = ObligationKind::GateLiveness {
        stage: producer.name.clone(),
    };
    let fw = st.geometry.width as u64;
    // Every consumer edge of this buffer reads it once per enabled
    // consumer cycle; a gated-off read loads 0 into the SRA. The load
    // at consumer column `x` is *fetched* later only if some tap can
    // reach its cell: with dmax = max dx and dmin = min dx over the
    // slot's taps, the load at column x is consumed iff
    // `x <= W-1+dmax` (a tap shifts onto it before the row ends) or
    // `x == 0 && dmin < 0` (the left-clamp path replays column 0).
    // Uncovered-but-unfetched loads are harmless — reported as a
    // bounded-reasoning caveat, not a refutation.
    let mut unfetched_gap = false;
    for e in produced {
        let Some((consumer, kernel)) = st
            .stage(e.consumer)
            .and_then(|c| Some((c, c.kernel.as_deref()?)))
        else {
            continue;
        };
        let taps = slot_taps(kernel, e.slot);
        if taps.is_empty() {
            continue;
        }
        let dmax = taps.iter().map(|&(dx, _)| dx).max().unwrap_or(0);
        let dmin = taps.iter().map(|&(dx, _)| dx).min().unwrap_or(0);
        let (sc, end) = (consumer.start_cycle, consumer.start_cycle + st.frame);
        // Multirate edges only load on their edge-active cadence (once
        // per consumer-active row, at every producer-grid column); other
        // cycles carry no load and cannot be starved by the gate.
        let (ccy, pcx) = (consumer.scale_y, producer.scale_x);
        let pw = fw / pcx.max(1);
        // Uncovered cycles of [sc, end): before the gate opens and
        // after it closes.
        let gaps = [
            (sc, gate.read_start.clamp(sc, end)),
            (gate.read_end.clamp(sc, end), end),
        ];
        for (lo, hi) in gaps {
            for t in lo..hi {
                let k = t - sc;
                let (y, x) = (k / fw, k % fw);
                if y % ccy != 0 || x % pcx != 0 {
                    continue;
                }
                let x = x / pcx;
                let fetched = (x as i64) <= (pw as i64 - 1 + dmax as i64) || (x == 0 && dmin < 0);
                if fetched {
                    let cname = &consumer.name;
                    return Obligation {
                        kind,
                        status: ProofStatus::Refuted {
                            code: codes::GATE_DEAD,
                            witness: format!(
                                "cycle {t}: `{cname}` slot {} loads column {x} with the gate \
                                 off ([{}, {})), and a tap fetches that cell",
                                e.slot, gate.read_start, gate.read_end
                            ),
                        },
                        detail: "clock gate turns the read port off under a live load".to_string(),
                    };
                }
                unfetched_gap = true;
            }
        }
    }
    if unfetched_gap {
        Obligation {
            kind,
            status: ProofStatus::Fuzzed {
                code: codes::GATE_UNFETCHED,
                samples: 0,
            },
            detail: "gate leaves some loads uncovered, but bounded enumeration shows no tap \
                     ever fetches them"
                .to_string(),
        }
    } else {
        Obligation {
            kind,
            status: ProofStatus::Proved(ProofMode::Structural),
            detail: format!(
                "gate [{}, {}) covers every fetched load of every consumer",
                gate.read_start, gate.read_end
            ),
        }
    }
}
