//! Translation validation over the paper corpus, plus mutation tests
//! showing the certifier actually refutes broken netlists.
//!
//! Three claims are pinned here:
//!
//! 1. **Completeness on the corpus** — every Tbl. 3 pipeline certifies
//!    with *zero* unknown/fuzzed obligations at both the hardware
//!    16/32 widths and the widened 64/64 reference, i.e. the symbolic
//!    layer decides the whole paper workload without falling back to
//!    sampling.
//! 2. **Soundness** — a fully proved certificate composes to the
//!    end-to-end claim: the netlist's output frames equal the golden
//!    software model's on in-range inputs (the same differential the
//!    PR 3 interpreter tests sample, now implied per compile).
//! 3. **Falsifiability** — injected miswirings (a nudged kernel
//!    constant, a shrunk window, a hoisted start cycle, an undersized
//!    rotation, a chopped clock gate) are each refuted with a concrete
//!    witness, and the kernel mutation is confirmed to genuinely
//!    diverge in the interpreter.

use imagen_algos::{noise_bits, Algorithm};
use imagen_analysis::{
    certify_dag, certify_dag_styled, certify_netlist, AnalysisOptions, Certificate, ProofStatus,
};
use imagen_ir::{Dag, Expr};
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::{build_netlist, interpret, BitWidths, Netlist};
use imagen_schedule::{plan_design, Plan, ScheduleOptions};
use imagen_sim::{execute, Image};
use std::sync::Arc;

fn geom() -> ImageGeometry {
    ImageGeometry {
        width: 32,
        height: 24,
        pixel_bits: 16,
    }
}

fn options() -> AnalysisOptions {
    AnalysisOptions {
        geom: geom(),
        spec: MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2),
        ..AnalysisOptions::default()
    }
}

fn planned_dag(dag: &Dag) -> Plan {
    plan_design(
        dag,
        &geom(),
        &options().spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap()
}

fn planned(alg: Algorithm) -> Plan {
    planned_dag(&alg.build())
}

fn netlist_of(alg: Algorithm, widths: &BitWidths) -> (Plan, Netlist) {
    let plan = planned(alg);
    let net = build_netlist(&plan.dag, &plan.design, widths);
    (plan, net)
}

fn refuted_codes(cert: &imagen_analysis::Certificate) -> Vec<&'static str> {
    cert.obligations
        .iter()
        .filter_map(|o| match &o.status {
            ProofStatus::Refuted { code, .. } => Some(*code),
            _ => None,
        })
        .collect()
}

fn refuted_witnesses(cert: &imagen_analysis::Certificate) -> Vec<String> {
    cert.obligations
        .iter()
        .filter_map(|o| match &o.status {
            ProofStatus::Refuted { witness, .. } => Some(witness.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn paper_corpus_fully_proved_at_both_widths() {
    for alg in Algorithm::all() {
        for widths in [BitWidths::default(), BitWidths::wide()] {
            let (plan, net) = netlist_of(alg, &widths);
            let cert = certify_netlist(&plan.dag, &net, &options());
            assert!(
                !cert.obligations.is_empty(),
                "{}: empty certificate",
                alg.name()
            );
            assert!(
                cert.all_proved(),
                "{} @ {}/{}: {} fuzzed, {} refuted\n{}",
                alg.name(),
                widths.pixel_bits,
                widths.acc_bits,
                cert.fuzzed(),
                cert.refuted(),
                cert.render()
            );
        }
    }
}

#[test]
fn gated_corpus_fully_proved() {
    // The gating plan the power pass derives must satisfy the gate
    // liveness obligations on every pipeline: the prover re-derives,
    // symbolically, what the activity interpreter checks dynamically.
    for alg in Algorithm::all() {
        let (plan, net) = netlist_of(alg, &BitWidths::default());
        let gated = imagen_power::gate_clocks(&net);
        assert!(gated.is_gated(), "{}: no gating plan attached", alg.name());
        let cert = certify_netlist(&plan.dag, &gated, &options());
        assert!(cert.all_proved(), "{} gated: {}", alg.name(), cert.render());
        // The gate obligations are actually present, not vacuous.
        assert!(
            cert.obligations
                .iter()
                .any(|o| matches!(o.kind, imagen_analysis::ObligationKind::GateLiveness { .. })),
            "{}: no gate obligations stated",
            alg.name()
        );
    }
}

#[test]
fn proved_certificate_composes_to_golden_equivalence() {
    // Soundness pinning: a fully proved certificate at 16/32 plus an
    // overflow-free width report implies the netlist reproduces the
    // golden software model frame-for-frame. This is the same claim the
    // interpreter differentials sample; here it must hold wherever the
    // certificate says "proved".
    let mut checked = 0usize;
    for alg in Algorithm::all() {
        let report = imagen_analysis::analyze(alg.name(), alg.dsl_source(), &options());
        if !report.certified_overflow_free() {
            continue; // output-truncating pipelines diverge from golden by design
        }
        let (plan, net) = netlist_of(alg, &BitWidths::default());
        let cert = certify_netlist(&plan.dag, &net, &options());
        assert!(cert.all_proved(), "{}: {}", alg.name(), cert.render());
        let inputs: Vec<Image> = (0..plan.dag.stages().filter(|(_, s)| s.is_input()).count())
            .map(|k| {
                Image::from_fn(geom().width, geom().height, |x, y| {
                    noise_bits(11 + k as u64, x, y, 7)
                })
            })
            .collect();
        let run = interpret(&net, &inputs).unwrap();
        let golden = execute(&plan.dag, &inputs).unwrap();
        for (stage, img) in &run.output_images {
            let gold = golden.stage(imagen_ir::StageId::from_index(*stage));
            assert_eq!(img, gold, "{}: netlist diverged from golden", alg.name());
        }
        checked += 1;
    }
    assert!(
        checked >= 3,
        "only {checked} pipelines reached the golden check"
    );
}

/// Replaces the kernel of the first compute stage with `f(kernel)`.
fn mutate_kernel(net: &mut Netlist, f: impl Fn(&Expr) -> Expr) {
    for s in &mut net.structure.stages {
        if let Some(kernel) = &mut s.kernel {
            *kernel = Arc::new(f(kernel));
            return;
        }
    }
    panic!("no compute stage to mutate");
}

#[test]
fn mutated_kernel_constant_is_refuted_with_witness_and_diverges() {
    let (plan, net) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    let mut bad = net.clone();
    mutate_kernel(&mut bad, |k| {
        Expr::bin(imagen_ir::BinOp::Add, k.clone(), Expr::Const(1))
    });

    let cert = certify_netlist(&plan.dag, &bad, &options());
    let codes = refuted_codes(&cert);
    assert!(codes.contains(&"E0501"), "{}", cert.render());
    let witness = refuted_witnesses(&cert).join("\n");
    assert!(
        witness.contains("spec =") && witness.contains("netlist ="),
        "witness lacks concrete values: {witness}"
    );

    // The refutation is real: the mutated netlist computes different
    // frames than the original on the witness-free differential too.
    let inputs: Vec<Image> = (0..1)
        .map(|k| {
            Image::from_fn(geom().width, geom().height, |x, y| {
                noise_bits(3 + k as u64, x, y, 7)
            })
        })
        .collect();
    let good_run = interpret(&net, &inputs).unwrap();
    let bad_run = interpret(&bad, &inputs).unwrap();
    assert_ne!(
        good_run.output_images, bad_run.output_images,
        "mutation did not change the computed frames"
    );
}

#[test]
fn shrunk_window_is_refuted_as_uncovered_tap() {
    let (plan, net) = netlist_of(Algorithm::CannyS, &BitWidths::default());
    let mut bad = net.clone();
    let e = bad
        .structure
        .edges
        .iter_mut()
        .find(|e| e.window.height > 1)
        .expect("a multi-row edge");
    e.window.height -= 1;
    let cert = certify_netlist(&plan.dag, &bad, &options());
    assert!(refuted_codes(&cert).contains(&"E0503"), "{}", cert.render());
}

#[test]
fn hoisted_consumer_start_is_refuted_as_stale_read() {
    let (plan, net) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    let mut bad = net.clone();
    // Drag every consumer to cycle 0: rows below the anchor are then
    // read before the producer has committed them.
    for s in &mut bad.structure.stages {
        s.start_cycle = 0;
    }
    let cert = certify_netlist(&plan.dag, &bad, &options());
    assert!(refuted_codes(&cert).contains(&"E0504"), "{}", cert.render());
}

#[test]
fn shrunk_rotation_is_refuted_as_clobbered_row() {
    let (plan, net) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    let mut bad = net.clone();
    let b = bad
        .structure
        .buffers
        .iter_mut()
        .find(|b| b.storage_rows > 1)
        .expect("a rotating buffer");
    b.storage_rows = 1;
    let cert = certify_netlist(&plan.dag, &bad, &options());
    // A 1-row rotation either clobbers a live row (E0505) or cannot be
    // fresh at all; on this schedule it is the clobber.
    assert!(refuted_codes(&cert).contains(&"E0505"), "{}", cert.render());
}

#[test]
fn chopped_gate_is_refuted_with_a_cycle_witness() {
    let (plan, net) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    let mut gated = imagen_power::gate_clocks(&net);
    let gp = gated.gating.as_mut().unwrap();
    // Close a gate one full row early: the consumer's last row of loads
    // happens with the read port dark, and those loads are fetched.
    let g = &mut gp.gates[0];
    g.read_end -= geom().width as u64;
    let cert = certify_netlist(&plan.dag, &gated, &options());
    let codes = refuted_codes(&cert);
    assert!(codes.contains(&"E0506"), "{}", cert.render());
    let witness = refuted_witnesses(&cert).join("\n");
    assert!(witness.contains("cycle"), "no cycle in witness: {witness}");
}

/// A netlist that lacks what a stage's obligations are stated over — the
/// stage itself, or its kernel — leaves them unstatable: each is refuted
/// with E0507, and the certifier does not panic.
#[test]
fn missing_stage_or_kernel_is_refuted_as_unstatable() {
    let (plan, net) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    let n = plan.dag.num_stages();

    // A DAG with a stage past the end of the netlist's structure.
    let mut longer = plan.dag.clone();
    let sink = imagen_ir::StageId::from_index(n - 1);
    let extra = longer
        .add_stage("extra", &[sink], Expr::tap(0, 0, 0))
        .unwrap();
    longer.mark_output(extra);
    let cert = certify_netlist(&longer, &net, &options());
    assert_eq!(refuted_codes(&cert), ["E0507"], "{}", cert.render());
    let witness = refuted_witnesses(&cert).join("\n");
    assert!(witness.contains(&format!("stage {n}")), "{witness}");

    // A compute stage whose kernel is gone.
    let mut bare = net.clone();
    let stage = bare
        .structure
        .stages
        .iter_mut()
        .find(|s| s.kernel.is_some())
        .expect("a compute stage");
    stage.kernel = None;
    let cert = certify_netlist(&plan.dag, &bare, &options());
    assert_eq!(refuted_codes(&cert), ["E0507"], "{}", cert.render());

    // A gated netlist with a stage cut out of the middle of its list:
    // every stage from there on sits at the wrong index and is
    // unstatable, and the gates of their buffers state nothing.
    let mut cut = imagen_power::gate_clocks(&net);
    cut.structure.stages.remove(1);
    let cert = certify_netlist(&plan.dag, &cut, &options());
    let codes = refuted_codes(&cert);
    assert!(!codes.is_empty(), "{}", cert.render());
    assert!(codes.iter().all(|&c| c == "E0507"), "{}", cert.render());
}

/// The synthetic pool the benchmark draws from
/// (`synthetic_pipeline(n, n << 32 | i)`) certifies at scale: pool DAGs
/// of 9 to 60 stages, plain and coalesced at 352×240, prove every
/// obligation.
#[test]
fn synthetic_pool_certifies_at_scale() {
    let geom = ImageGeometry {
        width: 352,
        height: 240,
        pixel_bits: 16,
    };
    let plain = MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2);
    for n in [9u64, 20, 33, 45, 60] {
        for i in [0, 31] {
            let dag = imagen_algos::synthetic_pipeline(n as usize, n << 32 | i);
            for (spec, style) in [
                (plain.clone(), DesignStyle::Ours),
                (plain.clone().with_coalescing(), DesignStyle::OursLc),
            ] {
                let opts = AnalysisOptions {
                    geom,
                    spec,
                    ..AnalysisOptions::default()
                };
                let label = format!("{} {style:?}", dag.name());
                let cert = certify_dag_styled(&dag, &opts, style)
                    .unwrap_or_else(|d| panic!("{label}: {}", d.message));
                assert!(cert.all_proved(), "{label}: {}", cert.render());
                assert!(
                    cert.obligations.len() >= n as usize,
                    "{label}: {} obligations",
                    cert.obligations.len()
                );
            }
        }
    }
}

#[test]
fn gate_gap_over_unfetched_loads_is_a_warning_not_a_refutation() {
    // Every tap of the consumer sits at dx = -1, so the load at the last
    // column of each row is never fetched; chopping the gate by exactly
    // one cycle uncovers only that load. The certifier must downgrade to
    // W0509 instead of refuting.
    let dag = imagen_dsl::compile(
        "leftonly",
        "input a; output b = im(x,y) a(x-1,y) + a(x-1,y-1) end",
    )
    .unwrap();
    let plan = plan_design(
        &dag,
        &geom(),
        &options().spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
    let mut gated = imagen_power::gate_clocks(&net);
    let gp = gated.gating.as_mut().unwrap();
    let g = &mut gp.gates[0];
    g.read_end -= 1;
    let cert = certify_netlist(&plan.dag, &gated, &options());
    assert_eq!(cert.refuted(), 0, "{}", cert.render());
    assert!(
        cert.obligations.iter().any(|o| matches!(
            &o.status,
            ProofStatus::Fuzzed { code, .. } if *code == "W0509"
        )),
        "{}",
        cert.render()
    );
}

#[test]
fn undecidable_division_falls_back_to_agreeing_fuzz() {
    // x^5 wraps a 32-bit accumulator and division blocks the modular
    // proof — but dividing by 1 keeps the low 16 bits congruent, so the
    // directed sampler agrees on every assignment: W0502, not E0501.
    let dag = imagen_dsl::compile(
        "fifth",
        "input a; output b = im(x,y) (a(x,y)*a(x,y)*a(x,y)*a(x,y)*a(x,y)) / 1 end",
    )
    .unwrap();
    let cert = certify_dag(&dag, &options()).unwrap();
    assert_eq!(cert.refuted(), 0, "{}", cert.render());
    assert!(
        cert.obligations.iter().any(|o| matches!(
            &o.status,
            ProofStatus::Fuzzed { code, samples } if *code == "W0502" && *samples > 0
        )),
        "{}",
        cert.render()
    );
}

#[test]
fn genuinely_truncating_division_is_refuted() {
    // x^5 / 3 truncates its numerator in the accumulator before the
    // divide: the 16/32 netlist really does diverge from DSL semantics,
    // and the sampler must produce the witness.
    let dag = imagen_dsl::compile(
        "fifth3",
        "input a; output b = im(x,y) (a(x,y)*a(x,y)*a(x,y)*a(x,y)*a(x,y)) / 3 end",
    )
    .unwrap();
    let cert = certify_dag(&dag, &options()).unwrap();
    assert!(refuted_codes(&cert).contains(&"E0501"), "{}", cert.render());
    // At 64/64 nothing truncates and the same pipeline proves.
    let wide = AnalysisOptions {
        widths: BitWidths::wide(),
        ..options()
    };
    let cert64 = certify_dag(&dag, &wide).unwrap();
    assert!(cert64.all_proved(), "{}", cert64.render());
}

#[test]
fn out_of_range_inputs_are_a_certificate_caveat() {
    let dag = imagen_dsl::compile("id", "input a; output b = im(x,y) a(x,y) end").unwrap();
    let opts = AnalysisOptions {
        input_range: (0, 1 << 20),
        ..options()
    };
    let cert = certify_dag(&dag, &opts).unwrap();
    assert_eq!(cert.refuted(), 0, "{}", cert.render());
    assert!(
        cert.obligations.iter().any(|o| matches!(
            &o.status,
            ProofStatus::Fuzzed { code, .. } if *code == "W0508"
        )),
        "{}",
        cert.render()
    );
}

#[test]
fn certificate_diagnostics_and_render_carry_codes() {
    let (plan, net) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    let mut bad = net.clone();
    mutate_kernel(&mut bad, |k| {
        Expr::bin(imagen_ir::BinOp::Add, k.clone(), Expr::Const(1))
    });
    let cert = certify_netlist(&plan.dag, &bad, &options());
    let diags = cert.diagnostics();
    assert!(diags.iter().any(|d| d.code == "E0501"), "{diags:?}");
    assert!(cert.render().contains("REFUTED [E0501]"));
    assert_eq!(cert.status(), "refuted");
    // A clean certificate lowers to no diagnostics at all.
    let good = certify_netlist(&plan.dag, &net, &options());
    assert!(good.diagnostics().is_empty());
    assert_eq!(good.status(), "proved");
}

/// The netlist with every stage's kernel replaced by a fresh `Arc` of an
/// equal tree, so no stage holds the DSL kernel itself.
fn with_copied_kernels(net: &Netlist) -> Netlist {
    let mut copy = net.clone();
    for kernel in copy
        .structure
        .stages
        .iter_mut()
        .filter_map(|s| s.kernel.as_mut())
    {
        *kernel = Arc::new(Expr::clone(kernel));
    }
    copy
}

/// Certifies `net` as built and with copied kernels; both must give the
/// same certificate. Returns it.
fn certify_shared_and_copied(label: &str, dag: &Dag, net: &Netlist) -> Certificate {
    let copied = with_copied_kernels(net);
    for (id, stage) in dag.stages() {
        if let (Some(spec), Some(k)) = (
            stage.kernel(),
            copied.structure.stages[id.index()].kernel.as_deref(),
        ) {
            assert!(
                !std::ptr::eq(spec, k),
                "{label}: copy still shares a kernel"
            );
        }
    }
    let cert = certify_netlist(dag, net, &options());
    assert_eq!(
        cert,
        certify_netlist(dag, &copied, &options()),
        "{label}: copied kernels changed the certificate"
    );
    cert
}

/// A netlist that shares the DSL kernels (the datapath obligation skips
/// normalization by identity) and one holding equal copies (skipped by
/// structural equality) certify identically: on every example at both
/// widths, on a modular proof, on a fuzzed division and on a refuted
/// mutation, which still normalizes.
#[test]
fn shared_and_copied_kernels_certify_identically() {
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut count = 0;
    for entry in std::fs::read_dir(&examples).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("imagen") {
            continue;
        }
        count += 1;
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let dag = imagen_dsl::compile(&stem, &std::fs::read_to_string(&path).unwrap()).unwrap();
        let plan = planned_dag(&dag);
        for widths in [BitWidths::default(), BitWidths::wide()] {
            let net = build_netlist(&plan.dag, &plan.design, &widths);
            for (id, stage) in plan.dag.stages() {
                if let Some(spec) = stage.kernel() {
                    let k = net.structure.stages[id.index()].kernel.as_deref().unwrap();
                    assert!(std::ptr::eq(spec, k), "{stem}: netlist copied a kernel");
                }
            }
            let label = format!("{stem} @ {}/{}", widths.pixel_bits, widths.acc_bits);
            let cert = certify_shared_and_copied(&label, &plan.dag, &net);
            assert!(cert.all_proved(), "{label}: {}", cert.render());
        }
    }
    assert_eq!(count, 10, "expected the 10-program example corpus");

    let fifth = "a(x,y)*a(x,y)*a(x,y)*a(x,y)*a(x,y)";
    for (name, body, want) in [
        ("modular", fifth.to_string(), "proved (modular)"),
        ("fifth", format!("({fifth}) / 1"), "fuzzed [W0502]"),
    ] {
        let src = format!("input a; output b = im(x,y) {body} end");
        let dag = imagen_dsl::compile(name, &src).unwrap();
        let plan = planned_dag(&dag);
        let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
        let cert = certify_shared_and_copied(name, &plan.dag, &net);
        assert!(cert.render().contains(want), "{name}: {}", cert.render());
    }

    let (plan, mut bad) = netlist_of(Algorithm::UnsharpM, &BitWidths::default());
    mutate_kernel(&mut bad, |k| {
        Expr::bin(imagen_ir::BinOp::Add, k.clone(), Expr::Const(1))
    });
    let cert = certify_shared_and_copied("mutated", &plan.dag, &bad);
    assert!(refuted_codes(&cert).contains(&"E0501"), "{}", cert.render());
}
