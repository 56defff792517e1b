//! Netlist lints: structural diagnostics over the typed RTL IR.
//!
//! Builds on [`imagen_rtl::verify_all`] (every structural error becomes an
//! `E03xx` diagnostic) and adds the semantic passes the structural
//! verifier cannot express: dead nets and dead modules, SRAM instances
//! whose read ports are all left open, combinational cycles, and
//! enable-domain consistency between the top-level schedule comparators
//! and the instances they are supposed to gate. A bank of SRAM blocks
//! ([`Item::Bank`]) is linted once, on its template: every block reads
//! the same nets and leaves the same ports open.
//!
//! The dead-net and combinational-cycle passes need to know what each
//! [`Item::Assign`] *reads*, which the netlist does not record (the
//! right-hand sides live in the emitter and the interpreter, keyed by
//! [`ModuleKind`]). The read-sets are therefore mirrored here per module
//! kind, and the `generated_netlists_are_clean_for_all_algorithms` test
//! pins them against every Tbl. 3 pipeline: a builder change that adds a
//! net or a read this table misses shows up as a spurious `W0311`.

use crate::{codes, AnalysisOptions, Diagnostic, Locus, Severity};
use imagen_rtl::{
    verify_all, Conn, Dir, Instance, Item, Module, ModuleKind, NetStage, Netlist, Placement,
    RtlError,
};
use std::collections::{HashMap, HashSet};

/// Runs every netlist lint, structural verification included.
pub fn lint_netlist(net: &Netlist, opts: &AnalysisOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // E0301..E0310 — the accumulating structural verifier.
    for e in &verify_all(net).errors {
        diags.push(structural_diag(e));
    }

    // E0203 — the netlist's bit widths must agree with what the analysis
    // (and the width-dataflow certification) assumed.
    width_cross_check(net, opts, &mut diags);

    let by_name: HashMap<&str, &Module> =
        net.modules.iter().map(|m| (m.name.as_str(), m)).collect();

    let mut instantiated: HashSet<&str> = HashSet::new();
    for module in &net.modules {
        for placed in module.items.iter().filter_map(Item::placement) {
            instantiated.insert(placed.inst.module.as_str());
        }
    }

    for module in &net.modules {
        lint_module(net, module, &by_name, &mut diags);
    }

    // W0312 — stage/line-buffer modules nothing instantiates. The SRAM
    // primitives are exempt: the builder always defines both the 1p and
    // the 2p macro even when only one flavor is placed.
    for module in &net.modules {
        if matches!(
            module.kind,
            ModuleKind::Stage(_) | ModuleKind::LineBuffer(_)
        ) && !instantiated.contains(module.name.as_str())
        {
            diags.push(Diagnostic::new(
                codes::DEAD_MODULE,
                Severity::Warning,
                format!("module `{}` is never instantiated", module.name),
            ));
        }
    }

    diags
}

/// Maps an accumulated structural error onto its stable diagnostic code.
fn structural_diag(e: &RtlError) -> Diagnostic {
    let index = match e {
        RtlError::DuplicateModule { .. } => 0,
        RtlError::UndefinedModule { .. } => 1,
        RtlError::DuplicateSignal { .. } => 2,
        RtlError::UnknownPort { .. } => 3,
        RtlError::UnconnectedInput { .. } => 4,
        RtlError::WidthMismatch { .. } => 5,
        RtlError::UndrivenNet { .. } => 6,
        RtlError::MultipleDrivers { .. } => 7,
        RtlError::UnknownNet { .. } => 8,
        RtlError::BankMismatch { .. } => 9,
    };
    let locus = match e {
        RtlError::DuplicateSignal { name, within } => Locus::Net {
            module: within.clone(),
            net: name.clone(),
        },
        RtlError::UndrivenNet { net, within }
        | RtlError::MultipleDrivers { net, within }
        | RtlError::UnknownNet { net, within } => Locus::Net {
            module: within.clone(),
            net: net.clone(),
        },
        _ => Locus::None,
    };
    Diagnostic::new(codes::RTL_STRUCTURAL[index], Severity::Error, e.to_string()).at(locus)
}

/// E0203 — netlist widths vs the analysis options, and the per-stage
/// result/output nets vs the netlist's own header.
fn width_cross_check(net: &Netlist, opts: &AnalysisOptions, diags: &mut Vec<Diagnostic>) {
    let w = &net.widths;
    if w.pixel_bits != opts.widths.pixel_bits || w.acc_bits != opts.widths.acc_bits {
        diags.push(Diagnostic::new(
            codes::WIDTH_MISMATCH,
            Severity::Error,
            format!(
                "netlist carries {}/{}-bit pixel/accumulator widths but the analysis assumed {}/{}",
                w.pixel_bits, w.acc_bits, opts.widths.pixel_bits, opts.widths.acc_bits
            ),
        ));
    }
    for module in &net.modules {
        if !matches!(module.kind, ModuleKind::Stage(_)) {
            continue;
        }
        for (name, want, role) in [
            ("result", w.acc_bits, "accumulator"),
            ("pixel_out", w.pixel_bits, "pixel"),
        ] {
            if let Some(n) = module.net(name) {
                if n.width != want {
                    diags.push(
                        Diagnostic::new(
                            codes::WIDTH_MISMATCH,
                            Severity::Error,
                            format!(
                                "net `{name}` in `{}` is {} bits, not the netlist's {want}-bit {role} width",
                                module.name, n.width
                            ),
                        )
                        .at(Locus::Net {
                            module: module.name.clone(),
                            net: name.to_string(),
                        }),
                    );
                }
            }
        }
    }
}

/// Per-module lints: W0311 dead nets, W0313 unread SRAM instances,
/// E0314 combinational cycles, W0315 enable-domain consistency.
fn lint_module(
    net: &Netlist,
    module: &Module,
    by_name: &HashMap<&str, &Module>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut reads: HashSet<String> = HashSet::new();
    // net -> nets it combinationally depends on (same cycle).
    let mut comb: HashMap<String, Vec<String>> = HashMap::new();

    for item in &module.items {
        match item {
            Item::Assign { net: driven } => {
                let deps = assign_reads(net, module, driven);
                reads.extend(deps.iter().cloned());
                comb.entry(driven.clone()).or_default().extend(deps);
            }
            Item::Register { net: driven } => {
                // Clocked: reads count, but no combinational edges.
                reads.extend(register_reads(module, driven));
            }
            Item::WindowLoad { sra, edge } => {
                reads.extend(windowload_reads(net, sra, *edge));
            }
            Item::Inst(_) | Item::Bank(_) => {
                // A bank's blocks all connect alike: its template stands
                // for every one of them.
                let placed = item.placement().expect("an instance or a bank");
                let inst = placed.inst;
                let target = by_name.get(inst.module.as_str()).copied();
                let (in_reads, comb_outs) = instance_io(module, inst, target);
                for out in comb_outs {
                    comb.entry(out)
                        .or_default()
                        .extend(in_reads.iter().cloned());
                }
                reads.extend(in_reads);

                if let Some(t) = target {
                    if matches!(t.kind, ModuleKind::SramPrimitive { .. }) {
                        lint_sram_instance(module, &placed, t, diags);
                    }
                    if matches!(module.kind, ModuleKind::Top) {
                        lint_enable_domain(net, module, inst, t, diags);
                    }
                }
            }
        }
    }

    // W0311 — declared non-port nets nothing in the module reads.
    for n in &module.nets {
        if n.port.is_none() && !reads.contains(&n.name) {
            diags.push(
                Diagnostic::new(
                    codes::DEAD_NET,
                    Severity::Warning,
                    format!("net `{}` in `{}` is never read", n.name, module.name),
                )
                .at(Locus::Net {
                    module: module.name.clone(),
                    net: n.name.clone(),
                }),
            );
        }
    }

    // E0314 — cycles in the combinational dependency graph. Registers,
    // window loads and registered instance outputs contribute no edges,
    // so any cycle found here is a genuine zero-delay loop.
    if let Some(through) = find_comb_cycle(&comb) {
        diags.push(
            Diagnostic::new(
                codes::COMB_CYCLE,
                Severity::Error,
                format!(
                    "combinational cycle through net `{through}` in module `{}`",
                    module.name
                ),
            )
            .at(Locus::Net {
                module: module.name.clone(),
                net: through,
            }),
        );
    }
}

/// W0313 — an SRAM macro whose read-data ports are all left open does
/// nothing but burn leakage power (a bank's blocks: one warning).
fn lint_sram_instance(
    module: &Module,
    placed: &Placement<'_>,
    target: &Module,
    diags: &mut Vec<Diagnostic>,
) {
    let mut outputs = 0usize;
    let mut open = 0usize;
    for (port, conn) in &placed.inst.conns {
        if target
            .net(port)
            .is_some_and(|p| p.port == Some(Dir::Output))
        {
            outputs += 1;
            if matches!(conn, Conn::Open) {
                open += 1;
            }
        }
    }
    if outputs > 0 && open == outputs {
        diags.push(Diagnostic::new(
            codes::UNREAD_SRAM,
            Severity::Warning,
            format!(
                "SRAM instance `{}` in `{}` leaves every read port open",
                placed.label(),
                module.name
            ),
        ));
    }
}

/// W0315 — every stage instance must be enabled by its own schedule
/// comparator, and every line buffer written under its writer stage's
/// enable; anything else silently decouples the datapath from the
/// schedule the solver proved.
fn lint_enable_domain(
    net: &Netlist,
    module: &Module,
    inst: &Instance,
    target: &Module,
    diags: &mut Vec<Diagnostic>,
) {
    let (gate_port, stage_index) = match target.kind {
        ModuleKind::Stage(i) => ("en", Some(i)),
        ModuleKind::LineBuffer(b) => ("wen", net.structure.buffers.get(b).map(|b| b.stage)),
        _ => return,
    };
    let Some(stage) = stage_index.and_then(|i| net.structure.stage(i)) else {
        return;
    };
    let want = format!("en_{}", stage.sanitized);
    let ok = inst
        .conns
        .iter()
        .any(|(p, c)| p == gate_port && matches!(c, Conn::Net(n) if *n == want));
    if !ok {
        diags.push(
            Diagnostic::new(
                codes::ENABLE_DOMAIN,
                Severity::Warning,
                format!(
                    "instance `{}` is not gated by its scheduled stage enable `{want}`",
                    inst.name
                ),
            )
            .at(Locus::Net {
                module: module.name.clone(),
                net: want,
            }),
        );
    }
}

fn stage_by_san<'a>(net: &'a Netlist, san: &str) -> Option<&'a NetStage> {
    net.structure.stages.iter().find(|s| s.sanitized == san)
}

/// What a continuous assignment reads, keyed by module kind and driven
/// net — the mirror of the emitter's right-hand sides.
fn assign_reads(net: &Netlist, module: &Module, driven: &str) -> Vec<String> {
    match &module.kind {
        ModuleKind::Top => top_assign_reads(net, driven),
        ModuleKind::LineBuffer(b) => {
            // A split row's block is its column segment, addressed by
            // column alone.
            let buf = net.structure.buffers.get(*b);
            let split = buf.is_some_and(|b| b.layout.is_split());
            let deps: &[&str] = match driven {
                "wphys" => &["wrow"],
                "rphys" => &["rrow"],
                "wblk" if split => &["wphys", "wcol"],
                "rblk" if split => &["rphys", "rcol"],
                "waddr" if split => &["wcol"],
                "raddr" if split => &["rcol"],
                "wblk" => &["wphys"],
                "rblk" => &["rphys"],
                "waddr" => &["wphys", "wcol"],
                "raddr" => &["rphys", "rcol"],
                "rdata" => &["rdata_blk", "rblk_q"],
                _ => &[],
            };
            deps.iter().map(|s| s.to_string()).collect()
        }
        ModuleKind::Stage(_) => {
            if driven == "result" {
                module
                    .ports()
                    .filter(|p| p.name.starts_with("win"))
                    .map(|p| p.name.clone())
                    .chain(std::iter::once("en".to_string()))
                    .collect()
            } else {
                Vec::new()
            }
        }
        ModuleKind::SramPrimitive { .. } => Vec::new(),
    }
}

fn top_assign_reads(net: &Netlist, driven: &str) -> Vec<String> {
    if driven == "frame_done" {
        return vec!["cycle".to_string()];
    }
    for prefix in ["en_", "k_"] {
        if let Some(s) = driven.strip_prefix(prefix) {
            if stage_by_san(net, s).is_some() {
                return vec!["cycle".to_string()];
            }
        }
    }
    for prefix in ["y_", "x_"] {
        if let Some(s) = driven.strip_prefix(prefix) {
            if stage_by_san(net, s).is_some() {
                return vec![format!("k_{s}")];
            }
        }
    }
    if let Some(k) = driven
        .strip_prefix("stream_out_")
        .and_then(|k| k.parse::<usize>().ok())
    {
        if let Some(s) = net.structure.stages.iter().filter(|s| s.is_output).nth(k) {
            return vec![
                format!("out_{}", s.sanitized),
                format!("en_{}", s.sanitized),
            ];
        }
    }
    if let Some(s) = driven
        .strip_prefix("out_")
        .and_then(|s| stage_by_san(net, s))
    {
        if let Some(k) = s.input_stream {
            return vec![format!("stream_in_{k}"), format!("en_{}", s.sanitized)];
        }
    }
    Vec::new()
}

/// What a clocked register reads (for dead-net accounting only; clocked
/// items never feed the combinational cycle graph).
fn register_reads(module: &Module, driven: &str) -> Vec<String> {
    let deps: Vec<&str> = match &module.kind {
        ModuleKind::Top => match driven {
            "cycle" => vec!["rst", "cycle"],
            _ => Vec::new(),
        },
        ModuleKind::LineBuffer(_) => match driven {
            "rblk_q" => vec!["rblk"],
            _ => Vec::new(),
        },
        ModuleKind::Stage(_) => match driven {
            "pixel_out" => vec!["result", "en"],
            _ => Vec::new(),
        },
        ModuleKind::SramPrimitive { .. } => match driven {
            "mem" => {
                return module
                    .ports()
                    .filter(|p| p.port == Some(Dir::Input) && p.name != "clk")
                    .map(|p| p.name.clone())
                    .collect();
            }
            "rdata_a" => vec!["mem", "en_a", "addr_a"],
            "rdata_b" => vec!["mem", "en_b", "addr_b"],
            "rdata" => vec!["mem", "en", "addr"],
            _ => Vec::new(),
        },
    };
    deps.into_iter().map(|s| s.to_string()).collect()
}

/// What a window-load item reads: the consumer's control nets, the
/// producer's output pixel, and its own shift-register array.
fn windowload_reads(net: &Netlist, sra: &str, edge: usize) -> Vec<String> {
    let mut deps = vec![sra.to_string()];
    if let Some(e) = net.structure.edges.get(edge) {
        if let (Some(p), Some(c)) = (
            net.structure.stage(e.producer),
            net.structure.stage(e.consumer),
        ) {
            deps.extend([
                format!("en_{}", c.sanitized),
                format!("x_{}", c.sanitized),
                format!("y_{}", c.sanitized),
                format!("out_{}", p.sanitized),
            ]);
        }
    }
    deps
}

/// Splits an instance's connections into the local nets its inputs read
/// and the local nets its *combinational* (non-registered) outputs drive.
fn instance_io(
    module: &Module,
    inst: &Instance,
    target: Option<&Module>,
) -> (HashSet<String>, Vec<String>) {
    let mut in_reads = HashSet::new();
    let mut comb_outs = Vec::new();
    for (port, conn) in &inst.conns {
        let port_net = target.and_then(|t| t.net(port));
        let is_output = port_net.is_some_and(|p| p.port == Some(Dir::Output));
        if is_output {
            if !port_net.is_some_and(|p| p.is_reg) {
                if let Conn::Net(n) | Conn::NetIndex(n, _) | Conn::Block(n) = conn {
                    comb_outs.push(n.clone());
                }
            }
            continue;
        }
        // Inputs — and, when the target is undefined, everything
        // (conservative: unknown direction counts as a read).
        match conn {
            Conn::Net(n) | Conn::NetIndex(n, _) | Conn::Block(n) => {
                in_reads.insert(n.clone());
            }
            Conn::Expr(expr) => {
                for tok in expr.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
                    if !tok.is_empty()
                        && !tok.starts_with(|c: char| c.is_ascii_digit())
                        && module.net(tok).is_some()
                    {
                        in_reads.insert(tok.to_string());
                    }
                }
            }
            Conn::Const(..) | Conn::Open => {}
        }
    }
    (in_reads, comb_outs)
}

/// Tri-color DFS over the combinational dependency graph; returns a net
/// on some zero-delay cycle, or `None`.
fn find_comb_cycle(comb: &HashMap<String, Vec<String>>) -> Option<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: HashMap<&str, Color> = comb.keys().map(|k| (k.as_str(), Color::White)).collect();
    let mut roots: Vec<&String> = comb.keys().collect();
    roots.sort();
    for root in roots {
        if color[root.as_str()] != Color::White {
            continue;
        }
        // Explicit stack: (net, next-child index).
        let mut stack: Vec<(&str, usize)> = vec![(root.as_str(), 0)];
        color.insert(root.as_str(), Color::Grey);
        while let Some(frame) = stack.last_mut() {
            let node = frame.0;
            let deps = &comb[node];
            if frame.1 >= deps.len() {
                color.insert(node, Color::Black);
                stack.pop();
                continue;
            }
            let child = deps[frame.1].as_str();
            frame.1 += 1;
            match color.get(child) {
                Some(Color::Grey) => return Some(child.to_string()),
                Some(Color::White) => {
                    color.insert(child, Color::Grey);
                    stack.push((child, 0));
                }
                // Black, or a net with no combinational driver.
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_ir::{Dag, Expr};
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_rtl::{build_netlist, BitWidths, Net};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn fixture() -> Netlist {
        let mut dag = Dag::new("fx");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::sum((0..3).map(|i| Expr::tap(0, 0, i - 1))),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 16,
            height: 12,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 512 }, 2);
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        build_netlist(&plan.dag, &plan.design, &BitWidths::default())
    }

    fn lint(net: &Netlist) -> Vec<Diagnostic> {
        lint_netlist(net, &AnalysisOptions::default())
    }

    fn codes_of(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|x| x.code).collect()
    }

    #[test]
    fn generated_netlist_is_clean() {
        let net = fixture();
        let d = lint(&net);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn generated_netlists_are_clean_for_all_algorithms() {
        let geom = ImageGeometry {
            width: 64,
            height: 48,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2);
        for algo in imagen_algos::Algorithm::all() {
            let dag = algo.build();
            let plan = plan_design(
                &dag,
                &geom,
                &spec,
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
            .unwrap();
            let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
            let d = lint(&net);
            assert!(d.is_empty(), "{}: {d:?}", algo.name());
        }
    }

    #[test]
    fn unreferenced_net_is_dead() {
        let mut net = fixture();
        let top = net.top;
        net.modules[top].nets.push(Net {
            name: "scratch".into(),
            width: 8,
            signed: false,
            array: None,
            is_reg: false,
            port: None,
        });
        net.modules[top].items.push(Item::Assign {
            net: "scratch".into(),
        });
        let d = lint(&net);
        assert!(codes_of(&d).contains(&codes::DEAD_NET), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("scratch")));
    }

    #[test]
    fn uninstantiated_stage_module_is_dead() {
        let mut net = fixture();
        let stage = net
            .modules
            .iter()
            .find(|m| matches!(m.kind, ModuleKind::Stage(_)))
            .unwrap()
            .clone();
        let mut ghost = stage;
        ghost.name = "stage_ghost".into();
        net.modules.push(ghost);
        let d = lint(&net);
        assert!(codes_of(&d).contains(&codes::DEAD_MODULE), "{d:?}");
        // Both SRAM primitives exist but only one flavor is placed; the
        // unplaced one must NOT be reported.
        assert!(
            d.iter().all(|x| !x.message.contains("imagen_sram")),
            "{d:?}"
        );
    }

    #[test]
    fn sram_with_all_read_ports_open_is_flagged() {
        let mut net = fixture();
        let lb = net
            .modules
            .iter()
            .position(|m| matches!(m.kind, ModuleKind::LineBuffer(_)))
            .unwrap();
        let bank = net.modules[lb]
            .items
            .iter_mut()
            .find_map(|i| match i {
                Item::Bank(bank) => Some(bank),
                _ => None,
            })
            .expect("the line buffer holds a bank");
        let blocks = bank.blocks;
        assert!(blocks > 1, "the fixture's bank has several blocks");
        for (port, conn) in &mut std::sync::Arc::make_mut(&mut bank.template).conns {
            if port.starts_with("rdata") {
                *conn = Conn::Open;
            }
        }
        let d = lint(&net);
        // One warning for the whole bank, naming its blocks.
        let unread: Vec<_> = d.iter().filter(|x| x.code == codes::UNREAD_SRAM).collect();
        assert_eq!(unread.len(), 1, "{d:?}");
        assert!(
            unread[0]
                .message
                .contains(&format!("`u_blk0..u_blk{}`", blocks - 1)),
            "{d:?}"
        );
    }

    #[test]
    fn combinational_loop_is_detected() {
        let mut net = fixture();
        let lb_name = net
            .modules
            .iter()
            .find(|m| matches!(m.kind, ModuleKind::LineBuffer(_)))
            .unwrap()
            .name
            .clone();
        let top = net.top;
        net.modules[top].nets.push(Net {
            name: "loop_a".into(),
            width: 16,
            signed: true,
            array: None,
            is_reg: false,
            port: None,
        });
        // The line buffer's `rdata` output is combinational, so wiring it
        // back into `wdata` is a zero-delay loop.
        net.modules[top].items.push(Item::Inst(Instance {
            module: lb_name,
            name: "u_loop".into(),
            conns: vec![
                ("clk".into(), Conn::Net("clk".into())),
                ("wen".into(), Conn::Const(1, 1)),
                ("wrow".into(), Conn::Const(0, 32)),
                ("wcol".into(), Conn::Const(0, 32)),
                ("wdata".into(), Conn::Net("loop_a".into())),
                ("ren".into(), Conn::Const(1, 1)),
                ("rrow".into(), Conn::Const(0, 32)),
                ("rcol".into(), Conn::Const(0, 32)),
                ("rdata".into(), Conn::Net("loop_a".into())),
            ],
        }));
        let d = lint(&net);
        assert!(codes_of(&d).contains(&codes::COMB_CYCLE), "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("loop_a")), "{d:?}");
    }

    #[test]
    fn stage_enable_from_wrong_domain_is_flagged() {
        let mut net = fixture();
        let top = net.top;
        for item in &mut net.modules[top].items {
            if let Item::Inst(inst) = item {
                if inst.module.starts_with("stage_") {
                    for (port, conn) in &mut inst.conns {
                        if port == "en" {
                            *conn = Conn::Const(1, 1);
                        }
                    }
                    break;
                }
            }
        }
        let d = lint(&net);
        assert!(codes_of(&d).contains(&codes::ENABLE_DOMAIN), "{d:?}");
    }

    #[test]
    fn width_drift_is_cross_checked() {
        let net = fixture();
        let opts = AnalysisOptions {
            widths: BitWidths::wide(),
            ..AnalysisOptions::default()
        };
        let d = lint_netlist(&net, &opts);
        assert!(codes_of(&d).contains(&codes::WIDTH_MISMATCH), "{d:?}");
    }

    #[test]
    fn structural_errors_map_onto_e03xx() {
        let mut net = fixture();
        let top = net.top;
        // Drop the frame_done driver: E0307 (UndrivenNet).
        net.modules[top]
            .items
            .retain(|i| !matches!(i, Item::Assign { net } if net == "frame_done"));
        let d = lint(&net);
        assert!(codes_of(&d).contains(&"E0307"), "{d:?}");
        assert!(d
            .iter()
            .any(|x| matches!(&x.locus, Locus::Net { net, .. } if net == "frame_done")));
    }
}
