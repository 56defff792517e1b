//! Golden-file pin for the emitter: the netlist-based renderer must
//! reproduce the pinned output byte for byte at default bit widths.
//!
//! * `unsharp_m_40x30.v` / `canny_s_40x30.v` were written by the *seed*
//!   emitter (before the netlist IR existed) — the refactor pin — and
//!   re-blessed once when the scheduler started returning the
//!   componentwise-minimal optimal schedule: only stage start cycles
//!   (and `frame_done`) moved;
//! * `denoise_m_40x30.v` and its clock-gated variant
//!   `denoise_m_40x30_gated.v` anchor the gating emitter path
//!   (`imagen_power::gate_clocks` → `emit_verilog`) at the byte level;
//! * `every_op_1p_40x30.v` pins the kernel printer on every `Expr` node
//!   and the line-buffer printer on one-port macros narrower than a row,
//!   so every row splits over two `imagen_sram_1p` blocks. It was
//!   re-blessed once when the macros came to be sized, and the bank
//!   select printed, from the plan's block layout: each macro holds one
//!   32-word column segment and the select reads the column.
//!
//! Regenerating any golden is a deliberate act, not a test-suite side
//! effect.

use imagen_algos::Algorithm;
use imagen_ir::{BinOp, CmpOp, Dag, Expr};
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::{build_netlist, emit_verilog, verify_all, BitWidths, Netlist};
use imagen_schedule::{plan_design, ScheduleOptions};

fn golden_config() -> (ImageGeometry, MemorySpec) {
    let geom = ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(
        MemBackend::Asic {
            block_bits: 2 * geom.row_bits(),
        },
        2,
    );
    (geom, spec)
}

fn golden_netlist(alg: Algorithm) -> Netlist {
    let (geom, spec) = golden_config();
    let plan = plan_design(
        &alg.build(),
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    build_netlist(&plan.dag, &plan.design, &BitWidths::default())
}

fn check_net(name: &str, net: &Netlist, golden: &str) {
    let report = verify_all(net);
    assert!(report.is_clean(), "{name}: {:?}", report.errors);
    let emitted = emit_verilog(net);
    assert!(
        emitted == golden,
        "{name} emission diverged from the pinned golden (first differing line: {:?})",
        emitted
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: {a:?} vs golden {b:?}", i + 1))
    );
}

fn check(alg: Algorithm, golden: &str) {
    check_net(alg.name(), &golden_netlist(alg), golden);
}

#[test]
fn unsharp_m_emission_is_byte_identical() {
    check(
        Algorithm::UnsharpM,
        include_str!("../golden/unsharp_m_40x30.v"),
    );
}

#[test]
fn canny_s_emission_is_byte_identical() {
    check(Algorithm::CannyS, include_str!("../golden/canny_s_40x30.v"));
}

#[test]
fn denoise_m_emission_is_byte_identical() {
    check(
        Algorithm::DenoiseM,
        include_str!("../golden/denoise_m_40x30.v"),
    );
}

#[test]
fn denoise_m_gated_emission_is_byte_identical() {
    // The clock-gating emitter path: the same design through the real
    // gate_clocks pass must render the pinned gated Verilog — the gate
    // wires, the rewritten .ren connections, the header marker — byte
    // for byte, while the ungated emission stays untouched.
    let net = golden_netlist(Algorithm::DenoiseM);
    let gated = imagen_power::gate_clocks(&net);
    check_net(
        Algorithm::DenoiseM.name(),
        &gated,
        include_str!("../golden/denoise_m_40x30_gated.v"),
    );
    // Gating a copy must not perturb the original netlist's emission.
    check(
        Algorithm::DenoiseM,
        include_str!("../golden/denoise_m_40x30.v"),
    );
}

fn abs(e: Expr) -> Expr {
    Expr::Abs(Box::new(e))
}

fn neg(e: Expr) -> Expr {
    Expr::Neg(Box::new(e))
}

fn clamp(value: Expr, lo: Expr, hi: Expr) -> Expr {
    Expr::Clamp {
        value: Box::new(value),
        lo: Box::new(lo),
        hi: Box::new(hi),
    }
}

/// A three-stage pipeline whose kernels hold every `Expr` node: negative
/// and positive constants, taps, `Neg`, `Abs`, every `BinOp` and `CmpOp`,
/// `Select` and `Clamp`, nested more than three deep, with operands of
/// `Abs`, `Min`, `Max`, `Div` and `Clamp` that are themselves compound.
fn every_operator_dag() -> Dag {
    use BinOp::*;
    use CmpOp::*;
    let b = Expr::bin;
    let c = Expr::cmp;
    let mut dag = Dag::new("every op");
    let src = dag.add_input("src");
    // clamp(((src(x-1,y-1) * 3) - (src(x+1,y+1) << 2)) / -5,
    //       -100, max(src(x,y), 50))
    let smooth = dag
        .add_stage(
            "smooth",
            &[src],
            clamp(
                b(
                    Div,
                    b(
                        Sub,
                        b(Mul, Expr::tap(0, -1, -1), Expr::Const(3)),
                        b(Shl, Expr::tap(0, 1, 1), Expr::Const(2)),
                    ),
                    Expr::Const(-5),
                ),
                Expr::Const(-100),
                b(Max, Expr::tap(0, 0, 0), Expr::Const(50)),
            ),
        )
        .unwrap();
    // select(smooth(x,y-1) < src(x+1,y),
    //        min(abs(smooth(x,y+1) - src(x,y)), -smooth(x-1,y)),
    //        (smooth(x+1,y) + 7) >> 1)
    //   + (smooth(x,y) <= src(x,y)) - (src(x,y) > -2)
    let edge = dag
        .add_stage(
            "edge",
            &[smooth, src],
            b(
                Sub,
                b(
                    Add,
                    Expr::select(
                        c(Lt, Expr::tap(0, 0, -1), Expr::tap(1, 1, 0)),
                        b(
                            Min,
                            abs(b(Sub, Expr::tap(0, 0, 1), Expr::tap(1, 0, 0))),
                            neg(Expr::tap(0, -1, 0)),
                        ),
                        b(
                            Shr,
                            b(Add, Expr::tap(0, 1, 0), Expr::Const(7)),
                            Expr::Const(1),
                        ),
                    ),
                    c(Le, Expr::tap(0, 0, 0), Expr::tap(1, 0, 0)),
                ),
                c(Gt, Expr::tap(1, 0, 0), Expr::Const(-2)),
            ),
        )
        .unwrap();
    // (edge(x,y-1) >= -3) + (smooth(x,y) == 0) * (edge(x,y+1) != edge(x,y))
    //   + max(edge(x-1,y) * -2, abs(edge(x+1,y))) / (smooth(x,y) - 1)
    let out = dag
        .add_stage(
            "out",
            &[edge, smooth],
            b(
                Add,
                b(
                    Add,
                    c(Ge, Expr::tap(0, 0, -1), Expr::Const(-3)),
                    b(
                        Mul,
                        c(Eq, Expr::tap(1, 0, 0), Expr::Const(0)),
                        c(Ne, Expr::tap(0, 0, 1), Expr::tap(0, 0, 0)),
                    ),
                ),
                b(
                    Div,
                    b(
                        Max,
                        b(Mul, Expr::tap(0, -1, 0), Expr::Const(-2)),
                        abs(Expr::tap(0, 1, 0)),
                    ),
                    b(Sub, Expr::tap(1, 0, 0), Expr::Const(1)),
                ),
            ),
        )
        .unwrap();
    dag.mark_output(out);
    dag
}

/// [`every_operator_dag`] on one-port macros of 512 bits, which hold
/// less than a 640-bit row, so each buffer spans several
/// `imagen_sram_1p` blocks.
fn every_op_1p_40x30() -> Netlist {
    let geom = ImageGeometry {
        width: 40,
        height: 30,
        pixel_bits: 16,
    };
    let spec = MemorySpec::new(MemBackend::Asic { block_bits: 512 }, 1);
    let plan = plan_design(
        &every_operator_dag(),
        &geom,
        &spec,
        ScheduleOptions::default(),
        DesignStyle::Ours,
    )
    .unwrap();
    build_netlist(&plan.dag, &plan.design, &BitWidths::default())
}

#[test]
fn every_operator_on_one_port_blocks_is_byte_identical() {
    let net = every_op_1p_40x30();
    for buf in &net.structure.buffers {
        assert!(buf.ports == 1 && buf.blocks > 1, "{buf:?}");
    }
    check_net(
        "every_op",
        &net,
        include_str!("../golden/every_op_1p_40x30.v"),
    );
}

type Tokens<'a> = std::iter::Peekable<std::slice::Iter<'a, String>>;

/// Evaluates a printed bank-select right-hand side: integers, nets whose
/// values `net` gives, `+ - * / %` and parentheses, at Verilog's
/// precedence.
fn eval(expr: &str, net: &dyn Fn(&str) -> u64) -> u64 {
    fn sum(t: &mut Tokens<'_>, net: &dyn Fn(&str) -> u64) -> u64 {
        let mut v = product(t, net);
        while let Some(op) = t.next_if(|o| *o == "+" || *o == "-") {
            let rhs = product(t, net);
            v = if op == "+" { v + rhs } else { v - rhs };
        }
        v
    }
    fn product(t: &mut Tokens<'_>, net: &dyn Fn(&str) -> u64) -> u64 {
        let mut v = atom(t, net);
        while let Some(op) = t.next_if(|o| ["*", "/", "%"].contains(&o.as_str())) {
            let rhs = atom(t, net);
            v = match op.as_str() {
                "*" => v * rhs,
                "/" => v / rhs,
                _ => v % rhs,
            };
        }
        v
    }
    fn atom(t: &mut Tokens<'_>, net: &dyn Fn(&str) -> u64) -> u64 {
        match t.next().expect("an operand").as_str() {
            "(" => {
                let v = sum(t, net);
                assert_eq!(t.next().map(String::as_str), Some(")"));
                v
            }
            token => token.parse().unwrap_or_else(|_| net(token)),
        }
    }
    // Words (nets and integers) and one-character operators.
    let mut tokens: Vec<String> = Vec::new();
    for c in expr.chars().filter(|c| !c.is_whitespace()) {
        match tokens.last_mut() {
            Some(word)
                if c.is_ascii_alphanumeric()
                    && word.ends_with(|l: char| l.is_ascii_alphanumeric()) =>
            {
                word.push(c)
            }
            _ => tokens.push(c.to_string()),
        }
    }
    let mut t = tokens.iter().peekable();
    let v = sum(&mut t, net);
    assert!(t.next().is_none(), "trailing tokens in {expr}");
    v
}

/// The printed bank select of every line buffer of the split-row
/// `every_op_1p_40x30` design, evaluated at every row of the frame and
/// every column of the buffer, selects the block the buffer's layout
/// maps the pixel to, at an address below the macros' `DEPTH`, and no
/// two pixels of one rotation share a block and address.
#[test]
fn every_op_bank_select_follows_the_layout() {
    let net = every_op_1p_40x30();
    let verilog = emit_verilog(&net);
    let geom = net.structure.geometry;
    for buf in &net.structure.buffers {
        assert!(buf.layout.is_split(), "{buf:?}");
        let name = format!(
            "module linebuf_{} (",
            net.structure.stages[buf.stage].sanitized
        );
        let module = verilog.split(&name).nth(1).expect("the buffer's module");
        let module = &module[..module.find("endmodule").unwrap()];
        let rhs = |net: &str| {
            let at = module.find(&format!(" {net} = ")).unwrap() + net.len() + 4;
            &module[at..at + module[at..].find(';').unwrap()]
        };
        let depth = module.split(".DEPTH(").nth(1).unwrap();
        let depth: u64 = depth[..depth.find(')').unwrap()].parse().unwrap();
        assert_eq!(depth, 32, "a 512-bit macro holds 32 pixels");
        let mut seen = std::collections::HashSet::new();
        for row in 0..u64::from(geom.height) {
            for col in 0..buf.width {
                let block = buf.layout.block_of(row, col, geom.pixel_bits) as u64;
                // The write and read ports' nets, `phys` once it is known.
                let nets = |phys: u64| {
                    move |n: &str| match &n[1..] {
                        "row" => row,
                        "col" => u64::from(col),
                        "phys" => phys,
                        _ => panic!("unknown net {n}"),
                    }
                };
                for p in ['w', 'r'] {
                    let phys = eval(rhs(&format!("{p}phys")), &nets(0));
                    let blk = eval(rhs(&format!("{p}blk")), &nets(phys));
                    let addr = eval(rhs(&format!("{p}addr")), &nets(phys));
                    assert_eq!(blk, block, "{p}blk at row {row} column {col} of {buf:?}");
                    assert!(addr < depth, "{p}addr {addr} at row {row} column {col}");
                    if row < u64::from(buf.layout.phys_rows()) {
                        assert!(seen.insert((p, blk, addr)), "{p} row {row} column {col}");
                    }
                }
            }
        }
    }
}
