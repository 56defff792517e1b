//! The executable-netlist interpreter's entry points and semantics.
//!
//! [`interpret`] executes a [`Netlist`] over one frame: per-stage enables
//! fire at the ILP start cycles, the window-load paths shift the SRA
//! register arrays and read the rotating line-buffer SRAMs, the stage
//! compute modules evaluate their kernels at the declared accumulator
//! width, and the output registers truncate to the pixel width — exactly
//! the hardware the netlist describes. Both entry points compile the
//! netlist into an [`EvalProgram`], the one netlist executor, and stream
//! the frame through it; this module also pins the datapath arithmetic
//! that executor and the symbolic certifier share ([`trunc`],
//! [`eval_acc`]).
//!
//! This closes the verification loop the repository previously lacked
//! (no synthesis or Verilog simulation tool exists in this environment):
//! the structure the Verilog is printed from is itself executed and
//! cross-checked bit-exactly against the golden executor
//! (`imagen_sim::execute`) and the cycle-level simulator
//! (`imagen_sim::simulate`). At [`BitWidths::wide`](crate::BitWidths::wide)
//! the datapath arithmetic coincides with the software model's `i64`
//! semantics, so equality is exact on full-range inputs; at the default
//! 16/32-bit widths the interpreter reproduces the real truncating
//! hardware, which matches the software model whenever values stay in
//! range (the differential suite checks both regimes).
//!
//! Timing note: values are sampled *after* each clock edge, so output
//! pixel `k` of a stage with start cycle `s` is observed after edge
//! `s + k` — the cycle-level simulator's convention.

use crate::activity::ActivityTrace;
use crate::netlist::Netlist;
use crate::program::{EvalProgram, ScheduleActivity};
use imagen_ir::Expr;
use imagen_sim::Image;
use std::fmt;

/// Interpretation failure (structural, before any cycles run).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum InterpError {
    /// The number of provided input images does not match the netlist's
    /// input streams.
    InputCount {
        /// Streams expected.
        expected: usize,
        /// Images provided.
        provided: usize,
    },
    /// An input image does not match the netlist geometry.
    GeometryMismatch,
    /// A stage is read through a window but owns no line buffer in the
    /// netlist, so the load path has nothing to read from.
    MissingBuffer {
        /// The buffer-less producer stage.
        stage: usize,
    },
    /// The schedule violates the streaming margins on an edge: a window
    /// row is loaded before its producer writes it, or after the
    /// rotating buffer has reused its slot. The planner and the baseline
    /// generators never emit such a schedule, and `imagen certify`
    /// refutes one (E0504/E0505).
    NotStreamable {
        /// Netlist edge index.
        edge: usize,
        /// Producer stage index.
        producer: usize,
        /// Consumer stage index.
        consumer: usize,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::InputCount { expected, provided } => write!(
                f,
                "netlist has {expected} input stream(s) but {provided} image(s) were provided"
            ),
            InterpError::GeometryMismatch => {
                write!(
                    f,
                    "input image dimensions do not match the netlist geometry"
                )
            }
            InterpError::MissingBuffer { stage } => {
                write!(f, "stage {stage} is windowed but owns no line buffer")
            }
            InterpError::NotStreamable {
                edge,
                producer,
                consumer,
            } => write!(
                f,
                "edge {edge} (stage {producer} -> stage {consumer}) violates the streaming margins: a window row is loaded before it is written or after its slot is reused"
            ),
        }
    }
}

impl std::error::Error for InterpError {}

/// Result of interpreting a netlist over one frame.
#[derive(Clone, Debug)]
pub struct InterpReport {
    /// Clock edges executed.
    pub cycles: u64,
    /// Cycle after the last output pixel (end-to-end frame latency).
    pub latency: u64,
    /// The frames streamed out, one per output stage: `(stage index,
    /// image)`.
    pub output_images: Vec<(usize, Image)>,
    /// SRAM words read through the window-load paths.
    pub sram_reads: u64,
    /// SRAM words written through the line-buffer write ports.
    pub sram_writes: u64,
    /// Read-port cycles suppressed by the netlist's clock-gating plan,
    /// summed over all line buffers (0 for ungated netlists). The
    /// differential suite pins it to a per-cycle count, so the energy
    /// saving the gating pass claims is backed by execution.
    pub gated_off_cycles: u64,
}

/// Sign-truncates `v` to `bits` bits (identity for `bits >= 64`).
///
/// Public because the symbolic certifier (`imagen-analysis`) proves its
/// obligations against *this* function and [`eval_acc`] — the pinned
/// semantics of the generated datapath.
pub fn trunc(v: i64, bits: u32) -> i64 {
    if bits >= 64 {
        v
    } else {
        let sh = 64 - bits;
        (v << sh) >> sh
    }
}

/// Evaluates a kernel at accumulator width `acc`: every operation result
/// is truncated to `acc` bits, mirroring the fixed-width datapath of the
/// generated hardware. At `acc = 64` this coincides exactly with
/// [`Expr::eval`]'s wrapping-`i64` semantics.
pub fn eval_acc(e: &Expr, acc: u32, fetch: &mut impl FnMut(usize, i32, i32) -> i64) -> i64 {
    use imagen_ir::BinOp;
    let v = match e {
        Expr::Const(c) => *c,
        Expr::Tap { slot, dx, dy } => fetch(*slot, *dx, *dy),
        Expr::Neg(a) => eval_acc(a, acc, fetch).wrapping_neg(),
        Expr::Abs(a) => eval_acc(a, acc, fetch).wrapping_abs(),
        Expr::Bin(op, a, b) => {
            let a = eval_acc(a, acc, fetch);
            let b = eval_acc(b, acc, fetch);
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b)
                    }
                }
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                // Verilog `<<<`/`>>>` semantics, identical to
                // `imagen_ir::Expr::eval`: out-of-range amounts shift
                // everything out (pinned by tests/shift_semantics.rs).
                BinOp::Shl => {
                    if (0..64).contains(&b) {
                        a.wrapping_shl(b as u32)
                    } else {
                        0
                    }
                }
                BinOp::Shr => {
                    let amt = if (0..64).contains(&b) { b as u32 } else { 63 };
                    a.wrapping_shr(amt)
                }
            }
        }
        Expr::Cmp(op, a, b) => {
            let a = eval_acc(a, acc, fetch);
            let b = eval_acc(b, acc, fetch);
            i64::from(op.apply(a, b))
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            if eval_acc(cond, acc, fetch) != 0 {
                eval_acc(then, acc, fetch)
            } else {
                eval_acc(otherwise, acc, fetch)
            }
        }
        Expr::Clamp { value, lo, hi } => {
            let v = eval_acc(value, acc, fetch);
            let lo = eval_acc(lo, acc, fetch);
            let hi = eval_acc(hi, acc, fetch);
            if lo > hi {
                lo
            } else {
                v.clamp(lo, hi)
            }
        }
    };
    trunc(v, acc)
}

/// Executes `net` on `inputs` (one image per input stream, in stream
/// order), returning the streamed output frames and netlist-level memory
/// access totals.
///
/// The netlist is lowered once into an [`EvalProgram`], which then
/// streams the frame. To amortize compilation over many frames of the
/// same netlist, hold an [`EvalProgram`] directly.
///
/// # Errors
///
/// [`InterpError`] for structural problems; the interpretation itself
/// cannot fail (the netlist is a closed system once inputs are bound).
pub fn interpret(net: &Netlist, inputs: &[Image]) -> Result<InterpReport, InterpError> {
    EvalProgram::compile(net)?.run(inputs)
}

/// [`interpret`]'s report together with the netlist's [`ActivityTrace`]:
/// per-SRAM-bank access counts (merged like the cycle simulator's),
/// read-port enable duty, register-array shift totals and stage enable
/// duty. Every count is fixed by the schedule and the netlist's gating
/// plan, so the trace is [`ScheduleActivity`]'s and does not depend on
/// `inputs`.
///
/// # Errors
///
/// See [`interpret`].
pub fn interpret_with_trace(
    net: &Netlist,
    inputs: &[Image],
) -> Result<(InterpReport, ActivityTrace), InterpError> {
    let report = interpret(net, inputs)?;
    let trace = ScheduleActivity::derive(&net.structure, net.gating.as_ref(), None)?.trace();
    Ok((report, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{build_netlist, BitWidths};
    use imagen_ir::Dag;
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};
    use imagen_sim::{execute, simulate};

    fn blur_plan() -> (Dag, imagen_mem::Design, ImageGeometry) {
        let mut dag = Dag::new("ip");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::sum((0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1))),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 20,
            height: 14,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (p.dag, p.design, geom)
    }

    #[test]
    fn interpreter_matches_golden_and_cycle_sim() {
        let (dag, design, geom) = blur_plan();
        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 7 + y * 13) % 97) as i64
        });
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let report = interpret(&net, std::slice::from_ref(&input)).unwrap();

        let golden = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let sim = simulate(&dag, &design, std::slice::from_ref(&input)).unwrap();
        assert!(sim.is_clean());
        for (stage, img) in &report.output_images {
            let gold = golden.stage(imagen_ir::StageId::from_index(*stage));
            assert_eq!(img, gold, "netlist vs golden");
            let (_, simg) = sim
                .output_images
                .iter()
                .find(|(i, _)| i == stage)
                .expect("sim produced the stream");
            assert_eq!(img, simg, "netlist vs cycle model");
        }
        assert_eq!(report.latency, sim.latency as u64);
        assert!(report.sram_reads > 0 && report.sram_writes > 0);
    }

    #[test]
    fn default_widths_truncate_like_hardware() {
        // A kernel that overflows 16 bits: the netlist at default widths
        // wraps on the output register (real hardware); at wide widths it
        // matches the untruncated software model.
        let mut dag = Dag::new("ovf");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::bin(
                    imagen_ir::BinOp::Mul,
                    Expr::tap(0, 0, 0),
                    Expr::tap(0, 0, 0),
                ),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 8,
            height: 6,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 256 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let input = Image::from_fn(geom.width, geom.height, |_, _| 300);
        let golden = execute(&p.dag, std::slice::from_ref(&input)).unwrap();
        let gold_v = golden.stage(imagen_ir::StageId::from_index(1)).get(4, 3);
        assert_eq!(gold_v, 90_000, "software model does not truncate");

        let narrow = build_netlist(&p.dag, &p.design, &BitWidths::default());
        let r = interpret(&narrow, std::slice::from_ref(&input)).unwrap();
        assert_eq!(
            r.output_images[0].1.get(4, 3),
            super::trunc(90_000, 16),
            "16-bit register wraps"
        );

        let wide = build_netlist(&p.dag, &p.design, &BitWidths::wide());
        let r = interpret(&wide, std::slice::from_ref(&input)).unwrap();
        assert_eq!(r.output_images[0].1.get(4, 3), 90_000);
    }

    #[test]
    fn negative_only_horizontal_taps_execute_correctly() {
        // A kernel tapping only dx = -1 keeps dx_max = -1 after
        // normalization (the shift clamps at zero), so the window spans
        // one column but the executed SRA must still reach the current
        // raster column to supply the previous pixel. The netlist
        // declares that storage (`sra_cells`), the interpreter executes
        // it, and verification sees consistent shapes.
        let mut dag = Dag::new("negdx");
        let k0 = dag.add_input("K0");
        let k1 = dag.add_stage("K1", &[k0], Expr::tap(0, -1, 0)).unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 10,
            height: 6,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 512 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        let e = p.dag.edges().next().unwrap().1;
        assert_eq!(e.window().dx_max, -1, "normalization keeps dx_max < 0");

        let net = build_netlist(&p.dag, &p.design, &BitWidths::default());
        crate::verify_all(&net).into_result().unwrap();
        let sra = net
            .top_module()
            .net("sra_K1_0")
            .expect("window register array declared");
        assert_eq!(sra.array, Some(2), "two columns: tap dx=-1 plus dx=0");

        let input = Image::from_fn(geom.width, geom.height, |x, y| (x * 10 + y) as i64);
        let run = interpret(&net, std::slice::from_ref(&input)).unwrap();
        let golden = execute(&p.dag, std::slice::from_ref(&input)).unwrap();
        assert_eq!(
            &run.output_images[0].1,
            golden.stage(imagen_ir::StageId::from_index(1)),
            "previous-column semantics, clamped at the left edge"
        );
    }

    #[test]
    fn input_validation() {
        let (dag, design, geom) = blur_plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        assert!(matches!(
            interpret(&net, &[]),
            Err(InterpError::InputCount { .. })
        ));
        let wrong = Image::new(3, 3);
        assert!(matches!(
            interpret(&net, &[wrong]),
            Err(InterpError::GeometryMismatch)
        ));
        let _ = geom;
    }

    #[test]
    fn tracing_changes_nothing() {
        // The traced entry point returns the plain run's report: same
        // pixels, same latency, same access totals.
        let (dag, design, geom) = blur_plan();
        let input = Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 11 + y * 5) % 89) as i64
        });
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let plain = interpret(&net, std::slice::from_ref(&input)).unwrap();
        let (traced, trace) = interpret_with_trace(&net, std::slice::from_ref(&input)).unwrap();

        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.latency, traced.latency);
        assert_eq!(plain.sram_reads, traced.sram_reads);
        assert_eq!(plain.sram_writes, traced.sram_writes);
        assert_eq!(plain.gated_off_cycles, 0);
        assert_eq!(traced.gated_off_cycles, 0);
        assert_eq!(plain.output_images.len(), traced.output_images.len());
        for ((a, ia), (b, ib)) in plain.output_images.iter().zip(&traced.output_images) {
            assert_eq!(a, b);
            assert_eq!(ia, ib);
        }

        // Trace shape and sanity: the input stage's buffer is written
        // once per pixel, the consumer is active one frame, and the
        // always-on read port idles before the consumer starts.
        assert_eq!(trace.run_cycles, plain.cycles);
        assert_eq!(trace.frame, net.structure.frame);
        assert_eq!(trace.buffers[0].writes(), net.structure.frame);
        assert!(trace.buffers[0].reads() > 0);
        assert_eq!(trace.stages[1].active_cycles, net.structure.frame);
        assert_eq!(trace.stages[1].out_reg_writes, net.structure.frame);
        assert!(trace.sras[0].shift_cycles == net.structure.frame);
        assert_eq!(trace.buffers[0].read_enabled_cycles, plain.cycles);
        assert!(
            trace.buffers[0].idle_read_cycles > 0,
            "the ungated read port idles before the consumer window"
        );
        assert_eq!(trace.gated_off_cycles(), 0);
    }

    #[test]
    fn trunc_behaves() {
        assert_eq!(trunc(90_000, 16), 90_000 - 65_536);
        assert_eq!(trunc(-5, 16), -5);
        assert_eq!(trunc(i64::MAX, 64), i64::MAX);
        assert_eq!(trunc(32_767, 16), 32_767);
        assert_eq!(trunc(32_768, 16), -32_768);
    }
}
