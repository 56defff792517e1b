//! # imagen-rtl
//!
//! The RTL backend of [ImaGen] (the "RTL Code Gen" box of the paper's
//! Fig. 5): one structure per design, indexed by stage, and a typed
//! structural netlist IR elaborated on top of it:
//!
//! ```text
//! (Dag, Design) ──describe()──▶ Structure { stages, edges, buffers }
//!                                 ├─ report_resources()          → SRAM/FF/operator inventory
//!                                 ├─ ScheduleActivity::derive()  → ActivityTrace, no frame
//!                                 └─ build_netlist() elaborates ─┐
//! Netlist { structure, modules, .. } ◀───────────────────────────┘
//!    ├─ emit_verilog()                → .v text, from the structure alone
//!    ├─ EvalProgram::compile().run()  → executed frames (interpret())
//!    └─ verify_all()                  → arity/width/driver checks of the modules
//! ```
//!
//! * [`describe`] derives a scheduled [`imagen_mem::Design`]'s
//!   [`Structure`] once: per stage its start cycle, rate scales, input
//!   stream, kernel (the DAG's own shared tree), operator census and line
//!   buffer, then the stencil edges and the line buffers. It is the one
//!   per-stage record every backend reads by stage index;
//!   [`build_netlist`] elaborates it into a [`Netlist`] that keeps it:
//!   modules, typed ports and nets, instances, registers, SRAM
//!   primitives and kernel expression nets, at configurable
//!   [`BitWidths`]. A stage or line-buffer module names only its stage
//!   or buffer ([`ModuleKind`]). Each line buffer holds its SRAM blocks
//!   as one [`Bank`]: a block count and one shared connection template
//!   per primitive;
//! * [`emit_verilog`] prints the netlist's structure as Verilog text in
//!   one pass (byte-identical to the original string emitter at default
//!   widths, pinned by golden files) that leaves the window read path
//!   undriven;
//! * [`interpret`] **executes** the netlist — the verification loop no
//!   synthesis tool in this environment could close: the emitted design
//!   itself is run and checked bit-exact against the golden executor and
//!   the cycle-level simulator. It compiles the netlist once into a flat
//!   evaluation program ([`EvalProgram`]), the crate's one executor, and
//!   streams the frame through that, rate-1 and multirate pipelines
//!   alike, and honors an attached clock-[`GatingPlan`], counting the
//!   gated-off read-port cycles. A netlist whose schedule violates the
//!   streaming margins is refused with [`InterpError::NotStreamable`];
//! * [`ScheduleActivity`] derives a design's [`ActivityTrace`]
//!   (per-SRAM-bank access counts, register shift totals, enable duty
//!   cycles) from the structure and a gating plan, without running a
//!   frame, for every design the executor accepts, pyramids included,
//!   and re-derives it under another gating plan that covers every
//!   consumer window; `imagen-power` prices the trace into measured
//!   energy. It is the only source of traces: [`interpret_with_trace`]
//!   pairs a run's report with it. A [`BlockSweepMemo`] shared across
//!   designs sweeps each distinct line buffer once;
//! * [`verify_all`] checks the netlist structurally (port arity/width of
//!   every instantiation, each bank's template once with its block count
//!   against the array it drives, driver/undriven-net analysis),
//!   accumulating every problem into an [`RtlReport`], which counts a
//!   bank as its blocks ([`RtlReport::into_result`] yields the first
//!   error);
//! * [`report_resources`] inventories the hardware a structure
//!   elaborates to, for design-space exploration.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod emit;
mod interp;
mod netlist;
mod program;
mod resources;
mod structure;
mod verify;

pub use activity::{ActivityTrace, BufferActivity, SraActivity, StageActivity};
pub use emit::emit_verilog;
pub use interp::{eval_acc, interpret, interpret_with_trace, trunc, InterpError, InterpReport};
pub use netlist::{
    build_netlist, Bank, BitWidths, BufferGate, Conn, Dir, GatingPlan, Instance, Item, Module,
    ModuleKind, Net, Netlist, Placement,
};
pub use program::{BlockSweepMemo, EvalProgram, GateGap, ScheduleActivity};
pub use resources::{report_resources, ResourceReport};
pub use structure::{describe, sra_cells, sra_columns, NetBuffer, NetEdge, NetStage, Structure};
pub use verify::{verify_all, RtlError, RtlReport, RtlSummary};

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn plan() -> (imagen_ir::Dag, imagen_mem::Design) {
        let mut dag = imagen_ir::Dag::new("fig1");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                imagen_ir::Expr::sum((0..9).map(|i| imagen_ir::Expr::tap(0, i % 3 - 1, i / 3 - 1))),
            )
            .unwrap();
        let k2 = dag
            .add_stage(
                "K2",
                &[k1],
                imagen_ir::Expr::bin(
                    imagen_ir::BinOp::Div,
                    imagen_ir::Expr::sum(
                        (0..9).map(|i| imagen_ir::Expr::tap(0, i % 3 - 1, i / 3 - 1)),
                    ),
                    imagen_ir::Expr::Const(9),
                ),
            )
            .unwrap();
        dag.mark_output(k2);
        let geom = ImageGeometry {
            width: 32,
            height: 24,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 1024 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (p.dag, p.design)
    }

    #[test]
    fn generated_netlist_verifies() {
        let (dag, design) = plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let summary = verify_all(&net).into_result().unwrap();
        // 2 SRAM primitives + 2 stage modules + 2 linebuf modules + top.
        assert_eq!(summary.modules, 7);
        assert!(summary.sram_instances > 0);
        assert!(summary.instances > summary.sram_instances);
        assert!(summary.nets > 20);
        let v = emit_verilog(&net);
        assert!(v.lines().count() > 50);
    }

    #[test]
    fn verilog_mentions_schedule() {
        let (dag, design) = plan();
        let v = emit_verilog(&build_netlist(&dag, &design, &BitWidths::default()));
        // Start-cycle comparators embed the ILP schedule.
        let s1 = design.start_cycles[1];
        assert!(v.contains(&format!("cycle >= 64'd{s1}")));
        assert!(v.contains("imagen_top_fig1"));
        assert!(v.contains("frame_done"));
    }

    #[test]
    fn kernels_translate_operators() {
        let (dag, design) = plan();
        let v = emit_verilog(&build_netlist(&dag, &design, &BitWidths::default()));
        assert!(v.contains("stage_K1"));
        assert!(v.contains("stage_K2"));
        // The /9 kernel guards division by zero.
        assert!(v.contains("== 0) ? 0 :"));
    }

    #[test]
    fn single_port_designs_use_1p_macro() {
        let mut dag = imagen_ir::Dag::new("sp");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                imagen_ir::Expr::sum((0..3).map(|i| imagen_ir::Expr::tap(0, 0, i))),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 32,
            height: 24,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 1024 }, 1);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::FixyNn,
        )
        .unwrap();
        let net = build_netlist(&p.dag, &p.design, &BitWidths::default());
        verify_all(&net).into_result().unwrap();
        let v = emit_verilog(&net);
        assert!(v.contains("imagen_sram_1p"));
    }

    #[test]
    fn widths_flow_into_emission() {
        let (dag, design) = plan();
        let wide = emit_verilog(&build_netlist(&dag, &design, &BitWidths::wide()));
        assert!(wide.contains("signed [63:0] pixel_out"));
        assert!(wide.contains("parameter WIDTH = 64"));
        assert!(!wide.contains("signed [15:0]"));
        let custom = emit_verilog(&build_netlist(
            &dag,
            &design,
            &BitWidths {
                pixel_bits: 12,
                acc_bits: 24,
            },
        ));
        assert!(custom.contains("signed [11:0] pixel_out"));
        assert!(custom.contains("wire signed [23:0] result"));
    }
}
