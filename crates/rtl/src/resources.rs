//! Structure-derived resource accounting.
//!
//! [`report_resources`] inventories what a design's hardware is made of,
//! from its [`Structure`] at one set of [`BitWidths`]: instantiated SRAM
//! macro bits, flip-flop bits (window shift-register arrays, stage output
//! registers, the cycle counter, the line buffers' bank-select
//! registers), and datapath operators from the stage kernels. Unlike the
//! analytic cost models in `imagen-mem` (which price the *allocation*,
//! block-quantum included), this report counts exactly what
//! [`build_netlist`](crate::build_netlist) instantiates — a test walks
//! the elaborated modules' register nets as the reference — and needs no
//! elaboration, so `imagen-dse` reports it for every point as a costing
//! axis next to the area/power models.

use crate::netlist::BitWidths;
use crate::structure::{sra_cells, Structure};

/// Inventory of one design's hardware resources.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceReport {
    /// Bits of SRAM macro capacity instantiated (`blocks × depth ×
    /// pixel_bits` over all line buffers).
    pub sram_bits: u64,
    /// SRAM macro instances.
    pub sram_blocks: usize,
    /// Flip-flop bits: every register net of every instantiated module
    /// (shift-register arrays, stage output registers, the cycle counter,
    /// bank-select pipeline registers). SRAM primitive contents are
    /// excluded — they are counted in [`ResourceReport::sram_bits`].
    pub flipflop_bits: u64,
    /// Adders/subtractors (incl. neg/abs/min/max/shift units).
    pub adders: usize,
    /// Multipliers.
    pub multipliers: usize,
    /// Dividers.
    pub dividers: usize,
    /// Comparators.
    pub comparators: usize,
    /// Multiplexers.
    pub muxes: usize,
}

impl ResourceReport {
    /// SRAM capacity in KB (convenience for reports).
    pub fn sram_kb(&self) -> f64 {
        self.sram_bits as f64 / 8.0 / 1024.0
    }
}

/// Derives the resource inventory of the hardware a design's structure
/// elaborates to at `widths`.
pub fn report_resources(structure: &Structure, widths: &BitWidths) -> ResourceReport {
    let pixel = widths.pixel_bits as u64;
    let stored_bits = structure.geometry.pixel_bits;
    // The top module's cycle counter.
    let mut r = ResourceReport {
        flipflop_bits: 64,
        ..ResourceReport::default()
    };
    for buf in &structure.buffers {
        // `blocks` macros of depth × pixel words, plus the line-buffer
        // module's pipelined bank select (rblk_q).
        r.sram_blocks += buf.blocks;
        r.sram_bits += buf.blocks as u64 * buf.layout.depth(buf.width, stored_bits) * pixel;
        r.flipflop_bits += 32;
    }
    for census in structure.stages.iter().filter_map(|s| s.census) {
        // The stage output register and the kernel's operators.
        r.flipflop_bits += pixel;
        r.adders += census.adds;
        r.multipliers += census.muls;
        r.dividers += census.divs;
        r.comparators += census.cmps;
        r.muxes += census.muxes;
    }
    for e in &structure.edges {
        // One window shift-register array per edge.
        r.flipflop_bits += sra_cells(&e.window) as u64 * pixel;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{build_netlist, Item, ModuleKind, Netlist};
    use imagen_ir::{BinOp, Dag, Expr};
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    #[test]
    fn counts_srams_ffs_and_ops() {
        let mut dag = Dag::new("res");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::bin(
                    BinOp::Mul,
                    Expr::sum((0..3).map(|i| Expr::tap(0, 0, i))),
                    Expr::Const(3),
                ),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 16,
            height: 12,
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
        let net = build_netlist(&p.dag, &p.design, &BitWidths::default());
        let r = report_resources(&net.structure, &net.widths);
        assert_eq!(r, module_walk(&net));
        assert_eq!(
            r.sram_blocks,
            net.structure.buffers.iter().map(|b| b.blocks).sum()
        );
        assert!(r.sram_bits > 0);
        assert!(r.sram_kb() > 0.0);
        // 3x1 window SRA (3 cells x 16b) + pixel_out (16) + cycle (64) +
        // rblk_q per linebuf (32 each) at minimum.
        assert!(r.flipflop_bits >= 3 * 16 + 16 + 64 + 32);
        assert_eq!(r.multipliers, 1);
        assert_eq!(r.adders, 2);
        assert_eq!(r.dividers, 0);
    }

    /// The reference inventory: walks the elaborated modules, counting
    /// every register net each instantiated module drives, the SRAM
    /// macros each line-buffer module instantiates (a bank as its
    /// blocks), and the operators of each stage module's kernel.
    fn module_walk(net: &Netlist) -> ResourceReport {
        let mut r = ResourceReport::default();
        // Every stage/linebuf module is instantiated exactly once from
        // the top, and the top itself once.
        for m in &net.modules {
            match &m.kind {
                ModuleKind::SramPrimitive { .. } => continue,
                ModuleKind::LineBuffer(b) => {
                    let blocks: usize = m
                        .items
                        .iter()
                        .filter_map(Item::placement)
                        .filter(|p| p.inst.module.starts_with("imagen_sram_"))
                        .map(|p| p.copies as usize)
                        .sum();
                    r.sram_blocks += blocks;
                    let buf = &net.structure.buffers[*b];
                    let depth = buf
                        .layout
                        .depth(buf.width, net.structure.geometry.pixel_bits);
                    r.sram_bits += blocks as u64 * depth * net.widths.pixel_bits as u64;
                }
                ModuleKind::Stage(i) => {
                    let kernel = net.structure.stages[*i]
                        .kernel
                        .as_ref()
                        .expect("a compute stage");
                    let census = kernel.op_census();
                    r.adders += census.adds;
                    r.multipliers += census.muls;
                    r.dividers += census.divs;
                    r.comparators += census.cmps;
                    r.muxes += census.muxes;
                }
                ModuleKind::Top => {}
            }
            for item in &m.items {
                let (Item::Register { net: name } | Item::WindowLoad { sra: name, .. }) = item
                else {
                    continue;
                };
                // WindowLoad drives the same reg net it names; count the
                // net once (Register and WindowLoad items never alias).
                let n = m.net(name).expect("items drive declared nets");
                r.flipflop_bits += n.width as u64 * n.array.unwrap_or(1) as u64;
            }
        }
        r
    }

    /// The ten `examples/*.imagen` programs, pyramids included.
    fn corpus() -> Vec<Dag> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "imagen"))
            .collect();
        files.sort();
        assert_eq!(files.len(), 10, "the example corpus");
        files
            .iter()
            .map(|p| {
                let name = p.file_stem().unwrap().to_string_lossy();
                imagen_dsl::compile(&name, &std::fs::read_to_string(p).unwrap()).unwrap()
            })
            .collect()
    }

    #[test]
    fn structure_count_matches_module_walk_on_corpus() {
        // The structure-based count must equal what the elaborated
        // modules instantiate, for every example (pyramids included,
        // whose buffers hold the producer's narrower grid), on two-row,
        // split-row and FPGA memories, plain and coalesced, at both
        // width regimes.
        for dag in corpus() {
            for (width, height) in [(32, 24), (64, 48), (120, 80)] {
                let geom = ImageGeometry {
                    width,
                    height,
                    pixel_bits: 16,
                };
                let backends = [
                    MemBackend::Asic {
                        block_bits: 2 * geom.row_bits(),
                    },
                    MemBackend::Asic { block_bits: 256 },
                    MemBackend::Fpga,
                ];
                for backend in backends {
                    for coalesce in [false, true] {
                        let mut spec = MemorySpec::new(backend, 2);
                        if coalesce {
                            spec = spec.with_coalescing();
                        }
                        let p = plan_design(
                            &dag,
                            &geom,
                            &spec,
                            ScheduleOptions::default(),
                            DesignStyle::Ours,
                        )
                        .unwrap();
                        for widths in [BitWidths::default(), BitWidths::wide()] {
                            let net = build_netlist(&p.dag, &p.design, &widths);
                            assert_eq!(
                                report_resources(&net.structure, &widths),
                                module_walk(&net),
                                "{} {width}x{height} {backend:?} coalesce={coalesce} {widths:?}",
                                dag.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn summary_counts_each_bank_as_its_blocks_on_corpus() {
        // `verify_all` reads a bank as `blocks` instances: the SRAM count
        // is the structure's, and the instance, net and register counts
        // are the ones the netlist had when it held one item per block
        // (pinned per example: one-port 2-row macros at 64x48, and
        // two-port macros smaller than a 320-pixel row at 320x240).
        let pins = [
            ("canny_m", [(50, 282, 34), (54, 282, 34)]),
            ("canny_s", [(42, 252, 30), (52, 252, 30)]),
            ("denoise_m", [(29, 146, 21), (32, 146, 21)]),
            ("gaussian_pyramid", [(18, 140, 18), (18, 140, 18)]),
            ("harris_m", [(34, 198, 25), (40, 198, 25)]),
            ("harris_s", [(32, 196, 24), (40, 196, 24)]),
            ("laplacian_pyramid", [(22, 142, 19), (19, 142, 19)]),
            ("sobel", [(10, 84, 12), (12, 84, 12)]),
            ("unsharp_m", [(26, 142, 19), (32, 142, 19)]),
            ("xcorr_m", [(60, 86, 13), (44, 86, 13)]),
        ];
        let targets = [
            (64, 48, MemBackend::Asic { block_bits: 32768 }, 1),
            (320, 240, MemBackend::Asic { block_bits: 4096 }, 2),
        ];
        for (dag, (name, pinned)) in corpus().iter().zip(pins) {
            assert_eq!(dag.name(), name);
            for ((width, height, backend, ports), (instances, nets, registers)) in
                targets.into_iter().zip(pinned)
            {
                let geom = ImageGeometry {
                    width,
                    height,
                    pixel_bits: 16,
                };
                let p = plan_design(
                    dag,
                    &geom,
                    &MemorySpec::new(backend, ports),
                    ScheduleOptions::default(),
                    DesignStyle::Ours,
                )
                .unwrap();
                let net = build_netlist(&p.dag, &p.design, &BitWidths::default());
                let s = crate::verify_all(&net).into_result().unwrap();
                let blocks: usize = net.structure.buffers.iter().map(|b| b.blocks).sum();
                let at = format!("{name} {width}x{height} {ports} port(s)");
                assert_eq!(s.sram_instances, blocks, "{at}");
                assert_eq!(
                    (s.instances, s.nets, s.registers),
                    (instances, nets, registers),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn ffs_scale_with_widths() {
        let mut dag = Dag::new("res2");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage("K1", &[k0], Expr::sum((0..3).map(|i| Expr::tap(0, 0, i))))
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 16,
            height: 12,
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
        let s = crate::describe(&p.dag, &p.design);
        let narrow = report_resources(&s, &BitWidths::default());
        let wide = report_resources(&s, &BitWidths::wide());
        assert!(wide.flipflop_bits > narrow.flipflop_bits);
        assert!(wide.sram_bits > narrow.sram_bits);
    }
}
