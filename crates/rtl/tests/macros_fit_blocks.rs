//! Every SRAM macro the emitter prints fits the block the plan allocated
//! for it, and the resource report counts no more macro bits than the
//! plan allocates: the structure sizes macros from the plan's own block
//! layout, on rows that fit a block and on rows that split over several.

use imagen_ir::Dag;
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_rtl::{build_netlist, emit_verilog, report_resources, BitWidths};
use imagen_schedule::{plan_design, ScheduleOptions};
use std::path::Path;

/// The 10 `.imagen` examples, by file stem.
fn corpus() -> Vec<(String, Dag)> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut files: Vec<_> = std::fs::read_dir(&examples)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "imagen"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 10, "the example corpus");
    files
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let dag = imagen_dsl::compile(&name, &std::fs::read_to_string(p).unwrap()).unwrap();
            (name, dag)
        })
        .collect()
}

/// The `(module, block index, DEPTH, WIDTH)` of every SRAM macro
/// instance in `verilog`.
fn macros(verilog: &str) -> Vec<(&str, usize, u64, u64)> {
    let mut module = "";
    let mut found = Vec::new();
    for line in verilog.lines() {
        if let Some(rest) = line.strip_prefix("module ") {
            module = rest.split([' ', '(']).next().unwrap();
        } else if line.trim_start().starts_with("imagen_sram_") {
            let param = |name: &str| -> u64 {
                let tail = line.split(&format!(".{name}(")).nth(1).unwrap();
                tail[..tail.find(')').unwrap()].parse().unwrap()
            };
            let block = line.split("u_blk").nth(1).unwrap().trim_end_matches(" (");
            found.push((
                module,
                block.parse().unwrap(),
                param("DEPTH"),
                param("WIDTH"),
            ));
        }
    }
    found
}

#[test]
fn every_macro_fits_its_allocated_block() {
    let geom = |width, height| ImageGeometry {
        width,
        height,
        pixel_bits: 16,
    };
    let asic = |block_bits| MemBackend::Asic { block_bits };
    let targets = [
        (geom(64, 48), MemorySpec::new(asic(32768), 2)),
        (
            geom(64, 48),
            MemorySpec::new(asic(32768), 2).with_coalescing(),
        ),
        (geom(40, 30), MemorySpec::new(asic(512), 1)),
        (geom(320, 240), MemorySpec::new(asic(4096), 2)),
        (geom(64, 48), MemorySpec::new(MemBackend::Fpga, 2)),
        (
            geom(64, 48),
            MemorySpec::new(MemBackend::Fpga, 2).with_coalescing(),
        ),
    ];
    let mut split = 0;
    for (name, dag) in corpus() {
        for (geom, spec) in &targets {
            let what = format!("{name} at {geom} on {:?}", spec.backend());
            let style = if spec.ever_coalesces(geom) {
                DesignStyle::OursLc
            } else {
                DesignStyle::Ours
            };
            let plan = plan_design(&dag, geom, spec, ScheduleOptions::default(), style)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let net = build_netlist(&plan.dag, &plan.design, &BitWidths::default());
            let verilog = emit_verilog(&net);
            let printed = macros(&verilog);
            let mut checked = 0;
            for (plan_buf, buf) in plan.design.buffers.iter().zip(&net.structure.buffers) {
                split += usize::from(buf.layout.is_split());
                let module = format!("linebuf_{}", net.structure.stages[buf.stage].sanitized);
                for &(_, block, depth, width) in printed.iter().filter(|m| m.0 == module) {
                    let allocated = plan_buf.blocks[block].capacity_bits;
                    assert!(
                        depth * width <= allocated,
                        "{what}: {module} block {block} is DEPTH({depth}) x WIDTH({width}) \
                         on a {allocated}-bit block"
                    );
                    checked += 1;
                }
            }
            assert_eq!(checked, printed.len(), "{what}: every macro is a buffer's");
            let allocated: u64 = plan.design.buffers.iter().map(|b| b.capacity_bits()).sum();
            let sram_bits = report_resources(&net.structure, &net.widths).sram_bits;
            assert!(
                sram_bits <= allocated,
                "{what}: {sram_bits} macro bits over {allocated} allocated"
            );
        }
    }
    assert!(split > 0, "some rows split over blocks");
}
