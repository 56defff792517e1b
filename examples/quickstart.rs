//! Quickstart: compile a small pipeline end to end and inspect every
//! artifact the compiler produces — schedule, line-buffer configuration,
//! cost estimates and Verilog.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use imagen::{Compiler, ImageGeometry, MemBackend, MemorySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's running example (Fig. 1 / Sec. 4): a three-stage
    // pipeline where K2 reads both K0 and K1 — the multiple-consumer
    // pattern that defeats naive line-buffer generators.
    let source = "
        input K0;
        // K1 reads a 3x3 window from K0.
        K1 = im(x,y)
            (K0(x-1,y-1) + K0(x,y-1) + K0(x+1,y-1)
           + K0(x-1,y)   + K0(x,y)   + K0(x+1,y)
           + K0(x-1,y+1) + K0(x,y+1) + K0(x+1,y+1)) / 9
        end
        // K2 reads a 2x2 window from K0 and a 3x3 window from K1.
        output K2 = im(x,y)
            K0(x,y) + K0(x+1,y+1)
          + K1(x-1,y-1) + K1(x,y) + K1(x+1,y+1)
        end
    ";

    // Hardware description: 320p frames, dual-port 32 Kbit SRAM macros.
    let geom = ImageGeometry::p320();
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);

    let out = Compiler::new(geom, spec).compile_source("fig1", source)?;
    let design = &out.plan.design;

    println!("## Schedule (start cycles from the ILP)\n");
    for (id, stage) in out.plan.dag.stages() {
        println!(
            "  {:10} starts at cycle {}",
            stage.name(),
            out.plan.schedule.start(id)
        );
    }

    println!("\n## Line buffers\n");
    for buf in &design.buffers {
        let name = out
            .plan
            .dag
            .stage(imagen::ir::StageId::from_index(buf.stage))
            .name();
        println!(
            "  {:10} {} rows ({} physical) in {} block(s), {} rows/block",
            name,
            buf.logical_rows,
            buf.layout.phys_rows(),
            buf.blocks.len(),
            buf.layout.rows_per_block()
        );
    }

    println!("\n## Costs\n");
    println!("  SRAM allocated : {:.1} KB", design.sram_kb());
    println!("  memory area    : {:.3} mm²", design.memory_area_mm2());
    println!("  total area     : {:.3} mm²", design.total_area_mm2());
    println!("  memory power   : {:.2} mW", design.memory_power_mw());
    println!(
        "  latency        : {} cycles/frame",
        out.plan
            .schedule
            .latency(&out.plan.dag, geom.width, geom.height)
    );

    println!("\n## Verilog (first 24 lines of {})\n", {
        let lines = out.verilog.lines().count();
        format!("{lines} total")
    });
    for line in out.verilog.lines().take(24) {
        println!("  {line}");
    }
    Ok(())
}
