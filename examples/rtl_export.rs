//! RTL export: compile every Tbl. 3 algorithm and write its synthesizable
//! Verilog to `target/rtl/`, verifying each netlist structurally — the
//! hand-off point to an FPGA/ASIC synthesis flow.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example rtl_export
//! ```

use imagen::algos::Algorithm;
use imagen::rtl::verify_all;
use imagen::{Compiler, ImageGeometry, MemBackend, MemorySpec};
use std::fs;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let geom = ImageGeometry::p320();
    let spec = MemorySpec::new(MemBackend::asic_default(), 2);
    let compiler = Compiler::new(geom, spec);

    let out_dir = PathBuf::from("target/rtl");
    fs::create_dir_all(&out_dir)?;

    println!(
        "{:12} {:>8} {:>9} {:>7}",
        "algorithm", "modules", "SRAMs", "lines"
    );
    for alg in Algorithm::all() {
        let out = compiler.compile_dag(&alg.build())?;
        let summary = verify_all(&out.netlist).into_result()?;
        let path = out_dir.join(format!("{}.v", alg.name().to_lowercase()));
        fs::write(&path, &out.verilog)?;
        println!(
            "{:12} {:>8} {:>9} {:>7}",
            alg.name(),
            summary.modules,
            summary.sram_instances,
            out.verilog.lines().count()
        );
    }
    println!("\nVerilog written to {}", out_dir.display());
    Ok(())
}
