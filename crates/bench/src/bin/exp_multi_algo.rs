//! Reproduces the **"Multiple Algorithms" result of Sec. 8.3**: packing
//! six algorithms simultaneously onto a 120-BRAM board at 320p. The paper
//! reports that FixyNN and Darkroom cannot fit all six while Ours+LC
//! fits in 84 BRAM blocks.

use imagen_algos::Algorithm;
use imagen_bench::{generate, geom_320, outln};
use imagen_mem::{DesignStyle, MemBackend};

const BOARD_BRAMS: usize = 120;

fn main() {
    let geom = geom_320();
    let backend = MemBackend::Fpga;
    // The six concurrently-resident algorithms (one Canny variant, as the
    // paper packs six of its seven workloads).
    let algos = [
        Algorithm::CannyM,
        Algorithm::HarrisS,
        Algorithm::HarrisM,
        Algorithm::UnsharpM,
        Algorithm::XcorrM,
        Algorithm::DenoiseM,
    ];
    outln!("# Sec. 8.3 — six algorithms on one {BOARD_BRAMS}-BRAM board @320p\n");
    outln!("| Style | total BRAM blocks | fits? |");
    outln!("|---|---|---|");
    for style in [
        DesignStyle::FixyNn,
        DesignStyle::Darkroom,
        DesignStyle::Soda,
        DesignStyle::Ours,
        DesignStyle::OursLc,
    ] {
        let total: usize = algos
            .iter()
            .map(|&a| generate(a, style, &geom, backend).design.block_count())
            .sum();
        outln!(
            "| {} | {} | {} |",
            style.label(),
            total,
            if total <= BOARD_BRAMS { "yes" } else { "no" }
        );
    }
    outln!("\nPaper: FixyNN and Darkroom exceed the 120-block budget; Ours+LC");
    outln!("fits all six algorithms using 84 blocks.");
}
