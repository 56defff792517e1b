//! Reproduces **Tbl. 3**: the evaluation algorithm roster with stage and
//! multiple-consumer stage counts.

use imagen_algos::Algorithm;
use imagen_bench::outln;

fn main() {
    outln!("# Tbl. 3 — Evaluation algorithms\n");
    outln!("| Algorithm | Description | # Stages | # of MC Stages | Max window |");
    outln!("|---|---|---|---|---|");
    for alg in Algorithm::all() {
        let dag = alg.build();
        let desc = match alg {
            Algorithm::CannyS | Algorithm::CannyM => "Canny edge detection",
            Algorithm::HarrisS | Algorithm::HarrisM => "Harris corner detection",
            Algorithm::UnsharpM => "Unsharp masking",
            Algorithm::XcorrM => "Cross correlation",
            Algorithm::DenoiseM => "Image denoise",
        };
        let max_h = dag
            .edges()
            .map(|(_, e)| e.window().height)
            .max()
            .unwrap_or(1);
        let max_w = dag
            .edges()
            .map(|(_, e)| e.window().width())
            .max()
            .unwrap_or(1);
        outln!(
            "| {} | {} | {} | {} | {}x{} |",
            alg.name(),
            desc,
            dag.num_stages(),
            dag.multi_consumer_stages().len(),
            max_h,
            max_w,
        );
        assert_eq!(dag.num_stages(), alg.expected_stages());
        assert_eq!(
            dag.multi_consumer_stages().len(),
            alg.expected_multi_consumer()
        );
    }
    outln!("\nAll counts match the paper's Tbl. 3.");
}
