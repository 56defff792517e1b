//! The seven evaluation pipelines of the paper's Tbl. 3, authored in the
//! ImaGen DSL.
//!
//! Stage counts and multiple-consumer (MC) stage counts match the table
//! exactly (verified by tests):
//!
//! | Algorithm  | Stages | MC stages | Notes |
//! |------------|--------|-----------|-------|
//! | Canny-s    | 9      | 0         | single-consumer chain |
//! | Canny-m    | 10     | 1         | blurred image feeds both Sobel passes |
//! | Harris-s   | 7      | 0         | chain-approximated corner response |
//! | Harris-m   | 7      | 1         | blur feeds Ix² and Iy² |
//! | Unsharp-m  | 5      | 1         | input feeds blur chain and sharpen |
//! | Xcorr-m    | 3      | 1         | 18-row tall template correlation |
//! | Denoise-m  | 5      | 2         | input and blur both fan out |
//!
//! Kernels are integer-arithmetic versions of the classic algorithms
//! (shifts instead of floating-point scales); the *memory structure* —
//! windows, fan-out, stage count — is what the evaluation measures, and
//! that matches the paper's workloads.

/// One of the paper's evaluation algorithms (Tbl. 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Algorithm {
    /// Canny edge detection, single-consumer variant (9 stages).
    CannyS,
    /// Canny edge detection, multiple-consumer variant (10 stages, 1 MC).
    CannyM,
    /// Harris corner detection, single-consumer variant (7 stages).
    HarrisS,
    /// Harris corner detection, multiple-consumer variant (7 stages, 1 MC).
    HarrisM,
    /// Unsharp masking (5 stages, 1 MC).
    UnsharpM,
    /// Cross correlation with an 18-row template (3 stages, 1 MC).
    XcorrM,
    /// Image denoising (5 stages, 2 MC).
    DenoiseM,
}

impl Algorithm {
    /// All seven algorithms in the paper's table order.
    pub fn all() -> [Algorithm; 7] {
        [
            Algorithm::CannyS,
            Algorithm::CannyM,
            Algorithm::HarrisS,
            Algorithm::HarrisM,
            Algorithm::UnsharpM,
            Algorithm::XcorrM,
            Algorithm::DenoiseM,
        ]
    }

    /// The paper's name for the algorithm (e.g. `Canny-m`).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::CannyS => "Canny-s",
            Algorithm::CannyM => "Canny-m",
            Algorithm::HarrisS => "Harris-s",
            Algorithm::HarrisM => "Harris-m",
            Algorithm::UnsharpM => "Unsharp-m",
            Algorithm::XcorrM => "Xcorr-m",
            Algorithm::DenoiseM => "Denoise-m",
        }
    }

    /// Expected stage count (Tbl. 3).
    pub fn expected_stages(&self) -> usize {
        match self {
            Algorithm::CannyS => 9,
            Algorithm::CannyM => 10,
            Algorithm::HarrisS => 7,
            Algorithm::HarrisM => 7,
            Algorithm::UnsharpM => 5,
            Algorithm::XcorrM => 3,
            Algorithm::DenoiseM => 5,
        }
    }

    /// Expected multiple-consumer stage count (Tbl. 3).
    pub fn expected_multi_consumer(&self) -> usize {
        match self {
            Algorithm::CannyS | Algorithm::HarrisS => 0,
            Algorithm::CannyM | Algorithm::HarrisM | Algorithm::UnsharpM | Algorithm::XcorrM => 1,
            Algorithm::DenoiseM => 2,
        }
    }

    /// DSL source of the pipeline: the text of its file in the CLI's
    /// example corpus (`examples/canny_m.imagen` for Canny-m), so the two
    /// cannot drift apart.
    pub fn dsl_source(&self) -> &'static str {
        match self {
            Algorithm::CannyS => include_str!("../../../examples/canny_s.imagen"),
            Algorithm::CannyM => include_str!("../../../examples/canny_m.imagen"),
            Algorithm::HarrisS => include_str!("../../../examples/harris_s.imagen"),
            Algorithm::HarrisM => include_str!("../../../examples/harris_m.imagen"),
            Algorithm::UnsharpM => include_str!("../../../examples/unsharp_m.imagen"),
            Algorithm::XcorrM => include_str!("../../../examples/xcorr_m.imagen"),
            Algorithm::DenoiseM => include_str!("../../../examples/denoise_m.imagen"),
        }
    }

    /// Compiles the pipeline to a validated DAG.
    ///
    /// # Panics
    ///
    /// Never panics for the built-in sources (tested).
    pub fn build(&self) -> imagen_ir::Dag {
        imagen_dsl::compile(self.name(), self.dsl_source())
            .expect("built-in algorithm sources compile")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_stage_counts() {
        for alg in Algorithm::all() {
            let dag = alg.build();
            assert_eq!(
                dag.num_stages(),
                alg.expected_stages(),
                "{} stage count",
                alg.name()
            );
            assert_eq!(
                dag.multi_consumer_stages().len(),
                alg.expected_multi_consumer(),
                "{} MC stage count",
                alg.name()
            );
            dag.validate().unwrap();
        }
    }

    #[test]
    fn xcorr_has_tall_stencil() {
        let dag = Algorithm::XcorrM.build();
        let max_h = dag.edges().map(|(_, e)| e.window().height).max().unwrap();
        assert_eq!(max_h, 18, "the paper's 18x1 window");
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "Canny-s",
                "Canny-m",
                "Harris-s",
                "Harris-m",
                "Unsharp-m",
                "Xcorr-m",
                "Denoise-m"
            ]
        );
    }

    #[test]
    fn sources_round_trip_through_printer() {
        // `to_dsl` → `compile` must reproduce the *identical* pipeline —
        // not just the same shape — for every Tbl. 3 program: equal
        // structural fingerprints mean equal cache keys, equal schedules
        // and byte-equal RTL for any geometry and memory spec.
        for alg in Algorithm::all() {
            let dag = alg.build();
            let printed = imagen_dsl::to_dsl(&dag);
            let dag2 = imagen_dsl::compile(alg.name(), &printed)
                .unwrap_or_else(|e| panic!("{} reprint failed: {e}", alg.name()));
            assert_eq!(dag.num_stages(), dag2.num_stages());
            assert_eq!(dag.num_edges(), dag2.num_edges());
            assert_eq!(
                dag.fingerprint(),
                dag2.fingerprint(),
                "{}: printed program is not the same pipeline",
                alg.name()
            );
            // And printing is a fixpoint: a second round trip prints the
            // same text.
            assert_eq!(printed, imagen_dsl::to_dsl(&dag2), "{}", alg.name());
        }
    }

    #[test]
    fn denoise_fanout_structure() {
        let dag = Algorithm::DenoiseM.build();
        let mc = dag.multi_consumer_stages();
        let names: Vec<&str> = mc.iter().map(|&s| dag.stage(s).name()).collect();
        assert_eq!(names, vec!["raw", "blur"]);
        assert_eq!(dag.consumers_of(mc[0]).len(), 3, "raw feeds 3 stages");
    }
}
