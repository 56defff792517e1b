//! The functional golden executor: runs a pipeline DAG on images in plain
//! software, defining the reference semantics every accelerator design
//! must match bit-exactly.
//!
//! Semantics: stages evaluate in topological order; a compute stage's
//! output pixel `(x, y)` is its kernel over producer pixels
//! `(x + dx, y + dy)` (normalized offsets) with clamp-to-edge sampling.
//! Rate-1 stage images share the frame dimensions (the paper's
//! assume-padding simplification, Sec. 5 footnote 2).
//!
//! Multirate stages scale their own grid: a stage at cumulative scale
//! `(cx, cy)` produces a `W/cx x H/cy` image. Taps always index the
//! *producer's* grid — a `downsample(fx,fy)` stage reads
//! `P(fx*x + dx, fy*y + dy)` and an `upsample(fx,fy)` stage reads
//! `P(floor(x/fx) + dx, floor(y/fy) + dy)`, clamped to the producer's
//! edges.

use crate::image::Image;
use imagen_ir::{Dag, Rate, StageId, StageKind};
use std::fmt;

/// Golden execution failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GoldenError {
    /// The number of provided input images does not match the DAG.
    InputCount {
        /// Inputs expected (number of input stages).
        expected: usize,
        /// Inputs provided.
        provided: usize,
    },
    /// An input image has the wrong dimensions.
    InputSize {
        /// Index of the offending input.
        input: usize,
    },
    /// A stage's cumulative rate does not divide the frame extents.
    IndivisibleExtent {
        /// Index of the offending stage.
        stage: usize,
    },
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenError::InputCount { expected, provided } => write!(
                f,
                "pipeline has {expected} input stage(s) but {provided} image(s) were provided"
            ),
            GoldenError::InputSize { input } => {
                write!(f, "input image {input} has mismatched dimensions")
            }
            GoldenError::IndivisibleExtent { stage } => {
                write!(
                    f,
                    "cumulative rate of stage {stage} does not divide the frame extents"
                )
            }
        }
    }
}

impl std::error::Error for GoldenError {}

/// Result of a golden run: one image per stage.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    images: Vec<Image>,
}

impl GoldenRun {
    /// The image produced by a stage.
    pub fn stage(&self, id: StageId) -> &Image {
        &self.images[id.index()]
    }

    /// Images of all output stages, in stage order.
    pub fn outputs<'a>(&'a self, dag: &'a Dag) -> impl Iterator<Item = (StageId, &'a Image)> {
        dag.stages()
            .filter(|(_, s)| s.is_output())
            .map(move |(id, _)| (id, &self.images[id.index()]))
    }
}

/// Executes `dag` on `inputs` (one image per input stage, in stage order).
///
/// # Errors
///
/// [`GoldenError`] when inputs are missing or mis-sized.
pub fn execute(dag: &Dag, inputs: &[Image]) -> Result<GoldenRun, GoldenError> {
    let input_ids: Vec<StageId> = dag
        .stages()
        .filter(|(_, s)| s.is_input())
        .map(|(id, _)| id)
        .collect();
    if input_ids.len() != inputs.len() {
        return Err(GoldenError::InputCount {
            expected: input_ids.len(),
            provided: inputs.len(),
        });
    }
    let (w, h) = if let Some(img) = inputs.first() {
        (img.width(), img.height())
    } else {
        return Err(GoldenError::InputCount {
            expected: input_ids.len(),
            provided: 0,
        });
    };
    for (i, img) in inputs.iter().enumerate() {
        if img.width() != w || img.height() != h {
            return Err(GoldenError::InputSize { input: i });
        }
    }

    let scales = dag.stage_scales();
    let mut images: Vec<Image> = Vec::with_capacity(dag.num_stages());
    let mut next_input = 0usize;
    for (id, stage) in dag.stages() {
        match stage.kind() {
            StageKind::Input => {
                images.push(inputs[next_input].clone());
                next_input += 1;
            }
            StageKind::Compute { kernel } => {
                let (cx, cy) = scales[id.index()];
                if u64::from(w) % cx != 0 || u64::from(h) % cy != 0 {
                    return Err(GoldenError::IndivisibleExtent { stage: id.index() });
                }
                let sw = (u64::from(w) / cx) as u32;
                let sh = (u64::from(h) / cy) as u32;
                let producers = stage.producers();
                let mut out = Image::new(sw, sh);
                for y in 0..sh {
                    for x in 0..sw {
                        // Anchor in the producer grid; taps offset from it.
                        let (bx, by) = match stage.rate() {
                            Rate::Unit => (i64::from(x), i64::from(y)),
                            Rate::Down { fx, fy } => {
                                (i64::from(fx) * i64::from(x), i64::from(fy) * i64::from(y))
                            }
                            Rate::Up { fx, fy } => {
                                (i64::from(x) / i64::from(fx), i64::from(y) / i64::from(fy))
                            }
                        };
                        let v = kernel.eval(&mut |slot, dx, dy| {
                            images[producers[slot].index()]
                                .get_clamped(bx + dx as i64, by + dy as i64)
                        });
                        out.set(x, y, v);
                    }
                }
                images.push(out);
            }
        }
    }
    Ok(GoldenRun { images })
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_dsl::compile;

    fn ramp(w: u32, h: u32) -> Image {
        Image::from_fn(w, h, |x, y| (y * w + x) as i64)
    }

    #[test]
    fn identity_stage_copies() {
        let dag = compile("id", "input A; output B = im(x,y) A(x,y) end").unwrap();
        let input = ramp(8, 6);
        let run = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let (_, out) = run.outputs(&dag).next().unwrap();
        assert_eq!(out, &input);
    }

    #[test]
    fn shift_uses_clamping() {
        let dag = compile("sh", "input A; output B = im(x,y) A(x-1,y-1) end").unwrap();
        let input = ramp(4, 4);
        let run = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let (_, out) = run.outputs(&dag).next().unwrap();
        // Interior: shifted by the normalized window; corners clamp.
        // Normalization makes the stored tap (0,0) with the stage anchored
        // one pixel later, so the *normalized* semantics here are identity
        // of the normalized tap: check against direct evaluation instead.
        let k = dag
            .stage(imagen_ir::StageId::from_index(1))
            .kernel()
            .unwrap();
        let mut expect = Image::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let v = k.eval(&mut |_, dx, dy| {
                    input.get_clamped(x as i64 + dx as i64, y as i64 + dy as i64)
                });
                expect.set(x, y, v);
            }
        }
        assert_eq!(out, &expect);
    }

    #[test]
    fn box_blur_values() {
        let dag = compile(
            "box",
            "input A; output B = im(x,y)
               (A(x-1,y-1)+A(x,y-1)+A(x+1,y-1)
               +A(x-1,y)  +A(x,y)  +A(x+1,y)
               +A(x-1,y+1)+A(x,y+1)+A(x+1,y+1)) / 9 end",
        )
        .unwrap();
        let input = Image::from_fn(8, 8, |_, _| 9);
        let run = execute(&dag, &[input]).unwrap();
        let (_, out) = run.outputs(&dag).next().unwrap();
        // Constant image: blur of constant 9 is 9 everywhere, clamping
        // included.
        assert!(out.data().iter().all(|&v| v == 9));
    }

    #[test]
    fn diamond_multi_producer() {
        let dag = compile(
            "d",
            "input A;
             B = im(x,y) A(x,y) + 1 end
             C = im(x,y) A(x,y) * 2 end
             output D = im(x,y) B(x,y) + C(x,y) end",
        )
        .unwrap();
        let input = ramp(5, 5);
        let run = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let (_, out) = run.outputs(&dag).next().unwrap();
        for y in 0..5 {
            for x in 0..5 {
                let a = input.get(x, y);
                assert_eq!(out.get(x, y), (a + 1) + 2 * a);
            }
        }
    }

    #[test]
    fn downsample_reads_producer_grid() {
        let dag = compile(
            "ds",
            "input A; output B = downsample(2,2) im(x,y) A(x,y) end",
        )
        .unwrap();
        let input = ramp(8, 6);
        let run = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let (_, out) = run.outputs(&dag).next().unwrap();
        assert_eq!((out.width(), out.height()), (4, 3));
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(out.get(x, y), input.get(2 * x, 2 * y));
            }
        }
    }

    #[test]
    fn upsample_replicates_producer_pixels() {
        let dag = compile(
            "us",
            "input A;
             D = downsample(2,2) im(x,y) A(x,y) end
             output U = upsample(2,2) im(x,y) D(x,y) end",
        )
        .unwrap();
        let input = ramp(8, 8);
        let run = execute(&dag, std::slice::from_ref(&input)).unwrap();
        let (_, out) = run.outputs(&dag).next().unwrap();
        assert_eq!((out.width(), out.height()), (8, 8));
        for y in 0..8 {
            for x in 0..8 {
                assert_eq!(out.get(x, y), input.get(x / 2 * 2, y / 2 * 2));
            }
        }
    }

    #[test]
    fn indivisible_extent_is_an_error() {
        let dag = compile(
            "ds",
            "input A; output B = downsample(2,2) im(x,y) A(x,y) end",
        )
        .unwrap();
        let input = ramp(7, 6);
        assert!(matches!(
            execute(&dag, std::slice::from_ref(&input)),
            Err(GoldenError::IndivisibleExtent { stage: 1 })
        ));
    }

    #[test]
    fn input_validation() {
        let dag = compile("id", "input A; output B = im(x,y) A(x,y) end").unwrap();
        assert!(matches!(
            execute(&dag, &[]),
            Err(GoldenError::InputCount { .. })
        ));
        let err = execute(&dag, &[ramp(4, 4), ramp(4, 4)]).unwrap_err();
        assert!(matches!(err, GoldenError::InputCount { .. }));
    }
}
