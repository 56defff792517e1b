//! Synthetic pipelines and test patterns.
//!
//! The paper's scalability experiment (Sec. 8.2) sweeps pipelines from 9
//! to 60 stages with a third of the stages having multiple consumers;
//! [`synthetic_pipeline`] reproduces those inputs deterministically.
//! [`sample_pattern`] provides deterministic synthetic frames for the
//! simulator (memory behaviour is data-independent — the schedule fixes
//! every access — so synthetic frames exercise the same paths as camera
//! captures).

use imagen_ir::{Dag, Expr, StageId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a synthetic pipeline with `stages` total stages (including the
/// input), roughly one third of which have multiple consumers, matching
/// the Sec. 8.2 scalability sweep.
///
/// Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `stages < 2`.
pub fn synthetic_pipeline(stages: usize, seed: u64) -> Dag {
    assert!(stages >= 2, "a pipeline needs an input and an output");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dag = Dag::new(format!("synthetic-{stages}-{seed}"));
    let mut ids: Vec<StageId> = vec![dag.add_input("in")];

    for i in 1..stages {
        // Every third stage reads two upstream producers, making the
        // younger of them a multiple-consumer stage over time.
        let primary = ids[i - 1];
        let secondary = if i % 3 == 0 && i >= 2 {
            Some(ids[rng.gen_range(0..i.saturating_sub(1))])
        } else {
            None
        };
        let h = *[1i32, 3, 3, 5].get(rng.gen_range(0..4)).unwrap_or(&3);
        let kernel = match secondary {
            None => window_sum(0, h),
            Some(_) => Expr::bin(imagen_ir::BinOp::Add, window_sum(0, h), window_sum(1, 3)),
        };
        let producers: Vec<StageId> = match secondary {
            None => vec![primary],
            Some(s) => vec![primary, s],
        };
        let id = dag
            .add_stage(format!("s{i}"), &producers, kernel)
            .expect("synthetic stages are well-formed");
        ids.push(id);
    }
    // Make the final stage the output; mark any dangling stages as outputs
    // too so validation passes (they model taps observed off-chip).
    let last = *ids.last().expect("non-empty");
    dag.mark_output(last);
    for &id in &ids {
        let has_consumer = dag.consumer_edges(id).next().is_some();
        if !has_consumer {
            dag.mark_output(id);
        }
    }
    dag
}

fn window_sum(slot: usize, h: i32) -> Expr {
    let half = h / 2;
    Expr::sum((-half..=half).flat_map(move |dy| (-1..=1).map(move |dx| Expr::tap(slot, dx, dy))))
}

/// Deterministic synthetic test patterns for simulator inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TestPattern {
    /// Diagonal gradient.
    Gradient,
    /// Checkerboard with the given tile size.
    Checker(u32),
    /// Pseudo-random noise (hash-based, stateless).
    Noise,
    /// Horizontal bars plus impulse outliers (exercises edge/denoise
    /// kernels).
    Bars,
}

/// Samples a test pattern at `(x, y)`; deterministic in `seed`.
pub fn sample_pattern(pattern: TestPattern, seed: u64, x: u32, y: u32) -> i64 {
    match pattern {
        TestPattern::Gradient => ((x + 2 * y) % 256) as i64,
        TestPattern::Checker(t) => {
            let t = t.max(1);
            if ((x / t) + (y / t)).is_multiple_of(2) {
                220
            } else {
                30
            }
        }
        TestPattern::Noise => noise_bits(seed, x, y, 8),
        TestPattern::Bars => {
            let base = if (y / 8).is_multiple_of(2) { 200 } else { 40 };
            let spike = sample_pattern(TestPattern::Noise, seed ^ 0xABCD, x, y);
            if spike > 250 {
                255
            } else {
                base
            }
        }
    }
}

/// Stateless `bits`-bit pseudo-random sample at `(x, y)`: the SplitMix64
/// hash behind [`TestPattern::Noise`] (which is this at 8 bits) with a
/// configurable pixel width. The one deterministic-noise convention
/// shared by the simulator inputs and the `imagen sim`/`energy` CLI
/// frames.
pub fn noise_bits(seed: u64, x: u32, y: u32, bits: u32) -> i64 {
    let mut z = seed
        .wrapping_add((x as u64) << 32)
        .wrapping_add(y as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let z = z ^ (z >> 31);
    let mask = if bits >= 63 {
        i64::MAX as u64
    } else {
        (1u64 << bits) - 1
    };
    (z & mask) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_bits_is_the_noise_pattern_at_8_bits() {
        for (x, y) in [(0, 0), (3, 7), (100, 41)] {
            assert_eq!(
                noise_bits(42, x, y, 8),
                sample_pattern(TestPattern::Noise, 42, x, y)
            );
            assert!(noise_bits(42, x, y, 4) < 16);
        }
    }

    #[test]
    fn synthetic_sizes_and_mc_fraction() {
        for &n in &[9usize, 24, 60] {
            let dag = synthetic_pipeline(n, 7);
            assert_eq!(dag.num_stages(), n);
            dag.validate().unwrap();
            let mc = dag.multi_consumer_stages().len();
            // Roughly a third of stages fan out (paper Sec. 8.2); allow a
            // generous band since the graph is random.
            assert!(
                mc >= n / 6 && mc <= n / 2 + 1,
                "{n} stages -> {mc} MC stages"
            );
        }
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = synthetic_pipeline(15, 3);
        let b = synthetic_pipeline(15, 3);
        assert_eq!(a.num_edges(), b.num_edges());
        let c = synthetic_pipeline(15, 4);
        // Different seeds: very likely different edge structure; compare
        // edge producers as a cheap fingerprint.
        let fp = |d: &Dag| {
            d.edges()
                .map(|(_, e)| (e.producer().index(), e.consumer().index()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fp(&a), fp(&b));
        let _ = c;
    }

    #[test]
    fn patterns_deterministic_and_bounded() {
        for &p in &[
            TestPattern::Gradient,
            TestPattern::Checker(4),
            TestPattern::Noise,
            TestPattern::Bars,
        ] {
            for (x, y) in [(0, 0), (13, 7), (479, 319)] {
                let a = sample_pattern(p, 42, x, y);
                let b = sample_pattern(p, 42, x, y);
                assert_eq!(a, b);
                assert!((0..=255).contains(&a), "{p:?} out of range: {a}");
            }
        }
        // Seeds matter for noise.
        assert_ne!(
            (0..64)
                .map(|i| sample_pattern(TestPattern::Noise, 1, i, 0))
                .collect::<Vec<_>>(),
            (0..64)
                .map(|i| sample_pattern(TestPattern::Noise, 2, i, 0))
                .collect::<Vec<_>>()
        );
    }
}
