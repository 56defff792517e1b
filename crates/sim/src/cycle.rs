//! The cycle-level accelerator simulator.
//!
//! This is the reproduction of the paper's ASIC-backend simulator
//! (Sec. 7): it replays a planned [`Design`] cycle by cycle with *real*
//! storage — every line buffer is a rotating `phys_rows × W` pixel array,
//! every stencil window a shift-register array — and verifies the three
//! no-stall requirements of Sec. 5.1:
//!
//! * **R1 (causality)** — every buffer read happens strictly after the
//!   producing write (residency check, "not yet produced");
//! * **R2 (no off-chip traffic)** — no pixel is overwritten before its
//!   last reader consumed it ("already evicted");
//! * **R3 (port discipline)** — per physical block, accesses per cycle
//!   never exceed the port count (with same-address read fan-out merged).
//!
//! Because stages really read from the modeled buffers, a scheduling bug
//! corrupts the output image and the final bit-exact comparison against
//! the golden executor fails — the functional check is load-bearing, not
//! decorative. The simulator also produces the per-block access counts
//! that drive the power model.

//!
//! Multirate stages run on the common base clock: every stage is active
//! for one `W x H` base-cycle frame, but a stage at cumulative scale
//! `(cx, cy)` computes only on cycles where `y % cy == 0 && x % cx == 0`,
//! producing pixel `(x/cx, y/cy)` of its own `W/cx x H/cy` grid. Line
//! buffers hold *producer-grid* rows (width `W/pcx`), and each reader's
//! shift-register array loads on its edge-active cadence
//! (`y % ccy == 0 && x % pcx == 0`) so that by construction the newest
//! SRA column at a compute cycle is producer column `x/pcx`.

use crate::golden::{execute, GoldenError, GoldenRun};
use crate::image::Image;
use imagen_ir::{Dag, StageId, StageKind};
use imagen_mem::{BlockLayout, BlockRole, Design};
use std::fmt;

/// Maximum violations recorded per category (the simulation continues to
/// let the functional comparison demonstrate the corruption).
const MAX_RECORDED: usize = 16;

/// A port-discipline violation observed by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimPortViolation {
    /// Producer stage owning the buffer.
    pub buffer_stage: usize,
    /// Cycle of the violation.
    pub cycle: i64,
    /// Block index within the buffer.
    pub block: usize,
    /// Accesses observed.
    pub count: u32,
    /// Ports available.
    pub ports: u32,
}

/// A residency violation (R1/R2) observed by the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResidencyViolation {
    /// Producer stage owning the buffer.
    pub buffer_stage: usize,
    /// Reading stage.
    pub reader: usize,
    /// Cycle of the offending read.
    pub cycle: i64,
    /// Absolute row read.
    pub row: i64,
    /// `true` = not yet produced (R1); `false` = already evicted (R2).
    pub not_yet_produced: bool,
}

/// Simulation outcome.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total cycles simulated.
    pub cycles: i64,
    /// Cycle after the last output pixel (end-to-end frame latency).
    pub latency: i64,
    /// Port violations (empty for a correct design).
    pub port_violations: Vec<SimPortViolation>,
    /// Residency violations (empty for a correct design).
    pub residency_violations: Vec<ResidencyViolation>,
    /// Whether every output stream matched the golden executor bit-exactly.
    pub outputs_match_golden: bool,
    /// Pixels emitted per cycle per output stage in steady state (1.0 for
    /// a stall-free design).
    pub throughput_px_per_cycle: f64,
    /// Total SRAM/BRAM accesses across all buffers.
    pub total_accesses: u64,
    /// Exact per-block access totals, write totals and peaks, one entry
    /// per design buffer: `(stage, totals, write totals, peaks)`.
    pub buffer_access_stats: Vec<BufferAccessStats>,
    /// The streams produced by every output stage, as images.
    pub output_images: Vec<(usize, Image)>,
}

/// Per-buffer access accounting: `(stage, per-block access totals,
/// per-block write totals, per-block peaks)`.
pub type BufferAccessStats = (usize, Vec<u64>, Vec<u64>, Vec<u32>);

impl SimReport {
    /// `true` when the design met all three no-stall requirements and
    /// produced bit-exact output.
    pub fn is_clean(&self) -> bool {
        self.port_violations.is_empty()
            && self.residency_violations.is_empty()
            && self.outputs_match_golden
    }
}

/// Simulator failure (structural, before any cycles run).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// Golden execution failed (bad inputs).
    Golden(GoldenError),
    /// The design's geometry does not match the input images.
    GeometryMismatch,
    /// The design is missing the schedule entry or buffer for a stage.
    IncompleteDesign {
        /// The stage lacking planning data.
        stage: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Golden(e) => write!(f, "{e}"),
            SimError::GeometryMismatch => {
                write!(f, "input image dimensions do not match the design geometry")
            }
            SimError::IncompleteDesign { stage } => {
                write!(f, "design has no plan for stage {stage}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<GoldenError> for SimError {
    fn from(e: GoldenError) -> Self {
        SimError::Golden(e)
    }
}

/// Rotating line-buffer storage for one producer stage.
struct BufferState {
    /// Index into `design.buffers`, if this stage owns a planned buffer.
    plan: Option<usize>,
    /// The plan's block layout, when accesses are counted per block: not
    /// on FIFO segments, which count per live cycle, nor without blocks.
    blocks: Option<BlockLayout>,
    phys_rows: u32,
    data: Vec<i64>,
    /// Per-block access counters for the current cycle: (block, count).
    cycle_counts: Vec<(usize, u32)>,
    /// Same-address read dedup for the current cycle: (block, row, x).
    cycle_reads: Vec<(usize, i64, i64)>,
    /// Accumulated per-block totals (reads + writes).
    totals: Vec<u64>,
    /// Accumulated per-block write totals.
    totals_w: Vec<u64>,
    /// Per-block peak accesses in any cycle.
    peaks: Vec<u32>,
    fifo: bool,
}

/// Simulates `design` for `dag` on `inputs`, verifying timing and
/// functional correctness against the golden executor.
///
/// # Errors
///
/// [`SimError`] for structural problems; timing/functional problems are
/// reported in the returned [`SimReport`], not as errors.
pub fn simulate(dag: &Dag, design: &Design, inputs: &[Image]) -> Result<SimReport, SimError> {
    let geom = design.geometry;
    let (w, h) = (geom.width as i64, geom.height as i64);
    if inputs
        .iter()
        .any(|i| i.width() != geom.width || i.height() != geom.height)
    {
        return Err(SimError::GeometryMismatch);
    }
    let golden: GoldenRun = execute(dag, inputs)?;
    if design.start_cycles.len() < dag.num_stages() {
        return Err(SimError::IncompleteDesign {
            stage: design.start_cycles.len(),
        });
    }

    let frame = w * h;
    let starts: Vec<i64> = design.start_cycles.iter().map(|&s| s as i64).collect();

    // Cumulative per-stage scales; a stage's own grid is `w/cx x h/cy`
    // and its line buffer stores producer-grid rows of width `w/cx`.
    let scales: Vec<(i64, i64)> = dag
        .stage_scales()
        .iter()
        .map(|&(cx, cy)| (cx as i64, cy as i64))
        .collect();

    // Per-stage buffer state.
    let mut buffers: Vec<BufferState> = Vec::with_capacity(dag.num_stages());
    for (id, _) in dag.stages() {
        let (cx, _) = scales[id.index()];
        let plan_idx = design.buffers.iter().position(|b| b.stage == id.index());
        let (phys_rows, nblocks, fifo, blocks) = match plan_idx {
            Some(i) => {
                let p = &design.buffers[i];
                let fifo = p.blocks.iter().any(|b| b.role == BlockRole::FifoSegment);
                (
                    p.layout.phys_rows().max(p.logical_rows).max(1),
                    p.blocks.len(),
                    fifo,
                    (!fifo && !p.blocks.is_empty()).then_some(p.layout),
                )
            }
            None => (0, 0, false, None),
        };
        buffers.push(BufferState {
            plan: plan_idx,
            blocks,
            phys_rows,
            data: vec![0; (phys_rows as i64 * (w / cx)) as usize],
            cycle_counts: Vec::new(),
            cycle_reads: Vec::new(),
            totals: vec![0; nblocks],
            totals_w: vec![0; nblocks],
            peaks: vec![0; nblocks],
            fifo,
        });
    }

    // Shift-register arrays, one per edge: h rows x sra_width columns.
    struct Sra {
        height: u32,
        width: u32,
        lag: u32,
        data: Vec<i64>,
    }
    let mut sras: Vec<Sra> = dag
        .edges()
        .map(|(_, e)| {
            let width = (-e.window().dx_min + 1).max(1) as u32;
            Sra {
                height: e.window().height,
                width,
                lag: e.window().lag,
                data: vec![0; (e.window().height * width) as usize],
            }
        })
        .collect();

    let end = starts.iter().map(|s| s + frame).max().unwrap_or(frame);

    let mut port_violations = Vec::new();
    let mut residency_violations = Vec::new();
    let mut outputs: Vec<(StageId, Image)> = dag
        .stages()
        .filter(|(_, s)| s.is_output())
        .map(|(id, _)| {
            let (cx, cy) = scales[id.index()];
            (id, Image::new((w / cx) as u32, (h / cy) as u32))
        })
        .collect();
    let mut next_input = vec![0usize; dag.num_stages()];
    {
        let mut idx = 0;
        for (i, s) in dag.stages() {
            if s.is_input() {
                next_input[i.index()] = idx;
                idx += 1;
            }
        }
    }

    let edge_list: Vec<(usize, imagen_ir::Edge)> =
        dag.edges().map(|(id, e)| (id.index(), e.clone())).collect();
    // Per-stage slot -> edge index lookup for kernel taps.
    let slot_edge: Vec<Vec<usize>> = dag
        .stages()
        .map(|(sid, s)| {
            let mut v = vec![usize::MAX; s.producers().len()];
            for (i, e) in &edge_list {
                if e.consumer() == sid {
                    v[e.slot()] = *i;
                }
            }
            v
        })
        .collect();

    // Per-cycle scratch: values computed in the read phase, written in
    // the write phase (SRAMs are read-first: a read and a write to the
    // same address in one cycle returns the old data).
    let mut computed: Vec<i64> = vec![0; dag.num_stages()];
    for t in 0..end {
        // Begin-of-cycle: clear per-cycle counters.
        for b in &mut buffers {
            b.cycle_counts.clear();
            b.cycle_reads.clear();
        }

        // ---- Read phase: load SRAs and evaluate kernels. -----------
        for (sid, stage) in dag.stages() {
            let s = starts[sid.index()];
            if t < s || t >= s + frame {
                continue;
            }
            let k = t - s;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            let (ccx, ccy) = scales[sid.index()];

            // 1. Load one column into each incoming SRA (reads the
            //    producer's rotating buffer) and account the accesses.
            //    Edge-active cadence: once per consumer-active row
            //    (`y % ccy == 0`), at every producer-grid column
            //    (`x % pcx == 0`).
            for (eidx, e) in &edge_list {
                if e.consumer() != sid {
                    continue;
                }
                let p = e.producer().index();
                let (pcx, pcy) = scales[p];
                if y % ccy != 0 || x % pcx != 0 {
                    continue;
                }
                let pw = w / pcx;
                let ph = h / pcy;
                let xp = x / pcx;
                // Producer row the newest taps anchor to: floor(y/pcy)
                // (= fy*yc for downsample, floor(yc/fy) for upsample).
                let r0 = y / pcy;
                let pper = pcy * w; // producer row period in base cycles
                let sra = &mut sras[*eidx];
                // Shift left one column.
                for r in 0..sra.height as usize {
                    let base = r * sra.width as usize;
                    for c in 0..sra.width as usize - 1 {
                        sra.data[base + c] = sra.data[base + c + 1];
                    }
                }
                let pb = &mut buffers[p];
                for j in 0..sra.height {
                    let row = (r0 + sra.lag as i64 + j as i64).min(ph - 1);
                    // Residency (R1/R2). FIFO designs are dataflow-correct
                    // by construction; the rotating model still holds the
                    // right values because fifo rows >= reuse distance.
                    let produced = starts[p] + row * pper + xp * pcx;
                    // A slot is recycled only when the producer writes row
                    // `row + phys_rows`; rows near the bottom of the frame
                    // are never overwritten (the producer stops), so
                    // clamped tail reads stay valid indefinitely.
                    let overwritten = if row + (pb.phys_rows as i64) < ph {
                        produced + pb.phys_rows as i64 * pper
                    } else {
                        i64::MAX
                    };
                    if (produced >= t || overwritten < t)
                        && residency_violations.len() < MAX_RECORDED
                    {
                        residency_violations.push(ResidencyViolation {
                            buffer_stage: p,
                            reader: sid.index(),
                            cycle: t,
                            row,
                            not_yet_produced: produced >= t,
                        });
                    }
                    let slot = (row.rem_euclid(pb.phys_rows as i64) * pw + xp) as usize;
                    let v = pb.data[slot];
                    sra.data[(j * sra.width + sra.width - 1) as usize] = v;
                    // Access accounting (reads merge on identical address).
                    if let Some(layout) = pb.blocks {
                        let block = layout.block_of(row as u64, xp as u32, geom.pixel_bits);
                        let dup = pb
                            .cycle_reads
                            .iter()
                            .any(|&(bk, r2, x2)| bk == block && r2 == row && x2 == xp);
                        if !dup {
                            pb.cycle_reads.push((block, row, xp));
                            bump(&mut pb.cycle_counts, block);
                        }
                    }
                }
            }

            // 2. Compute the stage's output pixel from its SRAs, on the
            //    stage's own cadence.
            if y % ccy != 0 || x % ccx != 0 {
                continue;
            }
            computed[sid.index()] = match stage.kind() {
                StageKind::Input => inputs[next_input[sid.index()]].get(x as u32, y as u32),
                StageKind::Compute { kernel } => {
                    let slots = &slot_edge[sid.index()];
                    let producers = stage.producers();
                    kernel.eval(&mut |slot, dx, dy| {
                        let sra = &sras[slots[slot]];
                        let (pcx, _) = scales[producers[slot].index()];
                        // Newest SRA column holds producer column x/pcx.
                        let newest = x / pcx;
                        let j = (dy as u32).saturating_sub(sra.lag);
                        let col = (newest + dx as i64).max(0);
                        let c = (sra.width as i64 - 1 - (newest - col)).max(0) as u32;
                        sra.data[(j * sra.width + c) as usize]
                    })
                    // Kernel taps index the SRA: row j = dy - lag, column
                    // from the clamped offset; both clamps mirror the
                    // golden executor's clamp-to-edge semantics.
                }
            };
        }

        // ---- Write phase: commit values to buffers and outputs. ----
        for (sid, stage) in dag.stages() {
            let s = starts[sid.index()];
            if t < s || t >= s + frame {
                continue;
            }
            let k = t - s;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            let (cx, cy) = scales[sid.index()];
            // A stage only produces on its own cadence.
            if y % cy != 0 || x % cx != 0 {
                continue;
            }
            let (yc, xc) = (y / cy, x / cx);
            let value = computed[sid.index()];

            // 3. Write to the stage's rotating buffer (if it has one).
            let sb = &mut buffers[sid.index()];
            if sb.phys_rows > 0 {
                let slot = (yc.rem_euclid(sb.phys_rows as i64) * (w / cx) + xc) as usize;
                sb.data[slot] = value;
                if let Some(layout) = sb.blocks {
                    let block = layout.block_of(yc as u64, xc as u32, geom.pixel_bits);
                    bump(&mut sb.cycle_counts, block);
                    sb.totals_w[block] += 1;
                }
            }

            // 4. Output stages stream to the output image.
            if stage.is_output() {
                if let Some((_, img)) = outputs.iter_mut().find(|(id, _)| *id == sid) {
                    img.set(xc as u32, yc as u32, value);
                }
            }
        }

        // End-of-cycle: check port discipline, accumulate totals.
        for (si, b) in buffers.iter_mut().enumerate() {
            if b.fifo {
                continue; // FIFO accounting is per-active-cycle, below.
            }
            let Some(pi) = b.plan else { continue };
            let ports = design.buffers[pi]
                .blocks
                .first()
                .map(|blk| blk.ports)
                .unwrap_or(1);
            for &(block, count) in &b.cycle_counts {
                b.totals[block] += count as u64;
                if count > b.peaks[block] {
                    b.peaks[block] = count;
                }
                if count > ports && port_violations.len() < MAX_RECORDED {
                    port_violations.push(SimPortViolation {
                        buffer_stage: si,
                        cycle: t,
                        block,
                        count,
                        ports,
                    });
                }
            }
        }
    }

    // FIFO buffers: every segment does one push and one pop per cycle
    // while the stream is live (the SODA property that costs power).
    for (sid, _) in dag.stages() {
        let b = &mut buffers[sid.index()];
        if !b.fifo {
            continue;
        }
        let (cx, cy) = scales[sid.index()];
        // Each segment is busy for one stage-grid frame's worth of pushes.
        let live = frame / (cx * cy);
        for tot in b.totals.iter_mut() {
            *tot = 2 * live as u64;
        }
        for tot in b.totals_w.iter_mut() {
            *tot = live as u64;
        }
        for pk in b.peaks.iter_mut() {
            *pk = 2;
        }
    }

    // Compare outputs against golden.
    let mut outputs_match = true;
    for (id, img) in &outputs {
        if golden.stage(*id).diff_count(img) != 0 {
            outputs_match = false;
        }
    }

    let latency = dag
        .stages()
        .filter(|(_, s)| s.is_output())
        .map(|(id, _)| starts[id.index()] + frame)
        .max()
        .unwrap_or(frame);

    let total_accesses: u64 = buffers.iter().map(|b| b.totals.iter().sum::<u64>()).sum();

    let buffer_access_stats: Vec<BufferAccessStats> = design
        .buffers
        .iter()
        .map(|bp| {
            let state = &buffers[bp.stage];
            (
                bp.stage,
                state.totals.clone(),
                state.totals_w.clone(),
                state.peaks.clone(),
            )
        })
        .collect();

    Ok(SimReport {
        cycles: end,
        latency,
        port_violations,
        residency_violations,
        outputs_match_golden: outputs_match,
        throughput_px_per_cycle: 1.0,
        total_accesses,
        buffer_access_stats,
        output_images: outputs
            .into_iter()
            .map(|(id, img)| (id.index(), img))
            .collect(),
    })
}

fn bump(counts: &mut Vec<(usize, u32)>, block: usize) {
    match counts.iter_mut().find(|(b, _)| *b == block) {
        Some((_, c)) => *c += 1,
        None => counts.push((block, 1)),
    }
}

/// Simulates and writes the measured per-block access statistics back
/// into the design (average accesses per streaming cycle and peaks),
/// replacing the planner's analytic estimates with exact counts.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_and_annotate(
    dag: &Dag,
    design: &mut Design,
    inputs: &[Image],
) -> Result<SimReport, SimError> {
    let report = simulate(dag, design, inputs)?;
    let frame = design.geometry.pixels() as f64;
    for (stage, totals, writes, peaks) in &report.buffer_access_stats {
        if let Some(bp) = design.buffers.iter_mut().find(|b| b.stage == *stage) {
            for (i, blk) in bp.blocks.iter_mut().enumerate() {
                blk.avg_accesses_per_cycle = totals[i] as f64 / frame;
                blk.avg_writes_per_cycle = writes[i] as f64 / frame;
                blk.peak_accesses = peaks[i];
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_dsl::compile;
    use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn small_geom() -> ImageGeometry {
        ImageGeometry {
            width: 24,
            height: 16,
            pixel_bits: 16,
        }
    }

    fn ramp(geom: &ImageGeometry) -> Image {
        Image::from_fn(geom.width, geom.height, |x, y| {
            ((x * 7 + y * 13) % 251) as i64
        })
    }

    fn plan_and_sim(src: &str, ports: u32, coalesce: bool) -> SimReport {
        let dag = compile("t", src).unwrap();
        let geom = small_geom();
        let mut spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            ports,
        );
        if coalesce {
            spec = spec.with_coalescing();
        }
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            imagen_mem::DesignStyle::Ours,
        )
        .unwrap();
        let input = ramp(&geom);
        simulate(&plan.dag, &plan.design, &[input]).unwrap()
    }

    const BLUR: &str = "input A; output B = im(x,y)
        (A(x-1,y-1)+A(x,y-1)+A(x+1,y-1)
        +A(x-1,y)  +A(x,y)  +A(x+1,y)
        +A(x-1,y+1)+A(x,y+1)+A(x+1,y+1)) / 9 end";

    const MULTI: &str = "input A;
        B = im(x,y) (A(x-1,y-1)+A(x+1,y+1)) / 2 end
        output C = im(x,y) A(x,y) + B(x-1,y-1) + B(x+1,y+1) end";

    #[test]
    fn blur_is_clean_dual_port() {
        let r = plan_and_sim(BLUR, 2, false);
        assert!(r.port_violations.is_empty(), "{:?}", r.port_violations);
        assert!(
            r.residency_violations.is_empty(),
            "{:?}",
            r.residency_violations
        );
        assert!(r.outputs_match_golden);
        assert!(r.is_clean());
        assert!(r.total_accesses > 0);
    }

    #[test]
    fn multi_consumer_clean_dual_port() {
        let r = plan_and_sim(MULTI, 2, false);
        assert!(
            r.is_clean(),
            "port={:?} res={:?}",
            r.port_violations,
            r.residency_violations
        );
    }

    #[test]
    fn single_port_fixynn_style_clean() {
        let r = plan_and_sim(MULTI, 1, false);
        assert!(
            r.is_clean(),
            "port={:?} res={:?}",
            r.port_violations,
            r.residency_violations
        );
    }

    #[test]
    fn coalesced_clean() {
        let r = plan_and_sim(BLUR, 2, true);
        assert!(
            r.is_clean(),
            "port={:?} res={:?}",
            r.port_violations,
            r.residency_violations
        );
        let r = plan_and_sim(MULTI, 2, true);
        assert!(
            r.is_clean(),
            "port={:?} res={:?}",
            r.port_violations,
            r.residency_violations
        );
    }

    const PYRAMID: &str = "input A;
        G = im(x,y) (A(x-1,y-1)+2*A(x,y-1)+A(x+1,y-1)
                    +2*A(x-1,y)+4*A(x,y)+2*A(x+1,y)
                    +A(x-1,y+1)+2*A(x,y+1)+A(x+1,y+1)) / 16 end
        D = downsample(2,2) im(x,y) G(x,y) end
        output U = upsample(2,2) im(x,y) D(x,y) end";

    #[test]
    fn multirate_pyramid_clean() {
        let r = plan_and_sim(PYRAMID, 2, false);
        assert!(
            r.is_clean(),
            "port={:?} res={:?} golden={}",
            r.port_violations,
            r.residency_violations,
            r.outputs_match_golden
        );
    }

    #[test]
    fn broken_schedule_detected() {
        // Start the consumer too early: residency (R1) must fire and the
        // output must diverge from golden.
        let dag = compile("t", BLUR).unwrap();
        let geom = small_geom();
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        let mut plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            imagen_mem::DesignStyle::Ours,
        )
        .unwrap();
        plan.design.start_cycles[1] = 1; // violates (SH-1)W+1
        let input = ramp(&geom);
        let r = simulate(&plan.dag, &plan.design, &[input]).unwrap();
        assert!(!r.residency_violations.is_empty());
        assert!(!r.outputs_match_golden);
        assert!(!r.is_clean());
    }

    #[test]
    fn undersized_buffer_detected() {
        // Shrink the buffer below the reuse distance: eviction (R2) fires.
        let dag = compile("t", BLUR).unwrap();
        let geom = small_geom();
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        let mut plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            imagen_mem::DesignStyle::Ours,
        )
        .unwrap();
        let b = &mut plan.design.buffers[0];
        b.layout = b.layout.with_phys_rows(1);
        plan.design.start_cycles[1] += 2 * geom.width as u64; // keep R1 ok
        let input = ramp(&geom);
        let r = simulate(&plan.dag, &plan.design, &[input]).unwrap();
        assert!(
            r.residency_violations.iter().any(|v| !v.not_yet_produced),
            "{:?}",
            r.residency_violations
        );
    }

    #[test]
    fn annotation_fills_stats() {
        let dag = compile("t", BLUR).unwrap();
        let geom = small_geom();
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        let mut plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            imagen_mem::DesignStyle::Ours,
        )
        .unwrap();
        let input = ramp(&geom);
        let r = simulate_and_annotate(&plan.dag, &mut plan.design, &[input]).unwrap();
        assert!(r.is_clean());
        // Buffer of A: writer (1) + reader (3 rows) = ~4 accesses/cycle
        // spread over the blocks.
        let total: f64 = plan.design.buffers[0]
            .blocks
            .iter()
            .map(|b| b.avg_accesses_per_cycle)
            .sum();
        assert!(total > 3.0 && total <= 4.0, "got {total}");
    }

    #[test]
    fn latency_matches_schedule() {
        let dag = compile("t", BLUR).unwrap();
        let geom = small_geom();
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            imagen_mem::DesignStyle::Ours,
        )
        .unwrap();
        let input = ramp(&geom);
        let r = simulate(&plan.dag, &plan.design, &[input]).unwrap();
        let expected = plan.schedule.latency(&plan.dag, geom.width, geom.height);
        assert_eq!(r.latency, expected);
    }
}
