//! The per-cycle reference walker: executes a netlist by re-traversing
//! its structure every clock edge, with no compiled program in between.
//!
//! This is the test-only semantic baseline `program_differential.rs` pins
//! the shipped code against: the executor (`imagen_rtl::EvalProgram`,
//! behind `interpret`) report for report, and the frame-free activity
//! (`imagen_rtl::ScheduleActivity`, behind `interpret_with_trace`) trace
//! field for field. Every count is made the way the hardware makes it —
//! one cycle at a time: the cycle counter advances, per-stage enables
//! fire at the ILP start cycles (each stage on its own rate cadence), the
//! window-load paths shift the SRA register arrays and read the rotating
//! line-buffer SRAMs, the stage compute modules evaluate their kernels at
//! the declared accumulator width, and the output registers truncate to
//! the pixel width.

use imagen_ir::Expr;
use imagen_rtl::{
    eval_acc, sra_columns, trunc, ActivityTrace, BufferActivity, BufferGate, InterpError,
    InterpReport, Netlist, SraActivity, StageActivity,
};
use imagen_sim::Image;

/// Rotating line-buffer storage for one producer stage.
struct BufState {
    rows: u32,
    data: Vec<i64>,
}

/// One shift-register array (window registers of one edge).
struct SraState {
    height: u32,
    width: u32,
    lag: u32,
    data: Vec<i64>,
}

/// Executes `net` on `inputs` clock edge by clock edge.
///
/// # Errors
///
/// [`InterpError`] for a wrong input count or geometry, and for a
/// windowed producer without a line buffer.
pub fn walk(net: &Netlist, inputs: &[Image]) -> Result<InterpReport, InterpError> {
    run(net, inputs, None)
}

/// Like [`walk`], additionally counting the [`ActivityTrace`] cycle by
/// cycle.
///
/// # Errors
///
/// See [`walk`].
pub fn walk_with_trace(
    net: &Netlist,
    inputs: &[Image],
) -> Result<(InterpReport, ActivityTrace), InterpError> {
    let mut trace = empty_trace(net);
    let report = run(net, inputs, Some(&mut trace))?;
    Ok((report, trace))
}

/// An all-zero trace shaped for `net`, filled in by the walk.
fn empty_trace(net: &Netlist) -> ActivityTrace {
    ActivityTrace {
        run_cycles: 0,
        frame: net.structure.frame,
        buffers: net
            .structure
            .buffers
            .iter()
            .map(|b| BufferActivity {
                stage: b.stage,
                block_reads: vec![0; b.phys_blocks],
                block_writes: vec![0; b.phys_blocks],
                block_peaks: vec![0; b.phys_blocks],
                fifo: b.fifo,
                ..BufferActivity::default()
            })
            .collect(),
        stages: vec![StageActivity::default(); net.structure.stages.len()],
        sras: vec![SraActivity::default(); net.structure.edges.len()],
    }
}

/// Per-cycle activity scratch, one slot per netlist buffer. Reads are
/// collected unchecked and merged with one sort+dedup at end of cycle,
/// and the counters are dense per-block arrays with a touched list for
/// O(1) bump and reset.
struct TraceScratch {
    /// Same-address merge candidates for the current cycle:
    /// `(block, row, x)` — the cycle simulator's merge key, deduplicated
    /// at end of cycle.
    cycle_reads: Vec<Vec<(usize, i64, i64)>>,
    /// Dense per-block access counters for the current cycle.
    cycle_counts: Vec<Vec<u32>>,
    /// Blocks touched this cycle (reset list for `cycle_counts`).
    touched: Vec<Vec<usize>>,
    /// Whether any consumer loaded from the buffer this cycle.
    consumed: Vec<bool>,
}

fn bump(counts: &mut [u32], touched: &mut Vec<usize>, block: usize) {
    if counts[block] == 0 {
        touched.push(block);
    }
    counts[block] += 1;
}

fn run(
    net: &Netlist,
    inputs: &[Image],
    mut trace: Option<&mut ActivityTrace>,
) -> Result<InterpReport, InterpError> {
    let geom = net.structure.geometry;
    let (w, h) = (geom.width as i64, geom.height as i64);
    let frame = net.structure.frame as i64;
    let pixel = net.widths.pixel_bits;
    let acc = net.widths.acc_bits;

    let streams = net.structure.input_streams();
    if streams.len() != inputs.len() {
        return Err(InterpError::InputCount {
            expected: streams.len(),
            provided: inputs.len(),
        });
    }
    if inputs
        .iter()
        .any(|i| i.width() != geom.width || i.height() != geom.height)
    {
        return Err(InterpError::GeometryMismatch);
    }

    // Per-stage cumulative rate scales (1,1 for rate-1 stages).
    let scales: Vec<(i64, i64)> = net
        .structure
        .stages
        .iter()
        .map(|s| (s.scale_x as i64, s.scale_y as i64))
        .collect();

    // Per-stage rotating buffers (from the netlist's line-buffer roster).
    // A multirate producer's buffer holds its own grid: w / scale_x words
    // per row.
    let mut buffers: Vec<Option<BufState>> =
        (0..net.structure.stages.len()).map(|_| None).collect();
    for buf in &net.structure.buffers {
        let (sx, _) = scales[buf.stage];
        buffers[buf.stage] = Some(BufState {
            rows: buf.storage_rows,
            data: vec![0; buf.storage_rows as usize * (w / sx) as usize],
        });
    }
    // Every windowed producer must own a buffer for the load path to read.
    for e in &net.structure.edges {
        if buffers[e.producer].is_none() {
            return Err(InterpError::MissingBuffer { stage: e.producer });
        }
    }

    // Netlist-buffer index per stage and per-buffer gating condition.
    let mut buf_of_stage: Vec<Option<usize>> = vec![None; net.structure.stages.len()];
    for (i, b) in net.structure.buffers.iter().enumerate() {
        buf_of_stage[b.stage] = Some(i);
    }
    let gates: Vec<Option<BufferGate>> = (0..net.structure.buffers.len())
        .map(|i| {
            net.gating
                .as_ref()
                .and_then(|g| g.gate_for(i))
                .copied()
                // FIFO chains are dataflow-clocked; the gating pass never
                // targets them.
                .filter(|_| !net.structure.buffers[i].fifo)
        })
        .collect();

    let mut scratch = trace.as_ref().map(|_| TraceScratch {
        cycle_reads: vec![Vec::new(); net.structure.buffers.len()],
        cycle_counts: net
            .structure
            .buffers
            .iter()
            .map(|b| vec![0u32; b.phys_blocks])
            .collect(),
        touched: vec![Vec::new(); net.structure.buffers.len()],
        consumed: vec![false; net.structure.buffers.len()],
    });

    // Shift-register arrays, one per edge — exactly the register arrays
    // the netlist declares (`sra_cells` sizes both).
    let mut sras: Vec<SraState> = net
        .structure
        .edges
        .iter()
        .map(|e| {
            let width = sra_columns(&e.window);
            SraState {
                height: e.window.height,
                width,
                lag: e.window.lag,
                data: vec![0; (e.window.height * width) as usize],
            }
        })
        .collect();

    // Input-stream binding and kernel lookup per stage.
    let mut input_of: Vec<Option<usize>> = vec![None; net.structure.stages.len()];
    for (k, stage, _) in &streams {
        input_of[*stage] = Some(*k);
    }
    let kernels: Vec<Option<&Expr>> = net
        .structure
        .stages
        .iter()
        .map(|s| s.kernel.as_deref())
        .collect();
    // Per-stage slot -> edge index lookup for kernel taps.
    let slot_edge: Vec<Vec<usize>> = net
        .structure
        .stages
        .iter()
        .map(|s| {
            let mut v: Vec<usize> = Vec::new();
            for (i, e) in net.structure.edges.iter().enumerate() {
                if e.consumer == s.index {
                    if v.len() <= e.slot {
                        v.resize(e.slot + 1, usize::MAX);
                    }
                    v[e.slot] = i;
                }
            }
            v
        })
        .collect();

    let starts: Vec<i64> = net
        .structure
        .stages
        .iter()
        .map(|s| s.start_cycle as i64)
        .collect();
    let end = starts.iter().map(|s| s + frame).max().unwrap_or(frame);

    let mut outputs: Vec<(usize, Image)> = net
        .structure
        .stages
        .iter()
        .filter(|s| s.is_output)
        .map(|s| {
            let (sx, sy) = scales[s.index];
            (s.index, Image::new((w / sx) as u32, (h / sy) as u32))
        })
        .collect();
    let mut computed: Vec<i64> = vec![0; net.structure.stages.len()];
    let mut sram_reads = 0u64;
    let mut sram_writes = 0u64;
    let mut gated_off_cycles = 0u64;

    for t in 0..end {
        // ---- Read phase: window-load paths fill the SRAs, stage
        // modules evaluate. SRAMs are read-first: reads see the data
        // written on previous edges.
        for s in &net.structure.stages {
            let start = starts[s.index];
            if t < start || t >= start + frame {
                continue;
            }
            let k = t - start;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            let (ccx, ccy) = scales[s.index];

            for (eidx, e) in net.structure.edges.iter().enumerate() {
                if e.consumer != s.index {
                    continue;
                }
                let (pcx, pcy) = scales[e.producer];
                // Edge-active cadence: once per consumer-active row, at
                // every producer-grid column.
                if y % ccy != 0 || x % pcx != 0 {
                    continue;
                }
                let pw = w / pcx;
                let ph = h / pcy;
                let xp = x / pcx;
                let r0 = y / pcy;
                let bufidx = buf_of_stage[e.producer].expect("checked above");
                let gated_off = gates[bufidx].is_some_and(|g| !g.enabled_at(t as u64));
                let sra = &mut sras[eidx];
                // Shift left one column.
                for r in 0..sra.height as usize {
                    let base = r * sra.width as usize;
                    for c in 0..sra.width as usize - 1 {
                        sra.data[base + c] = sra.data[base + c + 1];
                    }
                }
                let pb = buffers[e.producer].as_ref().expect("checked above");
                let nb = &net.structure.buffers[bufidx];
                for j in 0..sra.height {
                    // Clamp-to-edge on the bottom rows: rows past the
                    // frame hold their last written value.
                    let row = (r0 + sra.lag as i64 + j as i64).min(ph - 1);
                    let cell = (j * sra.width + sra.width - 1) as usize;
                    let v = if gated_off {
                        // A gated-off read port supplies no data: a plan
                        // that gates a live consumer corrupts the output
                        // and fails the differential suite — semantics
                        // preservation is checked, not assumed.
                        0
                    } else {
                        let slot = (row.rem_euclid(pb.rows as i64) * pw + xp) as usize;
                        sram_reads += 1;
                        pb.data[slot]
                    };
                    if let Some(ts) = scratch.as_mut() {
                        if !gated_off {
                            ts.consumed[bufidx] = true;
                            if !nb.fifo && nb.phys_blocks > 0 {
                                let block =
                                    nb.layout.block_of(row as u64, xp as u32, geom.pixel_bits);
                                // Reads merge on identical (block, row,
                                // column) within one cycle — the cycle
                                // simulator's convention. Candidates are
                                // collected here and deduplicated once at
                                // end of cycle.
                                ts.cycle_reads[bufidx].push((block, row, xp));
                            }
                        }
                    }
                    sra.data[cell] = v;
                }
                if let Some(tr) = trace.as_deref_mut() {
                    let sa = &mut tr.sras[eidx];
                    sa.shift_cycles += 1;
                    sa.cell_writes += (sra.height * sra.width) as u64;
                }
            }

            // Compute fires on the stage's own cadence only.
            if y % ccy != 0 || x % ccx != 0 {
                continue;
            }
            computed[s.index] = match input_of[s.index] {
                Some(idx) => trunc(inputs[idx].get(x as u32, y as u32), pixel),
                None => {
                    let kernel = kernels[s.index].expect("compute stage has a kernel");
                    let slots = &slot_edge[s.index];
                    let edges = &net.structure.edges;
                    let wide = eval_acc(kernel, acc, &mut |slot, dx, dy| {
                        let eidx = slots[slot];
                        let sra = &sras[eidx];
                        let (pcx, _) = scales[edges[eidx].producer];
                        // Newest SRA column holds producer column x/pcx.
                        let newest = x / pcx;
                        let j = (dy as u32).saturating_sub(sra.lag);
                        let col = (newest + dx as i64).max(0);
                        let c = (sra.width as i64 - 1 - (newest - col)).max(0) as u32;
                        sra.data[(j * sra.width + c) as usize]
                    });
                    // The stage output register truncates the wide result
                    // to the pixel datapath.
                    trunc(wide, pixel)
                }
            };
            if let Some(tr) = trace.as_deref_mut() {
                let sa = &mut tr.stages[s.index];
                sa.active_cycles += 1;
                if kernels[s.index].is_some() {
                    // Compute stages own a clocked output register.
                    sa.out_reg_writes += 1;
                }
            }
        }

        // ---- Write phase: line-buffer write ports and output streams
        // commit at the clock edge.
        for s in &net.structure.stages {
            let start = starts[s.index];
            if t < start || t >= start + frame {
                continue;
            }
            let k = t - start;
            let y = k.div_euclid(w);
            let x = k.rem_euclid(w);
            let (cx, cy) = scales[s.index];
            // A stage only produces on its own cadence.
            if y % cy != 0 || x % cx != 0 {
                continue;
            }
            let (yc, xc) = (y / cy, x / cx);
            let value = computed[s.index];

            if let Some(sb) = buffers[s.index].as_mut() {
                let slot = (yc.rem_euclid(sb.rows as i64) * (w / cx) + xc) as usize;
                sb.data[slot] = value;
                sram_writes += 1;
                if let (Some(tr), Some(ts)) = (trace.as_deref_mut(), scratch.as_mut()) {
                    let bufidx = buf_of_stage[s.index].expect("writer owns a buffer");
                    let nb = &net.structure.buffers[bufidx];
                    if !nb.fifo && nb.phys_blocks > 0 {
                        let block = nb.layout.block_of(yc as u64, xc as u32, geom.pixel_bits);
                        tr.buffers[bufidx].block_writes[block] += 1;
                        bump(&mut ts.cycle_counts[bufidx], &mut ts.touched[bufidx], block);
                    }
                }
            }

            if s.is_output {
                if let Some((_, img)) = outputs.iter_mut().find(|(i, _)| *i == s.index) {
                    img.set(xc as u32, yc as u32, value);
                }
            }
        }

        // ---- End of cycle: gated-off counting, per-block peaks, read
        // port enable duty.
        if net.gating.is_some() {
            for (i, g) in gates.iter().enumerate() {
                if let Some(g) = g {
                    if !g.enabled_at(t as u64) {
                        gated_off_cycles += 1;
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.buffers[i].gated_off_cycles += 1;
                        }
                    }
                }
            }
        }
        if let (Some(tr), Some(ts)) = (trace.as_deref_mut(), scratch.as_mut()) {
            for (i, gate) in gates.iter().enumerate() {
                if !ts.cycle_reads[i].is_empty() {
                    ts.cycle_reads[i].sort_unstable();
                    ts.cycle_reads[i].dedup();
                    for k in 0..ts.cycle_reads[i].len() {
                        let (block, _, _) = ts.cycle_reads[i][k];
                        tr.buffers[i].block_reads[block] += 1;
                        bump(&mut ts.cycle_counts[i], &mut ts.touched[i], block);
                    }
                    ts.cycle_reads[i].clear();
                }
                for k in 0..ts.touched[i].len() {
                    let block = ts.touched[i][k];
                    let count = ts.cycle_counts[i][block];
                    if count > tr.buffers[i].block_peaks[block] {
                        tr.buffers[i].block_peaks[block] = count;
                    }
                    ts.cycle_counts[i][block] = 0;
                }
                ts.touched[i].clear();
                let nb = &net.structure.buffers[i];
                if nb.phys_blocks > 0 && !nb.fifo {
                    let enabled = gate.is_none_or(|g| g.enabled_at(t as u64));
                    if enabled {
                        tr.buffers[i].read_enabled_cycles += 1;
                        if !ts.consumed[i] {
                            tr.buffers[i].idle_read_cycles += 1;
                        }
                    }
                }
                ts.consumed[i] = false;
            }
        }
    }

    if let Some(tr) = trace {
        tr.run_cycles = end as u64;
        tr.frame = net.structure.frame;
        // FIFO chains: one push and one pop per segment per live cycle —
        // the cycle simulator's synthetic SODA accounting (Sec. 3.1), so
        // the two counting paths stay comparable on FIFO designs too.
        // Multirate producers push one stage-grid frame, not a base frame.
        for (i, b) in tr.buffers.iter_mut().enumerate() {
            if b.fifo {
                let s = net.structure.buffers[i].stage;
                let live = net.structure.frame
                    / (net.structure.stages[s].scale_x * net.structure.stages[s].scale_y);
                for r in b.block_reads.iter_mut() {
                    *r = live;
                }
                for wr in b.block_writes.iter_mut() {
                    *wr = live;
                }
                for p in b.block_peaks.iter_mut() {
                    *p = 2;
                }
            }
        }
    }

    Ok(InterpReport {
        cycles: end as u64,
        // The cycle after the last output pixel is the netlist's own
        // done-cycle (the `frame_done` comparator), derived once by the
        // builder.
        latency: net.structure.done_cycle,
        output_images: outputs,
        sram_reads,
        sram_writes,
        gated_off_cycles,
    })
}
