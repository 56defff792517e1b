//! Self-checking Verilog testbench generation.
//!
//! For hand-off to a real simulation/synthesis flow,
//! [`generate_testbench`] emits a testbench that streams a frame into the
//! generated top module, captures the output stream at the scheduled
//! cycles, and compares it against golden values computed by
//! `imagen-sim`'s executor — the same bit-exact reference the netlist
//! interpreter and the cycle simulator check against.
//!
//! The generator is wired to the [`Netlist`]: stream names, start cycles
//! and widths come from the netlist's interface, and emission fails
//! rather than referencing a port the top module does not declare.
//! [`TestVectors::from_golden`] derives the stimulus/expectation pair
//! from the golden executor on a seeded pseudo-random frame, so the
//! testbench always embeds a semantically meaningful check.

use crate::netlist::Netlist;
use crate::verify::RtlError;
use imagen_ir::Dag;
use imagen_mem::ImageGeometry;
use imagen_sim::{execute, GoldenError, Image};
use std::fmt::Write as _;

/// Inputs to testbench generation: one flattened pixel stream per input
/// stage and the expected output stream per output stage (raster order),
/// as produced by the golden executor.
#[derive(Clone, Debug, Default)]
pub struct TestVectors {
    /// One `width*height`-length pixel vector per input stage, in stage
    /// order.
    pub inputs: Vec<Vec<i64>>,
    /// One expected pixel vector per output stage, in stage order.
    pub outputs: Vec<Vec<i64>>,
}

/// SplitMix64 step (deterministic stimulus without external crates).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestVectors {
    /// Derives test vectors from the golden executor: every input stream
    /// is a seeded pseudo-random 8-bit frame, every output stream the
    /// executor's bit-exact result.
    ///
    /// # Errors
    ///
    /// [`GoldenError`] when the DAG rejects the generated inputs (cannot
    /// happen for validated DAGs).
    pub fn from_golden(
        dag: &Dag,
        geom: &ImageGeometry,
        seed: u64,
    ) -> Result<TestVectors, GoldenError> {
        let frames: Vec<Image> = dag
            .stages()
            .filter(|(_, s)| s.is_input())
            .enumerate()
            .map(|(i, _)| {
                let mut state = seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                Image::from_fn(geom.width, geom.height, |_, _| {
                    (splitmix(&mut state) & 0xFF) as i64
                })
            })
            .collect();
        let run = execute(dag, &frames)?;
        Ok(TestVectors {
            inputs: frames.iter().map(|img| img.raster().collect()).collect(),
            outputs: run
                .outputs(dag)
                .map(|(_, img)| img.raster().collect())
                .collect(),
        })
    }
}

/// Emits a self-checking testbench module `imagen_tb` for the netlist.
///
/// The testbench feeds each input stream starting at its stage's start
/// cycle, samples each output stream over its scheduled window, compares
/// against the expected vectors, and finishes with a pass/fail banner
/// (`IMAGEN TB PASS` / `IMAGEN TB FAIL`).
///
/// # Errors
///
/// [`RtlError::VectorShape`] when the vectors do not match the netlist's
/// stream interface, [`RtlError::UnknownPort`] if the netlist's top
/// module is missing a stream port the testbench would reference.
pub fn generate_testbench(net: &Netlist, vectors: &TestVectors) -> Result<String, RtlError> {
    let structure = &net.structure;
    let frame = structure.frame;
    let pixel = net.widths.pixel_bits;
    let inputs = structure.input_streams();
    let outputs = structure.output_streams();

    if vectors.inputs.len() != inputs.len() {
        return Err(RtlError::VectorShape {
            what: "inputs",
            expected: inputs.len(),
            found: vectors.inputs.len(),
        });
    }
    if vectors.outputs.len() != outputs.len() {
        return Err(RtlError::VectorShape {
            what: "outputs",
            expected: outputs.len(),
            found: vectors.outputs.len(),
        });
    }
    for data in &vectors.inputs {
        if data.len() != frame as usize {
            return Err(RtlError::VectorShape {
                what: "frame",
                expected: frame as usize,
                found: data.len(),
            });
        }
    }
    // A multirate output stage produces its own grid: `frame/(cx·cy)`
    // pixels (the full frame for rate-1 stages).
    for ((_, stage, _), data) in outputs.iter().zip(&vectors.outputs) {
        let st = &structure.stages[*stage];
        let want = (frame / (st.scale_x * st.scale_y)) as usize;
        if data.len() != want {
            return Err(RtlError::VectorShape {
                what: "frame",
                expected: want,
                found: data.len(),
            });
        }
    }
    // The testbench may only reference ports the top module declares.
    let top = net.top_module();
    for name in inputs
        .iter()
        .map(|(i, _, _)| format!("stream_in_{i}"))
        .chain(outputs.iter().map(|(i, _, _)| format!("stream_out_{i}")))
        .chain(["frame_done".to_string()])
    {
        if top.net(&name).map(|n| n.port.is_none()).unwrap_or(true) {
            return Err(RtlError::UnknownPort {
                instance: "dut".to_string(),
                module: top.name.clone(),
                port: name,
            });
        }
    }

    let mut v = String::new();
    let top_name = &top.name;
    let _ = writeln!(v, "// Self-checking testbench for `{top_name}`.");
    let _ = writeln!(v, "`timescale 1ns/1ps");
    let _ = writeln!(v, "module imagen_tb;");
    let _ = writeln!(v, "    reg clk = 1'b0;");
    let _ = writeln!(v, "    reg rst = 1'b1;");
    let _ = writeln!(v, "    always #5 clk = ~clk;");
    let _ = writeln!(v, "    reg [63:0] cycle = 64'd0;");
    let _ = writeln!(v, "    integer errors = 0;");

    for (i, _, s) in &inputs {
        let _ = writeln!(
            v,
            "    reg signed [{w}:0] in_mem_{i} [0:{n}];",
            w = pixel - 1,
            n = frame - 1
        );
        let _ = writeln!(v, "    wire signed [{}:0] stream_in_{i} =", pixel - 1);
        let _ = writeln!(
            v,
            "        (cycle >= 64'd{s} && cycle < 64'd{e}) ? in_mem_{i}[cycle - 64'd{s}] : {p}'sd0;",
            e = s + frame,
            p = pixel
        );
    }
    for (i, stage, _) in &outputs {
        let st = &structure.stages[*stage];
        let _ = writeln!(
            v,
            "    reg signed [{w}:0] exp_mem_{i} [0:{n}];",
            w = pixel - 1,
            n = frame / (st.scale_x * st.scale_y) - 1
        );
        let _ = writeln!(v, "    wire signed [{}:0] stream_out_{i};", pixel - 1);
    }

    // DUT instance.
    let mut conns = String::new();
    for (i, _, _) in &inputs {
        let _ = write!(conns, ".stream_in_{i}(stream_in_{i}), ");
    }
    for (i, _, _) in &outputs {
        let _ = write!(conns, ".stream_out_{i}(stream_out_{i}), ");
    }
    let _ = writeln!(v, "    wire frame_done;");
    let _ = writeln!(
        v,
        "    {top_name} dut (.clk(clk), .rst(rst), {conns}.frame_done(frame_done));"
    );

    // Memories initialized from literals (self-contained, no $readmemh
    // file dependencies).
    let _ = writeln!(v, "    integer i;");
    let _ = writeln!(v, "    initial begin");
    for (i, data) in vectors.inputs.iter().enumerate() {
        for (k, px) in data.iter().enumerate() {
            let _ = writeln!(v, "        in_mem_{i}[{k}] = {px};");
        }
    }
    for (i, data) in vectors.outputs.iter().enumerate() {
        for (k, px) in data.iter().enumerate() {
            let _ = writeln!(v, "        exp_mem_{i}[{k}] = {px};");
        }
    }
    let _ = writeln!(v, "        @(negedge clk); rst = 1'b0;");
    let _ = writeln!(v, "    end");

    // Cycle counter and output checking at each output's scheduled window
    // (one extra cycle of pipeline latency through the stage register).
    let _ = writeln!(v, "    always @(posedge clk) begin");
    let _ = writeln!(v, "        if (!rst) cycle <= cycle + 64'd1;");
    for (i, stage, s) in &outputs {
        let st = &structure.stages[*stage];
        // A multirate output only updates on its compute cadence; sample
        // those base cycles and index the stage-grid raster. Rate-1
        // stages emit the seed's every-cycle check verbatim.
        let (guard, idx) = if st.is_multirate() {
            let (cx, cy) = (st.scale_x, st.scale_y);
            let w = u64::from(structure.geometry.width);
            (
                format!(
                    "cycle >= 64'd{s} && cycle < 64'd{e} && (((cycle - 64'd{s}) / {w}) % {cy}) == 0 && (((cycle - 64'd{s}) % {w}) % {cx}) == 0",
                    e = s + frame
                ),
                format!(
                    "((((cycle - 64'd{s}) / {w}) / {cy}) * {pw} + (((cycle - 64'd{s}) % {w}) / {cx}))",
                    pw = w / cx
                ),
            )
        } else {
            (
                format!("cycle >= 64'd{s} && cycle < 64'd{e}", e = s + frame),
                format!("cycle - 64'd{s}"),
            )
        };
        let _ = writeln!(v, "        if ({guard}) begin");
        let _ = writeln!(
            v,
            "            if (stream_out_{i} !== exp_mem_{i}[{idx}]) begin"
        );
        let _ = writeln!(
            v,
            "                errors = errors + 1;\n                $display(\"MISMATCH out{i} k=%0d got=%0d want=%0d\", {idx}, stream_out_{i}, exp_mem_{i}[{idx}]);"
        );
        let _ = writeln!(v, "            end");
        let _ = writeln!(v, "        end");
    }
    let _ = writeln!(
        v,
        "        if (cycle > 64'd{}) begin",
        structure.done_cycle + 4
    );
    let _ = writeln!(
        v,
        "            if (errors == 0) $display(\"IMAGEN TB PASS\");\n            else $display(\"IMAGEN TB FAIL (%0d mismatches)\", errors);"
    );
    let _ = writeln!(v, "            $finish;");
    let _ = writeln!(v, "        end");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "endmodule");
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{build_netlist, BitWidths};
    use imagen_mem::{DesignStyle, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn tiny_plan() -> (imagen_ir::Dag, imagen_mem::Design, ImageGeometry) {
        let mut dag = imagen_ir::Dag::new("tb");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                imagen_ir::Expr::sum((0..3).map(|i| imagen_ir::Expr::tap(0, 0, i))),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 6,
            height: 4,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 256 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (p.dag, p.design, geom)
    }

    #[test]
    fn testbench_is_well_formed() {
        let (dag, design, geom) = tiny_plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let vectors = TestVectors::from_golden(&dag, &geom, 42).unwrap();
        let tb = generate_testbench(&net, &vectors).unwrap();
        assert!(tb.contains("module imagen_tb"));
        assert!(tb.contains("imagen_top_tb dut"));
        assert!(tb.contains("IMAGEN TB PASS"));
        assert!(tb.contains("$finish"));
        // Every referenced stream port exists in the netlist's top module.
        let top = net.top_module();
        for name in ["stream_in_0", "stream_out_0", "frame_done"] {
            assert!(tb.contains(name));
            assert!(top.net(name).is_some_and(|n| n.port.is_some()));
        }
    }

    #[test]
    fn vectors_come_from_the_golden_executor() {
        let (dag, design, geom) = tiny_plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let vectors = TestVectors::from_golden(&dag, &geom, 7).unwrap();
        assert_eq!(vectors.inputs.len(), 1);
        assert_eq!(vectors.outputs.len(), 1);
        assert_eq!(vectors.inputs[0].len(), geom.pixels() as usize);
        // Deterministic in the seed.
        let again = TestVectors::from_golden(&dag, &geom, 7).unwrap();
        assert_eq!(vectors.inputs, again.inputs);
        assert_eq!(vectors.outputs, again.outputs);
        let other = TestVectors::from_golden(&dag, &geom, 8).unwrap();
        assert_ne!(vectors.inputs, other.inputs);
        // The expectation embedded in the testbench is the golden value.
        let tb = generate_testbench(&net, &vectors).unwrap();
        assert!(tb.contains(&format!("in_mem_0[0] = {};", vectors.inputs[0][0])));
        assert!(tb.contains(&format!("exp_mem_0[0] = {};", vectors.outputs[0][0])));
    }

    #[test]
    fn vector_shape_is_enforced() {
        let (dag, design, geom) = tiny_plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        let err = generate_testbench(&net, &TestVectors::default()).unwrap_err();
        assert!(matches!(err, RtlError::VectorShape { what: "inputs", .. }));
        let mut vectors = TestVectors::from_golden(&dag, &geom, 1).unwrap();
        vectors.inputs[0].pop();
        let err = generate_testbench(&net, &vectors).unwrap_err();
        assert!(matches!(err, RtlError::VectorShape { what: "frame", .. }));
    }
}
