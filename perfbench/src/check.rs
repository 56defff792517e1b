//! Output checks against oracles independent of the compiler under test.
//! They run outside every timed region.

use imagen_ir::{Dag, StageId};
use imagen_mem::Design;
use imagen_rtl::Netlist;
use imagen_sim::Image;

/// One 4-bit noise frame per input stream, stream `i` seeded `1 + i`:
/// the stimulus `imagen dse` measures with by default, small enough
/// that no kernel intermediate leaves the 16-bit pixel datapath.
pub fn noise_inputs(dag: &Dag, net: &Netlist) -> Vec<Image> {
    let geom = net.geometry;
    let streams = dag.stages().filter(|(_, s)| s.is_input()).count();
    (0..streams as u64)
        .map(|i| {
            Image::from_fn(geom.width, geom.height, move |x, y| {
                imagen_algos::noise_bits(1 + i, x, y, 4)
            })
        })
        .collect()
}

/// Interprets `net` (`rtl::interpret`) on 4-bit noise and requires every
/// streamed output to equal the golden executor's image of that stage
/// (`sim::execute` on the planned DAG). Returns the measured ungated
/// energy per frame of the same stimulus, pJ.
pub fn interpret_against_golden(dag: &Dag, net: &Netlist, design: &Design) -> Result<f64, String> {
    let inputs = noise_inputs(dag, net);
    let run = imagen_rtl::interpret(net, &inputs).map_err(|e| format!("interpret: {e}"))?;
    let golden = imagen_sim::execute(dag, &inputs).map_err(|e| format!("golden: {e}"))?;
    let outputs = dag.stages().filter(|(_, s)| s.is_output()).count();
    if run.output_images.len() != outputs {
        return Err(format!(
            "{}: {} streams interpreted, {outputs} outputs",
            dag.name(),
            run.output_images.len()
        ));
    }
    for (stage, image) in &run.output_images {
        if image != golden.stage(StageId::from_index(*stage)) {
            return Err(format!(
                "{}: stage {stage} differs from the golden executor",
                dag.name()
            ));
        }
    }
    let (_, trace) =
        imagen_rtl::interpret_with_trace(net, &inputs).map_err(|e| format!("trace: {e}"))?;
    Ok(imagen_power::measure(net, design, &trace).energy_pj_per_frame())
}
