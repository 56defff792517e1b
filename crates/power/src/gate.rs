//! The clock-gating transform: a netlist→netlist pass deriving gating
//! conditions from the ILP-scheduled enables.
//!
//! The ungated emitter holds every line buffer's read enable at `1'b1`,
//! so the bank selected by the rotation decode performs a real SRAM read
//! on *every* cycle of operation — including the schedule skew before
//! the first consumer starts and after the last one finishes, where the
//! data goes nowhere. Those are exactly the intervals the ILP schedule
//! makes static: a buffer's data is only ever loaded while one of its
//! consumers' enable windows `[start, start + frame)` is live.
//!
//! [`gate_clocks`] therefore gates each buffer's read port to the union
//! of its consumers' windows. The other candidate conditions the
//! schedule exposes are already structural or vacuous in this
//! architecture, and the pass documents rather than duplicates them:
//!
//! * **idle banks** — the per-bank enables (`en_b = ren && rblk == b`)
//!   already gate every bank the rotation decode is not pointing at;
//!   the pass narrows `ren` itself, which those decodes AND with;
//! * **stall intervals** — ImaGen schedules are stall-free by
//!   construction (requirements R1–R3), so within a consumer window
//!   there is no cycle to gate; all gateable time lives in the
//!   inter-stage skew the window derivation captures;
//! * **`dx_max < 0` window corners** — the left-edge clamp re-reads the
//!   current column rather than issuing extra reads, so corner cycles
//!   cost no additional bank enables to remove.
//!
//! The pass is semantics-preserving *by checked construction*: the
//! interpreter honors the gate (a gated-off read port supplies no
//! data), so the gated netlist is run through the same bit-exact
//! differential suite as the ungated one, and a wrong window corrupts
//! the output stream instead of silently under-reporting energy. The
//! measurement path ([`measure_schedule`](crate::measure_schedule))
//! checks the plan directly instead: every gate must cover each of its
//! consumers' whole enable windows, which proves on *every* input that
//! the gated netlist loads exactly the words the ungated one loads.

use imagen_rtl::{BufferGate, Conn, GatingPlan, Item, Net, Netlist, Structure};

/// Derives the clock-gating plan of a design's structure: every line
/// buffer's read port is gated to the union of its consumers' ILP
/// windows, from the first consumer's start to the last consumer's start
/// plus one frame.
///
/// FIFO buffers (SODA) and pure-DFF buffers get no gate — their clocking
/// is dataflow-driven, not scheduled. [`gate_clocks`] attaches this plan
/// to a copy of a netlist; [`measure_schedule`](crate::measure_schedule)
/// prices it without one.
pub fn gating_plan(s: &Structure) -> GatingPlan {
    // The first and last consumer start of each buffer, in one pass over
    // the edges.
    let mut starts: Vec<Option<(u64, u64)>> = vec![None; s.buffers.len()];
    for e in &s.edges {
        if let Some(bi) = s.stages[e.producer].buffer {
            let t = s.stages[e.consumer].start_cycle;
            let span = starts[bi].get_or_insert((t, t));
            *span = (span.0.min(t), span.1.max(t));
        }
    }
    let mut gates = Vec::new();
    for (bi, (buf, span)) in s.buffers.iter().zip(starts).enumerate() {
        if let Some((first, last)) = span.filter(|_| !buf.fifo && buf.phys_blocks != 0) {
            gates.push(BufferGate {
                buffer: bi,
                read_start: first,
                read_end: last + s.frame,
            });
        }
    }
    GatingPlan { gates }
}

/// Attaches a clock-gating plan to `net`: every line buffer's read port
/// is gated to the union of its consumers' ILP windows ([`gating_plan`]).
///
/// The returned netlist is a full copy with:
///
/// * `gating` set to the derived [`GatingPlan`];
/// * a 1-bit `ren_lb_<stage>` net, driven by a continuous assignment of
///   the window comparators, declared in the top module;
/// * the line-buffer instance's `ren` connection rewritten from the
///   constant `1'b1` to that net,
///
/// so emission, interpretation and structural verification all see the
/// same gated hardware.
///
/// Gating an already-gated netlist re-derives the same plan (the pass
/// is idempotent).
pub fn gate_clocks(net: &Netlist) -> Netlist {
    let s = &net.structure;
    let plan = gating_plan(s);
    let mut out = net.clone();
    let top = out.top;
    let module = &mut out.modules[top];
    for g in &plan.gates {
        let pname = s.stages[s.buffers[g.buffer].stage].sanitized.clone();
        let gate_net = format!("ren_lb_{pname}");
        if module.net(&gate_net).is_none() {
            module.nets.push(Net {
                name: gate_net.clone(),
                width: 1,
                signed: false,
                array: None,
                is_reg: false,
                port: None,
            });
            module.items.push(Item::Assign {
                net: gate_net.clone(),
            });
        }
        for item in module.items.iter_mut() {
            if let Item::Inst(inst) = item {
                if inst.name == format!("u_lb_{pname}") {
                    for (port, conn) in inst.conns.iter_mut() {
                        if port == "ren" {
                            *conn = Conn::Net(gate_net.clone());
                        }
                    }
                }
            }
        }
    }

    out.gating = Some(plan);
    out
}
