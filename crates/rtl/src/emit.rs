//! Verilog rendering of a [`Netlist`].
//!
//! [`emit_verilog`] prints a netlist's [`Structure`](crate::Structure)
//! alone, not its modules or their items, in the exact format the
//! original string emitter produced — at the default [`BitWidths`] the
//! output is byte-identical to the pre-refactor generator, pinned by the
//! golden files under `crates/rtl/golden/` — while every other consumer
//! (interpretation, verification, resource reporting) works from the
//! typed netlist and structure instead of the text.
//!
//! Printing is one pass over the structure: the compute stages, the line
//! buffers, then the top module, the order
//! [`build_netlist`](crate::build_netlist) elaborates them in. Each
//! kernel is written straight into the output; only the operands that
//! `Abs`, `Min`, `Max`, `Div` and `Clamp` print more than once are
//! rendered apart first. Each line buffer's SRAM blocks are printed from
//! one text template per buffer, split where the block index goes, and
//! each stage's window ports and arrays from its own run of
//! [`Structure::edges`](crate::Structure::edges). A line buffer's bank
//! select and address print its plan's
//! [`BlockLayout`](imagen_mem::BlockLayout) map, and its macros take the
//! layout's depth: `g` whole rows to a block, or on a row wider than a
//! block one column segment of `block_bits` bits, selected by the
//! column.
//!
//! Three inherited seed-emitter behaviors are kept for pin-compatibility,
//! and the netlist — not the text — is the authoritative structure:
//!
//! * the printed top module shows a single representative read port per
//!   line buffer and declares the window shift-register arrays without
//!   their load logic; the netlist carries the full elaboration (the
//!   [`Item::WindowLoad`](crate::Item::WindowLoad) paths), which is what
//!   the interpreter executes. For windows with `dx_max < 0` the printed
//!   arrays also span only `width()` columns, while the netlist/executed
//!   arrays reach the current raster column (`sra_cells`);
//! * the printed `clamp` ternary returns `hi` when `value > hi` even if
//!   the bounds are inverted at runtime (`lo > hi`), where the model and
//!   interpreter return `lo`.
//!
//! A third divergence — out-of-range `<<<`/`>>>` amounts — was resolved
//! by adopting the *hardware* semantics in the software model: both
//! `imagen_ir::Expr::eval` and the netlist interpreter now treat shift
//! amounts as unsigned the way plain Verilog shifts do (negative or
//! `> 63` amounts shift everything out), so the printed `(a <<< b)` /
//! `(a >>> b)` match the model at every amount on the 64-bit datapath.
//! The agreement is pinned by the root `tests/shift_semantics.rs`
//! differential at [`BitWidths::wide`]. At narrower
//! [`BitWidths::acc_bits`] the usual wide-then-store convention applies
//! — the model evaluates kernel *intermediates* in i64 and truncates at
//! the stage output register, while real synthesized wires are
//! `acc_bits` wide — so amounts in `acc_bits..64`, like any other
//! operation whose intermediate overflows `acc_bits`, can differ from
//! silicon mid-kernel. That is the documented width convention of the
//! whole backend (see [`BitWidths`]), not a shift-specific semantic.
//!
//! Generated kernels use constant well-ordered clamp bounds, so the
//! remaining clamp divergence cannot fire in emitted designs; a future
//! emitter revision can render all of these faithfully once the golden
//! pins are deliberately regenerated.

use crate::netlist::{BitWidths, Netlist};
use crate::structure::{NetBuffer, NetEdge, NetStage};
use imagen_ir::{BinOp, Expr};
use std::fmt::Write as _;

/// Stands for the block index in a line buffer's block template; no
/// printed text contains it.
const B: char = '\u{0}';

/// Renders the netlist as Verilog text. The window read path is not
/// printed: no `sra_*` array is driven and every line-buffer instance
/// leaves `.rdata()` open, so the netlist executor, not this text, is
/// what the tests run.
pub fn emit_verilog(net: &Netlist) -> String {
    let mut v = String::new();
    let geom = net.structure.geometry;
    let _ = writeln!(
        v,
        "// Auto-generated by imagen-rtl for pipeline `{}` ({}x{} @ {} bpp)",
        net.name, geom.width, geom.height, geom.pixel_bits
    );
    let _ = writeln!(v, "// Style: {:?}. Do not edit.", net.style);
    if let Some(g) = &net.gating {
        let _ = writeln!(
            v,
            "// Clock gating: {} line-buffer read port(s) gated to their consumer windows.",
            g.gates.len()
        );
    }
    let _ = writeln!(v);
    v.push_str(&sram_primitives(&net.widths));

    for (s, _, consumed) in net.structure.edges_by_consumer() {
        emit_stage_module(&mut v, net, s, consumed);
    }
    for buf in &net.structure.buffers {
        emit_linebuf_module(&mut v, net, buf);
    }

    emit_top(&mut v, net);
    v
}

/// Behavioral SRAM primitives (single- and dual-port).
fn sram_primitives(widths: &BitWidths) -> String {
    let w = widths.pixel_bits;
    format!(
        r#"
module imagen_sram_1p #(
    parameter DEPTH = 512,
    parameter WIDTH = {w},
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en,
    input  wire           we,
    input  wire [AW-1:0]  addr,
    input  wire [WIDTH-1:0] wdata,
    output reg  [WIDTH-1:0] rdata
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en) begin
            if (we) mem[addr] <= wdata;
            rdata <= mem[addr];
        end
    end
endmodule

module imagen_sram_2p #(
    parameter DEPTH = 512,
    parameter WIDTH = {w},
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en_a,
    input  wire           we_a,
    input  wire [AW-1:0]  addr_a,
    input  wire [WIDTH-1:0] wdata_a,
    output reg  [WIDTH-1:0] rdata_a,
    input  wire           en_b,
    input  wire [AW-1:0]  addr_b,
    output reg  [WIDTH-1:0] rdata_b
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en_a) begin
            if (we_a) mem[addr_a] <= wdata_a;
            rdata_a <= mem[addr_a];
        end
        if (en_b) rdata_b <= mem[addr_b];
    end
endmodule
"#
    )
}

/// Emits the combinational compute module of a compute stage, one window
/// port per consumed edge (nothing for an input stage).
fn emit_stage_module(v: &mut String, net: &Netlist, stage: &NetStage, consumed: &[NetEdge]) {
    let Some(kernel) = &stage.kernel else { return };
    let pixel = net.widths.pixel_bits;
    let acc = net.widths.acc_bits;
    let name = &stage.sanitized;
    let _ = writeln!(v, "module stage_{name} (");
    let _ = writeln!(v, "    input  wire clk,");
    let _ = writeln!(v, "    input  wire en,");
    for (slot, e) in consumed.iter().enumerate() {
        let w = &e.window;
        let cells = w.height * w.width();
        let _ = writeln!(
            v,
            "    input  wire signed [{}:0] win{} [0:{}],",
            pixel - 1,
            slot,
            cells - 1
        );
    }
    let _ = writeln!(v, "    output reg  signed [{}:0] pixel_out", pixel - 1);
    let _ = writeln!(v, ");");

    let _ = write!(v, "    wire signed [{}:0] result = ", acc - 1);
    emit_expr(v, kernel, consumed, acc);
    v.push_str(";\n");
    let _ = writeln!(v, "    always @(posedge clk) begin");
    let _ = writeln!(v, "        if (en) pixel_out <= result[{}:0];", pixel - 1);
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "endmodule\n");
}

/// Renders a kernel expression over the window ports of its consumed
/// edges (one per slot, in slot order), writing each subterm straight
/// into `out`; only the operands that `Abs`, `Min`, `Max`, `Div` and
/// `Clamp` print more than once are rendered apart.
fn emit_expr(out: &mut String, e: &Expr, edges: &[NetEdge], acc: u32) {
    let render = |e: &Expr| {
        let mut s = String::new();
        emit_expr(&mut s, e, edges, acc);
        s
    };
    match e {
        Expr::Const(c) => {
            if *c < 0 {
                let _ = write!(out, "(-{}'sd{})", acc, c.unsigned_abs());
            } else {
                let _ = write!(out, "{}'sd{}", acc, c.unsigned_abs());
            }
        }
        Expr::Tap { slot, dx, dy } => {
            let w = &edges[*slot].window;
            // Window cells are row-major with column 0 = oldest (leftmost
            // tap); tap (dx, dy) maps to row (dy - lag), col (dx - dx_min).
            let row = (*dy as i64 - w.lag as i64).max(0) as u32;
            let col = (*dx - w.dx_min).max(0) as u32;
            let cell = row * w.width() + col;
            let _ = write!(out, "win{slot}[{cell}]");
        }
        Expr::Neg(a) => {
            out.push_str("(-");
            emit_expr(out, a, edges, acc);
            out.push(')');
        }
        Expr::Abs(a) => {
            let a = render(a);
            let _ = write!(out, "((({a}) < 0) ? (-({a})) : ({a}))");
        }
        Expr::Bin(op @ (BinOp::Min | BinOp::Max), a, b) => {
            let (la, lb) = (render(a), render(b));
            let rel = if *op == BinOp::Min { '<' } else { '>' };
            let _ = write!(out, "((({la}) {rel} ({lb})) ? ({la}) : ({lb}))");
        }
        Expr::Bin(BinOp::Div, a, b) => {
            let lb = render(b);
            let _ = write!(out, "((({lb}) == 0) ? 0 : ((");
            emit_expr(out, a, edges, acc);
            let _ = write!(out, ") / ({lb})))");
        }
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Shl => "<<<",
                BinOp::Shr => ">>>",
                BinOp::Min | BinOp::Max | BinOp::Div => unreachable!("printed above"),
            };
            out.push_str("((");
            emit_expr(out, a, edges, acc);
            let _ = write!(out, ") {sym} (");
            emit_expr(out, b, edges, acc);
            out.push_str("))");
        }
        Expr::Cmp(op, a, b) => {
            out.push_str("(((");
            emit_expr(out, a, edges, acc);
            let _ = write!(out, ") {} (", op.mnemonic());
            emit_expr(out, b, edges, acc);
            out.push_str(")) ? 1 : 0)");
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            out.push_str("(((");
            emit_expr(out, cond, edges, acc);
            out.push_str(") != 0) ? (");
            emit_expr(out, then, edges, acc);
            out.push_str(") : (");
            emit_expr(out, otherwise, edges, acc);
            out.push_str("))");
        }
        Expr::Clamp { value, lo, hi } => {
            let (x, l, h) = (render(value), render(lo), render(hi));
            let _ = write!(
                out,
                "((({x}) < ({l})) ? ({l}) : ((({x}) > ({h})) ? ({h}) : ({x})))"
            );
        }
    }
}

/// Emits one line-buffer module: rotating banks of SRAM blocks plus the
/// bank-select logic, which prints the buffer's
/// [`BlockLayout::block_of`](imagen_mem::BlockLayout::block_of) map.
fn emit_linebuf_module(v: &mut String, net: &Netlist, buf: &NetBuffer) {
    let pixel = net.widths.pixel_bits;
    let name = &net.structure.stages[buf.stage].sanitized;
    let layout = buf.layout;
    let rows = layout.phys_rows().max(1);
    let nblocks = buf.blocks;
    let ports = buf.ports;
    let px = net.structure.geometry.pixel_bits;
    let depth = layout.depth(buf.width, px);
    let aw = layout.addr_width(buf.width, px);

    let _ = writeln!(v, "module linebuf_{name} (");
    let _ = writeln!(v, "    input  wire clk,");
    let _ = writeln!(v, "    input  wire wen,");
    let _ = writeln!(v, "    input  wire [31:0] wrow,");
    let _ = writeln!(v, "    input  wire [31:0] wcol,");
    let _ = writeln!(v, "    input  wire signed [{}:0] wdata,", pixel - 1);
    let _ = writeln!(v, "    input  wire ren,");
    let _ = writeln!(v, "    input  wire [31:0] rrow,");
    let _ = writeln!(v, "    input  wire [31:0] rcol,");
    let _ = writeln!(v, "    output wire signed [{}:0] rdata", pixel - 1);
    let _ = writeln!(v, ");");
    let (g, split, top) = (layout.rows_per_block(), layout.is_split(), aw - 1);
    let (bpr, bits, width) = (layout.blocks_per_row(), layout.block_bits(), buf.width);
    let _ = writeln!(
        v,
        "    // {rows} physical rows over {nblocks} blocks ({g} rows/block, {ports} ports)"
    );
    let _ = writeln!(v, "    wire [31:0] wphys = wrow % {rows};");
    let _ = writeln!(v, "    wire [31:0] rphys = rrow % {rows};");
    // A split row's block holds one column segment of `block_bits` bits;
    // whole rows share a block `g` at a time.
    for p in ['w', 'r'] {
        let _ = if split {
            writeln!(
                v,
                "    wire [31:0] {p}blk = {p}phys * {bpr} + ({p}col * {px}) / {bits};"
            )
        } else {
            writeln!(v, "    wire [31:0] {p}blk = {p}phys / {g};")
        };
    }
    for p in ['w', 'r'] {
        let _ = if split {
            writeln!(
                v,
                "    wire [{top}:0] {p}addr = (({p}col * {px}) % {bits}) / {px};"
            )
        } else {
            writeln!(
                v,
                "    wire [{top}:0] {p}addr = ({p}phys % {g}) * {width} + {p}col;"
            )
        };
    }
    let _ = writeln!(
        v,
        "    wire signed [{}:0] rdata_blk [0:{}];",
        pixel - 1,
        nblocks - 1
    );
    // One template per buffer, split where the block index goes.
    let template = if ports >= 2 {
        format!("    imagen_sram_2p #(.DEPTH({depth}), .WIDTH({pixel}), .AW({aw})) u_blk{B} (\n        .clk(clk),\n        .en_a(wen && wblk == {B}),\n        .we_a(wen && wblk == {B}),\n        .addr_a(waddr),\n        .wdata_a(wdata),\n        .rdata_a(),\n        .en_b(ren && rblk == {B}),\n        .addr_b(raddr),\n        .rdata_b(rdata_blk[{B}])\n    );\n")
    } else {
        format!("    imagen_sram_1p #(.DEPTH({depth}), .WIDTH({pixel}), .AW({aw})) u_blk{B} (\n        .clk(clk),\n        .en((wen && wblk == {B}) || (ren && rblk == {B})),\n        .we(wen && wblk == {B}),\n        .addr((wen && wblk == {B}) ? waddr : raddr),\n        .wdata(wdata),\n        .rdata(rdata_blk[{B}])\n    );\n")
    };
    let (head, rest) = template
        .split_once(B)
        .expect("the template names its block");
    let pieces: Vec<&str> = rest.split(B).collect();
    let mut index = String::new();
    for b in 0..nblocks {
        index.clear();
        let _ = write!(index, "{b}");
        v.push_str(head);
        for piece in &pieces {
            v.push_str(&index);
            v.push_str(piece);
        }
    }
    let _ = writeln!(v, "    reg [31:0] rblk_q;");
    let _ = writeln!(v, "    always @(posedge clk) rblk_q <= rblk;");
    let _ = writeln!(v, "    assign rdata = rdata_blk[rblk_q];");
    let _ = writeln!(v, "endmodule\n");
}

/// Emits the top-level module: cycle counter, per-stage start comparators,
/// stage and line-buffer instances.
fn emit_top(v: &mut String, net: &Netlist) {
    let pixel = net.widths.pixel_bits;
    let name = &net.sanitized;
    let _ = writeln!(v, "module imagen_top_{name} (");
    let _ = writeln!(v, "    input  wire clk,");
    let _ = writeln!(v, "    input  wire rst,");
    let inputs = net.structure.input_streams();
    for (i, _, _) in &inputs {
        let _ = writeln!(
            v,
            "    input  wire signed [{}:0] stream_in_{},",
            pixel - 1,
            i
        );
    }
    let outputs = net.structure.output_streams();
    for (i, _, _) in &outputs {
        let _ = writeln!(
            v,
            "    output wire signed [{}:0] stream_out_{},",
            pixel - 1,
            i
        );
    }
    let _ = writeln!(v, "    output wire frame_done");
    let _ = writeln!(v, ");");

    let (frame, width) = (net.structure.frame, net.structure.geometry.width);
    let _ = writeln!(v, "    reg [63:0] cycle;");
    let _ = writeln!(v, "    always @(posedge clk) begin");
    let _ = writeln!(v, "        if (rst) cycle <= 64'd0;");
    let _ = writeln!(v, "        else cycle <= cycle + 64'd1;");
    let _ = writeln!(v, "    end");

    // Per-stage enables and raster counters (start cycles from the ILP).
    // Multirate stages additionally derive their compute-enable cadence
    // (`ce`) and stage-grid coordinates (`yq`/`xq`) from the base-clock
    // raster; rate-1 stages emit exactly the seed wires.
    for s in &net.structure.stages {
        let n = &s.sanitized;
        let start = s.start_cycle;
        let _ = writeln!(
            v,
            "    wire en_{n} = (cycle >= 64'd{start}) && (cycle < 64'd{});",
            start + frame
        );
        let _ = writeln!(v, "    wire [63:0] k_{n} = cycle - 64'd{start};");
        let _ = writeln!(v, "    wire [31:0] y_{n} = k_{n} / {width};");
        let _ = writeln!(v, "    wire [31:0] x_{n} = k_{n} % {width};");
        if s.is_multirate() {
            let (cx, cy) = (s.scale_x, s.scale_y);
            let _ = writeln!(
                v,
                "    wire ce_{n} = en_{n} && (y_{n} % {cy} == 0) && (x_{n} % {cx} == 0);"
            );
            let _ = writeln!(v, "    wire [31:0] yq_{n} = y_{n} / {cy};");
            let _ = writeln!(v, "    wire [31:0] xq_{n} = x_{n} / {cx};");
        }
    }

    // Stage output wires: inputs are fed from the external streams,
    // compute stages from their module instance below.
    for s in &net.structure.stages {
        let n = &s.sanitized;
        if let Some(in_idx) = s.input_stream {
            let _ = writeln!(
                v,
                "    wire signed [{}:0] out_{n} = stream_in_{in_idx};",
                pixel - 1
            );
        } else {
            let _ = writeln!(v, "    wire signed [{}:0] out_{n};", pixel - 1);
        }
    }

    // Line buffer instances (one write port shown; read fan-out is
    // resolved per consumer in the netlist's window-load paths). With a
    // clock-gating plan attached, the read enable is the buffer's
    // ILP-derived consumer window instead of the constant 1'b1: outside
    // it the SRAM banks see no enabled read port.
    for (bi, buf) in net.structure.buffers.iter().enumerate() {
        let pname = &net.structure.stages[buf.stage].sanitized;
        let gate = net.gating.as_ref().and_then(|g| g.gate_for(bi));
        let ren = match gate {
            Some(g) => {
                let _ = writeln!(
                    v,
                    "    // clock gate: read port idle outside the consumer window",
                );
                let _ = writeln!(
                    v,
                    "    wire ren_lb_{pname} = (cycle >= 64'd{}) && (cycle < 64'd{});",
                    g.read_start, g.read_end
                );
                format!("ren_lb_{pname}")
            }
            None => "1'b1".to_string(),
        };
        // Multirate producers commit on their own cadence into their own
        // grid: write (and representative read) ports take the derived
        // `ce`/`yq`/`xq` wires instead of the base raster.
        let (wen, row, col) = if net.structure.stages[buf.stage].is_multirate() {
            (
                format!("ce_{pname}"),
                format!("yq_{pname}"),
                format!("xq_{pname}"),
            )
        } else {
            (
                format!("en_{pname}"),
                format!("y_{pname}"),
                format!("x_{pname}"),
            )
        };
        let _ = writeln!(
            v,
            "    linebuf_{pname} u_lb_{pname} (\n        .clk(clk),\n        .wen({wen}),\n        .wrow({row}),\n        .wcol({col}),\n        .wdata(out_{pname}),\n        .ren({ren}),\n        .rrow({row}),\n        .rcol({col}),\n        .rdata()\n    );"
        );
    }

    // Stage instances with window register arrays.
    for (s, _, consumed) in net.structure.edges_by_consumer() {
        if s.census.is_none() {
            continue;
        }
        let n = &s.sanitized;
        let mut conns = String::new();
        for e in consumed {
            let cells = e.window.height * e.window.width();
            let _ = writeln!(
                v,
                "    reg signed [{}:0] sra_{n}_{} [0:{}];",
                pixel - 1,
                e.slot,
                cells - 1
            );
            let _ = write!(conns, ".win{}(sra_{n}_{}), ", e.slot, e.slot);
        }
        let en = if s.is_multirate() {
            format!("ce_{n}")
        } else {
            format!("en_{n}")
        };
        let _ = writeln!(
            v,
            "    stage_{n} u_{n} (.clk(clk), .en({en}), {conns}.pixel_out(out_{n}));"
        );
    }

    for (i, stage, _) in &outputs {
        let n = &net.structure.stages[*stage].sanitized;
        let _ = writeln!(v, "    assign stream_out_{i} = out_{n};");
    }

    let _ = writeln!(
        v,
        "    assign frame_done = (cycle >= 64'd{});",
        net.structure.done_cycle
    );
    let _ = writeln!(v, "endmodule");
}
