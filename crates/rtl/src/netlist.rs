//! The typed structural netlist IR.
//!
//! [`build_netlist`] elaborates a scheduled [`Design`] into a [`Netlist`]
//! on top of its [`Structure`]: modules with typed ports and nets,
//! instances with named connections, SRAM banks, registers, and
//! combinational expression nets. Each line buffer holds its SRAM blocks
//! as one [`Item::Bank`]: a block count and the connections of block `b`,
//! whose template one primitive's banks share across the netlist. The
//! netlist is the artifact the backend's execution and checking
//! consumers work from:
//!
//! * [`interpret`](crate::interpret) executes it over a frame, closing
//!   the verification loop against the golden executor and the
//!   cycle-level simulator;
//! * [`verify_all`](crate::verify_all) checks it structurally (port
//!   arity/width of every instantiation, each bank's template once,
//!   driver analysis).
//!
//! [`emit_verilog`](crate::emit_verilog) prints the Verilog text from the
//! [`Structure`] alone, not from the items, and leaves the window read
//! path undriven.
//!
//! A stage or line-buffer module names only its stage or buffer
//! ([`ModuleKind::Stage`], [`ModuleKind::LineBuffer`]): the kernel a
//! stage evaluates, its windows and its schedule live once, in
//! [`Netlist::structure`].

use crate::structure::{describe, sanitize, sra_cells, NetBuffer, NetEdge, NetStage, Structure};
use imagen_ir::Dag;
use imagen_mem::{Design, DesignStyle, ImageGeometry};
use std::sync::Arc;

/// Datapath bit widths of the generated hardware, set in exactly one
/// place and threaded through the netlist builder.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BitWidths {
    /// Pixel datapath width (stage outputs, line-buffer words, stream
    /// ports). Values wider than this wrap on the stage output register.
    pub pixel_bits: u32,
    /// Intermediate arithmetic width: kernels are evaluated wide, then
    /// truncated on the stage output register (the simulator's
    /// wide-then-store semantics).
    pub acc_bits: u32,
}

impl Default for BitWidths {
    fn default() -> Self {
        BitWidths {
            pixel_bits: 16,
            acc_bits: 32,
        }
    }
}

impl BitWidths {
    /// Widths at which hardware arithmetic coincides exactly with the
    /// software model's `i64` semantics (no truncation anywhere) — the
    /// configuration the differential suite uses to prove the netlist
    /// bit-exact against the golden executor on full-range inputs.
    pub fn wide() -> BitWidths {
        BitWidths {
            pixel_bits: 64,
            acc_bits: 64,
        }
    }
}

/// Port/net direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Driven from outside the module.
    Input,
    /// Driven inside the module.
    Output,
}

/// A named signal of a module: a wire or register, possibly an unpacked
/// array (`array` is the element count), possibly a port (`port` is its
/// direction at the module boundary).
#[derive(Clone, Debug)]
pub struct Net {
    /// Identifier within the module.
    pub name: String,
    /// Bit width of one element.
    pub width: u32,
    /// Whether the signal is signed.
    pub signed: bool,
    /// Unpacked-array element count (`None` for scalars).
    pub array: Option<u32>,
    /// Whether the signal is a register (clocked state).
    pub is_reg: bool,
    /// Port direction when the net crosses the module boundary.
    pub port: Option<Dir>,
}

/// How an instance port is connected.
#[derive(Clone, Debug)]
pub enum Conn {
    /// Connected to a whole local net.
    Net(String),
    /// Connected to one element of a local array net.
    NetIndex(String, u32),
    /// On block `b` of an [`Item::Bank`], connected to element `b` of a
    /// local array net (a lone [`Item::Inst`] is block 0 of one).
    Block(String),
    /// Connected to a sized constant.
    Const(u64, u32),
    /// Connected to an anonymous combinational expression of local nets
    /// (bank-select decode and similar glue); in a bank's template, `b`
    /// stands for the block index.
    Expr(String),
    /// Left unconnected (legal for outputs only).
    Open,
}

/// A module instantiation.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module: String,
    /// Instance identifier.
    pub name: String,
    /// Named port connections.
    pub conns: Vec<(String, Conn)>,
}

/// A bank of identical SRAM blocks: block `b` (`0..blocks`) is an
/// instance of `template.module` named `{template.name}{b}`, connected
/// as `template.conns`, where a [`Conn::Block`] net is driven element by
/// element, one element per block.
#[derive(Clone, Debug)]
pub struct Bank {
    /// Number of blocks.
    pub blocks: u32,
    /// Module, instance-name prefix and connections of block `b`, shared
    /// by every bank of the same primitive in a netlist.
    pub template: Arc<Instance>,
}

/// A structural item of a module: every item names the net(s) it drives,
/// which is what the driver analysis in
/// [`verify_all`](crate::verify_all) walks.
#[derive(Clone, Debug)]
pub enum Item {
    /// A continuous assignment driving `net` from a combinational
    /// expression of other nets.
    Assign {
        /// The driven net.
        net: String,
    },
    /// A clocked register driving `net`.
    Register {
        /// The driven net.
        net: String,
    },
    /// A module instantiation (drives the nets its output ports connect).
    Inst(Instance),
    /// A line buffer's SRAM blocks: `blocks` instances of one template,
    /// which drive the `rdata_blk` array element by element.
    Bank(Bank),
    /// The window-load path of one consumer edge: each active cycle it
    /// shifts the `sra` register array left and loads one column read
    /// from the producer's line buffer (clamp-to-edge on the bottom
    /// rows). This is the full elaboration of the read fan-out that the
    /// pinned Verilog renderer still abbreviates (see `emit`'s module
    /// docs); the interpreter executes it.
    WindowLoad {
        /// The driven shift-register-array net.
        sra: String,
        /// Index into [`Structure::edges`].
        edge: usize,
    },
}

/// What an [`Item::Inst`] or an [`Item::Bank`] places: an instance once,
/// or a bank's template once per block.
#[derive(Clone, Copy, Debug)]
pub struct Placement<'a> {
    /// The instance, or the bank's template.
    pub inst: &'a Instance,
    /// Copies placed: 1 for an instance, the block count for a bank.
    pub copies: u32,
    bank: bool,
}

impl Placement<'_> {
    /// How diagnostics name the placement: an instance by its name, a
    /// bank by the range of its blocks' names (`u_blk0..u_blk7`).
    pub fn label(&self) -> String {
        let name = &self.inst.name;
        if self.bank {
            format!("{name}0..{name}{}", self.copies.saturating_sub(1))
        } else {
            name.clone()
        }
    }
}

impl Item {
    /// What this item places, if it is an instance or a bank.
    pub fn placement(&self) -> Option<Placement<'_>> {
        match self {
            Item::Inst(inst) => Some(Placement {
                inst,
                copies: 1,
                bank: false,
            }),
            Item::Bank(bank) => Some(Placement {
                inst: &bank.template,
                copies: bank.blocks,
                bank: true,
            }),
            _ => None,
        }
    }
}

/// What a module is.
#[derive(Clone, Debug)]
pub enum ModuleKind {
    /// A behavioral SRAM primitive with `rw_ports` ports.
    SramPrimitive {
        /// Number of access ports (1 or 2).
        rw_ports: u32,
    },
    /// A per-stage combinational compute module with a registered
    /// output, by DAG stage index ([`Structure::stages`]).
    Stage(usize),
    /// A rotating line buffer over SRAM blocks, by index into
    /// [`Structure::buffers`].
    LineBuffer(usize),
    /// The top-level module: cycle counter, per-stage control, stage and
    /// line-buffer instances, stream ports.
    Top,
}

/// One module of the netlist.
#[derive(Clone, Debug)]
pub struct Module {
    /// Module name (unique within the netlist).
    pub name: String,
    /// What the module is.
    pub kind: ModuleKind,
    /// All signals, ports included, in declaration order.
    pub nets: Vec<Net>,
    /// Structural contents in elaboration order.
    pub items: Vec<Item>,
}

impl Module {
    /// Ports in declaration order.
    pub fn ports(&self) -> impl Iterator<Item = &Net> {
        self.nets.iter().filter(|n| n.port.is_some())
    }

    /// Looks up a net (or port) by name.
    pub fn net(&self, name: &str) -> Option<&Net> {
        self.nets.iter().find(|n| n.name == name)
    }
}

/// The temporal clock-gating condition of one line buffer: its read port
/// is enabled only while some consumer's ILP window is live, instead of
/// the ungated `ren = 1'b1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BufferGate {
    /// Index into [`Structure::buffers`].
    pub buffer: usize,
    /// First cycle (inclusive) the read port is enabled.
    pub read_start: u64,
    /// First cycle (exclusive) past the last enabled read.
    pub read_end: u64,
}

impl BufferGate {
    /// Whether the gated read port is enabled at cycle `t`.
    pub fn enabled_at(&self, t: u64) -> bool {
        t >= self.read_start && t < self.read_end
    }
}

/// A clock-gating plan attached to a netlist by
/// `imagen_power::gate_clocks`: per-buffer read-enable windows derived
/// from the ILP-scheduled stage enables. `None` (the builder's default)
/// is the ungated design, whose emission is pinned byte-identical to the
/// seed emitter.
#[derive(Clone, Debug, Default)]
pub struct GatingPlan {
    /// One gate per gated buffer, ascending by buffer index.
    pub gates: Vec<BufferGate>,
}

impl GatingPlan {
    /// The gate covering `buffer`, if any.
    pub fn gate_for(&self, buffer: usize) -> Option<&BufferGate> {
        self.gates.iter().find(|g| g.buffer == buffer)
    }
}

/// A fully elaborated accelerator netlist: the [`Structure`] it was
/// built from, plus the modules, nets and instances elaborated on top of
/// it at one set of [`BitWidths`].
#[derive(Clone, Debug)]
pub struct Netlist {
    /// Pipeline name as authored.
    pub name: String,
    /// Identifier-safe pipeline name.
    pub sanitized: String,
    /// Generator style label (carried into the header comment).
    pub style: DesignStyle,
    /// Frame geometry the netlist was elaborated for: a copy of
    /// [`Structure::geometry`], which the crates read instead.
    pub geometry: ImageGeometry,
    /// Datapath widths the netlist was elaborated at.
    pub widths: BitWidths,
    /// The design's stages, edges and buffers, as [`describe`] derived
    /// them.
    pub structure: Structure,
    /// All modules: SRAM primitives, stage modules, line-buffer modules,
    /// then the top module.
    pub modules: Vec<Module>,
    /// Index of the top module in [`Netlist::modules`].
    pub top: usize,
    /// Clock-gating plan, if the netlist has been through
    /// `imagen_power::gate_clocks` (`None` from [`build_netlist`]).
    pub gating: Option<GatingPlan>,
}

impl Netlist {
    /// The top-level module.
    pub fn top_module(&self) -> &Module {
        &self.modules[self.top]
    }

    /// Whether a clock-gating plan is attached.
    pub fn is_gated(&self) -> bool {
        self.gating.is_some()
    }

    /// Looks up a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

fn scalar(name: &str, width: u32) -> Net {
    Net {
        name: name.to_string(),
        width,
        signed: false,
        array: None,
        is_reg: false,
        port: None,
    }
}

fn port(name: &str, dir: Dir, width: u32, signed: bool) -> Net {
    Net {
        name: name.to_string(),
        width,
        signed,
        array: None,
        is_reg: false,
        port: Some(dir),
    }
}

/// Builds the behavioral SRAM primitive modules (single- and dual-port).
fn sram_primitive(rw_ports: u32) -> Module {
    let (name, mut nets) = if rw_ports >= 2 {
        (
            "imagen_sram_2p",
            vec![
                port("clk", Dir::Input, 1, false),
                port("en_a", Dir::Input, 1, false),
                port("we_a", Dir::Input, 1, false),
                port("addr_a", Dir::Input, 9, false),
                port("wdata_a", Dir::Input, 16, false),
                port("rdata_a", Dir::Output, 16, false),
                port("en_b", Dir::Input, 1, false),
                port("addr_b", Dir::Input, 9, false),
                port("rdata_b", Dir::Output, 16, false),
            ],
        )
    } else {
        (
            "imagen_sram_1p",
            vec![
                port("clk", Dir::Input, 1, false),
                port("en", Dir::Input, 1, false),
                port("we", Dir::Input, 1, false),
                port("addr", Dir::Input, 9, false),
                port("wdata", Dir::Input, 16, false),
                port("rdata", Dir::Output, 16, false),
            ],
        )
    };
    for n in nets.iter_mut() {
        if matches!(n.port, Some(Dir::Output)) {
            n.is_reg = true;
        }
    }
    let mem = Net {
        name: "mem".to_string(),
        width: 16,
        signed: false,
        array: Some(512),
        is_reg: true,
        port: None,
    };
    nets.push(mem);
    let mut items = vec![Item::Register {
        net: "mem".to_string(),
    }];
    if rw_ports >= 2 {
        items.push(Item::Register {
            net: "rdata_a".to_string(),
        });
        items.push(Item::Register {
            net: "rdata_b".to_string(),
        });
    } else {
        items.push(Item::Register {
            net: "rdata".to_string(),
        });
    }
    Module {
        name: name.to_string(),
        kind: ModuleKind::SramPrimitive { rw_ports },
        nets,
        items,
    }
}

/// Builds the compute module of `stage`, one window port per consumed
/// edge, in slot order.
fn stage_module(widths: &BitWidths, stage: &NetStage, consumed: &[NetEdge]) -> Module {
    let p = widths.pixel_bits;
    let mut nets = vec![
        port("clk", Dir::Input, 1, false),
        port("en", Dir::Input, 1, false),
    ];
    for (slot, e) in consumed.iter().enumerate() {
        nets.push(Net {
            name: format!("win{slot}"),
            width: p,
            signed: true,
            array: Some(sra_cells(&e.window)),
            is_reg: false,
            port: Some(Dir::Input),
        });
    }
    nets.push(Net {
        name: "pixel_out".to_string(),
        width: p,
        signed: true,
        array: None,
        is_reg: true,
        port: Some(Dir::Output),
    });
    nets.push(Net {
        name: "result".to_string(),
        width: widths.acc_bits,
        signed: true,
        array: None,
        is_reg: false,
        port: None,
    });
    Module {
        name: format!("stage_{}", stage.sanitized),
        kind: ModuleKind::Stage(stage.index),
        nets,
        items: vec![
            Item::Assign {
                net: "result".to_string(),
            },
            Item::Register {
                net: "pixel_out".to_string(),
            },
        ],
    }
}

/// The connections of block `b` of a line buffer's SRAM bank on the
/// `rw_ports`-port primitive.
fn bank_template(rw_ports: u32) -> Instance {
    let net = |n: &str| Conn::Net(n.to_string());
    let expr = |e: &str| Conn::Expr(e.to_string());
    let (module, conns) = if rw_ports >= 2 {
        (
            "imagen_sram_2p",
            vec![
                ("clk", net("clk")),
                ("en_a", expr("wen && wblk == b")),
                ("we_a", expr("wen && wblk == b")),
                ("addr_a", net("waddr")),
                ("wdata_a", net("wdata")),
                ("rdata_a", Conn::Open),
                ("en_b", expr("ren && rblk == b")),
                ("addr_b", net("raddr")),
                ("rdata_b", Conn::Block("rdata_blk".to_string())),
            ],
        )
    } else {
        (
            "imagen_sram_1p",
            vec![
                ("clk", net("clk")),
                ("en", expr("(wen && wblk == b) || (ren && rblk == b)")),
                ("we", expr("wen && wblk == b")),
                ("addr", expr("(wen && wblk == b) ? waddr : raddr")),
                ("wdata", net("wdata")),
                ("rdata", Conn::Block("rdata_blk".to_string())),
            ],
        )
    };
    Instance {
        module: module.to_string(),
        name: "u_blk".to_string(),
        conns: conns
            .into_iter()
            .map(|(port, conn)| (port.to_string(), conn))
            .collect(),
    }
}

/// Builds one line-buffer module: the bank-select logic, addressing
/// macros of `aw` address bits, and one bank of SRAM blocks on
/// `template`.
fn linebuf_module(
    widths: &BitWidths,
    sanitized: &str,
    buf: &NetBuffer,
    aw: u32,
    buffer: usize,
    template: &Arc<Instance>,
) -> Module {
    let p = widths.pixel_bits;
    let mut nets = vec![
        port("clk", Dir::Input, 1, false),
        port("wen", Dir::Input, 1, false),
        port("wrow", Dir::Input, 32, false),
        port("wcol", Dir::Input, 32, false),
        port("wdata", Dir::Input, p, true),
        port("ren", Dir::Input, 1, false),
        port("rrow", Dir::Input, 32, false),
        port("rcol", Dir::Input, 32, false),
        port("rdata", Dir::Output, p, true),
    ];
    nets.push(scalar("wphys", 32));
    nets.push(scalar("rphys", 32));
    nets.push(scalar("wblk", 32));
    nets.push(scalar("rblk", 32));
    nets.push(scalar("waddr", aw));
    nets.push(scalar("raddr", aw));
    nets.push(Net {
        name: "rdata_blk".to_string(),
        width: p,
        signed: true,
        array: Some(buf.blocks as u32),
        is_reg: false,
        port: None,
    });
    nets.push(Net {
        name: "rblk_q".to_string(),
        width: 32,
        signed: false,
        array: None,
        is_reg: true,
        port: None,
    });
    let mut items: Vec<Item> = ["wphys", "rphys", "wblk", "rblk", "waddr", "raddr"]
        .iter()
        .map(|n| Item::Assign {
            net: (*n).to_string(),
        })
        .collect();
    items.push(Item::Bank(Bank {
        blocks: buf.blocks as u32,
        template: Arc::clone(template),
    }));
    items.push(Item::Register {
        net: "rblk_q".to_string(),
    });
    items.push(Item::Assign {
        net: "rdata".to_string(),
    });
    Module {
        name: format!("linebuf_{sanitized}"),
        kind: ModuleKind::LineBuffer(buffer),
        nets,
        items,
    }
}

/// Elaborates a scheduled design into a typed netlist: [`describe`]s
/// its structure, then builds the modules, nets and instances on top of
/// it at `widths`.
///
/// The returned netlist is self-contained: it carries the structure,
/// kernels included, so every downstream consumer (emission,
/// interpretation, verification) works from the netlist alone.
pub fn build_netlist(dag: &Dag, design: &Design, widths: &BitWidths) -> Netlist {
    let structure = describe(dag, design);
    let p = widths.pixel_bits;
    let stages = &structure.stages;

    let mut modules = vec![sram_primitive(1), sram_primitive(2)];

    // Stage compute modules, in stage order: one window per producer
    // slot, in slot order.
    for ((_, stage), (s, _, consumed)) in dag.stages().zip(structure.edges_by_consumer()) {
        if s.kernel.is_some() {
            debug_assert!(
                consumed.iter().enumerate().all(|(slot, e)| e.slot == slot)
                    && consumed.len() == stage.producers().len(),
                "one edge per slot, in slot order"
            );
            modules.push(stage_module(widths, s, consumed));
        }
    }

    // Line-buffer modules, in design order, each bank on its
    // primitive's one template.
    let templates = [Arc::new(bank_template(1)), Arc::new(bank_template(2))];
    for (bi, buf) in structure.buffers.iter().enumerate() {
        let template = &templates[usize::from(buf.ports >= 2)];
        modules.push(linebuf_module(
            widths,
            &stages[buf.stage].sanitized,
            buf,
            buf.layout
                .addr_width(buf.width, structure.geometry.pixel_bits),
            bi,
            template,
        ));
    }

    // Top module.
    let mut nets = vec![
        port("clk", Dir::Input, 1, false),
        port("rst", Dir::Input, 1, false),
    ];
    let n_inputs = stages.iter().filter(|s| s.input_stream.is_some()).count();
    let n_outputs = stages.iter().filter(|s| s.is_output).count();
    for i in 0..n_inputs {
        nets.push(port(&format!("stream_in_{i}"), Dir::Input, p, true));
    }
    for i in 0..n_outputs {
        nets.push(port(&format!("stream_out_{i}"), Dir::Output, p, true));
    }
    nets.push(port("frame_done", Dir::Output, 1, false));
    nets.push(Net {
        name: "cycle".to_string(),
        width: 64,
        signed: false,
        array: None,
        is_reg: true,
        port: None,
    });
    let mut items = vec![Item::Register {
        net: "cycle".to_string(),
    }];
    for s in stages {
        let n = &s.sanitized;
        for (name, width) in [
            (format!("en_{n}"), 1),
            (format!("k_{n}"), 64),
            (format!("y_{n}"), 32),
            (format!("x_{n}"), 32),
        ] {
            nets.push(scalar(&name, width));
            items.push(Item::Assign { net: name });
        }
        nets.push(Net {
            name: format!("out_{n}"),
            width: p,
            signed: true,
            array: None,
            is_reg: false,
            port: None,
        });
        if s.input_stream.is_some() {
            items.push(Item::Assign {
                net: format!("out_{n}"),
            });
        }
    }
    for buf in &structure.buffers {
        let pname = &stages[buf.stage].sanitized;
        items.push(Item::Inst(Instance {
            module: format!("linebuf_{pname}"),
            name: format!("u_lb_{pname}"),
            conns: vec![
                ("clk".to_string(), Conn::Net("clk".to_string())),
                ("wen".to_string(), Conn::Net(format!("en_{pname}"))),
                ("wrow".to_string(), Conn::Net(format!("y_{pname}"))),
                ("wcol".to_string(), Conn::Net(format!("x_{pname}"))),
                ("wdata".to_string(), Conn::Net(format!("out_{pname}"))),
                ("ren".to_string(), Conn::Const(1, 1)),
                ("rrow".to_string(), Conn::Net(format!("y_{pname}"))),
                ("rcol".to_string(), Conn::Net(format!("x_{pname}"))),
                ("rdata".to_string(), Conn::Open),
            ],
        }));
    }
    // Shift-register arrays and stage instances.
    for (s, first, consumed) in structure.edges_by_consumer() {
        if s.census.is_none() {
            continue;
        }
        let n = &s.sanitized;
        let mut conns = vec![
            ("clk".to_string(), Conn::Net("clk".to_string())),
            ("en".to_string(), Conn::Net(format!("en_{n}"))),
        ];
        for (eidx, e) in (first..).zip(consumed) {
            let sra = format!("sra_{n}_{}", e.slot);
            nets.push(Net {
                name: sra.clone(),
                width: p,
                signed: true,
                array: Some(sra_cells(&e.window)),
                is_reg: true,
                port: None,
            });
            items.push(Item::WindowLoad {
                sra: sra.clone(),
                edge: eidx,
            });
            conns.push((format!("win{}", e.slot), Conn::Net(sra)));
        }
        conns.push(("pixel_out".to_string(), Conn::Net(format!("out_{n}"))));
        items.push(Item::Inst(Instance {
            module: format!("stage_{n}"),
            name: format!("u_{n}"),
            conns,
        }));
    }
    for k in 0..n_outputs {
        items.push(Item::Assign {
            net: format!("stream_out_{k}"),
        });
    }
    items.push(Item::Assign {
        net: "frame_done".to_string(),
    });
    let top = modules.len();
    modules.push(Module {
        name: format!("imagen_top_{}", sanitize(dag.name())),
        kind: ModuleKind::Top,
        nets,
        items,
    });

    Netlist {
        name: dag.name().to_string(),
        sanitized: sanitize(dag.name()),
        style: design.style,
        geometry: structure.geometry,
        widths: *widths,
        structure,
        modules,
        top,
        gating: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_ir::Expr;
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn plan() -> (Dag, Design) {
        let mut dag = Dag::new("nl");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage(
                "K1",
                &[k0],
                Expr::sum((0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1))),
            )
            .unwrap();
        dag.mark_output(k1);
        let geom = ImageGeometry {
            width: 16,
            height: 12,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 512 }, 2);
        let p = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (p.dag, p.design)
    }

    #[test]
    fn builder_shapes_modules() {
        let (dag, design) = plan();
        let net = build_netlist(&dag, &design, &BitWidths::default());
        // 2 primitives + 1 stage module + 1 linebuf + top.
        assert_eq!(net.modules.len(), 5);
        assert_eq!(net.top, 4);
        assert!(matches!(net.top_module().kind, ModuleKind::Top));
        assert_eq!(net.structure.stages.len(), 2);
        assert_eq!(net.structure.edges.len(), 1);
        assert_eq!(net.structure.buffers.len(), 1);
        assert_eq!(
            net.structure.input_streams(),
            vec![(0, 0, net.structure.stages[0].start_cycle)]
        );
        assert_eq!(net.structure.output_streams().len(), 1);
        // The stage module names its stage, which holds the kernel and
        // the buffer it reads; its one window port is sized from the
        // consumed edge.
        let sm = net.module("stage_K1").unwrap();
        assert!(matches!(sm.kind, ModuleKind::Stage(1)), "{:?}", sm.kind);
        assert!(net.structure.stages[1].kernel.is_some());
        assert_eq!(net.structure.stages[0].buffer, Some(0));
        let window = net.structure.edges[0].window;
        assert_eq!(window.height, 3);
        assert_eq!(sm.net("win0").unwrap().array, Some(sra_cells(&window)));
        assert!(sm.net("win1").is_none());
        // Every window edge in the top module has a load path.
        let loads = net
            .top_module()
            .items
            .iter()
            .filter(|i| matches!(i, Item::WindowLoad { .. }))
            .count();
        assert_eq!(loads, net.structure.edges.len());
    }

    #[test]
    fn linebuf_items_do_not_grow_with_blocks() {
        // A two-buffer chain on ever smaller macros: the buffers take
        // more blocks, their modules keep the same items, and every bank
        // shares its primitive's one template.
        let mut dag = Dag::new("banks");
        let k0 = dag.add_input("K0");
        let taps = || Expr::sum((0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1)));
        let k1 = dag.add_stage("K1", &[k0], taps()).unwrap();
        let k2 = dag.add_stage("K2", &[k1], taps()).unwrap();
        dag.mark_output(k2);
        let geom = ImageGeometry {
            width: 32,
            height: 24,
            pixel_bits: 16,
        };
        let mut shapes = Vec::new();
        for (block_bits, ports) in [(2048, 2), (512, 2), (256, 1), (128, 1)] {
            let spec = MemorySpec::new(MemBackend::Asic { block_bits }, ports);
            let p = plan_design(
                &dag,
                &geom,
                &spec,
                ScheduleOptions::default(),
                DesignStyle::Ours,
            )
            .unwrap();
            let net = build_netlist(&p.dag, &p.design, &BitWidths::default());
            let banks: Vec<(usize, &Bank)> = net
                .modules
                .iter()
                .filter(|m| matches!(m.kind, ModuleKind::LineBuffer(_)))
                .map(|m| {
                    let bank = m.items.iter().find_map(|i| match i {
                        Item::Bank(bank) => Some(bank),
                        _ => None,
                    });
                    (m.items.len(), bank.expect("one bank per line buffer"))
                })
                .collect();
            assert_eq!(banks.len(), 2);
            assert!(Arc::ptr_eq(&banks[0].1.template, &banks[1].1.template));
            for ((items, bank), buf) in banks.iter().zip(&net.structure.buffers) {
                assert_eq!(bank.blocks as usize, buf.blocks);
                shapes.push((*items, buf.blocks));
            }
        }
        assert!(
            shapes.iter().all(|&(items, _)| items == shapes[0].0),
            "{shapes:?}"
        );
        let (fewest, most) = (
            shapes.iter().map(|s| s.1).min(),
            shapes.iter().map(|s| s.1).max(),
        );
        assert!(most > fewest, "{shapes:?}");
    }

    #[test]
    fn widths_are_threaded() {
        let (dag, design) = plan();
        let net = build_netlist(&dag, &design, &BitWidths::wide());
        let sm = net.module("stage_K1").unwrap();
        assert_eq!(sm.net("pixel_out").unwrap().width, 64);
        assert_eq!(sm.net("result").unwrap().width, 64);
        let top = net.top_module();
        assert_eq!(top.net("stream_in_0").unwrap().width, 64);
    }
}
