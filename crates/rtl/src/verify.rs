//! Structural verification of the netlist.
//!
//! No synthesis or Verilog-simulation tool exists in this environment, so
//! the backend is checked at the netlist level — stronger than the
//! textual scan the seed repository used, because the typed structure
//! makes real checks possible:
//!
//! * every instantiated module is defined, and module names are unique;
//! * every instance connection names a real port of the target module,
//!   no port is connected twice, and no *input* port is left open;
//! * connection widths match the port declaration (whole-net and
//!   array-element connections); parameterized SRAM primitives are
//!   checked against their per-instance parameter values — the address
//!   and data widths the owning line buffer instantiates them at —
//!   rather than being exempted;
//! * a bank of SRAM blocks is checked once, on its template, and counted
//!   as `blocks` instances; its block count must equal the length of the
//!   array it drives element by element, so every element has one block;
//! * driver analysis: every net is driven exactly once — by an assign, a
//!   register, a window-load path, an instance or bank output, or (for
//!   input ports) the enclosing module's instantiation — and never more
//!   than once per array element.
//!
//! [`verify_all`] accumulates *every* problem into an [`RtlReport`] (the
//! static analyzer's netlist pass builds on it);
//! [`RtlReport::into_result`] collapses it to the first error.
//!
//! Functional verification is the interpreter's job
//! ([`interpret`](crate::interpret)); this pass guarantees the structure
//! a real elaborator would reject is never emitted.

use crate::netlist::{Conn, Dir, Item, Module, ModuleKind, Net, Netlist, Placement};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Structural problems found in a netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtlError {
    /// Two modules share a name.
    DuplicateModule {
        /// The repeated name.
        name: String,
    },
    /// An instantiated module has no definition.
    UndefinedModule {
        /// The missing module.
        name: String,
        /// Module doing the instantiation.
        within: String,
    },
    /// A net (or port) identifier is declared twice in one module.
    DuplicateSignal {
        /// The repeated signal.
        name: String,
        /// Module containing it.
        within: String,
    },
    /// An instance connects a port the target module does not declare, or
    /// connects it twice.
    UnknownPort {
        /// The instance name.
        instance: String,
        /// The target module.
        module: String,
        /// The offending port.
        port: String,
    },
    /// An instance leaves an input port of the target module unconnected.
    UnconnectedInput {
        /// The instance name.
        instance: String,
        /// The target module.
        module: String,
        /// The open input port.
        port: String,
    },
    /// A connection's net does not match the port's declared shape.
    WidthMismatch {
        /// The instance name.
        instance: String,
        /// The port being connected.
        port: String,
        /// Bits the port declares.
        expected: u32,
        /// Bits the connected net carries.
        found: u32,
    },
    /// A net has no driver.
    UndrivenNet {
        /// The undriven net.
        net: String,
        /// Module containing it.
        within: String,
    },
    /// A net (or one of its array elements) has more than one driver.
    MultipleDrivers {
        /// The multiply-driven net.
        net: String,
        /// Module containing it.
        within: String,
    },
    /// An item or connection references a net the module does not declare.
    UnknownNet {
        /// The missing net.
        net: String,
        /// Module referencing it.
        within: String,
    },
    /// A bank's block count differs from the length of the array its
    /// blocks drive element by element.
    BankMismatch {
        /// The bank's instances.
        bank: String,
        /// The array net.
        net: String,
        /// Blocks in the bank.
        blocks: u32,
        /// Elements of the array (`0` for a scalar).
        elements: u32,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::DuplicateModule { name } => {
                write!(f, "module `{name}` defined more than once")
            }
            RtlError::UndefinedModule { name, within } => {
                write!(
                    f,
                    "module `{name}` instantiated in `{within}` but never defined"
                )
            }
            RtlError::DuplicateSignal { name, within } => {
                write!(f, "signal `{name}` declared twice in module `{within}`")
            }
            RtlError::UnknownPort {
                instance,
                module,
                port,
            } => write!(
                f,
                "instance `{instance}` connects `{port}`, which module `{module}` does not declare (or connects it twice)"
            ),
            RtlError::UnconnectedInput {
                instance,
                module,
                port,
            } => write!(
                f,
                "instance `{instance}` of `{module}` leaves input port `{port}` unconnected"
            ),
            RtlError::WidthMismatch {
                instance,
                port,
                expected,
                found,
            } => write!(
                f,
                "instance `{instance}` port `{port}`: expected {expected} bit(s), connected {found}"
            ),
            RtlError::UndrivenNet { net, within } => {
                write!(f, "net `{net}` in module `{within}` has no driver")
            }
            RtlError::MultipleDrivers { net, within } => {
                write!(f, "net `{net}` in module `{within}` has multiple drivers")
            }
            RtlError::UnknownNet { net, within } => {
                write!(f, "module `{within}` references undeclared net `{net}`")
            }
            RtlError::BankMismatch {
                bank,
                net,
                blocks,
                elements,
            } => write!(
                f,
                "bank `{bank}` has {blocks} block(s) but drives `{net}`, which has {elements} element(s)"
            ),
        }
    }
}

impl std::error::Error for RtlError {}

/// Summary of a verified netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RtlSummary {
    /// Modules defined.
    pub modules: usize,
    /// Module instantiations.
    pub instances: usize,
    /// SRAM primitive instances.
    pub sram_instances: usize,
    /// Nets declared across all modules (ports included).
    pub nets: usize,
    /// Register (flip-flop) driver sites across all modules.
    pub registers: usize,
}

/// Everything the accumulating structural pass found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RtlReport {
    /// Inventory of the netlist, counted even when errors are present.
    pub summary: RtlSummary,
    /// Every structural error, in traversal order (modules in netlist
    /// order, items in elaboration order, then driver analysis per net).
    pub errors: Vec<RtlError>,
}

impl RtlReport {
    /// True when no structural error was found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Collapses the report into the historical first-error form.
    ///
    /// # Errors
    ///
    /// The first [`RtlError`] found, if any.
    pub fn into_result(self) -> Result<RtlSummary, RtlError> {
        match self.errors.into_iter().next() {
            None => Ok(self.summary),
            Some(e) => Err(e),
        }
    }
}

/// Driver bookkeeping key: whole net, or one element of an array net.
type DriveKey = (String, Option<u32>);

/// Records `times` drivers of `net` (or of one of its elements).
fn record_drive(
    errors: &mut Vec<RtlError>,
    drives: &mut HashMap<DriveKey, u32>,
    module: &Module,
    net: &str,
    index: Option<u32>,
    times: u32,
) {
    if module.net(net).is_none() {
        errors.push(RtlError::UnknownNet {
            net: net.to_string(),
            within: module.name.clone(),
        });
        return;
    }
    *drives.entry((net.to_string(), index)).or_insert(0) += times;
}

/// Per-instance parameter values of an SRAM primitive instantiation: the
/// widths the `DEPTH`/`WIDTH`/`AW` parameters resolve to inside the
/// owning line buffer.
#[derive(Clone, Copy)]
struct SramParams {
    aw: u32,
    data_bits: u32,
}

impl SramParams {
    /// Resolved bit width of one primitive port under these parameters.
    fn port_bits(&self, port: &Net) -> u32 {
        if port.name.starts_with("addr") {
            self.aw
        } else if port.name.contains("data") {
            self.data_bits
        } else {
            port.width
        }
    }
}

/// Verifies the structure of a netlist, accumulating every problem.
pub fn verify_all(net: &Netlist) -> RtlReport {
    let st = &net.structure;
    let mut errors = Vec::new();

    // Unique module names; the first definition wins for lookups.
    let mut by_name: HashMap<&str, &Module> = HashMap::new();
    for m in &net.modules {
        if by_name.contains_key(m.name.as_str()) {
            errors.push(RtlError::DuplicateModule {
                name: m.name.clone(),
            });
        } else {
            by_name.insert(m.name.as_str(), m);
        }
    }

    let mut instances = 0usize;
    let mut sram_instances = 0usize;
    let mut nets = 0usize;
    let mut registers = 0usize;

    for m in &net.modules {
        // Unique net names.
        let mut seen: HashSet<&str> = HashSet::new();
        for n in &m.nets {
            nets += 1;
            if !seen.insert(n.name.as_str()) {
                errors.push(RtlError::DuplicateSignal {
                    name: n.name.clone(),
                    within: m.name.clone(),
                });
            }
        }

        // SRAM parameter values inside a line buffer: macros are
        // instantiated at the buffer's address width and the pixel
        // datapath width.
        let sram_params = match &m.kind {
            ModuleKind::LineBuffer(b) => st.buffers.get(*b).map(|b| SramParams {
                aw: b.layout.addr_width(b.width, st.geometry.pixel_bits),
                data_bits: net.widths.pixel_bits,
            }),
            _ => None,
        };

        // Driver analysis: input ports are driven by the environment.
        let mut drives: HashMap<DriveKey, u32> = HashMap::new();
        for n in &m.nets {
            if matches!(n.port, Some(Dir::Input)) {
                drives.insert((n.name.clone(), None), 1);
            }
        }

        for item in &m.items {
            match item {
                Item::Assign { net } => record_drive(&mut errors, &mut drives, m, net, None, 1),
                Item::Register { net } => {
                    registers += 1;
                    record_drive(&mut errors, &mut drives, m, net, None, 1);
                }
                Item::WindowLoad { sra, edge } => {
                    registers += 1;
                    debug_assert!(*edge < st.edges.len(), "window load names a real edge");
                    record_drive(&mut errors, &mut drives, m, sra, None, 1);
                }
                Item::Inst(_) | Item::Bank(_) => {
                    let placed = item.placement().expect("an instance or a bank");
                    instances += placed.copies as usize;
                    let Some(target) = by_name.get(placed.inst.module.as_str()) else {
                        errors.push(RtlError::UndefinedModule {
                            name: placed.inst.module.clone(),
                            within: m.name.clone(),
                        });
                        continue;
                    };
                    if matches!(target.kind, ModuleKind::SramPrimitive { .. }) {
                        sram_instances += placed.copies as usize;
                    }
                    verify_instance(m, &placed, target, sram_params, &mut drives, &mut errors);
                }
            }
        }

        // Every non-input net must be driven exactly once (array nets:
        // exactly once per element, with no whole-array/element overlap).
        for n in &m.nets {
            if matches!(n.port, Some(Dir::Input)) {
                continue;
            }
            let whole = drives.get(&(n.name.clone(), None)).copied().unwrap_or(0);
            let elems: Vec<u32> = (0..n.array.unwrap_or(0))
                .map(|i| drives.get(&(n.name.clone(), Some(i))).copied().unwrap_or(0))
                .collect();
            let elem_total: u32 = elems.iter().sum();
            if whole == 0 && elem_total == 0 {
                errors.push(RtlError::UndrivenNet {
                    net: n.name.clone(),
                    within: m.name.clone(),
                });
                continue;
            }
            let conflict =
                whole > 1 || (whole >= 1 && elem_total > 0) || elems.iter().any(|&c| c > 1);
            if conflict {
                errors.push(RtlError::MultipleDrivers {
                    net: n.name.clone(),
                    within: m.name.clone(),
                });
            }
        }
    }

    RtlReport {
        summary: RtlSummary {
            modules: net.modules.len(),
            instances,
            sram_instances,
            nets,
            registers,
        },
        errors,
    }
}

/// Checks one instance, or once a bank's template, whose output
/// connections each drive their net `copies` times, except that a
/// [`Conn::Block`] drives its array once element by element.
fn verify_instance(
    m: &Module,
    placed: &Placement<'_>,
    target: &Module,
    sram_params: Option<SramParams>,
    drives: &mut HashMap<DriveKey, u32>,
    errors: &mut Vec<RtlError>,
) {
    // SRAM primitives are parameterized (DEPTH/WIDTH/AW set per
    // instance): their port widths are checked against the enclosing
    // line buffer's parameter values. Outside a line buffer (no known
    // parameter binding) the check degrades to shape only.
    let parameterized = matches!(target.kind, ModuleKind::SramPrimitive { .. });
    // `None` means "skip the bit-count check" for this instance.
    let expected_bits = |port: &Net| -> Option<u32> {
        if !parameterized {
            Some(port.width)
        } else {
            sram_params.map(|p| p.port_bits(port))
        }
    };

    let mut connected: HashSet<&str> = HashSet::new();
    for (port_name, conn) in &placed.inst.conns {
        let Some(port) = target.net(port_name).filter(|n| n.port.is_some()) else {
            errors.push(RtlError::UnknownPort {
                instance: placed.label(),
                module: target.name.clone(),
                port: port_name.clone(),
            });
            continue;
        };
        if !connected.insert(port_name.as_str()) {
            errors.push(RtlError::UnknownPort {
                instance: placed.label(),
                module: target.name.clone(),
                port: port_name.clone(),
            });
            continue;
        }
        let dir = port.port.expect("filtered to ports");
        match conn {
            Conn::Open => {
                if dir == Dir::Input {
                    errors.push(RtlError::UnconnectedInput {
                        instance: placed.label(),
                        module: target.name.clone(),
                        port: port_name.clone(),
                    });
                }
            }
            Conn::Net(local) => {
                let Some(n) = m.net(local) else {
                    errors.push(RtlError::UnknownNet {
                        net: local.clone(),
                        within: m.name.clone(),
                    });
                    continue;
                };
                if let Some(want) = expected_bits(port) {
                    if n.width != want || n.array != port.array {
                        errors.push(RtlError::WidthMismatch {
                            instance: placed.label(),
                            port: port_name.clone(),
                            expected: want * port.array.unwrap_or(1),
                            found: n.width * n.array.unwrap_or(1),
                        });
                    }
                }
                if dir == Dir::Output {
                    record_drive(errors, drives, m, local, None, placed.copies);
                }
            }
            Conn::NetIndex(local, idx) => {
                let Some(n) = m.net(local) else {
                    errors.push(RtlError::UnknownNet {
                        net: local.clone(),
                        within: m.name.clone(),
                    });
                    continue;
                };
                // An element connection requires an array net and a
                // scalar port.
                let in_range = n.array.is_some_and(|len| *idx < len);
                if !in_range || port.array.is_some() {
                    errors.push(RtlError::WidthMismatch {
                        instance: placed.label(),
                        port: port_name.clone(),
                        expected: port.width,
                        found: if in_range { n.width } else { 0 },
                    });
                } else if let Some(want) = expected_bits(port) {
                    if n.width != want {
                        errors.push(RtlError::WidthMismatch {
                            instance: placed.label(),
                            port: port_name.clone(),
                            expected: want,
                            found: n.width,
                        });
                    }
                }
                if dir == Dir::Output {
                    record_drive(errors, drives, m, local, Some(*idx), placed.copies);
                }
            }
            Conn::Block(local) => {
                let Some(n) = m.net(local) else {
                    errors.push(RtlError::UnknownNet {
                        net: local.clone(),
                        within: m.name.clone(),
                    });
                    continue;
                };
                // Block `b` connects element `b`: the blocks must cover
                // the array exactly, one block per element.
                if n.array != Some(placed.copies) {
                    errors.push(RtlError::BankMismatch {
                        bank: placed.label(),
                        net: local.clone(),
                        blocks: placed.copies,
                        elements: n.array.unwrap_or(0),
                    });
                    continue;
                }
                let want = expected_bits(port);
                if port.array.is_some() || want.is_some_and(|w| w != n.width) {
                    errors.push(RtlError::WidthMismatch {
                        instance: placed.label(),
                        port: port_name.clone(),
                        expected: want.unwrap_or(port.width) * port.array.unwrap_or(1),
                        found: n.width,
                    });
                }
                if dir == Dir::Output {
                    // Every element once: the whole array once.
                    record_drive(errors, drives, m, local, None, 1);
                }
            }
            Conn::Const(_, width) => {
                if let Some(want) = expected_bits(port) {
                    if *width != want {
                        errors.push(RtlError::WidthMismatch {
                            instance: placed.label(),
                            port: port_name.clone(),
                            expected: want,
                            found: *width,
                        });
                    }
                }
            }
            // Anonymous glue expressions are sized by context; nothing to
            // check beyond the port existing (drivers: expressions never
            // connect to outputs in generated netlists).
            Conn::Expr(_) => {}
        }
    }

    // Every input port of the target must be connected.
    for p in target.ports() {
        if matches!(p.port, Some(Dir::Input)) && !connected.contains(p.name.as_str()) {
            errors.push(RtlError::UnconnectedInput {
                instance: placed.label(),
                module: target.name.clone(),
                port: p.name.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{build_netlist, BitWidths, Conn, Instance, Item};
    use imagen_ir::{Dag, Expr};
    use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn netlist() -> Netlist {
        let mut dag = Dag::new("v");
        let k0 = dag.add_input("K0");
        let k1 = dag
            .add_stage("K1", &[k0], Expr::sum((0..3).map(|i| Expr::tap(0, 0, i))))
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
        build_netlist(&p.dag, &p.design, &BitWidths::default())
    }

    #[test]
    fn accepts_generated_netlists() {
        let net = netlist();
        let s = verify_all(&net).into_result().unwrap();
        assert_eq!(s.modules, net.modules.len());
        assert!(s.instances > 0);
        assert!(s.sram_instances > 0);
        assert!(s.nets > 10);
        assert!(s.registers > 0);
    }

    #[test]
    fn rejects_duplicate_modules() {
        let mut net = netlist();
        let dup = net.modules[2].clone();
        net.modules.push(dup);
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::DuplicateModule { .. })
        ));
    }

    #[test]
    fn rejects_undefined_instances() {
        let mut net = netlist();
        let top = net.top;
        net.modules[top].items.push(Item::Inst(Instance {
            module: "stage_ghost".to_string(),
            name: "u_ghost".to_string(),
            conns: vec![],
        }));
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::UndefinedModule { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_signals() {
        let mut net = netlist();
        let top = net.top;
        let dup = net.modules[top].nets[5].clone();
        net.modules[top].nets.push(dup);
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::DuplicateSignal { .. })
        ));
    }

    #[test]
    fn rejects_unknown_ports() {
        let mut net = netlist();
        let top = net.top;
        for item in net.modules[top].items.iter_mut() {
            if let Item::Inst(inst) = item {
                if inst.module.starts_with("stage_") {
                    inst.conns
                        .push(("bogus".to_string(), Conn::Net("cycle".to_string())));
                    break;
                }
            }
        }
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::UnknownPort { .. })
        ));
    }

    #[test]
    fn rejects_open_inputs() {
        let mut net = netlist();
        let top = net.top;
        for item in net.modules[top].items.iter_mut() {
            if let Item::Inst(inst) = item {
                if inst.module.starts_with("stage_") {
                    inst.conns.retain(|(p, _)| p != "en");
                    break;
                }
            }
        }
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::UnconnectedInput { .. })
        ));
    }

    #[test]
    fn rejects_width_mismatches() {
        let mut net = netlist();
        let top = net.top;
        for item in net.modules[top].items.iter_mut() {
            if let Item::Inst(inst) = item {
                if inst.module.starts_with("stage_") {
                    for (p, c) in inst.conns.iter_mut() {
                        if p == "en" {
                            // 64-bit counter into a 1-bit enable.
                            *c = Conn::Net("cycle".to_string());
                        }
                    }
                    break;
                }
            }
        }
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn rejects_undriven_nets() {
        let mut net = netlist();
        let top = net.top;
        // Drop the frame_done assign: the output port loses its driver.
        net.modules[top]
            .items
            .retain(|i| !matches!(i, Item::Assign { net } if net == "frame_done"));
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn rejects_multiple_drivers() {
        let mut net = netlist();
        let top = net.top;
        net.modules[top].items.push(Item::Assign {
            net: "frame_done".to_string(),
        });
        assert!(matches!(
            verify_all(&net).into_result(),
            Err(RtlError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn verify_all_accumulates_independent_errors() {
        let mut net = netlist();
        let top = net.top;
        // Two unrelated breakages: an undriven output port and a bogus
        // port connection on a stage instance.
        net.modules[top]
            .items
            .retain(|i| !matches!(i, Item::Assign { net } if net == "frame_done"));
        for item in net.modules[top].items.iter_mut() {
            if let Item::Inst(inst) = item {
                if inst.module.starts_with("stage_") {
                    inst.conns
                        .push(("bogus".to_string(), Conn::Net("cycle".to_string())));
                    break;
                }
            }
        }
        let report = verify_all(&net);
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, RtlError::UnknownPort { .. })));
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, RtlError::UndrivenNet { .. })));
        // The shim surfaces the first of them.
        assert!(verify_all(&net).into_result().is_err());
        // Summary counting still works on broken netlists.
        assert_eq!(report.summary.modules, net.modules.len());
    }

    /// The SRAM bank of the fixture's line buffer.
    fn bank(net: &mut Netlist) -> &mut crate::netlist::Bank {
        net.modules
            .iter_mut()
            .filter(|m| matches!(m.kind, ModuleKind::LineBuffer(_)))
            .flat_map(|m| m.items.iter_mut())
            .find_map(|i| match i {
                Item::Bank(bank) => Some(bank),
                _ => None,
            })
            .expect("generated netlist has a line-buffer bank")
    }

    #[test]
    fn sram_instantiations_width_checked_against_parameters() {
        let mut net = netlist();
        // Rewire the bank template's SRAM address port to a 32-bit row
        // counter: under the old blanket exemption this passed silently,
        // now it must be a width mismatch against the macro's
        // instantiated address width, reported once for the whole bank.
        let bank = bank(&mut net);
        assert!(bank.blocks > 1, "the fixture's bank has several blocks");
        let template = std::sync::Arc::make_mut(&mut bank.template);
        let (_, conn) = template
            .conns
            .iter_mut()
            .find(|(p, _)| p.starts_with("addr"))
            .expect("found an SRAM address port to rewire");
        *conn = Conn::Net("wphys".to_string());
        let report = verify_all(&net);
        match report.errors.as_slice() {
            [RtlError::WidthMismatch {
                port,
                expected,
                found,
                ..
            }] => {
                assert!(port.starts_with("addr"));
                assert_eq!(*found, 32, "wphys is a 32-bit counter");
                assert!(*expected < 32, "address width comes from the macro depth");
            }
            other => panic!("expected one width mismatch, got {other:?}"),
        }
    }

    #[test]
    fn bank_block_count_must_match_its_read_data_array() {
        // Block `b` drives `rdata_blk[b]`: a bank with a block too few
        // leaves an element undriven, one too many drives past the end.
        for extra in [-1i64, 1] {
            let mut net = netlist();
            let bank = bank(&mut net);
            let elements = bank.blocks;
            bank.blocks = (i64::from(bank.blocks) + extra) as u32;
            let blocks = bank.blocks;
            let report = verify_all(&net);
            // A refused bank drives nothing, so the array reads undriven
            // too.
            assert_eq!(
                report.errors,
                vec![
                    RtlError::BankMismatch {
                        bank: format!("u_blk0..u_blk{}", blocks - 1),
                        net: "rdata_blk".to_string(),
                        blocks,
                        elements,
                    },
                    RtlError::UndrivenNet {
                        net: "rdata_blk".to_string(),
                        within: "linebuf_K0".to_string(),
                    },
                ],
                "{extra:+} block(s)"
            );
            // The summary still counts the bank's blocks as instances.
            assert_eq!(report.summary.sram_instances, blocks as usize);
        }
    }

    #[test]
    fn generated_sram_connections_satisfy_parameter_widths() {
        // The fix must not reject what the builder actually emits: every
        // SRAM connection in a generated netlist matches the macro's
        // parameter widths.
        let net = netlist();
        let report = verify_all(&net);
        assert!(report.is_clean(), "{:?}", report.errors);
        assert!(report.summary.sram_instances > 0);
    }
}
