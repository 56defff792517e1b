//! # imagen-core
//!
//! The [ImaGen] compiler (the full Fig. 5 flow): DSL source or IR DAG in,
//! schedule + line-buffer configuration + synthesizable Verilog out.
//!
//! ```text
//! DSL ──front end──▶ DAG ──(line coalescing)──▶ constraints ──ILP──▶
//!   schedule ──▶ line-buffer config ──▶ RTL
//! ```
//!
//! The heavy lifting lives in the subsystem crates (`imagen-dsl`,
//! `imagen-schedule`, `imagen-mem`, `imagen-rtl`); this crate wires them
//! into one compile path, a [`Session`], each phase under a span of
//! `imagen-obs`. A [`Compiler`] compiles on a one-shot session.
//!
//! [ImaGen]: https://arxiv.org/abs/2304.03352
//!
//! # Examples
//!
//! ```
//! use imagen_core::Compiler;
//! use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
//!
//! let geom = ImageGeometry { width: 64, height: 48, pixel_bits: 16 };
//! let spec = MemorySpec::new(MemBackend::Asic { block_bits: 4096 }, 2);
//! let out = Compiler::new(geom, spec).compile_source("blur", "
//!     input raw;
//!     output blur = im(x,y)
//!         (raw(x-1,y) + 2*raw(x,y) + raw(x+1,y)) >> 2
//!     end
//! ")?;
//! assert!(out.plan.design.sram_kb() > 0.0);
//! assert!(out.verilog.contains("module imagen_top_blur"));
//! # Ok::<(), imagen_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod session;

pub use session::{CompileCache, Session};

use imagen_dsl::DslError;
use imagen_ir::Dag;
use imagen_mem::{DesignStyle, ImageGeometry, MemorySpec};
use imagen_schedule::{Plan, PlanError, ScheduleOptions};
use std::fmt;

/// Compilation failure: front end or optimizer.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// DSL parsing/lowering failed.
    Dsl(DslError),
    /// Scheduling/planning failed.
    Plan(PlanError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Dsl(e) => write!(f, "{e}"),
            CompileError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<DslError> for CompileError {
    fn from(e: DslError) -> Self {
        CompileError::Dsl(e)
    }
}

impl From<PlanError> for CompileError {
    fn from(e: PlanError) -> Self {
        CompileError::Plan(e)
    }
}

/// The result of a compilation.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The plan: working DAG, schedule, priced design.
    pub plan: Plan,
    /// The elaborated netlist the Verilog is printed from (also the
    /// input to `imagen_rtl::interpret` and `imagen_rtl::verify_all`).
    pub netlist: std::sync::Arc<imagen_rtl::Netlist>,
    /// Synthesizable Verilog for the design.
    pub verilog: String,
}

/// The ImaGen compiler: geometry + memory spec + options. Each compile
/// runs on a one-shot [`Session`].
#[derive(Clone, Debug)]
pub struct Compiler {
    geom: ImageGeometry,
    spec: MemorySpec,
    opts: ScheduleOptions,
    /// The design style label; `None` labels the output by whether the
    /// spec ever coalesces.
    style: Option<DesignStyle>,
}

impl Compiler {
    /// Creates a compiler for the given frame geometry and memory spec.
    pub fn new(geom: ImageGeometry, spec: MemorySpec) -> Compiler {
        Compiler {
            geom,
            spec,
            opts: ScheduleOptions::default(),
            style: None,
        }
    }

    /// Overrides the scheduling options (constraint pruning).
    pub fn with_options(mut self, opts: ScheduleOptions) -> Compiler {
        self.opts = opts;
        self
    }

    /// Overrides the design style label.
    pub fn with_style(mut self, style: DesignStyle) -> Compiler {
        self.style = Some(style);
        self
    }

    /// Compiles DSL source text end to end.
    ///
    /// # Errors
    ///
    /// [`CompileError`] from the front end or the optimizer.
    pub fn compile_source(&self, name: &str, src: &str) -> Result<CompileOutput, CompileError> {
        let dag = {
            let _s = imagen_obs::span("frontend");
            imagen_dsl::compile(name, src)?
        };
        self.compile_dag(&dag)
    }

    /// Compiles a prebuilt DAG.
    ///
    /// # Errors
    ///
    /// [`CompileError::Plan`] from the optimizer.
    pub fn compile_dag(&self, dag: &Dag) -> Result<CompileOutput, CompileError> {
        Session::new(dag, self.geom)
            .with_options(self.opts)
            .compile(&self.spec, self.style)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_algos::Algorithm;
    use imagen_mem::MemBackend;

    fn small() -> (ImageGeometry, MemorySpec) {
        let geom = ImageGeometry {
            width: 48,
            height: 32,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(
            MemBackend::Asic {
                block_bits: 2 * geom.row_bits(),
            },
            2,
        );
        (geom, spec)
    }

    #[test]
    fn all_algorithms_compile() {
        let (geom, spec) = small();
        let c = Compiler::new(geom, spec);
        for alg in Algorithm::all() {
            let out = c
                .compile_dag(&alg.build())
                .unwrap_or_else(|e| panic!("{} failed: {e}", alg.name()));
            assert!(out.plan.design.sram_kb() > 0.0, "{}", alg.name());
            let report = imagen_rtl::verify_all(&out.netlist);
            assert!(report.is_clean(), "{} RTL: {:?}", alg.name(), report.errors);
        }
    }

    #[test]
    fn coalescing_spec_changes_style() {
        let (geom, spec) = small();
        let c = Compiler::new(geom, spec.clone().with_coalescing());
        let out = c.compile_dag(&Algorithm::UnsharpM.build()).unwrap();
        assert_eq!(out.plan.design.style, DesignStyle::OursLc);
        let c = Compiler::new(geom, spec);
        let out = c.compile_dag(&Algorithm::UnsharpM.build()).unwrap();
        assert_eq!(out.plan.design.style, DesignStyle::Ours);
    }

    #[test]
    fn dsl_errors_surface() {
        let (geom, spec) = small();
        let c = Compiler::new(geom, spec);
        let err = c.compile_source("bad", "input a; output b = im(x,y) c(x,y) end");
        assert!(matches!(err, Err(CompileError::Dsl(_))));
    }
}
