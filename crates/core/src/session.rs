//! Compile sessions: one DAG and geometry, many memory configurations.
//! The session is the compiler's one plan → netlist → Verilog path; a
//! one-shot [`Compiler`](crate::Compiler) compiles on a session of its
//! own.
//!
//! Design-space exploration (paper Sec. 8.5) compiles the *same* DAG
//! under hundreds of memory configurations, where three things are
//! shared across points:
//!
//! * the DAG analysis and the spec-independent constraint skeleton
//!   (data dependencies, sync equalities, longest-path bounds) — built
//!   once per [`Session`] — and each line buffer's formulation piece (its
//!   access entities and contention constraints), which the skeleton
//!   memoizes per port count, coalescing factor and pruning flag;
//! * each line buffer's port checks — a [`PortCheckMemo`] the session
//!   owns for its lifetime runs them once per distinct buffer (frame,
//!   ports, layout inputs and access streams, starts taken relative to
//!   the earliest), whichever point or request first needs them;
//! * the plan of any point [`Session::price`] planned, or its planning
//!   error — returned from the session's [`CompileCache`], keyed by
//!   (resolved per-stage memory config, schedule options, style).
//!   Netlists and Verilog text are built on every call and never
//!   memoized.
//!
//! Sessions are `Sync`: design points can be fanned out over
//! `std::thread::scope` workers sharing one session, and the cache and
//! the memos are shared across threads. All are [`imagen_obs::Memo`]s:
//! planning, formulation and checks run outside their locks, so workers
//! never serialize on the solver, and workers that race on one key wait
//! for its first computation instead of repeating it.

use crate::{CompileError, CompileOutput};
use imagen_ir::Dag;
use imagen_mem::{DesignStyle, ImageGeometry, MemBackend, MemorySpec};
use imagen_obs::Memo;
use imagen_schedule::{
    formulate_skeleton, plan_design_with, ConstraintSkeleton, Plan, PortCheckMemo, ScheduleOptions,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cache key identifying one fully-resolved compile point of the
/// session's DAG and geometry.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct PointKey {
    backend: MemBackend,
    /// Resolved `(ports, coalesce factor)` per stage — two specs that
    /// resolve identically compile identically.
    stages: Vec<(u32, u32)>,
    pruning: bool,
    style: DesignStyle,
}

/// Memo of a [`Session`]'s priced plans, planning failures included,
/// shared by every thread that plans on the session: an
/// [`imagen_obs::Memo`], so each point is planned once at any worker
/// count.
#[derive(Default)]
pub struct CompileCache {
    plans: Memo<PointKey, Result<Arc<Plan>, CompileError>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl CompileCache {
    /// Number of memoized design points, failed ones included.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// `(hits, misses)` counters since construction: lookups the memo
    /// answered, a lookup that waited for a racing plan included, and
    /// plans computed.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

// Compile-time thread-safety audit: DSE fans points out over scoped
// threads sharing one `&Session` and so its cache, which requires
// `Session`/`CompileCache` to stay `Send + Sync`. Adding a non-`Sync`
// field (an `Rc`, a `RefCell`, a raw pointer) fails right here instead
// of at a distant spawn site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session<'static>>();
    assert_send_sync::<CompileCache>();
};

/// A compile session: one DAG, one geometry, many memory configurations.
///
/// # Examples
///
/// ```
/// use imagen_core::Session;
/// use imagen_ir::{Dag, Expr};
/// use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
///
/// let mut dag = Dag::new("chain");
/// let k0 = dag.add_input("K0");
/// let k1 = dag.add_stage("K1", &[k0], Expr::sum(
///     (0..3).map(|dy| Expr::tap(0, 0, dy)),
/// )).unwrap();
/// dag.mark_output(k1);
///
/// let geom = ImageGeometry { width: 64, height: 48, pixel_bits: 16 };
/// let session = Session::new(&dag, geom);
/// let spec = MemorySpec::new(MemBackend::Asic { block_bits: 4096 }, 2);
/// let cold = session.price(&spec, None)?;
/// let warm = session.price(&spec, None)?;   // cache hit
/// assert_eq!(cold.design, warm.design);
/// assert_eq!(session.cache().stats(), (1, 1));
/// # Ok::<(), imagen_core::CompileError>(())
/// ```
pub struct Session<'d> {
    dag: &'d Dag,
    geom: ImageGeometry,
    skeleton: ConstraintSkeleton,
    opts: ScheduleOptions,
    cache: CompileCache,
    port_checks: PortCheckMemo,
}

impl<'d> Session<'d> {
    /// Creates a session for `dag` at `geom` with its own fresh cache.
    /// The session borrows `dag`; each plan owns the working DAG it
    /// planned.
    pub fn new(dag: &'d Dag, geom: ImageGeometry) -> Session<'d> {
        let skeleton = {
            let _s = imagen_obs::span("plan.skeleton");
            formulate_skeleton(dag, geom.width)
        };
        Session {
            dag,
            skeleton,
            geom,
            opts: ScheduleOptions::default(),
            cache: CompileCache::default(),
            port_checks: PortCheckMemo::new(),
        }
    }

    /// Overrides the scheduling options used by this session.
    pub fn with_options(mut self, opts: ScheduleOptions) -> Session<'d> {
        self.opts = opts;
        self
    }

    /// The session's cache of priced plans.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// Distinct line-buffer port checks this session has run: the entry
    /// count of its [`PortCheckMemo`]. It depends only on the plans the
    /// session computed, not on their order or the worker count.
    pub fn port_checks(&self) -> usize {
        self.port_checks.len()
    }

    /// Distinct per-buffer formulation pieces this session has built: the
    /// entry count of its skeleton's piece memo (a buffer's contention
    /// constraints under one port count, coalescing factor and pruning
    /// flag). Like [`Session::port_checks`] it counts keys.
    pub fn formulation_pieces(&self) -> usize {
        self.skeleton.piece_count()
    }

    /// How many of those checks needed the row scanner, because the
    /// port-check arithmetic could not decide them alone (multirate or
    /// split-row buffers, a final error, an uncertain reject). Like
    /// [`Session::port_checks`] it counts distinct checks.
    pub fn port_scans(&self) -> usize {
        self.port_checks.scans()
    }

    /// The style a spec is labeled with when none is forced: `Ours+LC`
    /// iff any stage's buffer actually coalesces.
    fn infer_style(&self, spec: &MemorySpec) -> DesignStyle {
        if spec.ever_coalesces(&self.geom) {
            DesignStyle::OursLc
        } else {
            DesignStyle::Ours
        }
    }

    fn key_for(&self, spec: &MemorySpec, style: DesignStyle) -> PointKey {
        PointKey {
            backend: spec.backend(),
            stages: (0..self.dag.num_stages())
                .map(|i| (spec.ports_for(i), spec.coalesce_factor(i, &self.geom)))
                .collect(),
            pruning: self.opts.pruning,
            style,
        }
    }

    /// The plan of one configuration: the memoized one, or a fresh plan,
    /// stored only when `store` is set. Planning runs outside the cache
    /// lock, so parallel workers do not serialize on the solver.
    fn plan(
        &self,
        spec: &MemorySpec,
        style: Option<DesignStyle>,
        store: bool,
    ) -> Result<Arc<Plan>, CompileError> {
        let style = style.unwrap_or_else(|| self.infer_style(spec));
        let key = self.key_for(spec, style);
        let fresh = || {
            let plan = plan_design_with(
                self.dag,
                &self.skeleton,
                &self.geom,
                spec,
                self.opts,
                style,
                &self.port_checks,
            )?;
            Ok(Arc::new(plan))
        };
        let cache = &self.cache;
        let (plan, hit) = if store {
            cache.plans.get_or_compute(&key, fresh)
        } else {
            cache.plans.get_or_compute_transient(&key, fresh)
        };
        if hit { &cache.hits } else { &cache.misses }.fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// Plans and prices one memory configuration — **without** emitting
    /// RTL — and memoizes the plan, or its planning error. This is the
    /// skip-RTL path for design points that only need area/power; a later
    /// [`Session::netlist`] or [`Session::compile`] of the same point
    /// reuses the plan and only adds codegen.
    ///
    /// `style` labels the design; `None` infers it from the spec.
    ///
    /// # Errors
    ///
    /// [`CompileError::Plan`] from the optimizer.
    pub fn price(
        &self,
        spec: &MemorySpec,
        style: Option<DesignStyle>,
    ) -> Result<Arc<Plan>, CompileError> {
        self.plan(spec, style, true)
    }

    /// Like [`Session::price`], but a miss is **not** memoized (hits are
    /// still served). For walks that never revisit a configuration —
    /// exhaustive or random sweeps — where caching every point would
    /// only grow the store: a 2^20-point sweep must not pin a million
    /// plans in memory for the session's lifetime.
    ///
    /// # Errors
    ///
    /// [`CompileError::Plan`] from the optimizer.
    pub fn price_transient(
        &self,
        spec: &MemorySpec,
        style: Option<DesignStyle>,
    ) -> Result<Arc<Plan>, CompileError> {
        self.plan(spec, style, false)
    }

    /// Elaborates the netlist of one memory configuration at default bit
    /// widths — **without** rendering any Verilog text. This is the
    /// measurement path: a caller that priced the point interprets its
    /// netlist for measured energy. A memoized plan is reused; a miss is
    /// planned and not memoized.
    ///
    /// `style` labels the design; `None` infers it from the spec.
    ///
    /// # Errors
    ///
    /// [`CompileError::Plan`] from the optimizer.
    pub fn netlist(
        &self,
        spec: &MemorySpec,
        style: Option<DesignStyle>,
    ) -> Result<Arc<imagen_rtl::Netlist>, CompileError> {
        let plan = self.plan(spec, style, false)?;
        Ok(Arc::new(build_netlist(&plan)))
    }

    /// Compiles one memory configuration end to end (plan, netlist and
    /// Verilog). A memoized plan from a previous [`Session::price`] call
    /// is reused, so only codegen runs; a miss is planned and not
    /// memoized, and its plan moves into the output uncopied.
    ///
    /// `style` labels the design; `None` infers it from the spec.
    ///
    /// # Errors
    ///
    /// [`CompileError::Plan`] from the optimizer.
    pub fn compile(
        &self,
        spec: &MemorySpec,
        style: Option<DesignStyle>,
    ) -> Result<CompileOutput, CompileError> {
        let plan = self.plan(spec, style, false)?;
        let netlist = build_netlist(&plan);
        let verilog = {
            let _s = imagen_obs::span("emit");
            imagen_rtl::emit_verilog(&netlist)
        };
        Ok(CompileOutput {
            plan: Arc::unwrap_or_clone(plan),
            netlist: Arc::new(netlist),
            verilog,
        })
    }
}

/// Elaborates a plan's netlist at default bit widths.
fn build_netlist(plan: &Plan) -> imagen_rtl::Netlist {
    let _s = imagen_obs::span("netlist.build");
    imagen_rtl::build_netlist(&plan.dag, &plan.design, &imagen_rtl::BitWidths::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use imagen_algos::Algorithm;
    use imagen_mem::StageMemConfig;

    fn geom() -> ImageGeometry {
        ImageGeometry {
            width: 48,
            height: 32,
            pixel_bits: 16,
        }
    }

    fn backend() -> MemBackend {
        MemBackend::Asic {
            block_bits: 2 * 48 * 16,
        }
    }

    #[test]
    fn cache_hit_equals_cold_compile() {
        let dag = Algorithm::UnsharpM.build();
        let session = Session::new(&dag, geom());
        let spec = MemorySpec::new(backend(), 2).with_coalescing();

        let cold = session.compile(&spec, None).unwrap();
        session.price(&spec, None).unwrap();
        let warm = session.compile(&spec, None).unwrap();
        assert_eq!(session.cache().stats(), (1, 2), "warm compile hit");
        assert_eq!(cold.plan.schedule, warm.plan.schedule);
        assert_eq!(cold.plan.design, warm.plan.design);
        assert_eq!(cold.verilog, warm.verilog);

        // And both equal the one-shot Compiler.
        let one_shot = Compiler::new(geom(), spec).compile_dag(&dag).unwrap();
        assert_eq!(cold.plan.schedule, one_shot.plan.schedule);
        assert_eq!(cold.plan.design, one_shot.plan.design);
        assert_eq!(cold.verilog, one_shot.verilog);
    }

    #[test]
    fn price_then_compile_reuses_plan() {
        let dag = Algorithm::HarrisS.build();
        let session = Session::new(&dag, geom());
        let spec = MemorySpec::new(backend(), 2);
        let plan = session.price(&spec, None).unwrap();
        let (hits, misses) = session.cache().stats();
        assert_eq!((hits, misses), (0, 1));
        let full = session.compile(&spec, None).unwrap();
        assert_eq!(plan.schedule, full.plan.schedule, "compile reused the plan");
        assert_eq!(plan.design, full.plan.design);
        let (hits, _) = session.cache().stats();
        assert_eq!(hits, 1);
        let report = imagen_rtl::verify_all(&full.netlist);
        assert!(report.is_clean(), "{:?}", report.errors);
    }

    #[test]
    fn netlist_and_compile_reuse_the_priced_plan() {
        let dag = Algorithm::UnsharpM.build();
        let session = Session::new(&dag, geom());
        let spec = MemorySpec::new(backend(), 2);
        let plan = session.price(&spec, None).unwrap();
        let n1 = session.netlist(&spec, None).unwrap();
        let n2 = session.netlist(&spec, None).unwrap();
        let out = session.compile(&spec, None).unwrap();
        assert_eq!(session.cache().stats(), (3, 1), "planned once");
        assert_eq!(plan.schedule, out.plan.schedule);
        // Each call elaborates the same netlist, and the emitted text is
        // printed from it.
        let text = imagen_rtl::emit_verilog(&n1);
        assert_eq!(text, imagen_rtl::emit_verilog(&n2));
        assert_eq!(out.verilog, text);
    }

    /// Plans and netlists hold the session DAG's kernel trees, not
    /// copies, coalesced plans included (coalescing rewrites edge ports
    /// on the plan's own DAG).
    #[test]
    fn plans_and_netlists_share_the_dag_kernels() {
        let dag = Algorithm::CannyM.build();
        let session = Session::new(&dag, geom());
        let plain = MemorySpec::new(backend(), 2);
        for spec in [plain.clone(), plain.with_coalescing()] {
            let priced = session.price(&spec, None).unwrap();
            let out = session.compile(&spec, None).unwrap();
            for (id, stage) in dag.stages() {
                let Some(kernel) = stage.kernel() else {
                    continue;
                };
                let shared = [
                    priced.dag.stage(id).kernel(),
                    out.plan.dag.stage(id).kernel(),
                    out.netlist.structure.stages[id.index()].kernel.as_deref(),
                ];
                for k in shared {
                    assert!(
                        k.is_some_and(|k| std::ptr::eq(k, kernel)),
                        "{:?}: stage `{}` holds a copy",
                        out.plan.design.style,
                        stage.name()
                    );
                }
            }
        }
    }

    #[test]
    fn style_inference_matches_compiler() {
        let dag = Algorithm::UnsharpM.build();
        let session = Session::new(&dag, geom());
        let plain = MemorySpec::new(backend(), 2);
        let lc = plain.clone().with_coalescing();
        assert_eq!(session.infer_style(&plain), DesignStyle::Ours);
        assert_eq!(session.infer_style(&lc), DesignStyle::OursLc);
        assert_eq!(
            session.price(&plain, None).unwrap().design.style,
            DesignStyle::Ours
        );
        assert_eq!(
            session.price(&lc, None).unwrap().design.style,
            DesignStyle::OursLc
        );
    }

    #[test]
    fn distinct_configs_do_not_collide() {
        let dag = Algorithm::CannyS.build();
        let session = Session::new(&dag, geom());
        let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
        let mut spec_a = MemorySpec::new(backend(), 2);
        let mut spec_b = MemorySpec::new(backend(), 2);
        for &s in &buffered {
            spec_a.set_stage(
                s,
                StageMemConfig {
                    ports: 2,
                    coalesce: false,
                },
            );
            spec_b.set_stage(
                s,
                StageMemConfig {
                    ports: 2,
                    coalesce: true,
                },
            );
        }
        let a = session.price(&spec_a, None).unwrap();
        let b = session.price(&spec_b, None).unwrap();
        assert_ne!(a.design.sram_kb(), b.design.sram_kb());
        assert_eq!(session.cache().len(), 2);
    }

    #[test]
    fn parallel_sessions_share_one_cache() {
        let dag = Algorithm::CannyS.build();
        let session = Session::new(&dag, geom());
        let buffered: Vec<usize> = dag.buffered_stages().iter().map(|s| s.index()).collect();
        let specs: Vec<MemorySpec> = (0..8u32)
            .map(|mask| {
                let mut spec = MemorySpec::new(backend(), 2);
                for (bit, &s) in buffered.iter().enumerate() {
                    spec.set_stage(
                        s,
                        StageMemConfig {
                            ports: 2,
                            coalesce: mask & (1 << bit) != 0,
                        },
                    );
                }
                spec
            })
            .collect();
        let sequential: Vec<f64> = specs
            .iter()
            .map(|s| session.price(s, None).unwrap().design.sram_kb())
            .collect();

        let fresh = Session::new(&dag, geom());
        let mut parallel = vec![0.0f64; specs.len()];
        std::thread::scope(|scope| {
            for (slot, spec) in parallel.iter_mut().zip(&specs) {
                let fresh = &fresh;
                scope.spawn(move || {
                    *slot = fresh.price(spec, None).unwrap().design.sram_kb();
                });
            }
        });
        assert_eq!(sequential, parallel);
    }

    /// Workers that price one point at once plan it once: every other
    /// lookup waits for that plan and counts as a hit.
    #[test]
    fn racing_prices_plan_a_point_once() {
        const THREADS: usize = 6;
        let dag = Algorithm::CannyM.build();
        let spec = MemorySpec::new(backend(), 2);
        for _ in 0..10 {
            let session = Session::new(&dag, geom());
            let collector = Arc::new(imagen_obs::Collector::new());
            let barrier = std::sync::Barrier::new(THREADS);
            let plans: Vec<Arc<Plan>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        scope.spawn(|| {
                            imagen_obs::with_collector(&collector, || {
                                barrier.wait();
                                session.price(&spec, None).unwrap()
                            })
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("pricing thread"))
                    .collect()
            });
            let solves: u64 = collector
                .phase_totals()
                .iter()
                .filter(|t| t.name == "ilp.solve")
                .map(|t| t.count)
                .sum();
            assert_eq!(solves, 1, "planned once");
            assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
            assert_eq!(session.cache().stats(), (THREADS - 1, 1));
        }
    }
}
