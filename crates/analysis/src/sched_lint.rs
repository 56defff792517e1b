//! Schedule invariant checker: lints any [`Plan`] — including one whose
//! schedule or design has been edited by hand — against the paper's
//! invariants *without re-running the solver*.
//!
//! The pass re-derives the full (unpruned) constraint system with
//! [`formulate`] and checks the plan's starts against it, re-derives the
//! Equ. 2 buffer sizing, verifies sync groups, and replays the exact
//! port-discipline checker at both absolute-row and physical (rotation
//! aliasing) granularity. Nothing here trusts the plan's own bookkeeping;
//! everything is recomputed from the DAG, the geometry and the memory
//! spec.

use crate::{codes, Diagnostic, Locus, Severity};
use imagen_mem::{ImageGeometry, MemorySpec};
use imagen_schedule::checker::{check_accesses, ResolvedEntity};
use imagen_schedule::{
    formulate, resolve_entities, schedule_satisfies, size_buffers, Plan, ScheduleOptions,
    SpecBufferParams,
};
use std::collections::HashMap;

/// Lints a plan against the schedule invariants.
pub fn lint_plan(plan: &Plan, geom: &ImageGeometry, spec: &MemorySpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let dag = &plan.dag;
    let n = dag.num_stages();

    // E0401 — the plan's vectors must cover every stage; nothing else can
    // be checked against mis-shaped data.
    let mut shape_ok = true;
    for (what, len) in [
        ("schedule starts", plan.schedule.starts.len()),
        ("schedule buffer rows", plan.schedule.buffer_rows.len()),
        ("design start cycles", plan.design.start_cycles.len()),
    ] {
        if len != n {
            shape_ok = false;
            diags.push(Diagnostic::new(
                codes::PLAN_SHAPE,
                Severity::Error,
                format!("plan shape mismatch: {what} has {len} entries for {n} stages"),
            ));
        }
    }
    if !shape_ok {
        return diags;
    }
    let starts = &plan.schedule.starts;

    // E0402 — the starts must satisfy the re-derived dependency and
    // contention constraints (formulated without pruning, so the check is
    // independent of the solver's search-space reductions).
    let set = formulate(
        dag,
        geom.width,
        &SpecBufferParams { spec, geom },
        ScheduleOptions { pruning: false },
    );
    let satisfies = schedule_satisfies(&set, starts);
    if !satisfies {
        diags.push(Diagnostic::new(
            codes::CONSTRAINTS,
            Severity::Error,
            "schedule violates the re-derived dependency/contention constraint system",
        ));
    }

    // E0403 — stages sharing a sync group must start together.
    let mut groups: HashMap<u32, Vec<(usize, i64)>> = HashMap::new();
    for (id, stage) in dag.stages() {
        if let Some(g) = stage.sync_group() {
            groups
                .entry(g)
                .or_default()
                .push((id.index(), starts[id.index()]));
        }
    }
    let mut group_ids: Vec<u32> = groups.keys().copied().collect();
    group_ids.sort_unstable();
    for g in group_ids {
        let members = &groups[&g];
        if members.iter().any(|&(_, s)| s != members[0].1) {
            let names: Vec<String> = members
                .iter()
                .map(|&(i, s)| {
                    format!(
                        "`{}`@{s}",
                        dag.stage(imagen_ir::StageId::from_index(i)).name()
                    )
                })
                .collect();
            diags.push(Diagnostic::new(
                codes::SYNC_GROUP,
                Severity::Error,
                format!(
                    "sync group {g} stages start at different cycles: {}",
                    names.join(", ")
                ),
            ));
        }
    }

    // The Equ. 2 re-derivation and the port replay both assume the
    // dependency constraints hold (consumer gaps >= 1); with E0402 on
    // record they would be meaningless (or panic in debug builds).
    if !satisfies {
        return diags;
    }

    // E0404 / W0405 — buffer rows vs the Equ. 2 re-derivation.
    let (need_rows, _) = size_buffers(dag, geom.width, starts);
    for (i, (&need, &have)) in need_rows.iter().zip(&plan.schedule.buffer_rows).enumerate() {
        if have == need {
            continue;
        }
        let stage = dag.stage(imagen_ir::StageId::from_index(i));
        let (code, sev, adjective) = if have < need {
            (codes::BUFFER_UNDERSIZED, Severity::Error, "fewer")
        } else {
            (codes::BUFFER_OVERSIZED, Severity::Warning, "more")
        };
        diags.push(
            Diagnostic::new(
                code,
                sev,
                format!(
                    "buffer of stage `{}` holds {have} rows, {adjective} than the {need} the schedule requires",
                    stage.name()
                ),
            )
            .at(Locus::Buffer { stage: i }),
        );
    }

    // W0408 — the design's mirrored start cycles must match the schedule.
    for (i, (&d, &s)) in plan.design.start_cycles.iter().zip(starts).enumerate() {
        if d != s as u64 {
            let stage = dag.stage(imagen_ir::StageId::from_index(i));
            diags.push(
                Diagnostic::new(
                    codes::START_DRIFT,
                    Severity::Warning,
                    format!(
                        "design start cycle of stage `{}` ({d}) differs from the schedule ({s})",
                        stage.name()
                    ),
                )
                .at(Locus::Stage(stage.name().to_string())),
            );
        }
    }

    // E0406 / E0407 — replay the exact port-discipline checker per
    // buffer, absolute then physical. Entities are resolved rate-aware:
    // every accessor of a multirate producer's buffer carries its cadence
    // (`row_div`/`col_div`/`row_active`) so the replay samples only the
    // base-clock cycles on which that accessor actually touches SRAM.
    let scales = dag.stage_scales();
    for p in dag.buffered_stages() {
        let stage_name = dag.stage(p).name().to_string();
        let ports = spec.ports_for(p.index());
        let entities: Vec<ResolvedEntity> = resolve_entities(dag, p, &scales, starts);
        if let Err(v) = check_accesses(
            geom.width,
            geom.height,
            geom.pixel_bits,
            &entities,
            ports,
            None,
        ) {
            diags.push(
                Diagnostic::new(
                    codes::PORT_ABSOLUTE,
                    Severity::Error,
                    format!("port discipline violated on buffer of stage `{stage_name}`: {v}"),
                )
                .at(Locus::Buffer { stage: p.index() }),
            );
            // Physical aliasing is a refinement of the absolute check;
            // reporting both for the same buffer is noise.
            continue;
        }
        let Some(b) = plan.design.buffers.iter().find(|b| b.stage == p.index()) else {
            diags.push(
                Diagnostic::new(
                    codes::PLAN_SHAPE,
                    Severity::Error,
                    format!("design is missing the buffer of stage `{stage_name}`"),
                )
                .at(Locus::Buffer { stage: p.index() }),
            );
            continue;
        };
        if let Err(v) = check_accesses(
            geom.width,
            geom.height,
            geom.pixel_bits,
            &entities,
            ports,
            Some(&b.layout),
        ) {
            diags.push(
                Diagnostic::new(
                    codes::PORT_PHYSICAL,
                    Severity::Error,
                    format!(
                        "physical aliasing violates port discipline on buffer of stage `{stage_name}`: {v}"
                    ),
                )
                .at(Locus::Buffer { stage: p.index() }),
            );
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagen_ir::{Dag, Expr};
    use imagen_mem::{DesignStyle, MemBackend};
    use imagen_schedule::{plan_design, ScheduleOptions};

    fn fixture() -> (Plan, ImageGeometry, MemorySpec) {
        let mut dag = Dag::new("s");
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
            width: 32,
            height: 24,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2);
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (plan, geom, spec)
    }

    #[test]
    fn solver_plans_are_clean() {
        let (plan, geom, spec) = fixture();
        let d = lint_plan(&plan, &geom, &spec);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn shape_mismatch_stops_early() {
        let (mut plan, geom, spec) = fixture();
        plan.schedule.buffer_rows.pop();
        let d = lint_plan(&plan, &geom, &spec);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::PLAN_SHAPE);
    }

    #[test]
    fn violated_dependency_is_reported_without_panicking() {
        let (mut plan, geom, spec) = fixture();
        // Consumer starts with its producer: the >= 1-cycle dependency
        // gap is gone. The sizing re-derivation must be skipped (it
        // would assert), leaving the constraint diagnostic.
        plan.schedule.starts[1] = plan.schedule.starts[0];
        let d = lint_plan(&plan, &geom, &spec);
        assert!(d.iter().any(|x| x.code == codes::CONSTRAINTS), "{d:?}");
        assert!(d.iter().all(|x| x.code != codes::BUFFER_UNDERSIZED));
    }

    #[test]
    fn hand_shrunk_buffer_is_undersized() {
        let (mut plan, geom, spec) = fixture();
        let p = plan
            .schedule
            .buffer_rows
            .iter()
            .position(|&r| r > 0)
            .unwrap();
        plan.schedule.buffer_rows[p] -= 1;
        let d = lint_plan(&plan, &geom, &spec);
        assert!(
            d.iter().any(|x| x.code == codes::BUFFER_UNDERSIZED),
            "{d:?}"
        );
    }

    #[test]
    fn hand_grown_buffer_is_oversized_warning() {
        let (mut plan, geom, spec) = fixture();
        let p = plan
            .schedule
            .buffer_rows
            .iter()
            .position(|&r| r > 0)
            .unwrap();
        plan.schedule.buffer_rows[p] += 2;
        let d = lint_plan(&plan, &geom, &spec);
        assert!(d.iter().any(|x| x.code == codes::BUFFER_OVERSIZED), "{d:?}");
        assert!(d.iter().all(|x| x.severity != Severity::Error), "{d:?}");
    }

    #[test]
    fn stale_design_start_cycles_drift() {
        let (mut plan, geom, spec) = fixture();
        plan.design.start_cycles[1] += 7;
        let d = lint_plan(&plan, &geom, &spec);
        assert!(d.iter().any(|x| x.code == codes::START_DRIFT), "{d:?}");
    }

    /// A blur → downsample(2,2) → upsample(2,2) pyramid on a frame both
    /// extents of which the scale divides — the multirate analogue of
    /// [`fixture`].
    fn multirate_fixture() -> (Plan, ImageGeometry, MemorySpec) {
        let mut dag = Dag::new("pyr");
        let raw = dag.add_input("raw");
        let blur = dag
            .add_stage(
                "blur",
                &[raw],
                Expr::sum((0..9).map(|i| Expr::tap(0, i % 3 - 1, i / 3 - 1))),
            )
            .unwrap();
        let coarse = dag
            .add_stage_rated(
                "coarse",
                &[blur],
                Expr::tap(0, 0, 0),
                imagen_ir::Rate::Down { fx: 2, fy: 2 },
            )
            .unwrap();
        let recon = dag
            .add_stage_rated(
                "recon",
                &[coarse],
                Expr::tap(0, 0, 0),
                imagen_ir::Rate::Up { fx: 2, fy: 2 },
            )
            .unwrap();
        dag.mark_output(recon);
        let geom = ImageGeometry {
            width: 32,
            height: 24,
            pixel_bits: 16,
        };
        let spec = MemorySpec::new(MemBackend::Asic { block_bits: 2048 }, 2);
        let plan = plan_design(
            &dag,
            &geom,
            &spec,
            ScheduleOptions::default(),
            DesignStyle::Ours,
        )
        .unwrap();
        (plan, geom, spec)
    }

    #[test]
    fn multirate_solver_plans_are_clean() {
        // The rate-aware re-derivation accepts the solver's own multirate
        // plan: no E04xx (or any other) diagnostics.
        let (plan, geom, spec) = multirate_fixture();
        let d = lint_plan(&plan, &geom, &spec);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn multirate_shrunk_buffer_is_undersized() {
        // Corrupting a buffer's row count in the multirate plan must trip
        // the rate-aware sizing re-derivation, not slip past it.
        let (mut plan, geom, spec) = multirate_fixture();
        let p = plan
            .schedule
            .buffer_rows
            .iter()
            .position(|&r| r > 1)
            .unwrap_or_else(|| {
                plan.schedule
                    .buffer_rows
                    .iter()
                    .position(|&r| r > 0)
                    .unwrap()
            });
        plan.schedule.buffer_rows[p] -= 1;
        let d = lint_plan(&plan, &geom, &spec);
        assert!(
            d.iter().any(|x| x.code == codes::BUFFER_UNDERSIZED),
            "{d:?}"
        );
    }

    #[test]
    fn delayed_consumer_needs_resized_buffer() {
        let (mut plan, geom, spec) = fixture();
        // Push the consumer three full rows later without touching the
        // buffer: dependencies still hold, but Equ. 2 now wants a bigger
        // buffer and the design's mirror is stale.
        plan.schedule.starts[1] += 3 * geom.width as i64;
        let d = lint_plan(&plan, &geom, &spec);
        assert!(
            d.iter().any(|x| x.code == codes::BUFFER_UNDERSIZED),
            "{d:?}"
        );
        assert!(d.iter().any(|x| x.code == codes::START_DRIFT), "{d:?}");
    }
}
