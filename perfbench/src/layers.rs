//! Per-layer attribution of traced ops. A layer's self time is its
//! span's duration minus the part its direct child spans cover.

use imagen_obs::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The layer a span belongs to. `bench.*` spans are the harness's own,
/// opened around each public call; the rest come from the program.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "bench.op" => "unattributed",
        "bench.front_lints" => "analysis.admission",
        "bench.dsl_compile" | "frontend.parse" | "frontend.lower" => "dsl.compile",
        "bench.session_new" | "bench.session_compile" => "core.self",
        "plan.skeleton" => "schedule.skeleton",
        "plan.coalesce" | "plan.formulate" => "schedule.formulate",
        "ilp.solve" => "ilp.solve",
        "plan.realize" => "schedule.realize",
        "netlist.build" => "rtl.netlist_build",
        "emit" => "rtl.emit",
        "bench.certify" => "analysis.certify",
        "bench.explore" | "dse.explore" => "dse.self",
        "program.build" => "rtl.program_build",
        _ => "other",
    }
}

/// Self time and span count per layer, summed over ops.
#[derive(Default)]
pub struct Layers {
    self_ns: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, u64>,
    pub ops: u64,
    /// Summed duration of the ops' outermost spans.
    pub op_ns: u64,
}

impl Layers {
    /// Adds one op's spans (single thread, outermost span first), their
    /// wall durations multiplied by `scale`.
    pub fn add_op(&mut self, spans: &[SpanRecord], scale: f64) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            while stack
                .last()
                .is_some_and(|&top| spans[top].tid != s.tid || spans[top].depth >= s.depth)
            {
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += s.dur_ns;
            }
            stack.push(i);
        }
        let scaled = |ns: u64| (ns as f64 * scale) as u64;
        for (s, child) in spans.iter().zip(child_ns) {
            let layer = layer_of(s.name);
            *self.self_ns.entry(layer).or_default() += scaled(s.dur_ns.saturating_sub(child));
            *self.spans.entry(layer).or_default() += 1;
            if s.depth == 0 {
                self.op_ns += scaled(s.dur_ns);
            }
        }
        self.ops += 1;
    }

    /// Mean self time of `layer` per op, ms.
    pub fn ms_per_op(&self, layer: &str) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / self.ops as f64
    }

    /// Share of the ops' wall time no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.self_ns.get("unattributed").copied().unwrap_or(0) as f64 / self.op_ns as f64
    }

    /// The per-layer table: self ms per op, spans per op, share of op
    /// time; the unattributed row last.
    pub fn table(&self) -> String {
        let mut rows: Vec<(&str, u64)> = self
            .self_ns
            .iter()
            .filter(|(k, _)| **k != "unattributed")
            .map(|(k, v)| (*k, *v))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows.push((
            "unattributed",
            self.self_ns.get("unattributed").copied().unwrap_or(0),
        ));
        let ops = self.ops.max(1) as f64;
        let mut out = format!(
            "{:<22} {:>12} {:>9} {:>7}\n",
            "layer", "self ms/op", "spans/op", "share"
        );
        for (layer, ns) in rows {
            let _ = writeln!(
                out,
                "{:<22} {:>12.4} {:>9.2} {:>6.1}%",
                layer,
                ns as f64 / 1e6 / ops,
                self.spans.get(layer).copied().unwrap_or(0) as f64 / ops,
                100.0 * ns as f64 / self.op_ns.max(1) as f64,
            );
        }
        out
    }
}

/// Per-input-class rows: ops, ms per op, and the self ms per op of each
/// named layer.
pub fn class_rows(classes: &BTreeMap<String, Layers>, columns: &[&str]) -> String {
    let mut out = format!("{:<20} {:>5} {:>10}", "class", "ops", "ms/op");
    for c in columns {
        let _ = write!(out, " {:>13}", c.rsplit('.').next().unwrap_or(c));
    }
    out.push('\n');
    for (class, l) in classes {
        let _ = write!(
            out,
            "{:<20} {:>5} {:>10.3}",
            class,
            l.ops,
            l.op_ns as f64 / 1e6 / l.ops.max(1) as f64
        );
        for c in columns {
            let _ = write!(out, " {:>13.4}", l.ms_per_op(c));
        }
        out.push('\n');
    }
    out
}

/// Tracing overhead: traced wall time minus untraced wall time of the
/// same op list, as a percentage of the untraced time.
pub fn overhead_line(untraced_s: f64, traced_s: f64) -> String {
    format!(
        "tracing overhead: traced {traced_s:.3} s vs untraced {untraced_s:.3} s ({:+.2}%)",
        overhead_pct(untraced_s, traced_s)
    )
}

pub fn overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    100.0 * (traced_s - untraced_s) / untraced_s.max(1e-9)
}
