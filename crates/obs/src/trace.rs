//! Hierarchical span tracing with a thread-local collector.
//!
//! Instrumented code calls [`span("name")`](span) and holds the
//! returned guard for the duration of the phase. When no [`Collector`]
//! is installed on the current thread the guard is inert: the call is
//! one thread-local read and a branch — no clock read, no allocation —
//! so always-on instrumentation costs nothing on production paths.
//! [`with_collector`] installs a collector for the dynamic extent of a
//! closure (per-request in `serve`, per-invocation for `--profile`).

use crate::metrics::push_json_str;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

thread_local! {
    static COLLECTOR: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// One completed span, relative to the collector's epoch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Phase name (e.g. `"ilp.solve"`).
    pub name: &'static str,
    /// Start offset from the collector's creation, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
    /// Dense per-collector thread index (0 = first thread seen).
    pub tid: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    threads: Vec<ThreadId>,
}

/// A sink for completed spans. Create one, install it with
/// [`with_collector`], then render with [`Collector::phase_totals`],
/// [`Collector::timeline_text`], or [`Collector::chrome_trace_json`].
pub struct Collector {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// An empty collector; its epoch (timeline zero) is now.
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn push(&self, name: &'static str, start: Instant, dur_ns: u64, depth: u32) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let thread = std::thread::current().id();
        let mut inner = self.inner.lock().unwrap();
        let tid = match inner.threads.iter().position(|t| *t == thread) {
            Some(i) => i as u64,
            None => {
                inner.threads.push(thread);
                (inner.threads.len() - 1) as u64
            }
        };
        inner.spans.push(SpanRecord {
            name,
            start_ns,
            dur_ns,
            depth,
            tid,
        });
    }

    /// All completed spans, ordered by thread then start time (guards
    /// complete child-first; this restores timeline order).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.lock().unwrap().spans.clone();
        spans.sort_by_key(|s| (s.tid, s.start_ns, s.depth));
        spans
    }

    /// Wall time aggregated by span name, in order of first appearance
    /// on the timeline.
    pub fn phase_totals(&self) -> Vec<PhaseTotal> {
        let mut totals: Vec<PhaseTotal> = Vec::new();
        for s in self.spans() {
            match totals.iter_mut().find(|t| t.name == s.name) {
                Some(t) => {
                    t.total_ns += s.dur_ns;
                    t.count += 1;
                }
                None => totals.push(PhaseTotal {
                    name: s.name,
                    total_ns: s.dur_ns,
                    count: 1,
                }),
            }
        }
        totals
    }

    /// An indented text timeline of every span.
    pub fn timeline_text(&self) -> String {
        let spans = self.spans();
        let mut out = String::new();
        let mut last_tid = None;
        for s in &spans {
            if spans.iter().any(|x| x.tid != 0) && last_tid != Some(s.tid) {
                out.push_str(&format!("thread {}\n", s.tid));
                last_tid = Some(s.tid);
            }
            out.push_str(&format!(
                "{:>10.1} us  {}{} ({:.1} us)\n",
                s.start_ns as f64 / 1e3,
                "  ".repeat(s.depth as usize),
                s.name,
                s.dur_ns as f64 / 1e3,
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or
    /// Perfetto): one complete (`"ph":"X"`) event per span,
    /// microsecond timestamps.
    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":",
        );
        push_json_str(&mut out, process_name);
        out.push_str("}}");
        for s in self.spans() {
            out.push_str(",{\"name\":");
            push_json_str(&mut out, s.name);
            out.push_str(&format!(
                ",\"cat\":\"imagen\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                s.start_ns / 1_000,
                s.dur_ns.div_ceil(1_000),
                s.tid + 1,
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// Wall time aggregated over all spans sharing a name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PhaseTotal {
    /// Span name.
    pub name: &'static str,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Runs `f` with `collector` installed as the current thread's span
/// sink, restoring the previous sink (and depth) afterwards. Nestable;
/// panics in `f` propagate after restoration (guard-based).
pub fn with_collector<R>(collector: &Arc<Collector>, f: impl FnOnce() -> R) -> R {
    struct Restore {
        prev: Option<Arc<Collector>>,
        prev_depth: u32,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            COLLECTOR.with(|c| *c.borrow_mut() = self.prev.take());
            DEPTH.with(|d| d.set(self.prev_depth));
        }
    }
    let _restore = Restore {
        prev: COLLECTOR.with(|c| c.borrow_mut().replace(Arc::clone(collector))),
        prev_depth: DEPTH.with(|d| {
            let p = d.get();
            d.set(0);
            p
        }),
    };
    f()
}

/// The collector installed on the current thread, if any — what a
/// caller hands to the worker threads it spawns, so their spans land in
/// the same collector ([`with_collector`] on each worker).
pub fn current() -> Option<Arc<Collector>> {
    COLLECTOR.with(|c| c.borrow().clone())
}

/// Opens a span named `name`; the span closes when the returned guard
/// drops. Inert (no clock read) when no collector is installed.
pub fn span(name: &'static str) -> SpanGuard {
    let active = current().map(|collector| {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        Active {
            collector,
            start: Instant::now(),
            depth,
        }
    });
    SpanGuard { name, active }
}

struct Active {
    collector: Arc<Collector>,
    start: Instant,
    depth: u32,
}

/// RAII guard returned by [`span`]; records the span on drop.
pub struct SpanGuard {
    name: &'static str,
    active: Option<Active>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let dur_ns = a.start.elapsed().as_nanos() as u64;
            DEPTH.with(|d| d.set(a.depth));
            a.collector.push(self.name, a.start, dur_ns, a.depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_collector_means_inert_guards() {
        assert!(current().is_none());
        let g = span("free");
        drop(g);
        // Nothing to observe — the point is simply that this ran
        // without a collector and without panicking.
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let c = Arc::new(Collector::new());
        with_collector(&c, || {
            assert!(Arc::ptr_eq(&current().expect("installed"), &c));
            let _a = span("outer");
            for _ in 0..3 {
                let _b = span("inner");
            }
        });
        assert!(current().is_none());
        let spans = c.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert!(spans[1..].iter().all(|s| s.name == "inner" && s.depth == 1));
        let totals = c.phase_totals();
        assert_eq!(totals[0].name, "outer");
        assert_eq!(totals[1].count, 3);
        // Children are fully contained in the parent.
        assert!(totals[0].total_ns >= totals[1].total_ns);
    }

    #[test]
    fn nested_install_restores_outer() {
        let outer = Arc::new(Collector::new());
        let inner = Arc::new(Collector::new());
        with_collector(&outer, || {
            let _a = span("a");
            with_collector(&inner, || {
                let _b = span("b");
            });
            let _c = span("c");
        });
        let names: Vec<_> = outer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(inner.spans()[0].name, "b");
        assert_eq!(inner.spans()[0].depth, 0);
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let c = Arc::new(Collector::new());
        with_collector(&c, || {
            let _a = span("compile");
            let _b = span("ilp.solve");
        });
        let j = c.chrome_trace_json("imagen compile");
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"name\":\"ilp.solve\""));
        assert!(j.ends_with("\"displayTimeUnit\":\"ms\"}"));
        let text = c.timeline_text();
        assert!(text.contains("compile"));
        assert!(text.contains("  ilp.solve"));
    }

    #[test]
    fn collector_merges_spans_across_threads() {
        let c = Arc::new(Collector::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c2 = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                with_collector(&c2, || {
                    let _s = span("work");
                })
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 4);
        let mut tids: Vec<_> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4);
    }
}
