//! `imagen serve` — a JSONL batch compile server.
//!
//! One request per line, one response per line, responses in request
//! order. Requests are answered by a `std::thread::scope` worker pool
//! whose workers share one [`Hub`]: a memo of at most [`MAX_POINTS`]
//! compiled points keyed by (pipeline fingerprint, geometry, memory
//! target as planning resolves it, so a coalesced target that cannot
//! coalesce shares the plain target's point). A point is planned,
//! emitted and certified once on a transient [`imagen_core::Session`];
//! the memo keeps only what its responses report (design numbers,
//! Verilog text, the certificate as JSON text rendered once, or the
//! planning error), so a repeated request is answered in microseconds:
//! its response copies the certificate's text verbatim
//! ([`Json::Raw`]), and the Verilog is escaped only for `emit`.
//! A new point past the cap evicts the least recently used one, and
//! results are byte-identical to a sequential run regardless of worker
//! count. Both memos keep [`imagen_obs::Slot`]s under the
//! [`imagen_obs::Memo`] rule: each key is computed once, and requests
//! that race its first computation wait for it and count as hits, so
//! the memo counters do not depend on the worker count either.
//!
//! ## Protocol
//!
//! Request members (defaults in brackets):
//!
//! ```text
//! id          any value, echoed verbatim                     [null]
//! cmd         "compile" | "dse" | "ping" | "stats"           (required)
//! source      DSL program text                               (required)
//! name        pipeline name                                  ["pipeline"]
//! width, height, pixel_bits                                  [64, 48, 16]
//! block_bits  ASIC macro capacity, bits                      [32768]
//! fpga        target FPGA BRAMs                              [false]
//! ports       ports per block                                [2]
//! coalesce    coalesce every line buffer                     [false]
//! emit        include the Verilog text (compile)             [false]
//! strategy    "exhaustive" | "greedy" | "random" (dse)       ["exhaustive"]
//! samples     random-strategy budget (dse)                   [64]
//! seed        random-strategy seed (dse)                     [0]
//! timing      include "elapsed_us" (non-deterministic!)      [false]
//! deny_warnings  reject programs with lint warnings          [false]
//! ```
//!
//! Every compile and dse request is admission-checked by the cheap front
//! half of the static analyzer ([`imagen_analysis::front_pass`]: parse,
//! DSL lints, lower, width/overflow dataflow — no planning) before it
//! can occupy a worker: lint *errors* always reject, lint *warnings*
//! reject under `deny_warnings`, and successful compile responses carry
//! the observed `lint_warnings` / `lint_notes` counts. The front pass
//! runs once per program and target while its verdict stays in memory:
//! the hub memoizes the verdict and the DAG it lowered, keyed by the
//! name, the source text itself, the geometry and the memory target, and
//! applies `deny_warnings` at lookup. A repeated request parses nothing,
//! and a dse request sweeps the DAG its compile twin lowered; the memo
//! is bounded in entries and in retained source bytes and evicts its
//! least recently used verdicts. `"cmd":"stats"` and the
//! `--stats-every` line count its hits (requests answered from the
//! memo) and misses (front passes run) beside `admission_rejected`, the
//! point memo's hits and misses (points compiled) as `cache`, its
//! `evictions` and its `live_points`. A `"cmd":"stats"` line inside a
//! batch reads the counters when a worker takes it, so at more than one
//! thread it can be answered before earlier lines finish; the summary
//! printed to stderr after a stdin batch is exact.
//!
//! A stdin batch is read whole, and its workers take its lines by index;
//! `queue_wait` measures how long each line waited for a worker, so it
//! counts stdin-batch lines only. Each TCP connection gets `--threads`
//! workers, its own thread among them, and each worker reads the next
//! line under one lock, answers it, and under a second lock writes every
//! response that is now next in request order. At one thread a request
//! crosses no thread. A line waits in the socket until a worker is free,
//! so a client that pipelines requests must read responses while it
//! sends, or both sides block once the socket buffers fill. A line
//! longer than [`MAX_LINE_BYTES`] is answered with an error (no `id`),
//! counted as a request and an error, and discarded unbuffered; the
//! connection goes on. A line that is not UTF-8 ends the connection
//! after the earlier lines are answered.
//!
//! Success: `{"id":...,"ok":true,...}`, including the translation-
//! validation verdict for the compiled design (`certificate_status`
//! plus the full per-obligation `certificate` object, memoized with the
//! point). Failure:
//! `{"id":...,"ok":false,"error":"...","line":L,"col":C}` (span members
//! only when the error has one).

use crate::json::{self, Json, ObjBuilder};
use crate::{validate_frame_budget, validate_geometry, Options};
use imagen_analysis::{AnalysisOptions, Diagnostic, Locus, Severity};
use imagen_core::Session;
use imagen_dse::{explore, ExploreOptions, ExploreStrategy};
use imagen_dsl::Pos;
use imagen_ir::{Dag, StageId};
use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use imagen_obs::{Collector, Counter, Gauge, Histogram, Metrics, Slot};
use std::collections::HashMap;
use std::hash::Hash;
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The memory-spec identity a request chose: (FPGA backend, ASIC block
/// bits, ports, coalescing).
type Target = (bool, u64, u32, bool);

/// A memory target as planning resolves it: (FPGA backend, ASIC block
/// bits, ports, coalescing factor). Coalescing that cannot take effect
/// (one port, or one row per block) resolves to factor 1, as none does.
type Resolved = (bool, u64, u32, u32);

/// One compiled point: (pipeline fingerprint, width, height, pixel bits,
/// resolved memory target). The planned design, its Verilog and its
/// certificate are a pure function of it.
type PointKey = (u64, u32, u32, u32, Resolved);

/// Compiled points the hub keeps at most. Each holds only what its
/// responses report (design numbers, Verilog text, certificate), so a
/// client streaming ever-new pipelines or targets must not grow the
/// server without bound: a new point past the cap evicts the least
/// recently used one.
const MAX_POINTS: usize = 64;

/// Admission verdicts the hub keeps at most.
const MAX_ADMISSIONS: usize = 4 * MAX_POINTS;

/// Program text (names and sources) the admission memo retains at most:
/// it keeps client text after the request ends, so a burst of large
/// distinct sources must not grow the daemon. The example programs are
/// 0.5–1.3 KB, so a full memo of 4 KB programs fits. A program larger
/// than the cap runs the front pass on every request instead.
const MAX_ADMISSION_BYTES: usize = 1 << 20;

/// Shared server state: the admission memo and the compiled-point memo,
/// both least-recently-used maps bounded in entries.
pub struct Hub {
    state: Mutex<HubState>,
    /// The server's metrics registry. Registered cells live in
    /// [`HubStats`] handles so the request hot path never takes the
    /// registry mutex; the registry itself only serves `"cmd":"stats"`
    /// snapshots and the periodic stderr line.
    metrics: Metrics,
    stats: HubStats,
    /// `--stats-every N`: print a stats line to stderr every N
    /// completed requests (0 = never).
    stats_every: u64,
}

/// Pre-registered metric handles — one atomic op each on the hot path.
struct HubStats {
    req_total: Counter,
    req_compile: Counter,
    req_dse: Counter,
    req_ping: Counter,
    req_stats: Counter,
    req_other: Counter,
    errors: Counter,
    admission_rejected: Counter,
    /// Admission lookups the memo answered, and front passes run.
    admission_hits: Counter,
    admission_misses: Counter,
    inflight: Gauge,
    queue_wait_us: Histogram,
    handle_us: Histogram,
    /// Compile requests the point memo answered, and points compiled.
    cache_hits: Counter,
    cache_misses: Counter,
    /// Points evicted from the memo to make room for a new one.
    evictions: Counter,
}

impl HubStats {
    fn register(metrics: &Metrics) -> HubStats {
        HubStats {
            req_total: metrics.counter("requests.total"),
            req_compile: metrics.counter("requests.compile"),
            req_dse: metrics.counter("requests.dse"),
            req_ping: metrics.counter("requests.ping"),
            req_stats: metrics.counter("requests.stats"),
            req_other: metrics.counter("requests.other"),
            errors: metrics.counter("errors"),
            admission_rejected: metrics.counter("admission.rejected"),
            admission_hits: metrics.counter("admission.hits"),
            admission_misses: metrics.counter("admission.misses"),
            inflight: metrics.gauge("inflight"),
            queue_wait_us: metrics.histogram("queue_wait_us"),
            handle_us: metrics.histogram("handle_us"),
            cache_hits: metrics.counter("cache.hits"),
            cache_misses: metrics.counter("cache.misses"),
            evictions: metrics.counter("cache.evictions"),
        }
    }
}

#[derive(Default)]
struct HubState {
    /// Memoized front-pass verdicts: a warm request skips parsing,
    /// linting and lowering.
    admissions: AdmissionMemo,
    /// What each compiled point's responses report, its planning error
    /// included: a warm request plans, emits and proves nothing.
    points: Lru<PointKey, Arc<Compiled>>,
}

/// A map of memo slots that evicts its least recently used entries: each
/// entry carries the tick of its last use, and eviction scans for the
/// oldest. The hub's maps hold at most a few hundred entries, and they
/// evict only when a miss inserts past the cap. An evicted slot stays
/// valid for the lookups that already hold it.
struct Lru<K, V> {
    entries: HashMap<K, (Slot<V>, u64)>,
    tick: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            entries: HashMap::new(),
            tick: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The slot of `key`, marked as the most recently used, and whether
    /// it was stored before: a new key gets an empty slot.
    fn slot(&mut self, key: &K) -> (Slot<V>, bool) {
        self.tick += 1;
        if let Some((slot, used)) = self.entries.get_mut(key) {
            *used = self.tick;
            return (slot.clone(), true);
        }
        let slot = Slot::default();
        self.entries.insert(key.clone(), (slot.clone(), self.tick));
        (slot, false)
    }

    /// Removes the least recently used entry and returns its key. Every
    /// use takes a fresh tick, so exactly one entry carries the oldest.
    fn evict(&mut self) -> Option<K> {
        let oldest = self.entries.values().map(|&(_, used)| used).min()?;
        let (key, _) = self
            .entries
            .extract_if(|_, &mut (_, used)| used == oldest)
            .next()?;
        Some(key)
    }
}

impl Hub {
    pub fn new() -> Hub {
        let metrics = Metrics::new();
        let stats = HubStats::register(&metrics);
        Hub {
            state: Mutex::new(HubState::default()),
            metrics,
            stats,
            stats_every: 0,
        }
    }

    /// Sets the `--stats-every` cadence (0 = never).
    pub fn with_stats_every(mut self, every: u64) -> Hub {
        self.stats_every = every;
        self
    }

    /// `(hits, misses)` of the point memo: compile requests it answered,
    /// and points compiled. Reads registry counters — no hub state lock,
    /// so a stats probe never contends with the compile hot path.
    pub fn cache_stats(&self) -> (usize, usize) {
        (
            self.stats.cache_hits.get() as usize,
            self.stats.cache_misses.get() as usize,
        )
    }

    /// One-line operational summary for the periodic `--stats-every`
    /// stderr heartbeat.
    fn stats_line(&self) -> String {
        let s = &self.stats;
        let (hits, misses) = self.cache_stats();
        let hit_rate = if hits + misses == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * hits as f64 / (hits + misses) as f64)
        };
        let h = s.handle_us.snapshot();
        let q = s.queue_wait_us.snapshot();
        format!(
            "stats: req={} (compile={} dse={} ping={} stats={} other={}) \
             errors={} rejected={} admission={}/{} inflight={} \
             queue_us[p50/p99]={}/{} handle_us[p50/p99]={}/{} \
             cache={hits}/{misses} ({hit_rate}) evictions={}",
            s.req_total.get(),
            s.req_compile.get(),
            s.req_dse.get(),
            s.req_ping.get(),
            s.req_stats.get(),
            s.req_other.get(),
            s.errors.get(),
            s.admission_rejected.get(),
            s.admission_hits.get(),
            s.admission_misses.get(),
            s.inflight.get(),
            q.p50,
            q.p99,
            h.p50,
            h.p99,
            s.evictions.get(),
        )
    }

    /// Number of memoized points (bounded by [`MAX_POINTS`]).
    fn live_points(&self) -> usize {
        self.state.lock().expect("hub state").points.len()
    }

    /// `(verdicts, retained program bytes)` of the admission memo.
    #[cfg(test)]
    fn admission_memo(&self) -> (usize, usize) {
        let state = self.state.lock().expect("hub state");
        (state.admissions.verdicts.len(), state.admissions.bytes)
    }

    /// The front pass's verdict on `key`, run on its first lookup and
    /// memoized; lookups that race it wait for its verdict.
    fn admission(&self, key: &AdmissionKey, spec: &MemorySpec) -> Verdict {
        let (slot, hit) = self.state.lock().expect("hub state").admissions.slot(key);
        if hit {
            self.stats.admission_hits.add(1);
        } else {
            self.stats.admission_misses.add(1);
        }
        slot.get_or_init(|| front_verdict(key, spec)).clone()
    }

    /// The compiled point `key`, built by `compile` on its first lookup
    /// and memoized. The compile runs outside the state lock, so
    /// concurrent requests for distinct points never serialize on it,
    /// and requests that race it for its own point wait for it.
    fn point(&self, key: PointKey, compile: impl FnOnce() -> Compiled) -> Arc<Compiled> {
        let slot = {
            let mut state = self.state.lock().expect("hub state");
            let (slot, hit) = state.points.slot(&key);
            if hit {
                self.stats.cache_hits.add(1);
            } else {
                self.stats.cache_misses.add(1);
                if state.points.len() > MAX_POINTS {
                    state.points.evict();
                    self.stats.evictions.add(1);
                }
            }
            slot
        };
        Arc::clone(slot.get_or_init(|| Arc::new(compile())))
    }
}

fn get_u64(req: &Json, key: &str, default: u64) -> Result<u64, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// Like [`get_u64`] but rejects values above `u32::MAX` instead of
/// truncating them — a request for a 2^32+1-pixel-wide frame must fail,
/// not silently compile a 1-pixel one.
fn get_u32(req: &Json, key: &str, default: u32) -> Result<u32, String> {
    let v = get_u64(req, key, default as u64)?;
    u32::try_from(v).map_err(|_| format!("`{key}` must be at most {}", u32::MAX))
}

fn get_bool(req: &Json, key: &str) -> Result<bool, String> {
    match req.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

struct Request {
    name: String,
    source: String,
    geom: ImageGeometry,
    target: Target,
    /// The memory spec the target configures for every stage.
    spec: MemorySpec,
    emit: bool,
    deny_warnings: bool,
    strategy: ExploreStrategy,
    strategy_label: String,
}

fn parse_request(req: &Json) -> Result<Request, String> {
    let source = req
        .get("source")
        .and_then(Json::as_str)
        .ok_or("`source` (string) is required")?
        .to_string();
    let name = req
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("pipeline")
        .to_string();
    let geom = ImageGeometry {
        width: get_u32(req, "width", 64)?,
        height: get_u32(req, "height", 48)?,
        pixel_bits: get_u32(req, "pixel_bits", 16)?,
    };
    validate_geometry(&geom)?;
    // Servers bound per-request allocations even for pure compiles: the
    // hub keeps lowered DAGs and compiled points alive across requests.
    validate_frame_budget(&geom)?;
    let backend = if get_bool(req, "fpga")? {
        MemBackend::Fpga
    } else {
        MemBackend::Asic {
            block_bits: get_u64(req, "block_bits", 32768)?,
        }
    };
    let ports = get_u32(req, "ports", 2)?;
    if ports == 0 {
        return Err("`ports` must be at least 1".into());
    }
    let strategy_label = req
        .get("strategy")
        .and_then(Json::as_str)
        .unwrap_or("exhaustive")
        .to_string();
    let samples = get_u64(req, "samples", 64)?;
    let samples = usize::try_from(samples).map_err(|_| "`samples` is too large".to_string())?;
    let strategy =
        crate::report::parse_strategy(&strategy_label, samples, get_u64(req, "seed", 0)?)?;
    let coalesce = get_bool(req, "coalesce")?;
    let mut spec = MemorySpec::new(backend, ports);
    if coalesce {
        spec = spec.with_coalescing();
    }
    let target = match backend {
        MemBackend::Fpga => (true, 0, ports, coalesce),
        MemBackend::Asic { block_bits } => (false, block_bits, ports, coalesce),
    };
    Ok(Request {
        name,
        source,
        geom,
        target,
        spec,
        emit: get_bool(req, "emit")?,
        deny_warnings: get_bool(req, "deny_warnings")?,
        strategy,
        strategy_label,
    })
}

fn error_response(id: Json, msg: String, pos: Option<imagen_dsl::Pos>) -> Json {
    let mut b = ObjBuilder::new()
        .push("id", id)
        .push("ok", Json::Bool(false))
        .push("error", Json::Str(msg));
    if let Some(p) = pos {
        b = b
            .push("line", Json::Num(p.line as f64))
            .push("col", Json::Num(p.col as f64));
    }
    b.build()
}

/// Admission memo key: the name, the source text and every other input
/// of the front pass (the geometry and memory target its
/// [`AnalysisOptions`] are built from). `deny_warnings` is not part of
/// it; lookups apply it to the stored verdict.
#[derive(Clone, PartialEq, Eq, Hash)]
struct AdmissionKey {
    name: String,
    source: String,
    geom: ImageGeometry,
    target: Target,
}

impl AdmissionKey {
    /// The client text the memo keeps by storing this key.
    fn retained_bytes(&self) -> usize {
        self.name.len() + self.source.len()
    }
}

/// A rejection's error message and source position.
type Rejection = (String, Option<Pos>);

/// The front pass's verdict on one program and target: the admitted
/// program, or its first lint error.
type Verdict = Result<Arc<Admitted>, Rejection>;

/// An admitted program: what its compile responses report of the lints,
/// and the DAG the front pass lowered.
struct Admitted {
    warnings: usize,
    notes: usize,
    /// The first warning, as `deny_warnings` rejects it.
    denied: Option<Rejection>,
    dag: Dag,
    fingerprint: u64,
}

/// Front-pass verdicts, capped at [`MAX_ADMISSIONS`] entries and
/// [`MAX_ADMISSION_BYTES`] of retained program text: a new verdict
/// evicts the least recently used ones until both caps hold.
#[derive(Default)]
struct AdmissionMemo {
    verdicts: Lru<AdmissionKey, Verdict>,
    bytes: usize,
}

impl AdmissionMemo {
    /// The slot of `key`'s verdict, and whether it was stored before. A
    /// new key's slot is stored, and the least recently used verdicts
    /// are evicted until both caps hold, unless its text alone passes the
    /// byte cap.
    fn slot(&mut self, key: &AdmissionKey) -> (Slot<Verdict>, bool) {
        let bytes = key.retained_bytes();
        if bytes > MAX_ADMISSION_BYTES {
            return (Slot::default(), false);
        }
        let (slot, hit) = self.verdicts.slot(key);
        if !hit {
            self.bytes += bytes;
            while self.verdicts.len() > MAX_ADMISSIONS || self.bytes > MAX_ADMISSION_BYTES {
                let evicted = self
                    .verdicts
                    .evict()
                    .expect("a memo over its caps holds an older verdict");
                self.bytes -= evicted.retained_bytes();
            }
        }
        (slot, hit)
    }
}

/// Runs the cheap front half of the analyzer once: a rejection on the
/// first lint error, or the admitted program's lint counts, first
/// warning and lowered DAG.
fn front_verdict(key: &AdmissionKey, spec: &MemorySpec) -> Verdict {
    let aopts = AnalysisOptions {
        geom: key.geom,
        spec: spec.clone(),
        widths: imagen_rtl::BitWidths {
            pixel_bits: key.geom.pixel_bits,
            acc_bits: (2 * key.geom.pixel_bits).min(64),
        },
        input_range: AnalysisOptions::default().input_range,
    };
    let (lint, dag) = imagen_analysis::front_pass(&key.name, &key.source, &aopts);
    let pos_of = |d: &Diagnostic| match d.locus {
        Locus::Source { line, col } => Some(Pos { line, col }),
        _ => None,
    };
    let first = |severity| lint.diagnostics.iter().find(|d| d.severity == severity);
    if let Some(d) = first(Severity::Error) {
        return Err((d.message.clone(), pos_of(d)));
    }
    let dag = dag.expect("front_pass lowers every program it reports no error for");
    Ok(Arc::new(Admitted {
        warnings: lint.warnings(),
        notes: lint.notes(),
        denied: first(Severity::Warning).map(|d| {
            (
                format!("denied warning[{}]: {}", d.code, d.message),
                pos_of(d),
            )
        }),
        fingerprint: dag.fingerprint(),
        dag,
    }))
}

/// `text.lines().count()` by counting `\n` bytes: every line but an
/// unterminated last one ends in one.
fn line_count(text: &str) -> usize {
    let newlines = text.bytes().filter(|&b| b == b'\n').count();
    newlines + usize::from(!text.is_empty() && !text.ends_with('\n'))
}

/// What a compile response reports of one compiled point, or the error
/// its planning failed with.
type Compiled = Result<Point, String>;

/// The design numbers, Verilog text and certificate of one compiled
/// point; the session, plan and netlist they came from are dropped.
struct Point {
    style: &'static str,
    sram_kb: f64,
    blocks: usize,
    area_mm2: f64,
    power_mw: f64,
    latency_cycles: i64,
    verilog: Box<str>,
    verilog_lines: usize,
    certificate_status: &'static str,
    /// The certificate rendered as JSON text once, which every response
    /// for the point copies verbatim.
    certificate: Arc<str>,
}

/// Plans, emits and certifies one point on a transient session.
fn compile_point(dag: &Dag, geom: ImageGeometry, spec: &MemorySpec) -> Compiled {
    let mut out = Session::new(dag, geom)
        .compile(spec, None)
        .map_err(|e| e.to_string())?;
    // An exact-length copy, made before certification: the emitter's
    // buffer can carry up to twice the text's length in spare capacity,
    // and the memo keeps the text as long as the point.
    let verilog: Box<str> = std::mem::take(&mut out.verilog).as_str().into();
    // Translation validation: every compile response carries the
    // certificate verdict for the netlist it describes. The dag must be
    // the *planned* dag (relay stages included), and the widths come
    // from the netlist itself.
    let aopts = AnalysisOptions {
        geom,
        spec: spec.clone(),
        widths: out.netlist.widths,
        input_range: AnalysisOptions::default().input_range,
    };
    let cert = imagen_analysis::certify_netlist(&out.plan.dag, &out.netlist, &aopts);
    let design = &out.plan.design;
    Ok(Point {
        style: design.style.label(),
        sram_kb: design.sram_kb(),
        blocks: design.block_count(),
        area_mm2: design.total_area_mm2(),
        power_mw: design.total_power_mw(),
        latency_cycles: out
            .plan
            .schedule
            .latency(&out.plan.dag, geom.width, geom.height),
        verilog_lines: line_count(&verilog),
        verilog,
        certificate_status: cert.status(),
        certificate: crate::lint::certificate_json(&cert).to_line().into(),
    })
}

/// Admits a compile or dse request's program: the memoized front-pass
/// verdict on its program and target, with `deny_warnings` applied. The
/// request's name and source move into the lookup key uncopied; only a
/// miss stores a copy.
fn admit(r: &mut Request, hub: &Hub) -> Verdict {
    let key = AdmissionKey {
        name: std::mem::take(&mut r.name),
        source: std::mem::take(&mut r.source),
        geom: r.geom,
        target: r.target,
    };
    let verdict = hub
        .admission(&key, &r.spec)
        .and_then(|a| match (&a.denied, r.deny_warnings) {
            (Some(denied), true) => Err(denied.clone()),
            _ => Ok(a),
        });
    if verdict.is_err() {
        hub.stats.admission_rejected.add(1);
    }
    verdict
}

fn compile_response(id: Json, mut r: Request, hub: &Hub) -> Json {
    let admitted = match admit(&mut r, hub) {
        Ok(a) => a,
        Err((msg, pos)) => return error_response(id, msg, pos),
    };
    let dag = &admitted.dag;
    let g = r.geom;
    // Serve's specs configure every stage alike, so stage 0's factor is
    // every stage's.
    let (fpga, block_bits, ports, _) = r.target;
    let resolved = (fpga, block_bits, ports, r.spec.coalesce_factor(0, &g));
    let point_key = (
        admitted.fingerprint,
        g.width,
        g.height,
        g.pixel_bits,
        resolved,
    );
    let compiled = hub.point(point_key, || compile_point(dag, g, &r.spec));
    let point = match &*compiled {
        Ok(p) => p,
        Err(e) => return error_response(id, e.clone(), None),
    };
    let stats = dag.stats();
    let mut b = ObjBuilder::new()
        .push("id", id)
        .push("ok", Json::Bool(true))
        .push("name", Json::Str(dag.name().to_string()))
        .push("stages", Json::Num(stats.stages as f64))
        .push("edges", Json::Num(stats.edges as f64))
        .push(
            "multi_consumer",
            Json::Num(stats.multi_consumer_stages as f64),
        )
        .push("style", Json::Str(point.style.to_string()))
        .push("sram_kb", Json::Num(point.sram_kb))
        .push("blocks", Json::Num(point.blocks as f64))
        .push("area_mm2", Json::Num(point.area_mm2))
        .push("power_mw", Json::Num(point.power_mw))
        .push("latency_cycles", Json::Num(point.latency_cycles as f64))
        .push("verilog_lines", Json::Num(point.verilog_lines as f64))
        .push("lint_warnings", Json::Num(admitted.warnings as f64))
        .push("lint_notes", Json::Num(admitted.notes as f64))
        .push(
            "certificate_status",
            Json::Str(point.certificate_status.to_string()),
        )
        .push("certificate", Json::Raw(Arc::clone(&point.certificate)));
    if r.emit {
        b = b.push("verilog", Json::Str(point.verilog.to_string()));
    }
    b.build()
}

fn dse_response(id: Json, mut r: Request, hub: &Hub) -> Json {
    let admitted = match admit(&mut r, hub) {
        Ok(a) => a,
        Err((msg, pos)) => return error_response(id, msg, pos),
    };
    let dag = &admitted.dag;
    if let Err(e) = crate::report::check_exhaustive_size(r.strategy, dag.buffered_stages().len()) {
        return error_response(id, e, None);
    }
    // DSE owns its fan-out; each request explores sequentially so the
    // serve worker pool stays the only concurrency level.
    let res = match explore(
        dag,
        &r.geom,
        r.spec.backend(),
        ExploreOptions {
            strategy: r.strategy,
            threads: 1,
            ..ExploreOptions::default()
        },
    ) {
        Ok(res) => res,
        Err(e) => return error_response(id, e.to_string(), None),
    };
    let frontier = res.pareto_front();
    let names: Vec<Json> = res
        .buffered_stages
        .iter()
        .map(|&s| Json::Str(dag.stage(StageId::from_index(s)).name().to_string()))
        .collect();
    let points: Vec<Json> = frontier
        .iter()
        .map(|&i| {
            let p = &res.points[i];
            ObjBuilder::new()
                .push("point", Json::Num(i as f64))
                .push(
                    "choices",
                    Json::Str(
                        p.choices
                            .iter()
                            .map(|c| c.label())
                            .collect::<Vec<_>>()
                            .join(","),
                    ),
                )
                .push("sram_kb", Json::Num(p.sram_kb))
                .push("area_mm2", Json::Num(p.area_mm2))
                .push("power_mw", Json::Num(p.power_mw))
                // Measured (schedule-activity) energy, default-on.
                .push(
                    "measured_power_mw",
                    p.measured.map_or(Json::Null, |m| Json::Num(m.power_mw)),
                )
                .push(
                    "measured_gated_mw",
                    p.measured
                        .map_or(Json::Null, |m| Json::Num(m.gated_power_mw)),
                )
                .push(
                    "energy_pj_per_frame",
                    p.measured
                        .map_or(Json::Null, |m| Json::Num(m.energy_pj_per_frame)),
                )
                .build()
        })
        .collect();
    ObjBuilder::new()
        .push("id", id)
        .push("ok", Json::Bool(true))
        .push("name", Json::Str(dag.name().to_string()))
        .push("strategy", Json::Str(r.strategy_label.clone()))
        .push("buffers", Json::Arr(names))
        .push("points", Json::Num(res.points.len() as f64))
        .push("pareto", Json::Arr(points))
        .build()
}

/// The `"cmd":"stats"` response: the operational numbers a daemon
/// operator wants first (request mix, errors, admission rejections and
/// memo hits/misses, latency percentiles, cache hit rate), plus the full `imagen-metrics/1` snapshot under
/// `metrics` — the exact object `imagen stats` renders. Snapshot reads
/// race live writers by design; every cell is an independent atomic.
fn stats_response(id: Json, hub: &Hub) -> Json {
    let snap = hub.metrics.snapshot();
    let counter = |name: &str| Json::Num(snap.counter(name) as f64);
    let hist_obj = |name: &str| {
        let h = snap
            .histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| *h)
            .unwrap_or_default();
        ObjBuilder::new()
            .push("count", Json::Num(h.count as f64))
            .push("mean_us", Json::Num(h.mean()))
            .push("p50_us", Json::Num(h.p50 as f64))
            .push("p90_us", Json::Num(h.p90 as f64))
            .push("p99_us", Json::Num(h.p99 as f64))
            .push("max_us", Json::Num(h.max as f64))
            .build()
    };
    let inflight = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "inflight")
        .map_or(0, |(_, v)| *v);
    let (hits, misses) = hub.cache_stats();
    let hit_rate = if hits + misses == 0 {
        Json::Null
    } else {
        Json::Num(hits as f64 / (hits + misses) as f64)
    };
    ObjBuilder::new()
        .push("id", id)
        .push("ok", Json::Bool(true))
        .push(
            "requests",
            ObjBuilder::new()
                .push("total", counter("requests.total"))
                .push("compile", counter("requests.compile"))
                .push("dse", counter("requests.dse"))
                .push("ping", counter("requests.ping"))
                .push("stats", counter("requests.stats"))
                .push("other", counter("requests.other"))
                .build(),
        )
        .push("errors", counter("errors"))
        .push("admission_rejected", counter("admission.rejected"))
        .push("admission_hits", counter("admission.hits"))
        .push("admission_misses", counter("admission.misses"))
        .push("inflight", Json::Num(inflight as f64))
        .push("queue_wait", hist_obj("queue_wait_us"))
        .push("handle_time", hist_obj("handle_us"))
        .push(
            "cache",
            ObjBuilder::new()
                .push("hits", Json::Num(hits as f64))
                .push("misses", Json::Num(misses as f64))
                .push("hit_rate", hit_rate)
                .build(),
        )
        .push("evictions", counter("cache.evictions"))
        .push("live_points", Json::Num(hub.live_points() as f64))
        .push(
            "metrics",
            json::parse(&snap.to_json()).unwrap_or(Json::Null),
        )
        .build()
}

/// Answers one request line read straight off a connection (tests drive
/// the server through this too).
fn handle(line: &str, hub: &Hub) -> Json {
    handle_at(line, hub, None)
}

/// Answers one request line; `enqueued` (when a batch line entered the
/// queue) feeds the queue-wait histogram.
fn handle_at(line: &str, hub: &Hub, enqueued: Option<Instant>) -> Json {
    account(hub, enqueued, |t0| handle_inner(line, hub, t0))
}

/// Runs `answer` as one request in the hub's counters: its queue wait,
/// the in-flight gauge, the error count, the handle time, the request
/// count and the `--stats-every` line.
fn account(hub: &Hub, enqueued: Option<Instant>, answer: impl FnOnce(Instant) -> Json) -> Json {
    let t0 = Instant::now();
    if let Some(at) = enqueued {
        hub.stats
            .queue_wait_us
            .record(at.elapsed().as_micros() as u64);
    }
    hub.stats.inflight.add(1);
    let resp = answer(t0);
    if resp.get("ok") == Some(&Json::Bool(false)) {
        hub.stats.errors.add(1);
    }
    hub.stats.inflight.sub(1);
    hub.stats.handle_us.record(t0.elapsed().as_micros() as u64);
    hub.stats.req_total.add(1);
    if hub.stats_every > 0 && hub.stats.req_total.get().is_multiple_of(hub.stats_every) {
        eprintln!("{}", hub.stats_line());
    }
    resp
}

fn handle_inner(line: &str, hub: &Hub, t0: Instant) -> Json {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_response(Json::Null, format!("bad request JSON: {e}"), None),
    };
    let id = req.get("id").cloned().unwrap_or(Json::Null);
    let timing = match get_bool(&req, "timing") {
        Ok(t) => t,
        Err(e) => return error_response(id, e, None),
    };
    let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("");
    match cmd {
        "compile" => &hub.stats.req_compile,
        "dse" => &hub.stats.req_dse,
        "ping" => &hub.stats.req_ping,
        "stats" => &hub.stats.req_stats,
        _ => &hub.stats.req_other,
    }
    .add(1);
    let mut resp = match cmd {
        "ping" => ObjBuilder::new()
            .push("id", id)
            .push("ok", Json::Bool(true))
            .push("pong", Json::Bool(true))
            .build(),
        "stats" => stats_response(id, hub),
        "compile" | "dse" => match parse_request(&req) {
            Err(e) => error_response(id, e, None),
            Ok(r) => {
                let run = move || {
                    if cmd == "compile" {
                        compile_response(id, r, hub)
                    } else {
                        dse_response(id, r, hub)
                    }
                };
                if timing {
                    // `timing` folds into the span infrastructure: the
                    // request runs under its own collector and the
                    // response carries the per-phase breakdown.
                    let collector = Arc::new(Collector::new());
                    let mut resp = imagen_obs::with_collector(&collector, run);
                    if let Json::Obj(members) = &mut resp {
                        let phases: Vec<(String, Json)> = collector
                            .phase_totals()
                            .iter()
                            .map(|t| (t.name.to_string(), Json::Num((t.total_ns / 1_000) as f64)))
                            .collect();
                        members.push(("phase_us".into(), Json::Obj(phases)));
                    }
                    resp
                } else {
                    run()
                }
            }
        },
        "" => error_response(id, "`cmd` (string) is required".into(), None),
        other => error_response(id, format!("unknown cmd `{other}`"), None),
    };
    if timing {
        if let Json::Obj(members) = &mut resp {
            members.push((
                "elapsed_us".into(),
                Json::Num(t0.elapsed().as_micros() as f64),
            ));
        }
    }
    resp
}

fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Answers a batch of request lines on up to `threads` scoped workers.
/// The response vector is in request order and byte-identical to a
/// sequential (`threads == 1`) run.
pub fn run_batch(lines: &[String], threads: usize, hub: &Hub) -> Vec<String> {
    let workers = effective_threads(threads).min(lines.len().max(1));
    let slots: Vec<Mutex<Option<String>>> = lines.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Whole batch "enqueues" at once: queue-wait measures how long a
    // line waited for a free worker.
    let enqueued = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= lines.len() {
                    break;
                }
                let resp = handle_at(&lines[i], hub, Some(enqueued)).to_line();
                *slots[i].lock().expect("slot") = Some(resp);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot").expect("worker filled slot"))
        .collect()
}

/// `imagen serve` entry point.
pub fn run(opts: &Options) -> Result<(), String> {
    let hub = Arc::new(Hub::new().with_stats_every(opts.stats_every));
    match &opts.tcp {
        None => {
            let mut input = String::new();
            std::io::stdin()
                .read_to_string(&mut input)
                .map_err(|e| format!("reading stdin: {e}"))?;
            let lines: Vec<String> = input
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(String::from)
                .collect();
            let responses = run_batch(&lines, opts.threads, &hub);
            for r in &responses {
                outln!("{r}");
            }
            let (hits, misses) = hub.cache_stats();
            let s = &hub.stats;
            eprintln!(
                "served {} request(s) on {} worker(s); admission memo: {} hit(s), {} miss(es); point memo: {hits} hit(s), {misses} miss(es)",
                responses.len(),
                effective_threads(opts.threads).min(lines.len().max(1)),
                s.admission_hits.get(),
                s.admission_misses.get(),
            );
            Ok(())
        }
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            outln!("listening {local}");
            std::io::stdout().flush().ok();
            let threads = opts.threads;
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("accept: {e}");
                        continue;
                    }
                };
                let hub = hub.clone();
                std::thread::spawn(move || serve_connection(stream, &hub, threads));
            }
            Ok(())
        }
    }
}

/// The longest TCP request line the server reads (4× the admission
/// memo's byte cap): a longer one is answered with an error and
/// discarded through its newline without being buffered.
const MAX_LINE_BYTES: usize = 4 * MAX_ADMISSION_BYTES;

/// One request line off a connection.
#[derive(Debug, PartialEq)]
enum LineRead {
    /// The line is in the buffer, without its `\n` (or `\r\n`).
    Line,
    /// The line passed [`MAX_LINE_BYTES`] and was discarded.
    TooLong,
    /// The peer closed its side.
    End,
}

/// Reads one line into `line` as `BufRead::lines` splits them, buffering
/// at most `cap` bytes of it.
fn read_line_capped(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    line.clear();
    let (mut read, mut too_long) = (false, false);
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            break;
        }
        read = true;
        let newline = buf.iter().position(|&b| b == b'\n');
        let chunk = &buf[..newline.unwrap_or(buf.len())];
        too_long |= line.len() + chunk.len() > cap;
        if too_long {
            line.clear();
        } else {
            line.extend_from_slice(chunk);
        }
        let used = newline.map_or(buf.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            break;
        }
    }
    Ok(match (read, too_long) {
        (false, _) => LineRead::End,
        (true, true) => LineRead::TooLong,
        (true, false) => LineRead::Line,
    })
}

/// The request lines of one connection, read by one worker at a time.
struct Requests {
    reader: std::io::BufReader<std::net::TcpStream>,
    /// Sequence number of the next request line.
    next: usize,
    /// No more lines: the peer closed, a read failed, or a write did.
    done: bool,
}

impl Requests {
    /// The sequence number of the next non-blank request line, and
    /// whether it is in `line` ([`LineRead::Line`]) or was discarded
    /// ([`LineRead::TooLong`]); `None` once there are no more. A line
    /// that is not UTF-8 ends the connection's requests.
    fn take(&mut self, line: &mut Vec<u8>, peer: &str) -> Option<(usize, LineRead)> {
        while !self.done {
            let read = match read_line_capped(&mut self.reader, line, MAX_LINE_BYTES) {
                Ok(LineRead::Line) => match std::str::from_utf8(line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(_) => LineRead::Line,
                    Err(_) => {
                        eprintln!("{peer}: read: stream did not contain valid UTF-8");
                        LineRead::End
                    }
                },
                Ok(read) => read,
                Err(e) => {
                    eprintln!("{peer}: read: {e}");
                    LineRead::End
                }
            };
            if read == LineRead::End {
                self.done = true;
            } else {
                self.next += 1;
                return Some((self.next - 1, read));
            }
        }
        None
    }
}

/// The responses of one connection, written in request order.
struct Responses {
    stream: std::net::TcpStream,
    /// Sequence number of the next response to write.
    next: usize,
    /// Finished responses waiting for an earlier one.
    pending: HashMap<usize, String>,
    /// A write failed: nothing more is written.
    broken: bool,
}

impl Responses {
    /// Writes response `seq` (taken from `text`) once every earlier one
    /// is written, then every later one that is ready. Returns `false`
    /// once a write has failed.
    fn put(&mut self, seq: usize, text: &mut String) -> bool {
        if self.broken {
            return false;
        }
        if seq != self.next {
            self.pending.insert(seq, std::mem::take(text));
            return true;
        }
        let mut ok = self.stream.write_all(text.as_bytes()).is_ok();
        self.next += 1;
        while ok {
            let Some(later) = self.pending.remove(&self.next) else {
                break;
            };
            ok = self.stream.write_all(later.as_bytes()).is_ok();
            self.next += 1;
        }
        self.broken = !ok;
        ok
    }
}

/// One TCP connection, served by `--threads` workers (the connection's
/// own thread among them, so at one thread a request crosses no thread).
/// Each worker reads the next request line under one lock, answers it,
/// and under a second lock writes every response that is now next in
/// request order. Lines wait in the socket until a worker is free.
fn serve_connection(stream: std::net::TcpStream, hub: &Hub, threads: usize) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    let reader = match stream.try_clone() {
        Ok(s) => std::io::BufReader::new(s),
        Err(e) => {
            eprintln!("{peer}: clone: {e}");
            return;
        }
    };
    let requests = Mutex::new(Requests {
        reader,
        next: 0,
        done: false,
    });
    let responses = Mutex::new(Responses {
        stream,
        next: 0,
        pending: HashMap::new(),
        broken: false,
    });
    let work = || {
        let (mut line, mut text) = (Vec::new(), String::new());
        loop {
            let taken = requests.lock().expect("requests").take(&mut line, &peer);
            let Some((seq, read)) = taken else { return };
            let resp = if read == LineRead::TooLong {
                let msg = format!("request line longer than {MAX_LINE_BYTES} bytes");
                account(hub, None, |_| error_response(Json::Null, msg, None))
            } else {
                handle(std::str::from_utf8(&line).expect("checked when read"), hub)
            };
            text.clear();
            resp.write(&mut text);
            text.push('\n');
            if !responses.lock().expect("responses").put(seq, &mut text) {
                requests.lock().expect("requests").done = true;
                return;
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..effective_threads(threads) {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLUR: &str = "input a; output b = im(x,y) (a(x-1,y) + 2*a(x,y) + a(x+1,y)) / 4 end";

    fn req(extra: &str) -> String {
        format!(
            r#"{{"id":1,"cmd":"compile","name":"blur","source":"{BLUR}","width":32,"height":24{extra}}}"#
        )
    }

    #[test]
    fn compile_request_round_trip() {
        let hub = Hub::new();
        let resp = handle(&req(""), &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("stages").unwrap().as_u64(), Some(2));
        assert!(resp.get("verilog").is_none());
        let resp = handle(&req(r#","emit":true"#), &hub);
        assert!(resp
            .get("verilog")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("module"));
    }

    #[test]
    fn errors_carry_spans() {
        let hub = Hub::new();
        let bad =
            r#"{"id":"x","cmd":"compile","source":"input a;\noutput b = im(x,y) c(x,y) end"}"#;
        let resp = handle(bad, &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("id").unwrap().as_str(), Some("x"));
        assert_eq!(resp.get("line").unwrap().as_u64(), Some(2));
        assert!(resp.get("error").unwrap().as_str().unwrap().contains('c'));
    }

    #[test]
    fn malformed_inputs_answer_instead_of_crashing() {
        let hub = Hub::new();
        for line in [
            "",
            "not json",
            "{}",
            r#"{"cmd":"frob"}"#,
            r#"{"cmd":"compile"}"#,
            r#"{"cmd":"compile","source":"input"}"#,
            r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) end","width":0}"#,
            r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) end","ports":0}"#,
            r#"{"cmd":"dse","source":"input a; output b = im(x,y) a(x,y) end","strategy":"frob"}"#,
            // u32 overflow must reject, not silently truncate to width 1.
            r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) end","width":4294967297}"#,
            // Type errors on `timing` answer like every other field.
            r#"{"cmd":"ping","timing":"yes"}"#,
            // Random-budget DoS: a giant samples value must reject, not
            // fall back to enumerating the full design space.
            r#"{"cmd":"dse","source":"input a; output b = im(x,y) a(x,y) end","strategy":"random","samples":1000000000}"#,
            // Blocks smaller than a pixel: the planner refuses them before
            // it sizes a line buffer.
            r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y-1) + a(x,y+1) end","block_bits":0}"#,
            r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y-1) + a(x,y+1) end","block_bits":8}"#,
            r#"{"cmd":"dse","source":"input a; output b = im(x,y) a(x,y-1) + a(x,y+1) end","block_bits":8}"#,
        ] {
            let resp = handle(line, &hub);
            assert_eq!(
                resp.get("ok"),
                Some(&Json::Bool(false)),
                "line {line:?} must fail gracefully"
            );
        }
    }

    /// A compile request for the `+ {i}` variant of a one-stage program
    /// at 16x12, with `extra` members.
    fn variant(i: usize, extra: &str) -> String {
        format!(
            r#"{{"id":{i},"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) + {i} end","width":16,"height":12{extra}}}"#
        )
    }

    #[test]
    fn point_memo_stays_bounded() {
        let within_caps = |hub: &Hub, what: &str| {
            let points = hub.live_points();
            assert!(points <= MAX_POINTS, "{what}: {points} points");
            let (verdicts, bytes) = hub.admission_memo();
            assert!(verdicts <= MAX_ADMISSIONS, "{what}: {verdicts} verdicts");
            assert!(bytes <= MAX_ADMISSION_BYTES, "{what}: {bytes} bytes");
        };
        // Stream more distinct pipelines than the cap, then one pipeline
        // under more distinct targets than the cap: the memo evicts
        // instead of growing.
        let hub = Hub::new();
        for i in 0..(MAX_POINTS + 5) {
            let resp = handle(&variant(i, ""), &hub);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "request {i}");
            within_caps(&hub, &format!("request {i}"));
        }
        for i in 0..(MAX_POINTS + 5) {
            let bits = 4096 + 64 * i;
            let resp = handle(&variant(0, &format!(r#","block_bits":{bits}"#)), &hub);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "block_bits {bits}");
            within_caps(&hub, &format!("block_bits {bits}"));
        }
        assert_eq!(hub.live_points(), MAX_POINTS);
        assert_eq!(
            counter(&hub, "cache.evictions"),
            5 + (MAX_POINTS + 5) as u64
        );
        // Distinct rejected programs compile no point, so only the
        // memo's entry cap bounds them.
        for i in 0..(MAX_ADMISSIONS + 5) {
            let line =
                format!(r#"{{"cmd":"compile","source":"input a{i}","width":16,"height":12}}"#);
            assert_eq!(handle(&line, &hub).get("ok"), Some(&Json::Bool(false)));
            within_caps(&hub, &format!("rejection {i}"));
        }
        // A burst of large distinct sources (one pipeline, padded with
        // distinct comments) crosses the byte cap long before the entry
        // cap; one source alone exceeds it and is never retained.
        let padded = |i: usize, bytes: usize| {
            let pad = "x".repeat(bytes);
            format!(
                r#"{{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) end // {i} {pad}","width":16,"height":12}}"#
            )
        };
        let burst = MAX_ADMISSION_BYTES / (64 << 10) + 4;
        for i in 0..burst {
            assert_eq!(
                handle(&padded(i, 64 << 10), &hub).get("ok"),
                Some(&Json::Bool(true))
            );
            within_caps(&hub, &format!("large source {i}"));
        }
        let (_, before) = hub.admission_memo();
        assert_eq!(
            handle(&padded(burst, MAX_ADMISSION_BYTES), &hub).get("ok"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            hub.admission_memo().1,
            before,
            "an oversized source is not retained"
        );
        // And the evicting hub still serves (and re-warms) correctly.
        let cold = handle(&variant(0, ""), &hub);
        let warm = handle(&variant(0, ""), &hub);
        assert_eq!(cold, warm);
    }

    #[test]
    fn point_memo_evicts_the_least_recently_used() {
        let hub = Hub::new();
        let mut first = HashMap::new();
        let mut ask = |i: usize| {
            let resp = handle(&variant(i, ""), &hub);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "request {i}");
            assert_eq!(first.entry(i).or_insert_with(|| resp.clone()), &resp);
            hub.cache_stats()
        };
        for i in 0..MAX_POINTS {
            assert_eq!(ask(i), (0, i + 1), "point {i} compiles once");
        }
        // Point 0 becomes the most recently used, so the 65th point
        // evicts point 1.
        assert_eq!(ask(0), (1, MAX_POINTS));
        assert_eq!(ask(MAX_POINTS), (1, MAX_POINTS + 1));
        assert_eq!(ask(0), (2, MAX_POINTS + 1), "point 0 is still a hit");
        assert_eq!(ask(1), (2, MAX_POINTS + 2), "point 1 was evicted");
        assert_eq!(hub.live_points(), MAX_POINTS);
        assert_eq!(counter(&hub, "cache.evictions"), 2);
    }

    #[test]
    fn planning_failures_are_memoized_like_successes() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/gaussian_pyramid.imagen");
        let source = std::fs::read_to_string(path).unwrap();
        let line = ObjBuilder::new()
            .push("id", Json::Num(3.0))
            .push("cmd", Json::Str("compile".into()))
            .push("name", Json::Str("gaussian_pyramid".into()))
            .push("source", Json::Str(source))
            .push("width", Json::Num(65.0))
            .push("height", Json::Num(49.0))
            .build()
            .to_line();
        let hub = Hub::new();
        let first = handle(&line, &hub);
        let again = handle(&line, &hub);
        assert_eq!(first.get("ok"), Some(&Json::Bool(false)));
        let msg = first.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("does not divide the 65x49 frame"), "{msg}");
        assert_eq!(again, first);
        assert_eq!(hub.cache_stats(), (1, 1), "the failed plan ran once");
    }

    #[test]
    fn coalescing_that_cannot_take_effect_shares_the_plain_point() {
        let plain = variant(0, r#","ports":1"#);
        let inert = variant(0, r#","ports":1,"coalesce":true"#);
        let hub = Hub::new();
        handle(&plain, &hub);
        assert_eq!(
            handle(&inert, &hub),
            handle(&inert, &Hub::new()),
            "the shared point answers as a fresh compile"
        );
        assert_eq!(hub.cache_stats(), (1, 1));
        // Two ports coalesce two rows per block: a point of its own.
        handle(&variant(0, r#","coalesce":true"#), &hub);
        assert_eq!(hub.cache_stats(), (1, 2));
    }

    /// A response without its timing members.
    fn untimed(v: &Json) -> Json {
        match v {
            Json::Obj(m) => Json::Obj(
                m.iter()
                    .filter(|(k, _)| k != "elapsed_us" && k != "phase_us")
                    .cloned()
                    .collect(),
            ),
            _ => unreachable!("responses are objects"),
        }
    }

    fn counter(hub: &Hub, name: &str) -> u64 {
        hub.metrics.snapshot().counter(name)
    }

    #[test]
    fn repeated_compile_runs_no_front_pass() {
        let hub = Hub::new();
        let line = req(r#","timing":true"#);
        let first = handle(&line, &hub);
        let again = handle(&line, &hub);
        let phases = |resp: &Json| -> Vec<String> {
            let Some(Json::Obj(m)) = resp.get("phase_us") else {
                panic!("timing responses carry phase_us");
            };
            m.iter().map(|(k, _)| k.clone()).collect()
        };
        assert!(phases(&first).iter().any(|p| p == "frontend.parse"));
        let repeat = phases(&again);
        assert!(
            !repeat.iter().any(|p| p.starts_with("frontend.")),
            "repeat ran the front end: {repeat:?}"
        );
        assert_eq!(untimed(&again), untimed(&first));
        assert_eq!(counter(&hub, "admission.misses"), 1);
        assert_eq!(counter(&hub, "admission.hits"), 1);
        assert!(hub.stats_line().contains(" admission=1/1 "));
    }

    #[test]
    fn deny_warnings_applies_to_the_memoized_verdict() {
        // W0105: a constant-foldable subexpression.
        let warny = r#"{"id":7,"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) * (2 + 3 * 4) end","width":32,"height":24"#;
        let plain = format!("{warny}}}");
        let denied = format!("{warny},\"deny_warnings\":true}}");
        for order in [[&denied, &plain], [&plain, &denied]] {
            let hub = Hub::new();
            for line in order {
                assert_eq!(handle(line, &hub), handle(line, &Hub::new()), "{line}");
            }
            assert_eq!(counter(&hub, "admission.hits"), 1);
            assert_eq!(counter(&hub, "admission.rejected"), 1);
        }
        let resp = handle(&denied, &Hub::new());
        let msg = resp.get("error").unwrap().as_str().unwrap();
        assert!(msg.starts_with("denied warning[W0105]"), "{msg}");
        let resp = handle(&plain, &Hub::new());
        assert_eq!(resp.get("lint_warnings").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn repeated_parse_error_answers_as_the_first() {
        let hub = Hub::new();
        let bad = r#"{"id":"x","cmd":"compile","source":"input a\noutput b = im(x,y) a(x,y) end"}"#;
        let first = handle(bad, &hub);
        let again = handle(bad, &hub);
        assert_eq!(first.get("ok"), Some(&Json::Bool(false)));
        assert!(
            first.get("line").is_some() && first.get("col").is_some(),
            "{first:?}"
        );
        assert_eq!(again, first);
        assert_eq!(counter(&hub, "admission.rejected"), 2);
        assert_eq!(counter(&hub, "admission.hits"), 1);
    }

    /// `line` with its `"cmd":"compile"` made `"cmd":"dse"`.
    fn as_dse(line: &str) -> String {
        line.replacen(r#""cmd":"compile""#, r#""cmd":"dse""#, 1)
    }

    #[test]
    fn dse_requests_are_admitted_like_compiles() {
        // A dse request, then a compile of the same program and target:
        // one front pass.
        let hub = Hub::new();
        let dse = handle(&as_dse(&req("")), &hub);
        assert_eq!(dse.get("ok"), Some(&Json::Bool(true)), "{dse:?}");
        assert_eq!(handle(&req(""), &hub).get("ok"), Some(&Json::Bool(true)));
        assert_eq!(counter(&hub, "admission.misses"), 1);
        assert_eq!(counter(&hub, "admission.hits"), 1);
        // A warned program under deny_warnings is refused with exactly
        // its compile twin's error.
        let denied = r#"{"id":7,"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) * (2 + 3 * 4) end","width":32,"height":24,"deny_warnings":true}"#;
        let refused = handle(&as_dse(denied), &Hub::new());
        assert_eq!(refused, handle(denied, &Hub::new()));
        let msg = refused.get("error").unwrap().as_str().unwrap();
        assert!(msg.starts_with("denied warning[W0105]"), "{msg}");
        // A parse error keeps the position the front end gives it.
        let source = "input a\noutput b = im(x,y) a(x,y) end";
        let pos = imagen_dsl::compile("pipeline", source)
            .unwrap_err()
            .pos()
            .unwrap();
        let bad = r#"{"id":"x","cmd":"dse","source":"input a\noutput b = im(x,y) a(x,y) end"}"#;
        let resp = handle(bad, &Hub::new());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("line").unwrap().as_u64(), Some(pos.line as u64));
        assert_eq!(resp.get("col").unwrap().as_u64(), Some(pos.col as u64));
    }

    #[test]
    fn line_count_counts_what_lines_counts() {
        for text in ["", "a", "a\n", "a\r\nb", "\n\n"] {
            assert_eq!(line_count(text), text.lines().count(), "{text:?}");
        }
        let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let mut seen = 0;
        for entry in std::fs::read_dir(examples).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "imagen") {
                continue;
            }
            let dag = imagen_dsl::compile("t", &std::fs::read_to_string(&path).unwrap()).unwrap();
            let geom = ImageGeometry {
                width: 64,
                height: 48,
                pixel_bits: 16,
            };
            let spec = MemorySpec::new(MemBackend::Asic { block_bits: 32768 }, 2);
            let verilog = Session::new(&dag, geom)
                .compile(&spec, None)
                .unwrap()
                .verilog;
            assert_eq!(line_count(&verilog), verilog.lines().count(), "{path:?}");
            seen += 1;
        }
        assert_eq!(seen, 10, "every example program");
    }

    #[test]
    fn batch_is_order_preserving_and_thread_invariant() {
        let lines: Vec<String> = (0..10)
            .map(|i| {
                if i % 3 == 0 {
                    format!(r#"{{"id":{i},"cmd":"ping"}}"#)
                } else {
                    req("").replace(r#""id":1"#, &format!(r#""id":{i}"#))
                }
            })
            .collect();
        let sequential = run_batch(&lines, 1, &Hub::new());
        let threaded = run_batch(&lines, 4, &Hub::new());
        assert_eq!(sequential, threaded, "byte-identical across worker counts");
        for (i, resp) in sequential.iter().enumerate() {
            let v = json::parse(resp).unwrap();
            assert_eq!(v.get("id").unwrap().as_u64(), Some(i as u64));
        }
    }

    /// Requests that race on one program or point wait for its first
    /// computation, so at 4 workers every round counts one admission
    /// miss per distinct program and one point miss per distinct point.
    #[test]
    fn memo_misses_count_distinct_keys_at_any_worker_count() {
        let programs = [
            BLUR,
            "input a; output b = im(x,y) a(x,y-1) + a(x,y+1) end",
            "input a; output b = im(x,y) a(x-2,y) - a(x,y) end",
        ];
        let lines: Vec<String> = (0..48)
            .map(|i| {
                let cmd = if (i / 3) % 2 == 0 { "compile" } else { "dse" };
                format!(
                    r#"{{"id":{i},"cmd":"{cmd}","source":"{}","width":32,"height":24}}"#,
                    programs[i % 3]
                )
            })
            .collect();
        for round in 0..20 {
            let hub = Hub::new();
            let responses = run_batch(&lines, 4, &hub);
            assert!(
                responses.iter().all(|r| r.contains(r#""ok":true"#)),
                "round {round}: {responses:?}"
            );
            let counts = [
                counter(&hub, "admission.hits"),
                counter(&hub, "admission.misses"),
            ];
            assert_eq!(counts, [45, 3], "round {round}: admission hits, misses");
            assert_eq!(hub.cache_stats(), (21, 3), "round {round}: point memo");
        }
    }

    #[test]
    fn lint_admission_gates_and_annotates_compiles() {
        let hub = Hub::new();
        // Clean pipeline: zero lint counts in the success payload.
        let resp = handle(&req(""), &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("lint_warnings").unwrap().as_u64(), Some(0));
        assert_eq!(resp.get("lint_notes").unwrap().as_u64(), Some(0));
        // `a << 9` truncates at the 16-bit output: a note, still admitted.
        let noisy = r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) << 9 end","width":32,"height":24}"#;
        let resp = handle(noisy, &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("lint_notes").unwrap().as_u64(), Some(1));
        // A constant-foldable subexpression is a warning: admitted by
        // default, rejected (naming the code) under deny_warnings.
        let warny = r#"{"cmd":"compile","source":"input a; output b = im(x,y) a(x,y) * (2 + 3 * 4) end","width":32,"height":24}"#;
        let resp = handle(warny, &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("lint_warnings").unwrap().as_u64(), Some(1));
        let denied = format!(
            "{},\"deny_warnings\":true}}",
            warny.strip_suffix('}').unwrap()
        );
        let resp = handle(&denied, &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let msg = resp.get("error").unwrap().as_str().unwrap();
        assert!(msg.contains("W0105"), "{msg}");
    }

    #[test]
    fn warm_cache_recompile_is_measurably_faster() {
        let line = req(r#","timing":true"#);
        let phases = |resp: &Json| -> Vec<String> {
            let Some(Json::Obj(m)) = resp.get("phase_us") else {
                panic!("timing responses carry phase_us");
            };
            m.iter().map(|(k, _)| k.clone()).collect()
        };
        let planner_or_codegen = |name: &&String| {
            name.starts_with("plan.")
                || ["ilp.solve", "netlist.build", "emit"].contains(&name.as_str())
        };
        // Five cold requests, each on a fresh hub, and five warm ones on a
        // hub that has answered the request once.
        let cold: Vec<Json> = (0..5).map(|_| handle(&line, &Hub::new())).collect();
        let hub = Hub::new();
        let first = handle(&line, &hub);
        let warm: Vec<Json> = (0..5).map(|_| handle(&line, &hub)).collect();
        let (hits, _) = hub.cache_stats();
        assert!(hits >= 1, "repeat requests hit the point memo");

        // Deterministic: the warm path runs none of the planner and codegen
        // phases the cold one ran.
        let cold_phases: Vec<String> = phases(&cold[0])
            .into_iter()
            .filter(|p| planner_or_codegen(&p))
            .collect();
        assert!(
            cold_phases.iter().any(|p| p == "ilp.solve") && cold_phases.iter().any(|p| p == "emit"),
            "cold request plans and emits: {cold_phases:?}"
        );
        for w in &warm {
            let warm_phases = phases(w);
            for p in &cold_phases {
                assert!(
                    !warm_phases.contains(p),
                    "warm request ran {p}: {warm_phases:?}"
                );
            }
        }

        // And measurably faster: medians of the five timings each side.
        let median_us = |resps: &[Json]| {
            let mut us: Vec<u64> = resps
                .iter()
                .map(|r| r.get("elapsed_us").unwrap().as_u64().unwrap())
                .collect();
            us.sort_unstable();
            us[us.len() / 2]
        };
        let (cold_us, warm_us) = (median_us(&cold), median_us(&warm));
        assert!(
            warm_us * 2 < cold_us.max(1),
            "warm recompile (median {warm_us} us) not measurably faster than cold (median {cold_us} us)"
        );

        // And the deterministic payloads are identical. `phase_us` is
        // timing data too (and the warm path runs fewer phases).
        let strip = |v: &Json| match v {
            Json::Obj(m) => Json::Obj(
                m.iter()
                    .filter(|(k, _)| k != "elapsed_us" && k != "phase_us")
                    .cloned()
                    .collect(),
            ),
            _ => unreachable!(),
        };
        for resp in cold.iter().chain(&warm) {
            assert_eq!(strip(resp), strip(&first));
        }
    }

    #[test]
    fn timing_responses_carry_phase_breakdown() {
        let hub = Hub::new();
        let resp = handle(&req(r#","timing":true"#), &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let Some(Json::Obj(phases)) = resp.get("phase_us") else {
            panic!("timing compile response must carry phase_us");
        };
        let names: Vec<&str> = phases.iter().map(|(k, _)| k.as_str()).collect();
        for expect in [
            "frontend.parse",
            "frontend.lower",
            "plan.skeleton",
            "ilp.solve",
            "netlist.build",
            "emit",
        ] {
            assert!(
                names.contains(&expect),
                "missing phase {expect} in {names:?}"
            );
        }
        // Untimed responses stay exactly as before: no timing members.
        let resp = handle(&req(""), &hub);
        assert!(resp.get("phase_us").is_none());
        assert!(resp.get("elapsed_us").is_none());
    }

    #[test]
    fn stats_cmd_reports_request_mix_and_latency() {
        let hub = Hub::new();
        // A mixed workload: cold compile, warm recompile, ping, a
        // failure, and an unknown command.
        assert_eq!(handle(&req(""), &hub).get("ok"), Some(&Json::Bool(true)));
        assert_eq!(handle(&req(""), &hub).get("ok"), Some(&Json::Bool(true)));
        handle(r#"{"cmd":"ping"}"#, &hub);
        handle(r#"{"cmd":"compile"}"#, &hub);
        handle(r#"{"cmd":"frob"}"#, &hub);
        let resp = handle(r#"{"id":"s","cmd":"stats"}"#, &hub);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("id").unwrap().as_str(), Some("s"));
        let reqs = resp.get("requests").unwrap();
        assert_eq!(reqs.get("total").unwrap().as_u64(), Some(5));
        assert_eq!(reqs.get("compile").unwrap().as_u64(), Some(3));
        assert_eq!(reqs.get("ping").unwrap().as_u64(), Some(1));
        assert_eq!(reqs.get("stats").unwrap().as_u64(), Some(1));
        assert_eq!(reqs.get("other").unwrap().as_u64(), Some(1));
        assert_eq!(resp.get("errors").unwrap().as_u64(), Some(2));
        assert_eq!(resp.get("admission_hits").unwrap().as_u64(), Some(1));
        assert_eq!(resp.get("admission_misses").unwrap().as_u64(), Some(1));
        // The stats request itself is in flight while it snapshots.
        assert_eq!(resp.get("inflight").unwrap().as_u64(), Some(1));
        let cache = resp.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(cache.get("hit_rate"), Some(&Json::Num(0.5)));
        assert_eq!(resp.get("evictions").unwrap().as_u64(), Some(0));
        assert_eq!(resp.get("live_points").unwrap().as_u64(), Some(1));
        let handle_time = resp.get("handle_time").unwrap();
        assert_eq!(handle_time.get("count").unwrap().as_u64(), Some(5));
        assert!(handle_time.get("p50_us").unwrap().as_u64().is_some());
        assert!(handle_time.get("p99_us").unwrap().as_u64().is_some());
        // The embedded registry snapshot round-trips the schema tag.
        let metrics = resp.get("metrics").unwrap();
        assert_eq!(
            metrics.get("schema").unwrap().as_str(),
            Some(imagen_obs::SNAPSHOT_SCHEMA)
        );
    }

    #[test]
    fn capped_lines_split_as_lines_does() {
        // A two-byte buffer makes every line span several reads.
        let text = "abcd\nabcde\n\nab\r\nxyzxyzxyz\nend\r";
        let mut reader = std::io::BufReader::with_capacity(2, text.as_bytes());
        let mut line = Vec::new();
        let mut read = Vec::new();
        loop {
            match read_line_capped(&mut reader, &mut line, 4).unwrap() {
                LineRead::End => break,
                LineRead::TooLong => read.push(None),
                LineRead::Line => read.push(Some(String::from_utf8(line.clone()).unwrap())),
            }
        }
        let lines: Vec<Option<String>> = text
            .lines()
            .map(|l| (l.len() <= 4).then(|| l.to_string()))
            .collect();
        assert_eq!(read, lines);
        assert_eq!(read[3].as_deref(), Some("ab"), "CRLF loses its CR");
        assert_eq!(read[5].as_deref(), Some("end\r"), "a final CR stays");
    }

    #[test]
    fn batch_mode_feeds_queue_wait_histogram() {
        let hub = Hub::new();
        let lines: Vec<String> = (0..4)
            .map(|i| format!(r#"{{"id":{i},"cmd":"ping"}}"#))
            .collect();
        run_batch(&lines, 2, &hub);
        let snap = hub.metrics.snapshot();
        let (_, q) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "queue_wait_us")
            .expect("queue_wait_us registered");
        assert_eq!(q.count, 4, "every batch line records a queue wait");
    }
}
