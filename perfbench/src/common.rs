//! Pieces every workload shares: the seeded generator, percentiles,
//! the end-to-end metric set, host noise probes from `/proc`, and the
//! result line.

use crate::calib;
use crate::layers::Layers;
use imagen_obs::{with_collector, Collector};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64: the workload generator. Seeded from `--seed` only, so one
/// seed always yields the same op list.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Set-ups per run; `setup_s` is the median of their scaled durations.
pub const SETUPS: usize = 5;

/// Percentiles a tail may be reported at.
const TAIL_LADDER: [f64; 8] = [50.0, 75.0, 80.0, 85.0, 90.0, 95.0, 98.0, 99.0];

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail percentile: the highest of the ladder with at least ten
/// samples beyond its rank (p50 when the run is too small for any).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .fold(50.0, f64::max)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one timed pass measured: per-op latencies and, for serve, the
/// throughput of each window of requests.
///
/// In-process passes time each op by the CPU time of the thread that runs
/// it, which leaves out time the thread was preempted or the host stole
/// its vCPU, and scale it by the host speed measured around the op
/// (`calib`): `lat_ms` holds the scaled times, `raw_ms` the CPU times and
/// `wall_lat_ms` the wall times, the last two for the `noise:` line.
#[derive(Default)]
pub struct Timed {
    pub lat_ms: Vec<f64>,
    /// Requests per second of each serve window.
    pub block_tput: Vec<f64>,
    pub wall_s: f64,
    /// Per-op CPU and wall time, and the host speed factor each op's CPU
    /// time was divided by (in-process passes only).
    pub raw_ms: Vec<f64>,
    pub wall_lat_ms: Vec<f64>,
    pub factors: Vec<f64>,
    /// Calibration slices the pass ran.
    pub slices: usize,
    /// Latencies per window of consecutive completions (serve only): the
    /// tail is then the median over windows of each window's tail, so a
    /// burst of host steal inside a few windows does not set the run's tail.
    pub windows: Vec<Vec<f64>>,
}

impl Timed {
    /// Total op time, seconds.
    pub fn op_s(&self) -> f64 {
        self.lat_ms.iter().sum::<f64>() / 1e3
    }

    /// Ops per second: over the whole op list in-process, the median over
    /// windows of consecutive completions in serve.
    pub fn throughput(&self) -> f64 {
        if self.windows.is_empty() {
            self.lat_ms.len() as f64 / self.op_s()
        } else {
            median(&self.block_tput)
        }
    }

    /// `(tail latency, its percentile, samples it was taken over)`.
    pub fn tail(&self) -> (f64, f64, usize) {
        let sorted = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v
        };
        if self.windows.is_empty() {
            let all = sorted(&self.lat_ms);
            let p = tail_percentile(all.len());
            return (percentile(&all, p), p, all.len());
        }
        let n = self.windows.iter().map(Vec::len).min().unwrap_or(0);
        let p = tail_percentile(n);
        let tails: Vec<f64> = self
            .windows
            .iter()
            .map(|w| percentile(&sorted(w), p))
            .collect();
        (median(&tails), p, n)
    }
}

/// One pass over an in-process op list.
pub struct Pass<T> {
    pub timed: Timed,
    pub ops: Vec<T>,
    /// Per-layer attribution (traced passes only), overall and per class.
    pub layers: Layers,
    pub classes: BTreeMap<String, Layers>,
}

/// Runs the op list in order on this thread, timing every op by its CPU
/// time under a calibration sampler (`calib`). Traced passes
/// install a fresh collector per op and attribute its spans to the op's
/// `class`, converted from wall time to the same scaled basis.
pub fn run_blocks<I, T>(
    blocks: &[Vec<I>],
    traced: bool,
    class: impl Fn(&I) -> String,
    mut op: impl FnMut(&I) -> T,
) -> Pass<T> {
    let mut pass = Pass {
        timed: Timed::default(),
        ops: Vec::new(),
        layers: Layers::default(),
        classes: BTreeMap::new(),
    };
    let mut intervals = Vec::new();
    let mut traces = Vec::new();
    let sampler = calib::Sampler::start();
    let start = Instant::now();
    for input in blocks.iter().flatten() {
        let collector = traced.then(|| Arc::new(Collector::new()));
        let t0 = wall_s();
        let cpu = thread_cpu_s();
        let out = match &collector {
            Some(c) => with_collector(c, || op(input)),
            None => op(input),
        };
        pass.timed.raw_ms.push((thread_cpu_s() - cpu) * 1e3);
        let t1 = wall_s();
        pass.timed.wall_lat_ms.push((t1 - t0) * 1e3);
        intervals.push((t0, t1));
        if let Some(c) = collector {
            traces.push((class(input), c.spans()));
        }
        pass.ops.push(out);
    }
    pass.timed.wall_s = start.elapsed().as_secs_f64();
    let speed = sampler.finish();
    pass.timed.slices = speed.slices();
    pass.timed.factors = intervals
        .iter()
        .map(|&(t0, t1)| speed.factor(t0, t1))
        .collect();
    pass.timed.lat_ms = pass
        .timed
        .raw_ms
        .iter()
        .zip(&pass.timed.factors)
        .map(|(ms, f)| ms / f)
        .collect();
    // Span durations are wall time: the op's scaled time over its wall
    // time puts them on the scaled basis.
    for (i, (class, spans)) in traces.iter().enumerate() {
        let scale = pass.timed.lat_ms[i] / pass.timed.wall_lat_ms[i].max(1e-9);
        pass.layers.add_op(spans, scale);
        pass.classes
            .entry(class.clone())
            .or_default()
            .add_op(spans, scale);
    }
    pass
}

/// The end-to-end metrics shared by every workload.
pub struct EndToEnd {
    pub setup_s: f64,
    pub rss_mb: f64,
    pub sram_kb: f64,
    pub power_mw: f64,
    pub energy_pj: f64,
}

pub fn end_to_end(t: &Timed, e: &EndToEnd) -> Vec<Metric> {
    vec![
        metric("setup_s", e.setup_s, "s"),
        metric("latency_ms_p50", median(&t.lat_ms), "ms"),
        metric("latency_ms_tail", t.tail().0, "ms"),
        metric("throughput_per_s", t.throughput(), "1/s"),
        metric("peak_rss_mb", e.rss_mb, "MB"),
        metric("sram_kb", e.sram_kb, "KB"),
        metric("power_mw", e.power_mw, "mW"),
        metric("energy_pj", e.energy_pj, "pJ/frame"),
    ]
}

/// How `repeat_setup` times and scales a set-up.
#[derive(Clone, Copy)]
pub enum SetupClock {
    /// This thread's CPU time, under a `calib::Sampler` (in-process
    /// workloads).
    ThreadCpu,
    /// Wall time, scaled by calibration slices run on this thread just
    /// before and after each set-up (serve, whose set-up spans processes).
    Wall,
}

/// Runs `setup` `n` times and returns the median of its scaled durations
/// (seconds) with the result of the last run (earlier results are
/// dropped, and with them anything they started).
pub fn repeat_setup<T>(
    n: usize,
    clock: SetupClock,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    match clock {
        SetupClock::ThreadCpu => {
            let sampler = calib::Sampler::start();
            let mut raw = Vec::new();
            for _ in 0..n {
                let (t0, cpu) = (wall_s(), thread_cpu_s());
                last = Some(setup()?);
                raw.push((t0, wall_s(), thread_cpu_s() - cpu));
            }
            let speed = sampler.finish();
            times = raw
                .iter()
                .map(|&(t0, t1, cpu)| cpu / speed.factor(t0, t1))
                .collect();
        }
        SetupClock::Wall => {
            let mut slices = vec![calib::slice(wall_s), calib::slice(wall_s)];
            for _ in 0..n {
                let t = wall_s();
                last = Some(setup()?);
                let dt = wall_s() - t;
                slices.extend([calib::slice(wall_s), calib::slice(wall_s)]);
                let around = &slices[slices.len() - 4..];
                times.push(dt / (median(around) / calib::NOMINAL_MS));
            }
        }
    }
    Ok((median(&times), last.expect("n > 0")))
}

/// CPU time of the calling thread, seconds (`CLOCK_THREAD_CPUTIME_ID`).
/// The kernel's task clock leaves out host steal on a paravirtualized
/// guest, as well as time spent waiting to run.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall-clock seconds since the first call.
pub fn wall_s() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Host steal time so far, seconds (`/proc/stat`, USER_HZ = 100).
fn steal_s() -> f64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Run-queue wait of the calling thread so far, seconds.
pub fn thread_wait_s() -> f64 {
    read("/proc/thread-self/schedstat")
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set (VmHWM) of `pid` (or this process), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/status".to_string(), |p| {
        format!("/proc/{p}/status")
    });
    read(&path)
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU of `pid` so far, seconds.
pub fn cpu_s(pid: u32) -> f64 {
    let stat = read(&format!("/proc/{pid}/stat"));
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    // After the command name: state is field 3, utime 14, stime 15.
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(14) + tick(15)) / 100.0
}

/// Noise probes around a timed phase. Printed beside the metrics, never
/// gated: they tell a noisy run apart from a slow program.
pub struct Noise {
    steal0: f64,
    wait0: f64,
    pub steal_s: f64,
    pub runq_wait_s: f64,
    pub daemon_cpu_s: Option<f64>,
}

impl Noise {
    pub fn start() -> Noise {
        Noise {
            steal0: steal_s(),
            wait0: thread_wait_s(),
            steal_s: 0.0,
            runq_wait_s: 0.0,
            daemon_cpu_s: None,
        }
    }

    /// Closes the window; `extra_wait_s` adds run-queue wait measured on
    /// other benchmark threads (the serve clients).
    pub fn stop(&mut self, extra_wait_s: f64) {
        self.steal_s = steal_s() - self.steal0;
        self.runq_wait_s = thread_wait_s() - self.wait0 + extra_wait_s;
    }

    pub fn line(&self, t: &Timed) -> String {
        let (_, p, n) = t.tail();
        let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
        let over = if t.windows.is_empty() {
            String::new()
        } else {
            format!(" per window, median of {} windows", t.windows.len())
        };
        let mut s = format!(
            "noise: steal_s={:.3} runq_wait_s={:.3} ops={} tail=p{p} (n={n}, {beyond} beyond{over}) timed_wall_s={:.3}",
            self.steal_s,
            self.runq_wait_s,
            t.lat_ms.len(),
            t.wall_s,
        );
        if let Some(cpu) = self.daemon_cpu_s {
            let _ = write!(s, " daemon_cpu_s={cpu:.3}");
        }
        if !t.factors.is_empty() {
            let _ = write!(
                s,
                " speed_factor={:.3} (min {:.3}, max {:.3}) raw_p50_ms={:.4}",
                median(&t.factors),
                t.factors.iter().copied().fold(f64::INFINITY, f64::min),
                t.factors.iter().copied().fold(0.0, f64::max),
                median(&t.raw_ms),
            );
        }
        if !t.wall_lat_ms.is_empty() {
            let _ = write!(
                s,
                " slices={} timed_cpu_s={:.3} wall_p50_ms={:.4}",
                t.slices,
                t.raw_ms.iter().sum::<f64>() / 1e3,
                median(&t.wall_lat_ms)
            );
        }
        s
    }
}

/// The harness's last stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// FNV-1a over the run's deterministic outputs: equal seeds must print
/// equal digests.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
