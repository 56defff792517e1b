//! The metrics registry: named atomic counters, gauges, and log-scale
//! histograms, with racing-safe snapshots and a stable JSON export.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema tag of the JSON produced by [`MetricsSnapshot::to_json`].
pub const SNAPSHOT_SCHEMA: &str = "imagen-metrics/1";

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (all adds are kept but
    /// only visible through [`Counter::get`]).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (e.g. in-flight requests). Cloning
/// shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: values 0–3 exactly, then 4 linear
/// sub-buckets per power of two up to `u64::MAX` (relative bucket width
/// ≤ 25%, plenty for latency percentiles).
const HIST_BUCKETS: usize = 252;

fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let p = 63 - v.leading_zeros() as usize; // p >= 2
    let sub = ((v >> (p - 2)) & 3) as usize;
    4 + (p - 2) * 4 + sub
}

/// `[lower, upper]` value range covered by bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 4 {
        return (idx as u64, idx as u64);
    }
    let p = 2 + (idx - 4) / 4;
    let sub = ((idx - 4) % 4) as u64;
    let lo = (1u64 << p) + (sub << (p - 2));
    let hi = lo + ((1u64 << (p - 2)) - 1);
    (lo, hi)
}

#[derive(Debug)]
struct HistCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// microseconds). Recording is wait-free; snapshots race writers
/// safely. Cloning shares the cells.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistCells>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistCells {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// `[lower, upper]` bounds of the bucket holding the exact
    /// `q`-quantile (0 < q ≤ 1) of the samples recorded so far, or
    /// `None` when empty. The exact order statistic always lies within
    /// the returned range.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_from_buckets(&counts, q)
    }

    /// A consistent-enough summary of the histogram. Percentiles are
    /// the upper bound of the bucket holding the exact rank, clamped to
    /// the recorded `[min, max]`: the exact order statistic lies in both
    /// ranges, so the clamped value still bounds it from above, and a
    /// percentile never exceeds the largest sample.
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &self.0;
        let counts: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let min = if total == 0 {
            0
        } else {
            c.min.load(Ordering::Relaxed)
        };
        let max = c.max.load(Ordering::Relaxed);
        // A snapshot racing a first sample can read `min > max`; the
        // upper clamp goes last, so no percentile exceeds `max`.
        let q =
            |q: f64| quantile_from_buckets(&counts, q).map_or(0, |(_, hi)| hi.max(min).min(max));
        HistSnapshot {
            count: total,
            sum: c.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

/// Walks the copied bucket counts to the bucket containing the exact
/// `q`-quantile rank and returns its value bounds.
fn quantile_from_buckets(counts: &[u64], q: f64) -> Option<(u64, u64)> {
    let total: u64 = counts.iter().sum();
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // Rank of the order statistic: ceil(q * total), clamped to 1..=total.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (idx, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Some(bucket_bounds(idx));
        }
    }
    None
}

/// Point-in-time summary of one [`Histogram`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wraps only after ~585 years of microseconds).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Upper bound of the bucket holding the median, clamped to
    /// `[min, max]`.
    pub p50: u64,
    /// Upper bound of the bucket holding the 90th percentile, clamped to
    /// `[min, max]`.
    pub p90: u64,
    /// Upper bound of the bucket holding the 99th percentile, clamped to
    /// `[min, max]`.
    pub p99: u64,
}

impl HistSnapshot {
    /// Mean sample value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// The metrics registry. Registration (`counter`/`gauge`/`histogram`)
/// takes a short mutex and returns a shared handle; all subsequent
/// updates through the handle are lock-free atomics. Get-or-create
/// semantics: the same name always yields the same cell.
#[derive(Default)]
pub struct Metrics {
    inner: Mutex<Registry>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.inner.lock().unwrap();
        if let Some((_, c)) = reg.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::default();
        reg.counters.push((name.to_string(), c.clone()));
        c
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut reg = self.inner.lock().unwrap();
        if let Some((_, g)) = reg.gauges.iter().find(|(n, _)| n == name) {
            return g.clone();
        }
        let g = Gauge::default();
        reg.gauges.push((name.to_string(), g.clone()));
        g
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = self.inner.lock().unwrap();
        if let Some((_, h)) = reg.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::default();
        reg.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// Reads every registered instrument. The registry mutex is held
    /// only while cloning the handle lists; the atomic reads race any
    /// live writers, which is safe (each cell is read independently).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let (counters, gauges, histograms) = {
            let reg = self.inner.lock().unwrap();
            (
                reg.counters.clone(),
                reg.gauges.clone(),
                reg.histograms.clone(),
            )
        };
        let mut snap = MetricsSnapshot {
            counters: counters.into_iter().map(|(n, c)| (n, c.get())).collect(),
            gauges: gauges.into_iter().map(|(n, g)| (n, g.get())).collect(),
            histograms: histograms
                .into_iter()
                .map(|(n, h)| (n, h.snapshot()))
                .collect(),
        };
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

/// Point-in-time view of a [`Metrics`] registry, sorted by name.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistSnapshot)>,
}

pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl MetricsSnapshot {
    /// The value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Serializes to one deterministic `imagen-metrics/1` JSON line
    /// (objects sorted by name, integers only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"");
        out.push_str(SNAPSHOT_SCHEMA);
        out.push_str("\",\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, n);
            out.push_str(&format!(
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_cover() {
        let mut prev = 0usize;
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            15,
            16,
            100,
            1000,
            1 << 20,
            (1 << 20) + 17,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            assert!(idx < HIST_BUCKETS);
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    /// Percentiles against exact reference quantiles: the true order
    /// statistic must lie within the reported bucket's bounds.
    #[test]
    fn percentiles_bracket_exact_quantiles() {
        let cases: Vec<Vec<u64>> = vec![
            (1..=100).collect(),
            (0..1000).map(|i| i * i).collect(),
            vec![42; 500],
            (0..257).map(|i| 1u64 << (i % 40)).collect(),
        ];
        for values in cases {
            let h = Histogram::detached();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                let (lo, hi) = h.quantile_bounds(q).unwrap();
                assert!(
                    lo <= exact && exact <= hi,
                    "q={q}: exact {exact} outside [{lo}, {hi}] (n={})",
                    sorted.len()
                );
            }
        }
    }

    #[test]
    fn snapshot_summarizes() {
        let h = Histogram::detached();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!(s.p50 >= 50 && s.p50 <= 63, "p50={}", s.p50);
        assert!(s.p99 >= 99, "p99={}", s.p99);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    /// Samples that end mid-bucket: 300..=346 fill `[256, 319]` and the
    /// bottom of `[320, 383]`, so every percentile's bucket runs past the
    /// largest sample, and each reads that sample instead. A lone
    /// repeated value reads itself at every percentile.
    #[test]
    fn percentiles_stay_within_the_recorded_range() {
        let h = Histogram::detached();
        for v in 300..=346u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_bounds(0.99), Some((320, 383)));
        let s = h.snapshot();
        assert_eq!((s.min, s.max), (300, 346));
        assert_eq!((s.p50, s.p90, s.p99), (346, 346, 346));

        let h = Histogram::detached();
        for _ in 0..10 {
            h.record(330);
        }
        let s = h.snapshot();
        assert_eq!(
            (s.min, s.max, s.p50, s.p90, s.p99),
            (330, 330, 330, 330, 330)
        );

        // Below the last bucket the bound is the bucket's: 1..=100 puts
        // the median in `[48, 55]`.
        let h = Histogram::detached();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!((s.p50, s.p99), (55, 100));
    }

    #[test]
    fn registry_get_or_create_shares_cells() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(m.counter("x").get(), 5);
        let g = m.gauge("inflight");
        g.add(4);
        g.sub(1);
        assert_eq!(m.gauge("inflight").get(), 3);
        let snap = m.snapshot();
        assert_eq!(snap.counter("x"), 5);
        assert_eq!(snap.gauges, vec![("inflight".to_string(), 3)]);
    }

    #[test]
    fn json_export_is_deterministic_and_sorted() {
        let m = Metrics::new();
        m.counter("b.second").add(2);
        m.counter("a.first").add(1);
        m.histogram("lat_us").record(7);
        let j = m.snapshot().to_json();
        assert!(j.starts_with("{\"schema\":\"imagen-metrics/1\""));
        assert!(j.find("a.first").unwrap() < j.find("b.second").unwrap());
        assert!(j.contains("\"lat_us\":{\"count\":1,\"sum\":7,\"min\":7,\"max\":7"));
        assert_eq!(j, m.snapshot().to_json());
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::detached();
        assert_eq!(h.quantile_bounds(0.5), None);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }
}
