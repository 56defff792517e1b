//! Host-speed calibration.
//!
//! On the 2-vCPU VM this benchmark was tuned on, the same code ran up to
//! 1.8x slower from one second to the next, with little or no reported
//! steal: the host shares the core, and CPU time cannot tell that apart
//! from a slower program. So the harness times a fixed slice of work and
//! reports op times scaled to the speed at which that slice takes
//! `NOMINAL_MS`. In-process workloads run the slices on a sampler thread
//! pinned to the worker's vCPU, every `PERIOD`, so they sample the speed
//! of that core while each op runs; the serve workload runs one after
//! each window of requests. The slice is the harness's own code and does
//! not depend on the seed or on the code under test, so a change to the
//! program moves the scaled times and a change of host speed does not.
//!
//! The slice mixes what the program's hot paths do: exact `i128` rational
//! arithmetic with gcd reduction over a mostly-zero tableau (the simplex
//! in `imagen_ilp`), vectorizable integer lanes (the netlist evaluation
//! program), and hash-map and allocation churn (session caches,
//! elaboration), in time shares of about 2:3:5. With those shares its
//! time tracked that of cold compiles and measured sweeps through host
//! slowdowns of up to 1.7x with a log-log slope of 1.0-1.1, leaving about
//! 3% of scatter in 3-second medians where the raw times scattered 15%.

use crate::common::{thread_cpu_s, wall_s};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// CPU time of one slice at the reference speed, ms: about what it takes
/// on the 2-vCPU x86-64 VM this benchmark was tuned on when no neighbour
/// contends for the core.
pub const NOMINAL_MS: f64 = 2.2;
/// Slices on each side of a serve window that set its speed.
const HALF_WINDOW: usize = 4;
/// Sleep between the sampler's slices.
const PERIOD: Duration = Duration::from_millis(20);
/// Slices an interval's speed is taken over at least: an interval with
/// fewer inside it is widened on both sides until it has them.
const MIN_SLICES: usize = 3;

/// Runs one slice and returns its time on `clock` (seconds), in ms.
pub fn slice(clock: fn() -> f64) -> f64 {
    let t = clock();
    black_box(work(black_box(0x5EED)));
    (clock() - t) * 1e3
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn work(seed: u64) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Rational pivots: a 96x96 tableau of (num, den), three in four zero.
    let n = 96;
    let mut tab: Vec<(i128, i128)> = (0..n * n)
        .map(|_| match next() % 4 {
            0 => ((next() % 97) as i128 + 1, (next() % 89) as i128 + 1),
            _ => (0, 1),
        })
        .collect();
    for p in 0..2 {
        let (pn, pd) = (tab[p * n + p].0 | 1, tab[p * n + p].1 | 1);
        for i in (0..n).filter(|&i| i != p) {
            for j in 0..n {
                let (a, b) = tab[i * n + j];
                if a == 0 {
                    continue;
                }
                let num = a * pd - b * pn;
                let den = b * pd;
                let g = gcd(num.unsigned_abs(), den.unsigned_abs()).max(1) as i128;
                // Keep magnitudes small, as reduced scheduling systems do.
                tab[i * n + j] = ((num / g) % 1021, (den / g) % 1019 + 1);
            }
        }
    }
    let mut acc = tab
        .iter()
        .fold(0u64, |h, &(a, b)| h.rotate_left(5) ^ (a ^ b) as u64);
    // Integer lanes: add, shift, compare, select.
    let mut lanes: Vec<u32> = (0..8192).map(|_| next() as u32).collect();
    for round in 0..100u32 {
        let k = (round as usize * 37) % 8191 + 1;
        for i in 0..lanes.len() {
            let y = lanes[(i + k) & 8191];
            let s = lanes[i].wrapping_add(y >> 1) ^ round;
            lanes[i] = if s > y { s - y } else { s.rotate_left(3) };
        }
    }
    acc ^= lanes
        .iter()
        .fold(0u64, |h, &v| h.wrapping_mul(31).wrapping_add(v as u64));
    // Hash-map and allocation churn.
    for _ in 0..5 {
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for _ in 0..3000 {
            let key = next() % 1024;
            map.entry(key).or_default().push(key as u32);
            if let Some(v) = map.get(&(next() % 1024)) {
                acc = acc.wrapping_add(v.len() as u64);
            }
        }
        acc ^= map.len() as u64;
    }
    acc
}

/// Slice times over `NOMINAL_MS`: their mean less the fastest and the
/// slowest (above 1 means the host ran slower than the reference). A
/// mean, not a median: the host flips between a fast and a slow state,
/// and an interval that spans both ran at their average.
fn factor_of(mut ms: Vec<f64>) -> f64 {
    ms.sort_by(f64::total_cmp);
    let kept = if ms.len() > 4 {
        &ms[1..ms.len() - 1]
    } else {
        &ms[..]
    };
    if kept.is_empty() {
        return 1.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64 / NOMINAL_MS
}

/// Speed factor of each serve window from the slices run after each: a
/// window of `HALF_WINDOW` slices on each side.
pub fn factors(slices: &[f64]) -> Vec<f64> {
    (0..slices.len())
        .map(|i| {
            let lo = i.saturating_sub(HALF_WINDOW);
            let hi = (i + HALF_WINDOW + 1).min(slices.len());
            factor_of(slices[lo..hi].to_vec())
        })
        .collect()
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to `cpu`. Best effort: a failure leaves the
/// thread where the scheduler puts it.
fn pin(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of `size_of_val(&mask)` bytes;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// One slice of the sampler: its midpoint on `wall_s` and its CPU ms.
struct Slice {
    at: f64,
    ms: f64,
}

/// Samples the speed of the calling thread's vCPU while it works: pins the
/// caller to its current vCPU and runs a slice every `PERIOD` on a thread
/// pinned to the same one. The two take turns on that vCPU, so the
/// worker's CPU time leaves the slices out.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Vec<Slice>>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        // SAFETY: no arguments; returns the caller's vCPU or -1.
        let cpu = unsafe { sched_getcpu() }.max(0) as usize;
        pin(cpu);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            pin(cpu);
            let mut out = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let t = wall_s();
                let ms = slice(thread_cpu_s);
                out.push(Slice {
                    at: (t + wall_s()) / 2.0,
                    ms,
                });
            }
            out
        });
        Sampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the sampler and returns what it measured.
    pub fn finish(mut self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        let thread = self.thread.take().expect("sampler runs until finished");
        Speed(thread.join().expect("calibration sampler"))
    }
}

impl Drop for Sampler {
    /// A sampler dropped on an error path stops too.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The slices a `Sampler` ran.
pub struct Speed(Vec<Slice>);

impl Speed {
    /// Speed factor over the interval `[t0, t1]` on `wall_s`, from the
    /// slices inside it, widened to at least `MIN_SLICES`.
    pub fn factor(&self, t0: f64, t1: f64) -> f64 {
        let mut pad = 0.0;
        loop {
            let ms: Vec<f64> = self
                .0
                .iter()
                .filter(|s| s.at >= t0 - pad && s.at <= t1 + pad)
                .map(|s| s.ms)
                .collect();
            if ms.len() >= MIN_SLICES.min(self.0.len()) {
                return factor_of(ms);
            }
            pad = if pad == 0.0 { 0.005 } else { pad * 2.0 };
        }
    }

    pub fn slices(&self) -> usize {
        self.0.len()
    }
}
