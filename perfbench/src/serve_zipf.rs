//! `serve-zipf`: this process drives the real `imagen serve --tcp`
//! daemon (`--threads 1`, so one worker per connection) over two
//! closed-loop connections. Requests compile ~160 distinct (pipeline,
//! geometry) pairs with Zipf(1) popularity: 2.5x the daemon's 64 live
//! sessions, so warm hits sit beside cold misses and rollovers.

use crate::common::{
    cpu_s, end_to_end, mean, median, peak_rss_mb, repeat_setup, thread_cpu_s, thread_wait_s,
    Digest, EndToEnd, Metric, Noise, Rng, SetupClock, Timed, SETUPS,
};
use crate::compile_cold::{compile_op, Input, Kept};
use crate::inputs::{self, EXAMPLES};
use crate::json::{self, Json};
use crate::layers::{layer_of, overhead_line, overhead_pct, Layers};
use crate::{calib, check, Args, Outcome};
use imagen_obs::{with_collector, Collector};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Distinct (pipeline, geometry) pairs.
const PAIRS: usize = 160;
/// Requests of the op list per second of `--seconds`.
const REQUESTS_PER_S: f64 = 950.0;
const CONNECTIONS: usize = 2;
/// Throughput and tail are medians over windows of this many consecutive
/// requests, with a calibration slice after each. The tail of a window is
/// then its p95 (the highest percentile with ten samples beyond it), which
/// sits inside the cold-miss class: over the whole run, p99 falls on its
/// extreme and moved about four times as much from run to run.
const WINDOW: usize = 200;
const GRID_W: (u32, u32) = (64, 256);
const GRID_H: (u32, u32) = (48, 192);
const SYNTHETIC_STAGES: std::ops::RangeInclusive<usize> = 9..=24;

#[derive(Clone, Copy)]
enum Kind {
    Example(usize),
    Synthetic(usize),
}

/// Pipeline kinds in popularity-rank order: examples interleaved with
/// synthetic stage counts, so every seed puts the same kinds of
/// pipelines at the same ranks and only the pairs themselves vary.
fn kinds() -> Vec<Kind> {
    let mut out = Vec::new();
    for (j, stages) in SYNTHETIC_STAGES.enumerate() {
        if j < EXAMPLES.len() {
            out.push(Kind::Example(j));
        }
        out.push(Kind::Synthetic(stages));
    }
    out
}

/// A popularity-ranked pair and its request lines (newline included).
struct Pair {
    input: Input,
    line: String,
    traced_line: String,
}

/// The seeded pairs. Rank `r` holds the `r / kinds`-th pair of its kind;
/// a kind's pairs take one geometry from each of as many pixel-count
/// strata of the grid.
fn population(seed: u64) -> Vec<Pair> {
    let mut rng = Rng::new(seed);
    let kinds = kinds();
    let grid = inputs::sorted_grid(GRID_W, GRID_H);
    let stratum_u: Vec<f64> = kinds.iter().map(|_| rng.unit()).collect();
    (0..PAIRS)
        .map(|r| {
            let slot = r % kinds.len();
            let strata = (slot..PAIRS).step_by(kinds.len()).count();
            let geom = inputs::stratum_geometry(&grid, r / kinds.len(), strata, stratum_u[slot]);
            let coalesce = ((r / kinds.len()) + slot / 2) % 2 == 1;
            let input = match kinds[slot] {
                Kind::Example(e) => {
                    let (name, source) = EXAMPLES[e];
                    Input {
                        class: name.to_string(),
                        name: name.to_string(),
                        source: source.to_string(),
                        geom,
                        coalesce,
                        example: true,
                    }
                }
                Kind::Synthetic(stages) => {
                    let (name, source) = inputs::synthetic(stages, &mut rng);
                    Input {
                        class: format!("syn{stages}"),
                        name,
                        source,
                        geom,
                        coalesce,
                        example: false,
                    }
                }
            };
            let line = |timing: &str| {
                format!(
                    "{{\"id\":{r},\"cmd\":\"compile\",\"name\":{},\"source\":{},\"width\":{},\"height\":{},\"coalesce\":{}{timing}}}\n",
                    json::escape(&input.name),
                    json::escape(&input.source),
                    input.geom.width,
                    input.geom.height,
                    input.coalesce,
                )
            };
            Pair {
                line: line(""),
                traced_line: line(",\"timing\":true"),
                input,
            }
        })
        .collect()
}

/// The seeded request sequence: `n` Zipf(1) draws over the ranks.
fn requests(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5A1F_0000_0000_0001);
    let weights: Vec<f64> = (1..=PAIRS).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(PAIRS);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit();
            cdf.partition_point(|c| *c < u).min(PAIRS - 1)
        })
        .collect()
}

/// A running daemon; dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &str) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0", "--threads", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {bin}: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let stdout = daemon.child.stdout.take().ok_or("daemon stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("unexpected daemon greeting {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: s })
    }

    /// Sends one request line and reads its response line into `buf`.
    fn call(&mut self, line: &str, buf: &mut String) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        let mut buf = String::new();
        self.call("{\"id\":\"stats\",\"cmd\":\"stats\"}\n", &mut buf)?;
        json::parse(buf.trim())
    }
}

/// A daemon with its two connections, warmed with every pair once.
struct Warm {
    daemon: Daemon,
    conns: Vec<Conn>,
    responses: Vec<(usize, String)>,
}

fn spawn_and_warm(bin: &str, pairs: &[Pair]) -> Result<Warm, String> {
    let daemon = Daemon::spawn(bin)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(&daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let responses = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || -> Result<Vec<(usize, String)>, String> {
                    let mut out = Vec::new();
                    for (r, pair) in pairs.iter().enumerate().skip(c).step_by(CONNECTIONS) {
                        let mut buf = String::new();
                        conn.call(&pair.line, &mut buf)?;
                        out.push((r, buf));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client thread"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(Warm {
        daemon,
        conns,
        responses: responses.into_iter().flatten().collect(),
    })
}

/// The in-process compile of a pair that its responses must match.
struct Reference {
    sram_kb: f64,
    power_mw: f64,
    obligations: usize,
    kept: Option<Kept>,
}

fn references(pairs: &[Pair]) -> Result<Vec<Reference>, String> {
    pairs
        .iter()
        .map(|p| {
            let out = compile_op(&p.input, p.input.example)?;
            Ok(Reference {
                sram_kb: out.sram_kb,
                power_mw: out.power_mw,
                obligations: out.obligations,
                kept: out.kept,
            })
        })
        .collect()
}

/// Checks one response against its pair's reference.
fn validate(resp: &Json, reference: &Reference, name: &str) -> Result<(), String> {
    if resp.at("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{name}: {}",
            resp.str("error").unwrap_or("error response")
        ));
    }
    if resp.str("certificate_status") != Some("proved") {
        return Err(format!(
            "{name}: certificate {:?}",
            resp.str("certificate_status")
        ));
    }
    if resp.num("sram_kb") != Some(reference.sram_kb)
        || resp.num("power_mw") != Some(reference.power_mw)
    {
        return Err(format!(
            "{name}: served {:?} KB / {:?} mW, in-process {} KB / {} mW",
            resp.num("sram_kb"),
            resp.num("power_mw"),
            reference.sram_kb,
            reference.power_mw
        ));
    }
    Ok(())
}

/// One connection's share of a timed pass.
#[derive(Default)]
struct ConnPass {
    lat_ms: Vec<f64>,
    /// Window of each request.
    window: Vec<usize>,
    pairs: Vec<usize>,
    bytes: Vec<usize>,
    /// First response per pair; later responses must equal it byte for
    /// byte (untraced passes).
    first: HashMap<usize, String>,
    mismatched: Vec<usize>,
    /// Every response (traced passes carry timing members).
    lines: Vec<String>,
    wait_s: f64,
    /// Connection 0 only: each window's wall seconds and the calibration
    /// slice (CPU ms) run after it. CPU time, because the daemon may still
    /// be finishing a request's bookkeeping when the slice starts.
    window_s: Vec<f64>,
    slices: Vec<f64>,
}

struct Pass {
    conns: Vec<ConnPass>,
    wall_s: f64,
}

impl Pass {
    /// The pass's latencies, scaled by the host speed the slices around
    /// their window measured (`calib`), with throughput and tail taken per
    /// window.
    fn timed(&self) -> Timed {
        let c0 = &self.conns[0];
        let factors = calib::factors(&c0.slices);
        let mut timed = Timed {
            windows: vec![Vec::new(); factors.len()],
            wall_s: self.wall_s,
            ..Timed::default()
        };
        for c in &self.conns {
            for (&lat, &w) in c.lat_ms.iter().zip(&c.window) {
                timed.windows[w].push(lat / factors[w]);
                timed.raw_ms.push(lat);
            }
        }
        timed.block_tput = timed
            .windows
            .iter()
            .zip(&c0.window_s)
            .zip(&factors)
            .map(|((w, s), f)| w.len() as f64 / (s / f))
            .collect();
        timed.lat_ms = timed.windows.concat();
        timed.factors = factors;
        timed
    }
}

/// Sends `seq` over the connections, one request in flight on each. After
/// every window of about `WINDOW` requests both connections stop and connection
/// 0 runs a calibration slice while the daemon is idle. A connection that
/// fails stops sending but still meets the others at each window's end.
fn timed_pass(
    conns: &mut [Conn],
    pairs: &[Pair],
    seq: &[usize],
    traced: bool,
) -> Result<Pass, String> {
    let windows = (seq.len() / WINDOW).max(1);
    let bound = |w: usize| w * seq.len() / windows;
    let barrier = Barrier::new(CONNECTIONS);
    let failed = AtomicBool::new(false);
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, failed) = (&barrier, &failed);
                s.spawn(move || -> Result<ConnPass, String> {
                    let wait0 = thread_wait_s();
                    let mut out = ConnPass::default();
                    let mut buf = String::new();
                    let mut error = None;
                    barrier.wait();
                    let mut resumed = Instant::now();
                    for w in 0..windows {
                        let mine = (bound(w)..bound(w + 1)).filter(|i| i % CONNECTIONS == c);
                        for i in mine {
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let p = seq[i];
                            let line = if traced {
                                &pairs[p].traced_line
                            } else {
                                &pairs[p].line
                            };
                            let t = Instant::now();
                            if let Err(e) = conn.call(line, &mut buf) {
                                error = Some(e);
                                failed.store(true, Ordering::Relaxed);
                                break;
                            }
                            out.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            out.window.push(w);
                            out.pairs.push(p);
                            out.bytes.push(buf.len());
                            if traced {
                                out.lines.push(buf.clone());
                            } else {
                                match out.first.get(&p) {
                                    Some(first) if *first != buf => {
                                        out.mismatched.push(out.pairs.len() - 1)
                                    }
                                    Some(_) => {}
                                    None => {
                                        out.first.insert(p, buf.clone());
                                    }
                                }
                            }
                        }
                        barrier.wait();
                        if c == 0 {
                            out.window_s.push(resumed.elapsed().as_secs_f64());
                            out.slices.push(calib::slice(thread_cpu_s));
                        }
                        barrier.wait();
                        resumed = Instant::now();
                    }
                    out.wait_s = thread_wait_s() - wait0;
                    error.map_or(Ok(out), Err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(Pass {
        conns: results,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .imagen
        .as_deref()
        .ok_or("serve-zipf needs --imagen <path to the imagen binary>")?;
    let n_requests = ((args.seconds * REQUESTS_PER_S).round() as usize).max(2 * PAIRS);
    // Set-up: generate the pairs, compile each in-process (the response
    // oracle), spawn the daemon and warm it with every pair once.
    let (setup_s, (pairs, refs, mut warm)) = repeat_setup(SETUPS, SetupClock::Wall, || {
        let pairs = population(args.seed);
        let refs = references(&pairs)?;
        let warm = spawn_and_warm(bin, &pairs)?;
        Ok((pairs, refs, warm))
    })?;
    let seq = requests(args.seed, n_requests);
    println!(
        "serve-zipf: seed {} | {} distinct pairs | {n_requests} requests over {CONNECTIONS} connections | daemon pid {}",
        args.seed,
        pairs.len(),
        warm.daemon.pid()
    );

    let mut failures: Vec<String> = Vec::new();
    let mut bad_pairs: Vec<usize> = Vec::new();
    for (r, line) in &warm.responses {
        let checked =
            json::parse(line.trim()).and_then(|j| validate(&j, &refs[*r], &pairs[*r].input.name));
        if let Err(e) = checked {
            failures.push(format!("warm-up: {e}"));
            bad_pairs.push(*r);
        }
    }

    let before = warm.conns[0].stats()?;
    let cpu0 = cpu_s(warm.daemon.pid());
    let mut noise = Noise::start();
    let pass = timed_pass(&mut warm.conns, &pairs, &seq, false)?;
    noise.stop(pass.conns.iter().map(|c| c.wait_s).sum());
    noise.daemon_cpu_s = Some(cpu_s(warm.daemon.pid()) - cpu0);
    let rss_mb = peak_rss_mb(Some(warm.daemon.pid()));
    let after = warm.conns[0].stats()?;
    let timed = pass.timed();

    // Every response of a pair equals its first, on both connections,
    // and that response matches the in-process compile.
    let mut first: BTreeMap<usize, &String> = BTreeMap::new();
    for c in &pass.conns {
        for (p, line) in &c.first {
            if first.get(p).is_some_and(|f| *f != line) {
                failures.push(format!(
                    "{}: responses differ between connections",
                    pairs[*p].input.name
                ));
                bad_pairs.push(*p);
            }
            first.entry(*p).or_insert(line);
        }
    }
    for (p, line) in &first {
        let checked =
            json::parse(line.trim()).and_then(|j| validate(&j, &refs[*p], &pairs[*p].input.name));
        if let Err(e) = checked {
            failures.push(e);
            bad_pairs.push(*p);
        }
    }
    // Oracle checks, untimed: every example pair interpreted against the
    // golden executor.
    let mut energy: BTreeMap<usize, f64> = BTreeMap::new();
    for (p, reference) in refs.iter().enumerate() {
        if let Some(k) = &reference.kept {
            match check::interpret_against_golden(&k.dag, &k.net, &k.design) {
                Ok(e) => {
                    energy.insert(p, e);
                }
                Err(e) => {
                    failures.push(e);
                    bad_pairs.push(p);
                }
            }
        }
    }
    let mut failed = 0u64;
    for c in &pass.conns {
        failed += c.mismatched.len() as u64;
        failed += c.pairs.iter().filter(|p| bad_pairs.contains(p)).count() as u64;
    }

    let mut digest = Digest::new();
    for (p, r) in refs.iter().enumerate() {
        digest.add(p as u64);
        digest.add(r.sram_kb.to_bits());
        digest.add(r.power_mw.to_bits());
    }
    println!("{}", noise.line(&timed));
    println!(
        "distinct pairs requested: {} of {} ({} example pairs checked against the golden executor) | digest {}",
        first.len(),
        pairs.len(),
        energy.len(),
        digest.hex()
    );
    print_stats("after the timed phase", &after);

    let metrics = if args.trace {
        drop(warm);
        let mut traced_warm = spawn_and_warm(bin, &pairs)?;
        let traced = timed_pass(&mut traced_warm.conns, &pairs, &seq, true)?;
        let traced_after = traced_warm.conns[0].stats()?;
        drop(traced_warm);
        print_stats("after the traced phase", &traced_after);
        let (m, traced_failed) = report_layers(
            &pass,
            &traced,
            &pairs,
            &refs,
            &before,
            &after,
            &mut failures,
        )?;
        failed += traced_failed;
        m
    } else {
        drop(warm);
        let requested: Vec<usize> = first.keys().copied().collect();
        end_to_end(
            &timed,
            &EndToEnd {
                setup_s,
                rss_mb,
                sram_kb: requested.iter().map(|p| refs[*p].sram_kb).sum(),
                power_mw: requested.iter().map(|p| refs[*p].power_mw).sum(),
                energy_pj: requested.iter().filter_map(|p| energy.get(p)).sum(),
            },
        )
    };
    for f in failures.iter().take(10) {
        println!("FAILED: {f}");
    }
    Ok(Outcome {
        attempted: seq.len() as u64,
        failed: failed.min(seq.len() as u64),
        metrics,
    })
}

fn print_stats(label: &str, s: &Json) {
    println!(
        "stats {label}: requests {} | errors {} | cache {} hits / {} misses | rollovers {} | live sessions {} | queue wait p50/p99 {}/{} us | handle p50/p99 {}/{} us",
        s.num("requests.total").unwrap_or(0.0),
        s.num("errors").unwrap_or(0.0),
        s.num("cache.hits").unwrap_or(0.0),
        s.num("cache.misses").unwrap_or(0.0),
        s.num("generation_rollovers").unwrap_or(0.0),
        s.num("live_sessions").unwrap_or(0.0),
        s.num("queue_wait.p50_us").unwrap_or(0.0),
        s.num("queue_wait.p99_us").unwrap_or(0.0),
        s.num("handle_time.p50_us").unwrap_or(0.0),
        s.num("handle_time.p99_us").unwrap_or(0.0),
    );
}

/// One traced response: latency, the daemon's handle time and phases.
struct TracedResponse {
    pair: usize,
    lat_ms: f64,
    elapsed_ms: f64,
    phases: Vec<(String, f64)>,
}

fn report_layers(
    untraced: &Pass,
    traced: &Pass,
    pairs: &[Pair],
    refs: &[Reference],
    before: &Json,
    after: &Json,
    failures: &mut Vec<String>,
) -> Result<(Vec<Metric>, u64), String> {
    let mut responses = Vec::new();
    let mut failed = 0u64;
    for c in &traced.conns {
        for ((line, &pair), &lat_ms) in c.lines.iter().zip(&c.pairs).zip(&c.lat_ms) {
            let j = json::parse(line.trim())?;
            if let Err(e) = validate(&j, &refs[pair], &pairs[pair].input.name) {
                failures.push(format!("traced: {e}"));
                failed += 1;
            }
            let phases = match j.at("phase_us") {
                Some(Json::Obj(m)) => m
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            if let Json::Num(us) = v { us / 1e3 } else { 0.0 },
                        )
                    })
                    .collect(),
                _ => Vec::new(),
            };
            responses.push(TracedResponse {
                pair,
                lat_ms,
                elapsed_ms: j.num("elapsed_us").unwrap_or(0.0) / 1e3,
                phases,
            });
        }
    }
    let n = responses.len().max(1) as f64;
    let is_cold = |r: &TracedResponse| r.phases.iter().any(|(k, _)| k == "ilp.solve");
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for r in &responses {
        for (k, ms) in &r.phases {
            *by_layer.entry(layer_of(k)).or_default() += ms;
        }
    }
    // Admission and certify have no span in the daemon: replay them
    // in-process per pair, then weight by the traced request mix
    // (certify runs on cold requests; warm ones reuse the memo).
    let mut replay: Vec<Layers> = Vec::new();
    for p in pairs {
        let collector = Arc::new(Collector::new());
        with_collector(&collector, || compile_op(&p.input, false))?;
        let mut l = Layers::default();
        l.add_op(&collector.spans(), 1.0);
        replay.push(l);
    }
    let cold: Vec<&TracedResponse> = responses.iter().filter(|r| is_cold(r)).collect();
    let warm: Vec<&TracedResponse> = responses.iter().filter(|r| !is_cold(r)).collect();
    let admission = responses
        .iter()
        .map(|r| replay[r.pair].ms_per_op("analysis.admission"))
        .sum::<f64>()
        / n;
    let certify = cold
        .iter()
        .map(|r| replay[r.pair].ms_per_op("analysis.certify"))
        .sum::<f64>()
        / n;
    let handle: Vec<f64> = responses.iter().map(|r| r.elapsed_ms).collect();
    let transport: Vec<f64> = responses.iter().map(|r| r.lat_ms - r.elapsed_ms).collect();
    let unattributed: Vec<f64> = responses
        .iter()
        .map(|r| r.elapsed_ms - r.phases.iter().map(|(_, ms)| ms).sum::<f64>())
        .collect();
    let cold_p50 = median(&cold.iter().map(|r| r.lat_ms).collect::<Vec<_>>());
    let warm_p50 = median(&warm.iter().map(|r| r.lat_ms).collect::<Vec<_>>());
    let delta = |k: &str| after.num(k).unwrap_or(0.0) - before.num(k).unwrap_or(0.0);
    let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
    let bytes: Vec<f64> = untraced
        .conns
        .iter()
        .flat_map(|c| c.bytes.iter().map(|b| *b as f64))
        .collect();
    let handle_total: f64 = handle.iter().sum();

    println!(
        "\n## per-layer time per request (serve-zipf, {} traced requests)",
        responses.len()
    );
    println!("{:<22} {:>12} {:>7}", "layer", "ms/request", "share");
    let mut rows: Vec<(&str, f64)> = by_layer.iter().map(|(k, v)| (*k, v / n)).collect();
    rows.extend([
        ("analysis.admission*", admission),
        ("analysis.certify*", certify),
        ("cli.unattributed", mean(&unattributed)),
        ("cli.transport", mean(&transport)),
    ]);
    let lat_mean = mean(&responses.iter().map(|r| r.lat_ms).collect::<Vec<_>>());
    for (k, v) in &rows {
        println!("{k:<22} {v:>12.4} {:>6.1}%", 100.0 * v / lat_mean.max(1e-9));
    }
    println!("(* replayed in-process per pair; both sit inside cli.unattributed in the daemon)");
    println!(
        "cold requests: {} (p50 {cold_p50:.3} ms) | warm: {} (p50 {warm_p50:.3} ms) | timed-phase cache: {hits} hits / {misses} misses",
        cold.len(),
        warm.len()
    );
    println!(
        "unattributed share of handle time: {:.2}%",
        100.0 * unattributed.iter().sum::<f64>() / handle_total.max(1e-9)
    );
    println!("{}", overhead_line(untraced.wall_s, traced.wall_s));

    let per_layer_ms = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0) / n;
    let m = vec![
        ("analysis.admission_ms", admission),
        ("dsl.compile_ms", per_layer_ms("dsl.compile")),
        ("schedule.skeleton_ms", per_layer_ms("schedule.skeleton")),
        ("schedule.formulate_ms", per_layer_ms("schedule.formulate")),
        ("ilp.solve_ms", per_layer_ms("ilp.solve")),
        ("schedule.realize_ms", per_layer_ms("schedule.realize")),
        ("rtl.netlist_build_ms", per_layer_ms("rtl.netlist_build")),
        ("rtl.emit_ms", per_layer_ms("rtl.emit")),
        ("analysis.certify_ms", certify),
        (
            "analysis.obligations",
            cold.iter()
                .map(|r| refs[r.pair].obligations as f64)
                .sum::<f64>()
                / n,
        ),
        ("cli.handle_ms", mean(&handle)),
        ("cli.transport_ms", mean(&transport)),
        ("cli.cold_ms_p50", cold_p50),
        ("cli.warm_ms_p50", warm_p50),
        ("cli.unattributed_ms", mean(&unattributed)),
        ("core.cache_hit_ratio", hits / (hits + misses).max(1.0)),
        ("cli.rollovers", delta("generation_rollovers")),
        (
            "cli.live_sessions",
            after.num("live_sessions").unwrap_or(0.0),
        ),
        (
            "cli.queue_wait_ms_p99",
            after.num("queue_wait.p99_us").unwrap_or(0.0) / 1e3,
        ),
        ("cli.response_bytes", median(&bytes)),
        (
            "obs.unattributed_share",
            unattributed.iter().sum::<f64>() / handle_total.max(1e-9),
        ),
        (
            "obs.tracing_overhead_pct",
            overhead_pct(untraced.wall_s, traced.wall_s),
        ),
    ];
    Ok((crate::per_layer(m), failed))
}
