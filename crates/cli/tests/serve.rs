//! Integration tests of `imagen serve`: concurrent JSONL batches over
//! stdin/stdout and TCP, pinned byte-identical to sequential runs.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

const BLUR: &str = "input a; output b = im(x,y) (a(x-1,y) + 2*a(x,y) + a(x+1,y)) / 4 end";
const CHAIN: &str =
    "input a; b = im(x,y) (a(x,y-1)+a(x,y+1))/2 end output c = im(x,y) (b(x,y-1)+b(x,y+1))/2 end";

/// A mixed batch of ≥8 compile/dse/ping requests (the CI smoke shape).
fn mixed_batch() -> Vec<String> {
    let mut lines = Vec::new();
    for i in 0..10 {
        lines.push(match i % 4 {
            0 => format!(
                r#"{{"id":{i},"cmd":"compile","name":"blur","source":"{BLUR}","width":32,"height":24}}"#
            ),
            1 => format!(
                r#"{{"id":{i},"cmd":"dse","name":"chain","source":"{CHAIN}","width":32,"height":24,"block_bits":1024}}"#
            ),
            2 => format!(
                r#"{{"id":{i},"cmd":"compile","name":"blur","source":"{BLUR}","width":32,"height":24,"coalesce":true}}"#
            ),
            _ => format!(r#"{{"id":{i},"cmd":"ping"}}"#),
        });
    }
    lines
}

fn serve_stdin(lines: &[String], threads: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_imagen"))
        .args(["serve", "--threads", threads])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn imagen serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all((lines.join("\n") + "\n").as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "serve failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

#[test]
fn concurrent_batch_matches_sequential_byte_for_byte() {
    let lines = mixed_batch();
    let sequential = serve_stdin(&lines, "1");
    let concurrent = serve_stdin(&lines, "4");
    assert_eq!(sequential.len(), lines.len(), "one response per request");
    assert_eq!(
        sequential, concurrent,
        "4-worker batch must be byte-identical to the sequential run"
    );
    for (i, resp) in concurrent.iter().enumerate() {
        assert!(
            resp.contains(&format!("\"id\":{i}")),
            "response {i} out of order: {resp}"
        );
        assert!(resp.contains("\"ok\":true"), "request {i} failed: {resp}");
    }
}

#[test]
fn warm_cache_beats_cold_through_the_binary() {
    // Same compile request twice, sequentially, with timing: the second
    // answer must come from the point memo, measurably faster.
    let line = format!(
        r#"{{"id":0,"cmd":"compile","name":"blur","source":"{BLUR}","width":48,"height":32,"timing":true}}"#
    );
    let responses = serve_stdin(&[line.clone(), line], "1");
    let us = |resp: &str| -> u64 {
        let key = "\"elapsed_us\":";
        let at = resp.find(key).expect("elapsed_us present") + key.len();
        resp[at..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    };
    let (cold, warm) = (us(&responses[0]), us(&responses[1]));
    assert!(
        warm * 2 < cold.max(1),
        "warm recompile ({warm} us) not measurably faster than cold ({cold} us)"
    );
}

struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `imagen serve --tcp` on an ephemeral port with `args`; returns
/// the guard that stops it and the address it listens on.
fn spawn_tcp(args: &[&str]) -> (ServerGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_imagen"))
        .args(["serve", "--tcp", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn imagen serve --tcp");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let guard = ServerGuard(child);
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (guard, addr)
}

/// Sends `text` over one connection from a thread of its own while this
/// thread reads, as a pipelining client must, and returns every response
/// line once the server closes.
fn exchange(addr: &str, text: Vec<u8>) -> Vec<String> {
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut sender = stream.try_clone().unwrap();
    let sending = std::thread::spawn(move || {
        sender.write_all(&text).unwrap();
        sender.shutdown(std::net::Shutdown::Write).unwrap();
    });
    let responses = BufReader::new(stream).lines().map(|l| l.unwrap()).collect();
    sending.join().unwrap();
    responses
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// About 60 request lines pipelined on one connection: cold compiles of
/// four programs at three geometries, two rounds of warm repeats, an
/// `emit`, a dse, pings, refused programs, malformed lines and blank
/// lines. Each worker count must answer in request order exactly as the
/// stdin batch does.
#[test]
fn pipelined_tcp_connection_answers_as_the_stdin_batch() {
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let read = |name: &str| std::fs::read_to_string(examples.join(name)).unwrap();
    let programs = [
        ("blur", BLUR.to_string()),
        ("chain", CHAIN.to_string()),
        ("sobel", read("sobel.imagen")),
        ("unsharp_m", read("unsharp_m.imagen")),
    ];
    let mut lines = Vec::new();
    let mut id = 0;
    let mut push = |lines: &mut Vec<String>, body: String| {
        lines.push(format!(r#"{{"id":{id},{body}"#));
        id += 1;
    };
    for round in 0..3 {
        for (name, source) in &programs {
            for (w, h) in [(32, 24), (48, 32), (64, 48)] {
                push(
                    &mut lines,
                    format!(
                        r#""cmd":"compile","name":"{name}","source":{},"width":{w},"height":{h}}}"#,
                        json_str(source)
                    ),
                );
            }
        }
        push(&mut lines, r#""cmd":"ping"}"#.into());
        push(
            &mut lines,
            r#""cmd":"compile","source":"input a; output b = im(x,y) a(x,y) * (2 + 3 * 4) end","deny_warnings":true}"#.into(),
        );
        lines.push(String::new());
        match round {
            0 => push(
                &mut lines,
                format!(
                    r#""cmd":"dse","name":"chain","source":{},"width":32,"height":24,"block_bits":1024}}"#,
                    json_str(CHAIN)
                ),
            ),
            1 => push(
                &mut lines,
                format!(
                    r#""cmd":"compile","name":"blur","source":{},"width":32,"height":24,"emit":true}}"#,
                    json_str(BLUR)
                ),
            ),
            _ => lines.push("   ".into()),
        }
    }
    lines.extend([
        "not json".to_string(),
        r#"{"a":1} é"#.to_string(),
        r#"{"id":"u","cmd":"frob"}"#.to_string(),
        r#"{"id":"l","cmd":"compile","source":"input"}"#.to_string(),
        String::new(),
    ]);
    for _ in 0..4 {
        push(&mut lines, r#""cmd":"ping"}"#.into());
    }
    assert!((55..=65).contains(&lines.len()), "{} lines", lines.len());
    let expected = serve_stdin(&lines, "1");
    let answered = lines.iter().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(expected.len(), answered, "one response per non-blank line");
    let text = (lines.join("\n") + "\n").into_bytes();
    for threads in ["1", "3"] {
        let (_guard, addr) = spawn_tcp(&["--threads", threads]);
        let responses = exchange(&addr, text.clone());
        assert_eq!(
            responses, expected,
            "--threads {threads}: the connection must answer as the stdin batch"
        );
    }
}

/// A line one byte over the cap is answered with an error, counted as a
/// request and an error, and skipped; the connection keeps serving.
#[test]
fn tcp_line_over_the_cap_is_answered_and_skipped() {
    const MAX_LINE_BYTES: usize = 4 << 20;
    let (_guard, addr) = spawn_tcp(&["--threads", "1"]);
    let mut text = vec![b'x'; MAX_LINE_BYTES + 1];
    text.extend_from_slice(b"\n{\"id\":1,\"cmd\":\"ping\"}\n{\"id\":2,\"cmd\":\"stats\"}\n");
    let responses = exchange(&addr, text);
    assert_eq!(responses.len(), 3, "{responses:?}");
    assert_eq!(
        responses[0],
        r#"{"id":null,"ok":false,"error":"request line longer than 4194304 bytes"}"#
    );
    assert_eq!(responses[1], r#"{"id":1,"ok":true,"pong":true}"#);
    assert!(
        responses[2].contains(r#""requests":{"total":2,"#),
        "{}",
        responses[2]
    );
    assert!(responses[2].contains(r#""errors":1,"#), "{}", responses[2]);
}

#[test]
fn tcp_mode_serves_concurrent_connections() {
    let (guard, addr) = spawn_tcp(&[]);

    let handles: Vec<_> = (0..4)
        .map(|client| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut stream = std::net::TcpStream::connect(&addr).unwrap();
                let mut lines = Vec::new();
                for i in 0..2 {
                    let id = client * 100 + i;
                    lines.push(format!(
                        r#"{{"id":{id},"cmd":"compile","name":"blur","source":"{BLUR}","width":32,"height":24}}"#
                    ));
                }
                stream
                    .write_all((lines.join("\n") + "\n").as_bytes())
                    .unwrap();
                stream
                    .shutdown(std::net::Shutdown::Write)
                    .unwrap();
                let reader = BufReader::new(stream);
                let responses: Vec<String> =
                    reader.lines().map(|l| l.unwrap()).collect();
                assert_eq!(responses.len(), 2, "client {client}");
                for (i, resp) in responses.iter().enumerate() {
                    let id = client * 100 + i;
                    assert!(resp.contains(&format!("\"id\":{id}")), "{resp}");
                    assert!(resp.contains("\"ok\":true"), "{resp}");
                }
                responses
            })
        })
        .collect();
    let mut all: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    drop(guard);
    // Every client got the same deterministic payload (ids aside).
    let strip_id = |line: &str| -> String {
        let at = line.find(",\"ok\"").unwrap();
        line[at..].to_string()
    };
    let first = strip_id(&all[0][0]);
    for responses in &mut all {
        for resp in responses {
            assert_eq!(strip_id(resp), first, "payload drift across connections");
        }
    }
}

/// Every successful compile response carries the translation-validation
/// certificate: an overall status plus the per-obligation verdicts.
#[test]
fn compile_responses_carry_a_proved_certificate() {
    let line = format!(
        r#"{{"id":0,"cmd":"compile","name":"blur","source":"{BLUR}","width":32,"height":24}}"#
    );
    let responses = serve_stdin(&[line], "1");
    let resp = &responses[0];
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"certificate_status\":\"proved\""), "{resp}");
    assert!(resp.contains("\"certificate\":{"), "{resp}");
    assert!(resp.contains("\"refuted\":0"), "{resp}");
    assert!(resp.contains("\"obligations\":["), "{resp}");
}

/// A `"cmd":"stats"` probe after a concurrent mixed batch answers with
/// the operational numbers (through the real binary, threaded).
#[test]
fn stats_cmd_answers_after_a_concurrent_batch() {
    let mut lines = mixed_batch();
    lines.push(r#"{"id":"s","cmd":"stats"}"#.to_string());
    let responses = serve_stdin(&lines, "4");
    let stats = responses.last().unwrap();
    assert!(stats.contains("\"id\":\"s\""), "{stats}");
    assert!(stats.contains("\"ok\":true"), "{stats}");
    for key in [
        "\"requests\":{",
        "\"errors\":",
        "\"admission_rejected\":",
        "\"admission_hits\":",
        "\"admission_misses\":",
        "\"inflight\":",
        "\"queue_wait\":{",
        "\"handle_time\":{",
        "\"p50_us\":",
        "\"p99_us\":",
        "\"cache\":{",
        "\"hit_rate\":",
        "\"evictions\":",
        "\"live_points\":",
        "\"metrics\":{\"schema\":\"imagen-metrics/1\"",
    ] {
        assert!(stats.contains(key), "missing {key} in {stats}");
    }
    // BLUR compiles twice in the batch (ids 0, 4, 8 share a pipeline):
    // the point memo must have seen at least one hit by stats time.
    assert!(stats.contains("\"hits\":"), "{stats}");
}

/// The registry hammer: writer threads pound every cell kind while
/// readers snapshot concurrently. Lives in this file so the TSan CI
/// job (`-p imagen-cli --test serve`) instruments it; the assertions
/// check the invariants that survive racing reads.
#[test]
fn metrics_registry_survives_concurrent_hammering() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    const WRITERS: usize = 4;
    let metrics = imagen_obs::Metrics::new();
    let stop = AtomicBool::new(false);
    // Every writer finishes one full round before the reader starts, so
    // the reader overlaps live writers and `stop` can never win the race
    // to a writer's first iteration, however the threads are scheduled.
    let started = Barrier::new(WRITERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            let metrics = &metrics;
            let stop = &stop;
            let started = &started;
            scope.spawn(move || {
                // Get-or-create races registration on purpose: all four
                // threads must end up sharing the same cells.
                let c = metrics.counter("hammer.count");
                let g = metrics.gauge("hammer.gauge");
                let h = metrics.histogram("hammer.hist");
                let round = |i: u64| {
                    c.add(1);
                    g.add(1);
                    h.record(i % 10_000);
                    g.sub(1);
                };
                round(0);
                started.wait();
                let mut i = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    round(i);
                    i += 1;
                }
            });
        }
        let metrics = &metrics;
        started.wait();
        for _ in 0..50 {
            let snap = metrics.snapshot();
            // Quantiles computed from one frozen bucket read are
            // ordered; min/max race individual records and are not.
            if let Some((_, h)) = snap.histograms.iter().find(|(n, _)| n == "hammer.hist") {
                if h.count > 0 {
                    assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
                }
            }
            let _ = snap.to_json();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let snap = metrics.snapshot();
    assert!(snap.counter("hammer.count") >= WRITERS as u64);
    let gauge = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "hammer.gauge")
        .map(|(_, v)| *v);
    assert_eq!(gauge, Some(0), "every add() paired with a sub()");
}

/// Span tracing under a shared collector across threads, TSan-checked:
/// concurrent guards record into one sink without a data race.
#[test]
fn span_collector_merges_threads_race_free() {
    use std::sync::Arc;
    let collector = Arc::new(imagen_obs::Collector::new());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let collector = Arc::clone(&collector);
            scope.spawn(move || {
                imagen_obs::with_collector(&collector, || {
                    for _ in 0..100 {
                        let _outer = imagen_obs::span("outer");
                        let _inner = imagen_obs::span("inner");
                    }
                });
            });
        }
    });
    let totals = collector.phase_totals();
    let count_of = |name: &str| {
        totals
            .iter()
            .find(|t| t.name == name)
            .map_or(0, |t| t.count)
    };
    assert_eq!(count_of("outer"), 400);
    assert_eq!(count_of("inner"), 400);
}
