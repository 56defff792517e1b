//! Integration tests of the `imagen` binary: golden-pinned `compile`,
//! `dse` and `certify` text, the on-disk `.imagen` example corpus,
//! span-rendered error reporting and exit statuses.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn imagen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_imagen"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("spawn imagen")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "imagen failed ({:?})\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// `imagen --help` and `imagen -h` are the `help` command: the usage text
/// on stdout and exit status 0.
#[test]
fn leading_help_flags_print_usage() {
    let usage = stdout_of(&imagen(&["help"]));
    assert!(usage.contains("USAGE:"), "{usage}");
    for flag in ["--help", "-h"] {
        assert_eq!(stdout_of(&imagen(&[flag])), usage, "imagen {flag}");
    }
}

/// Every `.imagen` file under examples/ (the 7 Tbl. 3 programs plus the
/// user-authored quickstart) compiles through the real binary.
#[test]
fn every_example_compiles_through_the_binary() {
    let dir = repo_root().join("examples");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("imagen") {
            continue;
        }
        count += 1;
        let rel = format!("examples/{}", path.file_name().unwrap().to_string_lossy());
        let out = imagen(&["compile", &rel]);
        let text = stdout_of(&out);
        assert!(text.contains("## Verilog"), "{rel}:\n{text}");
    }
    assert!(count >= 10, "expected the full corpus, found {count} files");
}

/// The multirate pyramid examples are corpus members in good standing:
/// they lint clean under `--deny warnings`, and their lowered DAGs
/// survive a print → reparse round trip with identical fingerprints
/// (rate modifiers included).
#[test]
fn pyramid_examples_round_trip_and_lint_clean() {
    for stem in ["gaussian_pyramid", "laplacian_pyramid"] {
        let rel = format!("examples/{stem}.imagen");
        let out = imagen(&["lint", &rel, "--deny", "warnings"]);
        stdout_of(&out);

        let src = std::fs::read_to_string(repo_root().join(&rel)).unwrap();
        let dag = imagen_dsl::compile(stem, &src).unwrap();
        assert!(dag.is_multirate(), "{stem} should be multirate");
        let printed = imagen_dsl::to_dsl(&dag);
        let again = imagen_dsl::compile(stem, &printed).unwrap();
        assert_eq!(
            dag.fingerprint(),
            again.fingerprint(),
            "{stem}: print -> reparse fingerprint drift\n{printed}"
        );
    }
}

/// Each algorithm's built-in source is the example file named after it
/// (`Canny-m` -> `examples/canny_m.imagen`). `Algorithm::dsl_source`
/// includes a file by path, so the text itself cannot drift; what this
/// checks is that the path is the one the algorithm's name gives, which
/// the CLI steps and the docs rely on.
#[test]
fn each_algorithm_names_its_example_file() {
    for alg in imagen_algos::Algorithm::all() {
        let stem = alg.name().to_lowercase().replace('-', "_");
        let path = repo_root().join(format!("examples/{stem}.imagen"));
        let src =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            alg.dsl_source(),
            src,
            "{} is not the built-in source of {}",
            path.display(),
            alg.name()
        );
    }
}

fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("golden/{name}"));
    if std::env::var("IMAGEN_BLESS").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} (IMAGEN_BLESS=1 to create): {e}", path.display()));
    assert_eq!(
        actual,
        expected,
        "{} drifted; rerun with IMAGEN_BLESS=1 if the change is intended",
        path.display()
    );
}

#[test]
fn compile_text_pinned_on_unsharp_m() {
    let out = imagen(&[
        "compile",
        "examples/unsharp_m.imagen",
        "--name",
        "Unsharp-m",
    ]);
    assert_golden("compile_unsharp_m.txt", &stdout_of(&out));
}

#[test]
fn dse_text_pinned_on_unsharp_m() {
    let out = imagen(&[
        "dse",
        "examples/unsharp_m.imagen",
        "--name",
        "Unsharp-m",
        "--block-bits",
        "2048",
    ]);
    assert_golden("dse_unsharp_m.txt", &stdout_of(&out));
}

/// The full certificate text — every obligation's verdict, proof mode
/// and detail string — on the default target and on a coalesced one.
#[test]
fn certify_text_pinned_on_canny_m() {
    for (golden, extra) in [
        ("certify_canny_m.txt", &[][..]),
        (
            "certify_canny_m_lc128.txt",
            &["--coalesce", "--width", "128"][..],
        ),
    ] {
        let mut args = vec!["certify", "examples/canny_m.imagen", "--name", "Canny-m"];
        args.extend_from_slice(extra);
        assert_golden(golden, &stdout_of(&imagen(&args)));
    }
}

/// The full `imagen energy` text — analytic and measured power, energy
/// per frame, the clock-gating saving and every buffer's activity — on
/// the default ASIC target and on a coalesced multirate pipeline on
/// BRAM.
#[test]
fn energy_text_pinned() {
    for (golden, args) in [
        (
            "energy_canny_m.txt",
            &["energy", "examples/canny_m.imagen", "--name", "Canny-m"][..],
        ),
        (
            "energy_laplacian_pyramid_fpga.txt",
            &[
                "energy",
                "examples/laplacian_pyramid.imagen",
                "--fpga",
                "--coalesce",
            ][..],
        ),
    ] {
        assert_golden(golden, &stdout_of(&imagen(args)));
    }
}

#[test]
fn emitted_verilog_matches_library_output() {
    let dir = std::env::temp_dir().join(format!("imagen_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let v_path = dir.join("unsharp.v");
    let out = imagen(&[
        "compile",
        "examples/unsharp_m.imagen",
        "--name",
        "Unsharp-m",
        "-o",
        v_path.to_str().unwrap(),
    ]);
    stdout_of(&out);
    let via_cli = std::fs::read_to_string(&v_path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let geom = imagen_mem::ImageGeometry {
        width: 64,
        height: 48,
        pixel_bits: 16,
    };
    let spec = imagen_mem::MemorySpec::new(imagen_mem::MemBackend::Asic { block_bits: 32768 }, 2);
    let via_lib = imagen_core::Compiler::new(geom, spec)
        .compile_dag(&imagen_algos::Algorithm::UnsharpM.build())
        .unwrap()
        .verilog;
    assert_eq!(via_cli, via_lib, "CLI and library emit different RTL");
}

/// Rows wider than a block split into column segments, one macro each:
/// sobel's 320-pixel rows span two 4096-bit macros, so its eight macros
/// are 256 words deep, count the 32,768 bits the plan allocates, and
/// select their block by row and column.
#[test]
fn split_rows_size_macros_as_allocated() {
    let args = [
        "compile",
        "examples/sobel.imagen",
        "--width",
        "320",
        "--height",
        "240",
        "--block-bits",
        "4096",
    ];
    let text = stdout_of(&imagen(&args));
    assert!(
        text.contains("SRAM allocated : 4.000 KB over 8 block(s)"),
        "{text}"
    );
    assert!(text.contains("SRAM macros    : 8 (32768 bits)"), "{text}");
    let verilog = stdout_of(&imagen(&[&args[..], &["--emit"]].concat()));
    assert_eq!(
        verilog
            .matches("#(.DEPTH(256), .WIDTH(16), .AW(8))")
            .count(),
        8
    );
    assert!(
        verilog.contains("wire [31:0] wblk = wphys * 2 + (wcol * 16) / 4096;"),
        "{verilog}"
    );
}

/// `energy` prices from the schedule and allocates no frame, so it takes
/// every geometry `compile` takes: a frame smaller than the stencil plus
/// its margin, and one over `sim`'s pixel budget.
#[test]
fn sim_and_energy_run_on_an_example() {
    let out = imagen(&["sim", "examples/sobel.imagen"]);
    let text = stdout_of(&out);
    assert!(text.contains("verdict: PASS"), "{text}");
    for geometry in [
        &[][..],
        &["--width", "4", "--height", "4"],
        &["--width", "7680", "--height", "4320"],
    ] {
        let mut args = vec!["energy", "examples/sobel.imagen"];
        args.extend_from_slice(geometry);
        let text = stdout_of(&imagen(&args));
        assert!(text.contains("analytic"), "{args:?}:\n{text}");
        assert!(text.contains("clock gating"), "{args:?}:\n{text}");
        assert!(text.contains("## Per-buffer activity"), "{args:?}:\n{text}");
        assert!(text.contains("\n  smooth "), "{args:?}:\n{text}");
    }
}

#[test]
fn dsl_errors_render_with_source_spans() {
    let dir = std::env::temp_dir().join(format!("imagen_cli_err_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.imagen");
    std::fs::write(&path, "input a;\noutput b = im(x,y) a(x,y end\n").unwrap();
    let out = imagen(&["compile", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("bad.imagen:2:"), "span present: {stderr}");
    assert!(
        stderr.contains("output b = im(x,y) a(x,y end"),
        "source line shown: {stderr}"
    );
    assert!(stderr.contains('^'), "caret shown: {stderr}");
}

#[test]
fn degenerate_geometry_is_a_clean_error() {
    for args in [
        vec!["compile", "examples/sobel.imagen", "--width", "0"],
        vec!["compile", "examples/sobel.imagen", "--pixel-bits", "0"],
        vec!["compile", "examples/sobel.imagen", "--ports", "0"],
        // ASIC blocks must hold at least one 16-bit pixel.
        vec!["compile", "examples/sobel.imagen", "--block-bits", "0"],
        vec!["compile", "examples/sobel.imagen", "--block-bits", "8"],
        vec!["sim", "examples/xcorr_m.imagen", "--height", "12"],
    ] {
        let out = imagen(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    }
}

/// Exit-code contract: 0 = clean, 1 = findings (lint/certify/sim), 2 =
/// usage or I/O errors. Pinned through the real binary so scripts and CI
/// can branch on the distinction.
#[test]
fn exit_codes_split_findings_from_usage_errors() {
    let dir = std::env::temp_dir().join(format!("imagen_cli_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirty = dir.join("dirty.imagen");
    std::fs::write(
        &dirty,
        "input a;\ndead = im(x,y) a(x,y) + 0 end\noutput b = im(x,y) a(x,y) end\n",
    )
    .unwrap();

    // Findings (unused stage + x+0 identity) under --deny warnings -> 1.
    let out = imagen(&["lint", dirty.to_str().unwrap(), "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(1), "lint findings must exit 1");

    // The same file without --deny lints clean -> 0.
    let out = imagen(&["lint", dirty.to_str().unwrap()]);
    let code = out.status.code();
    assert!(
        code == Some(0) || code == Some(1),
        "lint exit code out of contract: {code:?}"
    );

    // Missing file -> 2 (I/O, not a finding).
    let out = imagen(&["lint", "examples/no_such_file.imagen"]);
    assert_eq!(out.status.code(), Some(2), "missing file must exit 2");

    // Unknown flag -> 2 (usage).
    let out = imagen(&["lint", dirty.to_str().unwrap(), "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");

    // Bad --format value -> 2 (usage).
    let out = imagen(&["lint", dirty.to_str().unwrap(), "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2), "bad --format must exit 2");

    // Unknown command -> 2 (usage), whatever arguments follow it.
    let out = imagen(&["bench", "diff", "a.json", "b.json"]);
    assert_eq!(out.status.code(), Some(2), "unknown command must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command `bench`"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A planning failure under `imagen certify` is one rendered diagnostic
/// and a finding (exit 1), as it is under `imagen lint`.
#[test]
fn certify_reports_a_planning_failure_once() {
    let out = imagen(&[
        "certify",
        "examples/gaussian_pyramid.imagen",
        "--width",
        "15",
    ]);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error[E0003]: stage 2 at cumulative rate (2,2) does not divide the 15x48 frame\n"
    );
    assert_eq!(out.status.code(), Some(1));
    let lint = imagen(&["lint", "examples/gaussian_pyramid.imagen", "--width", "15"]);
    assert_eq!(lint.status.code(), Some(1));
}

/// A reader that goes away is not a crash: with stdout's read end closed
/// before the command starts, every one-shot command stops writing and
/// exits with the status of a normal run, findings included.
#[test]
fn closed_stdout_keeps_the_exit_status() {
    for args in [
        &["help"][..],
        &["compile", "examples/canny_m.imagen", "--emit"],
        &["compile", "examples/sobel.imagen", "--profile"],
        &["lint", "examples/canny_m.imagen", "--prove"],
        &["certify", "examples/canny_m.imagen"],
        &[
            "certify",
            "examples/gaussian_pyramid.imagen",
            "--width",
            "15",
        ],
        &["dse", "examples/unsharp_m.imagen"],
        &["sim", "examples/sobel.imagen"],
        &["energy", "examples/sobel.imagen"],
    ] {
        let normal = imagen(args).status;
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_imagen"))
            .current_dir(repo_root())
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn imagen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        assert_eq!(out.status.code(), normal.code(), "{args:?}:\n{stderr}");
    }
    // Any other failure to write is an I/O error (exit 2).
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = Command::new(env!("CARGO_BIN_EXE_imagen"))
            .arg("help")
            .stdout(full)
            .output()
            .expect("spawn imagen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: writing stdout: "), "{stderr}");
        assert_eq!(out.status.code(), Some(2));
    }
}

/// `imagen certify` proves the whole obligation set on a Tbl. 3 pipeline
/// and reports it per obligation; JSON mode carries the same verdicts.
#[test]
fn certify_proves_an_example_in_both_formats() {
    let out = imagen(&["certify", "examples/unsharp_m.imagen"]);
    let text = stdout_of(&out);
    assert!(text.contains("proved"), "{text}");
    assert!(!text.contains("refuted: 1"), "{text}");

    let out = imagen(&["certify", "examples/unsharp_m.imagen", "--format", "json"]);
    let line = stdout_of(&out);
    assert!(line.contains("\"ok\":true"), "{line}");
    assert!(line.contains("\"status\":\"proved\""), "{line}");
    assert!(line.contains("\"refuted\":0"), "{line}");
    assert!(line.contains("\"obligations\":["), "{line}");
}

/// `lint` and `certify` read `--input-bits N` as the input range
/// `0:2^N-1`, and `--input-range` wins when both are given; USAGE lists
/// the flag under their options.
#[test]
fn input_bits_sets_the_analysis_input_range() {
    let usage = stdout_of(&imagen(&["help"]));
    let options = usage
        .split("LINT / CERTIFY OPTIONS:")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .expect("a LINT / CERTIFY OPTIONS section");
    assert!(options.contains("--input-bits N"), "{options}");
    for cmd in ["certify", "lint"] {
        let run = |extra: &[&str]| {
            let mut args = vec![cmd, "examples/unsharp_m.imagen", "--format", "json"];
            args.extend(extra);
            stdout_of(&imagen(&args))
        };
        let default = run(&[]);
        let bits = run(&["--input-bits", "15"]);
        assert_ne!(bits, default, "{cmd}: --input-bits changed nothing");
        assert_eq!(bits, run(&["--input-range", "0:32767"]), "{cmd}");
        assert_eq!(
            run(&["--input-bits", "15", "--input-range", "0:127"]),
            default,
            "{cmd}: --input-range must win"
        );
    }
}

/// `--profile` reports the solver's work: every "solver pivots" line of
/// a run (one pivot per network-simplex basis exchange) shows the same
/// nonzero count, and a second run repeats it exactly. The simplex starts
/// from the arcs tight at the longest-path point, so Canny-s's 256-point
/// sweep takes fewer pivots than it has points (5,645 from the artificial
/// star).
#[test]
fn profile_pivot_count_is_nonzero_and_repeats() {
    let counts = |args: &[&str]| -> Vec<u64> {
        let text = stdout_of(&imagen(args));
        text.lines()
            .filter_map(|l| l.trim_start().strip_prefix("solver pivots"))
            .map(|rest| rest.trim_start_matches([' ', ':']).parse().unwrap())
            .collect()
    };
    let crash = counts(&["dse", "examples/canny_s.imagen", "--profile"]);
    assert!(!crash.is_empty(), "canny_s dse: no pivot line");
    assert!(
        crash.iter().all(|&c| c < 256 && c == crash[0]),
        "canny_s dse: {crash:?}"
    );
    for args in [
        ["compile", "examples/harris_m.imagen", "--profile"],
        ["dse", "examples/canny_m.imagen", "--profile"],
    ] {
        let first = counts(&args);
        assert!(!first.is_empty(), "{args:?}: no pivot line");
        assert!(
            first.iter().all(|&c| c > 0 && c == first[0]),
            "{args:?}: {first:?}"
        );
        assert_eq!(first, counts(&args), "{args:?}");
    }
}

/// `imagen lint --prove` folds the certificate into the lint report and
/// stays clean (exit 0) on the paper corpus.
#[test]
fn lint_prove_merges_certificate_into_report() {
    let out = imagen(&["lint", "examples/harris_s.imagen", "--prove"]);
    let text = stdout_of(&out);
    assert!(text.contains("certificate: proved"), "{text}");

    let out = imagen(&[
        "lint",
        "examples/harris_s.imagen",
        "--prove",
        "--format",
        "json",
    ]);
    let line = stdout_of(&out);
    assert!(line.contains("\"certificate\":{"), "{line}");
    assert!(line.contains("\"status\":\"proved\""), "{line}");
}

/// `imagen dse --certify` certifies every Pareto-frontier design.
#[test]
fn dse_certify_validates_the_frontier() {
    let out = imagen(&[
        "dse",
        "examples/unsharp_m.imagen",
        "--block-bits",
        "2048",
        "--certify",
    ]);
    let text = stdout_of(&out);
    assert!(text.contains("## Frontier certificates"), "{text}");
    assert!(text.contains("proved"), "{text}");
    assert!(!text.contains("refuted: 1"), "{text}");
}
