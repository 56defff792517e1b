//! Smoke checks for the paper-figure binaries: each experiment must start,
//! produce output and exit 0 on a tiny input (`IMAGEN_SMOKE=1`).
//!
//! This guards the whole experiment surface — any binary that stops
//! compiling fails `cargo build`, and any binary that panics on its
//! shrunken workload fails here, without CI paying for the full
//! paper-scale runs. Each binary also runs once with its stdout reader
//! already closed (`tbl3 | head -0`), where it must stop printing, not
//! panic.

use std::process::{Command, Stdio};

fn run_smoke(exe: &str, expect_stdout: &str) {
    let out = Command::new(exe)
        .env("IMAGEN_SMOKE", "1")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{exe} exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}",
        out.status.code()
    );
    assert!(
        stdout.contains(expect_stdout),
        "{exe} stdout missing {expect_stdout:?}:\n{stdout}"
    );
}

/// Runs `exe` in smoke mode with stdout a pipe whose read end is closed
/// before it starts, so its first write fails.
fn run_with_closed_stdout(exe: &str) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(exe)
        .env("IMAGEN_SMOKE", "1")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && !stderr.contains("panicked"),
        "{exe} with a closed stdout exited with {:?}\n--- stderr ---\n{stderr}",
        out.status.code()
    );
}

macro_rules! smoke_tests {
    ($($name:ident => $expect:expr;)*) => {$(
        #[test]
        fn $name() {
            let exe = env!(concat!("CARGO_BIN_EXE_", stringify!($name)));
            run_smoke(exe, $expect);
            run_with_closed_stdout(exe);
        }
    )*};
}

smoke_tests! {
    tbl3 => "Tbl. 3";
    exp_energy => "analytic vs measured";
    exp_interp_speedup => "program timing geomean";
    exp_throughput => "Sec. 8.1";
    exp_compile_speed => "Sec. 8.2";
    exp_scalability => "Sec. 8.2";
    exp_accel_area => "Sec. 8.3";
    exp_fpga => "Sec. 8.3";
    exp_multi_algo => "Sec. 8.3";
    exp_power_breakdown => "Sec. 8.4";
    fig8a => "Fig. 8a";
    fig8b => "Fig. 8b";
    fig9a => "Fig. 9a";
    fig9b => "Fig. 9b";
    fig10 => "Fig. 10";
}
