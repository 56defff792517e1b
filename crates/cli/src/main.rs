//! `imagen` — the command-line front door to the ImaGen accelerator
//! generator.
//!
//! The library crates compile *any* Darkroom-style pipeline, but until
//! this binary existed only the baked-in Tbl. 3 workloads were reachable
//! (through the experiment binaries). `imagen` exposes the whole stack
//! on user-authored `.imagen` source files:
//!
//! ```text
//! imagen compile <file>   DAG stats, schedule, memory plan, resources, Verilog
//! imagen lint <file>      static analysis: DSL lints, overflow dataflow,
//!                         schedule invariants, netlist lints
//! imagen dse <file>       design-space exploration with a Pareto table
//! imagen sim <file>       golden-model vs netlist-interpreter differential
//! imagen energy <file>    analytic vs activity-measured power
//! imagen serve            JSONL batch compile server (stdin/stdout or TCP)
//! ```
//!
//! Everything is `std`-only; concurrency is `std::thread::scope`, not an
//! async runtime.

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod json;
mod lint;
mod report;
mod serve;

use imagen_mem::{ImageGeometry, MemBackend, MemorySpec};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::OnceLock;

const USAGE: &str = "\
imagen — memory- and power-efficient image processing accelerator generator

USAGE:
    imagen <COMMAND> [OPTIONS]

COMMANDS:
    compile <file.imagen>   compile a pipeline: stats, schedule, memory plan,
                            netlist resources (and Verilog via --emit / -o)
    lint <file.imagen>      run the static analyzer: DSL lints, width/overflow
                            dataflow, schedule invariants, netlist lints
    certify <file.imagen>   translation validation: symbolically prove the
                            compiled netlist computes the DSL semantics
                            (per-stage datapath + stream-alignment proofs)
    dse <file.imagen>       explore per-stage DP/DPLC memory configurations
    sim <file.imagen>       differential-test the generated netlist against
                            the golden software model on a seeded frame
    energy <file.imagen>    measure activity-based power vs the analytic model
    serve                   answer JSONL compile/dse requests in batch over
                            stdin/stdout (or TCP with --tcp), fanned over a
                            worker pool sharing one admission memo and one
                            memo of compiled points
    stats <snapshot.json>   render an imagen-metrics/1 snapshot (a serve
                            \"cmd\":\"stats\" response also works) as text
    help                    print this text

COMMON OPTIONS:
    --width N        frame width in pixels            [default: 64]
    --height N       frame height in pixels           [default: 48]
    --pixel-bits N   bits per pixel                   [default: 16]
    --block-bits N   ASIC SRAM macro capacity, bits   [default: 32768]
    --fpga           target 36 Kbit FPGA BRAMs instead of ASIC macros
    --ports N        ports per memory block           [default: 2]
    --coalesce       enable line coalescing on every line buffer
    --name NAME      pipeline name                    [default: file stem]

COMPILE OPTIONS:
    --emit           print the generated Verilog to stdout
    -o FILE          write the generated Verilog to FILE

PROFILE OPTIONS (compile, dse):
    --profile        print a per-phase breakdown (span timings, solver
                     pivots, cache traffic; for dse also the distinct
                     line-buffer port checks) after the normal output
    --trace-out FILE write the profile as Chrome trace_event JSON (load in
                     chrome://tracing or Perfetto); implies --profile

LINT / CERTIFY OPTIONS:
    --deny warnings  exit nonzero on warnings, not just errors
    --format F       text | json                      [default: text]
    --input-range L:H  inclusive input pixel range    [default: 0:127]
    --input-bits N   input pixel range 0:2^N-1; --input-range wins when
                     both are given
    --wide           certify against 64/64 datapath widths
    --prove          (lint) also run translation validation and merge the
                     certificate's E05xx/W05xx diagnostics into the report

DSE OPTIONS:
    --strategy S     exhaustive | greedy | random     [default: exhaustive]
    --samples N      random-strategy point budget     [default: 64]
    --seed N         random-strategy seed             [default: 0]
    --threads N      worker threads (0 = all cores)   [default: 0]
    --certify        run translation validation on every Pareto point

SIM OPTIONS:
    --seed N         seed of the generated input frame [default: 0]
    --input-bits N   bits of input noise               [default: 4, or 8 with --wide]
    --wide           interpret at 64/64 datapath widths

SERVE OPTIONS:
    --threads N      worker threads (0 = all cores)   [default: 0]
    --tcp ADDR       listen on ADDR (e.g. 127.0.0.1:7878) instead of stdin
    --stats-every N  print a one-line stats summary to stderr every N
                     completed requests (0 = never)   [default: 0]

EXIT CODES:
    0   success / nothing found
    1   findings: lint or certificate diagnostics, a refuted proof
        obligation, or a failed differential
    2   usage or I/O errors: bad flags, unreadable files, bad geometry

The JSONL protocol served by `imagen serve` is documented in README.md
(\"Using the CLI\").
";

/// The commands `parse_args` admits; `dispatch` runs each.
const COMMANDS: [&str; 9] = [
    "help", "compile", "lint", "certify", "dse", "sim", "energy", "serve", "stats",
];

/// A CLI failure, split by exit code: `Usage` (bad flags, unreadable
/// input, impossible geometry — exit 2) vs `Findings` (the tools ran and
/// found something wrong with the pipeline — exit 1), so scripts can
/// tell "you invoked me wrong" from "your design is broken".
pub enum CliError {
    /// Operator error: exit code 2.
    Usage(String),
    /// Analysis/differential findings: exit code 1.
    Findings(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Findings(m) => m,
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

/// The first error writing stdout hit; once it is set, output stops.
static STDOUT_ERROR: OnceLock<std::io::Error> = OnceLock::new();

/// Writes to stdout: all of the CLI's output goes through here (as
/// [`out!`] and [`outln!`]), because `print!` panics when the reader has
/// gone away (`imagen certify ... | head -3`). After the first failed
/// write nothing more is written, the command still finishes with the
/// status its work earned, and `main` reports any failure other than a
/// broken pipe as an I/O error.
fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_ERROR.get().is_none() {
        if let Err(e) = std::io::stdout().lock().write_fmt(args) {
            let _ = STDOUT_ERROR.set(e);
        }
    }
}

/// Everything parsed from the command line.
pub struct Options {
    pub file: Option<String>,
    pub name: Option<String>,
    pub width: u32,
    pub height: u32,
    pub pixel_bits: u32,
    pub block_bits: u64,
    pub fpga: bool,
    pub ports: u32,
    pub coalesce: bool,
    pub emit: bool,
    pub output: Option<String>,
    pub strategy: String,
    pub samples: usize,
    pub seed: u64,
    pub threads: usize,
    pub input_bits: Option<u32>,
    pub wide: bool,
    pub tcp: Option<String>,
    pub deny_warnings: bool,
    pub format: String,
    pub input_range: Option<(i64, i64)>,
    pub prove: bool,
    pub certify: bool,
    /// `--profile`: print a phase breakdown after compile/dse output.
    pub profile: bool,
    /// `--trace-out FILE`: write the profiled spans as Chrome
    /// trace_event JSON (implies `--profile`).
    pub trace_out: Option<String>,
    /// `serve --stats-every N`: stderr stats line cadence (0 = never).
    pub stats_every: u64,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            file: None,
            name: None,
            width: 64,
            height: 48,
            pixel_bits: 16,
            block_bits: 32768,
            fpga: false,
            ports: 2,
            coalesce: false,
            emit: false,
            output: None,
            strategy: "exhaustive".into(),
            samples: 64,
            // One seed flag serves both the random DSE strategy and the
            // sim input frames; 0 matches the serve protocol's default so
            // CLI and server runs are comparable.
            seed: 0,
            threads: 0,
            input_bits: None,
            wide: false,
            tcp: None,
            deny_warnings: false,
            format: "text".into(),
            input_range: None,
            prove: false,
            certify: false,
            profile: false,
            trace_out: None,
            stats_every: 0,
        }
    }
}

impl Options {
    pub fn geometry(&self) -> ImageGeometry {
        ImageGeometry {
            width: self.width,
            height: self.height,
            pixel_bits: self.pixel_bits,
        }
    }

    pub fn backend(&self) -> MemBackend {
        if self.fpga {
            MemBackend::Fpga
        } else {
            MemBackend::Asic {
                block_bits: self.block_bits,
            }
        }
    }

    pub fn memory_spec(&self) -> MemorySpec {
        let spec = MemorySpec::new(self.backend(), self.ports);
        if self.coalesce {
            spec.with_coalescing()
        } else {
            spec
        }
    }
}

/// Largest frame (pixels) the *frame-allocating* paths accept: `sim`
/// materializes whole images per stage, and the batch server must not let
/// one request allocate unbounded buffers. Pure compilation and pricing
/// (`compile`/`dse`/`energy` from the CLI) allocate no frames and are not
/// capped.
pub const MAX_FRAME_PIXELS: u64 = 1 << 24;

/// Validates a requested geometry. Zero dimensions panic deep in the
/// planner, so they are rejected at the door.
pub fn validate_geometry(geom: &ImageGeometry) -> Result<(), String> {
    if geom.width == 0 || geom.height == 0 {
        return Err(format!("geometry {geom}: frame dimensions must be nonzero"));
    }
    if geom.pixel_bits == 0 || geom.pixel_bits > 64 {
        return Err(format!("geometry {geom}: pixel bits must be in 1..=64"));
    }
    Ok(())
}

/// Enforces [`MAX_FRAME_PIXELS`] — called wherever frames actually get
/// allocated (`sim`, every serve request).
pub fn validate_frame_budget(geom: &ImageGeometry) -> Result<(), String> {
    if geom.pixels() > MAX_FRAME_PIXELS {
        return Err(format!(
            "geometry {geom}: {} pixels exceed the supported {MAX_FRAME_PIXELS}",
            geom.pixels()
        ));
    }
    Ok(())
}

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut opts = Options::default();
    let cmd = match args.first().map(String::as_str) {
        None => return Err("missing command".to_string()),
        Some("-h" | "--help") => "help".to_string(),
        Some(cmd) if COMMANDS.contains(&cmd) => cmd.to_string(),
        Some(cmd) => return Err(format!("unknown command `{cmd}`")),
    };
    let mut it = args[1..].iter();

    fn value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn num<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag}: `{raw}` is not a valid value"))
    }

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--width" => opts.width = num(arg, value(arg, &mut it)?)?,
            "--height" => opts.height = num(arg, value(arg, &mut it)?)?,
            "--pixel-bits" => opts.pixel_bits = num(arg, value(arg, &mut it)?)?,
            "--block-bits" => opts.block_bits = num(arg, value(arg, &mut it)?)?,
            "--fpga" => opts.fpga = true,
            "--ports" => opts.ports = num(arg, value(arg, &mut it)?)?,
            "--coalesce" => opts.coalesce = true,
            "--name" => opts.name = Some(value(arg, &mut it)?.clone()),
            "--emit" => opts.emit = true,
            "-o" | "--output" => opts.output = Some(value(arg, &mut it)?.clone()),
            "--strategy" => opts.strategy = value(arg, &mut it)?.clone(),
            "--samples" => opts.samples = num(arg, value(arg, &mut it)?)?,
            "--seed" => opts.seed = num(arg, value(arg, &mut it)?)?,
            "--threads" => opts.threads = num(arg, value(arg, &mut it)?)?,
            "--input-bits" => opts.input_bits = Some(num(arg, value(arg, &mut it)?)?),
            "--wide" => opts.wide = true,
            "--tcp" => opts.tcp = Some(value(arg, &mut it)?.clone()),
            "--deny" => {
                let what = value(arg, &mut it)?;
                if what != "warnings" {
                    return Err(format!("--deny only supports `warnings`, not `{what}`"));
                }
                opts.deny_warnings = true;
            }
            "--format" => opts.format = value(arg, &mut it)?.clone(),
            "--prove" => opts.prove = true,
            "--certify" => opts.certify = true,
            "--profile" => opts.profile = true,
            "--trace-out" => {
                opts.trace_out = Some(value(arg, &mut it)?.clone());
                opts.profile = true;
            }
            "--stats-every" => opts.stats_every = num(arg, value(arg, &mut it)?)?,
            "--input-range" => {
                let raw = value(arg, &mut it)?;
                let (lo, hi) = raw
                    .split_once(':')
                    .ok_or_else(|| format!("--input-range: `{raw}` is not LO:HI"))?;
                let lo: i64 = num(arg, lo)?;
                let hi: i64 = num(arg, hi)?;
                if lo > hi {
                    return Err(format!("--input-range: {lo} > {hi}"));
                }
                opts.input_range = Some((lo, hi));
            }
            "-h" | "--help" => return Ok(("help".into(), opts)),
            flag if flag.starts_with('-') => return Err(format!("unknown option `{flag}`")),
            _ if opts.file.is_none() => opts.file = Some(arg.clone()),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    if opts.ports == 0 {
        return Err("--ports must be at least 1".into());
    }
    Ok((cmd, opts))
}

/// Reads the `.imagen` source named by `opts` and derives the pipeline
/// name (explicit `--name` or the file stem).
fn load_source(opts: &Options) -> Result<(String, String), String> {
    let path = opts
        .file
        .as_deref()
        .ok_or("missing <file.imagen> argument")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let name = opts.name.clone().unwrap_or_else(|| {
        std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "pipeline".into())
    });
    Ok((name, src))
}

/// Loads and front-end-compiles the pipeline named by `opts`, rendering
/// DSL errors with their source span.
pub fn load_pipeline(opts: &Options) -> Result<(String, imagen_ir::Dag), String> {
    let (name, src) = load_source(opts)?;
    let path = opts.file.as_deref().unwrap_or("pipeline");
    let dag =
        imagen_dsl::compile(&name, &src).map_err(|e| report::render_dsl_error(path, &src, &e))?;
    Ok((name, dag))
}

fn dispatch(cmd: &str, opts: &Options) -> Result<(), CliError> {
    // `--profile` wraps the whole compile/dse invocation (front end
    // included) in a span collector and appends the phase breakdown.
    if opts.profile && matches!(cmd, "compile" | "dse") {
        return report::run_profiled(cmd, opts);
    }
    match cmd {
        "help" => {
            out!("{USAGE}");
            Ok(())
        }
        "compile" => {
            let (_, dag) = load_pipeline(opts)?;
            validate_geometry(&opts.geometry())?;
            Ok(report::run_compile(&dag, opts)?)
        }
        "lint" => lint::run_lint(opts),
        "certify" => lint::run_certify(opts),
        "dse" => {
            let (_, dag) = load_pipeline(opts)?;
            validate_geometry(&opts.geometry())?;
            report::run_dse(&dag, opts)
        }
        "sim" => {
            let (_, dag) = load_pipeline(opts)?;
            validate_geometry(&opts.geometry())?;
            validate_frame_budget(&opts.geometry())?;
            report::run_sim(&dag, opts)
        }
        "energy" => {
            let (_, dag) = load_pipeline(opts)?;
            validate_geometry(&opts.geometry())?;
            Ok(report::run_energy(&dag, opts)?)
        }
        "serve" => Ok(serve::run(opts)?),
        "stats" => report::run_stats(opts),
        other => unreachable!("parse_args admits no command `{other}`"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let status = match dispatch(&cmd, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            let e = err.message();
            // Span-rendered errors (`error: ...`) and rendered diagnostics
            // (`error[E0003]: ...`) carry their own prefix.
            if e.starts_with("error:") || e.starts_with("error[") {
                eprintln!("{e}");
            } else {
                eprintln!("error: {e}");
            }
            match err {
                CliError::Findings(_) => ExitCode::from(1),
                CliError::Usage(_) => ExitCode::from(2),
            }
        }
    };
    if let Err(e) = std::io::stdout().flush() {
        let _ = STDOUT_ERROR.set(e);
    }
    // A reader that went away stops the output, not the command.
    match STDOUT_ERROR.get() {
        Some(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::from(2)
        }
        _ => status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_defaults_and_flags() {
        let (cmd, o) = parse_args(&[
            "compile".into(),
            "a.imagen".into(),
            "--width".into(),
            "128".into(),
            "--coalesce".into(),
        ])
        .unwrap();
        assert_eq!(cmd, "compile");
        assert_eq!(o.file.as_deref(), Some("a.imagen"));
        assert_eq!(o.width, 128);
        assert_eq!(o.height, 48);
        assert!(o.coalesce);
        assert!(parse_args(&["compile".into(), "--frob".into()]).is_err());
        assert!(parse_args(&["compile".into(), "--width".into()]).is_err());
        assert!(parse_args(&["compile".into(), "--width".into(), "x".into()]).is_err());
    }

    #[test]
    fn geometry_guard() {
        let ok = ImageGeometry {
            width: 64,
            height: 48,
            pixel_bits: 16,
        };
        assert!(validate_geometry(&ok).is_ok());
        for bad in [
            ImageGeometry { width: 0, ..ok },
            ImageGeometry { height: 0, ..ok },
            ImageGeometry {
                pixel_bits: 0,
                ..ok
            },
            ImageGeometry {
                pixel_bits: 65,
                ..ok
            },
        ] {
            assert!(validate_geometry(&bad).is_err(), "{bad}");
        }
        // The pixel cap applies only where frames are allocated: an 8K
        // geometry is a legitimate *compile* and *energy* target but over
        // the sim / serve frame budget.
        let large = ImageGeometry {
            width: 7680,
            height: 4320,
            pixel_bits: 16,
        };
        assert!(validate_geometry(&large).is_ok());
        assert!(validate_frame_budget(&large).is_err());
        assert!(validate_frame_budget(&ok).is_ok());
    }
}
