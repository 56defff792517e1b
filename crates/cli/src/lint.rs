//! `imagen lint` and `imagen certify` — the static-analysis drivers.
//!
//! `lint` runs the full [`imagen_analysis`] pass stack (DSL lints,
//! width/overflow dataflow, schedule invariants, netlist lints) over one
//! `.imagen` file; with `--prove` it also runs translation validation
//! and merges the certificate's `E05xx`/`W05xx` diagnostics into the
//! report. `certify` runs translation validation alone and prints the
//! per-obligation certificate. Both report as human-readable lines
//! (`--format text`, the default) or one machine-readable JSON object
//! per run (`--format json`), and both exit 1 on findings (errors, or
//! warnings under `--deny warnings`) vs 2 on usage/I-O errors.

use crate::json::{Json, ObjBuilder};
use crate::{CliError, Options};
use imagen_analysis::{
    analyze, certify_dag, AnalysisOptions, AnalysisReport, Certificate, Diagnostic, Locus,
    ProofStatus,
};
use imagen_rtl::BitWidths;

/// Builds the analysis options the lint run assumes from the CLI flags.
/// The input range is `--input-range`, else `0..2^N-1` for
/// `--input-bits N`, else the default range.
pub fn analysis_options(opts: &Options) -> AnalysisOptions {
    let geom = opts.geometry();
    let widths = if opts.wide {
        BitWidths::wide()
    } else {
        BitWidths {
            pixel_bits: geom.pixel_bits,
            acc_bits: (2 * geom.pixel_bits).min(64),
        }
    };
    let input_range = opts.input_range.unwrap_or_else(|| match opts.input_bits {
        Some(bits) => (0, (1i64 << bits.min(62)) - 1),
        None => AnalysisOptions::default().input_range,
    });
    AnalysisOptions {
        geom,
        spec: opts.memory_spec(),
        widths,
        input_range,
    }
}

/// One diagnostic as a JSON object: code, severity, message, and
/// whichever locus members apply.
fn diagnostic_json(d: &Diagnostic) -> Json {
    let mut b = ObjBuilder::new()
        .push("code", Json::Str(d.code.to_string()))
        .push("severity", Json::Str(d.severity.label().to_string()))
        .push("message", Json::Str(d.message.clone()));
    match &d.locus {
        Locus::None => {}
        Locus::Source { line, col } => {
            b = b
                .push("line", Json::Num(*line as f64))
                .push("col", Json::Num(*col as f64));
        }
        Locus::Stage(name) => b = b.push("stage", Json::Str(name.clone())),
        Locus::Net { module, net } => {
            b = b
                .push("module", Json::Str(module.clone()))
                .push("net", Json::Str(net.clone()));
        }
        Locus::Buffer { stage } => b = b.push("buffer_stage", Json::Num(*stage as f64)),
    }
    b.build()
}

/// One certificate as a JSON object: overall status, counts, and the
/// per-obligation verdicts. Shared by `lint --prove`, `certify` and the
/// batch server.
pub fn certificate_json(cert: &Certificate) -> Json {
    let obligations: Vec<Json> = cert
        .obligations
        .iter()
        .map(|o| {
            let mut b = ObjBuilder::new()
                .push("kind", Json::Str(o.kind.label()))
                .push("status", Json::Str(o.status.label().to_string()));
            match &o.status {
                ProofStatus::Proved(mode) => {
                    b = b.push("mode", Json::Str(mode.label().to_string()));
                }
                ProofStatus::Fuzzed { code, samples } => {
                    b = b
                        .push("code", Json::Str(code.to_string()))
                        .push("samples", Json::Num(*samples as f64));
                }
                ProofStatus::Refuted { code, witness } => {
                    b = b
                        .push("code", Json::Str(code.to_string()))
                        .push("witness", Json::Str(witness.clone()));
                }
            }
            b.push("detail", Json::Str(o.detail.clone())).build()
        })
        .collect();
    ObjBuilder::new()
        .push("status", Json::Str(cert.status().to_string()))
        .push("proved", Json::Num(cert.proved() as f64))
        .push("fuzzed", Json::Num(cert.fuzzed() as f64))
        .push("refuted", Json::Num(cert.refuted() as f64))
        .push("pixel_bits", Json::Num(cert.widths.pixel_bits as f64))
        .push("acc_bits", Json::Num(cert.widths.acc_bits as f64))
        .push("obligations", Json::Arr(obligations))
        .build()
}

/// Renders a finished report; shared by the one-shot CLI path and tests.
/// `cert` is the `--prove` certificate when one was produced.
pub fn render_report(
    name: &str,
    report: &AnalysisReport,
    cert: Option<&Certificate>,
    json: bool,
    deny: bool,
) -> (String, bool) {
    let ok = report.errors() == 0 && (!deny || report.warnings() == 0);
    if json {
        let mut b = ObjBuilder::new()
            .push("name", Json::Str(name.to_string()))
            .push("ok", Json::Bool(ok))
            .push("errors", Json::Num(report.errors() as f64))
            .push("warnings", Json::Num(report.warnings() as f64))
            .push("notes", Json::Num(report.notes() as f64))
            .push(
                "certified_overflow_free",
                Json::Bool(report.certified_overflow_free()),
            )
            .push(
                "diagnostics",
                Json::Arr(report.diagnostics.iter().map(diagnostic_json).collect()),
            );
        if let Some(c) = cert {
            b = b.push("certificate", certificate_json(c));
        }
        (b.build().to_line(), ok)
    } else {
        let mut out = String::new();
        for d in &report.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        if let Some(c) = cert {
            out.push_str(&format!(
                "certificate: {} ({} proved, {} fuzzed, {} refuted)\n",
                c.status(),
                c.proved(),
                c.fuzzed(),
                c.refuted()
            ));
        }
        out.push_str(&format!(
            "{name}: {} error(s), {} warning(s), {} note(s)",
            report.errors(),
            report.warnings(),
            report.notes()
        ));
        (out, ok)
    }
}

/// `imagen lint <file.imagen>` entry point.
pub fn run_lint(opts: &Options) -> Result<(), CliError> {
    let (name, src) = crate::load_source(opts)?;
    crate::validate_geometry(&opts.geometry())?;
    match opts.format.as_str() {
        "text" | "json" => {}
        other => {
            return Err(CliError::Usage(format!(
                "--format must be `text` or `json`, not `{other}`"
            )))
        }
    }
    let aopts = analysis_options(opts);
    let mut report = analyze(&name, &src, &aopts);
    // --prove: run translation validation and fold the certificate's
    // diagnostics into the report, so `--deny warnings` and the exit
    // code see refuted/fuzzed obligations like any other finding.
    let mut cert = None;
    if opts.prove && report.errors() == 0 {
        if let Ok(dag) = imagen_dsl::compile(&name, &src) {
            match certify_dag(&dag, &aopts) {
                Ok(c) => {
                    report.diagnostics.extend(c.diagnostics());
                    cert = Some(c);
                }
                Err(d) => report.diagnostics.push(d),
            }
        }
    }
    let (rendered, ok) = render_report(
        &name,
        &report,
        cert.as_ref(),
        opts.format == "json",
        opts.deny_warnings,
    );
    outln!("{rendered}");
    if ok {
        Ok(())
    } else {
        Err(CliError::Findings(format!(
            "lint failed: {} error(s), {} warning(s)",
            report.errors(),
            report.warnings()
        )))
    }
}

/// `imagen certify <file.imagen>` entry point: translation validation
/// alone, with the full per-obligation certificate as output.
pub fn run_certify(opts: &Options) -> Result<(), CliError> {
    let (name, src) = crate::load_source(opts)?;
    crate::validate_geometry(&opts.geometry())?;
    match opts.format.as_str() {
        "text" | "json" => {}
        other => {
            return Err(CliError::Usage(format!(
                "--format must be `text` or `json`, not `{other}`"
            )))
        }
    }
    let path = opts.file.as_deref().unwrap_or("pipeline");
    let dag = imagen_dsl::compile(&name, &src)
        .map_err(|e| CliError::Findings(crate::report::render_dsl_error(path, &src, &e)))?;
    let cert =
        certify_dag(&dag, &analysis_options(opts)).map_err(|d| CliError::Findings(d.render()))?;
    if opts.format == "json" {
        let out = ObjBuilder::new()
            .push("name", Json::Str(name.clone()))
            .push("ok", Json::Bool(cert.refuted() == 0))
            .push("certificate", certificate_json(&cert))
            .build();
        outln!("{}", out.to_line());
    } else {
        outln!("{}", cert.render());
    }
    let ok = cert.refuted() == 0 && (!opts.deny_warnings || cert.fuzzed() == 0);
    if ok {
        Ok(())
    } else {
        Err(CliError::Findings(format!(
            "certificate {}: {} refuted, {} fuzzed obligation(s)",
            cert.status(),
            cert.refuted(),
            cert.fuzzed()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(src: &str) -> AnalysisReport {
        analyze("t", src, &AnalysisOptions::default())
    }

    fn arr(v: &Json) -> &[Json] {
        match v {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn clean_report_renders_ok_in_both_formats() {
        let r = report("input a; output b = im(x,y) (a(x-1,y) + 2*a(x,y) + a(x+1,y)) / 4 end");
        let (text, ok) = render_report("t", &r, None, false, true);
        assert!(ok);
        assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
        let (json, ok) = render_report("t", &r, None, true, true);
        assert!(ok);
        let v = crate::json::parse(&json).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("certified_overflow_free"), Some(&Json::Bool(true)));
        assert!(arr(v.get("diagnostics").unwrap()).is_empty());
    }

    #[test]
    fn warnings_fail_only_under_deny() {
        let r = report(
            "input a; dead_end = im(x,y) a(x,y) + 0 end\n\
             output b = im(x,y) a(x,y) end",
        );
        assert!(r.errors() > 0 || r.warnings() > 0);
        let errors = r.errors();
        let (_, ok_lenient) = render_report("t", &r, None, false, false);
        let (_, ok_deny) = render_report("t", &r, None, false, true);
        assert_eq!(ok_lenient, errors == 0);
        assert!(!ok_deny);
    }

    #[test]
    fn json_diagnostics_carry_spans() {
        let r = report("input a;\noutput b = im(x,y) a(x, y - 44) end");
        let (json, _) = render_report("t", &r, None, true, false);
        let v = crate::json::parse(&json).unwrap();
        let diags = arr(v.get("diagnostics").unwrap());
        assert!(!diags.is_empty());
        let d = &diags[0];
        assert_eq!(d.get("code").unwrap().as_str(), Some("W0104"));
        assert_eq!(d.get("severity").unwrap().as_str(), Some("warning"));
        assert_eq!(d.get("line").unwrap().as_u64(), Some(2));
    }
}
