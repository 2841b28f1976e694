//! Microcode listing and verification tool: dump the stock control
//! store, a single routine, the entry table, or the ATUM patch region,
//! or run the static verifier over everything the repository builds.
//!
//! ```text
//! mculist entries            # where the patchable hooks point
//! mculist xfer.read          # one routine
//! mculist patches            # the ATUM patch region (installs first)
//! mculist all                # the whole store
//! mculist verify             # static verification; nonzero exit on findings
//! mculist verify --pass atomicity  # one verifier pass only
//! mculist cost               # static slowdown-band gate; nonzero exit on a finding or failed gate
//! mculist trace info F.atrace  # segment headers + compression stats of a trace file
//! ```
//!
//! `verify`, `cost` and `trace info` accept `--format json` for
//! machine-readable output; `verify` accepts `--pass <name>` to run a
//! single verifier pass. An unknown flag, a flag the command does not
//! take, another `--format` value or a stray argument is a usage error
//! (exit 1, nothing on stdout). A closed stdout (`| head`) ends the
//! program quietly with success.

use atum_bench::mculist::{cost_report, patches_report, trace_info, verify_pass};
use atum_core::PatchSet;
use atum_mclint::Pass;
use atum_ucode::stock;
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "\
usage: mculist [entries | patches | all | verify | cost | <symbol>]
               [--format json] [--pass <name>]
       mculist trace info <file.atrace> [--format json]";

/// Reports a malformed command line (with the usage text) and fails.
fn usage_error(msg: &str) -> io::Result<ExitCode> {
    eprintln!("{msg}\n{USAGE}");
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    atum_bench::with_stdout(run)
}

/// The command line's work, writing its report to `out`.
fn run(out: &mut dyn Write) -> io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut pass_name: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        // `--flag value` and `--flag=value` alike.
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v)),
            _ => (a, None),
        };
        let mut value = || {
            inline.or_else(|| {
                i += 1;
                args.get(i).map(String::as_str)
            })
        };
        match flag {
            "--format" => match value() {
                Some("json") => json = true,
                Some(v) => return usage_error(&format!("unknown format '{v}' (expected 'json')")),
                None => return usage_error("--format needs a value"),
            },
            "--pass" => match value() {
                Some(v) => pass_name = Some(v.to_string()),
                None => return usage_error("--pass needs a pass name"),
            },
            _ if a.starts_with("--") => return usage_error(&format!("unknown flag '{a}'")),
            _ => positional.push(a.to_string()),
        }
        i += 1;
    }
    let pass = match &pass_name {
        None => None,
        Some(n) => match Pass::from_name(n) {
            Some(p) => Some(p),
            None => {
                eprintln!(
                    "unknown pass '{n}'. available: {}",
                    Pass::ALL
                        .iter()
                        .map(|p| p.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                return Ok(ExitCode::FAILURE);
            }
        },
    };
    let arg = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "entries".to_string());
    if pass.is_some() && arg != "verify" {
        return usage_error("--pass applies to verify only");
    }
    if json && !matches!(arg.as_str(), "verify" | "cost" | "trace") {
        return usage_error(&format!("'{arg}' has no --format json output"));
    }
    if arg == "trace" {
        return run_trace(out, &positional[1..], json);
    }
    if let Some(extra) = positional.get(1) {
        return usage_error(&format!("unexpected argument '{extra}'"));
    }
    let mut cs = stock::build();
    match arg.as_str() {
        "entries" => {
            writeln!(out, "stock entry table:\n{}", cs.entry_summary())?;
            PatchSet::install(&mut cs).expect("install");
            writeln!(
                out,
                "after installing the ATUM patches:\n{}",
                cs.entry_summary()
            )?;
        }
        "patches" => {
            write!(out, "{}", patches_report())?;
        }
        "all" => {
            writeln!(out, "{}", cs.listing(0, cs.len()))?;
        }
        "verify" => {
            let v = verify_pass(pass);
            if json {
                write!(out, "{}", v.render_json())?;
            } else {
                write!(out, "{}", v.render())?;
            }
            if v.findings > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        // Deterministic: its text and JSON are pinned by
        // `crates/bench/tests/golden/cost.{txt,json}`.
        "cost" => {
            let c = cost_report();
            if json {
                write!(out, "{}", c.json)?;
            } else {
                write!(out, "{}", c.render())?;
            }
            if c.findings > 0 || c.errors > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        sym => {
            // Patch symbols (atum.*) only exist after installation.
            if cs.symbol(sym).is_none() {
                if let Err(e) = PatchSet::install(&mut cs) {
                    eprintln!("cannot install patches to resolve '{sym}': {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
            match cs.listing_of(sym) {
                Some(l) => writeln!(out, "{l}")?,
                None => {
                    let mut names: Vec<&String> = cs.symbols().keys().collect();
                    names.sort();
                    eprintln!("unknown symbol '{sym}'. available:");
                    for chunk in names.chunks(6) {
                        eprintln!(
                            "  {}",
                            chunk
                                .iter()
                                .map(|s| s.as_str())
                                .collect::<Vec<_>>()
                                .join("  ")
                        );
                    }
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `mculist trace info <file>`: dump the per-segment headers and the
/// compression statistics of an on-disk segment trace.
fn run_trace(out: &mut dyn Write, rest: &[String], json: bool) -> io::Result<ExitCode> {
    let path = match rest {
        [a, p] if a == "info" => p.as_str(),
        [a, _] => return usage_error(&format!("unknown trace action '{a}' (expected 'info')")),
        _ => return usage_error("trace info takes one file"),
    };
    match trace_info(path) {
        Ok(report) => {
            if json {
                write!(out, "{}", report.render_json())?;
            } else {
                write!(out, "{}", report.render())?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("cannot inspect '{path}': {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
