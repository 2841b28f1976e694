//! Regenerates every table and figure of the reconstructed ATUM
//! evaluation.
//!
//! ```text
//! cargo run -p atum-bench --release --bin experiments            # full, all
//! cargo run -p atum-bench --release --bin experiments -- quick   # small instances
//! cargo run -p atum-bench --release --bin experiments -- full f1 f2
//! cargo run -p atum-bench --release --bin experiments -- quick --csv f1
//! cargo run -p atum-bench --release --bin experiments -- full --jobs 4
//! ```
//!
//! `--csv` additionally emits each table as CSV after its report.
//! `--jobs N` sets the thread count of both steps of a run: first the
//! distinct machine runs the selected experiments read, each performed
//! once (the standard mix is captured once for every experiment that
//! analyses it), then the reports. Output is byte-identical for every
//! N. Every id is checked before anything runs: an unknown one exits
//! nonzero, lists the valid ids and prints no report. A closed stdout
//! (`| head`) ends the program quietly with success.

use atum_analysis::{experiments, Report, RunnerError, Scale};
use std::io::{self, Write};
use std::process::ExitCode;

fn print_report(out: &mut dyn Write, r: &Report, csv: bool) -> io::Result<()> {
    writeln!(out, "{r}\n")?;
    if csv {
        for (caption, table) in &r.tables {
            writeln!(out, "csv: {} — {caption}\n{}", r.id, table.to_csv())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    let mut jobs = atum_analysis::parallel::jobs();
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let Some(n) = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok()) else {
            eprintln!("--jobs needs a positive integer");
            return ExitCode::FAILURE;
        };
        if n == 0 {
            eprintln!("--jobs needs a positive integer");
            return ExitCode::FAILURE;
        }
        jobs = n;
        args.drain(pos..pos + 2);
    }
    let (scale, ids): (Scale, Vec<String>) = match args.split_first() {
        Some((first, rest)) if first == "quick" => (Scale::Quick, rest.to_vec()),
        Some((first, rest)) if first == "full" => (Scale::Full, rest.to_vec()),
        Some(_) => (Scale::Full, args.clone()),
        None => (Scale::Full, Vec::new()),
    };

    let ids = if ids.is_empty() {
        experiments::ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };
    let unknown: Vec<&String> = ids
        .iter()
        .filter(|id| !experiments::ALL_IDS.contains(&id.to_lowercase().as_str()))
        .collect();
    if !unknown.is_empty() {
        for id in unknown {
            eprintln!("{}", RunnerError::UnknownExperiment(id.clone()));
        }
        eprintln!("valid ids: {}", experiments::ALL_IDS.join(" "));
        return ExitCode::FAILURE;
    }

    eprintln!(
        "# ATUM reproduction — experiment harness ({:?} scale, {} jobs)",
        scale, jobs
    );
    let reports = experiments::run_selected(scale, &ids, jobs);
    atum_bench::with_stdout(|out| {
        let mut ok = true;
        for (id, result) in reports {
            match result {
                Ok(r) => print_report(out, &r, csv)?,
                Err(e) => {
                    eprintln!("{id}: {e}");
                    ok = false;
                }
            }
        }
        Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    })
}
