//! `compare`: verdicts on a change from the output files of two sets of
//! runs, one of the parent commit and one of the change.
//!
//! For every workload and every metric in `BENCHMARK.json` the verdict
//! is one of:
//!
//! * `worse` — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * `better` — the change's median is better by more than the parent's
//!   quartile spread, and the change wins at least nine tenths of the
//!   (parent, change) pairs, ties counting for neither;
//! * `unresolved` — the parent's own spread is wider than the bound, and
//!   not every change run beats every parent run;
//! * `same` — otherwise.
//!
//! A sample is one run's reported value. Runs are paired in the order
//! the files are given, so list them in the order they ran, alternating
//! parent and change. With one file per side the verdict can only be
//! `worse` or `same`. Per-layer metrics have no bound and get a delta
//! only.

use crate::stats::{summarize, Summary};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// A metric as `BENCHMARK.json` defines it.
#[derive(Debug)]
pub struct MetricSpec {
    /// Whether larger values are better.
    pub higher_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark reads.
#[derive(Debug)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Metrics in file order: end-to-end first, then per-layer.
    pub metrics: Vec<(String, MetricSpec)>,
}

/// Where the spec lives, relative to the repository root.
const SPEC_PATH: &str = "BENCHMARK.json";

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

impl Spec {
    /// Reads `BENCHMARK.json` from the current directory.
    ///
    /// # Errors
    ///
    /// A message naming the file and what is wrong with it.
    pub fn load() -> Result<Spec, String> {
        let v = read_json(SPEC_PATH)?;
        let bad = |what: &str| format!("{SPEC_PATH}: {what}");
        let run_seconds = v["run_seconds"]
            .as_u64()
            .ok_or_else(|| bad("run_seconds is not a whole number"))?;
        let mut metrics = Vec::new();
        for key in ["end_to_end", "per_layer"] {
            for m in v[key]
                .as_array()
                .ok_or_else(|| bad(&format!("no {key} list")))?
            {
                let name = m["name"]
                    .as_str()
                    .ok_or_else(|| bad("metric without a name"))?;
                let spec = MetricSpec {
                    higher_better: m["better"].as_str() == Some("higher"),
                    bound: m["bound"].as_f64(),
                };
                metrics.push((name.to_string(), spec));
            }
        }
        Ok(Spec {
            run_seconds,
            metrics,
        })
    }
}

/// `workload → metric → one value per file` from a set of output files.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_side(files: &[String]) -> Result<Side, String> {
    let mut out = Side::new();
    for f in files {
        let v = read_json(f)?;
        let workloads = v["workloads"]
            .as_object()
            .ok_or_else(|| format!("{f}: not a benchmark output file"))?;
        for (w, run) in workloads {
            for (name, m) in run["metrics"].as_object().into_iter().flatten() {
                out.entry(w.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .extend(m["value"].as_f64());
            }
        }
    }
    Ok(out)
}

/// The verdict on one metric from parent runs `a` and change runs `b`,
/// paired in order (`a[i]` was run next to `b[i]`); `worse_by` is the
/// change's worsening as a share of the parent's median (negative when
/// it improved).
fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> (&'static str, f64) {
    let (sa, sb): (Summary, Summary) = (summarize(a), summarize(b));
    // Scaled so that smaller is better.
    let sign = if higher_better { -1.0 } else { 1.0 };
    let worse_by = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| sign * *y < sign * *x)
        .count();
    let worst_b = b.iter().map(|y| sign * y).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let spread = sa.spread();
    let v = if spread > bound && worst_b >= best_a {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > spread && pairs > 1 && wins * 10 >= pairs * 9 {
        "better"
    } else {
        "same"
    };
    (v, worse_by)
}

/// Runs `compare <parent files…> --vs <change files…>`, or
/// `compare A.json B.json`.
pub fn main(args: &[String]) -> ExitCode {
    let (parent, change): (Vec<String>, Vec<String>) = match args.iter().position(|a| a == "--vs") {
        Some(i) => (args[..i].to_vec(), args[i + 1..].to_vec()),
        None if args.len() == 2 => (vec![args[0].clone()], vec![args[1].clone()]),
        None => (Vec::new(), Vec::new()),
    };
    if parent.is_empty() || change.is_empty() {
        eprintln!("usage: compare A.json B.json | compare A1.json A2.json… --vs B1.json B2.json…");
        return ExitCode::from(2);
    }
    let loaded = Spec::load().and_then(|s| Ok((s, load_side(&parent)?, load_side(&change)?)));
    let (spec, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<9} {:<28} {:>13} {:>13} {:>13} {:>9} {:>6}  verdict",
        "workload", "metric", "parent", "spread", "change", "worse by", "bound"
    );
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for (w, am) in &a {
        let Some(bm) = b.get(w) else { continue };
        for (name, ms) in &spec.metrics {
            let (Some(xa), Some(xb)) = (am.get(name), bm.get(name)) else {
                continue;
            };
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let (v, worse_by) =
                verdict(xa, xb, ms.higher_better, ms.bound.unwrap_or(f64::INFINITY));
            let (sa, sb) = (summarize(xa), summarize(xb));
            let v = if ms.bound.is_some() { v } else { "-" };
            *tally.entry(v).or_default() += 1;
            println!(
                "{:<9} {:<28} {:>13.6} {:>12.2}% {:>13.6} {:>8.2}% {:>6}  {v}",
                w,
                name,
                sa.median,
                100.0 * sa.spread(),
                sb.median,
                100.0 * worse_by,
                ms.bound
                    .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
            );
        }
    }
    let summary: Vec<String> = tally.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!("compare: {}", summary.join(", "));
    if tally.contains_key("worse") {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Same code: within the spread.
        assert_eq!(verdict(&a, &[10.02, 9.98, 10.0], false, 0.1).0, "same");
        // Much slower: worse.
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9], false, 0.1).0, "worse");
        // Faster beyond the spread, winning every pair: better.
        assert_eq!(verdict(&a, &[9.0, 9.1, 8.9], false, 0.1).0, "better");
        // Higher is better flips the direction.
        assert_eq!(verdict(&a, &[9.0, 9.1, 8.9], true, 0.05).0, "worse");
        // A parent spread wider than the bound cannot resolve a small move.
        assert_eq!(
            verdict(&[1.0, 2.0, 3.0], &[2.1], false, 0.1).0,
            "unresolved"
        );
        // Identical exact metrics are the same.
        assert_eq!(verdict(&[5.0; 3], &[5.0; 3], false, 0.01), ("same", 0.0));
        // One sample per side can never claim a gain.
        assert_eq!(verdict(&[5.0], &[4.0], false, 0.5).0, "same");
        // Pairs count in order: a faster median that loses one pair in
        // four is not a gain.
        assert_eq!(
            verdict(&[10.0; 4], &[9.0, 11.0, 9.0, 9.0], false, 0.2).0,
            "same"
        );
    }
}
