//! Metrics of one workload run, printed for people and written as JSON.
//!
//! JSON is written by hand (the repository has no serializer); it is
//! read back through the in-repo `serde_json` shim by `compare` and the
//! smoke test.

use crate::spans::Profile;
use crate::stats::{summarize, Summary};
use std::fmt::Write;

/// One named metric with every sample it was measured from.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measurements.
    pub samples: Vec<f64>,
    /// Whether the reported value is the smallest sample rather than the
    /// median.
    best: bool,
}

impl Metric {
    /// A metric reported as the median of its samples.
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            samples,
            best: false,
        }
    }

    /// A metric measured once.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, vec![value])
    }

    /// A time reported as its fastest sample. Interference from other
    /// tenants of a shared host only ever adds time, and comes in bursts
    /// lasting several iterations, so the fastest iteration of a run
    /// repeats from run to run far more closely than the median does.
    pub fn best(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            best: true,
            ..Metric::new(name, unit, samples)
        }
    }

    /// Median and quartiles.
    pub fn summary(&self) -> Summary {
        summarize(&self.samples)
    }

    /// The reported value.
    pub fn value(&self) -> f64 {
        if self.best {
            self.samples.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            self.summary().median
        }
    }
}

/// Everything one `--workload` run measured.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Workload name.
    pub workload: String,
    /// The `--seed` given (regen ignores it).
    pub seed: u64,
    /// The `--seconds` given.
    pub seconds: u64,
    /// Whether the traced run was made.
    pub trace: bool,
    /// Set-ups and iterations attempted.
    pub attempted: u64,
    /// Set-ups and iterations whose checks failed.
    pub failed: u64,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// The traced run's profile.
    pub profile: Option<Profile>,
}

/// A JSON number with all its digits.
///
/// # Panics
///
/// On a non-finite value: every metric is defined to be finite.
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    format!("{x}")
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl WorkloadRun {
    /// Whether every set-up and iteration passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: end-to-end metrics, or per-layer metrics for a
    /// traced run.
    pub fn result_line(&self) -> String {
        let metrics = if self.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    string(m.name),
                    num(m.value()),
                    string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The full record of this run: every metric with its median,
    /// quartiles and samples, and the traced run's stages, counters and
    /// spans.
    pub fn detail_json(&self) -> String {
        let metric = |m: &Metric| {
            let s = m.summary();
            let samples: Vec<String> = m.samples.iter().map(|&x| num(x)).collect();
            format!(
                "{}: {{\"unit\": {}, \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \
                 \"n\": {}, \"samples\": [{}]}}",
                string(m.name),
                string(m.unit),
                num(m.value()),
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n,
                samples.join(", ")
            )
        };
        let metrics: Vec<String> = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(metric)
            .collect();
        let (stages, counts, spans) = match &self.profile {
            None => (Vec::new(), Vec::new(), Vec::new()),
            Some(p) => (
                p.stages
                    .iter()
                    .map(|((root, name), st)| {
                        format!(
                            "{{\"root\": {}, \"name\": {}, \"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
                            string(root),
                            string(name),
                            st.calls,
                            num(st.total_s),
                            num(st.self_s)
                        )
                    })
                    .collect(),
                p.counts
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", string(k)))
                    .collect(),
                p.spans
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"thread\": {}}}",
                            string(&s.name),
                            s.start,
                            s.end,
                            s.parent.map_or("null".to_string(), |p| p.to_string()),
                            s.thread
                        )
                    })
                    .collect(),
            ),
        };
        format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
             \"failed\": {}, \"metrics\": {{{}}}, \"stages\": [{}], \"counts\": {{{}}}, \
             \"spans\": [{}]}}",
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            stages.join(", "),
            counts.join(", "),
            spans.join(", ")
        )
    }

    /// The human-readable report.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {} s, trace {}): {} attempted, {} failed",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { "on" } else { "off" },
            self.attempted,
            self.failed
        );
        println!(
            "   {:<28} {:>14} {:>14} {:>14} {:>14} {:>4}  unit",
            "metric", "value", "median", "q1", "q3", "n"
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let s = m.summary();
            println!(
                "   {:<28} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
                m.name,
                m.value(),
                s.median,
                s.q1,
                s.q3,
                s.n,
                m.unit
            );
        }
        if let Some(p) = &self.profile {
            print_stages(p);
        }
    }
}

/// The stage table: each root's spans by self time, with their share of
/// the root.
fn print_stages(p: &Profile) {
    for (root, &dur) in &p.roots {
        println!(
            "   stages of the traced {root} ({dur:.4} s, {:.1}% covered by top-level spans):",
            100.0 * p.coverage[root]
        );
        println!(
            "     {:<26} {:>7} {:>11} {:>11} {:>7}",
            "span", "calls", "total s", "self s", "self %"
        );
        let mut rows: Vec<_> = p.stages.iter().filter(|((r, _), _)| r == root).collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        for ((_, name), st) in rows {
            println!(
                "     {:<26} {:>7} {:>11.5} {:>11.5} {:>6.1}%",
                name,
                st.calls,
                st.total_s,
                st.self_s,
                100.0 * st.self_s / dur.max(f64::MIN_POSITIVE)
            );
        }
    }
    let counts: Vec<String> = p.counts.iter().map(|(k, v)| format!("{k} {v}")).collect();
    println!("   counters: {}", counts.join(", "));
    if let Some((threads, busy, capacity)) = p.pool_use("analysis.parallel_map") {
        println!(
            "   experiment pool: {threads} threads busy {busy:.3} s of {capacity:.3} s \
             ({:.1}% efficiency, {:.3} s idle)",
            100.0 * busy / capacity,
            capacity - busy
        );
    }
}

/// One workload's entry in an output file: `"name": {detail}`.
pub fn out_entry(workload: &str, detail: &str) -> String {
    format!("{}: {detail}", string(workload))
}

/// An output file holding the entries of several workloads.
pub fn out_file(entries: &[String]) -> String {
    format!("{{\"workloads\": {{{}}}}}\n", entries.join(", "))
}

/// The entries of a file written by [`out_file`], as one fragment.
pub fn out_entries(file: &str) -> Option<&str> {
    file.trim_end()
        .strip_prefix("{\"workloads\": {")?
        .strip_suffix("}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_shim() {
        let run = WorkloadRun {
            workload: "w".into(),
            seed: 3,
            seconds: 1,
            trace: false,
            attempted: 2,
            failed: 0,
            end_to_end: vec![
                Metric::new("wall_s", "s", vec![0.25, 0.125, 1.0 / 3.0]),
                Metric::one("sim_cycles", "cycles", 123456789.0),
            ],
            per_layer: Vec::new(),
            profile: None,
        };
        let line = serde_json::from_str(&run.result_line()).unwrap();
        assert_eq!(line["metrics"]["wall_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(
            line["metrics"]["sim_cycles"]["unit"].as_str(),
            Some("cycles")
        );
        assert_eq!(line["attempted"].as_u64(), Some(2));
        let file = out_file(&[out_entry("w", &run.detail_json())]);
        assert_eq!(
            out_entries(&file),
            Some(out_entry("w", &run.detail_json()).as_str())
        );
        let v = serde_json::from_str(&file).unwrap();
        let wall = &v["workloads"]["w"]["metrics"]["wall_s"];
        assert_eq!(wall["samples"][2].as_f64(), Some(1.0 / 3.0));
        assert_eq!(wall["n"].as_u64(), Some(3));
        assert_eq!(string("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
