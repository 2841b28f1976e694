//! Smoke test: every workload runs one timed and one traced iteration on
//! seed 0, emits every metric `BENCHMARK.json` names with its unit, and
//! passes its checks; and the benchmark is compiled exactly like the
//! repository.
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml
//! ```

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a repository subdirectory")
        .to_path_buf()
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn spec() -> Value {
    read_json(&repo_root().join("BENCHMARK.json"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn metrics(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec[list]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["unit"].as_str().expect("metric unit").to_string(),
            )
        })
        .collect()
}

fn benchmark() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_atum-benchmark"));
    c.current_dir(repo_root());
    c
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "times full-scale workloads; run with `cargo test --release`"
)]
fn every_workload_emits_every_metric() {
    let spec = spec();
    let end_to_end = metrics(&spec, "end_to_end");
    let per_layer = metrics(&spec, "per_layer");
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut outs = Vec::new();
    for w in spec["workloads"].as_array().expect("workloads") {
        let w = w["name"].as_str().expect("workload name");
        let out = tmp.join(format!("smoke-{w}.json"));
        let run = benchmark()
            .args([
                "--workload",
                w,
                "--seed",
                "0",
                "--seconds",
                "0",
                "--trace",
                "1",
            ])
            .arg("--out")
            .arg(&out)
            .output()
            .expect("run the benchmark");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&run.stderr)
        );

        // The result line: exactly four keys, per-layer metrics (traced).
        let line: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
            .unwrap_or_else(|e| panic!("{w}: result line: {e}"));
        let keys: Vec<&String> = line.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
        assert_eq!(line["correct"].as_bool(), Some(true), "{w}");
        assert_eq!(line["failed"].as_u64(), Some(0), "{w}");
        assert!(line["attempted"].as_u64() >= Some(3), "{w}");
        for (name, unit) in &per_layer {
            let m = &line["metrics"][name.as_str()];
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{w}: {name}");
            assert!(
                m["value"].as_f64().is_some_and(f64::is_finite),
                "{w}: {name}"
            );
        }

        // The output file: every metric, with its quartiles.
        let detail = &read_json(&out)["workloads"][w];
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let m = &detail["metrics"][name.as_str()];
            assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{w}: {name}");
            for key in ["value", "median", "q1", "q3", "n"] {
                assert!(m[key].as_f64().is_some(), "{w}: {name}.{key}");
            }
        }
        for (name, _) in &end_to_end {
            let v = detail["metrics"][name.as_str()]["value"].as_f64().unwrap();
            assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
        }
        let coverage = detail["metrics"]["trace.coverage"]["value"]
            .as_f64()
            .unwrap();
        assert!(
            coverage >= 0.95,
            "{w}: top-level spans cover only {coverage}"
        );
        assert!(
            !detail["spans"].as_array().expect("spans").is_empty(),
            "{w}"
        );
        outs.push(out);
    }

    // A run compared with itself is `same` everywhere.
    let mut cmp = benchmark();
    cmp.arg("compare");
    for o in &outs {
        cmp.arg(o);
    }
    cmp.arg("--vs").args(&outs);
    let cmp = cmp.output().expect("run compare");
    let text = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{text}");
    let last = text.lines().last().unwrap_or_default();
    assert!(
        !last.contains("worse") && !last.contains("better") && !last.contains("unresolved"),
        "{last}"
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--seed", "x"], &["--bogus"]] {
        let run = benchmark().args(args).output().expect("run the benchmark");
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
}

/// The `[profile.release]` table of a manifest, comments and blank
/// lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("read manifest");
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or_default().trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_matches_the_repository() {
    let ours = release_profile(&Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml must copy the root release profile"
    );
}
