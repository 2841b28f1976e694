//! End-to-end pipeline benchmark for the ATUM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out F]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Run from the repository root. With `--workload` one workload runs in
//! this process and the last line of standard output is its result
//! object; without it every workload runs in its own child process, one
//! at a time. `--out` writes every metric with its quartiles and samples
//! (and, with `--trace 1`, the stage profile) as JSON. See
//! `benchmark/README.md` for the workloads and metrics.

mod api;
mod compare;
mod heap;
mod pipeline;
mod report;
mod spans;
mod stats;

use pipeline::{Output, Setup, WORKLOADS};
use report::{Metric, WorkloadRun};
use spans::{Profile, Rec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Set-ups per untraced run; `setup_s` is their median. Five, because
/// bursts of interference on a shared host hit one set-up in three often
/// enough to move a median of three.
const SETUP_REPEATS: usize = 5;

/// Scratch directory for trace files, relative to the repository root.
const WORK_DIR: &str = ".bench_work";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}' (one of {WORKLOADS:?})"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            // `--trace 0|1`, or a bare `--trace`.
            "--trace" => {
                a.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            "--out" => a.out = Some(PathBuf::from(value("a file name")?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

/// A per-process scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(WORK_DIR).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// Per-layer metrics from the traced run: one set-up plus one iteration.
fn per_layer(p: &Profile, traced_wall: f64, untraced_wall: f64) -> Vec<Metric> {
    let named = |n: &'static str| p.self_s(|x| x == n);
    let layer = |l: &'static str| p.self_s(|x| x.split_once('.').is_some_and(|(a, _)| a == l));
    let count = |n| p.count(n) as f64;
    let run_s = named("machine.run");
    let decode_s = named("core.decode");
    let cache_s = layer("cache");
    vec![
        Metric::one("os.boot_build_s", "s", named("os.boot_build")),
        Metric::one("os.load_s", "s", named("os.load")),
        Metric::one("machine.run_s", "s", run_s),
        Metric::one("machine.sim_insns", "count", count("machine.sim_insns")),
        Metric::one("machine.sim_cycles", "count", count("machine.sim_cycles")),
        Metric::one(
            "machine.host_ns_per_insn",
            "ns",
            run_s * 1e9 / count("machine.sim_insns"),
        ),
        Metric::one(
            "machine.host_ns_per_kcycle",
            "ns",
            run_s * 1e12 / count("machine.sim_cycles"),
        ),
        Metric::one("core.attach_s", "s", named("core.attach")),
        Metric::one("core.drain_s", "s", named("core.drain")),
        Metric::one(
            "core.drains",
            "count",
            p.calls(|x| x == "core.drain") as f64,
        ),
        Metric::one("core.encode_s", "s", named("core.encode")),
        Metric::one("core.encoded_bytes", "B", count("core.encoded_bytes")),
        Metric::one("core.decode_s", "s", decode_s),
        Metric::one(
            "core.decode_records_per_s",
            "1/s",
            count("core.decoded_records") / decode_s,
        ),
        Metric::one("cache.self_s", "s", cache_s),
        Metric::one(
            "cache.records_per_s",
            "1/s",
            count("cache.records") / cache_s,
        ),
        Metric::one("analysis.self_s", "s", layer("analysis")),
        Metric::one("trace.coverage", "ratio", p.coverage["iteration"]),
        Metric::one("trace.overhead", "ratio", traced_wall / untraced_wall),
    ]
}

/// Runs one workload: set-up, timed iterations for `seconds`, then (with
/// `trace`) one traced set-up and iteration.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> Result<WorkloadRun, String> {
    let input_seed = pipeline::effective_seed(workload, seed);
    let rec = if trace { Rec::on() } else { Rec::off() };
    let off = Rec::off();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut report_failure = |what: &str, e: String| {
        failed += 1;
        eprintln!("{workload}: {what} failed its check: {e}");
    };

    // Only the traced run's set-up is recorded; untraced runs repeat it
    // and report the median.
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        attempted += 1;
        let t = Instant::now();
        let s = pipeline::setup(input_seed, &rec, dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(Err(e)) = setup.as_ref().map(|prev| prev.check_repeat(&s)) {
            report_failure("set-up", e);
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");

    let mut walls = Vec::new();
    let mut first: Option<Output> = None;
    heap::reset_peak();
    let start = Instant::now();
    loop {
        attempted += 1;
        let t = Instant::now();
        let out = pipeline::iterate(workload, &setup, &off, dir);
        walls.push(t.elapsed().as_secs_f64());
        match out.and_then(|o| pipeline::check(&setup, &o, first.as_ref()).map(|()| o)) {
            Ok(o) if first.is_none() => first = Some(o),
            Ok(_) => {}
            Err(e) => report_failure("iteration", e),
        }
        if start.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    let peak_heap_mib = heap::peak_bytes() as f64 / f64::from(1 << 20);

    let mut profile = None;
    let mut per_layer_metrics = Vec::new();
    if trace {
        attempted += 1;
        let t = Instant::now();
        let out = rec.span("iteration", || {
            pipeline::iterate(workload, &setup, &rec, dir)
        });
        let traced_wall = t.elapsed().as_secs_f64();
        if let Err(e) = out.and_then(|o| pipeline::check(&setup, &o, first.as_ref())) {
            report_failure("traced iteration", e);
        }
        let (spans, counts) = rec.finish();
        let p = Profile::build(spans, counts);
        let untraced_median = stats::summarize(&walls).median;
        per_layer_metrics = per_layer(&p, traced_wall, untraced_median);
        profile = Some(p);
    }

    // The simulated statistics are checked to repeat in every set-up and
    // iteration, so each set-up contributes one (identical) sample.
    let repeats = setup_s.len();
    let exact = |v: f64| vec![v; repeats];
    let (untraced, traced) = (setup.untraced, setup.traced);
    let end_to_end = vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::best("wall_s", "s", walls),
        Metric::one("peak_heap_mb", "MiB", peak_heap_mib),
        Metric::new("sim_cycles", "cycles", exact(untraced.cycles as f64)),
        Metric::new(
            "sim_slowdown",
            "ratio",
            exact(traced.run.cycles as f64 / untraced.cycles as f64),
        ),
        Metric::new(
            "bytes_per_record",
            "B",
            exact(traced.encoded_bytes as f64 / traced.records as f64),
        ),
    ];
    Ok(WorkloadRun {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        attempted,
        failed,
        end_to_end,
        per_layer: per_layer_metrics,
        profile,
    })
}

fn write_out(path: &Path, entries: &[String]) -> Result<(), String> {
    std::fs::write(path, report::out_file(entries)).map_err(|e| format!("write {path:?}: {e}"))
}

/// One workload in this process; the result object is the last line.
fn run_one(workload: &str, a: &Args, seconds: u64) -> Result<(), String> {
    let dir = WorkDir::create()?;
    let run = run_workload(workload, a.seed, seconds, a.trace, &dir.0)?;
    run.print();
    if let Some(out) = &a.out {
        write_out(out, &[report::out_entry(workload, &run.detail_json())])?;
    }
    println!("{}", run.result_line());
    Ok(())
}

/// Every workload, each in its own child process, one at a time.
fn run_all(a: &Args, seconds: u64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let dir = WorkDir::create()?;
    let mut entries = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let part = dir.0.join(format!("{w}.json"));
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = std::fs::read_to_string(&part).unwrap_or_default();
        let parsed: Option<serde_json::Value> = serde_json::from_str(&text).ok();
        match (parsed, report::out_entries(&text)) {
            (Some(v), Some(entry)) if status.success() => {
                all_ok &= v["workloads"][w]["correct"].as_bool() == Some(true);
                entries.push(entry.to_string());
            }
            _ => {
                all_ok = false;
                eprintln!("{w}: child run failed ({status})");
            }
        }
    }
    if let Some(out) = &a.out {
        write_out(out, &entries)?;
    }
    println!(
        "all workloads: {} of {} ran, {}",
        entries.len(),
        WORKLOADS.len(),
        if all_ok {
            "every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let result = parse_args(&argv).and_then(|a| {
        let seconds = match a.seconds {
            Some(s) => s,
            None => compare::Spec::load()?.run_seconds,
        };
        match &a.workload {
            Some(w) => run_one(w, &a, seconds).map(|()| true),
            None => run_all(&a, seconds),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("atum-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
