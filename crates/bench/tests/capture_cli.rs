//! The `capture` binary end to end: the file it writes decodes to the
//! trace it reports and dumps, and an unknown workload or an unwritable
//! output path is rejected before the capture runs.

use std::process::Command;

#[test]
fn capture_writes_the_trace_it_reports() {
    let path = std::env::temp_dir().join(format!("atum-capture-cli-{}.atrace", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_capture"))
        .arg("matrix")
        .arg("-o")
        .arg(&path)
        .args(["--dump", "3"])
        .output()
        .expect("run capture");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);

    let bytes = std::fs::read(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let trace = atum_core::decode_trace(&bytes).expect("trace file decodes");

    // `--dump 3` prints the file's first three records.
    let dumped: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    let first: Vec<String> = trace.iter().take(3).map(|r| r.to_string()).collect();
    assert_eq!(dumped, first);

    // The `refs:` line counts the references the file holds.
    let refs: usize = stderr
        .lines()
        .find_map(|l| l.strip_prefix("refs: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no refs line: {stderr}"));
    assert_eq!(trace.ref_count(), refs);
}

#[test]
fn unknown_workload_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_capture"))
        .arg("nosuch")
        .output()
        .expect("run capture");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown workload 'nosuch'"), "{stderr}");
}

#[test]
fn unwritable_output_fails_before_the_capture() {
    let path = std::env::temp_dir()
        .join(format!("atum-no-such-dir-{}", std::process::id()))
        .join("x.atrace");
    let out = Command::new(env!("CARGO_BIN_EXE_capture"))
        .arg("matrix")
        .arg("-o")
        .arg(&path)
        .output()
        .expect("run capture");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&*path.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("cycles:"), "the capture ran: {stderr}");
    assert!(out.stdout.is_empty());
}
