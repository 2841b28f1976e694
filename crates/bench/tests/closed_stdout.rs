//! Every binary writes stdout through one checked writer: when the
//! reader has gone (`| head`), the write fails with `BrokenPipe`, and the
//! program stops and exits 0 instead of panicking.

use std::process::{Command, Output, Stdio};

/// Runs `bin` with `args`, its stdout a pipe whose read end is closed
/// before the program writes anything.
fn with_stdout_closed(bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    child.wait_with_output().expect("wait")
}

fn assert_quiet_success(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(!stderr.contains("Broken pipe"), "{what}: {stderr}");
}

#[test]
fn capture_ends_quietly_on_a_closed_stdout() {
    let out = with_stdout_closed(
        env!("CARGO_BIN_EXE_capture"),
        &["matrix", "--dump", "100000"],
    );
    assert_quiet_success(&out, "capture matrix --dump 100000");
}

#[test]
fn mculist_ends_quietly_on_a_closed_stdout() {
    let out = with_stdout_closed(env!("CARGO_BIN_EXE_mculist"), &["all"]);
    assert_quiet_success(&out, "mculist all");
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn experiments_ends_quietly_on_a_closed_stdout() {
    let out = with_stdout_closed(env!("CARGO_BIN_EXE_experiments"), &["quick", "e2"]);
    assert_quiet_success(&out, "experiments quick e2");
}
