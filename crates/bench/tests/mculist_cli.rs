//! The `mculist` command line: a mistyped flag, a flag the command does
//! not take, an unknown `--format` value or a stray argument is a usage
//! error (exit 1, nothing on stdout) rather than a report run with the
//! mistake ignored.

use std::process::{Command, Output};

const GOLDEN_TRACE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../core/tests/golden/trace_v2.atrace"
);

fn mculist(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mculist"))
        .args(args)
        .output()
        .expect("run mculist")
}

#[test]
fn malformed_command_lines_are_usage_errors() {
    for args in [
        &["verify", "--fromat", "json"][..],
        &["verify", "--format", "xml"],
        &["cost-static", "--format=yaml"],
        &["trace", "info", GOLDEN_TRACE, "--bacth"],
        &["verify", "extra"],
        &["verify", "--pass"],
        &["cost-static", "--pass", "atomicity"],
        &["verify", "--batch"],
        &["entries", "--format", "json"],
        &["trace", "info"],
        &["trace", GOLDEN_TRACE],
        &["trace", "frob", GOLDEN_TRACE],
    ] {
        let out = mculist(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(stderr.contains("usage: mculist"), "{args:?}: {stderr}");
    }
}

#[test]
fn well_formed_flags_still_run() {
    for args in [
        &["trace", "info", GOLDEN_TRACE, "--format", "json"][..],
        &["trace", "info", "--format=json", GOLDEN_TRACE],
        &["trace", "info", GOLDEN_TRACE, "--batch"],
    ] {
        let out = mculist(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
}
