//! The `experiments` binary checks every id before any run starts: an
//! unknown id exits nonzero with no report on stdout, even next to a
//! valid one.

use std::process::Command;

#[test]
fn unknown_id_fails_before_any_report() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["quick", "e3", "t9"])
        .output()
        .expect("run experiments");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id 't9'"), "{stderr}");
    assert!(stderr.contains("valid ids: t1 t2 f1"), "{stderr}");
}
