//! Golden-file test pinning the `mculist patches` listing.
//!
//! The patch region is the heart of the reproduction: its exact shape —
//! symbol layout, capacity check, record stores, rejoin jumps — is what
//! both the transparency verifier and the paper's patch-size numbers
//! describe. Any change to it shows up here as a diff against
//! `tests/golden/patches.txt`; regenerate deliberately with
//! `cargo run -p atum-bench --bin mculist -- patches > crates/bench/tests/golden/patches.txt`.

use atum_bench::mculist::{cost_report, patches_report, verify};

/// Pins the full `mculist verify` report: the subject list, its order,
/// and the zero-findings state of every shipped artifact. Because
/// `lint::run` sorts findings by (pass, symbol, address), any
/// nondeterminism in a pass shows up here first. Regenerate deliberately
/// with
/// `cargo run -p atum-bench --bin mculist -- verify > crates/bench/tests/golden/verify.txt`.
#[test]
fn mculist_verify_output_matches_golden_file() {
    let expected = include_str!("golden/verify.txt");
    let actual = verify().render();
    assert!(
        actual == expected,
        "`mculist verify` output drifted from tests/golden/verify.txt.\n\
         If the change is intentional, regenerate the golden file:\n\
         cargo run -p atum-bench --bin mculist -- verify > crates/bench/tests/golden/verify.txt\n\
         \n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Pins the machine-readable verify report, including the state
/// partition the atomicity pass attaches to each control-store subject.
/// Regenerate deliberately with
/// `cargo run -p atum-bench --bin mculist -- verify --format json > crates/bench/tests/golden/verify.json`.
#[test]
fn mculist_verify_json_matches_golden_file() {
    let expected = include_str!("golden/verify.json");
    let actual = verify().render_json();
    assert!(
        actual == expected,
        "`mculist verify --format json` output drifted from tests/golden/verify.json.\n\
         If the change is intentional, regenerate the golden file:\n\
         cargo run -p atum-bench --bin mculist -- verify --format json > crates/bench/tests/golden/verify.json\n\
         \n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Pins the `mculist cost` report: the per-hook cycle bounds, the
/// aggregate dilation against the paper's 10–20× band, and the
/// simulated tight check. These are pure functions of the microcode and
/// the cycle model — any drift means the patches or the model changed,
/// and the paper-band argument needs re-checking. The command prints
/// this report and then its `cost: … finding(s), … error(s)` line
/// (`tests/mculist_cli.rs` checks both). Regenerate deliberately with
/// `cargo run -p atum-bench --bin mculist -- cost | head -n -1 > crates/bench/tests/golden/cost.txt`.
#[test]
fn mculist_cost_output_matches_golden_file() {
    let expected = include_str!("golden/cost.txt");
    let actual = cost_report().report;
    assert!(
        actual == expected,
        "`mculist cost` output drifted from tests/golden/cost.txt.\n\
         If the change is intentional, regenerate the golden file:\n\
         cargo run -p atum-bench --bin mculist -- cost | head -n -1 > crates/bench/tests/golden/cost.txt\n\
         \n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// Pins the machine-readable form of the same report (`cost --format
/// json`) — what downstream tooling parses, with the per-tier
/// added-cycle agreement included.
/// Regenerate deliberately with
/// `cargo run -p atum-bench --bin mculist -- cost --format json > crates/bench/tests/golden/cost.json`.
#[test]
fn mculist_cost_json_matches_golden_file() {
    let expected = include_str!("golden/cost.json");
    let actual = cost_report().json;
    assert!(
        actual == expected,
        "`mculist cost --format json` output drifted from tests/golden/cost.json.\n\
         If the change is intentional, regenerate the golden file:\n\
         cargo run -p atum-bench --bin mculist -- cost --format json > crates/bench/tests/golden/cost.json\n\
         \n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn mculist_patches_output_matches_golden_file() {
    let expected = include_str!("golden/patches.txt");
    let actual = patches_report();
    assert!(
        actual == expected,
        "`mculist patches` output drifted from tests/golden/patches.txt.\n\
         If the change is intentional, regenerate the golden file:\n\
         cargo run -p atum-bench --bin mculist -- patches > crates/bench/tests/golden/patches.txt\n\
         \n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}
