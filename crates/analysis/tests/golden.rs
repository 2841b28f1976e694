//! Golden-file regression tests for the experiment harness.
//!
//! The files under `tests/golden/` are byte-for-byte copies of what the
//! `experiments` binary prints for `quick t1`, `quick t2` and `quick f1`.
//! The whole pipeline — boot, trace capture, stitching, cache/TLB
//! simulation, table rendering — is deterministic, so any diff here is a
//! real behaviour change, not noise. If a change is intentional,
//! regenerate with:
//!
//! ```text
//! cargo run -p atum-bench --release --bin experiments -- quick t1 \
//!     > crates/analysis/tests/golden/t1-quick.txt
//! ```
//!
//! A second suite checks the `--jobs` contract: output must be identical
//! at any thread count. A third checks that `run_by_id`, with or without
//! a shared capture, renders what `run_selected` renders, and (in
//! release builds) that every full-scale report is recorded verbatim in
//! EXPERIMENTS.md.

use atum_analysis::{experiments, Scale};

/// Renders `ids` exactly as the `experiments` binary prints them to
/// stdout: each report followed by a blank line.
fn rendered(scale: Scale, ids: &[&str], jobs: usize) -> String {
    let ids: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    let mut out = String::new();
    for (id, result) in experiments::run_selected(scale, &ids, jobs) {
        let report = result.unwrap_or_else(|e| panic!("{id} failed: {e}"));
        out.push_str(&format!("{report}\n\n"));
    }
    out
}

fn assert_matches_golden(id: &str, golden: &str) {
    let got = rendered(Scale::Quick, &[id], 1);
    assert!(
        got == golden,
        "`experiments quick {id}` drifted from tests/golden/{id}-quick.txt\n\
         --- expected ---\n{golden}\n--- got ---\n{got}"
    );
}

#[test]
fn t1_quick_matches_golden() {
    assert_matches_golden("t1", include_str!("golden/t1-quick.txt"));
}

#[test]
fn t2_quick_matches_golden() {
    assert_matches_golden("t2", include_str!("golden/t2-quick.txt"));
}

#[test]
fn f1_quick_matches_golden() {
    assert_matches_golden("f1", include_str!("golden/f1-quick.txt"));
}

/// Both engine tiers must produce byte-identical experiment output:
/// every capture the pipeline performs — boot, tracing, stitching,
/// simulation — goes through machines whose tier is set by the
/// process-global default, and the tiers are proven observationally
/// identical by the differential suites in `atum-bench`. Running the
/// quick-scale t1/t2/f1 under each tier and diffing against the same
/// golden files closes the loop end to end: a tier divergence anywhere
/// in a full experiment pipeline shows up here as a byte diff.
#[test]
fn output_identical_across_engine_tiers() {
    use atum_machine::{set_default_engine_tier, EngineTier};
    for tier in [EngineTier::Reference, EngineTier::Fast] {
        set_default_engine_tier(tier);
        assert_matches_golden("t1", include_str!("golden/t1-quick.txt"));
        assert_matches_golden("t2", include_str!("golden/t2-quick.txt"));
        assert_matches_golden("f1", include_str!("golden/f1-quick.txt"));
    }
    set_default_engine_tier(EngineTier::default());
}

/// `--jobs 1` and `--jobs 4` must print the same bytes: `parallel_map`
/// returns results in input order and every job is deterministic. Also
/// varies the global default that `run_by_id` performs its runs on.
#[test]
fn output_identical_across_job_counts() {
    let ids = ["t1", "t2", "f1"];
    atum_analysis::set_jobs(1);
    let serial = rendered(Scale::Quick, &ids, 1);
    atum_analysis::set_jobs(4);
    let parallel = rendered(Scale::Quick, &ids, 4);
    atum_analysis::set_jobs(0);
    assert!(
        serial == parallel,
        "experiment output depends on thread count\n--- jobs=1 ---\n{serial}\n--- jobs=4 ---\n{parallel}"
    );
}

/// Every report, keyed by id, as `run_selected` renders it.
fn selected(scale: Scale) -> Vec<(String, String)> {
    let ids: Vec<String> = experiments::ALL_IDS.iter().map(|s| s.to_string()).collect();
    experiments::run_selected(scale, &ids, 2)
        .into_iter()
        .map(|(id, r)| {
            let report = r.unwrap_or_else(|e| panic!("{id} failed: {e}"));
            (id, report.to_string())
        })
        .collect()
}

/// The path the pipeline benchmark takes: `run_by_id` with the shared
/// capture for every id, and without it for the ids that capture on
/// their own.
#[test]
fn run_by_id_renders_what_run_selected_renders() {
    let shared = experiments::capture_standard_mix(Scale::Quick).expect("capture");
    for (id, want) in selected(Scale::Quick) {
        let got = experiments::run_by_id(&id, Scale::Quick, Some(&shared))
            .unwrap_or_else(|e| panic!("{id} with the shared capture failed: {e}"))
            .to_string();
        assert!(
            got == want,
            "{id} with the shared capture:\n{got}\n---\n{want}"
        );
        if ["t1", "t2", "a1", "f1"].contains(&id.as_str()) {
            let alone = experiments::run_by_id(&id, Scale::Quick, None)
                .unwrap_or_else(|e| panic!("{id} alone failed: {e}"))
                .to_string();
            assert!(alone == want, "{id} alone:\n{alone}\n---\n{want}");
        }
    }
}

/// The recorded tables must be what the code prints: every full-scale
/// report appears verbatim in EXPERIMENTS.md.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the full-scale evaluation; run with `cargo test --release`"
)]
fn experiments_md_records_every_full_report() {
    let recorded = include_str!("../../../EXPERIMENTS.md");
    let stale: Vec<String> = selected(Scale::Full)
        .into_iter()
        .filter(|(_, report)| !recorded.contains(report.as_str()))
        .map(|(id, report)| format!("{id}:\n{report}"))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md does not record these reports as printed; paste in \
         `experiments full <id>`:\n{}",
        stale.join("\n")
    );
}
