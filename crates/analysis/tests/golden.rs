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
//! at any thread count.

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
/// varies the global default used by internal fan-out (T2's
/// per-workload captures).
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
