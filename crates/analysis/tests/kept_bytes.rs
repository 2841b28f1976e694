//! The standard mix is kept as the v2 bytes its capture streamed, each
//! segment stamped with its drain's cycle. E2 reports the size the
//! in-memory trace encodes to (cycle stamps 0), derived from those
//! bytes' segment headers alone. Every reader of those bytes — the
//! in-memory slice, a segment file, the decoded trace — and both cache
//! engines must agree on them.

use atum_analysis::{experiments, CapturedRun, Scale};
use atum_cache::{simulate_many_stream, simulate_stream, CacheConfig, SwitchPolicy};
use atum_core::{decode_trace, encode_trace, SegmentFileSource};
use std::sync::OnceLock;

/// The Quick standard mix, captured once for every test in this file.
fn mix() -> &'static CapturedRun {
    static MIX: OnceLock<CapturedRun> = OnceLock::new();
    MIX.get_or_init(|| experiments::capture_standard_mix(Scale::Quick).expect("capture"))
}

fn cfg(kb: u32, ways: u32, policy: SwitchPolicy) -> CacheConfig {
    CacheConfig::builder()
        .size(kb << 10)
        .block(16)
        .assoc(ways)
        .switch_policy(policy)
        .build()
        .expect("valid config")
}

#[test]
fn e2_counts_what_the_decoded_bytes_encode_to() {
    let run = mix();
    let want = encode_trace(&decode_trace(&run.bytes).expect("kept bytes decode")).len();
    assert!(want < run.bytes.len(), "the drain stamps are nonzero");
    let e2 = experiments::e2_compaction(Scale::Quick, run).expect("e2");
    let archived = &e2.tables[0].1.rows()[1];
    assert_eq!(archived[0], "archived (host-compacted)");
    assert_eq!(archived[1], want.to_string());
}

#[test]
fn segment_format_compacts_the_mix_at_least_three_fold() {
    let ratio = mix().stream.compression_ratio();
    assert!(ratio >= 3.0, "got {ratio:.2}x");
}

/// The 1–64 KiB, 1- and 4-way sweep gives the same stats from the kept
/// bytes, from a segment file holding them and from the decoded trace.
#[test]
fn sweep_agrees_across_kept_bytes_file_and_decoded_trace() {
    let run = mix();
    let cfgs: Vec<CacheConfig> = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .flat_map(|kb| [1u32, 4].map(|ways| cfg(kb, ways, SwitchPolicy::Ignore)))
        .collect();
    let kept = simulate_many_stream(&mut run.source(), &cfgs).expect("kept bytes");
    let path = std::env::temp_dir().join(format!("atum-kept-bytes-{}.atrace", std::process::id()));
    std::fs::write(&path, &run.bytes).expect("write trace file");
    let file = simulate_many_stream(&mut SegmentFileSource::new(&path), &cfgs);
    std::fs::remove_file(&path).ok();
    assert_eq!(kept, file.expect("segment file"), "segment file diverged");
    let trace = decode_trace(&run.bytes).expect("kept bytes decode");
    let decoded = simulate_many_stream(&mut trace.source(), &cfgs).expect("decoded trace");
    assert_eq!(kept, decoded, "decoded trace diverged");
}

/// The single-pass stack engine matches per-config replay on three
/// families: the F1 direct-mapped size sweep, sizes × ways, and
/// purge-on-switch.
#[test]
fn stack_engine_matches_per_config_replay() {
    let run = mix();
    let f1: Vec<CacheConfig> = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|kb| cfg(kb, 1, SwitchPolicy::Ignore))
        .collect();
    let assoc: Vec<CacheConfig> = [4u32, 16, 64]
        .into_iter()
        .flat_map(|kb| [1u32, 2, 4, 8].map(|ways| cfg(kb, ways, SwitchPolicy::Ignore)))
        .collect();
    let flush: Vec<CacheConfig> = [2u32, 8, 32]
        .into_iter()
        .flat_map(|kb| [1u32, 2].map(|ways| cfg(kb, ways, SwitchPolicy::Flush)))
        .collect();
    for (name, cfgs) in [("f1", f1), ("assoc", assoc), ("flush", flush)] {
        let stack = simulate_many_stream(&mut run.source(), &cfgs).expect("stack engine");
        let replay: Vec<_> = cfgs
            .iter()
            .map(|c| simulate_stream(&mut run.source(), c).expect("replay"))
            .collect();
        assert_eq!(stack, replay, "{name}: stack engine diverged");
    }
}
