//! Analysis-rate benchmark: the single-pass stack engine
//! (`simulate_many_stream`) against per-configuration replay
//! (`simulate_stream` once per configuration, the cache oracle).
//!
//! Captures the standard mix, replicates it until its raw size passes
//! [`RECORD_BUDGET`] (564,965 records at quick scale), then runs three
//! sweep families — the F1-style direct-mapped size sweep, an
//! associativity mix, and a purge-on-switch family — both ways. The
//! result sets must be identical per family, and the stack engine's
//! rate on the F1 family must be at least [`MIN_GAIN`]× replay (the CI
//! floor gate). Rates are recorded machine-readably in
//! `BENCH_analysis.json` at the workspace root.
//!
//! ```text
//! cargo bench -p atum-bench --bench analysis -- analysis
//! ```

use atum_analysis::{experiments, Scale};
use atum_cache::{simulate_many_stream, simulate_stream, CacheConfig, CacheStats, SwitchPolicy};
use atum_core::{decode_trace, RecordKind, Trace};
use criterion::{criterion_group, criterion_main, Criterion};

/// The raw size, in bytes at 8 B per record, the replicated trace must
/// exceed — big enough that per-reference work dominates each pass's
/// constant costs.
const RECORD_BUDGET: u64 = 4 << 20;

/// Best-of timing rounds per variant (interleaved so host drift cancels
/// in the ratios).
const ROUNDS: usize = 3;

/// CI floor: the stack engine's rate over the F1 family must beat
/// per-configuration replay by at least this factor.
const MIN_GAIN: f64 = 2.0;

/// Re-stitches one copy of `src` onto `big`, keeping per-drain segment
/// boundaries (a plain `stitch(clone)` would flatten them).
fn stitch_replica(big: &mut Trace, src: &Trace) {
    for seg in src.segment_slices() {
        let recs = match seg.last() {
            Some(r) if r.kind() == RecordKind::SegmentMark => &seg[..seg.len() - 1],
            _ => seg,
        };
        let sub: Trace = recs.iter().copied().collect();
        big.stitch(sub);
    }
}

struct Family {
    name: &'static str,
    cfgs: Vec<CacheConfig>,
}

fn families() -> Vec<Family> {
    // F1-style: direct-mapped size sweep, 16 B blocks — the paper's
    // complete-vs-user miss-rate family and the gated workload.
    let f1: Vec<CacheConfig> = [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|kb| {
            CacheConfig::builder()
                .size(kb << 10)
                .block(16)
                .assoc(1)
                .build()
                .unwrap()
        })
        .collect();
    // Associativity mix: sizes x ways in one shared stack.
    let mut assoc = Vec::new();
    for kb in [4u32, 16, 64] {
        for ways in [1u32, 2, 4, 8] {
            assoc.push(
                CacheConfig::builder()
                    .size(kb << 10)
                    .block(16)
                    .assoc(ways)
                    .build()
                    .unwrap(),
            );
        }
    }
    // Purge-on-switch: the multiprogramming family, exercising the
    // flush path's shared resident walk.
    let flush: Vec<CacheConfig> = [2u32, 8, 32]
        .into_iter()
        .flat_map(|kb| {
            [1u32, 2].into_iter().map(move |ways| {
                CacheConfig::builder()
                    .size(kb << 10)
                    .block(16)
                    .assoc(ways)
                    .switch_policy(SwitchPolicy::Flush)
                    .build()
                    .unwrap()
            })
        })
        .collect();
    vec![
        Family {
            name: "f1_size_sweep",
            cfgs: f1,
        },
        Family {
            name: "assoc_mix",
            cfgs: assoc,
        },
        Family {
            name: "flush_switch",
            cfgs: flush,
        },
    ]
}

/// One pass answering every configuration.
fn stack_engine(trace: &Trace, cfgs: &[CacheConfig]) -> Vec<CacheStats> {
    simulate_many_stream(&mut trace.source(), cfgs).expect("in-memory source cannot fail")
}

/// One replay pass per configuration.
fn replay(trace: &Trace, cfgs: &[CacheConfig]) -> Vec<CacheStats> {
    cfgs.iter()
        .map(|c| simulate_stream(&mut trace.source(), c).expect("in-memory source cannot fail"))
        .collect()
}

fn best_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::MAX;
    let mut last = None;
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("rounds >= 1"))
}

fn analysis(_c: &mut Criterion) {
    if !criterion::filter_matches("analysis") {
        return;
    }

    let run = experiments::capture_standard_mix(Scale::Quick).expect("capture standard mix");
    let mix = decode_trace(&run.bytes).expect("kept bytes decode");
    let mut big = Trace::new();
    let mut replicas = 0u32;
    while (big.len() as u64) <= RECORD_BUDGET / 8 {
        stitch_replica(&mut big, &mix);
        replicas += 1;
    }
    let refs = big.ref_count() as f64;

    let mut rows = String::new();
    let mut f1_gain = 0.0f64;
    for fam in families() {
        // Correctness first: the stack engine must match replay exactly.
        assert_eq!(
            stack_engine(&big, &fam.cfgs),
            replay(&big, &fam.cfgs),
            "{}: stack engine diverged from per-config replay",
            fam.name
        );

        // Timing: interleave the variants inside each round.
        let mut t_replay = f64::MAX;
        let mut t_stack = f64::MAX;
        for _ in 0..ROUNDS {
            let (t, _) = best_of(1, || replay(&big, &fam.cfgs));
            t_replay = t_replay.min(t);
            let (t, _) = best_of(1, || stack_engine(&big, &fam.cfgs));
            t_stack = t_stack.min(t);
        }
        let replay_rate = refs / t_replay;
        let stack_rate = refs / t_stack;
        let gain = t_replay / t_stack;
        if fam.name == "f1_size_sweep" {
            f1_gain = gain;
        }
        println!(
            "bench analysis[{}]: {} configs  replay {replay_rate:.3e} refs/s  \
             stack {stack_rate:.3e} refs/s  ({gain:.2}x over replay)",
            fam.name,
            fam.cfgs.len(),
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\n      \"family\": \"{}\",\n      \"configs\": {},\n      \
             \"replay_refs_per_sec\": {replay_rate:.1},\n      \
             \"stack_refs_per_sec\": {stack_rate:.1},\n      \
             \"gain_over_replay\": {gain:.3},\n      \
             \"results_identical\": true\n    }}",
            fam.name,
            fam.cfgs.len(),
        ));
    }

    assert!(
        f1_gain >= MIN_GAIN,
        "F1 sweep family must run at least {MIN_GAIN}x per-config replay, got {f1_gain:.2}x"
    );

    let json = format!(
        "{{\n  \"workload\": \"standard mix (Quick) x{replicas} replicas\",\n  \
         \"unit\": \"memory references per second\",\n  \
         \"records\": {},\n  \"refs\": {},\n  \
         \"min_gain_floor\": {MIN_GAIN},\n  \
         \"f1_gain_over_replay\": {f1_gain:.3},\n  \
         \"families\": [\n{rows}\n  ]\n}}\n",
        big.len(),
        big.ref_count(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    std::fs::write(out, json).expect("write BENCH_analysis.json");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = analysis
}
criterion_main!(benches);
