//! Out-of-core trace streaming benchmark: captures the standard mix,
//! replicates it onto disk past a 16 MiB in-memory budget, then runs the
//! same stackable cache sweep (`simulate_many_stream`) over three
//! sources: the in-memory trace (`Trace::source`), the segment file,
//! and the file's v2 bytes held in memory (`SegmentSliceSource`, the
//! form `experiments` keeps the standard mix in). The three result sets
//! must be identical, and the streamed sweep must run within
//! [`MAX_STREAMED_SLOWDOWN`]× of the in-memory one. The timings and the
//! file's compression ratio are recorded machine-readably in
//! `BENCH_trace.json` at the workspace root.
//!
//! ```text
//! cargo bench -p atum-bench --bench trace_stream -- trace_stream
//! ```

use atum_analysis::{experiments, Scale};
use atum_cache::{simulate_many_stream, CacheConfig};
use atum_core::{
    decode_trace, RecordKind, SegmentFileSource, SegmentSliceSource, SegmentWriter, Trace,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// The in-memory budget the on-disk trace must exceed: the sweep below
/// demonstrably runs against a file bigger (in raw records) than this.
const MEMORY_BUDGET: u64 = 16 << 20;

/// CI ceiling: the streamed sweep may take at most this many times the
/// in-memory sweep's time (decode is the only extra work).
const MAX_STREAMED_SLOWDOWN: f64 = 1.25;

/// Timed rounds per variant, after one untimed warm-up round. Each round
/// runs every variant once, in an order that rotates from round to
/// round, and each variant keeps its best time, so one transient host
/// stall cannot decide the ratio.
const ROUNDS: usize = 5;

/// Re-stitches one copy of `src` onto `big`, segment by segment, so the
/// replica keeps `src`'s per-drain segment boundaries (a plain
/// `stitch(clone)` would flatten them into one segment per replica,
/// unlike a real capture's per-drain file).
fn stitch_replica(big: &mut Trace, src: &Trace) {
    for seg in src.segment_slices() {
        let recs = match seg.last() {
            // `stitch` re-adds the terminating mark itself.
            Some(r) if r.kind() == RecordKind::SegmentMark => &seg[..seg.len() - 1],
            _ => seg,
        };
        let sub: Trace = recs.iter().copied().collect();
        big.stitch(sub);
    }
}

fn sweep_configs() -> Vec<CacheConfig> {
    let mut cfgs = Vec::new();
    for kb in [1u32, 2, 4, 8, 16, 32, 64] {
        for ways in [1u32, 4] {
            cfgs.push(
                CacheConfig::builder()
                    .size(kb << 10)
                    .block(16)
                    .assoc(ways)
                    .build()
                    .unwrap(),
            );
        }
    }
    cfgs
}

/// Seconds one call of `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = std::time::Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64()
}

fn trace_stream(_c: &mut Criterion) {
    if !criterion::filter_matches("trace_stream") {
        return;
    }

    // One real capture of the standard mix; replicate it until the raw
    // record size crosses the in-memory budget.
    let run = experiments::capture_standard_mix(Scale::Quick).expect("capture standard mix");
    let mix = decode_trace(&run.bytes).expect("kept bytes decode");
    let mut big = Trace::new();
    let mut replicas = 0u32;
    while (big.len() as u64) * 8 <= MEMORY_BUDGET {
        stitch_replica(&mut big, &mix);
        replicas += 1;
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/trace_stream.atrace"
    );
    let mut w = SegmentWriter::create(path).expect("create trace file");
    w.write_trace(&big).expect("write trace");
    let stats = w.finish().expect("flush trace");
    assert!(
        stats.raw_bytes() > MEMORY_BUDGET,
        "on-disk trace must exceed the {} MiB in-memory budget, got {} raw bytes",
        MEMORY_BUDGET >> 20,
        stats.raw_bytes()
    );
    assert!(
        stats.compression_ratio() >= 3.0,
        "segment format must compact the captured mix >=3x, got {:.2}",
        stats.compression_ratio()
    );

    let cfgs = sweep_configs();
    let bytes = std::fs::read(path).expect("read trace file");

    // Correctness first: every path must produce identical stats.
    let baseline = simulate_many_stream(&mut big.source(), &cfgs).expect("in-memory source");
    let seq = simulate_many_stream(&mut SegmentFileSource::new(path), &cfgs).expect("stream");
    assert_eq!(baseline, seq, "streamed sweep diverged");
    let kept = simulate_many_stream(&mut SegmentSliceSource::new(&bytes), &cfgs).expect("bytes");
    assert_eq!(baseline, kept, "sweep over in-memory v2 bytes diverged");

    // Timing: one warm-up round, then ROUNDS interleaved rounds; every
    // leg runs once per round and keeps its best time.
    let legs: [&dyn Fn() -> f64; 3] = [
        &|| time(|| simulate_many_stream(&mut big.source(), &cfgs).expect("in-memory source")),
        &|| {
            time(|| simulate_many_stream(&mut SegmentFileSource::new(path), &cfgs).expect("stream"))
        },
        &|| {
            time(|| {
                simulate_many_stream(&mut SegmentSliceSource::new(&bytes), &cfgs).expect("bytes")
            })
        },
    ];
    let mut best = [f64::MAX; 3];
    for round in 0..=ROUNDS {
        for i in 0..legs.len() {
            let leg = (round + i) % legs.len();
            let t = legs[leg]();
            if round > 0 {
                best[leg] = best[leg].min(t);
            }
        }
    }
    let [t_mem, t_seq, t_bytes] = best;

    let refs = big.ref_count() as f64;
    let mem_rate = refs / t_mem;
    let seq_rate = refs / t_seq;
    let bytes_rate = refs / t_bytes;
    let slowdown = t_seq / t_mem;
    let bytes_slowdown = t_bytes / t_mem;
    println!(
        "bench trace_stream: {} records in {} segments ({} replicas of the standard mix)\n\
         bench trace_stream: {} encoded bytes vs {} raw ({:.2}x compression)\n\
         bench trace_stream: in-memory {mem_rate:.3e} refs/s  streamed {seq_rate:.3e} refs/s  \
         (streamed {slowdown:.3}x of in-memory)\n\
         bench trace_stream: in-memory v2 bytes {bytes_rate:.3e} refs/s  \
         ({bytes_slowdown:.3}x of in-memory)",
        stats.records,
        stats.segments,
        replicas,
        stats.encoded_bytes,
        stats.raw_bytes(),
        stats.compression_ratio(),
    );
    assert!(
        slowdown <= MAX_STREAMED_SLOWDOWN,
        "streamed sweep must run within {MAX_STREAMED_SLOWDOWN}x of in-memory, got {slowdown:.3}x"
    );

    let json = format!(
        "{{\n  \"workload\": \"standard mix (Quick) x{replicas} replicas\",\n  \
         \"unit\": \"memory references per second\",\n  \
         \"memory_budget_bytes\": {MEMORY_BUDGET},\n  \
         \"records\": {},\n  \"segments\": {},\n  \
         \"raw_bytes\": {},\n  \"encoded_bytes\": {},\n  \
         \"compression_ratio\": {:.3},\n  \
         \"exceeds_memory_budget\": {},\n  \
         \"configs\": {},\n  \
         \"results_identical\": true,\n  \
         \"in_memory_refs_per_sec\": {mem_rate:.1},\n  \
         \"streamed_refs_per_sec\": {seq_rate:.1},\n  \
         \"streamed_slowdown\": {slowdown:.3},\n  \
         \"in_memory_bytes_refs_per_sec\": {bytes_rate:.1},\n  \
         \"in_memory_bytes_slowdown\": {bytes_slowdown:.3}\n}}\n",
        stats.records,
        stats.segments,
        stats.raw_bytes(),
        stats.encoded_bytes,
        stats.compression_ratio(),
        stats.raw_bytes() > MEMORY_BUDGET,
        cfgs.len(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    std::fs::write(out, json).expect("write BENCH_trace.json");
    std::fs::remove_file(path).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = trace_stream
}
criterion_main!(benches);
