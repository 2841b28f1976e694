//! Buffer-full microtrap → extraction → `core::stitch`, end to end, under
//! a real multi-process OS mix (E1's methodology).
//!
//! A small reserved region forces the patch microcode to halt with the
//! FULL flag many times mid-workload; the host drains and resumes each
//! time, and [`CaptureSession`] stitches the samples. Four claims are
//! pinned down here:
//!
//! 1. Stitching is lossless: with asynchronous preemption quiesced, the
//!    stitched trace carries exactly the records of a continuous
//!    capture, so downstream cache results are bit-identical.
//! 2. Under a preemptive quantum the drain stalls dilate time — timer
//!    interrupts land a few instructions earlier or later, exactly the
//!    perturbation the paper accepts — but the distortion stays tiny.
//! 3. The drained segments are only equivalent *as a whole*: replaying
//!    each against a cold cache (the cold-start window E1 quantifies)
//!    can only overstate misses relative to the stitched trace.
//! 4. A capture that keeps only statistics (`run_stats`) counts exactly
//!    the trace stitching would have built.

use atum::cache::{simulate_stream, CacheConfig, SwitchPolicy};
use atum::core::{Capture, CaptureSession, RecordKind, Trace, Tracer};
use atum::machine::{Machine, RunExit};
use atum::os::BootImage;

/// Boots the standard two-process mix with the tracer attached to a
/// reserved buffer of the given length (`None` = the full default
/// region) and the given scheduler quantum.
fn boot_mix(buf_len: Option<u32>, quantum: u32) -> (Machine, Tracer) {
    let mix = vec![
        atum::workloads::matrix("matrix", 8),
        atum::workloads::list_chase("list", 256, 3_000),
    ];
    let mut builder = BootImage::builder().quantum(quantum);
    for w in &mix {
        builder = builder.user_program(&w.source);
    }
    let image = builder.build().unwrap();
    let mut m = Machine::new(image.memory_layout());
    image.load_into(&mut m).unwrap();
    let base = m.memory().layout().reserved_base();
    let tracer = match buf_len {
        Some(len) => Tracer::attach_region(&mut m, base, len).unwrap(),
        None => Tracer::attach(&mut m).unwrap(),
    };
    tracer.set_pid(&mut m, 0);
    (m, tracer)
}

const BUDGET: u64 = 50_000_000_000;

/// Captures the mix [`boot_mix`] boots, stitching every drain.
fn capture_mix(buf_len: Option<u32>, quantum: u32) -> Capture {
    let (mut m, tracer) = boot_mix(buf_len, quantum);
    let capture = CaptureSession::new(&tracer, BUDGET).run(&mut m).unwrap();
    assert_eq!(capture.exit, RunExit::Halted);
    capture
}

/// A quantum no process outlives: context switches still happen at
/// process exit, but no timer interrupt preempts a running process, so
/// drain stalls cannot shift the interleaving.
const NO_PREEMPT: u32 = 50_000_000;
/// The preemptive quantum the analysis suite uses for this mix.
const PREEMPT: u32 = 15_000;

fn cfg_16k_2way() -> CacheConfig {
    CacheConfig::builder()
        .size(16 << 10)
        .block(16)
        .assoc(2)
        .switch_policy(SwitchPolicy::PidTag)
        .build()
        .unwrap()
}

#[test]
fn stitched_os_mix_equals_continuous_capture() {
    let continuous = capture_mix(None, NO_PREEMPT);
    let stitched = capture_mix(Some(4096), NO_PREEMPT);

    // The tiny buffer really did fill mid-workload, repeatedly, and every
    // drain left one segment mark behind.
    assert!(
        stitched.drains > 2,
        "expected many drains, got {}",
        stitched.drains
    );
    assert_eq!(continuous.drains, 0, "default region holds the whole mix");
    let marks = stitched
        .trace
        .iter()
        .filter(|r| r.kind() == RecordKind::SegmentMark)
        .count();
    assert_eq!(marks as u32, stitched.drains);
    assert!(stitched.trace.segments() > stitched.drains as usize);

    // The OS is genuinely in the picture even without preemption.
    let stats = stitched.trace.stats();
    assert!(stats.kernel_refs > 0);
    assert!(stats.ctx_switches >= 2, "each process got dispatched");

    // Modulo those marks, the stitched trace is the continuous one —
    // kernel refs, context switches and interrupt markers included.
    let strip = |t: &Trace| -> Vec<_> {
        t.iter()
            .copied()
            .filter(|r| r.kind() != RecordKind::SegmentMark)
            .collect()
    };
    assert_eq!(strip(&stitched.trace), strip(&continuous.trace));

    // And so is everything downstream of it.
    let cfg = cfg_16k_2way();
    assert_eq!(
        simulate_stream(&mut stitched.trace.source(), &cfg).unwrap(),
        simulate_stream(&mut continuous.trace.source(), &cfg).unwrap(),
    );
}

#[test]
fn drain_dilation_under_preemption_is_tiny() {
    let continuous = capture_mix(None, PREEMPT);
    let stitched = capture_mix(Some(4096), PREEMPT);
    assert!(stitched.drains > 2);

    // Drain stalls shift where timer interrupts land, so the interleaved
    // streams are not identical — that is the dilation the paper
    // documents, and it must stay in the noise: reference counts within
    // a fraction of a percent, miss rates within a tenth of a point.
    let (a, b) = (continuous.trace.ref_count(), stitched.trace.ref_count());
    let drift = a.abs_diff(b) as f64 / a as f64;
    assert!(drift < 0.005, "ref-count drift {drift:.4} ({a} vs {b})");

    let cfg = cfg_16k_2way();
    let (ma, mb) = (
        simulate_stream(&mut continuous.trace.source(), &cfg)
            .unwrap()
            .miss_rate(),
        simulate_stream(&mut stitched.trace.source(), &cfg)
            .unwrap()
            .miss_rate(),
    );
    assert!(
        (ma - mb).abs() < 0.001,
        "miss-rate drift {:.4}pp",
        100.0 * (ma - mb).abs()
    );
}

#[test]
fn per_segment_replay_shows_cold_start_bias() {
    let stitched = capture_mix(Some(4096), PREEMPT);
    assert!(stitched.drains > 2);

    let cfg = cfg_16k_2way();
    let whole = simulate_stream(&mut stitched.trace.source(), &cfg).unwrap();

    // Replay each drained sample against a cold cache, as if the segments
    // had never been stitched.
    let mut segments: Vec<Trace> = vec![Trace::new()];
    for r in stitched.trace.iter() {
        if r.kind() == RecordKind::SegmentMark {
            segments.push(Trace::new());
        } else {
            segments.last_mut().unwrap().push(*r);
        }
    }
    let (mut hits, mut misses) = (0u64, 0u64);
    for seg in &segments {
        let s = simulate_stream(&mut seg.source(), &cfg).unwrap();
        hits += s.hits;
        misses += s.misses;
    }

    // Same references either way; per-segment replay can only lose hits
    // to cold starts — the bias E1 measures, and the reason the paper
    // cares about long continuous samples.
    assert_eq!(hits + misses, whole.hits + whole.misses);
    assert!(
        misses > whole.misses,
        "cold segment starts must cost extra misses ({} vs {})",
        misses,
        whole.misses
    );
}

#[test]
fn stats_only_capture_counts_the_stitched_trace() {
    for buf_len in [None, Some(4096)] {
        let stitched = capture_mix(buf_len, PREEMPT);
        let (mut m, tracer) = boot_mix(buf_len, PREEMPT);
        let counted = CaptureSession::new(&tracer, BUDGET)
            .run_stats(&mut m)
            .unwrap();
        // Same drains, and the statistics of the trace that was never
        // built equal those of the stitched one, segment marks included.
        assert_eq!(counted.exit, RunExit::Halted);
        assert_eq!(counted.drains, stitched.drains);
        assert_eq!(counted.stats, stitched.trace.stats());
    }
}
