//! Workspace-level end-to-end tests: the whole pipeline from assembly
//! source through the microcoded machine, MOSS, the ATUM tracer and the
//! cache simulators — the invariants the reproduction's claims rest on.

use atum::cache::{simulate_stream, CacheConfig, SwitchPolicy};
use atum::core::{CaptureSession, RecordKind, Trace, Tracer, UserRefs};
use atum::machine::{Machine, RunExit};
use atum::os::BootImage;

fn traced_mix_run() -> (Machine, Trace) {
    let mix = vec![
        atum::workloads::matrix("matrix", 8),
        atum::workloads::list_chase("list", 256, 3_000),
    ];
    let mut builder = BootImage::builder().quantum(15_000);
    for w in &mix {
        builder = builder.user_program(&w.source);
    }
    let image = builder.build().unwrap();
    let mut m = Machine::new(image.memory_layout());
    image.load_into(&mut m).unwrap();
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_pid(&mut m, 0);
    let capture = CaptureSession::new(&tracer, 50_000_000_000)
        .run(&mut m)
        .unwrap();
    assert_eq!(capture.exit, RunExit::Halted);

    // Both workloads proved their own correctness through the console.
    let out = String::from_utf8(m.take_console_output()).unwrap();
    let mut got: Vec<char> = out.chars().collect();
    let mut want: Vec<char> = mix.iter().flat_map(|w| w.expected_output.chars()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "workload checksums verify");

    (m, capture.trace)
}

#[test]
fn completeness_invariants_hold() {
    let (m, trace) = traced_mix_run();
    let s = trace.stats();

    // 1. The trace agrees with the hardware counters, reference for
    //    reference.
    let c = m.counts();
    assert_eq!(s.ifetch, c.ifetch);
    assert_eq!(s.reads, c.data_reads);
    assert_eq!(s.writes, c.data_writes);

    // 2. OS activity is present and attributed.
    assert!(s.kernel_refs > 0);
    assert!(s.ctx_switches >= 2, "both processes were dispatched");
    assert!(s.interrupts > 0);
    assert!(s.refs_by_pid.contains_key(&1));
    assert!(s.refs_by_pid.contains_key(&2));

    // 3. Every interrupt marker carries a valid SCB vector.
    for r in trace.iter().filter(|r| r.kind() == RecordKind::Interrupt) {
        assert!(r.addr < 512, "vector {:#x} inside the SCB page", r.addr);
        assert_eq!(r.addr % 4, 0);
    }

    // 4. Context-switch markers alternate pids plausibly.
    let pids: Vec<u8> = trace
        .iter()
        .filter(|r| r.kind() == RecordKind::CtxSwitch)
        .map(|r| r.pid())
        .collect();
    assert!(pids.iter().all(|&p| (1..=2).contains(&p)));
}

#[test]
fn archival_encoding_preserves_cache_results() {
    let (_, trace) = traced_mix_run();
    let bytes = atum::core::encode_trace(&trace);
    let decoded = atum::core::decode_trace(&bytes).unwrap();

    for policy in [
        SwitchPolicy::Ignore,
        SwitchPolicy::Flush,
        SwitchPolicy::PidTag,
    ] {
        let cfg = CacheConfig::builder()
            .size(8 << 10)
            .block(16)
            .assoc(2)
            .switch_policy(policy)
            .build()
            .unwrap();
        let a = simulate_stream(&mut trace.source(), &cfg).unwrap();
        let b = simulate_stream(&mut decoded.source(), &cfg).unwrap();
        assert_eq!(a, b, "cache results identical through the archive format");
    }
}

#[test]
fn os_inclusion_changes_cache_results() {
    let (_, trace) = traced_mix_run();
    let cfg = CacheConfig::builder()
        .size(4 << 10)
        .block(16)
        .assoc(1)
        .build()
        .unwrap();
    let full = simulate_stream(&mut trace.source(), &cfg).unwrap();
    let user_only = simulate_stream(&mut UserRefs::new(trace.source()), &cfg).unwrap();
    assert!(full.accesses > user_only.accesses);
    assert!(
        full.misses > user_only.misses,
        "the OS adds misses, not just accesses"
    );
}

#[test]
fn flush_vs_tag_ordering_holds_on_real_traces() {
    let (_, trace) = traced_mix_run();
    let base = CacheConfig::builder()
        .size(16 << 10)
        .block(16)
        .assoc(2)
        .build()
        .unwrap();
    let flush =
        simulate_stream(&mut trace.source(), &base.with_switch(SwitchPolicy::Flush)).unwrap();
    let tag =
        simulate_stream(&mut trace.source(), &base.with_switch(SwitchPolicy::PidTag)).unwrap();
    assert!(
        flush.miss_rate() > tag.miss_rate(),
        "purging must cost more than tagging: {} vs {}",
        flush.miss_rate(),
        tag.miss_rate()
    );
}

#[test]
fn detach_stops_capture_and_restores_behaviour() {
    let image = BootImage::builder()
        .user_program("start: movl #200, r6\nloop: incl counter\n sobgtr r6, loop\n chmk #0\ncounter: .long 0")
        .build()
        .unwrap();
    let mut m = Machine::new(image.memory_layout());
    image.load_into(&mut m).unwrap();
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    // Run a little, detach, run to completion.
    m.run(200_000);
    let mid = tracer.pending_records(&m);
    assert!(mid > 0);
    let tracer2 = {
        tracer.detach(&mut m);
        // Records stay in the buffer, untouched, after detach.
        m.run(50_000_000)
    };
    assert_eq!(tracer2, RunExit::Halted);
}

#[test]
fn tiny_buffer_capture_equals_big_buffer_capture() {
    let program =
        "start: movl #300, r6\nloop: incl counter\n sobgtr r6, loop\n chmk #0\ncounter: .long 0";
    let capture_with = |buf: Option<u32>| {
        let image = BootImage::builder().user_program(program).build().unwrap();
        let mut m = Machine::new(image.memory_layout());
        image.load_into(&mut m).unwrap();
        let base = m.memory().layout().reserved_base();
        let tracer = match buf {
            Some(len) => Tracer::attach_region(&mut m, base, len).unwrap(),
            None => Tracer::attach(&mut m).unwrap(),
        };
        tracer.set_pid(&mut m, 0);
        let cap = CaptureSession::new(&tracer, 50_000_000_000)
            .run(&mut m)
            .unwrap();
        assert_eq!(cap.exit, RunExit::Halted);
        cap
    };
    let big = capture_with(None);
    let small = capture_with(Some(4096));
    assert!(small.drains > 0, "tiny buffer forced drains");
    let big_refs: Vec<_> = big.trace.refs().collect();
    let small_refs: Vec<_> = small.trace.refs().collect();
    assert_eq!(big_refs, small_refs, "stitching is lossless end to end");
}
