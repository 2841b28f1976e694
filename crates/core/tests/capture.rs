//! End-to-end capture tests: the ATUM patches against real programs on
//! the microcoded machine — completeness, invisibility, stitching, and
//! the slowdown measurement itself.

use atum_core::{CaptureSession, RecordKind, Tracer};
use atum_machine::{Machine, MemLayout, RunExit};

const ORG: u32 = 0x1000;

fn load(src: &str) -> Machine {
    let full = format!(".org {ORG:#x}\n{src}\n");
    let img = atum_asm::assemble(&full).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut m = Machine::new(MemLayout::small());
    for (addr, bytes) in img.segments() {
        m.write_phys(*addr, bytes).expect("load");
    }
    m.set_gpr(14, 0x8000);
    m.set_pc(img.symbol("start").unwrap_or(ORG));
    m
}

#[test]
fn captures_reads_writes_and_ifetches() {
    let mut m = load(
        "start: movl data, r1\n movl r1, out\n halt\n\
         data: .long 0x1234\nout: .long 0",
    );
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    let t = tracer.extract(&m).unwrap();

    let reads: Vec<_> = t.iter().filter(|r| r.kind() == RecordKind::Read).collect();
    let writes: Vec<_> = t.iter().filter(|r| r.kind() == RecordKind::Write).collect();
    let ifetches = t.iter().filter(|r| r.kind() == RecordKind::IFetch).count();
    assert_eq!(reads.len(), 1);
    assert_eq!(writes.len(), 1);
    assert!(ifetches >= 2, "several istream longwords");
    // The read is of `data`, the write of `out`; both longword, kernel.
    assert_eq!(reads[0].size(), 4);
    assert!(reads[0].is_kernel());
    assert_eq!(writes[0].addr, reads[0].addr + 4);
    // All ifetches are longword-aligned.
    for r in t.iter().filter(|r| r.kind() == RecordKind::IFetch) {
        assert_eq!(r.addr & 3, 0, "ifetch at {:#x}", r.addr);
        assert_eq!(r.size(), 4);
    }
}

#[test]
fn trace_matches_hardware_counters() {
    let mut m = load(
        "start: movl #50, r0\n clrl r1\n moval buf, r2\n\
         loop: movl r0, (r2)+\n addl2 r0, r1\n sobgtr r0, loop\n halt\n\
         buf: .space 256",
    );
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    assert_eq!(m.run(5_000_000), RunExit::Halted);
    let t = tracer.extract(&m).unwrap();
    let s = t.stats();
    let c = m.counts();
    assert_eq!(s.ifetch, c.ifetch, "every hardware ifetch traced");
    assert_eq!(s.reads, c.data_reads);
    assert_eq!(s.writes, c.data_writes);
    assert_eq!(m.gpr(1), (1..=50).sum::<u32>(), "program result intact");
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut m = load("start: movl #5, r0\nloop: sobgtr r0, loop\n halt");
    let tracer = Tracer::attach(&mut m).unwrap();
    // Never enabled.
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(tracer.extract(&m).unwrap().len(), 0);
    assert_eq!(tracer.pending_records(&m), 0);
}

#[test]
fn patch_is_architecturally_invisible() {
    let src = "start: movl #20, r0\n clrl r1\n clrl r2\n\
               loop: addl2 r0, r1\n xorl2 r0, r2\n sobgtr r0, loop\n\
               pushl r1\n popl r3\n halt";
    // Unpatched run.
    let mut plain = load(src);
    assert_eq!(plain.run(5_000_000), RunExit::Halted);
    // Patched + enabled run.
    let mut traced = load(src);
    let tracer = Tracer::attach(&mut traced).unwrap();
    tracer.set_enabled(&mut traced, true);
    assert_eq!(traced.run(50_000_000), RunExit::Halted);

    for r in 0..15 {
        assert_eq!(plain.gpr(r), traced.gpr(r), "r{r} differs under tracing");
    }
    assert_eq!(plain.psl(), traced.psl());
    assert_eq!(plain.insns(), traced.insns());
    assert_eq!(plain.counts().total_refs(), traced.counts().total_refs());
}

#[test]
fn slowdown_is_in_the_paper_band() {
    let src = "start: movl #2000, r0\n clrl r1\n moval buf, r2\n\
               loop: movl r0, (r2)\n addl2 (r2), r1\n sobgtr r0, loop\n halt\n\
               buf: .long 0";
    let mut plain = load(src);
    assert_eq!(plain.run(100_000_000), RunExit::Halted);
    let base_cycles = plain.cycles();

    let mut traced = load(src);
    let tracer = Tracer::attach(&mut traced).unwrap();
    tracer.set_enabled(&mut traced, true);
    assert_eq!(traced.run(1_000_000_000), RunExit::Halted);
    let traced_cycles = traced.cycles();

    let slowdown = traced_cycles as f64 / base_cycles as f64;
    // ATUM reported ~20x on the 8200, whose patch paid microtrap entry
    // and state spills; SVX reserves scratch registers for patches, so
    // the streamlined patch lands near 2x (the state-spilling variant in
    // atum-baselines reproduces the slower band). Guard the shape:
    // clearly above 1.5x, and far below software-tracing slowdowns.
    assert!(
        (1.5..40.0).contains(&slowdown),
        "slowdown {slowdown:.1} out of band ({base_cycles} → {traced_cycles})"
    );
}

#[test]
fn buffer_full_halts_and_drains_stitch() {
    let mut m = load(
        "start: movl #400, r0\nloop: movl r0, scratch\n sobgtr r0, loop\n halt\n\
         scratch: .long 0",
    );
    // A deliberately tiny 2 KiB buffer → 256 records per segment.
    let base = m.memory().layout().reserved_base();
    let tracer = Tracer::attach_region(&mut m, base, 2048).unwrap();
    let capture = CaptureSession::new(&tracer, 1_000_000_000)
        .run(&mut m)
        .unwrap();
    assert_eq!(capture.exit, RunExit::Halted);
    assert!(
        capture.drains > 2,
        "multiple drains, got {}",
        capture.drains
    );
    let s = capture.trace.stats();
    assert_eq!(s.writes, 400, "no write lost across drains");
    assert_eq!(
        capture
            .trace
            .iter()
            .filter(|r| r.kind() == RecordKind::SegmentMark)
            .count() as u32,
        capture.drains,
        "one segment mark per drain boundary"
    );
}

#[test]
fn stitched_capture_equals_single_capture() {
    let src = "start: movl #100, r0\nloop: incl counter\n sobgtr r0, loop\n halt\n\
               counter: .long 0";
    // Big-buffer reference capture.
    let mut big = load(src);
    let tracer_big = Tracer::attach(&mut big).unwrap();
    let cap_big = CaptureSession::new(&tracer_big, 1_000_000_000)
        .run(&mut big)
        .unwrap();
    // Tiny-buffer stitched capture.
    let mut small = load(src);
    let base = small.memory().layout().reserved_base();
    let tracer_small = Tracer::attach_region(&mut small, base, 1024).unwrap();
    let cap_small = CaptureSession::new(&tracer_small, 1_000_000_000)
        .run(&mut small)
        .unwrap();

    let refs_big: Vec<_> = cap_big.trace.refs().collect();
    let refs_small: Vec<_> = cap_small.trace.refs().collect();
    assert_eq!(refs_big, refs_small, "stitching loses or alters nothing");
    assert!(cap_small.drains > 0);
}

#[test]
fn exception_markers_captured() {
    let mut m = load(
        "start: chmk #7\n halt\n\
         handler: popl r1\n rei",
    );
    // SCB at 0x6000 with the CHMK vector pointing at `handler`.
    let img = atum_asm::assemble(&format!(
        ".org {ORG:#x}\nstart: chmk #7\n halt\nhandler: popl r1\n rei\n"
    ))
    .unwrap();
    m.write_phys(0x6000 + 0x40, &img.symbol("handler").unwrap().to_le_bytes())
        .unwrap();
    m.write_prv(atum_arch::PrivReg::Scbb, 0x6000);
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    let t = tracer.extract(&m).unwrap();
    let ints: Vec<_> = t
        .iter()
        .filter(|r| r.kind() == RecordKind::Interrupt)
        .collect();
    assert_eq!(ints.len(), 1);
    assert_eq!(ints[0].addr, 0x40, "marker carries the SCB vector");
    assert_eq!(m.gpr(1), 7);
    // The handler's stack pops are kernel data reads in the trace.
    assert!(t
        .iter()
        .any(|r| r.kind() == RecordKind::Read && r.is_kernel()));
}

#[test]
fn context_switch_marker_and_pid_stamping() {
    // Build a PCB at 0x9000 with PID 5, then ldpctx + rei into `ctx`.
    let src = "start: mtpr #0x9000, #16\n ldpctx\n rei\n\
               ctx: movl data, r1\n halt\n\
               data: .long 0xAB";
    let full = format!(".org {ORG:#x}\n{src}\n");
    let img = atum_asm::assemble(&full).unwrap();
    let mut m = Machine::new(MemLayout::small());
    for (addr, bytes) in img.segments() {
        m.write_phys(*addr, bytes).unwrap();
    }
    let mut pcb = vec![0u8; 92];
    pcb[0..4].copy_from_slice(&0x8000u32.to_le_bytes()); // KSP
    pcb[64..68].copy_from_slice(&img.symbol("ctx").unwrap().to_le_bytes());
    pcb[68..72].copy_from_slice(&atum_arch::Psl::new().bits().to_le_bytes());
    pcb[88..92].copy_from_slice(&5u32.to_le_bytes()); // PID
    m.write_phys(0x9000, &pcb).unwrap();
    m.set_gpr(14, 0x8000);
    m.set_pc(ORG);

    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_pid(&mut m, 1);
    tracer.set_enabled(&mut m, true);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 0xAB);

    let t = tracer.extract(&m).unwrap();
    let ctx: Vec<_> = t
        .iter()
        .filter(|r| r.kind() == RecordKind::CtxSwitch)
        .collect();
    assert_eq!(ctx.len(), 1);
    assert_eq!(ctx[0].pid(), 5, "marker stamped with the incoming pid");
    assert_eq!(ctx[0].addr, 0x9000, "marker carries the PCB base");
    // References before the switch carry pid 1, after it pid 5.
    let first_ref = t.refs().next().unwrap();
    assert_eq!(first_ref.pid(), 1);
    let data_read = t
        .refs()
        .find(|r| r.kind() == RecordKind::Read && r.addr >= ORG)
        .unwrap();
    assert_eq!(data_read.pid(), 5);
}

#[test]
fn detach_restores_stock_behaviour() {
    let mut m = load("start: movl #5, r0\n halt");
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    tracer.detach(&mut m);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(
        m.read_prv(atum_arch::PrivReg::Trptr),
        m.memory().layout().reserved_base()
    );
}

#[test]
fn encode_round_trips_a_real_capture() {
    let mut m =
        load("start: movl #30, r0\nloop: incl counter\n sobgtr r0, loop\n halt\ncounter: .long 0");
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    m.run(1_000_000);
    let t = tracer.extract(&m).unwrap();
    let bytes = atum_core::encode_trace(&t);
    let back = atum_core::decode_trace(&bytes).unwrap();
    assert_eq!(back.records(), t.records());
    assert!(
        bytes.len() * 2 < t.len() * 8,
        "compaction at least 2x on a real trace: {} vs {}",
        bytes.len(),
        t.len() * 8
    );
}

#[test]
fn spill_and_scratch_styles_capture_identical_traces() {
    // The spill style costs more cycles but must record exactly the same
    // reference stream.
    let src = "start: movl #60, r0\nloop: incl counter\n sobgtr r0, loop\n halt\n\
               counter: .long 0";
    let run_style = |style: atum_core::PatchStyle| {
        let mut m = load(src);
        let tracer = Tracer::attach_with_style(&mut m, style).unwrap();
        tracer.set_enabled(&mut m, true);
        assert_eq!(m.run(100_000_000), RunExit::Halted);
        (tracer.extract(&m).unwrap(), m.cycles())
    };
    let (scratch, scratch_cycles) = run_style(atum_core::PatchStyle::Scratch);
    let (spill, spill_cycles) = run_style(atum_core::PatchStyle::Spill);
    assert_eq!(
        scratch.records(),
        spill.records(),
        "same records either way"
    );
    assert!(
        spill_cycles > scratch_cycles * 3 / 2,
        "spill is measurably more expensive: {scratch_cycles} vs {spill_cycles}"
    );
}

#[test]
fn capture_session_respects_max_drains() {
    let mut m = load(
        "start: movl #100000, r0\nloop: incl counter\n sobgtr r0, loop\n halt\n\
         counter: .long 0",
    );
    let base = m.memory().layout().reserved_base();
    let tracer = Tracer::attach_region(&mut m, base, 1024).unwrap();
    let capture = CaptureSession::new(&tracer, 10_000_000_000)
        .max_drains(3)
        .run(&mut m)
        .unwrap();
    // After 3 drains the session stops servicing the full condition and
    // returns with whatever it has; the final drain empties the buffer
    // but the machine stays halted mid-program.
    assert_eq!(capture.drains, 3);
    assert_eq!(capture.exit, RunExit::Halted);
    assert_eq!(m.run(1_000), RunExit::Halted, "machine not resumed");
    let counter_refs = capture.trace.stats().writes;
    assert!(counter_refs < 100_000, "program was cut short");
}

#[test]
fn scribbled_meta_is_a_corrupt_record() {
    let mut m = load("start: movl data, r1\n halt\ndata: .long 7");
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    let good = tracer.extract(&m).unwrap();
    assert!(good.len() > 2);
    // Scribble the second record's meta longword: once with a stray bit
    // outside every field, once with a size the microcode never writes.
    let offset = 8;
    let meta = good.records()[1].meta;
    let base = m.memory().layout().reserved_base();
    for bad in [meta | 1, meta & !(7 << 16) | 3 << 16] {
        m.write_phys(base + offset + 4, &bad.to_le_bytes()).unwrap();
        assert_eq!(
            tracer.extract(&m).unwrap_err(),
            atum_core::TracerError::CorruptRecord { offset, meta: bad }
        );
    }
}

#[test]
fn tracer_rejects_too_small_region() {
    let mut m = load("start: halt");
    let base = m.memory().layout().reserved_base();
    assert!(matches!(
        Tracer::attach_region(&mut m, base, 4),
        Err(atum_core::TracerError::ReservedTooSmall)
    ));
}
