//! End-to-end tests of the streaming capture path and the on-disk
//! segment format: every capture mode must give exactly the trace the
//! stitch rule, restated by hand, builds; a disk that fills mid-capture
//! must surface as an I/O error and leave a file that decodes up to its
//! last whole segment; and the encoded byte layout is pinned by a golden
//! file so format drift cannot land silently.

use atum_core::{
    decode_trace, encode_trace, CaptureSession, CaptureStreamError, DecodeTraceError, RecordKind,
    SegmentFileSource, SegmentReader, SegmentWriter, Trace, TraceRecord, TraceStreamError, Tracer,
};
use atum_machine::{Machine, MemLayout, RunExit};
use std::io::{self, Write};
use std::path::PathBuf;

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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atum-{tag}-{}.atrace", std::process::id()))
}

/// A loop of 400 stores: a 2 KiB buffer fills six times.
const STORES: &str = "start: movl #400, r0\nloop: movl r0, scratch\n sobgtr r0, loop\n halt\n\
                      scratch: .long 0";
/// A loop far longer than any drain cap used here.
const LONG: &str = "start: movl #100000, r0\nloop: incl counter\n sobgtr r0, loop\n halt\n\
                    counter: .long 0";

#[test]
fn streamed_capture_file_decodes_to_the_stitched_trace() {
    // In-memory reference capture with a tiny buffer → many drains.
    let mut a = load(STORES);
    let base = a.memory().layout().reserved_base();
    let tracer_a = Tracer::attach_region(&mut a, base, 2048).unwrap();
    let cap = CaptureSession::new(&tracer_a, 1_000_000_000)
        .run(&mut a)
        .unwrap();
    assert!(cap.drains > 2, "want a multi-drain run, got {}", cap.drains);

    // Streamed capture of the identical machine straight to disk.
    let mut b = load(STORES);
    let tracer_b = Tracer::attach_region(&mut b, base, 2048).unwrap();
    let path = temp_path("stream-capture");
    let mut w = SegmentWriter::create(&path).unwrap();
    let streamed = CaptureSession::new(&tracer_b, 1_000_000_000)
        .run_streaming(&mut b, &mut w)
        .unwrap();
    w.finish().unwrap();

    assert_eq!(streamed.exit, RunExit::Halted);
    assert_eq!(streamed.drains, cap.drains);
    assert_eq!(streamed.stats.records, cap.trace.len() as u64);
    assert_eq!(streamed.stats.segments, cap.trace.segments() as u64);

    // The file decodes to exactly what stitching produced: same records
    // (marks included), same segment boundaries.
    let back = SegmentFileSource::new(&path).read_to_trace().unwrap();
    assert_eq!(back, cap.trace);

    // Segment headers carry the capture clock: strictly increasing
    // cycle stamps, and each segment's context matches its first record.
    let mut rd = SegmentReader::open(&path).unwrap();
    let mut last_cycle = 0u64;
    while let Some((h, recs)) = rd.next_segment().unwrap() {
        assert!(h.cycle > last_cycle, "cycle stamps must advance");
        last_cycle = h.cycle;
        assert_eq!(h.records, recs.len() as u64);
        if let Some(first) = recs.first() {
            assert_eq!(h.pid, first.pid());
            assert_eq!(h.kernel, first.is_kernel());
        }
    }
    std::fs::remove_file(&path).ok();
}

/// One capture setup: a program, its buffer length (`None` for the
/// whole reserved region), a cycle budget and a drain cap.
#[derive(Clone, Copy)]
struct Case {
    src: &'static str,
    buf: Option<u32>,
    budget: u64,
    max_drains: u32,
}

/// `STORES` with a 2 KiB buffer and room to finish.
const SMALL: Case = Case {
    src: STORES,
    buf: Some(2048),
    budget: 1_000_000_000,
    max_drains: 100_000,
};

impl Case {
    fn boot(&self) -> (Machine, Tracer) {
        let mut m = load(self.src);
        let tracer = match self.buf {
            Some(len) => {
                let base = m.memory().layout().reserved_base();
                Tracer::attach_region(&mut m, base, len).unwrap()
            }
            None => Tracer::attach(&mut m).unwrap(),
        };
        (m, tracer)
    }

    fn session<'t>(&self, tracer: &'t Tracer) -> CaptureSession<'t> {
        CaptureSession::new(tracer, self.budget).max_drains(self.max_drains)
    }

    /// `run_streaming` into memory: the file's bytes and the outcome.
    fn streamed(&self) -> (Vec<u8>, RunExit, u32) {
        let (mut m, tracer) = self.boot();
        let mut bytes = Vec::new();
        let mut w = SegmentWriter::new(&mut bytes).unwrap();
        let c = self.session(&tracer).run_streaming(&mut m, &mut w).unwrap();
        w.finish().unwrap();
        (bytes, c.exit, c.drains)
    }
}

/// The stitch rule restated by hand over the public calls, bypassing
/// `CaptureSession`: run, drain at every halt, stitch each sample as a
/// trace of its own, and resume while the buffer was full.
fn hand_stitched(case: &Case) -> (Trace, RunExit, u32) {
    let (mut m, tracer) = case.boot();
    tracer.set_enabled(&mut m, true);
    let deadline = m.cycles().saturating_add(case.budget);
    let (mut trace, mut sample, mut drains) = (Trace::new(), Vec::new(), 0);
    loop {
        let exit = m.run(deadline.saturating_sub(m.cycles()));
        let full = exit == RunExit::Halted && tracer.is_full(&m) && drains < case.max_drains;
        tracer.drain_into(&mut m, &mut sample).unwrap();
        trace.stitch(Trace::from(std::mem::take(&mut sample)));
        if !full {
            return (trace, exit, drains);
        }
        drains += 1;
        m.resume();
    }
}

/// Asserts that `run`, `run_stats` and `run_streaming` each give the
/// hand-stitched outcome of `case`, and returns it with the streamed
/// file's bytes.
fn check_modes(case: &Case) -> ((Trace, RunExit, u32), Vec<u8>) {
    let want = hand_stitched(case);
    let (trace, exit, drains) = &want;

    let (mut m, tracer) = case.boot();
    let run = case.session(&tracer).run(&mut m).unwrap();
    assert_eq!(&run.trace, trace, "run");
    assert_eq!((run.exit, run.drains), (*exit, *drains), "run");

    let (mut m, tracer) = case.boot();
    let stats = case.session(&tracer).run_stats(&mut m).unwrap();
    assert_eq!(stats.stats, trace.stats(), "run_stats");
    assert_eq!((stats.exit, stats.drains), (*exit, *drains), "run_stats");

    let (bytes, s_exit, s_drains) = case.streamed();
    assert_eq!(&decode_trace(&bytes).unwrap(), trace, "run_streaming");
    assert_eq!((s_exit, s_drains), (*exit, *drains), "run_streaming");
    (want, bytes)
}

#[test]
fn every_capture_mode_equals_the_hand_stitched_trace() {
    let ((trace, _, drains), bytes) = check_modes(&SMALL);
    assert_eq!(drains, 6);
    assert_eq!(trace.segments(), 7);

    // The whole reserved region: no drain, one segment.
    let ((_, _, drains), _) = check_modes(&Case { buf: None, ..SMALL });
    assert_eq!(drains, 0);

    // A drain cap cuts the program short, halted on a full buffer.
    let capped = Case {
        src: LONG,
        buf: Some(1024),
        max_drains: 3,
        ..SMALL
    };
    let ((_, exit, drains), _) = check_modes(&capped);
    assert_eq!((exit, drains), (RunExit::Halted, 3));

    // No budget: an empty trace and a file of no segments.
    let ((trace, _, _), empty) = check_modes(&Case { budget: 0, ..SMALL });
    assert_eq!(trace, Trace::new());
    assert!(SegmentReader::new(&empty[..])
        .unwrap()
        .next_segment()
        .unwrap()
        .is_none());

    // A budget that runs out exactly at the first drain: the resumed
    // run gets no cycles, so the final sample is empty, yet it still
    // ends the trace as a segment of its own.
    let first = SegmentReader::new(&bytes[..])
        .unwrap()
        .next_segment()
        .unwrap()
        .unwrap()
        .0;
    let budget = first.cycle - load(STORES).cycles();
    let ((trace, _, drains), _) = check_modes(&Case { budget, ..SMALL });
    assert_eq!((drains, trace.segments()), (1, 2));
    assert_eq!(trace.segment_slices().last(), Some(&[][..]));
}

/// A disk that takes `room` bytes, then reports itself full.
struct FullDisk {
    data: Vec<u8>,
    room: usize,
}

impl Write for FullDisk {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(self.room - self.data.len());
        if n == 0 && !buf.is_empty() {
            return Err(io::ErrorKind::StorageFull.into());
        }
        self.data.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn full_disk_mid_capture_keeps_every_whole_segment() {
    let unfailed = decode_trace(&SMALL.streamed().0).unwrap();
    let segments: Vec<&[TraceRecord]> = unfailed.segment_slices().collect();

    for (room, whole) in [(5, 0), (200, 0), (700, 1), (1500, 2)] {
        let mut disk = FullDisk {
            data: Vec::new(),
            room,
        };
        let mut w = SegmentWriter::new(&mut disk).unwrap();
        let (mut m, tracer) = SMALL.boot();
        let err = SMALL
            .session(&tracer)
            .run_streaming(&mut m, &mut w)
            .unwrap_err();
        assert!(
            matches!(&err, CaptureStreamError::Io(e) if e.kind() == io::ErrorKind::StorageFull),
            "room {room}: {err}"
        );
        assert!(!tracer.is_enabled(&m), "room {room}: capture left on");
        drop(w);
        assert_eq!(disk.data.len(), room);

        // The bytes the disk took decode to the unfailed capture's first
        // segments, then end cleanly or mid-segment.
        let mut rd = SegmentReader::new(&disk.data[..]).unwrap();
        for want in &segments[..whole] {
            let (_, records) = rd.next_segment().unwrap().unwrap();
            assert_eq!(records, *want, "room {room}");
        }
        match rd.next_segment() {
            Ok(None) | Err(TraceStreamError::Decode(DecodeTraceError::Truncated)) => {}
            other => panic!("room {room}: after {whole} segment(s), {other:?}"),
        }
    }

    // Less room than the file header: the writer cannot start.
    let disk = FullDisk {
        data: Vec::new(),
        room: 4,
    };
    assert!(SegmentWriter::new(disk).is_err());
}

#[test]
fn streamed_capture_compresses_the_real_istream() {
    let mut m = load(
        "start: movl #300, r0\nloop: incl counter\n sobgtr r0, loop\n halt\n\
         counter: .long 0",
    );
    let base = m.memory().layout().reserved_base();
    let tracer = Tracer::attach_region(&mut m, base, 4096).unwrap();
    let path = temp_path("stream-ratio");
    let mut w = SegmentWriter::create(&path).unwrap();
    let streamed = CaptureSession::new(&tracer, 1_000_000_000)
        .run_streaming(&mut m, &mut w)
        .unwrap();
    w.finish().unwrap();
    assert!(
        streamed.stats.compression_ratio() >= 3.0,
        "real captured I/D streams must compact ≥3x, got {:.2} ({} raw, {} encoded)",
        streamed.stats.compression_ratio(),
        streamed.stats.raw_bytes(),
        streamed.stats.encoded_bytes,
    );
    std::fs::remove_file(&path).ok();
}

/// A fixed trace exercising every record kind, size, PID changes,
/// kernel/user mixes, I-stream runs and multiple segments — the golden
/// input whose encoded bytes are pinned below.
fn golden_trace() -> Trace {
    let mut t = Trace::new();
    let mut seg1 = Trace::new();
    for i in 0..64u32 {
        seg1.push(TraceRecord::new(
            RecordKind::IFetch,
            0x1000 + i * 4,
            4,
            1,
            false,
        ));
        if i % 8 == 0 {
            seg1.push(TraceRecord::new(
                RecordKind::Read,
                0x4000 + i * 2,
                2,
                1,
                false,
            ));
        }
    }
    seg1.push(TraceRecord::new(RecordKind::CtxSwitch, 0x9000, 0, 2, true));
    for i in 0..16u32 {
        seg1.push(TraceRecord::new(
            RecordKind::Write,
            0x8000_0000 + i,
            1,
            2,
            true,
        ));
    }
    t.stitch(seg1);

    let mut seg2 = Trace::new();
    seg2.push(TraceRecord::new(RecordKind::Interrupt, 0x14, 0, 2, true));
    for i in 0..32u32 {
        seg2.push(TraceRecord::new(
            RecordKind::IFetch,
            0x2000 - i * 4,
            4,
            3,
            false,
        ));
    }
    t.stitch(seg2);
    t.stitch(Trace::new()); // an empty drained sample
    t
}

#[test]
fn golden_segment_file_is_byte_stable() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_v2.atrace");
    let bytes = encode_trace(&golden_trace());
    if std::env::var_os("ATUM_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(golden_path, &bytes).unwrap();
    }
    let golden = std::fs::read(golden_path)
        .expect("golden file missing — regenerate with ATUM_BLESS=1 cargo test");
    assert_eq!(
        bytes, golden,
        "encoded segment format drifted from the pinned v2 layout; if the \
         change is deliberate, bump the version byte and re-bless"
    );
    // And the pinned bytes still decode to the pinned trace.
    assert_eq!(decode_trace(&golden).unwrap(), golden_trace());
}
