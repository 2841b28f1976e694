//! Decode errors on the segment-file reader: a corrupt segment must
//! surface as `TraceStreamError::Decode` from both the push-style
//! `stream` and the pull-style `rewind`/`next_batch` loop, after
//! delivering exactly the records of the segments ahead of it — and a
//! second pass over the same source must fail the same way.

use atum_core::{
    RecordKind, SegmentFileSource, SegmentWriter, TraceRecord, TraceSource, TraceStreamError,
};
use std::path::{Path, PathBuf};

fn record(s: u32, i: u32) -> TraceRecord {
    TraceRecord::new(
        RecordKind::Read,
        0x4000 + s * 0x1000 + i * 4,
        4,
        (s % 3) as u8,
        false,
    )
}

fn segment_file(tag: &str, segs: u32, per: u32) -> PathBuf {
    let path = std::env::temp_dir().join(format!("atum-abort-{tag}-{}.atrace", std::process::id()));
    let mut w = SegmentWriter::create(&path).unwrap();
    let mut buf = Vec::new();
    for s in 0..segs {
        buf.clear();
        buf.extend((0..per).map(|i| record(s, i)));
        w.write_segment(&buf, u64::from(s)).unwrap();
    }
    w.finish().unwrap();
    path
}

/// Walks the segment headers (mark byte + three varints + two fixed
/// bytes — the format is locked by the golden-file tests) and returns
/// each payload's byte range.
fn payload_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    fn varint(b: &[u8], p: &mut usize) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let x = b[*p];
            *p += 1;
            v |= u64::from(x & 0x7F) << shift;
            if x & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }
    let mut p = 5;
    let mut spans = Vec::new();
    while p < bytes.len() {
        assert_eq!(bytes[p], b'S');
        p += 1;
        let _records = varint(bytes, &mut p);
        let payload_len = varint(bytes, &mut p) as usize;
        let _cycle = varint(bytes, &mut p);
        p += 2;
        spans.push((p, payload_len));
        p += payload_len;
    }
    spans
}

/// Writes `segs` segments of `per` records with segment `bad`'s payload
/// overwritten by garbage (the headers stay valid).
fn corrupt_file(tag: &str, segs: u32, per: u32, bad: usize) -> PathBuf {
    let path = segment_file(tag, segs, per);
    let mut bytes = std::fs::read(&path).unwrap();
    let spans = payload_spans(&bytes);
    assert_eq!(spans.len(), segs as usize);
    let (off, len) = spans[bad];
    bytes[off..off + len].fill(0xFF);
    std::fs::write(&path, bytes).unwrap();
    path
}

/// The records a pass delivered before it returned, and its result.
type Outcome = (Vec<TraceRecord>, Result<(), TraceStreamError>);

/// A whole pass through `stream`.
fn push_pass(src: &mut SegmentFileSource) -> Outcome {
    let mut seen = Vec::new();
    let res = src.stream(&mut |records| seen.extend_from_slice(records));
    (seen, res)
}

/// A whole pass through a `rewind`/`next_batch` loop.
fn pull_pass(src: &mut SegmentFileSource) -> Outcome {
    let mut seen = Vec::new();
    let res = (|| {
        src.rewind()?;
        while let Some(b) = src.next_batch()? {
            seen.extend(b.iter());
        }
        Ok(())
    })();
    (seen, res)
}

fn assert_fails_after(
    path: &Path,
    prefix: &[TraceRecord],
    pass: fn(&mut SegmentFileSource) -> Outcome,
    what: &str,
) {
    let mut src = SegmentFileSource::new(path);
    // The second pass over the same source must behave like the first.
    for round in 0..2 {
        let (seen, res) = pass(&mut src);
        assert!(
            matches!(res, Err(TraceStreamError::Decode(_))),
            "{what} pass {round}: expected a decode error, got {res:?}"
        );
        assert_eq!(
            seen, prefix,
            "{what} pass {round}: must deliver exactly the segments ahead of the bad one"
        );
    }
}

#[test]
fn corrupt_middle_segment_is_a_decode_error_after_the_good_prefix() {
    const SEGS: u32 = 24;
    const PER: u32 = 50;
    const BAD: u32 = 7;
    let path = corrupt_file("mid", SEGS, PER, BAD as usize);
    let prefix: Vec<TraceRecord> = (0..BAD)
        .flat_map(|s| (0..PER).map(move |i| record(s, i)))
        .collect();

    assert_fails_after(&path, &prefix, push_pass, "stream");
    assert_fails_after(&path, &prefix, pull_pass, "next_batch");
    std::fs::remove_file(&path).ok();
}

#[test]
fn error_in_first_segment_yields_empty_prefix() {
    let path = corrupt_file("first", 6, 40, 0);
    assert_fails_after(&path, &[], push_pass, "stream");
    assert_fails_after(&path, &[], pull_pass, "next_batch");
    std::fs::remove_file(&path).ok();
}
