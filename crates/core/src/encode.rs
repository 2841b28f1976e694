//! Compact on-disk trace encoding: the versioned **segment format**.
//!
//! The in-buffer format is 8 bytes per record because that is what a
//! microcode patch can write cheaply; the archival format the host writes
//! after extraction is delta-compressed, like the compaction step ATUM's
//! hosts applied before shipping traces to the memory-system simulators.
//!
//! A trace file is a 5-byte header (`ATUM` magic + version byte) followed
//! by a sequence of **segments** — one per drained sample, so the
//! boundaries the paper's stitching methodology cares about survive the
//! archive (v1 collapsed them). Each segment carries:
//!
//! * an `S` marker byte;
//! * varint record count and payload length (the length is what lets a
//!   reader *skip* a segment without decoding it);
//! * a varint capture-cycle stamp (the machine's microcycle counter at
//!   drain time; 0 when unknown, e.g. re-encoded in-memory traces);
//! * the PID and kernel flag of the segment's first record (its context).
//!
//! Within a payload, each record is:
//!
//! * one tag byte — kind, kernel flag, size code, a "pid changed" flag,
//!   and a **run** flag;
//! * an optional pid byte;
//! * a zigzag-varint address delta against the previous record *of the
//!   same kind* (I-stream and data streams advance independently, so both
//!   deltas stay small);
//! * for runs, a varint count of *additional* records repeating the same
//!   metadata and the same delta — sequential I-stream fetches collapse
//!   to ~3 bytes however long the straight-line run is.
//!
//! Delta state (per-kind last addresses and the last pid) **resets at
//! every segment boundary**, so any segment can be decoded knowing only
//! its own header — the property the out-of-core analysis path relies on.
//!
//! Typical compaction is 4–6× over the raw form (measured in experiment
//! E2 and `BENCH_trace.json`).

use crate::record::{meta, RecordKind, TraceRecord};
use crate::stream::{SegmentReader, TraceStreamError};
use crate::trace::Trace;
use std::fmt;

pub(crate) const MAGIC: &[u8; 4] = b"ATUM";
pub(crate) const VERSION: u8 = 2;
/// Marker byte opening every segment header.
pub(crate) const SEG_MARK: u8 = b'S';

const TAG_KERNEL: u8 = 1 << 3;
const TAG_PID_CHANGED: u8 = 1 << 6;
const TAG_RUN: u8 = 1 << 7;

/// The record metadata word each tag byte decodes to, pid field zero;
/// 0 marks a tag whose kind is invalid (every valid kind is nonzero).
const TAG_META: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut tag = 0;
    while tag < 256 {
        let kind = tag as u32 & 0x07;
        // The kinds `RecordKind::from_bits` accepts.
        if kind >= RecordKind::IFetch as u32 && kind <= RecordKind::SegmentMark as u32 {
            let size = code_size(((tag >> 4) & 0x03) as u8);
            table[tag] = kind << meta::KIND_SHIFT | size << meta::SIZE_SHIFT;
            if tag as u8 & TAG_KERNEL != 0 {
                table[tag] |= meta::KERNEL_BIT;
            }
        }
        tag += 1;
    }
    table
};

/// Errors from decoding an encoded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// Missing or wrong magic/version header.
    BadHeader,
    /// A segment header is malformed (bad marker byte, or the payload
    /// does not contain exactly the advertised records).
    BadSegment,
    /// The byte stream ended mid-record or mid-header.
    Truncated,
    /// A tag byte carried an invalid kind.
    BadTag(u8),
}

impl fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTraceError::BadHeader => f.write_str("bad trace file header"),
            DecodeTraceError::BadSegment => f.write_str("malformed trace segment"),
            DecodeTraceError::Truncated => f.write_str("trace file truncated"),
            DecodeTraceError::BadTag(t) => write!(f, "invalid record tag {t:#04x}"),
        }
    }
}

impl std::error::Error for DecodeTraceError {}

/// One segment's header: the metadata a reader needs to decode (or skip)
/// the payload that follows, and the context ATUM's hosts kept alongside
/// the raw addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentHeader {
    /// Records in the segment (markers included).
    pub records: u64,
    /// Encoded payload length in bytes.
    pub payload_len: u64,
    /// Machine microcycle counter at capture/drain time (0 if unknown).
    pub cycle: u64,
    /// PID of the segment's first record (0 for an empty segment). Also
    /// the initial pid-delta state of the payload.
    pub pid: u8,
    /// Whether the segment's first record was made in kernel mode.
    pub kernel: bool,
}

impl SegmentHeader {
    /// Bytes the header occupies in a segment stream.
    pub fn encoded_len(&self) -> u64 {
        let mut out = Vec::with_capacity(32);
        push_segment_header(&mut out, self);
        out.len() as u64
    }
}

fn size_code(size: u32) -> u8 {
    match size {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3,
    }
}

const fn code_size(code: u8) -> u32 {
    match code {
        0 => 1,
        1 => 2,
        2 => 4,
        _ => 0,
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one varint at `*pos`, advancing it. Inlined into the decode
/// loop, where most address deltas are one byte.
#[inline(always)]
pub(crate) fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeTraceError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = *bytes.get(*pos).ok_or(DecodeTraceError::Truncated)?;
        *pos += 1;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeTraceError::Truncated);
        }
    }
}

/// Encodes one segment's records into `payload` (cleared first), with
/// delta state starting fresh: per-kind last addresses at 0, last pid at
/// the value [`segment_header_of`] reports for these records.
pub(crate) fn encode_segment_payload(records: &[TraceRecord], payload: &mut Vec<u8>) {
    payload.clear();
    let mut last_addr = [0u32; 7]; // indexed by kind
    let mut last_pid = records.first().map_or(0, |r| r.pid());
    let mut i = 0usize;
    while i < records.len() {
        let r = records[i];
        let kind = r.kind() as u8;
        let delta = r.addr as i64 - last_addr[kind as usize] as i64;
        // A run: following records with identical metadata whose
        // addresses continue advancing by the same delta. Sequential
        // I-stream fetches are the motivating case.
        let mut extra = 0usize;
        let mut prev = r.addr;
        while let Some(&nxt) = records.get(i + 1 + extra) {
            if nxt.meta == r.meta && nxt.addr == (prev as i64 + delta) as u32 {
                prev = nxt.addr;
                extra += 1;
            } else {
                break;
            }
        }
        let pid_changed = r.pid() != last_pid;
        let mut tag = kind & 0x07;
        if r.is_kernel() {
            tag |= TAG_KERNEL;
        }
        tag |= size_code(r.size()) << 4;
        if pid_changed {
            tag |= TAG_PID_CHANGED;
        }
        if extra > 0 {
            tag |= TAG_RUN;
        }
        payload.push(tag);
        if pid_changed {
            payload.push(r.pid());
            last_pid = r.pid();
        }
        push_varint(payload, zigzag(delta));
        if extra > 0 {
            push_varint(payload, extra as u64);
        }
        last_addr[kind as usize] = prev;
        i += 1 + extra;
    }
}

/// The header describing `records` as one segment.
pub(crate) fn segment_header_of(
    records: &[TraceRecord],
    cycle: u64,
    payload_len: u64,
) -> SegmentHeader {
    let first = records.first();
    SegmentHeader {
        records: records.len() as u64,
        payload_len,
        cycle,
        pid: first.map_or(0, |r| r.pid()),
        kernel: first.is_some_and(|r| r.is_kernel()),
    }
}

/// Serialises a segment header.
pub(crate) fn push_segment_header(out: &mut Vec<u8>, h: &SegmentHeader) {
    out.push(SEG_MARK);
    push_varint(out, h.records);
    push_varint(out, h.payload_len);
    push_varint(out, h.cycle);
    out.push(h.pid);
    out.push(h.kernel as u8);
}

/// Decodes one segment's payload, appending exactly `h.records` records
/// to `out`. The whole payload must be consumed — trailing bytes, or a
/// payload that runs out early, are [`DecodeTraceError::BadSegment`] /
/// [`DecodeTraceError::Truncated`].
pub(crate) fn decode_segment_payload(
    payload: &[u8],
    h: &SegmentHeader,
    out: &mut Vec<TraceRecord>,
) -> Result<(), DecodeTraceError> {
    // Each encoded unit is ≥ 2 bytes but can expand to many records (a
    // run), so reserve conservatively from the payload size, not the
    // advertised count — a corrupt count must not allocate unbounded.
    out.reserve(payload.len().min(h.records as usize));
    let mut pos = 0usize;
    let mut produced = 0u64;
    let mut last_addr = [0u32; 8];
    let mut pid_meta = (h.pid as u32) << meta::PID_SHIFT;
    while produced < h.records {
        let tag = *payload.get(pos).ok_or(DecodeTraceError::Truncated)?;
        pos += 1;
        let tag_meta = TAG_META[tag as usize];
        if tag_meta == 0 {
            return Err(DecodeTraceError::BadTag(tag));
        }
        if tag & TAG_PID_CHANGED != 0 {
            let pid = *payload.get(pos).ok_or(DecodeTraceError::Truncated)?;
            pid_meta = (pid as u32) << meta::PID_SHIFT;
            pos += 1;
        }
        let meta = tag_meta | pid_meta;
        let kind = (tag & 0x07) as usize;
        // Address arithmetic is modulo 2^32, so the i64 delta acts as
        // its low 32 bits.
        let delta = unzigzag(read_varint(payload, &mut pos)?) as u32;
        let base = last_addr[kind];
        if tag & TAG_RUN == 0 {
            let addr = base.wrapping_add(delta);
            out.push(TraceRecord { addr, meta });
            last_addr[kind] = addr;
            produced += 1;
            continue;
        }
        let count = 1 + read_varint(payload, &mut pos)?;
        // A run longer than the records the header admits is corruption;
        // reject before materialising anything.
        if count > h.records - produced {
            return Err(DecodeTraceError::BadSegment);
        }
        let step = |j: u64| base.wrapping_add(delta.wrapping_mul(j as u32));
        out.extend((1..=count).map(|j| TraceRecord {
            addr: step(j),
            meta,
        }));
        last_addr[kind] = step(count);
        produced += count;
    }
    if pos != payload.len() {
        return Err(DecodeTraceError::BadSegment);
    }
    Ok(())
}

/// Encodes a trace into the compact archival segment format, one file
/// segment per trace segment — boundaries round-trip exactly.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(trace.len() * 2 + 16);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    let mut payload = Vec::new();
    for seg in trace.segment_slices() {
        encode_segment_payload(seg, &mut payload);
        let h = segment_header_of(seg, 0, payload.len() as u64);
        push_segment_header(&mut out, &h);
        out.extend_from_slice(&payload);
    }
    out
}

/// Decodes a trace from the compact archival segment format, restoring
/// records *and* segment boundaries.
///
/// # Errors
///
/// Any [`DecodeTraceError`].
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, DecodeTraceError> {
    SegmentReader::new(bytes)
        .and_then(SegmentReader::into_trace)
        .map_err(|e| match e {
            TraceStreamError::Decode(e) => e,
            // Reading a byte slice never fails; running out of it is
            // already `Truncated`.
            TraceStreamError::Io(_) => DecodeTraceError::Truncated,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        let mut pc = 0x1000u32;
        for i in 0..200u32 {
            t.push(TraceRecord::new(RecordKind::IFetch, pc, 4, 1, false));
            pc += 4;
            if i % 3 == 0 {
                t.push(TraceRecord::new(
                    RecordKind::Read,
                    0x2000 + i * 4,
                    4,
                    1,
                    false,
                ));
            }
            if i % 7 == 0 {
                t.push(TraceRecord::new(
                    RecordKind::Write,
                    0x8000_0000 + i,
                    1,
                    1,
                    true,
                ));
            }
            if i == 100 {
                t.push(TraceRecord::new(RecordKind::CtxSwitch, 0x9000, 0, 2, true));
            }
        }
        t
    }

    fn stitched_trace() -> Trace {
        let mut t = sample_trace();
        t.stitch(sample_trace());
        t.stitch(Trace::new()); // an empty drained sample
        t.stitch(sample_trace());
        t
    }

    #[test]
    fn round_trip() {
        let t = sample_trace();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn round_trip_preserves_segments() {
        let t = stitched_trace();
        assert_eq!(t.segments(), 4);
        let back = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(back, t, "records and segment boundaries both survive");
        assert_eq!(back.segments(), 4);
    }

    #[test]
    fn leading_empty_segment_round_trips() {
        // Only a hand-built file starts with an empty segment, and decode
        // keeps it as the trace's first segment.
        let mut bytes = encode_trace(&Trace::new());
        bytes.extend_from_slice(&encode_trace(&sample_trace())[5..]);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back.segments(), 2);
        assert_eq!(back.records(), sample_trace().records());
        assert_eq!(encode_trace(&back), bytes);
    }

    #[test]
    fn compacts_sequential_traces() {
        let t = sample_trace();
        let raw = t.len() * 8;
        let encoded = encode_trace(&t).len();
        assert!(
            (encoded as f64) < raw as f64 / 3.0,
            "expected ≥3x compaction, got {raw}/{encoded}"
        );
    }

    #[test]
    fn istream_runs_collapse() {
        // 1000 sequential fetches: one record establishes the position,
        // the rest collapse into a single run.
        let mut t = Trace::new();
        for i in 0..1000u32 {
            t.push(TraceRecord::new(
                RecordKind::IFetch,
                0x4000 + i * 4,
                4,
                3,
                false,
            ));
        }
        let bytes = encode_trace(&t);
        assert!(
            bytes.len() < 32,
            "a straight-line I-stream should be a handful of bytes, got {}",
            bytes.len()
        );
        assert_eq!(decode_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.segments(), 1);
    }

    #[test]
    fn header_validation() {
        assert_eq!(decode_trace(b"").unwrap_err(), DecodeTraceError::BadHeader);
        assert_eq!(
            decode_trace(b"NOPE\x02\x00").unwrap_err(),
            DecodeTraceError::BadHeader
        );
        // v1 files are rejected, not misread.
        assert_eq!(
            decode_trace(b"ATUM\x01\x00").unwrap_err(),
            DecodeTraceError::BadHeader
        );
    }

    #[test]
    fn truncation_detected() {
        let t = stitched_trace();
        let bytes = encode_trace(&t);
        for cut in [bytes.len() - 1, bytes.len() / 2, 6] {
            assert!(
                matches!(
                    decode_trace(&bytes[..cut]),
                    Err(DecodeTraceError::Truncated) | Err(DecodeTraceError::BadSegment)
                ),
                "cut at {cut} must be detected"
            );
        }
    }

    #[test]
    fn bad_segment_marker_detected() {
        let t = sample_trace();
        let mut bytes = encode_trace(&t);
        bytes[5] = b'X'; // the first segment's marker byte
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            DecodeTraceError::BadSegment
        );
    }

    #[test]
    fn oversized_run_rejected_without_allocation() {
        // Hand-build a segment claiming 2 records whose payload encodes a
        // run of 100: must fail cleanly, not materialise the run.
        let mut bytes = vec![b'A', b'T', b'U', b'M', VERSION];
        let mut payload = Vec::new();
        payload.push(1u8 | TAG_RUN | (2 << 4)); // IFetch, longword, run
        push_varint(&mut payload, zigzag(4));
        push_varint(&mut payload, 99); // 100 records total
        push_segment_header(
            &mut bytes,
            &SegmentHeader {
                records: 2,
                payload_len: payload.len() as u64,
                cycle: 0,
                pid: 0,
                kernel: false,
            },
        );
        bytes.extend_from_slice(&payload);
        assert_eq!(
            decode_trace(&bytes).unwrap_err(),
            DecodeTraceError::BadSegment
        );
    }

    #[test]
    fn headers_and_payloads_tile_the_stream() {
        let bytes = encode_trace(&stitched_trace());
        let mut rd = SegmentReader::new(&bytes[..]).unwrap();
        let mut len = (MAGIC.len() + 1) as u64;
        while let Some(h) = rd.next_header().unwrap() {
            len += h.encoded_len() + h.payload_len;
        }
        assert_eq!(len, bytes.len() as u64);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [-1i64, 0, 1, -1000, 1000, i32::MIN as i64, i32::MAX as i64] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
