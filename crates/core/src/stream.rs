//! Streaming trace I/O: incremental segment-file writers and readers,
//! and the [`TraceSource`] abstraction the out-of-core analysis passes
//! consume.
//!
//! The archival format ([`crate::encode`]) is a sequence of
//! independently-decodable segments; this module exploits that in three
//! ways:
//!
//! * [`SegmentWriter`] appends segments incrementally — the capture
//!   drain path writes each drained sample straight to disk (or to a
//!   byte vector) and reuses its record buffer, so a capture's resident
//!   cost is one buffer plus the compact bytes, not the whole trace;
//! * [`SegmentReader`] walks a stream one segment at a time with
//!   reusable payload/record buffers — O(segment) memory however large
//!   the file;
//! * [`SegmentFileSource`] and [`SegmentSliceSource`] are restartable
//!   [`TraceSource`]s over a file and over v2 bytes in memory, decoding
//!   one segment per batch through the same reader loop.
//!
//! [`TraceSource`] is the seam between capture and analysis: an
//! in-memory [`Trace`], v2 bytes in memory and an on-disk segment file
//! all stream the same way, [`UserRefs`] narrows any of them to its
//! user-mode references, and `simulate_many_stream` /
//! `working_set_stream` in the downstream crates take any of them.
//!
//! The trait is **pull-based**: `rewind` resets to the start and
//! `next_batch` yields decode-once [`RecordBatch`]es, which is what the
//! batched simulators consume. The per-record `stream` API is a
//! provided method that hands each batch's records to its sink in
//! place, so push-style consumers pay no copy.

use crate::batch::{RecordBatch, BATCH_TARGET};
use crate::encode::{
    decode_segment_payload, encode_segment_payload, push_segment_header, segment_header_of,
    DecodeTraceError, SegmentHeader, MAGIC, SEG_MARK, VERSION,
};
use crate::record::TraceRecord;
use crate::trace::Trace;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Errors from streaming trace I/O.
#[derive(Debug)]
pub enum TraceStreamError {
    /// An underlying read/write failed.
    Io(io::Error),
    /// The byte stream is not a valid segment trace file.
    Decode(DecodeTraceError),
}

impl fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStreamError::Io(e) => write!(f, "trace stream I/O error: {e}"),
            TraceStreamError::Decode(e) => write!(f, "trace stream decode error: {e}"),
        }
    }
}

impl std::error::Error for TraceStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceStreamError::Io(e) => Some(e),
            TraceStreamError::Decode(e) => Some(e),
        }
    }
}

impl From<io::Error> for TraceStreamError {
    fn from(e: io::Error) -> TraceStreamError {
        TraceStreamError::Io(e)
    }
}

impl From<DecodeTraceError> for TraceStreamError {
    fn from(e: DecodeTraceError) -> TraceStreamError {
        TraceStreamError::Decode(e)
    }
}

/// Running totals a [`SegmentWriter`] maintains — enough to report the
/// compression ratio without re-reading what was written.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Segments written.
    pub segments: u64,
    /// Records written (markers included).
    pub records: u64,
    /// Encoded bytes written, file header included.
    pub encoded_bytes: u64,
}

impl StreamStats {
    /// What the records would occupy in the raw 8-byte in-buffer form.
    pub fn raw_bytes(&self) -> u64 {
        self.records * 8
    }

    /// Raw-to-encoded compression ratio (0.0 for an empty stream).
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            0.0
        } else {
            self.raw_bytes() as f64 / self.encoded_bytes as f64
        }
    }
}

/// Incremental segment-file writer. Writes the file header up front,
/// then one segment per [`SegmentWriter::write_segment`] call, reusing
/// its internal encode buffers — the capture drain path's resident cost
/// stays O(buffer).
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    w: W,
    head: Vec<u8>,
    payload: Vec<u8>,
    stats: StreamStats,
}

impl SegmentWriter<BufWriter<File>> {
    /// Creates (truncating) a segment trace file at `path`.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating or writing the file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<SegmentWriter<BufWriter<File>>> {
        SegmentWriter::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> SegmentWriter<W> {
    /// Wraps a writer, emitting the magic/version file header.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the underlying writer.
    pub fn new(mut w: W) -> io::Result<SegmentWriter<W>> {
        w.write_all(MAGIC)?;
        w.write_all(&[VERSION])?;
        Ok(SegmentWriter {
            w,
            head: Vec::new(),
            payload: Vec::new(),
            stats: StreamStats {
                segments: 0,
                records: 0,
                encoded_bytes: (MAGIC.len() + 1) as u64,
            },
        })
    }

    /// Appends one segment: `records` become an independently decodable
    /// unit stamped with the capture-time `cycle` counter.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the underlying writer.
    pub fn write_segment(&mut self, records: &[TraceRecord], cycle: u64) -> io::Result<()> {
        encode_segment_payload(records, &mut self.payload);
        let h = segment_header_of(records, cycle, self.payload.len() as u64);
        self.head.clear();
        push_segment_header(&mut self.head, &h);
        self.w.write_all(&self.head)?;
        self.w.write_all(&self.payload)?;
        self.stats.segments += 1;
        self.stats.records += h.records;
        self.stats.encoded_bytes += (self.head.len() + self.payload.len()) as u64;
        Ok(())
    }

    /// Appends every segment of an in-memory trace (cycle stamps 0, as
    /// re-encoded traces have no capture clock). The file decodes back
    /// to `trace` exactly, boundaries included.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the underlying writer.
    pub fn write_trace(&mut self, trace: &Trace) -> io::Result<()> {
        for seg in trace.segment_slices() {
            self.write_segment(seg, 0)?;
        }
        Ok(())
    }

    /// Totals so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Flushes and returns the totals.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the flush.
    pub fn finish(mut self) -> io::Result<StreamStats> {
        self.w.flush()?;
        Ok(self.stats)
    }
}

/// Reads one byte, distinguishing clean EOF (`None`) from errors.
fn read_byte_opt<R: Read>(r: &mut R) -> io::Result<Option<u8>> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn read_varint_r<R: Read>(r: &mut R) -> Result<u64, TraceStreamError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = read_byte_opt(r)?.ok_or(TraceStreamError::Decode(DecodeTraceError::Truncated))?;
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceStreamError::Decode(DecodeTraceError::Truncated));
        }
    }
}

/// Reads a segment header from a reader positioned at a segment
/// boundary; `None` at clean EOF.
fn read_segment_header_r<R: Read>(r: &mut R) -> Result<Option<SegmentHeader>, TraceStreamError> {
    let mark = match read_byte_opt(r)? {
        None => return Ok(None),
        Some(m) => m,
    };
    if mark != SEG_MARK {
        return Err(TraceStreamError::Decode(DecodeTraceError::BadSegment));
    }
    let records = read_varint_r(r)?;
    let payload_len = read_varint_r(r)?;
    let cycle = read_varint_r(r)?;
    let mut tail = [0u8; 2];
    read_exact_or(r, &mut tail, DecodeTraceError::Truncated)?;
    Ok(Some(SegmentHeader {
        records,
        payload_len,
        cycle,
        pid: tail[0],
        kernel: tail[1] != 0,
    }))
}

/// `read_exact` that reports a short read as the format error `eof`
/// and passes every other I/O failure through as
/// [`TraceStreamError::Io`].
fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    eof: DecodeTraceError,
) -> Result<(), TraceStreamError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => TraceStreamError::Decode(eof),
        _ => TraceStreamError::Io(e),
    })
}

fn check_file_header<R: Read>(r: &mut R) -> Result<(), TraceStreamError> {
    let mut hdr = [0u8; 5];
    read_exact_or(r, &mut hdr, DecodeTraceError::BadHeader)?;
    if &hdr[0..4] != MAGIC || hdr[4] != VERSION {
        return Err(TraceStreamError::Decode(DecodeTraceError::BadHeader));
    }
    Ok(())
}

/// Reads exactly `len` payload bytes into `payload` (cleared first).
/// Grows with the data actually present, so a corrupt length cannot
/// trigger an unbounded allocation.
fn read_payload<R: Read>(
    r: &mut R,
    len: u64,
    payload: &mut Vec<u8>,
) -> Result<(), TraceStreamError> {
    payload.clear();
    r.take(len).read_to_end(payload)?;
    if payload.len() as u64 != len {
        return Err(TraceStreamError::Decode(DecodeTraceError::Truncated));
    }
    Ok(())
}

/// Buffered segment-file reader — the one reader of the v2 format:
/// walks a stream one segment at a time, decoding each into a
/// [`RecordBatch`] it owns and reuses, so memory stays O(largest
/// segment) regardless of file size.
#[derive(Debug)]
pub struct SegmentReader<R: Read> {
    r: R,
    payload: Vec<u8>,
    batch: RecordBatch,
}

impl SegmentReader<BufReader<File>> {
    /// Opens a segment trace file.
    ///
    /// # Errors
    ///
    /// [`TraceStreamError::Io`] if the open fails;
    /// [`DecodeTraceError::BadHeader`] if it is not a segment trace file.
    pub fn open(
        path: impl AsRef<Path>,
    ) -> Result<SegmentReader<BufReader<File>>, TraceStreamError> {
        SegmentReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> SegmentReader<R> {
    /// Wraps a reader positioned at the start of a segment trace stream,
    /// checking the magic/version header.
    ///
    /// # Errors
    ///
    /// As [`SegmentReader::open`].
    pub fn new(mut r: R) -> Result<SegmentReader<R>, TraceStreamError> {
        check_file_header(&mut r)?;
        Ok(SegmentReader {
            r,
            payload: Vec::new(),
            batch: RecordBatch::new(),
        })
    }

    /// Reads the next segment's header and skips its payload without
    /// decoding it, or `None` at clean end-of-stream.
    ///
    /// # Errors
    ///
    /// Any [`TraceStreamError`]; a payload shorter than its header
    /// advertises is [`DecodeTraceError::Truncated`].
    pub fn next_header(&mut self) -> Result<Option<SegmentHeader>, TraceStreamError> {
        let h = match read_segment_header_r(&mut self.r)? {
            None => return Ok(None),
            Some(h) => h,
        };
        read_payload(&mut self.r, h.payload_len, &mut self.payload)?;
        Ok(Some(h))
    }

    /// Decodes the next segment, or `None` at clean end-of-stream. The
    /// returned slice is the reader's batch, valid until the next call.
    ///
    /// # Errors
    ///
    /// Any [`TraceStreamError`].
    pub fn next_segment(
        &mut self,
    ) -> Result<Option<(SegmentHeader, &[TraceRecord])>, TraceStreamError> {
        let Some(h) = self.next_header()? else {
            return Ok(None);
        };
        self.batch.clear();
        decode_segment_payload(&self.payload, &h, &mut self.batch.records)?;
        Ok(Some((h, self.batch.records())))
    }

    /// The segment sources' `next_batch`: the next non-empty segment as
    /// the reader's batch (a segment is the decode unit), skipping empty
    /// segments so that `None` keeps meaning end-of-stream.
    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        loop {
            match self.next_segment()? {
                None => return Ok(None),
                Some((_, [])) => continue,
                Some(_) => return Ok(Some(&self.batch)),
            }
        }
    }

    /// Decodes the rest of the stream into an in-memory [`Trace`], one
    /// trace segment per file segment.
    pub(crate) fn into_trace(mut self) -> Result<Trace, TraceStreamError> {
        let mut trace = Trace::new();
        let mut first = true;
        while let Some((_, records)) = self.next_segment()? {
            trace.push_segment(records, first);
            first = false;
        }
        Ok(trace)
    }
}

/// A record stream: the seam between capture and analysis. In-memory
/// traces, v2 bytes in memory, on-disk segment files and the user-only
/// view of any of them all implement it, so the streaming analysis
/// passes are agnostic to where records live.
///
/// The required API is pull-based: [`TraceSource::rewind`] resets to
/// the beginning and [`TraceSource::next_batch`] yields the records, in
/// trace order, as decode-once [`RecordBatch`]es — what the batched
/// simulators consume. The push-style [`TraceSource::stream`] is a
/// provided method rebuilt on top of the batches; it may be called more
/// than once, restarting each time (file sources reopen the file).
pub trait TraceSource {
    /// Resets the source to the beginning of the record stream. File
    /// sources reopen the file.
    ///
    /// # Errors
    ///
    /// Any [`TraceStreamError`] from the underlying source.
    fn rewind(&mut self) -> Result<(), TraceStreamError>;

    /// Returns the next batch of records, or `None` at end of stream;
    /// never yields an empty batch. The returned batch borrows the
    /// source's internal buffer and is valid until the next call. A
    /// fresh source is positioned at the beginning.
    ///
    /// # Errors
    ///
    /// Any [`TraceStreamError`] from the underlying source.
    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError>;

    /// Streams all records into `sink`, in order, restarting from the
    /// beginning: each batch's records go to the sink as they are, with
    /// no copy (sources with a cheaper native slice form may override
    /// it).
    ///
    /// # Errors
    ///
    /// Any [`TraceStreamError`] from the underlying source.
    fn stream(&mut self, sink: &mut dyn FnMut(&[TraceRecord])) -> Result<(), TraceStreamError> {
        self.rewind()?;
        while let Some(batch) = self.next_batch()? {
            sink(batch.records());
        }
        Ok(())
    }
}

/// A [`TraceSource`] over a whole in-memory trace, yielding
/// [`BATCH_TARGET`]-sized batches. Built by [`Trace::source`].
pub struct MemTraceSource<'a> {
    trace: &'a Trace,
    pos: usize,
    batch: RecordBatch,
}

impl<'a> MemTraceSource<'a> {
    pub(crate) fn new(trace: &'a Trace) -> MemTraceSource<'a> {
        MemTraceSource {
            trace,
            pos: 0,
            batch: RecordBatch::new(),
        }
    }
}

impl TraceSource for MemTraceSource<'_> {
    fn rewind(&mut self) -> Result<(), TraceStreamError> {
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        let records = self.trace.records();
        if self.pos >= records.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_TARGET).min(records.len());
        self.batch.clear();
        self.batch.extend_from_records(&records[self.pos..end]);
        self.pos = end;
        Ok(Some(&self.batch))
    }

    fn stream(&mut self, sink: &mut dyn FnMut(&[TraceRecord])) -> Result<(), TraceStreamError> {
        // The records already exist in slice form; hand out the segment
        // slices directly instead of round-tripping through batches.
        for seg in self.trace.segment_slices() {
            sink(seg);
        }
        Ok(())
    }
}

/// A [`TraceSource`] over a v2 segment stream held in memory — the
/// form a capture keeps once it has compacted its trace. Restartable
/// without copying: [`TraceSource::rewind`] starts the next pass at the
/// first segment, and [`TraceSource::next_batch`] lends one decoded
/// segment per batch, exactly as [`SegmentFileSource`] does for a file.
#[derive(Debug)]
pub struct SegmentSliceSource<'a> {
    bytes: &'a [u8],
    /// Reader of the in-progress pull pass (`None` before the first
    /// `next_batch` and after a rewind).
    reader: Option<SegmentReader<&'a [u8]>>,
}

impl<'a> SegmentSliceSource<'a> {
    /// A source over `bytes`, which hold a whole v2 stream (file header
    /// included), as [`SegmentWriter`] writes it.
    pub fn new(bytes: &'a [u8]) -> SegmentSliceSource<'a> {
        SegmentSliceSource {
            bytes,
            reader: None,
        }
    }
}

impl TraceSource for SegmentSliceSource<'_> {
    fn rewind(&mut self) -> Result<(), TraceStreamError> {
        self.reader = None;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        let rd = match self.reader.take() {
            Some(rd) => rd,
            None => SegmentReader::new(self.bytes)?,
        };
        self.reader.insert(rd).next_batch()
    }
}

/// The user-only view of any source: only the I/D references made in
/// user mode, in order — what a pre-ATUM user-level tracer would have
/// seen. Each batch is the user references of one or more of the
/// inner source's batches; an empty batch is never yielded.
#[derive(Debug)]
pub struct UserRefs<S> {
    inner: S,
    batch: RecordBatch,
}

impl<S: TraceSource> UserRefs<S> {
    /// The user-only view of `inner`.
    pub fn new(inner: S) -> UserRefs<S> {
        UserRefs {
            inner,
            batch: RecordBatch::new(),
        }
    }
}

impl<S: TraceSource> TraceSource for UserRefs<S> {
    fn rewind(&mut self) -> Result<(), TraceStreamError> {
        self.inner.rewind()
    }

    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        self.batch.clear();
        while let Some(b) = self.inner.next_batch()? {
            let user = b.records().iter().filter(|r| r.is_ref() && !r.is_kernel());
            self.batch.records.extend(user);
            if !self.batch.is_empty() {
                return Ok(Some(&self.batch));
            }
        }
        Ok(None)
    }
}

/// A [`TraceSource`] over an on-disk segment file. Restartable —
/// [`TraceSource::rewind`] (and each [`TraceSource::stream`] call)
/// reopens the file. [`TraceSource::next_batch`] lends the reader's
/// batch, one decoded segment per batch (decode-once).
#[derive(Debug)]
pub struct SegmentFileSource {
    path: PathBuf,
    /// Open reader of the in-progress pull pass (`None` before the
    /// first `next_batch` and after a rewind).
    reader: Option<SegmentReader<BufReader<File>>>,
}

impl Clone for SegmentFileSource {
    /// Clones the configuration; the clone starts a fresh pass at the
    /// beginning of the file.
    fn clone(&self) -> SegmentFileSource {
        SegmentFileSource::new(self.path.clone())
    }
}

impl SegmentFileSource {
    /// A source for `path`.
    pub fn new(path: impl Into<PathBuf>) -> SegmentFileSource {
        SegmentFileSource {
            path: path.into(),
            reader: None,
        }
    }

    /// The file this source reads.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSource for SegmentFileSource {
    fn rewind(&mut self) -> Result<(), TraceStreamError> {
        self.reader = None;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        let rd = match self.reader.take() {
            Some(rd) => rd,
            None => SegmentReader::open(&self.path)?,
        };
        self.reader.insert(rd).next_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;

    fn collect<S: TraceSource>(src: &mut S) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        src.stream(&mut |batch| out.extend_from_slice(batch))
            .unwrap();
        out
    }

    fn mixed_trace() -> Trace {
        let mut t = Trace::new();
        for i in 0..500u32 {
            let pid = (1 + (i / 64) % 3) as u8;
            t.push(TraceRecord::new(
                RecordKind::IFetch,
                0x1000 + i * 4,
                4,
                pid,
                false,
            ));
            if i % 4 == 0 {
                t.push(TraceRecord::new(
                    RecordKind::Write,
                    0x8000_0000 + i * 8,
                    4,
                    pid,
                    true,
                ));
            }
        }
        t
    }

    fn collect_batched<S: TraceSource>(src: &mut S) -> Vec<TraceRecord> {
        src.rewind().unwrap();
        let mut out = Vec::new();
        while let Some(b) = src.next_batch().unwrap() {
            assert!(!b.is_empty(), "next_batch never yields an empty batch");
            out.extend(b.iter());
        }
        out
    }

    #[test]
    fn trace_source_streams_whole_trace() {
        let t = mixed_trace();
        assert_eq!(collect(&mut t.source()), t.records());
        assert_eq!(collect_batched(&mut t.source()), t.records());
    }

    #[test]
    fn filtered_sources_match_iterators() {
        let mut t = mixed_trace();
        t.stitch(mixed_trace());
        let bytes = crate::encode::encode_trace(&t);
        let want: Vec<TraceRecord> = t.user_refs().collect();
        assert_eq!(collect(&mut UserRefs::new(t.source())), want);
        assert_eq!(collect_batched(&mut UserRefs::new(t.source())), want);
        let mut over_bytes = UserRefs::new(SegmentSliceSource::new(&bytes));
        assert_eq!(collect(&mut over_bytes), want);
        assert_eq!(collect_batched(&mut over_bytes), want);
    }

    #[test]
    fn user_refs_skip_batches_with_no_user_reference() {
        // A kernel-only first segment: the view's first batch is the
        // second segment's user references, never an empty batch.
        let mut t: Trace = mixed_trace()
            .iter()
            .filter(|r| r.is_kernel())
            .copied()
            .collect();
        t.stitch(mixed_trace());
        let bytes = crate::encode::encode_trace(&t);
        let mut src = UserRefs::new(SegmentSliceSource::new(&bytes));
        let first = src.next_batch().unwrap().unwrap().records().to_vec();
        assert_eq!(first, t.user_refs().collect::<Vec<_>>());
        assert!(src.next_batch().unwrap().is_none());
    }

    #[test]
    fn rewind_restarts_a_pass() {
        let t = mixed_trace();
        let mut src = t.source();
        // Consume a batch, rewind, and the full pass must still see
        // everything from the beginning.
        assert!(src.next_batch().unwrap().is_some());
        assert_eq!(collect_batched(&mut src), t.records());

        let mut f = UserRefs::new(t.source());
        assert!(f.next_batch().unwrap().is_some());
        assert_eq!(
            collect_batched(&mut f),
            t.user_refs().collect::<Vec<_>>(),
            "filtered source rewinds cleanly"
        );

        let bytes = crate::encode::encode_trace(&t);
        let mut b = SegmentSliceSource::new(&bytes);
        assert!(b.next_batch().unwrap().is_some());
        assert_eq!(collect_batched(&mut b), t.records(), "byte source rewinds");
    }

    #[test]
    fn writer_reader_round_trip_with_stats() {
        let mut t = mixed_trace();
        t.stitch(mixed_trace());
        let mut bytes = Vec::new();
        let mut w = SegmentWriter::new(&mut bytes).unwrap();
        w.write_trace(&t).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.segments, t.segments() as u64);
        assert_eq!(stats.records, t.len() as u64);
        assert_eq!(stats.encoded_bytes, bytes.len() as u64);
        assert!(stats.compression_ratio() > 3.0, "got {stats:?}");
        // Matches the one-shot encoder byte for byte.
        assert_eq!(bytes, crate::encode::encode_trace(&t));

        let mut rd = SegmentReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        let mut headers = Vec::new();
        while let Some((h, recs)) = rd.next_segment().unwrap() {
            headers.push(h);
            back.extend_from_slice(recs);
        }
        assert_eq!(back, t.records());
        assert_eq!(headers.len(), t.segments());
        assert_eq!(headers[0].pid, t.records()[0].pid());
    }

    #[test]
    fn file_source_push_and_pull_agree() {
        let mut t = Trace::new();
        for chunk in 0..37 {
            let mut seg = Trace::new();
            for i in 0..200u32 {
                seg.push(TraceRecord::new(
                    RecordKind::IFetch,
                    0x1000 + chunk * 0x100 + i * 4,
                    4,
                    (chunk % 5) as u8,
                    chunk % 7 == 0,
                ));
            }
            t.stitch(seg);
        }
        let path =
            std::env::temp_dir().join(format!("atum-stream-test-{}.atrace", std::process::id()));
        let mut w = SegmentWriter::create(&path).unwrap();
        w.write_trace(&t).unwrap();
        w.finish().unwrap();

        let seq = collect(&mut SegmentFileSource::new(&path));
        assert_eq!(seq, t.records());
        // The pull path decodes the same records, one segment per batch,
        // and rewinds mid-pass cleanly.
        let mut src = SegmentFileSource::new(&path);
        assert!(src.next_batch().unwrap().is_some());
        assert_eq!(collect_batched(&mut src), seq);
        assert_eq!(collect_batched(&mut src.clone()), seq);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(crate::encode::decode_trace(&bytes).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_rejects_garbage() {
        assert!(matches!(
            SegmentReader::new(&b"NOTATRACE"[..]),
            Err(TraceStreamError::Decode(DecodeTraceError::BadHeader))
        ));
        // Valid header, truncated segment.
        let t = mixed_trace();
        let bytes = crate::encode::encode_trace(&t);
        let mut rd = SegmentReader::new(&bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            rd.next_segment(),
            Err(TraceStreamError::Decode(DecodeTraceError::Truncated))
        ));
    }

    /// Serves `data`, but fails with `ErrorKind::Other` once `fail_at`
    /// bytes have been read.
    struct FailingReader<'a> {
        data: &'a [u8],
        pos: usize,
        fail_at: usize,
    }

    impl Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.fail_at {
                return Err(io::Error::other("disk on fire"));
            }
            let end = self.data.len().min(self.fail_at).min(self.pos + buf.len());
            let n = end - self.pos;
            buf[..n].copy_from_slice(&self.data[self.pos..end]);
            self.pos = end;
            Ok(n)
        }
    }

    fn is_other_io(r: Result<(), TraceStreamError>) -> bool {
        matches!(r, Err(TraceStreamError::Io(e)) if e.kind() == io::ErrorKind::Other)
    }

    #[test]
    fn io_errors_are_not_reported_as_corruption() {
        let bytes = crate::encode::encode_trace(&mixed_trace());
        let reader = |fail_at| FailingReader {
            data: &bytes,
            pos: 0,
            fail_at,
        };

        // Partway through the file header.
        assert!(is_other_io(SegmentReader::new(reader(2)).map(drop)));

        // Partway through the first segment header's two fixed bytes
        // (read with `read_exact`, after the varints).
        let mut first = Vec::new();
        let h = read_segment_header_r(&mut &bytes[MAGIC.len() + 1..])
            .unwrap()
            .unwrap();
        push_segment_header(&mut first, &h);
        let cut = MAGIC.len() + 1 + first.len() - 1;
        let mut rd = SegmentReader::new(reader(cut)).unwrap();
        assert!(is_other_io(rd.next_segment().map(drop)));

        // The same cuts as a short stream are still format errors.
        assert!(matches!(
            SegmentReader::new(&bytes[..2]),
            Err(TraceStreamError::Decode(DecodeTraceError::BadHeader))
        ));
        let mut rd = SegmentReader::new(&bytes[..cut]).unwrap();
        assert!(matches!(
            rd.next_segment(),
            Err(TraceStreamError::Decode(DecodeTraceError::Truncated))
        ));
    }
}
