//! In-memory traces: a record sequence with segment boundaries.

use crate::record::{RecordKind, TraceRecord};
use crate::stats::{StatsAccumulator, TraceStats};
use std::fmt;

/// An address trace: records in capture order, with the indices where
/// stitched segments begin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
    segment_starts: Vec<usize>,
    /// Running count of I/D reference records, maintained on every
    /// mutation so [`Trace::ref_count`] (hit per row by the experiment
    /// tables and on every `Display`) never rescans the record vector.
    ref_count: usize,
}

impl Trace {
    /// An empty trace (one implicit segment).
    pub fn new() -> Trace {
        Trace {
            records: Vec::new(),
            segment_starts: vec![0],
            ref_count: 0,
        }
    }

    /// Number of records (markers included).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, r: TraceRecord) {
        self.ref_count += r.is_ref() as usize;
        self.records.push(r);
    }

    /// Appends another trace as a new segment (the stitch operation),
    /// separated by a [`RecordKind::SegmentMark`]. Stitching into an
    /// empty trace extends the implicit first segment rather than
    /// opening a second one (no mark, no new boundary).
    pub fn stitch(&mut self, other: Trace) {
        if !self.records.is_empty() {
            self.records
                .push(TraceRecord::new(RecordKind::SegmentMark, 0, 0, 0, false));
            self.segment_starts.push(self.records.len());
        }
        self.ref_count += other.ref_count;
        self.records.extend(other.records);
    }

    /// Number of stitched segments.
    pub fn segments(&self) -> usize {
        self.segment_starts.len()
    }

    /// Appends `records` as the trace's next segment, as they are (marks
    /// included, none added) — how a capture session and the segment
    /// reader rebuild a trace from finished segments. The `first` segment
    /// fills the implicit first segment, even when it is empty.
    pub(crate) fn push_segment(&mut self, records: &[TraceRecord], first: bool) {
        if !first {
            self.segment_starts.push(self.records.len());
        }
        self.extend(records.iter().copied());
    }

    /// Iterates over the record slice of each segment, in order.
    /// Concatenating the slices reproduces [`Trace::records`] exactly
    /// (stitch marks live at the tail of the segment they terminate).
    pub fn segment_slices(&self) -> impl Iterator<Item = &[TraceRecord]> + '_ {
        self.segment_starts.iter().enumerate().map(|(i, &start)| {
            let end = self
                .segment_starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.records.len());
            &self.records[start..end]
        })
    }

    /// Iterates over all records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// The records as a slice.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates over memory references only (I and D records).
    pub fn refs(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.records.iter().copied().filter(|r| r.is_ref())
    }

    /// Total number of memory references (cached, O(1)).
    pub fn ref_count(&self) -> usize {
        self.ref_count
    }

    /// Iterates over user-mode references only — what a pre-ATUM
    /// user-level tracer would have seen. Allocation-free; its streaming
    /// form is [`UserRefs`](crate::stream::UserRefs) over
    /// [`Trace::source`].
    pub fn user_refs(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.records
            .iter()
            .copied()
            .filter(|r| r.is_ref() && !r.is_kernel())
    }

    /// A [`TraceSource`](crate::stream::TraceSource) over the whole
    /// trace, markers included — the streaming/batched form the
    /// analysis passes consume.
    pub fn source(&self) -> crate::stream::MemTraceSource<'_> {
        crate::stream::MemTraceSource::new(self)
    }

    /// Computes summary statistics: what
    /// [`TraceStats::of`] gives [`Trace::source`].
    pub fn stats(&self) -> TraceStats {
        let mut acc = StatsAccumulator::new();
        acc.add(&self.records);
        acc.finish()
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        let before = self.records.len();
        self.records.extend(iter);
        self.ref_count += self.records[before..].iter().filter(|r| r.is_ref()).count();
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Trace {
        let mut t = Trace::new();
        t.extend(iter);
        t
    }
}

impl From<Vec<TraceRecord>> for Trace {
    fn from(records: Vec<TraceRecord>) -> Trace {
        let ref_count = records.iter().filter(|r| r.is_ref()).count();
        Trace {
            records,
            segment_starts: vec![0],
            ref_count,
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// [`Trace::new`]: empty, with its implicit first segment.
impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace: {} records ({} refs) in {} segment(s)",
            self.len(),
            self.ref_count(),
            self.segments()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, addr: u32, pid: u8, kernel: bool) -> TraceRecord {
        TraceRecord::new(kind, addr, 4, pid, kernel)
    }

    #[test]
    fn push_and_filter() {
        let mut t = Trace::new();
        t.push(rec(RecordKind::IFetch, 0x100, 1, false));
        t.push(rec(RecordKind::Read, 0x200, 1, false));
        t.push(rec(RecordKind::Write, 0x300, 1, true));
        t.push(rec(RecordKind::CtxSwitch, 0x9000, 2, true));
        assert_eq!(t.len(), 4);
        assert_eq!(t.ref_count(), 3);
        assert_eq!(t.user_refs().count(), 2, "kernel refs and markers excluded");
    }

    #[test]
    fn stitch_inserts_marks() {
        let mut a: Trace = vec![rec(RecordKind::Read, 1, 0, false)]
            .into_iter()
            .collect();
        let b: Trace = vec![rec(RecordKind::Read, 2, 0, false)]
            .into_iter()
            .collect();
        a.stitch(b);
        assert_eq!(a.segments(), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.records()[1].kind(), RecordKind::SegmentMark);
        assert_eq!(a.ref_count(), 2, "marks are not references");
    }

    #[test]
    fn stitch_into_empty_adds_no_mark() {
        let mut a = Trace::new();
        a.stitch(
            vec![rec(RecordKind::Read, 2, 0, false)]
                .into_iter()
                .collect(),
        );
        assert_eq!(a.len(), 1);
        // The implicit first segment absorbs the stitched records: no
        // mark was inserted, so no second segment exists.
        assert_eq!(a.segments(), 1);

        // A second stitch does open a new segment.
        a.stitch(
            vec![rec(RecordKind::Read, 3, 0, false)]
                .into_iter()
                .collect(),
        );
        assert_eq!(a.segments(), 2);
        assert_eq!(a.records()[1].kind(), RecordKind::SegmentMark);
    }

    #[test]
    fn cached_ref_count_tracks_every_mutation_path() {
        let mut t = Trace::new();
        t.push(rec(RecordKind::IFetch, 0x100, 1, false));
        t.push(rec(RecordKind::CtxSwitch, 0x9000, 2, true));
        t.extend(vec![
            rec(RecordKind::Read, 0x200, 1, false),
            rec(RecordKind::SegmentMark, 0, 0, false),
        ]);
        t.stitch(
            vec![rec(RecordKind::Write, 0x300, 1, true)]
                .into_iter()
                .collect(),
        );
        t.push_segment(&[rec(RecordKind::Read, 0x400, 1, false)], false);
        assert_eq!(t.ref_count(), t.refs().count());
        let user: Trace = t.user_refs().collect();
        assert_eq!(user.ref_count(), user.refs().count());
        assert_eq!(Trace::from(t.records().to_vec()).ref_count(), t.ref_count());
    }

    #[test]
    fn segment_slices_cover_records_exactly() {
        let mut t: Trace = vec![rec(RecordKind::Read, 1, 0, false)]
            .into_iter()
            .collect();
        t.stitch(
            vec![rec(RecordKind::Read, 2, 0, false)]
                .into_iter()
                .collect(),
        );
        t.stitch(Trace::new());
        let slices: Vec<&[TraceRecord]> = t.segment_slices().collect();
        assert_eq!(slices.len(), t.segments());
        let flat: Vec<TraceRecord> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, t.records());
        // The mark terminating segment 1 sits at the tail of its slice.
        assert_eq!(slices[0].last().unwrap().kind(), RecordKind::SegmentMark);
    }

    #[test]
    fn display() {
        let t = Trace::new();
        assert!(t.to_string().contains("0 records"));
    }

    #[test]
    fn default_is_new_and_round_trips() {
        let t = Trace::default();
        assert_eq!(t, Trace::new());
        assert_eq!(t.segments(), 1);
        let back = crate::decode_trace(&crate::encode_trace(&t)).unwrap();
        assert_eq!(back, t);
    }
}
