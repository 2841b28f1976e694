//! Decode-once record batches.
//!
//! The analysis hot path consumes traces as [`RecordBatch`]es: blocks of
//! a few thousand records, decoded once at the source and then walked
//! linearly by every consumer — cache-friendly and free of the
//! per-record virtual dispatch the old push-only path paid.
//! [`TraceSource`](crate::TraceSource) yields them via `next_batch`, and
//! its per-record `stream` API hands each batch's records to the sink
//! as they are, with no copy.

use crate::record::TraceRecord;

/// Target records per batch: large enough to amortise dispatch, small
/// enough that a batch stays cache-resident while every engine walks
/// it. Segment-file sources use their natural segment size instead (a
/// segment is already the decode unit).
pub const BATCH_TARGET: usize = 8192;

/// A decode-once block of trace records, stored as the
/// [`TraceRecord`]s themselves (address and packed metadata side by
/// side), so a consumer reads each record from one place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    pub(crate) records: Vec<TraceRecord>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Removes all records, keeping the allocation.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Appends one record.
    pub fn push(&mut self, r: TraceRecord) {
        self.records.push(r);
    }

    /// Appends a slice of records.
    pub fn extend_from_records(&mut self, records: &[TraceRecord]) {
        self.records.extend_from_slice(records);
    }

    /// The record at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> TraceRecord {
        self.records[i]
    }

    /// The records, in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates the records by value, in order.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.records.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;
    use crate::trace::Trace;

    fn trace(n: u32) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(TraceRecord::new(RecordKind::Read, i * 4, 4, 1, false));
        }
        t
    }

    #[test]
    fn batch_round_trips_records() {
        let t = trace(100);
        let mut b = RecordBatch::new();
        b.extend_from_records(t.records());
        assert_eq!(b.len(), 100);
        assert!(!b.is_empty());
        assert_eq!(b.get(7), t.records()[7]);
        assert_eq!(b.iter().collect::<Vec<_>>(), t.records());
        assert_eq!(b.records(), t.records());
        b.clear();
        assert!(b.is_empty());
    }
}
