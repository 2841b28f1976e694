//! Decode-once record batches.
//!
//! The analysis hot path consumes traces as [`RecordBatch`]es: SoA
//! blocks (`addrs`, packed `metas`) of a few thousand records, decoded
//! once at the source and then walked linearly by every consumer —
//! cache-friendly and free of the per-record virtual dispatch the old
//! push-only path paid. [`TraceSource`](crate::TraceSource) yields them
//! via `next_batch`; the per-record `stream` API is reimplemented on
//! top, so existing consumers are unchanged.

use crate::record::TraceRecord;

/// Target records per batch: large enough to amortise dispatch, small
/// enough that a batch stays cache-resident while every engine walks
/// it. Segment-file sources use their natural segment size instead (a
/// segment is already the decode unit).
pub const BATCH_TARGET: usize = 8192;

/// A decode-once, structure-of-arrays block of trace records: addresses
/// in one contiguous array, the packed kind/pid/size/mode metadata word
/// in another. Index `i` of both arrays is record `i`; the two arrays
/// always have equal length.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    addrs: Vec<u32>,
    metas: Vec<u32>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// An empty batch with room for `n` records.
    pub fn with_capacity(n: usize) -> RecordBatch {
        RecordBatch {
            addrs: Vec::with_capacity(n),
            metas: Vec::with_capacity(n),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Removes all records, keeping the allocations.
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.metas.clear();
    }

    /// Appends one record.
    pub fn push(&mut self, r: TraceRecord) {
        self.addrs.push(r.addr);
        self.metas.push(r.meta);
    }

    /// Appends a slice of records.
    pub fn extend_from_records(&mut self, records: &[TraceRecord]) {
        self.addrs.reserve(records.len());
        self.metas.reserve(records.len());
        for r in records {
            self.addrs.push(r.addr);
            self.metas.push(r.meta);
        }
    }

    /// Reserves room for `n` more records.
    pub fn reserve(&mut self, n: usize) {
        self.addrs.reserve(n);
        self.metas.reserve(n);
    }

    /// The record at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> TraceRecord {
        TraceRecord {
            addr: self.addrs[i],
            meta: self.metas[i],
        }
    }

    /// The address column.
    pub fn addrs(&self) -> &[u32] {
        &self.addrs
    }

    /// The packed-metadata column (see [`TraceRecord`] for the layout).
    pub fn metas(&self) -> &[u32] {
        &self.metas
    }

    /// Iterates the records by value, in order.
    pub fn iter(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        self.addrs
            .iter()
            .zip(&self.metas)
            .map(|(&addr, &meta)| TraceRecord { addr, meta })
    }

    /// Rebuilds the array-of-structs form into `out` (cleared first) —
    /// the compatibility shim under the per-record `stream` API.
    pub fn copy_to(&self, out: &mut Vec<TraceRecord>) {
        out.clear();
        out.reserve(self.len());
        out.extend(self.iter());
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
        let mut back = Vec::new();
        b.copy_to(&mut back);
        assert_eq!(back, t.records());
        assert_eq!(b.addrs().len(), b.metas().len());
        b.clear();
        assert!(b.is_empty());
    }
}
