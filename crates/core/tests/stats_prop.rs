//! Property test: `TraceStats::of` equals the plain per-record loop it
//! replaced, over an in-memory trace and over its v2 bytes, which hashes every reference's page and counts pids in a
//! map. The fast form skips the hashing when a reference repeats its
//! stream's last page, so the traces here interleave I- and D-stream
//! runs over a few shared pages, with markers and mode and pid changes
//! in between.

use atum_core::{encode_trace, RecordKind, SegmentSliceSource, Trace, TraceRecord, TraceStats};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// The reference: every reference inserts its page, every pid count
/// goes through the map.
fn plain_stats(trace: &Trace) -> TraceStats {
    let mut s = TraceStats::default();
    let mut pages = HashSet::new();
    let mut data_pages = HashSet::new();
    let mut by_pid = BTreeMap::new();
    for r in trace.iter() {
        s.records += 1;
        match r.kind() {
            RecordKind::IFetch => s.ifetch += 1,
            RecordKind::Read => s.reads += 1,
            RecordKind::Write => s.writes += 1,
            RecordKind::CtxSwitch => s.ctx_switches += 1,
            RecordKind::Interrupt => s.interrupts += 1,
            RecordKind::SegmentMark => {}
        }
        if r.is_ref() {
            if r.is_kernel() {
                s.kernel_refs += 1;
            } else {
                s.user_refs += 1;
            }
            pages.insert(r.page());
            if r.kind().is_data() {
                data_pages.insert(r.page());
            }
            *by_pid.entry(r.pid()).or_insert(0) += 1;
        }
    }
    s.distinct_pages = pages.len() as u64;
    s.distinct_data_pages = data_pages.len() as u64;
    s.refs_by_pid = by_pid;
    s
}

/// Runs of one kind on one page: the page comes from a pool of six so
/// that I and D runs land on each other's pages, and the pid from a few
/// common values or anything (0 and 255 included).
fn trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(
        (
            prop_oneof![
                4 => Just(RecordKind::IFetch),
                3 => Just(RecordKind::Read),
                2 => Just(RecordKind::Write),
                1 => Just(RecordKind::CtxSwitch),
                1 => Just(RecordKind::Interrupt),
                1 => Just(RecordKind::SegmentMark),
            ],
            0u32..6,
            1u32..6,
            prop_oneof![3 => 0u8..3, 1 => any::<u8>()],
            any::<bool>(),
            any::<u32>(),
        ),
        0..60,
    )
    .prop_map(|runs| {
        let mut t = Trace::new();
        for (kind, page, len, pid, kernel, offset) in runs {
            for i in 0..len {
                let addr = (page << atum_arch::PAGE_SHIFT) + (offset.wrapping_add(4 * i) & 0x1FF);
                t.push(TraceRecord::new(kind, addr, 4, pid, kernel));
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stats_match_the_plain_loop(t in trace()) {
        let want = plain_stats(&t);
        prop_assert_eq!(TraceStats::of(&mut t.source()).expect("in memory"), want.clone());
        let bytes = encode_trace(&t);
        prop_assert_eq!(TraceStats::of(&mut SegmentSliceSource::new(&bytes)).expect("decodes"), want.clone());
        prop_assert_eq!(t.stats(), want);
    }
}
