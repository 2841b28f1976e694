//! Property tests on the trace record format and the archival encoding.

use atum_core::{
    decode_trace, encode_trace, RecordKind, SegmentFileSource, SegmentReader, SegmentSliceSource,
    SegmentWriter, Trace, TraceRecord, TraceSource, UserRefs,
};
use proptest::prelude::*;

/// Drains a source batch-by-batch, checking the batch invariants along
/// the way (batches are never empty, and the slice, index and iterator
/// views agree).
fn collect_batches<S: TraceSource + ?Sized>(source: &mut S) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    while let Some(batch) = source.next_batch().expect("batch") {
        assert!(!batch.is_empty(), "sources must never yield empty batches");
        assert_eq!(batch.records().len(), batch.len());
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(batch.get(i), r);
        }
        out.extend(batch.iter());
    }
    out
}

/// Every batch of one pass over `source`, as it was lent.
fn batches<S: TraceSource>(source: &mut S) -> Vec<Vec<TraceRecord>> {
    let mut out = Vec::new();
    while let Some(batch) = source.next_batch().expect("batch") {
        out.push(batch.records().to_vec());
    }
    out
}

/// The batches a segment source must lend for `bytes`: the non-empty
/// segments of the trace `decode_trace` rebuilds, one per batch.
fn decoded_batches(bytes: &[u8]) -> Vec<Vec<TraceRecord>> {
    let trace = decode_trace(bytes).expect("decodes");
    trace
        .segment_slices()
        .filter(|s| !s.is_empty())
        .map(<[TraceRecord]>::to_vec)
        .collect()
}

fn record() -> impl Strategy<Value = TraceRecord> {
    (
        prop_oneof![
            Just(RecordKind::IFetch),
            Just(RecordKind::Read),
            Just(RecordKind::Write),
            Just(RecordKind::CtxSwitch),
            Just(RecordKind::Interrupt),
            Just(RecordKind::SegmentMark),
        ],
        any::<u32>(),
        prop_oneof![Just(0u32), Just(1), Just(2), Just(4)],
        any::<u8>(),
        any::<bool>(),
    )
        .prop_map(|(kind, addr, size, pid, kernel)| TraceRecord::new(kind, addr, size, pid, kernel))
}

/// Bits of a meta longword outside the kind (31:28), kernel (27), size
/// (18:16) and pid (15:8) fields; the microcode never sets them.
const STRAY_BITS: u32 = !(0xF << 28 | 1 << 27 | 0x7 << 16 | 0xFF << 8);

/// A raw meta longword built from its fields — any kind code, kernel
/// flag, size and pid, valid or not — plus stray bits: none, a random
/// set, or a single one.
fn raw_meta() -> impl Strategy<Value = u32> {
    (
        prop_oneof![3 => 1u32..7, 1 => 0u32..16],
        any::<bool>(),
        prop_oneof![3 => prop_oneof![Just(0u32), Just(1), Just(2), Just(4)], 1 => 0u32..8],
        any::<u8>(),
        prop_oneof![Just(0u32), any::<u32>(), (0u32..32).prop_map(|b| 1 << b)],
    )
        .prop_map(|(kind, kernel, size, pid, stray)| {
            kind << 28 | (kernel as u32) << 27 | size << 16 | (pid as u32) << 8 | stray & STRAY_BITS
        })
}

/// Bursty records: straight-line I-stream runs, PID/mode phases and the
/// occasional marker — the shapes the run-length and pid-delta encoder
/// paths actually take (pure `record()` noise almost never forms runs).
fn bursty_segment() -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(
        (any::<u32>(), 1u32..50, any::<u8>(), any::<bool>(), 0u8..10),
        0..20,
    )
    .prop_map(|bursts| {
        let mut out = Vec::new();
        for (base, len, pid, kernel, kind_sel) in bursts {
            match kind_sel {
                0..=5 => {
                    for i in 0..len {
                        out.push(TraceRecord::new(
                            RecordKind::IFetch,
                            base.wrapping_add(i * 4),
                            4,
                            pid,
                            kernel,
                        ));
                    }
                }
                6 => {
                    for i in 0..len {
                        out.push(TraceRecord::new(
                            RecordKind::Write,
                            base.wrapping_add(i * 8),
                            1,
                            pid,
                            kernel,
                        ));
                    }
                }
                7 => out.push(TraceRecord::new(RecordKind::CtxSwitch, base, 0, pid, true)),
                8 => out.push(TraceRecord::new(RecordKind::Interrupt, base, 0, pid, true)),
                _ => {
                    for i in 0..len {
                        out.push(TraceRecord::new(
                            RecordKind::Read,
                            base.wrapping_sub(i * 4),
                            2,
                            pid,
                            kernel,
                        ));
                    }
                }
            }
        }
        out
    })
}

/// A multi-segment trace built the way captures build them: stitched.
fn stitched_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(bursty_segment(), 1..8).prop_map(|segments| {
        let mut t = Trace::new();
        for seg in segments {
            t.stitch(seg.into_iter().collect());
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn record_fields_round_trip(r in record()) {
        let parsed = TraceRecord::from_raw(r.addr, r.meta).expect("valid meta");
        prop_assert_eq!(parsed, r);
        prop_assert_eq!(parsed.kind(), r.kind());
        prop_assert_eq!(parsed.pid(), r.pid());
        prop_assert_eq!(parsed.is_kernel(), r.is_kernel());
        prop_assert_eq!(parsed.size(), r.size());
    }

    #[test]
    fn encode_decode_round_trips(records in proptest::collection::vec(record(), 0..500)) {
        let trace: Trace = records.iter().copied().collect();
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).expect("decodes");
        prop_assert_eq!(back.records(), trace.records());
    }

    #[test]
    fn accepted_raw_records_round_trip(addr in any::<u32>(), meta in raw_meta()) {
        // A drained record is one `from_raw` accepts; the archive must
        // keep every such record exactly.
        if let Some(r) = TraceRecord::from_raw(addr, meta) {
            let t: Trace = std::iter::once(r).collect();
            prop_assert_eq!(decode_trace(&encode_trace(&t)).expect("decodes"), t);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_trace(&bytes); // must return, never panic
    }

    #[test]
    fn decode_never_panics_on_truncated_valid(records in proptest::collection::vec(record(), 1..100), cut in any::<prop::sample::Index>()) {
        let trace: Trace = records.iter().copied().collect();
        let bytes = encode_trace(&trace);
        let cut = cut.index(bytes.len());
        let _ = decode_trace(&bytes[..cut]); // must return, never panic
    }

    #[test]
    fn multi_segment_round_trip_is_exact(t in stitched_trace()) {
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).expect("decodes");
        // Record-exact AND boundary-exact: `Trace` equality covers both.
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.segments(), t.segments());
    }

    #[test]
    fn multi_segment_with_random_noise_round_trips(
        segs in proptest::collection::vec(proptest::collection::vec(record(), 0..120), 1..6)
    ) {
        // Arbitrary kinds/sizes/pids/modes across stitched segments.
        let mut t = Trace::new();
        for seg in &segs {
            t.stitch(seg.iter().copied().collect());
        }
        let back = decode_trace(&encode_trace(&t)).expect("decodes");
        prop_assert_eq!(&back, &t);
    }

    #[test]
    fn incremental_writer_matches_one_shot_encoder(t in stitched_trace()) {
        let mut bytes = Vec::new();
        let mut w = SegmentWriter::new(&mut bytes).expect("header");
        w.write_trace(&t).expect("write");
        let stats = w.finish().expect("flush");
        prop_assert_eq!(&bytes, &encode_trace(&t));
        prop_assert_eq!(stats.records, t.len() as u64);
        prop_assert_eq!(stats.segments, t.segments() as u64);

        // And the buffered reader streams the same records back.
        let mut rd = SegmentReader::new(&bytes[..]).expect("header");
        let mut back = Vec::new();
        while let Some((_h, recs)) = rd.next_segment().expect("segment") {
            back.extend_from_slice(recs);
        }
        prop_assert_eq!(back, t.records());
    }

    #[test]
    fn truncated_files_error_not_panic(t in stitched_trace(), cut in any::<prop::sample::Index>()) {
        let bytes = encode_trace(&t);
        if bytes.len() > 5 {
            let cut = 5 + cut.index(bytes.len() - 5);
            if cut < bytes.len() {
                // Dropping a tail can only yield an error or a trace
                // that is a strict prefix — never garbage records.
                if let Ok(partial) = decode_trace(&bytes[..cut]) {
                    prop_assert!(partial.len() <= t.len());
                    prop_assert_eq!(partial.records(), &t.records()[..partial.len()]);
                }
            }
        }
    }

    #[test]
    fn mid_segment_corruption_is_contained(t in stitched_trace(), pos in any::<prop::sample::Index>(), bits in 1u8..255) {
        let mut bytes = encode_trace(&t);
        if bytes.len() > 5 {
            let pos = 5 + pos.index(bytes.len() - 5);
            bytes[pos] ^= bits;
            // Must never panic; if it still decodes, segment boundaries
            // stay within bounds.
            if let Ok(back) = decode_trace(&bytes) {
                prop_assert!(back.segments() >= 1);
            }
        }
    }

    #[test]
    fn filtered_sources_agree_with_filtered_copies(t in stitched_trace()) {
        let want: Vec<TraceRecord> = t.user_refs().collect();
        let mut streamed = Vec::new();
        UserRefs::new(t.source()).stream(&mut |b| streamed.extend_from_slice(b)).expect("stream");
        prop_assert_eq!(&streamed, &want);
        let bytes = encode_trace(&t);
        streamed.clear();
        UserRefs::new(SegmentSliceSource::new(&bytes))
            .stream(&mut |b| streamed.extend_from_slice(b))
            .expect("stream");
        prop_assert_eq!(&streamed, &want);
    }

    #[test]
    fn stats_are_consistent(records in proptest::collection::vec(record(), 0..300)) {
        let trace: Trace = records.iter().copied().collect();
        let s = trace.stats();
        prop_assert_eq!(s.total_refs(), s.ifetch + s.reads + s.writes);
        prop_assert_eq!(s.kernel_refs + s.user_refs, s.total_refs());
        prop_assert_eq!(s.records, records.len() as u64);
        prop_assert!(s.distinct_pages >= s.distinct_data_pages);
        let by_pid: u64 = s.refs_by_pid.values().sum();
        prop_assert_eq!(by_pid, s.total_refs());
        prop_assert!(s.os_fraction() >= 0.0 && s.os_fraction() <= 1.0);
    }

    #[test]
    fn batched_iteration_matches_per_record(t in stitched_trace()) {
        // The batch path over an in-memory source yields exactly the
        // per-record view, markers and empty segments included…
        prop_assert_eq!(collect_batches(&mut t.source()), t.records().to_vec());
        // …and the user-only view batches exactly its per-record
        // iterator counterpart, over the trace and over its bytes.
        let want: Vec<TraceRecord> = t.user_refs().collect();
        prop_assert_eq!(collect_batches(&mut UserRefs::new(t.source())), want.clone());
        let bytes = encode_trace(&t);
        prop_assert_eq!(
            collect_batches(&mut UserRefs::new(SegmentSliceSource::new(&bytes))),
            want
        );
    }

    #[test]
    fn byte_file_and_decoded_sources_agree_batch_for_batch(t in stitched_trace(), case in any::<u32>()) {
        let bytes = encode_trace(&t);
        let path = std::env::temp_dir().join(format!(
            "atum-slice-prop-{}-{case}.atrace",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("write");
        let from_file = batches(&mut SegmentFileSource::new(&path));
        let _ = std::fs::remove_file(&path);
        let from_bytes = batches(&mut SegmentSliceSource::new(&bytes));
        prop_assert_eq!(&from_bytes, &decoded_batches(&bytes));
        prop_assert_eq!(&from_file, &from_bytes);
    }

    #[test]
    fn file_source_batches_match_records_across_passes(t in stitched_trace(), case in any::<u32>()) {
        let path = std::env::temp_dir().join(format!(
            "atum-batch-prop-{}-{case}.atrace",
            std::process::id()
        ));
        std::fs::write(&path, encode_trace(&t)).expect("write");
        let mut src = SegmentFileSource::new(&path);
        // Two full passes: rewind must restart the file exactly, with
        // the batch view equal to the stitched records both times.
        prop_assert_eq!(collect_batches(&mut src), t.records().to_vec());
        src.rewind().expect("rewind");
        prop_assert_eq!(collect_batches(&mut src), t.records().to_vec());
        drop(src);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn user_refs_are_a_clean_subset(records in proptest::collection::vec(record(), 0..300)) {
        let trace: Trace = records.iter().copied().collect();
        let user: Trace = trace.user_refs().collect();
        prop_assert_eq!(user.stats().kernel_refs, 0);
        prop_assert_eq!(user.ref_count() as u64, trace.stats().user_refs);
        for r in user.iter() {
            prop_assert!(r.is_ref() && !r.is_kernel());
        }
    }
}
