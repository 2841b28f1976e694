//! Property suite: a sweep streamed from an on-disk segment file against
//! the same sweep over the in-memory source.
//!
//! `simulate_many_stream` over a `SegmentFileSource` decodes the file
//! one segment at a time and drives the stack-distance engine from it;
//! the statistics must be identical to the same call over the records
//! held in memory (`Trace::source`).

use atum_cache::{simulate_many_stream, CacheConfig, SwitchPolicy};
use atum_core::{encode_trace, RecordKind, SegmentFileSource, Trace, TraceRecord};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Event {
    Access {
        addr: u32,
        kind: RecordKind,
        pid: u8,
    },
    Switch {
        pid: u8,
    },
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        12 => (0u32..16384, 0u8..3, 0u8..4).prop_map(|(addr, k, pid)| Event::Access {
            addr,
            kind: match k {
                0 => RecordKind::IFetch,
                1 => RecordKind::Read,
                _ => RecordKind::Write,
            },
            pid,
        }),
        1 => (0u8..4).prop_map(|pid| Event::Switch { pid }),
    ]
}

fn trace_of(events: &[Event]) -> Trace {
    let mut t = Trace::new();
    for e in events {
        match *e {
            Event::Access { addr, kind, pid } => {
                t.push(TraceRecord::new(kind, addr, 4, pid, false));
            }
            Event::Switch { pid } => {
                t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            }
        }
    }
    t
}

fn sweep_config() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(256u32), Just(512), Just(1024), Just(4096)],
        prop_oneof![Just(8u32), Just(16), Just(32)],
        prop_oneof![Just(1u32), Just(2), Just(4)],
        prop_oneof![
            Just(SwitchPolicy::Ignore),
            Just(SwitchPolicy::Flush),
            Just(SwitchPolicy::PidTag),
        ],
    )
        .prop_filter_map("valid config", |(size, block, assoc, switch)| {
            CacheConfig::builder()
                .size(size)
                .block(block)
                .assoc(assoc)
                .switch_policy(switch)
                .build()
                .ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn file_stream_matches_in_memory(
        cfgs in proptest::collection::vec(sweep_config(), 1..8),
        events in proptest::collection::vec(event(), 1..500),
        case in any::<u32>(),
    ) {
        let trace = trace_of(&events);
        let want = simulate_many_stream(&mut trace.source(), &cfgs).unwrap();

        let path = std::env::temp_dir().join(format!(
            "atum-stream-prop-{}-{case}.atrace",
            std::process::id()
        ));
        std::fs::write(&path, encode_trace(&trace)).expect("write");
        let got = simulate_many_stream(&mut SegmentFileSource::new(&path), &cfgs);
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(&got.unwrap(), &want);
    }
}
