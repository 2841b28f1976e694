//! Property tests: the single-pass multi-configuration engine against
//! per-configuration replay ([`simulate_stream`], the one cache oracle)
//! — every [`CacheStats`](atum_cache::CacheStats) field must be
//! identical for every configuration of a random sweep over a random
//! access stream with context switches, under all switch policies and
//! including the write-through configurations that take the replay
//! fallback. Runs of repeated references put most accesses on the
//! block last touched, which exercises the stack engine's MRU
//! short-circuit.

use atum_cache::{
    simulate_many_stream, simulate_stream, CacheConfig, CacheStats, SwitchPolicy, WritePolicy,
};
use atum_core::{RecordKind, Trace, TraceRecord};
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
    /// `len` accesses starting at `addr`, each to the same longword as
    /// the one before or (bit set in `advance`) the next; bit `j` of
    /// `writes` makes access `j` a write, the rest are `kind`.
    Run {
        addr: u32,
        len: u32,
        advance: u16,
        writes: u16,
        kind: RecordKind,
        pid: u8,
    },
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        10 => (0u32..16384, 0u8..3, 0u8..4).prop_map(|(addr, k, pid)| Event::Access {
            addr,
            kind: match k {
                0 => RecordKind::IFetch,
                1 => RecordKind::Read,
                _ => RecordKind::Write,
            },
            pid,
        }),
        5 => (0u32..16384, 1u32..17, any::<u16>(), any::<u16>(), any::<bool>(), 0u8..4).prop_map(
            |(addr, len, advance, writes, fetch, pid)| Event::Run {
                addr: addr & !3,
                len,
                advance,
                writes,
                kind: if fetch { RecordKind::IFetch } else { RecordKind::Read },
                pid,
            }
        ),
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
            Event::Run {
                mut addr,
                len,
                advance,
                writes,
                kind,
                pid,
            } => {
                for j in 0..len {
                    if advance >> j & 1 != 0 {
                        addr += 4;
                    }
                    let kind = if writes >> j & 1 != 0 {
                        RecordKind::Write
                    } else {
                        kind
                    };
                    t.push(TraceRecord::new(kind, addr, 4, pid, false));
                }
            }
        }
    }
    t
}

fn switch_policy() -> impl Strategy<Value = SwitchPolicy> {
    prop_oneof![
        Just(SwitchPolicy::Ignore),
        Just(SwitchPolicy::Flush),
        Just(SwitchPolicy::PidTag),
    ]
}

/// A cache size from 256 B to 8 KiB.
fn size() -> impl Strategy<Value = u32> {
    prop_oneof![Just(256u32), Just(512), Just(1024), Just(2048), Just(8192)]
}

/// A stack-engine-eligible configuration: write-back-allocate, with
/// 8–32 B blocks or 512 B ones (a TLB's page, as F5 sweeps it). Its
/// ways are 1–8, 32, or (`None`) every block in one set: fully
/// associative, up to 1,024 ways. The wide arms give levels arrays of
/// 32 to 1,024 keys, and a group holding one often has a wide level as
/// its coarsest, which takes the MRU short-circuit like any other.
fn lru_writeback_config() -> impl Strategy<Value = CacheConfig> {
    let narrow = (
        size(),
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)].prop_map(Some),
    );
    let wide = (size(), Just(Some(32u32)));
    let full = (size(), Just(None));
    (
        prop_oneof![4 => narrow, 1 => wide, 1 => full],
        prop_oneof![Just(8u32), Just(16), Just(32), Just(512)],
        switch_policy(),
    )
        .prop_filter_map("valid config", |((size, ways), block, switch)| {
            CacheConfig::builder()
                .size(size)
                .block(block)
                .assoc(ways.unwrap_or(size / block))
                .switch_policy(switch)
                .build()
                .ok()
        })
}

/// Any configuration, including the write-through fallback.
fn any_config() -> impl Strategy<Value = CacheConfig> {
    (
        lru_writeback_config(),
        prop_oneof![
            Just(WritePolicy::WriteBackAllocate),
            Just(WritePolicy::WriteThroughNoAllocate),
        ],
    )
        .prop_filter_map("valid config", |(base, write)| {
            CacheConfig::builder()
                .size(base.size())
                .block(base.block())
                .assoc(base.assoc())
                .switch_policy(base.switch_policy())
                .write_policy(write)
                .build()
                .ok()
        })
}

fn many(trace: &Trace, cfgs: &[CacheConfig]) -> Vec<CacheStats> {
    simulate_many_stream(&mut trace.source(), cfgs).unwrap()
}

fn replay(trace: &Trace, cfg: &CacheConfig) -> CacheStats {
    simulate_stream(&mut trace.source(), cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stack_engine_matches_simulate(
        cfgs in proptest::collection::vec(lru_writeback_config(), 1..9),
        events in proptest::collection::vec(event(), 1..500),
    ) {
        let trace = trace_of(&events);
        for (cfg, got) in cfgs.iter().zip(many(&trace, &cfgs)) {
            prop_assert_eq!(got, replay(&trace, cfg), "single-pass diverges under {}", cfg);
        }
    }

    #[test]
    fn mixed_policy_sweeps_match_simulate(
        cfgs in proptest::collection::vec(any_config(), 1..9),
        events in proptest::collection::vec(event(), 1..500),
    ) {
        let trace = trace_of(&events);
        for (cfg, got) in cfgs.iter().zip(many(&trace, &cfgs)) {
            prop_assert_eq!(got, replay(&trace, cfg), "sweep member diverges under {}", cfg);
        }
    }

    #[test]
    fn inclusion_holds_within_stack_groups(
        events in proptest::collection::vec(event(), 1..500),
    ) {
        // The property the engine is built on: with LRU write-back and a
        // fixed block size, adding ways (same set count) never adds
        // misses.
        let trace = trace_of(&events);
        let cfgs: Vec<CacheConfig> = [1u32, 2, 4]
            .into_iter()
            .map(|w| {
                CacheConfig::builder()
                    .size(512 * w)
                    .block(16)
                    .assoc(w)
                    .build()
                    .unwrap()
            })
            .collect();
        let stats = many(&trace, &cfgs);
        prop_assert!(stats[1].misses <= stats[0].misses);
        prop_assert!(stats[2].misses <= stats[1].misses);
    }
}
