//! Property tests: the set-associative cache against a deliberately
//! naive reference model (association lists, no clever indexing), plus
//! structural invariants on random access streams.

use atum_cache::{AccessKind, Cache, CacheConfig, SwitchPolicy};
use proptest::prelude::*;
use std::collections::HashSet;

/// A naive set-associative LRU cache: one Vec per set, most recent first.
struct RefModel {
    sets: Vec<Vec<(u32, u8)>>, // (tag, pid), MRU at the front
    block: u32,
    ways: usize,
    switch: SwitchPolicy,
}

impl RefModel {
    fn new(cfg: &CacheConfig) -> RefModel {
        RefModel {
            sets: vec![Vec::new(); cfg.sets() as usize],
            block: cfg.block(),
            ways: cfg.assoc() as usize,
            switch: cfg.switch_policy(),
        }
    }

    fn context_switch(&mut self) {
        if self.switch == SwitchPolicy::Flush {
            for s in &mut self.sets {
                s.clear();
            }
        }
    }

    fn access(&mut self, addr: u32, pid: u8) -> bool {
        let pid = if self.switch == SwitchPolicy::PidTag {
            pid
        } else {
            0
        };
        let blockno = addr / self.block;
        let nsets = self.sets.len() as u32;
        let set = &mut self.sets[(blockno % nsets) as usize];
        let tag = blockno / nsets;
        if let Some(pos) = set.iter().position(|&(t, p)| t == tag && p == pid) {
            let entry = set.remove(pos);
            set.insert(0, entry);
            true
        } else {
            set.insert(0, (tag, pid));
            set.truncate(self.ways);
            false
        }
    }
}

#[derive(Debug, Clone)]
enum Event {
    Access { addr: u32, write: bool, pid: u8 },
    Switch { pid: u8 },
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        8 => (0u32..4096, any::<bool>(), 0u8..3).prop_map(|(addr, write, pid)| Event::Access {
            addr,
            write,
            pid
        }),
        1 => (0u8..3).prop_map(|pid| Event::Switch { pid }),
    ]
}

fn configs() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(256u32), Just(512), Just(1024)],
        prop_oneof![Just(8u32), Just(16), Just(32)],
        prop_oneof![Just(1u32), Just(2), Just(4)],
        prop_oneof![
            Just(SwitchPolicy::Ignore),
            Just(SwitchPolicy::Flush),
            Just(SwitchPolicy::PidTag)
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_matches_reference_model(
        cfg in configs(),
        events in proptest::collection::vec(event(), 1..400),
    ) {
        let mut cache = Cache::new(cfg);
        let mut model = RefModel::new(&cfg);
        for (i, e) in events.iter().enumerate() {
            match *e {
                Event::Switch { pid } => {
                    cache.context_switch(pid);
                    model.context_switch();
                }
                Event::Access { addr, write, pid } => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    let hit = cache.access(addr, kind, pid);
                    let model_hit = model.access(addr, pid);
                    prop_assert_eq!(
                        hit, model_hit,
                        "event {} ({:?}) disagrees under {}",
                        i, e, cfg
                    );
                }
            }
        }
    }

    #[test]
    fn structural_invariants(
        cfg in configs(),
        events in proptest::collection::vec(event(), 1..400),
    ) {
        let mut cache = Cache::new(cfg);
        let mut distinct = HashSet::new();
        let mut accesses = 0u64;
        for e in &events {
            match *e {
                Event::Switch { pid } => cache.context_switch(pid),
                Event::Access { addr, write, pid } => {
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    cache.access(addr, kind, pid);
                    accesses += 1;
                    let pid_key = if cfg.switch_policy() == SwitchPolicy::PidTag { pid } else { 0 };
                    distinct.insert((addr / cfg.block(), pid_key));
                }
            }
        }
        let s = cache.stats();
        prop_assert_eq!(s.accesses, accesses);
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!(s.cold_misses <= s.misses);
        prop_assert_eq!(s.cold_misses, distinct.len() as u64, "one cold miss per distinct block");
        prop_assert_eq!(
            s.ifetch_misses + s.read_misses + s.write_misses,
            s.misses
        );
        prop_assert!(s.writebacks <= s.write_accesses, "write-backs need dirty lines");
    }

    #[test]
    fn bigger_caches_never_miss_more_with_full_assoc_lru(
        addrs in proptest::collection::vec(0u32..2048, 1..300),
    ) {
        // Inclusion property: fully-associative LRU caches are stack
        // algorithms — a larger one cannot miss more.
        let small = CacheConfig::builder().size(256).block(16).assoc(16).build().unwrap();
        let large = CacheConfig::builder().size(512).block(16).assoc(32).build().unwrap();
        let mut cs = Cache::new(small);
        let mut cl = Cache::new(large);
        for &a in &addrs {
            cs.access(a, AccessKind::Read, 0);
            cl.access(a, AccessKind::Read, 0);
        }
        prop_assert!(cl.stats().misses <= cs.stats().misses);
    }
}
