//! Driving caches and TLBs from ATUM traces.

use crate::config::CacheConfig;
use crate::set_assoc::{AccessKind, Cache};
use crate::stats::CacheStats;
use crate::tlb::TlbConfig;
use atum_core::{RecordKind, TraceRecord, TraceSource, TraceStreamError};

pub(crate) fn record_kind_to_access(kind: RecordKind) -> Option<AccessKind> {
    match kind {
        RecordKind::IFetch => Some(AccessKind::IFetch),
        RecordKind::Read => Some(AccessKind::Read),
        RecordKind::Write => Some(AccessKind::Write),
        _ => None,
    }
}

impl Cache {
    /// Applies one trace record, as [`simulate_stream`] does to each: a
    /// context-switch marker switches, an I/D reference accesses, and
    /// any other marker does nothing.
    pub fn step(&mut self, r: &TraceRecord) {
        match r.kind() {
            RecordKind::CtxSwitch => self.context_switch(r.pid()),
            kind => {
                if let Some(access) = record_kind_to_access(kind) {
                    self.access(r.addr, access, r.pid());
                }
            }
        }
    }
}

/// Runs any [`TraceSource`] through one cache configuration: the
/// per-configuration replay that [`crate::multi::simulate_many_stream`]
/// must match, and the one cache oracle. An in-memory trace passes
/// [`Trace::source`](atum_core::Trace::source); an on-disk segment file
/// streams through at O(segment) memory.
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_stream<S: TraceSource>(
    source: &mut S,
    cfg: &CacheConfig,
) -> Result<CacheStats, TraceStreamError> {
    let mut cache = Cache::new(*cfg);
    source.stream(&mut |batch| {
        for r in batch {
            cache.step(r);
        }
    })?;
    Ok(*cache.stats())
}

/// Runs any [`TraceSource`] through a TLB configuration: its
/// [`TlbConfig::cache_config`] through [`simulate_stream`], so the
/// statistics are those of a cache of page-sized blocks (accesses by
/// kind and write-backs included).
///
/// # Errors
///
/// Any [`TraceStreamError`] from the source.
pub fn simulate_tlb_stream<S: TraceSource>(
    source: &mut S,
    cfg: &TlbConfig,
) -> Result<CacheStats, TraceStreamError> {
    simulate_stream(source, &cfg.cache_config())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchPolicy;
    use atum_core::{Trace, TraceRecord};

    fn replay(t: &Trace, cfg: &CacheConfig) -> CacheStats {
        simulate_stream(&mut t.source(), cfg).unwrap()
    }

    fn looped_trace(blocks: u32, reps: u32) -> Trace {
        let mut t = Trace::new();
        for _ in 0..reps {
            for b in 0..blocks {
                t.push(TraceRecord::new(RecordKind::Read, b * 16, 4, 1, false));
            }
        }
        t
    }

    #[test]
    fn miss_rate_drops_when_working_set_fits() {
        let trace = looped_trace(256, 10); // 4 KiB working set
        let base = CacheConfig::builder().block(16).build().unwrap();
        let small = replay(&trace, &base.with_size(1024)).miss_rate();
        let large = replay(&trace, &base.with_size(8192)).miss_rate();
        assert!(small > 0.9, "thrashing at 1 KiB: {small}");
        assert!(large < 0.15, "fits at 8 KiB: {large}");
    }

    #[test]
    fn bigger_blocks_help_sequential_streams() {
        let mut t = Trace::new();
        for a in 0..4096u32 {
            t.push(TraceRecord::new(RecordKind::Read, a, 1, 1, false));
        }
        let base = CacheConfig::builder().size(8192).build().unwrap();
        let small = replay(&t, &base.with_block(8)).miss_rate();
        let big = replay(&t, &base.with_block(128)).miss_rate();
        assert!(big < small / 4.0, "spatial locality: {small} vs {big}");
    }

    #[test]
    fn associativity_fixes_conflicts() {
        let mut t = Trace::new();
        for _ in 0..100 {
            t.push(TraceRecord::new(RecordKind::Read, 0, 4, 1, false));
            t.push(TraceRecord::new(RecordKind::Read, 4096, 4, 1, false));
        }
        let base = CacheConfig::builder().size(4096).block(16).build().unwrap();
        assert!(replay(&t, &base).miss_rate() > 0.9);
        assert!(replay(&t, &base.with_assoc(2)).miss_rate() < 0.05);
    }

    #[test]
    fn flush_hurts_multiprogrammed_trace() {
        // Two processes alternating over the same small footprint.
        let mut t = Trace::new();
        for round in 0..50 {
            let pid = (round % 2 + 1) as u8;
            t.push(TraceRecord::new(RecordKind::CtxSwitch, 0, 0, pid, true));
            for b in 0..32u32 {
                t.push(TraceRecord::new(RecordKind::Read, b * 16, 4, pid, false));
            }
        }
        // Two ways so the two pids' identical VAs can coexist per set.
        let base = CacheConfig::builder()
            .size(8192)
            .block(16)
            .assoc(2)
            .build()
            .unwrap();
        let ignore = replay(&t, &base);
        let flush = replay(&t, &base.with_switch(SwitchPolicy::Flush));
        let tagged = replay(&t, &base.with_switch(SwitchPolicy::PidTag));
        assert!(flush.miss_rate() > 0.9, "every switch restarts cold");
        assert!(tagged.miss_rate() < 0.1, "tags keep both footprints");
        // Ignore aliases the two pids onto the same lines: also low here
        // because the footprints are identical VAs.
        assert!(ignore.miss_rate() < 0.1);
        assert_eq!(flush.context_switches, 50);
    }

    #[test]
    fn tlb_simulation_runs() {
        let mut t = Trace::new();
        for p in 0..64u32 {
            t.push(TraceRecord::new(RecordKind::Read, p * 512, 4, 1, false));
        }
        let cfg = TlbConfig::new(32, 2, SwitchPolicy::Flush);
        let s = simulate_tlb_stream(&mut t.source(), &cfg).unwrap();
        assert_eq!(s.accesses, 64);
        assert_eq!(s.misses, 64, "64 distinct pages through a 32-entry TLB");
    }
}
