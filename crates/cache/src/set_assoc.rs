//! The set-associative cache engine.

use crate::config::{CacheConfig, Replacement, SwitchPolicy, WritePolicy};
use crate::stats::CacheStats;
use std::collections::HashSet;

/// How an access touches the cache. The discriminants (`IFetch` = 0,
/// `Read` = 1, `Write` = 2) index per-kind counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch.
    IFetch,
    /// Data read.
    Read,
    /// Data write.
    Write,
}

impl AccessKind {
    /// Whether this is a write.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    tag: u32,
    pid: u8,
    dirty: bool,
    stamp: u64,
}

/// A set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    rng: u32,
    fifo_ptr: Vec<u32>,
    seen_blocks: HashSet<u64>,
    current_pid: u8,
    /// `log2(block)`, `sets - 1` and `log2(sets)`: every size in a
    /// validated [`CacheConfig`] is a power of two, so indexing is a
    /// shift and a mask.
    block_shift: u32,
    set_mask: u32,
    set_shift: u32,
}

impl Cache {
    /// Creates an empty cache for a configuration.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        Cache {
            lines: vec![Line::default(); (sets * cfg.assoc()) as usize],
            fifo_ptr: vec![0; sets as usize],
            cfg,
            stats: CacheStats::default(),
            tick: 0,
            rng: 0x2545_F491,
            seen_blocks: HashSet::new(),
            current_pid: 0,
            block_shift: cfg.block().trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Informs the cache of a context switch to `pid`.
    pub fn context_switch(&mut self, pid: u8) {
        self.stats.context_switches += 1;
        match self.cfg.switch_policy() {
            SwitchPolicy::Ignore => {}
            SwitchPolicy::Flush => {
                for line in &mut self.lines {
                    if line.valid {
                        if line.dirty {
                            self.stats.writebacks += 1;
                        }
                        line.valid = false;
                        self.stats.flush_invalidations += 1;
                    }
                }
            }
            SwitchPolicy::PidTag => {}
        }
        self.current_pid = pid;
    }

    /// Performs one access. Returns whether it hit.
    pub fn access(&mut self, addr: u32, kind: AccessKind, pid: u8) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        match kind {
            AccessKind::IFetch => self.stats.ifetch_accesses += 1,
            AccessKind::Read => self.stats.read_accesses += 1,
            AccessKind::Write => self.stats.write_accesses += 1,
        }

        let pid = match self.cfg.switch_policy() {
            SwitchPolicy::PidTag => pid,
            _ => 0,
        };
        let block_addr = addr >> self.block_shift;
        let set = (block_addr & self.set_mask) as usize;
        let tag = block_addr >> self.set_shift;
        let ways = self.cfg.assoc() as usize;
        let base = set * ways;

        // Lookup.
        for i in 0..ways {
            let line = &mut self.lines[base + i];
            if line.valid && line.tag == tag && line.pid == pid {
                line.stamp = self.tick;
                if kind.is_write() {
                    match self.cfg.write_policy() {
                        WritePolicy::WriteBackAllocate => line.dirty = true,
                        WritePolicy::WriteThroughNoAllocate => {
                            self.stats.write_throughs += 1;
                        }
                    }
                }
                self.stats.hits += 1;
                return true;
            }
        }

        // Miss.
        self.stats.misses += 1;
        match kind {
            AccessKind::IFetch => self.stats.ifetch_misses += 1,
            AccessKind::Read => self.stats.read_misses += 1,
            AccessKind::Write => self.stats.write_misses += 1,
        }
        let global_key = ((pid as u64) << 32) | block_addr as u64;
        if self.seen_blocks.insert(global_key) {
            self.stats.cold_misses += 1;
        }

        if kind.is_write() && self.cfg.write_policy() == WritePolicy::WriteThroughNoAllocate {
            self.stats.write_throughs += 1;
            return false; // no allocation
        }

        // Choose a victim.
        let victim = self.pick_victim(base, ways, set);
        let line = &mut self.lines[base + victim];
        if line.valid && line.dirty {
            self.stats.writebacks += 1;
        }
        *line = Line {
            valid: true,
            tag,
            pid,
            dirty: kind.is_write() && self.cfg.write_policy() == WritePolicy::WriteBackAllocate,
            stamp: self.tick,
        };
        false
    }

    fn pick_victim(&mut self, base: usize, ways: usize, set: usize) -> usize {
        // Prefer an invalid way.
        for i in 0..ways {
            if !self.lines[base + i].valid {
                return i;
            }
        }
        match self.cfg.replacement() {
            Replacement::Lru => {
                let mut best = 0;
                let mut best_stamp = u64::MAX;
                for i in 0..ways {
                    let s = self.lines[base + i].stamp;
                    if s < best_stamp {
                        best_stamp = s;
                        best = i;
                    }
                }
                best
            }
            Replacement::Fifo => {
                let v = self.fifo_ptr[set] as usize % ways;
                self.fifo_ptr[set] = self.fifo_ptr[set].wrapping_add(1);
                v
            }
            Replacement::Random => {
                // xorshift32
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                self.rng = x;
                (x as usize) % ways
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, Replacement, SwitchPolicy, WritePolicy};

    fn cache(size: u32, block: u32, assoc: u32) -> Cache {
        Cache::new(
            CacheConfig::builder()
                .size(size)
                .block(block)
                .assoc(assoc)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn sequential_misses_once_per_block() {
        let mut c = cache(1024, 16, 1);
        for a in 0..256u32 {
            c.access(a, AccessKind::Read, 0);
        }
        assert_eq!(c.stats().accesses, 256);
        assert_eq!(c.stats().misses, 16);
        assert_eq!(c.stats().cold_misses, 16);
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = cache(1024, 16, 1);
        assert!(!c.access(0x100, AccessKind::Read, 0));
        assert!(c.access(0x100, AccessKind::Read, 0));
        assert!(c.access(0x10F, AccessKind::Read, 0), "same block");
        assert!(!c.access(0x110, AccessKind::Read, 0), "next block");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = cache(1024, 16, 1);
        // Two addresses 1024 apart map to the same set with distinct tags.
        for _ in 0..4 {
            c.access(0x0, AccessKind::Read, 0);
            c.access(0x400, AccessKind::Read, 0);
        }
        assert_eq!(c.stats().misses, 8, "ping-pong conflicts");
        // Two-way associativity absorbs the conflict.
        let mut c = cache(1024, 16, 2);
        for _ in 0..4 {
            c.access(0x0, AccessKind::Read, 0);
            c.access(0x400, AccessKind::Read, 0);
        }
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(64, 16, 4); // one set, 4 ways
        for a in [0u32, 16, 32, 48] {
            c.access(a, AccessKind::Read, 0);
        }
        c.access(0, AccessKind::Read, 0); // refresh block 0
        c.access(64, AccessKind::Read, 0); // evicts block at 16
        assert!(c.access(0, AccessKind::Read, 0), "block 0 survived");
        assert!(!c.access(16, AccessKind::Read, 0), "block 16 evicted");
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = Cache::new(
            CacheConfig::builder()
                .size(64)
                .block(16)
                .assoc(4)
                .replacement(Replacement::Fifo)
                .build()
                .unwrap(),
        );
        for a in [0u32, 16, 32, 48] {
            c.access(a, AccessKind::Read, 0);
        }
        c.access(0, AccessKind::Read, 0); // hit; FIFO order unchanged
        c.access(64, AccessKind::Read, 0); // evicts block 0 (first in)
        assert!(!c.access(0, AccessKind::Read, 0), "FIFO evicted block 0");
    }

    #[test]
    fn write_back_generates_writebacks_on_eviction() {
        let mut c = cache(64, 16, 1); // 4 sets
        c.access(0, AccessKind::Write, 0);
        assert_eq!(c.stats().writebacks, 0);
        c.access(64, AccessKind::Read, 0); // evicts dirty block 0
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_does_not_allocate() {
        let mut c = Cache::new(
            CacheConfig::builder()
                .size(1024)
                .block(16)
                .write_policy(WritePolicy::WriteThroughNoAllocate)
                .build()
                .unwrap(),
        );
        c.access(0x200, AccessKind::Write, 0);
        assert!(
            !c.access(0x200, AccessKind::Read, 0),
            "write did not allocate"
        );
        assert_eq!(c.stats().write_throughs, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn flush_policy_purges_on_switch() {
        let mut c = Cache::new(
            CacheConfig::builder()
                .size(1024)
                .block(16)
                .switch_policy(SwitchPolicy::Flush)
                .build()
                .unwrap(),
        );
        c.access(0x100, AccessKind::Read, 1);
        assert!(c.access(0x100, AccessKind::Read, 1));
        c.context_switch(2);
        assert!(!c.access(0x100, AccessKind::Read, 2), "flushed");
        assert!(c.stats().flush_invalidations >= 1);
    }

    #[test]
    fn pid_tags_separate_address_spaces() {
        let mut c = Cache::new(
            CacheConfig::builder()
                .size(1024)
                .block(16)
                .assoc(2)
                .switch_policy(SwitchPolicy::PidTag)
                .build()
                .unwrap(),
        );
        c.access(0x100, AccessKind::Read, 1);
        assert!(
            !c.access(0x100, AccessKind::Read, 2),
            "same VA, different pid must miss"
        );
        assert!(c.access(0x100, AccessKind::Read, 1), "pid 1 still hits");
        // No flush invalidations under PidTag.
        c.context_switch(2);
        assert_eq!(c.stats().flush_invalidations, 0);
    }

    #[test]
    fn ignore_policy_aliases_address_spaces() {
        let mut c = cache(1024, 16, 1);
        c.access(0x100, AccessKind::Read, 1);
        assert!(
            c.access(0x100, AccessKind::Read, 2),
            "Ignore policy treats pids as one space"
        );
    }

    #[test]
    fn working_set_that_fits_stops_missing() {
        let mut c = cache(4096, 16, 2);
        let addrs: Vec<u32> = (0..128).map(|i| i * 16).collect(); // 2 KiB set
        for &a in &addrs {
            c.access(a, AccessKind::Read, 0);
        }
        let warm_misses = c.stats().misses;
        for _ in 0..10 {
            for &a in &addrs {
                c.access(a, AccessKind::Read, 0);
            }
        }
        assert_eq!(c.stats().misses, warm_misses, "fully warm working set");
    }
}
