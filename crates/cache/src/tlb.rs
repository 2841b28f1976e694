//! Trace-driven TLB simulation.
//!
//! A TLB is modelled as a set-associative cache of page translations:
//! "block size" = the 512-byte page, capacity = entries. The paper's TLB
//! questions are the same as its cache questions — how much do OS
//! references and context switches (flush vs address-space tags) cost —
//! so the same machinery applies.

use crate::config::{CacheConfig, Replacement, SwitchPolicy};
use crate::set_assoc::{AccessKind, Cache};
use crate::stats::CacheStats;
use atum_arch::PAGE_SIZE;
use std::fmt;

/// TLB configuration: entry count, associativity, switch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    entries: u32,
    assoc: u32,
    switch: SwitchPolicy,
}

impl TlbConfig {
    /// Creates a TLB configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries`/`assoc` are not powers of two or inconsistent,
    /// or if `entries` pages overflow the 32-bit address space.
    pub fn new(entries: u32, assoc: u32, switch: SwitchPolicy) -> TlbConfig {
        let pow2 = |v: u32| v != 0 && v & (v - 1) == 0;
        assert!(pow2(entries) && pow2(assoc) && assoc <= entries);
        assert!(
            entries <= u32::MAX / PAGE_SIZE,
            "{entries} TLB entries of {PAGE_SIZE} B pages exceed the 32-bit address space"
        );
        TlbConfig {
            entries,
            assoc,
            switch,
        }
    }

    /// Number of entries.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Associativity.
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Switch policy.
    pub fn switch_policy(&self) -> SwitchPolicy {
        self.switch
    }

    /// Returns a copy with a different switch policy.
    pub fn with_switch(mut self, s: SwitchPolicy) -> TlbConfig {
        self.switch = s;
        self
    }

    fn as_cache_config(&self) -> CacheConfig {
        CacheConfig::builder()
            .size(self.entries * PAGE_SIZE)
            .block(PAGE_SIZE)
            .assoc(self.assoc)
            .replacement(Replacement::Lru)
            .switch_policy(self.switch)
            .build()
            .expect("validated in new()")
    }
}

impl fmt::Display for TlbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-entry {}-way TLB ({:?})",
            self.entries, self.assoc, self.switch
        )
    }
}

/// A TLB simulator.
#[derive(Debug, Clone)]
pub struct TlbSim {
    inner: Cache,
}

impl TlbSim {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> TlbSim {
        TlbSim {
            inner: Cache::new(cfg.as_cache_config()),
        }
    }

    /// Looks up the page containing `addr`. Returns whether it hit.
    pub fn access(&mut self, addr: u32, pid: u8) -> bool {
        self.inner.access(addr, AccessKind::Read, pid)
    }

    /// Observes a context switch.
    pub fn context_switch(&mut self, pid: u8) {
        self.inner.context_switch(pid);
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity() {
        let mut tlb = TlbSim::new(TlbConfig::new(16, 1, SwitchPolicy::Ignore));
        assert!(!tlb.access(0x0000, 0));
        assert!(tlb.access(0x01FF, 0), "same page");
        assert!(!tlb.access(0x0200, 0), "next page");
    }

    #[test]
    fn flush_vs_tagged() {
        let mut flush = TlbSim::new(TlbConfig::new(64, 2, SwitchPolicy::Flush));
        let mut tagged = TlbSim::new(TlbConfig::new(64, 2, SwitchPolicy::PidTag));
        for t in [&mut flush, &mut tagged] {
            t.access(0x1000, 1);
            t.context_switch(2);
            t.access(0x9000, 2);
            t.context_switch(1);
        }
        assert!(!flush.access(0x1000, 1), "flushed TLB re-misses");
        assert!(tagged.access(0x1000, 1), "tagged TLB survives switches");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_entry_count() {
        TlbConfig::new(48, 2, SwitchPolicy::Ignore);
    }

    #[test]
    #[should_panic(expected = "exceed the 32-bit address space")]
    fn rejects_entry_count_past_the_address_space() {
        TlbConfig::new(1 << 23, 2, SwitchPolicy::Flush);
    }
}
