//! Trace-driven TLB simulation.
//!
//! A TLB is modelled as a set-associative cache of page translations:
//! "block size" = the 512-byte page, capacity = entries. The paper's TLB
//! questions are the same as its cache questions — how much do OS
//! references and context switches (flush vs address-space tags) cost —
//! so the same machinery applies: a [`TlbConfig`] is the page-block
//! [`CacheConfig`] it describes, and every cache engine runs it.

use crate::config::{CacheConfig, SwitchPolicy};
use atum_arch::PAGE_SIZE;
use std::fmt;

/// TLB configuration: entry count, associativity, switch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    cache: CacheConfig,
}

impl TlbConfig {
    /// Creates a TLB configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries`/`assoc` are not powers of two or inconsistent,
    /// or if `entries` pages overflow the 32-bit address space.
    pub fn new(entries: u32, assoc: u32, switch: SwitchPolicy) -> TlbConfig {
        assert!(
            entries <= u32::MAX / PAGE_SIZE,
            "{entries} TLB entries of {PAGE_SIZE} B pages exceed the 32-bit address space"
        );
        let cache = CacheConfig::builder()
            .size(entries * PAGE_SIZE)
            .block(PAGE_SIZE)
            .assoc(assoc)
            .switch_policy(switch)
            .build()
            .expect("TLB entries and ways are powers of two, ways <= entries");
        TlbConfig { cache }
    }

    /// The cache of page-sized blocks this TLB is.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache
    }
}

impl fmt::Display for TlbConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.cache;
        write!(
            f,
            "{}-entry {}-way TLB ({:?})",
            c.size() / c.block(),
            c.assoc(),
            c.switch_policy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_assoc::{AccessKind, Cache};

    fn tlb(entries: u32, assoc: u32, switch: SwitchPolicy) -> Cache {
        Cache::new(TlbConfig::new(entries, assoc, switch).cache_config())
    }

    #[test]
    fn page_granularity() {
        let mut tlb = tlb(16, 1, SwitchPolicy::Ignore);
        assert!(!tlb.access(0x0000, AccessKind::Read, 0));
        assert!(tlb.access(0x01FF, AccessKind::Read, 0), "same page");
        assert!(!tlb.access(0x0200, AccessKind::Read, 0), "next page");
    }

    #[test]
    fn flush_vs_tagged() {
        let mut flush = tlb(64, 2, SwitchPolicy::Flush);
        let mut tagged = tlb(64, 2, SwitchPolicy::PidTag);
        for t in [&mut flush, &mut tagged] {
            t.access(0x1000, AccessKind::Read, 1);
            t.context_switch(2);
            t.access(0x9000, AccessKind::Read, 2);
            t.context_switch(1);
        }
        assert!(
            !flush.access(0x1000, AccessKind::Read, 1),
            "flushed TLB re-misses"
        );
        assert!(
            tagged.access(0x1000, AccessKind::Read, 1),
            "tagged TLB survives switches"
        );
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
