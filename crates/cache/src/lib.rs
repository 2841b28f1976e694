//! # atum-cache — trace-driven cache and TLB simulation
//!
//! The analysis instrument of the reproduction: ATUM's contribution was
//! the *traces*; their value was demonstrated by feeding them to memory-
//! system simulators like these. This crate provides a set-associative
//! cache model and a TLB model, both driven directly by
//! [`atum_core::Trace`] records, with the context-switch policies the
//! paper's multiprogramming studies turn on:
//!
//! * [`SwitchPolicy::Ignore`] — pretend a single address space (what
//!   naive one-process trace studies implicitly did);
//! * [`SwitchPolicy::Flush`] — purge on every context switch (a cache
//!   with no PID tags);
//! * [`SwitchPolicy::PidTag`] — lines carry a process id and hit only on
//!   a match (an address-space-tagged cache).
//!
//! ## Example
//!
//! ```
//! use atum_cache::{CacheConfig, simulate};
//! use atum_core::{RecordKind, Trace, TraceRecord};
//!
//! let mut trace = Trace::new();
//! for i in 0..64 {
//!     trace.push(TraceRecord::new(RecordKind::Read, i * 4, 4, 1, false));
//! }
//! let cfg = CacheConfig::builder().size(1024).block(16).assoc(2).build().unwrap();
//! let stats = simulate(&trace, &cfg);
//! // 64 sequential reads over 16-byte blocks: one miss per block.
//! assert_eq!(stats.accesses, 64);
//! assert_eq!(stats.misses, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod multi;
mod set_assoc;
mod sim;
mod split;
mod stats;
mod tlb;

pub use config::{
    CacheConfig, CacheConfigBuilder, ConfigError, Replacement, SwitchPolicy, WritePolicy,
};
#[cfg(feature = "oracle")]
pub use multi::simulate_many_oracle;
pub use multi::{simulate_many, simulate_many_stream, stackable, MultiSim};
pub use set_assoc::{AccessKind, Cache};
pub use sim::{
    simulate, simulate_stream, simulate_tlb, simulate_tlb_stream, sweep_assoc, sweep_block,
    sweep_size,
};
pub use split::{simulate_split, SplitStats};
pub use stats::CacheStats;
pub use tlb::{TlbConfig, TlbSim};
