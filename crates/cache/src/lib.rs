//! # atum-cache — trace-driven cache and TLB simulation
//!
//! The analysis instrument of the reproduction: ATUM's contribution was
//! the *traces*; their value was demonstrated by feeding them to memory-
//! system simulators like these. This crate provides a set-associative
//! LRU cache model — a TLB is the same model over page-sized blocks
//! ([`TlbConfig::cache_config`]) — driven by any
//! [`atum_core::TraceSource`] (an in-memory [`atum_core::Trace`] through
//! its `source()`, or an on-disk segment file), with the context-switch
//! policies the paper's multiprogramming studies turn on:
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
//! use atum_cache::{CacheConfig, simulate_stream};
//! use atum_core::{RecordKind, Trace, TraceRecord};
//!
//! let mut trace = Trace::new();
//! for i in 0..64 {
//!     trace.push(TraceRecord::new(RecordKind::Read, i * 4, 4, 1, false));
//! }
//! let cfg = CacheConfig::builder().size(1024).block(16).assoc(2).build().unwrap();
//! let stats = simulate_stream(&mut trace.source(), &cfg).unwrap();
//! // 64 sequential reads over 16-byte blocks: one miss per block.
//! assert_eq!(stats.accesses, 64);
//! assert_eq!(stats.misses, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod config;
mod multi;
mod set_assoc;
mod sim;
mod split;
mod stats;
mod tlb;

pub use config::{CacheConfig, CacheConfigBuilder, ConfigError, SwitchPolicy, WritePolicy};
pub use multi::{simulate_many_stream, stackable};
pub use set_assoc::{AccessKind, Cache};
pub use sim::{simulate_stream, simulate_tlb_stream};
pub use split::{simulate_split, SplitStats};
pub use stats::CacheStats;
pub use tlb::TlbConfig;
