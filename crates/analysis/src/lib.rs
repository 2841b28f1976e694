//! # atum-analysis — the reproduced evaluation
//!
//! Experiment runners that regenerate every table and figure of the
//! reconstructed ATUM evaluation (see `DESIGN.md` for the index and the
//! mapping to the paper). Each experiment captures traces on the
//! microcoded machine, drives the cache/TLB simulators, and renders a
//! [`Report`] — an aligned text table plus CSV — that the `atum-bench`
//! `experiments` binary prints and `EXPERIMENTS.md` records.
//!
//! ```no_run
//! use atum_analysis::{experiments, Scale};
//!
//! let report = experiments::t1_technique_comparison(Scale::Quick).unwrap();
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod experiments;
pub mod parallel;
mod runner;
mod table;
pub mod working_set;

pub use parallel::{parallel_map, set_jobs};
pub use runner::{capture_mix, run_untraced, CapturedRun, RunnerError};
pub use table::{Report, Table};
pub use working_set::{working_set_curve_stream, working_set_stream, WorkingSet};

/// Experiment scale: `Quick` for tests/smoke, `Full` for the recorded
/// evaluation numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small instances; seconds even in debug builds.
    Quick,
    /// The instances recorded in EXPERIMENTS.md; run in release builds.
    Full,
}
