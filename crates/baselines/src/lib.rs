//! # atum-baselines — the tracing techniques ATUM was compared against
//!
//! Two comparators reproduce the paper's technique-comparison table:
//!
//! * [`ArchSim`] — a pure architectural (instruction-level) simulator of
//!   SVX, the "simulate the machine and write down the addresses"
//!   approach. It sees only a single user program: no OS, no interrupts,
//!   no other processes — exactly the blind spot the paper calls out. It
//!   doubles as an independent *oracle* for the microcoded machine:
//!   random programs must produce identical architectural state on both.
//! * [`TbitTracer`] — trap-driven software tracing: every user
//!   instruction takes a T-bit trace trap into a MOSS kernel handler that
//!   logs the PC. Measured on the same microcoded machine, it yields the
//!   software-tracing slowdown ATUM is compared against (and it captures
//!   PCs only — no operand addresses, no OS references).
//!
//! The third comparator, the ATUM patch itself (in both register-scratch
//! and state-spilling styles), lives in `atum-core`; `atum-analysis`
//! assembles the comparison table from all of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archsim;
mod tbit;

pub use archsim::{ArchExit, ArchSim, SimFault};
pub use tbit::{TbitError, TbitResult, TbitTracer, TrappedRun};
