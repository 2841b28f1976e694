//! `atum-conc`: a deterministic concurrency model checker for the ATUM
//! analysis pipelines.
//!
//! The experiment pool (`parallel_map` in `atum-analysis`) is a
//! hand-rolled Mutex/atomic protocol — exactly the kind of code where a
//! missing happens-before edge hides for years because the OS scheduler
//! never produces the bad interleaving. This crate makes the scheduler
//! adversarial and exhaustive instead:
//!
//! - [`sync`] and [`thread`] export drop-in replacements for the `std`
//!   types the pipelines use. In normal builds they are **zero-cost
//!   re-exports of `std`** — no wrapper types, no indirection, byte-for-
//!   byte the same pipeline binaries. Under `--cfg atum_model` they
//!   become instrumented types that hand every visible operation (lock,
//!   wait, notify, atomic access, spawn, join) to a cooperative
//!   scheduler.
//! - [`model::Builder::check`] runs a closure under every distinct
//!   thread interleaving a preemption bound allows — stateless DFS with
//!   replayed decision prefixes, serialized on a baton so execution is
//!   deterministic — plus two condvar adversaries: forced spurious
//!   wakeups and (opt-in) lost `notify_one` delivery.
//! - A FastTrack-style vector-clock detector reports data races (two
//!   accesses unordered by happens-before, one a write), and a global
//!   blocked-state check reports deadlocks with the wait cycle; either
//!   failure panics with a schedule trace naming the access points.
//! - [`cell::ModelCell`] models a bare shared memory location for
//!   negative tests and protocol-state race checking.
//!
//! What this proves and what it cannot is written up in `DESIGN.md`
//! §14; the short version: exhaustive at the explored bounds under
//! sequential consistency, silent about weak-memory reorderings and
//! about anything beyond the bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(atum_model)]
pub(crate) mod rt;

pub mod cell;
pub mod model;
pub mod sync;
pub mod thread;
