//! `atum-conc`: an empty placeholder.
//!
//! This crate once held a concurrency model checker for the analysis
//! pipeline's threaded code. That code is now `parallel_map` alone, a
//! fork-join pool on `std` that needs no model (DESIGN §14), so the
//! checker is gone. The package stays, with no items and no
//! dependencies, only because the pipeline benchmark's `Cargo.lock`
//! records `atum-core` and `atum-analysis` depending on it; it goes
//! when that lock file is next refreshed.
