//! # atum-mclint — static verifier for microcode, patches and SVX images
//!
//! ATUM's central claims — the patch is *invisible* to the OS and
//! *transparent* to architectural execution — are checked dynamically by
//! the equivalence suite in `atum-baselines`. This crate proves the same
//! properties statically, straight off the control store, the way a
//! microcode group would have vetted a WCS patch before loading it on a
//! production 8200:
//!
//! * [`structural`] — control-flow sanity over the micro-CFG: every
//!   routine reachable from some entry, no fall-through off the end of
//!   the store, all branch targets in range, dispatch tables fully
//!   populated;
//! * [`dataflow`] — def-use over [`MicroReg`]: reads of never-written
//!   micro-temporaries, dead writes, and the "stock microcode never
//!   touches `P0`–`P7`" reservation the patches depend on;
//! * [`hook`] — hook detection and the one hook walker: an abstract
//!   interpreter over each installed hook's closure that tracks how
//!   `P0`–`P7`, `MAR` and `MDR` were derived and what headroom a
//!   `TRLIM`/`TRPTR` carry test proved, follows only the edges inside
//!   the hook's routines, and hands every other edge to its client pass
//!   (`transparency` and `atomicity` are its two clients);
//! * [`transparency`] — the ATUM-specific verifier: each installed patch
//!   routine writes only patch scratch (`P0`–`P7`) and the saved-and-
//!   restored `MAR`/`MDR`, its memory stores are physical stores whose
//!   address derivation stays inside the reserved buffer's bounds check,
//!   and it rejoins the stock flow at the hooked entry's original target;
//! * [`svx`] — an assembly-level lint for images built by `atum-asm`
//!   (the MOSS kernel and the workloads): `calls`/`ret` balance,
//!   privileged instructions outside kernel images, SCB vector coverage;
//! * [`cost`] — static micro-cycle cost analysis: proves every hook's
//!   added cycles are loop-free and bounded, and computes per-hook
//!   `[min, max]` added-cycle intervals and dilation bounds in the same
//!   cycle model ([`atum_ucode::cost`]) both execution engines charge —
//!   the static side of the paper's 10–20× slowdown band;
//! * [`lowering`] — fast-engine lowering equivalence: independently
//!   re-derives what each predecoded `DecOp` must be from its source
//!   [`MicroOp`](atum_ucode::MicroOp) (operand slot mapping, resolved
//!   targets and sizes, constant-folded ALU results recomputed from
//!   scratch) and diffs that against the sealed
//!   [`FastImage`](atum_machine::FastImage);
//! * [`atomicity`] — hook atomicity under faults, interrupts and
//!   concurrent drains: no fault-permissible point inside a hook
//!   closure, every hook follows the read-`TRPTR` → bounds-check →
//!   store → advance-last protocol (so a drain never observes a pointer
//!   over a torn record), and the whole store's register/memory state
//!   partition (per-context / per-CPU-candidate / shared) is extracted
//!   and hooks are proven to touch no shared state — the contract the
//!   SMP per-CPU buffers will be checked against.
//!
//! The top-level entry point is [`lint::run`]; `mculist verify` and
//! `mculist cost` (in `atum-bench`) drive it from the command line and
//! CI gates on both.
//!
//! What the verifier deliberately cannot prove is documented per pass and
//! summarised in `DESIGN.md` — briefly: the cost pass bounds *modelled*
//! micro-cycles, not host wall-clock or a real 8200's memory-system
//! stalls; it trusts the engine's micro-op semantics (the lowering pass
//! narrows that trust to the reference engine only); and its
//! buffer-bounds proof covers the derivation patterns the patches
//! actually use rather than arbitrary address arithmetic.
//!
//! [`MicroReg`]: atum_ucode::MicroReg

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod atomicity;
pub mod cfg;
pub mod cost;
pub mod dataflow;
pub mod hook;
pub mod lowering;
pub mod structural;
pub mod svx;
pub mod transparency;

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but conceivably intended; does not fail `mculist verify`.
    Warning,
    /// A defect: the property the pass proves does not hold.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Which pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Micro-CFG structural checks.
    Structural,
    /// Def-use / liveness over micro-registers.
    Dataflow,
    /// ATUM patch transparency verification.
    Transparency,
    /// SVX assembly image lint.
    Svx,
    /// Static micro-cycle cost bounds (loop-freedom, bounded added cost).
    Cost,
    /// Fast-engine lowering equivalence against the control store.
    Lowering,
    /// Hook atomicity: fault-window safety, the trace-pointer protocol
    /// and the per-context/per-CPU/shared state partition.
    Atomicity,
}

impl Pass {
    /// Every pass, in report order.
    pub const ALL: &'static [Pass] = &[
        Pass::Structural,
        Pass::Dataflow,
        Pass::Transparency,
        Pass::Svx,
        Pass::Cost,
        Pass::Lowering,
        Pass::Atomicity,
    ];

    /// Parses a pass name as printed by [`Display`](fmt::Display) (and
    /// accepted by `mculist verify --pass <name>`).
    pub fn from_name(name: &str) -> Option<Pass> {
        Pass::ALL.iter().copied().find(|p| p.to_string() == name)
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Structural => f.write_str("structural"),
            Pass::Dataflow => f.write_str("dataflow"),
            Pass::Transparency => f.write_str("transparency"),
            Pass::Svx => f.write_str("svx"),
            Pass::Cost => f.write_str("cost"),
            Pass::Lowering => f.write_str("lowering"),
            Pass::Atomicity => f.write_str("atomicity"),
        }
    }
}

/// One verifier finding.
///
/// `symbol` is the nearest symbol at or before `addr` (rendered as
/// `name+offset` when not exactly at the symbol), so a finding always
/// names the offending routine; `addr` is the micro-address in the
/// control store for the microcode passes, or the virtual address for
/// [`Pass::Svx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The pass that produced this finding.
    pub pass: Pass,
    /// Error or warning.
    pub severity: Severity,
    /// Nearest enclosing symbol (`name` or `name+offset`), or a raw
    /// address rendering when no symbol covers `addr`.
    pub symbol: String,
    /// Micro-address (control-store passes) or virtual address (SVX).
    pub addr: u32,
    /// Human-readable description of the defect.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} @{:#06x}: {}",
            self.severity, self.pass, self.symbol, self.addr, self.message
        )
    }
}

impl Finding {
    /// Whether this finding fails a verification gate.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

/// Counts errors in a finding list.
pub fn error_count(findings: &[Finding]) -> usize {
    findings.iter().filter(|f| f.is_error()).count()
}

/// The composed control-store verifier.
pub mod lint {
    use super::{atomicity, cost, dataflow, lowering, structural, transparency, Finding, Pass};
    use atum_ucode::ControlStore;

    /// Fully deterministic report order: pass, then symbol, then
    /// address, then message. The key is total, so pass-internal
    /// iteration order can never leak into the report, which is what
    /// lets the verify output be golden-pinned.
    fn sort(mut out: Vec<Finding>) -> Vec<Finding> {
        out.sort_by(|a, b| {
            (a.pass as u8, &a.symbol, a.addr, &a.message).cmp(&(
                b.pass as u8,
                &b.symbol,
                b.addr,
                &b.message,
            ))
        });
        out
    }

    /// Runs every control-store pass — structural, dataflow, cost,
    /// lowering-equivalence, atomicity and (when hooks are installed)
    /// transparency — and returns the combined findings sorted by pass,
    /// symbol and micro-address. SVX images are linted separately
    /// through [`crate::svx::check_image`], since they are not part of
    /// the control store.
    pub fn run(cs: &ControlStore) -> Vec<Finding> {
        let mut out = structural::check(cs);
        out.extend(dataflow::check(cs));
        out.extend(transparency::check(cs));
        out.extend(cost::check(cs));
        out.extend(lowering::check(cs));
        out.extend(atomicity::check(cs));
        sort(out)
    }

    /// Runs a single control-store pass, in the same deterministic
    /// order as [`run`]. [`Pass::Svx`] returns no findings here: SVX
    /// lints images, not the control store.
    pub fn run_pass(cs: &ControlStore, pass: Pass) -> Vec<Finding> {
        let out = match pass {
            Pass::Structural => structural::check(cs),
            Pass::Dataflow => dataflow::check(cs),
            Pass::Transparency => transparency::check(cs),
            Pass::Svx => Vec::new(),
            Pass::Cost => cost::check(cs),
            Pass::Lowering => lowering::check(cs),
            Pass::Atomicity => atomicity::check(cs),
        };
        sort(out)
    }
}
