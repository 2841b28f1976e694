//! Static micro-cycle cost analysis — the pass that turns the paper's
//! measured 10–20× slowdown band into a machine-checked bound.
//!
//! For every installed hook (see [`detect_hooks`]) the pass walks the
//! patch-region micro-CFG and computes best/worst-case **added cycles**
//! per invocation: the micro-cycles spent at addresses `>= stock_len()`
//! before control rejoins the stock flow. The cycle model is the shared
//! one in [`atum_ucode::cost`] — the same constants both execution
//! engines charge — so a bound proved here is a bound on what the
//! machine's cycle counter reports.
//!
//! The walk proves, per hook:
//!
//! * **loop-freedom** — no micro-cycle inside the patch region other
//!   than through a [`MicroOp::Halt`] (the buffer-full protocol halts
//!   for host service and retries; that back-edge runs at most once per
//!   drain and is excluded from per-invocation bounds);
//! * **bounded calls** — micro-calls resolve inside the patch region,
//!   never recurse, and nest below a fixed depth;
//! * **bounded added cost** — every completing path's cycle count lies
//!   in a finite `[min, max]` interval.
//!
//! Bounds are computed under three branch assumptions: tracing enabled
//! (the capture-enable test `ReadPr TRCTL; AND #ENABLE; JumpIf UZero`
//! is resolved to fall through), tracing disabled (taken), and either
//! (both explored; this is the walk findings come from). The displaced
//! stock routine is costed the same way over the stock region, with
//! entry-table indirections resolved to the *stock* symbols (the live
//! table points back into the patches), giving a per-hook dilation
//! `(stock + added) / stock`.
//!
//! What the pass deliberately cannot see: PTE-walk cycles (a dynamic
//! property of TLB state — the engines charge `cost::PTE_READ` per walk
//! on top of everything costed here) and host-side drain time while the
//! machine is halted. Memory-system stalls beyond the flat
//! `cost::MEM_EXTRA` charge do not exist in this machine model; on a
//! real 8200 they widen the envelope (see `EXPERIMENTS.md`).

use crate::cfg::{self, SymbolMap};
use crate::hook::{detect_hooks, Hook, HookSlot, MAX_CALL_DEPTH};
use crate::{Finding, Pass, Severity};
use atum_arch::{Opcode, PrivReg};
use atum_ucode::{cost as ucost, AluOp, ControlStore, Entry, MicroCond, MicroOp, MicroReg, Target};
use std::collections::HashMap;

/// Inclusive best/worst-case micro-cycle bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Cheapest completing path.
    pub min: u64,
    /// Most expensive completing path.
    pub max: u64,
}

impl Bounds {
    fn point(c: u64) -> Bounds {
        Bounds { min: c, max: c }
    }

    fn shift(self, c: u64) -> Bounds {
        Bounds {
            min: self.min + c,
            max: self.max + c,
        }
    }

    fn plus(self, o: Bounds) -> Bounds {
        Bounds {
            min: self.min + o.min,
            max: self.max + o.max,
        }
    }

    /// Interval union of two optional bounds (a path set that includes
    /// both alternatives).
    fn join(a: Option<Bounds>, b: Option<Bounds>) -> Option<Bounds> {
        match (a, b) {
            (Some(x), Some(y)) => Some(Bounds {
                min: x.min.min(y.min),
                max: x.max.max(y.max),
            }),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

impl std::fmt::Display for Bounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.min == self.max {
            write!(f, "{}", self.min)
        } else {
            write!(f, "{}..{}", self.min, self.max)
        }
    }
}

/// Branch assumption for the capture-enable test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assume {
    /// `TRCTL & ENABLE != 0`: the enable test falls through.
    Enabled,
    /// `TRCTL & ENABLE == 0`: the enable test is taken.
    Disabled,
    /// Explore both sides (the findings walk).
    Either,
}

/// Static cost result for one installed hook.
#[derive(Debug, Clone)]
pub struct HookCost {
    /// The hook (slot, patch address, displaced stock target).
    pub hook: Hook,
    /// Symbol of the patch routine at the hook address.
    pub symbol: String,
    /// Added cycles per invocation with tracing enabled, when every
    /// enabled path is loop-free and bounded.
    pub added_on: Option<Bounds>,
    /// Added cycles per invocation with tracing disabled (the residual
    /// cost of an installed-but-idle patch).
    pub added_off: Option<Bounds>,
    /// Cost of the displaced stock routine, when it is bounded (stock
    /// routines with data-dependent loops cost `None`).
    pub stock: Option<Bounds>,
}

impl HookCost {
    /// Per-invocation dilation `(stock + added_on) / stock`, when both
    /// sides are bounded. The extremes pair the *longest* stock path
    /// with the smallest addition (best case) and the *shortest* stock
    /// path with the largest addition (worst case).
    pub fn dilation(&self) -> Option<(f64, f64)> {
        let (a, s) = (self.added_on?, self.stock?);
        if s.min == 0 {
            return None;
        }
        Some((
            (s.max + a.min) as f64 / s.max as f64,
            (s.min + a.max) as f64 / s.min as f64,
        ))
    }
}

/// The full cost-pass result: per-hook bounds plus lint findings.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// One entry per installed hook, in detection order.
    pub hooks: Vec<HookCost>,
    /// Loop/recursion/unboundedness findings from the either-path walk.
    pub findings: Vec<Finding>,
}

/// Reference-mix weights for aggregating per-hook bounds into a
/// per-reference envelope — the counts a run (or the standard-mix
/// profile) observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefProfile {
    /// Instruction-stream longword fetches (`Entry::XferIFetch` runs).
    pub ifetch: u64,
    /// Data reads (`Entry::XferRead` runs).
    pub data_reads: u64,
    /// Data writes (`Entry::XferWrite` runs).
    pub data_writes: u64,
    /// Exceptions and interrupts (`Entry::ExcDispatch` runs).
    pub exceptions: u64,
    /// Context switches (`ldpctx` executions).
    pub ctx_switches: u64,
}

/// The lint entry point: loop-freedom and boundedness findings for every
/// installed hook (empty on an unpatched store).
pub fn check(cs: &ControlStore) -> Vec<Finding> {
    analyze(cs).findings
}

/// Runs the full cost analysis: findings plus per-hook bounds.
pub fn analyze(cs: &ControlStore) -> CostReport {
    let symbols = SymbolMap::new(cs);
    let stock_entries = stock_entry_table(cs);
    // Fault-permissible points, from the predicate shared with the
    // atomicity pass. A faultable micro-op inside a hook closure diverts
    // into the exception flow, and those cycles (fault delivery plus the
    // re-entered hooks) are outside every static added-cycle interval
    // computed below — so the intervals would silently under-report.
    let fault_points = cfg::fault_points(cs);
    let mut hooks = Vec::new();
    let mut findings = Vec::new();
    for hook in detect_hooks(cs) {
        let closure = cfg::region_closure(cs, hook.patch_addr, cs.stock_len(), cs.len());
        for &fp in &fault_points {
            if closure.binary_search(&fp).is_ok() {
                findings.push(Finding {
                    pass: Pass::Cost,
                    severity: Severity::Warning,
                    symbol: symbols.name(fp),
                    addr: fp,
                    message: "fault-permissible micro-op in a hook closure: fault-path cycles escape the static added-cycle interval".into(),
                });
            }
        }
        // Findings come from the either-path walk (it covers the union
        // of the enabled and disabled path sets).
        let mut w = Walker::patch(cs, &symbols, Assume::Either);
        let _ = w.invocation_bounds(hook.patch_addr);
        findings.append(&mut w.findings);

        let added_on =
            Walker::patch(cs, &symbols, Assume::Enabled).invocation_bounds(hook.patch_addr);
        let added_off =
            Walker::patch(cs, &symbols, Assume::Disabled).invocation_bounds(hook.patch_addr);
        let stock = hook.expected.and_then(|start| {
            Walker::stock(cs, &symbols, &stock_entries, start).invocation_bounds(start)
        });
        hooks.push(HookCost {
            symbol: symbols.name(hook.patch_addr),
            hook,
            added_on,
            added_off,
            stock,
        });
    }
    findings.sort_by_key(|f| f.addr);
    findings.dedup();
    CostReport { hooks, findings }
}

impl CostReport {
    /// The hook occupying an entry slot, if installed.
    pub fn entry_hook(&self, e: Entry) -> Option<&HookCost> {
        self.hooks
            .iter()
            .find(|h| h.hook.slot == HookSlot::Entry(e))
    }

    /// The hook on the `ldpctx` opcode, if installed.
    pub fn ldpctx_hook(&self) -> Option<&HookCost> {
        self.hooks
            .iter()
            .find(|h| h.hook.slot == HookSlot::Opcode(Opcode::Ldpctx.to_byte()))
    }

    /// Aggregate per-reference dilation of the transfer path, weighted
    /// by the profile's reference mix:
    /// `Σ wᶜ·(stockᶜ + addedᶜ) / Σ wᶜ·stockᶜ` over the three transfer
    /// classes. `None` unless all three transfer hooks are installed
    /// with finite bounds and the profile has at least one reference.
    pub fn aggregate_dilation(&self, p: &RefProfile) -> Option<(f64, f64)> {
        let classes = [
            (Entry::XferIFetch, p.ifetch),
            (Entry::XferRead, p.data_reads),
            (Entry::XferWrite, p.data_writes),
        ];
        let (mut lo, mut hi) = (0.0, 0.0);
        let (mut den_lo, mut den_hi) = (0.0, 0.0);
        for (e, w) in classes {
            let h = self.entry_hook(e)?;
            let (a, s) = (h.added_on?, h.stock?);
            let w = w as f64;
            lo += w * (s.min + a.min) as f64;
            hi += w * (s.max + a.max) as f64;
            // Conservative envelope: the cheap numerator over the
            // expensive denominator and vice versa (exact for the
            // straight-line stock transfers, where min == max).
            den_lo = w.mul_add(s.max as f64, den_lo);
            den_hi = w.mul_add(s.min as f64, den_hi);
        }
        if den_lo == 0.0 || den_hi == 0.0 {
            return None;
        }
        Some((lo / den_lo, hi / den_hi))
    }

    /// The worst per-invocation dilation across the transfer hooks — an
    /// upper bound on *whole-run* slowdown within the cycle model, since
    /// a run's untraced cycles include at least the stock transfer cost
    /// of every reference (the mediant inequality does the rest).
    pub fn max_dilation(&self) -> Option<f64> {
        let mut worst: Option<f64> = None;
        for e in [Entry::XferIFetch, Entry::XferRead, Entry::XferWrite] {
            let (_, hi) = self.entry_hook(e)?.dilation()?;
            worst = Some(worst.map_or(hi, |w: f64| w.max(hi)));
        }
        worst
    }

    /// Total added-cycle interval for a run that observed `p`'s event
    /// counts with tracing enabled throughout: `Σ nₑ · added_onₑ` over
    /// every event class with a nonzero count. `None` if some counted
    /// event's hook is missing or unbounded.
    pub fn added_interval(&self, p: &RefProfile) -> Option<Bounds> {
        let mut total = Bounds::point(0);
        let mut add = |n: u64, h: Option<&HookCost>| -> Option<()> {
            if n == 0 {
                return Some(());
            }
            let a = h?.added_on?;
            total = total.plus(Bounds {
                min: n * a.min,
                max: n * a.max,
            });
            Some(())
        };
        add(p.ifetch, self.entry_hook(Entry::XferIFetch))?;
        add(p.data_reads, self.entry_hook(Entry::XferRead))?;
        add(p.data_writes, self.entry_hook(Entry::XferWrite))?;
        add(p.exceptions, self.entry_hook(Entry::ExcDispatch))?;
        add(p.ctx_switches, self.ldpctx_hook())?;
        Some(total)
    }
}

/// The stock entry table: each entry slot resolved to its *stock*
/// routine's symbol (the live table points into the patches once hooks
/// are installed).
fn stock_entry_table(cs: &ControlStore) -> [Option<u32>; Entry::COUNT] {
    let mut t = [None; Entry::COUNT];
    for e in Entry::ALL {
        t[e.index()] = cs.symbol(e.symbol());
    }
    t
}

/// The region-bounded cost walker. One instance analyzes one routine
/// under one branch assumption; memoization makes the walk linear in
/// the region size.
struct Walker<'a> {
    cs: &'a ControlStore,
    symbols: &'a SymbolMap,
    /// Analysis region `[lo, hi)`; transferring outside it completes the
    /// invocation.
    lo: u32,
    hi: u32,
    /// Entry-slot resolution (live table for the patch walk, stock
    /// symbols for the displaced-routine walk).
    entries: [Option<u32>; Entry::COUNT],
    /// Transfer to this address completes the invocation (the stock
    /// walk ends where the next instruction's processing begins).
    fetch_terminal: Option<u32>,
    assume: Assume,
    /// Emit findings (the patch walk); the stock walk just poisons.
    report: bool,
    /// A cycle or unresolvable construct was seen: all bounds poison to
    /// `None`.
    poisoned: bool,
    memo: HashMap<u32, Memo>,
    call_memo: HashMap<u32, Memo>,
    call_chain: Vec<u32>,
    findings: Vec<Finding>,
}

#[derive(Clone, Copy)]
enum Memo {
    InProgress,
    Done(Option<Bounds>),
}

impl<'a> Walker<'a> {
    fn patch(cs: &'a ControlStore, symbols: &'a SymbolMap, assume: Assume) -> Walker<'a> {
        Walker {
            cs,
            symbols,
            lo: cs.stock_len(),
            hi: cs.len(),
            entries: {
                let mut t = [None; Entry::COUNT];
                for e in Entry::ALL {
                    t[e.index()] = Some(cs.entry(e));
                }
                t
            },
            fetch_terminal: None,
            assume,
            report: assume == Assume::Either,
            poisoned: false,
            memo: HashMap::new(),
            call_memo: HashMap::new(),
            call_chain: Vec::new(),
            findings: Vec::new(),
        }
    }

    fn stock(
        cs: &'a ControlStore,
        symbols: &'a SymbolMap,
        entries: &[Option<u32>; Entry::COUNT],
        start: u32,
    ) -> Walker<'a> {
        let fetch = entries[Entry::Fetch.index()];
        Walker {
            cs,
            symbols,
            lo: 0,
            hi: cs.stock_len(),
            entries: *entries,
            // The displaced routine's own work ends where the next
            // instruction's fetch begins — unless it *is* the fetch
            // routine.
            fetch_terminal: fetch.filter(|&f| f != start),
            assume: Assume::Either,
            report: false,
            poisoned: false,
            memo: HashMap::new(),
            call_memo: HashMap::new(),
            call_chain: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Bounds over completing paths from `start`, or `None` if poisoned
    /// (a loop, recursion, or an unresolvable construct).
    fn invocation_bounds(&mut self, start: u32) -> Option<Bounds> {
        let b = self.bounds(start);
        if self.poisoned {
            None
        } else {
            b
        }
    }

    fn finding(&mut self, addr: u32, severity: Severity, message: String) {
        if self.report {
            self.findings.push(Finding {
                pass: Pass::Cost,
                severity,
                symbol: self.symbols.name(addr),
                addr,
                message,
            });
        }
    }

    fn resolve(&self, t: Target) -> Option<u32> {
        match t {
            Target::Abs(a) => Some(a),
            Target::Entry(e) => self.entries[e.index()],
        }
    }

    /// Whether the `JumpIf` at `addr` is the capture-enable test: a
    /// `UZero` branch immediately after `ReadPr TRCTL; AND #ENABLE`.
    /// This is the one pattern the assumption modes resolve; any other
    /// conditional explores both sides.
    fn is_enable_test(&self, addr: u32) -> bool {
        if addr < self.lo + 2 {
            return false;
        }
        let and_ok = matches!(
            self.cs.word(addr - 1),
            MicroOp::Alu {
                op: AluOp::And,
                b: MicroReg::Imm(1),
                ..
            } | MicroOp::Alu {
                op: AluOp::And,
                a: MicroReg::Imm(1),
                ..
            }
        );
        let read_ok = matches!(
            self.cs.word(addr - 2),
            MicroOp::ReadPr {
                num: MicroReg::Imm(n),
                ..
            } if n == PrivReg::Trctl.number()
        );
        and_ok && read_ok
    }

    /// Bounds over completing continuations from `addr` (top level:
    /// `Ret` completes the invocation).
    fn bounds(&mut self, addr: u32) -> Option<Bounds> {
        if addr < self.lo || addr >= self.hi || Some(addr) == self.fetch_terminal {
            return Some(Bounds::point(0));
        }
        match self.memo.get(&addr) {
            Some(Memo::Done(b)) => return *b,
            Some(Memo::InProgress) => {
                // A micro-cycle that does not pass through a Halt: with
                // the engine never pausing, the path never completes.
                self.finding(
                    addr,
                    Severity::Error,
                    "hot loop: a micro-cycle in the patch region never reaches \
                     the stock flow (added cycles unbounded)"
                        .into(),
                );
                self.poisoned = true;
                return None;
            }
            None => {}
        }
        self.memo.insert(addr, Memo::InProgress);
        let op = self.cs.word(addr);
        let c = ucost::op_cost(&op);
        let b = match op {
            // Completion: control re-enters the architectural flow.
            MicroOp::DecodeNext
            | MicroOp::Fault(_)
            | MicroOp::Ret
            | MicroOp::DispatchOpcode
            | MicroOp::DispatchSpec(_) => Some(Bounds::point(c)),
            // Halt pauses for the host; the resumed retry is a fresh
            // drain-rate event, not part of per-invocation bounds.
            MicroOp::Halt => None,
            MicroOp::Jump(t) => self.hop(addr, t).map(|b| b.shift(c)),
            MicroOp::JumpIf { target, cond } => {
                let assume = if cond == MicroCond::UZero && self.is_enable_test(addr) {
                    self.assume
                } else {
                    Assume::Either
                };
                let taken = match assume {
                    Assume::Enabled => None,
                    _ => self.hop(addr, target),
                };
                let fall = match assume {
                    Assume::Disabled => None,
                    _ => self.bounds(addr + 1),
                };
                Bounds::join(taken, fall).map(|b| b.shift(c))
            }
            MicroOp::Call(t) => {
                let callee = self.call_bounds(addr, t);
                let cont = self.bounds(addr + 1);
                match (callee, cont) {
                    (Some(x), Some(y)) => Some(x.plus(y).shift(c)),
                    _ => None,
                }
            }
            _ => self.bounds(addr + 1).map(|b| b.shift(c)),
        };
        self.memo.insert(addr, Memo::Done(b));
        b
    }

    fn hop(&mut self, addr: u32, t: Target) -> Option<Bounds> {
        match self.resolve(t) {
            Some(target) => self.bounds(target),
            None => {
                self.finding(
                    addr,
                    Severity::Warning,
                    "entry-table target cannot be resolved statically".into(),
                );
                self.poisoned = true;
                None
            }
        }
    }

    /// Bounds for a micro-call: cycles from the callee's entry to its
    /// matching `Ret`.
    fn call_bounds(&mut self, site: u32, t: Target) -> Option<Bounds> {
        let Some(target) = self.resolve(t) else {
            self.finding(
                site,
                Severity::Warning,
                "called entry-table target cannot be resolved statically".into(),
            );
            self.poisoned = true;
            return None;
        };
        if self.call_chain.contains(&target) {
            self.finding(
                site,
                Severity::Error,
                format!(
                    "recursive micro-call to {}: added cycles unbounded",
                    self.symbols.name(target)
                ),
            );
            self.poisoned = true;
            return None;
        }
        if self.call_chain.len() >= MAX_CALL_DEPTH {
            self.finding(
                site,
                Severity::Error,
                format!("micro-call nesting exceeds {MAX_CALL_DEPTH}"),
            );
            self.poisoned = true;
            return None;
        }
        if let Some(Memo::Done(b)) = self.call_memo.get(&target) {
            return *b;
        }
        self.call_chain.push(target);
        let saved = std::mem::take(&mut self.memo);
        let b = self.callee_walk(site, target);
        self.memo = saved;
        self.call_chain.pop();
        self.call_memo.insert(target, Memo::Done(b));
        b
    }

    /// Like [`Walker::bounds`] but `Ret` means "return to the caller"
    /// and leaving the region without one escapes cost accounting.
    fn callee_walk(&mut self, site: u32, addr: u32) -> Option<Bounds> {
        if addr < self.lo || addr >= self.hi || Some(addr) == self.fetch_terminal {
            self.finding(
                site,
                Severity::Error,
                format!(
                    "micro-call path escapes the analysis region at {} without \
                     returning (added cycles unaccountable)",
                    self.symbols.name(addr)
                ),
            );
            self.poisoned = true;
            return None;
        }
        match self.memo.get(&addr) {
            Some(Memo::Done(b)) => return *b,
            Some(Memo::InProgress) => {
                self.finding(
                    addr,
                    Severity::Error,
                    "hot loop: a micro-cycle inside a called routine never \
                     returns (added cycles unbounded)"
                        .into(),
                );
                self.poisoned = true;
                return None;
            }
            None => {}
        }
        self.memo.insert(addr, Memo::InProgress);
        let op = self.cs.word(addr);
        let c = ucost::op_cost(&op);
        let b = match op {
            MicroOp::Ret => Some(Bounds::point(c)),
            // The invocation ends inside the call (exception unwinds,
            // next-instruction handoff, host halt): no returning path.
            MicroOp::DecodeNext
            | MicroOp::Fault(_)
            | MicroOp::Halt
            | MicroOp::DispatchOpcode
            | MicroOp::DispatchSpec(_) => None,
            MicroOp::Jump(t) => match self.resolve(t) {
                Some(target) => self.callee_walk(site, target).map(|b| b.shift(c)),
                None => {
                    self.poisoned = true;
                    None
                }
            },
            MicroOp::JumpIf { target, cond } => {
                let assume = if cond == MicroCond::UZero && self.is_enable_test(addr) {
                    self.assume
                } else {
                    Assume::Either
                };
                let taken = match (assume, self.resolve(target)) {
                    (Assume::Enabled, _) => None,
                    (_, Some(t)) => self.callee_walk(site, t),
                    (_, None) => {
                        self.poisoned = true;
                        None
                    }
                };
                let fall = match assume {
                    Assume::Disabled => None,
                    _ => self.callee_walk(site, addr + 1),
                };
                Bounds::join(taken, fall).map(|b| b.shift(c))
            }
            MicroOp::Call(t) => {
                let callee = self.call_bounds(addr, t);
                let cont = self.callee_walk(site, addr + 1);
                match (callee, cont) {
                    (Some(x), Some(y)) => Some(x.plus(y).shift(c)),
                    _ => None,
                }
            }
            _ => self.callee_walk(site, addr + 1).map(|b| b.shift(c)),
        };
        self.memo.insert(addr, Memo::Done(b));
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_core::patch::{PatchSet, PatchStyle};
    use atum_ucode::stock;

    fn analyzed(style: PatchStyle) -> CostReport {
        let mut cs = stock::build();
        PatchSet::install_with_style(&mut cs, style).unwrap();
        analyze(&cs)
    }

    #[test]
    fn shipped_patches_have_no_cost_findings() {
        for style in [PatchStyle::Scratch, PatchStyle::Spill] {
            let rep = analyzed(style);
            assert!(rep.findings.is_empty(), "{style:?}: {:?}", rep.findings);
            assert_eq!(rep.hooks.len(), 5, "all five hooks analyzed");
        }
    }

    #[test]
    fn scratch_transfer_bounds_match_hand_count() {
        // xfer.read is 3 straight-line ops (mov, read, decode-like
        // transfer); the scratch patch adds the 3-op enable check, 1-op
        // seed, the call, the 24..25-cycle logger body and the tail
        // jump. Hand-counted: +33..34 cycles enabled, +4 disabled.
        let rep = analyzed(PatchStyle::Scratch);
        let h = rep.entry_hook(Entry::XferRead).unwrap();
        assert_eq!(h.stock, Some(Bounds { min: 3, max: 3 }));
        assert_eq!(h.added_on, Some(Bounds { min: 33, max: 34 }));
        assert_eq!(h.added_off, Some(Bounds { min: 4, max: 4 }));
        let (lo, hi) = h.dilation().unwrap();
        assert!((lo - 12.0).abs() < 1e-9, "{lo}");
        assert!((hi - 37.0 / 3.0).abs() < 1e-9, "{hi}");
    }

    #[test]
    fn every_hook_is_cheap_when_tracing_is_disabled() {
        // The residual cost of an installed-but-idle patch is the
        // enable check plus the escape jump, regardless of style.
        for style in [PatchStyle::Scratch, PatchStyle::Spill] {
            for h in &analyzed(style).hooks {
                assert_eq!(
                    h.added_off,
                    Some(Bounds { min: 4, max: 4 }),
                    "{style:?} {}",
                    h.hook.desc
                );
            }
        }
    }

    #[test]
    fn scratch_aggregate_sits_in_the_paper_band_spill_above() {
        // The paper's standard mix is read-heavy; any plausible mix of
        // the three transfer classes lands the scratch style inside
        // 10..20x because each class's own dilation does.
        let mix = RefProfile {
            ifetch: 2,
            data_reads: 1,
            data_writes: 1,
            ..RefProfile::default()
        };
        let (lo, hi) = analyzed(PatchStyle::Scratch)
            .aggregate_dilation(&mix)
            .unwrap();
        assert!(lo >= 10.0 && hi <= 20.0, "scratch aggregate {lo}..{hi}");
        let (slo, shi) = analyzed(PatchStyle::Spill)
            .aggregate_dilation(&mix)
            .unwrap();
        assert!(slo > hi, "spill ({slo}..{shi}) must dominate scratch");
        assert!(slo >= 10.0);
    }

    #[test]
    fn added_interval_weights_per_class_counts() {
        let rep = analyzed(PatchStyle::Scratch);
        let zero = rep.added_interval(&RefProfile::default()).unwrap();
        assert_eq!(zero, Bounds { min: 0, max: 0 });
        let one_read = rep
            .added_interval(&RefProfile {
                data_reads: 1,
                ..RefProfile::default()
            })
            .unwrap();
        assert_eq!(
            one_read,
            rep.entry_hook(Entry::XferRead).unwrap().added_on.unwrap()
        );
        // Ten reads scale linearly.
        let ten = rep
            .added_interval(&RefProfile {
                data_reads: 10,
                ..RefProfile::default()
            })
            .unwrap();
        assert_eq!(ten.min, one_read.min * 10);
        assert_eq!(ten.max, one_read.max * 10);
    }

    #[test]
    fn max_dilation_bounds_every_transfer_hook() {
        for style in [PatchStyle::Scratch, PatchStyle::Spill] {
            let rep = analyzed(style);
            let max = rep.max_dilation().unwrap();
            for e in [Entry::XferIFetch, Entry::XferRead, Entry::XferWrite] {
                let (_, hi) = rep.entry_hook(e).unwrap().dilation().unwrap();
                assert!(hi <= max);
            }
        }
    }

    #[test]
    fn stock_store_has_no_hooks_and_no_findings() {
        let cs = stock::build();
        let rep = analyze(&cs);
        assert!(rep.hooks.is_empty());
        assert!(rep.findings.is_empty());
    }

    #[test]
    fn buffer_full_halt_path_is_not_a_hot_loop() {
        // The full: path halts and retries via a back-edge to the
        // capacity check — a micro-cycle, but one that passes through a
        // Halt. It must not be flagged, and must not poison the bounds.
        let rep = analyzed(PatchStyle::Scratch);
        assert!(rep.findings.is_empty());
        for e in [Entry::XferIFetch, Entry::XferRead, Entry::XferWrite] {
            assert!(rep.entry_hook(e).unwrap().added_on.is_some());
        }
    }
}
