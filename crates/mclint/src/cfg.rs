//! The micro-CFG: successors, roots, reachability and symbolisation over
//! a [`ControlStore`].
//!
//! The sequencer's control flow is fully explicit in the micro-op
//! encoding, so the CFG needs no heuristics: every op either falls
//! through to the next word, transfers to an absolute address, reads a
//! patchable indirection (entry slot or dispatch table) whose current
//! contents the store itself holds, or terminates the micro-flow (the
//! engine re-enters through a table). That closed-world property is what
//! makes the whole verifier possible.

use atum_ucode::{ControlStore, Entry, MicroOp, SpecTable, Target};

/// Whether executing `op` can continue at the next control-store word.
///
/// [`MicroOp::Halt`] *does* fall through: the engine resumes at the next
/// word when the host restarts it (the ATUM buffer-full protocol relies
/// on exactly this). [`MicroOp::DecodeNext`] and [`MicroOp::Fault`] do
/// not — they re-enter through the `Fetch` / `ExcDispatch` entry slots.
pub fn falls_through(op: MicroOp) -> bool {
    !matches!(
        op,
        MicroOp::Jump(_)
            | MicroOp::Ret
            | MicroOp::DecodeNext
            | MicroOp::Fault(_)
            | MicroOp::DispatchOpcode
            | MicroOp::DispatchSpec(_)
    )
}

/// Resolves a micro-jump target against the store's entry table.
pub fn resolve(cs: &ControlStore, t: Target) -> u32 {
    match t {
        Target::Abs(a) => a,
        Target::Entry(e) => cs.entry(e),
    }
}

/// Successor micro-addresses of the word at `addr`.
///
/// Dispatch ops ([`MicroOp::DispatchOpcode`], [`MicroOp::DispatchSpec`])
/// report their full table as successors; [`MicroOp::DecodeNext`] and
/// [`MicroOp::Fault`] report the entry slot they re-enter through. A
/// [`MicroOp::Call`] reports both the callee and the return point.
pub fn successors(cs: &ControlStore, addr: u32) -> Vec<u32> {
    let op = cs.word(addr);
    let mut out = Vec::with_capacity(2);
    match op {
        MicroOp::Jump(t) => out.push(resolve(cs, t)),
        MicroOp::JumpIf { target, .. } => {
            out.push(resolve(cs, target));
            out.push(addr + 1);
        }
        MicroOp::Call(t) => {
            out.push(resolve(cs, t));
            out.push(addr + 1);
        }
        MicroOp::DispatchOpcode => {
            for b in 0..=255u8 {
                out.push(cs.opcode_target(b));
            }
        }
        MicroOp::DispatchSpec(table) => {
            for nibble in 0..16 {
                out.push(cs.spec_target(table, nibble));
            }
        }
        MicroOp::DecodeNext => out.push(cs.entry(Entry::Fetch)),
        MicroOp::Fault(_) => out.push(cs.entry(Entry::ExcDispatch)),
        MicroOp::Ret => {}
        _ => out.push(addr + 1),
    }
    out
}

/// The engine's entry points into the store: the entry table, the opcode
/// dispatch table, the four specifier dispatch tables and the reserved-
/// instruction fault routine.
pub fn roots(cs: &ControlStore) -> Vec<u32> {
    let mut out = Vec::new();
    for e in Entry::ALL {
        out.push(cs.entry(e));
    }
    for b in 0..=255u8 {
        out.push(cs.opcode_target(b));
    }
    for table in [
        SpecTable::Read,
        SpecTable::Write,
        SpecTable::Modify,
        SpecTable::Addr,
    ] {
        for nibble in 0..16 {
            out.push(cs.spec_target(table, nibble));
        }
    }
    out.push(cs.fault_addr());
    out.sort_unstable();
    out.dedup();
    out
}

/// Every micro-address reachable from the [`roots`], as a bitmap indexed
/// by address. Out-of-range targets are ignored here (the structural
/// pass reports them as findings).
pub fn reachable(cs: &ControlStore) -> Vec<bool> {
    let len = cs.len() as usize;
    let mut seen = vec![false; len];
    let mut stack: Vec<u32> = roots(cs)
        .into_iter()
        .filter(|&a| (a as usize) < len)
        .collect();
    while let Some(addr) = stack.pop() {
        if seen[addr as usize] {
            continue;
        }
        seen[addr as usize] = true;
        for s in successors(cs, addr) {
            if (s as usize) < len && !seen[s as usize] {
                stack.push(s);
            }
        }
    }
    seen
}

/// Whether executing `op` can divert control into the exception
/// micro-flow: the virtual transfers fault on a translation miss or
/// protection violation, and [`MicroOp::Fault`] *is* the diversion. The
/// physical transfers never fault (they bypass translation), which is
/// exactly why the ATUM patches are restricted to them.
///
/// This is the shared fault-permissible-point predicate used by both the
/// `cost` pass (fault cycles escape the static added-cycle bound) and
/// the `atomicity` pass (a fault mid-hook re-enters the trace hooks).
pub fn can_fault(op: MicroOp) -> bool {
    matches!(
        op,
        MicroOp::Read { .. } | MicroOp::Write { .. } | MicroOp::Fault(_)
    )
}

/// Every reachable micro-address whose word is a fault-permissible
/// point ([`can_fault`]), sorted. A fault-exit observed from any other
/// address is impossible: the closed-world CFG has no other diversion
/// sites. (Preemption windows — a `Halt`, which hands the machine to
/// the host, or a `DecodeNext`, where pending interrupts are honoured —
/// are deliberately not included: neither enters the exception flow,
/// and the atomicity pass treats the two cases differently.)
pub fn fault_points(cs: &ControlStore) -> Vec<u32> {
    let seen = reachable(cs);
    (0..cs.len())
        .filter(|&a| seen[a as usize] && can_fault(cs.word(a)))
        .collect()
}

/// The closure of a routine inside a region: every address in `[lo, hi)`
/// reachable from `start` without leaving the region (edges out of the
/// region — e.g. a patch rejoining the stock flow — are not followed).
/// Sorted and deduplicated.
pub fn region_closure(cs: &ControlStore, start: u32, lo: u32, hi: u32) -> Vec<u32> {
    let mut seen = Vec::new();
    let mut stack = vec![start];
    while let Some(addr) = stack.pop() {
        if addr < lo || addr >= hi || seen.contains(&addr) {
            continue;
        }
        seen.push(addr);
        stack.extend(successors(cs, addr));
    }
    seen.sort_unstable();
    seen
}

/// A sorted `(address, name)` view of the symbol table, for resolving
/// addresses back to `symbol+offset` form.
pub struct SymbolMap {
    starts: Vec<(u32, String)>,
}

impl SymbolMap {
    /// Builds the map from a store's symbol table.
    pub fn new(cs: &ControlStore) -> SymbolMap {
        let mut starts: Vec<(u32, String)> =
            cs.symbols().iter().map(|(n, a)| (*a, n.clone())).collect();
        starts.sort_unstable();
        SymbolMap { starts }
    }

    /// Renders `addr` as `name` / `name+offset`, or `@addr` when no
    /// symbol precedes it.
    pub fn name(&self, addr: u32) -> String {
        match self.starts.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.starts[i].1.clone(),
            Err(0) => format!("@{addr:#06x}"),
            Err(i) => {
                let (base, name) = &self.starts[i - 1];
                format!("{name}+{}", addr - base)
            }
        }
    }

    /// The symbol starting exactly at `addr`, if any.
    pub fn at(&self, addr: u32) -> Option<&str> {
        self.starts
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.starts[i].1.as_str())
    }

    /// End of the routine containing `addr`: the next symbol's start, or
    /// `len` if none follows.
    pub fn routine_end(&self, addr: u32, len: u32) -> u32 {
        self.starts
            .iter()
            .map(|&(a, _)| a)
            .find(|&a| a > addr)
            .unwrap_or(len)
    }

    /// Start of the routine containing `addr` (the nearest symbol at or
    /// before it), if any symbol precedes it.
    pub fn routine_start(&self, addr: u32) -> Option<u32> {
        match self.starts.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => Some(self.starts[i].0),
            Err(0) => None,
            Err(i) => Some(self.starts[i - 1].0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_ucode::stock;

    #[test]
    fn stock_roots_are_in_range() {
        let cs = stock::build();
        for r in roots(&cs) {
            assert!(r < cs.len());
        }
    }

    #[test]
    fn halt_falls_through_but_jump_does_not() {
        assert!(falls_through(MicroOp::Halt));
        assert!(!falls_through(MicroOp::Jump(Target::Abs(0))));
        assert!(!falls_through(MicroOp::Ret));
        assert!(!falls_through(MicroOp::DecodeNext));
    }

    #[test]
    fn stock_store_is_fully_reachable() {
        let cs = stock::build();
        let seen = reachable(&cs);
        let dead = seen.iter().filter(|&&s| !s).count();
        assert_eq!(dead, 0, "{dead} unreachable stock words");
    }

    #[test]
    fn symbol_map_round_trips() {
        let cs = stock::build();
        let map = SymbolMap::new(&cs);
        let fetch = cs.symbol("fetch.insn").unwrap();
        assert_eq!(map.name(fetch), "fetch.insn");
        assert_eq!(map.name(fetch + 1), "fetch.insn+1");
        assert_eq!(map.at(fetch), Some("fetch.insn"));
    }
}
