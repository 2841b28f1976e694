//! The ATUM hook atomicity verifier and state-partition extractor.
//!
//! The transparency pass proves a patch is invisible to an *undisturbed*
//! execution. This pass proves the hooks survive the three ways the
//! machine can be disturbed mid-hook — and pins down the state
//! partition the SMP work will be checked against:
//!
//! * **(a) fault-window safety** — a page fault or a raised micro-fault
//!   diverts into `ExcDispatch`, which is *itself hooked*: the re-entered
//!   hook clobbers the patch scratch (`P0`–`P7`) and the saved
//!   `MAR`/`MDR` the interrupted hook still needs. The only sound shape
//!   is therefore *no fault-permissible point inside a hook closure* —
//!   every virtual transfer or `Fault` micro-op reachable from a hook is
//!   an error (the shared [`cfg::can_fault`] predicate enumerates them).
//!   The same argument covers interrupt delivery: a `DecodeNext` inside
//!   a hook would open an interrupt window over live scratch;
//! * **(b) trace-pointer protocol** — every hook must follow
//!   read-`TRPTR` → prove headroom against `TRLIM` → store the record
//!   strictly inside the proven window → advance `TRPTR` *last*, as the
//!   single linearization point of the record. A drain observing `TRPTR`
//!   at any micro-cycle then never sees a pointer covering torn or
//!   unwritten records. The [hook walker](crate::hook) the transparency
//!   pass also runs re-proves the headroom, but this pass has it *wipe*
//!   the proof at every [`MicroOp::Halt`]: the halt is the buffer-full
//!   drain window, and the host may reset `TRPTR` there, so headroom and
//!   pointer snapshots proven before a halt are stale after it. The
//!   walker also tracks which record longwords have been written on
//!   every path, and this pass rejects an advance that publishes bytes
//!   no store covered. The walk follows only edges inside the hook's
//!   routines and micro-calls into the patch region; transparency
//!   reports every other edge. Spill-line scratch is checked for
//!   cross-routine conflicts: two different hook routines parking state
//!   in the same `TRLIM` line would clobber each other when hooks nest;
//! * **(c) state partition** — every register and memory region the
//!   reachable control store touches is classified as
//!   [`StateClass::PerContext`] (swapped or owned by the running
//!   process: GPRs, datapath latches, the PCB and per-process page
//!   tables), [`StateClass::PerCpuCandidate`] (what SMP must replicate
//!   per processor: patch scratch, the `TR*` registers, the trace
//!   buffer and spill line, the translation buffer), or
//!   [`StateClass::Shared`] (system-wide: SCB, system page table,
//!   clock, console, soft-IRQ state). Hooks may touch only the first
//!   two classes — a hook reading or writing shared state races the
//!   other CPUs' hooks the moment there *is* another CPU. The partition
//!   is exported machine-readably ([`partition`] /
//!   [`StatePartition::to_json`], surfaced by `mculist verify --format
//!   json`).
//!
//! What this pass deliberately cannot prove: that the MOSS drain itself
//! respects `TRPTR` (the drain reads the buffer from the host side; the
//! SMP pass must re-check that per CPU against per-CPU pointers), that
//! the host console restores `TRPTR`/`TRCTL` coherently after a
//! full-buffer halt (the protocol proof only shows the microcode
//! re-reads them before trusting them), or anything about memory-system
//! ordering — the micro-engine retires one micro-op at a time, so
//! "advance last" is a real linearization point here; a weaker memory
//! model would need fences this micro-ISA cannot spell.

use crate::cfg::{self, SymbolMap};
use crate::hook::{self, AbsVal, Sink, State, RECORD_BYTES, SPILL_LINE_BYTES};
use crate::{dataflow, Finding, Pass, Severity};
use atum_arch::PrivReg;
use atum_ucode::{AluOp, ControlStore, MicroOp, MicroReg};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Which sharing class a piece of machine state falls in — the
/// disjointness contract the SMP per-CPU buffers will be checked
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StateClass {
    /// Owned by (or swapped with) the running process context: GPRs,
    /// datapath latches, the banked stack pointers, PCB base,
    /// per-process page tables and the memory they map.
    PerContext,
    /// Must become per-processor state under SMP: patch scratch, the
    /// `TR*` trace registers, the trace buffer and spill line, the
    /// translation buffer.
    PerCpuCandidate,
    /// Genuinely system-wide: SCB, system page table, interval clock,
    /// console, software-interrupt state, the map-enable switch.
    Shared,
    /// The classifier could not place it — always accompanied by a
    /// finding, and must never appear for the shipped artifacts.
    Unclassified,
}

impl StateClass {
    /// The snake_case name used in the JSON report.
    pub fn name(self) -> &'static str {
        match self {
            StateClass::PerContext => "per_context",
            StateClass::PerCpuCandidate => "per_cpu_candidate",
            StateClass::Shared => "shared",
            StateClass::Unclassified => "unclassified",
        }
    }
}

/// One classified piece of state and who touches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionEntry {
    /// Canonical name (`r0`, `trptr`, `process control block`, …).
    pub name: String,
    /// The sharing class.
    pub class: StateClass,
    /// Touched by reachable microcode outside the hook closures.
    pub stock: bool,
    /// Touched by an installed hook's closure.
    pub hooks: bool,
}

/// The full register/memory state partition of a control store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatePartition {
    /// Every register the reachable store touches, in canonical order
    /// (datapath registers, then privileged registers by number).
    pub registers: Vec<PartitionEntry>,
    /// Every memory region the reachable store touches, in canonical
    /// order.
    pub memory: Vec<PartitionEntry>,
}

impl StatePartition {
    /// Renders the partition as a JSON object (hand-rolled, like the
    /// rest of the `mculist` JSON surface).
    pub fn to_json(&self) -> String {
        fn entries(out: &mut String, list: &[PartitionEntry]) {
            out.push('[');
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"class\":\"{}\",\"stock\":{},\"hooks\":{}}}",
                    e.name,
                    e.class.name(),
                    e.stock,
                    e.hooks
                ));
            }
            out.push(']');
        }
        let mut out = String::from("{\"registers\":");
        entries(&mut out, &self.registers);
        out.push_str(",\"memory\":");
        entries(&mut out, &self.memory);
        out.push('}');
        out
    }
}

/// Classifies a datapath register operand (`Imm` is not state). Returns
/// the canonical name, the class and a stable sort key.
fn classify_reg(r: MicroReg) -> Option<(String, StateClass, u32)> {
    use StateClass::*;
    let (name, class, key) = match r {
        MicroReg::Gpr(n) => (format!("r{n}"), PerContext, n as u32),
        MicroReg::T(n) => (format!("t{n}"), PerContext, 100 + n as u32),
        MicroReg::P(n) => (format!("p{n}"), PerCpuCandidate, 200 + n as u32),
        MicroReg::Mar => ("mar".into(), PerContext, 300),
        MicroReg::Mdr => ("mdr".into(), PerContext, 301),
        MicroReg::Psl => ("psl".into(), PerContext, 302),
        MicroReg::Spec => ("spec".into(), PerContext, 303),
        MicroReg::OpReg => ("opreg".into(), PerContext, 304),
        MicroReg::RegNum => ("regnum".into(), PerContext, 305),
        MicroReg::GprIdx => ("gpr[regnum]".into(), PerContext, 306),
        MicroReg::OSizeBytes => ("osize".into(), PerContext, 307),
        MicroReg::OSizeMask => ("omask".into(), PerContext, 308),
        MicroReg::IbData => ("ibdata".into(), PerContext, 309),
        MicroReg::IbCnt => ("ibcnt".into(), PerContext, 310),
        MicroReg::ExcVec => ("excvec".into(), PerContext, 311),
        MicroReg::ExcParam => ("excparam".into(), PerContext, 312),
        MicroReg::ExcFlags => ("excflags".into(), PerContext, 313),
        MicroReg::ExcPc => ("excpc".into(), PerContext, 314),
        MicroReg::ExcIpl => ("excipl".into(), PerContext, 315),
        MicroReg::Imm(_) => return None,
    };
    Some((name, class, key))
}

/// Classifies a privileged register by number.
fn classify_pr(num: u32) -> StateClass {
    use StateClass::*;
    match PrivReg::from_number(num) {
        // Swapped by ldpctx / banked with the process.
        Some(
            PrivReg::Ksp
            | PrivReg::Usp
            | PrivReg::P0br
            | PrivReg::P0lr
            | PrivReg::P1br
            | PrivReg::P1lr
            | PrivReg::Pcbb
            | PrivReg::Ipl,
        ) => PerContext,
        // Trace machinery and the translation buffer: exactly what SMP
        // must replicate per processor.
        Some(
            PrivReg::Trctl
            | PrivReg::Trbase
            | PrivReg::Trptr
            | PrivReg::Trlim
            | PrivReg::Tbia
            | PrivReg::Tbis,
        ) => PerCpuCandidate,
        // System-wide.
        Some(
            PrivReg::Sbr
            | PrivReg::Slr
            | PrivReg::Scbb
            | PrivReg::Sirr
            | PrivReg::Sisr
            | PrivReg::Iccs
            | PrivReg::Icr
            | PrivReg::Txdb
            | PrivReg::Txcs
            | PrivReg::Rxdb
            | PrivReg::Rxcs
            | PrivReg::Mapen,
        ) => Shared,
        None => Unclassified,
    }
}

/// The memory regions the classifier knows, in canonical report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Region {
    VirtualSpace,
    Pcb,
    ProcessPageTables,
    SystemPageTable,
    Scb,
    TraceBuffer,
    SpillLine,
    Unclassified,
}

impl Region {
    fn name(self) -> &'static str {
        match self {
            Region::VirtualSpace => "virtual address space",
            Region::Pcb => "process control block",
            Region::ProcessPageTables => "per-process page tables",
            Region::SystemPageTable => "system page table",
            Region::Scb => "system control block",
            Region::TraceBuffer => "trace buffer",
            Region::SpillLine => "trace spill line",
            Region::Unclassified => "unclassified physical memory",
        }
    }

    fn class(self) -> StateClass {
        match self {
            Region::VirtualSpace | Region::Pcb | Region::ProcessPageTables => {
                StateClass::PerContext
            }
            Region::TraceBuffer | Region::SpillLine => StateClass::PerCpuCandidate,
            Region::SystemPageTable | Region::Scb => StateClass::Shared,
            Region::Unclassified => StateClass::Unclassified,
        }
    }

    /// The region a physical access lands in, given the privileged
    /// register its `MAR` derivation is based on.
    fn of_base(pr: u32) -> Region {
        match PrivReg::from_number(pr) {
            Some(PrivReg::Pcbb) => Region::Pcb,
            Some(PrivReg::Scbb) => Region::Scb,
            Some(PrivReg::P0br | PrivReg::P1br) => Region::ProcessPageTables,
            Some(PrivReg::Sbr) => Region::SystemPageTable,
            Some(PrivReg::Trbase | PrivReg::Trptr) => Region::TraceBuffer,
            Some(PrivReg::Trlim) => Region::SpillLine,
            _ => Region::Unclassified,
        }
    }
}

/// Runs the atomicity verifier: fault-window safety and the
/// trace-pointer protocol over every installed hook, plus the
/// partition-discipline check that hooks touch no shared state.
pub fn check(cs: &ControlStore) -> Vec<Finding> {
    analyze(cs).0
}

/// Extracts the register/memory state partition of the reachable store.
pub fn partition(cs: &ControlStore) -> StatePartition {
    analyze(cs).1
}

fn analyze(cs: &ControlStore) -> (Vec<Finding>, StatePartition) {
    let map = SymbolMap::new(cs);
    let reachable = cfg::reachable(cs);
    let stock_len = cs.stock_len();

    // Addresses belonging to some installed hook's closure (the stubs
    // plus the shared logger, chased through whatever edges stay inside
    // the patch region).
    let hooks = hook::detect_hooks(cs);
    let mut hook_words: HashSet<u32> = HashSet::new();
    for h in &hooks {
        for a in cfg::region_closure(cs, h.patch_addr, stock_len, cs.len()) {
            hook_words.insert(a);
        }
    }

    let mut an = Analysis {
        cs,
        map: &map,
        hook_words,
        sink: Sink::new(&map, Pass::Atomicity),
        regs: BTreeMap::new(),
        memory: BTreeMap::new(),
        spill_writers: BTreeMap::new(),
    };

    // Obligation (c), register side, and the partition's register rows.
    for addr in 0..cs.len() {
        if reachable[addr as usize] {
            an.classify_word(addr, cs.word(addr));
        }
    }

    // Obligation (c), memory side, and the partition's memory rows.
    an.walk_regions(&reachable);

    // Obligations (a) and (b) over every installed hook.
    for h in &hooks {
        hook::walk(cs, &map, h.patch_addr, &mut an);
    }
    an.check_spill_conflicts();

    let registers = an.regs.values().cloned().collect();
    let memory = an.memory.values().cloned().collect();
    let mut findings = an.sink.findings;
    findings.sort_by(|a, b| (&a.symbol, a.addr).cmp(&(&b.symbol, b.addr)));
    (findings, StatePartition { registers, memory })
}

struct Analysis<'a> {
    cs: &'a ControlStore,
    map: &'a SymbolMap,
    hook_words: HashSet<u32>,
    sink: Sink<'a>,
    /// Keyed `(group, key)` for canonical ordering: datapath registers
    /// (group 0, layout order), privileged registers (group 1, by
    /// number), dynamically selected PRs (group 2).
    regs: BTreeMap<(u8, u32), PartitionEntry>,
    memory: BTreeMap<Region, PartitionEntry>,
    /// Spill-line conflict map: byte offset → hook routines that store
    /// there, with one representative store address each.
    spill_writers: BTreeMap<i64, Vec<(String, u32)>>,
}

impl Analysis<'_> {
    fn touch_reg(&mut self, addr: u32, key: (u8, u32), name: String, class: StateClass) {
        let in_hook = self.hook_words.contains(&addr);
        let e = self.regs.entry(key).or_insert_with(|| PartitionEntry {
            name: name.clone(),
            class,
            stock: false,
            hooks: false,
        });
        if in_hook {
            e.hooks = true;
        } else {
            e.stock = true;
        }
        if in_hook && class == StateClass::Shared {
            self.sink.emit(
                addr,
                Severity::Error,
                format!("hook touches shared state ({name}); hooks may touch only per-context and per-CPU-candidate state"),
            );
        }
    }

    fn touch_region(&mut self, addr: u32, region: Region) {
        let in_hook = self.hook_words.contains(&addr);
        let e = self.memory.entry(region).or_insert_with(|| PartitionEntry {
            name: region.name().into(),
            class: region.class(),
            stock: false,
            hooks: false,
        });
        if in_hook {
            e.hooks = true;
        } else {
            e.stock = true;
        }
        match region.class() {
            StateClass::Unclassified => self.sink.emit(
                addr,
                Severity::Error,
                "physical memory access whose address derivation the partition cannot classify"
                    .into(),
            ),
            StateClass::Shared if in_hook => self.sink.emit(
                addr,
                Severity::Error,
                format!(
                    "hook touches shared memory ({}); hooks may touch only per-context and per-CPU-candidate state",
                    region.name()
                ),
            ),
            _ => {}
        }
    }

    /// Partition bookkeeping for one reachable word: every register it
    /// reads or writes, including privileged registers.
    fn classify_word(&mut self, addr: u32, op: MicroOp) {
        for r in dataflow::reads(op).into_iter().chain(dataflow::writes(op)) {
            if let Some((name, class, key)) = classify_reg(r) {
                self.touch_reg(addr, (0, key), name, class);
            }
        }
        if let MicroOp::ReadPr { num, .. } | MicroOp::WritePr { num, .. } = op {
            match num {
                MicroReg::Imm(n) => {
                    let class = classify_pr(n);
                    let name = PrivReg::from_number(n)
                        .map(|p| p.mnemonic().to_string())
                        .unwrap_or_else(|| format!("pr[{n}]"));
                    if class == StateClass::Unclassified {
                        self.sink.emit(
                            addr,
                            Severity::Error,
                            format!("access to privileged register {name}, which the state partition cannot classify"),
                        );
                    }
                    self.touch_reg(addr, (1, n), name, class);
                }
                _ => {
                    // The stock mtpr/mfpr flows select the register at
                    // run time; the partition must assume the worst.
                    self.touch_reg(addr, (2, 0), "pr[dynamic]".into(), StateClass::Shared);
                }
            }
        }
        if matches!(op, MicroOp::TbFlushAll | MicroOp::TbFlushProc) {
            self.touch_reg(
                addr,
                (1, PrivReg::Tbia.number()),
                PrivReg::Tbia.mnemonic().into(),
                StateClass::PerCpuCandidate,
            );
        }
    }

    // ---- memory-region walk (obligation (c), memory side) ----

    /// Walks every reachable routine with a context-free abstract
    /// interpreter tracking how `MAR` is derived, and classifies every
    /// memory micro-op's target region. The microcode keeps its address
    /// derivations inside one routine (PCB traffic from `pcbb`, SCB
    /// traffic from `scbb`, trace traffic from `trptr`/`trlim`), so a
    /// per-routine walk with callee write havoc resolves every shipped
    /// access.
    fn walk_regions(&mut self, reachable: &[bool]) {
        let len = self.cs.len();
        let mut starts: Vec<u32> = (0..len)
            .filter(|&a| reachable[a as usize])
            .map(|a| self.map.routine_start(a).unwrap_or(a))
            .collect();
        starts.sort_unstable();
        starts.dedup();

        // Transitive per-routine write sets over the tracked slots, so a
        // micro-call havocs exactly what its callee may clobber.
        let mut direct: HashMap<u32, (Vec<usize>, Vec<u32>)> = HashMap::new();
        for &start in &starts {
            let end = self.map.routine_end(start, len);
            let mut wr: Vec<usize> = Vec::new();
            let mut callees: Vec<u32> = Vec::new();
            for addr in start..end {
                if !reachable[addr as usize] {
                    continue;
                }
                let op = self.cs.word(addr);
                for r in dataflow::writes(op) {
                    if let Some(i) = av_slot(r) {
                        if !wr.contains(&i) {
                            wr.push(i);
                        }
                    }
                }
                if let MicroOp::Call(t) = op {
                    let tgt = cfg::resolve(self.cs, t);
                    if tgt < len {
                        callees.push(self.map.routine_start(tgt).unwrap_or(tgt));
                    }
                }
            }
            direct.insert(start, (wr, callees));
        }
        let mut havoc: HashMap<u32, Vec<usize>> =
            starts.iter().map(|&s| (s, direct[&s].0.clone())).collect();
        loop {
            let mut changed = false;
            for &s in &starts {
                for c in direct[&s].1.clone() {
                    let add: Vec<usize> = havoc.get(&c).cloned().unwrap_or_default();
                    let set = havoc.get_mut(&s).expect("routine present");
                    for i in add {
                        if !set.contains(&i) {
                            set.push(i);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        for &start in &starts {
            let end = self.map.routine_end(start, len);
            let mut visited: HashSet<u32> = HashSet::new();
            let mut seed = Some(start);
            while let Some(entry) = seed {
                self.walk_routine(entry, start, end, &havoc, &mut visited);
                // Conservative fallback for words only enterable from
                // outside their routine (the shipped store has none).
                seed = (start..end).find(|&a| reachable[a as usize] && !visited.contains(&a));
            }
        }
    }

    /// One fixpoint walk inside `[lo, hi)` from `entry`, starting from
    /// all-Top state.
    fn walk_routine(
        &mut self,
        entry: u32,
        lo: u32,
        hi: u32,
        havoc: &HashMap<u32, Vec<usize>>,
        visited: &mut HashSet<u32>,
    ) {
        fn flow(
            states: &mut HashMap<u32, Vec<Av>>,
            work: &mut Vec<u32>,
            lo: u32,
            hi: u32,
            tgt: u32,
            st: &[Av],
        ) {
            if tgt < lo || tgt >= hi {
                return;
            }
            match states.get_mut(&tgt) {
                Some(old) => {
                    let mut changed = false;
                    for (o, &n) in old.iter_mut().zip(st) {
                        let j = o.join(n);
                        if j != *o {
                            *o = j;
                            changed = true;
                        }
                    }
                    if changed {
                        work.push(tgt);
                    }
                }
                None => {
                    states.insert(tgt, st.to_vec());
                    work.push(tgt);
                }
            }
        }

        let mut states: HashMap<u32, Vec<Av>> = HashMap::new();
        let mut work: Vec<u32> = vec![entry];
        states.insert(entry, vec![Av::Top; AV_SLOTS]);
        while let Some(addr) = work.pop() {
            visited.insert(addr);
            let mut st = states[&addr].clone();
            let op = self.cs.word(addr);
            match op {
                MicroOp::Mov { src, dst } => {
                    let v = av_eval(&st, src);
                    av_set(&mut st, dst, v);
                }
                MicroOp::Alu {
                    op: alu,
                    a,
                    b,
                    dst,
                    size,
                    ..
                } => {
                    let av = av_eval(&st, a);
                    let bv = av_eval(&st, b);
                    let long = size == atum_arch::DataSize::Long;
                    let v = match alu {
                        AluOp::Add if long => av.add(bv),
                        AluOp::Sub if long => av.sub(bv),
                        _ => Av::Top,
                    };
                    av_set(&mut st, dst, v);
                }
                MicroOp::ReadPr { num, dst } => {
                    let v = match num {
                        MicroReg::Imm(n) => Av::PrOff {
                            pr: n,
                            off: Some(0),
                        },
                        _ => Av::Top,
                    };
                    av_set(&mut st, dst, v);
                }
                MicroOp::PhysRead | MicroOp::PhysWrite => {
                    let region = match av_eval(&st, MicroReg::Mar) {
                        Av::PrOff { pr, .. } => Region::of_base(pr),
                        _ => Region::Unclassified,
                    };
                    self.touch_region(addr, region);
                    if op == MicroOp::PhysRead {
                        av_set(&mut st, MicroReg::Mdr, Av::Top);
                    }
                }
                MicroOp::Read { .. } => {
                    self.touch_region(addr, Region::VirtualSpace);
                    av_set(&mut st, MicroReg::Mdr, Av::Top);
                }
                MicroOp::Write { .. } => self.touch_region(addr, Region::VirtualSpace),
                MicroOp::Call(t) => {
                    let tgt = cfg::resolve(self.cs, t);
                    let callee = self.map.routine_start(tgt).unwrap_or(tgt);
                    match havoc.get(&callee) {
                        Some(set) => {
                            for &i in set {
                                st[i] = Av::Top;
                            }
                        }
                        None => st.iter_mut().for_each(|v| *v = Av::Top),
                    }
                }
                _ => {}
            }
            match op {
                MicroOp::Jump(t) => flow(
                    &mut states,
                    &mut work,
                    lo,
                    hi,
                    cfg::resolve(self.cs, t),
                    &st,
                ),
                MicroOp::JumpIf { target, .. } => {
                    flow(
                        &mut states,
                        &mut work,
                        lo,
                        hi,
                        cfg::resolve(self.cs, target),
                        &st,
                    );
                    flow(&mut states, &mut work, lo, hi, addr + 1, &st);
                }
                _ => {
                    if cfg::falls_through(op) {
                        flow(&mut states, &mut work, lo, hi, addr + 1, &st);
                    }
                }
            }
        }
    }

    fn check_spill_conflicts(&mut self) {
        let conflicts: Vec<(i64, Vec<(String, u32)>)> = self
            .spill_writers
            .iter()
            .filter(|(_, v)| v.len() > 1)
            .map(|(&off, v)| (off, v.clone()))
            .collect();
        for (off, writers) in conflicts {
            let names: Vec<&str> = writers.iter().map(|(n, _)| n.as_str()).collect();
            let addr = writers.last().expect("non-empty").1;
            self.sink.emit(
                addr,
                Severity::Error,
                format!(
                    "spill-line scratch at trlim{off:+} is written by {} — nested hooks would clobber each other's saved state",
                    names.join(" and ")
                ),
            );
        }
    }
}

/// Obligations (a) and (b): the atomicity pass as a client of the hook
/// walker, with every `Halt` a drain window.
impl hook::Client for Analysis<'_> {
    const HALT_DRAINS: bool = true;

    /// Obligation (a): no fault window over live hook state. A fault
    /// diverts into the (hooked) exception dispatch, whose hook clobbers
    /// the patch scratch and the saved MAR/MDR this hook still needs.
    fn word(&mut self, addr: u32, op: MicroOp, st: &State) {
        if cfg::can_fault(op) {
            let live: Vec<String> = (0..8)
                .filter(|&i| st.regs[i] != AbsVal::Top)
                .map(|i| format!("p{i}"))
                .collect();
            let live = if live.is_empty() {
                "the patch scratch".to_string()
            } else {
                format!("live patch scratch ({})", live.join(", "))
            };
            self.sink.emit(
                addr,
                Severity::Error,
                format!(
                    "fault-permissible point inside a hook: a fault here re-enters the trace hooks and clobbers {live} and the saved mar/mdr"
                ),
            );
        } else if op == MicroOp::DecodeNext {
            self.sink.emit(
                addr,
                Severity::Error,
                "instruction boundary inside a hook opens an interrupt window over live patch scratch".into(),
            );
        }
    }

    /// A physical store inside a hook must land in the proven record
    /// window at `TRPTR` — before the advance — or in the spill line at
    /// `TRLIM` (which is then checked for cross-routine conflicts).
    fn store(&mut self, addr: u32, st: &mut State) {
        match st.eval(MicroReg::Mar) {
            AbsVal::Pr { pr, off } if pr == PrivReg::Trptr.number() => {
                if st.checked >= RECORD_BYTES
                    && off >= 0
                    && off % 4 == 0
                    && off <= st.checked - 4
                {
                    if off / 4 < 32 {
                        st.stored |= 1u32 << (off / 4);
                    }
                } else {
                    self.sink.emit(
                        addr,
                        Severity::Error,
                        format!(
                            "record store at trptr{off:+} is not covered by headroom proven since the last drain window (proven: {} bytes)",
                            st.checked
                        ),
                    );
                }
            }
            AbsVal::Pr { pr, off }
                if pr == PrivReg::Trlim.number() && (0..=SPILL_LINE_BYTES - 4).contains(&off) =>
            {
                let routine = self
                    .map
                    .routine_start(addr)
                    .map(|s| self.map.name(s))
                    .unwrap_or_else(|| format!("@{addr:#06x}"));
                let writers = self.spill_writers.entry(off).or_default();
                if !writers.iter().any(|(n, _)| *n == routine) {
                    writers.push((routine, addr));
                }
            }
            other => self.sink.emit(
                addr,
                Severity::Error,
                format!(
                    "hook store through {} is outside the trace-pointer protocol (record window or spill line)",
                    other.describe(false)
                ),
            ),
        }
    }

    /// The `TRPTR` advance: the hook's single linearization point. The
    /// published pointer must be derived from the current round's
    /// pointer read, stay inside the proven headroom, and every record
    /// longword it publishes must have been stored on *every* path here.
    fn advance(&mut self, addr: u32, st: &State, src: MicroReg) {
        match st.eval(src) {
            AbsVal::Pr { pr, off } if pr == PrivReg::Trptr.number() => {
                if off <= 0 {
                    self.sink.emit(
                        addr,
                        Severity::Error,
                        format!("trptr advance by {off} bytes does not move the pointer past the record"),
                    );
                } else if off % 4 != 0 {
                    self.sink.emit(
                        addr,
                        Severity::Error,
                        format!("trptr advance by {off} bytes is not longword-aligned"),
                    );
                } else if off > st.checked {
                    self.sink.emit(
                        addr,
                        Severity::Error,
                        format!(
                            "trptr advanced by {off} bytes but only {} bytes of headroom are proven",
                            st.checked
                        ),
                    );
                } else {
                    let lw = off / 4;
                    let need = if lw >= 32 { u32::MAX } else { (1u32 << lw) - 1 };
                    if st.stored & need != need {
                        self.sink.emit(
                            addr,
                            Severity::Error,
                            format!(
                                "trptr advanced by {off} bytes over record longwords no store has written on every path — a drain here would publish a torn record"
                            ),
                        );
                    }
                }
            }
            other => self.sink.emit(
                addr,
                Severity::Error,
                format!(
                    "trptr advanced to {}, which is not derived from the current trptr read",
                    other.describe(false)
                ),
            ),
        }
    }
}

// ---- abstract values for the region walk ----

/// Tracked slots: `T0`–`T15`, `P0`–`P7`, `MAR`, `MDR`.
const AV_SLOTS: usize = 26;

fn av_slot(r: MicroReg) -> Option<usize> {
    match r {
        MicroReg::T(n) if n < 16 => Some(n as usize),
        MicroReg::P(n) if n < 8 => Some(16 + n as usize),
        MicroReg::Mar => Some(24),
        MicroReg::Mdr => Some(25),
        _ => None,
    }
}

/// Abstract value for the region walk: a privileged-register base plus a
/// possibly unknown byte offset. The PCB save/restore loops compute
/// their offsets through the junk register, so "`pcbb` plus *something*"
/// must survive where a constant offset cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Av {
    Top,
    Const(u32),
    PrOff { pr: u32, off: Option<i64> },
}

impl Av {
    fn join(self, other: Av) -> Av {
        if self == other {
            return self;
        }
        match (self, other) {
            (Av::PrOff { pr: a, .. }, Av::PrOff { pr: b, .. }) if a == b => {
                Av::PrOff { pr: a, off: None }
            }
            _ => Av::Top,
        }
    }

    fn add(self, other: Av) -> Av {
        match (self, other) {
            (Av::Const(x), Av::Const(y)) => Av::Const(x.wrapping_add(y)),
            (Av::PrOff { pr, off }, Av::Const(c)) | (Av::Const(c), Av::PrOff { pr, off }) => {
                Av::PrOff {
                    pr,
                    off: off.map(|o| o + c as i64),
                }
            }
            (Av::PrOff { pr, .. }, Av::Top) | (Av::Top, Av::PrOff { pr, .. }) => {
                Av::PrOff { pr, off: None }
            }
            _ => Av::Top,
        }
    }

    fn sub(self, other: Av) -> Av {
        match (self, other) {
            (Av::Const(x), Av::Const(y)) => Av::Const(x.wrapping_sub(y)),
            (Av::PrOff { pr, off }, Av::Const(c)) => Av::PrOff {
                pr,
                off: off.map(|o| o - c as i64),
            },
            _ => Av::Top,
        }
    }
}

fn av_eval(st: &[Av], r: MicroReg) -> Av {
    match r {
        MicroReg::Imm(v) => Av::Const(v),
        _ => av_slot(r).map_or(Av::Top, |i| st[i]),
    }
}

fn av_set(st: &mut [Av], r: MicroReg, v: Av) {
    if let Some(i) = av_slot(r) {
        st[i] = v;
    }
}
