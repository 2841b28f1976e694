//! The hook walker: hook detection plus the one abstract interpreter
//! over an installed hook's closure, shared by the
//! [`transparency`](crate::transparency) and
//! [`atomicity`](crate::atomicity) passes.
//!
//! * **hook detection** — any entry slot, opcode-dispatch slot or
//!   specifier-dispatch slot pointing into the patch region
//!   (`addr >= stock_len`) is an installed hook ([`detect_hooks`]). The
//!   displaced stock target is recovered from the store's own symbol
//!   table ([`Entry::symbol`] for entry hooks, the `i.<mnemonic>`
//!   convention for opcode hooks);
//! * **the state** — a context-sensitive worklist over `(call frames,
//!   micro-address)` keys tracks how each of `P0`–`P7`, `MAR` and `MDR`
//!   was derived (a `TRPTR`- or `TRLIM`-relative snapshot, a constant,
//!   the caller's value, unknown), the operands of the last longword
//!   `Sub`, the headroom `TRLIM − TRPTR` a carry test on that compare
//!   proves, the record longwords stored since the round's `TRPTR`
//!   read, and whether the round's `TRPTR` advance has happened. A write
//!   to `TRPTR` or `TRLIM` forgets that register's snapshots, the pending
//!   compare and the headroom proof;
//! * **one edge policy** — the walk follows jumps and fall-throughs
//!   inside the current routine, micro-calls into the patch region below
//!   a fixed depth, and returns into the caller's routine. Every other
//!   edge (a rejoin into stock, an escape into another routine, a fall
//!   off the end, a call out of the patch region, …) is handed to the
//!   pass as an event, and the walk goes no further along it.
//!
//! A pass supplies its per-word checks, its handling of a physical store
//! and of a `TRPTR` advance, what it makes of the edges the walk does not
//! follow, and one choice: whether a `Halt` is the buffer-full drain
//! window that makes the pointer proofs stale (atomicity) or just a pause
//! an undisturbed run resumes from (transparency).

use crate::cfg::SymbolMap;
use crate::{Finding, Pass, Severity};
use atum_arch::{DataSize, Opcode, PrivReg};
use atum_ucode::{AluOp, ControlStore, Entry, MicroCond, MicroOp, MicroReg, SpecTable, Target};
use std::collections::{HashMap, HashSet};

/// Bytes of each trace record (two longwords).
pub(crate) const RECORD_BYTES: i64 = 8;
/// Bytes of the reserved spill scratch line at `TRLIM` (eight longwords;
/// the tracer reserves them when a spill-style patch is installed).
pub(crate) const SPILL_LINE_BYTES: i64 = 32;
/// Micro-call depth bound inside a patch (the real micro-stack is
/// shallow; anything deeper is a runaway).
pub(crate) const MAX_CALL_DEPTH: usize = 8;

/// Which patchable slot a hook occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookSlot {
    /// An entry-table slot.
    Entry(Entry),
    /// An opcode-dispatch slot.
    Opcode(u8),
    /// A specifier-dispatch slot (table, high nibble).
    Spec(SpecTable, u8),
}

/// An installed hook: a patchable slot re-pointed into the patch region.
#[derive(Debug, Clone)]
pub struct Hook {
    /// The slot, in typed form (the cost pass keys per-reference-class
    /// weighting off this).
    pub slot: HookSlot,
    /// Human description of the slot (`entry XferRead`, `opcode ldpctx`).
    pub desc: String,
    /// Patch-region address the slot points at.
    pub patch_addr: u32,
    /// The displaced stock target, when it can be recovered from the
    /// symbol table.
    pub expected: Option<u32>,
    /// Name of the displaced stock routine (for messages).
    pub expected_name: String,
    /// Whether the hook runs with a live datapath, requiring `MAR`/`MDR`
    /// to be provably restored at the rejoin (true for the transfer
    /// hooks, which are micro-called mid-instruction).
    pub restore_datapath: bool,
}

/// Finds every slot currently pointing into the patch region.
pub fn detect_hooks(cs: &ControlStore) -> Vec<Hook> {
    let stock_len = cs.stock_len();
    let mut out = Vec::new();
    for e in Entry::ALL {
        let t = cs.entry(e);
        if t >= stock_len && t < cs.len() {
            out.push(Hook {
                slot: HookSlot::Entry(e),
                desc: format!("entry {e:?}"),
                patch_addr: t,
                expected: cs.symbol(e.symbol()),
                expected_name: e.symbol().to_string(),
                restore_datapath: matches!(
                    e,
                    Entry::XferRead | Entry::XferWrite | Entry::XferIFetch
                ),
            });
        }
    }
    for b in 0..=255u8 {
        let t = cs.opcode_target(b);
        if t >= stock_len && t < cs.len() {
            let (expected, name) = match Opcode::from_byte(b) {
                Some(op) => {
                    let sym = format!("i.{}", op.mnemonic());
                    (cs.symbol(&sym), sym)
                }
                None => (Some(cs.fault_addr()), "<reserved-instruction fault>".into()),
            };
            out.push(Hook {
                slot: HookSlot::Opcode(b),
                desc: format!("opcode {b:#04x}"),
                patch_addr: t,
                expected,
                expected_name: name,
                restore_datapath: false,
            });
        }
    }
    for table in [
        SpecTable::Read,
        SpecTable::Write,
        SpecTable::Modify,
        SpecTable::Addr,
    ] {
        for nibble in 0..16u8 {
            let t = cs.spec_target(table, nibble);
            if t >= stock_len && t < cs.len() {
                out.push(Hook {
                    slot: HookSlot::Spec(table, nibble),
                    desc: format!("spec {table:?}/{nibble:#x}"),
                    patch_addr: t,
                    expected: None,
                    expected_name: "the stock specifier flow".into(),
                    restore_datapath: false,
                });
            }
        }
    }
    out
}

/// One pass's findings, deduplicated by address and message and named
/// through the symbol map.
pub(crate) struct Sink<'a> {
    pub(crate) map: &'a SymbolMap,
    pass: Pass,
    emitted: HashSet<(u32, String)>,
    pub(crate) findings: Vec<Finding>,
}

impl<'a> Sink<'a> {
    pub(crate) fn new(map: &'a SymbolMap, pass: Pass) -> Sink<'a> {
        Sink {
            map,
            pass,
            emitted: HashSet::new(),
            findings: Vec::new(),
        }
    }

    pub(crate) fn emit(&mut self, addr: u32, severity: Severity, message: String) {
        if self.emitted.insert((addr, message.clone())) {
            self.findings.push(Finding {
                pass: self.pass,
                severity,
                symbol: self.map.name(addr),
                addr,
                message,
            });
        }
    }
}

/// Abstract value: how a datapath register's contents were derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AbsVal {
    /// Unknown.
    Top,
    /// A known constant.
    Const(u32),
    /// The hook caller's value of the given register (live at entry).
    Init(MicroReg),
    /// A snapshot of privileged register `pr` plus a byte offset.
    Pr { pr: u32, off: i64 },
}

impl AbsVal {
    fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            self
        } else {
            AbsVal::Top
        }
    }

    /// The derivation in words; `address` words an unknown or constant
    /// value as an address.
    pub(crate) fn describe(self, address: bool) -> String {
        match self {
            AbsVal::Top if address => "an unknown address".into(),
            AbsVal::Top => "an unknown value".into(),
            AbsVal::Const(c) if address => format!("constant address {c:#x}"),
            AbsVal::Const(c) => format!("constant {c:#x}"),
            AbsVal::Init(r) => format!("the caller's {r}"),
            AbsVal::Pr { pr, off } => match PrivReg::from_number(pr) {
                Some(p) => format!("{}{off:+}", p.mnemonic()),
                None => format!("pr[{pr}]{off:+}"),
            },
        }
    }
}

/// Tracked registers: `P0`–`P7`, `MAR`, `MDR`.
pub(crate) fn slot(r: MicroReg) -> Option<usize> {
    match r {
        MicroReg::P(n) if n < 8 => Some(n as usize),
        MicroReg::Mar => Some(8),
        MicroReg::Mdr => Some(9),
        _ => None,
    }
}

/// Abstract machine state along one path through a hook.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct State {
    /// `P0`–`P7`, `MAR`, `MDR`, indexed by [`slot`].
    pub(crate) regs: [AbsVal; 10],
    /// Operands of the last longword `Sub` (micro-carry = borrow =
    /// `a < b`).
    cmp: Option<(AbsVal, AbsVal)>,
    /// Headroom proven in this round: `TRLIM − TRPTR ≥ checked` held at
    /// the last carry test, and neither register was written since (nor,
    /// where a `Halt` drains, did a drain window pass).
    pub(crate) checked: i64,
    /// Record longwords (relative to the round's pointer read) written
    /// on every path reaching this point.
    pub(crate) stored: u32,
    /// Whether this round's `TRPTR` advance has already happened.
    pub(crate) advanced: bool,
}

impl State {
    fn entry() -> State {
        let mut regs = [AbsVal::Top; 10];
        regs[8] = AbsVal::Init(MicroReg::Mar);
        regs[9] = AbsVal::Init(MicroReg::Mdr);
        State {
            regs,
            cmp: None,
            checked: 0,
            stored: 0,
            advanced: false,
        }
    }

    fn join(&self, other: &State) -> State {
        let mut regs = [AbsVal::Top; 10];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = self.regs[i].join(other.regs[i]);
        }
        State {
            regs,
            cmp: match (self.cmp, other.cmp) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            checked: self.checked.min(other.checked),
            stored: self.stored & other.stored,
            advanced: self.advanced || other.advanced,
        }
    }

    pub(crate) fn eval(&self, r: MicroReg) -> AbsVal {
        match r {
            MicroReg::Imm(v) => AbsVal::Const(v),
            _ => slot(r).map_or(AbsVal::Top, |i| self.regs[i]),
        }
    }

    fn set(&mut self, r: MicroReg, v: AbsVal) {
        if let Some(i) = slot(r) {
            self.regs[i] = v;
        }
    }

    /// Forgets every snapshot of `pr`, the pending compare and the
    /// headroom proof: all of them refer to the register's old value.
    fn forget(&mut self, pr: PrivReg) {
        for r in self.regs.iter_mut() {
            if matches!(r, AbsVal::Pr { pr: p, .. } if *p == pr.number()) {
                *r = AbsVal::Top;
            }
        }
        self.checked = 0;
        self.cmp = None;
    }

    /// The states on the taken and the fall-through edge of a
    /// conditional jump on `cond`. After a compare of `TRLIM + a` with
    /// `TRPTR + b`, the no-borrow side proves `TRLIM − TRPTR ≥ b − a`.
    fn refine(self, cond: MicroCond) -> (State, State) {
        let (mut taken, mut fallen) = (self.clone(), self);
        if let Some((AbsVal::Pr { pr: pa, off: ao }, AbsVal::Pr { pr: pb, off: bo })) = taken.cmp {
            if pa == PrivReg::Trlim.number() && pb == PrivReg::Trptr.number() {
                let headroom = bo - ao;
                match cond {
                    MicroCond::UCarry => fallen.checked = fallen.checked.max(headroom),
                    MicroCond::UNoCarry => taken.checked = taken.checked.max(headroom),
                    _ => {}
                }
            }
        }
        (taken, fallen)
    }
}

/// An edge the walk does not follow, handed to the pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Edge {
    /// A jump, or a micro-call (`call`), through a patchable entry slot.
    Slot { entry: Entry, call: bool },
    /// A jump into stock microcode at the address: the hook's rejoin.
    Rejoin(u32),
    /// A jump to a patch address outside the current routine.
    Escape(u32),
    /// A fall-through past the end of the routine starting at the
    /// address.
    FallOff(u32),
    /// A micro-call into stock microcode at the address.
    CallStock(u32),
    /// A micro-call target outside the store.
    CallOutside(u32),
    /// A micro-call already [`MAX_CALL_DEPTH`] frames deep.
    TooDeep,
    /// A return past the end of the caller's routine, which starts at
    /// the address.
    RetPast(u32),
    /// A return out of the hook's own routine, to its micro-caller.
    RetToCaller,
}

/// What a pass adds to the walk.
pub(crate) trait Client {
    /// Whether a `Halt` is the buffer-full drain window. The host may
    /// reset `TRPTR` while the engine is halted, so every pointer
    /// snapshot, the headroom proof and the stored-longword evidence
    /// are stale on resume.
    const HALT_DRAINS: bool;

    /// Checks one word against the state the walk enters it with.
    fn word(&mut self, addr: u32, op: MicroOp, st: &State);

    /// A `PhysWrite` through `MAR`.
    fn store(&mut self, addr: u32, st: &mut State);

    /// A `TRPTR` write of `src`, before the walk forgets the old round.
    fn advance(&mut self, _addr: u32, _st: &State, _src: MicroReg) {}

    /// An edge the walk does not follow.
    fn edge(&mut self, _addr: u32, _edge: Edge, _st: &State) {}
}

/// A call frame: the routine extent being executed and, for callees, the
/// return address in the caller.
type Frame = (u32, u32, Option<u32>);

/// Walks the closure of the hook entered at `entry`, handing every word,
/// store, advance and unfollowed edge to `client`.
pub(crate) fn walk<C: Client>(cs: &ControlStore, map: &SymbolMap, entry: u32, client: &mut C) {
    let mut w = Walk {
        cs,
        map,
        client,
        states: HashMap::new(),
        work: Vec::new(),
    };
    let (start, end) = w.extent(entry);
    w.flow(vec![(start, end, None)], entry, State::entry());
    while let Some((ctx, addr)) = w.work.pop() {
        w.step(ctx, addr);
    }
}

struct Walk<'a, C> {
    cs: &'a ControlStore,
    map: &'a SymbolMap,
    client: &'a mut C,
    states: HashMap<(Vec<Frame>, u32), State>,
    work: Vec<(Vec<Frame>, u32)>,
}

impl<C: Client> Walk<'_, C> {
    /// The routine holding `addr`, as `[start, end)`.
    fn extent(&self, addr: u32) -> (u32, u32) {
        let start = self.map.routine_start(addr).unwrap_or(addr);
        (start, self.map.routine_end(start, self.cs.len()))
    }

    /// Joins `st` into the state at `(ctx, addr)`, re-queueing the key
    /// when that state changes.
    fn flow(&mut self, ctx: Vec<Frame>, addr: u32, mut st: State) {
        let key = (ctx, addr);
        if let Some(old) = self.states.get(&key) {
            st = old.join(&st);
            if st == *old {
                return;
            }
        }
        self.states.insert(key.clone(), st);
        self.work.push(key);
    }

    fn step(&mut self, ctx: Vec<Frame>, addr: u32) {
        let op = self.cs.word(addr);
        let mut st = self.states[&(ctx.clone(), addr)].clone();
        self.client.word(addr, op, &st);
        self.apply(addr, op, &mut st);
        match op {
            MicroOp::Jump(t) => self.jump(&ctx, addr, t, st),
            MicroOp::JumpIf { cond, target } => {
                let (taken, fallen) = st.refine(cond);
                self.jump(&ctx, addr, target, taken);
                self.fall(ctx, addr, fallen);
            }
            MicroOp::Call(t) => self.call(ctx, addr, t, st),
            MicroOp::Ret => self.ret(ctx, addr, st),
            MicroOp::DecodeNext
            | MicroOp::Fault(_)
            | MicroOp::DispatchOpcode
            | MicroOp::DispatchSpec(_) => {}
            _ => self.fall(ctx, addr, st),
        }
    }

    /// The word's data effect, with the pass's store and advance checks.
    fn apply(&mut self, addr: u32, op: MicroOp, st: &mut State) {
        match op {
            MicroOp::Mov { src, dst } => {
                let v = st.eval(src);
                st.set(dst, v);
            }
            MicroOp::Alu {
                op: alu,
                a,
                b,
                dst,
                size,
                ..
            } => {
                let (av, bv) = (st.eval(a), st.eval(b));
                let long = size == DataSize::Long;
                let val = match alu {
                    AluOp::Add if long => match (av, bv) {
                        (AbsVal::Const(x), AbsVal::Const(y)) => AbsVal::Const(x.wrapping_add(y)),
                        (AbsVal::Pr { pr, off }, AbsVal::Const(c))
                        | (AbsVal::Const(c), AbsVal::Pr { pr, off }) => AbsVal::Pr {
                            pr,
                            off: off + c as i64,
                        },
                        _ => AbsVal::Top,
                    },
                    AluOp::Sub if long => match (av, bv) {
                        (AbsVal::Const(x), AbsVal::Const(y)) => AbsVal::Const(x.wrapping_sub(y)),
                        (AbsVal::Pr { pr, off }, AbsVal::Const(c)) => AbsVal::Pr {
                            pr,
                            off: off - c as i64,
                        },
                        _ => AbsVal::Top,
                    },
                    _ => AbsVal::Top,
                };
                st.cmp = (alu == AluOp::Sub && long).then_some((av, bv));
                st.set(dst, val);
            }
            MicroOp::ReadPr { num, dst } => {
                let v = match st.eval(num) {
                    AbsVal::Const(n) => {
                        if n == PrivReg::Trptr.number() {
                            // A fresh pointer read starts a new protocol
                            // round: a later advance is that round's own
                            // linearization point.
                            st.advanced = false;
                        }
                        AbsVal::Pr { pr: n, off: 0 }
                    }
                    _ => AbsVal::Top,
                };
                st.set(dst, v);
            }
            MicroOp::PhysRead => st.set(MicroReg::Mdr, AbsVal::Top),
            MicroOp::PhysWrite => self.client.store(addr, st),
            MicroOp::WritePr { num, src } => match st.eval(num) {
                AbsVal::Const(n) if n == PrivReg::Trptr.number() => {
                    self.client.advance(addr, st, src);
                    // The pointer moved: no further record store may
                    // follow this round.
                    st.forget(PrivReg::Trptr);
                    st.stored = 0;
                    st.advanced = true;
                }
                AbsVal::Const(n) if n == PrivReg::Trlim.number() => st.forget(PrivReg::Trlim),
                _ => {}
            },
            MicroOp::Halt if C::HALT_DRAINS => {
                // The drain window: the host may have reset the pointer.
                st.forget(PrivReg::Trptr);
                st.stored = 0;
            }
            _ => {}
        }
    }

    /// A jump from `addr`: followed inside the current routine, an edge
    /// for the pass otherwise.
    fn jump(&mut self, ctx: &[Frame], addr: u32, target: Target, st: State) {
        let (start, end, _) = *ctx.last().expect("non-empty context");
        let edge = match target {
            Target::Entry(entry) => Edge::Slot { entry, call: false },
            Target::Abs(t) if t < self.cs.stock_len() => Edge::Rejoin(t),
            // Out of the store: the structural pass reports it.
            Target::Abs(t) if t >= self.cs.len() => return,
            Target::Abs(t) if (start..end).contains(&t) => return self.flow(ctx.to_vec(), t, st),
            Target::Abs(t) => Edge::Escape(t),
        };
        self.client.edge(addr, edge, &st);
    }

    /// A micro-call from `addr`: followed into the patch region below
    /// the depth bound, an edge for the pass otherwise.
    fn call(&mut self, mut ctx: Vec<Frame>, addr: u32, target: Target, st: State) {
        let edge = match target {
            Target::Entry(entry) => Edge::Slot { entry, call: true },
            Target::Abs(t) if t < self.cs.stock_len() => Edge::CallStock(t),
            Target::Abs(t) if t >= self.cs.len() => Edge::CallOutside(t),
            Target::Abs(_) if ctx.len() >= MAX_CALL_DEPTH => Edge::TooDeep,
            Target::Abs(t) => {
                let (start, end) = self.extent(t);
                ctx.push((start, end, Some(addr + 1)));
                return self.flow(ctx, t, st);
            }
        };
        self.client.edge(addr, edge, &st);
    }

    /// A return from `addr`: followed into the caller's routine, an edge
    /// for the pass otherwise.
    fn ret(&mut self, mut ctx: Vec<Frame>, addr: u32, st: State) {
        let edge = match ctx.pop() {
            Some((.., Some(back))) => {
                let (start, end, _) = *ctx.last().expect("caller frame");
                if (start..end).contains(&back) {
                    return self.flow(ctx, back, st);
                }
                Edge::RetPast(start)
            }
            _ => Edge::RetToCaller,
        };
        self.client.edge(addr, edge, &st);
    }

    /// The fall-through from `addr`: followed inside the current routine,
    /// an edge for the pass past its end.
    fn fall(&mut self, ctx: Vec<Frame>, addr: u32, st: State) {
        let (start, end, _) = *ctx.last().expect("non-empty context");
        if (start..end).contains(&(addr + 1)) {
            self.flow(ctx, addr + 1, st);
        } else {
            self.client.edge(addr, Edge::FallOff(start), &st);
        }
    }
}
