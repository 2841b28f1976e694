//! The micro-engine: executes micro-ops from the control store.
//!
//! One `match` arm per [`MicroOp`]. Cycle accounting comes from the shared
//! model in [`atum_ucode::cost`]: memory micro-ops cost
//! `BASE + MEM_EXTRA` (= 2) microcycles, PTE-walk reads `PTE_READ` (= 2)
//! each, everything else `BASE` (= 1) — a deliberately simple model, but
//! patched-vs-stock *ratios* (the paper's slowdown numbers) are
//! insensitive to the absolute constants. The static cost pass in
//! `atum-mclint` sums the same constants over control-store paths, so its
//! bounds are bounds on what these engines report.
//!
//! Two interpreters share this accounting model and all architectural
//! helpers:
//!
//! * the **reference engine** ([`Machine::step_micro`]) re-reads the
//!   control store word by word and decodes every operand selector per
//!   microcycle — slow, obviously correct, kept as the oracle;
//! * the **fast engine** (`Machine::run_fast_inner`) runs the
//!   predecoded [`DecOp`] image (see [`crate::fast`]), probes the
//!   translation micro-cache before [`Machine::translate`], and uses the
//!   single-bounds-check longword accessors of [`PhysMemory`].
//!
//! Every fast-path shortcut is cycle-neutral by construction: a
//! micro-cache hit is exactly a TB hit (and is recorded as one), the
//! aligned longword accessors fail on exactly the addresses the byte-loop
//! accessors fail on, and the predecoded image resolves only indirections
//! that cannot change while the store version is constant. The
//! differential suite in `crates/bench/tests/fast_equiv.rs` runs both
//! engines in lockstep to pin the equivalence.
//!
//! [`PhysMemory`]: crate::PhysMemory

use crate::fast::{
    DecOp, Dst, Refill, Src, IB_REFILL_CYCLES, IB_SERVE_CYCLES, IFETCH_HOOK_KERNEL_CYCLES,
    IFETCH_HOOK_OFF_CYCLES, IFETCH_HOOK_USER_CYCLES, IFETCH_SEED, LOGGER_KERNEL_CYCLES,
    LOGGER_USER_CYCLES, META_KERNEL_BIT, META_PID_SHIFT, TRCTL_ENABLE, TRCTL_PID_MASK,
    TRCTL_PID_SHIFT,
};
use crate::mmu::{self, AccessKind};
use crate::regs::{latch_slot, slots, UFlags};
use crate::Machine;
use atum_arch::exc::{ArithKind, ScbVector, IPL_TIMER};
use atum_arch::mem::PAGE_OFFSET_MASK;
use atum_arch::{
    DataSize, Exception, ExceptionClass, PrivReg, Psl, Region, VirtAddr, PAGE_SHIFT, PAGE_SIZE,
};
use atum_ucode::{
    cost, AluOp, CcEffect, Entry, FaultKind, MicroCond, MicroOp, MicroReg, RefClass, SizeSel,
    Target,
};

/// Maximum micro-subroutine nesting (also the inline micro-stack's
/// backing-array size; the stack pointer is `Machine::usp`).
pub(crate) const MICRO_STACK_LIMIT: usize = 64;

/// How a [`Machine::run`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The `halt` micro-op executed (HALT instruction, or a patch halting
    /// for host service, e.g. trace-buffer full).
    Halted,
    /// The cycle budget ran out.
    CycleLimit,
    /// Unrecoverable: a third nested exception during exception entry.
    TripleFault,
    /// Unrecoverable micro-architecture error (bad microcode).
    MicroError(&'static str),
}

impl std::fmt::Display for RunExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunExit::Halted => f.write_str("halted"),
            RunExit::CycleLimit => f.write_str("cycle limit reached"),
            RunExit::TripleFault => f.write_str("triple fault"),
            RunExit::MicroError(m) => write!(f, "micro-architecture error: {m}"),
        }
    }
}

/// Reference and event counters — the "hardware monitor" view used by the
/// slowdown and completeness accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCounts {
    /// Instruction-stream longword fetches.
    pub ifetch: u64,
    /// Data reads.
    pub data_reads: u64,
    /// Data writes.
    pub data_writes: u64,
    /// PTE reads performed by the hardware walker.
    pub pte_reads: u64,
    /// Exceptions taken (faults and traps).
    pub exceptions: u64,
    /// Interrupts delivered.
    pub interrupts: u64,
}

impl RefCounts {
    /// Total architectural memory references (I + D).
    pub fn total_refs(&self) -> u64 {
        self.ifetch + self.data_reads + self.data_writes
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AluFlags {
    pub(crate) z: bool,
    pub(crate) n: bool,
    pub(crate) c: bool,
    pub(crate) v: bool,
    pub(crate) divz: bool,
}

impl Machine {
    /// Executes micro-ops until halt, a fatal condition, or `max_cycles`
    /// additional microcycles have elapsed.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let deadline = self.cycles.saturating_add(max_cycles);
        if self.tier == crate::EngineTier::Reference {
            loop {
                if self.halted {
                    return RunExit::Halted;
                }
                if self.cycles >= deadline {
                    return RunExit::CycleLimit;
                }
                if let Some(exit) = self.step_micro() {
                    if exit == RunExit::Halted {
                        self.halted = true;
                    }
                    return exit;
                }
            }
        }
        if self.halted {
            return RunExit::Halted;
        }
        // An instruction target of u64::MAX never triggers, so the fast
        // loop always produces a real exit here.
        let exit = self
            .run_fast(deadline, u64::MAX)
            .unwrap_or(RunExit::CycleLimit);
        if exit == RunExit::Halted {
            self.halted = true;
        }
        exit
    }

    /// Runs until `n` more architectural instructions complete (or another
    /// exit happens first). Returns the exit if one occurred. The
    /// instruction target saturates, so `n = u64::MAX` sets no limit.
    pub fn step_insns(&mut self, n: u64, max_cycles: u64) -> Option<RunExit> {
        let target = self.insns.saturating_add(n);
        let deadline = self.cycles.saturating_add(max_cycles);
        if self.tier == crate::EngineTier::Reference {
            while self.insns < target {
                if self.halted {
                    return Some(RunExit::Halted);
                }
                if self.cycles >= deadline {
                    return Some(RunExit::CycleLimit);
                }
                if let Some(exit) = self.step_micro() {
                    if exit == RunExit::Halted {
                        self.halted = true;
                    }
                    return Some(exit);
                }
            }
            return None;
        }
        if self.insns >= target {
            return None;
        }
        if self.halted {
            return Some(RunExit::Halted);
        }
        let exit = self.run_fast(deadline, target);
        if exit == Some(RunExit::Halted) {
            self.halted = true;
        }
        exit
    }

    /// Drives the fast engine until a real exit, the cycle deadline, or
    /// `insn_target` completed instructions (`None` return). The image is
    /// moved out of `self` for the duration so the hot loop can hold a
    /// direct slice reference while the architectural helpers still take
    /// `&mut self`.
    fn run_fast(&mut self, deadline: u64, insn_target: u64) -> Option<RunExit> {
        self.ensure_fast();
        let fast = std::mem::replace(&mut self.fast, crate::fast::FastImage::empty());
        let exit = self.run_fast_inner(&fast, deadline, insn_target);
        self.fast = fast;
        exit
    }

    /// The fast hot loop: the predecoded interpreter with the micro-PC
    /// and the cycle counter held in locals, synced to `self` around
    /// every helper that can observe or modify them — the virtual memory
    /// ops (a PTE walk charges cycles), exception entry (rewrites the
    /// micro-PC), the instruction boundary (timer check reads cycles),
    /// and privileged-register writes (ICCS/ICR arm the timer relative
    /// to the current cycle).
    ///
    /// Check order per micro-op matches the reference loops in
    /// [`Machine::run`]/[`Machine::step_insns`] exactly: instruction
    /// target first (`None`), then the cycle deadline, then one
    /// predecoded step.
    fn run_fast_inner(
        &mut self,
        fast: &crate::fast::FastImage,
        deadline: u64,
        insn_target: u64,
    ) -> Option<RunExit> {
        let mut upc = self.upc;
        let mut cycles = self.cycles;
        let mut usp = self.usp;
        let mut uf = self.regs.uflags;
        // Mirror the loop locals into `self` (before a helper that needs
        // the architectural counters) and back (after one that may have
        // changed them). The micro-flags live in a local too, but no
        // helper reads or writes them, so they sync only on loop exit.
        macro_rules! sync {
            () => {{
                self.upc = upc;
                self.cycles = cycles;
                self.usp = usp;
            }};
        }
        macro_rules! reload {
            () => {{
                upc = self.upc;
                cycles = self.cycles;
                usp = self.usp;
            }};
        }
        // `insns` moves only inside `boundary()`, so the instruction-target
        // compare runs once on entry and after each boundary instead of on
        // every micro-op; the exit points (and their priority over the
        // deadline) are exactly the reference loop's.
        if self.insns >= insn_target {
            return None;
        }
        // A plain register-file slot, masked so the index needs no bounds
        // check.
        macro_rules! slot {
            ($i:expr) => {
                self.regs.file[($i & slots::MASK) as usize]
            };
        }
        // A specialized longword ALU form: the closed-form result goes to
        // a plain slot and its flags replace the loop-local micro-flags
        // in full.
        macro_rules! alu_long {
            ($dst:expr, $res:expr) => {{
                let (r, f) = $res;
                uf = f;
                slot!($dst) = r;
            }};
        }
        // One predecoded micro-op: deadline check, fetch, execute. Factored
        // as a macro so the loop below can instantiate it twice — two
        // dispatch sites give the branch predictor two contexts for the
        // op-kind indirect jump, which is the fast loop's main stall.
        // Semantics are per-uop and identical at both sites.
        macro_rules! dispatch_one {
            ($run:lifetime) => {{
            if cycles >= deadline {
                break $run Some(RunExit::CycleLimit);
            }
            let Some(&op) = fast.ops.get(upc as usize) else {
                break $run Some(RunExit::MicroError("micro-PC outside control store"));
            };
            upc += 1;
            cycles += cost::BASE;
            match op {
                DecOp::MovSS { src, dst } => slot!(dst) = slot!(src),
                DecOp::MovIS { imm, dst } => slot!(dst) = imm,
                DecOp::MovGIS { dst } => {
                    slot!(dst) = self.regs.file[(self.regs.file[slots::REGNUM] & 0xF) as usize];
                }
                DecOp::MovSGI { src } => {
                    let v = slot!(src);
                    let n = (self.regs.file[slots::REGNUM] & 0xF) as u8;
                    self.log_gpr(n);
                    self.regs.file[n as usize] = v;
                    if n == 15 {
                        self.regs.file[slots::IBCNT] = 0;
                    }
                }
                DecOp::MovSMF { src, dst } => slot!(dst) = slot!(src) & 0xF,
                DecOp::MovSMFF { src, dst } => slot!(dst) = slot!(src) & 0xFF,
                DecOp::MovSG { src, gpr } => {
                    let v = slot!(src);
                    let n = gpr & 0xF;
                    self.log_gpr(n);
                    self.regs.file[n as usize] = v;
                    if n == 15 {
                        self.regs.file[slots::IBCNT] = 0;
                    }
                }
                DecOp::AluSS {
                    op,
                    a,
                    b,
                    dst,
                    cc,
                    size,
                } => {
                    let (av, bv) = (slot!(a), slot!(b));
                    self.alu_to_slot(op, av, bv, dst, cc, size, &mut uf);
                }
                DecOp::AluIS {
                    op,
                    imm,
                    b,
                    dst,
                    cc,
                    size,
                } => {
                    let bv = slot!(b);
                    self.alu_to_slot(op, imm, bv, dst, cc, size, &mut uf);
                }
                DecOp::AluSI {
                    op,
                    a,
                    imm,
                    dst,
                    cc,
                    size,
                } => {
                    let av = slot!(a);
                    self.alu_to_slot(op, av, imm, dst, cc, size, &mut uf);
                }
                DecOp::AddSI { a, imm, dst } => alu_long!(dst, add_l(slot!(a), imm)),
                DecOp::SubSI { a, imm, dst } => alu_long!(dst, sub_l(slot!(a), imm)),
                DecOp::RSubSI { a, imm, dst } => alu_long!(dst, sub_l(imm, slot!(a))),
                DecOp::AndSI { a, imm, dst } => alu_long!(dst, logic_l(slot!(a) & imm)),
                DecOp::AndSIMF { a, imm, dst } => {
                    // Flags from the unmasked result; the latch keeps the
                    // low nibble, as `wdst` does for `Dst::MaskedF`.
                    let (r, f) = logic_l(slot!(a) & imm);
                    uf = f;
                    slot!(dst) = r & 0xF;
                }
                DecOp::OrSI { a, imm, dst } => alu_long!(dst, logic_l(slot!(a) | imm)),
                DecOp::PassIS { b, dst, .. } => alu_long!(dst, logic_l(slot!(b))),
                DecOp::LslIS { imm, b, dst } => alu_long!(dst, logic_l(lsl_l(imm, slot!(b)))),
                DecOp::LsrIS { imm, b, dst } => alu_long!(dst, logic_l(lsr_l(imm, slot!(b)))),
                DecOp::BicRIS { imm, b, dst } => alu_long!(dst, logic_l(slot!(b) & !imm)),
                DecOp::SubSS { a, b, dst } => alu_long!(dst, sub_l(slot!(a), slot!(b))),
                DecOp::OrSS { a, b, dst } => alu_long!(dst, logic_l(slot!(a) | slot!(b))),
                DecOp::LslSS { a, b, dst } => {
                    alu_long!(dst, logic_l(lsl_l(slot!(a), slot!(b))))
                }
                DecOp::LsrSS { a, b, dst } => {
                    alu_long!(dst, logic_l(lsr_l(slot!(a), slot!(b))))
                }
                DecOp::Mov { src, dst } => {
                    let v = self.src(src);
                    self.wdst(dst, v);
                }
                DecOp::MovID { imm, dst } => self.wdst(dst, imm),
                DecOp::Alu {
                    op,
                    a,
                    b,
                    dst,
                    cc,
                    size,
                } => {
                    let av = self.src(a);
                    let bv = self.src(b);
                    self.alu_generic(op, av, bv, dst, cc, size, &mut uf);
                }
                DecOp::AluID {
                    op,
                    imm,
                    b,
                    dst,
                    cc,
                    size,
                } => {
                    let bv = self.src(b);
                    self.alu_generic(op, imm, bv, dst, cc, size, &mut uf);
                }
                DecOp::AluDI {
                    op,
                    a,
                    imm,
                    dst,
                    cc,
                    size,
                } => {
                    let av = self.src(a);
                    self.alu_generic(op, av, imm, dst, cc, size, &mut uf);
                }
                DecOp::AluConst {
                    result,
                    fbits,
                    cc,
                    dst,
                } => {
                    let flags = AluFlags {
                        z: fbits & 1 != 0,
                        n: fbits & 2 != 0,
                        c: fbits & 4 != 0,
                        v: fbits & 8 != 0,
                        divz: fbits & 16 != 0,
                    };
                    uf = crate::regs::UFlags {
                        z: flags.z,
                        n: flags.n,
                        c: flags.c,
                        v: flags.v,
                        divz: flags.divz,
                    };
                    self.apply_cc(cc, flags);
                    self.wdst(dst, result);
                }
                DecOp::SetSize(s) => self.regs.osize = s,
                DecOp::SetSizeDyn(r) => {
                    let v = self.src(r);
                    self.regs.osize = match v {
                        1 => DataSize::Byte,
                        2 => DataSize::Word,
                        4 => DataSize::Long,
                        _ => break $run Some(RunExit::MicroError("bad dynamic size latch")),
                    };
                }
                DecOp::SetSizeBad => {
                    break $run Some(RunExit::MicroError("bad dynamic size latch"))
                }
                DecOp::Read { class, size } => {
                    cycles += cost::MEM_EXTRA;
                    let size = size.unwrap_or(self.regs.osize);
                    sync!();
                    match self.vread_fast(size, class) {
                        Ok(()) => reload!(),
                        Err(e) => {
                            let r = self.enter_exception(e);
                            reload!();
                            if let Err(x) = r {
                                break $run Some(x);
                            }
                        }
                    }
                }
                DecOp::Write { size } => {
                    cycles += cost::MEM_EXTRA;
                    let size = size.unwrap_or(self.regs.osize);
                    sync!();
                    match self.vwrite_fast(size) {
                        Ok(()) => reload!(),
                        Err(e) => {
                            let r = self.enter_exception(e);
                            reload!();
                            if let Err(x) = r {
                                break $run Some(x);
                            }
                        }
                    }
                }
                DecOp::PhysRead => {
                    cycles += cost::MEM_EXTRA;
                    match self.mem.read_u32(self.regs.file[slots::MAR]) {
                        Some(v) => self.regs.file[slots::MDR] = v,
                        None => {
                            sync!();
                            let r = self.enter_exception(Exception::MachineCheck);
                            reload!();
                            if let Err(x) = r {
                                break $run Some(x);
                            }
                        }
                    }
                }
                DecOp::PhysWrite => {
                    cycles += cost::MEM_EXTRA;
                    let v = self.regs.file[slots::MDR];
                    if self.mem.write_u32(self.regs.file[slots::MAR], v).is_none() {
                        sync!();
                        let r = self.enter_exception(Exception::MachineCheck);
                        reload!();
                        if let Err(x) = r {
                            break $run Some(x);
                        }
                    }
                }
                DecOp::Jump(t) => upc = t,
                DecOp::JumpUZero(t) => {
                    if uf.z {
                        upc = t;
                    }
                }
                DecOp::JumpUNotZero(t) => {
                    if !uf.z {
                        upc = t;
                    }
                }
                DecOp::JumpRegNumIsPc(t) => {
                    if self.regs.file[slots::REGNUM] & 0xF == 15 {
                        upc = t;
                    }
                }
                DecOp::JumpUCarry(t) => {
                    if uf.c {
                        upc = t;
                    }
                }
                DecOp::JumpUserMode(t) => {
                    if !self.regs.psl.is_kernel() {
                        upc = t;
                    }
                }
                DecOp::JumpIf { cond, target } => {
                    // `cond` against the loop-local micro-flags; the PSL
                    // conditions read `self` directly (the PSL is not
                    // mirrored into a local).
                    if self.eval_ucond(cond, &uf) {
                        upc = target;
                    }
                }
                // The native call forms: when every precondition holds,
                // one arm applies the call, the routine and its return,
                // and charges their cycles. `cycles` already holds the
                // call's own cycle, so the routine's last word starts
                // before the deadline exactly when the rest fits. If a
                // guard fails, the plain `Call` arm below runs the call.
                DecOp::CallIbServe { .. }
                    if usp < MICRO_STACK_LIMIT
                        && self.regs.file[slots::IBCNT] != 0
                        && cycles + (IB_SERVE_CYCLES - cost::BASE) <= deadline =>
                {
                    self.ustack[usp] = upc;
                    uf = self.serve_ib_byte();
                    cycles += IB_SERVE_CYCLES - cost::BASE;
                }
                DecOp::CallIbServe { refill, .. }
                    if self.regs.file[slots::IBCNT] == 0
                        && self.refill_fits(refill, usp, cycles, deadline) =>
                {
                    self.ustack[usp] = upc;
                    cycles += self.refill_rest_cycles(refill);
                    uf = self.refill_ib(refill);
                }
                DecOp::CallLogger(_)
                    if usp < MICRO_STACK_LIMIT
                        && cycles + self.logger_rest_cycles() <= deadline
                        && self.logger_record_fits() =>
                {
                    self.ustack[usp] = upc;
                    cycles += self.logger_rest_cycles();
                    uf = self.log_record();
                }
                DecOp::Call(t) | DecOp::CallIbServe { target: t, .. } | DecOp::CallLogger(t) => {
                    if usp >= MICRO_STACK_LIMIT {
                        break $run Some(RunExit::MicroError("micro-stack overflow"));
                    }
                    self.ustack[usp] = upc;
                    usp += 1;
                    upc = t;
                }
                DecOp::Ret => {
                    if usp == 0 {
                        break $run Some(RunExit::MicroError("micro-stack underflow"));
                    }
                    usp -= 1;
                    upc = self.ustack[usp];
                }
                DecOp::DispatchOpcode => {
                    upc = fast.opcode_table[(self.regs.file[slots::OPREG] & 0xFF) as usize];
                }
                DecOp::DispatchSpec(table) => {
                    upc = fast.spec_tables[table as usize]
                        [((self.regs.file[slots::SPEC] >> 4) & 0xF) as usize];
                }
                DecOp::DecodeNext => {
                    sync!();
                    let r = self.boundary();
                    reload!();
                    if let Some(x) = r {
                        break $run Some(x);
                    }
                    if self.insns >= insn_target {
                        break $run None;
                    }
                }
                DecOp::AdvancePc => {
                    self.log_gpr(15);
                    self.regs.file[15] = self.regs.file[15].wrapping_add(1);
                }
                DecOp::Fault(kind) => {
                    let exc = self.fault_to_exception(kind);
                    sync!();
                    let r = self.enter_exception(exc);
                    reload!();
                    if let Err(x) = r {
                        break $run Some(x);
                    }
                }
                DecOp::ReadPrK { reg, dst } => {
                    let v = self.read_prv_fixed(reg);
                    self.wdst(dst, v);
                }
                DecOp::ReadPr { num, dst } => {
                    let n = self.src(num);
                    match self.read_prv_dyn(n) {
                        Ok(v) => self.wdst(dst, v),
                        Err(e) => {
                            sync!();
                            let r = self.enter_exception(e);
                            reload!();
                            if let Err(x) = r {
                                break $run Some(x);
                            }
                        }
                    }
                }
                DecOp::ReadPrBad => {
                    sync!();
                    let r = self.enter_exception(Exception::ReservedOperand);
                    reload!();
                    if let Err(x) = r {
                        break $run Some(x);
                    }
                }
                DecOp::WritePrK { reg, src } => {
                    let v = self.src(src);
                    sync!();
                    self.write_prv_internal(reg, v);
                }
                DecOp::WritePrKI { reg, imm } => {
                    sync!();
                    self.write_prv_internal(reg, imm);
                }
                DecOp::WritePr { num, src } => {
                    let n = self.src(num);
                    let v = self.src(src);
                    match PrivReg::from_number(n) {
                        Some(reg) => {
                            sync!();
                            self.write_prv_internal(reg, v);
                        }
                        None => {
                            sync!();
                            let r = self.enter_exception(Exception::ReservedOperand);
                            reload!();
                            if let Err(x) = r {
                                break $run Some(x);
                            }
                        }
                    }
                }
                DecOp::WritePrI { num, imm } => {
                    let n = self.src(num);
                    match PrivReg::from_number(n) {
                        Some(reg) => {
                            sync!();
                            self.write_prv_internal(reg, imm);
                        }
                        None => {
                            sync!();
                            let r = self.enter_exception(Exception::ReservedOperand);
                            reload!();
                            if let Err(x) = r {
                                break $run Some(x);
                            }
                        }
                    }
                }
                DecOp::WritePrBad => {
                    sync!();
                    let r = self.enter_exception(Exception::ReservedOperand);
                    reload!();
                    if let Err(x) = r {
                        break $run Some(x);
                    }
                }
                DecOp::TbFlushAll => {
                    self.tlb.flush_all();
                    self.xc.flush_all();
                }
                DecOp::TbFlushProc => {
                    self.tlb.flush_process();
                    self.xc.flush_all();
                }
                DecOp::Halt => break $run Some(RunExit::Halted),
            }
            }};
        }
        let exit = 'run: loop {
            dispatch_one!('run);
            dispatch_one!('run);
        };
        self.upc = upc;
        self.cycles = cycles;
        self.usp = usp;
        self.regs.uflags = uf;
        exit
    }

    /// Evaluates a micro-branch condition against the fast loop's local
    /// micro-flags (the PSL conditions read `self` directly).
    #[inline(always)]
    fn eval_ucond(&self, cond: MicroCond, uf: &crate::regs::UFlags) -> bool {
        let psl = self.regs.psl;
        match cond {
            MicroCond::UZero => uf.z,
            MicroCond::UNotZero => !uf.z,
            MicroCond::UNeg => uf.n,
            MicroCond::UPos => !uf.n,
            MicroCond::UCarry => uf.c,
            MicroCond::UNoCarry => !uf.c,
            MicroCond::UOvf => uf.v,
            MicroCond::UDivZero => uf.divz,
            MicroCond::USLess => uf.n != uf.v,
            MicroCond::USLeq => (uf.n != uf.v) || uf.z,
            MicroCond::RegNumIsPc => self.regs.file[slots::REGNUM] & 0xF == 15,
            MicroCond::UserMode => !psl.is_kernel(),
            MicroCond::KernelMode => psl.is_kernel(),
            MicroCond::ArchEql => psl.z(),
            MicroCond::ArchNeq => !psl.z(),
            MicroCond::ArchGtr => !(psl.n() || psl.z()),
            MicroCond::ArchLeq => psl.n() || psl.z(),
            MicroCond::ArchGeq => !psl.n(),
            MicroCond::ArchLss => psl.n(),
            MicroCond::ArchGtru => !(psl.c() || psl.z()),
            MicroCond::ArchLequ => psl.c() || psl.z(),
            MicroCond::ArchVs => psl.v(),
            MicroCond::ArchVc => !psl.v(),
            MicroCond::ArchCs => psl.c(),
            MicroCond::ArchCc => !psl.c(),
        }
    }

    /// Executes one micro-op on the reference path. Returns `Some` on
    /// halt/fatal.
    fn step_micro(&mut self) -> Option<RunExit> {
        if self.upc >= self.cs.len() {
            return Some(RunExit::MicroError("micro-PC outside control store"));
        }
        let op = self.cs.word(self.upc);
        self.upc += 1;
        self.cycles += cost::BASE;
        match op {
            MicroOp::Mov { src, dst } => {
                let v = self.read_src(src);
                self.write_dst(dst, v);
            }
            MicroOp::Alu {
                op,
                a,
                b,
                dst,
                cc,
                size,
            } => {
                let av = self.read_src(a);
                let bv = self.read_src(b);
                let (result, flags) = alu_exec(op, av, bv, size);
                self.regs.uflags = crate::regs::UFlags {
                    z: flags.z,
                    n: flags.n,
                    c: flags.c,
                    v: flags.v,
                    divz: flags.divz,
                };
                self.apply_cc(cc, flags);
                self.write_dst(dst, result);
            }
            MicroOp::SetSize(s) => self.regs.osize = s,
            MicroOp::SetSizeDyn(r) => {
                let v = self.read_src(r);
                self.regs.osize = match v {
                    1 => DataSize::Byte,
                    2 => DataSize::Word,
                    4 => DataSize::Long,
                    _ => return Some(RunExit::MicroError("bad dynamic size latch")),
                };
            }
            MicroOp::Read { class, size } => {
                self.cycles += cost::MEM_EXTRA;
                let size = self.sel_size(size);
                if let Err(e) = self.vread(size, class) {
                    if let Err(x) = self.enter_exception(e) {
                        return Some(x);
                    }
                }
            }
            MicroOp::Write { size } => {
                self.cycles += cost::MEM_EXTRA;
                let size = self.sel_size(size);
                if let Err(e) = self.vwrite(size) {
                    if let Err(x) = self.enter_exception(e) {
                        return Some(x);
                    }
                }
            }
            MicroOp::PhysRead => {
                self.cycles += cost::MEM_EXTRA;
                match self.mem.read_le(self.regs.file[slots::MAR], 4) {
                    Some(v) => self.regs.file[slots::MDR] = v,
                    None => {
                        if let Err(x) = self.enter_exception(Exception::MachineCheck) {
                            return Some(x);
                        }
                    }
                }
            }
            MicroOp::PhysWrite => {
                self.cycles += cost::MEM_EXTRA;
                let v = self.regs.file[slots::MDR];
                if self
                    .mem
                    .write_le(self.regs.file[slots::MAR], 4, v)
                    .is_none()
                {
                    if let Err(x) = self.enter_exception(Exception::MachineCheck) {
                        return Some(x);
                    }
                }
            }
            MicroOp::Jump(t) => self.upc = self.resolve(t),
            MicroOp::JumpIf { cond, target } => {
                if self.cond(cond) {
                    self.upc = self.resolve(target);
                }
            }
            MicroOp::Call(t) => {
                if self.usp >= MICRO_STACK_LIMIT {
                    return Some(RunExit::MicroError("micro-stack overflow"));
                }
                self.ustack[self.usp] = self.upc;
                self.usp += 1;
                self.upc = self.resolve(t);
            }
            MicroOp::Ret => {
                if self.usp == 0 {
                    return Some(RunExit::MicroError("micro-stack underflow"));
                }
                self.usp -= 1;
                self.upc = self.ustack[self.usp];
            }
            MicroOp::DispatchOpcode => {
                self.upc = self.cs.opcode_target(self.regs.file[slots::OPREG] as u8);
            }
            MicroOp::DispatchSpec(table) => {
                self.upc = self
                    .cs
                    .spec_target(table, (self.regs.file[slots::SPEC] >> 4) as u8);
            }
            MicroOp::DecodeNext => return self.boundary(),
            MicroOp::AdvancePc => {
                self.log_gpr(15);
                self.regs.file[15] = self.regs.file[15].wrapping_add(1);
            }
            MicroOp::Fault(kind) => {
                let exc = self.fault_to_exception(kind);
                if let Err(x) = self.enter_exception(exc) {
                    return Some(x);
                }
            }
            MicroOp::ReadPr { num, dst } => {
                let n = self.read_src(num);
                match self.read_prv_dyn(n) {
                    Ok(v) => self.write_dst(dst, v),
                    Err(e) => {
                        if let Err(x) = self.enter_exception(e) {
                            return Some(x);
                        }
                    }
                }
            }
            MicroOp::WritePr { num, src } => {
                let n = self.read_src(num);
                let v = self.read_src(src);
                match PrivReg::from_number(n) {
                    Some(reg) => self.write_prv_internal(reg, v),
                    None => {
                        if let Err(x) = self.enter_exception(Exception::ReservedOperand) {
                            return Some(x);
                        }
                    }
                }
            }
            MicroOp::TbFlushAll => {
                self.tlb.flush_all();
                self.xc.flush_all();
            }
            MicroOp::TbFlushProc => {
                self.tlb.flush_process();
                self.xc.flush_all();
            }
            MicroOp::Halt => return Some(RunExit::Halted),
        }
        None
    }

    // ── The native call forms ─────────────────────────────────────────

    /// The effects of the instruction-buffer byte server's serve path
    /// (`ifetch.byte` with `IbCnt` nonzero; `fast::IB_SERVE`):
    /// the test's result in T15, the next byte in MDR, the buffer shifted
    /// and counted down, and PC advanced. Returns the micro-flags of the
    /// count-down `Sub`, the routine's last ALU word.
    #[inline(always)]
    fn serve_ib_byte(&mut self) -> UFlags {
        let f = &mut self.regs.file;
        let (cnt, data) = (f[slots::IBCNT], f[slots::IBDATA]);
        f[slots::T0 + 15] = cnt;
        f[slots::MDR] = data & 0xFF;
        f[slots::IBDATA] = data >> 8;
        let (left, flags) = sub_l(cnt, 1);
        f[slots::IBCNT] = left;
        self.log_gpr(15);
        self.regs.file[15] = self.regs.file[15].wrapping_add(1);
        flags
    }

    /// The cycles of a native refill after the `Call`'s own: the stock
    /// path, plus under the scratch stub the patch share for the capture
    /// state and the mode the logger's kernel-bit test reads.
    #[inline(always)]
    fn refill_rest_cycles(&self, refill: Refill) -> u64 {
        let hook = match refill {
            Refill::Scratch if self.regs.file[slots::TRCTL] & TRCTL_ENABLE == 0 => {
                IFETCH_HOOK_OFF_CYCLES
            }
            Refill::Scratch if self.regs.psl.is_kernel() => IFETCH_HOOK_KERNEL_CYCLES,
            Refill::Scratch => IFETCH_HOOK_USER_CYCLES,
            Refill::Stock | Refill::OpByOp => 0,
        };
        IB_REFILL_CYCLES + hook - cost::BASE
    }

    /// The physical address of a refill's longword fetch at `PC & ~3`
    /// when the fetch needs no walk and cannot fault: mapping is off, or
    /// the translation micro-cache hits (a TB hit), and the longword is
    /// in memory. `None` sends the refill op by op.
    #[inline(always)]
    fn refill_fetch_pa(&self) -> Option<u32> {
        let va = self.regs.file[15] & !3;
        let pa = if self.prv.mapen == 0 {
            va
        } else {
            self.xc.probe_read(va >> PAGE_SHIFT, self.regs.psl.mode())? + (va & PAGE_OFFSET_MASK)
        };
        self.mem.contains(pa, 4).then_some(pa)
    }

    /// Whether a native refill applies: `refill` names a fetch routine,
    /// the micro-stack has room for the nested calls (the fetch's, and
    /// under the scratch stub the logger's one level deeper), the path's
    /// last word starts before the deadline, the fetch completes
    /// ([`Machine::refill_fetch_pa`]), and a record to log fits
    /// ([`Machine::logger_record_fits`]). Every check is pure.
    #[inline(always)]
    fn refill_fits(&self, refill: Refill, usp: usize, cycles: u64, deadline: u64) -> bool {
        let (depth, logs) = match refill {
            Refill::OpByOp => return false,
            Refill::Stock => (1, false),
            Refill::Scratch => (2, self.regs.file[slots::TRCTL] & TRCTL_ENABLE != 0),
        };
        usp + depth < MICRO_STACK_LIMIT
            && cycles + self.refill_rest_cycles(refill) <= deadline
            && self.refill_fetch_pa().is_some()
            && (!logs || self.logger_record_fits())
    }

    /// The effects of a native refill ([`Machine::refill_fits`] holds):
    /// MAR at the longword, under the scratch stub its P1 and P7 and,
    /// capture on, the seed in P5 and the record
    /// ([`Machine::log_record`]), the fetch counted (and, mapped, its TB
    /// hit), then the serve path over the fetched longword: T15 the byte
    /// offset in bits, MDR the byte, IbData the bytes above it, IbCnt
    /// those left, and PC advanced. Returns the micro-flags of the serve
    /// path's count-down `Sub`, the routine's last ALU word.
    #[inline(always)]
    fn refill_ib(&mut self, refill: Refill) -> UFlags {
        let pc = self.regs.file[15];
        self.regs.file[slots::MAR] = pc & !3;
        if refill == Refill::Scratch {
            let ctl = self.regs.file[slots::TRCTL];
            self.regs.file[slots::P0 + 1] = ctl;
            self.regs.file[slots::P0 + 7] = ctl & TRCTL_ENABLE;
            if ctl & TRCTL_ENABLE != 0 {
                self.regs.file[slots::P0 + 5] = IFETCH_SEED;
                self.log_record();
            }
        }
        // After the record's stores, as the fetch comes after the hook.
        let word = self.refill_fetch_pa().and_then(|pa| self.mem.read_u32(pa));
        debug_assert!(word.is_some(), "refill_fits checked the fetch");
        self.counts.ifetch += 1;
        if self.prv.mapen != 0 {
            self.tlb.note_hit();
        }
        let shift = (pc & 3) << 3;
        let data = word.unwrap_or_default() >> shift;
        let f = &mut self.regs.file;
        f[slots::T0 + 15] = shift;
        f[slots::MDR] = data & 0xFF;
        f[slots::IBDATA] = data >> 8;
        let (left, flags) = sub_l(4 - (pc & 3), 1);
        f[slots::IBCNT] = left;
        self.log_gpr(15);
        self.regs.file[15] = pc.wrapping_add(1);
        flags
    }

    /// The cycles of a native logger call after the `Call`'s own: the
    /// store path skips the kernel-bit `Or` in user mode.
    #[inline(always)]
    fn logger_rest_cycles(&self) -> u64 {
        let total = if self.regs.psl.is_kernel() {
            LOGGER_KERNEL_CYCLES
        } else {
            LOGGER_USER_CYCLES
        };
        total - cost::BASE
    }

    /// Whether the logger takes its store path with both stores landing:
    /// `TRPTR + 8` neither wraps nor passes `TRLIM` (the capacity check's
    /// borrow stays clear), and the eight record bytes are in memory.
    #[inline(always)]
    fn logger_record_fits(&self) -> bool {
        let ptr = self.regs.file[slots::TRPTR];
        ptr.checked_add(8)
            .is_some_and(|end| end <= self.regs.file[slots::TRLIM])
            && self.mem.contains(ptr, 8)
    }

    /// The effects of the scratch-style logger's store path
    /// (`fast::LOGGER`; [`Machine::logger_record_fits`] holds):
    /// every P register as the routine leaves it, the record (old MAR,
    /// then the seed with the pid and kernel bit) at `TRPTR`, and `TRPTR`
    /// advanced. MAR and MDR end as they began. Returns the micro-flags
    /// of its `Add P2, #4`, the routine's last ALU word.
    #[inline(always)]
    fn log_record(&mut self) -> UFlags {
        let kernel = self.regs.psl.is_kernel();
        let f = &mut self.regs.file;
        let (mar, mdr, ptr, ctl) = (
            f[slots::MAR],
            f[slots::MDR],
            f[slots::TRPTR],
            f[slots::TRCTL],
        );
        let pid = ((ctl >> TRCTL_PID_SHIFT) & TRCTL_PID_MASK) << META_PID_SHIFT;
        let high = f[slots::P0 + 5] | pid | if kernel { META_KERNEL_BIT } else { 0 };
        let p = slots::P0;
        f[p] = mar;
        f[p + 1] = ctl;
        f[p + 2] = ptr;
        f[p + 3] = f[slots::TRLIM];
        f[p + 4] = ptr + 8;
        f[p + 5] = high;
        f[p + 6] = mdr;
        f[p + 7] = pid;
        f[slots::TRPTR] = ptr + 8;
        let stored = self
            .mem
            .write_u32(ptr, mar)
            .and(self.mem.write_u32(ptr + 4, high));
        debug_assert!(stored.is_some(), "logger_record_fits checked the stores");
        add_l(ptr, 4).1
    }

    // ── The fast engine’s operand helpers ─────────────────────────────

    /// ALU execute with the result going to a plain slot (the
    /// specialized `Alu*` forms).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn alu_to_slot(
        &mut self,
        op: AluOp,
        av: u32,
        bv: u32,
        dst: u8,
        cc: CcEffect,
        size: DataSize,
        uf: &mut crate::regs::UFlags,
    ) {
        let (result, flags) = alu_exec(op, av, bv, size);
        *uf = crate::regs::UFlags {
            z: flags.z,
            n: flags.n,
            c: flags.c,
            v: flags.v,
            divz: flags.divz,
        };
        self.apply_cc(cc, flags);
        self.regs.file[(dst & slots::MASK) as usize] = result;
    }

    /// ALU execute through the generic operand writers (the unspecialized
    /// `Alu`/`AluID`/`AluDI` forms).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn alu_generic(
        &mut self,
        op: AluOp,
        av: u32,
        bv: u32,
        dst: Dst,
        cc: CcEffect,
        size: DataSize,
        uf: &mut crate::regs::UFlags,
    ) {
        let (result, flags) = alu_exec(op, av, bv, size);
        *uf = crate::regs::UFlags {
            z: flags.z,
            n: flags.n,
            c: flags.c,
            v: flags.v,
            divz: flags.divz,
        };
        self.apply_cc(cc, flags);
        self.wdst(dst, result);
    }

    /// Predecoded source-operand fetch. Slot indices are masked with
    /// [`slots::MASK`] (the file is padded to a power of two) so the
    /// access compiles without a bounds check.
    #[inline(always)]
    fn src(&self, s: Src) -> u32 {
        match s {
            Src::Slot(i) => self.regs.file[(i & slots::MASK) as usize],
            Src::GprIdx => self.regs.file[(self.regs.file[slots::REGNUM] & 0xF) as usize],
            Src::Psl => self.regs.psl.bits(),
            Src::OSizeBytes => self.regs.osize.bytes(),
            Src::OSizeMask => self.regs.osize.mask(),
        }
    }

    /// Predecoded destination write.
    #[inline(always)]
    fn wdst(&mut self, d: Dst, v: u32) {
        match d {
            Dst::Slot(i) => self.regs.file[(i & slots::MASK) as usize] = v,
            Dst::Gpr(n) => {
                let n = n & 0xF;
                self.log_gpr(n);
                self.regs.file[n as usize] = v;
                if n == 15 {
                    self.regs.file[slots::IBCNT] = 0;
                }
            }
            Dst::GprIdx => {
                let n = (self.regs.file[slots::REGNUM] & 0xF) as u8;
                self.log_gpr(n);
                self.regs.file[n as usize] = v;
                if n == 15 {
                    self.regs.file[slots::IBCNT] = 0;
                }
            }
            Dst::Psl => self.regs.psl = Psl::from_bits(v),
            Dst::MaskedFF(i) => self.regs.file[(i & slots::MASK) as usize] = v & 0xFF,
            Dst::MaskedF(i) => self.regs.file[(i & slots::MASK) as usize] = v & 0xF,
            Dst::ReadOnly => debug_assert!(false, "write to read-only micro-register"),
        }
    }

    fn sel_size(&self, sel: SizeSel) -> DataSize {
        match sel {
            SizeSel::Fixed(s) => s,
            SizeSel::OSize => self.regs.osize,
        }
    }

    fn resolve(&self, t: Target) -> u32 {
        match t {
            Target::Abs(a) => a,
            Target::Entry(e) => self.cs.entry(e),
        }
    }

    pub(crate) fn read_src(&mut self, r: MicroReg) -> u32 {
        match r {
            MicroReg::Gpr(n) => self.regs.file[(n & 0xF) as usize],
            MicroReg::T(n) => self.regs.file[slots::T0 + (n & 0xF) as usize],
            MicroReg::P(n) => self.regs.file[slots::P0 + (n & 0x7) as usize],
            MicroReg::Mar => self.regs.file[slots::MAR],
            MicroReg::Mdr => self.regs.file[slots::MDR],
            MicroReg::Psl => self.regs.psl.bits(),
            MicroReg::Spec => self.regs.file[slots::SPEC],
            MicroReg::OpReg => self.regs.file[slots::OPREG],
            MicroReg::RegNum => self.regs.file[slots::REGNUM],
            MicroReg::GprIdx => self.regs.file[(self.regs.file[slots::REGNUM] & 0xF) as usize],
            MicroReg::OSizeBytes => self.regs.osize.bytes(),
            MicroReg::OSizeMask => self.regs.osize.mask(),
            MicroReg::IbData => self.regs.file[slots::IBDATA],
            MicroReg::IbCnt => self.regs.file[slots::IBCNT],
            MicroReg::ExcVec => self.regs.file[slots::EXCVEC],
            MicroReg::ExcParam => self.regs.file[slots::EXCPARAM],
            MicroReg::ExcFlags => self.regs.file[slots::EXCFLAGS],
            MicroReg::ExcPc => self.regs.file[slots::EXCPC],
            MicroReg::ExcIpl => self.regs.file[slots::EXCIPL],
            MicroReg::Imm(v) => v,
        }
    }

    pub(crate) fn write_dst(&mut self, r: MicroReg, v: u32) {
        match r {
            MicroReg::Gpr(n) => {
                let n = (n & 0xF) as usize;
                self.log_gpr(n as u8);
                self.regs.file[n] = v;
                if n == 15 {
                    self.regs.file[slots::IBCNT] = 0;
                }
            }
            MicroReg::GprIdx => {
                let n = (self.regs.file[slots::REGNUM] & 0xF) as usize;
                self.log_gpr(n as u8);
                self.regs.file[n] = v;
                if n == 15 {
                    self.regs.file[slots::IBCNT] = 0;
                }
            }
            MicroReg::T(n) => self.regs.file[slots::T0 + (n & 0xF) as usize] = v,
            MicroReg::P(n) => self.regs.file[slots::P0 + (n & 0x7) as usize] = v,
            MicroReg::Mar => self.regs.file[slots::MAR] = v,
            MicroReg::Mdr => self.regs.file[slots::MDR] = v,
            MicroReg::Psl => self.regs.psl = Psl::from_bits(v),
            MicroReg::Spec => self.regs.file[slots::SPEC] = v & 0xFF,
            MicroReg::OpReg => self.regs.file[slots::OPREG] = v & 0xFF,
            MicroReg::RegNum => self.regs.file[slots::REGNUM] = v & 0xF,
            MicroReg::IbData => self.regs.file[slots::IBDATA] = v,
            MicroReg::IbCnt => self.regs.file[slots::IBCNT] = v,
            MicroReg::ExcVec => self.regs.file[slots::EXCVEC] = v,
            MicroReg::ExcParam => self.regs.file[slots::EXCPARAM] = v,
            MicroReg::ExcFlags => self.regs.file[slots::EXCFLAGS] = v,
            MicroReg::ExcPc => self.regs.file[slots::EXCPC] = v,
            MicroReg::ExcIpl => self.regs.file[slots::EXCIPL] = v,
            MicroReg::Imm(_) | MicroReg::OSizeBytes | MicroReg::OSizeMask => {
                debug_assert!(false, "write to read-only micro-register {r}");
            }
        }
    }

    #[inline(always)]
    fn log_gpr(&mut self, n: u8) {
        let n = n & 0xF;
        let bit = 1u16 << n;
        if self.rlog_mask & bit == 0 {
            self.rlog_mask |= bit;
            self.rlog.push((n, self.regs.file[n as usize]));
        }
    }

    fn rollback(&mut self) {
        while let Some((n, old)) = self.rlog.pop() {
            self.regs.file[n as usize] = old;
        }
        self.rlog_mask = 0;
        self.regs.psl = self.psl_at_start;
        self.regs.file[slots::IBCNT] = 0;
    }

    fn apply_cc(&mut self, cc: CcEffect, f: AluFlags) {
        let psl = &mut self.regs.psl;
        match cc {
            CcEffect::None => {}
            CcEffect::Logic => {
                psl.set_n(f.n);
                psl.set_z(f.z);
                psl.set_v(false);
            }
            CcEffect::Test => {
                psl.set_n(f.n);
                psl.set_z(f.z);
                psl.set_v(false);
                psl.set_c(false);
            }
            CcEffect::Arith => {
                psl.set_cc(f.n, f.z, f.v, f.c);
            }
            // VAX CMP semantics: N is the *signed comparison* outcome
            // (sign of the subtraction corrected for overflow), V is
            // cleared, C is the unsigned comparison. This is what makes
            // `blss` after `cmpl` correct even when a-b overflows.
            CcEffect::Cmp => {
                psl.set_cc(f.n != f.v, f.z, false, f.c);
            }
        }
    }

    fn cond(&self, c: MicroCond) -> bool {
        let f = self.regs.uflags;
        let psl = self.regs.psl;
        match c {
            MicroCond::UZero => f.z,
            MicroCond::UNotZero => !f.z,
            MicroCond::UNeg => f.n,
            MicroCond::UPos => !f.n,
            MicroCond::UCarry => f.c,
            MicroCond::UNoCarry => !f.c,
            MicroCond::UOvf => f.v,
            MicroCond::UDivZero => f.divz,
            MicroCond::USLess => f.n != f.v,
            MicroCond::USLeq => (f.n != f.v) || f.z,
            MicroCond::RegNumIsPc => self.regs.file[slots::REGNUM] & 0xF == 15,
            MicroCond::UserMode => !psl.is_kernel(),
            MicroCond::KernelMode => psl.is_kernel(),
            MicroCond::ArchEql => psl.z(),
            MicroCond::ArchNeq => !psl.z(),
            MicroCond::ArchGtr => !(psl.n() || psl.z()),
            MicroCond::ArchLeq => psl.n() || psl.z(),
            MicroCond::ArchGeq => !psl.n(),
            MicroCond::ArchLss => psl.n(),
            MicroCond::ArchGtru => !(psl.c() || psl.z()),
            MicroCond::ArchLequ => psl.c() || psl.z(),
            MicroCond::ArchVs => psl.v(),
            MicroCond::ArchVc => !psl.v(),
            MicroCond::ArchCs => psl.c(),
            MicroCond::ArchCc => !psl.c(),
        }
    }

    fn fault_to_exception(&self, kind: FaultKind) -> Exception {
        match kind {
            FaultKind::ReservedInstruction => Exception::ReservedInstruction,
            FaultKind::ReservedOperand => Exception::ReservedOperand,
            FaultKind::ReservedAddrMode => Exception::ReservedAddrMode,
            FaultKind::Privileged => Exception::PrivilegedInstruction,
            FaultKind::Arithmetic => Exception::Arithmetic(match self.regs.file[slots::EXCPARAM] {
                1 => ArithKind::Overflow,
                _ => ArithKind::DivideByZero,
            }),
            FaultKind::Chmk => Exception::Chmk(self.regs.file[slots::EXCPARAM] as u16),
            FaultKind::Breakpoint => Exception::Breakpoint,
        }
    }

    /// Enters the exception micro-flow.
    ///
    /// # Errors
    ///
    /// Returns `Err(RunExit::TripleFault)` on a third nested exception.
    fn enter_exception(&mut self, exc: Exception) -> Result<(), RunExit> {
        self.counts.exceptions += 1;
        if self.exc_depth >= 2 {
            return Err(RunExit::TripleFault);
        }
        let exc = if self.exc_depth == 1 {
            Exception::MachineCheck
        } else {
            exc
        };
        self.exc_depth += 1;
        if exc.class() == ExceptionClass::Fault {
            self.rollback();
        }
        self.regs.file[slots::EXCVEC] = exc.vector();
        let (param, has_param) = match exc.parameter() {
            Some(p) => (p, 1),
            None => (0, 0),
        };
        self.regs.file[slots::EXCPARAM] = param;
        self.regs.file[slots::EXCFLAGS] = has_param;
        self.regs.file[slots::EXCPC] = if exc.class() == ExceptionClass::Fault {
            self.insn_pc
        } else {
            self.regs.file[15]
        };
        self.regs.file[slots::IBCNT] = 0;
        self.usp = 0;
        self.upc = self.cs.entry(Entry::ExcDispatch);
        Ok(())
    }

    fn enter_interrupt(&mut self, vector: u32, ipl: u8) {
        self.counts.interrupts += 1;
        self.exc_depth = 1;
        self.regs.file[slots::EXCVEC] = vector;
        self.regs.file[slots::EXCPARAM] = 0;
        self.regs.file[slots::EXCFLAGS] = 2;
        self.regs.file[slots::EXCIPL] = ipl as u32;
        self.regs.file[slots::EXCPC] = self.regs.file[15];
        self.regs.file[slots::IBCNT] = 0;
        self.usp = 0;
        self.upc = self.cs.entry(Entry::ExcDispatch);
    }

    /// Instruction-boundary duties (the `DecodeNext` micro-op).
    fn boundary(&mut self) -> Option<RunExit> {
        self.exc_depth = 0;
        self.rlog.clear();
        self.rlog_mask = 0;
        self.insns += 1;
        self.usp = 0;

        // Trace (T-bit) trap sequencing: TP set at the start of a traced
        // instruction fires here, before anything else.
        if self.regs.psl.tp() {
            let mut psl = self.regs.psl;
            psl.set_tp(false);
            self.regs.psl = psl;
            self.psl_at_start = psl;
            self.insn_pc = self.regs.file[15];
            if let Err(x) = self.enter_exception(Exception::TraceTrap) {
                return Some(x);
            }
            return None;
        }
        if self.regs.psl.t() {
            let mut psl = self.regs.psl;
            psl.set_tp(true);
            self.regs.psl = psl;
        }

        // Interval timer.
        if self.prv.iccs & 1 != 0 && self.cycles >= self.timer_deadline {
            self.timer_pending = true;
            self.prv.iccs |= 0x80;
            let icr = self.prv.icr.max(1) as u64;
            self.timer_deadline = self.cycles + icr;
        }

        // Interrupt arbitration, highest IPL first.
        let cur_ipl = self.regs.psl.ipl();
        if self.timer_pending && self.prv.iccs & 0x40 != 0 && IPL_TIMER > cur_ipl {
            self.timer_pending = false;
            self.prv.iccs &= !0x80;
            self.insn_pc = self.regs.file[15];
            self.psl_at_start = self.regs.psl;
            self.enter_interrupt(ScbVector::IntervalTimer.offset(), IPL_TIMER);
            return None;
        }
        if self.prv.sisr != 0 {
            let level = 31 - self.prv.sisr.leading_zeros();
            if level as u8 > cur_ipl && (1..=15).contains(&level) {
                self.prv.sisr &= !(1 << level);
                self.insn_pc = self.regs.file[15];
                self.psl_at_start = self.regs.psl;
                self.enter_interrupt(ScbVector::software(level as u8), level as u8);
                return None;
            }
        }

        self.insn_pc = self.regs.file[15];
        self.psl_at_start = self.regs.psl;
        self.upc = self.cs.entry(Entry::Fetch);
        None
    }

    // ── Virtual memory ────────────────────────────────────────────────

    /// Reference read path: per-access selector decode, no micro-cache.
    fn vread(&mut self, size: DataSize, class: RefClass) -> Result<(), Exception> {
        match class {
            RefClass::IFetch => self.counts.ifetch += 1,
            _ => self.counts.data_reads += 1,
        }
        let va = self.regs.file[slots::MAR];
        let n = size.bytes();
        if self.prv.mapen == 0 {
            self.regs.file[slots::MDR] = self
                .mem
                .read_le(va, n)
                .ok_or(Exception::TranslationInvalid(VirtAddr(va)))?;
            return Ok(());
        }
        if (va & PAGE_OFFSET_MASK) + n <= PAGE_SIZE {
            let pa = self.translate(va, AccessKind::Read)?;
            self.regs.file[slots::MDR] = self.mem.read_le(pa, n).ok_or(Exception::MachineCheck)?;
        } else {
            let mut v = 0u32;
            for i in 0..n {
                let pa = self.translate(va.wrapping_add(i), AccessKind::Read)?;
                let b = self.mem.read_u8(pa).ok_or(Exception::MachineCheck)?;
                v |= (b as u32) << (8 * i);
            }
            self.regs.file[slots::MDR] = v;
        }
        Ok(())
    }

    /// Reference write path.
    fn vwrite(&mut self, size: DataSize) -> Result<(), Exception> {
        self.counts.data_writes += 1;
        let va = self.regs.file[slots::MAR];
        let v = self.regs.file[slots::MDR];
        let n = size.bytes();
        if self.prv.mapen == 0 {
            self.mem
                .write_le(va, n, v)
                .ok_or(Exception::TranslationInvalid(VirtAddr(va)))?;
            return Ok(());
        }
        if (va & PAGE_OFFSET_MASK) + n <= PAGE_SIZE {
            let pa = self.translate(va, AccessKind::Write)?;
            self.mem.write_le(pa, n, v).ok_or(Exception::MachineCheck)?;
        } else {
            // Translate both pages first so a fault can't leave a torn
            // write behind.
            for i in 0..n {
                self.translate(va.wrapping_add(i), AccessKind::Write)?;
            }
            for i in 0..n {
                let pa = self.translate(va.wrapping_add(i), AccessKind::Write)?;
                self.mem
                    .write_u8(pa, (v >> (8 * i)) as u8)
                    .ok_or(Exception::MachineCheck)?;
            }
        }
        Ok(())
    }

    /// Fast read path: longword accessors when the transfer is a
    /// longword, translation micro-cache probe before the full
    /// [`Machine::translate`]. A micro-cache hit is by construction a TB
    /// hit, and is recorded as one ([`crate::Tlb`] `note_hit`), so the
    /// statistics and cycle counts match the reference path exactly.
    #[inline]
    fn vread_fast(&mut self, size: DataSize, class: RefClass) -> Result<(), Exception> {
        match class {
            RefClass::IFetch => self.counts.ifetch += 1,
            _ => self.counts.data_reads += 1,
        }
        let va = self.regs.file[slots::MAR];
        let n = size.bytes();
        if self.prv.mapen == 0 {
            let v = if n == 4 {
                self.mem.read_u32(va)
            } else {
                self.mem.read_le(va, n)
            };
            self.regs.file[slots::MDR] = v.ok_or(Exception::TranslationInvalid(VirtAddr(va)))?;
            return Ok(());
        }
        if (va & PAGE_OFFSET_MASK) + n <= PAGE_SIZE {
            let pa = match self.xc.probe_read(va >> PAGE_SHIFT, self.regs.psl.mode()) {
                Some(base) => {
                    self.tlb.note_hit();
                    base + (va & PAGE_OFFSET_MASK)
                }
                None => self.translate(va, AccessKind::Read)?,
            };
            let v = if n == 4 {
                self.mem.read_u32(pa)
            } else {
                self.mem.read_le(pa, n)
            };
            self.regs.file[slots::MDR] = v.ok_or(Exception::MachineCheck)?;
        } else {
            let mut v = 0u32;
            for i in 0..n {
                let pa = self.translate(va.wrapping_add(i), AccessKind::Read)?;
                let b = self.mem.read_u8(pa).ok_or(Exception::MachineCheck)?;
                v |= (b as u32) << (8 * i);
            }
            self.regs.file[slots::MDR] = v;
        }
        Ok(())
    }

    /// Fast write path (see [`Machine::vread_fast`]); the micro-cache hit
    /// additionally requires the modified bit to have been set at install
    /// time, so the modify-bit write-back always takes the full path.
    #[inline]
    fn vwrite_fast(&mut self, size: DataSize) -> Result<(), Exception> {
        self.counts.data_writes += 1;
        let va = self.regs.file[slots::MAR];
        let v = self.regs.file[slots::MDR];
        let n = size.bytes();
        if self.prv.mapen == 0 {
            let ok = if n == 4 {
                self.mem.write_u32(va, v)
            } else {
                self.mem.write_le(va, n, v)
            };
            ok.ok_or(Exception::TranslationInvalid(VirtAddr(va)))?;
            return Ok(());
        }
        if (va & PAGE_OFFSET_MASK) + n <= PAGE_SIZE {
            let pa = match self.xc.probe_write(va >> PAGE_SHIFT, self.regs.psl.mode()) {
                Some(base) => {
                    self.tlb.note_hit();
                    base + (va & PAGE_OFFSET_MASK)
                }
                None => self.translate(va, AccessKind::Write)?,
            };
            let ok = if n == 4 {
                self.mem.write_u32(pa, v)
            } else {
                self.mem.write_le(pa, n, v)
            };
            ok.ok_or(Exception::MachineCheck)?;
        } else {
            // Translate both pages first so a fault can't leave a torn
            // write behind.
            for i in 0..n {
                self.translate(va.wrapping_add(i), AccessKind::Write)?;
            }
            for i in 0..n {
                let pa = self.translate(va.wrapping_add(i), AccessKind::Write)?;
                self.mem
                    .write_u8(pa, (v >> (8 * i)) as u8)
                    .ok_or(Exception::MachineCheck)?;
            }
        }
        Ok(())
    }

    fn region_base_len(&self, region: Region) -> (u32, u32) {
        match region {
            Region::P0 => (self.prv.p0br, self.prv.p0lr),
            Region::P1 => (self.prv.p1br, self.prv.p1lr),
            Region::System => (self.prv.sbr, self.prv.slr),
            Region::Reserved => (0, 0),
        }
    }

    pub(crate) fn translate(&mut self, va: u32, kind: AccessKind) -> Result<u32, Exception> {
        let vaddr = VirtAddr(va);
        let gvpn = vaddr.global_vpn();
        let mode = self.regs.psl.mode();
        let mut pte = match self.tlb.lookup(gvpn) {
            Some(p) => p,
            None => {
                let bl = (
                    self.region_base_len(Region::P0),
                    self.region_base_len(Region::P1),
                    self.region_base_len(Region::System),
                );
                let mem = &self.mem;
                let r = mmu::walk(
                    vaddr,
                    |region| match region {
                        Region::P0 => bl.0,
                        Region::P1 => bl.1,
                        Region::System => bl.2,
                        Region::Reserved => (0, 0),
                    },
                    |pa| mem.read_le(pa, 4),
                )?;
                self.counts.pte_reads += r.pte_reads as u64;
                self.cycles += cost::PTE_READ * r.pte_reads as u64;
                // The insert may evict a different tag sharing the slot;
                // the micro-cache must not outlive the TB entry it
                // shadows.
                self.xc.invalidate_slot(gvpn);
                self.tlb
                    .insert(gvpn, r.pte, vaddr.region().is_per_process());
                r.pte
            }
        };
        mmu::check_access(pte, kind, mode, vaddr)?;
        if kind == AccessKind::Write && !pte.modified() {
            pte = pte.with_modified();
            let (base, _) = self.region_base_len(vaddr.region());
            let pte_pa = base.wrapping_add(vaddr.vpn() * 4);
            self.mem.write_le(pte_pa, 4, pte.0);
            self.xc.invalidate_slot(gvpn);
            self.tlb.update(gvpn, pte);
        }
        let pa = pte.frame_base() + vaddr.offset();
        if !self.mem.contains(pa, 1) {
            return Err(Exception::MachineCheck);
        }
        // Full success: shadow the TB entry in the micro-cache. `write_ok`
        // (modified bit already set) gates write hits so the modify-bit
        // write-back above still happens on the full path.
        self.xc
            .install(gvpn, pte.frame_base(), pte.prot(), pte.modified());
        Ok(pa)
    }

    // ── Privileged registers ──────────────────────────────────────────

    fn read_prv_fixed(&mut self, reg: PrivReg) -> u32 {
        match reg {
            PrivReg::Rxdb => self.console_in.pop_front().map_or(0, u32::from),
            PrivReg::Rxcs => {
                if self.console_in.is_empty() {
                    0
                } else {
                    0x80
                }
            }
            _ => self.prv.read(reg, &self.regs),
        }
    }

    fn read_prv_dyn(&mut self, num: u32) -> Result<u32, Exception> {
        let reg = PrivReg::from_number(num).ok_or(Exception::ReservedOperand)?;
        Ok(self.read_prv_fixed(reg))
    }

    pub(crate) fn write_prv_internal(&mut self, reg: PrivReg, v: u32) {
        match reg {
            PrivReg::Ksp
            | PrivReg::Usp
            | PrivReg::Pcbb
            | PrivReg::Scbb
            | PrivReg::Trctl
            | PrivReg::Trbase
            | PrivReg::Trptr
            | PrivReg::Trlim => {
                if let Some(slot) = latch_slot(reg) {
                    self.regs.file[slot] = v;
                }
            }
            PrivReg::P0br => {
                self.prv.p0br = v;
                self.xc.flush_all();
            }
            PrivReg::P0lr => {
                self.prv.p0lr = v;
                self.xc.flush_all();
            }
            PrivReg::P1br => {
                self.prv.p1br = v;
                self.xc.flush_all();
            }
            PrivReg::P1lr => {
                self.prv.p1lr = v;
                self.xc.flush_all();
            }
            PrivReg::Sbr => {
                self.prv.sbr = v;
                self.xc.flush_all();
            }
            PrivReg::Slr => {
                self.prv.slr = v;
                self.xc.flush_all();
            }
            PrivReg::Ipl => self.regs.psl.set_ipl((v & 31) as u8),
            PrivReg::Sirr => {
                if (1..=15).contains(&v) {
                    self.prv.sisr |= 1 << v;
                }
            }
            PrivReg::Sisr => self.prv.sisr = v & 0xFFFE,
            PrivReg::Iccs => {
                if v & 0x80 != 0 {
                    self.prv.iccs &= !0x80;
                    self.timer_pending = false;
                }
                let was_running = self.prv.iccs & 1 != 0;
                self.prv.iccs = (self.prv.iccs & 0x80) | (v & 0x41);
                if !was_running && v & 1 != 0 {
                    self.timer_deadline = self.cycles + self.prv.icr.max(1) as u64;
                }
            }
            PrivReg::Icr => {
                self.prv.icr = v;
                if self.prv.iccs & 1 != 0 {
                    self.timer_deadline = self.cycles + v.max(1) as u64;
                }
            }
            PrivReg::Txdb => self.console_out.push(v as u8),
            PrivReg::Txcs | PrivReg::Rxdb | PrivReg::Rxcs => {}
            PrivReg::Mapen => {
                self.prv.mapen = v & 1;
                self.xc.flush_all();
            }
            PrivReg::Tbia => {
                self.tlb.flush_all();
                self.xc.flush_all();
            }
            PrivReg::Tbis => {
                self.tlb.flush_single(v);
                self.xc.invalidate_slot(v >> PAGE_SHIFT);
            }
        }
    }
}

// ── The ALU ───────────────────────────────────────────────────────────

#[inline(always)]
pub(crate) fn alu_exec(op: AluOp, a: u32, b: u32, size: DataSize) -> (u32, AluFlags) {
    let mask = size.mask();
    let sign = size.sign_bit();
    let am = a & mask;
    let bm = b & mask;
    let mut f = AluFlags::default();
    let result: u32 = match op {
        AluOp::Add => {
            let sum = am as u64 + bm as u64;
            let r = (sum as u32) & mask;
            f.c = sum > mask as u64;
            f.v = ((am ^ r) & (bm ^ r) & sign) != 0;
            r
        }
        AluOp::Sub => sub_flags(am, bm, mask, sign, &mut f),
        AluOp::RSub => sub_flags(bm, am, mask, sign, &mut f),
        AluOp::Mul => {
            let prod = sext(am, size) as i64 * sext(bm, size) as i64;
            let r = (prod as u32) & mask;
            f.v = prod != sext(r, size) as i64;
            r
        }
        AluOp::Div | AluOp::Rem => {
            let divisor = sext(am, size);
            let dividend = sext(bm, size);
            if divisor == 0 {
                f.divz = true;
                bm
            } else if dividend == i32::MIN && divisor == -1 && size == DataSize::Long {
                f.v = true;
                bm
            } else if op == AluOp::Div {
                (dividend.wrapping_div(divisor) as u32) & mask
            } else {
                (dividend.wrapping_rem(divisor) as u32) & mask
            }
        }
        AluOp::And => am & bm,
        AluOp::BicR => bm & !am,
        AluOp::Or => am | bm,
        AluOp::Xor => am ^ bm,
        AluOp::Ash => {
            let count = sext(am, DataSize::Long);
            if count >= 0 {
                let c = count.min(63) as u32;
                let shifted = if c >= 32 { 0 } else { bm << c } & mask;
                // V if any significant bits were lost.
                let back = if c >= 32 {
                    0
                } else {
                    ((sext(shifted, size) >> c) as u32) & mask
                };
                f.v = bm != 0 && (back != bm || c >= 32);
                shifted
            } else {
                // unsigned_abs: a count of i32::MIN must saturate, not
                // overflow the negation.
                let c = count.unsigned_abs().min(31);
                ((sext(bm, size) >> c) as u32) & mask
            }
        }
        AluOp::Lsr => {
            let c = am.min(63);
            if c >= 32 {
                0
            } else {
                (bm >> c) & mask
            }
        }
        AluOp::Lsl => {
            let c = am.min(63);
            if c >= 32 {
                0
            } else {
                (bm << c) & mask
            }
        }
        AluOp::Pass => bm,
        AluOp::Not => !bm & mask,
        AluOp::Neg => sub_flags(0, bm, mask, sign, &mut f),
        AluOp::SextB => (bm as u8 as i8 as i32 as u32) & mask,
        AluOp::SextW => (bm as u16 as i16 as i32 as u32) & mask,
    };
    f.z = result & mask == 0;
    f.n = result & sign != 0;
    (result, f)
}

// ── Closed forms of the specialized longword ALU words ──────────────
//
// Each equals `alu_exec(op, a, b, DataSize::Long)`, result and all five
// micro-flags; `fast_alu_tests` checks every specialized form against it.

/// The micro-flags of a longword result.
#[inline(always)]
fn flags_l(r: u32, c: bool, v: bool) -> UFlags {
    UFlags {
        z: r == 0,
        n: (r as i32) < 0,
        c,
        v,
        divz: false,
    }
}

/// `a + b` at `Long`.
#[inline(always)]
fn add_l(a: u32, b: u32) -> (u32, UFlags) {
    let (r, c) = a.overflowing_add(b);
    (r, flags_l(r, c, (a ^ r) & (b ^ r) & 0x8000_0000 != 0))
}

/// `a - b` at `Long`, with the VAX borrow (`c = b > a`).
#[inline(always)]
fn sub_l(a: u32, b: u32) -> (u32, UFlags) {
    let r = a.wrapping_sub(b);
    (r, flags_l(r, b > a, (a ^ b) & (a ^ r) & 0x8000_0000 != 0))
}

/// A longword logic, pass or shift result: no carry, no overflow.
#[inline(always)]
fn logic_l(r: u32) -> (u32, UFlags) {
    (r, flags_l(r, false, false))
}

/// `b << count`, 0 for counts of 32 or more.
#[inline(always)]
fn lsl_l(count: u32, b: u32) -> u32 {
    b.checked_shl(count).unwrap_or(0)
}

/// `b >> count`, 0 for counts of 32 or more.
#[inline(always)]
fn lsr_l(count: u32, b: u32) -> u32 {
    b.checked_shr(count).unwrap_or(0)
}

#[inline(always)]
fn sub_flags(a: u32, b: u32, mask: u32, sign: u32, f: &mut AluFlags) -> u32 {
    // a - b with the VAX borrow convention: C set when b > a unsigned.
    let r = a.wrapping_sub(b) & mask;
    f.c = b > a;
    f.v = ((a ^ b) & (a ^ r) & sign) != 0;
    r
}

#[inline(always)]
fn sext(v: u32, size: DataSize) -> i32 {
    size.sign_extend(v) as i32
}

#[cfg(test)]
mod alu_tests {
    use super::*;

    fn run(op: AluOp, a: u32, b: u32) -> (u32, AluFlags) {
        alu_exec(op, a, b, DataSize::Long)
    }

    #[test]
    fn add_carry_and_overflow() {
        let (r, f) = run(AluOp::Add, 0xFFFF_FFFF, 1);
        assert_eq!(r, 0);
        assert!(f.c && f.z && !f.n);
        let (r, f) = run(AluOp::Add, 0x7FFF_FFFF, 1);
        assert_eq!(r, 0x8000_0000);
        assert!(f.v && f.n && !f.c);
    }

    #[test]
    fn sub_borrow() {
        let (r, f) = run(AluOp::Sub, 1, 2);
        assert_eq!(r, 0xFFFF_FFFF);
        assert!(f.c && f.n);
        let (_, f) = run(AluOp::Sub, 5, 5);
        assert!(f.z && !f.c);
    }

    #[test]
    fn rsub_is_reverse() {
        let (r, _) = run(AluOp::RSub, 2, 10);
        assert_eq!(r, 8);
    }

    #[test]
    fn byte_size_flags() {
        let (r, f) = alu_exec(AluOp::Add, 0x7F, 1, DataSize::Byte);
        assert_eq!(r, 0x80);
        assert!(f.v && f.n, "byte-size overflow detected");
        let (r, f) = alu_exec(AluOp::Add, 0xFF, 1, DataSize::Byte);
        assert_eq!(r, 0);
        assert!(f.c && f.z);
    }

    #[test]
    fn mul_overflow() {
        let (_, f) = run(AluOp::Mul, 0x10000, 0x10000);
        assert!(f.v);
        let (r, f) = run(AluOp::Mul, 6, 7);
        assert_eq!(r, 42);
        assert!(!f.v);
        let (r, _) = run(AluOp::Mul, 0xFFFF_FFFF, 5); // -1 * 5
        assert_eq!(r as i32, -5);
    }

    #[test]
    fn div_and_rem() {
        let (r, f) = run(AluOp::Div, 3, 10);
        assert_eq!(r, 3);
        assert!(!f.divz);
        let (r, _) = run(AluOp::Rem, 3, 10);
        assert_eq!(r, 1);
        let (r, _) = run(AluOp::Div, 0xFFFF_FFFE, 10); // 10 / -2
        assert_eq!(r as i32, -5);
        let (_, f) = run(AluOp::Div, 0, 10);
        assert!(f.divz);
        let (_, f) = run(AluOp::Div, 0xFFFF_FFFF, 0x8000_0000); // MIN / -1
        assert!(f.v);
    }

    #[test]
    fn ash_both_directions() {
        let (r, _) = run(AluOp::Ash, 4, 1);
        assert_eq!(r, 16);
        let (r, _) = run(AluOp::Ash, 0xFFFF_FFFE, 16); // >> 2
        assert_eq!(r, 4);
        let (r, _) = run(AluOp::Ash, 0xFFFF_FFFF, 0x8000_0000u32); // -1 arith
        assert_eq!(r, 0xC000_0000);
        let (_, f) = run(AluOp::Ash, 1, 0x4000_0000);
        assert!(f.v, "lost the sign bit");
    }

    #[test]
    fn logic_ops() {
        assert_eq!(run(AluOp::And, 0b1100, 0b1010).0, 0b1000);
        assert_eq!(run(AluOp::Or, 0b1100, 0b1010).0, 0b1110);
        assert_eq!(run(AluOp::Xor, 0b1100, 0b1010).0, 0b0110);
        assert_eq!(run(AluOp::BicR, 0b1100, 0b1010).0, 0b0010);
        assert_eq!(run(AluOp::Not, 0, 0).0, 0xFFFF_FFFF);
    }

    #[test]
    fn neg_carry_convention() {
        let (r, f) = run(AluOp::Neg, 0, 5);
        assert_eq!(r as i32, -5);
        assert!(f.c, "C set when operand nonzero");
        let (_, f) = run(AluOp::Neg, 0, 0);
        assert!(!f.c && f.z);
    }

    #[test]
    fn sign_extensions() {
        assert_eq!(run(AluOp::SextB, 0, 0x80).0, 0xFFFF_FF80);
        assert_eq!(run(AluOp::SextB, 0, 0x7F).0, 0x7F);
        assert_eq!(run(AluOp::SextW, 0, 0x8000).0, 0xFFFF_8000);
    }

    #[test]
    fn shifts_saturate() {
        assert_eq!(run(AluOp::Lsl, 40, 1).0, 0);
        assert_eq!(run(AluOp::Lsr, 40, 0xFFFF_FFFF).0, 0);
        assert_eq!(run(AluOp::Lsl, 4, 1).0, 16);
        assert_eq!(run(AluOp::Lsr, 4, 16).0, 1);
    }
}

#[cfg(test)]
mod fast_alu_tests {
    //! Every no-CC longword ALU word over slots and immediates, run on the
    //! fast engine, against `alu_exec`: the operation-named forms of
    //! `FastImage::build` and the generic forms alike, over a grid that
    //! crosses the carry, sign and shift-count edges.
    use super::*;
    use crate::{EngineTier, MemLayout};
    use atum_ucode::ControlStore;

    const GRID: [u32; 14] = [
        0,
        1,
        2,
        3,
        8,
        31,
        32,
        33,
        63,
        64,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFE,
        0xFFFF_FFFF,
    ];

    /// The operand shapes: slot/immediate sources, and the destination.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        SlotImm,
        ImmSlot,
        SlotSlot,
        SlotImmToRegNum,
    }

    fn flags(f: AluFlags) -> (bool, bool, bool, bool, bool) {
        (f.z, f.n, f.c, f.v, f.divz)
    }

    #[test]
    fn no_cc_longword_forms_match_alu_exec() {
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::RSub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::BicR,
            AluOp::Pass,
            AluOp::Lsl,
            AluOp::Lsr,
        ];
        let shapes = [
            Shape::SlotImm,
            Shape::ImmSlot,
            Shape::SlotSlot,
            Shape::SlotImmToRegNum,
        ];
        let (t0, t1) = (MicroReg::T(0), MicroReg::T(1));
        for op in ops {
            for shape in shapes {
                let word = |imm: u32| {
                    let (a, b, dst) = match shape {
                        Shape::SlotImm => (t0, MicroReg::Imm(imm), MicroReg::T(2)),
                        Shape::ImmSlot => (MicroReg::Imm(imm), t1, MicroReg::T(2)),
                        Shape::SlotSlot => (t0, t1, MicroReg::T(2)),
                        Shape::SlotImmToRegNum => (t0, MicroReg::Imm(imm), MicroReg::RegNum),
                    };
                    MicroOp::Alu {
                        op,
                        a,
                        b,
                        dst,
                        cc: CcEffect::None,
                        size: DataSize::Long,
                    }
                };
                // One word per immediate (the slot-slot shape ignores it).
                let mut cs = ControlStore::new();
                cs.append_routine("grid", GRID.iter().map(|&v| word(v)).collect());
                let mut m = Machine::with_control_store(MemLayout::small(), cs);
                m.set_engine_tier(EngineTier::Fast);
                let dst = match shape {
                    Shape::SlotImmToRegNum => slots::REGNUM,
                    _ => slots::T0 + 2,
                };
                for (w, &imm) in GRID.iter().enumerate() {
                    for &x in &GRID {
                        let (a, b) = match shape {
                            Shape::SlotImm | Shape::SlotImmToRegNum => (x, imm),
                            Shape::ImmSlot => (imm, x),
                            Shape::SlotSlot => (x, imm),
                        };
                        m.regs.file[slots::T0] = a;
                        m.regs.file[slots::T0 + 1] = b;
                        m.upc = w as u32;
                        // A one-cycle budget runs exactly this word.
                        assert_eq!(m.run(1), RunExit::CycleLimit);
                        let (r, f) = alu_exec(op, a, b, DataSize::Long);
                        let r = match shape {
                            Shape::SlotImmToRegNum => r & 0xF,
                            _ => r,
                        };
                        let u = m.regs.uflags;
                        let got = (m.regs.file[dst], (u.z, u.n, u.c, u.v, u.divz));
                        assert_eq!(
                            got,
                            (r, flags(f)),
                            "{op:?} {shape:?} a={a:#x} b={b:#x} lowered as {:?}",
                            m.fast.ops[w]
                        );
                    }
                }
            }
        }
    }
}
