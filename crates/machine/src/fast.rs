//! The capture-path fast engine: a predecoded view of the control store.
//!
//! [`FastImage::build`] walks the sealed [`ControlStore`] once and lowers
//! every [`MicroOp`] into a [`DecOp`]: operand selectors become slot
//! indices into the unified register file (see [`crate::regs::slots`]),
//! `Target::Entry` indirections become absolute control-store addresses,
//! size selectors become `Option<DataSize>`, and constant privileged
//! register numbers become resolved [`PrivReg`]s, or plain slot moves
//! for the latches that live in the register file. The hot micro-op
//! shapes get variants of their own, so that each runs as one match arm
//! with no nested selector match: longword ALU words with no
//! condition-code effect carry their operation in the variant (see
//! [`DecOp::AddSI`]). A `Call` of one of the two hottest micro-routines,
//! the instruction-buffer byte server and the ATUM logger, gets a native
//! form that runs the whole call in one dispatch when its preconditions
//! hold (see [`DecOp::CallIbServe`]). The image also snapshots the opcode
//! and specifier dispatch tables so a dispatch is a flat array load.
//!
//! The image is keyed on [`ControlStore::version`]: any mutation of the
//! store (a WCS append, an entry or dispatch repoint) moves the counter
//! and the next `run`/`step_insns` rebuilds. Between mutations the image
//! is exactly equivalent to interpreting the store directly — the
//! differential suite in `crates/bench/tests/fast_equiv.rs` pins this
//! dynamically, and the lowering-equivalence pass in `atum-mclint`
//! re-derives every [`DecOp`] from its source [`MicroOp`] statically.
//! The types here are public (read-only: all construction goes through
//! [`FastImage::build`]) so that external verifiers can inspect the image.

use atum_arch::{DataSize, PrivReg};
use atum_ucode::{
    AluOp, CcEffect, ControlStore, FaultKind, MicroCond, MicroOp, MicroReg, RefClass, SizeSel,
    SpecTable, Target,
};

use crate::regs::{latch_slot, slots};

/// A pre-resolved source operand.
///
/// Immediates are deliberately *not* representable here: `dec_op` hoists
/// every `MicroReg::Imm` into a dedicated `*I*` [`DecOp`] variant, which
/// keeps this enum (and with it every generic op) two bytes wide. The
/// whole `DecOp` stays within 12 bytes — small enough that the predecoded
/// image of a patched control store lives comfortably in L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A slot in the unified register file.
    Slot(u8),
    /// The PSL image.
    Psl,
    /// The GPR selected by the `RegNum` latch.
    GprIdx,
    /// Current operand size in bytes.
    OSizeBytes,
    /// Current operand size mask.
    OSizeMask,
}

/// A pre-resolved destination operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dst {
    /// A plain slot (micro-temporaries, patch scratch, MAR/MDR, latches).
    Slot(u8),
    /// A general register: logged for rollback, PC write invalidates the
    /// prefetch buffer.
    Gpr(u8),
    /// The GPR selected by the `RegNum` latch.
    GprIdx,
    /// The PSL image.
    Psl,
    /// A slot written through an 8-bit mask (`Spec`/`OpReg`).
    MaskedFF(u8),
    /// A slot written through a 4-bit mask (`RegNum`).
    MaskedF(u8),
    /// A write the micro-assembler should never emit (immediates and the
    /// read-only size views); dropped, with a debug assertion.
    ReadOnly,
}

/// One predecoded micro-op. Mirrors [`MicroOp`] 1:1 by control-store
/// address, with every static indirection already resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecOp {
    /// Slot→slot move — the dominant micro-op in the stock fetch/decode
    /// routines, specialized so it executes with no selector dispatch.
    MovSS {
        /// Source slot.
        src: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Immediate→slot move.
    MovIS {
        /// Immediate value.
        imm: u32,
        /// Destination slot.
        dst: u8,
    },
    /// RegNum-selected GPR → slot (register-mode operand fetch).
    MovGIS {
        /// Destination slot.
        dst: u8,
    },
    /// Slot → RegNum-selected GPR (register-mode result write-back).
    MovSGI {
        /// Source slot.
        src: u8,
    },
    /// Slot → the RegNum latch (4-bit masked; the decode loop's
    /// specifier crack).
    MovSMF {
        /// Source slot.
        src: u8,
        /// Destination slot (the RegNum latch).
        dst: u8,
    },
    /// Slot → an 8-bit latch (`Spec`/`OpReg`; the opcode and specifier
    /// loads).
    MovSMFF {
        /// Source slot.
        src: u8,
        /// Destination slot (the 8-bit latch).
        dst: u8,
    },
    /// Slot → fixed GPR.
    MovSG {
        /// Source slot.
        src: u8,
        /// Destination GPR number.
        gpr: u8,
    },
    /// Longword `Add` of a slot and an immediate into a plain slot, with
    /// no condition-code effect. This and the variants below it up to
    /// [`DecOp::LsrSS`] carry the ALU operation in the variant: the arm
    /// computes the result and all five micro-flags in closed form. They
    /// cover every (operation, operand shape) pair of the no-CC longword
    /// words that the fetch, specifier, transfer and ATUM hook routines
    /// use (`S` = slot, `I` = immediate, in operand order); every other
    /// ALU word keeps a generic form.
    AddSI {
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Sub` (`a - b`), slot and immediate (see [`DecOp::AddSI`]).
    SubSI {
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `RSub` (`b - a`), slot and immediate (see [`DecOp::AddSI`]).
    RSubSI {
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `And`, slot and immediate (see [`DecOp::AddSI`]).
    AndSI {
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `And`, slot and immediate, into the 4-bit `RegNum` latch
    /// (the specifier crack): the flags come from the unmasked result.
    AndSIMF {
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot (the `RegNum` latch).
        dst: u8,
    },
    /// Longword `Or`, slot and immediate (see [`DecOp::AddSI`]).
    OrSI {
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Pass` of a slot (the micro-`test`; see [`DecOp::AddSI`]).
    PassIS {
        /// Immediate first input (unused by `Pass`).
        imm: u32,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Lsl` by an immediate count (see [`DecOp::AddSI`]).
    LslIS {
        /// Immediate shift count.
        imm: u32,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Lsr` by an immediate count (see [`DecOp::AddSI`]).
    LsrIS {
        /// Immediate shift count.
        imm: u32,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `BicR` (`b & !a`), immediate mask (see [`DecOp::AddSI`]).
    BicRIS {
        /// Immediate first input (the bits to clear).
        imm: u32,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Sub` (`a - b`) of two slots (see [`DecOp::AddSI`]).
    SubSS {
        /// First input slot.
        a: u8,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Or` of two slots (see [`DecOp::AddSI`]).
    OrSS {
        /// First input slot.
        a: u8,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Lsl`, count in slot `a` (see [`DecOp::AddSI`]).
    LslSS {
        /// Shift-count slot.
        a: u8,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// Longword `Lsr`, count in slot `a` (see [`DecOp::AddSI`]).
    LsrSS {
        /// Shift-count slot.
        a: u8,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
    },
    /// ALU with both sources and the destination in plain slots.
    AluSS {
        /// Operation.
        op: AluOp,
        /// First input slot.
        a: u8,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Operation size.
        size: DataSize,
    },
    /// ALU with an immediate `a` source.
    AluIS {
        /// Operation.
        op: AluOp,
        /// Immediate first input.
        imm: u32,
        /// Second input slot.
        b: u8,
        /// Destination slot.
        dst: u8,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Operation size.
        size: DataSize,
    },
    /// ALU with an immediate `b` source.
    AluSI {
        /// Operation.
        op: AluOp,
        /// First input slot.
        a: u8,
        /// Immediate second input.
        imm: u32,
        /// Destination slot.
        dst: u8,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Operation size.
        size: DataSize,
    },
    /// General move, for the operand shapes not specialized above.
    /// Immediate operands get their own variants (see [`Src`]).
    Mov {
        /// Source selector.
        src: Src,
        /// Destination selector.
        dst: Dst,
    },
    /// General immediate move.
    MovID {
        /// Immediate value.
        imm: u32,
        /// Destination selector.
        dst: Dst,
    },
    /// General ALU op.
    Alu {
        /// Operation.
        op: AluOp,
        /// First input.
        a: Src,
        /// Second input.
        b: Src,
        /// Destination selector.
        dst: Dst,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Operation size.
        size: DataSize,
    },
    /// General ALU op with an immediate `a` source.
    AluID {
        /// Operation.
        op: AluOp,
        /// Immediate first input.
        imm: u32,
        /// Second input.
        b: Src,
        /// Destination selector.
        dst: Dst,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Operation size.
        size: DataSize,
    },
    /// General ALU op with an immediate `b` source.
    AluDI {
        /// Operation.
        op: AluOp,
        /// First input.
        a: Src,
        /// Immediate second input.
        imm: u32,
        /// Destination selector.
        dst: Dst,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Operation size.
        size: DataSize,
    },
    /// An ALU op whose operands were both immediates: the result and the
    /// micro-flags (packed `z n c v divz` in bits 0..5) are computed at
    /// decode time.
    AluConst {
        /// The constant-folded result.
        result: u32,
        /// Micro-flags, packed `z n c v divz` in bits 0..5.
        fbits: u8,
        /// PSL condition-code effect.
        cc: CcEffect,
        /// Destination selector.
        dst: Dst,
    },
    /// Latches the operand size.
    SetSize(DataSize),
    /// Latches the operand size from a register holding 1, 2 or 4.
    SetSizeDyn(Src),
    /// `SetSizeDyn` of a constant that is not 1/2/4: hits the reference
    /// path's "bad dynamic size latch" error when executed.
    SetSizeBad,
    /// Virtual-memory read; `size: None` means "use the osize latch".
    Read {
        /// Reference classification (for tracing).
        class: RefClass,
        /// Resolved transfer size, or `None` for the osize latch.
        size: Option<DataSize>,
    },
    /// Virtual-memory write; `size: None` means "use the osize latch".
    Write {
        /// Resolved transfer size, or `None` for the osize latch.
        size: Option<DataSize>,
    },
    /// Physical longword read.
    PhysRead,
    /// Physical longword write.
    PhysWrite,
    /// Unconditional jump to a resolved control-store address.
    Jump(u32),
    /// `JumpIf` on `UZero`, specialized so the flag test inlines into the
    /// dispatch arm (with the four variants below, the conditions that
    /// dominate the stock decode loop and the ATUM logger).
    JumpUZero(u32),
    /// `JumpIf` on `UNotZero` (specialized; see [`DecOp::JumpUZero`]).
    JumpUNotZero(u32),
    /// `JumpIf` on `RegNumIsPc` (specialized; see [`DecOp::JumpUZero`]).
    JumpRegNumIsPc(u32),
    /// `JumpIf` on `UCarry` (the logger's buffer-full test; see
    /// [`DecOp::JumpUZero`]).
    JumpUCarry(u32),
    /// `JumpIf` on `UserMode` (the logger's kernel-bit test; see
    /// [`DecOp::JumpUZero`]).
    JumpUserMode(u32),
    /// Conditional jump (the conditions not specialized above).
    JumpIf {
        /// Condition.
        cond: MicroCond,
        /// Resolved target address.
        target: u32,
    },
    /// Micro-subroutine call to a resolved address.
    Call(u32),
    /// A `Call` whose target begins the stock instruction-buffer byte
    /// server (`ifetch.byte`, the words of `IB_SERVE`). When the buffer
    /// holds a byte, the micro-stack has room and the routine's last word
    /// starts before the cycle deadline, the arm applies the call, the
    /// serve path and the return at once and charges [`IB_SERVE_CYCLES`].
    /// Otherwise it runs as the plain [`DecOp::Call`], so a refill (whose
    /// `XferIFetch` call is the traced hook entry) always runs op by op.
    /// The callee's words keep their own lowering. A native call is one
    /// entry of its callee and stays inside one region (stock → stock).
    CallIbServe(u32),
    /// A `Call` whose target begins the scratch-style ATUM logger
    /// (`atum.log`, the words of `LOGGER`). When the record fits below
    /// `TRLIM` and inside physical memory, the micro-stack has room and
    /// the routine's last word starts before the cycle deadline, the arm
    /// applies the call, the store path and the return at once and
    /// charges [`LOGGER_USER_CYCLES`] or [`LOGGER_KERNEL_CYCLES`].
    /// Otherwise it runs as the plain [`DecOp::Call`], so the buffer-full
    /// halt and a record store's machine check happen op by op. As with
    /// [`DecOp::CallIbServe`], the callee keeps its own lowering, and a
    /// native call is one entry of its callee (patch → patch).
    CallLogger(u32),
    /// Return from micro-subroutine.
    Ret,
    /// Jump through the opcode dispatch table on `OpReg`.
    DispatchOpcode,
    /// Jump through a specifier dispatch table (by table index).
    DispatchSpec(u8),
    /// End of architectural instruction.
    DecodeNext,
    /// `PC ← PC + 1` without invalidating the prefetch buffer.
    AdvancePc,
    /// Raise a fault/trap from microcode.
    Fault(FaultKind),
    /// Privileged read with the register number known at decode time,
    /// for the registers that are not slot latches (IPL, the console, the
    /// clock and the mapping registers).
    ReadPrK {
        /// The resolved privileged register.
        reg: PrivReg,
        /// Destination selector.
        dst: Dst,
    },
    /// Privileged read with a dynamic register number.
    ReadPr {
        /// Register-number source.
        num: Src,
        /// Destination selector.
        dst: Dst,
    },
    /// `ReadPr` with a constant register number that names no register:
    /// faults `ReservedOperand` when executed, exactly like the reference
    /// path.
    ReadPrBad,
    /// Privileged write with the register number known at decode time
    /// (not a slot latch; see [`DecOp::ReadPrK`]).
    WritePrK {
        /// The resolved privileged register.
        reg: PrivReg,
        /// Value source.
        src: Src,
    },
    /// Privileged write with both the register number and the value known
    /// at decode time.
    WritePrKI {
        /// The resolved privileged register.
        reg: PrivReg,
        /// Immediate value.
        imm: u32,
    },
    /// Privileged write with a dynamic register number.
    WritePr {
        /// Register-number source.
        num: Src,
        /// Value source.
        src: Src,
    },
    /// Privileged write of an immediate through a dynamic register number.
    WritePrI {
        /// Register-number source.
        num: Src,
        /// Immediate value.
        imm: u32,
    },
    /// `WritePr` with a constant register number that names no register
    /// (see [`DecOp::ReadPrBad`]).
    WritePrBad,
    /// Invalidate the whole translation buffer.
    TbFlushAll,
    /// Invalidate per-process translation-buffer entries.
    TbFlushProc,
    /// Halt the processor.
    Halt,
}

/// The predecoded control store plus snapshots of its dispatch tables.
#[derive(Debug)]
pub struct FastImage {
    /// The [`ControlStore::version`] this image was built from.
    pub version: u64,
    /// One [`DecOp`] per control-store word, same addressing.
    pub ops: Vec<DecOp>,
    /// Snapshot of the opcode dispatch table.
    pub opcode_table: [u32; 256],
    /// Snapshots of the four specifier dispatch tables.
    pub spec_tables: [[u32; 16]; SpecTable::COUNT],
}

impl FastImage {
    /// A placeholder that can never match a real store version (versions
    /// count up from zero), forcing a build on first use.
    pub(crate) fn empty() -> FastImage {
        FastImage {
            version: u64::MAX,
            ops: Vec::new(),
            opcode_table: [0; 256],
            spec_tables: [[0; 16]; SpecTable::COUNT],
        }
    }

    /// Predecodes the whole store.
    pub fn build(cs: &ControlStore) -> FastImage {
        let mut opcode_table = [0u32; 256];
        for (i, slot) in opcode_table.iter_mut().enumerate() {
            *slot = cs.opcode_target(i as u8);
        }
        let mut spec_tables = [[0u32; 16]; SpecTable::COUNT];
        for table in [
            SpecTable::Read,
            SpecTable::Write,
            SpecTable::Modify,
            SpecTable::Addr,
        ] {
            for nibble in 0..16u8 {
                spec_tables[table.index()][nibble as usize] = cs.spec_target(table, nibble);
            }
        }
        FastImage {
            version: cs.version(),
            ops: cs.words().iter().map(|&op| dec_op(op, cs)).collect(),
            opcode_table,
            spec_tables,
        }
    }
}

// ── The native call forms ────────────────────────────────────────────
//
// Each pattern is one table of the exact words a routine must hold for a
// call of it to lower to its native form: `reads` compares every word in
// full, except that a `JumpIf` matches on its condition and the pattern's
// check resolves its target. The arms in the fast loop hard-code what
// these words do, so every constant they use is in a table.

/// A no-CC longword ALU word of a pattern.
const fn alu_l(op: AluOp, a: MicroReg, b: MicroReg, dst: MicroReg) -> MicroOp {
    MicroOp::Alu {
        op,
        a,
        b,
        dst,
        cc: CcEffect::None,
        size: DataSize::Long,
    }
}

/// A `JumpIf` of a pattern; its target is checked by the pattern's code.
const fn jif(cond: MicroCond) -> MicroOp {
    MicroOp::JumpIf {
        cond,
        target: Target::Abs(0),
    }
}

const fn mov(src: MicroReg, dst: MicroReg) -> MicroOp {
    MicroOp::Mov { src, dst }
}

const fn read_pr(reg: PrivReg, dst: MicroReg) -> MicroOp {
    MicroOp::ReadPr {
        num: MicroReg::Imm(reg as u32),
        dst,
    }
}

/// The stock instruction-buffer byte server as its native form reads it:
/// the test and branch at the call target `t`, then the five words of the
/// serve path at the branch target (`IB_SERVE[IB_SERVE_HEAD..]`). The
/// refill words between `t + 2` and the serve path are not examined: the
/// native path runs only when `IbCnt` is nonzero, so it never runs them.
const IB_SERVE: [MicroOp; 7] = {
    use MicroReg::{IbCnt, IbData, Imm, Mdr, T};
    [
        alu_l(AluOp::Pass, Imm(0), IbCnt, T(15)),
        jif(MicroCond::UNotZero),
        alu_l(AluOp::And, IbData, Imm(0xFF), Mdr),
        alu_l(AluOp::Lsr, Imm(8), IbData, IbData),
        alu_l(AluOp::Sub, IbCnt, Imm(1), IbCnt),
        MicroOp::AdvancePc,
        MicroOp::Ret,
    ]
};

/// How many words of `IB_SERVE` sit at the call target.
const IB_SERVE_HEAD: usize = 2;

/// Micro-cycles of a native [`DecOp::CallIbServe`]: the `Call` and the
/// seven words of `IB_SERVE`.
pub const IB_SERVE_CYCLES: u64 = 8;

/// `trctl::PID_SHIFT` of `atum-core`, which this crate cannot name.
pub(crate) const TRCTL_PID_SHIFT: u32 = 8;
/// `trctl::PID_MASK` of `atum-core`.
pub(crate) const TRCTL_PID_MASK: u32 = 0xFF;
/// `meta::PID_SHIFT` of `atum-core`.
pub(crate) const META_PID_SHIFT: u32 = 8;
/// `meta::KERNEL_BIT` of `atum-core`.
pub(crate) const META_KERNEL_BIT: u32 = 1 << 27;

/// Where `LOGGER`'s `JumpIf UserMode` must land, relative to the call
/// target: past the kernel-bit `Or`.
const LOGGER_NOT_KERNEL: u32 = 17;

/// The scratch-style ATUM logger (`atum.log`) as its native form reads it,
/// from the call target on: save MAR/MDR, the capacity check (its
/// `JumpIf UCarry` may go anywhere), the two record stores with the pid
/// and kernel bit, the `TRPTR` advance, the restore and the return. The
/// spill style's logger does not match and keeps plain calls.
const LOGGER: [MicroOp; 24] = {
    use MicroReg::{Imm, Mar, Mdr, P};
    [
        mov(Mar, P(0)),
        mov(Mdr, P(6)),
        read_pr(PrivReg::Trptr, P(2)),
        read_pr(PrivReg::Trlim, P(3)),
        alu_l(AluOp::Add, P(2), Imm(8), P(4)),
        alu_l(AluOp::Sub, P(3), P(4), P(7)),
        jif(MicroCond::UCarry),
        mov(P(2), Mar),
        mov(P(0), Mdr),
        MicroOp::PhysWrite,
        read_pr(PrivReg::Trctl, P(1)),
        alu_l(AluOp::Lsr, Imm(TRCTL_PID_SHIFT), P(1), P(7)),
        alu_l(AluOp::And, P(7), Imm(TRCTL_PID_MASK), P(7)),
        alu_l(AluOp::Lsl, Imm(META_PID_SHIFT), P(7), P(7)),
        alu_l(AluOp::Or, P(5), P(7), P(5)),
        jif(MicroCond::UserMode),
        alu_l(AluOp::Or, P(5), Imm(META_KERNEL_BIT), P(5)),
        alu_l(AluOp::Add, P(2), Imm(4), Mar),
        mov(P(5), Mdr),
        MicroOp::PhysWrite,
        MicroOp::WritePr {
            num: Imm(PrivReg::Trptr as u32),
            src: P(4),
        },
        mov(P(0), Mar),
        mov(P(6), Mdr),
        MicroOp::Ret,
    ]
};

/// Micro-cycles of a native [`DecOp::CallLogger`] in user mode: the
/// `Call`, the 23 words of `LOGGER` that skip the kernel-bit `Or`, and
/// the two stores' memory cycles.
pub const LOGGER_USER_CYCLES: u64 = 26;

/// Micro-cycles of a native [`DecOp::CallLogger`] in kernel mode: all 24
/// words of `LOGGER`.
pub const LOGGER_KERNEL_CYCLES: u64 = 27;

/// Whether the words from `at` on read `pattern` (see the section note).
fn reads(cs: &ControlStore, at: u32, pattern: &[MicroOp]) -> bool {
    let words = cs.words();
    let Some(words) = words.get(at as usize..at as usize + pattern.len()) else {
        return false;
    };
    words
        .iter()
        .zip(pattern)
        .all(|(&got, &want)| match (got, want) {
            (MicroOp::JumpIf { cond, .. }, MicroOp::JumpIf { cond: want, .. }) => cond == want,
            _ => got == want,
        })
}

/// The resolved target of the `JumpIf` at `at` (which `reads` matched).
fn jif_target(cs: &ControlStore, at: u32) -> Option<u32> {
    match cs.word(at) {
        MicroOp::JumpIf { target, .. } => Some(dec_target(target, cs)),
        _ => None,
    }
}

/// Lowers a `Call` of `t`: a native form when `t` begins one of the two
/// patterned routines, the plain call otherwise.
fn dec_call(t: u32, cs: &ControlStore) -> DecOp {
    let (head, serve) = IB_SERVE.split_at(IB_SERVE_HEAD);
    if reads(cs, t, head) && jif_target(cs, t + 1).is_some_and(|s| reads(cs, s, serve)) {
        return DecOp::CallIbServe(t);
    }
    // LOGGER[15] is the `JumpIf UserMode`.
    if reads(cs, t, &LOGGER) && jif_target(cs, t + 15) == Some(t + LOGGER_NOT_KERNEL) {
        return DecOp::CallLogger(t);
    }
    DecOp::Call(t)
}

fn dec_target(t: Target, cs: &ControlStore) -> u32 {
    match t {
        Target::Abs(a) => a,
        Target::Entry(e) => cs.entry(e),
    }
}

fn dec_size(s: SizeSel) -> Option<DataSize> {
    match s {
        SizeSel::Fixed(s) => Some(s),
        SizeSel::OSize => None,
    }
}

/// Decodes a non-immediate source; `MicroReg::Imm` yields `Err(value)`
/// and the caller picks an immediate-carrying [`DecOp`] variant.
fn dec_src(r: MicroReg) -> Result<Src, u32> {
    Ok(match r {
        MicroReg::Imm(v) => return Err(v),
        MicroReg::Gpr(n) => Src::Slot((slots::GPR0 + (n & 0xF) as usize) as u8),
        MicroReg::T(n) => Src::Slot((slots::T0 + (n & 0xF) as usize) as u8),
        MicroReg::P(n) => Src::Slot((slots::P0 + (n & 0x7) as usize) as u8),
        MicroReg::Mar => Src::Slot(slots::MAR as u8),
        MicroReg::Mdr => Src::Slot(slots::MDR as u8),
        MicroReg::Psl => Src::Psl,
        MicroReg::Spec => Src::Slot(slots::SPEC as u8),
        MicroReg::OpReg => Src::Slot(slots::OPREG as u8),
        MicroReg::RegNum => Src::Slot(slots::REGNUM as u8),
        MicroReg::GprIdx => Src::GprIdx,
        MicroReg::OSizeBytes => Src::OSizeBytes,
        MicroReg::OSizeMask => Src::OSizeMask,
        MicroReg::IbData => Src::Slot(slots::IBDATA as u8),
        MicroReg::IbCnt => Src::Slot(slots::IBCNT as u8),
        MicroReg::ExcVec => Src::Slot(slots::EXCVEC as u8),
        MicroReg::ExcParam => Src::Slot(slots::EXCPARAM as u8),
        MicroReg::ExcFlags => Src::Slot(slots::EXCFLAGS as u8),
        MicroReg::ExcPc => Src::Slot(slots::EXCPC as u8),
        MicroReg::ExcIpl => Src::Slot(slots::EXCIPL as u8),
    })
}

fn dec_dst(r: MicroReg) -> Dst {
    match r {
        MicroReg::Gpr(n) => Dst::Gpr(n & 0xF),
        MicroReg::GprIdx => Dst::GprIdx,
        MicroReg::T(n) => Dst::Slot((slots::T0 + (n & 0xF) as usize) as u8),
        MicroReg::P(n) => Dst::Slot((slots::P0 + (n & 0x7) as usize) as u8),
        MicroReg::Mar => Dst::Slot(slots::MAR as u8),
        MicroReg::Mdr => Dst::Slot(slots::MDR as u8),
        MicroReg::Psl => Dst::Psl,
        MicroReg::Spec => Dst::MaskedFF(slots::SPEC as u8),
        MicroReg::OpReg => Dst::MaskedFF(slots::OPREG as u8),
        MicroReg::RegNum => Dst::MaskedF(slots::REGNUM as u8),
        MicroReg::IbData => Dst::Slot(slots::IBDATA as u8),
        MicroReg::IbCnt => Dst::Slot(slots::IBCNT as u8),
        MicroReg::ExcVec => Dst::Slot(slots::EXCVEC as u8),
        MicroReg::ExcParam => Dst::Slot(slots::EXCPARAM as u8),
        MicroReg::ExcFlags => Dst::Slot(slots::EXCFLAGS as u8),
        MicroReg::ExcPc => Dst::Slot(slots::EXCPC as u8),
        MicroReg::ExcIpl => Dst::Slot(slots::EXCIPL as u8),
        MicroReg::Imm(_) | MicroReg::OSizeBytes | MicroReg::OSizeMask => Dst::ReadOnly,
    }
}

/// Lowers a move; also the form of a constant-numbered `ReadPr`/`WritePr`
/// of a latch that lives in a slot.
fn dec_mov(src: Result<Src, u32>, dst: Dst) -> DecOp {
    match (src, dst) {
        (Ok(Src::Slot(src)), Dst::Slot(dst)) => DecOp::MovSS { src, dst },
        (Err(imm), Dst::Slot(dst)) => DecOp::MovIS { imm, dst },
        (Ok(Src::GprIdx), Dst::Slot(dst)) => DecOp::MovGIS { dst },
        (Ok(Src::Slot(src)), Dst::GprIdx) => DecOp::MovSGI { src },
        (Ok(Src::Slot(src)), Dst::MaskedF(dst)) => DecOp::MovSMF { src, dst },
        (Ok(Src::Slot(src)), Dst::MaskedFF(dst)) => DecOp::MovSMFF { src, dst },
        (Ok(Src::Slot(src)), Dst::Gpr(gpr)) => DecOp::MovSG { src, gpr },
        (Ok(src), dst) => DecOp::Mov { src, dst },
        (Err(imm), dst) => DecOp::MovID { imm, dst },
    }
}

/// The specialized form of a longword, no-CC ALU word (see
/// [`DecOp::AddSI`]), or `None` when its (operation, shape) pair has none.
fn dec_alu_long(op: AluOp, a: Result<Src, u32>, b: Result<Src, u32>, dst: Dst) -> Option<DecOp> {
    use AluOp::*;
    Some(match (op, a, b, dst) {
        (Add, Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => DecOp::AddSI { a, imm, dst },
        (Sub, Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => DecOp::SubSI { a, imm, dst },
        (RSub, Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => DecOp::RSubSI { a, imm, dst },
        (And, Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => DecOp::AndSI { a, imm, dst },
        (And, Ok(Src::Slot(a)), Err(imm), Dst::MaskedF(dst)) => DecOp::AndSIMF { a, imm, dst },
        (Or, Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => DecOp::OrSI { a, imm, dst },
        (Pass, Err(imm), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::PassIS { imm, b, dst },
        (Lsl, Err(imm), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::LslIS { imm, b, dst },
        (Lsr, Err(imm), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::LsrIS { imm, b, dst },
        (BicR, Err(imm), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::BicRIS { imm, b, dst },
        (Sub, Ok(Src::Slot(a)), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::SubSS { a, b, dst },
        (Or, Ok(Src::Slot(a)), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::OrSS { a, b, dst },
        (Lsl, Ok(Src::Slot(a)), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::LslSS { a, b, dst },
        (Lsr, Ok(Src::Slot(a)), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::LsrSS { a, b, dst },
        _ => return None,
    })
}

/// Lowers an ALU word to its generic form (or folds it when both
/// operands are constant).
fn dec_alu(
    op: AluOp,
    a: Result<Src, u32>,
    b: Result<Src, u32>,
    dst: Dst,
    cc: CcEffect,
    size: DataSize,
) -> DecOp {
    match (a, b, dst) {
        (Ok(Src::Slot(a)), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::AluSS {
            op,
            a,
            b,
            dst,
            cc,
            size,
        },
        (Err(imm), Ok(Src::Slot(b)), Dst::Slot(dst)) => DecOp::AluIS {
            op,
            imm,
            b,
            dst,
            cc,
            size,
        },
        (Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => DecOp::AluSI {
            op,
            a,
            imm,
            dst,
            cc,
            size,
        },
        (Ok(a), Ok(b), dst) => DecOp::Alu {
            op,
            a,
            b,
            dst,
            cc,
            size,
        },
        (Err(imm), Ok(b), dst) => DecOp::AluID {
            op,
            imm,
            b,
            dst,
            cc,
            size,
        },
        (Ok(a), Err(imm), dst) => DecOp::AluDI {
            op,
            a,
            imm,
            dst,
            cc,
            size,
        },
        (Err(av), Err(bv), dst) => {
            // Both operands constant: fold the whole ALU op now.
            let (result, f) = crate::engine::alu_exec(op, av, bv, size);
            let fbits = f.z as u8
                | (f.n as u8) << 1
                | (f.c as u8) << 2
                | (f.v as u8) << 3
                | (f.divz as u8) << 4;
            DecOp::AluConst {
                result,
                fbits,
                cc,
                dst,
            }
        }
    }
}

fn dec_op(op: MicroOp, cs: &ControlStore) -> DecOp {
    match op {
        MicroOp::Mov { src, dst } => dec_mov(dec_src(src), dec_dst(dst)),
        MicroOp::Alu {
            op,
            a,
            b,
            dst,
            cc,
            size,
        } => {
            let (a, b, dst) = (dec_src(a), dec_src(b), dec_dst(dst));
            if cc == CcEffect::None && size == DataSize::Long {
                if let Some(special) = dec_alu_long(op, a, b, dst) {
                    return special;
                }
            }
            dec_alu(op, a, b, dst, cc, size)
        }
        MicroOp::SetSize(s) => DecOp::SetSize(s),
        MicroOp::SetSizeDyn(r) => match dec_src(r) {
            Ok(src) => DecOp::SetSizeDyn(src),
            // A constant dynamic-size latch folds to the fixed form (an
            // out-of-range constant keeps the runtime error path).
            Err(1) => DecOp::SetSize(DataSize::Byte),
            Err(2) => DecOp::SetSize(DataSize::Word),
            Err(4) => DecOp::SetSize(DataSize::Long),
            Err(_) => DecOp::SetSizeBad,
        },
        MicroOp::Read { class, size } => DecOp::Read {
            class,
            size: dec_size(size),
        },
        MicroOp::Write { size } => DecOp::Write {
            size: dec_size(size),
        },
        MicroOp::PhysRead => DecOp::PhysRead,
        MicroOp::PhysWrite => DecOp::PhysWrite,
        MicroOp::Jump(t) => DecOp::Jump(dec_target(t, cs)),
        MicroOp::JumpIf { cond, target } => {
            let target = dec_target(target, cs);
            match cond {
                MicroCond::UZero => DecOp::JumpUZero(target),
                MicroCond::UNotZero => DecOp::JumpUNotZero(target),
                MicroCond::RegNumIsPc => DecOp::JumpRegNumIsPc(target),
                MicroCond::UCarry => DecOp::JumpUCarry(target),
                MicroCond::UserMode => DecOp::JumpUserMode(target),
                cond => DecOp::JumpIf { cond, target },
            }
        }
        MicroOp::Call(t) => dec_call(dec_target(t, cs), cs),
        MicroOp::Ret => DecOp::Ret,
        MicroOp::DispatchOpcode => DecOp::DispatchOpcode,
        MicroOp::DispatchSpec(table) => DecOp::DispatchSpec(table.index() as u8),
        MicroOp::DecodeNext => DecOp::DecodeNext,
        MicroOp::AdvancePc => DecOp::AdvancePc,
        MicroOp::Fault(kind) => DecOp::Fault(kind),
        // A constant register number that actually names a register
        // resolves at decode time: a latch that lives in a slot becomes a
        // plain move, any other register its `*PrK*` form. An invalid
        // constant still faults ReservedOperand at run time, exactly like
        // the reference path.
        MicroOp::ReadPr { num, dst } => match dec_src(num) {
            Err(n) => match PrivReg::from_number(n) {
                Some(reg) => match latch_slot(reg) {
                    Some(slot) => dec_mov(Ok(Src::Slot(slot as u8)), dec_dst(dst)),
                    None => DecOp::ReadPrK {
                        reg,
                        dst: dec_dst(dst),
                    },
                },
                None => DecOp::ReadPrBad,
            },
            Ok(num) => DecOp::ReadPr {
                num,
                dst: dec_dst(dst),
            },
        },
        MicroOp::WritePr { num, src } => match (dec_src(num), dec_src(src)) {
            (Err(n), src) => match PrivReg::from_number(n) {
                Some(reg) => match (latch_slot(reg), src) {
                    (Some(slot), src) => dec_mov(src, Dst::Slot(slot as u8)),
                    (None, Ok(src)) => DecOp::WritePrK { reg, src },
                    (None, Err(imm)) => DecOp::WritePrKI { reg, imm },
                },
                None => DecOp::WritePrBad,
            },
            (Ok(num), Ok(src)) => DecOp::WritePr { num, src },
            (Ok(num), Err(imm)) => DecOp::WritePrI { num, imm },
        },
        MicroOp::TbFlushAll => DecOp::TbFlushAll,
        MicroOp::TbFlushProc => DecOp::TbFlushProc,
        MicroOp::Halt => DecOp::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_ucode::Entry;

    #[test]
    fn decop_is_small() {
        assert!(
            std::mem::size_of::<DecOp>() <= 12,
            "DecOp grew to {} bytes",
            std::mem::size_of::<DecOp>()
        );
    }

    #[test]
    fn build_is_one_to_one_and_version_keyed() {
        let cs = atum_ucode::stock::build();
        let img = FastImage::build(&cs);
        assert_eq!(img.ops.len(), cs.len() as usize);
        assert_eq!(img.version, cs.version());
        assert_eq!(
            img.opcode_table[0x12],
            cs.opcode_target(0x12),
            "dispatch tables are snapshotted"
        );
    }

    #[test]
    fn empty_image_never_matches_a_store() {
        let cs = atum_ucode::stock::build();
        assert_ne!(FastImage::empty().version, cs.version());
    }

    #[test]
    fn entry_targets_resolve_to_current_slots() {
        let mut cs = atum_ucode::stock::build();
        let v0 = cs.version();
        let addr = cs.append_routine(
            "test.patch",
            vec![MicroOp::Jump(Target::Entry(Entry::Fetch))],
        );
        cs.set_entry(Entry::XferRead, addr);
        assert!(cs.version() > v0, "mutations move the version counter");
        let img = FastImage::build(&cs);
        match img.ops[addr as usize] {
            DecOp::Jump(t) => assert_eq!(t, cs.entry(Entry::Fetch)),
            ref other => panic!("expected jump, got {other:?}"),
        }
    }

    /// The routines every program runs once per istream byte, per
    /// instruction or per traced reference.
    const HOT: [&str; 6] = [
        "ifetch.byte",
        "fetch.insn",
        "istream.",
        "spec.",
        "xfer.",
        "atum.",
    ];

    #[test]
    fn patched_images_specialize_the_hot_forms() {
        use atum_core::patch::{PatchSet, PatchStyle};
        for style in [PatchStyle::Scratch, PatchStyle::Spill] {
            let mut cs = atum_ucode::stock::build();
            PatchSet::install_with_style(&mut cs, style).unwrap();
            let img = FastImage::build(&cs);
            let mut hot_words = 0;
            let mut starts: Vec<(u32, &str)> =
                cs.symbols().iter().map(|(n, &a)| (a, n.as_str())).collect();
            starts.sort();
            for (i, &(start, name)) in starts.iter().enumerate() {
                let end = starts.get(i + 1).map_or(cs.len(), |&(a, _)| a);
                let hot = HOT.iter().any(|p| name.starts_with(p));
                for addr in start..end {
                    let op = img.ops[addr as usize];
                    // No plain latch is reached through the privileged
                    // register path, anywhere in the store.
                    if let DecOp::ReadPrK { reg, .. }
                    | DecOp::WritePrK { reg, .. }
                    | DecOp::WritePrKI { reg, .. } = op
                    {
                        assert_eq!(latch_slot(reg), None, "{style:?} {name}@{addr}: {op:?}");
                    }
                    // No hot no-CC longword slot ALU word is left generic.
                    let generic_long = match op {
                        DecOp::AluSS { cc, size, .. }
                        | DecOp::AluSI { cc, size, .. }
                        | DecOp::AluIS { cc, size, .. } => {
                            cc == CcEffect::None && size == DataSize::Long
                        }
                        _ => false,
                    };
                    assert!(!(hot && generic_long), "{style:?} {name}@{addr}: {op:?}");
                    hot_words += hot as usize;
                }
            }
            assert!(hot_words > 100, "{style:?}: {hot_words} hot words");
        }
    }

    /// Every `Call` in `cs` as (resolved target, lowered form).
    fn calls(cs: &ControlStore, img: &FastImage) -> Vec<(u32, DecOp)> {
        cs.words()
            .iter()
            .zip(&img.ops)
            .filter_map(|(&op, &dec)| match op {
                MicroOp::Call(t) => Some((dec_target(t, cs), dec)),
                _ => None,
            })
            .collect()
    }

    /// The deterministic gate of the native call forms: an edit to either
    /// routine that breaks its pattern fails here, not as a silent loss
    /// of speed.
    #[test]
    fn native_call_forms_cover_every_call_site() {
        use atum_core::patch::{PatchSet, PatchStyle};
        for style in [None, Some(PatchStyle::Scratch), Some(PatchStyle::Spill)] {
            let mut cs = atum_ucode::stock::build();
            if let Some(style) = style {
                PatchSet::install_with_style(&mut cs, style).unwrap();
            }
            let img = FastImage::build(&cs);
            let ib = cs.symbol("ifetch.byte").unwrap();
            let log = cs.symbol("atum.log");
            let (mut ib_calls, mut log_calls) = (0, 0);
            for (t, dec) in calls(&cs, &img) {
                let want = if t == ib {
                    ib_calls += 1;
                    DecOp::CallIbServe(t)
                } else if Some(t) == log {
                    log_calls += 1;
                    match style {
                        Some(PatchStyle::Scratch) => DecOp::CallLogger(t),
                        _ => DecOp::Call(t),
                    }
                } else {
                    DecOp::Call(t)
                };
                assert_eq!(dec, want, "{style:?}: call of {t:#x}");
            }
            assert_eq!(ib_calls, 5, "{style:?}: calls of ifetch.byte");
            assert_eq!(log_calls, if style.is_some() { 5 } else { 0 }, "{style:?}");
        }
    }

    /// The cost of a native path: the `Call` plus the words it runs.
    fn path_cycles(cs: &ControlStore, words: impl IntoIterator<Item = u32>) -> u64 {
        let call = atum_ucode::cost::op_cost(&MicroOp::Call(Target::Abs(0)));
        call + words
            .into_iter()
            .map(|a| atum_ucode::cost::op_cost(&cs.word(a)))
            .sum::<u64>()
    }

    #[test]
    fn native_cycle_constants_are_the_cost_model_over_each_path() {
        use atum_core::patch::PatchSet;
        let mut cs = atum_ucode::stock::build();
        let ib = cs.symbol("ifetch.byte").unwrap();
        let serve = jif_target(&cs, ib + 1).unwrap();
        assert_eq!(
            path_cycles(&cs, [ib, ib + 1].into_iter().chain(serve..serve + 5)),
            IB_SERVE_CYCLES
        );
        PatchSet::install(&mut cs).unwrap();
        let log = cs.symbol("atum.log").unwrap();
        let kernel_or = log + 16;
        assert_eq!(
            path_cycles(&cs, (log..log + 24).filter(|&a| a != kernel_or)),
            LOGGER_USER_CYCLES
        );
        assert_eq!(path_cycles(&cs, log..log + 24), LOGGER_KERNEL_CYCLES);
    }

    /// The logger pattern restates field layouts that `atum-core` owns.
    #[test]
    fn logger_constants_are_atum_cores() {
        use atum_core::patch::trctl;
        use atum_core::{RecordKind, TraceRecord};
        assert_eq!(TRCTL_PID_SHIFT, trctl::PID_SHIFT);
        assert_eq!(TRCTL_PID_MASK, trctl::PID_MASK);
        let meta = |pid, kernel| TraceRecord::new(RecordKind::Read, 0, 0, pid, kernel).meta;
        assert_eq!(meta(0xA5, false) ^ meta(0, false), 0xA5 << META_PID_SHIFT);
        assert_eq!(meta(0, true) ^ meta(0, false), META_KERNEL_BIT);
    }

    #[test]
    fn latch_numbers_lower_to_slot_moves() {
        let mut cs = ControlStore::new();
        cs.append_routine(
            "t",
            vec![
                MicroOp::ReadPr {
                    num: MicroReg::Imm(PrivReg::Trptr.number()),
                    dst: MicroReg::P(2),
                },
                MicroOp::WritePr {
                    num: MicroReg::Imm(PrivReg::Trctl.number()),
                    src: MicroReg::Imm(1),
                },
                MicroOp::WritePr {
                    num: MicroReg::Imm(PrivReg::Ksp.number()),
                    src: MicroReg::Gpr(14),
                },
            ],
        );
        let img = FastImage::build(&cs);
        let (p2, r14) = ((slots::P0 + 2) as u8, 14);
        assert_eq!(
            img.ops[..3],
            [
                DecOp::MovSS {
                    src: slots::TRPTR as u8,
                    dst: p2
                },
                DecOp::MovIS {
                    imm: 1,
                    dst: slots::TRCTL as u8
                },
                DecOp::MovSS {
                    src: r14,
                    dst: slots::KSP as u8
                },
            ]
        );
    }

    #[test]
    fn constant_priv_reg_numbers_resolve() {
        let mut cs = ControlStore::new();
        cs.append_routine(
            "t",
            vec![
                MicroOp::ReadPr {
                    num: MicroReg::Imm(PrivReg::Sbr.number()),
                    dst: MicroReg::T(0),
                },
                MicroOp::WritePr {
                    num: MicroReg::T(1),
                    src: MicroReg::T(0),
                },
                MicroOp::Halt,
            ],
        );
        let img = FastImage::build(&cs);
        assert!(matches!(
            img.ops[0],
            DecOp::ReadPrK {
                reg: PrivReg::Sbr,
                ..
            }
        ));
        assert!(matches!(img.ops[1], DecOp::WritePr { .. }));
    }
}
