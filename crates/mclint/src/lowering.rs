//! Fast-engine lowering equivalence: statically verify the predecoded
//! [`FastImage`] against the control store it claims to mirror.
//!
//! The capture path runs on the fast engine, so a lowering bug there
//! would corrupt traces while the reference engine (and every
//! microcode-level proof) stays green. This pass closes that gap
//! *statically*: for every control-store word it independently
//! re-derives what the predecoded [`DecOp`] must be — operand selectors
//! mapped through the unified register file layout
//! ([`atum_machine::regs::slots`]), `Target::Entry` indirections
//! resolved through the live entry table, size selectors and constant
//! privileged-register numbers resolved (the plain latches to moves of
//! their register-file slots), the hot longword ALU words to the variant
//! that names their operation, a `Call` of the instruction-buffer byte
//! server or of the scratch-style logger to its native form, the
//! server's with the refill mode its `XferIFetch` fetch allows (matched
//! by this pass's own word patterns), and both-immediate ALU ops
//! constant-folded by a from-scratch reimplementation of the ALU
//! semantics (result *and* packed micro-flags) — then diffs that against
//! the image word by word. The dispatch-table snapshots and the version
//! key are checked the same way.
//!
//! The re-derivation deliberately does not call into the fast engine's
//! own decoder (it is not even visible outside `atum-machine`); the only
//! shared vocabulary is the public [`DecOp`]/[`Src`]/[`Dst`] types and
//! the slot-layout constants, which *are* the specification. What the
//! pass cannot prove is that the fast engine *executes* a `DecOp` the
//! way the reference engine executes its `MicroOp` — that is pinned
//! dynamically by the differential suite in
//! `crates/bench/tests/fast_equiv.rs`.

use crate::cfg::SymbolMap;
use crate::{Finding, Pass, Severity};
use atum_arch::{DataSize, PrivReg};
use atum_machine::fast::{DecOp, Dst, FastImage, Refill, Src};
use atum_machine::regs::slots;
use atum_ucode::{
    AluOp, CcEffect, ControlStore, MicroCond, MicroOp, MicroReg, SizeSel, SpecTable, Target,
};

/// Lints a store against a freshly built image — the form `lint::run`
/// uses, proving the build itself is faithful.
pub fn check(cs: &ControlStore) -> Vec<Finding> {
    check_image(cs, &FastImage::build(cs))
}

/// Diffs an existing image against a store. Exposed separately so a
/// stale or tampered image (the seeded-bug tests) can be checked too.
pub fn check_image(cs: &ControlStore, img: &FastImage) -> Vec<Finding> {
    let mut out = Vec::new();
    if img.version != cs.version() {
        out.push(Finding {
            pass: Pass::Lowering,
            severity: Severity::Error,
            symbol: "fast-image".into(),
            addr: 0,
            message: format!(
                "image version {} does not match store version {}: the image \
                 is stale and every lowered word is suspect",
                img.version,
                cs.version()
            ),
        });
        return out;
    }
    if img.ops.len() != cs.len() as usize {
        out.push(Finding {
            pass: Pass::Lowering,
            severity: Severity::Error,
            symbol: "fast-image".into(),
            addr: 0,
            message: format!(
                "image has {} lowered words for a {}-word store",
                img.ops.len(),
                cs.len()
            ),
        });
        return out;
    }
    for b in 0..=255u8 {
        if img.opcode_table[b as usize] != cs.opcode_target(b) {
            out.push(Finding {
                pass: Pass::Lowering,
                severity: Severity::Error,
                symbol: format!("opcode[{b:#04x}]"),
                addr: cs.opcode_target(b),
                message: format!(
                    "opcode dispatch snapshot points at {:#06x}, store says {:#06x}",
                    img.opcode_table[b as usize],
                    cs.opcode_target(b)
                ),
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
            let got = img.spec_tables[table.index()][nibble as usize];
            let want = cs.spec_target(table, nibble);
            if got != want {
                out.push(Finding {
                    pass: Pass::Lowering,
                    severity: Severity::Error,
                    symbol: format!("spec[{table:?}][{nibble:#x}]"),
                    addr: want,
                    message: format!(
                        "specifier dispatch snapshot points at {got:#06x}, store says {want:#06x}"
                    ),
                });
            }
        }
    }
    let symbols = SymbolMap::new(cs);
    for addr in 0..cs.len() {
        let want = lower(cs.word(addr), cs);
        let got = img.ops[addr as usize];
        if got != want {
            out.push(Finding {
                pass: Pass::Lowering,
                severity: Severity::Error,
                symbol: symbols.name(addr),
                addr,
                message: format!(
                    "lowering mismatch: image holds {got:?}, independent \
                     derivation says {want:?}"
                ),
            });
        }
    }
    out.sort_by_key(|f| f.addr);
    out
}

/// Resolves a micro-target the way the decoder must: entries through the
/// *live* entry table.
fn target(t: Target, cs: &ControlStore) -> u32 {
    match t {
        Target::Abs(a) => a,
        Target::Entry(e) => cs.entry(e),
    }
}

/// The unified-register-file slot backing a plain-slot [`MicroReg`], per
/// the layout in [`slots`]. `None` for the selectors that are not plain
/// slots (immediates, PSL, the indexed GPR, the size views).
fn plain_slot(r: MicroReg) -> Option<u8> {
    Some(match r {
        MicroReg::Gpr(n) => (slots::GPR0 + (n & 0xF) as usize) as u8,
        MicroReg::T(n) => (slots::T0 + (n & 0xF) as usize) as u8,
        MicroReg::P(n) => (slots::P0 + (n & 0x7) as usize) as u8,
        MicroReg::Mar => slots::MAR as u8,
        MicroReg::Mdr => slots::MDR as u8,
        MicroReg::Spec => slots::SPEC as u8,
        MicroReg::OpReg => slots::OPREG as u8,
        MicroReg::RegNum => slots::REGNUM as u8,
        MicroReg::IbData => slots::IBDATA as u8,
        MicroReg::IbCnt => slots::IBCNT as u8,
        MicroReg::ExcVec => slots::EXCVEC as u8,
        MicroReg::ExcParam => slots::EXCPARAM as u8,
        MicroReg::ExcFlags => slots::EXCFLAGS as u8,
        MicroReg::ExcPc => slots::EXCPC as u8,
        MicroReg::ExcIpl => slots::EXCIPL as u8,
        MicroReg::Imm(_)
        | MicroReg::Psl
        | MicroReg::GprIdx
        | MicroReg::OSizeBytes
        | MicroReg::OSizeMask => return None,
    })
}

/// Source-operand lowering: `Err(v)` for an immediate (the decoder hoists
/// those into dedicated variants).
fn src(r: MicroReg) -> Result<Src, u32> {
    if let MicroReg::Imm(v) = r {
        return Err(v);
    }
    Ok(match r {
        MicroReg::Psl => Src::Psl,
        MicroReg::GprIdx => Src::GprIdx,
        MicroReg::OSizeBytes => Src::OSizeBytes,
        MicroReg::OSizeMask => Src::OSizeMask,
        other => Src::Slot(plain_slot(other).expect("every other selector is a plain slot")),
    })
}

/// Destination-operand lowering. The latches write through masks; GPRs
/// get their logged variant; read-only selectors lower to [`Dst::ReadOnly`].
fn dst(r: MicroReg) -> Dst {
    match r {
        MicroReg::Gpr(n) => Dst::Gpr(n & 0xF),
        MicroReg::GprIdx => Dst::GprIdx,
        MicroReg::Psl => Dst::Psl,
        MicroReg::Spec => Dst::MaskedFF(slots::SPEC as u8),
        MicroReg::OpReg => Dst::MaskedFF(slots::OPREG as u8),
        MicroReg::RegNum => Dst::MaskedF(slots::REGNUM as u8),
        MicroReg::Imm(_) | MicroReg::OSizeBytes | MicroReg::OSizeMask => Dst::ReadOnly,
        other => Dst::Slot(plain_slot(other).expect("every other selector is a plain slot")),
    }
}

/// The register-file slot of a privileged register that is a plain latch
/// (no side effect on read or write), per the layout in [`slots`].
fn latch(reg: PrivReg) -> Option<u8> {
    let slot = match reg {
        PrivReg::Ksp => slots::KSP,
        PrivReg::Usp => slots::USP,
        PrivReg::Pcbb => slots::PCBB,
        PrivReg::Scbb => slots::SCBB,
        PrivReg::Trctl => slots::TRCTL,
        PrivReg::Trbase => slots::TRBASE,
        PrivReg::Trptr => slots::TRPTR,
        PrivReg::Trlim => slots::TRLIM,
        _ => return None,
    };
    Some(slot as u8)
}

/// A move between lowered operands: the slot-only shapes get their own
/// variants, everything else the general forms.
fn mov(s: Result<Src, u32>, d: Dst) -> DecOp {
    match (s, d) {
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

/// The operation-named form of a longword, no-CC ALU word over slots and
/// immediates, if its shape and operation have one. Shape first, then
/// the operations that shape specializes.
fn alu_long(
    op: AluOp,
    a: Result<Src, u32>,
    b: Result<Src, u32>,
    d: Dst,
    cc: CcEffect,
    size: DataSize,
) -> Option<DecOp> {
    if cc != CcEffect::None || size != DataSize::Long {
        return None;
    }
    Some(match (a, b, d) {
        (Ok(Src::Slot(a)), Err(imm), Dst::Slot(dst)) => match op {
            AluOp::Add => DecOp::AddSI { a, imm, dst },
            AluOp::Sub => DecOp::SubSI { a, imm, dst },
            AluOp::RSub => DecOp::RSubSI { a, imm, dst },
            AluOp::And => DecOp::AndSI { a, imm, dst },
            AluOp::Or => DecOp::OrSI { a, imm, dst },
            _ => return None,
        },
        (Ok(Src::Slot(a)), Err(imm), Dst::MaskedF(dst)) if op == AluOp::And => {
            DecOp::AndSIMF { a, imm, dst }
        }
        (Err(imm), Ok(Src::Slot(b)), Dst::Slot(dst)) => match op {
            AluOp::Pass => DecOp::PassIS { imm, b, dst },
            AluOp::Lsl => DecOp::LslIS { imm, b, dst },
            AluOp::Lsr => DecOp::LsrIS { imm, b, dst },
            AluOp::BicR => DecOp::BicRIS { imm, b, dst },
            _ => return None,
        },
        (Ok(Src::Slot(a)), Ok(Src::Slot(b)), Dst::Slot(dst)) => match op {
            AluOp::Sub => DecOp::SubSS { a, b, dst },
            AluOp::Or => DecOp::OrSS { a, b, dst },
            AluOp::Lsl => DecOp::LslSS { a, b, dst },
            AluOp::Lsr => DecOp::LsrSS { a, b, dst },
            _ => return None,
        },
        _ => return None,
    })
}

/// Independently derives the [`DecOp`] a control-store word must lower
/// to.
fn lower(op: MicroOp, cs: &ControlStore) -> DecOp {
    match op {
        MicroOp::Mov { src: s, dst: d } => mov(src(s), dst(d)),
        MicroOp::Alu {
            op,
            a,
            b,
            dst: d,
            cc,
            size,
        } => {
            let (a, b, d) = (src(a), src(b), dst(d));
            alu_long(op, a, b, d, cc, size).unwrap_or_else(|| match (a, b, d) {
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
                    let (result, fbits) = alu_fold(op, av, bv, size);
                    DecOp::AluConst {
                        result,
                        fbits,
                        cc,
                        dst,
                    }
                }
            })
        }
        MicroOp::SetSize(s) => DecOp::SetSize(s),
        MicroOp::SetSizeDyn(r) => match src(r) {
            Ok(s) => DecOp::SetSizeDyn(s),
            Err(1) => DecOp::SetSize(DataSize::Byte),
            Err(2) => DecOp::SetSize(DataSize::Word),
            Err(4) => DecOp::SetSize(DataSize::Long),
            Err(_) => DecOp::SetSizeBad,
        },
        MicroOp::Read { class, size } => DecOp::Read {
            class,
            size: match size {
                SizeSel::Fixed(s) => Some(s),
                SizeSel::OSize => None,
            },
        },
        MicroOp::Write { size } => DecOp::Write {
            size: match size {
                SizeSel::Fixed(s) => Some(s),
                SizeSel::OSize => None,
            },
        },
        MicroOp::PhysRead => DecOp::PhysRead,
        MicroOp::PhysWrite => DecOp::PhysWrite,
        MicroOp::Jump(t) => DecOp::Jump(target(t, cs)),
        MicroOp::JumpIf { cond, target: t } => {
            let t = target(t, cs);
            match cond {
                MicroCond::UZero => DecOp::JumpUZero(t),
                MicroCond::UNotZero => DecOp::JumpUNotZero(t),
                MicroCond::RegNumIsPc => DecOp::JumpRegNumIsPc(t),
                MicroCond::UCarry => DecOp::JumpUCarry(t),
                MicroCond::UserMode => DecOp::JumpUserMode(t),
                cond => DecOp::JumpIf { cond, target: t },
            }
        }
        MicroOp::Call(t) => {
            let t = target(t, cs);
            if let Some(serve) = ib_server_serve(t, cs) {
                DecOp::CallIbServe {
                    target: t,
                    refill: refill_mode(t, serve, cs),
                }
            } else if is_scratch_logger(t, cs) {
                DecOp::CallLogger(t)
            } else {
                DecOp::Call(t)
            }
        }
        MicroOp::Ret => DecOp::Ret,
        MicroOp::DispatchOpcode => DecOp::DispatchOpcode,
        MicroOp::DispatchSpec(table) => DecOp::DispatchSpec(table.index() as u8),
        MicroOp::DecodeNext => DecOp::DecodeNext,
        MicroOp::AdvancePc => DecOp::AdvancePc,
        MicroOp::Fault(kind) => DecOp::Fault(kind),
        MicroOp::ReadPr { num, dst: d } => match src(num) {
            Err(n) => match PrivReg::from_number(n) {
                Some(reg) => match latch(reg) {
                    Some(slot) => mov(Ok(Src::Slot(slot)), dst(d)),
                    None => DecOp::ReadPrK { reg, dst: dst(d) },
                },
                None => DecOp::ReadPrBad,
            },
            Ok(num) => DecOp::ReadPr { num, dst: dst(d) },
        },
        MicroOp::WritePr { num, src: s } => match (src(num), src(s)) {
            (Err(n), s) => match (PrivReg::from_number(n), s) {
                (Some(reg), s) => match (latch(reg), s) {
                    (Some(slot), s) => mov(s, Dst::Slot(slot)),
                    (None, Ok(src)) => DecOp::WritePrK { reg, src },
                    (None, Err(imm)) => DecOp::WritePrKI { reg, imm },
                },
                (None, _) => DecOp::WritePrBad,
            },
            (Ok(num), Ok(src)) => DecOp::WritePr { num, src },
            (Ok(num), Err(imm)) => DecOp::WritePrI { num, imm },
        },
        MicroOp::TbFlushAll => DecOp::TbFlushAll,
        MicroOp::TbFlushProc => DecOp::TbFlushProc,
        MicroOp::Halt => DecOp::Halt,
    }
}

/// A no-CC longword ALU word, the shape of every ALU word the two native
/// call forms hard-code.
fn long(op: AluOp, a: MicroReg, b: MicroReg, d: MicroReg) -> MicroOp {
    MicroOp::Alu {
        op,
        a,
        b,
        dst: d,
        cc: CcEffect::None,
        size: DataSize::Long,
    }
}

fn mv(src: MicroReg, dst: MicroReg) -> MicroOp {
    MicroOp::Mov { src, dst }
}

fn rd(reg: PrivReg, dst: MicroReg) -> MicroOp {
    MicroOp::ReadPr {
        num: MicroReg::Imm(reg.number()),
        dst,
    }
}

/// The word at `addr`, or `None` past the end of the store.
fn word_at(cs: &ControlStore, addr: u32) -> Option<MicroOp> {
    (addr < cs.len()).then(|| cs.word(addr))
}

/// Whether the store holds exactly `words` from `at` on.
fn holds(cs: &ControlStore, at: u32, words: &[MicroOp]) -> bool {
    (0..words.len() as u32)
        .all(|i| at.checked_add(i).and_then(|a| word_at(cs, a)) == Some(words[i as usize]))
}

/// The condition and resolved target of the `JumpIf` at `addr`.
fn branch_at(cs: &ControlStore, addr: u32) -> Option<(MicroCond, u32)> {
    match word_at(cs, addr)? {
        MicroOp::JumpIf { cond, target: t } => Some((cond, target(t, cs))),
        _ => None,
    }
}

/// The serve path's address when `t` begins the stock instruction-buffer
/// byte server: `test IbCnt` into T15 and a branch on nonzero to a serve
/// path that takes the low byte into MDR, shifts the buffer, counts it
/// down by one, advances PC and returns.
fn ib_server_serve(t: u32, cs: &ControlStore) -> Option<u32> {
    use MicroReg::{IbCnt, IbData, Imm, Mdr};
    if !holds(cs, t, &[long(AluOp::Pass, Imm(0), IbCnt, MicroReg::T(15))]) {
        return None;
    }
    let Some((MicroCond::UNotZero, serve)) = branch_at(cs, t + 1) else {
        return None;
    };
    let path = [
        long(AluOp::And, IbData, Imm(0xFF), Mdr),
        long(AluOp::Lsr, Imm(8), IbData, IbData),
        long(AluOp::Sub, IbCnt, Imm(1), IbCnt),
        MicroOp::AdvancePc,
        MicroOp::Ret,
    ];
    holds(cs, serve, &path).then_some(serve)
}

/// How a native call of the byte server at `t` runs a refill. The seven
/// words from `t + 2` to the serve path (which must follow them) are:
/// MAR ← PC & ~3, a call, IbData ← MDR, T15 ← PC & 3, IbCnt ← 4 − T15,
/// T15 ← T15 × 8 and IbData ← IbData >> T15. The call's resolved target
/// names the mode: the stock fetch, the scratch ATUM stub, or neither.
fn refill_mode(t: u32, serve: u32, cs: &ControlStore) -> Refill {
    use MicroReg::{Gpr, IbCnt, IbData, Imm, Mar, Mdr, T};
    let after_call = [
        mv(Mdr, IbData),
        long(AluOp::And, Gpr(15), Imm(3), T(15)),
        long(AluOp::RSub, T(15), Imm(4), IbCnt),
        long(AluOp::Lsl, Imm(3), T(15), T(15)),
        long(AluOp::Lsr, T(15), IbData, IbData),
    ];
    let refill = serve == t + 9
        && holds(cs, t + 2, &[long(AluOp::And, Gpr(15), Imm(!3), Mar)])
        && holds(cs, t + 4, &after_call);
    let fetch = match word_at(cs, t + 3) {
        Some(MicroOp::Call(f)) if refill => target(f, cs),
        _ => return Refill::OpByOp,
    };
    if is_stock_fetch(fetch, cs) {
        Refill::Stock
    } else if is_scratch_ifetch_stub(fetch, cs) {
        Refill::Scratch
    } else {
        Refill::OpByOp
    }
}

/// Whether `t` begins the stock instruction fetch: a longword read of the
/// instruction stream and the return.
fn is_stock_fetch(t: u32, cs: &ControlStore) -> bool {
    let read = MicroOp::Read {
        class: atum_ucode::RefClass::IFetch,
        size: SizeSel::Fixed(DataSize::Long),
    };
    holds(cs, t, &[read, MicroOp::Ret])
}

/// Whether `t` begins the scratch-style ATUM instruction-fetch stub: the
/// TRCTL enable bit (bit 0) into P7, a branch on zero to the tail, the
/// record seed (kind 1 at bit 28, size 4 at bit 16) into P5, a call of
/// the scratch-style logger, and the tail: a jump to the stock fetch.
fn is_scratch_ifetch_stub(t: u32, cs: &ControlStore) -> bool {
    use MicroReg::{Imm, P};
    let test = [
        rd(PrivReg::Trctl, P(1)),
        long(AluOp::And, P(1), Imm(1), P(7)),
    ];
    // Once `test` holds, `t` is inside the store and the offsets below
    // cannot wrap.
    holds(cs, t, &test)
        && branch_at(cs, t + 2) == Some((MicroCond::UZero, t + 5))
        && holds(cs, t + 3, &[mv(Imm(1 << 28 | 4 << 16), P(5))])
        && matches!(word_at(cs, t + 4),
            Some(MicroOp::Call(log)) if is_scratch_logger(target(log, cs), cs))
        && matches!(word_at(cs, t + 5),
            Some(MicroOp::Jump(f)) if is_stock_fetch(target(f, cs), cs))
}

/// Whether `t` begins the scratch-style ATUM logger: save MAR/MDR into
/// P0/P6, the TRPTR/TRLIM capacity check (its buffer-full branch may go
/// anywhere), the address store, the pid of TRCTL (bits 8–15) moved to
/// the record's pid field (bits 8–15), the kernel bit (bit 27) unless a
/// user-mode branch skips it, the seed store, the TRPTR advance, the
/// restore and the return. The spill style's logger does not match.
fn is_scratch_logger(t: u32, cs: &ControlStore) -> bool {
    use MicroReg::{Imm, Mar, Mdr, P};
    let before_full = [
        mv(Mar, P(0)),
        mv(Mdr, P(6)),
        rd(PrivReg::Trptr, P(2)),
        rd(PrivReg::Trlim, P(3)),
        long(AluOp::Add, P(2), Imm(8), P(4)),
        long(AluOp::Sub, P(3), P(4), P(7)),
    ];
    let before_mode = [
        mv(P(2), Mar),
        mv(P(0), Mdr),
        MicroOp::PhysWrite,
        rd(PrivReg::Trctl, P(1)),
        long(AluOp::Lsr, Imm(8), P(1), P(7)),
        long(AluOp::And, P(7), Imm(0xFF), P(7)),
        long(AluOp::Lsl, Imm(8), P(7), P(7)),
        long(AluOp::Or, P(5), P(7), P(5)),
    ];
    let after_mode = [
        long(AluOp::Or, P(5), Imm(1 << 27), P(5)),
        long(AluOp::Add, P(2), Imm(4), Mar),
        mv(P(5), Mdr),
        MicroOp::PhysWrite,
        MicroOp::WritePr {
            num: Imm(PrivReg::Trptr.number()),
            src: P(4),
        },
        mv(P(0), Mar),
        mv(P(6), Mdr),
        MicroOp::Ret,
    ];
    if !holds(cs, t, &before_full) {
        return false;
    }
    // `t` is inside the store, so these offsets cannot wrap.
    let full_check = t + before_full.len() as u32;
    let mode_check = full_check + 1 + before_mode.len() as u32;
    matches!(branch_at(cs, full_check), Some((MicroCond::UCarry, _)))
        && holds(cs, full_check + 1, &before_mode)
        && branch_at(cs, mode_check) == Some((MicroCond::UserMode, mode_check + 2))
        && holds(cs, mode_check + 1, &after_mode)
}

/// From-scratch constant fold of one ALU op: the value and the packed
/// micro-flags (`z n c v divz` in bits 0..5) the engines would produce.
/// This mirrors the documented ALU semantics (`DESIGN.md`), not the
/// engine source, so a bug in `alu_exec`'s fold shows up as a diff.
fn alu_fold(op: AluOp, a: u32, b: u32, size: DataSize) -> (u32, u8) {
    let (mask, sign): (u32, u32) = match size {
        DataSize::Byte => (0xFF, 0x80),
        DataSize::Word => (0xFFFF, 0x8000),
        DataSize::Long => (0xFFFF_FFFF, 0x8000_0000),
    };
    let sext = |v: u32| -> i32 {
        match size {
            DataSize::Byte => v as u8 as i8 as i32,
            DataSize::Word => v as u16 as i16 as i32,
            DataSize::Long => v as i32,
        }
    };
    let am = a & mask;
    let bm = b & mask;
    let mut c = false;
    let mut v = false;
    let mut divz = false;
    // Borrow-style subtract shared by Sub/RSub/Neg.
    let sub = |x: u32, y: u32, c: &mut bool, v: &mut bool| -> u32 {
        let r = x.wrapping_sub(y) & mask;
        *c = y > x;
        *v = ((x ^ y) & (x ^ r) & sign) != 0;
        r
    };
    let result = match op {
        AluOp::Add => {
            let sum = am as u64 + bm as u64;
            let r = (sum as u32) & mask;
            c = sum > mask as u64;
            v = ((am ^ r) & (bm ^ r) & sign) != 0;
            r
        }
        AluOp::Sub => sub(am, bm, &mut c, &mut v),
        AluOp::RSub => sub(bm, am, &mut c, &mut v),
        AluOp::Mul => {
            let prod = sext(am) as i64 * sext(bm) as i64;
            let r = (prod as u32) & mask;
            v = prod != sext(r) as i64;
            r
        }
        AluOp::Div | AluOp::Rem => {
            let divisor = sext(am);
            let dividend = sext(bm);
            if divisor == 0 {
                divz = true;
                bm
            } else if dividend == i32::MIN && divisor == -1 && size == DataSize::Long {
                v = true;
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
            let count = am as i32;
            if count >= 0 {
                let cnt = (count as u32).min(63);
                let shifted = if cnt >= 32 { 0 } else { (bm << cnt) & mask };
                let back = if cnt >= 32 {
                    0
                } else {
                    ((sext(shifted) >> cnt) as u32) & mask
                };
                v = bm != 0 && (back != bm || cnt >= 32);
                shifted
            } else {
                let cnt = count.unsigned_abs().min(31);
                ((sext(bm) >> cnt) as u32) & mask
            }
        }
        AluOp::Lsr => {
            let cnt = am.min(63);
            if cnt >= 32 {
                0
            } else {
                (bm >> cnt) & mask
            }
        }
        AluOp::Lsl => {
            let cnt = am.min(63);
            if cnt >= 32 {
                0
            } else {
                (bm << cnt) & mask
            }
        }
        AluOp::Pass => bm,
        AluOp::Not => !bm & mask,
        AluOp::Neg => sub(0, bm, &mut c, &mut v),
        AluOp::SextB => (bm as u8 as i8 as i32 as u32) & mask,
        AluOp::SextW => (bm as u16 as i16 as i32 as u32) & mask,
    };
    let z = result & mask == 0;
    let n = result & sign != 0;
    (
        result,
        z as u8 | (n as u8) << 1 | (c as u8) << 2 | (v as u8) << 3 | (divz as u8) << 4,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_ucode::CcEffect;

    #[test]
    fn stock_store_lowers_cleanly() {
        let cs = atum_ucode::stock::build();
        assert_eq!(check(&cs), Vec::new());
    }

    #[test]
    fn stale_image_is_one_finding() {
        let mut cs = atum_ucode::stock::build();
        let img = FastImage::build(&cs);
        cs.append_routine("x", vec![MicroOp::Halt]);
        let findings = check_image(&cs, &img);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale"));
    }

    #[test]
    fn tampered_word_is_caught_with_symbol_and_address() {
        let cs = atum_ucode::stock::build();
        let mut img = FastImage::build(&cs);
        let addr = cs.symbol("fetch.insn").unwrap();
        img.ops[addr as usize] = DecOp::Halt;
        let findings = check_image(&cs, &img);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].addr, addr);
        assert_eq!(findings[0].symbol, "fetch.insn");
        assert!(findings[0].message.contains("lowering mismatch"));
    }

    #[test]
    fn tampered_dispatch_snapshot_is_caught() {
        let cs = atum_ucode::stock::build();
        let mut img = FastImage::build(&cs);
        img.opcode_table[0x12] ^= 1;
        let findings = check_image(&cs, &img);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].symbol.starts_with("opcode["));
    }

    #[test]
    fn alu_fold_matches_engine_fold_on_a_grid() {
        // The engines fold both-immediate ALU ops at predecode; the
        // stock+patched stores exercise only a few. Sweep a value grid
        // through every op and size by lowering synthetic stores, so the
        // independent fold here is checked against the engine's
        // (via FastImage::build) across sign/carry/overflow boundaries.
        let values = [
            0u32,
            1,
            2,
            4,
            0x7F,
            0x80,
            0xFF,
            0x7FFF,
            0x8000,
            0xFFFF_FFFF,
            0x8000_0000,
        ];
        let ops = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::RSub,
            AluOp::Mul,
            AluOp::Div,
            AluOp::Rem,
            AluOp::And,
            AluOp::BicR,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Ash,
            AluOp::Lsr,
            AluOp::Lsl,
            AluOp::Pass,
            AluOp::Not,
            AluOp::Neg,
            AluOp::SextB,
            AluOp::SextW,
        ];
        for size in [DataSize::Byte, DataSize::Word, DataSize::Long] {
            for op in ops {
                let mut words = Vec::new();
                for a in values {
                    for b in values {
                        words.push(MicroOp::Alu {
                            op,
                            a: MicroReg::Imm(a),
                            b: MicroReg::Imm(b),
                            dst: MicroReg::T(0),
                            cc: CcEffect::None,
                            size,
                        });
                    }
                }
                let mut cs = ControlStore::new();
                cs.append_routine("grid", words);
                assert_eq!(check(&cs), Vec::new(), "{op:?} {size:?}");
            }
        }
    }
}
