//! A label-based micro-assembler.
//!
//! [`MicroAsm`] collects micro-ops with symbolic jump targets and commits
//! them to a [`ControlStore`], resolving local labels and, failing that,
//! symbols already present in the store. The stock microcode and the ATUM
//! patches are both written with it.
//!
//! ```
//! use atum_ucode::{ControlStore, MicroAsm, MicroOp, MicroReg};
//!
//! let mut cs = ControlStore::new();
//! let mut ua = MicroAsm::new();
//! ua.global("spin");
//! ua.label("top");
//! ua.mov(MicroReg::Imm(1), MicroReg::T(0));
//! ua.jmp("top");
//! let addr = ua.commit(&mut cs).unwrap();
//! assert_eq!(cs.symbol("spin"), Some(addr));
//! assert_eq!(cs.word(addr), MicroOp::Mov { src: MicroReg::Imm(1), dst: MicroReg::T(0) });
//! ```

use crate::store::ControlStore;
use crate::uop::{
    AluOp, CcEffect, Entry, FaultKind, MicroCond, MicroOp, MicroReg, RefClass, SizeSel, SpecTable,
    Target,
};
use atum_arch::DataSize;
use std::collections::HashMap;
use std::fmt;

/// A pending micro-word: either final or with a symbolic target.
#[derive(Debug, Clone)]
enum Pending {
    Done(MicroOp),
    Jump(String),
    JumpIf(MicroCond, String),
    Call(String),
}

/// Error from committing a routine: an unresolved label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnresolvedLabel(pub String);

impl fmt::Display for UnresolvedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unresolved micro-label '{}'", self.0)
    }
}

impl std::error::Error for UnresolvedLabel {}

/// The micro-assembler. See the [module docs](self) for an example.
#[derive(Debug, Default)]
pub struct MicroAsm {
    ops: Vec<Pending>,
    labels: HashMap<String, u32>,
    globals: Vec<(String, u32)>,
}

impl MicroAsm {
    /// Creates an empty routine builder.
    pub fn new() -> MicroAsm {
        MicroAsm::default()
    }

    /// Defines a local label at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate labels.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let here = self.ops.len() as u32;
        assert!(
            self.labels.insert(name.to_string(), here).is_none(),
            "duplicate micro-label {name}"
        );
        self
    }

    /// Defines a label at the current position *and* exports it as a
    /// control-store symbol on commit.
    pub fn global(&mut self, name: &str) -> &mut Self {
        self.label(name);
        self.globals.push((name.to_string(), self.ops.len() as u32));
        self
    }

    /// Appends a raw micro-op.
    pub fn op(&mut self, op: MicroOp) -> &mut Self {
        self.ops.push(Pending::Done(op));
        self
    }

    /// `dst ← src`.
    pub fn mov(&mut self, src: MicroReg, dst: MicroReg) -> &mut Self {
        self.op(MicroOp::Mov { src, dst })
    }

    /// Full ALU op.
    pub fn alu(
        &mut self,
        op: AluOp,
        a: MicroReg,
        b: MicroReg,
        dst: MicroReg,
        cc: CcEffect,
        size: DataSize,
    ) -> &mut Self {
        self.op(MicroOp::Alu {
            op,
            a,
            b,
            dst,
            cc,
            size,
        })
    }

    /// Longword ALU op without condition-code effects (the workhorse).
    pub fn alu_l(&mut self, op: AluOp, a: MicroReg, b: MicroReg, dst: MicroReg) -> &mut Self {
        self.alu(op, a, b, dst, CcEffect::None, DataSize::Long)
    }

    /// `dst ← a + b` (longword, no CC).
    pub fn add(&mut self, a: MicroReg, b: MicroReg, dst: MicroReg) -> &mut Self {
        self.alu_l(AluOp::Add, a, b, dst)
    }

    /// `dst ← b - a` is `RSub`; this is `dst ← a - b` (longword, no CC).
    pub fn sub(&mut self, a: MicroReg, b: MicroReg, dst: MicroReg) -> &mut Self {
        self.alu_l(AluOp::Sub, a, b, dst)
    }

    /// Latches micro-flags from `src` (longword `Pass`), PSL untouched.
    pub fn test(&mut self, src: MicroReg) -> &mut Self {
        self.alu_l(AluOp::Pass, MicroReg::Imm(0), src, MicroReg::T(15))
    }

    /// Sets the operand size latch.
    pub fn set_size(&mut self, size: DataSize) -> &mut Self {
        self.op(MicroOp::SetSize(size))
    }

    /// Virtual read at the latched operand size.
    pub fn read(&mut self, class: RefClass) -> &mut Self {
        self.op(MicroOp::Read {
            class,
            size: SizeSel::OSize,
        })
    }

    /// Virtual write at the latched operand size.
    pub fn write(&mut self) -> &mut Self {
        self.op(MicroOp::Write {
            size: SizeSel::OSize,
        })
    }

    /// Jump to a local label or store symbol.
    pub fn jmp(&mut self, label: &str) -> &mut Self {
        self.ops.push(Pending::Jump(label.to_string()));
        self
    }

    /// Conditional jump to a local label or store symbol.
    pub fn jif(&mut self, cond: MicroCond, label: &str) -> &mut Self {
        self.ops.push(Pending::JumpIf(cond, label.to_string()));
        self
    }

    /// Call a local label or store symbol.
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.ops.push(Pending::Call(label.to_string()));
        self
    }

    /// Call through an entry slot.
    pub fn call_entry(&mut self, e: Entry) -> &mut Self {
        self.op(MicroOp::Call(Target::Entry(e)))
    }

    /// Return from micro-subroutine.
    pub fn ret(&mut self) -> &mut Self {
        self.op(MicroOp::Ret)
    }

    /// End the architectural instruction.
    pub fn decode_next(&mut self) -> &mut Self {
        self.op(MicroOp::DecodeNext)
    }

    /// Dispatch on the opcode byte.
    pub fn dispatch_opcode(&mut self) -> &mut Self {
        self.op(MicroOp::DispatchOpcode)
    }

    /// Dispatch on the specifier mode nibble.
    pub fn dispatch_spec(&mut self, table: SpecTable) -> &mut Self {
        self.op(MicroOp::DispatchSpec(table))
    }

    /// Raise a fault.
    pub fn fault(&mut self, kind: FaultKind) -> &mut Self {
        self.op(MicroOp::Fault(kind))
    }

    /// Number of micro-ops collected so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commits the routine to the store, resolving labels (local first,
    /// then store symbols) and exporting globals. Returns the address of
    /// the first committed word.
    ///
    /// # Errors
    ///
    /// Returns [`UnresolvedLabel`] if a referenced label is neither local
    /// nor an existing store symbol.
    pub fn commit(self, cs: &mut ControlStore) -> Result<u32, UnresolvedLabel> {
        let base = cs.len();
        let resolve = |name: &str| -> Result<Target, UnresolvedLabel> {
            if let Some(rel) = self.labels.get(name) {
                Ok(Target::Abs(base + rel))
            } else if let Some(abs) = cs.symbol(name) {
                Ok(Target::Abs(abs))
            } else {
                Err(UnresolvedLabel(name.to_string()))
            }
        };
        let mut words = Vec::with_capacity(self.ops.len());
        for p in &self.ops {
            words.push(match p {
                Pending::Done(op) => *op,
                Pending::Jump(l) => MicroOp::Jump(resolve(l)?),
                Pending::JumpIf(c, l) => MicroOp::JumpIf {
                    cond: *c,
                    target: resolve(l)?,
                },
                Pending::Call(l) => MicroOp::Call(resolve(l)?),
            });
        }
        cs.raw_append(words);
        for (name, rel) in self.globals {
            cs.define_symbol(name, base + rel);
        }
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_labels_resolve() {
        let mut cs = ControlStore::new();
        let mut ua = MicroAsm::new();
        ua.label("start");
        ua.jmp("end");
        ua.op(MicroOp::Halt);
        ua.label("end");
        ua.ret();
        let base = ua.commit(&mut cs).unwrap();
        assert_eq!(cs.word(base), MicroOp::Jump(Target::Abs(base + 2)));
    }

    #[test]
    fn store_symbols_resolve_across_commits() {
        let mut cs = ControlStore::new();
        let mut ua = MicroAsm::new();
        ua.global("helper");
        ua.ret();
        ua.commit(&mut cs).unwrap();

        let mut ua2 = MicroAsm::new();
        ua2.call("helper");
        ua2.op(MicroOp::Halt);
        let base2 = ua2.commit(&mut cs).unwrap();
        assert_eq!(cs.word(base2), MicroOp::Call(Target::Abs(0)));
    }

    #[test]
    fn unresolved_label_errors() {
        let mut cs = ControlStore::new();
        let mut ua = MicroAsm::new();
        ua.jmp("nowhere");
        assert_eq!(
            ua.commit(&mut cs).unwrap_err(),
            UnresolvedLabel("nowhere".to_string())
        );
    }

    #[test]
    fn local_shadows_store_symbol() {
        let mut cs = ControlStore::new();
        let mut ua = MicroAsm::new();
        ua.global("dup_target");
        ua.ret();
        ua.commit(&mut cs).unwrap();

        let mut ua2 = MicroAsm::new();
        ua2.label("mine");
        ua2.jmp("mine");
        let base = ua2.commit(&mut cs).unwrap();
        assert_eq!(cs.word(base), MicroOp::Jump(Target::Abs(base)));
    }

    #[test]
    #[should_panic(expected = "duplicate micro-label")]
    fn duplicate_local_label_panics() {
        let mut ua = MicroAsm::new();
        ua.label("x");
        ua.label("x");
    }

    #[test]
    fn builder_shortcuts_produce_expected_ops() {
        let mut cs = ControlStore::new();
        let mut ua = MicroAsm::new();
        ua.mov(MicroReg::Mdr, MicroReg::T(0));
        ua.add(MicroReg::T(0), MicroReg::Imm(4), MicroReg::T(0));
        ua.set_size(DataSize::Word);
        ua.read(RefClass::DataRead);
        ua.write();
        ua.decode_next();
        let base = ua.commit(&mut cs).unwrap();
        assert!(matches!(cs.word(base), MicroOp::Mov { .. }));
        assert!(matches!(
            cs.word(base + 1),
            MicroOp::Alu { op: AluOp::Add, .. }
        ));
        assert_eq!(cs.word(base + 2), MicroOp::SetSize(DataSize::Word));
        assert!(matches!(cs.word(base + 3), MicroOp::Read { .. }));
        assert!(matches!(cs.word(base + 4), MicroOp::Write { .. }));
        assert_eq!(cs.word(base + 5), MicroOp::DecodeNext);
    }
}
