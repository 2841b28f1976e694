//! The micro-register file and the privileged-register file.

use atum_arch::{DataSize, Psl};

/// Micro-flags latched by every ALU operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UFlags {
    /// Result zero.
    pub z: bool,
    /// Result negative (at the operation size).
    pub n: bool,
    /// Carry / borrow out.
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
    /// Divide by zero happened.
    pub divz: bool,
}

/// Slot indices into the unified micro-register file.
///
/// The capture-path fast engine predecodes every static [`MicroReg`]
/// operand selector down to one of these indices at control-store seal
/// time, so the per-microcycle operand fetch is a single array access
/// instead of a 20-way selector decode. The layout is load-bearing:
/// the 16 GPRs sit at the bottom so an architectural register number is
/// its own slot index (`GprIdx` and the register-change log rely on it).
///
/// [`MicroReg`]: atum_ucode::MicroReg
pub mod slots {
    /// First general register (R15 = PC = slot 15).
    pub const GPR0: usize = 0;
    /// First micro-temporary.
    pub const T0: usize = 16;
    /// First patch-scratch register.
    pub const P0: usize = 32;
    /// Memory address register.
    pub const MAR: usize = 40;
    /// Memory data register.
    pub const MDR: usize = 41;
    /// Current specifier byte.
    pub const SPEC: usize = 42;
    /// Current opcode byte.
    pub const OPREG: usize = 43;
    /// Register-number latch.
    pub const REGNUM: usize = 44;
    /// Prefetch-buffer data.
    pub const IBDATA: usize = 45;
    /// Prefetch-buffer valid byte count.
    pub const IBCNT: usize = 46;
    /// Exception vector latch.
    pub const EXCVEC: usize = 47;
    /// Exception parameter latch.
    pub const EXCPARAM: usize = 48;
    /// Exception flags latch.
    pub const EXCFLAGS: usize = 49;
    /// PC to push for the pending exception.
    pub const EXCPC: usize = 50;
    /// IPL for interrupt entry.
    pub const EXCIPL: usize = 51;
    /// Kernel stack pointer latch (privileged register `KSP`).
    pub const KSP: usize = 52;
    /// User stack pointer latch (`USP`).
    pub const USP: usize = 53;
    /// Process control block base (`PCBB`).
    pub const PCBB: usize = 54;
    /// System control block base (`SCBB`).
    pub const SCBB: usize = 55;
    /// ATUM trace control (`TRCTL`).
    pub const TRCTL: usize = 56;
    /// ATUM trace buffer base (`TRBASE`).
    pub const TRBASE: usize = 57;
    /// ATUM trace write pointer (`TRPTR`).
    pub const TRPTR: usize = 58;
    /// ATUM trace buffer limit (`TRLIM`).
    pub const TRLIM: usize = 59;
    /// Number of slots, padded to a power of two so a predecoded slot
    /// index masked with `COUNT - 1` needs no bounds check (slots 60–63
    /// are unreachable: the predecoder only emits the indices above).
    pub const COUNT: usize = 64;
    /// Index mask (`COUNT` is a power of two).
    pub const MASK: u8 = (COUNT - 1) as u8;
}

/// The datapath register file: one dense slot array (see [`slots`]) plus
/// the three registers that are not plain 32-bit latches (PSL, operand
/// size, micro-flags).
#[derive(Debug, Clone)]
pub struct RegFile {
    /// The unified slot file: GPRs, micro-temporaries, patch scratch,
    /// MAR/MDR, the decode/exception latches and the side-effect-free
    /// privileged latches.
    pub file: [u32; slots::COUNT],
    /// The PSL.
    pub psl: Psl,
    /// Operand-size latch.
    pub osize: DataSize,
    /// Micro-flags.
    pub uflags: UFlags,
}

impl RegFile {
    /// Boot-state register file.
    pub fn new() -> RegFile {
        RegFile {
            file: [0; slots::COUNT],
            psl: Psl::new(),
            osize: DataSize::Long,
            uflags: UFlags::default(),
        }
    }

    /// A general register's value (R15 = PC).
    #[inline]
    pub fn gpr(&self, n: usize) -> u32 {
        self.file[slots::GPR0 + (n & 0xF)]
    }

    /// A micro-temporary's value.
    #[inline]
    pub fn t(&self, n: usize) -> u32 {
        self.file[slots::T0 + (n & 0xF)]
    }

    /// A patch-scratch register's value.
    #[inline]
    pub fn p(&self, n: usize) -> u32 {
        self.file[slots::P0 + (n & 0x7)]
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

/// The privileged (internal processor) registers that are not plain
/// latches.
///
/// The eight side-effect-free latches (KSP, USP, PCBB, SCBB and the four
/// ATUM trace registers) live in the [`RegFile`] at [`slots::KSP`] ..=
/// [`slots::TRLIM`], so a constant-numbered `ReadPr`/`WritePr` of one
/// predecodes to a plain slot move; `read` takes the [`RegFile`] for
/// those and for the IPL.
#[derive(Debug, Clone, Default)]
pub struct PrvFile {
    /// P0 page-table base (physical).
    pub p0br: u32,
    /// P0 page-table length (entries).
    pub p0lr: u32,
    /// P1 page-table base (physical).
    pub p1br: u32,
    /// P1 page-table length (entries).
    pub p1lr: u32,
    /// System page-table base (physical).
    pub sbr: u32,
    /// System page-table length (entries).
    pub slr: u32,
    /// Software interrupt summary (pending levels bitmask).
    pub sisr: u32,
    /// Interval clock control/status.
    pub iccs: u32,
    /// Interval clock reload value.
    pub icr: u32,
    /// Memory-management enable.
    pub mapen: u32,
}

/// The register-file slot backing a plain privileged latch, or `None`
/// for a register that lives in [`PrvFile`] or has side effects.
pub(crate) fn latch_slot(reg: atum_arch::PrivReg) -> Option<usize> {
    use atum_arch::PrivReg::*;
    Some(match reg {
        Ksp => slots::KSP,
        Usp => slots::USP,
        Pcbb => slots::PCBB,
        Scbb => slots::SCBB,
        Trctl => slots::TRCTL,
        Trbase => slots::TRBASE,
        Trptr => slots::TRPTR,
        Trlim => slots::TRLIM,
        _ => return None,
    })
}

impl PrvFile {
    /// Boot-state privileged registers.
    pub fn new() -> PrvFile {
        PrvFile::default()
    }

    /// Reads a register's stored value (side-effect-free registers only;
    /// the engine handles the console receiver specially).
    pub fn read(&self, reg: atum_arch::PrivReg, regs: &RegFile) -> u32 {
        use atum_arch::PrivReg::*;
        match reg {
            P0br => self.p0br,
            P0lr => self.p0lr,
            P1br => self.p1br,
            P1lr => self.p1lr,
            Sbr => self.sbr,
            Slr => self.slr,
            Ipl => regs.psl.ipl() as u32,
            Sirr => 0,
            Sisr => self.sisr,
            Iccs => self.iccs,
            Icr => self.icr,
            Txdb => 0,
            Txcs => 0x80, // always ready
            Rxdb => 0,    // engine overrides with queued input
            Rxcs => 0,    // engine overrides with availability
            Mapen => self.mapen,
            Tbia | Tbis => 0,
            Ksp | Usp | Pcbb | Scbb | Trctl | Trbase | Trptr | Trlim => {
                latch_slot(reg).map_or(0, |slot| regs.file[slot])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_is_zeroed() {
        let r = RegFile::new();
        assert!(r.file.iter().all(|&v| v == 0));
        assert_eq!(r.osize, DataSize::Long);
        assert!(r.psl.is_kernel());
    }

    #[test]
    fn prv_reads_reflect_stores() {
        let mut p = PrvFile::new();
        p.sbr = 0x1000;
        let mut r = RegFile::new();
        r.file[slots::TRCTL] = 0x501;
        assert_eq!(p.read(atum_arch::PrivReg::Sbr, &r), 0x1000);
        assert_eq!(p.read(atum_arch::PrivReg::Trctl, &r), 0x501);
        assert_eq!(p.read(atum_arch::PrivReg::Ipl, &r), 31);
        assert_eq!(p.read(atum_arch::PrivReg::Txcs, &r), 0x80);
    }
}
