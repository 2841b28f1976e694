//! # atum-machine — the simulated SVX machine
//!
//! A complete microcoded machine: the micro-engine datapath executing a
//! [`ControlStore`], physical memory with an OS-invisible reserved region,
//! a VAX-style MMU with a translation buffer, an interval timer and a
//! console. Everything architectural happens by executing micro-ops; Rust
//! code implements only what was hardware on the 8200 (the ALU, the
//! translation buffer and its PTE walk, the register change-log, interrupt
//! arbitration).
//!
//! The machine deliberately has **no tracing hooks**. Address tracing is
//! added by `atum-core` purely by appending micro-routines to the control
//! store and re-pointing entry slots — the point of the reproduction.
//!
//! ## Example
//!
//! ```
//! use atum_machine::{Machine, MemLayout, RunExit};
//! use atum_arch::Opcode;
//!
//! let mut m = Machine::new(MemLayout::small());
//! // movl #7, r2 ; halt — poked directly into physical memory, run with
//! // mapping disabled (boot state).
//! m.write_phys(0x200, &[Opcode::Movl.to_byte(), 0x07, 0x52, Opcode::Halt.to_byte()])
//!     .unwrap();
//! m.set_pc(0x200);
//! assert_eq!(m.run(100_000), RunExit::Halted);
//! assert_eq!(m.gpr(2), 7);
//! ```
//!
//! [`ControlStore`]: atum_ucode::ControlStore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod fast;
mod mem;
mod mmu;
pub mod regs;

pub use engine::{RefCounts, RunExit};
pub use fast::FastImage;
pub use mem::{MemError, MemLayout, PhysMemory};
pub use mmu::{Tlb, TlbStats};
pub use regs::{PrvFile, RegFile};

/// Which interpreter drives [`Machine::run`] / [`Machine::step_insns`].
/// Both tiers produce identical architectural state, traces, counters
/// and microcycle counts (the differential suites in `atum-bench` pin
/// this); they differ only in host throughput.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineTier {
    /// The word-at-a-time reference interpreter — slow, obviously
    /// correct, kept as the oracle.
    Reference,
    /// The predecoded per-op fast engine (see [`fast`]).
    #[default]
    Fast,
}

use atum_arch::{CpuMode, Gpr, PrivReg, Psl};
use atum_ucode::{stock, ControlStore, Entry};

/// Process-global default [`EngineTier`] for newly created machines
/// (`1` = [`EngineTier::Fast`], the enum's default).
static DEFAULT_TIER: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(1);

/// Sets the [`EngineTier`] every subsequently created [`Machine`] starts
/// on. Harnesses that build machines deep inside a pipeline (the
/// experiment runner in `atum-analysis`) can be tier-toggled wholesale
/// with this — the tier byte-identity suite runs the quick-scale
/// experiments under both tiers and asserts identical output. Existing
/// machines are unaffected; use [`Machine::set_engine_tier`] for those.
pub fn set_default_engine_tier(tier: EngineTier) {
    DEFAULT_TIER.store(tier as u8, std::sync::atomic::Ordering::Relaxed);
}

/// The tier newly created machines start on (see
/// [`set_default_engine_tier`]).
pub fn default_engine_tier() -> EngineTier {
    match DEFAULT_TIER.load(std::sync::atomic::Ordering::Relaxed) {
        0 => EngineTier::Reference,
        _ => EngineTier::Fast,
    }
}

/// The machine: control store, datapath state, memory, MMU and devices.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cs: ControlStore,
    pub(crate) regs: RegFile,
    pub(crate) prv: PrvFile,
    pub(crate) mem: PhysMemory,
    pub(crate) tlb: Tlb,
    pub(crate) upc: u32,
    pub(crate) ustack: [u32; engine::MICRO_STACK_LIMIT],
    pub(crate) usp: usize,
    pub(crate) cycles: u64,
    pub(crate) insns: u64,
    pub(crate) insn_pc: u32,
    pub(crate) halted: bool,
    pub(crate) exc_depth: u8,
    pub(crate) rlog: Vec<(u8, u32)>,
    pub(crate) rlog_mask: u16,
    pub(crate) psl_at_start: Psl,
    pub(crate) timer_deadline: u64,
    pub(crate) timer_pending: bool,
    pub(crate) console_out: Vec<u8>,
    pub(crate) console_in: std::collections::VecDeque<u8>,
    pub(crate) counts: RefCounts,
    /// Predecoded control-store image (rebuilt when the store version
    /// moves; see [`crate::fast`]).
    pub(crate) fast: fast::FastImage,
    /// Translation micro-cache fronting the TB on the fast path.
    pub(crate) xc: mmu::XlateCache,
    /// Which interpreter `run`/`step_insns` use.
    pub(crate) tier: EngineTier,
}

impl Machine {
    /// Creates a machine with the stock control store, at boot state:
    /// kernel mode, IPL 31, mapping disabled, PC = 0.
    pub fn new(layout: MemLayout) -> Machine {
        Machine::with_control_store(layout, stock::build())
    }

    /// Creates a machine with a caller-supplied control store (used by
    /// tests that want custom microcode).
    pub fn with_control_store(layout: MemLayout, cs: ControlStore) -> Machine {
        let mut m = Machine {
            upc: cs.entry(Entry::Fetch),
            cs,
            regs: RegFile::new(),
            prv: PrvFile::new(),
            mem: PhysMemory::new(layout),
            tlb: Tlb::new(),
            ustack: [0; engine::MICRO_STACK_LIMIT],
            usp: 0,
            cycles: 0,
            insns: 0,
            insn_pc: 0,
            halted: false,
            exc_depth: 0,
            rlog: Vec::with_capacity(8),
            rlog_mask: 0,
            psl_at_start: Psl::new(),
            timer_deadline: u64::MAX,
            timer_pending: false,
            console_out: Vec::new(),
            console_in: std::collections::VecDeque::new(),
            counts: RefCounts::default(),
            fast: fast::FastImage::empty(),
            xc: mmu::XlateCache::new(),
            tier: default_engine_tier(),
        };
        m.regs.psl = Psl::new();
        m.psl_at_start = m.regs.psl;
        m
    }

    /// The control store (for inspection).
    pub fn control_store(&self) -> &ControlStore {
        &self.cs
    }

    /// Mutable access to the control store — the writable-control-store
    /// interface that patches (and only patches) use.
    pub fn control_store_mut(&mut self) -> &mut ControlStore {
        &mut self.cs
    }

    /// Physical memory (host/console access, e.g. trace extraction).
    pub fn memory(&self) -> &PhysMemory {
        &self.mem
    }

    /// Writes bytes into physical memory (the boot loader path).
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if the range falls outside physical memory.
    pub fn write_phys(&mut self, pa: u32, bytes: &[u8]) -> Result<(), MemError> {
        self.mem.write_bytes(pa, bytes)
    }

    /// Reads bytes from physical memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if the range falls outside physical memory.
    pub fn read_phys(&self, pa: u32, len: u32) -> Result<Vec<u8>, MemError> {
        self.mem.read_bytes(pa, len)
    }

    /// A general register's value.
    pub fn gpr(&self, n: u8) -> u32 {
        self.regs.gpr((n & 0xF) as usize)
    }

    /// Sets a general register.
    pub fn set_gpr(&mut self, n: u8, value: u32) {
        self.regs.file[(n & 0xF) as usize] = value;
        if n & 0xF == 15 {
            self.regs.file[regs::slots::IBCNT] = 0;
        }
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.gpr(Gpr::PC.index())
    }

    /// Sets the program counter (invalidates the prefetch buffer) and
    /// restarts instruction processing there.
    pub fn set_pc(&mut self, pc: u32) {
        self.set_gpr(Gpr::PC.index(), pc);
        self.insn_pc = pc;
        self.upc = self.cs.entry(Entry::Fetch);
        self.usp = 0;
    }

    /// The processor status longword.
    pub fn psl(&self) -> Psl {
        self.regs.psl
    }

    /// Sets the PSL (host/boot use).
    pub fn set_psl(&mut self, psl: Psl) {
        self.regs.psl = psl;
        self.psl_at_start = psl;
    }

    /// Whether the CPU is in kernel mode.
    pub fn is_kernel(&self) -> bool {
        self.regs.psl.mode() == CpuMode::Kernel
    }

    /// Reads a privileged register as the host/console would.
    pub fn read_prv(&self, reg: PrivReg) -> u32 {
        self.prv.read(reg, &self.regs)
    }

    /// Writes a privileged register as the host/console would (with device
    /// side effects, e.g. starting the interval timer).
    pub fn write_prv(&mut self, reg: PrivReg, value: u32) {
        self.write_prv_internal(reg, value);
    }

    /// Micro-cycles executed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Architectural instructions completed so far.
    pub fn insns(&self) -> u64 {
        self.insns
    }

    /// Memory-reference and event counters.
    pub fn counts(&self) -> &RefCounts {
        &self.counts
    }

    /// Translation-buffer statistics.
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Takes everything the console has output so far.
    pub fn take_console_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console_out)
    }

    /// Queues a byte for the console receiver.
    pub fn push_console_input(&mut self, byte: u8) {
        self.console_in.push_back(byte);
    }

    /// Clears the halted latch so [`Machine::run`] can continue (the
    /// console "continue" command; used after trace-buffer-full halts).
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Selects the execution tier for [`Machine::run`] /
    /// [`Machine::step_insns`]. Tiers can be switched at any instruction
    /// boundary; both produce identical results.
    pub fn set_engine_tier(&mut self, tier: EngineTier) {
        self.tier = tier;
    }

    /// The currently selected execution tier.
    pub fn engine_tier(&self) -> EngineTier {
        self.tier
    }

    /// Rebuilds the predecoded image if the control store has been
    /// mutated since it was last built (patch loads bump the store's
    /// version counter; between mutations this is a single compare).
    pub(crate) fn ensure_fast(&mut self) {
        if self.fast.version != self.cs.version() {
            self.fast = fast::FastImage::build(&self.cs);
        }
    }

    /// The predecoded control-store image, rebuilt first if the store has
    /// been mutated since the last build — the inspection point for
    /// external verifiers of the fast-engine lowering.
    pub fn fast_image(&mut self) -> &fast::FastImage {
        self.ensure_fast();
        &self.fast
    }

    /// Runs until halt, returning an error on a cycle-limit or fatal exit.
    ///
    /// # Errors
    ///
    /// Returns the non-halt [`RunExit`] as an error.
    pub fn run_until_halt(&mut self, max_cycles: u64) -> Result<(), RunExit> {
        match self.run(max_cycles) {
            RunExit::Halted => Ok(()),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Machines run the fast engine unless a caller picks the reference
    /// oracle.
    #[test]
    fn machines_start_on_the_fast_engine() {
        assert_eq!(EngineTier::default(), EngineTier::Fast);
        let m = Machine::new(MemLayout::small());
        assert_eq!(m.engine_tier(), EngineTier::Fast);
    }
}
