//! The trap-driven (T-bit) software tracer — the pre-ATUM state of the
//! art, measured on the same machine ATUM runs on.
//!
//! Every user-mode instruction takes a trace trap into the MOSS kernel's
//! logging handler, which appends the trapped PC to an in-kernel buffer.
//! The measured microcycle ratio against an untraced run of the same
//! workload is the software-tracing slowdown the paper compares against;
//! what the buffer *contains* (PCs only, user instructions only) is the
//! completeness gap.

use atum_machine::{Machine, RunExit};
use atum_os::{BootImage, KernelOptions, TbitMode};
use std::fmt;

/// The outcome of a T-bit tracing measurement.
#[derive(Debug, Clone)]
pub struct TbitResult {
    /// Microcycles of the untraced reference run.
    pub base_cycles: u64,
    /// Microcycles of the T-bit traced run.
    pub traced_cycles: u64,
    /// PCs captured by the kernel handler.
    pub pcs: Vec<u32>,
    /// Number of trace traps the buffer counted (may exceed `pcs.len()`
    /// if the buffer filled).
    pub trap_count: u32,
}

impl TbitResult {
    /// The measured slowdown factor.
    pub fn slowdown(&self) -> f64 {
        self.traced_cycles as f64 / self.base_cycles.max(1) as f64
    }
}

/// The trapped half of a measurement ([`TbitTracer::run_trapped`]).
#[derive(Debug, Clone)]
pub struct TrappedRun {
    /// Microcycles of the T-bit traced run.
    pub cycles: u64,
    /// PCs captured by the kernel handler.
    pub pcs: Vec<u32>,
    /// Number of trace traps the buffer counted (may exceed `pcs.len()`
    /// if the buffer filled).
    pub trap_count: u32,
}

impl fmt::Display for TbitResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T-bit tracing: {:.1}x slowdown, {} PCs captured",
            self.slowdown(),
            self.pcs.len()
        )
    }
}

/// Errors from the measurement.
#[derive(Debug, Clone)]
pub enum TbitError {
    /// Boot image construction failed.
    Boot(String),
    /// A run did not halt.
    Run(RunExit),
}

impl fmt::Display for TbitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbitError::Boot(e) => write!(f, "boot: {e}"),
            TbitError::Run(e) => write!(f, "run did not halt: {e}"),
        }
    }
}

impl std::error::Error for TbitError {}

/// Runs a workload untraced and under T-bit tracing, and reports the
/// slowdown and the captured PC trace.
#[derive(Debug, Clone)]
pub struct TbitTracer {
    /// Buffer size for the kernel's PC log.
    pub swtrace_bytes: u32,
    /// Cycle budget per run.
    pub budget: u64,
    /// Scheduling quantum: long by default so the measurement isolates
    /// per-instruction trap cost rather than scheduler dilation.
    pub quantum: u32,
}

impl Default for TbitTracer {
    fn default() -> TbitTracer {
        TbitTracer {
            swtrace_bytes: 1 << 20,
            budget: 50_000_000_000,
            quantum: 1_000_000,
        }
    }
}

impl TbitTracer {
    /// Measures a single-program workload: [`TbitTracer::run_untraced`],
    /// then [`TbitTracer::run_trapped`] over it.
    ///
    /// # Errors
    ///
    /// [`TbitError`] if either system fails to boot or halt.
    pub fn measure(&self, user_source: &str) -> Result<TbitResult, TbitError> {
        let base_cycles = self.run_untraced(user_source)?;
        let run = self.run_trapped(user_source)?;
        Ok(TbitResult {
            base_cycles,
            traced_cycles: run.cycles,
            pcs: run.pcs,
            trap_count: run.trap_count,
        })
    }

    /// The reference run: the stock kernel with the workload at this
    /// tracer's quantum, no T bit. Returns its microcycles.
    ///
    /// # Errors
    ///
    /// [`TbitError`] if the system fails to boot or halt.
    pub fn run_untraced(&self, user_source: &str) -> Result<u64, TbitError> {
        let base = BootImage::builder()
            .user_program(user_source)
            .quantum(self.quantum)
            .build()
            .map_err(|e| TbitError::Boot(e.to_string()))?;
        let mut m = Machine::new(base.memory_layout());
        base.load_into(&mut m)
            .map_err(|e| TbitError::Boot(e.to_string()))?;
        match m.run(self.budget) {
            RunExit::Halted => Ok(m.cycles()),
            other => Err(TbitError::Run(other)),
        }
    }

    /// The traced run alone: the LogPc kernel, T bit set in every process
    /// PSL. Any untraced run of the same boot image, such as
    /// [`TbitTracer::run_untraced`], gives its base.
    ///
    /// # Errors
    ///
    /// [`TbitError`] if the system fails to boot or halt.
    pub fn run_trapped(&self, user_source: &str) -> Result<TrappedRun, TbitError> {
        let traced = BootImage::builder()
            .user_program(user_source)
            .quantum(self.quantum)
            .kernel_options(KernelOptions {
                tbit: TbitMode::LogPc,
                swtrace_bytes: self.swtrace_bytes,
            })
            .trace_trap_all(true)
            .build()
            .map_err(|e| TbitError::Boot(e.to_string()))?;
        let mut m = Machine::new(traced.memory_layout());
        traced
            .load_into(&mut m)
            .map_err(|e| TbitError::Boot(e.to_string()))?;
        match m.run(self.budget) {
            RunExit::Halted => {}
            other => return Err(TbitError::Run(other)),
        }
        let cycles = m.cycles();

        // Extract the PC log from kernel memory.
        let kernel = traced.kernel();
        let read_long = |m: &Machine, sym: &str| -> u32 {
            let pa = kernel.symbol(sym).expect("kernel symbol") - atum_os::SYSTEM_VA;
            u32::from_le_bytes(m.read_phys(pa, 4).expect("kernel read").try_into().unwrap())
        };
        let trap_count = read_long(&m, "swt_count");
        let buf_va = read_long(&m, "swt_base");
        let ptr_va = read_long(&m, "swt_ptr");
        let used = ptr_va.saturating_sub(buf_va);
        let bytes = m
            .read_phys(buf_va - atum_os::SYSTEM_VA, used)
            .expect("buffer read");
        let pcs = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();

        Ok(TrappedRun {
            cycles,
            pcs,
            trap_count,
        })
    }
}
