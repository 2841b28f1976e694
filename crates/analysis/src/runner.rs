//! Capture helpers: boot a workload set under MOSS, run with or without
//! the tracer attached, collect results.

use atum_core::{CaptureSession, Trace, TraceStats, Tracer, TracerError};
use atum_machine::{Machine, RefCounts, RunExit};
use atum_os::BootImage;
use atum_workloads::Workload;
use std::fmt;

/// Error from a capture run.
#[derive(Debug, Clone)]
pub enum RunnerError {
    /// Boot image construction failed.
    Boot(String),
    /// The machine did not halt within the budget.
    NoHalt(RunExit),
    /// Tracer attach/extraction failure.
    Tracer(String),
    /// A workload checksum mismatched its mirror (stack miscomputed!).
    ChecksumMismatch {
        /// Expected digits, in pid order.
        expected: String,
        /// Actual console output.
        actual: String,
    },
    /// The experiment id is not one of `experiments::ALL_IDS`.
    UnknownExperiment(String),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Boot(e) => write!(f, "boot: {e}"),
            RunnerError::NoHalt(e) => write!(f, "no halt: {e}"),
            RunnerError::Tracer(e) => write!(f, "tracer: {e}"),
            RunnerError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected digits {expected}, got {actual}"
                )
            }
            RunnerError::UnknownExperiment(id) => write!(f, "unknown experiment id '{id}'"),
        }
    }
}

impl std::error::Error for RunnerError {}

/// Results of a traced run.
#[derive(Debug)]
pub struct CapturedRun {
    /// The captured complete-system trace.
    pub trace: Trace,
    /// Microcycles elapsed.
    pub cycles: u64,
    /// Instructions executed.
    pub insns: u64,
    /// Console output.
    pub console: String,
    /// Hardware reference counters (cross-check against the trace).
    pub counts: RefCounts,
    /// Buffer drains performed during capture.
    pub drains: u32,
}

fn build(workloads: &[Workload], quantum: u32) -> Result<BootImage, RunnerError> {
    let mut b = BootImage::builder().quantum(quantum);
    for w in workloads {
        b = b.user_program(&w.source);
    }
    b.build().map_err(|e| RunnerError::Boot(e.to_string()))
}

fn verify_checksums(workloads: &[Workload], console: &str) -> Result<(), RunnerError> {
    let mut got: Vec<char> = console.chars().collect();
    let mut want: Vec<char> = workloads
        .iter()
        .flat_map(|w| w.expected_output.chars())
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(RunnerError::ChecksumMismatch {
            expected: want.into_iter().collect(),
            actual: console.to_string(),
        });
    }
    Ok(())
}

/// Runs a workload mix untraced; returns (cycles, insns, counts).
///
/// # Errors
///
/// Any [`RunnerError`]; checksums are verified.
pub fn run_untraced(
    workloads: &[Workload],
    quantum: u32,
    budget: u64,
) -> Result<(u64, u64, RefCounts), RunnerError> {
    let image = build(workloads, quantum)?;
    let mut m = Machine::new(image.memory_layout());
    image
        .load_into(&mut m)
        .map_err(|e| RunnerError::Boot(e.to_string()))?;
    match m.run(budget) {
        RunExit::Halted => {}
        other => return Err(RunnerError::NoHalt(other)),
    }
    let console = String::from_utf8_lossy(&m.take_console_output()).to_string();
    verify_checksums(workloads, &console)?;
    Ok((m.cycles(), m.insns(), *m.counts()))
}

/// Boots a mix under MOSS with the ATUM tracer attached and captures the
/// complete-system trace (stitching drains as needed).
///
/// # Errors
///
/// Any [`RunnerError`]; checksums are verified.
pub fn capture_mix(
    workloads: &[Workload],
    quantum: u32,
    budget: u64,
) -> Result<CapturedRun, RunnerError> {
    let (capture, m, console) = traced(
        workloads,
        quantum,
        budget,
        atum_core::PatchStyle::Scratch,
        |session, m| session.run(m).map(|c| (c.exit, c)),
    )?;
    Ok(CapturedRun {
        trace: capture.trace,
        cycles: m.cycles(),
        insns: m.insns(),
        console,
        counts: *m.counts(),
        drains: capture.drains,
    })
}

/// As [`capture_mix`] with an explicit patch style, but the trace is
/// never built: returns its statistics, the microcycles elapsed and the
/// drain count. For runs that read nothing else of the trace, at
/// O(hidden buffer) memory.
///
/// # Errors
///
/// Any [`RunnerError`]; checksums are verified.
pub fn capture_mix_stats(
    workloads: &[Workload],
    quantum: u32,
    budget: u64,
    style: atum_core::PatchStyle,
) -> Result<(TraceStats, u64, u32), RunnerError> {
    let (capture, m, _) = traced(workloads, quantum, budget, style, |session, m| {
        session.run_stats(m).map(|c| (c.exit, c))
    })?;
    Ok((capture.stats, m.cycles(), capture.drains))
}

/// Boots a mix with the tracer attached, runs `capture` over it,
/// requires a halt and verifies the checksums; returns the capture, the
/// machine and its console output.
fn traced<C>(
    workloads: &[Workload],
    quantum: u32,
    budget: u64,
    style: atum_core::PatchStyle,
    capture: impl FnOnce(&CaptureSession<'_>, &mut Machine) -> Result<(RunExit, C), TracerError>,
) -> Result<(C, Machine, String), RunnerError> {
    let image = build(workloads, quantum)?;
    let mut m = Machine::new(image.memory_layout());
    image
        .load_into(&mut m)
        .map_err(|e| RunnerError::Boot(e.to_string()))?;
    let tracer =
        Tracer::attach_with_style(&mut m, style).map_err(|e| RunnerError::Tracer(e.to_string()))?;
    tracer.set_pid(&mut m, 0); // boot/kernel before the first dispatch
    let (exit, c) = capture(&CaptureSession::new(&tracer, budget), &mut m)
        .map_err(|e| RunnerError::Tracer(e.to_string()))?;
    if exit != RunExit::Halted {
        return Err(RunnerError::NoHalt(exit));
    }
    let console = String::from_utf8_lossy(&m.take_console_output()).to_string();
    verify_checksums(workloads, &console)?;
    Ok((c, m, console))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_and_traced_agree_on_work() {
        let mix = vec![atum_workloads::list_chase("l", 64, 500)];
        let (cycles, insns, _) = run_untraced(&mix, 20_000, 1_000_000_000).unwrap();
        let cap = capture_mix(&mix, 20_000, 10_000_000_000).unwrap();
        // The user-level work is identical (checksums verified inside the
        // helpers). Total instructions differ slightly because the slowed
        // machine takes *more timer interrupts* per unit of work — the
        // time-dilation artifact real-time tracers like ATUM really had.
        assert!(cap.insns >= insns, "traced run can only add OS work");
        assert!(
            (cap.insns as f64) < insns as f64 * 1.5,
            "dilation should be modest: {insns} vs {}",
            cap.insns
        );
        assert!(cap.cycles > cycles, "tracing costs cycles");
        assert!(cap.trace.ref_count() > 0);
    }

    #[test]
    fn unknown_experiment_names_the_id() {
        let e = RunnerError::UnknownExperiment("t9".to_string());
        assert_eq!(e.to_string(), "unknown experiment id 't9'");
    }

    #[test]
    fn checksum_verification_catches_mismatch() {
        let mut w = atum_workloads::fib_recursive("f", 10);
        w.expected_output = "zz".to_string(); // sabotage
        let err = run_untraced(&[w], 20_000, 1_000_000_000).unwrap_err();
        assert!(matches!(err, RunnerError::ChecksumMismatch { .. }));
    }
}
