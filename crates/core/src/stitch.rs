//! Capture sessions: run the machine, service buffer-full halts, stitch
//! the drained samples — the paper's methodology for traces longer than
//! the hidden buffer.

use crate::record::{RecordKind, TraceRecord};
use crate::stats::{StatsAccumulator, TraceStats};
use crate::stream::{SegmentWriter, StreamStats};
use crate::trace::Trace;
use crate::tracer::{Tracer, TracerError};
use atum_machine::{Machine, RunExit};
use std::fmt;
use std::io::{self, Write};

/// The result of a capture session.
#[derive(Debug)]
pub struct Capture {
    /// The stitched trace.
    pub trace: Trace,
    /// How the final run ended.
    pub exit: RunExit,
    /// Number of buffer-full drains that occurred (segments - 1).
    pub drains: u32,
}

/// The result of a capture session that kept only the trace's
/// statistics ([`CaptureSession::run_stats`]).
#[derive(Debug)]
pub struct StatsCapture {
    /// Statistics of the stitched trace.
    pub stats: TraceStats,
    /// How the final run ended.
    pub exit: RunExit,
    /// Number of buffer-full drains that occurred (segments - 1).
    pub drains: u32,
}

/// The result of a streamed capture session: the trace went to the
/// [`SegmentWriter`], so only the exit and counters come back.
#[derive(Debug)]
pub struct StreamedCapture {
    /// How the final run ended.
    pub exit: RunExit,
    /// Number of buffer-full drains that occurred.
    pub drains: u32,
    /// The writer's totals after the final segment.
    pub stats: StreamStats,
}

/// Errors from a streamed capture: a drain failure or a write failure.
#[derive(Debug)]
pub enum CaptureStreamError {
    /// Extraction from the hidden buffer failed.
    Tracer(TracerError),
    /// Writing a segment to the output failed.
    Io(io::Error),
}

impl fmt::Display for CaptureStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureStreamError::Tracer(e) => write!(f, "capture drain failed: {e}"),
            CaptureStreamError::Io(e) => write!(f, "segment write failed: {e}"),
        }
    }
}

impl std::error::Error for CaptureStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CaptureStreamError::Tracer(e) => Some(e),
            CaptureStreamError::Io(e) => Some(e),
        }
    }
}

impl From<TracerError> for CaptureStreamError {
    fn from(e: TracerError) -> CaptureStreamError {
        CaptureStreamError::Tracer(e)
    }
}

impl From<io::Error> for CaptureStreamError {
    fn from(e: io::Error) -> CaptureStreamError {
        CaptureStreamError::Io(e)
    }
}

/// Drives a traced machine to completion, draining the hidden buffer each
/// time the patch microcode halts with the FULL flag.
#[derive(Debug)]
pub struct CaptureSession<'t> {
    tracer: &'t Tracer,
    max_total_cycles: u64,
    max_drains: u32,
}

impl<'t> CaptureSession<'t> {
    /// Creates a session with a total cycle budget.
    pub fn new(tracer: &'t Tracer, max_total_cycles: u64) -> CaptureSession<'t> {
        CaptureSession {
            tracer,
            max_total_cycles,
            max_drains: 100_000,
        }
    }

    /// Caps the number of drains (guards against runaway programs).
    pub fn max_drains(mut self, n: u32) -> CaptureSession<'t> {
        self.max_drains = n;
        self
    }

    /// Enables capture and runs until the machine halts for a reason other
    /// than a full buffer (or the budget runs out), stitching every
    /// drained sample.
    ///
    /// # Errors
    ///
    /// Any extraction [`TracerError`] if a drain fails.
    pub fn run(&self, m: &mut Machine) -> Result<Capture, TracerError> {
        let mut trace = Trace::new();
        let (exit, drains) = self.drive(m, |segment, _| {
            // The first segment `drive` hands over is never empty.
            trace.push_segment(segment, trace.is_empty());
            Ok::<(), TracerError>(())
        })?;
        Ok(Capture {
            trace,
            exit,
            drains,
        })
    }

    /// As [`CaptureSession::run`], but only the trace's statistics are
    /// kept: each segment is counted into them as it is drained, so the
    /// capture's resident cost is O(hidden buffer), not O(trace). The
    /// statistics are exactly those of the trace [`CaptureSession::run`]
    /// would have stitched, marks included.
    ///
    /// # Errors
    ///
    /// Any extraction [`TracerError`] if a drain fails.
    pub fn run_stats(&self, m: &mut Machine) -> Result<StatsCapture, TracerError> {
        let mut stats = StatsAccumulator::new();
        let (exit, drains) = self.drive(m, |segment, _| {
            stats.add(segment);
            Ok::<(), TracerError>(())
        })?;
        Ok(StatsCapture {
            stats: stats.finish(),
            exit,
            drains,
        })
    }

    /// As [`CaptureSession::run`], but each segment goes straight to a
    /// [`SegmentWriter`] as it is drained — the capture's resident cost
    /// is O(hidden buffer), not O(trace).
    ///
    /// The file decodes to exactly the trace [`CaptureSession::run`]
    /// would have returned: one file segment per stitched segment, with
    /// the same [`RecordKind::SegmentMark`] separators, stamped with the
    /// machine's cycle counter at each drain.
    ///
    /// # Errors
    ///
    /// [`CaptureStreamError::Tracer`] if a drain fails;
    /// [`CaptureStreamError::Io`] if a segment write fails.
    pub fn run_streaming<W: Write>(
        &self,
        m: &mut Machine,
        w: &mut SegmentWriter<W>,
    ) -> Result<StreamedCapture, CaptureStreamError> {
        let (exit, drains) = self.drive(m, |segment, cycle| {
            w.write_segment(segment, cycle)
                .map_err(CaptureStreamError::Io)
        })?;
        Ok(StreamedCapture {
            exit,
            drains,
            stats: w.stats(),
        })
    }

    /// The capture loop, and the one place the stitch rule lives: enables
    /// capture and runs until the machine halts for a reason other than a
    /// full buffer (or the budget runs out), draining the buffer at every
    /// halt, then disables capture. Returns how the final run ended and
    /// the number of buffer-full drains.
    ///
    /// Each drained sample is one segment, handed to `sink` with the
    /// machine's cycle counter at its drain. Samples before the first
    /// record are dropped, and a segment that another drain follows ends
    /// with a [`RecordKind::SegmentMark`] — exactly the segments
    /// [`Trace::stitch`] would build from the samples.
    fn drive<E: From<TracerError>>(
        &self,
        m: &mut Machine,
        sink: impl FnMut(&[TraceRecord], u64) -> Result<(), E>,
    ) -> Result<(RunExit, u32), E> {
        self.tracer.set_enabled(m, true);
        let result = self.drain_until_done(m, sink);
        // On every exit: a failed drain or sink must not leave the
        // machine recording into a buffer nobody drains.
        self.tracer.set_enabled(m, false);
        result
    }

    /// [`CaptureSession::drive`]'s loop, run with capture enabled.
    fn drain_until_done<E: From<TracerError>>(
        &self,
        m: &mut Machine,
        mut sink: impl FnMut(&[TraceRecord], u64) -> Result<(), E>,
    ) -> Result<(RunExit, u32), E> {
        // A full buffer plus its mark: the drains never reallocate.
        let mut sample = Vec::with_capacity(self.tracer.capacity_records() as usize + 1);
        let mut started = false;
        let deadline = m.cycles().saturating_add(self.max_total_cycles);
        let mut drains = 0u32;
        loop {
            let budget = deadline.saturating_sub(m.cycles());
            let exit = m.run(budget);
            let full_drain = matches!(exit, RunExit::Halted)
                && self.tracer.is_full(m)
                && drains < self.max_drains;
            self.tracer.drain_into(m, &mut sample)?;
            started |= !sample.is_empty();
            if started {
                if full_drain {
                    sample.push(TraceRecord::new(RecordKind::SegmentMark, 0, 0, 0, false));
                }
                sink(&sample, m.cycles())?;
            }
            if !full_drain {
                return Ok((exit, drains));
            }
            drains += 1;
            m.resume();
        }
    }
}
