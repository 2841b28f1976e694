//! Host-side tracer control: attach, enable, drain, extract.

use crate::patch::{trctl, PatchError, PatchSet};
use crate::record::TraceRecord;
use crate::trace::Trace;
use atum_arch::PrivReg;
use atum_machine::{Machine, MemError};
use std::fmt;

/// Errors from tracer operations.
///
/// Extraction failures are typed rather than stringly — the host drains
/// the buffer while a capture is live, and a scribbled trace pointer or a
/// corrupt record must surface as a diagnosable error (with the offending
/// register/record values) instead of aborting mid-capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerError {
    /// Patch installation failed.
    Patch(PatchError),
    /// The machine's reserved region is too small for even one record.
    ReservedTooSmall,
    /// The trace write pointer read back from `TRPTR` does not lie on a
    /// record boundary inside the buffer — the register was scribbled, or
    /// the tracer was pointed at the wrong machine.
    BadTracePointer {
        /// The `TRPTR` value read back.
        trptr: u32,
        /// The buffer base this tracer attached with.
        base: u32,
        /// The buffer limit this tracer attached with.
        limit: u32,
    },
    /// The buffer region could not be read back from physical memory.
    Region(MemError),
    /// A buffered record failed to decode.
    CorruptRecord {
        /// Byte offset of the record from the buffer base.
        offset: u32,
        /// The undecodable meta longword.
        meta: u32,
    },
}

impl fmt::Display for TracerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TracerError::Patch(e) => write!(f, "patch installation failed: {e}"),
            TracerError::ReservedTooSmall => f.write_str("reserved region too small"),
            TracerError::BadTracePointer { trptr, base, limit } => write!(
                f,
                "trace pointer {trptr:#010x} invalid for buffer {base:#010x}..{limit:#010x}"
            ),
            TracerError::Region(e) => write!(f, "trace extraction failed: {e}"),
            TracerError::CorruptRecord { offset, meta } => write!(
                f,
                "corrupt record at buffer offset {offset:#x}: meta {meta:#010x}"
            ),
        }
    }
}

impl std::error::Error for TracerError {}

impl From<MemError> for TracerError {
    fn from(e: MemError) -> TracerError {
        TracerError::Region(e)
    }
}

impl From<PatchError> for TracerError {
    fn from(e: PatchError) -> TracerError {
        TracerError::Patch(e)
    }
}

fn decode_record(chunk: &[u8], i: usize) -> Result<TraceRecord, TracerError> {
    let addr = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    let meta = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    TraceRecord::from_raw(addr, meta).ok_or(TracerError::CorruptRecord {
        offset: i as u32 * 8,
        meta,
    })
}

/// The attached ATUM tracer: owns the patch handle and the buffer bounds.
///
/// All control flows through the machine's privileged registers — the
/// same interface the console used on the 8200. The tracer holds no
/// machine reference; pass the machine to each operation.
#[derive(Debug)]
pub struct Tracer {
    patches: PatchSet,
    base: u32,
    limit: u32,
}

impl Tracer {
    /// Installs the patches and points the trace buffer at the machine's
    /// entire reserved region. Capture starts disabled.
    ///
    /// # Errors
    ///
    /// [`TracerError::Patch`] on double-install; [`TracerError::ReservedTooSmall`]
    /// if the reserved region cannot hold a record.
    pub fn attach(m: &mut Machine) -> Result<Tracer, TracerError> {
        let layout = m.memory().layout();
        Tracer::attach_region(m, layout.reserved_base(), layout.reserved_len())
    }

    /// Installs the patches with an explicit [`PatchStyle`] over the whole
    /// reserved region (the A1 patch-cost ablation).
    ///
    /// # Errors
    ///
    /// As [`Tracer::attach`].
    ///
    /// [`PatchStyle`]: crate::patch::PatchStyle
    pub fn attach_with_style(
        m: &mut Machine,
        style: crate::patch::PatchStyle,
    ) -> Result<Tracer, TracerError> {
        let layout = m.memory().layout();
        Tracer::attach_region_with_style(m, layout.reserved_base(), layout.reserved_len(), style)
    }

    /// Installs the patches with an explicit buffer region (used by the
    /// buffer-size experiments).
    ///
    /// # Errors
    ///
    /// As [`Tracer::attach`].
    pub fn attach_region(m: &mut Machine, base: u32, len: u32) -> Result<Tracer, TracerError> {
        Tracer::attach_region_with_style(m, base, len, crate::patch::PatchStyle::Scratch)
    }

    /// Installs the patches with an explicit region and style. The spill
    /// style reserves the 32 bytes at the buffer limit as its scratch
    /// line, shrinking the record capacity accordingly.
    ///
    /// # Errors
    ///
    /// As [`Tracer::attach`].
    pub fn attach_region_with_style(
        m: &mut Machine,
        base: u32,
        mut len: u32,
        style: crate::patch::PatchStyle,
    ) -> Result<Tracer, TracerError> {
        if style == crate::patch::PatchStyle::Spill {
            len = len.saturating_sub(32);
        }
        if len < 8 {
            return Err(TracerError::ReservedTooSmall);
        }
        let patches = PatchSet::install_with_style(m.control_store_mut(), style)?;
        let limit = base + len;
        m.write_prv(PrivReg::Trbase, base);
        m.write_prv(PrivReg::Trptr, base);
        m.write_prv(PrivReg::Trlim, limit);
        m.write_prv(PrivReg::Trctl, 0);
        Ok(Tracer {
            patches,
            base,
            limit,
        })
    }

    /// The installed patch set (for footprint reporting).
    pub fn patches(&self) -> &PatchSet {
        &self.patches
    }

    /// Buffer capacity in records.
    pub fn capacity_records(&self) -> u32 {
        (self.limit - self.base) / 8
    }

    /// Turns capture on or off (the TRCTL enable bit).
    pub fn set_enabled(&self, m: &mut Machine, on: bool) {
        let mut v = m.read_prv(PrivReg::Trctl);
        if on {
            v |= trctl::ENABLE;
        } else {
            v &= !trctl::ENABLE;
        }
        m.write_prv(PrivReg::Trctl, v);
    }

    /// Whether capture is enabled.
    pub fn is_enabled(&self, m: &Machine) -> bool {
        m.read_prv(PrivReg::Trctl) & trctl::ENABLE != 0
    }

    /// Whether the microcode has flagged the buffer full.
    pub fn is_full(&self, m: &Machine) -> bool {
        m.read_prv(PrivReg::Trctl) & trctl::FULL != 0
    }

    /// Stamps the current process id into TRCTL (the boot path; `ldpctx`
    /// keeps it up to date afterwards).
    pub fn set_pid(&self, m: &mut Machine, pid: u8) {
        let v = m.read_prv(PrivReg::Trctl);
        let v = (v & !(trctl::PID_MASK << trctl::PID_SHIFT)) | ((pid as u32) << trctl::PID_SHIFT);
        m.write_prv(PrivReg::Trctl, v);
    }

    /// Number of records currently in the buffer. A `TRPTR` below the
    /// buffer base (a scribbled register) reads as zero rather than
    /// wrapping; [`Tracer::extract`] reports it as an error.
    pub fn pending_records(&self, m: &Machine) -> u32 {
        m.read_prv(PrivReg::Trptr).saturating_sub(self.base) / 8
    }

    /// Reads the buffered records without disturbing the machine.
    ///
    /// # Errors
    ///
    /// [`TracerError::BadTracePointer`] if `TRPTR` is outside the buffer
    /// or off a record boundary; [`TracerError::Region`] if the region
    /// read fails; [`TracerError::CorruptRecord`] if a record does not
    /// decode.
    pub fn extract(&self, m: &Machine) -> Result<Trace, TracerError> {
        let mut records = Vec::new();
        self.extract_into(m, &mut records)?;
        Ok(Trace::from(records))
    }

    /// Reads the buffered records into a caller-owned vector (cleared
    /// first) — the allocation-free form: the capture loop reuses one
    /// vector across every drain.
    ///
    /// # Errors
    ///
    /// As [`Tracer::extract`].
    pub fn extract_into(&self, m: &Machine, out: &mut Vec<TraceRecord>) -> Result<(), TracerError> {
        let bytes = self.checked_buffer(m)?;
        out.clear();
        out.reserve(bytes.len() / 8);
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            out.push(decode_record(chunk, i)?);
        }
        Ok(())
    }

    /// Validates `TRPTR` and borrows the filled buffer region in place
    /// (no host-side byte copy).
    fn checked_buffer<'m>(&self, m: &'m Machine) -> Result<&'m [u8], TracerError> {
        let ptr = m.read_prv(PrivReg::Trptr);
        if ptr < self.base || ptr > self.limit || !(ptr - self.base).is_multiple_of(8) {
            return Err(TracerError::BadTracePointer {
                trptr: ptr,
                base: self.base,
                limit: self.limit,
            });
        }
        Ok(m.memory().slice(self.base, ptr - self.base)?)
    }

    /// Drains into a caller-owned vector (cleared first), resetting the
    /// write pointer and FULL flag — the console's drain operation during
    /// stitched captures.
    ///
    /// # Errors
    ///
    /// As [`Tracer::extract`].
    pub fn drain_into(
        &self,
        m: &mut Machine,
        out: &mut Vec<TraceRecord>,
    ) -> Result<(), TracerError> {
        self.extract_into(m, out)?;
        self.reset_buffer(m);
        Ok(())
    }

    fn reset_buffer(&self, m: &mut Machine) {
        m.write_prv(PrivReg::Trptr, self.base);
        let v = m.read_prv(PrivReg::Trctl) & !trctl::FULL;
        m.write_prv(PrivReg::Trctl, v);
    }

    /// Detaches: disables capture and restores the stock dispatch targets.
    pub fn detach(self, m: &mut Machine) {
        self.set_enabled(m, false);
        self.patches.uninstall(m.control_store_mut());
    }
}
