//! The trace-record format.
//!
//! Each record is two longwords, written by the patch microcode as two
//! physical stores — the "fat but fast" layout a microcode patch can
//! afford (compaction happens at extraction time, in [`crate::encode`]):
//!
//! ```text
//! low longword   address (virtual)
//! high longword:
//!   31:28  record kind
//!   27     kernel-mode flag
//!   18:16  reference size in bytes (1, 2 or 4)
//!   15:8   process id
//!   other  zero
//! ```

use std::fmt;

/// Kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum RecordKind {
    /// Instruction-stream longword fetch.
    IFetch = 1,
    /// Data read.
    Read = 2,
    /// Data write.
    Write = 3,
    /// Context switch (`ldpctx`); the address is the new PCB base and the
    /// pid field is the incoming process.
    CtxSwitch = 4,
    /// Exception or interrupt entry; the address is the SCB vector offset.
    Interrupt = 5,
    /// Segment boundary inserted by the host when stitching drained
    /// samples together (never written by microcode).
    SegmentMark = 6,
}

impl RecordKind {
    /// Decodes the 4-bit kind field.
    pub fn from_bits(bits: u32) -> Option<RecordKind> {
        Some(match bits {
            1 => RecordKind::IFetch,
            2 => RecordKind::Read,
            3 => RecordKind::Write,
            4 => RecordKind::CtxSwitch,
            5 => RecordKind::Interrupt,
            6 => RecordKind::SegmentMark,
            _ => return None,
        })
    }

    /// Whether this record is an actual memory reference (I or D).
    pub fn is_ref(self) -> bool {
        matches!(
            self,
            RecordKind::IFetch | RecordKind::Read | RecordKind::Write
        )
    }

    /// Whether this record is a data reference.
    pub fn is_data(self) -> bool {
        matches!(self, RecordKind::Read | RecordKind::Write)
    }
}

impl fmt::Display for RecordKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordKind::IFetch => "I",
            RecordKind::Read => "R",
            RecordKind::Write => "W",
            RecordKind::CtxSwitch => "CTX",
            RecordKind::Interrupt => "INT",
            RecordKind::SegmentMark => "SEG",
        })
    }
}

/// Bit positions in the high longword (shared with the patch microcode).
pub(crate) mod meta {
    /// Kind field shift.
    pub const KIND_SHIFT: u32 = 28;
    /// Kernel-mode flag.
    pub const KERNEL_BIT: u32 = 1 << 27;
    /// Size field shift.
    pub const SIZE_SHIFT: u32 = 16;
    /// Size field mask (pre-shift).
    pub const SIZE_MASK: u32 = 0x7;
    /// Pid field shift.
    pub const PID_SHIFT: u32 = 8;
    /// Pid field mask (pre-shift).
    pub const PID_MASK: u32 = 0xFF;
    /// Every bit some field occupies; the microcode leaves the rest zero.
    pub const FIELDS: u32 =
        0xF << KIND_SHIFT | KERNEL_BIT | SIZE_MASK << SIZE_SHIFT | PID_MASK << PID_SHIFT;
}

/// One parsed trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Virtual address (or marker payload).
    pub addr: u32,
    /// Packed metadata (see module docs).
    pub meta: u32,
}

impl TraceRecord {
    /// Builds a record from its fields (host-side; microcode builds them
    /// with ALU ops).
    pub fn new(kind: RecordKind, addr: u32, size: u32, pid: u8, kernel: bool) -> TraceRecord {
        let mut meta = (kind as u32) << meta::KIND_SHIFT
            | (size & meta::SIZE_MASK) << meta::SIZE_SHIFT
            | (pid as u32) << meta::PID_SHIFT;
        if kernel {
            meta |= meta::KERNEL_BIT;
        }
        TraceRecord { addr, meta }
    }

    /// Parses the two raw longwords from the buffer; `None` unless the
    /// meta longword is one the microcode writes: a valid kind, a size of
    /// 0, 1, 2 or 4, and every bit outside the kind, kernel, size and pid
    /// fields zero. Anything else means the buffer was scribbled — and
    /// would not survive the v2 codec, which keeps only those fields.
    pub fn from_raw(addr: u32, meta: u32) -> Option<TraceRecord> {
        RecordKind::from_bits(meta >> meta::KIND_SHIFT)?;
        let size = (meta >> meta::SIZE_SHIFT) & meta::SIZE_MASK;
        if meta & !meta::FIELDS != 0 || !matches!(size, 0 | 1 | 2 | 4) {
            return None;
        }
        Some(TraceRecord { addr, meta })
    }

    /// The record kind.
    pub fn kind(self) -> RecordKind {
        RecordKind::from_bits(self.meta >> meta::KIND_SHIFT).expect("validated at construction")
    }

    /// Whether the reference was made in kernel mode.
    pub fn is_kernel(self) -> bool {
        self.meta & meta::KERNEL_BIT != 0
    }

    /// Reference size in bytes (0 for markers).
    pub fn size(self) -> u32 {
        (self.meta >> meta::SIZE_SHIFT) & meta::SIZE_MASK
    }

    /// The process id stamped into the record.
    pub fn pid(self) -> u8 {
        ((self.meta >> meta::PID_SHIFT) & meta::PID_MASK) as u8
    }

    /// Whether this is an I/D memory reference.
    pub fn is_ref(self) -> bool {
        self.kind().is_ref()
    }

    /// The virtual page number of the reference.
    pub fn page(self) -> u32 {
        self.addr >> atum_arch::PAGE_SHIFT
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<3} {:#010x} pid={:<3} {} sz={}",
            self.kind(),
            self.addr,
            self.pid(),
            if self.is_kernel() { 'k' } else { 'u' },
            self.size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_fields() {
        let r = TraceRecord::new(RecordKind::Write, 0x8000_1234, 4, 7, true);
        assert_eq!(r.kind(), RecordKind::Write);
        assert_eq!(r.addr, 0x8000_1234);
        assert_eq!(r.size(), 4);
        assert_eq!(r.pid(), 7);
        assert!(r.is_kernel());
        assert!(r.is_ref());
        let parsed = TraceRecord::from_raw(r.addr, r.meta).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn marker_records() {
        let r = TraceRecord::new(RecordKind::CtxSwitch, 0x9000, 0, 3, true);
        assert!(!r.is_ref());
        assert_eq!(r.pid(), 3);
        assert!(!RecordKind::Interrupt.is_ref());
        assert!(RecordKind::Read.is_data());
        assert!(!RecordKind::IFetch.is_data());
    }

    #[test]
    fn bad_meta_rejected() {
        assert_eq!(TraceRecord::from_raw(0, 0), None);
        assert_eq!(TraceRecord::from_raw(0, 0xF << 28), None);
        let meta = |size| TraceRecord::new(RecordKind::Read, 0, size, 1, true).meta;
        for size in [0, 1, 2, 4] {
            assert!(
                TraceRecord::from_raw(0, meta(size)).is_some(),
                "size {size}"
            );
        }
        for size in [3, 5, 6, 7] {
            assert_eq!(TraceRecord::from_raw(0, meta(size)), None, "size {size}");
        }
        assert_eq!(TraceRecord::from_raw(0, meta(4) | 1), None, "stray bit");
    }

    #[test]
    fn page_extraction() {
        let r = TraceRecord::new(RecordKind::Read, 0x0000_0A04, 4, 0, false);
        assert_eq!(r.page(), 5);
    }

    #[test]
    fn display_is_informative() {
        let s = TraceRecord::new(RecordKind::IFetch, 0x1000, 4, 2, false).to_string();
        assert!(s.contains("0x00001000"));
        assert!(s.contains("pid=2"));
    }
}
