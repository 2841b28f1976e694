//! # atum-core — ATUM address tracing via control-store patches
//!
//! This crate is the reproduction of the paper's contribution: capture a
//! **complete-system address trace** — every instruction fetch, data read
//! and data write, from user programs, the kernel, interrupt handlers and
//! every process in a multiprogrammed mix — by *patching the CPU's
//! microcode* so each memory-reference micro-routine also deposits a
//! record into a region of physical memory the operating system does not
//! know exists.
//!
//! Concretely ([`patch`]):
//!
//! * the `XferRead`, `XferWrite` and `XferIFetch` entry slots are
//!   re-pointed at routines that log `{address, type, size, mode, pid}`
//!   and then tail-jump to the stock transfer code;
//! * the `ldpctx` opcode dispatch is wrapped to read the incoming
//!   process's PID out of its PCB, stamp it into the trace-control
//!   register and emit a context-switch marker;
//! * the exception-dispatch entry is wrapped to emit an interrupt/
//!   exception marker carrying the SCB vector.
//!
//! Control lives in four privileged registers (`TRCTL`/`TRBASE`/`TRPTR`/
//! `TRLIM` — microcode scratch on the real 8200, poked from the console).
//! When the buffer fills, the patch sets the FULL bit and halts the
//! processor; the host drains the region ([`Tracer::drain_into`]) and
//! resumes — the paper's trace-sample *stitching* ([`CaptureSession`]).
//!
//! Nothing here calls back into the machine: an unpatched machine has no
//! tracer, and the patched machine's only extra behaviour is more
//! micro-ops, which is exactly how the slowdown is measured.
//!
//! ## Quickstart
//!
//! ```
//! use atum_core::{RecordKind, Tracer};
//! use atum_machine::{Machine, MemLayout};
//!
//! let img = atum_asm::assemble(
//!     ".org 0x1000\nstart: movl #3, r0\nloop: sobgtr r0, loop\n halt\n",
//! ).unwrap();
//! let mut m = Machine::new(MemLayout::small());
//! for (a, b) in img.segments() { m.write_phys(*a, b).unwrap(); }
//! m.set_pc(0x1000);
//!
//! let tracer = Tracer::attach(&mut m).unwrap();
//! tracer.set_enabled(&mut m, true);
//! m.run(100_000);
//! let trace = tracer.extract(&m).unwrap();
//! assert!(trace.iter().any(|r| r.kind() == RecordKind::IFetch));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod batch;
mod encode;
pub mod patch;
mod record;
mod stats;
mod stitch;
mod stream;
mod trace;
mod tracer;

pub use batch::{RecordBatch, BATCH_TARGET};
pub use encode::{decode_trace, encode_trace, DecodeTraceError, SegmentHeader};
pub use patch::{PatchSet, PatchStyle};
pub use record::{RecordKind, TraceRecord};
pub use stats::TraceStats;
pub use stitch::{Capture, CaptureSession, CaptureStreamError, StatsCapture, StreamedCapture};
pub use stream::{
    MemTraceSource, SegmentFileSource, SegmentReader, SegmentSliceSource, SegmentWriter,
    StreamStats, TraceSource, TraceStreamError, UserRefs,
};
pub use trace::Trace;
pub use tracer::{Tracer, TracerError};
