//! # atum-bench — benchmark harness
//!
//! Two entry points:
//!
//! * the `experiments` binary (`cargo run -p atum-bench --release --bin
//!   experiments [-- quick|full] [ids…]`) regenerates every table and
//!   figure of the reconstructed evaluation and prints the reports that
//!   `EXPERIMENTS.md` records;
//! * the Criterion benches (`cargo bench -p atum-bench`) time the moving
//!   parts: machine throughput traced/untraced (the slowdown measurement
//!   itself), cache-simulation throughput, assembler and control-store
//!   build times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mculist;

pub use atum_analysis::{experiments, Report, Scale};

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

/// Runs a binary's `body` with stdout as its one checked writer. A
/// closed stdout (`BrokenPipe`, as under `| head -1`) stops the body and
/// ends the program quietly with success; any other write failure is
/// reported on stderr and fails it.
pub fn with_stdout(body: impl FnOnce(&mut dyn Write) -> io::Result<ExitCode>) -> ExitCode {
    let mut out = BufWriter::new(io::stdout().lock());
    match body(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stdout: {e}");
            ExitCode::FAILURE
        }
    }
}
