//! Capture an ATUM trace from named workloads and write the archival
//! trace file — the downstream-user tool.
//!
//! ```text
//! capture list matrix            # 2-process mix of named workloads
//! capture mix                    # the standard multiprogramming mix
//! capture lexer -q 8000 -o t.atum --dump 20
//! ```
//!
//! Workload names: matrix, list, lexer, sort, copy, fib, bsearch, queue,
//! heap — or `mix` for the standard mix. `-q` sets the scheduling quantum in
//! microcycles, `-o` writes the compact trace file, `--dump N` prints the
//! first N records.
//!
//! The capture streams: each drained sample is encoded into the `-o`
//! file as it is drained (into memory without `-o`), each segment
//! stamped with its drain's cycle, and the statistics and `--dump`
//! records come from one decode pass over what was written. The `-o`
//! file is created before the machine runs, so an unwritable path fails
//! at once. A closed stdout (`| head`) ends the program quietly with
//! success.

use atum_core::{
    CaptureSession, CaptureStreamError, RecordBatch, SegmentFileSource, SegmentSliceSource,
    SegmentWriter, StreamedCapture, TraceSource, TraceStats, TraceStreamError, Tracer,
};
use atum_machine::{Machine, RunExit};
use atum_os::BootImage;
use atum_workloads::Workload;
use std::io::{self, Write};
use std::process::ExitCode;

fn preset(name: &str) -> Option<Workload> {
    Some(match name {
        "matrix" => atum_workloads::matrix("matrix", 16),
        "list" => atum_workloads::list_chase("list", 1_024, 40_000),
        "lexer" => atum_workloads::lexer("lexer", 8_192, 3),
        "sort" => atum_workloads::sort("sort", 1_024),
        "copy" => atum_workloads::block_copy("copy", 8_192, 24),
        "fib" => atum_workloads::fib_recursive("fib", 18),
        "bsearch" => atum_workloads::binary_search("bsearch", 2_048, 15_000),
        "queue" => atum_workloads::queue_sim("queue", 48, 30_000),
        "heap" => atum_workloads::heap_walk("heap", 30, 400),
        _ => return None,
    })
}

struct Args {
    workloads: Vec<Workload>,
    quantum: u32,
    out: Option<String>,
    dump: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        quantum: 20_000,
        out: None,
        dump: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-q" | "--quantum" => {
                args.quantum = it
                    .next()
                    .ok_or("missing value for -q")?
                    .parse()
                    .map_err(|e| format!("bad quantum: {e}"))?;
            }
            "-o" | "--out" => {
                args.out = Some(it.next().ok_or("missing value for -o")?);
            }
            "--dump" => {
                args.dump = it
                    .next()
                    .ok_or("missing value for --dump")?
                    .parse()
                    .map_err(|e| format!("bad dump count: {e}"))?;
            }
            "mix" => args.workloads.extend(atum_workloads::mix_std()),
            name => {
                args.workloads
                    .push(preset(name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
        }
    }
    if args.workloads.is_empty() {
        return Err(
            "usage: capture <workloads…|mix> [-q quantum] [-o file.atum] [--dump N]".to_string(),
        );
    }
    Ok(args)
}

/// Captures the booted machine into `w`, then flushes it.
fn capture<W: Write>(
    tracer: &Tracer,
    m: &mut Machine,
    mut w: SegmentWriter<W>,
) -> Result<StreamedCapture, CaptureStreamError> {
    let captured = CaptureSession::new(tracer, u64::MAX / 2).run_streaming(m, &mut w)?;
    w.finish()?;
    Ok(captured)
}

/// Passes a source's batches through, printing the first `left` records
/// to `out` as they go by. A failed print ends the pass as its
/// [`TraceStreamError::Io`].
struct Dump<'o, S> {
    inner: S,
    left: usize,
    out: &'o mut dyn Write,
}

impl<S: TraceSource> TraceSource for Dump<'_, S> {
    fn rewind(&mut self) -> Result<(), TraceStreamError> {
        self.inner.rewind()
    }

    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        let batch = self.inner.next_batch()?;
        if let Some(b) = batch {
            for r in b.records().iter().take(self.left) {
                writeln!(self.out, "{r}")?;
            }
            self.left -= b.len().min(self.left);
        }
        Ok(batch)
    }
}

/// The statistics of what `source` holds, printing its first `dump`
/// records to `out` in the same pass.
fn scan(
    source: impl TraceSource,
    dump: usize,
    out: &mut dyn Write,
) -> Result<TraceStats, TraceStreamError> {
    TraceStats::of(&mut Dump {
        inner: source,
        left: dump,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Create the output before anything runs: an unwritable path fails
    // at once, not after the whole capture.
    let file = match &args.out {
        None => None,
        Some(path) => match SegmentWriter::create(path) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let mut builder = BootImage::builder().quantum(args.quantum);
    for w in &args.workloads {
        builder = builder.user_program(&w.source);
    }
    let image = match builder.build() {
        Ok(i) => i,
        Err(e) => {
            eprintln!("boot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut machine = Machine::new(image.memory_layout());
    if let Err(e) = image.load_into(&mut machine) {
        eprintln!("load: {e}");
        return ExitCode::FAILURE;
    }
    let tracer = match Tracer::attach(&mut machine) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("attach: {e}");
            return ExitCode::FAILURE;
        }
    };
    tracer.set_pid(&mut machine, 0);
    // Without `-o` the compact bytes stay in memory for the decode pass.
    let mut bytes = Vec::new();
    let captured = match file {
        Some(w) => capture(&tracer, &mut machine, w),
        None => SegmentWriter::new(&mut bytes)
            .map_err(CaptureStreamError::Io)
            .and_then(|w| capture(&tracer, &mut machine, w)),
    };
    let captured = match captured {
        Ok(c) => c,
        Err(e) => {
            eprintln!("capture: {e}");
            return ExitCode::FAILURE;
        }
    };
    if captured.exit != RunExit::Halted {
        eprintln!("machine did not halt: {}", captured.exit);
        return ExitCode::FAILURE;
    }

    let console = String::from_utf8_lossy(&machine.take_console_output()).to_string();
    eprintln!(
        "workloads: {}",
        args.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!(
        "console: {console:?} (expected checksums: {})",
        args.workloads
            .iter()
            .map(|w| w.expected_output.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!(
        "cycles: {}  instructions: {}  drains: {}",
        machine.cycles(),
        machine.insns(),
        captured.drains
    );

    atum_bench::with_stdout(|out| {
        let scanned = match &args.out {
            Some(path) => scan(SegmentFileSource::new(path), args.dump, out),
            None => scan(SegmentSliceSource::new(&bytes), args.dump, out),
        };
        let stats = match scanned {
            Ok(s) => s,
            Err(TraceStreamError::Io(e)) if e.kind() == io::ErrorKind::BrokenPipe => return Err(e),
            Err(e) => {
                eprintln!("read back: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        eprintln!("{stats}");
        if let Some(path) = &args.out {
            let s = captured.stats;
            eprintln!(
                "wrote {path}: {} bytes ({:.2} bytes/record)",
                s.encoded_bytes,
                s.encoded_bytes as f64 / s.records.max(1) as f64
            );
        }
        Ok(ExitCode::SUCCESS)
    })
}
