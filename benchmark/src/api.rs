//! Every call the benchmark makes into `crates/*`, in one place.
//!
//! The benchmark measures each layer from outside, by timing calls into
//! the crates' public functions; this module is the only file that
//! names them. Each wrapper opens a span `<layer>.<call>` (a no-op when
//! recording is off) and counts the work it did, so an API change in a
//! library changes this file and nothing else in the benchmark.

use crate::spans::Rec;
use atum_analysis::experiments;
use atum_core::{
    CaptureSession, RecordBatch, RecordKind, SegmentFileSource, SegmentWriter, TraceRecord,
    TraceSource, TraceStreamError, Tracer,
};
use atum_machine::Machine;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

pub use atum_analysis::WorkingSet;
pub use atum_cache::{CacheConfig, CacheStats, SwitchPolicy, TlbConfig, WritePolicy};
pub use atum_machine::RunExit;
pub use atum_os::BootImage;
pub use atum_workloads::Workload;

/// Cycle budget for every run: generous enough that any mix halts.
pub const BUDGET: u64 = 200_000_000_000;

/// What the simulated machine reported after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFacts {
    /// How the last `Machine::run` ended.
    pub exit: RunExit,
    /// Simulated microcycles.
    pub cycles: u64,
    /// Simulated instructions.
    pub insns: u64,
}

/// Totals of one capture written to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Captured {
    /// The machine after the capture.
    pub run: RunFacts,
    /// Buffer-full drains.
    pub drains: u32,
    /// Records written (markers included).
    pub records: u64,
    /// Encoded file size in bytes.
    pub encoded_bytes: u64,
}

// ── workloads ────────────────────────────────────────────────────────

/// The standard multiprogramming mix (`experiments full` captures it).
pub fn mix_std() -> Vec<Workload> {
    atum_workloads::mix_std()
}

/// The four generators of the standard mix, by parameter.
pub fn matrix(n: u32) -> Workload {
    atum_workloads::matrix("matrix", n)
}

/// See [`matrix`].
pub fn list_chase(nodes: u32, iters: u32) -> Workload {
    atum_workloads::list_chase("list", nodes, iters)
}

/// See [`matrix`].
pub fn lexer(text_len: u32, passes: u32) -> Workload {
    atum_workloads::lexer("lexer", text_len, passes)
}

/// See [`matrix`].
pub fn heap_walk(pages: u32, passes: u32) -> Workload {
    atum_workloads::heap_walk("heap", pages, passes)
}

// ── os ───────────────────────────────────────────────────────────────

/// Assembles MOSS plus the mix into a boot image.
pub fn boot_build(rec: &Rec, mix: &[Workload], quantum: u32) -> Result<BootImage, String> {
    rec.span("os.boot_build", || {
        let mut b = BootImage::builder().quantum(quantum);
        for w in mix {
            b = b.user_program(&w.source);
        }
        b.build().map_err(|e| format!("boot image: {e}"))
    })
}

/// A fresh machine with the boot image loaded.
pub fn boot_load(rec: &Rec, image: &BootImage) -> Result<Machine, String> {
    rec.span("os.load", || {
        let mut m = Machine::new(image.memory_layout());
        image.load_into(&mut m).map_err(|e| format!("load: {e}"))?;
        Ok(m)
    })
}

// ── machine ──────────────────────────────────────────────────────────

/// `Machine::run` for at most `budget` cycles.
pub fn run(rec: &Rec, m: &mut Machine, budget: u64) -> RunExit {
    let (c0, i0) = (m.cycles(), m.insns());
    let exit = rec.span("machine.run", || m.run(budget));
    rec.count("machine.sim_cycles", m.cycles() - c0);
    rec.count("machine.sim_insns", m.insns() - i0);
    exit
}

/// The machine's counters after a run ended with `exit`.
pub fn facts(m: &Machine, exit: RunExit) -> RunFacts {
    RunFacts {
        exit,
        cycles: m.cycles(),
        insns: m.insns(),
    }
}

/// Everything the console printed (the workloads' checksums).
pub fn console(m: &mut Machine) -> String {
    String::from_utf8_lossy(&m.take_console_output()).into_owned()
}

// ── core ─────────────────────────────────────────────────────────────

/// Installs the trace patches; the boot path runs as pid 0.
pub fn attach(rec: &Rec, m: &mut Machine) -> Result<Tracer, String> {
    rec.span("core.attach", || {
        let t = Tracer::attach(m).map_err(|e| format!("attach: {e}"))?;
        t.set_pid(m, 0);
        Ok(t)
    })
}

/// Captures the booted machine to a segment file at `path`.
///
/// Untraced, this is `CaptureSession::run_streaming`. While recording,
/// the same loop is driven call by call through the public API, with a
/// span on each call; the caller checks the two produce identical files.
pub fn capture_to_file(
    rec: &Rec,
    tracer: &Tracer,
    m: &mut Machine,
    path: &Path,
) -> Result<Captured, String> {
    let mut w = rec
        .span("core.create", || SegmentWriter::create(path))
        .map_err(|e| format!("create {path:?}: {e}"))?;
    let (exit, drains) = if rec.is_on() {
        capture_loop(rec, tracer, m, &mut w)?
    } else {
        let c = CaptureSession::new(tracer, BUDGET)
            .run_streaming(m, &mut w)
            .map_err(|e| format!("capture: {e}"))?;
        (c.exit, c.drains)
    };
    let stats = rec
        .span("core.finish", || w.finish())
        .map_err(|e| format!("flush {path:?}: {e}"))?;
    rec.count("core.encoded_bytes", stats.encoded_bytes);
    Ok(Captured {
        run: facts(m, exit),
        drains,
        records: stats.records,
        encoded_bytes: stats.encoded_bytes,
    })
}

/// `CaptureSession::run_streaming`, restated over the public calls it
/// makes (`run`, `is_full`, `drain_into`, `resume`, `write_segment`).
fn capture_loop(
    rec: &Rec,
    tracer: &Tracer,
    m: &mut Machine,
    w: &mut SegmentWriter<BufWriter<File>>,
) -> Result<(RunExit, u32), String> {
    // CaptureSession's default drain cap.
    const MAX_DRAINS: u32 = 100_000;
    tracer.set_enabled(m, true);
    let deadline = m.cycles().saturating_add(BUDGET);
    let (mut cur, mut pending): (Vec<TraceRecord>, Vec<TraceRecord>) = (Vec::new(), Vec::new());
    let (mut have_pending, mut pending_cycle, mut drains) = (false, 0u64, 0u32);
    let mut write = |recs: &[TraceRecord], cycle: u64| {
        rec.span("core.encode", || w.write_segment(recs, cycle))
            .map_err(|e| format!("write segment: {e}"))
    };
    loop {
        let exit = run(rec, m, deadline.saturating_sub(m.cycles()));
        let full_drain = exit == RunExit::Halted
            && rec.span("core.is_full", || tracer.is_full(m))
            && drains < MAX_DRAINS;
        rec.span("core.drain", || tracer.drain_into(m, &mut cur))
            .map_err(|e| format!("drain: {e}"))?;
        rec.count("core.records", cur.len() as u64);
        if have_pending || !cur.is_empty() {
            if have_pending {
                pending.push(TraceRecord::new(RecordKind::SegmentMark, 0, 0, 0, false));
                write(&pending, pending_cycle)?;
            }
            std::mem::swap(&mut pending, &mut cur);
            pending_cycle = m.cycles();
            have_pending = true;
        }
        if full_drain {
            drains += 1;
            rec.span("machine.resume", || m.resume());
        } else {
            if have_pending {
                write(&pending, pending_cycle)?;
            }
            tracer.set_enabled(m, false);
            return Ok((exit, drains));
        }
    }
}

/// A sequential segment-file source whose `next_batch` (the decode) is a
/// `core.decode` span, so each consumer's self time excludes decoding.
pub struct FileSource<'r> {
    inner: SegmentFileSource,
    rec: &'r Rec,
    /// Records decoded so far, across passes.
    decoded: u64,
}

/// Opens `path` as a trace source.
pub fn file_source<'r>(rec: &'r Rec, path: &Path) -> FileSource<'r> {
    FileSource {
        inner: SegmentFileSource::new(path),
        rec,
        decoded: 0,
    }
}

impl TraceSource for FileSource<'_> {
    fn rewind(&mut self) -> Result<(), TraceStreamError> {
        self.inner.rewind()
    }

    fn next_batch(&mut self) -> Result<Option<&RecordBatch>, TraceStreamError> {
        let (rec, inner, decoded) = (self.rec, &mut self.inner, &mut self.decoded);
        rec.span("core.decode", || {
            let b = inner.next_batch()?;
            if let Some(b) = b {
                *decoded += b.len() as u64;
                rec.count("core.batches", 1);
                rec.count("core.decoded_records", b.len() as u64);
            }
            Ok(b)
        })
    }
}

/// Runs one cache-layer call over `src`, counting the records it read.
fn cache_pass<T>(src: &mut FileSource<'_>, f: impl FnOnce(&mut FileSource<'_>) -> T) -> T {
    let before = src.decoded;
    let out = f(src);
    src.rec.count("cache.records", src.decoded - before);
    out
}

/// Records in a segment file, by one decode pass.
pub fn count_records(src: &mut FileSource<'_>) -> Result<u64, String> {
    src.rewind().map_err(|e| e.to_string())?;
    let mut records = 0;
    while let Some(b) = src.next_batch().map_err(|e| format!("decode: {e}"))? {
        records += b.len() as u64;
    }
    Ok(records)
}

// ── cache ────────────────────────────────────────────────────────────

/// Counts `n` simulated configs, `stack` of them answered by the
/// stack-distance engine and the rest replayed one by one.
fn count_configs(rec: &Rec, n: usize, stack: usize) {
    rec.count("cache.configs", n as u64);
    rec.count("cache.stack_configs", stack as u64);
    rec.count("cache.replay_configs", (n - stack) as u64);
}

/// One `simulate_many_stream` pass answering every config in `cfgs`.
pub fn simulate_many(
    rec: &Rec,
    span: &str,
    src: &mut FileSource<'_>,
    cfgs: &[CacheConfig],
) -> Result<Vec<CacheStats>, String> {
    let stack = cfgs.iter().filter(|c| atum_cache::stackable(c)).count();
    count_configs(rec, cfgs.len(), stack);
    cache_pass(src, |src| {
        rec.span(span, || atum_cache::simulate_many_stream(src, cfgs))
    })
    .map_err(|e| format!("{span}: {e}"))
}

/// One `simulate_tlb_stream` pass per TLB config.
pub fn simulate_tlbs(
    rec: &Rec,
    span: &str,
    src: &mut FileSource<'_>,
    cfgs: &[TlbConfig],
) -> Result<Vec<CacheStats>, String> {
    count_configs(rec, cfgs.len(), 0);
    cache_pass(src, |src| {
        rec.span(span, || {
            cfgs.iter()
                .map(|c| atum_cache::simulate_tlb_stream(src, c))
                .collect::<Result<Vec<_>, _>>()
        })
    })
    .map_err(|e| format!("{span}: {e}"))
}

/// The single-config replay simulator (`atum_cache::simulate`'s
/// streaming form) — the oracle the sweep is checked against.
pub fn simulate_oracle(
    rec: &Rec,
    src: &mut FileSource<'_>,
    cfg: &CacheConfig,
) -> Result<CacheStats, String> {
    count_configs(rec, 1, 0);
    cache_pass(src, |src| {
        rec.span("cache.oracle", || atum_cache::simulate_stream(src, cfg))
    })
    .map_err(|e| format!("cache oracle: {e}"))
}

// ── analysis ─────────────────────────────────────────────────────────

/// Working-set curve over `windows`, one pass.
pub fn working_set_curve(
    rec: &Rec,
    span: &str,
    src: &mut FileSource<'_>,
    windows: &[usize],
) -> Result<Vec<WorkingSet>, String> {
    rec.span(span, || {
        atum_analysis::working_set_curve_stream(src, windows)
    })
    .map_err(|e| format!("{span}: {e}"))
}

/// Working set at one window — the oracle for the curve.
pub fn working_set_oracle(
    rec: &Rec,
    src: &mut FileSource<'_>,
    window: usize,
) -> Result<WorkingSet, String> {
    rec.span("analysis.ws_oracle", || {
        atum_analysis::working_set_stream(src, window)
    })
    .map_err(|e| format!("working-set oracle: {e}"))
}

/// `experiments full` on `jobs` threads: every report rendered to text,
/// or the error of an id that failed, in id order.
pub fn regenerate(rec: &Rec, jobs: usize) -> Vec<(String, Result<String, String>)> {
    atum_analysis::set_jobs(jobs);
    let ids: Vec<String> = experiments::ALL_IDS.iter().map(|s| s.to_string()).collect();
    let full = atum_analysis::Scale::Full;
    let reports = if rec.is_on() {
        // `run_selected` restated: capture the shared mix, fan the ids
        // over the pool, one span per id.
        match rec.span("analysis.shared_capture", || {
            experiments::capture_standard_mix(full)
        }) {
            Err(e) => ids.into_iter().map(|id| (id, Err(e.clone()))).collect(),
            Ok(shared) => rec.span("analysis.parallel_map", || {
                let parent = rec.current();
                atum_analysis::parallel_map(jobs, ids, |_, id| {
                    let r = rec.span_under(parent, &format!("analysis.exp_{id}"), || {
                        experiments::run_by_id(&id, full, Some(&shared))
                    });
                    (id, r)
                })
            }),
        }
    } else {
        experiments::run_selected(full, &ids, jobs)
    };
    rec.span("analysis.render", || {
        reports
            .into_iter()
            .map(|(id, r)| (id, r.map(|r| format!("{r}\n")).map_err(|e| e.to_string())))
            .collect()
    })
}
