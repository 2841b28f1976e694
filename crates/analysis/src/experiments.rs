//! The experiment registry — one function per table/figure of the
//! reconstructed evaluation (ids match DESIGN.md).
//!
//! An experiment is two parts: the machine runs it reads (`Run`) and a
//! render step over finished runs. [`run_selected`] performs the
//! distinct runs of every selected experiment once, in one job pool,
//! then renders the reports. A run keeps only what its reports print,
//! except the standard-mix capture, whose trace F1–F6 and E1–E4 walk.

use crate::runner::{capture_mix, capture_mix_stats, run_untraced, CapturedRun, RunnerError};
use crate::table::{Report, Table};
use crate::Scale;
use atum_baselines::{ArchExit, ArchSim, TbitTracer};
use atum_cache::{
    simulate_many_stream, simulate_split, simulate_stream, Cache, CacheConfig, SwitchPolicy,
    TlbConfig, WritePolicy,
};
use atum_core::{PatchStyle, RecordKind, Trace, TraceStats};
use atum_workloads::Workload;

/// Budget generous enough for every experiment run.
const BUDGET: u64 = 200_000_000_000;

fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

fn mix(scale: Scale) -> Vec<Workload> {
    match scale {
        Scale::Quick => vec![
            atum_workloads::matrix("matrix", 8),
            atum_workloads::list_chase("list", 256, 4_000),
            atum_workloads::lexer("lexer", 2_048, 1),
        ],
        Scale::Full => atum_workloads::mix_std(),
    }
}

fn quantum(scale: Scale) -> u32 {
    // Short enough for plenty of context switches over a mix's lifetime,
    // long enough that a traced (slowed) machine still makes progress per
    // quantum — the dilation effect ATUM itself had to live with.
    match scale {
        Scale::Quick => 20_000,
        Scale::Full => 60_000,
    }
}

/// A quantum long enough that scheduler overhead is negligible: the
/// T1/A1 technique measurements isolate per-reference cost.
const MEASURE_QUANTUM: u32 = 1_000_000;

fn t1_workload(scale: Scale) -> Workload {
    match scale {
        Scale::Quick => atum_workloads::list_chase("probe", 64, 2_000),
        Scale::Full => atum_workloads::list_chase("probe", 512, 40_000),
    }
}

/// T2's per-workload suite, each captured alone.
fn t2_suite(scale: Scale) -> Vec<Workload> {
    match scale {
        Scale::Quick => vec![
            atum_workloads::matrix("matrix", 6),
            atum_workloads::list_chase("list", 128, 2_000),
            atum_workloads::fib_recursive("fib", 12),
        ],
        Scale::Full => atum_workloads::suite_standard(),
    }
}

/// T2's scheduling-quantum sweep over the standard mix. Floor: the
/// *traced* context-switch path costs ~5–6k cycles; quanta below that
/// spiral into pure scheduling (the dilation effect ATUM dealt with by
/// tracing against a 10ms VMS clock, thousands of instructions per tick
/// even when slowed).
fn t2_quanta(scale: Scale) -> &'static [u32] {
    match scale {
        Scale::Quick => &[12_000, 40_000],
        Scale::Full => &[10_000, 20_000, 60_000, 240_000],
    }
}

fn cache_sizes(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Quick => vec![1 << 10, 4 << 10, 16 << 10],
        Scale::Full => vec![
            1 << 10,
            2 << 10,
            4 << 10,
            8 << 10,
            16 << 10,
            32 << 10,
            64 << 10,
            128 << 10,
            256 << 10,
        ],
    }
}

/// Captures the standard mix once (shared by the F/E experiments).
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn capture_standard_mix(scale: Scale) -> Result<CapturedRun, RunnerError> {
    capture_mix(&mix(scale), quantum(scale), BUDGET)
}

// ── Machine runs ──────────────────────────────────────────────────────

/// A machine run an experiment reads, named by its inputs. The machine
/// is deterministic, so equal values give equal results, and a run that
/// several experiments read is performed once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// The standard mix at a scheduling quantum, traced.
    Mix(u32),
    /// T2's suite workload `i` alone, traced at the scale's quantum.
    Solo(usize),
    /// The T1/A1 probe workload, untraced (`None`) or traced with a
    /// patch style.
    Probe(Option<PatchStyle>),
    /// The probe under the T-bit trap tracer.
    Tbit,
    /// The probe on the architectural simulator.
    ArchSim,
}

/// What a finished run keeps for the render step.
enum Kept {
    /// The standard-mix capture at the scale's quantum.
    Trace(CapturedRun),
    /// A T2 row: the trace reduced to its statistics and drain count.
    Stats(TraceStats, u32),
    /// Simulated cycles and references (the hardware's count when
    /// untraced, the trace's when traced).
    Probe(u64, u64),
    /// T-bit slowdown and PCs captured.
    Tbit(f64, usize),
    /// Simulator references and whether the program exited.
    ArchSim(u64, bool),
}

impl Run {
    /// Queue position in the job pool: long runs first, so the pool
    /// ends on short ones. The order is static, from Full-scale host
    /// times: T2's `bsearch` solo (suite index 6, 1.5–2.4 s), the mix
    /// at each quantum, shortest first (0.7–1.9 s), the T-bit run
    /// (1.1–1.7 s), the other solos (0.1–0.8 s), then the probes.
    fn queue_rank(self) -> (u8, u32) {
        match self {
            Run::Solo(6) => (0, 0),
            Run::Mix(q) => (1, q),
            Run::Tbit => (2, 0),
            Run::Solo(i) => (3, i as u32),
            Run::Probe(_) | Run::ArchSim => (4, 0),
        }
    }

    fn perform(self, scale: Scale) -> Result<Kept, RunnerError> {
        // Only the standard mix keeps its trace; every other traced run
        // counts its drained samples and never builds one.
        let stats = |workloads: &[Workload], q| {
            capture_mix_stats(workloads, q, BUDGET, PatchStyle::Scratch)
                .map(|(stats, _, drains)| Kept::Stats(stats, drains))
        };
        let probe = [t1_workload(scale)];
        Ok(match self {
            Run::Mix(q) if q == quantum(scale) => Kept::Trace(capture_standard_mix(scale)?),
            Run::Mix(q) => stats(&mix(scale), q)?,
            Run::Solo(i) => stats(&t2_suite(scale)[i..=i], quantum(scale))?,
            Run::Probe(None) => {
                let (cycles, _, counts) = run_untraced(&probe, MEASURE_QUANTUM, BUDGET)?;
                Kept::Probe(cycles, counts.total_refs())
            }
            Run::Probe(Some(style)) => {
                let (stats, cycles, _) = capture_mix_stats(&probe, MEASURE_QUANTUM, BUDGET, style)?;
                Kept::Probe(cycles, stats.total_refs())
            }
            Run::Tbit => {
                let tbit = TbitTracer::default()
                    .measure(&probe[0].source)
                    .map_err(|e| RunnerError::Tracer(e.to_string()))?;
                Kept::Tbit(tbit.slowdown(), tbit.pcs.len())
            }
            Run::ArchSim => {
                // User-level only, runs on the host.
                let img = atum_asm::assemble(&format!(".org 0x200\n{}\n", probe[0].source))
                    .map_err(|e| RunnerError::Boot(e.to_string()))?;
                let mut sim = ArchSim::new();
                sim.load_image(&img);
                sim.set_pc(img.symbol("start").unwrap_or(0x200));
                sim.enable_trace(1);
                let exited = sim.run(500_000_000) == ArchExit::Exited;
                Kept::ArchSim(sim.trace().ref_count() as u64, exited)
            }
        })
    }
}

/// The runs experiment `id` reads, in the order its report reads them:
/// a report fails with the first failing run in this order.
fn needs(id: &str, scale: Scale) -> Vec<Run> {
    let probes = [
        Run::Probe(None),
        Run::Probe(Some(PatchStyle::Scratch)),
        Run::Probe(Some(PatchStyle::Spill)),
    ];
    match id {
        "t1" => [&probes[..], &[Run::Tbit, Run::ArchSim]].concat(),
        "t2" => (0..t2_suite(scale).len())
            .map(Run::Solo)
            .chain(std::iter::once(Run::Mix(quantum(scale))))
            .chain(t2_quanta(scale).iter().map(|&q| Run::Mix(q)))
            .collect(),
        "a1" => probes.to_vec(),
        // Every other experiment walks the standard mix.
        id if ALL_IDS.contains(&id) => vec![Run::Mix(quantum(scale))],
        _ => Vec::new(),
    }
}

/// The distinct runs `ids` read, in queue order.
fn plan(scale: Scale, ids: &[impl AsRef<str>]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for run in ids.iter().flat_map(|id| needs(id.as_ref(), scale)) {
        if !runs.contains(&run) {
            runs.push(run);
        }
    }
    runs.sort_by_key(|r| r.queue_rank());
    runs
}

/// Finished runs, looked up by value. `shared`, when given, stands in
/// for the standard-mix capture.
struct Finished<'a> {
    scale: Scale,
    shared: Option<&'a CapturedRun>,
    runs: Vec<(Run, Result<Kept, RunnerError>)>,
}

impl<'a> Finished<'a> {
    /// Performs the distinct runs `ids` read on up to `jobs` threads.
    fn perform(
        scale: Scale,
        ids: &[impl AsRef<str>],
        jobs: usize,
        shared: Option<&'a CapturedRun>,
    ) -> Finished<'a> {
        let mut runs = plan(scale, ids);
        if shared.is_some() {
            runs.retain(|&r| r != Run::Mix(quantum(scale)));
        }
        let kept = crate::parallel::parallel_map(jobs, runs.clone(), |_, r| r.perform(scale));
        Finished {
            scale,
            shared,
            runs: runs.into_iter().zip(kept).collect(),
        }
    }

    fn get(&self, run: Run) -> Result<&Kept, RunnerError> {
        let (_, kept) = self
            .runs
            .iter()
            .find(|(r, _)| *r == run)
            .expect("every run a report reads is planned");
        kept.as_ref().map_err(Clone::clone)
    }

    /// The standard-mix capture that F1–F6 and E1–E4 walk.
    fn mix(&self) -> Result<&CapturedRun, RunnerError> {
        match self.shared {
            Some(run) => Ok(run),
            None => match self.get(Run::Mix(quantum(self.scale)))? {
                Kept::Trace(run) => Ok(run),
                _ => unreachable!("the standard mix keeps its trace"),
            },
        }
    }

    /// A T2 row's statistics and drain count.
    fn stats(&self, run: Run) -> Result<(TraceStats, u32), RunnerError> {
        if run == Run::Mix(quantum(self.scale)) {
            let mix = self.mix()?;
            return Ok((mix.trace.stats(), mix.drains));
        }
        match self.get(run)? {
            Kept::Stats(stats, drains) => Ok((stats.clone(), *drains)),
            _ => unreachable!("T2's other runs keep their statistics"),
        }
    }

    /// A probe run's cycles and references.
    fn probe(&self, style: Option<PatchStyle>) -> Result<(u64, u64), RunnerError> {
        match self.get(Run::Probe(style))? {
            Kept::Probe(cycles, refs) => Ok((*cycles, *refs)),
            _ => unreachable!("probe runs keep cycles and references"),
        }
    }
}

// ── T1: technique comparison ──────────────────────────────────────────

/// T1 — the trace-technique comparison table: slowdown and completeness
/// of each capture method on the same workload.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn t1_technique_comparison(scale: Scale) -> Result<Report, RunnerError> {
    run_by_id("t1", scale, None)
}

fn render_t1(done: &Finished) -> Result<Report, RunnerError> {
    let (base_cycles, base_refs) = done.probe(None)?;
    let (scratch_cycles, scratch_refs) = done.probe(Some(PatchStyle::Scratch))?;
    let (spill_cycles, spill_refs) = done.probe(Some(PatchStyle::Spill))?;
    let Kept::Tbit(slowdown, pcs) = *done.get(Run::Tbit)? else {
        unreachable!("the T-bit run keeps its slowdown");
    };
    let Kept::ArchSim(sim_refs, exited) = *done.get(Run::ArchSim)? else {
        unreachable!("the simulator run keeps its references");
    };

    let mut t = Table::new([
        "technique",
        "slowdown",
        "refs captured",
        "OS refs",
        "all processes",
        "data addrs",
    ]);
    t.row([
        "hardware monitor (ref.)".to_string(),
        "1.0x".to_string(),
        format!("{base_refs} (window-limited)"),
        "phys only".to_string(),
        "yes".to_string(),
        "yes".to_string(),
    ]);
    t.row([
        "ATUM (scratch-reg patch)".to_string(),
        format!("{:.1}x", scratch_cycles as f64 / base_cycles as f64),
        format!("{scratch_refs}"),
        "yes".to_string(),
        "yes".to_string(),
        "yes".to_string(),
    ]);
    t.row([
        "ATUM (state-spill patch, 8200-like)".to_string(),
        format!("{:.1}x", spill_cycles as f64 / base_cycles as f64),
        format!("{spill_refs}"),
        "yes".to_string(),
        "yes".to_string(),
        "yes".to_string(),
    ]);
    t.row([
        "T-bit trap tracer (PCs only)".to_string(),
        format!("{slowdown:.0}x"),
        format!("{pcs} PCs"),
        "no".to_string(),
        "no".to_string(),
        "no".to_string(),
    ]);
    t.row([
        "architectural simulator".to_string(),
        "~10^3-10^4x (runs off-machine)".to_string(),
        format!("{sim_refs} (user only)"),
        "no".to_string(),
        "no".to_string(),
        "yes".to_string(),
    ]);

    let mut r = Report::new("T1", "trace-capture technique comparison");
    r.table("slowdown and completeness by technique", t);
    r.note(format!(
        "untraced reference: {base_cycles} cycles, {base_refs} refs; simulator exit: {exited:?}"
    ));
    r.note(
        "shape vs paper: microcode tracing is 1-2 orders of magnitude cheaper than \
         trap-driven tracing and captures everything; the scratch-register patch is \
         cheaper than the 8200's because SVX reserves spare micro-registers for patches",
    );
    Ok(r)
}

// ── T2: trace characteristics ─────────────────────────────────────────

/// T2 — the trace-characteristics table (the paper's per-benchmark trace
/// statistics): reference mix, OS fraction, switches, pages.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn t2_trace_characteristics(scale: Scale) -> Result<Report, RunnerError> {
    run_by_id("t2", scale, None)
}

fn render_t2(done: &Finished) -> Result<Report, RunnerError> {
    let scale = done.scale;
    let mut t = Table::new([
        "workload", "refs", "%I", "%R", "%W", "%OS", "ctx", "pages", "drains",
    ]);
    let rows = t2_suite(scale)
        .into_iter()
        .enumerate()
        .map(|(i, w)| (w.name, Run::Solo(i)))
        // The multiprogrammed mix as the final row.
        .chain(std::iter::once((
            format!("mix({})", mix(scale).len()),
            Run::Mix(quantum(scale)),
        )));
    for (name, run) in rows {
        let (s, drains) = done.stats(run)?;
        t.row([
            name,
            s.total_refs().to_string(),
            pct(s.ifetch_fraction()),
            pct(s.reads as f64 / s.total_refs().max(1) as f64),
            pct(s.write_fraction()),
            pct(s.os_fraction()),
            s.ctx_switches.to_string(),
            s.distinct_pages.to_string(),
            drains.to_string(),
        ]);
    }

    let mut r = Report::new("T2", "trace characteristics per workload");
    r.table("complete-system traces under MOSS", t);

    // OS fraction as a function of scheduling intensity: the quantum is
    // the knob that turns a batch machine into a timesharing one.
    let mut qt = Table::new(["quantum (cycles)", "%OS", "ctx switches"]);
    for &q in t2_quanta(scale) {
        let (s, _) = done.stats(Run::Mix(q))?;
        qt.row([
            q.to_string(),
            pct(s.os_fraction()),
            s.ctx_switches.to_string(),
        ]);
    }
    r.table("standard mix: OS fraction vs scheduling quantum", qt);
    r.note(
        "shape vs paper: OS references are a solid fraction of every trace and \
         grow sharply with multiprogramming intensity (shorter quanta). The \
         paper's VMS traces sat in the tens of percent; MOSS is a micro-kernel, \
         so its baseline is lower, but the knob behaves identically",
    );
    Ok(r)
}

// ── F1: complete vs user-only miss rates ──────────────────────────────

/// F1 — cache miss rate vs size: complete-system trace vs the user-only
/// view of the same execution.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn f1_os_vs_user(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let base = CacheConfig::builder()
        .block(16)
        .assoc(1)
        .switch_policy(SwitchPolicy::Ignore)
        .build()
        .expect("config");
    let sizes = cache_sizes(scale);
    let cfgs: Vec<CacheConfig> = sizes.iter().map(|&s| base.with_size(s)).collect();
    // One pass per trace evaluates the whole size sweep; the user-only
    // pass streams through a filtered view instead of copying the trace.
    let full =
        simulate_many_stream(&mut run.trace.source(), &cfgs).expect("in-memory source cannot fail");
    let uo = simulate_many_stream(&mut run.trace.user_source(), &cfgs)
        .expect("in-memory source cannot fail");

    let mut t = Table::new(["size", "complete miss%", "user-only miss%", "gap (pp)"]);
    for (i, &size) in sizes.iter().enumerate() {
        t.row([
            format!("{}K", size / 1024),
            pct(full[i].miss_rate()),
            pct(uo[i].miss_rate()),
            format!("{:+.2}", 100.0 * (full[i].miss_rate() - uo[i].miss_rate())),
        ]);
    }
    let mut r = Report::new("F1", "miss rate vs cache size: complete vs user-only trace");
    r.table("direct-mapped, 16 B blocks", t);
    r.note(
        "shape vs paper: including OS references raises the miss rate at every \
         size, and the gap persists (or grows) as caches get larger — user-only \
         traces understate real miss rates",
    );
    Ok(r)
}

// ── F2: context-switch policy ─────────────────────────────────────────

/// F2 — miss rate vs size under multiprogramming: purge-on-switch vs
/// PID-tagged vs naive (ignore switches).
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn f2_switch_policy(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let base = CacheConfig::builder()
        .block(16)
        .assoc(2)
        .build()
        .expect("config");
    let sizes = cache_sizes(scale);
    let policies = [
        SwitchPolicy::Flush,
        SwitchPolicy::PidTag,
        SwitchPolicy::Ignore,
    ];
    let mut cfgs = Vec::new();
    for &size in &sizes {
        for sw in policies {
            cfgs.push(base.with_size(size).with_switch(sw));
        }
    }
    // One traversal: the engine groups the sweep by switch policy into
    // three shared stacks.
    let stats =
        simulate_many_stream(&mut run.trace.source(), &cfgs).expect("in-memory source cannot fail");

    let mut t = Table::new(["size", "flush miss%", "pid-tag miss%", "naive miss%"]);
    for (i, &size) in sizes.iter().enumerate() {
        t.row([
            format!("{}K", size / 1024),
            pct(stats[3 * i].miss_rate()),
            pct(stats[3 * i + 1].miss_rate()),
            pct(stats[3 * i + 2].miss_rate()),
        ]);
    }
    let mut r = Report::new(
        "F2",
        "multiprogramming: purge-on-switch vs address-space tags",
    );
    r.table("2-way, 16 B blocks, complete trace", t);
    r.note(
        "shape vs paper: purging on every switch costs more as the cache grows \
         (big caches never warm up); tags recover most of it; the naive model \
         (ignoring switches) is optimistic because it aliases address spaces",
    );
    Ok(r)
}

// ── F3: block size ────────────────────────────────────────────────────

/// F3 — miss rate vs block size at two cache sizes.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn f3_block_size(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let blocks: Vec<u32> = match scale {
        Scale::Quick => vec![8, 32, 128],
        Scale::Full => vec![4, 8, 16, 32, 64, 128],
    };
    let mut t = Table::new(["block", "8K miss%", "64K miss%"]);
    let base8 = CacheConfig::builder()
        .size(8 << 10)
        .assoc(2)
        .switch_policy(SwitchPolicy::PidTag)
        .build()
        .expect("config");
    // One pass per cache size; every block size is its own group, so
    // each replays directly.
    let [r8, r64] = [base8, base8.with_size(64 << 10)].map(|base| {
        let cfgs: Vec<CacheConfig> = blocks.iter().map(|&b| base.with_block(b)).collect();
        simulate_many_stream(&mut run.trace.source(), &cfgs).expect("in-memory source cannot fail")
    });
    for (i, &b) in blocks.iter().enumerate() {
        t.row([
            format!("{b}B"),
            pct(r8[i].miss_rate()),
            pct(r64[i].miss_rate()),
        ]);
    }
    let mut r = Report::new("F3", "miss rate vs block size");
    r.table("2-way, pid-tagged, complete trace", t);
    r.note(
        "shape vs paper: larger blocks exploit the I-stream's spatial locality \
         until pollution flattens (or reverses) the curve at small cache sizes",
    );
    Ok(r)
}

// ── F4: associativity ─────────────────────────────────────────────────

/// F4 — miss rate vs associativity at three cache sizes.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn f4_associativity(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let ways: Vec<u32> = match scale {
        Scale::Quick => vec![1, 2, 4],
        Scale::Full => vec![1, 2, 4, 8],
    };
    let sizes = [4u32 << 10, 16 << 10, 64 << 10];
    let mut t = Table::new(["ways", "4K miss%", "16K miss%", "64K miss%"]);
    // The whole size × ways grid shares one stack-engine traversal.
    let mut cfgs = Vec::new();
    for &s in &sizes {
        for &w in &ways {
            cfgs.push(
                CacheConfig::builder()
                    .size(s)
                    .block(16)
                    .assoc(w)
                    .switch_policy(SwitchPolicy::PidTag)
                    .build()
                    .expect("config"),
            );
        }
    }
    let stats =
        simulate_many_stream(&mut run.trace.source(), &cfgs).expect("in-memory source cannot fail");
    for (i, &w) in ways.iter().enumerate() {
        t.row([
            format!("{w}"),
            pct(stats[i].miss_rate()),
            pct(stats[ways.len() + i].miss_rate()),
            pct(stats[2 * ways.len() + i].miss_rate()),
        ]);
    }
    let mut r = Report::new("F4", "miss rate vs associativity");
    r.table("16 B blocks, pid-tagged, complete trace", t);
    r.note(
        "shape vs paper: at sizes that hold the working set, 1→2 ways buys \
         the most and returns diminish after; at sizes under capacity \
         pressure extra ways can even hurt, because the multiprogrammed \
         processes share identical user VAs and tagged lines compete for \
         the smaller set count",
    );
    Ok(r)
}

// ── F5: TLB study ─────────────────────────────────────────────────────

/// F5 — TLB miss rate: entries × (flush vs tagged) × (complete vs
/// user-only trace).
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn f5_tlb(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let entries: Vec<u32> = match scale {
        Scale::Quick => vec![16, 64],
        Scale::Full => vec![8, 16, 32, 64, 128, 256],
    };
    let mut t = Table::new([
        "entries",
        "flush miss%",
        "tagged miss%",
        "user-only tagged miss%",
    ]);
    let tlb = |e, switch| TlbConfig::new(e, 2, switch).cache_config();
    // Each TLB is a cache of page-sized blocks, so one stack-engine
    // traversal of the complete trace answers both switch policies, and
    // one of the user-only view (streamed straight off the complete
    // trace, no copy) its tagged column.
    let complete: Vec<CacheConfig> = entries
        .iter()
        .flat_map(|&e| [tlb(e, SwitchPolicy::Flush), tlb(e, SwitchPolicy::PidTag)])
        .collect();
    let user: Vec<CacheConfig> = entries
        .iter()
        .map(|&e| tlb(e, SwitchPolicy::PidTag))
        .collect();
    let complete = simulate_many_stream(&mut run.trace.source(), &complete)
        .expect("in-memory source cannot fail");
    let user = simulate_many_stream(&mut run.trace.user_source(), &user)
        .expect("in-memory source cannot fail");
    for (i, &e) in entries.iter().enumerate() {
        t.row([
            e.to_string(),
            pct(complete[2 * i].miss_rate()),
            pct(complete[2 * i + 1].miss_rate()),
            pct(user[i].miss_rate()),
        ]);
    }
    let mut r = Report::new(
        "F5",
        "TLB miss rate: size × switch policy × trace completeness",
    );
    r.table("2-way TLB, 512 B pages", t);
    r.note(
        "shape vs paper: flushing the TLB on every switch dominates its miss \
         rate; OS references add misses the user-only trace never shows",
    );
    Ok(r)
}

// ── F6: cache organisation — split I/D and write policy ──────────────

/// F6 — organisation study: unified vs split I/D at equal total budget,
/// and write-back vs write-through memory traffic.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn f6_organisation(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let budgets: Vec<u32> = match scale {
        Scale::Quick => vec![4 << 10, 16 << 10],
        Scale::Full => vec![2 << 10, 8 << 10, 32 << 10, 128 << 10],
    };
    let mut t = Table::new([
        "total budget",
        "unified miss%",
        "split I miss%",
        "split D miss%",
        "split overall%",
    ]);
    let unified_cfgs: Vec<CacheConfig> = budgets
        .iter()
        .map(|&b| {
            CacheConfig::builder()
                .size(b)
                .block(16)
                .assoc(2)
                .switch_policy(SwitchPolicy::PidTag)
                .build()
                .expect("config")
        })
        .collect();
    let unified_stats = simulate_many_stream(&mut run.trace.source(), &unified_cfgs)
        .expect("in-memory source cannot fail");
    for (i, &b) in budgets.iter().enumerate() {
        let half = unified_cfgs[i].with_size(b / 2);
        let sp = simulate_split(&run.trace, &half, &half);
        t.row([
            format!("{}K", b / 1024),
            pct(unified_stats[i].miss_rate()),
            pct(sp.icache.miss_rate()),
            pct(sp.dcache.miss_rate()),
            pct(sp.miss_rate()),
        ]);
    }

    // Write-policy traffic at one size.
    let size = match scale {
        Scale::Quick => 8 << 10,
        Scale::Full => 16 << 10,
    };
    let wb = CacheConfig::builder()
        .size(size)
        .block(16)
        .assoc(2)
        .switch_policy(SwitchPolicy::PidTag)
        .write_policy(WritePolicy::WriteBackAllocate)
        .build()
        .expect("config");
    let wt = CacheConfig::builder()
        .size(size)
        .block(16)
        .assoc(2)
        .switch_policy(SwitchPolicy::PidTag)
        .write_policy(WritePolicy::WriteThroughNoAllocate)
        .build()
        .expect("config");
    // Write-through takes the grouped-replay fallback; write-back rides
    // the stack engine — still one trace traversal for both.
    let wstats = simulate_many_stream(&mut run.trace.source(), &[wb, wt])
        .expect("in-memory source cannot fail");
    let (swb, swt) = (wstats[0], wstats[1]);
    let mut wtab = Table::new(["policy", "miss%", "memory write traffic (events)"]);
    wtab.row([
        "write-back + allocate".to_string(),
        pct(swb.miss_rate()),
        swb.writebacks.to_string(),
    ]);
    wtab.row([
        "write-through, no allocate".to_string(),
        pct(swt.miss_rate()),
        swt.write_throughs.to_string(),
    ]);

    let mut r = Report::new("F6", "cache organisation: split I/D and write policy");
    r.table(
        "unified vs split at equal total budget (2-way, pid-tagged)",
        t,
    );
    r.table(&format!("write policies at {}K", size / 1024), wtab);
    r.note(
        "shape vs paper-era results: splitting helps once each half holds its stream (the I-stream dominates CISC traces); write-through turns every store into memory traffic while write-back pays only on eviction",
    );
    Ok(r)
}

// ── E1: cold-start / sampling bias ────────────────────────────────────

/// Simulates the trace in discontiguous samples: every other window of
/// `sample` references is kept, and the cache starts cold per window.
fn sampled_miss_rate(trace: &Trace, cfg: &CacheConfig, sample: usize) -> f64 {
    let mut refs = trace.refs().peekable();
    let mut accesses = 0u64;
    let mut misses = 0u64;
    while refs.peek().is_some() {
        let mut cache = Cache::new(*cfg);
        for r in refs.by_ref().take(sample) {
            let kind = match r.kind() {
                RecordKind::IFetch => atum_cache::AccessKind::IFetch,
                RecordKind::Write => atum_cache::AccessKind::Write,
                _ => atum_cache::AccessKind::Read,
            };
            cache.access(r.addr, kind, r.pid());
        }
        accesses += cache.stats().accesses;
        misses += cache.stats().misses;
        refs.by_ref().take(sample).for_each(drop); // skip a window: the samples are discontiguous
    }
    if accesses == 0 {
        0.0
    } else {
        misses as f64 / accesses as f64
    }
}

/// E1 — cold-start bias of sampled (stitched) traces vs the continuous
/// trace, as a function of sample length.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn e1_cold_start(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let samples: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 10_000],
        Scale::Full => vec![2_000, 8_000, 32_000, 128_000],
    };
    let cfg = CacheConfig::builder()
        .size(16 << 10)
        .block(16)
        .assoc(2)
        .switch_policy(SwitchPolicy::PidTag)
        .build()
        .expect("config");
    let continuous = simulate_stream(&mut run.trace.source(), &cfg)
        .expect("in-memory source cannot fail")
        .miss_rate();

    let mut t = Table::new([
        "sample refs",
        "sampled miss%",
        "continuous miss%",
        "bias (pp)",
    ]);
    for &s in &samples {
        let m = sampled_miss_rate(&run.trace, &cfg, s);
        t.row([
            s.to_string(),
            pct(m),
            pct(continuous),
            format!("{:+.2}", 100.0 * (m - continuous)),
        ]);
    }
    let mut r = Report::new("E1", "cold-start bias of trace samples");
    r.table(
        "16K 2-way cache; every other window kept, cold start per window",
        t,
    );
    r.note(
        "shape vs paper: short samples overstate miss rates (cold caches); the \
         bias shrinks as samples grow — ATUM's big hidden buffer is what made \
         long continuous samples possible",
    );
    Ok(r)
}

// ── E2: buffer capacity & compaction ──────────────────────────────────

/// E2 — records per MiB of hidden buffer, raw vs host-compacted.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn e2_compaction(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let _ = scale;
    let raw_bytes = run.trace.len() * 8;
    let encoded = atum_core::encode_trace(&run.trace);
    let mut t = Table::new(["form", "bytes", "bytes/record", "records per MiB"]);
    t.row([
        "in-buffer (microcode)".to_string(),
        raw_bytes.to_string(),
        "8.00".to_string(),
        format!("{}", (1 << 20) / 8),
    ]);
    let bpr = encoded.len() as f64 / run.trace.len().max(1) as f64;
    t.row([
        "archived (host-compacted)".to_string(),
        encoded.len().to_string(),
        format!("{bpr:.2}"),
        format!("{}", ((1 << 20) as f64 / bpr) as u64),
    ]);
    let mut r = Report::new("E2", "trace buffer capacity and compaction");
    r.table(
        &format!("{} records captured from the standard mix", run.trace.len()),
        t,
    );
    r.note(format!(
        "compaction {:.1}x: the microcode writes fat records fast; the host \
         compacts at extraction, exactly the paper's division of labour",
        raw_bytes as f64 / encoded.len().max(1) as f64
    ));
    Ok(r)
}

// ── E3: OS breakdown ──────────────────────────────────────────────────

/// E3 — what the OS references are doing: attribution of kernel-mode
/// references to scheduler/timer, system calls, faults and boot.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn e3_os_breakdown(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let _ = scale;
    #[derive(Clone, Copy, PartialEq)]
    enum Cat {
        Boot,
        Timer,
        Syscall,
        Fault,
        CtxSwitch,
    }
    let mut counts = [0u64; 5];
    let mut cat = Cat::Boot;
    for r in run.trace.iter() {
        match r.kind() {
            RecordKind::Interrupt => {
                cat = match r.addr {
                    0xC0 => Cat::Timer,
                    0x40 => Cat::Syscall,
                    _ => Cat::Fault,
                };
            }
            RecordKind::CtxSwitch => cat = Cat::CtxSwitch,
            k if k.is_ref() && r.is_kernel() => {
                counts[cat as usize] += 1;
            }
            _ => {}
        }
    }
    let total: u64 = counts.iter().sum();
    let mut t = Table::new(["component", "kernel refs", "share"]);
    for (name, idx) in [
        ("boot/init", Cat::Boot),
        ("timer & scheduler", Cat::Timer),
        ("system calls", Cat::Syscall),
        ("faults", Cat::Fault),
        ("context-switch path", Cat::CtxSwitch),
    ] {
        let c = counts[idx as usize];
        t.row([
            name.to_string(),
            c.to_string(),
            pct(c as f64 / total.max(1) as f64),
        ]);
    }
    let mut r = Report::new("E3", "operating-system reference breakdown");
    r.table(&format!("{total} kernel references in the standard mix"), t);
    r.note("attribution: each kernel reference charged to the most recent marker");
    Ok(r)
}

// ── E4: working sets ──────────────────────────────────────────────────

/// E4 — working-set curves: complete-system vs user-only demand.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn e4_working_set(scale: Scale, run: &CapturedRun) -> Result<Report, RunnerError> {
    let windows: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 10_000],
        Scale::Full => vec![1_000, 4_000, 16_000, 64_000],
    };
    let mut t = Table::new([
        "window (refs)",
        "complete mean pages",
        "complete max",
        "user-only mean pages",
    ]);
    // Every window size is measured in a single pass per trace view.
    let full = crate::working_set::working_set_curve_stream(&mut run.trace.source(), &windows)
        .expect("in-memory source cannot fail");
    let user = crate::working_set::working_set_curve_stream(&mut run.trace.user_source(), &windows)
        .expect("in-memory source cannot fail");
    for (i, &w) in windows.iter().enumerate() {
        t.row([
            w.to_string(),
            format!("{:.1}", full[i].mean_pages),
            full[i].max_pages.to_string(),
            format!("{:.1}", user[i].mean_pages),
        ]);
    }
    let mut r = Report::new("E4", "working sets: complete vs user-only demand");
    r.table("distinct (pid, page) pairs per window", t);
    r.note(
        "shape vs paper: the complete trace demands more pages at every window — kernel code/data plus the compounding of per-process footprints across switches; memory-system studies sized from user-only traces under-provision",
    );
    Ok(r)
}

// ── A1: patch cost ablation ───────────────────────────────────────────

/// A1 — patch cost decomposition: footprint and per-reference overhead
/// of the two patch styles.
///
/// # Errors
///
/// Any [`RunnerError`].
pub fn a1_patch_cost(scale: Scale) -> Result<Report, RunnerError> {
    run_by_id("a1", scale, None)
}

fn render_a1(done: &Finished) -> Result<Report, RunnerError> {
    let (base_cycles, base_refs) = done.probe(None)?;
    let refs = base_refs.max(1);
    let base_cpr = base_cycles as f64 / refs as f64;

    let mut t = Table::new(["style", "patch words", "cycles/ref overhead", "slowdown"]);
    t.row([
        "(untraced)".to_string(),
        "0".to_string(),
        "0.0".to_string(),
        "1.0x".to_string(),
    ]);
    for (name, style) in [
        ("scratch registers", PatchStyle::Scratch),
        ("state spill (8200-like)", PatchStyle::Spill),
    ] {
        let (cycles, _) = done.probe(Some(style))?;
        let cpr = cycles as f64 / refs as f64;
        // Patch footprint: re-derive on a scratch store.
        let mut cs = atum_ucode::stock::build();
        let ps = atum_core::PatchSet::install_with_style(&mut cs, style)
            .map_err(|e| RunnerError::Tracer(e.to_string()))?;
        t.row([
            name.to_string(),
            ps.words().to_string(),
            format!("{:.1}", cpr - base_cpr),
            format!("{:.1}x", cycles as f64 / base_cycles as f64),
        ]);
    }
    let mut r = Report::new("A1", "ablation: what the patch costs and why");
    r.table(&format!("baseline {base_cpr:.1} cycles/ref"), t);
    r.note(
        "the 8200's reported ~20x sits above our spill variant because its \
         trace stores went to slow main memory; the ordering and the reason \
         (register spills + microtrap sequencing dominate) reproduce",
    );
    Ok(r)
}

/// Every experiment id, in report order.
pub const ALL_IDS: [&str; 13] = [
    "t1", "t2", "f1", "f2", "f3", "f4", "f5", "f6", "e1", "e2", "e3", "e4", "a1",
];

fn render(id: &str, done: &Finished) -> Result<Report, RunnerError> {
    let scale = done.scale;
    match id {
        "t1" => render_t1(done),
        "t2" => render_t2(done),
        "a1" => render_a1(done),
        "f1" => f1_os_vs_user(scale, done.mix()?),
        "f2" => f2_switch_policy(scale, done.mix()?),
        "f3" => f3_block_size(scale, done.mix()?),
        "f4" => f4_associativity(scale, done.mix()?),
        "f5" => f5_tlb(scale, done.mix()?),
        "f6" => f6_organisation(scale, done.mix()?),
        "e1" => e1_cold_start(scale, done.mix()?),
        "e2" => e2_compaction(scale, done.mix()?),
        "e3" => e3_os_breakdown(scale, done.mix()?),
        "e4" => e4_working_set(scale, done.mix()?),
        other => Err(RunnerError::UnknownExperiment(other.to_string())),
    }
}

/// Runs one experiment by id, performing the machine runs it reads on
/// [`crate::parallel::jobs`] threads. `shared`, when given, is used as
/// the standard-mix capture instead of capturing it again.
///
/// # Errors
///
/// The first failing run's [`RunnerError`], in the order the report
/// reads them; [`RunnerError::UnknownExperiment`] for an id not in
/// [`ALL_IDS`].
pub fn run_by_id(
    id: &str,
    scale: Scale,
    shared: Option<&CapturedRun>,
) -> Result<Report, RunnerError> {
    let done = Finished::perform(scale, &[id], crate::parallel::jobs(), shared);
    render(id, &done)
}

/// Runs the given experiments on up to `jobs` threads in two steps: the
/// distinct machine runs they read, each performed once, then the
/// reports. Results come back in `ids` order; a failing run fails
/// exactly the reports that read it. Output is identical at any thread
/// count (see [`crate::parallel`]).
pub fn run_selected(
    scale: Scale,
    ids: &[String],
    jobs: usize,
) -> Vec<(String, Result<Report, RunnerError>)> {
    let lower: Vec<String> = ids.iter().map(|id| id.to_lowercase()).collect();
    let done = Finished::perform(scale, &lower, jobs, None);
    crate::parallel::parallel_map(jobs, ids.to_vec(), |i, id| {
        let report = render(&lower[i], &done);
        (id, report)
    })
}

/// Runs every experiment at a scale on `jobs` threads.
///
/// # Errors
///
/// The first [`RunnerError`] in report order.
pub fn run_all(scale: Scale, jobs: usize) -> Result<Vec<Report>, RunnerError> {
    let ids: Vec<String> = ALL_IDS.iter().map(|s| s.to_string()).collect();
    run_selected(scale, &ids, jobs)
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mix_captures() {
        let run = capture_standard_mix(Scale::Quick).unwrap();
        assert!(run.trace.ref_count() > 10_000);
        let s = run.trace.stats();
        assert!(s.os_fraction() > 0.02);
        assert!(s.ctx_switches >= 3);
    }

    #[test]
    fn f1_gap_is_positive_somewhere() {
        let run = capture_standard_mix(Scale::Quick).unwrap();
        let r = f1_os_vs_user(Scale::Quick, &run).unwrap();
        let rows = r.tables[0].1.rows();
        assert!(!rows.is_empty());
        // At least one size where the complete trace misses more.
        let any_gap = rows.iter().any(|row| row[3].starts_with('+'));
        assert!(
            any_gap,
            "complete trace should miss more somewhere: {rows:?}"
        );
    }

    #[test]
    fn plan_performs_each_distinct_run_once() {
        for (scale, distinct) in [(Scale::Full, 18), (Scale::Quick, 11)] {
            let runs = plan(scale, &ALL_IDS);
            assert_eq!(runs.len(), distinct, "{scale:?}: {runs:?}");
            for (i, r) in runs.iter().enumerate() {
                assert!(!runs[i + 1..].contains(r), "{scale:?}: {r:?} twice");
            }
        }
    }

    #[test]
    fn unknown_ids_fail_with_their_own_error() {
        match run_by_id("t9", Scale::Quick, None) {
            Err(RunnerError::UnknownExperiment(id)) => assert_eq!(id, "t9"),
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
        let out = run_selected(Scale::Quick, &["t9".to_string()], 1);
        assert!(matches!(&out[0].1, Err(RunnerError::UnknownExperiment(id)) if id == "t9"));
    }

    #[test]
    fn e2_reports_compaction() {
        let run = capture_standard_mix(Scale::Quick).unwrap();
        let r = e2_compaction(Scale::Quick, &run).unwrap();
        assert_eq!(r.tables[0].1.rows().len(), 2);
    }
}
