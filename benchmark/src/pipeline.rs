//! The benchmark's inputs, its shared set-up, and the four workloads
//! with the checks that make every iteration self-verifying.
//!
//! Every workload is a closed loop with one client: iterations run back
//! to back, each one a batch job over the same inputs, so wall time per
//! iteration is the inverse of work completed per second at the stated
//! input size.

use crate::api::{self, CacheConfig, CacheStats, Captured, RunExit, RunFacts, SwitchPolicy};
use crate::api::{BootImage, TlbConfig, WorkingSet, Workload, WritePolicy};
use crate::spans::Rec;
use std::path::{Path, PathBuf};

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["regen", "capture", "untraced", "sweep"];

/// Threads `regen` runs on: the host's core count, fixed so every host
/// measures the same configuration.
const REGEN_JOBS: usize = 2;

/// Generated inputs: the multiprogramming mix and its scheduling
/// quantum.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The user programs, one process each.
    pub mix: Vec<Workload>,
    /// Scheduling quantum in microcycles.
    pub quantum: u32,
}

/// splitmix64: a fixed, dependency-free generator, so a seed names the
/// same inputs on every host and toolchain.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs for `seed`. Seed 0 is `mix_std()` at quantum 60 000,
/// exactly what `experiments full` captures. Any other seed draws each
/// generator's parameters and the quantum from small sets around those
/// values, and rotates the process order. The sets keep each program's
/// simulated work within about 3% of seed 0's (list length changes the
/// footprint, not the number of steps; text length and heap pages trade
/// against passes at equal cycle cost), so seeds move locality and
/// interleaving rather than run length, and run-to-run spreads stay
/// comparable across seeds.
pub fn inputs(seed: u64) -> Inputs {
    if seed == 0 {
        return Inputs {
            mix: api::mix_std(),
            quantum: 60_000,
        };
    }
    let mut state = seed;
    let mut pick = |n: usize| (splitmix(&mut state) % n as u64) as usize;
    let nodes = [768, 1_024, 1_280][pick(3)];
    let (text, passes) = [(6_912, 4), (8_192, 3), (10_080, 2)][pick(3)];
    let (pages, walks) = [(20, 1_800), (24, 1_500), (30, 1_200)][pick(3)];
    let quantum = [54_000, 60_000, 66_000][pick(3)];
    let mut mix = vec![
        api::matrix(16),
        api::list_chase(nodes, 40_000),
        api::lexer(text, passes),
        api::heap_walk(pages, walks),
    ];
    mix.rotate_left(pick(4));
    Inputs { mix, quantum }
}

/// `regen` regenerates the fixed `experiments full` evaluation, so it
/// ignores the seed.
pub fn effective_seed(workload: &str, seed: u64) -> u64 {
    if workload == "regen" {
        0
    } else {
        seed
    }
}

/// The cache and working-set configurations `sweep` evaluates: the F1–F6
/// and E4 families of `experiments full`, plus a 32-way config that
/// drives the stack engine's Fenwick path.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    f1_size: Vec<CacheConfig>,
    f2_policy: Vec<CacheConfig>,
    f3_block: Vec<CacheConfig>,
    f4_assoc: Vec<CacheConfig>,
    f5_tlb: Vec<TlbConfig>,
    f6_write: Vec<CacheConfig>,
    e4_ws: Vec<usize>,
}

/// One `sweep` iteration's results, family by family.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    f1_size: Vec<CacheStats>,
    f2_policy: Vec<CacheStats>,
    f3_block: Vec<CacheStats>,
    f4_assoc: Vec<CacheStats>,
    f5_tlb: Vec<CacheStats>,
    f6_write: Vec<CacheStats>,
    e4_ws: Vec<WorkingSet>,
}

fn cfg(size: u32, block: u32, ways: u32, sw: SwitchPolicy, wp: WritePolicy) -> CacheConfig {
    CacheConfig::builder()
        .size(size)
        .block(block)
        .assoc(ways)
        .switch_policy(sw)
        .write_policy(wp)
        .build()
        .expect("sweep configs are valid by construction")
}

impl SweepPlan {
    fn new() -> SweepPlan {
        use SwitchPolicy::{Flush, Ignore, PidTag};
        let wb = WritePolicy::WriteBackAllocate;
        let sizes: Vec<u32> = (0..9).map(|i| 1024 << i).collect();
        let mut f4_assoc: Vec<CacheConfig> = [4 << 10, 16 << 10, 64 << 10]
            .iter()
            .flat_map(|&s| [1, 2, 4, 8].map(|w| cfg(s, 16, w, PidTag, wb)))
            .collect();
        f4_assoc.push(cfg(64 << 10, 16, 32, PidTag, wb));
        SweepPlan {
            f1_size: sizes.iter().map(|&s| cfg(s, 16, 1, Ignore, wb)).collect(),
            f2_policy: sizes
                .iter()
                .flat_map(|&s| [Flush, PidTag, Ignore].map(|sw| cfg(s, 16, 2, sw, wb)))
                .collect(),
            f3_block: [8 << 10, 64 << 10]
                .iter()
                .flat_map(|&s| [4, 8, 16, 32, 64, 128].map(|b| cfg(s, b, 2, PidTag, wb)))
                .collect(),
            f4_assoc,
            f5_tlb: [8, 16, 32, 64, 128, 256]
                .iter()
                .flat_map(|&e| [Flush, PidTag].map(|sw| TlbConfig::new(e, 2, sw)))
                .collect(),
            f6_write: [wb, WritePolicy::WriteThroughNoAllocate]
                .map(|wp| cfg(16 << 10, 16, 2, PidTag, wp))
                .to_vec(),
            e4_ws: vec![1_000, 4_000, 16_000, 64_000],
        }
    }

    /// The configs checked against the replay oracle: 8 KiB direct
    /// mapped (F1), 16 KiB flush-on-switch (F2), 64 KiB 32-way (F4).
    fn spot_configs(&self) -> [CacheConfig; 3] {
        [self.f1_size[3], self.f2_policy[12], self.f4_assoc[12]]
    }

    /// The working-set window checked against the single-window oracle.
    fn spot_window(&self) -> usize {
        self.e4_ws[2]
    }
}

impl SweepResult {
    /// Results at [`SweepPlan::spot_configs`] and
    /// [`SweepPlan::spot_window`].
    fn spots(&self) -> ([CacheStats; 3], WorkingSet) {
        (
            [self.f1_size[3], self.f2_policy[12], self.f4_assoc[12]],
            self.e4_ws[2],
        )
    }
}

/// Everything the workloads share, built before timing starts: the
/// inputs and boot image, an untraced reference run, the mix captured
/// to disk, and oracle answers for the sweep. Every workload runs the
/// same set-up, so every layer does some work in every traced run.
#[derive(Debug)]
pub struct Setup {
    inputs: Inputs,
    image: BootImage,
    /// The untraced reference run.
    pub untraced: RunFacts,
    /// The traced capture of the same mix.
    pub traced: Captured,
    file: PathBuf,
    file_bytes: Vec<u8>,
    plan: SweepPlan,
    spot: [CacheStats; 3],
    ws_spot: WorkingSet,
}

/// The checksums printed on the console must be the mix's, in any
/// process order.
fn check_run(what: &str, f: &RunFacts, console: &str, mix: &[Workload]) -> Result<(), String> {
    if f.exit != RunExit::Halted {
        return Err(format!("{what}: machine stopped with {}", f.exit));
    }
    let mut got: Vec<char> = console.chars().collect();
    let mut want: Vec<char> = mix.iter().flat_map(|w| w.expected_output.chars()).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "{what}: console {console:?} does not hold the checksums {:?}",
            mix.iter().map(|w| &w.expected_output).collect::<Vec<_>>()
        ));
    }
    Ok(())
}

fn untraced_run(rec: &Rec, image: &BootImage, mix: &[Workload]) -> Result<RunFacts, String> {
    let mut m = api::boot_load(rec, image)?;
    let exit = api::run(rec, &mut m, api::BUDGET);
    let facts = api::facts(&m, exit);
    check_run("untraced run", &facts, &api::console(&mut m), mix)?;
    Ok(facts)
}

fn capture(
    rec: &Rec,
    image: &BootImage,
    mix: &[Workload],
    path: &Path,
) -> Result<Captured, String> {
    let mut m = api::boot_load(rec, image)?;
    let tracer = api::attach(rec, &mut m)?;
    let c = api::capture_to_file(rec, &tracer, &mut m, path)?;
    check_run("capture", &c.run, &api::console(&mut m), mix)?;
    Ok(c)
}

/// Builds the shared set-up for `seed`, writing the captured trace into
/// `dir`.
pub fn setup(seed: u64, rec: &Rec, dir: &Path) -> Result<Setup, String> {
    rec.span("setup", || {
        let inputs = rec.span("workloads.generate", || inputs(seed));
        let image = api::boot_build(rec, &inputs.mix, inputs.quantum)?;
        let untraced = untraced_run(rec, &image, &inputs.mix)?;
        let file = dir.join("setup.atrace");
        let traced = capture(rec, &image, &inputs.mix, &file)?;
        let mut src = api::file_source(rec, &file);
        let records = api::count_records(&mut src)?;
        if records != traced.records {
            return Err(format!(
                "set-up trace decodes to {records} records, {} were written",
                traced.records
            ));
        }
        let plan = SweepPlan::new();
        let mut spot = [CacheStats::default(); 3];
        for (s, c) in spot.iter_mut().zip(plan.spot_configs()) {
            *s = api::simulate_oracle(rec, &mut src, &c)?;
        }
        let ws_spot = api::working_set_oracle(rec, &mut src, plan.spot_window())?;
        let file_bytes = std::fs::read(&file).map_err(|e| format!("read {file:?}: {e}"))?;
        Ok(Setup {
            inputs,
            image,
            untraced,
            traced,
            file,
            file_bytes,
            plan,
            spot,
            ws_spot,
        })
    })
}

impl Setup {
    /// Set-up is deterministic: a repeat must reproduce every fact.
    pub fn check_repeat(&self, other: &Setup) -> Result<(), String> {
        if self.untraced != other.untraced
            || self.traced != other.traced
            || self.file_bytes != other.file_bytes
            || self.spot != other.spot
            || self.ws_spot != other.ws_spot
        {
            return Err("a repeated set-up produced different results".to_string());
        }
        Ok(())
    }
}

/// What one iteration produced, kept for its checks.
#[derive(Debug, PartialEq)]
pub enum Output {
    /// Every report's text, in id order.
    Regen(Vec<String>),
    /// The capture's totals and the file it wrote.
    Capture(Captured, PathBuf),
    /// The untraced run's counters.
    Untraced(RunFacts),
    /// Every family's results.
    Sweep(SweepResult),
}

fn sweep(rec: &Rec, s: &Setup) -> Result<SweepResult, String> {
    let p = &s.plan;
    let mut src = api::file_source(rec, &s.file);
    Ok(SweepResult {
        f1_size: api::simulate_many(rec, "cache.f1_size", &mut src, &p.f1_size)?,
        f2_policy: api::simulate_many(rec, "cache.f2_policy", &mut src, &p.f2_policy)?,
        f3_block: api::simulate_many(rec, "cache.f3_block", &mut src, &p.f3_block)?,
        f4_assoc: api::simulate_many(rec, "cache.f4_assoc", &mut src, &p.f4_assoc)?,
        f5_tlb: api::simulate_tlbs(rec, "cache.f5_tlb", &mut src, &p.f5_tlb)?,
        f6_write: api::simulate_many(rec, "cache.f6_write", &mut src, &p.f6_write)?,
        e4_ws: api::working_set_curve(rec, "analysis.e4_ws", &mut src, &p.e4_ws)?,
    })
}

fn regen(rec: &Rec) -> Result<Vec<String>, String> {
    api::regenerate(rec, REGEN_JOBS)
        .into_iter()
        .map(|(id, r)| r.map_err(|e| format!("experiment {id}: {e}")))
        .collect()
}

/// One iteration of `workload` — the timed work.
pub fn iterate(workload: &str, s: &Setup, rec: &Rec, dir: &Path) -> Result<Output, String> {
    let mix = &s.inputs.mix;
    Ok(match workload {
        "regen" => Output::Regen(regen(rec)?),
        "capture" => {
            let path = dir.join("capture.atrace");
            Output::Capture(capture(rec, &s.image, mix, &path)?, path)
        }
        "untraced" => Output::Untraced(untraced_run(rec, &s.image, mix)?),
        "sweep" => Output::Sweep(sweep(rec, s)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Checks one iteration's output against the set-up and against the
/// first iteration: simulated results must repeat exactly.
pub fn check(s: &Setup, out: &Output, first: Option<&Output>) -> Result<(), String> {
    match out {
        Output::Regen(_) => {}
        // Byte-identical to the set-up's file, which decoded to the
        // written record count, so this file does too.
        Output::Capture(c, path) => {
            if *c != s.traced {
                return Err(format!("capture: {c:?} differs from set-up {:?}", s.traced));
            }
            let bytes = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
            if bytes != s.file_bytes {
                return Err("capture: trace file differs from the set-up's".to_string());
            }
        }
        Output::Untraced(f) => {
            if *f != s.untraced {
                return Err(format!(
                    "untraced: {f:?} differs from set-up {:?}",
                    s.untraced
                ));
            }
        }
        Output::Sweep(r) => {
            if r.spots() != (s.spot, s.ws_spot) {
                return Err("sweep: spot results differ from the oracles".to_string());
            }
        }
    }
    match first {
        Some(f) if f != out => Err("output differs from the first iteration's".to_string()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_standard_mix() {
        let i = inputs(0);
        assert_eq!(i.mix, api::mix_std());
        assert_eq!(i.quantum, 60_000);
    }

    #[test]
    fn seeds_are_reproducible_and_vary() {
        let a = inputs(7);
        assert_eq!(a.mix, inputs(7).mix);
        let distinct = (1..20u64)
            .map(|s| {
                let i = inputs(s);
                (
                    i.mix.iter().map(|w| w.source.len()).collect::<Vec<_>>(),
                    i.quantum,
                )
            })
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 10, "seeds should give different inputs");
    }

    #[test]
    fn spot_configs_are_the_planned_ones() {
        let p = SweepPlan::new();
        let [dm, flush, wide] = p.spot_configs();
        assert_eq!((dm.size(), dm.assoc()), (8 << 10, 1));
        assert_eq!(
            (flush.size(), flush.switch_policy()),
            (16 << 10, SwitchPolicy::Flush)
        );
        assert_eq!((wide.size(), wide.assoc()), (64 << 10, 32));
        assert_eq!(p.spot_window(), 16_000);
    }
}
