//! Differential engine suite: reference vs fast.
//!
//! The predecoded fast engine (`crates/machine/src/fast.rs`) must be
//! observationally identical to the word-at-a-time reference
//! interpreter — same architectural state, same microcycle counts, same
//! trace bytes. This suite runs randomized programs on both engines in
//! lockstep and compares them at **every instruction boundary**, both
//! untraced and under each ATUM patch style (where the trace-buffer
//! bytes are compared raw, exactly as the microcode wrote them). The
//! cycle-slice tests instead stop both engines on small cycle budgets,
//! which end inside micro-routines, and resume them from there. Every
//! comparison covers the whole micro-state as well: micro-PC and stack,
//! the register file with the patch scratch registers, MAR, MDR and the
//! temporaries, micro-flags and the rollback log.

use atum_core::PatchStyle;
use atum_machine::{EngineTier, Machine, MemLayout, RunExit};
use proptest::prelude::*;

const ORG: u32 = 0x1000;
const SCRATCH: u32 = 0x4000;

fn reg() -> impl Strategy<Value = String> {
    (0u8..10).prop_map(|r| format!("r{r}"))
}

/// A read operand: register, literal, immediate, or scratch memory.
fn src() -> impl Strategy<Value = String> {
    prop_oneof![
        reg(),
        (0u32..64).prop_map(|v| format!("#{v}")),
        any::<i32>().prop_map(|v| format!("#{v}")),
        (0u32..32).prop_map(|o| format!("@#{:#x}", SCRATCH + o * 4)),
        (0u32..32).prop_map(|o| format!("{}(r10)", o * 4)),
    ]
}

/// A read operand for byte/word instructions (immediates must fit).
fn bsrc() -> impl Strategy<Value = String> {
    prop_oneof![
        reg(),
        (-128i32..256).prop_map(|v| format!("#{v}")),
        (0u32..32).prop_map(|o| format!("@#{:#x}", SCRATCH + o * 4)),
        (0u32..32).prop_map(|o| format!("{}(r10)", o * 4)),
    ]
}

/// A write operand: register or scratch memory.
fn dst() -> impl Strategy<Value = String> {
    prop_oneof![
        reg(),
        (0u32..32).prop_map(|o| format!("@#{:#x}", SCRATCH + o * 4)),
        (0u32..32).prop_map(|o| format!("{}(r10)", o * 4)),
    ]
}

fn insn() -> impl Strategy<Value = String> {
    prop_oneof![
        (src(), dst()).prop_map(|(a, b)| format!("movl {a}, {b}")),
        (bsrc(), dst()).prop_map(|(a, b)| format!("movb {a}, {b}")),
        (bsrc(), dst()).prop_map(|(a, b)| format!("movw {a}, {b}")),
        (src(), reg()).prop_map(|(a, b)| format!("addl2 {a}, {b}")),
        (src(), src(), dst()).prop_map(|(a, b, c)| format!("addl3 {a}, {b}, {c}")),
        (src(), src(), dst()).prop_map(|(a, b, c)| format!("subl3 {a}, {b}, {c}")),
        (src(), src(), dst()).prop_map(|(a, b, c)| format!("mull3 {a}, {b}, {c}")),
        (src(), src(), dst()).prop_map(|(a, b, c)| format!("xorl3 {a}, {b}, {c}")),
        (src(), src(), dst()).prop_map(|(a, b, c)| format!("bisl3 {a}, {b}, {c}")),
        (src(), src(), dst()).prop_map(|(a, b, c)| format!("bicl3 {a}, {b}, {c}")),
        ((-8i32..8), src(), dst()).prop_map(|(n, b, c)| format!("ashl #{n}, {b}, {c}")),
        (src(), src()).prop_map(|(a, b)| format!("cmpl {a}, {b}")),
        (bsrc(), bsrc()).prop_map(|(a, b)| format!("cmpb {a}, {b}")),
        src().prop_map(|a| format!("tstl {a}")),
        reg().prop_map(|a| format!("incl {a}")),
        reg().prop_map(|a| format!("decl {a}")),
        (bsrc(), dst()).prop_map(|(a, b)| format!("movzbl {a}, {b}")),
        (bsrc(), dst()).prop_map(|(a, b)| format!("cvtbl {a}, {b}")),
        (src(), dst()).prop_map(|(a, b)| format!("mnegl {a}, {b}")),
        (src(), dst()).prop_map(|(a, b)| format!("mcoml {a}, {b}")),
        (src(), src()).prop_map(|(a, b)| format!("bitl {a}, {b}")),
    ]
}

/// A control-flow block: straight-line, a bounded `sobgtr` loop, or a
/// conditional skip. Loops count down in `r11` (excluded from the random
/// operand pool) so termination is guaranteed.
#[derive(Debug, Clone)]
enum Block {
    Straight(Vec<String>),
    Loop {
        count: u8,
        body: Vec<String>,
    },
    Cond {
        a: String,
        b: String,
        body: Vec<String>,
    },
}

fn block() -> impl Strategy<Value = Block> {
    prop_oneof![
        4 => proptest::collection::vec(insn(), 1..8).prop_map(Block::Straight),
        1 => (1u8..6, proptest::collection::vec(insn(), 1..5))
            .prop_map(|(count, body)| Block::Loop { count, body }),
        1 => (src(), src(), proptest::collection::vec(insn(), 1..5))
            .prop_map(|(a, b, body)| Block::Cond { a, b, body }),
    ]
}

fn program() -> impl Strategy<Value = String> {
    proptest::collection::vec(block(), 1..8).prop_map(|blocks| {
        let mut src = String::from("start:\n");
        src.push_str(&format!("        movl #{SCRATCH:#x}, r10\n"));
        for (bi, b) in blocks.iter().enumerate() {
            match b {
                Block::Straight(insns) => {
                    for i in insns {
                        src.push_str(&format!("        {i}\n"));
                    }
                }
                Block::Loop { count, body } => {
                    src.push_str(&format!("        movl #{count}, r11\n"));
                    src.push_str(&format!("loop{bi}:\n"));
                    for i in body {
                        src.push_str(&format!("        {i}\n"));
                    }
                    src.push_str(&format!("        sobgtr r11, loop{bi}\n"));
                }
                Block::Cond { a, b, body } => {
                    src.push_str(&format!("        cmpl {a}, {b}\n"));
                    src.push_str(&format!("        beql skip{bi}\n"));
                    for i in body {
                        src.push_str(&format!("        {i}\n"));
                    }
                    src.push_str(&format!("skip{bi}:\n"));
                }
            }
        }
        src.push_str("        halt\n");
        src
    })
}

/// Loads a machine with the program, optionally attaching an enabled
/// tracer with the given patch style.
fn load(img: &atum_asm::Image, style: Option<PatchStyle>, tier: EngineTier) -> Machine {
    let mut m = Machine::new(MemLayout::small());
    for (a, b) in img.segments() {
        m.write_phys(*a, b).unwrap();
    }
    m.set_gpr(14, 0x8000);
    m.set_pc(ORG);
    m.set_engine_tier(tier);
    if let Some(style) = style {
        let t = atum_core::Tracer::attach_with_style(&mut m, style).unwrap();
        t.set_enabled(&mut m, true);
    }
    m
}

/// The raw trace-buffer bytes, exactly as the patch microcode wrote them.
fn trace_bytes(m: &Machine) -> Vec<u8> {
    let base = m.read_prv(atum_arch::PrivReg::Trbase);
    let ptr = m.read_prv(atum_arch::PrivReg::Trptr);
    m.read_phys(base, ptr.saturating_sub(base)).unwrap()
}

/// The first observable difference between the fast machine and its
/// reference twin, if any: counters, registers, PSL, reference counts,
/// the micro-state and, when traced, the raw trace-buffer bytes.
fn divergence(fast: &Machine, refm: &Machine, traced: bool) -> Option<String> {
    if fast.cycles() != refm.cycles() {
        return Some(format!("cycles {} vs {}", fast.cycles(), refm.cycles()));
    }
    if fast.insns() != refm.insns() {
        return Some(format!("insns {} vs {}", fast.insns(), refm.insns()));
    }
    if let Some(r) = (0..16u8).find(|&r| fast.gpr(r) != refm.gpr(r)) {
        return Some(format!("r{r} {:#x} vs {:#x}", fast.gpr(r), refm.gpr(r)));
    }
    if fast.psl() != refm.psl() {
        return Some(format!("PSL {:?} vs {:?}", fast.psl(), refm.psl()));
    }
    if fast.counts() != refm.counts() {
        return Some(format!("counts {:?} vs {:?}", fast.counts(), refm.counts()));
    }
    let (fast_micro, ref_micro) = (fast.micro_state(), refm.micro_state());
    if fast_micro != ref_micro {
        return Some(format!("micro-state {fast_micro:?} vs {ref_micro:?}"));
    }
    if traced && trace_bytes(fast) != trace_bytes(refm) {
        return Some("trace bytes".into());
    }
    None
}

/// Runs both engines one instruction at a time, comparing everything
/// observable at each boundary. Returns the failure case, if any.
fn lockstep(src: &str, style: Option<PatchStyle>) -> Result<(), TestCaseError> {
    let full = format!(".org {ORG:#x}\n{src}\n");
    let img = atum_asm::assemble(&full).expect("generated program assembles");
    let mut refm = load(&img, style, EngineTier::Reference);
    let mut fast = load(&img, style, EngineTier::Fast);
    for boundary in 0..200_000u32 {
        let exit = refm.step_insns(1, 1_000_000);
        let fast_exit = fast.step_insns(1, 1_000_000);
        prop_assert_eq!(
            fast_exit,
            exit,
            "exit differs at boundary {} after:\n{}",
            boundary,
            src
        );
        if let Some(d) = divergence(&fast, &refm, style.is_some()) {
            return Err(TestCaseError::fail(format!(
                "{d} at boundary {boundary} after:\n{src}"
            )));
        }
        match exit {
            None => continue,
            Some(RunExit::Halted) => break,
            Some(other) => panic!("unexpected exit {other:?} after:\n{src}"),
        }
    }
    // Scratch memory must match too.
    prop_assert_eq!(
        fast.read_phys(SCRATCH, 128).unwrap(),
        refm.read_phys(SCRATCH, 128).unwrap(),
        "scratch memory differs after:\n{}",
        src
    );
    Ok(())
}

/// Advances both engines by the same cycle budgets and compares
/// everything observable after each slice. A budget of a few dozen
/// cycles ends `run` inside a micro-routine, so each resume starts with
/// the micro-PC, micro-stack and micro-flags the last slice left behind.
/// Returns the number of slices up to the halt.
fn cycle_slices(
    img: &atum_asm::Image,
    start: u32,
    style: Option<PatchStyle>,
    mut budget: impl FnMut() -> u64,
) -> Result<usize, String> {
    let mut refm = load(img, style, EngineTier::Reference);
    let mut fast = load(img, style, EngineTier::Fast);
    for m in [&mut refm, &mut fast] {
        m.set_pc(start);
    }
    for slice in 0..1_000_000 {
        let k = budget();
        let exit = refm.run(k);
        let fast_exit = fast.run(k);
        if fast_exit != exit {
            return Err(format!(
                "exit {fast_exit:?} vs {exit:?} at slice {slice} (budget {k})"
            ));
        }
        if let Some(d) = divergence(&fast, &refm, style.is_some()) {
            return Err(format!("{d} at slice {slice} (budget {k})"));
        }
        match exit {
            RunExit::CycleLimit => continue,
            RunExit::Halted => return Ok(slice + 1),
            other => return Err(format!("unexpected exit {other:?} at slice {slice}")),
        }
    }
    Err("no halt within 1,000,000 slices".into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_under_cycle_slices(
        src in program(),
        budgets in proptest::collection::vec(1u64..65, 1..32),
    ) {
        let img = atum_asm::assemble(&format!(".org {ORG:#x}\n{src}\n"))
            .expect("generated program assembles");
        for style in [None, Some(PatchStyle::Scratch), Some(PatchStyle::Spill)] {
            let mut next = budgets.iter().copied().cycle();
            if let Err(d) = cycle_slices(&img, ORG, style, || next.next().unwrap_or(1)) {
                return Err(TestCaseError::fail(format!("{style:?}: {d} after:\n{src}")));
            }
        }
    }

    #[test]
    fn engines_agree_untraced(src in program()) {
        lockstep(&src, None)?;
    }

    #[test]
    fn engines_agree_scratch_patch(src in program()) {
        lockstep(&src, Some(PatchStyle::Scratch))?;
    }

    #[test]
    fn engines_agree_spill_patch(src in program()) {
        lockstep(&src, Some(PatchStyle::Spill))?;
    }
}

/// The bench workload (pointer-chasing), with its system calls replaced
/// so it runs bare.
fn bench_program(steps: u32) -> atum_asm::Image {
    let w = atum_workloads::list_chase("bench", 64, steps);
    let src = w
        .source
        .replace("chmk    #1", "nop")
        .replace("chmk    #0", "halt");
    atum_asm::assemble(&format!(".org {ORG:#x}\n{src}\n")).expect("bench program")
}

/// The bench workload on both engines, untraced and under both patch
/// styles, advanced by cycle budgets in 1..=97 from a fixed-seed
/// xorshift generator.
#[test]
fn bench_workload_cycle_slices() {
    let img = bench_program(300);
    let start = img.symbol("start").unwrap();
    for style in [None, Some(PatchStyle::Scratch), Some(PatchStyle::Spill)] {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let budget = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % 97
        };
        let slices =
            cycle_slices(&img, start, style, budget).unwrap_or_else(|d| panic!("{style:?}: {d}"));
        assert!(slices > 1_000, "{style:?}: only {slices} slices");
    }
}

/// The bench workload on both engines, untraced and under both patch
/// styles, advanced by every fixed cycle budget from 1 to 32. Over the
/// run the slice ends fall at every cycle offset inside an 8-cycle
/// instruction-buffer call and a 27-cycle logger call, so each native
/// call form meets every deadline it can straddle.
#[test]
fn bench_workload_deadline_sweep() {
    let img = bench_program(12);
    let start = img.symbol("start").unwrap();
    for style in [None, Some(PatchStyle::Scratch), Some(PatchStyle::Spill)] {
        for budget in 1..=32u64 {
            cycle_slices(&img, start, style, || budget)
                .unwrap_or_else(|d| panic!("{style:?}, budget {budget}: {d}"));
        }
    }
}

/// The bench workload (pointer-chasing with ATUM attached) run in
/// lockstep chunks on both engines — a deterministic deep case covering
/// the exact capture path the benchmarks measure.
#[test]
fn bench_workload_lockstep() {
    let img = bench_program(500);
    for style in [None, Some(PatchStyle::Scratch), Some(PatchStyle::Spill)] {
        let mut refm = load(&img, style, EngineTier::Reference);
        let mut fast = load(&img, style, EngineTier::Fast);
        for m in [&mut refm, &mut fast] {
            m.set_pc(img.symbol("start").unwrap());
        }
        loop {
            let exit = refm.step_insns(64, 10_000_000);
            assert_eq!(
                fast.step_insns(64, 10_000_000),
                exit,
                "{style:?}: exit differs"
            );
            if let Some(d) = divergence(&fast, &refm, true) {
                panic!("{style:?}: {d} differs");
            }
            match exit {
                None => continue,
                Some(RunExit::Halted) => break,
                Some(other) => panic!("{style:?}: unexpected exit {other:?}"),
            }
        }
    }
}
