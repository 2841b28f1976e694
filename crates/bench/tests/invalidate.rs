//! Engine-cache invalidation proptest.
//!
//! The fast engine keeps two caches keyed on events the reference
//! interpreter never needs to hear about: the predecoded `FastImage`,
//! rebuilt when the control-store version moves, and the translation
//! micro-cache, flushed on TB and mapping events. This suite drives
//! randomized interleavings of those events — control-store patches
//! (version bumps), `TBIA`/`TBIS` flushes, mapping-register writes,
//! trace-enable toggles — against a fast-engine machine and a
//! reference-engine twin receiving the identical event stream. After
//! every event the full observable state is compared: cycle count,
//! registers, PSL, reference counts, the micro-state and trace bytes.
//!
//! Mapping stays disabled here, so the micro-cache is never probed and
//! the TB events exercise only their handling paths;
//! `crates/machine/tests/caches.rs` pins the micro-cache's invalidation
//! edges with mapping on.

use atum_arch::PrivReg;
use atum_core::{PatchStyle, Tracer};
use atum_machine::{EngineTier, Machine, MemLayout};
use atum_ucode::MicroOp;
use proptest::prelude::*;

const ORG: u32 = 0x1000;

/// One step of the randomized interleaving.
#[derive(Debug, Clone)]
enum Event {
    /// Execute this many instructions on both machines.
    Step(u16),
    /// Single-entry TB invalidate (drops one translation micro-cache
    /// slot).
    Tbis(u32),
    /// Full TB invalidate (flushes the translation micro-cache).
    Tbia,
    /// Mapping-register write (base/length registers; flushes the
    /// translation micro-cache).
    MapReg(u8, u32),
    /// Toggle trace capture via `TRCTL` (no invalidation required: the
    /// patched microcode tests the enable bit at runtime).
    Toggle(bool),
    /// Append a padding routine to both control stores — a
    /// `ControlStore::version()` bump, the same signal a patch install
    /// or uninstall produces, which rebuilds the predecoded image.
    Patch,
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => (1u16..150).prop_map(Event::Step),
        1 => any::<u32>().prop_map(Event::Tbis),
        1 => Just(Event::Tbia),
        1 => (0u8..6, any::<u32>()).prop_map(|(r, v)| Event::MapReg(r, v)),
        1 => any::<bool>().prop_map(Event::Toggle),
        1 => Just(Event::Patch),
    ]
}

/// The mapping registers an event may write. All are harmless while
/// mapping stays disabled, but every write must flush the translation
/// micro-cache.
const MAP_REGS: [PrivReg; 6] = [
    PrivReg::P0br,
    PrivReg::P0lr,
    PrivReg::P1br,
    PrivReg::P1lr,
    PrivReg::Sbr,
    PrivReg::Slr,
];

fn load(style: Option<PatchStyle>, tier: EngineTier) -> (Machine, Option<Tracer>) {
    // A long pointer-chase: enough iterations that no randomized event
    // stream reaches the final halt, so every step executes real code.
    let w = atum_workloads::list_chase("bench", 64, 1_000_000);
    let src = w
        .source
        .replace("chmk    #1", "nop")
        .replace("chmk    #0", "halt");
    let img = atum_asm::assemble(&format!(".org {ORG:#x}\n{src}\n")).expect("bench program");
    let mut m = Machine::new(MemLayout::small());
    for (a, b) in img.segments() {
        m.write_phys(*a, b).unwrap();
    }
    m.set_gpr(14, 0x8000);
    m.set_pc(img.symbol("start").unwrap());
    m.set_engine_tier(tier);
    let t = style.map(|style| {
        let t = Tracer::attach_with_style(&mut m, style).unwrap();
        t.set_enabled(&mut m, true);
        t
    });
    (m, t)
}

fn trace_bytes(m: &Machine) -> Vec<u8> {
    let base = m.read_prv(PrivReg::Trbase);
    let ptr = m.read_prv(PrivReg::Trptr);
    m.read_phys(base, ptr.saturating_sub(base)).unwrap()
}

fn assert_same(fast: &Machine, refm: &Machine, at: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        fast.cycles(),
        refm.cycles(),
        "cycles differ after event {}",
        at
    );
    prop_assert_eq!(
        fast.insns(),
        refm.insns(),
        "insns differ after event {}",
        at
    );
    for r in 0..16u8 {
        prop_assert_eq!(
            fast.gpr(r),
            refm.gpr(r),
            "r{} differs after event {}",
            r,
            at
        );
    }
    prop_assert_eq!(fast.psl(), refm.psl(), "PSL differs after event {}", at);
    prop_assert_eq!(
        fast.counts(),
        refm.counts(),
        "counts differ after event {}",
        at
    );
    prop_assert_eq!(
        fast.micro_state(),
        refm.micro_state(),
        "micro-state differs after event {}",
        at
    );
    prop_assert_eq!(
        trace_bytes(fast),
        trace_bytes(refm),
        "trace bytes differ after event {}",
        at
    );
    Ok(())
}

fn interleave(style: Option<PatchStyle>, events: &[Event]) -> Result<(), TestCaseError> {
    let (mut fast, fast_t) = load(style, EngineTier::Fast);
    let (mut refm, ref_t) = load(style, EngineTier::Reference);
    let mut patches = 0u32;
    for (at, ev) in events.iter().enumerate() {
        match ev {
            Event::Step(n) => {
                let ef = fast.step_insns(*n as u64, u64::MAX);
                let er = refm.step_insns(*n as u64, u64::MAX);
                prop_assert_eq!(ef, er, "exit differs after event {}", at);
            }
            Event::Tbis(va) => {
                fast.write_prv(PrivReg::Tbis, *va);
                refm.write_prv(PrivReg::Tbis, *va);
            }
            Event::Tbia => {
                fast.write_prv(PrivReg::Tbia, 0);
                refm.write_prv(PrivReg::Tbia, 0);
            }
            Event::MapReg(r, v) => {
                let reg = MAP_REGS[*r as usize % MAP_REGS.len()];
                fast.write_prv(reg, *v);
                refm.write_prv(reg, *v);
            }
            Event::Toggle(on) => {
                if let (Some(tf), Some(tr)) = (&fast_t, &ref_t) {
                    tf.set_enabled(&mut fast, *on);
                    tr.set_enabled(&mut refm, *on);
                }
            }
            Event::Patch => {
                patches += 1;
                let name = format!("pad.{patches}");
                fast.control_store_mut()
                    .append_routine(&name, vec![MicroOp::Halt]);
                refm.control_store_mut()
                    .append_routine(&name, vec![MicroOp::Halt]);
            }
        }
        assert_same(&fast, &refm, at)?;
    }
    // Run a final stretch so late invalidations get re-executed over.
    let ef = fast.step_insns(300, u64::MAX);
    let er = refm.step_insns(300, u64::MAX);
    prop_assert_eq!(ef, er, "final exit differs");
    assert_same(&fast, &refm, events.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn invalidation_untraced(events in proptest::collection::vec(event(), 1..24)) {
        interleave(None, &events)?;
    }

    #[test]
    fn invalidation_scratch_patch(events in proptest::collection::vec(event(), 1..24)) {
        interleave(Some(PatchStyle::Scratch), &events)?;
    }

    #[test]
    fn invalidation_spill_patch(events in proptest::collection::vec(event(), 1..24)) {
        interleave(Some(PatchStyle::Spill), &events)?;
    }
}
