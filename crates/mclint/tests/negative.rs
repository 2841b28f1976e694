//! The verifier's acceptance suite.
//!
//! Positive half: the stock control store and the genuinely installed
//! ATUM patches (both styles) must lint completely clean — zero findings,
//! warnings included. Negative half: each deliberately seeded bug must
//! produce a finding that names the offending symbol and micro-address.

use atum_arch::{DataSize, PrivReg};
use atum_core::patch::{PatchSet, PatchStyle};
use atum_mclint::{atomicity, error_count, lint, transparency, Finding, Pass, Severity};
use atum_ucode::{
    stock, AluOp, CcEffect, ControlStore, Entry, MicroAsm, MicroCond, MicroOp, MicroReg, RefClass,
    SizeSel, Target,
};

fn assert_clean(findings: &[Finding], what: &str) {
    assert!(
        findings.is_empty(),
        "{what} should lint clean, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A finding that names both the expected symbol and a concrete address.
fn expect_finding<'a>(findings: &'a [Finding], symbol: &str, needle: &str) -> &'a Finding {
    findings
        .iter()
        .find(|f| f.symbol.starts_with(symbol) && f.message.contains(needle))
        .unwrap_or_else(|| {
            panic!(
                "expected a finding at '{symbol}' containing '{needle}', got:\n{}",
                findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            )
        })
}

// ── positive: real stores are clean ──────────────────────────────────

#[test]
fn stock_store_lints_clean() {
    let cs = stock::build();
    assert_clean(&lint::run(&cs), "stock store");
}

#[test]
fn patched_store_scratch_style_lints_clean() {
    let mut cs = stock::build();
    PatchSet::install_with_style(&mut cs, PatchStyle::Scratch).unwrap();
    assert_clean(&lint::run(&cs), "patched store (scratch)");
}

#[test]
fn patched_store_spill_style_lints_clean() {
    let mut cs = stock::build();
    PatchSet::install_with_style(&mut cs, PatchStyle::Spill).unwrap();
    assert_clean(&lint::run(&cs), "patched store (spill)");
}

#[test]
fn uninstalled_store_lints_like_stock_plus_orphans() {
    // After uninstall the hooks are gone but the patch routines remain in
    // the WCS as dead weight: exactly the orphan-routine findings, and
    // nothing else.
    let mut cs = stock::build();
    let set = PatchSet::install(&mut cs).unwrap();
    set.uninstall(&mut cs);
    let findings = lint::run(&cs);
    assert!(!findings.is_empty(), "orphaned patch routines expected");
    for f in &findings {
        assert!(
            f.message.contains("unreachable"),
            "only orphan findings expected after uninstall, got: {f}"
        );
        assert!(f.symbol.starts_with("atum."), "unexpected orphan: {f}");
    }
}

// ── negative: seeded bug 1 — architectural register clobber ──────────

#[test]
fn patch_clobbering_architectural_register_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    let addr = cs.append_routine(
        "evil.clobber",
        vec![
            MicroOp::Mov {
                src: MicroReg::Imm(0xDEAD),
                dst: MicroReg::Gpr(3),
            },
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.clobber", "architecturally visible");
    assert_eq!(f.addr, addr);
    assert_eq!(f.severity, Severity::Error);
    assert!(f.message.contains("r3"), "{f}");
}

// ── negative: seeded bug 2 — store outside the reserved buffer ───────

#[test]
fn unchecked_buffer_store_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_write = cs.symbol("xfer.write").unwrap();
    // Reads TRPTR and stores through it with no TRLIM bounds check: the
    // exact bug the capacity-check pattern exists to prevent.
    let addr = cs.append_routine(
        "evil.unchecked",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::ReadPr {
                num: MicroReg::Imm(PrivReg::Trptr.number()),
                dst: MicroReg::P(2),
            },
            MicroOp::Mov {
                src: MicroReg::P(2),
                dst: MicroReg::Mar,
            },
            MicroOp::PhysWrite,
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mar,
            },
            MicroOp::Jump(Target::Abs(stock_write)),
        ],
    );
    cs.set_entry(Entry::XferWrite, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.unchecked", "bounds check");
    assert_eq!(f.addr, addr + 3);
    assert_eq!(f.severity, Severity::Error);
}

#[test]
fn wild_physical_store_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    // Stores through a constant physical address nowhere near the buffer.
    let addr = cs.append_routine(
        "evil.wild",
        vec![
            MicroOp::Mov {
                src: MicroReg::Imm(0x1000),
                dst: MicroReg::Mar,
            },
            MicroOp::PhysWrite,
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.wild", "outside the reserved trace region");
    assert_eq!(f.addr, addr + 1);
}

// ── negative: seeded bug 3 — missing rejoin ──────────────────────────

#[test]
fn patch_that_never_rejoins_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    // Ends in decode.next instead of jumping back to the displaced
    // routine: the hooked transfer never happens.
    let addr = cs.append_routine(
        "evil.norejoin",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::DecodeNext,
        ],
    );
    cs.set_entry(Entry::XferIFetch, addr);
    let findings = lint::run(&cs);
    expect_finding(
        &findings,
        "evil.norejoin",
        "ends the architectural instruction",
    );
    let f = expect_finding(&findings, "evil.norejoin", "no path rejoins");
    assert_eq!(f.addr, addr);
}

#[test]
fn patch_rejoining_at_the_wrong_routine_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    // Rejoins the *write* flow from the *read* hook: reads would execute
    // as writes.
    let stock_write = cs.symbol("xfer.write").unwrap();
    let addr = cs.append_routine(
        "evil.crossjoin",
        vec![MicroOp::Jump(Target::Abs(stock_write))],
    );
    cs.set_entry(Entry::XferRead, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(
        &findings,
        "evil.crossjoin",
        "instead of the displaced xfer.read",
    );
    assert_eq!(f.addr, addr);
}

// ── negative: seeded bug 4 — unreachable routine ─────────────────────

#[test]
fn unreachable_patch_routine_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let addr = cs.append_routine("evil.orphan", vec![MicroOp::Ret]);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.orphan", "unreachable");
    assert_eq!(f.addr, addr);
    assert_eq!(f.severity, Severity::Error);
}

// ── negative: seeded bug 5 — stock microcode touching P scratch ──────

#[test]
fn stock_use_of_patch_scratch_is_caught() {
    // Build a minimal synthetic store whose "stock" region violates the
    // P-register reservation (the shipped stock builder cannot, which is
    // itself asserted by `stock_store_lints_clean`).
    let mut cs = ControlStore::new();
    let addr = cs.append_routine(
        "stock.pclobber",
        vec![
            MicroOp::Alu {
                op: AluOp::Add,
                a: MicroReg::P(5),
                b: MicroReg::Imm(1),
                dst: MicroReg::P(5),
                size: DataSize::Long,
                cc: CcEffect::None,
            },
            MicroOp::Jump(Target::Abs(0)),
        ],
    );
    cs.seal_stock();
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "stock.pclobber", "patch scratch");
    assert_eq!(f.addr, addr);
    assert_eq!(f.severity, Severity::Error);
}

// ── negative: seeded bug 6 — condition-code leak ─────────────────────

#[test]
fn patch_setting_condition_codes_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    let addr = cs.append_routine(
        "evil.ccleak",
        vec![
            MicroOp::Alu {
                op: AluOp::Sub,
                a: MicroReg::P(1),
                b: MicroReg::P(2),
                dst: MicroReg::P(3),
                size: DataSize::Long,
                cc: CcEffect::Arith,
            },
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.ccleak", "condition codes");
    assert_eq!(f.addr, addr);
}

// ── negative: seeded bug 7 — hot loop in a patch ─────────────────────

#[test]
fn hot_loop_patch_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    // Spins on itself with no Halt: the one shape of unbounded added
    // cost the real buffer-full protocol is careful to avoid.
    let addr = cs.len();
    cs.append_routine(
        "evil.hotloop",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::Jump(Target::Abs(addr)),
        ],
    );
    cs.set_entry(Entry::XferRead, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.hotloop", "hot loop");
    assert_eq!(f.addr, addr);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.pass, atum_mclint::Pass::Cost);
}

// ── negative: seeded bug 8 — unbounded cost via micro-recursion ──────

#[test]
fn recursive_patch_call_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    let addr = cs.len();
    cs.append_routine(
        "evil.recurse",
        vec![
            MicroOp::Call(Target::Abs(addr)),
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, addr);
    let findings = lint::run(&cs);
    let f = expect_finding(&findings, "evil.recurse", "recursive micro-call");
    assert_eq!(f.addr, addr);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.pass, atum_mclint::Pass::Cost);
}

// ── negative: seeded bug 9 — corrupted fast-engine lowering ──────────

#[test]
fn corrupted_lowering_is_caught() {
    use atum_machine::fast::{DecOp, FastImage};
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let mut img = FastImage::build(&cs);
    // Flip one lowered word inside the logger: the store still proves
    // transparent, but the engine that actually runs the capture path
    // would diverge.
    let addr = cs.symbol("atum.log").unwrap();
    img.ops[addr as usize] = DecOp::DecodeNext;
    let findings = atum_mclint::lowering::check_image(&cs, &img);
    let f = expect_finding(&findings, "atum.log", "lowering mismatch");
    assert_eq!(f.addr, addr);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.pass, atum_mclint::Pass::Lowering);
}

#[test]
fn mis_specialized_lowering_is_caught() {
    use atum_machine::fast::{DecOp, FastImage};
    use atum_machine::regs::slots;
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let mut img = FastImage::build(&cs);
    let log = cs.symbol("atum.log").unwrap();
    let find = |want: &dyn Fn(MicroOp) -> bool| (log..cs.len()).find(|&a| want(cs.word(a)));
    // The logger's TRPTR read, a slot move, lowered from the TRLIM slot:
    // the capacity check would then always pass.
    let read = find(&|op| {
        matches!(op, MicroOp::ReadPr { num: MicroReg::Imm(n), .. } if n == PrivReg::Trptr.number())
    })
    .unwrap();
    let DecOp::MovSS { dst, .. } = img.ops[read as usize] else {
        panic!("TRPTR read lowered as {:?}", img.ops[read as usize]);
    };
    img.ops[read as usize] = DecOp::MovSS {
        src: slots::TRLIM as u8,
        dst,
    };
    // Its `TRPTR + 8`, lowered as the subtraction form.
    let add = find(&|op| matches!(op, MicroOp::Alu { op: AluOp::Add, .. })).unwrap();
    let DecOp::AddSI { a, imm, dst } = img.ops[add as usize] else {
        panic!("TRPTR + 8 lowered as {:?}", img.ops[add as usize]);
    };
    img.ops[add as usize] = DecOp::SubSI { a, imm, dst };
    let findings = atum_mclint::lowering::check_image(&cs, &img);
    assert_eq!(findings.len(), 2, "{findings:?}");
    for addr in [read, add] {
        let f = findings.iter().find(|f| f.addr == addr).unwrap();
        assert!(f.symbol.starts_with("atum.log"), "{f}");
        assert!(f.message.contains("lowering mismatch"), "{f}");
        assert_eq!(f.pass, atum_mclint::Pass::Lowering);
    }
}

/// A store holding one caller of an instruction-buffer byte server
/// whose serve path counts down by `step`. With a step of 1 the server's
/// test and serve path are the stock ones word for word (its refill is a
/// `Halt` here, so refills run op by op); any other step makes it a
/// different routine.
fn byte_server_store(step: u32) -> ControlStore {
    let mut cs = ControlStore::new();
    let mut ua = MicroAsm::new();
    ua.global("srv.byte");
    ua.test(MicroReg::IbCnt);
    ua.jif(MicroCond::UNotZero, "serve");
    ua.op(MicroOp::Halt);
    ua.label("serve");
    ua.alu_l(
        AluOp::And,
        MicroReg::IbData,
        MicroReg::Imm(0xFF),
        MicroReg::Mdr,
    );
    ua.alu_l(
        AluOp::Lsr,
        MicroReg::Imm(8),
        MicroReg::IbData,
        MicroReg::IbData,
    );
    ua.alu_l(
        AluOp::Sub,
        MicroReg::IbCnt,
        MicroReg::Imm(step),
        MicroReg::IbCnt,
    );
    ua.op(MicroOp::AdvancePc);
    ua.ret();
    ua.global("srv.caller");
    ua.call("srv.byte");
    ua.op(MicroOp::Halt);
    ua.commit(&mut cs).unwrap();
    cs
}

#[test]
fn native_byte_server_needs_the_exact_serve_path() {
    use atum_machine::fast::{DecOp, FastImage, Refill};
    use atum_mclint::lowering::{check, check_image};
    let stock_shaped = byte_server_store(1);
    let (srv, call) = (
        stock_shaped.symbol("srv.byte").unwrap(),
        stock_shaped.symbol("srv.caller").unwrap(),
    );
    let native = DecOp::CallIbServe {
        target: srv,
        refill: Refill::OpByOp,
    };
    assert_eq!(FastImage::build(&stock_shaped).ops[call as usize], native);
    assert_clean(&check(&stock_shaped), "stock-shaped byte server");
    // `Sub IbCnt, #2`: both the engine and the pass keep the plain call.
    let cs = byte_server_store(2);
    let mut img = FastImage::build(&cs);
    assert_eq!(img.ops[call as usize], DecOp::Call(srv));
    assert_clean(&check_image(&cs, &img), "byte server counting by two");
    // An image that serves it natively anyway is caught at the call.
    img.ops[call as usize] = native;
    let findings = check_image(&cs, &img);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = expect_finding(&findings, "srv.caller", "lowering mismatch");
    assert_eq!(f.addr, call);
    assert_eq!(f.pass, atum_mclint::Pass::Lowering);
}

/// A scratch-patched store whose `XferIFetch` is repointed to a copy of
/// the `atum.ifetch` stub that tests `enable` and seeds `seed`, logging
/// through the real scratch logger and tail-jumping to the stock fetch.
fn ifetch_stub_store(enable: u32, seed: u32) -> ControlStore {
    let mut cs = stock::build();
    let stock_fetch = cs.entry(Entry::XferIFetch);
    PatchSet::install(&mut cs).unwrap();
    let mut ua = MicroAsm::new();
    ua.global("look.ifetch");
    ua.op(MicroOp::ReadPr {
        num: MicroReg::Imm(PrivReg::Trctl.number()),
        dst: MicroReg::P(1),
    });
    ua.alu_l(
        AluOp::And,
        MicroReg::P(1),
        MicroReg::Imm(enable),
        MicroReg::P(7),
    );
    ua.jif(MicroCond::UZero, "off");
    ua.mov(MicroReg::Imm(seed), MicroReg::P(5));
    ua.call("atum.log");
    ua.label("off");
    ua.op(MicroOp::Jump(Target::Abs(stock_fetch)));
    let stub = ua.commit(&mut cs).unwrap();
    cs.set_entry(Entry::XferIFetch, stub);
    cs
}

#[test]
fn native_refill_needs_the_exact_ifetch_stub() {
    use atum_core::patch::trctl;
    use atum_machine::fast::{DecOp, FastImage, Refill};
    use atum_mclint::lowering::{check, check_image};
    let ifetch_seed = 1 << 28 | 4 << 16;
    // The calls of the byte server, with the callers' names.
    let calls = |cs: &ControlStore| {
        let ib = cs.symbol("ifetch.byte").unwrap();
        (0..cs.len())
            .filter(|&a| matches!(cs.word(a), MicroOp::Call(Target::Abs(t)) if t == ib))
            .collect::<Vec<u32>>()
    };
    // An exact copy of the stub lowers its refills natively on both sides.
    let exact = ifetch_stub_store(trctl::ENABLE, ifetch_seed);
    assert_clean(&check(&exact), "exact copy of the ifetch stub");
    let img = FastImage::build(&exact);
    for &call in &calls(&exact) {
        assert!(matches!(
            img.ops[call as usize],
            DecOp::CallIbServe {
                refill: Refill::Scratch,
                ..
            }
        ));
    }
    // Look-alikes: another seed (size 2), another TRCTL bit (FULL).
    for (enable, seed) in [
        (trctl::ENABLE, 1 << 28 | 2 << 16),
        (trctl::FULL, ifetch_seed),
    ] {
        let cs = ifetch_stub_store(enable, seed);
        let what = format!("look-alike stub (enable {enable:#x}, seed {seed:#x})");
        let mut img = FastImage::build(&cs);
        assert_clean(&check_image(&cs, &img), &what);
        let calls = calls(&cs);
        assert_eq!(calls.len(), 5, "{what}");
        for &call in &calls {
            let DecOp::CallIbServe { target, refill } = img.ops[call as usize] else {
                panic!(
                    "{what}: call at {call:#x} lowered as {:?}",
                    img.ops[call as usize]
                );
            };
            assert_eq!(refill, Refill::OpByOp, "{what}: call at {call:#x}");
            // An image that refills natively anyway is caught at the call.
            img.ops[call as usize] = DecOp::CallIbServe {
                target,
                refill: Refill::Scratch,
            };
        }
        let findings = check_image(&cs, &img);
        assert_eq!(findings.len(), calls.len(), "{what}: {findings:?}");
        let symbols = atum_mclint::cfg::SymbolMap::new(&cs);
        for &call in &calls {
            let f = findings.iter().find(|f| f.addr == call).unwrap();
            assert_eq!(f.symbol, symbols.name(call), "{what}");
            assert!(f.message.contains("lowering mismatch"), "{what}: {f}");
            assert_eq!(f.pass, atum_mclint::Pass::Lowering);
        }
    }
}

#[test]
fn native_logger_planted_in_a_spill_store_is_caught() {
    use atum_machine::fast::{DecOp, FastImage};
    let mut cs = stock::build();
    PatchSet::install_with_style(&mut cs, PatchStyle::Spill).unwrap();
    let mut img = FastImage::build(&cs);
    let log = cs.symbol("atum.log").unwrap();
    let read = cs.symbol("atum.read").unwrap();
    let call = (read..cs.len())
        .find(|&a| matches!(cs.word(a), MicroOp::Call(_)))
        .unwrap();
    assert_eq!(img.ops[call as usize], DecOp::Call(log));
    img.ops[call as usize] = DecOp::CallLogger(log);
    let findings = atum_mclint::lowering::check_image(&cs, &img);
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = expect_finding(&findings, "atum.read", "lowering mismatch");
    assert_eq!(f.addr, call);
    assert_eq!(f.pass, atum_mclint::Pass::Lowering);
}

// ── negative: seeded bugs 10–13 — atomicity violations ───────────────

/// `Alu` with no condition-code side effect, the shape the real patches
/// use for address arithmetic and the capacity check.
fn alu(op: AluOp, a: MicroReg, b: MicroReg, dst: MicroReg) -> MicroOp {
    MicroOp::Alu {
        op,
        a,
        b,
        dst,
        size: DataSize::Long,
        cc: CcEffect::None,
    }
}

#[test]
fn trptr_advanced_over_unwritten_record_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    // Proves headroom like the real logger but stores only the low
    // longword before publishing the full 8-byte advance: a drain
    // between the advance and the (never-written) high word reads a
    // torn record.
    let base = cs.append_routine(
        "evil.earlyadvance",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::ReadPr {
                num: MicroReg::Imm(PrivReg::Trptr.number()),
                dst: MicroReg::P(2),
            },
            MicroOp::ReadPr {
                num: MicroReg::Imm(PrivReg::Trlim.number()),
                dst: MicroReg::P(3),
            },
            alu(AluOp::Add, MicroReg::P(2), MicroReg::Imm(8), MicroReg::P(4)),
            alu(AluOp::Sub, MicroReg::P(3), MicroReg::P(4), MicroReg::P(7)),
            MicroOp::JumpIf {
                cond: MicroCond::UCarry,
                target: Target::Abs(stock_read),
            },
            MicroOp::Mov {
                src: MicroReg::P(2),
                dst: MicroReg::Mar,
            },
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mdr,
            },
            MicroOp::PhysWrite,
            MicroOp::WritePr {
                num: MicroReg::Imm(PrivReg::Trptr.number()),
                src: MicroReg::P(4),
            },
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mar,
            },
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, base);
    let findings = lint::run_pass(&cs, Pass::Atomicity);
    let f = expect_finding(&findings, "evil.earlyadvance", "torn record");
    assert_eq!(f.addr, base + 9);
    assert_eq!(f.severity, Severity::Error);
    assert_eq!(f.pass, Pass::Atomicity);
}

#[test]
fn fault_window_over_live_hook_scratch_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    // Saves MAR to P0, then issues a *virtual* read: a translation miss
    // here diverts into the (hooked) exception dispatch, whose hook
    // clobbers P0 — the saved MAR is gone when this hook resumes.
    let base = cs.append_routine(
        "evil.faultsave",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::Read {
                class: RefClass::DataRead,
                size: SizeSel::Fixed(DataSize::Long),
            },
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mar,
            },
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, base);
    let findings = lint::run_pass(&cs, Pass::Atomicity);
    let f = expect_finding(
        &findings,
        "evil.faultsave",
        "fault-permissible point inside a hook",
    );
    assert_eq!(f.addr, base + 1);
    assert_eq!(f.severity, Severity::Error);
    assert!(f.message.contains("p0"), "{f}");
}

#[test]
fn spill_line_shared_between_hook_routines_is_caught() {
    let mut cs = stock::build();
    PatchSet::install_with_style(&mut cs, PatchStyle::Spill).unwrap();
    let stock_write = cs.symbol("xfer.write").unwrap();
    // A second hook routine parking state at TRLIM+0 — the same slot the
    // spill-style logger's prologue uses. The two would clobber each
    // other's saved state when hooks nest.
    let base = cs.append_routine(
        "evil.spillhook",
        vec![
            MicroOp::ReadPr {
                num: MicroReg::Imm(PrivReg::Trlim.number()),
                dst: MicroReg::P(2),
            },
            MicroOp::Mov {
                src: MicroReg::P(2),
                dst: MicroReg::Mar,
            },
            MicroOp::PhysWrite,
            MicroOp::Jump(Target::Abs(stock_write)),
        ],
    );
    cs.set_entry(Entry::XferWrite, base);
    let findings = lint::run_pass(&cs, Pass::Atomicity);
    let f = expect_finding(&findings, "evil.spillhook", "spill-line scratch");
    assert_eq!(f.addr, base + 2);
    assert_eq!(f.severity, Severity::Error);
    assert!(f.message.contains("atum.log"), "{f}");
}

#[test]
fn headroom_reused_across_drain_window_is_caught() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    // Proves headroom, then halts (the buffer-full drain window, where
    // the host may reset TRPTR) and keeps using the pre-halt pointer
    // snapshot and headroom proof. The transparency pass accepts this —
    // to an undisturbed execution it is invisible — which is exactly the
    // soundness gap the atomicity pass closes.
    let base = cs.len();
    cs.append_routine(
        "evil.staleheadroom",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::Mov {
                src: MicroReg::Mdr,
                dst: MicroReg::P(6),
            },
            MicroOp::ReadPr {
                num: MicroReg::Imm(PrivReg::Trptr.number()),
                dst: MicroReg::P(2),
            },
            MicroOp::ReadPr {
                num: MicroReg::Imm(PrivReg::Trlim.number()),
                dst: MicroReg::P(3),
            },
            alu(AluOp::Add, MicroReg::P(2), MicroReg::Imm(8), MicroReg::P(4)),
            alu(AluOp::Sub, MicroReg::P(3), MicroReg::P(4), MicroReg::P(7)),
            MicroOp::JumpIf {
                cond: MicroCond::UCarry,
                target: Target::Abs(base + 15),
            },
            MicroOp::Halt,
            MicroOp::Mov {
                src: MicroReg::P(2),
                dst: MicroReg::Mar,
            },
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mdr,
            },
            MicroOp::PhysWrite,
            MicroOp::WritePr {
                num: MicroReg::Imm(PrivReg::Trptr.number()),
                src: MicroReg::P(4),
            },
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mar,
            },
            MicroOp::Mov {
                src: MicroReg::P(6),
                dst: MicroReg::Mdr,
            },
            MicroOp::Jump(Target::Abs(stock_read)),
            // full: restore and bail.
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mar,
            },
            MicroOp::Mov {
                src: MicroReg::P(6),
                dst: MicroReg::Mdr,
            },
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, base);
    assert_clean(
        &transparency::check(&cs),
        "stale-headroom hook under transparency alone",
    );
    let findings = lint::run_pass(&cs, Pass::Atomicity);
    let f = expect_finding(
        &findings,
        "evil.staleheadroom",
        "outside the trace-pointer protocol",
    );
    assert_eq!(f.addr, base + 10);
    assert_eq!(f.severity, Severity::Error);
    expect_finding(
        &findings,
        "evil.staleheadroom",
        "not derived from the current trptr read",
    );
}

// ── positive: the state partition of the shipped artifacts ───────────

#[test]
fn stock_partition_matches_golden_file() {
    let expected = include_str!("golden/partition_stock.json");
    let actual = format!("{}\n", atomicity::partition(&stock::build()).to_json());
    assert!(
        actual == expected,
        "the stock state partition drifted from tests/golden/partition_stock.json.\n\
         If the change is intentional, replace the golden file with the actual value:\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

#[test]
fn shipped_partitions_have_no_unclassified_state() {
    for style in [None, Some(PatchStyle::Scratch), Some(PatchStyle::Spill)] {
        let mut cs = stock::build();
        if let Some(style) = style {
            PatchSet::install_with_style(&mut cs, style).unwrap();
        }
        let p = atomicity::partition(&cs);
        for e in p.registers.iter().chain(p.memory.iter()) {
            assert_ne!(
                e.class,
                atomicity::StateClass::Unclassified,
                "unclassified state '{}' in the {:?} partition",
                e.name,
                style
            );
        }
        // The patched stores must show the trace machinery as hook-
        // touched per-CPU-candidate state.
        if style.is_some() {
            let trptr = p
                .registers
                .iter()
                .find(|e| e.name == "trptr")
                .expect("patched store touches trptr");
            assert_eq!(trptr.class, atomicity::StateClass::PerCpuCandidate);
            assert!(trptr.hooks);
        }
    }
}

// ── single-pass runs (`mculist verify --pass`) ───────────────────────

/// `lint::run_pass` must agree with the filtered full run on every pass,
/// and the full run must come out in the pinned deterministic order —
/// the contract `mculist verify --pass <name>` and the verify golden
/// rely on.
#[test]
fn run_pass_matches_filtered_full_run() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    let stock_read = cs.symbol("xfer.read").unwrap();
    // Seed bugs across several passes at once.
    cs.append_routine("evil.orphan", vec![MicroOp::Ret]);
    let base = cs.append_routine(
        "evil.faultsave",
        vec![
            MicroOp::Mov {
                src: MicroReg::Mar,
                dst: MicroReg::P(0),
            },
            MicroOp::Read {
                class: RefClass::DataRead,
                size: SizeSel::Fixed(DataSize::Long),
            },
            MicroOp::Mov {
                src: MicroReg::P(0),
                dst: MicroReg::Mar,
            },
            MicroOp::Jump(Target::Abs(stock_read)),
        ],
    );
    cs.set_entry(Entry::XferRead, base);

    let all = lint::run(&cs);
    assert!(error_count(&all) >= 2, "expected seeded findings");
    let keys: Vec<(u8, &String, u32)> = all
        .iter()
        .map(|f| (f.pass as u8, &f.symbol, f.addr))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "lint::run is not in (pass, symbol, addr) order"
    );

    for &p in Pass::ALL.iter() {
        let single = lint::run_pass(&cs, p);
        let filtered: Vec<Finding> = all.iter().filter(|f| f.pass == p).cloned().collect();
        assert_eq!(
            single, filtered,
            "run_pass({p}) disagrees with the filtered full run"
        );
    }
}

// ── error counting for the CLI gate ──────────────────────────────────

#[test]
fn error_count_matches_severity() {
    let mut cs = stock::build();
    PatchSet::install(&mut cs).unwrap();
    cs.append_routine("evil.orphan", vec![MicroOp::Ret]);
    let findings = lint::run(&cs);
    assert!(error_count(&findings) >= 1);
    assert_eq!(
        error_count(&findings),
        findings.iter().filter(|f| f.is_error()).count()
    );
}
