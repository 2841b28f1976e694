//! Device behaviour and failure-injection tests: console I/O, timer
//! control, micro-architecture error paths, and fault-handling edges.

use atum_arch::Opcode;
use atum_machine::{EngineTier, Machine, MemLayout, RunExit};
use atum_ucode::{Entry, MicroAsm, MicroOp, MicroReg};

const ORG: u32 = 0x1000;

fn load(src: &str) -> Machine {
    let full = format!(".org {ORG:#x}\n{src}\n");
    let img = atum_asm::assemble(&full).unwrap();
    let mut m = Machine::new(MemLayout::small());
    for (addr, bytes) in img.segments() {
        m.write_phys(*addr, bytes).unwrap();
    }
    m.set_gpr(14, 0x8000);
    m.set_pc(img.symbol("start").unwrap_or(ORG));
    m
}

// ── Console ───────────────────────────────────────────────────────────

#[test]
fn console_receive_path() {
    // Poll RXCS (35) until a byte is available, read RXDB (34), echo it.
    let mut m = load(
        "start:\n\
         poll: mfpr #35, r1\n tstl r1\n beql poll\n \
         mfpr #34, r2\n mtpr r2, #32\n halt",
    );
    m.push_console_input(b'Q');
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.take_console_output(), b"Q");
}

#[test]
fn console_input_consumed_in_order() {
    let mut m = load(
        "start: movl #3, r6\n\
         loop: mfpr #34, r2\n mtpr r2, #32\n sobgtr r6, loop\n halt",
    );
    for b in b"abc" {
        m.push_console_input(*b);
    }
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.take_console_output(), b"abc");
    // Empty queue reads as 0.
    let mut m = load("start: mfpr #34, r2\n mtpr r2, #32\n halt");
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.take_console_output(), vec![0]);
}

#[test]
fn txcs_always_ready() {
    let mut m = load("start: mfpr #33, r1\n halt");
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.gpr(1) & 0x80, 0x80);
}

// ── Timer control edges ───────────────────────────────────────────────

#[test]
fn timer_pending_bit_clearable() {
    // Run the clock with interrupts *disabled*: the pending bit latches
    // in ICCS, is visible to MFPR, and clears on a write-1.
    let mut m = load(
        "start: mtpr #100, #25\n mtpr #1, #24     ; run, no IE\n\
         movl #400, r1\n 1: sobgtr r1, 1b\n\
         mfpr #24, r2                            ; pending visible\n\
         mtpr #0x80, #24                         ; stop clock + clear pending\n\
         mfpr #24, r3\n halt",
    );
    assert_eq!(m.run(10_000_000), RunExit::Halted);
    assert_eq!(m.gpr(2) & 0x80, 0x80, "pending latched");
    assert_eq!(m.gpr(3) & 0x80, 0, "pending cleared by write-1");
    assert_eq!(m.counts().interrupts, 0, "IE off: never delivered");
}

#[test]
fn stopping_the_clock_stops_ticks() {
    let mut m = load(
        "start: mtpr #200, #25\n mtpr #0x41, #24\n mtpr #0, #18\n\
         spin1: cmpl r6, #2\n blss spin1\n\
         mtpr #0, #24          ; stop\n\
         movl r6, r7\n\
         movl #5000, r1\n 1: sobgtr r1, 1b\n\
         movl r6, r8\n halt\n",
    );
    // Interrupt handler: SCBB defaults to 0; install vector by hand.
    let img = atum_asm::assemble(".org 0x3000\nhandler: incl r6\n rei\n").unwrap();
    for (a, b) in img.segments() {
        m.write_phys(*a, b).unwrap();
    }
    m.write_phys(0xC0, &0x3000u32.to_le_bytes()).unwrap();
    assert_eq!(m.run(50_000_000), RunExit::Halted);
    assert_eq!(m.gpr(7), m.gpr(8), "no ticks after the clock stops");
    assert!(m.gpr(7) >= 2);
}

// ── Micro-architecture error paths ────────────────────────────────────

#[test]
fn micro_stack_overflow_detected() {
    let mut m = Machine::new(MemLayout::small());
    // A micro-routine that calls itself forever.
    let addr = {
        let cs = m.control_store_mut();
        let mut ua = MicroAsm::new();
        ua.global("test.recurse");
        ua.call("test.recurse");
        ua.ret();
        ua.commit(cs).unwrap()
    };
    m.control_store_mut().set_entry(Entry::Fetch, addr);
    m.set_pc(0);
    match m.run(100_000) {
        RunExit::MicroError(msg) => assert!(msg.contains("overflow"), "{msg}"),
        other => panic!("expected micro-stack overflow, got {other:?}"),
    }
}

#[test]
fn micro_stack_underflow_detected() {
    let mut m = Machine::new(MemLayout::small());
    let addr = {
        let cs = m.control_store_mut();
        let mut ua = MicroAsm::new();
        ua.global("test.underflow");
        ua.ret();
        ua.commit(cs).unwrap()
    };
    m.control_store_mut().set_entry(Entry::Fetch, addr);
    m.set_pc(0);
    match m.run(100_000) {
        RunExit::MicroError(msg) => assert!(msg.contains("underflow"), "{msg}"),
        other => panic!("expected micro-stack underflow, got {other:?}"),
    }
}

#[test]
fn bad_dynamic_size_latch_detected() {
    let mut m = Machine::new(MemLayout::small());
    let addr = {
        let cs = m.control_store_mut();
        let mut ua = MicroAsm::new();
        ua.global("test.badsize");
        ua.op(MicroOp::SetSizeDyn(MicroReg::Imm(3)));
        ua.op(MicroOp::Halt);
        ua.commit(cs).unwrap()
    };
    m.control_store_mut().set_entry(Entry::Fetch, addr);
    m.set_pc(0);
    assert!(matches!(m.run(1_000), RunExit::MicroError(_)));
}

#[test]
fn custom_microroutine_via_patch_api() {
    // Install a replacement for the NOP opcode that increments T0-visible
    // state (a GPR) — the WCS mechanism exercised outside the tracer.
    let mut m = Machine::new(MemLayout::small());
    let addr = {
        let cs = m.control_store_mut();
        let mut ua = MicroAsm::new();
        ua.global("test.fastnop");
        ua.op(MicroOp::Alu {
            op: atum_ucode::AluOp::Add,
            a: MicroReg::Gpr(11),
            b: MicroReg::Imm(1),
            dst: MicroReg::Gpr(11),
            cc: atum_ucode::CcEffect::None,
            size: atum_arch::DataSize::Long,
        });
        ua.decode_next();
        ua.commit(cs).unwrap()
    };
    m.control_store_mut()
        .set_opcode_target(Opcode::Nop.to_byte(), addr);
    m.write_phys(0x200, &[1, 1, 1, 0]).unwrap(); // nop nop nop halt
    m.set_pc(0x200);
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.gpr(11), 3, "patched nop counted its executions");
}

// ── Fault-path edges ──────────────────────────────────────────────────

#[test]
fn jumping_into_unmapped_space_faults_with_pc_param() {
    let mut m = load("start: jmp @#0x00700000\n halt");
    // SCB: translation-invalid vector → handler.
    let img = atum_asm::assemble(".org 0x3000\nh: popl r7\n movl #1, r9\n halt\n").unwrap();
    for (a, b) in img.segments() {
        m.write_phys(*a, b).unwrap();
    }
    m.write_phys(0x24, &0x3000u32.to_le_bytes()).unwrap();
    assert_eq!(m.run(1_000_000), RunExit::Halted);
    assert_eq!(m.gpr(9), 1);
    assert_eq!(m.gpr(7), 0x0070_0000, "faulting I-fetch VA reported");
}

#[test]
fn movc3_restarts_cleanly_after_fault() {
    // Copy that starts with an unmapped destination; the handler maps it
    // by swapping in a valid pointer and the instruction restarts with
    // its side effects rolled back.
    let mut m = load(
        "start: moval src, r6\n movl #0x00700000, r7\n\
         movc3 #8, (r6), (r7)\n\
         movl dst, r4\n halt\n\
         h: popl r1\n moval dst, r7\n rei\n\
         src: .ascii \"ABCDEFGH\"\ndst: .space 8",
    );
    let img = atum_asm::assemble(&format!(
        ".org {ORG:#x}\nstart: moval src, r6\n movl #0x00700000, r7\n\
         movc3 #8, (r6), (r7)\n\
         movl dst, r4\n halt\n\
         h: popl r1\n moval dst, r7\n rei\n\
         src: .ascii \"ABCDEFGH\"\ndst: .space 8\n"
    ))
    .unwrap();
    m.write_phys(0x24, &img.symbol("h").unwrap().to_le_bytes())
        .unwrap();
    assert_eq!(m.run(5_000_000), RunExit::Halted);
    assert_eq!(
        &m.gpr(4).to_le_bytes(),
        b"ABCD",
        "copy completed after repair"
    );
}

#[test]
fn halted_machine_stays_halted_until_resume() {
    let mut m = load("start: halt\n movl #7, r1\n halt");
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 0);
    assert_eq!(m.run(100_000), RunExit::Halted, "still halted");
    assert_eq!(m.gpr(1), 0, "no progress without resume");
    m.resume();
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.gpr(1), 7, "resumed past the first halt");
}

// ── Instruction-buffer semantics ──────────────────────────────────────

#[test]
fn self_modifying_code_visible_after_branch() {
    // VAX rule: writes into the instruction stream are only guaranteed
    // visible after a branch (which refills the prefetch buffer). Patch
    // a downstream `movl #1, r9` into `movl #2, r9`, branch to it, and
    // observe the new value.
    let mut m = load(
        "start: movb #2, patch+1    ; rewrite the literal operand\n\
         brb target                 ; branch flushes the prefetch buffer\n\
         target:\n\
         patch: movl #1, r9\n\
         halt",
    );
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert_eq!(m.gpr(9), 2, "patched instruction executed");
}

#[test]
fn prefetch_buffer_may_hide_adjacent_store() {
    // The write lands in the same prefetch longword the CPU is executing
    // from; with no intervening branch the stale byte may execute. This
    // documents the (VAX-authentic) behaviour rather than demanding it:
    // either the old or the new literal is acceptable, nothing else.
    let mut m = load(
        "start: movb #7, next+1\n\
         next: movl #1, r9\n\
         halt",
    );
    assert_eq!(m.run(100_000), RunExit::Halted);
    assert!(
        m.gpr(9) == 1 || m.gpr(9) == 7,
        "saw {} — neither stale nor updated literal",
        m.gpr(9)
    );
}

// ── Stepping API ──────────────────────────────────────────────────────

#[test]
fn step_insns_stops_at_instruction_granularity() {
    let mut m = load("start: movl #1, r1\n movl #2, r2\n movl #3, r3\n halt");
    assert_eq!(m.step_insns(1, 1_000_000), None);
    assert_eq!(m.gpr(1), 1);
    assert_eq!(m.gpr(2), 0, "second insn not yet executed");
    assert_eq!(m.step_insns(1, 1_000_000), None);
    assert_eq!(m.gpr(2), 2);
    // Run to the halt.
    assert_eq!(m.step_insns(10, 1_000_000), Some(RunExit::Halted));
    assert_eq!(m.gpr(3), 3);
}

#[test]
fn step_insns_reports_cycle_limit() {
    let mut m = load("start: brb start");
    assert_eq!(m.step_insns(1_000_000, 5_000), Some(RunExit::CycleLimit));
}

#[test]
fn step_insns_saturates_its_instruction_target() {
    for tier in [EngineTier::Reference, EngineTier::Fast] {
        let mut m = load("start: brb start");
        m.set_engine_tier(tier);
        assert_eq!(m.step_insns(1, 1_000_000), None);
        // `insns + u64::MAX` must not wrap to a target already reached.
        let before = m.cycles();
        assert_eq!(
            m.step_insns(u64::MAX, 100_000),
            Some(RunExit::CycleLimit),
            "{tier:?}"
        );
        assert!(m.cycles() >= before + 100_000, "{tier:?}");
    }
}
