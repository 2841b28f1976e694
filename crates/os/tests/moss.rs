//! MOSS system tests: boot, system calls, preemptive multiprogramming,
//! fault isolation — and the combination with the ATUM tracer that the
//! whole reproduction exists for.

use atum_core::{Trace, Tracer};
use atum_machine::{Machine, RunExit};
use atum_os::{BootImage, KernelOptions, TbitMode};

fn boot(image: &BootImage) -> Machine {
    let mut m = Machine::new(image.memory_layout());
    image.load_into(&mut m).expect("load");
    m
}

fn run_to_halt(m: &mut Machine, budget: u64) {
    assert_eq!(m.run(budget), RunExit::Halted, "system did not halt");
}

#[test]
fn single_process_exits() {
    let image = BootImage::builder()
        .user_program("start: movl #5, r0\n chmk #0\n")
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 10_000_000);
    assert!(m.insns() > 50, "kernel boot + process ran");
}

#[test]
fn console_output_in_order() {
    let image = BootImage::builder()
        .user_program(
            "start: moval msg, r6\n\
             loop: movzbl (r6)+, r0\n beql done\n chmk #1\n brb loop\n\
             done: chmk #0\n\
             msg: .asciz \"MOSS lives\"\n",
        )
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 20_000_000);
    assert_eq!(m.take_console_output(), b"MOSS lives");
}

#[test]
fn getpid_returns_distinct_pids() {
    let prog = "start: chmk #2\n addl2 #'0', r0\n chmk #1\n chmk #0\n";
    let image = BootImage::builder()
        .user_program(prog)
        .user_program(prog)
        .user_program(prog)
        .quantum(1_000_000) // effectively no preemption
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 50_000_000);
    let mut out = m.take_console_output();
    out.sort_unstable();
    assert_eq!(out, b"123");
}

#[test]
fn yield_round_robins() {
    // Each process prints its pid digit then yields, five times.
    let prog = "start: chmk #2\n addl2 #'0', r0\n movl #5, r7\n\
                loop: chmk #1\n chmk #3\n sobgtr r7, loop\n chmk #0\n";
    let image = BootImage::builder()
        .user_program(prog)
        .user_program(prog)
        .quantum(100_000_000)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 100_000_000);
    let out = String::from_utf8(m.take_console_output()).unwrap();
    assert_eq!(out, "1212121212", "strict alternation under yield");
}

#[test]
fn preemption_interleaves_compute_bound_processes() {
    // Two CPU-bound loops that each print a marker per outer iteration;
    // with a small quantum both make progress before either finishes.
    let prog_a = "start: movl #40, r6\n\
                  outer: movl #300, r7\n\
                  inner: sobgtr r7, inner\n\
                  movl #'a', r0\n chmk #1\n sobgtr r6, outer\n chmk #0\n";
    let prog_b = prog_a.replace("'a'", "'b'");
    let image = BootImage::builder()
        .user_program(prog_a)
        .user_program(&prog_b)
        .quantum(15_000)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 400_000_000);
    let out = String::from_utf8(m.take_console_output()).unwrap();
    assert_eq!(out.matches('a').count(), 40);
    assert_eq!(out.matches('b').count(), 40);
    // Interleaved: a 'b' appears before the last 'a'.
    let first_b = out.find('b').unwrap();
    let last_a = out.rfind('a').unwrap();
    assert!(first_b < last_a, "no interleaving observed: {out}");
    assert!(m.counts().interrupts > 10, "timer preemptions happened");
}

#[test]
fn faulting_process_killed_others_survive() {
    let bad = "start: movl @#0x30000000, r0\n chmk #0\n"; // far outside P0 map
    let good = "start: movl #'g', r0\n chmk #1\n chmk #0\n";
    let image = BootImage::builder()
        .user_program(bad)
        .user_program(good)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 50_000_000);
    assert_eq!(m.take_console_output(), b"g");
}

#[test]
fn divide_fault_kills_process() {
    let bad = "start: clrl r1\n divl2 r1, r2\n movl #'x', r0\n chmk #1\n chmk #0\n";
    let good = "start: movl #'k', r0\n chmk #1\n chmk #0\n";
    let image = BootImage::builder()
        .user_program(bad)
        .user_program(good)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 50_000_000);
    assert_eq!(
        m.take_console_output(),
        b"k",
        "bad process died before printing"
    );
}

#[test]
fn null_dereference_faults() {
    let bad = "start: movl @#0, r0\n movl #'x', r0\n chmk #1\n chmk #0\n";
    let image = BootImage::builder().user_program(bad).build().unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 50_000_000);
    assert_eq!(m.take_console_output(), b"", "page 0 is a null guard");
}

#[test]
fn traced_mix_captures_os_and_all_pids() {
    let prog = "start: movl #30, r6\n\
                outer: movl #100, r7\n\
                inner: incl counter\n sobgtr r7, inner\n\
                chmk #3\n sobgtr r6, outer\n chmk #0\n\
                counter: .long 0";
    let image = BootImage::builder()
        .user_program(prog)
        .user_program(prog)
        .user_program(prog)
        .quantum(10_000)
        .build()
        .unwrap();
    let mut m = boot(&image);
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_pid(&mut m, 0); // kernel boot runs as pid 0
    tracer.set_enabled(&mut m, true);
    run_to_halt(&mut m, 1_000_000_000);

    let trace = tracer.extract(&m).unwrap();
    let stats = trace.stats();

    // The headline completeness claims:
    assert!(stats.kernel_refs > 0, "OS references captured");
    assert!(stats.user_refs > 0, "user references captured");
    assert!(
        stats.os_fraction() > 0.05,
        "OS is a visible fraction: {:.3}",
        stats.os_fraction()
    );
    assert!(stats.ctx_switches >= 3, "every dispatch produced a marker");
    assert!(stats.interrupts > 0, "trap/interrupt markers present");
    // All three pids (plus kernel-boot pid 0) appear.
    for pid in [1u8, 2, 3] {
        assert!(
            stats.refs_by_pid.contains_key(&pid),
            "pid {pid} missing from trace"
        );
    }
    // User-only view loses every kernel reference (what pre-ATUM tracers
    // missed) but keeps all user ones.
    let user: Trace = trace.user_refs().collect();
    assert_eq!(user.stats().kernel_refs, 0);
    assert_eq!(user.stats().user_refs, stats.user_refs);

    // Consistency with the hardware counters.
    let c = m.counts();
    assert_eq!(stats.ifetch, c.ifetch);
    assert_eq!(stats.reads, c.data_reads);
    assert_eq!(stats.writes, c.data_writes);
}

#[test]
fn tbit_kernel_logs_trapped_pcs() {
    let image = BootImage::builder()
        .user_program("start: movl #10, r6\nloop: sobgtr r6, loop\n chmk #0\n")
        .kernel_options(KernelOptions {
            tbit: TbitMode::LogPc,
            swtrace_bytes: 8192,
        })
        .trace_trap_all(true)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 100_000_000);
    // Read the software-trace count out of kernel memory.
    let count_va = image.kernel().symbol("swt_count").unwrap();
    let count_pa = count_va - atum_os::SYSTEM_VA;
    let bytes = m.read_phys(count_pa, 4).unwrap();
    let count = u32::from_le_bytes(bytes.try_into().unwrap());
    assert!(
        count >= 11,
        "one trace trap per user instruction, got {count}"
    );
}

#[test]
fn unknown_syscall_kills_the_caller() {
    let bad = "start: chmk #99\n movl #'x', r0\n chmk #1\n chmk #0\n";
    let good = "start: movl #'o', r0\n chmk #1\n chmk #0\n";
    let image = BootImage::builder()
        .user_program(bad)
        .user_program(good)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 50_000_000);
    assert_eq!(m.take_console_output(), b"o");
}

#[test]
fn user_stack_supports_deep_recursion() {
    // fib(14) via calls needs a few KiB of user stack — exercise the P1
    // mapping depth under MOSS.
    let w = atum_workloads::fib_recursive("f", 14);
    let image = BootImage::builder()
        .user_program(&w.source)
        .build()
        .unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 2_000_000_000);
    assert_eq!(
        String::from_utf8(m.take_console_output()).unwrap(),
        w.expected_output
    );
}

#[test]
fn sixteen_processes_round_robin() {
    // The full process table: every slot runs and exits.
    let mut b = BootImage::builder().quantum(10_000);
    for _ in 0..atum_os::MAX_PROCS {
        b = b.user_program("start: chmk #2\n addl2 #'a', r0\n chmk #1\n chmk #0\n");
    }
    let image = b.build().unwrap();
    let mut m = boot(&image);
    run_to_halt(&mut m, 1_000_000_000);
    let mut out = m.take_console_output();
    out.sort_unstable();
    let want: Vec<u8> = (1..=16u8).map(|p| b'a' + p).collect();
    assert_eq!(out, want, "all sixteen pids reported in");
}
