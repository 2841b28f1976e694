//! Cache study: drive the cache simulator from a captured complete-system
//! trace and reproduce the F1/F2 story — what including the OS and the
//! context switches does to miss rates.
//!
//! ```text
//! cargo run --release --example cache_study
//! ```

use atum::cache::{simulate_many_stream, CacheConfig, SwitchPolicy};
use atum::core::{CaptureSession, Tracer, UserRefs};
use atum::machine::Machine;
use atum::os::BootImage;

fn main() {
    // Capture the standard multiprogramming mix.
    let mix = atum::workloads::mix_std();
    let mut builder = BootImage::builder().quantum(15_000);
    for w in &mix {
        builder = builder.user_program(&w.source);
    }
    let image = builder.build().expect("boot image");
    let mut machine = Machine::new(image.memory_layout());
    image.load_into(&mut machine).expect("load");
    let tracer = Tracer::attach(&mut machine).expect("attach");
    tracer.set_pid(&mut machine, 0);
    let capture = CaptureSession::new(&tracer, 100_000_000_000)
        .run(&mut machine)
        .expect("capture");
    let _ = machine.take_console_output();

    let trace = capture.trace;
    println!(
        "trace: {} refs total, {} user-only\n",
        trace.ref_count(),
        trace.user_refs().count()
    );

    // Each sweep is a single pass over the trace: every size here is
    // LRU write-back, so `simulate_many_stream` folds the whole sweep
    // into one stack-distance walk instead of one replay per
    // configuration. The user-only pass streams a filtered view of the
    // same trace rather than copying it.
    let sizes = [1u32 << 10, 4 << 10, 16 << 10, 64 << 10];

    // F1: complete vs user-only, direct-mapped.
    println!("miss rate vs size — complete-system vs user-only trace:");
    println!("{:>8} {:>12} {:>12}", "size", "complete", "user-only");
    let base = CacheConfig::builder().block(16).assoc(1).build().unwrap();
    let cfgs: Vec<CacheConfig> = sizes.iter().map(|&s| base.with_size(s)).collect();
    let full = simulate_many_stream(&mut trace.source(), &cfgs).expect("in-memory source");
    let user =
        simulate_many_stream(&mut UserRefs::new(trace.source()), &cfgs).expect("in-memory source");
    for (i, size) in sizes.iter().enumerate() {
        println!(
            "{:>7}K {:>11.2}% {:>11.2}%",
            size / 1024,
            100.0 * full[i].miss_rate(),
            100.0 * user[i].miss_rate()
        );
    }

    // F2: context-switch policies — both policies of every size in one
    // call; the engine splits them into one stack group per policy.
    println!("\nmiss rate vs size — context-switch policy (2-way):");
    println!("{:>8} {:>12} {:>12}", "size", "flush", "pid-tagged");
    let base = CacheConfig::builder().block(16).assoc(2).build().unwrap();
    let cfgs: Vec<CacheConfig> = sizes
        .iter()
        .flat_map(|&s| {
            [
                base.with_size(s).with_switch(SwitchPolicy::Flush),
                base.with_size(s).with_switch(SwitchPolicy::PidTag),
            ]
        })
        .collect();
    let stats = simulate_many_stream(&mut trace.source(), &cfgs).expect("in-memory source");
    for (i, size) in sizes.iter().enumerate() {
        println!(
            "{:>7}K {:>11.2}% {:>11.2}%",
            size / 1024,
            100.0 * stats[2 * i].miss_rate(),
            100.0 * stats[2 * i + 1].miss_rate()
        );
    }

    println!(
        "\nthe flush column stops improving with size — an untagged cache\n\
         restarts cold on every quantum, which is exactly the effect the\n\
         paper's multiprogrammed traces made visible for the first time."
    );
}
