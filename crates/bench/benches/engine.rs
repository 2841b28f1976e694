//! Criterion benches of the moving parts: micro-engine throughput with
//! and without the ATUM patches (the slowdown measurement as a timing
//! benchmark), cache-simulation throughput, assembler and control-store
//! build times.

use atum_core::{PatchStyle, Tracer};
use atum_machine::{EngineTier, Machine, MemLayout};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

fn bench_program() -> atum_asm::Image {
    let w = atum_workloads::list_chase("bench", 256, 4_000);
    let src = w
        .source
        .replace("chmk    #1", "nop")
        .replace("chmk    #0", "halt");
    atum_asm::assemble(&format!(".org 0x1000\n{src}\n")).expect("bench program")
}

fn loaded_machine(img: &atum_asm::Image) -> Machine {
    let mut m = Machine::new(MemLayout::small());
    for (a, b) in img.segments() {
        m.write_phys(*a, b).unwrap();
    }
    m.set_gpr(14, 0x8000);
    m.set_pc(img.symbol("start").unwrap());
    m
}

fn engine_throughput(c: &mut Criterion) {
    let img = bench_program();
    // Count the work once for throughput units.
    let mut probe = loaded_machine(&img);
    probe.run(u64::MAX);
    let insns = probe.insns();

    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(insns));
    g.bench_function("untraced", |b| {
        b.iter_batched(
            || loaded_machine(&img),
            |mut m| m.run(u64::MAX),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("atum_scratch", |b| {
        b.iter_batched(
            || {
                let mut m = loaded_machine(&img);
                let t = Tracer::attach_with_style(&mut m, PatchStyle::Scratch).unwrap();
                t.set_enabled(&mut m, true);
                m
            },
            |mut m| m.run(u64::MAX),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("atum_spill", |b| {
        b.iter_batched(
            || {
                let mut m = loaded_machine(&img);
                let t = Tracer::attach_with_style(&mut m, PatchStyle::Spill).unwrap();
                t.set_enabled(&mut m, true);
                m
            },
            |mut m| m.run(u64::MAX),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// Per-tier capture rates (reference vs fast), written machine-readably
/// to `BENCH_capture.json` at the workspace root. Each round runs every
/// configuration on both tiers, and each rate is the best of its
/// rounds, so host-speed drift hits all six alike and cancels in the
/// ratios — the speedups, not the absolute rates, are the pinned
/// result. `mculist cost` gates on this file: every traced slowdown
/// must sit inside the static envelope, and on the fast tier the
/// scratch patch's slowdown is near the envelope's floor of 1.
fn capture_rates(_c: &mut Criterion) {
    if !criterion::filter_matches("engine/capture_rates") {
        return;
    }
    const ROUNDS: usize = 30;
    const TIERS: [EngineTier; 2] = [EngineTier::Reference, EngineTier::Fast];
    const CONFIGS: [(&str, Option<PatchStyle>); 3] = [
        ("untraced", None),
        ("atum_scratch", Some(PatchStyle::Scratch)),
        ("atum_spill", Some(PatchStyle::Spill)),
    ];
    let img = bench_program();
    let load = |style: Option<PatchStyle>| {
        let mut m = loaded_machine(&img);
        if let Some(style) = style {
            let t = Tracer::attach_with_style(&mut m, style).unwrap();
            t.set_enabled(&mut m, true);
        }
        m
    };
    let mut best = [[f64::MAX; 2]; CONFIGS.len()];
    for _ in 0..ROUNDS {
        for (c, &(_, style)) in CONFIGS.iter().enumerate() {
            for (i, &tier) in TIERS.iter().enumerate() {
                let mut m = load(style);
                m.set_engine_tier(tier);
                let t0 = std::time::Instant::now();
                m.run(u64::MAX);
                best[c][i] = best[c][i].min(t0.elapsed().as_secs_f64());
            }
        }
    }
    let mut entries = Vec::new();
    for (&(name, style), best) in CONFIGS.iter().zip(best) {
        let mut probe = load(style);
        probe.run(u64::MAX);
        let insns = probe.insns();
        let reference = insns as f64 / best[0];
        let fast = insns as f64 / best[1];
        println!(
            "bench engine/capture_rates/{name}: reference {reference:.3e} insn/s  \
             fast {fast:.3e} insn/s ({:.2}x)",
            fast / reference
        );
        entries.push(format!(
            "    \"{name}\": {{\n      \"insns\": {insns},\n      \
             \"fast_insns_per_sec\": {fast:.1},\n      \
             \"reference_insns_per_sec\": {reference:.1},\n      \
             \"speedup\": {:.3}\n    }}",
            fast / reference
        ));
    }
    let json = format!(
        "{{\n  \"workload\": \"list_chase nodes=256 steps=4000\",\n  \
         \"unit\": \"architectural instructions per second\",\n  \
         \"configs\": {{\n{}\n  }}\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_capture.json");
    std::fs::write(path, json).expect("write BENCH_capture.json");
}

fn cache_throughput(c: &mut Criterion) {
    // Capture one real trace to drive the simulators.
    let img = bench_program();
    let mut m = loaded_machine(&img);
    let tracer = Tracer::attach(&mut m).unwrap();
    tracer.set_enabled(&mut m, true);
    m.run(u64::MAX);
    let trace = tracer.extract(&m).unwrap();
    let refs = trace.ref_count() as u64;

    let mut g = c.benchmark_group("cache_sim");
    g.throughput(Throughput::Elements(refs));
    for (name, ways) in [("direct_mapped", 1u32), ("4way", 4)] {
        let cfg = atum_cache::CacheConfig::builder()
            .size(16 << 10)
            .block(16)
            .assoc(ways)
            .build()
            .unwrap();
        g.bench_function(name, |b| {
            b.iter(|| atum_cache::simulate_stream(&mut trace.source(), &cfg).unwrap())
        });
    }
    g.finish();
}

fn archsim_throughput(c: &mut Criterion) {
    // The architectural simulator is much faster on the host than the
    // microcoded machine — and sees nothing but one user program. Both
    // facts belong in the technique comparison.
    let img = bench_program();
    let mut probe = atum_baselines::ArchSim::new();
    probe.load_image(&img);
    probe.set_pc(img.symbol("start").unwrap());
    probe.stop_on_halt = true;
    probe.run(u64::MAX);
    let insns = probe.insns();

    let mut g = c.benchmark_group("archsim");
    g.throughput(Throughput::Elements(insns));
    g.bench_function("user_program", |b| {
        b.iter_batched(
            || {
                let mut sim = atum_baselines::ArchSim::new();
                sim.load_image(&img);
                sim.set_pc(img.symbol("start").unwrap());
                sim.stop_on_halt = true;
                sim
            },
            |mut sim| sim.run(u64::MAX),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn build_costs(c: &mut Criterion) {
    let mut g = c.benchmark_group("build");
    g.bench_function("stock_control_store", |b| b.iter(atum_ucode::stock::build));
    let kernel_src = atum_os::kernel::source(&atum_os::KernelOptions::default());
    g.bench_function("assemble_kernel", |b| {
        b.iter(|| atum_asm::assemble(&kernel_src).unwrap())
    });
    g.bench_function("install_patches", |b| {
        b.iter_batched(
            atum_ucode::stock::build,
            |mut cs| atum_core::PatchSet::install(&mut cs).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = engine_throughput, capture_rates, cache_throughput, archsim_throughput, build_costs
}
criterion_main!(benches);
