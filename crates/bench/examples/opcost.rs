//! Per-op-class cost probe: runs straight-line streams of one micro-op
//! shape on a custom control store and times both engines. Used to aim
//! fast-engine work at the arms that actually cost something.

use atum_machine::EngineTier;
use atum_ucode::{AluOp, CcEffect, ControlStore, MicroOp, MicroReg, Target};

fn stream(name: &str, body: Vec<MicroOp>) -> (String, ControlStore) {
    let mut cs = ControlStore::new();
    // Repeat the body to dilute the back-edge jump, then loop forever.
    let mut ops = Vec::new();
    for _ in 0..64 {
        ops.extend(body.iter().cloned());
    }
    ops.push(MicroOp::Jump(Target::Abs(0)));
    cs.append_routine("probe", ops);
    (name.to_string(), cs)
}

fn main() {
    let cases = vec![
        stream(
            "mov_ss",
            vec![MicroOp::Mov {
                src: MicroReg::T(0),
                dst: MicroReg::T(1),
            }],
        ),
        stream(
            "alu_si",
            vec![MicroOp::Alu {
                op: AluOp::Add,
                a: MicroReg::T(0),
                b: MicroReg::Imm(1),
                dst: MicroReg::T(0),
                cc: CcEffect::None,
                size: atum_arch::DataSize::Long,
            }],
        ),
        {
            // 64 calls to a shared Ret, then the back-edge.
            let mut cs = ControlStore::new();
            let mut ops = vec![MicroOp::Call(Target::Abs(65)); 64];
            ops.push(MicroOp::Jump(Target::Abs(0)));
            ops.push(MicroOp::Ret);
            cs.append_routine("probe", ops);
            ("call_ret".to_string(), cs)
        },
        stream(
            "jumpif_nt",
            vec![
                MicroOp::Alu {
                    op: AluOp::Or,
                    a: MicroReg::Imm(1),
                    b: MicroReg::Imm(1),
                    dst: MicroReg::T(2),
                    cc: CcEffect::None,
                    size: atum_arch::DataSize::Long,
                },
                MicroOp::JumpIf {
                    cond: atum_ucode::MicroCond::UZero,
                    target: Target::Abs(0),
                },
            ],
        ),
        stream("advance_pc", vec![MicroOp::AdvancePc]),
    ];
    const CYCLES: u64 = 4_000_000;
    println!("{:<12} {:>10} {:>10}  ratio", "stream", "fast", "ref");
    for (name, cs) in cases {
        let mut best = [f64::MAX; 2];
        for _ in 0..6 {
            for (i, tier) in [(0, EngineTier::Fast), (1, EngineTier::Reference)] {
                let mut m = atum_machine::Machine::with_control_store(
                    atum_machine::MemLayout::small(),
                    cs.clone(),
                );
                m.set_engine_tier(tier);
                let t0 = std::time::Instant::now();
                m.run(CYCLES);
                best[i] = best[i].min(t0.elapsed().as_secs_f64());
            }
        }
        println!(
            "{:<12} {:>7.2}ns {:>7.2}ns  {:.2}x",
            name,
            best[0] / CYCLES as f64 * 1e9,
            best[1] / CYCLES as f64 * 1e9,
            best[1] / best[0]
        );
    }
}
