//! Randomised tests over the full assemble→execute pipeline: random
//! straight-line ALU programs must compute exactly what a host-side
//! interpreter of the same instruction sequence computes, and random
//! multi-core memory programs must leave the same machine whether cores
//! run ahead or keep strict order. Seeds are fixed so failures reproduce
//! exactly.

use vortex_asm::Assembler;
use vortex_isa::{csrs, reg, AluOp, Reg};
use vortex_rng::Rng;
use vortex_sim::{CacheConfig, Device, DeviceConfig, MemConfig, NullSink, TraceSink};

const BASE: u32 = 0x8000_0000;
const DATA: u32 = 0xA000_0000;

/// The registers the generated programs operate on.
const POOL: [Reg; 6] = [reg::T0, reg::T1, reg::T2, reg::T3, reg::T4, reg::T5];

#[derive(Clone, Debug)]
enum Op {
    /// `li pool[dst], imm`
    Li { dst: usize, imm: i32 },
    /// `op pool[dst], pool[a], pool[b]`
    Alu { op: AluOp, dst: usize, a: usize, b: usize },
}

const ALU_OPS: [AluOp; 17] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Mulhu,
    AluOp::Div,
    AluOp::Divu,
    AluOp::Rem,
    AluOp::Remu,
];

fn arb_op(rng: &mut Rng) -> Op {
    if rng.gen_bool() {
        Op::Li { dst: rng.gen_range_usize(0, POOL.len()), imm: rng.next_u32() as i32 }
    } else {
        Op::Alu {
            op: *rng.choose(&ALU_OPS),
            dst: rng.gen_range_usize(0, POOL.len()),
            a: rng.gen_range_usize(0, POOL.len()),
            b: rng.gen_range_usize(0, POOL.len()),
        }
    }
}

/// Host-side model of the same operation semantics (RISC-V).
fn host_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => (((a as i32 as i64).wrapping_mul(b as i32 as i64)) >> 32) as u32,
        AluOp::Mulhsu => (((a as i32 as i64).wrapping_mul(b as u64 as i64)) >> 32) as u32,
        AluOp::Mulhu => (((a as u64).wrapping_mul(b as u64)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32).wrapping_div(b as i32)) as u32
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32).wrapping_rem(b as i32)) as u32
            }
        }
        AluOp::Remu => a.checked_rem(b).unwrap_or(a),
    }
}

/// Random straight-line programs agree with the host model on every pool
/// register.
#[test]
fn straight_line_alu_agrees_with_host() {
    let mut rng = Rng::seed_from_u64(0x5EEDA1);
    for case in 0..128 {
        let ops: Vec<Op> = (0..rng.gen_range_usize(1, 60)).map(|_| arb_op(&mut rng)).collect();

        // Host execution.
        let mut host = [0u32; 6];
        for op in &ops {
            match *op {
                Op::Li { dst, imm } => host[dst] = imm as u32,
                Op::Alu { op, dst, a, b } => host[dst] = host_alu(op, host[a], host[b]),
            }
        }

        // Device execution: same sequence, then store the pool to DATA.
        let mut asm = Assembler::new(BASE);
        for op in &ops {
            match *op {
                Op::Li { dst, imm } => asm.li(POOL[dst], imm),
                Op::Alu { op, dst, a, b } => {
                    asm.emit(vortex_isa::Instr::Op {
                        op,
                        rd: POOL[dst],
                        rs1: POOL[a],
                        rs2: POOL[b],
                    });
                }
            }
        }
        asm.la(reg::S0, DATA);
        for (i, r) in POOL.iter().enumerate() {
            asm.sw(*r, (i * 4) as i32, reg::S0);
        }
        asm.vx_tmc(reg::ZERO);
        let program = asm.assemble().expect("assembles");

        let mut device = Device::new(DeviceConfig::with_topology(1, 1, 2));
        device.load_program(&program);
        device.start_warp(0, BASE);
        device.run(10_000_000, None).expect("runs");
        let device_regs = device.memory().read_u32_vec(DATA, POOL.len());
        assert_eq!(&device_regs[..], &host[..], "case {case}: {ops:?}");
    }
}

/// The scoreboard never changes results: a dependent chain and the same
/// chain with unrelated instructions interleaved produce the same values
/// (timing differs; architecture must not).
#[test]
fn interleaving_does_not_change_results() {
    for seed in 0u32..200 {
        let build = |pad: bool| {
            let mut asm = Assembler::new(BASE);
            asm.li(reg::T0, seed as i32);
            asm.li(reg::T1, 3);
            for _ in 0..8 {
                asm.mul(reg::T0, reg::T0, reg::T1);
                if pad {
                    asm.addi(reg::T2, reg::T2, 1);
                    asm.addi(reg::T3, reg::T3, 7);
                }
                asm.addi(reg::T0, reg::T0, 13);
            }
            asm.la(reg::S0, DATA);
            asm.sw(reg::T0, 0, reg::S0);
            asm.vx_tmc(reg::ZERO);
            asm.assemble().expect("assembles")
        };
        let run = |program: &vortex_asm::Program| {
            let mut device = Device::new(DeviceConfig::with_topology(1, 2, 2));
            device.load_program(program);
            device.start_warp(0, BASE);
            device.run(1_000_000, None).expect("runs");
            device.memory().read_u32(DATA)
        };
        assert_eq!(run(&build(false)), run(&build(true)), "seed {seed}");
    }
}

/// Multi-core differential leg: random loads, stores and ALU work over
/// broadcast, unit-stride and line-stride address rows, every
/// `(core, warp)` in a private region, on a hierarchy small enough to
/// thrash — so stretches of L1 hits (run ahead) and misses (ordered by
/// the device) alternate at random. An untraced run and a run with a
/// sink attached (strict order) must agree on everything observable.
#[test]
fn multi_core_thrash_runs_agree_traced_and_untraced() {
    const CORES: usize = 3;
    const WARPS: usize = 2;
    const REGION: u32 = 0x1_0000;
    let mut config = DeviceConfig::with_topology(CORES, WARPS, 4);
    config.mem = MemConfig {
        l1: CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 64 },
        l1_banks: 2,
        l2: CacheConfig { size_bytes: 8 * 1024, ways: 2, line_bytes: 64 },
        l2_banks: 2,
        ..MemConfig::default()
    };

    let mut rng = Rng::seed_from_u64(0xA4EAD);
    let (mut hits, mut evictions) = (0, 0);
    for case in 0..48 {
        let mut asm = Assembler::new(BASE);
        // s2 = this warp's region; s3/s4 = its unit- and line-stride rows.
        asm.csrr(reg::S0, csrs::CORE_ID);
        asm.slli(reg::S0, reg::S0, 1);
        asm.csrr(reg::S1, csrs::WARP_ID);
        asm.add(reg::S0, reg::S0, reg::S1);
        asm.slli(reg::S0, reg::S0, 16);
        asm.la(reg::S2, DATA);
        asm.add(reg::S2, reg::S2, reg::S0);
        asm.csrr(reg::S1, csrs::THREAD_ID);
        asm.slli(reg::S3, reg::S1, 2);
        asm.add(reg::S3, reg::S3, reg::S2);
        asm.slli(reg::S4, reg::S1, 6);
        asm.add(reg::S4, reg::S4, reg::S2);
        for _ in 0..rng.gen_range_usize(20, 120) {
            let row = *rng.choose(&[reg::S2, reg::S3, reg::S4]);
            let offset = 4 * rng.gen_range_usize(0, 500) as i32;
            let r = *rng.choose(&POOL);
            match rng.gen_range_usize(0, 4) {
                0 => asm.lw(r, offset, row),
                1 => asm.sw(r, offset, row),
                _ => match arb_op(&mut rng) {
                    Op::Li { dst, imm } => asm.li(POOL[dst], imm),
                    Op::Alu { op, dst, a, b } => {
                        asm.emit(vortex_isa::Instr::Op {
                            op,
                            rd: POOL[dst],
                            rs1: POOL[a],
                            rs2: POOL[b],
                        });
                    }
                },
            }
        }
        asm.vx_tmc(reg::ZERO);
        let program = asm.assemble().expect("assembles");

        let run = |sink: Option<&mut dyn TraceSink>| {
            let mut device = Device::new(config);
            device.load_program(&program);
            for core in 0..CORES {
                for warp in 0..WARPS {
                    device.start_warp_at(core, warp, BASE);
                }
            }
            let finish = device.run(10_000_000, sink).expect("runs");
            let memory = device.memory().read_u32_vec(DATA, (CORES * WARPS) * REGION as usize / 4);
            let util = device.dram_utilization();
            (finish, *device.counters(), device.mem_stats(), util.to_bits(), memory)
        };
        let strict = run(Some(&mut NullSink));
        let ahead = run(None);
        assert!(ahead == strict, "case {case}: {:?} vs {:?}", &ahead.0, &strict.0);
        hits += strict.2.l1.hits;
        evictions += strict.2.l1.evictions;
    }
    assert!(hits > 1000 && evictions > 1000, "{hits} L1 hits, {evictions} evictions");
}
