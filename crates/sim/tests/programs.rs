//! End-to-end simulator tests: small assembly programs exercising the
//! SIMT execution model, scheduling and the timing model.

use vortex_asm::Assembler;
use vortex_isa::{csrs, fregs, reg};
use vortex_sim::{Device, DeviceConfig, SimError, VecTraceSink};

const BASE: u32 = 0x8000_0000;
const DATA: u32 = 0xA000_0000;

fn run_on(config: DeviceConfig, build: impl FnOnce(&mut Assembler)) -> Device {
    let mut a = Assembler::new(BASE);
    build(&mut a);
    let program = a.assemble().expect("test program assembles");
    let mut device = Device::new(config);
    device.load_program(&program);
    device.start_warp(0, program.entry());
    device.run(1_000_000, None).expect("test program completes");
    device
}

#[test]
fn store_lane_ids() {
    // Each active lane stores its thread id to DATA + 4*id.
    let device = run_on(DeviceConfig::with_topology(1, 1, 4), |a| {
        a.csrr(reg::T0, csrs::THREAD_ID);
        a.la(reg::T1, DATA);
        a.slli(reg::T2, reg::T0, 2);
        a.add(reg::T1, reg::T1, reg::T2);
        a.sw(reg::T0, 0, reg::T1);
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32_vec(DATA, 4), vec![0, 1, 2, 3]);
}

#[test]
fn counted_loop_accumulates() {
    // sum 1..=10 in t0, store to DATA (lane 0 only via lane-0 address).
    let device = run_on(DeviceConfig::with_topology(1, 1, 1), |a| {
        a.li(reg::T0, 0); // sum
        a.li(reg::T1, 10); // i
        let top = a.here("loop");
        a.add(reg::T0, reg::T0, reg::T1);
        a.addi(reg::T1, reg::T1, -1);
        a.bnez(reg::T1, top);
        a.la(reg::T2, DATA);
        a.sw(reg::T0, 0, reg::T2);
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32(DATA), 55);
}

#[test]
fn split_join_divergence_masks() {
    // Lanes with id < 2 store 111, the others store 222; all lanes then
    // store a completion marker to prove reconvergence.
    let device = run_on(DeviceConfig::with_topology(1, 1, 4), |a| {
        a.csrr(reg::T0, csrs::THREAD_ID);
        a.la(reg::T1, DATA);
        a.slli(reg::T2, reg::T0, 2);
        a.add(reg::T1, reg::T1, reg::T2);
        a.slti(reg::T3, reg::T0, 2); // pred: id < 2
        let else_path = a.label("else");
        let join = a.label("join");
        a.vx_split(reg::T3, else_path);
        a.li(reg::T4, 111);
        a.sw(reg::T4, 0, reg::T1);
        a.j(join);
        a.bind(else_path).unwrap();
        a.li(reg::T4, 222);
        a.sw(reg::T4, 0, reg::T1);
        a.bind(join).unwrap();
        a.vx_join();
        // After reconvergence every lane stores a marker at +16.
        a.li(reg::T5, 7);
        a.sw(reg::T5, 16, reg::T1);
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32_vec(DATA, 4), vec![111, 111, 222, 222]);
    assert_eq!(device.memory().read_u32_vec(DATA + 16, 4), vec![7, 7, 7, 7]);
}

#[test]
fn nested_divergence_reconverges() {
    // Outer split on id<2, inner split on id%2==0. Each lane stores a
    // distinct tag; all tags must land.
    let device = run_on(DeviceConfig::with_topology(1, 1, 4), |a| {
        a.csrr(reg::T0, csrs::THREAD_ID);
        a.la(reg::T1, DATA);
        a.slli(reg::T2, reg::T0, 2);
        a.add(reg::T1, reg::T1, reg::T2);
        a.andi(reg::T6, reg::T0, 1);
        a.seqz(reg::T6, reg::T6); // pred even
        a.slti(reg::T3, reg::T0, 2); // pred id<2

        let outer_else = a.label("outer_else");
        let outer_join = a.label("outer_join");
        let inner_join0 = a.label("inner_join0");
        let inner_else0 = a.label("inner_else0");
        let inner_join1 = a.label("inner_join1");
        let inner_else1 = a.label("inner_else1");

        a.vx_split(reg::T3, outer_else);
        {
            a.vx_split(reg::T6, inner_else0);
            a.li(reg::T4, 10); // id 0 (even, <2)
            a.sw(reg::T4, 0, reg::T1);
            a.j(inner_join0);
            a.bind(inner_else0).unwrap();
            a.li(reg::T4, 11); // id 1
            a.sw(reg::T4, 0, reg::T1);
            a.bind(inner_join0).unwrap();
            a.vx_join();
        }
        a.j(outer_join);
        a.bind(outer_else).unwrap();
        {
            a.vx_split(reg::T6, inner_else1);
            a.li(reg::T4, 20); // id 2
            a.sw(reg::T4, 0, reg::T1);
            a.j(inner_join1);
            a.bind(inner_else1).unwrap();
            a.li(reg::T4, 21); // id 3
            a.sw(reg::T4, 0, reg::T1);
            a.bind(inner_join1).unwrap();
            a.vx_join();
        }
        a.bind(outer_join).unwrap();
        a.vx_join();
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32_vec(DATA, 4), vec![10, 11, 20, 21]);
}

#[test]
fn split_with_empty_side_skips() {
    // All lanes satisfy the predicate: else side empty, no divergence.
    let device = run_on(DeviceConfig::with_topology(1, 1, 4), |a| {
        a.csrr(reg::T0, csrs::THREAD_ID);
        a.la(reg::T1, DATA);
        a.slli(reg::T2, reg::T0, 2);
        a.add(reg::T1, reg::T1, reg::T2);
        a.li(reg::T3, 1); // uniformly true
        let join = a.label("join");
        a.vx_split(reg::T3, join);
        a.li(reg::T4, 5);
        a.sw(reg::T4, 0, reg::T1);
        a.bind(join).unwrap();
        a.vx_join();
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32_vec(DATA, 4), vec![5, 5, 5, 5]);
}

#[test]
fn vote_reductions() {
    let device = run_on(DeviceConfig::with_topology(1, 1, 4), |a| {
        a.csrr(reg::T0, csrs::THREAD_ID);
        a.slti(reg::T1, reg::T0, 2); // lanes 0,1 true
        a.vx_vote_any(reg::T2, reg::T1);
        a.vx_vote_all(reg::T3, reg::T1);
        a.vx_vote_ballot(reg::T4, reg::T1);
        a.la(reg::T5, DATA);
        a.sw(reg::T2, 0, reg::T5);
        a.sw(reg::T3, 4, reg::T5);
        a.sw(reg::T4, 8, reg::T5);
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32(DATA), 1); // any
    assert_eq!(device.memory().read_u32(DATA + 4), 0); // all
    assert_eq!(device.memory().read_u32(DATA + 8), 0b0011); // ballot
}

#[test]
fn wspawn_activates_secondary_warps() {
    // Warp 0 spawns 3 more; every warp stores its warp id.
    let device = run_on(DeviceConfig::with_topology(1, 4, 1), |a| {
        let worker = a.label("worker");
        a.li(reg::T0, 4);
        a.la(reg::T1, 0); // patched below via label address
                          // We cannot la() a label (absolute); emit auipc-style: use the
                          // known code base + symbol after assembly instead. Simplest: the
                          // worker is the next instruction for warp 0 too.
        let _ = reg::T1;
        a.la(reg::T2, BASE + 4 * 4); // address of `worker` (computed below)
        a.vx_wspawn(reg::T0, reg::T2);
        a.bind(worker).unwrap();
        a.csrr(reg::T3, csrs::WARP_ID);
        a.la(reg::T4, DATA);
        a.slli(reg::T5, reg::T3, 2);
        a.add(reg::T4, reg::T4, reg::T5);
        a.sw(reg::T3, 0, reg::T4);
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32_vec(DATA, 4), vec![0, 1, 2, 3]);
}

#[test]
fn barrier_synchronises_warps() {
    // Two warps: warp 1 stores 1 to DATA, both meet at a barrier, then
    // warp 0 reads DATA and stores it to DATA+4. Without the barrier the
    // read could see 0; the scoreboard + barrier make it deterministic.
    let device = run_on(DeviceConfig::with_topology(1, 2, 1), |a| {
        let worker = a.label("worker");
        let after = a.label("after");
        let w0_path = a.label("w0_path");
        a.li(reg::T0, 2);
        a.la(reg::T1, BASE); // worker address placeholder; recomputed below
        let _ = reg::T1;
        // Spawn warp 1 at `worker`.
        a.la(reg::T2, BASE + 6 * 4);
        a.vx_wspawn(reg::T0, reg::T2);
        a.j(after);
        a.nop();
        a.bind(worker).unwrap(); // index 6
                                 // warp 1: store 1 to DATA
        a.la(reg::T3, DATA);
        a.li(reg::T4, 1);
        a.sw(reg::T4, 0, reg::T3);
        a.bind(after).unwrap();
        // both warps: barrier 0 with 2 participants
        a.li(reg::T5, 0);
        a.li(reg::T6, 2);
        a.vx_bar(reg::T5, reg::T6);
        // warp 0 continues; warp 1 halts
        a.csrr(reg::S0, csrs::WARP_ID);
        a.beqz(reg::S0, w0_path);
        a.vx_tmc(reg::ZERO);
        a.bind(w0_path).unwrap();
        a.la(reg::S1, DATA);
        a.lw(reg::S2, 0, reg::S1);
        a.sw(reg::S2, 4, reg::S1);
        a.vx_tmc(reg::ZERO);
    });
    assert_eq!(device.memory().read_u32(DATA + 4), 1);
}

#[test]
fn float_pipeline_computes_saxpy_lane() {
    // One lane computes y = a*x + y over a few elements with fmadd.
    let n = 8u32;
    let mut device = {
        let mut a = Assembler::new(BASE);
        a.la(reg::T0, DATA); // x
        a.la(reg::T1, DATA + 0x1000); // y
        a.li(reg::T2, n as i32);
        a.la(reg::T3, DATA + 0x2000); // a (scalar)
        a.flw(fregs::FA0, 0, reg::T3);
        let top = a.here("loop");
        a.flw(fregs::FA1, 0, reg::T0);
        a.flw(fregs::FA2, 0, reg::T1);
        a.fmadd_s(fregs::FA3, fregs::FA0, fregs::FA1, fregs::FA2);
        a.fsw(fregs::FA3, 0, reg::T1);
        a.addi(reg::T0, reg::T0, 4);
        a.addi(reg::T1, reg::T1, 4);
        a.addi(reg::T2, reg::T2, -1);
        a.bnez(reg::T2, top);
        a.vx_tmc(reg::ZERO);
        let program = a.assemble().unwrap();
        let mut device = Device::new(DeviceConfig::with_topology(1, 1, 1));
        device.load_program(&program);
        device
    };
    let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let y: Vec<f32> = (0..n).map(|i| 10.0 + i as f32).collect();
    device.memory_mut().write_f32_slice(DATA, &x);
    device.memory_mut().write_f32_slice(DATA + 0x1000, &y);
    device.memory_mut().write_f32(DATA + 0x2000, 2.5);
    device.start_warp(0, BASE);
    device.run(1_000_000, None).unwrap();
    let result = device.memory().read_f32_vec(DATA + 0x1000, n as usize);
    for i in 0..n as usize {
        assert_eq!(result[i], 2.5 * x[i] + y[i], "element {i}");
    }
}

#[test]
fn divergent_branch_is_detected() {
    let mut a = Assembler::new(BASE);
    a.csrr(reg::T0, csrs::THREAD_ID);
    let skip = a.label("skip");
    a.beqz(reg::T0, skip); // condition differs across lanes!
    a.nop();
    a.bind(skip).unwrap();
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();
    let mut device = Device::new(DeviceConfig::with_topology(1, 1, 4));
    device.load_program(&program);
    device.start_warp(0, BASE);
    let err = device.run(10_000, None).unwrap_err();
    assert!(matches!(err, SimError::DivergentBranch { .. }), "got {err}");
}

#[test]
fn ecall_traps() {
    let mut a = Assembler::new(BASE);
    a.ecall();
    let program = a.assemble().unwrap();
    let mut device = Device::new(DeviceConfig::default());
    device.load_program(&program);
    device.start_warp(0, BASE);
    let err = device.run(10_000, None).unwrap_err();
    assert!(matches!(err, SimError::Trap { breakpoint: false, .. }), "got {err}");
}

#[test]
fn runaway_loop_hits_cycle_limit() {
    let mut a = Assembler::new(BASE);
    let top = a.here("spin");
    a.j(top);
    let program = a.assemble().unwrap();
    let mut device = Device::new(DeviceConfig::default());
    device.load_program(&program);
    device.start_warp(0, BASE);
    let err = device.run(5_000, None).unwrap_err();
    assert!(matches!(err, SimError::CycleLimit { limit: 5_000 }), "got {err}");
}

#[test]
fn barrier_deadlock_names_its_core_and_warps() {
    // Warp 0 spawns warps 1..4 on core 1; the odd warps wait at a 3-party
    // barrier, the even ones halt — the third party never comes.
    let mut a = Assembler::new(BASE);
    let worker = a.label("worker");
    a.li(reg::T0, 4);
    a.la_label(reg::T1, worker);
    a.vx_wspawn(reg::T0, reg::T1);
    a.bind(worker).unwrap();
    a.csrr(reg::T2, csrs::WARP_ID);
    a.andi(reg::T2, reg::T2, 1);
    let halt = a.label("halt");
    a.beqz(reg::T2, halt);
    a.li(reg::T0, 0);
    a.li(reg::T1, 3);
    a.vx_bar(reg::T0, reg::T1);
    a.bind(halt).unwrap();
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();
    let mut device = Device::new(DeviceConfig::with_topology(2, 4, 2));
    device.load_program(&program);
    device.start_warp(1, BASE);
    let err = device.run(10_000, None).unwrap_err();
    assert!(
        matches!(err, SimError::BarrierDeadlock { core: 1, waiting: 0b1010, .. }),
        "got {err:?}"
    );
    assert!(err.to_string().contains("core 1 warps [1, 3] wait"), "got {err}");
}

#[test]
fn unmapped_pc_is_detected() {
    // Fall off the end of the program (no halting tmc).
    let mut a = Assembler::new(BASE);
    a.nop();
    let program = a.assemble().unwrap();
    let mut device = Device::new(DeviceConfig::with_topology(1, 1, 1));
    device.load_program(&program);
    device.start_warp(0, BASE);
    let err = device.run(10_000, None).unwrap_err();
    assert!(matches!(err, SimError::UnmappedPc { .. }), "got {err}");
}

#[test]
fn trace_records_pc_mask_and_time() {
    let mut a = Assembler::new(BASE);
    a.csrr(reg::T0, csrs::THREAD_ID);
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();
    let mut device = Device::new(DeviceConfig::with_topology(1, 1, 4));
    device.load_program(&program);
    device.start_warp(0, BASE);
    let mut sink = VecTraceSink::new();
    device.run(10_000, Some(&mut sink)).unwrap();
    let events = sink.events();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].pc, BASE);
    assert_eq!(events[0].tmask, 0xF);
    assert_eq!(events[1].pc, BASE + 4);
    assert!(events[1].cycle > events[0].cycle);
}

#[test]
fn determinism_same_cycles_every_run() {
    let build = |a: &mut Assembler| {
        a.csrr(reg::T0, csrs::THREAD_ID);
        a.la(reg::T1, DATA);
        a.slli(reg::T2, reg::T0, 4);
        a.add(reg::T1, reg::T1, reg::T2);
        a.li(reg::T3, 50);
        let top = a.here("loop");
        a.lw(reg::T4, 0, reg::T1);
        a.addi(reg::T4, reg::T4, 3);
        a.sw(reg::T4, 0, reg::T1);
        a.addi(reg::T3, reg::T3, -1);
        a.bnez(reg::T3, top);
        a.vx_tmc(reg::ZERO);
    };
    let d1 = run_on(DeviceConfig::with_topology(2, 4, 8), build);
    let d2 = run_on(DeviceConfig::with_topology(2, 4, 8), build);
    assert_eq!(d1.now(), d2.now());
    assert_eq!(d1.counters().instructions, d2.counters().instructions);
}

#[test]
fn more_warps_hide_memory_latency() {
    // The same per-warp streaming workload on 1 warp vs 8 warps: with
    // more warps the core overlaps misses and finishes in fewer cycles
    // per warp (classic latency hiding, the effect the paper's mapping
    // exploits).
    let build = |a: &mut Assembler| {
        a.csrr(reg::T0, csrs::WARP_ID);
        a.la(reg::T1, DATA);
        a.slli(reg::T2, reg::T0, 12); // 4 KiB stride per warp
        a.add(reg::T1, reg::T1, reg::T2);
        a.li(reg::T3, 32);
        let top = a.here("loop");
        a.lw(reg::T4, 0, reg::T1);
        a.addi(reg::T1, reg::T1, 64); // new line each time
        a.addi(reg::T3, reg::T3, -1);
        a.bnez(reg::T3, top);
        a.vx_tmc(reg::ZERO);
    };

    let one = {
        let mut a = Assembler::new(BASE);
        build(&mut a);
        let p = a.assemble().unwrap();
        let mut d = Device::new(DeviceConfig::with_topology(1, 1, 1));
        d.load_program(&p);
        d.start_warp(0, BASE);
        d.run(1_000_000, None).unwrap()
    };
    let eight = {
        let mut a = Assembler::new(BASE);
        // Warp 0 spawns 8 warps, all run the same loop.
        let p = {
            let mut b = Assembler::new(BASE);
            b.li(reg::T5, 8);
            b.la(reg::T6, BASE + 3 * 4);
            b.vx_wspawn(reg::T5, reg::T6);
            build(&mut b);
            b.assemble().unwrap()
        };
        let _ = &mut a;
        let mut d = Device::new(DeviceConfig::with_topology(1, 8, 1));
        d.load_program(&p);
        d.start_warp(0, BASE);
        d.run(1_000_000, None).unwrap()
    };
    // 8 warps did 8x the work; perfect scaling would take the same time.
    // Requiring < 4x shows substantial latency hiding.
    assert!(
        eight < one * 4,
        "8 warps should hide latency: 1 warp {one} cycles, 8 warps {eight} cycles"
    );
}

#[test]
fn counters_track_lane_utilisation() {
    let device = run_on(DeviceConfig::with_topology(1, 1, 4), |a| {
        a.li(reg::T0, 3); // mask 0b0011: halve occupancy
        a.vx_tmc(reg::T0);
        a.nop();
        a.nop();
        a.vx_tmc(reg::ZERO);
    });
    let c = device.counters();
    assert_eq!(c.instructions, 5);
    // li + tmc at 4 lanes, nop+nop+tmc at 2 lanes
    assert_eq!(c.lane_instructions, 4 + 4 + 2 + 2 + 2);
    let util = c.lane_utilization(4);
    assert!(util < 1.0 && util > 0.5);
}
