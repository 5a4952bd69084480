//! Edge-case tests of the execution model: error detection, CSR values,
//! latency observability and memory ordering.

use vortex_asm::Assembler;
use vortex_isa::{csrs, reg};
use vortex_sim::{Device, DeviceConfig, LaunchRecord, NullSink, SimError};

const BASE: u32 = 0x8000_0000;
const DATA: u32 = 0xA000_0000;

fn device_for(build: impl FnOnce(&mut Assembler), config: DeviceConfig) -> Device {
    let mut a = Assembler::new(BASE);
    build(&mut a);
    let program = a.assemble().expect("assembles");
    let mut device = Device::new(config);
    device.load_program(&program);
    device.start_warp(0, program.entry());
    device
}

#[test]
fn ipdom_overflow_is_detected() {
    let mut config = DeviceConfig::with_topology(1, 1, 2);
    config.ipdom_depth = 4;
    let mut device = device_for(
        |a| {
            a.csrr(reg::T0, csrs::THREAD_ID);
            // Nest more splits than the stack allows; never join.
            let mut labels = Vec::new();
            for i in 0..6 {
                let l = a.label(&format!("skip{i}"));
                a.vx_split(reg::T0, l);
                labels.push(l);
            }
            for l in labels {
                a.bind(l).unwrap();
            }
            a.vx_tmc(reg::ZERO);
        },
        config,
    );
    let err = device.run(100_000, None).unwrap_err();
    assert!(matches!(err, SimError::IpdomOverflow { .. }), "got {err}");
}

#[test]
fn ipdom_underflow_is_detected() {
    let mut device = device_for(
        |a| {
            a.vx_join(); // no matching split
        },
        DeviceConfig::with_topology(1, 1, 2),
    );
    let err = device.run(100_000, None).unwrap_err();
    assert!(matches!(err, SimError::IpdomUnderflow { .. }), "got {err}");
}

#[test]
fn wspawn_beyond_hardware_is_detected() {
    let mut device = device_for(
        |a| {
            a.li(reg::T0, 100); // core only has 2 warps
            a.la(reg::T1, BASE);
            a.vx_wspawn(reg::T0, reg::T1);
        },
        DeviceConfig::with_topology(1, 2, 2),
    );
    let err = device.run(100_000, None).unwrap_err();
    assert!(matches!(err, SimError::WspawnTooManyWarps { requested: 100, .. }), "got {err}");
}

#[test]
fn misaligned_word_access_is_detected() {
    let mut device = device_for(
        |a| {
            a.la(reg::T0, DATA + 2);
            a.lw(reg::T1, 0, reg::T0);
            a.vx_tmc(reg::ZERO);
        },
        DeviceConfig::with_topology(1, 1, 1),
    );
    let err = device.run(100_000, None).unwrap_err();
    assert!(matches!(err, SimError::MisalignedAccess { align: 4, .. }), "got {err}");
}

#[test]
fn halfword_and_byte_accesses_work() {
    let mut device = device_for(
        |a| {
            a.la(reg::T0, DATA);
            a.li(reg::T1, -2); // 0xFFFFFFFE
            a.sh(reg::T1, 0, reg::T0);
            a.sb(reg::T1, 8, reg::T0);
            a.lh(reg::T2, 0, reg::T0); // sign-extended
            a.lhu(reg::T3, 0, reg::T0); // zero-extended
            a.lb(reg::T4, 8, reg::T0);
            a.lbu(reg::T5, 8, reg::T0);
            a.sw(reg::T2, 16, reg::T0);
            a.sw(reg::T3, 20, reg::T0);
            a.sw(reg::T4, 24, reg::T0);
            a.sw(reg::T5, 28, reg::T0);
            a.vx_tmc(reg::ZERO);
        },
        DeviceConfig::with_topology(1, 1, 1),
    );
    device.run(100_000, None).unwrap();
    let mem = device.memory();
    assert_eq!(mem.read_u32(DATA + 16), 0xFFFF_FFFE); // lh sign-extends
    assert_eq!(mem.read_u32(DATA + 20), 0x0000_FFFE); // lhu zero-extends
    assert_eq!(mem.read_u32(DATA + 24), 0xFFFF_FFFE); // lb sign-extends
    assert_eq!(mem.read_u32(DATA + 28), 0x0000_00FE); // lbu zero-extends
}

#[test]
fn identity_csrs_report_topology() {
    let config = DeviceConfig::with_topology(3, 4, 8);
    let mut device = device_for(
        |a| {
            a.la(reg::T0, DATA);
            a.csrr(reg::T1, csrs::NUM_CORES);
            a.sw(reg::T1, 0, reg::T0);
            a.csrr(reg::T1, csrs::NUM_WARPS);
            a.sw(reg::T1, 4, reg::T0);
            a.csrr(reg::T1, csrs::NUM_THREADS);
            a.sw(reg::T1, 8, reg::T0);
            a.csrr(reg::T1, csrs::CORE_ID);
            a.sw(reg::T1, 12, reg::T0);
            a.csrr(reg::T1, csrs::THREAD_MASK);
            a.sw(reg::T1, 16, reg::T0);
            a.vx_tmc(reg::ZERO);
        },
        config,
    );
    device.run(100_000, None).unwrap();
    let v = device.memory().read_u32_vec(DATA, 5);
    assert_eq!(v, vec![3, 4, 8, 0, 0xFF]);
}

#[test]
fn mcycle_is_monotonic() {
    let mut device = device_for(
        |a| {
            a.la(reg::T0, DATA);
            a.csrr(reg::T1, csrs::MCYCLE);
            a.nop();
            a.nop();
            a.nop();
            a.csrr(reg::T2, csrs::MCYCLE);
            a.sw(reg::T1, 0, reg::T0);
            a.sw(reg::T2, 4, reg::T0);
            a.vx_tmc(reg::ZERO);
        },
        DeviceConfig::with_topology(1, 1, 1),
    );
    device.run(100_000, None).unwrap();
    let t1 = device.memory().read_u32(DATA);
    let t2 = device.memory().read_u32(DATA + 4);
    assert!(t2 > t1, "mcycle must advance: {t1} -> {t2}");
}

#[test]
fn div_latency_exceeds_alu_latency() {
    // Two identical programs, one with a dependent div chain, one with a
    // dependent add chain: the div version must take longer.
    let run_chain = |use_div: bool| {
        let mut device = device_for(
            |a| {
                a.li(reg::T0, 1_000_000);
                a.li(reg::T1, 3);
                for _ in 0..16 {
                    if use_div {
                        a.divu(reg::T0, reg::T0, reg::T1);
                    } else {
                        a.add(reg::T0, reg::T0, reg::T1);
                    }
                }
                a.vx_tmc(reg::ZERO);
            },
            DeviceConfig::with_topology(1, 1, 1),
        );
        device.run(100_000, None).unwrap()
    };
    let div_cycles = run_chain(true);
    let add_cycles = run_chain(false);
    assert!(
        div_cycles > add_cycles + 100,
        "divide chain ({div_cycles}) must be much slower than add chain ({add_cycles})"
    );
}

#[test]
fn partial_tmc_masks_lanes() {
    let mut device = device_for(
        |a| {
            a.li(reg::T0, 0b0101);
            a.vx_tmc(reg::T0);
            a.csrr(reg::T1, csrs::THREAD_ID);
            a.la(reg::T2, DATA);
            a.slli(reg::T3, reg::T1, 2);
            a.add(reg::T2, reg::T2, reg::T3);
            a.li(reg::T4, 1);
            a.sw(reg::T4, 0, reg::T2);
            a.vx_tmc(reg::ZERO);
        },
        DeviceConfig::with_topology(1, 1, 4),
    );
    device.run(100_000, None).unwrap();
    assert_eq!(device.memory().read_u32_vec(DATA, 4), vec![1, 0, 1, 0]);
}

#[test]
fn function_call_and_return() {
    let mut device = device_for(
        |a| {
            let func = a.label("func");
            let after = a.label("after");
            a.li(reg::A0, 5);
            a.jal(reg::RA, func);
            a.la(reg::T0, DATA);
            a.sw(reg::A0, 0, reg::T0);
            a.j(after);
            a.bind(func).unwrap();
            a.slli(reg::A0, reg::A0, 1); // a0 *= 2
            a.ret();
            a.bind(after).unwrap();
            a.vx_tmc(reg::ZERO);
        },
        DeviceConfig::with_topology(1, 1, 2),
    );
    device.run(100_000, None).unwrap();
    assert_eq!(device.memory().read_u32(DATA), 10);
}

#[test]
fn device_reset_restores_clean_state() {
    let config = DeviceConfig::with_topology(1, 1, 2);
    let mut a = Assembler::new(BASE);
    a.la(reg::T0, DATA);
    a.li(reg::T1, 42);
    a.sw(reg::T1, 0, reg::T0);
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();

    let mut device = Device::new(config);
    device.load_program(&program);
    device.start_warp(0, BASE);
    let first = device.run(100_000, None).unwrap();
    assert_eq!(device.memory().read_u32(DATA), 42);

    device.reset();
    assert_eq!(device.now(), 0);
    assert_eq!(device.memory().read_u32(DATA), 0, "data memory cleared");
    device.start_warp(0, BASE);
    let second = device.run(100_000, None).unwrap();
    assert_eq!(first, second, "reset must restore identical timing");
}

#[test]
fn replay_of_a_record_from_another_topology_is_rejected() {
    // A 1x1 record (and its cursor) on a 2x2 device: the per-warp stream
    // index `core * warps + warp` would run past both.
    let halt = |a: &mut Assembler| a.vx_tmc(reg::ZERO);
    let mut device = device_for(halt, DeviceConfig::with_topology(2, 2, 2));
    let small = LaunchRecord::new(1, 1);
    let err = device.run_replay::<NullSink>(1_000, None, &small, &mut small.cursor()).unwrap_err();
    assert_eq!(err, SimError::ReplayShape { streams: 1, warps: 1, device: (2, 2) });

    // Right stream count, wrong stride (4x1 on 2x2), and a right-shaped
    // record driven with another record's cursor.
    let strided = LaunchRecord::new(4, 1);
    let err =
        device.run_replay::<NullSink>(1_000, None, &strided, &mut strided.cursor()).unwrap_err();
    assert_eq!(err, SimError::ReplayShape { streams: 4, warps: 1, device: (2, 2) });
    let fitting = LaunchRecord::new(2, 2);
    let err =
        device.run_replay::<NullSink>(1_000, None, &fitting, &mut small.cursor()).unwrap_err();
    assert_eq!(err, SimError::ReplayShape { streams: 1, warps: 2, device: (2, 2) });
    assert_eq!(device.counters().instructions, 0, "rejected before anything ran");
}
