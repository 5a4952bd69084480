//! The ordering contract of core-local run-ahead.
//!
//! An untraced run lets every core simulate past the device horizon for
//! as long as what it does is core-local, and parks it at its next L1
//! miss — L1 walked, fills not yet requested — for the device's
//! `(cycle, core)` scan to order. A run with a sink attached keeps strict windows.
//! Both must produce the same machine: these programs put the two side
//! by side where a wrong ordering would show — equal-cycle misses on a
//! one-bank L2, a device-wide counter read mid-stream, a cycle limit in
//! the middle of a stretch.

use vortex_asm::{Assembler, Program};
use vortex_isa::{csrs, reg};
use vortex_sim::{
    CacheConfig, Device, DeviceConfig, DeviceCounters, MemConfig, MemStats, NullSink, SimError,
    TraceSink, VecTraceSink,
};

const BASE: u32 = 0x8000_0000;
/// Per-core result slots, 256 B apart (a line each).
const OUT: u32 = 0xA000_0000;
/// Per-core source data, 4 KiB apart.
const SRC: u32 = 0xA010_0000;

/// A one-bank L2 that accepts a request every 7 cycles: whichever core
/// books first finishes 7 cycles earlier, so booking order is readable
/// off `mcycle`.
fn one_bank(cores: usize) -> DeviceConfig {
    let mut config = DeviceConfig::with_topology(cores, 1, 1);
    config.mem = MemConfig { l2_banks: 1, l2_interval: 7, ..MemConfig::default() };
    config
}

/// `s0 = core id`, `s1 = OUT + 256·core`, `s2 = SRC + 4096·core`.
fn prologue(a: &mut Assembler) {
    a.csrr(reg::S0, csrs::CORE_ID);
    a.la(reg::S1, OUT);
    a.slli(reg::T0, reg::S0, 8);
    a.add(reg::S1, reg::S1, reg::T0);
    a.la(reg::S2, SRC);
    a.slli(reg::T0, reg::S0, 12);
    a.add(reg::S2, reg::S2, reg::T0);
}

/// Everything a run leaves behind that the contract covers.
#[derive(Debug, PartialEq)]
struct Machine {
    result: Result<u64, SimError>,
    now: u64,
    counters: DeviceCounters,
    mem: MemStats,
    dram_utilization: f64,
    out: Vec<u32>,
}

/// Every core of a `cores`-core device, entering at [`BASE`].
fn all_at_base(cores: usize) -> Vec<(usize, u32)> {
    (0..cores).map(|core| (core, BASE)).collect()
}

/// Starts warp 0 of each `(core, pc)` in `starts` and runs to `limit`,
/// strict when `sink` is given.
fn run(
    config: DeviceConfig,
    program: &Program,
    starts: &[(usize, u32)],
    limit: u64,
    sink: Option<&mut dyn TraceSink>,
) -> (Machine, Device) {
    let mut device = Device::new(config);
    device.load_program(program);
    for &(core, pc) in starts {
        device.start_warp(core, pc);
    }
    let result = device.run(limit, sink);
    let machine = Machine {
        result,
        now: device.now(),
        counters: *device.counters(),
        mem: device.mem_stats(),
        dram_utilization: device.dram_utilization(),
        out: (0..config.cores as u32)
            .flat_map(|c| device.memory().read_u32_vec(OUT + 256 * c, 2))
            .collect(),
    };
    (machine, device)
}

/// Runs `program` from `starts` strict (any attached sink will do,
/// [`NullSink`] included) and run-ahead, asserts they left the same
/// machine, and returns it with the strict and the run-ahead device.
fn both_orders_from(
    config: DeviceConfig,
    program: &Program,
    starts: &[(usize, u32)],
    limit: u64,
) -> (Machine, [Device; 2]) {
    let (strict, strict_device) = run(config, program, starts, limit, Some(&mut NullSink));
    let (ahead, device) = run(config, program, starts, limit, None);
    assert_eq!(ahead, strict, "run-ahead left a different machine than strict order");
    (ahead, [strict_device, device])
}

/// [`both_orders_from`] with every core entering at [`BASE`]; returns the
/// machine with the run-ahead device.
fn both_orders(config: DeviceConfig, program: &Program, limit: u64) -> (Machine, Device) {
    let (machine, [_, ahead]) =
        both_orders_from(config, program, &all_at_base(config.cores), limit);
    (machine, ahead)
}

#[test]
fn equal_cycle_first_misses_book_l2_in_ascending_core_id() {
    let mut a = Assembler::new(BASE);
    prologue(&mut a);
    a.lw(reg::T2, 0, reg::S2); // every core's first miss, same cycle
    a.add(reg::T3, reg::T2, reg::T2); // waits for the fill
    a.csrr(reg::T4, csrs::MCYCLE);
    a.sw(reg::T4, 0, reg::S1);
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();

    let (machine, device) = both_orders(one_bank(4), &program, 100_000);
    assert!(machine.result.is_ok());
    let filled: Vec<u32> = machine.out.iter().step_by(2).copied().collect();
    assert!(filled.windows(2).all(|w| w[0] < w[1]), "fills out of core order: {filled:?}");
    // Each core parked at its load and at its result store.
    assert_eq!(device.sched_work().deferred, 8);
}

/// Three cores are due at cycle 0 and the middle one halts on its first
/// instruction: the scan removes it in place, which moves core 2 under
/// the position being visited. Core 2 must still get its cycle-0 turn —
/// in that round, exactly once, after core 0's — so the two
/// first-instruction misses book the L2 in core order, and against a
/// launch it never joined the drained core costs one window and no round.
#[test]
fn a_core_draining_mid_round_does_not_cost_the_next_one_its_turn() {
    let mut a = Assembler::new(BASE);
    let common = a.label("common");
    a.lw(reg::T2, 0, reg::ZERO); // core 0's first instruction: a miss
    a.j(common);
    a.here("core2");
    a.lw(reg::T2, 1024, reg::ZERO); // core 2's: a miss on another line
    a.bind(common).unwrap();
    prologue(&mut a);
    a.add(reg::T3, reg::T2, reg::T2); // waits for the fill
    a.csrr(reg::T4, csrs::MCYCLE);
    a.sw(reg::T4, 0, reg::S1);
    a.here("halt");
    a.vx_tmc(reg::ZERO); // core 1's first instruction
    let program = a.assemble().unwrap();
    let at = |name: &str| program.symbol(name).unwrap();
    let with_middle = [(0, BASE), (1, at("halt")), (2, at("core2"))];
    let without = [with_middle[0], with_middle[2]];

    let (machine, drained) = both_orders_from(one_bank(3), &program, &with_middle, 100_000);
    let (reference, absent) = both_orders_from(one_bank(3), &program, &without, 100_000);
    assert!(machine.result.is_ok());
    assert!(machine.out[0] < machine.out[4], "core 2 booked first: {:?}", machine.out);
    assert_eq!(machine.out, reference.out);
    for (order, (drained, absent)) in
        ["strict", "run-ahead"].iter().zip(drained.iter().zip(&absent))
    {
        let (drained, absent) = (drained.sched_work(), absent.sched_work());
        assert_eq!(
            (drained.rounds, drained.windows, drained.deferred),
            (absent.rounds, absent.windows + 1, absent.deferred),
            "{order}"
        );
    }
}

/// What parks a core is an L1 *miss*, whatever the instruction: a load
/// of a resident line runs ahead, and the same load parks once the
/// warp's own store has evicted that line from a direct-mapped set.
#[test]
fn hits_run_ahead_and_an_eviction_turns_the_next_load_into_a_miss() {
    let mut a = Assembler::new(BASE);
    prologue(&mut a);
    a.lw(reg::T2, 0, reg::S2); // cold: miss
    a.lw(reg::T3, 4, reg::S2); // same line: hit
    a.sw(reg::T3, 1024, reg::S2); // same set, other tag: miss, evicts it
    a.lw(reg::T4, 0, reg::S2); // the first line again: miss (dirty victim)
    a.lw(reg::T5, 8, reg::S2); // hit
    a.sw(reg::T5, 0, reg::S1); // result line: miss
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();

    let mut config = one_bank(2);
    config.mem.l1 = CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 64 };
    let (machine, device) = both_orders(config, &program, 100_000);
    assert!(machine.result.is_ok());
    assert_eq!((machine.mem.l1.hits, machine.mem.l1.misses), (2 * 2, 2 * 4));
    // Lockstep peers: every miss after the first cycle is past the
    // horizon, so each one parked its instruction — and no hit did.
    assert_eq!(device.sched_work().deferred, machine.mem.l1.misses);
}

/// Core 1 runs ahead through `pad` local instructions to its first miss
/// and parks there while the host has not yet simulated core 0 past its
/// own earlier miss; core 0 reaches a second miss at that very cycle a
/// scheduling round later. The lower id must still book first.
#[test]
fn a_lower_core_arriving_later_in_host_order_still_books_first() {
    let build = |pad: u64| {
        let mut a = Assembler::new(BASE);
        prologue(&mut a);
        let core1 = a.label("core1");
        let tail = a.label("tail");
        a.bnez(reg::S0, core1);
        a.lw(reg::T2, 0, reg::S2); // core 0's early miss
        a.add(reg::T3, reg::T2, reg::T2);
        a.here("load_b");
        a.lw(reg::T2, 512, reg::S2); // core 0's second miss
        a.j(tail);
        a.bind(core1).unwrap();
        for _ in 0..pad {
            a.nop();
        }
        a.here("load_c");
        a.lw(reg::T2, 0, reg::S2); // core 1's first miss
        a.bind(tail).unwrap();
        a.add(reg::T3, reg::T2, reg::T2);
        a.csrr(reg::T4, csrs::MCYCLE);
        a.sw(reg::T4, 0, reg::S1);
        a.vx_tmc(reg::ZERO);
        a.assemble().unwrap()
    };
    // Issue cycles of the two marked loads under strict order.
    let marked = |program: &Program| {
        let mut sink = VecTraceSink::new();
        let (machine, _) = run(one_bank(2), program, &all_at_base(2), 100_000, Some(&mut sink));
        assert!(machine.result.is_ok());
        let at = |name: &str| {
            let pc = program.symbol(name).unwrap();
            sink.events().iter().find(|e| e.pc == pc).unwrap().cycle
        };
        (at("load_b"), at("load_c"))
    };
    let (b, c) = marked(&build(0));
    assert!(b > c, "core 0's second miss comes after a DRAM round trip");
    let program = build(b - c);
    let (b, c) = marked(&program);
    assert_eq!(b, c, "the padded loads issue on the same cycle");

    let (machine, _) = both_orders(one_bank(2), &program, 100_000);
    assert!(machine.out[0] < machine.out[2], "core 1 booked first: {:?}", machine.out);
}

/// `minstret` counts what *every* core has issued, so a read is exact
/// only if no core has been simulated past it: each core here keeps
/// issuing core-local work after its first read, which the next core's
/// read at the same cycle must not see.
#[test]
fn minstret_reads_the_same_values_in_both_orders() {
    let mut a = Assembler::new(BASE);
    prologue(&mut a);
    for _ in 0..3 {
        a.addi(reg::T1, reg::T1, 1);
    }
    a.csrr(reg::T4, csrs::MINSTRET);
    for _ in 0..5 {
        a.addi(reg::T1, reg::T1, 1);
    }
    a.csrr(reg::T5, csrs::MINSTRET);
    a.sw(reg::T4, 0, reg::S1);
    a.sw(reg::T5, 4, reg::S1);
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();

    let (machine, _) = both_orders(DeviceConfig::with_topology(4, 1, 1), &program, 100_000);
    assert!(machine.result.is_ok());
    // Lockstep cores: each read sees the lower-id cores' same-cycle issue.
    for core in 1..4 {
        assert_eq!(machine.out[2 * core], machine.out[0] + core as u32, "{:?}", machine.out);
        assert_eq!(machine.out[2 * core + 1], machine.out[1] + core as u32, "{:?}", machine.out);
    }
    assert_eq!(machine.out[1] - machine.out[0], 4 * 6);
}

/// A cycle limit that falls in the middle of a core-local stretch stops
/// the run-ahead run where it stops the strict one: nothing issues at a
/// cycle past the limit.
#[test]
fn a_cycle_limit_inside_a_stretch_issues_nothing_past_it() {
    let mut a = Assembler::new(BASE);
    prologue(&mut a);
    a.lw(reg::T2, 0, reg::S2);
    a.li(reg::T0, 100_000);
    let spin = a.here("spin");
    a.addi(reg::T0, reg::T0, -1);
    a.bnez(reg::T0, spin);
    a.vx_tmc(reg::ZERO);
    let program = a.assemble().unwrap();

    for limit in [3, 50, 777, 12_345] {
        let (machine, _) = both_orders(one_bank(3), &program, limit);
        assert_eq!(machine.result, Err(SimError::CycleLimit { limit }));
        assert!(machine.now <= limit);
    }
}
