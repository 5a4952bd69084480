//! Cycle-golden regression tests: the perf-oriented simulator paths must
//! not drift timing.
//!
//! The simulator has three run paths that must agree instruction-for-
//! instruction and cycle-for-cycle:
//!
//! * the **traced** path (`dyn TraceSink`, used for Fig. 1),
//! * the **untraced monomorphised** path (`NullSink`, used by the
//!   450-configuration campaigns), and
//! * the **reused-device** path (`Runtime::reset` between runs, used by
//!   `run_campaign` so nothing is rebuilt per measurement).
//!
//! All **nine paper kernels** are pinned (at reduced sizes), so the SoA
//! register-file fast paths are gated kernel by kernel: every kernel's
//! instruction mix exercises a different subset of the full-mask /
//! masked execute loops and the broadcast / unit-stride memory paths.
//! Dedicated white-box programs additionally pin one traced-vs-untraced
//! identity case per execute-loop fast path (divergent masked rows,
//! broadcast loads, unit-stride loads/stores — integer and FP, through
//! the shared `fast_word_load`/`fast_word_store` helpers — uniform
//! power-of-two division, and the masked page-run gather, including a
//! read of a never-written page).
//!
//! On top of the cross-path identity, a table of hard-coded golden finish
//! cycles pins the absolute timing of representative runs, so a change
//! that shifts *all* paths together still fails loudly.

use vortex_gpgpu::prelude::*;
use vortex_kernels::{run_kernel_prepared, Kernel};
use vortex_sim::{DeviceCounters, MemStats};

/// All nine paper kernels at sizes small enough for exhaustive
/// cross-path sweeps.
fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(VecAdd::new(512)),
        Box::new(Relu::new(300)),
        Box::new(Saxpy::new(257)),
        Box::new(Sgemm::new(12, 8, 8)),
        Box::new(Gauss::new(16, 5)),
        Box::new(Knn::new(128)),
        Box::new(GcnAggr::new(48, 160, 4)),
        Box::new(GcnLayer::new(32, 128, 4)),
        Box::new(ResnetLayer::new(6, 4, 4, 2)),
        Box::new(Reduce::new(300)),
    ]
}

fn sweep_corner_configs() -> Vec<DeviceConfig> {
    ["1c2w2t", "2c4w8t", "8c8w8t", "64c32w32t"]
        .iter()
        .map(|s| s.parse().expect("valid topology"))
        .collect()
}

#[derive(Debug, PartialEq)]
struct Fingerprint {
    cycles: u64,
    phase_cycles: Vec<u64>,
    lws: Vec<u32>,
    counters_instructions: u64,
    mem: MemStats,
    dram_utilization_bits: u64,
}

fn fingerprint(outcome: &vortex_kernels::RunOutcome) -> Fingerprint {
    Fingerprint {
        cycles: outcome.cycles,
        phase_cycles: outcome.reports.iter().map(|r| r.cycles).collect(),
        lws: outcome.reports.iter().map(|r| r.lws).collect(),
        counters_instructions: outcome.instructions,
        mem: outcome.mem,
        dram_utilization_bits: outcome.dram_utilization.to_bits(),
    }
}

/// Traced (dyn-dispatch) and untraced (monomorphised) runs are identical
/// in finish cycles, device counters and memory statistics, for every
/// paper kernel.
#[test]
fn traced_and_untraced_paths_agree() {
    for config in sweep_corner_configs() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            for mut kernel in kernels() {
                let untraced = run_kernel(kernel.as_mut(), &config, policy)
                    .unwrap_or_else(|e| panic!("{} {config} {policy}: {e}", kernel.name()));
                let mut sink = VecTraceSink::new();
                let traced = run_kernel_traced(kernel.as_mut(), &config, policy, Some(&mut sink))
                    .unwrap_or_else(|e| panic!("{} {config} {policy}: {e}", kernel.name()));
                assert_eq!(
                    fingerprint(&untraced),
                    fingerprint(&traced),
                    "{} on {config} under {policy}: traced vs untraced drift",
                    kernel.name()
                );
                // The traced run actually observed every issued instruction.
                assert_eq!(
                    sink.events().len() as u64,
                    traced.instructions,
                    "{} on {config} under {policy}: sink missed issues",
                    kernel.name()
                );
            }
        }
    }
}

/// A runtime reused across runs via `reset()` (the campaign path) matches
/// a freshly constructed device run-for-run, for every paper kernel.
#[test]
fn reused_runtime_matches_fresh_device() {
    for config in sweep_corner_configs() {
        for mut kernel in kernels() {
            let program = kernel.build().expect("assembles");
            let mut rt = vortex_core::Runtime::new(config);
            rt.load_program(&program);
            // Deliberately dirty the runtime with a different policy first.
            run_kernel_prepared(kernel.as_mut(), &program, &mut rt, LwsPolicy::Fixed32)
                .unwrap_or_else(|e| panic!("{} {config}: {e}", kernel.name()));
            for policy in [LwsPolicy::Naive1, LwsPolicy::Auto] {
                let reused = run_kernel_prepared(kernel.as_mut(), &program, &mut rt, policy)
                    .unwrap_or_else(|e| panic!("{} {config} {policy}: {e}", kernel.name()));
                let fresh = run_kernel(kernel.as_mut(), &config, policy)
                    .unwrap_or_else(|e| panic!("{} {config} {policy}: {e}", kernel.name()));
                assert_eq!(
                    fingerprint(&reused),
                    fingerprint(&fresh),
                    "{} on {config} under {policy}: reused runtime drifted",
                    kernel.name()
                );
            }
        }
    }
}

/// Device counters agree between a traced and an untraced raw device run
/// (below the runtime layer, catching drift in `Device::run` itself).
#[test]
fn raw_device_counters_agree_across_paths() {
    let kernel = VecAdd::new(256);
    let program = kernel.build().expect("assembles");
    let config: DeviceConfig = "2c2w4t".parse().unwrap();

    let run = |traced: bool| -> (u64, DeviceCounters, MemStats) {
        let mut rt = vortex_core::Runtime::new(config);
        rt.load_program(&program);
        let mut k = VecAdd::new(256);
        if traced {
            let mut sink = VecTraceSink::new();
            run_kernel_traced(&mut k, &config, LwsPolicy::Auto, Some(&mut sink)).unwrap();
        }
        let outcome = run_kernel_prepared(&mut k, &program, &mut rt, LwsPolicy::Auto).unwrap();
        (outcome.cycles, *rt.device().counters(), rt.device().mem_stats())
    };
    assert_eq!(run(false), run(true));
}

// ---------------------------------------------------------------------
// Per-fast-path identity programs.
//
// Each white-box program below is built to steer execution down exactly
// one of the execute-loop fast paths the SoA register file introduced,
// then checked traced-vs-untraced on a raw device: identical finish
// cycle, counters and architectural results.
// ---------------------------------------------------------------------

mod fastpaths {
    use vortex_asm::Assembler;
    use vortex_gpgpu::prelude::*;
    use vortex_isa::reg;
    use vortex_sim::{Device, NullSink, VecTraceSink};

    const BASE: u32 = 0x8000_0000;

    /// Runs `build` on a fresh device traced and untraced; asserts the
    /// cycle/counter/memory fingerprints agree and returns the probed
    /// memory words for an architectural check.
    fn identical_runs(threads: usize, build: impl Fn(&mut Assembler), probe: &[u32]) -> Vec<u32> {
        let run = |traced: bool| -> (u64, u64, u64, Vec<u32>) {
            let mut a = Assembler::new(BASE);
            build(&mut a);
            let program = a.assemble().expect("assembles");
            let mut device = Device::new(DeviceConfig::with_topology(1, 2, threads));
            device.load_program(&program);
            device.start_warp(0, program.entry());
            let finish = if traced {
                let mut sink = VecTraceSink::new();
                device.run(1_000_000, Some(&mut sink)).expect("runs")
            } else {
                device.run_with::<NullSink>(1_000_000, None).expect("runs")
            };
            let mem = device.memory();
            let words = probe.iter().map(|&addr| mem.read_u32(addr)).collect();
            (finish, device.counters().instructions, device.counters().lane_instructions, words)
        };
        let untraced = run(false);
        let traced = run(true);
        assert_eq!(untraced, traced, "traced vs untraced fast-path drift");
        untraced.3
    }

    /// Masked (divergent) row loops: `vx_split` leaves a partial mask and
    /// the arms must write only the live lanes.
    #[test]
    fn masked_rows_identity() {
        let words = identical_runs(
            4,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                a.li(reg::T1, 2);
                // Diverge: lanes with tid < 2 take the then-side.
                a.sltu(reg::T2, reg::T0, reg::T1);
                let else_l = a.label("else");
                a.vx_split(reg::T2, else_l);
                a.addi(reg::T3, reg::ZERO, 11); // live lanes only
                a.bind(else_l).expect("fresh");
                a.vx_join();
                // Store per-lane result: base 0x1000 + 4*tid.
                a.slli(reg::T4, reg::T0, 2);
                a.li_u32(reg::T5, 0x1000);
                a.add(reg::T4, reg::T4, reg::T5);
                a.sw(reg::T3, 0, reg::T4);
                a.vx_tmc(reg::ZERO);
            },
            &[0x1000, 0x1004, 0x1008, 0x100C],
        );
        // Lanes 0,1 wrote 11; lanes 2,3 kept the cleared register.
        assert_eq!(words, vec![11, 11, 0, 0]);
    }

    /// Broadcast loads: every lane reads one uniform address (the
    /// dispatch/argument idiom) — served by a single bulk access.
    #[test]
    fn broadcast_load_identity() {
        let words = identical_runs(
            8,
            |a| {
                // Seed a value, then have all 8 lanes load it uniformly.
                a.li(reg::T0, 1234);
                a.li_u32(reg::T1, 0x2000);
                a.sw(reg::T0, 0, reg::T1);
                a.lw(reg::T2, 0, reg::T1); // broadcast load
                                           // Fan out per lane so the result is observable per lane.
                a.csrr(reg::T3, vortex_isa::csrs::THREAD_ID);
                a.slli(reg::T3, reg::T3, 2);
                a.li_u32(reg::T4, 0x3000);
                a.add(reg::T3, reg::T3, reg::T4);
                a.sw(reg::T2, 0, reg::T3);
                a.vx_tmc(reg::ZERO);
            },
            &[0x3000, 0x3004, 0x301C],
        );
        assert_eq!(words, vec![1234, 1234, 1234]);
    }

    /// Unit-stride loads and stores: lane-consecutive words — the
    /// streaming idiom served by the bulk row path.
    #[test]
    fn unit_stride_load_store_identity() {
        let words = identical_runs(
            8,
            |a| {
                // addr = 0x4000 + 4*tid; store tid*3, reload, store doubled
                // at 0x5000 + 4*tid.
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                a.slli(reg::T1, reg::T0, 2);
                a.li_u32(reg::T2, 0x4000);
                a.add(reg::T2, reg::T2, reg::T1);
                a.li(reg::T3, 3);
                a.mul(reg::T3, reg::T0, reg::T3);
                a.sw(reg::T3, 0, reg::T2); // unit-stride store
                a.lw(reg::T4, 0, reg::T2); // unit-stride load
                a.add(reg::T4, reg::T4, reg::T4); // double it
                a.li_u32(reg::T5, 0x5000);
                a.add(reg::T5, reg::T5, reg::T1);
                a.sw(reg::T4, 0, reg::T5);
                a.vx_tmc(reg::ZERO);
            },
            &[0x4000, 0x4004, 0x401C, 0x5004, 0x501C],
        );
        assert_eq!(words, vec![0, 3, 21, 6, 42]);
    }

    /// Divergent masked word gathers whose lane addresses span several
    /// 4 KiB pages — the batched page-run gather path
    /// (`MainMemory::read_u32_gather`), which the full-mask broadcast /
    /// unit-stride fast paths never reach. One active lane reads a page
    /// nothing ever wrote (architecturally zero).
    #[test]
    fn masked_gather_across_pages_identity() {
        const STRIDE: u32 = 0x1044; // > one 4 KiB page, word-aligned
        let words = identical_runs(
            8,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                // addr = 0x10000 + tid * STRIDE: every lane on its own page.
                a.li_u32(reg::T1, STRIDE);
                a.mul(reg::T1, reg::T0, reg::T1);
                a.li_u32(reg::T2, 0x1_0000);
                a.add(reg::T1, reg::T1, reg::T2);
                // Seed mem[addr] = tid * 7 + 1, except lane 5 (left
                // untouched so its page stays non-resident): diverge on
                // tid != 5 for the seeding store.
                a.li(reg::T3, 5);
                a.sub(reg::T3, reg::T0, reg::T3);
                a.snez(reg::T3, reg::T3);
                let skip_seed = a.label("skip_seed");
                a.vx_split(reg::T3, skip_seed);
                a.li(reg::T4, 7);
                a.mul(reg::T4, reg::T0, reg::T4);
                a.addi(reg::T4, reg::T4, 1);
                a.sw(reg::T4, 0, reg::T1); // scattered store, one page each
                a.bind(skip_seed).expect("fresh");
                a.vx_join();
                // Diverge again: only the even lanes gather, so the load
                // runs under a partial mask with page-spanning addresses.
                a.andi(reg::T5, reg::T0, 1);
                a.seqz(reg::T5, reg::T5);
                let skip_load = a.label("skip_load");
                a.vx_split(reg::T5, skip_load);
                a.lw(reg::T6, 0, reg::T1); // masked page-run gather
                a.bind(skip_load).expect("fresh");
                a.vx_join();
                // Publish per lane: out[tid] = loaded value (0 for odd
                // lanes, whose register kept the cleared value).
                a.slli(reg::A0, reg::T0, 2);
                a.li_u32(reg::A1, 0x3000);
                a.add(reg::A0, reg::A0, reg::A1);
                a.sw(reg::T6, 0, reg::A0);
                a.vx_tmc(reg::ZERO);
            },
            &[0x3000, 0x3008, 0x3010, 0x3018, 0x3004],
        );
        // Even lanes gathered tid*7+1 from their own pages; odd lanes
        // skipped the load (register still zero).
        assert_eq!(words, vec![1, 15, 29, 43, 0]);
    }

    /// A divergent gather where one active lane's page was never written:
    /// the page-run walk must zero-fill exactly like per-lane reads.
    #[test]
    fn masked_gather_reads_untouched_page_as_zero() {
        let words = identical_runs(
            4,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                // addr = 0x40000 + tid * 0x2000 — nothing is ever stored
                // there; mask off lane 0 so the gather is masked.
                a.slli(reg::T1, reg::T0, 13);
                a.li_u32(reg::T2, 0x4_0000);
                a.add(reg::T1, reg::T1, reg::T2);
                a.snez(reg::T3, reg::T0);
                let skip = a.label("skip");
                a.vx_split(reg::T3, skip);
                a.lw(reg::T4, 0, reg::T1);
                a.addi(reg::T4, reg::T4, 9);
                a.bind(skip).expect("fresh");
                a.vx_join();
                a.slli(reg::A0, reg::T0, 2);
                a.li_u32(reg::A1, 0x5000);
                a.add(reg::A0, reg::A0, reg::A1);
                a.sw(reg::T4, 0, reg::A0);
                a.vx_tmc(reg::ZERO);
            },
            &[0x5000, 0x5004, 0x5008, 0x500C],
        );
        assert_eq!(words, vec![0, 9, 9, 9]);
    }

    /// `flw` broadcast and unit-stride plus `fsw` unit-stride: the FP
    /// copies of the four former fast-path blocks, now routed through the
    /// shared `fast_word_load`/`fast_word_store` helpers (the integer
    /// `lw`/`sw` copies are pinned by the tests above).
    #[test]
    fn flw_fsw_fastpath_identity() {
        use vortex_isa::fregs;
        let words = identical_runs(
            8,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                // Seed a uniform scale at 0x6000 (2.0f32) and a unit-stride
                // vector v[tid] = float(tid) at 0x7000 + 4*tid.
                a.li_u32(reg::T1, 0x4000_0000); // 2.0f32 bits
                a.li_u32(reg::T2, 0x6000);
                a.sw(reg::T1, 0, reg::T2);
                a.fcvt_s_w(fregs::FT0, reg::T0);
                a.slli(reg::T3, reg::T0, 2);
                a.li_u32(reg::T4, 0x7000);
                a.add(reg::T4, reg::T4, reg::T3);
                a.fsw(fregs::FT0, 0, reg::T4); // unit-stride fsw (bulk)
                                               // Broadcast flw of the scale, unit-stride flw of v.
                a.flw(fregs::FT1, 0, reg::T2); // broadcast flw (bulk)
                a.flw(fregs::FT2, 0, reg::T4); // unit-stride flw (bulk)
                a.fmul_s(fregs::FT3, fregs::FT1, fregs::FT2);
                // out[tid] = 2.0 * tid at 0x8000 + 4*tid.
                a.li_u32(reg::T5, 0x8000);
                a.add(reg::T5, reg::T5, reg::T3);
                a.fsw(fregs::FT3, 0, reg::T5);
                a.vx_tmc(reg::ZERO);
            },
            &[0x8000, 0x8004, 0x8010, 0x801C],
        );
        let expect: Vec<u32> = [0.0f32, 2.0, 8.0, 14.0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(words, expect);
    }

    /// Uniform power-of-two `divu`/`remu` (the `item / hs` indexing
    /// idiom) — served by the shift/mask path.
    #[test]
    fn pow2_division_identity() {
        let words = identical_runs(
            8,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                a.li(reg::T1, 4); // uniform power-of-two divisor
                a.divu(reg::T2, reg::T0, reg::T1);
                a.remu(reg::T3, reg::T0, reg::T1);
                // out[tid] = q * 100 + r
                a.li(reg::T4, 100);
                a.mul(reg::T2, reg::T2, reg::T4);
                a.add(reg::T2, reg::T2, reg::T3);
                a.slli(reg::T5, reg::T0, 2);
                a.li_u32(reg::T6, 0x6000);
                a.add(reg::T5, reg::T5, reg::T6);
                a.sw(reg::T2, 0, reg::T5);
                a.vx_tmc(reg::ZERO);
            },
            &[0x6000, 0x6004, 0x6014, 0x601C],
        );
        // tid 0 -> 0, tid 1 -> 1, tid 5 -> 101, tid 7 -> 103.
        assert_eq!(words, vec![0, 1, 101, 103]);
    }
}

// ---------------------------------------------------------------------
// Batched memory-transaction pipeline (PR 4).
//
// The programs below steer execution down the miss-heavy legs of
// `MemSystem::access_batch` that the paper kernels' default geometry
// rarely keeps hot: conflict misses, dirty-victim write-backs (the
// folded L2 slot-pair booking), and L1 bank-group serialisation of a
// divergent gather. Each is checked traced-vs-untraced on a deliberately
// under-sized hierarchy, plus an absolute golden finish cycle.
// ---------------------------------------------------------------------

mod batched_mem {
    use vortex_asm::Assembler;
    use vortex_gpgpu::prelude::*;
    use vortex_gpgpu::sim::{CacheConfig, MemConfig};
    use vortex_isa::reg;
    use vortex_sim::{Device, NullSink, VecTraceSink};

    const BASE: u32 = 0x8000_0000;

    /// A 1-core device over an under-sized hierarchy: 512 B direct-mapped
    /// L1 (8 sets), 2 KiB 2-way L2, 2 L1 banks — every strided SIMT
    /// access conflicts, and more than two lines per access exercises the
    /// bank-group serialisation inside one batch.
    fn thrash_config(threads: usize) -> DeviceConfig {
        let mut config = DeviceConfig::with_topology(1, 2, threads);
        config.mem = MemConfig {
            l1: CacheConfig { size_bytes: 512, ways: 1, line_bytes: 64 },
            l1_banks: 2,
            l2: CacheConfig { size_bytes: 2048, ways: 2, line_bytes: 64 },
            l2_banks: 2,
            ..MemConfig::default()
        };
        config
    }

    /// Runs `build` on a fresh thrash-config device traced and untraced;
    /// asserts identical fingerprints and returns the finish cycle plus
    /// the probed memory words.
    fn identical_runs(
        threads: usize,
        build: impl Fn(&mut Assembler),
        probe: &[u32],
    ) -> (u64, Vec<u32>) {
        let run = |traced: bool| -> (u64, u64, u64, Vec<u32>) {
            let mut a = Assembler::new(BASE);
            build(&mut a);
            let program = a.assemble().expect("assembles");
            let mut device = Device::new(thrash_config(threads));
            device.load_program(&program);
            device.start_warp(0, program.entry());
            let finish = if traced {
                let mut sink = VecTraceSink::new();
                device.run(1_000_000, Some(&mut sink)).expect("runs")
            } else {
                device.run_with::<NullSink>(1_000_000, None).expect("runs")
            };
            let mem = device.memory();
            let words = probe.iter().map(|&addr| mem.read_u32(addr)).collect();
            (finish, device.counters().instructions, device.counters().lane_instructions, words)
        };
        let untraced = run(false);
        let traced = run(true);
        assert_eq!(untraced, traced, "traced vs untraced batched-mem drift");
        (untraced.0, untraced.3)
    }

    /// Divergent strided loads whose lanes all map to L1 set 0 of the
    /// direct-mapped thrash cache: every round of the gather conflicts,
    /// re-fills, and (because the seeding stores dirtied the lines)
    /// displaces dirty victims through the folded L2 slot-pair booking.
    #[test]
    fn thrashing_divergent_gather_identity() {
        let (finish, words) = identical_runs(
            8,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                // addrA = 0x1_0000 + tid*512 — all lanes hit L1 set 0.
                a.slli(reg::T1, reg::T0, 9);
                a.li_u32(reg::T2, 0x1_0000);
                a.add(reg::T1, reg::T1, reg::T2);
                // addrB = addrA + 0x2000: the same set, different tags.
                a.li_u32(reg::T3, 0x2000);
                a.add(reg::T3, reg::T1, reg::T3);
                // Seed both (dirty lines): mem[addrA] = tid+1,
                // mem[addrB] = 10*(tid+1) — scattered stores, full mask.
                a.addi(reg::T4, reg::T0, 1);
                a.sw(reg::T4, 0, reg::T1);
                a.li(reg::T5, 10);
                a.mul(reg::T5, reg::T4, reg::T5);
                a.sw(reg::T5, 0, reg::T3);
                // Diverge: only even lanes gather, alternating A and B so
                // the direct-mapped set thrashes on every access.
                a.andi(reg::T6, reg::T0, 1);
                a.seqz(reg::T6, reg::T6);
                let skip = a.label("skip");
                a.vx_split(reg::T6, skip);
                a.lw(reg::A0, 0, reg::T1); // A: evicts B's line (dirty)
                a.lw(reg::A1, 0, reg::T3); // B: evicts A's line
                a.lw(reg::A2, 0, reg::T1); // A again: still conflicting
                a.add(reg::A0, reg::A0, reg::A1);
                a.add(reg::A0, reg::A0, reg::A2);
                a.bind(skip).expect("fresh");
                a.vx_join();
                // out[tid] = A + B + A = 12*(tid+1) for even lanes, 0 odd.
                a.slli(reg::A3, reg::T0, 2);
                a.li_u32(reg::A4, 0x9000);
                a.add(reg::A3, reg::A3, reg::A4);
                a.sw(reg::A0, 0, reg::A3);
                a.vx_tmc(reg::ZERO);
            },
            &[0x9000, 0x9004, 0x9008, 0x9010, 0x901C],
        );
        assert_eq!(words, vec![12, 0, 36, 60, 0]);
        assert_eq!(finish, GOLDEN_THRASH_GATHER, "thrash-gather golden cycle drift");
    }

    /// Full-mask unit-stride streaming, 32 lanes wide: each access spans
    /// two 64-byte lines of a 1 KiB-apart block pair (2× the whole thrash
    /// L1, same sets), so the arithmetic span path feeds the batched walk
    /// a multi-line run that keeps evicting its own previous round.
    #[test]
    fn thrashing_unit_stride_identity() {
        let (finish, words) = identical_runs(
            32,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                // Two streaming rounds over 1 KiB-apart blocks: store
                // tid*5+2 at 0x2_0000 + 4*tid + r*0x400, reload, sum.
                a.slli(reg::T1, reg::T0, 2);
                a.li_u32(reg::T2, 0x2_0000);
                a.add(reg::T1, reg::T1, reg::T2);
                a.li(reg::T3, 5);
                a.mul(reg::T3, reg::T0, reg::T3);
                a.addi(reg::T3, reg::T3, 2);
                a.sw(reg::T3, 0, reg::T1); // unit-stride store, round 0
                a.sw(reg::T3, 0x400, reg::T1); // unit-stride store, round 1
                a.lw(reg::T4, 0, reg::T1); // unit-stride load, round 0
                a.lw(reg::T5, 0x400, reg::T1); // unit-stride load, round 1
                a.add(reg::T4, reg::T4, reg::T5);
                a.li_u32(reg::T6, 0xA000);
                a.slli(reg::A0, reg::T0, 2);
                a.add(reg::A0, reg::A0, reg::T6);
                a.sw(reg::T4, 0, reg::A0);
                a.vx_tmc(reg::ZERO);
            },
            &[0xA000, 0xA004, 0xA01C],
        );
        assert_eq!(words, vec![4, 14, 74]);
        assert_eq!(finish, GOLDEN_THRASH_STRIDE, "thrash-stride golden cycle drift");
    }

    // Captured from the engine after it was verified bit-identical to the
    // PR 3 binary over the 180-run grid (same convention as the golden
    // table below).
    const GOLDEN_THRASH_GATHER: u64 = 281;
    const GOLDEN_THRASH_STRIDE: u64 = 162;
}

// ---------------------------------------------------------------------
// Seams of the one issue walk.
//
// The programs below were written against the seams of the (since
// removed) PR 6 block-fusion engine, which are the seams of any issue
// walk: an indirect jump landing mid-run, a barrier splitting a
// straight-line run, memory ops between arithmetic runs, and a dst==src
// dependence chain the scoreboard must serialise. Each program is
// checked three ways on a raw device — untraced, traced, and recorded
// then replayed (the two outcome sources of `Core::issue`) — plus an
// absolute golden finish cycle.
// ---------------------------------------------------------------------

mod blocks {
    use vortex_asm::Assembler;
    use vortex_gpgpu::prelude::*;
    use vortex_isa::reg;
    use vortex_sim::{Device, NullSink, TraceRecorder, VecTraceSink};

    const BASE: u32 = 0x8000_0000;

    /// Runs `build` on a fresh 1-core device three ways — untraced,
    /// traced, and under a recorder whose record a fourth device then
    /// replays — asserts every observable fingerprint agrees, and returns
    /// the finish cycle and the probed memory words.
    fn identical_runs(
        threads: usize,
        build: impl Fn(&mut Assembler),
        probe: &[u32],
    ) -> (u64, Vec<u32>) {
        let mut a = Assembler::new(BASE);
        build(&mut a);
        let program = a.assemble().expect("assembles");
        let fresh = || {
            let mut device = Device::new(DeviceConfig::with_topology(1, 2, threads));
            device.load_program(&program);
            device.start_warp(0, program.entry());
            device
        };
        let words = |device: &Device| -> Vec<u32> {
            probe.iter().map(|&addr| device.memory().read_u32(addr)).collect()
        };

        let mut untraced = fresh();
        let finish = untraced.run_with::<NullSink>(1_000_000, None).expect("runs");
        let expect = (finish, *untraced.counters(), words(&untraced));

        let mut traced = fresh();
        let mut sink = VecTraceSink::new();
        let finish = traced.run(1_000_000, Some(&mut sink)).expect("runs");
        assert_eq!((finish, *traced.counters(), words(&traced)), expect, "traced drift");

        let mut recording = fresh();
        let mut recorder = TraceRecorder::new(1, 2);
        let finish = recording.run_with(1_000_000, Some(&mut recorder)).expect("runs");
        assert_eq!((finish, *recording.counters(), words(&recording)), expect, "record drift");
        let trace = recorder.finish();
        let launch = &trace.launches[0];

        // Replay keeps no register or memory values: cycles and counters
        // are the whole contract.
        let mut replaying = fresh();
        let mut cursor = launch.cursor();
        let finish = replaying
            .run_replay::<NullSink>(1_000_000, None, launch, &mut cursor)
            .expect("replays");
        assert_eq!((finish, *replaying.counters()), (expect.0, expect.1), "replay drift");
        assert_eq!(launch.leftover(&cursor), 0, "replay left recorded events unconsumed");

        (expect.0, expect.2)
    }

    /// An indirect jump (`jalr`) into the middle of a straight-line run:
    /// execution resumes at the landing pc — skipping exactly the first
    /// two adds after the call site.
    #[test]
    fn jalr_into_mid_block_falls_back() {
        let (finish, words) = identical_runs(
            4,
            |a| {
                let f = a.label("f");
                // Straight-line prologue.
                a.li(reg::T2, 0);
                a.addi(reg::T4, reg::ZERO, 21);
                a.add(reg::T4, reg::T4, reg::T4);
                a.jal(reg::RA, f);
                // Return lands here: one straight-line run until the sw.
                a.addi(reg::T2, reg::T2, 1); // skipped (ra + 0)
                a.addi(reg::T2, reg::T2, 2); // skipped (ra + 4)
                a.addi(reg::T2, reg::T2, 4); // jalr lands here (ra + 8)
                a.addi(reg::T2, reg::T2, 8);
                a.li_u32(reg::T3, 0x1000);
                a.sw(reg::T2, 0, reg::T3);
                a.vx_tmc(reg::ZERO);
                a.bind(f).expect("fresh");
                a.jalr(reg::ZERO, reg::RA, 8); // mid-block entry
            },
            &[0x1000],
        );
        // Only the last two adds ran: 4 + 8.
        assert_eq!(words, vec![12]);
        assert_eq!(finish, GOLDEN_JALR_MID_BLOCK, "jalr mid-block golden cycle drift");
    }

    /// A barrier in the middle of a straight-line run: the arithmetic on
    /// both sides issues back to back, the barrier pays its release
    /// latency between them.
    #[test]
    fn barrier_splits_blocks() {
        let (finish, words) = identical_runs(
            4,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                a.addi(reg::T1, reg::T0, 3);
                a.slli(reg::T2, reg::T1, 1);
                a.add(reg::T2, reg::T2, reg::T0);
                // One-party barrier: releases immediately.
                a.li(reg::T3, 0);
                a.li(reg::T4, 1);
                a.vx_bar(reg::T3, reg::T4);
                a.xori(reg::T5, reg::T2, 5);
                a.sub(reg::T5, reg::T5, reg::T0);
                a.add(reg::T5, reg::T5, reg::T2);
                a.slli(reg::T6, reg::T0, 2);
                a.li_u32(reg::A0, 0x2000);
                a.add(reg::T6, reg::T6, reg::A0);
                a.sw(reg::T5, 0, reg::T6);
                a.vx_tmc(reg::ZERO);
            },
            &[0x2000, 0x2004, 0x2008, 0x200C],
        );
        // tid: a = 2*(tid+3)+tid; out = (a^5) - tid + a.
        let expect: Vec<u32> =
            (0..4u32).map(|t| ((3 * t + 6) ^ 5).wrapping_sub(t) + (3 * t + 6)).collect();
        assert_eq!(words, expect);
        assert_eq!(finish, GOLDEN_BARRIER_SPLIT, "barrier-split golden cycle drift");
    }

    /// An alu/store/load/alu/store sandwich: the loads and stores go
    /// down the memory pipeline between the arithmetic runs, and the
    /// dependent arithmetic waits on the load's completion.
    #[test]
    fn memory_ops_stay_singleton_blocks() {
        let (finish, words) = identical_runs(
            8,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                a.slli(reg::T1, reg::T0, 2);
                a.li_u32(reg::T2, 0x3000);
                a.add(reg::T1, reg::T1, reg::T2);
                a.addi(reg::T3, reg::T0, 7);
                a.sw(reg::T3, 0, reg::T1);
                a.lw(reg::T4, 0, reg::T1);
                a.slli(reg::T4, reg::T4, 1);
                a.addi(reg::T4, reg::T4, 1);
                a.sw(reg::T4, 0x100, reg::T1);
                a.vx_tmc(reg::ZERO);
            },
            &[0x3100, 0x3104, 0x311C],
        );
        // out = 2*(tid+7)+1.
        assert_eq!(words, vec![15, 17, 29]);
        assert_eq!(finish, GOLDEN_MEM_SINGLETON, "mem-singleton golden cycle drift");
    }

    /// A dst==src dependence chain: the scoreboard must serialise each
    /// step on the previous write-back, including the multiply latency in
    /// the middle.
    #[test]
    fn dst_eq_src_chain_schedules_exactly() {
        let (finish, words) = identical_runs(
            4,
            |a| {
                a.csrr(reg::T0, vortex_isa::csrs::THREAD_ID);
                a.addi(reg::T1, reg::T0, 2);
                a.add(reg::T1, reg::T1, reg::T1); // t1 = 2*(tid+2), dst==src1==src2
                a.mul(reg::T1, reg::T1, reg::T1); // t1 = t1^2, long latency
                a.addi(reg::T1, reg::T1, 1); // reads the mul result
                a.slli(reg::T2, reg::T0, 2);
                a.li_u32(reg::T3, 0x4000);
                a.add(reg::T2, reg::T2, reg::T3);
                a.sw(reg::T1, 0, reg::T2);
                a.vx_tmc(reg::ZERO);
            },
            &[0x4000, 0x4004, 0x4008, 0x400C],
        );
        // out = (2*(tid+2))^2 + 1.
        assert_eq!(words, vec![17, 37, 65, 101]);
        assert_eq!(finish, GOLDEN_DST_SRC_CHAIN, "dst==src chain golden cycle drift");
    }

    // Captured from the PR 6 engine after it was verified bit-identical to
    // the PR 5 binary over the 240-run grid (same convention as the golden
    // tables above); unchanged by the removal of fusion.
    const GOLDEN_JALR_MID_BLOCK: u64 = 134;
    const GOLDEN_BARRIER_SPLIT: u64 = 138;
    const GOLDEN_MEM_SINGLETON: u64 = 132;
    const GOLDEN_DST_SRC_CHAIN: u64 = 132;
}

// ---------------------------------------------------------------------
// Big topologies (PR 9), and `cores_per_cluster` as a label.
// ---------------------------------------------------------------------

/// The big-topology path is pinned absolutely: a 256-core run finishes at
/// the golden cycle, so drift in the O(activity) scheduler at scale fails
/// loudly. `cores_per_cluster` only names the configuration — no
/// scheduler code can see it — so the `x16` twin leaves the same
/// fingerprint *and* costs the host the same scheduling work.
#[test]
fn big_topology_256_core_golden() {
    let mut runs = Vec::new();
    for topo in ["256c4w8t", "256c4w8tx16"] {
        let config: DeviceConfig = topo.parse().unwrap();
        let mut kernel = VecAdd::new(4096);
        let program = kernel.build().expect("assembles");
        let mut rt = Runtime::new(config);
        rt.load_program(&program);
        let outcome = run_kernel_prepared(&mut kernel, &program, &mut rt, LwsPolicy::Fixed32)
            .unwrap_or_else(|e| panic!("{topo}: {e}"));
        assert_eq!(outcome.cycles, GOLDEN_256C_VECADD, "{topo}: big-topology golden cycle drift");
        runs.push((fingerprint(&outcome), rt.device().sched_work()));
    }
    assert_eq!(runs[0], runs[1], "the cluster label moved timing or scheduling work");
}

// Captured from the PR 9 engine after it was verified bit-identical to
// the PR 8 binary over the extended 240-run cycle_dump grid.
const GOLDEN_256C_VECADD: u64 = 1391;

/// Absolute golden finish cycles for representative runs. These values
/// were captured from the seed simulator (pre-optimisation) and verified
/// bit-identical against the optimised engine; any future change that
/// shifts them is a timing-semantics change and must be deliberate.
#[test]
fn golden_finish_cycles() {
    let golden: &[(&str, &str, LwsPolicy, u64)] = &[
        ("vecadd", "1c2w4t", LwsPolicy::Naive1, GOLDEN_VECADD_NAIVE),
        ("vecadd", "1c2w4t", LwsPolicy::Auto, GOLDEN_VECADD_AUTO),
        ("gauss", "2c4w8t", LwsPolicy::Auto, GOLDEN_GAUSS_AUTO),
    ];
    for &(name, topo, policy, expected) in golden {
        let config: DeviceConfig = topo.parse().unwrap();
        let mut kernel: Box<dyn Kernel> = match name {
            "vecadd" => Box::new(VecAdd::new(512)),
            "gauss" => Box::new(Gauss::new(16, 5)),
            other => panic!("unknown golden kernel {other}"),
        };
        let outcome = run_kernel(kernel.as_mut(), &config, policy).unwrap();
        assert_eq!(outcome.cycles, expected, "{name} on {topo} under {policy}: golden cycle drift");
    }
}

// Captured once from the verified-identical engines (see test above).
const GOLDEN_VECADD_NAIVE: u64 = 12846;
const GOLDEN_VECADD_AUTO: u64 = 2574;
const GOLDEN_GAUSS_AUTO: u64 = 1088;
