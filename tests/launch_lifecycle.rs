//! White-box goldens for the launch pipeline: precompiled `LaunchPlan`s
//! and the resident-warp dispatch-round lifecycle.
//!
//! The PR 5 refactor made launches the cheap primitive: the host caches a
//! compiled plan per `(gws, lws)` and the simulator keeps warp slots
//! resident across in-kernel dispatch rounds (a first-class `vx_wspawn`
//! round activation, a compact active-core event list).
//! None of that may move a single cycle, so this suite pins the two
//! launch shapes the refactor targets — a **low-occupancy `lws=32`
//! multi-round launch** (the `resnet_layer` attribution from PR 4) and a
//! **single-round full-occupancy launch** — each checked for
//! traced/untraced identity and against a hard-coded golden finish
//! cycle, plus plan-cache reuse producing bit-identical reports.

use vortex_core::{abi, LaunchParams, Runtime};
use vortex_gpgpu::prelude::*;
use vortex_gpgpu::sim::{CacheConfig, MemConfig, NullSink};
use vortex_kernels::{run_kernel_prepared, Kernel, Reduce, RunOutcome};

/// Cycle/counter fingerprint of one run (mirrors `cycle_golden`).
fn fingerprint(outcome: &RunOutcome) -> (u64, Vec<u64>, Vec<u32>, u64, u64, u64, u64) {
    (
        outcome.cycles,
        outcome.reports.iter().map(|r| r.cycles).collect(),
        outcome.reports.iter().map(|r| r.lws).collect(),
        outcome.instructions,
        outcome.dispatch.launches,
        outcome.dispatch.rounds,
        outcome.dispatch.round_tasks,
    )
}

/// Runs `kernel` traced and untraced on `topo`, asserts the two paths
/// agree, and returns the untraced outcome.
fn identical_runs(kernel: &mut dyn Kernel, topo: &str, policy: LwsPolicy) -> RunOutcome {
    let config: DeviceConfig = topo.parse().expect("valid topology");
    let untraced = run_kernel(kernel, &config, policy)
        .unwrap_or_else(|e| panic!("{} {topo} {policy}: {e}", kernel.name()));
    let mut sink = VecTraceSink::new();
    let traced = run_kernel_traced(kernel, &config, policy, Some(&mut sink))
        .unwrap_or_else(|e| panic!("{} {topo} {policy}: {e}", kernel.name()));
    assert_eq!(
        fingerprint(&untraced),
        fingerprint(&traced),
        "{} on {topo} under {policy}: traced vs untraced drift",
        kernel.name()
    );
    untraced
}

/// The PR 4 attribution shape: a fixed `lws = 32` launch whose tasks
/// outnumber one core's slots, so warp 0 re-runs the in-kernel round
/// loop — dispatch rounds back to back, each reactivating the resident
/// worker warps.
#[test]
fn low_occupancy_multi_round_launch_is_pinned() {
    let mut kernel = VecAdd::new(4096); // 128 tasks at lws=32
    let outcome = identical_runs(&mut kernel, "1c4w8t", LwsPolicy::Fixed32);
    let report = &outcome.reports[0];
    assert_eq!(report.lws, 32);
    assert_eq!(report.n_tasks, 128);
    // 128 tasks on 32 slots: 4 rounds on the single core.
    assert_eq!(report.rounds, 4);
    assert_eq!(report.total_rounds, 4);
    assert_eq!(report.scenario, MappingScenario::MultiCall);
    assert_eq!(outcome.dispatch.launches, 1);
    assert_eq!(outcome.dispatch.rounds, 4);
    assert_eq!(outcome.dispatch.round_tasks, 128);
    assert_eq!(outcome.cycles, GOLDEN_MULTI_ROUND, "multi-round golden cycle drift");
}

/// The exact-fit single-round shape: every hardware slot gets one task,
/// the round loop runs once and the launch drains.
#[test]
fn single_round_full_occupancy_launch_is_pinned() {
    let mut kernel = VecAdd::new(128); // 32 tasks at lws=4 on 32 slots
    let outcome = identical_runs(&mut kernel, "1c4w8t", LwsPolicy::Explicit(4));
    let report = &outcome.reports[0];
    assert_eq!(report.lws, 4);
    assert_eq!(report.n_tasks, 32);
    assert_eq!(report.rounds, 1);
    assert_eq!(report.total_rounds, 1);
    assert_eq!(report.scenario, MappingScenario::ExactFit);
    assert_eq!(outcome.dispatch.rounds, 1);
    assert_eq!(outcome.dispatch.round_tasks, 32);
    assert_eq!(outcome.cycles, GOLDEN_SINGLE_ROUND, "single-round golden cycle drift");
}

/// A launch that leaves most of the topology idle: only 2 of 4 cores
/// receive work, so the device's active-core event list runs (and
/// shrinks) without the idle cores ever being scanned.
#[test]
fn partially_active_topology_launch_is_pinned() {
    let mut kernel = VecAdd::new(64); // 2 tasks at lws=32 over 4 cores
    let outcome = identical_runs(&mut kernel, "4c4w8t", LwsPolicy::Fixed32);
    let report = &outcome.reports[0];
    assert_eq!(report.n_tasks, 2);
    assert_eq!(report.active_cores, 2);
    assert_eq!(report.rounds, 1);
    assert_eq!(report.total_rounds, 2);
    assert_eq!(report.scenario, MappingScenario::Underfilled);
    assert_eq!(outcome.cycles, GOLDEN_PARTIAL_TOPOLOGY, "partial-topology golden cycle drift");
}

/// Plan-cache hits must re-execute bit-identically: the same kernel run
/// repeatedly on one runtime (the campaign path) reuses cached plans and
/// reproduces the cold run's reports, cycles and counters exactly.
#[test]
fn plan_cache_hits_are_bit_identical_on_a_real_kernel() {
    let config: DeviceConfig = "2c4w8t".parse().unwrap();
    let mut kernel = VecAdd::new(512);
    let program = kernel.build().expect("assembles");
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let cold = run_kernel_prepared(&mut kernel, &program, &mut rt, LwsPolicy::Fixed32).unwrap();
    let (hits_before, misses) = rt.plan_cache_stats();
    assert_eq!(hits_before, 0);
    assert!(misses > 0, "cold run must compile plans");
    let warm = run_kernel_prepared(&mut kernel, &program, &mut rt, LwsPolicy::Fixed32).unwrap();
    let (hits_after, misses_after) = rt.plan_cache_stats();
    assert_eq!(misses_after, misses, "warm run must not recompile");
    assert!(hits_after > 0, "warm run must hit the plan cache");
    assert_eq!(warm.reports, cold.reports, "cached plan produced a different LaunchReport");
    assert_eq!(fingerprint(&warm), fingerprint(&cold));
}

/// `Runtime::reset` between campaign runs must scale with the state the
/// last run actually touched, not with the topology: a single-task
/// launch on a 16-core device sweeps exactly one core and one L1, and a
/// device that was never (or was just) swept resets nothing at all.
#[test]
fn reset_work_scales_with_touched_state_not_topology() {
    use vortex_sim::ResetWork;
    let config: DeviceConfig = "16c4w8t".parse().unwrap();
    let mut kernel = VecAdd::new(8); // 1 task at lws=32: one active core
    let program = kernel.build().expect("assembles");
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    // A fresh device has nothing to clear — no full-topology sweep.
    rt.reset();
    assert_eq!(rt.device().last_reset_work(), ResetWork::default());
    let outcome = run_kernel_prepared(&mut kernel, &program, &mut rt, LwsPolicy::Fixed32).unwrap();
    assert_eq!(outcome.reports[0].active_cores, 1);
    rt.reset();
    assert_eq!(rt.device().last_reset_work(), ResetWork { cores: 1, l1_caches: 1 });
    // The sweep left the device clean: a second reset finds nothing.
    rt.reset();
    assert_eq!(rt.device().last_reset_work(), ResetWork::default());

    // The same discipline at big-topology scale: one task on a 256-core
    // device still sweeps exactly one core and one L1 — the other 255
    // cores cost zero bytes touched.
    let config: DeviceConfig = "256c4w8tx16".parse().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let outcome = run_kernel_prepared(&mut kernel, &program, &mut rt, LwsPolicy::Fixed32).unwrap();
    assert_eq!(outcome.reports[0].active_cores, 1);
    assert!(rt.device().all_idle(), "all work drained after the run");
    rt.reset();
    assert_eq!(rt.device().last_reset_work(), ResetWork { cores: 1, l1_caches: 1 });
    rt.reset();
    assert_eq!(rt.device().last_reset_work(), ResetWork::default());
}

/// Runs every phase of `kernel` on a fresh runtime — strict global order
/// when `strict` (a sink is attached, if only [`NullSink`]), cores
/// running ahead to their next L1 miss otherwise — and renders everything the run leaves behind:
/// reports, device counters, memory statistics, DRAM utilisation to the
/// bit, and every word of the heap and the dispatch blocks. Also returns
/// the runtime for its scheduler work counts.
fn machine_after(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
    strict: bool,
) -> (String, Runtime) {
    let program = kernel.build().expect("assembles");
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    kernel.setup(&mut rt).expect("setup");
    let mut reports = Vec::new();
    for phase in kernel.phases() {
        let entry = program.symbol(&phase.symbol).expect("phase symbol");
        let params = LaunchParams::new(phase.gws).policy(policy).entry(entry);
        let mut sink = strict.then_some(NullSink);
        reports.push(rt.launch_with(&params, sink.as_mut()).expect("runs"));
    }
    kernel.verify(&rt).expect("verifies");
    let heap_words = (rt.alloc(0).expect("heap top").addr - abi::HEAP_BASE) as usize / 4;
    let device = rt.device();
    let state = format!(
        "{reports:?} {:?} {:?} util={:#x} now={} heap={:?} dispatch={:?}",
        device.counters(),
        device.mem_stats(),
        device.dram_utilization().to_bits(),
        device.now(),
        device.memory().read_u32_vec(abi::HEAP_BASE, heap_words),
        device.memory().read_u32_vec(abi::DISPATCH_BASE, config.cores * 8),
    );
    (state, rt)
}

/// Run-ahead ≡ strict order, kernel by kernel: a sink forces the strict
/// `(cycle, core)` interleaving, an untraced run orders cores only at
/// their L1 misses, and the two must leave the same machine — on a mid
/// and a large topology, on a hierarchy that thrashes, and on 256 cores.
#[test]
fn every_kernel_leaves_the_same_machine_traced_and_untraced() {
    let kernels = || -> Vec<Box<dyn Kernel>> {
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
    };
    let mut thrash: DeviceConfig = "2c4w8t".parse().unwrap();
    thrash.mem = MemConfig {
        l1: CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 64 },
        l1_banks: 2,
        l2: CacheConfig { size_bytes: 8 * 1024, ways: 2, line_bytes: 64 },
        l2_banks: 2,
        ..MemConfig::default()
    };
    let configs = [
        ("4c8w16t", "4c8w16t".parse().unwrap()),
        ("16c16w16t", "16c16w16t".parse().unwrap()),
        ("thrash-2c4w8t", thrash),
        ("256c4w8tx16", "256c4w8tx16".parse().unwrap()),
    ];
    for (label, config) in &configs {
        for mut kernel in kernels() {
            for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
                let (strict, _) = machine_after(kernel.as_mut(), config, policy, true);
                let (ahead, _) = machine_after(kernel.as_mut(), config, policy, false);
                assert!(ahead == strict, "{} on {label} under {policy}", kernel.name());
            }
        }
    }
}

/// The lockstep trip-wire, in deterministic work counts: on a busy
/// 8-core device an untraced run hands a core control once per *miss* —
/// tens of instructions per window — while a sink pins every core to
/// one-cycle windows. A regression to per-cycle windows fails this
/// exactly, on any machine.
#[test]
fn sgemm_on_8_cores_runs_whole_stretches_per_window_unless_traced() {
    let config: DeviceConfig = "8c8w8t".parse().unwrap();
    let mut kernel = Sgemm::paper();
    let (_, rt) = machine_after(&mut kernel, &config, LwsPolicy::Naive1, false);
    let (instructions, work) = (rt.device().counters().instructions, rt.device().sched_work());
    assert!(work.deferred > 0 && work.deferred <= work.windows, "{work:?}");
    assert!(
        instructions >= 50 * work.windows,
        "{instructions} instructions in {work:?}: cores are back in lockstep windows"
    );
    let (_, rt) = machine_after(&mut kernel, &config, LwsPolicy::Naive1, true);
    let strict = rt.device().sched_work();
    assert_eq!(rt.device().counters().instructions, instructions);
    assert_eq!((strict.windows, strict.deferred), (instructions, 0), "{strict:?}");
}

// Golden finish cycles, captured from the engine after it was verified
// bit-identical to the PR 4 binary over the extended 240-run cycle_dump
// grid (same convention as `cycle_golden`).
const GOLDEN_MULTI_ROUND: u64 = 8458;
const GOLDEN_SINGLE_ROUND: u64 = 903;
const GOLDEN_PARTIAL_TOPOLOGY: u64 = 1307;
