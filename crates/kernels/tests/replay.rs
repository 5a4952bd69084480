//! Record/replay engine validation over real kernels: bit-identity with
//! execute mode (same config, different timing),
//! record→replay→re-record idempotence, and mismatch rejection.

use vortex_asm::Assembler;
use vortex_core::{LwsPolicy, Runtime};
use vortex_isa::{csrs, reg, Instr};
use vortex_kernels::{
    record_kernel_prepared, replay_kernel_prepared, replay_kernel_traced, run_kernel_prepared,
    Kernel, Reduce, RunOutcome, Saxpy,
};
use vortex_sim::{
    Device, DeviceConfig, IssueEvent, LaunchRecord, NullSink, RecordedTrace, SimError,
    TraceRecorder, VecTraceSink, WarpEvent,
};

/// The whole observable outcome, as the probe would print it.
fn fingerprint(o: &RunOutcome) -> String {
    format!("{o:?}")
}

fn record(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
) -> (RunOutcome, RecordedTrace) {
    let program = kernel.build().unwrap();
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    record_kernel_prepared(kernel, &program, &mut rt, policy).unwrap()
}

fn replay(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
    rec: &RecordedTrace,
) -> RunOutcome {
    let program = kernel.build().unwrap();
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    replay_kernel_prepared(kernel, &program, &mut rt, policy, rec).unwrap()
}

#[test]
fn replay_is_bit_identical_to_execute() {
    let config = DeviceConfig::with_topology(2, 2, 4);
    for policy in [LwsPolicy::Naive1, LwsPolicy::Auto] {
        let mut k = Saxpy::new(256);
        let (executed, rec) = record(&mut k, &config, policy);
        assert!(!rec.tainted, "saxpy reads no timing CSRs");
        let replayed = replay(&mut k, &config, policy, &rec);
        assert_eq!(fingerprint(&executed), fingerprint(&replayed), "{policy}");
    }
}

#[test]
fn barrier_kernel_trace_replays_bit_identically() {
    // The reduction's log-depth phase tree is the non-dense regime: tiny
    // shrinking launches, one record per phase.
    let config = DeviceConfig::with_topology(2, 2, 4);
    let mut k = Reduce::new(200);
    let (executed, rec) = record(&mut k, &config, LwsPolicy::Auto);
    assert_eq!(rec.launches.len(), k.phases().len());
    let replayed = replay(&mut k, &config, LwsPolicy::Auto, &rec);
    assert_eq!(fingerprint(&executed), fingerprint(&replayed));
}

#[test]
fn replay_retimes_under_a_different_timing_model() {
    // The engine's purpose: one recording drives many timing configs.
    // Replaying under altered latencies must equal *executing* under
    // those latencies.
    let base = DeviceConfig::with_topology(2, 2, 4);
    let mut slow = base;
    slow.timing.mul = 9;
    slow.timing.fpu = 11;
    slow.timing.branch_bubble = 5;
    slow.mem.l2_latency += 7;

    let mut k = Saxpy::new(256);
    let (_, rec) = record(&mut k, &base, LwsPolicy::Auto);

    let program = k.build().unwrap();
    let mut rt = Runtime::new(slow);
    rt.load_program(&program);
    let executed = run_kernel_prepared(&mut k, &program, &mut rt, LwsPolicy::Auto).unwrap();
    let replayed = replay(&mut k, &slow, LwsPolicy::Auto, &rec);
    assert_eq!(fingerprint(&executed), fingerprint(&replayed));
}

#[test]
fn replay_retimes_under_a_different_cache_geometry() {
    // Lane addresses are recorded pre-coalescing, so replay re-coalesces
    // against whatever line size the replaying configuration uses —
    // cache geometry (sizes, ways, line bytes, DRAM shape) is re-timed
    // like the latencies are.
    let base = DeviceConfig::with_topology(2, 2, 4);
    let mut small = base;
    small.mem.l1.size_bytes = 4 * 1024;
    small.mem.l1.ways = 2;
    small.mem.l1.line_bytes = 32;
    small.mem.l2.size_bytes = 64 * 1024;
    small.mem.l2.line_bytes = 32;
    small.mem.dram.latency = 160;
    small.mem.dram.channels = 2;

    for k in [&mut Saxpy::new(256) as &mut dyn Kernel, &mut Reduce::new(200)] {
        let (_, rec) = record(k, &base, LwsPolicy::Auto);
        let program = k.build().unwrap();
        let mut rt = Runtime::new(small);
        rt.load_program(&program);
        let executed = run_kernel_prepared(k, &program, &mut rt, LwsPolicy::Auto).unwrap();
        let replayed = replay(k, &small, LwsPolicy::Auto, &rec);
        assert_eq!(fingerprint(&executed), fingerprint(&replayed));
    }
}

#[test]
fn rerecording_a_replay_reproduces_the_trace() {
    let config = DeviceConfig::with_topology(2, 2, 4);
    let mut k = Reduce::new(100);
    let (_, rec) = record(&mut k, &config, LwsPolicy::Auto);

    let program = k.build().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let mut rerec = TraceRecorder::new(config.cores, config.warps);
    replay_kernel_traced(&mut k, &program, &mut rt, LwsPolicy::Auto, &rec, Some(&mut rerec))
        .unwrap();
    assert_eq!(rerec.finish(), rec, "record→replay→re-record must be a fixed point");
}

#[test]
fn mismatched_traces_are_rejected() {
    let config = DeviceConfig::with_topology(2, 2, 4);
    let mut k = Saxpy::new(256);
    let (_, rec) = record(&mut k, &config, LwsPolicy::Auto);

    // Different topology: structural rejection before any launch.
    let other = DeviceConfig::with_topology(4, 2, 4);
    let program = k.build().unwrap();
    let mut rt = Runtime::new(other);
    rt.load_program(&program);
    let err = replay_kernel_prepared(&mut k, &program, &mut rt, LwsPolicy::Auto, &rec);
    assert!(err.is_err(), "topology mismatch must be rejected");

    // Different phase structure: a saxpy trace holds one launch record,
    // the reduction needs one per tree level.
    let mut wrong = Reduce::new(64);
    let program = wrong.build().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let err = replay_kernel_prepared(&mut wrong, &program, &mut rt, LwsPolicy::Auto, &rec);
    assert!(err.is_err(), "phase-count mismatch must be rejected");

    // Structurally compatible but empty streams: the first consumed
    // record is missing and the replay faults instead of guessing.
    // (A foreign program with the *same* dynamic event shape replays its
    // recorded control flow cleanly — that class is excluded by trace
    // keying on the program digest, not by the stream check.)
    let empty = RecordedTrace {
        cores: config.cores,
        warps: config.warps,
        tainted: false,
        launches: vec![vortex_sim::LaunchRecord::new(config.cores, config.warps)],
    };
    let mut k = Saxpy::new(256);
    let program = k.build().unwrap();
    let mut rt = Runtime::new(config);
    rt.load_program(&program);
    let err = replay_kernel_prepared(&mut k, &program, &mut rt, LwsPolicy::Auto, &empty);
    assert!(err.is_err(), "exhausted stream must raise ReplayDiverged");
}

/// Every family of instruction with a recorded outcome, on two warps:
/// `wspawn`, span and lane-set loads and stores, a branch, a divergent
/// `split`/`join`, a two-party `bar` and the halting `tmc`.
fn every_dynamic_family(a: &mut Assembler) {
    let worker = a.label("worker");
    a.li(reg::T0, 2);
    a.la_label(reg::T1, worker);
    a.vx_wspawn(reg::T0, reg::T1);
    a.bind(worker).unwrap();
    a.csrr(reg::T2, csrs::THREAD_ID);
    a.slli(reg::T3, reg::T2, 2);
    a.la(reg::T4, 0x1000);
    a.add(reg::T3, reg::T3, reg::T4);
    a.sw(reg::T2, 0, reg::T3); // unit stride: a span
    a.lw(reg::T5, 0, reg::T3);
    a.mul(reg::T6, reg::T2, reg::T2);
    a.slli(reg::T6, reg::T6, 3);
    a.add(reg::T6, reg::T6, reg::T4);
    a.lw(reg::A0, 0, reg::T6); // tid² stride: a lane set
    a.sw(reg::A0, 0x100, reg::T6);
    let skip = a.label("skip");
    a.beq(reg::ZERO, reg::ZERO, skip);
    a.nop();
    a.bind(skip).unwrap();
    a.andi(reg::A1, reg::T2, 1);
    let join = a.label("join");
    a.vx_split(reg::A1, join);
    a.nop();
    a.bind(join).unwrap();
    a.vx_join();
    a.li(reg::A2, 0);
    a.li(reg::A3, 2);
    a.vx_bar(reg::A2, reg::A3);
    a.vx_tmc(reg::ZERO);
}

#[test]
fn a_recorded_event_of_the_wrong_kind_diverges_at_its_instruction() {
    let mut a = Assembler::new(0x8000_0000);
    every_dynamic_family(&mut a);
    let program = a.assemble().unwrap();
    let fresh = || {
        let mut device = Device::new(DeviceConfig::with_topology(1, 2, 4));
        device.load_program(&program);
        device.start_warp(0, program.entry());
        device
    };
    let mut issues = VecTraceSink::new();
    fresh().run(100_000, Some(&mut issues)).unwrap();
    let mut recorder = TraceRecorder::new(1, 2);
    fresh().run_with(100_000, Some(&mut recorder)).unwrap();
    let launch = recorder.finish().launches.remove(0);

    // The k-th event of a warp's stream belongs to the k-th instruction
    // with a recorded outcome that warp issued.
    let consumers = |w: usize| -> Vec<IssueEvent> {
        let dynamic = |e: &&IssueEvent| {
            e.warp == w
                && (e.instr.is_mem()
                    || matches!(
                        e.instr,
                        Instr::Branch { .. }
                            | Instr::Split { .. }
                            | Instr::Join
                            | Instr::Bar { .. }
                            | Instr::Wspawn { .. }
                            | Instr::Tmc { .. }
                    ))
        };
        issues.events().iter().filter(dynamic).copied().collect()
    };
    let span = |ev: &WarpEvent| matches!(ev, WarpEvent::MemSpan { .. });
    let flip = |ev: &WarpEvent| match ev.clone() {
        WarpEvent::MemSpan { addr0, last, store } => {
            WarpEvent::MemSpan { addr0, last, store: !store }
        }
        WarpEvent::MemLanes { addrs, store } => WarpEvent::MemLanes { addrs, store: !store },
        other => other,
    };
    let ctl = WarpEvent::Ctl { next_pc: 0x8000_0000, tmask: 1 };
    let bar = WarpEvent::Bar { id: 0, count: 1 };
    let wspawn = WarpEvent::Wspawn { count: 1, target: 0x8000_0000 };
    type Is = fn(&Instr) -> bool;
    type Swap<'a> = &'a dyn Fn(&WarpEvent) -> WarpEvent;
    let cases: [(&str, Is, bool, Swap<'_>); 10] = [
        ("branch", |i| matches!(i, Instr::Branch { .. }), false, &|_| WarpEvent::Halt),
        ("split", |i| matches!(i, Instr::Split { .. }), false, &|_| bar.clone()),
        ("join", |i| matches!(i, Instr::Join), false, &|_| wspawn.clone()),
        ("span load", |i| matches!(i, Instr::Load { .. }), true, &|_| ctl.clone()),
        ("lane load as store", |i| matches!(i, Instr::Load { .. }), false, &flip),
        ("span store as load", |i| matches!(i, Instr::Store { .. }), true, &flip),
        ("lane store", |i| matches!(i, Instr::Store { .. }), false, &|_| WarpEvent::Halt),
        ("bar", |i| matches!(i, Instr::Bar { .. }), false, &|_| ctl.clone()),
        ("wspawn", |i| matches!(i, Instr::Wspawn { .. }), false, &|_| bar.clone()),
        ("tmc", |i| matches!(i, Instr::Tmc { .. }), false, &|_| wspawn.clone()),
    ];
    for (family, is, want_span, wrong) in cases {
        let (w, k, pc) = (0..2)
            .find_map(|w| {
                let consumers = consumers(w);
                assert_eq!(consumers.len(), launch.streams()[w].len(), "warp {w}");
                let k = consumers.iter().zip(&launch.streams()[w]).position(|(e, ev)| {
                    is(&e.instr) && (!e.instr.is_mem() || span(ev) == want_span)
                })?;
                Some((w, k, consumers[k].pc))
            })
            .unwrap_or_else(|| panic!("the program has no {family}"));
        let mut streams = launch.streams().to_vec();
        streams[w][k] = wrong(&streams[w][k]);
        let bad = LaunchRecord::from_streams(launch.warps(), streams);
        let err = fresh().run_replay::<NullSink>(100_000, None, &bad, &mut bad.cursor());
        assert_eq!(err, Err(SimError::ReplayDiverged { core: 0, warp: w, pc }), "{family}");
    }
}
