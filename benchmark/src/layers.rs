//! Standalone per-layer measurements: each drives one product layer
//! through its public calls with the workload's own kernels, programs and
//! configurations, outside any campaign. They run in the traced pass
//! only; what the re-driven repetitions show per layer comes from the
//! spans (`runner.rs`).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::drive::{self, RunMode, SimExact, ALL_CLASSES, POLICIES};
use crate::measure::{quantile, ratio};
use crate::metrics::layer_def;
use crate::spans::Spans;
use crate::surface::{
    abi, campaign_key_from_digest, coalesce_lines, csrs, decode, decode_trace, digest_program,
    encode, encode_trace, fregs, reg, Assembler, Device, DeviceConfig, ExecClass, IssueEvent,
    LaunchPlan, LwsPolicy, MemStats, MemSystem, Program, RecordedTrace, RunOutcome, Runtime,
    TraceSink, TraceStore, WarpEvent,
};
use crate::workloads::Setup;

/// Per-layer metric values by catalogue name.
#[derive(Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = layer_def(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values.push((def.name, value));
    }

    /// The recorded value (0 for a layer the workload did not exercise).
    pub fn get(&self, name: &str) -> f64 {
        self.values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Times `f` (which reports how many units it processed) `REPEATS` times
/// and returns the median host ns per unit.
fn median_ns_per_unit(mut f: impl FnMut() -> u64) -> f64 {
    const REPEATS: usize = 5;
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let units = f();
            ratio(t.elapsed().as_nanos() as f64, units as f64)
        })
        .collect();
    quantile(&samples, 0.5)
}

/// `asm.*` and `isa.*`: `Kernel::build` per kernel, then `decode` and
/// `encode ∘ decode` over every program word.
pub fn asm_and_isa(s: &Setup, out: &mut Layers) {
    let assemble = median_ns_per_unit(|| {
        for kernel in &s.kernels {
            black_box(kernel.build().expect("built in set-up already"));
        }
        s.kernels.len() as u64
    });
    out.set("asm.assemble_us", assemble / 1e3);
    let words: Vec<u32> = s.programs.iter().flat_map(|p| p.words().iter().copied()).collect();
    out.set("asm.program_words", words.len() as f64);
    const PASSES: u64 = 200;
    let decode_ns = median_ns_per_unit(|| {
        for _ in 0..PASSES {
            for &w in &words {
                black_box(decode(black_box(w)).is_ok());
            }
        }
        PASSES * words.len() as u64
    });
    out.set("isa.decode_ns_per_word", decode_ns);
    let fails =
        words.iter().filter(|&&w| decode(w).ok().and_then(|i| encode(i).ok()) != Some(w)).count();
    out.set("isa.roundtrip_fail", fails as f64);
}

/// `core.plan_compile_us` and `core.digest_ns_per_key`, over every
/// (kernel, configuration, policy) and (kernel, configuration) of the
/// workload.
pub fn plan_and_digest(s: &Setup, out: &mut Layers) {
    let launches: Vec<(u32, u32, &DeviceConfig)> = s
        .kernels
        .iter()
        .flat_map(|k| k.phases())
        .flat_map(|p| {
            s.configs
                .iter()
                .flat_map(move |c| POLICIES.map(|pol| (p.gws, pol.lws_for(p.gws, c), c)))
        })
        .collect();
    let compile = median_ns_per_unit(|| {
        for &(gws, lws, config) in &launches {
            black_box(LaunchPlan::compile(gws, lws, config));
        }
        launches.len() as u64
    });
    out.set("core.plan_compile_us", compile / 1e3);
    let digests: Vec<u64> = s.programs.iter().map(digest_program).collect();
    let key = median_ns_per_unit(|| {
        for (factory, &digest) in s.factories.iter().zip(&digests) {
            for config in &s.configs {
                black_box(campaign_key_from_digest(factory.name, factory.scale, digest, config));
            }
        }
        (s.factories.len() * s.configs.len()) as u64
    });
    out.set("core.digest_ns_per_key", key);
}

/// Catalogue suffix of a functional-unit class.
fn class_name(class: ExecClass) -> &'static str {
    match class {
        ExecClass::Alu => "alu",
        ExecClass::Mul => "mul",
        ExecClass::Div => "div",
        ExecClass::Fpu => "fpu",
        ExecClass::FDiv => "fdiv",
        ExecClass::FSqrt => "fsqrt",
        ExecClass::Load => "load",
        ExecClass::Store => "store",
        ExecClass::Branch => "branch",
        ExecClass::Simt => "simt",
        ExecClass::Sys => "sys",
    }
}

/// Instructions of the measured class per loop trip.
const CLASS_OPS_PER_TRIP: usize = 32;
/// Loop trips per warp.
const CLASS_TRIPS: i32 = 400;
/// Scratch the load/store loops touch (one line per op, lanes adjacent).
const CLASS_DATA: u32 = 0xA000_0000;

/// One tight loop of `class` instructions for all four warps of a
/// `1c4w8t` device: 32 ops of the class, a counter decrement and the
/// back-edge per trip, so the class is ≥ 94 % of what is issued.
fn class_program(class: ExecClass) -> Program {
    use reg::{A0, A1, A2, S1, T0, T3, ZERO};
    let temps = [reg::T0, reg::T1, reg::T2, reg::T4, reg::T5, reg::T6];
    let ftemps = [fregs::FT2, fregs::FT3, fregs::FT4, fregs::FT5];
    let (f0, f1) = (fregs::FT0, fregs::FT1);
    let mut a = Assembler::new(abi::CODE_BASE);
    let worker = a.label("worker");
    a.li(T0, 4);
    a.la_label(T3, worker);
    a.vx_wspawn(T0, T3);
    a.bind(worker).expect("fresh label");
    a.li(A0, 7);
    a.li(A1, 3);
    a.csrr(A2, csrs::THREAD_ID);
    a.slli(A2, A2, 2);
    a.li_u32(T0, CLASS_DATA);
    a.add(A2, A2, T0);
    a.fcvt_s_w(f0, A0);
    a.fcvt_s_w(f1, A1);
    a.li(S1, CLASS_TRIPS);
    let top = a.here("loop");
    for i in 0..CLASS_OPS_PER_TRIP {
        let t = temps[i % temps.len()];
        let ft = ftemps[i % ftemps.len()];
        let line = (i * 64) as i32;
        match class {
            ExecClass::Alu => match i % 3 {
                0 => a.add(t, A0, A1),
                1 => a.xor(t, A0, A1),
                _ => a.slli(t, A0, 3),
            },
            ExecClass::Mul => a.mul(t, A0, A1),
            ExecClass::Div => a.div(t, A0, A1),
            ExecClass::Fpu => match i % 3 {
                0 => a.fadd_s(ft, f0, f1),
                1 => a.fmul_s(ft, f0, f1),
                _ => a.fmadd_s(ft, f0, f1, f0),
            },
            ExecClass::FDiv => a.fdiv_s(ft, f0, f1),
            ExecClass::FSqrt => a.fsqrt_s(ft, f0),
            ExecClass::Load => a.lw(t, line, A2),
            ExecClass::Store => a.sw(A0, line, A2),
            ExecClass::Branch => {
                let next = a.label(&format!("next{i}"));
                a.beq(ZERO, ZERO, next);
                a.bind(next).expect("fresh label");
            }
            ExecClass::Simt => match i % 4 {
                0 => a.vx_vote_any(t, A0),
                1 => a.vx_vote_all(t, A0),
                2 => {
                    let join = a.label(&format!("join{i}"));
                    a.vx_split(A0, join);
                    a.bind(join).expect("fresh label");
                }
                _ => a.vx_join(),
            },
            ExecClass::Sys => a.fence(),
        }
    }
    a.addi(S1, S1, -1);
    a.bnez(S1, top);
    a.vx_tmc(ZERO);
    a.assemble().expect("class loop assembles")
}

/// `sim.class_ns.*`: host ns per issued instruction of one tight loop per
/// functional-unit class (the microbenchmark style of Arafa et al.,
/// arXiv:1905.08778, turned on the simulator's own host cost).
pub fn class_costs(out: &mut Layers) {
    let config = DeviceConfig::with_topology(1, 4, 8);
    for class in ALL_CLASSES {
        let program = class_program(class);
        let mut device = Device::new(config);
        device.load_program(&program);
        let mut share = 0.0;
        let ns = median_ns_per_unit(|| {
            device.reset();
            device.start_warp(0, program.entry());
            device.run_untraced(u64::MAX).expect("class loop halts");
            let c = device.counters();
            share = ratio(c.classes.get(class) as f64, c.instructions as f64);
            c.instructions
        });
        assert!(share > 0.9, "{} loop issues {share} of its class", class_name(class));
        out.set(&format!("sim.class_ns.{}", class_name(class)), ns);
    }
}

/// Host ns inside `Runtime::launch` of one Eq. 1 policy run of kernel
/// `k`, plus what the run returned.
fn launch_ns(
    s: &mut Setup,
    k: usize,
    rt: &mut Runtime,
    mode: RunMode<'_>,
) -> (u64, RunOutcome, Option<RecordedTrace>) {
    let mut spans = Spans::new();
    let (outcome, trace) = drive::policy_run(
        &mut spans,
        &mut SimExact::default(),
        s.kernels[k].as_mut(),
        &s.programs[k],
        rt,
        LwsPolicy::Auto,
        mode,
    )
    .expect("the traced repetitions ran this cell already");
    (spans.total("core.launch").total_ns, outcome, trace)
}

fn median_u64(samples: &[u64]) -> f64 {
    quantile(&samples.iter().map(|&v| v as f64).collect::<Vec<_>>(), 0.5)
}

/// A sink that keeps every SIMT memory access of a run in the order —
/// and at the cycle — the device submitted it to the memory system.
#[derive(Default)]
struct MemTap {
    now: u64,
    accesses: Vec<(u64, usize, WarpEvent)>,
}

impl TraceSink for MemTap {
    fn on_issue(&mut self, event: &IssueEvent) {
        self.now = event.cycle;
    }

    fn wants_warp_events(&self) -> bool {
        true
    }

    fn on_warp_event(&mut self, core: usize, _warp: usize, event: &WarpEvent) {
        if matches!(event, WarpEvent::MemSpan { .. } | WarpEvent::MemLanes { .. }) {
            self.accesses.push((self.now, core, event.clone()));
        }
    }
}

/// What [`stream_memory`] measured.
struct MemStream {
    walk_ns: u64,
    coalesce_ns: u64,
    gathers: u64,
    lines: u64,
}

/// Submits `tap`'s accesses to a fresh `MemSystem` through the calls the
/// cores make (`access_span`; `coalesce_lines` + `access_batch`), in the
/// device's own order and at its own cycles, so the hierarchy walks the
/// very hit/miss sequence of the run — `expect` (the run's `MemStats`)
/// is asserted. Times the walk, and `coalesce_lines` alone.
fn stream_memory(config: &DeviceConfig, tap: &MemTap, expect: &MemStats) -> MemStream {
    let mut mem = MemSystem::new(config.cores, config.mem);
    let line_bytes = mem.line_bytes();
    let t = Instant::now();
    for (now, core, event) in &tap.accesses {
        match event {
            &WarpEvent::MemSpan { addr0, last, store } => {
                black_box(mem.access_span(*core, addr0, last, *now, store));
            }
            WarpEvent::MemLanes { addrs, store } => {
                let lines = coalesce_lines(addrs.iter().copied(), line_bytes);
                black_box(mem.access_batch(*core, lines.as_slice(), *now, *store));
            }
            _ => unreachable!("the tap keeps memory events only"),
        }
    }
    let walk_ns = t.elapsed().as_nanos() as u64;
    let stats = mem.stats();
    assert_eq!(&stats, expect, "the streamed hierarchy must repeat the run's MemStats");
    let t = Instant::now();
    let mut gathers = 0u64;
    for (_, _, event) in &tap.accesses {
        if let WarpEvent::MemLanes { addrs, .. } = event {
            black_box(coalesce_lines(addrs.iter().copied(), line_bytes));
            gathers += 1;
        }
    }
    let coalesce_ns = t.elapsed().as_nanos() as u64;
    MemStream { walk_ns, coalesce_ns, gathers, lines: stats.loads + stats.stores }
}

/// The recorded-trace lab: every kernel of the workload, on its first
/// configuration under Eq. 1's lws, is executed, recorded and replayed
/// (median launch time of three each), the recording is pushed through
/// the `.vxtr` codec and a `TraceStore`, and the run's memory accesses
/// are streamed through a bare `MemSystem`.
/// Gives `sim.replay_ns_per_instr`, `sim.functional_share`, `trace.*`,
/// `bench.tracestore.*` and `mem.stream_*` / `mem.walk_share_est`.
pub fn trace_lab(s: &mut Setup, dir: &Path, out: &mut Layers) -> std::io::Result<()> {
    const REPEATS: usize = 3;
    let config = s.configs[0];
    let _ = std::fs::remove_dir_all(dir);
    let store = TraceStore::open(dir)?;
    let (mut exec_ns, mut record_ns, mut replay_ns, mut instr) = (0.0, 0.0, 0.0, 0u64);
    let (mut bytes, mut encode_ns, mut decode_ns, mut save_ns, mut load_ns) =
        (0u64, 0.0, 0.0, 0.0, 0.0);
    let (mut walk_ns, mut coalesce_ns, mut gathers, mut lines) = (0u64, 0u64, 0u64, 0u64);
    for k in 0..s.kernels.len() {
        let mut rt = Runtime::new(config);
        rt.load_program(&s.programs[k]);
        let (mut exec, mut record, mut replay) = (Vec::new(), Vec::new(), Vec::new());
        let mut issued = 0;
        let mut trace = None;
        for _ in 0..REPEATS {
            let (ns, outcome, _) = launch_ns(s, k, &mut rt, RunMode::Execute);
            exec.push(ns);
            issued = outcome.instructions;
            let (ns, _, rec) = launch_ns(s, k, &mut rt, RunMode::Record);
            record.push(ns);
            trace = rec;
        }
        let trace = trace.expect("record mode returns the trace");
        for _ in 0..REPEATS {
            replay.push(launch_ns(s, k, &mut rt, RunMode::Replay(&trace)).0);
        }
        instr += issued;
        exec_ns += median_u64(&exec);
        record_ns += median_u64(&record);
        replay_ns += median_u64(&replay);

        let key = k as u64;
        let mut encoded = Vec::new();
        encode_ns += median_ns_per_unit(|| {
            encoded = encode_trace(key, &trace);
            1
        });
        decode_ns += median_ns_per_unit(|| {
            black_box(decode_trace(&encoded).expect("decodes what encode_trace wrote"));
            1
        });
        bytes += encoded.len() as u64;
        if !trace.tainted {
            save_ns += median_ns_per_unit(|| {
                store.save(key, &trace).expect("scratch store is writable");
                1
            });
            load_ns += median_ns_per_unit(|| {
                black_box(store.load(key).expect("saved above"));
                1
            });
        }
        let mut tap = MemTap::default();
        let (_, outcome, _) = launch_ns(s, k, &mut rt, RunMode::Tap(&mut tap));
        let m = stream_memory(&config, &tap, &outcome.mem);
        walk_ns += m.walk_ns;
        coalesce_ns += m.coalesce_ns;
        gathers += m.gathers;
        lines += m.lines;
    }
    std::fs::remove_dir_all(dir)?;
    let kernels = s.kernels.len() as f64;
    out.set("sim.replay_ns_per_instr", ratio(replay_ns, instr as f64));
    out.set("sim.functional_share", 1.0 - ratio(replay_ns, exec_ns));
    out.set("trace.record_overhead", ratio(record_ns, exec_ns));
    out.set("trace.bytes_per_instr", ratio(bytes as f64, instr as f64));
    // bytes / ns = GB/s; × 1e3 = MB/s.
    out.set("trace.encode_mb_per_s", ratio(bytes as f64, encode_ns) * 1e3);
    out.set("trace.decode_mb_per_s", ratio(bytes as f64, decode_ns) * 1e3);
    out.set("bench.tracestore.save_ms", save_ns / 1e6 / kernels);
    out.set("bench.tracestore.load_ms", load_ns / 1e6 / kernels);
    out.set("bench.tracestore.bytes", bytes as f64);
    out.set("mem.stream_ns_per_line", ratio(walk_ns as f64, lines as f64));
    out.set("mem.coalesce_ns_per_access", ratio(coalesce_ns as f64, gathers as f64));
    out.set("mem.walk_share_est", ratio(walk_ns as f64, exec_ns));
    Ok(())
}
