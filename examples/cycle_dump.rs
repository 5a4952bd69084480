//! Dumps cycles, counters and memory statistics for a grid of
//! (kernel, configuration, policy) runs. Used to check bit-identical
//! timing across simulator implementations:
//!
//! ```text
//! cargo run --release --example cycle_dump > cycles.txt
//! ```
//!
//! The default grid (11 kernels × 6 topologies × 3 policies = 198 rows;
//! the reduction rides at the end so the first 180 rows stay diffable
//! against pre-PR10 dumps) is frozen so dumps diff cleanly across PRs.
//! Modes (any order, any combination; any other argument is an error, so a
//! mistyped mode cannot print the plain grid and pass a diff vacuously):
//!
//! * `extended` appends a **cache-thrashing** section: the same policies
//!   over a deliberately under-sized memory hierarchy (1 KiB
//!   direct-mapped L1, 8 KiB L2, 2 L1 banks), which keeps the
//!   miss/writeback/bank-contention legs of the batched memory walk
//!   hot — paths the default geometry rarely exercises. CI's
//!   determinism gate runs the extended grid.
//! * `bigtopo` appends a **big-topology** section (256-core rows under
//!   the plain and the `x16` cluster label, plus a 16-core `x4` row)
//!   exercising the O(activity) scheduler at scale. Behind its own flag
//!   so the base+extended prefix stays diffable against dumps from
//!   before the section existed.
//! * `replay` reruns whatever grid the other flags select through the
//!   record/replay engine: every row is executed once under a trace
//!   recorder, the trace round-trips through the on-disk codec, and the
//!   **replayed** outcome is printed under the same format — so
//!   `diff <(cycle_dump extended) <(cycle_dump extended replay)` must
//!   be empty, or replay has drifted from execute semantics. CI pins
//!   exactly that.
//! * `traced` reruns whatever grid the other flags select with a no-op
//!   trace sink attached to every launch. A sink keeps the device in
//!   strict global `(cycle, core)` order, where an untraced run lets
//!   cores run ahead to their next L1 miss — so
//!   `diff <(cycle_dump extended bigtopo) <(cycle_dump extended bigtopo traced)`
//!   must be empty, or run-ahead has changed what the machine does. CI
//!   pins exactly that.

use vortex_gpgpu::prelude::*;
use vortex_gpgpu::sim::{CacheConfig, MemConfig, NullSink};
use vortex_gpgpu::trace::{decode_trace, encode_trace};
use vortex_kernels::{
    record_kernel_prepared, replay_kernel_prepared, Kernel, KernelError, Reduce, RunOutcome,
};

fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(VecAdd::new(128)),
        Box::new(VecAdd::new(4096)),
        Box::new(Relu::new(1000)),
        Box::new(Saxpy::new(777)),
        Box::new(Sgemm::new(24, 8, 16)),
        Box::new(Gauss::new(24, 5)),
        Box::new(Knn::new(500)),
        Box::new(GcnAggr::new(64, 256, 8)),
        Box::new(GcnLayer::new(64, 256, 8)),
        Box::new(ResnetLayer::new(6, 4, 8, 2)),
        Box::new(Reduce::new(1000)),
    ]
}

/// An under-sized hierarchy that thrashes on every paper kernel.
fn thrash_mem() -> MemConfig {
    MemConfig {
        l1: CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 64 },
        l1_banks: 2,
        l2: CacheConfig { size_bytes: 8 * 1024, ways: 2, line_bytes: 64 },
        l2_banks: 2,
        ..MemConfig::default()
    }
}

/// Record the row once, round-trip the trace through the on-disk codec,
/// then replay it on a fresh runtime. Returns the **replayed** outcome,
/// after asserting it is bit-identical to the executed one — so a dump
/// in replay mode both self-checks and diffs clean against execute mode.
fn run_row_replayed(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
) -> Result<RunOutcome, KernelError> {
    let program = kernel.build()?;
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    let (executed, rec) = record_kernel_prepared(kernel, &program, &mut rt, policy)?;
    let bytes = encode_trace(0, &rec);
    let (_, decoded) = decode_trace(&bytes).expect("recorded trace must survive its own codec");
    assert_eq!(decoded, rec, "codec round-trip must be lossless");
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    let replayed = replay_kernel_prepared(kernel, &program, &mut rt, policy, &decoded)?;
    assert_eq!(
        format!("{executed:?}"),
        format!("{replayed:?}"),
        "replay diverged from execute for {} under {policy}",
        kernel.name()
    );
    Ok(replayed)
}

const MODES: [&str; 4] = ["extended", "bigtopo", "replay", "traced"];

/// Whether `name` is among the command-line modes.
fn flag(name: &str) -> bool {
    std::env::args().skip(1).any(|a| a == name)
}

fn dump(label: &str, kernel: &mut dyn Kernel, config: &DeviceConfig, policy: LwsPolicy) {
    let out: Result<RunOutcome, KernelError> = if flag("replay") {
        run_row_replayed(kernel, config, policy)
    } else if flag("traced") {
        run_kernel_traced(kernel, config, policy, Some(&mut NullSink))
    } else {
        run_kernel(kernel, config, policy)
    };
    match out {
        Ok(o) => {
            let c = o.reports.iter().map(|r| r.cycles).collect::<Vec<_>>();
            println!(
                "{} {} {} cycles={} phase_cycles={c:?} instr={} lanes={} mem={:?} util={:.12}",
                kernel.name(),
                label,
                policy,
                o.cycles,
                o.instructions,
                o.reports.iter().map(|r| r.instructions).sum::<u64>(),
                o.mem,
                o.dram_utilization,
            );
        }
        Err(e) => println!("{} {} {} ERROR {e}", kernel.name(), label, policy),
    }
}

fn main() {
    if let Some(unknown) = std::env::args().skip(1).find(|a| !MODES.contains(&a.as_str())) {
        eprintln!("unknown mode `{unknown}`\nusage: cycle_dump [{}]", MODES.join("] ["));
        std::process::exit(2);
    }
    let configs: Vec<DeviceConfig> =
        ["1c2w4t", "1c4w8t", "2c2w2t", "4c8w16t", "3c5w7t", "16c16w16t"]
            .iter()
            .map(|s| s.parse().expect("valid topology"))
            .collect();
    for mut kernel in kernels() {
        for config in &configs {
            for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
                dump(&config.topology_name(), kernel.as_mut(), config, policy);
            }
        }
    }
    if flag("extended") {
        // Cache-thrashing section: small topologies are enough — the
        // point is the memory walk, not the scheduler.
        for mut kernel in kernels() {
            for topo in ["1c2w4t", "2c4w8t"] {
                let mut config: DeviceConfig = topo.parse().expect("valid topology");
                config.mem = thrash_mem();
                for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
                    dump(&format!("thrash-{topo}"), kernel.as_mut(), &config, policy);
                }
            }
        }
    }
    if flag("bigtopo") {
        // Big-topology section: 256 cores, the same 256 cores under the
        // `x16` cluster label, and the default sweep's largest topology
        // under `x4`. `cores_per_cluster` is a label only, so an x-suffix
        // row must match its plain twin on every column after the label.
        for mut kernel in kernels() {
            for topo in ["256c4w8t", "256c4w8tx16", "16c16w16tx4"] {
                let config: DeviceConfig = topo.parse().expect("valid topology");
                for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
                    dump(&format!("big-{topo}"), kernel.as_mut(), &config, policy);
                }
            }
        }
    }
}
