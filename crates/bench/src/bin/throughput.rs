//! Simulator-throughput diagnostic: simulated instructions per host
//! second, per kernel and policy, on one configuration (not a paper
//! artefact; used to find and track hot-path regressions).
//!
//! Rates are computed from the device's own performance counters
//! (instructions and lane-instructions actually issued, read back from
//! `DeviceCounters` deltas around each run) rather than re-derived from
//! wall-clock alone, and a per-kernel `total` row aggregates the three
//! policies — so a regression localises to one kernel (and shows whether
//! it scales with warp-level issues or with per-lane work). Memory-side
//! columns (L1/L2 hit rates and DRAM line requests, from `MemStats`
//! deltas) attribute the cost of the batched memory-transaction pipeline:
//! a kernel whose host throughput lags with a low L1 rate is paying for
//! tag-walk misses and DRAM queueing, not for execute loops. Dispatch
//! columns (rounds per launch, mean busy lanes per round, from
//! `DispatchStats`) attribute launch-pipeline cost the same way: many
//! rounds at few busy lanes marks the low-occupancy dispatch regime.
//! Port-contention columns (memory-port accesses and mean stall slots
//! per access, from the PR 9 port counters) mark kernels serialising
//! uncoalesced lines through the L1 ports. The last column,
//! instructions per scheduling window (from the device's `SchedWork`
//! counts), says how long a core runs between hand-backs to the device
//! scan: hundreds when cores run ahead to their next L1 miss, 1 when a
//! many-core device is back in lockstep.
//!
//! With `--cache DIR` the run opens the campaign result store first and
//! prints its inventory — resident rows per kernel, store bytes, and
//! whether the selected topology is already cached per kernel — so a
//! sweep operator can see at a glance how much of a planned campaign the
//! store will answer (see the README's campaign-cache section).
//!
//! ```text
//! cargo run --release -p vortex-bench --bin throughput -- --topo 8c8w8t
//! cargo run --release -p vortex-bench --bin throughput -- --kernels gcn_layer
//! cargo run --release -p vortex-bench --bin throughput -- --cache STORE
//! ```

use std::time::Instant;

use vortex_bench::cli::{or_exit, select_kernels, Flags};
use vortex_bench::{campaign_key, kernel_factories, CampaignCache, Scale};
use vortex_core::{DispatchStats, LwsPolicy, Runtime};
use vortex_kernels::run_kernel_prepared;
use vortex_sim::{DeviceConfig, MemStats};

/// Prints the campaign store's inventory for the selected topology.
fn print_cache_summary(dir: &str, config: &DeviceConfig, scale: Scale) {
    let cache = match CampaignCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("opening campaign cache {dir}: {e}");
            std::process::exit(1);
        }
    };
    let c = cache.counters();
    let state = if cache.is_enabled() { "" } else { " (disabled by VORTEX_CAMPAIGN_CACHE=0)" };
    println!("campaign store {dir}{state}: {} rows, {}B on disk", c.entries, c.bytes_read);
    for (kernel, rows) in cache.entries_by_kernel() {
        let cached_here = kernel_factories(scale)
            .iter()
            .find(|f| f.name == kernel)
            .and_then(|f| f.make_kernel().build().ok())
            .map(|program| cache.contains(&kernel, campaign_key(&kernel, scale, &program, config)))
            .unwrap_or(false);
        let marker = if cached_here { "cached" } else { "-" };
        println!("  {kernel:<13} {rows:>5} rows   {} @ {marker}", config.topology_name());
    }
    println!();
}

fn main() {
    let flags = Flags::from_env();
    let config = or_exit(flags.get_topology("topo", "8c8w8t"));
    let reps = or_exit(flags.get_usize("reps", 3));
    let scale = if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep };
    let factories = or_exit(select_kernels(scale, flags.get_list("kernels").as_deref()));
    if let Some(dir) = flags.get_str("cache") {
        print_cache_summary(dir, &config, scale);
    }

    println!(
        "{:<13} {:>7} {:>12} {:>14} {:>10} {:>9} {:>9} {:>6} {:>6} {:>10} {:>8} {:>8} {:>9} \
         {:>8} {:>8}",
        "kernel",
        "policy",
        "instructions",
        "lane instrs",
        "host ms",
        "Minstr/s",
        "Mlane/s",
        "L1%",
        "L2%",
        "DRAM reqs",
        "rnds/ln",
        "lane/rnd",
        "port acc",
        "stl/acc",
        "ins/win"
    );
    for factory in factories {
        let mut kernel = (factory.make)();
        let program = kernel.build().expect("assembles");
        let mut rt = Runtime::new(config);
        rt.load_program(&program);
        let mut kernel_instr = 0u64;
        let mut kernel_lanes = 0u64;
        let mut kernel_secs = 0.0f64;
        let mut kernel_mem = MemStats::default();
        let mut kernel_dispatch = DispatchStats::default();
        let mut kernel_ports = (0u64, 0u64);
        let mut kernel_windows = 0u64;
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let start = Instant::now();
            let mut instructions = 0u64;
            let mut lanes = 0u64;
            let mut mem = MemStats::default();
            let mut dispatch = DispatchStats::default();
            let mut ports = (0u64, 0u64);
            let mut windows = 0u64;
            for _ in 0..reps {
                // Count what the device actually issued: counter deltas
                // around the run (the runtime resets counters per run, so
                // the post-run counter values are the per-run deltas).
                let outcome = run_kernel_prepared(kernel.as_mut(), &program, &mut rt, policy)
                    .unwrap_or_else(|e| {
                        eprintln!("{} {policy}: {e}", factory.name);
                        std::process::exit(1);
                    });
                let counters = rt.device().counters();
                instructions += counters.instructions;
                lanes += counters.lane_instructions;
                mem.accumulate(&rt.device().mem_stats());
                dispatch.accumulate(&outcome.dispatch);
                ports.0 += outcome.port_accesses;
                ports.1 += outcome.port_stall_slots;
                windows += rt.device().sched_work().windows;
            }
            let dt = start.elapsed().as_secs_f64();
            println!(
                "{:<13} {:>7} {:>12} {:>14} {:>10.1} {:>9.2} {:>9.2} {:>6.1} {:>6.1} {:>10} \
                 {:>8.1} {:>8.1} {:>9} {:>8.2} {:>8.1}",
                factory.name,
                policy.label(),
                instructions / reps as u64,
                lanes / reps as u64,
                dt * 1e3 / reps as f64,
                instructions as f64 / dt / 1e6,
                lanes as f64 / dt / 1e6,
                mem.l1.hit_rate() * 100.0,
                mem.l2.hit_rate() * 100.0,
                mem.dram_requests / reps as u64,
                dispatch.rounds_per_launch(),
                dispatch.mean_lanes_per_round(),
                ports.0 / reps as u64,
                if ports.0 == 0 { 0.0 } else { ports.1 as f64 / ports.0 as f64 },
                instructions as f64 / windows as f64,
            );
            kernel_instr += instructions;
            kernel_lanes += lanes;
            kernel_secs += dt;
            kernel_mem.accumulate(&mem);
            kernel_dispatch.accumulate(&dispatch);
            kernel_ports.0 += ports.0;
            kernel_ports.1 += ports.1;
            kernel_windows += windows;
        }
        println!(
            "{:<13} {:>7} {:>12} {:>14} {:>10.1} {:>9.2} {:>9.2} {:>6.1} {:>6.1} {:>10} \
             {:>8.1} {:>8.1} {:>9} {:>8.2} {:>8.1}",
            factory.name,
            "total",
            kernel_instr / reps as u64,
            kernel_lanes / reps as u64,
            kernel_secs * 1e3 / reps as f64,
            kernel_instr as f64 / kernel_secs / 1e6,
            kernel_lanes as f64 / kernel_secs / 1e6,
            kernel_mem.l1.hit_rate() * 100.0,
            kernel_mem.l2.hit_rate() * 100.0,
            kernel_mem.dram_requests / reps as u64,
            kernel_dispatch.rounds_per_launch(),
            kernel_dispatch.mean_lanes_per_round(),
            kernel_ports.0 / reps as u64,
            if kernel_ports.0 == 0 { 0.0 } else { kernel_ports.1 as f64 / kernel_ports.0 as f64 },
            kernel_instr as f64 / kernel_windows as f64,
        );
    }
}
