//! Quick calibration probe: wall-clock cost of one kernel's full
//! 450-configuration campaign (not a paper artefact; used to size the
//! default sweep parameters honestly and to track simulator throughput
//! across PRs).
//!
//! ```text
//! cargo run --release -p vortex-bench --bin speed_probe
//! cargo run --release -p vortex-bench --bin speed_probe -- --configs 20
//! cargo run --release -p vortex-bench --bin speed_probe -- --json BENCH.json
//! ```
//!
//! With `--json PATH` the per-kernel wall times are also written as a
//! machine-readable file (atomically — a killed probe never leaves a
//! truncated JSON); the committed `BENCH_*.json` baselines in the
//! repository root are produced this way (see README). Since PR 4 each
//! kernel row also records the memory-side counters of its auto runs
//! (L1/L2 hits and misses, DRAM line requests), so a throughput change is
//! attributable to the memory hierarchy — the stdout table prints them as
//! hit rates. Since PR 5 each row additionally records the dispatch-round
//! counters (`launches`, `dispatch_rounds`, `round_tasks` — raw sums, so
//! shard merges stay exact); the stdout table prints them as rounds per
//! launch and mean busy lanes per round, the occupancy profile of the
//! launch pipeline. Since PR 6 each row also records `instructions`
//! (a raw sum again). Since PR 9 each row records the SIMT
//! memory-port contention counters (`port_accesses`,
//! `port_stall_slots` — raw sums) and a derived `host_ns_per_instr`
//! field (host seconds per simulated instruction, the metric the
//! big-topology scaling gate tracks — recomputed from the raw sums on
//! merge, and blanked by the stripped-comparison gates like every other
//! wall-clock-derived field). `--topos 16c16w16t,256c4w8tx16` replaces
//! the subsampled sweep grid with an explicit topology list, which is
//! how the committed 16-core vs 256-core scaling baselines pin their
//! configurations.
//!
//! ## Trace record/replay (PR 10)
//!
//! `--trace-dir DIR` attaches the keyed trace store (docs/TRACE.md): the
//! first policy run of a (kernel, mapping, topology) executes normally
//! and records its architectural event streams; every later
//! configuration sharing that key — the same topology under a different
//! timing or memory model — replays the stored trace, skipping
//! decode-execute while producing bit-identical rows. `--uarch M`
//! expands every grid topology into `M` deterministic micro-architecture
//! variants (variant 0 is the unmodified base; the others perturb
//! functional-unit latencies, cache geometry and DRAM parameters but
//! never the topology), which is the sweep shape replay accelerates:
//! one record serves `M - 1` replays. Since PR 10 each row records
//! `trace_records`/`trace_replays` (raw sums, exact on shard merge;
//! zero without `--trace-dir`).
//!
//! ## Campaign cache
//!
//! `--cache DIR` attaches the persistent content-addressed result store
//! (see the README's campaign-cache section): configurations whose
//! results are already in the store are answered without simulating, and
//! freshly simulated ones are persisted for the next run. Since PR 7 each
//! row records `cache_hits`/`cache_misses` (misses = configurations this
//! process actually simulated; without `--cache` every configuration is a
//! miss), and the file header records the store bytes moved. The JSON is
//! byte-identical between a cold and a warm run apart from wall-clock and
//! cache-transport fields — the cold→warm CI gate diffs the stripped
//! forms.
//!
//! ## Sharding
//!
//! `--shard K/M` (1-based `K`) deterministically splits the configuration
//! grid into `M` strided shards and measures only the `K`-th — the same
//! grid is reassembled no matter how the shards are distributed over
//! processes or CI jobs. Shard JSONs record their own measured counts and
//! are recombined with `--merge`:
//!
//! ```text
//! speed_probe --shard 1/2 --json s1.json   # process or CI job 1
//! speed_probe --shard 2/2 --json s2.json   # process or CI job 2
//! speed_probe --merge s1.json,s2.json --json BENCH.json
//! ```
//!
//! A merged file sums per-kernel configuration counts, seconds and every
//! raw counter — memory, dispatch, cache (shards partition the
//! grid, so sums reconstruct the full-grid values), weights mean DRAM
//! utilisation by configuration count, and sums the shard totals into
//! `total_seconds`.

use std::path::Path;
use std::time::Instant;

use vortex_bench::campaign::run_campaign_cached_traced;
use vortex_bench::cli::{default_jobs, or_exit, Flags};
use vortex_bench::probe::{merge_probe_files, render_json, KernelRow, ProbeFile};
use vortex_bench::{
    atomic_write, kernel_factories, paper_sweep, parse_shard, CampaignCache, Scale, TraceStore,
};
use vortex_sim::DeviceConfig;

/// Deterministic micro-architecture variant `v` of `base`: perturbs
/// pipeline latencies, cache geometry and DRAM parameters — everything
/// replay re-times — while leaving the topology (and therefore the
/// trace key) untouched. Variant 0 is `base` itself.
fn uarch_variant(base: &DeviceConfig, v: usize) -> DeviceConfig {
    let mut c = *base;
    if v == 0 {
        return c;
    }
    let k = v as u64;
    c.timing.alu = 1 + (k & 1);
    c.timing.mul = 2 + k % 5;
    c.timing.div = 12 + 2 * (k % 4);
    c.timing.fpu = 3 + k % 4;
    c.timing.fdiv = 12 + 3 * (k % 3);
    c.timing.fsqrt = 16 + 4 * (k % 3);
    c.timing.branch_bubble = 1 + k % 3;
    c.timing.wspawn = 8 + 4 * (k % 4);
    c.timing.barrier = 2 + k % 4;
    c.mem.l1_latency = 1 + k % 3;
    c.mem.l2_latency = 12 + 6 * (k % 4);
    c.mem.l2_interval = 1 + k % 2;
    c.mem.l1.size_bytes = (8 * 1024) << (k % 3);
    c.mem.l1.ways = 2 << (k % 3);
    c.mem.l2.size_bytes = (128 * 1024) << (k % 3);
    c.mem.dram.latency = 60 + 30 * (k % 4);
    c.mem.dram.interval = 1 + k % 3;
    c.mem.dram.channels = 2 << (k % 3);
    c
}

fn main() {
    let flags = Flags::from_env();

    if let Some(inputs) = flags.get_list("merge") {
        let Some(out) = flags.get_str("json") else {
            eprintln!("--merge requires --json OUT for the merged file");
            std::process::exit(2);
        };
        match merge_probe_files(&inputs) {
            Ok(json) => {
                if let Err(e) = atomic_write(Path::new(out), &json) {
                    eprintln!("writing {out}: {e}");
                    std::process::exit(1);
                }
                println!("merged {} shard files into {out}", inputs.len());
            }
            Err(e) => {
                eprintln!("merge failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let jobs = flags.get_usize("jobs", default_jobs());
    let n = flags.get_usize("configs", 450);
    let mut configs = match flags.get_list("topos") {
        // Explicit topology list: probe exactly these configurations
        // (the big-topology scaling comparisons pin the grid this way).
        Some(topos) => topos.iter().map(|t| or_exit(t.parse::<DeviceConfig>())).collect(),
        None => vortex_bench::subsample(&paper_sweep(), n),
    };
    let shard = flags.get_str("shard").map(|s| match parse_shard(s) {
        Some(km) => km,
        None => {
            eprintln!("invalid --shard `{s}` (expected K/M with 1 <= K <= M)");
            std::process::exit(2);
        }
    });
    if let Some((k, m)) = shard {
        // Strided split: deterministic, and every shard sees the same
        // small-to-large topology spread (a prefix split would give one
        // shard all the slow many-core configurations).
        configs = configs
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % m == k - 1)
            .map(|(_, c)| c)
            .collect();
    }
    let uarch = flags.get_usize("uarch", 1).max(1);
    if uarch > 1 {
        // Expand after sharding so every shard holds each of its
        // topologies' full variant families — a shard's records serve
        // its own replays and the merged counters sum exactly.
        configs = configs.iter().flat_map(|c| (0..uarch).map(|v| uarch_variant(c, v))).collect();
    }
    let scale = if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep };
    let cache = flags.get_str("cache").map(|dir| match CampaignCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("opening campaign cache {dir}: {e}");
            std::process::exit(1);
        }
    });
    let traces = flags.get_str("trace-dir").map(|dir| match TraceStore::open(Path::new(dir)) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("opening trace store {dir}: {e}");
            std::process::exit(1);
        }
    });
    let wanted = flags.get_list("kernels");
    let mut rows: Vec<KernelRow> = Vec::new();
    let wall = Instant::now();
    for factory in kernel_factories(scale) {
        if let Some(ws) = &wanted {
            if !ws.iter().any(|w| w == factory.name) {
                continue;
            }
        }
        let before = cache.as_ref().map(|c| c.counters()).unwrap_or_default();
        let start = Instant::now();
        let result =
            run_campaign_cached_traced(&factory, &configs, jobs, cache.as_ref(), traces.as_ref())
                .unwrap_or_else(|e| {
                    eprintln!("{}: {e}", factory.name);
                    std::process::exit(1);
                });
        let dt = start.elapsed();
        let after = cache.as_ref().map(|c| c.counters()).unwrap_or_default();
        let (hits, misses) = match cache {
            Some(_) => (after.hits - before.hits, after.misses - before.misses),
            // No store attached: every configuration was simulated.
            None => (0, result.rows.len() as u64),
        };
        let row = KernelRow::of_campaign(&result, dt.as_secs_f64(), hits, misses);
        let (port_accesses, port_stall_slots) = (row.port_accesses, row.port_stall_slots);
        println!(
            "{:<13} {:>4} configs x3 policies: {:>8.2?}  (dram util {:.2}, L1 {:>5.1}%, \
             L2 {:>5.1}%, {} DRAM reqs, {:.1} rnds/launch, {:.1} lanes/rnd, \
             {:.1} stall/acc, {:.0} ns/instr, \
             cache {hits}h/{misses}m, trace {}rec/{}rep)",
            factory.name,
            result.rows.len(),
            dt,
            result.mean_dram_utilization(),
            row.mem.l1.hit_rate() * 100.0,
            row.mem.l2.hit_rate() * 100.0,
            row.mem.dram_requests,
            row.dispatch.rounds_per_launch(),
            row.dispatch.mean_lanes_per_round(),
            if port_accesses == 0 { 0.0 } else { port_stall_slots as f64 / port_accesses as f64 },
            row.host_ns_per_instr(),
            result.trace_records,
            result.trace_replays,
        );
        rows.push(row);
    }
    let total = wall.elapsed().as_secs_f64();
    println!("{:<13} total: {total:.2}s", "");

    let mut file = ProbeFile {
        configs: configs.len(),
        jobs,
        total_seconds: total,
        shard,
        cache_bytes_read: 0,
        cache_bytes_written: 0,
        rows,
    };
    if let Some(cache) = &cache {
        if let Err(e) = cache.flush() {
            eprintln!("flushing campaign cache: {e}");
            std::process::exit(1);
        }
        let c = cache.counters();
        file = file.with_cache_totals(&c);
        let state = if cache.is_enabled() { "" } else { " (disabled by VORTEX_CAMPAIGN_CACHE=0)" };
        println!(
            "campaign cache{state}: {} hits, {} misses, {} rows resident, {}B read, {}B written",
            c.hits, c.misses, c.entries, c.bytes_read, c.bytes_written
        );
    }

    if let Some(store) = &traces {
        let (rec, rep) = store.counters();
        println!("trace store: {rec} runs recorded, {rep} replayed ({})", store.dir().display());
    }

    if let Some(path) = flags.get_str("json") {
        if let Err(e) = atomic_write(Path::new(path), &render_json(&file)) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
