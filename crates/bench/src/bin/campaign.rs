//! The sweep command: run (or resume) kernels × configuration grid ×
//! the three mapping policies as a work queue backed by the
//! content-addressed result store, simulating only the configurations
//! whose results are not already on disk, and write the report.
//!
//! ```text
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q --configs 20 --json OUT.json
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q --budget 50
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q --resume --json OUT.json
//! ```
//!
//! The queue directory holds the crash-safe manifest; the store (default
//! `<dir>/store`, override with `--cache DIR`) holds the finished rows.
//! `--configs N` subsamples the 450-configuration paper grid (default:
//! all of it); `--topos 16c16w16t,256c4w8tx16` replaces it with an
//! explicit topology list. `--kernels a,b` restricts the kernels (an
//! unknown name is an error). `--budget N` stops after simulating `N`
//! configurations — a later `--resume` invocation simulates exactly the
//! remainder and assembles a report byte-identical (modulo wall-clock
//! and cache-transport fields) to an uninterrupted run. `--resume`
//! refuses a queue whose grid, kernels, scale, shard or engine semantics
//! differ from the manifest's. See the README's campaign-cache section
//! for the key derivation; `VORTEX_CAMPAIGN_CACHE=0` disables the store,
//! so every configuration is simulated and the report's per-kernel
//! `seconds`/`host_ns_per_instr` measure uncached simulator throughput.
//!
//! ## Trace record/replay
//!
//! `--trace-dir DIR` attaches the keyed trace store (docs/TRACE.md): the
//! first policy run of a (kernel, mapping, topology) executes and
//! records its architectural event streams; every later configuration
//! sharing that key replays the stored trace, producing bit-identical
//! rows. `--uarch M` expands every grid topology into `M` adjacent
//! micro-architecture variants ([`uarch_variant`]: variant 0 is the
//! base; the others perturb latencies, cache geometry and DRAM but never
//! the topology) — the sweep shape replay serves, one record for `M - 1`
//! replays. The report's `trace_records`/`trace_replays` count this
//! invocation's runs (zero without `--trace-dir`).
//!
//! ## Multi-process workers
//!
//! `--workers N` forks `N` copies of this binary, each running one
//! strided `--shard k/N` of the grid with a private queue and store
//! under `<dir>/workers/<k>`, then merges the worker stores into the
//! parent store (content-addressed rows carry raw counters, so the
//! merge is exact) and runs the normal queue pass, which finds
//! everything resident and assembles the full report. A crashed or
//! failed worker is non-fatal: its missing rows are simply simulated by
//! the parent pass. `--workers 1` (the default, sized for a single-vCPU
//! box) skips the fan-out entirely.

use std::path::{Path, PathBuf};
use std::process::Command;

use vortex_bench::cli::{default_jobs, or_exit, select_kernels, Flags};
use vortex_bench::driver::{run_queue, QueueSpec};
use vortex_bench::{
    atomic_write, paper_sweep, parse_shard, subsample, uarch_variant, CampaignCache, Scale,
};
use vortex_sim::DeviceConfig;

/// Forks `workers` copies of this binary over disjoint strided shards of
/// the queue's grid, each with a private queue directory and store under
/// `<dir>/workers/<k>`, then merges the worker stores into the parent
/// store through the exact-sum absorb path. Returns `false` when the
/// store is disabled by the environment — without it worker results
/// cannot be merged, so the caller falls back to a single process.
///
/// Worker failures are non-fatal: a crashed or failed worker simply
/// leaves its shard's rows out of the store, and the parent's own queue
/// pass (which follows unconditionally) simulates exactly the remainder.
fn fan_out_workers(flags: &Flags, dir: &Path, cache_dir: &Path, workers: usize) -> bool {
    let cache = match CampaignCache::open(cache_dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("campaign: opening store {}: {e}", cache_dir.display());
            std::process::exit(1);
        }
    };
    if !cache.is_enabled() {
        eprintln!(
            "campaign: VORTEX_CAMPAIGN_CACHE=0 disables the result store, so worker \
             results cannot be merged — running single-process instead"
        );
        return false;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("campaign: cannot locate own executable for --workers: {e}");
            std::process::exit(1);
        }
    };
    let mut children = Vec::new();
    for k in 1..=workers {
        let wdir = dir.join("workers").join(k.to_string());
        let mut cmd = Command::new(&exe);
        cmd.arg("--dir")
            .arg(&wdir)
            .arg("--cache")
            .arg(wdir.join("store"))
            .arg("--shard")
            .arg(format!("{k}/{workers}"));
        for key in ["configs", "topos", "uarch", "kernels", "jobs", "trace-dir"] {
            if let Some(value) = flags.get_str(key) {
                cmd.arg(format!("--{key}")).arg(value);
            }
        }
        if flags.has("paper-scale") {
            cmd.arg("--paper-scale");
        }
        match cmd.spawn() {
            Ok(child) => children.push((k, child)),
            Err(e) => {
                eprintln!("campaign: spawning worker {k}: {e} (its shard runs in this process)");
            }
        }
    }
    for (k, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!(
                "campaign: worker {k} exited with {status} (its unfinished shard runs in \
                 this process)"
            ),
            Err(e) => eprintln!("campaign: waiting for worker {k}: {e}"),
        }
    }
    let mut absorbed = 0usize;
    for k in 1..=workers {
        let store = dir.join("workers").join(k.to_string()).join("store");
        match cache.absorb_dir(&store) {
            Ok(n) => absorbed += n,
            Err(e) => {
                eprintln!("campaign: absorbing worker {k} store: {e} (its rows re-simulate here)")
            }
        }
    }
    if let Err(e) = cache.flush() {
        eprintln!("campaign: flushing merged store: {e}");
        std::process::exit(1);
    }
    println!("merged {absorbed} rows from {workers} worker stores");
    true
}

fn main() {
    let flags = Flags::from_env();
    let Some(dir) = flags.get_str("dir") else {
        eprintln!(
            "usage: campaign --dir QUEUE [--cache DIR] [--configs N | --topos 1c2w2t,…] \
             [--uarch M] [--kernels a,b] [--shard K/M | --workers N] [--jobs N] [--budget N] \
             [--resume] [--paper-scale] [--trace-dir DIR] [--json OUT]"
        );
        std::process::exit(2);
    };
    let dir = PathBuf::from(dir);
    let cache_dir = flags.get_str("cache").map(PathBuf::from).unwrap_or_else(|| dir.join("store"));
    let scale = if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep };
    let kernels = flags.get_list("kernels");
    // Checked before anything touches the disk or forks a worker.
    or_exit(select_kernels(scale, kernels.as_deref()));

    let topologies: Vec<DeviceConfig> = match flags.get_list("topos") {
        Some(topos) => topos.iter().map(|t| or_exit(t.parse::<DeviceConfig>())).collect(),
        None => subsample(&paper_sweep(), or_exit(flags.get_usize("configs", 450))),
    };
    let uarch = or_exit(flags.get_usize("uarch", 1)).max(1);
    let configs: Vec<DeviceConfig> =
        topologies.iter().flat_map(|t| (0..uarch).map(|v| uarch_variant(t, v))).collect();
    let shard = flags.get_str("shard").map(|s| match parse_shard(s) {
        Some(km) => km,
        None => {
            eprintln!("invalid --shard `{s}` (expected K/M with 1 <= K <= M)");
            std::process::exit(2);
        }
    });
    let jobs = or_exit(flags.get_usize("jobs", default_jobs()));
    let budget = flags.get_str("budget").map(|_| or_exit(flags.get_usize("budget", 0)));

    let workers = or_exit(flags.get_usize("workers", 1));
    if workers == 0 {
        eprintln!("invalid --workers 0 (expected a process count >= 1)");
        std::process::exit(2);
    }
    if workers > 1 {
        if shard.is_some() {
            eprintln!("--workers shards the grid across its own processes; drop --shard");
            std::process::exit(2);
        }
        if budget.is_some() {
            eprintln!("--budget caps a single process; it cannot combine with --workers");
            std::process::exit(2);
        }
        // Fan out, then fall through to the normal single-process queue
        // pass: with every worker row merged it reuses everything and
        // only assembles the report; whatever a failed worker left
        // undone, it simulates.
        fan_out_workers(&flags, &dir, &cache_dir, workers);
    }

    let spec = QueueSpec {
        dir,
        cache_dir,
        kernels,
        configs,
        scale,
        shard,
        jobs,
        budget,
        trace_dir: flags.get_str("trace-dir").map(PathBuf::from),
        resume: flags.has("resume"),
    };

    let outcome = run_queue(&spec).unwrap_or_else(|e| {
        eprintln!("campaign: {e}");
        std::process::exit(1);
    });

    let c = outcome.counters;
    println!(
        "simulated {} configs, reused {} from store, {} pending",
        outcome.simulated, outcome.reused, outcome.remaining
    );
    println!(
        "store {}: {} rows resident, {}B read, {}B written",
        spec.cache_dir.display(),
        c.entries,
        c.bytes_read,
        c.bytes_written
    );
    if outcome.complete {
        if let Some(json) = &outcome.result_json {
            if let Some(path) = flags.get_str("json") {
                if let Err(e) = atomic_write(Path::new(path), json) {
                    eprintln!("writing {path}: {e}");
                    std::process::exit(1);
                }
                println!("wrote {path}");
            }
        }
    } else {
        println!("queue incomplete — rerun with --resume to finish");
    }
}
