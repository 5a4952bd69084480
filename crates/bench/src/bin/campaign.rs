//! Resumable campaign driver CLI: run (or resume) a sweep work queue
//! backed by the content-addressed result store, simulating only the
//! configurations whose results are not already on disk.
//!
//! ```text
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q --budget 50
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q --resume
//! cargo run --release -p vortex-bench --bin campaign -- --dir Q --json OUT.json
//! ```
//!
//! The queue directory holds the crash-safe manifest; the store (default
//! `<dir>/store`, override with `--cache DIR`) holds the finished rows.
//! `--budget N` stops after simulating `N` configurations — a later
//! `--resume` invocation simulates exactly the remainder and assembles a
//! report byte-identical (modulo wall-clock and cache-transport fields)
//! to an uninterrupted run. `--resume` refuses a queue whose grid,
//! kernels, scale, shard or engine semantics differ from the manifest's.
//! See the README's campaign-cache section for the key derivation and
//! the `VORTEX_CAMPAIGN_CACHE=0` escape hatch.
//!
//! ## Multi-process workers
//!
//! `--workers N` forks `N` copies of this binary, each running one
//! strided `--shard k/N` of the grid with a private queue and store
//! under `<dir>/workers/<k>`, then merges the worker stores into the
//! parent store (content-addressed rows carry raw counters, so the
//! merge is exact — the same discipline as `--shard` + `--merge`) and
//! runs the normal queue pass, which finds everything resident and
//! assembles the full report. A crashed or failed worker is non-fatal:
//! its missing rows are simply simulated by the parent pass.
//! `--workers 1` (the default, sized for a single-vCPU box) skips the
//! fan-out entirely and is byte-identical to today's behaviour.

use std::path::{Path, PathBuf};
use std::process::Command;

use vortex_bench::cli::{default_jobs, or_exit, Flags};
use vortex_bench::driver::{run_queue, QueueSpec};
use vortex_bench::{atomic_write, paper_sweep, parse_shard, subsample, CampaignCache, Scale};
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
        for key in ["configs", "topos", "kernels", "jobs", "trace-dir"] {
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
             [--kernels a,b] [--shard K/M | --workers N] [--jobs N] [--budget N] [--resume] \
             [--paper-scale] [--trace-dir DIR] [--json OUT]"
        );
        std::process::exit(2);
    };
    let dir = PathBuf::from(dir);
    let cache_dir = flags.get_str("cache").map(PathBuf::from).unwrap_or_else(|| dir.join("store"));

    let configs: Vec<DeviceConfig> = match flags.get_list("topos") {
        Some(topos) => topos.iter().map(|t| or_exit(t.parse::<DeviceConfig>())).collect(),
        None => subsample(&paper_sweep(), flags.get_usize("configs", 450)),
    };
    let shard = flags.get_str("shard").map(|s| match parse_shard(s) {
        Some(km) => km,
        None => {
            eprintln!("invalid --shard `{s}` (expected K/M with 1 <= K <= M)");
            std::process::exit(2);
        }
    });

    let workers = flags.get_usize("workers", 1);
    if workers == 0 {
        eprintln!("invalid --workers 0 (expected a process count >= 1)");
        std::process::exit(2);
    }
    if workers > 1 {
        if shard.is_some() {
            eprintln!("--workers shards the grid across its own processes; drop --shard");
            std::process::exit(2);
        }
        if flags.get_str("budget").is_some() {
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
        kernels: flags.get_list("kernels"),
        configs,
        scale: if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep },
        shard,
        jobs: flags.get_usize("jobs", default_jobs()),
        budget: flags.get_str("budget").map(|b| match b.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("invalid --budget `{b}` (expected a configuration count)");
                std::process::exit(2);
            }
        }),
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
