//! Online autotuner evaluation: probe K candidates per kernel, predict
//! the rest of the lws grid from their counters, and report the regret
//! of the tuned choice against the exhaustive oracle. Produces the
//! committed `TUNE_PR8.json` artefact (see `docs/TUNING.md` for the
//! methodology end-to-end).
//!
//! ```text
//! cargo run --release -p vortex-bench --bin tune -- --cache store/ --json TUNE_PR8.json
//! cargo run --release -p vortex-bench --bin tune -- --kernels vecadd,relu --budgets 3,6
//! cargo run --release -p vortex-bench --bin tune -- --merge s1.json,s2.json --json TUNE.json
//! ```
//!
//! Flags:
//!
//! * `--cache DIR` — attach the PR 7 content-addressed store; per-lws
//!   ground-truth rows live in the same `<kernel>.jsonl` shards as
//!   campaign rows (keyed with an `"explicit"`+lws digest), so a warm
//!   store replays the whole evaluation without simulating anything.
//! * `--budgets 3,6,12` — probe budgets K (default `3,6,12`).
//! * `--kernels a,b` / `--topos 1c2w4t,...` — restrict the grid
//!   (defaults: all nine paper kernels × the three mini-grid
//!   topologies).
//! * `--jobs N` — worker threads (default: machine parallelism).
//! * `--json PATH` — also write the machine-readable report
//!   (atomically; raw counters only, exact to merge).
//! * `--merge a.json,b.json` — merge shard reports instead of running
//!   (rows union by kernel/topo/budget cell, store traffic sums).
//! * `--max-regret PCT` — exit nonzero unless the mean regret at K=6
//!   (or the largest evaluated budget when 6 is absent) is ≤ PCT; the
//!   CI smoke job gates on this.

use std::path::Path;

use vortex_bench::cli::{default_jobs, or_exit, select_kernels, Flags};
use vortex_bench::tune::{DEFAULT_BUDGETS, DEFAULT_TOPOLOGIES};
use vortex_bench::{
    atomic_write, merge_tune_files, render_tune_json, run_tune_evaluation, CampaignCache, Scale,
    TuneFile,
};
use vortex_sim::DeviceConfig;

fn main() {
    let flags = Flags::from_env();

    if let Some(inputs) = flags.get_list("merge") {
        let Some(out) = flags.get_str("json") else {
            eprintln!("--merge requires --json OUT for the merged file");
            std::process::exit(2);
        };
        match merge_tune_files(&inputs) {
            Ok(json) => {
                if let Err(e) = atomic_write(Path::new(out), &json) {
                    eprintln!("writing {out}: {e}");
                    std::process::exit(1);
                }
                println!("merged {} tune files into {out}", inputs.len());
                check_regret(&flags, &vortex_bench::parse_tune_json(&json).expect("own render"));
            }
            Err(e) => {
                eprintln!("merge failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let jobs = or_exit(flags.get_usize("jobs", default_jobs()));
    let budgets: Vec<usize> = match flags.get_list("budgets") {
        Some(list) => list
            .iter()
            .map(|b| {
                b.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --budgets entry `{b}`");
                    std::process::exit(2);
                })
            })
            .collect(),
        None => DEFAULT_BUDGETS.to_vec(),
    };
    let topologies: Vec<DeviceConfig> = flags
        .get_list("topos")
        .unwrap_or_else(|| DEFAULT_TOPOLOGIES.map(String::from).to_vec())
        .iter()
        .map(|t| or_exit(t.parse::<DeviceConfig>()))
        .collect();
    let scale = if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep };
    let factories = or_exit(select_kernels(scale, flags.get_list("kernels").as_deref()));
    let cache = flags.get_str("cache").map(|dir| match CampaignCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("opening campaign cache {dir}: {e}");
            std::process::exit(1);
        }
    });

    let file = run_tune_evaluation(&factories, &topologies, &budgets, jobs, cache.as_ref())
        .unwrap_or_else(|e| {
            eprintln!("tune evaluation failed: {e}");
            std::process::exit(1);
        });

    println!(
        "{:<13} {:<8} {:>6} {:>3} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "kernel", "topo", "K", "grid", "chosen", "oracle", "eq1", "regret%", "pred-err%"
    );
    for r in &file.rows {
        println!(
            "{:<13} {:<8} {:>6} {:>3} {:>10} {:>10} {:>10} {:>8.3} {:>8}",
            r.kernel,
            r.topo,
            r.budget,
            r.candidates,
            format!("{}@{}", r.chosen_cycles, r.chosen_lws),
            format!("{}@{}", r.oracle_cycles, r.oracle_lws),
            format!("{}@{}", r.eq1_cycles, r.eq1_lws),
            r.regret_pct(),
            r.prediction_error_pct().map_or("-".into(), |e| format!("{e:.2}")),
        );
    }
    for &k in &file.budgets() {
        if let Some(mean) = file.mean_regret_pct(k) {
            println!("mean regret at K={k}: {mean:.3}%");
        }
    }
    println!(
        "store: {} hits, {} misses ({} simulations), {:.2}s total",
        file.store_hits, file.store_misses, file.store_misses, file.total_seconds
    );
    if let Some(cache) = &cache {
        if let Err(e) = cache.flush() {
            eprintln!("flushing campaign cache: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = flags.get_str("json") {
        if let Err(e) = atomic_write(Path::new(path), &render_tune_json(&file)) {
            eprintln!("writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
    check_regret(&flags, &file);
}

/// Enforces `--max-regret PCT` against the mean regret at K=6 (or the
/// largest evaluated budget when 6 is absent).
fn check_regret(flags: &Flags, file: &TuneFile) {
    let Some(bound) = flags.get_str("max-regret") else { return };
    let bound: f64 = bound.parse().unwrap_or_else(|_| {
        eprintln!("invalid --max-regret `{bound}`");
        std::process::exit(2);
    });
    let budgets = file.budgets();
    let gate = if budgets.contains(&6) { 6 } else { *budgets.last().unwrap_or(&0) };
    match file.mean_regret_pct(gate) {
        Some(mean) if mean <= bound => {
            println!("regret gate: mean {mean:.3}% at K={gate} within bound {bound}%");
        }
        Some(mean) => {
            eprintln!("regret gate FAILED: mean {mean:.3}% at K={gate} exceeds bound {bound}%");
            std::process::exit(1);
        }
        None => {
            eprintln!("regret gate FAILED: no rows to gate on");
            std::process::exit(1);
        }
    }
}
