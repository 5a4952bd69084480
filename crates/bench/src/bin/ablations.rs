//! Ablation studies for the design choices DESIGN.md calls out (these go
//! beyond the paper; they quantify how much each mechanism contributes):
//!
//! 1. **Tuner rounding** — Eq. 1 with floor (paper) vs ceiling division.
//! 2. **Dispatch overhead sensitivity** — how the lws=1 penalty scales
//!    with the host-side per-launch cost.
//! 3. **L1 banking** — serialised vs banked uncoalesced accesses.
//! 4. **DRAM channels** — bandwidth scaling of the memory-bound kernels.
//!
//! ```text
//! cargo run --release -p vortex-bench --bin ablations
//! ```

use vortex_bench::cli::{default_jobs, or_exit, Flags};
use vortex_bench::{paper_sweep, subsample};
use vortex_core::LwsPolicy;
use vortex_kernels::{run_kernel, Kernel as _, Knn, VecAdd};
use vortex_sim::DeviceConfig;
use vortex_stats::{RatioSummary, Table};

fn main() {
    let flags = Flags::from_env();
    let jobs = or_exit(flags.get_usize("jobs", default_jobs()));
    let _ = jobs;
    let configs = subsample(&paper_sweep(), or_exit(flags.get_usize("configs", 24)));

    tuner_rounding(&configs);
    dispatch_overhead(&configs);
    l1_banking(&configs);
    dram_channels(&configs);
}

/// Ablation 1: floor (Eq. 1) vs ceiling rounding of `gws / hp`.
fn tuner_rounding(configs: &[DeviceConfig]) {
    println!("── ablation 1: Eq.1 rounding (vecadd, gws=4096) ──");
    let mut ratios = Vec::new();
    for config in configs {
        let mut k = VecAdd::paper();
        let floor = run_kernel(&mut k, config, LwsPolicy::Auto).expect("auto run");
        let mut k = VecAdd::paper();
        let ceil = run_kernel(&mut k, config, LwsPolicy::AutoCeil).expect("auto-ceil run");
        ratios.push(floor.cycles as f64 / ceil.cycles as f64);
    }
    let s = RatioSummary::from_ratios(ratios);
    println!(
        "floor/ceil cycle ratio: avg {:.3}, median {:.3}, range [{:.2}, {:.2}]",
        s.avg, s.median, s.worst, s.best
    );
    println!("(>1 means ceiling rounding is faster on that configuration)\n");
}

/// Ablation 2: the lws=1 penalty as a function of host dispatch overhead.
fn dispatch_overhead(configs: &[DeviceConfig]) {
    println!("── ablation 2: host dispatch overhead sensitivity (vecadd) ──");
    let mut table = Table::new(vec!["overhead (cycles)", "avg lws=1/ours"]);
    for overhead in [0u64, 256, 1024, 4096] {
        let mut ratios = Vec::new();
        for config in configs {
            let cycles = |policy: LwsPolicy| -> u64 {
                let mut kernel = VecAdd::paper();
                let program = kernel.build().expect("assembles");
                let mut rt = vortex_core::Runtime::new(*config).with_dispatch_overhead(overhead);
                rt.load_program(&program);
                kernel.setup(&mut rt).expect("setup");
                let report = rt
                    .launch(&vortex_core::LaunchParams::new(4096).policy(policy), None)
                    .expect("launch");
                report.cycles
            };
            ratios.push(cycles(LwsPolicy::Naive1) as f64 / cycles(LwsPolicy::Auto) as f64);
        }
        let s = RatioSummary::from_ratios(ratios);
        table.row(vec![overhead.to_string(), format!("{:.2}", s.avg)]);
    }
    println!("{}", table.to_text());
}

/// Ablation 3: L1 bank count (uncoalesced access serialisation).
fn l1_banking(configs: &[DeviceConfig]) {
    println!("── ablation 3: L1 banks (vecadd, auto mapping) ──");
    let mut table = Table::new(vec!["l1 banks", "mean cycles (auto)"]);
    for banks in [1u32, 4, 32] {
        let mut total = 0u64;
        for config in configs {
            let mut cfg = *config;
            cfg.mem.l1_banks = banks;
            let mut k = VecAdd::paper();
            total += run_kernel(&mut k, &cfg, LwsPolicy::Auto).expect("run").cycles;
        }
        table.row(vec![banks.to_string(), (total / configs.len() as u64).to_string()]);
    }
    println!("{}", table.to_text());
}

/// Ablation 4: DRAM channel count (bandwidth) on a memory-bound kernel.
fn dram_channels(configs: &[DeviceConfig]) {
    println!("── ablation 4: DRAM channels (knn, auto mapping) ──");
    let mut table = Table::new(vec!["channels", "mean cycles (auto)", "mean dram util"]);
    for channels in [1u32, 2, 4, 8] {
        let mut total = 0u64;
        let mut util = 0.0;
        for config in configs {
            let mut cfg = *config;
            cfg.mem.dram.channels = channels;
            let mut k = Knn::sweep();
            let outcome = run_kernel(&mut k, &cfg, LwsPolicy::Auto).expect("run");
            total += outcome.cycles;
            util += outcome.dram_utilization;
        }
        table.row(vec![
            channels.to_string(),
            (total / configs.len() as u64).to_string(),
            format!("{:.2}", util / configs.len() as f64),
        ]);
    }
    println!("{}", table.to_text());
}
