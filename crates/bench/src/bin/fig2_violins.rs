//! Regenerates **Figure 2** of the paper: per-kernel distributions of the
//! cycle ratio between the baseline mappings (`lws=1`, `lws=32`) and the
//! hardware-aware runtime mapping (Eq. 1), across the 450-configuration
//! hardware sweep.
//!
//! ```text
//! cargo run --release -p vortex-bench --bin fig2_violins            # sweep scale, 450 configs
//! cargo run --release -p vortex-bench --bin fig2_violins -- --configs 60
//! cargo run --release -p vortex-bench --bin fig2_violins -- --paper-scale --kernels vecadd,relu
//! cargo run --release -p vortex-bench --bin fig2_violins -- --csv fig2.csv
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use vortex_bench::cli::{default_jobs, or_exit, select_kernels, Flags};
use vortex_bench::{paper_sweep, run_campaign, subsample, Scale};
use vortex_stats::{render_violin_row, RatioSummary, Table};

fn main() {
    let flags = Flags::from_env();
    let jobs = or_exit(flags.get_usize("jobs", default_jobs()));
    let n_configs = or_exit(flags.get_usize("configs", 450));
    let bins = or_exit(flags.get_usize("bins", 48));
    let scale = if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep };
    let factories = or_exit(select_kernels(scale, flags.get_list("kernels").as_deref()));

    let configs = subsample(&paper_sweep(), n_configs);
    println!(
        "Figure 2 reproduction — {} configurations ({} scale), {} jobs",
        configs.len(),
        if scale == Scale::Paper { "paper" } else { "sweep" },
        jobs
    );
    println!("ratio = baseline cycles / ours cycles  (>1 means the runtime mapping wins)\n");

    let mut table =
        Table::new(vec!["kernel", "side", "avg", "worse%", "worst", "best", "median", "bound"]);
    let mut csv = String::from(
        "kernel,topology,hp,cycles_lws1,cycles_lws32,cycles_auto,lws_auto,dram_util\n",
    );
    let mut math_naive: Vec<f64> = Vec::new();
    let mut math_fixed: Vec<f64> = Vec::new();

    for factory in factories {
        let start = Instant::now();
        let result = run_campaign(&factory, &configs, jobs).unwrap_or_else(|e| {
            eprintln!("campaign failed for {}: {e}", factory.name);
            std::process::exit(1);
        });
        let naive = result.naive_ratios();
        let fixed = result.fixed_ratios();
        let boundness = if result.mean_dram_utilization() > 0.1 { "memory" } else { "compute" };

        println!("── {} ({boundness} bound, {:.1?}) ──", factory.name, start.elapsed());
        println!(
            "{}",
            render_violin_row(
                &format!("{} lws=1 /ours", factory.name),
                naive.iter().copied(),
                bins
            )
        );
        println!(
            "{}",
            render_violin_row(
                &format!("{} lws=32/ours", factory.name),
                fixed.iter().copied(),
                bins
            )
        );
        let s1 = RatioSummary::from_ratios(naive.iter().copied());
        let s32 = RatioSummary::from_ratios(fixed.iter().copied());
        println!("  lws=1 /ours  {}", s1.annotation());
        println!("  lws=32/ours  {}\n", s32.annotation());

        for (summary, side) in [(s1, "lws=1/ours"), (s32, "lws=32/ours")] {
            table.row(vec![
                factory.name.to_owned(),
                side.to_owned(),
                format!("{:.2}", summary.avg),
                format!("{:.1}", summary.pct_below_one * 100.0),
                format!("{:.2}", summary.worst),
                format!("{:.2}", summary.best),
                format!("{:.2}", summary.median),
                boundness.to_owned(),
            ]);
        }
        if matches!(factory.name, "vecadd" | "relu" | "saxpy" | "sgemm") {
            math_naive.extend_from_slice(&naive);
            math_fixed.extend_from_slice(&fixed);
        }
        for row in &result.rows {
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{:.4}",
                factory.name,
                row.config.topology_name(),
                row.config.hardware_parallelism(),
                row.cycles_naive,
                row.cycles_fixed,
                row.cycles_auto,
                row.lws_auto,
                row.dram_utilization
            );
        }
    }

    println!("{}", table.to_text());
    if !math_naive.is_empty() {
        let n = RatioSummary::from_ratios(math_naive);
        let f = RatioSummary::from_ratios(math_fixed);
        println!(
            "math kernels aggregate: {:.2}x over lws=1, {:.2}x over lws=32  (paper reports 1.3x / 3.7x)",
            n.avg, f.avg
        );
    }
    if let Some(path) = flags.get_str("csv") {
        std::fs::write(path, csv).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("per-configuration data written to {path}");
    }
}
