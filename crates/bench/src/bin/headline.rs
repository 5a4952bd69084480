//! Regenerates the paper's **§3 headline numbers**: "our technique shows
//! an average 1.3× and 3.7× performance boost for the math kernels over
//! the lws=1 mapping and the lws=32 mapping, respectively."
//!
//! ```text
//! cargo run --release -p vortex-bench --bin headline
//! cargo run --release -p vortex-bench --bin headline -- --configs 60
//! ```

use vortex_bench::cli::{default_jobs, or_exit, Flags};
use vortex_bench::{kernel_factories, paper_sweep, run_campaign, subsample, Scale};
use vortex_stats::{RatioSummary, Table};

const MATH_KERNELS: [&str; 4] = ["vecadd", "relu", "saxpy", "sgemm"];

fn main() {
    let flags = Flags::from_env();
    let jobs = or_exit(flags.get_usize("jobs", default_jobs()));
    let configs = subsample(&paper_sweep(), or_exit(flags.get_usize("configs", 450)));
    let scale = if flags.has("paper-scale") { Scale::Paper } else { Scale::Sweep };

    println!("§3 headline — math kernels over {} configurations\n", configs.len());

    let mut table = Table::new(vec!["kernel", "avg vs lws=1", "avg vs lws=32"]);
    let mut all_naive = Vec::new();
    let mut all_fixed = Vec::new();
    for factory in kernel_factories(scale) {
        if !MATH_KERNELS.contains(&factory.name) {
            continue;
        }
        let result = run_campaign(&factory, &configs, jobs).unwrap_or_else(|e| {
            eprintln!("{}: {e}", factory.name);
            std::process::exit(1);
        });
        let naive = RatioSummary::from_ratios(result.naive_ratios());
        let fixed = RatioSummary::from_ratios(result.fixed_ratios());
        table.row(vec![
            factory.name.to_owned(),
            format!("{:.2}x", naive.avg),
            format!("{:.2}x", fixed.avg),
        ]);
        all_naive.extend(result.naive_ratios());
        all_fixed.extend(result.fixed_ratios());
    }
    let naive = RatioSummary::from_ratios(all_naive);
    let fixed = RatioSummary::from_ratios(all_fixed);
    table.row(vec![
        "— aggregate —".to_owned(),
        format!("{:.2}x", naive.avg),
        format!("{:.2}x", fixed.avg),
    ]);
    println!("{}", table.to_text());
    println!("paper reports: 1.3x over lws=1 and 3.7x over lws=32 for the math kernels");
}
