//! Regenerates **Figure 1** of the paper: execution traces of the
//! `vecadd` kernel (gws = 128) on a `1c2w4t` device under four different
//! `lws` values, showing per-warp issue activity over time, the active
//! thread mask, and the semantic code section of every instruction.
//!
//! ```text
//! cargo run --release -p vortex-bench --bin fig1_traces
//! cargo run --release -p vortex-bench --bin fig1_traces -- --width 120 --n 256
//! ```

use vortex_bench::cli::{or_exit, Flags};
use vortex_core::LwsPolicy;
use vortex_kernels::{run_kernel_traced, Kernel, VecAdd};
use vortex_sim::VecTraceSink;
use vortex_stats::Table;
use vortex_trace::{render_timeline, TimelineOptions, Trace, TraceStats};

fn main() {
    let flags = Flags::from_env();
    let n = or_exit(flags.get_usize("n", 128)) as u32;
    let width = or_exit(flags.get_usize("width", 96));
    let config = or_exit(flags.get_topology("topo", "1c2w4t"));
    let hp = config.hardware_parallelism();

    println!(
        "Figure 1 reproduction — vecadd (gws={n}) on {}   (hp = {hp}, Eq.1 lws = {})\n",
        config.topology_name(),
        (u64::from(n) / hp).max(1),
    );

    let mut table = Table::new(vec![
        "lws",
        "scenario",
        "cycles",
        "instructions",
        "rounds",
        "body%",
        "overhead%",
        "lane util",
    ]);
    let mut cycles_by_lws = Vec::new();

    for lws in [1u32, 16, 32, 64] {
        let mut kernel = VecAdd::new(n);
        let program = kernel.build().expect("vecadd assembles");
        let mut sink = VecTraceSink::new();
        let outcome =
            run_kernel_traced(&mut kernel, &config, LwsPolicy::Explicit(lws), Some(&mut sink))
                .unwrap_or_else(|e| {
                    eprintln!("vecadd lws={lws} failed: {e}");
                    std::process::exit(1);
                });
        let trace = Trace::from_sink(sink);
        let stats = TraceStats::compute(&trace, &program);
        let report = &outcome.reports[0];

        let timeline = render_timeline(
            &trace,
            &program,
            0,
            &format!("lws={lws} ({})", report.scenario),
            TimelineOptions { width, show_lane_counts: true },
        );
        println!("{timeline}");

        table.row(vec![
            lws.to_string(),
            format!("{:?}", report.scenario),
            outcome.cycles.to_string(),
            stats.instructions.to_string(),
            report.rounds.to_string(),
            format!("{:.1}", stats.body_fraction() * 100.0),
            format!("{:.1}", stats.overhead_fraction() * 100.0),
            format!("{:.2}", trace.lane_utilization(config.threads)),
        ]);
        cycles_by_lws.push((lws, outcome.cycles));
    }

    println!("{}", table.to_text());

    // The paper's reading of Fig. 1: the exact-fit lws (= gws/hp) wins.
    let optimal = (u64::from(n) / hp).max(1) as u32;
    let best = cycles_by_lws.iter().min_by_key(|(_, c)| *c).expect("non-empty");
    println!("best sampled lws = {} ({} cycles); Eq.1 predicts lws = {optimal}", best.0, best.1);
}
