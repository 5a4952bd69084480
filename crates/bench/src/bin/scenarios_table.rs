//! Regenerates the paper's **§2 scenario analysis**: the three mapping
//! regimes that arise from the relation between `lws` and `gws / hp`,
//! demonstrated — like the paper's running example — with a 128-element
//! vecadd on a 1-core, 2-warp, 4-thread device.
//!
//! ```text
//! cargo run --release -p vortex-bench --bin scenarios_table
//! cargo run --release -p vortex-bench --bin scenarios_table -- --topo 2c4w8t --n 1024
//! ```

use vortex_bench::cli::{or_exit, Flags};
use vortex_core::{LwsPolicy, MappingScenario, WorkMapping};
use vortex_kernels::{run_kernel, VecAdd};
use vortex_stats::Table;

fn main() {
    let flags = Flags::from_env();
    let n = or_exit(flags.get_usize("n", 128)) as u32;
    let config = or_exit(flags.get_topology("topo", "1c2w4t"));
    let hp = config.hardware_parallelism();

    println!("§2 scenario analysis — vecadd gws={n} on {} (hp = {hp})\n", config.topology_name());

    let mut table =
        Table::new(vec!["lws", "n_tasks", "rounds", "scenario", "tail util", "cycles", "vs best"]);
    let lws_values: Vec<u32> = {
        let mut v = vec![1u32];
        let mut x = 2;
        while x <= n {
            v.push(x);
            x *= 2;
        }
        v
    };
    let mut measured = Vec::new();
    for &lws in &lws_values {
        let mut kernel = VecAdd::new(n);
        let outcome =
            run_kernel(&mut kernel, &config, LwsPolicy::Explicit(lws)).unwrap_or_else(|e| {
                eprintln!("lws={lws}: {e}");
                std::process::exit(1);
            });
        let plan = WorkMapping::plan(n, lws, &config);
        measured.push((lws, plan, outcome.cycles));
    }
    let best = measured.iter().map(|(_, _, c)| *c).min().expect("non-empty");
    for (lws, plan, cycles) in &measured {
        table.row(vec![
            lws.to_string(),
            plan.n_tasks().to_string(),
            plan.rounds().to_string(),
            match plan.scenario() {
                MappingScenario::MultiCall => "lws < gws/hp (multi-call)".to_owned(),
                MappingScenario::ExactFit => "lws = gws/hp (exact fit)".to_owned(),
                MappingScenario::Underfilled => "lws > gws/hp (under-filled)".to_owned(),
            },
            format!("{:.2}", plan.tail_utilization()),
            cycles.to_string(),
            format!("{:.2}x", *cycles as f64 / best as f64),
        ]);
    }
    println!("{}", table.to_text());

    let eq1 = LwsPolicy::Auto.lws_for(n, &config);
    println!("Eq. 1 resolves to lws = {eq1} at runtime (gws/hp = {}/{hp})", n);
}
