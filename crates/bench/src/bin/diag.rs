//! Ad-hoc diagnostic: per-policy cycle and memory breakdown on one
//! configuration (not a paper artefact).

use vortex_bench::cli::{or_exit, Flags};
use vortex_core::LwsPolicy;
use vortex_kernels::{run_kernel, VecAdd};

fn main() {
    let flags = Flags::from_env();
    let config = or_exit(flags.get_topology("topo", "24c2w4t"));
    let n = or_exit(flags.get_usize("n", 4096)) as u32;
    for lws in [1u32, 2, 4, 8, 16, 21, 32, 64, 128] {
        let mut k = VecAdd::new(n);
        let policy = LwsPolicy::Explicit(lws);
        match run_kernel(&mut k, &config, policy) {
            Ok(o) => {
                let r = &o.reports[0];
                println!(
                    "lws={lws:>4} cycles={:>8} rounds={:>4} instr={:>8} l1hit={:>5.1}% l2hit={:>5.1}% dram={:>6} util={:.2} scen={:?}",
                    o.cycles,
                    r.rounds,
                    o.instructions,
                    o.mem.l1.hit_rate() * 100.0,
                    o.mem.l2.hit_rate() * 100.0,
                    o.mem.dram_requests,
                    o.dram_utilization,
                    r.scenario,
                );
            }
            Err(e) => println!("lws={lws}: {e}"),
        }
    }
}
