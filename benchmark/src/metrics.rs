//! The metric and workload catalogue: the single source of every name,
//! unit, direction and bound. `BENCHMARK.json` is `vxbench manifest`'s
//! output, so the manifest and the runner cannot drift apart.
//!
//! Host time (what the simulator takes) and simulated time (what the
//! modelled machine takes) are never mixed: every metric says which it is.
//! The model has no hardware reference in this repository, so it is
//! **unvalidated**: simulated numbers are statistics of the model, and no
//! accuracy figure is given anywhere.

use std::fmt::Write as _;

/// Which clock (or none) a metric reads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Host wall-clock or host memory: noisy, compared by medians.
    Host,
    /// Statistic of the simulated machine: deterministic, must repeat
    /// bit-for-bit for a given seed.
    Sim,
    /// Deterministic host-side count (calls, bytes, words).
    Count,
}

impl Kind {
    /// Label used in the tables and result files.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

/// One metric of the catalogue.
#[derive(Copy, Clone, Debug)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether a higher value is better (otherwise lower).
    pub higher_is_better: bool,
    /// Clock the metric reads.
    pub kind: Kind,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry 0).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, kind: Kind::Host, bound }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, kind: Kind) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, kind, bound: 0.0 }
}

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The end-to-end metrics, all host-side and all reported by every
/// workload. What "answer" and "config" mean per workload is in
/// `README.md`.
///
/// The reference box's identical-binary noise comes in bursts: quartile
/// spreads over ten seeds are 1–5 % in a quiet phase and 8–12 % in a noisy
/// one (`results/AA_PR11.json` holds one of each). Every timing carries
/// the widest bound a manifest may state, so a driver's A/A check passes
/// with a factor of two to spare in the noisy phase; memory is steadier.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("wall_s", "s", false, 0.25),
    e2e("host_ns_per_instr", "ns", false, 0.25),
    e2e("configs_per_s", "1/s", true, 0.25),
    e2e("answer_ms_p50", "ms", false, 0.25),
    e2e("answer_ms_p90", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.20),
];

use Kind::{Count, Host, Sim};

/// The per-layer metrics (layers are crate names). A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [MetricDef; 72] = [
    layer("asm.assemble_us", "us", false, Host),
    layer("asm.program_words", "count", false, Count),
    layer("isa.decode_ns_per_word", "ns", false, Host),
    layer("isa.roundtrip_fail", "count", false, Count),
    layer("core.runtime_new_us", "us", false, Host),
    layer("core.runtime_new_calls", "count", false, Count),
    layer("core.load_program_us", "us", false, Host),
    layer("core.reset_us", "us", false, Host),
    layer("core.reset_calls", "count", false, Count),
    layer("core.plan_compile_us", "us", false, Host),
    layer("core.plan_cache_hit_ratio", "ratio", true, Count),
    layer("core.launch_s", "s", false, Host),
    layer("core.rounds_per_launch", "count", false, Sim),
    layer("core.lanes_per_round", "count", true, Sim),
    layer("core.autotune.schedule_us", "us", false, Host),
    layer("core.autotune.fit_us", "us", false, Host),
    layer("core.autotune.probe_share", "ratio", true, Host),
    layer("core.autotune.regret_pct", "%", false, Sim),
    layer("core.digest_ns_per_key", "ns", false, Host),
    layer("kernels.setup_us", "us", false, Host),
    layer("kernels.verify_us", "us", false, Host),
    layer("kernels.harness_share", "ratio", false, Host),
    layer("sim.launch_ns_per_instr", "ns", false, Host),
    layer("sim.issued_instructions", "count", false, Sim),
    layer("sim.cycles", "count", false, Sim),
    layer("sim.ipc", "ratio", true, Sim),
    layer("sim.lane_utilization", "ratio", true, Sim),
    layer("sim.mem_instr_share", "ratio", false, Sim),
    layer("sim.fpu_instr_share", "ratio", false, Sim),
    layer("sim.simt_instr_share", "ratio", false, Sim),
    layer("sim.reset_work", "count", false, Sim),
    layer("sim.speedup_vs_lws1", "x", true, Sim),
    layer("sim.speedup_vs_lws32", "x", true, Sim),
    layer("sim.replay_ns_per_instr", "ns", false, Host),
    layer("sim.functional_share", "ratio", false, Host),
    layer("sim.class_ns.alu", "ns", false, Host),
    layer("sim.class_ns.mul", "ns", false, Host),
    layer("sim.class_ns.div", "ns", false, Host),
    layer("sim.class_ns.fpu", "ns", false, Host),
    layer("sim.class_ns.fdiv", "ns", false, Host),
    layer("sim.class_ns.fsqrt", "ns", false, Host),
    layer("sim.class_ns.load", "ns", false, Host),
    layer("sim.class_ns.store", "ns", false, Host),
    layer("sim.class_ns.branch", "ns", false, Host),
    layer("sim.class_ns.simt", "ns", false, Host),
    layer("sim.class_ns.sys", "ns", false, Host),
    layer("mem.l1_hit_ratio", "ratio", true, Sim),
    layer("mem.l2_hit_ratio", "ratio", true, Sim),
    layer("mem.dram_requests", "count", false, Sim),
    layer("mem.dram_utilization", "ratio", false, Sim),
    layer("mem.port_stall_per_access", "ratio", false, Sim),
    layer("mem.stream_ns_per_line", "ns", false, Host),
    layer("mem.coalesce_ns_per_access", "ns", false, Host),
    layer("mem.walk_share_est", "ratio", false, Host),
    layer("trace.encode_mb_per_s", "MB/s", true, Host),
    layer("trace.decode_mb_per_s", "MB/s", true, Host),
    layer("trace.bytes_per_instr", "B", false, Count),
    layer("trace.record_overhead", "ratio", false, Host),
    layer("bench.tracestore.save_ms", "ms", false, Host),
    layer("bench.tracestore.load_ms", "ms", false, Host),
    layer("bench.tracestore.bytes", "B", false, Count),
    layer("bench.cache.open_ms", "ms", false, Host),
    layer("bench.cache.lookup_ns", "ns", false, Host),
    layer("bench.cache.insert_ns", "ns", false, Host),
    layer("bench.cache.flush_ms", "ms", false, Host),
    layer("bench.cache.bytes_read", "B", false, Count),
    layer("bench.cache.bytes_written", "B", false, Count),
    layer("bench.cache.hit_ratio", "ratio", true, Count),
    layer("bench.campaign.dedup_ratio", "ratio", false, Sim),
    layer("bench.campaign.overhead_share", "ratio", false, Host),
    layer("vxbench.span_coverage", "ratio", true, Host),
    layer("vxbench.trace_overhead_pct", "%", false, Host),
];

/// One workload of the catalogue.
#[derive(Copy, Clone, Debug)]
pub struct WorkloadDef {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "sweep_cold",
        why: "The paper's campaign shape: sweep-scale kernels x sampled topologies x 3 policies, no store; ~2 ms runs, so per-run fixed costs (device build, reset, setup/verify) weigh most here.",
    },
    WorkloadDef {
        name: "paper_compute",
        why: "Paper-size sgemm + resnet_layer: L1 hit >= 0.90 and >= 100 ms per run, so the issue/scoreboard/arbitration walk does the work and the harness almost none.",
    },
    WorkloadDef {
        name: "paper_memory",
        why: "Paper-size gauss + knn + gcn_aggr + vecadd on paper_compute's topologies: DRAM utilisation >= 0.30, the L2/DRAM miss path's largest share; twin of paper_compute for memory-walk changes.",
    },
    WorkloadDef {
        name: "bigtopo_256c",
        why: "Sweep-scale kernels on clustered 256-core devices: >= 100 dispatch rounds per launch at few lanes, so cluster scan, dispatch rounds, device build and O(touched) reset dominate.",
    },
    WorkloadDef {
        name: "tune_k6",
        why: "One live tune_lws(budget 6) per (kernel, topology) cell: the paper's runtime feedback loop as a user waits on it; 6 distinct lws per cell miss the plan cache that sweep_cold hits.",
    },
    WorkloadDef {
        name: "store_roundtrip",
        why: "Insert + flush + reopen + fully warm campaign over real rows: simulation does nothing, the store codec, digest and file I/O do everything; writes sit beside reads so a trade shows.",
    },
    WorkloadDef {
        name: "replay_uarch",
        why: "Topologies x 4 seeded uarch variants through the trace store: 1 record + 3 replays per key; the sim layer used via issue_replay and the .vxtr codec instead of row kernels.",
    },
];

/// Looks up a per-layer metric by name.
pub fn layer_def(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Renders `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

fn better(m: &MetricDef) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_manifest_limits() {
        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "unit too long: {}", m.unit);
            assert!(
                m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound out of range", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{} why too long", w.name);
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with `vxbench manifest`");
    }
}
