//! The 450-configuration hardware sweep of the paper's §3.

use vortex_sim::DeviceConfig;

/// Core counts of the sweep grid (18 values spanning 1..64).
pub const CORE_STEPS: [usize; 18] =
    [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32, 40, 48, 56, 64];

/// Warp counts of the sweep grid.
pub const WARP_STEPS: [usize; 5] = [2, 4, 8, 16, 32];

/// Thread counts of the sweep grid.
pub const THREAD_STEPS: [usize; 5] = [2, 4, 8, 16, 32];

/// The full sweep: 18 × 5 × 5 = **450 configurations** spanning `1c2w2t`
/// to `64c32w32t`, matching the paper's §3 ("450 different hardware GPU
/// configurations, spanning from 1 core, 2 warps, and 2 threads to
/// 64c32w32t"). The exact grid is not given in the paper; this
/// reconstruction keeps the corner points and the cardinality.
pub fn paper_sweep() -> Vec<DeviceConfig> {
    let mut configs = Vec::with_capacity(450);
    for &cores in &CORE_STEPS {
        for &warps in &WARP_STEPS {
            for &threads in &THREAD_STEPS {
                configs.push(DeviceConfig::with_topology(cores, warps, threads));
            }
        }
    }
    configs
}

/// Deterministic micro-architecture variant `v` of `base`: perturbs
/// pipeline latencies, cache geometry and DRAM parameters — everything
/// trace replay re-times — while leaving the topology (and therefore the
/// trace key) untouched. Variant 0 is `base` itself; `campaign --uarch M`
/// expands every grid topology into variants `0..M`.
pub fn uarch_variant(base: &DeviceConfig, v: usize) -> DeviceConfig {
    let mut c = *base;
    if v == 0 {
        return c;
    }
    let k = v as u64;
    c.timing.alu = 1 + (k & 1);
    c.timing.mul = 2 + k % 5;
    c.timing.div = 12 + 2 * (k % 4);
    c.timing.fpu = 3 + k % 4;
    c.timing.fdiv = 12 + 3 * (k % 3);
    c.timing.fsqrt = 16 + 4 * (k % 3);
    c.timing.branch_bubble = 1 + k % 3;
    c.timing.wspawn = 8 + 4 * (k % 4);
    c.timing.barrier = 2 + k % 4;
    c.mem.l1_latency = 1 + k % 3;
    c.mem.l2_latency = 12 + 6 * (k % 4);
    c.mem.l2_interval = 1 + k % 2;
    c.mem.l1.size_bytes = (8 * 1024) << (k % 3);
    c.mem.l1.ways = 2 << (k % 3);
    c.mem.l2.size_bytes = (128 * 1024) << (k % 3);
    c.mem.dram.latency = 60 + 30 * (k % 4);
    c.mem.dram.interval = 1 + k % 3;
    c.mem.dram.channels = 2 << (k % 3);
    c
}

/// Deterministically subsamples `configs` down to at most `n` entries,
/// keeping the first and last and spreading the rest evenly.
pub fn subsample(configs: &[DeviceConfig], n: usize) -> Vec<DeviceConfig> {
    if n == 0 || configs.is_empty() {
        return Vec::new();
    }
    if n >= configs.len() {
        return configs.to_vec();
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = i * (configs.len() - 1) / (n - 1).max(1);
        out.push(configs[idx]);
    }
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_exactly_450_configs() {
        let sweep = paper_sweep();
        assert_eq!(sweep.len(), 450);
    }

    #[test]
    fn sweep_spans_the_paper_corners() {
        let sweep = paper_sweep();
        let names: Vec<String> = sweep.iter().map(|c| c.topology_name()).collect();
        assert!(names.contains(&"1c2w2t".to_owned()));
        assert!(names.contains(&"64c32w32t".to_owned()));
    }

    #[test]
    fn sweep_has_no_duplicates() {
        let sweep = paper_sweep();
        let mut names: Vec<String> = sweep.iter().map(|c| c.topology_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 450);
    }

    #[test]
    fn subsample_keeps_extremes() {
        let sweep = paper_sweep();
        let sub = subsample(&sweep, 10);
        assert!(sub.len() <= 10 && sub.len() >= 2);
        assert_eq!(sub.first().unwrap().topology_name(), "1c2w2t");
        assert_eq!(sub.last().unwrap().topology_name(), "64c32w32t");
        assert_eq!(subsample(&sweep, 1000).len(), 450);
        assert!(subsample(&sweep, 0).is_empty());
    }

    #[test]
    fn uarch_variants_keep_the_topology() {
        let base = DeviceConfig::with_topology(4, 8, 8).with_clustering(2);
        assert_eq!(uarch_variant(&base, 0), base);
        for v in 1..4 {
            let c = uarch_variant(&base, v);
            assert_ne!(c, base, "variant {v} must re-time");
            assert_eq!(c.topology_name(), base.topology_name());
        }
    }

    #[test]
    fn hp_range_matches_paper() {
        let sweep = paper_sweep();
        let min = sweep.iter().map(|c| c.hardware_parallelism()).min().unwrap();
        let max = sweep.iter().map(|c| c.hardware_parallelism()).max().unwrap();
        assert_eq!(min, 4); // 1c2w2t
        assert_eq!(max, 65536); // 64c32w32t
    }
}
