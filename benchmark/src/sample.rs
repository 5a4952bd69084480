//! Everything `--seed` decides: which topologies a workload visits, the
//! µarch variants of `replay_uarch`, and the store insertion order.
//!
//! Topologies are drawn by stratified sampling of the paper's 450-point
//! grid, one per stratum. A stratum is a short list of grid points with
//! the same `cores × warps` and the same `threads`: the hardware
//! parallelism `hp` is one value, so Eq. 1 resolves to one lws, the same
//! policies coincide (and share a run), the issued-instruction count is
//! within a few percent and the device takes the same memory — while the
//! machine differs in how its warps are split over cores, and with that
//! in L1 count, occupancy per core and cycles. Host cost over a stratum
//! was measured to stay within ±2–8 % (`README.md`), which is what lets
//! runs on different seeds be compared within the bounds of
//! `BENCHMARK.json`. Sampling across `threads` or `hp` would move every
//! host metric by more than any bound.

use crate::surface::{DeviceConfig, Fnv64, Rng, CORE_STEPS, THREAD_STEPS, WARP_STEPS};

/// Grid topologies of one `(cores × warps, threads)` class.
pub type Stratum = &'static [&'static str];

/// The seeded generator of one sampling decision (`stream` names it, so
/// decisions do not share draws).
pub fn rng(seed: u64, stream: &str) -> Rng {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_str(stream);
    Rng::seed_from_u64(h.finish())
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

/// Parses a topology of the paper grid.
///
/// # Panics
///
/// Panics when `name` is not a grid point: strata are written by hand.
pub fn grid_point(name: &str) -> DeviceConfig {
    let config: DeviceConfig = name.parse().unwrap_or_else(|_| panic!("{name}: not a topology"));
    assert!(
        CORE_STEPS.contains(&config.cores)
            && WARP_STEPS.contains(&config.warps)
            && THREAD_STEPS.contains(&config.threads)
            && config.cores_per_cluster == 1,
        "{name} is not on the paper grid"
    );
    config
}

/// One topology per stratum.
pub fn sample_strata(rng: &mut Rng, strata: &[Stratum]) -> Vec<DeviceConfig> {
    strata
        .iter()
        .map(|members| grid_point(members[rng.gen_range_usize(0, members.len())]))
        .collect()
}

/// The two corners of the paper grid, which `sweep_cold` always keeps.
pub fn corners() -> [DeviceConfig; 2] {
    [grid_point("1c2w2t"), grid_point("64c32w32t")]
}

/// The two corners plus one topology per `(cores, threads)` column of
/// every other core count of the paper grid, the warp count drawn per
/// column: the 47 configurations `store_roundtrip` fills its store from.
/// No simulation is timed there, so the columns need not be
/// cost-equivalent; the `64c32w32t` corner is the largest device of every
/// seed, which keeps the process's peak memory seed-independent.
pub fn store_columns(rng: &mut Rng) -> Vec<DeviceConfig> {
    let columns = CORE_STEPS
        .iter()
        .step_by(2)
        .flat_map(|&cores| THREAD_STEPS.iter().map(move |&threads| (cores, threads)));
    let mut configs = corners().to_vec();
    for (cores, threads) in columns {
        let warps = WARP_STEPS[rng.gen_range_usize(0, WARP_STEPS.len())];
        let config = DeviceConfig::with_topology(cores, warps, threads);
        if !configs.contains(&config) {
            configs.push(config);
        }
    }
    configs
}

/// Two clustered 256-core devices of 16 384 lanes each — `256c8w8t` and
/// `256c4w16t`, so device memory and instruction counts stay put — the
/// seed picking the cores per cluster (16 or 32) of each.
pub fn bigtopo_pair(rng: &mut Rng) -> Vec<DeviceConfig> {
    [(8, 8), (4, 16)]
        .into_iter()
        .map(|(warps, threads)| {
            let per_cluster = if rng.gen_bool() { 16 } else { 32 };
            DeviceConfig::with_topology(256, warps, threads).with_clustering(per_cluster)
        })
        .collect()
}

/// Seeded µarch variant `index` (1-based; 0 is the base itself) of
/// `base`: pipeline latencies, cache geometry and DRAM parameters move —
/// everything a replay re-times — while the topology, and with it the
/// trace key, stays put. Values stay inside the ranges the product's own
/// `--uarch` sweep uses.
///
/// The seed draws the latencies: they move cycles and hardly any host
/// time. The knobs that decide how often the host walks the miss path —
/// L1 and L2 capacity, DRAM channels and interval — are a fixed function
/// of `index`, so every seed re-times a topology under the same
/// geometries and host work stays comparable across seeds.
pub fn uarch_variant(rng: &mut Rng, base: &DeviceConfig, index: usize) -> DeviceConfig {
    let mut c = *base;
    let mut pick = |lo: u64, hi: u64| rng.gen_range_u64(lo, hi + 1);
    c.timing.alu = pick(1, 2);
    c.timing.mul = pick(2, 6);
    c.timing.div = pick(12, 18);
    c.timing.fpu = pick(3, 6);
    c.timing.fdiv = pick(12, 18);
    c.timing.fsqrt = pick(16, 24);
    c.timing.branch_bubble = pick(1, 3);
    c.timing.wspawn = pick(8, 20);
    c.timing.barrier = pick(2, 5);
    c.mem.l1_latency = pick(1, 3);
    c.mem.l2_latency = pick(12, 30);
    c.mem.l2_interval = pick(1, 2);
    c.mem.dram.latency = pick(60, 150);
    let level = |offset: usize| ((index + offset) % 3) as u32;
    // L1 capacity and associativity move together, so the set count
    // (and the index function) stays what the default geometry has.
    c.mem.l1.size_bytes = (8 * 1024) << level(0);
    c.mem.l1.ways = 2 << level(0);
    c.mem.l2.size_bytes = (128 * 1024) << level(1);
    c.mem.dram.channels = 2 << level(2);
    c.mem.dram.interval = 1 + u64::from(level(0));
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let strata: [Stratum; 2] = [&["4c16w8t", "8c8w8t", "16c4w8t"], &["1c16w32t", "2c8w32t"]];
        let draw = |seed| sample_strata(&mut rng(seed, "t"), &strata);
        assert_eq!(draw(11), draw(11));
        assert!((12..40).any(|s| draw(s) != draw(11)));
        let base = grid_point("2c4w8t");
        let variants = |seed| [1, 2, 3].map(|i| uarch_variant(&mut rng(seed, "u"), &base, i));
        assert_eq!(variants(11), variants(11));
        assert_ne!(variants(11), variants(12));
        for (a, b) in variants(11).iter().zip(variants(12)) {
            assert_eq!((a.cores, a.warps, a.threads), (2, 4, 8), "a variant keeps the topology");
            assert_eq!(
                (a.mem.l1, a.mem.l2, a.mem.dram.channels),
                (b.mem.l1, b.mem.l2, b.mem.dram.channels)
            );
        }
    }

    #[test]
    fn store_columns_are_distinct_and_keep_the_corners() {
        let configs = store_columns(&mut rng(11, "s"));
        assert!((45..=47).contains(&configs.len()));
        assert_eq!(configs[..2], corners());
        let mut names: Vec<String> = configs.iter().map(|c| c.topology_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), configs.len());
    }
}
