//! The seven workloads: what `--seed` makes of each (set-up), one timed
//! repetition through the product's own entry points, and the same
//! repetition re-driven layer by layer for the traced pass.
//!
//! Sizes are chosen so one repetition takes 1–1.6 s on the reference box:
//! at least five fit the 10 s a driver run measures. Shrink configurations
//! per repetition if that ever has to change — never the workload list.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::drive::{self, SimExact};
use crate::sample;
use crate::spans::Spans;
use crate::surface::{
    campaign_key_from_digest, digest_program, kernel_factories, run_campaign, run_campaign_cached,
    run_campaign_cached_traced, run_kernel_prepared, tune_lws, CampaignCache, ConfigRow,
    DeviceConfig, Kernel, KernelError, KernelFactory, LwsPolicy, ProbedRow, Program, Runtime,
    Scale, TraceStore,
};

/// Probe budget of `tune_k6`.
pub const TUNE_BUDGET: usize = 6;
/// Seeded µarch variants per topology in `replay_uarch`, beside the base.
pub const UARCH_VARIANTS: usize = 3;
/// Store round trips per repetition of `store_roundtrip`.
pub const STORE_TRIPS: usize = 200;
/// Store round trips per *traced* repetition (every row is a span).
const STORE_TRIPS_TRACED: usize = 4;

/// A workload of the catalogue ([`crate::metrics::WORKLOADS`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Sweep-scale kernels × corners + sampled topologies, no store.
    SweepCold,
    /// Paper-size compute-bound kernels.
    PaperCompute,
    /// Paper-size memory-bound kernels.
    PaperMemory,
    /// Sweep-scale kernels on clustered 256-core devices.
    Bigtopo256c,
    /// One live K = 6 tuning answer per cell.
    TuneK6,
    /// Campaign store write + read.
    StoreRoundtrip,
    /// Trace record once, replay under µarch variants.
    ReplayUarch,
}

impl Kind {
    /// Every workload, in catalogue order.
    pub const ALL: [Kind; 7] = [
        Kind::SweepCold,
        Kind::PaperCompute,
        Kind::PaperMemory,
        Kind::Bigtopo256c,
        Kind::TuneK6,
        Kind::StoreRoundtrip,
        Kind::ReplayUarch,
    ];

    /// The catalogue name.
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[Kind::ALL.iter().position(|&k| k == self).expect("listed")].name
    }

    /// Parses a catalogue name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a repetition needs, made from the seed.
pub struct Setup {
    /// The workload.
    pub kind: Kind,
    /// Kernel constructors, in run order.
    pub factories: Vec<KernelFactory>,
    /// One built instance per factory (tuning probes and the labs run on
    /// these; campaigns build their own, as the product does).
    pub kernels: Vec<Box<dyn Kernel>>,
    /// The assembled program of each kernel.
    pub programs: Vec<Program>,
    /// The configurations every kernel visits.
    pub configs: Vec<DeviceConfig>,
    /// `store_roundtrip`: the simulated rows, `[kernel][config]`.
    pub stored: Vec<Vec<ConfigRow>>,
    /// `store_roundtrip`: seeded insertion order over `(kernel, config)`.
    pub insert_order: Vec<(usize, usize)>,
    /// Directory (inside the checkout) for stores this workload writes.
    pub scratch: PathBuf,
}

/// The strata each workload samples one topology from; see [`sample`]
/// for what a stratum holds fixed and why.
const SWEEP_STRATA: [sample::Stratum; 4] = [
    &["1c16w32t", "2c8w32t", "4c4w32t"],
    &["4c16w8t", "8c8w8t", "16c4w8t"],
    &["4c32w16t", "8c16w16t", "16c8w16t"],
    &["8c32w4t", "16c16w4t", "32c8w4t"],
];
const PAPER_STRATA: [sample::Stratum; 2] = [&["4c16w8t", "8c8w8t"], &["4c32w16t", "8c16w16t"]];
const TUNE_STRATA: [sample::Stratum; 1] = [&["2c16w16t", "4c8w16t", "8c4w16t"]];
const REPLAY_STRATA: [sample::Stratum; 2] = [&["2c8w8t", "4c4w8t"], &["4c16w16t", "8c8w16t"]];

fn pick(scale: Scale, names: &[&str]) -> Vec<KernelFactory> {
    let mut all = kernel_factories(scale);
    names
        .iter()
        .map(|n| all.remove(all.iter().position(|f| f.name == *n).expect("a catalogue kernel")))
        .collect()
}

/// Builds the workload's inputs from `seed`.
///
/// # Errors
///
/// Assembly or (for `store_roundtrip`'s pre-fill) simulation failures.
pub fn setup(kind: Kind, seed: u64, scratch: &Path) -> Result<Setup, KernelError> {
    let mut rng = sample::rng(seed, kind.name());
    let factories = match kind {
        Kind::PaperCompute => pick(Scale::Paper, &["sgemm", "resnet_layer"]),
        Kind::PaperMemory => pick(Scale::Paper, &["gauss", "knn", "gcn_aggr", "vecadd"]),
        Kind::StoreRoundtrip => pick(Scale::Sweep, &["vecadd", "relu", "saxpy"]),
        _ => kernel_factories(Scale::Sweep),
    };
    let configs = match kind {
        Kind::SweepCold => {
            let mut c = sample::corners().to_vec();
            c.extend(sample::sample_strata(&mut rng, &SWEEP_STRATA));
            c
        }
        // The twins share a stream, so one seed gives both the same
        // topologies.
        Kind::PaperCompute | Kind::PaperMemory => {
            sample::sample_strata(&mut sample::rng(seed, "paper"), &PAPER_STRATA)
        }
        Kind::Bigtopo256c => sample::bigtopo_pair(&mut rng),
        Kind::TuneK6 => {
            let mut c: Vec<DeviceConfig> =
                ["1c2w4t", "2c4w8t", "4c8w8t"].map(sample::grid_point).to_vec();
            c.extend(sample::sample_strata(&mut rng, &TUNE_STRATA));
            c
        }
        Kind::StoreRoundtrip => sample::store_columns(&mut rng),
        Kind::ReplayUarch => sample::sample_strata(&mut rng, &REPLAY_STRATA)
            .iter()
            .flat_map(|base| {
                let mut group = vec![*base];
                group
                    .extend((1..=UARCH_VARIANTS).map(|i| sample::uarch_variant(&mut rng, base, i)));
                group
            })
            .collect(),
    };
    let kernels: Vec<Box<dyn Kernel>> = factories.iter().map(KernelFactory::make_kernel).collect();
    let programs = kernels.iter().map(|k| k.build()).collect::<Result<Vec<_>, _>>()?;

    let mut stored = Vec::new();
    let mut insert_order = Vec::new();
    if kind == Kind::StoreRoundtrip {
        for factory in &factories {
            stored.push(run_campaign(factory, &configs, 1)?.rows);
        }
        insert_order =
            (0..factories.len()).flat_map(|k| (0..configs.len()).map(move |c| (k, c))).collect();
        sample::shuffle(&mut rng, &mut insert_order);
    }
    Ok(Setup {
        kind,
        factories,
        kernels,
        programs,
        configs,
        stored,
        insert_order,
        scratch: scratch.to_path_buf(),
    })
}

/// What one repetition did and produced.
#[derive(Default)]
pub struct Rep {
    /// Host ns of the timed region.
    pub wall_ns: u64,
    /// Host ns of each answer (one product call the user waits on).
    pub answers_ns: Vec<u64>,
    /// `(kernel, config)` cells answered.
    pub configs: u64,
    /// Host ns those cells were answered in (the read phase on
    /// `store_roundtrip`, the timed region elsewhere).
    pub configs_ns: u64,
    /// Rows produced, per kernel: one per configuration — or, on
    /// `tune_k6`, one per probe.
    pub rows: Vec<Vec<ConfigRow>>,
    /// `tune_k6`: the chosen lws of each cell, in run order.
    pub chosen: Vec<u32>,
    /// How often `rows` was delivered (`store_roundtrip` reads the same
    /// rows once per trip).
    pub deliveries: u64,
    /// Operations attempted (see `README.md` for the unit per workload).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Policy runs the trace store recorded / replayed.
    pub trace_records: u64,
    /// See `trace_records`.
    pub trace_replays: u64,
    /// Store lookups that hit / missed, and rows inserted, while reading.
    pub read_hits: u64,
    /// See `read_hits`.
    pub read_misses: u64,
    /// See `read_hits`.
    pub read_insertions: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn io_err(e: std::io::Error) -> String {
    format!("store i/o: {e}")
}

/// Verified policy runs a campaign over `s.configs` executes.
fn campaign_ops(s: &Setup) -> u64 {
    s.kernels
        .iter()
        .flat_map(|k| {
            s.configs
                .iter()
                .map(|c| drive::distinct_policy_runs(&drive::policy_signatures(k.as_ref(), c)))
        })
        .sum()
}

/// One timed repetition through the product's entry points.
///
/// # Errors
///
/// A product error (no workload is expected to produce one).
pub fn rep(s: &mut Setup) -> Result<Rep, String> {
    let mut r = Rep { deliveries: 1, ..Rep::default() };
    let cells = (s.factories.len() * s.configs.len()) as u64;
    let start = Instant::now();
    match s.kind {
        Kind::SweepCold | Kind::PaperCompute | Kind::PaperMemory | Kind::Bigtopo256c => {
            for factory in &s.factories {
                let t = Instant::now();
                let result = run_campaign(factory, &s.configs, 1).map_err(|e| e.to_string())?;
                r.answers_ns.push(ns(t));
                r.rows.push(result.rows);
            }
            r.attempted = campaign_ops(s);
        }
        Kind::ReplayUarch => {
            let dir = s.scratch.join("traces");
            let _ = std::fs::remove_dir_all(&dir);
            let store = TraceStore::open(&dir).map_err(io_err)?;
            for factory in &s.factories {
                let t = Instant::now();
                let result = run_campaign_cached_traced(factory, &s.configs, 1, None, Some(&store))
                    .map_err(|e| e.to_string())?;
                r.answers_ns.push(ns(t));
                r.trace_records += result.trace_records;
                r.trace_replays += result.trace_replays;
                r.rows.push(result.rows);
            }
            std::fs::remove_dir_all(&dir).map_err(io_err)?;
            // One op per row: it must equal the execute pass's row.
            r.attempted = cells;
        }
        Kind::TuneK6 => {
            for (kernel, program) in s.kernels.iter_mut().zip(&s.programs) {
                let gws = kernel.phases().first().map_or(1, |p| p.gws);
                let mut rows = Vec::new();
                for config in &s.configs {
                    let t = Instant::now();
                    let mut rt = Runtime::new(*config);
                    rt.load_program(program);
                    let outcome = tune_lws(gws, config, TUNE_BUDGET, |lws| {
                        let policy = LwsPolicy::Explicit(lws);
                        let out = run_kernel_prepared(kernel.as_mut(), program, &mut rt, policy)?;
                        rows.push(drive::probe_row(config, lws, &out));
                        Ok::<_, KernelError>(ProbedRow {
                            lws,
                            cycles: out.cycles,
                            dispatch: out.dispatch,
                        })
                    })
                    .map_err(|e| e.to_string())?;
                    r.answers_ns.push(ns(t));
                    r.chosen.push(outcome.chosen_lws);
                }
                // One op per verified probe run.
                r.attempted += rows.len() as u64;
                r.rows.push(rows);
            }
        }
        Kind::StoreRoundtrip => {
            let digests: Vec<u64> = s.programs.iter().map(digest_program).collect();
            let dir = s.scratch.join("store");
            for trip in 0..STORE_TRIPS {
                let _ = std::fs::remove_dir_all(&dir);
                let cache = CampaignCache::open(&dir).map_err(io_err)?;
                for &(k, c) in &s.insert_order {
                    let f = &s.factories[k];
                    let key = campaign_key_from_digest(f.name, f.scale, digests[k], &s.configs[c]);
                    cache.insert(f.name, key, &s.stored[k][c]);
                }
                cache.flush().map_err(io_err)?;
                drop(cache);

                let read = Instant::now();
                let cache = CampaignCache::open(&dir).map_err(io_err)?;
                for (k, factory) in s.factories.iter().enumerate() {
                    let t = Instant::now();
                    let result = run_campaign_cached(factory, &s.configs, 1, Some(&cache))
                        .map_err(|e| e.to_string())?;
                    r.answers_ns.push(ns(t));
                    // One op per lookup expected to hit with the stored row.
                    r.failed +=
                        result.rows.iter().zip(&s.stored[k]).filter(|(a, b)| a != b).count() as u64;
                    if trip == 0 {
                        r.rows.push(result.rows);
                    }
                }
                r.configs_ns += ns(read);
                let c = cache.counters();
                r.read_hits += c.hits;
                r.read_misses += c.misses;
                r.read_insertions += c.insertions;
            }
            std::fs::remove_dir_all(&dir).map_err(io_err)?;
            r.deliveries = STORE_TRIPS as u64;
            r.attempted = cells * STORE_TRIPS as u64;
        }
    }
    r.wall_ns = ns(start);
    r.configs = cells * r.deliveries;
    if s.kind != Kind::StoreRoundtrip {
        r.configs_ns = r.wall_ns;
    }
    Ok(r)
}

/// The same repetition re-driven through public calls only, a span at
/// each layer boundary (see [`drive`]). The rows must equal [`rep`]'s.
///
/// # Errors
///
/// A product error.
pub fn traced_rep(
    s: &mut Setup,
    spans: &mut Spans,
    exact: &mut SimExact,
    index: usize,
) -> Result<Rep, String> {
    let mut r = Rep { deliveries: 1, ..Rep::default() };
    let label = format!("{}/{index}", s.kind.name());
    let cells = (s.factories.len() * s.configs.len()) as u64;
    let start = Instant::now();
    let root = spans.enter("vxbench.rep");
    match s.kind {
        Kind::SweepCold | Kind::PaperCompute | Kind::PaperMemory | Kind::Bigtopo256c => {
            for factory in &s.factories {
                let rows = drive::campaign(spans, exact, &label, factory, &s.configs, None)
                    .map_err(|e| e.to_string())?;
                r.rows.push(rows);
            }
            r.attempted = campaign_ops(s);
        }
        Kind::ReplayUarch => {
            let dir = s.scratch.join("traces");
            let _ = std::fs::remove_dir_all(&dir);
            let store = TraceStore::open(&dir).map_err(io_err)?;
            for factory in &s.factories {
                let rows = drive::campaign(spans, exact, &label, factory, &s.configs, Some(&store))
                    .map_err(|e| e.to_string())?;
                r.rows.push(rows);
            }
            std::fs::remove_dir_all(&dir).map_err(io_err)?;
            r.attempted = cells;
        }
        Kind::TuneK6 => {
            for ((kernel, program), factory) in
                s.kernels.iter_mut().zip(&s.programs).zip(&s.factories)
            {
                let mut rows = Vec::new();
                for config in &s.configs {
                    spans.set_req(format!("{label}/{}/{}", factory.name, config.topology_name()));
                    let cell = spans.enter("vxbench.tune_cell");
                    let (chosen, probes) = drive::tune_cell(
                        spans,
                        exact,
                        kernel.as_mut(),
                        program,
                        config,
                        TUNE_BUDGET,
                    )
                    .map_err(|e| e.to_string())?;
                    spans.exit(cell, probes.len() as u64);
                    r.chosen.push(chosen);
                    rows.extend(probes);
                }
                r.attempted += rows.len() as u64;
                r.rows.push(rows);
            }
        }
        Kind::StoreRoundtrip => {
            let kernels: Vec<(&KernelFactory, u64)> =
                s.factories.iter().zip(s.programs.iter().map(digest_program)).collect();
            let dir = s.scratch.join("store");
            for trip in 0..STORE_TRIPS_TRACED {
                spans.set_req(format!("{label}/trip{trip}"));
                let out = drive::store_roundtrip(
                    spans,
                    &dir,
                    &kernels,
                    &s.configs,
                    &s.stored,
                    &s.insert_order,
                )
                .map_err(io_err)?;
                r.failed += out
                    .rows
                    .iter()
                    .flatten()
                    .zip(s.stored.iter().flatten())
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                r.read_hits += out.read.hits;
                r.read_misses += out.read.misses;
                r.read_insertions += out.read.insertions;
                if trip == 0 {
                    r.rows = out.rows;
                }
            }
            r.deliveries = STORE_TRIPS_TRACED as u64;
            r.attempted = cells * STORE_TRIPS_TRACED as u64;
        }
    }
    spans.exit(root, cells);
    r.wall_ns = ns(start);
    r.configs = cells * r.deliveries;
    r.configs_ns = r.wall_ns;
    Ok(r)
}

/// The untimed reference a workload's rows are checked against after
/// measuring, where the timed region cannot check them itself:
/// `replay_uarch`'s rows must equal a plain execute pass. Returns the
/// number of rows that differ.
///
/// # Errors
///
/// A product error.
pub fn reference_failures(s: &Setup, rows: &[Vec<ConfigRow>]) -> Result<u64, String> {
    if s.kind != Kind::ReplayUarch {
        return Ok(0);
    }
    let mut failed = 0;
    for (factory, got) in s.factories.iter().zip(rows) {
        let want = run_campaign(factory, &s.configs, 1).map_err(|e| e.to_string())?.rows;
        failed += want.iter().zip(got).filter(|(a, b)| a != b).count() as u64;
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_hold_parallelism_and_lane_width_fixed() {
        let all =
            SWEEP_STRATA.iter().chain(&PAPER_STRATA).chain(&TUNE_STRATA).chain(&REPLAY_STRATA);
        for stratum in all {
            let members: Vec<DeviceConfig> =
                stratum.iter().map(|n| sample::grid_point(n)).collect();
            assert!(members.len() >= 2, "{stratum:?} leaves the seed nothing to pick");
            for m in &members {
                assert_eq!(m.threads, members[0].threads, "{stratum:?}");
                assert_eq!(m.cores * m.warps, members[0].cores * members[0].warps, "{stratum:?}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
