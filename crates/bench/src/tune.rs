//! Driving the online autotuner over real kernels and evaluating its
//! regret against the exhaustive oracle — the machinery behind the
//! `tune` binary and the committed `TUNE_PR8.json` artefact.
//!
//! The tuner itself lives in `vortex_core::autotune`; this module
//! supplies what it cannot know about: how to *measure* one probe
//! (simulate, or fetch from the PR 7 content-addressed store via
//! [`tune_key`] — the oracle-over-store path), how to obtain the
//! exhaustive per-lws ground truth the regret is computed against, and
//! the JSON dialect the evaluation is reported in.
//!
//! Per-lws rows reuse the campaign store verbatim: a run of kernel `k`
//! at explicit lws `l` is stored as a [`ConfigRow`] whose three policy
//! cycle fields all carry the one measured value, keyed by a digest
//! that folds the `"explicit"` policy tag and `l` itself — so tune rows
//! and campaign rows coexist in the same `<kernel>.jsonl` shards and a
//! warm store replays a whole evaluation without simulating anything.
//!
//! Like the probe dialect, tune JSON rows carry **raw integer counters
//! only** (cycles, probe/store traffic, absolute-error sums); regret
//! percentages and accuracy curves are derived at display time, so
//! shard files merge into exactly the numbers a single process would
//! have produced.

use std::collections::BTreeMap;
use std::time::Instant;

use vortex_core::autotune::{lws_candidates, probe_schedule, tune_lws, ProbedRow};
use vortex_core::ENGINE_SEMANTICS_VERSION as SEMVER;
use vortex_core::{digest_device_config, digest_program, Fnv64, LwsPolicy, Runtime};
use vortex_kernels::{run_kernel_prepared, KernelError};
use vortex_sim::DeviceConfig;

use crate::cache::CampaignCache;
use crate::campaign::{ConfigRow, KernelFactory, Scale};
use crate::jsonl::Object;

/// The probe budgets the committed artefact evaluates
/// (`TUNE_PR8.json`'s accuracy curves).
pub const DEFAULT_BUDGETS: [usize; 3] = [3, 6, 12];

/// The default mini-grid of topologies the evaluation runs on: a small,
/// a mid-size and a large device (hp = 8, 64, 256) — enough spread that
/// every mapping regime (multi-call, exact fit, under-filled) appears
/// in each kernel's candidate grid.
pub const DEFAULT_TOPOLOGIES: [&str; 3] = ["1c2w4t", "2c4w8t", "4c8w8t"];

/// Computes the content key of one *per-lws* tune row: like
/// [`campaign_key`](crate::cache::campaign_key) but for a single
/// explicit-lws run instead of the three-policy campaign triple. The
/// `"explicit"` tag and the lws value are folded in, so tune rows can
/// never alias campaign rows in the shared store.
pub fn tune_key(
    kernel: &str,
    scale: Scale,
    program: &vortex_asm::Program,
    config: &DeviceConfig,
    lws: u32,
) -> u64 {
    tune_key_from_digest(kernel, scale, digest_program(program), config, lws)
}

/// [`tune_key`] with the program digest precomputed (one assembly
/// serves a whole evaluation).
pub fn tune_key_from_digest(
    kernel: &str,
    scale: Scale,
    program_digest: u64,
    config: &DeviceConfig,
    lws: u32,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(SEMVER);
    h.write_str(kernel);
    h.write_str(scale.tag());
    h.write_u64(program_digest);
    h.write_u64(digest_device_config(config));
    h.write_str("explicit");
    h.write_u32(lws);
    h.finish()
}

/// One evaluated (kernel, topology, budget) cell of the tune report —
/// raw counters only; regret and accuracy are derived by the accessor
/// methods so merged shards reproduce single-process numbers exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneRow {
    /// Kernel name.
    pub kernel: String,
    /// Topology tag (`CcWwTt`).
    pub topo: String,
    /// The launch's global work size (first phase; multi-phase kernels
    /// launch every phase at the same gws).
    pub gws: u32,
    /// Probe budget K this row was tuned under.
    pub budget: usize,
    /// Size of the full candidate grid.
    pub candidates: usize,
    /// Probes actually taken (`min(budget, candidates)`).
    pub probes: usize,
    /// The lws the tuner chose.
    pub chosen_lws: u32,
    /// Ground-truth cycles of the chosen lws.
    pub chosen_cycles: u64,
    /// The exhaustive oracle's best lws over the same grid.
    pub oracle_lws: u32,
    /// Ground-truth cycles of the oracle's choice.
    pub oracle_cycles: u64,
    /// Eq. 1's (floor) choice on this launch — the static baseline.
    pub eq1_lws: u32,
    /// Ground-truth cycles of Eq. 1's choice.
    pub eq1_cycles: u64,
    /// Scheduled probes whose first measurement was simulated.
    pub probes_simulated: u64,
    /// Scheduled probes answered from the campaign store.
    pub probes_cached: u64,
    /// Ground-truth grid points simulated by this process (beyond the
    /// probes; zero on a warm store).
    pub gt_simulated: u64,
    /// Ground-truth grid points answered from the store.
    pub gt_cached: u64,
    /// Σ |predicted − truth| cycles over the unprobed candidates
    /// (predictions rounded to the nearest cycle, so the sum is an
    /// exact integer and shard merges stay exact).
    pub pred_abs_err_sum: u64,
    /// Σ truth cycles over the same unprobed candidates (the error
    /// sum's denominator).
    pub pred_truth_sum: u64,
    /// Number of unprobed (predicted-only) candidates.
    pub unprobed: usize,
}

impl TuneRow {
    /// Regret of the tuner's choice vs the oracle, in percent
    /// (`0.0` = the tuner found the true optimum).
    pub fn regret_pct(&self) -> f64 {
        if self.oracle_cycles == 0 {
            return 0.0;
        }
        (self.chosen_cycles as f64 - self.oracle_cycles as f64) / self.oracle_cycles as f64 * 100.0
    }

    /// Regret of the static Eq. 1 policy vs the oracle, in percent —
    /// the baseline the counter-driven tuner must beat or match.
    pub fn eq1_regret_pct(&self) -> f64 {
        if self.oracle_cycles == 0 {
            return 0.0;
        }
        (self.eq1_cycles as f64 - self.oracle_cycles as f64) / self.oracle_cycles as f64 * 100.0
    }

    /// Mean relative prediction error over the unprobed candidates, in
    /// percent (`None` when the budget covered the whole grid).
    pub fn prediction_error_pct(&self) -> Option<f64> {
        if self.unprobed == 0 || self.pred_truth_sum == 0 {
            return None;
        }
        Some(self.pred_abs_err_sum as f64 / self.pred_truth_sum as f64 * 100.0)
    }
}

/// A parsed (or to-be-rendered) tune report file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneFile {
    /// Worker threads used by the producing process.
    pub jobs: usize,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Campaign-store lookups answered from the store.
    pub store_hits: u64,
    /// Campaign-store lookups that simulated (cold work performed).
    pub store_misses: u64,
    /// One row per (kernel, topology, budget), in evaluation order.
    pub rows: Vec<TuneRow>,
}

impl TuneFile {
    /// Mean regret across this file's rows at probe budget `budget`, in
    /// percent (`None` when no row has that budget).
    pub fn mean_regret_pct(&self, budget: usize) -> Option<f64> {
        let regrets: Vec<f64> =
            self.rows.iter().filter(|r| r.budget == budget).map(TuneRow::regret_pct).collect();
        if regrets.is_empty() {
            return None;
        }
        Some(regrets.iter().sum::<f64>() / regrets.len() as f64)
    }

    /// The distinct budgets present, ascending.
    pub fn budgets(&self) -> Vec<usize> {
        let mut budgets: Vec<usize> = self.rows.iter().map(|r| r.budget).collect();
        budgets.sort_unstable();
        budgets.dedup();
        budgets
    }
}

/// Evaluates the online autotuner for one kernel on one topology across
/// `budgets`, measuring probes and ground truth over the store.
///
/// The full candidate grid is measured exactly once per (kernel,
/// topology) — store hits on a warm store, simulations on a cold one —
/// and every budget's tuning run is then fed from those measurements,
/// with its probe traffic attributed by each probe's *first touch*
/// (cached vs simulated). The tuner itself only ever sees the probes
/// its schedule requests.
///
/// # Errors
///
/// Propagates the first kernel failure (assembly, launch, wrong
/// results).
pub fn evaluate_tune(
    factory: &KernelFactory,
    config: &DeviceConfig,
    budgets: &[usize],
    cache: Option<&CampaignCache>,
) -> Result<Vec<TuneRow>, KernelError> {
    let mut kernel = factory.make_kernel();
    let program = kernel.build()?;
    let pdig = digest_program(&program);
    let gws = kernel.phases().first().map_or(1, |p| p.gws);
    let candidates = lws_candidates(gws, config);

    // Measure the full grid once, store-first. `fresh` records whether
    // each lws was simulated by this process (true) or answered from
    // the store (false).
    let mut rt: Option<Runtime> = None;
    let mut measured: BTreeMap<u32, (u64, vortex_core::DispatchStats, bool)> = BTreeMap::new();
    for &lws in &candidates {
        let key = tune_key_from_digest(factory.name, factory.scale, pdig, config, lws);
        if let Some(cache) = cache {
            if let Some(row) = cache.lookup(factory.name, key, config) {
                measured.insert(lws, (row.cycles_auto, row.dispatch, false));
                continue;
            }
        }
        let rt = rt.get_or_insert_with(|| {
            let mut fresh = Runtime::new(*config);
            fresh.load_program(&program);
            fresh
        });
        let outcome = run_kernel_prepared(kernel.as_mut(), &program, rt, LwsPolicy::Explicit(lws))?;
        if let Some(cache) = cache {
            let row = ConfigRow {
                config: *config,
                cycles_naive: outcome.cycles,
                cycles_fixed: outcome.cycles,
                cycles_auto: outcome.cycles,
                lws_auto: lws,
                dram_utilization: outcome.dram_utilization,
                mem: outcome.mem,
                dispatch: outcome.dispatch,
                instructions: outcome.instructions,
                port_accesses: outcome.port_accesses,
                port_stall_slots: outcome.port_stall_slots,
            };
            cache.insert(factory.name, key, &row);
        }
        measured.insert(lws, (outcome.cycles, outcome.dispatch, true));
    }

    // Ground truth: the oracle over the measured grid (ties to the
    // smaller lws, matching `oracle_search`).
    let (oracle_lws, oracle_cycles) = measured
        .iter()
        .map(|(&lws, &(cycles, _, _))| (lws, cycles))
        .min_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)))
        .expect("candidate grid is never empty");
    let eq1_lws = LwsPolicy::Auto.lws_for(gws, config);
    let eq1_cycles = measured[&eq1_lws].0;

    let mut rows = Vec::with_capacity(budgets.len());
    for &budget in budgets {
        let schedule = probe_schedule(&candidates, gws, config, budget);
        let outcome = tune_lws::<std::convert::Infallible>(gws, config, budget, |lws| {
            let (cycles, dispatch, _) = measured[&lws];
            Ok(ProbedRow { lws, cycles, dispatch })
        })
        .expect("memoised measurements cannot fail");

        let probes_simulated = schedule.iter().filter(|l| measured[l].2).count() as u64;
        let probes_cached = schedule.len() as u64 - probes_simulated;
        let gt: Vec<&u32> = candidates.iter().filter(|c| !schedule.contains(c)).collect();
        let gt_simulated = gt.iter().filter(|l| measured[**l].2).count() as u64;
        let gt_cached = gt.len() as u64 - gt_simulated;

        let mut pred_abs_err_sum = 0u64;
        let mut pred_truth_sum = 0u64;
        for est in outcome.ranking.iter().filter(|e| !e.probed) {
            let truth = measured[&est.lws].0;
            let predicted = est.cycles.round().max(0.0) as u64;
            pred_abs_err_sum += predicted.abs_diff(truth);
            pred_truth_sum += truth;
        }

        rows.push(TuneRow {
            kernel: factory.name.to_owned(),
            topo: config.topology_name(),
            gws,
            budget,
            candidates: candidates.len(),
            probes: schedule.len(),
            chosen_lws: outcome.chosen_lws,
            chosen_cycles: measured[&outcome.chosen_lws].0,
            oracle_lws,
            oracle_cycles,
            eq1_lws,
            eq1_cycles,
            probes_simulated,
            probes_cached,
            gt_simulated,
            gt_cached,
            pred_abs_err_sum,
            pred_truth_sum,
            unprobed: candidates.len() - schedule.len(),
        });
    }
    Ok(rows)
}

/// Runs the whole evaluation: every factory × topology cell across
/// `budgets`, in parallel over `jobs` worker threads (each cell builds
/// its own kernel and runtime; the store handle is shared and
/// thread-safe). Rows come back in deterministic (factory, topology)
/// order regardless of scheduling.
///
/// # Errors
///
/// Propagates the first kernel failure.
pub fn run_tune_evaluation(
    factories: &[KernelFactory],
    topologies: &[DeviceConfig],
    budgets: &[usize],
    jobs: usize,
    cache: Option<&CampaignCache>,
) -> Result<TuneFile, KernelError> {
    let start = Instant::now();
    let before = cache.map(|c| c.counters()).unwrap_or_default();
    let units: Vec<(usize, usize)> =
        (0..factories.len()).flat_map(|f| (0..topologies.len()).map(move |t| (f, t))).collect();
    let jobs = jobs.max(1);
    let rows = crate::campaign::fan_out(
        jobs.min(units.len()),
        units.len(),
        || (),
        |(), idx| {
            let (f, t) = units[idx];
            evaluate_tune(&factories[f], &topologies[t], budgets, cache)
        },
    )?
    .into_iter()
    .flatten()
    .collect();
    let after = cache.map(|c| c.counters()).unwrap_or_default();
    Ok(TuneFile {
        jobs,
        total_seconds: start.elapsed().as_secs_f64(),
        store_hits: after.hits - before.hits,
        store_misses: after.misses - before.misses,
        rows,
    })
}

/// Renders the tune JSON (hand-rolled — the build environment has no
/// serde). Derived percentages are included for human readers but the
/// parser ignores them: counters are the source of truth.
pub fn render_tune_json(file: &TuneFile) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"jobs\": {},\n", file.jobs));
    out.push_str(&format!("  \"total_seconds\": {:.3},\n", file.total_seconds));
    out.push_str(&format!("  \"store_hits\": {},\n", file.store_hits));
    out.push_str(&format!("  \"store_misses\": {},\n", file.store_misses));
    out.push_str("  \"rows\": [\n");
    for (i, r) in file.rows.iter().enumerate() {
        let comma = if i + 1 == file.rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"topo\": \"{}\", \"gws\": {}, \"budget\": {}, \
             \"candidates\": {}, \"probes\": {}, \
             \"chosen_lws\": {}, \"chosen_cycles\": {}, \
             \"oracle_lws\": {}, \"oracle_cycles\": {}, \
             \"eq1_lws\": {}, \"eq1_cycles\": {}, \
             \"probes_simulated\": {}, \"probes_cached\": {}, \
             \"gt_simulated\": {}, \"gt_cached\": {}, \
             \"pred_abs_err_sum\": {}, \"pred_truth_sum\": {}, \"unprobed\": {}, \
             \"regret_pct\": {:.4}}}{comma}\n",
            r.kernel,
            r.topo,
            r.gws,
            r.budget,
            r.candidates,
            r.probes,
            r.chosen_lws,
            r.chosen_cycles,
            r.oracle_lws,
            r.oracle_cycles,
            r.eq1_lws,
            r.eq1_cycles,
            r.probes_simulated,
            r.probes_cached,
            r.gt_simulated,
            r.gt_cached,
            r.pred_abs_err_sum,
            r.pred_truth_sum,
            r.unprobed,
            r.regret_pct(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the exact JSON [`render_tune_json`] writes.
///
/// # Errors
///
/// A message naming the first missing or unparsable required field.
pub fn parse_tune_json(text: &str) -> Result<TuneFile, String> {
    let rows_at = text.find("\"rows\"").ok_or("missing rows array")?;
    let head = Object::scan(&text[..rows_at]);
    let mut file = TuneFile {
        jobs: head.get("jobs")?,
        total_seconds: head.get("total_seconds")?,
        store_hits: head.get("store_hits")?,
        store_misses: head.get("store_misses")?,
        rows: Vec::new(),
    };
    for obj in text[rows_at..].split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        if !obj.contains("\"kernel\"") {
            continue;
        }
        let obj = Object::scan(obj);
        file.rows.push(TuneRow {
            kernel: obj.get("kernel")?,
            topo: obj.get("topo")?,
            gws: obj.get("gws")?,
            budget: obj.get("budget")?,
            candidates: obj.get("candidates")?,
            probes: obj.get("probes")?,
            chosen_lws: obj.get("chosen_lws")?,
            chosen_cycles: obj.get("chosen_cycles")?,
            oracle_lws: obj.get("oracle_lws")?,
            oracle_cycles: obj.get("oracle_cycles")?,
            eq1_lws: obj.get("eq1_lws")?,
            eq1_cycles: obj.get("eq1_cycles")?,
            probes_simulated: obj.get("probes_simulated")?,
            probes_cached: obj.get("probes_cached")?,
            gt_simulated: obj.get("gt_simulated")?,
            gt_cached: obj.get("gt_cached")?,
            pred_abs_err_sum: obj.get("pred_abs_err_sum")?,
            pred_truth_sum: obj.get("pred_truth_sum")?,
            unprobed: obj.get("unprobed")?,
        });
    }
    Ok(file)
}

/// Merges shard tune files: rows are a union keyed by (kernel, topo,
/// budget) — shards partition the kernel × topology grid, so every cell
/// appears in exactly one shard and its raw counters pass through
/// unchanged (a duplicate cell is an error: unlike additive probe rows,
/// a tune cell is a complete measurement). Top-level store counters and
/// seconds sum; rows sort by (kernel, topo, budget) so the merged file
/// is independent of shard order.
///
/// # Errors
///
/// The first unreadable or unparsable input, or a duplicated cell.
pub fn merge_tune_files(paths: &[String]) -> Result<String, String> {
    if paths.is_empty() {
        return Err("no input files".into());
    }
    let mut merged = TuneFile::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let file = parse_tune_json(&text).map_err(|e| format!("{path}: {e}"))?;
        merged.jobs = merged.jobs.max(file.jobs);
        merged.total_seconds += file.total_seconds;
        merged.store_hits += file.store_hits;
        merged.store_misses += file.store_misses;
        for row in file.rows {
            let cell = (row.kernel.clone(), row.topo.clone(), row.budget);
            if merged.rows.iter().any(|r| {
                (r.kernel.as_str(), r.topo.as_str(), r.budget)
                    == (cell.0.as_str(), cell.1.as_str(), cell.2)
            }) {
                return Err(format!(
                    "{path}: duplicate cell {}/{}/K={} — shards must partition the grid",
                    cell.0, cell.1, cell.2
                ));
            }
            merged.rows.push(row);
        }
    }
    merged.rows.sort_by(|a, b| {
        a.kernel.cmp(&b.kernel).then(a.topo.cmp(&b.topo)).then(a.budget.cmp(&b.budget))
    });
    Ok(render_tune_json(&merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::kernel_factories;

    fn sample_row(kernel: &str, topo: &str, budget: usize, scale: u64) -> TuneRow {
        TuneRow {
            kernel: kernel.to_owned(),
            topo: topo.to_owned(),
            gws: 4096,
            budget,
            candidates: 14,
            probes: budget,
            chosen_lws: 512,
            chosen_cycles: 1000 * scale,
            oracle_lws: 512,
            oracle_cycles: 1000 * scale,
            eq1_lws: 512,
            eq1_cycles: 1010 * scale,
            probes_simulated: 2,
            probes_cached: budget as u64 - 2,
            gt_simulated: 3,
            gt_cached: 14 - budget as u64 - 3,
            pred_abs_err_sum: 77 * scale,
            pred_truth_sum: 7000 * scale,
            unprobed: 14 - budget,
        }
    }

    #[test]
    fn tune_keys_separate_all_inputs() {
        let program = kernel_factories(Scale::Sweep)[0].make_kernel().build().unwrap();
        let c1: DeviceConfig = "1c2w2t".parse().unwrap();
        let c2: DeviceConfig = "1c2w4t".parse().unwrap();
        let pdig = digest_program(&program);
        let k = |kernel: &str, scale, config: &DeviceConfig, lws| {
            tune_key_from_digest(kernel, scale, pdig, config, lws)
        };
        let base = k("vecadd", Scale::Sweep, &c1, 16);
        assert_eq!(base, k("vecadd", Scale::Sweep, &c1, 16), "stable across calls");
        assert_ne!(base, k("vecadd", Scale::Sweep, &c1, 32), "lws must re-key");
        assert_ne!(base, k("vecadd", Scale::Sweep, &c2, 16), "config must re-key");
        assert_ne!(base, k("relu", Scale::Sweep, &c1, 16), "kernel must re-key");
        assert_ne!(base, k("vecadd", Scale::Paper, &c1, 16), "scale must re-key");
        // Tune keys never alias campaign keys (different policy tag).
        assert_ne!(base, crate::cache::campaign_key("vecadd", Scale::Sweep, &program, &c1));
    }

    #[test]
    fn tune_json_roundtrips_through_the_parser() {
        let file = TuneFile {
            jobs: 2,
            total_seconds: 1.25,
            store_hits: 30,
            store_misses: 12,
            rows: vec![sample_row("vecadd", "1c2w4t", 3, 1), sample_row("relu", "2c4w8t", 6, 2)],
        };
        let json = render_tune_json(&file);
        let parsed = parse_tune_json(&json).unwrap();
        assert_eq!(parsed.jobs, 2);
        assert!((parsed.total_seconds - 1.25).abs() < 1e-9);
        assert_eq!((parsed.store_hits, parsed.store_misses), (30, 12));
        assert_eq!(parsed.rows, file.rows);
        // Derived values recompute identically from the raw counters.
        assert_eq!(parsed.rows[0].regret_pct(), file.rows[0].regret_pct());
        assert!(parsed.rows[1].prediction_error_pct().is_some());
    }

    #[test]
    fn merge_unions_cells_and_sums_store_traffic() {
        let a = TuneFile {
            jobs: 2,
            total_seconds: 1.0,
            store_hits: 10,
            store_misses: 4,
            rows: vec![sample_row("vecadd", "1c2w4t", 3, 1), sample_row("vecadd", "1c2w4t", 6, 1)],
        };
        let b = TuneFile {
            jobs: 4,
            total_seconds: 2.0,
            store_hits: 20,
            store_misses: 0,
            rows: vec![sample_row("relu", "1c2w4t", 3, 2)],
        };
        let dir = std::env::temp_dir().join(format!("vortex_tune_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, render_tune_json(&a)).unwrap();
        std::fs::write(&pb, render_tune_json(&b)).unwrap();
        let inputs = [pa.to_string_lossy().into_owned(), pb.to_string_lossy().into_owned()];
        let merged = parse_tune_json(&merge_tune_files(&inputs).unwrap()).unwrap();
        assert_eq!(merged.jobs, 4);
        assert!((merged.total_seconds - 3.0).abs() < 1e-9);
        assert_eq!((merged.store_hits, merged.store_misses), (30, 4));
        assert_eq!(merged.rows.len(), 3);
        // Sorted by (kernel, topo, budget): relu first.
        assert_eq!(merged.rows[0].kernel, "relu");
        // Counters pass through the merge bit-exactly.
        assert_eq!(merged.rows[1], a.rows[0]);
        // A duplicated cell is rejected, not silently double-counted.
        let dup = merge_tune_files(&[inputs[0].clone(), inputs[0].clone()]);
        assert!(dup.unwrap_err().contains("duplicate cell"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mean_regret_derives_per_budget() {
        let mut r1 = sample_row("vecadd", "1c2w4t", 6, 1);
        r1.chosen_cycles = 1050; // 5% regret
        let r2 = sample_row("relu", "1c2w4t", 6, 1); // 0% regret
        let file = TuneFile { rows: vec![r1, r2], ..TuneFile::default() };
        assert!((file.mean_regret_pct(6).unwrap() - 2.5).abs() < 1e-9);
        assert_eq!(file.mean_regret_pct(3), None);
        assert_eq!(file.budgets(), vec![6]);
    }

    #[test]
    fn evaluation_over_store_is_warm_replayable() {
        let factories = kernel_factories(Scale::Sweep);
        let vecadd = factories.iter().find(|f| f.name == "vecadd").unwrap();
        let config: DeviceConfig = "1c2w4t".parse().unwrap();
        let dir = std::env::temp_dir().join(format!("vortex_tune_eval_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CampaignCache::open(&dir).unwrap();

        let cold = evaluate_tune(vecadd, &config, &[3, 6], Some(&cache)).unwrap();
        assert_eq!(cold.len(), 2);
        let grid = cold[0].candidates as u64;
        assert_eq!(cold[0].probes_simulated + cold[0].gt_simulated, grid, "cold run simulates all");
        cache.flush().unwrap();

        // Warm replay from a reopened store: zero simulations, same rows
        // up to the traffic attribution.
        let reopened = CampaignCache::open(&dir).unwrap();
        let warm = evaluate_tune(vecadd, &config, &[3, 6], Some(&reopened)).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(w.probes_simulated + w.gt_simulated, 0, "warm run simulates nothing");
            assert_eq!(w.probes_cached + w.gt_cached, grid);
            assert_eq!((c.chosen_lws, c.chosen_cycles), (w.chosen_lws, w.chosen_cycles));
            assert_eq!((c.oracle_lws, c.oracle_cycles), (w.oracle_lws, w.oracle_cycles));
            assert_eq!(c.pred_abs_err_sum, w.pred_abs_err_sum, "predictions replay bit-exactly");
        }
        // The oracle is never worse than any policy on the same grid.
        assert!(cold[0].oracle_cycles <= cold[0].eq1_cycles);
        assert!(cold[0].oracle_cycles <= cold[0].chosen_cycles);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
