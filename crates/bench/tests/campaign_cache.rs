//! End-to-end guarantees of the campaign cache and the resumable
//! driver, exercised through the crate's public API exactly as the
//! `campaign` binary uses it: cold→warm transparency (a warm run
//! simulates nothing and reports identical bytes), exact delta
//! simulation, budget-kill → resume reassembly, trace record → replay
//! transparency, and the CLI's input checks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use vortex_bench::driver::{run_queue, QueueSpec};
use vortex_bench::jsonl::fields;
use vortex_bench::probe::{render_json, KernelRow, ProbeFile};
use vortex_bench::{
    kernel_factories, run_campaign, run_campaign_cached, strip_run_metadata, uarch_variant,
    CampaignCache, CampaignResult, KernelFactory, Scale,
};
use vortex_kernels::{Kernel, PhaseSpec, VecAdd, VerifyError};
use vortex_sim::DeviceConfig;

fn tiny_grid() -> Vec<DeviceConfig> {
    vec![
        DeviceConfig::with_topology(1, 2, 2),
        DeviceConfig::with_topology(1, 2, 4),
        DeviceConfig::with_topology(2, 2, 2),
    ]
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vortex_cc_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Renders campaign results the way `campaign --json` does, with the
/// run-specific fields already zeroed (what the CI gates diff).
fn report(results: &[CampaignResult], hits: u64, misses: u64) -> String {
    let file = ProbeFile {
        configs: results[0].rows.len(),
        jobs: 2,
        total_seconds: 0.0,
        shard: None,
        cache_bytes_read: 0,
        cache_bytes_written: 0,
        rows: results.iter().map(|r| KernelRow::of_campaign(r, 0.0, hits, misses)).collect(),
    };
    strip_run_metadata(&render_json(&file))
}

/// The stripped report of plain, store-less campaigns of `kernels`.
fn plain_report(kernels: &[&str], grid: &[DeviceConfig]) -> String {
    let results: Vec<_> = kernel_factories(Scale::Sweep)
        .iter()
        .filter(|f| kernels.contains(&f.name))
        .map(|f| run_campaign(f, grid, 2).unwrap())
        .collect();
    report(&results, 0, 0)
}

/// Sums one counter over every row of a rendered report.
fn report_sum(json: &str, key: &str) -> u64 {
    fields(json).filter(|(k, _)| *k == key).map(|(_, v)| v.parse::<u64>().unwrap()).sum()
}

/// A `VecAdd` that reports, when it is dropped, whether its inputs were
/// ever generated.
struct SpiedVecAdd {
    inner: VecAdd,
    generated: Arc<AtomicUsize>,
}

impl Drop for SpiedVecAdd {
    fn drop(&mut self) {
        self.generated.fetch_add(usize::from(self.inner.inputs_generated()), Ordering::Relaxed);
    }
}

impl Kernel for SpiedVecAdd {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn build(&self) -> Result<vortex_asm::Program, vortex_asm::AsmError> {
        self.inner.build()
    }
    fn phases(&self) -> Vec<PhaseSpec> {
        self.inner.phases()
    }
    fn setup(&mut self, rt: &mut vortex_core::Runtime) -> Result<(), vortex_core::LaunchError> {
        self.inner.setup(rt)
    }
    fn verify(&self, rt: &vortex_core::Runtime) -> Result<(), VerifyError> {
        self.inner.verify(rt)
    }
}

#[test]
fn warm_call_builds_one_kernel_and_generates_no_dataset() {
    let dir = tmp("warm_cost");
    let grid = tiny_grid();
    let (made, generated) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let factory = KernelFactory {
        name: "vecadd",
        scale: Scale::Sweep,
        make: Box::new({
            let (made, generated) = (made.clone(), generated.clone());
            move || {
                made.fetch_add(1, Ordering::Relaxed);
                Box::new(SpiedVecAdd { inner: VecAdd::paper(), generated: generated.clone() })
            }
        }),
    };
    let counts = || (made.swap(0, Ordering::Relaxed), generated.swap(0, Ordering::Relaxed));

    let cache = CampaignCache::open(&dir).unwrap();
    let cold = run_campaign_cached(&factory, &grid, 1, Some(&cache)).unwrap();
    assert_eq!(counts(), (2, 1), "cold: one instance for the digest, one that simulates");
    cache.flush().unwrap();

    for jobs in [1, 3] {
        let warm_cache = CampaignCache::open(&dir).unwrap();
        let warm = run_campaign_cached(&factory, &grid, jobs, Some(&warm_cache)).unwrap();
        assert_eq!(counts(), (1, 0), "warm, {jobs} jobs: the digest instance only, no dataset");
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(warm_cache.counters().misses, 0);
    }

    // One new configuration: only the worker that misses builds a kernel.
    let mut wider = grid.clone();
    wider.push(DeviceConfig::with_topology(2, 4, 4));
    run_campaign_cached(&factory, &wider, 3, Some(&cache)).unwrap();
    assert_eq!(counts(), (2, 1), "delta: the digest instance and the one missing worker");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_rerun_simulates_zero_configs_with_identical_report() {
    let dir = tmp("warm");
    let grid = tiny_grid();
    let factories = kernel_factories(Scale::Sweep);
    let vecadd = &factories[0];

    let cache = CampaignCache::open(&dir).unwrap();
    let cold = run_campaign_cached(vecadd, &grid, 2, Some(&cache)).unwrap();
    let after_cold = cache.counters();
    assert_eq!((after_cold.hits, after_cold.misses), (0, 3), "cold run simulates everything");
    cache.flush().unwrap();

    // Fresh process = fresh handle: the warm run answers every
    // configuration from disk and simulates nothing.
    let warm_cache = CampaignCache::open(&dir).unwrap();
    let warm = run_campaign_cached(vecadd, &grid, 2, Some(&warm_cache)).unwrap();
    let after_warm = warm_cache.counters();
    assert_eq!((after_warm.hits, after_warm.misses), (3, 0), "warm run simulates nothing");
    assert_eq!((after_warm.insertions, after_warm.entries), (0, 3));

    // Byte-identical probe reports once run metadata is stripped.
    assert_eq!(
        report(std::slice::from_ref(&cold), 0, after_cold.misses),
        report(std::slice::from_ref(&warm), after_warm.hits, 0),
        "warm report must be byte-identical to the cold one"
    );
    // And the uncached baseline agrees row for row.
    let plain = run_campaign(vecadd, &grid, 2).unwrap();
    assert_eq!(plain.rows, warm.rows);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn single_config_change_resimulates_exactly_that_config() {
    let dir = tmp("delta");
    let grid = tiny_grid();
    let factories = kernel_factories(Scale::Sweep);
    let vecadd = &factories[0];

    let cache = CampaignCache::open(&dir).unwrap();
    run_campaign_cached(vecadd, &grid, 2, Some(&cache)).unwrap();
    cache.flush().unwrap();

    // Change one configuration of the grid: a timing knob this time, so
    // the delta detection rests on the full config digest rather than
    // the topology name.
    let mut changed = grid.clone();
    changed[1].timing.alu += 1;
    let reopened = CampaignCache::open(&dir).unwrap();
    let result = run_campaign_cached(vecadd, &changed, 2, Some(&reopened)).unwrap();
    let c = reopened.counters();
    assert_eq!((c.hits, c.misses), (2, 1), "exactly the changed configuration re-simulates");
    assert_eq!(result.rows.len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn budget_kill_then_resume_reassembles_the_cold_report() {
    let base = tmp("queue");
    let spec = |resume: bool, budget: Option<usize>, queue: &str| QueueSpec {
        dir: base.join(queue),
        cache_dir: base.join(format!("{queue}-store")),
        kernels: Some(vec!["vecadd".into(), "relu".into()]),
        configs: tiny_grid(),
        scale: Scale::Sweep,
        shard: None,
        jobs: 2,
        budget,
        trace_dir: None,
        resume,
    };

    // Uninterrupted cold queue: 2 kernels × 3 configs.
    let cold = run_queue(&spec(false, None, "cold")).unwrap();
    assert!(cold.complete);
    assert_eq!(cold.simulated, 6);
    let cold_json = cold.result_json.unwrap();

    // The same queue "killed" after 2 configurations by the budget flag,
    // then resumed: exactly total − N = 4 simulate on resume.
    let first = run_queue(&spec(false, Some(2), "killed")).unwrap();
    assert!(!first.complete);
    assert_eq!((first.simulated, first.remaining), (2, 4));
    let second = run_queue(&spec(true, None, "killed")).unwrap();
    assert!(second.complete);
    assert_eq!((second.simulated, second.reused), (4, 2));

    assert_eq!(
        strip_run_metadata(&second.result_json.unwrap()),
        strip_run_metadata(&cold_json),
        "resumed report must be bit-identical to the uninterrupted run"
    );
    // And both are the report of plain, store-less campaigns.
    assert_eq!(strip_run_metadata(&cold_json), plain_report(&["vecadd", "relu"], &tiny_grid()));
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn traced_queue_records_cold_replays_warm_and_reports_the_same_rows() {
    let base = tmp("traced");
    // Every topology in two adjacent micro-architecture variants, as
    // `campaign --uarch 2` builds the grid.
    let grid: Vec<DeviceConfig> =
        tiny_grid().iter().flat_map(|t| (0..2).map(|v| uarch_variant(t, v))).collect();
    let spec = |queue: &str, traced: bool| QueueSpec {
        dir: base.join(queue),
        cache_dir: base.join(queue).join("store"),
        kernels: Some(vec!["vecadd".into(), "relu".into()]),
        configs: grid.clone(),
        scale: Scale::Sweep,
        shard: None,
        jobs: 2,
        budget: None,
        trace_dir: traced.then(|| base.join("traces")),
        resume: false,
    };
    let run = |queue: &str, traced: bool| run_queue(&spec(queue, traced)).unwrap().result_json;

    let untraced = run("untraced", false).unwrap();
    assert_eq!(report_sum(&untraced, "trace_records") + report_sum(&untraced, "trace_replays"), 0);
    let cold = run("cold", true).unwrap();
    assert!(report_sum(&cold, "trace_records") > 0, "a cold trace store records");
    // A fresh result store over the same trace store: everything is
    // simulated again, every run from a stored trace.
    let warm = run("warm", true).unwrap();
    assert_eq!(report_sum(&warm, "trace_records"), 0, "a warm trace store re-records nothing");
    assert!(report_sum(&warm, "trace_replays") > 0, "a warm trace store replays");
    for traced in [&cold, &warm] {
        assert_eq!(strip_run_metadata(traced), strip_run_metadata(&untraced));
    }
    assert_eq!(strip_run_metadata(&untraced), plain_report(&["vecadd", "relu"], &grid));
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn unknown_kernel_exits_2_before_creating_the_queue() {
    let base = tmp("unknown_kernel");
    let queue = base.join("q");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("--dir")
        .arg(&queue)
        .args(["--kernels", "vecad", "--topos", "1c2w2t"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`vecad`") && stderr.contains("vecadd"), "{stderr}");
    assert!(!queue.exists(), "a rejected invocation must not create the queue directory");
}

#[test]
fn absorb_dir_merges_disjoint_worker_stores_exactly() {
    let dir = tmp("absorb");
    let grid = tiny_grid();
    let factories = kernel_factories(Scale::Sweep);
    let vecadd = &factories[0];

    // Two "workers" fill private stores with disjoint grid shares.
    let w1 = CampaignCache::open(dir.join("w1")).unwrap();
    run_campaign_cached(vecadd, &grid[..1], 1, Some(&w1)).unwrap();
    w1.flush().unwrap();
    let w2 = CampaignCache::open(dir.join("w2")).unwrap();
    run_campaign_cached(vecadd, &grid[1..], 1, Some(&w2)).unwrap();
    w2.flush().unwrap();

    // The parent absorbs both; a fresh handle then answers the full grid
    // from disk without simulating anything.
    let parent = CampaignCache::open(dir.join("parent")).unwrap();
    assert_eq!(parent.absorb_dir(&dir.join("w1")).unwrap(), 1);
    assert_eq!(parent.absorb_dir(&dir.join("w2")).unwrap(), 2);
    parent.flush().unwrap();

    let reopened = CampaignCache::open(dir.join("parent")).unwrap();
    let warm = run_campaign_cached(vecadd, &grid, 1, Some(&reopened)).unwrap();
    let c = reopened.counters();
    assert_eq!((c.hits, c.misses), (3, 0), "absorbed rows answer the whole grid");
    let plain = run_campaign(vecadd, &grid, 1).unwrap();
    assert_eq!(plain.rows, warm.rows, "absorbed rows are the simulated rows");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn multi_process_workers_match_single_process_run() {
    let base = tmp("workers");
    let exe = env!("CARGO_BIN_EXE_campaign");
    let run = |queue: &std::path::Path, extra: &[&str]| {
        let json = queue.join("out.json");
        let out = std::process::Command::new(exe)
            .arg("--dir")
            .arg(queue)
            .args(["--topos", "1c2w2t,1c2w4t,2c2w2t", "--kernels", "vecadd,relu", "--jobs", "1"])
            .arg("--json")
            .arg(&json)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "campaign exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&json).unwrap()
    };

    let single = run(&base.join("single"), &[]);
    let multi = run(&base.join("multi"), &["--workers", "2"]);
    assert_eq!(
        strip_run_metadata(&multi),
        strip_run_metadata(&single),
        "worker-merged report must be byte-identical to the single-process run"
    );
    // The shards really ran out-of-process: both worker stores exist.
    assert!(base.join("multi/workers/1/store").is_dir());
    assert!(base.join("multi/workers/2/store").is_dir());
    std::fs::remove_dir_all(&base).unwrap();
}
