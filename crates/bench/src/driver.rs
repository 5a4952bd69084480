//! The resumable sweep driver: a crash-safe work queue over the
//! campaign grid, backed by the content-addressed result store.
//!
//! [`run_queue`] partitions the grid *temporally* across invocations
//! (`campaign --workers` adds the *spatial* split: strided shards in
//! child processes whose stores the parent absorbs). Every (kernel,
//! configuration) pair of the sweep becomes a work item identified by its
//! [`campaign_key`](crate::cache::campaign_key); an item is **done** iff
//! its row is resident in the store — the store is the single source of
//! truth, the manifest under the queue directory is a spec guard and
//! crash record. An invocation may stop at any point (a `budget` cap, a
//! crash, a kill): the store has every finished row (the cache runs in
//! autoflush mode, so at most the in-flight configuration is lost) and a
//! `resume: true` invocation picks up exactly the remainder. When the
//! last item lands, the driver assembles the full campaign report from
//! the store — byte-identical (modulo wall-clock and cache-transport
//! fields, see [`strip_run_metadata`](crate::persist::strip_run_metadata))
//! to what a single uninterrupted run would have produced, because rows
//! carry raw counters and reassembly is pure summation.
//!
//! The manifest (`<dir>/manifest.jsonl`) opens with a header holding the
//! digest of the queue spec — grid, kernels, scale, shard, engine
//! semantics. Resuming under a different spec is refused rather than
//! silently merging incompatible sweeps; re-running cold under a new spec
//! simply rewrites the manifest. All manifest writes are atomic.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vortex_core::{digest_program, Fnv64, ENGINE_SEMANTICS_VERSION as SEMVER};
use vortex_kernels::KernelError;
use vortex_sim::DeviceConfig;

use crate::cache::{campaign_key_from_digest, CacheCounters, CampaignCache};
use crate::campaign::{run_campaign_cached_traced, CampaignResult, Scale};
use crate::cli::select_kernels;
use crate::persist::atomic_write;
use crate::probe::{render_json, KernelRow, ProbeFile};
use crate::tracestore::TraceStore;

/// What to sweep: the full description of a work queue. Two invocations
/// with the same spec (and the same engine semantics) describe the same
/// queue and may resume each other; `jobs`, `budget` and `resume` are
/// execution parameters, not queue identity, and may differ freely
/// between invocations.
#[derive(Debug)]
pub struct QueueSpec {
    /// Queue directory (holds `manifest.jsonl`).
    pub dir: PathBuf,
    /// Result-store directory (see [`CampaignCache`]).
    pub cache_dir: PathBuf,
    /// Kernel-name filter (`None` = every kernel; an unknown name is
    /// [`DriverError::UnknownKernel`]).
    pub kernels: Option<Vec<String>>,
    /// The configuration grid (pre-subsampling already applied).
    pub configs: Vec<DeviceConfig>,
    /// Dataset scale.
    pub scale: Scale,
    /// Optional strided shard `K/M` of the grid (1-based `K`).
    pub shard: Option<(usize, usize)>,
    /// Worker threads per kernel campaign.
    pub jobs: usize,
    /// Stop after simulating this many configurations (across kernels).
    /// `None` = run the whole remainder.
    pub budget: Option<usize>,
    /// Optional trace-store directory for record/replay (docs/TRACE.md).
    /// An execution parameter like `jobs`: it changes how rows are
    /// produced, never what they contain, so it stays out of the queue's
    /// spec digest.
    pub trace_dir: Option<PathBuf>,
    /// Require an existing manifest with a matching spec digest instead
    /// of starting (or restarting) the queue from scratch.
    pub resume: bool,
}

impl QueueSpec {
    /// The grid this queue actually covers (shard applied, strided).
    fn sharded_configs(&self) -> Vec<DeviceConfig> {
        match self.shard {
            None => self.configs.clone(),
            Some((k, m)) => self
                .configs
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % m == k - 1)
                .map(|(_, c)| c)
                .collect(),
        }
    }
}

/// One (kernel, configuration) unit of work.
struct WorkItem {
    kernel: &'static str,
    config: DeviceConfig,
    key: u64,
}

/// What one [`run_queue`] invocation did.
#[derive(Debug)]
pub struct QueueOutcome {
    /// Configurations simulated by this invocation.
    pub simulated: usize,
    /// Items that were already done (resident in the store) on entry.
    pub reused: usize,
    /// Items still pending when this invocation returned (nonzero only
    /// after a budget stop).
    pub remaining: usize,
    /// Whether the whole queue is now done.
    pub complete: bool,
    /// The assembled full-campaign report (probe JSON) — present iff
    /// `complete`.
    pub result_json: Option<String>,
    /// The store handle's transport counters.
    pub counters: CacheCounters,
}

/// Driver failures. Kernel and I/O problems pass through; the
/// queue-integrity refusals get their own variants so callers (and the
/// CLI) can say precisely what went wrong.
#[derive(Debug)]
pub enum DriverError {
    /// Manifest or store I/O failed.
    Io(io::Error),
    /// A kernel campaign failed (assembly, launch, verification).
    Kernel(KernelError),
    /// The kernel filter names a kernel that does not exist (the message
    /// lists the valid names).
    UnknownKernel(String),
    /// `resume` was requested but no manifest exists at the path.
    NoManifest(PathBuf),
    /// `resume` was requested but the manifest's spec digest does not
    /// match this invocation's spec (different grid, kernels, scale,
    /// shard or engine semantics).
    SpecMismatch {
        /// Digest of the spec being resumed with.
        expected: u64,
        /// Digest recorded in the manifest.
        found: u64,
    },
    /// `resume` was requested with caching disabled
    /// (`VORTEX_CAMPAIGN_CACHE=0`) — without the store there is no
    /// done-ness to resume from.
    CacheDisabled,
    /// The manifest or store contents are unusable (message says how).
    Corrupt(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Io(e) => write!(f, "queue I/O: {e}"),
            DriverError::Kernel(e) => write!(f, "kernel campaign failed: {e}"),
            DriverError::UnknownKernel(msg) => write!(f, "{msg}"),
            DriverError::NoManifest(p) => {
                write!(f, "--resume: no manifest at {} (run without --resume first)", p.display())
            }
            DriverError::SpecMismatch { expected, found } => write!(
                f,
                "--resume: manifest spec {found:016x} does not match this invocation's spec \
                 {expected:016x} (grid, kernels, scale, shard and engine semantics must match)"
            ),
            DriverError::CacheDisabled => {
                write!(f, "--resume requires the campaign cache (VORTEX_CAMPAIGN_CACHE=0 is set)")
            }
            DriverError::Corrupt(msg) => write!(f, "queue state unusable: {msg}"),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<io::Error> for DriverError {
    fn from(e: io::Error) -> Self {
        DriverError::Io(e)
    }
}

impl From<KernelError> for DriverError {
    fn from(e: KernelError) -> Self {
        DriverError::Kernel(e)
    }
}

/// Runs (or resumes) the work queue described by `spec`. See the module
/// docs for the execution model.
///
/// With caching disabled via the environment the driver degenerates to a
/// plain uncached sweep: everything is simulated, nothing persists, and
/// `resume` is refused.
///
/// # Errors
///
/// See [`DriverError`].
pub fn run_queue(spec: &QueueSpec) -> Result<QueueOutcome, DriverError> {
    let factories =
        select_kernels(spec.scale, spec.kernels.as_deref()).map_err(DriverError::UnknownKernel)?;
    let cache = CampaignCache::open(&spec.cache_dir)?.with_autoflush(true);
    if spec.resume && !cache.is_enabled() {
        return Err(DriverError::CacheDisabled);
    }
    let traces = spec.trace_dir.as_deref().map(TraceStore::open).transpose()?;

    let configs = spec.sharded_configs();

    // The queue: kernel-major, grid order — the same order a plain
    // campaign reports in.
    let mut items: Vec<WorkItem> = Vec::with_capacity(factories.len() * configs.len());
    for factory in &factories {
        let program = factory.make_kernel().build().map_err(KernelError::from)?;
        let pdig = digest_program(&program);
        for config in &configs {
            let key = campaign_key_from_digest(factory.name, factory.scale, pdig, config);
            items.push(WorkItem { kernel: factory.name, config: *config, key });
        }
    }
    let spec_digest = digest_spec(spec, &items);

    let manifest_path = spec.dir.join("manifest.jsonl");
    if spec.resume {
        let found = read_manifest_spec(&manifest_path)?;
        if found != spec_digest {
            return Err(DriverError::SpecMismatch { expected: spec_digest, found });
        }
    }

    // Done-ness is store membership — the manifest's flags are only a
    // crash record for humans; a row that reached the store counts even
    // if the process died before rewriting the manifest.
    let done: Vec<bool> = items.iter().map(|it| cache.contains(it.kernel, it.key)).collect();
    let reused = done.iter().filter(|d| **d).count();
    write_manifest(&manifest_path, spec_digest, &items, &done)?;

    let pending: Vec<usize> =
        done.iter().enumerate().filter(|(_, d)| !**d).map(|(i, _)| i).collect();
    let take = spec.budget.unwrap_or(pending.len()).min(pending.len());
    let selected = &pending[..take];

    // Simulate the selected remainder, kernel by kernel. With the cache
    // in autoflush mode every finished configuration is durable before
    // the next one starts. Each kernel's batch result is kept: it carries
    // this invocation's seconds and trace counters (and, with the store
    // disabled, the rows themselves).
    let wall = Instant::now();
    let mut batches: Vec<Option<(f64, CampaignResult)>> = Vec::new();
    batches.resize_with(factories.len(), || None);
    for (factory, slot) in factories.iter().zip(&mut batches) {
        let batch: Vec<DeviceConfig> = selected
            .iter()
            .filter(|&&i| items[i].kernel == factory.name)
            .map(|&i| items[i].config)
            .collect();
        if batch.is_empty() {
            continue;
        }
        let start = Instant::now();
        let result =
            run_campaign_cached_traced(factory, &batch, spec.jobs, Some(&cache), traces.as_ref())?;
        *slot = Some((start.elapsed().as_secs_f64(), result));
    }
    let simulated = batches.iter().flatten().map(|(_, r)| r.rows.len()).sum();

    let done_after: Vec<bool> = if cache.is_enabled() {
        items.iter().map(|it| cache.contains(it.kernel, it.key)).collect()
    } else {
        // Nothing persists without the store; the degenerate sweep is
        // complete exactly when this invocation covered every item.
        items.iter().enumerate().map(|(i, _)| done[i] || selected.contains(&i)).collect()
    };
    write_manifest(&manifest_path, spec_digest, &items, &done_after)?;
    let remaining = done_after.iter().filter(|d| !**d).count();
    let complete = remaining == 0 && !items.is_empty();

    let result_json = if complete {
        let mut rows: Vec<KernelRow> = Vec::with_capacity(factories.len());
        for (factory, batch) in factories.iter().zip(batches) {
            let (seconds, mut result) = batch.unwrap_or_else(|| {
                (0.0, CampaignResult { kernel: factory.name, ..CampaignResult::default() })
            });
            let simulated = result.rows.len() as u64;
            if cache.is_enabled() {
                result.rows = items
                    .iter()
                    .filter(|it| it.kernel == factory.name)
                    .map(|it| {
                        cache.get(it.kernel, it.key, &it.config).ok_or_else(|| {
                            DriverError::Corrupt(format!(
                                "store row for {} on {} vanished after completion",
                                it.kernel,
                                it.config.topology_name()
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
            }
            let hits = configs.len() as u64 - simulated;
            rows.push(KernelRow::of_campaign(&result, seconds, hits, simulated));
        }
        let file = ProbeFile {
            configs: configs.len(),
            jobs: spec.jobs,
            total_seconds: wall.elapsed().as_secs_f64(),
            shard: spec.shard,
            cache_bytes_read: 0,
            cache_bytes_written: 0,
            rows,
        }
        .with_cache_totals(&cache.counters());
        Some(render_json(&file))
    } else {
        None
    };

    Ok(QueueOutcome {
        simulated,
        reused,
        remaining,
        complete,
        result_json,
        counters: cache.counters(),
    })
}

/// The queue-identity digest: engine semantics, scale, shard and every
/// item's kernel and campaign key (which already binds program words,
/// dataset, configuration and policy set).
fn digest_spec(spec: &QueueSpec, items: &[WorkItem]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(SEMVER);
    h.write_str(spec.scale.tag());
    let (k, m) = spec.shard.unwrap_or((0, 0));
    h.write_usize(k);
    h.write_usize(m);
    h.write_usize(items.len());
    for item in items {
        h.write_str(item.kernel);
        h.write_u64(item.key);
    }
    h.finish()
}

/// Atomically rewrites the manifest: a spec header plus one line per
/// item with its current done flag.
fn write_manifest(
    path: &Path,
    spec_digest: u64,
    items: &[WorkItem],
    done: &[bool],
) -> io::Result<()> {
    use std::fmt::Write;
    let mut text = String::new();
    writeln!(
        text,
        "{{\"spec\": \"{spec_digest:016x}\", \"semver\": {SEMVER}, \"items\": {}}}",
        items.len()
    )
    .expect("writing to String cannot fail");
    for (item, done) in items.iter().zip(done) {
        writeln!(
            text,
            "{{\"kernel\": \"{}\", \"topo\": \"{}\", \"key\": \"{:016x}\", \"done\": {}}}",
            item.kernel,
            item.config.topology_name(),
            item.key,
            u8::from(*done)
        )
        .expect("writing to String cannot fail");
    }
    atomic_write(path, &text)
}

/// Reads the spec digest out of a manifest header.
fn read_manifest_spec(path: &Path) -> Result<u64, DriverError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(DriverError::NoManifest(path.to_path_buf()))
        }
        Err(e) => return Err(DriverError::Io(e)),
    };
    // The header is the first line.
    let spec = crate::jsonl::fields(text.lines().next().unwrap_or(""))
        .find(|(key, _)| *key == "spec")
        .and_then(|(_, hex)| u64::from_str_radix(hex, 16).ok());
    spec.ok_or_else(|| {
        DriverError::Corrupt(format!("manifest header at {} has no spec digest", path.display()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_queue(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir().join(format!("vortex_queue_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        (base.join("queue"), base.join("store"))
    }

    fn tiny_spec(dir: &Path, store: &Path) -> QueueSpec {
        QueueSpec {
            dir: dir.to_path_buf(),
            cache_dir: store.to_path_buf(),
            kernels: Some(vec!["vecadd".into(), "relu".into()]),
            configs: vec![
                DeviceConfig::with_topology(1, 2, 2),
                DeviceConfig::with_topology(1, 2, 4),
                DeviceConfig::with_topology(2, 2, 2),
            ],
            scale: Scale::Sweep,
            shard: None,
            jobs: 2,
            budget: None,
            trace_dir: None,
            resume: false,
        }
    }

    #[test]
    fn budget_stop_then_resume_matches_cold_run_exactly() {
        let (qa, sa) = temp_queue("resume_a");
        let (qb, sb) = temp_queue("resume_b");

        // Cold uninterrupted run: 2 kernels × 3 configs.
        let cold = run_queue(&tiny_spec(&qa, &sa)).unwrap();
        assert!(cold.complete);
        assert_eq!((cold.simulated, cold.reused, cold.remaining), (6, 0, 0));
        let cold_json = cold.result_json.expect("complete queue yields a report");

        // Same queue elsewhere, killed by budget after 2 configurations.
        let mut spec = tiny_spec(&qb, &sb);
        spec.budget = Some(2);
        let first = run_queue(&spec).unwrap();
        assert!(!first.complete);
        assert_eq!((first.simulated, first.reused, first.remaining), (2, 0, 4));
        assert!(first.result_json.is_none());

        // Resume must simulate exactly the remainder…
        spec.budget = None;
        spec.resume = true;
        let second = run_queue(&spec).unwrap();
        assert!(second.complete);
        assert_eq!((second.simulated, second.reused, second.remaining), (4, 2, 0));
        // …and the assembled report must match the cold run on every
        // simulation-derived byte.
        let resumed_json = second.result_json.unwrap();
        assert_eq!(
            crate::persist::strip_run_metadata(&resumed_json),
            crate::persist::strip_run_metadata(&cold_json),
            "resumed queue must reassemble the cold-run report"
        );
        for dir in [&qa, &qb] {
            std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
        }
    }

    #[test]
    fn resume_guards_manifest_presence_and_spec() {
        let (queue, store) = temp_queue("guards");
        let mut spec = tiny_spec(&queue, &store);
        spec.resume = true;
        match run_queue(&spec) {
            Err(DriverError::NoManifest(_)) => {}
            other => panic!("expected NoManifest, got {other:?}"),
        }

        spec.resume = false;
        let cold = run_queue(&spec).unwrap();
        assert!(cold.complete);

        // A different grid under --resume must be refused.
        spec.resume = true;
        spec.configs.push(DeviceConfig::with_topology(2, 2, 4));
        match run_queue(&spec) {
            Err(DriverError::SpecMismatch { .. }) => {}
            other => panic!("expected SpecMismatch, got {other:?}"),
        }

        // The matching spec resumes cleanly and is a pure cache replay.
        spec.configs.pop();
        let warm = run_queue(&spec).unwrap();
        assert!(warm.complete);
        assert_eq!((warm.simulated, warm.reused), (0, 6));
        std::fs::remove_dir_all(queue.parent().unwrap()).unwrap();
    }

    #[test]
    fn single_grid_change_simulates_exactly_the_delta() {
        let (queue, store) = temp_queue("delta");
        let spec = tiny_spec(&queue, &store);
        assert!(run_queue(&spec).unwrap().complete);

        // One added configuration re-simulates one item per kernel.
        let mut grown = tiny_spec(&queue, &store);
        grown.configs.push(DeviceConfig::with_topology(2, 2, 4));
        let out = run_queue(&grown).unwrap();
        assert!(out.complete);
        assert_eq!((out.simulated, out.reused), (2, 6));
        std::fs::remove_dir_all(queue.parent().unwrap()).unwrap();
    }

    #[test]
    fn truncated_store_line_is_resimulated() {
        let (queue, store) = temp_queue("truncated");
        let spec = tiny_spec(&queue, &store);
        assert!(run_queue(&spec).unwrap().complete);

        // Damage the tail of one shard, as a kill mid-write would.
        let shard = store.join("vecadd.jsonl");
        let text = std::fs::read_to_string(&shard).unwrap();
        std::fs::write(&shard, &text[..text.len() - 25]).unwrap();

        let out = run_queue(&spec).unwrap();
        assert!(out.complete);
        assert_eq!((out.simulated, out.reused), (1, 5), "only the damaged row re-runs");
        std::fs::remove_dir_all(queue.parent().unwrap()).unwrap();
    }
}
