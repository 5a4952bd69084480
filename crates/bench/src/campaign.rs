//! Running kernels across configurations and policies, collecting the
//! cycle ratios of the paper's Fig. 2.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use vortex_core::{DispatchStats, LwsPolicy, Runtime};
use vortex_kernels::{
    record_kernel_prepared, replay_kernel_prepared, run_kernel_prepared, Gauss, GcnAggr, GcnLayer,
    Kernel, KernelError, Knn, Reduce, Relu, ResnetLayer, RunOutcome, Saxpy, Sgemm, VecAdd,
};
use vortex_sim::{DeviceConfig, MemStats, RecordedTrace};

use crate::tracestore::{trace_key, TraceStore};

/// Workload sizing: the paper's exact sizes or the reduced sweep sizes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Fig. 2 sizes (sgemm 256×16×144, gauss 360×360, knn 42 764, …).
    Paper,
    /// Reduced sizes for the full 450-configuration campaign.
    Sweep,
}

impl Scale {
    /// Canonical tag folded into campaign cache keys: together with the
    /// kernel name it pins the dataset (inputs are generated from fixed
    /// per-kernel seeds at a size chosen by the scale).
    pub fn tag(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Sweep => "sweep",
        }
    }
}

/// A named constructor for fresh kernel instances (each worker thread
/// builds its own, so runs stay independent and deterministic).
pub struct KernelFactory {
    /// Kernel name (matches the paper's figure labels).
    pub name: &'static str,
    /// The dataset scale the instances are built at (part of the
    /// campaign cache key — see [`crate::cache::campaign_key`]).
    pub scale: Scale,
    /// Builds a fresh instance.
    pub make: Box<dyn Fn() -> Box<dyn Kernel> + Send + Sync>,
}

impl KernelFactory {
    /// Builds a fresh kernel instance.
    pub fn make_kernel(&self) -> Box<dyn Kernel> {
        (self.make)()
    }
}

/// The ten workload kernels at the chosen scale.
pub fn kernel_factories(scale: Scale) -> Vec<KernelFactory> {
    fn f(
        name: &'static str,
        make: impl Fn() -> Box<dyn Kernel> + Send + Sync + 'static,
    ) -> KernelFactory {
        // The dataset scale is stamped on below, once, for all entries.
        KernelFactory { name, scale: Scale::Sweep, make: Box::new(make) }
    }
    let mut factories = match scale {
        Scale::Paper => vec![
            f("vecadd", || Box::new(VecAdd::paper())),
            f("relu", || Box::new(Relu::paper())),
            f("saxpy", || Box::new(Saxpy::paper())),
            f("sgemm", || Box::new(Sgemm::paper())),
            f("gauss", || Box::new(Gauss::paper())),
            f("knn", || Box::new(Knn::paper())),
            f("gcn_aggr", || Box::new(GcnAggr::paper())),
            f("gcn_layer", || Box::new(GcnLayer::paper())),
            f("resnet_layer", || Box::new(ResnetLayer::paper())),
            f("reduce", || Box::new(Reduce::paper())),
        ],
        Scale::Sweep => vec![
            f("vecadd", || Box::new(VecAdd::paper())),
            f("relu", || Box::new(Relu::paper())),
            f("saxpy", || Box::new(Saxpy::paper())),
            f("sgemm", || Box::new(Sgemm::sweep())),
            f("gauss", || Box::new(Gauss::sweep())),
            f("knn", || Box::new(Knn::sweep())),
            f("gcn_aggr", || Box::new(GcnAggr::sweep())),
            f("gcn_layer", || Box::new(GcnLayer::sweep())),
            f("resnet_layer", || Box::new(ResnetLayer::sweep())),
            f("reduce", || Box::new(Reduce::paper())), // already small enough
        ],
    };
    for factory in &mut factories {
        factory.scale = scale;
    }
    factories
}

/// Measurements of one kernel on one configuration under the three
/// mapping policies of the paper.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigRow {
    /// The hardware configuration.
    pub config: DeviceConfig,
    /// Cycles under `lws = 1`.
    pub cycles_naive: u64,
    /// Cycles under `lws = 32`.
    pub cycles_fixed: u64,
    /// Cycles under the paper's Eq. 1 policy.
    pub cycles_auto: u64,
    /// The lws Eq. 1 resolved to.
    pub lws_auto: u32,
    /// DRAM utilisation of the auto run (memory-boundedness marker).
    pub dram_utilization: f64,
    /// Memory-hierarchy counters of the auto run (L1/L2 hits and misses,
    /// DRAM line requests) — what the batched transaction pipeline
    /// actually did, so a throughput change is attributable to a
    /// hit-rate or traffic change.
    pub mem: MemStats,
    /// Dispatch-round and occupancy counters of the auto run (launches,
    /// rounds, tasks — raw sums, so shard merges stay exact).
    pub dispatch: DispatchStats,
    /// Instructions the device actually issued across the policy runs
    /// executed for this row (policies deduplicated into a shared run are
    /// counted once, matching the host seconds actually spent). The raw
    /// denominator of host-ns-per-simulated-instruction: unlike the
    /// launch-attributed [`dispatch`](ConfigRow::dispatch) count it
    /// includes dispatch prologues and autotune probe launches — work the
    /// host genuinely simulates. Exact to merge.
    pub instructions: u64,
    /// SIMT memory-port accesses of the auto run (batched accesses that
    /// carried ≥ 1 line) — raw sum, exact to merge.
    pub port_accesses: u64,
    /// Extra L1 port slots beyond the first per access of the auto run
    /// (port serialisation under uncoalesced access) — raw sum.
    pub port_stall_slots: u64,
}

impl ConfigRow {
    /// `lws=1 cycles ÷ ours cycles` (left/yellow side of a Fig. 2 violin).
    pub fn ratio_naive(&self) -> f64 {
        self.cycles_naive as f64 / self.cycles_auto as f64
    }

    /// `lws=32 cycles ÷ ours cycles` (right/blue side of a Fig. 2 violin).
    pub fn ratio_fixed(&self) -> f64 {
        self.cycles_fixed as f64 / self.cycles_auto as f64
    }
}

/// All measurements of one kernel across a configuration sweep.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// Kernel name.
    pub kernel: &'static str,
    /// One row per configuration, in sweep order.
    pub rows: Vec<ConfigRow>,
    /// Policy runs measured by executing (and, with a trace store,
    /// recording) — a transport counter like the cache hit counts, not
    /// simulation content (blanked by
    /// [`strip_run_metadata`](crate::persist::strip_run_metadata)).
    pub trace_records: u64,
    /// Policy runs measured by replaying a stored trace.
    pub trace_replays: u64,
}

impl CampaignResult {
    /// The `lws=1/ours` ratio across configurations.
    pub fn naive_ratios(&self) -> Vec<f64> {
        self.rows.iter().map(ConfigRow::ratio_naive).collect()
    }

    /// The `lws=32/ours` ratio across configurations.
    pub fn fixed_ratios(&self) -> Vec<f64> {
        self.rows.iter().map(ConfigRow::ratio_fixed).collect()
    }

    /// Mean DRAM utilisation across configurations (≥ ~0.5 marks the
    /// paper's *memory bound* kernels).
    pub fn mean_dram_utilization(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.dram_utilization).sum::<f64>() / self.rows.len() as f64
    }

    /// Memory-hierarchy counters summed over all configurations' auto
    /// runs (see [`ConfigRow::mem`]).
    pub fn total_mem(&self) -> MemStats {
        let mut total = MemStats::default();
        for row in &self.rows {
            total.accumulate(&row.mem);
        }
        total
    }

    /// Dispatch-round counters summed over all configurations' auto runs
    /// (see [`ConfigRow::dispatch`]).
    pub fn total_dispatch(&self) -> DispatchStats {
        let mut total = DispatchStats::default();
        for row in &self.rows {
            total.accumulate(&row.dispatch);
        }
        total
    }

    /// Issued instructions summed over all configurations' executed runs
    /// (see [`ConfigRow::instructions`]).
    pub fn total_instructions(&self) -> u64 {
        self.rows.iter().map(|r| r.instructions).sum()
    }

    /// SIMT memory-port counters `(accesses, stall_slots)` summed over
    /// all configurations' auto runs (see [`ConfigRow::port_accesses`]).
    pub fn total_ports(&self) -> (u64, u64) {
        let mut accesses = 0;
        let mut stalls = 0;
        for row in &self.rows {
            accesses += row.port_accesses;
            stalls += row.port_stall_slots;
        }
        (accesses, stalls)
    }
}

/// Runs one kernel over `configs` under the three policies, in parallel
/// across `jobs` worker threads. Results are returned in sweep order and
/// every run is verified against the host reference.
///
/// The kernel program is assembled **once** per call and shared; each
/// worker builds one kernel instance and reuses one [`Runtime`] (device
/// included) across the three policies of each configuration via
/// [`Runtime::reset`] — and across consecutive sweep entries when they are
/// equal (subsampling can repeat a configuration; the 450-point paper
/// sweep itself has pairwise-distinct topologies, so there the device is
/// rebuilt once per configuration). Nothing else is rebuilt on the
/// per-measurement path, and `jobs == 1` runs on the caller's thread.
///
/// # Errors
///
/// Propagates the first kernel failure (assembly, launch, wrong results).
pub fn run_campaign(
    factory: &KernelFactory,
    configs: &[DeviceConfig],
    jobs: usize,
) -> Result<CampaignResult, KernelError> {
    run_campaign_cached(factory, configs, jobs, None)
}

/// [`run_campaign`] backed by the persistent content-addressed result
/// store: each configuration's [`campaign_key`](crate::cache::campaign_key)
/// is consulted before simulating — hits return the stored row (with all
/// raw counters, so downstream merges stay exact) and skip the device
/// entirely; misses simulate as usual and are appended to the store.
/// With no cache (or a disabled one) this is exactly [`run_campaign`].
/// A fully warm call costs one kernel construction and one assembly (for
/// the program digest in the keys) plus the lookups: no dataset is
/// generated, no runtime built and, with one job, no thread spawned.
///
/// The caller owns flushing: batch probes flush once per kernel, the
/// resumable driver puts the cache in autoflush mode instead.
///
/// # Errors
///
/// Propagates the first kernel failure (assembly, launch, wrong results).
pub fn run_campaign_cached(
    factory: &KernelFactory,
    configs: &[DeviceConfig],
    jobs: usize,
    cache: Option<&crate::cache::CampaignCache>,
) -> Result<CampaignResult, KernelError> {
    run_campaign_cached_traced(factory, configs, jobs, cache, None)
}

/// [`run_campaign_cached`] with semantics-free trace record/replay: with
/// a [`TraceStore`], the first execution of a (kernel, per-phase mapping,
/// topology) records its architectural event streams, and every later
/// configuration sharing that [`trace_key`] — same topology under a
/// different timing or memory-hierarchy model — is *replayed*: the full
/// scheduling and memory-timing walk runs, but decode-execute of row
/// kernels is skipped, producing bit-identical rows faster. Replay rows
/// skip host-side result verification (a replay computes no values);
/// every recorded row is verified as usual.
///
/// The returned [`CampaignResult::trace_records`]/`trace_replays` count
/// this campaign's policy runs by how they were measured (deduplicated
/// policies count once, cache hits count zero times).
///
/// # Errors
///
/// Propagates the first kernel failure (assembly, launch, wrong results).
pub fn run_campaign_cached_traced(
    factory: &KernelFactory,
    configs: &[DeviceConfig],
    jobs: usize,
    cache: Option<&crate::cache::CampaignCache>,
    traces: Option<&TraceStore>,
) -> Result<CampaignResult, KernelError> {
    // One assembly on the caller thread serves everyone: its digest keys
    // the stores, and the workers load the program itself. The instance
    // it came from generated no dataset and is dropped here.
    let program = factory.make_kernel().build()?;
    let pdig = vortex_core::digest_program(&program);
    let keys: Vec<u64> = match cache {
        Some(_) => configs
            .iter()
            .map(|c| crate::cache::campaign_key_from_digest(factory.name, factory.scale, pdig, c))
            .collect(),
        None => Vec::new(),
    };
    let trace_ctx = traces.map(|store| TraceCtx {
        store,
        kernel: factory.name,
        scale: factory.scale,
        program_digest: pdig,
    });
    let records = AtomicU64::new(0);
    let replays = AtomicU64::new(0);

    // A store hit touches nothing cold: the worker's kernel instance (and
    // with it the datasets, at its first `setup`) and runtime exist from
    // its first miss on.
    type Worker = (Option<Box<dyn Kernel>>, Option<Runtime>, TraceMemo);
    let measure = |(kernel, rt, memo): &mut Worker, idx: usize| -> Result<_, KernelError> {
        let config = &configs[idx];
        // Store first: a hit is a finished, verified row.
        if let Some(row) = cache.and_then(|c| c.lookup(factory.name, keys[idx], config)) {
            return Ok(row);
        }
        let kernel = kernel.get_or_insert_with(|| factory.make_kernel());
        // Reuse the worker's runtime whenever the configuration carries
        // over (always true for the three policies, sometimes for repeated
        // subsample entries); rebuild only when the device shape actually
        // changes.
        let rt = match rt {
            Some(r) if r.device().config() == config => r,
            _ => {
                let mut fresh = Runtime::new(*config);
                fresh.load_program(&program);
                rt.insert(fresh)
            }
        };
        let counters = (&records, &replays);
        let row = measure_config(
            kernel.as_mut(),
            &program,
            rt,
            config,
            trace_ctx.as_ref(),
            memo,
            counters,
        )?;
        if let Some(cache) = cache {
            cache.insert(factory.name, keys[idx], &row);
        }
        Ok(row)
    };
    let rows = fan_out(jobs, configs.len(), Worker::default, measure)?;
    Ok(CampaignResult {
        kernel: factory.name,
        rows,
        trace_records: records.into_inner(),
        trace_replays: replays.into_inner(),
    })
}

/// Runs `work` on every index in `0..n` across `jobs` workers, each owning
/// one `init()` state for its lifetime, and returns the results in index
/// order. One job runs on the caller's thread: no spawn, no second malloc
/// arena. A failure stops every worker at its next index.
pub(crate) fn fan_out<W, T: Send, E: Send>(
    jobs: usize,
    n: usize,
    init: impl Fn() -> W + Sync,
    work: impl Fn(&mut W, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let failure: Mutex<Option<E>> = Mutex::new(None);
    let worker = || {
        let mut state = init();
        while failure.lock().expect("failure lock").is_none() {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                return;
            }
            match work(&mut state, idx) {
                Ok(out) => results.lock().expect("results lock")[idx] = Some(out),
                Err(e) => *failure.lock().expect("failure lock") = Some(e),
            }
        }
    };
    if jobs <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }
    match failure.into_inner().expect("failure lock") {
        Some(e) => Err(e),
        None => Ok(results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every index ran"))
            .collect()),
    }
}

/// Everything a worker needs to derive [`trace_key`]s and talk to the
/// shared [`TraceStore`].
struct TraceCtx<'a> {
    store: &'a TraceStore,
    kernel: &'static str,
    scale: Scale,
    program_digest: u64,
}

/// A worker's small cache of decoded traces. Micro-architecture sweeps
/// (`--uarch`) visit every timing/geometry variant of one topology
/// back-to-back, and all variants share the topology's trace keys — so
/// without this, each variant re-reads and re-decodes the same
/// multi-megabyte files. Capacity 4 covers the three policy signatures
/// of the current topology plus one straggler; a freshly *recorded*
/// trace is memoised too, so the variants following a cold record
/// replay from memory without touching the store at all.
#[derive(Default)]
struct TraceMemo {
    entries: Vec<(u64, RecordedTrace)>,
}

impl TraceMemo {
    const CAP: usize = 4;

    fn get(&self, key: u64) -> Option<&RecordedTrace> {
        self.entries.iter().find(|(k, _)| *k == key).map(|(_, t)| t)
    }

    fn insert(&mut self, key: u64, trace: RecordedTrace) {
        self.entries.retain(|(k, _)| *k != key);
        if self.entries.len() >= Self::CAP {
            self.entries.remove(0);
        }
        self.entries.push((key, trace));
    }
}

/// Measures one kernel on one configuration under all three policies,
/// reusing the caller's prepared runtime for all three runs.
///
/// Policies that resolve to the same `lws` for every phase produce
/// launch-for-launch identical simulations (the runtime is reset to the
/// same cold state each run and kernels are deterministic), so such runs
/// are executed once and shared. On large topologies `Auto` degenerates
/// to `lws = 1` (`hp ≥ gws`), which makes this a substantial fraction of
/// the paper sweep.
fn measure_config(
    kernel: &mut dyn Kernel,
    program: &vortex_asm::Program,
    rt: &mut Runtime,
    config: &DeviceConfig,
    traces: Option<&TraceCtx<'_>>,
    memo: &mut TraceMemo,
    counters: (&AtomicU64, &AtomicU64),
) -> Result<ConfigRow, KernelError> {
    let phases = kernel.phases();
    let resolve = |policy: LwsPolicy| -> Vec<u32> {
        phases.iter().map(|p| policy.lws_for(p.gws, config)).collect()
    };
    let sig_naive = resolve(LwsPolicy::Naive1);
    let sig_fixed = resolve(LwsPolicy::Fixed32);
    let sig_auto = resolve(LwsPolicy::Auto);

    // One policy run, measured by replay when the store holds a matching
    // trace, by execute-and-record otherwise. The (records, replays)
    // counters tick per run actually performed.
    let mut run = |policy: LwsPolicy, sig: &[u32]| -> Result<RunOutcome, KernelError> {
        let Some(t) = traces else {
            return run_kernel_prepared(kernel, program, rt, policy);
        };
        let phase_lws: Vec<(u32, u32)> =
            phases.iter().zip(sig).map(|(p, &lws)| (p.gws, lws)).collect();
        let key = trace_key(t.kernel, t.scale, t.program_digest, config, &phase_lws);
        if memo.get(key).is_none() {
            if let Some(rec) = t.store.load(key) {
                memo.insert(key, rec);
            }
        }
        if let Some(rec) = memo.get(key) {
            // A structurally divergent stored trace (which keying should
            // make impossible) degrades to re-recording, never to a
            // wrong row.
            if let Ok(out) = replay_kernel_prepared(kernel, program, rt, policy, rec) {
                counters.1.fetch_add(1, Ordering::Relaxed);
                t.store.note_replay();
                return Ok(out);
            }
        }
        let (out, rec) = record_kernel_prepared(kernel, program, rt, policy)?;
        // Persisting is best-effort: an unwritable store costs later
        // replays, not correctness.
        let _ = t.store.save(key, &rec);
        memo.insert(key, rec);
        counters.0.fetch_add(1, Ordering::Relaxed);
        t.store.note_record();
        Ok(out)
    };

    let naive = run(LwsPolicy::Naive1, &sig_naive)?;
    let mut instructions = naive.instructions;
    let fixed = if sig_fixed == sig_naive {
        naive.clone()
    } else {
        let run = run(LwsPolicy::Fixed32, &sig_fixed)?;
        instructions += run.instructions;
        run
    };
    let auto = if sig_auto == sig_naive {
        naive.clone()
    } else if sig_auto == sig_fixed {
        fixed.clone()
    } else {
        let run = run(LwsPolicy::Auto, &sig_auto)?;
        instructions += run.instructions;
        run
    };
    Ok(ConfigRow {
        config: *config,
        cycles_naive: naive.cycles,
        cycles_fixed: fixed.cycles,
        cycles_auto: auto.cycles,
        lws_auto: auto.reports.first().map_or(1, |r| r.lws),
        dram_utilization: auto.dram_utilization,
        mem: auto.mem,
        dispatch: auto.dispatch,
        instructions,
        port_accesses: auto.port_accesses,
        port_stall_slots: auto.port_stall_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{paper_sweep, subsample};

    #[test]
    fn tiny_campaign_produces_ordered_rows() {
        let configs = subsample(&paper_sweep(), 4);
        let factories = kernel_factories(Scale::Sweep);
        let vecadd = &factories[0];
        let result = run_campaign(vecadd, &configs, 2).unwrap();
        assert_eq!(result.kernel, "vecadd");
        assert_eq!(result.rows.len(), configs.len());
        for (row, config) in result.rows.iter().zip(&configs) {
            assert_eq!(row.config.topology_name(), config.topology_name());
            assert!(row.cycles_auto > 0);
        }
    }

    #[test]
    fn cached_campaign_reproduces_uncached_rows_exactly() {
        let configs =
            vec![DeviceConfig::with_topology(1, 2, 2), DeviceConfig::with_topology(2, 2, 4)];
        let factories = kernel_factories(Scale::Sweep);
        let vecadd = &factories[0];
        let dir =
            std::env::temp_dir().join(format!("vortex_campaign_cache_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = crate::cache::CampaignCache::open(&dir).unwrap();

        let plain = run_campaign(vecadd, &configs, 2).unwrap();
        let cold = run_campaign_cached(vecadd, &configs, 2, Some(&cache)).unwrap();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (0, 2, 2));
        cache.flush().unwrap();

        // Same handle and a reopened handle must both replay the rows
        // bit-exactly (the f64 utilisation included).
        let warm = run_campaign_cached(vecadd, &configs, 2, Some(&cache)).unwrap();
        assert_eq!(cache.counters().hits, 2);
        let reopened = crate::cache::CampaignCache::open(&dir).unwrap();
        let persisted = run_campaign_cached(vecadd, &configs, 2, Some(&reopened)).unwrap();
        let rc = reopened.counters();
        assert_eq!((rc.hits, rc.misses, rc.insertions, rc.entries), (2, 0, 0, 2));
        assert!(rc.bytes_read > 0, "a reopened store must have read its shards");
        for other in [&cold, &warm, &persisted] {
            assert_eq!(plain.rows, other.rows, "cache must be result-transparent");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_campaign_replays_bit_identically() {
        // Two timing variants of one topology: the first records, the
        // second replays, and every row equals the plain execute run.
        let base = DeviceConfig::with_topology(2, 2, 4);
        let mut slow = base;
        slow.timing.mul = 9;
        slow.timing.fpu = 11;
        slow.mem.l2_latency += 5;
        let configs = vec![base, slow];
        let factories = kernel_factories(Scale::Sweep);
        let saxpy = factories.iter().find(|f| f.name == "saxpy").unwrap();
        let dir =
            std::env::temp_dir().join(format!("vortex_campaign_trace_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::tracestore::TraceStore::open(&dir).unwrap();

        let plain = run_campaign(saxpy, &configs, 1).unwrap();
        assert_eq!((plain.trace_records, plain.trace_replays), (0, 0));
        let traced = run_campaign_cached_traced(saxpy, &configs, 1, None, Some(&store)).unwrap();
        assert_eq!(plain.rows, traced.rows, "replayed rows must be bit-identical");
        assert!(traced.trace_records > 0, "first topology visit must record");
        assert!(traced.trace_replays > 0, "the re-timed variant must replay");

        // A second pass over the same sweep replays everything.
        let rerun = run_campaign_cached_traced(saxpy, &configs, 1, None, Some(&store)).unwrap();
        assert_eq!(plain.rows, rerun.rows);
        assert_eq!(rerun.trace_records, 0, "warm store must not re-record");
        assert_eq!(store.counters().0, traced.trace_records, "store sums handle lifetime");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ratios_are_positive() {
        let configs = vec![DeviceConfig::with_topology(1, 2, 4)];
        let factories = kernel_factories(Scale::Sweep);
        let result = run_campaign(&factories[0], &configs, 1).unwrap();
        assert!(result.naive_ratios()[0] > 0.0);
        assert!(result.fixed_ratios()[0] > 0.0);
    }
}
