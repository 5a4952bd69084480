//! Re-drives what the product's entry points do — `run_campaign*` for a
//! kernel's cells, `tune_lws` for a tuning answer, the campaign store for
//! a round trip — through public product calls only (`build →
//! Runtime::new → load_program → reset → setup → launch per phase →
//! verify`), with a span at each boundary, and folds the resulting rows
//! into exact statistics.
//!
//! The policy-deduplication, trace-memo and row-assembly rules mirror
//! `vortex_bench::campaign::measure_config`, the winner rule mirrors
//! `vortex_core::autotune::tune_lws`; every traced run checks what is
//! built here against what the product returns for the same cells, so
//! drift shows as a failed run, not as a silent difference.

use std::io;
use std::path::Path;

use crate::spans::Spans;
use crate::surface::{
    campaign_key_from_digest, digest_program, lws_candidates, probe_schedule_for, trace_key,
    CacheCounters, CampaignCache, ConfigRow, CostModel, DeviceConfig, DeviceCounters,
    DispatchStats, ExecClass, Fnv64, Kernel, KernelError, KernelFactory, LaunchParams, LwsPolicy,
    MemStats, NullSink, ProbedRow, Program, RecordedTrace, RunOutcome, Runtime, TraceRecorder,
    TraceSink, TraceStore,
};

/// The three policies of a campaign row, in the order the product runs
/// them.
pub const POLICIES: [LwsPolicy; 3] = [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto];

/// How one policy run obtains its value-dependent outcomes.
pub enum RunMode<'a> {
    /// Decode-execute.
    Execute,
    /// Decode-execute under a `TraceRecorder`.
    Record,
    /// Consume a recorded trace; no set-up, no verification.
    Replay(&'a RecordedTrace),
    /// Decode-execute under the caller's sink.
    Tap(&'a mut dyn TraceSink),
}

/// Exact simulated-machine counters of the device after policy runs,
/// summed. A speed-only product change must leave every field as it was.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimExact {
    /// Policy runs executed (after deduplication).
    pub policy_runs: u64,
    /// Σ `DeviceCounters` over those runs.
    pub counters: DeviceCounters,
    /// Σ lane slots offered (`instructions × threads`).
    pub lane_slots: u64,
    /// Σ simulated cycles.
    pub cycles: u64,
    /// Σ cores + L1 caches swept by `Device::reset`.
    pub reset_work: u64,
    /// Σ launch-plan cache hits.
    pub plan_hits: u64,
    /// Σ launch-plan cache misses.
    pub plan_misses: u64,
}

impl SimExact {
    fn absorb_run(&mut self, rt: &Runtime, outcome: &RunOutcome, reset_work: u64) {
        let c = rt.device().counters();
        self.policy_runs += 1;
        self.counters.instructions += c.instructions;
        self.counters.lane_instructions += c.lane_instructions;
        self.counters.classes.merge(&c.classes);
        self.lane_slots += c.instructions * rt.device().config().threads as u64;
        self.cycles += outcome.cycles;
        self.reset_work += reset_work;
    }

    /// Adds a runtime's plan-cache counters (call once per runtime, when
    /// it is retired).
    pub fn absorb_plan_cache(&mut self, rt: &Runtime) {
        let (hits, misses) = rt.plan_cache_stats();
        self.plan_hits += hits;
        self.plan_misses += misses;
    }

    /// Share of issued instructions in `classes`.
    pub fn class_share(&self, classes: &[ExecClass]) -> f64 {
        let n: u64 = classes.iter().map(|&c| self.counters.classes.get(c)).sum();
        crate::measure::ratio(n as f64, self.counters.instructions as f64)
    }
}

/// Every functional-unit class, in `ClassCounts` order.
pub const ALL_CLASSES: [ExecClass; 11] = [
    ExecClass::Alu,
    ExecClass::Mul,
    ExecClass::Div,
    ExecClass::Fpu,
    ExecClass::FDiv,
    ExecClass::FSqrt,
    ExecClass::Load,
    ExecClass::Store,
    ExecClass::Branch,
    ExecClass::Simt,
    ExecClass::Sys,
];

/// One policy run on a prepared runtime, decomposed into spans. Mirrors
/// `vortex_kernels::run_kernel_prepared` (and its record/replay twins).
///
/// # Errors
///
/// Any launch or verification failure.
pub fn policy_run(
    spans: &mut Spans,
    exact: &mut SimExact,
    kernel: &mut dyn Kernel,
    program: &Program,
    rt: &mut Runtime,
    policy: LwsPolicy,
    mut mode: RunMode<'_>,
) -> Result<(RunOutcome, Option<RecordedTrace>), KernelError> {
    let run = spans.enter("vxbench.policy_run");
    spans.time("core.reset", || (rt.reset(), 1));
    let swept = rt.device().last_reset_work();
    let replaying = matches!(mode, RunMode::Replay(_));
    if !replaying {
        let s = spans.enter("kernels.setup");
        kernel.setup(rt)?;
        spans.exit(s, 1);
    }
    let config = *rt.device().config();
    let mut recorder =
        matches!(mode, RunMode::Record).then(|| TraceRecorder::new(config.cores, config.warps));

    let mut reports = Vec::new();
    let mut cycles = 0;
    let mut dispatch = DispatchStats::default();
    for (i, phase) in kernel.phases().iter().enumerate() {
        let entry = program
            .symbol(&phase.symbol)
            .ok_or_else(|| KernelError::MissingSymbol { symbol: phase.symbol.clone() })?;
        let params = LaunchParams::new(phase.gws).policy(policy).entry(entry);
        let s = spans.enter("core.launch");
        let report = match (&mut mode, recorder.as_mut()) {
            (RunMode::Tap(sink), _) => rt.launch_with(&params, Some(&mut **sink))?,
            (RunMode::Replay(rec), _) => {
                let launch = rec.launches.get(i).ok_or_else(|| KernelError::TraceMismatch {
                    reason: format!("trace holds no launch record for phase {i}"),
                })?;
                let mut cursor = launch.cursor();
                rt.launch_replay::<NullSink>(&params, None, launch, &mut cursor)?
            }
            (_, Some(rec)) => rt.launch_with(&params, Some(rec))?,
            (_, None) => rt.launch_with::<NullSink>(&params, None)?,
        };
        spans.exit(s, report.instructions);
        cycles += report.cycles;
        dispatch.accumulate(&DispatchStats::of_launch(&report));
        reports.push(report);
    }
    if !replaying {
        let s = spans.enter("kernels.verify");
        kernel.verify(rt)?;
        spans.exit(s, 1);
    }

    let (port_accesses, port_stall_slots) = rt.device().port_totals();
    let outcome = RunOutcome {
        cycles,
        reports,
        mem: rt.device().mem_stats(),
        dram_utilization: rt.device().dram_utilization(),
        instructions: rt.device().counters().instructions,
        dispatch,
        port_accesses,
        port_stall_slots,
    };
    exact.absorb_run(rt, &outcome, (swept.cores + swept.l1_caches) as u64);
    spans.exit(run, outcome.instructions);
    Ok((outcome, recorder.map(TraceRecorder::finish)))
}

/// The per-phase lws each of the three policies resolves to on `config`.
pub fn policy_signatures(kernel: &dyn Kernel, config: &DeviceConfig) -> [Vec<u32>; 3] {
    let phases = kernel.phases();
    POLICIES.map(|policy| phases.iter().map(|p| policy.lws_for(p.gws, config)).collect())
}

/// Policy runs a campaign executes for one cell: policies resolving to
/// the same lws in every phase share one run.
pub fn distinct_policy_runs([naive, fixed, auto]: &[Vec<u32>; 3]) -> u64 {
    1 + u64::from(fixed != naive) + u64::from(auto != naive && auto != fixed)
}

/// Builds the campaign row of one cell from its (deduplicated) policy
/// runs, given the three policies' lws signatures
/// ([`policy_signatures`]). `run` performs one policy run.
///
/// # Errors
///
/// The first failing policy run.
pub fn cell_row(
    config: &DeviceConfig,
    [sig_naive, sig_fixed, sig_auto]: &[Vec<u32>; 3],
    mut run: impl FnMut(LwsPolicy) -> Result<RunOutcome, KernelError>,
) -> Result<ConfigRow, KernelError> {
    let naive = run(LwsPolicy::Naive1)?;
    let mut instructions = naive.instructions;
    let fixed = if sig_fixed == sig_naive {
        naive.clone()
    } else {
        let out = run(LwsPolicy::Fixed32)?;
        instructions += out.instructions;
        out
    };
    let auto = if sig_auto == sig_naive {
        naive.clone()
    } else if sig_auto == sig_fixed {
        fixed.clone()
    } else {
        let out = run(LwsPolicy::Auto)?;
        instructions += out.instructions;
        out
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

/// The row a single explicit-lws run is reported as (the shape
/// `vortex_bench::tune` stores probes in: all three cycle fields carry
/// the one measured value).
pub fn probe_row(config: &DeviceConfig, lws: u32, out: &RunOutcome) -> ConfigRow {
    ConfigRow {
        config: *config,
        cycles_naive: out.cycles,
        cycles_fixed: out.cycles,
        cycles_auto: out.cycles,
        lws_auto: lws,
        dram_utilization: out.dram_utilization,
        mem: out.mem,
        dispatch: out.dispatch,
        instructions: out.instructions,
        port_accesses: out.port_accesses,
        port_stall_slots: out.port_stall_slots,
    }
}

/// Exact statistics of a set of campaign rows: what the regime guards,
/// the simulated paper-shape ratios and the `sim_fingerprint` are
/// computed from.
#[derive(Clone, Debug, Default)]
pub struct RowStats {
    /// Rows absorbed.
    pub rows: u64,
    /// Σ issued instructions over executed policy runs.
    pub instructions: u64,
    /// Σ memory counters of the auto runs.
    pub mem: MemStats,
    /// Σ dispatch counters of the auto runs.
    pub dispatch: DispatchStats,
    /// Σ SIMT memory-port accesses of the auto runs.
    pub port_accesses: u64,
    /// Σ extra L1 port slots of the auto runs.
    pub port_stall_slots: u64,
    /// Σ DRAM utilisation of the auto runs (divide by `rows`).
    pub dram_util_sum: f64,
    /// Σ ln(cycles_naive / cycles_auto).
    pub ln_vs_lws1: f64,
    /// Σ ln(cycles_fixed / cycles_auto).
    pub ln_vs_lws32: f64,
    hash: Fnv64,
}

impl RowStats {
    /// Folds one row in. Only fields that survive ROADMAP item 2 are
    /// hashed (`fused_*` counters are not).
    pub fn absorb(&mut self, row: &ConfigRow) {
        self.rows += 1;
        self.instructions += row.instructions;
        self.mem.accumulate(&row.mem);
        self.dispatch.accumulate(&row.dispatch);
        self.port_accesses += row.port_accesses;
        self.port_stall_slots += row.port_stall_slots;
        self.dram_util_sum += row.dram_utilization;
        self.ln_vs_lws1 += row.ratio_naive().ln();
        self.ln_vs_lws32 += row.ratio_fixed().ln();
        let h = &mut self.hash;
        h.write_str(&row.config.topology_name());
        for v in [
            row.cycles_naive,
            row.cycles_fixed,
            row.cycles_auto,
            u64::from(row.lws_auto),
            row.dram_utilization.to_bits(),
            row.mem.loads,
            row.mem.stores,
            row.mem.l1.hits,
            row.mem.l1.misses,
            row.mem.l1.evictions,
            row.mem.l2.hits,
            row.mem.l2.misses,
            row.mem.l2.evictions,
            row.mem.dram_requests,
            row.dispatch.launches,
            row.dispatch.rounds,
            row.dispatch.round_tasks,
            row.dispatch.instructions,
            row.instructions,
            row.port_accesses,
            row.port_stall_slots,
        ] {
            h.write_u64(v);
        }
    }

    /// Folds every row of `rows` in.
    pub fn absorb_all<'a>(&mut self, rows: impl IntoIterator<Item = &'a ConfigRow>) {
        for row in rows {
            self.absorb(row);
        }
    }

    /// FNV-1a/64 over every absorbed row, in order.
    pub fn fingerprint(&self) -> u64 {
        self.hash.finish()
    }

    /// L1 hit ratio of the auto runs.
    pub fn l1_hit_ratio(&self) -> f64 {
        crate::measure::ratio(
            self.mem.l1.hits as f64,
            (self.mem.l1.hits + self.mem.l1.misses) as f64,
        )
    }

    /// L2 hit ratio of the auto runs.
    pub fn l2_hit_ratio(&self) -> f64 {
        crate::measure::ratio(
            self.mem.l2.hits as f64,
            (self.mem.l2.hits + self.mem.l2.misses) as f64,
        )
    }

    /// Mean DRAM utilisation of the auto runs.
    pub fn mean_dram_utilization(&self) -> f64 {
        crate::measure::ratio(self.dram_util_sum, self.rows as f64)
    }
}

/// Index of a campaign policy in [`POLICIES`] / [`policy_signatures`].
fn policy_index(policy: LwsPolicy) -> usize {
    POLICIES.iter().position(|&p| p == policy).expect("a campaign policy")
}

/// Decoded traces a campaign worker keeps between configurations
/// (`vortex_bench::campaign::TraceMemo`: capacity 4, oldest out).
const TRACE_MEMO_CAP: usize = 4;

/// What `run_campaign_cached_traced(factory, configs, 1, None, traces)`
/// does, through public calls with a span at each layer boundary: build
/// the kernel, then per configuration a fresh runtime and the
/// deduplicated policy runs — executed, or with a trace store recorded
/// on a key's first visit and replayed on every later one.
///
/// # Errors
///
/// The first failing build, launch or verification.
pub fn campaign(
    spans: &mut Spans,
    exact: &mut SimExact,
    label: &str,
    factory: &KernelFactory,
    configs: &[DeviceConfig],
    traces: Option<&TraceStore>,
) -> Result<Vec<ConfigRow>, KernelError> {
    let mut kernel = spans.time("kernels.make", || (factory.make_kernel(), 1));
    let id = spans.enter("asm.assemble");
    let program = kernel.build()?;
    spans.exit(id, program.len() as u64);
    let program_digest = digest_program(&program);
    let phases = kernel.phases();
    let mut memo: Vec<(u64, RecordedTrace)> = Vec::new();
    let mut rows = Vec::with_capacity(configs.len());
    for config in configs {
        let cell = format!("{label}/{}/{}", factory.name, config.topology_name());
        spans.set_req(cell.clone());
        let mut rt = spans.time("core.runtime_new", || (Runtime::new(*config), 1));
        spans.time("core.load_program", || (rt.load_program(&program), program.len() as u64));
        let sigs = policy_signatures(kernel.as_ref(), config);
        let row = cell_row(config, &sigs, |policy| {
            spans.set_req(format!("{cell}/{}", policy.label()));
            let Some(store) = traces else {
                return policy_run(
                    spans,
                    exact,
                    kernel.as_mut(),
                    &program,
                    &mut rt,
                    policy,
                    RunMode::Execute,
                )
                .map(|(out, _)| out);
            };
            let phase_lws: Vec<(u32, u32)> =
                phases.iter().zip(&sigs[policy_index(policy)]).map(|(p, &l)| (p.gws, l)).collect();
            let key = trace_key(factory.name, factory.scale, program_digest, config, &phase_lws);
            if !memo.iter().any(|(k, _)| *k == key) {
                if let Some(rec) = spans.time("bench.tracestore.load", || (store.load(key), 1)) {
                    memo.push((key, rec));
                }
            }
            if let Some((_, rec)) = memo.iter().find(|(k, _)| *k == key) {
                let mode = RunMode::Replay(rec);
                return policy_run(spans, exact, kernel.as_mut(), &program, &mut rt, policy, mode)
                    .map(|(out, _)| out);
            }
            let (out, rec) = policy_run(
                spans,
                exact,
                kernel.as_mut(),
                &program,
                &mut rt,
                policy,
                RunMode::Record,
            )?;
            let rec = rec.expect("record mode returns the trace");
            // Best-effort, as in the product: an unwritable store costs
            // later replays, not correctness.
            spans.time("bench.tracestore.save", || (store.save(key, &rec).is_ok(), 1));
            if memo.len() >= TRACE_MEMO_CAP {
                memo.remove(0);
            }
            memo.push((key, rec));
            Ok(out)
        })?;
        exact.absorb_plan_cache(&rt);
        rows.push(row);
    }
    Ok(rows)
}

/// What one `tune_lws(gws, config, budget, ..)` answer does on a fresh
/// runtime, through public calls: schedule the probes, run each as an
/// explicit-lws policy run, fit the cost model and pick the smallest
/// estimate over measured ∪ predicted (ties to the smaller lws). Returns
/// the chosen lws and one row per probe.
///
/// # Errors
///
/// The first failing probe.
pub fn tune_cell(
    spans: &mut Spans,
    exact: &mut SimExact,
    kernel: &mut dyn Kernel,
    program: &Program,
    config: &DeviceConfig,
    budget: usize,
) -> Result<(u32, Vec<ConfigRow>), KernelError> {
    let mut rt = spans.time("core.runtime_new", || (Runtime::new(*config), 1));
    spans.time("core.load_program", || (rt.load_program(program), program.len() as u64));
    let gws = kernel.phases().first().map_or(1, |p| p.gws);
    let schedule = spans.time("core.autotune.schedule", || {
        let s = probe_schedule_for(gws, config, budget);
        let n = s.len() as u64;
        (s, n)
    });
    let mut probes = Vec::with_capacity(schedule.len());
    let mut rows = Vec::with_capacity(schedule.len());
    for &lws in &schedule {
        let policy = LwsPolicy::Explicit(lws);
        let (out, _) =
            policy_run(spans, exact, kernel, program, &mut rt, policy, RunMode::Execute)?;
        probes.push(ProbedRow { lws, cycles: out.cycles, dispatch: out.dispatch });
        rows.push(probe_row(config, lws, &out));
    }
    let chosen = spans.time("core.autotune.fit", || {
        let model = CostModel::fit(gws, config, &probes);
        let candidates = lws_candidates(gws, config);
        let best = candidates
            .iter()
            .map(|&lws| {
                let measured = probes.iter().find(|p| p.lws == lws).map(|p| p.cycles as f64);
                (measured.unwrap_or_else(|| model.predict(lws)), lws)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .expect("candidate grid is never empty");
        (best.1, candidates.len() as u64)
    });
    exact.absorb_plan_cache(&rt);
    Ok((chosen, rows))
}

/// The rows of a store round trip and the two handles' counters.
pub struct StoreTrip {
    /// Rows read back, `[kernel][config]`.
    pub rows: Vec<Vec<ConfigRow>>,
    /// Counters of the reopened, reading handle.
    pub read: CacheCounters,
}

/// One store round trip through `CampaignCache`'s own calls, a span
/// around each: fresh directory → insert every row in `order` → flush →
/// reopen from disk → look every row up. `stored` is `[kernel][config]`.
///
/// # Errors
///
/// Directory, open and flush failures.
pub fn store_roundtrip(
    spans: &mut Spans,
    dir: &Path,
    kernels: &[(&KernelFactory, u64)],
    configs: &[DeviceConfig],
    stored: &[Vec<ConfigRow>],
    order: &[(usize, usize)],
) -> io::Result<StoreTrip> {
    let _ = std::fs::remove_dir_all(dir);
    let key_of = |spans: &mut Spans, k: usize, c: usize| {
        let (factory, digest) = kernels[k];
        spans.time("core.digest", || {
            (campaign_key_from_digest(factory.name, factory.scale, digest, &configs[c]), 1)
        })
    };
    let id = spans.enter("bench.cache.create");
    let cache = CampaignCache::open(dir)?;
    spans.exit(id, 0);
    for &(k, c) in order {
        let key = key_of(spans, k, c);
        spans.time("bench.cache.insert", || {
            (cache.insert(kernels[k].0.name, key, &stored[k][c]), 1)
        });
    }
    let id = spans.enter("bench.cache.flush");
    cache.flush()?;
    spans.exit(id, cache.counters().bytes_written);
    drop(cache);

    let id = spans.enter("bench.cache.open");
    let cache = CampaignCache::open(dir)?;
    spans.exit(id, cache.counters().bytes_read);
    let mut rows = Vec::with_capacity(kernels.len());
    for (k, (factory, _)) in kernels.iter().enumerate() {
        let mut out = Vec::with_capacity(configs.len());
        for (c, config) in configs.iter().enumerate() {
            let key = key_of(spans, k, c);
            let hit =
                spans.time("bench.cache.lookup", || (cache.lookup(factory.name, key, config), 1));
            // A miss shows as a row that differs from every stored one.
            out.push(hit.unwrap_or_else(|| ConfigRow { cycles_auto: 0, ..stored[k][c].clone() }));
        }
        rows.push(out);
    }
    let read = cache.counters();
    drop(cache);
    std::fs::remove_dir_all(dir)?;
    Ok(StoreTrip { rows, read })
}
