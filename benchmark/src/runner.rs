//! One workload, one process: set-up, timed repetitions, correctness and
//! regime checks, and the two result forms — end-to-end metrics from the
//! untraced pass, per-layer metrics from the separate traced pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::drive::{RowStats, SimExact};
use crate::layers::{self, Layers};
use crate::measure::{geomean, peak_rss_mib, quantile, ratio, Reported, Summary};
use crate::metrics::{Kind as Clock, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::surface::{lws_candidates, run_kernel_prepared, ExecClass, Fnv64, LwsPolicy, Runtime};
use crate::workloads::{self, Kind, Rep, Setup};

/// Repetitions a run measures at least, however long they take.
const MIN_REPS: usize = 5;
/// Set-ups a run times at least; cheap set-ups are repeated up to
/// `MAX_SETUPS` times or `SETUP_BUDGET_S`, whichever ends first, so the
/// reported median is steady.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 0.5;
/// Repetitions of each pass of a traced run.
const TRACED_REPS: usize = 2;

/// What the driver (or `vxbench all`) asks of one run.
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Where the traced pass writes its span file.
    pub spans_path: PathBuf,
    /// Directory (inside the checkout) for stores the workload writes.
    pub scratch: PathBuf,
}

/// The outcome of one run.
pub struct RunResult {
    /// Outputs correct, regime as intended, exact statistics repeatable.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics of the pass, in catalogue order.
    pub metrics: Vec<Reported>,
    /// FNV-1a/64 over every exact statistic the workload produced; equal
    /// across repetitions, seeds apart, and across commits unless a change
    /// means to move simulated behaviour.
    pub sim_fingerprint: u64,
    /// Why `correct` is false (empty otherwise).
    pub problems: Vec<String>,
}

/// Exact statistics of one repetition's rows, and their fingerprint.
fn exact_of(rep: &Rep) -> (RowStats, u64) {
    let mut stats = RowStats::default();
    for rows in &rep.rows {
        stats.absorb_all(rows);
    }
    let mut h = Fnv64::new();
    h.write_u64(stats.fingerprint());
    for &lws in &rep.chosen {
        h.write_u32(lws);
    }
    h.write_u64(rep.trace_records);
    h.write_u64(rep.trace_replays);
    (stats, h.finish())
}

/// Checks the workload ran in the regime it exists for; a `--seed` that
/// takes it outside is a failed run, not a quiet different benchmark.
fn regime_problems(kind: Kind, rep: &Rep, stats: &RowStats) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("{}: regime guard: {what}", kind.name()));
        }
    };
    match kind {
        Kind::PaperCompute => {
            let hit = stats.l1_hit_ratio();
            require(hit >= 0.90, format!("L1 hit ratio {hit:.4} < 0.90"));
        }
        Kind::PaperMemory => {
            let util = stats.mean_dram_utilization();
            require(util >= 0.30, format!("mean DRAM utilisation {util:.4} < 0.30"));
        }
        Kind::Bigtopo256c => {
            let rounds = stats.dispatch.rounds_per_launch();
            require(rounds >= 100.0, format!("{rounds:.1} dispatch rounds per launch < 100"));
        }
        Kind::StoreRoundtrip => {
            require(
                rep.read_misses == 0 && rep.read_hits == rep.attempted,
                format!(
                    "{} hits, {} misses over {} lookups",
                    rep.read_hits, rep.read_misses, rep.attempted
                ),
            );
            require(
                rep.read_insertions == 0,
                format!("{} configurations simulated while reading", rep.read_insertions),
            );
        }
        Kind::ReplayUarch => {
            let want = workloads::UARCH_VARIANTS as u64 * rep.trace_records;
            require(
                rep.trace_records > 0 && rep.trace_replays == want,
                format!("{} replays for {} records", rep.trace_replays, rep.trace_records),
            );
        }
        Kind::SweepCold | Kind::TuneK6 => {}
    }
    problems
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// What the seed made of the workload, for the log.
fn describe(s: &Setup) -> String {
    let kernels: Vec<&str> = s.factories.iter().map(|f| f.name).collect();
    let mut topologies: Vec<String> = s.configs.iter().map(|c| c.topology_name()).collect();
    topologies.dedup();
    format!("  kernels    {}\n  topologies {}", kernels.join(" "), topologies.join(" "))
}

/// Times repeated set-ups; returns the last one and every sample.
fn timed_setups(args: &RunArgs, repeat: bool) -> Result<(Setup, Vec<f64>), String> {
    let mut samples = Vec::new();
    let began = Instant::now();
    loop {
        let t = Instant::now();
        let setup =
            workloads::setup(args.kind, args.seed, &args.scratch).map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64());
        let enough = samples.len() >= MIN_SETUPS
            && (samples.len() >= MAX_SETUPS || began.elapsed().as_secs_f64() >= SETUP_BUDGET_S);
        if !repeat || enough {
            return Ok((setup, samples));
        }
    }
}

/// Runs one workload as the driver contract describes.
///
/// # Errors
///
/// A product or I/O error that left nothing to report.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    let result = if args.trace { traced_pass(args) } else { end_to_end_pass(args) };
    let _ = std::fs::remove_dir_all(&args.scratch);
    result
}

fn end_to_end_pass(args: &RunArgs) -> Result<RunResult, String> {
    let (mut setup, setup_samples) = timed_setups(args, true)?;
    let mut reps: Vec<Rep> = Vec::new();
    let began = Instant::now();
    while reps.len() < MIN_REPS || began.elapsed().as_secs_f64() < args.seconds {
        reps.push(workloads::rep(&mut setup)?);
    }
    let peak_rss = peak_rss_mib();

    let (stats, fingerprint) = exact_of(&reps[0]);
    let mut problems = regime_problems(args.kind, &reps[0], &stats);
    if let Some(i) = reps.iter().position(|r| exact_of(r).1 != fingerprint) {
        problems.push(format!("repetition {i} produced other exact statistics than repetition 0"));
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    failed += workloads::reference_failures(&setup, &reps[0].rows)?;

    let instr = stats.instructions as f64;
    let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Summary {
        Summary::of(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let answers_ms = |r: &Rep, p: f64| {
        quantile(&r.answers_ns.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>(), p)
    };
    let values = [
        Summary::of(&setup_samples),
        per_rep(&|r| seconds(r.wall_ns)),
        per_rep(&|r| ratio(r.wall_ns as f64, instr * r.deliveries as f64)),
        per_rep(&|r| ratio(r.configs as f64, seconds(r.configs_ns))),
        per_rep(&|r| answers_ms(r, 0.5)),
        per_rep(&|r| answers_ms(r, 0.9)),
        Summary::exact(peak_rss),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(def, summary)| Reported { name: def.name, unit: def.unit, kind: def.kind, summary })
        .collect();

    println!(
        "{}: seed {} | {} reps, {} answers/rep, {} configs/rep | {} simulated instr/rep | sim_fingerprint {fingerprint:#018x}",
        args.kind.name(),
        args.seed,
        reps.len(),
        reps[0].answers_ns.len(),
        reps[0].configs,
        stats.instructions * reps[0].deliveries,
    );
    println!("{}", describe(&setup));
    if reps[0].answers_ns.len() == setup.factories.len() {
        let per_kernel: Vec<String> = setup
            .factories
            .iter()
            .enumerate()
            .map(|(k, f)| {
                format!("{} {:.1}", f.name, per_rep(&|r| r.answers_ns[k] as f64 / 1e6).median)
            })
            .collect();
        println!("  answers ms {}", per_kernel.join(" "));
    }
    Ok(RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        sim_fingerprint: fingerprint,
        problems,
    })
}

/// `tune_k6`'s mean regret against the full-grid oracle, in percent of
/// the oracle's cycles: every candidate lws the probes did not already
/// measure is simulated here, untimed.
fn tune_regret_pct(s: &mut Setup, rep: &Rep) -> Result<f64, String> {
    let mut regret = 0.0;
    let per_kernel = s.configs.len();
    for (k, (kernel, program)) in s.kernels.iter_mut().zip(&s.programs).enumerate() {
        let gws = kernel.phases().first().map_or(1, |p| p.gws);
        for (c, config) in s.configs.iter().enumerate() {
            let mut rt = Runtime::new(*config);
            rt.load_program(program);
            let mut cycles_of = |lws: u32| -> Result<u64, String> {
                let probed = rep.rows[k].iter().find(|r| r.config == *config && r.lws_auto == lws);
                if let Some(row) = probed {
                    return Ok(row.cycles_auto);
                }
                run_kernel_prepared(kernel.as_mut(), program, &mut rt, LwsPolicy::Explicit(lws))
                    .map(|out| out.cycles)
                    .map_err(|e| e.to_string())
            };
            let mut best = u64::MAX;
            for lws in lws_candidates(gws, config) {
                best = best.min(cycles_of(lws)?);
            }
            let chosen = cycles_of(rep.chosen[k * per_kernel + c])?;
            regret += (chosen as f64 - best as f64) / best as f64 * 100.0;
        }
    }
    Ok(ratio(regret, rep.chosen.len() as f64))
}

fn traced_pass(args: &RunArgs) -> Result<RunResult, String> {
    let (mut setup, _) = timed_setups(args, false)?;
    let reps_f = TRACED_REPS as f64;

    // Interleaved, so neither pass has the warmer process to itself.
    let mut untraced = Vec::new();
    let mut spans = Spans::new();
    let mut exact = SimExact::default();
    let mut traced = Vec::new();
    for i in 0..TRACED_REPS {
        untraced.push(workloads::rep(&mut setup)?);
        traced.push(workloads::traced_rep(&mut setup, &mut spans, &mut exact, i)?);
    }

    let (stats, fingerprint) = exact_of(&untraced[0]);
    let mut problems = regime_problems(args.kind, &untraced[0], &stats);
    // The decomposed cell must be the cell the product returns: cycles and
    // every counter. (The trace-store counters are the product's own and
    // have no decomposed twin.)
    for (i, t) in traced.iter().enumerate() {
        if t.rows != untraced[0].rows || t.chosen != untraced[0].chosen {
            problems
                .push(format!("traced repetition {i}: decomposed rows differ from the product's"));
        }
    }
    let attempted: u64 = traced.iter().map(|r| r.attempted).sum();
    let failed: u64 = traced.iter().map(|r| r.failed).sum();

    let mut out = Layers::default();
    layers::asm_and_isa(&setup, &mut out);
    layers::plan_and_digest(&setup, &mut out);
    layers::class_costs(&mut out);
    layers::trace_lab(&mut setup, &args.scratch.join("lab"), &mut out)
        .map_err(|e| format!("trace lab: {e}"))?;
    if args.kind == Kind::TuneK6 {
        out.set("core.autotune.regret_pct", tune_regret_pct(&mut setup, &untraced[0])?);
    }

    // Per delivery of the rows: `store_roundtrip` makes fewer round trips
    // per traced repetition than per untraced one.
    let per_delivery = |reps: &[Rep]| {
        quantile(
            &reps.iter().map(|r| r.wall_ns as f64 / r.deliveries as f64).collect::<Vec<_>>(),
            0.5,
        )
    };
    let (untraced_wall, traced_wall) = (per_delivery(&untraced), per_delivery(&traced));
    let traced_deliveries = traced.iter().map(|r| r.deliveries).sum::<u64>() as f64;
    let totals = spans.totals();
    let span =
        |name: &str| totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default();
    let self_ns: u64 = totals.iter().map(|(_, t)| t.self_ns).sum();
    let product_ns: u64 =
        totals.iter().filter(|(n, _)| !n.starts_with("vxbench.")).map(|(_, t)| t.self_ns).sum();
    let traced_total: u64 = traced.iter().map(|r| r.wall_ns).sum();
    let coverage = ratio(self_ns as f64, traced_total as f64);
    if (coverage - 1.0).abs() > 0.02 {
        problems.push(format!("span self times cover {coverage:.4} of the traced wall-clock"));
    }
    out.set("vxbench.span_coverage", coverage);
    out.set("vxbench.trace_overhead_pct", (ratio(traced_wall, untraced_wall) - 1.0) * 100.0);

    let launch = span("core.launch");
    let policy_runs = span("vxbench.policy_run");
    out.set("core.runtime_new_us", span("core.runtime_new").us_per_call());
    out.set("core.runtime_new_calls", span("core.runtime_new").calls as f64 / reps_f);
    out.set("core.load_program_us", span("core.load_program").us_per_call());
    out.set("core.reset_us", span("core.reset").us_per_call());
    out.set("core.reset_calls", span("core.reset").calls as f64 / reps_f);
    out.set("core.launch_s", seconds(launch.total_ns) / reps_f);
    out.set("sim.launch_ns_per_instr", launch.ns_per_count());
    out.set("kernels.setup_us", span("kernels.setup").us_per_call());
    out.set("kernels.verify_us", span("kernels.verify").us_per_call());
    out.set(
        "kernels.harness_share",
        ratio(
            (span("kernels.setup").total_ns + span("kernels.verify").total_ns) as f64,
            policy_runs.total_ns as f64,
        ),
    );
    out.set("core.autotune.schedule_us", span("core.autotune.schedule").us_per_call());
    out.set("core.autotune.fit_us", span("core.autotune.fit").us_per_call());
    out.set(
        "core.autotune.probe_share",
        ratio(policy_runs.total_ns as f64, span("vxbench.tune_cell").total_ns as f64),
    );
    let reopen = span("bench.cache.open");
    let flush = span("bench.cache.flush");
    out.set("bench.cache.open_ms", reopen.us_per_call() / 1e3);
    out.set("bench.cache.lookup_ns", span("bench.cache.lookup").us_per_call() * 1e3);
    out.set("bench.cache.insert_ns", span("bench.cache.insert").us_per_call() * 1e3);
    out.set("bench.cache.flush_ms", flush.us_per_call() / 1e3);
    out.set("bench.cache.bytes_read", ratio(reopen.count as f64, reopen.calls as f64));
    out.set("bench.cache.bytes_written", ratio(flush.count as f64, flush.calls as f64));
    let (hits, misses): (u64, u64) =
        traced.iter().fold((0, 0), |a, r| (a.0 + r.read_hits, a.1 + r.read_misses));
    out.set("bench.cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    // What the product's campaign call costs beyond the calls it is made
    // of: thread scope, locks, its own kernel construction.
    out.set(
        "bench.campaign.overhead_share",
        ratio(untraced_wall - product_ns as f64 / traced_deliveries, untraced_wall),
    );

    let c = &exact.counters;
    out.set("sim.issued_instructions", c.instructions as f64 / reps_f);
    out.set("sim.cycles", exact.cycles as f64 / reps_f);
    out.set("sim.ipc", ratio(c.instructions as f64, exact.cycles as f64));
    out.set("sim.lane_utilization", ratio(c.lane_instructions as f64, exact.lane_slots as f64));
    out.set("sim.mem_instr_share", exact.class_share(&[ExecClass::Load, ExecClass::Store]));
    out.set(
        "sim.fpu_instr_share",
        exact.class_share(&[ExecClass::Fpu, ExecClass::FDiv, ExecClass::FSqrt]),
    );
    out.set("sim.simt_instr_share", exact.class_share(&[ExecClass::Simt]));
    out.set("sim.reset_work", exact.reset_work as f64 / reps_f);
    out.set(
        "core.plan_cache_hit_ratio",
        ratio(exact.plan_hits as f64, (exact.plan_hits + exact.plan_misses) as f64),
    );
    let campaign = !matches!(args.kind, Kind::TuneK6 | Kind::StoreRoundtrip);
    if campaign {
        let cells = (setup.factories.len() * setup.configs.len()) as f64;
        out.set("bench.campaign.dedup_ratio", exact.policy_runs as f64 / reps_f / (3.0 * cells));
    }
    if args.kind != Kind::TuneK6 {
        out.set("sim.speedup_vs_lws1", geomean(stats.ln_vs_lws1, stats.rows));
        out.set("sim.speedup_vs_lws32", geomean(stats.ln_vs_lws32, stats.rows));
    }
    out.set("core.rounds_per_launch", stats.dispatch.rounds_per_launch());
    out.set("core.lanes_per_round", stats.dispatch.mean_lanes_per_round());
    out.set("mem.l1_hit_ratio", stats.l1_hit_ratio());
    out.set("mem.l2_hit_ratio", stats.l2_hit_ratio());
    out.set("mem.dram_requests", stats.mem.dram_requests as f64);
    out.set("mem.dram_utilization", stats.mean_dram_utilization());
    out.set(
        "mem.port_stall_per_access",
        ratio(stats.port_stall_slots as f64, stats.port_accesses as f64),
    );

    write_spans(&args.spans_path, &spans.to_json(args.kind.name(), args.seed))?;
    println!(
        "{}: seed {} | traced pass, {TRACED_REPS} reps | {} spans -> {} | sim_fingerprint {fingerprint:#018x}",
        args.kind.name(),
        args.seed,
        totals.iter().map(|(_, t)| t.calls).sum::<u64>(),
        args.spans_path.display(),
    );
    println!("{}", describe(&setup));
    for (name, t) in &totals {
        println!(
            "  span {name:<26} calls {:>8}  total {:>10.3} ms  self {:>10.3} ms",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let metrics = PER_LAYER
        .iter()
        .map(|def| Reported {
            name: def.name,
            unit: def.unit,
            kind: def.kind,
            summary: Summary::exact(out.get(def.name)),
        })
        .collect();
    Ok(RunResult {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        sim_fingerprint: fingerprint,
        problems,
    })
}

fn write_spans(path: &Path, json: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints `result` for people: one line per metric, name and unit first.
pub fn print_table(result: &RunResult) {
    for m in &result.metrics {
        let s = &m.summary;
        if m.kind == Clock::Host && s.n > 1 {
            println!(
                "  {:<34} {:>16.6} {:<6} [{}] q1 {:.6} q3 {:.6} n {}",
                m.name,
                s.median,
                m.unit,
                m.kind.label(),
                s.q1,
                s.q3,
                s.n
            );
        } else {
            println!("  {:<34} {:>16.6} {:<6} [{}]", m.name, s.median, m.unit, m.kind.label());
        }
    }
    for p in &result.problems {
        println!("  PROBLEM {p}");
    }
}
