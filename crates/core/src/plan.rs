//! Precompiled launch plans: everything a kernel launch needs, derived
//! once and re-executed many times.
//!
//! A launch used to re-derive its whole host side on every call: resolve
//! the lws policy, plan the task mapping, write six dispatch-block words
//! per core field by field, then start warp 0 everywhere. A measurement
//! campaign repeats the *same* launch thousands of times (three policies
//! per configuration, many configurations resolving to the same `lws`),
//! so the launch path is the unit of scale — [`LaunchPlan`] precompiles
//! the validated parameters, the paper's mapping regime, the per-core
//! task ranges, the rendered dispatch-block words (via
//! [`abi::render_dispatch_block`], the single copy of the host-side ABI
//! layout) and the warp-0 start set. `Runtime` caches compiled plans
//! keyed by `(gws, resolved lws)`, so a repeated launch is a lookup plus
//! a bulk write per participating core.

use vortex_sim::DeviceConfig;

use crate::abi;
use crate::mapping::WorkMapping;
use crate::runtime::LaunchReport;
use crate::tuner::MappingScenario;

/// A fully precompiled kernel launch for one `(gws, lws)` on one device
/// configuration.
///
/// Everything here is derived from `(gws, lws, config)` alone — the entry
/// address and the cycle budget stay per-call — so a plan can be cached
/// for the lifetime of a [`Runtime`](crate::Runtime) (the device
/// configuration never changes underneath it) and survives
/// [`Runtime::reset`](crate::Runtime::reset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchPlan {
    gws: u32,
    lws: u32,
    n_tasks: u32,
    scenario: MappingScenario,
    rounds: u32,
    total_rounds: u64,
    /// Core ids that receive work (ascending) — the warp-0 start set.
    starts: Vec<usize>,
    /// Rendered dispatch-block words, [`abi::DISPATCH_HOST_WORDS`] per
    /// started core, in [`starts`](Self::starts) order.
    words: Vec<u32>,
}

impl LaunchPlan {
    /// Compiles the plan for `gws` iterations at the resolved `lws` on
    /// `config`.
    ///
    /// # Panics
    ///
    /// Panics if `gws` or `lws` is zero (the runtime validates both
    /// before compiling).
    pub fn compile(gws: u32, lws: u32, config: &DeviceConfig) -> Self {
        let mapping = WorkMapping::plan(gws, lws, config);
        let ranges = mapping.core_ranges();
        let mut starts = Vec::with_capacity(ranges.len());
        let mut words = Vec::with_capacity(ranges.len() * abi::DISPATCH_HOST_WORDS);
        for range in ranges {
            starts.push(range.core);
            words.extend_from_slice(&abi::render_dispatch_block(
                range.task_base,
                range.task_end,
                lws,
                gws,
                abi::ARGS_BASE,
            ));
        }
        LaunchPlan {
            gws,
            lws,
            n_tasks: mapping.n_tasks(),
            scenario: mapping.scenario(),
            rounds: mapping.rounds(),
            total_rounds: mapping.total_rounds(),
            starts,
            words,
        }
    }

    /// Global work size the plan was compiled for.
    pub fn gws(&self) -> u32 {
        self.gws
    }

    /// The resolved `local_work_size`.
    pub fn lws(&self) -> u32 {
        self.lws
    }

    /// Total tasks (`⌈gws/lws⌉`).
    pub fn n_tasks(&self) -> u32 {
        self.n_tasks
    }

    /// The paper's mapping regime.
    pub fn scenario(&self) -> MappingScenario {
        self.scenario
    }

    /// In-kernel dispatch rounds of the busiest core.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Dispatch rounds summed over every participating core.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Core ids that receive work — the warp-0 start set.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Cores that participate in the launch.
    pub fn active_cores(&self) -> usize {
        self.starts.len()
    }

    /// The `i`-th participating core's dispatch-block address and its
    /// rendered words, ready for one bulk write.
    pub fn core_block(&self, i: usize) -> (u32, &[u32]) {
        let at = i * abi::DISPATCH_HOST_WORDS;
        (abi::dispatch_block_addr(self.starts[i]), &self.words[at..at + abi::DISPATCH_HOST_WORDS])
    }

    /// Assembles the launch report for one execution of this plan.
    pub(crate) fn report(&self, cycles: vortex_mem::Cycle, instructions: u64) -> LaunchReport {
        LaunchReport {
            lws: self.lws,
            n_tasks: self.n_tasks,
            scenario: self.scenario,
            rounds: self.rounds,
            total_rounds: self.total_rounds,
            active_cores: self.active_cores(),
            cycles,
            instructions,
        }
    }
}

/// Raw dispatch-round and occupancy counters, accumulated over launches.
///
/// All fields are plain sums, so shard merges reconstruct full-grid
/// values exactly (the same backward-compatible scheme as the memory
/// counters: derived rates are computed at display time only).
///
/// These are the counters the paper argues should drive the mapping
/// choice, and since PR 8 they literally do: the online autotuner
/// ([`autotune`](crate::autotune)) fits its cost model from the probes'
/// `instructions` against analytic warp-group counts. The full glossary
/// — what each counter means micro-architecturally and how the cost
/// model consumes it — is in `docs/TUNING.md`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Kernel launches executed (one per phase per run). Single-phase
    /// kernels contribute 1 per run; `gcn_layer` contributes 2.
    pub launches: u64,
    /// In-kernel dispatch rounds, summed over launches and cores (each
    /// core's warp 0 runs its own spawn → work → barrier round loop).
    /// `rounds / launches` ≫ 1 marks the paper's multi-call regime; the
    /// cost model's per-round overhead term β prices exactly these.
    pub rounds: u64,
    /// Tasks dispatched, summed over launches. Every task occupies one
    /// hardware lane slot in exactly one round, so `round_tasks / rounds`
    /// is the mean number of busy lane slots per dispatch round — the
    /// occupancy marker (low values flag under-filled launches).
    pub round_tasks: u64,
    /// Instructions issued, summed over launches and cores. Divided by
    /// the analytic total warp-group count of the mapping
    /// ([`WorkMapping::total_warp_groups`](crate::WorkMapping::total_warp_groups)),
    /// this yields instructions per warp group — the affine-in-lws
    /// quantity the autotuner's stage-1 sub-model regresses.
    pub instructions: u64,
}

impl DispatchStats {
    /// The counters of one launch.
    pub fn of_launch(report: &LaunchReport) -> Self {
        DispatchStats {
            launches: 1,
            rounds: report.total_rounds,
            round_tasks: u64::from(report.n_tasks),
            instructions: report.instructions,
        }
    }

    /// Adds `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &DispatchStats) {
        self.launches += other.launches;
        self.rounds += other.rounds;
        self.round_tasks += other.round_tasks;
        self.instructions += other.instructions;
    }

    /// Mean dispatch rounds per launch (0.0 before any launch).
    pub fn rounds_per_launch(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.rounds as f64 / self.launches as f64
        }
    }

    /// Mean busy lane slots per dispatch round (0.0 before any round).
    pub fn mean_lanes_per_round(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.round_tasks as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_renders_one_block_per_active_core() {
        let config = DeviceConfig::with_topology(2, 2, 2);
        let plan = LaunchPlan::compile(64, 4, &config); // 16 tasks over 2 cores
        assert_eq!(plan.active_cores(), 2);
        assert_eq!(plan.starts(), &[0, 1]);
        let (addr0, words0) = plan.core_block(0);
        assert_eq!(addr0, abi::dispatch_block_addr(0));
        assert_eq!(words0, &abi::render_dispatch_block(0, 8, 4, 64, abi::ARGS_BASE));
        let (addr1, words1) = plan.core_block(1);
        assert_eq!(addr1, abi::dispatch_block_addr(1));
        assert_eq!(words1[(abi::dispatch::TASK_BASE / 4) as usize], 8);
        assert_eq!(words1[(abi::dispatch::TASK_END / 4) as usize], 16);
    }

    #[test]
    fn plan_mirrors_the_work_mapping() {
        let config = DeviceConfig::with_topology(2, 2, 4); // 8 slots/core
        let plan = LaunchPlan::compile(128, 4, &config); // 32 tasks, 16/core
        let mapping = WorkMapping::plan(128, 4, &config);
        assert_eq!(plan.n_tasks(), mapping.n_tasks());
        assert_eq!(plan.rounds(), mapping.rounds());
        assert_eq!(plan.total_rounds(), mapping.total_rounds());
        assert_eq!(plan.scenario(), mapping.scenario());
        assert_eq!(plan.active_cores(), mapping.active_cores());
    }

    #[test]
    fn dispatch_stats_accumulate_and_derive() {
        let mut total = DispatchStats::default();
        assert_eq!(total.rounds_per_launch(), 0.0);
        assert_eq!(total.mean_lanes_per_round(), 0.0);
        total.accumulate(&DispatchStats {
            launches: 2,
            rounds: 8,
            round_tasks: 64,
            instructions: 300,
        });
        total.accumulate(&DispatchStats {
            launches: 2,
            rounds: 2,
            round_tasks: 16,
            instructions: 100,
        });
        assert_eq!(total.launches, 4);
        assert_eq!(total.rounds, 10);
        assert_eq!(total.round_tasks, 80);
        assert_eq!(total.instructions, 400);
        assert!((total.rounds_per_launch() - 2.5).abs() < 1e-12);
        assert!((total.mean_lanes_per_round() - 8.0).abs() < 1e-12);
    }
}
