//! Experiment harness: regenerates every table and figure of the paper.
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Fig. 1 (vecadd traces under 4 lws values) | `fig1_traces` |
//! | Fig. 2 (violin plots over 450 configurations, 9 kernels) | `fig2_violins` |
//! | §3 headline (1.3× / 3.7× for the math kernels) | `headline` |
//! | §2 scenario analysis (three mapping regimes) | `scenarios_table` |
//! | Ablations (tuner variants, dispatch-overhead sensitivity) | `ablations` |
//! | Resumable sweep: kernels × grid × policies, JSON report | `campaign` |
//!
//! The library half of this crate (the [`sweep`] generator and the
//! [`campaign`] runner) is shared by the binaries, the Criterion benches
//! and the integration tests. `campaign` is the one sweep command: its
//! [`driver`] runs the grid as a resumable queue over the result store
//! ([`cache`]), `--workers N` shards it across processes whose stores
//! merge exactly, and the report it writes is the [`probe`] dialect.

#![forbid(unsafe_code)]

pub mod cache;
pub mod campaign;
pub mod cli;
pub mod driver;
pub mod jsonl;
pub mod persist;
pub mod probe;
pub mod sweep;
pub mod tracestore;
pub mod tune;

pub use cache::{cache_enabled_by_env, campaign_key, CacheCounters, CampaignCache};
pub use campaign::{
    kernel_factories, run_campaign, run_campaign_cached, CampaignResult, ConfigRow, KernelFactory,
    Scale,
};
pub use persist::{atomic_write, strip_run_metadata};
pub use probe::{render_json, KernelRow, ProbeFile};
pub use sweep::{paper_sweep, subsample, uarch_variant};
pub use tracestore::{trace_key, TraceStore};
pub use tune::{
    evaluate_tune, merge_tune_files, parse_tune_json, render_tune_json, run_tune_evaluation,
    tune_key, TuneFile, TuneRow,
};

/// Parses a `"K/M"` shard designator (1-based `K`).
pub fn parse_shard(s: &str) -> Option<(usize, usize)> {
    let (k, m) = s.split_once('/')?;
    let (k, m) = (k.trim().parse().ok()?, m.trim().parse().ok()?);
    if k >= 1 && k <= m {
        Some((k, m))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::parse_shard;

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(parse_shard("1/2"), Some((1, 2)));
        assert_eq!(parse_shard("3/3"), Some((3, 3)));
        assert_eq!(parse_shard("0/2"), None);
        assert_eq!(parse_shard("4/3"), None);
        assert_eq!(parse_shard("nope"), None);
    }
}
