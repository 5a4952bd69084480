//! Every product symbol the benchmark touches, in one place.
//!
//! A product PR that renames or removes one of these breaks the
//! benchmark here and nowhere else. Deliberately absent — ROADMAP item 2
//! schedules them for deletion, so the benchmark must not depend on
//! them: `MemConfig::l1_line_memo`, `Device::set_block_fusion`, the
//! `fused_*` counters, and anything that lives only in
//! `crates/bench/src/bin/*` (the µarch-variant generator is
//! re-implemented in `sample.rs`).

pub use vortex_asm::{Assembler, Program};
pub use vortex_bench::cache::campaign_key_from_digest;
pub use vortex_bench::campaign::run_campaign_cached_traced;
pub use vortex_bench::sweep::{CORE_STEPS, THREAD_STEPS, WARP_STEPS};
pub use vortex_bench::{
    kernel_factories, run_campaign, run_campaign_cached, trace_key, CacheCounters, CampaignCache,
    ConfigRow, KernelFactory, Scale, TraceStore,
};
pub use vortex_core::abi;
pub use vortex_core::autotune::{
    lws_candidates, probe_schedule_for, tune_lws, CostModel, ProbedRow,
};
pub use vortex_core::{
    digest_program, DispatchStats, Fnv64, LaunchParams, LaunchPlan, LwsPolicy, Runtime,
};
pub use vortex_isa::{csrs, decode, encode, fregs, reg, ExecClass};
pub use vortex_kernels::{run_kernel_prepared, Kernel, KernelError, RunOutcome};
pub use vortex_mem::{coalesce_lines, MemSystem};
pub use vortex_rng::Rng;
pub use vortex_sim::{
    Device, DeviceConfig, DeviceCounters, IssueEvent, MemStats, NullSink, RecordedTrace,
    TraceRecorder, TraceSink, WarpEvent,
};
pub use vortex_trace::{decode_trace, encode_trace};
