//! Cycle-level simulator of a Vortex-like RISC-V SIMT GPGPU.
//!
//! The [`Device`] models the micro-architecture whose parameters the paper
//! tunes against:
//!
//! * `cores × warps × threads` of hardware parallelism ([`DeviceConfig`]),
//! * per-core in-order issue (one instruction per cycle) with round-robin
//!   warp scheduling and a per-warp register scoreboard,
//! * SIMT execution with an IPDOM divergence stack (`vx_split`/`vx_join`),
//!   thread-mask control (`vx_tmc`), warp spawning (`vx_wspawn`), intra-core
//!   barriers (`vx_bar`) and warp votes (`vx_vote`),
//! * a coalescing memory pipeline in front of the L1/L2/DRAM hierarchy of
//!   [`vortex_mem`], and
//! * functional-first semantics: architectural state is always exact; the
//!   timing model only decides *when* results become visible to the
//!   scheduler.
//!
//! The simulator is **event-driven**: every stall has a known release time
//! at issue, so idle cycles are skipped rather than simulated, which is what
//! makes the paper's 450-configuration sweep tractable on a laptop.
//!
//! Execution is fully deterministic: same program + same configuration ⇒
//! same cycle count, instruction by instruction.
//!
//! # Examples
//!
//! Run a two-instruction kernel on a 1-core, 2-warp, 4-thread device:
//!
//! ```
//! use vortex_asm::Assembler;
//! use vortex_isa::reg;
//! use vortex_sim::{Device, DeviceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new(0x8000_0000);
//! a.li(reg::T0, 7);
//! a.vx_tmc(reg::ZERO); // halt the warp
//! let program = a.assemble()?;
//!
//! let mut device = Device::new(DeviceConfig::with_topology(1, 2, 4));
//! device.load_program(&program);
//! device.start_warp(0, program.entry());
//! device.run(10_000, None)?;
//! assert_eq!(device.counters().instructions, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod config;
mod core;
mod counters;
mod decoded;
mod device;
mod error;
mod exec;
mod ipdom;
mod live;
mod regfile;
mod trace_api;
mod warp;

pub use config::{DeviceConfig, ParseTopologyError, TimingConfig};
pub use counters::{ClassCounts, DeviceCounters};
pub use device::{Device, ResetWork, SchedWork};
pub use error::SimError;
pub use ipdom::IpdomEntry;
pub use trace_api::{
    IssueEvent, LaunchRecord, NullSink, RecordedTrace, ReplayCursor, TraceRecorder, TraceSink,
    VecTraceSink, WarpEvent,
};
pub use vortex_mem::{CacheConfig, CacheStats, Cycle, MemConfig, MemStats};
pub use warp::WarpState;
