//! The host-side runtime: buffers, argument blocks, kernel launches.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use vortex_asm::Program;
use vortex_mem::Cycle;
use vortex_sim::{Device, DeviceConfig, LaunchRecord, NullSink, ReplayCursor, SimError, TraceSink};

use crate::abi;
use crate::digest;
use crate::plan::LaunchPlan;
use crate::tuner::{LwsPolicy, MappingScenario};

/// A device-memory allocation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Buffer {
    /// Device address of the first byte.
    pub addr: u32,
    /// Size in bytes.
    pub bytes: u32,
}

impl Buffer {
    /// Number of 32-bit elements that fit in the buffer.
    pub fn len_words(&self) -> usize {
        (self.bytes / 4) as usize
    }
}

/// Parameters of one kernel launch.
#[derive(Copy, Clone, Debug)]
pub struct LaunchParams {
    /// Global work size (total kernel iterations). Must be positive.
    pub gws: u32,
    /// The `local_work_size` policy (the paper's tunable).
    pub policy: LwsPolicy,
    /// Simulation budget for this launch.
    pub max_cycles: Cycle,
    /// Entry address override for multi-phase programs (`None` = the
    /// loaded program's entry).
    pub entry: Option<u32>,
}

impl LaunchParams {
    /// A launch of `gws` items with the hardware-aware [`LwsPolicy::Auto`].
    pub fn new(gws: u32) -> Self {
        LaunchParams { gws, policy: LwsPolicy::Auto, max_cycles: 2_000_000_000, entry: None }
    }

    /// Starts execution at an explicit entry address (for programs holding
    /// several kernels).
    pub fn entry(mut self, addr: u32) -> Self {
        self.entry = Some(addr);
        self
    }

    /// Sets the lws policy.
    pub fn policy(mut self, policy: LwsPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the cycle budget.
    pub fn max_cycles(mut self, budget: Cycle) -> Self {
        self.max_cycles = budget;
        self
    }
}

/// What a launch did and what it cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchReport {
    /// The `lws` value the policy resolved to.
    pub lws: u32,
    /// Tasks created (`⌈gws/lws⌉`).
    pub n_tasks: u32,
    /// The paper's mapping regime for this launch.
    pub scenario: MappingScenario,
    /// In-kernel dispatch rounds of the busiest core.
    pub rounds: u32,
    /// Dispatch rounds summed over every participating core (the raw
    /// counter behind the probe's occupancy statistics).
    pub total_rounds: u64,
    /// Cores that received work.
    pub active_cores: usize,
    /// Elapsed device cycles, including dispatch overhead and drain.
    pub cycles: Cycle,
    /// Instructions issued during the launch.
    pub instructions: u64,
}

/// An error raised by [`Runtime::launch`].
#[derive(Debug)]
pub enum LaunchError {
    /// The launch parameters are unusable.
    InvalidParams {
        /// Explanation.
        reason: String,
    },
    /// No program is loaded.
    NoProgram,
    /// The device reported an execution error.
    Sim(SimError),
    /// The device heap is exhausted.
    OutOfMemory {
        /// Bytes requested.
        requested: u32,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidParams { reason } => write!(f, "invalid launch: {reason}"),
            LaunchError::NoProgram => f.write_str("no kernel program loaded"),
            LaunchError::Sim(e) => write!(f, "device error: {e}"),
            LaunchError::OutOfMemory { requested } => {
                write!(f, "device heap exhausted allocating {requested} bytes")
            }
        }
    }
}

impl Error for LaunchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LaunchError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for LaunchError {
    fn from(e: SimError) -> Self {
        LaunchError::Sim(e)
    }
}

/// The OpenCL-style host runtime.
///
/// Owns a [`Device`], a bump allocator over the device heap, and a cache
/// of precompiled [`LaunchPlan`]s: a launch resolves its lws policy, looks
/// the plan up by `(gws, lws)` (compiling it on first use), writes the
/// plan's pre-rendered dispatch blocks and starts warp 0 of each
/// participating core (the in-kernel dispatch loop does the rest — see
/// `vortex-kernels`). Plans depend only on `(gws, lws)` and the fixed
/// device configuration, so the cache survives [`reset`](Runtime::reset)
/// and policy sweeps re-execute plans instead of re-deriving them.
///
/// # Examples
///
/// See the crate-level example of `vortex-kernels`, which builds a real
/// kernel; at the runtime level a launch looks like:
///
/// ```no_run
/// use vortex_core::{LaunchParams, LwsPolicy, Runtime};
/// use vortex_sim::DeviceConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rt = Runtime::new(DeviceConfig::with_topology(2, 4, 8));
/// # let program = vortex_asm::Assembler::new(0x8000_0000).assemble()?;
/// rt.load_program(&program);
/// let report = rt.launch(&LaunchParams::new(4096).policy(LwsPolicy::Auto), None)?;
/// println!("{} cycles with lws={}", report.cycles, report.lws);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Runtime {
    device: Device,
    heap_next: u32,
    entry: Option<u32>,
    dispatch_overhead: Cycle,
    /// Precompiled launch plans keyed by `(gws, resolved lws)` — policies
    /// resolving to the same `lws` share one plan. Ordered, not hashed:
    /// a `HashMap` drops its plans in per-process random order, which
    /// made the allocator keep or trim ~10 MiB of a campaign's freed
    /// device memory by chance (peak RSS bimodal run to run).
    plans: BTreeMap<(u32, u32), LaunchPlan>,
    plan_hits: u64,
    plan_misses: u64,
    /// Canonical digest of the device configuration (computed once at
    /// construction — the configuration is immutable afterwards).
    config_digest: u64,
    /// Canonical digest of the loaded program image, if any.
    program_digest: Option<u64>,
}

impl Runtime {
    /// Creates a runtime around a fresh device with the default host
    /// dispatch overhead (256 cycles per launch).
    pub fn new(config: DeviceConfig) -> Self {
        Runtime {
            device: Device::new(config),
            heap_next: abi::HEAP_BASE,
            entry: None,
            dispatch_overhead: 256,
            plans: BTreeMap::new(),
            plan_hits: 0,
            plan_misses: 0,
            config_digest: digest::digest_device_config(&config),
            program_digest: None,
        }
    }

    /// Overrides the host-side per-launch dispatch overhead.
    pub fn with_dispatch_overhead(mut self, cycles: Cycle) -> Self {
        self.dispatch_overhead = cycles;
        self
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut Device {
        &mut self.device
    }

    /// Loads the kernel image and records its entry point (and canonical
    /// content digest — see [`Runtime::program_digest`]).
    pub fn load_program(&mut self, program: &Program) {
        self.device.load_program(program);
        self.entry = Some(program.entry());
        self.program_digest = Some(digest::digest_program(program));
    }

    /// Canonical [`digest`](crate::digest) of the loaded program image
    /// (`None` before [`load_program`](Runtime::load_program)). Together
    /// with [`config_digest`](Runtime::config_digest) this identifies the
    /// pure-function inputs of a run — the campaign result cache keys on
    /// them.
    pub fn program_digest(&self) -> Option<u64> {
        self.program_digest
    }

    /// Canonical digest of the device configuration (stable across runs
    /// and builds; survives [`reset`](Runtime::reset) by construction).
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Returns the runtime to its post-[`load_program`](Runtime::load_program)
    /// state: device memory, caches, counters and the clock are cleared,
    /// the heap allocator rewinds, and the loaded program stays resident.
    /// The launch-plan cache also stays resident — plans depend only on
    /// `(gws, lws)` and the device configuration, neither of which a
    /// reset changes.
    ///
    /// This is what lets a measurement campaign reuse one runtime across
    /// many launches instead of rebuilding the device (and re-assembling
    /// the kernel) for every data point.
    pub fn reset(&mut self) {
        self.device.reset();
        self.heap_next = abi::HEAP_BASE;
    }

    /// `(hits, misses)` of the launch-plan cache since construction. A
    /// hit means the launch re-executed a precompiled plan; a miss means
    /// it compiled (and cached) a new one.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.plan_hits, self.plan_misses)
    }

    /// Number of distinct `(gws, lws)` plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plans.len()
    }

    /// Allocates `bytes` of device memory (64-byte aligned).
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError::OutOfMemory`] when the 32-bit heap would
    /// overflow.
    pub fn alloc(&mut self, bytes: u32) -> Result<Buffer, LaunchError> {
        let aligned = bytes.div_ceil(64) * 64;
        let addr = self.heap_next;
        let next =
            addr.checked_add(aligned).ok_or(LaunchError::OutOfMemory { requested: bytes })?;
        self.heap_next = next;
        Ok(Buffer { addr, bytes })
    }

    /// Allocates and fills a buffer of `f32` values.
    ///
    /// # Errors
    ///
    /// Propagates [`LaunchError::OutOfMemory`].
    pub fn alloc_f32(&mut self, data: &[f32]) -> Result<Buffer, LaunchError> {
        let buf = self.alloc((data.len() * 4) as u32)?;
        self.device.memory_mut().write_f32_slice(buf.addr, data);
        Ok(buf)
    }

    /// Allocates and fills a buffer of `u32` values.
    ///
    /// # Errors
    ///
    /// Propagates [`LaunchError::OutOfMemory`].
    pub fn alloc_u32(&mut self, data: &[u32]) -> Result<Buffer, LaunchError> {
        let buf = self.alloc((data.len() * 4) as u32)?;
        self.device.memory_mut().write_u32_slice(buf.addr, data);
        Ok(buf)
    }

    /// Reads a buffer back as `f32` values.
    pub fn read_f32(&self, buf: Buffer) -> Vec<f32> {
        self.device.memory().read_f32_vec(buf.addr, (buf.bytes / 4) as usize)
    }

    /// Reads a buffer back as `u32` values.
    pub fn read_u32(&self, buf: Buffer) -> Vec<u32> {
        self.device.memory().read_u32_vec(buf.addr, (buf.bytes / 4) as usize)
    }

    /// Writes the kernel argument block (32-bit words at
    /// [`abi::ARGS_BASE`]).
    pub fn set_args(&mut self, words: &[u32]) {
        self.device.memory_mut().write_u32_slice(abi::ARGS_BASE, words);
    }

    /// Launches the loaded kernel over `params.gws` iterations.
    ///
    /// Resolves the lws policy against the device's micro-architecture
    /// parameters (Eq. 1 for [`LwsPolicy::Auto`]), looks up (or compiles)
    /// the [`LaunchPlan`] for `(gws, lws)`, writes its pre-rendered
    /// dispatch blocks, pays the host dispatch overhead once, starts the
    /// plan's warp-0 set and runs the device to completion.
    ///
    /// # Errors
    ///
    /// [`LaunchError::NoProgram`] before [`Runtime::load_program`],
    /// [`LaunchError::InvalidParams`] for a zero
    /// `gws`, or [`LaunchError::Sim`] if the device faults.
    pub fn launch<'a, 'b>(
        &mut self,
        params: &LaunchParams,
        trace: Option<&'a mut (dyn TraceSink + 'b)>,
    ) -> Result<LaunchReport, LaunchError> {
        match trace {
            Some(sink) => self.launch_with(params, Some(sink)),
            None => self.launch_with::<NullSink>(params, None),
        }
    }

    /// [`launch`](Runtime::launch), generic over the trace sink type, so
    /// untraced callers run the device's monomorphised fast path.
    ///
    /// # Errors
    ///
    /// As for [`launch`](Runtime::launch).
    pub fn launch_with<S: TraceSink + ?Sized>(
        &mut self,
        params: &LaunchParams,
        trace: Option<&mut S>,
    ) -> Result<LaunchReport, LaunchError> {
        self.launch_inner(params, trace, None)
    }

    /// [`launch`](Runtime::launch) in **replay** mode: the launch's
    /// value-dependent outcomes are consumed from `rec` (recorded over
    /// the same program, data and `(gws, lws)` by a
    /// [`TraceRecorder`](vortex_sim::TraceRecorder)) instead of executed.
    /// Plan resolution, dispatch overhead and warp start run exactly as
    /// in execute mode, so the report is bit-identical; the dispatch
    /// blocks are *not* written to device memory — replay never reads
    /// memory, the in-kernel dispatch loads were recorded like any other
    /// access.
    ///
    /// `cursor` must come from [`LaunchRecord::cursor`] on `rec`; the
    /// launch fails with [`SimError::ReplayIncomplete`] if it halts
    /// without consuming the whole record.
    ///
    /// # Errors
    ///
    /// As for [`launch`](Runtime::launch), plus
    /// [`SimError::ReplayShape`] / [`SimError::ReplayDiverged`] /
    /// [`SimError::ReplayIncomplete`] (via [`LaunchError::Sim`]) when the
    /// trace does not match the run.
    pub fn launch_replay<S: TraceSink + ?Sized>(
        &mut self,
        params: &LaunchParams,
        trace: Option<&mut S>,
        rec: &LaunchRecord,
        cursor: &mut ReplayCursor,
    ) -> Result<LaunchReport, LaunchError> {
        self.launch_inner(params, trace, Some((rec, cursor)))
    }

    /// The one launch body: executes, or replays when `record` is given.
    fn launch_inner<S: TraceSink + ?Sized>(
        &mut self,
        params: &LaunchParams,
        trace: Option<&mut S>,
        record: Option<(&LaunchRecord, &mut ReplayCursor)>,
    ) -> Result<LaunchReport, LaunchError> {
        let entry = match params.entry {
            Some(addr) => {
                if self.entry.is_none() {
                    return Err(LaunchError::NoProgram);
                }
                addr
            }
            None => self.entry.ok_or(LaunchError::NoProgram)?,
        };
        if params.gws == 0 {
            return Err(LaunchError::InvalidParams { reason: "gws must be positive".into() });
        }
        let config = *self.device.config();
        let lws = params.policy.lws_for(params.gws, &config);
        let plan = match self.plans.entry((params.gws, lws)) {
            Entry::Occupied(e) => {
                self.plan_hits += 1;
                e.into_mut()
            }
            Entry::Vacant(v) => {
                self.plan_misses += 1;
                v.insert(LaunchPlan::compile(params.gws, lws, &config))
            }
        };
        let device = &mut self.device;

        let start_cycle = device.now();
        let start_instructions = device.counters().instructions;

        // Host writes the pre-rendered dispatch blocks word by word
        // (`write_u32_slice` would heap-allocate a staging buffer per
        // call — a per-launch cost on exactly the path this cache
        // exists to strip), then pays the dispatch latency and starts
        // the plan's warp-0 set. A replay never reads memory, so it
        // skips the write.
        if record.is_none() {
            let mem = device.memory_mut();
            for i in 0..plan.active_cores() {
                let (addr, words) = plan.core_block(i);
                for (j, &word) in words.iter().enumerate() {
                    mem.write_u32(addr + 4 * j as u32, word);
                }
            }
        }
        device.advance_time(self.dispatch_overhead);

        device.start_warps(plan.starts(), entry);
        let limit = start_cycle + params.max_cycles;
        match record {
            None => {
                device.run_with(limit, trace)?;
            }
            Some((rec, cursor)) => {
                device.run_replay(limit, trace, rec, cursor)?;
                let leftover = rec.leftover(cursor);
                if leftover != 0 {
                    return Err(LaunchError::Sim(SimError::ReplayIncomplete { leftover }));
                }
            }
        }

        Ok(plan.report(
            device.now() - start_cycle,
            device.counters().instructions - start_instructions,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_asm::Assembler;
    use vortex_isa::reg;

    fn trivial_program() -> Program {
        // Every started warp halts immediately.
        let mut a = Assembler::new(abi::CODE_BASE);
        a.vx_tmc(reg::ZERO);
        a.assemble().unwrap()
    }

    #[test]
    fn launch_without_program_fails() {
        let mut rt = Runtime::new(DeviceConfig::default());
        let err = rt.launch(&LaunchParams::new(16), None).unwrap_err();
        assert!(matches!(err, LaunchError::NoProgram));
    }

    #[test]
    fn zero_gws_is_rejected() {
        let mut rt = Runtime::new(DeviceConfig::default());
        rt.load_program(&trivial_program());
        let err = rt.launch(&LaunchParams::new(0), None).unwrap_err();
        assert!(matches!(err, LaunchError::InvalidParams { .. }));
    }

    #[test]
    fn trivial_launch_reports_costs() {
        let mut rt = Runtime::new(DeviceConfig::with_topology(2, 2, 4));
        rt.load_program(&trivial_program());
        let report = rt.launch(&LaunchParams::new(16), None).unwrap();
        assert_eq!(report.lws, 1); // 16 items / hp 16
        assert_eq!(report.n_tasks, 16);
        assert_eq!(report.active_cores, 2);
        assert!(report.cycles >= 256, "includes dispatch overhead");
        assert!(report.instructions >= 2); // one tmc per core's warp 0
    }

    #[test]
    fn allocator_aligns_and_advances() {
        let mut rt = Runtime::new(DeviceConfig::default());
        let a = rt.alloc(10).unwrap();
        let b = rt.alloc(100).unwrap();
        assert_eq!(a.addr % 64, 0);
        assert_eq!(b.addr, a.addr + 64);
        assert_eq!(b.addr % 64, 0);
    }

    #[test]
    fn buffers_roundtrip_data() {
        let mut rt = Runtime::new(DeviceConfig::default());
        let data = vec![1.0f32, -2.5, 3.25];
        let buf = rt.alloc_f32(&data).unwrap();
        assert_eq!(rt.read_f32(buf), data);
        let words = vec![7u32, 9];
        let buf = rt.alloc_u32(&words).unwrap();
        assert_eq!(rt.read_u32(buf), words);
    }

    #[test]
    fn dispatch_blocks_are_written() {
        let mut rt = Runtime::new(DeviceConfig::with_topology(2, 2, 2));
        rt.load_program(&trivial_program());
        rt.launch(&LaunchParams::new(64).policy(LwsPolicy::Explicit(4)), None).unwrap();
        // 16 tasks over 2 cores: core 0 gets 0..8, core 1 gets 8..16.
        let mem = rt.device().memory();
        let b0 = abi::dispatch_block_addr(0);
        let b1 = abi::dispatch_block_addr(1);
        assert_eq!(mem.read_u32(b0 + abi::dispatch::TASK_BASE), 0);
        assert_eq!(mem.read_u32(b0 + abi::dispatch::TASK_END), 8);
        assert_eq!(mem.read_u32(b1 + abi::dispatch::TASK_BASE), 8);
        assert_eq!(mem.read_u32(b1 + abi::dispatch::TASK_END), 16);
        assert_eq!(mem.read_u32(b0 + abi::dispatch::LWS), 4);
        assert_eq!(mem.read_u32(b0 + abi::dispatch::GWS), 64);
    }

    #[test]
    fn plan_cache_hits_reproduce_cold_reports() {
        let config = DeviceConfig::with_topology(2, 2, 4);
        let mut rt = Runtime::new(config);
        rt.load_program(&trivial_program());
        let params = LaunchParams::new(256).policy(LwsPolicy::Explicit(2));
        let cold = rt.launch(&params, None).unwrap();
        assert_eq!(rt.plan_cache_stats(), (0, 1));
        rt.reset();
        let hit = rt.launch(&params, None).unwrap();
        assert_eq!(rt.plan_cache_stats(), (1, 1), "reset must keep the plan cache");
        assert_eq!(hit, cold, "cached plan drifted from the cold compile");
        // A fresh runtime's cold plan agrees too.
        let mut fresh = Runtime::new(config);
        fresh.load_program(&trivial_program());
        assert_eq!(fresh.launch(&params, None).unwrap(), cold);
        assert_eq!(fresh.plan_cache_stats(), (0, 1));
    }

    #[test]
    fn policies_resolving_to_the_same_lws_share_a_plan() {
        let mut rt = Runtime::new(DeviceConfig::with_topology(1, 2, 4)); // hp = 8
        rt.load_program(&trivial_program());
        // Auto resolves 128/8 = 16; Explicit(16) must hit the same plan.
        let auto = rt.launch(&LaunchParams::new(128).policy(LwsPolicy::Auto), None).unwrap();
        rt.reset();
        let explicit =
            rt.launch(&LaunchParams::new(128).policy(LwsPolicy::Explicit(16)), None).unwrap();
        assert_eq!(rt.plan_cache_stats(), (1, 1));
        assert_eq!(rt.plan_cache_len(), 1);
        assert_eq!(auto, explicit);
    }

    #[test]
    fn reports_carry_total_rounds() {
        let mut rt = Runtime::new(DeviceConfig::with_topology(2, 2, 4)); // 8 slots/core
        rt.load_program(&trivial_program());
        // 32 tasks over 2 cores: 16/core on 8 slots = 2 rounds each.
        let r = rt.launch(&LaunchParams::new(128).policy(LwsPolicy::Explicit(4)), None).unwrap();
        assert_eq!(r.rounds, 2);
        assert_eq!(r.total_rounds, 4);
    }

    #[test]
    fn digest_hooks_identify_run_inputs() {
        let config = DeviceConfig::with_topology(2, 2, 4);
        let mut rt = Runtime::new(config);
        assert_eq!(rt.program_digest(), None);
        assert_eq!(rt.config_digest(), digest::digest_device_config(&config));
        let program = trivial_program();
        rt.load_program(&program);
        assert_eq!(rt.program_digest(), Some(digest::digest_program(&program)));
        rt.reset();
        assert_eq!(rt.program_digest(), Some(digest::digest_program(&program)), "survives reset");
        // A different topology digests differently.
        let other = Runtime::new(DeviceConfig::with_topology(2, 2, 8));
        assert_ne!(other.config_digest(), rt.config_digest());
    }

    #[test]
    fn policy_changes_reported_lws() {
        let mut rt = Runtime::new(DeviceConfig::with_topology(1, 2, 4)); // hp=8
        rt.load_program(&trivial_program());
        let r = rt.launch(&LaunchParams::new(128).policy(LwsPolicy::Auto), None).unwrap();
        assert_eq!(r.lws, 16);
        assert_eq!(r.scenario, MappingScenario::ExactFit);
        let r = rt.launch(&LaunchParams::new(128).policy(LwsPolicy::Fixed32), None).unwrap();
        assert_eq!(r.lws, 32);
        assert_eq!(r.scenario, MappingScenario::Underfilled);
    }
}
