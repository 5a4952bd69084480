//! The [`Kernel`] abstraction and the standard execution driver.

use vortex_asm::Program;
use vortex_core::{DispatchStats, LaunchParams, LaunchReport, LwsPolicy, Runtime};
use vortex_sim::Cycle;
use vortex_sim::{DeviceConfig, MemStats, NullSink, RecordedTrace, TraceRecorder, TraceSink};

use crate::error::{KernelError, VerifyError};

/// One device launch of a (possibly multi-phase) kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Entry symbol in the built program.
    pub symbol: String,
    /// Global work size of this phase.
    pub gws: u32,
}

impl PhaseSpec {
    /// Creates a phase description.
    pub fn new(symbol: impl Into<String>, gws: u32) -> Self {
        PhaseSpec { symbol: symbol.into(), gws }
    }
}

/// A runnable, verifiable workload from the paper's evaluation set.
///
/// Implementations own their (seeded, deterministic) input data, so the
/// same kernel value can be re-run across many device configurations and
/// mapping policies with identical work. The data is generated at the
/// first [`setup`](Kernel::setup) (and the host reference at the first
/// [`verify`](Kernel::verify)), not by the constructor: building a kernel
/// and assembling its program cost no dataset.
pub trait Kernel {
    /// Short name used in reports (matches the paper's figure labels).
    fn name(&self) -> &'static str;

    /// Assembles the device program (all phases).
    ///
    /// # Errors
    ///
    /// Returns an assembly error if the kernel's code generation produced
    /// an unencodable instruction.
    fn build(&self) -> Result<Program, vortex_asm::AsmError>;

    /// The launches (in order) that constitute one execution.
    fn phases(&self) -> Vec<PhaseSpec>;

    /// Allocates buffers, uploads inputs and writes the argument block.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    fn setup(&mut self, rt: &mut Runtime) -> Result<(), vortex_core::LaunchError>;

    /// Checks device outputs against the host reference.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch found.
    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError>;

    /// Total work items across phases (used for reporting only).
    fn total_gws(&self) -> u32 {
        self.phases().iter().map(|p| p.gws).sum()
    }
}

/// The result of running a kernel once on one configuration.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Total device cycles summed over phases (dispatch overhead and
    /// memory drain included).
    pub cycles: Cycle,
    /// Per-phase launch reports.
    pub reports: Vec<LaunchReport>,
    /// Memory-hierarchy statistics for the whole run.
    pub mem: MemStats,
    /// DRAM service-slot utilisation over the run (0..=1); high values
    /// mark the paper's *memory bound* kernels.
    pub dram_utilization: f64,
    /// Instructions issued.
    pub instructions: u64,
    /// Dispatch-round and occupancy counters summed over the run's
    /// launches (rounds per launch, busy lanes per round — the paper's
    /// low-occupancy marker).
    pub dispatch: DispatchStats,
    /// SIMT memory-port accesses over the run: batched accesses that
    /// carried at least one line. Raw sum — exact to merge.
    pub port_accesses: u64,
    /// Extra L1 port slots beyond the first each access occupied (the
    /// cycles memory ports stayed blocked serialising uncoalesced
    /// lines). Raw sum — exact to merge.
    pub port_stall_slots: u64,
}

/// Builds, uploads, launches (all phases) and verifies `kernel` on a fresh
/// device of the given configuration.
///
/// Untraced, so the whole run takes the simulator's monomorphised
/// (zero-dyn-dispatch) path.
///
/// # Errors
///
/// Any assembly, launch or verification failure.
pub fn run_kernel(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
) -> Result<RunOutcome, KernelError> {
    let program = kernel.build()?;
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    run_kernel_prepared(kernel, &program, &mut rt, policy)
}

/// [`run_kernel`] with an optional trace sink attached to every phase
/// (used to regenerate the paper's Fig. 1).
///
/// # Errors
///
/// Any assembly, launch or verification failure.
pub fn run_kernel_traced(
    kernel: &mut dyn Kernel,
    config: &DeviceConfig,
    policy: LwsPolicy,
    trace: Option<&mut dyn TraceSink>,
) -> Result<RunOutcome, KernelError> {
    let program = kernel.build()?;
    let mut rt = Runtime::new(*config);
    rt.load_program(&program);
    match trace {
        Some(sink) => run_phases(kernel, &program, &mut rt, policy, Some(sink), None),
        None => run_phases::<NullSink>(kernel, &program, &mut rt, policy, None, None),
    }
}

/// Launches and verifies `kernel` on an already-prepared runtime: the
/// program is assembled once by the caller and stays loaded; the runtime
/// is [`reset`](Runtime::reset) so every run starts from a cold, clean
/// device. This is the zero-rebuild path measurement campaigns take —
/// per-run cost is the simulation itself, not device construction or
/// kernel assembly.
///
/// # Errors
///
/// Any launch or verification failure.
pub fn run_kernel_prepared(
    kernel: &mut dyn Kernel,
    program: &Program,
    rt: &mut Runtime,
    policy: LwsPolicy,
) -> Result<RunOutcome, KernelError> {
    run_phases::<NullSink>(kernel, program, rt, policy, None, None)
}

/// [`run_kernel_prepared`] with a [`TraceRecorder`] attached: executes
/// the kernel normally (setup, all phases, verification) and returns the
/// recorded per-warp event trace alongside the outcome. The trace holds
/// one [`LaunchRecord`](vortex_sim::LaunchRecord) per phase and carries a
/// `tainted` flag when the run read a timing CSR (such traces must never
/// be replayed under a different timing or memory configuration — see
/// `docs/TRACE.md`).
///
/// # Errors
///
/// Any launch or verification failure.
pub fn record_kernel_prepared(
    kernel: &mut dyn Kernel,
    program: &Program,
    rt: &mut Runtime,
    policy: LwsPolicy,
) -> Result<(RunOutcome, RecordedTrace), KernelError> {
    let config = *rt.device().config();
    let mut rec = TraceRecorder::new(config.cores, config.warps);
    let outcome = run_phases(kernel, program, rt, policy, Some(&mut rec), None)?;
    Ok((outcome, rec.finish()))
}

/// Replays a previously recorded trace of `kernel` on an
/// already-prepared runtime: the phase loop runs with dispatch, hazard
/// scheduling and memory-system timing unchanged, but every
/// value-dependent outcome comes from `rec` — no input upload, no row
/// kernels, no functional memory traffic and no verification (the
/// recording run already verified). The [`RunOutcome`] is bit-identical
/// to execute mode.
///
/// # Errors
///
/// [`KernelError::TraceMismatch`] when `rec` was recorded on a different
/// topology or phase structure; [`KernelError::Launch`] wrapping
/// [`SimError::ReplayDiverged`](vortex_sim::SimError) when the streams
/// do not match the launched code.
pub fn replay_kernel_prepared(
    kernel: &mut dyn Kernel,
    program: &Program,
    rt: &mut Runtime,
    policy: LwsPolicy,
    rec: &RecordedTrace,
) -> Result<RunOutcome, KernelError> {
    run_phases::<NullSink>(kernel, program, rt, policy, None, Some(rec))
}

/// [`replay_kernel_prepared`] with a trace sink attached — the hook the
/// record→replay→re-record idempotence gate uses: replaying under a
/// fresh [`TraceRecorder`] must reproduce `rec` exactly.
///
/// # Errors
///
/// As for [`replay_kernel_prepared`].
pub fn replay_kernel_traced(
    kernel: &mut dyn Kernel,
    program: &Program,
    rt: &mut Runtime,
    policy: LwsPolicy,
    rec: &RecordedTrace,
    trace: Option<&mut dyn TraceSink>,
) -> Result<RunOutcome, KernelError> {
    match trace {
        Some(sink) => run_phases(kernel, program, rt, policy, Some(sink), Some(rec)),
        None => run_phases::<NullSink>(kernel, program, rt, policy, None, Some(rec)),
    }
}

/// The one phase loop, generic over the sink so untraced runs are
/// monomorphised end to end. Resets the runtime first: results must be
/// independent of whatever ran on it before. With a `record` the phases
/// replay it — each through [`Runtime::launch_replay`] with its own
/// [`LaunchRecord`](vortex_sim::LaunchRecord) and cursor, after the trace
/// is validated against the device and phase structure — and input
/// upload and verification are skipped (the recording run did both).
fn run_phases<S: TraceSink + ?Sized>(
    kernel: &mut dyn Kernel,
    program: &Program,
    rt: &mut Runtime,
    policy: LwsPolicy,
    mut trace: Option<&mut S>,
    record: Option<&RecordedTrace>,
) -> Result<RunOutcome, KernelError> {
    rt.reset();
    if record.is_none() {
        kernel.setup(rt)?;
    }
    let phases = kernel.phases();
    if let Some(rec) = record {
        let config = rt.device().config();
        if rec.cores != config.cores || rec.warps != config.warps {
            return Err(KernelError::TraceMismatch {
                reason: format!(
                    "trace recorded on {}x{} (cores x warps), device is {}x{}",
                    rec.cores, rec.warps, config.cores, config.warps
                ),
            });
        }
        if rec.launches.len() != phases.len() {
            return Err(KernelError::TraceMismatch {
                reason: format!(
                    "trace holds {} launch records, kernel has {} phases",
                    rec.launches.len(),
                    phases.len()
                ),
            });
        }
    }

    let mut reports = Vec::new();
    let mut cycles = 0;
    let mut dispatch = DispatchStats::default();
    for (i, phase) in phases.iter().enumerate() {
        let entry = program
            .symbol(&phase.symbol)
            .ok_or_else(|| KernelError::MissingSymbol { symbol: phase.symbol.clone() })?;
        let params = LaunchParams::new(phase.gws).policy(policy).entry(entry);
        let sink = trace.as_deref_mut();
        let report = match record {
            None => rt.launch_with(&params, sink)?,
            Some(rec) => {
                let launch = &rec.launches[i];
                rt.launch_replay(&params, sink, launch, &mut launch.cursor())?
            }
        };
        cycles += report.cycles;
        dispatch.accumulate(&DispatchStats::of_launch(&report));
        reports.push(report);
    }
    if record.is_none() {
        kernel.verify(rt)?;
    }

    let (port_accesses, port_stall_slots) = rt.device().port_totals();
    Ok(RunOutcome {
        cycles,
        reports,
        mem: rt.device().mem_stats(),
        dram_utilization: rt.device().dram_utilization(),
        instructions: rt.device().counters().instructions,
        dispatch,
        port_accesses,
        port_stall_slots,
    })
}
