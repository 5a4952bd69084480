//! The multi-core device and its event-driven run loop.

use vortex_asm::Program;
use vortex_isa::{csrs, Instr};
use vortex_mem::{Cycle, MainMemory, MemStats, MemSystem};

use crate::config::DeviceConfig;
use crate::core::{Core, CoreCtx, CoreOutcome};
use crate::counters::DeviceCounters;
use crate::decoded::DecodedInstr;
use crate::error::SimError;
use crate::live::LiveCores;
use crate::trace_api::{LaunchRecord, NullSink, ReplayCtx, ReplayCursor, TraceSink};
use crate::warp::NEVER;

/// How much state the last [`Device::reset`] actually swept — the
/// observable half of the O(touched-state) reset contract: a reset after
/// a 1-core launch on a 16-core device must report one core and one L1,
/// not the full topology.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ResetWork {
    /// Cores whose scheduling state was actually cleared (cores never
    /// started since the previous reset are skipped).
    pub cores: usize,
    /// L1 caches whose ways were actually swept (caches that served no
    /// access since the previous reset are skipped).
    pub l1_caches: usize,
}

/// How much scheduling the device's run loop did since the last
/// [`Device::reset`] — deterministic host-side work counts (exact on any
/// machine, where wall time is not), bumped once per scheduling step and
/// never per instruction. `instructions / windows` is the mean length of
/// a core's uninterrupted stretch: 1 under lockstep strict order on a
/// busy many-core device, tens to hundreds when cores run ahead to their
/// next L1 miss (see [`Device::run`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedWork {
    /// Scans of the scheduled-core events for the earliest one.
    pub rounds: u64,
    /// Times a core was handed control (`run_until` calls).
    pub windows: u64,
    /// Windows that ended with a memory instruction parked at an L1
    /// miss, its fills left for the `(cycle, core)` scan to order.
    pub deferred: u64,
}

/// A complete Vortex-like GPGPU device.
///
/// The device is driven by a host runtime (see `vortex-core`): load a
/// program once, then for each kernel call activate warp 0 of the
/// participating cores with [`start_warp`](Device::start_warp) and
/// [`run`](Device::run) to completion. The cycle counter is monotonic
/// across runs, so multi-call launches (the paper's `lws < gws/hp` regime)
/// accumulate time naturally; host-side dispatch overhead is modelled with
/// [`advance_time`](Device::advance_time).
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    cores: Vec<Core>,
    mem: MainMemory,
    memsys: MemSystem,
    /// The loaded program, pre-decoded: each slot pairs the instruction
    /// with its static metadata (operand scoreboard indices,
    /// functional-unit class, control/memory flags), derived once here
    /// instead of being re-matched on every issue.
    code: Vec<DecodedInstr>,
    /// The raw word image of the loaded program, cached at
    /// [`load_program`](Device::load_program) time so [`reset`](Device::reset)
    /// re-materialises it with one bulk copy instead of re-encoding every
    /// instruction.
    code_words: Vec<u32>,
    code_base: u32,
    /// Whether the loaded program reads `minstret[h]`, the one value a
    /// core can observe that depends on what *other* cores have issued:
    /// such a program runs in strict order (see [`run`](Device::run)).
    reads_minstret: bool,
    /// Work done by the most recent [`reset`](Device::reset).
    last_reset_work: ResetWork,
    /// Scheduler work counts since the last [`reset`](Device::reset).
    sched_work: SchedWork,
    cycle: Cycle,
    horizon: Cycle,
    counters: DeviceCounters,
    /// The scheduler state: the live cores, ascending, and each one's
    /// next event. *Persistent* across runs:
    /// [`start_warp`](Device::start_warp) and friends insert cores as the
    /// host activates them and the run loop removes cores as they drain,
    /// so entering a run is O(live cores) — an idle core costs zero bytes
    /// touched, whatever the topology.
    live: LiveCores,
    /// Cores started (touched) since the last [`reset`](Device::reset),
    /// in first-touch order — the O(touched) reset walks exactly this
    /// list instead of scanning the topology for `touched` flags.
    started: Vec<usize>,
}

impl Device {
    /// Creates an idle device.
    ///
    /// # Panics
    ///
    /// Panics if `config` violates a hardware limit (see
    /// [`DeviceConfig::validate`]).
    pub fn new(config: DeviceConfig) -> Self {
        config.validate();
        Device {
            cores: (0..config.cores).map(|i| Core::new(i, config.warps, config.threads)).collect(),
            mem: MainMemory::new(),
            memsys: MemSystem::new(config.cores, config.mem),
            code: Vec::new(),
            code_words: Vec::new(),
            code_base: 0,
            reads_minstret: false,
            last_reset_work: ResetWork::default(),
            sched_work: SchedWork::default(),
            cycle: 0,
            horizon: 0,
            counters: DeviceCounters::default(),
            live: LiveCores::new(config.cores),
            started: Vec::new(),
            config,
        }
    }

    /// Registers a host-side activation of `core`: first-touch cores join
    /// the O(touched) reset list, and the core joins the scheduler's live
    /// list (idempotent for already-scheduled cores).
    fn note_activation(&mut self, core: usize) {
        if !self.cores[core].is_touched() {
            self.started.push(core);
        }
        self.live.schedule(core);
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Loads a program image (instructions become fetchable, and the raw
    /// words are also written to main memory at the program's base).
    pub fn load_program(&mut self, program: &Program) {
        self.code = program.instrs().iter().copied().map(DecodedInstr::of).collect();
        self.code_words = program.words().to_vec();
        self.code_base = program.entry();
        self.reads_minstret = program.instrs().iter().any(|i| {
            matches!(i, Instr::Csr { csr, .. } if *csr == csrs::MINSTRET || *csr == csrs::MINSTRET_H)
        });
        self.mem.write_u32_slice(program.entry(), program.words());
    }

    /// How much state the most recent [`reset`](Device::reset) actually
    /// swept (the O(touched-state) reset contract, white-box testable).
    pub fn last_reset_work(&self) -> ResetWork {
        self.last_reset_work
    }

    /// Scheduler work counts since the last [`reset`](Device::reset)
    /// (accumulated over runs, like [`counters`](Device::counters)).
    pub fn sched_work(&self) -> SchedWork {
        self.sched_work
    }

    /// Read access to architectural memory (host side).
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Write access to architectural memory (host side).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// The current simulation time.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Advances time without executing anything — models host-side
    /// overhead such as kernel dispatch.
    pub fn advance_time(&mut self, cycles: Cycle) {
        self.cycle += cycles;
    }

    /// Activates warp 0 of `core` at `pc` with a full thread mask,
    /// becoming runnable at the current time.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn start_warp(&mut self, core: usize, pc: u32) {
        let now = self.cycle;
        self.note_activation(core);
        self.cores[core].start_warp(0, pc, now);
    }

    /// Activates warp 0 of every core in `cores` at `pc` — the batched
    /// form of [`start_warp`](Device::start_warp) a precompiled launch
    /// plan uses to start its whole warp-0 set in one call.
    ///
    /// # Panics
    ///
    /// Panics if any core id is out of range.
    pub fn start_warps(&mut self, cores: &[usize], pc: u32) {
        let now = self.cycle;
        for &core in cores {
            self.note_activation(core);
            self.cores[core].start_warp(0, pc, now);
        }
    }

    /// Activates an arbitrary warp (for white-box tests).
    ///
    /// # Panics
    ///
    /// Panics if `core` or `warp` is out of range.
    pub fn start_warp_at(&mut self, core: usize, warp: usize, pc: u32) {
        let now = self.cycle;
        self.note_activation(core);
        self.cores[core].start_warp(warp, pc, now);
    }

    /// Whether every warp of every core has halted. O(live cores): a
    /// core outside the scheduler's active set cannot have an active warp
    /// (activation always passes through [`start_warp`](Device::start_warp)).
    pub fn all_idle(&self) -> bool {
        self.live.order().iter().all(|&c| !self.cores[c].any_active())
    }

    /// Runs until all warps halt, the cycle budget is exhausted, or a
    /// simulation error is detected. Returns the finish time (including
    /// memory drain).
    ///
    /// An untraced run (`trace = None`) dispatches to the monomorphised
    /// [`run_untraced`](Device::run_untraced) fast path automatically, so
    /// callers holding a `dyn` option pay virtual dispatch only when a
    /// sink is actually attached.
    ///
    /// # Order of simulation
    ///
    /// The modelled machine advances all cores together; the simulator
    /// orders cores only where they can affect each other. Cores share
    /// the L2, its bandwidth slots and the DRAM queues, so every request
    /// that reaches those — the fills of a memory instruction with at
    /// least one line missing from the issuing core's L1 — is made in
    /// global `(cycle, core)` order, equal cycles in ascending core id.
    /// All other work (ALU/FPU, control flow, barriers and spawns, the
    /// L1 side of every memory instruction) is core-local, and an
    /// untraced run simulates it *ahead* of the other cores, up to the
    /// core's next miss or the cycle limit. With a sink attached, or a
    /// loaded program that reads `minstret` (a count of what every core
    /// has issued), the run keeps strict `(cycle, core)` order for
    /// everything. Successful launches of data-race-free programs are
    /// bit-identical in both orders — cycles, counters, memory
    /// statistics, memory contents. Two things are not defined: which
    /// fault is reported when several cores fault in one launch (a
    /// fault is raised where its core detects it, which can be before
    /// one that is earlier in simulated time), and the result of a
    /// program that depends on the relative order of two cores'
    /// accesses to the same word within a launch — the device has no
    /// inter-core synchronisation inside a launch, so such a program
    /// races on the real machine too. After a fault the device is
    /// mid-launch (a core may hold a parked instruction) and must be
    /// [`reset`](Device::reset) before reuse; a `CycleLimit` leaves
    /// nothing parked — a parked instruction's cycle is within the
    /// limit, so it is served before the limit trips.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] describing a fatal condition: an
    /// execution-model violation, a trap, a barrier deadlock, or
    /// [`SimError::CycleLimit`] when `limit` is reached (nothing is
    /// simulated past the limit in either order).
    pub fn run<'a, 'b>(
        &mut self,
        limit: Cycle,
        trace: Option<&'a mut (dyn TraceSink + 'b)>,
    ) -> Result<Cycle, SimError> {
        match trace {
            Some(sink) => self.run_with(limit, Some(sink)),
            None => self.run_untraced(limit),
        }
    }

    /// [`run`](Device::run) without a trace sink, monomorphised against
    /// [`NullSink`] — the per-issue trace hook compiles away entirely.
    /// This is the path the 450-configuration campaigns take.
    ///
    /// # Errors
    ///
    /// As for [`run`](Device::run).
    pub fn run_untraced(&mut self, limit: Cycle) -> Result<Cycle, SimError> {
        self.run_with::<NullSink>(limit, None)
    }

    /// [`run`](Device::run), generic over the trace sink type.
    ///
    /// # Errors
    ///
    /// As for [`run`](Device::run).
    pub fn run_with<S: TraceSink + ?Sized>(
        &mut self,
        limit: Cycle,
        trace: Option<&mut S>,
    ) -> Result<Cycle, SimError> {
        self.run_inner(limit, trace, None)
    }

    /// [`run`](Device::run) in **replay** mode: every value-dependent
    /// outcome (control transfers, barrier operands, memory address sets)
    /// is consumed from `rec` — recorded by a [`TraceRecorder`] over the
    /// same launch — instead of executed, while scheduling, hazards and
    /// memory-system timing run unchanged, so cycles and counters are
    /// bit-identical to execute mode. Register and memory *values* are
    /// not maintained; only timing-visible state is.
    ///
    /// `cursor` tracks per-warp stream positions across the run and is
    /// owned by the caller so a multi-phase kernel can validate full
    /// consumption (see [`LaunchRecord::leftover`]).
    ///
    /// [`TraceRecorder`]: crate::TraceRecorder
    ///
    /// # Errors
    ///
    /// As for [`run`](Device::run), plus [`SimError::ReplayDiverged`]
    /// when the run needs a record the trace does not hold, and
    /// [`SimError::ReplayShape`] (before anything runs) when `rec` or
    /// `cursor` was built for another `cores × warps` topology.
    pub fn run_replay<S: TraceSink + ?Sized>(
        &mut self,
        limit: Cycle,
        trace: Option<&mut S>,
        rec: &LaunchRecord,
        cursor: &mut ReplayCursor,
    ) -> Result<Cycle, SimError> {
        let replay = ReplayCtx::new(rec, cursor, self.config.cores, self.config.warps)?;
        self.run_inner(limit, trace, Some(replay))
    }

    fn run_inner<S: TraceSink + ?Sized>(
        &mut self,
        limit: Cycle,
        mut trace: Option<&mut S>,
        replay: Option<ReplayCtx<'_>>,
    ) -> Result<Cycle, SimError> {
        // A recording sink opens one launch record per device run (the
        // runtime calls `run` exactly once per launch).
        if let Some(sink) = trace.as_mut() {
            if sink.wants_warp_events() {
                sink.on_launch_begin();
            }
        }
        let Device {
            config,
            cores,
            mem,
            memsys,
            code,
            code_words: _,
            code_base,
            reads_minstret,
            last_reset_work: _,
            sched_work,
            cycle,
            horizon,
            counters,
            live,
            started: _,
        } = self;

        // One pending event per scheduled core, in a compact array
        // scanned with a min pass instead of a binary heap. The heap
        // survived two calendar-queue prototypes (ROADMAP item c, see
        // README "PR2 results"), but it charged every *core-cycle* of a
        // lockstep many-core run one pop+push sift pair; a contiguous
        // `u64` min scan per scheduling round costs less than one sift,
        // and the round still hands each due core a
        // conservative-lookahead window (see [`Core::run_until`]). Unlike
        // the PR 2 wake-slot table, the scan is per *round* (window), not
        // per simulated cycle, so desynchronised runs do not degrade.
        //
        // The scheduled set is maintained *incrementally* by the
        // `start_warp*` entry points and the drain removals below (see
        // [`LiveCores`]): entering a run marks the already-known live
        // cores due now in O(live), with no per-entry topology scan — a
        // 2-core launch on a 256-core device pays for 2 entries, and an
        // idle core costs zero bytes touched. Cores cannot *become*
        // active mid-run (wspawn is core-local), and a core that drains
        // to idle is removed in place, so rounds of a shrinking launch
        // keep getting cheaper.
        live.begin_run(*cycle);

        // Cores may run ahead of the horizon (see the loop below) unless
        // something can observe how their core-local work interleaves: a
        // sink sees `on_issue` order, and `minstret` reads a counter that
        // every core's issues bump — ordering the read alone would not
        // do, the cores that already ran past it have been counted.
        let run_ahead_to = (trace.is_none() && !*reads_minstret).then(|| limit.saturating_add(1));

        // One context for the whole run: it borrows device state disjoint
        // from `cores`, so it does not need rebuilding per step.
        let line_bytes = memsys.line_bytes();
        let mut ctx = CoreCtx {
            code,
            code_base: *code_base,
            mem: &mut *mem,
            memsys: &mut *memsys,
            timing: &config.timing,
            num_cores: config.cores,
            ipdom_depth: config.ipdom_depth,
            counters: &mut *counters,
            trace,
            horizon: &mut *horizon,
            line_bytes,
            replay,
            run_ahead_to,
            work: &mut *sched_work,
        };

        // Conservative-lookahead event loop: find the earliest-due cores
        // and hand each a window that ends at the next *other* core's
        // event time. What is pinned is the global `(cycle, core)` order
        // of every action on state cores **share** — the L2, its
        // bandwidth slots, the DRAM queues: the scan visits same-cycle
        // cores in ascending id order, exactly as the heap's tie-break
        // did, and a core issues a shared-state access only inside its
        // window. Core-local work is not bound by the window: an untraced
        // core keeps going past it until its next L1 miss (or the cycle
        // limit) and parks there — L1 walked, fills not yet requested —
        // as its pending event. So the events this loop orders are the
        // cores' *misses*, a few percent of the stream, not their every
        // cycle, and two cores that reach misses at one cycle still book
        // L2 slots in ascending core id whichever the host simulated
        // first (see [`Core::run_until`]).
        // A solo due core (always the case on single-core devices) gets
        // the full window to the runner-up event; same-cycle peers each
        // get one cycle of it. With a sink attached the window bounds
        // everything and the run is the strict interleaving itself.
        loop {
            ctx.work.rounds += 1;
            // One pass over the live cores' events: the earliest cycle,
            // the first position due then, how many share it, and the
            // best other time (the runner-up).
            let mut t = NEVER;
            let mut first = 0usize;
            let mut due = 0usize;
            let mut runner = NEVER;
            for (pos, &at) in live.due().iter().enumerate() {
                if at < t {
                    runner = t;
                    t = at;
                    first = pos;
                    due = 1;
                } else if at == t {
                    due += 1;
                } else if at < runner {
                    runner = at;
                }
            }
            if t == NEVER {
                break;
            }
            if t > limit {
                return Err(SimError::CycleLimit { limit });
            }
            let window = if due == 1 { runner.min(limit.saturating_add(1)) } else { t + 1 };
            // The due cores in ascending position, i.e. ascending core id.
            // A drained core is removed in place, which shifts the next
            // one under `pos`: the index advances only past a survivor.
            let mut pos = first;
            while due > 0 {
                if live.due()[pos] != t {
                    pos += 1;
                    continue;
                }
                due -= 1;
                match cores[live.order()[pos]].run_until(t, window, cycle, &mut ctx)? {
                    CoreOutcome::Next(next) => {
                        live.set_due(pos, next);
                        pos += 1;
                    }
                    CoreOutcome::Idle => live.remove_at(pos),
                }
            }
        }

        // Account for the final issue plus any in-flight memory traffic.
        // (`ctx` borrows `cycle` and `horizon` mutably; end its scope.)
        let _ = ctx;
        *cycle = (*cycle + 1).max(*horizon);
        counters.finish_cycle = *cycle;
        Ok(*cycle)
    }

    /// Accumulated performance counters (monotonic across runs).
    pub fn counters(&self) -> &DeviceCounters {
        &self.counters
    }

    /// Memory hierarchy statistics (monotonic across runs).
    pub fn mem_stats(&self) -> MemStats {
        self.memsys.stats()
    }

    /// Device-wide SIMT memory-port counters `(accesses, stall_slots)`
    /// since the last reset — raw sums, exact to merge across shards.
    pub fn port_totals(&self) -> (u64, u64) {
        self.memsys.port_totals()
    }

    /// DRAM bandwidth utilisation over the elapsed simulation time.
    pub fn dram_utilization(&self) -> f64 {
        self.memsys.dram_utilization(self.cycle)
    }

    /// Full reset: halts warps, clears memory contents, timing state,
    /// counters and the clock. The loaded program is kept and its image is
    /// re-materialised from the words cached at load time — no
    /// re-encoding, no reallocation of the memory spine — which makes a
    /// reused device as cheap as the run it hosts.
    pub fn reset(&mut self) {
        let mut work = ResetWork::default();
        // Walk the first-touch list, not the topology: cores never
        // started since the previous reset are not visited at all.
        for &cid in &self.started {
            if self.cores[cid].reset() {
                work.cores += 1;
            }
        }
        self.started.clear();
        self.live.clear();
        self.mem.clear();
        work.l1_caches = self.memsys.reset();
        self.last_reset_work = work;
        self.sched_work = SchedWork::default();
        self.cycle = 0;
        self.horizon = 0;
        self.counters = DeviceCounters::default();
        self.mem.write_u32_slice(self.code_base, &self.code_words);
    }

    /// Direct read of a warp's architectural state (white-box testing and
    /// trace tooling).
    pub fn warp(&self, core: usize, warp: usize) -> &crate::warp::WarpState {
        &self.cores[core].warps[warp]
    }
}
