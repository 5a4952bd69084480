//! One SIMT core: warp scheduling, hazard checking and instruction
//! execution.
//!
//! Every instruction takes one walk ([`Core::issue`]): an **outcome
//! step** decides what the instruction did — by *executing* it (row
//! kernels + functional memory, [`Core::execute`]) or by reading the
//! warp's *recorded* stream ([`Outcome::recorded`]) — and a **shared
//! tail** times it: write-back register and latency, control gap,
//! barriers, warp spawns and the memory-system walk exist exactly once,
//! so record and replay cannot drift apart.
//!
//! The execute loops are written against the core-owned lane-major
//! register file ([`RegFile`]): each opcode arm materialises its source
//! rows (a contiguous `threads`-word copy into a stack buffer, which also
//! resolves `dst == src` aliasing without `unsafe`), then writes the
//! destination row in a single pass — branch-free when the thread mask is
//! full, a set-bit walk otherwise. The register scoreboard is a flat
//! per-core array rather than a per-warp heap allocation, so hazard
//! checks stay within one cache line per warp.

use vortex_isa::{
    csrs, AluImmOp, AluOp, Csr, ExecClass, FpBinOp, Instr, LoadWidth, StoreWidth, VoteOp,
};
use vortex_mem::{coalesce_lines, Cycle, MainMemory, MemSystem, PendingMiss};

use crate::config::TimingConfig;
use crate::counters::DeviceCounters;
use crate::decoded::{DecodedInstr, InstrMeta};
use crate::device::SchedWork;
use crate::error::SimError;
use crate::exec::span::{self, Span};
use crate::exec::tables;
use crate::exec::{BinKernel, FmaKernel, ImmKernel, UnKernel};
use crate::ipdom::IpdomEntry;
use crate::regfile::{RegFile, FP_BASE};
use crate::trace_api::{IssueEvent, ReplayCtx, TraceSink, WarpEvent};
use crate::warp::{WarpState, NEVER};

/// Everything a core needs from the device while stepping.
///
/// Generic over the trace sink so untraced runs (`S = NullSink`) are
/// monomorphised with the trace hook compiled away entirely — no virtual
/// dispatch on the per-instruction hot path.
pub(crate) struct CoreCtx<'a, S: TraceSink + ?Sized> {
    /// The loaded program with its decode cache, one entry per slot.
    pub code: &'a [DecodedInstr],
    pub code_base: u32,
    pub mem: &'a mut MainMemory,
    pub memsys: &'a mut MemSystem,
    pub timing: &'a TimingConfig,
    pub num_cores: usize,
    pub ipdom_depth: usize,
    pub counters: &'a mut DeviceCounters,
    pub trace: Option<&'a mut S>,
    /// Latest completion time of any memory event (for drain accounting).
    pub horizon: &'a mut Cycle,
    /// Cache-line size (hoisted from the memory system once per run).
    pub line_bytes: u32,
    /// The outcome source: `None` executes, `Some` reads each warp's
    /// recorded [`WarpEvent`] stream (a *replay* run). Scheduling,
    /// hazards and memory-system timing are the same code either way, so
    /// cycles and counters are bit-identical.
    pub replay: Option<ReplayCtx<'a>>,
    /// The hard bound of a run that may run ahead (one past the run's
    /// cycle limit): cores simulate core-local work up to it, whatever
    /// the device horizon. `None` keeps every core inside the horizon —
    /// strict global `(cycle, core)` order (see [`Core::run_until`]).
    pub run_ahead_to: Option<Cycle>,
    /// Deterministic scheduler work counts of this run.
    pub work: &'a mut SchedWork,
}

/// What one issued instruction did that its timing depends on and the
/// decoded instruction alone cannot tell — the value handed from the
/// outcome step to the shared tail of [`Core::issue`]. Mirrors
/// [`WarpEvent`] but borrows its lane addresses, so the execute path
/// never allocates.
#[derive(Copy, Clone)]
enum Outcome<'a> {
    /// Nothing value-dependent: fall-through (or the static `jal` target).
    Static,
    /// PC and thread mask after a branch, `jalr`, split, join or
    /// non-zero `tmc`.
    Ctl {
        next_pc: u32,
        tmask: u32,
    },
    /// `tmc` to an empty mask.
    Halt,
    Wspawn {
        count: u32,
        target: u32,
    },
    Bar {
        id: u32,
        count: u32,
    },
    /// A contiguous ascending span of lane addresses.
    MemSpan {
        addr0: u32,
        last: u32,
    },
    /// A gather/scatter: `addrs[l]` for every set bit `l` of `lanes`
    /// (lane-indexed under the thread mask when executed, the compact
    /// recorded list under a low-bits mask when replayed).
    MemLanes {
        addrs: &'a [u32],
        lanes: u32,
    },
}

impl<'a> Outcome<'a> {
    /// The *recorded* outcome source. Instructions with no value-dependent
    /// outcome consume nothing; every other family takes the warp's next
    /// event, which must be of a kind that family produces (`store`
    /// flags included). `None` when the stream is exhausted or holds
    /// another kind — the replayed run has diverged from the recording.
    fn recorded(
        instr: Instr,
        meta: &InstrMeta,
        replay: &mut ReplayCtx<'a>,
        core: usize,
        warp: usize,
    ) -> Option<Self> {
        use Instr::{Bar, Branch, Jalr, Join, Split, Tmc, Wspawn};
        let ctl = matches!(instr, Branch { .. } | Jalr { .. } | Split { .. } | Join | Tmc { .. });
        if !(ctl || meta.is_mem || matches!(instr, Wspawn { .. } | Bar { .. })) {
            return Some(Outcome::Static);
        }
        let is_store = meta.class == ExecClass::Store;
        match (instr, replay.next(core, warp)?) {
            (_, &WarpEvent::Ctl { next_pc, tmask }) if ctl => Some(Outcome::Ctl { next_pc, tmask }),
            (Tmc { .. }, WarpEvent::Halt) => Some(Outcome::Halt),
            (Wspawn { .. }, &WarpEvent::Wspawn { count, target }) => {
                Some(Outcome::Wspawn { count, target })
            }
            (Bar { .. }, &WarpEvent::Bar { id, count }) => Some(Outcome::Bar { id, count }),
            (_, &WarpEvent::MemSpan { addr0, last, store }) if meta.is_mem && store == is_store => {
                Some(Outcome::MemSpan { addr0, last })
            }
            (_, WarpEvent::MemLanes { addrs, store })
                if meta.is_mem && *store == is_store && addrs.len() <= 32 =>
            {
                let lanes = u32::MAX.checked_shr(32 - addrs.len() as u32).unwrap_or(0);
                Some(Outcome::MemLanes { addrs, lanes })
            }
            _ => None,
        }
    }

    /// The trace record of this outcome (`None` for [`Outcome::Static`]).
    /// Only built when a recording sink asks: the lane list is the one
    /// allocation of the walk. Lane addresses are recorded
    /// *pre-coalescing*, in lane order — replay re-coalesces against its
    /// own line size, so the trace stays valid across cache geometries.
    fn event(self, store: bool) -> Option<WarpEvent> {
        Some(match self {
            Outcome::Static => return None,
            Outcome::Ctl { next_pc, tmask } => WarpEvent::Ctl { next_pc, tmask },
            Outcome::Halt => WarpEvent::Halt,
            Outcome::Wspawn { count, target } => WarpEvent::Wspawn { count, target },
            Outcome::Bar { id, count } => WarpEvent::Bar { id, count },
            Outcome::MemSpan { addr0, last } => WarpEvent::MemSpan { addr0, last, store },
            Outcome::MemLanes { addrs, lanes } => {
                let mut list = Vec::with_capacity(lanes.count_ones() as usize);
                list.extend(set_lanes(addrs, lanes));
                WarpEvent::MemLanes { addrs: list, store }
            }
        })
    }
}

/// `addrs[l]` for every set bit `l` of `lanes`, ascending: cost scales
/// with active lanes, not with the 32-lane SIMT width.
fn set_lanes(addrs: &[u32], mut lanes: u32) -> impl Iterator<Item = u32> + '_ {
    std::iter::from_fn(move || {
        if lanes == 0 {
            return None;
        }
        let l = lanes.trailing_zeros() as usize;
        lanes &= lanes - 1;
        Some(addrs[l])
    })
}

/// The outcome of running a core up to an event horizon.
pub(crate) enum CoreOutcome {
    /// The core's next action — possibly the shared half of a memory
    /// instruction it has parked — lies at this cycle (≥ the horizon);
    /// re-run it when global time gets there.
    Next(Cycle),
    /// All warps halted; core is idle.
    Idle,
}

/// An instruction between the two ends of [`Core::issue`]'s shared tail:
/// its outcome is applied and, if it accesses memory, its L1 walk is
/// done; what is left is [`Core::retire`]. A memory instruction that
/// issued past the device horizon and missed in the L1 waits in this
/// state ([`Core::parked`], its misses in [`Core::misses`]) until the
/// device reaches `(now, core)` in global order.
#[derive(Copy, Clone, Debug)]
struct Issued {
    w: usize,
    instr: Instr,
    meta: InstrMeta,
    /// The issue cycle.
    now: Cycle,
    /// PC of the warp after the instruction.
    next_pc: u32,
    /// Completion of the memory access (of its L1 hits while parked).
    completion: Cycle,
}

/// Cached scheduling state for one warp's *next* instruction, filled
/// eagerly when the warp issues (or lazily on first examination), so a
/// warp wakes exactly at its next issue cycle with the instruction already
/// fetched and its register hazards already resolved.
#[derive(Copy, Clone, Debug)]
struct NextIssue {
    /// The fetched instruction.
    instr: Instr,
    /// The instruction's decode-cache entry.
    meta: InstrMeta,
    /// PC the cache was computed for; a mismatch (branch target rewrite,
    /// respawn) invalidates it.
    pc: u32,
    /// Earliest issue cycle from warp-local state only (control gap and
    /// register hazards). Warp-local state cannot change while the warp is
    /// dormant, so this stays exact until the warp issues again.
    t_local: Cycle,
    /// Whether the entry is usable at all.
    valid: bool,
}

impl NextIssue {
    const INVALID: NextIssue =
        NextIssue { instr: Instr::Join, meta: InstrMeta::INVALID, pc: 0, t_local: 0, valid: false };

    /// Earliest issue cycle with the memory-port structural hazard folded
    /// in (`mem_port_free` moves when *other* warps issue, so it cannot
    /// be cached per warp).
    fn due(&self, mem_port_free: Cycle) -> Cycle {
        if self.meta.is_mem {
            self.t_local.max(mem_port_free)
        } else {
            self.t_local
        }
    }
}

#[derive(Debug)]
pub(crate) struct Core {
    id: usize,
    pub(crate) warps: Vec<WarpState>,
    /// Lane-major register rows + scoreboard of every warp (see
    /// [`RegFile`]).
    rf: RegFile,
    /// Open barriers as `(id, arrived-warp mask)` pairs: a core has at
    /// most 32 warps and a handful of barriers in flight, so a linear
    /// scan of a resident vector beats hashing, and arriving allocates
    /// nothing.
    barriers: Vec<(u32, u32)>,
    last_issued: usize,
    mem_port_free: Cycle,
    /// Per-warp lower bound on the next possible issue cycle (`NEVER` for
    /// halted or barrier-blocked warps). Kept exact-or-early at every
    /// scheduling-state transition, so the scheduler may skip any warp
    /// with `warp_next[w] > now` without fetching or hazard-checking it —
    /// the cached bound never exceeds the true earliest issue time, which
    /// keeps cycle results bit-identical to the full rescan.
    warp_next: Vec<Cycle>,
    /// Per-warp pre-fetched next instruction and its hazard time.
    next_issue: Vec<NextIssue>,
    /// L1 misses of the memory instruction being issued, between the two
    /// phases of its walk (a resident scratch list: empty whenever no
    /// instruction is mid-issue or parked).
    misses: Vec<PendingMiss>,
    /// The instruction waiting for its place in the global order, if any.
    parked: Option<Issued>,
    /// Whether any warp was ever started since the last reset. An
    /// untouched core holds only default state, so [`Core::reset`] can
    /// skip it entirely — device resets stay O(touched cores), not
    /// O(topology).
    touched: bool,
}

impl Core {
    pub fn new(id: usize, warps: usize, threads: usize) -> Self {
        Core {
            id,
            warps: (0..warps).map(|_| WarpState::new(threads)).collect(),
            rf: RegFile::new(warps, threads),
            barriers: Vec::new(),
            last_issued: 0,
            mem_port_free: 0,
            warp_next: vec![NEVER; warps],
            next_issue: vec![NextIssue::INVALID; warps],
            misses: Vec::new(),
            parked: None,
            touched: false,
        }
    }

    /// Activates warp `w` at `pc` with a full thread mask.
    pub fn start_warp(&mut self, w: usize, pc: u32, ready_at: Cycle) {
        self.touched = true;
        let full = self.warps[w].full_mask();
        self.warps[w].start(pc, full, ready_at);
        self.rf.clear_warp(w);
        self.warp_next[w] = if self.warps[w].active { ready_at } else { NEVER };
        self.next_issue[w].valid = false;
    }

    /// Earliest cached next-issue bound across warps (`NEVER` when no warp
    /// is schedulable).
    fn next_event(&self) -> Cycle {
        self.warp_next.iter().copied().min().unwrap_or(NEVER)
    }

    pub fn any_active(&self) -> bool {
        self.warps.iter().any(|w| w.active)
    }

    /// Whether any warp was ever started since the last reset — the flag
    /// the device's O(touched) start/reset bookkeeping rides.
    pub fn is_touched(&self) -> bool {
        self.touched
    }

    /// Bit mask of active warps (CSR `active_warps`).
    fn active_warp_mask(&self) -> u32 {
        let mut m = 0;
        for (i, w) in self.warps.iter().enumerate() {
            if w.active {
                m |= 1 << i;
            }
        }
        m
    }

    /// Returns a core to its post-construction state. A core no warp was
    /// ever started on still *is* in that state, so the sweep is skipped
    /// wholesale; the return value reports whether any work was done
    /// (the device aggregates it into [`ResetWork`](crate::ResetWork)).
    pub fn reset(&mut self) -> bool {
        if !self.touched {
            return false;
        }
        for w in &mut self.warps {
            w.deactivate();
        }
        // Register rows and scoreboard entries are deliberately left
        // stale: a warp's block is zeroed when the warp (re)starts, and a
        // dormant warp's contents are unobservable (see
        // `WarpState::deactivate`).
        self.barriers.clear();
        self.last_issued = 0;
        self.mem_port_free = 0;
        self.warp_next.fill(NEVER);
        self.next_issue.fill(NextIssue::INVALID);
        self.misses.clear();
        self.parked = None;
        self.touched = false;
        true
    }

    fn fetch<S: TraceSink + ?Sized>(
        &self,
        w: usize,
        ctx: &CoreCtx<'_, S>,
    ) -> Result<(Instr, InstrMeta), SimError> {
        let pc = self.warps[w].pc;
        if pc < ctx.code_base || !pc.is_multiple_of(4) {
            return Err(SimError::UnmappedPc { core: self.id, warp: w, pc });
        }
        let idx = ((pc - ctx.code_base) / 4) as usize;
        match ctx.code.get(idx) {
            Some(&DecodedInstr { instr, meta }) => Ok((instr, meta)),
            None => Err(SimError::UnmappedPc { core: self.id, warp: w, pc }),
        }
    }

    /// Earliest cycle warp `w` could issue considering only warp-local
    /// state: the control gap and register hazards. Branchless: the
    /// decode cache encodes absent operands as dense index 0, whose
    /// scoreboard entry is permanently zero, so four unconditional
    /// `max`es cover every operand shape. The memory-port structural
    /// hazard is folded in by the caller (it moves when *other* warps
    /// issue, so it cannot be cached per warp).
    fn earliest_issue_local(&self, w: usize, meta: &InstrMeta) -> Cycle {
        let ready = self.warps[w].ready_at;
        // Every scoreboard entry is bounded by the warp watermark; when
        // that bound is already covered by the control gap, the operand
        // loads cannot raise the answer (exactness argued at
        // [`RegFile::busy_watermark`]).
        if self.rf.busy_watermark(w) <= ready {
            return ready;
        }
        ready
            .max(self.rf.busy_until(w, meta.src[0] as usize))
            .max(self.rf.busy_until(w, meta.src[1] as usize))
            .max(self.rf.busy_until(w, meta.src[2] as usize))
            .max(self.rf.busy_until(w, meta.dst as usize))
    }

    /// The warp's fetched-and-hazard-checked next instruction, from the
    /// cache when the warp's PC still matches, fetched on demand
    /// otherwise. Returns the instruction and its earliest issue cycle.
    fn next_for<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        ctx: &CoreCtx<'_, S>,
    ) -> Result<(Instr, InstrMeta, Cycle), SimError> {
        let cached = self.next_issue[w];
        let t = if cached.valid && cached.pc == self.warps[w].pc {
            cached.due(self.mem_port_free)
        } else {
            self.fill_next(w, ctx)?
        };
        let NextIssue { instr, meta, .. } = self.next_issue[w];
        Ok((instr, meta, t))
    }

    /// Fetches warp `w`'s next instruction, resolves its warp-local
    /// hazards and caches both; returns its earliest issue cycle.
    fn fill_next<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        ctx: &CoreCtx<'_, S>,
    ) -> Result<Cycle, SimError> {
        let (instr, meta) = self.fetch(w, ctx)?;
        let t_local = self.earliest_issue_local(w, &meta);
        let next = NextIssue { instr, meta, pc: self.warps[w].pc, t_local, valid: true };
        self.next_issue[w] = next;
        Ok(next.due(self.mem_port_free))
    }

    /// Eagerly prepares warp `w`'s next wake-up after it issued: fetch the
    /// next instruction, resolve its hazards, and point `warp_next` at the
    /// exact issue cycle so no intermediate scheduler steps are wasted
    /// (`mem_port_free` only grows, so folding today's value in keeps
    /// `warp_next` a valid lower bound). A fetch failure is deliberately
    /// swallowed — the warp wakes at its control-gap bound and the error
    /// surfaces on that scheduled scan.
    /// Note this can report a fault a few cycles later than the seed
    /// scheduler did (which fetched even not-yet-ready warps on every
    /// step), and a `max_cycles` limit falling inside that gap yields
    /// `CycleLimit` instead of the fetch fault. Only failing programs are
    /// affected; successful runs are cycle-for-cycle identical.
    fn refresh_after_issue<S: TraceSink + ?Sized>(&mut self, w: usize, ctx: &CoreCtx<'_, S>) {
        if !self.warps[w].schedulable() {
            return;
        }
        self.warp_next[w] = match self.fill_next(w, ctx) {
            Ok(t) => t,
            Err(_) => {
                self.next_issue[w].valid = false;
                self.warps[w].ready_at
            }
        };
    }

    /// Runs this core from cycle `start` until it has to hand control
    /// back to the device — the conservative-lookahead core of the event
    /// loop. Two bounds apply.
    ///
    /// **The horizon orders shared state.** The caller (the device)
    /// guarantees that no *other* core touches what cores share — the L2
    /// tags and bandwidth slots and the DRAM queues — in
    /// `[start, horizon)`, so inside that window this core does
    /// anything. At or past the horizon it keeps doing whatever is
    /// **core-local**: ALU/FPU work, control flow, barriers and warp
    /// spawns (all per core), and the L1 phase of every memory
    /// instruction — its walk through this core's own L1, which no other
    /// core reads or writes; the device-wide counters instructions bump
    /// are order-free sums. Only an instruction that *misses* has a
    /// shared half, the fills below the L1
    /// ([`MemSystem::finish_misses`]): past the horizon it is parked
    /// ([`Core::parked`]) with that half undone, the core returns `Next(now)`, and the
    /// device's `(cycle, core)` scan calls back when global time gets
    /// there — the call starts by serving the fills and retiring the
    /// instruction. The L1 and the levels below it are disjoint state, so
    /// the two halves may run apart; shared state sees exactly the
    /// request sequence of the cycle-by-cycle interleaving (equal cycles
    /// in ascending core id, whichever core the host reached first),
    /// while the core-local bulk of the stream costs one call per L1
    /// *miss* instead of one per lockstep cycle — and the host cache
    /// keeps one core's register file and tag array hot for the whole
    /// stretch.
    ///
    /// **The hard bound stops everything.** With
    /// [`CoreCtx::run_ahead_to`] set (one past the run's cycle limit)
    /// nothing is simulated that a `CycleLimit` would have cut off.
    /// `None` makes the horizon itself the hard bound — the strict
    /// windows a [`TraceSink`] needs to see `on_issue` in global order.
    ///
    /// `clock` is the device clock, the latest cycle any core simulated:
    /// a running max, since a core that ran ahead may be followed by one
    /// that is behind it.
    ///
    /// Within one cycle: warps whose cached
    /// [`warp_next`](Core::warp_next) bound lies in the future are
    /// skipped with a single `u64` compare, and at most one instruction
    /// issues per cycle (in-order SIMT pipe).
    //
    // Kept out of line: the device loop has one call site, and folding
    // this body into it measured +11 % on vxbench `paper_memory` and
    // +14 % on `tune_k6` (0/4 and 1/4 interleaved pairs better).
    #[inline(never)]
    pub fn run_until<S: TraceSink + ?Sized>(
        &mut self,
        start: Cycle,
        horizon: Cycle,
        clock: &mut Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<CoreOutcome, SimError> {
        ctx.work.windows += 1;
        let hard = ctx.run_ahead_to.unwrap_or(horizon);
        let n = self.warps.len();
        let mut now = start;
        loop {
            *clock = (*clock).max(now);
            // The warp that issues this cycle, if any.
            let mut issued = None;
            if let Some(mut parked) = self.parked.take() {
                // Global time has reached the parked instruction (the
                // device calls back at exactly its cycle): its fills go
                // below the L1 now, in order, and it retires.
                debug_assert_eq!(parked.now, now);
                parked.completion = parked.completion.max(self.finish_misses(ctx));
                self.retire(parked, ctx.timing)?;
                issued = Some(parked.w);
            } else {
                // Arbitration: the first warp in round-robin order
                // (wrapping by compare — `% n` would put a hardware
                // division on every slot) whose resolved issue time is
                // due. Slots whose cached bound lies in the future are
                // skipped with a single `u64` compare; optimistic bounds
                // resolve through `next_for` and are tightened in place,
                // so a lost round never repeats work.
                let mut w = self.last_issued;
                for _ in 0..n {
                    w += 1;
                    if w >= n {
                        w = 0;
                    }
                    if self.warp_next[w] > now {
                        continue;
                    }
                    let (instr, meta, t) = self.next_for(w, ctx)?;
                    if t <= now {
                        self.issue(w, instr, &meta, now, horizon, ctx)?;
                        if self.parked.is_some() {
                            ctx.work.deferred += 1;
                            return Ok(CoreOutcome::Next(now));
                        }
                        issued = Some(w);
                        break;
                    }
                    self.warp_next[w] = t;
                }
            }
            let issued_next = issued.map(|w| {
                self.last_issued = w;
                self.refresh_after_issue(w, ctx);
                self.warp_next[w]
            });
            // Next event. An issued warp due again by `now + 1`
            // (latency-1 result, untaken branch) short-circuits the
            // bounds min — the dominant case in ALU-dense stretches.
            // Otherwise one vectorisable min pass over the contiguous
            // bounds array decides the jump; it runs *after* the issue,
            // so bounds rewritten by the instruction itself (barrier
            // release, wspawn) are already visible. During a stall no
            // warp is walked at all beyond the arbitration pass that
            // tightened the bounds.
            let next = match issued_next {
                Some(at) if at <= now + 1 => now + 1,
                _ => {
                    let m = self.next_event();
                    if m == NEVER {
                        return if self.warps.iter().any(|x| x.active) {
                            // Only barrier-blocked warps remain.
                            let waiting =
                                self.barriers.iter().fold(0, |m, &(_, arrived)| m | arrived);
                            Err(SimError::BarrierDeadlock { cycle: now, core: self.id, waiting })
                        } else {
                            Ok(CoreOutcome::Idle)
                        };
                    }
                    // One issue per core per cycle; beyond that, resume
                    // at the earliest time any warp could possibly issue.
                    if issued_next.is_some() {
                        m.max(now + 1)
                    } else {
                        m
                    }
                }
            };
            if next >= hard {
                return Ok(CoreOutcome::Next(next));
            }
            now = next;
        }
    }

    /// The downstream phase of the walk whose misses are waiting in
    /// [`Core::misses`]: serves them through L2 and DRAM — shared state,
    /// so only ever called at this instruction's place in the global
    /// order — and returns the latest fill.
    fn finish_misses<S: TraceSink + ?Sized>(&mut self, ctx: &mut CoreCtx<'_, S>) -> Cycle {
        let filled = ctx.memsys.finish_misses(&mut self.misses);
        *ctx.horizon = (*ctx.horizon).max(filled);
        filled
    }

    /// Issues `instr` for warp `w` at cycle `now` — the one
    /// per-instruction walk of the in-order SIMT pipe.
    ///
    /// The **outcome step** asks the run's outcome source what the
    /// instruction did: [`Core::execute`] computes it, or
    /// [`Outcome::recorded`] reads it off the warp's stream (register and
    /// memory *values* are then not maintained, and the
    /// uniformity/divergence checks the recorded run already passed are
    /// skipped). The **shared tail** turns that outcome into timing — so
    /// cycles and counters cannot depend on which source ran.
    ///
    /// A memory instruction walks the hierarchy in two phases: this
    /// core's L1 first, then — for the lines that missed — L2 and DRAM.
    /// At `now ≥ horizon` the second phase must wait for the device to
    /// order it, so the instruction is left in [`Core::parked`] and the
    /// walk resumes in [`Core::run_until`].
    fn issue<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        instr: Instr,
        meta: &InstrMeta,
        now: Cycle,
        horizon: Cycle,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<(), SimError> {
        let pc = self.warps[w].pc;
        let tmask = self.warps[w].tmask;

        ctx.counters.instructions += 1;
        ctx.counters.lane_instructions += u64::from(tmask.count_ones());
        ctx.counters.classes.record(meta.class);
        if let Some(sink) = ctx.trace.as_mut() {
            sink.on_issue(&IssueEvent { cycle: now, core: self.id, warp: w, pc, tmask, instr });
        }

        // Lane-address scratch of the execute source (a recorded outcome
        // borrows the record's own list, so a replay never zeroes it).
        let mut lane_addrs;
        let out = match ctx.replay.as_mut() {
            Some(replay) => Outcome::recorded(instr, meta, replay, self.id, w)
                .ok_or(SimError::ReplayDiverged { core: self.id, warp: w, pc })?,
            None => {
                lane_addrs = [0u32; 32];
                self.execute(w, instr, now, &mut lane_addrs, ctx)?
            }
        };

        let is_store = meta.class == ExecClass::Store;
        if let Some(sink) = ctx.trace.as_mut() {
            if sink.wants_warp_events() {
                if let Some(event) = out.event(is_store) {
                    sink.on_warp_event(self.id, w, &event);
                }
            }
        }

        let timing = ctx.timing;
        let mut next_pc = pc.wrapping_add(4);
        // Completion cycle of the instruction's memory access, if any.
        let mut completion = 0;
        match out {
            Outcome::Static => {
                if let Instr::Jal { offset, .. } = instr {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Outcome::Ctl { next_pc: target, tmask } => {
                self.warps[w].tmask = tmask;
                next_pc = target;
            }
            Outcome::Halt => {
                self.warps[w].halt();
                self.warp_next[w] = NEVER;
                return Ok(());
            }
            Outcome::Wspawn { count, target } => {
                if count as usize > self.warps.len() {
                    return Err(SimError::WspawnTooManyWarps {
                        requested: count,
                        available: self.warps.len(),
                    });
                }
                self.activate_round(w, count as usize, target, now + timing.wspawn);
            }
            Outcome::Bar { id, count } => {
                self.warps[w].pc = next_pc;
                let slot = match self.barriers.iter().position(|&(open, _)| open == id) {
                    Some(slot) => slot,
                    None => {
                        self.barriers.push((id, 0));
                        self.barriers.len() - 1
                    }
                };
                self.barriers[slot].1 |= 1 << w;
                let mut arrived = self.barriers[slot].1;
                if arrived.count_ones() >= count {
                    // Warp `w` is among the released warps; they all get
                    // the same ready time, so release order is immaterial.
                    self.barriers.swap_remove(slot);
                    while arrived != 0 {
                        let rw = arrived.trailing_zeros() as usize;
                        arrived &= arrived - 1;
                        self.warps[rw].at_barrier = None;
                        self.warps[rw].ready_at = now + timing.barrier;
                        self.warp_next[rw] = now + timing.barrier;
                        self.next_issue[rw].valid = false;
                    }
                } else {
                    self.warps[w].at_barrier = Some(id);
                    self.warps[w].ready_at = NEVER;
                    self.warp_next[w] = NEVER;
                }
                return Ok(());
            }
            // One SIMT memory instruction is one walk of the hierarchy
            // (L1 bank serialisation, L2 bandwidth slots and DRAM
            // queueing all happen inside it), L1 phase first. A
            // contiguous span's coalesced line sequence is exactly the
            // ascending run of line bases it covers, generated
            // arithmetically ([`MemSystem::access_span_l1`]); a lane set
            // is coalesced against *this* run's line size first.
            Outcome::MemSpan { addr0, last } => {
                let misses = &mut self.misses;
                let mem = ctx.memsys.access_span_l1(self.id, addr0, last, now, is_store, misses);
                self.mem_port_free = now + mem.port_slots;
                *ctx.horizon = (*ctx.horizon).max(mem.completion);
                completion = mem.completion;
            }
            Outcome::MemLanes { addrs, lanes } => {
                let lines = coalesce_lines(set_lanes(addrs, lanes), ctx.line_bytes);
                let (lines, misses) = (lines.as_slice(), &mut self.misses);
                let mem = ctx.memsys.access_batch_l1(self.id, lines, now, is_store, misses);
                self.mem_port_free = now + mem.port_slots;
                if !lines.is_empty() {
                    *ctx.horizon = (*ctx.horizon).max(mem.completion);
                }
                completion = mem.completion;
            }
        }
        let mut issued = Issued { w, instr, meta: *meta, now, next_pc, completion };
        if !self.misses.is_empty() {
            if now >= horizon {
                self.parked = Some(issued);
                return Ok(());
            }
            issued.completion = completion.max(self.finish_misses(ctx));
        }
        self.retire(issued, timing)
    }

    /// The end of the shared tail: books the write-back of the
    /// instruction's destination — the access's completion for a load —
    /// and moves the warp on to its next PC.
    fn retire(&mut self, issued: Issued, timing: &TimingConfig) -> Result<(), SimError> {
        let Issued { w, instr, meta, now, next_pc, completion } = issued;
        let pc = self.warps[w].pc;
        // When the destination (`meta.dst`) becomes readable. Keyed on the
        // *instruction*, not the exec class: `vote`/`csr` write at ALU
        // latency despite their classes, FP compares/converts write
        // integer registers at FPU latency.
        let ready = match instr {
            Instr::Lui { .. }
            | Instr::Auipc { .. }
            | Instr::Jal { .. }
            | Instr::Jalr { .. }
            | Instr::OpImm { .. }
            | Instr::Csr { .. }
            | Instr::Vote { .. } => now + timing.alu,
            Instr::Op { .. } => {
                now + match meta.class {
                    ExecClass::Mul => timing.mul,
                    ExecClass::Div => timing.div,
                    _ => timing.alu,
                }
            }
            Instr::Load { .. } | Instr::Flw { .. } => completion,
            Instr::FpOp { op: FpBinOp::Div, .. } => now + timing.fdiv,
            Instr::FpSqrt { .. } => now + timing.fsqrt,
            Instr::FpOp { .. }
            | Instr::FpFma { .. }
            | Instr::FpCmp { .. }
            | Instr::FpCvtToInt { .. }
            | Instr::FpCvtFromInt { .. }
            | Instr::FpMvToInt { .. }
            | Instr::FpMvFromInt { .. }
            | Instr::FpClass { .. } => now + timing.fpu,
            Instr::Ecall => return Err(SimError::Trap { pc, breakpoint: false }),
            Instr::Ebreak => return Err(SimError::Trap { pc, breakpoint: true }),
            // No destination register.
            Instr::Branch { .. }
            | Instr::Store { .. }
            | Instr::Fsw { .. }
            | Instr::Fence
            | Instr::Tmc { .. }
            | Instr::Wspawn { .. }
            | Instr::Split { .. }
            | Instr::Join
            | Instr::Bar { .. } => 0,
        };
        if meta.dst != 0 {
            self.rf.set_busy(w, meta.dst as usize, ready);
        }

        let taken = next_pc != pc.wrapping_add(4);
        let gap = if taken && meta.is_control { 1 + timing.branch_bubble } else { 1 };
        self.warps[w].pc = next_pc;
        self.warps[w].ready_at = now + gap;
        // `ready_at` ignores the next instruction's register hazards,
        // so it is a valid (early) lower bound for the skip cache.
        self.warp_next[w] = now + gap;
        Ok(())
    }

    /// The *execute* outcome source: applies `instr`'s architectural
    /// effect — row kernels over the register file, functional memory,
    /// the divergence stack — and reports what the shared tail of
    /// [`Core::issue`] must time. Touches no timing state. `addrs` is the
    /// caller's lane-address scratch a [`Outcome::MemLanes`] borrows.
    fn execute<'o, S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        instr: Instr,
        now: Cycle,
        addrs: &'o mut [u32; 32],
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<Outcome<'o>, SimError> {
        let pc = self.warps[w].pc;
        let tmask = self.warps[w].tmask;
        // Whether every lane participates: selects the branch-free
        // contiguous row loops over the masked set-bit walks.
        let full = tmask == self.warps[w].full_mask();
        let fall_through = pc.wrapping_add(4);

        // Walks the active lanes of `tmask` (cost scales with set bits,
        // not the warp width).
        macro_rules! for_lanes {
            (|$l:ident| $body:expr) => {{
                let mut m = tmask;
                while m != 0 {
                    let $l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    $body
                }
            }};
        }
        // Every active lane's address `base[l] + offset` into `addrs`,
        // validated first: the lowest misaligned lane faults.
        macro_rules! lane_addrs {
            ($rs1:expr, $offset:expr, $align:expr) => {{
                let base = self.rf.row(w, $rs1.num() as usize);
                for_lanes!(|l| {
                    let addr = base[l].wrapping_add($offset as u32);
                    if addr & ($align - 1) != 0 {
                        return Err(SimError::MisalignedAccess { pc, addr, align: $align });
                    }
                    addrs[l] = addr;
                });
            }};
        }

        match instr {
            Instr::Lui { rd, imm } => {
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, imm as u32);
                }
            }
            Instr::Auipc { rd, imm } => {
                if !rd.is_zero() {
                    let v = pc.wrapping_add(imm as u32);
                    self.broadcast_k(w, full, tmask, rd.num() as usize, v);
                }
            }
            Instr::Jal { rd, .. } => {
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, fall_through);
                }
            }
            Instr::Jalr { rd, rs1, offset } => {
                let base = self.uniform(w, rs1, pc)?;
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, fall_through);
                }
                return Ok(Outcome::Ctl { next_pc: base.wrapping_add(offset as u32) & !1, tmask });
            }
            Instr::Branch { op, rs1, rs2, offset } => {
                let ra = self.rf.row(w, rs1.num() as usize);
                let rb = self.rf.row(w, rs2.num() as usize);
                let k = tables::branch_kernel(op);
                let ballot = if full { (k.full)(ra, rb) } else { (k.masked)(ra, rb, tmask) };
                if ballot != 0 && ballot != tmask {
                    return Err(SimError::DivergentBranch { core: self.id, warp: w, pc });
                }
                let next_pc =
                    if ballot != 0 { pc.wrapping_add(offset as u32) } else { fall_through };
                return Ok(Outcome::Ctl { next_pc, tmask });
            }
            Instr::Load { width, rd, rs1, offset } => {
                // Full-mask word-load fast paths for the two dominant SIMT
                // shapes — broadcast and unit-stride (see
                // [`Core::fast_word_load`]).
                if full && !rd.is_zero() && matches!(width, LoadWidth::Word) {
                    if let Some(span) =
                        self.fast_word_load(w, rd.num() as usize, rs1.num() as usize, offset, ctx)?
                    {
                        return Ok(span);
                    }
                }
                lane_addrs!(rs1, offset, load_width_bytes(width));
                if rd.is_zero() {
                    // Address fault/timing only; x0 swallows the values.
                } else if matches!(width, LoadWidth::Word) {
                    // Masked/strided word gather: batch the functional
                    // reads page run by page run instead of one page walk
                    // per lane.
                    let dst = self.rf.row_mut(w, rd.num() as usize);
                    ctx.mem.read_u32_gather(addrs, tmask, dst);
                } else {
                    let dst = self.rf.row_mut(w, rd.num() as usize);
                    for_lanes!(|l| {
                        let addr = addrs[l];
                        dst[l] = match width {
                            LoadWidth::Byte => ctx.mem.read_u8(addr) as i8 as i32 as u32,
                            LoadWidth::ByteU => ctx.mem.read_u8(addr) as u32,
                            LoadWidth::Half => ctx.mem.read_u16(addr) as i16 as i32 as u32,
                            LoadWidth::HalfU => ctx.mem.read_u16(addr) as u32,
                            LoadWidth::Word => ctx.mem.read_u32(addr),
                        };
                    });
                }
                return Ok(Outcome::MemLanes { addrs: &addrs[..], lanes: tmask });
            }
            Instr::Store { width, rs2, rs1, offset } => {
                // Unit-stride full-mask word stores take the shared bulk
                // helper; broadcast stores stay on the lane loop (see
                // [`Core::fast_word_store`]).
                if full && matches!(width, StoreWidth::Word) {
                    if let Some(span) =
                        self.fast_word_store(w, rs1.num() as usize, rs2.num() as usize, offset, ctx)
                    {
                        return Ok(span);
                    }
                }
                lane_addrs!(rs1, offset, store_width_bytes(width));
                let vals = self.rf.row(w, rs2.num() as usize);
                for_lanes!(|l| match width {
                    StoreWidth::Byte => ctx.mem.write_u8(addrs[l], vals[l] as u8),
                    StoreWidth::Half => ctx.mem.write_u16(addrs[l], vals[l] as u16),
                    StoreWidth::Word => ctx.mem.write_u32(addrs[l], vals[l]),
                });
                return Ok(Outcome::MemLanes { addrs: &addrs[..], lanes: tmask });
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                if !rd.is_zero() {
                    let k = tables::alu_imm_kernel(op);
                    self.run_imm_k(w, full, tmask, k, rd.num() as usize, rs1.num() as usize, imm);
                }
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                if !rd.is_zero() {
                    let k = tables::alu_kernel(op);
                    let (d, s1, s2) = (rd.num() as usize, rs1.num() as usize, rs2.num() as usize);
                    if matches!(op, AluOp::Divu | AluOp::Remu) {
                        // Uniform power-of-two strength reduction (see
                        // [`Core::run_divrem_k`]).
                        let rem = matches!(op, AluOp::Remu);
                        self.run_divrem_k(w, full, tmask, rem, k, d, s1, s2);
                    } else {
                        self.run_bin_k(w, full, tmask, k, d, s1, s2);
                    }
                }
            }
            Instr::Fence | Instr::Ecall | Instr::Ebreak => {}
            Instr::Csr { op: _, rd, src: _, csr } => {
                // All architectural CSRs are read-only; writes are ignored.
                // Timing-dependent CSR values poison cross-configuration
                // replay; a recording sink taints the trace.
                if csr == csrs::MCYCLE
                    || csr == csrs::MCYCLE_H
                    || csr == csrs::MINSTRET
                    || csr == csrs::MINSTRET_H
                    || csr == csrs::ACTIVE_WARPS
                {
                    if let Some(sink) = ctx.trace.as_mut() {
                        if sink.wants_warp_events() {
                            sink.on_timing_csr_read();
                        }
                    }
                }
                if rd.is_zero() {
                    // x0 swallows the value.
                } else if csr == csrs::THREAD_ID {
                    let dst = self.rf.row_mut(w, rd.num() as usize);
                    for_lanes!(|l| dst[l] = l as u32);
                } else {
                    // Every other CSR is lane-invariant: resolve it once
                    // and broadcast instead of re-matching per lane.
                    let v = self.read_csr(csr, w, 0, now, ctx);
                    self.broadcast_k(w, full, tmask, rd.num() as usize, v);
                }
            }
            Instr::Flw { rd, rs1, offset } => {
                let dense = FP_BASE + rd.num() as usize;
                // Broadcast / unit-stride fast paths, as for integer word
                // loads; masked/strided gather otherwise.
                if full {
                    if let Some(span) =
                        self.fast_word_load(w, dense, rs1.num() as usize, offset, ctx)?
                    {
                        return Ok(span);
                    }
                }
                lane_addrs!(rs1, offset, 4);
                ctx.mem.read_u32_gather(addrs, tmask, self.rf.row_mut(w, dense));
                return Ok(Outcome::MemLanes { addrs: &addrs[..], lanes: tmask });
            }
            Instr::Fsw { rs2, rs1, offset } => {
                let vals_dense = FP_BASE + rs2.num() as usize;
                // Unit-stride full-mask bulk path, as for word stores.
                if full {
                    if let Some(span) =
                        self.fast_word_store(w, rs1.num() as usize, vals_dense, offset, ctx)
                    {
                        return Ok(span);
                    }
                }
                lane_addrs!(rs1, offset, 4);
                let vals = self.rf.row(w, vals_dense);
                for_lanes!(|l| ctx.mem.write_u32(addrs[l], vals[l]));
                return Ok(Outcome::MemLanes { addrs: &addrs[..], lanes: tmask });
            }
            Instr::FpOp { op, rd, rs1, rs2 } => self.run_bin_k(
                w,
                full,
                tmask,
                tables::fp_bin_kernel(op),
                FP_BASE + rd.num() as usize,
                FP_BASE + rs1.num() as usize,
                FP_BASE + rs2.num() as usize,
            ),
            Instr::FpFma { op, rd, rs1, rs2, rs3 } => self.run_fma_k(
                w,
                full,
                tmask,
                tables::fma_kernel(op),
                FP_BASE + rd.num() as usize,
                FP_BASE + rs1.num() as usize,
                FP_BASE + rs2.num() as usize,
                FP_BASE + rs3.num() as usize,
            ),
            Instr::FpSqrt { rd, rs1 } => {
                let (d, s) = (FP_BASE + rd.num() as usize, FP_BASE + rs1.num() as usize);
                self.run_un_k(w, full, tmask, tables::fsqrt_kernel(), d, s);
            }
            Instr::FpCmp { op, rd, rs1, rs2 } => {
                if !rd.is_zero() {
                    self.run_bin_k(
                        w,
                        full,
                        tmask,
                        tables::fp_cmp_kernel(op),
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                        FP_BASE + rs2.num() as usize,
                    );
                }
            }
            Instr::FpCvtToInt { signed, rd, rs1 } => {
                if !rd.is_zero() {
                    let k = tables::fcvt_to_int_kernel(signed);
                    self.run_un_k(
                        w,
                        full,
                        tmask,
                        k,
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                    );
                }
            }
            Instr::FpCvtFromInt { signed, rd, rs1 } => {
                let k = tables::fcvt_from_int_kernel(signed);
                self.run_un_k(w, full, tmask, k, FP_BASE + rd.num() as usize, rs1.num() as usize);
            }
            Instr::FpMvToInt { rd, rs1 } => {
                if !rd.is_zero() {
                    let k = tables::fmv_bits_kernel();
                    self.run_un_k(
                        w,
                        full,
                        tmask,
                        k,
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                    );
                }
            }
            Instr::FpMvFromInt { rd, rs1 } => {
                let k = tables::fmv_bits_kernel();
                self.run_un_k(w, full, tmask, k, FP_BASE + rd.num() as usize, rs1.num() as usize);
            }
            Instr::FpClass { rd, rs1 } => {
                if !rd.is_zero() {
                    let k = tables::fclass_kernel();
                    self.run_un_k(
                        w,
                        full,
                        tmask,
                        k,
                        rd.num() as usize,
                        FP_BASE + rs1.num() as usize,
                    );
                }
            }
            Instr::Tmc { rs1 } => {
                let mask = self.uniform(w, rs1, pc)? & self.warps[w].full_mask();
                return Ok(if mask == 0 {
                    Outcome::Halt
                } else {
                    Outcome::Ctl { next_pc: fall_through, tmask: mask }
                });
            }
            Instr::Wspawn { rs1, rs2 } => {
                let count = self.uniform(w, rs1, pc)?;
                let target = self.uniform(w, rs2, pc)?;
                return Ok(Outcome::Wspawn { count, target });
            }
            Instr::Split { rs1, offset } => {
                if self.warps[w].ipdom.len() >= ctx.ipdom_depth {
                    return Err(SimError::IpdomOverflow { pc });
                }
                let row = self.rf.row(w, rs1.num() as usize);
                let mut taken = 0u32;
                for_lanes!(|l| taken |= u32::from(row[l] != 0) << l);
                let not_taken = tmask & !taken;
                let else_pc = pc.wrapping_add(offset as u32);
                let (entry, next_pc, next_mask) = if not_taken == 0 {
                    (IpdomEntry::Uniform { restore_mask: tmask }, fall_through, tmask)
                } else if taken == 0 {
                    (IpdomEntry::Uniform { restore_mask: tmask }, else_pc, tmask)
                } else {
                    let pending = IpdomEntry::ElsePending {
                        restore_mask: tmask,
                        else_mask: not_taken,
                        else_pc,
                    };
                    (pending, fall_through, taken)
                };
                self.warps[w].ipdom.push(entry);
                return Ok(Outcome::Ctl { next_pc, tmask: next_mask });
            }
            Instr::Join => {
                return match self.warps[w].ipdom.pop() {
                    None => Err(SimError::IpdomUnderflow { pc }),
                    Some(IpdomEntry::Uniform { restore_mask })
                    | Some(IpdomEntry::ElseRunning { restore_mask }) => {
                        Ok(Outcome::Ctl { next_pc: fall_through, tmask: restore_mask })
                    }
                    Some(IpdomEntry::ElsePending { restore_mask, else_mask, else_pc }) => {
                        self.warps[w].ipdom.push(IpdomEntry::ElseRunning { restore_mask });
                        Ok(Outcome::Ctl { next_pc: else_pc, tmask: else_mask })
                    }
                };
            }
            Instr::Bar { rs1, rs2 } => {
                let id = self.uniform(w, rs1, pc)?;
                let count = self.uniform(w, rs2, pc)?;
                return Ok(Outcome::Bar { id, count });
            }
            Instr::Vote { op, rd, rs1 } => {
                let row = self.rf.row(w, rs1.num() as usize);
                let mut ballot = 0u32;
                for_lanes!(|l| ballot |= u32::from(row[l] != 0) << l);
                let result = match op {
                    VoteOp::Any => u32::from(ballot != 0),
                    VoteOp::All => u32::from(ballot == tmask),
                    VoteOp::Ballot => ballot,
                };
                if !rd.is_zero() {
                    self.broadcast_k(w, full, tmask, rd.num() as usize, result);
                }
            }
        }
        Ok(Outcome::Static)
    }

    /// Snapshots source row `dense` into `buf`: whole-row move under a
    /// full mask, active-lane gather otherwise (divergent wide warps
    /// would pay more for the 128-byte copy than for the compute).
    #[inline]
    fn read_src(&self, w: usize, full: bool, tmask: u32, dense: usize, buf: &mut [u32; 32]) {
        if full {
            let _ = self.rf.copy_row(w, dense, buf);
        } else {
            self.rf.gather_row(w, dense, tmask, buf);
        }
    }

    /// Broadcasts one value to every active lane of destination row `d`.
    #[inline]
    fn broadcast_k(&mut self, w: usize, full: bool, tmask: u32, d: usize, v: u32) {
        let dst = self.rf.row_mut(w, d);
        if full {
            dst.fill(v);
        } else {
            let mut m = tmask;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                dst[l] = v;
            }
        }
    }

    /// Applies a two-source row kernel: copy-free when no source row
    /// aliases the destination ([`RegFile::dst_src2`]), snapshot buffers
    /// otherwise. Identical values either way — the copy path exists only
    /// to resolve `dst == src` aliasing.
    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path kernel call: flat scalar args keep it register-passed
    fn run_bin_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static BinKernel,
        d: usize,
        s1: usize,
        s2: usize,
    ) {
        match self.rf.dst_src2(w, d, s1, s2) {
            Some((dst, a, b)) => {
                if full {
                    (k.full)(dst, a, b)
                } else {
                    (k.masked)(dst, a, b, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                let mut b = [0u32; 32];
                self.read_src(w, full, tmask, s1, &mut a);
                self.read_src(w, full, tmask, s2, &mut b);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a, &b)
                } else {
                    (k.masked)(dst, &a, &b, tmask)
                }
            }
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // hot-path kernel call: flat scalar args keep it register-passed
    fn run_imm_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static ImmKernel,
        d: usize,
        s: usize,
        imm: i32,
    ) {
        match self.rf.dst_src1(w, d, s) {
            Some((dst, a)) => {
                if full {
                    (k.full)(dst, a, imm)
                } else {
                    (k.masked)(dst, a, imm, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                self.read_src(w, full, tmask, s, &mut a);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a, imm)
                } else {
                    (k.masked)(dst, &a, imm, tmask)
                }
            }
        }
    }

    #[inline]
    fn run_un_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static UnKernel,
        d: usize,
        s: usize,
    ) {
        match self.rf.dst_src1(w, d, s) {
            Some((dst, a)) => {
                if full {
                    (k.full)(dst, a)
                } else {
                    (k.masked)(dst, a, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                self.read_src(w, full, tmask, s, &mut a);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a)
                } else {
                    (k.masked)(dst, &a, tmask)
                }
            }
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)] // the operand shape of an FMA
    fn run_fma_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        k: &'static FmaKernel,
        d: usize,
        s1: usize,
        s2: usize,
        s3: usize,
    ) {
        match self.rf.dst_src3(w, d, s1, s2, s3) {
            Some((dst, a, b, c)) => {
                if full {
                    (k.full)(dst, a, b, c)
                } else {
                    (k.masked)(dst, a, b, c, tmask)
                }
            }
            None => {
                let mut a = [0u32; 32];
                let mut b = [0u32; 32];
                let mut c = [0u32; 32];
                self.read_src(w, full, tmask, s1, &mut a);
                self.read_src(w, full, tmask, s2, &mut b);
                self.read_src(w, full, tmask, s3, &mut c);
                let dst = self.rf.row_mut(w, d);
                if full {
                    (k.full)(dst, &a, &b, &c)
                } else {
                    (k.masked)(dst, &a, &b, &c, tmask)
                }
            }
        }
    }

    /// `divu`/`remu` by a uniform power-of-two divisor (the `item / hs`,
    /// `item % hs` indexing idiom) becomes a shift/mask — a host hardware
    /// division per lane is the single most expensive ALU op and cannot
    /// be vectorised. The uniformity check reads the divisor row in
    /// place; the rewrite reuses the `srli`/`andi` kernels, whose scalar
    /// semantics are exactly `a >> sh` and `a & mask`.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the binary-op shape plus the op flag
    fn run_divrem_k(
        &mut self,
        w: usize,
        full: bool,
        tmask: u32,
        rem: bool,
        k: &'static BinKernel,
        d: usize,
        s1: usize,
        s2: usize,
    ) {
        let b = self.rf.row(w, s2);
        let uni = if full {
            if b[1..].iter().all(|&x| x == b[0]) {
                Some(b[0])
            } else {
                None
            }
        } else {
            let first = tmask.trailing_zeros() as usize;
            let mut m = tmask;
            let mut uni = Some(b[first]);
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                if b[l] != b[first] {
                    uni = None;
                    break;
                }
            }
            uni
        };
        if let Some(dv) = uni {
            if dv != 0 && dv.is_power_of_two() {
                let (ik, imm) = if rem {
                    (tables::alu_imm_kernel(AluImmOp::And), (dv - 1) as i32)
                } else {
                    (tables::alu_imm_kernel(AluImmOp::Srl), dv.trailing_zeros() as i32)
                };
                self.run_imm_k(w, full, tmask, ik, d, s1, imm);
                return;
            }
        }
        self.run_bin_k(w, full, tmask, k, d, s1, s2);
    }

    /// First-class dispatch-round activation — the `vx_wspawn` half of
    /// the in-kernel round loop (spawn → work → barrier → respawn).
    /// (Re)starts warps `1..count`, except the spawning warp, at
    /// `target`: the warp slots stay **resident** across rounds — a
    /// reactivation reuses the slot's control block, divergence stack
    /// and register storage in place (one bulk [`RegFile::clear_warp`]
    /// per slot; a *dirty-row* clear that re-zeroed only the previous
    /// round's writes was prototyped here and reverted — tracking
    /// dirtiness cost more on the per-instruction path than the bulk
    /// clear it saved, see README "PR5 results").
    fn activate_round(&mut self, spawner: usize, count: usize, target: u32, ready_at: Cycle) {
        for i in 1..count {
            if i == spawner {
                continue;
            }
            let full = self.warps[i].full_mask();
            self.warps[i].start(target, full, ready_at);
            self.rf.clear_warp(i);
            self.warp_next[i] = ready_at;
            // Respawn resets scheduling state; a cached entry could alias
            // the same PC with stale hazards.
            self.next_issue[i].valid = false;
        }
    }

    /// Full-mask broadcast / unit-stride word-**load** fast path from base
    /// row `base` into the dense destination row `dense` (integer `Load`
    /// and `Flw`; `fast_word_store` is the store dual). Returns the span
    /// when the access was served bulk, with values, coalesced line
    /// sequence and misalignment faults identical to the lane loop: a
    /// misaligned *broadcast* faults here (lane 0 is the first lane the
    /// general path would check), while a misaligned *stride* never
    /// classifies and falls back to the lane loop, which raises the same
    /// fault on lane 0.
    fn fast_word_load<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        dense: usize,
        base: usize,
        offset: i32,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Result<Option<Outcome<'static>>, SimError> {
        match span::classify(self.rf.row(w, base), offset) {
            Span::Broadcast { addr0 } => {
                if addr0 & 3 != 0 {
                    let pc = self.warps[w].pc;
                    return Err(SimError::MisalignedAccess { pc, addr: addr0, align: 4 });
                }
                let v = ctx.mem.read_u32(addr0);
                self.rf.row_mut(w, dense).fill(v);
                Ok(Some(Outcome::MemSpan { addr0, last: addr0 }))
            }
            Span::UnitStride { addr0, last } => {
                ctx.mem.read_u32_into(addr0, self.rf.row_mut(w, dense));
                Ok(Some(Outcome::MemSpan { addr0, last }))
            }
            Span::Irregular => Ok(None),
        }
    }

    /// Unit-stride full-mask word-**store** fast path (the shared copy
    /// behind integer `Store` and `Fsw`). Broadcast rows are deliberately
    /// rejected: overlapping stores must land in lane order, which only
    /// the lane loop preserves. Returns the span when the store was
    /// served bulk.
    fn fast_word_store<S: TraceSink + ?Sized>(
        &mut self,
        w: usize,
        base: usize,
        vals: usize,
        offset: i32,
        ctx: &mut CoreCtx<'_, S>,
    ) -> Option<Outcome<'static>> {
        match span::classify(self.rf.row(w, base), offset) {
            Span::UnitStride { addr0, last } => {
                ctx.mem.write_u32_from(addr0, self.rf.row(w, vals));
                Some(Outcome::MemSpan { addr0, last })
            }
            Span::Broadcast { .. } | Span::Irregular => None,
        }
    }

    /// The value of `reg` in the lowest active lane of warp `w`, with a
    /// uniformity check across all active lanes.
    fn uniform(&self, w: usize, reg: vortex_isa::Reg, pc: u32) -> Result<u32, SimError> {
        let tmask = self.warps[w].tmask;
        let err = SimError::NonUniformOperand { core: self.id, warp: w, pc };
        if tmask == 0 {
            return Err(err);
        }
        let row = self.rf.row(w, reg.num() as usize);
        let v = row[tmask.trailing_zeros() as usize];
        let mut m = tmask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            if row[l] != v {
                return Err(err);
            }
        }
        Ok(v)
    }

    fn read_csr<S: TraceSink + ?Sized>(
        &self,
        csr: Csr,
        w: usize,
        lane: usize,
        now: Cycle,
        ctx: &CoreCtx<'_, S>,
    ) -> u32 {
        match csr {
            c if c == csrs::THREAD_ID => lane as u32,
            c if c == csrs::WARP_ID => w as u32,
            c if c == csrs::CORE_ID => self.id as u32,
            c if c == csrs::THREAD_MASK => self.warps[w].tmask,
            c if c == csrs::ACTIVE_WARPS => self.active_warp_mask(),
            c if c == csrs::NUM_THREADS => self.warps[w].threads() as u32,
            c if c == csrs::NUM_WARPS => self.warps.len() as u32,
            c if c == csrs::NUM_CORES => ctx.num_cores as u32,
            c if c == csrs::MCYCLE => now as u32,
            c if c == csrs::MCYCLE_H => (now >> 32) as u32,
            c if c == csrs::MINSTRET => ctx.counters.instructions as u32,
            c if c == csrs::MINSTRET_H => (ctx.counters.instructions >> 32) as u32,
            _ => 0,
        }
    }
}

fn load_width_bytes(width: LoadWidth) -> u32 {
    match width {
        LoadWidth::Byte | LoadWidth::ByteU => 1,
        LoadWidth::Half | LoadWidth::HalfU => 2,
        LoadWidth::Word => 4,
    }
}

fn store_width_bytes(width: StoreWidth) -> u32 {
    match width {
        StoreWidth::Byte => 1,
        StoreWidth::Half => 2,
        StoreWidth::Word => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::reg;

    #[test]
    fn uniform_check_reads_active_lanes_only() {
        let mut core = Core::new(0, 1, 4);
        core.start_warp(0, 0x100, 0);
        core.warps[0].tmask = 0b0110;
        core.rf.row_mut(0, reg::T1.num() as usize).copy_from_slice(&[99, 7, 7, 99]);
        assert_eq!(core.uniform(0, reg::T1, 0x100).unwrap(), 7);
        core.rf.row_mut(0, reg::T1.num() as usize)[2] = 8;
        assert!(core.uniform(0, reg::T1, 0x100).is_err());
        // x0 is uniform zero regardless of lane contents.
        assert_eq!(core.uniform(0, reg::ZERO, 0x100).unwrap(), 0);
    }

    #[test]
    fn start_warp_clears_register_block() {
        let mut core = Core::new(0, 2, 4);
        core.start_warp(0, 0x100, 0);
        core.rf.row_mut(0, 5)[1] = 42;
        core.rf.set_busy(0, 5, 9);
        core.rf.row_mut(1, 5)[0] = 17;
        core.start_warp(0, 0x200, 0);
        assert_eq!(core.rf.row(0, 5), &[0; 4]);
        assert_eq!(core.rf.busy_until(0, 5), 0);
        // Warp 1's rows are untouched by warp 0's restart.
        assert_eq!(core.rf.read(1, 5, 0), 17);
    }
}
