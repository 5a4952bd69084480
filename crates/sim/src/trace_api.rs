//! Trace hooks: the simulator's view of instruction issue events.

use vortex_isa::Instr;
use vortex_mem::Cycle;

use crate::error::SimError;

/// One instruction issue, as observed by the paper's trace analysis
/// (Fig. 1 plots exactly these fields: timestamp, PC, warp and the active
/// thread mask).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct IssueEvent {
    /// Issue cycle.
    pub cycle: Cycle,
    /// Core index.
    pub core: usize,
    /// Warp index within the core.
    pub warp: usize,
    /// Program counter of the instruction.
    pub pc: u32,
    /// Active thread mask at issue.
    pub tmask: u32,
    /// The issued instruction.
    pub instr: Instr,
}

impl IssueEvent {
    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.tmask.count_ones()
    }
}

/// One architecturally-dynamic outcome of an issued instruction — the
/// minimal record a timing-only replay needs. Statically-determined
/// behaviour (fall-through PCs, `jal` targets, write-back registers and
/// latencies) is reconstructed from the decoded instruction at replay
/// time; only outcomes that depend on register *values* are recorded:
/// control transfers and mask updates, warp spawns, barrier operands, and
/// the lane-address footprint of each memory access (pre-coalescing, so
/// replay re-coalesces against its own cache geometry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WarpEvent {
    /// A value-dependent control outcome: the PC and thread mask *after*
    /// the instruction (branch, `jalr`, `vx_split`, `vx_join`, non-zero
    /// `vx_tmc`).
    Ctl {
        /// The next PC of the warp.
        next_pc: u32,
        /// The thread mask after the instruction.
        tmask: u32,
    },
    /// `vx_tmc` to an empty mask: the warp halts.
    Halt,
    /// `vx_wspawn` operands (warp count and target PC).
    Wspawn {
        /// Number of warps in the round (slots `1..count` are started).
        count: u32,
        /// Start PC of the spawned warps.
        target: u32,
    },
    /// `vx_bar` operands (barrier id and arrival count).
    Bar {
        /// Barrier identifier.
        id: u32,
        /// Warps that must arrive before release.
        count: u32,
    },
    /// A contiguous ascending memory span (the broadcast / unit-stride
    /// fast paths): raw byte addresses of the first and last word.
    MemSpan {
        /// First byte address.
        addr0: u32,
        /// Last byte address.
        last: u32,
        /// Whether the access was a store.
        store: bool,
    },
    /// A general gather/scatter: the active lanes' byte addresses in lane
    /// order, before coalescing.
    MemLanes {
        /// Active-lane addresses, ascending lane index.
        addrs: Vec<u32>,
        /// Whether the access was a store.
        store: bool,
    },
}

/// Receiver for issue events.
///
/// Implementations must be cheap; the sink runs on the simulator's hot
/// path. Collect first, analyse later (see `vortex-trace`).
///
/// Beyond the per-issue hook, sinks may opt into *warp-event* recording —
/// the value-dependent outcome stream a timing-only replay consumes (see
/// [`WarpEvent`]). The extra hooks default to no-ops and are only invoked
/// when [`wants_warp_events`](TraceSink::wants_warp_events) returns
/// `true`, so ordinary sinks pay one inlined boolean check.
pub trait TraceSink {
    /// Called once per issued instruction, in the device's global
    /// `(cycle, core)` order: cycles never decrease from one call to the
    /// next, and within a cycle cores report in ascending id (one issue
    /// per core per cycle). Attaching a sink is what *makes* the run
    /// keep that order — an untraced run lets each core simulate its
    /// core-local work ahead of the others and orders cores only where
    /// they touch shared state, which a sink would observe as events out
    /// of time order. Cycles, counters and memory are the same either way.
    fn on_issue(&mut self, event: &IssueEvent);

    /// Whether the sink wants [`WarpEvent`]s. Default `false`; the core
    /// skips all event assembly (including lane-address collection) when
    /// this is off.
    fn wants_warp_events(&self) -> bool {
        false
    }

    /// Called once per dynamic outcome of `(core, warp)`, in that warp's
    /// program order (the only order replay needs — cross-warp ordering
    /// is reconstructed by the replay scheduler itself).
    fn on_warp_event(&mut self, _core: usize, _warp: usize, _event: &WarpEvent) {}

    /// Called at the start of every [`Device::run`](crate::Device) —
    /// i.e. once per kernel launch — so multi-launch recordings keep
    /// per-launch stream boundaries.
    fn on_launch_begin(&mut self) {}

    /// Called when a warp reads a timing-dependent CSR (`mcycle`,
    /// `minstret`, `active_warps`): the recorded stream is then only
    /// valid for the exact configuration that produced it, and a
    /// recorder must refuse to offer it for cross-configuration replay.
    fn on_timing_csr_read(&mut self) {}
}

/// The no-op sink: discards every event.
///
/// Untraced runs are monomorphised against this type (see
/// [`Device::run_untraced`](crate::Device::run_untraced)), so the entire
/// trace hook — virtual dispatch included — compiles away on the
/// simulator's hot path. *Attaching* one (`Some(&mut NullSink)`) is
/// still attaching a sink: the run keeps strict global order (see
/// [`TraceSink::on_issue`]), which is how tests and `cycle_dump traced`
/// get the strict interleaving without collecting anything.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn on_issue(&mut self, _event: &IssueEvent) {}
}

/// The trivial sink: collects every event into a vector.
///
/// # Examples
///
/// ```
/// use vortex_sim::{IssueEvent, TraceSink, VecTraceSink};
/// let mut sink = VecTraceSink::new();
/// // ... pass `&mut sink` to `Device::run` ...
/// assert!(sink.events().is_empty());
/// ```
#[derive(Debug, Default)]
pub struct VecTraceSink {
    events: Vec<IssueEvent>,
}

impl VecTraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected events.
    pub fn events(&self) -> &[IssueEvent] {
        &self.events
    }

    /// Consumes the sink, returning the events.
    pub fn into_events(self) -> Vec<IssueEvent> {
        self.events
    }
}

impl TraceSink for VecTraceSink {
    fn on_issue(&mut self, event: &IssueEvent) {
        self.events.push(*event);
    }
}

/// The warp-event streams of one kernel launch: one vector of
/// [`WarpEvent`]s per `(core, warp)` slot, in that warp's program order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Warps per core (the stream-index stride).
    warps: usize,
    /// `cores × warps` streams, indexed `core * warps + warp`.
    streams: Vec<Vec<WarpEvent>>,
}

impl LaunchRecord {
    /// An empty record for a `cores × warps` device.
    pub fn new(cores: usize, warps: usize) -> Self {
        LaunchRecord { warps, streams: vec![Vec::new(); cores * warps] }
    }

    /// Rebuilds a record from raw streams (the trace decoder's entry).
    ///
    /// # Panics
    ///
    /// Panics if `streams.len()` is not a multiple of `warps`.
    pub fn from_streams(warps: usize, streams: Vec<Vec<WarpEvent>>) -> Self {
        assert!(
            warps > 0 && streams.len().is_multiple_of(warps),
            "stream count must cover whole cores"
        );
        LaunchRecord { warps, streams }
    }

    /// Warps per core.
    pub fn warps(&self) -> usize {
        self.warps
    }

    /// The raw streams, indexed `core * warps + warp` (codec access).
    pub fn streams(&self) -> &[Vec<WarpEvent>] {
        &self.streams
    }

    /// Appends an event to `(core, warp)`'s stream.
    pub fn push(&mut self, core: usize, warp: usize, event: WarpEvent) {
        self.streams[core * self.warps + warp].push(event);
    }

    /// Total events across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(Vec::len).sum()
    }

    /// Whether no stream holds any event.
    pub fn is_empty(&self) -> bool {
        self.streams.iter().all(Vec::is_empty)
    }

    /// A fresh cursor positioned at the start of every stream.
    pub fn cursor(&self) -> ReplayCursor {
        ReplayCursor { pos: vec![0; self.streams.len()] }
    }

    /// Events `cursor` has not consumed. A successful replay must end
    /// with zero left over — a surplus means the replayed run diverged
    /// from the recorded one.
    pub fn leftover(&self, cursor: &ReplayCursor) -> usize {
        self.streams.iter().zip(&cursor.pos).map(|(s, &p)| s.len().saturating_sub(p)).sum()
    }
}

/// A complete recorded trace: one [`LaunchRecord`] per kernel launch, in
/// launch order, plus the topology it is bound to and the taint flag.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecordedTrace {
    /// Cores of the recording device.
    pub cores: usize,
    /// Warps per core of the recording device.
    pub warps: usize,
    /// Whether a timing-dependent CSR was read during recording: a
    /// tainted stream is only valid for the exact configuration that
    /// produced it and must never be offered for cross-configuration
    /// replay.
    pub tainted: bool,
    /// Per-launch event streams, in launch order.
    pub launches: Vec<LaunchRecord>,
}

/// A [`TraceSink`] that records the warp-event streams of every launch —
/// the *record* half of the record/replay engine.
///
/// # Examples
///
/// ```
/// use vortex_sim::TraceRecorder;
/// let recorder = TraceRecorder::new(2, 4);
/// let trace = recorder.finish();
/// assert_eq!((trace.cores, trace.warps), (2, 4));
/// assert!(trace.launches.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TraceRecorder {
    trace: RecordedTrace,
}

impl TraceRecorder {
    /// A recorder for a `cores × warps` device.
    pub fn new(cores: usize, warps: usize) -> Self {
        TraceRecorder {
            trace: RecordedTrace { cores, warps, tainted: false, launches: Vec::new() },
        }
    }

    /// Consumes the recorder, returning the trace.
    pub fn finish(self) -> RecordedTrace {
        self.trace
    }
}

impl TraceSink for TraceRecorder {
    fn on_issue(&mut self, _event: &IssueEvent) {}

    fn wants_warp_events(&self) -> bool {
        true
    }

    fn on_warp_event(&mut self, core: usize, warp: usize, event: &WarpEvent) {
        self.trace.launches.last_mut().expect("on_launch_begin precedes every warp event").push(
            core,
            warp,
            event.clone(),
        );
    }

    fn on_launch_begin(&mut self) {
        let (c, w) = (self.trace.cores, self.trace.warps);
        self.trace.launches.push(LaunchRecord::new(c, w));
    }

    fn on_timing_csr_read(&mut self) {
        self.trace.tainted = true;
    }
}

/// Per-stream read positions into a [`LaunchRecord`] — the replay run's
/// only mutable trace state, owned by the caller so the record itself can
/// be shared immutably (and re-replayed with a fresh cursor).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayCursor {
    pos: Vec<usize>,
}

/// The core-facing replay handle: the launch's streams plus the cursor
/// positions, borrowed together for one run.
pub(crate) struct ReplayCtx<'a> {
    rec: &'a LaunchRecord,
    pos: &'a mut [usize],
}

impl<'a> ReplayCtx<'a> {
    /// Borrows `rec` and `cursor` for one run on a `cores × warps`
    /// device. [`next`](ReplayCtx::next) indexes both by
    /// `core * warps + warp`, so a record or cursor built for another
    /// topology is refused here.
    ///
    /// # Errors
    ///
    /// [`SimError::ReplayShape`] on a stride or stream-count mismatch.
    pub fn new(
        rec: &'a LaunchRecord,
        cursor: &'a mut ReplayCursor,
        cores: usize,
        warps: usize,
    ) -> Result<Self, SimError> {
        for streams in [rec.streams.len(), cursor.pos.len()] {
            if streams != cores * warps || rec.warps != warps {
                return Err(SimError::ReplayShape {
                    streams,
                    warps: rec.warps,
                    device: (cores, warps),
                });
            }
        }
        Ok(ReplayCtx { rec, pos: &mut cursor.pos })
    }

    /// The next recorded event of `(core, warp)`, advancing the cursor.
    /// The returned reference borrows the *record*, not the cursor, so a
    /// caller may keep it while re-emitting to a sink.
    pub fn next(&mut self, core: usize, warp: usize) -> Option<&'a WarpEvent> {
        let i = core * self.rec.warps + warp;
        let ev = self.rec.streams[i].get(self.pos[i])?;
        self.pos[i] += 1;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_isa::Instr;

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecTraceSink::new();
        for cycle in 0..3 {
            sink.on_issue(&IssueEvent {
                cycle,
                core: 0,
                warp: 0,
                pc: 0x8000_0000 + 4 * cycle as u32,
                tmask: 0xF,
                instr: Instr::Join,
            });
        }
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.events()[2].pc, 0x8000_0008);
        assert_eq!(sink.events()[0].active_lanes(), 4);
    }
}
