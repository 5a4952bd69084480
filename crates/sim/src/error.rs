//! Simulation failure modes.

use std::error::Error;
use std::fmt;

use vortex_mem::Cycle;

/// A fatal condition detected by the simulator.
///
/// These are *checked invariants* of the SIMT execution model: well-formed
/// kernels never trigger them, and the test suite exercises each one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A scalar branch condition differed across active lanes. Divergent
    /// control flow must use `vx_split`/`vx_join`.
    DivergentBranch {
        /// Core executing the branch.
        core: usize,
        /// Warp executing the branch.
        warp: usize,
        /// Address of the branch.
        pc: u32,
    },
    /// A register expected to be warp-uniform (e.g. a `jalr` target or
    /// `vx_tmc` mask) differed across active lanes.
    NonUniformOperand {
        /// Core executing the instruction.
        core: usize,
        /// Warp executing the instruction.
        warp: usize,
        /// Address of the instruction.
        pc: u32,
    },
    /// Instruction fetch left the loaded program image.
    UnmappedPc {
        /// Core that fetched.
        core: usize,
        /// Warp that fetched.
        warp: usize,
        /// The out-of-range address.
        pc: u32,
    },
    /// A load/store address was not aligned to its access width.
    MisalignedAccess {
        /// Address of the instruction.
        pc: u32,
        /// The offending data address.
        addr: u32,
        /// Required alignment in bytes.
        align: u32,
    },
    /// `vx_split` exceeded the configured IPDOM stack depth.
    IpdomOverflow {
        /// Address of the split.
        pc: u32,
    },
    /// `vx_join` executed with an empty IPDOM stack.
    IpdomUnderflow {
        /// Address of the join.
        pc: u32,
    },
    /// An `ecall`/`ebreak` trap was raised (kernels use these as guards).
    Trap {
        /// Address of the trap instruction.
        pc: u32,
        /// `true` for `ebreak`, `false` for `ecall`.
        breakpoint: bool,
    },
    /// Every warp still active on a core is blocked on a barrier that can
    /// never be satisfied (barriers are core-local: no other core can
    /// release them).
    BarrierDeadlock {
        /// Cycle at which the deadlock was detected.
        cycle: Cycle,
        /// The core whose warps are stuck.
        core: usize,
        /// Bit mask of the warps waiting at a barrier (bit `w` = warp `w`).
        waiting: u32,
    },
    /// The run exceeded its cycle budget.
    CycleLimit {
        /// The exhausted budget.
        limit: Cycle,
    },
    /// `vx_wspawn` requested more warps than the core has.
    WspawnTooManyWarps {
        /// Requested warp count.
        requested: u32,
        /// Hardware warps available.
        available: usize,
    },
    /// A replayed run needed a recorded outcome the trace does not hold
    /// (stream exhausted, or the next record's kind does not match the
    /// instruction): the trace was recorded for different code, data or
    /// mapping than the run consuming it.
    ReplayDiverged {
        /// Core whose warp diverged.
        core: usize,
        /// Warp whose stream mismatched.
        warp: usize,
        /// PC of the instruction that needed the record.
        pc: u32,
    },
    /// A replay was handed a launch record or cursor built for another
    /// topology: its per-warp stream count (or warps-per-core stride)
    /// does not match the device.
    ReplayShape {
        /// Streams the record (or its cursor) holds.
        streams: usize,
        /// Warps per core the record was built for.
        warps: usize,
        /// `(cores, warps)` of the replaying device.
        device: (usize, usize),
    },
    /// A replayed run completed without consuming the whole trace: the
    /// recorded run executed more than the replayed one.
    ReplayIncomplete {
        /// Recorded events left unconsumed.
        leftover: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DivergentBranch { core, warp, pc } => write!(
                f,
                "divergent scalar branch at {pc:#010x} (core {core}, warp {warp}); \
                 use vx_split for divergent control flow"
            ),
            SimError::NonUniformOperand { core, warp, pc } => write!(
                f,
                "non-uniform operand for uniform instruction at {pc:#010x} \
                 (core {core}, warp {warp})"
            ),
            SimError::UnmappedPc { core, warp, pc } => {
                write!(f, "fetch outside program image at {pc:#010x} (core {core}, warp {warp})")
            }
            SimError::MisalignedAccess { pc, addr, align } => write!(
                f,
                "misaligned {align}-byte access to {addr:#010x} by instruction at {pc:#010x}"
            ),
            SimError::IpdomOverflow { pc } => {
                write!(f, "IPDOM stack overflow at split {pc:#010x}")
            }
            SimError::IpdomUnderflow { pc } => {
                write!(f, "vx_join with empty IPDOM stack at {pc:#010x}")
            }
            SimError::Trap { pc, breakpoint } => {
                let kind = if *breakpoint { "ebreak" } else { "ecall" };
                write!(f, "{kind} trap at {pc:#010x}")
            }
            SimError::BarrierDeadlock { cycle, core, waiting } => {
                let warps: Vec<String> =
                    (0..32).filter(|w| waiting >> w & 1 != 0).map(|w| w.to_string()).collect();
                write!(
                    f,
                    "barrier deadlock detected at cycle {cycle}: core {core} warps [{}] wait at \
                     barriers no remaining warp can release",
                    warps.join(", ")
                )
            }
            SimError::CycleLimit { limit } => {
                write!(f, "cycle limit of {limit} exhausted before completion")
            }
            SimError::WspawnTooManyWarps { requested, available } => {
                write!(f, "vx_wspawn requested {requested} warps, core has {available}")
            }
            SimError::ReplayDiverged { core, warp, pc } => write!(
                f,
                "replay diverged from recorded trace at {pc:#010x} (core {core}, warp {warp}); \
                 the trace was recorded for different code, data or mapping"
            ),
            SimError::ReplayShape { streams, warps, device: (cores, device_warps) } => write!(
                f,
                "replay record holds {streams} warp streams at {warps} warps per core, the \
                 device is {cores}x{device_warps} (cores x warps)"
            ),
            SimError::ReplayIncomplete { leftover } => {
                write!(f, "replay finished with {leftover} recorded events unconsumed")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let e = SimError::DivergentBranch { core: 1, warp: 2, pc: 0x8000_0010 };
        assert!(e.to_string().contains("vx_split"));
        let e = SimError::CycleLimit { limit: 500 };
        assert!(e.to_string().contains("500"));
        let e = SimError::BarrierDeadlock { cycle: 77, core: 3, waiting: 0b1010 };
        assert!(e.to_string().contains("cycle 77: core 3 warps [1, 3] wait"), "{e}");
    }
}
