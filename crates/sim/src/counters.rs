//! Performance counters collected during simulation.

use std::fmt;

use vortex_isa::ExecClass;
use vortex_mem::Cycle;

/// Instruction counts broken down by functional-unit class.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    counts: [u64; 11],
}

impl ClassCounts {
    fn index(class: ExecClass) -> usize {
        match class {
            ExecClass::Alu => 0,
            ExecClass::Mul => 1,
            ExecClass::Div => 2,
            ExecClass::Fpu => 3,
            ExecClass::FDiv => 4,
            ExecClass::FSqrt => 5,
            ExecClass::Load => 6,
            ExecClass::Store => 7,
            ExecClass::Branch => 8,
            ExecClass::Simt => 9,
            ExecClass::Sys => 10,
        }
    }

    /// Increments the counter for `class`.
    pub fn record(&mut self, class: ExecClass) {
        self.counts[Self::index(class)] += 1;
    }

    /// The count for `class`.
    pub fn get(&self, class: ExecClass) -> u64 {
        self.counts[Self::index(class)]
    }

    /// Total across classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Memory instructions (loads + stores).
    pub fn mem(&self) -> u64 {
        self.get(ExecClass::Load) + self.get(ExecClass::Store)
    }

    /// Adds every class count of `other` (summing counters across runs).
    pub fn merge(&mut self, other: &ClassCounts) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
    }
}

impl fmt::Display for ClassCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alu {} mul {} div {} fpu {} fdiv {} fsqrt {} load {} store {} branch {} simt {} sys {}",
            self.get(ExecClass::Alu),
            self.get(ExecClass::Mul),
            self.get(ExecClass::Div),
            self.get(ExecClass::Fpu),
            self.get(ExecClass::FDiv),
            self.get(ExecClass::FSqrt),
            self.get(ExecClass::Load),
            self.get(ExecClass::Store),
            self.get(ExecClass::Branch),
            self.get(ExecClass::Simt),
            self.get(ExecClass::Sys),
        )
    }
}

/// Aggregate device counters for one run (or accumulated across rounds).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Instructions issued (per warp, i.e. one per SIMT issue).
    pub instructions: u64,
    /// Lane-instructions: issued instructions weighted by active lanes.
    pub lane_instructions: u64,
    /// Issue counts by functional class.
    pub classes: ClassCounts,
    /// Cycle at which the most recent run finished (including memory
    /// drain).
    pub finish_cycle: Cycle,
}

impl DeviceCounters {
    /// Mean active lanes per issued instruction, normalised by `threads`:
    /// the SIMD-lane utilisation in 0..=1.
    pub fn lane_utilization(&self, threads: usize) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.lane_instructions as f64 / (self.instructions as f64 * threads as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_counts_accumulate() {
        let mut c = ClassCounts::default();
        c.record(ExecClass::Alu);
        c.record(ExecClass::Alu);
        c.record(ExecClass::Load);
        assert_eq!(c.get(ExecClass::Alu), 2);
        assert_eq!(c.get(ExecClass::Load), 1);
        assert_eq!(c.total(), 3);
        assert_eq!(c.mem(), 1);
    }

    #[test]
    fn lane_utilization_normalises() {
        let counters = DeviceCounters {
            instructions: 10,
            lane_instructions: 20,
            finish_cycle: 100,
            ..DeviceCounters::default()
        };
        assert!((counters.lane_utilization(4) - 0.5).abs() < 1e-12);
        assert_eq!(DeviceCounters::default().lane_utilization(4), 0.0);
    }

    #[test]
    fn display_lists_all_classes() {
        let c = ClassCounts::default();
        let s = c.to_string();
        for key in ["alu", "fdiv", "simt", "sys"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
