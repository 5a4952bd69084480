//! The device scheduler's state: the live cores and their pending events.
//!
//! **Persistent** across runs: `Device::start_warp*` inserts a core when
//! the host activates it and the run loop removes it when it drains, so
//! entering a run costs O(live cores) and an idle core costs zero bytes
//! touched, whatever the topology. Membership invariant: outside
//! [`Device::run_with`](crate::Device::run_with), the scheduled set
//! equals the set of cores with at least one active warp (a core becomes
//! active only through `start_warp`, which schedules it; mid-run warp
//! spawns are core-local and cannot activate an unscheduled core).

use vortex_mem::Cycle;

use crate::warp::NEVER;

/// A compact list of the scheduled (live) cores and each one's next
/// pending event, which the device run loop scans once per scheduling
/// round for the earliest `(cycle, core)`.
#[derive(Debug)]
pub(crate) struct LiveCores {
    /// Scheduled core ids, ascending (compact: only live cores).
    order: Vec<usize>,
    /// Next pending event per scheduled core, parallel to `order`.
    due: Vec<Cycle>,
    /// Per-core membership flag (O(1) duplicate-schedule check).
    member: Vec<bool>,
}

impl LiveCores {
    /// An empty list over a device of `num_cores` cores.
    pub(crate) fn new(num_cores: usize) -> Self {
        LiveCores { order: Vec::new(), due: Vec::new(), member: vec![false; num_cores] }
    }

    /// The scheduled core ids, ascending.
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// The pending-event array, parallel to [`order`](LiveCores::order).
    pub(crate) fn due(&self) -> &[Cycle] {
        &self.due
    }

    /// Rewrites the pending event of the scheduled core at `pos`.
    pub(crate) fn set_due(&mut self, pos: usize, at: Cycle) {
        self.due[pos] = at;
    }

    /// Schedules `core`, keeping `order` ascending, with no pending event
    /// until the next run marks it due. Does nothing when the core is
    /// already scheduled.
    pub(crate) fn schedule(&mut self, core: usize) {
        if self.member[core] {
            return;
        }
        self.member[core] = true;
        let pos = self.order.partition_point(|&c| c < core);
        self.order.insert(pos, core);
        self.due.insert(pos, NEVER);
    }

    /// Removes the scheduled core at `pos` (it drained to idle); later
    /// entries shift down one position.
    pub(crate) fn remove_at(&mut self, pos: usize) {
        let core = self.order.remove(pos);
        self.due.remove(pos);
        self.member[core] = false;
    }

    /// Marks every scheduled core due at `now` (the O(live) run entry).
    pub(crate) fn begin_run(&mut self, now: Cycle) {
        self.due.fill(now);
    }

    /// Unschedules everything (device reset), touching only live state.
    pub(crate) fn clear(&mut self) {
        for &core in &self.order {
            self.member[core] = false;
        }
        self.order.clear();
        self.due.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_order_ascending_and_dedups() {
        let mut live = LiveCores::new(8);
        for core in [5, 1, 3, 5] {
            live.schedule(core);
        }
        assert_eq!(live.order(), &[1, 3, 5], "a duplicate schedule is a no-op");
        assert_eq!(live.due(), &[NEVER; 3]);
    }

    #[test]
    fn remove_at_shifts_later_entries_down_in_place() {
        let mut live = LiveCores::new(8);
        for core in [1, 2, 6] {
            live.schedule(core);
        }
        live.begin_run(10);
        live.set_due(2, 30);
        live.remove_at(1);
        assert_eq!((live.order(), live.due()), (&[1, 6][..], &[10, 30][..]));
        // A removed core can be scheduled again.
        live.schedule(2);
        assert_eq!(live.order(), &[1, 2, 6]);
    }

    #[test]
    fn begin_run_and_clear_touch_only_live_state() {
        let mut live = LiveCores::new(256);
        live.schedule(7);
        live.schedule(200);
        live.begin_run(42);
        assert_eq!(live.due(), &[42, 42]);
        live.set_due(0, 50);
        assert_eq!(live.due(), &[50, 42]);
        live.clear();
        assert!(live.order().is_empty() && live.due().is_empty());
        // Re-scheduling after clear works (membership flags were reset).
        live.schedule(7);
        assert_eq!(live.order(), &[7]);
    }
}
