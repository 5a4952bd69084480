//! The assembled memory hierarchy: per-core L1s, shared L2, one DRAM channel.

use crate::cache::Lookup;
use crate::{Cache, CacheConfig, CacheStats, Cycle, DramChannel, DramConfig};

/// Timing and geometry parameters of the full memory hierarchy.
///
/// The defaults approximate the Vortex FPGA configuration scale: 16 KiB
/// 4-way L1 per core, 256 KiB 8-way shared L2, 64-byte lines, ~100-cycle
/// DRAM with one line per two cycles of bandwidth.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Per-core L1 data cache geometry.
    pub l1: CacheConfig,
    /// Independent L1 banks: lines a single SIMT access can service per
    /// cycle (uncoalesced accesses serialise over `lines / l1_banks`
    /// cycles, as in Vortex's banked dcache).
    pub l1_banks: u32,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// Independent L2 banks (requests accepted per `l2_interval`).
    pub l2_banks: u32,
    /// L1 hit latency (cycles from issue to writeback).
    pub l1_latency: u64,
    /// Additional latency for an access that hits in L2.
    pub l2_latency: u64,
    /// Minimum cycles between requests accepted by the L2 (bandwidth).
    pub l2_interval: u64,
    /// DRAM channel parameters.
    pub dram: DramConfig,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig { size_bytes: 16 * 1024, ways: 4, line_bytes: 64 },
            l1_banks: 32,
            l2: CacheConfig { size_bytes: 256 * 1024, ways: 8, line_bytes: 64 },
            l2_banks: 4,
            l1_latency: 2,
            l2_latency: 20,
            l2_interval: 1,
            dram: DramConfig::default(),
        }
    }
}

/// Aggregate statistics over the whole hierarchy.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Load line-requests issued.
    pub loads: u64,
    /// Store line-requests issued.
    pub stores: u64,
    /// L1 counters summed over cores.
    pub l1: CacheStats,
    /// Shared L2 counters.
    pub l2: CacheStats,
    /// Lines serviced by DRAM.
    pub dram_requests: u64,
}

impl MemStats {
    /// Adds `other`'s counters into `self` (aggregation across runs or
    /// configurations — used by the benchmark reporting).
    pub fn accumulate(&mut self, other: &MemStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.l1.accumulate(&other.l1);
        self.l2.accumulate(&other.l2);
        self.dram_requests += other.dram_requests;
    }
}

/// Outcome of one batched SIMT access (see [`MemSystem::access_batch`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Completion cycle of the slowest line of the access (the submit
    /// cycle itself when the batch was empty).
    pub completion: Cycle,
    /// L1 port slots the access occupied: `ceil(lines / l1_banks)`, at
    /// least one — the number of cycles before the core's memory port can
    /// accept the next access.
    pub port_slots: Cycle,
}

/// One L1 miss whose leg below the L1 has not run yet: what the L1 phase
/// of a split walk ([`MemSystem::access_batch_l1`]) hands to the
/// downstream phase ([`MemSystem::finish_misses`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PendingMiss {
    /// Base address of the line to fetch.
    line_addr: u32,
    /// Base address of the dirty L1 victim the fill displaced, if any.
    writeback: Option<u32>,
    /// Cycle the L1 lookup resolved (`submit + l1_latency`).
    l1_done: Cycle,
}

/// The timing model of the memory hierarchy.
///
/// The primary entry point is [`access_batch`](MemSystem::access_batch):
/// the simulator hands over the whole coalesced line set of one SIMT
/// memory instruction, and the hierarchy walks every line through L1, L2
/// and DRAM in a single pass — per-access invariants (cache geometry,
/// latencies, the L1 reference) are hoisted out of the per-line loop, and
/// the L2 bandwidth-slot bookings of a dirty-victim miss share one bank
/// scan. The scalar [`load`](MemSystem::load)/[`store`](MemSystem::store)
/// wrappers remain for single-line callers and tests; both paths run the
/// identical downstream walk. The same walk can also be taken in two
/// steps — [`access_batch_l1`](MemSystem::access_batch_l1) (one core's
/// L1) then [`finish_misses`](MemSystem::finish_misses) (the shared
/// levels) — which is how the simulator's cores call it, so that only
/// the second step has to wait for its place in global time.
///
/// All entry points take a request at an absolute cycle and return the
/// cycle at which the data is available (loads) or the write has drained
/// (stores). Stores are write-back/write-allocate and the requesting warp
/// does not wait for them; their return value only matters for bandwidth
/// accounting.
///
/// # Examples
///
/// ```
/// use vortex_mem::{MemConfig, MemSystem};
/// let mut sys = MemSystem::new(2, MemConfig::default());
/// let t1 = sys.load(0, 0x1000, 0);      // cold: L1 miss, L2 miss, DRAM
/// let t2 = sys.load(0, 0x1000, t1);     // L1 hit
/// let t3 = sys.load(1, 0x1000, t2);     // other core: misses L1, hits L2
/// assert!(t2 - t1 < t3 - t2 && t3 - t2 < t1);
/// ```
#[derive(Clone, Debug)]
pub struct MemSystem {
    config: MemConfig,
    l1s: Vec<Cache>,
    l2: Cache,
    l2_next_slot: Vec<Cycle>,
    dram: DramChannel,
    loads: u64,
    stores: u64,
    /// Core ids that served at least one line since the last reset, in
    /// first-touch order: reset sweeps and stat aggregation walk this
    /// list instead of the topology, so an idle core's L1 costs zero
    /// bytes touched.
    touched: Vec<usize>,
    /// Per-core membership flag for `touched` (O(1) hot-path check).
    l1_touched: Vec<bool>,
    /// Batched SIMT accesses that carried ≥ 1 line (one per memory
    /// instruction reaching a core's port). A raw sum — exact to merge
    /// across shards and workers.
    port_accesses: u64,
    /// Total of *extra* L1 port slots beyond the first each access
    /// occupied — the cycles a core's memory port stayed blocked by
    /// serialisation of uncoalesced lines. Zero under perfect
    /// coalescing; a raw sum.
    port_stalls: u64,
}

/// The downstream (L2 + DRAM) leg of the walk, borrowed disjointly from
/// the L1 being walked so the batch loop can keep `&mut` references to
/// both sides at once. One instance serves a whole batch; the scalar path
/// builds a fresh one per call. All booking orders are identical to the
/// historical per-line walk — this struct is the single copy of the
/// below-L1 timing semantics.
struct Downstream<'a> {
    l2: &'a mut Cache,
    slots: &'a mut [Cycle],
    dram: &'a mut DramChannel,
    l2_latency: Cycle,
    l2_interval: Cycle,
}

impl Downstream<'_> {
    /// Books one L2 bandwidth slot (earliest-free bank, min scan).
    #[inline]
    fn slot(&mut self, earliest: Cycle) -> Cycle {
        let slot = self.slots.iter_mut().min_by_key(|s| **s).expect("at least one bank");
        let accept = earliest.max(*slot);
        *slot = accept + self.l2_interval;
        accept
    }

    /// Books two L2 slots at the same earliest cycle with **one** bank
    /// scan (the dirty-victim pattern: the L1 write-back immediately
    /// followed by the fetch — historically two full scans per L1
    /// writeback miss). State and results are exactly those of two
    /// sequential [`slot`](Downstream::slot) calls; the scan is the
    /// shared [`book_pair`](crate::dram::book_pair) helper, the single
    /// copy of the two-smallest booking logic.
    fn slot_pair(&mut self, earliest: Cycle) -> (Cycle, Cycle) {
        crate::dram::book_pair(self.slots, earliest, self.l2_interval)
    }

    /// Serves one L1 miss below L1: the optional dirty victim drains into
    /// L2 (and onward to DRAM when it displaces a dirty L2 line), then the
    /// requested line is fetched through L2/DRAM. `l1_done` is the cycle
    /// the L1 lookup resolved (`submit + l1_latency`); the return value is
    /// the fill completion cycle.
    fn miss(&mut self, addr: u32, l1_writeback: Option<u32>, l1_done: Cycle) -> Cycle {
        let at_l2 = match l1_writeback {
            Some(victim) => {
                // L1 victim drains into L2 (dirty there), consuming an
                // L2 bandwidth slot; a dirty L2 victim drains to DRAM.
                let (wb_at, at_l2) = self.slot_pair(l1_done);
                if let Lookup::Miss { writeback: Some(_) } = self.l2.access(victim, true) {
                    self.dram.service(wb_at);
                }
                at_l2
            }
            None => self.slot(l1_done),
        };
        match self.l2.access(addr, false) {
            Lookup::Hit => at_l2 + self.l2_latency,
            Lookup::Miss { writeback: l2_wb } => {
                let t = at_l2 + self.l2_latency;
                if l2_wb.is_some() {
                    // L2 victim write-back to DRAM (bandwidth only),
                    // booked together with the fetch in one channel scan.
                    self.dram.service_pair(t).1
                } else {
                    self.dram.service(t)
                }
            }
        }
    }
}

impl MemSystem {
    /// Creates the hierarchy for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if a cache geometry in `config` is invalid.
    pub fn new(num_cores: usize, config: MemConfig) -> Self {
        assert!(config.l2_banks > 0, "L2 needs at least one bank");
        MemSystem {
            config,
            l1s: (0..num_cores).map(|_| Cache::new(config.l1)).collect(),
            l2: Cache::new(config.l2),
            l2_next_slot: vec![0; config.l2_banks as usize],
            dram: DramChannel::new(config.dram),
            loads: 0,
            stores: 0,
            touched: Vec::new(),
            l1_touched: vec![false; num_cores],
            port_accesses: 0,
            port_stalls: 0,
        }
    }

    /// Marks `core` as having served traffic since the last reset.
    #[inline]
    fn mark_touched(&mut self, core: usize) {
        if !self.l1_touched[core] {
            self.l1_touched[core] = true;
            self.touched.push(core);
        }
    }

    /// The hierarchy parameters.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Line size shared by both cache levels (bytes).
    pub fn line_bytes(&self) -> u32 {
        self.config.l1.line_bytes
    }

    /// Submits a load for the line containing `addr` from `core` at `now`;
    /// returns the completion cycle.
    pub fn load(&mut self, core: usize, addr: u32, now: Cycle) -> Cycle {
        self.loads += 1;
        self.access(core, addr, now, false)
    }

    /// Submits a store for the line containing `addr`; returns the cycle
    /// the line is owned dirty in L1 (write-back, write-allocate — the
    /// requesting warp never waits for stores).
    pub fn store(&mut self, core: usize, addr: u32, now: Cycle) -> Cycle {
        self.stores += 1;
        self.access(core, addr, now, true)
    }

    /// Shared write-back/write-allocate walk for one line. A miss at a
    /// level fills from below; a displaced dirty victim is written back
    /// downstream (consuming bandwidth but not blocking the requester).
    fn access(&mut self, core: usize, addr: u32, now: Cycle, is_store: bool) -> Cycle {
        self.mark_touched(core);
        let l1_done = now + self.config.l1_latency;
        match self.l1s[core].access(addr, is_store) {
            Lookup::Hit => l1_done,
            Lookup::Miss { writeback } => {
                let mut down = Downstream {
                    l2: &mut self.l2,
                    slots: &mut self.l2_next_slot,
                    dram: &mut self.dram,
                    l2_latency: self.config.l2_latency,
                    l2_interval: self.config.l2_interval,
                };
                down.miss(addr, writeback, l1_done)
            }
        }
    }

    /// Walks **all** coalesced lines of one SIMT memory access through the
    /// hierarchy in a single pass.
    ///
    /// `lines` are the unique line *base addresses* of the access (see
    /// [`coalesce_lines`](crate::coalesce_lines)), submitted in order. The
    /// banked L1 accepts [`l1_banks`](MemConfig::l1_banks) lines per
    /// cycle, so the submit cycle advances by one after every filled bank
    /// group — uncoalesced accesses serialise exactly as they did when the
    /// simulator issued per-line calls. The returned [`BatchOutcome`]
    /// carries the slowest line's completion cycle plus the port-slot
    /// count; [`access_batch_into`](MemSystem::access_batch_into)
    /// additionally records per-line completions.
    ///
    /// Equivalent to — and bit-identical with — the scalar per-line loop
    ///
    /// ```
    /// # use vortex_mem::{MemConfig, MemSystem, Cycle};
    /// # let mut scalar = MemSystem::new(1, MemConfig::default());
    /// # let mut batched = scalar.clone();
    /// # let (core, now, is_store, lines) = (0, 0, false, [0x40u32, 0x80, 0x1040]);
    /// # let banks = scalar.config().l1_banks.max(1) as usize;
    /// let mut completions = Vec::new();
    /// for (i, &line) in lines.iter().enumerate() {
    ///     let at = now + (i / banks) as Cycle;
    ///     completions.push(if is_store {
    ///         scalar.store(core, line, at)
    ///     } else {
    ///         scalar.load(core, line, at)
    ///     });
    /// }
    /// # let mut batch = Vec::new();
    /// # let out = batched.access_batch_into(core, &lines, now, is_store, &mut batch);
    /// # assert_eq!(batch, completions);
    /// # assert_eq!(out.completion, *completions.iter().max().unwrap());
    /// ```
    ///
    /// but with the per-access invariants (config loads, the L1 borrow,
    /// the cache geometry header) hoisted out of the loop and the L2
    /// slot/DRAM channel scans of a dirty-victim miss folded into single
    /// passes.
    #[inline]
    pub fn access_batch(
        &mut self,
        core: usize,
        lines: &[u32],
        now: Cycle,
        is_store: bool,
    ) -> BatchOutcome {
        self.walk(core, lines.iter().copied(), now, is_store, None, None)
    }

    /// The **L1 phase** of [`access_batch`](MemSystem::access_batch):
    /// walks the lines through `core`'s L1 only — tags, LRU, fills,
    /// victim choice, port slots — and appends every miss to `misses`
    /// instead of serving it. The returned completion covers the hits;
    /// [`finish_misses`](MemSystem::finish_misses) runs the misses
    /// through L2 and DRAM and returns theirs.
    ///
    /// The two phases touch disjoint state (a core's L1 on one side, the
    /// shared L2, its bandwidth slots and the DRAM queues on the other),
    /// so running them back to back is exactly `access_batch` — and
    /// running the second one *later* changes nothing but the position
    /// of this access's L2/DRAM bookings among those of other cores.
    /// That is what lets a simulator walk a core's L1 ahead of global
    /// time and order only what the cores share.
    #[inline]
    pub fn access_batch_l1(
        &mut self,
        core: usize,
        lines: &[u32],
        now: Cycle,
        is_store: bool,
        misses: &mut Vec<PendingMiss>,
    ) -> BatchOutcome {
        self.walk(core, lines.iter().copied(), now, is_store, None, Some(misses))
    }

    /// [`access_batch`](MemSystem::access_batch), additionally writing
    /// each line's completion cycle to `completions` (cleared first — a
    /// reusable scratch buffer; white-box tests and tools replay batches
    /// through it, the simulator's hot path takes the record-free entry
    /// point).
    pub fn access_batch_into(
        &mut self,
        core: usize,
        lines: &[u32],
        now: Cycle,
        is_store: bool,
        completions: &mut Vec<Cycle>,
    ) -> BatchOutcome {
        completions.clear();
        self.walk(core, lines.iter().copied(), now, is_store, Some(completions), None)
    }

    /// [`access_batch`](MemSystem::access_batch) for the contiguous
    /// ascending span of line base addresses covering
    /// `addr0..=addr_last` — the broadcast and unit-stride fast paths.
    /// The coalesced line sequence of such a span is exactly the
    /// ascending run of line bases it covers, so it is generated
    /// arithmetically inside the walk instead of being materialised into
    /// a buffer first.
    pub fn access_span(
        &mut self,
        core: usize,
        addr0: u32,
        addr_last: u32,
        now: Cycle,
        is_store: bool,
    ) -> BatchOutcome {
        self.walk_span(core, addr0, addr_last, now, is_store, None)
    }

    /// The L1 phase of [`access_span`](MemSystem::access_span) (see
    /// [`access_batch_l1`](MemSystem::access_batch_l1)).
    pub fn access_span_l1(
        &mut self,
        core: usize,
        addr0: u32,
        addr_last: u32,
        now: Cycle,
        is_store: bool,
        misses: &mut Vec<PendingMiss>,
    ) -> BatchOutcome {
        self.walk_span(core, addr0, addr_last, now, is_store, Some(misses))
    }

    fn walk_span(
        &mut self,
        core: usize,
        addr0: u32,
        addr_last: u32,
        now: Cycle,
        is_store: bool,
        defer: Option<&mut Vec<PendingMiss>>,
    ) -> BatchOutcome {
        let line_bytes = self.config.l1.line_bytes;
        let first = addr0 & !(line_bytes - 1);
        let last = addr_last & !(line_bytes - 1);
        let nlines = (((last - first) >> line_bytes.trailing_zeros()) + 1) as usize;
        let lines = (0..nlines).map(|i| first + i as u32 * line_bytes);
        self.walk(core, lines, now, is_store, None, defer)
    }

    /// The **downstream phase** of a split walk: serves `misses` — in
    /// order, as the one-pass walk would have — through L2 and DRAM,
    /// drains the list and returns the latest fill completion.
    ///
    /// # Panics
    ///
    /// Panics if `misses` is empty (there is no completion to return).
    pub fn finish_misses(&mut self, misses: &mut Vec<PendingMiss>) -> Cycle {
        let mut down = Downstream {
            l2: &mut self.l2,
            slots: &mut self.l2_next_slot,
            dram: &mut self.dram,
            l2_latency: self.config.l2_latency,
            l2_interval: self.config.l2_interval,
        };
        misses
            .drain(..)
            .map(|m| down.miss(m.line_addr, m.writeback, m.l1_done))
            .max()
            .expect("a split walk is finished only when it missed")
    }

    /// The one shared batch walk (see [`access_batch`]
    /// (MemSystem::access_batch) for the semantics). Generic over the
    /// line iterator so the coalesced-slice and arithmetic-span entry
    /// points monomorphise without buffering; `completions` is `None` on
    /// the simulator's hot path, and after inlining the constant folds
    /// the recording away. With `defer`, misses are appended to it
    /// instead of being served (the L1 phase of a split walk).
    fn walk<I: ExactSizeIterator<Item = u32>>(
        &mut self,
        core: usize,
        lines: I,
        now: Cycle,
        is_store: bool,
        mut completions: Option<&mut Vec<Cycle>>,
        mut defer: Option<&mut Vec<PendingMiss>>,
    ) -> BatchOutcome {
        let nlines = lines.len() as u64;
        if nlines == 0 {
            // Same outcome the general tail produces for an empty batch;
            // returning here keeps empty accesses from marking the L1
            // touched or consuming port counters.
            return BatchOutcome { completion: now, port_slots: 1 };
        }
        self.mark_touched(core);
        if is_store {
            self.stores += nlines;
        } else {
            self.loads += nlines;
        }
        let banks = self.config.l1_banks.max(1) as usize;
        let l1_latency = self.config.l1_latency;
        // Disjoint field borrows: the L1 being walked on one side, the
        // downstream L2/DRAM legs (reborrowed per miss) on the other.
        let l1 = &mut self.l1s[core];
        let geom = l1.geometry();
        let (l2, slots, dram) = (&mut self.l2, &mut self.l2_next_slot, &mut self.dram);
        let (l2_latency, l2_interval) = (self.config.l2_latency, self.config.l2_interval);

        let mut completion = now;
        // The L1 accepts `banks` lines per cycle; `at` advances one cycle
        // per filled bank group, incrementally — `now + i / banks` would
        // put a hardware division on every line of a divergent gather.
        let mut at = now;
        let mut in_group = 0usize;
        for line_addr in lines {
            let line = geom.line_of(line_addr);
            // The miss leg is outlined behind this closure-shaped helper:
            // the downstream references are reborrowed only when a line
            // actually misses, and the hit loop stays compact.
            let mut miss = |writeback: Option<u32>, l1_done: Cycle| {
                let mut down = Downstream {
                    l2: &mut *l2,
                    slots: &mut *slots,
                    dram: &mut *dram,
                    l2_latency,
                    l2_interval,
                };
                down.miss(line_addr, writeback, l1_done)
            };
            let l1_done = at + l1_latency;
            let done = match l1.access_line(line, is_store) {
                Lookup::Hit => l1_done,
                Lookup::Miss { writeback } => match defer.as_deref_mut() {
                    None => miss(writeback, l1_done),
                    Some(misses) => {
                        misses.push(PendingMiss { line_addr, writeback, l1_done });
                        l1_done
                    }
                },
            };
            if let Some(buf) = completions.as_deref_mut() {
                buf.push(done);
            }
            completion = completion.max(done);
            in_group += 1;
            if in_group == banks {
                in_group = 0;
                at += 1;
            }
        }
        // Port slots consumed: ceil(lines / banks), at least one.
        let port_slots = (at - now + Cycle::from(in_group > 0)).max(1);
        self.port_accesses += 1;
        self.port_stalls += port_slots - 1;
        BatchOutcome { completion, port_slots }
    }

    /// Aggregate statistics. Walks only L1s that served traffic since
    /// the last reset (the rest are zero by construction), so the sweep
    /// is O(touched cores), not O(topology).
    pub fn stats(&self) -> MemStats {
        let mut l1 = CacheStats::default();
        for &core in &self.touched {
            l1.accumulate(&self.l1s[core].stats());
        }
        MemStats {
            loads: self.loads,
            stores: self.stores,
            l1,
            l2: self.l2.stats(),
            dram_requests: self.dram.requests(),
        }
    }

    /// Per-core L1 statistics.
    pub fn l1_stats(&self, core: usize) -> CacheStats {
        self.l1s[core].stats()
    }

    /// Device-wide SIMT memory-port counters `(accesses, stall_slots)`
    /// since the last reset: batched accesses that reached a port, and
    /// the extra L1 port slots beyond the first each occupied. Raw sums —
    /// exact to merge across shards and workers.
    pub fn port_totals(&self) -> (u64, u64) {
        (self.port_accesses, self.port_stalls)
    }

    /// DRAM service-slot utilisation up to `horizon` (see
    /// [`DramChannel::utilization`]).
    pub fn dram_utilization(&self, horizon: Cycle) -> f64 {
        self.dram.utilization(horizon)
    }

    /// Invalidates caches and clears all timing state and statistics.
    /// L1 banks that served no access since the previous reset are
    /// skipped (see [`Cache::reset`]); returns how many were actually
    /// swept, so a low-occupancy launch's reset stays proportional to
    /// the cores it touched rather than the topology.
    pub fn reset(&mut self) -> usize {
        // Walk the first-touch list, not the topology: every listed L1
        // served at least one access, so its sweep always does work.
        let swept = self.touched.len();
        for i in 0..swept {
            let core = self.touched[i];
            let did = self.l1s[core].reset();
            debug_assert!(did, "a touched L1 always has state to sweep");
            self.l1_touched[core] = false;
        }
        self.touched.clear();
        self.l2.reset();
        self.l2_next_slot.fill(0);
        self.dram.reset();
        self.loads = 0;
        self.stores = 0;
        self.port_accesses = 0;
        self.port_stalls = 0;
        swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemSystem {
        MemSystem::new(cores, MemConfig::default())
    }

    /// Replays `lines` through the scalar per-line API with the batch
    /// walk's bank-group submit-time advancement — the reference the
    /// batched path must match call for call.
    fn scalar_reference(
        s: &mut MemSystem,
        core: usize,
        lines: &[u32],
        now: Cycle,
        is_store: bool,
    ) -> Vec<Cycle> {
        let banks = s.config().l1_banks.max(1) as usize;
        lines
            .iter()
            .enumerate()
            .map(|(i, &line)| {
                let at = now + (i / banks) as Cycle;
                if is_store {
                    s.store(core, line, at)
                } else {
                    s.load(core, line, at)
                }
            })
            .collect()
    }

    /// Asserts the batched entry points on clones of `s` reproduce the
    /// scalar sequence exactly: per-line completions, outcome, and every
    /// statistic afterwards — for both the recording and the record-free
    /// walk.
    fn assert_batch_matches_scalar(
        s: &mut MemSystem,
        core: usize,
        lines: &[u32],
        now: Cycle,
        is_store: bool,
    ) {
        let mut recorded = s.clone();
        let mut quick = s.clone();
        let scalar = scalar_reference(s, core, lines, now, is_store);
        let mut completions = Vec::new();
        let out = recorded.access_batch_into(core, lines, now, is_store, &mut completions);
        assert_eq!(completions, scalar, "per-line completions diverge");
        assert_eq!(
            out.completion,
            scalar.iter().copied().max().unwrap_or(now),
            "batch completion is not the slowest line"
        );
        assert_eq!(recorded.stats(), s.stats(), "statistics diverge after the walk");
        // The record-free hot path is the same walk minus the buffer.
        let quick_out = quick.access_batch(core, lines, now, is_store);
        assert_eq!(quick_out, out, "record-free walk diverges from the recording walk");
        assert_eq!(quick.stats(), s.stats(), "record-free statistics diverge");
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut s = sys(2);
        let cfg = *s.config();
        let cold = s.load(0, 0x4000, 0);
        assert!(cold >= cfg.l1_latency + cfg.l2_latency + cfg.dram.latency);
        let hit = s.load(0, 0x4000, 1000) - 1000;
        assert_eq!(hit, cfg.l1_latency);
        let l2_hit = s.load(1, 0x4000, 2000) - 2000;
        assert_eq!(l2_hit, cfg.l1_latency + cfg.l2_latency);
    }

    #[test]
    fn dram_bandwidth_is_shared_between_cores() {
        let mut s = sys(2);
        // Stream distinct lines from both cores at the same cycle; the
        // completions must spread out by the DRAM interval.
        let mut completions: Vec<u64> =
            (0..64u32).map(|i| s.load((i % 2) as usize, 0x10_0000 + i * 64, 0)).collect();
        completions.sort_unstable();
        // With C channels at one line per `interval`, at most C requests
        // can complete in any `interval`-cycle window.
        let dram = s.config().dram;
        let window = dram.interval;
        let per_window = completions
            .windows(dram.channels as usize + 1)
            .map(|w| w[dram.channels as usize] - w[0])
            .min()
            .unwrap();
        assert!(
            per_window >= window,
            "more than {} completions per {window} cycles",
            dram.channels
        );
    }

    #[test]
    fn stores_allocate_and_absorb() {
        let mut s = sys(1);
        s.store(0, 0x8000, 0);
        // Write-allocate: a following load hits L1.
        let t = s.load(0, 0x8000, 100);
        assert_eq!(t - 100, s.config().l1_latency);
        // Repeated stores to the hot line are absorbed (no extra DRAM
        // traffic beyond the original fill).
        let before = s.stats().dram_requests;
        for i in 0..16 {
            s.store(0, 0x8000 + i * 4, 200 + u64::from(i));
        }
        assert_eq!(s.stats().dram_requests, before);
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut s = sys(1);
        // Dirty many distinct lines, far exceeding L1 capacity, then
        // observe DRAM write-back traffic beyond the fills.
        let lines = 16 * 1024; // 4x the 256KiB L2 at 64B lines
        let mut now = 0;
        for i in 0..lines {
            now = s.store(0, i * 64, now);
        }
        let st = s.stats();
        // Every fill reaches DRAM (cold, too big for L2 as well), and
        // dirty victims add write-back requests on top.
        assert!(
            st.dram_requests > u64::from(lines),
            "write-backs add DRAM traffic: {} vs {} fills",
            st.dram_requests,
            lines
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = sys(1);
        s.load(0, 0, 0);
        s.load(0, 0, 10);
        s.store(0, 64, 20);
        let st = s.stats();
        assert_eq!(st.loads, 2);
        assert_eq!(st.stores, 1);
        assert_eq!(st.l1.hits, 1);
        assert!(st.dram_requests >= 2); // one load fill + one store drain
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut s = sys(1);
        let cold1 = s.load(0, 0, 0);
        s.reset();
        let cold2 = s.load(0, 0, 0);
        assert_eq!(cold1, cold2);
        assert_eq!(s.stats().loads, 1);
    }

    #[test]
    fn capacity_thrashing_misses() {
        // Working set far larger than L1 with a pathological stride keeps
        // missing; this is the mechanism behind the "more threads can hurt"
        // cases in the paper's memory-bound kernels.
        let mut s = sys(1);
        let mut now = 0;
        for round in 0..3 {
            for i in 0..1024u32 {
                now = s.load(0, i * 64, now);
            }
            let _ = round;
        }
        let st = s.stats();
        assert!(st.l1.misses > st.l1.hits);
    }

    // ------------------------------------------------------------------
    // Batched-walk equivalence: `access_batch` must reproduce the scalar
    // per-line sequence exactly, across hit/miss/writeback/contention
    // mixes and from arbitrary warm states.
    // ------------------------------------------------------------------

    #[test]
    fn batch_empty_access_is_one_port_slot() {
        let mut s = sys(1);
        let mut completions = vec![99];
        let out = s.access_batch_into(0, &[], 50, false, &mut completions);
        assert!(completions.is_empty());
        assert_eq!(out, BatchOutcome { completion: 50, port_slots: 1 });
        assert_eq!(s.stats().loads, 0);
    }

    #[test]
    fn batch_matches_scalar_cold_misses() {
        let lines: Vec<u32> = (0..8u32).map(|i| 0x10_0000 + i * 64).collect();
        assert_batch_matches_scalar(&mut sys(1), 0, &lines, 0, false);
    }

    #[test]
    fn batch_matches_scalar_pure_hits() {
        let mut s = sys(1);
        let lines: Vec<u32> = (0..6u32).map(|i| 0x4000 + i * 64).collect();
        for &l in &lines {
            s.load(0, l, 0); // warm both levels
        }
        assert_batch_matches_scalar(&mut s, 0, &lines, 500, false);
    }

    #[test]
    fn batch_matches_scalar_hit_miss_mix() {
        let mut s = sys(1);
        // Warm alternating lines so the batch interleaves hits and misses.
        for i in (0..16u32).step_by(2) {
            s.load(0, 0x20_0000 + i * 64, 0);
        }
        let lines: Vec<u32> = (0..16u32).map(|i| 0x20_0000 + i * 64).collect();
        assert_batch_matches_scalar(&mut s, 0, &lines, 1000, false);
    }

    #[test]
    fn batch_matches_scalar_dirty_writeback_path() {
        let mut s = sys(1);
        let cfg = *s.config();
        let l1_lines = cfg.l1.size_bytes / cfg.l1.line_bytes;
        // Dirty every L1 line, then walk a conflicting working set so the
        // batch displaces dirty victims (the double-booking path).
        let mut now = 0;
        for i in 0..l1_lines {
            now = s.store(0, i * cfg.l1.line_bytes, now);
        }
        let lines: Vec<u32> = (0..24u32).map(|i| 0x100_0000 + i * cfg.l1.size_bytes).collect();
        assert_batch_matches_scalar(&mut s, 0, &lines, now + 100, false);
    }

    #[test]
    fn batch_matches_scalar_store_writebacks() {
        let mut s = sys(1);
        let cfg = *s.config();
        let mut now = 0;
        for i in 0..(cfg.l1.size_bytes / cfg.l1.line_bytes) {
            now = s.store(0, i * cfg.l1.line_bytes, now);
        }
        let lines: Vec<u32> = (0..12u32).map(|i| 0x200_0000 + i * cfg.l1.size_bytes).collect();
        assert_batch_matches_scalar(&mut s, 0, &lines, now + 7, true);
    }

    #[test]
    fn batch_matches_scalar_under_bank_contention() {
        // More lines than L1 banks: the submit cycle advances mid-batch
        // and the DRAM/L2 queues are already loaded by another core.
        let mut s = sys(2);
        for i in 0..40u32 {
            s.load(1, 0x40_0000 + i * 64, 0); // saturate shared queues
        }
        let lines: Vec<u32> =
            (0..MemConfig::default().l1_banks + 9).map(|i| 0x80_0000 + i * 64).collect();
        assert_batch_matches_scalar(&mut s, 0, &lines, 3, false);
    }

    #[test]
    fn batch_matches_scalar_small_bank_count() {
        let config = MemConfig { l1_banks: 2, l2_banks: 1, ..Default::default() };
        let mut s = MemSystem::new(1, config);
        let lines: Vec<u32> = (0..7u32).map(|i| 0x30_0000 + i * 64).collect();
        assert_batch_matches_scalar(&mut s, 0, &lines, 11, false);
    }

    #[test]
    fn span_walk_matches_explicit_line_batch() {
        let mut s = sys(1);
        let lb = s.config().l1.line_bytes;
        // Warm part of the span so hits and misses interleave.
        for i in 0..3u32 {
            s.load(0, 0x50_0000 + i * 2 * lb, 0);
        }
        // A span from mid-line to mid-line, covering six lines.
        let (addr0, addr_last) = (0x50_0000 + 12, 0x50_0000 + 5 * lb + 4);
        let lines: Vec<u32> = (0..6u32).map(|i| 0x50_0000 + i * lb).collect();
        let mut explicit = s.clone();
        let span_out = s.access_span(0, addr0, addr_last, 77, false);
        let explicit_out = explicit.access_batch(0, &lines, 77, false);
        assert_eq!(span_out, explicit_out);
        assert_eq!(s.stats(), explicit.stats());
    }

    /// The split walk — L1 phase now, downstream phase after *another
    /// core's* traffic has gone through the shared levels — against the
    /// one-pass walk submitted at that later position: same completions,
    /// same statistics, same state for whatever comes next.
    #[test]
    fn split_walk_equals_one_pass_at_the_position_of_its_second_phase() {
        let config = MemConfig {
            l1: CacheConfig { size_bytes: 1024, ways: 1, line_bytes: 64 },
            l1_banks: 2,
            l2_banks: 1,
            l2_interval: 3,
            ..MemConfig::default()
        };
        let mut split = MemSystem::new(2, config);
        // Warm and dirty part of core 0's L1 so the access mixes hits,
        // clean misses and dirty-victim misses over several bank groups.
        for i in 0..6u32 {
            split.store(0, 0x1000 + i * 128, 0);
        }
        let mut one_pass = split.clone();
        // set 0 hit, set 1 clean miss, set 2 dirty victim, set 4 hit, …
        let lines = [0x1000, 0x1440, 0x1480, 0x1100, 0x1540, 0x1580, 0x1200, 0x15C0];
        let other: Vec<u32> = (0..5u32).map(|i| 0x9000 + i * 64).collect();

        let mut misses = Vec::new();
        let l1 = split.access_batch_l1(0, &lines, 40, false, &mut misses);
        assert_eq!(misses.len(), 5, "a hit/miss mix");
        assert_eq!(misses.iter().filter(|m| m.writeback.is_some()).count(), 2);
        let between = split.access_batch(1, &other, 40, false);
        let completion = l1.completion.max(split.finish_misses(&mut misses));
        assert!(misses.is_empty());

        assert_eq!(one_pass.access_batch(1, &other, 40, false), between);
        let whole = one_pass.access_batch(0, &lines, 40, false);
        assert_eq!(BatchOutcome { completion, port_slots: l1.port_slots }, whole);
        assert_eq!(split.stats(), one_pass.stats());
        assert_eq!(split.port_totals(), one_pass.port_totals());
        assert_eq!(split.access_span(1, 0x1000, 0x1400, 500, true), {
            one_pass.access_span(1, 0x1000, 0x1400, 500, true)
        });

        // An all-hit access defers nothing; the span form splits alike.
        let hits = split.access_batch_l1(0, &lines[..2], 900, false, &mut misses);
        assert!(misses.is_empty());
        assert_eq!(hits, one_pass.access_batch(0, &lines[..2], 900, false));
        let l1 = split.access_span_l1(0, 0x4_0000, 0x4_0040, 950, true, &mut misses);
        assert_eq!(misses.len(), 2);
        let completion = l1.completion.max(split.finish_misses(&mut misses));
        assert_eq!(completion, one_pass.access_span(0, 0x4_0000, 0x4_0040, 950, true).completion);
        assert_eq!(split.stats(), one_pass.stats());
    }

    #[test]
    fn batch_port_slots_count_bank_groups() {
        let config = MemConfig { l1_banks: 4, ..Default::default() };
        let mut s = MemSystem::new(1, config);
        let mut completions = Vec::new();
        let lines: Vec<u32> = (0..10u32).map(|i| i * 64).collect();
        let out = s.access_batch_into(0, &lines, 0, false, &mut completions);
        assert_eq!(out.port_slots, 3); // ceil(10 / 4)
        assert_eq!(completions.len(), 10);
    }

    // ------------------------------------------------------------------
    // O(activity) bookkeeping: the touched-core list; port counters.
    // ------------------------------------------------------------------

    #[test]
    fn reset_sweeps_only_touched_l1s() {
        let mut s = sys(256);
        s.load(3, 0x4000, 0); // scalar path marks too
        s.access_batch(200, &[0x8000, 0x8040], 0, false);
        s.access_batch(200, &[0x8000], 10, false); // dedup: still one entry
        s.access_batch(7, &[], 0, false); // empty batch must not mark
        assert_eq!(s.touched, &[3, 200]);
        assert_eq!(s.reset(), 2);
        assert!(s.touched.is_empty());
        assert_eq!(s.reset(), 0);
        // Stats aggregate over the touched list only; a swept system is
        // indistinguishable from a fresh one.
        assert_eq!(s.stats(), MemSystem::new(256, MemConfig::default()).stats());
    }

    #[test]
    fn port_totals_count_accesses_and_stall_slots() {
        let mut s = sys(4);
        let banks = s.config().l1_banks;
        // One fully-coalesced batch: 1 access, bank group fits → 0 stalls.
        let coalesced: Vec<u32> = (0..banks).map(|i| 0x10_0000 + i * 64).collect();
        s.access_batch(1, &coalesced, 0, false);
        assert_eq!(s.port_totals(), (1, 0));
        // A batch of 2.5 bank groups serialises into 3 port slots → 2 stalls.
        let wide: Vec<u32> = (0..banks * 5 / 2).map(|i| 0x20_0000 + i * 64).collect();
        s.access_batch(1, &wide, 100, false);
        assert_eq!(s.port_totals(), (2, 2));
        // Empty batches consume no counters.
        s.access_batch(1, &[], 200, false);
        assert_eq!(s.port_totals(), (2, 2));
        // Totals sum over cores; reset clears them.
        s.access_batch(2, &wide, 0, false);
        assert_eq!(s.port_totals(), (3, 4));
        s.reset();
        assert_eq!(s.port_totals(), (0, 0));
    }
}
