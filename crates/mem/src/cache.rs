//! Tag-only set-associative cache timing model.

use std::fmt;

/// Geometry of one cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity (ways per set). Must divide `size_bytes / line_bytes`.
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        self.size_bytes / self.line_bytes / self.ways
    }

    /// Validates the geometry (power-of-two line and set count, non-zero).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when invalid; configurations are
    /// static inputs, so a panic is the appropriate failure mode.
    pub fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways > 0, "cache must have at least one way");
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.ways),
            "cache size must be a multiple of ways*line"
        );
        let sets = self.sets();
        assert!(sets > 0, "cache must have at least one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
    }
}

/// Hit/miss counters for one cache.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (including cold misses).
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Adds `other`'s counters into `self` (aggregation across caches or
    /// runs).
    pub fn accumulate(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in 0..=1 (0 when there were no accesses).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )
    }
}

#[derive(Copy, Clone, Debug)]
struct Way {
    tag: u32,
    valid: bool,
    dirty: bool,
    lru_stamp: u64,
}

/// Precomputed shift/mask forms of a validated [`CacheConfig`] geometry.
///
/// The batch walk of [`MemSystem`](crate::MemSystem) copies this small
/// header into locals once per SIMT access, so the per-line index math
/// (`addr >> line_shift`) reads registers instead of re-deriving the
/// geometry — or re-loading it through `&mut Cache` — on every line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// `log2(line_bytes)`: shifts a byte address to its line id.
    pub line_shift: u32,
    /// `sets - 1`: masks a line id to its set index.
    pub set_mask: u32,
    /// `log2(sets)`: shifts a line id to its tag.
    pub set_shift: u32,
}

impl CacheGeometry {
    /// The line id containing byte address `addr`.
    #[inline]
    pub fn line_of(&self, addr: u32) -> u32 {
        addr >> self.line_shift
    }
}

/// Result of a cache lookup with fill-on-miss.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The line was resident.
    Hit,
    /// The line was filled. `writeback` holds the base address of a dirty
    /// victim that must be written downstream, if one was displaced.
    Miss {
        /// Base address of the displaced dirty line, if any.
        writeback: Option<u32>,
    },
}

impl Lookup {
    /// Whether this lookup hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// A tag-only, LRU, set-associative cache.
///
/// The cache stores no data — the architectural state lives in
/// [`MainMemory`](crate::MainMemory) — it only answers "would this access
/// hit?", updating tags and LRU state as a side effect.
///
/// # Examples
///
/// ```
/// use vortex_mem::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// assert!(!c.access(0x0, false).is_hit());  // cold miss
/// assert!(c.access(0x4, false).is_hit());   // same line: hit
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    ways: Vec<Way>,
    tick: u64,
    stats: CacheStats,
    // Shift/mask forms of the (validated power-of-two) geometry, so the
    // per-access index math never pays an integer division.
    line_shift: u32,
    set_mask: u32,
    set_shift: u32,
    /// Most-recently-hit line and its way index: streaming SIMT accesses
    /// hit the same line back-to-back, so this skips the set walk on the
    /// common path. `u64::MAX` means "no MRU entry" (a `u64` so the
    /// sentinel cannot collide with any real 32-bit line id).
    mru_line: u64,
    mru_way: u32,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let entries = (config.sets() * config.ways) as usize;
        Cache {
            config,
            ways: vec![Way { tag: 0, valid: false, dirty: false, lru_stamp: 0 }; entries],
            tick: 0,
            stats: CacheStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config.sets() - 1,
            set_shift: config.sets().trailing_zeros(),
            mru_line: u64::MAX,
            mru_way: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The precomputed shift/mask geometry header (see [`CacheGeometry`]).
    pub fn geometry(&self) -> CacheGeometry {
        CacheGeometry {
            line_shift: self.line_shift,
            set_mask: self.set_mask,
            set_shift: self.set_shift,
        }
    }

    /// Looks up the line containing `addr`, filling it on a miss
    /// (write-allocate). `is_store` marks the line dirty (write-back).
    #[inline]
    pub fn access(&mut self, addr: u32, is_store: bool) -> Lookup {
        self.access_line(addr >> self.line_shift, is_store)
    }

    /// [`access`](Cache::access) for a pre-shifted line id
    /// (`geometry().line_of(addr)`) — the batch walk derives the id once
    /// against the hoisted [`CacheGeometry`] header instead of re-reading
    /// the shift through `&mut self` per line.
    ///
    /// The lookup runs in two separated phases: the hot *tag-walk* phase
    /// (MRU way first, then the set scan) stays small and inlinable; the
    /// cold *fill* phase (victim choice, write-back extraction, tag
    /// install) is a separate out-of-line function.
    #[inline]
    pub fn access_line(&mut self, line: u32, is_store: bool) -> Lookup {
        self.tick += 1;
        if u64::from(line) == self.mru_line {
            // Back-to-back access to the same line: the way index is known
            // and still valid (any eviction of it would have gone through
            // the fill phase below, which updates the MRU entry).
            let way = &mut self.ways[self.mru_way as usize];
            way.lru_stamp = self.tick;
            way.dirty |= is_store;
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let slots = &mut self.ways[base..base + ways];
        if let Some(pos) = slots.iter().position(|w| w.valid && w.tag == tag) {
            let way = &mut slots[pos];
            way.lru_stamp = self.tick;
            way.dirty |= is_store;
            self.stats.hits += 1;
            self.mru_line = u64::from(line);
            self.mru_way = (base + pos) as u32;
            return Lookup::Hit;
        }
        self.fill(line, set, tag, is_store)
    }

    /// Fill phase of a miss: victim selection, dirty write-back address
    /// extraction, tag install, MRU update. Out of line so the tag-walk
    /// phase above compiles to a compact loop.
    fn fill(&mut self, line: u32, set: usize, tag: u32, is_store: bool) -> Lookup {
        self.stats.misses += 1;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let slots = &mut self.ways[base..base + ways];
        // Choose victim: first invalid way, else LRU.
        let pos = match slots.iter().position(|w| !w.valid) {
            Some(p) => p,
            None => {
                self.stats.evictions += 1;
                slots.iter().enumerate().min_by_key(|(_, w)| w.lru_stamp).expect("ways > 0").0
            }
        };
        let victim = &mut slots[pos];
        let writeback = if victim.valid && victim.dirty {
            let victim_line = (victim.tag << self.set_shift) + set as u32;
            Some(victim_line << self.line_shift)
        } else {
            None
        };
        victim.tag = tag;
        victim.valid = true;
        victim.dirty = is_store;
        victim.lru_stamp = self.tick;
        // The filled way is the new most-recent line; this also retires any
        // stale MRU entry that aliased the evicted slot.
        self.mru_line = u64::from(line);
        self.mru_way = (base + pos) as u32;
        Lookup::Miss { writeback }
    }

    /// Checks whether the line containing `addr` is resident, without
    /// updating any state — not the tick, the statistics, an LRU stamp
    /// or the MRU entry — so a probe can never perturb the timing of the
    /// accesses around it. The MRU entry is consulted first (it always
    /// names a resident line: only the fill phase moves it), so a probe
    /// of the line just accessed skips the set scan.
    #[inline]
    pub fn probe(&self, addr: u32) -> bool {
        let line = addr >> self.line_shift;
        if u64::from(line) == self.mru_line {
            return true;
        }
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = self.config.ways as usize;
        self.ways[set * ways..(set + 1) * ways].iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates all lines and clears statistics. Every access bumps
    /// the internal `tick` before touching anything else, so a cache
    /// still at tick 0 holds only construction state and the O(ways)
    /// sweep is skipped; the return value reports whether any work was
    /// done (the O(touched-state) reset contract).
    pub fn reset(&mut self) -> bool {
        if self.tick == 0 {
            return false;
        }
        for w in &mut self.ways {
            w.valid = false;
            w.dirty = false;
        }
        self.tick = 0;
        self.stats = CacheStats::default();
        self.mru_line = u64::MAX;
        self.mru_way = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16B lines = 64B
        Cache::new(CacheConfig { size_bytes: 64, ways: 2, line_bytes: 16 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).is_hit());
        assert!(c.access(0, false).is_hit());
        assert!(c.access(15, false).is_hit());
        assert!(!c.access(16, false).is_hit()); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines with (line % 2 == 0): addresses 0, 32, 64...
        c.access(0, false); // A
        c.access(32, false); // B
        c.access(0, false); // A refreshed
        c.access(64, false); // C evicts B (LRU)
        assert!(c.probe(0), "A stays");
        assert!(!c.probe(32), "B evicted");
        assert!(c.probe(64), "C resident");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = tiny();
        assert_eq!(c.access(0, true), Lookup::Miss { writeback: None });
        c.access(32, false); // clean B in the same set
                             // Evict A (dirty) by filling C in set 0.
        let l = c.access(64, false);
        assert_eq!(l, Lookup::Miss { writeback: Some(0) });
        // B is now LRU; evicting it is clean.
        let l = c.access(96, false);
        assert_eq!(l, Lookup::Miss { writeback: None });
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false); // clean fill
        c.access(0, true); // dirtied by store hit
        c.access(32, false);
        let l = c.access(64, false); // evicts A which is dirty
        assert_eq!(l, Lookup::Miss { writeback: Some(0) });
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0, false); // set 0
        c.access(16, false); // set 1
        assert!(c.probe(0));
        assert!(c.probe(16));
    }

    #[test]
    fn probe_leaves_every_field_untouched() {
        let mut c = tiny();
        c.access(0, true); // set 0, dirty
        c.access(32, false); // set 0, second way
        c.access(16, false); // set 1 — the MRU entry
        let before = format!("{c:?}");
        assert!(c.probe(16), "MRU hit");
        assert!(c.probe(0) && c.probe(32 + 15), "set-scan hits");
        assert!(!c.probe(64), "miss in a full set");
        assert!(!c.probe(48), "miss in a half-empty set");
        assert!(!c.probe(999_999));
        // Tick, stats, every way's LRU stamp and dirty bit, the MRU entry.
        assert_eq!(format!("{c:?}"), before);
        // So the next fill still evicts the LRU line (A), dirty.
        assert_eq!(c.access(64, false), Lookup::Miss { writeback: Some(0) });
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0, true);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses(), 0);
        // After reset the refill eviction is clean.
        c.access(0, false);
        c.access(32, false);
        assert_eq!(c.access(64, false), Lookup::Miss { writeback: None });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_panics() {
        Cache::new(CacheConfig { size_bytes: 60, ways: 2, line_bytes: 15 });
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
