//! The persistent, content-addressed campaign result store.
//!
//! A campaign row — one kernel on one device configuration under the
//! three mapping policies — is a pure function of *(program words,
//! dataset, configuration, policy set, engine semantics)*. This module
//! stores rows on disk keyed by a canonical FNV-1a/64 digest of exactly
//! those inputs ([`campaign_key`]), so a sweep that has run once never
//! runs again: repeated campaigns, policy studies and CI jobs simulate
//! only the delta.
//!
//! Layout: one JSON-lines shard per kernel (`<dir>/<kernel>.jsonl`), in
//! the same hand-rolled serde-free dialect as the probe shards (one
//! scanner reads both: [`crate::jsonl`]). Every
//! row carries **all** raw `MemStats`/`DispatchStats` counters (not the
//! derived rates), so results reassembled from the store merge exactly
//! like freshly simulated ones. Writes are atomic (tmp-file + rename via
//! [`crate::persist`]); loads skip truncated or foreign lines, so
//! a store that survived a kill simply re-derives the lost tail.
//!
//! The cache is process-wide opt-in: binaries take a `--cache DIR` flag,
//! and the `VORTEX_CAMPAIGN_CACHE=0` environment escape hatch disables
//! all reuse (every lookup misses, nothing is persisted) without touching
//! command lines. Invalidation is by key construction: the engine
//! semantics version ([`vortex_core::ENGINE_SEMANTICS_VERSION`]) is
//! folded into every digest, so rows written by a semantically different
//! engine can never be returned.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use vortex_asm::Program;
use vortex_core::ENGINE_SEMANTICS_VERSION as SEMVER;
use vortex_core::{digest_device_config, digest_program, Fnv64};
use vortex_sim::DeviceConfig;

use crate::campaign::{ConfigRow, Scale};
use crate::jsonl::{fields, push_f64, push_hex16, push_key, push_u64};
use crate::persist::replace_file;

/// Computes the content key of one campaign row: the digest of every
/// input the row's cycles and counters are a function of.
///
/// The dataset is identified by `(kernel name, scale)` — kernel inputs
/// are generated from fixed per-kernel seeds, so name and scale pin the
/// exact bytes uploaded to the device. The mapping policy set of a
/// [`ConfigRow`] is the fixed `naive1+fixed32+auto` triple and is folded
/// in literally, so future row shapes cannot alias today's.
pub fn campaign_key(kernel: &str, scale: Scale, program: &Program, config: &DeviceConfig) -> u64 {
    campaign_key_from_digest(kernel, scale, digest_program(program), config)
}

/// [`campaign_key`] with the program digest precomputed (one assembly
/// serves a whole sweep).
pub fn campaign_key_from_digest(
    kernel: &str,
    scale: Scale,
    program_digest: u64,
    config: &DeviceConfig,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(SEMVER);
    h.write_str(kernel);
    h.write_str(scale.tag());
    h.write_u64(program_digest);
    h.write_u64(digest_device_config(config));
    h.write_str("naive1+fixed32+auto");
    h.finish()
}

/// Whether campaign caching is enabled in this environment
/// (`VORTEX_CAMPAIGN_CACHE=0` is the escape hatch — see the README's
/// campaign-cache section).
pub fn cache_enabled_by_env() -> bool {
    std::env::var("VORTEX_CAMPAIGN_CACHE").map(|v| v != "0").unwrap_or(true)
}

/// Transport counters of one cache handle: what the store did for this
/// process (raw sums).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the store (simulations avoided).
    pub hits: u64,
    /// Lookups that found nothing (simulations performed by the caller).
    pub misses: u64,
    /// Rows appended by this process.
    pub insertions: u64,
    /// Bytes of shard data read at open time.
    pub bytes_read: u64,
    /// Bytes of shard data written (each atomic flush counts its full
    /// shard rewrite).
    pub bytes_written: u64,
    /// Rows currently resident (all kernels).
    pub entries: u64,
}

/// One kernel's shard: rows by key, ordered so flushed files are
/// deterministic. A row's `config` is only as good as its topology (the
/// rest is the inserter's, or the defaults when read from disk); a hit
/// hands out the caller's configuration instead.
#[derive(Debug, Default)]
struct Shard {
    rows: BTreeMap<u64, ConfigRow>,
    dirty: bool,
}

#[derive(Debug, Default)]
struct Inner {
    shards: HashMap<String, Shard>,
    /// `entries` is derived from `shards` when read.
    counters: CacheCounters,
}

impl Inner {
    /// The stored row for `key` as a row of `config`. A stored topology
    /// mismatch — only possible on a digest collision — is no row.
    fn row(&self, kernel: &str, key: u64, config: &DeviceConfig) -> Option<ConfigRow> {
        let row = self.shards.get(kernel)?.rows.get(&key)?;
        let topology = |c: &DeviceConfig| (c.cores, c.warps, c.threads, c.cores_per_cluster);
        (topology(&row.config) == topology(config))
            .then(|| ConfigRow { config: *config, ..row.clone() })
    }

    /// Reads every shard file under `dir`, keeping rows already resident
    /// on a key collision (same key ⇒ same content by construction).
    /// Unreadable lines are skipped. Returns the number of rows added;
    /// `dirty` says whether they still need flushing to this store.
    fn load_dir(&mut self, dir: &Path, dirty: bool) -> io::Result<usize> {
        let mut added = 0;
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = shard_kernel_name(&path) else { continue };
            let text = std::fs::read_to_string(&path)?;
            self.counters.bytes_read += text.len() as u64;
            let shard = self.shards.entry(name).or_default();
            for line in text.lines() {
                if let Some((key, row)) = parse_line(line) {
                    if let Entry::Vacant(slot) = shard.rows.entry(key) {
                        slot.insert(row);
                        shard.dirty |= dirty;
                        added += 1;
                    }
                }
            }
        }
        Ok(added)
    }
}

/// A handle on an on-disk campaign result store (see the module docs).
///
/// Thread-safe: campaign workers share one handle across threads; all
/// state is behind one mutex (lookups and inserts are microseconds
/// against multi-millisecond simulations).
#[derive(Debug)]
pub struct CampaignCache {
    dir: PathBuf,
    enabled: bool,
    /// Flush the affected shard synchronously on every insert. The
    /// resumable driver turns this on so a kill between two
    /// configurations loses at most the in-flight one; batch probes leave
    /// it off and flush once per kernel.
    autoflush: bool,
    inner: Mutex<Inner>,
}

impl CampaignCache {
    /// Opens (creating if necessary) the store at `dir` and loads every
    /// shard. Unreadable lines — truncated tails from a killed writer,
    /// rows from another engine-semantics version — are skipped.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-read errors (a *corrupt*
    /// store never errors; a *missing or unreadable* one does).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut inner = Inner::default();
        inner.load_dir(&dir, false)?;
        Ok(CampaignCache {
            dir,
            enabled: cache_enabled_by_env(),
            autoflush: false,
            inner: Mutex::new(inner),
        })
    }

    /// Enables per-insert synchronous flushing (see the field docs).
    pub fn with_autoflush(mut self, autoflush: bool) -> Self {
        self.autoflush = autoflush;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether lookups can hit (false under `VORTEX_CAMPAIGN_CACHE=0`).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock")
    }

    /// Fetches the stored row for `key`, counting a hit or miss. The
    /// caller's `config` becomes the returned row's configuration (it is
    /// part of the key's preimage); a stored topology mismatch — only
    /// possible on a digest collision — is treated as a miss.
    pub fn lookup(&self, kernel: &str, key: u64, config: &DeviceConfig) -> Option<ConfigRow> {
        if !self.enabled {
            return None;
        }
        let mut inner = self.lock();
        let row = inner.row(kernel, key, config);
        match row {
            Some(_) => inner.counters.hits += 1,
            None => inner.counters.misses += 1,
        }
        row
    }

    /// [`lookup`](CampaignCache::lookup) without touching the hit/miss
    /// counters — for assembling final results from rows already known
    /// to be present.
    pub fn get(&self, kernel: &str, key: u64, config: &DeviceConfig) -> Option<ConfigRow> {
        if !self.enabled {
            return None;
        }
        self.lock().row(kernel, key, config)
    }

    /// Whether `key` is resident (no counter traffic).
    pub fn contains(&self, kernel: &str, key: u64) -> bool {
        self.enabled && self.lock().shards.get(kernel).is_some_and(|s| s.rows.contains_key(&key))
    }

    /// Stores a freshly simulated row. With autoflush on, the kernel's
    /// shard is atomically rewritten before this returns (I/O failures
    /// degrade to in-memory-only with a warning — simulation results are
    /// never discarded over a persistence error).
    pub fn insert(&self, kernel: &str, key: u64, row: &ConfigRow) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        let Inner { shards, counters } = &mut *inner;
        let shard = match shards.get_mut(kernel) {
            Some(shard) => shard,
            None => shards.entry(kernel.to_owned()).or_default(),
        };
        shard.rows.insert(key, row.clone());
        shard.dirty = true;
        counters.insertions += 1;
        if self.autoflush {
            let flushed = std::fs::create_dir_all(&self.dir)
                .and_then(|()| flush_shard(&self.dir, kernel, shard));
            match flushed {
                Ok(bytes) => counters.bytes_written += bytes,
                Err(e) => eprintln!("campaign cache: flushing {kernel} shard failed: {e}"),
            }
        }
    }

    /// Atomically rewrites every dirty shard.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O failure; remaining dirty shards keep
    /// their data in memory and stay flushable.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.lock();
        let Inner { shards, counters } = &mut *inner;
        std::fs::create_dir_all(&self.dir)?;
        for (kernel, shard) in shards.iter_mut().filter(|(_, s)| s.dirty) {
            counters.bytes_written += flush_shard(&self.dir, kernel, shard)?;
        }
        Ok(())
    }

    /// This handle's transport counters.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.lock();
        let entries = inner.shards.values().map(|s| s.rows.len() as u64).sum();
        CacheCounters { entries, ..inner.counters }
    }

    /// Absorbs every row of the store at `dir` into this handle — the
    /// multi-process campaign merge: each worker process writes a
    /// private store, and the parent absorbs them so the final sweep
    /// assembles entirely from residency. Rows already present win on
    /// key collision (same key ⇒ same content by construction, so the
    /// choice is immaterial); foreign-semver and truncated lines are
    /// skipped exactly as in [`open`](CampaignCache::open). Returns the
    /// number of rows newly added.
    ///
    /// # Errors
    ///
    /// Propagates directory- and file-read errors on `dir`.
    pub fn absorb_dir(&self, dir: &Path) -> io::Result<usize> {
        if !self.enabled {
            return Ok(0);
        }
        let mut inner = self.lock();
        let added = inner.load_dir(dir, true)?;
        inner.counters.insertions += added as u64;
        Ok(added)
    }

    /// Resident row count per kernel, sorted by kernel name (store
    /// inspection — the `throughput --cache` summary).
    pub fn entries_by_kernel(&self) -> Vec<(String, usize)> {
        let inner = self.lock();
        let mut out: Vec<(String, usize)> =
            inner.shards.iter().map(|(k, s)| (k.clone(), s.rows.len())).collect();
        out.sort();
        out
    }
}

/// Rewrites one kernel's shard file atomically (the store directory
/// exists) and clears its dirty bit. Returns the bytes written.
fn flush_shard(dir: &Path, kernel: &str, shard: &mut Shard) -> io::Result<u64> {
    let mut text = String::with_capacity(shard.rows.len() * 640);
    for (key, row) in &shard.rows {
        render_line(*key, row, &mut text);
    }
    replace_file(&dir.join(format!("{kernel}.jsonl")), text.as_bytes())?;
    shard.dirty = false;
    Ok(text.len() as u64)
}

/// `<dir>/<kernel>.jsonl` → `kernel` (anything else is not a shard).
fn shard_kernel_name(path: &Path) -> Option<String> {
    let kernel = path.file_name()?.to_str()?.strip_suffix(".jsonl")?;
    (!kernel.is_empty()).then(|| kernel.to_owned())
}

/// Appends one stored row as a JSON line: everything a [`ConfigRow`]
/// carries, raw, with the topology standing in for the configuration
/// (which is the key's preimage and is supplied by the caller on a hit).
/// `dram_utilization` uses Rust's shortest-roundtrip float formatting, so
/// the parsed value is bit-exact — warm results must be byte-identical
/// to cold ones.
fn render_line(key: u64, row: &ConfigRow, out: &mut String) {
    fn col(out: &mut String, name: &str, v: u64) {
        out.push_str(", ");
        push_key(out, name);
        push_u64(out, v);
    }
    out.push_str("{\"key\": \"");
    push_hex16(out, key);
    out.push_str("\", \"semver\": ");
    push_u64(out, u64::from(SEMVER));
    out.push_str(", \"topo\": \"");
    out.push_str(&row.config.topology_name());
    out.push('"');
    col(out, "cycles_naive", row.cycles_naive);
    col(out, "cycles_fixed", row.cycles_fixed);
    col(out, "cycles_auto", row.cycles_auto);
    col(out, "lws_auto", u64::from(row.lws_auto));
    out.push_str(", \"dram_utilization\": ");
    push_f64(out, row.dram_utilization);
    let (m, d) = (&row.mem, &row.dispatch);
    col(out, "loads", m.loads);
    col(out, "stores", m.stores);
    col(out, "l1_hits", m.l1.hits);
    col(out, "l1_misses", m.l1.misses);
    col(out, "l1_evictions", m.l1.evictions);
    col(out, "l2_hits", m.l2.hits);
    col(out, "l2_misses", m.l2.misses);
    col(out, "l2_evictions", m.l2.evictions);
    col(out, "dram_requests", m.dram_requests);
    col(out, "launches", d.launches);
    col(out, "dispatch_rounds", d.rounds);
    col(out, "round_tasks", d.round_tasks);
    col(out, "instructions", d.instructions);
    col(out, "issued_instructions", row.instructions);
    col(out, "port_accesses", row.port_accesses);
    col(out, "port_stall_slots", row.port_stall_slots);
    out.push_str("}\n");
}

/// Columns `0..REQUIRED_COLUMNS` of [`parse_line`] must all be present.
/// The issued-instruction and port counters (the three after them)
/// post-date the store format; rows written before they existed parse as
/// zero (the counters were zero-reported then, so merges stay exact).
const REQUIRED_COLUMNS: u32 = 21;

/// Parses one shard line. Returns `None` for anything unusable — a
/// truncated tail, a foreign semantics version, a missing or malformed
/// field — so a damaged store degrades to extra simulation, never to an
/// error or a wrong result.
fn parse_line(line: &str) -> Option<(u64, ConfigRow)> {
    if !(line.starts_with('{') && line.ends_with('}')) {
        return None;
    }
    /// Parses column number `column` into its slot; returns its bit.
    fn col<T: std::str::FromStr>(slot: &mut T, v: &str, column: u32) -> Option<u32> {
        *slot = v.parse().ok()?;
        Some(1 << column)
    }
    let (mut key, mut semver, mut row, mut seen) = (0u64, 0u32, ConfigRow::default(), 0u32);
    for (name, v) in fields(line) {
        seen |= match name {
            "key" => {
                key = u64::from_str_radix(v, 16).ok()?;
                1 // column 0
            }
            "semver" => col(&mut semver, v, 1)?,
            "topo" => col(&mut row.config, v, 2)?,
            "cycles_naive" => col(&mut row.cycles_naive, v, 3)?,
            "cycles_fixed" => col(&mut row.cycles_fixed, v, 4)?,
            "cycles_auto" => col(&mut row.cycles_auto, v, 5)?,
            "lws_auto" => col(&mut row.lws_auto, v, 6)?,
            "dram_utilization" => col(&mut row.dram_utilization, v, 7)?,
            "loads" => col(&mut row.mem.loads, v, 8)?,
            "stores" => col(&mut row.mem.stores, v, 9)?,
            "l1_hits" => col(&mut row.mem.l1.hits, v, 10)?,
            "l1_misses" => col(&mut row.mem.l1.misses, v, 11)?,
            "l1_evictions" => col(&mut row.mem.l1.evictions, v, 12)?,
            "l2_hits" => col(&mut row.mem.l2.hits, v, 13)?,
            "l2_misses" => col(&mut row.mem.l2.misses, v, 14)?,
            "l2_evictions" => col(&mut row.mem.l2.evictions, v, 15)?,
            "dram_requests" => col(&mut row.mem.dram_requests, v, 16)?,
            "launches" => col(&mut row.dispatch.launches, v, 17)?,
            "dispatch_rounds" => col(&mut row.dispatch.rounds, v, 18)?,
            "round_tasks" => col(&mut row.dispatch.round_tasks, v, 19)?,
            "instructions" => col(&mut row.dispatch.instructions, v, 20)?,
            "issued_instructions" => col(&mut row.instructions, v, 21)?,
            "port_accesses" => col(&mut row.port_accesses, v, 22)?,
            "port_stall_slots" => col(&mut row.port_stall_slots, v, 23)?,
            // Counters of the removed block-fusion engine: rows written
            // while it existed carry them; they are read past, not stored.
            "fused_instructions" | "fused_blocks" => 0,
            _ => 0,
        };
    }
    let required = (1 << REQUIRED_COLUMNS) - 1;
    (semver == SEMVER && seen & required == required).then_some((key, row))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_core::DispatchStats;
    use vortex_sim::{CacheStats, MemStats};

    fn sample_row(topo: &str, scale: u64) -> ConfigRow {
        let config: DeviceConfig = topo.parse().unwrap();
        let mem = MemStats {
            loads: 11 * scale,
            stores: 5 * scale,
            l1: CacheStats { hits: 100 * scale, misses: 10 * scale, evictions: 2 * scale },
            l2: CacheStats { hits: 8 * scale, misses: 2 * scale, evictions: scale },
            dram_requests: 3 * scale,
        };
        ConfigRow {
            config,
            cycles_naive: 1000 * scale,
            cycles_fixed: 900 * scale,
            cycles_auto: 800 * scale,
            lws_auto: 4,
            dram_utilization: 0.123456789012345,
            mem,
            dispatch: DispatchStats {
                launches: scale,
                rounds: 4 * scale,
                round_tasks: 32 * scale,
                instructions: 1000 * scale,
            },
            instructions: 3500 * scale,
            port_accesses: 60 * scale,
            port_stall_slots: 7 * scale,
        }
    }

    /// One rendered line, without its line break (what `lines()` yields).
    fn rendered(key: u64, row: &ConfigRow) -> String {
        let mut line = String::new();
        render_line(key, row, &mut line);
        assert_eq!(line.pop(), Some('\n'));
        line
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vortex_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn row_roundtrips_bit_exactly_through_a_line() {
        let row = sample_row("4c8w16t", 3);
        let line = rendered(0xdead_beef_0123_4567, &row);
        let (key, parsed) = parse_line(&line).unwrap();
        assert_eq!(key, 0xdead_beef_0123_4567);
        assert_eq!(parsed, row);
        // f64 exactness is the load-bearing part: bit-identical, not close.
        assert_eq!(parsed.dram_utilization.to_bits(), row.dram_utilization.to_bits());
    }

    #[test]
    fn every_byte_prefix_of_a_line_is_no_row() {
        let line = rendered(u64::MAX, &sample_row("256c4w8tx16", 7));
        for cut in 0..line.len() {
            assert_eq!(parse_line(&line[..cut]), None, "prefix of {cut} bytes");
        }
        assert!(parse_line(&line).is_some());
    }

    #[test]
    fn columns_parse_in_any_order_and_unknown_ones_are_skipped() {
        let row = sample_row("2c4w8t", 5);
        let line = rendered(77, &row);
        let body = line.strip_prefix('{').unwrap().strip_suffix('}').unwrap();
        let mut columns: Vec<&str> = body.split(", ").collect();
        columns.reverse();
        columns.insert(9, "\"added_later\": 1.5");
        columns.push("\"note\": \"loads: 0, stores\"");
        let shuffled = format!("{{{}}}", columns.join(", "));
        assert_eq!(parse_line(&shuffled), Some((77, row)));
    }

    #[test]
    fn only_the_counters_newer_than_the_format_may_be_absent() {
        let row = sample_row("2c4w8t", 5);
        let line = rendered(77, &row);
        let body = line.strip_prefix('{').unwrap().strip_suffix('}').unwrap();
        let columns: Vec<&str> = body.split(", ").collect();
        assert_eq!(columns.len() as u32, REQUIRED_COLUMNS + 3);
        for drop in 0..columns.len() {
            let mut kept = columns.clone();
            let dropped = kept.remove(drop);
            let parsed = parse_line(&format!("{{{}}}", kept.join(", ")));
            if (drop as u32) < REQUIRED_COLUMNS {
                assert_eq!(parsed, None, "a row without {dropped} is no row");
            } else {
                assert!(parsed.is_some(), "{dropped} post-dates the format");
            }
        }
        // A row written before the three existed carries them as zero.
        let old = format!("{{{}}}", columns[..REQUIRED_COLUMNS as usize].join(", "));
        let (_, parsed) = parse_line(&old).unwrap();
        let zeroed = ConfigRow { instructions: 0, port_accesses: 0, port_stall_slots: 0, ..row };
        assert_eq!(parsed, zeroed);
    }

    #[test]
    fn a_store_written_by_the_previous_codec_loads_and_rewrites_byte_for_byte() {
        // `tests/fixtures/store_pr11` was written by the last commit whose
        // `render_line` was one `writeln!` (a sweep + tune on four
        // topologies, one clustered), when rows still carried the two
        // block-fusion counters: they load, and are rewritten without
        // them. Only the format is under test, so the rows are re-stamped
        // with this engine's semantics version.
        let fixture = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store_pr11"));
        let old = temp_store("fixture_old");
        std::fs::create_dir_all(&old).unwrap();
        let mut lines = 0;
        for shard in ["vecadd.jsonl", "gcn_aggr.jsonl"] {
            let text = std::fs::read_to_string(fixture.join(shard)).unwrap();
            let text = text.replace("\"semver\": 1,", &format!("\"semver\": {SEMVER},"));
            lines += text.lines().count();
            std::fs::write(old.join(shard), text).unwrap();
        }
        assert_eq!(lines, 21);
        let loaded = CampaignCache::open(&old).unwrap();
        assert_eq!(loaded.counters().entries, 21, "every row of the old store loads");
        let config: DeviceConfig = "256c4w8tx16".parse().unwrap();
        let hit = loaded.lookup("gcn_aggr", 0x75e3_4db4_f261_a81d, &config).expect("a fixture row");
        assert_eq!((hit.cycles_fixed, hit.lws_auto, hit.config), (10905, 1, config));
        assert_eq!(hit.dram_utilization.to_bits(), 0.3611419068736142f64.to_bits());

        let new = temp_store("fixture_new");
        let rewritten = CampaignCache::open(&new).unwrap();
        assert_eq!(rewritten.absorb_dir(&old).unwrap(), 21);
        rewritten.flush().unwrap();
        for shard in ["vecadd.jsonl", "gcn_aggr.jsonl"] {
            let stripped: String = std::fs::read_to_string(old.join(shard))
                .unwrap()
                .lines()
                .map(|line| {
                    let fused = line.find("\"fused_instructions\"").unwrap();
                    let after = line.find("\"issued_instructions\"").unwrap();
                    assert_eq!(line[fused..after].matches(": ").count(), 2, "two columns");
                    format!("{}{}\n", &line[..fused], &line[after..])
                })
                .collect();
            assert_eq!(std::fs::read_to_string(new.join(shard)).unwrap(), stripped);
        }
        std::fs::remove_dir_all(&old).unwrap();
        std::fs::remove_dir_all(&new).unwrap();
    }

    #[test]
    fn foreign_semver_and_garbage_lines_are_skipped() {
        let line = rendered(1, &sample_row("1c2w2t", 1));
        let foreign = line.replace(&format!("\"semver\": {SEMVER}"), "\"semver\": 999999");
        assert!(parse_line(&foreign).is_none());
        assert!(parse_line(&line.replace("\"loads\": 11", "\"loads\": eleven")).is_none());
        assert!(parse_line(&line.replace("1c2w2t", "1c2w")).is_none());
        assert!(parse_line("").is_none());
        assert!(parse_line("{\"key\": \"0000000000000001\", \"semv").is_none());
        assert!(parse_line("not json at all").is_none());
    }

    #[test]
    fn store_roundtrips_and_counts() {
        let dir = temp_store("roundtrip");
        let cache = CampaignCache::open(&dir).unwrap();
        let row = sample_row("2c4w8t", 2);
        let key = 42u64;
        assert!(cache.lookup("vecadd", key, &row.config).is_none());
        cache.insert("vecadd", key, &row);
        cache.flush().unwrap();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions, c.entries), (0, 1, 1, 1));
        assert!(c.bytes_written > 0);

        // A fresh handle reads the flushed shard back, bit-exact.
        let reopened = CampaignCache::open(&dir).unwrap();
        let hit = reopened.lookup("vecadd", key, &row.config).expect("persisted row");
        assert_eq!(hit.cycles_auto, row.cycles_auto);
        assert_eq!(hit.dram_utilization.to_bits(), row.dram_utilization.to_bits());
        assert_eq!(hit.mem, row.mem);
        assert_eq!(hit.dispatch, row.dispatch);
        assert_eq!(reopened.counters().bytes_read, cache.counters().bytes_written);
        // Wrong key and wrong kernel miss.
        assert!(reopened.lookup("vecadd", 43, &row.config).is_none());
        assert!(reopened.lookup("relu", key, &row.config).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_shard_tail_degrades_to_a_miss() {
        let dir = temp_store("truncated");
        let cache = CampaignCache::open(&dir).unwrap();
        cache.insert("vecadd", 1, &sample_row("1c2w2t", 1));
        cache.insert("vecadd", 2, &sample_row("1c2w4t", 2));
        cache.flush().unwrap();
        // Simulate a kill mid-write of the final line.
        let path = dir.join("vecadd.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();
        let reopened = CampaignCache::open(&dir).unwrap();
        assert_eq!(reopened.counters().entries, 1, "only the intact line survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn campaign_keys_separate_all_inputs() {
        let program =
            crate::campaign::kernel_factories(Scale::Sweep)[0].make_kernel().build().unwrap();
        let c1: DeviceConfig = "1c2w2t".parse().unwrap();
        let c2: DeviceConfig = "1c2w4t".parse().unwrap();
        let k = |kernel: &str, scale, config| campaign_key(kernel, scale, &program, config);
        let base = k("vecadd", Scale::Sweep, &c1);
        assert_eq!(base, k("vecadd", Scale::Sweep, &c1), "stable across calls");
        assert_ne!(base, k("vecadd", Scale::Sweep, &c2), "config must re-key");
        assert_ne!(base, k("relu", Scale::Sweep, &c1), "kernel name must re-key");
        assert_ne!(base, k("vecadd", Scale::Paper, &c1), "dataset scale must re-key");
    }

    #[test]
    fn env_escape_hatch_reports_disabled() {
        // The env var is process-global, so only exercise the pure logic.
        assert!(cache_enabled_by_env() || std::env::var("VORTEX_CAMPAIGN_CACHE").is_ok());
    }
}
