//! The probe JSON dialect: the machine-readable campaign/throughput
//! report shared by `speed_probe`, the resumable `campaign` driver and
//! the committed `BENCH_*.json` baselines.
//!
//! One file is a flat object: grid metadata (`configs`, `jobs`,
//! `total_seconds`, optional `shard`), the cache transport totals of the
//! producing process (`cache_bytes_read`/`cache_bytes_written`), and a
//! `kernels` array of per-kernel rows. Rows carry **raw counters only**
//! (hits, misses, rounds, instructions, cache hits/misses …) — derived
//! rates are computed at display time — so shard files produced by
//! independent processes merge into exactly the numbers a single-process
//! run would have produced ([`merge_probe_files`]).
//!
//! Everything here is serde-free by standing constraint; the parser reads
//! the dialect [`render_json`] writes by key through the crate's one field
//! scanner ([`crate::jsonl`]), with missing newer-generation counters
//! defaulting to zero so every committed baseline since PR 1 still parses
//! and merges.

use vortex_core::DispatchStats;
use vortex_sim::MemStats;

use crate::cache::CacheCounters;
use crate::campaign::CampaignResult;
use crate::jsonl::Object;

/// One kernel row of a probe JSON (also the in-memory accumulator).
#[derive(Clone, Debug, Default)]
pub struct KernelRow {
    /// Kernel name.
    pub name: String,
    /// Configurations measured by the producing process.
    pub configs: usize,
    /// Wall-clock seconds spent on this kernel.
    pub seconds: f64,
    /// Mean DRAM utilisation of the auto runs.
    pub util: f64,
    /// Auto-run memory counters summed over the measured configurations
    /// (only hits/misses and `dram_requests` are serialised).
    pub mem: MemStats,
    /// Auto-run dispatch-round counters summed over the measured
    /// configurations (launches, rounds, tasks — raw sums).
    pub dispatch: DispatchStats,
    /// Instructions the device actually issued across the executed
    /// policy runs of the measured configurations (dispatch prologues
    /// and autotune probe launches included — everything the host paid
    /// to simulate; raw sum, exact to merge). Distinct from the
    /// launch-attributed `dispatch.instructions`. Zero in pre-PR9 files.
    pub instructions: u64,
    /// Configurations answered from the campaign result store.
    pub cache_hits: u64,
    /// Configurations actually simulated (store misses; the whole count
    /// when no cache is attached).
    pub cache_misses: u64,
    /// SIMT memory-port accesses of the auto runs (batched accesses that
    /// carried at least one line — raw sum, exact to merge).
    pub port_accesses: u64,
    /// Extra L1 port slots beyond the first each access occupied (the
    /// cycles memory ports stayed blocked serialising uncoalesced lines
    /// — raw sum, exact to merge).
    pub port_stall_slots: u64,
    /// Policy runs measured by executing and recording a trace (zero
    /// without a trace store attached, and in pre-PR10 files — a
    /// transport counter, exact to merge).
    pub trace_records: u64,
    /// Policy runs measured by replaying a stored trace.
    pub trace_replays: u64,
}

impl KernelRow {
    /// The row of one kernel's campaign: every raw counter summed over
    /// `result`'s configurations, plus how the process obtained them.
    pub fn of_campaign(result: &CampaignResult, seconds: f64, hits: u64, misses: u64) -> Self {
        let (port_accesses, port_stall_slots) = result.total_ports();
        KernelRow {
            name: result.kernel.to_owned(),
            configs: result.rows.len(),
            seconds,
            util: result.mean_dram_utilization(),
            mem: result.total_mem(),
            dispatch: result.total_dispatch(),
            instructions: result.total_instructions(),
            cache_hits: hits,
            cache_misses: misses,
            port_accesses,
            port_stall_slots,
            trace_records: result.trace_records,
            trace_replays: result.trace_replays,
        }
    }

    /// Host nanoseconds spent per simulated instruction — the simulator
    /// cost metric the big-topology scaling work tracks. Derived from the
    /// raw `seconds` and instruction counters at display/render time, so
    /// merged shard files recompute it from the exact sums. The
    /// denominator is [`instructions`](KernelRow::instructions) (every
    /// instruction the host simulated during the timed interval); rows
    /// parsed from pre-PR9 files fall back to the launch-attributed
    /// dispatch count, the closest raw counter those files carry.
    pub fn host_ns_per_instr(&self) -> f64 {
        let instrs =
            if self.instructions != 0 { self.instructions } else { self.dispatch.instructions };
        if instrs == 0 {
            return 0.0;
        }
        self.seconds * 1e9 / instrs as f64
    }
}

/// A parsed (or to-be-rendered) probe file.
#[derive(Clone, Debug, Default)]
pub struct ProbeFile {
    /// Configurations in the producing process's grid share.
    pub configs: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Shard designator (`K/M`), if the file covers a grid share.
    pub shard: Option<(usize, usize)>,
    /// Campaign-store bytes read by the producing process.
    pub cache_bytes_read: u64,
    /// Campaign-store bytes written by the producing process.
    pub cache_bytes_written: u64,
    /// Per-kernel rows.
    pub rows: Vec<KernelRow>,
}

impl ProbeFile {
    /// Stamps the store transport totals onto the file.
    pub fn with_cache_totals(mut self, counters: &CacheCounters) -> Self {
        self.cache_bytes_read = counters.bytes_read;
        self.cache_bytes_written = counters.bytes_written;
        self
    }
}

/// Renders the probe JSON (hand-rolled — the build environment has no
/// serde): a flat object that downstream tooling can diff across PRs.
pub fn render_json(file: &ProbeFile) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"configs\": {},\n", file.configs));
    if let Some((k, m)) = file.shard {
        out.push_str(&format!("  \"shard\": \"{k}/{m}\",\n"));
    }
    out.push_str(&format!("  \"jobs\": {},\n", file.jobs));
    out.push_str(&format!("  \"total_seconds\": {:.3},\n", file.total_seconds));
    out.push_str(&format!("  \"cache_bytes_read\": {},\n", file.cache_bytes_read));
    out.push_str(&format!("  \"cache_bytes_written\": {},\n", file.cache_bytes_written));
    out.push_str("  \"kernels\": [\n");
    for (i, row) in file.rows.iter().enumerate() {
        let comma = if i + 1 == file.rows.len() { "" } else { "," };
        let m = &row.mem;
        let d = &row.dispatch;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"configs\": {}, \"seconds\": {:.3}, \
             \"mean_dram_utilization\": {:.4}, \"l1_hits\": {}, \"l1_misses\": {}, \
             \"l2_hits\": {}, \"l2_misses\": {}, \"dram_requests\": {}, \
             \"launches\": {}, \"dispatch_rounds\": {}, \"round_tasks\": {}, \
             \"instructions\": {}, \"issued_instructions\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"port_accesses\": {}, \"port_stall_slots\": {}, \
             \"trace_records\": {}, \"trace_replays\": {}, \
             \"host_ns_per_instr\": {:.3}}}{comma}\n",
            row.name,
            row.configs,
            row.seconds,
            row.util,
            m.l1.hits,
            m.l1.misses,
            m.l2.hits,
            m.l2.misses,
            m.dram_requests,
            d.launches,
            d.rounds,
            d.round_tasks,
            d.instructions,
            row.instructions,
            row.cache_hits,
            row.cache_misses,
            row.port_accesses,
            row.port_stall_slots,
            row.trace_records,
            row.trace_replays,
            row.host_ns_per_instr(),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses the exact JSON [`render_json`] writes. Counters absent from
/// older file generations (pre-PR4 memory, pre-PR5 dispatch, pre-PR7
/// cache, pre-PR9 port) default to zero, so every committed baseline
/// still parses and merges. Keys no longer written are ignored:
/// `fused_instructions` and `fused_blocks`, the counters of the removed
/// block-fusion engine.
///
/// # Errors
///
/// A message naming the first missing or unparsable required field.
pub fn parse_probe_json(text: &str) -> Result<ProbeFile, String> {
    let counter = |obj: &Object<'_>, key: &str| obj.get::<u64>(key).unwrap_or(0);

    let kernels_at = text.find("\"kernels\"").ok_or("missing kernels array")?;
    let head = Object::scan(&text[..kernels_at]);
    let mut file = ProbeFile {
        configs: head.get("configs")?,
        jobs: head.get("jobs")?,
        total_seconds: head.get("total_seconds")?,
        shard: head.get::<String>("shard").ok().and_then(|s| crate::parse_shard(&s)),
        cache_bytes_read: counter(&head, "cache_bytes_read"),
        cache_bytes_written: counter(&head, "cache_bytes_written"),
        rows: Vec::new(),
    };
    for obj in text[kernels_at..].split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        if !obj.contains("\"name\"") {
            continue;
        }
        let obj = &Object::scan(obj);
        let mut mem = MemStats::default();
        mem.l1.hits = counter(obj, "l1_hits");
        mem.l1.misses = counter(obj, "l1_misses");
        mem.l2.hits = counter(obj, "l2_hits");
        mem.l2.misses = counter(obj, "l2_misses");
        mem.dram_requests = counter(obj, "dram_requests");
        let dispatch = DispatchStats {
            launches: counter(obj, "launches"),
            rounds: counter(obj, "dispatch_rounds"),
            round_tasks: counter(obj, "round_tasks"),
            instructions: counter(obj, "instructions"),
        };
        file.rows.push(KernelRow {
            name: obj.get("name")?,
            configs: obj.get("configs")?,
            seconds: obj.get("seconds")?,
            util: obj.get("mean_dram_utilization")?,
            mem,
            dispatch,
            instructions: counter(obj, "issued_instructions"),
            cache_hits: counter(obj, "cache_hits"),
            cache_misses: counter(obj, "cache_misses"),
            // `host_ns_per_instr` is derived, not parsed: the renderer
            // recomputes it from the summed raw counters.
            port_accesses: counter(obj, "port_accesses"),
            port_stall_slots: counter(obj, "port_stall_slots"),
            trace_records: counter(obj, "trace_records"),
            trace_replays: counter(obj, "trace_replays"),
        });
    }
    Ok(file)
}

/// Merges shard probe JSONs: per-kernel configuration counts, seconds
/// and every raw counter (memory, dispatch, cache) are summed;
/// mean DRAM utilisation is weighted by configuration count; shard
/// totals sum into `total_seconds`. Shards partition the grid, so the
/// sums reconstruct exactly the full-grid values.
///
/// # Errors
///
/// The first unreadable or unparsable input file.
pub fn merge_probe_files(paths: &[String]) -> Result<String, String> {
    if paths.is_empty() {
        return Err("no input files".into());
    }
    let mut merged = ProbeFile::default();
    let mut rows: Vec<KernelRow> = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        // Older probe files lack newer counter generations; their rows
        // merge as zeros, so the merged sums under-cover the grid. Flag
        // it rather than silently reporting partial counters as if they
        // were the whole sweep.
        for (marker, what) in [
            ("\"l1_hits\"", "memory counters (pre-PR4 format); merged hit/miss/DRAM"),
            ("\"dispatch_rounds\"", "dispatch counters (pre-PR5 format); merged launch/round/task"),
            ("\"cache_hits\"", "cache counters (pre-PR7 format); merged hit/miss/bytes"),
            ("\"port_accesses\"", "port counters (pre-PR9 format); merged access/stall"),
            ("\"trace_records\"", "trace counters (pre-PR10 format); merged record/replay"),
        ] {
            if !text.contains(marker) {
                eprintln!("note: {path} has no {what} counters cover only the newer shards");
            }
        }
        let file = parse_probe_json(&text).map_err(|e| format!("{path}: {e}"))?;
        merged.jobs = merged.jobs.max(file.jobs);
        merged.total_seconds += file.total_seconds;
        merged.cache_bytes_read += file.cache_bytes_read;
        merged.cache_bytes_written += file.cache_bytes_written;
        for row in file.rows {
            match rows.iter_mut().find(|m| m.name == row.name) {
                Some(m) => {
                    let n = (m.configs + row.configs) as f64;
                    m.util = (m.util * m.configs as f64 + row.util * row.configs as f64) / n;
                    m.configs += row.configs;
                    m.seconds += row.seconds;
                    m.mem.accumulate(&row.mem);
                    m.dispatch.accumulate(&row.dispatch);
                    m.instructions += row.instructions;
                    m.cache_hits += row.cache_hits;
                    m.cache_misses += row.cache_misses;
                    m.port_accesses += row.port_accesses;
                    m.port_stall_slots += row.port_stall_slots;
                    m.trace_records += row.trace_records;
                    m.trace_replays += row.trace_replays;
                }
                None => rows.push(row),
            }
        }
    }
    merged.configs = rows.iter().map(|m| m.configs).max().unwrap_or(0);
    merged.rows = rows;
    Ok(render_json(&merged))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, configs: usize, seconds: f64, util: f64, scale: u64) -> KernelRow {
        let mut mem = MemStats::default();
        mem.l1.hits = 100 * scale;
        mem.l1.misses = 10 * scale;
        mem.l2.hits = 8 * scale;
        mem.l2.misses = 2 * scale;
        mem.dram_requests = 3 * scale;
        let dispatch = DispatchStats {
            launches: 5 * scale,
            rounds: 20 * scale,
            round_tasks: 160 * scale,
            instructions: 1000 * scale,
        };
        KernelRow {
            name: name.to_owned(),
            configs,
            seconds,
            util,
            mem,
            dispatch,
            instructions: 5000 * scale,
            cache_hits: 2 * scale,
            cache_misses: 7 * scale,
            port_accesses: 60 * scale,
            port_stall_slots: 9 * scale,
            trace_records: 4 * scale,
            trace_replays: 11 * scale,
        }
    }

    fn file(rows: Vec<KernelRow>, configs: usize, total: f64, shard: (usize, usize)) -> ProbeFile {
        ProbeFile {
            configs,
            jobs: 1,
            total_seconds: total,
            shard: Some(shard),
            cache_bytes_read: 64,
            cache_bytes_written: 128,
            rows,
        }
    }

    #[test]
    fn probe_json_roundtrips_through_the_parser() {
        let rows = vec![row("vecadd", 10, 1.5, 0.25, 1), row("gauss", 10, 2.0, 0.10, 2)];
        let json = render_json(&file(rows, 10, 3.5, (1, 2)));
        let parsed = parse_probe_json(&json).unwrap();
        assert_eq!(parsed.jobs, 1);
        assert_eq!(parsed.shard, Some((1, 2)));
        assert!((parsed.total_seconds - 3.5).abs() < 1e-9);
        assert_eq!((parsed.cache_bytes_read, parsed.cache_bytes_written), (64, 128));
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.rows[0].name, "vecadd");
        assert_eq!(parsed.rows[0].configs, 10);
        assert!((parsed.rows[1].seconds - 2.0).abs() < 1e-9);
        assert_eq!(parsed.rows[0].mem.l1.hits, 100);
        assert_eq!(parsed.rows[1].mem.dram_requests, 6);
        assert_eq!(parsed.rows[0].dispatch.launches, 5);
        assert_eq!(parsed.rows[1].dispatch.rounds, 40);
        assert_eq!(parsed.rows[1].dispatch.round_tasks, 320);
        assert_eq!(parsed.rows[0].dispatch.instructions, 1000);
        assert_eq!((parsed.rows[0].cache_hits, parsed.rows[0].cache_misses), (2, 7));
        assert_eq!((parsed.rows[1].cache_hits, parsed.rows[1].cache_misses), (4, 14));
        assert_eq!((parsed.rows[0].port_accesses, parsed.rows[0].port_stall_slots), (60, 9));
        assert_eq!((parsed.rows[1].port_accesses, parsed.rows[1].port_stall_slots), (120, 18));
        assert_eq!(parsed.rows[0].instructions, 5000);
        assert_eq!(parsed.rows[1].instructions, 10000);
        assert_eq!((parsed.rows[0].trace_records, parsed.rows[0].trace_replays), (4, 11));
        assert_eq!((parsed.rows[1].trace_records, parsed.rows[1].trace_replays), (8, 22));
    }

    #[test]
    fn host_ns_per_instr_derives_from_raw_counters() {
        let r = row("vecadd", 10, 2.0, 0.25, 1); // 5000 issued instructions in 2 s
        assert!((r.host_ns_per_instr() - 4e5).abs() < 1e-3);
        assert_eq!(KernelRow::default().host_ns_per_instr(), 0.0);
        // Pre-PR9 rows carry no issued count; the launch-attributed
        // dispatch count is the fallback denominator.
        let mut old = row("vecadd", 10, 2.0, 0.25, 1);
        old.instructions = 0; // 1000 dispatch instructions in 2 s
        assert!((old.host_ns_per_instr() - 2e6).abs() < 1e-3);
        let json = render_json(&file(vec![r], 10, 2.0, (1, 1)));
        assert!(json.contains("\"host_ns_per_instr\": 400000.000"));
        assert!(json.contains("\"issued_instructions\": 5000"));
    }

    #[test]
    fn parser_defaults_missing_counters_to_zero() {
        // The pre-PR4 row shape (no memory counters) must keep parsing so
        // committed BENCH_PR1..3 baselines and old shard files merge.
        let json = "{\n  \"configs\": 10,\n  \"jobs\": 1,\n  \"total_seconds\": 3.500,\n  \
                    \"kernels\": [\n    {\"name\": \"vecadd\", \"configs\": 10, \
                    \"seconds\": 1.500, \"mean_dram_utilization\": 0.2500}\n  ]\n}\n";
        let parsed = parse_probe_json(json).unwrap();
        assert_eq!(parsed.rows.len(), 1);
        assert_eq!(parsed.rows[0].mem.l1.hits, 0);
        assert_eq!(parsed.rows[0].mem.dram_requests, 0);
        assert_eq!(parsed.rows[0].dispatch, DispatchStats::default());
        assert_eq!((parsed.rows[0].cache_hits, parsed.rows[0].cache_misses), (0, 0));
        assert_eq!((parsed.cache_bytes_read, parsed.cache_bytes_written), (0, 0));
        assert_eq!((parsed.rows[0].port_accesses, parsed.rows[0].port_stall_slots), (0, 0));
        assert_eq!((parsed.rows[0].trace_records, parsed.rows[0].trace_replays), (0, 0));
    }

    #[test]
    fn pre_pr10_files_parse_and_merge_with_zero_trace_counters() {
        // A PR9-era shard (every counter generation except the trace
        // pair) must parse with zero trace counters and merge them as
        // zeros against a PR10 shard.
        let mut old = row("vecadd", 6, 1.0, 0.2, 1);
        old.trace_records = 0;
        old.trace_replays = 0;
        let old_json = render_json(&file(vec![old], 6, 1.0, (1, 2)))
            .replace("\"trace_records\": 0, \"trace_replays\": 0, ", "");
        assert!(!old_json.contains("trace_records"), "synthesised pre-PR10 shape");
        let parsed = parse_probe_json(&old_json).unwrap();
        assert_eq!((parsed.rows[0].trace_records, parsed.rows[0].trace_replays), (0, 0));

        let new_json = render_json(&file(vec![row("vecadd", 4, 3.0, 0.4, 3)], 4, 3.0, (2, 2)));
        let dir = std::env::temp_dir().join("speed_probe_prepr10_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("old.json"), dir.join("new.json"));
        std::fs::write(&pa, old_json).unwrap();
        std::fs::write(&pb, new_json).unwrap();
        let merged = merge_probe_files(&[
            pa.to_string_lossy().into_owned(),
            pb.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let m = &parse_probe_json(&merged).unwrap().rows[0];
        assert_eq!((m.trace_records, m.trace_replays), (12, 33), "old shard contributes zeros");
        assert_eq!(m.mem.l1.hits, 400, "other counters still sum across generations");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_sums_disjoint_shards() {
        let a = render_json(&file(vec![row("vecadd", 6, 1.0, 0.2, 1)], 6, 1.0, (1, 2)));
        let b = render_json(&file(vec![row("vecadd", 4, 3.0, 0.4, 3)], 4, 3.0, (2, 2)));
        let dir = std::env::temp_dir().join("speed_probe_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&pa, a).unwrap();
        std::fs::write(&pb, b).unwrap();
        let merged = merge_probe_files(&[
            pa.to_string_lossy().into_owned(),
            pb.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let parsed = parse_probe_json(&merged).unwrap();
        assert!((parsed.total_seconds - 4.0).abs() < 1e-9);
        assert_eq!(parsed.rows.len(), 1);
        let m = &parsed.rows[0];
        assert_eq!(m.configs, 10);
        assert!((m.seconds - 4.0).abs() < 1e-9);
        // util weighted by configs: (0.2*6 + 0.4*4) / 10 = 0.28
        assert!((m.util - 0.28).abs() < 1e-6);
        // Raw memory counters sum exactly: scales 1 + 3 = 4.
        assert_eq!(m.mem.l1.hits, 400);
        assert_eq!(m.mem.l2.misses, 8);
        assert_eq!(m.mem.dram_requests, 12);
        // Raw dispatch counters sum exactly too.
        assert_eq!(m.dispatch.launches, 20);
        assert_eq!(m.dispatch.rounds, 80);
        assert_eq!(m.dispatch.round_tasks, 640);
        assert_eq!(m.dispatch.instructions, 4000);
        // And the campaign-cache counters, per-row and top-level.
        assert_eq!((m.cache_hits, m.cache_misses), (8, 28));
        assert_eq!(parsed.cache_bytes_read, 128);
        assert_eq!(parsed.cache_bytes_written, 256);
        // And the port-contention counters: scales 1 + 3 = 4.
        assert_eq!((m.port_accesses, m.port_stall_slots), (240, 36));
        // And the issued-instruction denominator.
        assert_eq!(m.instructions, 20000);
        // And the trace record/replay counters: scales 1 + 3 = 4.
        assert_eq!((m.trace_records, m.trace_replays), (16, 44));
    }
}
