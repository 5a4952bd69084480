//! The probe JSON dialect: the machine-readable campaign report the
//! resumable `campaign` driver writes (`--json`), and the format of the
//! committed `BENCH_*.json` baselines.
//!
//! One file is a flat object: grid metadata (`configs`, `jobs`,
//! `total_seconds`, optional `shard`), the cache transport totals of the
//! producing process (`cache_bytes_read`/`cache_bytes_written`), and a
//! `kernels` array of per-kernel rows. Rows carry **raw counters only**
//! (hits, misses, rounds, instructions, cache hits/misses …) — derived
//! rates are computed at render time. The dialect is write-only: shards
//! of a sweep merge as store rows (`campaign --workers`), never as
//! reports, and the CI gates compare reports as bytes after
//! [`strip_run_metadata`](crate::persist::strip_run_metadata).
//! Serde-free by standing constraint.

use vortex_core::DispatchStats;
use vortex_sim::MemStats;

use crate::cache::CacheCounters;
use crate::campaign::CampaignResult;

/// One kernel row of a probe JSON.
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
    /// to simulate; raw sum). Distinct from the launch-attributed
    /// `dispatch.instructions`.
    pub instructions: u64,
    /// Configurations answered from the campaign result store.
    pub cache_hits: u64,
    /// Configurations actually simulated (store misses; the whole count
    /// when no cache is attached).
    pub cache_misses: u64,
    /// SIMT memory-port accesses of the auto runs (batched accesses that
    /// carried at least one line — raw sum).
    pub port_accesses: u64,
    /// Extra L1 port slots beyond the first each access occupied (the
    /// cycles memory ports stayed blocked serialising uncoalesced lines
    /// — raw sum).
    pub port_stall_slots: u64,
    /// Policy runs measured by executing and recording a trace (zero
    /// without a trace store attached — a transport counter).
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
    /// cost metric the big-topology scaling work tracks, derived at render
    /// time from the raw `seconds` and
    /// [`instructions`](KernelRow::instructions) (every instruction the
    /// host simulated during the timed interval).
    pub fn host_ns_per_instr(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.seconds * 1e9 / self.instructions as f64
    }
}

/// A to-be-rendered probe file.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> KernelRow {
        let mut mem = MemStats::default();
        mem.l1.hits = 100;
        mem.l1.misses = 10;
        mem.l2.hits = 8;
        mem.l2.misses = 2;
        mem.dram_requests = 3;
        let dispatch =
            DispatchStats { launches: 5, rounds: 20, round_tasks: 160, instructions: 1000 };
        KernelRow {
            name: "vecadd".to_owned(),
            configs: 10,
            seconds: 2.0,
            util: 0.25,
            mem,
            dispatch,
            instructions: 5000,
            cache_hits: 2,
            cache_misses: 7,
            port_accesses: 60,
            port_stall_slots: 9,
            trace_records: 4,
            trace_replays: 11,
        }
    }

    #[test]
    fn render_json_writes_every_raw_counter() {
        let file = ProbeFile {
            configs: 10,
            jobs: 1,
            total_seconds: 2.0,
            shard: Some((1, 2)),
            cache_bytes_read: 64,
            cache_bytes_written: 128,
            rows: vec![row()],
        };
        let expected = "{\n  \"configs\": 10,\n  \"shard\": \"1/2\",\n  \"jobs\": 1,\n  \
                        \"total_seconds\": 2.000,\n  \"cache_bytes_read\": 64,\n  \
                        \"cache_bytes_written\": 128,\n  \"kernels\": [\n    \
                        {\"name\": \"vecadd\", \"configs\": 10, \"seconds\": 2.000, \
                        \"mean_dram_utilization\": 0.2500, \"l1_hits\": 100, \"l1_misses\": 10, \
                        \"l2_hits\": 8, \"l2_misses\": 2, \"dram_requests\": 3, \
                        \"launches\": 5, \"dispatch_rounds\": 20, \"round_tasks\": 160, \
                        \"instructions\": 1000, \"issued_instructions\": 5000, \
                        \"cache_hits\": 2, \"cache_misses\": 7, \
                        \"port_accesses\": 60, \"port_stall_slots\": 9, \
                        \"trace_records\": 4, \"trace_replays\": 11, \
                        \"host_ns_per_instr\": 400000.000}\n  ]\n}\n";
        assert_eq!(render_json(&file), expected);
    }

    #[test]
    fn host_ns_per_instr_derives_from_raw_counters() {
        // 5000 issued instructions in 2 s.
        assert!((row().host_ns_per_instr() - 4e5).abs() < 1e-3);
        assert_eq!(KernelRow::default().host_ns_per_instr(), 0.0);
    }
}
