//! Keyed on-disk store of recorded instruction traces (PR 10).
//!
//! One file per [`trace_key`], holding the versioned VXTR encoding of a
//! [`RecordedTrace`] (see `docs/TRACE.md`). The key pins everything the
//! *architectural* event streams depend on — engine semantics version,
//! trace format version, program digest, dataset (kernel name + scale
//! tag), topology and the per-phase resolved mapping — and deliberately
//! **excludes** the timing and memory-hierarchy models: a trace recorded
//! once re-times under any latency/geometry variant of the same
//! topology, which is the whole point of replay. Any change to the
//! program, dataset, mapping, topology or either version constant moves
//! the key, so stale traces are never replayed — they are simply never
//! found.
//!
//! Files are written through [`atomic_write_bytes`], so a killed sweep
//! can never leave a truncated trace behind; the decoder's digest check
//! rejects any corruption that slips past the rename anyway, and an
//! unreadable file is treated as a miss (the config is re-recorded).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use vortex_core::Fnv64;
use vortex_core::ENGINE_SEMANTICS_VERSION as SEMVER;
use vortex_sim::{DeviceConfig, RecordedTrace};
use vortex_trace::{decode_trace, encode_trace, TRACE_FORMAT_VERSION};

use crate::campaign::Scale;
use crate::persist::atomic_write_bytes;

/// Computes the content key of one recorded trace: the digest of every
/// input the architectural event streams depend on.
///
/// `phase_lws` is the kernel's per-phase `(gws, resolved lws)` under the
/// mapping policy the trace was (or would be) recorded with — the lws is
/// the *resolved* value, so `Auto` on different topologies keys
/// differently exactly when it maps differently.
pub fn trace_key(
    kernel: &str,
    scale: Scale,
    program_digest: u64,
    config: &DeviceConfig,
    phase_lws: &[(u32, u32)],
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(SEMVER);
    h.write_u32(TRACE_FORMAT_VERSION);
    h.write_str(kernel);
    h.write_str(scale.tag());
    h.write_u64(program_digest);
    // Topology only: timing and memory latencies/geometry are re-timed at
    // replay, so they must NOT move the key. `cores_per_cluster` is a
    // label no scheduling or timing code reads, and is likewise excluded.
    h.write_u64(config.cores as u64);
    h.write_u64(config.warps as u64);
    h.write_u64(config.threads as u64);
    h.write_u64(config.ipdom_depth as u64);
    h.write_u64(phase_lws.len() as u64);
    for &(gws, lws) in phase_lws {
        h.write_u32(gws);
        h.write_u32(lws);
    }
    h.finish()
}

/// A directory of trace files plus record/replay transport counters.
///
/// Thread-safe by construction: lookups and inserts are independent
/// files, writes are atomic renames, and the counters are atomics — the
/// campaign's worker threads share one store with no further locking.
#[derive(Debug)]
pub struct TraceStore {
    dir: PathBuf,
    records: AtomicU64,
    replays: AtomicU64,
}

impl TraceStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation error.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(TraceStore {
            dir: dir.to_path_buf(),
            records: AtomicU64::new(0),
            replays: AtomicU64::new(0),
        })
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.vxtr"))
    }

    /// Loads the trace stored under `key`, or `None` if it is absent,
    /// unreadable, corrupt, version-mismatched, mis-keyed or tainted —
    /// every failure mode degrades to a miss and the caller re-records.
    pub fn load(&self, key: u64) -> Option<RecordedTrace> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        let (stored_key, trace) = decode_trace(&bytes).ok()?;
        if stored_key != key {
            return None;
        }
        // A tainted trace read a timing CSR while recording: its event
        // streams embed the recording run's cycle counts and must never
        // be re-timed under a different configuration.
        if trace.tainted {
            return None;
        }
        Some(trace)
    }

    /// Persists `trace` under `key`. Tainted traces are silently not
    /// persisted (see [`TraceStore::load`]); the run that produced them
    /// still counts as a record.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, key: u64, trace: &RecordedTrace) -> io::Result<()> {
        if trace.tainted {
            return Ok(());
        }
        atomic_write_bytes(&self.path_for(key), &encode_trace(key, trace))
    }

    /// Counts one configuration measured by executing (and recording).
    pub fn note_record(&self) {
        self.records.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one configuration measured by replaying a stored trace.
    pub fn note_replay(&self) {
        self.replays.fetch_add(1, Ordering::Relaxed);
    }

    /// `(records, replays)` since this handle was opened (raw sums).
    pub fn counters(&self) -> (u64, u64) {
        (self.records.load(Ordering::Relaxed), self.replays.load(Ordering::Relaxed))
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vortex_sim::LaunchRecord;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vortex_tracestore_{tag}_{}", std::process::id()))
    }

    fn sample(tainted: bool) -> RecordedTrace {
        RecordedTrace { cores: 2, warps: 2, tainted, launches: vec![LaunchRecord::new(2, 2)] }
    }

    #[test]
    fn round_trips_by_key_and_misses_on_absent() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir).unwrap();
        let trace = sample(false);
        store.save(7, &trace).unwrap();
        assert_eq!(store.load(7), Some(trace));
        assert_eq!(store.load(8), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tainted_traces_are_never_persisted() {
        let dir = tmp("tainted");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir).unwrap();
        store.save(9, &sample(true)).unwrap();
        assert_eq!(store.load(9), None);
        assert!(!store.path_for(9).exists(), "tainted traces must not reach disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_files_degrade_to_misses() {
        let dir = tmp("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir).unwrap();
        store.save(3, &sample(false)).unwrap();
        let path = store.path_for(3);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(store.load(3), None, "flipped payload byte must fail the digest");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.load(3), None, "truncated file must be a miss");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_file_stored_under_the_wrong_name_is_rejected() {
        let dir = tmp("miskeyed");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir).unwrap();
        store.save(4, &sample(false)).unwrap();
        std::fs::rename(store.path_for(4), store.path_for(5)).unwrap();
        assert_eq!(store.load(5), None, "embedded key must match the lookup key");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_moves_with_semantics_but_not_with_timing() {
        let base = DeviceConfig::with_topology(2, 4, 8);
        let phases = [(256, 4)];
        let k = trace_key("saxpy", Scale::Sweep, 11, &base, &phases);

        let mut slow = base;
        slow.timing.mul = 40;
        slow.mem.l2_latency += 13;
        assert_eq!(
            trace_key("saxpy", Scale::Sweep, 11, &slow, &phases),
            k,
            "timing and memory latencies must not move the key (replay re-times them)"
        );

        let other_topo = DeviceConfig::with_topology(4, 4, 8);
        assert_ne!(trace_key("saxpy", Scale::Sweep, 11, &other_topo, &phases), k);
        assert_ne!(trace_key("saxpy", Scale::Sweep, 12, &base, &phases), k);
        assert_ne!(trace_key("vecadd", Scale::Sweep, 11, &base, &phases), k);
        assert_ne!(trace_key("saxpy", Scale::Paper, 11, &base, &phases), k);
        assert_ne!(trace_key("saxpy", Scale::Sweep, 11, &base, &[(256, 8)]), k);
        assert_ne!(trace_key("saxpy", Scale::Sweep, 11, &base, &[(256, 4), (128, 4)]), k);
    }

    #[test]
    fn counters_sum_records_and_replays() {
        let dir = tmp("counters");
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir).unwrap();
        store.note_record();
        store.note_record();
        store.note_replay();
        assert_eq!(store.counters(), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
