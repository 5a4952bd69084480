//! Crash-safe file persistence shared by the campaign cache, the trace
//! store, the resumable driver and the CLI binaries.
//!
//! Every artefact this crate writes — campaign and tune reports, cache
//! shards, traces, work manifests — goes through [`atomic_write`]: the content lands in a
//! sibling temporary file first and is atomically renamed over the
//! destination, so a killed process can never leave a truncated or
//! half-updated file behind (the old content, if any, stays intact until
//! the rename). This is the write half of the store's durability story;
//! the read half is the loaders' tolerance for files that predate a
//! crash (they simply re-derive whatever is missing).

use std::io;
use std::path::Path;

/// Writes `content` to `path` atomically: a unique sibling `*.tmp` file
/// is written, flushed and renamed over the destination. On any error
/// the temporary file is removed and the destination is untouched.
///
/// # Errors
///
/// Propagates the underlying I/O error (creating, writing, persisting or
/// renaming the temporary file).
pub fn atomic_write(path: &Path, content: &str) -> io::Result<()> {
    atomic_write_bytes(path, content.as_bytes())
}

/// [`atomic_write`] for binary artefacts (trace files).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn atomic_write_bytes(path: &Path, content: &[u8]) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    replace_file(path, content)
}

/// The staging half of [`atomic_write_bytes`], for callers that write
/// many files into a directory they have already created.
pub(crate) fn replace_file(path: &Path, content: &[u8]) -> io::Result<()> {
    // Unique per process so concurrent writers (`campaign --workers`
    // children sharing a trace directory) cannot clobber each other's
    // staging files.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = std::fs::write(&tmp, content).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The fields [`strip_run_metadata`] blanks.
const RUN_METADATA: [&str; 15] = [
    "seconds",
    "total_seconds",
    "cache_hits",
    "cache_misses",
    "cache_bytes_read",
    "cache_bytes_written",
    "store_hits",
    "store_misses",
    "probes_simulated",
    "probes_cached",
    "gt_simulated",
    "gt_cached",
    "trace_records",
    "trace_replays",
    // Derived from wall-clock seconds at render time, so it differs
    // between cold and warm runs exactly as `seconds` does.
    "host_ns_per_instr",
];

/// Blanks the run-specific transport fields of a campaign or tune report —
/// wall-clock seconds and store hit/miss/byte counters — leaving only
/// the simulation-derived content. Two runs of the same campaign must
/// agree byte-for-byte on the stripped form no matter how the work was
/// split between simulation and cache hits; this is the comparison the
/// cold→warm CI gates and the resume tests make.
pub fn strip_run_metadata(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let (mut copied, mut at) = (0, 0);
    while let Some((key, value)) = crate::jsonl::next_key(json, at) {
        at = value;
        if RUN_METADATA.contains(&key) {
            // `"key": <number>` becomes `"key": 0`.
            let number = json[value..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
                .unwrap_or(json.len() - value);
            out.push_str(&json[copied..value]);
            out.push('0');
            at += number;
            copied = at;
        }
    }
    out.push_str(&json[copied..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("vortex_persist_{}", std::process::id()));
        let path = dir.join("out.json");
        atomic_write(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        atomic_write(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging files must not survive a successful write");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strip_blanks_timing_and_cache_fields_only() {
        let json = "{\n  \"total_seconds\": 12.375,\n  \"cache_bytes_read\": 123,\n  \
                    \"kernels\": [\n    {\"name\": \"vecadd\", \"configs\": 10, \
                    \"seconds\": 1.500, \"cache_hits\": 4, \"cache_misses\": 6, \
                    \"l1_hits\": 77, \"port_accesses\": 31, \
                    \"host_ns_per_instr\": 52.125}\n  ]\n}\n";
        let stripped = strip_run_metadata(json);
        assert!(stripped.contains("\"total_seconds\": 0,"));
        assert!(stripped.contains("\"seconds\": 0,"));
        assert!(stripped.contains("\"cache_hits\": 0,"));
        assert!(stripped.contains("\"cache_misses\": 0,"));
        assert!(stripped.contains("\"cache_bytes_read\": 0,"));
        assert!(stripped.contains("\"host_ns_per_instr\": 0"));
        assert!(stripped.contains("\"l1_hits\": 77"), "simulation counters must survive");
        assert!(stripped.contains("\"port_accesses\": 31"), "port counters must survive");
        assert!(stripped.contains("\"configs\": 10"), "config counts must survive");
        let expected = "{\n  \"total_seconds\": 0,\n  \"cache_bytes_read\": 0,\n  \
                        \"kernels\": [\n    {\"name\": \"vecadd\", \"configs\": 10, \
                        \"seconds\": 0, \"cache_hits\": 0, \"cache_misses\": 0, \
                        \"l1_hits\": 77, \"port_accesses\": 31, \
                        \"host_ns_per_instr\": 0}\n  ]\n}\n";
        assert_eq!(stripped, expected, "nothing else may move");
    }
}
