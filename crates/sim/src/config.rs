//! Device configuration: topology and timing parameters.

use std::fmt;
use std::str::FromStr;

use vortex_mem::MemConfig;

/// Functional-unit and pipeline latencies, in cycles.
///
/// A result produced with latency `L` at issue cycle `t` can feed a
/// dependent instruction issued at `t + L` (full bypass).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TimingConfig {
    /// Integer ALU / CSR / LUI latency.
    pub alu: u64,
    /// Integer multiply latency.
    pub mul: u64,
    /// Integer divide/remainder latency.
    pub div: u64,
    /// Pipelined FPU latency (add/mul/FMA/convert/compare).
    pub fpu: u64,
    /// Floating divide latency.
    pub fdiv: u64,
    /// Floating square-root latency.
    pub fsqrt: u64,
    /// Extra cycles before the *same warp* can issue after a taken
    /// control transfer (front-end refill bubble).
    pub branch_bubble: u64,
    /// SIMT control op latency (tmc/split/join/vote).
    pub simt: u64,
    /// Cycles before a spawned warp may issue its first instruction.
    pub wspawn: u64,
    /// Cycles between barrier release and first issue of released warps.
    pub barrier: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            alu: 1,
            mul: 3,
            div: 16,
            fpu: 4,
            fdiv: 16,
            fsqrt: 20,
            branch_bubble: 2,
            simt: 1,
            wspawn: 16,
            barrier: 4,
        }
    }
}

/// Full device configuration: SIMT topology (the paper's `hp` parameters),
/// pipeline timing, memory hierarchy and IPDOM stack depth.
///
/// # Examples
///
/// ```
/// use vortex_sim::DeviceConfig;
/// let cfg = DeviceConfig::with_topology(4, 8, 16);
/// assert_eq!(cfg.hardware_parallelism(), 4 * 8 * 16);
/// assert_eq!(cfg.topology_name(), "4c8w16t");
/// let parsed: DeviceConfig = "4c8w16t".parse().unwrap();
/// assert_eq!(parsed.hardware_parallelism(), cfg.hardware_parallelism());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Number of cores.
    pub cores: usize,
    /// Hardware warps per core (≤ 32).
    pub warps: usize,
    /// Threads (lanes) per warp (≤ 32).
    pub threads: usize,
    /// Pipeline latencies.
    pub timing: TimingConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Maximum nesting depth of `vx_split` per warp.
    pub ipdom_depth: usize,
    /// Cores grouped per cluster — a *label*: no code path reads it for
    /// scheduling or timing, so simulated cycles and counters are the
    /// same for every value. It names the configuration (the `x<cpc>`
    /// suffix of [`topology_name`](DeviceConfig::topology_name)) and is
    /// folded into campaign keys, so rows stored under an `x<cpc>` name
    /// stay addressable. `1` is the plain name.
    pub cores_per_cluster: usize,
}

impl DeviceConfig {
    /// Creates a configuration with the given topology and default timing.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or `warps`/`threads` exceed 32.
    pub fn with_topology(cores: usize, warps: usize, threads: usize) -> Self {
        let cfg = DeviceConfig {
            cores,
            warps,
            threads,
            timing: TimingConfig::default(),
            mem: MemConfig::default(),
            ipdom_depth: 32,
            cores_per_cluster: 1,
        };
        cfg.validate();
        cfg
    }

    /// Returns a copy with `cores_per_cluster` set.
    ///
    /// # Panics
    ///
    /// Panics if `cores_per_cluster` is zero.
    pub fn with_clustering(mut self, cores_per_cluster: usize) -> Self {
        self.cores_per_cluster = cores_per_cluster;
        self.validate();
        self
    }

    /// Checks invariants (non-zero dimensions, mask-width limits).
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when a limit is violated.
    pub fn validate(&self) {
        assert!(self.cores > 0, "device needs at least one core");
        assert!((1..=32).contains(&self.warps), "warps per core must be in 1..=32");
        assert!((1..=32).contains(&self.threads), "threads per warp must be in 1..=32");
        assert!(self.ipdom_depth > 0, "IPDOM stack needs at least one entry");
        assert!(self.cores_per_cluster > 0, "cluster needs at least one core");
    }

    /// Total hardware parallelism `hp = cores × warps × threads` (Eq. 1 of
    /// the paper).
    pub fn hardware_parallelism(&self) -> u64 {
        (self.cores * self.warps * self.threads) as u64
    }

    /// The paper's compact topology notation, e.g. `"64c32w32t"`. A
    /// `cores_per_cluster` other than 1 appends an `x<cores_per_cluster>`
    /// suffix (e.g. `"64c32w32tx4"`); 1 keeps the historical name so
    /// store keys and manifests written before the field existed remain
    /// valid.
    pub fn topology_name(&self) -> String {
        if self.cores_per_cluster == 1 {
            format!("{}c{}w{}t", self.cores, self.warps, self.threads)
        } else {
            format!("{}c{}w{}tx{}", self.cores, self.warps, self.threads, self.cores_per_cluster)
        }
    }
}

impl Default for DeviceConfig {
    /// A small single-core device (`1c4w4t`), handy for tests.
    fn default() -> Self {
        DeviceConfig::with_topology(1, 4, 4)
    }
}

impl fmt::Display for DeviceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.topology_name())
    }
}

impl FromStr for DeviceConfig {
    type Err = ParseTopologyError;

    /// Parses the `"<cores>c<warps>w<threads>t"` notation used throughout
    /// the paper, with default timing and memory parameters. An optional
    /// `x<cores_per_cluster>` suffix sets the cluster label, e.g.
    /// `"256c4w8tx16"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseTopologyError { input: s.to_owned() };
        let (base, cores_per_cluster) = match s.rsplit_once('x') {
            Some((head, tail)) if head.ends_with('t') => (head, tail.parse().map_err(|_| err())?),
            _ => (s, 1),
        };
        let rest = base.strip_suffix('t').ok_or_else(err)?;
        let (rest, threads) = split_num_suffix(rest, 'w').ok_or_else(err)?;
        let (rest, warps) = split_num_suffix(rest, 'c').ok_or_else(err)?;
        let cores: usize = rest.parse().map_err(|_| err())?;
        if cores == 0
            || cores_per_cluster == 0
            || !(1..=32).contains(&warps)
            || !(1..=32).contains(&threads)
        {
            return Err(err());
        }
        Ok(DeviceConfig::with_topology(cores, warps, threads).with_clustering(cores_per_cluster))
    }
}

/// Splits `"12c34"` on the *last* occurrence of `sep`, parsing the suffix.
fn split_num_suffix(s: &str, sep: char) -> Option<(&str, usize)> {
    let idx = s.rfind(sep)?;
    let n: usize = s[idx + 1..].parse().ok()?;
    Some((&s[..idx], n))
}

/// Error parsing a `"<cores>c<warps>w<threads>t"` topology string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTopologyError {
    input: String,
}

impl fmt::Display for ParseTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology `{}` (expected e.g. `4c8w16t`)", self.input)
    }
}

impl std::error::Error for ParseTopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_roundtrip() {
        for name in ["1c2w2t", "64c32w32t", "3c5w7t", "256c4w8tx16", "16c16w16tx4"] {
            let cfg: DeviceConfig = name.parse().unwrap();
            assert_eq!(cfg.topology_name(), name);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in
            ["", "1c2w", "c2w2t", "1x2w2t", "0c2w2t", "1c33w2t", "1c2w0t", "4c2w2tx0", "4c2w2tx"]
        {
            assert!(bad.parse::<DeviceConfig>().is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn clustering_defaults_to_flat() {
        let cfg = DeviceConfig::with_topology(4, 8, 16);
        assert_eq!(cfg.cores_per_cluster, 1);
        assert_eq!(cfg.topology_name(), "4c8w16t");
    }

    #[test]
    fn hp_matches_eq1() {
        let cfg = DeviceConfig::with_topology(64, 32, 32);
        assert_eq!(cfg.hardware_parallelism(), 65536);
    }

    #[test]
    #[should_panic(expected = "warps per core")]
    fn oversized_warps_panic() {
        DeviceConfig::with_topology(1, 33, 2);
    }
}
