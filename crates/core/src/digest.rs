//! Canonical content digests for campaign-cache keys.
//!
//! A campaign result is a pure function of *(program words, dataset,
//! device configuration, mapping policy, engine semantics)*. This module
//! provides the stable, hand-rolled FNV-1a/64 digests over those inputs
//! that the persistent result store (`vortex-bench`) keys on:
//!
//! * [`Fnv64`] — the hasher itself, with a fixed canonical encoding for
//!   every value kind (no dependence on `std::hash` internals, struct
//!   layout or platform endianness — multi-byte values are folded
//!   little-endian, so digests are identical across runs, builds and
//!   machines);
//! * [`digest_program`] — the loaded code image;
//! * [`digest_device_config`] — **every** semantics-affecting field of
//!   [`DeviceConfig`], bound by exhaustive destructuring: adding a field
//!   to any configuration struct breaks compilation here until the new
//!   field is folded into the digest (or consciously excluded), so a
//!   configuration knob can never silently alias cache entries;
//! * [`ENGINE_SEMANTICS_VERSION`] — the invalidation lever. Any change
//!   that affects *simulated cycles or counters for the same inputs*
//!   (timing model, scheduler order, counter definitions) must bump it,
//!   which re-keys the entire store. Host-side optimisations that are
//!   verified bit-identical (the standing rule for perf PRs) do not.

use vortex_asm::Program;
use vortex_mem::{CacheConfig, DramConfig, MemConfig};
use vortex_sim::{DeviceConfig, TimingConfig};

/// Version of the simulator's *observable semantics*: the mapping from
/// (program, data, configuration) to cycles and counters. Bump on any
/// cycle-affecting or counter-affecting change; cached campaign rows from
/// other versions are unreadable by construction (the version is folded
/// into every key).
pub const ENGINE_SEMANTICS_VERSION: u32 = 1;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a/64 hasher with a canonical input encoding.
///
/// # Examples
///
/// ```
/// use vortex_core::digest::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_bytes(b"abc");
/// // FNV-1a/64 of "abc" — a published reference value.
/// assert_eq!(h.finish(), 0xe71f_a219_0541_574b);
/// ```
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to 64 bits (platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// Folds a string, length-prefixed so concatenations cannot collide
    /// (`"ab" + "c"` digests differently from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Digest of a loaded program: entry address plus the relocated code
/// image, word by word. Symbols and section names are presentation
/// metadata (they never reach the device) and are excluded — two
/// assemblies producing the same words at the same base are the same
/// program.
pub fn digest_program(program: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(program.entry());
    h.write_usize(program.words().len());
    for &w in program.words() {
        h.write_u32(w);
    }
    h.finish()
}

/// Digest of a full device configuration: topology, every pipeline
/// latency, the complete memory hierarchy and the IPDOM depth.
///
/// Exhaustive destructuring (no `..` anywhere) is the invalidation
/// guarantee: a field added to [`DeviceConfig`], [`TimingConfig`],
/// [`MemConfig`], [`CacheConfig`] or [`DramConfig`] fails to compile
/// until it is folded in below — a semantics-affecting knob can never be
/// silently omitted from the cache key.
pub fn digest_device_config(config: &DeviceConfig) -> u64 {
    let DeviceConfig { cores, warps, threads, timing, mem, ipdom_depth, cores_per_cluster } =
        config;
    let TimingConfig { alu, mul, div, fpu, fdiv, fsqrt, branch_bubble, simt, wspawn, barrier } =
        timing;
    let MemConfig { l1, l1_banks, l2, l2_banks, l1_latency, l2_latency, l2_interval, dram } = mem;
    let DramConfig { latency: dram_latency, interval: dram_interval, channels } = dram;

    let mut h = Fnv64::new();
    // Topology.
    h.write_usize(*cores);
    h.write_usize(*warps);
    h.write_usize(*threads);
    h.write_usize(*ipdom_depth);
    // Pipeline timing.
    for v in [alu, mul, div, fpu, fdiv, fsqrt, branch_bubble, simt, wspawn, barrier] {
        h.write_u64(*v);
    }
    // Memory hierarchy: both cache geometries, field by field.
    for cache in [l1, l2] {
        let CacheConfig { size_bytes, ways, line_bytes } = cache;
        h.write_u32(*size_bytes);
        h.write_u32(*ways);
        h.write_u32(*line_bytes);
    }
    h.write_u32(*l1_banks);
    h.write_u32(*l2_banks);
    h.write_u64(*l1_latency);
    h.write_u64(*l2_latency);
    h.write_u64(*l2_interval);
    h.write_u64(*dram_latency);
    h.write_u64(*dram_interval);
    h.write_u32(*channels);
    // Retired slot: `MemConfig::l1_line_memo` (removed; it was `false` in
    // every stored row). Folding the constant keeps every key written
    // while the field existed valid.
    h.write_bool(false);
    // The cluster label (PR 9). No scheduling or timing code reads it, so
    // the default of 1 is *consciously excluded* to keep every key
    // written before the field existed valid — all historical rows had
    // it. Other values fold in: their `topology_name()` differs, and a
    // key shared with the plain row would be rejected by the store's topo
    // cross-check as a collision. All non-cluster fields are fixed-width,
    // so the conditional tail cannot alias two distinct configurations.
    if *cores_per_cluster != 1 {
        h.write_usize(*cores_per_cluster);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a/64 test vectors.
        let digest = |s: &[u8]| {
            let mut h = Fnv64::new();
            h.write_bytes(s);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn str_digest_is_length_prefixed() {
        let pair = |a: &str, b: &str| {
            let mut h = Fnv64::new();
            h.write_str(a);
            h.write_str(b);
            h.finish()
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
    }

    /// The canonical encoding (and therefore every stored cache key) is
    /// frozen: this golden value may only change together with a bump of
    /// [`ENGINE_SEMANTICS_VERSION`], because changing the encoding
    /// re-keys every persisted campaign row.
    #[test]
    fn default_config_digest_is_stable() {
        let cfg = DeviceConfig::with_topology(4, 8, 16);
        let d = digest_device_config(&cfg);
        assert_eq!(d, digest_device_config(&cfg), "digest must be deterministic");
        assert_eq!(d, 0x7a0b_6590_b8bd_e96f, "canonical config encoding changed — see doc above");
    }

    #[test]
    fn program_digest_covers_entry_and_words() {
        let mut a = vortex_asm::Assembler::new(0x8000_0000);
        a.li(vortex_isa::reg::T0, 7);
        a.vx_tmc(vortex_isa::reg::ZERO);
        let p1 = a.assemble().unwrap();

        let mut b = vortex_asm::Assembler::new(0x8000_0000);
        b.li(vortex_isa::reg::T0, 8); // one immediate differs
        b.vx_tmc(vortex_isa::reg::ZERO);
        let p2 = b.assemble().unwrap();

        let mut c = vortex_asm::Assembler::new(0x8000_1000); // base differs
        c.li(vortex_isa::reg::T0, 7);
        c.vx_tmc(vortex_isa::reg::ZERO);
        let p3 = c.assemble().unwrap();

        assert_eq!(digest_program(&p1), digest_program(&p1));
        assert_ne!(digest_program(&p1), digest_program(&p2));
        assert_ne!(digest_program(&p1), digest_program(&p3));
    }

    /// Every semantics-affecting field must perturb the digest. Paired
    /// with the exhaustive destructuring in `digest_device_config`, this
    /// pins both directions: no field is omitted (compile error) and no
    /// field is folded into a dead position (runtime check here).
    #[test]
    fn every_config_field_perturbs_the_digest() {
        let base = DeviceConfig::with_topology(4, 8, 16);
        let d0 = digest_device_config(&base);
        let mut variants: Vec<(&str, DeviceConfig)> = Vec::new();

        let mut v = base;
        v.cores = 5;
        variants.push(("cores", v));
        let mut v = base;
        v.warps = 9;
        variants.push(("warps", v));
        let mut v = base;
        v.threads = 17;
        variants.push(("threads", v));
        let mut v = base;
        v.ipdom_depth = 33;
        variants.push(("ipdom_depth", v));

        macro_rules! timing_variant {
            ($($field:ident),*) => {
                $(
                    let mut v = base;
                    v.timing.$field += 1;
                    variants.push((stringify!($field), v));
                )*
            };
        }
        timing_variant!(alu, mul, div, fpu, fdiv, fsqrt, branch_bubble, simt, wspawn, barrier);

        let mut v = base;
        v.mem.l1.size_bytes *= 2;
        variants.push(("l1.size_bytes", v));
        let mut v = base;
        v.mem.l1.ways *= 2;
        variants.push(("l1.ways", v));
        let mut v = base;
        v.mem.l1.line_bytes *= 2;
        variants.push(("l1.line_bytes", v));
        let mut v = base;
        v.mem.l2.size_bytes *= 2;
        variants.push(("l2.size_bytes", v));
        let mut v = base;
        v.mem.l2.ways *= 2;
        variants.push(("l2.ways", v));
        let mut v = base;
        v.mem.l2.line_bytes *= 2;
        variants.push(("l2.line_bytes", v));
        let mut v = base;
        v.mem.l1_banks += 1;
        variants.push(("l1_banks", v));
        let mut v = base;
        v.mem.l2_banks += 1;
        variants.push(("l2_banks", v));
        let mut v = base;
        v.mem.l1_latency += 1;
        variants.push(("l1_latency", v));
        let mut v = base;
        v.mem.l2_latency += 1;
        variants.push(("l2_latency", v));
        let mut v = base;
        v.mem.l2_interval += 1;
        variants.push(("l2_interval", v));
        let mut v = base;
        v.mem.dram.latency += 1;
        variants.push(("dram.latency", v));
        let mut v = base;
        v.mem.dram.interval += 1;
        variants.push(("dram.interval", v));
        let mut v = base;
        v.mem.dram.channels += 1;
        variants.push(("dram.channels", v));
        let mut v = base;
        v.cores_per_cluster = 2;
        variants.push(("cores_per_cluster", v));

        let mut seen = vec![d0];
        for (field, variant) in &variants {
            let d = digest_device_config(variant);
            assert_ne!(d, d0, "field `{field}` does not perturb the config digest");
            assert!(!seen.contains(&d), "field `{field}` collides with another variant");
            seen.push(d);
        }
    }
}
