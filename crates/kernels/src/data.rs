//! Seeded synthetic datasets standing in for the paper's external data
//! (Rodinia's hurricane records, the cora citation graph, CIFAR-10
//! activations). Shapes match the originals; contents are deterministic.
//!
//! Kernels hold their inputs as [`LazyUniform`]/[`LazyGraph`]: the values
//! are generated on first use (the first `setup` or `reference`), so
//! constructing a kernel and assembling its program touch no dataset.

use std::cell::OnceCell;
use std::ops::Deref;

use vortex_rng::Rng;

/// Deterministic uniform `f32` values in `[lo, hi)`.
///
/// # Examples
///
/// ```
/// let xs = vortex_kernels::data::uniform_f32(42, 8, -1.0, 1.0);
/// assert_eq!(xs.len(), 8);
/// assert_eq!(xs, vortex_kernels::data::uniform_f32(42, 8, -1.0, 1.0));
/// ```
pub fn uniform_f32(seed: u64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range_f32(lo, hi)).collect()
}

/// [`uniform_f32`] values generated on first use; dereferences to the
/// slice.
///
/// # Examples
///
/// ```
/// use vortex_kernels::data::{uniform_f32, LazyUniform};
/// let xs = LazyUniform::new(42, 8, -1.0, 1.0);
/// assert!(!xs.is_generated());
/// assert_eq!(xs[..], uniform_f32(42, 8, -1.0, 1.0)[..]);
/// assert!(xs.is_generated());
/// ```
#[derive(Clone, Debug)]
pub struct LazyUniform {
    seed: u64,
    n: usize,
    lo: f32,
    hi: f32,
    values: OnceCell<Vec<f32>>,
}

impl LazyUniform {
    /// `n` values in `[lo, hi)` from `seed`, not generated yet.
    pub fn new(seed: u64, n: usize, lo: f32, hi: f32) -> Self {
        LazyUniform { seed, n, lo, hi, values: OnceCell::new() }
    }

    /// Whether the values have been generated.
    pub fn is_generated(&self) -> bool {
        self.values.get().is_some()
    }
}

impl Deref for LazyUniform {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        self.values.get_or_init(|| uniform_f32(self.seed, self.n, self.lo, self.hi))
    }
}

/// A sparse directed graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// Row offsets, length `nodes + 1`.
    pub row: Vec<u32>,
    /// Column indices (neighbour lists), length `edges`.
    pub col: Vec<u32>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.row.len() - 1
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.col.len()
    }

    /// The neighbour slice of node `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.col[self.row[v] as usize..self.row[v + 1] as usize]
    }

    /// Maximum out-degree (drives warp-level load imbalance).
    pub fn max_degree(&self) -> usize {
        (0..self.nodes()).map(|v| self.neighbors(v).len()).max().unwrap_or(0)
    }

    /// Validates CSR invariants (monotone rows, in-range columns).
    pub fn validate(&self) -> bool {
        if *self.row.first().unwrap_or(&1) != 0 {
            return false;
        }
        if self.row.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        let n = self.nodes() as u32;
        *self.row.last().unwrap() as usize == self.col.len() && self.col.iter().all(|&c| c < n)
    }
}

/// Generates a power-law-ish random graph with `nodes` nodes and roughly
/// `target_edges` edges (cora-like degree skew: most nodes have 1–4
/// neighbours, a few are hubs).
///
/// # Examples
///
/// ```
/// let g = vortex_kernels::data::power_law_graph(7, 2708, 10556);
/// assert_eq!(g.nodes(), 2708);
/// assert!(g.validate());
/// let avg = g.edges() as f64 / g.nodes() as f64;
/// assert!((2.0..8.0).contains(&avg));
/// ```
pub fn power_law_graph(seed: u64, nodes: usize, target_edges: usize) -> CsrGraph {
    let mut rng = Rng::seed_from_u64(seed);
    let base = (target_edges as f64 / nodes as f64).max(1.0);
    let mut degrees = Vec::with_capacity(nodes);
    let mut total = 0usize;
    for _ in 0..nodes {
        // Pareto-like: most nodes near `base`, occasional hubs.
        let u: f64 = rng.gen_range_f64(0.05, 1.0);
        let deg = ((base * 0.6) / u.powf(0.7)).round().clamp(1.0, (nodes - 1) as f64) as usize;
        degrees.push(deg);
        total += deg;
    }
    // Rescale towards the target edge count.
    let scale = target_edges as f64 / total as f64;
    let mut row = Vec::with_capacity(nodes + 1);
    let mut col = Vec::new();
    row.push(0u32);
    for (v, deg) in degrees.iter().enumerate() {
        let d = ((*deg as f64 * scale).round() as usize).max(1);
        for _ in 0..d {
            // Any node but self.
            let mut u = rng.gen_range_usize(0, nodes - 1);
            if u >= v {
                u += 1;
            }
            col.push(u as u32);
        }
        row.push(col.len() as u32);
    }
    CsrGraph { row, col }
}

/// A [`power_law_graph`] generated on first use; dereferences to the
/// [`CsrGraph`].
#[derive(Clone, Debug)]
pub struct LazyGraph {
    seed: u64,
    nodes: usize,
    target_edges: usize,
    graph: OnceCell<CsrGraph>,
}

impl LazyGraph {
    /// A graph of `nodes` nodes and roughly `target_edges` edges from
    /// `seed`, not generated yet.
    pub fn new(seed: u64, nodes: usize, target_edges: usize) -> Self {
        LazyGraph { seed, nodes, target_edges, graph: OnceCell::new() }
    }

    /// Number of nodes (known without generating the graph).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Whether the graph has been generated.
    pub fn is_generated(&self) -> bool {
        self.graph.get().is_some()
    }
}

impl Deref for LazyGraph {
    type Target = CsrGraph;

    fn deref(&self) -> &CsrGraph {
        self.graph.get_or_init(|| power_law_graph(self.seed, self.nodes, self.target_edges))
    }
}

/// The standard seeds used by the kernel constructors, so every workload
/// is reproducible end to end.
pub mod seeds {
    /// vecadd inputs.
    pub const VECADD: u64 = 0x10;
    /// relu input.
    pub const RELU: u64 = 0x20;
    /// saxpy inputs.
    pub const SAXPY: u64 = 0x30;
    /// sgemm matrices.
    pub const SGEMM: u64 = 0x40;
    /// Gaussian filter image.
    pub const GAUSS: u64 = 0x50;
    /// kNN point records.
    pub const KNN: u64 = 0x60;
    /// GCN graph + features.
    pub const GCN: u64 = 0x70;
    /// ResNet activations + weights.
    pub const RESNET: u64 = 0x80;
    /// Tree-reduction input.
    pub const REDUCE: u64 = 0x90;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        let a = uniform_f32(1, 1000, -2.0, 3.0);
        let b = uniform_f32(1, 1000, -2.0, 3.0);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (-2.0..3.0).contains(&x)));
        let c = uniform_f32(2, 1000, -2.0, 3.0);
        assert_ne!(a, c);
    }

    #[test]
    fn lazy_inputs_equal_the_eager_ones_element_for_element() {
        let lazy = LazyUniform::new(seeds::KNN, 8_192, 7.0, 65.0);
        assert!(!lazy.is_generated());
        assert_eq!(lazy.to_vec(), uniform_f32(seeds::KNN, 8_192, 7.0, 65.0));
        assert!(lazy.is_generated());

        let lazy = LazyGraph::new(seeds::GCN, 512, 2048);
        assert_eq!(lazy.nodes(), 512);
        assert!(!lazy.is_generated(), "the node count is a parameter, not a result");
        assert_eq!(*lazy, power_law_graph(seeds::GCN, 512, 2048));
        assert_eq!(lazy.nodes(), CsrGraph::nodes(&lazy));
    }

    #[test]
    fn graph_matches_requested_shape() {
        let g = power_law_graph(7, 2708, 10556);
        assert_eq!(g.nodes(), 2708);
        assert!(g.validate());
        // Within 25% of the requested edge count.
        let ratio = g.edges() as f64 / 10556.0;
        assert!((0.75..1.25).contains(&ratio), "edge ratio {ratio}");
    }

    #[test]
    fn graph_has_degree_skew() {
        let g = power_law_graph(7, 1000, 4000);
        let avg = g.edges() as f64 / g.nodes() as f64;
        assert!(g.max_degree() as f64 > 3.0 * avg, "power law needs hubs");
    }

    #[test]
    fn graph_is_deterministic() {
        let a = power_law_graph(9, 128, 512);
        let b = power_law_graph(9, 128, 512);
        assert_eq!(a, b);
    }

    #[test]
    fn neighbors_are_self_loop_free() {
        let g = power_law_graph(3, 200, 800);
        for v in 0..g.nodes() {
            assert!(g.neighbors(v).iter().all(|&u| u as usize != v));
        }
    }
}
