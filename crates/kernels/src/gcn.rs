//! `gcn_aggr` and `gcn_layer`: graph-convolution aggregation and the full
//! layer (aggregate + dense transform) on a cora-like graph.
//!
//! Aggregation is the paper's irregular, memory-bound workload: each
//! work-item walks a CSR neighbour list whose length varies per lane, so
//! the kernel uses the `vx_vote`/`vx_split` divergent-loop idiom and the
//! warp's cost is set by its *longest* row (load imbalance).

use std::cell::OnceCell;

use vortex_asm::{Assembler, Program};
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, CsrGraph, LazyGraph, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, emit_kernel, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};
use crate::sgemm::{emit_gemm_body, reference_gemm};

/// Emits the CSR feature-aggregation body:
/// `out[v][h] = Σ_{u ∈ N(v)} feat[u][h]`, one work-item per `(v, h)` pair.
///
/// Argument words at `arg_off`: `[row, col, feat, out, hs]`.
fn emit_aggr_body(a: &mut Assembler, ctx: BodyCtx, arg_off: i32, label: &str) {
    use fregs::*;
    use reg::*;
    a.lw(T0, arg_off, ctx.args); // row
    a.lw(T1, arg_off + 4, ctx.args); // col
    a.lw(T2, arg_off + 8, ctx.args); // feat
    a.lw(T4, arg_off + 16, ctx.args); // hs
    a.divu(A0, ctx.item, T4); // v
    a.remu(A1, ctx.item, T4); // h
    a.slli(T5, A0, 2);
    a.add(T5, T0, T5);
    a.lw(A2, 0, T5); // r = row[v] (per lane)
    a.lw(A3, 4, T5); // r_end = row[v+1]
    a.fmv_w_x(FA0, ZERO);
    let agg_loop = a.here(&format!("{label}.agg_loop"));
    let agg_done = a.label(&format!("{label}.agg_done"));
    let agg_skip = a.label(&format!("{label}.agg_skip"));
    a.sltu(T6, A2, A3); // lane still has neighbours?
    a.vx_vote_any(T0, T6);
    a.beqz(T0, agg_done); // uniform exit
    a.vx_split(T6, agg_skip);
    a.slli(T5, A2, 2);
    a.add(T5, T1, T5);
    a.lw(A4, 0, T5); // u = col[r]
    a.mul(T5, A4, T4);
    a.add(T5, T5, A1);
    a.slli(T5, T5, 2);
    a.add(T5, T2, T5);
    a.flw(FT0, 0, T5);
    a.fadd_s(FA0, FA0, FT0);
    a.bind(agg_skip).expect("fresh label");
    a.vx_join();
    a.addi(A2, A2, 1);
    a.j(agg_loop);
    a.bind(agg_done).expect("fresh label");
    a.lw(T3, arg_off + 12, ctx.args); // out
    a.slli(T5, ctx.item, 2);
    a.add(T5, T3, T5);
    a.fsw(FA0, 0, T5);
}

/// Host reference aggregation with the device's accumulation order.
fn reference_aggr(graph: &CsrGraph, feat: &[f32], hs: usize) -> Vec<f32> {
    let n = graph.nodes();
    let mut out = vec![0.0f32; n * hs];
    for v in 0..n {
        for h in 0..hs {
            let mut acc = 0.0f32;
            for &u in graph.neighbors(v) {
                acc += feat[u as usize * hs + h];
            }
            out[v * hs + h] = acc;
        }
    }
    out
}

/// GCN neighbourhood aggregation: `out[v][h] = Σ_{u∈N(v)} feat[u][h]`
/// (`gws = nodes × hs`).
///
/// Arguments: `[row_ptr, col_ptr, feat_ptr, out_ptr, hs]`.
#[derive(Clone, Debug)]
pub struct GcnAggr {
    graph: LazyGraph,
    hs: u32,
    feat: LazyUniform,
    out: Option<Buffer>,
    /// Host reference output, computed once per kernel instance — the
    /// inputs are fixed, but `verify` runs once per measurement, and a
    /// campaign measures the same instance hundreds of times.
    reference: OnceCell<Vec<f32>>,
}

impl GcnAggr {
    /// Aggregation over a seeded power-law graph.
    pub fn new(nodes: usize, edges: usize, hs: u32) -> Self {
        let graph = LazyGraph::new(seeds::GCN, nodes, edges);
        let feat = LazyUniform::new(seeds::GCN + 1, nodes * hs as usize, -1.0, 1.0);
        GcnAggr { graph, hs, feat, out: None, reference: OnceCell::new() }
    }

    /// The paper's configuration (cora: 2708 nodes, ~10556 edges, hs 16).
    pub fn paper() -> Self {
        GcnAggr::new(2708, 10556, 16)
    }

    /// Reduced size for the 450-configuration sweep.
    pub fn sweep() -> Self {
        GcnAggr::new(512, 2048, 16)
    }

    /// The host reference result (computed once, then cached).
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| reference_aggr(&self.graph, &self.feat, self.hs as usize))
    }
}

impl Kernel for GcnAggr {
    fn name(&self) -> &'static str {
        "gcn_aggr"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("gcn_aggr", |a, ctx| emit_aggr_body(a, ctx, 0, "gcn_aggr"))
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("gcn_aggr", self.graph.nodes() as u32 * self.hs)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let row = rt.alloc_u32(&self.graph.row)?;
        let col = rt.alloc_u32(&self.graph.col)?;
        let feat = rt.alloc_f32(&self.feat)?;
        let out = rt.alloc((self.graph.nodes() as u32 * self.hs * 4).max(4))?;
        rt.set_args(&[row.addr, col.addr, feat.addr, out.addr, self.hs]);
        self.out = Some(out);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("gcn_aggr", self.reference(), &rt.read_f32(out))
    }
}

/// A full GCN layer: aggregation followed by the dense transform
/// `out = agg × W` — two device launches sharing one program.
///
/// Arguments: aggregation words 0–4 (as [`GcnAggr`]), GEMM words 5–9
/// (`[agg, w, out, hs, hs]`).
#[derive(Clone, Debug)]
pub struct GcnLayer {
    graph: LazyGraph,
    hs: u32,
    feat: LazyUniform,
    weights: LazyUniform,
    agg: Option<Buffer>,
    out: Option<Buffer>,
    /// Cached host references (see [`GcnAggr::reference`]); the layer
    /// verifies both phases, so uncached it would recompute the
    /// aggregation twice per measurement.
    ref_agg: OnceCell<Vec<f32>>,
    ref_out: OnceCell<Vec<f32>>,
}

impl GcnLayer {
    /// A layer over a seeded power-law graph (square weight matrix).
    pub fn new(nodes: usize, edges: usize, hs: u32) -> Self {
        let graph = LazyGraph::new(seeds::GCN, nodes, edges);
        let feat = LazyUniform::new(seeds::GCN + 1, nodes * hs as usize, -1.0, 1.0);
        let weights = LazyUniform::new(seeds::GCN + 2, (hs * hs) as usize, -0.5, 0.5);
        GcnLayer {
            graph,
            hs,
            feat,
            weights,
            agg: None,
            out: None,
            ref_agg: OnceCell::new(),
            ref_out: OnceCell::new(),
        }
    }

    /// The paper's configuration (cora, hs 16).
    pub fn paper() -> Self {
        GcnLayer::new(2708, 10556, 16)
    }

    /// Reduced size for the 450-configuration sweep.
    pub fn sweep() -> Self {
        GcnLayer::new(512, 2048, 16)
    }

    fn reference_agg(&self) -> &[f32] {
        self.ref_agg.get_or_init(|| reference_aggr(&self.graph, &self.feat, self.hs as usize))
    }

    /// The host reference layer output (computed once, then cached).
    pub fn reference(&self) -> &[f32] {
        self.ref_out.get_or_init(|| {
            let hs = self.hs as usize;
            reference_gemm(self.reference_agg(), &self.weights, self.graph.nodes(), hs, hs)
        })
    }
}

impl Kernel for GcnLayer {
    fn name(&self) -> &'static str {
        "gcn_layer"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        let mut asm = Assembler::new(vortex_core::abi::CODE_BASE);
        emit_kernel(&mut asm, "gcn_layer_aggr", |a, ctx| {
            emit_aggr_body(a, ctx, 0, "gcn_layer_aggr");
        })?;
        emit_kernel(&mut asm, "gcn_layer_dense", |a, ctx| {
            emit_gemm_body(a, ctx, 20, "gcn_layer_dense");
        })?;
        asm.assemble()
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        let gws = self.graph.nodes() as u32 * self.hs;
        vec![PhaseSpec::new("gcn_layer_aggr", gws), PhaseSpec::new("gcn_layer_dense", gws)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let row = rt.alloc_u32(&self.graph.row)?;
        let col = rt.alloc_u32(&self.graph.col)?;
        let feat = rt.alloc_f32(&self.feat)?;
        let n_out = self.graph.nodes() as u32 * self.hs;
        let agg = rt.alloc((n_out * 4).max(4))?;
        let w = rt.alloc_f32(&self.weights)?;
        let out = rt.alloc((n_out * 4).max(4))?;
        rt.set_args(&[
            // aggregation phase
            row.addr, col.addr, feat.addr, agg.addr, self.hs,
            // dense phase (gemm: A=agg, B=w, C=out, N=hs, K=hs)
            agg.addr, w.addr, out.addr, self.hs, self.hs,
        ]);
        self.agg = Some(agg);
        self.out = Some(out);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let agg = self.agg.expect("setup ran before verify");
        check_f32("gcn_layer", self.reference_agg(), &rt.read_f32(agg))?;
        let out = self.out.expect("setup ran before verify");
        check_f32("gcn_layer", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn aggregation_handles_irregular_degrees() {
        let mut k = GcnAggr::new(64, 256, 4);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 8), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn aggregation_policies_agree() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = GcnAggr::new(32, 128, 4);
            run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 4), policy)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn assembling_and_sizing_generate_no_graph() {
        let k = GcnLayer::new(32, 128, 4);
        k.build().unwrap();
        assert_eq!(k.phases()[0].gws, 32 * 4);
        assert!(!k.graph.is_generated() && !k.feat.is_generated() && !k.weights.is_generated());
        k.reference();
        assert!(k.graph.is_generated() && k.feat.is_generated() && k.weights.is_generated());
    }

    #[test]
    fn full_layer_runs_two_phases() {
        let mut k = GcnLayer::new(32, 128, 4);
        let outcome =
            run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 4), LwsPolicy::Auto).unwrap();
        assert_eq!(outcome.reports.len(), 2, "aggregation + dense");
    }

    #[test]
    fn isolated_node_aggregates_to_zero() {
        // A graph where some nodes may have min degree 1; build a tiny
        // hand graph with an isolated node instead.
        let graph = CsrGraph { row: vec![0, 0, 2, 3], col: vec![0, 2, 1] };
        assert!(graph.validate());
        let feat = vec![1.0, 2.0, 3.0]; // hs = 1
        let out = reference_aggr(&graph, &feat, 1);
        assert_eq!(out, vec![0.0, 1.0 + 3.0, 2.0]);
    }
}
