//! `sgemm`: dense single-precision matrix multiply, `C = A × B`.

use std::cell::OnceCell;

use vortex_asm::{Assembler, Program};
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// Emits the inner-product body shared by [`Sgemm`] and the dense phase of
/// the GCN layer: one work-item computes one `C[m][n]` with a K-long FMA
/// loop (the loop count is warp-uniform, so a scalar branch is legal).
///
/// Argument-block layout, starting at `arg_off` words into the block:
/// `[a_ptr, b_ptr, c_ptr, n_cols, k_depth]`.
pub(crate) fn emit_gemm_body(a: &mut Assembler, ctx: BodyCtx, arg_off: i32, label: &str) {
    use fregs::*;
    use reg::*;
    a.lw(T0, arg_off, ctx.args); // A
    a.lw(T1, arg_off + 4, ctx.args); // B
    a.lw(T3, arg_off + 12, ctx.args); // N
    a.lw(T4, arg_off + 16, ctx.args); // K
    a.divu(A0, ctx.item, T3); // m
    a.remu(A1, ctx.item, T3); // n
                              // A row pointer: A + m*K*4
    a.mul(T5, A0, T4);
    a.slli(T5, T5, 2);
    a.add(T0, T0, T5);
    // B column pointer: B + n*4 ; stride N*4
    a.slli(T5, A1, 2);
    a.add(T1, T1, T5);
    a.slli(T6, T3, 2); // B row stride in bytes
    a.fmv_w_x(FA0, ZERO); // acc = 0
    a.mv(A2, T4); // k counter (uniform)
    let kloop = a.here(&format!("{label}.kloop"));
    a.flw(FT0, 0, T0);
    a.flw(FT1, 0, T1);
    a.fmadd_s(FA0, FT0, FT1, FA0);
    a.addi(T0, T0, 4);
    a.add(T1, T1, T6);
    a.addi(A2, A2, -1);
    a.bnez(A2, kloop);
    // C[g] = acc (g == m*N + n by construction).
    a.lw(T2, arg_off + 8, ctx.args);
    a.slli(T5, ctx.item, 2);
    a.add(T2, T2, T5);
    a.fsw(FA0, 0, T2);
}

/// Host-side reference GEMM with the same FMA accumulation order.
pub(crate) fn reference_gemm(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[i * k + kk].mul_add(b[kk * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// `C[m][n] = Σ_k A[m][k]·B[k][n]`; one work-item per output element
/// (`gws = M × N`).
///
/// Arguments: `[a_ptr, b_ptr, c_ptr, N, K]`.
#[derive(Clone, Debug)]
pub struct Sgemm {
    m: u32,
    n: u32,
    k: u32,
    a: LazyUniform,
    b: LazyUniform,
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl Sgemm {
    /// An `M×N×K` GEMM with seeded inputs.
    pub fn new(m: u32, n: u32, k: u32) -> Self {
        Sgemm {
            m,
            n,
            k,
            a: LazyUniform::new(seeds::SGEMM, (m * k) as usize, -1.0, 1.0),
            b: LazyUniform::new(seeds::SGEMM + 1, (k * n) as usize, -1.0, 1.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's size: `x:256 y:16 z:144` (M=256, N=16, K=144 — a
    /// ResNet20 layer lowered to GEMM).
    pub fn paper() -> Self {
        Sgemm::new(256, 16, 144)
    }

    /// Reduced size for the 450-configuration sweep.
    pub fn sweep() -> Self {
        Sgemm::new(64, 8, 36)
    }

    /// The host reference result.
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| {
            reference_gemm(&self.a, &self.b, self.m as usize, self.n as usize, self.k as usize)
        })
    }
}

impl Kernel for Sgemm {
    fn name(&self) -> &'static str {
        "sgemm"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("sgemm", |a, ctx| emit_gemm_body(a, ctx, 0, "sgemm"))
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("sgemm", self.m * self.n)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let a = rt.alloc_f32(&self.a)?;
        let b = rt.alloc_f32(&self.b)?;
        let c = rt.alloc((self.m * self.n * 4).max(4))?;
        rt.set_args(&[a.addr, b.addr, c.addr, self.n, self.k]);
        self.out = Some(c);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("sgemm", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn small_gemm_is_exact() {
        let mut k = Sgemm::new(8, 4, 6);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 4), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn policies_agree_on_results() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = Sgemm::new(16, 8, 12);
            run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 2), policy)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }

    #[test]
    fn reference_matches_naive_matmul() {
        let k = Sgemm::new(3, 2, 4);
        let r = k.reference();
        // Hand-computed check of one element.
        let mut expected = 0.0f32;
        for kk in 0..4 {
            expected = k.a[kk].mul_add(k.b[kk * 2], expected); // C[0][0]
        }
        assert_eq!(r[0], expected);
    }
}
