//! `saxpy`: `y = a·x + y`, the BLAS level-1 staple.

use std::cell::OnceCell;

use vortex_asm::Program;
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// `y[g] = a * x[g] + y[g]` (fused multiply-add) over `n` elements.
///
/// Arguments: `[x_ptr, y_ptr, a_bits]`.
#[derive(Clone, Debug)]
pub struct Saxpy {
    n: u32,
    alpha: f32,
    x: LazyUniform,
    y: LazyUniform,
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl Saxpy {
    /// A saxpy over `n` elements with seeded inputs.
    pub fn new(n: u32) -> Self {
        Saxpy {
            n,
            alpha: 2.5,
            x: LazyUniform::new(seeds::SAXPY, n as usize, -1.0, 1.0),
            y: LazyUniform::new(seeds::SAXPY + 1, n as usize, -1.0, 1.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's size (len 4096).
    pub fn paper() -> Self {
        Saxpy::new(4096)
    }

    /// The host reference result (same FMA the device uses).
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| {
            self.x.iter().zip(self.y.iter()).map(|(&x, &y)| self.alpha.mul_add(x, y)).collect()
        })
    }
}

impl Kernel for Saxpy {
    fn name(&self) -> &'static str {
        "saxpy"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("saxpy", |a, ctx: BodyCtx| {
            use fregs::*;
            use reg::*;
            a.lw(T0, 0, ctx.args); // x
            a.lw(T1, 4, ctx.args); // y
            a.lw(T2, 8, ctx.args); // alpha bits
            a.fmv_w_x(FA0, T2);
            a.slli(T3, ctx.item, 2);
            a.add(T0, T0, T3);
            a.flw(FT0, 0, T0);
            a.add(T1, T1, T3);
            a.flw(FT1, 0, T1);
            a.fmadd_s(FT2, FA0, FT0, FT1);
            a.fsw(FT2, 0, T1);
        })
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("saxpy", self.n)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let x = rt.alloc_f32(&self.x)?;
        let y = rt.alloc_f32(&self.y)?;
        rt.set_args(&[x.addr, y.addr, self.alpha.to_bits()]);
        self.out = Some(y);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("saxpy", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn in_place_update_is_exact() {
        let mut k = Saxpy::new(128);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 4, 4), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn correct_across_policies_and_sizes() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            for n in [33u32, 256] {
                let mut k = Saxpy::new(n);
                run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 2), policy)
                    .unwrap_or_else(|e| panic!("{policy} n={n}: {e}"));
            }
        }
    }
}
