//! `relu`: the rectified linear unit, the paper's simplest DNN layer.

use std::cell::OnceCell;

use vortex_asm::Program;
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// `out[g] = max(in[g], 0)` over `n` elements.
///
/// Arguments: `[in_ptr, out_ptr]`.
#[derive(Clone, Debug)]
pub struct Relu {
    n: u32,
    input: LazyUniform,
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl Relu {
    /// A relu over `n` elements with seeded inputs (half negative).
    pub fn new(n: u32) -> Self {
        Relu {
            n,
            input: LazyUniform::new(seeds::RELU, n as usize, -1.0, 1.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's size (len 4096).
    pub fn paper() -> Self {
        Relu::new(4096)
    }

    /// The host reference result.
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| self.input.iter().map(|&x| x.max(0.0)).collect())
    }
}

impl Kernel for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("relu", |a, ctx: BodyCtx| {
            use fregs::*;
            use reg::*;
            a.lw(T0, 0, ctx.args); // in
            a.lw(T1, 4, ctx.args); // out
            a.slli(T2, ctx.item, 2);
            a.add(T0, T0, T2);
            a.flw(FT0, 0, T0);
            a.fmv_w_x(FT1, ZERO); // 0.0f
            a.fmax_s(FT2, FT0, FT1);
            a.add(T1, T1, T2);
            a.fsw(FT2, 0, T1);
        })
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("relu", self.n)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let input = rt.alloc_f32(&self.input)?;
        let out = rt.alloc((self.n * 4).max(4))?;
        rt.set_args(&[input.addr, out.addr]);
        self.out = Some(out);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("relu", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn zeroes_negatives_keeps_positives() {
        let mut k = Relu::new(64);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 2), LwsPolicy::Auto).unwrap();
        let reference = k.reference();
        assert!(reference.contains(&0.0), "test data has negatives");
        assert!(reference.iter().any(|&x| x > 0.0), "test data has positives");
    }

    #[test]
    fn correct_across_policies() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = Relu::new(96);
            run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 4), policy)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }
}
