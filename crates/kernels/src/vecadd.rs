//! `vecadd`: element-wise vector addition (paper Fig. 1 & Fig. 2).

use std::cell::OnceCell;

use vortex_asm::Program;
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// `c[g] = a[g] + b[g]` over `n` single-precision elements.
///
/// Arguments: `[a_ptr, b_ptr, c_ptr]`.
#[derive(Clone, Debug)]
pub struct VecAdd {
    n: u32,
    a: LazyUniform,
    b: LazyUniform,
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl VecAdd {
    /// A vecadd over `n` elements with seeded inputs.
    pub fn new(n: u32) -> Self {
        VecAdd {
            n,
            a: LazyUniform::new(seeds::VECADD, n as usize, -1.0, 1.0),
            b: LazyUniform::new(seeds::VECADD + 1, n as usize, -1.0, 1.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's size (len 4096).
    pub fn paper() -> Self {
        VecAdd::new(4096)
    }

    /// Whether the input vectors have been generated (they are on the
    /// first `setup` or `reference`, not by the constructor).
    pub fn inputs_generated(&self) -> bool {
        self.a.is_generated() || self.b.is_generated()
    }

    /// The host reference result (computed once).
    pub fn reference(&self) -> &[f32] {
        self.reference
            .get_or_init(|| self.a.iter().zip(self.b.iter()).map(|(x, y)| x + y).collect())
    }
}

impl Kernel for VecAdd {
    fn name(&self) -> &'static str {
        "vecadd"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("vecadd", |a, ctx: BodyCtx| {
            use fregs::*;
            use reg::*;
            a.lw(T0, 0, ctx.args); // a
            a.lw(T1, 4, ctx.args); // b
            a.lw(T2, 8, ctx.args); // c
            a.slli(T3, ctx.item, 2);
            a.add(T0, T0, T3);
            a.flw(FT0, 0, T0);
            a.add(T1, T1, T3);
            a.flw(FT1, 0, T1);
            a.fadd_s(FT2, FT0, FT1);
            a.add(T2, T2, T3);
            a.fsw(FT2, 0, T2);
        })
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("vecadd", self.n)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let a = rt.alloc_f32(&self.a)?;
        let b = rt.alloc_f32(&self.b)?;
        let c = rt.alloc((self.n * 4).max(4))?;
        rt.set_args(&[a.addr, b.addr, c.addr]);
        self.out = Some(c);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("vecadd", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn correct_on_every_policy() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = VecAdd::new(128);
            let outcome =
                run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 4), policy).unwrap();
            assert!(outcome.cycles > 0, "{policy}: no cycles measured");
        }
    }

    #[test]
    fn inputs_are_generated_at_first_setup_and_the_reference_once() {
        let mut k = VecAdd::new(128);
        k.build().unwrap();
        assert_eq!(k.phases()[0].gws, 128);
        assert!(!k.inputs_generated(), "constructing and assembling touch no dataset");
        let mut rt = Runtime::new(DeviceConfig::with_topology(1, 2, 4));
        k.setup(&mut rt).unwrap();
        assert!(k.inputs_generated());
        assert!(std::ptr::eq(k.reference(), k.reference()), "verify reuses one host pass");
    }

    #[test]
    fn correct_on_varied_topologies() {
        for topo in [(1, 1, 1), (2, 2, 2), (1, 4, 8), (3, 2, 4)] {
            let mut k = VecAdd::new(100); // non-power-of-two size
            let cfg = DeviceConfig::with_topology(topo.0, topo.1, topo.2);
            run_kernel(&mut k, &cfg, LwsPolicy::Auto).unwrap_or_else(|e| panic!("{topo:?}: {e}"));
        }
    }

    #[test]
    fn fig1_configuration_ranks_lws_like_the_paper() {
        // Fig. 1: gws=128 on 1c2w4t. The exact-fit lws=16 must beat both
        // the naive lws=1 and the oversized lws=64 mapping.
        let cfg = DeviceConfig::with_topology(1, 2, 4);
        let mut cycles = std::collections::HashMap::new();
        for lws in [1u32, 16, 32, 64] {
            let mut k = VecAdd::new(128);
            let outcome = run_kernel(&mut k, &cfg, LwsPolicy::Explicit(lws)).unwrap();
            cycles.insert(lws, outcome.cycles);
        }
        assert!(cycles[&16] < cycles[&1], "exact fit beats naive: {cycles:?}");
        assert!(cycles[&16] < cycles[&64], "exact fit beats oversized: {cycles:?}");
    }
}
