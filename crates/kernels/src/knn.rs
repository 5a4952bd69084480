//! `knn`: nearest-neighbour distance computation (Rodinia `nn`-style,
//! memory bound in Fig. 2).

use std::cell::OnceCell;

use vortex_asm::Program;
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// `dist[g] = √((lat[g]-qlat)² + (lng[g]-qlng)²)` over `n` records; the
/// host scans the distances for the minimum, as Rodinia's `nn` does.
///
/// Arguments: `[lat_ptr, lng_ptr, out_ptr, qlat_bits, qlng_bits]`.
#[derive(Clone, Debug)]
pub struct Knn {
    n: u32,
    lat: LazyUniform,
    lng: LazyUniform,
    query: (f32, f32),
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl Knn {
    /// A search over `n` seeded records (hurricane-track-like lat/long).
    pub fn new(n: u32) -> Self {
        Knn {
            n,
            lat: LazyUniform::new(seeds::KNN, n as usize, 7.0, 65.0),
            lng: LazyUniform::new(seeds::KNN + 1, n as usize, -110.0, 10.0),
            query: (30.0, -60.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's size (42 764 points).
    pub fn paper() -> Self {
        Knn::new(42_764)
    }

    /// Reduced size for the 450-configuration sweep.
    pub fn sweep() -> Self {
        Knn::new(8_192)
    }

    /// The host reference distances (computed once).
    pub fn reference(&self) -> &[f32] {
        let (qlat, qlng) = self.query;
        self.reference.get_or_init(|| {
            self.lat
                .iter()
                .zip(self.lng.iter())
                .map(|(&la, &lo)| {
                    let dla = la - qlat;
                    let dlo = lo - qlng;
                    (dlo.mul_add(dlo, dla * dla)).sqrt()
                })
                .collect()
        })
    }

    /// Index of the nearest record according to the reference.
    pub fn reference_nearest(&self) -> usize {
        self.reference()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty inputs")
    }
}

impl Kernel for Knn {
    fn name(&self) -> &'static str {
        "knn"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("knn", |a, ctx: BodyCtx| {
            use fregs::*;
            use reg::*;
            a.lw(T0, 0, ctx.args); // lat
            a.lw(T1, 4, ctx.args); // lng
            a.lw(T2, 8, ctx.args); // out
            a.lw(T3, 12, ctx.args); // qlat bits
            a.fmv_w_x(FA1, T3);
            a.lw(T4, 16, ctx.args); // qlng bits
            a.fmv_w_x(FA2, T4);
            a.slli(T5, ctx.item, 2);
            a.add(T0, T0, T5);
            a.flw(FT0, 0, T0);
            a.add(T1, T1, T5);
            a.flw(FT1, 0, T1);
            a.fsub_s(FT0, FT0, FA1); // dla
            a.fsub_s(FT1, FT1, FA2); // dlo
            a.fmul_s(FT2, FT0, FT0); // dla^2
            a.fmadd_s(FT2, FT1, FT1, FT2); // + dlo^2
            a.fsqrt_s(FT3, FT2);
            a.add(T2, T2, T5);
            a.fsw(FT3, 0, T2);
        })
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("knn", self.n)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let lat = rt.alloc_f32(&self.lat)?;
        let lng = rt.alloc_f32(&self.lng)?;
        let out = rt.alloc((self.n * 4).max(4))?;
        rt.set_args(&[
            lat.addr,
            lng.addr,
            out.addr,
            self.query.0.to_bits(),
            self.query.1.to_bits(),
        ]);
        self.out = Some(out);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        let actual = rt.read_f32(out);
        check_f32("knn", self.reference(), &actual)?;
        // The end-to-end answer (nearest index) must agree as well.
        let device_nearest = actual
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty output");
        if device_nearest != self.reference_nearest() {
            return Err(VerifyError::MismatchU32 {
                kernel: "knn",
                index: device_nearest,
                expected: self.reference_nearest() as u32,
                actual: device_nearest as u32,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn distances_and_winner_match() {
        let mut k = Knn::new(500);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 4, 8), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn policies_agree() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = Knn::new(100);
            run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 2), policy)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }
}
