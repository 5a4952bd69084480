//! `gauss`: 3×3 Gaussian blur over a 2-D image (memory bound in Fig. 2).

use std::cell::OnceCell;

use vortex_asm::Program;
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// The 3×3 Gaussian weights (σ ≈ 0.85), row-major.
const WEIGHTS: [f32; 9] = [
    0.0625, 0.125, 0.0625, //
    0.125, 0.25, 0.125, //
    0.0625, 0.125, 0.0625,
];

/// `out[y][x] = Σ_{ky,kx} in_pad[y+ky][x+kx] · w[ky][kx]` over a `w×h`
/// image. The input is zero-padded on the host to `(w+2)×(h+2)` so the
/// device loop is divergence-free (one work-item per output pixel).
///
/// Arguments: `[in_pad_ptr, out_ptr, w_ptr, width]`.
#[derive(Clone, Debug)]
pub struct Gauss {
    width: u32,
    height: u32,
    image: LazyUniform,
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl Gauss {
    /// A blur over a seeded `width×height` image.
    pub fn new(width: u32, height: u32) -> Self {
        Gauss {
            width,
            height,
            image: LazyUniform::new(seeds::GAUSS, (width * height) as usize, 0.0, 1.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's size (`x:360 y:360`).
    pub fn paper() -> Self {
        Gauss::new(360, 360)
    }

    /// Reduced size for the 450-configuration sweep.
    pub fn sweep() -> Self {
        Gauss::new(64, 64)
    }

    /// Zero-padded input image, `(width+2)×(height+2)`.
    fn padded(&self) -> Vec<f32> {
        let (w, h) = (self.width as usize, self.height as usize);
        let wp = w + 2;
        let mut pad = vec![0.0f32; wp * (h + 2)];
        for y in 0..h {
            let src = &self.image[y * w..(y + 1) * w];
            pad[(y + 1) * wp + 1..(y + 1) * wp + 1 + w].copy_from_slice(src);
        }
        pad
    }

    /// The host reference result (same FMA order as the device).
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| self.compute_reference())
    }

    fn compute_reference(&self) -> Vec<f32> {
        let (w, h) = (self.width as usize, self.height as usize);
        let wp = w + 2;
        let pad = self.padded();
        let mut out = vec![0.0f32; w * h];
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0f32;
                for ky in 0..3 {
                    for kx in 0..3 {
                        acc = pad[(y + ky) * wp + x + kx].mul_add(WEIGHTS[ky * 3 + kx], acc);
                    }
                }
                out[y * w + x] = acc;
            }
        }
        out
    }
}

impl Kernel for Gauss {
    fn name(&self) -> &'static str {
        "gauss"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("gauss", |a, ctx: BodyCtx| {
            use fregs::*;
            use reg::*;
            a.lw(T0, 0, ctx.args); // padded input
            a.lw(T1, 4, ctx.args); // out
            a.lw(T2, 8, ctx.args); // weights
            a.lw(T3, 12, ctx.args); // width
            a.divu(A0, ctx.item, T3); // y
            a.remu(A1, ctx.item, T3); // x
            a.addi(T4, T3, 2); // wp = width + 2
                               // row pointer = in + (y*wp + x)*4
            a.mul(T5, A0, T4);
            a.add(T5, T5, A1);
            a.slli(T5, T5, 2);
            a.add(T0, T0, T5);
            a.slli(T6, T4, 2); // row stride in bytes
            a.fmv_w_x(FA0, ZERO);
            for ky in 0..3 {
                for kx in 0..3i32 {
                    a.flw(FT0, kx * 4, T0);
                    a.flw(FT1, (ky * 3 + kx) * 4, T2);
                    a.fmadd_s(FA0, FT0, FT1, FA0);
                }
                if ky < 2 {
                    a.add(T0, T0, T6); // next padded row
                }
            }
            a.slli(T5, ctx.item, 2);
            a.add(T1, T1, T5);
            a.fsw(FA0, 0, T1);
        })
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("gauss", self.width * self.height)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let pad = rt.alloc_f32(&self.padded())?;
        let out = rt.alloc((self.width * self.height * 4).max(4))?;
        let weights = rt.alloc_f32(&WEIGHTS)?;
        rt.set_args(&[pad.addr, out.addr, weights.addr, self.width]);
        self.out = Some(out);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("gauss", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn blur_preserves_mass_roughly() {
        // Gaussian weights sum to 1, so away from borders the blurred
        // image mean is close to the input mean.
        let k = Gauss::new(16, 16);
        let reference = k.reference();
        let in_mean: f32 = k.image.iter().sum::<f32>() / k.image.len() as f32;
        let out_mean: f32 = reference.iter().sum::<f32>() / reference.len() as f32;
        assert!((in_mean - out_mean).abs() < 0.15, "in {in_mean} out {out_mean}");
    }

    #[test]
    fn device_matches_reference() {
        let mut k = Gauss::new(12, 9);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 4), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn policies_agree() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = Gauss::new(8, 8);
            run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 2), policy)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }
}
