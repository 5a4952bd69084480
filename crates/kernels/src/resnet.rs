//! `resnet_layer`: one ResNet20 convolution layer (3×3, same-padding)
//! with fused ReLU, on CIFAR-10-shaped activations.

use std::cell::OnceCell;

use vortex_asm::Program;
use vortex_core::{Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::{build_single, BodyCtx};
use crate::kernel::{Kernel, PhaseSpec};

/// One `Cin→Cout` 3×3 convolution (+ ReLU) over a `w×h` feature map.
/// One work-item per output activation (`gws = Cout × h × w`); the input
/// is zero-padded per channel on the host so the 3×3×Cin reduction is
/// divergence-free.
///
/// Arguments: `[in_pad_ptr, w_ptr, out_ptr, width, height, cin]`.
#[derive(Clone, Debug)]
pub struct ResnetLayer {
    width: u32,
    height: u32,
    cin: u32,
    cout: u32,
    input: LazyUniform,
    weights: LazyUniform,
    out: Option<Buffer>,
    /// Host reference output, computed once per instance — `verify` runs
    /// once per measurement across hundreds of campaign runs.
    reference: OnceCell<Vec<f32>>,
}

impl ResnetLayer {
    /// A layer with seeded activations and weights.
    pub fn new(width: u32, height: u32, cin: u32, cout: u32) -> Self {
        ResnetLayer {
            width,
            height,
            cin,
            cout,
            input: LazyUniform::new(seeds::RESNET, (cin * width * height) as usize, -1.0, 1.0),
            weights: LazyUniform::new(seeds::RESNET + 1, (cout * cin * 9) as usize, -0.3, 0.3),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper's configuration: 1 ResNet20 layer on CIFAR-10, 16
    /// channels, 32×32 activations.
    pub fn paper() -> Self {
        ResnetLayer::new(32, 32, 16, 16)
    }

    /// Reduced size for the 450-configuration sweep.
    pub fn sweep() -> Self {
        ResnetLayer::new(12, 12, 8, 8)
    }

    /// Channel-major zero-padded input, `cin × (h+2) × (w+2)`.
    fn padded(&self) -> Vec<f32> {
        let (w, h, c) = (self.width as usize, self.height as usize, self.cin as usize);
        let (wp, hp) = (w + 2, h + 2);
        let mut pad = vec![0.0f32; c * wp * hp];
        for ic in 0..c {
            for y in 0..h {
                let src = &self.input[ic * w * h + y * w..ic * w * h + (y + 1) * w];
                let dst = ic * wp * hp + (y + 1) * wp + 1;
                pad[dst..dst + w].copy_from_slice(src);
            }
        }
        pad
    }

    /// The host reference output (same FMA order as the device; computed
    /// once, then cached).
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| self.compute_reference())
    }

    fn compute_reference(&self) -> Vec<f32> {
        let (w, h) = (self.width as usize, self.height as usize);
        let (cin, cout) = (self.cin as usize, self.cout as usize);
        let (wp, hp) = (w + 2, h + 2);
        let pad = self.padded();
        let mut out = vec![0.0f32; cout * w * h];
        for oc in 0..cout {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = 0.0f32;
                    for ic in 0..cin {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let iv = pad[ic * wp * hp + (y + ky) * wp + x + kx];
                                let wv = self.weights[oc * cin * 9 + ic * 9 + ky * 3 + kx];
                                acc = iv.mul_add(wv, acc);
                            }
                        }
                    }
                    out[oc * w * h + y * w + x] = acc.max(0.0);
                }
            }
        }
        out
    }
}

impl Kernel for ResnetLayer {
    fn name(&self) -> &'static str {
        "resnet_layer"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        build_single("resnet_layer", |a, ctx: BodyCtx| {
            use fregs::*;
            use reg::*;
            a.lw(T0, 0, ctx.args); // padded input
            a.lw(T1, 4, ctx.args); // weights
            a.lw(T3, 12, ctx.args); // W
            a.lw(T4, 16, ctx.args); // H
            a.lw(T5, 20, ctx.args); // Cin
            a.mul(T2, T3, T4); // HW
            a.divu(A1, ctx.item, T2); // oc
            a.remu(A2, ctx.item, T2); // rem
            a.divu(A3, A2, T3); // y
            a.remu(A4, A2, T3); // x
                                // Geometry: Wp = W+2, plane bytes = Wp*(H+2)*4, row bytes = Wp*4.
            a.addi(T6, T3, 2); // Wp
            a.addi(T4, T4, 2); // Hp
            a.mul(T4, T4, T6); // plane words
            a.slli(T4, T4, 2); // plane bytes
            a.slli(T6, T6, 2); // row bytes
                               // Input pointer for (ic=0, y, x).
            a.mul(T2, A3, T6);
            a.add(T0, T0, T2);
            a.slli(T2, A4, 2);
            a.add(T0, T0, T2);
            // Weight pointer for (oc, ic=0): w + oc*Cin*9*4.
            a.mul(T2, A1, T5); // oc*Cin
            a.slli(T2, T2, 2); // *4
            a.slli(A2, T2, 3); // *8
            a.add(T2, T2, A2); // *9*4 total
            a.add(T1, T1, T2);
            a.fmv_w_x(FA0, ZERO);
            // Channel loop (uniform trip count).
            let icloop = a.here("resnet.icloop");
            a.mv(A0, T0); // row pointer
            for ky in 0..3 {
                for kx in 0..3i32 {
                    a.flw(FT0, kx * 4, A0);
                    a.flw(FT1, kx * 4, T1);
                    a.fmadd_s(FA0, FT0, FT1, FA0);
                }
                a.addi(T1, T1, 12); // 3 weights consumed
                if ky < 2 {
                    a.add(A0, A0, T6); // next padded row
                }
            }
            a.add(T0, T0, T4); // next input channel plane
            a.addi(T5, T5, -1);
            a.bnez(T5, icloop);
            // Fused ReLU, then store to out[item].
            a.fmv_w_x(FT2, ZERO);
            a.fmax_s(FA0, FA0, FT2);
            a.lw(T2, 8, ctx.args);
            a.slli(A2, ctx.item, 2);
            a.add(T2, T2, A2);
            a.fsw(FA0, 0, T2);
        })
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        vec![PhaseSpec::new("resnet_layer", self.cout * self.width * self.height)]
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let pad = rt.alloc_f32(&self.padded())?;
        let w = rt.alloc_f32(&self.weights)?;
        let out = rt.alloc((self.cout * self.width * self.height * 4).max(4))?;
        rt.set_args(&[pad.addr, w.addr, out.addr, self.width, self.height, self.cin]);
        self.out = Some(out);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("resnet_layer", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn small_conv_matches_reference() {
        let mut k = ResnetLayer::new(6, 5, 3, 2);
        run_kernel(&mut k, &DeviceConfig::with_topology(1, 2, 4), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn relu_clamps_reference_output() {
        let k = ResnetLayer::new(8, 8, 4, 4);
        assert!(k.reference().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn policies_agree() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            let mut k = ResnetLayer::new(4, 4, 2, 2);
            run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 2), policy)
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
        }
    }
}
