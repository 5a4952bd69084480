//! `reduce`: a log-depth pairwise tree sum, the paper-set's reduction
//! regime (ROADMAP item 3).
//!
//! Each tree level halves the live prefix: level `l` over `len` live
//! elements launches `len - s` work-items (`s = ⌈len/2⌉`), item `i`
//! folding `data[i] += data[i + s]`, and the next level runs over the
//! first `s` elements. Levels are separate kernel launches — the
//! inter-level dependency needs a *global* barrier, which on this device
//! is the launch boundary (in-kernel `vx_bar` only synchronises one
//! core) — so an `n`-element reduction is a ⌈log₂ n⌉-phase kernel whose
//! phases shrink geometrically: the tail launches are far below full
//! occupancy, a dispatch regime (tiny `gws`, many rounds of overhead)
//! none of the dense workloads exercise.

use std::cell::OnceCell;

use vortex_asm::{Assembler, Program};
use vortex_core::{abi, Buffer, LaunchError, Runtime};
use vortex_isa::{fregs, reg};

use crate::data::{seeds, LazyUniform};
use crate::error::{check_f32, VerifyError};
use crate::harness::emit_kernel;
use crate::kernel::{Kernel, PhaseSpec};

/// The `(live length, stride)` pairs of the tree, root-ward: level `l`
/// folds `data[i] += data[i + s]` for `i < len - s`, then `len = s`.
fn levels(n: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut len = n;
    while len > 1 {
        let s = len.div_ceil(2);
        out.push((len, s));
        len = s;
    }
    out
}

/// Pairwise tree sum `data[0] = Σ data[i]` over `n` elements, one kernel
/// phase per tree level.
///
/// Arguments: `[data_ptr]`.
#[derive(Clone, Debug)]
pub struct Reduce {
    n: u32,
    data: LazyUniform,
    out: Option<Buffer>,
    reference: OnceCell<Vec<f32>>,
}

impl Reduce {
    /// A tree reduction over `n` elements (`n ≥ 2`) with seeded inputs.
    pub fn new(n: u32) -> Self {
        assert!(n >= 2, "reduction needs at least two elements");
        Reduce {
            n,
            data: LazyUniform::new(seeds::REDUCE, n as usize, -1.0, 1.0),
            out: None,
            reference: OnceCell::new(),
        }
    }

    /// The paper-set size (len 4096, 12 tree levels).
    pub fn paper() -> Self {
        Reduce::new(4096)
    }

    /// The host reference: the *same* f32 fold tree the device executes
    /// (element order matters — a linear sum would drift). Returns the
    /// full final array state, partial sums included (computed once).
    pub fn reference(&self) -> &[f32] {
        self.reference.get_or_init(|| {
            let mut v = self.data.to_vec();
            for (len, s) in levels(self.n) {
                let (len, s) = (len as usize, s as usize);
                for i in 0..len - s {
                    v[i] += v[i + s];
                }
            }
            v
        })
    }
}

impl Kernel for Reduce {
    fn name(&self) -> &'static str {
        "reduce"
    }

    fn build(&self) -> Result<Program, vortex_asm::AsmError> {
        // One symbol per tree level: the level's stride is baked in as an
        // immediate, so the per-item body stays straight-line.
        let mut asm = Assembler::new(abi::CODE_BASE);
        for (l, (_, s)) in levels(self.n).into_iter().enumerate() {
            emit_kernel(&mut asm, &format!("reduce_l{l}"), |a, ctx| {
                use fregs::*;
                use reg::*;
                a.lw(T0, 0, ctx.args); // data
                a.slli(T1, ctx.item, 2);
                a.add(T1, T1, T0); // &data[i]
                a.flw(FT0, 0, T1);
                a.li_u32(T2, s * 4);
                a.add(T2, T1, T2); // &data[i + s]
                a.flw(FT1, 0, T2);
                a.fadd_s(FT0, FT0, FT1);
                a.fsw(FT0, 0, T1);
            })?;
        }
        asm.assemble()
    }

    fn phases(&self) -> Vec<PhaseSpec> {
        levels(self.n)
            .into_iter()
            .enumerate()
            .map(|(l, (len, s))| PhaseSpec::new(format!("reduce_l{l}"), len - s))
            .collect()
    }

    fn setup(&mut self, rt: &mut Runtime) -> Result<(), LaunchError> {
        let buf = rt.alloc_f32(&self.data)?;
        rt.set_args(&[buf.addr]);
        self.out = Some(buf);
        Ok(())
    }

    fn verify(&self, rt: &Runtime) -> Result<(), VerifyError> {
        let out = self.out.expect("setup ran before verify");
        check_f32("reduce", self.reference(), &rt.read_f32(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::run_kernel;
    use vortex_core::LwsPolicy;
    use vortex_sim::DeviceConfig;

    #[test]
    fn levels_halve_to_one() {
        assert_eq!(levels(2), vec![(2, 1)]);
        assert_eq!(levels(5), vec![(5, 3), (3, 2), (2, 1)]);
        assert_eq!(levels(8), vec![(8, 4), (4, 2), (2, 1)]);
        // Every level launches at least one item and the tree terminates.
        for n in 2..200 {
            for (len, s) in levels(n) {
                assert!(s < len && len - s >= 1, "n={n} level ({len},{s})");
            }
        }
    }

    #[test]
    fn tree_sum_is_exact() {
        let mut k = Reduce::new(256);
        run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 4), LwsPolicy::Auto).unwrap();
    }

    #[test]
    fn correct_across_policies_and_odd_sizes() {
        for policy in [LwsPolicy::Naive1, LwsPolicy::Fixed32, LwsPolicy::Auto] {
            for n in [2u32, 33, 100] {
                let mut k = Reduce::new(n);
                run_kernel(&mut k, &DeviceConfig::with_topology(2, 2, 2), policy)
                    .unwrap_or_else(|e| panic!("{policy} n={n}: {e}"));
            }
        }
    }
}
