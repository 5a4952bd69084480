//! The per-op specialised execute engine.
//!
//! The interpreter used to run the big ALU/FPU arms of `Core::issue`
//! through one generic row loop per arm, matching on the operation *per
//! lane* and relying on LLVM loop unswitching to hoist the match. This
//! module replaces that with **op-indexed dispatch into monomorphic slice
//! kernels**: each execute arm resolves the operation held in the
//! [`DecodedInstr`](crate::decoded::DecodedInstr) cache to a `&'static`
//! kernel — a pair of row loops (branch-free full-mask, set-bit masked)
//! compiled for exactly one operation — through a per-family dispatch
//! table ([`tables`]), then pays one indirect call per instruction where
//! it used to pay one operation match per lane. (Caching the kernel
//! pointer *inside* the decode entry was tried and measured a net loss:
//! it grows every `DecodedInstr` and per-warp next-issue slot by 16
//! bytes, and the table resolve is a single load the branch predictor
//! eats.)
//!
//! Layout:
//!
//! * [`scalar`] — the scalar semantics of every operation (single source
//!   of truth, RISC-V edge cases included);
//! * [`tables`] — the generic row loops and the per-op kernel statics;
//! * [`span`] — the full-mask address-pattern classifier shared by the
//!   broadcast/unit-stride memory fast paths.
//!
//! Everything is timing-neutral by construction: kernels compute the same
//! values in the same lane order as the loops they replaced, and the
//! whole module is gated by the bit-identity suite
//! (`tests/cycle_golden.rs`, the 180-run `cycle_dump` grid).

pub(crate) mod scalar;
pub(crate) mod span;
pub(crate) mod tables;

/// A two-source row kernel (`dst[l] = op(a[l], b[l])`).
#[derive(Debug)]
pub(crate) struct BinKernel {
    /// Branch-free loop over the whole destination row.
    pub full: fn(&mut [u32], &[u32], &[u32]),
    /// Set-bit walk over the active lanes of the thread mask.
    pub masked: fn(&mut [u32], &[u32], &[u32], u32),
}

/// A source+immediate row kernel (`dst[l] = op(a[l], imm)`).
#[derive(Debug)]
pub(crate) struct ImmKernel {
    pub full: fn(&mut [u32], &[u32], i32),
    pub masked: fn(&mut [u32], &[u32], i32, u32),
}

/// Full-mask loop of a three-source row kernel.
pub(crate) type FmaFull = fn(&mut [u32], &[u32], &[u32], &[u32]);
/// Masked loop of a three-source row kernel.
pub(crate) type FmaMasked = fn(&mut [u32], &[u32], &[u32], &[u32], u32);

/// A three-source row kernel (the fused multiply-add family).
#[derive(Debug)]
pub(crate) struct FmaKernel {
    pub full: FmaFull,
    pub masked: FmaMasked,
}

/// A one-source row kernel (sqrt, conversions, moves, classify).
#[derive(Debug)]
pub(crate) struct UnKernel {
    pub full: fn(&mut [u32], &[u32]),
    pub masked: fn(&mut [u32], &[u32], u32),
}

/// A two-source ballot kernel (`ballot |= op(a[l], b[l]) << l`), used by
/// the warp-uniform branch check.
#[derive(Debug)]
pub(crate) struct CmpKernel {
    pub full: fn(&[u32], &[u32]) -> u32,
    pub masked: fn(&[u32], &[u32], u32) -> u32,
}

#[cfg(test)]
mod tests {
    use vortex_isa::AluOp;

    use super::tables;

    #[test]
    fn dispatch_is_per_operation_not_per_family() {
        let ka = tables::alu_kernel(AluOp::Add);
        let ks = tables::alu_kernel(AluOp::Sub);
        assert!(!std::ptr::eq(ka, ks), "distinct ops must get distinct kernels");
        let (mut da, mut ds) = ([0u32; 4], [0u32; 4]);
        (ka.full)(&mut da, &[10, 10, 10, 10], &[3, 3, 3, 3]);
        (ks.full)(&mut ds, &[10, 10, 10, 10], &[3, 3, 3, 3]);
        assert_eq!(da, [13; 4]);
        assert_eq!(ds, [7; 4]);
    }

    #[test]
    fn signedness_helpers_route_to_distinct_kernels() {
        assert!(!std::ptr::eq(tables::fcvt_to_int_kernel(true), tables::fcvt_to_int_kernel(false)));
        assert!(!std::ptr::eq(
            tables::fcvt_from_int_kernel(true),
            tables::fcvt_from_int_kernel(false)
        ));
    }
}
