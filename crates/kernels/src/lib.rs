//! `splu-kernels` — dense linear-algebra kernels for the S\* sparse LU system.
//!
//! The S\* approach (Fu, Jiao & Yang, SC'96 / TPDS'98) turns a sparse LU
//! factorization with partial pivoting into a sequence of *dense* block
//! operations: after static symbolic factorization and 2D L/U supernode
//! partitioning, most of the numerical work is matrix–matrix multiplication
//! (BLAS-3 `DGEMM`), with the remainder in matrix–vector products, rank-1
//! updates and triangular solves (BLAS-1/2). The paper's central bet is that
//! a BLAS-3 flop is cheaper than a BLAS-2 flop (`w3 < w2`), so extra padded
//! flops are worth paying to aggregate work into `DGEMM`.
//!
//! This crate provides those kernels in pure Rust, together with:
//!
//! * a column-major dense matrix container ([`DenseMat`]),
//! * a dense Gaussian-elimination-with-partial-pivoting reference
//!   factorization ([`dense_lu`]) used as the correctness oracle for the
//!   sparse codes (it implements Fig. 1 of the paper for the dense case),
//! * flop accounting per BLAS level ([`flops`], `splu-probe`'s one
//!   thread-local counter), which measures the BLAS-3 fraction of the
//!   numerical updates (the paper reports "more than 64 percent of
//!   numerical updates is performed by the BLAS-3 routine DGEMM").
//!
//! All kernels use column-major storage with an explicit leading dimension
//! (`lda`), mirroring the Fortran BLAS interface, so they can operate
//! directly on sub-panels of the block storage used by `splu-core`.

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod dense_lu;
pub mod flops;
pub mod matrix;

pub use blas1::{dasum, daxpy, dcopy, ddot, dnrm2, dscal, dswap, idamax};
pub use blas2::{dgemv, dger, dtrsv_lower_unit, dtrsv_upper};
pub use blas3::{
    dgemm, dgemm_naive, dgemm_packed_sub_scatter, dgemm_update, dgemm_update_with, dgemm_with,
    dtrsm_left_lower_unit, dtrsm_left_upper, gemm_uses_blocked_path, pack_a, pack_b, packed_a_len,
    packed_b_len, scatter_sub, GemmScratch, Scatter, SegmentPack,
};
pub use dense_lu::{dense_lu, dense_solve, DenseLu};
pub use matrix::DenseMat;

#[cfg(test)]
mod proptests;
