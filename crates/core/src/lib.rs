//! `splu-core` — the S\* sparse LU factorization with partial pivoting.
//!
//! This crate implements the paper's numerical algorithms on top of the
//! static structures from `splu-symbolic`:
//!
//! * [`storage`] — dense-block storage of the 2D-partitioned matrix
//!   (packed L panels, masked U panels, full diagonal blocks) with the
//!   structure-safe row interchange primitive,
//! * [`seq`] — the partitioned sequential algorithm of Figs. 6–8:
//!   `Factor(k)` (panel factorization with partial pivoting and delayed
//!   interchanges) and `Update(k, j)` (`DTRSM` + `DGEMM` block updates),
//! * `update` (internal) — the `A_ij -= L_ik · U_kj` product every
//!   driver's update task runs (packed, scatter-fused GEMM tiles or
//!   stacked small-shape products, chosen per segment),
//! * [`solve`] — the two triangular solvers `L y = P b`, `U x = y`,
//! * [`pipeline`] — one-call driver: preprocess → symbolic → partition →
//!   amalgamate → factor → solve,
//! * [`par1d`] — the 1D data-mapping parallel codes (compute-ahead and
//!   graph-scheduled / RAPID-style execution, §5.1),
//! * [`par2d`] — the 2D block-cyclic asynchronous code (§5.2, Figs. 12–15)
//!   with its synchronous-barrier ablation variant, overlap-degree
//!   instrumentation (Theorem 2) and buffer accounting.
//!
//! Entry point for most users: [`pipeline::SparseLuSolver`].

pub mod error;
pub mod par1d;
pub mod par2d;
pub mod pipeline;
pub mod refine;
pub mod scratch;
pub mod seq;
pub mod solve;
pub mod storage;
mod update;

pub use error::SolverError;
pub use pipeline::{FactorOptions, FactorizedLu, SolveWorkspace, SparseLuSolver};
pub use refine::{pivot_growth, refine, SolveQuality};
pub use scratch::FactorScratch;
pub use seq::{factor_sequential, FactorStats};
pub use storage::BlockMatrix;
