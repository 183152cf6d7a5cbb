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
//! * [`par2d`] — the one parallel executor: the 2D block-cyclic
//!   asynchronous code (§5.2, Figs. 12–15) with its synchronous-barrier
//!   ablation variant, overlap-degree instrumentation (Theorem 2) and
//!   buffer accounting. On a `1 × P` grid at lookahead `W = 1` it is the
//!   paper's 1D code (§4.2): block-cyclic column mapping with one-step
//!   compute-ahead (Fig. 10).
//!
//! Entry point for most users: [`pipeline::SparseLuSolver`].

pub mod error;
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
