//! # S\* — sparse LU factorization with partial pivoting on distributed memory machines
//!
//! A from-scratch Rust reproduction of
//! *Efficient Sparse LU Factorization with Partial Pivoting on Distributed
//! Memory Architectures* (Fu, Jiao & Yang; SC'96 / IEEE TPDS 9(2), 1998),
//! including every substrate the paper depends on: sparse formats and
//! orderings, the George–Ng static symbolic factorization, 2D L/U
//! supernode partitioning with amalgamation, dense BLAS kernels, a
//! SuperLU-like sequential baseline, a thread-based distributed-memory
//! machine with a T3D/T3E cost model, task-graph scheduling (compute-ahead
//! and RAPID-style graph scheduling, evaluated on the discrete-event
//! model), and the 2D parallel factorization code, which runs the 1D
//! code as its `1 × P` grid.
//!
//! ## Quick start
//!
//! ```
//! use sstar::prelude::*;
//!
//! // a nonsymmetric convection–diffusion operator on a 30×30 grid
//! let a = sstar::sparse::gen::grid2d(30, 30, 0.5, Default::default());
//! let n = a.ncols();
//!
//! // analyze (transversal → min-degree(AᵀA) → static symbolic →
//! // supernodes → amalgamation) and factor with partial pivoting
//! let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
//! let lu = solver.factor().expect("nonsingular");
//!
//! // solve A x = b
//! let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
//! let b = a.matvec(&x_true);
//! let x = lu.solve(&b);
//! let err = x.iter().zip(&x_true).fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
//! assert!(err < 1e-8);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`kernels`] | `splu-kernels` | dense BLAS-1/2/3, dense GEPP oracle, per-level flop counts (through `splu-probe`'s one counter) |
//! | [`sparse`] | `splu-sparse` | CSC/COO formats, Matrix-Market I/O, pattern algebra, generators, the benchmark suite |
//! | [`order`] | `splu-order` | Duff transversal, minimum degree on `AᵀA`, RCM, etree utilities |
//! | [`symbolic`] | `splu-symbolic` | static symbolic factorization, supernodes, amalgamation, 2D block pattern |
//! | [`superlu`] | `splu-superlu` | Gilbert–Peierls GEPP baseline (op counts, nnz, supernode stats) |
//! | [`machine`] | `splu-machine` | thread message-passing runtime, processor grid, T3D/T3E cost model |
//! | [`probe`] | `splu-probe` | flight-recorder tracing: spans/counters, Chrome-trace & summary-JSON export; the always-on flop counter and metrics registry |
//! | [`sched`] | `splu-sched` | the model: task DAG, CA & graph schedules, discrete-event simulator, Gantt, load balance |
//! | [`core`] | `splu-core` | S\* numeric factorization: sequential, 2D (async / barrier; `1 × P` is the 1D code) with its op lists read from the block pattern, solvers |
//! | [`solver`] | `splu-solver` | analyze/factorize/solve service: staged handles, pattern-keyed factorization cache, bounded solve work queue, concurrent serving layer (factor pool, sharded cache, refactor-ahead), batch driver |
//! | [`load`] | `splu-load` | seeded multi-tenant workload generator and open-loop load driver (`splu loadgen`) |
//!
//! See `DESIGN.md` for the paper↔module inventory and `EXPERIMENTS.md` for
//! the reproduced tables and figures.

pub use splu_core as core;
pub use splu_kernels as kernels;
pub use splu_load as load;
pub use splu_machine as machine;
pub use splu_order as order;
pub use splu_probe as probe;
pub use splu_sched as sched;
pub use splu_solver as solver;
pub use splu_sparse as sparse;
pub use splu_superlu as superlu;
pub use splu_symbolic as symbolic;

/// The most commonly used items in one import.
pub mod prelude {
    pub use splu_core::par2d::{factor_par2d, Sync2d};
    pub use splu_core::pipeline::lu_solve;
    pub use splu_core::{FactorOptions, FactorizedLu, SolverError, SparseLuSolver};
    pub use splu_machine::{Grid, MachineModel, T3D, T3E};
    pub use splu_order::ColumnOrdering;
    pub use splu_solver::{Analysis, ConcurrentService, Factorization};
    pub use splu_sparse::{CooMatrix, CscMatrix, Perm};
}
