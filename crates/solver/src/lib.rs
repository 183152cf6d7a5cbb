//! `splu-solver` — the analyze/factorize/solve **service layer** over the
//! S\* pipeline.
//!
//! The paper's central design bet — static symbolic factorization
//! computed once, before any numerics (the George–Ng row-union scheme) —
//! makes *analysis reuse* free: any sequence of matrices with the same
//! sparsity pattern (Newton steps, time-stepping, circuit simulation)
//! shares one symbolic analysis and re-runs only the numeric phase. This
//! crate turns that property into a reusable, concurrent solver service,
//! the lifecycle production solvers (SuperLU_DIST's analyze-once /
//! factorize-many drivers) expose:
//!
//! * [`Analysis`] → [`Factorization`] → [`Factorization::solve`] /
//!   [`Factorization::solve_many`] — staged handles over
//!   `splu-core`'s pipeline, identified by the pattern fingerprint from
//!   `splu-sparse`;
//! * [`cache`] — an LRU factorization cache keyed by pattern fingerprint
//!   with a configurable capacity in **bytes** (the factor-storage
//!   accounting from `splu-core`), plus hit/miss/eviction counters;
//! * [`queue`] — a bounded work queue and worker pool dispatching solve
//!   jobs over cached factorizations, with admission limits and per-job
//!   deadline rejection;
//! * [`concurrent`] — the one serving front end,
//!   [`ConcurrentService`]: factorizations on their own worker pool
//!   (independent matrices factor concurrently), cache + solve queues
//!   sharded by pattern fingerprint, speculative refactor-ahead on value
//!   arrival, and single-flight dedup of concurrent same-key
//!   factorizations;
//! * [`requests`] — a small text workload format plus the batch driver
//!   behind `splu serve --requests <file>`, which resolves each request
//!   in order through [`ConcurrentService`] and reports per-request
//!   outcomes and a `BENCH_solver.json`-compatible summary with
//!   p50/p95/p99 latency percentiles from `splu-probe`'s always-on
//!   metrics registry;
//! * [`gate`] — the `SPLU_BENCH_TOL_PCT` regression gate over a recorded
//!   `BENCH_solver.json` baseline (p95 end-to-end latency, cache hit
//!   rate), run by `splu serve --baseline`.
//!
//! Everything is hand-rolled on `std` only (no crates.io access in the
//! build environment), matching the rest of the workspace.

pub mod cache;
pub mod concurrent;
pub mod gate;
pub mod queue;
pub mod requests;

pub use cache::{CacheConfig, CacheStats, FactorCache};
pub use concurrent::{
    AheadStats, ConcurrentConfig, ConcurrentReport, ConcurrentService, Reuse, ShardSnapshot,
    ShardedCache,
};
pub use gate::SolverRecord;
pub use queue::{JobReport, JobStatus, QueueStats, SolveJob, WorkerPool};
pub use requests::{run_batch, BatchReport, RequestOutcome, Workload};
pub use splu_core::{FactorOptions, SolverError};

use splu_core::{FactorizedLu, SolveWorkspace, SparseLuSolver};
use splu_sparse::CscMatrix;
use std::sync::Arc;

/// The reusable symbolic stage: transversal + ordering + static symbolic
/// factorization + supernode partition, computed once per sparsity
/// pattern. Cheap to clone (`Arc` inside) and safe to share across
/// worker threads; any matrix with the same pattern fingerprint can be
/// numerically factorized against it without redoing symbolic work.
#[derive(Clone)]
pub struct Analysis {
    solver: Arc<SparseLuSolver>,
    bytes: usize,
}

impl Analysis {
    /// Run preprocessing and symbolic analysis for `a`.
    ///
    /// # Panics
    /// Panics if `a` is not square or is *structurally* singular (no
    /// zero-free diagonal exists); [`Analysis::try_of`] returns either as
    /// a [`SolverError`]. Numeric singularity is reported as a typed
    /// [`SolverError`] at factorization time.
    pub fn of(a: &CscMatrix, options: FactorOptions) -> Self {
        Self::try_of(a, options).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Analysis::of`], with a non-square or structurally singular `a`
    /// as an error: [`SolverError::DimensionMismatch`] or
    /// [`SolverError::StructurallySingular`].
    pub fn try_of(a: &CscMatrix, options: FactorOptions) -> Result<Self, SolverError> {
        let solver = Arc::new(SparseLuSolver::try_analyze(a, options)?);
        let bytes = approx_analysis_bytes(&solver);
        Ok(Self { solver, bytes })
    }

    /// Pattern fingerprint of the analyzed matrix: any matrix with this
    /// fingerprint can be factorized against this analysis.
    pub fn fingerprint(&self) -> u64 {
        self.solver.fingerprint
    }

    /// Estimated resident bytes of the symbolic products (what the cache
    /// accounts for an analysis-only entry).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Predicted factor entries (the S\* static bound).
    pub fn static_factor_nnz(&self) -> usize {
        self.solver.static_factor_nnz()
    }

    /// The underlying pipeline object, for callers that need the full
    /// symbolic detail (permutations, block pattern, …).
    pub fn solver(&self) -> &SparseLuSolver {
        &self.solver
    }

    /// Numeric factorization of the originally analyzed matrix.
    pub fn factorize_analyzed(&self) -> Result<Factorization, SolverError> {
        self.factorize_analyzed_as(self.solver.permuted.value_fingerprint())
    }

    /// [`Analysis::factorize_analyzed`], tagged with `value_fingerprint`,
    /// the fingerprint of the matrix this analysis was built from: the
    /// same factors as [`Analysis::factorize`] of that matrix, without
    /// permuting it again.
    pub(crate) fn factorize_analyzed_as(
        &self,
        value_fingerprint: u64,
    ) -> Result<Factorization, SolverError> {
        let lu = self.solver.factor()?;
        Ok(Factorization::new(
            lu,
            self.fingerprint(),
            value_fingerprint,
        ))
    }

    /// Numeric factorization of `a`, reusing this analysis — the
    /// factorize-many half of the lifecycle. `a` must share the analyzed
    /// sparsity pattern ([`SolverError::PatternMismatch`] otherwise); a
    /// numerically singular `a` returns [`SolverError::ZeroPivot`].
    pub fn factorize(&self, a: &CscMatrix) -> Result<Factorization, SolverError> {
        let lu = self.solver.refactor(a)?;
        Ok(Factorization::new(
            lu,
            self.fingerprint(),
            a.value_fingerprint(),
        ))
    }
}

/// Estimate the resident bytes of an analysis: the permuted copy of the
/// matrix plus the static structure and block-pattern metadata.
fn approx_analysis_bytes(s: &SparseLuSolver) -> usize {
    use std::mem::size_of;
    let a = &s.permuted;
    let csc =
        a.nnz() * (size_of::<u32>() + size_of::<f64>()) + (a.ncols() + 1) * size_of::<usize>();
    // static structure: one L and one U index list per supernode
    let structure = s.structure.stored_bytes();
    // block pattern metadata: row/col lists per block (≈ one u32 per
    // stored panel entry is a deliberate overestimate; masks are smaller)
    let pattern = s.pattern.storage_entries() / 8 * size_of::<u32>();
    let perms = 4 * a.ncols() * size_of::<usize>();
    csc + structure + pattern + perms
}

/// The numeric stage: a factorization ready to solve right-hand sides,
/// tagged with the (pattern, value) fingerprints that identify exactly
/// which matrix it factors. Cheap to clone and safe to share across
/// worker threads; solves are `&self` and allocation-free when the
/// caller supplies a [`SolveWorkspace`].
#[derive(Clone)]
pub struct Factorization {
    lu: Arc<FactorizedLu>,
    pattern_fingerprint: u64,
    value_fingerprint: u64,
    bytes: usize,
}

impl Factorization {
    fn new(lu: FactorizedLu, pattern_fingerprint: u64, value_fingerprint: u64) -> Self {
        let bytes = lu.storage_bytes();
        Self {
            lu: Arc::new(lu),
            pattern_fingerprint,
            value_fingerprint,
            bytes,
        }
    }

    /// Pattern fingerprint of the factored matrix.
    pub fn pattern_fingerprint(&self) -> u64 {
        self.pattern_fingerprint
    }

    /// Value fingerprint of the factored matrix (bit-exact).
    pub fn value_fingerprint(&self) -> u64 {
        self.value_fingerprint
    }

    /// Bytes of numeric factor storage (what the cache accounts).
    pub fn storage_bytes(&self) -> usize {
        self.bytes
    }

    /// The underlying factor object (stats, pivot growth, …).
    pub fn lu(&self) -> &FactorizedLu {
        &self.lu
    }

    /// Solve `A x = b` for the original matrix `A`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut x = vec![0.0; b.len()];
        let mut ws = SolveWorkspace::default();
        self.lu.solve_with(b, &mut x, &mut ws)?;
        Ok(x)
    }

    /// Batched solve of `nrhs` systems, `b` column-major (`b[c*n + i]` =
    /// component `i` of RHS `c`); solutions in the same layout. One
    /// blocked BLAS-3 sweep over the factors serves all columns.
    pub fn solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, SolverError> {
        self.lu.solve_many(b, nrhs)
    }

    /// Workspace-reusing batched solve — the worker-pool hot path.
    pub fn solve_many_with(
        &self,
        b: &[f64],
        nrhs: usize,
        x: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolverError> {
        self.lu.solve_many_with(b, nrhs, x, ws)
    }

    /// Solve `Aᵀ x = b` with the same factorization.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, SolverError> {
        let mut x = vec![0.0; b.len()];
        let mut ws = SolveWorkspace::default();
        self.lu.solve_transpose_with(b, &mut x, &mut ws)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
    }

    #[test]
    fn lifecycle_analyze_factorize_solve() {
        let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
        let n = a.ncols();
        let analysis = Analysis::of(&a, FactorOptions::default());
        let f = analysis.factorize(&a).unwrap();
        let xt: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.5 - 2.0).collect();
        let b = a.matvec(&xt);
        let x = f.solve(&b).unwrap();
        assert!(max_err(&x, &xt) < 1e-7);
    }

    #[test]
    fn factorize_many_against_one_analysis() {
        let a = gen::grid2d(8, 7, 0.4, ValueModel::default());
        let analysis = Analysis::of(&a, FactorOptions::default());
        for seed in 1..4u64 {
            let ak = gen::perturb_values(&a, seed);
            let f = analysis.factorize(&ak).unwrap();
            assert_eq!(f.pattern_fingerprint(), analysis.fingerprint());
            let n = ak.ncols();
            let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let b = ak.matvec(&xt);
            let x = f.solve(&b).unwrap();
            assert!(max_err(&x, &xt) < 1e-7, "seed {seed}");
        }
    }

    #[test]
    fn pattern_mismatch_is_typed() {
        let a = gen::grid2d(6, 6, 0.4, ValueModel::default());
        let other = gen::grid2d(6, 7, 0.4, ValueModel::default());
        let analysis = Analysis::of(&a, FactorOptions::default());
        assert!(matches!(
            analysis.factorize(&other),
            Err(SolverError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn singular_input_is_typed_not_a_panic() {
        let a = gen::grid2d(6, 6, 0.4, ValueModel::default());
        let sing = gen::zero_column_values(&a, a.ncols() / 2);
        assert_eq!(sing.pattern_fingerprint(), a.pattern_fingerprint());
        let analysis = Analysis::of(&a, FactorOptions::default());
        assert!(matches!(
            analysis.factorize(&sing),
            Err(SolverError::ZeroPivot { .. })
        ));
    }

    #[test]
    fn multi_rhs_agrees_with_single() {
        let a = gen::random_sparse(70, 4, 0.5, ValueModel::default());
        let n = a.ncols();
        let analysis = Analysis::of(&a, FactorOptions::default());
        let f = analysis.factorize_analyzed().unwrap();
        let nrhs = 3;
        let b: Vec<f64> = (0..n * nrhs).map(|i| ((i % 7) as f64) - 3.0).collect();
        let xs = f.solve_many(&b, nrhs).unwrap();
        for c in 0..nrhs {
            let x1 = f.solve(&b[c * n..(c + 1) * n]).unwrap();
            assert!(max_err(&xs[c * n..(c + 1) * n], &x1) < 1e-8, "col {c}");
        }
    }

    #[test]
    fn byte_accounting_is_positive_and_ordered() {
        let a = gen::grid2d(10, 10, 0.4, ValueModel::default());
        let analysis = Analysis::of(&a, FactorOptions::default());
        let f = analysis.factorize_analyzed().unwrap();
        assert!(analysis.approx_bytes() > 0);
        // the numeric factor dominates the symbolic metadata
        assert!(f.storage_bytes() > 0);
    }
}
