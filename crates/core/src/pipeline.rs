//! One-call driver: the full S\* pipeline.
//!
//! ```text
//! A ──transversal──▶ zero-free diagonal
//!   ──min-degree(AᵀA)──▶ fill-reducing column order      (splu-order)
//!   ──static symbolic factorization──▶ L/U upper bounds  (splu-symbolic)
//!   ──2D L/U supernode partition + amalgamation──▶ blocks
//!   ──Factor/Update──▶ numeric factors                   (this crate)
//!   ──forward/backward solve──▶ x
//! ```

use crate::error::SolverError;
use crate::par2d::{factor_par2d_reusing, Input, Par2dOptions};
use crate::scratch::FactorScratch;
use crate::seq::{factor_sequential_with, FactorStats};
use crate::solve::{
    solve_factored_multi_in_place, solve_factored_transpose_in_place, MultiSolveScratch,
};
use crate::storage::BlockMatrix;
use splu_machine::{Grid, RunOptions};
use splu_order::ColumnOrdering;
use splu_sparse::{CscMatrix, Perm};
use splu_symbolic::{
    amalgamate, partition_supernodes, static_symbolic_factorization, BlockPattern, Slot,
    StaticStructure,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Tuning knobs for the factorization pipeline.
#[derive(Debug, Clone, Copy)]
pub struct FactorOptions {
    /// Maximum supernode/block width. The default, 32, was picked from a
    /// measured width sweep on this library's kernels (EXPERIMENTS.md,
    /// "Supernode width from the measured curve"): a wider cap issues
    /// fewer, larger update products. 32 is the widest cap at which every
    /// matrix of the suite smoke tests still does at least 30 % of its
    /// factorization flops in DGEMM: consecutive amalgamation welds a band into cap-wide
    /// blocks, so on the banded af23560 a wider cap moves the work into
    /// the BLAS-2 panel factorization `Factor(k)` and multiplies its
    /// flops (2.5× at 64, 6.4× at 128). The paper's BSIZE is 25, chosen
    /// to balance BLAS-3 efficiency against 2D parallelism on the
    /// T3D/T3E; the paper-reproduction paths (`splu repro`, `bench-lu`'s
    /// modeled large tier) pin it.
    pub block_size: usize,
    /// Amalgamation factor `r` (the paper finds 4–6 best; 0 disables).
    /// The default 4 was level with every `r` in 2–12 in the same sweep;
    /// `r = 0` is slower.
    pub amalgamation: usize,
    /// Column ordering strategy (the paper: minimum degree on `AᵀA`).
    pub ordering: ColumnOrdering,
    /// Pivot threshold: `1.0` = classic partial pivoting (always take the
    /// column maximum); `t < 1.0` keeps the diagonal candidate when it is
    /// within factor `t` of the maximum, reducing row movement. Every
    /// choice is structurally safe — the static prediction covers all
    /// pivot sequences.
    pub pivot_threshold: f64,
    /// Row/column equilibration: scale `A → R A C` so every row and
    /// column has unit maximum magnitude before ordering and
    /// factorization. Improves pivoting behaviour on badly scaled
    /// systems; solutions are automatically unscaled.
    pub equilibrate: bool,
    /// Core budget of one factorization. With a budget of at least 2,
    /// the one factor entry point ([`SparseLuSolver::factor`] and its
    /// siblings) runs the 2D stage engine on a `1 × P` grid of threads,
    /// `P` = min(budget, [`PARALLEL_MAX_RANKS`]), when the pattern clears
    /// the measured crossover ([`parallel_grid`]), and the sequential code
    /// otherwise; `1` always runs the sequential code. Either path
    /// produces bitwise the same factors, pivots and flop counts; on the
    /// grid the time fields of [`FactorStats`] sum the ranks' thread time.
    /// Default: the host's available parallelism, read once per process.
    pub cores: usize,
}

impl Default for FactorOptions {
    fn default() -> Self {
        Self {
            block_size: 32,
            amalgamation: 4,
            ordering: ColumnOrdering::MinDegreeAtA,
            pivot_threshold: 1.0,
            equilibrate: false,
            cores: available_cores(),
        }
    }
}

/// The host's available parallelism, read once per process so that a
/// pattern takes the same path on every call.
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pattern flops ([`BlockPattern::factor_flops`]) from which the one
/// factor entry point runs the 2D engine when the core budget allows.
/// Measured on a 2-vCPU host (EXPERIMENTS.md, "Parallel on the product
/// path", re-measured in "Ordering"): at 2 cores the `1 × 2` grid is
/// faster than the sequential code on every matrix from goodwin (1.8e9
/// flops) up; below, the stage protocol, thread start-up and rank
/// copy-in can cost more than the second core saves (hiergrid50k, 1.2e9
/// flops, is level or slower), and flops alone do not separate the rows.
pub const PARALLEL_MIN_FLOPS: u64 = 1_300_000_000;

/// The widest grid the one factor entry point runs: the crossover
/// [`PARALLEL_MIN_FLOPS`] was measured at `P = 2` only, so a larger core
/// budget still runs `1 × 2` until wider grids are measured.
pub const PARALLEL_MAX_RANKS: usize = 2;

/// The grid the one factor entry point runs a pattern on under a core
/// budget of `cores`: `Some(1 × min(cores, PARALLEL_MAX_RANKS))` when
/// `cores ≥ 2` and the pattern's flops reach [`PARALLEL_MIN_FLOPS`], `None`
/// (sequential) otherwise. A function of the pattern and the budget only,
/// never of a timing, so a pattern always takes the same path.
pub fn parallel_grid(pattern: &BlockPattern, cores: usize) -> Option<Grid> {
    (cores >= 2 && pattern.factor_flops() >= PARALLEL_MIN_FLOPS).then_some(Grid {
        pr: 1,
        pc: cores.min(PARALLEL_MAX_RANKS),
    })
}

/// A fully prepared (but not yet factored) solver: preprocessing and all
/// symbolic work done once; `factor` can then be applied to any matrix
/// with the same pattern.
pub struct SparseLuSolver {
    /// The permuted (and, if requested, equilibrated) matrix that is
    /// actually factored.
    pub permuted: CscMatrix,
    /// Row scales `R` (empty when equilibration is off).
    pub row_scale: Vec<f64>,
    /// Column scales `C` (empty when equilibration is off).
    pub col_scale: Vec<f64>,
    /// Row permutation applied before factorization (transversal ∘ ordering).
    pub row_perm: Perm,
    /// Column permutation (the fill-reducing ordering).
    pub col_perm: Perm,
    /// Static symbolic factorization result.
    pub structure: StaticStructure,
    /// The 2D block pattern after partitioning + amalgamation.
    pub pattern: Arc<BlockPattern>,
    /// Options used.
    pub options: FactorOptions,
    /// Pattern fingerprint of the *original* matrix this analysis was
    /// built from; [`SparseLuSolver::refactor`] only accepts matrices
    /// with the same fingerprint.
    pub fingerprint: u64,
}

/// The numeric factorization, ready to solve right-hand sides.
pub struct FactorizedLu {
    /// Factored block storage.
    pub blocks: BlockMatrix,
    /// Per-block pivot sequences.
    pub pivots: Vec<Vec<u32>>,
    /// Run statistics.
    pub stats: FactorStats,
    row_perm: Perm,
    col_perm: Perm,
    row_scale: Vec<f64>,
    col_scale: Vec<f64>,
}

/// Reusable buffers for repeated solves against one factorization: the
/// permuted/scaled copy of the right-hand side(s), which the blocked sweep
/// solves in place, plus its product/gather scratch. Warm after the first
/// solve — no allocation per call, which is what iterative refinement and
/// the solver-service workers want.
#[derive(Default)]
pub struct SolveWorkspace {
    /// Permuted right-hand side(s), overwritten by the solution in
    /// permuted coordinates (`n × nrhs`, column-major; `n × 1` for the
    /// 1-RHS and transpose solves).
    y: Vec<f64>,
    /// L-panel product and U-column gather buffer of the blocked sweep.
    scratch: MultiSolveScratch,
}

impl SparseLuSolver {
    /// Run preprocessing and symbolic analysis for `a`.
    ///
    /// # Panics
    /// Panics if `a` is not square or is structurally singular
    /// ([`SparseLuSolver::try_analyze`] returns either as an error).
    pub fn analyze(a: &CscMatrix, options: FactorOptions) -> Self {
        Self::try_analyze(a, options).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SparseLuSolver::analyze`], or [`SolverError::DimensionMismatch`]
    /// for a non-square `a` and [`SolverError::StructurallySingular`] for
    /// one without a zero-free diagonal.
    pub fn try_analyze(a: &CscMatrix, options: FactorOptions) -> Result<Self, SolverError> {
        if a.nrows() != a.ncols() {
            return Err(SolverError::DimensionMismatch {
                expected: a.ncols(),
                got: a.nrows(),
            });
        }
        let (a_scaled, row_scale, col_scale) = scaled(a, options.equilibrate);
        let (permuted, row_perm, col_perm) =
            splu_order::try_preprocess(&a_scaled, options.ordering).map_err(|matched| {
                SolverError::StructurallySingular {
                    matched,
                    n: a.ncols(),
                }
            })?;
        let structure = static_symbolic_factorization(&permuted);
        let base = partition_supernodes(&structure, options.block_size);
        let part = amalgamate(&structure, &base, options.amalgamation, options.block_size);
        let pattern = Arc::new(BlockPattern::build(&structure, &part));
        Ok(Self {
            permuted,
            row_scale,
            col_scale,
            row_perm,
            col_perm,
            structure,
            pattern,
            options,
            fingerprint: a.pattern_fingerprint(),
        })
    }

    /// Numeric factorization of the analyzed matrix: the one factor entry
    /// point. Under a core budget ([`FactorOptions::cores`]) of at least
    /// 2, a pattern that clears the crossover ([`parallel_grid`]) is
    /// factored by the 2D stage engine on a `1 × 2` grid of threads; any
    /// other runs the sequential code. The factors, pivots and flop
    /// counts are bitwise those of the sequential code either way, and a
    /// numerically singular matrix returns [`SolverError::ZeroPivot`].
    pub fn factor(&self) -> Result<FactorizedLu, SolverError> {
        self.factor_with(&mut FactorScratch::new())
    }

    /// Arena-reusing [`SparseLuSolver::factor`]: the factorization's
    /// temporaries live in `scratch` and are reused across calls — on the
    /// parallel path also the engine's schedule and one arena per rank.
    /// Once warm, the hot loop allocates nothing —
    /// [`FactorStats::scratch_grow_events`] is 0 for the repeat calls.
    pub fn factor_with(&self, scratch: &mut FactorScratch) -> Result<FactorizedLu, SolverError> {
        self.factor_blocks(self.filled(), self.scales(), None, scratch)
    }

    /// Like [`SparseLuSolver::factor`], but recording a flight-recorder
    /// timeline into `collector`: on the sequential path, processor 0's
    /// `panel-factor`/`update` spans per stage, pivot-search and
    /// static-fill counters and per-BLAS-level flop counts; on the
    /// parallel path, the 2D engine's timeline of every rank.
    pub fn factor_traced(
        &self,
        collector: &splu_probe::Collector,
    ) -> Result<FactorizedLu, SolverError> {
        let scratch = &mut FactorScratch::new();
        self.factor_blocks(self.filled(), self.scales(), Some(collector), scratch)
    }

    /// Numeric refactorization of a *different* matrix with the *same*
    /// sparsity pattern, reusing every symbolic product of this analysis
    /// (permutations, static structure, block pattern) — the
    /// analyze-once / factorize-many lifecycle. Equilibration scales,
    /// being value-dependent, are recomputed per matrix; the structural
    /// permutations remain valid because transversal and ordering depend
    /// only on the pattern. It takes the same path as
    /// [`SparseLuSolver::factor`].
    pub fn refactor(&self, a: &CscMatrix) -> Result<FactorizedLu, SolverError> {
        self.refactor_with(a, &mut FactorScratch::new())
    }

    /// Arena-reusing [`SparseLuSolver::refactor`] — the
    /// factorize-many lifecycle with an allocation-free numeric phase:
    /// pass the same `scratch` on every call and, once warm, the
    /// elimination loop performs zero heap allocations
    /// ([`FactorStats::scratch_grow_events`] = 0). The values of `a` go
    /// straight into the block storage through a map from each of its
    /// entries to its storage slot, which the first call builds and
    /// `scratch` keeps; no permuted copy of `a` is made. On the parallel
    /// path the warmed `scratch` also holds the engine's schedule and the
    /// per-rank arenas, so a repeat call rebuilds no schedule.
    pub fn refactor_with(
        &self,
        a: &CscMatrix,
        scratch: &mut FactorScratch,
    ) -> Result<FactorizedLu, SolverError> {
        let got = a.pattern_fingerprint();
        if got != self.fingerprint {
            return Err(SolverError::PatternMismatch {
                expected: self.fingerprint,
                got,
            });
        }
        let (values, scales) = if self.options.equilibrate {
            let (r, c) = equilibration_scales(a);
            (Cow::Owned(scaled_values(a, &r, &c)), (r, c))
        } else {
            (Cow::Borrowed(a.values()), (Vec::new(), Vec::new()))
        };
        let layout = self.pattern.layout();
        let slots = scratch.slot_map(&self.pattern, || {
            let mut slots = vec![Slot::default(); a.nnz()];
            let pq = Some((&self.row_perm, &self.col_perm));
            layout.place(a, pq, |_| true, |_| true, |e, s| slots[e] = s);
            slots
        });
        let mut blocks = BlockMatrix::zeroed(self.pattern.clone(), layout, |_| (true, true));
        blocks.scatter(slots, &values);
        self.factor_blocks((blocks, a.nnz()), scales, None, scratch)
    }

    /// The block storage of the analyzed matrix, and its entry count.
    fn filled(&self) -> (BlockMatrix, usize) {
        let blocks = BlockMatrix::from_csc(&self.permuted, self.pattern.clone());
        (blocks, self.permuted.nnz())
    }

    /// The analyzed matrix's (row, column) equilibration scales.
    fn scales(&self) -> (Vec<f64>, Vec<f64>) {
        (self.row_scale.clone(), self.col_scale.clone())
    }

    /// The factorization of `blocks`, the storage of a scaled and permuted
    /// matrix of `nnz` entries with this analysis' pattern, on
    /// [`parallel_grid`]'s path; `scales` are its (row, column)
    /// equilibration scales.
    fn factor_blocks(
        &self,
        (mut blocks, nnz): (BlockMatrix, usize),
        (row_scale, col_scale): (Vec<f64>, Vec<f64>),
        trace: Option<&splu_probe::Collector>,
        scratch: &mut FactorScratch,
    ) -> Result<FactorizedLu, SolverError> {
        let threshold = self.options.pivot_threshold;
        let (blocks, pivots, stats) = match parallel_grid(&self.pattern, self.options.cores) {
            None => {
                let mut probe = trace.map_or_else(splu_probe::Probe::disabled, |c| c.probe(0));
                probe.attach_thread();
                probe.count(
                    "fill_entries",
                    self.pattern.storage_entries().saturating_sub(nnz) as u64,
                );
                let (pivots, stats) =
                    factor_sequential_with(&mut blocks, threshold, &probe, scratch)?;
                (blocks, pivots, stats)
            }
            Some(grid) => {
                let opts = Par2dOptions {
                    run: RunOptions {
                        trace,
                        ..RunOptions::default()
                    },
                    threshold,
                    ..Par2dOptions::default()
                };
                let input = Input::Filled(blocks, nnz);
                let r = factor_par2d_reusing(input, self.pattern.clone(), grid, &opts, scratch)?;
                (r.blocks, r.pivots, r.stats)
            }
        };
        Ok(FactorizedLu {
            blocks,
            pivots,
            stats,
            row_perm: self.row_perm.clone(),
            col_perm: self.col_perm.clone(),
            row_scale,
            col_scale,
        })
    }

    /// Predicted factor entries (the S\* static bound; Table 1).
    pub fn static_factor_nnz(&self) -> usize {
        self.structure.factor_nnz()
    }

    /// Analyze with *automatic ordering selection*: run the symbolic
    /// pipeline under both minimum-degree targets (`AᵀA` and `Aᵀ+A`) and
    /// keep whichever predicts fewer static factor entries. This is the
    /// paper's `memplus` observation turned into a policy: for matrices
    /// with a nearly dense row, the `AᵀA` ordering makes the static
    /// overestimation excessive, while `Aᵀ+A` stays reasonable.
    pub fn analyze_auto(a: &CscMatrix, base: FactorOptions) -> Self {
        let ata = Self::analyze(
            a,
            FactorOptions {
                ordering: ColumnOrdering::MinDegreeAtA,
                ..base
            },
        );
        let atpa = Self::analyze(
            a,
            FactorOptions {
                ordering: ColumnOrdering::MinDegreeAtPlusA,
                ..base
            },
        );
        if atpa.static_factor_nnz() < ata.static_factor_nnz() {
            atpa
        } else {
            ata
        }
    }
}

impl FactorizedLu {
    /// Solve `A x = b` for the *original* matrix `A` (permutations are
    /// applied internally).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        let mut ws = SolveWorkspace::default();
        self.solve_with(b, &mut x, &mut ws).expect("rhs length");
        x
    }

    /// Workspace-reusing [`FactorizedLu::solve`]: writes the solution into
    /// `x`, allocating nothing once `ws` is warm. The building block for
    /// iterative refinement; it is the one-right-hand-side call of
    /// [`FactorizedLu::solve_many_with`].
    pub fn solve_with(
        &self,
        b: &[f64],
        x: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolverError> {
        self.solve_many_with(b, 1, x, ws)
    }

    /// Batched solve of `nrhs` systems: `b` holds the right-hand sides
    /// column-major (`b[c * n + i]` = component `i` of RHS `c`); returns
    /// the solutions in the same layout. One blocked forward/backward
    /// sweep over the factors serves all columns (BLAS-3 style); it is
    /// the same sweep every 1-RHS solve runs.
    pub fn solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, SolverError> {
        let mut x = vec![0.0; b.len()];
        let mut ws = SolveWorkspace::default();
        self.solve_many_with(b, nrhs, &mut x, &mut ws)?;
        Ok(x)
    }

    /// Workspace-reusing [`FactorizedLu::solve_many`]: solutions go into
    /// `x` (same column-major layout as `b`), no allocation once warm.
    /// The solver-service workers' hot path.
    pub fn solve_many_with(
        &self,
        b: &[f64],
        nrhs: usize,
        x: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolverError> {
        let n = self.blocks.n;
        if b.len() != n * nrhs {
            return Err(SolverError::DimensionMismatch {
                expected: n * nrhs,
                got: b.len(),
            });
        }
        if x.len() != n * nrhs {
            return Err(SolverError::DimensionMismatch {
                expected: n * nrhs,
                got: x.len(),
            });
        }
        // B = P (R A C) Qᵀ was factored; solve B z = P (R b), then
        // x = C · Qᵀ z — per RHS column.
        ws.y.clear();
        ws.y.resize(n * nrhs, 0.0);
        for c in 0..nrhs {
            let bcol = &b[c * n..(c + 1) * n];
            let ycol = &mut ws.y[c * n..(c + 1) * n];
            for (i, y) in ycol.iter_mut().enumerate() {
                let o = self.row_perm.old_of_new(i);
                *y = if self.row_scale.is_empty() {
                    bcol[o]
                } else {
                    bcol[o] * self.row_scale[o]
                };
            }
        }
        solve_factored_multi_in_place(&self.blocks, &self.pivots, &mut ws.y, nrhs, &mut ws.scratch);
        for c in 0..nrhs {
            let zcol = &ws.y[c * n..(c + 1) * n];
            let xcol = &mut x[c * n..(c + 1) * n];
            for (j, xv) in xcol.iter_mut().enumerate() {
                let v = zcol[self.col_perm.new_of_old(j)];
                *xv = if self.col_scale.is_empty() {
                    v
                } else {
                    v * self.col_scale[j]
                };
            }
        }
        Ok(())
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        self.blocks.n
    }

    /// Bytes of numeric storage this factorization holds (panel values,
    /// pivot sequences, permutations, scales) — the quantity the solver
    /// service's byte-budgeted cache accounts against.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut entries = 0usize;
        for cb in &self.blocks.cols {
            entries += cb.diag.len() + cb.lpanel.len();
            for ub in &cb.ublocks {
                entries += ub.panel.len();
            }
        }
        entries * size_of::<f64>()
            + self
                .pivots
                .iter()
                .map(|p| p.len() * size_of::<u32>())
                .sum::<usize>()
            + (self.row_scale.len() + self.col_scale.len()) * size_of::<f64>()
            + 2 * self.blocks.n * size_of::<usize>()
    }
}

impl FactorizedLu {
    /// Solve `Aᵀ x = b` for the *original* matrix `A` using the same
    /// factorization (permutations and scalings applied internally).
    pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        let mut ws = SolveWorkspace::default();
        self.solve_transpose_with(b, &mut x, &mut ws)
            .expect("rhs length");
        x
    }

    /// Workspace-reusing [`FactorizedLu::solve_transpose`]: writes the
    /// solution into `x`, allocating nothing once `ws` is warm.
    pub fn solve_transpose_with(
        &self,
        b: &[f64],
        x: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolverError> {
        let n = self.blocks.n;
        if b.len() != n {
            return Err(SolverError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        if x.len() != n {
            return Err(SolverError::DimensionMismatch {
                expected: n,
                got: x.len(),
            });
        }
        // B = P (R A C) Qᵀ  ⟹  Aᵀ x = b ⟺ Bᵀ (P R⁻¹... see below):
        // A'ᵀ u = C b with u = R⁻¹ x; A'ᵀ = Qᵀ Bᵀ P, so Bᵀ (P u) = Q (C b).
        // (Q c)[j'] = c[old col of j'] with c = C b.
        ws.y.clear();
        ws.y.resize(n, 0.0);
        for (j, y) in ws.y.iter_mut().enumerate() {
            let o = self.col_perm.old_of_new(j);
            *y = if self.col_scale.is_empty() {
                b[o]
            } else {
                b[o] * self.col_scale[o]
            };
        }
        solve_factored_transpose_in_place(&self.blocks, &self.pivots, &mut ws.y);
        // u = Pᵀ v: u[i] = v[new position of row i]; x = R u
        for (i, xv) in x.iter_mut().enumerate() {
            let u = ws.y[self.row_perm.new_of_old(i)];
            *xv = if self.row_scale.is_empty() {
                u
            } else {
                u * self.row_scale[i]
            };
        }
        Ok(())
    }

    /// Estimate the 1-norm condition number `κ₁(A) = ‖A‖₁ ‖A⁻¹‖₁` with
    /// Higham's iterative estimator (a few solves with `A` and `Aᵀ`).
    /// `a` must be the matrix this factorization came from.
    pub fn condest(&self, a: &CscMatrix) -> f64 {
        let n = self.blocks.n;
        if n == 0 {
            return 0.0;
        }
        // ‖A‖₁ = max column abs sum
        let mut colsum = vec![0.0f64; n];
        for (_, j, v) in a.iter() {
            colsum[j] += v.abs();
        }
        let norm_a = colsum.iter().fold(0.0f64, |m, &v| m.max(v));

        // Higham/Hager ‖A⁻¹‖₁ estimator
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0f64;
        for _ in 0..5 {
            let y = self.solve(&x); // y = A⁻¹ x
            let y1: f64 = y.iter().map(|v| v.abs()).sum();
            let xi: Vec<f64> = y
                .iter()
                .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
                .collect();
            let z = self.solve_transpose(&xi); // z = A⁻ᵀ ξ
            let (mut jmax, mut zmax) = (0usize, -1.0f64);
            for (j, &v) in z.iter().enumerate() {
                if v.abs() > zmax {
                    zmax = v.abs();
                    jmax = j;
                }
            }
            let ztx: f64 = z.iter().zip(&x).map(|(p, q)| p * q).sum();
            est = est.max(y1);
            if zmax <= ztx.abs() {
                break;
            }
            x = vec![0.0; n];
            x[jmax] = 1.0;
        }
        norm_a * est
    }
}

/// `a` equilibrated, with its row and column scales, when `on`; else `a`
/// itself, borrowed, with no scales.
fn scaled(a: &CscMatrix, on: bool) -> (Cow<'_, CscMatrix>, Vec<f64>, Vec<f64>) {
    if on {
        let (m, r, c) = equilibrate(a);
        (Cow::Owned(m), r, c)
    } else {
        (Cow::Borrowed(a), Vec::new(), Vec::new())
    }
}

/// Scale `A → R A C` so every row and then every column has unit maximum
/// magnitude. Returns the scaled matrix and the diagonal scale vectors.
pub fn equilibrate(a: &CscMatrix) -> (CscMatrix, Vec<f64>, Vec<f64>) {
    let (r, c) = equilibration_scales(a);
    let values = scaled_values(a, &r, &c);
    let (ptr, rows) = (a.col_ptr().to_vec(), a.row_indices().to_vec());
    (
        CscMatrix::from_parts(a.nrows(), a.ncols(), ptr, rows, values),
        r,
        c,
    )
}

/// The row scales `R` and column scales `C` of [`equilibrate`].
fn equilibration_scales(a: &CscMatrix) -> (Vec<f64>, Vec<f64>) {
    let mut rmax = vec![0.0f64; a.nrows()];
    for (i, _, v) in a.iter() {
        rmax[i] = rmax[i].max(v.abs());
    }
    let r: Vec<f64> = rmax
        .iter()
        .map(|&m| if m > 0.0 { 1.0 / m } else { 1.0 })
        .collect();
    let mut cmax = vec![0.0f64; a.ncols()];
    for (i, j, v) in a.iter() {
        cmax[j] = cmax[j].max((v * r[i]).abs());
    }
    let c: Vec<f64> = cmax
        .iter()
        .map(|&m| if m > 0.0 { 1.0 / m } else { 1.0 })
        .collect();
    (r, c)
}

/// The values of `R A C`, in `a`'s entry order.
fn scaled_values(a: &CscMatrix, r: &[f64], c: &[f64]) -> Vec<f64> {
    a.iter().map(|(i, j, v)| v * r[i] * c[j]).collect()
}

/// Convenience: analyze + factor + solve in one call.
pub fn lu_solve(a: &CscMatrix, b: &[f64], options: FactorOptions) -> Result<Vec<f64>, SolverError> {
    let solver = SparseLuSolver::analyze(a, options);
    Ok(solver.factor()?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};

    fn check(a: &CscMatrix, options: FactorOptions, tol: f64) {
        let n = a.ncols();
        let xt: Vec<f64> = (0..n)
            .map(|i| ((i * 13 % 17) as f64) * 0.25 - 2.0)
            .collect();
        let b = a.matvec(&xt);
        let x = lu_solve(a, &b, options).unwrap();
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < tol, "solve error {err}");
    }

    #[test]
    fn full_pipeline_on_grid() {
        let a = gen::grid2d(10, 10, 0.5, ValueModel::default());
        check(&a, FactorOptions::default(), 1e-7);
    }

    #[test]
    fn full_pipeline_on_random() {
        let a = gen::random_sparse(150, 4, 0.5, ValueModel::default());
        check(&a, FactorOptions::default(), 1e-6);
    }

    #[test]
    fn full_pipeline_with_shifted_diagonal() {
        // exercises the transversal
        let a = gen::shift_rows(&gen::grid2d(8, 8, 0.3, ValueModel::default()), 5);
        check(&a, FactorOptions::default(), 1e-7);
    }

    #[test]
    fn orderings_all_work() {
        let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
        for ordering in [
            ColumnOrdering::Natural,
            ColumnOrdering::MinDegreeAtA,
            ColumnOrdering::ReverseCuthillMcKee,
        ] {
            check(
                &a,
                FactorOptions {
                    ordering,
                    ..FactorOptions::default()
                },
                1e-7,
            );
        }
    }

    #[test]
    fn mindeg_reduces_static_fill_vs_natural() {
        let a = gen::grid2d(12, 12, 0.3, ValueModel::default());
        let s_nat = SparseLuSolver::analyze(
            &a,
            FactorOptions {
                ordering: ColumnOrdering::Natural,
                ..FactorOptions::default()
            },
        );
        let s_md = SparseLuSolver::analyze(&a, FactorOptions::default());
        assert!(
            s_md.static_factor_nnz() < s_nat.static_factor_nnz(),
            "min degree {} vs natural {}",
            s_md.static_factor_nnz(),
            s_nat.static_factor_nnz()
        );
    }

    #[test]
    fn refactor_same_pattern_reuses_analysis() {
        let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        // same pattern, fresh values: refactor must solve the new system
        let a2 = gen::perturb_values(&a, 99);
        let lu2 = solver.refactor(&a2).unwrap();
        let n = a2.ncols();
        let xt: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.5 - 2.0).collect();
        let b = a2.matvec(&xt);
        let x = lu2.solve(&b);
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-7, "refactor solve error {err}");
        // a different pattern is rejected with a typed error
        let other = gen::grid2d(7, 9, 0.4, ValueModel::default());
        assert!(matches!(
            solver.refactor(&other),
            Err(SolverError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn warmed_refactor_is_allocation_free() {
        let a = gen::grid2d(10, 10, 0.4, ValueModel::default());
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        let mut scratch = FactorScratch::new();
        // first factorization warms the arena up to the pattern's
        // high-water shapes
        let lu1 = solver.refactor_with(&a, &mut scratch).unwrap();
        assert!(lu1.stats.scratch_peak_bytes > 0);
        // every subsequent refactorization with the same arena must not
        // grow any buffer — the numeric hot path is allocation-free
        for seed in [3, 17] {
            let a2 = gen::perturb_values(&a, seed);
            let lu2 = solver.refactor_with(&a2, &mut scratch).unwrap();
            assert_eq!(
                lu2.stats.scratch_grow_events, 0,
                "warmed refactorization grew scratch buffers"
            );
            assert_eq!(lu2.stats.scratch_peak_bytes, lu1.stats.scratch_peak_bytes);
            // every numeric update reuses a precomputed scatter map —
            // nothing is merged (or allocated) symbolically at refactor time
            assert_eq!(
                lu2.stats.scatter_map_reuse_hits,
                lu2.stats.update_tasks as u64
            );
            let n = a2.ncols();
            let xt: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
            let b = a2.matvec(&xt);
            let x = lu2.solve(&b);
            let err = x
                .iter()
                .zip(&xt)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(err < 1e-7, "scratched refactor solve error {err}");
        }
    }

    #[test]
    fn refactor_with_equilibration_rescales_per_matrix() {
        let a = gen::grid2d(7, 7, 0.5, ValueModel::default());
        let opts = FactorOptions {
            equilibrate: true,
            ..FactorOptions::default()
        };
        let solver = SparseLuSolver::analyze(&a, opts);
        let a2 = gen::perturb_values(&a, 5);
        let lu2 = solver.refactor(&a2).unwrap();
        let n = a2.ncols();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let b = a2.matvec(&xt);
        let x = lu2.solve(&b);
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-7, "equilibrated refactor error {err}");
    }

    #[test]
    fn solve_many_matches_repeated_single_solves() {
        let a = gen::random_sparse(80, 4, 0.5, ValueModel::default());
        let opts = FactorOptions {
            equilibrate: true, // exercise the scaling path too
            ..FactorOptions::default()
        };
        let lu = SparseLuSolver::analyze(&a, opts).factor().unwrap();
        let n = a.ncols();
        let nrhs = 4;
        let b: Vec<f64> = (0..n * nrhs)
            .map(|i| ((i % 17) as f64) * 0.3 - 2.1)
            .collect();
        let xs = lu.solve_many(&b, nrhs).unwrap();
        for c in 0..nrhs {
            let x1 = lu.solve(&b[c * n..(c + 1) * n]);
            for i in 0..n {
                let d = (xs[c * n + i] - x1[i]).abs();
                assert!(d < 1e-8, "rhs {c} row {i}: diverge by {d}");
            }
        }
    }

    #[test]
    fn solve_reports_dimension_mismatch() {
        let a = gen::grid2d(5, 5, 0.4, ValueModel::default());
        let lu = SparseLuSolver::analyze(&a, FactorOptions::default())
            .factor()
            .unwrap();
        let mut ws = SolveWorkspace::default();
        let short = vec![1.0; 7];
        let mut x = vec![0.0; a.ncols()];
        assert!(matches!(
            lu.solve_with(&short, &mut x, &mut ws),
            Err(SolverError::DimensionMismatch {
                expected: 25,
                got: 7
            })
        ));
        assert!(lu.solve_many_with(&short, 2, &mut x, &mut ws).is_err());
        assert!(lu.storage_bytes() > 0);
    }

    #[test]
    fn factor_reusable_for_multiple_rhs() {
        let a = gen::grid2d(7, 7, 0.4, ValueModel::default());
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        let f = solver.factor().unwrap();
        for s in 0..3 {
            let n = a.ncols();
            let xt: Vec<f64> = (0..n).map(|i| ((i + s) as f64).cos()).collect();
            let b = a.matvec(&xt);
            let x = f.solve(&b);
            let err = x
                .iter()
                .zip(&xt)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(err < 1e-8);
        }
    }
}
