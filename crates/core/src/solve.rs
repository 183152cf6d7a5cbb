//! Triangular solvers over the factored block storage.
//!
//! The factorization stores `L` with *trailing-only* row interchanges
//! (delayed pivoting): the multipliers of column `m` stay in the storage
//! slots they were computed in. Solving `A x = b` therefore *replays* the
//! elimination on the right-hand side — interchange, then eliminate, in
//! the original step order — followed by an ordinary back substitution
//! with `U`. This is exactly the paper's `L y = P b`, `U x = y` pair
//! (§2), expressed in slot coordinates.
//!
//! One blocked supernodal sweep serves every `A x = b` solve, for one
//! right-hand side or many: per block, one TRSM with the diagonal block
//! and one DGEMM per off-diagonal panel, run in place on the right-hand
//! side rows (leading dimension `n`). At one right-hand side the DGEMMs
//! take the kernel's axpy path, so each panel is streamed once,
//! contiguously. The kernels credit these solves' flops to the BLAS-3
//! counters. The transpose solve `Aᵀ x = b` is a column sweep of its own.

use crate::storage::BlockMatrix;
use splu_kernels::{dgemm, dtrsm_left_lower_unit, dtrsm_left_upper};

/// Reusable buffer for the blocked solves (no allocation per solve once
/// warm).
#[derive(Default)]
pub struct MultiSolveScratch {
    /// Product/gather buffer (L-panel products, U-column gathers).
    work: Vec<f64>,
}

/// Solve `A x = b` given the factored storage and pivot sequences, where
/// `A` is the matrix that was scattered into `m` before factorization:
/// the one-right-hand-side call of [`solve_factored_multi`].
pub fn solve_factored(m: &BlockMatrix, pivots: &[Vec<u32>], b: &[f64]) -> Vec<f64> {
    solve_factored_multi(m, pivots, b, 1)
}

/// Blocked forward elimination for `nrhs` right-hand sides stored
/// column-major in `y` (`y[c * n + i]` = component `i` of RHS `c`):
/// replays the recorded pivoting/elimination steps in place (computes
/// `y ← L⁻¹ P y`).
///
/// Because `Factor(k)` swaps *full rows within its column block* (LAPACK
/// panel semantics, Fig. 7 line 04), the stored panel L holds post-swap
/// multipliers: the correct replay applies all of a block's interchanges
/// to `y` first, then the block's eliminations — exactly like LAPACK's
/// `getrs` does per panel. The eliminations are one unit-lower TRSM on
/// the block's rows of every RHS and one DGEMM with the packed L panel,
/// scatter-subtracted at the panel's global rows.
pub fn forward_eliminate_multi(
    m: &BlockMatrix,
    pivots: &[Vec<u32>],
    y: &mut [f64],
    nrhs: usize,
    scratch: &mut MultiSolveScratch,
) {
    let n = m.n;
    assert_eq!(y.len(), n * nrhs);
    let nb = m.pattern.nblocks();
    for k in 0..nb {
        let cb = &m.cols[k];
        let lo = cb.lo as usize;
        let w = cb.w as usize;
        let nl = cb.lrows.len();
        // 1. the block's interchanges, applied to every RHS column
        for (t, &piv) in pivots[k].iter().enumerate() {
            let row = lo + t;
            if piv as usize != row {
                for c in 0..nrhs {
                    y.swap(c * n + row, c * n + piv as usize);
                }
            }
        }
        // 2. the unit-lower diagonal factor, on the block's rows in place
        dtrsm_left_lower_unit(w, nrhs, &cb.diag, w, &mut y[lo..], n);
        // 3. propagate through the packed L panel with one DGEMM, then
        //    scatter-subtract at the panel's global rows
        if nl > 0 {
            scratch.work.resize(nl * nrhs, 0.0);
            dgemm(
                nl,
                nrhs,
                w,
                1.0,
                &cb.lpanel,
                nl,
                &y[lo..],
                n,
                0.0,
                &mut scratch.work,
                nl,
            );
            for c in 0..nrhs {
                let prod = &scratch.work[c * nl..(c + 1) * nl];
                let ycol = &mut y[c * n..(c + 1) * n];
                for (p, &g) in cb.lrows.iter().enumerate() {
                    ycol[g as usize] -= prod[p];
                }
            }
        }
    }
}

/// Blocked back substitution for `nrhs` right-hand sides stored
/// column-major in `y`: per row block (last to first), the off-block `U`
/// contributions are one DGEMM per U block against the already-final
/// solution rows, and the diagonal block is one non-unit upper TRSM, both
/// on the block's rows in place.
///
/// # Panics
/// Panics if a diagonal entry of `U` is exactly zero.
pub fn back_substitute_multi(
    m: &BlockMatrix,
    y: &mut [f64],
    nrhs: usize,
    scratch: &mut MultiSolveScratch,
) {
    let n = m.n;
    assert_eq!(y.len(), n * nrhs);
    let nb = m.pattern.nblocks();
    for k in (0..nb).rev() {
        let lo = m.pattern.part.start(k);
        let w = m.pattern.part.width(k);
        // off-block U: rows of block k against final x values from blocks
        // right of k
        for up in &m.pattern.u_blocks[k] {
            let j = up.j as usize;
            let cb = &m.cols[j];
            let ub_idx = cb
                .ublocks
                .binary_search_by_key(&(k as u32), |u| u.k)
                .expect("pattern/storage mismatch");
            let ub = &cb.ublocks[ub_idx];
            let h = ub.h as usize;
            let nc = ub.cols.len();
            if nc == 0 {
                continue;
            }
            // gather the solution rows at the U block's global columns
            // (an nc × nrhs panel), then rows -= panel · gathered
            scratch.work.clear();
            for c in 0..nrhs {
                let ycol = &y[c * n..(c + 1) * n];
                scratch
                    .work
                    .extend(ub.cols.iter().map(|&gc| ycol[gc as usize]));
            }
            dgemm(
                w,
                nrhs,
                nc,
                -1.0,
                &ub.panel,
                h,
                &scratch.work,
                nc,
                1.0,
                &mut y[lo..],
                n,
            );
        }
        // in-block: non-unit upper solve on the block's rows
        let cb = &m.cols[k];
        dtrsm_left_upper(w, nrhs, &cb.diag, w, &mut y[lo..], n);
    }
}

/// In-place batched solve of `nrhs` systems: `y` enters holding the
/// right-hand sides column-major and leaves holding the solutions.
pub fn solve_factored_multi_in_place(
    m: &BlockMatrix,
    pivots: &[Vec<u32>],
    y: &mut [f64],
    nrhs: usize,
    scratch: &mut MultiSolveScratch,
) {
    forward_eliminate_multi(m, pivots, y, nrhs, scratch);
    back_substitute_multi(m, y, nrhs, scratch);
}

/// Batched solve: `b` holds `nrhs` right-hand sides column-major
/// (`b[c * n + i]` = component `i` of RHS `c`); returns the solutions in
/// the same layout.
pub fn solve_factored_multi(
    m: &BlockMatrix,
    pivots: &[Vec<u32>],
    b: &[f64],
    nrhs: usize,
) -> Vec<f64> {
    let mut y = b.to_vec();
    let mut scratch = MultiSolveScratch::default();
    solve_factored_multi_in_place(m, pivots, &mut y, nrhs, &mut scratch);
    y
}

/// Forward substitution with `Uᵀ` (a lower-triangular solve): computes
/// `y ← U⁻ᵀ y` in place, reading `U`'s columns from the block storage.
///
/// Per column block, each `U` block above the diagonal is applied once —
/// its rows of `y` are already final, so every stored column subtracts
/// one contiguous dot product with them — and then the in-block
/// transposed triangle is solved. Each column sees its subtractions in
/// the same order as a column-by-column sweep.
///
/// # Panics
/// Panics if a diagonal entry is exactly zero.
pub fn forward_substitute_ut(m: &BlockMatrix, y: &mut [f64]) {
    assert_eq!(y.len(), m.n);
    let nb = m.pattern.nblocks();
    for jb in 0..nb {
        let cb = &m.cols[jb];
        let lo = cb.lo as usize;
        let w = cb.w as usize;
        // entries of U above the diagonal block: rows of earlier blocks
        let (done, ycols) = y.split_at_mut(lo);
        for ub in &cb.ublocks {
            let h = ub.h as usize;
            let yk = &done[ub.lo_k as usize..ub.lo_k as usize + h];
            for (panel_col, &gc) in ub.panel.chunks_exact(h).zip(ub.cols.iter()) {
                let yc = &mut ycols[gc as usize - lo];
                let mut s = *yc;
                for (&v, &yr) in panel_col.iter().zip(yk) {
                    s -= v * yr;
                }
                *yc = s;
            }
        }
        // in-block entries above the diagonal
        for t in 0..w {
            let mut s = ycols[t];
            for r in 0..t {
                s -= cb.diag[r + t * w] * ycols[r];
            }
            let d = cb.diag[t + t * w];
            assert!(d != 0.0, "zero U diagonal at column {}", lo + t);
            ycols[t] = s / d;
        }
    }
}

/// Backward pass with `L̂ᵀ` and the reversed interchanges: computes
/// `y ← Mᵀ y` where `M` is the interleaved swap/eliminate operator the
/// forward elimination applies (so `solve_factored_transpose` below solves
/// `Bᵀ z = c` for the factored matrix `B`). Per block, from last to
/// first: the transposed unit-lower solve, then the block's interchanges
/// in reverse order.
pub fn backward_eliminate_t(m: &BlockMatrix, pivots: &[Vec<u32>], y: &mut [f64]) {
    assert_eq!(y.len(), m.n);
    let nb = m.pattern.nblocks();
    for k in (0..nb).rev() {
        let cb = &m.cols[k];
        let lo = cb.lo as usize;
        let w = cb.w as usize;
        let nl = cb.lrows.len();
        // transposed eliminations: solve L̂ᵀ within the block, iterating
        // columns (= L̂ᵀ rows) in descending order
        for t in (0..w).rev() {
            let mut s = y[lo + t];
            for r in (t + 1)..w {
                s -= cb.diag[r + t * w] * y[lo + r];
            }
            let lcol = &cb.lpanel[t * nl..(t + 1) * nl];
            for (p, &g) in cb.lrows.iter().enumerate() {
                s -= lcol[p] * y[g as usize];
            }
            y[lo + t] = s;
        }
        // reversed interchanges
        for (t, &piv) in pivots[k].iter().enumerate().rev() {
            let row = lo + t;
            if piv as usize != row {
                y.swap(row, piv as usize);
            }
        }
    }
}

/// Solve `Bᵀ z = c` where `B` is the matrix that was factored into `m`
/// (slot coordinates): `w = U⁻ᵀ c`, then `z = Mᵀ w`.
pub fn solve_factored_transpose(m: &BlockMatrix, pivots: &[Vec<u32>], c: &[f64]) -> Vec<f64> {
    let mut y = c.to_vec();
    solve_factored_transpose_in_place(m, pivots, &mut y);
    y
}

/// In-place [`solve_factored_transpose`]: `y` enters holding `c` and
/// leaves holding `z`. No allocation.
pub fn solve_factored_transpose_in_place(m: &BlockMatrix, pivots: &[Vec<u32>], y: &mut [f64]) {
    forward_substitute_ut(m, y);
    backward_eliminate_t(m, pivots, y);
}

#[cfg(test)]
mod tests {
    use crate::seq::factor_sequential;
    use crate::storage::BlockMatrix;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{
        amalgamate, partition_supernodes, static_symbolic_factorization, BlockPattern,
    };
    use std::sync::Arc;

    fn build(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) -> BlockMatrix {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bsize);
        let part = amalgamate(&s, &base, r, bsize);
        BlockMatrix::from_csc(a, Arc::new(BlockPattern::build(&s, &part)))
    }

    fn roundtrip(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) -> f64 {
        let n = a.ncols();
        let mut m = build(a, r, bsize);
        let (pivots, _) = factor_sequential(&mut m).unwrap();
        let xt: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.3 - 1.5).collect();
        let b = a.matvec(&xt);
        let x = super::solve_factored(&m, &pivots, &b);
        x.iter()
            .zip(&xt)
            .fold(0.0f64, |mx, (a, b)| mx.max((a - b).abs()))
    }

    #[test]
    fn solves_dense() {
        let a = gen::dense_random(25, ValueModel::default());
        assert!(roundtrip(&a, 0, 6) < 1e-8);
    }

    #[test]
    fn solves_sparse_random() {
        for seed in 0..3 {
            let a = gen::random_sparse(
                80,
                3,
                0.5,
                ValueModel {
                    diag_scale: 1.0,
                    seed,
                },
            );
            assert!(roundtrip(&a, 4, 12) < 1e-7, "seed {seed}");
        }
    }

    #[test]
    fn solves_grid_various_block_sizes() {
        let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
        for (r, bs) in [(0, 1), (0, 4), (4, 10), (6, 25)] {
            assert!(roundtrip(&a, r, bs) < 1e-7, "r={r} bs={bs}");
        }
    }

    #[test]
    fn multi_rhs_agrees_with_repeated_single_rhs() {
        let a = gen::grid2d(9, 8, 0.4, ValueModel::default());
        let n = a.ncols();
        let mut m = build(&a, 4, 10);
        let (pivots, _) = factor_sequential(&mut m).unwrap();
        let nrhs = 5;
        let b: Vec<f64> = (0..n * nrhs)
            .map(|i| ((i % 13) as f64) * 0.4 - 2.0)
            .collect();
        let xs = super::solve_factored_multi(&m, &pivots, &b, nrhs);
        let scale = b.iter().fold(1.0f64, |mx, &v| mx.max(v.abs()));
        for c in 0..nrhs {
            let x1 = super::solve_factored(&m, &pivots, &b[c * n..(c + 1) * n]);
            for i in 0..n {
                let d = (xs[c * n + i] - x1[i]).abs();
                assert!(d < 1e-9 * scale, "rhs {c} row {i}: diverge by {d}");
            }
        }
    }

    #[test]
    fn in_place_variants_match_allocating_ones() {
        let a = gen::grid2d(7, 7, 0.5, ValueModel::default());
        let n = a.ncols();
        let mut m = build(&a, 4, 8);
        let (pivots, _) = factor_sequential(&mut m).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 2.5).collect();
        let z = super::solve_factored_transpose(&m, &pivots, &b);
        let mut w = b.clone();
        super::solve_factored_transpose_in_place(&m, &pivots, &mut w);
        assert_eq!(z, w, "in-place transpose solve must be bitwise equal");
    }

    #[test]
    fn transpose_solve_matches_dense_transpose_reference() {
        // `solve_factored_transpose` must solve Aᵀ x = c for the matrix
        // the blocks were built from — checked against a dense GEPP
        // solve of the explicitly transposed system.
        for (case, a) in [
            gen::grid2d(8, 8, 0.5, ValueModel::default()),
            gen::random_sparse(70, 4, 0.5, ValueModel::default()),
        ]
        .iter()
        .enumerate()
        {
            let n = a.ncols();
            let mut m = build(a, 4, 10);
            let (pivots, _) = factor_sequential(&mut m).unwrap();
            let c: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.4 - 1.7).collect();
            let x = super::solve_factored_transpose(&m, &pivots, &c);
            let xd = splu_kernels::dense_solve(&a.to_dense().transpose(), &c).unwrap();
            let err = x
                .iter()
                .zip(&xd)
                .fold(0.0f64, |mx, (p, q)| mx.max((p - q).abs()));
            assert!(err < 1e-7, "case {case}: transpose solve diverges by {err}");
            // And the residual of the transposed system itself is small.
            let r = a.matvec_transpose(&x);
            let res = r
                .iter()
                .zip(&c)
                .fold(0.0f64, |mx, (p, q)| mx.max((p - q).abs()));
            assert!(res < 1e-7, "case {case}: ‖Aᵀx − c‖∞ = {res}");
        }
    }

    #[test]
    fn agrees_with_gp_baseline() {
        let a = gen::grid2d(8, 7, 0.5, ValueModel::default());
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut m = build(&a, 4, 8);
        let (pivots, _) = factor_sequential(&mut m).unwrap();
        let x1 = super::solve_factored(&m, &pivots, &b);
        let f = splu_superlu::gp_factor(&a, 1.0).unwrap();
        let x2 = splu_superlu::gp_solve(&f, &b);
        let err = x1
            .iter()
            .zip(&x2)
            .fold(0.0f64, |mx, (a, b)| mx.max((a - b).abs()));
        assert!(err < 1e-8, "solutions diverge by {err}");
    }
}
