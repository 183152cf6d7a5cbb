//! Cross-backend equivalence: the sequential code and the 2D code (async
//! and barrier, on 1D `1 × P` grids as well as 2D ones) must produce
//! **bitwise-identical** factors and pivot sequences — the strongest
//! possible check that the distributed protocols (delayed pivoting,
//! structure-safe interchanges, pipelined updates) implement exactly the
//! same arithmetic as the specification.

use sstar::core::par2d::{factor_par2d, factor_par2d_with, Par2dOptions, Par2dResult, Sync2d};
use sstar::core::seq::factor_sequential;
use sstar::core::BlockMatrix;
use sstar::prelude::*;
use sstar::sparse::gen::{self, ValueModel};
use sstar::symbolic::BlockPattern;
use std::sync::Arc;

fn setup(a: &sstar::sparse::CscMatrix) -> (Arc<BlockPattern>, BlockMatrix, Vec<Vec<u32>>) {
    let solver = SparseLuSolver::analyze(a, FactorOptions::default());
    let mut seq = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
    let (pivots, _) = factor_sequential(&mut seq).unwrap();
    (solver.pattern.clone(), seq, pivots)
}

fn assert_identical(
    tag: &str,
    n: usize,
    seq: &BlockMatrix,
    seq_piv: &[Vec<u32>],
    got: &BlockMatrix,
    got_piv: &[Vec<u32>],
) {
    assert_eq!(seq_piv, got_piv, "{tag}: pivot sequences differ");
    for i in 0..n {
        for j in 0..n {
            let a = seq.get_entry(i, j);
            let b = got.get_entry(i, j);
            assert!(a == b, "{tag}: entry ({i},{j}) differs: {a} vs {b}");
        }
    }
}

/// The paper's 1D code is the 2D engine on a `1 × P` grid: block-cyclic
/// column mapping, with one-step compute-ahead at `W = 1`.
#[test]
fn one_d_strategies_bitwise_match() {
    let a = gen::grid2d(9, 9, 0.5, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let (_, seq, piv) = setup(&a);
    for p in [1usize, 3, 6] {
        for w in [0usize, 1] {
            let r = factor_stages(&solver, Grid::new(1, p), w);
            let tag = format!("1D 1x{p} W={w}");
            assert_identical(&tag, a.ncols(), &seq, &piv, &r.blocks, &r.pivots);
        }
    }
}

#[test]
fn two_d_grids_bitwise_match() {
    let a = gen::random_sparse(120, 4, 0.5, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let ap = &solver.permuted;
    let (pattern, seq, piv) = setup(&a);
    for (pr, pc) in [(1usize, 2usize), (2, 2), (3, 2), (2, 4)] {
        let r = factor_par2d(ap, pattern.clone(), Grid::new(pr, pc), Sync2d::Async);
        assert_identical(
            &format!("2D-{pr}x{pc}"),
            a.ncols(),
            &seq,
            &piv,
            &r.blocks,
            &r.pivots,
        );
    }
    let r = factor_par2d(ap, pattern, Grid::new(2, 2), Sync2d::Barrier);
    assert_identical("2D-barrier", a.ncols(), &seq, &piv, &r.blocks, &r.pivots);
}

#[test]
fn parallel_factors_solve_correctly() {
    let a = gen::block_fluid(15, 5, 9, 0.3, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let n = a.ncols();
    let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
    let b = a.matvec(&xt);
    // permuted rhs path (solve_factored works in permuted coordinates)
    let pb: Vec<f64> = (0..n).map(|i| b[solver.row_perm.old_of_new(i)]).collect();

    let r = factor_par2d(
        &solver.permuted,
        solver.pattern.clone(),
        Grid::new(2, 3),
        Sync2d::Async,
    );
    let z = sstar::core::solve::solve_factored(&r.blocks, &r.pivots, &pb);
    let x: Vec<f64> = (0..n).map(|j| z[solver.col_perm.new_of_old(j)]).collect();
    let err = x
        .iter()
        .zip(&xt)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    assert!(err < 1e-7, "2D-factored solve error {err}");
}

/// The 2D engine with lookahead window `window`.
fn factor_stages(solver: &SparseLuSolver, grid: Grid, window: usize) -> Par2dResult {
    let opts = Par2dOptions {
        window,
        ..Par2dOptions::default()
    };
    factor_par2d_with(&solver.permuted, solver.pattern.clone(), grid, &opts).unwrap()
}

#[test]
fn theorem2_overlap_bounds_hold_on_thread_backend() {
    // the paper's bounds apply to the in-order schedule (lookahead 0)
    let a = gen::grid2d(10, 10, 0.4, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    for (pr, pc) in [(2usize, 2usize), (2, 3), (3, 2)] {
        let r = factor_stages(&solver, Grid::new(pr, pc), 0);
        assert!(
            r.overlap_degree() as usize <= pc,
            "overlap {} > p_c {} on {pr}x{pc}",
            r.overlap_degree(),
            pc
        );
        for c in 0..pc as u32 {
            assert!(
                r.overlap_degree_within_col(c) as usize <= (pr - 1).min(pc),
                "in-column overlap bound violated on {pr}x{pc}"
            );
        }
    }
}

#[test]
fn window_generalized_overlap_bounds_hold_with_lookahead() {
    // a window of W admits at most W extra unretired stages, relaxing
    // Theorem 2's bounds to p_c + W machine-wide and
    // min(p_r − 1, p_c) + W within a grid column
    let a = gen::grid2d(10, 10, 0.4, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    for (pr, pc) in [(2usize, 2usize), (2, 3), (3, 2)] {
        for w in [1usize, 2, 4] {
            let r = factor_stages(&solver, Grid::new(pr, pc), w);
            assert!(
                r.overlap_degree() as usize <= pc + w,
                "overlap {} > p_c + W = {} on {pr}x{pc}",
                r.overlap_degree(),
                pc + w
            );
            for c in 0..pc as u32 {
                assert!(
                    r.overlap_degree_within_col(c) as usize <= (pr - 1).min(pc) + w,
                    "in-column generalized overlap bound violated on {pr}x{pc} W={w}"
                );
            }
        }
    }
}
