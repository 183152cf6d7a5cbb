//! Threshold pivoting: structural safety and cross-backend equivalence.
//!
//! The static prediction covers *every* pivot sequence drawn from the
//! candidate sets, so threshold pivoting (keep the diagonal when it is
//! within factor `t` of the column maximum) is structurally safe by
//! construction. These tests verify:
//! * the solver stays backward-stable across thresholds,
//! * row movement decreases monotonically as the threshold loosens,
//! * sequential, 1D and 2D executions stay **bitwise identical** at any
//!   threshold (the distributed pivot rule matches the sequential one).

use sstar::core::par2d::{factor_par2d_with, Par2dOptions};
use sstar::core::seq::factor_sequential_with;
use sstar::core::BlockMatrix;
use sstar::core::FactorScratch;
use sstar::prelude::*;
use sstar::probe::Probe;
use sstar::sparse::gen::{self, ValueModel};

#[test]
fn solver_stable_across_thresholds() {
    let a = gen::grid2d(10, 10, 0.5, ValueModel::default());
    let n = a.ncols();
    let xt: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.3 - 1.4).collect();
    let b = a.matvec(&xt);
    for threshold in [1.0, 0.5, 0.1, 0.001] {
        let solver = SparseLuSolver::analyze(
            &a,
            FactorOptions {
                pivot_threshold: threshold,
                ..FactorOptions::default()
            },
        );
        let lu = solver.factor().unwrap();
        let x = lu.solve(&b);
        let r = a
            .matvec(&x)
            .iter()
            .zip(&b)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(
            r < 1e-7 * a.norm_inf(),
            "threshold {threshold}: residual {r}"
        );
    }
}

#[test]
fn looser_threshold_moves_fewer_rows() {
    let a = gen::random_sparse(200, 4, 0.5, ValueModel::default());
    let mut prev = usize::MAX;
    for threshold in [1.0, 0.5, 0.1, 0.01] {
        let solver = SparseLuSolver::analyze(
            &a,
            FactorOptions {
                pivot_threshold: threshold,
                ..FactorOptions::default()
            },
        );
        let lu = solver.factor().unwrap();
        assert!(
            lu.stats.row_interchanges <= prev,
            "threshold {threshold}: {} interchanges, previous {prev}",
            lu.stats.row_interchanges
        );
        prev = lu.stats.row_interchanges;
    }
    assert!(prev < usize::MAX);
}

#[test]
fn backends_bitwise_identical_at_threshold() {
    let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
    let threshold = 0.2;
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let mut seq = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
    let (piv, _) = factor_sequential_with(
        &mut seq,
        threshold,
        &Probe::disabled(),
        &mut FactorScratch::new(),
    )
    .unwrap();

    let opts = Par2dOptions {
        threshold,
        window: 1,
        ..Par2dOptions::default()
    };
    // the 1D code's 1×3 grid and a 2D one
    for (pr, pc) in [(1, 3), (2, 2)] {
        let r = factor_par2d_with(
            &solver.permuted,
            solver.pattern.clone(),
            Grid::new(pr, pc),
            &opts,
        )
        .unwrap();
        assert_eq!(r.pivots, piv, "{pr}x{pc} pivot sequences differ");
        let n = a.ncols();
        for i in 0..n {
            for j in 0..n {
                let s = seq.get_entry(i, j);
                assert!(s == r.blocks.get_entry(i, j), "{pr}x{pc} entry ({i},{j})");
            }
        }
    }
}

#[test]
fn threshold_one_equals_classic() {
    let a = gen::random_sparse(100, 4, 0.6, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let mut m1 = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
    let mut m2 = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
    let (p1, _) = sstar::core::factor_sequential(&mut m1).unwrap();
    let (p2, _) =
        factor_sequential_with(&mut m2, 1.0, &Probe::disabled(), &mut FactorScratch::new())
            .unwrap();
    assert_eq!(p1, p2);
}
