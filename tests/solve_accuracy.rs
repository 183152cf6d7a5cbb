//! Accuracy contract of the one `A x = b` solve path: every solve — one
//! right-hand side or many, plain or refined — runs the blocked
//! supernodal sweep, and its answers must meet the normwise backward
//! error bound the benchmark checks every solve against, agree with the
//! dense GEPP oracle, and refine to machine precision.

use sstar::core::pipeline::SolveWorkspace;
use sstar::core::refine::refine;
use sstar::prelude::*;
use sstar::sparse::suite;

/// Normwise backward-error bound of a single solve (the bound perfbench
/// checks every solve against).
const BACKWARD_ERROR_BOUND: f64 = 1e-12;

/// Largest order for which the dense oracle is affordable in a debug
/// build.
const DENSE_ORACLE_MAX_N: usize = 1200;

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
fn backward_error(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let r = a
        .matvec(x)
        .iter()
        .zip(b)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
    r / (a.norm_inf() * inf_norm(x) + inf_norm(b))
}

/// `nrhs` right-hand sides, column-major, no two columns alike.
fn rhs(n: usize, nrhs: usize) -> Vec<f64> {
    (0..n * nrhs)
        .map(|i| ((i * 7919 % 1013) as f64) / 97.0 - 5.0)
        .collect()
}

fn factor(a: &CscMatrix) -> FactorizedLu {
    SparseLuSolver::analyze(a, FactorOptions::default())
        .factor()
        .unwrap()
}

#[test]
fn solve_with_is_the_one_rhs_batched_solve() {
    let a = suite::by_name("sherman5").unwrap().build_scaled(0.5);
    let n = a.ncols();
    let lu = factor(&a);
    let b = rhs(n, 1);
    let mut ws = SolveWorkspace::default();
    let (mut x1, mut xm) = (vec![0.0; n], vec![0.0; n]);
    lu.solve_with(&b, &mut x1, &mut ws).unwrap();
    lu.solve_many_with(&b, 1, &mut xm, &mut ws).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&x1),
        bits(&xm),
        "solve_with must be solve_many_with(b, 1)"
    );
    assert_eq!(bits(&lu.solve(&b)), bits(&x1), "allocating solve");
}

#[test]
fn small_suite_solves_meet_the_backward_error_bound() {
    for name in ["sherman5", "jpwh991", "orsreg1", "saylr4"] {
        let a = suite::by_name(name).unwrap().build_scaled(0.5);
        let n = a.ncols();
        let lu = factor(&a);
        let mut ws = SolveWorkspace::default();
        let b = rhs(n, 9);
        let mut x1 = vec![0.0; n];
        lu.solve_with(&b[..n], &mut x1, &mut ws).unwrap();
        let be = backward_error(&a, &x1, &b[..n]);
        assert!(be <= BACKWARD_ERROR_BOUND, "{name}: solve_with {be:e}");
        for nrhs in [1, 3, 8, 9] {
            let bm = &b[..nrhs * n];
            let mut xm = vec![0.0; nrhs * n];
            lu.solve_many_with(bm, nrhs, &mut xm, &mut ws).unwrap();
            for c in 0..nrhs {
                let col = c * n..(c + 1) * n;
                let be = backward_error(&a, &xm[col.clone()], &bm[col]);
                assert!(
                    be <= BACKWARD_ERROR_BOUND,
                    "{name}: nrhs {nrhs} column {c}: {be:e}"
                );
            }
        }
        if n <= DENSE_ORACLE_MAX_N {
            let xd = sstar::kernels::dense_solve(&a.to_dense(), &b[..n]).unwrap();
            let err = x1
                .iter()
                .zip(&xd)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(
                err <= 1e-9 * inf_norm(&xd),
                "{name}: dense oracle disagrees by {err:e}"
            );
        }
    }
}

#[test]
fn refinement_reaches_machine_precision_on_goodwin() {
    let a = suite::by_name("goodwin").unwrap().build_scaled(0.08);
    let lu = factor(&a);
    let b = rhs(a.ncols(), 1);
    let (x, q) = refine(&lu, &a, &b, 5);
    assert!(q.steps <= 2, "refinement took {} steps", q.steps);
    assert!(
        q.backward_error <= 1e-15,
        "refined backward error {:e}",
        q.backward_error
    );
    assert!(backward_error(&a, &x, &b) <= 1e-15);
}
