//! Iterative refinement and solution-quality diagnostics.
//!
//! The paper stops at the factorization (§2: "the triangular solvers are
//! much less time consuming"); a production solver also wants the
//! standard GEPP accuracy machinery:
//!
//! * [`refine`] — fixed-precision iterative refinement: with a backward-
//!   stable factorization, at most one or two steps of `r = b − A x`,
//!   `A δ = r`, `x ← x + δ` typically drive the backward error to the
//!   unit roundoff, where it stops;
//! * [`SolveQuality`] — residual norms and the pivot-growth factor
//!   `max|U| / max|A|`, the classical stability indicator for partial
//!   pivoting.

use crate::pipeline::{FactorizedLu, SolveWorkspace};
use splu_sparse::CscMatrix;

/// Quality metrics of a computed solution.
#[derive(Debug, Clone, Copy)]
pub struct SolveQuality {
    /// `‖b − A x‖∞`.
    pub residual_inf: f64,
    /// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)` — the normwise relative
    /// backward error (≈ machine epsilon for a stable solve).
    pub backward_error: f64,
    /// Refinement steps performed.
    pub steps: usize,
}

/// Compute `b − A x` (test oracle; the refinement loop itself uses
/// [`residual_into`]).
#[cfg(test)]
fn residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> Vec<f64> {
    let mut r = vec![0.0; b.len()];
    residual_into(a, x, b, &mut r);
    r
}

/// `r ← b − A x` without allocating.
fn residual_into(a: &CscMatrix, x: &[f64], b: &[f64], r: &mut [f64]) {
    a.matvec_into(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// Solve `A x = b` with iterative refinement: repeat
/// `x ← x + A⁻¹(b − A x)` while the backward error is above the unit
/// roundoff `u = ε/2`, each step at least halves the residual (LAPACK
/// `xGERFS`'s stopping rule), and fewer than `max_steps` steps were
/// taken. A step that does not reduce the residual is discarded. Returns
/// the refined solution and its quality.
pub fn refine(
    lu: &FactorizedLu,
    a: &CscMatrix,
    b: &[f64],
    max_steps: usize,
) -> (Vec<f64>, SolveQuality) {
    // All buffers are allocated once up front; the refinement loop itself
    // is allocation-free (workspace-reusing solves, in-place residuals).
    let n = b.len();
    let mut ws = SolveWorkspace::default();
    let mut x = vec![0.0; n];
    lu.solve_with(b, &mut x, &mut ws).expect("rhs length");
    let norm_a = a.norm_inf();
    let norm_b = inf_norm(b);
    let backward_error = |r: f64, x: &[f64]| {
        let denom = norm_a * inf_norm(x) + norm_b;
        if denom > 0.0 {
            r / denom
        } else {
            0.0
        }
    };
    let mut steps = 0usize;
    let mut r = vec![0.0; n];
    residual_into(a, &x, b, &mut r);
    let mut best = inf_norm(&r);
    let mut dx = vec![0.0; n];
    let mut xn = vec![0.0; n];
    let mut rn = vec![0.0; n];
    while steps < max_steps && best > 0.0 && backward_error(best, &x) > f64::EPSILON / 2.0 {
        lu.solve_with(&r, &mut dx, &mut ws).expect("rhs length");
        for i in 0..n {
            xn[i] = x[i] + dx[i];
        }
        residual_into(a, &xn, b, &mut rn);
        let rn_norm = inf_norm(&rn);
        if rn_norm >= best {
            break; // stagnated: keep the previous iterate
        }
        std::mem::swap(&mut x, &mut xn);
        std::mem::swap(&mut r, &mut rn);
        let halved = 2.0 * rn_norm <= best;
        best = rn_norm;
        steps += 1;
        if !halved {
            break;
        }
    }
    let quality = SolveQuality {
        residual_inf: best,
        backward_error: backward_error(best, &x),
        steps,
    };
    (x, quality)
}

/// Pivot growth factor `max_ij |U_ij| / max_ij |A_ij|` of a factorization
/// — bounded by `2^{n-1}` for partial pivoting in theory, small in
/// practice; values ≫ 1 flag potential instability.
pub fn pivot_growth(lu: &FactorizedLu, a: &CscMatrix) -> f64 {
    let n = a.ncols();
    let mut max_u = 0.0f64;
    // U entries live in the diagonal blocks' upper parts and the U panels.
    for cb in &lu.blocks.cols {
        let w = cb.w as usize;
        for c in 0..w {
            for r in 0..=c {
                max_u = max_u.max(cb.diag[r + c * w].abs());
            }
        }
        for ub in &cb.ublocks {
            max_u = ub.panel.iter().fold(max_u, |m, &v| m.max(v.abs()));
        }
    }
    let _ = n;
    max_u / a.max_abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FactorOptions, SparseLuSolver};
    use splu_sparse::gen::{self, ValueModel};

    fn setup(n: usize) -> (CscMatrix, FactorizedLu) {
        let a = gen::grid2d(n, n, 0.5, ValueModel::default());
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        let lu = solver.factor().unwrap();
        (a, lu)
    }

    #[test]
    fn refinement_never_worsens_and_reaches_eps_level() {
        let (a, lu) = setup(12);
        let n = a.ncols();
        let xt: Vec<f64> = (0..n).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.matvec(&xt);
        let plain = lu.solve(&b);
        let r_plain = inf_norm(&residual(&a, &plain, &b));
        let (x, q) = refine(&lu, &a, &b, 3);
        assert!(q.residual_inf <= r_plain * (1.0 + 1e-12));
        assert!(
            q.backward_error < 1e-14,
            "backward error {}",
            q.backward_error
        );
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-9);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let (a, lu) = setup(8);
        let b = vec![0.0; a.ncols()];
        let (x, q) = refine(&lu, &a, &b, 2);
        assert!(inf_norm(&x) == 0.0);
        assert_eq!(q.residual_inf, 0.0);
    }

    #[test]
    fn pivot_growth_is_moderate_on_wellconditioned_input() {
        let (a, lu) = setup(10);
        let g = pivot_growth(&lu, &a);
        // max|U|/max|A| can dip slightly below 1 when the largest |A|
        // entry is eliminated early; anything near-zero or huge is a bug
        assert!(g > 0.1, "growth {g} suspiciously small");
        assert!(g < 1e3, "growth {g} suspiciously large");
    }

    #[test]
    fn quality_reports_steps_taken() {
        let (a, lu) = setup(10);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let (_, q) = refine(&lu, &a, &b, 5);
        assert!(q.steps <= 5);
    }

    #[test]
    fn a_solve_already_at_roundoff_takes_no_step() {
        let (a, lu) = setup(12);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64) - 5.0).collect();
        let plain = lu.solve(&b);
        let r_plain = inf_norm(&residual(&a, &plain, &b));
        let be_plain = r_plain / (a.norm_inf() * inf_norm(&plain) + inf_norm(&b));
        assert!(
            r_plain > 0.0 && be_plain <= f64::EPSILON / 2.0,
            "plain solve's backward error {be_plain:e} is not in (0, u]"
        );
        let (x, q) = refine(&lu, &a, &b, 5);
        assert_eq!(q.steps, 0);
        assert_eq!(q.residual_inf, r_plain);
        assert_eq!(x, plain);
    }

    #[test]
    fn a_step_that_does_not_halve_the_residual_ends_refinement() {
        // refine against 1.7·A with the factors of A: each step keeps 0.7
        // of the residual, so the first step is kept and is the last
        let (a, lu) = setup(10);
        let scaled: Vec<f64> = a.values().iter().map(|v| 1.7 * v).collect();
        let a17 = CscMatrix::from_parts(
            a.nrows(),
            a.ncols(),
            a.col_ptr().to_vec(),
            a.row_indices().to_vec(),
            scaled,
        );
        let b: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.7).sin()).collect();
        let r0 = inf_norm(&residual(&a17, &lu.solve(&b), &b));
        let (_, q) = refine(&lu, &a17, &b, 5);
        assert_eq!(q.steps, 1);
        assert!(
            (q.residual_inf / r0 - 0.7).abs() < 1e-9,
            "{}",
            q.residual_inf / r0
        );
    }
}
