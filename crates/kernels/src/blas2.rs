//! BLAS-2 matrix–vector kernels (column-major, explicit leading dimension).
//!
//! `DGEMV` is what SuperLU spends 78–98 % of its floating-point operations
//! in; S\* instead routes most work through `DGEMM` ([`crate::blas3`]), but
//! still needs BLAS-2 for single dense subcolumn updates and the panel
//! factorization's rank-1 updates ([`dger`]).

use crate::flops::{self, Level};

/// `y = alpha * A * x + beta * y` where `A` is `m × n`, column-major with
/// leading dimension `lda`.
///
/// # Panics
/// Debug-asserts the slice lengths are consistent with `m`, `n`, `lda`.
#[allow(clippy::too_many_arguments)] // BLAS reference signature
pub fn dgemv(
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    debug_assert!(lda >= m.max(1));
    debug_assert!(a.len() >= if n == 0 { 0 } else { (n - 1) * lda + m });
    debug_assert!(x.len() >= n);
    debug_assert!(y.len() >= m);
    if beta != 1.0 {
        if beta == 0.0 {
            y[..m].fill(0.0);
        } else {
            for yi in &mut y[..m] {
                *yi *= beta;
            }
        }
    }
    if alpha == 0.0 || m == 0 {
        return;
    }
    for j in 0..n {
        let axj = alpha * x[j];
        if axj != 0.0 {
            let col = &a[j * lda..j * lda + m];
            for (yi, &aij) in y[..m].iter_mut().zip(col) {
                *yi += aij * axj;
            }
        }
    }
    flops::add(Level::L2, (2 * m * n) as u64);
}

/// Rank-1 update `A += alpha * x * yᵀ` where `A` is `m × n`, column-major
/// with leading dimension `lda`.
pub fn dger(m: usize, n: usize, alpha: f64, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
    debug_assert!(lda >= m.max(1));
    debug_assert!(x.len() >= m);
    debug_assert!(y.len() >= n);
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        let ayj = alpha * y[j];
        if ayj != 0.0 {
            let col = &mut a[j * lda..j * lda + m];
            for (aij, &xi) in col.iter_mut().zip(x) {
                *aij += xi * ayj;
            }
        }
    }
    flops::add(Level::L2, (2 * m * n) as u64);
}

/// Solve `L x = b` in place (`x` enters as `b`), where `L` is the unit lower
/// triangle of the `n × n` panel `l` (column-major, leading dimension `lda`).
/// The strict upper part and diagonal of `l` are not referenced.
pub fn dtrsv_lower_unit(n: usize, l: &[f64], lda: usize, x: &mut [f64]) {
    debug_assert!(lda >= n.max(1));
    debug_assert!(x.len() >= n);
    for k in 0..n {
        let xk = x[k];
        if xk != 0.0 {
            let col = &l[k * lda..k * lda + n];
            for i in (k + 1)..n {
                x[i] -= col[i] * xk;
            }
        }
    }
    flops::add(Level::L2, (n * n) as u64);
}

/// Solve `U x = b` in place (`x` enters as `b`), where `U` is the non-unit
/// upper triangle of the `n × n` panel `u` (column-major, leading dimension
/// `lda`). The strict lower part of `u` is not referenced.
///
/// # Panics
/// Panics if a diagonal entry is exactly zero (singular system).
pub fn dtrsv_upper(n: usize, u: &[f64], lda: usize, x: &mut [f64]) {
    debug_assert!(lda >= n.max(1));
    debug_assert!(x.len() >= n);
    for k in (0..n).rev() {
        let diag = u[k * lda + k];
        assert!(diag != 0.0, "dtrsv_upper: zero diagonal at {k}");
        x[k] /= diag;
        let xk = x[k];
        if xk != 0.0 {
            let col = &u[k * lda..k * lda + k];
            for i in 0..k {
                x[i] -= col[i] * xk;
            }
        }
    }
    flops::add(Level::L2, (n * n) as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DenseMat;

    #[test]
    fn dgemv_matches_oracle() {
        let a = DenseMat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let x = vec![1.0, 0.5, -1.0];
        let mut y = vec![10.0, 20.0];
        // y = 2*A*x + 1*y
        dgemv(2, 3, 2.0, a.as_slice(), 2, &x, 1.0, &mut y);
        let ax = a.matvec(&x);
        assert_eq!(y, vec![10.0 + 2.0 * ax[0], 20.0 + 2.0 * ax[1]]);
    }

    #[test]
    fn dgemv_beta_zero_overwrites_garbage() {
        let a = DenseMat::identity(3);
        let x = vec![7.0, 8.0, 9.0];
        let mut y = vec![f64::NAN, f64::NAN, f64::NAN];
        dgemv(3, 3, 1.0, a.as_slice(), 3, &x, 0.0, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn dgemv_respects_lda_subpanel() {
        // 4x4 storage, operate on the top-left 2x2.
        let a = DenseMat::from_fn(4, 4, |i, j| (i + 10 * j) as f64);
        let x = vec![1.0, 1.0];
        let mut y = vec![0.0, 0.0];
        dgemv(2, 2, 1.0, a.as_slice(), 4, &x, 0.0, &mut y);
        assert_eq!(y, vec![a[(0, 0)] + a[(0, 1)], a[(1, 0)] + a[(1, 1)]]);
    }

    #[test]
    fn dger_rank1() {
        let mut a = DenseMat::zeros(2, 3);
        let lda = a.lda();
        dger(
            2,
            3,
            2.0,
            &[1.0, 2.0],
            &[3.0, 4.0, 5.0],
            a.as_mut_slice(),
            lda,
        );
        assert_eq!(a[(0, 0)], 6.0);
        assert_eq!(a[(1, 2)], 20.0);
    }

    #[test]
    fn trsv_lower_unit_solves() {
        // L = [[1,0],[0.5,1]]; b = [2, 3] -> x = [2, 2]
        let l = DenseMat::from_rows(&[vec![1.0, 0.0], vec![0.5, 1.0]]);
        let mut x = vec![2.0, 3.0];
        dtrsv_lower_unit(2, l.as_slice(), 2, &mut x);
        assert_eq!(x, vec![2.0, 2.0]);
    }

    #[test]
    fn trsv_lower_unit_ignores_upper_and_diag() {
        // garbage in diagonal/upper must not matter
        let l = DenseMat::from_rows(&[vec![99.0, 42.0], vec![0.5, -7.0]]);
        let mut x = vec![2.0, 3.0];
        dtrsv_lower_unit(2, l.as_slice(), 2, &mut x);
        assert_eq!(x, vec![2.0, 2.0]);
    }

    #[test]
    fn trsv_upper_solves() {
        // U = [[2,1],[0,4]]; b = [4, 8] -> x2 = 2, x1 = (4-2)/2 = 1
        let u = DenseMat::from_rows(&[vec![2.0, 1.0], vec![0.0, 4.0]]);
        let mut x = vec![4.0, 8.0];
        dtrsv_upper(2, u.as_slice(), 2, &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn trsv_upper_zero_diag_panics() {
        let u = DenseMat::zeros(2, 2);
        let mut x = vec![1.0, 1.0];
        dtrsv_upper(2, u.as_slice(), 2, &mut x);
    }
}
