//! BLAS-1 vector kernels.
//!
//! These are the element-wise workhorses of `Factor(k)`: pivot search
//! ([`idamax`]), column scaling ([`dscal`]), and the row interchange
//! ([`dswap`]) used by delayed pivoting.

use crate::flops::{self, Level};

/// `y += alpha * x`.
#[inline]
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    flops::add(Level::L1, 2 * x.len() as u64);
}

/// `x *= alpha`.
#[inline]
pub fn dscal(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
    flops::add(Level::L1, x.len() as u64);
}

/// Dot product `xᵀ y`.
#[inline]
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    flops::add(Level::L1, 2 * x.len() as u64);
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Copy `x` into `y`.
#[inline]
pub fn dcopy(x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    y.copy_from_slice(x);
}

/// Swap the contents of `x` and `y`.
#[inline]
pub fn dswap(x: &mut [f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        std::mem::swap(a, b);
    }
}

/// Index of the element of maximum absolute value, with ties broken toward
/// the *smallest* index.
///
/// The deterministic tie-break makes the whole factorization pipeline
/// bitwise-reproducible, which the parallel correctness tests rely on.
/// Returns `None` for an empty slice.
#[inline]
pub fn idamax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_abs = x[0].abs();
    for (i, &v) in x.iter().enumerate().skip(1) {
        let a = v.abs();
        if a > best_abs {
            best = i;
            best_abs = a;
        }
    }
    Some(best)
}

/// Euclidean norm `||x||₂` with basic overflow-avoiding scaling.
pub fn dnrm2(x: &[f64]) -> f64 {
    let scale = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if scale == 0.0 {
        return 0.0;
    }
    flops::add(Level::L1, 2 * x.len() as u64);
    let ssq: f64 = x.iter().map(|&v| (v / scale) * (v / scale)).sum();
    scale * ssq.sqrt()
}

/// Sum of absolute values `||x||₁`.
pub fn dasum(x: &[f64]) -> f64 {
    flops::add(Level::L1, x.len() as u64);
    x.iter().map(|v| v.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daxpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        daxpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn daxpy_zero_alpha_is_noop() {
        let x = [1.0, 2.0];
        let mut y = [5.0, 6.0];
        daxpy(0.0, &x, &mut y);
        assert_eq!(y, [5.0, 6.0]);
    }

    #[test]
    fn dscal_basic() {
        let mut x = [1.0, -2.0, 4.0];
        dscal(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
    }

    #[test]
    fn ddot_basic() {
        assert_eq!(ddot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(ddot(&[], &[]), 0.0);
    }

    #[test]
    fn dswap_exchanges() {
        let mut x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        dswap(&mut x, &mut y);
        assert_eq!(x, [3.0, 4.0]);
        assert_eq!(y, [1.0, 2.0]);
    }

    #[test]
    fn idamax_picks_max_magnitude() {
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(idamax(&[0.0, 0.0]), Some(0));
        assert_eq!(idamax(&[]), None);
    }

    #[test]
    fn idamax_tie_break_smallest_index() {
        assert_eq!(idamax(&[2.0, -2.0, 2.0]), Some(0));
        assert_eq!(idamax(&[-1.0, 3.0, -3.0]), Some(1));
    }

    #[test]
    fn dnrm2_pythagorean() {
        assert!((dnrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dnrm2(&[0.0, 0.0]), 0.0);
        // overflow-avoidance: huge values
        let big = 1e200;
        assert!((dnrm2(&[big, big]) - big * std::f64::consts::SQRT_2).abs() / big < 1e-12);
    }

    #[test]
    fn dasum_basic() {
        assert_eq!(dasum(&[1.0, -2.0, 3.0]), 6.0);
    }
}
