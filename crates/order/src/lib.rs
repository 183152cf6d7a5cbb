//! `splu-order` — matrix preprocessing orderings for the S\* pipeline.
//!
//! The paper's preprocessing (§3.1) applies, in this sequence:
//!
//! 1. **Duff's maximum transversal** ([`transversal`]) — a row permutation
//!    establishing a structurally zero-free diagonal, a precondition of the
//!    static symbolic factorization (and it "can often help reduce
//!    fill-ins");
//! 2. **Multiple minimum degree on `AᵀA`** ([`mindeg`]) — the column
//!    ordering that keeps the static overestimation ratios reasonable.
//!
//! [`rcm`] (reverse Cuthill–McKee) and the natural ordering are included as
//! ablation baselines, and [`etree`] provides elimination-tree utilities
//! (postorder, level sets) shared by the symbolic and scheduling layers.

pub mod etree;
pub mod mindeg;
pub mod rcm;
pub mod transversal;

pub use mindeg::{min_degree, MinDegreeStats};
pub use rcm::rcm;
pub use transversal::{max_transversal, zero_free_row_perm};

use splu_sparse::pattern::ata_pattern;
use splu_sparse::{CscMatrix, Perm};

/// Column-ordering strategies for the LU pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnOrdering {
    /// Leave columns in their input order.
    Natural,
    /// Minimum degree on the pattern of `AᵀA` (the paper's choice).
    MinDegreeAtA,
    /// Minimum degree on the pattern of `Aᵀ + A` — the remedy the paper
    /// notes for matrices like `memplus`, where the `AᵀA` ordering makes
    /// the static overestimation "too generous" (119× vs 2.34× there).
    MinDegreeAtPlusA,
    /// Reverse Cuthill–McKee on `Aᵀ + A` (bandwidth-reducing baseline).
    ReverseCuthillMcKee,
}

/// Compute a column permutation for `a` under the chosen strategy.
pub fn column_ordering(a: &CscMatrix, strategy: ColumnOrdering) -> Perm {
    match strategy {
        ColumnOrdering::Natural => Perm::identity(a.ncols()),
        ColumnOrdering::MinDegreeAtA => min_degree(&ata_pattern(a)).0,
        ColumnOrdering::MinDegreeAtPlusA => {
            min_degree(&splu_sparse::pattern::at_plus_a_pattern(a)).0
        }
        ColumnOrdering::ReverseCuthillMcKee => rcm(&splu_sparse::pattern::at_plus_a_pattern(a)),
    }
}

/// Full preprocessing as in the paper: row-permute for a zero-free diagonal
/// (Duff transversal), compute the column ordering on the result, and apply
/// it **symmetrically-consistently**: columns by `Q`, rows by the
/// transversal then `Q` as well (so the diagonal stays zero-free).
///
/// Returns `(permuted_matrix, row_perm, col_perm)` with
/// `B[row_perm.new_of_old(i), col_perm.new_of_old(j)] = A[i, j]`.
///
/// # Panics
/// Panics if `a` is not square or is structurally singular
/// ([`try_preprocess`] returns the latter as an error).
pub fn preprocess(a: &CscMatrix, strategy: ColumnOrdering) -> (CscMatrix, Perm, Perm) {
    try_preprocess(a, strategy).unwrap_or_else(|matched| {
        panic!(
            "matrix is structurally singular: a maximum transversal matches {matched} of {} columns",
            a.ncols()
        )
    })
}

/// [`preprocess`], or, when `a` is structurally singular (no zero-free
/// diagonal exists), `Err` with the size of a maximum transversal.
///
/// # Panics
/// Panics if `a` is not square.
pub fn try_preprocess(
    a: &CscMatrix,
    strategy: ColumnOrdering,
) -> Result<(CscMatrix, Perm, Perm), usize> {
    assert_eq!(a.nrows(), a.ncols(), "preprocess needs a square matrix");
    let rp = zero_free_row_perm(a).ok_or_else(|| max_transversal(a).size)?;
    let a1 = a.permute_rows(&rp);
    debug_assert!(a1.has_zero_free_diagonal());
    let q = column_ordering(&a1, strategy);
    // Apply Q to both sides so the zero-free diagonal survives.
    let b = a1.permute(&q, &q);
    debug_assert!(b.has_zero_free_diagonal());
    Ok((b, rp.then(&q), q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};

    #[test]
    fn preprocess_preserves_entries_and_diagonal() {
        let a = gen::random_sparse(80, 4, 0.4, ValueModel::default());
        let (b, rp, cp) = preprocess(&a, ColumnOrdering::MinDegreeAtA);
        assert!(b.has_zero_free_diagonal());
        assert_eq!(b.nnz(), a.nnz());
        for (i, j, v) in a.iter() {
            assert_eq!(b.get(rp.new_of_old(i), cp.new_of_old(j)), v);
        }
    }

    #[test]
    fn preprocess_handles_shifted_diagonal() {
        let a = gen::shift_rows(&gen::grid2d(8, 8, 0.3, ValueModel::default()), 3);
        assert!(!a.has_zero_free_diagonal());
        let (b, _, _) = preprocess(&a, ColumnOrdering::Natural);
        assert!(b.has_zero_free_diagonal());
    }

    #[test]
    fn mindeg_reduces_fill_versus_natural_on_grid() {
        use splu_sparse::pattern::{ata_pattern, cholesky_fill_count};
        let a = gen::grid2d(16, 16, 0.2, ValueModel::default());
        let (nat, _, _) = preprocess(&a, ColumnOrdering::Natural);
        let (md, _, _) = preprocess(&a, ColumnOrdering::MinDegreeAtA);
        let (fill_nat, _) = cholesky_fill_count(&ata_pattern(&nat));
        let (fill_md, _) = cholesky_fill_count(&ata_pattern(&md));
        assert!(
            fill_md < fill_nat,
            "min degree ({fill_md}) should beat natural ({fill_nat}) on a grid"
        );
    }
}
