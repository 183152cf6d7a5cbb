//! Typed errors for the numeric factorization and solve drivers.
//!
//! The static symbolic phase guarantees *structural* safety for every
//! pivot sequence, so the only numeric failure the elimination can hit is
//! a column whose remaining candidates are all exactly zero. The service
//! layer (`splu-solver`) additionally validates request shapes and
//! pattern identity; all of those conditions surface as [`SolverError`]
//! values rather than panics, so a singular or malformed request degrades
//! gracefully instead of poisoning a worker.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Error surfaced by the factorization drivers and the solve entry
/// points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// No nonzero pivot candidate at elimination step `step` (global
    /// column index in the permuted matrix): the matrix is numerically
    /// singular.
    ZeroPivot {
        /// Elimination step (= global column) where the breakdown hit.
        step: usize,
    },
    /// A right-hand side or solution buffer has the wrong length.
    DimensionMismatch {
        /// Length the factorization requires.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// No zero-free diagonal exists: a maximum transversal of the matrix
    /// matches only `matched` of its `n` columns, so no pivot sequence
    /// can factor it, whatever its values.
    StructurallySingular {
        /// Size of a maximum transversal.
        matched: usize,
        /// Matrix order.
        n: usize,
    },
    /// A matrix handed to refactorization does not share the analyzed
    /// sparsity pattern (fingerprints shown).
    PatternMismatch {
        /// Fingerprint of the analyzed pattern.
        expected: u64,
        /// Fingerprint of the offending matrix.
        got: u64,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::ZeroPivot { step } => {
                write!(f, "no nonzero pivot in column {step} (matrix is singular)")
            }
            SolverError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: expected {expected} values, got {got}"
                )
            }
            SolverError::StructurallySingular { matched, n } => write!(
                f,
                "matrix is structurally singular: a maximum transversal \
                 matches {matched} of {n} columns"
            ),
            SolverError::PatternMismatch { expected, got } => write!(
                f,
                "sparsity pattern mismatch: analysis has fingerprint \
                 {expected:#018x}, matrix has {got:#018x}"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

/// Run `f`, converting a panic whose payload is a [`SolverError`] back
/// into `Err`. Any other panic is propagated unchanged.
///
/// The SPMD drivers run inside [`splu_machine::run_machine`]-style thread
/// pools where a worker cannot return early without deadlocking its
/// peers; they report numeric breakdown by panicking with a
/// `SolverError` payload (which also triggers the runtime's poison
/// broadcast, waking blocked peers). This helper is the host-side half of
/// that protocol.
pub fn catch_solver_panic<R>(f: impl FnOnce() -> R) -> Result<R, SolverError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<SolverError>() {
            Ok(e) => Err(*e),
            Err(payload) => std::panic::resume_unwind(payload),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_condition() {
        assert!(SolverError::ZeroPivot { step: 7 }
            .to_string()
            .contains("column 7"));
        assert!(SolverError::DimensionMismatch {
            expected: 10,
            got: 3
        }
        .to_string()
        .contains("expected 10"));
        assert!(SolverError::PatternMismatch {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("fingerprint"));
    }

    #[test]
    fn catch_solver_panic_roundtrips_the_error() {
        let r: Result<(), _> =
            catch_solver_panic(|| std::panic::panic_any(SolverError::ZeroPivot { step: 3 }));
        assert_eq!(r, Err(SolverError::ZeroPivot { step: 3 }));
        assert_eq!(catch_solver_panic(|| 41 + 1), Ok(42));
    }

    #[test]
    fn unrelated_panics_pass_through() {
        let caught = std::panic::catch_unwind(|| {
            let _ = catch_solver_panic(|| panic!("unrelated"));
        });
        assert!(caught.is_err());
    }
}
