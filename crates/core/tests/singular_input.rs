//! Singular input through every driver configuration: a matrix with
//! exactly one breakdown column must surface as the same typed
//! `SolverError::ZeroPivot { step }` from the sequential driver and from
//! the 2D engine on a 2D grid and on the 1D code's `1 × 3` grid, in both
//! synchronization modes — never as a panic or a hang. Each case runs
//! under a watchdog so a deadlocked processor grid fails the test instead
//! of stalling the suite.

use splu_core::par2d::{factor_par2d_with, Par2dOptions, Sync2d};
use splu_core::seq::factor_sequential;
use splu_core::{BlockMatrix, FactorOptions, SolverError, SparseLuSolver};
use splu_machine::Grid;
use splu_sparse::{suite, CscMatrix};
use splu_symbolic::BlockPattern;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Far beyond any configuration's run time on these shrunk inputs.
const DEADLINE: Duration = Duration::from_secs(120);

/// `a` with every stored value of column `c` set to zero. The pattern
/// (and with it the static structure) is unchanged, so elimination
/// reaches column `c` and finds no nonzero pivot candidate there.
fn zero_column(a: &CscMatrix, c: usize) -> CscMatrix {
    let cp = a.col_ptr();
    let mut values = a.values().to_vec();
    values[cp[c]..cp[c + 1]].fill(0.0);
    CscMatrix::from_parts(
        a.nrows(),
        a.ncols(),
        cp.to_vec(),
        a.row_indices().to_vec(),
        values,
    )
}

/// Run `f` on its own thread; panic if it neither returns nor panics
/// within [`DEADLINE`] (the hung thread is left behind).
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label}: no result within {DEADLINE:?}"),
        r => {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
            r.expect("a worker that returned has sent its result")
        }
    }
}

type Case = Box<dyn FnOnce(&CscMatrix, Arc<BlockPattern>) -> Result<(), SolverError> + Send>;

fn par2d(grid: Grid, mode: Sync2d, window: usize) -> Case {
    Box::new(move |a, pattern| {
        let opts = Par2dOptions {
            mode,
            window,
            ..Par2dOptions::default()
        };
        factor_par2d_with(a, pattern, grid, &opts).map(drop)
    })
}

#[test]
fn every_driver_reports_the_sequential_zero_pivot() {
    let a = suite::by_name("sherman5").unwrap().build_scaled(0.05);
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let n = solver.permuted.ncols();
    // a column inside the elimination forest and the root column
    for c in [n / 3, n - 1] {
        let singular = Arc::new(zero_column(&solver.permuted, c));
        let pattern = solver.pattern.clone();

        let mut seq = BlockMatrix::from_csc(&singular, pattern.clone());
        let expected = factor_sequential(&mut seq).map(drop);
        assert_eq!(expected, Err(SolverError::ZeroPivot { step: c }), "seq");

        let mut cases: Vec<(String, Case)> = Vec::new();
        for (pr, pc) in [(2, 2), (1, 3)] {
            for mode in [Sync2d::Async, Sync2d::Barrier] {
                for w in [0usize, 1] {
                    let name = format!("par2d {pr}x{pc} {mode:?} W={w}");
                    cases.push((name, par2d(Grid::new(pr, pc), mode, w)));
                }
            }
        }
        for (name, case) in cases {
            let label = format!("column {c}: {name}");
            let (a, p) = (singular.clone(), pattern.clone());
            let got = with_watchdog(&label, move || case(&a, p));
            assert_eq!(got, expected, "{label}");
        }
    }
}
