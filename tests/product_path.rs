//! The one factor entry point: `SparseLuSolver::{factor, factor_with,
//! refactor_with}` run the 2D stage engine on a `1 × P` grid when the core
//! budget allows and the pattern clears the crossover, and the sequential
//! code otherwise. Either path must give bitwise the same factors, pivots
//! and flop counts, a warmed parallel refactorization must allocate
//! nothing, and a singular matrix must come back as a typed error, never
//! as a panic or a hang.

use sstar::core::pipeline::parallel_grid;
use sstar::core::{FactorScratch, FactorizedLu, SolverError};
use sstar::load::workload::{tenant_matrix, LoadConfig, Tenant, TenantClass};
use sstar::prelude::*;
use sstar::sparse::gen::{self, ValueModel};
use sstar::sparse::suite;
use std::sync::mpsc;
use std::time::Duration;

/// Far beyond the run time of any call below, in a debug build.
const DEADLINE: Duration = Duration::from_secs(300);

fn analyze(a: &CscMatrix, cores: usize) -> SparseLuSolver {
    SparseLuSolver::analyze(
        a,
        FactorOptions {
            cores,
            ..FactorOptions::default()
        },
    )
}

/// The grid the solver's factor entry point runs on.
fn grid_of(solver: &SparseLuSolver) -> Option<Grid> {
    parallel_grid(&solver.pattern, solver.options.cores)
}

fn suite_matrix(name: &str) -> CscMatrix {
    suite::by_name(name).expect("suite matrix").build()
}

/// Every stored value and every pivot equal, bit for bit, and the
/// counts that describe the work equal.
fn assert_same(label: &str, p: &FactorizedLu, s: &FactorizedLu) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(p.pivots, s.pivots, "{label}: pivots");
    assert_eq!(p.blocks.cols.len(), s.blocks.cols.len(), "{label}");
    for (k, (x, y)) in p.blocks.cols.iter().zip(&s.blocks.cols).enumerate() {
        assert_eq!(bits(&x.diag), bits(&y.diag), "{label}: diagonal {k}");
        assert_eq!(bits(&x.lpanel), bits(&y.lpanel), "{label}: L panel {k}");
        assert_eq!(x.ublocks.len(), y.ublocks.len(), "{label}: U blocks {k}");
        for (u, v) in x.ublocks.iter().zip(&y.ublocks) {
            assert_eq!(bits(&u.panel), bits(&v.panel), "{label}: U panel of {k}");
        }
    }
    let (a, b) = (&p.stats, &s.stats);
    assert_eq!(a.gemm_flops, b.gemm_flops, "{label}: gemm_flops");
    assert_eq!(a.other_flops, b.other_flops, "{label}: other_flops");
    assert_eq!(
        a.update_gemm_calls, b.update_gemm_calls,
        "{label}: update_gemm_calls"
    );
    assert_eq!(
        a.row_interchanges, b.row_interchanges,
        "{label}: row_interchanges"
    );
}

/// Run `f` on its own thread; panic if it neither returns nor panics
/// within [`DEADLINE`] (the hung thread is left behind).
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("no result within {DEADLINE:?}"),
        r => {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
            r.expect("a worker that returned has sent its result")
        }
    }
}

#[test]
fn the_crossover_depends_on_the_pattern_and_the_budget() {
    let two = Some(Grid { pr: 1, pc: 2 });
    // the solver service's cold-start tenants: the one the benchmark
    // factors directly and the largest the load generator draws (87×87)
    let direct = tenant_matrix(
        &Tenant {
            id: 0,
            class: TenantClass::ColdStart,
            seed: 0xc01d,
        },
        1,
        &LoadConfig::default(),
    );
    let largest = gen::grid2d(
        87,
        87,
        0.4,
        ValueModel {
            diag_scale: 1.0,
            seed: 5,
        },
    );
    let cases = [
        ("serve_churn direct tenant", direct, None),
        ("87x87 cold-start tenant", largest, None),
        ("jpwh991", suite_matrix("jpwh991"), None),
        ("sherman5", suite_matrix("sherman5"), None),
        ("sherman3", suite_matrix("sherman3"), None),
        ("hiergrid50k", suite_matrix("hiergrid50k"), None),
        ("goodwin", suite_matrix("goodwin"), two),
    ];
    for (label, a, grid) in cases {
        let solver = analyze(&a, 2);
        assert_eq!(grid_of(&solver), grid, "{label} at a budget of 2");
        assert_eq!(
            parallel_grid(&solver.pattern, 1),
            None,
            "{label}: a budget of 1 runs seq"
        );
        // the crossover was measured at P = 2 only: a larger budget
        // still runs 1x2
        assert_eq!(
            parallel_grid(&solver.pattern, 8),
            grid,
            "{label} at a budget of 8"
        );
    }
}

#[test]
fn parallel_factorizations_are_bitwise_the_sequential_ones() {
    // the cheapest suite matrix above the crossover (1.8e9 flops)
    let a = suite_matrix("goodwin");
    let seq = analyze(&a, 1);
    let par = analyze(&a, 2);
    assert_eq!(grid_of(&seq), None);
    assert_eq!(grid_of(&par), Some(Grid { pr: 1, pc: 2 }));

    let s = seq.factor().expect("nonsingular");
    let p = par.factor().expect("nonsingular");
    assert_same("factor", &p, &s);
    // only the 2D engine defers updates behind the factor frontier
    assert_eq!(s.stats.deferred_updates, 0);
    assert!(p.stats.deferred_updates > 0, "the 1x2 grid did not run");

    let mut scratch = FactorScratch::new();
    let p = par.factor_with(&mut scratch).expect("nonsingular");
    assert_same("factor_with", &p, &s);

    // refactorization on new values with the warmed arena: the sequential
    // code's factors, with no schedule rebuilt and no buffer grown
    let a2 = gen::perturb_values(&a, 17);
    let s = seq.refactor(&a2).expect("nonsingular");
    let p = par.refactor_with(&a2, &mut scratch).expect("nonsingular");
    assert_same("warmed refactor_with", &p, &s);
    assert_eq!(
        p.stats.scratch_grow_events, 0,
        "warmed parallel refactorization grew scratch buffers"
    );
}

#[test]
fn singular_input_above_the_crossover_is_a_typed_error() {
    let a = suite_matrix("goodwin");
    let par = analyze(&a, 2);
    assert!(grid_of(&par).is_some());
    // zero every stored value of the column eliminated a quarter of the
    // way through: same pattern, so the analysis applies, and no pivot
    // there
    let c = par.col_perm.old_of_new(a.ncols() / 4);
    let cp = a.col_ptr();
    let mut values = a.values().to_vec();
    values[cp[c]..cp[c + 1]].fill(0.0);
    let singular = CscMatrix::from_parts(
        a.nrows(),
        a.ncols(),
        cp.to_vec(),
        a.row_indices().to_vec(),
        values,
    );
    let expected = analyze(&a, 1).refactor(&singular).err();
    assert!(
        matches!(expected, Some(SolverError::ZeroPivot { .. })),
        "{expected:?}"
    );
    let got = with_watchdog(move || {
        let mut scratch = FactorScratch::new();
        let fresh = par.refactor(&singular).err();
        // a warmed arena fails the same way, and stays usable after it
        par.refactor_with(&a, &mut scratch).expect("nonsingular");
        let warmed = par.refactor_with(&singular, &mut scratch).err();
        let again = par.refactor_with(&a, &mut scratch).map(|_| ());
        (fresh, warmed, again)
    });
    assert_eq!(got, (expected, expected, Ok(())));
}
