//! Bitwise-identity suite for the supernodal update path.
//!
//! The update stage runs each destination row segment through a
//! shape-chosen kernel — packed GEMM tiles subtracted straight into the
//! destination, or stacked small-shape products scattered afterwards —
//! through the `BlockPattern`'s precomputed maps. That organization must
//! not change a single bit of the factors across drivers: the 2D engine
//! in both synchronization modes, on every tested grid (the 1D code's
//! `1 × P` ones included), is compared entry-for-entry with `f64::to_bits`
//! against the sequential driver on shrunk instances of the full
//! synthetic suite. A warmed-refactorization test additionally proves
//! the path performs zero heap allocations and zero symbolic merges.

use splu_core::par2d::{factor_par2d, factor_par2d_with, Par2dOptions, Sync2d};
use splu_core::seq::factor_sequential;
use splu_core::{BlockMatrix, FactorOptions, FactorScratch, SparseLuSolver};
use splu_machine::Grid;
use splu_sparse::suite;

/// Shrunk suite instances: small enough for debug-mode test runs while
/// still exercising multi-block panels with padded (absent-destination)
/// segments on every matrix class.
fn suite_cases() -> Vec<(&'static str, splu_sparse::CscMatrix)> {
    suite::SMALL
        .iter()
        .map(|&name| {
            let spec = suite::by_name(name).unwrap();
            (name, spec.build_scaled(0.03))
        })
        .collect()
}

fn assert_bitwise_equal(
    seq: &BlockMatrix,
    seq_piv: &[Vec<u32>],
    other: &BlockMatrix,
    other_piv: &[Vec<u32>],
    label: &str,
) {
    assert_eq!(seq_piv, other_piv, "{label}: pivot sequences differ");
    let n = seq.pattern.part.n();
    for j in 0..n {
        for i in 0..n {
            let s = seq.get_entry(i, j);
            let o = other.get_entry(i, j);
            assert_eq!(
                s.to_bits(),
                o.to_bits(),
                "{label}: entry ({i},{j}) differs: seq {s:e} vs {o:e}"
            );
        }
    }
}

/// The parallel driver reproduces the sequential factors bitwise on
/// every suite matrix: par2d on the (1,2), (2,2) and (3,2) grids in both
/// synchronization modes and across the whole lookahead-window range
/// `W ∈ {0, 1, 2, 4}` (0 is the in-order schedule; larger windows must
/// only reorder *independent* work — the per-destination ascending-stage
/// order, and with it every bit of the factors, is invariant), and on
/// the (1,1) grid (one rank holding every block) and the (2,1) grid
/// (pivot exchange across ranks, no cross-column multicast) at
/// `W ∈ {0, 1}`.
#[test]
fn all_drivers_bitwise_identical_across_suite() {
    for (name, a) in suite_cases() {
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        let mut seq = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
        let (seq_piv, seq_stats) = factor_sequential(&mut seq).unwrap();
        assert_eq!(
            seq_stats.scatter_map_reuse_hits, seq_stats.update_tasks as u64,
            "{name}: sequential update performed a fresh merge"
        );

        for (pr, pc) in [(1, 2), (2, 2), (3, 2), (1, 1), (2, 1)] {
            let windows: &[usize] = if pc > 1 { &[0, 1, 2, 4] } else { &[0, 1] };
            assert_par2d_matches_seq(name, &solver, &seq, &seq_piv, Grid::new(pr, pc), windows);
        }
    }
}

/// `factor_par2d_with` on `grid` reproduces `seq` bitwise in both
/// synchronization modes at every lookahead window of `windows`.
fn assert_par2d_matches_seq(
    name: &str,
    solver: &SparseLuSolver,
    seq: &BlockMatrix,
    seq_piv: &[Vec<u32>],
    grid: Grid,
    windows: &[usize],
) {
    for mode in [Sync2d::Async, Sync2d::Barrier] {
        for &w in windows {
            let opts = Par2dOptions {
                mode,
                window: w,
                ..Par2dOptions::default()
            };
            let p2 =
                factor_par2d_with(&solver.permuted, solver.pattern.clone(), grid, &opts).unwrap();
            let (pr, pc) = (grid.pr, grid.pc);
            assert_bitwise_equal(
                seq,
                seq_piv,
                &p2.blocks,
                &p2.pivots,
                &format!("{name}/par2d {pr}x{pc} {mode:?} W={w}"),
            );
        }
    }
}

/// Supernodes wider than the blocked triangular solve's 48-row tile
/// (`splu_kernels::blas3`'s `TB`) keep every driver bitwise identical to
/// seq: par2d on the 1×2, 2×1 and 2×2 grids in both
/// synchronization modes at `W ∈ {0, 1}`. The default cap (32) stays
/// below the tile, so the case takes a cap of 128, which any caller may.
#[test]
fn wide_supernodes_bitwise_identical_across_drivers() {
    const TB: usize = 48;
    // three supernodes wider than TB at this cap, one at it
    let a = suite::by_name("lns3937").unwrap().build_scaled(0.1);
    let opts = FactorOptions {
        block_size: 128,
        ..FactorOptions::default()
    };
    let solver = SparseLuSolver::analyze(&a, opts);
    let part = &solver.pattern.part;
    let widths: Vec<usize> = (0..part.nblocks()).map(|b| part.width(b)).collect();
    assert_eq!(widths.iter().filter(|&&w| w > TB).count(), 3, "{widths:?}");
    assert_eq!(widths.iter().max(), Some(&128));

    let mut seq = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
    let (seq_piv, _) = factor_sequential(&mut seq).unwrap();
    for (pr, pc) in [(1, 2), (2, 1), (2, 2)] {
        assert_par2d_matches_seq("wide", &solver, &seq, &seq_piv, Grid::new(pr, pc), &[0, 1]);
    }
}

/// Per-stage retirement keeps the 2D panel caches bounded: the resident
/// high-water mark must undercut the cumulative inserted volume (what an
/// evict-never cache would approach), and the caches must drain fully.
#[test]
fn par2d_panel_caches_are_bounded_and_drained() {
    let spec = suite::by_name("sherman5").unwrap();
    let a = spec.build_scaled(0.06);
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let p2 = factor_par2d(
        &solver.permuted,
        solver.pattern.clone(),
        Grid::new(2, 2),
        Sync2d::Async,
    );
    let peak: u64 = p2.panel_cache_peak_bytes.iter().sum();
    let inserted: u64 = p2.panel_cache_inserted_bytes.iter().sum();
    assert!(inserted > 0, "no panels ever crossed the grid");
    assert!(
        peak < inserted,
        "stage retirement never dropped a byte: peak {peak} >= inserted {inserted}"
    );
    for (r, (&p, &i)) in p2
        .panel_cache_peak_bytes
        .iter()
        .zip(&p2.panel_cache_inserted_bytes)
        .enumerate()
    {
        assert!(p <= i, "rank {r}: peak {p} exceeds inserted {i}");
    }
}

/// Warmed refactorization over a suite matrix: after one warm-up run the
/// scratch arena never grows, and every update task reads a precomputed
/// scatter map (zero symbolic merges at numeric time).
#[test]
fn warmed_suite_refactor_is_allocation_and_merge_free() {
    let spec = suite::by_name("jpwh991").unwrap();
    let a = spec.build_scaled(0.06);
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let mut scratch = FactorScratch::new();
    let warm = solver.refactor_with(&a, &mut scratch).unwrap();
    let lu = solver.refactor_with(&a, &mut scratch).unwrap();
    assert_eq!(lu.stats.scratch_grow_events, 0, "warmed refactor allocated");
    assert_eq!(lu.stats.scratch_peak_bytes, warm.stats.scratch_peak_bytes);
    assert!(lu.stats.update_tasks > 0);
    assert_eq!(
        lu.stats.scatter_map_reuse_hits, lu.stats.update_tasks as u64,
        "an update task fell back to a fresh symbolic merge"
    );
}
