//! The 2D engine's traffic on the reference report is pinned.
//!
//! `splu analyze sherman5 --procs 4` (the record `results/ANALYZE_sherman5_2x2`)
//! runs `factor_par2d` on a 2 × 2 grid at lookahead `W = 1` over the
//! default analysis of sherman5. The messages and bytes it sends depend
//! only on the pattern, the grid, the window and the message protocol, not
//! on timing, so this test fixes both counts: a change of the protocol or
//! of the ranks' storage layout that moves them shows here, and the
//! committed record must be regenerated with it.

use sstar::core::par2d::{factor_par2d_with, Par2dOptions};
use sstar::prelude::*;

#[test]
fn sherman5_2x2_sends_the_pinned_traffic() {
    let a = sstar::sparse::suite::by_name("sherman5").unwrap().build();
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let opts = Par2dOptions {
        window: 1,
        ..Par2dOptions::default()
    };
    let grid = Grid::new(2, 2);
    let r = factor_par2d_with(&solver.permuted, solver.pattern.clone(), grid, &opts).unwrap();
    assert_eq!(r.comm, (12_100, 13_014_840), "(messages, bytes)");
}
