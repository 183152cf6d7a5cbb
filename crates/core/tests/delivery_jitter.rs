//! Adversarial message-ordering suite: the parallel driver must produce
//! bitwise-identical factors on every grid, 1D `1 × P` ones included,
//! when the runtime's delivery-jitter test mode scrambles receive
//! interleaving (`RunOptions::jitter_seed`).
//!
//! The driver's correctness argument is that arithmetic order is fixed
//! by the schedule (the lookahead executor's per-destination
//! ascending-stage chains), never by message arrival. Jitter attacks
//! exactly that assumption: it shuffles each drained mailbox batch and
//! pops a random message among same-tag duplicates, all from a seeded
//! deterministic stream, so a violation reproduces instead of flaking.

use splu_core::par2d::{factor_par2d_with, Par2dOptions, Sync2d};
use splu_core::seq::factor_sequential;
use splu_core::{BlockMatrix, FactorOptions, SparseLuSolver};
use splu_machine::{Grid, RunOptions};
use splu_sparse::suite;

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

#[test]
fn factors_bitwise_identical_under_delivery_jitter() {
    let spec = suite::by_name("sherman5").unwrap();
    let a = spec.build_scaled(0.05);
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let mut seq = BlockMatrix::from_csc(&solver.permuted, solver.pattern.clone());
    let (seq_piv, _) = factor_sequential(&mut seq).unwrap();

    for seed in [1u64, 0xDEAD_BEEF] {
        let run = RunOptions {
            jitter_seed: Some(seed),
            ..RunOptions::default()
        };
        // (1,3): the 1D code's grid; (1,1): one rank holds every block;
        // (2,1): pivot exchange across ranks, no cross-column multicast —
        // the last two at W ∈ {0, 1}
        for (pr, pc) in [(1, 2), (1, 3), (2, 2), (3, 2), (1, 1), (2, 1)] {
            for mode in [Sync2d::Async, Sync2d::Barrier] {
                let windows: &[usize] = if pc > 1 { &[0, 1, 2] } else { &[0, 1] };
                for &w in windows {
                    let opts = Par2dOptions {
                        run,
                        mode,
                        window: w,
                        ..Par2dOptions::default()
                    };
                    let p2 = factor_par2d_with(
                        &solver.permuted,
                        solver.pattern.clone(),
                        Grid::new(pr, pc),
                        &opts,
                    )
                    .unwrap();
                    assert_bitwise_equal(
                        &seq,
                        &seq_piv,
                        &p2.blocks,
                        &p2.pivots,
                        &format!("par2d {pr}x{pc} {mode:?} W={w} seed={seed:#x}"),
                    );
                }
            }
        }
    }
}
