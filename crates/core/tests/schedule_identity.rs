//! Op-list identity: the 2D executor's operation lists are pinned by hash.
//!
//! `lookahead_schedule` reads each column's update sources and each
//! stage's destinations from `BlockPattern::u_blocks`. For sherman5 and
//! goodwin under the library's default analysis, this test hashes every
//! grid column's operation list (each op's kind and every field, in list
//! order) on `1 × 2`, `2 × 1` and `2 × 2` grids at `W ∈ {0, 1, 2}`. The
//! pinned digests were recorded from the same hash over
//! `splu_sched::lookahead_schedule(&TaskGraph::build(..))`, the builder
//! that read the update tasks from the discrete-event model's task graph
//! before it moved here, so the move changed no list. A deliberate change
//! of the schedule prints the actual digest to copy over the pinned one.

use splu_core::lookahead::{lookahead_schedule, Op2d};
use splu_core::{FactorOptions, SparseLuSolver};
use splu_sparse::fingerprint::Fnv1a;
use splu_sparse::suite;

/// `(matrix, (p_r, p_c), W, digest of every grid column's list)`.
const PINNED: &[(&str, (usize, usize), usize, u64)] = &[
    ("sherman5", (1, 2), 0, 0xfadba501f2b4534c),
    ("sherman5", (1, 2), 1, 0x252047d0320aed51),
    ("sherman5", (1, 2), 2, 0x44ea21ad72b82b21),
    ("sherman5", (2, 1), 0, 0x50bbf51794dad610),
    ("sherman5", (2, 1), 1, 0x1b2c33818dd6b825),
    ("sherman5", (2, 1), 2, 0x00d57a782366ff59),
    ("sherman5", (2, 2), 0, 0xfadba501f2b4534c),
    ("sherman5", (2, 2), 1, 0x252047d0320aed51),
    ("sherman5", (2, 2), 2, 0x44ea21ad72b82b21),
    ("goodwin", (1, 2), 0, 0x04384f1a033fda1b),
    ("goodwin", (1, 2), 1, 0x911719ae37b03ceb),
    ("goodwin", (1, 2), 2, 0x341ceb03ec528dae),
    ("goodwin", (2, 1), 0, 0x6c0e650738b8a232),
    ("goodwin", (2, 1), 1, 0xdc85572725fc8c82),
    ("goodwin", (2, 1), 2, 0xb77f6bb474a873f7),
    ("goodwin", (2, 2), 0, 0x04384f1a033fda1b),
    ("goodwin", (2, 2), 1, 0x911719ae37b03ceb),
    ("goodwin", (2, 2), 2, 0x341ceb03ec528dae),
];

fn hash_ops(h: &mut Fnv1a, ops: &[Op2d]) {
    for op in ops {
        let words: [u64; 6] = match *op {
            Op2d::Factor { k, nsrcs } => [0, k as u64, nsrcs as u64, 0, 0, 0],
            Op2d::Swap { k, j, seq } => [1, k as u64, j as u64, seq as u64, 0, 0],
            Op2d::Trsm { k, j } => [2, k as u64, j as u64, 0, 0, 0],
            Op2d::Update {
                k,
                j,
                seq,
                deferred,
                depth,
            } => [
                3,
                k as u64,
                j as u64,
                seq as u64,
                deferred as u64,
                depth as u64,
            ],
            Op2d::Retire { k } => [4, k as u64, 0, 0, 0, 0],
        };
        for w in words {
            h.write_u64(w);
        }
    }
    h.write_u64(ops.len() as u64);
}

#[test]
fn op_lists_are_pinned() {
    let mut moved = Vec::new();
    for name in ["sherman5", "goodwin"] {
        let a = suite::by_name(name).expect("suite matrix").build();
        let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
        for &(_, (pr, pc), w, pinned) in PINNED.iter().filter(|c| c.0 == name) {
            let mut h = Fnv1a::new();
            for cno in 0..pc {
                hash_ops(&mut h, &lookahead_schedule(&solver.pattern, pc, cno, w));
            }
            if h.finish() != pinned {
                moved.push(format!(
                    "(\"{name}\", ({pr}, {pc}), {w}, {:#018x}),",
                    h.finish()
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "op lists moved; actual digests:\n{}",
        moved.join("\n")
    );
}
