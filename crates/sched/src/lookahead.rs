//! Critical-path lookahead schedule for the *real* 2D driver.
//!
//! The 1D schedules consume the task graph's readiness information through
//! [`crate::graph_sched`]'s list scheduler; this module applies the same
//! readiness discipline (per-destination indegree counters over the
//! [`TaskGraph`]'s `Update(k, j)` dependences) to produce the
//! deterministic operation list that `splu-core::par2d`'s executor
//! replays — the paper's Fig. 10/11 lookahead implemented on the thread
//! machine rather than only in the simulator.
//!
//! The priority policy is two frontiers over elimination stages:
//!
//! * **factor frontier `kf`** — the next pivot block column. All of its
//!   still-pending update chains (`Swap → Trsm → Update`, ascending
//!   source stage) run *first*, then `Factor(kf)` issues immediately
//!   together with its row/column multicasts.
//! * **drain frontier `kd`** — the oldest unretired stage. Its trailing
//!   updates (the ones targeting columns beyond the lookahead window)
//!   drain *behind* the factor frontier, subject to the invariant
//!   `kf − kd ≤ W` re-established after every factorization.
//!
//! `W = 0` reproduces the in-order schedule (each stage fully drains
//! before the next-but-one panel factors — the ablation baseline);
//! `W ≥ 1` lets up to `W + 1` stages be in flight per grid column.
//!
//! Determinism is what makes this deadlock-free: every blocking pairwise
//! or collective exchange of the 2D protocol (pivot candidates, row
//! swaps, the `U`-row multicasts) happens between ranks of one grid
//! column, which own the same block columns and therefore replay the
//! *same* operation list; cross-column traffic is one-directional
//! multicast. Ordering update sources ascending per destination column
//! is also what keeps the factors bitwise identical for every `W`: each
//! block still accumulates its contributions in sequential stage order.

use crate::taskgraph::{TaskGraph, TaskKind};

/// One executor operation for the ranks of a single processor-grid
/// column (the per-column schedules interleave only through multicasts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op2d {
    /// Cooperative panel factorization of block column `k` plus its
    /// pivot-sequence / `L`-panel multicasts. `nsrcs` is the number of
    /// update sources column `k` must have absorbed first — the
    /// executor checks its next-expected-stage counter against it.
    Factor { k: u32, nsrcs: u32 },
    /// Stage-`k` delayed row interchanges in owned column `j`; `seq` is
    /// the source's index in column `j`'s ascending source list (the
    /// next-expected-stage counter value this op requires).
    Swap { k: u32, j: u32, seq: u32 },
    /// TRSM of `U_kj` by `L_kk` plus its column multicast (runs on the
    /// rank owning block row `k`; a no-op elsewhere).
    Trsm { k: u32, j: u32 },
    /// `Update2D(k, j)`: apply stage `k`'s outer product to owned column
    /// `j`. `deferred` marks trailing updates pushed behind at least one
    /// later panel factorization (never a priority-chain link into the
    /// next pivot column); `depth` is the number of stages in flight
    /// (factored or draining, unretired) when the op runs.
    Update {
        k: u32,
        j: u32,
        seq: u32,
        deferred: bool,
        depth: u32,
    },
    /// Stage `k` is fully consumed on this grid column: retire its
    /// cached panels (and synchronize, in barrier mode).
    Retire { k: u32 },
}

/// Build the lookahead operation list for grid column `cno` of a
/// `p_c`-column grid with window `window`. Deterministic in
/// `(graph, pc, cno, window)` only — never in message timing.
pub fn lookahead_schedule(graph: &TaskGraph, pc: usize, cno: usize, window: usize) -> Vec<Op2d> {
    assert!(pc >= 1 && cno < pc);
    let nb = graph.nblocks;
    // Readiness state, as in `graph_sched`'s indegree counters, but
    // specialized to the serialized per-column update chains: column
    // `j`'s sources in ascending stage order, plus a cursor (`next`)
    // that *is* the next-expected-stage counter.
    let mut srcs: Vec<Vec<u32>> = vec![Vec::new(); nb];
    let mut dests: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for t in &graph.tasks {
        if let TaskKind::Update(k, j) = *t {
            srcs[j as usize].push(k);
            dests[k as usize].push(j);
        }
    }
    for s in &mut srcs {
        s.sort_unstable();
    }
    for d in &mut dests {
        d.sort_unstable();
    }
    let owned = |j: usize| j % pc == cno;

    let mut ops: Vec<Op2d> = Vec::new();
    let mut next: Vec<usize> = vec![0; nb];
    // `swapped[j]`: the Swap + Trsm for column `j`'s *current* cursor
    // source were already emitted by a stage batch (`issue`), so the
    // chain link only owes the Update.
    let mut swapped: Vec<bool> = vec![false; nb];
    // Emit the chain link for source `k` of owned column `j` (Swap →
    // Trsm → Update, or just the Update if a stage batch already issued
    // the first two) and advance the column's readiness cursor.
    let chain = |ops: &mut Vec<Op2d>,
                 next: &mut [usize],
                 swapped: &mut [bool],
                 k: usize,
                 j: usize,
                 depth: usize| {
        let seq = next[j] as u32;
        if !swapped[j] {
            ops.push(Op2d::Swap {
                k: k as u32,
                j: j as u32,
                seq,
            });
            ops.push(Op2d::Trsm {
                k: k as u32,
                j: j as u32,
            });
        }
        swapped[j] = false;
        // a chain link *is* the critical path (it feeds the next panel),
        // never deferred work, however many stages are in flight
        ops.push(Op2d::Update {
            k: k as u32,
            j: j as u32,
            seq,
            deferred: false,
            depth: depth as u32,
        });
        next[j] += 1;
    };
    // Stage batching, as the in-order driver's `scale_swap` had: a
    // draining stage first *issues* every pending column's row swaps
    // back-to-back (each is a lockstep pairwise exchange among the grid
    // column's ranks — batching keeps them from convoying behind
    // unequal GEMM times) and then every TRSM, so each `U`-row
    // multicast is in flight before any update or panel factorization
    // can block on one. The stage's trailing GEMM updates *complete*
    // behind the factor frontier. Reordering within the stage is safe
    // for bitwise identity: only the ascending-source order *per
    // destination column* matters, and each column appears at most
    // once per batch.
    let issue = |ops: &mut Vec<Op2d>, next: &[usize], swapped: &mut [bool], s: usize| {
        let pending: Vec<usize> = dests[s]
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| owned(j) && next[j] < srcs[j].len() && srcs[j][next[j]] == s as u32)
            .collect();
        for &j in &pending {
            ops.push(Op2d::Swap {
                k: s as u32,
                j: j as u32,
                seq: next[j] as u32,
            });
        }
        for &j in &pending {
            ops.push(Op2d::Trsm {
                k: s as u32,
                j: j as u32,
            });
            swapped[j] = true;
        }
        pending
    };
    let complete = |ops: &mut Vec<Op2d>,
                    next: &mut [usize],
                    swapped: &mut [bool],
                    s: usize,
                    kf: usize,
                    pending: &[usize]| {
        for &j in pending {
            // a column the factor frontier consumed in between is past
            // the stage already (its Update rode the priority chain)
            if next[j] < srcs[j].len() && srcs[j][next[j]] == s as u32 {
                ops.push(Op2d::Update {
                    k: s as u32,
                    j: j as u32,
                    seq: next[j] as u32,
                    deferred: kf - s > 1,
                    depth: (kf - s) as u32,
                });
                swapped[j] = false;
                next[j] += 1;
            }
        }
        ops.push(Op2d::Retire { k: s as u32 });
    };

    if nb > 0 && owned(0) {
        ops.push(Op2d::Factor { k: 0, nsrcs: 0 });
    }
    let mut kd = 0usize;
    for kf in 1..nb {
        // the stage draining this iteration (at most one: `kf − kd`
        // grows by one per iteration) issues its swap + TRSM batch
        // *before* the factor frontier so its multicasts overlap the
        // priority chain and panel factorization
        let draining = if kf - kd > window {
            Some((kd, issue(&mut ops, &next, &mut swapped, kd)))
        } else {
            None
        };
        if owned(kf) {
            // critical path first: finish the next pivot column's chains
            // and issue its factorization ahead of older trailing work
            while next[kf] < srcs[kf].len() {
                let k = srcs[kf][next[kf]] as usize;
                chain(&mut ops, &mut next, &mut swapped, k, kf, kf - kd);
            }
            ops.push(Op2d::Factor {
                k: kf as u32,
                nsrcs: srcs[kf].len() as u32,
            });
        }
        if let Some((s, pending)) = draining {
            complete(&mut ops, &mut next, &mut swapped, s, kf, &pending);
            kd += 1;
        }
    }
    while kd < nb {
        let pending = issue(&mut ops, &next, &mut swapped, kd);
        complete(&mut ops, &mut next, &mut swapped, kd, nb, &pending);
        kd += 1;
    }
    debug_assert!(swapped.iter().all(|&f| !f));
    debug_assert!((0..nb).all(|j| !owned(j) || next[j] == srcs[j].len()));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{
        amalgamate, partition_supernodes, static_symbolic_factorization, BlockPattern,
    };
    use std::sync::Arc;

    fn graph_for(pc: usize) -> (TaskGraph, usize) {
        let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let base = partition_supernodes(&s, 6);
        let part = amalgamate(&s, &base, 4, 6);
        let pattern = Arc::new(BlockPattern::build(&s, &part));
        (TaskGraph::build(&pattern), pc)
    }

    /// Replay `ops`, checking the executor's invariants: per-column
    /// sources ascend with correct `seq`s, each `(k, j)` link runs
    /// `Swap → Trsm → Update` (possibly interleaved with other links of
    /// the same batched stage, but never spanning a Factor or Retire),
    /// factors only after all their sources, no stage-`k` work after
    /// `Retire(k)`, and retires ascending exactly once each.
    fn replay(ops: &[Op2d], nb: usize, pc: usize, cno: usize) -> (Vec<u32>, u32) {
        let mut applied = vec![0u32; nb];
        // open chain links: (k, j) -> phase (0 = swapped, 1 = trsm'd)
        let mut open: std::collections::BTreeMap<(u32, u32), u32> =
            std::collections::BTreeMap::new();
        let mut retired = vec![false; nb];
        let mut next_retire = 0u32;
        let mut factored = vec![false; nb];
        let mut updates_into: Vec<u32> = vec![0; nb];
        let mut max_depth = 0u32;
        for op in ops {
            match *op {
                Op2d::Factor { k, nsrcs } => {
                    assert!(!factored[k as usize], "Factor({k}) twice");
                    assert_eq!(applied[k as usize], nsrcs, "Factor({k}) before its sources");
                    assert_eq!(updates_into[k as usize], nsrcs);
                    factored[k as usize] = true;
                    // stage batches may span the factor (swaps + TRSMs
                    // issued, updates completing behind it), but only
                    // fully issued: never between a Swap and its Trsm
                    assert!(
                        open.values().all(|&ph| ph == 1),
                        "Factor between a Swap and its Trsm"
                    );
                }
                Op2d::Swap { k, j, seq } => {
                    assert!(!retired[k as usize], "Swap({k},{j}) after Retire({k})");
                    // a source factored on *this* grid column must have its
                    // Factor op earlier in the list; other columns' factors
                    // arrive as multicasts (a runtime dependency, not a
                    // schedule-order one)
                    if k as usize % pc == cno {
                        assert!(factored[k as usize], "Swap({k},{j}) before Factor({k})");
                    }
                    assert_eq!(seq, applied[j as usize], "non-ascending source in col {j}");
                    assert!(open.insert((k, j), 0).is_none(), "Swap({k},{j}) twice");
                }
                Op2d::Trsm { k, j } => {
                    assert_eq!(
                        open.insert((k, j), 1),
                        Some(0),
                        "Trsm({k},{j}) out of chain order"
                    );
                }
                Op2d::Update {
                    k, j, seq, depth, ..
                } => {
                    assert_eq!(
                        open.remove(&(k, j)),
                        Some(1),
                        "Update({k},{j}) out of chain order"
                    );
                    assert_eq!(seq, applied[j as usize]);
                    applied[j as usize] += 1;
                    updates_into[j as usize] += 1;
                    max_depth = max_depth.max(depth);
                    assert!(depth >= 1);
                }
                Op2d::Retire { k } => {
                    assert_eq!(k, next_retire, "retires must ascend");
                    assert!(open.is_empty(), "Retire inside a chain link");
                    retired[k as usize] = true;
                    next_retire += 1;
                }
            }
        }
        assert!(open.is_empty());
        assert_eq!(next_retire as usize, nb, "every stage retired exactly once");
        (applied, max_depth)
    }

    #[test]
    fn invariants_hold_for_all_windows_and_columns() {
        let (g, pc) = graph_for(2);
        for w in [0usize, 1, 2, 4, 100] {
            for cno in 0..pc {
                let ops = lookahead_schedule(&g, pc, cno, w);
                let (applied, max_depth) = replay(&ops, g.nblocks, pc, cno);
                assert!(
                    (max_depth as usize) <= w + 1,
                    "W={w}: pipeline depth {max_depth} exceeds W+1"
                );
                // every owned column consumed its full source list
                for j in 0..g.nblocks {
                    let expect = if j % pc == cno {
                        g.tasks
                            .iter()
                            .filter(|t| matches!(t, TaskKind::Update(_, d) if *d as usize == j))
                            .count() as u32
                    } else {
                        0
                    };
                    assert_eq!(applied[j], expect, "column {j} under W={w}, cno={cno}");
                }
            }
        }
    }

    #[test]
    fn w0_is_the_in_order_schedule() {
        let (g, pc) = graph_for(2);
        for cno in 0..pc {
            let ops = lookahead_schedule(&g, pc, cno, 0);
            // depth 1 everywhere: a stage fully drains before the
            // next-but-one factorization, so nothing is ever deferred
            for op in &ops {
                if let Op2d::Update {
                    deferred, depth, ..
                } = *op
                {
                    assert_eq!(depth, 1);
                    assert!(!deferred);
                }
            }
            // Retire(k) precedes Factor(k + 2): only one stage in flight
            let mut factored_beyond = vec![usize::MAX; g.nblocks];
            for (pos, op) in ops.iter().enumerate() {
                if let Op2d::Factor { k, .. } = *op {
                    factored_beyond[k as usize] = pos;
                }
            }
            let mut retire_pos = vec![usize::MAX; g.nblocks];
            for (pos, op) in ops.iter().enumerate() {
                if let Op2d::Retire { k } = *op {
                    retire_pos[k as usize] = pos;
                }
            }
            for k in 0..g.nblocks.saturating_sub(2) {
                if k + 2 < g.nblocks && factored_beyond[k + 2] != usize::MAX {
                    assert!(
                        retire_pos[k] < factored_beyond[k + 2],
                        "W=0: Factor({}) issued before Retire({k})",
                        k + 2
                    );
                }
            }
        }
    }

    #[test]
    fn lookahead_defers_trailing_updates_past_next_factor() {
        let (g, pc) = graph_for(2);
        for cno in 0..pc {
            let ops = lookahead_schedule(&g, pc, cno, 2);
            let deferred = ops
                .iter()
                .filter(|op| matches!(op, Op2d::Update { deferred: true, .. }))
                .count();
            let depth2 = ops
                .iter()
                .any(|op| matches!(op, Op2d::Update { depth, .. } if *depth >= 2));
            assert!(deferred > 0, "W=2 deferred nothing on column {cno}");
            assert!(depth2, "W=2 never had two stages in flight");
        }
    }

    /// The priority chain into the next pivot column is the critical
    /// path at every window: its links keep their pipeline depth but are
    /// never marked deferred, so the executor charges their operand waits
    /// to the panel. At `W = 1` the chain runs two stages ahead of the
    /// drain frontier; at `W = 2` trailing updates are still deferred.
    #[test]
    fn chain_links_are_never_deferred() {
        let (g, pc) = graph_for(2);
        for cno in 0..pc {
            let ops = lookahead_schedule(&g, pc, cno, 1);
            // a chain link into column `j` is followed only by further
            // links into `j` and then `Factor(j)`; a stage batch's updates
            // end at their `Retire`
            let mut chain_links = 0;
            let mut deep_links = 0;
            for (i, op) in ops.iter().enumerate() {
                if let Op2d::Update {
                    j, deferred, depth, ..
                } = *op
                {
                    let into_j = |o: &&Op2d| match **o {
                        Op2d::Swap { j: d, .. }
                        | Op2d::Trsm { j: d, .. }
                        | Op2d::Update { j: d, .. } => d == j,
                        _ => false,
                    };
                    let after = ops[i + 1..].iter().find(|o| !into_j(o));
                    if matches!(after, Some(Op2d::Factor { k, .. }) if *k == j) {
                        assert!(!deferred, "W=1: chain link into {j} marked deferred");
                        chain_links += 1;
                        deep_links += usize::from(depth >= 2);
                    }
                }
            }
            assert!(chain_links > 0, "W=1 issued no chain links on column {cno}");
            assert!(deep_links > 0, "W=1 chain links never ran two stages deep");
            let deferred = lookahead_schedule(&g, pc, cno, 2)
                .iter()
                .filter(|op| matches!(op, Op2d::Update { deferred: true, .. }))
                .count();
            assert!(deferred > 0, "W=2 deferred nothing on column {cno}");
        }
    }

    #[test]
    fn task_multiset_is_window_invariant() {
        let (g, pc) = graph_for(2);
        let collect = |w: usize, cno: usize| {
            let mut v: Vec<(u32, u32)> = lookahead_schedule(&g, pc, cno, w)
                .iter()
                .filter_map(|op| match op {
                    Op2d::Update { k, j, .. } => Some((*k, *j)),
                    _ => None,
                })
                .collect();
            v.sort_unstable();
            v
        };
        for cno in 0..pc {
            let base = collect(0, cno);
            assert!(!base.is_empty());
            for w in [1usize, 3, 7] {
                assert_eq!(collect(w, cno), base, "update set changed under W={w}");
            }
        }
    }

    #[test]
    fn retire_count_aligns_across_grid_columns() {
        // barrier mode synchronizes at Retire ops: every grid column must
        // emit exactly `nb` of them, in the same stage order
        let (g, _) = graph_for(3);
        let seq = |cno: usize| -> Vec<u32> {
            lookahead_schedule(&g, 3, cno, 1)
                .iter()
                .filter_map(|op| match op {
                    Op2d::Retire { k } => Some(*k),
                    _ => None,
                })
                .collect()
        };
        let r0 = seq(0);
        assert_eq!(r0.len(), g.nblocks);
        for cno in 1..3 {
            assert_eq!(seq(cno), r0);
        }
    }
}
