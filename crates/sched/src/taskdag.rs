//! Elimination-tree task-DAG plan for the discrete-event model.
//!
//! The stage pipeline ([`crate::lookahead`]) factors block columns in
//! index order, so two columns in *disjoint elimination subtrees* — with
//! no dependency path between them — still serialize behind one another.
//! This module builds a tree-aware plan and replays it on the simulator
//! (the modeled large tier of `bench-lu`); no thread-machine driver
//! executes it:
//!
//! 1. **Cut** ([`plan_taskdag`]): the block elimination tree
//!    ([`splu_symbolic::block_etree`]) is split by the Geist–Ng
//!    proportional rule — expand every subtree heavier than
//!    `total/nprocs` into its children — yielding independent *subtree
//!    tasks* below an upward-closed *separator*.
//! 2. **Map**: subtrees get a contiguous proportional mapping — the
//!    frontier, in index order, is cut into `nprocs` runs of roughly equal
//!    cost.
//! 3. **Simulate** ([`taskdag_sim_schedule`]): subtree tasks run on their
//!    owning rank, separator tasks block-cyclically, in elimination-tree
//!    postorder — a linear extension of the update DAG, so the
//!    simulator's deadlock check re-verifies the plan for every concrete
//!    graph.

use crate::sim::Schedule;
use crate::taskgraph::{TaskGraph, TaskKind};
use splu_symbolic::etree::{postorder, NO_PARENT};

/// A tree-aware execution plan for one factorization.
#[derive(Debug, Clone)]
pub struct TaskDagPlan {
    /// Flat processor count the plan was built for (`p_r · p_c`).
    pub nprocs: usize,
    /// Per block column: owning rank for subtree columns, `u32::MAX` for
    /// block-cyclic separator columns.
    pub col_owner: Vec<u32>,
    /// Per block column: subtree id, `u32::MAX` on the separator.
    pub subtree_of: Vec<u32>,
    /// Stage execution order (elimination-tree postorder): a linear
    /// extension of the update DAG shared by every grid column.
    pub stage_order: Vec<usize>,
    /// Number of independent subtree tasks below the separator.
    pub nsubtrees: usize,
    /// Fraction of modeled flops inside proportional-mapped subtrees
    /// (parts per million, so the plan stays `Eq`-friendly).
    pub subtree_work_ppm: u32,
}

impl TaskDagPlan {
    /// All-cyclic plan in identity stage order: the stage-sequential
    /// engine expressed in plan form (the "before" comparator of the
    /// modeling experiments, and the fallback when no tree is supplied).
    pub fn cyclic(nblocks: usize, nprocs: usize) -> Self {
        Self {
            nprocs,
            col_owner: vec![u32::MAX; nblocks],
            subtree_of: vec![u32::MAX; nblocks],
            stage_order: (0..nblocks).collect(),
            nsubtrees: 0,
            subtree_work_ppm: 0,
        }
    }

    /// Is column `j` owned by a single rank (subtree column)?
    pub fn is_subtree(&self, j: usize) -> bool {
        self.col_owner[j] != u32::MAX
    }
}

/// Per-block work estimate: raw flop counts of the tasks owned by each
/// block (model-independent, so plans are machine-agnostic).
fn block_weights(g: &TaskGraph) -> Vec<u64> {
    let mut w = vec![0u64; g.nblocks];
    for (t, &(b2, b3)) in g.flops.iter().enumerate() {
        w[g.owner_block[t] as usize] += b2 + b3;
    }
    w
}

/// Build the tree-aware plan: Geist–Ng proportional cut, then a
/// contiguous proportional mapping of the subtrees.
pub fn plan_taskdag(g: &TaskGraph, parent: &[usize], nprocs: usize) -> TaskDagPlan {
    let nb = g.nblocks;
    assert_eq!(parent.len(), nb);
    assert!(nprocs >= 1);
    let weight = block_weights(g);
    let cost = splu_symbolic::subtree_costs(parent, &weight);
    let total: u64 = weight.iter().sum();

    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut frontier: Vec<usize> = Vec::new();
    for v in 0..nb {
        match parent[v] {
            NO_PARENT => frontier.push(v),
            p => children[p].push(v),
        }
    }
    // Geist–Ng: expand any frontier subtree heavier than the
    // proportional share. Single-proc plans keep whole trees (cap =
    // total): everything is a subtree and the factorization is local.
    let cap = (total / nprocs as u64).max(1);
    let mut i = 0;
    while i < frontier.len() {
        let v = frontier[i];
        if cost[v] > cap && !children[v].is_empty() {
            // v joins the separator; its children join the frontier
            frontier.swap_remove(i);
            frontier.extend(children[v].iter().copied());
        } else {
            // light enough, or a heavy leaf with nothing left to split
            i += 1;
        }
    }
    frontier.sort_unstable();

    // Contiguous proportional mapping over the frontier order — subtree
    // `s` goes to the processor whose share of the cumulative cost holds
    // its midpoint — materialized per column by walking each subtree.
    let sub_total: u64 = frontier.iter().map(|&v| cost[v]).sum();
    let mut cum = 0u64;
    let mut col_owner = vec![u32::MAX; nb];
    let mut subtree_of = vec![u32::MAX; nb];
    let mut sub_work = 0u64;
    let mut stack: Vec<usize> = Vec::new();
    for (s, &root) in frontier.iter().enumerate() {
        let owner = ((cum + cost[root] / 2) * nprocs as u64)
            .checked_div(sub_total)
            .map_or(s % nprocs, |p| p.min(nprocs as u64 - 1) as usize);
        cum += cost[root];
        stack.push(root);
        while let Some(v) = stack.pop() {
            col_owner[v] = owner as u32;
            subtree_of[v] = s as u32;
            sub_work += weight[v];
            stack.extend(children[v].iter().copied());
        }
    }

    TaskDagPlan {
        nprocs,
        col_owner,
        subtree_of,
        stage_order: postorder(parent),
        nsubtrees: frontier.len(),
        subtree_work_ppm: if total == 0 {
            0
        } else {
            ((sub_work as u128 * 1_000_000) / total as u128) as u32
        },
    }
}

/// Map the plan onto the discrete-event simulator: subtree tasks run on
/// their owning rank; separator factors on `(j mod p_r, j mod p_c)` and
/// separator updates on `(k mod p_r, j mod p_c)` (the row owning the
/// source panel inside the destination's grid column). Per-processor
/// order is the global (stage postorder, ascending source) order
/// filtered to the processor — [`crate::sim::simulate`] panics if that
/// order could deadlock, which doubles as a plan validity check.
pub fn taskdag_sim_schedule(g: &TaskGraph, plan: &TaskDagPlan, pr: usize, pc: usize) -> Schedule {
    let nprocs = pr * pc;
    assert_eq!(plan.nprocs, nprocs);
    let rank_of = |r: usize, c: usize| (r * pc + c) as u32;
    let mut proc_of = vec![0u32; g.len()];
    // tasks of each destination stage: updates ascending k, then factor
    let mut stage_tasks: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.nblocks];
    for (t, task) in g.tasks.iter().enumerate() {
        match *task {
            TaskKind::Factor(j) => {
                let ju = j as usize;
                proc_of[t] = match plan.col_owner[ju] {
                    u32::MAX => rank_of(ju % pr, ju % pc),
                    owner => owner,
                };
                stage_tasks[ju].push((u32::MAX, t as u32)); // factor sorts last
            }
            TaskKind::Update(k, j) => {
                let ju = j as usize;
                proc_of[t] = match plan.col_owner[ju] {
                    u32::MAX => rank_of(k as usize % pr, ju % pc),
                    owner => owner,
                };
                stage_tasks[ju].push((k, t as u32));
            }
        }
    }
    let mut order: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    for &j in &plan.stage_order {
        stage_tasks[j].sort_unstable();
        for &(_, t) in &stage_tasks[j] {
            order[proc_of[t as usize] as usize].push(t);
        }
    }
    Schedule { proc_of, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{
        amalgamate, block_etree, partition_supernodes, static_symbolic_factorization, BlockPattern,
    };
    use std::sync::Arc;

    fn setup(a: &splu_sparse::CscMatrix, bs: usize) -> (TaskGraph, Vec<usize>) {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bs);
        let part = amalgamate(&s, &base, 4, bs);
        let bp = Arc::new(BlockPattern::build_structural(&s, &part));
        let parent = block_etree(&bp);
        (TaskGraph::build(&bp), parent)
    }

    fn tree_matrix() -> splu_sparse::CscMatrix {
        // bordered block-diagonal: real subtree parallelism
        gen::hier_circuit(8, 120, 10, 3, 0.9, ValueModel::default())
    }

    #[test]
    fn plan_separator_is_upward_closed_and_subtrees_single_owner() {
        let (g, parent) = setup(&tree_matrix(), 8);
        for nprocs in [1usize, 2, 4, 6] {
            let plan = plan_taskdag(&g, &parent, nprocs);
            assert_eq!(plan.nprocs, nprocs);
            for v in 0..g.nblocks {
                if plan.subtree_of[v] == u32::MAX {
                    // separator: parent (if any) must be separator too
                    if parent[v] != NO_PARENT {
                        assert_eq!(plan.subtree_of[parent[v]], u32::MAX);
                    }
                    assert_eq!(plan.col_owner[v], u32::MAX);
                } else {
                    assert!((plan.col_owner[v] as usize) < nprocs);
                    // same subtree ⇒ same owner
                    if parent[v] != NO_PARENT && plan.subtree_of[parent[v]] != u32::MAX {
                        assert_eq!(plan.subtree_of[parent[v]], plan.subtree_of[v]);
                        assert_eq!(plan.col_owner[parent[v]], plan.col_owner[v]);
                    }
                }
            }
            // every update into a subtree column comes from the same subtree
            for t in &g.tasks {
                if let TaskKind::Update(k, j) = *t {
                    let (k, j) = (k as usize, j as usize);
                    if plan.is_subtree(j) {
                        assert_eq!(
                            plan.subtree_of[k], plan.subtree_of[j],
                            "cross-subtree update ({k},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_proc_plan_is_fully_local() {
        let (g, parent) = setup(&tree_matrix(), 8);
        let plan = plan_taskdag(&g, &parent, 1);
        assert!(plan.col_owner.iter().all(|&o| o == 0));
    }

    #[test]
    fn multi_proc_plan_finds_parallel_subtrees() {
        let (g, parent) = setup(&tree_matrix(), 8);
        let plan = plan_taskdag(&g, &parent, 4);
        assert!(plan.nsubtrees >= 4, "only {} subtrees", plan.nsubtrees);
        assert!(
            plan.subtree_work_ppm > 500_000,
            "subtree work only {} ppm",
            plan.subtree_work_ppm
        );
        // subtrees actually spread across ranks
        let mut used = [false; 4];
        for &o in &plan.col_owner {
            if o != u32::MAX {
                used[o as usize] = true;
            }
        }
        assert!(used.iter().all(|&u| u), "some rank got no subtree work");
    }

    #[test]
    fn postorder_keeps_sources_before_destinations() {
        let (g, parent) = setup(&tree_matrix(), 8);
        let plan = plan_taskdag(&g, &parent, 4);
        let mut pos = vec![0usize; g.nblocks];
        for (p, &j) in plan.stage_order.iter().enumerate() {
            pos[j] = p;
        }
        for t in &g.tasks {
            if let TaskKind::Update(k, j) = *t {
                assert!(
                    pos[k as usize] < pos[j as usize],
                    "stage order not a linear extension at ({k},{j})"
                );
            }
        }
    }

    #[test]
    fn sim_single_proc_equals_total_work_and_grids_speed_up() {
        let (g, parent) = setup(&tree_matrix(), 8);
        let model = splu_machine::T3E;
        let p1 = plan_taskdag(&g, &parent, 1);
        let s1 = taskdag_sim_schedule(&g, &p1, 1, 1);
        let r1 = crate::sim::simulate(&g, &s1, &model);
        assert!((r1.makespan - g.total_work(&model)).abs() < 1e-9 * r1.makespan.max(1.0));
        let p4 = plan_taskdag(&g, &parent, 4);
        let s4 = taskdag_sim_schedule(&g, &p4, 2, 2);
        let r4 = crate::sim::simulate(&g, &s4, &model); // also proves no deadlock
        assert!(
            r4.makespan < r1.makespan,
            "2×2 task-DAG ({}) not faster than serial ({})",
            r4.makespan,
            r1.makespan
        );
        // and the tree-aware plan beats the all-cyclic stage pipeline
        let cyc = TaskDagPlan::cyclic(g.nblocks, 4);
        let sc = taskdag_sim_schedule(&g, &cyc, 2, 2);
        let rc = crate::sim::simulate(&g, &sc, &model);
        assert!(
            r4.makespan < rc.makespan,
            "task-DAG ({}) not faster than cyclic pipeline ({})",
            r4.makespan,
            rc.makespan
        );
    }
}
