//! The sparse LU task dependence graph (§4.1 of the paper).
//!
//! Tasks:
//! * `Factor(k)` for every column block `k`,
//! * `Update(k, j)` for every `k < j` with `U_kj ≠ 0`.
//!
//! Dependences (the four necessary properties plus the serialization
//! property the paper adds for implementation simplicity):
//! 1. `Factor(k) → Update(k, j)` for every `U_kj ≠ 0`;
//! 2. `Update(k', k) → Factor(k)` where `k'` is the **last** update stage
//!    of column block `k` (`k' < k`, `U_{k'k} ≠ 0`, no `Update(t, k)` with
//!    `k' < t < k`);
//! 3. `Update(k, j) → Update(k', j)` where `k'` is the **next** update
//!    stage of column `j` (no commutativity exploited; the paper measures
//!    the loss at ~6 %).
//!
//! Task costs are derived from the block pattern (panel sizes), split into
//! BLAS-2 (panel factorization) and BLAS-3 (TRSM + GEMM) flops so a
//! [`splu_machine::MachineModel`] can price them; each task also carries
//! the message volume its output must travel with (the delayed-pivoting
//! aggregated message: factored column block + pivot sequence).

use splu_symbolic::{factor_task_flops, update_task_flops, BlockPattern};
use std::sync::Arc;

/// Block width at which DGEMM reaches its nameplate rate (the paper's
/// kernel measurements use 25×25 blocks); narrower updates run partly at
/// the BLAS-2 rate.
pub const BLAS3_REF_WIDTH: f64 = 25.0;

/// A task in the sparse LU DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Factorize column block `k`.
    Factor(u32),
    /// Apply column block `k` to column block `j`.
    Update(u32, u32),
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskKind::Factor(k) => write!(f, "F({})", k + 1),
            TaskKind::Update(k, j) => write!(f, "U({},{})", k + 1, j + 1),
        }
    }
}

/// The task graph with costs.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// Task table.
    pub tasks: Vec<TaskKind>,
    /// Successor adjacency.
    pub succs: Vec<Vec<u32>>,
    /// Predecessor adjacency.
    pub preds: Vec<Vec<u32>>,
    /// Per-task (BLAS-2 flops, BLAS-3 flops).
    pub flops: Vec<(u64, u64)>,
    /// Column block each task belongs to under owner-computes (`j` for
    /// `Update(k, j)`, `k` for `Factor(k)`).
    pub owner_block: Vec<u32>,
    /// Words (8-byte) the task's output message carries to successors on
    /// other processors.
    pub msg_words: Vec<u64>,
    /// Number of column blocks.
    pub nblocks: usize,
    /// `factor_task[k]` = task id of `Factor(k)`.
    pub factor_task: Vec<u32>,
}

impl TaskGraph {
    /// Build the DAG from a block pattern.
    pub fn build(pattern: &Arc<BlockPattern>) -> Self {
        let nb = pattern.nblocks();
        let part = &pattern.part;

        let mut tasks: Vec<TaskKind> = Vec::new();
        let mut flops: Vec<(u64, u64)> = Vec::new();
        let mut owner_block: Vec<u32> = Vec::new();
        let mut msg_words: Vec<u64> = Vec::new();
        let mut factor_task: Vec<u32> = vec![0; nb];

        // L panel heights per block
        let lheights: Vec<u64> = (0..nb).map(|k| pattern.l_height(k)).collect();

        // Factor tasks
        for k in 0..nb {
            let w = part.width(k) as u64;
            let nl = lheights[k];
            factor_task[k] = tasks.len() as u32;
            tasks.push(TaskKind::Factor(k as u32));
            flops.push((factor_task_flops(w, nl), 0));
            owner_block.push(k as u32);
            // output message: diag + L panel + pivots
            msg_words.push(w * w + nl * w + w);
        }

        // Update tasks (per source block, ordered by j). Every edge is
        // added when its head task exists, so no edge needs a search.
        let ntasks = nb + pattern.u_blocks.iter().map(Vec::len).sum::<usize>();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); ntasks];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); ntasks];
        let add_edge = |succs: &mut Vec<Vec<u32>>, preds: &mut Vec<Vec<u32>>, a: u32, b: u32| {
            succs[a as usize].push(b);
            preds[b as usize].push(a);
        };
        let mut update_ids: Vec<Vec<u32>> = vec![Vec::new(); nb]; // per j, in stage order
        for k in 0..nb {
            let wk = part.width(k) as u64;
            let nl = lheights[k];
            for u in &pattern.u_blocks[k] {
                let j = u.j as usize;
                let nuc = u.cols.len() as u64;
                let id = tasks.len() as u32;
                tasks.push(TaskKind::Update(k as u32, u.j));
                // BLAS-3 efficiency grows with the inner dimension (the
                // supernode width): below the reference block size the
                // kernel runs partly at the BLAS-2 rate — this is the
                // granularity effect that makes amalgamation pay off.
                let total = update_task_flops(wk, nl, nuc);
                let b3 = (total as f64 * (wk as f64 / BLAS3_REF_WIDTH).min(1.0)) as u64;
                flops.push((total - b3, b3));
                owner_block.push(u.j);
                // an Update's output stays in its column block; its own
                // result is consumed by same-column tasks (zero words if
                // co-located; the modified panel otherwise)
                let wj = part.width(j) as u64;
                msg_words.push(wj * nuc.max(1));
                update_ids[j].push(id);
                // property 1: Factor(k) → Update(k, j)
                add_edge(&mut succs, &mut preds, factor_task[k], id);
            }
        }
        debug_assert_eq!(tasks.len(), ntasks);

        for k in 0..nb {
            // properties 2 & 3: chain the updates of column block k, then
            // the last one feeds Factor(k). update_ids[k] is in increasing
            // k-stage order because source blocks were visited in order.
            let chain = &update_ids[k];
            for w in chain.windows(2) {
                add_edge(&mut succs, &mut preds, w[0], w[1]);
            }
            if let Some(&last) = chain.last() {
                add_edge(&mut succs, &mut preds, last, factor_task[k]);
            }
        }

        Self {
            tasks,
            succs,
            preds,
            flops,
            owner_block,
            msg_words,
            nblocks: nb,
            factor_task,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Task cost in seconds under a machine model.
    pub fn cost(&self, t: usize, model: &splu_machine::MachineModel) -> f64 {
        let (b2, b3) = self.flops[t];
        model.compute_time(0, b2, b3)
    }

    /// A topological order (tasks are constructed respecting block order,
    /// but this derives one explicitly by Kahn's algorithm).
    pub fn topo_order(&self) -> Vec<u32> {
        let n = self.len();
        let mut indeg: Vec<u32> = self.preds.iter().map(|p| p.len() as u32).collect();
        let mut queue: std::collections::VecDeque<u32> =
            (0..n as u32).filter(|&t| indeg[t as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop_front() {
            order.push(t);
            for &s in &self.succs[t as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push_back(s);
                }
            }
        }
        assert_eq!(order.len(), n, "task graph has a cycle");
        order
    }

    /// Bottom levels (critical-path-to-exit lengths) under a machine
    /// model, counting cross-processor message costs on every edge
    /// (the standard pessimistic b-level used for list scheduling).
    pub fn bottom_levels(&self, model: &splu_machine::MachineModel) -> Vec<f64> {
        let order = self.topo_order();
        let mut bl = vec![0.0f64; self.len()];
        for &t in order.iter().rev() {
            let tu = t as usize;
            let mut best = 0.0f64;
            for &s in &self.succs[tu] {
                let edge = model.message_time(self.msg_words[tu]);
                best = best.max(bl[s as usize] + edge);
            }
            bl[tu] = self.cost(tu, model) + best;
        }
        bl
    }

    /// Total work in seconds under a model (lower bound: work / P).
    pub fn total_work(&self, model: &splu_machine::MachineModel) -> f64 {
        (0..self.len()).map(|t| self.cost(t, model)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_machine::T3D;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{
        amalgamate, partition_supernodes, static_symbolic_factorization, BlockPattern,
    };

    pub(crate) fn pattern_for(
        a: &splu_sparse::CscMatrix,
        r: usize,
        bsize: usize,
    ) -> Arc<BlockPattern> {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bsize);
        let part = amalgamate(&s, &base, r, bsize);
        Arc::new(BlockPattern::build(&s, &part))
    }

    #[test]
    fn dense_matrix_task_counts() {
        // dense: N factor tasks + N(N-1)/2 update tasks
        let a = gen::dense_random(20, ValueModel::default());
        let p = pattern_for(&a, 0, 5);
        let g = TaskGraph::build(&p);
        let nb = p.nblocks();
        assert_eq!(nb, 4);
        assert_eq!(g.len(), nb + nb * (nb - 1) / 2);
    }

    #[test]
    fn dependence_properties_hold() {
        let a = gen::random_sparse(80, 4, 0.5, ValueModel::default());
        let p = pattern_for(&a, 4, 10);
        let g = TaskGraph::build(&p);
        for (t, kind) in g.tasks.iter().enumerate() {
            match *kind {
                TaskKind::Factor(k) => {
                    // successors of Factor(k) are exactly Update(k, *)
                    for &s in &g.succs[t] {
                        match g.tasks[s as usize] {
                            TaskKind::Update(kk, _) => assert_eq!(kk, k),
                            other => panic!("Factor({k}) → {other:?}"),
                        }
                    }
                }
                TaskKind::Update(k, j) => {
                    assert!(k < j);
                    // preds include Factor(k)
                    assert!(
                        g.preds[t].contains(&g.factor_task[k as usize]),
                        "U({k},{j}) missing Factor({k}) pred"
                    );
                }
            }
        }
    }

    #[test]
    fn chains_serialize_same_column_updates() {
        let a = gen::grid2d(8, 8, 0.3, ValueModel::default());
        let p = pattern_for(&a, 4, 8);
        let g = TaskGraph::build(&p);
        // For each column j, updates must form a path in k order.
        for j in 0..g.nblocks {
            let mut stages: Vec<(u32, usize)> = g
                .tasks
                .iter()
                .enumerate()
                .filter_map(|(t, k)| match *k {
                    TaskKind::Update(kk, jj) if jj as usize == j => Some((kk, t)),
                    _ => None,
                })
                .collect();
            stages.sort();
            for w in stages.windows(2) {
                let (_, t1) = w[0];
                let (_, t2) = w[1];
                assert!(
                    g.succs[t1].contains(&(t2 as u32)),
                    "updates of column {j} not chained"
                );
            }
            // last update feeds Factor(j)
            if let Some(&(_, last)) = stages.last() {
                assert!(g.succs[last].contains(&g.factor_task[j]));
            }
        }
    }

    #[test]
    fn graph_is_acyclic_and_costed() {
        let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
        let p = pattern_for(&a, 4, 8);
        let g = TaskGraph::build(&p);
        let order = g.topo_order();
        assert_eq!(order.len(), g.len());
        let bl = g.bottom_levels(&T3D);
        // entry tasks have the largest bottom levels on a path-connected DAG;
        // every bottom level is at least the task's own cost
        for t in 0..g.len() {
            assert!(bl[t] >= g.cost(t, &T3D));
        }
        assert!(g.total_work(&T3D) > 0.0);
        // the task costs split the pattern's flop count by kernel rate
        let total: u64 = g.flops.iter().map(|&(b2, b3)| b2 + b3).sum();
        assert_eq!(total, p.factor_flops());
    }

    #[test]
    fn update_flops_split_by_width() {
        // width-4 blocks: only 4/25 of update flops run at the BLAS-3 rate
        let a = gen::dense_random(16, ValueModel::default());
        let p = pattern_for(&a, 0, 4);
        let g = TaskGraph::build(&p);
        for (t, kind) in g.tasks.iter().enumerate() {
            match kind {
                TaskKind::Factor(_) => assert_eq!(g.flops[t].1, 0),
                TaskKind::Update(..) => {
                    let (b2, b3) = g.flops[t];
                    assert!(b3 > 0);
                    let frac = b3 as f64 / (b2 + b3) as f64;
                    assert!((frac - 4.0 / 25.0).abs() < 0.01, "frac {frac}");
                }
            }
        }
        // width-25 blocks: everything at the BLAS-3 rate
        let a = gen::dense_random(50, ValueModel::default());
        let p = pattern_for(&a, 0, 25);
        let g = TaskGraph::build(&p);
        for (t, kind) in g.tasks.iter().enumerate() {
            if matches!(kind, TaskKind::Update(..)) {
                assert_eq!(g.flops[t].0, 0, "width-25 update must be pure BLAS-3");
            }
        }
    }
}
