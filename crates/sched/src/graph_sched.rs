//! Graph scheduling (the RAPID/PYRROS line, §5.1 of the paper).
//!
//! A communication-aware list scheduler: tasks are prioritized by bottom
//! level (critical path to exit, message costs included) and assigned to
//! the processor that can start them earliest, under the owner-computes
//! constraint that all tasks of one column block co-locate (so the column
//! block mapping itself is *derived from the schedule*, as in the paper:
//! "uses sophisticated graph scheduling technique to guide the mapping of
//! column blocks and ordering of tasks").
//!
//! The per-processor task orders produced here are replayed by the
//! discrete-event simulator ([`crate::sim`]), which charges RAPID's
//! asynchronous zero-copy messages their latency and bandwidth only. No
//! thread executor runs them: on threads the 1D code is the 2D stage
//! engine on a `1 × P` grid.

use crate::sim::Schedule;
use crate::taskgraph::TaskGraph;
use splu_machine::MachineModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct Prio(f64, u32);

impl Eq for Prio {}

impl PartialOrd for Prio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Prio {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap by priority, tie-break by smaller task id (determinism)
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}

/// How column blocks are bound to processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingPolicy {
    /// First-touch earliest-start binding (classic ETF clustering).
    EarliestStart,
    /// Cyclic block→processor binding (like CA); the schedule then only
    /// decides the per-processor *ordering* by critical-path priority —
    /// the lookahead freedom the paper's Fig. 11 illustrates.
    Cyclic,
    /// Balance total block work greedily (longest-processing-time first)
    /// before ordering by critical path.
    WorkBalanced,
}

/// Build a graph schedule for `g` on `nprocs` processors under `model`,
/// using the default mapping policy (cyclic binding + critical-path
/// ordering — see [`graph_schedule_with`] to choose another).
pub fn graph_schedule(g: &TaskGraph, nprocs: usize, model: &MachineModel) -> Schedule {
    graph_schedule_with(g, nprocs, model, MappingPolicy::Cyclic)
}

/// Build a graph schedule with an explicit mapping policy.
pub fn graph_schedule_with(
    g: &TaskGraph,
    nprocs: usize,
    model: &MachineModel,
    policy: MappingPolicy,
) -> Schedule {
    assert!(nprocs >= 1);
    let n = g.len();
    // Priorities use computation-only bottom levels (HLFET): with the
    // one-sided overlap model, comm-inflated levels systematically
    // misprioritize wide fan-out tasks.
    let bl = {
        let mut zero_comm = *model;
        zero_comm.alpha = 0.0;
        zero_comm.beta = 0.0;
        g.bottom_levels(&zero_comm)
    };

    let mut indeg: Vec<u32> = g.preds.iter().map(|p| p.len() as u32).collect();
    let mut heap: BinaryHeap<Prio> = (0..n as u32)
        .filter(|&t| indeg[t as usize] == 0)
        .map(|t| Prio(bl[t as usize], t))
        .collect();

    let mut proc_of = vec![u32::MAX; n];
    let mut order: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
    let mut proc_time = vec![0.0f64; nprocs];
    let mut est_finish = vec![0.0f64; n];
    let mut block_proc: Vec<u32> = vec![u32::MAX; g.nblocks];

    match policy {
        MappingPolicy::Cyclic => {
            for b in 0..g.nblocks {
                block_proc[b] = (b % nprocs) as u32;
            }
        }
        MappingPolicy::WorkBalanced => {
            // total work per block, then LPT greedy onto least-loaded proc
            let mut work = vec![0.0f64; g.nblocks];
            for t in 0..n {
                work[g.owner_block[t] as usize] += g.cost(t, model);
            }
            let mut blocks: Vec<usize> = (0..g.nblocks).collect();
            blocks.sort_by(|&a, &b| work[b].partial_cmp(&work[a]).unwrap());
            let mut load = vec![0.0f64; nprocs];
            for b in blocks {
                let p = (0..nprocs)
                    .min_by(|&x, &y| load[x].partial_cmp(&load[y]).unwrap())
                    .unwrap();
                block_proc[b] = p as u32;
                load[p] += work[b];
            }
        }
        MappingPolicy::EarliestStart => {}
    }

    while let Some(Prio(_, t)) = heap.pop() {
        let tu = t as usize;
        let block = g.owner_block[tu] as usize;

        // candidate processors: the block's processor if already bound,
        // otherwise all
        let choose = |p: usize| -> f64 {
            let mut data_ready = 0.0f64;
            for &pr in &g.preds[tu] {
                let pf = est_finish[pr as usize];
                let arrive = if proc_of[pr as usize] == p as u32 {
                    pf
                } else {
                    pf + model.message_time(g.msg_words[pr as usize])
                };
                data_ready = data_ready.max(arrive);
            }
            proc_time[p].max(data_ready)
        };

        let p = if block_proc[block] != u32::MAX {
            block_proc[block] as usize
        } else {
            let mut best = 0usize;
            let mut best_start = f64::INFINITY;
            for cand in 0..nprocs {
                let s = choose(cand);
                if s < best_start {
                    best_start = s;
                    best = cand;
                }
            }
            block_proc[block] = best as u32;
            best
        };

        let start = choose(p);
        let finish = start + g.cost(tu, model);
        proc_of[tu] = p as u32;
        est_finish[tu] = finish;
        proc_time[p] = finish;
        order[p].push(t);

        for &s in &g.succs[tu] {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                heap.push(Prio(bl[s as usize], s));
            }
        }
    }

    let sched = Schedule { proc_of, order };
    sched.validate(g);
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::ca_schedule;
    use crate::sim::simulate;
    use crate::taskgraph::TaskKind;
    use splu_machine::{MachineModel, T3D};
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{
        amalgamate, partition_supernodes, static_symbolic_factorization, BlockPattern,
    };
    use std::sync::Arc;

    fn graph_for(n: usize) -> TaskGraph {
        let a = gen::grid2d(n, n, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let base = partition_supernodes(&s, 8);
        let part = amalgamate(&s, &base, 4, 8);
        TaskGraph::build(&Arc::new(BlockPattern::build(&s, &part)))
    }

    #[test]
    fn valid_schedule_all_proc_counts() {
        let g = graph_for(8);
        for p in [1usize, 2, 3, 8] {
            let s = graph_schedule(&g, p, &T3D);
            let r = simulate(&g, &s, &T3D);
            assert!(r.makespan > 0.0);
        }
    }

    #[test]
    fn beats_or_matches_ca_on_moderate_procs() {
        // The paper (Fig. 16): for more than four processors the RAPID
        // (graph-scheduled) code runs 10–40 % faster than compute-ahead.
        let g = graph_for(12);
        for p in [8usize, 16] {
            let ca = simulate(&g, &ca_schedule(&g, p), &T3D).makespan;
            let gs = simulate(&g, &graph_schedule(&g, p, &T3D), &T3D).makespan;
            assert!(
                gs <= ca * 1.02,
                "P={p}: graph {gs} vs CA {ca} — graph scheduling should win"
            );
        }
    }

    #[test]
    fn single_proc_equals_total_work() {
        let g = graph_for(6);
        let r = simulate(&g, &graph_schedule(&g, 1, &T3D), &T3D);
        assert!((r.makespan - g.total_work(&T3D)).abs() < 1e-9);
    }

    #[test]
    fn fig11_style_example_graph_beats_ca() {
        // A hand-built instance in the spirit of Figs. 9/11: unit model
        // with task weight 2 and edge weight 1. Graph scheduling may
        // reorder independent Factor tasks ahead of less-critical updates.
        // We verify on a pattern from a small sparse matrix.
        let model = MachineModel {
            name: "fig11",
            w1: 1.0,
            w2: 1.0,
            w3: 1.0,
            alpha: 1.0,
            beta: 0.0,
        };
        // normalize all task costs to weight 2 by building a graph and
        // overriding flops
        let mut g = graph_for(7);
        for f in g.flops.iter_mut() {
            *f = (2, 0);
        }
        for w in g.msg_words.iter_mut() {
            *w = 0; // edge cost = alpha = 1
        }
        let ca = simulate(&g, &ca_schedule(&g, 2), &model).makespan;
        let gs = simulate(&g, &graph_schedule(&g, 2, &model), &model).makespan;
        assert!(gs <= ca, "graph {gs} vs CA {ca}");
    }

    #[test]
    fn block_clustering_respected() {
        let g = graph_for(9);
        let s = graph_schedule(&g, 4, &T3D);
        // all tasks of one column block on one processor
        let mut block_proc = vec![u32::MAX; g.nblocks];
        for (t, kind) in g.tasks.iter().enumerate() {
            let b = match kind {
                TaskKind::Factor(k) => *k as usize,
                TaskKind::Update(_, j) => *j as usize,
            };
            if block_proc[b] == u32::MAX {
                block_proc[b] = s.proc_of[t];
            } else {
                assert_eq!(block_proc[b], s.proc_of[t], "block {b} split");
            }
        }
    }
}
