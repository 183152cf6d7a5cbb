//! 1D data-mapping parallel sparse LU (§4.2, §5.1 of the paper).
//!
//! All submatrices of a column block live on one processor. Two execution
//! strategies are provided:
//!
//! * [`Strategy1d::ComputeAhead`] — block-cyclic mapping with the Fig. 10
//!   compute-ahead loop: the owner of block `k+1` performs
//!   `Update(k, k+1)` and `Factor(k+1)` *before* the remaining
//!   `Update(k, j)` tasks so the next pivot block is broadcast as early
//!   as possible;
//! * [`Strategy1d::GraphScheduled`] — RAPID-style execution: a
//!   communication-aware static schedule (from
//!   [`splu_sched::graph_schedule`]) fixes both the column-block mapping
//!   and each processor's task order; the runtime then simply replays its
//!   order, blocking on tag-matched receives (the asynchronous, zero-copy
//!   message protocol that RAPID's RMA transport provides on the T3D/T3E).
//!
//! Both strategies produce **bitwise-identical factors** to the
//! sequential code: same pivot rule, same per-block arithmetic order
//! (update stages of a column block are serialized by the task-graph
//! chain property).
//!
//! The factored panels are gathered back to the caller for the triangular
//! solves; per-processor peak memory and communication volume are
//! reported for the §5.2 space-complexity comparison.

use crate::error::{catch_solver_panic, SolverError};
use crate::scratch::FactorScratch;
use crate::seq::{factor_block_opts, update_block_with_panel, FactorStats, PanelRef};
use crate::storage::BlockMatrix;
use splu_kernels::SegmentPack;
use splu_machine::{run_machine, Message, ProcCtx, RunOptions};
use splu_sched::{ca_schedule, graph_schedule, TaskGraph, TaskKind};
use splu_symbolic::BlockPattern;
use std::sync::Arc;

/// Execution strategy for the 1D code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy1d {
    /// Block-cyclic mapping + compute-ahead ordering (Fig. 10).
    ComputeAhead,
    /// RAPID-style graph-scheduled mapping and ordering, planned with the
    /// given machine model.
    GraphScheduled(splu_machine::MachineModel),
}

/// Result of a parallel 1D factorization.
pub struct Par1dResult {
    /// Reassembled factored storage (host-side), ready for the solvers.
    pub blocks: BlockMatrix,
    /// Per-block pivot sequences.
    pub pivots: Vec<Vec<u32>>,
    /// Merged statistics over all processors.
    pub stats: FactorStats,
    /// Wall-clock seconds of the parallel section.
    pub elapsed: f64,
    /// Total (messages, bytes) sent.
    pub comm: (u64, u64),
    /// Per-processor peak parked-message bytes.
    pub peak_buffer_bytes: Vec<u64>,
    /// Per-processor busy seconds (time inside Factor/Update tasks).
    pub busy_secs: Vec<f64>,
}

const TAG_PANEL: u64 = 1 << 40;

fn panel_tag(k: usize) -> u64 {
    TAG_PANEL | k as u64
}

/// Pack a factored column block into a message: ints = pivot sequence,
/// floats = diag panel ++ L panel. The payload vectors come from the
/// runtime's recycling pool, so steady-state panel traffic reuses the
/// allocations of already-consumed messages.
fn pack_panel(ctx: &mut ProcCtx, m: &BlockMatrix, k: usize, piv: &[u32]) -> Message {
    let cb = &m.cols[k];
    let mut floats = ctx.floats_buf();
    floats.reserve(cb.diag.len() + cb.lpanel.len());
    floats.extend_from_slice(&cb.diag);
    floats.extend_from_slice(&cb.lpanel);
    let mut ints = ctx.ints_buf();
    ints.extend_from_slice(piv);
    Message::new(panel_tag(k), ints, floats)
}

/// A received panel together with owned copies of its block metadata
/// (so a `PanelRef` can be formed without borrowing the block matrix) and
/// the pack of its `L` segments, filled by the panel's first updates and
/// reused by the rest.
struct RecvPanel {
    msg: Message,
    lrows: Arc<Vec<u32>>,
    lsegs: Vec<crate::storage::LSeg>,
    w: usize,
    pack: SegmentPack,
}

impl RecvPanel {
    fn new(m: &BlockMatrix, k: usize, msg: Message, scratch: &mut FactorScratch) -> Self {
        let cb = &m.cols[k];
        let mut pack = scratch.take_lpack();
        pack.reset(cb.lsegs.len());
        Self {
            msg,
            lrows: cb.lrows.clone(),
            lsegs: cb.lsegs.clone(),
            w: cb.w as usize,
            pack,
        }
    }

    /// The panel view, its pivot sequence and its pack.
    fn parts(&mut self) -> (PanelRef<'_>, &[u32], &mut SegmentPack) {
        let dlen = self.w * self.w;
        let panel = PanelRef {
            diag: &self.msg.floats[..dlen],
            lpanel: &self.msg.floats[dlen..],
            lrows: &self.lrows,
            lsegs: &self.lsegs,
            w: self.w,
        };
        (panel, &self.msg.ints, &mut self.pack)
    }
}

/// Options of [`factor_par1d_with`].
#[derive(Clone, Copy)]
pub struct Par1dOptions<'a> {
    /// Runtime options: flight-recorder tracing and delivery jitter.
    pub run: RunOptions<'a>,
    /// Execution strategy (mapping and per-processor task order).
    pub strategy: Strategy1d,
    /// Pivot threshold (`1.0` is classic partial pivoting; see
    /// [`crate::seq::factor_sequential_with`]).
    pub threshold: f64,
}

impl Default for Par1dOptions<'_> {
    fn default() -> Self {
        Self {
            run: RunOptions::default(),
            strategy: Strategy1d::ComputeAhead,
            threshold: 1.0,
        }
    }
}

/// Run the 1D parallel factorization on `nprocs` simulated processors
/// with classic partial pivoting.
///
/// `a` must already be preprocessed (zero-free diagonal, ordered); use
/// [`crate::pipeline::SparseLuSolver`] for the full pipeline.
///
/// # Panics
/// On a numerically singular input, with the [`SolverError`] as the
/// panic payload; [`factor_par1d_with`] returns it instead.
pub fn factor_par1d(
    a: &splu_sparse::CscMatrix,
    pattern: Arc<BlockPattern>,
    nprocs: usize,
    strategy: Strategy1d,
) -> Par1dResult {
    let opts = Par1dOptions {
        strategy,
        ..Par1dOptions::default()
    };
    factor_par1d_with(a, pattern, nprocs, &opts).unwrap_or_else(|e| std::panic::panic_any(e))
}

/// The 1D factorization under explicit [`Par1dOptions`]. A numerically
/// singular input surfaces as `Err(SolverError::ZeroPivot)`; any
/// non-numeric panic propagates unchanged.
pub fn factor_par1d_with(
    a: &splu_sparse::CscMatrix,
    pattern: Arc<BlockPattern>,
    nprocs: usize,
    opts: &Par1dOptions,
) -> Result<Par1dResult, SolverError> {
    catch_solver_panic(|| factor1d(a, pattern, nprocs, opts))
}

/// Plan the schedule of `opts.strategy` and execute it.
fn factor1d(
    a: &splu_sparse::CscMatrix,
    pattern: Arc<BlockPattern>,
    nprocs: usize,
    opts: &Par1dOptions,
) -> Par1dResult {
    let graph = TaskGraph::build(&pattern);
    let schedule = match opts.strategy {
        Strategy1d::ComputeAhead => ca_schedule(&graph, nprocs),
        Strategy1d::GraphScheduled(model) => graph_schedule(&graph, nprocs, &model),
    };
    schedule.validate(&graph);
    let nb = pattern.nblocks();

    // block → owner processor (from the schedule's owner-computes mapping)
    let mut owner = vec![u32::MAX; nb];
    for (t, &p) in schedule.proc_of.iter().enumerate() {
        let b = graph.owner_block[t] as usize;
        debug_assert!(owner[b] == u32::MAX || owner[b] == p);
        owner[b] = p;
    }
    // destination set of each Factor(k)'s panel: owners of Update(k, j)
    let mut panel_dests: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (t, kind) in graph.tasks.iter().enumerate() {
        if let TaskKind::Update(k, _) = kind {
            let p = schedule.proc_of[t] as usize;
            let d = &mut panel_dests[*k as usize];
            if !d.contains(&p) {
                d.push(p);
            }
        }
    }

    let t0 = std::time::Instant::now();
    type RankOut = (
        Vec<(usize, crate::storage::ColBlock)>,
        Vec<(usize, Vec<u32>)>,
        FactorStats,
        u64,
        f64,
    );
    let spmd = |mut ctx: ProcCtx| {
        // Each rank allocates only its owned column blocks' panels; the
        // shared pattern supplies all metadata.
        let mut m =
            BlockMatrix::from_csc_filtered(a, pattern.clone(), |b| owner[b] as usize == ctx.rank);
        let mut stats = FactorStats::default();
        let mut scratch = FactorScratch::new();
        let mut pivots: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut busy = 0.0f64;
        // cache of received panels by block id
        let mut received: Vec<Option<RecvPanel>> = (0..nb).map(|_| None).collect();
        // remaining local uses of each panel: once the last Update(k, ·)
        // on this rank ran, the panel message is recycled into the pool
        let mut uses = vec![0u32; nb];
        for &t in &schedule.order[ctx.rank] {
            if let TaskKind::Update(k, _) = graph.tasks[t as usize] {
                uses[k as usize] += 1;
            }
        }

        for &t in &schedule.order[ctx.rank] {
            match graph.tasks[t as usize] {
                TaskKind::Factor(k) => {
                    let k = k as usize;
                    let span_start = ctx.probe().now();
                    let tb = std::time::Instant::now();
                    // On numeric breakdown, panic with the typed error as
                    // payload: the runtime's poison broadcast wakes blocked
                    // peers, and the host recovers the `SolverError` via
                    // `catch_solver_panic` (see `factor_par1d_with`).
                    let piv =
                        factor_block_opts(&mut m, k, opts.threshold, &mut stats, &mut scratch)
                            .unwrap_or_else(|e| std::panic::panic_any(e));
                    busy += tb.elapsed().as_secs_f64();
                    ctx.probe().span_at("panel-factor", k as u32, span_start);
                    // ship the factored panel + pivots to updaters
                    let msg = pack_panel(&mut ctx, &m, k, &piv);
                    ctx.multicast(panel_dests[k].iter().copied(), msg.clone());
                    if panel_dests[k].contains(&ctx.rank) {
                        received[k] = Some(RecvPanel::new(&m, k, msg, &mut scratch));
                    }
                    pivots.push((k, piv));
                }
                TaskKind::Update(k, j) => {
                    let (k, j) = (k as usize, j as usize);
                    if received[k].is_none() {
                        let t_wait = std::time::Instant::now();
                        let msg = ctx.recv(panel_tag(k));
                        stats.update_wait_secs += t_wait.elapsed().as_secs_f64();
                        received[k] = Some(RecvPanel::new(&m, k, msg, &mut scratch));
                    }
                    let mut rp = received[k].take().unwrap();
                    let span_start = ctx.probe().now();
                    let tb = std::time::Instant::now();
                    let (panel, piv, pack) = rp.parts();
                    update_block_with_panel(
                        &mut m,
                        k,
                        j,
                        &panel,
                        pack,
                        piv,
                        &mut stats,
                        &mut scratch,
                    );
                    busy += tb.elapsed().as_secs_f64();
                    ctx.probe().span_at("update", k as u32, span_start);
                    uses[k] -= 1;
                    if uses[k] == 0 {
                        // last local use: hand the payload back to the
                        // runtime's pool and the pack back to the arena's
                        scratch.lpacks.push(rp.pack);
                        ctx.recycle(rp.msg);
                    } else {
                        received[k] = Some(rp);
                    }
                }
            }
        }
        stats.scratch_grow_events = scratch.grow_events();
        stats.scratch_peak_bytes = scratch.peak_bytes();
        ctx.probe()
            .count("scratch_grow_events", stats.scratch_grow_events);
        stats.emit_update_probe(ctx.probe());

        // return owned column blocks
        let blocks: Vec<(usize, crate::storage::ColBlock)> = (0..nb)
            .filter(|&b| owner[b] as usize == ctx.rank)
            .map(|b| (b, std::mem::take(&mut m.cols[b])))
            .collect();
        (blocks, pivots, stats, ctx.max_pending_bytes, busy)
    };
    let (outs, comm): (Vec<RankOut>, (u64, u64)) = run_machine(nprocs, &opts.run, spmd);
    let elapsed = t0.elapsed().as_secs_f64();

    // reassemble
    let mut blocks = BlockMatrix::from_csc_filtered(a, pattern.clone(), |_| false);
    let mut pivots: Vec<Vec<u32>> = vec![Vec::new(); nb];
    let merged = FactorStats::default();
    let mut merged = merged;
    let mut peaks = Vec::with_capacity(nprocs);
    let mut busys = Vec::with_capacity(nprocs);
    for (cols, pivs, stats, peak, busy) in outs {
        for (b, cb) in cols {
            blocks.cols[b] = cb;
        }
        for (b, p) in pivs {
            pivots[b] = p;
        }
        merged.absorb(&stats);
        peaks.push(peak);
        busys.push(busy);
    }
    Par1dResult {
        blocks,
        pivots,
        stats: merged,
        elapsed,
        comm,
        peak_buffer_bytes: peaks,
        busy_secs: busys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
    use crate::solve::solve_factored;
    use splu_machine::T3D;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{amalgamate, partition_supernodes, static_symbolic_factorization};

    fn pattern_for(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) -> Arc<BlockPattern> {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bsize);
        let part = amalgamate(&s, &base, r, bsize);
        Arc::new(BlockPattern::build(&s, &part))
    }

    fn check_matches_sequential(a: &splu_sparse::CscMatrix, nprocs: usize, strategy: Strategy1d) {
        let pattern = pattern_for(a, 4, 8);
        let mut seq = BlockMatrix::from_csc(a, pattern.clone());
        let (piv_seq, _) = factor_sequential(&mut seq).unwrap();
        let par = factor_par1d(a, pattern, nprocs, strategy);
        assert_eq!(par.pivots, piv_seq, "pivot sequences must match");
        let n = a.ncols();
        for i in 0..n {
            for j in 0..n {
                let s = seq.get_entry(i, j);
                let p = par.blocks.get_entry(i, j);
                assert!(
                    s == p,
                    "entry ({i},{j}): sequential {s} vs parallel {p} — must be bitwise equal"
                );
            }
        }
    }

    #[test]
    fn ca_matches_sequential_various_procs() {
        let a = gen::grid2d(7, 7, 0.4, ValueModel::default());
        for p in [1usize, 2, 3, 5] {
            check_matches_sequential(&a, p, Strategy1d::ComputeAhead);
        }
    }

    #[test]
    fn rapid_matches_sequential_various_procs() {
        let a = gen::grid2d(7, 7, 0.4, ValueModel::default());
        for p in [2usize, 4] {
            check_matches_sequential(&a, p, Strategy1d::GraphScheduled(T3D));
        }
    }

    #[test]
    fn random_matrix_parallel_solve() {
        let a = gen::random_sparse(90, 4, 0.5, ValueModel::default());
        let pattern = pattern_for(&a, 4, 10);
        let par = factor_par1d(&a, pattern, 4, Strategy1d::ComputeAhead);
        let n = a.ncols();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&xt);
        let x = solve_factored(&par.blocks, &par.pivots, &b);
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-7, "solve error {err}");
    }

    #[test]
    fn communication_happens_and_is_counted() {
        let a = gen::grid2d(8, 8, 0.3, ValueModel::default());
        let pattern = pattern_for(&a, 4, 8);
        let par = factor_par1d(&a, pattern, 3, Strategy1d::ComputeAhead);
        let (msgs, bytes) = par.comm;
        assert!(msgs > 0, "multiprocessor run must communicate");
        assert!(bytes > 0);
        assert_eq!(par.peak_buffer_bytes.len(), 3);
    }

    #[test]
    fn single_proc_sends_nothing() {
        let a = gen::grid2d(5, 5, 0.3, ValueModel::default());
        let pattern = pattern_for(&a, 4, 8);
        let par = factor_par1d(&a, pattern, 1, Strategy1d::ComputeAhead);
        assert_eq!(par.comm.0, 0);
    }
}
