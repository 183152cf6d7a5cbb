//! Sequential S\* factorization: the partitioned algorithm of Figs. 6–8.
//!
//! ```text
//! for k = 1 to N
//!     Factor(k)                       // panel factorization + pivoting
//!     for j = k+1 to N with U_kj ≠ 0
//!         Update(k, j)                // swap, DTRSM, DGEMM
//! ```
//!
//! `Factor(k)` works on the packed (diag + L) panel of column block `k`
//! with BLAS-1/2 (pivot search, scaling, rank-1 updates) and records the
//! pivot sequence; the row interchanges for the rest of the matrix are
//! *delayed* and applied per column block at the start of `Update(k, j)` —
//! equivalent to aggregating many small messages into one in the parallel
//! codes.

use crate::error::SolverError;
use crate::scratch::{prep_cap, FactorScratch};
use crate::storage::BlockMatrix;
use crate::update::{self, UpdateTask};
use splu_kernels::{dger, dtrsm_left_lower_unit};
use splu_probe::Probe;

/// Statistics of a numeric factorization run.
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Number of `Factor(k)` tasks executed.
    pub factor_tasks: usize,
    /// Number of `Update(k, j)` tasks executed.
    pub update_tasks: usize,
    /// Rows actually interchanged (pivot ≠ diagonal).
    pub row_interchanges: usize,
    /// Flops spent in full-block DGEMM updates. Counted by the driver
    /// for the factorization alone: solves against the factors add to
    /// the kernels' BLAS-3 counters, never to these two fields.
    pub gemm_flops: u64,
    /// Flops spent in panel factorization + TRSM + scatter paths.
    pub other_flops: u64,
    /// Peak scratch-arena bytes (max over processors in parallel runs).
    pub scratch_peak_bytes: u64,
    /// Scratch-arena capacity growth events (summed over processors);
    /// zero on a warmed-up refactorization — the allocation-free proof.
    pub scratch_grow_events: u64,
    /// Update-stage GEMM kernel invocations: one fused packed call per
    /// blocked-shape segment product plus one stacked `dgemm_naive` call
    /// per run of adjacent small-shape segments.
    pub update_gemm_calls: u64,
    /// Rows of the tallest single update-stage kernel call — a segment on
    /// the blocked path, a stacked run on the small path (max over
    /// processors in parallel runs).
    pub update_gemm_rows_max: u64,
    /// Update tasks whose scatter positions came from the precomputed
    /// symbolic maps instead of a fresh merge. The maps ship with every
    /// `BlockPattern`, so this equals [`FactorStats::update_tasks`] minus
    /// the tasks that had no work at all (empty panel, or a 2D rank
    /// owning no destination segment) — a warmed refactorization performs
    /// zero symbolic merges.
    pub scatter_map_reuse_hits: u64,
    /// Seconds inside the update-stage products: packing, the
    /// small-shape GEMMs, and the blocked-shape fused GEMM tiles together
    /// with their write-back into the destination blocks. This and the
    /// other `_secs` fields are one thread's wall time in the sequential
    /// code; a parallel run (the parallel drivers, and
    /// `SparseLuSolver::factor` on its `1 × P` grid) sums them over its
    /// processors ([`FactorStats::absorb`]), so there they are thread
    /// time and can exceed the run's wall time.
    pub update_gemm_secs: f64,
    /// Seconds writing the small-shape products back into their
    /// destinations (the blocked shapes' write-back is fused into their
    /// GEMM and counts in [`FactorStats::update_gemm_secs`]).
    pub update_scatter_secs: f64,
    /// Seconds blocked receiving update operands (parallel drivers;
    /// zero for the sequential code).
    pub update_wait_secs: f64,
    /// Seconds *critical-path* (non-deferred) update tasks spent
    /// blocked on panel operands in the 2D lookahead executor — the wait
    /// the lookahead window exists to hide (zero elsewhere).
    pub panel_wait_secs: f64,
    /// 2D update tasks whose operands were already delivered when the
    /// task ran (no blocking receive) — the lookahead executor's hits.
    pub lookahead_hits: u64,
    /// 2D update tasks deferred behind at least one later panel
    /// factorization by the lookahead window (zero at `W = 0`).
    pub deferred_updates: u64,
    /// Always 0: no driver runs subtree-local tasks since the task-DAG
    /// 2D executor was removed. Kept only so existing readers of this
    /// field still compile; slated for removal.
    pub subtree_local_tasks: u64,
}

impl FactorStats {
    /// Fold one processor's stats into an aggregate: counters and seconds
    /// sum, high-water fields take the max (used by the parallel drivers'
    /// host-side merges).
    pub fn absorb(&mut self, other: &FactorStats) {
        self.factor_tasks += other.factor_tasks;
        self.update_tasks += other.update_tasks;
        self.row_interchanges += other.row_interchanges;
        self.gemm_flops += other.gemm_flops;
        self.other_flops += other.other_flops;
        self.scratch_grow_events += other.scratch_grow_events;
        self.scratch_peak_bytes = self.scratch_peak_bytes.max(other.scratch_peak_bytes);
        self.update_gemm_calls += other.update_gemm_calls;
        self.update_gemm_rows_max = self.update_gemm_rows_max.max(other.update_gemm_rows_max);
        self.scatter_map_reuse_hits += other.scatter_map_reuse_hits;
        self.update_gemm_secs += other.update_gemm_secs;
        self.update_scatter_secs += other.update_scatter_secs;
        self.update_wait_secs += other.update_wait_secs;
        self.panel_wait_secs += other.panel_wait_secs;
        self.lookahead_hits += other.lookahead_hits;
        self.deferred_updates += other.deferred_updates;
    }

    /// Emit the update-stage telemetry counters into `probe` (called once
    /// per processor at the end of a driver run).
    pub(crate) fn emit_update_probe(&self, probe: &Probe) {
        probe.count("update_gemm_calls", self.update_gemm_calls);
        probe.gauge_max("update_gemm_rows_max", self.update_gemm_rows_max);
        probe.count("scatter_map_reuse_hits", self.scatter_map_reuse_hits);
        probe.count("lookahead_hits", self.lookahead_hits);
        probe.count("deferred_updates", self.deferred_updates);
    }

    /// Fraction of update flops performed by DGEMM (the paper's `r`).
    pub fn blas3_fraction(&self) -> f64 {
        let t = self.gemm_flops + self.other_flops;
        if t == 0 {
            0.0
        } else {
            self.gemm_flops as f64 / t as f64
        }
    }
}

/// Factorize `m` in place with classic partial pivoting. On success
/// returns the per-block pivot sequences (`pivots[k][t]` = global row
/// interchanged with row `S(k) + t` at that step) and run statistics.
pub fn factor_sequential(m: &mut BlockMatrix) -> Result<(Vec<Vec<u32>>, FactorStats), SolverError> {
    factor_sequential_with(m, 1.0, &Probe::disabled(), &mut FactorScratch::new())
}

/// [`factor_sequential`] with every option spelled out:
///
/// * `threshold` — *threshold* pivoting: the diagonal candidate is kept
///   whenever its magnitude is within `threshold` of the column maximum
///   (`1.0` is classic partial pivoting; smaller values reduce row
///   movement — any candidate row is structurally safe, since the static
///   prediction covers every pivot sequence);
/// * `probe` — records one `panel-factor` span per `Factor(k)` and one
///   `update` span per `Update(k, j)` (stage `k` as the span detail),
///   plus the `pivot_search_rows` counter;
/// * `scratch` — a caller-owned arena. Passing the same arena to repeated
///   factorizations makes the steady-state hot path allocation-free: the
///   returned [`FactorStats::scratch_grow_events`] is the number of buffer
///   growths *during this call* and must be zero once warmed up.
pub fn factor_sequential_with(
    m: &mut BlockMatrix,
    threshold: f64,
    probe: &Probe,
    scratch: &mut FactorScratch,
) -> Result<(Vec<Vec<u32>>, FactorStats), SolverError> {
    assert!(threshold > 0.0 && threshold <= 1.0);
    let nb = m.pattern.nblocks();
    let mut stats = FactorStats::default();
    let mut pivots: Vec<Vec<u32>> = Vec::with_capacity(nb);
    let grow0 = scratch.grow_events();
    for k in 0..nb {
        let span_start = probe.now();
        let piv = factor_block_opts(m, k, threshold, &mut stats, scratch)?;
        {
            // Pivot search at step t scans diag rows t..w plus the whole
            // packed L panel: sum over t gives w(w+1)/2 + w·|L rows|.
            let w = m.cols[k].w as u64;
            let nl = m.cols[k].lrows.len() as u64;
            probe.count("pivot_search_rows", w * (w + 1) / 2 + w * nl);
        }
        probe.span_at("panel-factor", k as u32, span_start);
        pivots.push(piv);
        scratch.lpack.reset(m.cols[k].lsegs.len());
        // target list lives in the arena; taken out for the borrow, put back
        let mut targets = std::mem::take(&mut scratch.idx);
        let cap0 = targets.capacity();
        targets.clear();
        targets.extend(m.pattern.update_targets(k).map(|j| j as u32));
        if targets.capacity() > cap0 {
            scratch.grow_events += 1;
        }
        for &j in &targets {
            let span_start = probe.now();
            update_block(m, k, j as usize, &pivots[k], &mut stats, scratch);
            probe.span_at("update", k as u32, span_start);
        }
        scratch.idx = targets;
    }
    stats.scratch_grow_events = scratch.grow_events() - grow0;
    stats.scratch_peak_bytes = scratch.peak_bytes();
    probe.count("scratch_grow_events", stats.scratch_grow_events);
    stats.emit_update_probe(probe);
    Ok((pivots, stats))
}

/// `Factor(k)` (Fig. 7): factorize the panel of column block `k` with
/// (threshold) partial pivoting; interchanges are applied to column block
/// `k` itself immediately and recorded for delayed application elsewhere.
pub(crate) fn factor_block_opts(
    m: &mut BlockMatrix,
    k: usize,
    threshold: f64,
    stats: &mut FactorStats,
    scratch: &mut FactorScratch,
) -> Result<Vec<u32>, SolverError> {
    stats.factor_tasks += 1;
    let cb = &mut m.cols[k];
    let w = cb.w as usize;
    let lo = cb.lo as usize;
    let nl = cb.lrows.len();
    let mut piv_seq: Vec<u32> = Vec::with_capacity(w);

    for t in 0..w {
        // ---- pivot search over column t: diag rows t..w + all L rows ----
        let mut best_abs = cb.diag[t + t * w].abs();
        #[allow(unused_mut)]
        let mut best: (bool, usize) = (true, t); // (in_diag, row)
        for r in (t + 1)..w {
            let a = cb.diag[r + t * w].abs();
            if a > best_abs {
                best_abs = a;
                best = (true, r);
            }
        }
        for r in 0..nl {
            let a = cb.lpanel[r + t * nl].abs();
            if a > best_abs {
                best_abs = a;
                best = (false, r);
            }
        }
        if best_abs == 0.0 {
            return Err(SolverError::ZeroPivot { step: lo + t });
        }
        // threshold pivoting: keep the diagonal when close enough to the max
        let diag_abs = cb.diag[t + t * w].abs();
        if diag_abs > 0.0 && diag_abs >= threshold * best_abs {
            best = (true, t);
        }
        // ---- interchange within column block k (full rows) ----
        let piv_global = match best {
            (true, r) => lo + r,
            (false, r) => cb.lrows[r] as usize,
        };
        piv_seq.push(piv_global as u32);
        if piv_global != lo + t {
            stats.row_interchanges += 1;
            match best {
                (true, r) => {
                    for c in 0..w {
                        cb.diag.swap(t + c * w, r + c * w);
                    }
                }
                (false, r) => {
                    for c in 0..w {
                        std::mem::swap(&mut cb.diag[t + c * w], &mut cb.lpanel[r + c * nl]);
                    }
                }
            }
        }
        // ---- scale column t below the pivot ----
        let pv = cb.diag[t + t * w];
        for r in (t + 1)..w {
            cb.diag[r + t * w] /= pv;
        }
        for r in 0..nl {
            cb.lpanel[r + t * nl] /= pv;
        }
        stats.other_flops += (w - t - 1 + nl) as u64;
        // ---- rank-1 update of the remaining columns ----
        if t + 1 < w {
            let ncols = w - t - 1;
            // diag part: rows t+1..w, cols t+1..w; the pivot row/column
            // strips are staged in the arena (no per-step allocation)
            prep_cap(&mut scratch.urow, ncols, &mut scratch.grow_events);
            prep_cap(&mut scratch.lcol, ncols, &mut scratch.grow_events);
            scratch.urow.extend((t + 1..w).map(|c| cb.diag[t + c * w]));
            scratch.lcol.extend((t + 1..w).map(|r| cb.diag[r + t * w]));
            let (urow, lcol) = (&scratch.urow[..], &scratch.lcol[..]);
            {
                // A[t+1.., t+1..] -= lcol * urow
                let mrows = w - t - 1;
                // operate on subpanel of diag with offset
                // column c (global local col) starts at (t+1) + c*w
                for (ci, c) in (t + 1..w).enumerate() {
                    let u = urow[ci];
                    if u != 0.0 {
                        let col = &mut cb.diag[(t + 1) + c * w..w + c * w];
                        for (ri, e) in col.iter_mut().enumerate() {
                            *e -= lcol[ri] * u;
                        }
                    }
                }
                stats.other_flops += (2 * mrows * ncols) as u64;
            }
            if nl > 0 {
                // L panel part: all nl rows, cols t+1..w:
                // lpanel[:, c] -= lpanel[:, t] * diag[t, c]
                let (head, tail) = cb.lpanel.split_at_mut((t + 1) * nl);
                let lt = &head[t * nl..(t + 1) * nl];
                dger(nl, ncols, -1.0, lt, urow, tail, nl);
                stats.other_flops += (2 * nl * ncols) as u64;
            }
        }
    }
    Ok(piv_seq)
}

/// `Update(k, j)` (Fig. 8): apply the delayed interchanges of block `k` to
/// column block `j`, triangular-solve `U_kj := L_kk⁻¹ U_kj`, then
/// `A_ij -= L_ik · U_kj` for every nonzero `L_ik`, reading the factored
/// panel of block `k` in place and its `L` segments through the stage's
/// pack in the arena (reset when the panel was factored, so each segment
/// is packed once per stage).
fn update_block(
    m: &mut BlockMatrix,
    k: usize,
    j: usize,
    piv_seq: &[u32],
    stats: &mut FactorStats,
    scratch: &mut FactorScratch,
) {
    stats.update_tasks += 1;
    debug_assert!(k < j);
    let lo_k = m.pattern.part.start(k);

    // ---- 1. delayed row interchanges ----
    for (t, &piv) in piv_seq.iter().enumerate() {
        let row = lo_k + t;
        if piv as usize != row {
            m.swap_rows(j, row, piv as usize);
        }
    }

    // borrow dance: temporarily move column k's storage out so we can
    // mutate column j while reading column k; the placeholder block lives
    // in the arena so the swap allocates nothing
    let dummy = std::mem::take(&mut scratch.dummy);
    let ck = std::mem::replace(&mut m.cols[k], dummy);

    // ---- 2. U_kj := L_kk⁻¹ U_kj (unit-lower triangular solve) ----
    let wk = ck.w as usize;
    debug_assert_eq!(wk, m.pattern.part.width(k));
    // locate U block (k) in column block j
    let Some(ub_idx) = m.cols[j]
        .ublocks
        .binary_search_by_key(&(k as u32), |u| u.k)
        .ok()
    else {
        // U_kj may be numerically absent only if the pattern says so;
        // callers only invoke update_block for present blocks.
        panic!("update_block({k},{j}) called without a U block");
    };
    {
        let ub = &mut m.cols[j].ublocks[ub_idx];
        let ncols = ub.cols.len();
        dtrsm_left_lower_unit(wk, ncols, &ck.diag, wk, &mut ub.panel, wk);
        stats.other_flops += (wk * wk * ncols) as u64;
    }

    // ---- 3. A_ij -= L_ik · U_kj, one product per L segment ----
    let nuc = m.cols[j].ublocks[ub_idx].cols.len();
    let nl = ck.lrows.len();
    if nuc > 0 && nl > 0 {
        // The pattern (shared Arc) supplies the precomputed scatter maps; a
        // local handle frees `m` for the destination borrows below.
        let pattern = m.pattern.clone();
        let uj = pattern.u_blocks[k]
            .binary_search_by_key(&(j as u32), |u| u.j)
            .expect("U block in pattern");
        stats.scatter_map_reuse_hits += 1;
        let task = UpdateTask {
            pattern: &pattern,
            k,
            j,
            uj,
            mine: &|_| true,
        };
        let seg = |li: usize| (&ck.lpanel[ck.lsegs[li].start as usize..], nl);
        let u = &m.cols[j].ublocks[ub_idx].panel;
        let mut lpack = std::mem::take(&mut scratch.lpack);
        let started = update::gather(&task, &seg, u, &mut lpack, stats, scratch);
        update::apply(&task, started, &lpack, &mut m.cols[j], stats, scratch);
        scratch.lpack = lpack;
    }
    scratch.dummy = std::mem::replace(&mut m.cols[k], ck);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::storage::BlockMatrix;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{
        amalgamate, partition_supernodes, static_symbolic_factorization, BlockPattern,
    };
    use std::sync::Arc;

    pub(crate) fn build(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) -> BlockMatrix {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bsize);
        let part = amalgamate(&s, &base, r, bsize);
        let bp = Arc::new(BlockPattern::build(&s, &part));
        BlockMatrix::from_csc(a, bp)
    }

    /// Reference: dense GEPP with block-delayed interchanges — at step `k`
    /// the pivot row is swapped over columns `S(b)..n` where `b` is `k`'s
    /// block (full rows within the current column block, per Fig. 7 line
    /// 04; delayed/trailing for the rest). Produces the same working array
    /// the block code produces (same pivot rule).
    fn gepp_trailing(
        a: &splu_kernels::DenseMat,
        starts: &[usize],
    ) -> (splu_kernels::DenseMat, Vec<u32>) {
        let n = a.nrows();
        let block_start_of = {
            let mut v = vec![0usize; n];
            for b in 0..starts.len() - 1 {
                for k in starts[b]..starts[b + 1] {
                    v[k] = starts[b];
                }
            }
            v
        };
        let mut w = a.clone();
        let mut piv = Vec::with_capacity(n);
        for k in 0..n {
            let mut p = k;
            for i in (k + 1)..n {
                if w[(i, k)].abs() > w[(p, k)].abs() {
                    p = i;
                }
            }
            piv.push(p as u32);
            if p != k {
                for j in block_start_of[k]..n {
                    let t = w[(k, j)];
                    w[(k, j)] = w[(p, j)];
                    w[(p, j)] = t;
                }
            }
            let d = w[(k, k)];
            for i in (k + 1)..n {
                w[(i, k)] /= d;
            }
            for j in (k + 1)..n {
                let u = w[(k, j)];
                if u != 0.0 {
                    for i in (k + 1)..n {
                        let l = w[(i, k)];
                        w[(i, j)] -= l * u;
                    }
                }
            }
        }
        (w, piv)
    }

    fn check_against_dense(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) {
        let n = a.ncols();
        let mut m = build(a, r, bsize);
        let starts = m.pattern.part.starts.clone();
        let (pivots, _stats) = factor_sequential(&mut m).expect("factorization");
        let (wref, pivref) = gepp_trailing(&a.to_dense(), &starts);
        // same pivot sequence
        let flat: Vec<u32> = pivots.iter().flatten().copied().collect();
        assert_eq!(flat.len(), n);
        for k in 0..n {
            assert_eq!(flat[k], pivref[k], "pivot at step {k}");
        }
        // same factors (within roundoff)
        let scale = wref.max_abs().max(1.0);
        for i in 0..n {
            for j in 0..n {
                let got = m.get_entry(i, j);
                let want = wref[(i, j)];
                assert!(
                    (got - want).abs() <= 1e-11 * scale,
                    "entry ({i},{j}): got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn dense_small_matches_reference() {
        let a = gen::dense_random(17, ValueModel::default());
        check_against_dense(&a, 0, 5);
    }

    #[test]
    fn sparse_random_matches_reference() {
        for seed in 0..4 {
            let a = gen::random_sparse(
                50,
                3,
                0.5,
                ValueModel {
                    diag_scale: 1.0,
                    seed,
                },
            );
            check_against_dense(&a, 0, 8);
        }
    }

    #[test]
    fn grid_matches_reference_with_amalgamation() {
        let a = gen::grid2d(7, 7, 0.4, ValueModel::default());
        check_against_dense(&a, 4, 10);
        check_against_dense(&a, 8, 25);
    }

    #[test]
    fn block_size_one_matches_reference() {
        let a = gen::random_sparse(30, 3, 0.6, ValueModel::default());
        check_against_dense(&a, 0, 1);
    }

    #[test]
    fn stats_are_populated() {
        let a = gen::grid2d(6, 6, 0.3, ValueModel::default());
        let mut m = build(&a, 4, 8);
        let (_piv, stats) = factor_sequential(&mut m).unwrap();
        assert_eq!(stats.factor_tasks, m.pattern.nblocks());
        assert!(stats.update_tasks > 0);
        assert!(stats.gemm_flops > 0);
        assert!(stats.blas3_fraction() > 0.0 && stats.blas3_fraction() <= 1.0);
    }

    #[test]
    fn singular_matrix_detected() {
        use splu_sparse::CooMatrix;
        // exactly-singular 2x2 with zero-free diagonal pattern
        let mut c = CooMatrix::new(2, 2);
        c.push(0, 0, 1.0);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        c.push(1, 1, 1.0);
        let a = c.to_csc();
        let mut m = build(&a, 0, 2);
        assert!(matches!(
            factor_sequential(&mut m),
            Err(SolverError::ZeroPivot { step: 1 })
        ));
    }
}
