//! The supernodal update `A_ij -= L_ik · U_kj` (line 12 of `Update(k, j)`,
//! Fig. 8) that every driver's update task ends in (DESIGN.md §5e).
//!
//! Each `L_ik` segment times `U_kj` is one product, its kernel chosen by
//! shape ([`gemm_uses_blocked_path`]): blocked shapes run
//! [`dgemm_packed_sub_scatter`] on operands packed once (a segment per
//! [`SegmentPack`] reset, `U_kj` per task) and subtract each register tile
//! straight into the destination; small shapes keep the exact axpy kernel,
//! runs of adjacent segments stacked into one [`dgemm_naive`] call, then
//! [`scatter_sub`]. Both are bitwise the historical GEMM into a buffer
//! followed by a subtract. [`gather`] reads the sources and [`apply`]
//! writes the destinations, so a driver keeping both in one container can
//! borrow them in turn.

use crate::scratch::{ensure_len_f64, FactorScratch};
use crate::seq::FactorStats;
use crate::storage::ColBlock;
use splu_kernels::{
    dgemm_naive, dgemm_packed_sub_scatter, gemm_uses_blocked_path, pack_b, packed_b_len,
    scatter_sub, Scatter, SegmentPack,
};
use splu_symbolic::blocks::LBlockPat;
use splu_symbolic::BlockPattern;
use std::cmp::Ordering;
use std::time::Instant;

/// Where the products of `Update(k, j)` land in column block `j`: the
/// block of row block `i` (diagonal, `L` segment or `U` block) and its
/// leading dimension, or `None` when the column has no such block (its
/// product is then structurally zero and is dropped).
fn dest_block(cb: &mut ColBlock, i: usize, j: usize) -> Option<(&mut [f64], usize)> {
    match i.cmp(&j) {
        Ordering::Equal => Some((&mut cb.diag, cb.w as usize)),
        Ordering::Greater => {
            let ds = cb
                .lsegs
                .binary_search_by_key(&(i as u32), |s| s.iblock)
                .ok()?;
            let start = cb.lsegs[ds].start as usize;
            let ld = cb.lrows.len();
            Some((&mut cb.lpanel[start..], ld))
        }
        Ordering::Less => {
            let db = cb.ublocks.binary_search_by_key(&(i as u32), |u| u.k).ok()?;
            let ub = &mut cb.ublocks[db];
            Some((&mut ub.panel, ub.h as usize))
        }
    }
}

/// One update task's operands: the segments of stage `k` that `mine`
/// selects (by position in `pattern.l_blocks[k]`) times `U_kj` (`uj` is
/// its position in `pattern.u_blocks[k]`).
pub(crate) struct UpdateTask<'a> {
    pub pattern: &'a BlockPattern,
    pub k: usize,
    pub j: usize,
    pub uj: usize,
    pub mine: &'a dyn Fn(usize) -> bool,
}

impl UpdateTask<'_> {
    fn wk(&self) -> usize {
        self.pattern.part.width(self.k)
    }

    fn u_cols(&self) -> &[u32] {
        &self.pattern.u_blocks[self.k][self.uj].cols
    }

    fn segs(&self) -> impl Iterator<Item = (usize, &LBlockPat)> + '_ {
        let all = self.pattern.l_blocks[self.k].iter().enumerate();
        all.filter(|&(li, _)| (self.mine)(li))
    }

    fn blocked(&self, rows: usize) -> bool {
        gemm_uses_blocked_path(rows, self.u_cols().len(), self.wk())
    }

    /// Rows of the small-shape segments (the height of the product buffer).
    fn small_rows(&self) -> usize {
        let rows = self.segs().map(|(_, l)| l.rows.len());
        rows.filter(|&m| !self.blocked(m)).sum()
    }
}

/// Phase 1 of `Update(k, j)`: pack `U_kj` (`u`, ld `wk`) and the blocked
/// segments not packed yet, and compute the small-shape products into the
/// arena's buffer. Returns the start of the GEMM time, for [`apply`].
///
/// `seg(li)` is stage `k`'s segment `li` — its rows from the first on —
/// and leading dimension. The task's consecutive segments (those `mine`
/// selects) sit in consecutive rows of one panel — the packed panel of the
/// sequential code, a 2D rank's stacked share of it — so each run of
/// small ones is one kernel call.
pub(crate) fn gather<'a>(
    t: &UpdateTask<'_>,
    seg: &dyn Fn(usize) -> (&'a [f64], usize),
    u: &[f64],
    lpack: &mut SegmentPack,
    stats: &mut FactorStats,
    scratch: &mut FactorScratch,
) -> Instant {
    let started = Instant::now();
    let (wk, nuc) = (t.wk(), t.u_cols().len());
    let msmall = t.small_rows();
    ensure_len_f64(&mut scratch.temp, msmall * nuc, &mut scratch.grow_events);
    if t.segs().any(|(_, l)| t.blocked(l.rows.len())) {
        let len = packed_b_len(wk, nuc);
        let bpack = ensure_len_f64(&mut scratch.bpack, len, &mut scratch.grow_events);
        pack_b(wk, nuc, u, wk, bpack);
    }
    let mut row0 = 0usize;
    let mut segs = t.segs().peekable();
    while let Some((li, l)) = segs.next() {
        let (a, lda) = seg(li);
        if t.blocked(l.rows.len()) {
            lpack.pack(li, l.rows.len(), wk, a, lda);
            continue;
        }
        // a maximal run of adjacent small segments: one stacked call
        let mut mrun = l.rows.len();
        while let Some(&(_, nl)) = segs.peek() {
            if t.blocked(nl.rows.len()) {
                break;
            }
            mrun += nl.rows.len();
            segs.next();
        }
        let c = &mut scratch.temp[row0..];
        dgemm_naive(mrun, nuc, wk, 1.0, a, lda, u, wk, 0.0, c, msmall);
        stats.update_gemm_calls += 1;
        stats.update_gemm_rows_max = stats.update_gemm_rows_max.max(mrun as u64);
        row0 += mrun;
    }
    started
}

/// Phase 2 of `Update(k, j)`: subtract the blocked products (fused, from
/// the packed operands; GEMM time since `started`), then the buffered
/// small ones (scatter time), from their destinations.
pub(crate) fn apply(
    t: &UpdateTask<'_>,
    started: Instant,
    lpack: &SegmentPack,
    dest: &mut ColBlock,
    stats: &mut FactorStats,
    scratch: &FactorScratch,
) {
    let (k, j, wk) = (t.k, t.j, t.wk());
    let (u_cols, lo_j) = (t.u_cols(), t.pattern.part.start(j) as u32);
    let (nuc, msmall) = (u_cols.len(), t.small_rows());
    let (mut row0, mut timer) = (0usize, started);
    for blocked_pass in [true, false] {
        for (li, l) in t.segs() {
            let (i, mrows) = (l.i as usize, l.rows.len());
            if t.blocked(mrows) != blocked_pass {
                continue;
            }
            // an L destination's rows and a U destination's columns come
            // from the symbolic map; the other indices are global, based
            // at the destination block's first row / column
            let map = t.pattern.scatter_map(k, li, t.uj);
            let lo_i = t.pattern.part.start(i) as u32;
            let (rows, row0_i) = if i > j { (map, 0) } else { (&l.rows[..], lo_i) };
            let (cols, col0) = if i < j { (map, 0) } else { (u_cols, lo_j) };
            let (block, ld) = dest_block(dest, i, j).unwrap_or((&mut [], 0));
            let to = Scatter {
                rows,
                row0: row0_i,
                cols,
                col0,
                ld,
            };
            let dropped = if blocked_pass {
                stats.update_gemm_calls += 1;
                stats.update_gemm_rows_max = stats.update_gemm_rows_max.max(mrows as u64);
                let a = lpack.get(li);
                dgemm_packed_sub_scatter(mrows, nuc, wk, a, &scratch.bpack, block, &to)
            } else {
                row0 += mrows;
                let src = &scratch.temp[row0 - mrows..];
                scatter_sub(mrows, nuc, src, msmall, block, &to)
            };
            debug_assert_eq!(
                dropped, 0.0,
                "nonzero update ({k},{j}) into a missing slot of block {i}"
            );
        }
        let now = Instant::now();
        let secs = (now - timer).as_secs_f64();
        if blocked_pass {
            stats.update_gemm_secs += secs;
        } else {
            stats.update_scatter_secs += secs;
        }
        timer = now;
    }
    let mtot: usize = t.segs().map(|(_, l)| l.rows.len()).sum();
    stats.gemm_flops += (2 * mtot * nuc * wk) as u64;
}

#[cfg(test)]
mod tests {
    use crate::seq::{factor_sequential, tests::build};
    use splu_sparse::gen::{self, ValueModel};

    /// The census counts exactly the products the sequential driver runs:
    /// its flops are the driver's `gemm_flops`, and the driver issues one
    /// kernel call per blocked product plus at most one per small one.
    #[test]
    fn census_matches_the_sequential_driver() {
        for (a, r, bsize) in [
            (gen::grid2d(12, 11, 0.4, ValueModel::default()), 4, 8),
            (
                gen::random_sparse(160, 5, 0.5, ValueModel::default()),
                4,
                25,
            ),
        ] {
            let mut m = build(&a, r, bsize);
            let c = m.pattern.update_shapes();
            let (_, st) = factor_sequential(&mut m).unwrap();
            assert_eq!(c.flops, st.gemm_flops);
            assert!(c.products > c.small_products && c.small_products > 0);
            let blocked = c.products - c.small_products;
            assert!(st.update_gemm_calls > blocked && st.update_gemm_calls <= c.products);
            assert!(c.packed_l_elems > 0 && c.small_flops < c.flops);
        }
    }
}
