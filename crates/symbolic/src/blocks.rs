//! The 2D L/U block pattern (§3.2 of the paper).
//!
//! After supernode partitioning, the same partition is applied to the rows,
//! tiling the matrix into `N × N` submatrices. This module materializes
//! which blocks are structurally nonzero and their dense-structure masks:
//!
//! * an **L block** `L_IJ` (`I > J`) is a set of *dense subrows* spanning
//!   the full width of column block `J`,
//! * a **U block** `U_KJ` (`K < J`) is a set of *dense subcolumns* spanning
//!   the full height of row block `K` (Theorem 1; "almost dense" after
//!   amalgamation, Corollary 3),
//! * the **diagonal block** is stored dense.
//!
//! The numerical crates allocate one dense panel per present block and use
//! these masks to drive `DGEMM`/`DGEMV` updates; the scheduling crate uses
//! block presence to build the task graph (`Update(k, j)` exists iff
//! `U_kj ≠ 0`).

use crate::supernode::SupernodePartition;
use crate::symfact::StaticStructure;
use splu_kernels::{gemm_uses_blocked_path, packed_a_len};

/// Whether a U block is fully dense or only a subset of subcolumns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UBlockKind {
    /// Every subcolumn of the block is present (line 04 of `Update(k,j)`,
    /// Fig. 8: one DGEMM covers the whole block).
    Dense,
    /// Only the listed subcolumns are present (lines 06–08: per-subcolumn
    /// DGEMV path, or a packed DGEMM).
    SparseCols,
}

/// An L block's pattern: row-block id and present global rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LBlockPat {
    /// Row-block index `I` (`I > J` for the owning column block `J`).
    pub i: u32,
    /// Present global row indices, sorted (dense subrows of the block).
    pub rows: Vec<u32>,
}

/// A U block's pattern: column-block id and present global columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UBlockPat {
    /// Column-block index `J` (`J > K` for the owning row block `K`).
    pub j: u32,
    /// Present global column indices, sorted (dense subcolumns).
    pub cols: Vec<u32>,
    /// Dense or column-sparse.
    pub kind: UBlockKind,
}

/// The complete 2D block pattern of the static factors.
#[derive(Debug, Clone)]
pub struct BlockPattern {
    /// The (possibly amalgamated) supernode partition.
    pub part: SupernodePartition,
    /// `l_blocks[j]`: L blocks below the diagonal in column block `j`,
    /// sorted by row-block id.
    pub l_blocks: Vec<Vec<LBlockPat>>,
    /// `u_blocks[k]`: U blocks right of the diagonal in row block `k`,
    /// sorted by column-block id.
    pub u_blocks: Vec<Vec<UBlockPat>>,
    /// Precomputed scatter maps for every `Update(k, j)` destination pair
    /// (see [`BlockPattern::scatter_map`]).
    maps: ScatterMaps,
}

/// Flat storage of the precomputed `Update` scatter maps.
///
/// The map of source pair `(k, li, uj)` — L block `li` and U block `uj`
/// of stage `k`, both by *position* in their per-stage lists — occupies
/// `data[offsets[p]..offsets[p + 1]]` with
/// `p = pair_base[k] + li * u_blocks[k].len() + uj`. The numeric drivers
/// read these instead of re-merging index lists on every update task of
/// every (re)factorization; everything here is a function of the static
/// pattern only.
#[derive(Debug, Clone, Default)]
struct ScatterMaps {
    /// Concatenated position maps (`u32::MAX` = absent destination slot).
    data: Vec<u32>,
    /// `offsets[p]..offsets[p + 1]` bounds pair `p`'s map in `data`.
    offsets: Vec<usize>,
    /// First pair index of each source stage `k`.
    pair_base: Vec<usize>,
}

impl ScatterMaps {
    fn build(l_blocks: &[Vec<LBlockPat>], u_blocks: &[Vec<UBlockPat>]) -> Self {
        let nb = l_blocks.len();
        let mut pair_base = Vec::with_capacity(nb);
        let mut npairs = 0usize;
        for k in 0..nb {
            pair_base.push(npairs);
            npairs += l_blocks[k].len() * u_blocks[k].len();
        }
        let mut offsets = Vec::with_capacity(npairs + 1);
        offsets.push(0usize);
        let mut data: Vec<u32> = Vec::new();
        for k in 0..nb {
            for l in &l_blocks[k] {
                let i = l.i as usize;
                for u in &u_blocks[k] {
                    let j = u.j as usize;
                    use std::cmp::Ordering::*;
                    match i.cmp(&j) {
                        // Diagonal destination: contiguous, no map needed.
                        Equal => {}
                        // Rows of L_ik within the destination L block (i, j).
                        // An absent destination (pure padding) maps to MAX.
                        Greater => match find_l(&l_blocks[j], i) {
                            Some(d) => merge_positions(&l.rows, &d.rows, &mut data),
                            None => data.extend(l.rows.iter().map(|_| u32::MAX)),
                        },
                        // Columns of U_kj within the destination U block (i, j).
                        Less => match find_u(&u_blocks[i], j) {
                            Some(d) => merge_positions(&u.cols, &d.cols, &mut data),
                            None => data.extend(u.cols.iter().map(|_| u32::MAX)),
                        },
                    }
                    offsets.push(data.len());
                }
            }
        }
        Self {
            data,
            offsets,
            pair_base,
        }
    }
}

/// Overwrite `out` with the sorted union of the sorted `lists`, using
/// `seen` (stamped with `stamp`) to drop repeats. A single list comes out
/// sorted as it is; only a union of several is sorted.
fn union_from<'a>(
    out: &mut Vec<u32>,
    seen: &mut [usize],
    stamp: usize,
    lists: impl Iterator<Item = &'a [u32]>,
) {
    out.clear();
    let mut nlists = 0;
    for list in lists {
        nlists += 1;
        for &x in list {
            if seen[x as usize] != stamp {
                seen[x as usize] = stamp;
                out.push(x);
            }
        }
    }
    if nlists > 1 {
        out.sort_unstable();
    }
}

fn find_l(v: &[LBlockPat], i: usize) -> Option<&LBlockPat> {
    v.binary_search_by_key(&(i as u32), |l| l.i)
        .ok()
        .map(|p| &v[p])
}

fn find_u(v: &[UBlockPat], j: usize) -> Option<&UBlockPat> {
    v.binary_search_by_key(&(j as u32), |u| u.j)
        .ok()
        .map(|p| &v[p])
}

/// For each element of `needles` (sorted), its position in `haystack`
/// (sorted), or `u32::MAX` if absent. Linear merge.
fn merge_positions(needles: &[u32], haystack: &[u32], out: &mut Vec<u32>) {
    let mut p = 0usize;
    for &g in needles {
        while p < haystack.len() && haystack[p] < g {
            p += 1;
        }
        if p < haystack.len() && haystack[p] == g {
            out.push(p as u32);
            p += 1;
        } else {
            out.push(u32::MAX);
        }
    }
}

impl BlockPattern {
    /// Build the block pattern from the static structure and a partition.
    ///
    /// Masks are unions over the block's columns/rows: inside a
    /// fundamental supernode the union equals every member (Theorem 1);
    /// across the fundamental pieces an amalgamated block joins, the union
    /// realizes the "almost dense" structures of Corollary 3.
    pub fn build(s: &StaticStructure, part: &SupernodePartition) -> Self {
        let mut bp = Self::build_masks(s, part);
        // Second pass: with every block's mask known, precompute the
        // scatter maps so the numeric update loops never merge index
        // lists again (the `Arc<BlockPattern>` shared by the solver cache
        // amortizes this over all refactorizations).
        bp.maps = ScatterMaps::build(&bp.l_blocks, &bp.u_blocks);
        bp
    }

    /// Build the block pattern **without** the precomputed scatter maps.
    ///
    /// The maps exist purely for the numeric update loops; on large
    /// modeling-only pipelines (task-graph construction, schedule
    /// simulation) they dominate both build time and resident memory —
    /// gigabytes on the n ≥ 50k suite matrices — so the scheduling path
    /// skips them. Calling [`BlockPattern::scatter_map`] on a pattern
    /// built this way panics.
    pub fn build_structural(s: &StaticStructure, part: &SupernodePartition) -> Self {
        Self::build_masks(s, part)
    }

    fn build_masks(s: &StaticStructure, part: &SupernodePartition) -> Self {
        let nb = part.nblocks();
        let block_of = part.block_of_index();
        let mut l_blocks: Vec<Vec<LBlockPat>> = Vec::with_capacity(nb);
        let mut u_blocks: Vec<Vec<UBlockPat>> = Vec::with_capacity(nb);
        let mut seen = vec![usize::MAX; s.n()];
        let mut rows: Vec<u32> = Vec::new();
        let mut cols: Vec<u32> = Vec::new();

        for b in 0..nb {
            let lo = part.start(b);
            let hi = part.starts[b + 1];
            // The fundamental supernodes the block meets. Inside one, each
            // column's lists drop only the column's own index, so the
            // first column the block holds (`max(lo, start)`) represents
            // the piece for every index ≥ hi.
            let pieces = s.supernode_of(lo)..=s.supernode_of(hi - 1);
            let rep = |sn: usize| lo.max(s.starts()[sn]);
            let at_or_after_hi = |v: &'_ [u32]| -> std::ops::Range<usize> {
                v.partition_point(|&x| (x as usize) < hi)..v.len()
            };

            union_from(
                &mut rows,
                &mut seen,
                2 * b,
                pieces.clone().map(|sn| {
                    let l = s.sn_lcol(sn, rep(sn));
                    &l[at_or_after_hi(l)]
                }),
            );
            let mut lb: Vec<LBlockPat> = Vec::new();
            for &r in &rows {
                let ib = block_of[r as usize];
                match lb.last_mut() {
                    Some(last) if last.i == ib => last.rows.push(r),
                    _ => lb.push(LBlockPat {
                        i: ib,
                        rows: vec![r],
                    }),
                }
            }
            l_blocks.push(lb);

            union_from(
                &mut cols,
                &mut seen,
                2 * b + 1,
                pieces.map(|sn| {
                    let u = s.sn_urow(sn, rep(sn));
                    &u[at_or_after_hi(u)]
                }),
            );
            let mut ub: Vec<UBlockPat> = Vec::new();
            for &c in &cols {
                let jb = block_of[c as usize];
                match ub.last_mut() {
                    Some(last) if last.j == jb => last.cols.push(c),
                    _ => ub.push(UBlockPat {
                        j: jb,
                        cols: vec![c],
                        kind: UBlockKind::SparseCols,
                    }),
                }
            }
            for u in &mut ub {
                if u.cols.len() == part.width(u.j as usize) {
                    u.kind = UBlockKind::Dense;
                }
            }
            u_blocks.push(ub);
        }

        Self {
            part: part.clone(),
            l_blocks,
            u_blocks,
            maps: ScatterMaps::default(),
        }
    }

    /// Number of blocks per side.
    pub fn nblocks(&self) -> usize {
        self.part.nblocks()
    }

    /// The U block `(k, j)` if present (`k < j`).
    pub fn u_block(&self, k: usize, j: usize) -> Option<&UBlockPat> {
        let v = &self.u_blocks[k];
        v.binary_search_by_key(&(j as u32), |u| u.j)
            .ok()
            .map(|p| &v[p])
    }

    /// The L block `(i, j)` if present (`i > j`).
    pub fn l_block(&self, i: usize, j: usize) -> Option<&LBlockPat> {
        let v = &self.l_blocks[j];
        v.binary_search_by_key(&(i as u32), |l| l.i)
            .ok()
            .map(|p| &v[p])
    }

    /// The precomputed scatter map of source pair `(k, li, uj)`:
    /// L block `self.l_blocks[k][li]` (destination row block `i`) updating
    /// U block `self.u_blocks[k][uj]` (destination column block `j`).
    ///
    /// * `i > j` — one entry per source row: its position within the
    ///   destination L block `(i, j)`'s `rows`, or `u32::MAX` if the row
    ///   is pure padding there (its contribution is exactly zero);
    /// * `i < j` — one entry per source U column: its position within the
    ///   destination U block `(i, j)`'s `cols`, likewise MAX-masked;
    /// * `i == j` — empty: the diagonal panel is indexed directly.
    pub fn scatter_map(&self, k: usize, li: usize, uj: usize) -> &[u32] {
        let p = self.maps.pair_base[k] + li * self.u_blocks[k].len() + uj;
        &self.maps.data[self.maps.offsets[p]..self.maps.offsets[p + 1]]
    }

    /// Total `u32` entries held by the precomputed scatter maps — the
    /// memory cost of owning them (reported alongside
    /// [`BlockPattern::storage_entries`]; multiply by 4 for bytes).
    pub fn scatter_map_entries(&self) -> usize {
        self.maps.data.len()
    }

    /// Resident bytes of the scatter-map storage (entries + offset
    /// tables).
    pub fn scatter_map_bytes(&self) -> usize {
        self.maps.data.len() * std::mem::size_of::<u32>()
            + (self.maps.offsets.len() + self.maps.pair_base.len()) * std::mem::size_of::<usize>()
    }

    /// Column blocks `j > k` with `U_kj ≠ 0` — the targets of
    /// `Update(k, j)` tasks.
    pub fn update_targets(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        self.u_blocks[k].iter().map(|u| u.j as usize)
    }

    /// Dense-storage entry count: what the block representation actually
    /// allocates (padding included). Diagonal blocks count as full
    /// squares; L blocks as `rows.len() × width`; U blocks as
    /// `height × cols.len()`.
    pub fn storage_entries(&self) -> usize {
        let mut total = 0usize;
        for b in 0..self.nblocks() {
            let w = self.part.width(b);
            total += w * w;
            for l in &self.l_blocks[b] {
                total += l.rows.len() * w;
            }
            for u in &self.u_blocks[b] {
                total += u.cols.len() * w; // height of row block b is w
            }
        }
        total
    }

    /// Fraction of the `Update` flops that run as full-block DGEMM
    /// (both `U_kj` dense), the paper's measured `r ≈ 0.65`.
    /// The remainder runs as per-subcolumn updates.
    pub fn dense_update_fraction(&self) -> f64 {
        let mut dense = 0u64;
        let mut total = 0u64;
        for k in 0..self.nblocks() {
            let wk = self.part.width(k) as u64;
            let lrows: u64 = self.l_blocks[k].iter().map(|l| l.rows.len() as u64).sum();
            for u in &self.u_blocks[k] {
                let flops = 2 * lrows * wk * u.cols.len() as u64;
                total += flops;
                if u.kind == UBlockKind::Dense {
                    dense += flops;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            dense as f64 / total as f64
        }
    }

    /// The shape census of the numeric update's segment products.
    pub fn update_shapes(&self) -> UpdateShapes {
        let mut c = UpdateShapes::default();
        for k in 0..self.nblocks() {
            let wk = self.part.width(k);
            for l in &self.l_blocks[k] {
                let len = l.rows.len();
                let mut packed = false;
                for u in self.u_blocks[k].iter().filter(|u| !u.cols.is_empty()) {
                    let nuc = u.cols.len();
                    let flops = (2 * len * nuc * wk) as u64;
                    c.products += 1;
                    c.rows += len as u64;
                    c.flops += flops;
                    if gemm_uses_blocked_path(len, nuc, wk) {
                        packed = true;
                    } else {
                        c.small_products += 1;
                        c.small_flops += flops;
                    }
                }
                if packed {
                    c.packed_l_elems += packed_a_len(len, wk) as u64;
                }
            }
        }
        c
    }

    /// Rows of block column `k`'s L panel (every L block below the
    /// diagonal block).
    pub fn l_height(&self, k: usize) -> u64 {
        self.l_blocks[k].iter().map(|l| l.rows.len() as u64).sum()
    }

    /// The flops of one factorization, fixed by the pattern before any
    /// value is seen: the sum of every task's [`factor_task_flops`] and
    /// [`update_task_flops`] (equal to `FactorStats::{gemm_flops +
    /// other_flops}`).
    pub fn factor_flops(&self) -> u64 {
        let mut flops = 0;
        for k in 0..self.nblocks() {
            let wk = self.part.width(k) as u64;
            let nl = self.l_height(k);
            flops += factor_task_flops(wk, nl);
            for u in &self.u_blocks[k] {
                flops += update_task_flops(wk, nl, u.cols.len() as u64);
            }
        }
        flops
    }

    /// The supernode-width census against the width cap `cap`
    /// (`FactorOptions::block_size`): the widest block, the blocks the
    /// cap cut to exactly `cap` columns, and the update flops those
    /// blocks issue as sources.
    pub fn width_census(&self, cap: usize) -> WidthCensus {
        let mut c = WidthCensus::default();
        let mut total = 0u64;
        for k in 0..self.nblocks() {
            let wk = self.part.width(k);
            let lrows: u64 = self.l_blocks[k].iter().map(|l| l.rows.len() as u64).sum();
            let ucols: u64 = self.u_blocks[k].iter().map(|u| u.cols.len() as u64).sum();
            let flops = 2 * lrows * ucols * wk as u64;
            total += flops;
            c.max_width = c.max_width.max(wk);
            if wk == cap {
                c.at_cap += 1;
                c.at_cap_flops += flops;
            }
        }
        c.at_cap_flop_share = c.at_cap_flops as f64 / total.max(1) as f64;
        c
    }
}

/// Flops of the panel factorization `Factor(k)` of a block `w` columns
/// wide over an L panel of `nl` rows: per step `t`, the pivot search and
/// scaling of the column below the diagonal, then the rank-1 update of
/// the trailing `w - t - 1` columns.
pub fn factor_task_flops(w: u64, nl: u64) -> u64 {
    (0..w)
        .map(|t| {
            let below = w - t - 1 + nl;
            below + 2 * (w - t - 1) * below
        })
        .sum()
}

/// Flops of an update `Update(k, j)` from a source block `w` columns wide
/// with an L panel of `nl` rows into `nuc` nonzero columns of block `j`:
/// the TRSM (`w² · nuc`) plus the GEMM (`2 · nl · w · nuc`).
pub fn update_task_flops(w: u64, nl: u64, nuc: u64) -> u64 {
    w * w * nuc + 2 * nl * w * nuc
}

/// Supernode widths against the width cap ([`BlockPattern::width_census`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WidthCensus {
    /// The widest block.
    pub max_width: usize,
    /// Blocks exactly as wide as the cap.
    pub at_cap: usize,
    /// Update flops issued by the blocks at the cap.
    pub at_cap_flops: u64,
    /// Their share of all update flops.
    pub at_cap_flop_share: f64,
}

/// Shape census of the update products one sequential factorization
/// issues (one product per `L` segment per `Update(k, j)`), split at the
/// blocked-kernel boundary ([`gemm_uses_blocked_path`]) the numeric update
/// dispatches on ([`BlockPattern::update_shapes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateShapes {
    /// Segment products (`L_ik · U_kj` pairs).
    pub products: u64,
    /// Rows summed over all products.
    pub rows: u64,
    /// Products below the blocked boundary (stacked axpy kernel).
    pub small_products: u64,
    /// Flops of all products (equals `FactorStats::gemm_flops`).
    pub flops: u64,
    /// Flops of the products below the blocked boundary.
    pub small_flops: u64,
    /// `L` elements packed for the blocked kernel (each segment that some
    /// blocked product reads is packed once per stage, padded to whole
    /// micro-panels).
    pub packed_l_elems: u64,
}

impl UpdateShapes {
    /// Mean rows per product.
    pub fn mean_rows(&self) -> f64 {
        self.rows as f64 / self.products.max(1) as f64
    }

    /// Share of products below the blocked boundary.
    pub fn small_product_share(&self) -> f64 {
        self.small_products as f64 / self.products.max(1) as f64
    }

    /// Share of flops below the blocked boundary.
    pub fn small_flop_share(&self) -> f64 {
        self.small_flops as f64 / self.flops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernode::{amalgamate, partition_supernodes};
    use crate::symfact::static_symbolic_factorization;
    use splu_sparse::gen::{self, ValueModel};

    fn build(a: &splu_sparse::CscMatrix, r: usize) -> (StaticStructure, BlockPattern) {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, 25);
        let part = amalgamate(&s, &base, r, 25);
        let bp = BlockPattern::build(&s, &part);
        (s, bp)
    }

    #[test]
    fn theorem1_u_blocks_are_dense_subcolumns_pre_amalgamation() {
        // Without amalgamation, every U block subcolumn must be present in
        // EVERY row of its supernode: cols ∈ urow(k) for all k in block.
        let a = gen::grid2d(8, 8, 0.3, ValueModel::default());
        let (s, bp) = build(&a, 0);
        for k in 0..bp.nblocks() {
            let lo = bp.part.start(k);
            let hi = bp.part.starts[k + 1];
            for u in &bp.u_blocks[k] {
                for &c in &u.cols {
                    for row in lo..hi {
                        assert!(
                            s.urow(row).binary_search(&c).is_ok(),
                            "U block ({k},{}) col {c} missing from row {row}",
                            u.j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corollary1_nesting_down_the_column_block() {
        // If U_{i',j} has dense subcolumn c and L_{i',i'} nonzero with
        // i < i' < j and U_{i,j} nonzero, then U_{i,j} has subcolumn c...
        // Equivalently (what the implementation must satisfy): masks nest
        // upward for blocks in the same column when the lower row block is
        // reachable. We verify the mask-union construction keeps Corollary
        // 1's consequence used by the numeric code: every fill target of
        // Update(k,j) exists.
        let a = gen::random_sparse(120, 4, 0.5, ValueModel::default());
        let (_s, bp) = build(&a, 0);
        for k in 0..bp.nblocks() {
            for u in &bp.u_blocks[k] {
                let j = u.j as usize;
                for l in &bp.l_blocks[k] {
                    let i = l.i as usize;
                    // destination block (i, j): diag, L, or U — must exist
                    if i == j {
                        continue; // diagonal always allocated
                    } else if i > j {
                        assert!(
                            bp.l_block(i, j).is_some(),
                            "missing L dest ({i},{j}) for update from {k}"
                        );
                        // and every source row must be present there
                        for &r in &l.rows {
                            assert!(
                                bp.l_block(i, j).unwrap().rows.binary_search(&r).is_ok(),
                                "row {r} missing in L dest ({i},{j})"
                            );
                        }
                    } else {
                        let dest = bp.u_block(i, j).expect("missing U dest");
                        for &c in &u.cols {
                            assert!(
                                dest.cols.binary_search(&c).is_ok(),
                                "col {c} missing in U dest ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_matrix_all_blocks_dense() {
        let a = gen::dense_random(30, ValueModel::default());
        let (_s, bp) = build(&a, 0);
        let nb = bp.nblocks();
        for k in 0..nb {
            assert_eq!(bp.u_blocks[k].len(), nb - k - 1);
            for u in &bp.u_blocks[k] {
                assert_eq!(u.kind, UBlockKind::Dense);
            }
            assert_eq!(bp.l_blocks[k].len(), nb - k - 1);
            for l in &bp.l_blocks[k] {
                assert_eq!(l.rows.len(), bp.part.width(l.i as usize));
            }
        }
        assert!((bp.dense_update_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(bp.storage_entries(), 900);
    }

    #[test]
    fn storage_at_least_static_nnz() {
        let a = gen::grid2d(9, 7, 0.4, ValueModel::default());
        let (s, bp) = build(&a, 4);
        assert!(bp.storage_entries() >= s.factor_nnz());
    }

    #[test]
    fn update_targets_match_u_blocks() {
        let a = gen::random_sparse(90, 3, 0.6, ValueModel::default());
        let (_s, bp) = build(&a, 4);
        for k in 0..bp.nblocks() {
            let t: Vec<usize> = bp.update_targets(k).collect();
            assert_eq!(t.len(), bp.u_blocks[k].len());
            for j in &t {
                assert!(*j > k);
                assert!(bp.u_block(k, *j).is_some());
            }
            // sorted strictly increasing
            for w in t.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    /// Oracle: every precomputed scatter map must equal a fresh linear
    /// merge of the source index list against the destination mask.
    fn check_maps_match_fresh_merge(bp: &BlockPattern) {
        for k in 0..bp.nblocks() {
            for (li, l) in bp.l_blocks[k].iter().enumerate() {
                let i = l.i as usize;
                for (uj, u) in bp.u_blocks[k].iter().enumerate() {
                    let j = u.j as usize;
                    let map = bp.scatter_map(k, li, uj);
                    let mut want = Vec::new();
                    use std::cmp::Ordering::*;
                    match i.cmp(&j) {
                        Equal => {}
                        Greater => {
                            let empty: &[u32] = &[];
                            let dest = bp.l_block(i, j).map_or(empty, |d| &d.rows);
                            merge_positions(&l.rows, dest, &mut want);
                        }
                        Less => {
                            let empty: &[u32] = &[];
                            let dest = bp.u_block(i, j).map_or(empty, |d| &d.cols);
                            merge_positions(&u.cols, dest, &mut want);
                        }
                    }
                    assert_eq!(map, &want[..], "map for (k={k}, li={li}, uj={uj})");
                    // present entries really index the matching row/col
                    for (s, &pos) in map.iter().enumerate() {
                        if pos == u32::MAX {
                            continue;
                        }
                        match i.cmp(&j) {
                            Greater => {
                                assert_eq!(bp.l_block(i, j).unwrap().rows[pos as usize], l.rows[s])
                            }
                            Less => {
                                assert_eq!(bp.u_block(i, j).unwrap().cols[pos as usize], u.cols[s])
                            }
                            Equal => unreachable!(),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_maps_match_fresh_merges() {
        for (mat, r) in [
            (gen::grid2d(8, 8, 0.3, ValueModel::default()), 0),
            (gen::random_sparse(120, 4, 0.5, ValueModel::default()), 4),
            (gen::dense_random(30, ValueModel::default()), 0),
        ] {
            let (_s, bp) = build(&mat, r);
            check_maps_match_fresh_merge(&bp);
            assert!(bp.scatter_map_bytes() >= bp.scatter_map_entries() * 4);
        }
    }

    #[test]
    fn scatter_maps_cover_every_update_pair() {
        // Pre-amalgamation, Corollary 1 guarantees every destination slot
        // exists: no map entry may be MAX, and lengths match the sources.
        let a = gen::grid2d(9, 7, 0.4, ValueModel::default());
        let (_s, bp) = build(&a, 0);
        let mut entries = 0usize;
        for k in 0..bp.nblocks() {
            for (li, l) in bp.l_blocks[k].iter().enumerate() {
                for (uj, u) in bp.u_blocks[k].iter().enumerate() {
                    let map = bp.scatter_map(k, li, uj);
                    let (i, j) = (l.i as usize, u.j as usize);
                    if i == j {
                        assert!(map.is_empty());
                    } else if i > j {
                        assert_eq!(map.len(), l.rows.len());
                        assert!(map.iter().all(|&p| p != u32::MAX));
                    } else {
                        assert_eq!(map.len(), u.cols.len());
                        assert!(map.iter().all(|&p| p != u32::MAX));
                    }
                    entries += map.len();
                }
            }
        }
        assert_eq!(entries, bp.scatter_map_entries());
    }

    #[test]
    fn width_census_splits_the_update_flops_at_the_cap() {
        let a = gen::grid2d(12, 12, 0.3, ValueModel::default());
        let (_s, bp) = build(&a, 4);
        let all = bp.update_shapes().flops;
        let widths: Vec<usize> = (0..bp.nblocks()).map(|b| bp.part.width(b)).collect();
        let widest = *widths.iter().max().unwrap();
        let c = bp.width_census(widest);
        assert_eq!(c.max_width, widest);
        assert_eq!(c.at_cap, widths.iter().filter(|&&w| w == widest).count());
        assert!(c.at_cap_flops <= all);
        // a cap no block reaches cuts nothing; summed over every width,
        // the per-width flops are the census's total
        assert_eq!(bp.width_census(widest + 1).at_cap, 0);
        let summed: u64 = (1..=widest).map(|w| bp.width_census(w).at_cap_flops).sum();
        assert_eq!(summed, all);
    }

    #[test]
    fn amalgamation_increases_dense_fraction() {
        let a = gen::grid2d(12, 12, 0.3, ValueModel::default());
        let (_s0, bp0) = build(&a, 0);
        let (_s1, bp1) = build(&a, 6);
        // bigger supernodes → more full-width dense U blocks (weak check:
        // not smaller by much)
        assert!(bp1.part.nblocks() < bp0.part.nblocks());
        assert!(bp1.storage_entries() >= bp0.storage_entries());
    }
}
