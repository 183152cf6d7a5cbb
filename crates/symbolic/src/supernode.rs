//! Supernode partitioning and amalgamation (§3.2–3.3 of the paper).
//!
//! A supernode is a group of consecutive columns with nested L structure:
//! `P_{k+1} = P_k \ {k}`. The static symbolic factorization finds the
//! fundamental supernodes as it goes and stores the structure once per
//! supernode ([`StaticStructure::starts`]), so partitioning only caps their
//! widths. Theorem 1 then guarantees that applying the same partition to
//! the rows yields U blocks made of structurally dense subcolumns.
//!
//! Supernodes in real sparse matrices average only 1.5–2 columns, which
//! makes tasks too fine-grained; [`amalgamate`] merges *consecutive*
//! supernodes whose structures differ by at most `r` rows (the
//! amalgamation factor; the paper finds r ∈ [4, 6] best, giving 10–60 %
//! sequential improvement). Merging only consecutive supernodes needs no
//! row/column permutation, so it cannot invalidate the static symbolic
//! factorization — the price is a few padded zero entries, making blocks
//! "almost dense" (Corollary 3).

use crate::symfact::StaticStructure;

/// A partition of the `n` columns (and rows) into `N` consecutive blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodePartition {
    /// Block boundaries: block `b` spans columns `starts[b]..starts[b+1]`;
    /// `starts.len() == nblocks + 1`, `starts[0] == 0`,
    /// `starts[nblocks] == n`.
    pub starts: Vec<usize>,
}

impl SupernodePartition {
    /// Number of blocks `N`.
    pub fn nblocks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Matrix order `n`.
    pub fn n(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// First column of block `b` (the paper's `S(b)`).
    pub fn start(&self, b: usize) -> usize {
        self.starts[b]
    }

    /// Width of block `b`.
    pub fn width(&self, b: usize) -> usize {
        self.starts[b + 1] - self.starts[b]
    }

    /// Map each global index to its block id.
    pub fn block_of_index(&self) -> Vec<u32> {
        let mut map = vec![0u32; self.n()];
        for b in 0..self.nblocks() {
            for k in self.starts[b]..self.starts[b + 1] {
                map[k] = b as u32;
            }
        }
        map
    }

    /// Average block width.
    pub fn avg_width(&self) -> f64 {
        if self.nblocks() == 0 {
            0.0
        } else {
            self.n() as f64 / self.nblocks() as f64
        }
    }

    fn validate(&self) {
        assert!(!self.starts.is_empty() && self.starts[0] == 0);
        for w in self.starts.windows(2) {
            assert!(w[0] < w[1], "empty block in partition");
        }
    }
}

/// Cap the fundamental supernodes of the static structure at
/// `max_width` columns (the paper uses block size 25: bigger blocks reduce
/// available parallelism, smaller ones reduce BLAS-3 efficiency). A
/// supernode wider than the cap is cut into `max_width`-wide pieces from
/// its first column.
pub fn partition_supernodes(s: &StaticStructure, max_width: usize) -> SupernodePartition {
    assert!(max_width >= 1);
    let mut starts = Vec::with_capacity(s.starts().len());
    for w in s.starts().windows(2) {
        starts.extend((w[0]..w[1]).step_by(max_width));
    }
    starts.push(s.n());
    let p = SupernodePartition { starts };
    p.validate();
    p
}

/// Amalgamate consecutive supernodes whose structures differ by at most
/// `r` entries (the amalgamation factor). `r = 0` returns the input
/// partition. The difference measure between adjacent supernodes `s`
/// (ending at column `e-1`) and `t` (starting at `e`) is the number of
/// rows in the *last* column of `s` (beyond the columns of `t` themselves)
/// that are **not** in the *first* column of `t` — the rows that would
/// become padded zeros in the merged supernode's lower panel.
/// The merged width is still capped at `max_width`.
///
/// This is the O(n) consecutive-only strategy of §3.3: no permutation is
/// introduced, so the correctness of the static symbolic factorization is
/// unaffected.
pub fn amalgamate(
    s: &StaticStructure,
    base: &SupernodePartition,
    r: usize,
    max_width: usize,
) -> SupernodePartition {
    if r == 0 {
        return base.clone();
    }
    let mut starts: Vec<usize> = Vec::with_capacity(base.starts.len());
    starts.push(0);
    let mut cur_start = 0usize;
    for b in 1..base.nblocks() {
        let boundary = base.starts[b];
        let merged_width = base.starts[b + 1] - cur_start;
        let diff = structure_difference(s, boundary);
        if diff <= r
            && merged_width <= max_width
            && etree_child_of_next(s, boundary, base.starts[b + 1])
        {
            // merge: skip this boundary
            continue;
        }
        starts.push(boundary);
        cur_start = boundary;
    }
    starts.push(s.n());
    let p = SupernodePartition { starts };
    p.validate();
    p
}

/// Is the supernode ending at `boundary - 1` the elimination-tree child
/// of the one starting at `boundary`? True iff the first subdiagonal row
/// of its last static L column lands inside the next supernode's column
/// span `[boundary, next_end)` — the column-etree parent relation lifted
/// to supernodes. Amalgamation merges only such pairs: two *structurally
/// disjoint* neighbours can also score a tiny [`structure_difference`]
/// (both columns near-empty), but merging them welds independent
/// elimination subtrees into one block and collapses the subtree
/// parallelism the task-DAG planner (`splu_sched::plan_taskdag`) lives
/// on — on a bordered block-diagonal matrix it chains every diagonal
/// block through the merged boundary blocks.
fn etree_child_of_next(s: &StaticStructure, boundary: usize, next_end: usize) -> bool {
    s.lcol(boundary - 1)
        .iter()
        .map(|&r| r as usize)
        .find(|&r| r >= boundary)
        .is_some_and(|r| r < next_end)
}

/// Number of rows in `lcol(boundary - 1) \ ({boundary - 1} ∪ lcol(boundary))`:
/// the padded zeros per column that merging across `boundary` would add to
/// the lower panel.
fn structure_difference(s: &StaticStructure, boundary: usize) -> usize {
    let prev = s.lcol(boundary - 1);
    let next = s.lcol(boundary);
    let mut diff = 0usize;
    let mut j = 0usize;
    for &rowu in prev.iter() {
        if (rowu as usize) < boundary {
            continue; // the column index itself / above-boundary rows
        }
        while j < next.len() && next[j] < rowu {
            // row only in `next`: also a padded zero for the earlier column
            diff += 1;
            j += 1;
        }
        if j < next.len() && next[j] == rowu {
            j += 1;
        } else {
            diff += 1;
        }
    }
    diff + (next.len() - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symfact::static_symbolic_factorization;
    use splu_sparse::gen::{self, ValueModel};
    use splu_sparse::CooMatrix;

    fn dense_structure(n: usize) -> StaticStructure {
        let a = gen::dense_random(n, ValueModel::default());
        static_symbolic_factorization(&a)
    }

    #[test]
    fn dense_matrix_is_one_supernode_up_to_cap() {
        let s = dense_structure(10);
        let p = partition_supernodes(&s, 100);
        assert_eq!(p.nblocks(), 1);
        assert_eq!(p.width(0), 10);
        // with a cap, splits into equal chunks
        let p4 = partition_supernodes(&s, 4);
        assert_eq!(p4.starts, vec![0, 4, 8, 10]);
    }

    #[test]
    fn tridiagonal_has_singleton_supernodes() {
        let n = 9;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
                c.push(i - 1, i, -1.0);
            }
        }
        let s = static_symbolic_factorization(&c.to_csc());
        let p = partition_supernodes(&s, 25);
        // tridiagonal: P_k = {k, k+1}, P_{k+1} = {k+1, k+2} ≠ P_k \ {k}
        assert_eq!(p.nblocks(), n - 1);
        assert_eq!(p.width(0), 1);
        // ...except the last two columns which do nest: P_{n-1} = {n-1}
        assert_eq!(p.width(p.nblocks() - 1), 2);
    }

    #[test]
    fn partition_covers_all_columns() {
        let a = gen::grid2d(9, 9, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let p = partition_supernodes(&s, 25);
        assert_eq!(p.n(), 81);
        let map = p.block_of_index();
        assert_eq!(map.len(), 81);
        for b in 0..p.nblocks() {
            for k in p.start(b)..p.starts[b + 1] {
                assert_eq!(map[k] as usize, b);
            }
        }
    }

    #[test]
    fn nesting_within_supernodes_holds() {
        let a = gen::grid2d(8, 8, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let p = partition_supernodes(&s, 25);
        for b in 0..p.nblocks() {
            for k in p.start(b)..p.starts[b + 1] - 1 {
                assert_eq!(
                    s.lcol(k)[1..],
                    *s.lcol(k + 1),
                    "columns {k},{} in block {b} must nest",
                    k + 1
                );
            }
        }
    }

    #[test]
    fn the_cap_cuts_fundamental_supernodes_from_their_first_column() {
        let a = gen::grid2d(9, 9, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        assert_eq!(partition_supernodes(&s, usize::MAX).starts, s.starts());
        for cap in [1usize, 2, 3, 5] {
            let p = partition_supernodes(&s, cap);
            let mut want = vec![];
            for w in s.starts().windows(2) {
                let mut k = w[0];
                while k < w[1] {
                    want.push(k);
                    k += cap;
                }
            }
            want.push(s.n());
            assert_eq!(p.starts, want, "cap {cap}");
        }
    }

    #[test]
    fn amalgamation_reduces_block_count() {
        let a = gen::grid2d(10, 10, 0.3, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let base = partition_supernodes(&s, 25);
        let am = amalgamate(&s, &base, 6, 25);
        assert!(
            am.nblocks() < base.nblocks(),
            "amalgamation should merge some of {} blocks",
            base.nblocks()
        );
        assert!(am.avg_width() > base.avg_width());
        // r = 0 is the identity
        assert_eq!(amalgamate(&s, &base, 0, 25), base);
    }

    #[test]
    fn amalgamation_respects_width_cap() {
        let s = dense_structure(12);
        let base = partition_supernodes(&s, 3);
        let am = amalgamate(&s, &base, 100, 6);
        for b in 0..am.nblocks() {
            assert!(am.width(b) <= 6);
        }
    }

    #[test]
    fn amalgamation_monotone_in_r() {
        let a = gen::random_sparse(100, 4, 0.5, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let base = partition_supernodes(&s, 25);
        let mut prev = base.nblocks();
        for r in [1usize, 2, 4, 8, 16] {
            let am = amalgamate(&s, &base, r, 25);
            assert!(am.nblocks() <= prev, "r={r}");
            prev = am.nblocks();
        }
    }

    #[test]
    fn amalgamation_never_merges_independent_blocks() {
        // Two independent dense 3×3 diagonal blocks. The boundary between
        // them scores a tiny structure difference (the trailing column of
        // block 0 has no subdiagonal rows at all), so a difference-only
        // rule would merge them even at r = 1 — but they are separate
        // elimination-tree roots, and welding them would destroy the
        // subtree independence the task-DAG planner relies on.
        let mut c = CooMatrix::new(6, 6);
        for b in [0usize, 3] {
            for i in 0..3 {
                for j in 0..3 {
                    c.push(b + i, b + j, if i == j { 4.0 } else { 1.0 });
                }
            }
        }
        let s = static_symbolic_factorization(&c.to_csc());
        let base = partition_supernodes(&s, 25);
        assert_eq!(base.starts, vec![0, 3, 6]);
        for r in [1usize, 4, 100] {
            assert_eq!(
                amalgamate(&s, &base, r, 25).starts,
                vec![0, 3, 6],
                "r={r}: independent blocks must never amalgamate"
            );
        }
    }

    #[test]
    fn structure_difference_zero_for_nested() {
        // boundary between perfectly nested columns (a dense block split by
        // the width cap) has difference 0
        let s = dense_structure(8);
        assert_eq!(structure_difference(&s, 4), 0);
    }
}
