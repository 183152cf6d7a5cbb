//! Static symbolic factorization (George & Ng's scheme, §3.1 of the paper).
//!
//! At step `k`, the set of *candidate pivot rows* is
//! `P_k = { i ≥ k : a_ik is structurally nonzero in A^(k-1) }`.
//! Any of these rows may be chosen by partial pivoting, so the structure of
//! every candidate row is replaced by the union of all candidate
//! structures (restricted to columns ≥ k). After `n` steps the accumulated
//! pattern accommodates the fill of *any* pivot sequence.
//!
//! The production implementation ([`static_symbolic_factorization`])
//! exploits the observation at the heart of Theorem 1: after step `k`, all
//! candidate rows share one structure. Rows are therefore kept in *groups*
//! with a shared structure; step `k` merges the groups reachable from
//! column `k` (found through a column→group index) into one new group.
//!
//! The same observation makes most steps free. When the only candidate at
//! step `k` is the group step `k − 1` made, then `P_k = P_{k−1} \ {k−1}`
//! and `U_k = U_{k−1} \ {k−1}`: column `k` joins the *fundamental
//! supernode* of column `k − 1` (§3.2). Such a step merges, sorts and
//! copies nothing. The output is stored the same way: one L and one U
//! index list per fundamental supernode, those of its first column, with
//! every later column's lists read as suffixes ([`StaticStructure::lcol`],
//! [`StaticStructure::urow`]). Work and memory are proportional to the
//! structure stored once per supernode, not to `nnz(F)`.
//!
//! The textbook row-by-row version is kept as
//! [`naive_symbolic_factorization`], the per-column oracle the test suite
//! checks the supernodal form against.

use splu_sparse::CscMatrix;

/// The predicted static structures of the L and U factors, stored once
/// per fundamental supernode.
///
/// Fundamental supernode `s` spans columns `starts[s]..starts[s + 1]`.
/// Inside it, column `k + 1`'s static L column is column `k`'s minus its
/// first row `k`, and its static U row is row `k`'s minus its first
/// column `k` (Theorem 1). So the supernode keeps only the lists of its
/// first column, whose first `width` entries are the supernode's own
/// indices, and column `k`'s lists are their suffixes from offset
/// `k − starts[s]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticStructure {
    /// Fundamental supernode boundaries (`starts[0] == 0`, last `== n`).
    starts: Vec<usize>,
    /// `lrows[lptr[s]..lptr[s + 1]]`: sorted static L column `starts[s]`
    /// (diagonal included), the candidate pivot row set `P_{starts[s]}`.
    lptr: Vec<usize>,
    lrows: Vec<u32>,
    /// `ucols[uptr[s]..uptr[s + 1]]`: sorted static U row `starts[s]`
    /// (diagonal included), the union structure `U_{starts[s]}`.
    uptr: Vec<usize>,
    ucols: Vec<u32>,
}

impl StaticStructure {
    /// Matrix order.
    pub fn n(&self) -> usize {
        *self.starts.last().expect("starts end with the order n")
    }

    /// Fundamental supernode boundaries: supernode `s` spans columns
    /// `starts()[s]..starts()[s + 1]`.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// The fundamental supernode holding column `k`.
    pub(crate) fn supernode_of(&self, k: usize) -> usize {
        debug_assert!(k < self.n());
        self.starts.partition_point(|&s| s <= k) - 1
    }

    /// Static L column `k` (sorted rows, diagonal first): exactly the
    /// candidate pivot row set `P_k`.
    pub fn lcol(&self, k: usize) -> &[u32] {
        self.sn_lcol(self.supernode_of(k), k)
    }

    /// Static U row `k` (sorted columns, diagonal first): the union
    /// structure `U_k` at step `k`.
    pub fn urow(&self, k: usize) -> &[u32] {
        self.sn_urow(self.supernode_of(k), k)
    }

    /// [`StaticStructure::lcol`] of column `k` inside supernode `s`.
    pub(crate) fn sn_lcol(&self, s: usize, k: usize) -> &[u32] {
        &self.lrows[self.lptr[s] + (k - self.starts[s])..self.lptr[s + 1]]
    }

    /// [`StaticStructure::urow`] of row `k` inside supernode `s`.
    pub(crate) fn sn_urow(&self, s: usize, k: usize) -> &[u32] {
        &self.ucols[self.uptr[s] + (k - self.starts[s])..self.uptr[s + 1]]
    }

    /// Index entries actually stored: one L and one U list per supernode.
    pub fn stored_entries(&self) -> usize {
        self.lrows.len() + self.ucols.len()
    }

    /// Resident bytes of the stored structure (index lists and offsets).
    pub fn stored_bytes(&self) -> usize {
        use std::mem::size_of;
        self.stored_entries() * size_of::<u32>()
            + (self.starts.len() + self.lptr.len() + self.uptr.len()) * size_of::<usize>()
    }

    /// `(width, |L list|, |U list|)` of every fundamental supernode.
    fn supernodes(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.starts.len() - 1).map(|s| {
            (
                self.starts[s + 1] - self.starts[s],
                self.lptr[s + 1] - self.lptr[s],
                self.uptr[s + 1] - self.uptr[s],
            )
        })
    }

    /// Total predicted factor entries, counting the diagonal once
    /// (the paper's "factor entries" statistic for S\* in Table 1).
    pub fn factor_nnz(&self) -> usize {
        // a supernode of width w whose first lists hold l and u entries
        // contributes Σ_{t<w} (l - t) + (u - t) - 1 (diagonal counted once)
        self.supernodes()
            .map(|(w, l, u)| w * (l + u - 1) - w * (w - 1))
            .sum()
    }

    /// Predicted floating-point operations for an LU factorization that
    /// touches every static entry: `Σ_k nnzL_k + 2 · nnzL_k · nnzU_k`
    /// where `nnzL_k` excludes and `nnzU_k` excludes the diagonal.
    pub fn predicted_flops(&self) -> u64 {
        self.supernodes()
            .map(|(w, l, u)| {
                (0..w)
                    .map(|t| {
                        let l = (l - 1 - t) as u64;
                        let u = (u - 1 - t) as u64;
                        l + 2 * l * u
                    })
                    .sum::<u64>()
            })
            .sum()
    }

    /// Whether `(i, j)` is in the static pattern (L ∪ U).
    pub fn contains(&self, i: usize, j: usize) -> bool {
        if i >= j {
            self.lcol(j).binary_search(&(i as u32)).is_ok()
        } else {
            self.urow(i).binary_search(&(j as u32)).is_ok()
        }
    }
}

/// End of a column's singly linked list of supernode groups.
const NIL: u32 = u32::MAX;

/// Group-based static symbolic factorization, emitting the supernodal
/// [`StaticStructure`] directly.
///
/// # Panics
/// Panics if the matrix is not square or lacks a structurally zero-free
/// diagonal (run `splu_order::preprocess` first).
pub fn static_symbolic_factorization(a: &CscMatrix) -> StaticStructure {
    assert_eq!(
        a.nrows(),
        a.ncols(),
        "symbolic factorization needs square A"
    );
    assert!(
        a.has_zero_free_diagonal(),
        "static symbolic factorization requires a zero-free diagonal"
    );
    let n = a.ncols();
    let at = a.transpose(); // rows of A

    // Row groups. Until it is first a candidate, row i is a group of its
    // own: its structure is row i of A, and column k's list of such groups
    // is column k of A. The step that starts supernode s makes group s:
    // rows P_{starts[s]} \ {starts[s]} and structure U_{starts[s]}, read
    // in place from the output lists. While s grows, each step drops the
    // group's first row and first structure column, so at width w its rows
    // are lrows[lptr[s] + w..] and its structure ucols[uptr[s] + w..].
    let mut row_alive = vec![true; n];
    let mut sn_alive: Vec<bool> = Vec::new();
    // Column c → supernode groups whose structure holds c, as linked
    // lists: head[c], then link[e] = (next entry, supernode).
    let mut head = vec![NIL; n];
    let mut link: Vec<(u32, u32)> = Vec::new();

    let mut out = StaticStructure {
        starts: vec![],
        lptr: vec![0],
        lrows: Vec::new(),
        uptr: vec![0],
        ucols: Vec::new(),
    };
    let mut cand_rows: Vec<u32> = Vec::new();
    let mut cand_sns: Vec<u32> = Vec::new();
    let mut extra: Vec<u32> = Vec::new();
    let mut seen = vec![usize::MAX; n]; // column → last step that listed it

    for k in 0..n {
        cand_rows.clear();
        cand_rows.extend(a.col(k).0.iter().filter(|&&i| row_alive[i as usize]));
        cand_sns.clear();
        let mut e = head[k];
        while e != NIL {
            let (next, s) = link[e as usize];
            if sn_alive[s as usize] {
                cand_sns.push(s);
            }
            e = next;
        }

        // Current width of supernode group s at step k.
        let width = |out: &StaticStructure, s: usize| {
            out.starts.get(s + 1).copied().unwrap_or(k) - out.starts[s]
        };
        let last = out.starts.len().wrapping_sub(1);
        if cand_rows.is_empty() && cand_sns.len() == 1 && cand_sns[0] as usize == last {
            // Column k joins supernode `last`; its group gives up row k.
            let w = width(&out, last) + 1;
            debug_assert_eq!(out.lrows[out.lptr[last] + w - 1], k as u32);
            if out.lptr[last] + w == out.lptr[last + 1] {
                sn_alive[last] = false;
            }
            continue;
        }

        // A new supernode starts at k: retire every candidate group into
        // one with rows P_k \ {k} and structure U_k.
        for &i in &cand_rows {
            row_alive[i as usize] = false;
        }
        for &s in &cand_sns {
            sn_alive[s as usize] = false;
        }
        let s_new = out.starts.len();

        // P_k: the candidate groups' rows (disjoint, all ≥ k). The largest
        // supernode group's rows are already sorted; sort the rest and
        // merge them in.
        let rows_of = |out: &StaticStructure, s: usize| {
            let w = width(out, s);
            out.lptr[s] + w..out.lptr[s + 1]
        };
        let base = cand_sns
            .iter()
            .map(|&s| rows_of(&out, s as usize))
            .max_by_key(|r| r.len())
            .unwrap_or(0..0);
        extra.clear();
        extra.extend_from_slice(&cand_rows);
        for &s in &cand_sns {
            let r = rows_of(&out, s as usize);
            if r != base {
                extra.extend_from_slice(&out.lrows[r]);
            }
        }
        extra.sort_unstable();
        merge_append(&mut out.lrows, base, &extra);
        out.lptr.push(out.lrows.len());
        debug_assert_eq!(
            out.lrows[out.lptr[s_new]], k as u32,
            "row {k} is a candidate"
        );

        // U_k: the union of the candidate structures (all ≥ k), deduped
        // against the largest supernode group's structure.
        let cols_of = |out: &StaticStructure, s: usize| {
            let w = width(out, s);
            out.uptr[s] + w..out.uptr[s + 1]
        };
        let base = cand_sns
            .iter()
            .map(|&s| cols_of(&out, s as usize))
            .max_by_key(|r| r.len())
            .unwrap_or(0..0);
        for &c in &out.ucols[base.clone()] {
            seen[c as usize] = k;
        }
        extra.clear();
        let mut add = |list: &[u32]| {
            for &c in list {
                debug_assert!(c as usize >= k);
                if seen[c as usize] != k {
                    seen[c as usize] = k;
                    extra.push(c);
                }
            }
        };
        for &i in &cand_rows {
            add(at.col(i as usize).0);
        }
        for &s in &cand_sns {
            let r = cols_of(&out, s as usize);
            if r != base {
                add(&out.ucols[r]);
            }
        }
        extra.sort_unstable();
        merge_append(&mut out.ucols, base, &extra);
        out.uptr.push(out.ucols.len());

        // Index the new group under every column of U_k after k.
        let u0 = out.uptr[s_new];
        debug_assert_eq!(out.ucols[u0], k as u32);
        for &c in &out.ucols[u0 + 1..] {
            link.push((head[c as usize], s_new as u32));
            head[c as usize] = (link.len() - 1) as u32;
        }
        sn_alive.push(out.lptr[s_new + 1] - out.lptr[s_new] > 1);
        out.starts.push(k);
    }
    out.starts.push(n);
    out
}

/// Append to `v` the sorted merge of `v[base]` (sorted) and `extra`
/// (sorted, disjoint from it).
fn merge_append(v: &mut Vec<u32>, base: std::ops::Range<usize>, extra: &[u32]) {
    v.reserve(base.len() + extra.len());
    let (mut i, mut j) = (base.start, 0);
    while i < base.end && j < extra.len() {
        if v[i] < extra[j] {
            v.push(v[i]);
            i += 1;
        } else {
            v.push(extra[j]);
            j += 1;
        }
    }
    v.extend_from_within(i..base.end);
    v.extend_from_slice(&extra[j..]);
}

/// The per-column static structure the textbook algorithm produces: the
/// oracle [`StaticStructure`] is checked against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStructure {
    /// `lcols[k]`: sorted rows of static L column `k` (diagonal included).
    pub lcols: Vec<Vec<u32>>,
    /// `urows[k]`: sorted columns of static U row `k` (diagonal included).
    pub urows: Vec<Vec<u32>>,
}

/// Textbook reference implementation: simulate the per-row structure
/// updates literally (`O(n · nnz(F))`), one full list per column. Used to
/// validate the group-based implementation.
pub fn naive_symbolic_factorization(a: &CscMatrix) -> ColumnStructure {
    assert_eq!(a.nrows(), a.ncols());
    assert!(a.has_zero_free_diagonal());
    let n = a.ncols();
    let at = a.transpose();
    let mut rows: Vec<Vec<u32>> = (0..n).map(|i| at.col(i).0.to_vec()).collect();

    let mut lcols = Vec::with_capacity(n);
    let mut urows = Vec::with_capacity(n);
    for k in 0..n {
        let ku = k as u32;
        let cand: Vec<u32> = (k..n)
            .filter(|&i| rows[i].binary_search(&ku).is_ok())
            .map(|i| i as u32)
            .collect();
        let mut uk: Vec<u32> = cand
            .iter()
            .flat_map(|&i| rows[i as usize].iter().copied().filter(|&c| c >= ku))
            .collect();
        uk.sort_unstable();
        uk.dedup();
        for &i in &cand {
            let iu = i as usize;
            // keep the (< k) prefix, replace the rest with U_k
            let cut = rows[iu].partition_point(|&c| c < ku);
            rows[iu].truncate(cut);
            rows[iu].extend_from_slice(&uk);
        }
        lcols.push(cand);
        urows.push(uk);
    }
    ColumnStructure { lcols, urows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};
    use splu_sparse::{CooMatrix, CscMatrix, Perm};

    fn from_bool(rows: &[&[u8]]) -> CscMatrix {
        let n = rows.len();
        let mut c = CooMatrix::new(n, n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &b) in r.iter().enumerate() {
                if b != 0 {
                    c.push(i, j, 1.0 + (i * n + j) as f64 * 0.1);
                }
            }
        }
        c.to_csc()
    }

    /// The supernodal structure of `a` against the per-column oracle:
    /// `lcol(k)`/`urow(k)` equal the oracle's lists column for column, and
    /// the stored starts are exactly the boundaries of the adjacent-column
    /// nesting test `lcols[k] == lcols[k - 1] \ {k - 1}`.
    fn check_against_oracle(a: &CscMatrix) -> StaticStructure {
        let s = static_symbolic_factorization(a);
        let r = naive_symbolic_factorization(a);
        let n = a.ncols();
        assert_eq!(s.n(), n);
        for k in 0..n {
            assert_eq!(s.lcol(k), &r.lcols[k][..], "L column {k}");
            assert_eq!(s.urow(k), &r.urows[k][..], "U row {k}");
        }
        let mut starts = vec![0];
        for k in 1..n {
            let (prev, next) = (&r.lcols[k - 1], &r.lcols[k]);
            if !(prev.len() == next.len() + 1 && prev[1..] == next[..]) {
                starts.push(k);
            }
        }
        starts.push(n);
        assert_eq!(s.starts(), &starts[..], "fundamental supernode starts");
        let per_column: usize = (0..n).map(|k| r.lcols[k].len() + r.urows[k].len()).sum();
        assert_eq!(s.factor_nnz(), per_column - n);
        assert!(s.stored_entries() <= per_column);
        s
    }

    #[test]
    fn fig2_style_5x5_example() {
        // A 5×5 sparse matrix in the spirit of Fig. 2 of the paper; the
        // first steps generate fill through candidate-row unions, and the
        // structure stabilizes before the last steps.
        let a = from_bool(&[
            &[1, 0, 1, 0, 0],
            &[1, 1, 0, 0, 0],
            &[0, 0, 1, 1, 0],
            &[0, 1, 0, 1, 1],
            &[1, 0, 0, 0, 1],
        ]);
        let s = check_against_oracle(&a);
        // Step 1: candidates are rows {0, 1, 4} (nonzeros in column 0);
        // union of their structures = {0, 1, 2, 4}.
        assert_eq!(s.lcol(0), &[0, 1, 4]);
        assert_eq!(s.urow(0), &[0, 1, 2, 4]);
        // every original entry is contained in the prediction
        for (i, j, _) in a.iter() {
            assert!(s.contains(i, j), "original entry ({i},{j}) missing");
        }
    }

    #[test]
    fn supernodal_form_matches_the_oracle_on_random_matrices() {
        for seed in 0..8 {
            let a = gen::random_sparse(
                60,
                3,
                0.5,
                ValueModel {
                    diag_scale: 1.0,
                    seed,
                },
            );
            check_against_oracle(&a);
        }
    }

    #[test]
    fn supernodal_form_matches_the_oracle_on_grids_and_bands() {
        check_against_oracle(&gen::grid2d(7, 8, 0.4, ValueModel::default()));
        check_against_oracle(&gen::grid3d(4, 4, 3, 0.2, ValueModel::default()));
        for (bw, d) in [(1, 1.0), (3, 0.5), (6, 0.3)] {
            check_against_oracle(&gen::banded(80, bw, d, ValueModel::default()));
        }
    }

    #[test]
    fn dense_matrix_predicts_full_factors() {
        let a = gen::dense_random(10, ValueModel::default());
        let s = check_against_oracle(&a);
        for k in 0..10 {
            assert_eq!(s.lcol(k).len(), 10 - k);
            assert_eq!(s.urow(k).len(), 10 - k);
        }
        assert_eq!(s.factor_nnz(), 100);
        // one supernode: each list stored once
        assert_eq!(s.starts(), &[0, 10]);
        assert_eq!(s.stored_entries(), 20);
    }

    /// Dense GEPP with the S\*-style *delayed trailing interchange*: at step
    /// `k` the pivot row is swapped with row `k` only in columns `k..n`
    /// (the already-computed L part stays in its slot, exactly as in the
    /// paper's `ScaleSwap`). Returns the working array holding packed L\U
    /// in slot coordinates.
    fn gepp_trailing_swap(a: &splu_kernels::DenseMat) -> splu_kernels::DenseMat {
        let n = a.nrows();
        let mut w = a.clone();
        for k in 0..n {
            // pivot search over column k, rows k..n
            let mut piv = k;
            for i in (k + 1)..n {
                if w[(i, k)].abs() > w[(piv, k)].abs() {
                    piv = i;
                }
            }
            assert!(w[(piv, k)] != 0.0, "singular at step {k}");
            if piv != k {
                for j in k..n {
                    let t = w[(k, j)];
                    w[(k, j)] = w[(piv, j)];
                    w[(piv, j)] = t;
                }
            }
            let d = w[(k, k)];
            for i in (k + 1)..n {
                w[(i, k)] /= d;
            }
            for j in (k + 1)..n {
                let ukj = w[(k, j)];
                if ukj != 0.0 {
                    for i in (k + 1)..n {
                        let lik = w[(i, k)];
                        w[(i, j)] -= lik * ukj;
                    }
                }
            }
        }
        w
    }

    #[test]
    fn structure_covers_actual_lu_under_any_pivoting() {
        // The defining property (George & Ng): for ANY pivot sequence, the
        // actual fill (in slot coordinates, with the S*-style delayed
        // trailing interchange) is contained in the static prediction. We
        // exercise it over several random value assignments of one pattern.
        let base = gen::random_sparse(40, 3, 0.4, ValueModel::default());
        let s = static_symbolic_factorization(&base);
        let n = 40;
        for seed in 0..6u64 {
            // reassign values randomly on the same pattern
            let mut c = CooMatrix::new(n, n);
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0 - 1.0
            };
            for (i, j, _) in base.iter() {
                let v = if i == j { 2.0 + next().abs() } else { next() };
                c.push(i, j, v);
            }
            let w = gepp_trailing_swap(&c.to_csc().to_dense());
            for k in 0..n {
                for i in (k + 1)..n {
                    assert!(
                        w[(i, k)].abs() < 1e-13 || s.contains(i, k),
                        "L entry ({i},{k}) not covered, seed {seed}"
                    );
                }
                for j in (k + 1)..n {
                    assert!(
                        w[(k, j)].abs() < 1e-13 || s.contains(k, j),
                        "U entry ({k},{j}) not covered, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem1_nested_l_columns_have_nested_u_rows() {
        // The fact the supernodal storage rests on, checked on the
        // per-column oracle: if P_{k+1} == P_k \ {k}, then
        // U_{k+1} == U_k \ {k}.
        let a = gen::grid2d(6, 6, 0.3, ValueModel::default());
        let r = naive_symbolic_factorization(&a);
        let mut nested = 0;
        for k in 0..a.ncols() - 1 {
            if r.lcols[k][1..] == r.lcols[k + 1][..] {
                assert_eq!(r.urows[k][0], k as u32);
                assert_eq!(r.urows[k][1..], r.urows[k + 1][..], "U nesting at {k}");
                nested += 1;
            }
        }
        assert!(nested > 0);
    }

    #[test]
    fn tridiagonal_has_no_extra_fill() {
        let n = 12;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 2.0);
            if i > 0 {
                c.push(i, i - 1, -1.0);
                c.push(i - 1, i, -1.0);
            }
        }
        let s = check_against_oracle(&c.to_csc());
        // With partial pivoting, row k+1 (carrying an entry in column k+2)
        // may be swapped up, so the static U gains a second superdiagonal —
        // the classic GEPP band widening. L stays bidiagonal.
        for k in 0..n {
            assert!(s.lcol(k).len() <= 2, "L col {k}");
            assert!(s.urow(k).len() <= 3, "U row {k}");
            assert_eq!(s.lcol(k)[0], k as u32);
        }
        assert_eq!(s.factor_nnz(), 4 * n - 4);
    }

    #[test]
    fn factor_nnz_and_flops_monotone_under_worse_ordering() {
        // reversing a good ordering of a grid should not reduce fill
        let a = gen::grid2d(8, 8, 0.0, ValueModel::default());
        let n = a.ncols();
        let s1 = static_symbolic_factorization(&a);
        let rev = Perm::from_new_of_old((0..n).map(|i| n - 1 - i).collect());
        let ar = a.permute(&rev, &rev);
        let s2 = static_symbolic_factorization(&ar);
        // reversal of a symmetric-pattern grid is symmetric: equal fill
        assert_eq!(s1.factor_nnz(), s2.factor_nnz());
        assert!(s1.predicted_flops() > 0);
    }

    #[test]
    fn predicted_flops_match_the_per_column_sum() {
        let a = gen::random_sparse(70, 4, 0.5, ValueModel::default());
        let s = static_symbolic_factorization(&a);
        let r = naive_symbolic_factorization(&a);
        let want: u64 = (0..a.ncols())
            .map(|k| {
                let l = (r.lcols[k].len() - 1) as u64;
                let u = (r.urows[k].len() - 1) as u64;
                l + 2 * l * u
            })
            .sum();
        assert_eq!(s.predicted_flops(), want);
    }

    #[test]
    #[should_panic]
    fn missing_diagonal_panics() {
        let a = gen::shift_rows(&gen::grid2d(4, 4, 0.0, ValueModel::default()), 1);
        static_symbolic_factorization(&a);
    }
}
