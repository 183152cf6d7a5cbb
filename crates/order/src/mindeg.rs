//! Minimum-degree fill-reducing ordering on a symmetric pattern.
//!
//! The paper orders columns with "the multiple minimum degree ordering for
//! `AᵀA`" (§3.1). This module implements a quotient-graph minimum-degree
//! ordering in the George–Liu / MMD / AMD family with the standard
//! structural optimizations:
//!
//! * **quotient graph** — eliminated variables become *elements* (cliques
//!   represented by their variable lists) instead of explicit fill edges,
//! * **element absorption** — elements adjacent to the pivot are absorbed
//!   into the newly created element, keeping element lists short,
//! * **supervariable merging** — variables with identical quotient-graph
//!   adjacency (detected by hashing within each new element, then verified
//!   exactly) are merged and eliminated together (mass elimination),
//! * **approximate external degree** — the AMD-style upper bound
//!   `d(u) ≤ |adj(u)| + Σ_e |L_e \ u|`, recomputed for each `u ∈ L_v` after
//!   pivot `v`: `adj(u)` is u's pruned variable adjacency and `L_e \ u` the
//!   distinct live supervariables of element `e` other than `u`, each
//!   counted at its weight (a supervariable that absorbed several entries
//!   of `e` counts once). Each live element adjacent to `L_v` is compacted
//!   to those supervariables and weighed once per step. A merge of `u`
//!   into `r` subtracts `u`'s weight from `r`'s degree once.
//!
//! The input is any symmetric [`Pattern`] (for the LU pipeline, the pattern
//! of `AᵀA` from [`splu_sparse::pattern::ata_pattern`]). The output
//! permutation maps old indices to elimination positions.

use splu_sparse::pattern::Pattern;
use splu_sparse::Perm;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NONE: u32 = u32::MAX;

/// Statistics from a minimum-degree run.
#[derive(Debug, Clone, Default)]
pub struct MinDegreeStats {
    /// Number of supervariable merges performed.
    pub merges: usize,
    /// Number of elements absorbed.
    pub absorbed: usize,
    /// Number of pivot selections (elimination steps over supervariables).
    pub steps: usize,
}

struct MdState {
    /// Variable-variable adjacency (pruned as elements cover pairs).
    adj: Vec<Vec<u32>>,
    /// Elements adjacent to each variable.
    elems: Vec<Vec<u32>>,
    /// Variable list of each element (indexed by the pivot variable that
    /// created it); empty if absorbed or never created.
    elem_vars: Vec<Vec<u32>>,
    /// Element alive flags.
    elem_alive: Vec<bool>,
    /// Variable status: alive, merged into another, or eliminated.
    merged_into: Vec<u32>,
    eliminated: Vec<bool>,
    /// Supervariable weights (number of original variables represented).
    weight: Vec<u32>,
    /// Approximate external degree (in original-variable units).
    degree: Vec<u32>,
    /// Scratch marker.
    mark: Vec<u32>,
    stamp: u32,
}

impl MdState {
    /// Representative of `v`'s supervariable, compressing the path.
    fn find(&mut self, v: u32) -> u32 {
        let mut r = v;
        while self.merged_into[r as usize] != NONE {
            r = self.merged_into[r as usize];
        }
        let mut x = v;
        while x != r {
            x = std::mem::replace(&mut self.merged_into[x as usize], r);
        }
        r
    }

    fn next_stamp(&mut self) -> u32 {
        self.stamp += 1;
        self.stamp
    }
}

/// Order-independent hash of a variable's quotient adjacency: the sum of
/// one mixed word per element and per variable neighbour.
fn adjacency_hash(elems: &[u32], adj: &[u32]) -> u64 {
    let mix = |x: u64| {
        let x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        let x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    };
    let e = elems.iter().map(|&e| mix(2 * e as u64));
    let w = adj.iter().map(|&w| mix(2 * w as u64 + 1));
    e.chain(w).fold(0u64, u64::wrapping_add)
}

/// Compute a minimum-degree ordering of a symmetric pattern.
///
/// Returns the permutation (old index → elimination position) and run
/// statistics. Diagonal entries in the pattern are ignored; the pattern is
/// assumed symmetric (use [`splu_sparse::pattern::ata_pattern`] /
/// [`splu_sparse::pattern::at_plus_a_pattern`] to symmetrize).
pub fn min_degree(p: &Pattern) -> (Perm, MinDegreeStats) {
    assert_eq!(p.nrows(), p.ncols(), "min_degree needs a square pattern");
    let n = p.ncols();
    let mut stats = MinDegreeStats::default();
    if n == 0 {
        return (Perm::identity(0), stats);
    }

    let mut st = MdState {
        adj: (0..n)
            .map(|j| {
                p.col(j)
                    .iter()
                    .copied()
                    .filter(|&i| i as usize != j)
                    .collect()
            })
            .collect(),
        elems: vec![Vec::new(); n],
        elem_vars: vec![Vec::new(); n],
        elem_alive: vec![false; n],
        merged_into: vec![NONE; n],
        eliminated: vec![false; n],
        weight: vec![1; n],
        degree: vec![0; n],
        mark: vec![0; n],
        stamp: 0,
    };
    for v in 0..n {
        st.degree[v] = st.adj[v].len() as u32;
    }

    // Min-heap of (degree, variable). Every live variable has an entry at
    // its current degree (one is pushed whenever a degree changes); other
    // entries are stale and skipped.
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = (0..n as u32)
        .map(|v| Reverse((st.degree[v as usize], v)))
        .collect();

    let mut order: Vec<u32> = Vec::with_capacity(n); // supervariable pivots
    let mut position = vec![NONE; n];
    let mut next_pos = 0usize;
    // Per-step scratch: the weighted size of each live element adjacent to
    // L_v, valid where `elem_seen` holds the step's stamp.
    let mut elem_size = vec![0u64; n];
    let mut elem_seen = vec![0u32; n];

    while next_pos < n {
        // Pop the (live) minimum-degree supervariable.
        let v = loop {
            let Reverse((d, v)) = heap.pop().expect("heap exhausted early");
            let vu = v as usize;
            if !st.eliminated[vu] && st.merged_into[vu] == NONE && d == st.degree[vu] {
                break v;
            }
        };
        let vu = v as usize;
        stats.steps += 1;

        // ---- Form the new element L_v = Reach(v). ----
        let stamp = st.next_stamp();
        st.mark[vu] = stamp;
        let mut lv: Vec<u32> = Vec::new();
        // variable neighbors
        for idx in 0..st.adj[vu].len() {
            let w = st.find(st.adj[vu][idx]);
            let wu = w as usize;
            if !st.eliminated[wu] && st.mark[wu] != stamp {
                st.mark[wu] = stamp;
                lv.push(w);
            }
        }
        // variables of adjacent elements
        for eidx in 0..st.elems[vu].len() {
            let e = st.elems[vu][eidx] as usize;
            if !st.elem_alive[e] {
                continue;
            }
            for idx in 0..st.elem_vars[e].len() {
                let w = st.find(st.elem_vars[e][idx]);
                let wu = w as usize;
                if !st.eliminated[wu] && st.mark[wu] != stamp {
                    st.mark[wu] = stamp;
                    lv.push(w);
                }
            }
            // absorb e into the new element
            st.elem_alive[e] = false;
            st.elem_vars[e] = Vec::new();
            stats.absorbed += 1;
        }
        st.elems[vu].clear();

        // ---- Eliminate v (and everything merged into it). ----
        st.eliminated[vu] = true;
        order.push(v);
        position[vu] = next_pos as u32;
        next_pos += st.weight[vu] as usize;

        if lv.is_empty() {
            continue;
        }

        // Create the element named v.
        st.elem_vars[vu] = lv.clone();
        st.elem_alive[vu] = true;

        // ---- Update each u in L_v. ----
        // `mark == stamp` identifies L_v ∪ {v}; the pruning stamps `ks`
        // only ever mark variables outside it.
        for &u in &lv {
            let uu = u as usize;
            // prune var-adjacency: drop v, dead vars, anything inside L_v
            // (covered by the new element), and duplicates via find().
            let mut kept: Vec<u32> = Vec::with_capacity(st.adj[uu].len());
            let ks = st.next_stamp();
            for idx in 0..st.adj[uu].len() {
                let w = st.find(st.adj[uu][idx]);
                let wu = w as usize;
                if w == u || st.eliminated[wu] || st.mark[wu] == stamp || st.mark[wu] == ks {
                    continue;
                }
                st.mark[wu] = ks;
                kept.push(w);
            }
            st.adj[uu] = kept;
            // element list: drop dead, add v
            st.elems[uu].retain(|&e| st.elem_alive[e as usize]);
            st.elems[uu].push(v);
        }

        // ---- Approximate degrees + supervariable detection. ----
        // Each live element adjacent to L_v is compacted once, to the
        // distinct live representatives of its entries, and weighed.
        for &u in &lv {
            for eidx in 0..st.elems[u as usize].len() {
                let e = st.elems[u as usize][eidx] as usize;
                if elem_seen[e] == stamp {
                    continue;
                }
                elem_seen[e] = stamp;
                let es = st.next_stamp();
                let mut size = 0u64;
                let mut vars = std::mem::take(&mut st.elem_vars[e]);
                vars.retain_mut(|w| {
                    *w = st.find(*w);
                    let f = *w as usize;
                    let keep = !st.eliminated[f] && st.mark[f] != es;
                    if keep {
                        st.mark[f] = es;
                        size += st.weight[f] as u64;
                    }
                    keep
                });
                st.elem_vars[e] = vars;
                elem_size[e] = size;
            }
        }
        // degree bound: |adj(u)| + Σ_e |L_e \ u|, in weights; u is one
        // entry of each of its elements. `keys` pairs the adjacency hash
        // with u's position in L_v.
        let mut keys: Vec<(u64, u32)> = Vec::with_capacity(lv.len());
        for (pos, &u) in lv.iter().enumerate() {
            let uu = u as usize;
            let var_part: u64 = st.adj[uu]
                .iter()
                .map(|&w| st.weight[w as usize] as u64)
                .sum();
            let elem_part: u64 = st.elems[uu]
                .iter()
                .map(|&e| elem_size[e as usize] - st.weight[uu] as u64)
                .sum();
            let d = (var_part + elem_part) as u32;
            if d != st.degree[uu] {
                st.degree[uu] = d;
                heap.push(Reverse((d, u)));
            }
            keys.push((adjacency_hash(&st.elems[uu], &st.adj[uu]), pos as u32));
        }

        // merge indistinguishable variables (verified exactly): a run of
        // equal hashes is one candidate group, in L_v order
        keys.sort_unstable();
        for group in keys.chunk_by(|a, b| a.0 == b.0).filter(|g| g.len() > 1) {
            let mut reps: Vec<u32> = Vec::new();
            'cand: for &(_, pos) in group {
                let u = lv[pos as usize];
                for &r in &reps {
                    if quotient_adj_equal(&st, r, u) {
                        // merge u into r
                        let (ru, uu) = (r as usize, u as usize);
                        st.weight[ru] += st.weight[uu];
                        st.merged_into[uu] = r;
                        st.adj[uu] = Vec::new();
                        st.elems[uu] = Vec::new();
                        st.degree[ru] = st.degree[ru].saturating_sub(st.weight[uu]);
                        heap.push(Reverse((st.degree[ru], r)));
                        stats.merges += 1;
                        continue 'cand;
                    }
                }
                reps.push(u);
            }
        }
    }

    // Expand supervariable order into per-variable positions: a merged
    // variable is placed right after its representative.
    let mut new_of_old = vec![usize::MAX; n];
    // collect members of each representative
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
    for u in 0..n as u32 {
        let r = st.find(u);
        if r != u {
            members[r as usize].push(u);
        }
    }
    for &v in &order {
        let vu = v as usize;
        let mut pos = position[vu] as usize;
        new_of_old[vu] = pos;
        pos += 1;
        for &m in &members[vu] {
            new_of_old[m as usize] = pos;
            pos += 1;
        }
    }
    (Perm::from_new_of_old(new_of_old), stats)
}

/// Exact comparison of two members of the current L_v's quotient
/// adjacency, used to verify hash matches. Both lists were just pruned:
/// elements are live and variable neighbours are distinct
/// representatives outside L_v, which this step's merges do not touch.
fn quotient_adj_equal(st: &MdState, a: u32, b: u32) -> bool {
    let sorted = |list: &[u32]| {
        let mut s = list.to_vec();
        s.sort_unstable();
        s
    };
    let (au, bu) = (a as usize, b as usize);
    st.elems[au].len() == st.elems[bu].len()
        && st.adj[au].len() == st.adj[bu].len()
        && sorted(&st.elems[au]) == sorted(&st.elems[bu])
        && sorted(&st.adj[au]) == sorted(&st.adj[bu])
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};
    use splu_sparse::pattern::{at_plus_a_pattern, ata_pattern, cholesky_fill_count, Pattern};
    use splu_sparse::{CooMatrix, CscMatrix};
    use std::collections::BTreeSet;

    fn sym_pattern(edges: &[(usize, usize)], n: usize) -> Pattern {
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
        }
        for &(i, j) in edges {
            c.push(i, j, 1.0);
            c.push(j, i, 1.0);
        }
        Pattern::from_csc(&c.to_csc())
    }

    fn apply_and_count(p: &Pattern, perm: &Perm) -> usize {
        // permute the pattern symmetrically and count Cholesky fill
        let n = p.ncols();
        let mut c = CooMatrix::new(n, n);
        for j in 0..n {
            for &i in p.col(j) {
                c.push(perm.new_of_old(i as usize), perm.new_of_old(j), 1.0);
            }
        }
        let pp = Pattern::from_csc(&c.to_csc());
        cholesky_fill_count(&pp).0
    }

    #[test]
    fn empty_and_singleton() {
        let (p0, _) = min_degree(&sym_pattern(&[], 0));
        assert_eq!(p0.len(), 0);
        let (p1, _) = min_degree(&sym_pattern(&[], 1));
        assert_eq!(p1.len(), 1);
    }

    #[test]
    fn output_is_a_permutation() {
        let a = gen::random_sparse(150, 4, 0.5, ValueModel::default());
        let p = at_plus_a_pattern(&a);
        let (perm, _) = min_degree(&p);
        let mut seen = [false; 150];
        for old in 0..150 {
            let newp = perm.new_of_old(old);
            assert!(!seen[newp]);
            seen[newp] = true;
        }
    }

    #[test]
    fn star_graph_eliminates_leaves_first() {
        // Star: hub 0 connected to all. MD must not pick the hub first.
        let n = 12;
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0usize, i)).collect();
        let p = sym_pattern(&edges, n);
        let (perm, _) = min_degree(&p);
        // hub must be eliminated last or second-to-last (when two nodes
        // remain, both have degree 1 and the tie may go either way)
        assert!(perm.new_of_old(0) >= n - 2);
        // star ordered leaves-first has zero fill
        assert_eq!(apply_and_count(&p, &perm), 2 * n - 1);
    }

    #[test]
    fn path_graph_no_fill() {
        let n = 30;
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let p = sym_pattern(&edges, n);
        let (perm, _) = min_degree(&p);
        // MD on a path always finds a fill-free ordering: nnz(L) = 2n - 1.
        assert_eq!(apply_and_count(&p, &perm), 2 * n - 1);
    }

    #[test]
    fn grid_fill_beats_natural_substantially() {
        let a = gen::grid2d(14, 14, 0.0, ValueModel::default());
        let p = at_plus_a_pattern(&a);
        let natural = cholesky_fill_count(&p).0;
        let (perm, stats) = min_degree(&p);
        let md = apply_and_count(&p, &perm);
        assert!(
            (md as f64) < 0.8 * natural as f64,
            "MD fill {md} vs natural {natural}"
        );
        assert!(stats.steps <= 14 * 14);
    }

    #[test]
    fn dense_block_mass_eliminates() {
        // A clique: all variables are indistinguishable; supervariable
        // merging should collapse the whole thing into few steps.
        let n = 20;
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        let p = sym_pattern(&edges, n);
        let (perm, stats) = min_degree(&p);
        assert!(
            stats.merges > 0,
            "clique should trigger supervariable merges"
        );
        assert!(stats.steps < n, "mass elimination should shorten the run");
        // any ordering of a clique has full fill; just verify it's a perm
        let _ = apply_and_count(&p, &perm);
    }

    #[test]
    fn deterministic() {
        let a = gen::grid2d(9, 11, 0.0, ValueModel::default());
        let p = at_plus_a_pattern(&a);
        let (p1, _) = min_degree(&p);
        let (p2, _) = min_degree(&p);
        for i in 0..p.ncols() {
            assert_eq!(p1.new_of_old(i), p2.new_of_old(i));
        }
    }

    /// Reference minimum degree: the pivot rule, element absorption,
    /// adjacency pruning and supervariable merging of [`min_degree`], with
    /// the documented bound `|adj(u)| + Σ_e |L_e \ u|` recomputed at each
    /// step from explicit sorted, deduplicated sets of live
    /// representatives, supervariables found by comparing those sets, and
    /// the pivot found by a scan. Returns `new_of_old`.
    fn reference_min_degree(p: &Pattern) -> Vec<usize> {
        let n = p.ncols();
        let mut adj: Vec<Vec<usize>> = (0..n)
            .map(|j| {
                p.col(j)
                    .iter()
                    .map(|&i| i as usize)
                    .filter(|&i| i != j)
                    .collect()
            })
            .collect();
        let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
        // variable list of each live element
        let mut elem_vars: Vec<Option<Vec<usize>>> = vec![None; n];
        let mut rep: Vec<usize> = (0..n).collect();
        let mut live = vec![true; n];
        let mut weight = vec![1usize; n];
        let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
        let mut order = Vec::new();
        let find = |rep: &[usize], mut u: usize| {
            while rep[u] != u {
                u = rep[u];
            }
            u
        };
        while let Some(v) = (0..n).filter(|&u| live[u]).min_by_key(|&u| (degree[u], u)) {
            live[v] = false;
            order.push(v);
            let mut lv: Vec<usize> = Vec::new();
            let reached: Vec<usize> = adj[v]
                .iter()
                .chain(elems[v].iter().flat_map(|&e| elem_vars[e].iter().flatten()))
                .map(|&w| find(&rep, w))
                .collect();
            for w in reached {
                if live[w] && !lv.contains(&w) {
                    lv.push(w);
                }
            }
            for &e in &elems[v] {
                elem_vars[e] = None;
            }
            if lv.is_empty() {
                continue;
            }
            elem_vars[v] = Some(lv.clone());
            for &u in &lv {
                let mut kept = Vec::new();
                for w in adj[u].iter().map(|&w| find(&rep, w)) {
                    if w != u && live[w] && !lv.contains(&w) && !kept.contains(&w) {
                        kept.push(w);
                    }
                }
                adj[u] = kept;
                elems[u].retain(|&e| elem_vars[e].is_some());
                elems[u].push(v);
            }
            let weigh = |set: BTreeSet<usize>| set.iter().map(|&w| weight[w]).sum::<usize>();
            for &u in &lv {
                let mut d = weigh(adj[u].iter().map(|&w| find(&rep, w)).collect());
                for &e in &elems[u] {
                    let members = elem_vars[e].as_ref().unwrap().iter();
                    let le = members
                        .map(|&w| find(&rep, w))
                        .filter(|&w| live[w] && w != u);
                    d += weigh(le.collect());
                }
                degree[u] = d;
            }
            let sets = |u: usize| {
                let s = |l: &[usize]| l.iter().copied().collect::<BTreeSet<usize>>();
                (s(&elems[u]), s(&adj[u]))
            };
            for i in 0..lv.len() {
                let u = lv[i];
                if let Some(&r) = lv[..i].iter().find(|&&r| live[r] && sets(r) == sets(u)) {
                    weight[r] += weight[u];
                    degree[r] = degree[r].saturating_sub(weight[u]);
                    rep[u] = r;
                    live[u] = false;
                }
            }
        }
        let mut new_of_old = vec![0; n];
        let mut pos = 0;
        for &v in &order {
            for u in std::iter::once(v).chain((0..n).filter(|&u| u != v && find(&rep, u) == v)) {
                new_of_old[u] = pos;
                pos += 1;
            }
        }
        new_of_old
    }

    fn assert_matches_reference(label: &str, p: &Pattern) {
        let (perm, _) = min_degree(p);
        let got: Vec<usize> = (0..p.ncols()).map(|i| perm.new_of_old(i)).collect();
        assert_eq!(got, reference_min_degree(p), "{label}");
    }

    #[test]
    fn matches_the_reference_degree_bound() {
        let vm = |seed| ValueModel {
            diag_scale: 1.0,
            seed,
        };
        let mut cases: Vec<(String, CscMatrix)> = Vec::new();
        for s in 0..6u64 {
            let d = 4 + 3 * s as usize;
            cases.push((format!("grid {s}"), gen::grid2d(d, d + 2, 0.3, vm(s))));
            cases.push((
                format!("grid3d {s}"),
                gen::grid3d(3, 4, 2 + s as usize, 0.3, vm(s)),
            ));
            let n = 40 + 30 * s as usize;
            let per_col = 2 + s as usize % 4;
            let sym = s as f64 / 5.0;
            cases.push((
                format!("random {s}"),
                gen::random_sparse(n, per_col, sym, vm(s)),
            ));
            // the load generator's value-churn and pattern-reuse shapes
            let d = 10 + s as usize;
            cases.push((
                format!("tenant grid {s}"),
                gen::grid2d(d, 26 - d, 0.4, vm(s)),
            ));
            let n = 120 + 24 * s as usize;
            let circuit = gen::power_law_circuit(n, 4, 0.9, vm(s));
            cases.push((format!("tenant circuit {s}"), circuit));
            let random = gen::random_sparse(n, 4, 0.6, vm(s));
            cases.push((format!("tenant random {s}"), random));
        }
        for (label, a) in &cases {
            assert_matches_reference(&format!("{label}, AtA"), &ata_pattern(a));
            assert_matches_reference(&format!("{label}, At+A"), &at_plus_a_pattern(a));
        }
        let n = 15;
        let clique: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect();
        let star: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        let path: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        for (label, edges) in [("clique", clique), ("star", star), ("path", path)] {
            assert_matches_reference(label, &sym_pattern(&edges, n));
        }
    }

    #[test]
    fn a_merged_supervariable_counts_once_in_each_element() {
        let edges = [
            (0, 3),
            (0, 5),
            (0, 6),
            (1, 2),
            (1, 3),
            (1, 4),
            (1, 6),
            (2, 5),
            (2, 6),
            (3, 5),
            (4, 5),
            (4, 6),
        ];
        let p = sym_pattern(&edges, 7);
        // Pivots 0, then 2 (degree 3, lowest index): L_2 = {1, 5, 6}, and
        // 5 and 6 have equal adjacency, so 6 merges into 5 (weight 2).
        // Pivot 3 absorbs L_0: L_3 = {1, 5}. Element 2 still stores the
        // entries 1, 5 and 6, where 5 and 6 are one supervariable, so
        // 1's degree is |{4}| + |L_2 \ 1| + |L_3 \ 1| = 1 + 2 + 2 = 5
        // (counting the supervariable once per stored entry gives 7).
        // 5 then merges into 1, which subtracts its weight: 1's degree
        // 3 ties 4's, and the lower index goes first.
        let (perm, _) = min_degree(&p);
        let got: Vec<usize> = (0..7).map(|i| perm.new_of_old(i)).collect();
        assert_eq!(got, [0, 3, 1, 2, 6, 4, 5]);
        assert_eq!(got, reference_min_degree(&p));
    }
}
