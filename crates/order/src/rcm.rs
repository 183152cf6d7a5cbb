//! Reverse Cuthill–McKee ordering (bandwidth-reducing baseline).
//!
//! Not used by the paper's main pipeline, but kept as a bandwidth-reducing
//! alternative (`ColumnOrdering::ReverseCuthillMcKee`, `splu … --ordering
//! rcm`): the paper's future work calls for "ordering strategies that
//! minimize overestimation ratios".

use splu_sparse::pattern::Pattern;
use splu_sparse::Perm;
use std::collections::VecDeque;

/// Compute the reverse Cuthill–McKee ordering of a symmetric pattern.
///
/// Starts each connected component from a pseudo-peripheral vertex found by
/// repeated BFS, visits neighbors in increasing-degree order, and reverses
/// the final sequence.
pub fn rcm(p: &Pattern) -> Perm {
    assert_eq!(p.nrows(), p.ncols(), "rcm needs a square pattern");
    let n = p.ncols();
    let degree: Vec<usize> = (0..n)
        .map(|j| p.col(j).iter().filter(|&&i| i as usize != j).count())
        .collect();

    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut neigh: Vec<u32> = Vec::new();

    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(p, start, &degree);
        // BFS from root with degree-sorted neighbor visits.
        let mut q = VecDeque::new();
        visited[root] = true;
        q.push_back(root as u32);
        while let Some(v) = q.pop_front() {
            order.push(v);
            neigh.clear();
            neigh.extend(
                p.col(v as usize)
                    .iter()
                    .copied()
                    .filter(|&w| w as usize != v as usize && !visited[w as usize]),
            );
            neigh.sort_unstable_by_key(|&w| degree[w as usize]);
            for &w in &neigh {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    q.push_back(w);
                }
            }
        }
    }
    order.reverse();
    Perm::from_old_of_new(order.into_iter().map(|v| v as usize).collect())
}

/// Find a pseudo-peripheral vertex: repeated BFS keeping the last-level
/// minimum-degree vertex until the eccentricity stops growing.
fn pseudo_peripheral(p: &Pattern, start: usize, degree: &[usize]) -> usize {
    let n = p.ncols();
    let mut root = start;
    let mut last_ecc = 0usize;
    let mut level = vec![usize::MAX; n];
    loop {
        // BFS from root
        level.iter_mut().for_each(|l| *l = usize::MAX);
        level[root] = 0;
        let mut q = VecDeque::new();
        q.push_back(root);
        let mut far = root;
        while let Some(v) = q.pop_front() {
            for &w in p.col(v) {
                let w = w as usize;
                if w != v && level[w] == usize::MAX {
                    level[w] = level[v] + 1;
                    if level[w] > level[far] || (level[w] == level[far] && degree[w] < degree[far])
                    {
                        far = w;
                    }
                    q.push_back(w);
                }
            }
        }
        if level[far] <= last_ecc {
            return root;
        }
        last_ecc = level[far];
        root = far;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};
    use splu_sparse::pattern::at_plus_a_pattern;

    fn bandwidth(p: &Pattern, perm: &Perm) -> usize {
        let mut bw = 0usize;
        for j in 0..p.ncols() {
            for &i in p.col(j) {
                let d = (perm.new_of_old(i as usize) as isize - perm.new_of_old(j) as isize)
                    .unsigned_abs();
                bw = bw.max(d);
            }
        }
        bw
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = gen::random_sparse(100, 4, 0.6, ValueModel::default());
        let p = at_plus_a_pattern(&a);
        let perm = rcm(&p);
        let mut seen = [false; 100];
        for i in 0..100 {
            let np = perm.new_of_old(i);
            assert!(!seen[np]);
            seen[np] = true;
        }
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_grid() {
        // Shuffle a grid, then check RCM restores small bandwidth.
        let a = gen::grid2d(12, 12, 0.0, ValueModel::default());
        let shuffle =
            Perm::from_new_of_old((0..144).map(|i| (i * 89 + 31) % 144).collect::<Vec<_>>());
        let b = a.permute(&shuffle, &shuffle);
        let p = at_plus_a_pattern(&b);
        let ident_bw = bandwidth(&p, &Perm::identity(144));
        let rcm_bw = bandwidth(&p, &rcm(&p));
        assert!(
            rcm_bw * 3 < ident_bw,
            "rcm bandwidth {rcm_bw} vs shuffled {ident_bw}"
        );
    }

    #[test]
    fn handles_disconnected_components() {
        // two disjoint paths
        use splu_sparse::CooMatrix;
        let n = 10;
        let mut c = CooMatrix::new(n, n);
        for i in 0..n {
            c.push(i, i, 1.0);
        }
        for i in 0..4 {
            c.push(i, i + 1, 1.0);
            c.push(i + 1, i, 1.0);
        }
        for i in 5..9 {
            c.push(i, i + 1, 1.0);
            c.push(i + 1, i, 1.0);
        }
        let p = Pattern::from_csc(&c.to_csc());
        let perm = rcm(&p);
        assert_eq!(perm.len(), n);
        assert!(bandwidth(&p, &perm) <= 2);
    }
}
