//! Randomized tests on the core invariants:
//!
//! * the static symbolic factorization covers the actual fill of GEPP
//!   with trailing interchanges for arbitrary patterns and values,
//! * Theorem 1: U blocks contain only structurally dense subcolumns,
//! * the static structure stored once per fundamental supernode expands
//!   to the textbook per-column structure,
//! * the full pipeline is a backward-stable solver on random inputs,
//! * permutation/pattern algebra round-trips.
//!
//! Case generation is seeded and fully deterministic (no proptest — the
//! build environment is offline), so any failure reproduces exactly.

use sstar::prelude::*;
use sstar::sparse::gen::{self, ValueModel};
use sstar::sparse::pattern::{at_plus_a_pattern, structural_symmetry};
use sstar::sparse::rng::SmallRng;
use sstar::sparse::{CooMatrix, CscMatrix};
use sstar::symbolic::symfact::naive_symbolic_factorization;
use sstar::symbolic::{partition_supernodes, static_symbolic_factorization};

/// Random sparse nonsingular-ish matrix with a zero-free diagonal.
fn sparse_matrix(seed: u64, max_n: usize) -> CscMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..max_n);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let d = 1.5 + (rng.next_u64() % 100) as f64 / 50.0;
        coo.push(i, i, if rng.gen_bool(0.5) { d } else { -d });
        // 0-3 off-diagonals per row
        for _ in 0..(rng.next_u64() % 4) {
            let j = rng.gen_range(0..n);
            if j != i {
                let v = ((rng.next_u64() % 200) as f64 - 100.0) / 60.0;
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
    }
    coo.to_csc()
}

const CASES: u64 = 24;

#[test]
fn pipeline_is_backward_stable() {
    for seed in 0..CASES {
        let a = sparse_matrix(0x5001 + seed, 60);
        let n = a.ncols();
        let xt: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) * 0.4 - 1.7).collect();
        let b = a.matvec(&xt);
        let solver = SparseLuSolver::analyze(
            &a,
            FactorOptions {
                block_size: 8,
                amalgamation: 3,
                ordering: ColumnOrdering::MinDegreeAtA,
                ..FactorOptions::default()
            },
        );
        if let Ok(lu) = solver.factor() {
            let x = lu.solve(&b);
            let r = a
                .matvec(&x)
                .iter()
                .zip(&b)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(
                r < 1e-8 * a.norm_inf().max(1.0),
                "seed {seed}: residual {r}"
            );
        }
    }
}

#[test]
fn static_structure_covers_trailing_swap_gepp() {
    for seed in 0..CASES {
        let a = sparse_matrix(0x5101 + seed, 40);
        let n = a.ncols();
        let s = static_symbolic_factorization(&a);
        // dense GEPP with trailing-only interchanges in slot coordinates
        let mut w = a.to_dense();
        let mut ok = true;
        for k in 0..n {
            let mut piv = k;
            for i in (k + 1)..n {
                if w[(i, k)].abs() > w[(piv, k)].abs() {
                    piv = i;
                }
            }
            if w[(piv, k)] == 0.0 {
                ok = false;
                break;
            }
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
                let u = w[(k, j)];
                if u != 0.0 {
                    for i in (k + 1)..n {
                        let l = w[(i, k)];
                        w[(i, j)] -= l * u;
                    }
                }
            }
        }
        if ok {
            for i in 0..n {
                for j in 0..n {
                    if w[(i, j)].abs() > 1e-12 {
                        assert!(
                            s.contains(i, j) || a.is_stored(i, j),
                            "seed {seed}: fill at ({i},{j}) not predicted"
                        );
                    }
                }
            }
        }
    }
}

/// `lcol(k)`/`urow(k)` of the supernodal structure equal the textbook
/// per-column lists, and the stored supernode starts are exactly the
/// boundaries of the adjacent-column nesting test
/// `lcols[k] == lcols[k - 1] \ {k - 1}`.
#[test]
fn supernodal_structure_expands_to_the_per_column_oracle() {
    let vm = |seed| ValueModel {
        diag_scale: 1.0,
        seed,
    };
    let mut inputs: Vec<CscMatrix> = (0..CASES)
        .map(|seed| sparse_matrix(0x5401 + seed, 60))
        .collect();
    for seed in 0..4 {
        inputs.push(gen::grid2d(5 + seed as usize, 7, 0.3, vm(seed)));
        inputs.push(gen::banded(90, 1 + 2 * seed as usize, 0.5, vm(seed)));
    }
    for (case, a) in inputs.iter().enumerate() {
        let n = a.ncols();
        let s = static_symbolic_factorization(a);
        let oracle = naive_symbolic_factorization(a);
        for k in 0..n {
            assert_eq!(s.lcol(k), &oracle.lcols[k][..], "case {case}: L column {k}");
            assert_eq!(s.urow(k), &oracle.urows[k][..], "case {case}: U row {k}");
        }
        let mut starts = vec![0];
        for k in 1..n {
            let (prev, next) = (&oracle.lcols[k - 1], &oracle.lcols[k]);
            if !(prev.len() == next.len() + 1 && prev[1..] == next[..]) {
                starts.push(k);
            }
        }
        starts.push(n);
        assert_eq!(s.starts(), &starts[..], "case {case}: supernode starts");
    }
}

#[test]
fn theorem1_dense_subcolumns() {
    for seed in 0..CASES {
        let a = sparse_matrix(0x5201 + seed, 50);
        let s = static_symbolic_factorization(&a);
        let part = partition_supernodes(&s, 25);
        // pre-amalgamation: every U block subcolumn present in every row
        // of its supernode
        let bp = sstar::symbolic::BlockPattern::build(&s, &part);
        for k in 0..bp.nblocks() {
            let lo = bp.part.start(k);
            let hi = bp.part.starts[k + 1];
            for u in &bp.u_blocks[k] {
                for &c in &u.cols {
                    for row in lo..hi {
                        assert!(
                            s.urow(row).binary_search(&c).is_ok(),
                            "seed {seed}: Theorem 1 violated at row {row}, col {c}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn perm_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x5301);
    for _case in 0..CASES {
        // build a permutation from random priorities
        let n = rng.gen_range(1..50);
        let prio: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (prio[i], i));
        let p = Perm::from_old_of_new(idx);
        assert!(p.then(&p.inverse()).is_identity());
        for i in 0..n {
            assert_eq!(p.old_of_new(p.new_of_old(i)), i);
        }
    }
}

#[test]
fn symmetry_score_bounds() {
    for seed in 0..CASES {
        let a = sparse_matrix(0x5401 + seed, 40);
        let s = structural_symmetry(&a);
        assert!(
            (1.0..=2.0 + 1e-9).contains(&s),
            "seed {seed}: symmetry {s} out of range"
        );
        // Aᵀ+A pattern must contain A's pattern
        let u = at_plus_a_pattern(&a);
        for (i, j, _) in a.iter() {
            assert!(u.contains(i, j));
        }
    }
}

#[test]
fn transversal_after_random_row_shuffle() {
    let mut rng = SmallRng::seed_from_u64(0x5501);
    for seed in 0..CASES {
        let a = sparse_matrix(0x5601 + seed, 40);
        let shift = rng.gen_range(1..20);
        let b = sstar::sparse::gen::shift_rows(&a, shift % a.ncols());
        let p = sstar::order::zero_free_row_perm(&b);
        // A had a zero-free diagonal, so a full transversal must exist
        assert!(p.is_some(), "seed {seed}");
        assert!(b.permute_rows(&p.unwrap()).has_zero_free_diagonal());
    }
}
