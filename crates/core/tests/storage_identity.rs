//! Storage identity: the block storage filled from the pattern's layout is
//! bitwise the storage of the entry-by-entry scatter it replaced.
//!
//! The reference below rebuilds every column block's metadata from the
//! block pattern (stacked `L` rows and segments, `U` blocks gathered by
//! column) and places each entry of the permuted matrix with binary
//! searches (`row_loc`, then the `U` block's columns), as
//! `BlockMatrix::set_entry` did. It is checked against
//! `BlockMatrix::from_csc` and, for each rank of a 2 × 2 grid, against
//! `from_csc_blocks`, on sherman5, goodwin, the `serve_churn` benchmark's
//! cold-start tenant and random and grid patterns with 1-wide blocks and
//! column blocks without `U` blocks. The refactorization that writes new
//! values through a slot map kept in the caller's `FactorScratch` is
//! checked against the factorization of the permuted matrix.

use splu_core::seq::factor_sequential;
use splu_core::storage::{ColBlock, LSeg, RowLoc, UBlockStore};
use splu_core::{BlockMatrix, FactorOptions, FactorScratch, SolverError, SparseLuSolver};
use splu_sparse::gen::{self, ValueModel};
use splu_sparse::rng::SmallRng;
use splu_sparse::{suite, CscMatrix};
use splu_symbolic::BlockPattern;
use std::sync::Arc;

/// The storage of `a` for `pattern` restricted to the row blocks
/// `rows(i)`, with panels in the column blocks `owned(j)`, built the way
/// it was before the layout existed.
fn reference(
    a: &CscMatrix,
    pattern: &Arc<BlockPattern>,
    rows: impl Fn(usize) -> bool,
    owned: impl Fn(usize) -> bool,
) -> BlockMatrix {
    let (nb, part) = (pattern.nblocks(), &pattern.part);
    let mut u_by_col: Vec<Vec<UBlockStore>> = vec![Vec::new(); nb];
    for k in (0..nb).filter(|&k| rows(k)) {
        for u in &pattern.u_blocks[k] {
            let h = part.width(k);
            u_by_col[u.j as usize].push(UBlockStore {
                k: k as u32,
                lo_k: part.start(k) as u32,
                h: h as u32,
                cols: Arc::new(u.cols.clone()),
                kind: u.kind,
                panel: if owned(u.j as usize) {
                    vec![0.0; h * u.cols.len()]
                } else {
                    Vec::new()
                },
            });
        }
    }
    let cols = u_by_col
        .into_iter()
        .enumerate()
        .map(|(j, ublocks)| {
            let (mut lrows, mut lsegs) = (Vec::new(), Vec::new());
            for l in pattern.l_blocks[j].iter().filter(|l| rows(l.i as usize)) {
                lsegs.push(LSeg {
                    iblock: l.i,
                    start: lrows.len() as u32,
                    len: l.rows.len() as u32,
                });
                lrows.extend_from_slice(&l.rows);
            }
            let w = part.width(j);
            let zeros = |keep: bool, len: usize| if keep { vec![0.0; len] } else { Vec::new() };
            ColBlock {
                lo: part.start(j) as u32,
                w: w as u32,
                diag: zeros(owned(j) && rows(j), w * w),
                lpanel: zeros(owned(j), lrows.len() * w),
                lrows: Arc::new(lrows),
                lsegs: Arc::new(lsegs),
                ublocks,
            }
        })
        .collect();
    let mut m = BlockMatrix {
        pattern: pattern.clone(),
        cols,
        block_of: Arc::new(part.block_of_index()),
        n: a.ncols(),
    };
    for j in 0..a.ncols() {
        if !owned(m.block_of(j)) {
            continue;
        }
        let (ri, vals) = a.col(j);
        for (&i, &v) in ri.iter().zip(vals) {
            if rows(m.block_of(i as usize)) {
                set_entry(&mut m, i as usize, j, v);
            }
        }
    }
    m
}

/// The entry-by-entry placement the layout walk replaced.
fn set_entry(m: &mut BlockMatrix, i: usize, j: usize, v: f64) {
    let jb = m.block_of(j);
    let loc = m.row_loc(jb, i);
    let cb = &mut m.cols[jb];
    let lc = j - cb.lo as usize;
    match loc {
        RowLoc::Diag(r) => cb.diag[r as usize + lc * cb.w as usize] = v,
        RowLoc::L(r) => cb.lpanel[r as usize + lc * cb.lrows.len()] = v,
        RowLoc::U(b, r) => {
            let ub = &mut cb.ublocks[b as usize];
            let cpos = ub.cols.binary_search(&(j as u32)).expect("inside U mask");
            ub.panel[r as usize + cpos * ub.h as usize] = v;
        }
        RowLoc::Absent => panic!("entry ({i},{j}) outside the static block pattern"),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every piece of metadata and every panel bit of `got` equals `want`.
fn assert_same_storage(got: &BlockMatrix, want: &BlockMatrix, label: &str) {
    assert_eq!(got.n, want.n, "{label}: order");
    assert_eq!(got.block_of, want.block_of, "{label}: block ids");
    assert_eq!(got.cols.len(), want.cols.len(), "{label}: column blocks");
    for (j, (g, w)) in got.cols.iter().zip(&want.cols).enumerate() {
        let at = format!("{label}: column block {j}");
        assert_eq!((g.lo, g.w), (w.lo, w.w), "{at}: extent");
        assert_eq!(g.lrows, w.lrows, "{at}: L rows");
        assert_eq!(g.lsegs, w.lsegs, "{at}: L segments");
        assert_eq!(bits(&g.diag), bits(&w.diag), "{at}: diagonal panel");
        assert_eq!(bits(&g.lpanel), bits(&w.lpanel), "{at}: L panel");
        assert_eq!(g.ublocks.len(), w.ublocks.len(), "{at}: U blocks");
        for (gu, wu) in g.ublocks.iter().zip(&w.ublocks) {
            assert_eq!(
                (gu.k, gu.lo_k, gu.h, gu.kind),
                (wu.k, wu.lo_k, wu.h, wu.kind),
                "{at}: U block {}",
                wu.k
            );
            assert_eq!(gu.cols, wu.cols, "{at}: U block {} columns", wu.k);
            assert_eq!(bits(&gu.panel), bits(&wu.panel), "{at}: U panel {}", wu.k);
        }
    }
}

/// The `serve_churn` benchmark's directly factored cold-start tenant:
/// the load generator's `ColdStart` matrix for seed `0xc01d`, version 1,
/// under the default load configuration (`cold_dim` 70–87).
fn cold_start_tenant() -> CscMatrix {
    let (seed, version) = (0xc01d_u64, 1u64);
    let mut r = SmallRng::seed_from_u64(seed ^ version.wrapping_mul(0xA076_1D64_78BD_642F));
    let dx = r.gen_range(70..=87);
    let dy = r.gen_range(70..=87);
    let vm = ValueModel {
        diag_scale: 1.0,
        seed: seed ^ version,
    };
    gen::grid2d(dx, dy, 0.4, vm)
}

fn cases() -> Vec<(String, CscMatrix, FactorOptions)> {
    let default = FactorOptions::default();
    let narrow = FactorOptions {
        block_size: 3,
        amalgamation: 0,
        ..default
    };
    let suite = |name: &str| suite::by_name(name).unwrap().build();
    vec![
        ("sherman5".into(), suite("sherman5"), default),
        ("goodwin".into(), suite("goodwin"), default),
        ("cold-start tenant".into(), cold_start_tenant(), default),
        (
            "random".into(),
            gen::random_sparse(120, 4, 0.5, ValueModel::default()),
            narrow,
        ),
        (
            "grid".into(),
            gen::grid2d(9, 11, 0.4, ValueModel::default()),
            narrow,
        ),
        (
            "grid, width 1".into(),
            gen::grid2d(7, 6, 0.3, ValueModel::default()),
            FactorOptions {
                block_size: 1,
                ..default
            },
        ),
    ]
}

#[test]
fn the_cold_start_tenant_is_the_benchmarks() {
    // the static factor entries `tests/analysis_identity.rs` pins for the
    // load generator's matrix
    let s = SparseLuSolver::analyze(&cold_start_tenant(), FactorOptions::default());
    assert_eq!(s.static_factor_nnz(), 777_038);
}

#[test]
fn layout_filled_storage_is_the_entry_by_entry_scatter() {
    let (mut one_wide, mut no_u) = (0, 0);
    for (label, a, options) in cases() {
        let s = SparseLuSolver::analyze(&a, options);
        let p = &s.pattern;
        one_wide += (0..p.nblocks()).filter(|&j| p.part.width(j) == 1).count();
        let full = BlockMatrix::from_csc(&s.permuted, p.clone());
        no_u += full.cols.iter().filter(|c| c.ublocks.is_empty()).count();
        let want = reference(&s.permuted, p, |_| true, |_| true);
        assert_same_storage(&full, &want, &label);
        // the share of each rank of a 2 x 2 grid
        for (rno, cno) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let rows = |i: usize| i % 2 == rno;
            let owned = |j: usize| j % 2 == cno;
            let got = BlockMatrix::from_csc_blocks(&s.permuted, p.clone(), rows, owned);
            let want = reference(&s.permuted, p, rows, owned);
            assert_same_storage(&got, &want, &format!("{label}, share ({rno}, {cno})"));
        }
    }
    assert!(one_wide > 0, "no 1-wide block among the cases");
    assert!(no_u > 0, "no column block without U blocks among the cases");
}

/// `factor` of the storage of `a`'s permuted copy.
fn factor_of_permuted(s: &SparseLuSolver, a: &CscMatrix) -> (BlockMatrix, Vec<Vec<u32>>) {
    let permuted = a.permute(&s.row_perm, &s.col_perm);
    let mut m = reference(&permuted, &s.pattern, |_| true, |_| true);
    let (pivots, _) = factor_sequential(&mut m).expect("nonsingular");
    (m, pivots)
}

#[test]
fn a_warmed_refactorization_scatters_through_the_kept_map() {
    let a = suite::by_name("sherman5").unwrap().build();
    let options = FactorOptions {
        cores: 1,
        ..FactorOptions::default()
    };
    let s = SparseLuSolver::analyze(&a, options);
    let mut scratch = FactorScratch::new();
    s.factor_with(&mut scratch).expect("nonsingular");
    // the first refactorization builds the map, one grow event of the
    // arena; the factorization itself grows nothing
    let grown = scratch.grow_events();
    let a1 = gen::perturb_values(&a, 5);
    let lu = s.refactor_with(&a1, &mut scratch).expect("nonsingular");
    assert_eq!(
        scratch.grow_events(),
        grown + 1,
        "the map was not built once"
    );
    assert_eq!(lu.stats.scratch_grow_events, 0);
    for seed in [6, 7] {
        let a2 = gen::perturb_values(&a, seed);
        let lu = s.refactor_with(&a2, &mut scratch).expect("nonsingular");
        assert_eq!(lu.stats.scratch_grow_events, 0, "a warmed refactor grew");
        assert_eq!(scratch.grow_events(), grown + 1, "the map was rebuilt");
        let (m, pivots) = factor_of_permuted(&s, &a2);
        assert_eq!(lu.pivots, pivots, "seed {seed}: pivots");
        assert_same_storage(&lu.blocks, &m, &format!("seed {seed}"));
    }
    // another pattern is refused and leaves the map in place
    let other = gen::grid2d(7, 9, 0.4, ValueModel::default());
    assert!(matches!(
        s.refactor_with(&other, &mut scratch),
        Err(SolverError::PatternMismatch { .. })
    ));
    s.refactor_with(&a1, &mut scratch).expect("nonsingular");
    assert_eq!(scratch.grow_events(), grown + 1, "the map was rebuilt");
}

#[test]
fn an_equilibrated_refactorization_scales_then_scatters() {
    let a = suite::by_name("sherman5").unwrap().build();
    let options = FactorOptions {
        equilibrate: true,
        cores: 1,
        ..FactorOptions::default()
    };
    let s = SparseLuSolver::analyze(&a, options);
    let mut scratch = FactorScratch::new();
    for seed in [8, 9] {
        let a2 = gen::perturb_values(&a, seed);
        let lu = s.refactor_with(&a2, &mut scratch).expect("nonsingular");
        let (scaled, _, _) = splu_core::pipeline::equilibrate(&a2);
        let (m, pivots) = factor_of_permuted(&s, &scaled);
        assert_eq!(lu.pivots, pivots, "seed {seed}: pivots");
        assert_same_storage(&lu.blocks, &m, &format!("equilibrated, seed {seed}"));
    }
}
