//! Analysis identity: the symbolic pipeline's outputs are pinned by hash.
//!
//! `SparseLuSolver::analyze` feeds every numeric driver, so a change to
//! how the static structure is computed or stored must leave each of its
//! outputs exactly as it was. For four patterns this test hashes
//!
//! * the row and column permutations and the fundamental supernode
//!   starts (`partition_supernodes` with no width cap),
//! * the amalgamated partition, every L/U block mask and every
//!   precomputed scatter map,
//! * `static_factor_nnz` and `predicted_flops`,
//!
//! and compares them with the values the per-column implementation of
//! the static symbolic factorization produced. It uses only public API
//! that both implementations share, so the same file checks any two
//! versions of the pipeline against each other. On a deliberate change
//! of the analysis, re-run it and copy the printed actual digest over the
//! pinned one.

use sstar::core::{FactorOptions, SparseLuSolver};
use sstar::load::workload::{tenant_matrix, LoadConfig, Tenant, TenantClass};
use sstar::sparse::fingerprint::Fnv1a;
use sstar::sparse::gen::{self, ValueModel};
use sstar::sparse::{suite, CscMatrix, Perm};
use sstar::symbolic::partition_supernodes;

/// One analysis, reduced to one hash (or count) per pinned field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    perms: u64,
    fundamental_starts: u64,
    partition: u64,
    masks: u64,
    scatter_maps: u64,
    factor_nnz: u64,
    predicted_flops: u64,
}

fn hash_u32s(h: &mut Fnv1a, v: impl IntoIterator<Item = u32>) {
    let mut len = 0u64;
    for x in v {
        h.write_u64(x as u64);
        len += 1;
    }
    h.write_u64(len);
}

fn hash_perm(h: &mut Fnv1a, p: &Perm) {
    hash_u32s(h, (0..p.len()).map(|i| p.new_of_old(i) as u32));
}

fn hash_starts(starts: &[usize]) -> u64 {
    let mut h = Fnv1a::new();
    hash_u32s(&mut h, starts.iter().map(|&s| s as u32));
    h.finish()
}

/// Analyze `a` under the library defaults and digest every output.
fn digest(a: &CscMatrix) -> Digest {
    let s = SparseLuSolver::analyze(a, FactorOptions::default());
    let bp = &s.pattern;

    let mut perms = Fnv1a::new();
    hash_perm(&mut perms, &s.row_perm);
    hash_perm(&mut perms, &s.col_perm);

    let mut masks = Fnv1a::new();
    let mut maps = Fnv1a::new();
    for k in 0..bp.nblocks() {
        for l in &bp.l_blocks[k] {
            masks.write_u64(l.i as u64);
            hash_u32s(&mut masks, l.rows.iter().copied());
        }
        for u in &bp.u_blocks[k] {
            masks.write_u64(u.j as u64);
            masks.write_u8(u.kind as u8);
            hash_u32s(&mut masks, u.cols.iter().copied());
        }
        for li in 0..bp.l_blocks[k].len() {
            for uj in 0..bp.u_blocks[k].len() {
                hash_u32s(&mut maps, bp.scatter_map(k, li, uj).iter().copied());
            }
        }
    }

    Digest {
        perms: perms.finish(),
        fundamental_starts: hash_starts(&partition_supernodes(&s.structure, usize::MAX).starts),
        partition: hash_starts(&bp.part.starts),
        masks: masks.finish(),
        scatter_maps: maps.finish(),
        factor_nnz: s.static_factor_nnz() as u64,
        predicted_flops: s.structure.predicted_flops(),
    }
}

fn check(a: &CscMatrix, pinned: Digest) {
    let actual = digest(a);
    assert_eq!(
        actual, pinned,
        "analysis outputs moved; actual digest:\n{actual:#x?}"
    );
}

fn suite_matrix(name: &str, scale: f64) -> CscMatrix {
    suite::by_name(name)
        .expect("suite matrix")
        .build_scaled(scale)
}

#[test]
fn goodwin_analysis_is_pinned() {
    check(
        &suite_matrix("goodwin", 0.3),
        Digest {
            perms: 0x2746435f0793bd05,
            fundamental_starts: 0x6de679ccc970f14d,
            partition: 0x5cbd94880530dfd9,
            masks: 0xdf631ef95bc9930b,
            scatter_maps: 0x01440b2bf2d42add,
            factor_nnz: 615_025,
            predicted_flops: 130_293_527,
        },
    );
}

#[test]
fn sherman5_analysis_is_pinned() {
    check(
        &suite_matrix("sherman5", 0.5),
        Digest {
            perms: 0xb9155f1563e2c971,
            fundamental_starts: 0x6034fc139c850db1,
            partition: 0xec728aa8f7f8115f,
            masks: 0x50c91fae2530ad6d,
            scatter_maps: 0xda996befa0ca6f29,
            factor_nnz: 476_447,
            predicted_flops: 101_633_619,
        },
    );
}

/// A band has little supernode nesting: most columns start a supernode.
#[test]
fn banded_analysis_is_pinned() {
    let vm = ValueModel {
        diag_scale: 1.0,
        seed: 7,
    };
    check(
        &gen::banded(1500, 6, 0.5, vm),
        Digest {
            perms: 0xf6cc6b56d5fed835,
            fundamental_starts: 0x4d66c01aa4d19969,
            partition: 0x31a32145203b1acb,
            masks: 0x13978a6b3f242f8e,
            scatter_maps: 0xb3b16e2174692ffe,
            factor_nnz: 41_155,
            predicted_flops: 551_072,
        },
    );
}

/// The pattern perfbench's `serve_churn` workload factors directly.
#[test]
fn cold_start_tenant_analysis_is_pinned() {
    let tenant = Tenant {
        id: 0,
        class: TenantClass::ColdStart,
        seed: 0xc01d,
    };
    check(
        &tenant_matrix(&tenant, 1, &LoadConfig::default()),
        Digest {
            perms: 0xd0fc5f73e07f8fad,
            fundamental_starts: 0xc61d2c62a58a5a29,
            partition: 0x1276211bb59cb7cb,
            masks: 0x85bfd5378819b639,
            scatter_maps: 0xccbf99c4fb0bfb1e,
            factor_nnz: 925_034,
            predicted_flops: 129_363_412,
        },
    );
}
