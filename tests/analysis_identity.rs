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
//! and compares them with pinned values, last recorded when min-degree
//! began to count each supervariable of an element once. It uses only
//! public API, so the same file checks any two versions of the pipeline
//! against each other. On a deliberate change of the analysis, re-run it
//! and copy the printed actual digest over the pinned one.

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
            perms: 0x1b720f059cb8b2b5,
            fundamental_starts: 0xe865336a2c00ce8e,
            partition: 0x2ce4be342febaf85,
            masks: 0xa07e316828ffdac3,
            scatter_maps: 0xa0594549ad5633d6,
            factor_nnz: 501_090,
            predicted_flops: 86_033_827,
        },
    );
}

#[test]
fn sherman5_analysis_is_pinned() {
    check(
        &suite_matrix("sherman5", 0.5),
        Digest {
            perms: 0xe9bb5fce77e60449,
            fundamental_starts: 0xb6340cd9e03b2bdd,
            partition: 0x73c7af4f9425242d,
            masks: 0xe6615006505c56b8,
            scatter_maps: 0xe547f87e5688363a,
            factor_nnz: 395_454,
            predicted_flops: 64_934_176,
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
            perms: 0xa07af5f613129db5,
            fundamental_starts: 0xde49106b5342a4b3,
            partition: 0x397e53f037b34eb3,
            masks: 0xef70c6494da6e03f,
            scatter_maps: 0xd69156f09f3d3813,
            factor_nnz: 31_286,
            predicted_flops: 298_884,
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
            perms: 0xa19d9a5c36b4343d,
            fundamental_starts: 0x9287a406f1952a5a,
            partition: 0x808f180857c2bb61,
            masks: 0x7edc0fae044628ed,
            scatter_maps: 0x814e2c46a409bece,
            factor_nnz: 777_038,
            predicted_flops: 79_181_767,
        },
    );
}
