//! The benchmark matrix suite (synthetic stand-ins for Table 1).
//!
//! The paper evaluates on sixteen nonsymmetric matrices. The original
//! Harwell–Boeing files are not distributable with this workspace, so each
//! is realized as a deterministic synthetic matrix of the same structural
//! class, order and density (see `DESIGN.md` §3 for the substitution
//! argument). Orders match the paper exactly at `scale = 1.0`; a `scale`
//! parameter shrinks the large matrices proportionally so the full
//! experiment grid also runs quickly on small hosts (harnesses print the
//! scale they used).

use crate::csc::CscMatrix;
use crate::gen::{self, ValueModel};

/// Structural class of a suite matrix, with generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MatrixKind {
    /// 2D stencil (`nx`, `ny`, convection).
    Grid2d(usize, usize, f64),
    /// 3D stencil (`nx`, `ny`, `nz`, convection).
    Grid3d(usize, usize, usize, f64),
    /// Random pattern (`n`, avg entries/col, pattern-symmetry fraction).
    Random(usize, usize, f64),
    /// Block fluid-flow (`nblocks`, `min_bs`, `max_bs`, extra coupling).
    BlockFluid(usize, usize, usize, f64),
    /// Banded FEM (`n`, half bandwidth, density).
    Banded(usize, usize, f64),
    /// Dense (`n`).
    Dense(usize),
    /// Power-law circuit netlist (`n`, avg degree, mirror fraction) —
    /// preferential-attachment pattern with hub columns (see
    /// [`gen::power_law_circuit`]).
    Circuit(usize, usize, f64),
    /// Hierarchical circuit (`nsub`, `sub_n`, `border`, avg degree,
    /// mirror fraction): bordered block-diagonal power-law subcircuits
    /// feeding global rails (see [`gen::hier_circuit`]).
    HierCircuit(usize, usize, usize, usize, f64),
    /// Hierarchical 3D mesh (`nsub`, `nx`, `ny`, `nz`, `border`,
    /// convection): bordered block-diagonal 7-point subdomains feeding
    /// global rails (see [`gen::hier_grid3d`]).
    HierGrid3d(usize, usize, usize, usize, usize, f64),
}

/// A named suite matrix: the paper's identifier plus the synthetic spec.
#[derive(Debug, Clone, Copy)]
pub struct MatrixSpec {
    /// The paper's matrix identifier (Table 1).
    pub name: &'static str,
    /// Order reported in the paper (for reference / reporting).
    pub paper_n: usize,
    /// nnz(A) reported in the paper (for reference / reporting).
    pub paper_nnz: usize,
    /// Generator class and parameters at `scale = 1.0`.
    pub kind: MatrixKind,
    /// Deterministic seed.
    pub seed: u64,
}

impl MatrixSpec {
    /// Build the matrix at full (paper) scale.
    pub fn build(&self) -> CscMatrix {
        self.build_scaled(1.0)
    }

    /// Build a proportionally shrunk instance: linear dimensions are scaled
    /// by `scale.cbrt()`/`scale.sqrt()` as appropriate so the *order*
    /// scales by roughly `scale`. `scale = 1.0` reproduces the paper order.
    pub fn build_scaled(&self, scale: f64) -> CscMatrix {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let vm = ValueModel {
            diag_scale: 1.0,
            seed: self.seed,
        };
        let sdim = |d: usize, f: f64| ((d as f64 * f).round() as usize).max(2);
        match self.kind {
            MatrixKind::Grid2d(nx, ny, c) => {
                let f = scale.sqrt();
                gen::grid2d(sdim(nx, f), sdim(ny, f), c, vm)
            }
            MatrixKind::Grid3d(nx, ny, nz, c) => {
                let f = scale.cbrt();
                gen::grid3d(sdim(nx, f), sdim(ny, f), sdim(nz, f), c, vm)
            }
            MatrixKind::Random(n, per_col, sym) => {
                gen::random_sparse(sdim(n, scale), per_col, sym, vm)
            }
            MatrixKind::BlockFluid(nb, lo, hi, x) => {
                gen::block_fluid(sdim(nb, scale), lo, hi, x, vm)
            }
            MatrixKind::Banded(n, bw, d) => gen::banded(sdim(n, scale), bw, d, vm),
            MatrixKind::Dense(n) => gen::dense_random(sdim(n, scale), vm),
            MatrixKind::Circuit(n, deg, sym) => {
                gen::power_law_circuit(sdim(n, scale), deg, sym, vm)
            }
            // The hierarchical kinds shrink by dropping whole subdomains
            // (keeping each subdomain's interior structure intact) and
            // scale the shared border like a separator (∝ √scale).
            MatrixKind::HierCircuit(nsub, sub_n, border, deg, sym) => gen::hier_circuit(
                sdim(nsub, scale),
                sub_n,
                sdim(border, scale.sqrt()),
                deg,
                sym,
                vm,
            ),
            MatrixKind::HierGrid3d(nsub, nx, ny, nz, border, c) => gen::hier_grid3d(
                sdim(nsub, scale),
                nx,
                ny,
                nz,
                sdim(border, scale.sqrt()),
                c,
                vm,
            ),
        }
    }
}

/// The small/medium matrices of Table 2 & 3 (fit comfortably everywhere).
pub const SMALL: &[&str] = &[
    "sherman5", "lnsp3937", "lns3937", "sherman3", "jpwh991", "orsreg1", "saylr4",
];

/// The large matrices of Tables 5 & 6.
pub const LARGE: &[&str] = &[
    "goodwin", "e40r0100", "ex11", "raefsky4", "inaccura", "af23560", "vavasis3",
];

/// The n = 50k–500k extension tier (beyond anything in Table 1): the
/// bordered hierarchical matrices — power-law circuits and 3D 7-point
/// meshes — where elimination-subtree parallelism is structural, not
/// incidental. Benchmarked by `splu bench-lu --suite large` through the
/// machine model (the matrices are far too large for wall-clock runs of
/// the thread engine on a host with a few cores). Built with the *natural*
/// ordering: the generators emit subdomains-then-border directly, which
/// min-degree would only scramble (and its quotient-graph pass costs
/// minutes at n = 200k+).
pub const XLARGE: &[&str] = &["hier50k", "hiergrid50k", "hier200k", "hier500k"];

/// Single shrunk instance of the extension tier for CI smoke runs
/// (`splu bench-lu --suite large-smoke`).
pub const XLARGE_SMOKE: &[&str] = &["hier20k"];

/// The full suite, in Table 1 order, plus the two extra matrices of
/// Table 2 (`b33_5600`, `dense1000`).
pub fn all() -> Vec<MatrixSpec> {
    vec![
        MatrixSpec {
            name: "sherman5",
            paper_n: 3312,
            paper_nnz: 20793,
            // 16*23*9 = 3312, oil reservoir, 3D stencil
            kind: MatrixKind::Grid3d(16, 23, 9, 0.6),
            seed: 1,
        },
        MatrixSpec {
            name: "lnsp3937",
            paper_n: 3937,
            paper_nnz: 25407,
            kind: MatrixKind::Random(3937, 5, 0.55),
            seed: 2,
        },
        MatrixSpec {
            name: "lns3937",
            paper_n: 3937,
            paper_nnz: 25407,
            kind: MatrixKind::Random(3937, 5, 0.75),
            seed: 3,
        },
        MatrixSpec {
            name: "sherman3",
            paper_n: 5005,
            paper_nnz: 20033,
            // 35*13*11 = 5005
            kind: MatrixKind::Grid3d(35, 13, 11, 0.4),
            seed: 4,
        },
        MatrixSpec {
            name: "jpwh991",
            paper_n: 991,
            paper_nnz: 6027,
            kind: MatrixKind::Random(991, 5, 0.9),
            seed: 5,
        },
        MatrixSpec {
            name: "orsreg1",
            paper_n: 2205,
            paper_nnz: 14133,
            // 21*21*5 = 2205
            kind: MatrixKind::Grid3d(21, 21, 5, 0.5),
            seed: 6,
        },
        MatrixSpec {
            name: "saylr4",
            paper_n: 3564,
            paper_nnz: 22316,
            // 54*66 = 3564
            kind: MatrixKind::Grid2d(54, 66, 0.5),
            seed: 7,
        },
        MatrixSpec {
            name: "goodwin",
            paper_n: 7320,
            paper_nnz: 324772,
            kind: MatrixKind::BlockFluid(520, 10, 18, 0.3),
            seed: 8,
        },
        MatrixSpec {
            name: "e40r0100",
            paper_n: 17281,
            paper_nnz: 553562,
            kind: MatrixKind::BlockFluid(1350, 9, 16, 0.25),
            seed: 9,
        },
        MatrixSpec {
            name: "ex11",
            paper_n: 16614,
            paper_nnz: 1096948,
            kind: MatrixKind::BlockFluid(1050, 12, 19, 0.45),
            seed: 10,
        },
        MatrixSpec {
            name: "raefsky4",
            paper_n: 19779,
            paper_nnz: 1316789,
            kind: MatrixKind::BlockFluid(1230, 13, 19, 0.4),
            seed: 11,
        },
        MatrixSpec {
            name: "inaccura",
            paper_n: 16146,
            paper_nnz: 1015156,
            // structures problem: dense local blocks + long-range coupling
            kind: MatrixKind::BlockFluid(1010, 13, 19, 0.5),
            seed: 12,
        },
        MatrixSpec {
            name: "af23560",
            paper_n: 23560,
            paper_nnz: 460598,
            kind: MatrixKind::Banded(23560, 18, 0.52),
            seed: 13,
        },
        MatrixSpec {
            name: "vavasis3",
            paper_n: 41092,
            paper_nnz: 1683902,
            // 2D PDE discretization: block structure with mesh coupling
            kind: MatrixKind::BlockFluid(2570, 13, 19, 0.35),
            seed: 14,
        },
        MatrixSpec {
            name: "b33_5600",
            paper_n: 5600,
            paper_nnz: 250000,
            kind: MatrixKind::Banded(5600, 42, 0.52),
            seed: 15,
        },
        MatrixSpec {
            name: "dense1000",
            paper_n: 1000,
            paper_nnz: 1_000_000,
            kind: MatrixKind::Dense(1000),
            seed: 16,
        },
        // Workspace extension (not a Table 1 matrix): a power-law
        // circuit netlist at post-layout scale, the structural class of
        // the serving workload's circuit-simulation tenants and the
        // first step toward the large-matrix suite (ROADMAP item 1).
        MatrixSpec {
            name: "circuit20k",
            paper_n: 20000,
            paper_nnz: 110000,
            kind: MatrixKind::Circuit(20000, 4, 0.9),
            seed: 17,
        },
        // The n = 50k–500k extension tier ([`XLARGE`]): hierarchical
        // (bordered block-diagonal) matrices whose block elimination
        // trees have dozens-to-hundreds of independent subtrees, where the
        // modeled large tier compares schedules beyond the stage
        // pipeline. `paper_n` / `paper_nnz` record the generated order
        // and nnz (there is no paper counterpart).
        MatrixSpec {
            name: "hier20k",
            paper_n: 19888,
            paper_nnz: 172320,
            kind: MatrixKind::HierCircuit(32, 620, 48, 4, 0.9),
            seed: 42,
        },
        MatrixSpec {
            name: "hier50k",
            paper_n: 49800,
            paper_nnz: 432800,
            kind: MatrixKind::HierCircuit(64, 777, 72, 4, 0.9),
            seed: 42,
        },
        MatrixSpec {
            name: "hiergrid50k",
            paper_n: 49224,
            paper_nnz: 318467,
            kind: MatrixKind::HierGrid3d(64, 12, 8, 8, 72, 0.5),
            seed: 42,
        },
        MatrixSpec {
            name: "hier200k",
            paper_n: 199008,
            paper_nnz: 1739773,
            kind: MatrixKind::HierCircuit(256, 777, 96, 4, 0.9),
            seed: 42,
        },
        MatrixSpec {
            name: "hier500k",
            paper_n: 499840,
            paper_nnz: 4379600,
            kind: MatrixKind::HierCircuit(512, 976, 128, 4, 0.9),
            seed: 42,
        },
    ]
}

/// Look up a suite matrix by the paper's identifier.
pub fn by_name(name: &str) -> Option<MatrixSpec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_unique_and_lookup_works() {
        let specs = all();
        for (i, a) in specs.iter().enumerate() {
            for b in &specs[i + 1..] {
                assert_ne!(a.name, b.name);
            }
            assert_eq!(by_name(a.name).unwrap().paper_n, a.paper_n);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn small_matrices_match_paper_order_exactly() {
        for name in SMALL {
            let spec = by_name(name).unwrap();
            let a = spec.build();
            assert_eq!(
                a.nrows(),
                spec.paper_n,
                "{name}: order should match paper at scale 1"
            );
            assert!(a.has_zero_free_diagonal(), "{name}");
        }
    }

    #[test]
    fn small_matrices_nnz_in_right_ballpark() {
        for name in SMALL {
            let spec = by_name(name).unwrap();
            let a = spec.build();
            let ratio = a.nnz() as f64 / spec.paper_nnz as f64;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{name}: nnz {} vs paper {} (ratio {ratio:.2})",
                a.nnz(),
                spec.paper_nnz
            );
        }
    }

    #[test]
    fn scaling_shrinks_order_proportionally() {
        let spec = by_name("saylr4").unwrap();
        let half = spec.build_scaled(0.25);
        let full = spec.build();
        let ratio = half.nrows() as f64 / full.nrows() as f64;
        assert!((0.15..0.35).contains(&ratio), "ratio {ratio}");
        assert!(half.has_zero_free_diagonal());
    }

    #[test]
    fn dense1000_is_dense() {
        let a = by_name("dense1000").unwrap().build_scaled(0.05);
        assert_eq!(a.nnz(), a.nrows() * a.ncols());
    }

    #[test]
    fn circuit_extension_builds_scaled() {
        let spec = by_name("circuit20k").unwrap();
        let a = spec.build_scaled(0.05);
        assert!(a.nrows() >= 900 && a.nrows() <= 1100);
        assert!(a.has_zero_free_diagonal());
        // hub columns survive scaling
        let avg = a.nnz() as f64 / a.ncols() as f64;
        let max_col = (0..a.ncols())
            .map(|j| a.col_ptr()[j + 1] - a.col_ptr()[j])
            .max()
            .unwrap();
        assert!(max_col as f64 > 4.0 * avg, "no hub: {max_col} vs {avg:.1}");
    }

    #[test]
    fn xlarge_tier_listed_and_orders_recorded() {
        for name in XLARGE_SMOKE.iter().chain(XLARGE) {
            assert!(by_name(name).is_some(), "{name} missing from suite");
        }
        // build the two cheap representatives and check the recorded
        // order/nnz are the generated ones (the rest share generators)
        for name in ["hier20k", "hiergrid50k"] {
            let spec = by_name(name).unwrap();
            let a = spec.build();
            assert_eq!(a.ncols(), spec.paper_n, "{name} order");
            assert_eq!(a.nnz(), spec.paper_nnz, "{name} nnz");
            assert!(a.has_zero_free_diagonal(), "{name}");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let s = by_name("jpwh991").unwrap();
        assert_eq!(s.build(), s.build());
    }
}
