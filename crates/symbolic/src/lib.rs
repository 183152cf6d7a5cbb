//! `splu-symbolic` — static structure prediction for sparse LU with
//! partial pivoting (§3 of the paper).
//!
//! Partial pivoting interchanges rows based on numerical values, so the
//! exact structures of the L and U factors cannot be known before the
//! numerical factorization. The S\* approach sidesteps run-time symbolic
//! work entirely with three static steps, all implemented here:
//!
//! 1. **Static symbolic factorization** ([`symfact`]) — the George–Ng
//!    scheme: at each elimination step, every *candidate pivot row*'s
//!    structure is replaced by the union of all candidate structures, so
//!    the predicted pattern accommodates *any* pivot sequence that could
//!    occur (§3.1, Fig. 2). The result is stored once per fundamental
//!    supernode: inside one, each column's structure is the previous
//!    column's minus its first index (Theorem 1).
//! 2. **2D L/U supernode partitioning** ([`supernode`]) — columns are
//!    grouped into supernodes from the static L structure; the same
//!    partition applied to the rows tiles the matrix into submatrices
//!    whose U blocks contain only *structurally dense subcolumns*
//!    (Theorem 1) and whose L blocks contain dense subrows — the key to
//!    doing the numerical updates with BLAS-3 (§3.2, Figs. 3–5).
//! 3. **Supernode amalgamation** ([`supernode::amalgamate`]) — consecutive
//!    supernodes whose structures differ by at most `r` entries are merged
//!    (no permutation needed), trading a few padded zeros for larger dense
//!    blocks (§3.3, Corollary 3).
//!
//! [`blocks`] materializes the resulting 2D block pattern (presence +
//! dense subrow/subcolumn masks per block) consumed by the numerical and
//! scheduling crates, and [`layout`] the dense panels a numeric
//! factorization stores it in.

pub mod blocks;
pub mod etree;
pub mod layout;
pub mod supernode;
pub mod symfact;

pub use blocks::{
    factor_task_flops, update_task_flops, BlockPattern, UBlockKind, UpdateShapes, WidthCensus,
};
pub use etree::{block_etree, subtree_costs};
pub use layout::{ColumnLayout, LSeg, Slot, StorageLayout, ULayout};
pub use supernode::{amalgamate, partition_supernodes, SupernodePartition};
pub use symfact::{static_symbolic_factorization, StaticStructure};
