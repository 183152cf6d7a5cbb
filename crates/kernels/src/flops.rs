//! Flop accounting per BLAS level.
//!
//! The paper's performance analysis (§6.1) hinges on the split of the
//! numerical updates between BLAS-2 (`DGEMV`-class, cost `w2` seconds per
//! flop) and BLAS-3 (`DGEMM`-class, cost `w3 < w2` seconds per flop):
//!
//! ```text
//! T_S* = (1 - r) * w2 * OPS_S*  +  r * w3 * OPS_S*
//! ```
//!
//! where `r` is the fraction of updates performed by `DGEMM` (measured as
//! ≈ 0.65 in the paper). Every kernel of this crate credits its operation
//! count to the calling thread's counter for its [`Level`] through
//! [`add`], one update per *kernel call* (not per flop), so the overhead
//! is negligible even in hot loops. The counter is `splu-probe`'s, the
//! one in the codebase, and is on in every build: [`snapshot`] reads the
//! calling thread's totals, and a traced run reports them per simulated
//! processor as `flops_blas{1,2,3}`. The counters see every caller: the
//! triangular solves of `A x = b`, at any number of right-hand sides, run
//! DGEMM/DTRSM and count as BLAS-3.

pub use splu_probe::flops::{add, snapshot, Level};
