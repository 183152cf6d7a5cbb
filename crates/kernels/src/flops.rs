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
//! ≈ 0.65 in the paper). The benchmark harnesses use these counters to
//! report `r` for our implementation and to feed the discrete-event machine
//! model with per-class flop totals.
//!
//! Counts are thread-local, one update per *kernel call* (not per flop),
//! so the overhead is negligible even in hot loops and no two threads
//! touch a shared counter. Every record lands in the calling thread's
//! total ([`thread_count`]), which a caller can read without seeing other
//! threads' kernel calls, and in the `splu-probe` flight recorder. The
//! counters see every caller: the triangular solves of `A x = b`, at any
//! number of right-hand sides, run DGEMM/DTRSM and count as BLAS-3.

use std::cell::Cell;

/// Which BLAS level a kernel belongs to, for cost-model purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlopClass {
    /// Vector–vector operations (`DAXPY`, `DSCAL`, ...).
    Blas1,
    /// Matrix–vector operations (`DGEMV`, `DGER`, `DTRSV`).
    Blas2,
    /// Matrix–matrix operations (`DGEMM`, `DTRSM`).
    Blas3,
}

thread_local! {
    static THREAD: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
}

/// Flops of class `class` recorded so far by kernels called on the
/// current thread (independent of the `probe` feature).
pub fn thread_count(class: FlopClass) -> u64 {
    THREAD.with(|t| t[class as usize].get())
}

/// Record `n` flops of class `class` on the calling thread's total
/// ([`thread_count`]) and (when the `probe` feature is on) on the
/// thread's flight-recorder counter so a traced run attributes flops to
/// the simulated processor that performed them.
#[inline]
pub fn record(class: FlopClass, n: u64) {
    THREAD.with(|t| {
        let c = &t[class as usize];
        c.set(c.get().wrapping_add(n));
    });
    let level = match class {
        FlopClass::Blas1 => splu_probe::flops::Level::L1,
        FlopClass::Blas2 => splu_probe::flops::Level::L2,
        FlopClass::Blas3 => splu_probe::flops::Level::L3,
    };
    splu_probe::flops::add(level, n);
}
