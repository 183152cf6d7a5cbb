//! Thread-local flop counters, split by BLAS level.
//!
//! This is the codebase's one flop counter, on in every build: the dense
//! kernels in `splu-kernels` call [`add`] once per kernel call with its
//! operation count, and [`snapshot`] reads the calling thread's totals,
//! so no two threads touch a shared counter. With the `probe` feature on,
//! the per-processor [`crate::Probe`] snapshots these thread-locals when
//! it attaches to a processor thread and reports the delta as
//! `flops_blas{1,2,3}` counters at flush time. The paper's §6.1
//! performance model rests on exactly this split (`w1`, `w2`, `w3`
//! per-flop costs) — measuring it confirms how much of the update work
//! actually runs at DGEMM rates.
//!
//! Every kernel call counts, not only the factorization's: an `A x = b`
//! solve (one right-hand side or many) runs the blocked TRSM/DGEMM sweep
//! and so adds BLAS-3 flops. The `gemm_flops`/`other_flops` of
//! `FactorStats` are counted by the driver itself and never include a
//! solve.

use std::cell::Cell;

/// BLAS level of a kernel, for flop attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Vector-vector (daxpy, ddot, dscal, …).
    L1,
    /// Matrix-vector (dgemv, dger, dtrsv).
    L2,
    /// Matrix-matrix (dgemm, dtrsm).
    L3,
}

thread_local! {
    static FLOPS: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
}

/// Credit `n` flops to `level` on the current thread.
#[inline]
pub fn add(level: Level, n: u64) {
    FLOPS.with(|f| {
        let c = &f[level as usize];
        c.set(c.get().wrapping_add(n));
    });
}

/// Current thread's totals `[blas1, blas2, blas3]`.
pub fn snapshot() -> [u64; 3] {
    FLOPS.with(|f| [f[0].get(), f[1].get(), f[2].get()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_thread_accumulation() {
        let base = snapshot();
        add(Level::L1, 10);
        add(Level::L3, 100);
        add(Level::L3, 1);
        let now = snapshot();
        assert_eq!(now[0] - base[0], 10);
        assert_eq!(now[1] - base[1], 0);
        assert_eq!(now[2] - base[2], 101);
    }

    #[test]
    fn threads_do_not_share_counters() {
        let h = std::thread::spawn(|| {
            add(Level::L2, 7);
            snapshot()[1]
        });
        let other = h.join().unwrap();
        assert!(other >= 7);
        // this thread's L2 counter is untouched by the spawned thread's adds
        let before = snapshot()[1];
        let h2 = std::thread::spawn(|| add(Level::L2, 1000));
        h2.join().unwrap();
        assert_eq!(snapshot()[1], before);
    }
}
