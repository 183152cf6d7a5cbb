//! Thread-local flop counters, split by BLAS level.
//!
//! The dense kernels in `splu-kernels` call [`add`] with their
//! operation counts; the per-processor [`crate::Probe`] snapshots these
//! thread-locals when it attaches to a processor thread and reports the
//! delta as `flops_blas{1,2,3}` counters at flush time. The paper's §6.1
//! performance model rests on exactly this split (`w1`, `w2`, `w3`
//! per-flop costs) — measuring it confirms how much of the update work
//! actually runs at DGEMM rates.
//!
//! Every kernel call on an attached thread counts, not only the
//! factorization's: an `A x = b` solve (one right-hand side or many) runs
//! the blocked TRSM/DGEMM sweep and so adds BLAS-3 flops. The
//! `gemm_flops`/`other_flops` of `FactorStats` are counted by the driver
//! itself and never include a solve.
//!
//! With the `probe` feature off, [`add`] is an empty inline function.

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

#[cfg(feature = "probe")]
mod imp {
    use super::Level;
    use std::cell::Cell;

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
}

#[cfg(not(feature = "probe"))]
mod imp {
    use super::Level;

    /// No-op in this build.
    #[inline(always)]
    pub fn add(_level: Level, _n: u64) {}

    /// Always zeros in this build.
    #[inline(always)]
    pub fn snapshot() -> [u64; 3] {
        [0; 3]
    }
}

pub use imp::{add, snapshot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "probe")]
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
    #[cfg(feature = "probe")]
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

    #[test]
    #[cfg(not(feature = "probe"))]
    fn noop_snapshot_is_zero() {
        add(Level::L3, 5);
        assert_eq!(snapshot(), [0; 3]);
    }
}
