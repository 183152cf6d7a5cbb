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
//! Counters are process-global relaxed atomics: one increment per *kernel
//! call* (not per flop), so the overhead is negligible even in hot loops.
//! For multi-threaded runs each simulated processor usually keeps a private
//! [`FlopCounter`] and merges it at the end instead. Every record also
//! lands in a per-thread total ([`thread_count`]), which a caller can read
//! without seeing other threads' kernel calls. The counters see every
//! caller: the triangular solves of `A x = b`, at any number of
//! right-hand sides, run DGEMM/DTRSM and count as BLAS-3.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// A set of per-class flop counters.
///
/// Use a local instance for per-processor accounting; the global instance
/// ([`global`]) is convenient for single-threaded measurement.
#[derive(Debug, Default)]
pub struct FlopCounter {
    blas1: AtomicU64,
    blas2: AtomicU64,
    blas3: AtomicU64,
}

impl FlopCounter {
    /// A new counter with all classes at zero.
    pub const fn new() -> Self {
        Self {
            blas1: AtomicU64::new(0),
            blas2: AtomicU64::new(0),
            blas3: AtomicU64::new(0),
        }
    }

    /// Record `n` flops of class `class`.
    #[inline]
    pub fn add(&self, class: FlopClass, n: u64) {
        let c = match class {
            FlopClass::Blas1 => &self.blas1,
            FlopClass::Blas2 => &self.blas2,
            FlopClass::Blas3 => &self.blas3,
        };
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Flops recorded for one class.
    pub fn get(&self, class: FlopClass) -> u64 {
        match class {
            FlopClass::Blas1 => self.blas1.load(Ordering::Relaxed),
            FlopClass::Blas2 => self.blas2.load(Ordering::Relaxed),
            FlopClass::Blas3 => self.blas3.load(Ordering::Relaxed),
        }
    }

    /// Total flops across all classes.
    pub fn total(&self) -> u64 {
        self.get(FlopClass::Blas1) + self.get(FlopClass::Blas2) + self.get(FlopClass::Blas3)
    }

    /// Fraction of flops performed at BLAS-3 level (the paper's `r`).
    ///
    /// Returns 0.0 when nothing has been recorded.
    pub fn blas3_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(FlopClass::Blas3) as f64 / t as f64
        }
    }

    /// Reset all classes to zero.
    pub fn reset(&self) {
        self.blas1.store(0, Ordering::Relaxed);
        self.blas2.store(0, Ordering::Relaxed);
        self.blas3.store(0, Ordering::Relaxed);
    }

    /// Merge another counter's totals into this one.
    pub fn merge(&self, other: &FlopCounter) {
        self.add(FlopClass::Blas1, other.get(FlopClass::Blas1));
        self.add(FlopClass::Blas2, other.get(FlopClass::Blas2));
        self.add(FlopClass::Blas3, other.get(FlopClass::Blas3));
    }

    /// A snapshot of (blas1, blas2, blas3) totals.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.get(FlopClass::Blas1),
            self.get(FlopClass::Blas2),
            self.get(FlopClass::Blas3),
        )
    }
}

impl Clone for FlopCounter {
    fn clone(&self) -> Self {
        let c = FlopCounter::new();
        c.merge(self);
        c
    }
}

static GLOBAL: FlopCounter = FlopCounter::new();

/// The process-global flop counter used by kernels when no explicit counter
/// is threaded through.
pub fn global() -> &'static FlopCounter {
    &GLOBAL
}

thread_local! {
    static THREAD: [Cell<u64>; 3] = const { [Cell::new(0), Cell::new(0), Cell::new(0)] };
}

/// Flops of class `class` recorded so far by kernels called on the
/// current thread (independent of the `probe` feature).
pub fn thread_count(class: FlopClass) -> u64 {
    THREAD.with(|t| t[class as usize].get())
}

/// Record `n` flops of class `class` on the global counter, on the
/// calling thread's total ([`thread_count`]), and (when the `probe`
/// feature is on) on the thread's flight-recorder counter so a traced run
/// attributes flops to the simulated processor that performed them.
#[inline]
pub fn record(class: FlopClass, n: u64) {
    GLOBAL.add(class, n);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_class() {
        let c = FlopCounter::new();
        c.add(FlopClass::Blas1, 3);
        c.add(FlopClass::Blas2, 5);
        c.add(FlopClass::Blas3, 7);
        c.add(FlopClass::Blas3, 1);
        assert_eq!(c.get(FlopClass::Blas1), 3);
        assert_eq!(c.get(FlopClass::Blas2), 5);
        assert_eq!(c.get(FlopClass::Blas3), 8);
        assert_eq!(c.total(), 16);
    }

    #[test]
    fn blas3_fraction_matches_ratio() {
        let c = FlopCounter::new();
        assert_eq!(c.blas3_fraction(), 0.0);
        c.add(FlopClass::Blas2, 25);
        c.add(FlopClass::Blas3, 75);
        assert!((c.blas3_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reset_and_merge() {
        let a = FlopCounter::new();
        let b = FlopCounter::new();
        a.add(FlopClass::Blas3, 10);
        b.add(FlopClass::Blas3, 20);
        b.add(FlopClass::Blas1, 1);
        a.merge(&b);
        assert_eq!(a.get(FlopClass::Blas3), 30);
        assert_eq!(a.get(FlopClass::Blas1), 1);
        a.reset();
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn snapshot_reports_all_classes() {
        let c = FlopCounter::new();
        c.add(FlopClass::Blas1, 1);
        c.add(FlopClass::Blas2, 2);
        c.add(FlopClass::Blas3, 3);
        assert_eq!(c.snapshot(), (1, 2, 3));
    }
}
