//! `splu-bench` — the paper-reproduction driver and the benchmark
//! harnesses.
//!
//! * [`repro`]: Tables 1–7, Figs. 2/4/9/11 and 16–18 and the design
//!   ablations as one manifest, run by `splu repro [ID…]` and pinned on a
//!   two-matrix suite by the golden test `tests/paper_golden.rs`;
//! * [`bench_lu`]: the seq / par2d factorization record
//!   (`splu bench-lu`, `results/BENCH_lu.json`);
//! * [`stopwatch`]: the std-only timing harness of the `bench_kernels`
//!   binary and the `benches/` targets.

pub mod bench_lu;
pub mod repro;
pub mod stopwatch;

/// Pretty horizontal rule for table output.
pub fn rule(width: usize) -> String {
    "-".repeat(width)
}

/// Format seconds in engineering style.
pub fn secs(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.2}s")
    } else if t >= 1e-3 {
        format!("{:.1}ms", t * 1e3)
    } else {
        format!("{:.0}µs", t * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(2.5), "2.50s");
        assert_eq!(secs(0.0021), "2.1ms");
        assert_eq!(secs(3.2e-5), "32µs");
        assert_eq!(rule(3), "---");
    }
}
