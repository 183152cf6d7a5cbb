//! The `BENCH_solver.json` record: the blocks every serving record
//! shares, and the regression gate that reads them back.
//!
//! `splu serve` ([`BatchReport`](crate::BatchReport)) and `splu
//! loadgen` write one record shape: [`push_service_blocks`] emits the
//! `latency_us`, `cache_hit_rate`, `cache` and `queue` blocks of both,
//! and [`SolverRecord::parse`] reads the gated fields back.
//!
//! The bench-lu pipeline already refuses GFLOP/s drops beyond
//! `SPLU_BENCH_TOL_PCT` percent; this module applies the same
//! baseline-diff idea to the solver service record: p95 end-to-end
//! request latency must not grow past the tolerance, and the cache hit
//! rate must not fall below the recorded one. `splu serve --baseline
//! <file>` runs it after writing the fresh record.
//!
//! Latency gating needs two extra allowances the GFLOP/s gate does
//! not: the percentiles come from log2-bucketed histograms whose
//! quantiles report the *upper bound* of the containing bucket, so a
//! sample drifting marginally across a bucket boundary doubles the
//! reported p95 no matter how small the tolerance. The gate therefore
//! always allows one bucket step (`2·baseline + 1`, the next bucket's
//! upper bound) on top of the percentage tolerance — adjacent buckets
//! cannot distinguish a 1 % drift from a 99 % one, so only a ≥ two-
//! bucket (≥ 4×) jump is evidence of a real regression — plus a small
//! absolute slack ([`ABS_SLACK_US`]) so microsecond-scale workloads do
//! not flap on scheduler noise.

use crate::{CacheStats, QueueStats};
use splu_probe::json::{self, Value};
use splu_probe::metrics::Registry;

/// Append the blocks every `solver_serve` record shares: `latency_us`
/// (one line per `(key, histogram)` phase of `metrics`),
/// `cache_hit_rate`, `cache` and `queue`. `between` (complete lines,
/// possibly empty) is written between the `cache` and `queue` blocks.
pub fn push_service_blocks(
    out: &mut String,
    metrics: &Registry,
    phases: &[(&str, &str)],
    cache: &CacheStats,
    cache_resident_bytes: usize,
    between: &str,
    queue: &QueueStats,
) {
    out.push_str("  \"latency_us\": {\n");
    for (i, (key, hist)) in phases.iter().enumerate() {
        let s = metrics.histogram_summary(hist);
        out.push_str(&format!(
            "    \"{key}\": {{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}{}\n",
            s.count,
            s.p50,
            s.p95,
            s.p99,
            if i + 1 < phases.len() { "," } else { "" },
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"cache_hit_rate\": {:.6},\n", cache.hit_rate()));
    out.push_str(&format!(
        "  \"cache\": {{\"analysis_hits\": {}, \"analysis_misses\": {}, \
         \"factor_hits\": {}, \"refactors\": {}, \"evictions\": {}, \
         \"resident_bytes\": {}}},\n",
        cache.analysis_hits,
        cache.analysis_misses,
        cache.factor_hits,
        cache.refactors,
        cache.evictions,
        cache_resident_bytes,
    ));
    out.push_str(between);
    out.push_str(&format!(
        "  \"queue\": {{\"accepted\": {}, \"rejected_full\": {}, \
         \"expired\": {}, \"solved\": {}, \"failed\": {}}},\n",
        queue.accepted, queue.rejected_full, queue.expired, queue.solved, queue.failed,
    ));
}

/// The gate-relevant numbers of one `BENCH_solver.json` document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverRecord {
    /// p95 end-to-end request latency (`latency_us.e2e.p95`),
    /// microseconds.
    pub p95_e2e_us: u64,
    /// Analysis-cache hit rate (`cache_hit_rate`), 0..=1.
    pub cache_hit_rate: f64,
    /// Goodput in requests/second (`req_per_sec`). Present only on
    /// loadgen records; gated only when both records carry it.
    pub req_per_sec: Option<f64>,
}

impl SolverRecord {
    /// Extract the gated fields from a `BENCH_solver.json` document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("bad solver record: {e}"))?;
        if v.get("bench").and_then(Value::as_str) != Some("solver_serve") {
            return Err("not a solver_serve record (missing \"bench\": \"solver_serve\")".into());
        }
        let p95_e2e_us = v
            .get("latency_us")
            .and_then(|l| l.get("e2e"))
            .and_then(|e| e.get("p95"))
            .and_then(Value::as_u64)
            .ok_or("solver record missing latency_us.e2e.p95")?;
        let cache_hit_rate = v
            .get("cache_hit_rate")
            .and_then(Value::as_f64)
            .ok_or("solver record missing cache_hit_rate")?;
        let req_per_sec = v.get("req_per_sec").and_then(Value::as_f64);
        Ok(Self {
            p95_e2e_us,
            cache_hit_rate,
            req_per_sec,
        })
    }
}

/// Absolute latency slack added on top of the percentage tolerance (see
/// the module docs for why bucket quantization requires it).
pub const ABS_SLACK_US: u64 = 500;

/// Regression tolerance in percent, from `SPLU_BENCH_TOL_PCT` (same
/// knob and default as the bench-lu gate).
pub fn tolerance_pct() -> f64 {
    std::env::var("SPLU_BENCH_TOL_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15.0)
}

/// Gate `current` against `baseline`: p95 end-to-end latency may grow
/// at most `tol_pct` percent or one log2 bucket step (whichever is
/// larger) plus [`ABS_SLACK_US`]; the cache hit rate may fall at most
/// `tol_pct` percentage points.
pub fn gate_against(
    current: &SolverRecord,
    baseline: &SolverRecord,
    tol_pct: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    let rel_bound = baseline.p95_e2e_us as f64 * (1.0 + tol_pct / 100.0);
    let bucket_step = (2 * baseline.p95_e2e_us + 1) as f64;
    let allowed_us = rel_bound.max(bucket_step) + ABS_SLACK_US as f64;
    if current.p95_e2e_us as f64 > allowed_us {
        failures.push(format!(
            "p95 e2e latency {} us exceeds the recorded {} us by more than \
             {tol_pct}% (or one histogram bucket) + {ABS_SLACK_US} us slack",
            current.p95_e2e_us, baseline.p95_e2e_us
        ));
    }
    let hit_floor = baseline.cache_hit_rate - tol_pct / 100.0;
    if current.cache_hit_rate < hit_floor {
        failures.push(format!(
            "cache hit rate {:.4} fell more than {tol_pct} percentage points \
             below the recorded {:.4}",
            current.cache_hit_rate, baseline.cache_hit_rate
        ));
    }
    // Throughput (loadgen goodput) is gated only when both records
    // carry it, so serve records stay comparable to old baselines.
    if let (Some(cur), Some(base)) = (current.req_per_sec, baseline.req_per_sec) {
        let floor = base * (1.0 - tol_pct / 100.0);
        if cur < floor {
            failures.push(format!(
                "goodput {cur:.1} req/s fell more than {tol_pct}% below the \
                 recorded {base:.1} req/s"
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "solver benchmark regression:\n  {}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(p95: u64, hit: f64) -> String {
        format!(
            "{{\"bench\": \"solver_serve\", \"latency_us\": \
             {{\"e2e\": {{\"count\": 7, \"p50\": 63, \"p95\": {p95}, \"p99\": {p95}}}}}, \
             \"cache_hit_rate\": {hit}}}"
        )
    }

    #[test]
    fn parse_extracts_gated_fields() {
        let r = SolverRecord::parse(&record(2047, 0.75)).unwrap();
        assert_eq!(r.p95_e2e_us, 2047);
        assert_eq!(r.cache_hit_rate, 0.75);
        assert_eq!(r.req_per_sec, None, "serve records carry no goodput");
    }

    #[test]
    fn goodput_is_parsed_and_gated_when_both_sides_carry_it() {
        let with_rps = |rps: f64| {
            let mut r = SolverRecord::parse(&record(4000, 0.75)).unwrap();
            r.req_per_sec = Some(rps);
            r
        };
        let loadgen = record(4000, 0.75).replace(
            "\"cache_hit_rate\"",
            "\"req_per_sec\": 5200.5, \"cache_hit_rate\"",
        );
        assert_eq!(
            SolverRecord::parse(&loadgen).unwrap().req_per_sec,
            Some(5200.5)
        );
        let base = with_rps(5000.0);
        // within 15%: ok
        assert!(gate_against(&with_rps(4300.0), &base, 15.0).is_ok());
        // beyond 15% drop: named failure
        let err = gate_against(&with_rps(4000.0), &base, 15.0).unwrap_err();
        assert!(err.contains("goodput"), "{err}");
        // asymmetric presence (old serve baseline): throughput not gated
        let mut no_rps = base;
        no_rps.req_per_sec = None;
        assert!(gate_against(&with_rps(1.0), &no_rps, 15.0).is_ok());
        assert!(gate_against(&no_rps, &base, 15.0).is_ok());
    }

    #[test]
    fn parse_rejects_foreign_and_incomplete_records() {
        assert!(SolverRecord::parse("{\"bench\": \"lu\"}").is_err());
        assert!(SolverRecord::parse("{\"bench\": \"solver_serve\"}")
            .unwrap_err()
            .contains("latency_us.e2e.p95"));
        assert!(SolverRecord::parse("not json").is_err());
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = SolverRecord::parse(&record(4000, 0.75)).unwrap();
        // +15% + 500us slack on 4000us allows up to 5100us
        let cur = SolverRecord {
            p95_e2e_us: 5100,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        assert!(gate_against(&cur, &base, 15.0).is_ok());
        // a one-bucket quantization flip (8191 -> 16383: the sample
        // drifted marginally across the boundary) must not trip the
        // gate even at a tight tolerance
        let boundary_base = SolverRecord {
            p95_e2e_us: 8191,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        let next_bucket = SolverRecord {
            p95_e2e_us: 16383,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        assert!(gate_against(&next_bucket, &boundary_base, 15.0).is_ok());
        // tiny baselines are protected by the absolute slack
        let small_base = SolverRecord {
            p95_e2e_us: 3,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        let small_cur = SolverRecord {
            p95_e2e_us: 400,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        assert!(gate_against(&small_cur, &small_base, 15.0).is_ok());
    }

    #[test]
    fn gate_rejects_latency_and_hit_rate_regressions() {
        let base = SolverRecord {
            p95_e2e_us: 4000,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        // more than one bucket above the recorded 4000us (allowance:
        // max(4600, 8001) + 500 = 8501us)
        let slow = SolverRecord {
            p95_e2e_us: 9000,
            cache_hit_rate: 0.75,
            req_per_sec: None,
        };
        let err = gate_against(&slow, &base, 15.0).unwrap_err();
        assert!(err.contains("p95 e2e latency"), "{err}");
        let cold = SolverRecord {
            p95_e2e_us: 4000,
            cache_hit_rate: 0.5,
            req_per_sec: None,
        };
        let err = gate_against(&cold, &base, 15.0).unwrap_err();
        assert!(err.contains("cache hit rate"), "{err}");
        // both regress -> both named
        let both = SolverRecord {
            p95_e2e_us: 9000,
            cache_hit_rate: 0.1,
            req_per_sec: None,
        };
        let err = gate_against(&both, &base, 15.0).unwrap_err();
        assert!(err.contains("p95 e2e latency") && err.contains("cache hit rate"));
    }
}
