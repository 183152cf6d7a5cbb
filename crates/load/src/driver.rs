//! Open-loop replay of a generated schedule against the concurrent
//! solver service, with goodput + latency reporting.
//!
//! The driver paces [`Event`]s by wall clock (an event scheduled at
//! `at_us` is submitted at `epoch + at_us`, never earlier; if the
//! driver falls behind, the backlog is submitted as fast as possible
//! and the maximum scheduling lag is reported). `NewValues` events
//! build the tenant's new matrix and start a speculative
//! refactor-ahead; `Solve` events go through the non-blocking
//! admission path.
//!
//! **Throughput is goodput**: `req_per_sec` counts only requests solved
//! within their deadline, divided by the total wall time including the
//! drain. On a single-core host (like the reference benchmark machine)
//! raw completion throughput is pinned by the CPU, but goodput still
//! separates configurations: one factor worker serializes cheap churn
//! refactors behind multi-ms cold factorizations and their dependent
//! solves blow their deadlines, while several factor workers let the
//! OS timeslice the cold work under the small jobs.
//!
//! Every `SAMPLE_EVERY`-th request keeps its solution and is checked
//! against a manufactured `x_true`, so a ≥100k-request run still
//! carries a forward-error bound without retaining 100k vectors. A
//! sampled request is submitted without a deadline, so it is solved or
//! fails but never expires: the check always has a solution to read.

use crate::workload::{generate, tenant_matrix, EventKind, LoadConfig, Schedule};
use splu_probe::metrics::Registry;
use splu_solver::concurrent::{ConcurrentConfig, ConcurrentService};
use splu_solver::queue::JobStatus;
use splu_solver::{AheadStats, CacheStats, QueueStats, ShardSnapshot};
use splu_sparse::CscMatrix;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Check every `SAMPLE_EVERY`-th request against a known solution.
pub const SAMPLE_EVERY: usize = 97;

/// Everything one load run produced.
pub struct LoadReport {
    /// Factor worker threads the service ran with.
    pub factor_workers: usize,
    /// Total solve worker threads.
    pub solve_workers: usize,
    /// Cache / queue shards.
    pub shards: usize,
    /// Solve requests submitted.
    pub requests: usize,
    /// `NewValues` events replayed (== prefetches issued).
    pub new_values: usize,
    /// Scheduled arrival window, µs.
    pub span_us: u64,
    /// Wall time from first event to full drain, µs.
    pub wall_us: u64,
    /// Worst scheduling lag behind the open-loop timeline, µs.
    pub sched_lag_max_us: u64,
    /// Requests solved within deadline.
    pub solved: u64,
    /// Requests expired at dequeue.
    pub expired: u64,
    /// Requests failed (factorization or solve error).
    pub failed: u64,
    /// **Goodput**: solved requests per wall second.
    pub req_per_sec: f64,
    /// Offered arrival rate: requests per scheduled span second.
    pub offered_per_sec: f64,
    /// Largest forward error over the sampled, solved requests.
    pub max_err: f64,
    /// Sampled requests whose solution was checked.
    pub samples_checked: usize,
    /// Aggregated cache counters.
    pub cache: CacheStats,
    /// Cache bytes resident at shutdown.
    pub cache_resident_bytes: usize,
    /// Per-shard cache observations.
    pub shard_snapshots: Vec<ShardSnapshot>,
    /// Refactor-ahead accounting.
    pub ahead: AheadStats,
    /// Solve queue counters (summed over shards).
    pub queue: QueueStats,
    /// Factor tasks executed.
    pub factor_tasks: u64,
    /// The service's metrics registry (e2e/solve/wait/factor
    /// histograms, per-worker busy counters).
    pub metrics: Arc<Registry>,
}

/// Deterministic synthetic solution for request `id`.
fn x_true(n: usize, nrhs: usize, id: usize) -> Vec<f64> {
    let mut x = vec![0.0; n * nrhs];
    for c in 0..nrhs {
        for i in 0..n {
            x[c * n + i] = ((i * 7 + c * 13 + id * 31) % 17) as f64 * 0.25 - 2.0;
        }
    }
    x
}

/// Replay `schedule` (or generate it from `cfg`) against a
/// [`ConcurrentService`] configured by `service_cfg`.
pub fn run_load(cfg: &LoadConfig, service_cfg: ConcurrentConfig) -> LoadReport {
    let schedule = generate(cfg);
    run_schedule(cfg, &schedule, service_cfg)
}

/// Replay a pre-generated schedule (lets a comparison run reuse the
/// exact same event sequence and matrices).
pub fn run_schedule(
    cfg: &LoadConfig,
    schedule: &Schedule,
    service_cfg: ConcurrentConfig,
) -> LoadReport {
    let svc = ConcurrentService::new(service_cfg);
    let metrics = svc.metrics();
    // current matrix per tenant (only the latest version stays alive)
    let mut current: Vec<Option<Arc<CscMatrix>>> = vec![None; schedule.tenants.len()];
    let mut samples: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut id = 0usize;
    let mut new_values = 0usize;
    let mut lag_max_us = 0u64;
    let epoch = Instant::now();
    for ev in &schedule.events {
        let target = epoch + Duration::from_micros(ev.at_us);
        let now = Instant::now();
        if now < target {
            std::thread::sleep(target - now);
        } else {
            lag_max_us = lag_max_us.max(now.duration_since(target).as_micros() as u64);
        }
        match ev.kind {
            EventKind::NewValues { tenant, version } => {
                let a = Arc::new(tenant_matrix(&schedule.tenants[tenant], version, cfg));
                svc.prefetch(&a);
                current[tenant] = Some(a);
                new_values += 1;
            }
            EventKind::Solve {
                tenant,
                nrhs,
                deadline_us,
            } => {
                let a = current[tenant]
                    .as_ref()
                    .expect("schedule guarantees NewValues first");
                let n = a.ncols();
                let sampled = id.is_multiple_of(SAMPLE_EVERY);
                let b = if sampled {
                    let xt = x_true(n, nrhs, id);
                    let mut b = vec![0.0; n * nrhs];
                    for c in 0..nrhs {
                        a.matvec_into(&xt[c * n..(c + 1) * n], &mut b[c * n..(c + 1) * n]);
                    }
                    samples.insert(id, xt);
                    b
                } else {
                    vec![1.0; n * nrhs]
                };
                let deadline_us = if sampled { None } else { deadline_us };
                svc.submit_solve(id, a, b, nrhs, deadline_us, !sampled);
                id += 1;
            }
        }
    }
    drop(current);
    let report = svc.finish();
    let wall_us = epoch.elapsed().as_micros() as u64;
    metrics
        .gauge("splu_sched_lag_max_us")
        .raise(lag_max_us as f64);

    // e2e latency per request: admission → dequeue (wait, including any
    // flight time) + solve.
    let e2e = metrics.histogram("splu_request_us");
    let mut solved = 0u64;
    let mut expired = 0u64;
    let mut failed = 0u64;
    let mut max_err = 0.0f64;
    let mut samples_checked = 0usize;
    for r in &report.reports {
        e2e.record(r.wait_us + r.solve_us);
        match &r.status {
            JobStatus::Solved => {
                solved += 1;
                if let Some(xt) = samples.get(&r.id) {
                    let x = r.x.as_ref().expect("sampled solve keeps its solution");
                    let err = x
                        .iter()
                        .zip(xt)
                        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
                    max_err = max_err.max(err);
                    samples_checked += 1;
                }
            }
            JobStatus::DeadlineExpired => expired += 1,
            JobStatus::Failed(_) => failed += 1,
        }
    }
    let wall_secs = (wall_us as f64 / 1e6).max(1e-9);
    let span_secs = (cfg.span_us as f64 / 1e6).max(1e-9);
    LoadReport {
        factor_workers: service_cfg.factor_workers,
        solve_workers: service_cfg.solve_workers,
        shards: service_cfg.shards,
        requests: id,
        new_values,
        span_us: cfg.span_us,
        wall_us,
        sched_lag_max_us: lag_max_us,
        solved,
        expired,
        failed,
        req_per_sec: solved as f64 / wall_secs,
        offered_per_sec: id as f64 / span_secs,
        max_err,
        samples_checked,
        cache: report.cache,
        cache_resident_bytes: report.cache_resident_bytes,
        shard_snapshots: report.shards,
        ahead: report.ahead,
        queue: report.queue,
        factor_tasks: report.factor_tasks,
        metrics,
    }
}

impl LoadReport {
    /// Render the run as a `BENCH_solver.json` document (parseable by
    /// [`splu_solver::SolverRecord`], so the existing `--baseline` /
    /// `SPLU_BENCH_TOL_PCT` gate applies). When `single_worker` holds a
    /// comparison run of the same schedule with one factor worker, a
    /// `single_worker` block and `speedup_vs_single_worker` (goodput
    /// ratio) are appended.
    pub fn to_json(&self, single_worker: Option<&LoadReport>) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"solver_serve\",\n");
        out.push_str("  \"mode\": \"loadgen\",\n");
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"new_values_events\": {},\n", self.new_values));
        out.push_str(&format!(
            "  \"factor_workers\": {}, \"solve_workers\": {}, \"shards\": {},\n",
            self.factor_workers, self.solve_workers, self.shards
        ));
        out.push_str(&format!(
            "  \"span_us\": {}, \"wall_us\": {}, \"sched_lag_max_us\": {},\n",
            self.span_us, self.wall_us, self.sched_lag_max_us
        ));
        out.push_str(&format!(
            "  \"solved\": {}, \"deadline_expired\": {}, \"failed\": {},\n",
            self.solved, self.expired, self.failed
        ));
        out.push_str(&format!(
            "  \"req_per_sec\": {:.1},\n  \"offered_per_sec\": {:.1},\n",
            self.req_per_sec, self.offered_per_sec
        ));
        out.push_str(&format!(
            "  \"max_err\": {:e},\n  \"samples_checked\": {},\n",
            self.max_err, self.samples_checked
        ));
        out.push_str("  \"latency_us\": {\n");
        let phases = [
            ("e2e", "splu_request_us"),
            ("solve", "splu_solve_us"),
            ("wait", "splu_solve_wait_us"),
            ("factor", "splu_factor_us"),
        ];
        for (i, (key, hist)) in phases.iter().enumerate() {
            let s = self.metrics.histogram_summary(hist);
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
        out.push_str(&format!(
            "  \"cache_hit_rate\": {:.6},\n",
            self.cache.hit_rate()
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"analysis_hits\": {}, \"analysis_misses\": {}, \
             \"factor_hits\": {}, \"refactors\": {}, \"evictions\": {}, \
             \"resident_bytes\": {}}},\n",
            self.cache.analysis_hits,
            self.cache.analysis_misses,
            self.cache.factor_hits,
            self.cache.refactors,
            self.cache.evictions,
            self.cache_resident_bytes,
        ));
        out.push_str(&format!(
            "  \"refactor_ahead\": {{\"prefetches\": {}, \"spec_started\": {}, \
             \"hits_ready\": {}, \"hits_inflight\": {}, \"demand_flights\": {}, \
             \"hit_rate\": {:.6}}},\n",
            self.ahead.prefetches,
            self.ahead.spec_started,
            self.ahead.hits_ready,
            self.ahead.hits_inflight,
            self.ahead.demand_flights,
            self.ahead.hit_rate(),
        ));
        out.push_str(&format!(
            "  \"queue\": {{\"accepted\": {}, \"rejected_full\": {}, \
             \"expired\": {}, \"solved\": {}, \"failed\": {}}},\n",
            self.queue.accepted,
            self.queue.rejected_full,
            self.queue.expired,
            self.queue.solved,
            self.queue.failed,
        ));
        out.push_str(&format!("  \"factor_tasks\": {},\n", self.factor_tasks));
        out.push_str("  \"shards\": [\n");
        for (i, s) in self.shard_snapshots.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"shard\": {}, \"entries\": {}, \"resident_bytes\": {}, \
                 \"lookups\": {}, \"contended_locks\": {}, \"factor_hits\": {}, \
                 \"refactors\": {}, \"evictions\": {}}}{}\n",
                s.shard,
                s.entries,
                s.resident_bytes,
                s.lookups,
                s.contended_locks,
                s.stats.factor_hits,
                s.stats.refactors,
                s.stats.evictions,
                if i + 1 < self.shard_snapshots.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ]");
        if let Some(single) = single_worker {
            let s = single.metrics.histogram_summary("splu_request_us");
            out.push_str(&format!(
                ",\n  \"single_worker\": {{\"factor_workers\": {}, \"req_per_sec\": {:.1}, \
                 \"solved\": {}, \"deadline_expired\": {}, \"p95_e2e_us\": {}}},\n",
                single.factor_workers, single.req_per_sec, single.solved, single.expired, s.p95,
            ));
            let speedup = if single.req_per_sec > 0.0 {
                self.req_per_sec / single.req_per_sec
            } else {
                f64::INFINITY
            };
            out.push_str(&format!("  \"speedup_vs_single_worker\": {speedup:.2}\n"));
        } else {
            out.push('\n');
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_solver::SolverRecord;

    fn tiny_load() -> LoadConfig {
        LoadConfig {
            requests: 150,
            tenants: 16,
            span_us: 120_000,
            cold_dim: (11, 13),
            churn_dim: (6, 9),
            circuit_n: (40, 80),
            deadline_us: (30_000, 60_000),
            ..LoadConfig::default()
        }
    }

    fn tiny_service() -> ConcurrentConfig {
        ConcurrentConfig {
            factor_workers: 2,
            solve_workers: 2,
            shards: 2,
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn small_load_end_to_end() {
        let cfg = tiny_load();
        let report = run_load(&cfg, tiny_service());
        assert!(report.requests >= 150);
        assert_eq!(
            report.solved + report.expired + report.failed,
            report.requests as u64,
            "every request reports exactly once"
        );
        assert_eq!(report.failed, 0);
        assert!(report.samples_checked > 0);
        assert!(report.max_err < 1e-6, "max_err {:.3e}", report.max_err);
        assert!(report.new_values > 0);
        assert_eq!(report.ahead.prefetches as usize, report.new_values);
        // churn traffic exercises the speculative path
        assert!(
            report.ahead.hits_ready + report.ahead.hits_inflight > 0,
            "no refactor-ahead hits: {:?}",
            report.ahead
        );
        assert!(report.cache.hit_rate() > 0.0);
        assert!(report.req_per_sec > 0.0);
        let e2e = report.metrics.histogram_summary("splu_request_us");
        assert_eq!(e2e.count as usize, report.requests);
    }

    #[test]
    fn json_record_is_gate_compatible() {
        let cfg = LoadConfig {
            requests: 60,
            span_us: 40_000,
            ..tiny_load()
        };
        let schedule = generate(&cfg);
        let multi = run_schedule(&cfg, &schedule, tiny_service());
        let single = run_schedule(
            &cfg,
            &schedule,
            ConcurrentConfig {
                factor_workers: 1,
                ..tiny_service()
            },
        );
        let json = multi.to_json(Some(&single));
        // the existing serve gate parses the loadgen record directly
        let rec = SolverRecord::parse(&json).expect("gate-parseable record");
        assert!(rec.cache_hit_rate >= 0.0);
        assert!(json.contains("\"mode\": \"loadgen\""));
        assert!(json.contains("\"req_per_sec\""));
        assert!(json.contains("\"refactor_ahead\""));
        assert!(json.contains("\"speedup_vs_single_worker\""));
        assert!(json.contains("\"shards\": ["));
        // without a comparison run the block is absent
        let solo = multi.to_json(None);
        assert!(!solo.contains("single_worker"));
        assert!(SolverRecord::parse(&solo).is_ok());
    }
}
