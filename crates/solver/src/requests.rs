//! Workload files and the batch driver behind `splu serve`.
//!
//! A workload is a small line-oriented text file: `matrix` lines declare
//! named matrices (generators, value perturbations of a base pattern,
//! or a numerically singular twin), `solve` lines request solves against
//! them in order. Example:
//!
//! ```text
//! # two patterns, one singular twin
//! matrix g grid2d 12 12
//! matrix g2 perturb g 7     # same pattern as g, new values
//! matrix r random 150 4
//! matrix bad singular g     # g's pattern, one value column zeroed
//! solve g nrhs=2
//! solve g2                  # analysis reused, numeric refactor
//! solve g                   # full cache hit
//! solve r
//! solve bad                 # typed ZeroPivot, not a panic
//! solve g deadline_us=0     # deterministically past its deadline
//! ```
//!
//! [`run_batch`] resolves the requests in order through a
//! [`ConcurrentService`] (so the factorization cache sees the
//! pattern/value reuse, and reuse labels and counters are deterministic)
//! and queues each solve on the service's solve pool (so solves run
//! concurrently under admission control), then reports one
//! [`RequestOutcome`] per `solve` line. Right-hand sides are
//! manufactured from a deterministic `x_true` ([`manufactured_rhs`]), so
//! every solved request carries a forward-error measurement.

use crate::concurrent::{ConcurrentConfig, ConcurrentService, Reuse};
use crate::gate::push_service_blocks;
use crate::queue::{JobStatus, SolveJob};
use crate::{CacheStats, QueueStats};
use splu_probe::metrics::Registry;
use splu_sparse::gen::{self, ValueModel};
use splu_sparse::CscMatrix;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One declared matrix: name plus how to build it.
#[derive(Debug, Clone, PartialEq)]
enum MatrixSpec {
    /// `grid2d <nx> <ny>` — 5-point convection-diffusion grid.
    Grid2d { nx: usize, ny: usize },
    /// `random <n> <avg_per_col>` — random sparse with partial symmetry.
    Random { n: usize, avg_per_col: usize },
    /// `perturb <base> <seed>` — same pattern as `base`, rescaled values.
    Perturb { base: String, seed: u64 },
    /// `singular <base>` — `base` with one value column zeroed: same
    /// pattern fingerprint, numerically singular.
    Singular { base: String },
}

/// One `solve` line.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Name of the matrix to solve against.
    pub matrix: String,
    /// Number of right-hand-side columns (`nrhs=K`, default 1).
    pub nrhs: usize,
    /// Optional deadline in microseconds from submission
    /// (`deadline_us=U`; `0` is deterministically expired).
    pub deadline_us: Option<u64>,
}

/// A parsed workload: matrix declarations plus solve requests.
#[derive(Debug, Default)]
pub struct Workload {
    matrices: Vec<(String, MatrixSpec)>,
    /// Solve requests in file order; the index is the request id.
    pub requests: Vec<SolveRequest>,
}

impl Workload {
    /// Parse the workload text format. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut w = Workload::default();
        let mut names: HashMap<String, usize> = HashMap::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let lineno = lineno + 1;
            let mut tok = line.split_whitespace();
            match tok.next() {
                Some("matrix") => {
                    let name = tok
                        .next()
                        .ok_or_else(|| format!("line {lineno}: matrix needs a name"))?
                        .to_string();
                    if names.contains_key(&name) {
                        return Err(format!("line {lineno}: duplicate matrix `{name}`"));
                    }
                    let kind = tok
                        .next()
                        .ok_or_else(|| format!("line {lineno}: matrix `{name}` needs a kind"))?;
                    let spec = match kind {
                        "grid2d" => MatrixSpec::Grid2d {
                            nx: parse_tok(&mut tok, lineno, "nx")?,
                            ny: parse_tok(&mut tok, lineno, "ny")?,
                        },
                        "random" => MatrixSpec::Random {
                            n: parse_tok(&mut tok, lineno, "n")?,
                            avg_per_col: parse_tok(&mut tok, lineno, "avg_per_col")?,
                        },
                        "perturb" => {
                            let base: String = parse_tok(&mut tok, lineno, "base")?;
                            if !names.contains_key(&base) {
                                return Err(format!("line {lineno}: unknown base matrix `{base}`"));
                            }
                            MatrixSpec::Perturb {
                                base,
                                seed: parse_tok(&mut tok, lineno, "seed")?,
                            }
                        }
                        "singular" => {
                            let base: String = parse_tok(&mut tok, lineno, "base")?;
                            if !names.contains_key(&base) {
                                return Err(format!("line {lineno}: unknown base matrix `{base}`"));
                            }
                            MatrixSpec::Singular { base }
                        }
                        other => {
                            return Err(format!(
                                "line {lineno}: unknown matrix kind `{other}` \
                                 (expected grid2d|random|perturb|singular)"
                            ))
                        }
                    };
                    names.insert(name.clone(), w.matrices.len());
                    w.matrices.push((name, spec));
                }
                Some("solve") => {
                    let matrix = tok
                        .next()
                        .ok_or_else(|| format!("line {lineno}: solve needs a matrix name"))?
                        .to_string();
                    if !names.contains_key(&matrix) {
                        return Err(format!("line {lineno}: unknown matrix `{matrix}`"));
                    }
                    let mut req = SolveRequest {
                        matrix,
                        nrhs: 1,
                        deadline_us: None,
                    };
                    for opt in tok {
                        if let Some(v) = opt.strip_prefix("nrhs=") {
                            req.nrhs = v
                                .parse()
                                .map_err(|_| format!("line {lineno}: bad nrhs `{v}`"))?;
                            if req.nrhs == 0 {
                                return Err(format!("line {lineno}: nrhs must be >= 1"));
                            }
                        } else if let Some(v) = opt.strip_prefix("deadline_us=") {
                            req.deadline_us =
                                Some(v.parse().map_err(|_| {
                                    format!("line {lineno}: bad deadline_us `{v}`")
                                })?);
                        } else {
                            return Err(format!("line {lineno}: unknown solve option `{opt}`"));
                        }
                    }
                    w.requests.push(req);
                }
                Some(other) => {
                    return Err(format!(
                        "line {lineno}: unknown directive `{other}` (expected matrix|solve)"
                    ))
                }
                None => unreachable!(),
            }
        }
        Ok(w)
    }

    /// Build every declared matrix, in declaration order.
    fn build_matrices(&self) -> HashMap<String, Arc<CscMatrix>> {
        let vm = ValueModel::default();
        let mut built: HashMap<String, Arc<CscMatrix>> = HashMap::new();
        for (name, spec) in &self.matrices {
            let m = match spec {
                MatrixSpec::Grid2d { nx, ny } => gen::grid2d(*nx, *ny, 0.4, vm),
                MatrixSpec::Random { n, avg_per_col } => {
                    gen::random_sparse(*n, *avg_per_col, 0.5, vm)
                }
                MatrixSpec::Perturb { base, seed } => gen::perturb_values(&built[base], *seed),
                MatrixSpec::Singular { base } => {
                    let b = &built[base];
                    gen::zero_column_values(b, b.ncols() / 2)
                }
            };
            built.insert(name.clone(), Arc::new(m));
        }
        built
    }
}

fn parse_tok<T: std::str::FromStr>(
    tok: &mut std::str::SplitWhitespace<'_>,
    lineno: usize,
    what: &str,
) -> Result<T, String> {
    let s = tok
        .next()
        .ok_or_else(|| format!("line {lineno}: missing {what}"))?;
    s.parse()
        .map_err(|_| format!("line {lineno}: bad {what} `{s}`"))
}

/// Per-request result.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Request id (index of the `solve` line).
    pub id: usize,
    /// Matrix name the request solved against.
    pub matrix: String,
    /// Right-hand-side columns.
    pub nrhs: usize,
    /// Cache reuse level of the factorization (`None` if the
    /// factorization failed).
    pub reuse: Option<Reuse>,
    /// Terminal status label: `solved`, `deadline_expired`, `failed`, or
    /// `factorization_failed`.
    pub status: String,
    /// Error detail for failed requests.
    pub error: Option<String>,
    /// Forward error `max_i |x_i - x_true_i|` over all columns (solved
    /// requests only).
    pub max_err: Option<f64>,
    /// Queue wait in microseconds (requests that reached the pool).
    pub wait_us: u64,
    /// Solve time in microseconds (solved requests).
    pub solve_us: u64,
    /// Driver-side factorization (or cache-lookup) time in microseconds.
    pub factor_us: u64,
}

/// Everything `splu serve` reports: per-request outcomes plus cache and
/// queue counters.
#[derive(Debug)]
pub struct BatchReport {
    /// One outcome per `solve` request, in request order.
    pub outcomes: Vec<RequestOutcome>,
    /// Factorization-cache counters.
    pub cache: CacheStats,
    /// Work-queue counters.
    pub queue: QueueStats,
    /// Resident cache bytes at the end of the batch.
    pub cache_resident_bytes: usize,
    /// The service's metrics registry: `splu_request_us` (end-to-end
    /// per request), `splu_factor_us` (per factor task),
    /// `splu_solve_us`, `splu_solve_wait_us` histograms plus
    /// queue/worker/cache counters — the source of the
    /// p50/p95/p99 fields in [`BatchReport::to_json`] and of
    /// `splu serve --metrics-out`.
    pub metrics: Arc<Registry>,
}

impl BatchReport {
    /// Count of outcomes with the given status label.
    pub fn count(&self, status: &str) -> usize {
        self.outcomes.iter().filter(|o| o.status == status).count()
    }

    /// Largest forward error over all solved requests.
    pub fn max_err(&self) -> f64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.max_err)
            .fold(0.0, f64::max)
    }

    /// Render the report as a JSON object (the `BENCH_solver.json`
    /// format emitted by `verify.sh`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"solver_serve\",\n");
        out.push_str(&format!("  \"requests\": {},\n", self.outcomes.len()));
        for status in [
            "solved",
            "deadline_expired",
            "failed",
            "factorization_failed",
        ] {
            out.push_str(&format!("  \"{}\": {},\n", status, self.count(status)));
        }
        out.push_str(&format!("  \"max_err\": {:e},\n", self.max_err()));
        let total_solve_us: u64 = self.outcomes.iter().map(|o| o.solve_us).sum();
        out.push_str(&format!("  \"total_solve_us\": {total_solve_us},\n"));
        push_service_blocks(
            &mut out,
            &self.metrics,
            &[
                ("e2e", "splu_request_us"),
                ("solve", "splu_solve_us"),
                ("wait", "splu_solve_wait_us"),
            ],
            &self.cache,
            self.cache_resident_bytes,
            "",
            &self.queue,
        );
        out.push_str("  \"outcomes\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let reuse = o
                .reuse
                .map_or("null".to_string(), |r| format!("\"{}\"", r.label()));
            let max_err = o.max_err.map_or("null".to_string(), |e| format!("{e:e}"));
            let error = o
                .error
                .as_ref()
                .map_or("null".to_string(), |e| format!("{:?}", e));
            out.push_str(&format!(
                "    {{\"id\": {}, \"matrix\": {:?}, \"nrhs\": {}, \"reuse\": {}, \
                 \"status\": {:?}, \"error\": {}, \"max_err\": {}, \
                 \"wait_us\": {}, \"solve_us\": {}}}{}\n",
                o.id,
                o.matrix,
                o.nrhs,
                reuse,
                o.status,
                error,
                max_err,
                o.wait_us,
                o.solve_us,
                if i + 1 < self.outcomes.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Manufactured system for request `id`: a deterministic `x_true` of
/// `nrhs` columns and `b = A·x_true`, both column-major. Returns
/// `(x_true, b)`.
pub fn manufactured_rhs(a: &CscMatrix, nrhs: usize, id: usize) -> (Vec<f64>, Vec<f64>) {
    let n = a.ncols();
    let mut x = vec![0.0; n * nrhs];
    let mut b = vec![0.0; n * nrhs];
    for c in 0..nrhs {
        for i in 0..n {
            x[c * n + i] = ((i * 7 + c * 13 + id * 31) % 17) as f64 * 0.25 - 2.0;
        }
        a.matvec_into(&x[c * n..(c + 1) * n], &mut b[c * n..(c + 1) * n]);
    }
    (x, b)
}

/// Forward error `max_i |x_i - x_true_i|`.
pub fn forward_error(x: &[f64], x_true: &[f64]) -> f64 {
    x.iter()
        .zip(x_true)
        .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()))
}

/// Run a parsed workload through a [`ConcurrentService`] built from
/// `config`.
///
/// Each request's factorization is resolved on the calling thread with
/// [`ConcurrentService::factorization_blocking`], in request order, so
/// the cache fills deterministically and the reuse labels and counters
/// repeat exactly; the resolved factorization then goes straight to the
/// pattern's solve pool ([`ConcurrentService::submit_factored`]), whose
/// blocking submit makes queue capacity back-pressure rather than data
/// loss.
pub fn run_batch(workload: &Workload, config: ConcurrentConfig) -> BatchReport {
    let matrices = workload.build_matrices();
    let service = ConcurrentService::new(config);
    let metrics = service.metrics();
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(workload.requests.len());
    let mut x_true: HashMap<usize, Vec<f64>> = HashMap::new();

    for (id, req) in workload.requests.iter().enumerate() {
        let a = &matrices[&req.matrix];
        let t_factor = Instant::now();
        let factorized = service.factorization_blocking(a);
        let factor_us = t_factor.elapsed().as_micros() as u64;
        let (reuse, status, error) = match factorized {
            Err(e) => (None, "factorization_failed", Some(e.to_string())),
            Ok((factor, reuse)) => {
                let (xt, b) = manufactured_rhs(a, req.nrhs, id);
                service.submit_factored(SolveJob::new(id, factor, b, req.nrhs, req.deadline_us));
                x_true.insert(id, xt);
                (Some(reuse), "pending", None)
            }
        };
        outcomes.push(RequestOutcome {
            id,
            matrix: req.matrix.clone(),
            nrhs: req.nrhs,
            reuse,
            status: status.into(),
            error,
            max_err: None,
            wait_us: 0,
            solve_us: 0,
            factor_us,
        });
    }

    let report = service.finish();
    let request_hist = metrics.histogram("splu_request_us");
    for r in report.reports {
        let o = &mut outcomes[r.id];
        o.wait_us = r.wait_us;
        o.solve_us = r.solve_us;
        o.status = r.status.label().into();
        // End-to-end latency the client saw: driver-side factorization
        // (or cache lookup) + queue wait + solve.
        request_hist.record(o.factor_us + o.wait_us + o.solve_us);
        match r.status {
            JobStatus::Solved => {
                let x = r.x.as_ref().expect("solved job carries a solution");
                o.max_err = Some(forward_error(x, &x_true[&r.id]));
            }
            JobStatus::Failed(e) => o.error = Some(e.to_string()),
            JobStatus::DeadlineExpired => {}
        }
    }

    let cache = report.cache;
    for (name, value) in [
        ("splu_cache_analysis_hits_total", cache.analysis_hits),
        ("splu_cache_analysis_misses_total", cache.analysis_misses),
        ("splu_cache_factor_hits_total", cache.factor_hits),
        ("splu_cache_refactors_total", cache.refactors),
        ("splu_cache_evictions_total", cache.evictions),
    ] {
        metrics.counter(name).add(value);
    }

    BatchReport {
        outcomes,
        cache,
        queue: report.queue,
        cache_resident_bytes: report.cache_resident_bytes,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOAD: &str = "\
# mixed two-pattern workload
matrix g grid2d 9 9
matrix g2 perturb g 7
matrix r random 120 4
matrix bad singular g
solve g nrhs=2
solve g
solve g2
solve r
solve bad
solve g2 deadline_us=0
solve r nrhs=3
solve g2
";

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Workload::parse("solve nowhere").is_err());
        assert!(Workload::parse("matrix a grid2d 3").is_err());
        assert!(Workload::parse("matrix a grid2d 3 3\nmatrix a grid2d 3 3").is_err());
        assert!(Workload::parse("matrix a perturb missing 1").is_err());
        assert!(Workload::parse("matrix a grid2d 3 3\nsolve a nrhs=0").is_err());
        assert!(Workload::parse("bogus line").is_err());
    }

    #[test]
    fn parse_accepts_comments_and_options() {
        let w = Workload::parse(WORKLOAD).unwrap();
        assert_eq!(w.matrices.len(), 4);
        assert_eq!(w.requests.len(), 8);
        assert_eq!(w.requests[0].nrhs, 2);
        assert_eq!(w.requests[5].deadline_us, Some(0));
    }

    #[test]
    fn mixed_batch_end_to_end() {
        let w = Workload::parse(WORKLOAD).unwrap();
        let report = run_batch(&w, ConcurrentConfig::default());
        assert_eq!(report.outcomes.len(), 8);

        // The singular matrix fails factorization with a typed error.
        assert_eq!(report.outcomes[4].status, "factorization_failed");
        assert!(report.outcomes[4]
            .error
            .as_ref()
            .unwrap()
            .contains("zero pivot"));
        // The zero-deadline request is rejected by deadline, never solved.
        assert_eq!(report.outcomes[5].status, "deadline_expired");
        assert_eq!(report.queue.expired, 1);
        // Everything else solves accurately.
        assert_eq!(report.count("solved"), 6);
        assert!(report.max_err() < 1e-7, "max_err={:.3e}", report.max_err());

        // Cache reuse: g misses, repeat g full-hits, g2 reuses analysis
        // (new values under the cached symbolic analysis).
        assert_eq!(report.outcomes[0].reuse, Some(Reuse::None));
        assert_eq!(report.outcomes[1].reuse, Some(Reuse::Full));
        assert_eq!(report.outcomes[2].reuse, Some(Reuse::Analysis));
        assert_eq!(report.outcomes[3].reuse, Some(Reuse::None));
        assert_eq!(report.outcomes[5].reuse, Some(Reuse::Full));
        assert_eq!(report.outcomes[7].reuse, Some(Reuse::Full));
        let c = report.cache;
        assert_eq!(c.analysis_misses, 2, "two distinct patterns");
        assert_eq!(c.factor_hits, 4, "repeat requests hit the factor cache");
        // g2's refactor, plus the singular twin's failed refactor: the
        // counters count the work done.
        assert_eq!(c.refactors, 2, "refactors under the cached analysis");

        // JSON renders and contains the headline counters.
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"solver_serve\""));
        assert!(json.contains("\"solved\": 6"));
        assert!(json.contains("\"deadline_expired\": 1"));
        assert!(json.contains("\"factorization_failed\": 1"));
        // …and the new percentile block.
        assert!(json.contains("\"latency_us\""));
        assert!(json.contains("\"p50\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"cache_hit_rate\": 0.750000"));

        // The batch registry saw every request that reached the pool
        // (8 requests minus the failed factorization).
        let e2e = report.metrics.histogram_summary("splu_request_us");
        assert_eq!(e2e.count, 7);
        assert!(e2e.p99 > 0, "cold factorizations dominate the tail");
        assert_eq!(
            report
                .metrics
                .counter_value("splu_cache_analysis_misses_total"),
            2
        );
        assert_eq!(
            report.metrics.counter_value("splu_deadline_expired_total"),
            1
        );
        // the metrics snapshot exporters render without panicking
        assert!(report.metrics.prometheus_text().contains("splu_request_us"));
        assert!(report.metrics.json_snapshot().contains("splu_solve_us"));
    }
}
