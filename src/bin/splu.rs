//! `splu` — command-line driver for the S\* sparse LU solver.
//!
//! ```text
//! <matrix> is a Matrix Market / Harwell–Boeing file or the name of a
//! built-in suite matrix (sherman5, goodwin, hier50k, …).
//!
//! splu info   <matrix.mtx>              print structure statistics
//! splu factor <matrix.mtx> [opts]       analyze + factor, report stats
//! splu solve  <matrix.mtx> [opts]       analyze → factorize → solve via the
//!                                       solver-service lifecycle handles
//!                                       (default rhs: A·1)
//! splu serve  <requests.txt> [opts]     batch solver service: run a workload
//!                                       file through the factorization cache
//!                                       and bounded solve work queue
//! splu project <matrix.mtx> [opts]      projected T3D/T3E parallel times
//! splu trace  <matrix.mtx> [opts]       factor on P thread-processors with
//!                                       the flight recorder on; write a
//!                                       Perfetto-loadable Chrome trace
//! splu analyze <matrix|suite> [opts]    factor in-process (or load a
//!                                       recorded trace with --from-trace)
//!                                       and attribute wall time per rank
//!                                       into panel/trsm/gemm/swap/
//!                                       pivot-wait/idle; report the
//!                                       critical path, pipeline depth vs
//!                                       the Theorem 2 bound, and message
//!                                       volume vs the 2D cost model
//! splu bench-lu [opts]                  factor the synthetic suite with the
//!                                       seq/par2d drivers; write the
//!                                       GFLOP/s + scratch-footprint record
//!                                       (default results/BENCH_lu.json)
//! splu repro [ID…]                      reproduce the paper's tables, figures
//!                                       and ablations (every experiment of
//!                                       the manifest, or the named ids):
//!                                       print each table, write its
//!                                       model-only rendering (host cells
//!                                       masked) to results/<ID>.txt; exits
//!                                       nonzero if a checked bound broke
//! splu loadgen [opts]                   multi-tenant load benchmark: generate
//!                                       a seeded open-loop schedule (cold-
//!                                       start / value-churn / pattern-reuse
//!                                       traffic) and replay it against the
//!                                       concurrent solver service; write the
//!                                       goodput + latency record (default
//!                                       results/BENCH_solver.json)
//!
//! options (each subcommand accepts its own subset; an unknown flag
//! error names the flag and lists the valid ones):
//!   --block-size N     max supernode width        (default 32; the paper's 25)
//!   --amalgamate R     amalgamation factor        (default 4)
//!   --ordering X       natural | mmd | atpa | rcm (default mmd)
//!   --refine N         iterative refinement steps (default 1, solve only)
//!   --lookahead W      2D executor lookahead window (default 1; 0 = the
//!                                                 strictly in-order schedule)
//!   --procs P          processor count    (default 16 project, 4
//!                                          trace/analyze; factor: run the
//!                                          2D driver)
//!   --out FILE         Chrome trace-event JSON    (default trace.json;
//!                                                 analyze: report JSON,
//!                                                 default analyze.json)
//!   --stats-json FILE  run-summary JSON           (trace/serve)
//!   --gantt-width N    ASCII Gantt width, 0 = off (default 64, trace only)
//!   --from-trace FILE  analyze a recorded Chrome trace instead of
//!                                                 running in-process
//!   --requests X       serve: workload file (alias for the positional);
//!                      loadgen: solve-request count  (default 100000)
//!   --workers N        solve worker threads       (default 2 serve,
//!                                                 4 loadgen)
//!   --queue-cap N      work-queue capacity        (default 8 serve,
//!                                                 256 loadgen)
//!   --cache-bytes N    factorization-cache budget (serve/loadgen)
//!   --metrics-out FILE metrics snapshot           (serve/loadgen; `.json`
//!                                                 = JSON snapshot, anything
//!                                                 else Prometheus text)
//!   --tenants N        tenant population           (default 48, loadgen)
//!   --seed N           workload seed               (loadgen only)
//!   --span-ms MS       open-loop arrival window    (default 1 ms per
//!                                                 request, loadgen only)
//!   --factor-workers N factorization worker threads (default 4, loadgen)
//!   --shards N         cache + solve-queue shards  (default 4, loadgen)
//!   --compare-single   replay the same schedule with one factor worker
//!                      first and record the goodput speedup (loadgen)
//!   --min-secs S       per-driver measurement time (default 0.2,
//!                                                 bench-lu only)
//!   --suite X          bench-lu suite: small (measured seq/par2d,
//!                      default) | large (the n = 50k-500k hierarchical
//!                      tier through the T3E machine model) | large-smoke
//!                      (one shrunk large-tier instance for CI)
//!   --baseline FILE    previous record to gate against (bench-lu/serve;
//!                                                 bench-lu default: the
//!                                                 --out file; tolerance
//!                                                 from SPLU_BENCH_TOL_PCT,
//!                                                 %)
//! ```

use sstar::prelude::*;
use sstar::sparse::hb::read_harwell_boeing_file;
use sstar::sparse::io::read_matrix_market_file;
use sstar::sparse::pattern::structural_symmetry;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: splu repro [ID...]\n       \
         splu <info|factor|solve|serve|project|trace|analyze|bench-lu|loadgen> \
         <matrix.mtx|requests.txt|suite-name> \
         [--block-size N] [--amalgamate R] [--ordering natural|mmd|atpa|rcm] \
         [--refine N] [--lookahead W] [--procs P] [--rhs file] [--out file] \
         [--stats-json file] [--gantt-width N] [--from-trace file] \
         [--requests file|N] [--workers N] [--queue-cap N] [--cache-bytes N] \
         [--metrics-out file] [--min-secs S] [--baseline file] [--tenants N] \
         [--seed N] [--span-ms MS] [--factor-workers N] [--shards N] \
         [--compare-single]"
    );
    ExitCode::from(2)
}

/// The named flags each subcommand accepts — the shared parser rejects
/// anything outside the subcommand's set, naming the flag and listing
/// the valid ones.
fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    const OPTS: [&str; 3] = ["--block-size", "--amalgamate", "--ordering"];
    macro_rules! flags {
        ($($extra:literal),*) => {{
            const F: &[&str] = &[OPTS[0], OPTS[1], OPTS[2] $(, $extra)*];
            Some(F)
        }};
    }
    match cmd {
        "info" => flags!(),
        "factor" => flags!("--procs", "--lookahead"),
        "solve" => flags!("--refine", "--rhs"),
        "serve" => flags!(
            "--requests",
            "--workers",
            "--queue-cap",
            "--cache-bytes",
            "--stats-json",
            "--metrics-out",
            "--baseline"
        ),
        "project" => flags!("--procs"),
        "trace" => flags!(
            "--procs",
            "--lookahead",
            "--out",
            "--stats-json",
            "--gantt-width"
        ),
        "analyze" => flags!("--procs", "--lookahead", "--out", "--from-trace"),
        "bench-lu" => Some(&[
            "--out",
            "--min-secs",
            "--baseline",
            "--lookahead",
            "--suite",
        ]),
        "loadgen" => flags!(
            "--requests",
            "--tenants",
            "--seed",
            "--span-ms",
            "--factor-workers",
            "--workers",
            "--shards",
            "--queue-cap",
            "--cache-bytes",
            "--stats-json",
            "--metrics-out",
            "--baseline",
            "--compare-single"
        ),
        _ => None,
    }
}

struct Cli {
    cmd: String,
    /// Matrix file — or, for `serve`, the workload/requests file.
    matrix: String,
    options: FactorOptions,
    /// Lookahead window `W` of the 2D stage executor (`factor --procs`,
    /// `trace`, `analyze`, `bench-lu`).
    lookahead: usize,
    refine_steps: usize,
    procs: Option<usize>,
    rhs: Option<String>,
    out: String,
    stats_json: Option<String>,
    gantt_width: usize,
    /// Solve worker threads; the default depends on the subcommand
    /// (2 for `serve`, 4 for `loadgen`).
    workers: Option<usize>,
    /// Work-queue capacity; default 8 for `serve`, 256 for `loadgen`.
    queue_cap: Option<usize>,
    cache_bytes: Option<usize>,
    min_secs: f64,
    baseline: Option<String>,
    metrics_out: Option<String>,
    from_trace: Option<String>,
    /// bench-lu suite selection (small | large | large-smoke).
    suite: splu_bench::bench_lu::SuiteSel,
    // loadgen-only knobs
    load_requests: usize,
    tenants: usize,
    seed: Option<u64>,
    span_ms: Option<u64>,
    factor_workers: usize,
    shards: usize,
    compare_single: bool,
}

/// The value following `flag`, or an error naming the flag.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag}: missing value"))
}

/// Parse the value following `flag`, or an error naming flag and value.
fn flag_parse<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = flag_value(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag}: invalid value `{v}`"))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut args = args.peekable();
    args.next(); // program name
    let cmd = args.next().ok_or("missing <command>")?;
    // The positional input may be omitted when `--requests` is used.
    let matrix = match args.peek() {
        Some(s) if !s.starts_with("--") => args.next().unwrap(),
        _ => String::new(),
    };
    let mut cli = Cli {
        cmd,
        matrix,
        options: FactorOptions::default(),
        lookahead: sstar::core::par2d::DEFAULT_LOOKAHEAD,
        refine_steps: 1,
        procs: None,
        rhs: None,
        out: "trace.json".to_string(),
        stats_json: None,
        gantt_width: 64,
        workers: None,
        queue_cap: None,
        cache_bytes: None,
        min_secs: 0.2,
        baseline: None,
        metrics_out: None,
        from_trace: None,
        suite: splu_bench::bench_lu::SuiteSel::Small,
        load_requests: 100_000,
        tenants: 48,
        seed: None,
        span_ms: None,
        factor_workers: 4,
        shards: 4,
        compare_single: false,
    };
    let valid = allowed_flags(&cli.cmd).ok_or_else(|| {
        format!(
            "unknown command `{}` (expected \
             info|factor|solve|serve|project|trace|analyze|bench-lu|loadgen|repro)",
            cli.cmd
        )
    })?;
    while let Some(flag) = args.next() {
        if !valid.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag `{flag}` for `splu {}` (valid flags: {})",
                cli.cmd,
                valid.join(", ")
            ));
        }
        match flag.as_str() {
            "--block-size" => cli.options.block_size = flag_parse(&mut args, "--block-size")?,
            "--amalgamate" => cli.options.amalgamation = flag_parse(&mut args, "--amalgamate")?,
            "--ordering" => {
                let v = flag_value(&mut args, "--ordering")?;
                cli.options.ordering = match v.as_str() {
                    "natural" => ColumnOrdering::Natural,
                    "mmd" => ColumnOrdering::MinDegreeAtA,
                    "atpa" => ColumnOrdering::MinDegreeAtPlusA,
                    "rcm" => ColumnOrdering::ReverseCuthillMcKee,
                    other => {
                        return Err(format!(
                            "--ordering: unknown value `{other}` \
                             (expected natural|mmd|atpa|rcm)"
                        ))
                    }
                }
            }
            "--refine" => cli.refine_steps = flag_parse(&mut args, "--refine")?,
            "--lookahead" => cli.lookahead = flag_parse(&mut args, "--lookahead")?,
            "--procs" => {
                let p: usize = flag_parse(&mut args, "--procs")?;
                if p == 0 {
                    return Err("--procs: invalid value `0` (must be ≥ 1)".to_string());
                }
                cli.procs = Some(p);
            }
            "--rhs" => cli.rhs = Some(flag_value(&mut args, "--rhs")?),
            "--out" => cli.out = flag_value(&mut args, "--out")?,
            "--stats-json" => cli.stats_json = Some(flag_value(&mut args, "--stats-json")?),
            "--gantt-width" => cli.gantt_width = flag_parse(&mut args, "--gantt-width")?,
            // `--requests` is a workload file for `serve`, a request
            // count for `loadgen`.
            "--requests" if cli.cmd == "loadgen" => {
                cli.load_requests = flag_parse(&mut args, "--requests")?;
                if cli.load_requests == 0 {
                    return Err("--requests: invalid value `0` (must be ≥ 1)".to_string());
                }
            }
            "--requests" => cli.matrix = flag_value(&mut args, "--requests")?,
            "--workers" => {
                let w: usize = flag_parse(&mut args, "--workers")?;
                if w == 0 {
                    return Err("--workers: invalid value `0` (must be ≥ 1)".to_string());
                }
                cli.workers = Some(w);
            }
            "--queue-cap" => {
                let c: usize = flag_parse(&mut args, "--queue-cap")?;
                if c == 0 {
                    return Err("--queue-cap: invalid value `0` (must be ≥ 1)".to_string());
                }
                cli.queue_cap = Some(c);
            }
            "--cache-bytes" => cli.cache_bytes = Some(flag_parse(&mut args, "--cache-bytes")?),
            "--min-secs" => cli.min_secs = flag_parse(&mut args, "--min-secs")?,
            "--baseline" => cli.baseline = Some(flag_value(&mut args, "--baseline")?),
            "--metrics-out" => cli.metrics_out = Some(flag_value(&mut args, "--metrics-out")?),
            "--from-trace" => cli.from_trace = Some(flag_value(&mut args, "--from-trace")?),
            "--suite" => {
                let v = flag_value(&mut args, "--suite")?;
                cli.suite = splu_bench::bench_lu::SuiteSel::parse(&v)?;
            }
            "--tenants" => {
                cli.tenants = flag_parse(&mut args, "--tenants")?;
                if cli.tenants == 0 {
                    return Err("--tenants: invalid value `0` (must be ≥ 1)".to_string());
                }
            }
            "--seed" => cli.seed = Some(flag_parse(&mut args, "--seed")?),
            "--span-ms" => cli.span_ms = Some(flag_parse(&mut args, "--span-ms")?),
            "--factor-workers" => {
                cli.factor_workers = flag_parse(&mut args, "--factor-workers")?;
                if cli.factor_workers == 0 {
                    return Err("--factor-workers: invalid value `0` (must be ≥ 1)".to_string());
                }
            }
            "--shards" => {
                cli.shards = flag_parse(&mut args, "--shards")?;
                if cli.shards == 0 {
                    return Err("--shards: invalid value `0` (must be ≥ 1)".to_string());
                }
            }
            "--compare-single" => cli.compare_single = true,
            other => unreachable!("flag `{other}` passed the allow-list but has no handler"),
        }
    }
    // `bench-lu` and `loadgen` run built-in workloads and take no input
    // file; `analyze --from-trace` reads a recorded trace instead of a
    // matrix.
    if cli.cmd == "loadgen" && !cli.matrix.is_empty() {
        return Err(format!(
            "`splu loadgen` takes no positional input (got `{}`); the \
             workload is synthesized from --requests/--tenants/--seed",
            cli.matrix
        ));
    }
    let input_optional = cli.cmd == "bench-lu"
        || cli.cmd == "loadgen"
        || (cli.cmd == "analyze" && cli.from_trace.is_some());
    if cli.matrix.is_empty() && !input_optional {
        return Err(if cli.cmd == "serve" {
            "missing <requests> argument (positional or --requests)".to_string()
        } else {
            "missing <matrix> argument".to_string()
        });
    }
    Ok(cli)
}

/// `splu serve`: run a workload file through the solver service.
fn cmd_serve(cli: &Cli) -> ExitCode {
    use sstar::solver::{run_batch, CacheConfig, ConcurrentConfig, Workload};
    let text = match std::fs::read_to_string(&cli.matrix) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("splu: cannot read {}: {e}", cli.matrix);
            return ExitCode::FAILURE;
        }
    };
    let workload = match Workload::parse(&text) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("splu: {}: {e}", cli.matrix);
            return ExitCode::FAILURE;
        }
    };
    // Requests resolve one at a time, so one factor worker (holding the
    // whole core budget) and one cache shard (one LRU over the whole
    // budget, one pool of `--workers` solvers) serve them.
    let config = ConcurrentConfig {
        factor_workers: 1,
        solve_workers: cli.workers.unwrap_or(2),
        shards: 1,
        solve_queue_cap: cli.queue_cap.unwrap_or(8),
        cache_bytes: cli
            .cache_bytes
            .unwrap_or(CacheConfig::default().capacity_bytes),
        options: cli.options,
        ..ConcurrentConfig::default()
    };
    println!(
        "serve: {} request(s) from {}, {} worker(s), queue capacity {}",
        workload.requests.len(),
        cli.matrix,
        config.solve_workers,
        config.solve_queue_cap
    );
    let report = run_batch(&workload, config);
    for o in &report.outcomes {
        let detail = match (&o.max_err, &o.error) {
            (Some(e), _) => format!(
                "max_err {e:.3e}, wait {} µs, solve {} µs",
                o.wait_us, o.solve_us
            ),
            (None, Some(err)) => err.clone(),
            (None, None) => format!("wait {} µs", o.wait_us),
        };
        println!(
            "  #{:<3} {:<10} nrhs={:<2} reuse={:<8} {:<20} {detail}",
            o.id,
            o.matrix,
            o.nrhs,
            o.reuse.map_or("-", |r| r.label()),
            o.status,
        );
    }
    let c = &report.cache;
    println!(
        "cache: {} analysis hit(s), {} miss(es), {} factor hit(s), {} refactor(s), \
         {} eviction(s), {} resident byte(s)",
        c.analysis_hits,
        c.analysis_misses,
        c.factor_hits,
        c.refactors,
        c.evictions,
        report.cache_resident_bytes
    );
    let q = &report.queue;
    println!(
        "queue: {} accepted, {} rejected (full), {} expired, {} solved, {} failed",
        q.accepted, q.rejected_full, q.expired, q.solved, q.failed
    );
    let json = report.to_json();
    if let Some(path) = &cli.stats_json {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("splu: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    write_metrics_and_gate(cli, &json, &report.metrics)
}

/// `--metrics-out` and `--baseline` of `serve` and `loadgen`: write the
/// run's metrics registry (`.json` gets the JSON snapshot; anything else
/// the Prometheus text exposition), then gate the fresh
/// `BENCH_solver.json` record `json` against the baseline record. A
/// missing or unparseable baseline records nothing to gate against
/// (mirrors the bench-lu gate's behaviour on first runs).
fn write_metrics_and_gate(
    cli: &Cli,
    json: &str,
    metrics: &sstar::probe::metrics::Registry,
) -> ExitCode {
    use sstar::solver::gate::{gate_against, tolerance_pct, SolverRecord};
    if let Some(path) = &cli.metrics_out {
        let body = if path.ends_with(".json") {
            metrics.json_snapshot()
        } else {
            metrics.prometheus_text()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("splu: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    let Some(base) = &cli.baseline else {
        return ExitCode::SUCCESS;
    };
    let current = match SolverRecord::parse(json) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("splu: fresh solver record unparseable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = std::fs::read_to_string(base)
        .ok()
        .and_then(|t| SolverRecord::parse(&t).ok());
    let Some(b) = baseline else {
        println!("gate: no usable baseline at {base}; skipping");
        return ExitCode::SUCCESS;
    };
    let tol = tolerance_pct();
    if let Err(e) = gate_against(&current, &b, tol) {
        eprintln!("splu: {e}");
        return ExitCode::FAILURE;
    }
    let goodput = match (current.req_per_sec, b.req_per_sec) {
        (Some(c), Some(r)) => format!(", goodput {c:.1} vs {r:.1} req/s"),
        _ => String::new(),
    };
    println!(
        "gate: ok vs {base} (p95 e2e {} us vs {} us, hit rate {:.3} vs {:.3}{goodput}, \
         tolerance {tol}%)",
        current.p95_e2e_us, b.p95_e2e_us, current.cache_hit_rate, b.cache_hit_rate
    );
    ExitCode::SUCCESS
}

/// `splu loadgen`: synthesize a multi-tenant open-loop workload and
/// replay it against the concurrent solver service.
fn cmd_loadgen(cli: &Cli) -> ExitCode {
    use sstar::load::{generate, run_schedule, LoadConfig};
    use sstar::solver::ConcurrentConfig;
    let base_load = LoadConfig::default();
    let load_cfg = LoadConfig {
        requests: cli.load_requests,
        tenants: cli.tenants,
        seed: cli.seed.unwrap_or(base_load.seed),
        // default pacing: 1 ms per request (1000 offered req/s — about
        // 2× the single-core service capacity, the overload regime
        // where factor-pool head-of-line blocking shows)
        span_us: cli
            .span_ms
            .map_or(cli.load_requests as u64 * 1_000, |ms| ms * 1_000),
        ..base_load
    };
    let mut service_cfg = ConcurrentConfig {
        factor_workers: cli.factor_workers,
        solve_workers: cli.workers.unwrap_or(4),
        shards: cli.shards,
        options: cli.options,
        ..ConcurrentConfig::default()
    };
    if let Some(cap) = cli.queue_cap {
        service_cfg.factor_queue_cap = cap;
        service_cfg.solve_queue_cap = cap;
    }
    if let Some(bytes) = cli.cache_bytes {
        service_cfg.cache_bytes = bytes;
    }
    let schedule = generate(&load_cfg);
    println!(
        "loadgen: {} solve request(s) over {} tenant(s), span {} ms, seed {:#x}",
        schedule.solve_count,
        load_cfg.tenants,
        load_cfg.span_us / 1_000,
        load_cfg.seed
    );
    println!(
        "loadgen: {} factor worker(s), {} solve worker(s), {} shard(s), \
         queue capacity {}",
        service_cfg.factor_workers,
        service_cfg.solve_workers,
        service_cfg.shards,
        service_cfg.solve_queue_cap
    );
    let single = if cli.compare_single {
        println!("loadgen: single-factor-worker comparison run …");
        let s = run_schedule(
            &load_cfg,
            &schedule,
            ConcurrentConfig {
                factor_workers: 1,
                ..service_cfg
            },
        );
        println!(
            "  single: goodput {:.1} req/s ({} solved, {} expired, {} failed)",
            s.req_per_sec, s.solved, s.expired, s.failed
        );
        Some(s)
    } else {
        None
    };
    let report = run_schedule(&load_cfg, &schedule, service_cfg);
    let e2e = report.metrics.histogram_summary("splu_request_us");
    let solve = report.metrics.histogram_summary("splu_solve_us");
    println!(
        "replayed {} request(s) in {:.3} s (offered {:.1} req/s, max lag {} µs)",
        report.requests,
        report.wall_us as f64 / 1e6,
        report.offered_per_sec,
        report.sched_lag_max_us
    );
    println!(
        "goodput: {:.1} req/s ({} solved, {} expired, {} failed)",
        report.req_per_sec, report.solved, report.expired, report.failed
    );
    println!(
        "latency: e2e p50/p95/p99 {}/{}/{} µs, solve p95 {} µs",
        e2e.p50, e2e.p95, e2e.p99, solve.p95
    );
    println!(
        "cache: hit rate {:.3}, {} refactor(s), {} eviction(s); \
         refactor-ahead hit rate {:.3} ({} ready, {} in-flight, {} demand)",
        report.cache.hit_rate(),
        report.cache.refactors,
        report.cache.evictions,
        report.ahead.hit_rate(),
        report.ahead.hits_ready,
        report.ahead.hits_inflight,
        report.ahead.demand_flights
    );
    println!(
        "accuracy: max forward error {:.3e} over {} sampled solve(s)",
        report.max_err, report.samples_checked
    );
    if let Some(s) = &single {
        let speedup = if s.req_per_sec > 0.0 {
            report.req_per_sec / s.req_per_sec
        } else {
            f64::INFINITY
        };
        println!("speedup vs single factor worker: {speedup:.2}×");
    }
    let json = report.to_json(single.as_ref());
    let path = cli
        .stats_json
        .clone()
        .unwrap_or_else(|| "results/BENCH_solver.json".to_string());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("splu: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    write_metrics_and_gate(cli, &json, &report.metrics)
}

/// Build the suite matrix named `path` (sherman5, …), or read the file
/// by extension: `.mtx` = Matrix Market, `.rua`/`.rsa`/`.pua`/`.psa`/
/// `.hb` = Harwell–Boeing.
fn load_matrix(path: &str) -> Result<CscMatrix, String> {
    if let Some(spec) = sstar::sparse::suite::by_name(path) {
        return Ok(spec.build());
    }
    let lower = path.to_lowercase();
    let is_hb = [".rua", ".rsa", ".pua", ".psa", ".hb"]
        .iter()
        .any(|ext| lower.ends_with(ext));
    let a = if is_hb {
        read_harwell_boeing_file(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else {
        read_matrix_market_file(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    if a.nrows() != a.ncols() {
        return Err(format!(
            "matrix must be square ({}×{})",
            a.nrows(),
            a.ncols()
        ));
    }
    Ok(a)
}

/// The analyzed matrix factored on `grid` by the stage-pipelined 2D
/// engine with the `--lookahead` window, recording into `trace` if set.
fn factor_on_grid(
    solver: &SparseLuSolver,
    grid: Grid,
    cli: &Cli,
    trace: Option<&sstar::probe::Collector>,
) -> Result<sstar::core::par2d::Par2dResult, SolverError> {
    use sstar::core::par2d::{factor_par2d_with, Par2dOptions};
    let opts = Par2dOptions {
        run: sstar::machine::RunOptions {
            trace,
            jitter_seed: None,
        },
        threshold: cli.options.pivot_threshold,
        window: cli.lookahead,
        ..Par2dOptions::default()
    };
    factor_par2d_with(&solver.permuted, solver.pattern.clone(), grid, &opts)
}

/// `splu analyze`: attribute wall time from a recorded trace, or from an
/// in-process traced 2D factorization of a matrix file / suite matrix.
fn cmd_analyze(cli: &Cli) -> ExitCode {
    use sstar::probe::analyze::{
        attribute, report_json, report_text, trace_from_chrome_json, CommModel, ReportExtras,
    };
    use sstar::probe::Collector;

    let out = if cli.out == "trace.json" {
        "analyze.json"
    } else {
        cli.out.as_str()
    };

    let (trace, extras) = if let Some(path) = &cli.from_trace {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("splu: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = match trace_from_chrome_json(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("splu: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let grid = Grid::for_procs(cli.procs.unwrap_or_else(|| trace.procs.len().max(1)));
        let extras = ReportExtras {
            matrix: if cli.matrix.is_empty() {
                path.clone()
            } else {
                cli.matrix.clone()
            },
            pr: grid.pr,
            pc: grid.pc,
            lookahead: cli.lookahead,
            executor_depth_p95: None,
            model: None,
            seq_secs: None,
        };
        (trace, extras)
    } else {
        if !sstar::probe::ENABLED {
            eprintln!(
                "splu: this binary was built without the `probe` feature; \
                 `splu analyze` can only consume recorded traces \
                 (--from-trace) in such a build (rebuild with default \
                 features)"
            );
            return ExitCode::FAILURE;
        }
        let a = match load_matrix(&cli.matrix) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("splu: {e}");
                return ExitCode::FAILURE;
            }
        };
        let grid = Grid::for_procs(cli.procs.unwrap_or(4));
        // a core budget of 1 pins `factor` to the sequential code: one
        // sequential factorization is the base of the work inflation
        let solver = SparseLuSolver::analyze(
            &a,
            FactorOptions {
                cores: 1,
                ..cli.options
            },
        );
        let t_seq = std::time::Instant::now();
        if let Err(e) = solver.factor() {
            eprintln!("splu: {e}");
            return ExitCode::FAILURE;
        }
        let seq_secs = t_seq.elapsed().as_secs_f64();
        let collector = Collector::new();
        let r = match factor_on_grid(&solver, grid, cli, Some(&collector)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("splu: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trace = collector.finish();
        let extras = ReportExtras {
            matrix: cli.matrix.clone(),
            pr: grid.pr,
            pc: grid.pc,
            lookahead: cli.lookahead,
            executor_depth_p95: Some(r.sustained_depth_p95()),
            model: Some(CommModel {
                pr: grid.pr,
                pc: grid.pc,
                stages: solver.pattern.nblocks(),
                factor_entries: solver.static_factor_nnz() as u64,
            }),
            seq_secs: Some(seq_secs),
        };
        (trace, extras)
    };

    let attribution = attribute(&trace);
    print!("{}", report_text(&attribution, &extras));
    if let Err(e) = std::fs::write(out, report_json(&attribution, &extras)) {
        eprintln!("splu: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    ExitCode::SUCCESS
}

/// `splu repro [ID…]`: run the paper-reproduction manifest, print every
/// table and write its model-only rendering to `results/<ID>.txt`.
fn cmd_repro(ids: &[String]) -> ExitCode {
    use splu_bench::repro;
    if let Some(flag) = ids.iter().find(|a| a.starts_with('-')) {
        eprintln!("splu: `splu repro` takes experiment ids only (got `{flag}`)");
        return usage();
    }
    let experiments = match repro::select(ids) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("splu: {e}");
            return usage();
        }
    };
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("splu: cannot create results/: {e}");
        return ExitCode::FAILURE;
    }
    let ctx = repro::Ctx::default();
    let mut broken = Vec::new();
    for e in experiments {
        let t = e.run(&ctx, &repro::PAPER);
        println!("{}", t.render(true));
        let out = format!("results/{}.txt", e.id);
        if let Err(err) = std::fs::write(&out, t.render(false)) {
            eprintln!("splu: cannot write {out}: {err}");
            return ExitCode::FAILURE;
        }
        if t.broken {
            broken.push(e.id);
        }
    }
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("splu: a checked bound broke in {}", broken.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("repro") {
        return cmd_repro(&args[2..]);
    }
    let cli = match parse_args(args.into_iter()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("splu: {e}");
            return usage();
        }
    };
    // `serve` takes a workload file, not a matrix.
    if cli.cmd == "serve" {
        return cmd_serve(&cli);
    }
    // `loadgen` synthesizes its workload, no input file.
    if cli.cmd == "loadgen" {
        return cmd_loadgen(&cli);
    }
    // `bench-lu` runs the built-in synthetic suite, no input file.
    if cli.cmd == "bench-lu" {
        let out = if cli.out == "trace.json" {
            splu_bench::bench_lu::DEFAULT_OUT
        } else {
            cli.out.as_str()
        };
        return match splu_bench::bench_lu::run_suite(
            out,
            cli.min_secs,
            cli.baseline.as_deref(),
            cli.lookahead,
            cli.suite,
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("splu: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // `analyze` takes a matrix or a recorded trace (--from-trace).
    if cli.cmd == "analyze" {
        return cmd_analyze(&cli);
    }
    let a = match load_matrix(&cli.matrix) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("splu: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "matrix: {} ({}×{}, {} nonzeros, symmetry {:.2})",
        cli.matrix,
        a.nrows(),
        a.ncols(),
        a.nnz(),
        structural_symmetry(&a)
    );

    match cli.cmd.as_str() {
        "info" => {
            let solver = SparseLuSolver::analyze(&a, cli.options);
            println!("zero-free diagonal after transversal: yes");
            println!("static factor entries: {}", solver.static_factor_nnz());
            println!(
                "fill ratio: {:.1}× nnz(A)",
                solver.static_factor_nnz() as f64 / a.nnz() as f64
            );
            println!(
                "supernodes: {} (avg width {:.2})",
                solver.pattern.nblocks(),
                solver.pattern.part.avg_width()
            );
            let widths = solver.pattern.width_census(cli.options.block_size);
            println!(
                "supernode widths: max {} (cap {}), {} blocks at the cap, {:.1} % of update flops",
                widths.max_width,
                cli.options.block_size,
                widths.at_cap,
                100.0 * widths.at_cap_flop_share
            );
            println!(
                "block storage (padding incl.): {} entries",
                solver.pattern.storage_entries()
            );
            println!(
                "precomputed scatter maps: {} positions ({} bytes)",
                solver.pattern.scatter_map_entries(),
                solver.pattern.scatter_map_bytes()
            );
            println!(
                "full-block DGEMM share of update flops: {:.1} %",
                100.0 * solver.pattern.dense_update_fraction()
            );
            let shapes = solver.pattern.update_shapes();
            println!(
                "update products: {} segment products, mean {:.1} rows",
                shapes.products,
                shapes.mean_rows()
            );
            println!(
                "below the blocked-kernel boundary: {:.1} % of products, {:.1} % of flops",
                100.0 * shapes.small_product_share(),
                100.0 * shapes.small_flop_share()
            );
            println!(
                "packed L per factorization: {} elements",
                shapes.packed_l_elems
            );
            ExitCode::SUCCESS
        }
        "factor" => {
            let t0 = std::time::Instant::now();
            let solver = SparseLuSolver::analyze(&a, cli.options);
            let t_an = t0.elapsed();
            // with --procs the numeric phase runs on the 2D grid driver
            // (lookahead executor); without it, sequentially.
            if let Some(p) = cli.procs {
                let grid = Grid::for_procs(p);
                let t0 = std::time::Instant::now();
                return match factor_on_grid(&solver, grid, &cli, None) {
                    Ok(r) => {
                        println!("analyze: {t_an:?}");
                        println!(
                            "factor:  {:?} ({}×{} grid, lookahead {})",
                            t0.elapsed(),
                            grid.pr,
                            grid.pc,
                            cli.lookahead
                        );
                        println!(
                            "BLAS-3 fraction: {:.1} %, row interchanges: {}",
                            100.0 * r.stats.blas3_fraction(),
                            r.stats.row_interchanges
                        );
                        println!(
                            "overlap degree: {} (sustained p95 {})",
                            r.overlap_degree(),
                            r.sustained_depth_p95()
                        );
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("splu: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            let t0 = std::time::Instant::now();
            match solver.factor() {
                Ok(lu) => {
                    println!("analyze: {t_an:?}");
                    println!("factor:  {:?}", t0.elapsed());
                    println!(
                        "BLAS-3 fraction: {:.1} %, row interchanges: {}",
                        100.0 * lu.stats.blas3_fraction(),
                        lu.stats.row_interchanges
                    );
                    println!("pivot growth: {:.3e}", sstar::core::pivot_growth(&lu, &a));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("splu: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "solve" => {
            let n = a.ncols();
            let b: Vec<f64> = match &cli.rhs {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => {
                        let vals: Result<Vec<f64>, _> =
                            text.split_whitespace().map(|t| t.parse::<f64>()).collect();
                        match vals {
                            Ok(v) if v.len() == n => v,
                            Ok(v) => {
                                eprintln!("splu: rhs has {} values, need {n}", v.len());
                                return ExitCode::FAILURE;
                            }
                            Err(e) => {
                                eprintln!("splu: bad rhs: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("splu: cannot read rhs: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => a.matvec(&vec![1.0; n]),
            };
            // The staged service lifecycle: symbolic analysis once, then
            // numeric factorization against it (reusable for any later
            // matrix with the same pattern fingerprint).
            let analysis = sstar::solver::Analysis::of(&a, cli.options);
            match analysis.factorize(&a) {
                Ok(f) => {
                    let (x, q) = sstar::core::refine(f.lu(), &a, &b, cli.refine_steps);
                    println!(
                        "solved: residual∞ {:.3e}, backward error {:.3e}, {} refinement step(s)",
                        q.residual_inf, q.backward_error, q.steps
                    );
                    println!(
                        "pattern fingerprint {:016x} (reusable for same-pattern refactorization)",
                        analysis.fingerprint()
                    );
                    // print a compact solution summary
                    let nshow = x.len().min(5);
                    println!("x[0..{nshow}] = {:?}", &x[..nshow]);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("splu: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "project" => {
            use sstar::sched::{build_2d_model, graph_schedule, simulate, Mode2d, TaskGraph};
            let procs = cli.procs.unwrap_or(16);
            let solver = SparseLuSolver::analyze(&a, cli.options);
            let g = TaskGraph::build(&solver.pattern);
            println!("projected parallel factorization times (P = {procs}):");
            for machine in [&T3D, &T3E] {
                let t1 = simulate(&g, &graph_schedule(&g, procs, machine), machine).makespan;
                let grid = Grid::for_procs(procs);
                let m2 = build_2d_model(&solver.pattern, grid, machine, Mode2d::Async);
                let t2 = simulate(&m2.graph, &m2.schedule, machine).makespan;
                println!(
                    "  {:<9}  1D graph-scheduled: {:.3e} s   2D async ({}x{}): {:.3e} s",
                    machine.name, t1, grid.pr, grid.pc, t2
                );
            }
            ExitCode::SUCCESS
        }
        "trace" => {
            use sstar::probe::export::{
                ascii_gantt, chrome_trace_json, run_summary_json, SummaryExtras,
            };
            use sstar::probe::Collector;
            if !sstar::probe::ENABLED {
                eprintln!(
                    "splu: this binary was built without the `probe` feature; \
                     `splu trace` would record nothing (rebuild with default \
                     features)"
                );
                return ExitCode::FAILURE;
            }
            let procs = cli.procs.unwrap_or(4);
            let solver = SparseLuSolver::analyze(&a, cli.options);
            let grid = Grid::for_procs(procs);
            let collector = Collector::new();
            let r = match factor_on_grid(&solver, grid, &cli, Some(&collector)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("splu: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let trace = collector.finish();
            let extras = SummaryExtras {
                matrix: cli.matrix.clone(),
                n: a.ncols(),
                nnz: a.nnz(),
                procs: grid.nprocs(),
                wall_secs: r.elapsed,
                messages: r.comm.0,
                bytes: r.comm.1,
                peak_buffer_bytes: r.peak_buffer_bytes.iter().copied().max().unwrap_or(0),
                pipeline_depth_p95: r.sustained_depth_p95(),
            };
            println!(
                "factored on {}×{} grid in {:.3} ms ({} messages, {} bytes, \
                 overlap degree {}, sustained depth p95 {})",
                grid.pr,
                grid.pc,
                1e3 * r.elapsed,
                r.comm.0,
                r.comm.1,
                r.overlap_degree(),
                r.sustained_depth_p95(),
            );
            if let Err(e) = std::fs::write(&cli.out, chrome_trace_json(&trace)) {
                eprintln!("splu: cannot write {}: {e}", cli.out);
                return ExitCode::FAILURE;
            }
            println!("wrote {} (load in Perfetto / chrome://tracing)", cli.out);
            if let Some(path) = &cli.stats_json {
                if let Err(e) = std::fs::write(path, run_summary_json(&trace, &extras)) {
                    eprintln!("splu: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            if cli.gantt_width > 0 {
                print!("{}", ascii_gantt(&trace, cli.gantt_width));
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("splu: unknown command `{other}`");
            usage()
        }
    }
}
