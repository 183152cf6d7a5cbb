#!/bin/sh
# Repo gate: tier-1 build+test, lint, formatting, and the probe-off
# configuration. Run from the repo root; exits nonzero on any failure.
set -eux

# tier-1 (ROADMAP.md)
cargo build --release
cargo test -q

# the whole workspace, with and without the flight recorder
cargo test -q --workspace
cargo test -q --workspace --no-default-features

# the bitwise-identity suites (every grid × sync mode × lookahead
# window, supernodes wider than the 48-row TRSM tile, plus adversarial
# delivery jitter), the 2D op lists pinned by hash and the layout-filled
# block storage against the entry-by-entry reference, in both feature
# configs
cargo test -q -p splu-core --test stacked_update --test delivery_jitter \
    --test schedule_identity --test storage_identity
cargo test -q -p splu-core --test stacked_update --test delivery_jitter \
    --test schedule_identity --test storage_identity --no-default-features

# the analysis identity: permutations, supernode starts, partition, block
# masks, scatter maps and predicted counts pinned by hash, in both configs
cargo test -q --test analysis_identity
cargo test -q --test analysis_identity --no-default-features

# the ordering identity: min-degree's exact permutation against a
# reference that recomputes the documented degree bound from explicit
# sets, in both configs
cargo test -q -p splu-order
cargo test -q -p splu-order --no-default-features

# the one factor entry point: the crossover decision, the 1×P grid
# bitwise equal to the sequential code, a warmed parallel refactor that
# grows nothing, a typed error on singular input; also on one test thread
cargo test -q --test product_path
cargo test -q --test product_path -- --test-threads=1

# the paper golden tables: every `splu repro` experiment on the
# two-matrix smoke suite, model cells byte for byte, in both configs
cargo test -q --test paper_golden
cargo test -q --test paper_golden --no-default-features

# the benchmark (a package outside the workspace that calls the public
# driver API) builds and passes its unit tests
cargo build --release --manifest-path perfbench/Cargo.toml
cargo test -q --manifest-path perfbench/Cargo.toml

# lint + formatting
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --no-default-features -- -D warnings
cargo fmt --check

# solver-service smoke: run the mixed two-pattern workload through the
# batch driver and keep the BENCH_serve.json summary (cache hit/miss
# counters, per-request outcomes, solve throughput, request-latency
# percentiles). The fresh run is gated against the committed record —
# p95 e2e latency and cache hit rate, same SPLU_BENCH_TOL_PCT knob as
# the factorization gate — and the metrics-registry snapshot must show
# the latency histograms populated (counts are deterministic for this
# workload: 8 completed requests, 7 solves).
mkdir -p results
cp results/BENCH_serve.json /tmp/BENCH_serve.baseline.json
cargo run --release -q --bin splu -- serve examples/serve_workload.txt \
    --workers 3 --queue-cap 8 --stats-json results/BENCH_serve.json \
    --metrics-out results/METRICS_serve.json \
    --baseline /tmp/BENCH_serve.baseline.json
grep -q '"bench": "solver_serve"' results/BENCH_serve.json
grep -q '"deadline_expired": 1' results/BENCH_serve.json
grep -q '"factorization_failed": 1' results/BENCH_serve.json
grep -q '"latency_us"' results/BENCH_serve.json
grep -qF '"e2e": {"count": 8, "p50": ' results/BENCH_serve.json
grep -qF '"solve": {"count": 7, "p50": ' results/BENCH_serve.json
grep -q '"p95": ' results/BENCH_serve.json
grep -q '"p99": ' results/BENCH_serve.json
grep -q '"cache_hit_rate": 0.777778' results/BENCH_serve.json
grep -qF '"splu_request_us": {"count": 8' results/METRICS_serve.json
grep -qF '"splu_solve_us": {"count": 7' results/METRICS_serve.json
grep -qF '"splu_worker_busy_us{worker=' results/METRICS_serve.json

# production-load benchmark: replay the seeded 100k-request
# multi-tenant workload (cold-start / value-churn / pattern-reuse mix,
# 1000 req/s offered — about 2× the service capacity of the single-core
# host the record was first taken on)
# against the concurrent solver service, plus the same schedule against
# a single-factor-worker configuration. The fresh record is gated
# against the committed one (p95 e2e latency, cache hit rate, goodput —
# same SPLU_BENCH_TOL_PCT knob), and the goodput speedup of the
# concurrent configuration over the single-worker replay must hold the
# ≥ 2× acceptance bar. Takes a few minutes: the schedule spans 100 s
# and both replays drain ~900 cold factorizations.
cp results/BENCH_solver.json /tmp/BENCH_loadgen.baseline.json || true
cargo run --release -q --bin splu -- loadgen \
    --factor-workers 12 --compare-single \
    --stats-json results/BENCH_solver.json \
    --metrics-out results/METRICS_loadgen.json \
    --baseline /tmp/BENCH_loadgen.baseline.json
grep -q '"bench": "solver_serve"' results/BENCH_solver.json
grep -q '"mode": "loadgen"' results/BENCH_solver.json
grep -qE '"requests": 10[0-9]{4}' results/BENCH_solver.json
grep -q '"req_per_sec": ' results/BENCH_solver.json
grep -q '"refactor_ahead": ' results/BENCH_solver.json
grep -q '"single_worker": ' results/BENCH_solver.json
test "$(grep -c '"shard": ' results/BENCH_solver.json)" -eq 4
grep -qF '"splu_factor_worker_busy_us{worker=' results/METRICS_loadgen.json
awk -F': ' '/"speedup_vs_single_worker"/ { ok = ($2 + 0 >= 2.0) }
    END { exit !ok }' results/BENCH_solver.json

# critical-path attribution: trace sherman5 on the 2×2 grid and write
# the example analyze report (JSON + ASCII). The sustained pipeline
# depth must respect the Theorem 2 p_c + W bound.
cargo run --release -q --bin splu -- analyze sherman5 --procs 4 \
    --out results/ANALYZE_sherman5_2x2.json \
    >results/ANALYZE_sherman5_2x2.txt
grep -q '"report": "splu_analyze"' results/ANALYZE_sherman5_2x2.json
grep -q '"pipeline_depth_ok": true' results/ANALYZE_sherman5_2x2.json
grep -q 'bound p_c + W = 3' results/ANALYZE_sherman5_2x2.txt

# perf record: factor the synthetic suite with the seq/par2d
# drivers. The fresh run is gated against the committed record — a
# GFLOP/s drop beyond the tolerance on any driver/matrix fails — and on
# being well-formed: every driver of every matrix reports a positive
# GFLOP/s with its update-stage breakdown, and the warmed sequential
# arena grew zero buffers (the allocation-free hot-path proof). The
# default tolerance here is 40 (not the gate's built-in 15): the par2d
# cells run four thread ranks (a 2×2 grid) on however few cores the host
# has, and their GFLOP/s swings ±30-50 % run to run with OS scheduling
# (the suite matrices factor in tens of ms, so a single preemption moves
# the number).
# Export SPLU_BENCH_TOL_PCT to tighten or loosen.
cp results/BENCH_lu.json /tmp/BENCH_lu.baseline.json
if ! SPLU_BENCH_TOL_PCT="${SPLU_BENCH_TOL_PCT:-40}" \
    cargo run --release -q --bin splu -- bench-lu \
    --out results/BENCH_lu.json --baseline /tmp/BENCH_lu.baseline.json; then
    echo "verify: bench gate tripped; offending BENCH_lu.json diff:" >&2
    diff -u /tmp/BENCH_lu.baseline.json results/BENCH_lu.json >&2 || true
    exit 1
fi
grep -q '"bench": "lu_factor"' results/BENCH_lu.json
# 3 matrices × (seq + par2d + 4 lookahead-sweep points)
test "$(grep -c '"gflops": ' results/BENCH_lu.json)" -eq 18
if grep -E '"gflops": (0\.0*[,}]|-)' results/BENCH_lu.json; then
    echo "verify: nonpositive GFLOP/s in BENCH_lu.json" >&2
    exit 1
fi
test "$(grep -c '"warmed_grow_events": 0' results/BENCH_lu.json)" -eq 3
test "$(grep -c '"update": ' results/BENCH_lu.json)" -eq 6
test "$(grep -c '"panel_wait_secs": ' results/BENCH_lu.json)" -eq 18
test "$(grep -c '"par2d_lookahead_sweep": ' results/BENCH_lu.json)" -eq 3
test "$(grep -c '"speedup_vs_prev": ' results/BENCH_lu.json)" -eq 3
test "$(grep -c '"pivot_wait_share": ' results/BENCH_lu.json)" -eq 3

# modeled large-matrix tier (hier50k / hiergrid50k / hier200k /
# hier500k): the task-DAG engine against the block-cyclic baseline
# under the deterministic T3E discrete-event model — no wall-clock
# noise, so the gate (per-matrix regression vs the record, plus the
# geomean speedup_vs_seq > 1.0 acceptance floor) is exact. The run
# carries the small-suite record forward from the file written above,
# keeping results/BENCH_lu.json one complete document. ~70 s: the
# hier500k symbolic analysis dominates.
if ! SPLU_BENCH_TOL_PCT="${SPLU_BENCH_TOL_PCT:-40}" \
    cargo run --release -q --bin splu -- bench-lu --suite large \
    --out results/BENCH_lu.json; then
    echo "verify: large-suite gate tripped; offending BENCH_lu.json diff:" >&2
    diff -u /tmp/BENCH_lu.baseline.json results/BENCH_lu.json >&2 || true
    exit 1
fi
grep -q '"large_suite": ' results/BENCH_lu.json
# 4 matrices × (model_secs + speedup_vs_seq) + the geomean block
test "$(grep -c '"par2d_taskdag": ' results/BENCH_lu.json)" -eq 9
test "$(grep -c '"nsubtrees": ' results/BENCH_lu.json)" -eq 4
# headline (small) + large_suite
test "$(grep -c '"geomean_speedup_vs_seq": ' results/BENCH_lu.json)" -eq 2
# the carry-forward preserved the freshly measured small record
test "$(grep -c '"gflops": ' results/BENCH_lu.json)" -eq 18
test "$(grep -c '"panel_wait_secs": ' results/BENCH_lu.json)" -eq 18

echo "verify: all checks passed"
