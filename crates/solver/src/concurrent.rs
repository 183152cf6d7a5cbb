//! Concurrent serving layer: factor worker pool, sharded cache, and
//! speculative refactor-ahead with single-flight dedup.
//!
//! [`SolverService`](crate::SolverService) serializes every
//! factorization through one cache mutex and factors on the caller's
//! thread; under mixed-tenant traffic a large cold-start factorization
//! blocks every cheap same-pattern refactor queued behind it.
//! [`ConcurrentService`] removes both bottlenecks:
//!
//! * **factor pool** — factorizations run on their own fixed pool of
//!   `splu-factor-{w}` threads, so independent matrices factor
//!   concurrently and the admission path never does numeric work;
//! * **sharded cache** — the factorization cache is split into
//!   `shards` independent [`FactorCache`]s selected by pattern
//!   fingerprint; each shard keeps its own deterministic-LRU clock and
//!   byte budget, and lock contention is observable per shard
//!   ([`ShardSnapshot::contended_locks`]);
//! * **sharded solve pools** — one [`WorkerPool`] per shard, all
//!   recording into a single shared metrics registry, so same-pattern
//!   solve bursts queue together without a global queue lock;
//! * **speculative refactor-ahead** — [`ConcurrentService::prefetch`]
//!   starts a same-pattern refactorization the moment new values
//!   arrive (e.g. a Newton step producing the next matrix), instead of
//!   on first solve; by the time the dependent solves land the factor
//!   is ready or already in flight;
//! * **single-flight dedup** — all concurrent requests for one
//!   `(pattern, values)` key coalesce onto one in-flight
//!   factorization ([`Flight`]); followers either park their solve on
//!   the flight (it is submitted the instant the factor completes,
//!   with the *original* submission timestamp and deadline) or, for
//!   blocking callers, wait on its condvar and share the identical
//!   [`Factorization`] handle.
//!
//! A request's end-to-end latency is therefore `wait_us + solve_us`
//! from its [`JobReport`]: `wait_us` spans admission → (flight) →
//! queue → dequeue because pending solves are re-submitted via
//! [`SolveJob::with_timing`], and expiry keeps the queue's
//! dequeue-time deadline semantics (see the [`queue`](crate::queue)
//! module docs).

use crate::cache::{CacheConfig, CacheStats, FactorCache};
use crate::queue::{JobReport, JobStatus, QueueStats, SolveJob, WorkerPool};
use crate::service::Reuse;
use crate::{Analysis, Factorization};
use splu_core::{FactorOptions, SolverError};
use splu_probe::metrics::Registry;
use splu_sparse::CscMatrix;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`ConcurrentService`].
#[derive(Debug, Clone, Copy)]
pub struct ConcurrentConfig {
    /// Threads in the factorization pool.
    pub factor_workers: usize,
    /// Total solve worker threads, distributed across the shards.
    pub solve_workers: usize,
    /// Cache / solve-pool shards (selected by pattern fingerprint).
    pub shards: usize,
    /// Factor task queue capacity (blocking back-pressure beyond it).
    pub factor_queue_cap: usize,
    /// Per-shard solve queue capacity.
    pub solve_queue_cap: usize,
    /// Total cache byte budget, split evenly across the shards.
    pub cache_bytes: usize,
    /// Factorization tuning.
    pub options: FactorOptions,
}

impl Default for ConcurrentConfig {
    fn default() -> Self {
        Self {
            factor_workers: 4,
            solve_workers: 4,
            shards: 4,
            factor_queue_cap: 256,
            solve_queue_cap: 256,
            cache_bytes: 256 << 20,
            options: FactorOptions::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Sharded cache
// ---------------------------------------------------------------------

/// Per-shard cache observation for the load report.
#[derive(Debug, Clone, Copy)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Resident pattern entries.
    pub entries: usize,
    /// Resident bytes.
    pub resident_bytes: usize,
    /// `with_shard` calls routed to this shard.
    pub lookups: u64,
    /// Lock acquisitions that found the shard mutex already held
    /// (`try_lock` failed and the caller had to block).
    pub contended_locks: u64,
    /// The shard's cache counters.
    pub stats: CacheStats,
}

/// [`FactorCache`] split into independently locked shards by pattern
/// fingerprint. Each shard is its own deterministic-LRU domain with
/// `total_bytes / shards` of budget, so eviction order within a shard
/// is exactly the single-cache behaviour.
pub struct ShardedCache {
    shards: Vec<Mutex<FactorCache>>,
    contended: Vec<AtomicU64>,
    lookups: Vec<AtomicU64>,
}

impl ShardedCache {
    /// `shards` independent caches sharing `total_bytes` evenly.
    pub fn new(shards: usize, total_bytes: usize) -> Self {
        let n = shards.max(1);
        let per = (total_bytes / n).max(1);
        Self {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(FactorCache::new(CacheConfig {
                        capacity_bytes: per,
                    }))
                })
                .collect(),
            contended: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lookups: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index owning `pattern_fp`.
    pub fn shard_of(&self, pattern_fp: u64) -> usize {
        (pattern_fp % self.shards.len() as u64) as usize
    }

    /// Run `f` against the shard owning `pattern_fp`, counting the
    /// lookup and (if the mutex was already held) the contention.
    pub fn with_shard<R>(&self, pattern_fp: u64, f: impl FnOnce(&mut FactorCache) -> R) -> R {
        let i = self.shard_of(pattern_fp);
        self.lookups[i].fetch_add(1, Relaxed);
        let mut guard = if let Ok(g) = self.shards[i].try_lock() {
            g
        } else {
            self.contended[i].fetch_add(1, Relaxed);
            self.shards[i].lock().unwrap()
        };
        f(&mut guard)
    }

    /// Counters summed across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            let st = s.lock().unwrap().stats();
            total.analysis_hits += st.analysis_hits;
            total.analysis_misses += st.analysis_misses;
            total.factor_hits += st.factor_hits;
            total.refactors += st.refactors;
            total.evictions += st.evictions;
        }
        total
    }

    /// Resident bytes summed across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().resident_bytes())
            .sum()
    }

    /// Per-shard observations.
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let c = s.lock().unwrap();
                ShardSnapshot {
                    shard: i,
                    entries: c.len(),
                    resident_bytes: c.resident_bytes(),
                    lookups: self.lookups[i].load(Relaxed),
                    contended_locks: self.contended[i].load(Relaxed),
                    stats: c.stats(),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Factor pool
// ---------------------------------------------------------------------

type FactorTask = Box<dyn FnOnce(usize) + Send>;

/// Fixed pool of `splu-factor-{w}` threads draining a bounded task
/// queue. Tasks receive their worker index (for interval attribution).
pub struct FactorPool {
    queue: Arc<crate::queue::BoundedQueue<FactorTask>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Registry>,
}

impl FactorPool {
    /// Spawn `workers` factor threads over a queue of `queue_cap`.
    pub fn new(workers: usize, queue_cap: usize, metrics: Arc<Registry>) -> Self {
        let queue: Arc<crate::queue::BoundedQueue<FactorTask>> =
            Arc::new(crate::queue::BoundedQueue::new(queue_cap));
        let handles = (0..workers.max(1))
            .map(|w| {
                let queue = Arc::clone(&queue);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("splu-factor-{w}"))
                    .spawn(move || {
                        let busy = metrics
                            .counter(&format!("splu_factor_worker_busy_us{{worker=\"{w}\"}}"));
                        let tasks = metrics.counter("splu_factor_tasks_total");
                        while let Some(task) = queue.pop() {
                            let t0 = Instant::now();
                            task(w);
                            busy.add(t0.elapsed().as_micros() as u64);
                            tasks.inc();
                        }
                    })
                    .expect("spawn factor worker")
            })
            .collect();
        Self {
            queue,
            handles,
            metrics,
        }
    }

    /// Blocking submit (back-pressure). `Err(task)` only after
    /// [`FactorPool::finish`] closed the queue.
    pub fn spawn(&self, task: FactorTask) -> Result<(), FactorTask> {
        self.queue.push(task)
    }

    /// Total factor tasks executed so far.
    pub fn tasks_run(&self) -> u64 {
        self.metrics.counter_value("splu_factor_tasks_total")
    }

    /// Close the queue, drain remaining tasks, and join the workers.
    pub fn finish(self) {
        self.queue.close();
        for h in self.handles {
            h.join().expect("factor worker panicked");
        }
    }
}

// ---------------------------------------------------------------------
// Single-flight factorization
// ---------------------------------------------------------------------

/// A solve parked on an in-flight factorization; re-submitted with its
/// original admission timestamp and deadline when the factor lands.
struct PendingSolve {
    id: usize,
    b: Vec<f64>,
    nrhs: usize,
    submitted: Instant,
    deadline: Option<Instant>,
    drop_solution: bool,
}

struct FlightState {
    result: Option<Result<(Factorization, Reuse), SolverError>>,
    pending: Vec<PendingSolve>,
}

/// One in-flight factorization for a `(pattern_fp, value_fp)` key.
/// All concurrent requests for the key share this object: the first
/// request creates it and enqueues the factor task; followers park
/// pending solves or block on `done`.
struct Flight {
    key: (u64, u64),
    /// Started by `prefetch` (refactor-ahead) rather than by a solve.
    speculative: bool,
    state: Mutex<FlightState>,
    done: Condvar,
}

impl Flight {
    fn new(key: (u64, u64), speculative: bool) -> Self {
        Self {
            key,
            speculative,
            state: Mutex::new(FlightState {
                result: None,
                pending: Vec::new(),
            }),
            done: Condvar::new(),
        }
    }
}

/// Refactor-ahead accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct AheadStats {
    /// `prefetch` calls (one per value-arrival event).
    pub prefetches: u64,
    /// Speculative flights actually started (not already in flight).
    pub spec_started: u64,
    /// Solves that found their factorization already cached *by a
    /// completed speculative flight*.
    pub hits_ready: u64,
    /// Solves that joined a speculative flight still in progress.
    pub hits_inflight: u64,
    /// Solves (or blocking factorization calls) that had to start a
    /// demand flight themselves — the refactor-ahead misses.
    pub demand_flights: u64,
}

impl AheadStats {
    /// Fraction of factorization-needing requests served by the
    /// speculative path: `hits / (hits + demand_flights)`. 0.0 when no
    /// such requests happened.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits_ready + self.hits_inflight;
        let denom = hits + self.demand_flights;
        if denom == 0 {
            0.0
        } else {
            hits as f64 / denom as f64
        }
    }
}

struct AheadCounters {
    prefetches: AtomicU64,
    spec_started: AtomicU64,
    hits_ready: AtomicU64,
    hits_inflight: AtomicU64,
    demand_flights: AtomicU64,
}

impl AheadCounters {
    fn new() -> Self {
        Self {
            prefetches: AtomicU64::new(0),
            spec_started: AtomicU64::new(0),
            hits_ready: AtomicU64::new(0),
            hits_inflight: AtomicU64::new(0),
            demand_flights: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> AheadStats {
        AheadStats {
            prefetches: self.prefetches.load(Relaxed),
            spec_started: self.spec_started.load(Relaxed),
            hits_ready: self.hits_ready.load(Relaxed),
            hits_inflight: self.hits_inflight.load(Relaxed),
            demand_flights: self.demand_flights.load(Relaxed),
        }
    }
}

/// One factor task's execution window, relative to service start
/// (microseconds). The overlap test asserts two intervals for
/// *different* patterns intersect in time.
#[derive(Debug, Clone, Copy)]
pub struct FactorInterval {
    /// Pattern being factorized.
    pub pattern_fp: u64,
    /// Factor worker that ran it.
    pub worker: usize,
    /// Start offset from service epoch, µs.
    pub start_us: u64,
    /// End offset from service epoch, µs.
    pub end_us: u64,
}

struct ServiceInner {
    cache: ShardedCache,
    flights: Mutex<HashMap<(u64, u64), Arc<Flight>>>,
    /// Keys whose speculative flight completed successfully — a later
    /// cache full hit on such a key is a refactor-ahead "ready" hit.
    spec_done: Mutex<HashSet<(u64, u64)>>,
    ahead: AheadCounters,
    options: FactorOptions,
    metrics: Arc<Registry>,
    intervals: Mutex<Vec<FactorInterval>>,
    /// Reports for solves whose flight failed before reaching a pool.
    failed: Mutex<Vec<JobReport>>,
    epoch: Instant,
}

/// Final report of a [`ConcurrentService`] run.
pub struct ConcurrentReport {
    /// One report per submitted solve, sorted by id (pool reports plus
    /// flight-failure reports).
    pub reports: Vec<JobReport>,
    /// Solve queue counters summed across shards.
    pub queue: QueueStats,
    /// Cache counters summed across shards.
    pub cache: CacheStats,
    /// Cache bytes still resident at shutdown.
    pub cache_resident_bytes: usize,
    /// Per-shard cache observations.
    pub shards: Vec<ShardSnapshot>,
    /// Refactor-ahead accounting.
    pub ahead: AheadStats,
    /// Factor tasks executed.
    pub factor_tasks: u64,
    /// Factor execution windows (for overlap analysis).
    pub factor_intervals: Vec<FactorInterval>,
    /// The shared metrics registry (latency histograms, busy counters).
    pub metrics: Arc<Registry>,
}

/// The concurrent solver service (see module docs).
pub struct ConcurrentService {
    inner: Arc<ServiceInner>,
    factor_pool: FactorPool,
    solve_shards: Arc<Vec<WorkerPool>>,
}

impl ConcurrentService {
    /// Start the factor pool and per-shard solve pools.
    pub fn new(config: ConcurrentConfig) -> Self {
        let metrics = Arc::new(Registry::new());
        let shards = config.shards.max(1);
        let total_solvers = config.solve_workers.max(1);
        let base = total_solvers / shards;
        let rem = total_solvers % shards;
        let mut pools = Vec::with_capacity(shards);
        let mut offset = 0;
        for s in 0..shards {
            let w = (base + usize::from(s < rem)).max(1);
            pools.push(WorkerPool::with_registry(
                w,
                config.solve_queue_cap,
                Arc::clone(&metrics),
                offset,
            ));
            offset += w;
        }
        let inner = Arc::new(ServiceInner {
            cache: ShardedCache::new(shards, config.cache_bytes),
            flights: Mutex::new(HashMap::new()),
            spec_done: Mutex::new(HashSet::new()),
            ahead: AheadCounters::new(),
            options: FactorOptions {
                cores: worker_core_budget(config.options.cores, config.factor_workers),
                ..config.options
            },
            metrics: Arc::clone(&metrics),
            intervals: Mutex::new(Vec::new()),
            failed: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        });
        let factor_pool = FactorPool::new(
            config.factor_workers,
            config.factor_queue_cap,
            Arc::clone(&metrics),
        );
        Self {
            inner,
            factor_pool,
            solve_shards: Arc::new(pools),
        }
    }

    /// The shared metrics registry (solve + factor histograms, per-
    /// worker busy counters, queue gauges).
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.metrics)
    }

    /// Current refactor-ahead counters.
    pub fn ahead_stats(&self) -> AheadStats {
        self.inner.ahead.snapshot()
    }

    fn shard_pool(&self, pattern_fp: u64) -> &WorkerPool {
        &self.solve_shards[self.inner.cache.shard_of(pattern_fp)]
    }

    fn spawn_flight(&self, a: Arc<CscMatrix>, flight: Arc<Flight>) {
        let inner = Arc::clone(&self.inner);
        let shards = Arc::clone(&self.solve_shards);
        let task: FactorTask =
            Box::new(move |worker| run_flight(&inner, &a, &flight, &shards, worker));
        if let Err(task) = self.factor_pool.spawn(task) {
            // Queue already closed (finish in progress): run inline so
            // the flight still completes and its pending solves report.
            task(usize::MAX);
        }
    }

    /// Speculative refactor-ahead: start factorizing `a` now, before
    /// any solve needs it. Call when new values arrive for a pattern
    /// (Newton step, time step). No-op if the key is already in
    /// flight; dedups with later demand requests via single-flight.
    pub fn prefetch(&self, a: &Arc<CscMatrix>) {
        self.inner.ahead.prefetches.fetch_add(1, Relaxed);
        let key = (a.pattern_fingerprint(), a.value_fingerprint());
        let flight = {
            let mut flights = self.inner.flights.lock().unwrap();
            if flights.contains_key(&key) {
                return;
            }
            let fl = Arc::new(Flight::new(key, true));
            flights.insert(key, Arc::clone(&fl));
            fl
        };
        self.inner.ahead.spec_started.fetch_add(1, Relaxed);
        self.spawn_flight(Arc::clone(a), flight);
    }

    /// Submit one solve request. Never blocks on numeric work: a cached
    /// factorization goes straight to the shard's solve pool; otherwise
    /// the solve parks on the (joined or started) flight and is
    /// submitted by the factor worker the moment the factor lands,
    /// with `submitted`/`deadline` fixed at *this* call.
    pub fn submit_solve(
        &self,
        id: usize,
        a: &Arc<CscMatrix>,
        b: Vec<f64>,
        nrhs: usize,
        deadline_us: Option<u64>,
        drop_solution: bool,
    ) {
        let submitted = Instant::now();
        let deadline = deadline_us.map(|us| submitted + Duration::from_micros(us));
        let pfp = a.pattern_fingerprint();
        let vfp = a.value_fingerprint();
        let key = (pfp, vfp);
        if let Some(f) = self.inner.cache.with_shard(pfp, |c| c.get_factor(pfp, vfp)) {
            if self.inner.spec_done.lock().unwrap().contains(&key) {
                self.inner.ahead.hits_ready.fetch_add(1, Relaxed);
            }
            let mut job = SolveJob::with_timing(id, f, b, nrhs, submitted, deadline);
            job.drop_solution = drop_solution;
            self.shard_pool(pfp)
                .submit(job)
                .expect("solve shard closed before factor pool");
            return;
        }
        let pending = PendingSolve {
            id,
            b,
            nrhs,
            submitted,
            deadline,
            drop_solution,
        };
        let existing = {
            let mut flights = self.inner.flights.lock().unwrap();
            match flights.get(&key) {
                Some(fl) => Some(Arc::clone(fl)),
                None => {
                    // starting a demand flight: refactor-ahead miss
                    self.inner.ahead.demand_flights.fetch_add(1, Relaxed);
                    let fl = Arc::new(Flight::new(key, false));
                    flights.insert(key, Arc::clone(&fl));
                    fl.state.lock().unwrap().pending.push(pending);
                    drop(flights);
                    self.spawn_flight(Arc::clone(a), fl);
                    return;
                }
            }
        };
        let fl = existing.expect("joined flight");
        if fl.speculative {
            self.inner.ahead.hits_inflight.fetch_add(1, Relaxed);
        }
        let mut st = fl.state.lock().unwrap();
        match &st.result {
            None => st.pending.push(pending),
            Some(res) => {
                // Raced the flight's completion (result set, key not
                // yet removed): act as the factor worker would have.
                let res = res.clone();
                drop(st);
                match res {
                    Ok((f, _)) => {
                        let mut job = SolveJob::with_timing(
                            pending.id,
                            f,
                            pending.b,
                            pending.nrhs,
                            pending.submitted,
                            pending.deadline,
                        );
                        job.drop_solution = pending.drop_solution;
                        self.shard_pool(pfp)
                            .submit(job)
                            .expect("solve shard closed before factor pool");
                    }
                    Err(e) => self.inner.failed.lock().unwrap().push(JobReport {
                        id: pending.id,
                        status: JobStatus::Failed(e),
                        x: None,
                        wait_us: pending.submitted.elapsed().as_micros() as u64,
                        solve_us: 0,
                        worker: usize::MAX,
                    }),
                }
            }
        }
    }

    /// Get (or compute) the factorization for `a`, blocking until it
    /// is ready. Concurrent callers for the same `(pattern, values)`
    /// coalesce onto one flight and receive the identical shared
    /// handle.
    pub fn factorization_blocking(
        &self,
        a: &Arc<CscMatrix>,
    ) -> Result<(Factorization, Reuse), SolverError> {
        let pfp = a.pattern_fingerprint();
        let vfp = a.value_fingerprint();
        let key = (pfp, vfp);
        if let Some(f) = self.inner.cache.with_shard(pfp, |c| c.get_factor(pfp, vfp)) {
            return Ok((f, Reuse::Full));
        }
        let flight = {
            let mut flights = self.inner.flights.lock().unwrap();
            match flights.get(&key) {
                Some(fl) => Arc::clone(fl),
                None => {
                    let fl = Arc::new(Flight::new(key, false));
                    flights.insert(key, Arc::clone(&fl));
                    self.inner.ahead.demand_flights.fetch_add(1, Relaxed);
                    drop(flights);
                    self.spawn_flight(Arc::clone(a), Arc::clone(&fl));
                    fl
                }
            }
        };
        if flight.speculative {
            self.inner.ahead.hits_inflight.fetch_add(1, Relaxed);
        }
        let mut st = flight.state.lock().unwrap();
        while st.result.is_none() {
            st = flight.done.wait(st).unwrap();
        }
        st.result.clone().expect("flight result set")
    }

    /// Shut down: drain the factor pool (completing every flight and
    /// submitting its pending solves), then drain the solve shards, and
    /// aggregate everything into one report.
    pub fn finish(self) -> ConcurrentReport {
        self.factor_pool.finish();
        let pools = Arc::try_unwrap(self.solve_shards)
            .ok()
            .expect("solve shards still referenced after factor pool drain");
        let mut reports = Vec::new();
        let mut queue = QueueStats::default();
        for pool in pools {
            let (r, s) = pool.finish();
            reports.extend(r);
            queue.accepted += s.accepted;
            queue.rejected_full += s.rejected_full;
            queue.expired += s.expired;
            queue.solved += s.solved;
            queue.failed += s.failed;
        }
        reports.append(&mut self.inner.failed.lock().unwrap());
        reports.sort_by_key(|r| r.id);
        let factor_tasks = self.inner.metrics.counter_value("splu_factor_tasks_total");
        ConcurrentReport {
            reports,
            queue,
            cache: self.inner.cache.stats(),
            cache_resident_bytes: self.inner.cache.resident_bytes(),
            shards: self.inner.cache.snapshots(),
            ahead: self.inner.ahead.snapshot(),
            factor_tasks,
            factor_intervals: std::mem::take(&mut self.inner.intervals.lock().unwrap()),
            metrics: Arc::clone(&self.inner.metrics),
        }
    }
}

/// Core budget of one factor worker: the service's budget shared by its
/// `workers` concurrent factorizations, at least 1, so that concurrent
/// cold starts never ask for more threads than there are cores.
fn worker_core_budget(cores: usize, workers: usize) -> usize {
    (cores / workers.max(1)).max(1)
}

/// Factor task body: compute (or find) the factorization for the
/// flight's key, publish the result, and dispatch parked solves.
fn run_flight(
    inner: &ServiceInner,
    a: &CscMatrix,
    flight: &Flight,
    shards: &[WorkerPool],
    worker: usize,
) {
    let key = flight.key;
    let (pfp, vfp) = key;
    let start = Instant::now();
    let result = (|| {
        // Recheck under the shard lock: a racing flight for the same
        // pattern (different values) may have landed since admission,
        // or an eviction may have removed the analysis — both paths
        // re-resolve here.
        if let Some(f) = inner.cache.with_shard(pfp, |c| c.get_factor(pfp, vfp)) {
            return Ok((f, Reuse::Full));
        }
        let (analysis, reuse) = match inner.cache.with_shard(pfp, |c| c.get_analysis(pfp)) {
            Some(an) => {
                inner.cache.with_shard(pfp, |c| c.note_refactor());
                (an, Reuse::Analysis)
            }
            None => {
                inner.cache.with_shard(pfp, |c| c.note_miss());
                (Analysis::of(a, inner.options), Reuse::None)
            }
        };
        let f = analysis.factorize(a)?;
        inner
            .cache
            .with_shard(pfp, |c| c.insert_factor(&analysis, f.clone()));
        Ok((f, reuse))
    })();
    let end = Instant::now();
    inner
        .metrics
        .histogram("splu_factor_us")
        .record(end.duration_since(start).as_micros() as u64);
    inner.intervals.lock().unwrap().push(FactorInterval {
        pattern_fp: pfp,
        worker,
        start_us: start.duration_since(inner.epoch).as_micros() as u64,
        end_us: end.duration_since(inner.epoch).as_micros() as u64,
    });
    if flight.speculative && result.is_ok() {
        inner.spec_done.lock().unwrap().insert(key);
    }
    // Publish before unregistering: a joiner that finds the flight in
    // the map sees the result; one that misses the map sees the cache.
    let pending = {
        let mut st = flight.state.lock().unwrap();
        st.result = Some(result.clone());
        std::mem::take(&mut st.pending)
    };
    inner.flights.lock().unwrap().remove(&key);
    flight.done.notify_all();
    match result {
        Ok((f, _)) => {
            let shard = (pfp % shards.len() as u64) as usize;
            for p in pending {
                let mut job =
                    SolveJob::with_timing(p.id, f.clone(), p.b, p.nrhs, p.submitted, p.deadline);
                job.drop_solution = p.drop_solution;
                shards[shard]
                    .submit(job)
                    .expect("solve shard closed before factor pool");
            }
        }
        Err(e) => {
            let now = Instant::now();
            let mut failed = inner.failed.lock().unwrap();
            for p in pending {
                failed.push(JobReport {
                    id: p.id,
                    status: JobStatus::Failed(e),
                    x: None,
                    wait_us: now.duration_since(p.submitted).as_micros() as u64,
                    solve_us: 0,
                    worker,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_sparse::gen::{self, ValueModel};

    fn matrix(nx: usize, ny: usize) -> Arc<CscMatrix> {
        Arc::new(gen::grid2d(nx, ny, 0.4, ValueModel::default()))
    }

    fn config(factor_workers: usize, shards: usize) -> ConcurrentConfig {
        ConcurrentConfig {
            factor_workers,
            solve_workers: 2,
            shards,
            ..ConcurrentConfig::default()
        }
    }

    #[test]
    fn factor_workers_share_the_core_budget() {
        assert_eq!(worker_core_budget(2, 12), 1);
        assert_eq!(worker_core_budget(8, 4), 2);
        assert_eq!(worker_core_budget(8, 3), 2);
        assert_eq!(worker_core_budget(2, 1), 2);
        assert_eq!(worker_core_budget(1, 0), 1);
        // the service hands every flight the per-worker budget: 12
        // workers on 2 cores factor sequentially, one worker gets both
        for (cores, workers, budget) in [(2, 12, 1), (2, 1, 2), (16, 4, 4)] {
            let mut cfg = config(workers, 1);
            cfg.options.cores = cores;
            let svc = ConcurrentService::new(cfg);
            assert_eq!(svc.inner.options.cores, budget, "{workers} workers");
            svc.finish();
        }
    }

    #[test]
    fn factor_pool_runs_tasks_concurrently() {
        // A 2-party barrier inside two tasks deadlocks unless both run
        // at the same time on distinct workers.
        let pool = FactorPool::new(2, 4, Arc::new(Registry::new()));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        for _ in 0..2 {
            let b = Arc::clone(&barrier);
            assert!(pool
                .spawn(Box::new(move |_| {
                    b.wait();
                }))
                .is_ok());
        }
        pool.finish();
    }

    #[test]
    fn independent_factorizations_overlap_in_time() {
        // Acceptance criterion: two different-pattern factorizations
        // must execute concurrently on the factor pool. Both matrices
        // are large enough (debug build: hundreds of ms each) that the
        // second worker dequeues its task long before the first
        // finishes, so the recorded intervals must intersect.
        let svc = ConcurrentService::new(config(2, 2));
        let a = matrix(44, 44);
        let b = matrix(44, 43);
        assert_ne!(a.pattern_fingerprint(), b.pattern_fingerprint());
        svc.prefetch(&a);
        svc.prefetch(&b);
        svc.factorization_blocking(&a).unwrap();
        svc.factorization_blocking(&b).unwrap();
        let report = svc.finish();
        let iv = &report.factor_intervals;
        assert_eq!(iv.len(), 2, "one interval per pattern");
        assert_ne!(iv[0].pattern_fp, iv[1].pattern_fp);
        assert_ne!(iv[0].worker, iv[1].worker);
        let overlap = iv[0].start_us < iv[1].end_us && iv[1].start_us < iv[0].end_us;
        assert!(
            overlap,
            "factorizations did not overlap: [{}, {}] vs [{}, {}]",
            iv[0].start_us, iv[0].end_us, iv[1].start_us, iv[1].end_us
        );
    }

    #[test]
    fn single_flight_dedup_returns_same_handle() {
        let svc = ConcurrentService::new(config(1, 1));
        let a = matrix(24, 24);
        let factors: Vec<Factorization> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| svc.factorization_blocking(&a).unwrap().0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All four callers share the identical factorization object.
        for f in &factors[1..] {
            assert!(
                std::ptr::eq(factors[0].lu() as *const _, f.lu() as *const _),
                "single-flight returned distinct factorizations"
            );
        }
        let report = svc.finish();
        // Exactly one symbolic analysis ran for the pattern.
        assert_eq!(report.cache.analysis_misses, 1);
        assert_eq!(report.factor_tasks, 1);
        assert_eq!(report.ahead.demand_flights, 1);
    }

    #[test]
    fn refactor_ahead_serves_dependent_solves() {
        let svc = ConcurrentService::new(config(2, 2));
        let a = matrix(12, 12);
        let n = a.ncols();
        // Warm the pattern (cold demand factorization)…
        svc.factorization_blocking(&a).unwrap();
        // …then new values arrive: prefetch, and solve against them.
        let a2 = Arc::new(gen::perturb_values(&a, 7));
        svc.prefetch(&a2);
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a2.matvec(&xt);
        svc.submit_solve(0, &a2, b, 1, None, false);
        let report = svc.finish();
        assert_eq!(report.reports.len(), 1);
        assert_eq!(report.reports[0].status, JobStatus::Solved);
        let x = report.reports[0].x.as_ref().unwrap();
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-7, "err {err:.3e}");
        let ahead = report.ahead;
        assert_eq!(ahead.spec_started, 1);
        assert_eq!(
            ahead.hits_ready + ahead.hits_inflight,
            1,
            "the dependent solve must be served by the speculative flight: {ahead:?}"
        );
        assert_eq!(ahead.demand_flights, 1, "only the warmup was demand");
        // The speculative refactor reused the cached analysis.
        assert_eq!(report.cache.refactors, 1);
    }

    #[test]
    fn eviction_racing_refactor_ahead_still_solves() {
        // Tiny budget on a single shard: pressure patterns evict the
        // prefetched entry while solves are racing in. Correctness must
        // survive (the flight/cache recheck re-resolves), with
        // evictions actually observed.
        let a = matrix(10, 10);
        let n = a.ncols();
        let cfg = ConcurrentConfig {
            factor_workers: 2,
            solve_workers: 2,
            shards: 1,
            cache_bytes: 200_000,
            ..ConcurrentConfig::default()
        };
        let svc = ConcurrentService::new(cfg);
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut id = 0;
        for round in 0..6 {
            let av = Arc::new(gen::perturb_values(&a, round));
            svc.prefetch(&av);
            // pressure: distinct larger patterns flood the shard
            for k in 0..3 {
                let p = matrix(11 + round as usize, 9 + k);
                svc.factorization_blocking(&p).unwrap();
            }
            let b = av.matvec(&xt);
            svc.submit_solve(id, &av, b, 1, None, false);
            id += 1;
        }
        let report = svc.finish();
        assert!(report.cache.evictions > 0, "no eviction pressure");
        assert_eq!(report.reports.len(), id);
        for r in &report.reports {
            assert_eq!(r.status, JobStatus::Solved, "request {}", r.id);
            let x = r.x.as_ref().unwrap();
            let err = x
                .iter()
                .zip(&xt)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            assert!(err < 1e-6, "request {} err {err:.3e}", r.id);
        }
    }

    #[test]
    fn sharded_cache_keeps_deterministic_lru_per_shard() {
        use splu_core::FactorOptions;
        let build = |nx: usize, ny: usize| {
            let a = gen::grid2d(nx, ny, 0.4, ValueModel::default());
            let an = Analysis::of(&a, FactorOptions::default());
            let f = an.factorize(&a).unwrap();
            (a, an, f)
        };
        let (a, an_a, fa) = build(8, 8);
        let (b, an_b, fb) = build(8, 7);
        let (c, an_c, fc) = build(8, 6);
        let one = an_a.approx_bytes() + fa.storage_bytes();
        let cache = ShardedCache::new(1, one * 2 + one / 2);
        let (pa, pb, pc) = (
            a.pattern_fingerprint(),
            b.pattern_fingerprint(),
            c.pattern_fingerprint(),
        );
        cache.with_shard(pa, |s| s.insert_factor(&an_a, fa));
        cache.with_shard(pb, |s| s.insert_factor(&an_b, fb));
        // Touch A so B is the deterministic LRU victim when C lands.
        assert!(cache.with_shard(pa, |s| s.get_analysis(pa)).is_some());
        cache.with_shard(pc, |s| s.insert_factor(&an_c, fc));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.with_shard(pb, |s| s.get_analysis(pb)).is_none());
        assert!(cache.with_shard(pa, |s| s.get_analysis(pa)).is_some());
        assert!(cache.with_shard(pc, |s| s.get_analysis(pc)).is_some());
        let snaps = cache.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].entries, 2);
        assert!(snaps[0].lookups >= 7);
    }

    #[test]
    fn deadline_flows_through_flight_and_expires() {
        // deadline_us = 0 on a cold pattern: the deadline is fixed at
        // admission, survives the flight hand-off, and the solve pool
        // deterministically expires it after the factor lands.
        let svc = ConcurrentService::new(config(1, 1));
        let a = matrix(8, 8);
        let n = a.ncols();
        svc.submit_solve(0, &a, vec![1.0; n], 1, Some(0), false);
        svc.submit_solve(1, &a, vec![1.0; n], 1, None, false);
        let report = svc.finish();
        assert_eq!(report.reports.len(), 2);
        assert_eq!(report.reports[0].status, JobStatus::DeadlineExpired);
        // wait_us spans admission -> flight -> dequeue, so it includes
        // the factorization time.
        assert!(report.reports[0].wait_us > 0);
        assert_eq!(report.reports[1].status, JobStatus::Solved);
        assert_eq!(report.queue.expired, 1);
    }

    #[test]
    fn failed_factorization_reports_every_parked_solve() {
        // A numerically singular matrix: the flight fails and every
        // solve parked on it must still produce a (Failed) report.
        let a = matrix(6, 6);
        let sing = Arc::new(gen::zero_column_values(&a, 3));
        let svc = ConcurrentService::new(config(1, 1));
        let n = a.ncols();
        svc.submit_solve(0, &sing, vec![1.0; n], 1, None, false);
        svc.submit_solve(1, &sing, vec![1.0; n], 1, None, false);
        let report = svc.finish();
        assert_eq!(report.reports.len(), 2);
        for r in &report.reports {
            assert!(
                matches!(r.status, JobStatus::Failed(_)),
                "request {}: {:?}",
                r.id,
                r.status
            );
        }
    }

    #[test]
    fn solves_route_to_pattern_shard_pools() {
        let svc = ConcurrentService::new(ConcurrentConfig {
            factor_workers: 2,
            solve_workers: 4,
            shards: 2,
            ..ConcurrentConfig::default()
        });
        let a = matrix(9, 9);
        let b = matrix(9, 8);
        let n = a.ncols();
        for id in 0..4 {
            svc.submit_solve(id, &a, vec![1.0; n], 1, None, true);
            svc.submit_solve(4 + id, &b, vec![1.0; b.ncols()], 1, None, true);
        }
        let report = svc.finish();
        assert_eq!(report.queue.solved, 8);
        assert_eq!(report.reports.len(), 8);
        // drop_solution was set on all: solved without retained x
        assert!(report.reports.iter().all(|r| r.x.is_none()));
        // both shards saw cache traffic iff the fingerprints split
        let total_lookups: u64 = report.shards.iter().map(|s| s.lookups).sum();
        assert!(total_lookups >= 8);
    }
}
