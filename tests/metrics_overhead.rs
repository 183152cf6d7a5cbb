//! Observability must be close to free: the flight recorder's work on
//! one factorization may not cost more than 3 % of the untraced
//! factorization, and the always-on metrics registry's hot path (counter
//! bumps, histogram records) must stay lock-cheap.
//!
//! The recorder's work per factorization is fixed by the pattern: one
//! `panel-factor` span and one pivot-search count per block column, one
//! `update` span per update task, and a few counters at the end. The
//! overhead test replays exactly those recorder calls in a tight loop and
//! divides their time by the untraced factorization's, so its numerator
//! is a deterministic amount of work rather than the difference of two
//! noisy factorization times.
#![cfg(feature = "probe")]

use sstar::core::FactorScratch;
use sstar::prelude::*;
use sstar::probe::metrics::Registry;
use sstar::probe::Collector;
use sstar::sparse::gen::{self, ValueModel};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tolerated probe overhead on the warmed sequential factorization.
const MAX_OVERHEAD: f64 = 0.03;
const REPS: usize = 7;

/// The recorder calls one traced sequential factorization makes, for a
/// pattern whose block column `k` has `updates[k]` update tasks, into a
/// fresh collector; returns the spans recorded.
fn replay_recorder(updates: &[usize]) -> usize {
    let collector = Collector::new();
    {
        let mut probe = collector.probe(0);
        probe.attach_thread();
        probe.count("fill_entries", 1);
        for (k, &nu) in updates.iter().enumerate() {
            let t = probe.now();
            probe.count("pivot_search_rows", black_box(k as u64));
            probe.span_at("panel-factor", k as u32, t);
            for _ in 0..nu {
                let t = probe.now();
                probe.span_at("update", k as u32, t);
            }
        }
        probe.count("scratch_grow_events", 0);
        probe.count("update_gemm_calls", 1);
        probe.gauge_max("update_gemm_rows_max", 1);
        probe.count("scatter_map_reuse_hits", 1);
        probe.count("lookahead_hits", 0);
        probe.count("deferred_updates", 0);
    }
    let trace = collector.finish();
    trace.procs.iter().map(|p| p.spans.len()).sum()
}

/// The minimum over [`REPS`] runs of `f`.
fn min_time(mut f: impl FnMut()) -> Duration {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .min()
        .expect("REPS > 0")
}

#[test]
fn probe_overhead_on_warmed_factorization_is_under_3_percent() {
    // The span count is fixed by the symbolic structure while compute
    // scales with the profile, so each build needs a problem where the
    // numeric work dominates: the full sherman5 in release, a 50×50 grid
    // operator in debug (~100 ms a run).
    let a = if cfg!(debug_assertions) {
        gen::grid2d(50, 50, 0.4, ValueModel::default())
    } else {
        sstar::sparse::suite::by_name("sherman5")
            .expect("sherman5 in the suite")
            .build()
    };
    // a core budget of 1: `factor_traced` and `factor_with` both run the
    // sequential code, whose recorder calls are replayed below
    let solver = SparseLuSolver::analyze(
        &a,
        FactorOptions {
            cores: 1,
            ..FactorOptions::default()
        },
    );
    let pattern = &solver.pattern;
    let updates: Vec<usize> = (0..pattern.nblocks())
        .map(|k| pattern.update_targets(k).count())
        .collect();

    // the replay makes the calls a traced factorization makes
    let collector = Collector::new();
    let lu = solver.factor_traced(&collector).expect("nonsingular");
    let trace = collector.finish();
    assert_eq!(trace.procs.len(), 1);
    let spans = |name: &str| {
        trace.procs[0]
            .spans
            .iter()
            .filter(|s| s.name == name)
            .count()
    };
    assert_eq!(spans("panel-factor"), updates.len());
    assert_eq!(spans("update"), updates.iter().sum::<usize>());
    assert_eq!(spans("update"), lu.stats.update_tasks);
    assert_eq!(replay_recorder(&updates), trace.procs[0].spans.len());

    let mut scratch = FactorScratch::new();
    solver.factor_with(&mut scratch).expect("nonsingular");
    let untraced = min_time(|| {
        solver.factor_with(&mut scratch).expect("nonsingular");
    });
    let recorder = min_time(|| {
        black_box(replay_recorder(&updates));
    });

    let overhead = recorder.as_secs_f64() / untraced.as_secs_f64();
    eprintln!(
        "probe overhead: recorder {recorder:?} for {} spans, untraced factorization {untraced:?}, {:.3}%",
        trace.procs[0].spans.len(),
        100.0 * overhead
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "probe overhead {:.2}% exceeds {:.0}% (recorder {recorder:?}, untraced {untraced:?})",
        100.0 * overhead,
        100.0 * MAX_OVERHEAD
    );
}

#[test]
fn metrics_hot_path_is_lock_cheap() {
    let reg = Registry::new();
    let counter = reg.counter("splu_test_ops_total");
    let hist = reg.histogram("splu_test_us");

    // handles are resolved once; afterwards every op is a couple of
    // atomic adds. 1M ops in well under a second leaves a 50×+ margin
    // even on a loaded debug-build CI runner (~1 µs/op budget).
    const OPS: u64 = 1_000_000;
    let t = Instant::now();
    for i in 0..OPS {
        counter.inc();
        hist.record(i & 0xFFFF);
    }
    let elapsed = t.elapsed();
    eprintln!(
        "metrics hot path: {OPS} counter+histogram ops in {elapsed:?} ({:.0} ns/op)",
        elapsed.as_nanos() as f64 / OPS as f64
    );
    assert_eq!(counter.get(), OPS);
    assert_eq!(hist.count(), OPS);
    assert!(
        elapsed < Duration::from_secs(1),
        "1M metric ops took {elapsed:?} — hot path is not lock-cheap"
    );

    // concurrent writers on the same family must not lose updates
    let reg = std::sync::Arc::new(Registry::new());
    let mut threads = Vec::new();
    for w in 0..4u64 {
        let reg = reg.clone();
        threads.push(std::thread::spawn(move || {
            let c = reg.counter("splu_test_shared_total");
            let h = reg.histogram("splu_test_shared_us");
            for i in 0..10_000u64 {
                c.inc();
                h.record(w * 10_000 + i);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(reg.counter_value("splu_test_shared_total"), 40_000);
    assert_eq!(reg.histogram_summary("splu_test_shared_us").count, 40_000);
}
