//! `splu-probe` — flight-recorder tracing for the S\* pipeline.
//!
//! The paper's whole evaluation (Tables 3–7, Figs 16–18) is built from
//! per-processor, per-stage measurements: elapsed time per
//! `ScaleSwap`/`Factor`/`Update` stage, communication volume, buffer
//! occupancy (§5.2), and load balance. This crate records exactly those
//! timelines from the *real* thread-backed runs (as opposed to the
//! discrete-event projections in `splu-sched`):
//!
//! * [`Collector`] / [`Probe`] — a per-processor event recorder. Each
//!   simulated processor owns its buffer outright, so recording a span or
//!   bumping a counter is a plain `Vec` push — no locks, no atomics on
//!   the hot path. Buffers are handed to the collector once, when the
//!   processor finishes.
//! * [`export`] — three exporters: Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`, one track per processor), an ASCII
//!   Gantt chart, and a machine-readable run summary (per-stage times,
//!   communication volume, buffer high-water, load imbalance).
//! * [`json`] — a minimal JSON parser so tests can round-trip the
//!   exported files without external crates.
//! * [`flops`] — the one flop counter: thread-locals the BLAS kernels
//!   feed in every build, split by BLAS level (the paper's
//!   `w1`/`w2`/`w3` distinction).
//! * [`gantt`] — the generic text Gantt renderer (shared with
//!   `splu-sched`'s Fig.-11 charts).
//!
//! Everything is hand-rolled on `std` only: the build environment cannot
//! reach crates.io, so `tracing`/`serde` are off the table by design.
//!
//! ## The `probe` feature
//!
//! With the `probe` cargo feature **off** (the default for this crate
//! alone), [`Probe`] is a zero-sized type and every recording method is
//! an empty `#[inline]` function — instrumented code paths compile to
//! no-ops and behavior is bit-for-bit identical. The [`flops`] and
//! [`metrics`] counters stay on either way. The root `sstar`
//! package turns the feature on by default. [`ENABLED`] reports which
//! way this build went.

pub mod analyze;
pub mod export;
pub mod flops;
pub mod gantt;
pub mod json;
pub mod metrics;
mod record;

pub use record::{collect, Collector, Probe, SpanGuard};

/// Whether this build records anything (the `probe` cargo feature).
pub const ENABLED: bool = cfg!(feature = "probe");

/// One completed span on a processor timeline: a paper-named stage
/// (`scale-swap`, `panel-factor`, `row-swap`, `update`, …) plus the
/// elimination stage `k` it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (static: span names come from the instrumented code).
    pub name: &'static str,
    /// Detail value — the elimination stage `k` for pipeline stages.
    pub detail: u32,
    /// Start, nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the collector's epoch.
    pub end_ns: u64,
}

/// An instant event (send/recv/park/unpark/poison marks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mark {
    /// Event name.
    pub name: &'static str,
    /// Free detail value (byte counts, tags, …).
    pub detail: u64,
    /// Timestamp, nanoseconds since the collector's epoch.
    pub t_ns: u64,
}

/// Everything one processor recorded.
#[derive(Debug, Clone, Default)]
pub struct ProcTimeline {
    /// Processor rank.
    pub rank: u32,
    /// Completed spans, in completion order.
    pub spans: Vec<Span>,
    /// Instant events, in emission order.
    pub marks: Vec<Mark>,
    /// Named counters (sorted map for deterministic export).
    pub counters: std::collections::BTreeMap<&'static str, u64>,
}

impl ProcTimeline {
    /// Busy nanoseconds: total span time at nesting depth zero (nested
    /// spans — e.g. `row-swap` inside `scale-swap` — are not
    /// double-counted; spans on one processor never overlap except by
    /// nesting).
    pub fn busy_ns(&self) -> u64 {
        // sweep over span boundaries, counting time covered by ≥1 span
        let mut edges: Vec<(u64, i64)> = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            edges.push((s.start_ns, 1));
            edges.push((s.end_ns, -1));
        }
        edges.sort_unstable();
        let (mut depth, mut busy, mut last) = (0i64, 0u64, 0u64);
        for (t, d) in edges {
            if depth > 0 {
                busy += t - last;
            }
            depth += d;
            last = t;
        }
        busy
    }
}

/// A full recorded run: one timeline per processor.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-processor timelines, sorted by rank.
    pub procs: Vec<ProcTimeline>,
}

impl Trace {
    /// Total over all processors of counter `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.procs.iter().filter_map(|p| p.counters.get(name)).sum()
    }

    /// Maximum over all processors of counter `name` (for high-water
    /// gauges).
    pub fn counter_max(&self, name: &str) -> u64 {
        self.procs
            .iter()
            .filter_map(|p| p.counters.get(name).copied())
            .max()
            .unwrap_or(0)
    }

    /// Count of spans named `name` across all processors.
    pub fn span_count(&self, name: &str) -> usize {
        self.procs
            .iter()
            .map(|p| p.spans.iter().filter(|s| s.name == name).count())
            .sum()
    }

    /// Load imbalance ratio `max(busy) / mean(busy)` over processors
    /// (1.0 = perfectly balanced; the paper's Fig. 18 statistic).
    pub fn load_imbalance(&self) -> f64 {
        if self.procs.is_empty() {
            return 1.0;
        }
        let busy: Vec<u64> = self.procs.iter().map(|p| p.busy_ns()).collect();
        let max = busy.iter().copied().max().unwrap_or(0) as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Wall-clock extent of the trace in nanoseconds (latest span end or
    /// mark).
    pub fn extent_ns(&self) -> u64 {
        self.procs
            .iter()
            .flat_map(|p| {
                p.spans
                    .iter()
                    .map(|s| s.end_ns)
                    .chain(p.marks.iter().map(|m| m.t_ns))
            })
            .max()
            .unwrap_or(0)
    }
}
