//! Always-on production metrics: counters, gauges, and log-bucketed
//! histograms behind a name-keyed registry.
//!
//! Unlike the flight recorder ([`crate::Probe`]), which is compiled out
//! without the `probe` cargo feature and is meant for offline trace
//! analysis, this module is **always on**: a long-running solver service
//! needs request percentiles and cache/queue counters in every build.
//! The design keeps the hot path lock-free — callers resolve a metric
//! name to an `Arc` handle once (one mutex acquisition) and afterwards
//! every update is a relaxed atomic operation.
//!
//! Histograms use fixed power-of-two buckets: bucket 0 holds the value
//! `0` and bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`. Two
//! histograms therefore always have identical bucket boundaries, which
//! makes merging across workers a plain element-wise add (associative
//! and commutative), and quantile estimation a cumulative walk that
//! reports the upper bound of the containing bucket — a conservative
//! (never underestimating) p50/p95/p99.

use crate::json::escape_into;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: the zero bucket plus one per power of
/// two up to `2^63`.
pub const HIST_BUCKETS: usize = 65;

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to at least `v` (high-water mark).
    pub fn raise(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while f64::from_bits(cur) < v {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed log2-bucket histogram of `u64` samples (latencies in µs, byte
/// counts, …). All methods are thread-safe; `record` is two relaxed
/// atomic adds plus one on the bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Point-in-time percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Conservative 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Conservative 95th percentile (bucket upper bound).
    pub p95: u64,
    /// Conservative 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample: 0 for the value 0, else
    /// `1 + floor(log2 v)` (so bucket `i ≥ 1` covers `[2^(i-1), 2^i)`).
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Fold another histogram into this one (element-wise bucket add —
    /// associative, so worker-local histograms can be merged in any
    /// grouping).
    pub fn merge_from(&self, other: &Histogram) {
        for (b, o) in self.buckets.iter().zip(&other.buckets) {
            let v = o.load(Ordering::Relaxed);
            if v > 0 {
                b.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of the raw bucket counts.
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Conservative quantile: the upper bound of the bucket containing
    /// the `ceil(q·count)`-th smallest sample (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HIST_BUCKETS - 1)
    }

    /// Count + sum + p50/p95/p99 in one snapshot.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

#[derive(Default)]
struct Families {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Name-keyed metric registry. `counter`/`gauge`/`histogram` get or
/// create a handle under one short mutex acquisition; the handles
/// themselves are lock-free. Names may carry a Prometheus label set
/// (`splu_worker_busy_us{worker="3"}`); the exporters keep it
/// intact.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Families>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fam = self.inner.lock().unwrap();
        f.debug_struct("Registry")
            .field("counters", &fam.counters.len())
            .field("gauges", &fam.gauges.len())
            .field("histograms", &fam.histograms.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut f = self.inner.lock().unwrap();
        f.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut f = self.inner.lock().unwrap();
        f.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut f = self.inner.lock().unwrap();
        f.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Value of counter `name`, 0 if absent (for tests and gates).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .map_or(0, |c| c.get())
    }

    /// Summary of histogram `name`, empty if absent.
    pub fn histogram_summary(&self, name: &str) -> HistogramSummary {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .get(name)
            .map_or_else(HistogramSummary::default, |h| h.summary())
    }

    /// Fold every metric of `other` into this registry: counters add,
    /// gauges take the max, histograms merge bucket-wise.
    pub fn merge_from(&self, other: &Registry) {
        let o = other.inner.lock().unwrap();
        for (name, c) in &o.counters {
            self.counter(name).add(c.get());
        }
        for (name, g) in &o.gauges {
            self.gauge(name).raise(g.get());
        }
        for (name, h) in &o.histograms {
            self.histogram(name).merge_from(h);
        }
    }

    /// Prometheus text exposition of every metric. Histograms render
    /// the standard `_bucket{le=…}`/`_sum`/`_count` series (only
    /// occupied buckets, cumulative, plus `+Inf`).
    pub fn prometheus_text(&self) -> String {
        let f = self.inner.lock().unwrap();
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, c) in &f.counters {
            type_line(&mut out, &mut last_family, name, "counter");
            let _ = writeln!(out, "{name} {}", c.get());
        }
        last_family.clear();
        for (name, g) in &f.gauges {
            type_line(&mut out, &mut last_family, name, "gauge");
            let _ = writeln!(out, "{name} {}", g.get());
        }
        last_family.clear();
        for (name, h) in &f.histograms {
            type_line(&mut out, &mut last_family, name, "histogram");
            let counts = h.bucket_counts();
            let mut cum = 0u64;
            for (i, &n) in counts.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                let _ = writeln!(
                    out,
                    "{} {cum}",
                    with_label(
                        name,
                        "_bucket",
                        &format!("le=\"{}\"", Histogram::bucket_upper(i))
                    )
                );
            }
            let _ = writeln!(
                out,
                "{} {}",
                with_label(name, "_bucket", "le=\"+Inf\""),
                h.count()
            );
            let _ = writeln!(out, "{} {}", with_suffix(name, "_sum"), h.sum());
            let _ = writeln!(out, "{} {}", with_suffix(name, "_count"), h.count());
        }
        out
    }

    /// JSON snapshot: counters and gauges by name, histograms with
    /// count/sum/p50/p95/p99 and the occupied `[upper, count]` buckets.
    pub fn json_snapshot(&self) -> String {
        let f = self.inner.lock().unwrap();
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, c) in &f.counters {
            json_key(&mut out, &mut first, name);
            let _ = write!(out, "{}", c.get());
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, g) in &f.gauges {
            json_key(&mut out, &mut first, name);
            let _ = write!(out, "{:.6}", g.get());
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &f.histograms {
            json_key(&mut out, &mut first, name);
            let s = h.summary();
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                s.count, s.sum, s.p50, s.p95, s.p99
            );
            let mut bfirst = true;
            for (i, &n) in h.bucket_counts().iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !bfirst {
                    out.push_str(", ");
                }
                bfirst = false;
                let _ = write!(out, "[{}, {n}]", Histogram::bucket_upper(i));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Emit one `# TYPE` comment per metric family (the name with its label
/// set stripped).
fn type_line(out: &mut String, last_family: &mut String, name: &str, kind: &str) {
    let family = name.split('{').next().unwrap_or(name);
    if family != last_family {
        let _ = writeln!(out, "# TYPE {family} {kind}");
        *last_family = family.to_string();
    }
}

/// `base{labels}` + suffix → `base_suffix{labels}`.
fn with_suffix(name: &str, suffix: &str) -> String {
    match name.split_once('{') {
        Some((base, rest)) => format!("{base}{suffix}{{{rest}"),
        None => format!("{name}{suffix}"),
    }
}

/// `base{labels}` + suffix + extra label → `base_suffix{labels,extra}`.
fn with_label(name: &str, suffix: &str, label: &str) -> String {
    match name.split_once('{') {
        Some((base, rest)) => {
            let rest = rest.trim_end_matches('}');
            format!("{base}{suffix}{{{rest},{label}}}")
        }
        None => format!("{name}{suffix}{{{label}}}"),
    }
}

fn json_key(out: &mut String, first: &mut bool, name: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n    ");
    escape_into(out, name);
    out.push_str(": ");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("jobs_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter_value("jobs_total"), 5);
        // same name resolves to the same metric
        r.counter("jobs_total").inc();
        assert_eq!(c.get(), 6);

        let g = r.gauge("depth");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        g.raise(1.0); // below current: no-op
        assert_eq!(g.get(), 2.5);
        g.raise(7.25);
        assert_eq!(g.get(), 7.25);
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // uppers are inclusive and agree with the index mapping
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(1), 1);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(3), 7);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
        for v in [0u64, 1, 2, 3, 4, 5, 1023, 1024, 1 << 40] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper(i));
            if i > 0 {
                assert!(v > Histogram::bucket_upper(i - 1));
            }
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        // 1..=100: p50 lands in bucket [32,63], p99 in [64,127]
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.quantile(0.50), 63);
        assert_eq!(h.quantile(0.95), 127);
        assert_eq!(h.quantile(0.99), 127);
        // all mass in one bucket: every quantile is that bucket's upper
        let h2 = Histogram::new();
        for _ in 0..10 {
            h2.record(5);
        }
        assert_eq!(h2.quantile(0.01), 7);
        assert_eq!(h2.quantile(0.99), 7);
        // empty histogram
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_associative() {
        let samples: [&[u64]; 3] = [&[1, 2, 3, 900], &[64, 64, 64], &[0, 0, 7_000_000]];
        // (a ⊕ b) ⊕ c
        let left = Histogram::new();
        let ab = Histogram::new();
        for &v in samples[0].iter().chain(samples[1]) {
            ab.record(v);
        }
        left.merge_from(&ab);
        let c = Histogram::new();
        for &v in samples[2] {
            c.record(v);
        }
        left.merge_from(&c);
        // a ⊕ (b ⊕ c)
        let right = Histogram::new();
        for &v in samples[0] {
            right.record(v);
        }
        let bc = Histogram::new();
        for &v in samples[1].iter().chain(samples[2]) {
            bc.record(v);
        }
        right.merge_from(&bc);
        assert_eq!(left.bucket_counts(), right.bucket_counts());
        assert_eq!(left.count(), right.count());
        assert_eq!(left.sum(), right.sum());
        assert_eq!(left.summary(), right.summary());
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let r = Registry::new();
        r.counter("splu_jobs_total").add(3);
        r.counter("splu_machine_messages_total{rank=\"0\"}").add(7);
        r.gauge("splu_queue_depth").set(2.0);
        let h = r.histogram("splu_solve_us");
        h.record(3);
        h.record(100);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE splu_jobs_total counter"));
        assert!(text.contains("splu_jobs_total 3"));
        assert!(text.contains("# TYPE splu_machine_messages_total counter"));
        assert!(text.contains("splu_machine_messages_total{rank=\"0\"} 7"));
        assert!(text.contains("# TYPE splu_queue_depth gauge"));
        assert!(text.contains("# TYPE splu_solve_us histogram"));
        assert!(text.contains("splu_solve_us_bucket{le=\"3\"} 1"));
        assert!(text.contains("splu_solve_us_bucket{le=\"127\"} 2"));
        assert!(text.contains("splu_solve_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("splu_solve_us_sum 103"));
        assert!(text.contains("splu_solve_us_count 2"));
    }

    #[test]
    fn labeled_histogram_suffixes_keep_labels() {
        let r = Registry::new();
        r.histogram("splu_worker_busy_us{worker=\"1\"}").record(10);
        let text = r.prometheus_text();
        assert!(text.contains("splu_worker_busy_us_bucket{worker=\"1\",le=\"15\"} 1"));
        assert!(text.contains("splu_worker_busy_us_sum{worker=\"1\"} 10"));
        assert!(text.contains("splu_worker_busy_us_count{worker=\"1\"} 1"));
    }

    #[test]
    fn json_snapshot_parses_and_carries_percentiles() {
        let r = Registry::new();
        r.counter("hits").add(2);
        r.gauge("util").set(0.75);
        let h = r.histogram("lat_us");
        for v in 1..=100u64 {
            h.record(v);
        }
        let v = json::parse(&r.json_snapshot()).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("hits").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("util").unwrap().as_f64(),
            Some(0.75)
        );
        let lat = v.get("histograms").unwrap().get("lat_us").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(100));
        assert_eq!(lat.get("p50").unwrap().as_u64(), Some(63));
        assert_eq!(lat.get("p95").unwrap().as_u64(), Some(127));
        assert_eq!(lat.get("p99").unwrap().as_u64(), Some(127));
        assert!(!lat.get("buckets").unwrap().items().unwrap().is_empty());
    }

    #[test]
    fn registry_merge_folds_everything() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("n").add(1);
        b.counter("n").add(2);
        a.gauge("g").set(1.0);
        b.gauge("g").set(3.0);
        a.histogram("h").record(4);
        b.histogram("h").record(90);
        a.merge_from(&b);
        assert_eq!(a.counter_value("n"), 3);
        assert_eq!(a.gauge("g").get(), 3.0);
        let s = a.histogram_summary("h");
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 94);
    }
}
