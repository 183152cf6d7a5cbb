//! Pattern-keyed factorization cache with a byte budget.
//!
//! Keyed by the [`pattern fingerprint`](splu_sparse::CscMatrix::pattern_fingerprint):
//! one entry per sparsity pattern holds the reusable [`Analysis`] plus
//! (optionally) the most recent [`Factorization`], tagged with its value
//! fingerprint. A lookup therefore distinguishes three reuse levels:
//!
//! 1. **full hit** — same pattern *and* same values: return the cached
//!    factorization, no numeric work at all;
//! 2. **analysis hit** — same pattern, new values: re-run only the
//!    numeric factorization against the cached symbolic analysis (the
//!    paper's analyze-once/factorize-many payoff);
//! 3. **miss** — unseen pattern: full symbolic + numeric pipeline.
//!
//! Eviction is LRU over a **logical clock** (no wall time, no
//! randomness — behaviour is bit-for-bit deterministic) and is driven by
//! a configurable capacity in bytes, using the factor-storage accounting
//! from `splu-core` plus an estimate of the symbolic products. Counters
//! for every transition are kept in [`CacheStats`].

use crate::{Analysis, Factorization};
use std::collections::HashMap;

/// Capacity configuration for [`FactorCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Byte budget for resident entries (analysis estimate + numeric
    /// factor storage). After any insertion, least-recently-used entries
    /// are evicted until the total fits — except the newest entry, which
    /// is always retained even if it alone exceeds the budget (evicting
    /// it would make the cache useless for every oversized problem).
    pub capacity_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // Generous default: roughly a few hundred moderate test factors.
        Self {
            capacity_bytes: 256 << 20,
        }
    }
}

/// Monotonic counters describing cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a cached analysis for the pattern.
    pub analysis_hits: u64,
    /// Lookups that had to run symbolic analysis from scratch.
    pub analysis_misses: u64,
    /// Lookups that found a factorization with matching value
    /// fingerprint (no numeric work needed).
    pub factor_hits: u64,
    /// Numeric refactorizations performed against a cached analysis.
    pub refactors: u64,
    /// Entries evicted to satisfy the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups that reused cached work — either a full
    /// factor hit or a cached analysis (numeric refactor only). 0.0 when
    /// no lookups happened. The headline reuse statistic the
    /// `splu serve` regression gate tracks.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.analysis_hits + self.factor_hits;
        let lookups = hits + self.analysis_misses;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

struct Entry {
    analysis: Analysis,
    /// Most recent factorization for this pattern, if still resident.
    factor: Option<Factorization>,
    /// Logical-clock timestamp of the last touch (insert or lookup).
    last_used: u64,
}

impl Entry {
    fn bytes(&self) -> usize {
        self.analysis.approx_bytes() + self.factor.as_ref().map_or(0, Factorization::storage_bytes)
    }
}

/// LRU factorization cache keyed by pattern fingerprint.
///
/// Not internally synchronised — [`ShardedCache`](crate::ShardedCache)
/// wraps each shard in a mutex for concurrent use.
pub struct FactorCache {
    config: CacheConfig,
    entries: HashMap<u64, Entry>,
    clock: u64,
    resident_bytes: usize,
    stats: CacheStats,
}

impl FactorCache {
    /// Empty cache with the given capacity.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            entries: HashMap::new(),
            clock: 0,
            resident_bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of resident pattern entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current resident size in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Cached analysis for `pattern_fp`, touching the entry. Counts an
    /// analysis hit; absence is *not* counted (use [`Self::note_miss`]
    /// when the caller goes on to analyze from scratch).
    pub fn get_analysis(&mut self, pattern_fp: u64) -> Option<Analysis> {
        let now = self.tick();
        match self.entries.get_mut(&pattern_fp) {
            Some(e) => {
                e.last_used = now;
                self.stats.analysis_hits += 1;
                Some(e.analysis.clone())
            }
            None => None,
        }
    }

    /// Record that a lookup missed and a fresh analysis was computed.
    pub fn note_miss(&mut self) {
        self.stats.analysis_misses += 1;
    }

    /// Record that a numeric refactorization ran against a cached
    /// analysis.
    pub fn note_refactor(&mut self) {
        self.stats.refactors += 1;
    }

    /// Cached factorization for exactly (`pattern_fp`, `value_fp`),
    /// touching the entry and counting a factor hit on success.
    pub fn get_factor(&mut self, pattern_fp: u64, value_fp: u64) -> Option<Factorization> {
        let now = self.tick();
        let e = self.entries.get_mut(&pattern_fp)?;
        let f = e.factor.as_ref()?;
        if f.value_fingerprint() != value_fp {
            return None;
        }
        e.last_used = now;
        self.stats.factor_hits += 1;
        Some(f.clone())
    }

    /// Insert (or refresh) the analysis for its pattern, then enforce the
    /// byte budget.
    pub fn insert_analysis(&mut self, analysis: Analysis) {
        let now = self.tick();
        let fp = analysis.fingerprint();
        let entry = self.entries.entry(fp).or_insert_with(|| Entry {
            analysis: analysis.clone(),
            factor: None,
            last_used: now,
        });
        entry.last_used = now;
        self.recompute_bytes();
        self.evict_over_budget(fp);
    }

    /// Insert a factorization (and its analysis, if the pattern is not
    /// yet resident), replacing any previous factor for the pattern,
    /// then enforce the byte budget.
    pub fn insert_factor(&mut self, analysis: &Analysis, factor: Factorization) {
        let now = self.tick();
        let fp = factor.pattern_fingerprint();
        debug_assert_eq!(fp, analysis.fingerprint());
        let entry = self.entries.entry(fp).or_insert_with(|| Entry {
            analysis: analysis.clone(),
            factor: None,
            last_used: now,
        });
        entry.factor = Some(factor);
        entry.last_used = now;
        self.recompute_bytes();
        self.evict_over_budget(fp);
    }

    /// Drop everything (counters are retained).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    fn recompute_bytes(&mut self) {
        self.resident_bytes = self.entries.values().map(Entry::bytes).sum();
    }

    /// Evict least-recently-used entries until the budget is met. The
    /// entry `keep` (the one just touched) is never evicted.
    fn evict_over_budget(&mut self, keep: u64) {
        while self.resident_bytes > self.config.capacity_bytes && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .filter(|(fp, _)| **fp != keep)
                .min_by_key(|(fp, e)| (e.last_used, **fp))
                .map(|(fp, _)| *fp);
            let Some(fp) = victim else { break };
            if let Some(e) = self.entries.remove(&fp) {
                self.resident_bytes -= e.bytes();
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splu_core::FactorOptions;
    use splu_sparse::gen::{self, ValueModel};

    fn analysis_of(nx: usize, ny: usize) -> (splu_sparse::CscMatrix, Analysis) {
        let a = gen::grid2d(nx, ny, 0.4, ValueModel::default());
        let an = Analysis::of(&a, FactorOptions::default());
        (a, an)
    }

    #[test]
    fn same_pattern_hits_analysis_and_factor() {
        let (a, an) = analysis_of(7, 7);
        let mut cache = FactorCache::new(CacheConfig::default());
        assert!(cache.get_analysis(a.pattern_fingerprint()).is_none());
        cache.note_miss();
        let f = an.factorize(&a).unwrap();
        cache.insert_factor(&an, f);

        // Same pattern, same values: full hit.
        let hit = cache.get_factor(a.pattern_fingerprint(), a.value_fingerprint());
        assert!(hit.is_some());
        // Same pattern, new values: analysis hit, factor miss.
        let a2 = gen::perturb_values(&a, 11);
        assert!(cache
            .get_factor(a2.pattern_fingerprint(), a2.value_fingerprint())
            .is_none());
        assert!(cache.get_analysis(a2.pattern_fingerprint()).is_some());

        let s = cache.stats();
        assert_eq!(s.analysis_misses, 1);
        assert_eq!(s.factor_hits, 1);
        assert_eq!(s.analysis_hits, 1);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn pattern_change_misses() {
        let (a, an) = analysis_of(6, 6);
        let (b, _) = analysis_of(6, 5);
        let mut cache = FactorCache::new(CacheConfig::default());
        cache.insert_factor(&an, an.factorize(&a).unwrap());
        assert_ne!(a.pattern_fingerprint(), b.pattern_fingerprint());
        assert!(cache.get_analysis(b.pattern_fingerprint()).is_none());
        assert!(cache
            .get_factor(b.pattern_fingerprint(), b.value_fingerprint())
            .is_none());
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let (a, an_a) = analysis_of(8, 8);
        let (b, an_b) = analysis_of(8, 7);
        let (c, an_c) = analysis_of(8, 6);
        let fa = an_a.factorize(&a).unwrap();
        let fb = an_b.factorize(&b).unwrap();
        let fc = an_c.factorize(&c).unwrap();
        let one = an_a.approx_bytes() + fa.storage_bytes();
        // Budget sized for roughly two entries of this scale.
        let cap = one * 2 + one / 2;
        let mut cache = FactorCache::new(CacheConfig {
            capacity_bytes: cap,
        });
        cache.insert_factor(&an_a, fa);
        cache.insert_factor(&an_b, fb);
        // Touch A so B becomes the LRU victim.
        assert!(cache.get_analysis(a.pattern_fingerprint()).is_some());
        cache.insert_factor(&an_c, fc);
        assert!(cache.resident_bytes() <= cap, "budget violated");
        assert_eq!(cache.stats().evictions, 1);
        // B (least recently used) was evicted; A and C remain.
        assert!(cache.get_analysis(b.pattern_fingerprint()).is_none());
        assert!(cache.get_analysis(a.pattern_fingerprint()).is_some());
        assert!(cache.get_analysis(c.pattern_fingerprint()).is_some());
    }

    #[test]
    fn oversized_single_entry_is_retained() {
        let (a, an) = analysis_of(6, 6);
        let f = an.factorize(&a).unwrap();
        let mut cache = FactorCache::new(CacheConfig { capacity_bytes: 1 });
        cache.insert_factor(&an, f);
        assert_eq!(cache.len(), 1);
        assert!(cache
            .get_factor(a.pattern_fingerprint(), a.value_fingerprint())
            .is_some());
    }

    #[test]
    fn value_change_replaces_factor_in_place() {
        let (a, an) = analysis_of(7, 6);
        let mut cache = FactorCache::new(CacheConfig::default());
        cache.insert_factor(&an, an.factorize(&a).unwrap());
        let a2 = gen::perturb_values(&a, 5);
        let f2 = an.factorize(&a2).unwrap();
        cache.insert_factor(&an, f2);
        assert_eq!(cache.len(), 1);
        // Old values no longer hit; new values do.
        assert!(cache
            .get_factor(a.pattern_fingerprint(), a.value_fingerprint())
            .is_none());
        assert!(cache
            .get_factor(a2.pattern_fingerprint(), a2.value_fingerprint())
            .is_some());
    }
}
