//! Per-processor scratch arena for the factorization hot path.
//!
//! Every driver (the sequential code, and each rank of the 2D stage
//! engine) owns one [`FactorScratch`] per processor and threads it
//! through `Factor(k)` / `Update(k, j)` / `ScaleSwap`. All temporaries of
//! the elimination loop — the small-shape product buffer, the update
//! kernel's packed `U_kj` and `L` segments, the rank-1 update vectors and
//! the 2D code's row copies — live here and only ever *grow* to the
//! high-water mark of the shapes seen, so
//! steady-state factorization performs zero heap allocations per panel.
//! (Scatter
//! position maps are not scratch at all anymore: they are precomputed
//! once in `splu_symbolic::BlockPattern` and read in place.) When the one
//! factor entry point runs the 2D engine, the caller's arena also keeps
//! the engine's plan — its schedules and one arena per rank — for the
//! next factorization of the same pattern on the same grid.
//!
//! The proof mechanism: [`FactorScratch::grow_events`] counts every
//! capacity increase. Drivers report it through the `scratch_grow_events`
//! probe counter and [`crate::seq::FactorStats::scratch_grow_events`];
//! a warmed-up refactorization must report a delta of zero (asserted by
//! the `scratch_reuse` tests).

use splu_kernels::SegmentPack;

/// Reusable buffers for the factorization loop (one per processor).
///
/// Fields are `pub(crate)` so the drivers can borrow several buffers
/// simultaneously; growth accounting goes through the `prep_*` helpers.
#[derive(Default)]
pub struct FactorScratch {
    /// Product buffer of the update's small-shape segments.
    pub(crate) temp: Vec<f64>,
    /// `U_kj` packed for the blocked update kernel.
    pub(crate) bpack: Vec<f64>,
    /// `L` segments packed for the blocked update kernel (the sequential
    /// code's current stage).
    pub(crate) lpack: SegmentPack,
    /// Rank-1 update row of `Factor(k)` (`U` row right of the pivot).
    pub(crate) urow: Vec<f64>,
    /// Rank-1 update column of `Factor(k)` (scaled `L` column).
    pub(crate) lcol: Vec<f64>,
    /// Full-width row buffer (2D pivot-row / swap traffic).
    pub(crate) rowbuf: Vec<f64>,
    /// Second full-width row buffer (row interchanges swap two rows).
    pub(crate) rowbuf2: Vec<f64>,
    /// Generic index list (update targets, owned block ids, …).
    pub(crate) idx: Vec<u32>,
    /// Per-in-flight-stage slots of the 2D lookahead executor: slot
    /// `k mod slots` holds stage `k`'s packed `L` segments while the stage
    /// is in flight, so each is packed once per stage as in the
    /// sequential code. With a window of `W` at most `W + 1` stages have
    /// live update work, so `W + 1` slots suffice; a slot is reclaimed
    /// only after its stage retired.
    pub(crate) stages: Vec<StageSlot>,
    /// Placeholder column block for the `update_block` borrow dance
    /// (swapping it in and out of the matrix allocates nothing).
    pub(crate) dummy: crate::storage::ColBlock,
    pub(crate) grow_events: u64,
    /// The 2D engine's plan and per-rank arenas, when this arena last
    /// served a 2D factorization (see `par2d::factor_par2d_reusing`).
    pub(crate) plan2d: Option<Box<crate::par2d::Plan2d>>,
}

impl FactorScratch {
    /// A fresh, empty arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffer-capacity growth events since construction
    /// (including the update kernel's pack buffers). Zero delta across a
    /// factorization ⇒ the run allocated nothing in the hot loop.
    pub fn grow_events(&self) -> u64 {
        let stages: u64 = self.stages.iter().map(|s| s.pack.grow_events()).sum();
        self.grow_events + self.lpack.grow_events() + stages
    }

    /// High-water footprint of the arena in bytes. Capacities never
    /// shrink, so the current capacities *are* the peak.
    pub fn peak_bytes(&self) -> u64 {
        let f64s = self.temp.capacity()
            + self.bpack.capacity()
            + self.urow.capacity()
            + self.lcol.capacity()
            + self.rowbuf.capacity()
            + self.rowbuf2.capacity();
        let u32s = self.idx.capacity();
        let packs: usize = self.stages.iter().map(|s| s.pack.peak_bytes()).sum();
        (f64s * 8 + u32s * 4 + self.lpack.peak_bytes() + packs) as u64
    }

    /// Ensure `n` stage slots exist and mark them all empty (stage
    /// identities must not leak across runs). Growing the slot table
    /// counts one grow event; a warmed arena re-run with the same window
    /// allocates nothing here.
    pub(crate) fn ensure_stage_slots(&mut self, n: usize) {
        if self.stages.len() < n {
            self.grow_events += 1;
            self.stages.resize_with(n, StageSlot::default);
        }
        for s in &mut self.stages {
            s.stage = EMPTY;
        }
    }

    /// The slot of stage `k` (whose `L` panel has `nsegs` segments),
    /// claimed for it — emptied — unless it already holds it.
    pub(crate) fn stage_slot(&mut self, k: usize, nsegs: usize) -> &mut StageSlot {
        let n = self.stages.len();
        let s = &mut self.stages[k % n];
        if s.stage != k {
            debug_assert!(
                s.stage == EMPTY || s.retired,
                "stage {k} reuses the slot of unretired stage {}",
                s.stage
            );
            s.stage = k;
            s.retired = false;
            s.pack.reset(nsegs);
        }
        s
    }

    /// Stage `k`'s last consumer ran: its slot may be reclaimed.
    pub(crate) fn retire_stage(&mut self, k: usize) {
        let n = self.stages.len();
        let s = &mut self.stages[k % n];
        s.retired |= s.stage == k;
    }
}

/// Stage id of an empty [`StageSlot`].
const EMPTY: usize = usize::MAX;

/// One in-flight stage's staging in the 2D executor (see
/// [`FactorScratch::stage_slot`]).
pub(crate) struct StageSlot {
    /// The occupying stage ([`EMPTY`] for none).
    stage: usize,
    /// Whether the occupant retired.
    retired: bool,
    /// The stage's blocked-shape `L` segments, each packed once.
    pub(crate) pack: SegmentPack,
}

impl Default for StageSlot {
    fn default() -> Self {
        Self {
            stage: EMPTY,
            retired: false,
            pack: SegmentPack::default(),
        }
    }
}

/// Clear `v` and reserve room for `len` elements, counting a grow event
/// into `grow_events` when the capacity actually increases.
pub(crate) fn prep_cap<T>(v: &mut Vec<T>, len: usize, grow_events: &mut u64) {
    v.clear();
    if v.capacity() < len {
        *grow_events += 1;
        v.reserve(len);
    }
}

/// `&mut v[..len]`, growing `v` (and counting a grow event) only when it
/// is shorter; the reused prefix is not re-zeroed.
pub(crate) fn ensure_len_f64<'a>(
    v: &'a mut Vec<f64>,
    len: usize,
    grow_events: &mut u64,
) -> &'a mut [f64] {
    if v.len() < len {
        if v.capacity() < len {
            *grow_events += 1;
        }
        v.resize(len, 0.0);
    }
    &mut v[..len]
}

/// [`prep_cap`] followed by zero-fill to exactly `len`.
pub(crate) fn prep_zeroed_f64(v: &mut Vec<f64>, len: usize, grow_events: &mut u64) {
    prep_cap(v, len, grow_events);
    v.resize(len, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_events_count_capacity_increases_only() {
        let mut s = FactorScratch::new();
        prep_zeroed_f64(&mut s.temp, 100, &mut s.grow_events);
        assert_eq!(s.grow_events(), 1);
        // same or smaller size: no growth
        prep_zeroed_f64(&mut s.temp, 100, &mut s.grow_events);
        prep_zeroed_f64(&mut s.temp, 40, &mut s.grow_events);
        assert_eq!(s.grow_events(), 1);
        // larger: one more
        prep_zeroed_f64(&mut s.temp, 1000, &mut s.grow_events);
        assert_eq!(s.grow_events(), 2);
        assert!(s.peak_bytes() >= 8000);
    }

    #[test]
    fn stage_slots_warm_up_then_stop_growing() {
        let mut s = FactorScratch::new();
        s.ensure_stage_slots(3);
        assert_eq!(s.grow_events(), 1, "slot table growth counts once");
        let a = [1.0; 64];
        // three in-flight stages land in distinct slots, each packing once
        for k in [5usize, 6, 7] {
            s.stage_slot(k, 2).pack.pack(0, 8, 8, &a, 8);
        }
        let grown = s.grow_events();
        // a resident stage keeps its packs
        s.stage_slot(6, 2).pack.pack(0, 8, 8, &[f64::NAN; 64], 8);
        assert_eq!(s.stage_slot(6, 2).pack.get(0)[0], 1.0);
        // a retired stage's successor reuses the slot's buffers
        s.retire_stage(5);
        s.stage_slot(8, 2).pack.pack(1, 8, 8, &a, 8);
        assert_eq!(s.grow_events(), grown, "warmed slots must not grow");
        // a warmed arena re-run with the same window allocates nothing
        s.ensure_stage_slots(3);
        assert!(s.stages.iter().all(|t| t.stage == EMPTY));
        s.stage_slot(5, 2).pack.pack(0, 8, 8, &a, 8);
        assert_eq!(s.grow_events(), grown);
        assert!(s.peak_bytes() >= 3 * 64 * 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unretired stage")]
    fn stage_slot_reuse_before_retirement_is_caught() {
        let mut s = FactorScratch::new();
        s.ensure_stage_slots(2);
        s.stage_slot(3, 1);
        s.stage_slot(5, 1);
    }
}
