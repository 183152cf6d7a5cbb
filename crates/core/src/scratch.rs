//! Per-processor scratch arena for the factorization hot path.
//!
//! Every driver (sequential, 1D, 2D, pipelined) owns one [`FactorScratch`]
//! per processor and threads it through `Factor(k)` / `Update(k, j)` /
//! `ScaleSwap`. All temporaries of the elimination loop — the small-shape
//! product buffer, the update kernel's packed `U_kj` and `L` segments,
//! the rank-1 update vectors and the 2D code's row copies — live here and
//! only ever *grow* to the high-water mark of the shapes seen, so
//! steady-state factorization performs zero heap allocations per panel.
//! (Scatter
//! position maps are not scratch at all anymore: they are precomputed
//! once in `splu_symbolic::BlockPattern` and read in place.)
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
    /// code's current stage; the 2D code's current update).
    pub(crate) lpack: SegmentPack,
    /// Idle packs of the 1D code's cached panels (one per panel).
    pub(crate) lpacks: Vec<SegmentPack>,
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
    /// Per-in-flight-stage `L_kk` staging slots of the 2D lookahead
    /// executor: slot `k mod slots` holds stage `k`'s diagonal panel
    /// across that stage's whole TRSM chain ([`stage_ids`](Self) tags the
    /// occupant so the panel is staged once per stage, not once per
    /// block). With a window of `W`, at most `W + 1` stages have live
    /// TRSM work, so `W + 1` slots suffice and reuse is collision-free.
    pub(crate) stage_panels: Vec<Vec<f64>>,
    /// Stage currently staged in each slot (`u64::MAX` = empty).
    pub(crate) stage_ids: Vec<u64>,
    /// Placeholder column block for the `update_block` borrow dance
    /// (swapping it in and out of the matrix allocates nothing).
    pub(crate) dummy: crate::storage::ColBlock,
    pub(crate) grow_events: u64,
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
        let packs: u64 = self.lpacks.iter().map(SegmentPack::grow_events).sum();
        self.grow_events + self.lpack.grow_events() + packs
    }

    /// High-water footprint of the arena in bytes. Capacities never
    /// shrink, so the current capacities *are* the peak.
    pub fn peak_bytes(&self) -> u64 {
        let f64s = self.temp.capacity()
            + self.bpack.capacity()
            + self.urow.capacity()
            + self.lcol.capacity()
            + self.rowbuf.capacity()
            + self.rowbuf2.capacity()
            + self
                .stage_panels
                .iter()
                .map(|p| p.capacity())
                .sum::<usize>();
        let u32s = self.idx.capacity();
        let packs: usize = self.lpacks.iter().map(SegmentPack::peak_bytes).sum();
        (f64s * 8 + u32s * 4 + self.lpack.peak_bytes() + packs) as u64
    }

    /// A pack for a newly cached panel: a returned one when available.
    pub(crate) fn take_lpack(&mut self) -> SegmentPack {
        self.lpacks.pop().unwrap_or_default()
    }

    /// Ensure `n` stage-panel slots exist and mark them all empty (stage
    /// identities must not leak across runs). Growing the slot table
    /// counts one grow event; a warmed arena re-run with the same window
    /// allocates nothing here.
    pub(crate) fn ensure_stage_slots(&mut self, n: usize) {
        if self.stage_panels.len() < n {
            self.grow_events += 1;
            self.stage_panels.resize_with(n, Vec::new);
            self.stage_ids.resize(n, u64::MAX);
        }
        for id in &mut self.stage_ids {
            *id = u64::MAX;
        }
    }

    /// Stage stage `k`'s `L_kk` panel (produced by `fill`) into its slot
    /// unless already resident, returning the staged slice.
    pub(crate) fn stage_panel(
        &mut self,
        k: usize,
        len: usize,
        fill: impl FnOnce(&mut Vec<f64>),
    ) -> &[f64] {
        let slot = k % self.stage_panels.len();
        if self.stage_ids[slot] != k as u64 {
            self.stage_ids[slot] = k as u64;
            let buf = &mut self.stage_panels[slot];
            prep_cap(buf, len, &mut self.grow_events);
            fill(buf);
            debug_assert_eq!(buf.len(), len);
        }
        &self.stage_panels[slot]
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
        // three in-flight stages land in distinct slots
        for k in [5usize, 6, 7] {
            let p = s.stage_panel(k, 4, |b| b.resize(4, k as f64));
            assert_eq!(p, [k as f64; 4]);
        }
        let grown = s.grow_events();
        // re-staging a resident stage is free and does not re-fill
        let p = s.stage_panel(6, 4, |_| panic!("stage 6 already staged"));
        assert_eq!(p, [6.0; 4]);
        // slot reuse by a retired stage's successor re-fills in place
        let p = s.stage_panel(8, 4, |b| b.resize(4, 8.0));
        assert_eq!(p, [8.0; 4]);
        assert_eq!(s.grow_events(), grown, "warmed slots must not grow");
        // a warmed arena re-run with the same window allocates nothing
        s.ensure_stage_slots(3);
        assert!(s.stage_ids.iter().all(|&id| id == u64::MAX));
        s.stage_panel(5, 4, |b| b.resize(4, 0.0));
        assert_eq!(s.grow_events(), grown);
        assert!(s.peak_bytes() >= 3 * 4 * 8);
    }
}
