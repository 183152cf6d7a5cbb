//! 2D block-cyclic asynchronous sparse LU (§4.3, §5.2, Figs. 12–15).
//!
//! Processors form a `p_r × p_c` grid; block `A_ij` lives on
//! `P_{i mod p_r, j mod p_c}`. A single `Factor(k)` is parallelized over
//! the `p_r` processors of one grid column (distributed pivot search with
//! subrow exchange), and a single update stage over all processors.
//!
//! This is the one 2D engine: a **stage-pipelined lookahead executor**.
//! Every rank of a grid column replays the deterministic operation list
//! built by [`splu_sched::lookahead_schedule`] — the paper's Fig. 10/11
//! priority policy on the real thread machine. With window `W`
//! ([`Par2dOptions::window`], default [`DEFAULT_LOOKAHEAD`]), stage `k`'s
//! updates into the next pivot block column run first, `Factor(k+1)` and
//! its row/column multicasts issue immediately, and up to `W` stages of
//! trailing updates drain *behind* the factor frontier. `W = 0`
//! reproduces the strict in-order Fig. 12 loop (the ablation baseline).
//! Per-destination-column next-expected-stage counters (`applied`)
//! double-check at run time that every block still absorbs its update
//! contributions in ascending stage order, so the factors stay
//! **bitwise identical** to the sequential code for every window: the
//! distributed pivot search reproduces the sequential tie-break exactly,
//! and per-entry arithmetic happens in the same order.
//!
//! In [`Sync2d::Async`] mode there is no global synchronization at all:
//! processors pipeline across elimination stages, bounded by the overlap
//! degrees of Theorem 2 at `W = 0` (`p_c` across the machine,
//! `min(p_r − 1, p_c)` within a processor column) and by the
//! window-generalized `p_c + W` / `min(p_r − 1, p_c) + W` for `W ≥ 1`.
//! [`Sync2d::Barrier`] adds the paper's ablation: a global barrier per
//! *retired* stage (Table 7 compares the two) — with `W ≥ 1` the window
//! still pipelines between consecutive barriers.

use crate::error::{catch_solver_panic, SolverError};
use crate::scratch::{prep_cap, prep_zeroed_f64, FactorScratch};
use crate::seq::FactorStats;
use crate::storage::BlockMatrix;
use crate::update::{self, LSource, UpdateDest, UpdateTask};
use splu_kernels::dtrsm_left_lower_unit;
use splu_machine::{run_machine, Grid, Message, ProcCtx, RunOptions};
use splu_sched::{lookahead_schedule, Op2d, TaskGraph};
use splu_symbolic::BlockPattern;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default lookahead window `W` of the 2D executor: one panel
/// factorization ahead of the drain frontier (Fig. 10's compute-ahead
/// depth). `0` is the in-order ablation baseline.
pub const DEFAULT_LOOKAHEAD: usize = 1;

/// Synchronization mode for the 2D code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sync2d {
    /// Fully asynchronous pipelined execution (the paper's main 2D code).
    Async,
    /// Global barrier after every elimination stage (Table 7's baseline).
    Barrier,
}

/// One recorded `Update2D` execution interval (for Theorem 2's overlap
/// analysis), in global logical-clock ticks.
#[derive(Debug, Clone, Copy)]
pub struct UpdateInterval {
    /// Source stage `k`.
    pub stage: u32,
    /// Grid column of the executing processor.
    pub proc_col: u32,
    /// Logical start tick.
    pub start: u64,
    /// Logical end tick.
    pub end: u64,
}

/// Result of a 2D factorization.
pub struct Par2dResult {
    /// Reassembled factored storage (host side).
    pub blocks: BlockMatrix,
    /// Per-block pivot sequences.
    pub pivots: Vec<Vec<u32>>,
    /// Merged statistics.
    pub stats: FactorStats,
    /// Wall-clock seconds of the parallel section.
    pub elapsed: f64,
    /// (messages, bytes) sent in total.
    pub comm: (u64, u64),
    /// Per-processor peak parked-message bytes (§5.2 buffer-space).
    pub peak_buffer_bytes: Vec<u64>,
    /// Per-processor peak resident bytes of the lookahead panel caches
    /// (received `L`/`U` multicast panels held for reuse). With per-stage
    /// retirement this stays bounded by one stage's working set.
    pub panel_cache_peak_bytes: Vec<u64>,
    /// Per-processor cumulative bytes ever inserted into the panel
    /// caches — what the peak would approach if entries were never
    /// evicted (the pre-retirement behavior).
    pub panel_cache_inserted_bytes: Vec<u64>,
    /// Update execution intervals for overlap analysis.
    pub intervals: Vec<UpdateInterval>,
}

impl Par2dResult {
    /// Measured stage-overlapping degree across all processors:
    /// `max{k2 − k1 : Update2D(k1,*) and Update2D(k2,*) ran concurrently}`
    /// (Theorem 2 bounds this by `p_c`).
    pub fn overlap_degree(&self) -> u32 {
        overlap_degree(&self.intervals, None)
    }

    /// Measured overlap degree within one processor-grid column
    /// (Theorem 2 bounds this by `min(p_r − 1, p_c)`).
    pub fn overlap_degree_within_col(&self, col: u32) -> u32 {
        overlap_degree(&self.intervals, Some(col))
    }

    /// *Sustained* pipeline depth: the tick-weighted 95th percentile of
    /// the number of distinct elimination stages with an update in
    /// flight. Unlike [`Par2dResult::overlap_degree`], which a single
    /// straggler pair can inflate to its maximum, this reports the depth
    /// the executor actually holds for 95% of the busy time.
    pub fn sustained_depth_p95(&self) -> u32 {
        // sweep the interval set: each logical tick is unique (a global
        // counter), so events never tie
        let mut events: Vec<(u64, u32, i32)> = Vec::new();
        for iv in &self.intervals {
            if iv.start < iv.end {
                events.push((iv.start, iv.stage, 1));
                events.push((iv.end, iv.stage, -1));
            }
        }
        if events.is_empty() {
            return 0;
        }
        events.sort_unstable_by_key(|e| e.0);
        let mut active: HashMap<u32, u32> = HashMap::new();
        let mut samples: Vec<(u32, u64)> = Vec::new(); // (depth, ticks held)
        let mut prev_tick = events[0].0;
        for (tick, stage, delta) in events {
            if tick > prev_tick && !active.is_empty() {
                samples.push((active.len() as u32, tick - prev_tick));
            }
            prev_tick = tick;
            if delta > 0 {
                *active.entry(stage).or_insert(0) += 1;
            } else {
                let c = active.get_mut(&stage).expect("end without start");
                *c -= 1;
                if *c == 0 {
                    active.remove(&stage);
                }
            }
        }
        samples.sort_unstable_by_key(|s| s.0);
        let total: u64 = samples.iter().map(|s| s.1).sum();
        let mut acc = 0u64;
        for (depth, ticks) in samples {
            acc += ticks;
            // smallest depth covering ≥ 95% of busy ticks
            if acc * 100 >= total * 95 {
                return depth;
            }
        }
        0
    }
}

fn overlap_degree(iv: &[UpdateInterval], col: Option<u32>) -> u32 {
    let mut best = 0u32;
    for (a, x) in iv.iter().enumerate() {
        if col.is_some_and(|c| x.proc_col != c) {
            continue;
        }
        for y in &iv[a + 1..] {
            if col.is_some_and(|c| y.proc_col != c) {
                continue;
            }
            if x.start < y.end && y.start < x.end {
                best = best.max(x.stage.abs_diff(y.stage));
            }
        }
    }
    best
}

// ---- message tags ----
const K_CAND: u64 = 1;
const K_PIVROW: u64 = 2;
const K_LPANEL: u64 = 3;
const K_UROW: u64 = 4;
const K_SWAP: u64 = 5;

fn tag(kind: u64, k: usize, x: usize, y: usize) -> u64 {
    debug_assert!(k < 1 << 20 && x < 1 << 20 && y < 1 << 20);
    (kind << 60) | ((k as u64) << 40) | ((x as u64) << 20) | y as u64
}

const NONE_ROW: u32 = u32::MAX;

/// Per-processor block storage for the 2D block-cyclic mapping: block
/// `(i, j)` lives on grid processor `(i mod p_r, j mod p_c)`.
struct Store2d {
    pattern: Arc<BlockPattern>,
    grid: Grid,
    rno: usize,
    cno: usize,
    /// Global index → block id (cached; rebuilding it per access is O(n)).
    block_of: Vec<u32>,
    /// Owned blocks: `(i, j) → column-major panel`. Diagonal blocks are
    /// `w × w`; L blocks `mask_rows × w`; U blocks `w_i × mask_cols`.
    blocks: HashMap<(u32, u32), Vec<f64>>,
}

impl Store2d {
    fn new(
        a: &splu_sparse::CscMatrix,
        pattern: Arc<BlockPattern>,
        grid: Grid,
        rank: usize,
    ) -> Self {
        let (rno, cno) = grid.coords_of(rank);
        let block_of = pattern.part.block_of_index();
        let mut st = Self {
            pattern,
            grid,
            rno,
            cno,
            block_of,
            blocks: HashMap::new(),
        };
        let nb = st.pattern.nblocks();
        // allocate owned blocks. A local Arc handle keeps the pattern
        // borrow off `st` while `blocks` is mutated.
        let pattern = st.pattern.clone();
        for j in 0..nb {
            if st.owns_block(j, j) {
                let w = pattern.part.width(j);
                st.blocks.insert((j as u32, j as u32), vec![0.0; w * w]);
            }
            for l in &pattern.l_blocks[j] {
                if st.owns_block(l.i as usize, j) {
                    let w = pattern.part.width(j);
                    st.blocks
                        .insert((l.i, j as u32), vec![0.0; l.rows.len() * w]);
                }
            }
        }
        for k in 0..nb {
            let h = pattern.part.width(k);
            for u in &pattern.u_blocks[k] {
                if st.owns_block(k, u.j as usize) {
                    st.blocks
                        .insert((k as u32, u.j), vec![0.0; h * u.cols.len()]);
                }
            }
        }
        // scatter owned entries of A
        for (i, j, v) in a.iter() {
            let (ib, jb) = (st.block_of[i] as usize, st.block_of[j] as usize);
            if !st.owns_block(ib, jb) {
                continue;
            }
            st.write_entry(ib, jb, i, j, v);
        }
        st
    }

    /// Whether this processor owns block `(i, j)`.
    fn owns_block(&self, i: usize, j: usize) -> bool {
        i % self.grid.pr == self.rno && j % self.grid.pc == self.cno
    }

    /// Whether this processor holds (its share of) column `k`'s panel —
    /// diagonal + `L` segments — locally, i.e. sits in the factoring grid
    /// column.
    fn owns_col_panel(&self, k: usize) -> bool {
        k % self.grid.pc == self.cno
    }

    fn lo(&self, b: usize) -> usize {
        self.pattern.part.start(b)
    }

    fn width(&self, b: usize) -> usize {
        self.pattern.part.width(b)
    }

    /// L block's present rows (global ids) from the pattern.
    fn l_rows(&self, i: usize, j: usize) -> &[u32] {
        &self.pattern.l_block(i, j).expect("L block in pattern").rows
    }

    /// U block's present cols (global ids) from the pattern.
    fn u_cols(&self, k: usize, j: usize) -> &[u32] {
        &self.pattern.u_block(k, j).expect("U block in pattern").cols
    }

    fn write_entry(&mut self, ib: usize, jb: usize, i: usize, j: usize, v: f64) {
        use std::cmp::Ordering::*;
        let w = self.width(jb);
        match ib.cmp(&jb) {
            Equal => {
                let (li, lj) = (i - self.lo(ib), j - self.lo(jb));
                self.blocks.get_mut(&(ib as u32, jb as u32)).unwrap()[li + lj * w] = v;
            }
            Greater => {
                let rows = self.pattern.l_block(ib, jb).unwrap().rows.clone();
                let p = rows.binary_search(&(i as u32)).expect("row in L mask");
                let lj = j - self.lo(jb);
                self.blocks.get_mut(&(ib as u32, jb as u32)).unwrap()[p + lj * rows.len()] = v;
            }
            Less => {
                let cols = self.pattern.u_block(ib, jb).unwrap().cols.clone();
                let p = cols.binary_search(&(j as u32)).expect("col in U mask");
                let h = self.width(ib);
                let li = i - self.lo(ib);
                self.blocks.get_mut(&(ib as u32, jb as u32)).unwrap()[li + p * h] = v;
            }
        }
    }

    /// Read global row `g`'s subrow within column block `j` into `out`
    /// (a zeroed full-width buffer; only mask positions are written).
    /// Writes nothing if the block is structurally absent.
    fn read_row_into(&self, ib: usize, j: usize, g: usize, out: &mut [f64]) {
        use std::cmp::Ordering::*;
        let w = self.width(j);
        let lo_j = self.lo(j);
        match ib.cmp(&j) {
            Equal => {
                if let Some(p) = self.blocks.get(&(ib as u32, j as u32)) {
                    let li = g - self.lo(ib);
                    for c in 0..w {
                        out[c] = p[li + c * w];
                    }
                }
            }
            Greater => {
                if let Some(p) = self.blocks.get(&(ib as u32, j as u32)) {
                    let rows = self.l_rows(ib, j);
                    let rp = rows.binary_search(&(g as u32)).expect("row in mask");
                    for c in 0..w {
                        out[c] = p[rp + c * rows.len()];
                    }
                }
            }
            Less => {
                if let Some(p) = self.blocks.get(&(ib as u32, j as u32)) {
                    let cols = self.u_cols(ib, j);
                    let h = self.width(ib);
                    let li = g - self.lo(ib);
                    for (cp, &gc) in cols.iter().enumerate() {
                        out[gc as usize - lo_j] = p[li + cp * h];
                    }
                }
            }
        }
    }

    /// Write a full-width subrow into global row `g` of column block `j`
    /// (only mask positions are written; in debug builds, non-mask values
    /// must be zero per the padding invariant).
    fn write_row_full(&mut self, j: usize, g: usize, vals: &[f64]) {
        use std::cmp::Ordering::*;
        let w = self.width(j);
        let lo_j = self.lo(j);
        debug_assert_eq!(vals.len(), w);
        let ib = self.block_of[g] as usize;
        // local handle on the shared pattern so mask lookups don't hold a
        // borrow of `self` across the `get_mut` (no copies of the masks)
        let pattern = self.pattern.clone();
        match ib.cmp(&j) {
            Equal => {
                let li = g - self.lo(ib);
                if let Some(p) = self.blocks.get_mut(&(ib as u32, j as u32)) {
                    for c in 0..w {
                        p[li + c * w] = vals[c];
                    }
                }
            }
            Greater => {
                let rows = &pattern.l_block(ib, j).expect("L block in pattern").rows;
                if let Some(p) = self.blocks.get_mut(&(ib as u32, j as u32)) {
                    let rp = rows.binary_search(&(g as u32)).expect("row in mask");
                    for c in 0..w {
                        p[rp + c * rows.len()] = vals[c];
                    }
                }
            }
            Less => {
                let cols = &pattern.u_block(ib, j).expect("U block in pattern").cols;
                let h = self.width(ib);
                let li = g - self.lo(ib);
                if let Some(p) = self.blocks.get_mut(&(ib as u32, j as u32)) {
                    let mut mask_pos = 0usize;
                    for (c, &v) in vals.iter().enumerate() {
                        let gc = (lo_j + c) as u32;
                        if mask_pos < cols.len() && cols[mask_pos] == gc {
                            p[li + mask_pos * h] = v;
                            mask_pos += 1;
                        } else {
                            debug_assert!(v == 0.0, "nonzero outside U mask at col {gc}");
                        }
                    }
                } else {
                    debug_assert!(
                        vals.iter().all(|&v| v == 0.0),
                        "nonzero subrow into absent block ({ib},{j})"
                    );
                }
            }
        }
    }

    /// Whether this processor owns any storage for row `g` in column
    /// block `j` (i.e. owns block `(block_of(g), j)` and it exists).
    fn owns_row(&self, j: usize, g: usize) -> Option<usize> {
        let ib = self.block_of[g] as usize;
        if !self.owns_block(ib, j) {
            return None;
        }
        Some(ib)
    }

    fn block_exists(&self, ib: usize, j: usize) -> bool {
        use std::cmp::Ordering::*;
        match ib.cmp(&j) {
            Equal => true,
            Greater => self.pattern.l_block(ib, j).is_some(),
            Less => self.pattern.u_block(ib, j).is_some(),
        }
    }
}

/// A view into a shared multicast payload: `(payload, offset, len)`.
type PanelSlice = (Arc<Vec<f64>>, usize, usize);

/// Caches of received *batched* multicast payloads.
///
/// Stage `k`'s row multicast arrives as **one** message per sender (pivot
/// sequence + diagonal + every `L_ik` segment that sender owns); its
/// payload is registered here as per-`(k, i)` slices sharing one `Arc`.
/// TRSM'd `U_kj` row blocks likewise arrive batched — one column
/// multicast per schedule run, stored whole under `(k, batch_id)` with a
/// per-`(k, j)` layout map recorded when the run's `Trsm` ops replay.
///
/// Every entry of stage `k` is inserted *and* last consumed before the
/// executor's `Retire(k)`, which retires the whole stage: resident bytes
/// stay bounded by the in-flight window's working set instead of growing
/// monotonically over the whole factorization (the pre-retirement
/// behavior, still visible as [`PanelCaches::inserted_bytes`]).
struct PanelCaches {
    lpanels: HashMap<(usize, usize), PanelSlice>,
    /// `(k, j)` → `(batch_id, offset, len)` into the batch multicast.
    urow_layout: HashMap<(usize, usize), (usize, usize, usize)>,
    /// `(k, batch_id)` → the run's concatenated `U` row blocks.
    urow_batches: HashMap<(usize, usize), Arc<Vec<f64>>>,
    /// Bytes accounted to each in-flight stage, repaid at retirement.
    stage_bytes: HashMap<usize, u64>,
    resident_bytes: u64,
    peak_bytes: u64,
    inserted_bytes: u64,
}

impl PanelCaches {
    fn new() -> Self {
        Self {
            lpanels: HashMap::new(),
            urow_layout: HashMap::new(),
            urow_batches: HashMap::new(),
            stage_bytes: HashMap::new(),
            resident_bytes: 0,
            peak_bytes: 0,
            inserted_bytes: 0,
        }
    }

    fn account_insert(&mut self, k: usize, nbytes: u64) {
        self.inserted_bytes += nbytes;
        self.resident_bytes += nbytes;
        *self.stage_bytes.entry(k).or_default() += nbytes;
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
    }

    fn insert_urow_batch(&mut self, k: usize, batch_id: usize, m: &Message) {
        debug_assert!(!self.urow_batches.contains_key(&(k, batch_id)));
        self.account_insert(k, m.nbytes());
        self.urow_batches.insert((k, batch_id), m.floats.clone());
    }

    /// Retire every stage-`k` entry (its last consumer has completed).
    /// Payload `Arc`s drop here; a sole-holder drop frees the buffer.
    fn retire_stage(&mut self, k: usize) {
        self.lpanels.retain(|key, _| key.0 != k);
        self.urow_layout.retain(|key, _| key.0 != k);
        self.urow_batches.retain(|key, _| key.0 != k);
        if let Some(b) = self.stage_bytes.remove(&k) {
            self.resident_bytes -= b;
        }
    }

    fn is_empty(&self) -> bool {
        self.lpanels.is_empty() && self.urow_layout.is_empty() && self.urow_batches.is_empty()
    }
}

/// Options of [`factor_par2d_with`].
#[derive(Clone, Copy)]
pub struct Par2dOptions<'a> {
    /// Runtime options: flight-recorder tracing (one span per paper-named
    /// stage — `panel-factor`, `scale-swap` with nested `row-swap`,
    /// `update` — plus pivot-search/fill/lookahead counters and the
    /// runtime's communication marks) and delivery jitter.
    pub run: RunOptions<'a>,
    /// Asynchronous pipelining or the per-stage barrier ablation.
    pub mode: Sync2d,
    /// Pivot threshold (`1.0` is classic partial pivoting; see
    /// [`crate::seq::factor_sequential_with`]).
    pub threshold: f64,
    /// Lookahead window `W` (`0` = the strict in-order schedule of
    /// Fig. 12 and Theorem 2).
    pub window: usize,
}

impl Default for Par2dOptions<'_> {
    fn default() -> Self {
        Self {
            run: RunOptions::default(),
            mode: Sync2d::Async,
            threshold: 1.0,
            window: DEFAULT_LOOKAHEAD,
        }
    }
}

/// Factor `a` (already preprocessed) on a `grid` of thread-processors
/// with classic partial pivoting and the default lookahead window
/// [`DEFAULT_LOOKAHEAD`].
///
/// # Panics
/// On a numerically singular input, with the [`SolverError`] as the
/// panic payload; [`factor_par2d_with`] returns it instead.
pub fn factor_par2d(
    a: &splu_sparse::CscMatrix,
    pattern: Arc<BlockPattern>,
    grid: Grid,
    mode: Sync2d,
) -> Par2dResult {
    let opts = Par2dOptions {
        mode,
        ..Par2dOptions::default()
    };
    factor_par2d_with(a, pattern, grid, &opts).unwrap_or_else(|e| std::panic::panic_any(e))
}

/// The 2D factorization under explicit [`Par2dOptions`]. A numerically
/// singular input surfaces as `Err(SolverError::ZeroPivot)` instead of
/// poisoning the processor grid and unwinding through the caller; any
/// non-numeric panic propagates unchanged.
pub fn factor_par2d_with(
    a: &splu_sparse::CscMatrix,
    pattern: Arc<BlockPattern>,
    grid: Grid,
    opts: &Par2dOptions,
) -> Result<Par2dResult, SolverError> {
    catch_solver_panic(|| factor2d_grid(a, pattern, grid, opts))
}

/// The body of [`factor_par2d_with`], inside its panic boundary.
fn factor2d_grid(
    a: &splu_sparse::CscMatrix,
    pattern: Arc<BlockPattern>,
    grid: Grid,
    opts: &Par2dOptions,
) -> Par2dResult {
    assert!(opts.threshold > 0.0 && opts.threshold <= 1.0);
    let nb = pattern.nblocks();
    let clock = AtomicU64::new(0);

    // One deterministic operation list per grid column, shared by the
    // column's p_r ranks (identical replay is what keeps the intra-column
    // blocking exchanges deadlock-free).
    let graph = TaskGraph::build(&pattern);
    let schedules: Vec<Vec<Op2d>> = (0..grid.pc)
        .map(|c| lookahead_schedule(&graph, grid.pc, c, opts.window))
        .collect();
    // At most `W + 1` stages ever have live TRSM work, so `W + 1` staging
    // slots are collision-free (capped by the stage count for absurd `W`)
    let stage_slots = opts.window.min(nb.saturating_sub(1)) + 1;

    let t0 = std::time::Instant::now();
    type RankOut = (
        Vec<((u32, u32), Vec<f64>)>,
        Vec<(usize, Vec<u32>)>,
        FactorStats,
        u64,
        Vec<UpdateInterval>,
        (u64, u64),
    );
    let spmd = |mut ctx: ProcCtx| {
        let mut st = Store2d::new(a, pattern.clone(), grid, ctx.rank);
        let cno = st.cno;
        let mut stats = FactorStats::default();
        let mut pivseqs: Vec<Option<Arc<Vec<u32>>>> = vec![None; nb];
        let mut intervals: Vec<UpdateInterval> = Vec::new();
        // bounded caches of received panels, retired per stage
        let mut caches = PanelCaches::new();
        let mut scratch = FactorScratch::new();

        if ctx.rank == 0 {
            // static fill predicted by the symbolic phase (Table 1's
            // overestimation statistic), recorded once per run
            ctx.probe().count(
                "fill_entries",
                (pattern.storage_entries() as u64).saturating_sub(a.nnz() as u64),
            );
        }

        // ---- the schedule executor: replay this grid column's op list ----
        scratch.ensure_stage_slots(stage_slots);
        // defense-in-depth next-expected-stage counters: column `j` must
        // absorb its update sources in ascending stage order for the
        // factors to be bitwise identical to the sequential driver
        let mut applied: Vec<u32> = vec![0; nb];
        let mut max_depth = 0u32;
        let ops = schedules[cno].as_slice();
        let mut swap_js: Vec<usize> = Vec::new();
        let mut trsm_js: Vec<usize> = Vec::new();
        let mut i = 0usize;
        while i < ops.len() {
            match ops[i] {
                Op2d::Factor { k, nsrcs } => {
                    let k = k as usize;
                    debug_assert_eq!(applied[k], nsrcs, "Factor({k}) before its sources");
                    let piv = factor2d(
                        &mut ctx,
                        &mut st,
                        k,
                        opts.threshold,
                        &mut stats,
                        &mut scratch,
                    );
                    pivseqs[k] = Some(Arc::new(piv));
                }
                Op2d::Swap { k, .. } => {
                    // coalesce the maximal run of stage-`k` swaps (the
                    // schedule emits a draining stage's swaps
                    // back-to-back) into one batched exchange. Every rank
                    // of the grid column derives the identical run, so
                    // batch ids agree.
                    swap_js.clear();
                    while let Some(Op2d::Swap { k: k2, j, seq }) = ops.get(i).copied() {
                        if k2 != k {
                            break;
                        }
                        debug_assert_eq!(applied[j as usize], seq, "Swap({k},{j}) out of order");
                        swap_js.push(j as usize);
                        i += 1;
                    }
                    let k = k as usize;
                    ensure_stage_row(&mut ctx, &st, &mut caches, &mut pivseqs, k, false);
                    let piv = pivseqs[k].clone().unwrap();
                    swap_columns(&mut ctx, &mut st, k, &swap_js, &piv, &mut scratch);
                    continue; // `i` already advanced past the run
                }
                Op2d::Trsm { k, .. } => {
                    // coalesce the run of stage-`k` TRSMs the same way:
                    // the owner row computes them all and multicasts ONE
                    // concatenated payload per run; every other rank
                    // records the batch layout for its update tasks
                    trsm_js.clear();
                    while let Some(Op2d::Trsm { k: k2, j }) = ops.get(i).copied() {
                        if k2 != k {
                            break;
                        }
                        trsm_js.push(j as usize);
                        i += 1;
                    }
                    trsm_columns(
                        &mut ctx,
                        &mut st,
                        k as usize,
                        &trsm_js,
                        &mut caches,
                        &mut pivseqs,
                        &mut stats,
                        &mut scratch,
                    );
                    continue; // `i` already advanced past the run
                }
                Op2d::Update {
                    k,
                    j,
                    seq,
                    deferred,
                    depth,
                } => {
                    let (k, j) = (k as usize, j as usize);
                    debug_assert_eq!(applied[j], seq, "Update({k},{j}) out of stage order");
                    max_depth = max_depth.max(depth);
                    update2d(
                        &mut ctx,
                        &mut st,
                        k,
                        j,
                        deferred,
                        &mut caches,
                        &mut pivseqs,
                        &mut stats,
                        &mut scratch,
                        &clock,
                        &mut intervals,
                    );
                    applied[j] += 1;
                }
                Op2d::Retire { k } => {
                    let k = k as usize;
                    // a rank with no stage-k swaps still received the
                    // stage-row multicast: consume it here so the
                    // pending map drains stage by stage
                    ensure_stage_row(&mut ctx, &st, &mut caches, &mut pivseqs, k, false);
                    // stage k's last consumer has run on this rank: drop
                    // its cached panels so resident bytes never span more
                    // than the in-flight window
                    caches.retire_stage(k);
                    if opts.mode == Sync2d::Barrier {
                        ctx.barrier();
                    }
                }
            }
            i += 1;
        }
        debug_assert!(caches.is_empty(), "panel caches must drain by the end");
        stats.scratch_grow_events = scratch.grow_events();
        stats.scratch_peak_bytes = scratch.peak_bytes();
        ctx.probe()
            .count("scratch_grow_events", stats.scratch_grow_events);
        ctx.probe()
            .gauge_max("panel_cache_bytes_hw", caches.peak_bytes);
        ctx.probe().gauge_max("pipeline_depth_hw", max_depth as u64);
        stats.emit_update_probe(ctx.probe());

        let blocks: Vec<((u32, u32), Vec<f64>)> = st.blocks.into_iter().collect();
        let pivs: Vec<(usize, Vec<u32>)> = pivseqs
            .into_iter()
            .enumerate()
            .filter_map(|(k, p)| p.map(|p| (k, p.as_ref().clone())))
            .collect();
        let cache_bytes = (caches.peak_bytes, caches.inserted_bytes);
        (
            blocks,
            pivs,
            stats,
            ctx.max_pending_bytes,
            intervals,
            cache_bytes,
        )
    };
    let (outs, comm): (Vec<RankOut>, _) = run_machine(grid.nprocs(), &opts.run, spmd);
    let elapsed = t0.elapsed().as_secs_f64();

    // ---- host-side reassembly into packed ColBlock storage ----
    let mut blocks = BlockMatrix::from_csc_filtered(a, pattern.clone(), |_| true);
    // zero it first: we overwrite every stored panel from rank data
    for cb in &mut blocks.cols {
        cb.diag.fill(0.0);
        cb.lpanel.fill(0.0);
        for ub in &mut cb.ublocks {
            ub.panel.fill(0.0);
        }
    }
    let mut pivots: Vec<Vec<u32>> = vec![Vec::new(); nb];
    let mut merged = FactorStats::default();
    let mut peaks = Vec::new();
    let mut cache_peaks = Vec::new();
    let mut cache_inserted = Vec::new();
    let mut all_intervals = Vec::new();
    for (bks, pivs, stats, peak, ivs, (cpeak, cins)) in outs {
        for ((i, j), panel) in bks {
            let (i, j) = (i as usize, j as usize);
            let cb = &mut blocks.cols[j];
            use std::cmp::Ordering::*;
            match i.cmp(&j) {
                Equal => cb.diag.copy_from_slice(&panel),
                Greater => {
                    // locate the segment
                    let seg = cb
                        .lsegs
                        .iter()
                        .find(|s| s.iblock as usize == i)
                        .expect("segment");
                    let (s0, sl) = (seg.start as usize, seg.len as usize);
                    let ld = cb.lrows.len();
                    let w = cb.w as usize;
                    for c in 0..w {
                        cb.lpanel[s0 + c * ld..s0 + sl + c * ld]
                            .copy_from_slice(&panel[c * sl..(c + 1) * sl]);
                    }
                }
                Less => {
                    let ub_idx = cb
                        .ublocks
                        .binary_search_by_key(&(i as u32), |u| u.k)
                        .expect("ublock");
                    cb.ublocks[ub_idx].panel.copy_from_slice(&panel);
                }
            }
        }
        for (k, p) in pivs {
            if pivots[k].is_empty() {
                pivots[k] = p;
            }
        }
        merged.absorb(&stats);
        peaks.push(peak);
        cache_peaks.push(cpeak);
        cache_inserted.push(cins);
        all_intervals.extend(ivs);
    }
    Par2dResult {
        blocks,
        pivots,
        stats: merged,
        elapsed,
        comm,
        peak_buffer_bytes: peaks,
        panel_cache_peak_bytes: cache_peaks,
        panel_cache_inserted_bytes: cache_inserted,
        intervals: all_intervals,
    }
}

/// `Factor(k)` for the 2D code (Fig. 13): cooperative panel factorization
/// by the processors of grid column `k mod p_c`. Returns the pivot
/// sequence (identical on every participating processor).
fn factor2d(
    ctx: &mut ProcCtx,
    st: &mut Store2d,
    k: usize,
    threshold: f64,
    stats: &mut FactorStats,
    scratch: &mut FactorScratch,
) -> Vec<u32> {
    let grid = st.grid;
    let (rno, cno) = (st.rno, st.cno);
    debug_assert_eq!(cno, k % grid.pc);
    let span_start = ctx.probe().now();
    let diag_rno = k % grid.pr;
    let i_am_diag = rno == diag_rno;
    // statistics are counted once per task, on the diagonal owner, so the
    // merged numbers match the sequential code
    if i_am_diag {
        stats.factor_tasks += 1;
    }
    let w = st.width(k);
    let lo = st.lo(k);
    let mut piv_seq: Vec<u32> = Vec::with_capacity(w);
    let mut searched_rows: u64 = 0;

    // owned L blocks of column k (sorted by block id, hence by global row);
    // the id list is staged in the arena's index buffer for the duration
    let mut my_lblocks = std::mem::take(&mut scratch.idx);
    {
        let cap0 = my_lblocks.capacity();
        my_lblocks.clear();
        my_lblocks.extend(
            st.pattern.l_blocks[k]
                .iter()
                .filter(|l| (l.i as usize) % grid.pr == rno)
                .map(|l| l.i),
        );
        if my_lblocks.capacity() > cap0 {
            scratch.grow_events += 1;
        }
    }

    for t in 0..w {
        // ---- local candidate: (abs, is_diag, global row) ----
        let mut cand_row = NONE_ROW;
        let mut cand_abs = -1.0f64;
        let mut cand_diag = false;
        if i_am_diag {
            let p = &st.blocks[&(k as u32, k as u32)];
            searched_rows += (w - t) as u64;
            for r in t..w {
                let a = p[r + t * w].abs();
                if a > cand_abs {
                    cand_abs = a;
                    cand_row = (lo + r) as u32;
                    cand_diag = true;
                }
            }
        }
        for &i in &my_lblocks {
            let i = i as usize;
            let rows = st.l_rows(i, k);
            let p = &st.blocks[&(i as u32, k as u32)];
            searched_rows += rows.len() as u64;
            for (rp, &g) in rows.iter().enumerate() {
                let a = p[rp + t * rows.len()].abs();
                if a > cand_abs {
                    cand_abs = a;
                    cand_row = g;
                    cand_diag = false;
                }
            }
        }

        // the pivot subrow lands in scratch.rowbuf2, the displaced diag
        // row `m` in scratch.rowbuf — no per-step row allocations
        let piv_global = if i_am_diag {
            // collect remote candidates, keeping the best message alive
            // (its payload *is* the candidate subrow)
            let mut best_row = cand_row;
            let mut best_abs = cand_abs.max(0.0);
            let mut best_diag = cand_diag;
            let mut best_msg: Option<Message> = None;
            for _ in 1..grid.pr {
                let m = ctx.recv(tag(K_CAND, k, t, 0));
                let row = m.ints[0];
                if row == NONE_ROW {
                    ctx.recycle(m);
                    continue;
                }
                let a = m.floats[t].abs();
                // comparator: (abs desc, diag pref desc, global row asc);
                // remote candidates are never diag rows.
                let better = a > best_abs
                    || (a == best_abs && !best_diag && (best_row == NONE_ROW || row < best_row));
                if better {
                    best_row = row;
                    best_abs = a;
                    best_diag = false;
                    if let Some(old) = best_msg.replace(m) {
                        ctx.recycle(old);
                    }
                } else {
                    ctx.recycle(m);
                }
            }
            if best_row == NONE_ROW || best_abs <= 0.0 {
                // Typed panic payload: the runtime poison-broadcast wakes
                // blocked peers and the host recovers the `SolverError`
                // via `catch_solver_panic` (see `factor_par2d_with`).
                std::panic::panic_any(crate::error::SolverError::ZeroPivot { step: lo + t });
            }
            // threshold pivoting: keep the diagonal row when close enough
            // to the maximum (the diagonal row lives on this processor)
            let diag_abs = st.blocks[&(k as u32, k as u32)][t + t * w].abs();
            if diag_abs > 0.0 && diag_abs >= threshold * best_abs {
                best_row = (lo + t) as u32;
                if let Some(m) = best_msg.take() {
                    ctx.recycle(m);
                }
            }
            // old row m (diag row t)
            prep_zeroed_f64(&mut scratch.rowbuf, w, &mut scratch.grow_events);
            st.read_row_into(k, k, lo + t, &mut scratch.rowbuf);
            prep_zeroed_f64(&mut scratch.rowbuf2, w, &mut scratch.grow_events);
            match &best_msg {
                Some(m) => scratch.rowbuf2.copy_from_slice(&m.floats[..w]),
                None => {
                    let ib = st.block_of[best_row as usize] as usize;
                    st.read_row_into(ib, k, best_row as usize, &mut scratch.rowbuf2);
                }
            }
            if let Some(m) = best_msg.take() {
                ctx.recycle(m);
            }
            // broadcast pivot decision + both subrows down the column
            let mut floats = ctx.floats_buf();
            floats.extend_from_slice(&scratch.rowbuf2);
            floats.extend_from_slice(&scratch.rowbuf);
            let mut ints = ctx.ints_buf();
            ints.push(best_row);
            ctx.multicast(
                grid.my_col(ctx.rank),
                Message::new(tag(K_PIVROW, k, t, 0), ints, floats),
            );
            best_row as usize
        } else {
            // ship local candidate subrow to the diag owner
            let mut floats = ctx.floats_buf();
            if cand_row != NONE_ROW {
                floats.resize(w, 0.0);
                let ib = st.block_of[cand_row as usize] as usize;
                st.read_row_into(ib, k, cand_row as usize, &mut floats);
            }
            let mut ints = ctx.ints_buf();
            ints.push(cand_row);
            ctx.send(
                grid.rank_of(diag_rno, cno),
                Message::new(tag(K_CAND, k, t, 0), ints, floats),
            );
            let m = ctx.recv(tag(K_PIVROW, k, t, 0));
            let piv = m.ints[0] as usize;
            prep_cap(&mut scratch.rowbuf2, w, &mut scratch.grow_events);
            scratch.rowbuf2.extend_from_slice(&m.floats[..w]);
            prep_cap(&mut scratch.rowbuf, w, &mut scratch.grow_events);
            scratch.rowbuf.extend_from_slice(&m.floats[w..2 * w]);
            ctx.recycle(m);
            piv
        };
        let (piv_subrow, old_m_subrow) = (&scratch.rowbuf2, &scratch.rowbuf);

        // ---- apply the interchange to owned storage ----
        let row_m = lo + t;
        if piv_global != row_m {
            if i_am_diag {
                stats.row_interchanges += 1;
            }
            if i_am_diag {
                st.write_row_full(k, row_m, piv_subrow);
            }
            if st.owns_row(k, piv_global).is_some() {
                st.write_row_full(k, piv_global, old_m_subrow);
            }
        }
        piv_seq.push(piv_global as u32);

        // ---- scale + rank-1 update of owned rows ----
        let pv = piv_subrow[t];
        if i_am_diag {
            let p = st.blocks.get_mut(&(k as u32, k as u32)).unwrap();
            for r in (t + 1)..w {
                p[r + t * w] /= pv;
            }
            for c in (t + 1)..w {
                let u = piv_subrow[c];
                if u != 0.0 {
                    for r in (t + 1)..w {
                        let l = p[r + t * w];
                        p[r + c * w] -= l * u;
                    }
                }
            }
            stats.other_flops += ((w - t - 1) + 2 * (w - t - 1) * (w - t - 1)) as u64;
        }
        for &i in &my_lblocks {
            let i = i as usize;
            let nrows = st.l_rows(i, k).len();
            let p = st.blocks.get_mut(&(i as u32, k as u32)).unwrap();
            for r in 0..nrows {
                p[r + t * nrows] /= pv;
            }
            for c in (t + 1)..w {
                let u = piv_subrow[c];
                if u != 0.0 {
                    for r in 0..nrows {
                        let l = p[r + t * nrows];
                        p[r + c * nrows] -= l * u;
                    }
                }
            }
            stats.other_flops += (nrows + 2 * nrows * (w - t - 1)) as u64;
        }
    }

    // ---- ONE row multicast per stage: pivot sequence + diagonal +
    // every owned L block, concatenated. The receivers (same block
    // rows, other grid columns) recover the layout from the shared
    // pattern, so no per-segment messages — and no per-segment
    // message-passing overhead — are needed (`ensure_stage_row`).
    let mut ints = ctx.ints_buf();
    ints.extend_from_slice(&piv_seq);
    let mut p = ctx.floats_buf();
    if i_am_diag {
        p.extend_from_slice(&st.blocks[&(k as u32, k as u32)]);
    }
    for &i in &my_lblocks {
        p.extend_from_slice(&st.blocks[&(i, k as u32)]);
    }
    ctx.multicast(
        grid.my_row(ctx.rank),
        Message::new(tag(K_LPANEL, k, 0, 0), ints, p),
    );
    scratch.idx = my_lblocks;
    ctx.probe().count("pivot_search_rows", searched_rows);
    ctx.probe().span_at("panel-factor", k as u32, span_start);
    piv_seq
}

/// Consume stage `k`'s row multicast if this rank has not yet: ranks of
/// the factoring grid column produced everything locally in [`factor2d`]
/// (the `pivseqs[k]` guard); every other rank receives ONE message from
/// the factoring rank of its grid row carrying the pivot sequence plus
/// the concatenated diagonal / `L` segment panels, whose layout both
/// sides derive from the shared pattern. The slices are registered in
/// `caches` under the same `(k, i)` keys the update tasks look up. The
/// executor calls this lazily at the first `Swap(k, ·)`, [`update2d`]
/// try-first (`try_first` reports whether the wait blocked), and
/// `Retire(k)` force-consumes so the pending map drains stage by stage.
fn ensure_stage_row(
    ctx: &mut ProcCtx,
    st: &Store2d,
    caches: &mut PanelCaches,
    pivseqs: &mut [Option<Arc<Vec<u32>>>],
    k: usize,
    try_first: bool,
) -> bool {
    if pivseqs[k].is_some() {
        return false;
    }
    let t = tag(K_LPANEL, k, 0, 0);
    let mut blocked = !try_first;
    let m = if try_first {
        ctx.try_recv(t).unwrap_or_else(|| {
            blocked = true;
            ctx.recv(t)
        })
    } else {
        ctx.recv(t)
    };
    pivseqs[k] = Some(m.ints.clone());
    caches.account_insert(k, m.nbytes());
    let fl = m.floats.clone();
    let grid = st.grid;
    let wk = st.width(k);
    let mut off = 0usize;
    // the sender shares this rank's grid row, so the payload holds
    // exactly this row's diagonal / `L` segments
    if st.rno == k % grid.pr {
        caches.lpanels.insert((k, k), (fl.clone(), off, wk * wk));
        off += wk * wk;
    }
    for l in &st.pattern.l_blocks[k] {
        if (l.i as usize) % grid.pr == st.rno {
            let len = l.rows.len() * wk;
            caches
                .lpanels
                .insert((k, l.i as usize), (fl.clone(), off, len));
            off += len;
        }
    }
    debug_assert_eq!(off, fl.len(), "stage-row payload layout mismatch");
    ctx.recycle(m);
    blocked
}

/// Stage-`k` delayed row interchanges across a batch of owned column
/// blocks (Fig. 14's ScaleSwap, stage-batched): every rank of the grid
/// column walks the same `(t)` order; an interchange whose two rows live
/// on different block-row owners exchanges **one** message covering
/// every column of the batch rather than one per column — the schedule
/// emits a draining stage's swaps back-to-back exactly so they coalesce
/// here, collapsing the per-column lockstep points into one per pivot.
/// Both sides pack/unpack in batch-column order with existence flags
/// computed from the shared pattern, so the layouts agree by
/// construction.
fn swap_columns(
    ctx: &mut ProcCtx,
    st: &mut Store2d,
    k: usize,
    js: &[usize],
    piv: &Arc<Vec<u32>>,
    scratch: &mut FactorScratch,
) {
    let grid = st.grid;
    let cno = st.cno;
    debug_assert!(js.iter().all(|&j| j % grid.pc == cno));
    let lo = st.lo(k);
    let swap_start = ctx.probe().now();
    // the batch's first column disambiguates the message tag: a column
    // belongs to exactly one stage-`k` batch, and every rank of the grid
    // column replays the same schedule, so both sides derive the same id
    let batch_id = js[0];
    for (t, &pg) in piv.iter().enumerate() {
        let row_m = lo + t;
        let pg = pg as usize;
        if pg == row_m {
            continue;
        }
        let ib_m = k; // row m lives in row block k
        let ib_r = st.block_of[pg] as usize;
        // block ownership is uniform across the batch: every column sits
        // in this grid column
        let own_m = st.owns_block(ib_m, js[0]);
        let own_r = st.owns_block(ib_r, js[0]);
        if own_m && own_r {
            for &j in js {
                let wj = st.width(j);
                let m_exists = st.block_exists(ib_m, j);
                let r_exists = st.block_exists(ib_r, j);
                // local swap via full-width rows staged in the arena
                prep_zeroed_f64(&mut scratch.rowbuf, wj, &mut scratch.grow_events);
                if m_exists {
                    st.read_row_into(ib_m, j, row_m, &mut scratch.rowbuf);
                }
                prep_zeroed_f64(&mut scratch.rowbuf2, wj, &mut scratch.grow_events);
                if r_exists {
                    st.read_row_into(ib_r, j, pg, &mut scratch.rowbuf2);
                }
                if m_exists {
                    st.write_row_full(j, row_m, &scratch.rowbuf2);
                } else {
                    debug_assert!(scratch.rowbuf2.iter().all(|&v| v == 0.0));
                }
                if r_exists {
                    st.write_row_full(j, pg, &scratch.rowbuf);
                } else {
                    debug_assert!(scratch.rowbuf.iter().all(|&v| v == 0.0));
                }
            }
            continue;
        }
        if !own_m && !own_r {
            continue;
        }
        // one side of a pairwise exchange: I hold exactly one of the rows
        let (my_ib, my_row, peer_ib) = if own_m {
            (ib_m, row_m, ib_r)
        } else {
            (ib_r, pg, ib_m)
        };
        let partner = grid.rank_of(peer_ib % grid.pr, cno);
        if js.iter().any(|&j| st.block_exists(my_ib, j)) {
            // pack my row's pieces for every batch column that has it
            let mut buf = ctx.floats_buf();
            for &j in js {
                if st.block_exists(my_ib, j) {
                    let wj = st.width(j);
                    prep_zeroed_f64(&mut scratch.rowbuf, wj, &mut scratch.grow_events);
                    st.read_row_into(my_ib, j, my_row, &mut scratch.rowbuf);
                    buf.extend_from_slice(&scratch.rowbuf);
                }
            }
            let ints = ctx.ints_buf();
            ctx.send(
                partner,
                Message::new(tag(K_SWAP, k, t, batch_id), ints, buf),
            );
        }
        if js.iter().any(|&j| st.block_exists(peer_ib, j)) {
            let m = ctx.recv(tag(K_SWAP, k, t, batch_id));
            let mut off = 0usize;
            for &j in js {
                if !st.block_exists(peer_ib, j) {
                    continue;
                }
                let wj = st.width(j);
                let piece = &m.floats[off..off + wj];
                if st.block_exists(my_ib, j) {
                    st.write_row_full(j, my_row, piece);
                } else {
                    debug_assert!(piece.iter().all(|&v| v == 0.0));
                }
                off += wj;
            }
            debug_assert_eq!(off, m.floats.len(), "swap batch layout mismatch");
            ctx.recycle(m);
        }
        // a column where only my row exists: the peer holds nothing, so
        // the interchange must be a no-op — my row is structurally zero
        #[cfg(debug_assertions)]
        for &j in js {
            if st.block_exists(my_ib, j) && !st.block_exists(peer_ib, j) {
                prep_zeroed_f64(&mut scratch.rowbuf, st.width(j), &mut scratch.grow_events);
                st.read_row_into(my_ib, j, my_row, &mut scratch.rowbuf);
                debug_assert!(scratch.rowbuf.iter().all(|&v| v == 0.0));
            }
        }
    }
    ctx.probe().span_at("row-swap", k as u32, swap_start);
}

/// TRSM `U_kj ← L_kk⁻¹ U_kj` over a schedule run of columns, plus ONE
/// column multicast of the run's concatenated results (the batched
/// scale phase of Fig. 14). The rank owning block row `k` computes and
/// sends; every other rank records where each `(k, j)` lands in the
/// batch payload — both sides replay the same schedule, so the run
/// membership, its order, and the derived `batch_id` (the run's first
/// column) agree by construction. `L_kk` is staged once per stage into
/// the arena's per-in-flight-stage slot, so chains of several
/// interleaved stages don't clobber each other's diagonal panel.
#[allow(clippy::too_many_arguments)]
fn trsm_columns(
    ctx: &mut ProcCtx,
    st: &mut Store2d,
    k: usize,
    js: &[usize],
    caches: &mut PanelCaches,
    pivseqs: &mut [Option<Arc<Vec<u32>>>],
    stats: &mut FactorStats,
    scratch: &mut FactorScratch,
) {
    let grid = st.grid;
    let w = st.width(k);
    let batch_id = js[0];
    // ownership of `(k, j)` is uniform across the batch
    if !st.owns_block(k, js[0]) {
        let mut off = 0usize;
        for &j in js {
            let len = w * st.u_cols(k, j).len();
            caches.urow_layout.insert((k, j), (batch_id, off, len));
            off += len;
        }
        return;
    }
    let span_start = ctx.probe().now();
    let diag_key = (k as u32, k as u32);
    let lkk: &[f64] = if st.blocks.contains_key(&diag_key) {
        let blocks = &st.blocks;
        scratch.stage_panel(k, w * w, |buf| buf.extend_from_slice(&blocks[&diag_key]))
    } else {
        // my diagonal copy rides my stage-row multicast (offset 0)
        ensure_stage_row(ctx, st, caches, pivseqs, k, false);
        let (fl, off, len) = &caches.lpanels[&(k, k)];
        let (fl, off, len) = (fl.clone(), *off, *len);
        scratch.stage_panel(k, w * w, |buf| buf.extend_from_slice(&fl[off..off + len]))
    };
    let mut fl = ctx.floats_buf();
    for &j in js {
        let ncols = st.u_cols(k, j).len();
        let p = st.blocks.get_mut(&(k as u32, j as u32)).unwrap();
        dtrsm_left_lower_unit(w, ncols, lkk, w, p, w);
        stats.other_flops += (w * w * ncols) as u64;
        fl.extend_from_slice(p);
    }
    let ints = ctx.ints_buf();
    let msg = Message::new(tag(K_UROW, k, batch_id, 0), ints, fl);
    ctx.multicast(grid.my_col(ctx.rank), msg);
    ctx.probe().span_at("scale-swap", k as u32, span_start);
}

/// The owned blocks of one column block as update destinations.
struct Dest2d<'a> {
    blocks: &'a mut HashMap<(u32, u32), Vec<f64>>,
    pattern: &'a BlockPattern,
}

impl UpdateDest for Dest2d<'_> {
    fn block(&mut self, i: usize, j: usize) -> Option<(&mut [f64], usize)> {
        use std::cmp::Ordering::*;
        let ld = match i.cmp(&j) {
            Equal => self.pattern.part.width(j),
            Greater => self.pattern.l_block(i, j)?.rows.len(),
            Less => self
                .pattern
                .u_block(i, j)
                .map(|_| self.pattern.part.width(i))?,
        };
        let b = self.blocks.get_mut(&(i as u32, j as u32));
        Some((b.expect("destination block is owned"), ld))
    }
}

/// `Update2D(k, j)` (Fig. 15): update owned blocks `A_ij` using `L_ik`
/// (row multicast) and `U_kj` (column multicast) through the shared
/// update routine (`crate::update`): the segments are read in place
/// from owned blocks or multicast payloads, and each product lands in its
/// destination through the pattern's precomputed maps.
///
/// `deferred` marks updates the lookahead executor pushed behind a later
/// panel factorization (depth > 1). Operand acquisition is try-first:
/// when every remote operand already sits in the mailbox the task counts
/// as a `lookahead_hit`; a blocking wait on a *critical-path* (non-
/// deferred) update is charged to `panel_wait_secs`, the stall the
/// lookahead window exists to hide.
#[allow(clippy::too_many_arguments)]
fn update2d(
    ctx: &mut ProcCtx,
    st: &mut Store2d,
    k: usize,
    j: usize,
    deferred: bool,
    caches: &mut PanelCaches,
    pivseqs: &mut [Option<Arc<Vec<u32>>>],
    stats: &mut FactorStats,
    scratch: &mut FactorScratch,
    clock: &AtomicU64,
    intervals: &mut Vec<UpdateInterval>,
) {
    let grid = st.grid;
    let (rno, cno) = (st.rno, st.cno);
    debug_assert_eq!(cno, j % grid.pc);
    // counted once per task, on the owner of `U_kj` (every rank of the
    // destination's grid column runs its share), so the merged numbers
    // match the sequential code
    if st.owns_block(k, j) {
        stats.update_tasks += 1;
    }

    // my destination row blocks: L rows of column k in row blocks ≡ rno.
    // The segment metadata is borrowed straight from the shared pattern
    // (via a local Arc handle), so no per-task copies are made; `li` is
    // the segment's position in `l_blocks[k]`, the scatter-map key.
    let pattern = st.pattern.clone();
    let mine = |li: usize| pattern.l_blocks[k][li].i as usize % grid.pr == rno;
    if !(0..pattern.l_blocks[k].len()).any(mine) {
        let start = clock.fetch_add(1, Ordering::Relaxed);
        let end = clock.fetch_add(1, Ordering::Relaxed);
        intervals.push(UpdateInterval {
            stage: k as u32,
            proc_col: cno as u32,
            start,
            end,
        });
        return;
    }

    // gather remote inputs before opening the interval: Theorem 2 bounds
    // the stages simultaneously *in processing*, so the recorded interval
    // must cover the update's compute, not the blocking waits for its
    // operands (which would stretch it across arbitrarily many ticks on
    // an oversubscribed host). Try-first so a fully-arrived operand set
    // counts as a lookahead hit rather than a stall.
    let t_wait = std::time::Instant::now();
    let mut blocked = false;
    if !st.owns_block(k, j) {
        // the layout entry was recorded when the run's Trsm ops replayed
        let (bid, _, _) = caches.urow_layout[&(k, j)];
        if !caches.urow_batches.contains_key(&(k, bid)) {
            let t = tag(K_UROW, k, bid, 0);
            let m = ctx.try_recv(t).unwrap_or_else(|| {
                blocked = true;
                ctx.recv(t)
            });
            caches.insert_urow_batch(k, bid, &m);
            ctx.recycle(m);
        }
    }
    if !st.owns_col_panel(k) {
        blocked |= ensure_stage_row(ctx, st, caches, pivseqs, k, true);
    }
    let waited = t_wait.elapsed().as_secs_f64();
    stats.update_wait_secs += waited;
    if blocked {
        if !deferred {
            stats.panel_wait_secs += waited;
        }
    } else {
        stats.lookahead_hits += 1;
    }
    if deferred {
        stats.deferred_updates += 1;
    }
    let span_start = ctx.probe().now();
    let start = clock.fetch_add(1, Ordering::Relaxed);

    // U_kj: local if I own it, else a slice of the batched column
    // multicast from (k mod pr, cno) — read in place, no per-task copy.
    let uj = pattern.u_blocks[k]
        .binary_search_by_key(&(j as u32), |u| u.j)
        .expect("U block in pattern");
    stats.scatter_map_reuse_hits += 1;
    let u_batch; // keeps the batch payload alive through the gather
    let usrc: &[f64] = if st.owns_block(k, j) {
        &st.blocks[&(k as u32, j as u32)]
    } else {
        let (bid, off, len) = caches.urow_layout[&(k, j)];
        u_batch = caches.urow_batches[&(k, bid)].clone();
        &u_batch[off..off + len]
    };

    let task = UpdateTask {
        pattern: &pattern,
        k,
        j,
        uj,
        mine: &mine,
    };
    // L_ik: an owned block of the panel column, or a slice of the stage-row
    // multicast — read in place (the pack holds this update's copies)
    let mut lpack = std::mem::take(&mut scratch.lpack);
    lpack.reset(pattern.l_blocks[k].len());
    let started = {
        let (blocks, lpanels) = (&st.blocks, &caches.lpanels);
        let local = st.owns_col_panel(k);
        let seg = |li: usize| -> (&[f64], usize) {
            let l = &pattern.l_blocks[k][li];
            let block: &[f64] = if local {
                &blocks[&(l.i, k as u32)]
            } else {
                let (fl, off, len) = &lpanels[&(k, l.i as usize)];
                &fl[*off..*off + *len]
            };
            (block, l.rows.len())
        };
        let src = LSource {
            seg: &seg,
            stacked: false,
        };
        update::gather(&task, &src, usrc, &mut lpack, stats, scratch)
    };
    let mut dest = Dest2d {
        blocks: &mut st.blocks,
        pattern: &pattern,
    };
    update::apply(&task, started, &lpack, &mut dest, stats, scratch);
    scratch.lpack = lpack;
    ctx.probe().span_at("update", k as u32, span_start);
    let end = clock.fetch_add(1, Ordering::Relaxed);
    intervals.push(UpdateInterval {
        stage: k as u32,
        proc_col: cno as u32,
        start,
        end,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::factor_sequential;
    use crate::solve::solve_factored;
    use splu_sparse::gen::{self, ValueModel};
    use splu_symbolic::{amalgamate, partition_supernodes, static_symbolic_factorization};

    fn pattern_for(a: &splu_sparse::CscMatrix, r: usize, bsize: usize) -> Arc<BlockPattern> {
        let s = static_symbolic_factorization(a);
        let base = partition_supernodes(&s, bsize);
        let part = amalgamate(&s, &base, r, bsize);
        Arc::new(BlockPattern::build(&s, &part))
    }

    fn factor_stages(
        a: &splu_sparse::CscMatrix,
        pattern: Arc<BlockPattern>,
        grid: Grid,
        mode: Sync2d,
        window: usize,
    ) -> Par2dResult {
        let opts = Par2dOptions {
            mode,
            window,
            ..Par2dOptions::default()
        };
        factor_par2d_with(a, pattern, grid, &opts).unwrap()
    }

    fn check_matches_sequential(a: &splu_sparse::CscMatrix, grid: Grid, mode: Sync2d) {
        let pattern = pattern_for(a, 4, 6);
        let mut seq = BlockMatrix::from_csc(a, pattern.clone());
        let (piv_seq, _) = factor_sequential(&mut seq).unwrap();
        let par = factor_par2d(a, pattern, grid, mode);
        assert_eq!(par.pivots, piv_seq, "pivot sequences must match");
        let n = a.ncols();
        for i in 0..n {
            for j in 0..n {
                let s = seq.get_entry(i, j);
                let p = par.blocks.get_entry(i, j);
                assert!(
                    s == p,
                    "entry ({i},{j}): sequential {s} vs 2D {p} (grid {}x{})",
                    grid.pr,
                    grid.pc
                );
            }
        }
    }

    #[test]
    fn matches_sequential_1x1() {
        let a = gen::grid2d(6, 6, 0.4, ValueModel::default());
        check_matches_sequential(&a, Grid::new(1, 1), Sync2d::Async);
    }

    #[test]
    fn matches_sequential_various_grids_async() {
        let a = gen::grid2d(6, 6, 0.4, ValueModel::default());
        for (pr, pc) in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)] {
            check_matches_sequential(&a, Grid::new(pr, pc), Sync2d::Async);
        }
    }

    #[test]
    fn matches_sequential_barrier_mode() {
        let a = gen::grid2d(6, 6, 0.4, ValueModel::default());
        check_matches_sequential(&a, Grid::new(2, 2), Sync2d::Barrier);
    }

    #[test]
    fn random_matrix_2d_solve() {
        let a = gen::random_sparse(80, 4, 0.5, ValueModel::default());
        let pattern = pattern_for(&a, 4, 8);
        let par = factor_par2d(&a, pattern, Grid::new(2, 2), Sync2d::Async);
        let n = a.ncols();
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let b = a.matvec(&xt);
        let x = solve_factored(&par.blocks, &par.pivots, &b);
        let err = x
            .iter()
            .zip(&xt)
            .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
        assert!(err < 1e-7, "solve error {err}");
    }

    #[test]
    fn overlap_degree_respects_theorem2_bound() {
        // the paper's bound holds for the in-order schedule (W = 0)
        let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
        let pattern = pattern_for(&a, 4, 4);
        let grid = Grid::new(2, 3);
        let par = factor_stages(&a, pattern, grid, Sync2d::Async, 0);
        let d = par.overlap_degree();
        assert!(
            d as usize <= grid.pc,
            "overlap degree {d} exceeds Theorem 2 bound p_c = {}",
            grid.pc
        );
    }

    #[test]
    fn overlap_degree_respects_window_generalized_bound() {
        // with lookahead the Theorem 2 bound relaxes to p_c + W: the
        // window admits at most W extra unretired stages per column
        let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
        let grid = Grid::new(2, 3);
        for w in [1usize, 2, 4] {
            let pattern = pattern_for(&a, 4, 4);
            let par = factor_stages(&a, pattern, grid, Sync2d::Async, w);
            let d = par.overlap_degree();
            assert!(
                d as usize <= grid.pc + w,
                "overlap degree {d} exceeds generalized bound p_c + W = {}",
                grid.pc + w
            );
        }
    }

    #[test]
    fn barrier_mode_has_zero_stage_overlap() {
        // W = 0 barrier mode: a barrier after every stage ⇒ no overlap
        let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
        let pattern = pattern_for(&a, 4, 4);
        let par = factor_stages(&a, pattern, Grid::new(2, 2), Sync2d::Barrier, 0);
        assert_eq!(par.overlap_degree(), 0);
    }

    #[test]
    fn barrier_mode_overlap_bounded_by_window() {
        // the per-retired-stage barrier lets at most W stages overlap
        let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
        for w in [1usize, 2, 4] {
            let pattern = pattern_for(&a, 4, 4);
            let par = factor_stages(&a, pattern, Grid::new(2, 2), Sync2d::Barrier, w);
            let d = par.overlap_degree();
            assert!(
                d as usize <= w,
                "barrier-mode overlap degree {d} exceeds window {w}"
            );
        }
    }

    #[test]
    fn sustained_depth_never_exceeds_max_overlap() {
        let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
        let pattern = pattern_for(&a, 4, 4);
        let par = factor_stages(&a, pattern, Grid::new(2, 2), Sync2d::Async, 2);
        let p95 = par.sustained_depth_p95();
        assert!(p95 >= 1, "a busy run has at least one in-flight stage");
        // d concurrent distinct stages span a stage range of ≥ d − 1
        assert!(
            p95 <= par.overlap_degree() + 1,
            "p95 depth {p95} exceeds max concurrent stages {}",
            par.overlap_degree() + 1
        );
    }

    #[test]
    fn stats_match_sequential_counts() {
        // cooperative Factor2d and Update2d must not multi-count tasks or
        // interchanges across the p_r processors of a grid column
        let a = gen::grid2d(7, 7, 0.4, ValueModel::default());
        let pattern = pattern_for(&a, 4, 6);
        let mut seq = BlockMatrix::from_csc(&a, pattern.clone());
        let (_, seq_stats) = factor_sequential(&mut seq).unwrap();
        for (pr, pc) in [(1, 2), (2, 2), (3, 2)] {
            let par = factor_par2d(&a, pattern.clone(), Grid::new(pr, pc), Sync2d::Async);
            let label = format!("{pr}x{pc}");
            assert_eq!(par.stats.factor_tasks, seq_stats.factor_tasks, "{label}");
            assert_eq!(par.stats.update_tasks, seq_stats.update_tasks, "{label}");
            assert_eq!(
                par.stats.row_interchanges, seq_stats.row_interchanges,
                "{label}"
            );
        }
    }

    #[test]
    fn communication_volume_counted() {
        let a = gen::grid2d(7, 7, 0.3, ValueModel::default());
        let pattern = pattern_for(&a, 4, 6);
        let par = factor_par2d(&a, pattern, Grid::new(2, 2), Sync2d::Async);
        assert!(par.comm.0 > 0);
        assert_eq!(par.peak_buffer_bytes.len(), 4);
    }
}
