//! 2D block-cyclic asynchronous sparse LU (§4.3, §5.2, Figs. 12–15).
//!
//! Processors form a `p_r × p_c` grid; block `A_ij` lives on
//! `P_{i mod p_r, j mod p_c}`. A single `Factor(k)` is parallelized over
//! the `p_r` processors of one grid column (distributed pivot search with
//! subrow exchange), and a single update stage over all processors.
//!
//! This is the one 2D engine: a **stage-pipelined lookahead executor**.
//! Every rank of a grid column replays the deterministic operation list
//! that [`lookahead_schedule`] reads from the block pattern — the paper's
//! Fig. 10/11 priority policy on the real thread machine. With window `W`
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
use crate::lookahead::{lookahead_schedule, Op2d};
use crate::scratch::{prep_cap, prep_zeroed_f64, FactorScratch};
use crate::seq::FactorStats;
use crate::storage::{BlockMatrix, ColBlock};
use crate::update::{self, UpdateTask};
use splu_kernels::dtrsm_left_lower_unit;
use splu_machine::{run_machine, Grid, Message, ProcCtx, RunOptions};
use splu_symbolic::BlockPattern;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
const K_RETIRE: u64 = 6;

fn tag(kind: u64, k: usize, x: usize, y: usize) -> u64 {
    debug_assert!(k < 1 << 20 && x < 1 << 20 && y < 1 << 20);
    (kind << 60) | ((k as u64) << 40) | ((x as u64) << 20) | y as u64
}

const NONE_ROW: u32 = u32::MAX;

/// Stage id of an empty [`PanelCaches`] slot.
const NO_STAGE: usize = usize::MAX;

/// Receive `t`, trying the mailbox first; the flag says whether the
/// receive had to block.
fn recv_try_first(ctx: &mut ProcCtx, t: u64) -> (Message, bool) {
    match ctx.try_recv(t) {
        Some(m) => (m, false),
        None => (ctx.recv(t), true),
    }
}

/// One processor's share of the block matrix for the 2D block-cyclic
/// mapping (DESIGN §5): the host's column-block layout restricted to the
/// block rows `i ≡ rno (mod p_r)`, with panels in the block columns
/// `j ≡ cno (mod p_c)` ([`BlockMatrix::from_csc_blocks`]). An owned
/// column keeps its diagonal (on the owner of row block `j`), this rank's
/// `L` segments stacked in one panel, and its `U` blocks; every offset
/// comes from the pattern. An unowned column keeps the same layout's
/// metadata, which is the layout of the stage-row multicast a rank of
/// this grid row sends for it.
///
/// On a `1 × P` grid an owned column is the whole column, and the host
/// fills them all ([`host_columns`]); the rank takes the metadata of the
/// others from the pattern's layout.
struct Store2d {
    grid: Grid,
    rno: usize,
    cno: usize,
    m: BlockMatrix,
}

impl Store2d {
    /// Rank `rank`'s share: the columns the host dealt it, or its blocks
    /// of `a`.
    fn new(
        source: Result<Dealt, &splu_sparse::CscMatrix>,
        pattern: Arc<BlockPattern>,
        grid: Grid,
        rank: usize,
    ) -> Self {
        let (rno, cno) = grid.coords_of(rank);
        let m = match source {
            Ok(columns) => {
                let mut m =
                    BlockMatrix::zeroed(pattern.clone(), pattern.layout(), |_| (false, false));
                for (j, col) in columns {
                    m.cols[j] = col;
                }
                m
            }
            Err(a) => BlockMatrix::from_csc_blocks(
                a,
                pattern,
                |i| i % grid.pr == rno,
                |j| j % grid.pc == cno,
            ),
        };
        Self { grid, rno, cno, m }
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
        self.m.pattern.part.start(b)
    }

    fn width(&self, b: usize) -> usize {
        self.m.pattern.part.width(b)
    }

    fn block_exists(&self, ib: usize, j: usize) -> bool {
        use std::cmp::Ordering::*;
        let pattern = &self.m.pattern;
        match ib.cmp(&j) {
            Equal => true,
            Greater => pattern.l_block(ib, j).is_some(),
            Less => pattern.u_block(ib, j).is_some(),
        }
    }

    /// Offset of the stacked `L` panel in stage `k`'s row multicast: the
    /// sender leads with the diagonal when its grid row owns row block `k`.
    fn row_lpanel_offset(&self, k: usize) -> usize {
        if k % self.grid.pr == self.rno {
            self.width(k) * self.width(k)
        } else {
            0
        }
    }
}

/// Stage `k`'s received multicasts on one rank.
#[derive(Default)]
struct StageCache {
    /// The stage-row multicast's payload: the diagonal (when this grid row
    /// owns row block `k`), then the sender's stacked `L` panel.
    row: Option<Arc<Vec<f64>>>,
    /// Where each `U_kj` (by position in `pattern.u_blocks[k]`) sits in
    /// the stage's TRSM batches: `(batch, offset)`.
    ulayout: Vec<(usize, usize)>,
    /// The stage's TRSM batches: the run's first column (its tag id) and
    /// the payload once received.
    ubatches: Vec<(usize, Option<Arc<Vec<f64>>>)>,
    /// Bytes accounted to the stage, repaid at retirement.
    bytes: u64,
}

/// Caches of received *batched* multicast payloads, one slot per
/// in-flight stage.
///
/// Stage `k`'s row multicast arrives as **one** message per sender (pivot
/// sequence + diagonal + the sender's stacked `L` panel); TRSM'd `U_kj`
/// row blocks arrive batched — one column multicast per schedule run,
/// with a per-`U_kj` layout recorded when the run's `Trsm` ops replay.
/// Slot `k mod slots` holds stage `k` from its first entry until the
/// executor's `Retire(k)`, after its last consumer: the schedule keeps at
/// most `W + 1` stages in flight per grid column, so `W + 1` slots never
/// collide, and resident bytes stay bounded by the in-flight window's
/// working set instead of growing over the whole factorization (the
/// evict-never volume is still visible as [`PanelCaches::inserted_bytes`]).
struct PanelCaches {
    /// Each slot's occupying stage ([`NO_STAGE`] for none) and entries.
    slots: Vec<(usize, StageCache)>,
    resident_bytes: u64,
    peak_bytes: u64,
    inserted_bytes: u64,
}

impl PanelCaches {
    fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots)
                .map(|_| (NO_STAGE, StageCache::default()))
                .collect(),
            resident_bytes: 0,
            peak_bytes: 0,
            inserted_bytes: 0,
        }
    }

    /// Stage `k`'s entries, claiming its slot on first use.
    fn stage(&mut self, k: usize) -> &mut StageCache {
        let n = self.slots.len();
        let (id, c) = &mut self.slots[k % n];
        if *id != k {
            debug_assert_eq!(*id, NO_STAGE, "stage {k} reuses an unretired cache slot");
            *id = k;
        }
        c
    }

    /// Keep `m`'s payload for stage `k`, accounting its bytes.
    fn insert(&mut self, k: usize, m: &Message) -> Arc<Vec<f64>> {
        self.inserted_bytes += m.nbytes();
        self.resident_bytes += m.nbytes();
        self.peak_bytes = self.peak_bytes.max(self.resident_bytes);
        self.stage(k).bytes += m.nbytes();
        m.floats.clone()
    }

    /// Retire every stage-`k` entry (its last consumer has completed).
    /// Payload `Arc`s drop here; a sole-holder drop frees the buffer.
    fn retire_stage(&mut self, k: usize) {
        let n = self.slots.len();
        let (id, c) = &mut self.slots[k % n];
        if *id == k {
            self.resident_bytes -= c.bytes;
            c.row = None;
            c.ulayout.clear();
            c.ubatches.clear();
            c.bytes = 0;
            *id = NO_STAGE;
        }
    }

    fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.0 == NO_STAGE)
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
    /// Test hook: rank `.0` sleeps `.1` inside each of its updates, a
    /// slow or preempted processor, so that a lost stage dependency
    /// breaks Theorem 2's bounds on every run instead of under host load.
    #[cfg(test)]
    pub(crate) stall: Option<(usize, std::time::Duration)>,
}

impl Default for Par2dOptions<'_> {
    fn default() -> Self {
        Self {
            run: RunOptions::default(),
            mode: Sync2d::Async,
            threshold: 1.0,
            window: DEFAULT_LOOKAHEAD,
            #[cfg(test)]
            stall: None,
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
    factor_par2d_reusing(
        Input::Csc(a),
        pattern,
        grid,
        opts,
        &mut FactorScratch::new(),
    )
}

/// The matrix a 2D run factors.
pub(crate) enum Input<'a> {
    /// The preprocessed matrix: on a `1 × P` grid the host fills the
    /// whole storage from it ([`BlockMatrix::from_csc`]), on other grids
    /// each rank fills its share.
    Csc(&'a splu_sparse::CscMatrix),
    /// The whole storage, already filled (`1 × P` grids only), and the
    /// entry count of the matrix filled in.
    Filled(BlockMatrix, usize),
}

/// [`factor_par2d_with`] with the plan ([`Plan2d`]) kept in `scratch`: it
/// is built on the first call and reused while the pattern (by identity),
/// grid and window stay the same, so a warmed call rebuilds no schedule
/// and grows no arena.
pub(crate) fn factor_par2d_reusing(
    input: Input,
    pattern: Arc<BlockPattern>,
    grid: Grid,
    opts: &Par2dOptions,
    scratch: &mut FactorScratch,
) -> Result<Par2dResult, SolverError> {
    let cache = scratch.pattern_cache(&pattern);
    let fits = |p: &Plan2d| p.grid == grid && p.window == opts.window;
    if !cache.plan2d.as_ref().is_some_and(fits) {
        cache.plan2d = Some(Plan2d::build(pattern, grid, opts.window));
    }
    let plan = cache.plan2d.as_ref().expect("plan built above");
    catch_solver_panic(|| factor2d_grid(input, plan, opts))
}

/// The value-independent half of a 2D factorization, which depends only
/// on the pattern, the grid and the window: one operation list per grid
/// column, the number of per-stage slots, and one arena per rank.
pub(crate) struct Plan2d {
    pattern: Arc<BlockPattern>,
    grid: Grid,
    window: usize,
    schedules: Vec<Vec<Op2d>>,
    stage_slots: usize,
    ranks: Vec<Mutex<FactorScratch>>,
}

impl Plan2d {
    fn build(pattern: Arc<BlockPattern>, grid: Grid, window: usize) -> Self {
        // One deterministic operation list per grid column, shared by the
        // column's p_r ranks (identical replay is what keeps the
        // intra-column blocking exchanges deadlock-free).
        let schedules = (0..grid.pc)
            .map(|c| lookahead_schedule(&pattern, grid.pc, c, window))
            .collect();
        // The schedule keeps at most `W + 1` stages in flight per grid
        // column between retirements, so `W + 1` per-stage slots are
        // collision-free (capped by the stage count for absurd `W`)
        let stage_slots = window.min(pattern.nblocks().saturating_sub(1)) + 1;
        Self {
            pattern,
            grid,
            window,
            schedules,
            stage_slots,
            ranks: (0..grid.nprocs()).map(|_| Mutex::default()).collect(),
        }
    }
}

/// Why a rank arena's lock cannot be poisoned: a rank holds it only to
/// move its arena (or its host columns) in or out, never while it works.
const UNLOCKED: &str = "a rank arena's lock is never held across a panic";

/// The columns the host filled for one rank, with their indices.
type Dealt = Vec<(usize, ColBlock)>;

/// On a `1 × P` grid, every column of the whole storage, filled on the
/// host in the sequential code's layout and dealt to its owning rank,
/// which factors it in place; the reassembly moves the columns back, so
/// the factors keep that layout. Solves against panels the ranks allocate
/// themselves run 12–24 % slower (EXPERIMENTS.md, "Parallel on the
/// product path"). Each rank fills its own share on grids with more than
/// one row, whose ranks hold parts of columns.
fn host_columns<'a>(
    input: Input<'a>,
    pattern: &Arc<BlockPattern>,
    grid: Grid,
) -> Result<Vec<Mutex<Dealt>>, &'a splu_sparse::CscMatrix> {
    let full = match input {
        Input::Csc(a) if grid.pr != 1 => return Err(a),
        Input::Csc(a) => BlockMatrix::from_csc(a, pattern.clone()),
        Input::Filled(m, _) => m,
    };
    assert_eq!(grid.pr, 1, "filled storage is dealt on a 1 x P grid");
    let mut dealt: Vec<Dealt> = vec![Vec::new(); grid.nprocs()];
    for (j, col) in full.cols.into_iter().enumerate() {
        dealt[grid.rank_of(0, j % grid.pc)].push((j, col));
    }
    Ok(dealt.into_iter().map(Mutex::new).collect())
}

/// The body of [`factor_par2d_with`], inside its panic boundary: `plan`'s
/// grid factors `input`, rank `r` working in `plan.ranks[r]`'s arena.
fn factor2d_grid(input: Input, plan: &Plan2d, opts: &Par2dOptions) -> Par2dResult {
    assert!(opts.threshold > 0.0 && opts.threshold <= 1.0);
    let (pattern, grid, ranks) = (&plan.pattern, plan.grid, &plan.ranks);
    let (schedules, stage_slots) = (&plan.schedules, plan.stage_slots);
    let nb = pattern.nblocks();
    let clock = AtomicU64::new(0);
    let nnz = match &input {
        Input::Csc(a) => a.nnz(),
        Input::Filled(_, nnz) => *nnz,
    };
    let source = host_columns(input, pattern, grid);

    let t0 = std::time::Instant::now();
    type RankOut = (
        BlockMatrix,
        Vec<(usize, Vec<u32>)>,
        FactorStats,
        u64,
        Vec<UpdateInterval>,
        (u64, u64),
    );
    let spmd = |ctx: ProcCtx| {
        let mine = source
            .as_ref()
            .map(|d| std::mem::take(&mut *d[ctx.rank].lock().expect(UNLOCKED)))
            .map_err(|&a| a);
        let st = Store2d::new(mine, pattern.clone(), grid, ctx.rank);
        let mut scratch = std::mem::take(&mut *ranks[ctx.rank].lock().expect(UNLOCKED));
        let grow0 = scratch.grow_events();
        scratch.ensure_stage_slots(stage_slots);
        #[cfg(test)]
        let stall = opts.stall.filter(|s| s.0 == ctx.rank).map(|s| s.1);
        let mut me = Rank {
            ctx,
            st,
            caches: PanelCaches::new(stage_slots),
            scratch,
            pivseqs: vec![None; nb],
            intake: 0,
            stats: FactorStats::default(),
            intervals: Vec::new(),
            clock: &clock,
            #[cfg(test)]
            stall,
        };

        if me.ctx.rank == 0 {
            // static fill predicted by the symbolic phase (Table 1's
            // overestimation statistic), recorded once per run
            me.ctx.probe().count(
                "fill_entries",
                (pattern.storage_entries() as u64).saturating_sub(nnz as u64),
            );
        }

        // ---- the schedule executor: replay this grid column's op list ----
        // defense-in-depth next-expected-stage counters: column `j` must
        // absorb its update sources in ascending stage order for the
        // factors to be bitwise identical to the sequential driver
        let mut applied: Vec<u32> = vec![0; nb];
        let mut max_depth = 0u32;
        // whether the last update ran deferred: a wait outside an update
        // is charged as a critical-path stall only while it did not
        let mut draining = false;
        let ops = schedules[me.st.cno].as_slice();
        let mut js: Vec<usize> = Vec::new();
        let mut i = 0usize;
        while i < ops.len() {
            match ops[i] {
                Op2d::Factor { k, nsrcs } => {
                    debug_assert_eq!(applied[k as usize], nsrcs, "Factor({k}) before its sources");
                    me.factor(k as usize, opts.threshold);
                }
                Op2d::Swap { k, .. } => {
                    // coalesce the maximal run of stage-`k` swaps (the
                    // schedule emits a draining stage's swaps
                    // back-to-back) into one batched exchange. Every rank
                    // of the grid column derives the identical run, so
                    // batch ids agree.
                    js.clear();
                    while let Some(Op2d::Swap { k: k2, j, seq }) = ops.get(i).copied() {
                        if k2 != k {
                            break;
                        }
                        debug_assert_eq!(applied[j as usize], seq, "Swap({k},{j}) out of order");
                        js.push(j as usize);
                        i += 1;
                    }
                    me.await_stage_row(k as usize, draining);
                    me.swap_columns(k as usize, &js);
                    continue; // `i` already advanced past the run
                }
                Op2d::Trsm { k, .. } => {
                    // coalesce the run of stage-`k` TRSMs the same way:
                    // the owner row computes them all and multicasts ONE
                    // concatenated payload per run; every other rank
                    // records the batch layout for its update tasks
                    js.clear();
                    while let Some(Op2d::Trsm { k: k2, j }) = ops.get(i).copied() {
                        if k2 != k {
                            break;
                        }
                        js.push(j as usize);
                        i += 1;
                    }
                    me.trsm_columns(k as usize, &js, draining);
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
                    draining = deferred;
                    me.intake_stage_rows(k, deferred);
                    me.update(k, j, deferred);
                    applied[j] += 1;
                }
                Op2d::Retire { k } => {
                    let k = k as usize;
                    // a rank with no stage-k swaps still received the
                    // stage-row multicast: consume it here so the
                    // pending map drains stage by stage
                    me.await_stage_row(k, draining);
                    // stage k's last consumer has run on this rank: drop
                    // its cached panels so resident bytes never span more
                    // than the in-flight window, and free its slots
                    me.caches.retire_stage(k);
                    me.scratch.retire_stage(k);
                    if opts.mode == Sync2d::Barrier {
                        me.ctx.barrier();
                    } else {
                        me.retire_token(k);
                    }
                }
            }
            i += 1;
        }
        let Rank {
            ctx,
            st,
            caches,
            scratch,
            pivseqs,
            mut stats,
            intervals,
            ..
        } = me;
        debug_assert!(caches.is_empty(), "panel caches must drain by the end");
        stats.scratch_grow_events = scratch.grow_events() - grow0;
        stats.scratch_peak_bytes = scratch.peak_bytes();
        *ranks[ctx.rank].lock().expect(UNLOCKED) = scratch;
        ctx.probe()
            .count("scratch_grow_events", stats.scratch_grow_events);
        ctx.probe()
            .gauge_max("panel_cache_bytes_hw", caches.peak_bytes);
        ctx.probe().gauge_max("pipeline_depth_hw", max_depth as u64);
        stats.emit_update_probe(ctx.probe());

        let pivs: Vec<(usize, Vec<u32>)> = pivseqs
            .into_iter()
            .enumerate()
            .filter_map(|(k, p)| p.map(|p| (k, p.as_ref().clone())))
            .collect();
        let cache_bytes = (caches.peak_bytes, caches.inserted_bytes);
        (
            st.m,
            pivs,
            stats,
            ctx.max_pending_bytes,
            intervals,
            cache_bytes,
        )
    };
    let (outs, comm): (Vec<RankOut>, _) = run_machine(grid.nprocs(), &opts.run, spmd);
    let elapsed = t0.elapsed().as_secs_f64();

    // ---- host-side reassembly: the ranks' columns move in ----
    let mut shares = Vec::with_capacity(outs.len());
    let mut pivots: Vec<Vec<u32>> = vec![Vec::new(); nb];
    let mut merged = FactorStats::default();
    let mut peaks = Vec::new();
    let mut cache_peaks = Vec::new();
    let mut cache_inserted = Vec::new();
    let mut all_intervals = Vec::new();
    for (share, pivs, stats, peak, ivs, (cpeak, cins)) in outs {
        shares.push(share);
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
    let blocks = BlockMatrix::from_shares(pattern.clone(), &mut shares, grid.pr, |r, j| {
        grid.rank_of(r, j % grid.pc)
    });
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

/// One rank's executor state: its share of the matrix, the caches and
/// staging of the in-flight stages, and what it reports.
struct Rank<'a> {
    ctx: ProcCtx,
    st: Store2d,
    caches: PanelCaches,
    scratch: FactorScratch,
    /// Stage `k`'s pivot sequence, once factored here or received.
    pivseqs: Vec<Option<Arc<Vec<u32>>>>,
    /// Every stage below this one has its pivot sequence here
    /// ([`Rank::intake_stage_rows`]).
    intake: usize,
    stats: FactorStats,
    intervals: Vec<UpdateInterval>,
    clock: &'a AtomicU64,
    /// [`Par2dOptions::stall`]'s sleep, on the stalled rank.
    #[cfg(test)]
    stall: Option<std::time::Duration>,
}

impl Rank<'_> {
    /// `Factor(k)` for the 2D code (Fig. 13): cooperative panel
    /// factorization by the processors of grid column `k mod p_c`, each
    /// over its rows of the panel — its diagonal (on the owner of row
    /// block `k`) and its stacked `L` segments. Records the pivot
    /// sequence (identical on every participating processor).
    fn factor(&mut self, k: usize, threshold: f64) {
        let grid = self.st.grid;
        let (rno, cno) = (self.st.rno, self.st.cno);
        debug_assert_eq!(cno, k % grid.pc);
        let span_start = self.ctx.probe().now();
        let diag_rno = k % grid.pr;
        let i_am_diag = rno == diag_rno;
        // statistics are counted once per task, on the diagonal owner, so
        // the merged numbers match the sequential code
        if i_am_diag {
            self.stats.factor_tasks += 1;
        }
        let (w, lo) = (self.st.width(k), self.st.lo(k));
        let nl = self.st.m.cols[k].lrows.len();
        let mut piv_seq: Vec<u32> = Vec::with_capacity(w);
        let mut searched_rows: u64 = 0;
        let scratch = &mut self.scratch;

        for t in 0..w {
            // ---- local candidate: (abs, is_diag, global row); the
            // stacked rows ascend, as the sequential scan does ----
            let cb = &self.st.m.cols[k];
            let mut cand_row = NONE_ROW;
            let mut cand_abs = -1.0f64;
            let mut cand_diag = false;
            if i_am_diag {
                searched_rows += (w - t) as u64;
                for r in t..w {
                    let a = cb.diag[r + t * w].abs();
                    if a > cand_abs {
                        cand_abs = a;
                        cand_row = (lo + r) as u32;
                        cand_diag = true;
                    }
                }
            }
            searched_rows += nl as u64;
            for (r, &g) in cb.lrows.iter().enumerate() {
                let a = cb.lpanel[r + t * nl].abs();
                if a > cand_abs {
                    cand_abs = a;
                    cand_row = g;
                    cand_diag = false;
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
                    let m = self.ctx.recv(tag(K_CAND, k, t, 0));
                    let row = m.ints[0];
                    if row == NONE_ROW {
                        self.ctx.recycle(m);
                        continue;
                    }
                    let a = m.floats[t].abs();
                    // comparator: (abs desc, diag pref desc, global row asc);
                    // remote candidates are never diag rows.
                    let better = a > best_abs
                        || (a == best_abs
                            && !best_diag
                            && (best_row == NONE_ROW || row < best_row));
                    if better {
                        best_row = row;
                        best_abs = a;
                        best_diag = false;
                        if let Some(old) = best_msg.replace(m) {
                            self.ctx.recycle(old);
                        }
                    } else {
                        self.ctx.recycle(m);
                    }
                }
                if best_row == NONE_ROW || best_abs <= 0.0 {
                    // Typed panic payload: the runtime poison-broadcast wakes
                    // blocked peers and the host recovers the `SolverError`
                    // via `catch_solver_panic` (see `factor_par2d_with`).
                    std::panic::panic_any(SolverError::ZeroPivot { step: lo + t });
                }
                // threshold pivoting: keep the diagonal row when close enough
                // to the maximum (the diagonal row lives on this processor)
                let diag_abs = cb.diag[t + t * w].abs();
                if diag_abs > 0.0 && diag_abs >= threshold * best_abs {
                    best_row = (lo + t) as u32;
                    if let Some(m) = best_msg.take() {
                        self.ctx.recycle(m);
                    }
                }
                // old row m (diag row t)
                prep_zeroed_f64(&mut scratch.rowbuf, w, &mut scratch.grow_events);
                self.st.m.read_row(k, lo + t, &mut scratch.rowbuf);
                prep_zeroed_f64(&mut scratch.rowbuf2, w, &mut scratch.grow_events);
                match &best_msg {
                    Some(m) => scratch.rowbuf2.copy_from_slice(&m.floats[..w]),
                    None => self
                        .st
                        .m
                        .read_row(k, best_row as usize, &mut scratch.rowbuf2),
                }
                if let Some(m) = best_msg.take() {
                    self.ctx.recycle(m);
                }
                // broadcast pivot decision + both subrows down the column
                let mut floats = self.ctx.floats_buf();
                floats.extend_from_slice(&scratch.rowbuf2);
                floats.extend_from_slice(&scratch.rowbuf);
                let mut ints = self.ctx.ints_buf();
                ints.push(best_row);
                self.ctx.multicast(
                    grid.my_col(self.ctx.rank),
                    Message::new(tag(K_PIVROW, k, t, 0), ints, floats),
                );
                best_row as usize
            } else {
                // ship local candidate subrow to the diag owner
                let mut floats = self.ctx.floats_buf();
                if cand_row != NONE_ROW {
                    floats.resize(w, 0.0);
                    self.st.m.read_row(k, cand_row as usize, &mut floats);
                }
                let mut ints = self.ctx.ints_buf();
                ints.push(cand_row);
                self.ctx.send(
                    grid.rank_of(diag_rno, cno),
                    Message::new(tag(K_CAND, k, t, 0), ints, floats),
                );
                let m = self.ctx.recv(tag(K_PIVROW, k, t, 0));
                let piv = m.ints[0] as usize;
                prep_cap(&mut scratch.rowbuf2, w, &mut scratch.grow_events);
                scratch.rowbuf2.extend_from_slice(&m.floats[..w]);
                prep_cap(&mut scratch.rowbuf, w, &mut scratch.grow_events);
                scratch.rowbuf.extend_from_slice(&m.floats[w..2 * w]);
                self.ctx.recycle(m);
                piv
            };
            let (piv_subrow, old_m_subrow) = (&scratch.rowbuf2, &scratch.rowbuf);

            // ---- apply the interchange to owned storage ----
            let row_m = lo + t;
            if piv_global != row_m {
                if i_am_diag {
                    self.stats.row_interchanges += 1;
                    self.st.m.write_row(k, row_m, piv_subrow);
                }
                if self.st.owns_block(self.st.m.block_of(piv_global), k) {
                    self.st.m.write_row(k, piv_global, old_m_subrow);
                }
            }
            piv_seq.push(piv_global as u32);

            // ---- scale + rank-1 update of owned rows ----
            let pv = piv_subrow[t];
            let cb = &mut self.st.m.cols[k];
            if i_am_diag {
                let p = &mut cb.diag;
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
                self.stats.other_flops += ((w - t - 1) + 2 * (w - t - 1) * (w - t - 1)) as u64;
            }
            // the stacked L rows at once: every entry's arithmetic is the
            // sequential code's
            let (head, tail) = cb.lpanel.split_at_mut((t + 1) * nl);
            let lt = &mut head[t * nl..];
            for l in lt.iter_mut() {
                *l /= pv;
            }
            for (c, col) in tail.chunks_exact_mut(nl.max(1)).enumerate() {
                let u = piv_subrow[t + 1 + c];
                if u != 0.0 {
                    for (e, &l) in col.iter_mut().zip(lt.iter()) {
                        *e -= l * u;
                    }
                }
            }
            self.stats.other_flops += (nl + 2 * nl * (w - t - 1)) as u64;
        }

        // ---- ONE row multicast per stage: pivot sequence + diagonal +
        // this rank's stacked L panel, as stored. The receivers (same
        // block rows, other grid columns) read it with their own layout of
        // the column (`ensure_stage_row`), so no per-segment messages are
        // needed.
        if grid.pc > 1 {
            let cb = &self.st.m.cols[k];
            let mut ints = self.ctx.ints_buf();
            ints.extend_from_slice(&piv_seq);
            let mut p = self.ctx.floats_buf();
            if i_am_diag {
                p.extend_from_slice(&cb.diag);
            }
            p.extend_from_slice(&cb.lpanel);
            self.ctx.multicast(
                grid.my_row(self.ctx.rank),
                Message::new(tag(K_LPANEL, k, 0, 0), ints, p),
            );
        }
        self.ctx.probe().count("pivot_search_rows", searched_rows);
        self.ctx
            .probe()
            .span_at("panel-factor", k as u32, span_start);
        self.pivseqs[k] = Some(Arc::new(piv_seq));
    }

    /// Consume stage `k`'s row multicast if this rank has not yet: ranks of
    /// the factoring grid column produced everything locally in
    /// [`Rank::factor`] (the `pivseqs[k]` guard); every other rank receives
    /// ONE message from the factoring rank of its grid row carrying the
    /// pivot sequence plus the diagonal and the stacked `L` panel, kept
    /// whole in stage `k`'s cache slot. Returns whether the receive
    /// blocked.
    fn ensure_stage_row(&mut self, k: usize) -> bool {
        if self.pivseqs[k].is_some() {
            return false;
        }
        let (m, blocked) = recv_try_first(&mut self.ctx, tag(K_LPANEL, k, 0, 0));
        self.pivseqs[k] = Some(m.ints.clone());
        debug_assert_eq!(
            m.floats.len(),
            self.st.row_lpanel_offset(k) + self.st.m.cols[k].lrows.len() * self.st.width(k),
            "stage-row payload layout mismatch"
        );
        let row = self.caches.insert(k, &m);
        self.caches.stage(k).row = Some(row);
        self.ctx.recycle(m);
        blocked
    }

    /// [`Rank::ensure_stage_row`] outside an update — the executor calls it
    /// lazily at the first `Swap(k, ·)`, for a TRSM's diagonal, and at
    /// `Retire(k)` to drain the pending map stage by stage. A blocking
    /// wait counts like an update's: in `update_wait_secs`, and in
    /// `panel_wait_secs` unless the executor is `draining` deferred work.
    fn await_stage_row(&mut self, k: usize, draining: bool) {
        let t = std::time::Instant::now();
        if self.ensure_stage_row(k) {
            let waited = t.elapsed().as_secs_f64();
            self.stats.update_wait_secs += waited;
            if !draining {
                self.stats.panel_wait_secs += waited;
            }
        }
    }

    /// Consume every stage row below `k` before an update of stage `k`:
    /// a rank enters stage `k`'s updates only once every earlier panel
    /// has been factored, as in the paper's in-order code, where each
    /// processor walks every stage. Without this, a grid column whose
    /// next panels do not depend on a slow rank's column runs any number
    /// of stages ahead of it, and Theorem 2's `p_c + W` bound fails under
    /// preemption. The grid column's own panels were factored here before
    /// any of this update's ops. Waits count as in
    /// [`Rank::await_stage_row`].
    fn intake_stage_rows(&mut self, k: usize, deferred: bool) {
        while self.intake < k {
            let s = self.intake;
            debug_assert!(
                s % self.st.grid.pc != self.st.cno || self.pivseqs[s].is_some(),
                "own panel {s} not factored before an update of stage {k}"
            );
            self.await_stage_row(s, deferred);
            self.intake += 1;
        }
    }

    /// Stage `k`'s retirement token down the grid column: the owner of
    /// block row `k` sends it at its `Retire(k)`, every other rank of the
    /// column waits for it at its own. A rank past `Retire(k)` therefore
    /// knows the row owner finished all of stage `k`'s updates, which is
    /// the in-column dependency Theorem 2's `min(p_r − 1, p_c)` argument
    /// uses (the `U`-row multicast carries it only for stages with `U`
    /// blocks in the column).
    fn retire_token(&mut self, k: usize) {
        let grid = self.st.grid;
        if grid.pr == 1 {
            return;
        }
        let t = tag(K_RETIRE, k, 0, 0);
        if self.st.rno == k % grid.pr {
            let (ints, floats) = (self.ctx.ints_buf(), self.ctx.floats_buf());
            self.ctx
                .multicast(grid.my_col(self.ctx.rank), Message::new(t, ints, floats));
        } else {
            let m = self.ctx.recv(t);
            self.ctx.recycle(m);
        }
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
    fn swap_columns(&mut self, k: usize, js: &[usize]) {
        let grid = self.st.grid;
        let cno = self.st.cno;
        debug_assert!(js.iter().all(|&j| j % grid.pc == cno));
        let lo = self.st.lo(k);
        let swap_start = self.ctx.probe().now();
        // the batch's first column disambiguates the message tag: a column
        // belongs to exactly one stage-`k` batch, and every rank of the grid
        // column replays the same schedule, so both sides derive the same id
        let batch_id = js[0];
        let piv = self.pivseqs[k].clone().expect("stage row consumed");
        let st = &mut self.st;
        for (t, &pg) in piv.iter().enumerate() {
            let (row_m, pg) = (lo + t, pg as usize);
            if pg == row_m {
                continue;
            }
            let ib_m = k; // row m lives in row block k
            let ib_r = st.m.block_of(pg);
            // block ownership is uniform across the batch: every column sits
            // in this grid column
            let own_m = st.owns_block(ib_m, js[0]);
            let own_r = st.owns_block(ib_r, js[0]);
            if own_m && own_r {
                for &j in js {
                    st.m.swap_rows(j, row_m, pg);
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
                let mut buf = self.ctx.floats_buf();
                for &j in js.iter().filter(|&&j| st.block_exists(my_ib, j)) {
                    let at = buf.len();
                    buf.resize(at + st.width(j), 0.0);
                    st.m.read_row(j, my_row, &mut buf[at..]);
                }
                let ints = self.ctx.ints_buf();
                self.ctx.send(
                    partner,
                    Message::new(tag(K_SWAP, k, t, batch_id), ints, buf),
                );
            }
            if js.iter().any(|&j| st.block_exists(peer_ib, j)) {
                let m = self.ctx.recv(tag(K_SWAP, k, t, batch_id));
                let mut off = 0usize;
                for &j in js {
                    if !st.block_exists(peer_ib, j) {
                        continue;
                    }
                    let piece = &m.floats[off..off + st.width(j)];
                    // a column without my row: the peer's is structurally zero
                    st.m.write_row(j, my_row, piece);
                    off += piece.len();
                }
                debug_assert_eq!(off, m.floats.len(), "swap batch layout mismatch");
                self.ctx.recycle(m);
            }
            // a column where only my row exists: the peer holds nothing, so
            // the interchange must be a no-op — my row is structurally zero
            #[cfg(debug_assertions)]
            for &j in js {
                if st.block_exists(my_ib, j) && !st.block_exists(peer_ib, j) {
                    let mut row = vec![0.0; st.width(j)];
                    st.m.read_row(j, my_row, &mut row);
                    debug_assert!(row.iter().all(|&v| v == 0.0));
                }
            }
        }
        self.ctx.probe().span_at("row-swap", k as u32, swap_start);
    }

    /// TRSM `U_kj ← L_kk⁻¹ U_kj` over a schedule run of columns, plus ONE
    /// column multicast of the run's concatenated results (the batched
    /// scale phase of Fig. 14). The rank owning block row `k` computes and
    /// sends; every other rank records where each `U_kj` lands in the
    /// batch payload — both sides replay the same schedule, so the run
    /// membership, its order, and the derived `batch_id` (the run's first
    /// column) agree by construction. `L_kk` is read in place: from column
    /// `k`'s diagonal, or from the stage-row multicast (waited for as
    /// [`Rank::await_stage_row`] does, `draining` saying how it counts).
    fn trsm_columns(&mut self, k: usize, js: &[usize], draining: bool) {
        let grid = self.st.grid;
        let w = self.st.width(k);
        let batch_id = js[0];
        let pattern = self.st.m.pattern.clone();
        let uk = &pattern.u_blocks[k];
        let pos = |j: usize| {
            uk.binary_search_by_key(&(j as u32), |u| u.j)
                .expect("U block in pattern")
        };
        // ownership of `(k, j)` is uniform across the batch
        if !self.st.owns_block(k, batch_id) {
            let c = self.caches.stage(k);
            if c.ulayout.is_empty() {
                c.ulayout.resize(uk.len(), (usize::MAX, 0));
            }
            let b = c.ubatches.len();
            c.ubatches.push((batch_id, None));
            let mut off = 0usize;
            for &j in js {
                let p = pos(j);
                c.ulayout[p] = (b, off);
                off += w * uk[p].cols.len();
            }
            return;
        }
        let span_start = self.ctx.probe().now();
        let local = self.st.owns_col_panel(k);
        let row = if local {
            None
        } else {
            // my diagonal copy leads my stage-row multicast
            self.await_stage_row(k, draining);
            self.caches.stage(k).row.clone()
        };
        let (left, right) = self.st.m.cols.split_at_mut(k + 1);
        let lkk: &[f64] = match &row {
            Some(p) => &p[..w * w],
            None => &left[k].diag,
        };
        // the column multicast only when the grid column has other ranks
        let mut fl = (grid.pr > 1).then(|| self.ctx.floats_buf());
        for &j in js {
            let cj = &mut right[j - k - 1];
            let ub = cj
                .ublocks
                .binary_search_by_key(&(k as u32), |u| u.k)
                .expect("owned U block");
            let ub = &mut cj.ublocks[ub];
            let ncols = ub.cols.len();
            dtrsm_left_lower_unit(w, ncols, lkk, w, &mut ub.panel, w);
            self.stats.other_flops += (w * w * ncols) as u64;
            if let Some(fl) = &mut fl {
                fl.extend_from_slice(&ub.panel);
            }
        }
        if let Some(fl) = fl {
            let ints = self.ctx.ints_buf();
            let msg = Message::new(tag(K_UROW, k, batch_id, 0), ints, fl);
            self.ctx.multicast(grid.my_col(self.ctx.rank), msg);
        }
        self.ctx.probe().span_at("scale-swap", k as u32, span_start);
    }

    /// `Update2D(k, j)` (Fig. 15): update owned blocks `A_ij` using `L_ik`
    /// (row multicast) and `U_kj` (column multicast) through the shared
    /// update routine (`crate::update`), as the sequential code does: the
    /// segments are read in place from the stacked `L` panel — this rank's
    /// column `k`, or the stage-row payload — small ones stacked into
    /// shared kernel calls, blocked ones packed once per stage in the
    /// stage's slot; each product lands in column `j` through the
    /// pattern's precomputed maps.
    ///
    /// `deferred` marks updates the lookahead executor pushed behind a later
    /// panel factorization (depth > 1). Operand acquisition is try-first:
    /// when every remote operand already sits in the mailbox the task counts
    /// as a `lookahead_hit`; a blocking wait on a *critical-path* (non-
    /// deferred) update is charged to `panel_wait_secs`, the stall the
    /// lookahead window exists to hide.
    fn update(&mut self, k: usize, j: usize, deferred: bool) {
        let grid = self.st.grid;
        let (rno, cno) = (self.st.rno, self.st.cno);
        debug_assert_eq!(cno, j % grid.pc);
        let own_u = self.st.owns_block(k, j);
        let local = self.st.owns_col_panel(k);
        // counted once per task, on the owner of `U_kj` (every rank of the
        // destination's grid column runs its share), so the merged numbers
        // match the sequential code
        if own_u {
            self.stats.update_tasks += 1;
        }
        let clock = self.clock;
        let interval = |start: u64, end: u64| UpdateInterval {
            stage: k as u32,
            proc_col: cno as u32,
            start,
            end,
        };
        // my destination row blocks: my segments of column k
        if self.st.m.cols[k].lsegs.is_empty() {
            let start = clock.fetch_add(1, Ordering::Relaxed);
            let end = clock.fetch_add(1, Ordering::Relaxed);
            self.intervals.push(interval(start, end));
            return;
        }
        let pattern = self.st.m.pattern.clone();
        let uj = pattern.u_blocks[k]
            .binary_search_by_key(&(j as u32), |u| u.j)
            .expect("U block in pattern");

        // gather remote inputs before opening the interval: Theorem 2 bounds
        // the stages simultaneously *in processing*, so the recorded interval
        // must cover the update's compute, not the blocking waits for its
        // operands (which would stretch it across arbitrarily many ticks on
        // an oversubscribed host). Try-first so a fully-arrived operand set
        // counts as a lookahead hit rather than a stall.
        let t_wait = std::time::Instant::now();
        let mut blocked = false;
        if !own_u {
            // the layout entry was recorded when the run's Trsm ops replayed
            let c = self.caches.stage(k);
            let b = c.ulayout[uj].0;
            let (bid, got) = (c.ubatches[b].0, c.ubatches[b].1.is_some());
            if !got {
                let (m, waited) = recv_try_first(&mut self.ctx, tag(K_UROW, k, bid, 0));
                blocked = waited;
                let batch = self.caches.insert(k, &m);
                self.caches.stage(k).ubatches[b].1 = Some(batch);
                self.ctx.recycle(m);
            }
        }
        if !local {
            blocked |= self.ensure_stage_row(k);
        }
        let waited = t_wait.elapsed().as_secs_f64();
        self.stats.update_wait_secs += waited;
        if blocked {
            if !deferred {
                self.stats.panel_wait_secs += waited;
            }
        } else {
            self.stats.lookahead_hits += 1;
        }
        if deferred {
            self.stats.deferred_updates += 1;
        }
        let span_start = self.ctx.probe().now();
        let start = clock.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        if let Some(d) = self.stall {
            std::thread::sleep(d);
        }
        self.stats.scatter_map_reuse_hits += 1;

        // the remote payloads: read in place, kept alive through the gather
        let row = if local {
            None
        } else {
            self.caches.stage(k).row.clone()
        };
        let u_batch = if own_u {
            None
        } else {
            let c = self.caches.stage(k);
            let (b, off) = c.ulayout[uj];
            Some((c.ubatches[b].1.clone().expect("U batch received"), off))
        };
        let lpanel_off = self.st.row_lpanel_offset(k);
        let (left, right) = self.st.m.cols.split_at_mut(j);
        let (ck, cj) = (&left[k], &mut right[0]);
        // L_ik: a segment of the stacked panel of column k
        let lpanel: &[f64] = match &row {
            Some(p) => &p[lpanel_off..],
            None => &ck.lpanel,
        };
        let (ld, lsegs) = (ck.lrows.len(), &ck.lsegs);
        let seg = |li: usize| -> (&[f64], usize) {
            let i = pattern.l_blocks[k][li].i;
            let s = lsegs
                .binary_search_by_key(&i, |s| s.iblock)
                .expect("my L segment");
            (&lpanel[lsegs[s].start as usize..], ld)
        };
        let mine = |li: usize| pattern.l_blocks[k][li].i as usize % grid.pr == rno;
        let task = UpdateTask {
            pattern: &pattern,
            k,
            j,
            uj,
            mine: &mine,
        };
        // stage k's pack: each blocked segment is packed once per stage
        let nsegs = pattern.l_blocks[k].len();
        let slot = self.scratch.stage_slot(k, nsegs);
        let mut lpack = std::mem::take(&mut slot.pack);
        let started = {
            // U_kj: mine, or a slice of the batched column multicast
            let u: &[f64] = match &u_batch {
                Some((p, off)) => {
                    &p[*off..*off + ck.w as usize * pattern.u_blocks[k][uj].cols.len()]
                }
                None => {
                    let ub = cj
                        .ublocks
                        .binary_search_by_key(&(k as u32), |u| u.k)
                        .expect("owned U block");
                    &cj.ublocks[ub].panel
                }
            };
            update::gather(
                &task,
                &seg,
                u,
                &mut lpack,
                &mut self.stats,
                &mut self.scratch,
            )
        };
        update::apply(&task, started, &lpack, cj, &mut self.stats, &self.scratch);
        self.scratch.stage_slot(k, nsegs).pack = lpack;
        self.ctx.probe().span_at("update", k as u32, span_start);
        let end = clock.fetch_add(1, Ordering::Relaxed);
        self.intervals.push(interval(start, end));
    }
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
    fn a_stalled_rank_keeps_theorem2_bounds() {
        // rank 0 sleeps 1 ms in each of its updates, a slow processor: the
        // others must still wait at the stage dependencies of the paper's
        // in-order code, so both bounds hold (p_c + W machine-wide,
        // min(p_r − 1, p_c) + W within a grid column). The dependencies
        // make the bounds hold under every interleaving; the sleep only
        // makes the interleaving that breaks them without the
        // dependencies happen on every run, in every case below.
        let a = splu_sparse::suite::by_name("orsreg1")
            .expect("suite matrix")
            .build_scaled(0.25);
        let solver = crate::SparseLuSolver::analyze(&a, crate::FactorOptions::default());
        let stall = Some((0, std::time::Duration::from_millis(1)));
        for (pr, pc, window) in [(2, 3, 0), (2, 4, 0), (2, 3, 2), (3, 2, 4)] {
            let opts = Par2dOptions {
                window,
                stall,
                ..Par2dOptions::default()
            };
            let (a, pattern, grid) = (&solver.permuted, solver.pattern.clone(), Grid::new(pr, pc));
            let par = factor_par2d_with(a, pattern, grid, &opts).unwrap();
            let d = par.overlap_degree() as usize;
            assert!(
                d <= pc + window,
                "overlap {d} > p_c + W on {pr}x{pc}, W = {window}"
            );
            for c in 0..pc as u32 {
                let d = par.overlap_degree_within_col(c) as usize;
                let bound = (pr - 1).min(pc) + window;
                assert!(
                    d <= bound,
                    "in-column overlap {d} > {bound} on {pr}x{pc}, W = {window}"
                );
            }
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
        // interchanges across the p_r processors of a grid column; with
        // the whole panel on each rank (p_r = 1) the rank stacks small
        // segments exactly as the sequential code does, kernel call for
        // kernel call
        let a = gen::grid2d(7, 7, 0.4, ValueModel::default());
        let pattern = pattern_for(&a, 4, 6);
        let mut seq = BlockMatrix::from_csc(&a, pattern.clone());
        let (_, seq_stats) = factor_sequential(&mut seq).unwrap();
        for (pr, pc) in [(1, 1), (1, 2), (2, 2), (3, 2)] {
            let par = factor_par2d(&a, pattern.clone(), Grid::new(pr, pc), Sync2d::Async);
            let label = format!("{pr}x{pc}");
            assert_eq!(par.stats.factor_tasks, seq_stats.factor_tasks, "{label}");
            assert_eq!(par.stats.update_tasks, seq_stats.update_tasks, "{label}");
            assert_eq!(
                par.stats.row_interchanges, seq_stats.row_interchanges,
                "{label}"
            );
            assert_eq!(par.stats.gemm_flops, seq_stats.gemm_flops, "{label}");
            if pr == 1 {
                assert_eq!(
                    par.stats.update_gemm_calls, seq_stats.update_gemm_calls,
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn a_warmed_scratch_reuses_the_plan_and_grows_nothing() {
        let a = gen::grid2d(8, 8, 0.4, ValueModel::default());
        let pattern = pattern_for(&a, 4, 6);
        let (opts, grid) = (Par2dOptions::default(), Grid::new(1, 2));
        let mut scratch = FactorScratch::new();
        fn plan(s: &FactorScratch) -> &Plan2d {
            s.cache.as_ref().unwrap().plan2d.as_ref().unwrap()
        }
        let run = |p: &Arc<BlockPattern>, grid, s: &mut FactorScratch| {
            factor_par2d_reusing(Input::Csc(&a), p.clone(), grid, &opts, s).unwrap()
        };
        let cold = run(&pattern, grid, &mut scratch);
        assert!(cold.stats.scratch_grow_events > 0);
        let first: *const Plan2d = plan(&scratch);
        let warm = run(&pattern, grid, &mut scratch);
        assert_eq!(warm.stats.scratch_grow_events, 0);
        assert!(std::ptr::eq(first, plan(&scratch)));
        assert_eq!(warm.pivots, cold.pivots);
        // another grid, or another pattern, replaces the plan
        run(&pattern, Grid::new(2, 1), &mut scratch);
        assert_eq!(plan(&scratch).grid, Grid::new(2, 1));
        let other = pattern_for(&a, 4, 6);
        run(&other, Grid::new(2, 1), &mut scratch);
        assert!(Arc::ptr_eq(&plan(&scratch).pattern, &other));
    }

    #[test]
    fn communication_volume_counted() {
        // the protocol's exact (messages, bytes): the rank storage layout
        // must not change a message. With p_r > 1 each of the 9 stages
        // adds one empty retirement token per grid column.
        let a = gen::grid2d(7, 7, 0.3, ValueModel::default());
        let pattern = pattern_for(&a, 4, 6);
        for ((pr, pc), comm) in [
            ((1, 2), (9, 4836)),
            ((2, 1), (131 + 9, 12416)),
            ((2, 2), (161 + 2 * 9, 17448)),
        ] {
            let par = factor_par2d(&a, pattern.clone(), Grid::new(pr, pc), Sync2d::Async);
            assert_eq!(par.comm, comm, "{pr}x{pc}");
            assert_eq!(par.peak_buffer_bytes.len(), pr * pc);
        }
    }
}
