//! The paper's evaluation as one manifest, run by `splu repro [ID…]`.
//!
//! Each table, figure and ablation is an [`Experiment`] of [`MANIFEST`]
//! that fills a [`Table`]; a [`Suite`] may replace every entry's matrix
//! set and processor columns ([`SMOKE`] is the golden test's). A model
//! cell is deterministic (a T3D/T3E discrete-event time, a symbolic count,
//! a mapping statistic); a host cell is measured (a wall-clock time, a
//! thread-backend overlap degree, a peak buffer) and masked in the
//! model-only rendering. MFLOPS are the Gilbert–Peierls baseline's
//! operation count over the S\* time, so overestimated flops are never
//! credited. A [`Ctx`] analyzes each matrix variant once per run.

use crate::{rule, secs};
use splu_core::par1d::{factor_par1d, Strategy1d};
use splu_core::par2d::{factor_par2d, factor_par2d_with, Par2dOptions, Par2dResult, Sync2d};
use splu_core::{FactorOptions, FactorStats, SparseLuSolver};
use splu_machine::{Grid, MachineModel, T3D, T3E};
use splu_sched::load_balance::{load_balance_factor, load_balance_factor_2d};
use splu_sched::sim::{simulate_opts, SimOptions};
use splu_sched::{build_2d_model, ca_schedule, gantt, graph_schedule, simulate, Mode2d};
use splu_sched::{Schedule, TaskGraph};
use splu_sparse::pattern::{ata_pattern, cholesky_fill_count, structural_symmetry};
use splu_sparse::{suite, CooMatrix, CscMatrix};
use splu_symbolic::static_symbolic_factorization as symfact;
use splu_symbolic::{amalgamate, partition_supernodes, BlockPattern, StaticStructure};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Shrink factor of the LARGE suite matrices.
const LARGE_SCALE: f64 = 0.25;

/// One table cell, or a literal run of text, tagged by its origin.
enum Cell {
    /// Deterministic: DES time, symbolic count, mapping statistic.
    Model(String),
    /// Measured: wall-clock time, thread-backend overlap, peak buffer.
    Host(String),
}

/// The output of one experiment: lines of tagged cells.
#[derive(Default)]
pub struct Table {
    lines: Vec<Vec<Cell>>,
    /// Some row broke a bound the experiment checks on a host
    /// measurement (Theorem 2 in `ablation_overlap_buffers`).
    pub broken: bool,
}

impl Table {
    /// Model text, one line per `\n`-separated piece.
    fn text(&mut self, s: &str) {
        let line = |l: &str| vec![Cell::Model(l.into())];
        self.lines.extend(s.split('\n').map(line));
    }

    /// One line: model text, host text, model text.
    fn row(&mut self, model: String, host: String, after: &str) {
        let (model, after) = (Cell::Model(model), Cell::Model(after.into()));
        self.lines.push(vec![model, Cell::Host(host), after]);
    }

    /// A column header (its last line) and its rule; returns the width.
    fn head(&mut self, header: &str) -> usize {
        let width = header.rsplit('\n').next().unwrap_or("").chars().count();
        self.text(&format!("{header}\n{}", rule(width)));
        width
    }

    /// The rendered table; with `host == false` every host cell becomes a
    /// `~` at the cell's width (the deterministic model-only rendering).
    pub fn render(&self, host: bool) -> String {
        let mut out = String::new();
        for line in &self.lines {
            for cell in line {
                match cell {
                    Cell::Host(s) if !host => out += &format!("{:>1$}", "~", s.chars().count()),
                    Cell::Model(s) | Cell::Host(s) => out += s,
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Which matrices (space-separated suite names) and processor columns
/// the manifest runs on: each `Some` replaces every entry's own.
pub struct Suite(Option<&'static str>, Option<&'static [usize]>);

/// Each entry's own matrices and processor columns.
pub const PAPER: Suite = Suite(None, None);

/// Two small matrices at P ∈ {4, 16}: the golden test's suite.
pub const SMOKE: Suite = Suite(Some("orsreg1 saylr4"), Some(&[4, 16]));

/// One table or figure of the evaluation.
pub struct Experiment {
    /// Id on the command line and stem of `results/<id>.txt`.
    pub id: &'static str,
    /// Heading lines.
    pub title: &'static str,
    /// The paper's matrix set, space-separated suite names.
    matrices: &'static str,
    /// The paper's processor columns.
    procs: &'static [usize],
    cells: fn(&Ctx, &mut Table, &[&str], &[usize]),
    /// The paper's shape to check.
    pub shape: &'static str,
}

impl Experiment {
    /// This experiment's table on `suite`.
    pub fn run(&self, ctx: &Ctx, suite: &Suite) -> Table {
        let mut t = Table::default();
        let names = suite.0.unwrap_or(self.matrices);
        let mats: Vec<&str> = names.split_whitespace().collect();
        t.text(&format!("{}\n", self.title));
        (self.cells)(ctx, &mut t, &mats, suite.1.unwrap_or(self.procs));
        t.text(self.shape);
        t
    }
}

/// The manifest entries named by `ids` (every entry when empty).
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let known: Vec<&str> = MANIFEST.iter().map(|e| e.id).collect();
    if let Some(bad) = ids.iter().find(|id| !known.contains(&id.as_str())) {
        let list = known.join("|");
        return Err(format!("unknown experiment `{bad}` (expected {list})"));
    }
    let wanted = |e: &&Experiment| ids.is_empty() || ids.iter().any(|id| id == e.id);
    Ok(MANIFEST.iter().filter(wanted).collect())
}

/// Gilbert–Peierls factorization of the matrix S\* factors (the fair
/// denominator of every ratio): operation count, nnz(L + U), and host
/// seconds with its on-the-fly symbolic work.
struct Baseline {
    flops: u64,
    nnz: usize,
    secs: f64,
}

/// A makespan's (machine, p_r, p_c, model): model 0 = 1D graph schedule
/// on p_c processors, 1 = 2D async, 2 = 2D barrier.
type PtKey = (&'static str, usize, usize, u8);

/// One analyzed suite matrix, and what it computes on first use.
struct Prep {
    a: CscMatrix,
    solver: SparseLuSolver,
    gp: OnceCell<Baseline>,
    graph: OnceCell<TaskGraph>,
    pt: RefCell<HashMap<PtKey, f64>>,
}

impl Prep {
    /// Suite matrix `name` at `scale`, analyzed with block size `bsize`
    /// and amalgamation factor `r` (min-degree on AᵀA).
    fn new(name: &str, scale: f64, bsize: usize, r: usize) -> Prep {
        let spec = suite::by_name(name).expect("suite matrix");
        let a = spec.build_scaled(scale);
        let mut opts = FactorOptions::default();
        (opts.block_size, opts.amalgamation) = (bsize, r);
        let solver = SparseLuSolver::analyze(&a, opts);
        let (gp, graph, pt) = Default::default();
        Prep {
            a,
            solver,
            gp,
            graph,
            pt,
        }
    }

    fn baseline(&self) -> &Baseline {
        self.gp.get_or_init(|| {
            let t0 = Instant::now();
            let gp = splu_superlu::gp_factor(&self.solver.permuted, 1.0).expect("baseline");
            let (flops, nnz, secs) = (gp.flops, gp.factor_nnz(), t0.elapsed().as_secs_f64());
            Baseline { flops, nnz, secs }
        })
    }

    fn graph(&self) -> &TaskGraph {
        let build = || TaskGraph::build(&self.solver.pattern);
        self.graph.get_or_init(build)
    }

    fn memo(&self, key: PtKey, run: impl FnOnce() -> f64) -> f64 {
        *self.pt.borrow_mut().entry(key).or_insert_with(run)
    }

    /// The 1D graph schedule on `p` processors of `machine`.
    fn sched1d(&self, machine: &MachineModel, p: usize) -> Schedule {
        graph_schedule(self.graph(), p, machine)
    }

    /// Makespan of the 1D graph schedule on `p` processors of `machine`.
    fn pt1d(&self, machine: &MachineModel, p: usize) -> f64 {
        let run = || simulate(self.graph(), &self.sched1d(machine, p), machine).makespan;
        self.memo((machine.name, 1, p, 0), run)
    }

    /// Makespan of the 2D code on `grid` of `machine`.
    fn pt2d(&self, machine: &MachineModel, grid: Grid, mode: Mode2d) -> f64 {
        let model = 1 + (mode == Mode2d::Barrier) as u8;
        let run = || {
            let m2 = build_2d_model(&self.solver.pattern, grid, machine, mode);
            simulate(&m2.graph, &m2.schedule, machine).makespan
        };
        self.memo((machine.name, grid.pr, grid.pc, model), run)
    }

    /// The baseline's rate at `secs` seconds.
    fn mflops(&self, secs: f64) -> f64 {
        self.baseline().flops as f64 / secs / 1e6
    }

    /// A timed sequential factorization: its statistics and host seconds.
    fn factor(&self) -> (FactorStats, f64) {
        let t0 = Instant::now();
        let stats = self.solver.factor().expect("nonsingular").stats;
        (stats, t0.elapsed().as_secs_f64())
    }
}

/// A [`Prep`]'s (name, scale bits, block size, r).
type PrepKey = (String, u64, usize, usize);

/// The shared preparation of one run of the manifest.
#[derive(Default)]
pub struct Ctx {
    preps: RefCell<HashMap<PrepKey, Rc<Prep>>>,
}

impl Ctx {
    /// [`Prep::new`], once per key.
    fn prep(&self, name: &str, scale: f64, bsize: usize, r: usize) -> Rc<Prep> {
        let new = || Rc::new(Prep::new(name, scale, bsize, r));
        let mut preps = self.preps.borrow_mut();
        let key = (name.into(), scale.to_bits(), bsize, r);
        Rc::clone(preps.entry(key).or_insert_with(new))
    }

    /// `name` at its paper scale ([`LARGE_SCALE`] for the LARGE suite)
    /// with the paper's block size 25 and r = 4.
    fn paper(&self, name: &str) -> Rc<Prep> {
        self.prep(name, paper_scale(name), 25, 4)
    }
}

fn paper_scale(name: &str) -> f64 {
    if suite::LARGE.contains(&name) {
        LARGE_SCALE
    } else {
        1.0
    }
}

/// Rows = matrices, one column group per processor count (Tables 3–7,
/// Figs. 16–17), closed by a rule.
fn per_p(
    t: &mut Table,
    (mats, procs): (&[&str], &[usize]),
    head: impl Fn(usize) -> String,
    mut cell: impl FnMut(&str, usize) -> String,
) {
    let header: String = procs.iter().map(|&p| head(p)).collect();
    let w = t.head(&format!("matrix    {header}"));
    for name in mats {
        let cells: String = procs.iter().map(|&p| cell(name, p)).collect();
        t.text(&format!("{name:<10}{cells}"));
    }
    t.text(&rule(w));
}

/// `1 − f` per matrix and processor count, as a percentage.
fn pct_grid(t: &mut Table, cols: (&[&str], &[usize]), f: impl Fn(&str, usize) -> f64) {
    let head = |p| format!(" {:>7}", format!("P={p}"));
    per_p(t, cols, head, |name, p| {
        format!(" {:>6.1}%", 100.0 * (1.0 - f(name, p)))
    });
}

fn table1(ctx: &Ctx, t: &mut Table, mats: &[&str], _: &[usize]) {
    let header = "matrix           n    nnz(A)   sym |   AtA/|A|    GP/|A|    S*/|A| |";
    let w = t.head(&format!("{header}    S*/GP  ops-rat"));
    for name in mats {
        let p = ctx.paper(name);
        let (a, s, gp) = (&p.a, &p.solver, p.baseline());
        // struct(L) of the Cholesky factor of AᵀA bounds the L and U
        // structures each, so 2·nnz(L) − n bounds the factor entries
        let (chol_l, _) = cholesky_fill_count(&ata_pattern(&s.permuted));
        let (n, nnz, sym) = (a.nrows(), a.nnz(), structural_symmetry(a));
        let (sstar, gp_nnz, nz) = (s.static_factor_nnz() as f64, gp.nnz as f64, nnz as f64);
        let chol = (2 * chol_l - n) as f64 / nz;
        let ops = s.structure.predicted_flops() as f64 / gp.flops as f64;
        let (g, st, ratio) = (gp_nnz / nz, sstar / nz, sstar / gp_nnz);
        let stats = format!("{name:<10} {n:>7} {nnz:>9} {sym:>5.2} |");
        let ratios = format!("{chol:>9.1} {g:>9.1} {st:>9.1} | {ratio:>8.2} {ops:>8.2}");
        t.text(&format!("{stats} {ratios}"));
    }
    t.text(&rule(w));
}

fn table2(ctx: &Ctx, t: &mut Table, mats: &[&str], _: &[usize]) {
    let header = "matrix     |   S* time   MFLOPS |   GP time   MFLOPS |";
    let w = t.head(&format!("{header}   ratio  T3D-rat  T3E-rat"));
    for name in mats {
        let p = ctx.paper(name);
        let gp = p.baseline();
        // S* times exclude the (static) symbolic analysis, as in the paper
        let (stats, ts) = p.factor();
        // §6.1 projection: S* operations at the measured BLAS-3 fraction
        // against SuperLU's operations at h = 0.82
        let (ops, r) = (stats.gemm_flops + stats.other_flops, stats.blas3_fraction());
        let proj = |mm: &MachineModel| mm.sequential_time(ops, r) / mm.superlu_time(gp.flops, 0.82);
        let (st, sm, gt, gm) = (secs(ts), p.mflops(ts), secs(gp.secs), p.mflops(gp.secs));
        let ratio = ts / gp.secs;
        let host = format!(" {st:>9} {sm:>8.1} | {gt:>9} {gm:>8.1} | {ratio:>7.2}");
        let model = format!(" {:>8.2} {:>8.2}", proj(&T3D), proj(&T3E));
        t.row(format!("{name:<10} |"), host, &model);
    }
    t.text(&rule(w));
}

fn table3(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    for machine in [&T3D, &T3E] {
        t.text(&format!("== {} ==", machine.name));
        let head = |p| format!(" {:>8}", format!("P={p}"));
        let cell = |name: &str, p| {
            let prep = ctx.paper(name);
            format!(" {:>8.1}", prep.mflops(prep.pt1d(machine, p)))
        };
        per_p(t, (mats, procs), head, cell);
        t.text("");
    }
}

fn table4(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    pct_grid(t, (mats, procs), |name, p| {
        let plain = ctx.prep(name, paper_scale(name), 25, 0);
        ctx.paper(name).pt1d(&T3E, p) / plain.pt1d(&T3E, p)
    });
}

/// The 2D asynchronous makespan of `name` on `p` processors of
/// `machine`, and its MFLOPS (Tables 5 and 6).
fn async_2d(ctx: &Ctx, name: &str, p: usize, machine: &MachineModel) -> (f64, f64) {
    let prep = ctx.paper(name);
    let pt = prep.pt2d(machine, Grid::for_procs(p), Mode2d::Async);
    (pt, prep.mflops(pt))
}

fn table5(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    let head = |p| format!(" {:>10} {:>8}", format!("P={p} time"), "MFLOPS");
    per_p(t, (mats, procs), head, |name, p| {
        let (pt, rate) = async_2d(ctx, name, p, &T3D);
        format!(" {:>10} {rate:>8.1}", secs(pt))
    });
}

fn table6(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    let (head, mut best) = (|p| format!(" {:>9} {:>7}", format!("P={p}"), "MF"), 0.0f64);
    per_p(t, (mats, procs), head, |name, p| {
        let (pt, rate) = async_2d(ctx, name, p, &T3E);
        best = best.max(rate);
        format!(" {:>9} {rate:>7.0}", secs(pt))
    });
    t.text(&format!("best projected rate: {best:.0} MFLOPS"));
}

fn table7(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    pct_grid(t, (mats, procs), |name, p| {
        let (prep, grid) = (ctx.paper(name), Grid::for_procs(p));
        prep.pt2d(&T3E, grid, Mode2d::Async) / prep.pt2d(&T3E, grid, Mode2d::Barrier)
    });
}

fn fig16(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    pct_grid(t, (mats, procs), |name, p| {
        // compute-ahead pays one buffered-receive copy per incoming word;
        // RAPID's one-sided transport pays none
        let (prep, mut opts) = (ctx.paper(name), SimOptions::default());
        opts.recv_copy_per_word = T3E.beta;
        let ca = simulate_opts(prep.graph(), &ca_schedule(prep.graph(), p), &T3E, opts);
        prep.pt1d(&T3E, p) / ca.makespan
    });
}

fn fig17(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    pct_grid(t, (mats, procs), |name, p| {
        let prep = ctx.paper(name);
        prep.pt1d(&T3E, p) / prep.pt2d(&T3E, Grid::for_procs(p), Mode2d::Async)
    });
}

fn fig18(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    for &p in procs {
        let w = t.head(&format!("P = {p}:\nmatrix           1D       2D"));
        let (mut sum1, mut sum2) = (0.0, 0.0);
        for name in mats {
            let prep = ctx.paper(name);
            let f1 = load_balance_factor(prep.graph(), &prep.sched1d(&T3E, p).proc_of, p, &T3E);
            let f2 = load_balance_factor_2d(&prep.solver.pattern, Grid::for_procs(p), &T3E);
            t.text(&format!("{name:<10} {f1:>8.3} {f2:>8.3}"));
            (sum1, sum2) = (sum1 + f1, sum2 + f2);
        }
        let (mean1, mean2) = (sum1 / mats.len() as f64, sum2 / mats.len() as f64);
        t.text(&rule(w));
        t.text(&format!("mean:      {mean1:>8.3} {mean2:>8.3}\n"));
    }
}

/// A small test matrix from a picture (`x` = entry).
fn picture(rows: &[&str]) -> CscMatrix {
    let n = rows.len();
    let mut c = CooMatrix::new(n, n);
    for (i, r) in rows.iter().enumerate() {
        for (j, _) in r.match_indices('x') {
            c.push(i, j, 1.0 + (i * n + j) as f64 * 0.01);
        }
    }
    c.to_csc()
}

/// `x` = original entry, `+` = predicted fill, `.` = structural zero.
fn show_pattern(t: &mut Table, title: &str, a: &CscMatrix, s: &StaticStructure) {
    t.text(title);
    for i in 0..a.nrows() {
        let glyph = |j| match (a.is_stored(i, j), s.contains(i, j)) {
            (true, _) => "x ",
            (_, true) => "+ ",
            _ => ". ",
        };
        let row: String = (0..a.ncols()).map(glyph).collect();
        t.text(&format!("  {row}"));
    }
}

fn one_based(v: &[u32]) -> Vec<u32> {
    v.iter().map(|x| x + 1).collect()
}

fn fig_examples(_: &Ctx, t: &mut Table, _: &[&str], _: &[usize]) {
    t.text("== Fig. 2: static symbolic factorization, 5×5 example ==\n");
    let a5 = picture(&["x.x..", "xx...", "..xx.", ".x.xx", "x...x"]);
    let s5 = symfact(&a5);
    for k in 0..5 {
        let (p, u, step) = (one_based(&s5.lcols[k]), one_based(&s5.urows[k]), k + 1);
        let (cand, union) = (format!("P_{step} = {p:?}"), format!("U_{step} = {u:?}"));
        t.text(&format!("step {step}: candidates {cand}, union {union}"));
    }
    show_pattern(t, "\npredicted pattern (x = original, + = fill):", &a5, &s5);

    t.text("\n== Fig. 4: L/U supernode partitioning, 7×7 example ==\n");
    let a7 = picture(&[
        "xx..x..", "xx.x...", "..x.x.x", ".x.x.x.", "x.x.x..", "...x.xx", "..x..xx",
    ]);
    let s7 = symfact(&a7);
    let part = amalgamate(&s7, &partition_supernodes(&s7, 25), 0, 25);
    let starts = &part.starts;
    let line = format!("supernode partition: {starts:?} (block boundaries)");
    t.text(&line);
    let bp = std::sync::Arc::new(BlockPattern::build(&s7, &part));
    show_pattern(t, "static pattern with blocks:", &a7, &s7);
    for (k, us) in bp.u_blocks.iter().enumerate() {
        for u in us {
            let (i, j, c, kind) = (k + 1, u.j + 1, one_based(&u.cols), u.kind);
            let line = format!("U block ({i}, {j}): dense subcolumns at {c:?} [{kind:?}]");
            t.text(&line);
        }
    }

    t.text("\n== Fig. 9: task dependence graph of the Fig. 4 example ==\n");
    let g = TaskGraph::build(&bp);
    let name = |s: &u32| g.tasks[*s as usize].to_string();
    for (task, succs) in g.tasks.iter().zip(&g.succs) {
        let succs: Vec<String> = succs.iter().map(name).collect();
        t.text(&format!("{:<8} → {}", task.to_string(), succs.join(", ")));
    }

    t.text("\n== Fig. 11: schedules on 2 processors (task weight 2, edge weight 1) ==\n");
    let mut unit = T3E;
    (unit.w1, unit.w2, unit.w3, unit.alpha, unit.beta) = (1.0, 1.0, 1.0, 1.0, 0.0);
    let mut gu = g.clone();
    gu.flops.iter_mut().for_each(|f| *f = (2, 0));
    gu.msg_words.iter_mut().for_each(|w| *w = 0);
    let rca = simulate(&gu, &ca_schedule(&gu, 2), &unit);
    let rgs = simulate(&gu, &graph_schedule(&gu, 2, &unit), &unit);
    for (label, r) in [("compute-ahead", &rca), ("graph", &rgs)] {
        let (pt, chart) = (r.makespan, gantt::render_sequences(&gu, r));
        t.text(&format!("{label} schedule (PT = {pt}):\n{chart}"));
    }
    let (pg, pc) = (rgs.makespan, rca.makespan);
    let verdict = if pg <= pc {
        "matches or beats"
    } else {
        "loses to"
    };
    let tail = format!("the compute-ahead schedule ({pg} vs {pc}).\n");
    t.text(&format!("graph scheduling {verdict} {tail}"));
}

/// Sweep one analysis parameter on each matrix: `opts(v)` is the (block
/// size, r) pair of value `v` and `model` the model columns after it,
/// followed by the host sequential time and the 1D makespan at every P.
fn sweep(
    ctx: &Ctx,
    t: &mut Table,
    (mats, procs): (&[&str], &[usize]),
    (head, values): (&str, &[usize]),
    opts: fn(usize) -> (usize, usize),
    model: fn(&Prep, &FactorStats) -> String,
) {
    let pt_head = |p: &usize| format!(" {:>12}", format!("PT({p},T3E)"));
    let pts: String = procs.iter().map(pt_head).collect();
    for name in mats {
        t.text(&format!("{name} (n = {}):", ctx.paper(name).a.nrows()));
        let w = t.head(&format!("{head}  seq time{pts}"));
        for &v in values {
            let (bsize, r) = opts(v);
            let prep = ctx.prep(name, paper_scale(name), bsize, r);
            let (stats, ts) = prep.factor();
            let pt = |p: &usize| format!(" {:>12}", secs(prep.pt1d(&T3E, *p)));
            let pts: String = procs.iter().map(pt).collect();
            let host = format!(" {:>9}", secs(ts));
            t.row(format!("{v:<6}{}", model(&prep, &stats)), host, &pts);
        }
        t.text(&format!("{}\n", rule(w)));
    }
}

fn block_size_cols(prep: &Prep, stats: &FactorStats) -> String {
    let (pattern, blas3) = (&prep.solver.pattern, 100.0 * stats.blas3_fraction());
    let (storage, blocks) = (pattern.storage_entries(), pattern.nblocks());
    format!(" {storage:>10} {blas3:>7.1}% {blocks:>9}")
}

fn ablation_block_size(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    let values: &[usize] = &[4, 8, 16, 25, 40, 64];
    let head = ("bsize     storage    blas3    blocks", values);
    sweep(ctx, t, (mats, procs), head, |b| (b, 4), block_size_cols);
}

fn amalgamation_cols(prep: &Prep, _: &FactorStats) -> String {
    let (s, pattern) = (&prep.solver, &prep.solver.pattern);
    let padding = 100.0 * (pattern.storage_entries() as f64 / s.static_factor_nnz() as f64 - 1.0);
    let (blocks, width) = (pattern.nblocks(), pattern.part.avg_width());
    format!(" {blocks:>8} {width:>9.2} {padding:>9.1}%")
}

fn ablation_amalgamation(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    let values: &[usize] = &[0, 1, 2, 4, 6, 8, 12];
    let head = ("r        blocks     avg w   padding%", values);
    sweep(ctx, t, (mats, procs), head, |r| (25, r), amalgamation_cols);
}

fn ablation_aspect_ratio(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    for (name, &p) in mats.iter().flat_map(|n| procs.iter().map(move |p| (n, p))) {
        let prep = ctx.paper(name);
        let head = "grid                 PT    vs best";
        t.head(&format!("{name}, P = {p}:\n{head}"));
        let grids = (1..=p)
            .filter(|pr| p % pr == 0)
            .map(|pr| Grid::new(pr, p / pr));
        let run = |g: Grid| (g, prep.pt2d(&T3E, g, Mode2d::Async));
        let runs: Vec<(Grid, f64)> = grids.map(run).collect();
        let best = runs.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        for (g, pt) in runs {
            let (shape, worse) = (format!("{}x{}", g.pr, g.pc), 100.0 * (pt / best - 1.0));
            t.text(&format!("{shape:<10} {:>12} {worse:>9.0}%", secs(pt)));
        }
        t.text("");
    }
}

fn ablation_memory(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    let header = "matrix             S1 |     1D max   S1/max |     2D max   S1/max |";
    for &p in procs {
        let w = t.head(&format!("P = {p}:\n{header}  RAPIDbuf    2D buf"));
        for name in mats {
            let prep = ctx.prep(name, 0.5, 25, 4);
            let pattern = &prep.solver.pattern;
            let (grid, s1) = (Grid::for_procs(p), pattern.storage_entries());
            // 1D cyclic: a processor holds whole column blocks; 2D
            // block-cyclic: a processor holds its blocks
            let (mut per1, mut per2) = (vec![0usize; p], vec![0usize; p]);
            for b in 0..pattern.nblocks() {
                let w = pattern.part.width(b);
                let (lb, ub) = (&pattern.l_blocks[b], &pattern.u_blocks[b]);
                let l = lb.iter().map(|l| (l.i as usize, b, l.rows.len()));
                let u = ub.iter().map(|u| (b, u.j as usize, u.cols.len()));
                for (i, j, len) in l.chain(u).chain([(b, b, w)]) {
                    per1[j % p] += len * w;
                    per2[grid.owner_of_block(i, j)] += len * w;
                }
            }
            let max = |per: Vec<usize>| per.into_iter().max().unwrap_or(0);
            let (max1, max2) = (max(per1), max(per2));
            let (f1, f2) = (s1 as f64 / max1 as f64, s1 as f64 / max2 as f64);
            // measured peak message buffers on the thread backend; the
            // RAPID-style schedule's aggressive stage overlap is what §5.2
            // charges with O(S1)-level buffering
            let (a, pat) = (&prep.solver.permuted, || pattern.clone());
            let r1 = factor_par1d(a, pat(), p, Strategy1d::GraphScheduled(T3E));
            let r2 = factor_par2d(a, pat(), grid, Sync2d::Async);
            let peak_k = |b: &[u64]| b.iter().max().unwrap_or(&0) / 1024;
            let (k1, k2) = (peak_k(&r1.peak_buffer_bytes), peak_k(&r2.peak_buffer_bytes));
            let d1 = format!("{max1:>10} {f1:>7.1}x");
            let d2 = format!("{max2:>10} {f2:>7.1}x");
            let model = format!("{name:<10} {s1:>10} | {d1} | {d2} |");
            t.row(model, format!(" {k1:>8}K {k2:>8}K"), "");
        }
        t.text(&format!("{}\n", rule(w)));
    }
}

/// The 2D factorization with the in-order schedule (`W = 0`) that
/// Theorem 2 is about.
fn in_order_2d(prep: &Prep, grid: Grid, mode: Sync2d) -> Par2dResult {
    let mut opts = Par2dOptions::default();
    (opts.mode, opts.window) = (mode, 0);
    let (a, pattern) = (&prep.solver.permuted, prep.solver.pattern.clone());
    factor_par2d_with(a, pattern, grid, &opts).expect("par2d")
}

fn ablation_overlap_buffers(ctx: &Ctx, t: &mut Table, mats: &[&str], procs: &[usize]) {
    let header = "matrix     grid    p_c  in-col bound  paper est |";
    let w = t.head(&format!("{header}  overlap   in-col  peak buf  holds"));
    for name in mats {
        let prep = ctx.prep(name, 0.5, 25, 4);
        // §5.2 estimate: 2.5 · n · BSIZE · s words, s = fill density
        let n = prep.a.ncols() as f64;
        let s = prep.solver.static_factor_nnz() as f64 / (n * n);
        let est_k = (2.5 * n * 25.0 * s * 8.0) as u64 / 1024;
        for &p in procs {
            let grid = Grid::for_procs(p);
            let (pr, pc, shape) = (grid.pr, grid.pc, format!("{}x{}", grid.pr, grid.pc));
            let r = in_order_2d(&prep, grid, Sync2d::Async);
            let overlap = r.overlap_degree() as usize;
            let in_col = (0..pc as u32).map(|c| r.overlap_degree_within_col(c)).max();
            let peak_k = r.peak_buffer_bytes.iter().max().unwrap_or(&0) / 1024;
            // the machine-wide bound is the checked one; the in-column
            // bound is printed next to its measurement
            let holds = if overlap <= pc { "yes" } else { "NO" };
            t.broken |= overlap > pc;
            let (bound, in_col) = ((pr - 1).min(pc), in_col.unwrap_or(0));
            let model = format!("{name:<10} {shape:<6} {pc:>4} {bound:>12} {est_k:>9}K |");
            let host = format!(" {overlap:>8} {in_col:>8} {peak_k:>8}K {holds:>6}");
            t.row(model, host, "");
        }
    }
    t.text(&format!("{}\n", rule(w)));
    let (Some(name), Some(&p)) = (mats.first(), procs.first()) else {
        return;
    };
    let grid = Grid::for_procs(p);
    let prep = ctx.prep(name, 0.5, 25, 4);
    let overlap = in_order_2d(&prep, grid, Sync2d::Barrier).overlap_degree();
    t.broken |= overlap != 0;
    let shape = format!("{}x{}", grid.pr, grid.pc);
    let label = format!("barrier variant ({name}, {shape}) stage overlap: ");
    t.row(label, overlap.to_string(), " (must be 0)\n");
}

/// Every experiment, in the order `splu repro` runs them (kept in table
/// layout: one entry per table or figure).
#[rustfmt::skip]
pub static MANIFEST: &[Experiment] = &[
    Experiment { id: "table1_matrices", cells: table1, procs: &[],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin e40r0100 \
                   ex11 raefsky4 inaccura af23560 vavasis3 b33_5600 dense1000",
        title: "Table 1: testing matrices and their statistics\n(synthetic stand-ins; large \
                matrices scaled by 0.25; ratios vs the Gilbert–Peierls baseline on the same \
                preprocessed matrix)",
        shape: "paper's claims to check: S*/GP factor-entry ratio mostly < 1.5; chol(AtA) \
                bound much looser; ops ratio up to ~5." },
    Experiment { id: "table2_sequential", cells: table2, procs: &[],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin b33_5600 \
                   dense1000",
        title: "Table 2: sequential performance — S* vs SuperLU-like baseline\n(host \
                wall-clock; T3D/T3E ratio columns are cost-model projections, h = 0.82)",
        shape: "paper's claim to check: S* stays competitive with the baseline despite the\n\
                extra static flops (paper: ratios ~0.4–2), and the BLAS-3 advantage makes the\n\
                projected ratio smaller on T3E than on T3D." },
    Experiment { id: "table3_rapid_1d", cells: table3, procs: &[2, 4, 8, 16, 32, 64],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin e40r0100 \
                   b33_5600",
        title: "Table 3: absolute MFLOPS of the 1D graph-scheduled code (DES projection)\n\
                (large matrices scaled by 0.25)",
        shape: "paper's shape to check: MFLOPS grow with P but saturate for the small\n\
                matrices; T3E numbers roughly 3× the T3D numbers (the paper observes ~3×)." },
    Experiment { id: "table4_amalgamation", cells: table4, procs: &[1, 2, 4, 8, 16, 32],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4",
        title: "Table 4: parallel-time improvement from supernode amalgamation\n\
                (1 − PT(r=4)/PT(r=0), 1D graph-scheduled, T3E model)",
        shape: "paper's shape to check: amalgamation helps at every processor count (the\n\
                paper reports 10–60 %, shrinking somewhat at P = 32)." },
    Experiment { id: "table5_2d_t3d", cells: table5, procs: &[16, 32, 64],
        matrices: "goodwin e40r0100 ex11 raefsky4 vavasis3",
        title: "Table 5: 2D asynchronous code on large matrices (T3D model)\n\
                (large matrices scaled by 0.25)",
        shape: "paper's shape to check: MFLOPS grow with P (the paper reaches 1.48 GFLOPS\n\
                on 64 T3D nodes at full scale; scaled matrices saturate earlier)." },
    Experiment { id: "table6_2d_t3e", cells: table6, procs: &[8, 16, 32, 64, 128],
        matrices: "goodwin e40r0100 ex11 raefsky4 inaccura af23560 vavasis3",
        title: "Table 6: 2D asynchronous code (T3E model)\n(large matrices scaled by 0.25)",
        shape: "paper's shape to check: MFLOPS keep growing to P = 128 (the paper reaches\n\
                8.38 GFLOPS on 128 T3E nodes at full scale; our matrices are 4× smaller)." },
    Experiment { id: "table7_async_vs_sync", cells: table7, procs: &[2, 4, 8, 16, 32, 64],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin e40r0100 \
                   raefsky4 vavasis3",
        title: "Table 7: improvement of 2D asynchronous over 2D synchronous (T3E model)\n\
                (1 − PT_async/PT_sync; large matrices scaled by 0.25)",
        shape: "paper's shape to check: the asynchronous design wins everywhere, more so\n\
                at larger P (paper: ~3–35 %, larger at P ≥ 8)." },
    Experiment { id: "fig16_sched_compare", cells: fig16, procs: &[2, 4, 8, 16, 32, 64],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin e40r0100 \
                   b33_5600",
        title: "Fig. 16: 1 − PT_RAPID/PT_CA (positive = graph scheduling wins), T3E model",
        shape: "paper's shape to check: small (even negative) differences at P ≤ 4, a\n\
                growing RAPID advantage beyond (paper: 10–40 % for P > 4; our transport\n\
                model flatters CA below P = 32, see EXPERIMENTS.md)." },
    Experiment { id: "fig17_1d_vs_2d", cells: fig17, procs: &[4, 8, 16, 32],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin",
        title: "Fig. 17: 1 − PT_RAPID/PT_2D (positive = 1D graph-scheduled wins), T3E model",
        shape: "paper's shape to check: the 1D RAPID code wins when memory permits, but\n\
                the gap narrows where 2D's better load balance compensates (cf. Fig. 18)." },
    Experiment { id: "fig18_load_balance", cells: fig18, procs: &[32],
        matrices: "sherman5 lnsp3937 lns3937 sherman3 jpwh991 orsreg1 saylr4 goodwin e40r0100",
        title: "Fig. 18: load balance factors, 1D graph-scheduled vs 2D block-cyclic\n\
                (update work total / (P · max per processor); 1.0 = perfect)",
        shape: "paper's claim to check: the 2D block-cyclic mapping balances better on most\n\
                matrices, partially compensating for its simpler task ordering (Fig. 17)." },
    Experiment { id: "fig_examples", cells: fig_examples, procs: &[], matrices: "",
        title: "Figs. 2, 4, 9 and 11: the paper's worked small examples",
        shape: "paper's shape to check: every U block of Fig. 4 consists of dense\n\
                subcolumns (Theorem 1); the graph schedule matches or beats compute-ahead." },
    Experiment { id: "ablation_block_size", cells: ablation_block_size, procs: &[16],
        matrices: "sherman5",
        title: "Ablation: maximum block (supernode) size sweep (r = 4; PT from the T3E model)",
        shape: "expected: sequential time improves with larger blocks (BLAS-3 share), but\n\
                the projected parallel time bottoms out at a moderate size — the trade-off\n\
                behind the paper's choice of 25." },
    Experiment { id: "ablation_amalgamation", cells: ablation_amalgamation, procs: &[8],
        matrices: "sherman3",
        title: "Ablation: amalgamation-factor sweep (block 25; PT from the T3E model)",
        shape: "expected: moderate r merges narrow supernodes into larger blocks (better\n\
                BLAS-3, fewer messages) at the cost of padded zeros; beyond r ≈ 6 padding\n\
                grows faster than the gain — the paper's r in 4..6 window." },
    Experiment { id: "ablation_aspect_ratio", cells: ablation_aspect_ratio, procs: &[16, 64],
        matrices: "goodwin e40r0100",
        title: "Ablation: 2D grid aspect-ratio sweep (T3E model)",
        shape: "expected: wide grids (p_c ≥ p_r) win; extreme shapes (P×1) serialize one\n\
                of the two phases. The paper settles on p_c/p_r = 2." },
    Experiment { id: "ablation_memory", cells: ablation_memory, procs: &[8],
        matrices: "sherman5 orsreg1 goodwin",
        title: "Ablation: per-processor storage, 1D vs 2D mapping (entries, max over procs)\n\
                (matrices scaled by 0.5; buffers are measured thread-backend peaks)",
        shape: "paper's claim to check (§5.2): the 2D mapping's per-processor share is\n\
                ≈ S1/p while the 1D mapping is less balanced, and the 1D code additionally\n\
                buffers whole pivot panels (its message buffers dominate the 2D code's)." },
    Experiment { id: "ablation_overlap_buffers", cells: ablation_overlap_buffers, procs: &[4, 8, 9],
        matrices: "sherman5 orsreg1 saylr4",
        title: "Ablation: Theorem 2 overlap degrees + buffer space (thread backend, W = 0)\n\
                (matrices scaled by 0.5; grid = the p_c/p_r ≈ 2 grid of each P)",
        shape: "paper's claim to check: Theorem 2 bounds the stage overlap by p_c on every\n\
                run (holds: overlap ≤ p_c) and by min(p_r − 1, p_c) within a processor\n\
                column (in-col vs its bound); peak buffers are the same order as the\n\
                paper's 2.5·n·BSIZE·s estimate (both < 100K words here)." },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preparation_scales_large_only() {
        assert_eq!(paper_scale("jpwh991"), 1.0);
        assert_eq!(paper_scale("vavasis3"), LARGE_SCALE);
        let vavasis3 = suite::by_name("vavasis3").unwrap();
        assert!(vavasis3.build_scaled(paper_scale("vavasis3")).nrows() < 41092 / 2);
        let ctx = Ctx::default();
        assert!(ctx.paper("goodwin").a.nrows() < 7320 / 2);
        let small = ctx.paper("jpwh991");
        assert_eq!(small.a.nrows(), 991);
        // the baseline factors the preprocessed matrix S* factors
        let gp = small.baseline();
        assert!(gp.flops > 0 && gp.nnz > small.a.nnz());
    }
}
