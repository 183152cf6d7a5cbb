//! Critical-path and wall-time attribution over a recorded [`Trace`].
//!
//! The 2D driver's flight-recorder timelines say *what ran when*; this
//! module turns them into the paper's diagnostic questions: where did
//! the wall time go per processor (compute vs. communication wait vs.
//! idle), how long is the critical path through the op DAG (the speedup
//! ceiling `T_1 / T_∞`), how deep did the pipeline actually run against
//! the Theorem 2 `p_c + W` bound, and how does the measured message
//! volume compare with the 2D cost model's per-stage prediction.
//!
//! Attribution partitions each rank's wall time exactly (categories sum
//! to 100 %): an edge sweep assigns every instant to the highest-
//! priority active activity — `panel-factor` > `scale-swap` (TRSM) >
//! `update` (GEMM) > `row-swap` (swap/comm) > blocked-receive wait
//! (pivot/panel wait, from the runtime's `recv-wait` marks) — and the
//! remainder is idle.
//!
//! The op DAG is reconstructed conservatively: per-rank program order
//! plus the stage dependencies `panel(k) → trsm(k) → update(k) →
//! panel(k+1)`, keeping only edges whose source span *ended* before the
//! dependent span started (a dependency that did not complete in time
//! cannot have been real), which also guarantees acyclicity under
//! lookahead pipelining.

use crate::json::{self, escape_into, Value};
use crate::{Mark, ProcTimeline, Span, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Span name the 2D driver uses for supernodal panel factorization.
pub const SPAN_PANEL: &str = "panel-factor";
/// Span name for the TRSM (scale/swap) stage.
pub const SPAN_TRSM: &str = "scale-swap";
/// Span name for the GEMM update stage.
pub const SPAN_GEMM: &str = "update";
/// Span name for explicit row interchanges.
pub const SPAN_SWAP: &str = "row-swap";
/// Mark the machine runtime emits when a blocking receive completes;
/// its detail is the nanoseconds the receiver was blocked.
pub const MARK_RECV_WAIT: &str = "recv-wait";

/// Attribution categories, in sweep priority order; `idle` is the
/// remainder and always last.
pub const CATEGORIES: [&str; 6] = [
    "panel_factor",
    "trsm",
    "gemm",
    "swap_comm",
    "pivot_wait",
    "idle",
];

const NCAT: usize = CATEGORIES.len();
const IDLE: usize = NCAT - 1;

/// One processor's exact wall-time partition.
#[derive(Debug, Clone)]
pub struct RankAttribution {
    /// Processor rank.
    pub rank: u32,
    /// Wall time attributed (the global trace extent), nanoseconds.
    pub wall_ns: u64,
    /// Nanoseconds per category, summing exactly to `wall_ns`.
    pub category_ns: [u64; NCAT],
}

/// The full analysis of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Global wall time (trace extent), nanoseconds.
    pub wall_ns: u64,
    /// Per-rank partitions.
    pub ranks: Vec<RankAttribution>,
    /// Category totals over all ranks.
    pub total_ns: [u64; NCAT],
    /// Total compute time (panel + trsm + gemm + swap), nanoseconds —
    /// the `T_1` of the speedup-ceiling estimate.
    pub total_work_ns: u64,
    /// Longest dependency chain through the reconstructed op DAG,
    /// nanoseconds — the `T_∞` estimate.
    pub critical_path_ns: u64,
    /// Number of spans on the critical path.
    pub critical_path_spans: usize,
    /// `T_1 / T_∞`: no schedule on any processor count beats this.
    pub speedup_ceiling: f64,
    /// Tick-weighted 95th percentile of distinct update stages
    /// concurrently in flight (measured from span overlap).
    pub pipeline_depth_p95: u32,
    /// Messages sent (from the `sends` counters).
    pub messages: u64,
    /// Bytes sent (from the `send_bytes` counters).
    pub bytes: u64,
}

/// Longest path through a DAG given per-node costs and dependency
/// lists (`deps[i]` are indices that must complete before node `i`).
/// Returns the path length (sum of node costs along it) and the node
/// indices in execution order, or an error if the graph has a cycle.
pub fn critical_path(costs: &[u64], deps: &[Vec<usize>]) -> Result<(u64, Vec<usize>), String> {
    assert_eq!(costs.len(), deps.len());
    let n = costs.len();
    // Kahn topological order over the dependency edges
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        indeg[i] = ds.len();
        for &d in ds {
            assert!(d < n, "dependency index out of range");
            out[d].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut dist = vec![0u64; n];
    let mut pred: Vec<Option<usize>> = vec![None; n];
    let mut seen = 0usize;
    while let Some(i) = ready.pop() {
        seen += 1;
        let di = dist[i] + costs[i];
        for &j in &out[i] {
            if di > dist[j] {
                dist[j] = di;
                pred[j] = Some(i);
            }
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.push(j);
            }
        }
    }
    if seen != n {
        return Err("dependency graph has a cycle".to_string());
    }
    let end = match (0..n).max_by_key(|&i| dist[i] + costs[i]) {
        Some(e) => e,
        None => return Ok((0, Vec::new())),
    };
    let length = dist[end] + costs[end];
    let mut path = vec![end];
    let mut cur = end;
    while let Some(p) = pred[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    Ok((length, path))
}

fn category_of(name: &str) -> Option<usize> {
    match name {
        SPAN_PANEL => Some(0),
        SPAN_TRSM => Some(1),
        SPAN_GEMM => Some(2),
        SPAN_SWAP => Some(3),
        _ => None,
    }
}

/// Exact wall-time partition for one rank: sweep the span/wait interval
/// edges, assigning each segment to the highest-priority active
/// category.
fn attribute_rank(p: &ProcTimeline, wall_ns: u64) -> RankAttribution {
    // (time, category, +1/-1) edges
    let mut edges: Vec<(u64, usize, i64)> = Vec::new();
    for s in &p.spans {
        if let Some(c) = category_of(s.name) {
            if s.end_ns > s.start_ns {
                edges.push((s.start_ns.min(wall_ns), c, 1));
                edges.push((s.end_ns.min(wall_ns), c, -1));
            }
        }
    }
    for m in &p.marks {
        if m.name == MARK_RECV_WAIT && m.detail > 0 {
            let start = m.t_ns.saturating_sub(m.detail);
            edges.push((start.min(wall_ns), 4, 1));
            edges.push((m.t_ns.min(wall_ns), 4, -1));
        }
    }
    edges.sort_unstable_by_key(|&(t, _, _)| t);
    let mut depth = [0i64; NCAT];
    let mut category_ns = [0u64; NCAT];
    let mut last = 0u64;
    for (t, c, d) in edges {
        if t > last {
            let active = (0..IDLE).find(|&i| depth[i] > 0).unwrap_or(IDLE);
            category_ns[active] += t - last;
            last = t;
        }
        depth[c] += d;
    }
    if wall_ns > last {
        category_ns[IDLE] += wall_ns - last;
    }
    RankAttribution {
        rank: p.rank,
        wall_ns,
        category_ns,
    }
}

/// Tick-weighted p95 of distinct update stages concurrently in flight,
/// measured over the time where at least one update span is active.
fn measured_depth_p95(trace: &Trace) -> u32 {
    // (time, stage, +1/-1)
    let mut events: Vec<(u64, u32, i64)> = Vec::new();
    for p in &trace.procs {
        for s in &p.spans {
            if s.name == SPAN_GEMM && s.end_ns > s.start_ns {
                events.push((s.start_ns, s.detail, 1));
                events.push((s.end_ns, s.detail, -1));
            }
        }
    }
    if events.is_empty() {
        return 0;
    }
    events.sort_unstable_by_key(|&(t, _, _)| t);
    let mut active: BTreeMap<u32, i64> = BTreeMap::new();
    let mut time_at_depth: BTreeMap<usize, u64> = BTreeMap::new();
    let mut last = events[0].0;
    for (t, k, d) in events {
        let depth = active.len();
        if depth > 0 && t > last {
            *time_at_depth.entry(depth).or_insert(0) += t - last;
        }
        last = t;
        let e = active.entry(k).or_insert(0);
        *e += d;
        if *e == 0 {
            active.remove(&k);
        }
    }
    let covered: u64 = time_at_depth.values().sum();
    if covered == 0 {
        return 0;
    }
    let threshold = (covered as f64 * 0.95).ceil() as u64;
    let mut cum = 0u64;
    for (&depth, &t) in &time_at_depth {
        cum += t;
        if cum >= threshold {
            return depth as u32;
        }
    }
    *time_at_depth.keys().last().unwrap() as u32
}

/// Reconstruct the op DAG and compute the critical path. Nodes are the
/// compute spans; edges are per-rank program order plus the stage chain
/// `panel(k) → trsm(k) → update(k) → panel(k+1)`, restricted to pairs
/// where the source completed before the target started.
fn span_dag_critical_path(trace: &Trace) -> (u64, usize) {
    #[derive(Clone, Copy)]
    struct Node {
        cat: usize,
        stage: u32,
        start: u64,
        end: u64,
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut by_rank: Vec<Vec<usize>> = Vec::new();
    for p in &trace.procs {
        let mut mine: Vec<usize> = Vec::new();
        for s in &p.spans {
            if let Some(cat) = category_of(s.name) {
                if cat <= 2 {
                    mine.push(nodes.len());
                    nodes.push(Node {
                        cat,
                        stage: s.detail,
                        start: s.start_ns,
                        end: s.end_ns,
                    });
                }
            }
        }
        mine.sort_by_key(|&i| (nodes[i].start, nodes[i].end));
        by_rank.push(mine);
    }
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    // program order: each span depends on its predecessor on the rank
    for mine in &by_rank {
        for w in mine.windows(2) {
            deps[w[1]].push(w[0]);
        }
    }
    // stage chain, filtered to causally-possible edges
    let mut by_stage_cat: BTreeMap<(u32, usize), Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        by_stage_cat.entry((n.stage, n.cat)).or_default().push(i);
    }
    let link = |from: &[usize], to: &[usize], deps: &mut [Vec<usize>]| {
        for &t in to {
            for &f in from {
                if nodes[f].end <= nodes[t].start {
                    deps[t].push(f);
                }
            }
        }
    };
    let stages: Vec<u32> = {
        let mut s: Vec<u32> = by_stage_cat.keys().map(|&(k, _)| k).collect();
        s.dedup();
        s
    };
    let empty: Vec<usize> = Vec::new();
    for (si, &k) in stages.iter().enumerate() {
        let panel = by_stage_cat.get(&(k, 0)).unwrap_or(&empty);
        let trsm = by_stage_cat.get(&(k, 1)).unwrap_or(&empty);
        let gemm = by_stage_cat.get(&(k, 2)).unwrap_or(&empty);
        link(panel, trsm, &mut deps);
        link(trsm, gemm, &mut deps);
        if si + 1 < stages.len() {
            if let Some(next_panel) = by_stage_cat.get(&(stages[si + 1], 0)) {
                link(gemm, next_panel, &mut deps);
            }
        }
    }
    let costs: Vec<u64> = nodes.iter().map(|n| n.end - n.start).collect();
    match critical_path(&costs, &deps) {
        Ok((len, path)) => (len, path.len()),
        Err(_) => (0, 0),
    }
}

/// Analyze a trace: exact per-rank wall-time partition, op-DAG critical
/// path, measured pipeline depth, and communication totals.
pub fn attribute(trace: &Trace) -> Attribution {
    let wall_ns = trace.extent_ns();
    let ranks: Vec<RankAttribution> = trace
        .procs
        .iter()
        .map(|p| attribute_rank(p, wall_ns))
        .collect();
    let mut total_ns = [0u64; NCAT];
    for r in &ranks {
        for (t, v) in total_ns.iter_mut().zip(r.category_ns) {
            *t += v;
        }
    }
    let total_work_ns: u64 = total_ns[..4].iter().sum();
    let (critical_path_ns, critical_path_spans) = span_dag_critical_path(trace);
    let speedup_ceiling = if critical_path_ns > 0 {
        total_work_ns as f64 / critical_path_ns as f64
    } else {
        1.0
    };
    Attribution {
        wall_ns,
        ranks,
        total_ns,
        total_work_ns,
        critical_path_ns,
        critical_path_spans,
        speedup_ceiling,
        pipeline_depth_p95: measured_depth_p95(trace),
        messages: trace.counter_total("sends"),
        bytes: trace.counter_total("send_bytes"),
    }
}

/// The 2D cost model instantiated for our protocol: per elimination
/// stage, `p_r − 1` pivot-candidate messages up the column, `p_r − 1`
/// pivot-row replies, one L-panel row multicast per panel-column rank
/// (`p_r (p_c − 1)`) and one batched U-row column multicast per
/// pivot-row rank (`p_c (p_r − 1)`) — per-stage message count depends
/// only on the grid, the paper's 2D scalability argument. Predicted
/// bytes charge each factor entry its multicast fan-out (L entries
/// travel `p_c − 1` ways along rows, U entries `p_r − 1` down columns;
/// entries are split evenly absent an exact L/U split).
#[derive(Debug, Clone, Copy, Default)]
pub struct CommModel {
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Elimination (block) stages.
    pub stages: usize,
    /// Factor entries (nnz of L+U, or the static storage bound).
    pub factor_entries: u64,
}

impl CommModel {
    /// Predicted total message count.
    pub fn predicted_messages(&self) -> u64 {
        let (pr, pc) = (self.pr as u64, self.pc as u64);
        let per_stage = 2 * (pr - 1) + pr * (pc - 1) + pc * (pr - 1);
        self.stages as u64 * per_stage
    }

    /// Predicted total bytes.
    pub fn predicted_bytes(&self) -> u64 {
        let (pr, pc) = (self.pr as u64, self.pc as u64);
        8 * (self.factor_entries / 2) * ((pc - 1) + (pr - 1))
    }
}

/// Run facts the caller supplies alongside the trace for reporting.
#[derive(Debug, Clone, Default)]
pub struct ReportExtras {
    /// Matrix name.
    pub matrix: String,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Lookahead window `W`.
    pub lookahead: usize,
    /// Executor-measured sustained pipeline depth (tick-weighted p95
    /// from `Par2dResult`), when the run happened in-process; `None`
    /// falls back to the trace-measured overlap depth.
    pub executor_depth_p95: Option<u32>,
    /// Cost model for the message-volume comparison (`None` omits it).
    pub model: Option<CommModel>,
    /// Seconds of one sequential factorization of the same matrix, the
    /// base of the work inflation (`None` omits it).
    pub seq_secs: Option<f64>,
}

impl ReportExtras {
    /// Theorem 2 pipeline-depth bound `p_c + W`.
    pub fn depth_bound(&self) -> u32 {
        (self.pc + self.lookahead) as u32
    }

    fn depth(&self, a: &Attribution) -> u32 {
        self.executor_depth_p95.unwrap_or(a.pipeline_depth_p95)
    }

    /// Work inflation `Σ_r busy_r / seq`: the ranks' busy time (wall time
    /// minus pivot wait and idle, i.e. the compute categories) over one
    /// sequential factorization. `1` means the grid does no more work
    /// than the sequential code; above it is per-rank overhead.
    pub fn work_inflation(&self, a: &Attribution) -> Option<f64> {
        self.seq_secs
            .filter(|&s| s > 0.0)
            .map(|s| secs(a.total_work_ns) / s)
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Schema-stable JSON report.
pub fn report_json(a: &Attribution, x: &ReportExtras) -> String {
    let mut out = String::from("{\n  \"report\": \"splu_analyze\",\n");
    let _ = write!(out, "  \"matrix\": ");
    escape_into(&mut out, &x.matrix);
    let _ = writeln!(out, ",");
    let _ = writeln!(out, "  \"pr\": {},", x.pr);
    let _ = writeln!(out, "  \"pc\": {},", x.pc);
    let _ = writeln!(out, "  \"lookahead\": {},", x.lookahead);
    let _ = writeln!(out, "  \"wall_secs\": {:.6},", secs(a.wall_ns));
    let _ = writeln!(out, "  \"total_work_secs\": {:.6},", secs(a.total_work_ns));
    let _ = writeln!(
        out,
        "  \"critical_path_secs\": {:.6},",
        secs(a.critical_path_ns)
    );
    let _ = writeln!(out, "  \"critical_path_spans\": {},", a.critical_path_spans);
    let _ = writeln!(out, "  \"speedup_ceiling\": {:.4},", a.speedup_ceiling);
    let depth = x.depth(a);
    let _ = writeln!(out, "  \"pipeline_depth_p95\": {depth},");
    let _ = writeln!(out, "  \"pipeline_depth_bound\": {},", x.depth_bound());
    let _ = writeln!(
        out,
        "  \"pipeline_depth_ok\": {},",
        depth <= x.depth_bound()
    );
    let _ = writeln!(out, "  \"messages\": {},", a.messages);
    let _ = writeln!(out, "  \"bytes\": {},", a.bytes);
    if let Some(m) = &x.model {
        let _ = writeln!(out, "  \"model_messages\": {},", m.predicted_messages());
        let _ = writeln!(out, "  \"model_bytes\": {},", m.predicted_bytes());
    }
    if let (Some(seq), Some(inflation)) = (x.seq_secs, x.work_inflation(a)) {
        let _ = writeln!(out, "  \"seq_factor_secs\": {seq:.6},");
        let _ = writeln!(out, "  \"work_inflation\": {inflation:.4},");
    }
    out.push_str("  \"attribution\": {");
    let mut first = true;
    for (name, &ns) in CATEGORIES.iter().zip(&a.total_ns) {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\n    \"{name}_secs\": {:.6}", secs(ns));
    }
    out.push_str("\n  },\n  \"ranks\": [");
    first = true;
    for r in &a.ranks {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "\n    {{\"rank\": {}, \"wall_secs\": {:.6}",
            r.rank,
            secs(r.wall_ns)
        );
        for (name, &ns) in CATEGORIES.iter().zip(&r.category_ns) {
            let _ = write!(out, ", \"{name}_secs\": {:.6}", secs(ns));
        }
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Human-readable ASCII report (per-rank percentage table).
pub fn report_text(a: &Attribution, x: &ReportExtras) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "splu analyze — {} ({}×{} grid, lookahead {})",
        x.matrix, x.pr, x.pc, x.lookahead
    );
    let _ = writeln!(
        out,
        "wall {:.3} ms   work {:.3} ms   critical path {:.3} ms ({} spans)   \
         speedup ceiling {:.2}×",
        1e3 * secs(a.wall_ns),
        1e3 * secs(a.total_work_ns),
        1e3 * secs(a.critical_path_ns),
        a.critical_path_spans,
        a.speedup_ceiling
    );
    let depth = x.depth(a);
    let bound = x.depth_bound();
    let _ = writeln!(
        out,
        "pipeline depth p95: {depth} {} bound p_c + W = {bound}",
        if depth <= bound { "≤" } else { "EXCEEDS" }
    );
    match &x.model {
        Some(m) => {
            let pm = m.predicted_messages().max(1);
            let pb = m.predicted_bytes().max(1);
            let _ = writeln!(
                out,
                "messages: {} (model {}, ratio {:.2})   bytes: {} (model {}, ratio {:.2})",
                a.messages,
                pm,
                a.messages as f64 / pm as f64,
                a.bytes,
                pb,
                a.bytes as f64 / pb as f64
            );
        }
        None => {
            let _ = writeln!(out, "messages: {}   bytes: {}", a.messages, a.bytes);
        }
    }
    if let (Some(seq), Some(inflation)) = (x.seq_secs, x.work_inflation(a)) {
        let _ = writeln!(
            out,
            "work inflation: {inflation:.2}× (Σ busy {:.3} ms over {} ranks, seq factor {:.3} ms)",
            1e3 * secs(a.total_work_ns),
            a.ranks.len(),
            1e3 * seq
        );
    }
    let _ = writeln!(
        out,
        "{:<6}{:>9}{:>9}{:>9}{:>11}{:>12}{:>8}",
        "rank", "panel", "trsm", "gemm", "swap/comm", "pivot-wait", "idle"
    );
    for r in &a.ranks {
        let pct = |c: usize| 100.0 * r.category_ns[c] as f64 / r.wall_ns.max(1) as f64;
        let _ = writeln!(
            out,
            "P{:<5}{:>8.1}%{:>8.1}%{:>8.1}%{:>10.1}%{:>11.1}%{:>7.1}%",
            r.rank,
            pct(0),
            pct(1),
            pct(2),
            pct(3),
            pct(4),
            pct(5)
        );
    }
    out
}

/// Intern an event name from a loaded trace file onto the small static
/// vocabulary the recorder uses (unknown names map to `"other"`).
fn intern(name: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        SPAN_PANEL,
        SPAN_TRSM,
        SPAN_GEMM,
        SPAN_SWAP,
        MARK_RECV_WAIT,
        "send",
        "recv",
        "park",
        "unpark",
        "poison",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == name)
        .copied()
        .unwrap_or("other")
}

/// Load a Chrome trace-event JSON file (as written by `splu trace`)
/// back into a [`Trace`], reconstructing the `sends`/`send_bytes`
/// counters from the send marks.
pub fn trace_from_chrome_json(text: &str) -> Result<Trace, String> {
    let v = json::parse(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Value::items)
        .ok_or("missing traceEvents array")?;
    let mut procs: BTreeMap<u32, ProcTimeline> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap_or("");
        let tid = e.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32;
        let name = e.get("name").and_then(Value::as_str).unwrap_or("");
        let ts_ns = |key: &str| -> u64 {
            (e.get(key).and_then(Value::as_f64).unwrap_or(0.0) * 1e3).round() as u64
        };
        match ph {
            "X" => {
                let p = procs.entry(tid).or_insert_with(|| ProcTimeline {
                    rank: tid,
                    ..Default::default()
                });
                let start = ts_ns("ts");
                p.spans.push(Span {
                    name: intern(name),
                    detail: e
                        .get("args")
                        .and_then(|a| a.get("k"))
                        .and_then(Value::as_u64)
                        .unwrap_or(0) as u32,
                    start_ns: start,
                    end_ns: start + ts_ns("dur"),
                });
            }
            "i" => {
                let p = procs.entry(tid).or_insert_with(|| ProcTimeline {
                    rank: tid,
                    ..Default::default()
                });
                let detail = e
                    .get("args")
                    .and_then(|a| a.get("detail"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0);
                let name = intern(name);
                p.marks.push(Mark {
                    name,
                    detail,
                    t_ns: ts_ns("ts"),
                });
                if name == "send" {
                    *p.counters.entry("sends").or_insert(0) += 1;
                    *p.counters.entry("send_bytes").or_insert(0) += detail;
                }
            }
            _ => {}
        }
    }
    Ok(Trace {
        procs: procs.into_values().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn critical_path_on_a_chain() {
        // 0 → 1 → 2, costs 3/4/5: length 12, the whole chain
        let costs = [3, 4, 5];
        let deps = vec![vec![], vec![0], vec![1]];
        let (len, path) = critical_path(&costs, &deps).unwrap();
        assert_eq!(len, 12);
        assert_eq!(path, vec![0, 1, 2]);
    }

    #[test]
    fn critical_path_picks_the_longest_branch() {
        // diamond: 0 → {1 (cost 10), 2 (cost 1)} → 3
        let costs = [2, 10, 1, 4];
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let (len, path) = critical_path(&costs, &deps).unwrap();
        assert_eq!(len, 2 + 10 + 4);
        assert_eq!(path, vec![0, 1, 3]);
    }

    #[test]
    fn critical_path_handles_disconnected_components() {
        // two chains: {0 → 1} of length 5, {2} of length 9
        let costs = [2, 3, 9];
        let deps = vec![vec![], vec![0], vec![]];
        let (len, path) = critical_path(&costs, &deps).unwrap();
        assert_eq!(len, 9);
        assert_eq!(path, vec![2]);
    }

    #[test]
    fn critical_path_rejects_cycles() {
        let costs = [1, 1];
        let deps = vec![vec![1], vec![0]];
        assert!(critical_path(&costs, &deps).is_err());
    }

    #[test]
    fn critical_path_of_empty_graph_is_zero() {
        let (len, path) = critical_path(&[], &[]).unwrap();
        assert_eq!(len, 0);
        assert!(path.is_empty());
    }

    fn span(name: &'static str, detail: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            detail,
            start_ns,
            end_ns,
        }
    }

    /// Two ranks, 10 µs wall. Rank 0: panel [0,4µs], gemm [4,8µs];
    /// rank 1: recv-wait [0,3µs], gemm overlapping trsm.
    fn hand_trace() -> Trace {
        let mut p0 = ProcTimeline {
            rank: 0,
            ..Default::default()
        };
        p0.spans.push(span(SPAN_PANEL, 0, 0, 4_000));
        p0.spans.push(span(SPAN_GEMM, 0, 4_000, 8_000));
        p0.counters.insert("sends", 2);
        p0.counters.insert("send_bytes", 100);
        let mut p1 = ProcTimeline {
            rank: 1,
            ..Default::default()
        };
        p1.marks.push(Mark {
            name: MARK_RECV_WAIT,
            detail: 3_000,
            t_ns: 3_000,
        });
        p1.spans.push(span(SPAN_TRSM, 0, 3_000, 6_000));
        // overlaps the trsm tail: priority sweep charges trsm first
        p1.spans.push(span(SPAN_GEMM, 0, 5_000, 10_000));
        Trace {
            procs: vec![p0, p1],
        }
    }

    #[test]
    fn attribution_partitions_wall_time_exactly() {
        let a = attribute(&hand_trace());
        assert_eq!(a.wall_ns, 10_000);
        for r in &a.ranks {
            let sum: u64 = r.category_ns.iter().sum();
            assert_eq!(sum, r.wall_ns, "rank {} must partition exactly", r.rank);
        }
        let r0 = &a.ranks[0];
        assert_eq!(r0.category_ns[0], 4_000); // panel
        assert_eq!(r0.category_ns[2], 4_000); // gemm
        assert_eq!(r0.category_ns[5], 2_000); // idle tail
        let r1 = &a.ranks[1];
        assert_eq!(r1.category_ns[4], 3_000); // pivot wait
        assert_eq!(r1.category_ns[1], 3_000); // trsm wins the overlap
        assert_eq!(r1.category_ns[2], 4_000); // gemm after the trsm ends
        assert_eq!(r1.category_ns[5], 0);
        assert_eq!(a.messages, 2);
        assert_eq!(a.bytes, 100);
    }

    #[test]
    fn trace_critical_path_respects_stage_chain() {
        // panel(0) on rank 0 [0,4], trsm(0) on rank 1 [3,6]: the trsm
        // started before the panel ended, so no cross edge — but the
        // gemm(0) on rank 1 [5,10] chains after rank-1's trsm by program
        // order. Longest chain: trsm(3µs) + gemm(5µs) = 8 µs.
        let a = attribute(&hand_trace());
        assert_eq!(a.critical_path_ns, 8_000);
        assert!(a.critical_path_spans >= 2);
        assert!(a.speedup_ceiling >= 1.0);
        // total work = panel 4 + gemm 4 + trsm 3 + gemm(5, minus 1 µs
        // shadowed by trsm in attribution but full span in work? no —
        // work comes from the attribution partition: 4+4+3+4 = 15 µs
        assert_eq!(a.total_work_ns, 15_000);
    }

    #[test]
    fn depth_measures_distinct_stages() {
        // stage 0 and stage 1 updates overlapping on two ranks
        let mut p0 = ProcTimeline {
            rank: 0,
            ..Default::default()
        };
        p0.spans.push(span(SPAN_GEMM, 0, 0, 10_000));
        let mut p1 = ProcTimeline {
            rank: 1,
            ..Default::default()
        };
        p1.spans.push(span(SPAN_GEMM, 1, 0, 10_000));
        let t = Trace {
            procs: vec![p0, p1],
        };
        assert_eq!(measured_depth_p95(&t), 2);
        // same stage on both ranks: depth 1
        let mut p1b = ProcTimeline {
            rank: 1,
            ..Default::default()
        };
        p1b.spans.push(span(SPAN_GEMM, 0, 0, 10_000));
        let t1 = Trace {
            procs: vec![t.procs[0].clone(), p1b],
        };
        assert_eq!(measured_depth_p95(&t1), 1);
    }

    #[test]
    fn comm_model_counts_per_stage_fanout() {
        let m = CommModel {
            pr: 2,
            pc: 2,
            stages: 10,
            factor_entries: 1000,
        };
        // per stage: 2·1 + 2·1 + 2·1 = 6
        assert_eq!(m.predicted_messages(), 60);
        assert_eq!(m.predicted_bytes(), 8 * 500 * 2);
        // 1×1 grid: nothing to say
        let m1 = CommModel {
            pr: 1,
            pc: 1,
            stages: 10,
            factor_entries: 1000,
        };
        assert_eq!(m1.predicted_messages(), 0);
        assert_eq!(m1.predicted_bytes(), 0);
    }

    #[test]
    fn report_json_is_schema_stable_and_parses() {
        let a = attribute(&hand_trace());
        let x = ReportExtras {
            matrix: "hand".into(),
            pr: 2,
            pc: 1,
            lookahead: 1,
            executor_depth_p95: None,
            model: Some(CommModel {
                pr: 2,
                pc: 1,
                stages: 1,
                factor_entries: 10,
            }),
            seq_secs: Some(secs(a.total_work_ns) / 2.0),
        };
        let j = report_json(&a, &x);
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("report").unwrap().as_str(), Some("splu_analyze"));
        for key in [
            "matrix",
            "pr",
            "pc",
            "lookahead",
            "wall_secs",
            "total_work_secs",
            "critical_path_secs",
            "critical_path_spans",
            "speedup_ceiling",
            "pipeline_depth_p95",
            "pipeline_depth_bound",
            "pipeline_depth_ok",
            "messages",
            "bytes",
            "model_messages",
            "model_bytes",
            "seq_factor_secs",
            "work_inflation",
            "attribution",
            "ranks",
        ] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        let inflation = v.get("work_inflation").unwrap().as_f64().unwrap();
        assert!((inflation - 2.0).abs() < 1e-3, "Σ busy / seq: {inflation}");
        assert!(report_text(&a, &x).contains("work inflation: 2.00×"));
        let attr = v.get("attribution").unwrap();
        for c in CATEGORIES {
            assert!(attr.get(&format!("{c}_secs")).is_some(), "missing {c}");
        }
        let ranks = v.get("ranks").unwrap().items().unwrap();
        assert_eq!(ranks.len(), 2);
        assert!(ranks[0].get("gemm_secs").is_some());
    }

    #[test]
    fn report_text_has_one_row_per_rank() {
        let a = attribute(&hand_trace());
        let x = ReportExtras {
            matrix: "hand".into(),
            pr: 2,
            pc: 1,
            lookahead: 0,
            ..Default::default()
        };
        let t = report_text(&a, &x);
        assert!(t.contains("P0"));
        assert!(t.contains("P1"));
        assert!(t.contains("speedup ceiling"));
        assert!(t.contains("bound p_c + W = 1"));
    }

    #[test]
    fn chrome_round_trip_preserves_attribution() {
        let t = hand_trace();
        let json_text = crate::export::chrome_trace_json(&t);
        let t2 = trace_from_chrome_json(&json_text).unwrap();
        assert_eq!(t2.procs.len(), 2);
        let a1 = attribute(&t);
        let a2 = attribute(&t2);
        assert_eq!(a1.wall_ns, a2.wall_ns);
        assert_eq!(a1.total_ns, a2.total_ns);
        assert_eq!(a1.critical_path_ns, a2.critical_path_ns);
        // counters rebuilt from send marks (hand trace has none → 0;
        // the loader still parses the span/mark streams)
        assert!(trace_from_chrome_json("{\"traceEvents\":[]}").is_ok());
        assert!(trace_from_chrome_json("not json").is_err());
    }
}
