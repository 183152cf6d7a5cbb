//! Flight-recorder integration: factor with the recorder on, export the
//! Chrome trace, parse it back, and cross-check against the runtime's
//! own communication accounting.
#![cfg(feature = "probe")]

use sstar::core::par2d::{factor_par2d_with, Par2dOptions};
use sstar::machine::Grid;
use sstar::machine::RunOptions;
use sstar::prelude::*;
use sstar::probe::export::{chrome_trace_json, run_summary_json, SummaryExtras};
use sstar::probe::json::{parse, Value};
use sstar::probe::Collector;
use sstar::sparse::gen::{self, ValueModel};

fn traced_run(grid: Grid) -> (sstar::core::par2d::Par2dResult, sstar::probe::Trace) {
    let a = gen::grid2d(9, 9, 0.4, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let collector = Collector::new();
    let opts = Par2dOptions {
        run: RunOptions {
            trace: Some(&collector),
            ..RunOptions::default()
        },
        window: 1,
        ..Par2dOptions::default()
    };
    let r = factor_par2d_with(&solver.permuted, solver.pattern.clone(), grid, &opts).unwrap();
    (r, collector.finish())
}

#[test]
fn chrome_trace_has_a_track_per_proc_and_matches_comm_stats() {
    let grid = Grid::new(2, 2);
    let (r, trace) = traced_run(grid);
    let text = chrome_trace_json(&trace);
    let doc = parse(&text).expect("exporter must emit valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Value::items)
        .expect("traceEvents array");

    // one thread-name metadata record and at least one track per processor
    let mut meta_tids = std::collections::BTreeSet::new();
    let mut span_tids = std::collections::BTreeSet::new();
    let mut send_marks = 0u64;
    let mut recv_marks = 0u64;
    let mut spans = 0u64;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap();
        let tid = ev.get("tid").and_then(Value::as_u64).unwrap();
        match ph {
            "M" => {
                meta_tids.insert(tid);
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .unwrap();
                assert_eq!(name, format!("proc {tid}"));
            }
            "X" => {
                span_tids.insert(tid);
                spans += 1;
                // complete events carry non-negative duration
                assert!(ev.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
            }
            "i" => match ev.get("name").and_then(Value::as_str).unwrap() {
                "send" => send_marks += 1,
                "recv" => recv_marks += 1,
                _ => {}
            },
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    let all: std::collections::BTreeSet<u64> = (0..grid.nprocs() as u64).collect();
    assert_eq!(meta_tids, all, "one thread_name record per processor");
    assert_eq!(span_tids, all, "every processor recorded stage spans");

    // one send mark per message the runtime counted; receives can fall
    // short only by messages still parked when the machine shut down
    assert_eq!(send_marks, r.comm.0, "send marks vs CommStats messages");
    assert!(recv_marks <= send_marks);
    assert!(recv_marks > 0);

    // exported span count equals the in-memory trace's
    let in_mem: u64 = trace.procs.iter().map(|p| p.spans.len() as u64).sum();
    assert_eq!(spans, in_mem);
}

#[test]
fn run_summary_reports_comm_and_stage_totals() {
    let grid = Grid::new(2, 2);
    let (r, trace) = traced_run(grid);
    let extras = SummaryExtras {
        matrix: "grid9".into(),
        n: 81,
        nnz: 0,
        procs: grid.nprocs(),
        wall_secs: r.elapsed,
        messages: r.comm.0,
        bytes: r.comm.1,
        peak_buffer_bytes: r.peak_buffer_bytes.iter().copied().max().unwrap_or(0),
        pipeline_depth_p95: r.sustained_depth_p95(),
    };
    let doc = parse(&run_summary_json(&trace, &extras)).unwrap();
    assert_eq!(
        doc.get("pipeline_depth_p95").and_then(Value::as_u64),
        Some(r.sustained_depth_p95() as u64)
    );
    assert_eq!(doc.get("messages").and_then(Value::as_u64), Some(r.comm.0));
    assert_eq!(doc.get("bytes").and_then(Value::as_u64), Some(r.comm.1));
    assert_eq!(doc.get("procs").and_then(Value::as_u64), Some(4));

    // the probe's own counters agree with the runtime's accounting
    let counters = doc.get("counters").unwrap();
    assert_eq!(
        counters.get("sends").and_then(Value::as_u64),
        Some(r.comm.0)
    );
    assert_eq!(
        counters.get("send_bytes").and_then(Value::as_u64),
        Some(r.comm.1)
    );

    // every paper stage shows up with a positive total
    let stages = doc.get("stages").unwrap();
    for name in ["panel-factor", "scale-swap", "row-swap", "update"] {
        let st = stages.get(name).unwrap_or_else(|| panic!("stage {name}"));
        assert!(st.get("count").and_then(Value::as_u64).unwrap() > 0);
        assert!(st.get("total_secs").and_then(Value::as_f64).unwrap() >= 0.0);
    }

    // flop counters present (the 2D update path is BLAS-3)
    assert!(counters.get("flops_blas3").and_then(Value::as_u64).unwrap() > 0);
}

#[test]
fn sequential_factor_traced_records_single_proc_timeline() {
    let a = gen::grid2d(8, 8, 0.3, ValueModel::default());
    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let collector = Collector::new();
    let lu = solver.factor_traced(&collector).expect("nonsingular");
    let trace = collector.finish();
    assert_eq!(trace.procs.len(), 1);
    let tl = &trace.procs[0];
    let panels = tl.spans.iter().filter(|s| s.name == "panel-factor").count();
    let updates = tl.spans.iter().filter(|s| s.name == "update").count();
    assert_eq!(panels, lu.stats.factor_tasks);
    assert_eq!(updates, lu.stats.update_tasks);
    assert!(tl.counters["pivot_search_rows"] > 0);
    assert!(tl.counters.contains_key("fill_entries"));
}
