//! Parallel scaling study: the 2D code on the thread machine, plus
//! projected Cray T3E times of the 1D compute-ahead and graph schedules
//! from the discrete-event simulator — a miniature of the paper's §6
//! experiments.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use sstar::prelude::*;
use sstar::sched::{ca_schedule, graph_schedule, simulate, TaskGraph};
use sstar::sparse::gen::{self, ValueModel};
use std::time::Instant;

fn main() {
    // goodwin-class block fluid-flow matrix, scaled to run quickly
    let a = gen::block_fluid(420, 10, 18, 0.3, ValueModel::default());
    println!("matrix: n = {}, nnz = {}", a.ncols(), a.nnz());

    let solver = SparseLuSolver::analyze(&a, FactorOptions::default());
    let ap = &solver.permuted;
    let pattern = solver.pattern.clone();

    // sequential reference
    let t0 = Instant::now();
    let lu = solver.factor().expect("nonsingular");
    let t_seq = t0.elapsed().as_secs_f64();
    println!(
        "sequential: {:.3} s (BLAS-3 {:.0} %)\n",
        t_seq,
        100.0 * lu.stats.blas3_fraction()
    );

    // The thread backend validates the distributed protocols (its wall
    // clock is meaningless on hosts with fewer cores than processors —
    // this build machine has one core); speedups come from the machine
    // model below.
    println!("-- thread backend (protocol validation) -------------------------");
    println!("{:>5} {:>14} {:>12}", "P", "2D-async (s)", "msgs");
    for p in [2usize, 4] {
        let t0 = Instant::now();
        let r = factor_par2d(ap, pattern.clone(), Grid::for_procs(p), Sync2d::Async);
        let t2d = t0.elapsed().as_secs_f64();
        // confirm the sequential pivots on every grid
        assert_eq!(lu.pivots, r.pivots);
        println!("{p:>5} {t2d:>14.3} {:>12}", r.comm.0);
    }
    println!("(every grid produced the sequential pivot sequence)");

    println!("\n-- projected Cray T3E (discrete-event model) -------------------");
    let graph = TaskGraph::build(&pattern);
    println!(
        "{:>5} {:>12} {:>12} {:>12}",
        "P", "CA (s)", "RAPID (s)", "RAPID gain"
    );
    for p in [2usize, 4, 8, 16, 32, 64] {
        let ca = simulate(&graph, &ca_schedule(&graph, p), &T3E).makespan;
        let gs = simulate(&graph, &graph_schedule(&graph, p, &T3E), &T3E).makespan;
        println!(
            "{p:>5} {ca:>12.4} {gs:>12.4} {:>11.1}%",
            100.0 * (1.0 - gs / ca)
        );
    }
}
