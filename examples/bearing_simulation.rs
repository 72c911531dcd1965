//! The paper's flagship workload: parallel simulation of the 2D rolling
//! bearing (Figures 4–6), comparing serial and parallel RHS evaluation
//! and printing the dependency structure the analysis finds.
//!
//! ```text
//! cargo run --release --example bearing_simulation [rollers] [workers]
//! ```

use objectmath::analysis::{build_dependency_graph, partition_by_scc};
use objectmath::codegen::{CodeGenerator, GenOptions};
use objectmath::models::bearing2d::{self, BearingConfig};
use objectmath::runtime::{ExecutorPool, ParallelRhs, Strategy};
use objectmath::solver::{dopri5, FnSystem, OdeSystem, Tolerances};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let rollers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(10);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let cfg = BearingConfig {
        rollers,
        waviness: 4,
        ..BearingConfig::default()
    };
    println!("== 2D rolling bearing, {rollers} rollers, {workers} workers ==");
    let sys = bearing2d::ir(&cfg);
    println!(
        "model: {} states, {} algebraic equations",
        sys.dim(),
        sys.algebraics.len()
    );

    // Equation-system-level analysis: the bearing famously does NOT
    // partition (one giant SCC plus the revolutions counter).
    let dep = build_dependency_graph(&sys);
    let part = partition_by_scc(&dep);
    println!(
        "SCC sizes: {:?}  (paper: all equations but one in one SCC)",
        part.scc_sizes()
    );

    // Equation-level parallel code.
    let generator = CodeGenerator::new(GenOptions {
        merge_threshold: 32,
        ..GenOptions::default()
    });
    let program = generator.generate(&sys);
    let schedule = program.schedule(workers);
    println!(
        "tasks: {} (total {} flops), LPT imbalance {:.3}",
        program.graph.tasks.len(),
        program.graph.total_cost(),
        schedule.imbalance()
    );

    let tol = Tolerances {
        rtol: 1e-6,
        atol: 1e-10,
        max_steps: 5_000_000,
        ..Tolerances::default()
    };
    let t_end = 2e-3;
    let y0 = sys.initial_state();

    // Serial baseline: the same generated code, evaluated in this thread.
    let serial_graph = program.graph.clone();
    let mut serial = FnSystem::new(sys.dim(), move |t, y: &[f64], d: &mut [f64]| {
        serial_graph.eval_serial(t, y, d);
    });
    let start = Instant::now();
    let serial_sol = dopri5(&mut serial, 0.0, &y0, t_end, &tol).expect("serial solve");
    let serial_time = start.elapsed();
    println!(
        "serial:   {} RHS calls in {serial_time:?}",
        serial_sol.stats.rhs_calls
    );

    // Parallel run through the worker pool.
    let pool = ExecutorPool::build(
        program.graph,
        workers,
        schedule.assignment,
        Strategy::WorkStealing,
    )
    .expect("valid pool");
    let mut rhs = ParallelRhs::new(pool, 32);
    let start = Instant::now();
    let par_sol = dopri5(&mut rhs, 0.0, &y0, t_end, &tol).expect("parallel solve");
    let par_time = start.elapsed();
    println!(
        "parallel: {} RHS calls in {par_time:?} ({:.0} RHS calls/s)",
        par_sol.stats.rhs_calls,
        rhs.rhs_calls_per_sec()
    );
    println!(
        "scheduler overhead: {:.4}% ({} reschedules)",
        100.0 * rhs.scheduler.overhead_fraction(par_time),
        rhs.scheduler.reschedules
    );

    // Agreement between serial and parallel trajectories.
    let y_idx = sys.find_state("y").expect("state exists");
    let wi_idx = sys.find_state("wi").expect("state exists");
    println!(
        "final ring drop: serial {:.3e} m, parallel {:.3e} m",
        serial_sol.y_end()[y_idx],
        par_sol.y_end()[y_idx]
    );
    println!(
        "final shaft speed: serial {:.3} rad/s, parallel {:.3} rad/s",
        serial_sol.y_end()[wi_idx],
        par_sol.y_end()[wi_idx]
    );
    let max_diff = serial_sol
        .y_end()
        .iter()
        .zip(par_sol.y_end())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |serial − parallel| = {max_diff:.3e}");

    // A taste of the RHS throughput measurement behind Figure 12.
    let mut dydt = vec![0.0; rhs.dim()];
    let start = Instant::now();
    let calls = 2000;
    for k in 0..calls {
        rhs.rhs(k as f64 * 1e-6, &y0, &mut dydt);
    }
    let dt = start.elapsed();
    println!(
        "steady-state throughput: {:.0} RHS calls/s on {workers} host workers",
        calls as f64 / dt.as_secs_f64()
    );
}
