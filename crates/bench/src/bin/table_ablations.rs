//! **Experiment E10** — ablations of the code generator's design choices
//! (paper §3.2, §3.3, §6 future work):
//!
//! * CSE off / per-task / global (bytecode instruction counts and
//!   per-call cost),
//! * merge threshold for small tasks,
//! * splitting of large tasks,
//! * shared-CSE extraction across tasks ("we will have to extract some
//!   of the larger common subexpressions and compute them in parallel"),
//! * static vs semi-dynamic LPT under load imbalance from conditionals.

use om_codegen::cse::CseMode;
use om_codegen::{lpt, CodeGenerator, GenOptions};
use om_models::bearing2d::{self, BearingConfig};
use om_runtime::sim::simulate_rhs_time;
use om_runtime::{ExecutorPool, MachineSpec, ParallelRhs, Strategy};
use om_solver::OdeSystem;
use std::time::Instant;

fn main() {
    let cfg = BearingConfig {
        waviness: 8,
        ..BearingConfig::default()
    };
    let ir = bearing2d::ir(&cfg);
    let machine = MachineSpec::sparc_center_2000();
    let workers = 6;

    println!(
        "== E10 ablations (2D bearing, {} workers on {}) ==\n",
        workers, machine.name
    );
    println!(
        "{:<34} {:>8} {:>12} {:>12} {:>12}",
        "configuration", "tasks", "instrs", "flops", "sim µs/call"
    );
    println!("{}", om_bench::rule(82));

    let mut rows = Vec::new();
    let mut run = |label: &str, options: GenOptions| {
        let program = CodeGenerator::new(options).generate(&ir);
        let graph = &program.graph;
        let instrs: usize = graph.tasks.iter().map(|t| t.program.len()).sum();
        let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
        let sched = if graph.is_independent() {
            lpt(&costs, workers)
        } else {
            om_codegen::list_schedule(&costs, &graph.deps, workers)
        };
        let sim = simulate_rhs_time(
            graph,
            &sched.assignment,
            workers,
            &machine,
            om_codegen::comm::MessagePolicy::WholeState,
        );
        println!(
            "{:<34} {:>8} {:>12} {:>12} {:>12.1}",
            label,
            graph.tasks.len(),
            instrs,
            graph.total_cost(),
            sim.total * 1e6
        );
        rows.push(format!(
            "{label},{},{instrs},{},{:.3}",
            graph.tasks.len(),
            graph.total_cost(),
            sim.total * 1e6
        ));
    };

    run("baseline (per-task CSE)", GenOptions::default());
    run(
        "CSE off",
        GenOptions {
            cse: CseMode::Off,
            ..GenOptions::default()
        },
    );
    run(
        "no task merging",
        GenOptions {
            merge_threshold: 0,
            ..GenOptions::default()
        },
    );
    run(
        "aggressive merging (256)",
        GenOptions {
            merge_threshold: 256,
            ..GenOptions::default()
        },
    );
    run(
        "split large tasks (600)",
        GenOptions {
            split_threshold: Some(600),
            ..GenOptions::default()
        },
    );
    run(
        "shared-CSE extraction (200)",
        GenOptions {
            extract_shared_min_cost: Some(200),
            ..GenOptions::default()
        },
    );
    run(
        "algebraics as tasks (no inline)",
        GenOptions {
            inline_algebraics: false,
            ..GenOptions::default()
        },
    );
    om_bench::write_csv(
        "table_ablations",
        "config,tasks,instrs,flops,sim_us_per_call",
        &rows,
    );

    // Static vs semi-dynamic scheduling under conditional load imbalance.
    // The bearing's contact forces switch on and off as rollers enter the
    // loaded zone, so measured task times drift away from the static
    // estimates.
    println!("\n-- static vs semi-dynamic LPT (host threads, 4 workers) --");
    let graph = om_bench::bearing_graph(&cfg, 48);
    let y0 = ir.initial_state();
    let calls = 4000;
    let mut sched_rows = Vec::new();
    for (label, period) in [("static schedule", 0usize), ("semi-dynamic (every 16)", 16)] {
        let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
        let sched = lpt(&costs, 4);
        let pool = ExecutorPool::build(graph.clone(), 4, sched.assignment, Strategy::default())
            .expect("valid pool");
        let mut rhs = ParallelRhs::new(pool, period);
        let mut dydt = vec![0.0; rhs.dim()];
        for _ in 0..200 {
            rhs.rhs(0.0, &y0, &mut dydt);
        }
        let start = Instant::now();
        for k in 0..calls {
            rhs.rhs(k as f64 * 1e-6, &y0, &mut dydt);
        }
        let rate = calls as f64 / start.elapsed().as_secs_f64();
        println!("  {label:<26} {rate:>10.0} RHS calls/s");
        sched_rows.push(format!("{label},{rate:.0}"));
    }
    om_bench::write_csv("table_ablation_sched", "schedule,calls_per_s", &sched_rows);
}
