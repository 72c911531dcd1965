//! **Experiment E10** — ablations of the code generator's design choices
//! (paper §3.2, §3.3, §6 future work):
//!
//! * CSE off / per-task / global (bytecode instruction counts and
//!   per-call cost),
//! * merge threshold for small tasks,
//! * splitting of large tasks,
//! * shared-CSE extraction across tasks ("we will have to extract some
//!   of the larger common subexpressions and compute them in parallel"),
//! * static vs semi-dynamic LPT under load imbalance from conditionals,
//! * the product placement (cluster-scoped CSE, one cluster per worker)
//!   beside those simulated rows, and measured on this host against the
//!   equation-level graph in thread and on a 2-worker work-stealing pool,
//!   raw and behind `ParallelRhs`, and born serial on the one-cluster
//!   graph as `omc simulate` runs it (experiments E20, E21, E22, E24).

use om_codegen::cse::CseMode;
use om_codegen::task::TaskGraph;
use om_codegen::{lpt, BatchScratch, CodeGenerator, GenOptions};
use om_models::bearing2d::{self, BearingConfig};
use om_runtime::sim::simulate_rhs_time;
use om_runtime::{ExecutorPool, FaultConfig, FaultPlan, MachineSpec, ParallelRhs, Strategy};
use om_solver::OdeSystem;
use std::time::Instant;

/// Median ns per call of `f` over five batches of 4 000 calls, after one
/// warm-up batch.
fn median_ns(f: &mut dyn FnMut()) -> f64 {
    let calls = 4000;
    let mut ns: Vec<f64> = (0..6)
        .map(|_| {
            let start = Instant::now();
            (0..calls).for_each(|_| f());
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    ns[1..].sort_by(f64::total_cmp);
    ns[3]
}

/// E20: size and measured ns per RHS call of the equation-level graph
/// and the 1- and 2-worker placements, in thread (one-lane
/// `eval_batch`, median of five batches) and on a 2-worker ws pool —
/// raw (`ExecutorPool::rhs`, the static assignment) and, as `omc
/// simulate` runs it, through `ParallelRhs` rescheduling every 16 calls
/// from the measured task times and hand-off (E21), supervisor-only
/// calls running the pool's own graph — and born serial, as `omc
/// simulate` runs it: the one-cluster graph in thread, this graph
/// compiled in only if a helper pays (E22, E24).
fn measured_placements() {
    println!("\n-- E20 placement vs equation-level graph (host, ns per RHS call) --");
    println!(
        "model          graph           tasks   instrs    in-thread   ws2 pool   ws2 via ParallelRhs   \
            ws2 born serial"
    );
    let bearing = |rollers| {
        bearing2d::ir(&BearingConfig {
            rollers,
            ..BearingConfig::default()
        })
    };
    let models = [
        ("bearing2d/10", bearing(10)),
        ("bearing2d/24", bearing(24)),
        ("bearing3d", om_models::bearing3d::ir(&Default::default())),
    ];
    let generator = CodeGenerator::default();
    let mut rows = Vec::new();
    for (name, ir) in &models {
        let program = generator.generate(ir);
        let [one, two] = [1, 2].map(|m| generator.place(ir, &program.tasks, m));
        let eq_assignment = program.schedule(2).assignment;
        let graphs = [
            ("equation-level", &program.graph, &eq_assignment),
            ("m = 1", &one.graph, &one.assignment),
            ("m = 2", &two.graph, &two.assignment),
        ];
        let y = ir.initial_state();
        let mut dydt = vec![0.0; y.len()];
        for (label, graph, assignment) in graphs {
            let mut scratch = BatchScratch::new(graph, 1);
            let serial = median_ns(&mut || graph.eval_batch(0.0, &y, &mut dydt, &mut scratch));
            let mut pool =
                ExecutorPool::build(graph.clone(), 2, assignment.clone(), Strategy::WorkStealing)
                    .expect("valid pool");
            let pooled = median_ns(&mut || pool.rhs(0.0, &y, &mut dydt));
            let mut rhs = ParallelRhs::new(pool, 16);
            let product = median_ns(&mut || rhs.rhs(0.0, &y, &mut dydt));
            let (later, later_assignment) = (graph.clone(), assignment.clone());
            let pool = ExecutorPool::born_serial(
                one.graph.clone(),
                2,
                FaultPlan::none(),
                FaultConfig::default(),
                Strategy::WorkStealing,
                &two.schedule,
                move |_| (std::sync::Arc::new(later), later_assignment),
            )
            .expect("valid pool");
            let mut rhs = ParallelRhs::new(pool, 16);
            let solo = median_ns(&mut || rhs.rhs(0.0, &y, &mut dydt));
            let (tasks, instrs) = (graph.tasks.len(), graph.instrs());
            println!(
                "{name:<14} {label:<15} {tasks:>5} {instrs:>8} {serial:>12.0} {pooled:>10.0} \
                 {product:>21.0} {solo:>18.0}"
            );
            rows.push(format!(
                "{name},{label},{tasks},{instrs},{serial:.0},{pooled:.0},{product:.0},{solo:.0}"
            ));
        }
    }
    let header = "model,graph,tasks,instrs,serial_ns_per_call,ws2_ns_per_call,\
                  ws2_resched_ns_per_call,ws2_resched_one_cluster_ns_per_call";
    om_bench::write_csv("table_placement", header, &rows);
}

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
        "{:<38} {:>8} {:>12} {:>12} {:>12}",
        "configuration", "tasks", "instrs", "flops", "sim µs/call"
    );
    println!("{}", om_bench::rule(86));

    let mut rows = Vec::new();
    let mut row = |label: &str, graph: &TaskGraph, assignment: &[usize]| {
        let policy = om_codegen::comm::MessagePolicy::WholeState;
        let sim = simulate_rhs_time(graph, assignment, workers, &machine, policy);
        let (tasks, instrs, flops) = (graph.tasks.len(), graph.instrs(), graph.total_cost());
        let us = sim.total * 1e6;
        println!("{label:<38} {tasks:>8} {instrs:>12} {flops:>12} {us:>12.1}");
        rows.push(format!("{label},{tasks},{instrs},{flops},{us:.3}"));
    };
    let mut run = |label: &str, options: GenOptions| {
        let program = CodeGenerator::new(options).generate(&ir);
        row(label, &program.graph, &program.schedule(workers).assignment);
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
    let generator = CodeGenerator::default();
    let placement = generator.place(&ir, &generator.tasks(&ir), workers);
    let label = "cluster-scoped CSE (product placement)";
    row(label, &placement.graph, &placement.assignment);
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

    measured_placements();
}
