//! **Experiment E4 (paper Figure 12)** — `#RHS-calls/s` versus number of
//! processors for the 2D bearing example on the two machine models
//! (Parsytec GC/PP, 140 µs messages; SPARCcenter 2000, 4 µs messages,
//! 8 time-shared processors).
//!
//! Expected shape (paper §4): "By using the shared memory architecture
//! (with the low latency of shared memory) we get an almost linear
//! speedup up to seven processors … hence the 'knee' … The speed of the
//! distributed memory machine reach a peak at four processors."
//!
//! The simulated-time machine model stands in for the 1995 hardware (see
//! DESIGN.md); a real-thread measurement on the host follows for
//! reference.

use om_models::bearing2d::BearingConfig;
use om_runtime::{ExecutorPool, MachineSpec, ParallelRhs, Strategy};
use om_solver::OdeSystem;
use std::time::Instant;

fn main() {
    // Waviness 24 puts the total RHS in the several-tens-of-thousands of
    // flops the paper reports for the 2D bearing ("the right-hand sides
    // consist of several tens of thousands of floating point
    // operations").
    let cfg = BearingConfig {
        waviness: 24,
        ..BearingConfig::default()
    };
    let graph = om_bench::bearing_graph(&cfg, 64);
    println!("== Figure 12: RHS throughput vs processors (2D bearing) ==");
    println!(
        "task graph: {} tasks, {} flops total\n",
        graph.tasks.len(),
        graph.total_cost()
    );

    let machines = [
        MachineSpec::parsytec_gcpp(),
        MachineSpec::sparc_center_2000(),
    ];
    println!(
        "{:<6} {:>22} {:>22}",
        "procs", machines[0].name, machines[1].name
    );
    println!(
        "{:<6} {:>11} {:>10} {:>11} {:>10}",
        "", "calls/s", "speedup", "calls/s", "speedup"
    );
    let mut rows = Vec::new();
    let max_procs = 17;
    for w in 1..=max_procs {
        let mut cells = Vec::new();
        print!("{w:<6}");
        for m in &machines {
            let sim = om_bench::simulate(&graph, w, m);
            let s = om_bench::speedup(&graph, w, m);
            print!(" {:>11.1} {:>10.2}", sim.rhs_calls_per_sec(), s);
            cells.push(format!("{:.2},{:.3}", sim.rhs_calls_per_sec(), s));
        }
        println!();
        rows.push(format!("{w},{}", cells.join(",")));
    }
    om_bench::write_csv(
        "fig12_speedup",
        "procs,parsytec_calls_per_s,parsytec_speedup,sparc_calls_per_s,sparc_speedup",
        &rows,
    );

    // Peak analysis, matching the paper's prose.
    for m in &machines {
        let curve: Vec<f64> = (1..=max_procs)
            .map(|w| om_bench::speedup(&graph, w, m))
            .collect();
        let (peak_at, peak) = curve
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, v)| (i + 1, *v))
            .expect("nonempty");
        println!(
            "\n{}: peak speedup {peak:.2}× at {peak_at} processors",
            m.name
        );
    }

    // Real-thread measurement on this host (correctness demo, not a
    // period-hardware reproduction). Worker utilization comes from the
    // om-obs per-worker busy-time counters: busy_ns / (wall_ns × workers).
    println!("\n== real-thread throughput on this host ==");
    let ir = om_models::bearing2d::ir(&cfg);
    let y0 = ir.initial_state();
    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4);
    let busy_total = || -> u64 {
        om_obs::metrics()
            .counter_values()
            .iter()
            .filter(|(name, _)| name.starts_with("runtime.worker") && name.ends_with(".busy_ns"))
            .map(|&(_, v)| v)
            .sum()
    };
    let mut host_rows = Vec::new();
    for w in [1, 2, 4, host_cores.min(8)] {
        // Fresh registry per configuration; enable *before* the pool is
        // built so worker threads resolve their busy-ns counters.
        om_obs::init(&om_obs::ObsConfig::enabled());
        let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
        let sched = om_codegen::lpt(&costs, w);
        let pool = ExecutorPool::build(graph.clone(), w, sched.assignment, Strategy::default())
            .expect("valid pool");
        let mut rhs = ParallelRhs::new(pool, 0);
        let mut dydt = vec![0.0; rhs.dim()];
        // Warm-up.
        for _ in 0..50 {
            rhs.rhs(0.0, &y0, &mut dydt);
        }
        let calls = 2000;
        let busy_before = busy_total();
        let start = Instant::now();
        for k in 0..calls {
            rhs.rhs(k as f64 * 1e-6, &y0, &mut dydt);
        }
        let wall = start.elapsed();
        let busy = busy_total().saturating_sub(busy_before);
        let util = busy as f64 / (wall.as_nanos() as f64 * w as f64);
        let rate = calls as f64 / wall.as_secs_f64();
        println!(
            "  {w} worker(s): {rate:>10.0} RHS calls/s, {:>5.1}% worker utilization",
            100.0 * util
        );
        host_rows.push(format!("{w},{rate:.0},{util:.4}"));
    }
    om_obs::init(&om_obs::ObsConfig::disabled());
    om_bench::write_csv(
        "fig12_host_threads",
        "workers,calls_per_s,worker_utilization",
        &host_rows,
    );
}
