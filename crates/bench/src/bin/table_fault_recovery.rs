//! **Experiment E12** — cost of fault tolerance in the supervisor/worker
//! runtime.
//!
//! Two questions the fault-tolerant supervisor must answer:
//!
//! 1. *Steady-state overhead*: with no faults injected, how much slower is
//!    the supervised pool (claim words, sweep-on-idle) than the serial
//!    evaluation baseline would predict? (Target: the supervision
//!    machinery itself stays under ~5 % of the per-call cost.)
//! 2. *Recovery latency*: when a worker is killed mid-run, how long is the
//!    RHS call that absorbs the failure (detection + respawn + replay),
//!    and does the pool return to its steady-state rate afterwards?
//!
//! The workload is the 2D bearing RHS used by the other performance
//! experiments.

use om_codegen::lpt;
use om_models::bearing2d::BearingConfig;
use om_runtime::{ExecutorPool, FaultConfig, FaultPlan};
use std::time::{Duration, Instant};

fn mean_us(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The supervision-overhead target, as a fraction of the per-call cost.
const TARGET: f64 = 0.05;

fn main() {
    let cfg = BearingConfig {
        waviness: 6,
        ..BearingConfig::default()
    };
    let graph = om_bench::bearing_graph(&cfg, 48);
    let ir = om_models::bearing2d::ir(&cfg);
    let y0 = ir.initial_state();
    let workers = 4;
    let calls = 2000usize;
    let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();

    println!("== E12: fault-tolerance overhead & recovery latency (2D bearing) ==\n");

    // Serial baseline: the same tasks evaluated inline by one thread.
    let serial_us = {
        let mut dydt = vec![0.0; y0.len()];
        for _ in 0..200 {
            graph.eval_serial(0.0, &y0, &mut dydt);
        }
        let start = Instant::now();
        for k in 0..calls {
            graph.eval_serial(k as f64 * 1e-6, &y0, &mut dydt);
        }
        start.elapsed().as_secs_f64() * 1e6 / calls as f64
    };
    println!("serial baseline            {serial_us:>10.1} µs/call");

    // Steady state, no faults: per-call cost of the supervised pool.
    let make_pool = |config: FaultConfig| -> ExecutorPool {
        let sched = lpt(&costs, workers);
        let mut pool = ExecutorPool::with_faults(
            graph.clone(),
            workers,
            sched.assignment,
            FaultPlan::none(),
            config,
        )
        .expect("valid pool");
        let mut dydt = vec![0.0; y0.len()];
        for _ in 0..200 {
            pool.rhs(0.0, &y0, &mut dydt);
        }
        pool
    };
    let block = |pool: &mut ExecutorPool, dydt: &mut [f64], n: usize| -> f64 {
        let start = Instant::now();
        for k in 0..n {
            pool.rhs(k as f64 * 1e-6, &y0, dydt);
        }
        start.elapsed().as_secs_f64() * 1e6 / n as f64
    };

    // Overhead of the supervision machinery (the claim-table sweep from
    // the idle-wait loop, deadline arithmetic) vs. supervision "off": a
    // 60 s task timeout never fires, so that pool runs the identical
    // code path minus any chance of timeout handling. The estimator is
    // `table_lpt_overhead`'s: short blocks of the two pools back to back,
    // their order alternated per pair, and the median of the per-pair
    // relative differences, robust to a load spike in either arm. The
    // pairs' quartile spread says whether the target is resolved at all.
    let mut pool_default = make_pool(FaultConfig::default());
    let mut pool_off = make_pool(FaultConfig {
        task_timeout: Duration::from_secs(60),
        ..FaultConfig::default()
    });
    let (mut dydt, mut dydt_off) = (vec![0.0; y0.len()], vec![0.0; y0.len()]);
    let pairs = 40usize;
    let block_calls = calls / 20;
    let paired = om_bench::paired_overhead(
        pairs,
        || block(&mut pool_off, &mut dydt_off, block_calls),
        || block(&mut pool_default, &mut dydt, block_calls),
    );
    let (default_us, off_us) = (paired.treated, paired.base);
    let (overhead, q1, q3) = (paired.overhead, paired.q1, paired.q3);
    println!("pool, default supervision  {default_us:>10.1} µs/call (median of {pairs} blocks)");
    println!("pool, 60s timeout (≈ off)  {off_us:>10.1} µs/call");

    // Informational: aggressive liveness checking (4 ms deadline → 1 ms
    // poll) trades steady-state throughput for detection latency. On an
    // oversubscribed host the poll timer churns context switches against
    // the workers, so this is the *price of fast detection*, not part of
    // the default-config overhead.
    let mut pool_tight = make_pool(FaultConfig {
        task_timeout: Duration::from_millis(4),
        ..FaultConfig::default()
    });
    let tight_us = block(&mut pool_tight, &mut dydt, calls);
    println!("pool, 4ms detection        {tight_us:>10.1} µs/call (informational)");

    // Recovery latency: kill the claimant of one task mid-run, time every
    // call, and read the one the plan names. The task is one the schedule
    // seeds on worker 1, but an idle worker may steal it, so the claimant
    // is read back from the plan.
    let sched = lpt(&costs, workers);
    let kill_at = 500u64;
    let task = sched.assignment.iter().position(|&w| w == 1).unwrap_or(0);
    let mut pool = ExecutorPool::with_faults(
        graph.clone(),
        workers,
        sched.assignment,
        FaultPlan::kill(kill_at, task),
        FaultConfig::default(),
    )
    .expect("valid pool");
    let mut dydt = vec![0.0; y0.len()];
    let mut samples = Vec::with_capacity(calls);
    for k in 0..calls {
        let start = Instant::now();
        pool.rhs(k as f64 * 1e-6, &y0, &mut dydt);
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    // The pool's calls count from 1, so call `kill_at` is sample `kill_at - 1`.
    let spike_idx = kill_at as usize - 1;
    let spike_us = samples[spike_idx];
    // Steady-state mean excluding the recovery neighbourhood.
    let steady: Vec<f64> = samples
        .iter()
        .enumerate()
        .filter(|(i, _)| i.abs_diff(spike_idx) > 5)
        .map(|(_, &s)| s)
        .collect();
    let steady_us = mean_us(&steady);
    let after: Vec<f64> = samples[(spike_idx + 6).min(calls - 1)..].to_vec();
    let after_us = if after.is_empty() {
        steady_us
    } else {
        mean_us(&after)
    };
    let recovery_us = spike_us - steady_us;
    let claimant = pool.faults().claimant(0);
    let respawned = match claimant {
        Some(0) => "the supervisor's worker-0 role, in place".to_owned(),
        Some(w) => format!("helper {w}"),
        None => "nobody (the kill did not fire)".to_owned(),
    };

    println!("\nkill the claimant of task {task} (seeded on worker 1) in call {kill_at}:");
    println!(
        "  claimed by               worker {}; respawned {respawned}",
        claimant.map_or("-".to_owned(), |w| w.to_string())
    );
    println!("  steady-state mean        {steady_us:>10.1} µs/call");
    println!("  recovery call (#{kill_at})    {spike_us:>10.1} µs");
    println!("  recovery latency         {recovery_us:>10.1} µs (detection + respawn + replay)");
    println!("  post-recovery mean       {after_us:>10.1} µs/call");
    println!(
        "  counters: {} respawn(s), {} replayed task(s), {} stale result(s)",
        pool.recovery().respawns,
        pool.recovery().replayed_tasks,
        pool.recovery().stale_results
    );

    let verdict = if q3 - q1 > TARGET {
        "unresolved: the pairs spread wider than the target"
    } else if overhead < TARGET {
        "within the target"
    } else {
        "above the target"
    };
    println!(
        "\nsupervision overhead (default config vs 60s-timeout baseline, median of \
         {pairs} alternating pairs): {:.2}% (quartiles {:.2}% .. {:.2}%; target < {:.0}%): \
         {verdict}",
        100.0 * overhead,
        100.0 * q1,
        100.0 * q3,
        100.0 * TARGET
    );

    om_bench::write_csv(
        "table_fault_recovery",
        "serial_us,pool_default_us,pool_off_us,pool_tight_us,supervision_overhead_frac,\
         overhead_q1,overhead_q3,kill_claimant,\
         steady_us,recovery_call_us,recovery_latency_us,post_recovery_us,\
         respawns,replayed_tasks,stale_results",
        &[format!(
            "{serial_us:.2},{default_us:.2},{off_us:.2},{tight_us:.2},{overhead:.4},\
             {q1:.4},{q3:.4},{},\
             {steady_us:.2},{spike_us:.2},{recovery_us:.2},{after_us:.2},\
             {},{},{}",
            claimant.map_or(-1, |w| w as i64),
            pool.recovery().respawns,
            pool.recovery().replayed_tasks,
            pool.recovery().stale_results
        )],
    );
}
