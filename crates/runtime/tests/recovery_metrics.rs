//! `omc --metrics` must report what the recovery ladder did: every
//! `RecoveryStats` field and its `runtime.*` registry counter move
//! together, on every path.
//!
//! The metrics registry is process-global, so this file holds exactly
//! one test: nothing else in its process recovers from anything.

use om_runtime::{ExecutorPool, FaultConfig, FaultKind, FaultPlan, Strategy};
use std::time::Duration;

#[test]
fn recovery_counters_equal_recovery_stats() {
    om_obs::init(&om_obs::ObsConfig::enabled());
    for strategy in Strategy::ALL {
        let ir = om_models::compile_to_ir(&om_models::hydro::source()).unwrap();
        let program = om_codegen::CodeGenerator::default().generate(&ir);
        let sched = program.schedule(3);
        let config = FaultConfig {
            task_timeout: Duration::from_millis(40),
            max_respawns: 1,
            ..FaultConfig::default()
        };
        // A dropped result, a corrupted one, and four kills of whoever
        // claims one task: with one respawn each, four kills over three
        // workers lose at least one of them whoever the claimants are.
        let task_of = |w| sched.assignment.iter().position(|&a| a == w).unwrap();
        let plan = [1, 3, 4, 5].into_iter().fold(
            FaultPlan::none()
                .inject(2, task_of(2), FaultKind::DropResult)
                .inject(2, task_of(0), FaultKind::CorruptNaN),
            |plan, call| plan.inject(call, task_of(1), FaultKind::Panic),
        );
        let mut pool =
            ExecutorPool::with_faults(program.graph, 3, sched.assignment, plan, config, strategy)
                .unwrap();
        let y0 = ir.initial_state();
        let mut dydt = vec![0.0; y0.len()];
        let before: Vec<u64> = counters();
        for k in 0..5 {
            pool.try_rhs(1e-3 * k as f64, &y0, &mut dydt).unwrap();
        }
        let plan = pool.faults();
        assert_eq!(plan.fired(), plan.len(), "{strategy}: {plan:?}");
        let r = *pool.recovery();
        assert!(
            r.respawns + r.workers_lost >= 4
                && r.workers_lost >= 1
                && r.replayed_tasks >= 4
                && r.retries >= 1
                && r.nan_repairs >= 1,
            "{strategy}: {r:?}"
        );
        let fields = [
            r.respawns,
            r.retries,
            r.replayed_tasks,
            r.workers_lost,
            r.nan_repairs,
            r.stale_results,
            r.degraded_calls,
        ];
        for ((name, field), (now, was)) in
            NAMES.iter().zip(fields).zip(counters().iter().zip(before))
        {
            assert_eq!(
                now - was,
                field as u64,
                "{strategy}: runtime.{name} vs {r:?}"
            );
        }
    }
    om_obs::init(&om_obs::ObsConfig::disabled());
}

const NAMES: [&str; 7] = [
    "respawns",
    "retries",
    "replayed_tasks",
    "workers_lost",
    "nan_repairs",
    "stale_results",
    "degraded_calls",
];

fn counters() -> Vec<u64> {
    NAMES
        .iter()
        .map(|name| om_obs::metrics().counter(&format!("runtime.{name}")).get())
        .collect()
}
