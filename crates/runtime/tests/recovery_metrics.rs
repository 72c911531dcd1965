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
        // A kill, a dropped result, a corrupted one, and a second kill
        // of the same worker that exhausts its respawn budget.
        let plan = FaultPlan::kill(1, 2)
            .inject(2, 3, FaultKind::DropResult)
            .inject(0, 2, FaultKind::CorruptNaN)
            .inject(1, 2, FaultKind::Panic);
        let mut pool =
            ExecutorPool::with_faults(program.graph, 3, sched.assignment, plan, config, strategy)
                .unwrap();
        let y0 = ir.initial_state();
        let mut dydt = vec![0.0; y0.len()];
        let before: Vec<u64> = counters();
        // Under work stealing which worker runs how many tasks is the
        // scheduler's call: evaluate until every fault has been acted out.
        let acted_out = |r: &om_runtime::RecoveryStats| {
            r.respawns >= 1
                && r.replayed_tasks >= 2
                && r.retries >= 1
                && r.workers_lost >= 1
                && r.nan_repairs >= 1
        };
        for k in 0..2000 {
            pool.try_rhs(1e-3 * k as f64, &y0, &mut dydt).unwrap();
            if acted_out(pool.recovery()) {
                break;
            }
        }
        let r = *pool.recovery();
        assert!(acted_out(&r), "{strategy}: {r:?}");
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
