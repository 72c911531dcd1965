//! Chaos tests: the supervisor must survive injected worker faults with a
//! bitwise-identical trajectory, and a permanently failed pool must return
//! a typed error instead of deadlocking.
//!
//! Every task is a pure function of `(t, y, shared)` and only the
//! execution that wins a task's claim word publishes, so any replay — on
//! a respawned worker, a survivor, or inline in the supervisor —
//! reproduces exactly the same floating-point values. That makes
//! "identical trajectory" an `assert_eq!`, not a tolerance.
//!
//! A fault names a (call, task) and fires on that call whoever claims
//! the task, so every case runs a fixed number of calls and asserts that
//! every planned fault fired. The plan records the claimant. A case that
//! targets one worker pins it: the other worker is held on its own first
//! task by a straggle ([`pin`]), so nobody steals the target's task.

use om_codegen::TaskGraph;
use om_runtime::{ExecutorPool, FaultConfig, FaultKind, FaultPlan, ParallelRhs, RuntimeError};
use om_solver::{dopri5, Recorder, Tolerances};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The loop-task and bearing cases keep both cores busy; they take
/// turns.
static CORES: Mutex<()> = Mutex::new(());

fn cores() -> MutexGuard<'static, ()> {
    CORES.lock().unwrap_or_else(|e| e.into_inner())
}

const MODEL: &str = "model Chaos;
    Real x(start=0.4); Real v(start=-0.3); Real f;
    equation
      der(x) = v;
      der(v) = f;
      f = -sin(x)*4.0 - 0.2*v + cos(time);
    end Chaos;";

fn build_rhs(n_workers: usize, plan: FaultPlan, config: FaultConfig) -> (ParallelRhs, Vec<f64>) {
    let ir = om_ir::causalize(&om_lang::compile(MODEL).unwrap()).unwrap();
    let program = om_codegen::CodeGenerator::default().generate(&ir);
    let sched = program.schedule(n_workers);
    let pool = ExecutorPool::with_faults(program.graph, n_workers, sched.assignment, plan, config)
        .unwrap();
    (ParallelRhs::new(pool, 0), ir.initial_state())
}

/// Integrate the model on 3 workers and return the full `(ts, ys)`
/// trajectory.
fn trajectory(plan: FaultPlan, config: FaultConfig, tend: f64) -> (Vec<f64>, Vec<Vec<f64>>) {
    trajectory_on(3, plan, config, tend)
}

/// Same, on `n_workers`.
fn trajectory_on(
    n_workers: usize,
    plan: FaultPlan,
    config: FaultConfig,
    tend: f64,
) -> (Vec<f64>, Vec<Vec<f64>>) {
    let (rhs, y0) = build_rhs(n_workers, plan, config);
    let mut run = Recorder::new(rhs);
    dopri5(&mut run, 0.0, &y0, tend, &Tolerances::default()).unwrap();
    let rhs = run.sys;
    assert!(
        rhs.last_error.is_none(),
        "unexpected runtime error: {:?}",
        rhs.last_error
    );
    all_fired(rhs.pool.faults());
    (run.ts, run.ys)
}

fn all_fired(plan: &FaultPlan) {
    assert_eq!(plan.fired(), plan.len(), "planned faults left: {plan:?}");
}

fn short_timeout() -> FaultConfig {
    FaultConfig {
        task_timeout: Duration::from_millis(50),
        ..FaultConfig::default()
    }
}

/// The task worker `w` claims first in the first call of a fresh pool:
/// of the tasks with no predecessor that `assignment` seeds on its deque,
/// the one seeded last (the costliest, then the highest id), because a
/// worker pops its own deque from the back before it steals.
fn first_pop(graph: &TaskGraph, assignment: &[usize], w: usize) -> usize {
    (0..graph.tasks.len())
        .filter(|&j| assignment[j] == w && graph.deps[j].is_empty())
        .max_by_key(|&j| (graph.tasks[j].static_cost, j))
        .expect("worker has a root task")
}

/// How long [`pin`] holds the other worker.
const HOLD: Duration = Duration::from_millis(30);

/// Pin `target` of a fresh pool as the claimant of its own tasks in
/// `call`: every other worker is held on its first pop by a straggle, so
/// it steals nothing from `target` first. On worker 0 that is a plain
/// delay; on a helper it stalls until the supervisor takes the task back
/// after the task timeout (or, if the supervisor stole the task before
/// the helper woke, it is the supervisor's plain delay). Adds one plan
/// entry per other worker.
fn pin(
    plan: FaultPlan,
    graph: &TaskGraph,
    assignment: &[usize],
    target: usize,
    call: u64,
) -> FaultPlan {
    let n_workers = assignment.iter().max().map_or(1, |&w| w + 1);
    (0..n_workers)
        .filter(|&w| w != target)
        .fold(plan, |plan, other| {
            plan.inject(
                call,
                first_pop(graph, assignment, other),
                FaultKind::Straggle(HOLD),
            )
        })
}

#[test]
fn killed_worker_mid_integration_trajectory_is_bitwise_identical() {
    let clean = trajectory(FaultPlan::none(), FaultConfig::default(), 2.0);
    // Kill the claimant of task 0 in call 5 — mid-integration, not at
    // startup.
    let faulty = trajectory(FaultPlan::kill(5, 0), FaultConfig::default(), 2.0);
    assert_eq!(clean.0, faulty.0, "time grids differ");
    assert_eq!(clean.1, faulty.1, "states differ");
}

#[test]
fn dropped_result_trajectory_is_bitwise_identical() {
    let clean = trajectory(FaultPlan::none(), short_timeout(), 1.0);
    let plan = FaultPlan::none().inject(3, 1, FaultKind::DropResult);
    let faulty = trajectory(plan, short_timeout(), 1.0);
    assert_eq!(clean.0, faulty.0);
    assert_eq!(clean.1, faulty.1);
}

#[test]
fn straggling_worker_trajectory_is_bitwise_identical() {
    let clean = trajectory(FaultPlan::none(), short_timeout(), 1.0);
    let plan = FaultPlan::none().inject(2, 2, FaultKind::Straggle(Duration::from_millis(200)));
    let faulty = trajectory(plan, short_timeout(), 1.0);
    assert_eq!(clean.0, faulty.0);
    assert_eq!(clean.1, faulty.1);
}

#[test]
fn corrupted_output_trajectory_is_bitwise_identical() {
    let clean = trajectory(FaultPlan::none(), FaultConfig::default(), 1.0);
    let plan = FaultPlan::none().inject(4, 0, FaultKind::CorruptNaN);
    let faulty = trajectory(plan, FaultConfig::default(), 1.0);
    assert_eq!(clean.0, faulty.0);
    assert_eq!(clean.1, faulty.1);
}

#[test]
fn losing_every_worker_mid_run_still_finishes_identically() {
    let clean = trajectory(FaultPlan::none(), FaultConfig::default(), 1.0);
    let config = FaultConfig {
        max_respawns: 0,
        ..FaultConfig::default()
    };
    // A written-off worker claims nothing while another lives, so each
    // kill takes a different one of the three.
    let plan = FaultPlan::kill(2, 0)
        .inject(4, 0, FaultKind::Panic)
        .inject(6, 1, FaultKind::Panic);
    let faulty = trajectory(plan, config, 1.0);
    assert_eq!(clean.0, faulty.0);
    assert_eq!(clean.1, faulty.1);
}

#[test]
fn exhausted_pool_returns_err_not_deadlock() {
    // The whole point of timeout-bounded supervision: this must *return*.
    // Guard the test itself with a timeout so a regression fails instead
    // of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let config = FaultConfig {
            max_respawns: 0,
            sequential_fallback: false,
            task_timeout: Duration::from_millis(100),
            ..FaultConfig::default()
        };
        // Whoever claims task 0 of the first call dies, three times over:
        // each replay of it kills the next claimant.
        let plan =
            FaultPlan::kill(1, 0)
                .inject(1, 0, FaultKind::Panic)
                .inject(1, 0, FaultKind::Panic);
        let (mut rhs, y0) = build_rhs(3, plan, config);
        let mut dydt = vec![0.0; y0.len()];
        let result = rhs.pool.try_rhs(0.0, &y0, &mut dydt);
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("supervisor deadlocked: no answer within 10 s");
    assert_eq!(result, Err(RuntimeError::PoolExhausted { workers: 3 }));
}

#[test]
fn clean_pool_trajectory_matches_the_serial_graph_bitwise() {
    let pooled = trajectory(FaultPlan::none(), FaultConfig::default(), 1.0);
    let ir = om_ir::causalize(&om_lang::compile(MODEL).unwrap()).unwrap();
    let graph = om_codegen::CodeGenerator::default().generate(&ir).graph;
    let mut serial = Recorder::new(om_solver::FnSystem::new(
        graph.dim,
        |t, y: &[f64], d: &mut [f64]| {
            graph.eval_serial(t, y, d);
        },
    ));
    dopri5(
        &mut serial,
        0.0,
        &ir.initial_state(),
        1.0,
        &Tolerances::default(),
    )
    .unwrap();
    assert_eq!(pooled.0, serial.ts, "time grids differ");
    assert_eq!(pooled.1, serial.ys, "states differ");
}

#[test]
fn faults_mid_integration_recover_identically_on_two_workers() {
    // The single-fault cases above, on the product's common worker
    // count: the trajectory still matches the clean 2-worker run.
    let clean = trajectory_on(2, FaultPlan::none(), short_timeout(), 1.0);
    let plans = [
        FaultPlan::kill(5, 0),
        FaultPlan::none().inject(3, 1, FaultKind::DropResult),
        FaultPlan::none().inject(2, 1, FaultKind::Straggle(Duration::from_millis(200))),
        FaultPlan::none().inject(4, 0, FaultKind::CorruptNaN),
    ];
    for plan in plans {
        let faulty = trajectory_on(2, plan, short_timeout(), 1.0);
        assert_eq!(clean.0, faulty.0);
        assert_eq!(clean.1, faulty.1);
    }
}

/// The 2-D bearing with algebraic producers kept as tasks: 14 levels,
/// wide enough that 4 workers steal from each other all the time.
fn multi_level_bearing() -> (om_ir::OdeIr, om_codegen::ParallelProgram) {
    let src = om_models::bearing2d::source(&om_models::bearing2d::BearingConfig::default());
    let ir = om_models::compile_to_ir(&src).unwrap();
    let program = om_codegen::CodeGenerator::new(om_codegen::GenOptions {
        inline_algebraics: false,
        ..om_codegen::GenOptions::default()
    })
    .generate(&ir);
    assert!(program.graph.levels().len() > 1);
    (ir, program)
}

/// Every fault kind on every worker id — 0, the supervisor's own worker
/// role, included — is acted out by the worker it targets and recovered.
/// The model is the multi-level 2-D bearing on 4 workers. Each fault
/// names the target's first pop and [`pin`] holds every other worker, so
/// the plan records the target as the claimant; a second fault names a
/// task from the middle of the target's non-root ones, which reaches a
/// deque by a successor push, and its recorded claimant shows the
/// signature of its kind.
#[test]
fn every_fault_kind_on_every_worker_recovers_on_its_target() {
    let _cores = cores();
    let (ir, program) = multi_level_bearing();
    let n_workers = 4;
    let sched = program.schedule(n_workers);
    let graph = &program.graph;
    let y0 = ir.initial_state();
    let mut expect = vec![0.0; y0.len()];
    graph.eval_serial(0.25, &y0, &mut expect);
    let kinds = [
        FaultKind::Panic,
        FaultKind::Straggle(Duration::from_millis(120)),
        FaultKind::DropResult,
        FaultKind::CorruptNaN,
    ];
    for worker in 0..n_workers {
        let inner: Vec<usize> = (0..graph.tasks.len())
            .filter(|&j| sched.assignment[j] == worker && !graph.deps[j].is_empty())
            .collect();
        assert!(!inner.is_empty(), "worker {worker} has a non-root task");
        let cases = [
            (true, first_pop(graph, &sched.assignment, worker)),
            (false, inner[inner.len() / 2]),
        ];
        for (pinned, task) in cases {
            for kind in kinds {
                let plan = match pinned {
                    true => pin(FaultPlan::none(), graph, &sched.assignment, worker, 1),
                    false => FaultPlan::none(),
                };
                let plan = plan.inject(1, task, kind);
                let target = plan.len() - 1;
                let mut pool = ExecutorPool::with_faults(
                    graph.clone(),
                    n_workers,
                    sched.assignment.clone(),
                    plan,
                    FaultConfig {
                        task_timeout: Duration::from_millis(30),
                        ..FaultConfig::default()
                    },
                )
                .unwrap();
                let mut dydt = vec![0.0; y0.len()];
                pool.try_rhs(0.25, &y0, &mut dydt).unwrap();
                let case = format!("worker {worker} task {task} {kind:?}");
                assert_eq!(dydt, expect, "{case}");
                all_fired(pool.faults());
                let claimant = pool.faults().claimant(target).unwrap();
                if pinned {
                    assert_eq!(claimant, worker, "{case}: pinned");
                }
                // Each pin a helper claimed stalls until one retry takes
                // its task back.
                let held_helpers = (0..target)
                    .filter(|&i| pool.faults().claimant(i) != Some(0))
                    .count();
                let r = pool.recovery();
                let acted = match kind {
                    FaultKind::Panic => r.respawns == 1 && r.replayed_tasks >= 1,
                    // Nobody supervises the supervisor's own sleep.
                    FaultKind::Straggle(_) => claimant == 0 || r.retries > held_helpers,
                    FaultKind::DropResult => r.retries > held_helpers,
                    FaultKind::CorruptNaN => r.nan_repairs >= 1,
                };
                assert!(acted, "{case} (claimant {claimant}): {r:?}");
            }
        }
    }
}

/// A seeded plan over every worker id including the supervisor, on the
/// multi-level bearing with 4 workers: bitwise equal to the sequential
/// oracle, call after call, over the 25 calls a seeded plan addresses.
#[test]
fn seeded_plans_on_the_bearing_match_eval_serial() {
    let (ir, program) = multi_level_bearing();
    let sched = program.schedule(4);
    let y0 = ir.initial_state();
    for seed in [1u64, 7, 42, 1995] {
        let plan = FaultPlan::from_seed(seed, 4, 8);
        let mut pool = ExecutorPool::with_faults(
            program.graph.clone(),
            4,
            sched.assignment.clone(),
            plan,
            FaultConfig {
                task_timeout: Duration::from_millis(30),
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let mut dydt = vec![0.0; y0.len()];
        let mut expect = vec![0.0; y0.len()];
        for k in 0..25 {
            let t = 0.05 * k as f64;
            program.graph.eval_serial(t, &y0, &mut expect);
            pool.try_rhs(t, &y0, &mut dydt).unwrap();
            assert_eq!(dydt, expect, "seed {seed} call {k}");
        }
        all_fired(pool.faults());
    }
}

/// `omc heat1d --size 8194 --array-aware`: eight 1 024-iteration loop
/// tasks plus one task for the two boundary rows. The oracle is the
/// scalarized model's graph, evaluated serially. Built once.
fn loop_heat() -> &'static (Vec<f64>, om_codegen::ParallelProgram, om_codegen::TaskGraph) {
    static HEAT: OnceLock<(Vec<f64>, om_codegen::ParallelProgram, om_codegen::TaskGraph)> =
        OnceLock::new();
    HEAT.get_or_init(|| {
        let src = om_models::heat1d::source_distributed(&om_models::heat1d::HeatConfig {
            cells: 8194,
            velocity: 0.4,
            ..Default::default()
        });
        let aware = om_ir::causalize(&om_lang::compile_arrays(&src).unwrap()).unwrap();
        let oracle = om_models::compile_to_ir(&src).unwrap();
        let program = om_codegen::CodeGenerator::default().generate(&aware);
        let chunks: Vec<usize> = program
            .graph
            .tasks
            .iter()
            .filter(|t| t.loop_info.is_some())
            .map(|t| t.n_out())
            .collect();
        assert_eq!(chunks, vec![1024; 8]);
        let oracle_graph = om_codegen::CodeGenerator::default().generate(&oracle).graph;
        (aware.initial_state(), program, oracle_graph)
    })
}

fn hex(v: &[f64]) -> Vec<String> {
    v.iter().map(|x| format!("{:016x}", x.to_bits())).collect()
}

/// Seeded plans (panics, stragglers, dropped results, NaN poison) on the
/// loop-task graph, 3 workers: hex-bit-identical to the scalarized
/// serial oracle, call after call, over the 25 calls a seeded plan
/// addresses.
#[test]
fn seeded_plans_on_loop_tasks_match_the_scalarized_oracle() {
    let (y0, program, oracle) = loop_heat();
    let _cores = cores();
    let sched = program.schedule(3);
    for seed in [3u64, 7, 1995] {
        let mut pool = ExecutorPool::with_faults(
            program.graph.clone(),
            3,
            sched.assignment.clone(),
            FaultPlan::from_seed(seed, 3, 6),
            FaultConfig {
                task_timeout: Duration::from_millis(50),
                ..FaultConfig::default()
            },
        )
        .unwrap();
        let mut dydt = vec![0.0; y0.len()];
        let mut expect = vec![0.0; y0.len()];
        for k in 0..25 {
            let t = 0.05 * k as f64;
            let y: Vec<f64> = y0.iter().map(|v| v + 1e-3 * k as f64).collect();
            oracle.eval_serial(t, &y, &mut expect);
            pool.try_rhs(t, &y, &mut dydt).unwrap();
            assert_eq!(hex(&dydt), hex(&expect), "seed {seed} call {k}");
        }
        all_fired(pool.faults());
    }
}

/// NaN poison on three 1 024-output loop chunks of one call, each
/// assigned to the same worker and pinned to it, is repaired by rerunning
/// the whole task, and every output comes back bitwise.
#[test]
fn nan_repair_reruns_a_loop_chunk_bitwise() {
    let (y0, program, oracle) = loop_heat();
    let _cores = cores();
    let sched = program.schedule(2);
    let graph = &program.graph;
    let mut expect = vec![0.0; y0.len()];
    oracle.eval_serial(0.25, y0, &mut expect);
    let config = FaultConfig {
        task_timeout: Duration::from_millis(30),
        ..FaultConfig::default()
    };
    for worker in 0..2 {
        let chunks: Vec<usize> = (0..sched.assignment.len())
            .filter(|&j| sched.assignment[j] == worker)
            .filter(|&j| graph.tasks[j].loop_info.is_some())
            .take(3)
            .collect();
        assert_eq!(chunks.len(), 3, "worker {worker} has three chunks");
        let plan = chunks.iter().fold(
            pin(FaultPlan::none(), graph, &sched.assignment, worker, 1),
            |p, &task| p.inject(1, task, FaultKind::CorruptNaN),
        );
        let mut pool = ExecutorPool::with_faults(
            graph.clone(),
            2,
            sched.assignment.clone(),
            plan,
            config.clone(),
        )
        .unwrap();
        let mut dydt = vec![0.0; y0.len()];
        pool.try_rhs(0.25, y0, &mut dydt).unwrap();
        assert_eq!(hex(&dydt), hex(&expect), "worker {worker}");
        all_fired(pool.faults());
        assert!((1..4).all(|i| pool.faults().claimant(i) == Some(worker)));
        assert_eq!(
            pool.recovery().nan_repairs,
            3,
            "worker {worker}: {:?}",
            pool.recovery()
        );
    }
}

/// The product placement of the default 2-D bearing: the equation-level
/// tasks fused into one cluster per worker.
fn clustered_bearing(m: usize) -> (Vec<f64>, om_codegen::Placement, om_codegen::TaskGraph) {
    let src = om_models::bearing2d::source(&om_models::bearing2d::BearingConfig::default());
    let ir = om_models::compile_to_ir(&src).unwrap();
    let generator = om_codegen::CodeGenerator::default();
    let program = generator.generate(&ir);
    let placement = generator.place(&ir, &program.tasks, m);
    assert_eq!(placement.graph.tasks.len(), m, "one cluster per worker");
    (ir.initial_state(), placement, program.graph)
}

/// Seeded plans on the clustered bearing — every fault lands on a whole
/// worker's share of the RHS: hex-equal to the equation-level graph
/// evaluated serially, call after call, over the 25 calls a seeded plan
/// addresses.
#[test]
fn seeded_plans_on_the_clustered_bearing_match_the_serial_oracle() {
    let _cores = cores();
    for m in [2usize, 3] {
        let (y0, placement, oracle) = clustered_bearing(m);
        for seed in [1u64, 7, 42, 1995] {
            let mut pool = ExecutorPool::with_faults(
                placement.graph.clone(),
                m,
                placement.assignment.clone(),
                FaultPlan::from_seed(seed, m, 8),
                FaultConfig {
                    task_timeout: Duration::from_millis(30),
                    ..FaultConfig::default()
                },
            )
            .unwrap();
            let mut dydt = vec![0.0; y0.len()];
            let mut expect = vec![0.0; y0.len()];
            for k in 0..25 {
                let t = 0.05 * k as f64;
                let y: Vec<f64> = y0.iter().map(|v| v + 1e-4 * k as f64).collect();
                oracle.eval_serial(t, &y, &mut expect);
                pool.try_rhs(t, &y, &mut dydt).unwrap();
                assert_eq!(hex(&dydt), hex(&expect), "m={m} seed {seed} call {k}");
            }
            all_fired(pool.faults());
        }
    }
}

/// NaN poison on a cluster's first output, in each of three calls and
/// pinned to the cluster's worker, is repaired by rerunning the whole
/// cluster, and every output of it comes back bitwise.
#[test]
fn nan_repair_reruns_a_whole_cluster_bitwise() {
    let _cores = cores();
    let (y0, placement, oracle) = clustered_bearing(2);
    let (graph, assignment) = (&placement.graph, &placement.assignment);
    let mut expect = vec![0.0; y0.len()];
    oracle.eval_serial(0.25, &y0, &mut expect);
    let config = FaultConfig {
        task_timeout: Duration::from_millis(30),
        ..FaultConfig::default()
    };
    for worker in 0..2 {
        let cluster = assignment.iter().position(|&w| w == worker);
        let cluster = cluster.expect("one cluster per worker");
        // Entries 0, 2, 4 pin the worker; 1, 3, 5 poison its cluster.
        let plan = (1..=3).fold(FaultPlan::none(), |p, call| {
            pin(p, graph, assignment, worker, call).inject(call, cluster, FaultKind::CorruptNaN)
        });
        let mut pool =
            ExecutorPool::with_faults(graph.clone(), 2, assignment.clone(), plan, config.clone())
                .unwrap();
        let mut dydt = vec![0.0; y0.len()];
        for call in 1..=3 {
            pool.try_rhs(0.25, &y0, &mut dydt).unwrap();
            assert_eq!(hex(&dydt), hex(&expect), "worker {worker}");
            assert_eq!(pool.recovery().nan_repairs, call, "worker {worker}");
        }
        all_fired(pool.faults());
        assert!([1, 3, 5]
            .iter()
            .all(|&i| pool.faults().claimant(i) == Some(worker)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seedable fault plan — arbitrary mixes of kills, stragglers,
    /// dropped messages, and corrupted outputs — leaves the trajectory
    /// bitwise-identical to the fault-free run.
    #[test]
    fn any_seeded_fault_plan_preserves_trajectory(seed in 0u64..10_000) {
        let config = FaultConfig {
            task_timeout: Duration::from_millis(80),
            ..FaultConfig::default()
        };
        let clean = trajectory(FaultPlan::none(), config.clone(), 0.5);
        let plan = FaultPlan::from_seed(seed, 3, 4);
        let faulty = trajectory(plan, config, 0.5);
        prop_assert_eq!(&clean.0, &faulty.0);
        prop_assert_eq!(&clean.1, &faulty.1);
    }

    /// The same property on 2 workers, where a seeded plan addresses
    /// both of the pool's workers.
    #[test]
    fn any_seeded_fault_plan_preserves_trajectory_on_two_workers(seed in 0u64..10_000) {
        let config = FaultConfig {
            task_timeout: Duration::from_millis(80),
            ..FaultConfig::default()
        };
        let clean = trajectory_on(2, FaultPlan::none(), config.clone(), 0.5);
        let plan = FaultPlan::from_seed(seed, 2, 4);
        let faulty = trajectory_on(2, plan, config, 0.5);
        prop_assert_eq!(&clean.0, &faulty.0);
        prop_assert_eq!(&clean.1, &faulty.1);
    }
}
