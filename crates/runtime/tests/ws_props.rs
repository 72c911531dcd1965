//! Work-stealing executor correctness properties.
//!
//! The pool's one policy, work stealing, has no barrier, so its
//! correctness rests on the determinism argument of `om_runtime::pool`:
//! every task is a pure function of `(t, y, shared)` and every output
//! slot is written exactly once, so the result must be *bitwise
//! identical* to the sequential in-order evaluation
//! (`TaskGraph::eval_serial`) — for every built-in model, every worker
//! count, and any state vector. These tests check exactly that, plus
//! agreement with the tree-walking `IrEvaluator` oracle and
//! full-trajectory equality through the solver.

use om_codegen::{BatchScratch, CodeGenerator, GenOptions};
use om_models::{bearing2d, bearing3d, heat1d, hydro, oscillator, servo};
use om_runtime::{ExecutorPool, FaultConfig, FaultPlan, ParallelRhs, Strategy};
use om_solver::{dopri5, FnSystem, OdeSystem, Recorder, Tolerances};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Every built-in model as `(name, source)`.
fn builtin_sources() -> Vec<(&'static str, String)> {
    vec![
        ("oscillator", oscillator::source()),
        ("servo", servo::source()),
        ("hydro", hydro::source()),
        ("heat1d", heat1d::source(&heat1d::HeatConfig::default())),
        (
            "bearing2d",
            bearing2d::source(&bearing2d::BearingConfig::default()),
        ),
        (
            "bearing3d",
            bearing3d::source(&bearing3d::Bearing3dConfig::default()),
        ),
    ]
}

fn graph_for(src: &str, inline: bool) -> (om_ir::OdeIr, om_codegen::TaskGraph) {
    let ir = om_models::compile_to_ir(src).unwrap();
    let program = CodeGenerator::new(GenOptions {
        inline_algebraics: inline,
        ..GenOptions::default()
    })
    .generate(&ir);
    (ir, program.graph)
}

fn ws_pool(graph: &om_codegen::TaskGraph, workers: usize) -> ExecutorPool {
    let assignment = (0..graph.tasks.len()).map(|i| i % workers).collect();
    ExecutorPool::build(graph.clone(), workers, assignment, Strategy::WorkStealing).unwrap()
}

/// Every accepted `(t, y)` of a default-tolerance dopri5 solve from 0 to
/// `tend`, as the solver reported it.
fn dopri5_steps(sys: &mut dyn OdeSystem, y0: &[f64], tend: f64) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut run = Recorder::new(sys);
    dopri5(&mut run, 0.0, y0, tend, &Tolerances::default()).unwrap();
    (run.ts, run.ys)
}

/// Deterministic pseudo-random state perturbation (no external RNG).
fn perturb(y0: &[f64], seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    y0.iter()
        .map(|&v| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            v + (u - 0.5) * 0.2
        })
        .collect()
}

/// One RHS evaluation through the work-stealing pool must be bitwise
/// identical to the sequential in-order oracle, for all models × worker
/// counts × inline modes — and so must the pool that the benchmark
/// ledger still builds with the legacy `Strategy::Barrier` argument,
/// which is the same pool.
#[test]
fn ws_rhs_is_bitwise_identical_to_serial_and_to_a_legacy_barrier_build() {
    for (name, src) in builtin_sources() {
        for inline in [true, false] {
            let (ir, graph) = graph_for(&src, inline);
            let n = graph.tasks.len();
            let y0 = ir.initial_state();
            for workers in [1usize, 2, 3, 4] {
                let assignment: Vec<usize> = (0..n).map(|i| i % workers).collect();
                let mut ws = ws_pool(&graph, workers);
                let mut barrier =
                    ExecutorPool::build(graph.clone(), workers, assignment, Strategy::Barrier)
                        .unwrap();
                for seed in 0..3u64 {
                    let y = perturb(&y0, seed);
                    let t = 0.1 * seed as f64;
                    let mut d_serial = vec![0.0; graph.dim];
                    let mut d_ws = vec![0.0; graph.dim];
                    let mut d_barrier = vec![0.0; graph.dim];
                    graph.eval_serial(t, &y, &mut d_serial);
                    ws.rhs(t, &y, &mut d_ws);
                    barrier.rhs(t, &y, &mut d_barrier);
                    assert_eq!(
                        d_ws, d_serial,
                        "{name} inline={inline} workers={workers} seed={seed}: ws vs serial"
                    );
                    assert_eq!(
                        d_ws, d_barrier,
                        "{name} inline={inline} workers={workers} seed={seed}: ws vs legacy build"
                    );
                }
            }
        }
    }
}

/// The VM-based executors must agree with the tree-walking IR evaluator
/// (the semantic oracle) on every built-in model.
#[test]
fn ws_rhs_matches_ir_evaluator_oracle() {
    for (name, src) in builtin_sources() {
        let (ir, graph) = graph_for(&src, true);
        let reference = om_ir::IrEvaluator::new(&ir).unwrap();
        let y0 = ir.initial_state();
        let mut ws = ws_pool(&graph, 4);
        for seed in 0..3u64 {
            let y = perturb(&y0, seed);
            let t = 0.05 * seed as f64;
            let mut d_ref = vec![0.0; graph.dim];
            let mut d_ws = vec![0.0; graph.dim];
            reference.rhs(t, &y, &mut d_ref);
            ws.rhs(t, &y, &mut d_ws);
            for i in 0..graph.dim {
                assert!(
                    (d_ws[i] - d_ref[i]).abs() <= 1e-12 * (1.0 + d_ref[i].abs()),
                    "{name} seed={seed} component {i}: ws {} vs oracle {}",
                    d_ws[i],
                    d_ref[i]
                );
            }
        }
    }
}

/// Full solver trajectories through `ParallelRhs` must be bitwise
/// identical at every worker count.
#[test]
fn ws_trajectories_are_bitwise_identical_across_worker_counts() {
    for (name, src) in [
        ("oscillator", oscillator::source()),
        ("servo", servo::source()),
        ("hydro", hydro::source()),
    ] {
        let ir = om_models::compile_to_ir(&src).unwrap();
        let program = CodeGenerator::default().generate(&ir);
        let y0 = ir.initial_state();
        let mut reference: Option<(Vec<f64>, Vec<Vec<f64>>)> = None;
        for workers in [1usize, 2, 4] {
            let sched = program.schedule(workers);
            let pool = ExecutorPool::build(
                program.graph.clone(),
                workers,
                sched.assignment,
                Strategy::WorkStealing,
            )
            .unwrap();
            let mut rhs = ParallelRhs::new(pool, 8);
            let (sol_ts, sol_ys) = dopri5_steps(&mut rhs, &y0, 0.5);
            match &reference {
                None => reference = Some((sol_ts, sol_ys)),
                Some((ts, ys)) => {
                    assert_eq!(ts, &sol_ts, "{name} w={workers}: grids");
                    assert_eq!(ys, &sol_ys, "{name} w={workers}: states");
                }
            }
        }
    }
}

/// The product path: bearing2d/10 placed at m = 2 and 3 (one cluster per
/// worker) behind `ParallelRhs` with rescheduling every 16 calls, as
/// `omc simulate` runs it. Once the measured hand-off says the helpers do
/// not pay, calls run on the supervisor alone; either way the dopri5
/// trajectory is bitwise the in-thread one-cluster run's.
#[test]
fn placed_bearing_trajectories_match_the_in_thread_run() {
    let ir = bearing2d::ir(&bearing2d::BearingConfig {
        rollers: 10,
        ..bearing2d::BearingConfig::default()
    });
    let generator = CodeGenerator::default();
    let tasks = generator.tasks(&ir);
    let y0 = ir.initial_state();
    let tend = 0.01;
    let one = generator.place(&ir, &tasks, 1).graph;
    let mut scratch = BatchScratch::new(&one, 1);
    let mut in_thread = FnSystem::new(one.dim, move |t, y: &[f64], d: &mut [f64]| {
        one.eval_batch(t, y, d, &mut scratch);
    });
    let reference = dopri5_steps(&mut in_thread, &y0, tend);
    for m in [2, 3] {
        let placement = generator.place(&ir, &tasks, m);
        let pool = ExecutorPool::build(
            placement.graph.clone(),
            m,
            placement.assignment.clone(),
            Strategy::WorkStealing,
        )
        .unwrap();
        let mut rhs = ParallelRhs::new(pool, 16);
        let sol = dopri5_steps(&mut rhs, &y0, tend);
        assert!(rhs.scheduler.reschedules > 0, "m={m}");
        assert_eq!(sol.0, reference.0, "m={m}: grids");
        assert_eq!(sol.1, reference.1, "m={m}: states");
    }
}

/// The product start: a fault-free 2-worker pool on bearing2d/10, born
/// serial behind `ParallelRhs` with rescheduling every 16 calls, as
/// `omc simulate --workers 2` runs it. No helper finishes a ~2 µs call
/// sooner than the supervisor, so the pool never compiles its 2-worker
/// placement and runs every call in thread; either way its dopri5
/// trajectory is bitwise the `--workers 1` run's.
#[test]
fn a_born_serial_bearing_pool_never_compiles_its_placement() {
    let ir = bearing2d::ir(&bearing2d::BearingConfig {
        rollers: 10,
        ..bearing2d::BearingConfig::default()
    });
    let generator = CodeGenerator::default();
    let tasks = generator.tasks(&ir);
    let y0 = ir.initial_state();
    let tend = 0.01;
    let one = generator.place(&ir, &tasks, 1);
    let mut scratch = BatchScratch::new(&one.graph, 1);
    let graph = one.graph.clone();
    let mut in_thread = FnSystem::new(graph.dim, move |t, y: &[f64], d: &mut [f64]| {
        graph.eval_batch(t, y, d, &mut scratch);
    });
    let reference = dopri5_steps(&mut in_thread, &y0, tend);
    let compiled = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&compiled);
    let pool = ExecutorPool::born_serial(
        one.graph.clone(),
        2,
        FaultPlan::none(),
        FaultConfig::default(),
        &one.costs.schedule(2),
        move |_| {
            count.fetch_add(1, Ordering::Relaxed);
            let placement = CodeGenerator::default().place(&ir, &tasks, 2);
            (Arc::new(placement.graph), placement.assignment)
        },
    )
    .unwrap();
    let mut rhs = ParallelRhs::new(pool, 16);
    let sol = dopri5_steps(&mut rhs, &y0, tend);
    assert!(rhs.scheduler.reschedules > 0);
    assert!(rhs.pool.handoff_ns() > 0.0, "probed");
    // The placement is compiled exactly when a call left the solo path.
    let built = compiled.load(Ordering::Relaxed);
    assert_eq!(built, usize::from(rhs.pool.placed()));
    let all_solo = rhs.pool.supervisor_only_calls() == rhs.calls as u64;
    assert_eq!(all_solo, built == 0);
    // Optimised, a call takes ~2 µs and no wake-up is that short. An
    // unoptimised build interprets ~15 times slower, long enough for a
    // quick hand-off to pay, so there only the rule is checked.
    if !cfg!(debug_assertions) {
        let h = rhs.pool.handoff_ns();
        assert_eq!(built, 0, "hand-off {h} ns");
    }
    assert_eq!(sol.0, reference.0, "grids");
    assert_eq!(sol.1, reference.1, "states");
}

/// A pool switches between its two placements from one call to the
/// next: a supervisor-only call evaluates the one-cluster graph in
/// thread, a call that seeds a helper runs the per-worker clusters. Here
/// the pool is born serial, runs its first calls in thread without
/// compiling anything, and from then on every call is rebalanced by hand
/// so that solo and helper-seeded calls alternate over a whole dopri5
/// trajectory — tasks of 2^40 ns spread over both workers; 1 ns tasks
/// stay on the supervisor once a hand-off has been measured. The first
/// forced seed compiles the placement, and the trajectory must be
/// bitwise the in-thread one-cluster run's across the switch.
#[test]
fn switching_between_solo_and_seeded_calls_is_bitwise_the_in_thread_run() {
    const SOLO_FIRST: u64 = 8;
    let bearing = |rollers| {
        bearing2d::ir(&bearing2d::BearingConfig {
            rollers,
            ..bearing2d::BearingConfig::default()
        })
    };
    let heat = om_models::heat1d::source_distributed(&heat1d::HeatConfig {
        cells: 2050,
        velocity: 0.4,
        ..heat1d::HeatConfig::default()
    });
    let models = [
        ("bearing2d/10", bearing(10), 0.004),
        ("bearing2d/24", bearing(24), 0.002),
        ("bearing3d", bearing3d::ir(&Default::default()), 0.004),
        (
            "heat1d/2050 array-aware",
            om_ir::causalize(&om_lang::compile_arrays(&heat).unwrap()).unwrap(),
            1e-5,
        ),
    ];
    let generator = CodeGenerator::default();
    for (name, ir, tend) in &models {
        let tasks = generator.tasks(ir);
        let y0 = ir.initial_state();
        let one = generator.place(ir, &tasks, 1).graph;
        let mut scratch = BatchScratch::new(&one, 1);
        let mut in_thread = FnSystem::new(one.dim, |t, y: &[f64], d: &mut [f64]| {
            one.eval_batch(t, y, d, &mut scratch);
        });
        let reference = dopri5_steps(&mut in_thread, &y0, *tend);
        let placement = generator.place(ir, &tasks, 2);
        let n = placement.graph.tasks.len();
        assert!(n >= 2, "{name}: a helper needs a task");
        let (graph, assignment) = (placement.graph, placement.assignment);
        let mut pool = ExecutorPool::born_serial(
            one.clone(),
            2,
            FaultPlan::none(),
            FaultConfig::default(),
            &placement.schedule,
            move |_| (Arc::new(graph), assignment),
        )
        .unwrap();
        let mut calls = 0u64;
        let sol = {
            let mut alternating = FnSystem::new(one.dim, |t, y: &[f64], d: &mut [f64]| {
                if calls >= SOLO_FIRST {
                    let cost = [1 << 40, 1][calls as usize & 1];
                    pool.rebalance(&vec![cost; n]);
                }
                pool.rhs(t, y, d);
                calls += 1;
                let built = calls > SOLO_FIRST;
                assert_eq!(pool.placed(), built, "{name}: call {calls}");
                if !built {
                    assert_eq!(pool.supervisor_only_calls(), calls);
                }
            });
            dopri5_steps(&mut alternating, &y0, *tend)
        };
        let solo = pool.supervisor_only_calls();
        assert!(
            solo > SOLO_FIRST && solo < calls,
            "{name}: {solo} of {calls}"
        );
        assert_eq!(pool.graph().tasks.len(), n, "{name}");
        assert_eq!(sol.0, reference.0, "{name}: grids");
        assert_eq!(sol.1, reference.1, "{name}: states");
    }
}

/// The semi-dynamic rescheduler must not perturb work-stealing results
/// (seeding changes; values must not).
#[test]
fn ws_rescheduling_preserves_results() {
    let src = hydro::source();
    let (ir, graph) = graph_for(&src, false);
    let y0 = ir.initial_state();
    let mut ws = ws_pool(&graph, 3);
    let mut sched = om_runtime::SemiDynamicScheduler::new(1);
    let mut reference = vec![0.0; graph.dim];
    graph.eval_serial(0.0, &y0, &mut reference);
    for _ in 0..10 {
        let mut dydt = vec![0.0; graph.dim];
        ws.rhs(0.0, &y0, &mut dydt);
        assert_eq!(dydt, reference);
        sched.after_rhs_call(&mut ws);
    }
    assert_eq!(sched.reschedules, 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random states, times, worker counts: work stealing equals the
    /// sequential oracle bitwise on the multi-level hydro graph.
    #[test]
    fn prop_ws_matches_serial_on_hydro(
        seed in 0u64..1_000_000,
        workers in 1usize..5,
        t in 0.0f64..10.0,
    ) {
        let (ir, graph) = graph_for(&hydro::source(), false);
        let y = perturb(&ir.initial_state(), seed);
        let mut ws = ws_pool(&graph, workers);
        let mut d_serial = vec![0.0; graph.dim];
        let mut d_ws = vec![0.0; graph.dim];
        graph.eval_serial(t, &y, &mut d_serial);
        ws.rhs(t, &y, &mut d_ws);
        prop_assert_eq!(d_ws, d_serial);
    }

    /// Repeated calls through one pool stay self-consistent (no state
    /// leaks between calls; counters and deques reset correctly).
    #[test]
    fn prop_ws_repeated_calls_are_stable(seed in 0u64..1_000_000) {
        let (ir, graph) = graph_for(&bearing2d::source(&bearing2d::BearingConfig::default()), true);
        let y = perturb(&ir.initial_state(), seed);
        let mut ws = ws_pool(&graph, 4);
        let mut first = vec![0.0; graph.dim];
        ws.rhs(0.3, &y, &mut first);
        for _ in 0..5 {
            let mut again = vec![0.0; graph.dim];
            ws.rhs(0.3, &y, &mut again);
            prop_assert_eq!(&again, &first);
        }
    }
}
