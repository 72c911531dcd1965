//! Array-loop tasks under the parallel executors.
//!
//! The class-carrying task graph compiles interior stencil rows into a
//! handful of loop tasks (one bytecode body, per-iteration slot patching)
//! instead of one task per element. Loop tasks execute the *same*
//! bytecode on the same operands as the scalarized oracle, so the whole
//! trajectory must be bitwise identical — serially, under the barrier
//! pool, and under work stealing.

use om_runtime::{ExecutorPool, FaultConfig, FaultPlan, ParallelRhs, Strategy};
use om_solver::{dopri5, OdeSystem, Recorder, Tolerances};

/// Advection-diffusion stencil with distinct coefficients per indexed
/// term (sibling ordering decided by constants, so the interior rows
/// classify into an array class instead of falling back).
fn heat_src(n: usize) -> String {
    format!(
        "model H; Real[{n}] u; Real k;
         equation
           k = 0.5*time;
           der(u[1]) = 3.5*u[2] - 8.0*u[1] + k;
           for i in 2:{m} loop
             der(u[i]) = 4.5*u[i-1] - 8.0*u[i] + 3.5*u[i+1] + k;
           end for;
           der(u[{n}]) = 4.5*u[{m}] - 8.0*u[{n}] + k;
         end H;",
        m = n - 1
    )
}

struct SerialGraph {
    graph: om_codegen::TaskGraph,
    dim: usize,
}

impl OdeSystem for SerialGraph {
    fn dim(&self) -> usize {
        self.dim
    }
    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.graph.eval_serial(t, y, dydt);
    }
}

fn generate(ir: &om_ir::OdeIr) -> om_codegen::ParallelProgram {
    om_codegen::CodeGenerator::default().generate(ir)
}

fn pooled_trajectory(ir: &om_ir::OdeIr, n_workers: usize, y0: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let program = generate(ir);
    let sched = program.schedule(n_workers);
    let pool = ExecutorPool::with_faults(
        program.graph,
        n_workers,
        sched.assignment,
        FaultPlan::none(),
        FaultConfig::default(),
    )
    .unwrap();
    let mut rhs = ParallelRhs::new(pool, 0);
    let trajectory = dopri5_steps(&mut rhs, y0);
    assert!(rhs.last_error.is_none(), "{:?}", rhs.last_error);
    trajectory
}

/// Every accepted `(t, y)` of a default-tolerance dopri5 solve to 1.5.
fn dopri5_steps(sys: &mut dyn OdeSystem, y0: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut run = Recorder::new(sys);
    dopri5(&mut run, 0.0, y0, 1.5, &Tolerances::default()).unwrap();
    (run.ts, run.ys)
}

#[test]
fn loop_task_trajectories_match_oracle_across_executors() {
    let n = 24;
    let src = heat_src(n);
    let aware = om_ir::causalize(&om_lang::compile_arrays(&src).unwrap()).unwrap();
    let oracle = om_ir::causalize(&om_lang::compile(&src).unwrap()).unwrap();
    assert!(aware.has_classes(), "interior rows must classify");

    let aware_prog = generate(&aware);
    assert!(
        aware_prog.graph.tasks.iter().any(|t| t.loop_info.is_some()),
        "expected loop tasks in the array-aware graph"
    );

    let y0: Vec<f64> = (0..n).map(|i| (0.2 * i as f64).sin() + 0.05).collect();
    let reference = {
        let mut sys = SerialGraph {
            graph: generate(&oracle).graph,
            dim: n,
        };
        dopri5_steps(&mut sys, &y0)
    };
    // Array-aware serial.
    let mut aware_serial = SerialGraph {
        graph: aware_prog.graph,
        dim: n,
    };
    let serial = dopri5_steps(&mut aware_serial, &y0);
    assert_eq!(reference.0, serial.0, "serial time grid differs");
    assert_eq!(reference.1, serial.1, "serial states differ");
    // Array-aware pools.
    for n_workers in [2, 3] {
        let (ts, ys) = pooled_trajectory(&aware, n_workers, &y0);
        assert_eq!(reference.0, ts, "{n_workers} workers: time grid differs");
        assert_eq!(reference.1, ys, "{n_workers} workers: states differ");
    }
}

/// One scratch sizing for both placements: `BatchScratch::new` sizes
/// loop kernels by their block and plain programs by one lane. A graph
/// mixing both runs in-thread on the one-lane scratch it returns, and the
/// pool — whose workers each hold the same one-lane scratch — agrees
/// bitwise.
#[test]
fn mixed_loop_and_plain_graph_runs_on_one_scratch_sizing() {
    let n = 2 * om_codegen::vm::LOOP_BLOCK * 8 + 2;
    let aware = om_ir::causalize(&om_lang::compile_arrays(&heat_src(n)).unwrap()).unwrap();
    let program = generate(&aware);
    let graph = &program.graph;
    assert!(graph.tasks.iter().any(|t| t.loop_info.is_some()));
    assert!(graph.tasks.iter().any(|t| t.loop_info.is_none()));

    let y0: Vec<f64> = (0..n).map(|i| (0.2 * i as f64).sin() + 0.05).collect();
    let mut scratch = om_codegen::BatchScratch::new(graph, 1);
    let mut serial = vec![0.0; n];
    graph.eval_batch(0.4, &y0, &mut serial, &mut scratch);
    let sched = program.schedule(2);
    let mut pool =
        ExecutorPool::build(graph.clone(), 2, sched.assignment, Strategy::WorkStealing).unwrap();
    let mut pooled = vec![0.0; n];
    pool.rhs(0.4, &y0, &mut pooled);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&serial), bits(&pooled));
}

#[test]
fn loop_task_graph_is_smaller_than_oracle_graph() {
    let n = 64;
    let src = heat_src(n);
    let aware = om_ir::causalize(&om_lang::compile_arrays(&src).unwrap()).unwrap();
    let oracle = om_ir::causalize(&om_lang::compile(&src).unwrap()).unwrap();
    let na = generate(&aware).graph.tasks.len();
    let no = generate(&oracle).graph.tasks.len();
    assert!(
        na < no / 2,
        "array-aware graph should be much smaller: {na} vs {no}"
    );
}
