//! Every in-process call the benchmark makes into the program goes
//! through this file: one thin function per pinned public entry point,
//! named after the layer it enters. When a signature changes, this is
//! the only benchmark file to fix (the list is repeated in README.md).
//!
//! The generated models always compile, so a failure here is a bug in
//! the program or the benchmark and panics with the layer's message.

use om_codegen::comm::MessagePolicy;
use om_codegen::task::TaskGraph;
use om_codegen::{
    emit_fortran, BatchScratch, CodeGenerator, CompiledModel, ModelRegistry, ParallelProgram,
    Schedule,
};
use om_ir::{IrEvaluator, OdeIr};
use om_lang::ast::Unit;
use om_lang::FlatModel;
use om_runtime::serve::quota::ClientState;
use om_runtime::{
    ExecutorPool, MachineSpec, Manifest, ParallelRhs, ScenarioSpec, ServeConfig, Server, Strategy,
    SweepConfig, SweepResult,
};
use om_solver::{BdfOptions, LuFactors, Matrix, OdeSystem, Solution, Tolerances};
use std::sync::Arc;

pub use om_runtime::ensemble::json;

// ---- om-lang ---------------------------------------------------------

pub fn parse_unit(source: &str) -> Unit {
    om_lang::parse_unit(source).expect("om-lang: parse_unit")
}

pub fn scope_check(unit: &Unit) {
    om_lang::scope::check(unit).expect("om-lang: scope::check");
}

pub fn flatten(unit: &Unit) -> FlatModel {
    om_lang::flatten(unit).expect("om-lang: flatten")
}

pub fn flatten_arrays(unit: &Unit) -> FlatModel {
    om_lang::flatten_arrays(unit).expect("om-lang: flatten_arrays")
}

// ---- om-ir -----------------------------------------------------------

pub fn causalize(flat: &FlatModel) -> OdeIr {
    om_ir::causalize(flat).expect("om-ir: causalize")
}

pub fn verify_compilable(ir: &OdeIr) {
    om_ir::verify_compilable(ir).expect("om-ir: verify_compilable");
}

pub fn evaluator_new(ir: &OdeIr) -> IrEvaluator {
    IrEvaluator::new(ir).expect("om-ir: IrEvaluator::new")
}

/// The tree-walking evaluator as the `OdeSystem` `omc simulate` builds
/// for `--workers 1`.
pub fn evaluator_system(evaluator: IrEvaluator) -> impl OdeSystem {
    om_solver::FnSystem::new(evaluator.dim(), move |t, y: &[f64], d: &mut [f64]| {
        evaluator.rhs(t, y, d);
    })
}

// ---- om-codegen ------------------------------------------------------

pub fn generate(ir: &OdeIr) -> ParallelProgram {
    CodeGenerator::default().generate(ir)
}

pub fn schedule(program: &ParallelProgram, workers: usize) -> Schedule {
    program.schedule(workers)
}

pub fn emit_parallel_f90(
    program: &ParallelProgram,
    sched: &Schedule,
    workers: usize,
    ir: &OdeIr,
) -> String {
    let cost_model = CodeGenerator::default().options.cost_model;
    emit_fortran::emit_parallel(&program.tasks, &sched.assignment, workers, ir, &cost_model).text
}

pub fn registry_get_or_compile(registry: &ModelRegistry, source: &str) -> Arc<CompiledModel> {
    registry
        .get_or_compile(source)
        .expect("om-codegen: ModelRegistry::get_or_compile")
}

// ---- om-codegen::vm --------------------------------------------------

pub fn eval_serial(graph: &TaskGraph, t: f64, y: &[f64], dydt: &mut [f64]) {
    graph.eval_serial(t, y, dydt);
}

pub fn batch_scratch(graph: &TaskGraph, lanes: usize) -> BatchScratch {
    BatchScratch::new(graph, lanes)
}

pub fn eval_batch(
    graph: &TaskGraph,
    t: f64,
    ys: &[f64],
    dydt: &mut [f64],
    scratch: &mut BatchScratch,
) {
    graph.eval_batch(t, ys, dydt, scratch);
}

/// The bytecode VM as a serial `OdeSystem` (the stiff reference's RHS).
pub fn serial_vm_system(graph: TaskGraph) -> impl OdeSystem {
    om_solver::FnSystem::new(graph.dim, move |t, y: &[f64], d: &mut [f64]| {
        graph.eval_serial(t, y, d);
    })
}

// ---- om-runtime executors --------------------------------------------

pub fn pool_build(
    graph: TaskGraph,
    workers: usize,
    assignment: Vec<usize>,
    strategy: Strategy,
) -> ExecutorPool {
    ExecutorPool::build(graph, workers, assignment, strategy)
        .expect("om-runtime: ExecutorPool::build")
}

pub fn pool_rhs(pool: &mut ExecutorPool, t: f64, y: &[f64], dydt: &mut [f64]) {
    pool.rhs(t, y, dydt);
}

/// `ParallelRhs` with the rescheduling period `omc simulate` uses.
pub fn parallel_rhs(pool: ExecutorPool) -> ParallelRhs {
    ParallelRhs::new(pool, 16)
}

/// Serial ÷ parallel RHS time the machine model predicts for
/// `assignment` on the paper's shared-memory machine.
pub fn sim_speedup(graph: &TaskGraph, assignment: &[usize], workers: usize) -> f64 {
    let machine = MachineSpec::sparc_center_2000();
    let parallel = om_runtime::simulate_rhs_time(
        graph,
        assignment,
        workers,
        &machine,
        MessagePolicy::Composed,
    );
    om_runtime::sim::simulate_serial_time(graph, &machine) / parallel.total
}

// ---- om-solver -------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub enum Solver {
    Dopri5 { rtol: f64 },
    Rk4 { h: f64 },
    Bdf,
}

/// The solver call `omc simulate` makes: default `--atol`, and default
/// `--rtol` unless the variant overrides it.
pub fn solve(solver: Solver, sys: &mut dyn OdeSystem, y0: &[f64], tend: f64) -> Solution {
    let tol = |rtol| Tolerances {
        rtol,
        atol: 1e-9,
        ..Tolerances::default()
    };
    match solver {
        Solver::Dopri5 { rtol } => om_solver::dopri5(sys, 0.0, y0, tend, &tol(rtol)),
        Solver::Rk4 { h } => om_solver::rk4(sys, 0.0, y0, tend, h),
        Solver::Bdf => {
            let opts = BdfOptions {
                tol: tol(1e-6),
                ..BdfOptions::default()
            };
            om_solver::bdf(sys, 0.0, y0, tend, &opts)
        }
    }
    .expect("om-solver: solve")
}

pub fn lu_factor(matrix: &Matrix) -> LuFactors {
    matrix.lu().expect("om-solver: Matrix::lu")
}

pub fn lu_solve(factors: &LuFactors, b: &[f64]) -> Vec<f64> {
    factors.solve(b)
}

// ---- om-runtime::ensemble --------------------------------------------

pub fn run_sweep(
    model: &Arc<CompiledModel>,
    scenarios: &[ScenarioSpec],
    cfg: &SweepConfig,
) -> SweepResult {
    om_runtime::run_sweep(model, scenarios, cfg).expect("om-runtime: run_sweep")
}

pub fn manifest_render(manifest: &Manifest) -> String {
    manifest.render_json()
}

// ---- om-runtime::serve -----------------------------------------------

pub fn server_new(pool_threads: usize) -> Server {
    Server::new(ServeConfig {
        pool_threads,
        ..ServeConfig::default()
    })
}

pub fn server_handle_line(server: &Server, line: &str, client: &mut ClientState) -> Vec<String> {
    server.handle_line(line, client, server.now_ns())
}
