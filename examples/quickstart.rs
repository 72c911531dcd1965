//! Quickstart: compile an ObjectMath model, extract parallelism, and
//! simulate it with a parallel RHS.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use objectmath::analysis::{build_dependency_graph, partition_by_scc};
use objectmath::codegen::CodeGenerator;
use objectmath::ir::causalize;
use objectmath::runtime::{ExecutorPool, ParallelRhs, Strategy};
use objectmath::solver::{dopri5, Tolerances};

fn main() {
    // 1. An object-oriented mathematical model: a damped oscillator
    //    written as acausal equations (note `m*der(v)` on the left).
    let source = "
        class Body;
          parameter Real m = 2.0;
          parameter Real k = 8.0;
          parameter Real c = 0.4;
          Real x(start = 1.0);
          Real v(start = 0.0);
          Real f;
          equation
            der(x) = v;
            m * der(v) = f;
            f + k*x + c*v = 0.0;
        end Body;

        model QuickStart;
          part Body body;
        end QuickStart;
    ";

    // 2. Frontend: parse → scope-check → flatten → causalize.
    let flat = objectmath::lang::compile(source).expect("model compiles");
    println!(
        "flattened: {} variables, {} equations",
        flat.variables.len(),
        flat.equations.len()
    );
    let ir = causalize(&flat).expect("model causalizes");
    println!(
        "internal form: {} states, {} algebraic assignments",
        ir.dim(),
        ir.algebraics.len()
    );

    // 3. Dependency analysis (the paper's equation-system level).
    let dep = build_dependency_graph(&ir);
    let part = partition_by_scc(&dep);
    println!("strongly connected components: {:?}", part.scc_sizes());

    // 4. Code generation: equation-level tasks, CSE, LPT schedule.
    let program = CodeGenerator::default().generate(&ir);
    let workers = 2;
    let schedule = program.schedule(workers);
    println!(
        "tasks: {}, makespan estimate: {} flops on {workers} workers (imbalance {:.3})",
        program.graph.tasks.len(),
        schedule.makespan,
        schedule.imbalance()
    );

    // 5. Run: the ODE solver (supervisor) drives the parallel RHS.
    let pool = ExecutorPool::build(
        program.graph,
        workers,
        schedule.assignment,
        Strategy::default(),
    )
    .expect("valid pool");
    let mut rhs = ParallelRhs::new(pool, 16);
    let sol = dopri5(
        &mut rhs,
        0.0,
        &ir.initial_state(),
        10.0,
        &Tolerances::default(),
    )
    .expect("integration succeeds");
    println!(
        "integrated to t = {} in {} steps ({} RHS calls)",
        sol.t_end(),
        sol.stats.steps,
        sol.stats.rhs_calls
    );
    println!(
        "final state: x = {:+.6}, v = {:+.6}",
        sol.y_end()[0],
        sol.y_end()[1]
    );

    // Damped oscillation: analytic check for the curious.
    let (m, k, c) = (2.0, 8.0, 0.4);
    let wn = f64::sqrt(k / m);
    let zeta = c / (2.0 * f64::sqrt(k * m));
    let wd = wn * f64::sqrt(1.0 - zeta * zeta);
    let t = sol.t_end();
    let env = (-zeta * wn * t).exp();
    let x_exact = env * ((wd * t).cos() + zeta * wn / wd * (wd * t).sin());
    println!("analytic solution: x = {x_exact:+.6}");
}
