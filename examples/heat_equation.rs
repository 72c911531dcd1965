//! PDE extension demo (paper §6): a 1D advection–diffusion equation,
//! discretized by the method of lines *in the modeling language*, run
//! through the parallel pipeline.
//!
//! ```text
//! cargo run --release --example heat_equation [cells] [workers]
//! ```

use objectmath::codegen::{CodeGenerator, GenOptions};
use objectmath::models::heat1d::{self, HeatConfig};
use objectmath::runtime::{ExecutorPool, ParallelRhs, Strategy};
use objectmath::solver::{dopri5, Tolerances};

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(96);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    let cfg = HeatConfig {
        cells,
        alpha: 1.0,
        ..HeatConfig::default()
    };
    println!("== 1D heat equation, {cells} cells (method of lines) ==");
    let sys = heat1d::ir(&cfg);
    println!(
        "ODE system: {} equations, all derivable in parallel",
        sys.dim()
    );

    let generator = CodeGenerator::new(GenOptions {
        merge_threshold: 24,
        ..GenOptions::default()
    });
    let program = generator.generate(&sys);
    let schedule = program.schedule(workers);
    println!(
        "tasks: {} on {workers} workers, LPT imbalance {:.3}",
        program.graph.tasks.len(),
        schedule.imbalance()
    );

    let pool = ExecutorPool::build(
        program.graph,
        workers,
        schedule.assignment,
        Strategy::WorkStealing,
    )
    .expect("valid pool");
    let mut rhs = ParallelRhs::new(pool, 32);
    let t_end = 0.05;
    let tol = Tolerances {
        rtol: 1e-8,
        atol: 1e-11,
        ..Tolerances::default()
    };
    let sol =
        dopri5(&mut rhs, 0.0, &sys.initial_state(), t_end, &tol).expect("integration succeeds");
    println!(
        "integrated to t = {t_end} in {} steps ({} RHS calls)",
        sol.stats.steps, sol.stats.rhs_calls
    );

    // The sin(πx) initial profile is the first eigenmode: it decays at
    // the known discrete rate, so the PDE solve has an exact answer.
    let lambda = cfg.discrete_eigenvalue(1);
    let decay = (-lambda * t_end).exp();
    let mid = sys
        .find_state(&format!("u[{}]", cells.div_ceil(2)))
        .expect("state");
    println!(
        "peak temperature: computed {:.8}, analytic {:.8} (λ₁ = {lambda:.3})",
        sol.y_end()[mid],
        sys.initial_state()[mid] * decay
    );

    // A low-resolution rendering of the final temperature profile.
    println!("\nfinal profile:");
    let samples = 24usize;
    for row in 0..8 {
        let threshold = 1.0 - row as f64 / 8.0;
        let mut line = String::new();
        for s in 0..samples {
            let cell = 1 + s * (cells - 1) / (samples - 1);
            let idx = sys.find_state(&format!("u[{cell}]")).expect("state");
            line.push(if sol.y_end()[idx] >= threshold * decay {
                '#'
            } else {
                ' '
            });
        }
        println!("  |{line}|");
    }
    println!("  +{}+", "-".repeat(samples));
}
