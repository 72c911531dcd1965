//! Criterion micro-benchmarks for the pipeline's hot kernels, grouped by
//! the experiment family they support:
//!
//! * `frontend`   — parse + flatten + causalize (compiler throughput),
//! * `symbolic`   — simplify / differentiate (the Mathematica-replacement
//!   work behind E3/E5),
//! * `analysis`   — Tarjan SCC on generated graphs (E1/E2),
//! * `codegen`    — CSE + bytecode compilation of the bearing model (E5),
//! * `scheduling` — LPT and list scheduling (E6),
//! * `rhs`        — serial vs parallel RHS evaluation and one solver step
//!   (E4: the quantity Figure 12 counts per second).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use om_codegen::{lpt, CodeGenerator, GenOptions};
use om_models::bearing2d::{self, BearingConfig};
use om_runtime::{ExecutorPool, Strategy};
use std::hint::black_box;

fn bench_frontend(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontend");
    let source = bearing2d::source(&BearingConfig::default());
    g.bench_function("parse_bearing", |b| {
        b.iter(|| om_lang::parse_unit(black_box(&source)).expect("parses"))
    });
    g.bench_function("compile_bearing_to_flat", |b| {
        b.iter(|| om_lang::compile(black_box(&source)).expect("compiles"))
    });
    let flat = om_lang::compile(&source).expect("compiles");
    g.bench_function("causalize_bearing", |b| {
        b.iter(|| om_ir::causalize(black_box(&flat)).expect("causalizes"))
    });
    g.finish();
}

fn bench_symbolic(c: &mut Criterion) {
    let mut g = c.benchmark_group("symbolic");
    let ir = bearing2d::ir(&BearingConfig::default());
    let rhs = ir.derivs[3].rhs.clone(); // a roller contact equation
    g.bench_function("simplify_contact_rhs", |b| {
        b.iter(|| om_expr::simplify(black_box(&rhs)))
    });
    let x = ir.states[0].sym;
    g.bench_function("differentiate_contact_rhs", |b| {
        b.iter(|| om_expr::diff(black_box(&rhs), x))
    });
    let inlined = ir.inlined_rhs();
    g.bench_function("inline_algebraics_bearing", |b| {
        b.iter(|| black_box(&ir).inlined_rhs())
    });
    g.bench_function("flops_inlined_rhs", |b| {
        b.iter(|| inlined.iter().map(om_expr::flops).sum::<u64>())
    });
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("analysis");
    let ir = bearing2d::ir(&BearingConfig {
        rollers: 24,
        ..BearingConfig::default()
    });
    let dep = om_analysis::build_dependency_graph(&ir);
    g.bench_function("build_depgraph_bearing24", |b| {
        b.iter(|| om_analysis::build_dependency_graph(black_box(&ir)))
    });
    g.bench_function("tarjan_scc_bearing24", |b| {
        b.iter(|| black_box(&dep.graph).tarjan_scc())
    });
    g.finish();
}

fn bench_codegen(c: &mut Criterion) {
    let mut g = c.benchmark_group("codegen");
    let ir = bearing2d::ir(&BearingConfig::default());
    let generator = CodeGenerator::default();
    g.bench_function("generate_task_graph_bearing", |b| {
        b.iter(|| generator.generate(black_box(&ir)))
    });
    g.bench_function("emit_fortran_parallel_bearing", |b| {
        let program = generator.generate(&ir);
        let sched = program.schedule(8);
        b.iter(|| {
            om_codegen::emit_fortran::emit_parallel(
                &program.tasks,
                &sched.assignment,
                8,
                &ir,
                &generator.options.cost_model,
            )
        })
    });
    g.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduling");
    // Synthetic task costs shaped like a big bearing (hundreds of tasks).
    let costs: Vec<u64> = (0..400).map(|i| 100 + (i * 37) % 900).collect();
    g.bench_function("lpt_400_tasks_16_workers", |b| {
        b.iter(|| lpt(black_box(&costs), 16))
    });
    let deps: Vec<Vec<usize>> = (0..400)
        .map(|i| if i >= 4 { vec![i - 4] } else { Vec::new() })
        .collect();
    g.bench_function("list_schedule_400_tasks_16_workers", |b| {
        b.iter(|| om_codegen::list_schedule(black_box(&costs), black_box(&deps), 16))
    });
    g.finish();
}

fn bench_rhs(c: &mut Criterion) {
    let mut g = c.benchmark_group("rhs");
    let cfg = BearingConfig {
        waviness: 6,
        ..BearingConfig::default()
    };
    let ir = bearing2d::ir(&cfg);
    let y0 = ir.initial_state();
    let dim = ir.dim();

    // Tree-walking reference evaluator.
    let reference = om_ir::IrEvaluator::new(&ir).expect("verified");
    g.bench_function("rhs_tree_interpreter", |b| {
        let mut dydt = vec![0.0; dim];
        b.iter(|| reference.rhs(black_box(0.0), black_box(&y0), &mut dydt))
    });

    // Compiled bytecode, serial.
    let program = CodeGenerator::new(GenOptions {
        merge_threshold: 48,
        ..GenOptions::default()
    })
    .generate(&ir);
    let graph = program.graph.clone();
    g.bench_function("rhs_bytecode_serial", |b| {
        let mut dydt = vec![0.0; dim];
        b.iter(|| graph.eval_serial(black_box(0.0), black_box(&y0), &mut dydt))
    });

    // Executor pool (2 workers, fence policy) — includes the per-level fences.
    let costs: Vec<u64> = graph.tasks.iter().map(|t| t.static_cost).collect();
    let sched = lpt(&costs, 2);
    let mut pool = ExecutorPool::build(graph.clone(), 2, sched.assignment, Strategy::default())
        .expect("valid pool");
    g.bench_function("rhs_worker_pool_2", |b| {
        let mut dydt = vec![0.0; dim];
        b.iter(|| pool.rhs(black_box(0.0), black_box(&y0), &mut dydt))
    });

    // One adaptive solver step driving the serial RHS.
    g.bench_function("dopri5_short_bearing_run", |b| {
        b.iter_batched(
            || om_ir::IrEvaluator::new(&ir).expect("verified"),
            |evaluator| {
                let mut sys = om_solver::FnSystem::new(dim, move |t, y: &[f64], d: &mut [f64]| {
                    evaluator.rhs(t, y, d);
                });
                om_solver::dopri5(&mut sys, 0.0, &y0, 2e-5, &om_solver::Tolerances::default())
                    .expect("solves")
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_frontend, bench_symbolic, bench_analysis, bench_codegen,
              bench_scheduling, bench_rhs
}
criterion_main!(benches);
