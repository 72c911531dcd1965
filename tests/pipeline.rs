//! End-to-end integration tests: ObjectMath source → frontend → internal
//! form → code generation → parallel execution → numerical solution,
//! validated against closed-form mathematics.

use objectmath::codegen::{CodeGenerator, CseMode, GenOptions};
use objectmath::ir::causalize;
use objectmath::runtime::{ExecutorPool, ParallelRhs, Strategy};
use objectmath::solver::{dopri5, rk4, Tolerances};

fn pipeline(source: &str, options: GenOptions, workers: usize) -> ParallelRhs {
    let flat = objectmath::lang::compile(source).expect("compiles");
    let ir = causalize(&flat).expect("causalizes");
    objectmath::ir::verify_compilable(&ir).expect("verifies");
    let program = CodeGenerator::new(options).generate(&ir);
    let schedule = program.schedule(workers);
    ParallelRhs::new(
        ExecutorPool::build(
            program.graph,
            workers,
            schedule.assignment,
            Strategy::default(),
        )
        .unwrap(),
        16,
    )
}

#[test]
fn exponential_decay_through_full_pipeline() {
    let mut rhs = pipeline(
        "model Decay; parameter Real k = 0.7; Real x(start = 2.0);
         equation der(x) = -k*x; end Decay;",
        GenOptions::default(),
        2,
    );
    let sol = rk4(&mut rhs, 0.0, &[2.0], 3.0, 1e-3).unwrap();
    let exact = 2.0 * (-0.7f64 * 3.0).exp();
    assert!((sol.y_end()[0] - exact).abs() < 1e-9);
}

#[test]
fn coupled_oscillator_with_inheritance_and_parts() {
    // Two coupled mass-springs built with inheritance; the analytic
    // normal-mode frequencies are √(k/m) and √(3k/m).
    let source = "
        class Mass;
          parameter Real m = 1.0;
          parameter Real k = 1.0;
          Real x;
          Real v;
          Real f;
          equation
            der(x) = v;
            m*der(v) = f;
        end Mass;
        model TwoMass;
          part Mass a (x = 1.0);
          part Mass b (x = 1.0);
          equation
            a.f = -a.x - (a.x - b.x);
            b.f = -b.x - (b.x - a.x);
        end TwoMass;
    ";
    // Symmetric start (1, 1): pure mode 1, x(t) = cos(t).
    let mut rhs = pipeline(source, GenOptions::default(), 3);
    let t_end = 2.0 * std::f64::consts::PI;
    let tol = Tolerances {
        rtol: 1e-9,
        atol: 1e-12,
        ..Tolerances::default()
    };
    let flat = objectmath::lang::compile(source).unwrap();
    let ir = causalize(&flat).unwrap();
    let sol = dopri5(&mut rhs, 0.0, &ir.initial_state(), t_end, &tol).unwrap();
    let a_x = ir.find_state("a.x").unwrap();
    let b_x = ir.find_state("b.x").unwrap();
    assert!((sol.y_end()[a_x] - 1.0).abs() < 1e-6, "{:?}", sol.y_end());
    assert!((sol.y_end()[b_x] - 1.0).abs() < 1e-6);
}

#[test]
fn every_generator_option_combination_agrees_with_reference() {
    let source = "
        class Contact;
          parameter Real k = 100.0;
          Real x(start = 0.5);
          Real v(start = -1.0);
          Real f;
          equation
            der(x) = v;
            der(v) = f - 9.81;
            f = if x < 0.0 then -k*x - 2.0*v else 0.0;
        end Contact;
        model Bouncer;
          part Contact c1;
          part Contact c2 (x = 0.8, v = 0.3);
          Real coupling;
          equation
            coupling = 0.1*(c2.x - c1.x) + exp(sin(c1.x)*0.2);
        end Bouncer;
    ";
    let flat = objectmath::lang::compile(source).unwrap();
    let ir = causalize(&flat).unwrap();
    let reference = objectmath::ir::IrEvaluator::new(&ir).unwrap();
    let y0 = ir.initial_state();
    let mut expect = vec![0.0; ir.dim()];
    reference.rhs(0.25, &y0, &mut expect);

    for cse in [CseMode::Off, CseMode::PerTask, CseMode::Global] {
        for inline in [true, false] {
            for workers in [1, 2, 4] {
                let mut rhs = pipeline(
                    source,
                    GenOptions {
                        cse,
                        inline_algebraics: inline,
                        ..GenOptions::default()
                    },
                    workers,
                );
                use objectmath::solver::OdeSystem;
                let mut got = vec![0.0; ir.dim()];
                rhs.rhs(0.25, &y0, &mut got);
                for i in 0..ir.dim() {
                    assert!(
                        (expect[i] - got[i]).abs() < 1e-12,
                        "cse={cse:?} inline={inline} workers={workers} slot={i}"
                    );
                }
            }
        }
    }
}

#[test]
fn runtime_settable_start_values_change_the_trajectory() {
    // "It is essential that the start values for the simulation can be
    // changed without re-compilation" (§3.2).
    let source = "model M; Real x(start = 1.0);
                  equation der(x) = -x; end M;";
    let flat = objectmath::lang::compile(source).unwrap();
    let mut ir = causalize(&flat).unwrap();
    assert!(ir.set_start("x", 5.0));
    let program = CodeGenerator::default().generate(&ir);
    let schedule = program.schedule(1);
    let mut rhs = ParallelRhs::new(
        ExecutorPool::build(program.graph, 1, schedule.assignment, Strategy::default()).unwrap(),
        0,
    );
    let sol = rk4(&mut rhs, 0.0, &ir.initial_state(), 1.0, 1e-3).unwrap();
    assert!((sol.y_end()[0] - 5.0 * (-1.0f64).exp()).abs() < 1e-8);
}

#[test]
fn all_paper_models_run_through_the_parallel_pipeline() {
    use objectmath::models::{bearing2d, hydro, oscillator, servo};
    use objectmath::solver::OdeSystem;
    let sources = vec![
        oscillator::source(),
        servo::source(),
        hydro::source(),
        bearing2d::source(&bearing2d::BearingConfig {
            rollers: 6,
            ..bearing2d::BearingConfig::default()
        }),
    ];
    for source in sources {
        let flat = objectmath::lang::compile(&source).expect("compiles");
        let ir = causalize(&flat).expect("causalizes");
        objectmath::ir::verify_compilable(&ir).expect("verifies");
        let reference = objectmath::ir::IrEvaluator::new(&ir).unwrap();
        let program = CodeGenerator::default().generate(&ir);
        let schedule = program.schedule(3);
        let mut rhs = ParallelRhs::new(
            ExecutorPool::build(program.graph, 3, schedule.assignment, Strategy::default())
                .unwrap(),
            8,
        );
        let y0 = ir.initial_state();
        let mut expect = vec![0.0; ir.dim()];
        let mut got = vec![0.0; ir.dim()];
        reference.rhs(0.0, &y0, &mut expect);
        rhs.rhs(0.0, &y0, &mut got);
        for i in 0..ir.dim() {
            assert!(
                (expect[i] - got[i]).abs() < 1e-10 * (1.0 + expect[i].abs()),
                "model {} slot {i}: {} vs {}",
                ir.name,
                expect[i],
                got[i]
            );
        }
    }
}

#[test]
fn stiff_model_solved_by_lsoda_switcher_through_pipeline() {
    let source = "
        model Stiff;
          parameter Real lambda = 900.0;
          Real x(start = 0.0);
          Real slow(start = 1.0);
          equation
            der(x) = -lambda*(x - cos(time));
            der(slow) = -0.1*slow;
        end Stiff;
    ";
    let mut rhs = pipeline(source, GenOptions::default(), 2);
    let opts = objectmath::solver::LsodaOptions::default();
    let sol = objectmath::solver::lsoda(&mut rhs, 0.0, &[0.0, 1.0], 2.0, &opts).unwrap();
    assert!((sol.solution.y_end()[0] - (2.0f64).cos()).abs() < 1e-2);
    assert!((sol.solution.y_end()[1] - (-0.2f64).exp()).abs() < 1e-4);
    assert!(sol.stiff_fraction() > 0.2, "{}", sol.stiff_fraction());
}
