//! The structured stiff path, end to end: one symbolic pattern
//! (`om_ir::jacobian`) drives the coloured finite-difference Jacobian and
//! the band-limited LU, and changes the *cost* of an implicit solve — the
//! RHS-call count — without changing a digit of it.

use objectmath::codegen::{BatchScratch, CodeGenerator};
use objectmath::ir::jacobian::{jacobian_pattern, symbolic_jacobian};
use objectmath::ir::{causalize, OdeIr};
use objectmath::models::{bearing2d, bearing3d, heat1d, hydro};
use objectmath::runtime::{model_sparsity, ModelSystem};
use objectmath::solver::{bdf, fd_jacobian, BdfOptions, FnSystem, OdeSystem, Recorder, Sparsity};

/// The generated task graph evaluated in this thread: the RHS
/// `omc simulate --workers 1` integrates.
fn graph_rhs(ir: &OdeIr) -> impl OdeSystem {
    let graph = CodeGenerator::default().generate(ir).graph;
    let mut scratch = BatchScratch::new(&graph, 1);
    FnSystem::new(graph.dim, move |t, y: &[f64], d: &mut [f64]| {
        graph.eval_batch(t, y, d, &mut scratch);
    })
}

/// `omc heat1d --size cells`: the distributed stencil with advection.
fn heat_source(cells: usize) -> String {
    heat1d::source_distributed(&heat1d::HeatConfig {
        cells,
        velocity: 0.4,
        ..Default::default()
    })
}

fn compile(source: &str, array_aware: bool) -> OdeIr {
    let flat = if array_aware {
        objectmath::lang::compile_arrays(source)
    } else {
        objectmath::lang::compile(source)
    }
    .expect("compiles");
    causalize(&flat).expect("causalizes")
}

/// Every model the issue names: the builtins, hydro, and `examples/*.om`.
fn models() -> Vec<(String, OdeIr)> {
    let mut out = vec![
        ("heat1d".to_owned(), compile(&heat_source(64), false)),
        (
            "heat1d --array-aware".to_owned(),
            compile(&heat_source(64), true),
        ),
        ("bearing2d".to_owned(), bearing2d::ir(&Default::default())),
        ("bearing3d".to_owned(), bearing3d::ir(&Default::default())),
        ("hydro".to_owned(), hydro::ir()),
    ];
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut om_files: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "om"))
        .collect();
    om_files.sort();
    assert!(!om_files.is_empty(), "no .om models under {examples:?}");
    for path in om_files {
        let source = std::fs::read_to_string(&path).expect("readable example");
        out.push((path.display().to_string(), compile(&source, false)));
    }
    out
}

/// Two evaluation points per model: the start state and a state nudged
/// off it — so symmetric start values cannot hide a wrong entry, and so
/// a start value sitting exactly on a kink (hydro's `max(0, min(1,
/// ipart))` at `ipart = 0`) has a smooth neighbour to differentiate at.
fn probe_states(ir: &OdeIr) -> [Vec<f64>; 2] {
    let y0 = ir.initial_state();
    let nudged = y0
        .iter()
        .enumerate()
        .map(|(i, v)| v * (1.0 + 1e-3 * (i as f64).sin()) + 1e-7 * (2.0 + (i as f64).cos()))
        .collect();
    [y0, nudged]
}

#[test]
fn coloured_fd_jacobian_is_bitwise_the_n_colour_sweep() {
    for (name, ir) in models() {
        let n = ir.dim();
        let pattern = model_sparsity(&ir);
        let dense = Sparsity::dense(n);
        let mut sys = graph_rhs(&ir);
        for y in probe_states(&ir) {
            let coloured = fd_jacobian(&mut sys, 0.0, &y, &pattern).expect("finite RHS");
            let swept = fd_jacobian(&mut sys, 0.0, &y, &dense).expect("finite RHS");
            for (k, (a, b)) in coloured.iter().zip(&swept).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}: J[{}][{}] coloured {a:e} vs one-column {b:e}",
                    k / n,
                    k % n
                );
            }
        }
        assert!(pattern.groups().len() <= n, "{name}");
    }
}

#[test]
fn pattern_covers_the_symbolic_jacobian_and_fd_agrees_with_it() {
    for (name, ir) in models() {
        let n = ir.dim();
        let pattern = jacobian_pattern(&ir);
        let symbolic = symbolic_jacobian(&ir);
        for (i, row) in symbolic.entries.iter().enumerate() {
            for (j, entry) in row.iter().enumerate() {
                assert!(
                    entry.is_const(0.0) || pattern.contains(i, j),
                    "{name}: ∂f{i}/∂y{j} = {entry:?} is off the pattern"
                );
            }
        }
        assert!(symbolic.nnz <= pattern.nnz(), "{name}");

        let evaluator = symbolic.evaluator(&ir).expect("closed over the states");
        let sparsity = model_sparsity(&ir);
        let mut sys = graph_rhs(&ir);
        let mut exact = vec![0.0; n * n];
        let mut f = vec![0.0; n];
        // Derivatives are compared where they exist: at the nudged state.
        let [_, y] = probe_states(&ir);
        evaluator.eval(0.0, &y, &mut exact);
        let fd = fd_jacobian(&mut sys, 0.0, &y, &sparsity).expect("finite RHS");
        // "Agree" has two parts. Truncation: 1e-5 of the row's largest
        // entry — 1e-4 on the bearings, whose contact stiffness has a
        // second derivative that puts 1e-5 out of a forward difference's
        // reach. Rounding: the solver's step is δⱼ = 1e-8·max(|yⱼ|, 1e-8),
        // so a state near zero divides the RHS's own rounding noise — ε
        // times the magnitude of the terms f_i sums — by a tiny δⱼ. Both
        // are the inherited price of the step rule; neither depends on
        // the colouring (previous test).
        let relative = if name.contains("bearing") { 1e-4 } else { 1e-5 };
        sys.rhs(0.0, &y, &mut f);
        for (i, (fd_row, exact_row)) in fd.chunks(n).zip(exact.chunks(n)).enumerate() {
            let scale = exact_row.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            let terms: f64 = exact_row.iter().zip(&y).map(|(d, v)| (d * v).abs()).sum();
            let noise = 16.0 * f64::EPSILON * (f[i].abs() + terms);
            for (j, (a, b)) in fd_row.iter().zip(exact_row).enumerate() {
                let dy = 1e-8 * y[j].abs().max(1e-8);
                let bound = relative * scale + noise / dy;
                assert!(
                    (a - b).abs() <= bound,
                    "{name}: J[{i}][{j}] fd {a:e} vs symbolic {b:e} (bound {bound:e})"
                );
            }
        }
    }
}

/// `omc heat1d simulate --size 128 --solver bdf --tend 0.02`, counter by
/// counter. The solver holds J and refactors `I − h·l₀·J` from it, so 59
/// steps cost 2 Jacobian refreshes and 13 factorizations. One RHS call
/// is the start's `h·y′` and 76 belong to the Newton iterations; each
/// refresh differences at the predictor the first Newton iteration
/// evaluated, adding one call per colour — χ = 3 on the tridiagonal
/// stencil where the one-column sweep pays n = 128.
#[test]
fn heat128_bdf_counts_are_pinned() {
    let ir = compile(&heat_source(128), false);
    let opts = BdfOptions::default();
    let y0 = ir.initial_state();

    let pattern = model_sparsity(&ir);
    assert_eq!(pattern.groups().len(), 3);
    assert_eq!(pattern.bandwidth(), (1, 1));
    assert_eq!(pattern.nnz(), 3 * 128 - 2);

    let mut structured = Recorder::new(ModelSystem::new(graph_rhs(&ir), &ir));
    let stats = bdf(&mut structured, 0.0, &y0, 0.02, &opts)
        .expect("bdf")
        .stats;
    assert_eq!(
        (stats.steps, stats.rejected, stats.newton_iters),
        (59, 2, 76)
    );
    assert_eq!((stats.jac_evals, stats.lu_factorizations), (2, 13));
    assert!(stats.jac_evals * 10 < stats.steps);
    assert_eq!(
        stats.rhs_calls,
        1 + stats.newton_iters + stats.jac_evals * 3
    );
    assert_eq!(stats.rhs_calls, 83);

    // The same RHS without the model behind it: dense, n-colour — and
    // the same trajectory to the last bit.
    let mut dense = Recorder::new(graph_rhs(&ir));
    let dense_stats = bdf(&mut dense, 0.0, &y0, 0.02, &opts).expect("bdf").stats;
    assert_eq!(dense_stats.rhs_calls, 1 + 76 + 2 * 128);
    assert_eq!(dense.ts, structured.ts);
    for (a, b) in dense.ys.iter().zip(&structured.ys) {
        let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
    }
}

/// The array-aware compiler reads the pattern off the class footprint;
/// it must be the scalarized model's pattern, at any size.
#[test]
fn class_footprint_pattern_equals_the_scalarized_pattern() {
    for cells in [3, 4, 17, 64] {
        let source = heat_source(cells);
        let aware = compile(&source, true);
        assert!(cells < 4 || aware.has_classes(), "cells = {cells}");
        assert_eq!(
            jacobian_pattern(&aware),
            jacobian_pattern(&compile(&source, false)),
            "cells = {cells}"
        );
    }
}
