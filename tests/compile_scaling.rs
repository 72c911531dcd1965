//! Scaling gate for the scalarized compile path.
//!
//! Source text to emitted Fortran (`compile` → `causalize` → `generate` →
//! `emit_parallel`) must cost time proportional to what it prints. Before
//! PR 23 `equation_tasks` alone was cubic in the bearing's roller count
//! (4× the rollers cost > 25× the time); a linear pipeline costs 4×, and
//! the gate allows 8× so that a loaded host does not trip it while any
//! quadratic term still does (16×).

use objectmath::codegen::{emit_fortran, CodeGenerator};
use objectmath::ir::causalize;
use objectmath::models::{bearing2d, heat1d};
use std::time::{Duration, Instant};

/// Run the whole pipeline on `source`; the emitted byte count keeps the
/// work observable.
fn compile_and_emit(source: &str) -> usize {
    let flat = objectmath::lang::compile(source).expect("model compiles");
    let ir = causalize(&flat).expect("model causalizes");
    let generator = CodeGenerator::default();
    let program = generator.generate(&ir);
    let sched = program.schedule(2);
    emit_fortran::emit_parallel(
        &program.tasks,
        &sched.assignment,
        2,
        &ir,
        &generator.options.cost_model,
    )
    .text
    .len()
}

/// Fastest of three runs: the minimum is the least noisy estimator of the
/// cost of deterministic work on a shared host.
fn min_of_3(source: &str) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut bytes = 0;
    for _ in 0..3 {
        let start = Instant::now();
        bytes = std::hint::black_box(compile_and_emit(std::hint::black_box(source)));
        best = best.min(start.elapsed());
    }
    (best, bytes)
}

fn bearing(rollers: usize) -> String {
    bearing2d::source(&bearing2d::BearingConfig {
        rollers,
        ..Default::default()
    })
}

fn heat(cells: usize) -> String {
    heat1d::source_distributed(&heat1d::HeatConfig {
        cells,
        velocity: 0.4,
        ..Default::default()
    })
}

/// Quadrupling the model must not cost more than 8× the time, on the
/// paper's model and on one with no ring coupling at all (so the fix is
/// shown not to be bearing-shaped). One test, so the timed runs do not
/// compete with each other for the host's two cores.
#[test]
fn quadrupling_the_model_costs_at_most_eight_times_the_compile() {
    for (name, small, large) in [
        ("bearing2d 96 -> 384", bearing(96), bearing(384)),
        ("heat1d 1024 -> 4096", heat(1024), heat(4096)),
    ] {
        let (t_small, bytes_small) = min_of_3(&small);
        let (t_large, bytes_large) = min_of_3(&large);
        let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
        eprintln!(
            "{name}: {t_small:?} -> {t_large:?} ({ratio:.2}x time, {:.2}x bytes)",
            bytes_large as f64 / bytes_small as f64
        );
        assert!(
            ratio <= 8.0,
            "{name}: {t_small:?} -> {t_large:?} is {ratio:.1}x the time for 4x the model"
        );
    }
}

/// 768 rollers took some 20 s on the cubic path (9× per doubling);
/// finishing well inside the harness's patience is the assertion. The inlined ring
/// sums nest one level per roller and the tree passes recurse along them,
/// so the run gets the 8 MiB stack `omc`'s main thread has rather than a
/// test thread's 2 MiB (which an unoptimised build outgrows here).
#[test]
fn a_768_roller_bearing_compiles() {
    let bytes = std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(|| compile_and_emit(&bearing(768)))
        .expect("spawn")
        .join()
        .expect("pipeline panicked");
    assert!(bytes > 1_000_000, "{bytes} bytes of Fortran");
}
