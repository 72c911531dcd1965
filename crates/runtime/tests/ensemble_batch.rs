//! Acceptance tests for batched ensemble execution (`omc sweep --batch`):
//!
//! 1. **Differential property** — random models × random lane widths
//!    K ∈ {1, 2, 3, 8, 17} × random scenario packs must render a
//!    manifest *byte-identical* (hex f64 bit patterns and all) to the
//!    sequential K=1 scalar oracle.
//! 2. **Chaos** — a 256-scenario sweep with seeded panics, stragglers,
//!    and NaN poisons at batch width 8 must leave every faulted lane in
//!    its PR-6 terminal state while sibling lanes stay byte-identical
//!    to an unfaulted run.
//! 3. **Ragged batches** — lane counts that do not divide the batch
//!    width, width-1 degenerate batches, single-scenario sweeps, and
//!    exact-multiple packs each get an explicit test.

use om_codegen::registry::CompiledModel;
use om_runtime::{
    run_sweep, ScenarioRunConfig, ScenarioSpec, SweepConfig, SweepFaultPlan, SweepResult,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const OSC: &str = "model Osc;
    Real x(start=1.0); Real y;
    equation der(x) = y; der(y) = -x; end Osc;";

fn osc_model() -> Arc<CompiledModel> {
    Arc::new(CompiledModel::compile(OSC).unwrap())
}

fn specs(n: usize) -> Vec<ScenarioSpec> {
    (0..n)
        .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + i as f64 * 0.005)]))
        .collect()
}

fn run_cfg() -> ScenarioRunConfig {
    ScenarioRunConfig {
        tend: 0.2,
        h: 0.01,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_micros(400),
        ..ScenarioRunConfig::default()
    }
}

/// The K=1 sequential scalar oracle every batched run is judged against.
fn scalar_oracle(model: &Arc<CompiledModel>, scenarios: &[ScenarioSpec]) -> SweepResult {
    let cfg = SweepConfig {
        run: run_cfg(),
        concurrency: 1,
        ..SweepConfig::default()
    };
    run_sweep(model, scenarios, &cfg).unwrap()
}

fn batched(
    model: &Arc<CompiledModel>,
    scenarios: &[ScenarioSpec],
    batch: usize,
    faults: SweepFaultPlan,
) -> SweepResult {
    let cfg = SweepConfig {
        run: run_cfg(),
        concurrency: 2,
        batch,
        faults,
        ..SweepConfig::default()
    };
    run_sweep(model, scenarios, &cfg).unwrap()
}

/// Render a coefficient as source the grammar is guaranteed to accept:
/// non-negative decimal literals, negatives spelled `(0.0 - a)`.
fn coeff(n: i32) -> String {
    let v = f64::from(n) / 8.0;
    if v < 0.0 {
        format!("(0.0 - {:?})", -v)
    } else {
        format!("{v:?}")
    }
}

/// A random 2-state linear model with literal coefficients baked into
/// the source, so "random models" means genuinely different compiled
/// programs, not just different initial states.
fn linear_model(a: i32, b: i32, c: i32, d: i32) -> Arc<CompiledModel> {
    let source = format!(
        "model Lin;
            Real x(start=1.0); Real y(start=0.5);
            equation
            der(x) = {}*x + {}*y;
            der(y) = {}*x + {}*y;
            end Lin;",
        coeff(a),
        coeff(b),
        coeff(c),
        coeff(d),
    );
    Arc::new(CompiledModel::compile(&source).unwrap())
}

const LANE_WIDTHS: [usize; 5] = [1, 2, 3, 8, 17];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 1: random model × random K × random scenario pack is
    /// byte-identical to the K=1 oracle — and to the barrier and
    /// work-stealing substrates evaluating the same scenarios.
    #[test]
    fn batched_sweep_is_bitwise_equal_to_scalar_oracle_and_all_substrates(
        a in -8i32..=8, b in -8i32..=8, c in -8i32..=8, d in -8i32..=8,
        width_pick in 0usize..LANE_WIDTHS.len(),
        n_scenarios in 1usize..20,
        overrides in prop::collection::vec((-40i32..=40).prop_map(|n| 1.0 + f64::from(n) / 32.0), 20),
    ) {
        let batch_width = LANE_WIDTHS[width_pick];
        let model = linear_model(a, b, c, d);
        let scenarios: Vec<ScenarioSpec> = overrides[..n_scenarios]
            .iter()
            .enumerate()
            .map(|(i, v)| ScenarioSpec::new(i, vec![("x".into(), *v)]))
            .collect();
        let oracle = scalar_oracle(&model, &scenarios);
        let oracle_json = oracle.manifest.render_json();

        let b = batched(&model, &scenarios, batch_width, SweepFaultPlan::none());
        prop_assert_eq!(b.report.effective_batch, batch_width);
        prop_assert_eq!(
            &b.manifest.render_json(),
            &oracle_json,
            "batch {} vs scalar oracle",
            batch_width
        );
    }
}

/// Satellite 2 (chaos): the full seeded fault cocktail at batch width 8.
/// Panic and straggle scenarios are not batchable and route through the
/// scalar PR-6 envelope; NaN poisons ride inside batches and quarantine
/// their own lane only. The entire faulted manifest must render
/// byte-identical to a *scalar* faulted sweep — which the pre-existing
/// chaos suite already pins to PR-6 semantics — and every healthy lane
/// must match the unfaulted oracle bit for bit.
#[test]
fn chaos_batched_sweep_matches_scalar_chaos_and_unfaulted_oracle() {
    const N: usize = 256;
    let model = osc_model();
    let scenarios = specs(N);
    let plan = || SweepFaultPlan::seeded(7, N, 60, 40, 50, Duration::from_millis(500));
    let chaos_run = |concurrency: usize, batch: usize| {
        let cfg = SweepConfig {
            run: ScenarioRunConfig {
                deadline: Some(Duration::from_millis(200)),
                ..run_cfg()
            },
            concurrency,
            batch,
            faults: plan(),
            ..SweepConfig::default()
        };
        run_sweep(&model, &scenarios, &cfg).unwrap()
    };

    let scalar_chaos = chaos_run(1, 1);
    let batched_chaos = chaos_run(4, 8);
    assert_eq!(batched_chaos.report.effective_batch, 8);
    assert_eq!(
        batched_chaos.manifest.render_json(),
        scalar_chaos.manifest.render_json(),
        "batched chaos manifest must equal the scalar chaos manifest byte-for-byte"
    );

    // Healthy lanes: byte-identical to a fault-free oracle.
    let oracle = {
        let cfg = SweepConfig {
            run: ScenarioRunConfig {
                deadline: Some(Duration::from_millis(200)),
                ..run_cfg()
            },
            concurrency: 1,
            ..SweepConfig::default()
        };
        run_sweep(&model, &scenarios, &cfg).unwrap()
    };
    let plan = plan();
    let mut healthy = 0usize;
    for i in 0..N {
        if plan.get(i).is_none() {
            healthy += 1;
            assert_eq!(
                batched_chaos.manifest.outcome(i),
                oracle.manifest.outcome(i),
                "healthy scenario {i} diverged from the unfaulted oracle"
            );
        }
    }
    assert!(healthy > 0, "seed fired on every scenario; test is vacuous");
    // The cocktail must actually have faulted something, too.
    assert!(batched_chaos.manifest.failed() > 0, "no faults fired");
}

/// Satellite 3: ragged and degenerate batch shapes, each explicit.
mod ragged {
    use super::*;

    fn assert_matches_oracle(n: usize, batch: usize) {
        let model = osc_model();
        let scenarios = specs(n);
        let oracle = scalar_oracle(&model, &scenarios);
        let b = batched(&model, &scenarios, batch, SweepFaultPlan::none());
        assert_eq!(b.manifest.completed(), n);
        assert_eq!(
            b.manifest.render_json(),
            oracle.manifest.render_json(),
            "N={n} batch={batch}"
        );
    }

    /// N not divisible by the lane width: 13 = 8 + a ragged 5-lane tail.
    #[test]
    fn ragged_tail_batch() {
        assert_matches_oracle(13, 8);
    }

    /// K=1: the degenerate batch is exactly the scalar path.
    #[test]
    fn degenerate_width_one() {
        assert_matches_oracle(9, 1);
    }

    /// A single-scenario sweep at a wide batch setting: the 1-element
    /// "batch" degrades to a scalar single.
    #[test]
    fn single_scenario_wide_batch() {
        assert_matches_oracle(1, 8);
    }

    /// N an exact multiple of the width: the tail chunk is empty and no
    /// stray (would-be 0-lane) batch may be emitted.
    #[test]
    fn exact_multiple_empty_tail() {
        assert_matches_oracle(16, 8);
    }

    /// N smaller than the width: one under-full batch.
    #[test]
    fn single_underfull_batch() {
        assert_matches_oracle(7, 8);
    }
}

/// The bearing renders the scalar one-scenario-at-a-time manifest at
/// every lane width, over two scenario workers: batches of 2 (three full
/// batches) and of 8 (one under-full batch).
#[test]
fn the_bearing_renders_the_oracle_manifest_at_every_lane_width() {
    let source = om_models::bearing2d::source(&om_models::bearing2d::BearingConfig {
        rollers: 3,
        ..Default::default()
    });
    let model = Arc::new(CompiledModel::compile(&source).unwrap());
    let scenarios: Vec<ScenarioSpec> = (0..6)
        .map(|i| ScenarioSpec::new(i, vec![("y".into(), -5e-5 + 0.4e-5 * i as f64)]))
        .collect();
    let cfg = |concurrency: usize, batch: usize| SweepConfig {
        run: ScenarioRunConfig {
            tend: 2e-4,
            h: 1e-5,
            ..ScenarioRunConfig::default()
        },
        concurrency,
        batch,
        ..SweepConfig::default()
    };
    let oracle = run_sweep(&model, &scenarios, &cfg(1, 1)).unwrap();
    let oracle_json = oracle.manifest.render_json();
    assert!(oracle.manifest.is_fully_terminal());
    for batch in [2, 8] {
        let batched = run_sweep(&model, &scenarios, &cfg(2, batch)).unwrap();
        assert_eq!(batched.manifest.render_json(), oracle_json, "batch {batch}");
    }
}
