//! Chaos acceptance test for the ensemble driver: a 256-scenario
//! oscillator sweep with seeded per-scenario panics, stragglers past the
//! deadline, and NaN-poisoned RHS calls must
//!
//!   1. complete with every healthy scenario bitwise-identical to a
//!      sequential no-fault oracle,
//!   2. leave every faulted scenario in a terminal *typed* state
//!      (completed-after-retry, quarantined, or deadline-exceeded —
//!      never skipped, never a crash), and
//!   3. do so at every scenario concurrency, with one canonical manifest.
//!
//! Bitwise identity holds because every scenario runs the same bytecode
//! in its worker's thread, and the fixed-step RK4 keeps the RHS call
//! sequence reproducible.

use om_codegen::registry::CompiledModel;
use om_runtime::{
    run_sweep, ScenarioOutcome, ScenarioRunConfig, ScenarioSpec, SweepConfig, SweepFaultKind,
    SweepFaultPlan,
};
use std::sync::Arc;
use std::time::Duration;

const OSC: &str = "model Osc;
    Real x(start=1.0); Real y;
    equation der(x) = y; der(y) = -x; end Osc;";

const N: usize = 256;
const SEED: u64 = 7;

fn model() -> Arc<CompiledModel> {
    Arc::new(CompiledModel::compile(OSC).unwrap())
}

fn specs() -> Vec<ScenarioSpec> {
    (0..N)
        .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + i as f64 * 0.005)]))
        .collect()
}

fn run_cfg() -> ScenarioRunConfig {
    ScenarioRunConfig {
        tend: 0.2,
        h: 0.01,
        deadline: Some(Duration::from_millis(200)),
        max_retries: 2,
        backoff_base: Duration::from_micros(100),
        backoff_cap: Duration::from_micros(400),
        ..ScenarioRunConfig::default()
    }
}

/// Seeded plan used by every chaos run: per-mille rates 60/40/50 give
/// roughly 15 panics, 10 stragglers, 13 NaN poisons over 256 scenarios.
/// The straggle duration (500 ms) is far past the 200 ms deadline, so a
/// straggler always terminates as `DeadlineExceeded`.
fn plan() -> SweepFaultPlan {
    SweepFaultPlan::seeded(SEED, N, 60, 40, 50, Duration::from_millis(500))
}

/// The sequential no-fault oracle: one scenario at a time, in-thread
/// serial evaluation, no fault plan.
fn oracle() -> om_runtime::SweepResult {
    let cfg = SweepConfig {
        run: run_cfg(),
        concurrency: 1,
        ..SweepConfig::default()
    };
    run_sweep(&model(), &specs(), &cfg).unwrap()
}

fn chaos_cfg(concurrency: usize) -> SweepConfig {
    SweepConfig {
        run: run_cfg(),
        concurrency,
        faults: plan(),
        ..SweepConfig::default()
    }
}

/// Assert the three acceptance properties against the oracle.
fn check_against_oracle(
    result: &om_runtime::SweepResult,
    oracle: &om_runtime::SweepResult,
    tag: &str,
) {
    let m = &result.manifest;
    let plan = plan();
    assert_eq!(m.scenarios(), N, "{tag}: manifest size");
    assert_eq!(m.unaccounted(), 0, "{tag}: duplicate entries");
    assert!(m.is_fully_terminal(), "{tag}: skipped scenarios");

    let (mut panics, mut stragglers, mut nans) = (0usize, 0usize, 0usize);
    for i in 0..N {
        let got = m
            .outcome(i)
            .unwrap_or_else(|| panic!("{tag}: scenario {i} missing"));
        match plan.get(i).map(|f| f.kind) {
            // Healthy scenario: bitwise-identical to the oracle,
            // including the retry counter (zero on both sides).
            None => {
                assert_eq!(
                    Some(got),
                    oracle.manifest.outcome(i),
                    "{tag}: healthy scenario {i} diverged from oracle"
                );
            }
            // Transient panic (fail_attempts ∈ {1, 2} ≤ max_retries):
            // must complete after retrying, and the retried result must
            // be bit-identical to the oracle's end state — a retry
            // restarts from y0, so convergence is exact, not approximate.
            Some(SweepFaultKind::Panic) => {
                panics += 1;
                let ScenarioOutcome::Completed {
                    retries,
                    t_bits,
                    y_bits,
                    ..
                } = got
                else {
                    panic!("{tag}: panic scenario {i} should retry to completion, got {got:?}");
                };
                assert!(*retries >= 1, "{tag}: scenario {i} retries");
                let Some(ScenarioOutcome::Completed {
                    t_bits: ot,
                    y_bits: oy,
                    ..
                }) = oracle.manifest.outcome(i)
                else {
                    panic!("{tag}: oracle scenario {i} not completed");
                };
                assert_eq!(
                    (t_bits, y_bits),
                    (ot, oy),
                    "{tag}: retried scenario {i} bits"
                );
            }
            // A straggler blows the per-attempt deadline: terminal, shed,
            // never retried.
            Some(SweepFaultKind::Straggle(_)) => {
                stragglers += 1;
                assert!(
                    matches!(got, ScenarioOutcome::DeadlineExceeded { attempts: 1 }),
                    "{tag}: straggler {i} should be deadline-exceeded, got {got:?}"
                );
            }
            // NaN poison is deterministic: quarantined on attempt 1.
            Some(SweepFaultKind::PoisonNaN) => {
                nans += 1;
                assert!(
                    matches!(got, ScenarioOutcome::Quarantined { attempts: 1, .. }),
                    "{tag}: NaN scenario {i} should quarantine immediately, got {got:?}"
                );
            }
        }
    }
    // The seed must actually exercise all three fault kinds, or the
    // test silently tests nothing.
    assert!(
        panics > 0 && stragglers > 0 && nans > 0,
        "{tag}: seed {SEED} fired panic={panics} straggle={stragglers} nan={nans}"
    );
    assert_eq!(
        m.completed(),
        N - stragglers - nans,
        "{tag}: completed count"
    );
    assert_eq!(m.quarantined(), nans, "{tag}: quarantined count");
    assert_eq!(m.deadline_exceeded(), stragglers, "{tag}: deadline count");
}

#[test]
fn chaos_sweep_matches_the_oracle() {
    let oracle = oracle();
    let result = run_sweep(&model(), &specs(), &chaos_cfg(4)).unwrap();
    check_against_oracle(&result, &oracle, "concurrency 4");
}

/// The faulted chaos manifests themselves must agree across scenario
/// concurrency: one canonical account of the batch regardless of how it
/// was scheduled. (Timing-dependent fields live in the report, not the
/// manifest, and retry counts are seed-deterministic, so full JSON
/// equality holds.)
#[test]
fn chaos_manifests_agree_across_concurrency() {
    let wide = run_sweep(&model(), &specs(), &chaos_cfg(4)).unwrap();
    for concurrency in [1, 2] {
        let narrow = run_sweep(&model(), &specs(), &chaos_cfg(concurrency)).unwrap();
        assert_eq!(
            wide.manifest.render_json(),
            narrow.manifest.render_json(),
            "concurrency {concurrency}"
        );
    }
}
