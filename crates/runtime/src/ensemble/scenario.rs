//! One scenario of an ensemble sweep: spec, fault injection, and the
//! robustness envelope (panic isolation → typed outcome → bounded retry
//! with backoff → quarantine).
//!
//! A *scenario* is the shared compiled model plus a parameter vector
//! (initial-state overrides). Running one never mutates shared state:
//! the overrides are applied to a private copy of the initial state and
//! the integration happens either in-thread (one-lane [`om_codegen::task::TaskGraph::eval_batch`])
//! or on a scenario-private [`ExecutorPool`] — both execute the same
//! bytecode with disjoint writes, so results are bitwise identical
//! across substrates. That identity is what lets the chaos tests compare
//! a concurrent faulted sweep against a sequential no-fault oracle.

use crate::pool::ExecutorPool;
use crate::sched_dyn::{SemiDynamicScheduler, RESCHED_EVERY};
use om_codegen::registry::CompiledModel;
use om_codegen::task::{BatchScratch, TaskGraph};
use om_solver::{rk4_budgeted, Budget, OdeSystem, RhsError, SolveError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A scenario: index in the batch + initial-state overrides by name.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    pub index: usize,
    /// `(state name, initial value)` pairs; unnamed states keep the
    /// model's `start` attribute.
    pub overrides: Vec<(String, f64)>,
}

impl ScenarioSpec {
    pub fn new(index: usize, overrides: Vec<(String, f64)>) -> ScenarioSpec {
        ScenarioSpec { index, overrides }
    }

    /// The model's initial state with this scenario's overrides applied.
    /// Unknown state names are a configuration error (deterministic →
    /// quarantine, never retry).
    pub fn initial_state(&self, model: &CompiledModel) -> Result<Vec<f64>, String> {
        let mut y0 = model.ir().initial_state();
        for (name, value) in &self.overrides {
            match model.ir().find_state(name) {
                Some(i) => y0[i] = *value,
                None => return Err(format!("unknown state '{name}' in scenario {}", self.index)),
            }
        }
        Ok(y0)
    }
}

/// What a scenario-level injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SweepFaultKind {
    /// Panic mid-integration (caught at the scenario boundary).
    Panic,
    /// Sleep this long inside one RHS call (drives the scenario past its
    /// deadline when one is set).
    Straggle(Duration),
    /// Poison the derivative vector with NaN (caught by the solver's
    /// finite check as a deterministic failure).
    PoisonNaN,
}

/// A fault bound to one scenario: fires on RHS call `after_calls` of
/// every attempt numbered `< fail_attempts`. A panic with
/// `fail_attempts = 1` is transient (succeeds on retry); with
/// `fail_attempts > max_retries` it exhausts the retry budget and the
/// scenario is quarantined.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioFault {
    pub kind: SweepFaultKind,
    pub after_calls: u64,
    pub fail_attempts: u32,
}

/// Scenario-indexed fault plan (distinct from [`crate::FaultPlan`],
/// which injects into the tasks of an executor pool's RHS calls).
#[derive(Clone, Debug, Default)]
pub struct SweepFaultPlan {
    faults: HashMap<usize, ScenarioFault>,
}

impl SweepFaultPlan {
    pub fn none() -> SweepFaultPlan {
        SweepFaultPlan::default()
    }

    /// Add a fault for scenario `index` (builder style).
    pub fn inject(mut self, index: usize, fault: ScenarioFault) -> SweepFaultPlan {
        self.faults.insert(index, fault);
        self
    }

    pub fn get(&self, index: usize) -> Option<&ScenarioFault> {
        self.faults.get(&index)
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Deterministic seeded plan over `n` scenarios. Each per-mille rate
    /// is the probability (out of 1000) that a scenario draws that fault;
    /// draws are ordered panic → straggle → NaN. Transient panics get
    /// `fail_attempts = 1 + (r mod 2)` so some scenarios need two
    /// retries; straggle and NaN always fire (`fail_attempts = u32::MAX`)
    /// because their terminal states never depend on the retry budget.
    pub fn seeded(
        seed: u64,
        n: usize,
        panic_per_mille: u32,
        straggle_per_mille: u32,
        nan_per_mille: u32,
        straggle: Duration,
    ) -> SweepFaultPlan {
        // Scramble the seed (splitmix increment) so adjacent seeds give
        // unrelated streams; xorshift state must be non-zero.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d;
        if state == 0 {
            state = 0x9e37_79b9_7f4a_7c15;
        }
        let mut next = move || -> u64 {
            let mut x = state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut plan = SweepFaultPlan::none();
        for index in 0..n {
            let draw = (next() % 1000) as u32;
            let after_calls = 1 + next() % 7;
            let fault = if draw < panic_per_mille {
                ScenarioFault {
                    kind: SweepFaultKind::Panic,
                    after_calls,
                    fail_attempts: 1 + (next() % 2) as u32,
                }
            } else if draw < panic_per_mille + straggle_per_mille {
                ScenarioFault {
                    kind: SweepFaultKind::Straggle(straggle),
                    after_calls,
                    fail_attempts: u32::MAX,
                }
            } else if draw < panic_per_mille + straggle_per_mille + nan_per_mille {
                ScenarioFault {
                    kind: SweepFaultKind::PoisonNaN,
                    after_calls,
                    fail_attempts: u32::MAX,
                }
            } else {
                continue;
            };
            plan.faults.insert(index, fault);
        }
        plan
    }
}

/// Per-scenario integration settings and the robustness envelope.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioRunConfig {
    pub t0: f64,
    pub tend: f64,
    /// Fixed RK4 step (fixed-step keeps the RHS call sequence — and
    /// therefore the results — bit-for-bit reproducible).
    pub h: f64,
    /// Wall-clock deadline per *attempt* (None = unlimited).
    pub deadline: Option<Duration>,
    /// RHS-call cap per attempt (0 = unlimited).
    pub max_rhs_calls: u64,
    /// Retries after the first attempt for transient failures.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry up to `backoff_cap`.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
}

impl Default for ScenarioRunConfig {
    fn default() -> ScenarioRunConfig {
        ScenarioRunConfig {
            t0: 0.0,
            tend: 1.0,
            h: 1e-3,
            deadline: None,
            max_rhs_calls: 0,
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
        }
    }
}

impl ScenarioRunConfig {
    /// The backoff delay before retry number `retry` (1-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Terminal state of one scenario. Every scenario of a finished sweep is
/// in exactly one of these (or [`skipped`](crate::ensemble::Manifest)
/// when the sweep was interrupted before reaching it).
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioOutcome {
    /// Integration reached `tend`; `y_bits`/`t_bits` are IEEE-754 bit
    /// patterns so checkpoints and manifests round-trip bit-exactly.
    Completed {
        retries: u32,
        rhs_calls: u64,
        t_bits: u64,
        y_bits: Vec<u64>,
    },
    /// Deterministic failure (NaN, config error, solver divergence) or
    /// retry budget exhausted: recorded, skipped forever, never retried.
    Quarantined { attempts: u32, error: String },
    /// The per-attempt wall-clock deadline passed (terminal: a straggler
    /// is shed, not retried — retrying a timeout doubles the damage).
    DeadlineExceeded { attempts: u32 },
}

impl ScenarioOutcome {
    /// Stable status token used by checkpoints, manifests, and the CLI.
    pub fn status(&self) -> &'static str {
        match self {
            ScenarioOutcome::Completed { .. } => "completed",
            ScenarioOutcome::Quarantined { .. } => "quarantined",
            ScenarioOutcome::DeadlineExceeded { .. } => "deadline",
        }
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, ScenarioOutcome::Completed { .. })
    }

    /// The completed end state, decoded.
    pub fn y_end(&self) -> Option<Vec<f64>> {
        match self {
            ScenarioOutcome::Completed { y_bits, .. } => {
                Some(y_bits.iter().map(|b| f64::from_bits(*b)).collect())
            }
            _ => None,
        }
    }
}

/// Payload type for injected scenario panics: `resume_unwind` skips the
/// global panic hook, so chaos runs do not spam stderr (same pattern as
/// the executor pool's injected worker panic in [`crate::pool`]).
pub(crate) struct InjectedScenarioPanic;

/// The integration substrate a scenario runs on.
pub enum Substrate<'a> {
    /// In-thread one-lane bytecode evaluation (the oracle path), with the
    /// scratch it evaluates through held across the scenario's RHS calls.
    Serial(&'a TaskGraph, BatchScratch),
    /// A scenario-private executor pool, rescheduled
    /// from its measurements as `omc simulate` reschedules its pool.
    Pool(&'a mut ExecutorPool),
}

impl<'a> Substrate<'a> {
    /// The serial substrate for `graph`.
    pub fn serial(graph: &'a TaskGraph) -> Substrate<'a> {
        Substrate::Serial(graph, BatchScratch::new(graph, 1))
    }
}

/// The shared compiled RHS wrapped with per-scenario fault injection.
struct ScenarioSystem<'a, 'b> {
    substrate: &'a mut Substrate<'b>,
    dim: usize,
    fault: Option<&'a ScenarioFault>,
    attempt: u32,
    calls: u64,
    /// Reschedules a [`Substrate::Pool`] after each successful call
    /// (made at the first one, so the serial substrate never builds it).
    scheduler: Option<SemiDynamicScheduler>,
}

impl ScenarioSystem<'_, '_> {
    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        self.calls += 1;
        let fires = self
            .fault
            .is_some_and(|f| self.attempt < f.fail_attempts && self.calls == f.after_calls);
        if fires {
            // Infallible: `fires` required `self.fault` to be Some.
            let Some(fault) = self.fault else {
                return Err(RhsError::new("scenario fault disappeared"));
            };
            match fault.kind {
                SweepFaultKind::Panic => {
                    std::panic::resume_unwind(Box::new(InjectedScenarioPanic));
                }
                SweepFaultKind::Straggle(delay) => std::thread::sleep(delay),
                SweepFaultKind::PoisonNaN => {
                    dydt.fill(f64::NAN);
                    return Ok(());
                }
            }
        }
        match self.substrate {
            Substrate::Serial(graph, scratch) => {
                graph.eval_batch(t, y, dydt, scratch);
                Ok(())
            }
            Substrate::Pool(pool) => {
                pool.try_rhs(t, y, dydt)
                    .map_err(|e| RhsError::new(e.to_string()))?;
                self.scheduler
                    .get_or_insert_with(|| SemiDynamicScheduler::new(RESCHED_EVERY))
                    .after_rhs_call(pool);
                Ok(())
            }
        }
    }
}

impl OdeSystem for ScenarioSystem<'_, '_> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        if self.eval(t, y, dydt).is_err() {
            dydt.fill(f64::NAN);
        }
    }

    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        self.eval(t, y, dydt)
    }
}

/// Extract a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if payload.is::<InjectedScenarioPanic>() {
        return "injected scenario panic".into();
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).into();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque panic payload".into()
}

/// Run one scenario to a terminal state: apply overrides, integrate
/// under the configured budget, catch panics at the boundary, retry
/// transient failures with exponential backoff, quarantine deterministic
/// ones, and treat a missed deadline as terminal.
pub fn run_scenario(
    model: &CompiledModel,
    spec: &ScenarioSpec,
    fault: Option<&ScenarioFault>,
    cfg: &ScenarioRunConfig,
    substrate: &mut Substrate<'_>,
) -> ScenarioOutcome {
    let y0 = match spec.initial_state(model) {
        Ok(y0) => y0,
        Err(error) => {
            return ScenarioOutcome::Quarantined { attempts: 0, error };
        }
    };
    let mut attempt: u32 = 0;
    loop {
        let budget = Budget {
            deadline: cfg.deadline.map(|d| Instant::now() + d),
            max_rhs_calls: cfg.max_rhs_calls,
        };
        let mut sys = ScenarioSystem {
            substrate,
            dim: model.dim(),
            fault,
            attempt,
            calls: 0,
            scheduler: None,
        };
        let attempt_result = catch_unwind(AssertUnwindSafe(|| {
            rk4_budgeted(&mut sys, cfg.t0, &y0, cfg.tend, cfg.h, &budget)
        }));
        let error = match attempt_result {
            Ok(Ok(sol)) => {
                let t_bits = sol.t_end().to_bits();
                let y_bits = sol.y_end().iter().map(|v| v.to_bits()).collect();
                return ScenarioOutcome::Completed {
                    retries: attempt,
                    rhs_calls: sol.stats.rhs_calls as u64,
                    t_bits,
                    y_bits,
                };
            }
            Ok(Err(SolveError::DeadlineExceeded { .. })) => {
                return ScenarioOutcome::DeadlineExceeded {
                    attempts: attempt + 1,
                };
            }
            Ok(Err(e)) if e.is_deterministic() => {
                return ScenarioOutcome::Quarantined {
                    attempts: attempt + 1,
                    error: e.to_string(),
                };
            }
            Ok(Err(e)) => e.to_string(),
            Err(payload) => format!("panic: {}", panic_message(payload.as_ref())),
        };
        // Transient failure path (RhsFailure or panic): bounded retry.
        if attempt >= cfg.max_retries {
            return ScenarioOutcome::Quarantined {
                attempts: attempt + 1,
                error: format!("retry budget exhausted: {error}"),
            };
        }
        attempt += 1;
        std::thread::sleep(cfg.backoff(attempt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OSC: &str = "model Osc;
        Real x(start=1.0); Real y;
        equation der(x) = y; der(y) = -x; end Osc;";

    fn model() -> CompiledModel {
        CompiledModel::compile(OSC).unwrap()
    }

    fn quick_cfg() -> ScenarioRunConfig {
        ScenarioRunConfig {
            tend: 0.5,
            h: 0.01,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(400),
            ..ScenarioRunConfig::default()
        }
    }

    #[test]
    fn clean_scenario_completes_with_override_applied() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![("x".into(), 2.0)]);
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, None, &quick_cfg(), &mut substrate);
        let ScenarioOutcome::Completed {
            retries, y_bits, ..
        } = out
        else {
            panic!("expected completion, got {out:?}");
        };
        assert_eq!(retries, 0);
        // x(0)=2 ⇒ x(t)=2·cos t.
        let x = f64::from_bits(y_bits[0]);
        assert!((x - 2.0 * 0.5f64.cos()).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn unknown_override_is_quarantined_not_retried() {
        let model = model();
        let spec = ScenarioSpec::new(3, vec![("bogus".into(), 1.0)]);
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, None, &quick_cfg(), &mut substrate);
        let ScenarioOutcome::Quarantined { attempts, error } = out else {
            panic!("expected quarantine, got {out:?}");
        };
        assert_eq!(attempts, 0);
        assert!(error.contains("bogus"));
    }

    #[test]
    fn transient_panic_is_retried_to_completion() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![]);
        let fault = ScenarioFault {
            kind: SweepFaultKind::Panic,
            after_calls: 3,
            fail_attempts: 2,
        };
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, Some(&fault), &quick_cfg(), &mut substrate);
        let ScenarioOutcome::Completed { retries, .. } = out else {
            panic!("expected completion after retries, got {out:?}");
        };
        assert_eq!(retries, 2);
    }

    #[test]
    fn persistent_panic_exhausts_retries_into_quarantine() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![]);
        let fault = ScenarioFault {
            kind: SweepFaultKind::Panic,
            after_calls: 1,
            fail_attempts: u32::MAX,
        };
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, Some(&fault), &quick_cfg(), &mut substrate);
        let ScenarioOutcome::Quarantined { attempts, error } = out else {
            panic!("expected quarantine, got {out:?}");
        };
        assert_eq!(attempts, quick_cfg().max_retries + 1);
        assert!(error.contains("retry budget exhausted"), "{error}");
    }

    #[test]
    fn nan_poison_is_deterministic_quarantine_on_first_attempt() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![]);
        let fault = ScenarioFault {
            kind: SweepFaultKind::PoisonNaN,
            after_calls: 2,
            fail_attempts: u32::MAX,
        };
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, Some(&fault), &quick_cfg(), &mut substrate);
        let ScenarioOutcome::Quarantined { attempts, error } = out else {
            panic!("expected quarantine, got {out:?}");
        };
        assert_eq!(attempts, 1, "NaN must not burn retries");
        assert!(error.contains("non-finite"), "{error}");
    }

    #[test]
    fn straggler_hits_the_deadline_terminally() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![]);
        let fault = ScenarioFault {
            kind: SweepFaultKind::Straggle(Duration::from_millis(60)),
            after_calls: 1,
            fail_attempts: u32::MAX,
        };
        let cfg = ScenarioRunConfig {
            deadline: Some(Duration::from_millis(10)),
            ..quick_cfg()
        };
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, Some(&fault), &cfg, &mut substrate);
        let ScenarioOutcome::DeadlineExceeded { attempts } = out else {
            panic!("expected deadline, got {out:?}");
        };
        assert_eq!(attempts, 1);
    }

    #[test]
    fn rhs_budget_exhaustion_quarantines() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![]);
        let cfg = ScenarioRunConfig {
            max_rhs_calls: 10,
            ..quick_cfg()
        };
        let mut substrate = Substrate::serial(model.graph());
        let out = run_scenario(&model, &spec, None, &cfg, &mut substrate);
        assert!(
            matches!(out, ScenarioOutcome::Quarantined { .. }),
            "got {out:?}"
        );
    }

    #[test]
    fn serial_and_pool_substrates_are_bitwise_identical() {
        let model = model();
        let spec = ScenarioSpec::new(0, vec![("x".into(), 1.5)]);
        let cfg = quick_cfg();
        let mut serial = Substrate::serial(model.graph());
        let a = run_scenario(&model, &spec, None, &cfg, &mut serial);
        let sched = model.schedule(2);
        let (plan, config) = (crate::FaultPlan::none(), crate::FaultConfig::default());
        let graph = model.program().graph.clone();
        let mut pool =
            ExecutorPool::with_faults(graph, 2, sched.assignment.clone(), plan, config).unwrap();
        let mut pooled = Substrate::Pool(&mut pool);
        let b = run_scenario(&model, &spec, None, &cfg, &mut pooled);
        assert_eq!(a, b, "serial vs pool substrate must agree bit-for-bit");
    }

    #[test]
    fn seeded_plan_is_deterministic_and_rate_bounded() {
        let a = SweepFaultPlan::seeded(42, 256, 60, 40, 50, Duration::from_millis(50));
        let b = SweepFaultPlan::seeded(42, 256, 60, 40, 50, Duration::from_millis(50));
        for i in 0..256 {
            assert_eq!(a.get(i), b.get(i));
        }
        assert!(!a.is_empty());
        // ~15% expected; enormously generous bounds to avoid flake.
        assert!(a.len() >= 8 && a.len() <= 128, "len = {}", a.len());
        let c = SweepFaultPlan::seeded(43, 256, 60, 40, 50, Duration::from_millis(50));
        let differs = (0..256).any(|i| a.get(i) != c.get(i));
        assert!(differs, "different seeds must give different plans");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ScenarioRunConfig {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            ..ScenarioRunConfig::default()
        };
        assert_eq!(cfg.backoff(1), Duration::from_millis(10));
        assert_eq!(cfg.backoff(2), Duration::from_millis(20),);
        assert_eq!(cfg.backoff(3), Duration::from_millis(35));
        assert_eq!(cfg.backoff(30), Duration::from_millis(35));
    }
}
