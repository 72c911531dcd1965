//! The ODE system interface and solution types.

use crate::sparsity::Sparsity;
use std::fmt;
use std::sync::Arc;

/// An initial value problem `ẏ(t) = f(y(t), t)` (paper §2.4).
///
/// "The function should be side-effect free to allow as much parallelism
/// as possible to be extracted" — side-effect free with respect to the
/// mathematical state; `&mut self` only allows implementations to keep
/// instrumentation and scratch buffers.
pub trait OdeSystem {
    /// Number of state variables.
    fn dim(&self) -> usize;

    /// Compute the derivatives: `dydt = f(y, t)`. This is the paper's
    /// `RHS` function, the target of the parallelization.
    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]);

    /// Fallible variant of [`rhs`](OdeSystem::rhs). Systems whose RHS can
    /// fail at runtime (e.g. a parallel worker pool losing all of its
    /// workers) override this; the solvers call it exclusively, mapping an
    /// error into [`SolveError::RhsFailure`] so the step is rejected with
    /// a diagnosis instead of aborting the process.
    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        self.rhs(t, y, dydt);
        Ok(())
    }

    /// Optionally fill the dense row-major Jacobian `∂f/∂y` and return
    /// `true`. Default: not provided; implicit solvers fall back to
    /// finite differences ("usually very expensive", §3.2.1).
    fn jacobian(&mut self, _t: f64, _y: &[f64], _jac: &mut [f64]) -> bool {
        false
    }

    /// Optionally report which `∂f_i/∂y_j` can be non-zero. Implicit
    /// solvers ask once per solve and let the pattern drive both the
    /// finite-difference Jacobian (one RHS call per colour group) and the
    /// band limits of the LU. Default `None`: the dense, n-colour case of
    /// the same code. A pattern must cover every state `f_i` reads;
    /// explicit solvers never call this, so an implementor may derive it
    /// lazily and should cache the `Arc`.
    fn sparsity(&mut self) -> Option<Arc<Sparsity>> {
        None
    }

    /// Told where the integration is: once at `(t0, y0)` before the first
    /// step, then once per accepted step with the new `(t, y)`, in
    /// strictly increasing `t`. Rejected attempts, Newton iterates and
    /// stage values are never reported. `y` is the solver's own state, so
    /// an implementation that wants the trajectory copies it ([`Recorder`]
    /// does). Default: nothing; the solvers keep only where they are.
    fn accepted(&mut self, _t: f64, _y: &[f64]) {}
}

/// A borrowed system is a system, so a solver can run on `&mut sys` behind
/// an adapter such as [`Recorder`] and hand it back afterwards.
impl<S: OdeSystem + ?Sized> OdeSystem for &mut S {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (**self).rhs(t, y, dydt)
    }
    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        (**self).try_rhs(t, y, dydt)
    }
    fn jacobian(&mut self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        (**self).jacobian(t, y, jac)
    }
    fn sparsity(&mut self) -> Option<Arc<Sparsity>> {
        (**self).sparsity()
    }
    fn accepted(&mut self, t: f64, y: &[f64]) {
        (**self).accepted(t, y)
    }
}

/// A plain-function system (for tests and closed-form benchmarks).
pub struct FnSystem<F: FnMut(f64, &[f64], &mut [f64])> {
    pub dim: usize,
    pub f: F,
}

impl<F: FnMut(f64, &[f64], &mut [f64])> FnSystem<F> {
    pub fn new(dim: usize, f: F) -> Self {
        FnSystem { dim, f }
    }
}

impl<F: FnMut(f64, &[f64], &mut [f64])> OdeSystem for FnSystem<F> {
    fn dim(&self) -> usize {
        self.dim
    }
    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        (self.f)(t, y, dydt)
    }
}

/// A per-solve resource envelope: wall-clock deadline and RHS-call cap.
///
/// The ensemble driver wraps every scenario in one of these so a single
/// never-converging or straggling integration cannot stall the batch:
/// the budget is consulted once per step attempt by every integrator
/// loop in this crate, and a violation surfaces as a *typed*
/// [`SolveError`] ([`SolveError::DeadlineExceeded`] /
/// [`SolveError::RhsBudgetExhausted`]) the supervisor can classify,
/// instead of a hang or a kill signal.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Absolute wall-clock instant after which the solve must stop.
    pub deadline: Option<std::time::Instant>,
    /// Cap on total RHS evaluations (0 = unlimited). Checked per step
    /// attempt, so a multi-stage step may overshoot by one step's worth
    /// of calls.
    pub max_rhs_calls: u64,
}

impl Budget {
    /// No limits — the default for every direct solver call.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget whose deadline is `d` from now.
    pub fn deadline_in(d: std::time::Duration) -> Budget {
        Budget {
            deadline: Some(std::time::Instant::now() + d),
            max_rhs_calls: 0,
        }
    }

    /// Builder: cap total RHS evaluations.
    pub fn with_max_rhs_calls(mut self, n: u64) -> Budget {
        self.max_rhs_calls = n;
        self
    }

    /// True when neither limit is set (the check short-circuits).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rhs_calls == 0
    }

    /// Enforce the envelope at time `t` given the work done so far.
    pub fn check(&self, t: f64, stats: &SolveStats) -> Result<(), SolveError> {
        if self.max_rhs_calls > 0 && stats.rhs_calls as u64 >= self.max_rhs_calls {
            return Err(SolveError::RhsBudgetExhausted {
                t,
                calls: stats.rhs_calls,
            });
        }
        if let Some(deadline) = self.deadline {
            if std::time::Instant::now() >= deadline {
                return Err(SolveError::DeadlineExceeded { t });
            }
        }
        Ok(())
    }
}

/// Error and step tolerances.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Relative tolerance.
    pub rtol: f64,
    /// Absolute tolerance.
    pub atol: f64,
    /// Initial step size (0 → pick automatically).
    pub h0: f64,
    /// Safety cap on the number of accepted+rejected steps.
    pub max_steps: usize,
    /// Wall-clock / RHS-call envelope (default: unlimited).
    pub budget: Budget,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            rtol: 1e-6,
            atol: 1e-9,
            h0: 0.0,
            max_steps: 1_000_000,
            budget: Budget::default(),
        }
    }
}

impl Tolerances {
    /// Weighted RMS norm of an error vector against a state (the standard
    /// ODEPACK error norm).
    pub fn error_norm(&self, err: &[f64], y: &[f64]) -> f64 {
        let n = err.len();
        let mut acc = 0.0;
        for i in 0..n {
            let w = self.atol + self.rtol * y[i].abs();
            let e = err[i] / w;
            acc += e * e;
        }
        (acc / n as f64).sqrt()
    }
}

/// Counters describing the work a solve did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Accepted steps.
    pub steps: usize,
    /// Rejected (re-done) steps.
    pub rejected: usize,
    /// Calls to the `RHS` function.
    pub rhs_calls: usize,
    /// Jacobian evaluations (analytic or finite-difference sweeps).
    pub jac_evals: usize,
    /// Newton iterations (implicit methods).
    pub newton_iters: usize,
    /// LU factorizations performed.
    pub lu_factorizations: usize,
}

impl SolveStats {
    /// Merge counters (for partitioned solves).
    pub fn merge(&mut self, other: &SolveStats) {
        self.steps += other.steps;
        self.rejected += other.rejected;
        self.rhs_calls += other.rhs_calls;
        self.jac_evals += other.jac_evals;
        self.newton_iters += other.newton_iters;
        self.lu_factorizations += other.lu_factorizations;
    }
}

/// A failure reported by an [`OdeSystem::try_rhs`] implementation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RhsError {
    pub reason: String,
}

impl RhsError {
    pub fn new(reason: impl Into<String>) -> Self {
        RhsError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for RhsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RHS evaluation failed: {}", self.reason)
    }
}

impl std::error::Error for RhsError {}

/// Solver failure modes.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// The step size underflowed while trying to meet the tolerance.
    StepSizeUnderflow { t: f64 },
    /// `max_steps` exceeded before reaching `tend`.
    TooMuchWork { t: f64, steps: usize },
    /// A non-finite value appeared in the state.
    NonFiniteState { t: f64 },
    /// Newton iteration failed to converge repeatedly (implicit methods).
    NewtonFailure { t: f64 },
    /// The Jacobian matrix was numerically singular.
    SingularJacobian { t: f64 },
    /// The RHS function itself failed (e.g. a worker pool with no live
    /// workers left). The step is rejected; the caller sees the reason.
    RhsFailure { t: f64, reason: String },
    /// The wall-clock deadline of the solve's [`Budget`] passed.
    DeadlineExceeded { t: f64 },
    /// The RHS-call cap of the solve's [`Budget`] was reached.
    RhsBudgetExhausted { t: f64, calls: usize },
    /// An internal invariant was violated (a bug in this crate, surfaced
    /// as a typed error instead of a panic so one bad scenario cannot
    /// poison a whole ensemble).
    Internal { what: &'static str },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::StepSizeUnderflow { t } => {
                write!(f, "step size underflow at t = {t}")
            }
            SolveError::TooMuchWork { t, steps } => {
                write!(f, "exceeded {steps} steps at t = {t}")
            }
            SolveError::NonFiniteState { t } => {
                write!(f, "non-finite state at t = {t}")
            }
            SolveError::NewtonFailure { t } => {
                write!(f, "Newton iteration failed at t = {t}")
            }
            SolveError::SingularJacobian { t } => {
                write!(f, "singular iteration matrix at t = {t}")
            }
            SolveError::RhsFailure { t, reason } => {
                write!(f, "RHS evaluation failed at t = {t}: {reason}")
            }
            SolveError::DeadlineExceeded { t } => {
                write!(f, "wall-clock deadline exceeded at t = {t}")
            }
            SolveError::RhsBudgetExhausted { t, calls } => {
                write!(
                    f,
                    "RHS-call budget exhausted at t = {t} after {calls} calls"
                )
            }
            SolveError::Internal { what } => {
                write!(f, "internal solver invariant violated: {what}")
            }
        }
    }
}

impl SolveError {
    /// True for failures that are a property of the scenario itself
    /// (numerics, budgets) rather than of the machinery evaluating it.
    /// The ensemble supervisor quarantines these instead of retrying:
    /// a singular Jacobian is still singular on the third attempt.
    pub fn is_deterministic(&self) -> bool {
        !matches!(
            self,
            SolveError::RhsFailure { .. } | SolveError::DeadlineExceeded { .. }
        )
    }
}

impl std::error::Error for SolveError {}

/// Where a solve ended, plus its work counters. The solvers keep O(n)
/// state, never the trajectory: a caller that wants the accepted steps
/// wraps its system in a [`Recorder`].
#[derive(Clone, Debug)]
pub struct Solution {
    t: f64,
    y: Vec<f64>,
    pub stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(t: f64, y: Vec<f64>, stats: SolveStats) -> Solution {
        Solution { t, y, stats }
    }

    /// Final time.
    pub fn t_end(&self) -> f64 {
        self.t
    }

    /// Final state.
    pub fn y_end(&self) -> &[f64] {
        &self.y
    }
}

/// An [`OdeSystem`] adapter that keeps every point the solver reports
/// through [`OdeSystem::accepted`]: `ys[k]` is the state at `ts[k]`, the
/// first point is `(t0, y0)` and the last is the solve's
/// `(t_end(), y_end())`. Everything else is forwarded to `sys`.
#[derive(Clone, Debug)]
pub struct Recorder<S> {
    pub sys: S,
    pub ts: Vec<f64>,
    pub ys: Vec<Vec<f64>>,
}

impl<S: OdeSystem> Recorder<S> {
    pub fn new(sys: S) -> Recorder<S> {
        Recorder {
            sys,
            ts: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Linear interpolation of the recorded state at `t` (for comparisons
    /// between solvers with different step points), clamped to the
    /// recorded span.
    pub fn sample(&self, t: f64) -> Vec<f64> {
        let n = self.ts.len();
        if t <= self.ts[0] {
            return self.ys[0].clone();
        }
        if t >= self.ts[n - 1] {
            return self.ys[n - 1].clone();
        }
        let k = self.ts.partition_point(|&x| x < t).max(1);
        let (t0, t1) = (self.ts[k - 1], self.ts[k]);
        let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        self.ys[k - 1]
            .iter()
            .zip(&self.ys[k])
            .map(|(a, b)| a + w * (b - a))
            .collect()
    }

    /// Average accepted step size.
    pub fn mean_step(&self) -> f64 {
        let n = self.ts.len();
        if n < 2 {
            return 0.0;
        }
        (self.ts[n - 1] - self.ts[0]) / (n - 1) as f64
    }
}

impl<S: OdeSystem> OdeSystem for Recorder<S> {
    fn dim(&self) -> usize {
        self.sys.dim()
    }
    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.sys.rhs(t, y, dydt)
    }
    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        self.sys.try_rhs(t, y, dydt)
    }
    fn jacobian(&mut self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.sys.jacobian(t, y, jac)
    }
    fn sparsity(&mut self) -> Option<Arc<Sparsity>> {
        self.sys.sparsity()
    }
    fn accepted(&mut self, t: f64, y: &[f64]) {
        self.ts.push(t);
        self.ys.push(y.to_vec());
        self.sys.accepted(t, y);
    }
}

/// Check a state vector for non-finite entries.
pub(crate) fn check_finite(t: f64, y: &[f64]) -> Result<(), SolveError> {
    if y.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(SolveError::NonFiniteState { t })
    }
}

/// The one RHS call site shared by every stepper: counts the call and
/// maps an [`RhsError`] into [`SolveError::RhsFailure`].
pub(crate) fn eval_rhs(
    sys: &mut dyn OdeSystem,
    t: f64,
    y: &[f64],
    dydt: &mut [f64],
    stats: &mut SolveStats,
) -> Result<(), SolveError> {
    stats.rhs_calls += 1;
    obs_count("solver.rhs_calls");
    sys.try_rhs(t, y, dydt).map_err(|e| SolveError::RhsFailure {
        t,
        reason: e.reason,
    })
}

/// Bump a named work counter in the global metrics registry (no-op
/// unless observability is enabled).
#[inline]
pub(crate) fn obs_count(name: &'static str) {
    if om_obs::is_enabled() {
        om_obs::metrics().counter(name).inc();
    }
}

/// Step-size histogram bounds shared by every adaptive stepper: 1e-12 s
/// up through ~4e3 s in decade buckets plus an overflow bucket.
const STEP_BOUNDS: [f64; 16] = [
    1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3,
];

/// Record a step-accept/reject decision in the global metrics registry
/// (no-op unless observability is enabled). Shared by every stepper so
/// the metric names stay uniform across methods.
pub(crate) fn obs_step(method: &'static str, accepted: bool, h: f64) {
    if !om_obs::is_enabled() {
        return;
    }
    let m = om_obs::metrics();
    if accepted {
        m.counter("solver.steps_accepted").inc();
        m.histogram("solver.step_size", &STEP_BOUNDS).observe(h);
    } else {
        m.counter("solver.steps_rejected").inc();
        om_obs::instant(method, "solver");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_norm_weights_by_tolerance() {
        let tol = Tolerances {
            rtol: 0.1,
            atol: 1.0,
            ..Tolerances::default()
        };
        // err = weight → norm 1.
        let y = [10.0];
        let err = [1.0 + 0.1 * 10.0];
        assert!((tol.error_norm(&err, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_sampling_interpolates() {
        let mut rec = Recorder::new(FnSystem::new(1, |_t, _y: &[f64], d: &mut [f64]| {
            d[0] = 10.0
        }));
        for (t, y) in [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)] {
            rec.accepted(t, &[y]);
        }
        assert_eq!(rec.sample(0.5), vec![5.0]);
        assert_eq!(rec.sample(1.5), vec![15.0]);
        assert_eq!(rec.sample(-1.0), vec![0.0]);
        assert_eq!(rec.sample(99.0), vec![20.0]);
        assert_eq!(rec.mean_step(), 1.0);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = SolveStats {
            steps: 1,
            rhs_calls: 4,
            ..SolveStats::default()
        };
        let b = SolveStats {
            steps: 2,
            rhs_calls: 8,
            newton_iters: 3,
            ..SolveStats::default()
        };
        a.merge(&b);
        assert_eq!(a.steps, 3);
        assert_eq!(a.rhs_calls, 12);
        assert_eq!(a.newton_iters, 3);
    }

    #[test]
    fn budget_caps_rhs_calls_with_typed_error() {
        let tol = Tolerances {
            budget: Budget::unlimited().with_max_rhs_calls(20),
            ..Tolerances::default()
        };
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let err = crate::rk::dopri5(&mut sys, 0.0, &[1.0], 50.0, &tol).unwrap_err();
        match err {
            SolveError::RhsBudgetExhausted { calls, .. } => assert!(calls >= 20),
            other => panic!("expected RhsBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn budget_deadline_fires_with_typed_error() {
        let tol = Tolerances {
            budget: Budget::deadline_in(std::time::Duration::ZERO),
            ..Tolerances::default()
        };
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let err = crate::rk::dopri5(&mut sys, 0.0, &[1.0], 1.0, &tol).unwrap_err();
        assert!(
            matches!(err, SolveError::DeadlineExceeded { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn budget_classification_separates_poison_from_transient() {
        assert!(SolveError::SingularJacobian { t: 0.0 }.is_deterministic());
        assert!(SolveError::NonFiniteState { t: 0.0 }.is_deterministic());
        assert!(SolveError::RhsBudgetExhausted { t: 0.0, calls: 9 }.is_deterministic());
        assert!(!SolveError::DeadlineExceeded { t: 0.0 }.is_deterministic());
        assert!(!SolveError::RhsFailure {
            t: 0.0,
            reason: "pool died".into()
        }
        .is_deterministic());
        assert!(Budget::unlimited().is_unlimited());
        assert!(!Budget::deadline_in(std::time::Duration::from_secs(1)).is_unlimited());
    }

    #[test]
    fn fn_system_wraps_closures() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], dydt: &mut [f64]| {
            dydt[0] = -y[0];
        });
        let mut d = [0.0];
        sys.rhs(0.0, &[2.0], &mut d);
        assert_eq!(d[0], -2.0);
        assert_eq!(sys.dim(), 1);
        let mut jac = [0.0];
        assert!(!sys.jacobian(0.0, &[2.0], &mut jac));
    }
}
