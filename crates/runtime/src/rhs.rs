//! The parallel RHS as an [`om_solver::OdeSystem`].
//!
//! This is the seam of the whole system: the supervisor *is* the ODE
//! solver (paper Figure 10), and the generated parallel `RHS` plugs into
//! it exactly where LSODA's user function went. Any solver in
//! `om-solver` can drive the worker pool; the semi-dynamic scheduler
//! rebalances between calls.

use crate::error::RuntimeError;
use crate::pool::ExecutorPool;
use crate::sched_dyn::SemiDynamicScheduler;
use om_ir::OdeIr;
use om_solver::{OdeSystem, RhsError, Sparsity};
use std::sync::Arc;

/// A parallel right-hand side: executor pool + semi-dynamic scheduler, usable as an [`OdeSystem`].
pub struct ParallelRhs {
    pub pool: ExecutorPool,
    pub scheduler: SemiDynamicScheduler,
    /// Total RHS calls made.
    pub calls: usize,
    /// Wall-clock spent inside successful RHS evaluations (incl.
    /// communication).
    pub rhs_time: std::time::Duration,
    /// The most recent runtime failure, if any. Set by both the fallible
    /// and the infallible evaluation paths.
    pub last_error: Option<RuntimeError>,
}

impl ParallelRhs {
    /// Wrap a pool with rescheduling every `resched_every` calls
    /// (0 = static schedule).
    pub fn new(pool: ExecutorPool, resched_every: usize) -> ParallelRhs {
        ParallelRhs {
            pool,
            scheduler: SemiDynamicScheduler::new(resched_every),
            calls: 0,
            rhs_time: std::time::Duration::ZERO,
            last_error: None,
        }
    }

    /// Measured RHS throughput so far (calls per second of RHS time).
    pub fn rhs_calls_per_sec(&self) -> f64 {
        if self.rhs_time.is_zero() {
            return 0.0;
        }
        self.calls as f64 / self.rhs_time.as_secs_f64()
    }

    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RuntimeError> {
        self.calls += 1;
        let result = self.pool.try_rhs(t, y, dydt);
        if result.is_ok() {
            // The pool times each call: a supervisor-only one reads the
            // clock once, for this and for its solo estimate together.
            self.rhs_time += self.pool.last_call();
            self.scheduler.after_rhs_call(&mut self.pool);
        }
        result
    }
}

impl OdeSystem for ParallelRhs {
    fn dim(&self) -> usize {
        self.pool.graph().dim
    }

    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        if let Err(e) = self.eval(t, y, dydt) {
            // Legacy infallible path: poison the derivatives so any
            // step-size controller rejects the step, and keep the error
            // for inspection instead of panicking.
            dydt.fill(f64::NAN);
            self.last_error = Some(e);
        }
    }

    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        self.eval(t, y, dydt).map_err(|e| {
            let rhs_err = RhsError::from(e.clone());
            self.last_error = Some(e);
            rhs_err
        })
    }
}

/// The solver-side form of a model's structural Jacobian pattern
/// ([`om_ir::jacobian::jacobian_pattern`]): coloured and band-measured.
pub fn model_sparsity(ir: &OdeIr) -> Sparsity {
    Sparsity::from_rows(om_ir::jacobian::jacobian_pattern(ir).rows)
}

/// A generated RHS together with the model it was generated from, so it
/// can answer [`OdeSystem::sparsity`]. Whatever evaluates the task graph —
/// this thread or a [`ParallelRhs`] pool — goes inside; the pattern comes
/// from the model, not the placement, so every placement drives an
/// implicit solver through the same RHS-call sequence.
///
/// The pattern is derived on the first `sparsity()` call and kept: an
/// explicit solver never asks and never pays for it.
pub struct ModelSystem<'a, S> {
    pub inner: S,
    ir: &'a OdeIr,
    sparsity: Option<Arc<Sparsity>>,
}

impl<'a, S: OdeSystem> ModelSystem<'a, S> {
    pub fn new(inner: S, ir: &'a OdeIr) -> Self {
        ModelSystem {
            inner,
            ir,
            sparsity: None,
        }
    }
}

impl<S: OdeSystem> OdeSystem for ModelSystem<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.inner.rhs(t, y, dydt)
    }

    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        self.inner.try_rhs(t, y, dydt)
    }

    fn jacobian(&mut self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.inner.jacobian(t, y, jac)
    }

    fn sparsity(&mut self) -> Option<Arc<Sparsity>> {
        let ir = self.ir;
        Some(Arc::clone(
            self.sparsity
                .get_or_insert_with(|| Arc::new(model_sparsity(ir))),
        ))
    }

    fn accepted(&mut self, t: f64, y: &[f64]) {
        self.inner.accepted(t, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use om_codegen::CodeGenerator;
    use om_ir::causalize;
    use om_solver::{dopri5, Tolerances};

    #[test]
    fn solver_drives_parallel_rhs_to_the_analytic_solution() {
        // Harmonic oscillator through the full pipeline:
        // source → IR → codegen → worker pool → DOPRI5.
        let src = "model Osc;
            Real x(start=1.0); Real y;
            equation der(x) = y; der(y) = -x; end Osc;";
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let program = CodeGenerator::default().generate(&ir);
        let sched = program.schedule(2);
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        let pool =
            ExecutorPool::with_faults(program.graph, 2, sched.assignment, plan, config).unwrap();
        let mut rhs = ParallelRhs::new(pool, 8);
        let t_end = 2.0 * std::f64::consts::PI;
        let tol = Tolerances {
            rtol: 1e-8,
            atol: 1e-10,
            ..Tolerances::default()
        };
        let sol = dopri5(&mut rhs, 0.0, &ir.initial_state(), t_end, &tol).unwrap();
        assert!((sol.y_end()[0] - 1.0).abs() < 1e-5, "{:?}", sol.y_end());
        assert!(rhs.calls > 0);
        assert_eq!(rhs.calls, sol.stats.rhs_calls);
        assert!(rhs.rhs_calls_per_sec() > 0.0);
    }

    #[test]
    fn parallel_and_serial_solutions_agree() {
        let src = "model M;
            Real x(start=0.5); Real v(start=0.0); Real f;
            equation
              der(x) = v;
              der(v) = f;
              f = -4.0*x - 0.3*v;
            end M;";
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        // Serial reference via the IR evaluator.
        let reference = om_ir::IrEvaluator::new(&ir).unwrap();
        let mut serial = om_solver::FnSystem::new(2, move |t, y: &[f64], d: &mut [f64]| {
            reference.rhs(t, y, d);
        });
        let tol = Tolerances::default();
        let serial_sol = dopri5(&mut serial, 0.0, &ir.initial_state(), 3.0, &tol).unwrap();
        // Parallel.
        let program = CodeGenerator::default().generate(&ir);
        let sched = program.schedule(2);
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        let pool =
            ExecutorPool::with_faults(program.graph, 2, sched.assignment, plan, config).unwrap();
        let mut rhs = ParallelRhs::new(pool, 4);
        let par_sol = dopri5(&mut rhs, 0.0, &ir.initial_state(), 3.0, &tol).unwrap();
        for i in 0..2 {
            assert!(
                (serial_sol.y_end()[i] - par_sol.y_end()[i]).abs() < 1e-9,
                "component {i}"
            );
        }
    }

    #[test]
    fn dead_pool_surfaces_as_solver_error_not_panic() {
        use crate::fault::FaultKind;
        let src = "model Osc;
            Real x(start=1.0); Real y;
            equation der(x) = y; der(y) = -x; end Osc;";
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let program = CodeGenerator::default().generate(&ir);
        let sched = program.schedule(2);
        let plan = FaultPlan::kill(1, 0).inject(1, 1, FaultKind::Panic);
        let config = FaultConfig {
            max_respawns: 0,
            sequential_fallback: false,
            ..FaultConfig::default()
        };
        let pool =
            ExecutorPool::with_faults(program.graph, 2, sched.assignment, plan, config).unwrap();
        let mut rhs = ParallelRhs::new(pool, 0);
        let err = dopri5(
            &mut rhs,
            0.0,
            &ir.initial_state(),
            1.0,
            &Tolerances::default(),
        )
        .unwrap_err();
        match err {
            om_solver::SolveError::RhsFailure { reason, .. } => {
                assert!(reason.contains("exhausted"), "{reason}");
            }
            other => panic!("expected RhsFailure, got {other:?}"),
        }
        assert!(rhs.last_error.is_some());
    }
}
