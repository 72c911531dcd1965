//! Semi-dynamic LPT rescheduling (paper §3.2.3).
//!
//! "These conditions can cause the load on different processors to vary
//! over time … This imbalance can be avoided by dynamically adapting the
//! schedule to the varying load. We are using the elapsed times for
//! right-hand side evaluations during the previous iteration step to
//! predict the execution times during the next step. This information is
//! used to regularly update the schedule. This semi-dynamic version of
//! the LPT algorithm consumes less than 1 % of the execution time."
//!
//! The scheduler consumes the worker pool's EWMA task-time measurements
//! and re-runs LPT (or dependency-aware list scheduling) every
//! `resched_every` RHS calls, each helper starting late by the pool's
//! measured hand-off ([`ExecutorPool::rebalance`]). While a born-serial
//! pool has not compiled its placement, a reschedule is one break-even
//! comparison instead ([`ExecutorPool::born_serial`]). The time it spends
//! is accounted separately so experiment E6 can report the overhead
//! fraction.

use crate::pool::ExecutorPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The rescheduling period of the product paths (`omc simulate` and
/// every sweep/serve scenario pool), in RHS calls.
pub const RESCHED_EVERY: usize = 16;

/// Semi-dynamic scheduler state.
pub struct SemiDynamicScheduler {
    /// Re-run LPT after this many RHS calls (0 disables rescheduling —
    /// the static-schedule ablation).
    pub resched_every: usize,
    calls_since: usize,
    /// Total time spent inside the scheduler.
    pub sched_time: Duration,
    /// Number of reschedules performed.
    pub reschedules: usize,
    /// `sched.reschedules`, looked up once (a lookup takes the registry
    /// lock).
    counter: Arc<om_obs::Counter>,
}

impl SemiDynamicScheduler {
    pub fn new(resched_every: usize) -> SemiDynamicScheduler {
        SemiDynamicScheduler {
            resched_every,
            calls_since: 0,
            sched_time: Duration::ZERO,
            reschedules: 0,
            counter: om_obs::metrics().counter("sched.reschedules"),
        }
    }

    /// Notify the scheduler that one RHS call completed; reschedules the
    /// pool when due. Returns `true` if a reschedule happened.
    pub fn after_rhs_call(&mut self, pool: &mut ExecutorPool) -> bool {
        if self.resched_every == 0 {
            return false;
        }
        self.calls_since += 1;
        if self.calls_since < self.resched_every {
            return false;
        }
        self.calls_since = 0;
        let _span = om_obs::span("sched.lpt", "sched");
        let start = Instant::now();
        // The pool runs LPT / list scheduling over its *live* workers
        // only, so rescheduling composes with fault recovery.
        pool.rebalance_from_measured();
        self.sched_time += start.elapsed();
        self.reschedules += 1;
        self.counter.inc();
        true
    }

    /// Scheduler overhead as a fraction of `total` elapsed time.
    pub fn overhead_fraction(&self, total: Duration) -> f64 {
        if total.is_zero() {
            return 0.0;
        }
        self.sched_time.as_secs_f64() / total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan};
    use om_codegen::cse::CseMode;
    use om_codegen::task::{compile_tasks, equation_tasks};
    use om_expr::CostModel;
    use om_ir::causalize;

    fn pool(workers: usize) -> ExecutorPool {
        let src = "model M;
            Real a(start=0.3); Real b(start=0.7); Real c(start=-0.2); Real d(start=0.9);
            equation
              der(a) = sin(a)*cos(b) + exp(a*0.1);
              der(b) = tanh(b) - a*c;
              der(c) = sqrt(c*c + 1.0) * d;
              der(d) = -d + a*b*c;
            end M;";
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let g = compile_tasks(
            &equation_tasks(&ir, true),
            &ir,
            CseMode::PerTask,
            &CostModel::default(),
        );
        let n = g.tasks.len();
        let assignment = (0..n).map(|i| i % workers).collect();
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        ExecutorPool::with_faults(g, workers, assignment, plan, config).unwrap()
    }

    #[test]
    fn reschedules_at_the_configured_period() {
        let mut p = pool(2);
        let mut s = SemiDynamicScheduler::new(5);
        let mut dydt = [0.0; 4];
        let mut reschedules = 0;
        for k in 0..20 {
            p.rhs(k as f64 * 0.01, &[0.3, 0.7, -0.2, 0.9], &mut dydt);
            if s.after_rhs_call(&mut p) {
                reschedules += 1;
            }
        }
        assert_eq!(reschedules, 4);
        assert_eq!(s.reschedules, 4);
        assert!(s.sched_time > Duration::ZERO);
    }

    #[test]
    fn disabled_scheduler_never_fires() {
        let mut p = pool(2);
        let mut s = SemiDynamicScheduler::new(0);
        let mut dydt = [0.0; 4];
        for _ in 0..10 {
            p.rhs(0.0, &[0.3, 0.7, -0.2, 0.9], &mut dydt);
            assert!(!s.after_rhs_call(&mut p));
        }
        assert_eq!(s.reschedules, 0);
    }

    #[test]
    fn rescheduled_assignment_stays_correct() {
        let mut p = pool(3);
        let mut s = SemiDynamicScheduler::new(1);
        let mut reference_dydt = [0.0; 4];
        p.rhs(0.0, &[0.3, 0.7, -0.2, 0.9], &mut reference_dydt);
        for _ in 0..5 {
            s.after_rhs_call(&mut p);
            let mut dydt = [0.0; 4];
            p.rhs(0.0, &[0.3, 0.7, -0.2, 0.9], &mut dydt);
            assert_eq!(dydt, reference_dydt);
        }
    }

    #[test]
    fn overhead_fraction_is_small_for_infrequent_rescheduling() {
        let mut p = pool(2);
        let mut s = SemiDynamicScheduler::new(10);
        let start = Instant::now();
        let mut dydt = [0.0; 4];
        for _ in 0..200 {
            p.rhs(0.0, &[0.3, 0.7, -0.2, 0.9], &mut dydt);
            s.after_rhs_call(&mut p);
        }
        let total = start.elapsed();
        // The paper claims < 1 %; allow a loose 20 % margin here because
        // the toy model's RHS is tiny compared to bearing right-hand
        // sides — the benchmark (E6) measures the realistic case.
        assert!(
            s.overhead_fraction(total) < 0.2,
            "{}",
            s.overhead_fraction(total)
        );
    }
}
