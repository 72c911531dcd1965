//! LSODA-style automatic stiff/non-stiff method switching.
//!
//! Petzold's LSODA (the solver the paper uses, §3.2.1) integrates with an
//! Adams method while the problem is non-stiff and switches to BDF when
//! stiffness makes the Adams step size collapse. This driver reproduces
//! that behaviour with a windowed cost heuristic:
//!
//! * the time span is processed in windows;
//! * each window is integrated with the current method;
//! * the driver tracks the `RHS`-call cost of each method's most recent
//!   window and switches when the current method becomes clearly more
//!   expensive, or when the non-stiff method shows stress symptoms
//!   (rejection storms, step-size collapse);
//! * consecutive stiff windows continue one BDF integration — its held
//!   Jacobian, step, order and history — instead of starting over at
//!   order 1 in each window.
//!
//! This is a faithful *behavioral* reproduction (same observable policy:
//! cheap Adams on non-stiff stretches, BDF through stiff ones), not a
//! line-by-line port of the LSODA switching test, which relies on
//! method-internal order information.

use crate::adams::Abm4;
use crate::bdf::{BdfOptions, BdfStepper};
use crate::ode::{OdeSystem, Solution, SolveError, SolveStats, Tolerances};

/// Which method family is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    NonStiff,
    Stiff,
}

/// Options for the switching driver.
#[derive(Clone, Copy, Debug)]
pub struct LsodaOptions {
    pub tol: Tolerances,
    /// Number of windows the span is divided into (more windows = faster
    /// switching response, more overhead).
    pub windows: usize,
    /// Cost ratio that triggers a switch attempt.
    pub switch_ratio: f64,
}

impl Default for LsodaOptions {
    fn default() -> Self {
        LsodaOptions {
            tol: Tolerances::default(),
            windows: 32,
            switch_ratio: 1.5,
        }
    }
}

/// The result of an auto-switching solve: where it ended plus the phase
/// history.
#[derive(Clone, Debug)]
pub struct LsodaSolution {
    pub solution: Solution,
    /// `(window start time, phase used)` for every window.
    pub phases: Vec<(f64, Phase)>,
}

impl LsodaSolution {
    /// Fraction of windows integrated with BDF.
    pub fn stiff_fraction(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases
            .iter()
            .filter(|(_, p)| *p == Phase::Stiff)
            .count() as f64
            / self.phases.len() as f64
    }
}

/// Record a method switch in the observability layer (no-op unless
/// enabled): an instant on the timeline plus a running counter.
fn obs_switch(to: Phase) {
    if !om_obs::is_enabled() {
        return;
    }
    om_obs::instant(
        match to {
            Phase::NonStiff => "lsoda.switch_nonstiff",
            Phase::Stiff => "lsoda.switch_stiff",
        },
        "solver",
    );
    om_obs::metrics().counter("solver.lsoda_switches").inc();
}

/// Integrate with automatic stiff/non-stiff switching.
pub fn lsoda(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    opts: &LsodaOptions,
) -> Result<LsodaSolution, SolveError> {
    assert!(tend > t0, "forward integration only");
    assert!(opts.windows >= 1);
    let n = sys.dim();
    assert_eq!(y0.len(), n);
    sys.accepted(t0, y0);
    let window = (tend - t0) / opts.windows as f64;
    let mut t = t0;
    let mut y = y0.to_vec();
    let mut phase = Phase::NonStiff;
    let mut phases = Vec::with_capacity(opts.windows);
    let mut total = SolveStats::default();
    // Most recent per-window RHS cost of each method (None = not tried).
    let mut cost_nonstiff: Option<usize> = None;
    let mut cost_stiff: Option<usize> = None;
    // One stepper per method for the whole solve.
    let mut adams = Abm4::new(n);
    let mut stiff = StiffPhase {
        opts: BdfOptions {
            tol: opts.tol,
            ..BdfOptions::default()
        },
        stepper: None,
        resume: false,
    };

    for w in 0..opts.windows {
        let t_next = if w + 1 == opts.windows {
            tend
        } else {
            t0 + (w + 1) as f64 * window
        };
        phases.push((t, phase));
        let mut chunk = SolveStats::default();
        let result = match phase {
            Phase::NonStiff => adams.advance(sys, &mut t, &mut y, t_next, &opts.tol, &mut chunk),
            Phase::Stiff => stiff.window(sys, &mut t, &mut y, t_next, &mut chunk),
        };
        match result {
            Ok(()) => {}
            Err(SolveError::StepSizeUnderflow { .. }) | Err(SolveError::TooMuchWork { .. })
                if phase == Phase::NonStiff =>
            {
                // The non-stiff method died: classic stiffness signature.
                // Its accepted steps stand (they were reported); BDF
                // finishes the window from the last of them.
                phase = Phase::Stiff;
                obs_switch(phase);
                if let Some(last) = phases.last_mut() {
                    last.1 = phase;
                }
                total.merge(&chunk);
                chunk = SolveStats::default();
                stiff.window(sys, &mut t, &mut y, t_next, &mut chunk)?;
            }
            Err(e) => return Err(e),
        }
        let cost = chunk.rhs_calls;
        // Rejection-heavy windows are the classic signature of an
        // explicit method running at its *stability* limit: the error
        // estimate looks tiny, the step doubles, the doubled step goes
        // unstable and is rejected.
        let rejection_storm = chunk.rejected >= 4 && 2 * chunk.rejected >= chunk.steps;
        match phase {
            Phase::NonStiff => cost_nonstiff = Some(cost),
            Phase::Stiff => cost_stiff = Some(cost),
        }
        total.merge(&chunk);

        // Switching policy for the next window.
        match phase {
            Phase::NonStiff => {
                let stiff_cheaper = match (cost_nonstiff, cost_stiff) {
                    (Some(ns), Some(s)) => ns as f64 > opts.switch_ratio * s as f64,
                    _ => false,
                };
                if rejection_storm || stiff_cheaper {
                    phase = Phase::Stiff;
                    obs_switch(phase);
                } else if cost_stiff.is_none() && chunk.steps > 60 {
                    // Suspiciously many steps for one window and BDF has
                    // never been probed: probe it once. If it is not
                    // actually cheaper, the cost comparison flips back.
                    phase = Phase::Stiff;
                    obs_switch(phase);
                }
            }
            Phase::Stiff => {
                let nonstiff_cheaper = match (cost_nonstiff, cost_stiff) {
                    (Some(ns), Some(s)) => s as f64 > opts.switch_ratio * ns as f64,
                    _ => false,
                };
                // Probe non-stiff again when BDF looks lazy (few Newton
                // iterations per step → problem may have left the stiff
                // region) or when it is measurably cheaper.
                let lazy =
                    chunk.steps > 0 && chunk.newton_iters < 2 * chunk.steps && chunk.rejected == 0;
                if nonstiff_cheaper || (lazy && cost_nonstiff.is_none_or(|ns| ns < 4 * cost)) {
                    phase = Phase::NonStiff;
                    obs_switch(phase);
                    stiff.resume = false;
                }
            }
        }
    }
    Ok(LsodaSolution {
        solution: Solution::new(t, y, total),
        phases,
    })
}

/// LSODA's BDF: built at the first stiff window, resumed across
/// consecutive stiff windows (its held Jacobian, step, order and
/// history carry over) and restarted, in the same buffers, after a
/// non-stiff stretch.
struct StiffPhase {
    opts: BdfOptions,
    stepper: Option<BdfStepper>,
    /// Whether the stepper ended the previous window.
    resume: bool,
}

impl StiffPhase {
    /// Integrate the window `[t, t_next]`; `(t, y)` follows the stepper.
    fn window(
        &mut self,
        sys: &mut dyn OdeSystem,
        t: &mut f64,
        y: &mut [f64],
        t_next: f64,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let stepper = match &mut self.stepper {
            Some(stepper) if self.resume => {
                debug_assert_eq!(stepper.t(), *t, "resumed where the last window ended");
                stepper
            }
            Some(stepper) => {
                stepper.restart(sys, *t, y, t_next, stats)?;
                stepper
            }
            None => self
                .stepper
                .insert(BdfStepper::new(sys, *t, y, t_next, &self.opts, stats)?),
        };
        self.resume = true;
        let result = stepper.integrate(sys, t_next, stats);
        *t = stepper.t();
        y.copy_from_slice(stepper.y());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn nonstiff_problem_stays_nonstiff() {
        let mut sys = FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let sol = lsoda(&mut sys, 0.0, &[1.0, 0.0], 10.0, &LsodaOptions::default()).unwrap();
        assert!(
            sol.stiff_fraction() < 0.3,
            "stiff fraction {}",
            sol.stiff_fraction()
        );
        let expect = (10.0f64).cos();
        assert!((sol.solution.y_end()[0] - expect).abs() < 1e-3);
    }

    #[test]
    fn stiff_problem_switches_to_bdf() {
        // Strongly stiff linear problem.
        let mut sys = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -2000.0 * (y[0] - t.cos());
        });
        let sol = lsoda(&mut sys, 0.0, &[0.0], 2.0, &LsodaOptions::default()).unwrap();
        assert!(
            sol.stiff_fraction() > 0.5,
            "stiff fraction {}",
            sol.stiff_fraction()
        );
        assert!((sol.solution.y_end()[0] - (2.0f64).cos()).abs() < 1e-2);
    }

    #[test]
    fn consecutive_stiff_windows_resume_one_bdf() {
        let mut sys = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -2000.0 * (y[0] - t.cos());
        });
        let sol = lsoda(&mut sys, 0.0, &[0.0], 2.0, &LsodaOptions::default()).unwrap();
        let stiff = sol
            .phases
            .iter()
            .filter(|(_, p)| *p == Phase::Stiff)
            .count();
        assert!(stiff > 16, "{stiff} stiff windows");
        // A new BDF per window would refresh J at least once in each.
        let stats = sol.solution.stats;
        assert!(
            stats.jac_evals * 4 < stiff,
            "{stats:?} over {stiff} stiff windows"
        );
    }

    #[test]
    fn switching_beats_pure_adams_on_stiff_problem() {
        let make = || {
            FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
                d[0] = -2000.0 * (y[0] - t.cos());
            })
        };
        let tol = Tolerances::default();
        let mut s1 = make();
        let auto = lsoda(&mut s1, 0.0, &[0.0], 2.0, &LsodaOptions::default()).unwrap();
        let mut s2 = make();
        let adams_cost = match crate::adams::abm4(&mut s2, 0.0, &[0.0], 2.0, &tol) {
            Ok(sol) => sol.stats.rhs_calls,
            // Pure Adams may simply die on this problem.
            Err(_) => usize::MAX,
        };
        assert!(
            auto.solution.stats.rhs_calls < adams_cost,
            "auto {} vs adams {}",
            auto.solution.stats.rhs_calls,
            adams_cost
        );
    }

    #[test]
    fn phase_log_covers_every_window() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let opts = LsodaOptions {
            windows: 8,
            ..LsodaOptions::default()
        };
        let sol = lsoda(&mut sys, 0.0, &[1.0], 1.0, &opts).unwrap();
        assert_eq!(sol.phases.len(), 8);
        assert!((sol.solution.t_end() - 1.0).abs() < 1e-12);
    }
}
