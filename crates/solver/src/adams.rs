//! Adams–Bashforth–Moulton predictor–corrector (the non-stiff half of
//! LSODA).
//!
//! A fourth-order PECE pair on an equidistant derivative history:
//!
//! * predictor (Adams–Bashforth 4):
//!   `yᴾ = y + h/24·(55f₀ − 59f₁ + 37f₂ − 9f₃)`
//! * corrector (Adams–Moulton 4), evaluated once:
//!   `yᶜ = y + h/24·(9fᴾ + 19f₀ − 5f₁ + f₂)`
//!
//! The local error is estimated from the predictor/corrector difference
//! (Milne's device). The step size changes only by doubling/halving with
//! hysteresis, because a step change invalidates the equidistant history
//! and forces an RK4 re-bootstrap — the classical multistep trade-off
//! (paper §2.4: "extrapolation of … previously calculated points
//! (multi-step methods)").

use crate::ode::{
    check_finite, eval_rhs, obs_step, Budget, OdeSystem, Solution, SolveError, SolveStats,
    Tolerances,
};
use crate::rk::Rk4;

/// Integrate with adaptive 4th-order Adams–Bashforth–Moulton.
pub fn abm4(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    tol: &Tolerances,
) -> Result<Solution, SolveError> {
    assert!(tend > t0, "forward integration only");
    let n = sys.dim();
    assert_eq!(y0.len(), n);
    sys.accepted(t0, y0);
    let mut stats = SolveStats::default();
    let (mut t, mut y) = (t0, y0.to_vec());
    Abm4::new(n).advance(sys, &mut t, &mut y, tend, tol, &mut stats)?;
    Ok(Solution::new(t, y, stats))
}

/// The Adams stepper's buffers: the four-deep derivative history, the
/// predictor/corrector vectors and the RK4 primer. [`crate::lsoda`] keeps
/// one across its non-stiff windows.
pub(crate) struct Abm4 {
    /// `history[0]` is the newest derivative; the first `valid` are
    /// current (an equidistant history at the present step).
    history: [Vec<f64>; 4],
    valid: usize,
    yp: Vec<f64>,
    fp: Vec<f64>,
    yc: Vec<f64>,
    err: Vec<f64>,
    primer: Rk4,
}

impl Abm4 {
    pub(crate) fn new(n: usize) -> Abm4 {
        Abm4 {
            history: std::array::from_fn(|_| vec![0.0; n]),
            valid: 0,
            yp: vec![0.0; n],
            fp: vec![0.0; n],
            yc: vec![0.0; n],
            err: vec![0.0; n],
            primer: Rk4::new(n),
        }
    }

    /// Push `f(t, y)` as the newest derivative, dropping the oldest.
    fn push(
        &mut self,
        sys: &mut dyn OdeSystem,
        t: f64,
        y: &[f64],
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        self.history.rotate_right(1);
        eval_rhs(sys, t, y, &mut self.history[0], stats)?;
        self.valid = (self.valid + 1).min(4);
        Ok(())
    }

    /// Step `(t, y)` to `tend` from a fresh history, with a first step of
    /// `tol.h0` or a thousandth of the span, reporting each accepted step
    /// (the RK4 primer's included) to the system. When it gives up (step
    /// size underflow, too much work), `(t, y)` is the last accepted point.
    pub(crate) fn advance(
        &mut self,
        sys: &mut dyn OdeSystem,
        t: &mut f64,
        y: &mut [f64],
        tend: f64,
        tol: &Tolerances,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let n = y.len();
        let span = tend - *t;
        let mut h = if tol.h0 > 0.0 { tol.h0 } else { span / 1000.0 };
        // Rebuilt after every step change.
        self.valid = 0;

        while *t < tend - 1e-14 * tend.abs().max(1.0) {
            if stats.steps + stats.rejected > tol.max_steps {
                return Err(SolveError::TooMuchWork {
                    t: *t,
                    steps: tol.max_steps,
                });
            }
            if h < 1e-14 * t.abs().max(1.0) + 1e-300 {
                return Err(SolveError::StepSizeUnderflow { t: *t });
            }
            tol.budget.check(*t, stats)?;
            // Never step past tend; if close, shrink h for the final
            // stretch (bootstrap will rebuild the history at the smaller
            // h).
            if *t + 4.0 * h > tend && *t + h < tend {
                h = (tend - *t) / (((tend - *t) / h).ceil());
                self.valid = 0;
            } else if *t + h > tend {
                h = tend - *t;
                self.valid = 0;
            }

            // (Re)bootstrap the history with RK4 when invalid.
            if self.valid < 4 {
                self.valid = 0;
                self.push(sys, *t, y, stats)?;
                // Three RK4 priming steps (only if room remains).
                for _ in 0..3 {
                    if *t + h > tend + 1e-14 {
                        break;
                    }
                    let to = *t + h;
                    self.primer
                        .advance(sys, t, y, to, h, &Budget::unlimited(), stats)?;
                    self.push(sys, *t, y, stats)?;
                }
                if self.valid < 4 {
                    // Not enough room before tend: finish with RK4.
                    if *t < tend - 1e-14 {
                        let h = h.min(tend - *t);
                        self.primer
                            .advance(sys, t, y, tend, h, &Budget::unlimited(), stats)?;
                    }
                    break;
                }
                continue;
            }

            // Predict (AB4).
            let Abm4 {
                history: [f0, f1, f2, f3],
                yp,
                fp,
                yc,
                err,
                ..
            } = self;
            for i in 0..n {
                yp[i] =
                    y[i] + h / 24.0 * (55.0 * f0[i] - 59.0 * f1[i] + 37.0 * f2[i] - 9.0 * f3[i]);
            }
            // Evaluate.
            eval_rhs(sys, *t + h, yp, fp, stats)?;
            // Correct (AM4).
            for i in 0..n {
                yc[i] = y[i] + h / 24.0 * (9.0 * fp[i] + 19.0 * f0[i] - 5.0 * f1[i] + f2[i]);
            }
            // Milne error estimate.
            for i in 0..n {
                err[i] = 19.0 / 270.0 * (yc[i] - yp[i]);
            }
            let err_norm = tol.error_norm(err, yc).max(1e-16);
            if err_norm <= 1.0 {
                *t += h;
                y.copy_from_slice(yc);
                check_finite(*t, y)?;
                stats.steps += 1;
                obs_step("abm4.reject", true, h);
                sys.accepted(*t, y);
                // Final evaluation for the history (PECE).
                self.push(sys, *t, y, stats)?;
                // Hysteretic step doubling.
                if err_norm < 0.01 {
                    h *= 2.0;
                    self.valid = 0;
                }
            } else {
                stats.rejected += 1;
                obs_step("abm4.reject", false, h);
                h *= 0.5;
                self.valid = 0;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn decay_is_accurate() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let sol = abm4(&mut sys, 0.0, &[1.0], 2.0, &Tolerances::default()).unwrap();
        assert!((sol.y_end()[0] - (-2.0f64).exp()).abs() < 1e-6);
        assert!((sol.t_end() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn oscillator_period_is_preserved() {
        let mut sys = FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let tol = Tolerances {
            rtol: 1e-8,
            atol: 1e-10,
            ..Tolerances::default()
        };
        let sol = abm4(&mut sys, 0.0, &[1.0, 0.0], 2.0 * std::f64::consts::PI, &tol).unwrap();
        assert!((sol.y_end()[0] - 1.0).abs() < 1e-5, "{:?}", sol.y_end());
    }

    #[test]
    fn uses_about_one_rhs_call_per_step_asymptotically() {
        // The multistep advantage: ~2 RHS calls per step (PECE) vs 6 for
        // DOPRI5.
        let mut sys = FnSystem::new(1, |t: f64, _y: &[f64], d: &mut [f64]| {
            d[0] = (0.5 * t).sin()
        });
        let sol = abm4(&mut sys, 0.0, &[0.0], 50.0, &Tolerances::default()).unwrap();
        let per_step = sol.stats.rhs_calls as f64 / sol.stats.steps as f64;
        assert!(per_step < 4.0, "rhs/step = {per_step}");
    }

    #[test]
    fn time_dependent_rhs() {
        // y' = 3t² → y = t³.
        let mut sys = FnSystem::new(1, |t: f64, _y: &[f64], d: &mut [f64]| d[0] = 3.0 * t * t);
        let sol = abm4(&mut sys, 0.0, &[0.0], 2.0, &Tolerances::default()).unwrap();
        assert!((sol.y_end()[0] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn short_interval_falls_back_to_rk4() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let tol = Tolerances {
            h0: 0.5,
            ..Tolerances::default()
        };
        // Span of 1.0 with h0 = 0.5: not enough room for 4 priming steps.
        let sol = abm4(&mut sys, 0.0, &[1.0], 1.0, &tol).unwrap();
        assert!((sol.t_end() - 1.0).abs() < 1e-12);
        assert!((sol.y_end()[0] - (-1.0f64).exp()).abs() < 1e-3);
    }
}
