//! Explicit Runge–Kutta methods: classic RK4 (fixed step) and
//! Dormand–Prince 5(4) with PI step-size control.
//!
//! These are the "single-step … methods" of paper §2.4: each step makes
//! several `RHS` calls (4 for RK4, 6–7 for DOPRI5), so the RHS-calls/s
//! throughput measured in Figure 12 directly bounds simulation speed.

use crate::ode::{
    check_finite, eval_rhs, obs_step, Budget, OdeSystem, Solution, SolveError, SolveStats,
    Tolerances,
};

/// Integrate with the classic fourth-order Runge–Kutta method at fixed
/// step `h`.
pub fn rk4(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    h: f64,
) -> Result<Solution, SolveError> {
    rk4_budgeted(sys, t0, y0, tend, h, &Budget::unlimited())
}

/// [`rk4`] under a resource [`Budget`]. RK4 takes no [`Tolerances`] (and
/// hence no embedded budget), so the ensemble driver passes the scenario
/// envelope explicitly through this variant.
pub fn rk4_budgeted(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    h: f64,
    budget: &Budget,
) -> Result<Solution, SolveError> {
    assert!(h > 0.0 && tend > t0, "forward integration only");
    let n = sys.dim();
    assert_eq!(y0.len(), n);
    sys.accepted(t0, y0);
    let mut stats = SolveStats::default();
    let (mut t, mut y) = (t0, y0.to_vec());
    Rk4::new(n).advance(sys, &mut t, &mut y, tend, h, budget, &mut stats)?;
    Ok(Solution::new(t, y, stats))
}

/// RK4's stage buffers. [`Rk4::advance`] steps a caller-owned `(t, y)`
/// in place, so [`rk4`] and the Adams primer share one stepper and
/// neither allocates per step.
pub(crate) struct Rk4 {
    k: [Vec<f64>; 4],
    tmp: Vec<f64>,
}

impl Rk4 {
    pub(crate) fn new(n: usize) -> Rk4 {
        Rk4 {
            k: std::array::from_fn(|_| vec![0.0; n]),
            tmp: vec![0.0; n],
        }
    }

    /// Step `(t, y)` to `tend` at step `h`, the last step clipped to land
    /// on `tend`, reporting each accepted step to the system.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        sys: &mut dyn OdeSystem,
        t: &mut f64,
        y: &mut [f64],
        tend: f64,
        h: f64,
        budget: &Budget,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let Rk4 {
            k: [k1, k2, k3, k4],
            tmp,
        } = self;
        let n = y.len();
        while *t < tend - 1e-14 * tend.abs().max(1.0) {
            budget.check(*t, stats)?;
            let h_step = h.min(tend - *t);
            eval_rhs(sys, *t, y, k1, stats)?;
            for i in 0..n {
                tmp[i] = y[i] + 0.5 * h_step * k1[i];
            }
            eval_rhs(sys, *t + 0.5 * h_step, tmp, k2, stats)?;
            for i in 0..n {
                tmp[i] = y[i] + 0.5 * h_step * k2[i];
            }
            eval_rhs(sys, *t + 0.5 * h_step, tmp, k3, stats)?;
            for i in 0..n {
                tmp[i] = y[i] + h_step * k3[i];
            }
            eval_rhs(sys, *t + h_step, tmp, k4, stats)?;
            for i in 0..n {
                y[i] += h_step / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            *t += h_step;
            stats.steps += 1;
            obs_step("rk4.reject", true, h_step);
            check_finite(*t, y)?;
            sys.accepted(*t, y);
        }
        Ok(())
    }
}

// Dormand–Prince 5(4) coefficients.
const A: [[f64; 6]; 6] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
const C: [f64; 6] = [1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
/// 5th-order solution weights (same as the last A row: FSAL).
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
/// Embedded 4th-order weights.
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// Integrate with Dormand–Prince 5(4), adaptive step size with a PI
/// controller and FSAL (first-same-as-last) reuse.
pub fn dopri5(
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
    let mut t = t0;
    let mut y = y0.to_vec();
    let mut k: Vec<Vec<f64>> = vec![vec![0.0; n]; 7];
    eval_rhs(sys, t, &y, &mut k[0], &mut stats)?;

    let mut h = if tol.h0 > 0.0 {
        tol.h0
    } else {
        initial_step(sys, t, &y, &k[0], tend, tol, &mut stats)?
    };
    let mut err_prev: f64 = 1.0;
    let mut tmp = vec![0.0; n];
    let mut y5 = vec![0.0; n];
    let mut err = vec![0.0; n];

    while t < tend - 1e-14 * tend.abs().max(1.0) {
        if stats.steps + stats.rejected > tol.max_steps {
            return Err(SolveError::TooMuchWork {
                t,
                steps: tol.max_steps,
            });
        }
        tol.budget.check(t, &stats)?;
        h = h.min(tend - t);
        if h < 1e-14 * t.abs().max(1.0) {
            return Err(SolveError::StepSizeUnderflow { t });
        }
        // Stages 2..7.
        for s in 0..6 {
            for i in 0..n {
                let mut acc = 0.0;
                for (j, a) in A[s].iter().enumerate().take(s + 1) {
                    acc += a * k[j][i];
                }
                tmp[i] = y[i] + h * acc;
            }
            eval_rhs(sys, t + C[s] * h, &tmp, &mut k[s + 1], &mut stats)?;
        }
        // 5th order solution and embedded error.
        for i in 0..n {
            let mut acc5 = 0.0;
            let mut acc4 = 0.0;
            for s in 0..7 {
                acc5 += B5[s] * k[s][i];
                acc4 += B4[s] * k[s][i];
            }
            y5[i] = y[i] + h * acc5;
            err[i] = h * (acc5 - acc4);
        }
        let err_norm = tol.error_norm(&err, &y5).max(1e-16);
        if err_norm <= 1.0 {
            // Accept; PI controller (Gustafsson).
            t += h;
            y.copy_from_slice(&y5);
            check_finite(t, &y)?;
            stats.steps += 1;
            obs_step("dopri5.reject", true, h);
            sys.accepted(t, &y);
            // FSAL: k7 is the RHS at the new point. The next step's stages
            // overwrite k[6] before reading it, so a swap is the copy.
            k.swap(0, 6);
            let factor = 0.9 * err_norm.powf(-0.7 / 5.0) * err_prev.powf(0.4 / 5.0);
            h *= factor.clamp(0.2, 5.0);
            err_prev = err_norm;
        } else {
            stats.rejected += 1;
            obs_step("dopri5.reject", false, h);
            let factor = 0.9 * err_norm.powf(-1.0 / 5.0);
            h *= factor.clamp(0.1, 0.9);
        }
    }
    Ok(Solution::new(t, y, stats))
}

/// Standard automatic initial-step heuristic (Hairer–Nørsett–Wanner).
fn initial_step(
    sys: &mut dyn OdeSystem,
    t: f64,
    y: &[f64],
    f0: &[f64],
    tend: f64,
    tol: &Tolerances,
    stats: &mut SolveStats,
) -> Result<f64, SolveError> {
    let n = y.len();
    let d0 = tol.error_norm(y, y);
    let d1 = tol.error_norm(f0, y);
    let h0 = if d0 < 1e-5 || d1 < 1e-5 {
        1e-6
    } else {
        0.01 * d0 / d1
    };
    let mut y1 = vec![0.0; n];
    for i in 0..n {
        y1[i] = y[i] + h0 * f0[i];
    }
    let mut f1 = vec![0.0; n];
    eval_rhs(sys, t + h0, &y1, &mut f1, stats)?;
    let mut diff = vec![0.0; n];
    for i in 0..n {
        diff[i] = f1[i] - f0[i];
    }
    let d2 = tol.error_norm(&diff, y) / h0;
    let h1 = if d1.max(d2) <= 1e-15 {
        (h0 * 1e-3).max(1e-6)
    } else {
        (0.01 / d1.max(d2)).powf(1.0 / 5.0)
    };
    Ok((100.0 * h0).min(h1).min(tend - t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::{FnSystem, Recorder};

    fn decay() -> FnSystem<impl FnMut(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], dydt: &mut [f64]| dydt[0] = -y[0])
    }

    fn oscillator() -> FnSystem<impl FnMut(f64, &[f64], &mut [f64])> {
        FnSystem::new(2, |_t, y: &[f64], dydt: &mut [f64]| {
            dydt[0] = y[1];
            dydt[1] = -y[0];
        })
    }

    #[test]
    fn rk4_exponential_decay() {
        let mut sys = decay();
        let sol = rk4(&mut sys, 0.0, &[1.0], 1.0, 1e-3).unwrap();
        let expect = (-1.0f64).exp();
        assert!((sol.y_end()[0] - expect).abs() < 1e-10);
        assert_eq!(sol.stats.rhs_calls, sol.stats.steps * 4);
    }

    #[test]
    fn rk4_has_fourth_order_convergence() {
        let exact = (-2.0f64).exp();
        let mut errs = Vec::new();
        for h in [0.1, 0.05, 0.025] {
            let mut sys = decay();
            let sol = rk4(&mut sys, 0.0, &[1.0], 2.0, h).unwrap();
            errs.push((sol.y_end()[0] - exact).abs());
        }
        // Halving h should reduce error ~16×.
        assert!(errs[0] / errs[1] > 12.0, "{errs:?}");
        assert!(errs[1] / errs[2] > 12.0, "{errs:?}");
    }

    #[test]
    fn dopri5_oscillator_is_accurate() {
        let mut sys = oscillator();
        let tol = Tolerances {
            rtol: 1e-8,
            atol: 1e-10,
            ..Tolerances::default()
        };
        let t_end = 2.0 * std::f64::consts::PI;
        let sol = dopri5(&mut sys, 0.0, &[1.0, 0.0], t_end, &tol).unwrap();
        // One full period: back to (1, 0).
        assert!((sol.y_end()[0] - 1.0).abs() < 1e-6, "{:?}", sol.y_end());
        assert!(sol.y_end()[1].abs() < 1e-6);
    }

    #[test]
    fn dopri5_adapts_step_size() {
        // y' = cos(10 t) · 10 — smooth but oscillatory; steps must vary.
        let mut sys = Recorder::new(FnSystem::new(1, |t: f64, _y: &[f64], dydt: &mut [f64]| {
            dydt[0] = 10.0 * (10.0 * t).cos();
        }));
        let sol = dopri5(&mut sys, 0.0, &[0.0], 3.0, &Tolerances::default()).unwrap();
        let steps: Vec<f64> = sys.ts.windows(2).map(|w| w[1] - w[0]).collect();
        let min = steps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = steps.iter().cloned().fold(0.0, f64::max);
        assert!(max > 1.5 * min, "steps did not vary: {min} … {max}");
        // Solution is sin(10t).
        let expect = (30.0f64).sin();
        assert!((sol.y_end()[0] - expect).abs() < 1e-4);
    }

    #[test]
    fn dopri5_tighter_tolerance_costs_more_rhs_calls() {
        let run = |rtol: f64| {
            let mut sys = oscillator();
            let tol = Tolerances {
                rtol,
                atol: rtol * 1e-2,
                ..Tolerances::default()
            };
            dopri5(&mut sys, 0.0, &[1.0, 0.0], 10.0, &tol)
                .unwrap()
                .stats
                .rhs_calls
        };
        assert!(run(1e-10) > run(1e-4));
    }

    #[test]
    fn dopri5_detects_nonfinite_blowup() {
        // y' = y² with y(0) = 1 blows up at t = 1.
        let mut sys = FnSystem::new(1, |_t, y: &[f64], dydt: &mut [f64]| {
            dydt[0] = y[0] * y[0];
        });
        let err = dopri5(&mut sys, 0.0, &[1.0], 2.0, &Tolerances::default());
        assert!(
            matches!(
                err,
                Err(SolveError::NonFiniteState { .. })
                    | Err(SolveError::StepSizeUnderflow { .. })
                    | Err(SolveError::TooMuchWork { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn failing_rhs_surfaces_as_rhs_failure_not_panic() {
        use crate::ode::RhsError;
        struct Flaky {
            calls: usize,
        }
        impl OdeSystem for Flaky {
            fn dim(&self) -> usize {
                1
            }
            fn rhs(&mut self, _t: f64, _y: &[f64], dydt: &mut [f64]) {
                dydt[0] = f64::NAN;
            }
            fn try_rhs(&mut self, _t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
                self.calls += 1;
                if self.calls > 10 {
                    return Err(RhsError::new("injected failure"));
                }
                dydt[0] = -y[0];
                Ok(())
            }
        }
        let mut sys = Flaky { calls: 0 };
        let err = dopri5(&mut sys, 0.0, &[1.0], 10.0, &Tolerances::default());
        match err {
            Err(SolveError::RhsFailure { reason, .. }) => {
                assert!(reason.contains("injected failure"))
            }
            other => panic!("expected RhsFailure, got {other:?}"),
        }
        let mut sys = Flaky { calls: 0 };
        let err = rk4(&mut sys, 0.0, &[1.0], 1.0, 1e-2);
        assert!(matches!(err, Err(SolveError::RhsFailure { .. })), "{err:?}");
    }

    #[test]
    fn rk4_respects_tend_exactly() {
        let mut sys = decay();
        let sol = rk4(&mut sys, 0.0, &[1.0], 0.35, 0.1).unwrap();
        assert!((sol.t_end() - 0.35).abs() < 1e-12);
    }
}
