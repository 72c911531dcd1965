//! Backward differentiation formulas (the stiff half of LSODA).
//!
//! BDF-k on an equidistant history of states:
//!
//! `y₊ = Σⱼ aⱼ·y₋ⱼ + h·b·f(t₊, y₊)`
//!
//! solved by a modified Newton iteration on `G(y) = y − h·b·f(t, y) − c`.
//! The iteration matrix `I − h·b·J` is LU-factored and *reused* across
//! steps until convergence degrades — this is why the paper calls a
//! solver-internal Jacobian "usually very expensive" (§3.2.1) and a
//! smaller one a quadratic-to-cubic saving (§2.3).
//!
//! Both costs follow the system's structural pattern
//! ([`OdeSystem::sparsity`]), not its dimension:
//!
//! * the finite-difference Jacobian perturbs one *colour group* of
//!   columns per RHS call — χ + 1 calls per refresh instead of n + 1
//!   (χ = 3 for a tridiagonal stencil) — and writes only pattern entries,
//!   so `I − h·b·J` is assembled in O(nnz);
//! * the factorization and every Newton solve run over the pattern's
//!   bandwidths `(kl, ku)` ([`crate::linalg`]).
//!
//! A system that reports no pattern gets [`Sparsity::dense`]: n singleton
//! colour groups and bandwidth `(n−1, n−1)` through the same code — the
//! classical n-RHS-call sweep and O(n³) LU are the degenerate case, not a
//! second path.
//!
//! **Structure changes the cost, never a digit.** A row's value depends
//! only on the columns in its pattern, and no two columns of a colour
//! group share a row, so a grouped perturbation hands each entry
//! `(f⁺ᵢ − f⁰ᵢ)/δⱼ` exactly the operands the one-column sweep would;
//! entries off the pattern are exactly 0 either way; and the band-limited
//! elimination skips only identity operations (see [`crate::linalg`]).
//! Step-size control, Newton counts and every printed digit are therefore
//! those of the dense path.
//!
//! Order starts at 1 (backward Euler) and climbs to `max_order` as the
//! history fills; a rejected step halves `h` and restarts at order 1,
//! mirroring the fixed-leading-coefficient restarts of production codes.

use crate::linalg::LuFactors;
use crate::ode::{
    check_finite, eval_rhs, obs_count, obs_step, OdeSystem, Solution, SolveError, SolveStats,
    Tolerances,
};
use crate::sparsity::Sparsity;
use std::sync::Arc;

/// `(a-coefficients, b)` for BDF-k, k = 1..=5.
const BDF_COEFFS: [(&[f64], f64); 5] = [
    (&[1.0], 1.0),
    (&[4.0 / 3.0, -1.0 / 3.0], 2.0 / 3.0),
    (&[18.0 / 11.0, -9.0 / 11.0, 2.0 / 11.0], 6.0 / 11.0),
    (
        &[48.0 / 25.0, -36.0 / 25.0, 16.0 / 25.0, -3.0 / 25.0],
        12.0 / 25.0,
    ),
    (
        &[
            300.0 / 137.0,
            -300.0 / 137.0,
            200.0 / 137.0,
            -75.0 / 137.0,
            12.0 / 137.0,
        ],
        60.0 / 137.0,
    ),
];

/// BDF driver options.
#[derive(Clone, Copy, Debug)]
pub struct BdfOptions {
    pub tol: Tolerances,
    /// Maximum order (1..=5).
    pub max_order: usize,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
}

impl Default for BdfOptions {
    fn default() -> Self {
        BdfOptions {
            tol: Tolerances::default(),
            max_order: 5,
            max_newton: 8,
        }
    }
}

/// Integrate a (possibly stiff) system with variable-step BDF.
pub fn bdf(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    opts: &BdfOptions,
) -> Result<Solution, SolveError> {
    assert!(tend > t0, "forward integration only");
    assert!((1..=5).contains(&opts.max_order));
    let n = sys.dim();
    assert_eq!(y0.len(), n);
    let tol = &opts.tol;
    let mut sol = Solution {
        ts: vec![t0],
        ys: vec![y0.to_vec()],
        stats: SolveStats::default(),
    };
    let span = tend - t0;
    let mut h = if tol.h0 > 0.0 { tol.h0 } else { span / 1000.0 };
    let mut t = t0;
    // History of accepted states, newest first.
    let mut history: Vec<Vec<f64>> = vec![y0.to_vec()];

    // Every per-step and per-iteration vector lives here, outside the
    // step loop.
    let mut jac = JacCache::new(sys);
    let mut f_buf = vec![0.0; n];
    let mut c = vec![0.0; n];
    let mut y_pred = vec![0.0; n];
    let mut y_new = vec![0.0; n];
    let mut g = vec![0.0; n];
    let mut err = vec![0.0; n];

    while t < tend - 1e-14 * tend.abs().max(1.0) {
        if sol.stats.steps + sol.stats.rejected > tol.max_steps {
            return Err(SolveError::TooMuchWork {
                t,
                steps: tol.max_steps,
            });
        }
        if h < 1e-14 * t.abs().max(1.0) + 1e-300 {
            return Err(SolveError::StepSizeUnderflow { t });
        }
        tol.budget.check(t, &sol.stats)?;
        if t + h > tend {
            h = tend - t;
            history.truncate(1);
            jac.hb = None;
        }
        let order = history.len().min(opts.max_order);
        let (a, b) = BDF_COEFFS[order - 1];

        // Constant part c = Σ aⱼ y₋ⱼ and predictor (extrapolation).
        c.fill(0.0);
        for (j, aj) in a.iter().enumerate() {
            for i in 0..n {
                c[i] += aj * history[j][i];
            }
        }
        // Predictor: polynomial extrapolation through the history. At
        // order 1 there is only one point, so use a forward-Euler
        // predictor instead — a constant predictor would make the
        // corrector-predictor error estimate O(h) and stall the solver.
        if order == 1 {
            eval_rhs(sys, t, &history[0], &mut f_buf, &mut sol.stats)?;
            for i in 0..n {
                y_pred[i] = history[0][i] + h * f_buf[i];
            }
        } else {
            extrapolate(&history[..order], &mut y_pred);
        }

        // Modified Newton on G(y) = y − h·b·f(t₊, y) − c.
        let t_new = t + h;
        y_new.copy_from_slice(&y_pred);
        let hb = h * b;
        let mut converged;
        let mut refreshed = jac.hb.is_none();
        loop {
            // Ensure a factorization for the current (h, order).
            if jac.hb != Some(hb) {
                jac.build(sys, t_new, &y_new, hb, &mut sol.stats)?;
            }
            let mut norm_prev = f64::INFINITY;
            converged = false;
            for _ in 0..opts.max_newton {
                eval_rhs(sys, t_new, &y_new, &mut f_buf, &mut sol.stats)?;
                sol.stats.newton_iters += 1;
                obs_count("solver.newton_iters");
                // Residual G(y), overwritten by the Newton correction.
                for i in 0..n {
                    g[i] = y_new[i] - hb * f_buf[i] - c[i];
                }
                jac.lu.solve_in_place(&mut g);
                for i in 0..n {
                    y_new[i] -= g[i];
                }
                let norm = tol.error_norm(&g, &y_new);
                if norm < 0.1 {
                    converged = true;
                    break;
                }
                // Diverging Newton: bail out early.
                if norm > 0.9 * norm_prev && norm > 1.0 {
                    break;
                }
                norm_prev = norm;
            }
            if converged {
                break;
            }
            if !refreshed {
                // Retry once with a fresh Jacobian at the predictor.
                refreshed = true;
                y_new.copy_from_slice(&y_pred);
                jac.build(sys, t_new, &y_new, hb, &mut sol.stats)?;
                continue;
            }
            break;
        }
        if !converged {
            // Halve the step and restart at order 1.
            sol.stats.rejected += 1;
            obs_step("bdf.newton_failure", false, h);
            h *= 0.5;
            history.truncate(1);
            jac.hb = None;
            if h < 1e-300 {
                return Err(SolveError::NewtonFailure { t });
            }
            continue;
        }

        // Local error estimate from the corrector-predictor difference.
        for i in 0..n {
            err[i] = (y_new[i] - y_pred[i]) / (order as f64 + 1.0);
        }
        let err_norm = tol.error_norm(&err, &y_new).max(1e-16);
        if err_norm <= 1.0 {
            t = t_new;
            check_finite(t, &y_new)?;
            sol.stats.steps += 1;
            obs_step("bdf.reject", true, h);
            sol.ts.push(t);
            sol.ys.push(y_new.clone());
            // The state that falls off the history is the next `y_new`.
            let spare = if history.len() >= opts.max_order {
                history.pop()
            } else {
                None
            };
            let spare = spare.unwrap_or_else(|| vec![0.0; n]);
            history.insert(0, std::mem::replace(&mut y_new, spare));
            if err_norm < 0.01 && history.len() >= opts.max_order {
                // Confidently small error at full order: double the step.
                // Every other history point is still equidistant at the
                // new step size, so the restart keeps order ⌈k/2⌉ instead
                // of falling back to backward Euler.
                h *= 2.0;
                let mut index = 0;
                history.retain(|_| {
                    index += 1;
                    index % 2 == 1
                });
                jac.hb = None;
            }
        } else {
            sol.stats.rejected += 1;
            obs_step("bdf.reject", false, h);
            let factor = (0.9 / err_norm.powf(1.0 / (order as f64 + 1.0))).clamp(0.1, 0.9);
            h *= factor;
            history.truncate(1);
            jac.hb = None;
        }
    }
    Ok(sol)
}

/// Extrapolate the next state from `m ≤ 5` equidistant history points by
/// the degree-(m−1) polynomial through them: coefficients are the
/// alternating binomials `(-1)ʲ·C(m, j+1)` (e.g. m=2 → 2y₀−y₁, m=3 →
/// 3y₀−3y₁+y₂).
fn extrapolate(history: &[Vec<f64>], out: &mut [f64]) {
    let m = history.len();
    let mut coeff = [0.0; 5];
    let mut binom = m as f64; // C(m, 1)
    for (j, c) in coeff.iter_mut().enumerate().take(m) {
        *c = if j % 2 == 0 { binom } else { -binom };
        binom = binom * (m - j - 1) as f64 / (j + 2) as f64; // C(m, j+2)
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = history.iter().zip(&coeff).map(|(y, c)| c * y[i]).sum();
    }
}

/// The Newton iteration matrix `I − h·b·J`, LU-factored in band storage,
/// with the pattern that shapes it and the scratch a refresh needs. One
/// per `bdf` call; a refresh reuses every buffer.
struct JacCache {
    sparsity: Arc<Sparsity>,
    lu: LuFactors,
    /// The `h·b` the factors are valid for; `None` = stale.
    hb: Option<f64>,
    /// Row-major `n²` target of [`OdeSystem::jacobian`]. Held only for a
    /// system that reports no pattern (whose matrix is `n²` anyway); one
    /// that reports a pattern is differenced along it.
    analytic: Option<Vec<f64>>,
    f0: Vec<f64>,
    yp: Vec<f64>,
    fp: Vec<f64>,
}

impl JacCache {
    fn new(sys: &mut dyn OdeSystem) -> JacCache {
        let n = sys.dim();
        let reported = sys.sparsity();
        let analytic = reported.is_none().then(|| vec![0.0; n * n]);
        let sparsity = reported.unwrap_or_else(|| Arc::new(Sparsity::dense(n)));
        assert_eq!(sparsity.dim(), n, "sparsity pattern of the wrong dimension");
        let (kl, ku) = sparsity.bandwidth();
        if om_obs::is_enabled() {
            let m = om_obs::metrics();
            m.gauge("solver.jac_colours")
                .set(sparsity.groups().len() as f64);
            m.gauge("solver.jac_nnz").set(sparsity.nnz() as f64);
            m.gauge("solver.lu_bandwidth_kl").set(kl as f64);
            m.gauge("solver.lu_bandwidth_ku").set(ku as f64);
        }
        JacCache {
            lu: LuFactors::zeros(n, kl, ku),
            sparsity,
            hb: None,
            analytic,
            f0: vec![0.0; n],
            yp: vec![0.0; n],
            fp: vec![0.0; n],
        }
    }

    /// Refresh the Jacobian at `(t, y)` and factor `I − hb·J`.
    fn build(
        &mut self,
        sys: &mut dyn OdeSystem,
        t: f64,
        y: &[f64],
        hb: f64,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let JacCache {
            sparsity,
            lu,
            hb: valid_for,
            analytic,
            f0,
            yp,
            fp,
        } = self;
        *valid_for = None;
        let n = y.len();
        {
            let _span = om_obs::span("bdf.jacobian", "solver");
            lu.clear();
            let supplied = match analytic {
                Some(jac) => sys.jacobian(t, y, jac).then_some(&*jac),
                None => None,
            };
            if let Some(jac) = supplied {
                for (i, row) in jac.chunks_exact(n).enumerate() {
                    for (j, &d) in row.iter().enumerate() {
                        *lu.entry_mut(i, j) = -hb * d;
                    }
                }
            } else {
                fd_sweep(sys, t, y, sparsity, [f0, yp, fp], stats, |row, col, d| {
                    *lu.entry_mut(row, col) = -hb * d;
                })?;
            }
            stats.jac_evals += 1;
            obs_count("solver.jac_evals");
            // M = I − hb·J
            for i in 0..n {
                *lu.entry_mut(i, i) += 1.0;
            }
        }
        let _span = om_obs::span("bdf.lu", "solver");
        lu.factor_in_place()
            .map_err(|_| SolveError::SingularJacobian { t })?;
        stats.lu_factorizations += 1;
        obs_count("solver.lu_factorizations");
        *valid_for = Some(hb);
        Ok(())
    }
}

/// Finite differences along `pattern`, one RHS call per colour group
/// (plus one for the base point): the columns of a group share no row, so
/// `entry(i, j, (f⁺ᵢ − f⁰ᵢ)/δⱼ)` sees exactly the operands a one-column
/// perturbation would give it. `[f0, yp, fp]` are length-`n` scratch.
fn fd_sweep(
    sys: &mut dyn OdeSystem,
    t: f64,
    y: &[f64],
    pattern: &Sparsity,
    [f0, yp, fp]: [&mut Vec<f64>; 3],
    stats: &mut SolveStats,
    mut entry: impl FnMut(usize, usize, f64),
) -> Result<(), SolveError> {
    let dy = |col: usize| 1e-8 * y[col].abs().max(1e-8);
    eval_rhs(sys, t, y, f0, stats)?;
    yp.copy_from_slice(y);
    for group in pattern.groups() {
        for &col in group {
            yp[col] = y[col] + dy(col);
        }
        eval_rhs(sys, t, yp, fp, stats)?;
        for &col in group {
            yp[col] = y[col];
            let dy = dy(col);
            for &row in pattern.col_rows(col) {
                entry(row, col, (fp[row] - f0[row]) / dy);
            }
        }
    }
    Ok(())
}

/// The finite-difference Jacobian `∂f/∂y` of `sys` at `(t, y)` exactly as
/// [`bdf`] differences it along `pattern`, as a dense row-major matrix
/// (zero off the pattern). For inspection and tests: `bdf` itself never
/// materialises it.
pub fn fd_jacobian(
    sys: &mut dyn OdeSystem,
    t: f64,
    y: &[f64],
    pattern: &Sparsity,
) -> Result<Vec<f64>, SolveError> {
    let n = y.len();
    assert_eq!(pattern.dim(), n, "sparsity pattern of the wrong dimension");
    let mut jac = vec![0.0; n * n];
    let (mut f0, mut yp, mut fp) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    fd_sweep(
        sys,
        t,
        y,
        pattern,
        [&mut f0, &mut yp, &mut fp],
        &mut SolveStats::default(),
        |row, col, d| jac[row * n + col] = d,
    )?;
    Ok(jac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::FnSystem;

    #[test]
    fn decay_matches_exact_solution() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let sol = bdf(&mut sys, 0.0, &[1.0], 2.0, &BdfOptions::default()).unwrap();
        assert!(
            (sol.y_end()[0] - (-2.0f64).exp()).abs() < 1e-4,
            "{}",
            sol.y_end()[0]
        );
    }

    #[test]
    fn stiff_decay_needs_few_steps() {
        // y' = -1000(y - cos t) - sin t, y(0)=1; exact y = cos t.
        // Explicit methods need h ≲ 2/1000; BDF should take far fewer
        // than 1000 steps for t ∈ [0, 1].
        let mut sys = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -1000.0 * (y[0] - t.cos()) - t.sin();
        });
        let sol = bdf(&mut sys, 0.0, &[1.0], 1.0, &BdfOptions::default()).unwrap();
        assert!(
            (sol.y_end()[0] - 1.0f64.cos()).abs() < 1e-3,
            "{}",
            sol.y_end()[0]
        );
        assert!(
            sol.stats.steps + sol.stats.rejected < 600,
            "too many steps: {:?}",
            sol.stats
        );
    }

    #[test]
    fn user_jacobian_reduces_rhs_calls() {
        struct Stiff {
            with_jac: bool,
        }
        impl OdeSystem for Stiff {
            fn dim(&self) -> usize {
                2
            }
            fn rhs(&mut self, _t: f64, y: &[f64], d: &mut [f64]) {
                d[0] = -500.0 * y[0] + 499.0 * y[1];
                d[1] = 499.0 * y[0] - 500.0 * y[1];
            }
            fn jacobian(&mut self, _t: f64, _y: &[f64], j: &mut [f64]) -> bool {
                if !self.with_jac {
                    return false;
                }
                j.copy_from_slice(&[-500.0, 499.0, 499.0, -500.0]);
                true
            }
        }
        let run = |with_jac: bool| {
            let mut sys = Stiff { with_jac };
            bdf(&mut sys, 0.0, &[2.0, 0.0], 1.0, &BdfOptions::default())
                .unwrap()
                .stats
        };
        let with_jac = run(true);
        let without = run(false);
        assert!(
            with_jac.rhs_calls < without.rhs_calls,
            "with {:?} without {:?}",
            with_jac,
            without
        );
        // Solutions agree: y → (1, 1)·e^{-t} + decaying fast mode.
        let exact0 = (-1.0f64).exp() + (-999.0f64).exp();
        let mut sys = Stiff { with_jac: true };
        let sol = bdf(&mut sys, 0.0, &[2.0, 0.0], 1.0, &BdfOptions::default()).unwrap();
        assert!((sol.y_end()[0] - exact0).abs() < 1e-3);
    }

    #[test]
    fn van_der_pol_mildly_stiff() {
        // μ = 50 Van der Pol; just require completion and bounded state.
        let mu = 50.0;
        let mut sys = FnSystem::new(2, move |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
        });
        let sol = bdf(&mut sys, 0.0, &[2.0, 0.0], 5.0, &BdfOptions::default()).unwrap();
        assert!(sol.y_end()[0].abs() < 3.0);
        assert!(sol.stats.newton_iters > 0);
        assert!(sol.stats.lu_factorizations > 0);
    }

    #[test]
    fn order_one_only_still_works() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let opts = BdfOptions {
            max_order: 1,
            ..BdfOptions::default()
        };
        let sol = bdf(&mut sys, 0.0, &[1.0], 1.0, &opts).unwrap();
        // Backward Euler is first order: loose tolerance.
        assert!((sol.y_end()[0] - (-1.0f64).exp()).abs() < 1e-2);
    }

    #[test]
    fn reaches_tend_exactly() {
        let mut sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let sol = bdf(&mut sys, 0.0, &[1.0], 0.777, &BdfOptions::default()).unwrap();
        assert!((sol.t_end() - 0.777).abs() < 1e-12);
    }

    /// A stiff 1-D diffusion stencil, optionally reporting its
    /// tridiagonal pattern; counts how often the pattern was asked for.
    struct Stencil {
        n: usize,
        structured: bool,
        asked: usize,
        pattern: Option<Arc<Sparsity>>,
    }

    impl Stencil {
        fn new(n: usize, structured: bool) -> Stencil {
            Stencil {
                n,
                structured,
                asked: 0,
                pattern: None,
            }
        }
        fn y0(&self) -> Vec<f64> {
            (0..self.n).map(|i| (0.3 * i as f64).sin()).collect()
        }
    }

    impl OdeSystem for Stencil {
        fn dim(&self) -> usize {
            self.n
        }
        fn rhs(&mut self, _t: f64, y: &[f64], d: &mut [f64]) {
            let n = self.n;
            for i in 0..n {
                let left = if i > 0 { y[i - 1] } else { 0.0 };
                let right = if i + 1 < n { y[i + 1] } else { 0.0 };
                d[i] = 400.0 * (left - 2.0 * y[i] + right) - y[i] * y[i] * y[i];
            }
        }
        fn sparsity(&mut self) -> Option<Arc<Sparsity>> {
            self.asked += 1;
            if !self.structured {
                return None;
            }
            let n = self.n;
            Some(Arc::clone(self.pattern.get_or_insert_with(|| {
                let rows = (0..n)
                    .map(|i| (i.saturating_sub(1)..=(i + 1).min(n - 1)).collect())
                    .collect();
                Arc::new(Sparsity::from_rows(rows))
            })))
        }
    }

    #[test]
    fn a_pattern_changes_the_rhs_call_count_and_nothing_else() {
        let n = 24;
        let run = |structured: bool| {
            let mut sys = Stencil::new(n, structured);
            let y0 = sys.y0();
            bdf(&mut sys, 0.0, &y0, 0.05, &BdfOptions::default()).unwrap()
        };
        let (dense, banded) = (run(false), run(true));
        let bits = |sol: &Solution| -> Vec<Vec<u64>> {
            sol.ys
                .iter()
                .map(|y| y.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&banded), bits(&dense));
        assert_eq!(banded.ts, dense.ts);
        assert!(dense.stats.jac_evals > 3 && dense.stats.rejected + dense.stats.steps > 10);
        // χ = 3 instead of n RHS calls per refresh; every other counter
        // is untouched.
        assert_eq!(
            dense.stats.rhs_calls - banded.stats.rhs_calls,
            dense.stats.jac_evals * (n - 3)
        );
        assert_eq!(
            SolveStats {
                rhs_calls: 0,
                ..banded.stats
            },
            SolveStats {
                rhs_calls: 0,
                ..dense.stats
            }
        );
    }

    #[test]
    fn coloured_fd_jacobian_is_bitwise_the_one_column_sweep() {
        let mut sys = Stencil::new(17, true);
        let y = sys.y0();
        let pattern = sys.sparsity().unwrap();
        let coloured = fd_jacobian(&mut sys, 0.2, &y, &pattern).unwrap();
        let swept = fd_jacobian(&mut sys, 0.2, &y, &Sparsity::dense(17)).unwrap();
        let bits = |j: &[f64]| j.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&coloured), bits(&swept));
        assert!(coloured.iter().filter(|v| **v != 0.0).count() == 3 * 17 - 2);
    }

    #[test]
    fn only_implicit_solvers_ask_for_the_pattern() {
        let tol = Tolerances::default();
        let mut sys = Stencil::new(6, true);
        let y0 = sys.y0();
        crate::rk::dopri5(&mut sys, 0.0, &y0, 0.01, &tol).unwrap();
        crate::rk::rk4(&mut sys, 0.0, &y0, 0.01, 1e-4).unwrap();
        crate::adams::abm4(&mut sys, 0.0, &y0, 0.01, &tol).unwrap();
        assert_eq!(sys.asked, 0);
        bdf(&mut sys, 0.0, &y0, 0.01, &BdfOptions::default()).unwrap();
        assert_eq!(sys.asked, 1);
    }
}
