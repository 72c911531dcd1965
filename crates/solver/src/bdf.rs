//! Backward differentiation formulas (the stiff half of LSODA).
//!
//! BDF-q in Nordsieck form, stepped the way LSODE (Hindmarsh's ODEPACK)
//! steps it. The history is the array
//!
//! `z = [y, h·y′, h²·y″/2!, …, h^q·y⁽q⁾/q!]`
//!
//! A step predicts with the Pascal-triangle product and then corrects
//! every column along BDF-q's vector `l` (normalised to `l₁ = 1`):
//! `zⱼ += lⱼ·e`. The correction `e` solves
//!
//! `h·f(t₊, z₀ + l₀·e) = z₁ + e`
//!
//! by a modified Newton iteration on `P = I − h·l₀·J`. `l₀` is BDF-q's
//! `b` (1, 2/3, 6/11, …).
//!
//! **Changing h keeps the order.** Scaling column j by `rʲ` puts the
//! history on the grid of step `r·h`. A rejection, a Newton failure, a
//! step change and a clip to `tend` therefore all keep the order. Every
//! q + 1 steps, h and q are chosen from the error estimates at orders
//! q − 1, q and q + 1, with LSODE's safety factors 1.3, 1.2 and 1.4.
//! After an error-test failure h is cut by the same rule at order q or
//! q − 1. A Newton failure cuts it by 4. Only a third error-test failure
//! in one step restarts at order 1 (LSODE: the history's derivatives are
//! then assumed to be wrong).
//!
//! **J is held; P is refactored from it.** The paper calls a
//! solver-internal Jacobian "usually very expensive" (§3.2.1) and credits
//! a smaller one with a quadratic-to-cubic saving (§2.3). So the cache
//! keeps the values of J and refactors P from them without an RHS call:
//!
//! * P is refactored when h·l₀ has moved by more than `CCMAX` = 30 % from
//!   the value it was factored at, or `MSBP` = 20 steps after the last
//!   factorization (LSODE's rule). While P is stale, each Newton
//!   correction is scaled by `2/(1 + rc)`, `rc` being that ratio;
//! * J is refreshed after `MSBJ` = 50 steps (VODE's rule), or when Newton
//!   fails to converge with a J that was not evaluated for this step.
//!   The step is then retried from its predictor. A failure with a
//!   current J cuts h instead.
//!
//! A refresh differences at the predictor, whose RHS value the first
//! Newton iteration needs anyway, so it costs one call per colour group.
//!
//! Both costs follow the system's structural pattern
//! ([`OdeSystem::sparsity`]), not its dimension:
//!
//! * the finite-difference Jacobian perturbs one *colour group* of
//!   columns per RHS call — χ calls per refresh instead of n (χ = 3 for a
//!   tridiagonal stencil) — and holds only pattern entries, so
//!   `I − h·l₀·J` is assembled in O(nnz);
//! * the factorization and every Newton solve run over the pattern's
//!   bandwidths `(kl, ku)` ([`crate::linalg`]).
//!
//! A system that reports no pattern gets [`Sparsity::dense`]: n singleton
//! colour groups and bandwidth `(n−1, n−1)` through the same code — the
//! classical n-RHS-call sweep and O(n³) LU are the degenerate case, not a
//! second path. Such a system may also supply J through
//! [`OdeSystem::jacobian`], which is held and reused the same way.
//!
//! **Structure changes the cost, never a digit.** A row's value depends
//! only on the columns in its pattern, and no two columns of a colour
//! group share a row, so a grouped perturbation hands each entry
//! `(f⁺ᵢ − f⁰ᵢ)/δⱼ` exactly the operands the one-column sweep would;
//! entries off the pattern are exactly 0 either way; and the band-limited
//! elimination skips only identity operations (see [`crate::linalg`]).
//! Step-size control, Newton counts and every printed digit are therefore
//! those of the dense path.

use crate::linalg::LuFactors;
use crate::ode::{
    check_finite, eval_rhs, obs_count, obs_step, OdeSystem, Solution, SolveError, SolveStats,
    Tolerances,
};
use crate::sparsity::Sparsity;
use std::sync::Arc;

/// LSODE's `CCMAX`: P is refactored once `|h·l₀ / (h·l₀)_P − 1|` exceeds
/// this.
const CCMAX: f64 = 0.3;
/// LSODE's `MSBP`: P is refactored at least this often, in steps.
const MSBP: usize = 20;
/// VODE's `MSBJ`: J is refreshed at least this often, in steps.
const MSBJ: usize = 50;
/// LSODE's `MXNCF`: Newton failures allowed within one step.
const MXNCF: usize = 10;

/// BDF driver options.
#[derive(Clone, Copy, Debug)]
pub struct BdfOptions {
    pub tol: Tolerances,
    /// Maximum order (1..=5).
    pub max_order: usize,
    /// Maximum Newton iterations per step attempt.
    pub max_newton: usize,
}

impl Default for BdfOptions {
    fn default() -> Self {
        BdfOptions {
            tol: Tolerances::default(),
            max_order: 5,
            // LSODE's MAXCOR.
            max_newton: 3,
        }
    }
}

/// Integrate a (possibly stiff) system with variable-step, variable-order
/// BDF.
pub fn bdf(
    sys: &mut dyn OdeSystem,
    t0: f64,
    y0: &[f64],
    tend: f64,
    opts: &BdfOptions,
) -> Result<Solution, SolveError> {
    let mut stats = SolveStats::default();
    let mut stepper = BdfStepper::new(sys, t0, y0, tend, opts, &mut stats)?;
    sys.accepted(t0, y0);
    stepper.integrate(sys, tend, &mut stats)?;
    Ok(Solution::new(stepper.t, stepper.z.swap_remove(0), stats))
}

/// BDF-q's coefficients in LSODE's normalisation (`cfode`, method 2).
#[derive(Clone, Copy, Debug)]
struct Coeffs {
    /// The Nordsieck correction vector, `l₁ = 1`; `l₀` is BDF-q's `b`.
    l: [f64; 6],
    /// Error-estimate divisors for orders q − 1, q and q + 1.
    tq: [f64; 3],
}

impl Coeffs {
    /// `l` is the coefficient list of `Π_{i=1..q} (x + i)`, divided by its
    /// linear coefficient.
    fn bdf(q: usize) -> Coeffs {
        let mut pc = [0.0; 6];
        pc[0] = 1.0;
        // 1/(q − 1)!
        let mut rq1fac = 1.0;
        for nq in 1..=q {
            let fnq = nq as f64;
            for i in (1..=nq).rev() {
                pc[i] = pc[i - 1] + fnq * pc[i];
            }
            pc[0] *= fnq;
            if nq < q {
                rq1fac /= fnq;
            }
        }
        let mut l = [0.0; 6];
        for (l, c) in l.iter_mut().zip(&pc).take(q + 1) {
            *l = c / pc[1];
        }
        l[1] = 1.0;
        let l0 = l[0];
        Coeffs {
            l,
            tq: [rq1fac, (q + 1) as f64 / l0, (q + 2) as f64 / l0],
        }
    }
}

/// How one step attempt's Newton iteration ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Newton {
    Converged,
    /// Did not converge with a Jacobian evaluated for this step.
    Failed,
}

/// A BDF integration in progress: the Nordsieck history, the step and
/// order the controller chose, and the held Jacobian. [`bdf`] runs one
/// from `t0` to `tend`. [`crate::lsoda`] resumes one across consecutive
/// stiff windows, so a window does not start over at order 1 with a new
/// Jacobian.
pub(crate) struct BdfStepper {
    tol: Tolerances,
    max_order: usize,
    max_newton: usize,
    t: f64,
    h: f64,
    /// The step the controller chose before a clip to `tend` shortened
    /// the last one; the next [`BdfStepper::integrate`] restores it.
    clipped_from: Option<f64>,
    q: usize,
    coeffs: [Coeffs; 5],
    /// Nordsieck columns `0..=max_order`; `0..=q` are in use.
    z: Vec<Vec<f64>>,
    /// `z[..=q]` before the attempt's prediction.
    z_start: Vec<Vec<f64>>,
    /// The Newton correction `e`.
    acor: Vec<f64>,
    /// The correction of the step before an order decision, for the
    /// order-(q + 1) estimate.
    acor_prev: Vec<f64>,
    y: Vec<f64>,
    f: Vec<f64>,
    del: Vec<f64>,
    jac: JacCache,
    /// Steps left before the controller may change h or q (LSODE's
    /// `IALTH`).
    hold: usize,
    /// Largest growth factor of the next step change.
    rmax: f64,
    /// Newton convergence-rate estimate (LSODE's `CRATE`).
    crate_: f64,
    /// Accepted steps since the stepper started.
    nst: usize,
}

impl BdfStepper {
    /// Order 1 at `(t0, y0)`, with the first step `tol.h0` or a
    /// thousandth of `[t0, tend]`. Costs one RHS call, for `h·y′`.
    pub(crate) fn new(
        sys: &mut dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        tend: f64,
        opts: &BdfOptions,
        stats: &mut SolveStats,
    ) -> Result<BdfStepper, SolveError> {
        assert!((1..=5).contains(&opts.max_order));
        assert!(opts.max_newton >= 1);
        let n = sys.dim();
        let z = vec![vec![0.0; n]; opts.max_order + 1];
        let mut stepper = BdfStepper {
            tol: opts.tol,
            max_order: opts.max_order,
            max_newton: opts.max_newton,
            t: t0,
            h: 0.0,
            clipped_from: None,
            q: 1,
            coeffs: std::array::from_fn(|k| Coeffs::bdf(k + 1)),
            z_start: z.clone(),
            z,
            acor: vec![0.0; n],
            acor_prev: vec![0.0; n],
            y: vec![0.0; n],
            f: vec![0.0; n],
            del: vec![0.0; n],
            jac: JacCache::new(sys),
            hold: 2,
            rmax: 1e4,
            crate_: 0.7,
            nst: 0,
        };
        stepper.restart(sys, t0, y0, tend, stats)?;
        Ok(stepper)
    }

    /// Start over as [`BdfStepper::new`] would, at `(t0, y0)` toward
    /// `tend`, in the buffers this stepper already holds: the history
    /// restarts at order 1 and the Jacobian is due before the first step.
    /// [`crate::lsoda`] restarts its one stepper on each return to BDF.
    pub(crate) fn restart(
        &mut self,
        sys: &mut dyn OdeSystem,
        t0: f64,
        y0: &[f64],
        tend: f64,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        assert!(tend > t0, "forward integration only");
        assert_eq!(y0.len(), self.y.len());
        let h = if self.tol.h0 > 0.0 {
            self.tol.h0
        } else {
            (tend - t0) / 1000.0
        };
        self.z.iter_mut().for_each(|col| col.fill(0.0));
        self.z[0].copy_from_slice(y0);
        eval_rhs(sys, t0, y0, &mut self.f, stats)?;
        for (z1, f) in self.z[1].iter_mut().zip(&self.f) {
            *z1 = h * f;
        }
        self.t = t0;
        self.h = h;
        self.clipped_from = None;
        self.q = 1;
        self.hold = 2;
        self.rmax = 1e4;
        self.crate_ = 0.7;
        self.nst = 0;
        self.jac.current = false;
        self.jac.j_step = None;
        self.jac.p = None;
        Ok(())
    }

    /// The current time.
    pub(crate) fn t(&self) -> f64 {
        self.t
    }

    /// The current state.
    pub(crate) fn y(&self) -> &[f64] {
        &self.z[0]
    }

    /// Step to `tend`, reporting every accepted step to the system and
    /// counting the work in `stats`. The last step is clipped to land on
    /// `tend`.
    pub(crate) fn integrate(
        &mut self,
        sys: &mut dyn OdeSystem,
        tend: f64,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        if let Some(h) = self.clipped_from.take() {
            self.rescale(h / self.h);
        }
        while self.t < tend - 1e-14 * tend.abs().max(1.0) {
            self.step(sys, tend, stats)?;
            sys.accepted(self.t, &self.z[0]);
        }
        Ok(())
    }

    /// Move the history onto the grid of step `r·h`.
    fn rescale(&mut self, r: f64) {
        let mut rj = 1.0;
        for col in &mut self.z[1..=self.q] {
            rj *= r;
            col.iter_mut().for_each(|v| *v *= rj);
        }
        self.h *= r;
        self.hold = self.q + 1;
    }

    /// Save `z` as the start of the step, then predict: `z ← z·A`, A the
    /// Pascal triangle.
    fn predict(&mut self) {
        let q = self.q;
        for (s, z) in self.z_start.iter_mut().zip(&self.z).take(q + 1) {
            s.copy_from_slice(z);
        }
        for k in 1..=q {
            for j in q - k..q {
                let (lo, hi) = self.z.split_at_mut(j + 1);
                for (a, b) in lo[j].iter_mut().zip(&hi[0]) {
                    *a += b;
                }
            }
        }
    }

    /// Put `z` back to the start of the step.
    fn retract(&mut self) {
        for (z, s) in self.z.iter_mut().zip(&self.z_start).take(self.q + 1) {
            z.copy_from_slice(s);
        }
    }

    /// Weighted RMS norm, weights from the state at the start of the
    /// step (LSODE's `EWT`).
    fn norm(&self, v: &[f64]) -> f64 {
        self.tol.error_norm(v, &self.z_start[0])
    }

    /// Take one accepted step, clipped to end at or before `tend`.
    fn step(
        &mut self,
        sys: &mut dyn OdeSystem,
        tend: f64,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let n = self.y.len();
        let mut newton_failures = 0;
        let mut error_failures = 0;
        loop {
            let t = self.t;
            if stats.steps + stats.rejected > self.tol.max_steps {
                return Err(SolveError::TooMuchWork {
                    t,
                    steps: self.tol.max_steps,
                });
            }
            if self.h < 1e-14 * t.abs().max(1.0) + 1e-300 {
                return Err(SolveError::StepSizeUnderflow { t });
            }
            self.tol.budget.check(t, stats)?;
            if t + self.h > tend {
                self.clipped_from = Some(self.h);
                self.rescale((tend - t) / self.h);
                self.h = tend - t;
            }

            self.predict();
            let q = self.q;
            let c = self.coeffs[q - 1];
            if self.correct(sys, t + self.h, &c, stats)? == Newton::Failed {
                stats.rejected += 1;
                obs_step("bdf.newton_failure", false, self.h);
                self.retract();
                newton_failures += 1;
                if newton_failures == MXNCF {
                    return Err(SolveError::NewtonFailure { t });
                }
                self.rmax = 2.0;
                self.clipped_from = None;
                self.rescale(0.25);
                continue;
            }

            let dsm = self.norm(&self.acor) / c.tq[1];
            if dsm > 1.0 {
                stats.rejected += 1;
                obs_step("bdf.reject", false, self.h);
                self.retract();
                error_failures += 1;
                self.rmax = 2.0;
                self.clipped_from = None;
                if error_failures >= 3 {
                    // Three failures: the history's derivatives are taken
                    // to be wrong. Restart at order 1 from y′ with h / 10.
                    self.h *= 0.1;
                    self.q = 1;
                    self.hold = 2;
                    eval_rhs(sys, t, &self.z[0], &mut self.f, stats)?;
                    for (z1, f) in self.z[1].iter_mut().zip(&self.f) {
                        *z1 = self.h * f;
                    }
                } else {
                    self.change(dsm, f64::INFINITY, error_failures);
                }
                continue;
            }

            // Accept.
            for (j, lj) in c.l.iter().enumerate().take(q + 1) {
                for (z, a) in self.z[j].iter_mut().zip(&self.acor) {
                    *z += lj * a;
                }
            }
            self.t += self.h;
            self.nst += 1;
            stats.steps += 1;
            obs_step("bdf.reject", true, self.h);
            check_finite(self.t, &self.z[0])?;
            self.hold -= 1;
            if self.hold == 0 {
                let up = if q < self.max_order {
                    for i in 0..n {
                        self.del[i] = self.acor[i] - self.acor_prev[i];
                    }
                    self.norm(&self.del) / c.tq[2]
                } else {
                    f64::INFINITY
                };
                self.change(dsm, up, 0);
            } else if self.hold == 1 && q < self.max_order {
                self.acor_prev.copy_from_slice(&self.acor);
            }
            return Ok(());
        }
    }

    /// LSODE's step and order choice: `dsm` is the order-q error
    /// estimate, `dup` the order-(q + 1) one (∞ = not a candidate), and
    /// `failures` counts this step's error-test failures. The order-(q −
    /// 1) estimate is read off the history's last column.
    fn change(&mut self, dsm: f64, dup: f64, failures: usize) {
        let q = self.q;
        let c = self.coeffs[q - 1];
        let rhsm = 1.0 / (1.2 * dsm.powf(1.0 / (q + 1) as f64) + 1.2e-6);
        let rhup = 1.0 / (1.4 * dup.powf(1.0 / (q + 2) as f64) + 1.4e-6);
        let rhdn = if q > 1 {
            let ddn = self.norm(&self.z[q]) / c.tq[0];
            1.0 / (1.3 * ddn.powf(1.0 / q as f64) + 1.3e-6)
        } else {
            0.0
        };
        let (newq, mut rh) = if rhup > rhsm && rhup > rhdn {
            if rhup < 1.1 {
                self.hold = 3;
                return;
            }
            // The new column h^(q+1)·y⁽q⁺¹⁾/(q+1)! from the last
            // correction.
            let r = c.l[q] / (q + 1) as f64;
            for (z, a) in self.z[q + 1].iter_mut().zip(&self.acor) {
                *z = a * r;
            }
            (q + 1, rhup)
        } else if q == 1 || rhsm >= rhdn {
            (q, rhsm)
        } else {
            (q - 1, if failures > 0 { rhdn.min(1.0) } else { rhdn })
        };
        if failures == 0 && rh < 1.1 {
            self.hold = 3;
            return;
        }
        if failures >= 2 {
            rh = rh.min(0.2);
        }
        rh = rh.min(self.rmax);
        self.q = newq;
        self.rescale(rh);
        if failures == 0 {
            self.rmax = 10.0;
        }
    }

    /// The modified Newton iteration for the correction `acor`, from the
    /// predicted `z`. Refreshes J and refactors P by the reuse rule.
    fn correct(
        &mut self,
        sys: &mut dyn OdeSystem,
        t_new: f64,
        c: &Coeffs,
        stats: &mut SolveStats,
    ) -> Result<Newton, SolveError> {
        let n = self.y.len();
        let h = self.h;
        let hb = h * c.l[0];
        let conit = 0.5 / (self.q + 2) as f64;
        let mut refresh = self.jac.j_due(self.nst);
        loop {
            self.y.copy_from_slice(&self.z[0]);
            eval_rhs(sys, t_new, &self.y, &mut self.f, stats)?;
            if refresh {
                self.jac
                    .refresh(sys, t_new, &self.y, &self.f, self.nst, stats)?;
                self.crate_ = 0.7;
            }
            if self.jac.p_due(hb, self.nst) {
                self.jac.factor(hb, self.nst, t_new, stats)?;
                self.crate_ = 0.7;
            }
            let rc = hb / self.jac.hb_p();
            let scale = 2.0 / (1.0 + rc);
            self.acor.fill(0.0);
            let mut delp = 0.0;
            let mut m = 0;
            loop {
                stats.newton_iters += 1;
                obs_count("solver.newton_iters");
                for i in 0..n {
                    self.del[i] = h * self.f[i] - (self.z[1][i] + self.acor[i]);
                }
                self.jac.lu.solve_in_place(&mut self.del);
                if rc != 1.0 {
                    self.del.iter_mut().for_each(|d| *d *= scale);
                }
                let del = self.norm(&self.del);
                for i in 0..n {
                    self.acor[i] += self.del[i];
                    self.y[i] = self.z[0][i] + c.l[0] * self.acor[i];
                }
                if m > 0 {
                    self.crate_ = (0.2 * self.crate_).max(del / delp);
                }
                let dcon = del * (1.5 * self.crate_).min(1.0) / (c.tq[1] * conit);
                if dcon <= 1.0 {
                    self.jac.current = false;
                    return Ok(Newton::Converged);
                }
                m += 1;
                if m == self.max_newton || (m >= 2 && del > 2.0 * delp) {
                    break;
                }
                delp = del;
                eval_rhs(sys, t_new, &self.y, &mut self.f, stats)?;
            }
            if self.jac.current {
                return Ok(Newton::Failed);
            }
            // Failed with a J from an earlier step: refresh it at the
            // predictor and try again.
            refresh = true;
        }
    }
}

/// The Newton iteration matrix `P = I − h·l₀·J`, LU-factored in band
/// storage, the values of J it was assembled from, and the pattern that
/// shapes both. One per [`BdfStepper`]; a refresh or a factorization
/// reuses every buffer.
struct JacCache {
    sparsity: Arc<Sparsity>,
    lu: LuFactors,
    /// ∂f/∂y at the last refresh: row-major `n²` when it came from
    /// [`OdeSystem::jacobian`], else the pattern's entries in
    /// [`fd_sweep`] order.
    held: Vec<f64>,
    /// Whether to ask [`OdeSystem::jacobian`] first: only a system that
    /// reports no pattern (whose matrix is `n²` anyway) is asked; one that
    /// reports a pattern is differenced along it.
    ask_analytic: bool,
    /// Whether `held` is the analytic matrix.
    analytic: bool,
    /// Whether J was evaluated for the step being attempted.
    current: bool,
    /// Accepted-step count at the last refresh; `None` before the first.
    j_step: Option<usize>,
    /// `(h·l₀, accepted-step count)` at the last factorization; `None`
    /// while there is none.
    p: Option<(f64, usize)>,
    yp: Vec<f64>,
    fp: Vec<f64>,
}

impl JacCache {
    fn new(sys: &mut dyn OdeSystem) -> JacCache {
        let n = sys.dim();
        let reported = sys.sparsity();
        let ask_analytic = reported.is_none();
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
            held: vec![0.0; sparsity.nnz()],
            sparsity,
            ask_analytic,
            analytic: false,
            current: false,
            j_step: None,
            p: None,
            yp: vec![0.0; n],
            fp: vec![0.0; n],
        }
    }

    /// Whether J must be refreshed before a step `nst` steps in.
    fn j_due(&self, nst: usize) -> bool {
        self.j_step.is_none_or(|at| nst >= at + MSBJ)
    }

    /// Whether P must be refactored before a Newton solve at `hb`.
    fn p_due(&self, hb: f64, nst: usize) -> bool {
        self.p
            .is_none_or(|(hb_p, at)| (hb / hb_p - 1.0).abs() > CCMAX || nst >= at + MSBP)
    }

    /// The `h·l₀` P was factored at.
    fn hb_p(&self) -> f64 {
        self.p.map_or(f64::NAN, |(hb, _)| hb)
    }

    /// Evaluate J at `(t, y)`, where `f0 = f(t, y)`, and mark P stale.
    fn refresh(
        &mut self,
        sys: &mut dyn OdeSystem,
        t: f64,
        y: &[f64],
        f0: &[f64],
        nst: usize,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let _span = om_obs::span("bdf.jacobian", "solver");
        let JacCache {
            sparsity,
            held,
            ask_analytic,
            analytic,
            yp,
            fp,
            ..
        } = self;
        *analytic = *ask_analytic && sys.jacobian(t, y, held);
        if !*analytic {
            let mut k = 0;
            fd_sweep(sys, t, y, sparsity, f0, [yp, fp], stats, |_, _, d| {
                held[k] = d;
                k += 1;
            })?;
        }
        stats.jac_evals += 1;
        obs_count("solver.jac_evals");
        self.current = true;
        self.j_step = Some(nst);
        self.p = None;
        Ok(())
    }

    /// Assemble `I − hb·J` from the held J and factor it.
    fn factor(
        &mut self,
        hb: f64,
        nst: usize,
        t: f64,
        stats: &mut SolveStats,
    ) -> Result<(), SolveError> {
        let _span = om_obs::span("bdf.lu", "solver");
        let JacCache {
            sparsity,
            lu,
            held,
            analytic,
            p,
            ..
        } = self;
        *p = None;
        let n = sparsity.dim();
        lu.clear();
        if *analytic {
            for (i, row) in held.chunks_exact(n).enumerate() {
                for (j, &d) in row.iter().enumerate() {
                    *lu.entry_mut(i, j) = -hb * d;
                }
            }
        } else {
            let mut values = held.iter();
            for group in sparsity.groups() {
                for &col in group {
                    for (&row, &d) in sparsity.col_rows(col).iter().zip(&mut values) {
                        *lu.entry_mut(row, col) = -hb * d;
                    }
                }
            }
        }
        for i in 0..n {
            *lu.entry_mut(i, i) += 1.0;
        }
        lu.factor_in_place()
            .map_err(|_| SolveError::SingularJacobian { t })?;
        stats.lu_factorizations += 1;
        obs_count("solver.lu_factorizations");
        *p = Some((hb, nst));
        Ok(())
    }
}

/// Finite differences along `pattern`, one RHS call per colour group,
/// from the base value `f0 = f(t, y)`: the columns of a group share no
/// row, so `entry(i, j, (f⁺ᵢ − f0ᵢ)/δⱼ)` sees exactly the operands a
/// one-column perturbation would give it. `[yp, fp]` are length-`n`
/// scratch.
#[allow(clippy::too_many_arguments)]
fn fd_sweep(
    sys: &mut dyn OdeSystem,
    t: f64,
    y: &[f64],
    pattern: &Sparsity,
    f0: &[f64],
    [yp, fp]: [&mut Vec<f64>; 2],
    stats: &mut SolveStats,
    mut entry: impl FnMut(usize, usize, f64),
) -> Result<(), SolveError> {
    let dy = |col: usize| 1e-8 * y[col].abs().max(1e-8);
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
    let mut stats = SolveStats::default();
    eval_rhs(sys, t, y, &mut f0, &mut stats)?;
    fd_sweep(
        sys,
        t,
        y,
        pattern,
        &f0,
        [&mut yp, &mut fp],
        &mut stats,
        |row, col, d| jac[row * n + col] = d,
    )?;
    Ok(jac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::{FnSystem, Recorder};

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
        // Long enough for several Jacobian refreshes under the reuse rule.
        let run = |structured: bool| {
            let mut sys = Recorder::new(Stencil::new(n, structured));
            let y0 = sys.sys.y0();
            let sol = bdf(&mut sys, 0.0, &y0, 0.5, &BdfOptions::default()).unwrap();
            (sol, sys)
        };
        let ((dense, dense_run), (banded, banded_run)) = (run(false), run(true));
        let bits = |run: &Recorder<Stencil>| -> Vec<Vec<u64>> {
            run.ys
                .iter()
                .map(|y| y.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&banded_run), bits(&dense_run));
        assert_eq!(banded_run.ts, dense_run.ts);
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

    /// y′ = −k·y with `k` settable between steps.
    fn switchable(k: std::rc::Rc<std::cell::Cell<f64>>) -> impl OdeSystem {
        FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| {
            d[0] = -k.get() * y[0]
        })
    }

    /// A stepper on the 24-cell stencil, `steps` accepted steps in.
    fn stencil_stepper(steps: usize) -> (Stencil, BdfStepper, SolveStats) {
        let mut sys = Stencil::new(24, true);
        let y0 = sys.y0();
        let mut stats = SolveStats::default();
        let mut stepper =
            BdfStepper::new(&mut sys, 0.0, &y0, 1.0, &BdfOptions::default(), &mut stats).unwrap();
        for _ in 0..steps {
            stepper.step(&mut sys, 1.0, &mut stats).unwrap();
        }
        (sys, stepper, stats)
    }

    #[test]
    fn coefficients_are_the_bdf_b_and_lsode_error_constants() {
        let b = [1.0, 2.0 / 3.0, 6.0 / 11.0, 12.0 / 25.0, 60.0 / 137.0];
        for (q, b) in (1..=5).zip(b) {
            let c = Coeffs::bdf(q);
            assert!((c.l[0] - b).abs() < 1e-15, "q = {q}");
            assert_eq!(c.l[1], 1.0);
            assert!(c.l[q + 1..].iter().all(|&l| l == 0.0));
            assert_eq!(c.tq[1], (q + 1) as f64 / c.l[0]);
        }
        // (x + 1)(x + 2) = 2 + 3x + x²: l = (2/3, 1, 1/3).
        assert!((Coeffs::bdf(2).l[2] - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(Coeffs::bdf(4).tq[0], 1.0 / 6.0);
    }

    #[test]
    fn an_hb_change_inside_ccmax_neither_calls_the_rhs_nor_factors() {
        let (mut sys, mut stepper, mut stats) = stencil_stepper(4);
        assert!(stepper.q > 1);
        for r in [1.25, 0.75] {
            let before = stats;
            stepper.rescale(r);
            stepper.step(&mut sys, 1.0, &mut stats).unwrap();
            assert_eq!(stats.rejected, before.rejected);
            assert_eq!(stats.lu_factorizations, before.lu_factorizations, "r = {r}");
            assert_eq!(stats.jac_evals, before.jac_evals);
            assert_eq!(
                stats.rhs_calls - before.rhs_calls,
                stats.newton_iters - before.newton_iters
            );
        }
    }

    #[test]
    fn an_hb_change_outside_ccmax_refactors_from_the_held_j_without_an_rhs_call() {
        let (mut sys, mut stepper, mut stats) = stencil_stepper(4);
        let before = stats;
        stepper.rescale(0.5);
        stepper.step(&mut sys, 1.0, &mut stats).unwrap();
        assert_eq!(stats.rejected, before.rejected);
        assert_eq!(stats.lu_factorizations, before.lu_factorizations + 1);
        assert_eq!(stats.jac_evals, before.jac_evals);
        assert_eq!(
            stats.rhs_calls - before.rhs_calls,
            stats.newton_iters - before.newton_iters
        );

        // The refactored P is the one a fresh evaluation would give.
        let y = sys.y0();
        let mut f0 = vec![0.0; y.len()];
        let mut fresh = || {
            let mut jac = JacCache::new(&mut sys);
            let mut stats = SolveStats::default();
            sys.rhs(0.0, &y, &mut f0);
            jac.refresh(&mut sys, 0.0, &y, &f0, 0, &mut stats).unwrap();
            jac
        };
        let (mut held, mut refreshed) = (fresh(), fresh());
        let mut stats = SolveStats::default();
        held.factor(0.01, 0, 0.0, &mut stats).unwrap();
        held.factor(0.02, 0, 0.0, &mut stats).unwrap();
        refreshed.factor(0.02, 0, 0.0, &mut stats).unwrap();
        assert_eq!(stats.rhs_calls, 0);
        let solve = |jac: &JacCache| {
            let mut b: Vec<f64> = (0..24).map(|i| (i as f64).cos()).collect();
            jac.lu.solve_in_place(&mut b);
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(solve(&held), solve(&refreshed));
    }

    #[test]
    fn the_reuse_rule_uses_the_published_constants() {
        let mut sys = Stencil::new(5, true);
        let mut jac = JacCache::new(&mut sys);
        assert!(jac.j_due(0) && jac.p_due(0.01, 0));
        let y = sys.y0();
        let mut f0 = vec![0.0; 5];
        sys.rhs(0.0, &y, &mut f0);
        let mut stats = SolveStats::default();
        jac.refresh(&mut sys, 0.0, &y, &f0, 7, &mut stats).unwrap();
        jac.factor(0.01, 7, 0.0, &mut stats).unwrap();
        assert!(!jac.j_due(7 + MSBJ - 1) && jac.j_due(7 + MSBJ));
        for hb in [0.0071, 0.01, 0.0129] {
            assert!(!jac.p_due(hb, 7 + MSBP - 1), "{hb}");
        }
        assert!(jac.p_due(0.0069, 7) && jac.p_due(0.0131, 7) && jac.p_due(0.01, 7 + MSBP));
    }

    #[test]
    fn a_newton_failure_with_a_stale_j_refreshes_j_once_before_h_is_cut() {
        let k = std::rc::Rc::new(std::cell::Cell::new(1.0));
        let mut sys = switchable(k.clone());
        let mut stats = SolveStats::default();
        let opts = BdfOptions::default();
        let mut stepper = BdfStepper::new(&mut sys, 0.0, &[1.0], 10.0, &opts, &mut stats).unwrap();
        for _ in 0..6 {
            stepper.step(&mut sys, 10.0, &mut stats).unwrap();
        }
        // J held from k = 1; the system turns stiff under it.
        k.set(1e5);
        assert!(!stepper.jac.j_due(stepper.nst));
        let (h, q, before) = (stepper.h, stepper.q, stats);
        stepper.predict();
        let c = stepper.coeffs[q - 1];
        let t_new = stepper.t + h;
        let outcome = stepper.correct(&mut sys, t_new, &c, &mut stats).unwrap();
        assert_eq!(outcome, Newton::Converged);
        assert_eq!(stats.jac_evals, before.jac_evals + 1);
        assert_eq!(stepper.h, h);

        // With the J just evaluated, a failure is reported, for the step
        // to cut h: one iteration is not enough from a bad predictor.
        stepper.retract();
        stepper.max_newton = 1;
        stepper.z[0][0] += 1.0;
        stepper.jac.current = true;
        stepper.predict();
        let before = stats;
        let outcome = stepper.correct(&mut sys, t_new, &c, &mut stats).unwrap();
        assert_eq!(outcome, Newton::Failed);
        assert_eq!(stats.jac_evals, before.jac_evals);
    }

    #[test]
    fn a_rejected_step_keeps_its_order() {
        let (mut sys, mut stepper, mut stats) = stencil_stepper(30);
        let q = stepper.q;
        assert!(q >= 3, "order {q}");
        let before = stats;
        stepper.rescale(6.0);
        stepper.step(&mut sys, 1.0, &mut stats).unwrap();
        assert!(stats.rejected > before.rejected, "{stats:?}");
        assert!(stepper.q + 1 >= q, "order {q} → {}", stepper.q);
        assert!(stepper.q > 1);
    }

    /// LSODA restarts its one stepper on each return to the stiff phase:
    /// a stepper 30 steps in (order ≥ 3, a held J, a factored P) must
    /// restart as exactly the stepper `new` builds.
    #[test]
    fn a_restarted_stepper_is_bitwise_a_new_one() {
        let (mut sys, mut used, _) = stencil_stepper(30);
        assert!(used.q >= 3 && used.jac.p.is_some());
        let y1: Vec<f64> = sys.y0().iter().map(|v| 0.5 * v - 0.1).collect();
        let (t1, t2) = (0.25, 0.75);
        let opts = BdfOptions::default();
        let run = |stepper: &mut BdfStepper, sys: &mut Stencil, mut stats: SolveStats| {
            let mut points = Vec::new();
            while stepper.t() < t2 - 1e-14 {
                stepper.step(sys, t2, &mut stats).unwrap();
                points.push((
                    stepper.t().to_bits(),
                    stepper.y().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                ));
            }
            (points, stats)
        };
        let mut stats = SolveStats::default();
        let mut fresh = BdfStepper::new(&mut sys, t1, &y1, t2, &opts, &mut stats).unwrap();
        let fresh_run = run(&mut fresh, &mut sys, stats);
        let mut stats = SolveStats::default();
        used.restart(&mut sys, t1, &y1, t2, &mut stats).unwrap();
        let restarted_run = run(&mut used, &mut sys, stats);
        assert!(fresh_run.0.len() > 10 && fresh_run.1.jac_evals > 0);
        assert_eq!(restarted_run, fresh_run);
    }

    #[test]
    fn an_analytic_jacobian_is_held_and_reused() {
        struct Linear {
            calls: usize,
        }
        impl OdeSystem for Linear {
            fn dim(&self) -> usize {
                2
            }
            fn rhs(&mut self, _t: f64, y: &[f64], d: &mut [f64]) {
                d[0] = -500.0 * y[0] + 499.0 * y[1];
                d[1] = 499.0 * y[0] - 500.0 * y[1];
            }
            fn jacobian(&mut self, _t: f64, _y: &[f64], j: &mut [f64]) -> bool {
                self.calls += 1;
                j.copy_from_slice(&[-500.0, 499.0, 499.0, -500.0]);
                true
            }
        }
        let mut sys = Linear { calls: 0 };
        let stats = bdf(&mut sys, 0.0, &[2.0, 0.0], 1.0, &BdfOptions::default())
            .unwrap()
            .stats;
        assert_eq!(sys.calls, stats.jac_evals);
        assert!(stats.jac_evals * 10 < stats.steps, "{stats:?}");
        assert!(stats.lu_factorizations < stats.steps, "{stats:?}");
        // No finite differences: the start's y′ and one call per Newton
        // iteration.
        assert_eq!(stats.rhs_calls, 1 + stats.newton_iters);
    }
}
