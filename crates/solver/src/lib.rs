//! # om-solver — numerical ODE solvers
//!
//! The reproduction of the solver layer the paper takes from ODEPACK
//! (§3.2.1): "We have used a solver named LSODA … one of the solvers
//! which implements BDF (backward differentiation formulas) methods,
//! which are usually used to solve stiff ODEs." LSODA couples an Adams
//! predictor-corrector (non-stiff) with BDF (stiff) and switches
//! automatically; this crate implements both families, the switching
//! driver, explicit Runge-Kutta methods, the band-limited linear algebra
//! the implicit methods need, and a partitioned co-simulation driver for
//! the equation-system-level parallelism experiments:
//!
//! * [`ode`] — the [`ode::OdeSystem`] trait (`ẏ = f(y, t)`, optional
//!   user-supplied Jacobian and structural pattern, and the `accepted`
//!   step hook), the end-point [`ode::Solution`] and statistics types,
//!   and the [`ode::Recorder`] that keeps a trajectory for callers that
//!   want one,
//! * [`sparsity`] — structural Jacobian patterns: column colouring and
//!   bandwidths derived once, shared by the differencing and the LU,
//! * [`linalg`] — matrices and one LU with partial pivoting, limited to
//!   the matrix's bandwidth (dense is the full-bandwidth case),
//! * [`rk`] — fixed-step RK4 and adaptive Dormand–Prince 5(4),
//! * [`mod@batch`] — lockstep batched RK4 advancing K ensemble members
//!   per RHS call (structure-of-arrays, bitwise-identical per lane),
//! * [`adams`] — Adams-Bashforth-Moulton PECE predictor-corrector,
//! * [`mod@bdf`] — variable-step, variable-order BDF(1–5) in Nordsieck
//!   form with modified Newton iteration on a held Jacobian,
//! * [`mod@lsoda`] — the stiff/non-stiff auto-switching driver,
//! * [`partitioned`] — co-simulation of independently-stepped subsystems
//!   (paper §2.3: independent step sizes, smaller Jacobians).

// A numerical failure inside one scenario of an ensemble must surface as
// a typed `SolveError`, never a panic that poisons the worker pool
// (matching the `om-ir` precedent).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adams;
pub mod batch;
pub mod bdf;
pub mod linalg;
pub mod lsoda;
pub mod ode;
pub mod partitioned;
pub mod rk;
pub mod sparsity;

pub use adams::abm4;
pub use batch::{rk4_batch, BatchSolution, BatchedOdeSystem};
pub use bdf::{bdf, fd_jacobian, BdfOptions};
pub use linalg::{LuFactors, Matrix};
pub use lsoda::{lsoda, LsodaOptions, Phase};
pub use ode::{
    Budget, FnSystem, OdeSystem, Recorder, RhsError, Solution, SolveError, SolveStats, Tolerances,
};
pub use partitioned::{CoSimulation, Coupling, SubsystemSpec};
pub use rk::{dopri5, rk4, rk4_budgeted};
pub use sparsity::Sparsity;
