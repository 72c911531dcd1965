//! # om-ir — the ODE internal form
//!
//! The ObjectMath code generator (paper §3.1) "accepts a list of first
//! order differential equations, where some subexpressions have been
//! annotated by type information. Since the equation part consists of
//! first order differential equations, the left-hand side is always a
//! derivative." This crate produces exactly that internal form from the
//! flattened model:
//!
//! * [`mod@causalize`] — assigns every equation a variable to define
//!   (bipartite matching + symbolic linear solve), turning acausal
//!   equilibrium equations like `F_I + F_E + F_ext = 0` into solved form;
//!   classifies variables into *states* (defined by `der(x) = …`) and
//!   *algebraics*; orders algebraic assignments topologically,
//! * [`system::OdeIr`] — the internal form: state vector layout,
//!   derivative equations, ordered algebraic assignments,
//! * [`verify`] — the "compilable subset verifier" of Figure 9,
//! * [`evalr`] — a tree-walking reference evaluator (`ẏ = f(y, t)`);
//!   everything downstream (bytecode VM, emitted Fortran) must agree
//!   with it,
//! * [`jacobian`] — the structural pattern of ∂f/∂y (the one source the
//!   implicit solver's column colouring and LU bandwidths start from) and
//!   symbolic ∂f/∂y generation along it (the paper's §3.2.1 "extra
//!   function dedicated to computing the Jacobian").

// Malformed models must surface as typed diagnostics, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod causalize;
pub mod evalr;
pub mod jacobian;
pub mod system;
pub mod verify;

pub use causalize::{causalize, CausalizeError};
pub use evalr::IrEvaluator;
pub use system::{AlgebraicEq, DerivEq, Inliner, OdeIr, StateVar};
pub use verify::{verify_all, verify_compilable, VerifyError, Violation};
