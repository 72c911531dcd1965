//! # om-runtime — the parallel runtime system
//!
//! Reproduces the runtime of paper §3.2 (Figure 10): a *supervisor*
//! (the ODE solver process) farms the equation-level tasks of the
//! generated `RHS` out to *workers*, gathers the derivative values, and
//! re-balances the schedule semi-dynamically from measured task times.
//!
//! Two execution substrates:
//!
//! * [`pool`] — the one real-thread executor: the supervisor works as
//!   worker 0 beside `n - 1` helper threads over per-task dependency
//!   counters and per-worker deques, seeded from the static LPT
//!   assignment, with idle workers stealing. Its recovery ladder: dead
//!   workers are respawned (bounded retries),
//!   hung workers are written off and their work replayed on survivors,
//!   and a fully failed pool degrades to sequential in-supervisor
//!   evaluation. [`fault`] provides the deterministic fault-injection
//!   plan used by the chaos tests, and [`error`] the typed failure
//!   taxonomy.
//! * [`sim`] — a deterministic machine model that *computes* the time one
//!   RHS call takes on a parametrized machine (per-message latency,
//!   bandwidth, flop rate, core count, time-sharing). This replaces the
//!   paper's Parsytec GC/PP and SPARCcenter 2000 hardware; see
//!   [`machine`] for the calibrated presets and DESIGN.md for the
//!   substitution argument.
//!
//! [`pipeline`] implements the paper's §2.1 pipeline parallelism between
//! equation subsystems: stages on separate threads, continuously passing
//! state snapshots downstream.
//!
//! [`sched_dyn`] implements the semi-dynamic LPT rescheduler ("we are
//! using the elapsed times for right-hand side evaluations during the
//! previous iteration step to predict the execution times during the
//! next step", §3.2.3) and tracks its own overhead, which experiment E6
//! compares against the paper's <1 % claim.

pub mod ensemble;
pub mod error;
pub mod fault;
pub mod machine;
pub mod pipeline;
pub mod pool;
pub mod rhs;
pub mod sched_dyn;
pub mod serve;
pub mod sim;
pub mod strategy;

pub use ensemble::{
    run_sweep, Manifest, ScenarioFault, ScenarioOutcome, ScenarioRunConfig, ScenarioSpec,
    SweepConfig, SweepError, SweepFaultKind, SweepFaultPlan, SweepReport, SweepResult,
};
pub use error::RuntimeError;
pub use fault::{Fault, FaultConfig, FaultKind, FaultPlan, RecoveryStats};
pub use machine::MachineSpec;
pub use pipeline::{run_pipeline, PipelineCoupling, PipelineResult, PipelineStage};
pub use pool::ExecutorPool;
pub use rhs::{model_sparsity, ModelSystem, ParallelRhs};
pub use sched_dyn::{SemiDynamicScheduler, RESCHED_EVERY};
pub use serve::{ServeConfig, Server};
pub use sim::{simulate_rhs_time, SimBreakdown};
pub use strategy::Strategy;
