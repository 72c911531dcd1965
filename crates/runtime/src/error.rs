//! Typed runtime errors.
//!
//! Every failure the runtime can hit — a worker pool with no live workers
//! left, a poisoned channel, a pipeline stage panicking, invalid
//! configuration — is represented here instead of a `panic!`/`expect`.
//! Solver failures travel through [`RuntimeError::Solve`]; the reverse
//! direction (the pool failing *inside* a solver step) travels through
//! [`om_solver::RhsError`] via the [`From`] impl below, so a dying pool
//! surfaces as `SolveError::RhsFailure` instead of aborting the process.

use om_solver::SolveError;
use std::fmt;

/// Runtime failure modes.
#[derive(Clone, Debug, PartialEq)]
pub enum RuntimeError {
    /// A state or derivative vector had the wrong length.
    DimensionMismatch { expected: usize, got: usize },
    /// Every worker is permanently failed and sequential fallback is
    /// disabled.
    PoolExhausted { workers: usize },
    /// The OS refused to spawn (or respawn) a worker thread.
    SpawnFailed { worker: usize, reason: String },
    /// A channel the runtime relies on disconnected unexpectedly.
    ChannelClosed { what: &'static str },
    /// A pipeline stage thread panicked.
    StagePanicked { stage: String },
    /// Invalid runtime configuration (bad worker count, assignment, …).
    InvalidConfig { reason: String },
    /// A pipeline coupling was malformed (upstream edge, bad index, …).
    InvalidCoupling { reason: String },
    /// A solver error propagated out of a runtime component.
    Solve(SolveError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            RuntimeError::PoolExhausted { workers } => {
                write!(
                    f,
                    "worker pool exhausted: all {workers} workers permanently failed \
                     and sequential fallback is disabled"
                )
            }
            RuntimeError::SpawnFailed { worker, reason } => {
                write!(f, "failed to spawn worker {worker}: {reason}")
            }
            RuntimeError::ChannelClosed { what } => {
                write!(f, "channel closed unexpectedly: {what}")
            }
            RuntimeError::StagePanicked { stage } => {
                write!(f, "pipeline stage '{stage}' panicked")
            }
            RuntimeError::InvalidConfig { reason } => {
                write!(f, "invalid runtime configuration: {reason}")
            }
            RuntimeError::InvalidCoupling { reason } => {
                write!(f, "invalid pipeline coupling: {reason}")
            }
            RuntimeError::Solve(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<SolveError> for RuntimeError {
    fn from(e: SolveError) -> Self {
        RuntimeError::Solve(e)
    }
}

impl From<RuntimeError> for om_solver::RhsError {
    fn from(e: RuntimeError) -> Self {
        om_solver::RhsError::new(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = RuntimeError::PoolExhausted { workers: 4 };
        assert!(e.to_string().contains("all 4 workers"));
        let e = RuntimeError::Solve(SolveError::StepSizeUnderflow { t: 1.5 });
        assert!(e.to_string().contains("t = 1.5"));
    }

    #[test]
    fn converts_into_rhs_error() {
        let rhs: om_solver::RhsError = RuntimeError::ChannelClosed {
            what: "worker results",
        }
        .into();
        assert!(rhs.reason.contains("worker results"));
    }
}
