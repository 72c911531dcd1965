//! # om-codegen — the parallelizing code generator
//!
//! The reproduction of ObjectMath 4.0's code generator (paper §3, Figure
//! 9). From the ODE internal form it produces a *task graph* ready for
//! the parallel runtime, plus textual Fortran 90 and C++ renderings of
//! the same computation:
//!
//! * [`dag`] — hash-consed expression DAG; structural sharing is what
//!   makes common-subexpression elimination a lookup rather than a
//!   search,
//! * [`cse`] — common-subexpression elimination with per-task and global
//!   modes (the two modes whose code-size difference §3.3 reports),
//! * [`task`] — task partitioning: one task per equation right-hand
//!   side, merging of small tasks, splitting of large ones, optional
//!   extraction of shared subexpressions into their own tasks (the
//!   paper's future-work item), and the placement pass fusing each
//!   worker's share into one cluster,
//! * [`sched`] — largest-processing-time (LPT) static scheduling and
//!   dependency-aware list scheduling,
//! * [`comm`] — communication analysis: which state variables each
//!   worker needs, message sizes for whole-state vs composed messages,
//! * [`bytecode`] / [`vm`] — a register bytecode and its interpreter;
//!   this is the executable target standing in for compiled Fortran (see
//!   DESIGN.md substitutions),
//! * [`emit_fortran`] / [`emit_cpp`] — textual emitters reproducing the
//!   `RHS(workerid, yin, yout)` SPMD code of Figure 11,
//! * [`generator`] — the orchestrating [`generator::CodeGenerator`] with
//!   the options table the experiments ablate.

pub mod bytecode;
pub mod comm;
pub mod cse;
pub mod dag;
pub mod emit_cpp;
pub mod emit_fortran;
pub mod generator;
pub mod registry;
pub mod sched;
pub mod task;
pub mod vm;

pub use bytecode::{Instr, Program};
pub use cse::{CseMode, CseProgram};
pub use dag::{Dag, NodeId};
pub use generator::{CodeGenerator, GenOptions, GenStats, ParallelProgram, Placement, TaskCosts};
pub use registry::{fnv1a64, CompiledModel, ModelKey, ModelRegistry, RegistryError};
pub use sched::{list_schedule, list_schedule_from, lpt, lpt_from, Schedule};
pub use task::{BatchScratch, CompiledTask, OutSlot, TaskGraph};
pub use vm::{execute, execute_batch, LANE_CHUNK};
