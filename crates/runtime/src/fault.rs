//! Deterministic fault injection and recovery accounting.
//!
//! A [`FaultPlan`] is a set of one-shot faults, each addressed to a
//! (call, task): the pool's k-th RHS call (1-based; supervisor-only and
//! seeded calls alike) and task j of the graph that call executes,
//! reduced modulo its task count. Whoever claims that task acts the
//! fault out, worker 0 in a supervisor-only call. Arming is a
//! compare-and-swap that records the claimant, so each fault fires
//! exactly once, on the call it names, and a seeded plan replays
//! identically.
//!
//! [`FaultConfig`] holds the supervisor's recovery policy knobs and
//! [`RecoveryStats`] counts what the recovery machinery actually did,
//! mirroring how `SolveStats` exposes solver effort.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{AcqRel, Acquire};
use std::time::Duration;

/// What an injected fault does to the worker that claims its task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The claimant panics before executing the task (killed mid-task).
    Panic,
    /// The claimant stalls at least this long before executing the task;
    /// a helper then stalls until the supervisor takes the task back, so
    /// it trips the task timeout. Worker 0 only sleeps (nobody
    /// supervises the supervisor).
    Straggle(Duration),
    /// The claimant executes the task but never publishes the result.
    DropResult,
    /// The claimant corrupts the first output of the task to NaN.
    CorruptNaN,
}

/// One planned fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// The pool's RHS call, 1-based.
    pub call: u64,
    /// The task of that call's graph, modulo its task count.
    pub task: usize,
    pub kind: FaultKind,
}

/// The claimant of a fault that has not fired.
const UNFIRED: usize = usize::MAX;

/// A deterministic, seedable set of one-shot faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Each fault and the worker that acted it out, or [`UNFIRED`].
    entries: Vec<(Fault, AtomicUsize)>,
}

impl FaultPlan {
    /// A plan with no faults (the default for every pool).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault: whoever claims task `task` of the pool's `call`-th
    /// RHS call acts out `kind`. Two faults that address the same task
    /// of one call fire on successive executions of it (a kill or a
    /// dropped result makes one).
    pub fn inject(mut self, call: u64, task: usize, kind: FaultKind) -> FaultPlan {
        let fault = Fault { call, task, kind };
        self.entries.push((fault, AtomicUsize::new(UNFIRED)));
        self
    }

    /// Convenience: kill whoever claims `task` of `call`.
    pub fn kill(call: u64, task: usize) -> FaultPlan {
        FaultPlan::none().inject(call, task, FaultKind::Panic)
    }

    /// Derive a random-but-reproducible plan from a seed: up to
    /// `max_faults` faults of mixed kinds, each on its own call in
    /// 1..=25 and on a task index below `n_workers`. The same seed
    /// always yields the same plan.
    pub fn from_seed(seed: u64, n_workers: usize, max_faults: usize) -> FaultPlan {
        const CALLS: u64 = 25;
        fn next(state: &mut u64) -> u64 {
            // xorshift64* — tiny, deterministic, good enough for fuzzing.
            let mut x = *state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut plan = FaultPlan::none();
        if n_workers == 0 || max_faults == 0 {
            return plan;
        }
        let n_faults = next(&mut state) % (max_faults.min(CALLS as usize) as u64 + 1);
        for _ in 0..n_faults {
            // One fault per call: each fires whatever the call's task count.
            let mut call = 1 + next(&mut state) % CALLS;
            while plan.faults().any(|f| f.call == call) {
                call = call % CALLS + 1;
            }
            let task = (next(&mut state) % n_workers as u64) as usize;
            let kind = match next(&mut state) % 4 {
                0 => FaultKind::Panic,
                1 => FaultKind::Straggle(Duration::from_millis(1 + next(&mut state) % 40)),
                2 => FaultKind::DropResult,
                _ => FaultKind::CorruptNaN,
            };
            plan = plan.inject(call, task, kind);
        }
        plan
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The planned faults, in plan order.
    pub fn faults(&self) -> impl Iterator<Item = Fault> + '_ {
        self.entries.iter().map(|(fault, _)| *fault)
    }

    /// The worker that acted out the `i`-th fault, once it has fired.
    pub fn claimant(&self, i: usize) -> Option<usize> {
        let by = self.entries.get(i)?.1.load(Acquire);
        (by != UNFIRED).then_some(by)
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        (0..self.len()).filter_map(|i| self.claimant(i)).count()
    }

    /// Called by worker `by` as it executes `task` of the pool's `call`-th
    /// call, whose graph has `n` tasks: the fault to act out, if any.
    /// Each entry fires at most once (CAS on its claimant).
    pub(crate) fn fire(&self, call: u64, task: usize, n: usize, by: usize) -> Option<FaultKind> {
        let (fault, _) = self.entries.iter().find(|(fault, claimant)| {
            let arm = || {
                claimant
                    .compare_exchange(UNFIRED, by, AcqRel, Acquire)
                    .is_ok()
            };
            fault.call == call && fault.task % n == task && arm()
        })?;
        Some(fault.kind)
    }
}

/// Supervisor recovery policy.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// How long the supervisor lets a worker hold a task before treating
    /// the worker as hung.
    pub task_timeout: Duration,
    /// How many times a dead worker slot is respawned before being marked
    /// permanently failed.
    pub max_respawns: usize,
    /// Backoff before the first respawn of a worker; doubles per respawn.
    pub respawn_backoff: Duration,
    /// When every worker is permanently failed, evaluate in the supervisor
    /// thread instead of returning `PoolExhausted`.
    pub sequential_fallback: bool,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            task_timeout: Duration::from_secs(2),
            max_respawns: 2,
            respawn_backoff: Duration::from_millis(2),
            sequential_fallback: true,
        }
    }
}

impl FaultConfig {
    /// How often the supervisor wakes to run liveness checks while waiting
    /// for results. A quarter of the task timeout, clamped to [1, 25] ms.
    pub(crate) fn poll_interval(&self) -> Duration {
        (self.task_timeout / 4)
            .min(Duration::from_millis(25))
            .max(Duration::from_millis(1))
    }
}

/// What the recovery machinery did, cumulatively over the pool's life.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Dead workers respawned as fresh threads.
    pub respawns: usize,
    /// Workers marked permanently failed (respawn budget exhausted or hung).
    pub workers_lost: usize,
    /// Tasks re-executed because their original assignment died or hung.
    pub replayed_tasks: usize,
    /// Timed-out jobs resent to their worker; dropped solo results rerun.
    pub retries: usize,
    /// RHS calls that fell back (fully or partly) to in-supervisor
    /// sequential evaluation.
    pub degraded_calls: usize,
    /// Non-finite worker outputs repaired by deterministic recomputation.
    pub nan_repairs: usize,
    /// Results discarded because they arrived from a superseded job or a
    /// previous worker incarnation.
    pub stale_results: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_exactly_once() {
        let plan = FaultPlan::kill(3, 1);
        assert_eq!(plan.fire(2, 1, 2, 0), None, "wrong call never fires");
        assert_eq!(plan.fire(3, 0, 2, 0), None, "wrong task never fires");
        assert_eq!(plan.claimant(0), None);
        assert_eq!(plan.fire(3, 1, 2, 1), Some(FaultKind::Panic));
        assert_eq!(plan.fire(3, 1, 2, 0), None, "one-shot: never refires");
        assert_eq!((plan.fired(), plan.claimant(0)), (1, Some(1)));
    }

    #[test]
    fn a_task_index_is_reduced_modulo_the_calls_task_count() {
        let plan = FaultPlan::none()
            .inject(1, 3, FaultKind::CorruptNaN)
            .inject(1, 3, FaultKind::DropResult);
        // A one-task (supervisor-only) call: every index names its task,
        // and a second fault on it fires on the next execution.
        assert_eq!(plan.fire(1, 0, 1, 0), Some(FaultKind::CorruptNaN));
        assert_eq!(plan.fire(1, 0, 1, 2), Some(FaultKind::DropResult));
        assert_eq!(plan.fire(1, 0, 1, 0), None);
        assert_eq!((plan.claimant(0), plan.claimant(1)), (Some(0), Some(2)));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::from_seed(42, 4, 6);
        let b = FaultPlan::from_seed(42, 4, 6);
        assert_eq!(
            a.faults().collect::<Vec<_>>(),
            b.faults().collect::<Vec<_>>()
        );
        for f in a.faults() {
            assert!(f.task < 4);
            assert!((1..=25).contains(&f.call));
        }
        let mut calls: Vec<u64> = a.faults().map(|f| f.call).collect();
        calls.sort_unstable();
        calls.dedup();
        assert_eq!(calls.len(), a.len(), "one fault per call");
        assert!(a.len() <= 6);
        // Different seeds should (almost always) differ in some way; check
        // a handful to make sure the generator isn't constant.
        let distinct: std::collections::HashSet<usize> = (0..16)
            .map(|s| FaultPlan::from_seed(s, 4, 6).len())
            .collect();
        assert!(distinct.len() > 1);
        // More faults than calls: one per call, at most.
        assert!((0..64).all(|s| FaultPlan::from_seed(s, 2, 100).len() <= 25));
    }

    #[test]
    fn default_config_is_sane() {
        let c = FaultConfig::default();
        assert!(c.task_timeout >= Duration::from_millis(100));
        assert!(c.poll_interval() <= Duration::from_millis(25));
        assert!(c.poll_interval() >= Duration::from_millis(1));
        assert!(c.sequential_fallback);
    }
}
