//! Deterministic fault injection and recovery accounting.
//!
//! A [`FaultPlan`] is a set of one-shot faults, each targeting a specific
//! worker after it has executed a specific number of tasks ("jobs"). The
//! plan is shared between the supervisor and every worker thread; a
//! worker consults [`FaultPlan::fire`] once per task execution and acts out whatever
//! fault it is told to. Because arming is a compare-and-swap on an
//! `AtomicBool`, each fault fires exactly once even across respawns, and
//! because the trigger is "jobs completed by worker w" rather than wall
//! time, a plan built from a seed replays identically.
//!
//! [`FaultConfig`] holds the supervisor's recovery policy knobs and
//! [`RecoveryStats`] counts what the recovery machinery actually did,
//! mirroring how `SolveStats` exposes solver effort.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What an injected fault does to the worker it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread panics before executing the job (killed mid-task).
    Panic,
    /// The worker sleeps for the given duration before executing the job,
    /// long enough to trip the supervisor's task timeout.
    Straggle(Duration),
    /// The worker executes the job but never publishes the result.
    DropResult,
    /// The worker corrupts the first output of the job to NaN.
    CorruptNaN,
}

#[derive(Debug)]
struct FaultEntry {
    worker: usize,
    after_jobs: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

/// A deterministic, seedable set of one-shot faults.
#[derive(Debug, Default)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// A plan with no faults (the default for every pool).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add a fault: `worker` acts out `kind` on its `after_jobs`-th
    /// completed job (1-based; `after_jobs = 1` fires on the first job).
    pub fn push(&mut self, worker: usize, after_jobs: u64, kind: FaultKind) {
        self.entries.push(FaultEntry {
            worker,
            after_jobs,
            kind,
            fired: AtomicBool::new(false),
        });
    }

    /// Builder-style [`push`](FaultPlan::push).
    pub fn inject(mut self, worker: usize, after_jobs: u64, kind: FaultKind) -> FaultPlan {
        self.push(worker, after_jobs, kind);
        self
    }

    /// Convenience: kill `worker` on its `after_jobs`-th job.
    pub fn kill(worker: usize, after_jobs: u64) -> FaultPlan {
        FaultPlan::none().inject(worker, after_jobs, FaultKind::Panic)
    }

    /// Derive a random-but-reproducible plan from a seed: up to
    /// `max_faults` faults of mixed kinds spread over `n_workers` workers,
    /// each firing within the first 25 jobs of its target. The same seed
    /// always yields the same plan.
    pub fn from_seed(seed: u64, n_workers: usize, max_faults: usize) -> FaultPlan {
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
        let n_faults = (next(&mut state) % (max_faults as u64 + 1)) as usize;
        for _ in 0..n_faults {
            let worker = (next(&mut state) % n_workers as u64) as usize;
            let after_jobs = 1 + next(&mut state) % 25;
            let kind = match next(&mut state) % 4 {
                0 => FaultKind::Panic,
                1 => FaultKind::Straggle(Duration::from_millis(1 + next(&mut state) % 40)),
                2 => FaultKind::DropResult,
                _ => FaultKind::CorruptNaN,
            };
            plan.push(worker, after_jobs, kind);
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

    /// How many faults have fired so far.
    pub fn fired(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.fired.load(Ordering::Acquire))
            .count()
    }

    /// Called by worker `worker` after completing `jobs_done` jobs in its
    /// current incarnation; returns the fault to act out, if any. Each
    /// entry fires at most once (CAS on `fired`).
    pub(crate) fn fire(&self, worker: usize, jobs_done: u64) -> Option<FaultKind> {
        for e in &self.entries {
            if e.worker == worker
                && jobs_done >= e.after_jobs
                && e.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(e.kind);
            }
        }
        None
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
    /// Requeue a timed-out task once on the same worker before abandoning it.
    pub retry_before_failing: bool,
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
            retry_before_failing: true,
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
    /// Timed-out jobs resent to their original worker.
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
        let plan = FaultPlan::kill(1, 3);
        assert_eq!(plan.fire(0, 5), None, "wrong worker never fires");
        assert_eq!(plan.fire(1, 2), None, "too early");
        assert_eq!(plan.fire(1, 3), Some(FaultKind::Panic));
        assert_eq!(plan.fire(1, 4), None, "one-shot: never refires");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::from_seed(42, 4, 6);
        let b = FaultPlan::from_seed(42, 4, 6);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.worker, y.worker);
            assert_eq!(x.after_jobs, y.after_jobs);
            assert_eq!(x.kind, y.kind);
            assert!(x.worker < 4);
            assert!((1..=25).contains(&x.after_jobs));
        }
        assert!(a.len() <= 6);
        // Different seeds should (almost always) differ in some way; check
        // a handful to make sure the generator isn't constant.
        let distinct: std::collections::HashSet<usize> = (0..16)
            .map(|s| FaultPlan::from_seed(s, 4, 6).len())
            .collect();
        assert!(distinct.len() > 1);
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
