//! The scenario-worker pool: a fixed set of threads pulling work items
//! from one shared queue. It is the only place scenarios run, and the
//! only parallelism an ensemble has: each scenario integrates in the
//! thread that took it, never on an executor pool of its own.
//!
//! `omc serve` keeps one for the whole service and multiplexes the
//! scenarios of many concurrent requests onto it; [`run_sweep`] opens a
//! transient one per invocation, submits every admitted item up front and
//! reads replies until the channel closes. Both submit the same
//! [`WorkItem`]s — scalar scenarios or SoA batches — each tagged with a
//! reply channel, so results route back to their submitter regardless of
//! interleaving, one reply per item. Execution goes through the one
//! scenario envelope (`run_scenario` / `run_scenario_batch`), which is
//! what makes serve responses byte-identical to sweep manifest rows.
//!
//! The pool holds one thread-level policy: only workers `0..active` take
//! jobs ([`ScenarioPool::set_active`], the sweep's deadline shedding).
//! Admission, checkpointing and quotas belong to the callers.
//!
//! [`run_sweep`]: crate::ensemble::run_sweep

use super::batch::run_scenario_batch;
use super::scenario::{run_scenario, ScenarioOutcome, ScenarioRunConfig};
use super::{SweepFaultPlan, WorkItem};
use crate::pool::lock;
use om_codegen::registry::CompiledModel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// One scenario's result: `(index, outcome, wall latency ns)`.
pub(crate) type ScenarioReply = (usize, ScenarioOutcome, u64);

/// A work item plus everything a worker needs to execute and route it.
pub(crate) struct Job {
    pub model: Arc<CompiledModel>,
    pub item: WorkItem,
    pub run: ScenarioRunConfig,
    pub faults: Arc<SweepFaultPlan>,
    /// The item's results, in lane order.
    pub reply: mpsc::Sender<Vec<ScenarioReply>>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Workers `0..active` take jobs; the rest wait.
    active: AtomicUsize,
    /// Jobs each worker has taken.
    taken: Vec<AtomicU64>,
}

/// The pool. Dropping it shuts the workers down (idempotent with an
/// explicit [`ScenarioPool::shutdown`]).
pub(crate) struct ScenarioPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ScenarioPool {
    /// Spawn `threads` scenario workers.
    pub(crate) fn new(threads: usize) -> ScenarioPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(threads),
            taken: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let mut handles = Vec::with_capacity(threads);
        for wid in 0..threads {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("om-scenario-{wid}"));
            match builder.spawn(move || worker_loop(wid, &shared)) {
                Ok(handle) => handles.push(handle),
                // A failed spawn degrades capacity, it does not kill the
                // pool; callers read the live count from threads().
                Err(e) => eprintln!("warning: scenario worker {wid} failed to spawn: {e}"),
            }
        }
        ScenarioPool { shared, handles }
    }

    /// Worker threads actually running.
    pub(crate) fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Workers allowed to take jobs.
    pub(crate) fn active(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Let only workers `0..k` take jobs; a job already running finishes.
    pub(crate) fn set_active(&self, k: usize) {
        self.shared.active.store(k, Ordering::Relaxed);
        let _queue = lock(&self.shared.queue);
        self.shared.available.notify_all();
    }

    /// Enqueue one job and wake a worker that may take it.
    pub(crate) fn submit(&self, job: Job) {
        let mut queue = lock(&self.shared.queue);
        queue.push_back(job);
        drop(queue);
        if self.active() < self.shared.taken.len() {
            // A woken worker past `active` would swallow the wake-up.
            self.shared.available.notify_all();
        } else {
            self.shared.available.notify_one();
        }
    }

    /// Drop every job still queued; their reply senders close with them.
    pub(crate) fn drop_queued(&self) {
        let queued = std::mem::take(&mut *lock(&self.shared.queue));
        drop(queued);
    }

    /// Stop accepting work and join every worker. Jobs still queued are
    /// dropped — their reply channels disconnect, which the submitter
    /// observes as a hangup (drain callers must only call this once
    /// in-flight requests have finished).
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        drop(lock(&self.shared.queue));
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                eprintln!("warning: scenario worker thread died unexpectedly");
            }
        }
        self.drop_queued();
    }

    /// Jobs each worker has taken, by worker index.
    #[cfg(test)]
    fn jobs_taken(&self) -> Vec<u64> {
        let taken = &self.shared.taken;
        taken.iter().map(|n| n.load(Ordering::Relaxed)).collect()
    }
}

impl Drop for ScenarioPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(wid: usize, shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if wid < shared.active.load(Ordering::Relaxed) {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                }
                queue = match shared.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        shared.taken[wid].fetch_add(1, Ordering::Relaxed);
        // A disconnected reply channel (submitter gone) drops this
        // item's results only.
        let _ = job.reply.send(execute(&job));
    }
}

/// Run one job through the scenario envelope.
fn execute(job: &Job) -> Vec<ScenarioReply> {
    let model = &job.model;
    match &job.item {
        WorkItem::Single(spec) => {
            let begun = Instant::now();
            let fault = job.faults.get(spec.index);
            let outcome = run_scenario(model, spec, fault, &job.run);
            vec![(spec.index, outcome, begun.elapsed().as_nanos() as u64)]
        }
        WorkItem::Batch(specs) => {
            let begun = Instant::now();
            let outcomes = run_scenario_batch(model, specs, &job.faults, &job.run);
            // The batch's wall time was shared by all lanes; attribute
            // an even share to each.
            let per_lane = begun.elapsed().as_nanos() as u64 / specs.len().max(1) as u64;
            outcomes
                .into_iter()
                .map(|(index, outcome)| (index, outcome, per_lane))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{pack_work_items, ScenarioSpec};

    const OSC: &str = "model Osc;
        Real x(start=1.0); Real y;
        equation der(x) = y; der(y) = -x; end Osc;";

    fn quick_run() -> ScenarioRunConfig {
        ScenarioRunConfig {
            tend: 0.2,
            h: 0.01,
            ..ScenarioRunConfig::default()
        }
    }

    fn submit_all(
        pool: &ScenarioPool,
        model: &Arc<CompiledModel>,
        specs: Vec<ScenarioSpec>,
        batch: usize,
    ) -> Vec<ScenarioReply> {
        let n = specs.len();
        let (tx, rx) = mpsc::channel();
        let faults = Arc::new(SweepFaultPlan::none());
        for item in pack_work_items(specs.into(), batch, &faults) {
            pool.submit(Job {
                model: Arc::clone(model),
                item,
                run: quick_run(),
                faults: Arc::clone(&faults),
                reply: tx.clone(),
            });
        }
        drop(tx);
        let mut replies: Vec<ScenarioReply> = rx.iter().flatten().collect();
        assert_eq!(replies.len(), n, "every scenario must reply");
        replies.sort_by_key(|(i, _, _)| *i);
        replies
    }

    fn osc_specs(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + 0.05 * i as f64)]))
            .collect()
    }

    #[test]
    fn pool_outcomes_match_direct_execution_bitwise() {
        let model = Arc::new(CompiledModel::compile(OSC).unwrap());
        let pool = ScenarioPool::new(3);
        let specs: Vec<ScenarioSpec> = (0..9)
            .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + 0.05 * i as f64)]))
            .collect();
        let scalar = submit_all(&pool, &model, specs.clone(), 1);
        let batched = submit_all(&pool, &model, specs.clone(), 4);
        for (i, spec) in specs.iter().enumerate() {
            let oracle = run_scenario(&model, spec, None, &quick_run());
            assert_eq!(scalar[i].1, oracle, "scalar scenario {i}");
            assert_eq!(batched[i].1, oracle, "batched scenario {i}");
        }
    }

    #[test]
    fn after_shedding_to_one_only_worker_zero_takes_jobs() {
        let model = Arc::new(CompiledModel::compile(OSC).unwrap());
        let pool = ScenarioPool::new(4);
        submit_all(&pool, &model, osc_specs(8), 1);
        let before = pool.jobs_taken();
        pool.set_active(1);
        assert_eq!(pool.active(), 1);
        submit_all(&pool, &model, osc_specs(12), 1);
        let after = pool.jobs_taken();
        assert_eq!(after[0] - before[0], 12, "{before:?} -> {after:?}");
        assert_eq!(&after[1..], &before[1..], "shed workers took jobs");
    }

    #[test]
    fn interleaved_requests_route_to_their_own_channels() {
        let model = Arc::new(CompiledModel::compile(OSC).unwrap());
        let pool = Arc::new(ScenarioPool::new(2));
        let mut joins = Vec::new();
        for r in 0..4usize {
            let pool = Arc::clone(&pool);
            let model = Arc::clone(&model);
            joins.push(std::thread::spawn(move || {
                let specs: Vec<ScenarioSpec> = (0..5)
                    .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + r as f64 + i as f64)]))
                    .collect();
                let replies = submit_all(&pool, &model, specs, 2);
                replies.iter().map(|(i, _, _)| *i).collect::<Vec<_>>()
            }));
        }
        for join in joins {
            let indices = join.join().unwrap();
            assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn shutdown_joins_workers() {
        let mut pool = ScenarioPool::new(4);
        assert_eq!(pool.threads(), 4);
        pool.shutdown();
        assert_eq!(pool.threads(), 0);
        // Idempotent (and Drop runs it again harmlessly).
        pool.shutdown();
    }
}
