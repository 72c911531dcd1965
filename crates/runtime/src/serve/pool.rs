//! The resident scenario-worker pool: a fixed set of threads pulling
//! work items from one shared queue, multiplexing scenarios from many
//! concurrent requests.
//!
//! Unlike the per-sweep pool inside [`crate::ensemble::run_sweep`]
//! (spawned and joined per invocation), these workers live for the
//! whole service. A request is decomposed into the same
//! [`WorkItem`](crate::ensemble::WorkItem)s the sweep driver packs —
//! scalar scenarios or SoA batches — each tagged with a reply channel,
//! so outcomes route back to the submitting connection regardless of
//! interleaving. Execution goes through the *identical* scenario
//! envelope (`run_scenario` / `run_scenario_batch`), which is what
//! makes serve responses byte-identical to sweep manifest rows.

use crate::ensemble::batch::run_scenario_batch;
use crate::ensemble::scenario::{run_scenario, ScenarioOutcome, ScenarioRunConfig, Substrate};
use crate::ensemble::{scenario_pool, SweepFaultPlan, WorkItem};
use crate::pool::lock;
use crate::strategy::Strategy;
use om_codegen::registry::CompiledModel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// One scenario's result routed back to its request: `(index, outcome,
/// wall latency ns)`.
pub(crate) type ScenarioReply = (usize, ScenarioOutcome, u64);

/// A work item plus everything a worker needs to execute and route it.
pub(crate) struct Job {
    pub model: Arc<CompiledModel>,
    pub item: WorkItem,
    pub run: ScenarioRunConfig,
    /// ODE workers per scenario; > 1 builds a scenario-private executor
    /// pool for this job (costly — serve requests default to 1).
    pub workers: usize,
    pub strategy: Strategy,
    pub reply: mpsc::Sender<ScenarioReply>,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Jobs whose scenario-private executor pool could not be built and
    /// that ran on the serial substrate instead.
    build_fallbacks: AtomicU64,
}

/// The resident pool. Dropping it shuts the workers down (idempotent
/// with an explicit [`ScenarioPool::shutdown`]).
pub(crate) struct ScenarioPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ScenarioPool {
    /// Spawn `threads` resident scenario workers.
    pub(crate) fn new(threads: usize) -> ScenarioPool {
        let shared = Arc::new(Shared::default());
        let mut handles = Vec::with_capacity(threads.max(1));
        for wid in 0..threads.max(1) {
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("om-serve-{wid}"));
            match builder.spawn(move || worker_loop(&shared)) {
                Ok(handle) => handles.push(handle),
                // A failed spawn degrades capacity, it does not kill the
                // service; with zero workers submit() still delivers
                // (jobs just wait forever), so keep at least the loop
                // thread-count honest by reporting via handles.len().
                Err(e) => eprintln!("warning: serve worker {wid} failed to spawn: {e}"),
            }
        }
        ScenarioPool { shared, handles }
    }

    /// Worker threads actually running.
    pub(crate) fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Jobs that fell back to the serial substrate because their
    /// executor pool could not be built (`serve.pool_build_fallback`).
    pub(crate) fn build_fallbacks(&self) -> u64 {
        self.shared.build_fallbacks.load(Ordering::Relaxed)
    }

    /// Enqueue one job. Wakes one idle worker.
    pub(crate) fn submit(&self, job: Job) {
        let mut queue = lock(&self.shared.queue);
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }

    /// Stop accepting work and join every worker. Jobs still queued are
    /// dropped — their reply channels disconnect, which the submitting
    /// request observes as a hangup (drain callers must only call this
    /// once in-flight requests have finished).
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                eprintln!("warning: serve worker thread died unexpectedly");
            }
        }
    }
}

impl Drop for ScenarioPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = match shared.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        execute(job, shared);
    }
}

/// Run one job through the exact sweep scenario envelope and route the
/// outcomes to its request. A disconnected reply channel (client gone)
/// silently drops the remaining outcomes of this job only.
fn execute(job: Job, shared: &Shared) {
    let Job {
        model,
        item,
        run,
        workers,
        strategy,
        reply,
    } = job;
    // Serve requests carry no fault injection; the plan exists so the
    // batch path can reuse the sweep packer/runner verbatim.
    let faults = SweepFaultPlan::none();
    match item {
        WorkItem::Single(spec) => {
            // A scenario-private pool per job when the request asked for
            // intra-scenario workers. Construction failure falls back to
            // the serial substrate — bitwise identical by the substrate
            // identity invariant, so the outcome is unaffected — and is
            // counted, so the fallback is visible in `op:"stats"`.
            let mut pool = if workers > 1 {
                let built = scenario_pool(&model, workers, strategy);
                if built.is_err() {
                    shared.build_fallbacks.fetch_add(1, Ordering::Relaxed);
                    om_obs::metrics().counter("serve.pool_build_fallback").inc();
                }
                built.ok()
            } else {
                None
            };
            let mut substrate = match pool.as_mut() {
                Some(p) => Substrate::Pool(p),
                None => Substrate::serial(model.graph()),
            };
            let begun = Instant::now();
            let outcome = run_scenario(&model, &spec, None, &run, &mut substrate);
            let _ = reply.send((spec.index, outcome, begun.elapsed().as_nanos() as u64));
        }
        WorkItem::Batch(specs) => {
            let begun = Instant::now();
            let outcomes = run_scenario_batch(&model, &specs, &faults, &run);
            let per_lane = begun.elapsed().as_nanos() as u64 / specs.len().max(1) as u64;
            for (index, outcome) in outcomes {
                if reply.send((index, outcome, per_lane)).is_err() {
                    return;
                }
            }
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
        for item in pack_work_items(specs.into(), batch, &SweepFaultPlan::none()) {
            pool.submit(Job {
                model: Arc::clone(model),
                item,
                run: quick_run(),
                workers: 1,
                strategy: Strategy::Barrier,
                reply: tx.clone(),
            });
        }
        drop(tx);
        let mut replies: Vec<ScenarioReply> = rx.iter().collect();
        assert_eq!(replies.len(), n, "every scenario must reply");
        replies.sort_by_key(|(i, _, _)| *i);
        replies
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
            let mut substrate = Substrate::serial(model.graph());
            let oracle = run_scenario(&model, spec, None, &quick_run(), &mut substrate);
            assert_eq!(scalar[i].1, oracle, "scalar scenario {i}");
            assert_eq!(batched[i].1, oracle, "batched scenario {i}");
        }
    }

    #[test]
    fn unbuildable_executor_pool_falls_back_to_serial_and_is_counted() {
        let model = Arc::new(CompiledModel::compile(OSC).unwrap());
        let pool = ScenarioPool::new(1);
        let spec = ScenarioSpec::new(0, vec![("x".into(), 1.5)]);
        let (tx, rx) = mpsc::channel();
        pool.submit(Job {
            model: Arc::clone(&model),
            item: WorkItem::Single(spec.clone()),
            run: quick_run(),
            // More workers than a claim word can name: build refuses.
            workers: (1 << 16) + 1,
            strategy: Strategy::WorkStealing,
            reply: tx,
        });
        let (_, outcome, _) = rx.recv().unwrap();
        let mut substrate = Substrate::serial(model.graph());
        let oracle = run_scenario(&model, &spec, None, &quick_run(), &mut substrate);
        assert_eq!(outcome, oracle);
        assert_eq!(pool.build_fallbacks(), 1);
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
