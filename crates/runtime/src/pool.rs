//! The executor core: one supervisor/worker pool (paper §3.2, Figure 10).
//!
//! Every task carries an atomic predecessor counter. Completing a task
//! decrements the counter of each successor
//! ([`om_codegen::task::TaskGraph::successors`]); a counter reaching
//! zero makes the successor *ready* and pushes it onto the finishing
//! worker's deque. Workers pop their own deque from the back (LIFO, hot
//! caches) and steal from other workers' fronts (FIFO, oldest first).
//! The static LPT assignment survives as the *initial queue seeding*:
//! ready tasks land on the deque of their assigned worker, cheapest
//! first, so each worker pops its longest task first. This is the pool's
//! one scheduling policy; the paper's level fence (Figure 10) was
//! measured against it and removed (EXPERIMENTS E12b).
//!
//! # Threading model
//!
//! The supervisor thread participates as worker 0; `n_workers - 1`
//! helper threads park on a condvar between RHS calls, and a call wakes
//! them only when its assignment gives a helper a task. A call with every
//! task on worker 0 is *supervisor-only*: it returns early and evaluates
//! the pool's solo graph in thread with the one-lane
//! `TaskGraph::eval_batch`, touching no claim word, deque or helper. The
//! rescheduler ([`ExecutorPool::rebalance`]) charges every helper the
//! measured hand-off as a start load, and seeds one again only when the
//! predicted makespan beats the timed solo call
//! ([`ExecutorPool::rebalance_from_measured`]). The product's pools are
//! *born serial* ([`ExecutorPool::born_serial`]): they hold only the
//! one-cluster placement with global CSE (the code `--workers 1` runs),
//! probe the hand-off once at the first reschedule, and compile the
//! m-worker placement on the first call that seeds a helper. A fault
//! plan changes none of this: a fault names a (call, task), and whoever
//! claims the task acts it out. DESIGN.md ("The executor") has the rules.
//!
//! Synchronisation is std: atomics, `Mutex<VecDeque>` deques, and two
//! condvars (call start, ready work). Within a call an idle worker parks
//! behind a sleeper count, so a waker pays the notify syscall only when
//! somebody is parked. A poisoned lock is recovered with
//! `PoisonError::into_inner`: the guarded data are plain deques and
//! counters that every update leaves valid.
//!
//! # Determinism
//!
//! Every task is a pure function of `(t, y, shared)` and every output
//! slot is written by exactly one task (lint pass OM042), so the result
//! is bitwise-identical regardless of which worker runs which task in
//! which order — or how many times. The required happens-before edges
//! are: a producer's shared-slot `store(Release)` is ordered before its
//! `fetch_sub(AcqRel)` on the successor's predecessor counter; RMW
//! chains on the same counter order *all* producers before the final
//! decrement; the ready push / pop pair synchronises through the deque
//! mutex; and consumers load shared slots with `Acquire`. `om-lint`'s
//! edge-granularity OM040/OM041 passes check the race-freedom argument
//! statically.
//!
//! # Claim words and the recovery ladder
//!
//! Each task has a claim word `call generation · worker · state`. A
//! worker that pops a task stores `RUNNING`; when it has the outputs it
//! compare-exchanges `RUNNING → DONE`, and only the winner publishes
//! outputs, decrements successors and `remaining`. The supervisor can
//! therefore take a task away from a worker at any time by swinging its
//! word back to `READY` and pushing it on another deque: whichever
//! execution finishes first wins the word, the loser's exchange fails
//! (counted as a stale result) and it publishes nothing — in this call
//! or, the generation being part of the word, any later one.
//!
//! Detection is a sweep of the claim table from the supervisor's
//! idle-wait loop, every [`FaultConfig::poll_interval`] and only while
//! a call is actually waiting. The ladder:
//!
//! 1. **respawn** — a helper whose thread has exited is restarted
//!    (bounded, doubling backoff) and the task it held is requeued,
//! 2. **retry** — a task `RUNNING` past `task_timeout` is requeued once
//!    on the same worker (stealable),
//! 3. **reassign** — a worker that times out again, or sits on a retried
//!    task for another timeout, is written off: its deque moves to the
//!    survivors and the assignment is re-balanced over live workers,
//! 4. **degrade** — with zero live workers the supervisor drains the
//!    call itself (or returns [`RuntimeError::PoolExhausted`] when
//!    [`FaultConfig::sequential_fallback`] is off).
//!
//! Non-finite outputs are recomputed by the worker before it claims
//! `DONE`; a genuine blow-up reproduces itself exactly.
//!
//! What this costs a task when nothing fails, over the bare
//! dependency-counter core: a Relaxed store and one AcqRel
//! compare-exchange on the claim word, an emptiness test of the fault
//! plan and a finiteness scan of the task's outputs (the repair is for
//! real corruption too, so it does not hide behind the plan). No lock,
//! allocation or clock read.
//!
//! Worker 0 is the supervisor's own executor role, and the claimant of
//! every supervisor-only call: a `Panic` respawns the role in place (a
//! supervisor-only call reruns in thread) until the budget is spent, then
//! writes it off, and the thread executes tasks again only when nobody
//! else is left; a `DropResult` is retried and a `CorruptNaN` repaired,
//! and a `Straggle` just delays the call (nobody supervises the
//! supervisor).

use crate::error::RuntimeError;
use crate::fault::{FaultConfig, FaultKind, FaultPlan, RecoveryStats};
use crate::strategy::Strategy;
use om_codegen::task::{BatchScratch, OutSlot, TaskGraph};
use om_codegen::Schedule;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker parks before rechecking on its own: the
/// supervisor's sweep clock, and the bound on noticing what nobody
/// notifies (retirement, shutdown).
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Looks `Drop` takes at a helper's join handle, yielding the CPU between
/// them, before it polls at [`IDLE_PARK`]: a parked helper is gone within
/// microseconds of the shutdown notify.
const JOIN_SPINS: usize = 200;

/// Claim states. `READY` is only ever written by the supervisor: the
/// task was taken back from a worker and waits on `worker`'s deque.
const READY: u64 = 0;
const RUNNING: u64 = 1;
const DONE: u64 = 2;
const WORKER_BITS: u32 = 16;

fn claim(call: u64, worker: usize, state: u64) -> u64 {
    call << (WORKER_BITS + 2) | (worker as u64) << 2 | state
}

fn claim_call(word: u64) -> u64 {
    word >> (WORKER_BITS + 2)
}

fn claim_worker(word: u64) -> usize {
    (word >> 2) as usize & ((1 << WORKER_BITS) - 1)
}

fn claim_state(word: u64) -> u64 {
    word & 3
}

/// One hand-off sample from a call that seeded a helper: its wall time
/// less the task time of its busiest helper (`worker_ns`, summed per
/// completing worker; worker 0 is the supervisor, which starts at once
/// and so says nothing about how late a helper starts). A seeded helper
/// that completed none of its tasks (`idle_helper`: the supervisor stole
/// them) had not started by the end of the call, so the sample is the
/// wall time. A call in which no helper ran anything and none was left
/// idle subtracts the supervisor's work. DESIGN.md has the argument.
fn handoff_sample(wall_ns: u64, worker_ns: &[Option<u64>], idle_helper: bool) -> u64 {
    if idle_helper {
        return wall_ns;
    }
    let helpers = worker_ns.iter().skip(1).flatten().copied().max();
    let busiest = helpers.or(worker_ns.first().copied().flatten());
    wall_ns.saturating_sub(busiest.unwrap_or(0))
}

/// The pool's exponentially weighted moving average: the first sample
/// as is, then 0.8 of the old value and 0.2 of the new (paper §3.2.3:
/// previous elapsed times predict the next step).
fn ewma(old: f64, sample: f64) -> f64 {
    if old == 0.0 {
        sample
    } else {
        0.8 * old + 0.2 * sample
    }
}

/// Lock a mutex whose data every update leaves valid, poisoned or not.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the supervisor and the helper threads.
struct Shared {
    graph: Arc<TaskGraph>,
    faults: Arc<FaultPlan>,
    /// `succ[i]` — tasks whose predecessor counter task `i` decrements.
    succ: Vec<Vec<usize>>,
    /// Initial predecessor counts (reset template for `preds`).
    pred_init: Vec<u32>,
    /// Live predecessor counters, reset each call.
    preds: Vec<AtomicU32>,
    /// Per-task claim words (see the module docs).
    claims: Vec<AtomicU64>,
    /// Tasks not yet completed this call; 0 = call complete.
    remaining: AtomicUsize,
    /// Per-worker deques: own end is the back (LIFO), steal end the
    /// front (FIFO).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Shared intermediate slots, written Release / read Acquire.
    shared_vals: Vec<AtomicU64>,
    /// Derivative slots, copied out by the supervisor after completion.
    dydt: Vec<AtomicU64>,
    /// Last per-task elapsed nanoseconds (EWMA-folded by the supervisor).
    timings_ns: Vec<AtomicU64>,
    /// Current `t`, as bits.
    t_bits: AtomicU64,
    /// The pool's RHS call number of the current call (fault addresses).
    rhs_call: AtomicU64,
    /// Current state vector; helpers clone the Arc once per call that
    /// wakes them (a supervisor-only call leaves it stale).
    y: Mutex<Arc<Vec<f64>>>,
    /// Call generation, bumped (Release) *before* the deques are seeded
    /// so a worker that pops a task can detect it belongs to a newer
    /// call than the one it captured `(t, y)` for.
    call_fast: AtomicU64,
    /// Generation of the last call that woke the helpers + their start
    /// condvar.
    call: Mutex<u64>,
    start_cv: Condvar,
    /// Ready-work condvar: notified after a push and when `remaining`
    /// reaches 0 — if `sleepers` says anybody is parked on it.
    idle: Mutex<()>,
    work_cv: Condvar,
    /// Workers inside [`Shared::park`].
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Record fine-grained spans for the current call (detail-sampled).
    detailed: AtomicBool,
    /// Per worker: written off by the supervisor; the thread exits the
    /// next time it finds itself idle.
    retired: Vec<AtomicBool>,
    /// Recovery events observed by workers, folded into
    /// [`RecoveryStats`] by the supervisor at the end of each call.
    nan_repairs: AtomicUsize,
    stale_results: AtomicUsize,
    /// Wake-ups acknowledged by helpers, one per call that woke one, and
    /// the latest of them in ns since `epoch`: the hand-off probe's
    /// answer. A helper stamps before it counts (Release), so a count
    /// loaded Acquire covers its stamp.
    acks: AtomicUsize,
    woke_ns: AtomicU64,
    epoch: Instant,
}

impl Shared {
    /// The call state for executing `graph` on `n` workers, no call
    /// running.
    fn new(graph: Arc<TaskGraph>, n: usize, plan: Arc<FaultPlan>) -> Shared {
        let n_tasks = graph.tasks.len();
        let atomics = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Shared {
            faults: plan,
            succ: graph.successors(),
            pred_init: graph.pred_counts(),
            preds: (0..n_tasks).map(|_| AtomicU32::new(0)).collect(),
            claims: atomics(n_tasks),
            remaining: AtomicUsize::new(0),
            deques: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            shared_vals: atomics(graph.n_shared),
            dydt: atomics(graph.dim),
            timings_ns: atomics(n_tasks),
            t_bits: AtomicU64::new(0),
            rhs_call: AtomicU64::new(0),
            y: Mutex::new(Arc::new(Vec::new())),
            call_fast: AtomicU64::new(0),
            call: Mutex::new(0),
            start_cv: Condvar::new(),
            idle: Mutex::new(()),
            work_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            detailed: AtomicBool::new(false),
            retired: (0..n).map(|_| AtomicBool::new(false)).collect(),
            nan_repairs: AtomicUsize::new(0),
            stale_results: AtomicUsize::new(0),
            acks: AtomicUsize::new(0),
            woke_ns: AtomicU64::new(0),
            epoch: Instant::now(),
            graph,
        }
    }

    /// The tasks a call seeds: those with no predecessor.
    fn roots(&self) -> Vec<usize> {
        (0..self.graph.tasks.len())
            .filter(|&i| self.pred_init[i] == 0)
            .collect()
    }

    /// Stop the helpers serving this call state: they leave their wait
    /// on the start condvar and exit, or move on to the state the pool
    /// swapped in.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Helpers park on the start condvar between calls; taking the
        // lock orders the flag before their next predicate check.
        drop(lock(&self.call));
        self.start_cv.notify_all();
        self.wake();
    }
    /// Next task for worker `w` and the deque it came from: its own
    /// deque's back, else another deque's front, scanning round-robin
    /// from `w + 1`.
    fn take(&self, w: usize) -> Option<(usize, usize)> {
        if let Some(tid) = lock(&self.deques[w]).pop_back() {
            return Some((tid, w));
        }
        let n = self.deques.len();
        (1..n)
            .map(|k| (w + k) % n)
            .find_map(|v| lock(&self.deques[v]).pop_front().map(|tid| (tid, v)))
    }

    fn push(&self, w: usize, tid: usize) {
        lock(&self.deques[w]).push_back(tid);
    }

    /// Return a stale-popped task to the steal end of deque `v`.
    fn unpop(&self, v: usize, tid: usize) {
        lock(&self.deques[v]).push_front(tid);
        self.wake();
    }

    /// Whether [`Shared::take`] could succeed right now, for any worker.
    fn has_work(&self) -> bool {
        self.deques.iter().any(|d| !lock(d).is_empty())
    }

    /// Wake parked workers after a push or a completed call — a syscall
    /// only when somebody is parked. A lone supervisor has nobody to wake.
    fn wake(&self) {
        if self.deques.len() == 1 {
            return;
        }
        // Pairs with the fence in `park`: the waker publishes (push,
        // `remaining` decrement) then reads `sleepers`; the parker counts
        // itself in then looks for what was published. One sees the other.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            // Through the lock, so the notify cannot fall between a
            // parker's last look and its wait.
            drop(lock(&self.idle));
            self.work_cv.notify_all();
        }
    }

    /// Wait for a [`Shared::wake`] unless `ready` already holds, at most
    /// [`IDLE_PARK`].
    fn park(&self, ready: impl Fn() -> bool) {
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let guard = lock(&self.idle);
        if !ready() {
            drop(self.work_cv.wait_timeout(guard, IDLE_PARK));
        }
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-incarnation scratch + cached metric handles for the execute loop.
struct WorkerCtx {
    /// One-lane task scratch, sized as the in-thread placement's is; the
    /// shared slots a task reads are copied into it per task.
    scratch: BatchScratch,
    steals: Arc<om_obs::Counter>,
    ready_pushed: Arc<om_obs::Counter>,
    busy_ns: Arc<om_obs::Counter>,
}

impl WorkerCtx {
    fn new(worker: usize, graph: &TaskGraph) -> WorkerCtx {
        let m = om_obs::metrics();
        WorkerCtx {
            scratch: BatchScratch::new(graph, 1),
            steals: m.counter("runtime.steals"),
            ready_pushed: m.counter("runtime.ready_pushed"),
            // Keyed by worker id (not incarnation) so respawns keep
            // accumulating into the same counter.
            busy_ns: m.counter(&format!("runtime.worker{worker}.busy_ns")),
        }
    }
}

/// What a supervisor-only call evaluates in thread.
struct Solo {
    /// Bitwise the pool's graph (every placement is); normally the
    /// one-cluster placement with global CSE.
    graph: Arc<TaskGraph>,
    scratch: BatchScratch,
    /// EWMA of a supervisor-only call's wall time in ns; 0 until one ran.
    ns: f64,
    /// The fastest supervisor-only call since the last reschedule, in ns
    /// (infinite when none ran): the break-even's solo time, which a
    /// preempted call cannot inflate.
    low: f64,
    /// Each pool task's share of the pool graph's static cost: how a
    /// solo call's time is split into the placed tasks' estimates.
    share: Vec<f64>,
}

impl Solo {
    fn new(graph: Arc<TaskGraph>) -> Solo {
        om_obs::metrics()
            .gauge("runtime.solo_graph_instrs")
            .set(graph.instrs() as f64);
        Solo {
            scratch: BatchScratch::new(&graph, 1),
            share: Solo::shares(&graph),
            graph,
            ns: 0.0,
            low: f64::INFINITY,
        }
    }

    /// Each task of `placed` as a share of its total static cost.
    fn shares(placed: &TaskGraph) -> Vec<f64> {
        let total = placed.total_cost().max(1) as f64;
        placed
            .tasks
            .iter()
            .map(|t| t.static_cost as f64 / total)
            .collect()
    }
}

/// A born-serial pool's m-worker placement, not yet compiled
/// ([`ExecutorPool::born_serial`]).
struct Later {
    /// Compiles the placement, given the solo graph: the placed graph
    /// (maybe the solo graph itself) and its task → worker assignment.
    #[allow(clippy::type_complexity)]
    place: Box<dyn FnOnce(&Arc<TaskGraph>) -> (Arc<TaskGraph>, Vec<usize>) + Send>,
    /// The equation-level static schedule's makespan over its total
    /// load: the share of the solo time the busiest worker of a seeded
    /// call is predicted to take.
    share: f64,
    /// The last reschedule found that a helper pays: the next call
    /// compiles the placement and seeds one.
    seed: bool,
    /// Costs of the placed tasks given to [`ExecutorPool::rebalance`],
    /// to schedule them with once they are compiled.
    costs: Option<Vec<u64>>,
    /// The hand-off probe, once sent: when (ns since the call state's
    /// epoch) and the acknowledgement count that answers it.
    probe: Option<(u64, usize)>,
    /// `runtime.placements_built`, registered at build so `--metrics`
    /// shows a pool that never compiled its placement as 0.
    built: Arc<om_obs::Counter>,
}

/// Supervisor-side view of one worker. Slot 0 is the supervisor's own
/// executor role and never holds a thread.
struct Slot {
    /// `None` for slot 0, and once joined or detached.
    join: Option<JoinHandle<()>>,
    /// Respawns consumed; also the incarnation number in the thread name.
    respawns: usize,
    /// Permanently failed: nothing is seeded or requeued here.
    failed: bool,
}

/// The [`RecoveryStats`] fields, for [`ExecutorPool::note`].
#[derive(Clone, Copy)]
enum Recovered {
    Respawns,
    WorkersLost,
    ReplayedTasks,
    Retries,
    DegradedCalls,
    NanRepairs,
    StaleResults,
}

/// The supervisor-side handle to the pool.
pub struct ExecutorPool {
    shared: Arc<Shared>,
    /// The call state helpers serve: `shared`, read by a helper when it
    /// starts and again when the state it served shuts down, so a
    /// born-serial pool's helpers move on to the placement it compiles.
    door: Arc<Mutex<Arc<Shared>>>,
    /// A born-serial pool's placement while it is not compiled.
    later: Option<Later>,
    /// Wall time of the last call.
    last: Duration,
    slots: Vec<Slot>,
    /// task → preferred worker: the deque each task is seeded on.
    assignment: Vec<usize>,
    /// The tasks with no predecessor, seeded at the start of each call
    /// (reordered longest-last in place).
    roots: Vec<usize>,
    /// EWMA of measured per-task seconds, consumed by the semi-dynamic
    /// rescheduler (paper §3.2.3).
    measured: Vec<f64>,
    /// EWMA of the measured hand-off ([`handoff_sample`]) in ns, which the
    /// rescheduler charges to every helper as a start load.
    handoff_ns: f64,
    /// Per-worker task time of the current call, `None` for a worker
    /// that completed no task (hand-off sampling).
    worker_ns: Vec<Option<u64>>,
    /// Calls that ran every task on worker 0 and woke nobody.
    solo_calls: u64,
    /// RHS calls begun, solo or seeded: the call a fault is addressed to.
    calls: u64,
    solo: Solo,
    fault_config: FaultConfig,
    recovery: RecoveryStats,
    /// Worker-0 context.
    ctx: WorkerCtx,
    /// Sweep state: the claim word last seen per task, and since when.
    watch: Vec<(u64, Instant)>,
    /// Sweep state: the call in which each task was last retried.
    retried: Vec<u64>,
    rhs_calls: Arc<om_obs::Counter>,
    tasks_executed: Arc<om_obs::Counter>,
    solo_counter: Arc<om_obs::Counter>,
    task_seconds: Arc<om_obs::Histogram>,
    live_gauge: Arc<om_obs::Gauge>,
    handoff_gauge: Arc<om_obs::Gauge>,
    /// RHS calls seen, driving the deterministic detail-sampling schedule.
    obs_calls: u64,
}

fn spawn_helper(
    worker: usize,
    incarnation: usize,
    door: &Arc<Mutex<Arc<Shared>>>,
) -> Result<JoinHandle<()>, RuntimeError> {
    let door = Arc::clone(door);
    let join = std::thread::Builder::new()
        .name(format!("om-worker-{worker}.{incarnation}"))
        .spawn(move || helper_main(worker, &door))
        .map_err(|e| RuntimeError::SpawnFailed {
            worker,
            reason: e.to_string(),
        })?;
    om_obs::metrics().counter("runtime.worker_spawns").inc();
    Ok(join)
}

/// Check that `assignment` names a worker of `n_workers` for every task
/// of `graph`.
fn check_assignment(
    graph: &TaskGraph,
    n_workers: usize,
    assignment: &[usize],
) -> Result<(), RuntimeError> {
    if assignment.len() != graph.tasks.len() {
        return Err(RuntimeError::InvalidConfig {
            reason: format!(
                "assignment covers {} tasks but the graph has {}",
                assignment.len(),
                graph.tasks.len()
            ),
        });
    }
    if let Some(&w) = assignment.iter().find(|&&w| w >= n_workers) {
        return Err(RuntimeError::InvalidConfig {
            reason: format!("assignment references worker {w} of {n_workers}"),
        });
    }
    Ok(())
}

impl ExecutorPool {
    /// Build a fault-free pool with `n_workers` total workers (the
    /// supervisor is worker 0, so `n_workers - 1` threads are created).
    ///
    /// The pool has one policy, and either [`Strategy`] value builds it.
    /// The parameter stays only because the frozen benchmark ledger's
    /// traced replay passes both values; the next change to the
    /// benchmark removes it.
    pub fn build(
        graph: TaskGraph,
        n_workers: usize,
        assignment: Vec<usize>,
        _policy: Strategy,
    ) -> Result<ExecutorPool, RuntimeError> {
        ExecutorPool::with_faults(
            graph,
            n_workers,
            assignment,
            FaultPlan::none(),
            FaultConfig::default(),
        )
    }

    /// Build a pool with a fault-injection plan and recovery policy.
    /// Whoever executes a task consults `plan` first.
    pub fn with_faults(
        graph: TaskGraph,
        n_workers: usize,
        assignment: Vec<usize>,
        plan: FaultPlan,
        fault_config: FaultConfig,
    ) -> Result<ExecutorPool, RuntimeError> {
        if !(1..=1 << WORKER_BITS).contains(&n_workers) {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "executor pool needs 1..={} workers, got {n_workers}",
                    1 << WORKER_BITS
                ),
            });
        }
        check_assignment(&graph, n_workers, &assignment)?;
        let graph = Arc::new(graph);
        let n_tasks = graph.tasks.len();
        let plan = Arc::new(plan);
        let shared = Arc::new(Shared::new(Arc::clone(&graph), n_workers, plan));
        let m = om_obs::metrics();
        let mut pool = ExecutorPool {
            slots: Vec::with_capacity(n_workers),
            assignment,
            roots: shared.roots(),
            measured: graph
                .tasks
                .iter()
                .map(|t| t.static_cost as f64 * 1e-9)
                .collect(),
            handoff_ns: 0.0,
            worker_ns: vec![None; n_workers],
            solo_calls: 0,
            calls: 0,
            solo: Solo::new(Arc::clone(&graph)),
            fault_config,
            recovery: RecoveryStats::default(),
            ctx: WorkerCtx::new(0, &graph),
            watch: vec![(0, Instant::now()); n_tasks],
            retried: vec![0; n_tasks],
            rhs_calls: m.counter("runtime.rhs_calls"),
            tasks_executed: m.counter("runtime.tasks_executed"),
            solo_counter: m.counter("runtime.supervisor_only_calls"),
            // 100ns .. ~1s exponential task-time buckets.
            task_seconds: m.histogram(
                "runtime.task_seconds",
                &(0..12).map(|i| 1e-7 * 4f64.powi(i)).collect::<Vec<_>>(),
            ),
            live_gauge: m.gauge("runtime.live_workers"),
            handoff_gauge: m.gauge("runtime.handoff_ns"),
            obs_calls: 0,
            door: Arc::new(Mutex::new(Arc::clone(&shared))),
            later: None,
            last: Duration::ZERO,
            shared,
        };
        // Slots are pushed as their threads start, so an early return
        // drops `pool` and shuts down the helpers already running.
        for w in 0..n_workers {
            let join = match w {
                0 => None,
                _ => Some(spawn_helper(w, 0, &pool.door)?),
            };
            pool.slots.push(Slot {
                join,
                respawns: 0,
                failed: false,
            });
        }
        pool.live_gauge.set(n_workers as f64);
        Ok(pool)
    }

    /// Build a pool that is born serial: every call evaluates `solo` (the
    /// one-cluster placement, global CSE) in thread until a reschedule
    /// finds that a helper pays; only then does `place`, given the solo
    /// graph, compile the `n_workers` placement. `schedule` is the
    /// equation-level static schedule on `n_workers`, whose makespan share
    /// predicts a seeded call. The helpers are spawned here, so a spawn
    /// error fails the build; `plan` and `fault_config` are as for
    /// [`ExecutorPool::with_faults`].
    pub fn born_serial(
        solo: TaskGraph,
        n_workers: usize,
        plan: FaultPlan,
        fault_config: FaultConfig,
        schedule: &Schedule,
        place: impl FnOnce(&Arc<TaskGraph>) -> (Arc<TaskGraph>, Vec<usize>) + Send + 'static,
    ) -> Result<ExecutorPool, RuntimeError> {
        let assignment = vec![0; solo.tasks.len()];
        let mut pool = ExecutorPool::with_faults(solo, n_workers, assignment, plan, fault_config)?;
        let total: u64 = schedule.loads.iter().sum();
        pool.later = Some(Later {
            place: Box::new(place),
            share: match total {
                0 => 1.0,
                _ => schedule.makespan as f64 / total as f64,
            },
            seed: false,
            costs: None,
            probe: None,
            built: om_obs::metrics().counter("runtime.placements_built"),
        });
        Ok(pool)
    }

    /// Compile a born-serial pool's placement and move the helpers to a
    /// call state for it (unless it is the solo graph, which only takes
    /// the new assignment). Each placed task's estimate starts at its
    /// static-cost share of the solo time.
    fn grow(&mut self) -> Result<(), RuntimeError> {
        let Some(later) = self.later.take() else {
            return Ok(());
        };
        let (graph, assignment) = (later.place)(&self.solo.graph);
        let n_workers = self.slots.len();
        if graph.dim != self.shared.graph.dim {
            return Err(RuntimeError::InvalidConfig {
                reason: format!(
                    "placement has dimension {} but the solo graph has {}",
                    graph.dim, self.shared.graph.dim
                ),
            });
        }
        check_assignment(&graph, n_workers, &assignment)?;
        if !Arc::ptr_eq(&graph, &self.shared.graph) {
            let n_tasks = graph.tasks.len();
            let shared = Arc::new(Shared::new(
                Arc::clone(&graph),
                n_workers,
                Arc::clone(&self.shared.faults),
            ));
            for (slot, retired) in self.slots.iter().zip(&shared.retired) {
                retired.store(slot.failed, Ordering::Relaxed);
            }
            *lock(&self.door) = Arc::clone(&shared);
            std::mem::replace(&mut self.shared, shared).shut_down();
            self.roots = self.shared.roots();
            self.ctx = WorkerCtx::new(0, &graph);
            self.watch = vec![(0, Instant::now()); n_tasks];
            self.retried = vec![0; n_tasks];
        }
        self.assignment = assignment;
        self.solo.share = Solo::shares(&graph);
        self.measured = self
            .solo
            .share
            .iter()
            .map(|share| self.solo.ns * 1e-9 * share)
            .collect();
        if let Some(costs) = later.costs {
            self.schedule(&costs);
        }
        later.built.inc();
        Ok(())
    }

    /// The task graph calls that seed a helper execute: a born-serial
    /// pool's solo graph until it has compiled its placement.
    pub fn graph(&self) -> &TaskGraph {
        &self.shared.graph
    }

    /// Number of workers still accepting work.
    pub fn live_workers(&self) -> usize {
        self.slots.iter().filter(|slot| !slot.failed).count()
    }

    /// Current task → worker assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// EWMA of measured per-task times, in seconds.
    pub fn measured(&self) -> &[f64] {
        &self.measured
    }

    /// What the recovery machinery has done over the pool's life.
    pub fn recovery(&self) -> &RecoveryStats {
        &self.recovery
    }

    /// The pool's fault plan: which faults fired, and who claimed them.
    pub fn faults(&self) -> &FaultPlan {
        &self.shared.faults
    }

    /// EWMA of the measured hand-off to a helper, in ns: 0 until a
    /// born-serial pool's probe or a call that seeded a helper measured it.
    pub fn handoff_ns(&self) -> f64 {
        self.handoff_ns
    }

    /// Calls that ran every task on the supervisor and woke no helper.
    pub fn supervisor_only_calls(&self) -> u64 {
        self.solo_calls
    }

    /// The graph supervisor-only calls evaluate in thread.
    pub fn solo_graph(&self) -> &TaskGraph {
        &self.solo.graph
    }

    /// Whether the pool holds its placement: always when built with one,
    /// and for a born-serial pool from the first call that seeded a helper.
    pub fn placed(&self) -> bool {
        self.later.is_none()
    }

    /// Wall time of the last call that succeeded.
    pub fn last_call(&self) -> Duration {
        self.last
    }

    /// Whether the next call is supervisor-only: worker 0 live and every
    /// task assigned to it.
    fn goes_solo(&self) -> bool {
        !self.slots[0].failed && self.assignment.iter().all(|&w| w == 0)
    }

    /// Recompute the assignment from per-task costs over the *live*
    /// workers only (LPT for independent graphs, list scheduling
    /// otherwise). Each helper starts [`ExecutorPool::handoff_ns`] late and
    /// the supervisor at once, so a task goes to a helper only when it
    /// would finish sooner there. `costs` are the placed tasks': a
    /// born-serial pool schedules them once the next call has compiled its
    /// placement, so hand-set costs force a helper into a call.
    pub fn rebalance(&mut self, costs: &[u64]) {
        match &mut self.later {
            Some(later) => {
                later.seed = true;
                later.costs = Some(costs.to_vec());
            }
            None => {
                self.schedule(costs);
            }
        }
    }

    /// [`ExecutorPool::rebalance`], returning the predicted makespan
    /// (`None` when nothing was scheduled).
    fn schedule(&mut self, costs: &[u64]) -> Option<u64> {
        let live: Vec<usize> = (0..self.slots.len())
            .filter(|&w| !self.slots[w].failed)
            .collect();
        let graph = &self.shared.graph;
        if live.is_empty() || costs.len() != graph.tasks.len() {
            return None;
        }
        let _span = om_obs::span("sched.rebalance", "sched");
        let handoff = self.handoff_ns as u64;
        let start: Vec<u64> = live
            .iter()
            .map(|&w| if w == 0 { 0 } else { handoff })
            .collect();
        let sched = if graph.is_independent() {
            om_codegen::lpt_from(costs, &start)
        } else {
            om_codegen::list_schedule_from(costs, &graph.deps, &start)
        };
        self.assignment = sched.assignment.iter().map(|&k| live[k]).collect();
        Some(sched.makespan)
    }

    /// [`ExecutorPool::rebalance`] from the measured task times, the
    /// semi-dynamic rescheduler's step: a schedule that seeds a helper is
    /// kept only when its makespan beats the timed solo call, else every
    /// task goes back to worker 0. While calls run solo, each placed
    /// task's estimate follows the solo time by static-cost share, so a
    /// slower RHS reopens the helper. A born-serial pool that has not
    /// compiled its placement makes one comparison instead (`break_even`).
    pub(crate) fn rebalance_from_measured(&mut self) {
        if self.later.is_some() {
            self.break_even();
            return;
        }
        // Every task is the live supervisor's and the hand-off is no
        // shorter than the solo call: a schedule that seeds a helper ends
        // after the hand-off, so the comparison below would refuse it.
        if self.goes_solo() && self.solo.ns > 0.0 && self.handoff_ns >= self.solo.ns {
            return;
        }
        let costs: Vec<u64> = self
            .measured
            .iter()
            .map(|&s| (s * 1e9).max(1.0) as u64)
            .collect();
        let Some(makespan) = self.schedule(&costs) else {
            return;
        };
        let seeds_helper = self.assignment.iter().any(|&w| w != 0);
        if seeds_helper && self.solo.ns > 0.0 && makespan as f64 >= self.solo.ns {
            self.assignment.fill(0);
        }
    }

    /// Evaluate the parallel RHS, panicking on failure (benchmark and
    /// example convenience).
    pub fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        if let Err(e) = self.try_rhs(t, y, dydt) {
            panic!("executor pool RHS evaluation failed: {e}");
        }
    }

    /// Evaluate the parallel RHS: fills `dydt` (length = ODE dimension),
    /// surviving worker crashes, hangs, lost and corrupted results per
    /// the recovery ladder in the module docs.
    pub fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RuntimeError> {
        let dim = self.shared.graph.dim;
        for got in [y.len(), dydt.len()] {
            if got != dim {
                return Err(RuntimeError::DimensionMismatch { expected: dim, got });
            }
        }
        self.check_live()?;
        let _span = om_obs::span("rhs.eval", "runtime");
        self.rhs_calls.inc();
        self.calls += 1;
        if self.later.as_ref().is_some_and(|later| later.seed) {
            self.grow()?;
        }
        let start = Instant::now();
        if self.goes_solo() && self.solo_call(t, y, dydt, start)? {
            return Ok(());
        }
        let s = Arc::clone(&self.shared);
        // Counted here, once and uncontended, rather than by each worker:
        // a call completes every task exactly once (replays aside).
        self.tasks_executed.add(s.graph.tasks.len() as u64);
        // Fine-grained spans and the task-time histogram are recorded on
        // a deterministic sampling schedule; the always-on signals above
        // keep every call visible at low cost.
        #[allow(clippy::manual_is_multiple_of)] // is_multiple_of is past our 1.85 MSRV
        let detailed =
            om_obs::is_enabled() && self.obs_calls % u64::from(om_obs::detail_every()) == 0;
        self.obs_calls += 1;

        // --- reset per-call state (no worker is active: remaining == 0).
        for (p, &init) in s.preds.iter().zip(&s.pred_init) {
            p.store(init, Ordering::Relaxed);
        }
        for v in &s.shared_vals {
            v.store(0, Ordering::Relaxed);
        }
        s.t_bits.store(t.to_bits(), Ordering::Relaxed);
        s.rhs_call.store(self.calls, Ordering::Relaxed);
        let y = Arc::new(y.to_vec());
        *lock(&s.y) = Arc::clone(&y);
        s.detailed.store(detailed, Ordering::Relaxed);
        s.remaining.store(s.graph.tasks.len(), Ordering::Release);
        // Bump the fast generation *before* seeding so a worker popping a
        // seeded task always observes the new call id.
        let call_id = s.call_fast.fetch_add(1, Ordering::Release) + 1;

        self.seed(&s, detailed);
        if self.slots.len() > 1 {
            *lock(&s.call) = call_id;
            s.start_cv.notify_all();
        }
        self.drain(&s, call_id, t, &y, detailed)?;
        self.sample_handoff(&s, start.elapsed().as_nanos() as u64);

        // --- gather: every derivative slot was written exactly once.
        for (out, slot) in dydt.iter_mut().zip(&s.dydt) {
            *out = f64::from_bits(slot.load(Ordering::Acquire));
        }
        // Fold the workers' timing measurements into the EWMA (paper
        // §3.2.3: previous elapsed times predict the next step).
        for (m, ns) in self.measured.iter_mut().zip(&s.timings_ns) {
            let ns = ns.load(Ordering::Relaxed);
            if ns > 0 {
                let secs = ns as f64 * 1e-9;
                if detailed {
                    self.task_seconds.observe(secs);
                }
                *m = ewma(*m, secs);
            }
        }
        self.fold_events();
        if self.live_workers() == 0 {
            // Failure is permanent, so none left now means the
            // supervisor drained (part of) this call alone.
            om_obs::instant("pool.degraded", "runtime");
            self.note(Recovered::DegradedCalls, 1);
        }
        self.last = start.elapsed();
        Ok(())
    }

    /// A supervisor-only call begun at `start`: the solo graph in this
    /// thread, timed (one clock pair) into the call's wall time, the solo
    /// EWMA and, split by static-cost share, every placed task's
    /// estimate. The call is worker 0's one task, and acts out the faults
    /// it draws (module docs); false when a kill wrote worker 0 off, and
    /// the call is the helpers' to run.
    fn solo_call(
        &mut self,
        t: f64,
        y: &[f64],
        dydt: &mut [f64],
        start: Instant,
    ) -> Result<bool, RuntimeError> {
        loop {
            let fault = self.shared.faults.fire(self.calls, 0, 1, 0);
            if fault == Some(FaultKind::Panic) {
                // Call 0 is no call's: the role holds no claim to replay.
                self.worker_died(&Arc::clone(&self.shared), 0, 0);
                self.note(Recovered::ReplayedTasks, 1);
                if self.slots[0].failed {
                    return self.check_live().map(|()| false);
                }
                continue;
            }
            if let Some(FaultKind::Straggle(delay)) = fault {
                std::thread::sleep(delay);
            }
            let solo = &mut self.solo;
            solo.graph.eval_batch(t, y, dydt, &mut solo.scratch);
            if fault == Some(FaultKind::CorruptNaN) {
                if let Some(first) = dydt.first_mut() {
                    *first = f64::NAN;
                }
                let bad = dydt.iter().filter(|v| !v.is_finite()).count();
                solo.graph.eval_batch(t, y, dydt, &mut solo.scratch);
                self.note(Recovered::NanRepairs, bad);
            }
            if fault != Some(FaultKind::DropResult) {
                break;
            }
            self.note(Recovered::Retries, 1);
        }
        self.last = start.elapsed();
        let ns = self.last.as_nanos() as u64;
        self.solo_calls += 1;
        self.solo_counter.inc();
        self.tasks_executed.add(self.solo.graph.tasks.len() as u64);
        self.ctx.busy_ns.add(ns);
        self.fold_solo(ns as f64);
        self.fold_events();
        Ok(true)
    }

    /// Fold the recovery events workers observed into [`RecoveryStats`]:
    /// this call's, and a straggler's stale result from an earlier one.
    fn fold_events(&mut self) {
        for what in [Recovered::NanRepairs, Recovered::StaleResults] {
            let seen = match what {
                Recovered::NanRepairs => &self.shared.nan_repairs,
                _ => &self.shared.stale_results,
            };
            if seen.load(Ordering::Relaxed) > 0 {
                let n = seen.swap(0, Ordering::Relaxed);
                self.note(what, n);
            }
        }
    }

    /// A born-serial pool's reschedule: a helper pays when the hand-off H
    /// plus the static makespan share of the solo time T beats T, that is
    /// when H is below `(1 − share)·T`. H comes from a one-time
    /// wake/acknowledge probe, sent at the first reschedule: the parked
    /// helpers are woken by a call with no task, and each stamps when it
    /// woke. The supervisor waits for the stamps no longer than that
    /// bound — a later answer cannot make a helper pay — and reads a late
    /// one at a later reschedule.
    fn break_even(&mut self) {
        let Some(later) = &mut self.later else {
            return;
        };
        // No solo call since the last reschedule: nothing to beat.
        let bound = match (1.0 - later.share) * self.solo.low {
            b if b.is_finite() => b,
            _ => 0.0,
        };
        self.solo.low = f64::INFINITY;
        let helpers = (1..self.slots.len())
            .filter(|&w| !self.slots[w].failed)
            .count();
        if self.handoff_ns == 0.0 && helpers > 0 {
            let s = &self.shared;
            let (sent, acks) = *later.probe.get_or_insert_with(|| {
                let acks = s.acks.load(Ordering::Acquire) + helpers;
                let sent = s.epoch.elapsed().as_nanos() as u64;
                // No task is seeded, so `remaining` stays 0 and a woken
                // helper stamps, counts and goes straight back to its wait.
                let call_id = s.call_fast.fetch_add(1, Ordering::Release) + 1;
                *lock(&s.call) = call_id;
                s.start_cv.notify_all();
                (sent, acks)
            });
            let waited = || s.epoch.elapsed().as_nanos() as f64 - sent as f64;
            while s.acks.load(Ordering::Acquire) < acks && waited() < bound {
                std::thread::yield_now();
            }
            if s.acks.load(Ordering::Acquire) >= acks {
                let woke = s.woke_ns.load(Ordering::Relaxed);
                self.handoff_ns = woke.saturating_sub(sent).max(1) as f64;
                self.handoff_gauge.set(self.handoff_ns);
                om_obs::metrics()
                    .gauge("runtime.handoff_probe_ns")
                    .set(self.handoff_ns);
            }
        }
        later.seed = self.handoff_ns > 0.0 && self.handoff_ns < bound;
    }

    fn fold_solo(&mut self, ns: f64) {
        self.solo.low = self.solo.low.min(ns);
        self.solo.ns = ewma(self.solo.ns, ns);
        for (m, share) in self.measured.iter_mut().zip(&self.solo.share) {
            *m = ewma(*m, ns * 1e-9 * share);
        }
    }

    /// Fold one hand-off sample ([`handoff_sample`]) from a call that
    /// seeded a helper into the EWMA.
    fn sample_handoff(&mut self, s: &Shared, wall_ns: u64) {
        self.worker_ns.fill(None);
        for (claim, ns) in s.claims.iter().zip(&s.timings_ns) {
            let w = claim_worker(claim.load(Ordering::Relaxed));
            *self.worker_ns[w].get_or_insert(0) += ns.load(Ordering::Relaxed);
        }
        let idle_helper = self.assignment.iter().any(|&w| {
            let w = self.route(w);
            w != 0 && self.worker_ns[w].is_none()
        });
        let sample = handoff_sample(wall_ns, &self.worker_ns, idle_helper) as f64;
        self.handoff_ns = ewma(self.handoff_ns, sample);
        self.handoff_gauge.set(self.handoff_ns);
    }

    /// Push the root tasks onto their assigned workers' deques, cheapest
    /// first so the LIFO own-end pops the longest task first (LPT order).
    fn seed(&mut self, s: &Shared, detailed: bool) {
        let measured = &self.measured;
        self.roots
            .sort_unstable_by(|&a, &b| measured[a].total_cmp(&measured[b]).then(a.cmp(&b)));
        for &tid in &self.roots {
            s.push(self.route(self.assignment[tid]), tid);
        }
        if detailed {
            om_obs::counter_value("runtime.pending_jobs", self.roots.len() as f64);
        }
    }

    /// `preferred` if live, else the next live worker round-robin, else
    /// 0: with nobody left the supervisor drains the call itself.
    fn route(&self, preferred: usize) -> usize {
        let n = self.slots.len();
        (0..n)
            .map(|k| (preferred + k) % n)
            .find(|&w| !self.slots[w].failed)
            .unwrap_or(0)
    }

    /// Work the call as worker 0 and wait for the helpers until it
    /// completes, sweeping for dead and hung workers every poll interval
    /// spent waiting.
    fn drain(
        &mut self,
        s: &Arc<Shared>,
        call_id: u64,
        t: f64,
        y: &[f64],
        detailed: bool,
    ) -> Result<(), RuntimeError> {
        let poll = self.fault_config.poll_interval();
        let mut next_sweep: Option<Instant> = None;
        loop {
            let works = !self.slots[0].failed || self.live_workers() == 0;
            if works && work_call(0, s, call_id, t, y, &mut self.ctx, detailed) {
                self.worker_died(s, 0, call_id);
                self.check_live()?;
                continue;
            }
            if s.remaining.load(Ordering::Acquire) == 0 {
                return Ok(());
            }
            s.park(|| s.remaining.load(Ordering::Acquire) == 0 || (works && s.has_work()));
            // The first wait only starts the clock: a call that never
            // idles for a whole poll interval never sweeps.
            let now = Instant::now();
            if now >= *next_sweep.get_or_insert(now + poll) {
                self.sweep(s, call_id, now)?;
                next_sweep = Some(now + poll);
            }
        }
    }

    /// Bump a [`RecoveryStats`] field and its `runtime.*` counter
    /// together — the only place either is written.
    fn note(&mut self, what: Recovered, n: usize) {
        let r = &mut self.recovery;
        let (field, name) = match what {
            Recovered::Respawns => (&mut r.respawns, "runtime.respawns"),
            Recovered::WorkersLost => (&mut r.workers_lost, "runtime.workers_lost"),
            Recovered::ReplayedTasks => (&mut r.replayed_tasks, "runtime.replayed_tasks"),
            Recovered::Retries => (&mut r.retries, "runtime.retries"),
            Recovered::DegradedCalls => (&mut r.degraded_calls, "runtime.degraded_calls"),
            Recovered::NanRepairs => (&mut r.nan_repairs, "runtime.nan_repairs"),
            Recovered::StaleResults => (&mut r.stale_results, "runtime.stale_results"),
        };
        *field += n;
        om_obs::metrics().counter(name).add(n as u64);
    }

    fn check_live(&self) -> Result<(), RuntimeError> {
        if self.live_workers() == 0 && !self.fault_config.sequential_fallback {
            return Err(RuntimeError::PoolExhausted {
                workers: self.slots.len(),
            });
        }
        Ok(())
    }

    /// Liveness + deadline sweep over the claim table.
    fn sweep(&mut self, s: &Arc<Shared>, call_id: u64, now: Instant) -> Result<(), RuntimeError> {
        // 1. Helpers whose thread has exited.
        for w in 1..self.slots.len() {
            let slot = &self.slots[w];
            if !slot.failed && slot.join.as_ref().is_none_or(JoinHandle::is_finished) {
                self.worker_died(s, w, call_id);
            }
        }
        // 2. Tasks held — running, or requeued and not picked up — for
        // longer than the task timeout.
        for tid in 0..s.claims.len() {
            let word = s.claims[tid].load(Ordering::Relaxed);
            if claim_call(word) != call_id || claim_state(word) == DONE {
                continue;
            }
            if self.watch[tid].0 != word {
                self.watch[tid] = (word, now);
                continue;
            }
            if now.duration_since(self.watch[tid].1) < self.fault_config.task_timeout {
                continue;
            }
            let w = claim_worker(word);
            let running = claim_state(word) == RUNNING;
            if running && !self.slots[w].failed && self.retried[tid] != call_id {
                // One retry on the same worker: a straggler may just be
                // slow, and whichever execution loses the claim is
                // filtered as stale.
                if self.requeue(s, tid, word, call_id, w) {
                    self.retried[tid] = call_id;
                    om_obs::instant("job.retry", "runtime");
                    self.note(Recovered::Retries, 1);
                }
            } else {
                // Out of patience: write the worker off. A requeued
                // task moves with its deque; a running one is replayed.
                self.fail_worker(s, w, call_id, "worker.abandoned");
                let to = self.route(w);
                if !running || self.requeue(s, tid, word, call_id, to) {
                    self.note(Recovered::ReplayedTasks, 1);
                }
            }
        }
        self.check_live()
    }

    /// Take `tid` back from whoever holds claim `word` and queue it on
    /// `to`. False when the holder completed it first.
    fn requeue(&self, s: &Shared, tid: usize, word: u64, call_id: u64, to: usize) -> bool {
        let ready = claim(call_id, to, READY);
        let won = s.claims[tid]
            .compare_exchange(word, ready, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
        if won {
            s.push(to, tid);
            s.wake();
        }
        won
    }

    /// Worker `w`'s thread has exited (or, for `w == 0`, an injected
    /// kill hit the supervisor's worker role): respawn it if the budget
    /// allows, otherwise write it off; replay what it was running.
    fn worker_died(&mut self, s: &Arc<Shared>, w: usize, call_id: u64) {
        if let Some(join) = self.slots[w].join.take() {
            // Reap; a panicked thread yields Err, which is the point.
            let _ = join.join();
        }
        let Slot {
            failed, respawns, ..
        } = self.slots[w];
        let mut respawned = false;
        if !failed && respawns < self.fault_config.max_respawns {
            std::thread::sleep(self.fault_config.respawn_backoff * (1u32 << respawns.min(10)));
            let incarnation = respawns + 1;
            self.slots[w].respawns = incarnation;
            // A refused spawn is one more lost worker, not a failed call.
            respawned = w == 0
                || spawn_helper(w, incarnation, &self.door)
                    .map(|join| self.slots[w].join = Some(join))
                    .is_ok();
        }
        if respawned {
            om_obs::instant("worker.respawn", "runtime");
            self.note(Recovered::Respawns, 1);
        } else {
            self.fail_worker(s, w, call_id, "worker.failed");
        }
        let to = self.route(w);
        let running = claim(call_id, w, RUNNING);
        let replayed = (0..s.claims.len())
            .filter(|&tid| self.requeue(s, tid, running, call_id, to))
            .count();
        self.note(Recovered::ReplayedTasks, replayed);
    }

    /// Mark `w` permanently failed, rebalance over the survivors and
    /// hand them its queued tasks. Idempotent.
    fn fail_worker(&mut self, s: &Shared, w: usize, call_id: u64, event: &'static str) {
        if self.slots[w].failed {
            return;
        }
        self.slots[w].failed = true;
        s.retired[w].store(true, Ordering::Release);
        // Detach: joining a hung thread could block forever.
        drop(self.slots[w].join.take());
        om_obs::instant(event, "runtime");
        self.note(Recovered::WorkersLost, 1);
        self.live_gauge.set(self.live_workers() as f64);
        self.rebalance_from_measured();
        let orphaned = std::mem::take(&mut *lock(&s.deques[w]));
        for tid in orphaned {
            let to = self.route(self.assignment[tid]);
            // A task that was waiting out a retry on `w` keeps waiting, on `to`.
            let _ = s.claims[tid].compare_exchange(
                claim(call_id, w, READY),
                claim(call_id, to, READY),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            s.push(to, tid);
        }
        s.wake();
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        self.shared.shut_down();
        // Bounded wait so a hung helper cannot wedge the supervisor.
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in &mut self.slots {
            let Some(join) = slot.join.take() else {
                continue;
            };
            let mut looks = 0;
            while !join.is_finished() && Instant::now() < deadline {
                looks += 1;
                if looks < JOIN_SPINS {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_PARK);
                }
            }
            if join.is_finished() {
                let _ = join.join();
            }
            // else: handle dropped → hung thread detached.
        }
    }
}

/// Zero-sized panic payload for injected worker deaths; `resume_unwind`
/// with it skips the global panic hook, keeping chaos tests quiet.
struct InjectedWorkerPanic;

/// Helper thread main: serve the pool's call state until it shuts down,
/// then the one the pool swapped in for it, if any.
fn helper_main(worker: usize, door: &Mutex<Arc<Shared>>) {
    // On the helper's own track, so every incarnation shows in a trace
    // whether or not it is ever handed a task.
    om_obs::instant("worker.spawn", "runtime");
    let mut s = Arc::clone(&lock(door));
    loop {
        serve(worker, &s);
        let next = Arc::clone(&lock(door));
        if Arc::ptr_eq(&next, &s) {
            return;
        }
        s = next;
    }
}

/// Park between calls, work each call to completion; return on shutdown
/// or retirement.
fn serve(worker: usize, s: &Shared) {
    let mut ctx = WorkerCtx::new(worker, &s.graph);
    let mut last_call = 0u64;
    loop {
        let call_id = {
            let mut g = lock(&s.call);
            loop {
                if s.shutdown.load(Ordering::Acquire) || s.retired[worker].load(Ordering::Acquire) {
                    return;
                }
                if *g != last_call {
                    break *g;
                }
                g = s.start_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        };
        last_call = call_id;
        let woke = s.epoch.elapsed().as_nanos() as u64;
        s.woke_ns.fetch_max(woke, Ordering::Relaxed);
        s.acks.fetch_add(1, Ordering::Release);
        let t = f64::from_bits(s.t_bits.load(Ordering::Relaxed));
        let y = lock(&s.y).clone();
        let detailed = s.detailed.load(Ordering::Relaxed);
        if work_call(worker, s, call_id, t, &y, &mut ctx, detailed) {
            std::panic::resume_unwind(Box::new(InjectedWorkerPanic));
        }
    }
}

/// What [`execute_task`] left for the work loop to do.
enum Step {
    Next,
    /// That was the call's last task.
    CallDone,
    /// An injected `Panic` fired; the task stays `RUNNING`.
    Killed,
}

/// Execute tasks of call `call_id` until the call completes — or, for
/// the supervisor, until nothing can be taken. Safe against the next
/// call starting concurrently: a popped task whose generation is newer
/// than `call_id` is returned to its deque untouched. Returns true when
/// an injected kill fired and the caller must act the death out.
fn work_call(
    worker: usize,
    s: &Shared,
    call_id: u64,
    t: f64,
    y: &[f64],
    ctx: &mut WorkerCtx,
    detailed: bool,
) -> bool {
    // Opened at the helper's first task of a detail-sampled call, so a
    // helper that merely woke up leaves no (timing-dependent) mark.
    let mut span = None;
    let busy_start = Instant::now();
    let mut executed = false;
    let mut stolen = 0u64;
    let mut killed = false;
    loop {
        let Some((tid, src)) = s.take(worker) else {
            // The supervisor returns to its own wait loop; helpers park
            // briefly for ready work, and leave once a newer call has
            // begun (this one is over; the newer one may not want them).
            if worker == 0
                || s.remaining.load(Ordering::Acquire) == 0
                || s.call_fast.load(Ordering::Acquire) != call_id
                || s.shutdown.load(Ordering::Acquire)
                || s.retired[worker].load(Ordering::Acquire)
            {
                break;
            }
            s.park(|| s.has_work() || s.remaining.load(Ordering::Acquire) == 0);
            continue;
        };
        // Stale-pop guard: the task belongs to a newer call than the
        // (t, y) this loop captured. Put it back and bail out.
        if s.call_fast.load(Ordering::Acquire) != call_id {
            s.unpop(src, tid);
            break;
        }
        if detailed && worker > 0 && span.is_none() {
            span = Some(om_obs::span_arg(
                "job.execute",
                "worker",
                "id",
                worker as i64,
            ));
        }
        stolen += u64::from(src != worker);
        executed = true;
        match execute_task(s, worker, call_id, tid, t, y, ctx) {
            Step::Next => {}
            Step::CallDone => break,
            Step::Killed => {
                killed = true;
                break;
            }
        }
    }
    if executed {
        ctx.busy_ns.add(busy_start.elapsed().as_nanos() as u64);
    }
    if stolen > 0 {
        ctx.steals.add(stolen);
    }
    drop(span);
    killed
}

/// Run one task: claim it, gather its shared reads, execute the
/// bytecode, and — if the claim is still ours — publish outputs,
/// decrement successor counters and push newly-ready tasks onto the
/// finishing worker's own deque (LIFO end — hot caches).
fn execute_task(
    s: &Shared,
    worker: usize,
    call_id: u64,
    tid: usize,
    t: f64,
    y: &[f64],
    ctx: &mut WorkerCtx,
) -> Step {
    let mine = claim(call_id, worker, RUNNING);
    // Relaxed: the word publishes no data, and nobody else writes it
    // while the task is out of every deque and not yet RUNNING.
    s.claims[tid].store(mine, Ordering::Relaxed);
    let call = s.rhs_call.load(Ordering::Relaxed);
    let fault = s.faults.fire(call, tid, s.graph.tasks.len(), worker);
    match fault {
        Some(FaultKind::Panic) => return Step::Killed,
        Some(FaultKind::Straggle(delay)) => {
            std::thread::sleep(delay);
            // A helper stalls on until the supervisor takes the task back.
            while worker != 0
                && s.claims[tid].load(Ordering::Acquire) == mine
                && !s.shutdown.load(Ordering::Acquire)
            {
                std::thread::sleep(IDLE_PARK);
            }
        }
        _ => {}
    }
    let task = &s.graph.tasks[tid];
    let shared = ctx.scratch.shared_mut();
    for &slot in &task.reads_shared {
        shared[slot as usize] =
            f64::from_bits(s.shared_vals[slot as usize].load(Ordering::Acquire));
    }
    let start = Instant::now();
    task.run(t, y, &mut ctx.scratch);
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let out = &mut ctx.scratch.out_mut()[..task.n_out()];
    if fault == Some(FaultKind::CorruptNaN) {
        if let Some(first) = out.first_mut() {
            *first = f64::NAN;
        }
    }
    let bad = out.iter().filter(|v| !v.is_finite()).count();
    if bad > 0 {
        // A corrupted result and a genuine blow-up look the same from
        // here; recomputing is correct for both (the recomputation of a
        // genuine non-finite value reproduces it exactly — for a loop
        // task, every output of the chunk).
        om_obs::instant("result.nan_repair", "runtime");
        s.nan_repairs.fetch_add(bad, Ordering::Relaxed);
        task.run(t, y, &mut ctx.scratch);
    }
    if fault == Some(FaultKind::DropResult) {
        // The result is lost: the claim stays RUNNING until the sweep's
        // deadline takes the task back.
        return Step::Next;
    }
    // AcqRel: pairs with the supervisor's requeue exchange on the same
    // word — exactly one of "complete" and "take back" happens.
    let done = claim(call_id, worker, DONE);
    if s.claims[tid]
        .compare_exchange(mine, done, Ordering::AcqRel, Ordering::Relaxed)
        .is_err()
    {
        s.stale_results.fetch_add(1, Ordering::Relaxed);
        return Step::Next;
    }
    s.timings_ns[tid].store(elapsed_ns, Ordering::Relaxed);
    for (value, slot) in ctx.scratch.out_mut().iter().zip(&task.writes) {
        match slot {
            OutSlot::Deriv(i) => s.dydt[*i].store(value.to_bits(), Ordering::Release),
            OutSlot::Shared(i) => s.shared_vals[*i].store(value.to_bits(), Ordering::Release),
        }
    }
    // Dependency-counter scheduling: the AcqRel RMW chain on each
    // counter orders every producer's stores before the final decrement.
    let mut pushed = 0u64;
    for &succ in &s.succ[tid] {
        if s.preds[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
            s.push(worker, succ);
            pushed += 1;
        }
    }
    if pushed > 0 {
        s.wake();
        ctx.ready_pushed.add(pushed);
    }
    if s.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        // The call is complete: wake the supervisor and any parked
        // helpers, so they fall out of their idle loops promptly.
        s.wake();
        Step::CallDone
    } else {
        Step::Next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_codegen::cse::CseMode;
    use om_codegen::task::{compile_tasks, equation_tasks};
    use om_codegen::{CodeGenerator, GenOptions};
    use om_expr::CostModel;
    use om_ir::causalize;

    fn graph(src: &str, inline: bool) -> (om_ir::OdeIr, TaskGraph) {
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let g = compile_tasks(
            &equation_tasks(&ir, inline),
            &ir,
            CseMode::PerTask,
            &CostModel::default(),
        );
        (ir, g)
    }

    const MODEL: &str = "model M;
        Real x(start=0.4); Real v(start=-0.3); Real f;
        equation
          der(x) = v;
          der(v) = f;
          f = -sin(x)*4.0 - 0.2*v + cos(time);
        end M;";

    fn pool(g: TaskGraph, n_workers: usize, assignment: Vec<usize>) -> ExecutorPool {
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        ExecutorPool::with_faults(g, n_workers, assignment, plan, config).unwrap()
    }

    fn faulty(
        g: TaskGraph,
        n_workers: usize,
        plan: FaultPlan,
        config: FaultConfig,
    ) -> ExecutorPool {
        ExecutorPool::with_faults(g, n_workers, vec![0, 1], plan, config).unwrap()
    }

    /// A fault on task 1 of the first call, which `faulty` assigns to
    /// helper 1. The supervisor would usually run both of MODEL's tasks
    /// before the helper wakes, stealing task 1, so a straggle (a plain
    /// delay on worker 0) holds it on its own task 0 while the helper
    /// claims task 1: the plan's entry 1 records the helper.
    fn on_helper(kind: FaultKind) -> FaultPlan {
        FaultPlan::none()
            .inject(1, 0, FaultKind::Straggle(Duration::from_millis(20)))
            .inject(1, 1, kind)
    }

    /// One call, checked against `expect` bit for bit, after which every
    /// planned fault has fired: a fault names its call.
    fn call_once(pool: &mut ExecutorPool, t: f64, y: &[f64], expect: &[f64]) {
        let mut got = vec![0.0; y.len()];
        pool.try_rhs(t, y, &mut got).unwrap();
        assert_eq!(got, expect, "recovery must not perturb values");
        let plan = pool.faults();
        assert_eq!(plan.fired(), plan.len(), "{plan:?}");
    }

    /// Reference derivative at (t, y).
    fn reference_rhs(ir: &om_ir::OdeIr, t: f64, y: &[f64]) -> Vec<f64> {
        let reference = om_ir::IrEvaluator::new(ir).unwrap();
        let mut out = vec![0.0; y.len()];
        reference.rhs(t, y, &mut out);
        out
    }

    fn assert_close(got: &[f64], expect: &[f64], tol: f64) {
        for (g, e) in got.iter().zip(expect) {
            assert!((g - e).abs() < tol, "{got:?} vs {expect:?}");
        }
    }

    #[test]
    fn parallel_rhs_matches_reference() {
        let (ir, g) = graph(MODEL, true);
        let costs: Vec<u64> = g.tasks.iter().map(|t| t.static_cost).collect();
        let sched = om_codegen::lpt(&costs, 2);
        let mut pool = pool(g, 2, sched.assignment);
        let mut got = [0.0; 2];
        pool.rhs(1.1, &[0.4, -0.3], &mut got);
        assert_close(&got, &reference_rhs(&ir, 1.1, &[0.4, -0.3]), 1e-12);
    }

    #[test]
    fn dependent_graph_executes_by_dependency_counters() {
        let (ir, g) = graph(MODEL, false);
        assert!(!g.is_independent());
        let sched = om_codegen::list_schedule(
            &g.tasks.iter().map(|t| t.static_cost).collect::<Vec<_>>(),
            &g.deps,
            3,
        );
        let n_tasks = g.tasks.len();
        let mut pool = pool(g, 3, sched.assignment);
        assert!(pool.roots.len() < n_tasks, "some tasks wait on a counter");
        let mut got = [0.0; 2];
        pool.rhs(0.5, &[0.4, -0.3], &mut got);
        assert_close(&got, &reference_rhs(&ir, 0.5, &[0.4, -0.3]), 1e-12);
    }

    #[test]
    fn repeated_calls_are_stable_and_measure_timings() {
        let (_, g) = graph(MODEL, true);
        let n_tasks = g.tasks.len();
        let mut pool = pool(g, 2, vec![0, 1]);
        let mut dydt = [0.0; 2];
        for k in 0..50 {
            let t = k as f64 * 0.01;
            pool.rhs(t, &[0.4, -0.3], &mut dydt);
        }
        assert_eq!(pool.measured().len(), n_tasks);
        assert!(pool.measured().iter().all(|&m| m > 0.0));
    }

    #[test]
    fn reassignment_midstream_is_seamless() {
        let (ir, g) = graph(MODEL, true);
        let y = [0.1, 0.9];
        let expect = reference_rhs(&ir, 0.0, &y);
        let mut pool = pool(g, 2, vec![0, 0]);
        let mut got = [0.0; 2];
        pool.rhs(0.0, &y, &mut got);
        assert_eq!(&got[..], &expect[..]);
        pool.rebalance(&[100, 100]);
        assert_ne!(pool.assignment(), &[0, 0]);
        let mut got2 = [0.0; 2];
        pool.rhs(0.0, &y, &mut got2);
        assert_eq!(&got2[..], &expect[..]);
    }

    #[test]
    fn many_workers_with_few_tasks() {
        let (ir, g) = graph(MODEL, true);
        let mut pool = pool(g, 8, vec![3, 6]);
        let mut got = [0.0; 2];
        pool.rhs(2.0, &[0.4, -0.3], &mut got);
        assert_close(&got, &reference_rhs(&ir, 2.0, &[0.4, -0.3]), 1e-12);
    }

    #[test]
    fn generator_pipeline_with_all_extensions_runs_in_pool() {
        let src = "model M;
            Real x(start=0.2); Real y(start=0.3);
            equation
              der(x) = exp(sin(x) + cos(y)) + y*y;
              der(y) = exp(sin(x) + cos(y)) - x;
            end M;";
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let generator = CodeGenerator::new(GenOptions {
            extract_shared_min_cost: Some(40),
            split_threshold: Some(60),
            ..GenOptions::default()
        });
        let program = generator.generate(&ir);
        let sched = program.schedule(3);
        let mut pool = pool(program.graph, 3, sched.assignment);
        let mut got = [0.0; 2];
        pool.rhs(0.0, &[0.2, 0.3], &mut got);
        assert_close(&got, &reference_rhs(&ir, 0.0, &[0.2, 0.3]), 1e-10);
    }

    // ---- hand-off-aware rescheduling ------------------------------------

    #[test]
    fn a_costly_handoff_keeps_every_call_on_the_supervisor() {
        let (ir, g) = graph(MODEL, true);
        let y = [0.4, -0.3];
        let mut expect = [0.0; 2];
        g.eval_serial(0.8, &y, &mut expect);
        let mut pool = pool(g, 2, vec![0, 1]);
        let mut got = [0.0; 2];
        for _ in 0..20 {
            pool.rhs(0.8, &y, &mut got);
        }
        assert_eq!(pool.supervisor_only_calls(), 0, "both workers seeded");
        assert!(pool.handoff_ns() > 0.0, "hand-off measured");
        let total: f64 = pool.measured().iter().map(|s| s * 1e9).sum();
        pool.handoff_ns = total + 1e6;
        pool.rebalance_from_measured();
        assert_eq!(pool.assignment(), &[0, 0]);
        let before = pool.handoff_ns();
        let claims = claim_words(&pool);
        for n in 1..=50 {
            pool.rhs(0.8, &y, &mut got);
            assert_eq!(got, expect, "bitwise the serial graph");
            assert_eq!(pool.supervisor_only_calls(), n);
        }
        assert_untouched(&pool, 20, &claims);
        assert_eq!(pool.handoff_ns(), before, "no sample without a hand-off");
        assert!(pool.solo.ns > 0.0, "solo calls timed");
        assert!(pool.measured().iter().all(|&m| m > 0.0));
        assert_close(&got, &reference_rhs(&ir, 0.8, &y), 1e-12);
    }

    fn claim_words(pool: &ExecutorPool) -> Vec<u64> {
        let claims = &pool.shared.claims;
        claims.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    /// Nothing a pooled call touches has moved since call `calls`: the
    /// call generation, the helpers' start word (a helper still parked on
    /// it has run nothing, so its `busy_ns` cannot have grown), the claim
    /// words and the deques.
    fn assert_untouched(pool: &ExecutorPool, calls: u64, claims: &[u64]) {
        let s = &pool.shared;
        assert_eq!(s.call_fast.load(Ordering::Relaxed), calls);
        assert!(*lock(&s.call) <= calls);
        assert_eq!(claim_words(pool), claims);
        assert!(s.deques.iter().all(|d| lock(d).is_empty()));
        assert_eq!(s.remaining.load(Ordering::Relaxed), 0);
    }

    /// Two tasks of equal static cost.
    const TWIN: &str = "model T;
        Real x(start=0.4); Real y(start=-0.3);
        equation
          der(x) = sin(y)*cos(x);
          der(y) = sin(x)*cos(y);
        end T;";

    /// A model's equation-level graph, and the one-cluster placement of
    /// the same model (one task, global CSE).
    fn with_one_cluster(src: &str) -> (TaskGraph, TaskGraph) {
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let generator = CodeGenerator::default();
        let tasks = generator.tasks(&ir);
        let one = generator.place(&ir, &tasks, 1).graph;
        (graph(src, true).1, one)
    }

    /// A born-serial 2-worker pool on `src`'s one-cluster graph whose
    /// placement is the equation-level graph, one task per worker.
    fn born(src: &str) -> ExecutorPool {
        let (g, one) = with_one_cluster(src);
        let schedule = om_codegen::lpt(
            &g.tasks.iter().map(|t| t.static_cost).collect::<Vec<_>>(),
            2,
        );
        let assignment = schedule.assignment.clone();
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        ExecutorPool::born_serial(one, 2, plan, config, &schedule, move |_| {
            (Arc::new(g), assignment)
        })
        .unwrap()
    }

    /// The rescheduler's decision with a solo time of `solo_ns`.
    fn decide(pool: &mut ExecutorPool, solo_ns: f64) -> Vec<usize> {
        pool.solo.ns = solo_ns;
        pool.rebalance_from_measured();
        pool.assignment().to_vec()
    }

    /// Whether the next call of a born-serial pool compiles its
    /// placement and seeds a helper, with a solo time of `solo_ns`.
    fn seeds(pool: &mut ExecutorPool, solo_ns: f64) -> bool {
        pool.solo.low = solo_ns;
        pool.rebalance_from_measured();
        pool.later.as_ref().is_some_and(|later| later.seed)
    }

    #[test]
    fn a_supervisor_only_call_runs_the_one_cluster_graph() {
        let (g, _) = with_one_cluster(MODEL);
        let y = [0.4, -0.3];
        let mut expect = [0.0; 2];
        g.eval_serial(0.6, &y, &mut expect);
        let mut pool = born(MODEL);
        assert_eq!(pool.solo_graph().tasks.len(), 1);
        let mut got = [0.0; 2];
        for n in 1..=30 {
            pool.rhs(0.6, &y, &mut got);
            assert_eq!(got, expect, "bitwise the placed graph");
            assert_eq!(pool.supervisor_only_calls(), n);
            assert!(pool.last_call() > Duration::ZERO);
        }
        // No call reached the pool: no generation, no helper released
        // (worker 1 ran nothing), no claim word, deque or slot written,
        // and no placement compiled.
        assert_untouched(&pool, 0, &[0]);
        assert_eq!(*lock(&pool.shared.call), 0);
        assert!(pool
            .shared
            .dydt
            .iter()
            .all(|v| v.load(Ordering::Relaxed) == 0));
        assert!(!pool.placed());
        assert!(pool.solo.ns > 0.0);
        assert_eq!(pool.handoff_ns(), 0.0);
    }

    /// Each fault kind on the supervisor-only call it names, in a pool
    /// born serial with a plan: acted out on worker 0's role, and every
    /// call returns the fault-free bits. A second kill spends the respawn
    /// budget, so the role is written off and that call, and every later
    /// one, runs on the helper.
    #[test]
    fn a_born_serial_pool_acts_out_each_fault_on_the_solo_call_it_names() {
        let (g, one) = with_one_cluster(MODEL);
        let y = [0.4, -0.3];
        let mut expect = [0.0; 2];
        one.eval_serial(0.6, &y, &mut expect);
        let straggle = Duration::from_millis(30);
        // Task 1 of a one-task call is its task 0.
        let plan = FaultPlan::kill(2, 0)
            .inject(3, 1, FaultKind::DropResult)
            .inject(4, 0, FaultKind::CorruptNaN)
            .inject(5, 0, FaultKind::Straggle(straggle))
            .inject(6, 0, FaultKind::Panic);
        let config = FaultConfig {
            max_respawns: 1,
            ..FaultConfig::default()
        };
        let schedule = om_codegen::lpt(&[1, 1], 2);
        let mut pool = ExecutorPool::born_serial(one, 2, plan, config, &schedule, move |_| {
            (Arc::new(g), vec![0, 1])
        })
        .unwrap();
        let mut got = [0.0; 2];
        for n in 1..=7u64 {
            let start = Instant::now();
            pool.rhs(0.6, &y, &mut got);
            assert_eq!(got, expect, "call {n}");
            assert_eq!(pool.faults().fired() as u64, (n - 1).min(5));
            assert_eq!(pool.supervisor_only_calls(), n.min(5));
            if n == 5 {
                assert!(start.elapsed() >= straggle, "delayed");
            }
        }
        assert!((0..5).all(|i| pool.faults().claimant(i) == Some(0)));
        let expect_stats = RecoveryStats {
            respawns: 1,
            workers_lost: 1,
            replayed_tasks: 2,
            retries: 1,
            nan_repairs: 1,
            ..RecoveryStats::default()
        };
        assert_eq!(*pool.recovery(), expect_stats);
        assert_eq!(pool.live_workers(), 1);
        assert!(!pool.placed(), "the helper ran the solo graph");
    }

    #[test]
    fn a_placement_of_another_dimension_is_refused() {
        let (_, one) = with_one_cluster(MODEL);
        let (_, other) = graph(
            "model N; Real z(start=1.0); equation der(z) = -z; end N;",
            true,
        );
        let schedule = om_codegen::lpt(&[1], 2);
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        let mut pool = ExecutorPool::born_serial(one, 2, plan, config, &schedule, move |_| {
            (Arc::new(other), vec![1])
        })
        .unwrap();
        pool.later.as_mut().unwrap().seed = true;
        let mut got = [0.0; 2];
        assert!(matches!(
            pool.try_rhs(0.0, &[0.4, -0.3], &mut got),
            Err(RuntimeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn a_placement_that_is_the_solo_graph_only_takes_the_assignment() {
        let (_, g) = graph(TWIN, true);
        let y = [0.4, -0.3];
        let mut expect = [0.0; 2];
        g.eval_serial(0.5, &y, &mut expect);
        let schedule = om_codegen::lpt(&[1, 1], 2);
        let (plan, config) = (FaultPlan::none(), FaultConfig::default());
        let mut pool = ExecutorPool::born_serial(g, 2, plan, config, &schedule, |solo| {
            (Arc::clone(solo), vec![0, 1])
        })
        .unwrap();
        let before = Arc::clone(&pool.shared);
        let mut got = [0.0; 2];
        pool.rhs(0.5, &y, &mut got);
        pool.later.as_mut().unwrap().seed = true;
        pool.rhs(0.5, &y, &mut got);
        assert_eq!(got, expect);
        assert!(pool.placed());
        assert!(Arc::ptr_eq(&pool.shared, &before), "same call state");
        assert!(Arc::ptr_eq(&pool.shared.graph, &pool.solo.graph));
        assert_eq!(pool.assignment(), &[0, 1]);
        assert_eq!(pool.supervisor_only_calls(), 1);
        assert_eq!(pool.shared.call_fast.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn the_first_reschedule_probes_the_handoff_once() {
        let mut pool = born(TWIN);
        let mut got = [0.0; 2];
        pool.rhs(0.0, &[0.4, -0.3], &mut got);
        pool.rebalance_from_measured();
        // One wake-up and no task: the helper stamps and counts it, and
        // the supervisor waited no longer than a helper could pay (a
        // ~100 ns call), so it reads the answer later.
        assert_eq!(pool.shared.call_fast.load(Ordering::Relaxed), 1);
        for _ in 0..2000 {
            if pool.shared.acks.load(Ordering::Acquire) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.shared.acks.load(Ordering::Relaxed), 1);
        assert!(pool.shared.deques.iter().all(|d| lock(d).is_empty()));
        pool.rhs(0.0, &[0.4, -0.3], &mut got);
        pool.rebalance_from_measured();
        let probed = pool.handoff_ns();
        assert!(probed > 0.0);
        assert!(!pool.later.as_ref().unwrap().seed);
        for _ in 0..5 {
            pool.rhs(0.0, &[0.4, -0.3], &mut got);
            pool.rebalance_from_measured();
        }
        assert_eq!(pool.handoff_ns(), probed, "probed once");
        assert_eq!(pool.shared.call_fast.load(Ordering::Relaxed), 1);
        assert_eq!(pool.shared.acks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_helper_is_seeded_only_when_the_schedule_beats_the_solo_time() {
        // Born serial: two tasks of equal static cost put half the solo
        // time on each worker, so a helper pays when H + T/2 < T.
        let mut pool = born(TWIN);
        pool.handoff_ns = 500.0;
        // No solo call timed since the last reschedule: nothing to beat.
        assert!(!seeds(&mut pool, f64::INFINITY));
        assert!(!seeds(&mut pool, 800.0));
        assert!(!seeds(&mut pool, 1_000.0), "a tie stays solo");
        assert!(seeds(&mut pool, 1_001.0));
        // A hand-off above half the solo time never pays.
        pool.handoff_ns = 1_200.0;
        assert!(!seeds(&mut pool, 2_000.0));
        assert!(!seeds(&mut pool, 2_400.0));
        assert!(seeds(&mut pool, 1e9));
        // The fastest solo call decides: one preempted call among fast
        // ones reopens nothing.
        pool.later.as_mut().unwrap().seed = false;
        pool.solo.low = f64::INFINITY;
        for ns in [2_000.0, 1e9, 2_100.0] {
            pool.fold_solo(ns);
        }
        pool.rebalance_from_measured();
        assert!(!pool.later.as_ref().unwrap().seed);
        assert!(seeds(&mut pool, 1e9));
        // The decision is all a reschedule did: nothing is compiled until
        // the next call, which builds the placement and seeds the helper.
        assert!(!pool.placed());
        assert_eq!(pool.graph().tasks.len(), 1);
        let mut got = [0.0; 2];
        pool.rhs(0.0, &[0.4, -0.3], &mut got);
        assert!(pool.placed());
        assert_eq!(pool.graph().tasks.len(), 2);
        assert_eq!(pool.supervisor_only_calls(), 0);
        assert_eq!(pool.shared.call_fast.load(Ordering::Relaxed), 1);
        let mut expect = [0.0; 2];
        pool.solo_graph()
            .eval_serial(0.0, &[0.4, -0.3], &mut expect);
        assert_eq!(got, expect);

        // Placed: the LPT over measured task times decides. Two 1 µs
        // tasks and a 0.5 µs hand-off: with the helper the call predicts
        // max(1, 0.5 + 1) = 1.5 µs.
        pool.measured = vec![1e-6, 1e-6];
        pool.handoff_ns = 500.0;
        // No solo call timed yet: against both tasks on worker 0 (2 µs).
        assert_eq!(decide(&mut pool, 0.0), [0, 1]);
        // The one-cluster graph runs in 1.4 µs: the helper does not pay,
        // although the hand-off is below one task's time.
        assert_eq!(decide(&mut pool, 1_400.0), [0, 0]);
        assert_eq!(decide(&mut pool, 1_500.0), [0, 0], "a tie stays solo");
        assert_eq!(decide(&mut pool, 1_600.0), [0, 1]);
        // A hand-off above one task's time: the supervisor finishes both
        // sooner than the helper finishes one, whatever solo costs.
        pool.handoff_ns = 1_200.0;
        assert_eq!(decide(&mut pool, 1e9), [0, 0]);
    }

    #[test]
    fn a_step_change_in_the_solo_time_reopens_the_helper() {
        let mut pool = born(TWIN);
        pool.handoff_ns = 5_000.0;
        let mut got = [0.0; 2];
        pool.rhs(0.0, &[0.4, -0.3], &mut got);
        assert_eq!(pool.supervisor_only_calls(), 1);
        // Solo calls of 2 µs: the estimates follow, the hand-off costs
        // more than the solo call, and the pool stays serial.
        for _ in 0..40 {
            pool.fold_solo(2_000.0);
        }
        let total: f64 = pool.measured().iter().sum();
        assert!((total * 1e9 - 2_000.0).abs() < 1.0, "{total}");
        pool.rebalance_from_measured();
        assert_eq!(pool.assignment(), &[0]);
        assert!(!pool.later.as_ref().unwrap().seed);
        assert!(!pool.placed());
        // The RHS gets 100 times slower while solo: the solo time follows,
        // so the helper reopens.
        for _ in 0..40 {
            pool.fold_solo(200_000.0);
        }
        pool.rebalance_from_measured();
        // The next call compiles the placement, seeds the helper and
        // samples the hand-off anew; each placed task's estimate starts
        // at its share of the solo time.
        pool.rhs(0.0, &[0.4, -0.3], &mut got);
        assert!(pool.placed());
        assert_eq!(pool.supervisor_only_calls(), 1);
        assert_eq!(pool.shared.call_fast.load(Ordering::Relaxed), 1);
        assert_ne!(pool.handoff_ns(), 5_000.0);
        assert_eq!(pool.measured().len(), 2);
        // A placed pool follows step changes too.
        pool.handoff_ns = 5_000.0;
        for _ in 0..80 {
            pool.fold_solo(2_000.0);
        }
        let total: f64 = pool.measured().iter().sum();
        assert!((total * 1e9 - 2_000.0).abs() < 1.0, "{total}");
        pool.rebalance_from_measured();
        assert_eq!(pool.assignment(), &[0, 0]);
        for _ in 0..40 {
            pool.fold_solo(200_000.0);
        }
        pool.rebalance_from_measured();
        assert_eq!(pool.assignment(), &[0, 1]);
    }

    #[test]
    fn a_helper_whose_tasks_were_stolen_charges_the_whole_call() {
        // The helper ran its task: the hand-off is what the busiest helper
        // did not account for.
        assert_eq!(
            handoff_sample(5_000, &[Some(2_000), Some(2_500)], false),
            2_500
        );
        // The supervisor did most of the work and the helper a sliver at
        // the end: the helper started late by nearly the whole call.
        assert_eq!(
            handoff_sample(5_000, &[Some(4_500), Some(300)], false),
            4_700
        );
        // The supervisor stole the helper's task and ran both: subtracting
        // that work would leave only the notify, 1 µs, below either task.
        assert_eq!(handoff_sample(5_000, &[Some(4_000), None], true), 5_000);
        // An unseeded helper that ran nothing is no evidence either way.
        assert_eq!(handoff_sample(5_000, &[Some(4_000), None], false), 1_000);
        assert_eq!(handoff_sample(3_000, &[Some(4_000), None], false), 0);
    }

    // ---- fault-injection & recovery --------------------------------------

    #[test]
    fn killed_worker_is_respawned_and_result_identical() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 1.1, &[0.4, -0.3]);
        let plan = on_helper(FaultKind::Panic);
        let mut pool = faulty(g, 2, plan, FaultConfig::default());
        call_once(&mut pool, 1.1, &[0.4, -0.3], &expect);
        assert_eq!(pool.faults().claimant(1), Some(1));
        let r = pool.recovery();
        assert!(r.respawns >= 1 && r.replayed_tasks >= 1, "{r:?}");
        assert_eq!(pool.live_workers(), 2, "the claimant respawned");
        // The pool keeps working afterwards.
        let mut got = [0.0; 2];
        pool.try_rhs(1.1, &[0.4, -0.3], &mut got).unwrap();
        assert_eq!(&got[..], &expect[..]);
    }

    /// A fault on task 0 of the first call, worker 0's own. The helper
    /// could steal that task before the supervisor pops it, so it is
    /// held on its own task 1, which stalls until a short timeout takes
    /// it back: the plan's entry 1 records the supervisor.
    fn on_supervisor(kind: FaultKind) -> (FaultPlan, FaultConfig) {
        let plan = FaultPlan::none()
            .inject(1, 1, FaultKind::Straggle(Duration::from_millis(1)))
            .inject(1, 0, kind);
        let config = FaultConfig {
            task_timeout: Duration::from_millis(20),
            ..FaultConfig::default()
        };
        (plan, config)
    }

    #[test]
    fn killed_supervisor_role_is_respawned_in_place() {
        // Worker 0 claims its own task in a pooled call, and is the one
        // worker of a supervisor-only call.
        for assignment in [vec![0, 1], vec![0, 0]] {
            let (ir, g) = graph(MODEL, true);
            let expect = reference_rhs(&ir, 1.1, &[0.4, -0.3]);
            let (plan, config) = match assignment[1] {
                1 => on_supervisor(FaultKind::Panic),
                _ => (FaultPlan::kill(1, 0), FaultConfig::default()),
            };
            let kill = plan.len() - 1;
            let mut pool = ExecutorPool::with_faults(g, 2, assignment, plan, config).unwrap();
            call_once(&mut pool, 1.1, &[0.4, -0.3], &expect);
            assert_eq!(pool.faults().claimant(kill), Some(0));
            let r = pool.recovery();
            assert_eq!((r.respawns, r.replayed_tasks), (1, 1), "{r:?}");
            assert_eq!(pool.live_workers(), 2);
        }
    }

    #[test]
    fn dropped_result_is_retried() {
        for worker in [1, 0] {
            let (ir, g) = graph(MODEL, true);
            let expect = reference_rhs(&ir, 0.7, &[0.4, -0.3]);
            let (plan, config) = match worker {
                0 => on_supervisor(FaultKind::DropResult),
                _ => (on_helper(FaultKind::DropResult), FaultConfig::default()),
            };
            let config = FaultConfig {
                task_timeout: Duration::from_millis(60),
                ..config
            };
            let mut pool = faulty(g, 2, plan, config);
            call_once(&mut pool, 0.7, &[0.4, -0.3], &expect);
            let last = pool.faults().len() - 1;
            assert_eq!(pool.faults().claimant(last), Some(worker));
            assert!(pool.recovery().retries >= 1, "{:?}", pool.recovery());
        }
    }

    #[test]
    fn corrupted_output_is_repaired_deterministically() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.3, &[0.4, -0.3]);
        let plan = FaultPlan::none().inject(1, 0, FaultKind::CorruptNaN);
        let mut pool = faulty(g, 2, plan, FaultConfig::default());
        call_once(&mut pool, 0.3, &[0.4, -0.3], &expect);
        assert!(expect.iter().all(|v| v.is_finite()));
        assert!(pool.recovery().nan_repairs >= 1, "{:?}", pool.recovery());
    }

    #[test]
    fn straggler_is_detected_and_the_call_completes() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.9, &[0.4, -0.3]);
        let config = FaultConfig {
            task_timeout: Duration::from_millis(40),
            ..FaultConfig::default()
        };
        let plan = on_helper(FaultKind::Straggle(Duration::from_millis(400)));
        let mut pool = faulty(g, 2, plan, config);
        call_once(&mut pool, 0.9, &[0.4, -0.3], &expect);
        assert_eq!(pool.faults().claimant(1), Some(1));
        let r = pool.recovery();
        assert!(r.retries >= 1, "{r:?}");
        // The retried task is stealable: the supervisor runs it, and the
        // sleeping worker is not written off.
        assert_eq!((r.workers_lost, pool.live_workers()), (0, 2), "{r:?}");
        // The straggler wakes into a later call: its result must be
        // filtered, not published.
        std::thread::sleep(Duration::from_millis(450));
        let mut got = [0.0; 2];
        pool.try_rhs(0.9, &[0.4, -0.3], &mut got).unwrap();
        assert_eq!(&got[..], &expect[..]);
        assert!(pool.recovery().stale_results >= 1, "{:?}", pool.recovery());
    }

    /// Rung 3 of the timeout ladder: a worker that still holds its task
    /// one timeout after the retry is written off. The supervisor's role
    /// is lost first (call 1 kills it in its supervisor-only call), so
    /// nobody can steal the retried task from the stalled helper.
    #[test]
    fn a_helper_holding_its_retried_task_is_written_off() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.8, &[0.4, -0.3]);
        let config = FaultConfig {
            task_timeout: Duration::from_millis(40),
            max_respawns: 0,
            ..FaultConfig::default()
        };
        let plan =
            FaultPlan::kill(1, 0).inject(2, 0, FaultKind::Straggle(Duration::from_millis(400)));
        let mut pool = ExecutorPool::with_faults(g, 2, vec![0, 0], plan, config).unwrap();
        let mut got = [0.0; 2];
        pool.try_rhs(0.8, &[0.4, -0.3], &mut got).unwrap();
        assert_eq!(&got[..], &expect[..]);
        assert_eq!(
            (pool.faults().claimant(0), pool.live_workers()),
            (Some(0), 1)
        );
        call_once(&mut pool, 0.8, &[0.4, -0.3], &expect);
        assert_eq!(pool.faults().claimant(1), Some(1));
        let r = pool.recovery();
        assert_eq!((r.retries, r.workers_lost), (1, 2), "{r:?}");
        assert!(r.degraded_calls >= 1, "{r:?}");
        assert_eq!(pool.live_workers(), 0);
    }

    /// A helper's straggle stalls until the supervisor takes its task
    /// back, so one far shorter than the task timeout still trips it.
    #[test]
    fn a_helper_straggle_always_trips_the_task_timeout() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.4, &[0.4, -0.3]);
        let timeout = Duration::from_millis(20);
        let config = FaultConfig {
            task_timeout: timeout,
            ..FaultConfig::default()
        };
        let plan = on_helper(FaultKind::Straggle(Duration::from_millis(1)));
        let mut pool = faulty(g, 2, plan, config);
        let start = Instant::now();
        call_once(&mut pool, 0.4, &[0.4, -0.3], &expect);
        assert!(start.elapsed() >= timeout);
        assert_eq!(pool.faults().claimant(1), Some(1));
        assert_eq!(pool.recovery().retries, 1, "{:?}", pool.recovery());
    }

    #[test]
    fn exhausted_pool_without_fallback_returns_err() {
        let (_, g) = graph(MODEL, true);
        let config = FaultConfig {
            max_respawns: 0,
            sequential_fallback: false,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::kill(1, 0).inject(1, 1, FaultKind::Panic);
        let mut pool = faulty(g, 2, plan, config);
        let mut got = [0.0; 2];
        let err = pool.try_rhs(0.0, &[0.4, -0.3], &mut got).unwrap_err();
        assert_eq!(err, RuntimeError::PoolExhausted { workers: 2 });
        // And it stays exhausted.
        let err = pool.try_rhs(0.0, &[0.4, -0.3], &mut got).unwrap_err();
        assert_eq!(err, RuntimeError::PoolExhausted { workers: 2 });
    }

    #[test]
    fn exhausted_pool_degrades_to_sequential_evaluation() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.2, &[0.4, -0.3]);
        let config = FaultConfig {
            max_respawns: 0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::kill(1, 0).inject(1, 1, FaultKind::Panic);
        let mut pool = faulty(g, 2, plan, config);
        call_once(&mut pool, 0.2, &[0.4, -0.3], &expect);
        let r = pool.recovery();
        assert_eq!(r.workers_lost, 2, "{r:?}");
        assert!(r.degraded_calls >= 1, "{r:?}");
        assert_eq!(pool.live_workers(), 0);
        // Subsequent calls keep working in degraded mode.
        let mut got = [0.0; 2];
        pool.try_rhs(0.2, &[0.4, -0.3], &mut got).unwrap();
        assert_eq!(&got[..], &expect[..]);
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let (_, g) = graph(MODEL, true);
        let mut pool = pool(g, 2, vec![0, 1]);
        let mut got = [0.0; 3];
        let err = pool.try_rhs(0.0, &[0.4, -0.3, 0.0], &mut got).unwrap_err();
        assert_eq!(
            err,
            RuntimeError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn rebalance_only_uses_live_workers() {
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.6, &[0.4, -0.3]);
        let config = FaultConfig {
            max_respawns: 0,
            ..FaultConfig::default()
        };
        // Task 1 of the first call is worker 1's; with the supervisor held
        // on task 0, a helper claims it: worker 1, or worker 2 stealing.
        let mut pool = faulty(g, 3, on_helper(FaultKind::Panic), config);
        call_once(&mut pool, 0.6, &[0.4, -0.3], &expect);
        let lost = pool.faults().claimant(1).unwrap();
        assert_ne!(lost, 0, "a helper claimed the kill");
        assert_eq!(pool.live_workers(), 2);
        // After the loss the assignment must avoid the failed worker.
        assert!(pool.assignment().iter().all(|&w| w != lost));
        pool.rebalance(&[100, 100]);
        assert!(pool.assignment().iter().all(|&w| w != lost));
    }

    #[test]
    fn an_active_plan_runs_the_ladder_on_the_pool_itself() {
        // An active plan never swaps the pool for another: the recovery
        // counted is this pool's, on the helper the plan targets.
        let (ir, g) = graph(MODEL, true);
        let expect = reference_rhs(&ir, 0.0, &[0.4, -0.3]);
        let plan = on_helper(FaultKind::Panic);
        let mut pool = faulty(g, 2, plan, FaultConfig::default());
        call_once(&mut pool, 0.0, &[0.4, -0.3], &expect);
        assert_eq!(pool.faults().claimant(1), Some(1));
        assert_ne!(*pool.recovery(), RecoveryStats::default());
    }
}
