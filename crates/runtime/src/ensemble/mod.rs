//! The resilient ensemble driver behind `omc sweep`.
//!
//! The paper's runtime parallelizes *within* one simulation; this module
//! parallelizes *across* simulations, and only across them: N parameter
//! scenarios share one compiled model (see [`om_codegen::registry`]) and
//! run concurrently on a pool of scenario workers, each scenario in the
//! thread that took it and wrapped in a robustness envelope —
//! panic isolation at the scenario boundary, per-scenario deadlines and
//! step budgets, bounded retry with exponential backoff for transient
//! faults, quarantine for deterministic ones, periodic checkpointing
//! with crash-tolerant resume, and graceful degradation (the supervisor
//! sheds concurrency when deadline failures cluster, which is the
//! classic symptom of an oversubscribed host).
//!
//! There is one scenario pool, [`pool::ScenarioPool`]: `omc serve` keeps
//! one for the life of the service, and [`run_sweep`] runs as a transient
//! session on its own. The sweep is the pool's supervisor: it admits
//! (`stop_after` keeps the first N scenarios before anything is queued),
//! checkpoints, and sheds (only the pool's first `k` workers take jobs);
//! a dying checkpoint device drops the queued items, whose scenarios end
//! `skipped`. A scenario never runs on an executor pool of its own: a
//! helper inside one scenario competes with the next scenario for the
//! same core, pays a hand-off the scenario axis does not, and measured
//! slower at every size tried (EXPERIMENTS E24, E28).
//!
//! Scenario lifecycle:
//!
//! ```text
//!   pending ─▶ running ─▶ completed            (bit-exact y_end recorded)
//!                │  ▲
//!                │  └── retrying (backoff) ◀── transient fault (panic,
//!                │                              RHS failure)
//!                ├─▶ quarantined               (deterministic error or
//!                │                              retry budget exhausted)
//!                └─▶ deadline-exceeded         (straggler; terminal)
//! ```
//!
//! Interrupted sweeps leave unstarted scenarios `skipped` in the
//! manifest; `--resume` re-queues exactly those while carrying every
//! terminal outcome forward bit-for-bit.
//!
//! With `batch > 1`, compatible scenarios are packed K at a time into
//! one structure-of-arrays integration (see [`mod@batch`]): the bytecode VM and the RK4 stepper advance all K
//! lanes per instruction/step, which amortizes dispatch and turns each
//! op into an auto-vectorizable loop — while every lane stays bitwise
//! identical to its scalar run.

pub mod batch;
pub mod checkpoint;
pub use om_obs::json;
pub(crate) mod pool;
pub mod scenario;

pub use checkpoint::{load as load_checkpoint, CheckpointHeader, CheckpointWriter};
pub use scenario::{
    run_scenario, ScenarioFault, ScenarioOutcome, ScenarioRunConfig, ScenarioSpec, SweepFaultKind,
    SweepFaultPlan,
};

use checkpoint::render_record;
use om_codegen::registry::CompiledModel;
use pool::{Job, ScenarioPool};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Sweep-level configuration (per-scenario settings live in
/// [`ScenarioRunConfig`]).
#[derive(Clone, Debug)]
pub struct SweepConfig {
    pub run: ScenarioRunConfig,
    /// Scenario-worker threads (each runs whole scenarios, in thread).
    pub concurrency: usize,
    /// Scenarios evaluated per batched integration (lane width).
    pub batch: usize,
    pub faults: SweepFaultPlan,
    pub checkpoint: Option<PathBuf>,
    /// Flush the checkpoint every this many records.
    pub checkpoint_every: usize,
    /// Carry terminal outcomes forward from an existing checkpoint.
    pub resume: bool,
    /// Admit only the first this-many pending scenarios (test hook that
    /// simulates an interrupted run; the rest end `skipped`).
    pub stop_after: Option<usize>,
}

/// Consecutive deadline failures before a sweep halves its concurrency.
const SHED_AFTER: u32 = 3;

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            run: ScenarioRunConfig::default(),
            concurrency: 4,
            batch: 1,
            faults: SweepFaultPlan::none(),
            checkpoint: None,
            checkpoint_every: 8,
            resume: false,
            stop_after: None,
        }
    }
}

/// Why a sweep could not run (distinct from per-scenario failures, which
/// are *outcomes*, not errors).
#[derive(Debug)]
pub enum SweepError {
    /// Invalid configuration or scenario set.
    Config(String),
    /// Checkpoint file I/O or parse failure.
    Checkpoint(String),
    /// The checkpoint belongs to a different batch (model source,
    /// compiled structure, or scenario count changed).
    CheckpointMismatch {
        expected: CheckpointHeader,
        found: CheckpointHeader,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Config(m) => write!(f, "sweep config: {m}"),
            SweepError::Checkpoint(m) => write!(f, "sweep checkpoint: {m}"),
            SweepError::CheckpointMismatch { expected, found } => write!(
                f,
                "checkpoint mismatch: expected model {:016x}/{:016x} with {} scenarios, \
                 found {:016x}/{:016x} with {}",
                expected.model_key,
                expected.identity,
                expected.scenarios,
                found.model_key,
                found.identity,
                found.scenarios
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// The deterministic account of a sweep: every scenario exactly once, in
/// index order, with its terminal outcome (or `None` = skipped because
/// the sweep was interrupted first). Deliberately excludes timing so
/// that an interrupted-and-resumed sweep renders byte-identically to an
/// uninterrupted one.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    pub model_key: u64,
    pub identity: u64,
    pub entries: Vec<(usize, Option<ScenarioOutcome>)>,
}

impl Manifest {
    pub fn scenarios(&self) -> usize {
        self.entries.len()
    }

    pub fn completed(&self) -> usize {
        self.count(|o| matches!(o, ScenarioOutcome::Completed { .. }))
    }

    pub fn quarantined(&self) -> usize {
        self.count(|o| matches!(o, ScenarioOutcome::Quarantined { .. }))
    }

    pub fn deadline_exceeded(&self) -> usize {
        self.count(|o| matches!(o, ScenarioOutcome::DeadlineExceeded { .. }))
    }

    /// Terminal non-success states (quarantined + deadline-exceeded).
    pub fn failed(&self) -> usize {
        self.quarantined() + self.deadline_exceeded()
    }

    /// Scenarios never started (interrupted sweep).
    pub fn skipped(&self) -> usize {
        self.entries.iter().filter(|(_, o)| o.is_none()).count()
    }

    fn count(&self, pred: impl Fn(&ScenarioOutcome) -> bool) -> usize {
        self.entries
            .iter()
            .filter(|(_, o)| o.as_ref().is_some_and(&pred))
            .count()
    }

    /// Look up one scenario's terminal outcome.
    pub fn outcome(&self, index: usize) -> Option<&ScenarioOutcome> {
        self.entries
            .iter()
            .find(|(i, _)| *i == index)
            .and_then(|(_, o)| o.as_ref())
    }

    /// Every scenario reached a terminal typed state.
    pub fn is_fully_terminal(&self) -> bool {
        self.skipped() == 0
    }

    /// Deterministic JSON rendering (sorted by index, no timing). Two
    /// sweeps of the same batch that reach the same terminal states —
    /// e.g. one uninterrupted, one killed and resumed — render to
    /// byte-identical documents.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.entries.len());
        let _ = write!(
            out,
            "{{\n  \"model_key\": \"{:016x}\",\n  \"identity\": \"{:016x}\",\n  \"scenarios\": {},\n  \
             \"completed\": {},\n  \"quarantined\": {},\n  \"deadline_exceeded\": {},\n  \
             \"failed\": {},\n  \"skipped\": {},\n  \"unaccounted\": {},\n  \"entries\": [\n",
            self.model_key,
            self.identity,
            self.scenarios(),
            self.completed(),
            self.quarantined(),
            self.deadline_exceeded(),
            self.failed(),
            self.skipped(),
            self.unaccounted(),
        );
        for (n, (index, outcome)) in self.entries.iter().enumerate() {
            let line = match outcome {
                Some(o) => render_record(*index, o),
                None => format!("{{\"index\":{index},\"status\":\"skipped\"}}"),
            };
            let _ = write!(out, "    {line}");
            out.push_str(if n + 1 == self.entries.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Scenarios the manifest fails to account for. Always zero by
    /// construction; exported so external checks (CI) can assert it from
    /// the rendered JSON rather than trusting this crate.
    pub fn unaccounted(&self) -> usize {
        let distinct: HashSet<usize> = self.entries.iter().map(|(i, _)| *i).collect();
        self.entries.len() - distinct.len()
    }
}

/// The nondeterministic side of a sweep: wall-clock, per-scenario
/// latencies, and the degradation trail. Kept apart from [`Manifest`] so
/// the manifest can be compared across runs.
#[derive(Clone, Debug)]
pub struct SweepReport {
    pub wall: std::time::Duration,
    /// Scenarios run in this process (not carried from a checkpoint).
    pub fresh: usize,
    /// Terminal outcomes carried forward by `--resume`.
    pub from_checkpoint: usize,
    /// Wall latency of each fresh scenario, completion order.
    pub latencies_ns: Vec<u64>,
    /// True when the supervisor shed concurrency at least once.
    pub degraded: bool,
    /// Scenario-worker concurrency at the end of the sweep.
    pub final_concurrency: usize,
    /// The batch lane width scenarios ran with (1 = scalar): always the
    /// configured [`SweepConfig::batch`].
    pub effective_batch: usize,
}

impl SweepReport {
    /// Fresh scenarios per wall-clock second.
    pub fn throughput_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.fresh as f64 / self.wall.as_secs_f64()
    }

    /// Latency percentile in nanoseconds (`q` in [0, 1]).
    pub fn latency_percentile_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[rank]
    }
}

/// A finished sweep: the deterministic manifest + the timing report.
#[derive(Debug)]
pub struct SweepResult {
    pub manifest: Manifest,
    pub report: SweepReport,
}

/// One unit a scenario worker pulls off the [`ScenarioPool`]'s queue: a
/// scalar scenario or a pre-packed batch of compatible ones.
pub(crate) enum WorkItem {
    Single(ScenarioSpec),
    Batch(Vec<ScenarioSpec>),
}

impl WorkItem {
    /// Scenarios this item accounts for (admission is per scenario, not
    /// per item, so `stop_after` keeps its exact meaning under batching).
    pub(crate) fn len(&self) -> usize {
        match self {
            WorkItem::Single(_) => 1,
            WorkItem::Batch(specs) => specs.len(),
        }
    }
}

/// Pack pending scenarios into work items, preserving index order:
/// batchable scenarios (see [`batch::batchable`]) accumulate into
/// batches of `width`; non-batchable ones pass through as singles. A
/// leftover batch of one degrades to a single (the scalar path is the
/// same computation without the SoA detour). `width` may come from an
/// untrusted request, so nothing is sized by it.
pub(crate) fn pack_work_items(
    pending: VecDeque<ScenarioSpec>,
    width: usize,
    faults: &SweepFaultPlan,
) -> VecDeque<WorkItem> {
    if width <= 1 {
        return pending.into_iter().map(WorkItem::Single).collect();
    }
    let mut items = VecDeque::new();
    let mut acc: Vec<ScenarioSpec> = Vec::with_capacity(width.min(pending.len()));
    for spec in pending {
        if batch::batchable(faults.get(spec.index)) {
            acc.push(spec);
            if acc.len() == width {
                items.push_back(WorkItem::Batch(std::mem::take(&mut acc)));
            }
        } else {
            items.push_back(WorkItem::Single(spec));
        }
    }
    match acc.len() {
        0 => {}
        1 => items.push_back(WorkItem::Single(acc.swap_remove(0))),
        _ => items.push_back(WorkItem::Batch(acc)),
    }
    items
}

/// Keep the first `cap` scenarios of `items`, the admission cap of an
/// interrupted sweep: a batch straddling the cap keeps only its admitted
/// lanes, and the rest end `skipped`.
fn admit_first(items: &mut VecDeque<WorkItem>, cap: usize) {
    let mut left = cap;
    items.retain_mut(|item| {
        if let WorkItem::Batch(specs) = item {
            specs.truncate(left);
        }
        let admitted = left > 0;
        left = left.saturating_sub(item.len());
        admitted
    });
}

fn obs_outcome(outcome: &ScenarioOutcome) {
    if !om_obs::is_enabled() {
        return;
    }
    let metrics = om_obs::metrics();
    match outcome {
        ScenarioOutcome::Completed { retries, .. } => {
            metrics.counter("sweep.completed").inc();
            metrics.counter("sweep.retries").add(*retries as u64);
        }
        ScenarioOutcome::Quarantined { .. } => metrics.counter("sweep.quarantined").inc(),
        ScenarioOutcome::DeadlineExceeded { .. } => metrics.counter("sweep.deadline").inc(),
    }
}

/// Check a run's settings against its model, before anything runs: the
/// one check behind `omc sweep` ([`run_sweep`]) and `omc serve` (each
/// `run` request), so both refuse the same settings with the same
/// message. `concurrency` is the scenario workers the run gets.
pub fn check_settings(
    model: &CompiledModel,
    scenarios: &[ScenarioSpec],
    run: &ScenarioRunConfig,
    batch: usize,
    concurrency: usize,
) -> Result<(), String> {
    for (key, value) in [("tend", run.tend), ("h", run.h)] {
        if !(value.is_finite() && value > 0.0) {
            return Err(format!(
                "'{key}' must be a positive finite number, got {value}"
            ));
        }
    }
    if batch == 0 {
        return Err("batch width must be at least 1".into());
    }
    if concurrency == 0 {
        return Err("concurrency must be at least 1".into());
    }
    let mut seen = HashSet::new();
    for spec in scenarios {
        if !seen.insert(spec.index) {
            return Err(format!("duplicate scenario index {}", spec.index));
        }
        if let Some((name, _)) = spec
            .overrides
            .iter()
            .find(|(name, _)| model.ir().find_state(name).is_none())
        {
            return Err(format!(
                "no state named '{name}' in model '{}' (scenario {})",
                model.ir().name,
                spec.index
            ));
        }
    }
    Ok(())
}

/// Run a parameter sweep of `scenarios` over one compiled model.
pub fn run_sweep(
    model: &Arc<CompiledModel>,
    scenarios: &[ScenarioSpec],
    cfg: &SweepConfig,
) -> Result<SweepResult, SweepError> {
    let started = Instant::now();
    check_settings(model, scenarios, &cfg.run, cfg.batch, cfg.concurrency)
        .map_err(SweepError::Config)?;

    let header = CheckpointHeader {
        model_key: model.key().0,
        identity: model.identity(),
        scenarios: scenarios.len(),
    };

    // Resume: carry terminal outcomes forward, bit-for-bit.
    let mut prior: HashMap<usize, ScenarioOutcome> = HashMap::new();
    let mut writer: Option<CheckpointWriter> = None;
    if let Some(path) = &cfg.checkpoint {
        if cfg.resume && path.exists() {
            let loaded = checkpoint::load(path).map_err(SweepError::Checkpoint)?;
            if loaded.header != header {
                return Err(SweepError::CheckpointMismatch {
                    expected: header,
                    found: loaded.header,
                });
            }
            writer = Some(
                CheckpointWriter::append(path, loaded.torn_tail, cfg.checkpoint_every)
                    .map_err(SweepError::Checkpoint)?,
            );
            prior = loaded.outcomes;
        } else {
            writer = Some(
                CheckpointWriter::create(path, &header, cfg.checkpoint_every)
                    .map_err(SweepError::Checkpoint)?,
            );
        }
    }
    let from_checkpoint = scenarios
        .iter()
        .filter(|s| prior.contains_key(&s.index))
        .count();

    // Work queue: everything without a carried-forward terminal state.
    let pending: VecDeque<ScenarioSpec> = scenarios
        .iter()
        .filter(|s| !prior.contains_key(&s.index))
        .cloned()
        .collect();
    let n_pending = pending.len();
    let n_threads = cfg.concurrency.min(n_pending.max(1));

    let mut items = pack_work_items(pending, cfg.batch, &cfg.faults);
    if let Some(cap) = cfg.stop_after {
        admit_first(&mut items, cap);
    }

    // A transient session on the scenario pool: every admitted item is
    // queued up front, and the reply channel closes once each has run or
    // been dropped.
    let pool = ScenarioPool::new(n_threads);
    if pool.threads() == 0 {
        return Err(SweepError::Config(
            "no scenario worker could be spawned".into(),
        ));
    }
    let faults = Arc::new(cfg.faults.clone());
    let (tx, rx) = mpsc::channel();
    for item in items {
        pool.submit(Job {
            model: Arc::clone(model),
            item,
            run: cfg.run,
            faults: Arc::clone(&faults),
            reply: tx.clone(),
        });
    }
    drop(tx);

    // Supervisor: collect results, checkpoint, degrade under pressure.
    // A dying checkpoint device stops admission: the queued items are
    // dropped, their scenarios end `skipped`, and the items already
    // running finish.
    let mut fresh: HashMap<usize, ScenarioOutcome> = HashMap::new();
    let mut latencies_ns = Vec::with_capacity(n_pending);
    let mut consecutive_deadlines = 0u32;
    let mut degraded = false;
    let mut failure: Option<SweepError> = None;
    for lanes in rx {
        for (index, outcome, latency_ns) in lanes {
            if let (Some(w), None) = (writer.as_mut(), &failure) {
                if let Err(e) = w.record(index, &outcome) {
                    failure = Some(SweepError::Checkpoint(e));
                    pool.drop_queued();
                }
            }
            obs_outcome(&outcome);
            match outcome {
                ScenarioOutcome::DeadlineExceeded { .. } => {
                    consecutive_deadlines += 1;
                    if consecutive_deadlines >= SHED_AFTER {
                        consecutive_deadlines = 0;
                        let current = pool.active();
                        if current > 1 {
                            pool.set_active(current / 2);
                            degraded = true;
                            if om_obs::is_enabled() {
                                om_obs::instant("sweep.shed", "ensemble");
                                om_obs::metrics().counter("sweep.sheds").inc();
                            }
                        }
                    }
                }
                ScenarioOutcome::Completed { .. } => consecutive_deadlines = 0,
                ScenarioOutcome::Quarantined { .. } => {}
            }
            latencies_ns.push(latency_ns);
            fresh.insert(index, outcome);
        }
    }
    let final_concurrency = pool.active();
    drop(pool);
    if let Some(w) = writer.as_mut() {
        if let Err(e) = w.flush() {
            failure.get_or_insert(SweepError::Checkpoint(e));
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }

    // The manifest: every scenario exactly once, in index order.
    let mut entries: Vec<(usize, Option<ScenarioOutcome>)> = scenarios
        .iter()
        .map(|s| {
            let outcome = fresh
                .remove(&s.index)
                .or_else(|| prior.get(&s.index).cloned());
            (s.index, outcome)
        })
        .collect();
    entries.sort_by_key(|(i, _)| *i);
    let manifest = Manifest {
        model_key: header.model_key,
        identity: header.identity,
        entries,
    };
    let fresh_count = latencies_ns.len();
    Ok(SweepResult {
        manifest,
        report: SweepReport {
            wall: started.elapsed(),
            fresh: fresh_count,
            from_checkpoint,
            latencies_ns,
            degraded,
            final_concurrency,
            effective_batch: cfg.batch,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const OSC: &str = "model Osc;
        Real x(start=1.0); Real y;
        equation der(x) = y; der(y) = -x; end Osc;";

    fn model() -> Arc<CompiledModel> {
        Arc::new(CompiledModel::compile(OSC).unwrap())
    }

    fn specs(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + i as f64 * 0.01)]))
            .collect()
    }

    fn quick_cfg() -> SweepConfig {
        SweepConfig {
            run: ScenarioRunConfig {
                tend: 0.2,
                h: 0.01,
                backoff_base: Duration::from_micros(50),
                backoff_cap: Duration::from_micros(200),
                ..ScenarioRunConfig::default()
            },
            concurrency: 4,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn clean_sweep_completes_every_scenario() {
        let model = model();
        let result = run_sweep(&model, &specs(16), &quick_cfg()).unwrap();
        assert_eq!(result.manifest.scenarios(), 16);
        assert_eq!(result.manifest.completed(), 16);
        assert!(result.manifest.is_fully_terminal());
        assert_eq!(result.manifest.unaccounted(), 0);
        assert_eq!(result.report.fresh, 16);
        assert!(result.report.throughput_per_sec() > 0.0);
    }

    #[test]
    fn concurrent_sweep_matches_sequential_oracle_bitwise() {
        let model = model();
        let mut seq_cfg = quick_cfg();
        seq_cfg.concurrency = 1;
        let oracle = run_sweep(&model, &specs(12), &seq_cfg).unwrap();
        let concurrent = run_sweep(&model, &specs(12), &quick_cfg()).unwrap();
        assert_eq!(oracle.manifest, concurrent.manifest);
        assert_eq!(
            oracle.manifest.render_json(),
            concurrent.manifest.render_json()
        );
    }

    #[test]
    fn faulted_scenarios_reach_typed_terminal_states() {
        let model = model();
        let mut cfg = quick_cfg();
        cfg.run.deadline = Some(Duration::from_millis(150));
        cfg.faults = SweepFaultPlan::none()
            .inject(
                1,
                ScenarioFault {
                    kind: SweepFaultKind::Panic,
                    after_calls: 2,
                    fail_attempts: 1,
                },
            )
            .inject(
                2,
                ScenarioFault {
                    kind: SweepFaultKind::PoisonNaN,
                    after_calls: 2,
                    fail_attempts: u32::MAX,
                },
            )
            .inject(
                3,
                ScenarioFault {
                    kind: SweepFaultKind::Straggle(Duration::from_millis(400)),
                    after_calls: 1,
                    fail_attempts: u32::MAX,
                },
            );
        let result = run_sweep(&model, &specs(8), &cfg).unwrap();
        let m = &result.manifest;
        assert!(m.is_fully_terminal());
        assert!(matches!(
            m.outcome(1),
            Some(ScenarioOutcome::Completed { retries: 1, .. })
        ));
        assert!(matches!(
            m.outcome(2),
            Some(ScenarioOutcome::Quarantined { .. })
        ));
        assert!(matches!(
            m.outcome(3),
            Some(ScenarioOutcome::DeadlineExceeded { .. })
        ));
        // Healthy scenarios are bitwise-identical to a no-fault oracle.
        let mut oracle_cfg = quick_cfg();
        oracle_cfg.concurrency = 1;
        oracle_cfg.run.deadline = Some(Duration::from_millis(150));
        let oracle = run_sweep(&model, &specs(8), &oracle_cfg).unwrap();
        for i in [0usize, 4, 5, 6, 7] {
            assert_eq!(m.outcome(i), oracle.manifest.outcome(i), "scenario {i}");
        }
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_manifest() {
        let model = model();
        let path =
            std::env::temp_dir().join(format!("om-sweep-resume-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut uninterrupted_cfg = quick_cfg();
        uninterrupted_cfg.concurrency = 1;
        let oracle = run_sweep(&model, &specs(10), &uninterrupted_cfg).unwrap();

        let mut first_cfg = quick_cfg();
        first_cfg.concurrency = 2;
        first_cfg.checkpoint = Some(path.clone());
        first_cfg.checkpoint_every = 1;
        first_cfg.stop_after = Some(4);
        let partial = run_sweep(&model, &specs(10), &first_cfg).unwrap();
        assert!(partial.manifest.skipped() > 0, "stop_after must interrupt");

        let mut resume_cfg = quick_cfg();
        resume_cfg.checkpoint = Some(path.clone());
        resume_cfg.resume = true;
        let resumed = run_sweep(&model, &specs(10), &resume_cfg).unwrap();
        assert!(resumed.report.from_checkpoint >= 4);
        assert_eq!(
            resumed.manifest.render_json(),
            oracle.manifest.render_json()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stop_after_interrupts_at_exactly_the_first_scenarios() {
        let model = model();
        let oracle = run_sweep(&model, &specs(12), &quick_cfg()).unwrap();
        let path =
            std::env::temp_dir().join(format!("om-sweep-stop-after-{}.jsonl", std::process::id()));
        let mut first: Option<String> = None;
        for _ in 0..20 {
            let _ = std::fs::remove_file(&path);
            let mut cfg = quick_cfg();
            cfg.concurrency = 4;
            cfg.checkpoint = Some(path.clone());
            cfg.checkpoint_every = 1;
            cfg.stop_after = Some(7);
            let partial = run_sweep(&model, &specs(12), &cfg).unwrap();
            let rendered = partial.manifest.render_json();
            assert_eq!(first.get_or_insert_with(|| rendered.clone()), &rendered);
            for i in 0..12 {
                assert_eq!(partial.manifest.outcome(i).is_some(), i < 7, "scenario {i}");
            }
        }
        let mut resume_cfg = quick_cfg();
        resume_cfg.checkpoint = Some(path.clone());
        resume_cfg.resume = true;
        let resumed = run_sweep(&model, &specs(12), &resume_cfg).unwrap();
        assert_eq!(resumed.report.from_checkpoint, 7);
        assert_eq!(
            resumed.manifest.render_json(),
            oracle.manifest.render_json()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_refuses_a_different_batch() {
        let model = model();
        let path =
            std::env::temp_dir().join(format!("om-sweep-mismatch-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut cfg = quick_cfg();
        cfg.checkpoint = Some(path.clone());
        run_sweep(&model, &specs(6), &cfg).unwrap();
        cfg.resume = true;
        // Different scenario count → different batch.
        let err = run_sweep(&model, &specs(7), &cfg).unwrap_err();
        assert!(
            matches!(err, SweepError::CheckpointMismatch { .. }),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deadline_storms_shed_concurrency() {
        let model = model();
        let mut cfg = quick_cfg();
        cfg.concurrency = 4;
        cfg.run.deadline = Some(Duration::from_millis(8));
        let mut faults = SweepFaultPlan::none();
        for i in 0..12 {
            faults = faults.inject(
                i,
                ScenarioFault {
                    kind: SweepFaultKind::Straggle(Duration::from_millis(30)),
                    after_calls: 1,
                    fail_attempts: u32::MAX,
                },
            );
        }
        cfg.faults = faults;
        let result = run_sweep(&model, &specs(12), &cfg).unwrap();
        assert!(result.report.degraded, "expected concurrency shedding");
        assert!(result.report.final_concurrency < 4);
        // Shed scenarios are still accounted for (skipped or terminal).
        assert_eq!(result.manifest.scenarios(), 12);
        assert_eq!(
            result.manifest.skipped() + result.manifest.completed() + result.manifest.failed(),
            12
        );
    }

    #[test]
    fn duplicate_indices_are_a_config_error() {
        let model = model();
        let mut dup = specs(3);
        dup[2].index = 0;
        let err = run_sweep(&model, &dup, &quick_cfg()).unwrap_err();
        assert!(matches!(err, SweepError::Config(_)), "{err}");
    }

    #[test]
    fn manifest_json_is_parseable_and_accounts_for_everything() {
        let model = model();
        let result = run_sweep(&model, &specs(5), &quick_cfg()).unwrap();
        let doc = json::parse(&result.manifest.render_json()).unwrap();
        assert_eq!(doc.get("scenarios").and_then(json::Json::as_usize), Some(5));
        assert_eq!(doc.get("completed").and_then(json::Json::as_usize), Some(5));
        assert_eq!(
            doc.get("unaccounted").and_then(json::Json::as_usize),
            Some(0)
        );
        assert_eq!(
            doc.get("entries")
                .and_then(json::Json::as_arr)
                .map(<[_]>::len),
            Some(5)
        );
    }

    #[test]
    fn batched_sweep_matches_scalar_sweep_bitwise() {
        let model = model();
        let mut scalar_cfg = quick_cfg();
        scalar_cfg.concurrency = 1;
        let oracle = run_sweep(&model, &specs(13), &scalar_cfg).unwrap();
        // 13 scenarios over widths that divide unevenly: ragged tails,
        // degenerate width 1, width > N.
        for width in [1usize, 2, 3, 8, 16] {
            let mut cfg = quick_cfg();
            cfg.batch = width;
            let batched = run_sweep(&model, &specs(13), &cfg).unwrap();
            assert_eq!(batched.report.effective_batch, width);
            assert_eq!(
                oracle.manifest.render_json(),
                batched.manifest.render_json(),
                "batch width {width}"
            );
        }
    }

    #[test]
    fn zero_batch_width_is_a_config_error() {
        let model = model();
        let mut cfg = quick_cfg();
        cfg.batch = 0;
        let err = run_sweep(&model, &specs(2), &cfg).unwrap_err();
        assert!(matches!(err, SweepError::Config(_)), "{err}");
    }

    #[test]
    fn batched_sweep_interrupt_and_resume_stays_exact() {
        let model = model();
        let path = std::env::temp_dir().join(format!(
            "om-sweep-batch-resume-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut scalar_cfg = quick_cfg();
        scalar_cfg.concurrency = 1;
        let oracle = run_sweep(&model, &specs(10), &scalar_cfg).unwrap();

        let mut first_cfg = quick_cfg();
        first_cfg.batch = 4;
        first_cfg.concurrency = 1;
        first_cfg.checkpoint = Some(path.clone());
        first_cfg.checkpoint_every = 1;
        first_cfg.stop_after = Some(6);
        let partial = run_sweep(&model, &specs(10), &first_cfg).unwrap();
        assert!(partial.manifest.skipped() > 0, "stop_after must interrupt");

        let mut resume_cfg = quick_cfg();
        resume_cfg.batch = 4;
        resume_cfg.checkpoint = Some(path.clone());
        resume_cfg.resume = true;
        let resumed = run_sweep(&model, &specs(10), &resume_cfg).unwrap();
        assert_eq!(
            resumed.manifest.render_json(),
            oracle.manifest.render_json()
        );
        std::fs::remove_file(&path).ok();
    }
}
