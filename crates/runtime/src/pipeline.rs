//! Pipeline parallelism between equation subsystems (paper §2.1).
//!
//! "An additional possibility is pipe-line parallelism between the
//! solution of equation systems: values produced from the solution of
//! one system are continuously passed as input for the solution of
//! another system."
//!
//! Each stage (one SCC subsystem, or a group of them) runs on its own
//! thread with its own solver instance. After every macro step a stage
//! sends its state snapshot downstream; stage `k` integrates macro step
//! `m` while stage `k−1` is already working on step `m+1`, so a chain of
//! `S` comparably heavy stages completes in ≈ `1/S` of the sequential
//! co-simulation time once the pipeline is full.
//!
//! Coupling semantics: inputs are zero-order-held over each macro step at
//! the upstream value from the *start* of the step — the same one-step
//! transport delay any pipelined integrator exhibits.
//!
//! Failure semantics: nothing here panics across the API boundary. Bad
//! couplings or configuration return [`RuntimeError`] before any thread
//! starts; a stage whose solver fails returns the [`SolveError`] (wrapped
//! in [`RuntimeError::Solve`]); a stage that panics is reported as
//! [`RuntimeError::StagePanicked`]. A failing stage drops its channel
//! endpoints, which unblocks every peer with a disconnect — so one dead
//! stage winds the whole pipeline down instead of deadlocking it.

use crate::error::RuntimeError;
use om_solver::{dopri5, SolveStats, Tolerances};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::{Duration, Instant};

/// RHS of one pipeline stage: `(t, y, inputs, dydt)`. Must be `Send`
/// because every stage runs on its own thread.
pub type StageRhs = Box<dyn FnMut(f64, &[f64], &[f64], &mut [f64]) + Send>;

/// What one stage thread produces: final state, solver stats, busy time.
type StageOutcome = Result<(Vec<f64>, SolveStats, Duration), RuntimeError>;

/// One stage of the pipeline.
pub struct PipelineStage {
    pub name: String,
    pub dim: usize,
    pub n_inputs: usize,
    pub rhs: StageRhs,
    pub y0: Vec<f64>,
}

/// Input `dst_input` of stage `dst_stage` is fed by state `src_state` of
/// the *upstream* stage `src_stage` (`src_stage < dst_stage`).
#[derive(Clone, Copy, Debug)]
pub struct PipelineCoupling {
    pub dst_stage: usize,
    pub dst_input: usize,
    pub src_stage: usize,
    pub src_state: usize,
}

/// Result of a pipelined run.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Final state per stage.
    pub finals: Vec<Vec<f64>>,
    /// Solver work per stage.
    pub stats: Vec<SolveStats>,
    /// Wall-clock of the whole pipelined run.
    pub wall: Duration,
    /// Sum of per-stage busy times (what a sequential co-simulation
    /// would cost) — `wall < busy_total` demonstrates overlap.
    pub busy_total: Duration,
}

fn validate(
    stages: &[PipelineStage],
    couplings: &[PipelineCoupling],
    macro_steps: usize,
) -> Result<(), RuntimeError> {
    if macro_steps < 1 {
        return Err(RuntimeError::InvalidConfig {
            reason: "pipeline needs at least one macro step".into(),
        });
    }
    let n = stages.len();
    for c in couplings {
        if c.src_stage >= c.dst_stage {
            return Err(RuntimeError::InvalidCoupling {
                reason: format!(
                    "couplings must point downstream (src_stage {} >= dst_stage {})",
                    c.src_stage, c.dst_stage
                ),
            });
        }
        if c.dst_stage >= n {
            return Err(RuntimeError::InvalidCoupling {
                reason: format!("dst_stage {} out of range ({n} stages)", c.dst_stage),
            });
        }
        if c.dst_input >= stages[c.dst_stage].n_inputs {
            return Err(RuntimeError::InvalidCoupling {
                reason: format!(
                    "dst_input {} out of range for stage '{}' ({} inputs)",
                    c.dst_input, stages[c.dst_stage].name, stages[c.dst_stage].n_inputs
                ),
            });
        }
        if c.src_state >= stages[c.src_stage].dim {
            return Err(RuntimeError::InvalidCoupling {
                reason: format!(
                    "src_state {} out of range for stage '{}' (dim {})",
                    c.src_state, stages[c.src_stage].name, stages[c.src_stage].dim
                ),
            });
        }
    }
    Ok(())
}

/// Run `stages` as a thread pipeline over `[t0, tend]` with
/// `macro_steps` communication points.
///
/// Invalid couplings or configuration are rejected with a typed error
/// before any stage thread starts.
pub fn run_pipeline(
    mut stages: Vec<PipelineStage>,
    couplings: &[PipelineCoupling],
    t0: f64,
    tend: f64,
    macro_steps: usize,
    tol: Tolerances,
) -> Result<PipelineResult, RuntimeError> {
    validate(&stages, couplings, macro_steps)?;
    let n = stages.len();
    let names: Vec<String> = stages.iter().map(|s| s.name.clone()).collect();

    // One channel per (src, dst) stage pair that actually communicates.
    let mut pairs: Vec<(usize, usize)> = couplings
        .iter()
        .map(|c| (c.src_stage, c.dst_stage))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut senders: Vec<Vec<(usize, SyncSender<Vec<f64>>)>> = (0..n).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<(usize, Receiver<Vec<f64>>)>> = (0..n).map(|_| Vec::new()).collect();
    for &(src, dst) in &pairs {
        // Capacity 1: classic pipeline back-pressure (a stage may run at
        // most one macro step ahead of its consumers).
        let (tx, rx) = sync_channel::<Vec<f64>>(1);
        senders[src].push((dst, tx));
        receivers[dst].push((src, rx));
    }

    let couplings: Vec<PipelineCoupling> = couplings.to_vec();
    let wall_start = Instant::now();
    let results: Vec<StageOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (idx, stage) in stages.drain(..).enumerate() {
            let my_senders = std::mem::take(&mut senders[idx]);
            let my_receivers = std::mem::take(&mut receivers[idx]);
            let couplings = &couplings;
            handles.push(scope.spawn(move || {
                stage_main(
                    idx,
                    stage,
                    my_senders,
                    my_receivers,
                    couplings,
                    t0,
                    tend,
                    macro_steps,
                    tol,
                )
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(idx, h)| match h.join() {
                Ok(r) => r,
                // A panicking stage drops its channel endpoints, which
                // unblocks its peers; here we just type the report.
                Err(_) => Err(RuntimeError::StagePanicked {
                    stage: names[idx].clone(),
                }),
            })
            .collect()
    });
    let wall = wall_start.elapsed();

    // A stage failure makes its peers see channel disconnects; report the
    // root cause (solver error / panic) in preference to the knock-ons.
    if results.iter().any(|r| r.is_err()) {
        let mut errors: Vec<RuntimeError> = results.into_iter().filter_map(Result::err).collect();
        let root = errors
            .iter()
            .position(|e| !matches!(e, RuntimeError::ChannelClosed { .. }))
            .unwrap_or(0);
        return Err(errors.swap_remove(root));
    }

    let mut finals = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    let mut busy_total = Duration::ZERO;
    // Errors were handled above; this collects the successes.
    for (y, s, busy) in results.into_iter().flatten() {
        finals.push(y);
        stats.push(s);
        busy_total += busy;
    }
    Ok(PipelineResult {
        finals,
        stats,
        wall,
        busy_total,
    })
}

#[allow(clippy::too_many_arguments)]
fn stage_main(
    idx: usize,
    mut stage: PipelineStage,
    senders: Vec<(usize, SyncSender<Vec<f64>>)>,
    receivers: Vec<(usize, Receiver<Vec<f64>>)>,
    couplings: &[PipelineCoupling],
    t0: f64,
    tend: f64,
    macro_steps: usize,
    tol: Tolerances,
) -> StageOutcome {
    let mut y = stage.y0.clone();
    let mut stats = SolveStats::default();
    let mut busy = Duration::ZERO;
    // Latest received upstream snapshots by source stage.
    let mut upstream: std::collections::HashMap<usize, Vec<f64>> = std::collections::HashMap::new();
    // Upstream initial states arrive as the first message.
    let dt = (tend - t0) / macro_steps as f64;

    // Send own initial state downstream before the first step.
    for (_, tx) in &senders {
        tx.send(y.clone())
            .map_err(|_| RuntimeError::ChannelClosed {
                what: "pipeline downstream stage",
            })?;
    }

    for step in 0..macro_steps {
        // Receive upstream states for the start of this step. A dead
        // upstream stage surfaces as a disconnect, not a hang.
        for (src, rx) in &receivers {
            let snapshot = rx.recv().map_err(|_| RuntimeError::ChannelClosed {
                what: "pipeline upstream stage",
            })?;
            upstream.insert(*src, snapshot);
        }
        let mut inputs = vec![0.0; stage.n_inputs];
        for c in couplings {
            if c.dst_stage == idx {
                inputs[c.dst_input] = upstream[&c.src_stage][c.src_state];
            }
        }
        let t_start = t0 + step as f64 * dt;
        let t_stop = if step + 1 == macro_steps {
            tend
        } else {
            t_start + dt
        };
        struct WithInputs<'a> {
            dim: usize,
            inputs: &'a [f64],
            rhs: &'a mut StageRhs,
        }
        impl om_solver::OdeSystem for WithInputs<'_> {
            fn dim(&self) -> usize {
                self.dim
            }
            fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
                (self.rhs)(t, y, self.inputs, dydt)
            }
        }
        let mut sys = WithInputs {
            dim: stage.dim,
            inputs: &inputs,
            rhs: &mut stage.rhs,
        };
        let busy_start = Instant::now();
        let chunk = dopri5(&mut sys, t_start, &y, t_stop, &tol)?;
        busy += busy_start.elapsed();
        y = chunk.y_end().to_vec();
        stats.merge(&chunk.stats);
        // Send the new state downstream (not needed after the last step).
        if step + 1 < macro_steps {
            for (_, tx) in &senders {
                tx.send(y.clone())
                    .map_err(|_| RuntimeError::ChannelClosed {
                        what: "pipeline downstream stage",
                    })?;
            }
        }
    }
    Ok((y, stats, busy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Condvar, Mutex};

    /// A three-stage cascade of relaxations: s0 → s1 → s2.
    fn cascade() -> (Vec<PipelineStage>, Vec<PipelineCoupling>) {
        cascade_with(|_stage, _t| {})
    }

    /// The cascade with `on_rhs(stage, t)` run at the top of every RHS call.
    fn cascade_with(
        on_rhs: impl Fn(usize, f64) + Clone + Send + 'static,
    ) -> (Vec<PipelineStage>, Vec<PipelineCoupling>) {
        let mk = |idx: usize| {
            let on_rhs = on_rhs.clone();
            PipelineStage {
                name: format!("s{idx}"),
                dim: 1,
                n_inputs: usize::from(idx > 0),
                rhs: Box::new(move |t, y: &[f64], u: &[f64], d: &mut [f64]| {
                    on_rhs(idx, t);
                    let drive = if u.is_empty() { 1.0 } else { u[0] };
                    d[0] = drive - y[0];
                }),
                y0: vec![0.0],
            }
        };
        let stages = vec![mk(0), mk(1), mk(2)];
        let couplings = vec![
            PipelineCoupling {
                dst_stage: 1,
                dst_input: 0,
                src_stage: 0,
                src_state: 0,
            },
            PipelineCoupling {
                dst_stage: 2,
                dst_input: 0,
                src_stage: 1,
                src_state: 0,
            },
        ];
        (stages, couplings)
    }

    #[test]
    fn pipeline_converges_to_the_cascade_fixed_point() {
        let (stages, couplings) = cascade();
        let r = run_pipeline(stages, &couplings, 0.0, 30.0, 60, Tolerances::default()).unwrap();
        // Every stage relaxes to 1 through the cascade.
        for (k, f) in r.finals.iter().enumerate() {
            assert!((f[0] - 1.0).abs() < 0.05, "stage {k}: {}", f[0]);
        }
    }

    #[test]
    fn refinement_reduces_transport_delay_error() {
        let run = |steps: usize| {
            let (stages, couplings) = cascade();
            run_pipeline(stages, &couplings, 0.0, 4.0, steps, Tolerances::default())
                .unwrap()
                .finals[2][0]
        };
        // Analytic: stages are x' = u - x chained from u = 1;
        // final stage value = 1 - e^{-t}(1 + t + t²/2) at t = 4.
        let t = 4.0f64;
        let exact = 1.0 - (-t).exp() * (1.0 + t + t * t / 2.0);
        let coarse = (run(8) - exact).abs();
        let fine = (run(64) - exact).abs();
        assert!(fine < coarse, "coarse {coarse} fine {fine}");
        assert!(fine < 0.02, "{fine}");
    }

    #[test]
    fn stages_overlap_in_time() {
        // Stages are not serialised per macro step: stage 0 is inside
        // macro step 1 while stage 2 is still inside macro step 0. The
        // interleaving is forced, not hoped for — stage 2's first RHS
        // call waits until the shared event log shows stage 0 past the
        // first communication point — so the outcome does not depend on
        // core count or host load; a pipeline that held stage 0 back
        // until stage 2 finished the step would time the wait out.
        let (tend, macro_steps) = (10.0, 20);
        let dt = tend / macro_steps as f64;
        let log = Arc::new((Mutex::new(Vec::<(usize, f64)>::new()), Condvar::new()));
        let record = {
            let log = Arc::clone(&log);
            move |stage: usize, t: f64| {
                let (events, changed) = &*log;
                let mut events = events.lock().unwrap();
                if stage == 2 && events.iter().all(|&(s, _)| s != 2) {
                    events = changed
                        .wait_timeout_while(events, Duration::from_secs(10), |seen| {
                            !seen.iter().any(|&(s, t)| s == 0 && t > dt)
                        })
                        .unwrap()
                        .0;
                }
                events.push((stage, t));
                changed.notify_all();
            }
        };
        let (stages, couplings) = cascade_with(record);
        let tol = Tolerances::default();
        run_pipeline(stages, &couplings, 0.0, tend, macro_steps, tol).unwrap();

        let events = log.0.lock().unwrap();
        let s0_in_step_1 = events.iter().position(|&(s, t)| s == 0 && t > dt);
        let s2_in_step_0 = events.iter().rposition(|&(s, t)| s == 2 && t < dt);
        assert!(
            s0_in_step_1.is_some() && s0_in_step_1 < s2_in_step_0,
            "stage 0 entered macro step 1 at event {s0_in_step_1:?}, \
             stage 2 was last inside macro step 0 at event {s2_in_step_0:?}"
        );
    }

    #[test]
    fn upstream_coupling_is_rejected_with_typed_error() {
        let (stages, mut couplings) = cascade();
        couplings[0].src_stage = 2;
        couplings[0].dst_stage = 0;
        let err = run_pipeline(stages, &couplings, 0.0, 1.0, 2, Tolerances::default()).unwrap_err();
        match err {
            RuntimeError::InvalidCoupling { reason } => {
                assert!(reason.contains("downstream"), "{reason}");
            }
            other => panic!("expected InvalidCoupling, got {other:?}"),
        }
    }

    #[test]
    fn panicking_stage_is_reported_not_deadlocked() {
        let (mut stages, couplings) = cascade();
        stages[1].rhs = Box::new(|_t, _y, _u, _d| panic!("stage blew up"));
        let err = run_pipeline(stages, &couplings, 0.0, 1.0, 4, Tolerances::default()).unwrap_err();
        match err {
            RuntimeError::StagePanicked { stage } => assert_eq!(stage, "s1"),
            other => panic!("expected StagePanicked, got {other:?}"),
        }
    }

    #[test]
    fn failing_stage_solver_error_propagates() {
        let (mut stages, couplings) = cascade();
        // NaN derivatives force the adaptive solver to shrink h to death.
        stages[2].rhs = Box::new(|_t, _y, _u, d: &mut [f64]| d[0] = f64::NAN);
        let err = run_pipeline(stages, &couplings, 0.0, 1.0, 4, Tolerances::default()).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Solve(_)),
            "expected Solve, got {err:?}"
        );
    }

    #[test]
    fn independent_stages_need_no_channels() {
        let stages = vec![
            PipelineStage {
                name: "a".into(),
                dim: 1,
                n_inputs: 0,
                rhs: Box::new(|_t, y: &[f64], _u: &[f64], d: &mut [f64]| d[0] = -y[0]),
                y0: vec![1.0],
            },
            PipelineStage {
                name: "b".into(),
                dim: 1,
                n_inputs: 0,
                rhs: Box::new(|_t, y: &[f64], _u: &[f64], d: &mut [f64]| d[0] = -2.0 * y[0]),
                y0: vec![1.0],
            },
        ];
        let r = run_pipeline(stages, &[], 0.0, 1.0, 4, Tolerances::default()).unwrap();
        assert!((r.finals[0][0] - (-1.0f64).exp()).abs() < 1e-5);
        assert!((r.finals[1][0] - (-2.0f64).exp()).abs() < 1e-5);
    }
}
