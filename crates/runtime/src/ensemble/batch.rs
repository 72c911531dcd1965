//! Batched scenario execution: pack K compatible scenarios into one
//! structure-of-arrays integration ([`om_solver::rk4_batch`] over
//! [`om_codegen::task::TaskGraph::eval_batch`]) and scatter per-lane
//! outcomes back out.
//!
//! The contract inherited from the scalar path is *bitwise identity*:
//! every lane of a batched run must produce the exact
//! [`ScenarioOutcome`] — same `t_bits`/`y_bits`, same error strings,
//! same attempt counts — that [`run_scenario`] produces for that
//! scenario alone. That holds because the batched VM and stepper perform
//! the same scalar f64 operations in the same order per lane (no
//! cross-lane arithmetic) on the same lockstep time grid.
//!
//! Fault routing:
//!
//! * **Batchable** scenarios have no fault or a `PoisonNaN` fault. NaN
//!   poison is lane-local by construction (it writes one lane's
//!   derivative columns) and deterministic, so a poisoned lane is
//!   quarantined by the stepper's per-lane finite check while its
//!   batch-mates continue untouched.
//! * **Non-batchable** scenarios (`Panic`, `Straggle`) never enter a
//!   batch: a panic unwinds the whole call stack and a straggler burns
//!   the *shared* wall clock, so neither can be attributed to one lane.
//!   They run scalar through [`run_scenario`] with its full retry
//!   envelope.
//! * **Batch-global failures** (deadline, RHS failure, a panic that
//!   slipped through) fall back to one scalar [`run_scenario`] per lane
//!   with a fresh budget envelope — the sweep degrades to exactly the
//!   PR-6 scalar semantics instead of inventing new terminal states.

use super::scenario::{
    run_scenario, ScenarioFault, ScenarioOutcome, ScenarioRunConfig, ScenarioSpec, ScenarioSystem,
    SweepFaultKind, SweepFaultPlan,
};
use om_codegen::registry::CompiledModel;
use om_codegen::task::BatchScratch;
use om_solver::{rk4_batch, Budget};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Can this scenario share a batch with others? Only faults that are
/// provably lane-local qualify; `None` trivially is.
pub(crate) fn batchable(fault: Option<&ScenarioFault>) -> bool {
    match fault {
        None => true,
        Some(f) => matches!(f.kind, SweepFaultKind::PoisonNaN),
    }
}

/// Run up to K scenarios as one batched integration, returning one
/// terminal outcome per input spec (same order as `specs`). Lanes the
/// batch cannot settle — batch-global deadline, RHS failure, or panic —
/// are rerun scalar with a fresh envelope.
pub(crate) fn run_scenario_batch(
    model: &CompiledModel,
    specs: &[ScenarioSpec],
    plan: &SweepFaultPlan,
    cfg: &ScenarioRunConfig,
) -> Vec<(usize, ScenarioOutcome)> {
    let mut outcomes: Vec<(usize, Option<ScenarioOutcome>)> =
        specs.iter().map(|s| (s.index, None)).collect();

    // Config errors (unknown override names) are deterministic and
    // lane-local: quarantine them before the batch forms, exactly as the
    // scalar path does (`attempts: 0`, never integrated).
    let mut live: Vec<usize> = Vec::with_capacity(specs.len());
    let mut y0_lanes: Vec<Vec<f64>> = Vec::with_capacity(specs.len());
    for (pos, spec) in specs.iter().enumerate() {
        match spec.initial_state(model) {
            Ok(y0) => {
                live.push(pos);
                y0_lanes.push(y0);
            }
            Err(error) => {
                outcomes[pos].1 = Some(ScenarioOutcome::Quarantined { attempts: 0, error });
            }
        }
    }

    if !live.is_empty() {
        let lanes = live.len();
        let dim = model.dim();
        let graph = model.graph();
        // SoA gather: lane index innermost.
        let mut y0 = vec![0.0; dim * lanes];
        for (l, lane_y0) in y0_lanes.iter().enumerate() {
            for i in 0..dim {
                y0[i * lanes + l] = lane_y0[i];
            }
        }
        let faults: Vec<Option<ScenarioFault>> = live
            .iter()
            .map(|&pos| plan.get(specs[pos].index).copied())
            .collect();
        let mut scratch = BatchScratch::new(graph, lanes);
        let mut sys = ScenarioSystem {
            graph,
            scratch: &mut scratch,
            faults: &faults,
            attempt: 0,
            calls: 0,
        };
        let budget = Budget {
            deadline: cfg.deadline.map(|d| Instant::now() + d),
            max_rhs_calls: cfg.max_rhs_calls,
        };
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            rk4_batch(&mut sys, 0.0, &y0, cfg.tend, cfg.h, &budget)
        }));
        if let Ok(Ok(sol)) = attempt {
            for (l, &pos) in live.iter().enumerate() {
                match &sol.lane_status[l] {
                    Ok(()) => {
                        outcomes[pos].1 = Some(ScenarioOutcome::Completed {
                            retries: 0,
                            rhs_calls: sol.stats.rhs_calls as u64,
                            t_bits: sol.t_end.to_bits(),
                            y_bits: (0..dim)
                                .map(|i| sol.y_end[i * lanes + l].to_bits())
                                .collect(),
                        });
                    }
                    Err(e) if e.is_deterministic() => {
                        outcomes[pos].1 = Some(ScenarioOutcome::Quarantined {
                            attempts: 1,
                            error: e.to_string(),
                        });
                    }
                    // A transient lane error cannot come out of rk4_batch
                    // today (those are batch-global), but route it to the
                    // scalar path rather than guessing a terminal state.
                    Err(_) => {}
                }
            }
        }
        // else: batch-global failure or panic — every live lane falls
        // through to the scalar rerun below with a fresh envelope.
    }

    // Scalar fallback for anything the batch did not settle.
    for (pos, (_, slot)) in outcomes.iter_mut().enumerate() {
        if slot.is_none() {
            let spec = &specs[pos];
            *slot = Some(run_scenario(model, spec, plan.get(spec.index), cfg));
        }
    }

    outcomes
        .into_iter()
        .map(|(index, outcome)| {
            let outcome = outcome.unwrap_or(ScenarioOutcome::Quarantined {
                attempts: 0,
                error: "batch bookkeeping lost a lane".into(),
            });
            (index, outcome)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const OSC: &str = "model Osc;
        Real x(start=1.0); Real y;
        equation der(x) = y; der(y) = -x; end Osc;";

    fn model() -> CompiledModel {
        CompiledModel::compile(OSC).unwrap()
    }

    fn quick_cfg() -> ScenarioRunConfig {
        ScenarioRunConfig {
            tend: 0.5,
            h: 0.01,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(400),
            ..ScenarioRunConfig::default()
        }
    }

    fn specs(n: usize) -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + 0.1 * i as f64)]))
            .collect()
    }

    fn scalar_oracle(
        model: &CompiledModel,
        spec: &ScenarioSpec,
        plan: &SweepFaultPlan,
        cfg: &ScenarioRunConfig,
    ) -> ScenarioOutcome {
        run_scenario(model, spec, plan.get(spec.index), cfg)
    }

    #[test]
    fn batchability_routes_by_fault_kind() {
        assert!(batchable(None));
        let f = |kind| ScenarioFault {
            kind,
            after_calls: 1,
            fail_attempts: u32::MAX,
        };
        assert!(batchable(Some(&f(SweepFaultKind::PoisonNaN))));
        assert!(!batchable(Some(&f(SweepFaultKind::Panic))));
        assert!(!batchable(Some(&f(SweepFaultKind::Straggle(
            Duration::from_millis(1)
        )))));
    }

    #[test]
    fn clean_batch_matches_scalar_outcomes_exactly() {
        let model = model();
        let cfg = quick_cfg();
        let plan = SweepFaultPlan::none();
        let specs = specs(5);
        let batched = run_scenario_batch(&model, &specs, &plan, &cfg);
        assert_eq!(batched.len(), 5);
        for (spec, (index, outcome)) in specs.iter().zip(&batched) {
            assert_eq!(spec.index, *index);
            assert_eq!(outcome, &scalar_oracle(&model, spec, &plan, &cfg));
        }
    }

    #[test]
    fn config_error_lane_is_quarantined_without_poisoning_siblings() {
        let model = model();
        let cfg = quick_cfg();
        let plan = SweepFaultPlan::none();
        let mut specs = specs(4);
        specs[1] = ScenarioSpec::new(1, vec![("bogus".into(), 1.0)]);
        let batched = run_scenario_batch(&model, &specs, &plan, &cfg);
        let ScenarioOutcome::Quarantined { attempts, error } = &batched[1].1 else {
            panic!("expected quarantine, got {:?}", batched[1].1);
        };
        assert_eq!(*attempts, 0);
        assert!(error.contains("bogus"));
        for pos in [0usize, 2, 3] {
            assert_eq!(
                batched[pos].1,
                scalar_oracle(&model, &specs[pos], &plan, &cfg),
                "sibling lane {pos}"
            );
        }
    }

    #[test]
    fn nan_poisoned_lane_quarantines_while_siblings_stay_bitwise_clean() {
        let model = model();
        let cfg = quick_cfg();
        let plan = SweepFaultPlan::none().inject(
            2,
            ScenarioFault {
                kind: SweepFaultKind::PoisonNaN,
                after_calls: 3,
                fail_attempts: u32::MAX,
            },
        );
        let specs = specs(6);
        let batched = run_scenario_batch(&model, &specs, &plan, &cfg);
        // Faulted lane: identical quarantine to its scalar run (same
        // error string, same attempt count).
        assert_eq!(batched[2].1, scalar_oracle(&model, &specs[2], &plan, &cfg));
        assert!(matches!(
            batched[2].1,
            ScenarioOutcome::Quarantined { attempts: 1, .. }
        ));
        // Siblings: bitwise identical to an entirely unfaulted run.
        let clean = SweepFaultPlan::none();
        for pos in [0usize, 1, 3, 4, 5] {
            assert_eq!(
                batched[pos].1,
                scalar_oracle(&model, &specs[pos], &clean, &cfg),
                "sibling lane {pos}"
            );
        }
    }

    #[test]
    fn batch_global_deadline_falls_back_to_scalar_per_lane() {
        let model = model();
        // Zero deadline: the batch attempt dies immediately and every
        // lane is rerun scalar — where each rerun gets a fresh (also
        // zero) envelope and lands on the scalar terminal state.
        let cfg = ScenarioRunConfig {
            deadline: Some(Duration::ZERO),
            ..quick_cfg()
        };
        let plan = SweepFaultPlan::none();
        let specs = specs(3);
        let batched = run_scenario_batch(&model, &specs, &plan, &cfg);
        for (spec, (_, outcome)) in specs.iter().zip(&batched) {
            assert_eq!(outcome, &scalar_oracle(&model, spec, &plan, &cfg));
            assert!(matches!(
                outcome,
                ScenarioOutcome::DeadlineExceeded { attempts: 1 }
            ));
        }
    }

    #[test]
    fn single_lane_batch_degenerates_to_scalar() {
        let model = model();
        let cfg = quick_cfg();
        let plan = SweepFaultPlan::none();
        let specs = specs(1);
        let batched = run_scenario_batch(&model, &specs, &plan, &cfg);
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0].1, scalar_oracle(&model, &specs[0], &plan, &cfg));
    }
}
