//! Checkpoint/resume properties (ISSUE satellite): killing a sweep at a
//! random checkpoint and resuming must yield a manifest bitwise
//! identical to an uninterrupted run, and quarantined scenarios must
//! stay quarantined across the resume rather than being retried.
//!
//! The "kill" is modelled two ways, composed by the property:
//!
//!   * `stop_after = k` stops admitting scenarios after `k` fresh
//!     results — a clean interrupt between records; and
//!   * truncating the checkpoint file mid-line (or appending a torn
//!     half-record) simulates dying *during* a write. Resume must
//!     discard the torn tail, re-run exactly the scenarios it lost, and
//!     still converge to the same manifest because re-running a
//!     scenario is bit-deterministic.

use om_codegen::registry::CompiledModel;
use om_runtime::{
    run_sweep, ScenarioFault, ScenarioOutcome, ScenarioRunConfig, ScenarioSpec, SweepConfig,
    SweepFaultKind, SweepFaultPlan,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const OSC: &str = "model Osc;
    Real x(start=1.0); Real y;
    equation der(x) = y; der(y) = -x; end Osc;";

const N: usize = 24;
/// Scenario pinned to a deterministic quarantine in every run.
const POISONED: usize = 5;

fn model() -> Arc<CompiledModel> {
    Arc::new(CompiledModel::compile(OSC).unwrap())
}

fn specs() -> Vec<ScenarioSpec> {
    (0..N)
        .map(|i| ScenarioSpec::new(i, vec![("x".into(), 1.0 + i as f64 * 0.01)]))
        .collect()
}

fn faults() -> SweepFaultPlan {
    SweepFaultPlan::none().inject(
        POISONED,
        ScenarioFault {
            kind: SweepFaultKind::PoisonNaN,
            after_calls: 2,
            fail_attempts: u32::MAX,
        },
    )
}

fn base_cfg() -> SweepConfig {
    SweepConfig {
        run: ScenarioRunConfig {
            tend: 0.2,
            h: 0.01,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_micros(200),
            ..ScenarioRunConfig::default()
        },
        faults: faults(),
        checkpoint_every: 1,
        ..SweepConfig::default()
    }
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("om-resume-{}-{tag}.jsonl", std::process::id()))
}

/// Damage the checkpoint the way a crash mid-write would: mode 1
/// appends a torn half-record with no trailing newline; mode 2 chops
/// bytes off the final record. Mode 2 needs at least one full record
/// beyond the header or it would corrupt the header itself (which
/// resume is *supposed* to reject), so it degrades to mode 1 then.
fn damage_checkpoint(path: &PathBuf, mode: u8, chop: usize) {
    let bytes = std::fs::read(path).unwrap();
    let lines = bytes.iter().filter(|b| **b == b'\n').count();
    match mode {
        1 => {
            let mut damaged = bytes;
            damaged.extend_from_slice(b"{\"index\":999,\"status\":\"comp");
            std::fs::write(path, damaged).unwrap();
        }
        2 if lines >= 2 => {
            // Strip the final newline, then chop into the last record.
            let end = bytes.len() - 1;
            let line_start = bytes[..end].iter().rposition(|b| *b == b'\n').unwrap() + 1;
            let keep = end - (chop % (end - line_start).max(1));
            std::fs::write(path, &bytes[..keep]).unwrap();
        }
        2 => damage_checkpoint(path, 1, chop),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill at a random admission point, optionally tear the checkpoint
    /// tail, resume: the resumed manifest renders byte-identically to an
    /// uninterrupted sequential run of the same batch, and the poisoned
    /// scenario is quarantined in both.
    #[test]
    fn prop_kill_and_resume_is_bitwise_identical(
        kill in 0usize..N,
        damage_mode in 0u8..3,
        chop in 1usize..40,
        case in 0u64..1_000_000,
    ) {
        let model = model();
        let path = tmp_path(&format!("prop-{case}-{kill}-{damage_mode}-{chop}"));
        let _ = std::fs::remove_file(&path);

        let mut oracle_cfg = base_cfg();
        oracle_cfg.concurrency = 1;
        let oracle = run_sweep(&model, &specs(), &oracle_cfg).unwrap();

        let mut first_cfg = base_cfg();
        first_cfg.concurrency = 3;
        first_cfg.checkpoint = Some(path.clone());
        first_cfg.stop_after = Some(kill);
        let first = run_sweep(&model, &specs(), &first_cfg).unwrap();
        prop_assert_eq!(first.report.fresh, kill.min(N), "admission cap is exact");

        damage_checkpoint(&path, damage_mode, chop);

        let mut resume_cfg = base_cfg();
        resume_cfg.concurrency = 3;
        resume_cfg.checkpoint = Some(path.clone());
        resume_cfg.resume = true;
        let resumed = run_sweep(&model, &specs(), &resume_cfg).unwrap();

        prop_assert!(resumed.manifest.is_fully_terminal());
        prop_assert_eq!(resumed.manifest.render_json(), oracle.manifest.render_json());
        prop_assert!(matches!(
            resumed.manifest.outcome(POISONED),
            Some(ScenarioOutcome::Quarantined { .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}

/// Quarantine persists *without re-execution*: resuming a finished sweep
/// with an empty fault plan must carry the quarantined outcome forward
/// from the checkpoint. If the driver wrongly re-ran the scenario it
/// would now complete (no fault injected), which this test would catch.
#[test]
fn quarantine_is_carried_forward_not_retried() {
    let model = model();
    let path = tmp_path("carry");
    let _ = std::fs::remove_file(&path);

    let mut cfg = base_cfg();
    cfg.checkpoint = Some(path.clone());
    let first = run_sweep(&model, &specs(), &cfg).unwrap();
    assert_eq!(first.manifest.quarantined(), 1);

    let mut resume_cfg = base_cfg();
    resume_cfg.faults = SweepFaultPlan::none();
    resume_cfg.checkpoint = Some(path.clone());
    resume_cfg.resume = true;
    let resumed = run_sweep(&model, &specs(), &resume_cfg).unwrap();
    assert_eq!(resumed.report.fresh, 0, "nothing should re-run");
    assert_eq!(resumed.report.from_checkpoint, N);
    assert!(
        matches!(
            resumed.manifest.outcome(POISONED),
            Some(ScenarioOutcome::Quarantined { .. })
        ),
        "quarantine must persist across resume"
    );
    assert_eq!(first.manifest.render_json(), resumed.manifest.render_json());
    std::fs::remove_file(&path).ok();
}

/// A checkpoint torn in the *middle* (not the tail) is data loss resume
/// cannot silently paper over — it must be a hard checkpoint error.
#[test]
fn mid_file_corruption_is_rejected() {
    let model = model();
    let path = tmp_path("midfile");
    let _ = std::fs::remove_file(&path);

    let mut cfg = base_cfg();
    cfg.checkpoint = Some(path.clone());
    run_sweep(&model, &specs(), &cfg).unwrap();

    // Corrupt a record that is not the final line.
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 3);
    lines[2] = "{\"index\":1,\"status\":\"comp";
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    let mut resume_cfg = base_cfg();
    resume_cfg.checkpoint = Some(path.clone());
    resume_cfg.resume = true;
    let err = run_sweep(&model, &specs(), &resume_cfg).unwrap_err();
    assert!(
        matches!(err, om_runtime::SweepError::Checkpoint(_)),
        "mid-file corruption must be a checkpoint error, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// A checkpoint does not depend on the lane width that wrote it: a
/// bearing sweep killed while running scalar resumes with 8-lane batches,
/// or scalar again, to the uninterrupted manifest byte for byte.
#[test]
fn resume_across_lane_widths_is_bitwise_identical() {
    let source = om_models::bearing2d::source(&om_models::bearing2d::BearingConfig {
        rollers: 3,
        ..Default::default()
    });
    let model = Arc::new(CompiledModel::compile(&source).unwrap());
    let specs: Vec<ScenarioSpec> = (0..6)
        .map(|i| ScenarioSpec::new(i, vec![("y".into(), -5e-5 + 0.4e-5 * i as f64)]))
        .collect();
    let cfg = |batch: usize| SweepConfig {
        run: ScenarioRunConfig {
            tend: 2e-4,
            h: 1e-5,
            ..ScenarioRunConfig::default()
        },
        checkpoint_every: 1,
        batch,
        ..SweepConfig::default()
    };
    let oracle = run_sweep(&model, &specs, &cfg(1)).unwrap();
    for resume_batch in [8, 1] {
        let path = tmp_path(&format!("lanes-{resume_batch}"));
        let _ = std::fs::remove_file(&path);
        let mut first = cfg(1);
        first.checkpoint = Some(path.clone());
        first.stop_after = Some(2);
        run_sweep(&model, &specs, &first).unwrap();
        let mut resume = cfg(resume_batch);
        resume.checkpoint = Some(path.clone());
        resume.resume = true;
        let resumed = run_sweep(&model, &specs, &resume).unwrap();
        assert_eq!(resumed.report.from_checkpoint, 2);
        assert_eq!(
            resumed.manifest.render_json(),
            oracle.manifest.render_json(),
            "resumed at batch {resume_batch}"
        );
        std::fs::remove_file(&path).ok();
    }
}
