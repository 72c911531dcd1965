//! Golden trace test: a fixed 2-worker pipeline run produces a stable,
//! schema-valid chrome-trace event sequence.
//!
//! Timestamps and thread ids are nondeterministic, so the snapshot holds
//! the *normalized* structure: per-thread `(phase, name)` sequences with
//! worker threads identified by their deterministic `om-worker-N.E`
//! names. Timestamp monotonicity and `B`/`E` nesting are checked
//! structurally by `validate_chrome_json`, which fails on any trace whose
//! spans are unbalanced or whose clock runs backwards within a thread.
//!
//! Regenerate the snapshot after an intentional instrumentation change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use objectmath::codegen::{CodeGenerator, GenOptions};
use objectmath::ir::causalize;
use objectmath::runtime::{ExecutorPool, Strategy};

const GOLDEN_PATH: &str = "tests/golden/trace_2worker.txt";

/// Map a raw thread name onto a stable track label.
fn track_label(name: &str) -> String {
    if let Some(rest) = name.strip_prefix("om-worker-") {
        // "om-worker-1.0" -> "worker-1" (the epoch is a respawn counter;
        // this run has no faults, but strip it anyway for robustness).
        let id = rest.split('.').next().unwrap_or(rest);
        format!("worker-{id}")
    } else {
        // The test thread driving the pool (its name varies by harness).
        "supervisor".to_owned()
    }
}

#[test]
fn two_worker_pipeline_trace_matches_golden() {
    let source = std::fs::read_to_string("examples/oscillator.om").expect("example model");
    let flat = objectmath::lang::compile(&source).expect("compile");
    let ir = causalize(&flat).expect("causalize");

    // Enable recording BEFORE building the pool (metric handles and the
    // worker busy-ns counters are resolved at construction/spawn time).
    om_obs::init(&om_obs::ObsConfig::enabled());

    // Unmerged: four equation tasks, two per worker, so the helper
    // thread has a batch to show.
    let program = CodeGenerator::new(GenOptions {
        merge_threshold: 0,
        ..GenOptions::default()
    })
    .generate(&ir);
    let sched = program.schedule(2);
    assert!(sched.assignment.contains(&1), "{:?}", sched.assignment);
    let pool_result = {
        // The fence policy: static assignment, so which thread runs what
        // (and hence the snapshot) is deterministic.
        let mut pool =
            ExecutorPool::build(program.graph, 2, sched.assignment, Strategy::Barrier).unwrap();
        let y0 = ir.initial_state();
        let mut dydt = vec![0.0; y0.len()];
        for k in 0..3 {
            pool.try_rhs(k as f64 * 0.1, &y0, &mut dydt)
                .expect("pool rhs");
        }
        dydt
    };
    assert!(pool_result.iter().all(|v| v.is_finite()));
    // The pool (and its worker threads) is dropped here, so every worker
    // has flushed its span buffer into the global sink.

    om_obs::flush_thread();
    let trace = om_obs::collect();
    let json = om_obs::chrome::to_chrome_json(&trace);
    om_obs::init(&om_obs::ObsConfig::disabled());

    // Structural validity: required fields, LIFO B/E nesting per thread,
    // monotonic per-thread timestamps, no unclosed spans.
    let check = om_obs::chrome::validate_chrome_json(&json).expect("schema-valid chrome trace");
    assert!(check.events > 0, "trace is empty");

    // Normalize: per-track event sequences keyed by stable labels.
    let mut normalized = String::new();
    let mut tracks: Vec<(String, &om_obs::chrome::TrackCheck)> = check
        .tracks
        .values()
        .map(|t| (track_label(t.name.as_deref().unwrap_or("?")), t))
        .collect();
    tracks.sort_by(|a, b| a.0.cmp(&b.0));
    for (label, track) in &tracks {
        normalized.push_str(&format!("== {label} (max depth {}) ==\n", track.max_depth));
        for (ph, name) in &track.sequence {
            normalized.push_str(&format!("{ph} {name}\n"));
        }
    }

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all("tests/golden").expect("mkdir");
        std::fs::write(GOLDEN_PATH, &normalized).expect("write golden");
        eprintln!("golden snapshot regenerated at {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .unwrap_or_else(|e| panic!("missing {GOLDEN_PATH} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        normalized, golden,
        "trace structure changed; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden_trace"
    );
}
