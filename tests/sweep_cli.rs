//! Integration tests for `omc sweep`: exit codes, manifest files, and
//! the checkpoint/resume cycle, exercised through the real binary.

mod common;

use common::{run, tmp, write_model};

#[test]
fn clean_sweep_exits_zero_and_writes_manifest() {
    let model = write_model("clean");
    let manifest = tmp("clean_manifest.json");
    let out = run(&[
        model.to_str().unwrap(),
        "sweep",
        "--grid",
        "x=0.9:1.1:8",
        "--grid",
        "y=-0.1:0.1:2",
        "--tend",
        "0.2",
        "--h",
        "0.01",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("16 scenarios = 16 completed"), "{stdout}");
    let doc = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(doc.contains("\"scenarios\": 16"), "{doc}");
    assert!(doc.contains("\"skipped\": 0"), "{doc}");
    assert!(doc.contains("\"unaccounted\": 0"), "{doc}");
    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&model).ok();
}

/// No allocation is sized by `--batch`: a width of 1e18 over two
/// scenarios runs them as one two-lane batch.
#[test]
fn a_batch_width_past_the_scenario_count_runs_one_batch() {
    let model = write_model("huge_batch");
    let out = run(&[
        model.to_str().unwrap(),
        "sweep",
        "--grid",
        "x=0.9:1.1:2",
        "--tend",
        "0.2",
        "--h",
        "0.01",
        "--batch",
        "1000000000000000000",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("2 scenarios = 2 completed"), "{stdout}");
    std::fs::remove_file(&model).ok();
}

#[test]
fn faulted_sweep_exits_partial_failure() {
    let model = write_model("faulted");
    let manifest = tmp("faulted_manifest.json");
    let out = run(&[
        model.to_str().unwrap(),
        "sweep",
        "--grid",
        "x=0.5:1.5:64",
        "--tend",
        "0.2",
        "--h",
        "0.01",
        "--fault-seed",
        "7",
        "--deadline-ms",
        "300",
        "--straggle-ms",
        "600",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    // Documented partial-failure exit code.
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(doc.contains("\"scenarios\": 64"), "{doc}");
    assert!(doc.contains("\"skipped\": 0"), "{doc}");
    assert!(doc.contains("\"unaccounted\": 0"), "{doc}");
    // Something actually failed, in a typed state.
    assert!(
        doc.contains("\"status\":\"quarantined\"") || doc.contains("\"status\":\"deadline\""),
        "{doc}"
    );
    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn interrupted_then_resumed_matches_uninterrupted_manifest() {
    let model = write_model("resume");
    let checkpoint = tmp("resume.ckpt.jsonl");
    let uninterrupted = tmp("resume_oracle.json");
    let resumed = tmp("resume_final.json");
    let _ = std::fs::remove_file(&checkpoint);

    let base: &[&str] = &[
        "sweep",
        "--grid",
        "x=0.8:1.2:20",
        "--tend",
        "0.2",
        "--h",
        "0.01",
    ];

    // Oracle: sequential, uninterrupted.
    let out = run(&[
        &[model.to_str().unwrap()],
        base,
        &[
            "--concurrency",
            "1",
            "--manifest",
            uninterrupted.to_str().unwrap(),
        ],
    ]
    .concat());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Interrupted run: 7 fresh scenarios, then stop → exit 8 (skipped).
    let out = run(&[
        &[model.to_str().unwrap()],
        base,
        &[
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--stop-after",
            "7",
        ],
    ]
    .concat());
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("13 skipped"), "{stdout}");

    // Resume: carries the 7 forward, finishes the rest → exit 0.
    let out = run(&[
        &[model.to_str().unwrap()],
        base,
        &[
            "--checkpoint",
            checkpoint.to_str().unwrap(),
            "--resume",
            "--manifest",
            resumed.to_str().unwrap(),
        ],
    ]
    .concat());
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("7 from checkpoint"), "{stdout}");

    let a = std::fs::read(&uninterrupted).unwrap();
    let b = std::fs::read(&resumed).unwrap();
    assert_eq!(
        a, b,
        "resumed manifest must be byte-identical to the oracle"
    );

    for p in [&checkpoint, &uninterrupted, &resumed, &model] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn sweep_without_scenarios_is_a_usage_error() {
    let model = write_model("noargs");
    let out = run(&[model.to_str().unwrap(), "sweep"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--params") || stderr.contains("--grid"),
        "{stderr}"
    );
    std::fs::remove_file(&model).ok();
}

#[test]
fn unknown_state_in_grid_is_a_usage_error() {
    let model = write_model("badstate");
    let out = run(&[model.to_str().unwrap(), "sweep", "--grid", "bogus=0:1:4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bogus"), "{stderr}");
    std::fs::remove_file(&model).ok();
}

#[test]
fn sweep_params_json_file_drives_scenarios() {
    let model = write_model("params");
    let params = tmp("params.json");
    std::fs::write(
        &params,
        "[{\"x\": 1.5}, {\"x\": 2.0, \"y\": 0.1}, {\"x\": 0.5}]",
    )
    .unwrap();
    let manifest = tmp("params_manifest.json");
    let out = run(&[
        model.to_str().unwrap(),
        "sweep",
        "--params",
        params.to_str().unwrap(),
        "--tend",
        "0.2",
        "--h",
        "0.01",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&manifest).unwrap();
    assert!(doc.contains("\"scenarios\": 3"), "{doc}");
    assert!(doc.contains("\"completed\": 3"), "{doc}");
    std::fs::remove_file(&params).ok();
    std::fs::remove_file(&manifest).ok();
    std::fs::remove_file(&model).ok();
}
