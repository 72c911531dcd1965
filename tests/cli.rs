//! Integration tests for the `omc` compiler driver.

use std::io::Write as _;
use std::process::Command;

fn omc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_omc"))
}

fn write_model(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("omc_test_{}_{name}.om", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create model file");
    f.write_all(body.as_bytes()).expect("write model");
    path
}

const OSC: &str = "model Osc;
  Real x(start = 1.0);
  Real y;
  equation
    der(x) = y;
    der(y) = -x;
end Osc;
";

#[test]
fn analyze_reports_sccs() {
    let path = write_model("analyze", OSC);
    let out = omc().arg(&path).arg("analyze").output().expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 states"), "{text}");
    assert!(text.contains("SCC sizes"), "{text}");
    // x' = y, y' = -x: the two off-diagonal entries; the columns share
    // no row, so one perturbation differences both.
    assert!(
        text.contains("Jacobian: nnz 2 of 4, bandwidth (1, 1), 1 colour\n"),
        "{text}"
    );
}

#[test]
fn analyze_dot_is_graphviz() {
    let path = write_model("dot", OSC);
    let out = omc()
        .arg(&path)
        .args(["analyze", "--dot"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
}

#[test]
fn emit_f90_and_cpp_and_mma() {
    let path = write_model("emit", OSC);
    for (lang, needle) in [
        ("f90", "subroutine RHS"),
        ("cpp", "void rhs"),
        ("mma", "Derivative[1]"),
    ] {
        let out = omc()
            .arg(&path)
            .args(["emit", "--lang", lang])
            .output()
            .expect("run omc");
        assert!(out.status.success(), "--lang {lang}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(needle), "--lang {lang}: {text}");
    }
}

#[test]
fn simulate_solves_the_oscillator() {
    let path = write_model("simulate", OSC);
    let t = std::f64::consts::PI; // half period: x = -1
    let out = omc()
        .arg(&path)
        .args(["simulate", "--tend", &t.to_string(), "--rtol", "1e-9"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let x_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("x "))
        .expect("x line");
    let value: f64 = x_line.split('=').nth(1).unwrap().trim().parse().unwrap();
    assert!((value + 1.0).abs() < 1e-5, "{value}");
}

#[test]
fn simulate_with_parallel_workers_and_overrides() {
    let path = write_model("parallel", OSC);
    let out = omc()
        .arg(&path)
        .args([
            "simulate",
            "--tend",
            "1.0",
            "--workers",
            "2",
            "--set",
            "x=0.0",
            "--set",
            "y=2.0",
        ])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // x(t) = 2 sin t with x(0)=0, y(0)=2.
    let x_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("x "))
        .expect("x line");
    let value: f64 = x_line.split('=').nth(1).unwrap().trim().parse().unwrap();
    assert!((value - 2.0 * 1.0f64.sin()).abs() < 1e-4, "{value}");
}

#[test]
fn tasks_prints_schedule() {
    let path = write_model("tasks", OSC);
    let out = omc()
        .arg(&path)
        .args(["tasks", "--workers", "2"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schedule on 2 workers"), "{text}");
}

#[test]
fn lint_clean_model_exits_zero() {
    let path = write_model("lint_clean", OSC);
    let out = omc().arg(&path).arg("lint").output().expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");
}

#[test]
fn lint_errors_exit_5() {
    // Unresolved reference: a lint error.
    let path = write_model(
        "lint_err",
        "model M;\n  Real x(start=1.0);\nequation\n  der(x) = -x + nope;\nend M;\n",
    );
    let out = omc().arg(&path).arg("lint").output().expect("run omc");
    assert_eq!(out.status.code(), Some(5));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[OM010]"), "{text}");
    assert!(text.contains("4:17"), "{text}");
}

const WARNY: &str = "model W;
  Real x(start=1.0);
  Real dead;
equation
  der(x) = -x;
  dead = x * 2.0;
end W;
";

#[test]
fn lint_deny_warnings_exits_6() {
    let path = write_model("lint_warn", WARNY);
    // Without --deny, warnings do not fail the run…
    let out = omc().arg(&path).arg("lint").output().expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // …with it, they do.
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "warnings"])
        .output()
        .expect("run omc");
    assert_eq!(out.status.code(), Some(6));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("warning[OM020]"), "{text}");
    assert!(text.contains("warning[OM021]"), "{text}");
}

#[test]
fn lint_deny_info_exits_7() {
    // A state without a start value: info-level only.
    let path = write_model(
        "lint_info",
        "model I;\n  Real x;\nequation\n  der(x) = -x;\nend I;\n",
    );
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "warnings"])
        .output()
        .expect("run omc");
    assert!(out.status.success(), "info must pass --deny warnings");
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "info"])
        .output()
        .expect("run omc");
    assert_eq!(out.status.code(), Some(7));
    assert!(String::from_utf8_lossy(&out.stdout).contains("info[OM022]"));
}

#[test]
fn lint_json_is_machine_readable() {
    let path = write_model("lint_json", WARNY);
    let out = omc()
        .arg(&path)
        .args(["lint", "--json"])
        .output()
        .expect("run omc");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("{\"file\":"), "{text}");
    assert!(text.contains("\"code\":\"OM020\""), "{text}");
    assert!(
        text.contains("\"summary\":{\"error\":0,\"warning\":2,\"info\":0}"),
        "{text}"
    );
}

#[test]
fn lint_rejects_bad_deny_class() {
    let path = write_model("lint_baddeny", OSC);
    let out = omc()
        .arg(&path)
        .args(["lint", "--deny", "everything"])
        .output()
        .expect("run omc");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--deny"));
}

#[test]
fn bad_model_reports_position() {
    let path = write_model("bad", "model M;\n  Real ;\nend M;");
    let out = omc().arg(&path).arg("analyze").output().expect("run omc");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("2:"), "{text}");
}

#[test]
fn unknown_state_override_fails_cleanly() {
    let path = write_model("badset", OSC);
    let out = omc()
        .arg(&path)
        .args(["simulate", "--set", "nope=1.0"])
        .output()
        .expect("run omc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope"));
}

#[test]
fn simulate_trace_writes_valid_chrome_json() {
    let path = write_model("trace", OSC);
    let trace_path =
        std::env::temp_dir().join(format!("omc_test_{}.trace.json", std::process::id()));
    let out = omc()
        .arg(&path)
        .args(["simulate", "--tend", "0.5", "--workers", "2", "--trace"])
        .arg(&trace_path)
        .args(["--metrics"])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("== metrics =="), "{stderr}");
    assert!(stderr.contains("runtime.rhs_calls"), "{stderr}");

    let doc = std::fs::read_to_string(&trace_path).expect("trace file written");
    let check = om_obs::chrome::validate_chrome_json(&doc).expect("valid chrome trace");
    assert!(check.events > 0, "trace has no events");
    // Supervisor spans and both worker tracks are present.
    let names: Vec<&str> = check
        .tracks
        .values()
        .filter_map(|t| t.name.as_deref())
        .collect();
    // At least one worker track (the tiny model's tasks may all fuse
    // onto one worker) plus the supervisor track.
    assert!(
        names.iter().any(|n| n.starts_with("om-worker-")),
        "{names:?}"
    );
    assert!(
        check
            .tracks
            .values()
            .any(|t| t.sequence.iter().any(|(_, n)| n == "rhs.eval")),
        "no rhs.eval spans in the trace"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn metrics_without_workers_reports_solver_counters() {
    let path = write_model("metrics_serial", OSC);
    let out = omc()
        .arg(&path)
        .args(["simulate", "--tend", "0.5", "--metrics"])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("solver.rhs_calls"), "{stderr}");
    assert!(stderr.contains("solver.steps_accepted"), "{stderr}");
}

#[test]
fn ws_executor_with_fault_seed_runs_ws_and_prints_the_same_states() {
    // The seeded plan is recovered on the work-stealing pool itself: no
    // fallback warning, the one executor is the one reported, and the
    // trajectory is the fault-free one digit for digit.
    let run = |extra: &[&str]| {
        let out = omc()
            .args(["bearing2d", "simulate", "--tend", "0.02", "--workers", "3"])
            .args(["--executor", "ws"])
            .args(extra)
            .output()
            .expect("run omc");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        assert!(!stderr.contains("warning"), "{stderr}");
        assert!(stderr.contains("[parallel RHS (ws): "), "{stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    let (clean, _) = run(&[]);
    assert!(clean.contains(" = "), "{clean}");
    let (faulty, metrics) = run(&["--fault-seed", "7", "--metrics"]);
    assert_eq!(faulty, clean);
    // Each fault fires on the call it names, so the counters its kind
    // implies moved (a straggle on worker 0 is only a delay).
    let counter = |name: &str| -> u64 {
        let line = metrics.lines().find(|l| {
            let mut fields = l.split_whitespace();
            fields.next() == Some("counter") && fields.next() == Some(name)
        });
        line.and_then(|l| l.split_whitespace().nth(2)?.parse().ok())
            .unwrap_or(0)
    };
    use om_runtime::{FaultKind, FaultPlan};
    let plan = FaultPlan::from_seed(7, 3, 3);
    let planned = |kind| plan.faults().filter(|f| f.kind == kind).count() as u64;
    let implied = [
        (FaultKind::Panic, "runtime.replayed_tasks"),
        (FaultKind::DropResult, "runtime.retries"),
        (FaultKind::CorruptNaN, "runtime.nan_repairs"),
    ];
    assert!(
        implied.iter().any(|&(kind, _)| planned(kind) > 0),
        "{plan:?}"
    );
    for (kind, moved) in implied {
        assert!(counter(moved) >= planned(kind), "{kind:?}: {metrics}");
    }
}

/// The contract of `simulate`: one RHS — the generated task graph — at
/// every `--workers`, so stdout is byte-identical whether it is evaluated
/// in-thread or on either pool policy, stiff solvers included.
#[test]
fn simulate_stdout_is_identical_at_every_worker_count() {
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut om_files: Vec<String> = std::fs::read_dir(&examples)
        .expect("examples directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "om"))
        .map(|path| path.to_string_lossy().into_owned())
        .collect();
    om_files.sort();
    assert!(!om_files.is_empty(), "no .om models under {examples:?}");

    let mut models: Vec<Vec<&str>> = vec![
        vec!["bearing2d"],
        vec!["bearing3d"],
        vec!["heat1d"],
        vec!["heat1d", "--array-aware"],
    ];
    models.extend(om_files.iter().map(|path| vec![path.as_str()]));

    for (solver, tend) in [("dopri5", "0.02"), ("bdf", "0.0005"), ("lsoda", "0.005")] {
        for model in &models {
            let run = |substrate: &[&str]| {
                let out = omc()
                    .arg(model[0])
                    .args(["simulate", "--solver", solver, "--tend", tend])
                    .args(&model[1..])
                    .args(substrate)
                    .output()
                    .expect("run omc");
                assert!(
                    out.status.success(),
                    "{model:?} --solver {solver} {substrate:?}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                String::from_utf8_lossy(&out.stdout).into_owned()
            };
            let in_thread = run(&["--workers", "1"]);
            assert!(in_thread.contains(" = "), "{in_thread}");
            for pooled in [
                &["--workers", "2"][..],
                &["--workers", "3", "--executor", "ws"],
            ] {
                assert_eq!(
                    run(pooled),
                    in_thread,
                    "{model:?} --solver {solver} {pooled:?}"
                );
            }
        }
    }
}

/// A reader that went away (`omc … simulate | head -1`) is an I/O error
/// (exit 1, one line on stderr), not a panic: stdout here is a socket
/// whose peer is already closed, so the result write fails with EPIPE.
#[test]
fn simulate_into_a_closed_stdout_is_an_io_error() {
    let path = write_model("closed_stdout", OSC);
    // Every command that reports on stdout goes through one writer.
    for command in [
        &["simulate", "--tend", "0.1"][..],
        &["emit"],
        &["emit", "--lang", "mma"],
        &["tasks"],
        &["analyze"],
        &["analyze", "--dot"],
    ] {
        let (reader, writer) = std::os::unix::net::UnixStream::pair().expect("socket pair");
        drop(reader);
        let out = omc()
            .arg(&path)
            .args(command)
            .stdout(std::os::fd::OwnedFd::from(writer))
            .output()
            .expect("run omc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command:?}: {stderr}");
        assert!(
            stderr.starts_with("omc: writing results to stdout"),
            "{command:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{command:?}: {stderr}");
    }
}

#[test]
fn a_span_that_is_not_positive_and_finite_is_a_usage_error() {
    let path = write_model("bad_span", OSC);
    let scenarios = ["--grid", "x=0:1:2", "--socket", "/nonexistent.sock"];
    let mut cases: Vec<(&str, Vec<&str>, &str)> = Vec::new();
    for tend in ["0", "-1", "nan", "inf"] {
        for solver in ["dopri5", "rk4", "abm", "bdf", "lsoda"] {
            cases.push((
                "simulate",
                vec!["--solver", solver, "--tend", tend],
                "--tend",
            ));
        }
        cases.push(("simulate", vec!["--workers", "2", "--tend", tend], "--tend"));
        cases.push(("sweep", vec!["--tend", tend], "--tend"));
        cases.push(("request", vec!["--tend", tend], "--tend"));
    }
    for h in ["0", "-0.1", "nan"] {
        cases.push(("simulate", vec!["--solver", "rk4", "--h", h], "--h"));
        cases.push(("sweep", vec!["--h", h], "--h"));
        cases.push(("request", vec!["--h", h], "--h"));
    }
    for (command, flags, named) in cases {
        let mut cmd = omc();
        cmd.arg(&path).arg(command).args(&flags);
        if command != "simulate" {
            cmd.args(scenarios);
        }
        let out = cmd.output().expect("run omc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{named} must be a positive finite number")),
            "{command} {flags:?}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{command} {flags:?}: {stderr}"
        );
    }
    // A valid short span still runs.
    let out = omc()
        .arg(&path)
        .args(["simulate", "--solver", "rk4", "--tend", "0.5", "--h", "0.1"])
        .output()
        .expect("run omc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn ignored_flag_combinations_are_usage_errors() {
    let path = write_model("ignored_flags", OSC);
    let scenarios = ["--grid", "x=0:1:2", "--socket", "/nonexistent.sock"];
    for (command, flags, named) in [
        ("simulate", &["--fault-seed", "7"][..], "--fault-seed"),
        ("sweep", &["--batch", "4", "--workers", "2"], "--batch"),
        ("request", &["--batch", "4", "--workers", "2"], "--batch"),
        ("sweep", &["--array-aware"], "--array-aware"),
        ("request", &["--array-aware"], "--array-aware"),
        // Scenarios integrate with fixed-step RK4 only: any --solver,
        // known or not, would be parsed and ignored.
        ("sweep", &["--solver", "nonsense"], "--solver"),
        ("sweep", &["--solver", "bdf"], "--solver"),
        ("request", &["--solver", "dopri5"], "--solver"),
    ] {
        let out = omc()
            .arg(&path)
            .arg(command)
            .args(scenarios)
            .args(flags)
            .output()
            .expect("run omc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} {flags:?}: {stderr}");
        assert!(stderr.contains(named), "{command} {flags:?}: {stderr}");
    }
}

/// The level-fence executor was removed: `--executor barrier` is refused
/// with a usage error that names the one executor, never run as `ws`.
#[test]
fn the_removed_barrier_executor_is_a_usage_error_naming_ws() {
    let path = write_model("barrier_executor", OSC);
    for (command, extra) in [
        ("simulate", &["--workers", "2"][..]),
        ("sweep", &["--grid", "x=0:1:2", "--workers", "2"]),
    ] {
        let out = omc()
            .arg(&path)
            .arg(command)
            .args(extra)
            .args(["--executor", "barrier"])
            .output()
            .expect("run omc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command}: {stderr}");
        assert!(stderr.contains("'ws'"), "{command}: {stderr}");
        assert!(out.stdout.is_empty(), "{command}: nothing ran");
    }
}
