//! End-to-end tests for `omc serve` + `omc request` over a real Unix
//! socket: warm-registry reuse across requests, typed overload
//! shedding, and graceful SIGTERM drain — the same sequence the
//! `serve-smoke` CI job runs.

mod common;

use common::{omc, run, tmp, write_model};
use std::path::Path;
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

/// Start `omc serve --socket ...` and wait for the socket to appear.
fn start_serve(socket: &Path, extra: &[&str]) -> Child {
    let mut cmd = omc();
    cmd.args(["serve", "--socket", socket.to_str().unwrap()]);
    cmd.args(extra);
    cmd.stderr(Stdio::null());
    let child = cmd.spawn().expect("spawn omc serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    child
}

/// SIGTERM the service and assert the graceful-drain exit code (0, not
/// the 128+15 a default-disposition kill would produce).
fn drain(mut child: Child) {
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert_eq!(status.code(), Some(0), "drain must exit 0, got {status:?}");
            return;
        }
        assert!(Instant::now() < deadline, "serve did not drain within 10s");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn warm_registry_reuse_and_graceful_drain() {
    let model = write_model("serve_warm");
    let socket = tmp("serve_warm.sock");
    let _ = std::fs::remove_file(&socket);
    let server = start_serve(&socket, &["--concurrency", "2"]);

    // Two identical requests on one connection: the first compiles
    // (cold), the second reuses the warm registry entry.
    let out = run(&[
        model.to_str().unwrap(),
        "request",
        "--socket",
        socket.to_str().unwrap(),
        "--grid",
        "x=0.9:1.1:4",
        "--tend",
        "0.2",
        "--h",
        "0.01",
        "--repeat",
        "2",
        "--stats",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"registry\":\"cold\""), "{stdout}");
    assert!(stdout.contains("\"registry\":\"warm\""), "{stdout}");
    // The stats line proves the reuse with real registry counters.
    assert!(stdout.contains("\"hits\":1"), "{stdout}");
    assert!(stdout.contains("\"misses\":1"), "{stdout}");
    assert_eq!(
        stdout.matches("\"type\":\"scenario\"").count(),
        8,
        "4 scenarios x 2 requests: {stdout}"
    );

    drain(server);
    assert!(!socket.exists(), "drain must remove the socket file");
    std::fs::remove_file(&model).ok();
}

#[test]
fn overloaded_request_gets_typed_shed_and_exit_9() {
    let model = write_model("serve_shed");
    let socket = tmp("serve_shed.sock");
    let _ = std::fs::remove_file(&socket);
    let server = start_serve(&socket, &["--max-scenarios", "2"]);

    let out = run(&[
        model.to_str().unwrap(),
        "request",
        "--socket",
        socket.to_str().unwrap(),
        "--grid",
        "x=0.5:1.5:6",
        "--tend",
        "0.2",
    ]);
    assert_eq!(
        out.status.code(),
        Some(9),
        "documented shed exit code; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"overloaded\""), "{stdout}");
    assert!(stdout.contains("\"reason\":\"inflight\""), "{stdout}");
    assert!(stdout.contains("\"retry_ms\":"), "{stdout}");
    // Nothing was executed for the shed request.
    assert!(!stdout.contains("\"type\":\"scenario\""), "{stdout}");

    drain(server);
    std::fs::remove_file(&model).ok();
}

#[test]
fn stdio_mode_serves_a_session_without_a_socket() {
    use std::io::Write as _;

    let mut cmd = omc();
    cmd.args(["serve", "--stdio"]);
    cmd.stdin(Stdio::piped());
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn omc serve --stdio");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"id\":\"r1\",\"op\":\"run\",\"model\":{\"source\":\"model M; Real x(start=1.0); equation der(x) = -x; end M;\"},\"scenarios\":[{\"x\":1.0},{\"x\":2.0}],\"tend\":0.1,\"h\":0.01}\n{\"id\":\"s\",\"op\":\"stats\"}\n",
        )
        .expect("write requests");
    // Dropping stdin closes it: EOF ends the session cleanly.
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"accepted\""), "{stdout}");
    assert_eq!(
        stdout.matches("\"type\":\"scenario\"").count(),
        2,
        "{stdout}"
    );
    assert!(stdout.contains("\"type\":\"done\""), "{stdout}");
    assert!(stdout.contains("\"type\":\"stats\""), "{stdout}");
}

/// A request's `"batch"` is untrusted: a lane width far past the
/// scenario count (1e15 would ask for petabytes if anything were sized by
/// it, 1e18 overflows a capacity) packs the request's scenarios into one
/// batch like any width above their count, and the service keeps serving.
#[test]
fn hostile_batch_widths_are_answered_and_the_service_lives_on() {
    use std::io::Write as _;

    let mut cmd = omc();
    cmd.args(["serve", "--stdio"]);
    cmd.stdin(Stdio::piped());
    cmd.stdout(Stdio::piped());
    cmd.stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn omc serve --stdio");
    let mut session = String::new();
    for (id, batch) in [("b15", "1e15"), ("b18", "1e18")] {
        session.push_str(&format!(
            "{{\"id\":\"{id}\",\"op\":\"run\",\"model\":{{\"source\":\"model M; Real x(start=1.0); \
             equation der(x) = -x; end M;\"}},\"scenarios\":[{{\"x\":1.0}},{{\"x\":2.0}}],\
             \"tend\":0.1,\"h\":0.01,\"batch\":{batch}}}\n"
        ));
    }
    session.push_str("{\"id\":\"s\",\"op\":\"stats\"}\n");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(session.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("wait");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
    for id in ["b15", "b18"] {
        let done = format!("{{\"type\":\"done\",\"id\":\"{id}\",\"completed\":2,");
        assert!(stdout.contains(&done), "{id}: {stdout}");
    }
    assert_eq!(
        stdout.matches("\"type\":\"scenario\"").count(),
        4,
        "{stdout}"
    );
    assert!(stdout.contains("\"type\":\"stats\""), "{stdout}");
}

#[test]
fn request_against_missing_socket_is_an_io_error() {
    let model = write_model("serve_nosock");
    let out = run(&[
        model.to_str().unwrap(),
        "request",
        "--socket",
        "/tmp/omc_definitely_not_listening.sock",
        "--grid",
        "x=1:2:2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot connect"), "{stderr}");
    std::fs::remove_file(&model).ok();
}

#[test]
fn serve_without_transport_is_a_usage_error() {
    let out = run(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--socket") && stderr.contains("--stdio"),
        "{stderr}"
    );
}
