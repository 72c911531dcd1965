//! The closed-loop client: one process, one thread, one op in flight.
//!
//! A cold op spawns one `omc` child and is timed from spawn to exit with
//! its output read — users pay spawn + compile on every `omc simulate`,
//! so it counts. A `serve_warm` op is one request on the single
//! connection to the resident `omc serve`, timed from the request
//! written to the `done` line read.

use crate::report::Measured;
use crate::stats;
use crate::sys;
use crate::workloads::{self, Inputs, Reference, Workload};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Untimed ops at the end of every set-up.
const WARMUP_OPS: usize = 3;
/// Set-ups per run; `setup_s` is their median, so one slow spawn or page
/// cache miss does not decide it.
const SETUP_REPS: usize = 5;
/// The tail percentile: the highest that keeps at least ten samples
/// beyond it at the ~55 ops the slowest workload completes in the
/// driver's 20 s window when the host is busy (p90 would need 100).
pub const TAIL: f64 = 0.80;
/// An op slower than this counts as failed.
const OP_LIMIT: Duration = Duration::from_secs(10);

/// One op as the client saw it.
pub struct Op {
    pub ms: f64,
    pub outcome: Result<(), String>,
    /// Bytes of stdout (cold) or of the response lines (`serve_warm`).
    pub output_bytes: usize,
}

/// The resident server, its one connection and the request every op
/// sends.
struct ServerLink {
    child: Child,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    request: String,
}

/// A workload set up and ready for timed ops.
pub struct Session {
    workload: Workload,
    omc: PathBuf,
    pub inputs: Inputs,
    reference: Reference,
    server: Option<ServerLink>,
    /// CPU time and peak resident set of the children reaped so far:
    /// every cold op's `omc`, and the server once drained.
    children: sys::ChildUsage,
}

impl Session {
    /// Everything that precedes the first timed op: generate the inputs,
    /// compute the reference, start and prime the server, warm up.
    pub fn setup(workload: Workload, omc: &Path, seed: u64, dir: &Path) -> Result<Session, String> {
        let inputs = workloads::generate(workload, seed, dir)
            .map_err(|e| format!("cannot write inputs under {}: {e}", dir.display()))?;
        let reference = workloads::reference(workload, seed, &inputs);
        // What computing the reference left on the heap must not count
        // towards the children's peak resident set.
        sys::release_freed_heap();
        let mut session = Session {
            workload,
            omc: omc.to_owned(),
            inputs,
            reference,
            server: None,
            children: sys::ChildUsage::default(),
        };
        if workload == Workload::ServeWarm {
            session.start_server()?;
        }
        for _ in 0..WARMUP_OPS {
            session.op().outcome?;
        }
        Ok(session)
    }

    fn server_pid(&self) -> Option<u32> {
        self.server.as_ref().map(|link| link.child.id())
    }

    /// Bytes of the request line each `serve_warm` op writes.
    pub fn request_bytes(&self) -> usize {
        self.server
            .as_ref()
            .map_or(0, |link| link.request.len() + 1)
    }

    fn start_server(&mut self) -> Result<(), String> {
        let socket = self.inputs.dir.join("omc.sock");
        let mut child = sys::spawn_by_fork(&mut Command::new(&self.omc))
            .args(["serve", "--concurrency"])
            .arg(workloads::Batch::CONCURRENCY.to_string())
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.omc.display()))?;
        let deadline = Instant::now() + OP_LIMIT;
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(e) if Instant::now() > deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "omc serve never listened on {}: {e}",
                        socket.display()
                    ));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let io = |e: std::io::Error| format!("server socket: {e}");
        stream.set_read_timeout(Some(OP_LIMIT)).map_err(io)?;
        let mut link = ServerLink {
            child,
            reader: BufReader::new(stream.try_clone().map_err(io)?),
            writer: stream,
            request: String::new(),
        };
        let primed = link
            .roundtrip(&workloads::priming_request(&self.inputs))
            .and_then(|response| {
                let accepted = response.lines().next().unwrap_or_default();
                workloads::keyed_request(&self.inputs, accepted)
                    .ok_or_else(|| format!("priming request not accepted: {accepted}"))
            });
        match primed {
            Ok(request) => {
                link.request = request;
                self.server = Some(link);
                Ok(())
            }
            Err(e) => {
                let _ = link.child.kill();
                let _ = link.child.wait();
                Err(e)
            }
        }
    }

    /// Run one op and check its output.
    pub fn op(&mut self) -> Op {
        let started = Instant::now();
        let produced = match &mut self.server {
            Some(link) => {
                let request = link.request.clone();
                link.roundtrip(&request)
            }
            None => self.spawn_cold(),
        };
        let elapsed = started.elapsed();
        let (outcome, output_bytes) = match produced {
            Ok(output) if elapsed > OP_LIMIT => (
                Err(format!("op took {:.1} s", elapsed.as_secs_f64())),
                output.len(),
            ),
            Ok(output) => {
                // `omc sweep` is judged by the manifest it wrote, not by
                // the summary it printed.
                let judged = if self.workload == Workload::SweepBatch8 {
                    std::fs::read_to_string(&self.inputs.manifest_path)
                        .map_err(|e| format!("no manifest: {e}"))
                } else {
                    Ok(output.clone())
                };
                (
                    judged.and_then(|text| self.reference.check(&text)),
                    output.len(),
                )
            }
            Err(e) => (Err(e), 0),
        };
        Op {
            ms: elapsed.as_secs_f64() * 1e3,
            outcome,
            output_bytes,
        }
    }

    /// CPU time the program under test has used so far: the reaped cold
    /// children's, or the live server's from `/proc` (it is never waited
    /// for inside the window).
    fn cpu(&self) -> Duration {
        match self.server_pid() {
            Some(pid) => sys::process_cpu(pid).unwrap_or_default(),
            None => self.children.cpu,
        }
    }

    fn spawn_cold(&mut self) -> Result<String, String> {
        if self.workload == Workload::SweepBatch8 {
            // A stale manifest must never vouch for an op that wrote none.
            let _ = std::fs::remove_file(&self.inputs.manifest_path);
        }
        let child = sys::spawn_by_fork(&mut Command::new(&self.omc))
            .args(workloads::argv(self.workload, &self.inputs))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.omc.display()))?;
        let (stdout, usage) = run_to_exit(child, OP_LIMIT);
        self.children.add(usage);
        String::from_utf8(stdout?).map_err(|e| format!("stdout is not UTF-8: {e}"))
    }

    /// Drain the server (SIGTERM, in-flight work finishes) and remove the
    /// inputs. Returns whether the drain exited 0 (true without a server)
    /// and what the session's children used, the drained server included.
    pub fn finish(mut self) -> (bool, sys::ChildUsage) {
        let drained = match self.server.take() {
            Some(link) => {
                let pid = link.child.id();
                sys::terminate(pid);
                // A server that will not drain is killed; its signal
                // status then reads as not drained.
                let reaped = sys::reap(pid, Some(OP_LIMIT)).or_else(|e| {
                    if e.kind() == std::io::ErrorKind::TimedOut {
                        sys::kill_now(pid);
                        sys::reap(pid, None)
                    } else {
                        Err(e)
                    }
                });
                reaped.is_ok_and(|(status, usage)| {
                    self.children.add(usage);
                    status.success()
                })
            }
            None => true,
        };
        let _ = std::fs::remove_dir_all(&self.inputs.dir);
        (drained, self.children)
    }

    /// The `op:"stats"` reply of the resident server.
    pub fn server_stats(&mut self) -> Option<String> {
        self.server
            .as_mut()?
            .roundtrip("{\"id\":\"stats\",\"op\":\"stats\"}")
            .ok()
    }
}

impl Drop for Session {
    /// A session abandoned on an error path must not leave a server
    /// behind; `finish` has already taken it on the normal path.
    fn drop(&mut self) {
        if let Some(mut link) = self.server.take() {
            let _ = link.child.kill();
            let _ = link.child.wait();
        }
    }
}

/// Read `child`'s piped stdout until it exits, then reap it with its own
/// resource usage. The process holds stdout open until it exits, so a
/// pipe that stays silent past `limit` is a hung child: it is killed and
/// reads as one failed op, never as a hung run.
fn run_to_exit(mut child: Child, limit: Duration) -> (Result<Vec<u8>, String>, sys::ChildUsage) {
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let deadline = Instant::now() + limit;
    let mut stdout = Vec::new();
    let mut chunk = [0u8; 1 << 16];
    let read = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            sys::kill_now(child.id());
            break Err(format!("no exit within {limit:?}; killed"));
        }
        if !sys::readable_within(pipe.as_fd(), left) {
            continue;
        }
        match pipe.read(&mut chunk) {
            Ok(0) => break Ok(()),
            Ok(n) => stdout.extend_from_slice(&chunk[..n]),
            Err(e) => {
                sys::kill_now(child.id());
                break Err(format!("reading stdout: {e}"));
            }
        }
    };
    // Reaped here, through `wait4`; `child` itself is never waited for.
    match sys::reap(child.id(), None) {
        Ok((status, usage)) => {
            let exited = if status.success() {
                Ok(stdout)
            } else {
                Err(format!("omc exited with {status}"))
            };
            (read.and(exited), usage)
        }
        Err(e) => (Err(format!("wait: {e}")), sys::ChildUsage::default()),
    }
}

impl ServerLink {
    /// Write one request line and read response lines up to and
    /// including the terminal one.
    fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("server socket: {e}");
        self.writer.write_all(request.as_bytes()).map_err(io)?;
        self.writer.write_all(b"\n").map_err(io)?;
        let mut response = String::new();
        loop {
            let before = response.len();
            if self.reader.read_line(&mut response).map_err(io)? == 0 {
                return Err("server closed the connection mid-response".to_owned());
            }
            let line = &response[before..];
            if line.starts_with("{\"type\":\"done\"") || line.starts_with("{\"type\":\"stats\"") {
                return Ok(response);
            }
            if !line.starts_with("{\"type\":\"accepted\"")
                && !line.starts_with("{\"type\":\"scenario\"")
            {
                return Err(format!("server answered: {}", line.trim_end()));
            }
        }
    }
}

/// Measure `workload` end to end, tracing off: `SETUP_REPS` set-ups,
/// then a closed loop of ops for `seconds`.
pub fn run(
    workload: Workload,
    omc: &Path,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = session.take() {
            Session::finish(previous);
        }
        let started = Instant::now();
        session = Some(Session::setup(workload, omc, seed, dir)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut session = session.expect("SETUP_REPS is at least 1");

    let cpu_before = session.cpu();
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut result = Measured::default();
    let mut op_ms = Vec::new();
    while result.attempted == 0 || started.elapsed() < window {
        let op = session.op();
        result.attempted += 1;
        match op.outcome {
            Ok(()) => op_ms.push(op.ms),
            Err(reason) => result.fail(reason),
        }
    }
    let window_s = started.elapsed().as_secs_f64();
    let cpu_ms = (session.cpu() - cpu_before).as_secs_f64() * 1e3;
    let (drained, children) = session.finish();
    if !drained {
        result.attempted += 1;
        result.fail("omc serve did not drain with exit code 0".to_owned());
    }
    let peak_rss_mb = children.max_rss_kb as f64 / 1024.0;
    if let Some(own_kb) = sys::own_anon_rss_kb().filter(|kb| *kb >= children.max_rss_kb) {
        eprintln!(
            "ledger: peak_rss_mb is the harness's own {:.1} MB of heap, not omc's: every child stayed below it",
            own_kb as f64 / 1024.0
        );
    }

    // A run without a correct op reports zeros (and is not `correct`).
    let ops = op_ms.len();
    let sorted = stats::sorted(op_ms);
    result.samples = ops;
    result.values = BTreeMap::from([
        ("setup_s", stats::median(&setup_s)),
        ("op_ms_p50", stats::percentile(&sorted, 0.50)),
        ("op_ms_p80", stats::percentile(&sorted, TAIL)),
        ("ops_per_s", ops as f64 / window_s),
        ("cpu_ms_per_op", cpu_ms / ops.max(1) as f64),
        ("peak_rss_mb", peak_rss_mb),
    ]);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell(script: &str) -> Child {
        Command::new("sh")
            .args(["-c", script])
            .stdout(Stdio::piped())
            .spawn()
            .expect("sh runs")
    }

    #[test]
    fn a_hung_child_is_killed_and_reads_as_one_failed_op() {
        let started = Instant::now();
        let (stdout, _) = run_to_exit(shell("echo partial; sleep 20"), Duration::from_millis(100));
        let reason = stdout.expect_err("a hung child is a failure");
        assert!(reason.contains("no exit within"), "{reason}");
        assert!(started.elapsed() < Duration::from_secs(10));

        let (stdout, usage) = run_to_exit(shell("echo done"), OP_LIMIT);
        assert_eq!(stdout.as_deref(), Ok(&b"done\n"[..]));
        assert!(usage.max_rss_kb > 0);
        let (stdout, _) = run_to_exit(shell("echo half; exit 3"), OP_LIMIT);
        assert!(stdout.expect_err("non-zero exit").contains("exit"));
    }
}
