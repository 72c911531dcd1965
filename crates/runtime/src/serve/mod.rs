//! `omc serve` — the resident ensemble service.
//!
//! The batch driver ([`crate::ensemble::run_sweep`]) pays compile +
//! process cold-start per invocation; the service amortizes both: one
//! long-running process holds the [`ModelRegistry`] warm across
//! requests and multiplexes many concurrent clients onto one resident
//! [`ScenarioPool`], the pool a sweep opens per invocation. Clients speak
//! newline-delimited JSON over a Unix socket (or stdio for CI harnesses)
//! — see [`protocol`] for the wire format.
//!
//! ## Request lifecycle
//!
//! ```text
//!   line ─▶ decode ─▶ admission ─▶ model + settings ─▶ enqueue ─▶ collect ─▶ respond
//!             │           │                   │     (all-or-nothing)   (index order)
//!             │           │                   └─▶ error{message}
//!             │           └─▶ overloaded{rate|inflight|capacity|draining}
//!             └─▶ error{message}
//! ```
//!
//! Admission ([`quota`]) is all-or-nothing at the request boundary:
//! shed requests execute nothing, admitted requests get exactly one
//! `scenario` line per scenario — each embedding the *same bytes* a
//! sweep manifest row would carry, because both paths execute the same
//! scenario envelope and render through
//! [`render_record`](crate::ensemble::checkpoint::render_record).
//!
//! ## Drain protocol
//!
//! SIGTERM (or stdin EOF in `--stdio` mode) flips a shared drain flag:
//! the accept loop stops admitting connections, every connection
//! answers further requests with `overloaded{"reason":"draining"}`,
//! in-flight requests run to completion, and the process exits 0. No
//! admitted scenario is ever abandoned by a drain.

pub mod protocol;
pub mod quota;

use crate::ensemble::checkpoint::render_record;
use crate::ensemble::pool::{Job, ScenarioPool, ScenarioReply};
use crate::ensemble::{check_settings, pack_work_items, ScenarioOutcome, SweepFaultPlan};
use om_codegen::registry::{ModelKey, ModelRegistry};
use protocol::{ModelRef, Request, RunRequest};
use quota::{ClientState, InflightReservation, ShedReason, TokenBucket};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Service configuration (per-request envelope settings arrive with
/// each request; these are the resident process's own knobs).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Resident scenario-worker threads shared by all requests.
    pub pool_threads: usize,
    /// Warm compiled models the registry may hold (0 = unbounded).
    pub registry_capacity: usize,
    /// Per-client quota: scenarios one request may put in flight.
    pub max_scenarios_per_request: usize,
    /// Service-wide in-flight scenario capacity across all clients.
    pub max_inflight: usize,
    /// Token-bucket burst per client (requests; <= 0 disables).
    pub rate_burst: f64,
    /// Token-bucket sustained refill per client (requests/second).
    pub rate_per_sec: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            pool_threads: 4,
            registry_capacity: 32,
            max_scenarios_per_request: 1024,
            max_inflight: 4096,
            rate_burst: 0.0,
            rate_per_sec: 0.0,
        }
    }
}

/// Service-level counters surfaced by `op:"stats"` and mirrored into
/// `om-obs` metrics.
#[derive(Default)]
struct ServeStats {
    requests: AtomicU64,
    scenarios: AtomicU64,
    shed_rate: AtomicU64,
    shed_inflight: AtomicU64,
    shed_capacity: AtomicU64,
    shed_draining: AtomicU64,
    errors: AtomicU64,
    /// Recent per-scenario wall latencies (ns), bounded ring.
    latencies_ns: Mutex<Vec<u64>>,
}

/// Latency samples kept for percentile estimates.
const LATENCY_WINDOW: usize = 4096;

impl ServeStats {
    fn record_latencies(&self, fresh: &[u64]) {
        let mut ring = crate::pool::lock(&self.latencies_ns);
        for &ns in fresh {
            if ring.len() == LATENCY_WINDOW {
                ring.remove(0);
            }
            ring.push(ns);
        }
    }

    fn latency_percentile_ns(&self, q: f64) -> u64 {
        let ring = crate::pool::lock(&self.latencies_ns);
        if ring.is_empty() {
            return 0;
        }
        let mut sorted = ring.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        sorted[rank]
    }

    fn shed(&self, reason: ShedReason) {
        let counter = match reason {
            ShedReason::Rate => &self.shed_rate,
            ShedReason::InFlight => &self.shed_inflight,
            ShedReason::Capacity => &self.shed_capacity,
            ShedReason::Draining => &self.shed_draining,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if om_obs::is_enabled() {
            om_obs::metrics()
                .counter(&format!("serve.shed.{}", reason.as_str()))
                .inc();
        }
    }
}

/// The resident service. One instance per process; connections share it
/// behind an `Arc` (socket mode) or drive it directly (stdio mode and
/// the in-process test suites, through [`Server::handle_line`]).
pub struct Server {
    cfg: ServeConfig,
    registry: ModelRegistry,
    pool: Mutex<ScenarioPool>,
    inflight: AtomicUsize,
    draining: Arc<AtomicBool>,
    stats: ServeStats,
    started: Instant,
}

impl Server {
    pub fn new(cfg: ServeConfig) -> Server {
        let pool = ScenarioPool::new(cfg.pool_threads);
        Server {
            registry: ModelRegistry::with_capacity(cfg.registry_capacity),
            pool: Mutex::new(pool),
            inflight: AtomicUsize::new(0),
            draining: Arc::new(AtomicBool::new(false)),
            stats: ServeStats::default(),
            started: Instant::now(),
            cfg,
        }
    }

    /// The shared drain flag. A SIGTERM handler stores `true` here; the
    /// accept loop and every connection observe it within one poll
    /// interval.
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Fresh per-connection admission state from this service's quota
    /// configuration.
    pub fn new_client(&self) -> ClientState {
        ClientState::new(TokenBucket::new(self.cfg.rate_burst, self.cfg.rate_per_sec))
    }

    /// Nanoseconds since the service started (the time base fed to
    /// [`Server::handle_line`] by the socket/stdio loops).
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Handle one request line, returning the full ordered response
    /// line sequence. Socket-free — the connection loops and the test
    /// suites share this exact entry point, so everything proven here
    /// (admission atomicity, byte-identity, shed typing) holds on the
    /// wire by construction.
    pub fn handle_line(&self, line: &str, client: &mut ClientState, now_ns: u64) -> Vec<String> {
        let request = match protocol::parse_request(line) {
            Ok(request) => request,
            Err(error) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                return vec![protocol::render_error(&error.id, &error.message)];
            }
        };
        match request {
            Request::Stats { id } => vec![self.render_stats(&id)],
            Request::Run(run) => self.handle_run(*run, client, now_ns),
        }
    }

    fn shed(&self, id: &str, reason: ShedReason, client: &mut ClientState) -> Vec<String> {
        client.sheds += 1;
        self.stats.shed(reason);
        vec![protocol::render_overloaded(id, reason, client.sheds)]
    }

    fn handle_run(&self, req: RunRequest, client: &mut ClientState, now_ns: u64) -> Vec<String> {
        let n = req.scenarios.len();
        // Admission gates, cheapest first. Order matters for fairness:
        // an oversized request must not burn a rate token, and neither
        // sheds reserve capacity.
        if self.draining.load(Ordering::Relaxed) {
            return self.shed(&req.id, ShedReason::Draining, client);
        }
        if n > self.cfg.max_scenarios_per_request {
            return self.shed(&req.id, ShedReason::InFlight, client);
        }
        if !client.bucket.try_take(now_ns) {
            return self.shed(&req.id, ShedReason::Rate, client);
        }
        let Some(_reservation) =
            InflightReservation::acquire(&self.inflight, n, self.cfg.max_inflight)
        else {
            return self.shed(&req.id, ShedReason::Capacity, client);
        };

        // Model resolution against the warm registry.
        let misses_before = self.registry.misses();
        let model = match &req.model {
            ModelRef::Key(key) => match self.registry.get_by_key(ModelKey(*key)) {
                Some(model) => model,
                None => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    return vec![protocol::render_error(
                        &req.id,
                        &format!(
                            "unknown model key {key:016x} (evicted or never compiled \
                             here — resend with inline source)"
                        ),
                    )];
                }
            },
            ModelRef::Source(source) => match self.registry.get_or_compile(source) {
                Ok(model) => model,
                Err(e) => {
                    self.stats.errors.fetch_add(1, Ordering::Relaxed);
                    return vec![protocol::render_error(&req.id, &format!("compile: {e}"))];
                }
            },
        };
        let warm = self.registry.misses() == misses_before;
        let pool = crate::pool::lock(&self.pool);
        if let Err(message) =
            check_settings(&model, &req.scenarios, &req.run, req.batch, pool.threads())
        {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            return vec![protocol::render_error(&req.id, &message)];
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.scenarios.fetch_add(n as u64, Ordering::Relaxed);
        if om_obs::is_enabled() {
            let metrics = om_obs::metrics();
            metrics.counter("serve.requests").inc();
            metrics.counter("serve.scenarios").add(n as u64);
            metrics
                .gauge("serve.in_flight")
                .set(self.inflight.load(Ordering::Relaxed) as f64);
        }

        let mut lines = Vec::with_capacity(n + 2);
        lines.push(protocol::render_accepted(
            &req.id,
            model.key().0,
            model.identity(),
            n,
            warm,
        ));

        // Enqueue on the shared pool: the same packing as the sweep
        // driver.
        let begun = Instant::now();
        let (tx, rx) = mpsc::channel();
        let faults = Arc::new(SweepFaultPlan::none());
        for item in pack_work_items(req.scenarios.into(), req.batch, &faults) {
            pool.submit(Job {
                model: Arc::clone(&model),
                item,
                run: req.run,
                faults: Arc::clone(&faults),
                reply: tx.clone(),
            });
        }
        drop(pool);
        drop(tx);

        // Collect every admitted scenario. The reply channel closing early
        // (pool shut down mid-request) ends the request with an error line
        // rather than leaving scenarios silently missing.
        let mut replies: Vec<ScenarioReply> = rx.iter().flatten().collect();
        let mut latencies: Vec<u64> = replies.iter().map(|(_, _, ns)| *ns).collect();
        replies.sort_by_key(|(index, _, _)| *index);
        let (mut completed, mut quarantined, mut deadline) = (0usize, 0usize, 0usize);
        for (index, outcome, _) in &replies {
            match outcome {
                ScenarioOutcome::Completed { .. } => completed += 1,
                ScenarioOutcome::Quarantined { .. } => quarantined += 1,
                ScenarioOutcome::DeadlineExceeded { .. } => deadline += 1,
            }
            lines.push(protocol::render_scenario(
                &req.id,
                &render_record(*index, outcome),
            ));
        }
        if replies.len() != n {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            let message = format!(
                "internal: {} of {n} scenarios lost (service shutting down mid-request)",
                n - replies.len()
            );
            lines.push(protocol::render_error(&req.id, &message));
        } else {
            lines.push(protocol::render_done(
                &req.id,
                completed,
                quarantined,
                deadline,
                begun.elapsed().as_micros() as u64,
            ));
        }
        latencies.sort_unstable();
        self.stats.record_latencies(&latencies);
        lines
    }

    fn render_stats(&self, id: &str) -> String {
        let hits = self.registry.hits();
        let misses = self.registry.misses();
        let hit_ratio = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        if om_obs::is_enabled() {
            om_obs::metrics()
                .gauge("serve.registry.hit_ratio")
                .set(hit_ratio);
            om_obs::metrics()
                .gauge("serve.registry.warm_units")
                .set(self.registry.warm_units() as f64);
        }
        let pool = crate::pool::lock(&self.pool);
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"type\":\"stats\",\"id\":{id},\"requests\":{},\"scenarios\":{},\
             \"in_flight\":{},\"pool_threads\":{},\"errors\":{},\
             \"registry\":{{\"hits\":{hits},\"misses\":{misses},\"hit_ratio\":{hit_ratio:.4},\
             \"warm_models\":{},\"warm_units\":{},\"evictions\":{}}},\
             \"shed\":{{\"rate\":{},\"inflight\":{},\"capacity\":{},\"draining\":{}}},\
             \"latency\":{{\"p50_us\":{},\"p99_us\":{}}}}}",
            self.stats.requests.load(Ordering::Relaxed),
            self.stats.scenarios.load(Ordering::Relaxed),
            self.inflight.load(Ordering::Relaxed),
            pool.threads(),
            self.stats.errors.load(Ordering::Relaxed),
            self.registry.len(),
            self.registry.warm_units(),
            self.registry.evictions(),
            self.stats.shed_rate.load(Ordering::Relaxed),
            self.stats.shed_inflight.load(Ordering::Relaxed),
            self.stats.shed_capacity.load(Ordering::Relaxed),
            self.stats.shed_draining.load(Ordering::Relaxed),
            self.stats.latency_percentile_ns(0.50) / 1_000,
            self.stats.latency_percentile_ns(0.99) / 1_000,
        );
        out
    }

    /// Serve one already-connected stream: read request lines, write
    /// response lines. Returns when the peer closes or the service
    /// drains (the pending request, if any, finishes first).
    fn serve_connection(&self, stream: UnixStream) {
        // Short read timeouts turn a blocking reader into a drain-flag
        // poll: SIGTERM is observed within ~one interval even on an
        // idle connection (glibc installs SA_RESTART semantics, so
        // relying on EINTR to break a blocking read is not portable).
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let mut writer = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        let mut client = self.new_client();
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return, // peer closed
                Ok(_) => {
                    if line.trim().is_empty() {
                        line.clear();
                        continue;
                    }
                    let responses = self.handle_line(&line, &mut client, self.now_ns());
                    line.clear();
                    for response in responses {
                        if writer
                            .write_all(response.as_bytes())
                            .and_then(|()| writer.write_all(b"\n"))
                            .is_err()
                        {
                            return;
                        }
                    }
                    if writer.flush().is_err() {
                        return;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    // Timeout poll: partial line bytes (if any) stay in
                    // `line` and the next read appends to them.
                    if self.draining.load(Ordering::Relaxed) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// Run the service on a Unix socket until the drain flag is set.
    /// Graceful drain: stop accepting, finish in-flight connections
    /// (scoped threads join them), remove the socket file, return Ok.
    pub fn run_unix(&self, socket: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(socket);
        let listener = UnixListener::bind(socket)?;
        listener.set_nonblocking(true)?;
        let accept_result = std::thread::scope(|scope| {
            loop {
                if self.draining.load(Ordering::Relaxed) {
                    return Ok(());
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        scope.spawn(move || self.serve_connection(stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            // Scope exit joins every connection thread: in-flight
            // requests complete before run_unix returns.
        });
        let _ = std::fs::remove_file(socket);
        crate::pool::lock(&self.pool).shutdown();
        accept_result
    }

    /// Run the service over stdin/stdout (the CI and scripting mode).
    /// EOF on stdin is the drain signal; SIGTERM works identically via
    /// the shared flag.
    pub fn run_stdio(&self) -> std::io::Result<()> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let mut client = self.new_client();
        for line in stdin.lock().lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            if self.draining.load(Ordering::Relaxed) {
                // Drain during a stdio session: answer, don't execute.
                let mut c = ClientState::new(TokenBucket::new(0.0, 0.0));
                let responses = self.handle_line(&line, &mut c, self.now_ns());
                for response in responses {
                    writeln!(out, "{response}")?;
                }
                out.flush()?;
                continue;
            }
            for response in self.handle_line(&line, &mut client, self.now_ns()) {
                writeln!(out, "{response}")?;
            }
            out.flush()?;
        }
        crate::pool::lock(&self.pool).shutdown();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::json;

    const OSC: &str = "model Osc;
        Real x(start=1.0); Real y;
        equation der(x) = y; der(y) = -x; end Osc;";

    fn run_request_line(n: usize) -> String {
        let scenarios: Vec<String> = (0..n)
            .map(|i| format!("{{\"x\":{}}}", 1.0 + 0.1 * i as f64))
            .collect();
        format!(
            "{{\"id\":\"r\",\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},\
             \"scenarios\":[{}],\"tend\":0.2,\"h\":0.01}}",
            json::escape(OSC),
            scenarios.join(",")
        )
    }

    #[test]
    fn run_request_yields_accepted_records_done() {
        let server = Server::new(ServeConfig::default());
        let mut client = server.new_client();
        let lines = server.handle_line(&run_request_line(3), &mut client, 0);
        assert_eq!(lines.len(), 5, "{lines:#?}");
        assert!(lines[0].contains("\"type\":\"accepted\""));
        assert!(lines[0].contains("\"registry\":\"cold\""));
        for (i, line) in lines[1..4].iter().enumerate() {
            assert!(line.contains("\"type\":\"scenario\""), "{line}");
            assert!(line.contains(&format!("\"index\":{i}")), "{line}");
            assert!(line.contains("\"status\":\"completed\""), "{line}");
        }
        assert!(lines[4].contains("\"type\":\"done\""));
        assert!(lines[4].contains("\"completed\":3"));
        // Second request hits the warm registry.
        let again = server.handle_line(&run_request_line(3), &mut client, 0);
        assert!(again[0].contains("\"registry\":\"warm\""), "{}", again[0]);
    }

    #[test]
    fn model_key_fast_path_works_after_first_compile() {
        let server = Server::new(ServeConfig::default());
        let mut client = server.new_client();
        let first = server.handle_line(&run_request_line(1), &mut client, 0);
        // Extract the reported key and reuse it.
        let doc = json::parse(&first[0]).unwrap();
        let key = doc.get("model_key").unwrap().as_str().unwrap().to_string();
        let by_key = format!(
            "{{\"id\":\"k\",\"op\":\"run\",\"model\":{{\"key\":\"{key}\"}},\
             \"scenarios\":[{{\"x\":1.0}}],\"tend\":0.2,\"h\":0.01}}"
        );
        let lines = server.handle_line(&by_key, &mut client, 0);
        assert!(lines[0].contains("\"registry\":\"warm\""), "{}", lines[0]);
        assert!(lines[0].contains(&key));
        // An unknown key is a typed error, not a crash.
        let bad = by_key.replace(&key, "00000000000000aa");
        let lines = server.handle_line(&bad, &mut client, 0);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"type\":\"error\""), "{}", lines[0]);
        assert!(lines[0].contains("unknown model key"));
    }

    #[test]
    fn oversized_request_sheds_inflight_without_burning_rate_tokens() {
        let server = Server::new(ServeConfig {
            max_scenarios_per_request: 2,
            rate_burst: 1.0,
            rate_per_sec: 0.0,
            ..ServeConfig::default()
        });
        let mut client = server.new_client();
        let lines = server.handle_line(&run_request_line(3), &mut client, 0);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"reason\":\"inflight\""), "{}", lines[0]);
        // The single rate token must still be available.
        let lines = server.handle_line(&run_request_line(2), &mut client, 0);
        assert!(lines[0].contains("\"type\":\"accepted\""), "{}", lines[0]);
        // ...and now exhausted.
        let lines = server.handle_line(&run_request_line(2), &mut client, 0);
        assert!(lines[0].contains("\"reason\":\"rate\""), "{}", lines[0]);
        assert!(lines[0].contains("\"retry_ms\":100"));
    }

    #[test]
    fn draining_server_sheds_everything_typed() {
        let server = Server::new(ServeConfig::default());
        server.drain_flag().store(true, Ordering::Relaxed);
        let mut client = server.new_client();
        let lines = server.handle_line(&run_request_line(1), &mut client, 0);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"reason\":\"draining\""), "{}", lines[0]);
        assert!(!lines[0].contains("retry_ms"));
    }

    #[test]
    fn capacity_reservation_is_released_after_requests() {
        let server = Server::new(ServeConfig {
            max_inflight: 4,
            ..ServeConfig::default()
        });
        let mut client = server.new_client();
        for _ in 0..3 {
            let lines = server.handle_line(&run_request_line(4), &mut client, 0);
            assert!(
                lines[0].contains("\"type\":\"accepted\""),
                "capacity must be released between requests: {}",
                lines[0]
            );
        }
        assert_eq!(server.inflight.load(Ordering::Relaxed), 0);
        let lines = server.handle_line(&run_request_line(5), &mut client, 0);
        assert!(lines[0].contains("\"reason\":\"capacity\""), "{}", lines[0]);
    }

    #[test]
    fn stats_report_registry_and_shed_counters() {
        let server = Server::new(ServeConfig {
            max_scenarios_per_request: 2,
            ..ServeConfig::default()
        });
        let mut client = server.new_client();
        server.handle_line(&run_request_line(1), &mut client, 0);
        server.handle_line(&run_request_line(1), &mut client, 0);
        server.handle_line(&run_request_line(8), &mut client, 0); // shed
        let lines = server.handle_line(r#"{"id":"s","op":"stats"}"#, &mut client, 0);
        assert_eq!(lines.len(), 1);
        let doc = json::parse(&lines[0]).unwrap();
        assert_eq!(doc.get("requests").and_then(json::Json::as_usize), Some(2));
        let registry = doc.get("registry").unwrap();
        assert_eq!(registry.get("hits").and_then(json::Json::as_usize), Some(1));
        assert_eq!(
            registry.get("misses").and_then(json::Json::as_usize),
            Some(1)
        );
        assert!(registry.get("warm_units").and_then(json::Json::as_u64) > Some(0));
        let shed = doc.get("shed").unwrap();
        assert_eq!(shed.get("inflight").and_then(json::Json::as_usize), Some(1));
        assert_eq!(shed.get("rate").and_then(json::Json::as_usize), Some(0));
    }

    /// One settings check behind both drivers: every bad setting is
    /// `SweepError::Config(m)` from `run_sweep` and exactly one `error`
    /// line with message `m` and the request's id from the service,
    /// before any `accepted` line, with the capacity released.
    #[test]
    fn sweep_and_serve_refuse_bad_settings_with_one_message() {
        use crate::ensemble::{run_sweep, SweepConfig, SweepError};
        use om_codegen::registry::CompiledModel;

        let model = Arc::new(CompiledModel::compile(OSC).unwrap());
        let server = Server::new(ServeConfig::default());
        let mut client = server.new_client();
        for (n, (field, value)) in [
            ("batch", "0"),
            ("tend", "0"),
            ("tend", "-1"),
            ("tend", "1e999"),
            ("h", "0"),
            ("h", "-0.1"),
            ("h", "1e999"),
            ("scenarios", r#"[{"x":1.0},{"bogus":2.0}]"#),
        ]
        .into_iter()
        .enumerate()
        {
            let mut fields = [
                ("scenarios", r#"[{"x":1.0},{"x":2.0}]"#),
                ("tend", "0.2"),
                ("h", "0.01"),
                ("batch", "1"),
            ];
            fields.iter_mut().find(|f| f.0 == field).unwrap().1 = value;
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let line = format!(
                "{{\"id\":\"p{n}\",\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},{}}}",
                json::escape(OSC),
                body.join(",")
            );
            let Ok(protocol::Request::Run(req)) = protocol::parse_request(&line) else {
                panic!("{line} must parse");
            };
            let cfg = SweepConfig {
                run: req.run,
                batch: req.batch,
                ..SweepConfig::default()
            };
            let Err(SweepError::Config(message)) = run_sweep(&model, &req.scenarios, &cfg) else {
                panic!("{field} {value}: run_sweep must refuse");
            };
            let lines = server.handle_line(&line, &mut client, 0);
            assert_eq!(
                lines,
                [protocol::render_error(&format!("\"p{n}\""), &message)],
                "{field} {value}"
            );
            assert_eq!(server.inflight.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn a_refused_request_line_keeps_its_id() {
        let server = Server::new(ServeConfig::default());
        let mut client = server.new_client();
        for (line, id) in [
            (r#"{"id":"w2","op":"run","workers":2}"#.to_owned(), "\"w2\""),
            (
                run_request_line(1).replace("\"id\":\"r\"", "\"id\":9,\"t0\":1"),
                "9",
            ),
            ("{\"id\":\"cut\"".to_owned(), "null"),
        ] {
            let lines = server.handle_line(&line, &mut client, 0);
            assert_eq!(lines.len(), 1, "{lines:?}");
            assert!(
                lines[0].starts_with(&format!("{{\"type\":\"error\",\"id\":{id},")),
                "{lines:?}"
            );
        }
    }

    /// A span that never ends under its step no longer grows memory: the
    /// scenario keeps only its end state, the deadline stops it, and the
    /// service answers the next line.
    #[test]
    fn an_endless_span_ends_at_its_deadline_and_the_service_lives_on() {
        let server = Server::new(ServeConfig {
            pool_threads: 1,
            ..ServeConfig::default()
        });
        let mut client = server.new_client();
        let line = format!(
            "{{\"id\":\"far\",\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},\
             \"scenarios\":[{{\"x\":1.0}}],\"tend\":1e300,\"h\":1,\"deadline_ms\":200}}",
            json::escape(OSC)
        );
        let lines = server.handle_line(&line, &mut client, 0);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[1].contains("\"status\":\"deadline\""), "{}", lines[1]);
        assert!(lines[2].contains("\"deadline\":1"), "{}", lines[2]);
        let stats = server.handle_line(r#"{"id":"s","op":"stats"}"#, &mut client, 0);
        assert!(stats[0].starts_with("{\"type\":\"stats\""), "{stats:?}");
    }

    #[test]
    fn compile_errors_are_typed_and_release_capacity() {
        let server = Server::new(ServeConfig::default());
        let mut client = server.new_client();
        let bad = r#"{"id":"b","op":"run","model":{"source":"model Broken; Real x; equation end"},"scenarios":[{"x":1.0}]}"#;
        let lines = server.handle_line(bad, &mut client, 0);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"type\":\"error\""), "{}", lines[0]);
        assert!(lines[0].contains("compile:"));
        assert_eq!(server.inflight.load(Ordering::Relaxed), 0);
    }
}
