//! The `omc serve` wire protocol: newline-delimited JSON, one request
//! per line, a stream of response lines per request.
//!
//! ## Requests
//!
//! ```json
//! {"id":"r1","op":"run","model":{"source":"model Osc; ... end Osc;"},
//!  "scenarios":[{"x":1.0},{"x":1.1}],
//!  "tend":0.2,"h":0.01,"deadline_ms":500,"max_rhs":100000,"retries":2,
//!  "batch":8}
//! {"id":"r2","op":"run","model":{"key":"00a1b2c3d4e5f607"},"scenarios":[{"x":1.2}]}
//! {"id":"s1","op":"stats"}
//! ```
//!
//! `model` names the compiled artifact either inline (`source`) or by
//! the content key a previous `accepted` response reported (`key` — the
//! warm fast path: no source bytes shipped, no hash computed). Every
//! scenario object maps state names to initial-value overrides, exactly
//! like one row of `omc sweep --params`. All solver/envelope fields are
//! optional and default to the sweep defaults; one that is present must
//! have its documented type (`t0`/`tend`/`h` numbers, `deadline_ms`/
//! `max_rhs`/`retries` non-negative integers, `batch` a positive
//! integer), or the request is an `error`. A scenario runs in the thread
//! of the service worker that takes it, so a `workers` key may only say
//! `1` (the service's `--concurrency` is the parallel axis). An
//! `executor` key may name `"ws"`, the one executor; any other value (the
//! removed `"barrier"` too) is an `error`.
//!
//! ## Responses
//!
//! Every line is a JSON object with a `type` and the request's `id`
//! echoed back (so clients can pipeline):
//!
//! * `accepted` — admission succeeded; reports `model_key`, `identity`,
//!   scenario count, and whether the registry was `warm` for this model.
//! * `scenario` — one per scenario, in index order. The `record` value
//!   is **byte-identical** to the corresponding `omc sweep` manifest
//!   row ([`crate::ensemble::checkpoint::render_record`] verbatim), so
//!   the sweep differential suites are the serve oracle.
//! * `done` — terminal counts + wall time for the request.
//! * `overloaded` — typed shed: `reason` ∈ rate|inflight|capacity|
//!   draining, optional `retry_ms` hint, the client's running shed
//!   count. The request executed nothing.
//! * `error` — malformed request, unknown model key, or compile failure;
//!   after `accepted`, it ends (in place of `done`) only a request whose
//!   scenarios the service lost to a shutdown mid-request.
//! * `stats` — service-level counters (for `op":"stats"`).

use super::quota::ShedReason;
use crate::ensemble::json::{self, Json};
use crate::ensemble::{ScenarioRunConfig, ScenarioSpec};
use crate::strategy::Strategy;
use std::fmt::Write as _;
use std::time::Duration;

/// How a request names its model.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelRef {
    /// Inline source — compiled on first sight, warm thereafter.
    Source(String),
    /// A content key from a previous `accepted` response (16 hex chars).
    Key(u64),
}

/// A decoded `op:"run"` request.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The request id, pre-rendered as a JSON fragment for echoing
    /// (`"r1"` or `17` or `null`).
    pub id: String,
    pub model: ModelRef,
    pub scenarios: Vec<ScenarioSpec>,
    pub run: ScenarioRunConfig,
    /// SoA lane width, as for `omc sweep --batch`.
    pub batch: usize,
}

/// Any decoded request.
#[derive(Clone, Debug)]
pub enum Request {
    Run(Box<RunRequest>),
    Stats { id: String },
}

impl Request {
    pub fn id(&self) -> &str {
        match self {
            Request::Run(r) => &r.id,
            Request::Stats { id } => id,
        }
    }
}

/// Render a request `id` value as a JSON fragment for echoing. Strings
/// and integers round-trip; anything else (or absence) echoes `null`.
fn render_id(doc: &Json) -> String {
    match doc.get("id") {
        Some(Json::Str(s)) => format!("\"{}\"", json::escape(s)),
        Some(Json::Num(x)) if x.fract() == 0.0 => format!("{}", *x as i64),
        Some(Json::Num(x)) => format!("{x}"),
        _ => "null".into(),
    }
}

/// Decode one request line. The error string is already client-facing
/// (it goes into an `error` response verbatim).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
    let id = render_id(&doc);
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing 'op' field (expected \"run\" or \"stats\")")?;
    match op {
        "stats" => Ok(Request::Stats { id }),
        "run" => parse_run(&doc, id).map(|r| Request::Run(Box::new(r))),
        other => Err(format!(
            "unknown op '{other}' (expected \"run\" or \"stats\")"
        )),
    }
}

fn parse_run(doc: &Json, id: String) -> Result<RunRequest, String> {
    let model_field = doc.get("model").ok_or("missing 'model' object")?;
    let model = if let Some(src) = model_field.get("source").and_then(Json::as_str) {
        ModelRef::Source(src.to_string())
    } else if let Some(hex) = model_field.get("key").and_then(Json::as_str) {
        let key = u64::from_str_radix(hex, 16)
            .map_err(|_| format!("model key '{hex}' is not 16 hex digits"))?;
        ModelRef::Key(key)
    } else {
        return Err("'model' needs either \"source\" or \"key\"".into());
    };

    let scenario_rows = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("missing 'scenarios' array")?;
    if scenario_rows.is_empty() {
        return Err("'scenarios' must not be empty".into());
    }
    let mut scenarios = Vec::with_capacity(scenario_rows.len());
    for (index, row) in scenario_rows.iter().enumerate() {
        let fields = row
            .as_obj()
            .ok_or_else(|| format!("scenario {index} is not an object"))?;
        let mut overrides = Vec::with_capacity(fields.len());
        for (name, value) in fields {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("scenario {index}: '{name}' is not a number"))?;
            overrides.push((name.clone(), v));
        }
        scenarios.push(ScenarioSpec::new(index, overrides));
    }

    let mut run = ScenarioRunConfig::default();
    let number = |key| optional(doc, key, "a number", Json::as_f64);
    let count = |key| optional(doc, key, "a non-negative integer", Json::as_u64);
    if let Some(t0) = number("t0")? {
        run.t0 = t0;
    }
    if let Some(tend) = number("tend")? {
        run.tend = tend;
    }
    if !(run.t0.is_finite() && run.tend.is_finite() && run.tend > run.t0) {
        return Err(format!(
            "'tend' {} must be a finite time after 't0' {}",
            run.tend, run.t0
        ));
    }
    if let Some(h) = number("h")? {
        if !(h.is_finite() && h > 0.0) {
            return Err("'h' must be a positive finite step".into());
        }
        run.h = h;
    }
    if let Some(ms) = count("deadline_ms")? {
        run.deadline = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(cap) = count("max_rhs")? {
        run.max_rhs_calls = cap;
    }
    if let Some(r) = count("retries")? {
        run.max_retries = r.min(u32::MAX as u64) as u32;
    }
    // Accepted at 1 for clients that still send it.
    match count("workers")? {
        None | Some(1) => {}
        Some(w) => {
            return Err(format!(
                "'workers' {w} is not supported: a scenario runs in one service worker's \
                 thread (parallelize across scenarios with `omc serve --concurrency`)"
            ));
        }
    }
    // The one executor's token, accepted for clients that still send it.
    if let Some(token) = optional(doc, "executor", "a string", Json::as_str)? {
        token.parse::<Strategy>()?;
    }
    let batch = match count("batch")? {
        Some(0) => return Err("'batch' must be at least 1".into()),
        Some(b) => usize::try_from(b).unwrap_or(usize::MAX),
        None => 1,
    };

    Ok(RunRequest {
        id,
        model,
        scenarios,
        run,
        batch,
    })
}

/// An optional request field: absent is `Ok(None)`; present but not of
/// the kind `as_kind` accepts is an error naming the key.
fn optional<'a, T>(
    doc: &'a Json,
    key: &str,
    kind: &str,
    as_kind: fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(value) => as_kind(value)
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be {kind}")),
    }
}

/// `accepted` response line.
pub fn render_accepted(
    id: &str,
    model_key: u64,
    identity: u64,
    scenarios: usize,
    warm: bool,
) -> String {
    format!(
        "{{\"type\":\"accepted\",\"id\":{id},\"model_key\":\"{model_key:016x}\",\
         \"identity\":\"{identity:016x}\",\"scenarios\":{scenarios},\
         \"registry\":\"{}\"}}",
        if warm { "warm" } else { "cold" }
    )
}

/// `scenario` response line. `record` must be a
/// [`render_record`](crate::ensemble::checkpoint::render_record) string,
/// embedded verbatim so it stays byte-identical to the sweep manifest
/// row for the same scenario.
pub fn render_scenario(id: &str, record: &str) -> String {
    format!("{{\"type\":\"scenario\",\"id\":{id},\"record\":{record}}}")
}

/// `done` response line.
pub fn render_done(
    id: &str,
    completed: usize,
    quarantined: usize,
    deadline: usize,
    wall_us: u64,
) -> String {
    format!(
        "{{\"type\":\"done\",\"id\":{id},\"completed\":{completed},\
         \"quarantined\":{quarantined},\"deadline\":{deadline},\"wall_us\":{wall_us}}}"
    )
}

/// `overloaded` response line (typed shed).
pub fn render_overloaded(id: &str, reason: ShedReason, client_sheds: u64) -> String {
    let mut out = format!(
        "{{\"type\":\"overloaded\",\"id\":{id},\"reason\":\"{}\",\"shed_count\":{client_sheds}",
        reason.as_str()
    );
    if let Some(ms) = reason.retry_ms() {
        let _ = write!(out, ",\"retry_ms\":{ms}");
    }
    out.push('}');
    out
}

/// `error` response line.
pub fn render_error(id: &str, message: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"id\":{id},\"message\":\"{}\"}}",
        json::escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const OSC: &str = "model Osc; Real x(start=1.0); equation der(x) = -x; end Osc;";

    fn run_line(batch: usize) -> String {
        format!(
            "{{\"id\":\"r1\",\"op\":\"run\",\"model\":{{\"source\":\"{}\"}},\
             \"scenarios\":[{{\"x\":1.0}},{{\"x\":1.5}}],\"tend\":0.2,\"h\":0.01,\
             \"deadline_ms\":500,\"max_rhs\":1000,\"retries\":3,\"workers\":1,\
             \"executor\":\"ws\",\"batch\":{batch}}}",
            json::escape(OSC)
        )
    }

    #[test]
    fn run_request_round_trips_every_field() {
        let Request::Run(req) = parse_request(&run_line(4)).unwrap() else {
            panic!("expected run request");
        };
        assert_eq!(req.id, "\"r1\"");
        assert_eq!(req.model, ModelRef::Source(OSC.into()));
        assert_eq!(req.scenarios.len(), 2);
        assert_eq!(req.scenarios[1].index, 1);
        assert_eq!(req.scenarios[1].overrides, vec![("x".to_string(), 1.5)]);
        assert_eq!(req.run.tend, 0.2);
        assert_eq!(req.run.h, 0.01);
        assert_eq!(req.run.deadline, Some(Duration::from_millis(500)));
        assert_eq!(req.run.max_rhs_calls, 1000);
        assert_eq!(req.run.max_retries, 3);
        assert_eq!(req.batch, 4);
    }

    #[test]
    fn key_reference_parses_hex() {
        let line =
            r#"{"id":7,"op":"run","model":{"key":"00000000000000ff"},"scenarios":[{"x":1.0}]}"#;
        let Request::Run(req) = parse_request(line).unwrap() else {
            panic!("expected run request");
        };
        assert_eq!(req.id, "7");
        assert_eq!(req.model, ModelRef::Key(0xff));
    }

    #[test]
    fn stats_request_parses() {
        let req = parse_request(r#"{"id":"s","op":"stats"}"#).unwrap();
        assert!(matches!(req, Request::Stats { .. }));
        assert_eq!(req.id(), "\"s\"");
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (line, needle) in [
            ("not json", "malformed"),
            (r#"{"id":1}"#, "missing 'op'"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"run","scenarios":[{"x":1}]}"#, "missing 'model'"),
            (r#"{"op":"run","model":{},"scenarios":[{"x":1}]}"#, "source"),
            (
                r#"{"op":"run","model":{"key":"xyz"},"scenarios":[{"x":1}]}"#,
                "hex",
            ),
            (r#"{"op":"run","model":{"source":"m"}}"#, "scenarios"),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[]}"#,
                "empty",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":"one"}]}"#,
                "not a number",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"workers":0}"#,
                "workers",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"workers":2}"#,
                "--concurrency",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"workers":"1"}"#,
                "'workers' must be a non-negative integer",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"retries":-1}"#,
                "'retries' must be a non-negative integer",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"tend":"1"}"#,
                "'tend' must be a number",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"executor":7}"#,
                "'executor' must be a string",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"batch":0}"#,
                "batch",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"h":-0.1}"#,
                "positive",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"h":0}"#,
                "positive",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"tend":0}"#,
                "'tend' 0 must be a finite time after 't0' 0",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"tend":-1}"#,
                "'tend' -1 must be",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"t0":2,"tend":1}"#,
                "after 't0' 2",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"tend":1e999}"#,
                "finite",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"executor":"gpu"}"#,
                "unknown executor",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"executor":"barrier"}"#,
                "the one executor is 'ws'",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "line {line}: got '{err}'");
        }
    }

    #[test]
    fn responses_are_valid_jsonl_and_echo_ids() {
        let lines = [
            render_accepted("\"r1\"", 0xab, 0xcd, 3, true),
            render_scenario("\"r1\"", r#"{"index":0,"status":"skipped"}"#),
            render_done("\"r1\"", 2, 1, 0, 1234),
            render_overloaded("null", ShedReason::Rate, 4),
            render_overloaded("7", ShedReason::Draining, 1),
            render_error("\"r1\"", "bad \"quote\""),
        ];
        for line in &lines {
            let doc = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(doc.get("type").is_some(), "{line}");
        }
        assert!(lines[0].contains("\"registry\":\"warm\""));
        assert!(lines[3].contains("\"retry_ms\":100"));
        assert!(!lines[4].contains("retry_ms"), "draining has no retry");
    }
}
