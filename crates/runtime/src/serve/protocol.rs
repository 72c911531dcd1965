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
//! like one row of `omc sweep --params`.
//!
//! A `run` line carries only the keys in [`RUN_KEYS`]; any other key is
//! an `error` that names it. A client that still sends `workers`,
//! `executor` or `t0` is refused the same way: a scenario runs in the
//! thread of the service worker that takes it (the service's
//! `--concurrency` is the parallel axis), the pool has one policy, and
//! every scenario integrates from t = 0. The solver/envelope fields are
//! optional and default to the sweep defaults; one that is present must
//! have its documented type (`tend`/`h` numbers, `deadline_ms`/`max_rhs`/
//! `retries`/`batch` non-negative integers), or the request is an
//! `error`. The settings themselves (a positive finite `tend` and `h`, a
//! `batch` of at least 1, override names the model has) are checked once
//! the model is resolved, by the same
//! [`check_settings`](crate::ensemble::check_settings) `omc sweep` runs,
//! so both refuse alike. [`render_run`] writes the line `omc request`
//! sends, and [`parse_request`] reads it back to the same request.

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
//! * `error` — malformed request, unknown model key, compile failure, or
//!   settings the model cannot run; it carries the request's `id` when
//!   the line was a JSON object with one (`null` otherwise). After
//!   `accepted`, it ends (in place of `done`) only a request whose
//!   scenarios the service lost to a shutdown mid-request.
//! * `stats` — service-level counters (for `op":"stats"`).

use super::quota::ShedReason;
use crate::ensemble::json::{self, Json};
use crate::ensemble::{ScenarioRunConfig, ScenarioSpec};
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

/// The keys a `run` request line may carry.
pub const RUN_KEYS: [&str; 10] = [
    "id",
    "op",
    "model",
    "scenarios",
    "tend",
    "h",
    "deadline_ms",
    "max_rhs",
    "retries",
    "batch",
];

/// A decoded `op:"run"` request.
#[derive(Clone, Debug, PartialEq)]
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
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Run(Box<RunRequest>),
    Stats { id: String },
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

/// A request line the protocol refuses: the client-facing message (it
/// goes into an `error` response verbatim) and the request's rendered
/// `id`, `null` when the line is not a JSON object with one.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestError {
    pub id: String,
    pub message: String,
}

/// Decode one request line.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = json::parse(line).map_err(|e| RequestError {
        id: "null".into(),
        message: format!("malformed request JSON: {e}"),
    })?;
    let id = render_id(&doc);
    let parsed = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing 'op' field (expected \"run\" or \"stats\")".to_owned())
        .and_then(|op| match op {
            "stats" => Ok(Request::Stats { id: id.clone() }),
            "run" => parse_run(&doc, id.clone()).map(|r| Request::Run(Box::new(r))),
            other => Err(format!(
                "unknown op '{other}' (expected \"run\" or \"stats\")"
            )),
        });
    parsed.map_err(|message| RequestError { id, message })
}

fn parse_run(doc: &Json, id: String) -> Result<RunRequest, String> {
    if let Some((key, _)) = doc
        .as_obj()
        .into_iter()
        .flatten()
        .find(|(key, _)| !RUN_KEYS.contains(&key.as_str()))
    {
        return Err(format!(
            "unknown key '{key}' in a run request (a run line carries only {})",
            RUN_KEYS.join(", ")
        ));
    }
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
    if let Some(tend) = number("tend")? {
        run.tend = tend;
    }
    if let Some(h) = number("h")? {
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
    let batch = count("batch")?.map_or(1, |b| usize::try_from(b).unwrap_or(usize::MAX));

    Ok(RunRequest {
        id,
        model,
        scenarios,
        run,
        batch,
    })
}

/// The request line for `req`, every wire field written out. Numbers
/// are rendered shortest-round-trip, so [`parse_request`] reads back the
/// same request (finite values; the envelope's backoff is not on the
/// wire and comes back as the default).
pub fn render_run(req: &RunRequest) -> String {
    let model = match &req.model {
        ModelRef::Source(source) => format!("{{\"source\":\"{}\"}}", json::escape(source)),
        ModelRef::Key(key) => format!("{{\"key\":\"{key:016x}\"}}"),
    };
    let scenarios: Vec<String> = req
        .scenarios
        .iter()
        .map(|spec| {
            let fields: Vec<String> = spec
                .overrides
                .iter()
                .map(|(name, v)| format!("\"{}\":{v:e}", json::escape(name)))
                .collect();
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    let run = &req.run;
    format!(
        "{{\"id\":{},\"op\":\"run\",\"model\":{model},\"scenarios\":[{}],\"tend\":{:e},\
         \"h\":{:e},\"deadline_ms\":{},\"max_rhs\":{},\"retries\":{},\"batch\":{}}}",
        req.id,
        scenarios.join(","),
        run.tend,
        run.h,
        run.deadline.map_or(0, |d| d.as_millis()),
        run.max_rhs_calls,
        run.max_retries,
        req.batch,
    )
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
             \"deadline_ms\":500,\"max_rhs\":1000,\"retries\":3,\"batch\":{batch}}}",
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
        assert_eq!(req, Request::Stats { id: "\"s\"".into() });
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
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"retries":-1}"#,
                "'retries' must be a non-negative integer",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"tend":"1"}"#,
                "'tend' must be a number",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"batch":-1}"#,
                "'batch' must be a non-negative integer",
            ),
            // Keys outside the run line's set, the retired ones included.
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"workers":1}"#,
                "unknown key 'workers'",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"executor":"ws"}"#,
                "unknown key 'executor'",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"t0":0}"#,
                "unknown key 't0'",
            ),
            (
                r#"{"op":"run","model":{"source":"m"},"scenarios":[{"x":1}],"deadline":500}"#,
                "unknown key 'deadline'",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.message.contains(needle), "line {line}: got {err:?}");
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
