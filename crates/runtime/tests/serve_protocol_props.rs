//! Hostile-input properties of the `omc serve` wire protocol.
//!
//! Request lines are untrusted bytes. Starting from one valid `run`
//! line, each case drops keys, swaps value types, puts boundary numbers
//! (0, negative, fractional, `1e300`, 2^64, 1e15, 1e18) into the integer
//! envelope fields, adds a key outside the run line's set, truncates the
//! line, or replaces it with arbitrary bytes. `parse_request` must never
//! panic; a line the protocol refuses must come back as a typed `Err`,
//! and a line it accepts as `Ok`. Every line then goes through the
//! service's line handler: a refused line answers one `error` line (a
//! parsed line whose settings the model cannot run too), an accepted one
//! a complete transcript, and the service keeps answering `stats` after
//! all of them. Finally, the line `omc request` renders parses back to
//! the request it was rendered from.

use om_runtime::ensemble::json::{self, Json};
use om_runtime::serve::protocol::{parse_request, render_run, ModelRef, Request, RunRequest};
use om_runtime::{ScenarioRunConfig, ScenarioSpec, ServeConfig, Server};
use proptest::prelude::*;
use std::sync::OnceLock;

const OSC: &str = "model Osc; Real x(start=1.0); Real y; \
                   equation der(x) = y; der(y) = -x; end Osc;";

/// Keys a `run` request cannot do without.
const REQUIRED: [&str; 3] = ["op", "model", "scenarios"];

/// The integer envelope fields and the values tried in them.
const COUNT_KEYS: [&str; 4] = ["batch", "max_rhs", "retries", "deadline_ms"];
const NUMBERS: [&str; 11] = [
    "0",
    "1",
    "2",
    "1.0",
    "-1",
    "0.5",
    "1e300",
    "18446744073709551616",
    "1e15",
    "1e18",
    "-1e300",
];

/// Values of the wrong JSON type for every key.
const WRONG_TYPES: [&str; 5] = ["\"1\"", "true", "null", "[1]", "{}"];

/// One field of the request under mutation.
#[derive(Clone)]
struct Field {
    key: &'static str,
    /// The value's JSON text; `None` once the key is dropped.
    value: Option<String>,
    /// Whether `parse_request` accepts the value.
    parses: bool,
    /// Whether the service runs it (the settings check passes too).
    runs: bool,
}

fn base() -> Vec<Field> {
    let field = |key, value: &str| Field {
        key,
        value: Some(value.to_owned()),
        parses: true,
        runs: true,
    };
    vec![
        field("id", "\"p\""),
        field("op", "\"run\""),
        field(
            "model",
            &format!("{{\"source\":\"{}\"}}", json::escape(OSC)),
        ),
        field("scenarios", "[{\"x\":1.0},{\"x\":1.5}]"),
        field("tend", "0.05"),
        field("h", "0.01"),
        field("deadline_ms", "5000"),
        field("max_rhs", "1000"),
        field("retries", "2"),
        field("batch", "2"),
    ]
}

fn render(fields: &[Field]) -> String {
    let body: Vec<String> = fields
        .iter()
        .filter_map(|f| f.value.as_ref().map(|v| format!("\"{}\":{v}", f.key)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The protocol's rule for an integer envelope field: `(parses, runs)`.
/// It parses as a non-negative integer (2^64 and above saturate), and
/// the settings check runs a `batch` of at least 1.
fn count_verdict(key: &str, text: &str) -> (bool, bool) {
    let Ok(x) = text.parse::<f64>() else {
        return (false, false);
    };
    let count = x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64;
    (count, count && (key != "batch" || x >= 1.0))
}

/// Apply mutation `kind` to the field picked by `which`, with `pick`
/// choosing the new value.
fn mutate(fields: &mut [Field], kind: usize, which: usize, pick: usize) {
    match kind {
        // Drop a key.
        0 => {
            let field = &mut fields[which % fields.len()];
            field.value = None;
            field.parses = !REQUIRED.contains(&field.key);
            field.runs = field.parses;
        }
        // Swap in a value of the wrong type (any `id` is echoed as is).
        1 => {
            let field = &mut fields[which % fields.len()];
            field.value = Some(WRONG_TYPES[pick % WRONG_TYPES.len()].to_owned());
            field.parses = field.key == "id";
            field.runs = field.parses;
        }
        // A boundary number in an integer envelope field.
        _ => {
            let key = COUNT_KEYS[which % COUNT_KEYS.len()];
            let text = NUMBERS[pick % NUMBERS.len()];
            if let Some(field) = fields.iter_mut().find(|f| f.key == key) {
                field.value = Some(text.to_owned());
                (field.parses, field.runs) = count_verdict(key, text);
            }
        }
    }
}

/// One service for every case: its registry stays warm, and every case
/// also checks that earlier hostile lines left it serving.
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        Server::new(ServeConfig {
            pool_threads: 2,
            ..ServeConfig::default()
        })
    })
}

/// A response line's `type`, or empty when it has none.
fn line_type(line: &str) -> String {
    let doc = json::parse(line).unwrap_or(Json::Null);
    doc.get("type")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_owned()
}

/// Run `line` through the handler: a refused line answers exactly one
/// `error` line; an accepted one `accepted`, two scenarios and `done`.
fn check_handler(line: &str, accepted: bool) -> Result<(), TestCaseError> {
    check_handler_lines(line, accepted).map(|_| ())
}

fn check_handler_lines(line: &str, accepted: bool) -> Result<Vec<String>, TestCaseError> {
    let server = server();
    let mut client = server.new_client();
    let lines = server.handle_line(line, &mut client, 0);
    if accepted {
        let types: Vec<String> = lines.iter().map(|l| line_type(l)).collect();
        prop_assert_eq!(
            types,
            ["accepted", "scenario", "scenario", "done"],
            "{:?}",
            lines
        );
    } else {
        prop_assert_eq!(lines.len(), 1, "{:?}", lines);
        prop_assert_eq!(line_type(&lines[0]), "error", "{:?}", lines);
    }
    let stats = server.handle_line(r#"{"id":"s","op":"stats"}"#, &mut client, 0);
    prop_assert_eq!(line_type(&stats[0]), "stats", "{:?}", stats);
    Ok(lines)
}

/// Keys a `run` line must not carry: the retired ones, near misses of
/// real ones, and arbitrary words.
const FOREIGN_KEYS: [&str; 8] = [
    "workers",
    "executor",
    "t0",
    "deadline",
    "bach",
    "max_rhs_calls",
    "source",
    "ID",
];

/// A finite f64 from arbitrary bits (subnormals, -0, huge exponents).
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits >> 12)
    }
}

/// JSON integers travel as f64: counts stay below 2^53.
const EXACT: u64 = 1 << 53;

#[test]
fn the_unmutated_line_is_accepted() {
    let line = render(&base());
    assert!(parse_request(&line).is_ok(), "{line}");
    check_handler(&line, true).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Up to three mutations of the valid line: the parser's verdict is
    /// the protocol's, and the handler answers it in kind.
    #[test]
    fn mutated_run_lines_get_the_protocols_verdict(
        mutations in proptest::collection::vec((0usize..3, 0usize..64, 0usize..64), 1..4),
    ) {
        let mut fields = base();
        for (kind, which, pick) in mutations {
            mutate(&mut fields, kind, which, pick);
        }
        let line = render(&fields);
        let parses = fields.iter().all(|f| f.parses);
        let parsed = parse_request(&line);
        prop_assert_eq!(parsed.is_ok(), parses, "{}: {:?}", line, parsed.err());
        check_handler(&line, fields.iter().all(|f| f.runs))?;
    }

    /// A valid line plus one key outside the run line's set is refused
    /// with an error that names the key and keeps the request's id.
    #[test]
    fn a_key_outside_the_set_is_refused_by_name(
        pick in 0usize..16,
        word in "[a-z_]{1,10}",
        at in 0usize..64,
        value in 0usize..4,
    ) {
        let mut key = FOREIGN_KEYS.get(pick).map_or(word, |k| (*k).to_owned());
        if base().iter().any(|f| f.key == key) {
            key.insert(0, 'x');
        }
        let mut body: Vec<String> = base()
            .iter()
            .filter_map(|f| f.value.as_ref().map(|v| format!("\"{}\":{v}", f.key)))
            .collect();
        let text = ["1", "\"ws\"", "0", "[]"][value];
        body.insert(at % (body.len() + 1), format!("\"{key}\":{text}"));
        let line = format!("{{{}}}", body.join(","));
        let err = parse_request(&line).expect_err("a foreign key is refused");
        prop_assert!(err.message.contains(&format!("'{key}'")), "{}: {:?}", line, err);
        prop_assert_eq!(err.id.as_str(), "\"p\"");
        let lines = check_handler_lines(&line, false)?;
        prop_assert!(lines[0].contains("\"id\":\"p\""), "{:?}", lines);
    }

    /// `parse_request(render_run(r)) == r` for run requests with finite
    /// values.
    #[test]
    fn a_rendered_run_request_parses_back_to_itself(
        id in 0u64..1000,
        text_id in proptest::bool::ANY,
        keyed in proptest::bool::ANY,
        key in 0u64..u64::MAX,
        source in "[a-zA-Z0-9 ;=()\"\\\n]{0,40}",
        rows in proptest::collection::vec(
            proptest::collection::vec(("[a-z\"\\ ]{1,4}", 0u64..u64::MAX), 0..4),
            1..4,
        ),
        span in (0u64..u64::MAX, 0u64..u64::MAX),
        deadline_ms in 0u64..EXACT,
        max_rhs in 0u64..EXACT,
        retries in 0u32..u32::MAX,
        batch in 0u64..EXACT,
    ) {
        let req = RunRequest {
            id: if text_id { format!("\"r{id}\"") } else { id.to_string() },
            model: if keyed {
                ModelRef::Key(key)
            } else {
                ModelRef::Source(source)
            },
            scenarios: rows
                .into_iter()
                .enumerate()
                .map(|(index, row)| {
                    let overrides = row
                        .into_iter()
                        .enumerate()
                        .map(|(i, (name, bits))| (format!("{i}{name}"), finite(bits)))
                        .collect();
                    ScenarioSpec::new(index, overrides)
                })
                .collect(),
            run: ScenarioRunConfig {
                tend: finite(span.0),
                h: finite(span.1),
                deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
                max_rhs_calls: max_rhs,
                max_retries: retries,
                ..ScenarioRunConfig::default()
            },
            batch: batch as usize,
        };
        let line = render_run(&req);
        match parse_request(&line) {
            Ok(Request::Run(back)) => prop_assert_eq!(*back, req, "{}", line),
            other => prop_assert!(false, "{}: {:?}", line, other),
        }
    }

    /// Every strict prefix of a valid line is malformed, whatever it
    /// would have said.
    #[test]
    fn truncated_lines_are_typed_errors(
        mutations in proptest::collection::vec((0usize..3, 0usize..64, 0usize..64), 0..3),
        cut in 0usize..4096,
    ) {
        let mut fields = base();
        for (kind, which, pick) in mutations {
            mutate(&mut fields, kind, which, pick);
        }
        let line = render(&fields);
        let prefix = &line[..cut % line.len()];
        prop_assert!(parse_request(prefix).is_err(), "{}", prefix);
        check_handler(prefix, false)?;
    }

    /// Arbitrary bytes, alone or spliced into a valid line, never panic
    /// the parser or the handler.
    #[test]
    fn arbitrary_bytes_never_panic(
        noise in proptest::collection::vec(0u8..=255, 0..96),
        at in 0usize..4096,
        splice in proptest::bool::ANY,
    ) {
        let mut bytes = Vec::new();
        if splice {
            let line = render(&base()).into_bytes();
            let at = at % line.len();
            bytes.extend_from_slice(&line[..at]);
            bytes.extend_from_slice(&noise);
            bytes.extend_from_slice(&line[at..]);
        } else {
            bytes = noise;
        }
        let text = String::from_utf8_lossy(&bytes);
        let accepted = parse_request(&text).is_ok();
        let server = server();
        let mut client = server.new_client();
        let lines = server.handle_line(&text, &mut client, 0);
        prop_assert!(!lines.is_empty());
        if !accepted {
            prop_assert_eq!(lines.len(), 1, "{:?}", lines);
            prop_assert_eq!(line_type(&lines[0]), "error", "{:?}", lines);
        }
    }
}
