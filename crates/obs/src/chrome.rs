//! chrome://tracing / Perfetto JSON export and validation.
//!
//! The export uses the [Trace Event Format]'s JSON-object form:
//! `{"traceEvents": [...], "displayTimeUnit": "ms"}` with `B`/`E`
//! duration events, `i` instants, `C` counters, and `M` metadata records
//! naming each thread track. Timestamps are microseconds (fractional, so
//! no nanosecond precision is lost). Load the file at `chrome://tracing`
//! or <https://ui.perfetto.dev>.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! [`validate_chrome_json`] re-parses an exported document and checks the
//! structural invariants the golden-trace tests rely on: required fields,
//! balanced LIFO `B`/`E` nesting per thread, and per-thread monotonic
//! timestamps.

use crate::json::{self, Json};
use crate::span::{Phase, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The pid used for every emitted event (single-process tracer).
const PID: u64 = 1;

/// Serialize a [`Trace`] to chrome-trace JSON.
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::with_capacity(64 + trace.events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
        out.push('\n');
    };
    for (tid, name) in &trace.threads {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{PID},\"tid\":{tid},\
                 \"ts\":0,\"args\":{{\"name\":\"{}\"}}}}",
                json::escape(name)
            ),
            &mut out,
        );
    }
    for e in &trace.events {
        let ts_us = e.ts_ns as f64 / 1000.0;
        let mut line = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"pid\":{PID},\
             \"tid\":{},\"ts\":{ts_us:.3}",
            json::escape(e.name),
            json::escape(e.cat),
            match e.ph {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
                Phase::Counter => "C",
            },
            e.tid,
        );
        match e.ph {
            Phase::Instant => line.push_str(",\"s\":\"t\""),
            Phase::Counter => {
                let _ = write!(line, ",\"args\":{{\"value\":{}}}", finite(e.value));
            }
            _ => {
                if let Some((k, v)) = e.arg {
                    let _ = write!(line, ",\"args\":{{\"{}\":{v}}}", json::escape(k));
                }
            }
        }
        line.push('}');
        push(line, &mut out);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Per-thread structural facts extracted during validation.
#[derive(Clone, Debug, Default)]
pub struct TrackCheck {
    /// Thread-name metadata, if present.
    pub name: Option<String>,
    /// Event count (excluding metadata records).
    pub events: usize,
    /// Maximum `B`/`E` nesting depth observed.
    pub max_depth: usize,
    /// Ordered `(phase, name)` sequence, e.g. `("B", "rhs.eval")`.
    pub sequence: Vec<(String, String)>,
}

/// Whole-document facts returned by [`validate_chrome_json`].
#[derive(Clone, Debug, Default)]
pub struct TraceCheck {
    /// Non-metadata event count.
    pub events: usize,
    /// Per-tid facts.
    pub tracks: BTreeMap<u64, TrackCheck>,
}

/// Parse and structurally validate a chrome-trace JSON document:
///
/// * top level is an object with a `traceEvents` array,
/// * every event has string `name`/`ph` and numeric `pid`/`tid`/`ts`,
/// * per thread, `B`/`E` pairs balance with LIFO name matching (proper
///   nesting) and nothing is left open,
/// * per thread, timestamps are monotonically non-decreasing.
pub fn validate_chrome_json(doc: &str) -> Result<TraceCheck, String> {
    let root = json::parse(doc)?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut check = TraceCheck::default();
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        ev.get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts {ts}"));
        }
        if ph == "M" {
            if name == "thread_name" {
                if let Some(n) = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    check.tracks.entry(tid).or_default().name = Some(n.to_owned());
                }
            }
            continue;
        }
        let track = check.tracks.entry(tid).or_default();
        track.events += 1;
        track.sequence.push((ph.to_owned(), name.to_owned()));
        check.events += 1;
        let prev = last_ts.entry(tid).or_insert(0.0);
        if ts < *prev {
            return Err(format!(
                "event {i} (`{name}`): ts {ts} goes backwards on tid {tid} (prev {prev})"
            ));
        }
        *prev = ts;
        match ph {
            "B" => {
                let stack = stacks.entry(tid).or_default();
                stack.push(name.to_owned());
                track.max_depth = track.max_depth.max(stack.len());
            }
            "E" => {
                let stack = stacks.entry(tid).or_default();
                match stack.pop() {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!(
                            "event {i}: `E {name}` closes `B {open}` on tid {tid} — bad nesting"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: `E {name}` with no open span on tid {tid}"
                        ))
                    }
                }
            }
            "i" | "I" | "C" => {}
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: unclosed spans at EOF: {stack:?}"));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;
    use crate::{collect, counter_value, init, instant, span, ObsConfig};

    #[test]
    fn export_validates_and_names_threads() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        init(&ObsConfig::enabled());
        {
            let _a = span("outer", "test");
            {
                let _b = span("inner", "test");
                instant("tick", "test");
            }
            counter_value("depth", 1.0);
        }
        let trace = collect();
        let doc = to_chrome_json(&trace);
        let check = validate_chrome_json(&doc).expect("valid trace");
        assert_eq!(check.events, 6); // 2 B + 2 E + i + C
        let track = check.tracks.values().next().unwrap();
        assert_eq!(track.max_depth, 2);
        assert!(track.name.is_some());
        init(&ObsConfig::disabled());
    }

    #[test]
    fn validator_rejects_bad_nesting() {
        let doc = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"B","pid":1,"tid":1,"ts":1.0},
            {"name":"b","cat":"t","ph":"E","pid":1,"tid":1,"ts":2.0}
        ]}"#;
        let err = validate_chrome_json(doc).unwrap_err();
        assert!(err.contains("bad nesting"), "{err}");
    }

    #[test]
    fn validator_rejects_backwards_time() {
        let doc = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"i","pid":1,"tid":1,"ts":5.0},
            {"name":"b","cat":"t","ph":"i","pid":1,"tid":1,"ts":4.0}
        ]}"#;
        let err = validate_chrome_json(doc).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_unclosed_spans() {
        let doc = r#"{"traceEvents":[
            {"name":"a","cat":"t","ph":"B","pid":1,"tid":1,"ts":1.0}
        ]}"#;
        let err = validate_chrome_json(doc).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn validator_reads_the_last_of_duplicate_keys() {
        // Last occurrence wins, as in every mainstream parser: the second
        // `ts` keeps the clock monotonic, the second `traceEvents` is the
        // array that gets validated.
        let doc = r#"{"traceEvents":[{"ph":"i"}],"traceEvents":[
            {"name":"a","cat":"t","ph":"i","pid":1,"tid":1,"ts":5.0},
            {"name":"b","cat":"t","ph":"i","pid":1,"tid":1,"ts":4.0,"ts":6.0}
        ]}"#;
        let check = validate_chrome_json(doc).expect("last duplicate wins");
        assert_eq!(check.events, 2);
    }

    #[test]
    fn validator_requires_fields() {
        let err = validate_chrome_json(r#"{"traceEvents":[{"ph":"i"}]}"#).unwrap_err();
        assert!(err.contains("missing name"), "{err}");
        let err = validate_chrome_json(r#"{"notTraceEvents":[]}"#).unwrap_err();
        assert!(err.contains("missing traceEvents"), "{err}");
    }
}
