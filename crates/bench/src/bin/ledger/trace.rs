//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public function; nothing inside the program is
//! instrumented. A span carries its name, start, end, the span that
//! caused it, and the id of the replayed op it belongs to. Everything
//! stays in memory until the run ends; [`chrome_json`] then
//! renders it through `om-obs`'s chrome-trace exporter.

use om_obs::span::{Event, Phase, Trace};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Id of the replayed op this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// Single-threaded span recorder. With recording off, [`Recorder::time`]
/// only calls the closure, which is what the overhead ratio compares
/// against.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                open: Vec::new(),
                op: 0,
            }),
        }
    }

    /// Run `f` as one replayed op: a root span named `op` with a fresh
    /// op id shared by every span recorded inside it.
    pub fn op<T>(&self, f: impl FnOnce() -> T) -> T {
        self.inner.borrow_mut().op += 1;
        self.time("op", f)
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let span = Span {
                name,
                op: inner.op,
                parent: inner.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
            };
            inner.spans.push(span);
            inner.open.push(index);
            index
        };
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[index].start_ns = start_ns;
        inner.spans[index].end_ns = end_ns;
        inner.open.pop();
        result
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in the order they were entered.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Chrome-trace JSON of `spans`. Spans called `leaf` (the per-RHS-call
/// spans: thousands per op) are written for the first op only, so the
/// file stays loadable.
pub fn chrome_json(spans: &[Span], leaf: &str) -> String {
    let first_op = spans.first().map_or(0, |s| s.op);
    let keep: Vec<bool> = spans
        .iter()
        .map(|s| s.name != leaf || s.op == first_op)
        .collect();
    om_obs::chrome::to_chrome_json(&to_trace(spans, &keep))
}

/// Self time of every span: its duration minus the part its child spans
/// cover. Children of one parent never overlap (one thread, strictly
/// nested), so the covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name, one value per replayed op: the summed (total, self)
/// milliseconds of that name's spans inside the op.
pub fn per_op_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<(f64, f64)>> {
    let own = self_times_ns(spans);
    let mut sums: BTreeMap<(&'static str, u32), (u64, u64)> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(&own) {
        let entry = sums.entry((span.name, span.op)).or_default();
        entry.0 += span.duration_ns();
        entry.1 += *own_ns;
    }
    let mut out: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    for ((name, _op), (total_ns, own_ns)) in sums {
        out.entry(name)
            .or_default()
            .push((total_ns as f64 / 1e6, own_ns as f64 / 1e6));
    }
    out
}

/// Balanced begin/end events in timestamp order. Spans are stored in the
/// order they were entered, so closing every open span that is not the
/// next span's parent before opening it keeps the nesting LIFO.
fn to_trace(spans: &[Span], keep: &[bool]) -> Trace {
    let event = |span: &Span, ph: Phase| Event {
        name: span.name,
        cat: "ledger",
        ts_ns: if matches!(ph, Phase::Begin) {
            span.start_ns
        } else {
            span.end_ns
        },
        ph,
        tid: 1,
        value: 0.0,
        arg: Some(("op", i64::from(span.op))),
    };
    let mut events = Vec::with_capacity(2 * spans.len());
    let mut open: Vec<usize> = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        if !keep[index] {
            continue;
        }
        while open.last().is_some_and(|top| Some(*top) != span.parent) {
            let closed = open.pop().expect("checked non-empty");
            events.push(event(&spans[closed], Phase::End));
        }
        events.push(event(span, Phase::Begin));
        open.push(index);
    }
    while let Some(closed) = open.pop() {
        events.push(event(&spans[closed], Phase::End));
    }
    Trace {
        events,
        threads: vec![(1, "ledger replay".to_owned())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u32, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let spans = vec![
            span("op", 1, None, 0, 100),
            span("a", 1, Some(0), 10, 40),
            span("rhs", 1, Some(1), 15, 20),
            span("rhs", 1, Some(1), 25, 35),
            span("b", 1, Some(0), 50, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 15, 5, 10, 40]);
        // Self times of one op add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);

        let per_op = per_op_ms(&spans);
        assert_eq!(per_op["rhs"], vec![(15.0 / 1e6, 15.0 / 1e6)]);
        assert_eq!(per_op["a"], vec![(30.0 / 1e6, 15.0 / 1e6)]);
    }

    #[test]
    fn recorder_nests_spans_and_numbers_ops() {
        let rec = Recorder::new(true);
        for _ in 0..2 {
            rec.op(|| {
                rec.time("outer", || rec.time("inner", || ()));
                rec.time("sibling", || ());
            });
        }
        let spans = rec.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("op", 1, None),
                ("outer", 1, Some(0)),
                ("inner", 1, Some(1)),
                ("sibling", 1, Some(0)),
                ("op", 2, None),
                ("outer", 2, Some(4)),
                ("inner", 2, Some(5)),
                ("sibling", 2, Some(4)),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(per_op_ms(&spans)["inner"].len(), 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.op(|| rec.time("x", || 7)), 7);
        assert!(rec.into_spans().is_empty());
    }

    #[test]
    fn chrome_json_is_balanced_and_drops_later_leaves() {
        let rec = Recorder::new(true);
        for _ in 0..3 {
            rec.op(|| rec.time("solve", || rec.time("rhs", || ())));
        }
        let json = chrome_json(&rec.into_spans(), "rhs");
        let check = om_obs::chrome::validate_chrome_json(&json).expect("valid");
        // 3 ops x (op + solve) + one rhs, each a begin and an end.
        assert_eq!(check.events, 2 * (3 * 2 + 1));
        assert_eq!(check.tracks[&1].max_depth, 3);
    }
}
