//! # om-obs — scheduler & solver observability
//!
//! A zero-external-dependency tracing/metrics substrate for the runtime,
//! solver, and analysis layers. Design goals, in order:
//!
//! 1. **Cheap when off.** Every recording entry point first checks a
//!    single relaxed atomic; with the `enabled` cargo feature off the
//!    check is a constant `false` and the layer compiles to no-ops.
//! 2. **Lock-free hot path when on.** Span events go into a per-thread
//!    buffer (a plain `Vec` owned by the recording thread); the only
//!    locks are taken once per thread lifetime (registration) and at
//!    [`collect`] time. Metric handles are `Arc`s over atomics.
//! 3. **Standard output formats.** [`chrome::to_chrome_json`] emits
//!    chrome://tracing / Perfetto JSON; [`summary`] renders a plain-text
//!    report of span totals and metric values.
//!
//! ## Usage
//!
//! ```
//! om_obs::init(&om_obs::ObsConfig::enabled());
//! {
//!     let _span = om_obs::span("work", "demo");
//!     om_obs::metrics().counter("demo.widgets").inc();
//! }
//! let trace = om_obs::collect();
//! let json = om_obs::chrome::to_chrome_json(&trace);
//! assert!(om_obs::chrome::validate_chrome_json(&json).is_ok());
//! ```
//!
//! Threads flush their buffers when they exit; a live thread's events are
//! included in [`collect`] only for the calling thread, so drain worker
//! pools (drop them) before exporting.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod span;

pub use metrics::{metrics, Counter, Gauge, Histogram, MetricsRegistry};
pub use span::{
    collect, counter_value, flush_thread, instant, span, span_arg, Event, Phase, SpanGuard, Trace,
};

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static DETAIL_EVERY: AtomicU32 = AtomicU32::new(DEFAULT_DETAIL_EVERY);

/// Default fine-grained-detail sampling period (see
/// [`ObsConfig::detail_every`]).
pub const DEFAULT_DETAIL_EVERY: u32 = 16;

/// Observability configuration. Constructed with [`ObsConfig::enabled`] /
/// [`ObsConfig::disabled`] and applied with [`init`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when false, spans, instants, counter events, and
    /// metric updates all record exactly nothing.
    pub enabled: bool,
    /// Fine-grained-detail sampling period: always-on signals (top-level
    /// spans, queue-depth counters, metric atomics) record on every
    /// operation, while *detail* spans (per-level, per-worker-batch) are
    /// recorded on every `detail_every`-th operation so steady-state
    /// overhead stays within the 2% budget. `1` records full detail on
    /// every operation; `0` is clamped to `1`.
    pub detail_every: u32,
}

impl ObsConfig {
    /// Record with the default detail sampling period.
    pub fn enabled() -> ObsConfig {
        ObsConfig {
            enabled: true,
            detail_every: DEFAULT_DETAIL_EVERY,
        }
    }

    /// Record nothing (the default state of the process).
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            detail_every: DEFAULT_DETAIL_EVERY,
        }
    }

    /// Override the detail sampling period (builder style).
    pub fn with_detail_every(mut self, n: u32) -> ObsConfig {
        self.detail_every = n;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::disabled()
    }
}

/// Is recording currently on? Inlined constant `false` when the crate is
/// built without the `enabled` feature, so call sites fold away.
#[cfg(feature = "enabled")]
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Is recording currently on? (no-op build)
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn is_enabled() -> bool {
    false
}

/// Apply a configuration: resets all previously collected events and
/// registered metrics, then flips the master switch. Call *before*
/// constructing the instrumented objects (worker pools cache their metric
/// handles at construction time).
pub fn init(config: &ObsConfig) {
    span::reset_buffers();
    metrics::metrics().reset();
    DETAIL_EVERY.store(config.detail_every.max(1), Ordering::Relaxed);
    set_enabled(config.enabled);
}

/// The active detail sampling period (always ≥ 1). Instrumented code
/// records its fine-grained spans when `counter % detail_every() == 0`
/// for some deterministic per-site counter.
#[inline]
pub fn detail_every() -> u32 {
    DETAIL_EVERY.load(Ordering::Relaxed)
}

/// Flip the master recording switch without clearing collected data.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "enabled")]
    ENABLED.store(on, Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = on;
}

/// Render a plain-text report: per-(category, name) span totals from
/// `trace` followed by every registered metric.
pub fn summary(trace: &Trace) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    let mut out = String::new();
    // Span totals: pair Begin/End per (tid, name) LIFO.
    let mut totals: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new(); // (count, ns)
    let mut stacks: BTreeMap<(u64, &str), Vec<u64>> = BTreeMap::new();
    for e in &trace.events {
        match e.ph {
            Phase::Begin => stacks.entry((e.tid, e.name)).or_default().push(e.ts_ns),
            Phase::End => {
                if let Some(start) = stacks.get_mut(&(e.tid, e.name)).and_then(Vec::pop) {
                    let entry = totals.entry((e.cat, e.name)).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += e.ts_ns.saturating_sub(start);
                }
            }
            _ => {}
        }
    }
    let _ = writeln!(out, "== spans ==");
    let _ = writeln!(
        out,
        "{:<12} {:<28} {:>10} {:>14}",
        "category", "name", "count", "total"
    );
    for ((cat, name), (count, ns)) in &totals {
        let _ = writeln!(
            out,
            "{cat:<12} {name:<28} {count:>10} {:>12.3}ms",
            *ns as f64 / 1e6
        );
    }
    let _ = writeln!(out, "\n== metrics ==");
    out.push_str(&metrics::metrics().render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global obs state is process-wide; serialize the tests that touch it.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn summary_totals_spans_and_metrics() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        init(&ObsConfig::enabled());
        {
            let _s = span("outer", "t");
            let _i = span("inner", "t");
        }
        metrics().counter("t.count").add(3);
        let trace = collect();
        let text = summary(&trace);
        assert!(text.contains("outer"), "{text}");
        assert!(text.contains("inner"), "{text}");
        assert!(text.contains("t.count"), "{text}");
        init(&ObsConfig::disabled());
    }

    #[test]
    fn config_constructors() {
        assert!(ObsConfig::enabled().enabled);
        assert!(!ObsConfig::disabled().enabled);
        assert_eq!(ObsConfig::default(), ObsConfig::disabled());
    }
}
