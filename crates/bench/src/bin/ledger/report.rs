//! What a run prints, and the comparison of two sets of runs.
//!
//! stdout carries one machine-readable result line per workload run, in
//! the shape the benchmark contract fixes (`correct`, `attempted`,
//! `failed`, `metrics`); stderr carries the table a person reads.
//! `--record FILE` appends the same result wrapped with its workload,
//! seed and trace flag, one JSON object per line — the input of
//! `--compare`.

use crate::layers::json::{self, Json};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one run measured, end to end or traced.
#[derive(Default)]
pub struct Measured {
    /// By metric name; a registry metric that is absent reads 0.
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub first_failure: Option<String>,
    /// Timed ops (end to end) or recorded replays (traced) behind the
    /// medians and percentiles.
    pub samples: usize,
}

impl Measured {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(reason);
    }
}

/// One finished run of one workload.
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub measured: Measured,
}

impl RunResult {
    fn value(&self, name: &str) -> f64 {
        self.measured.values.get(name).copied().unwrap_or(0.0)
    }

    /// The run's metrics in registry order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        let registry = if self.traced { PER_LAYER } else { END_TO_END };
        registry.iter().map(|m| (m, self.value(m.name)))
    }

    /// The contract's result object. Values are printed with all their
    /// digits (`{:?}` of an `f64` round-trips).
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .map(|(m, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.measured.failed == 0,
            self.measured.attempted,
            self.measured.failed,
            metrics.join(",")
        )
    }

    /// The `--record` line.
    pub fn record_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{}}}",
            self.workload.name(),
            self.seed,
            u8::from(self.traced),
            self.result_json()
        )
    }

    /// Metric, unit, value and sample count, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {}) — {} attempted, {} failed, fail_ratio {:.4}\n   {}",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "end to end" },
            self.measured.attempted,
            self.measured.failed,
            self.measured.failed as f64 / self.measured.attempted.max(1) as f64,
            self.workload.why(),
        );
        let samples = self.measured.samples;
        if let Some(reason) = &self.measured.first_failure {
            let _ = writeln!(out, "   first failure: {reason}");
        }
        // A traced run carries every layer's metrics; the zeros of layers
        // that are not on this workload's path only bury the rest.
        for (metric, value) in self.rows().filter(|(_, v)| !self.traced || *v != 0.0) {
            // A tail percentile is only as good as the samples beyond it.
            let note = if metric.name == "op_ms_p80" {
                format!(
                    "n={samples} ({} beyond)",
                    stats::samples_beyond(samples, crate::harness::TAIL)
                )
            } else if metric.exact || metric.name == "setup_s" || metric.name == "peak_rss_mb" {
                String::new()
            } else {
                format!("n={samples}")
            };
            let _ = writeln!(
                out,
                "   {:<32} {:>14.4} {:<6} {:<7} {note}",
                metric.name, value, metric.unit, metric.better
            );
        }
        // The measured executor ratio never travels without the machine
        // model's prediction and its base.
        let value = |name: &str| self.value(name);
        if value("runtime.ws2_ns_per_rhs") > 0.0 {
            let _ = writeln!(
                out,
                "   ws2 vs serial: measured {:.3}x, machine model {:.3}x (base vm.scalar_ns_per_rhs = {:.0} ns)",
                value("runtime.ws2_vs_serial"),
                value("runtime.sim_ws2_vs_serial"),
                value("vm.scalar_ns_per_rhs"),
            );
        }
        if self.traced {
            let _ = writeln!(
                out,
                "   cli.spawn_ms {:.3} + trace.layers_ms {:.3} + cli.residual_ms {:.3} = cli.op_ms_p50 {:.3}",
                value("cli.spawn_ms"),
                value("trace.layers_ms"),
                value("cli.residual_ms"),
                value("cli.op_ms_p50"),
            );
        }
        out
    }
}

/// The end-to-end runs of one workload in a `--record` file.
#[derive(Default)]
struct Runs {
    /// `metric -> one value per run`.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Ops over all the runs.
    attempted: usize,
    failed: usize,
}

impl Runs {
    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// By workload name.
type Records = BTreeMap<String, Runs>;

fn read_records(path: &str) -> Result<Records, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Records::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}", number + 1);
        let doc = json::parse(line).map_err(|e| bad(&e))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let result = doc.get("result").ok_or_else(|| bad("no result"))?;
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_usize)
                .ok_or_else(|| bad(&format!("no result.{key}")))
        };
        let runs = records.entry(workload.to_owned()).or_default();
        runs.attempted += count("attempted")?;
        runs.failed += count("failed")?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no result.metrics"))?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("metric without value"))?;
            runs.metrics.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(records)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule of the benchmark: `new` is worse when its median is worse
/// than `base`'s by more than `bound` (a share of the base median). When
/// either side's own interquartile spread exceeds the bound the metric
/// is unresolved, not unchanged — unless every new run reads better than
/// every base run.
pub fn verdict(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let worsening = if higher_is_better {
        (base_median - new_median) / base_median.abs()
    } else {
        (new_median - base_median) / base_median.abs()
    };
    if stats::spread(base).max(stats::spread(new)) > bound {
        let fold = |xs: &[f64], pick: fn(f64, f64) -> f64| xs.iter().copied().reduce(pick);
        let all_better = if higher_is_better {
            fold(new, f64::min) > fold(base, f64::max)
        } else {
            fold(new, f64::max) < fold(base, f64::min)
        };
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `ledger --compare A B`: one row per workload × end-to-end metric, and
/// one for `fail_ratio` (failed ÷ attempted ops over the set's runs),
/// whose bound is "any increase": the timing metrics only see the ops
/// that passed their output check. Returns the table and whether any row
/// is `worse`.
pub fn compare(
    benchmark_json: &str,
    base_path: &str,
    new_path: &str,
) -> Result<(String, bool), String> {
    let benchmark = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounded = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?;
    let base = read_records(base_path)?;
    let new = read_records(new_path)?;
    let mut out = format!(
        "{:<16} {:<14} {:>12} {:>12} {:>7} {:>7} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    );
    let mut any_worse = false;
    for (workload, base_runs) in &base {
        let Some(new_runs) = new.get(workload) else {
            continue;
        };
        for entry in bounded {
            let field = |key: &str| entry.get(key).and_then(Json::as_str).unwrap_or_default();
            let name = field("name");
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(a), Some(b)) = (base_runs.metrics.get(name), new_runs.metrics.get(name))
            else {
                continue;
            };
            let verdict = verdict(a, b, field("better") == "higher", bound);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{workload:<16} {name:<14} {:>12.4} {:>12.4} {:>7.3} {:>7.3} {bound:>7.3}  {}",
                stats::median(a),
                stats::median(b),
                stats::median(b) / stats::median(a),
                stats::spread(a).max(stats::spread(b)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let more_failures = new_runs.fail_ratio() > base_runs.fail_ratio();
        any_worse |= more_failures;
        let _ = writeln!(
            out,
            "{workload:<16} {:<14} {:>12.4} {:>12.4} {:>7} {:>7} {:>7}  {} ({} of {} ops failed, then {} of {})",
            "fail_ratio",
            base_runs.fail_ratio(),
            new_runs.fail_ratio(),
            "-",
            "-",
            "0",
            if more_failures { "worse" } else { "ok" },
            base_runs.failed,
            base_runs.attempted,
            new_runs.failed,
            new_runs.attempted,
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            workload: Workload::Ws2Bearing10,
            seed: 7,
            traced: false,
            measured: Measured {
                values: END_TO_END
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (m.name, 1.0 / 3.0 + i as f64))
                    .collect(),
                attempted: 120,
                samples: 120,
                ..Measured::default()
            },
        }
    }

    #[test]
    fn result_line_reparses_with_the_in_tree_parser() {
        let doc = json::parse(&sample().result_json()).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_usize), Some(120));
        let metrics = doc.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = doc
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .expect("p50");
        // All digits survive.
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(1.0 / 3.0 + 1.0)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));

        let mut failing = sample();
        failing.measured.failed = 2;
        failing.measured.values = END_TO_END.iter().map(|m| (m.name, f64::NAN)).collect();
        let doc = json::parse(&failing.result_json()).expect("NaN never reaches the line");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn table_states_sample_counts_and_the_residual_identity() {
        let table = sample().table();
        assert!(table.contains("n=120 (24 beyond)"), "{table}");
        assert!(table.contains("fail_ratio 0.0000"), "{table}");
        let mut traced = sample();
        traced.traced = true;
        traced.measured.values = PER_LAYER.iter().map(|m| (m.name, 2.0)).collect();
        let table = traced.table();
        assert!(table.contains("= cli.op_ms_p50 2.000"), "{table}");
        assert!(table.contains("base vm.scalar_ns_per_rhs"), "{table}");
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [110.0, 111.0, 109.0, 110.5, 109.5];
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        let lower = false;
        assert_eq!(verdict(&steady, &steady, lower, 0.05), Verdict::Ok);
        assert_eq!(verdict(&steady, &slower, lower, 0.05), Verdict::Worse);
        assert_eq!(verdict(&steady, &slower, lower, 0.15), Verdict::Ok);
        // Better is never worse, in either direction.
        assert_eq!(verdict(&slower, &steady, lower, 0.05), Verdict::Ok);
        assert_eq!(verdict(&slower, &steady, true, 0.05), Verdict::Worse);
        // Spread wider than the bound: unresolved, not unchanged...
        assert_eq!(verdict(&noisy, &steady, lower, 0.05), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        assert_eq!(
            verdict(&noisy, &[50.0, 51.0, 52.0], lower, 0.05),
            Verdict::Ok
        );
    }

    #[test]
    fn compare_reads_record_files_and_flags_worse() {
        let dir = std::env::temp_dir().join(format!("ledger-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, scale: f64, failed: usize| {
            let lines: String = (0..4)
                .map(|i| {
                    let mut run = sample();
                    run.seed = i;
                    run.measured.failed = failed;
                    for v in run.measured.values.values_mut() {
                        *v *= scale * (1.0 + 0.001 * i as f64);
                    }
                    run.record_json() + "\n"
                })
                .collect();
            let path = dir.join(name);
            std::fs::write(&path, lines).expect("write records");
            path.to_string_lossy().into_owned()
        };
        let (a, b, slow) = (
            write("a", 1.0, 0),
            write("b", 1.001, 0),
            write("slow", 1.5, 0),
        );
        let benchmark = "{\"end_to_end\":[\
            {\"name\":\"op_ms_p50\",\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.05},\
            {\"name\":\"ops_per_s\",\"unit\":\"1/s\",\"better\":\"higher\",\"bound\":0.05}]}";
        let (table, worse) = compare(benchmark, &a, &b).expect("compare");
        assert!(!worse, "{table}");
        assert_eq!(table.matches(" ok").count(), 3, "{table}");
        let (table, worse) = compare(benchmark, &a, &slow).expect("compare");
        // 1.5x the latency is worse; 1.5x the throughput is not.
        assert!(worse && table.matches("worse").count() == 1, "{table}");
        // Timings over the ops that passed say nothing about the ones
        // that did not: any increase in failed ops is worse on its own.
        let failing = write("failing", 1.0, 30);
        let (table, worse) = compare(benchmark, &a, &failing).expect("compare");
        assert!(worse && table.matches("worse").count() == 1, "{table}");
        assert!(table.contains("120 of 480"), "{table}");
        let (table, worse) = compare(benchmark, &failing, &failing).expect("compare");
        assert!(!worse, "{table}");
        assert!(compare(benchmark, &a, "/nonexistent").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
