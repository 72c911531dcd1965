//! The harness's own registry of metric names. BENCHMARK.json must list
//! exactly these (a unit test compares the two), so a metric cannot be
//! printed under one name and bounded under another.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Counts made by the program repeat exactly from run to run;
    /// `--check-counts` fails when one does not.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn ratio(name: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit: "ratio",
        better,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

/// What a user of `omc` sees. Same names on every workload.
/// `fail_ratio` is not here: it is 0 on every run by design, and the
/// result line carries `attempted` and `failed` beside the metrics.
pub const END_TO_END: &[Metric] = &[
    timing("setup_s", "s"),
    timing("op_ms_p50", "ms"),
    timing("op_ms_p80", "ms"),
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        exact: false,
    },
    timing("cpu_ms_per_op", "ms"),
    timing("peak_rss_mb", "MB"),
];

/// One traced run prints all of these; a metric of a layer that is not
/// on the workload's path reads 0.
pub const PER_LAYER: &[Metric] = &[
    // om-lang
    timing("lang.parse_ms", "ms"),
    timing("lang.scope_ms", "ms"),
    timing("lang.flatten_ms", "ms"),
    count("lang.source_bytes", "B"),
    count("lang.flat_eqs", "count"),
    count("lang.flat_classes", "count"),
    // om-ir
    timing("ir.causalize_ms", "ms"),
    timing("ir.verify_ms", "ms"),
    count("ir.states", "count"),
    count("ir.algebraics", "count"),
    timing("ir.evalr_build_ms", "ms"),
    timing("ir.evalr_ns_per_rhs", "ns"),
    // om-codegen
    timing("codegen.generate_ms", "ms"),
    timing("codegen.schedule_ms", "ms"),
    timing("codegen.emit_ms", "ms"),
    count("codegen.emit_bytes", "B"),
    count("codegen.tasks", "count"),
    count("codegen.loop_tasks", "count"),
    count("codegen.levels", "count"),
    count("codegen.instrs", "count"),
    ratio("codegen.lpt_imbalance", "lower"),
    timing("codegen.registry_miss_ms", "ms"),
    timing("codegen.registry_hit_us", "us"),
    // om-codegen::vm
    timing("vm.scalar_ns_per_rhs", "ns"),
    timing("vm.batch1_ns_per_rhs", "ns"),
    timing("vm.batch8_ns_per_lane_rhs", "ns"),
    ratio("vm.batch8_vs_scalar", "higher"),
    // om-runtime executors
    timing("runtime.pool_spawn_ms", "ms"),
    timing("runtime.ws2_ns_per_rhs", "ns"),
    timing("runtime.barrier2_ns_per_rhs", "ns"),
    ratio("runtime.ws2_vs_serial", "higher"),
    ratio("runtime.sim_ws2_vs_serial", "higher"),
    ratio("runtime.sched_overhead_ratio", "lower"),
    // om-solver
    timing("solver.solve_ms", "ms"),
    timing("solver.rhs_ms", "ms"),
    timing("solver.self_ms", "ms"),
    count("solver.steps", "count"),
    count("solver.rejected", "count"),
    count("solver.rhs_calls", "count"),
    count("solver.jac_evals", "count"),
    count("solver.lu_factorizations", "count"),
    count("solver.newton_iters", "count"),
    ratio("solver.jac_rhs_share", "lower"),
    timing("solver.lu_factor_us", "us"),
    timing("solver.lu_solve_us", "us"),
    // om-runtime::ensemble
    timing("ensemble.sweep_ms", "ms"),
    timing("ensemble.scenario_us_p50", "us"),
    timing("ensemble.driver_ms", "ms"),
    timing("ensemble.manifest_render_ms", "ms"),
    count("ensemble.manifest_bytes", "B"),
    count("ensemble.effective_batch", "count"),
    count("ensemble.retries", "count"),
    // om-runtime::serve
    timing("serve.handle_ms_p50", "ms"),
    timing("serve.transport_ms", "ms"),
    count("serve.request_bytes", "B"),
    // The `done` line carries a wall time, so its length may differ.
    timing("serve.response_bytes", "B"),
    ratio("serve.registry_hit_ratio", "higher"),
    count("serve.shed", "count"),
    timing("serve.scenario_us_p50", "us"),
    timing("serve.scenario_us_p99", "us"),
    Metric {
        name: "serve.drain_ok",
        unit: "count",
        better: "higher",
        exact: true,
    },
    // omc CLI
    timing("cli.spawn_ms", "ms"),
    // `omc sweep` prints its own wall times, so the length may differ.
    timing("cli.stdout_bytes", "B"),
    timing("cli.op_ms_p50", "ms"),
    timing("cli.residual_ms", "ms"),
    // harness
    timing("trace.layers_ms", "ms"),
    ratio("trace.overhead_ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::json::{self, Json};
    use crate::workloads::Workload;

    fn benchmark_json() -> Json {
        // BENCHMARK.json sits at the repository root, above whichever
        // manifest (om-bench's or the ledger's own) built this test.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|candidate| candidate.exists())
            .expect("BENCHMARK.json above the manifest");
        json::parse(&std::fs::read_to_string(path).expect("readable")).expect("valid JSON")
    }

    fn listed(doc: &Json, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` array"))
            .iter()
            .map(|entry| {
                fields
                    .iter()
                    .map(|f| entry.get(f).and_then(Json::as_str).expect(f).to_owned())
                    .collect()
            })
            .collect()
    }

    fn own(metrics: &[Metric]) -> Vec<Vec<String>> {
        metrics
            .iter()
            .map(|m| vec![m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()])
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = benchmark_json();
        let fields = ["name", "unit", "better"];
        assert_eq!(listed(&doc, "end_to_end", &fields), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer", &fields), own(PER_LAYER));
        let workloads: Vec<Vec<String>> = Workload::ALL
            .iter()
            .map(|w| vec![w.name().to_owned(), w.why().to_owned()])
            .collect();
        assert_eq!(listed(&doc, "workloads", &["name", "why"]), workloads);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
    }
}
