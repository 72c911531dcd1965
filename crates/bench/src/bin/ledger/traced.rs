//! The traced run: where an op's time goes, layer by layer.
//!
//! Three things take turns for most of the `--seconds` budget: one op of
//! the real program, driven as in the end-to-end run (for the op time
//! the residual is taken from, the process floor and the server's own
//! statistics); one in-process replay of the workload's pipeline with a
//! span around every call into a layer; and one replay with span
//! recording off, so the overhead of recording is itself measured. Then
//! short probes time the per-call costs (VM, executors, LU, registry hit)
//! that are too small to see as spans. A span is named after the `_ms`
//! metric it feeds.

use crate::harness::Session;
use crate::layers;
use crate::metrics::PER_LAYER;
use crate::report::Measured;
use crate::stats;
use crate::sys;
use crate::trace::{self, Recorder};
use crate::workloads::{self, Batch, Inputs, Sim, Workload};
use om_codegen::task::TaskGraph;
use om_runtime::serve::quota::ClientState;
use om_runtime::{Server, Strategy};
use om_solver::{Matrix, OdeSystem, RhsError};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Real ops and recorded replays a traced run makes at least, however
/// short `--seconds` is.
const MIN_OPS: usize = 10;
/// The per-RHS-call span; only the first op's are written to the trace
/// file.
const RHS_SPAN: &str = "solver.rhs_ms";

type Values = BTreeMap<&'static str, f64>;

/// Times each RHS call of the system it wraps, so the solver's self time
/// is its span minus these.
struct TimedSystem<'a, S> {
    inner: S,
    rec: &'a Recorder,
}

impl<S: OdeSystem> OdeSystem for TimedSystem<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        let inner = &mut self.inner;
        self.rec.time(RHS_SPAN, || inner.rhs(t, y, dydt));
    }

    fn try_rhs(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) -> Result<(), RhsError> {
        let inner = &mut self.inner;
        self.rec.time(RHS_SPAN, || inner.try_rhs(t, y, dydt))
    }

    fn jacobian(&mut self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.inner.jacobian(t, y, jac)
    }
}

/// What the probes need from the compiled model.
struct Artifacts {
    graph: TaskGraph,
    y0: Vec<f64>,
    assignment: Vec<usize>,
}

/// The in-process stand-in for one workload's op.
struct Replay<'a> {
    workload: Workload,
    inputs: &'a Inputs,
    /// `serve_warm`: a primed server, its client state and the request.
    server: Option<(Server, ClientState, String)>,
    artifacts: Option<Artifacts>,
}

impl<'a> Replay<'a> {
    fn new(workload: Workload, inputs: &'a Inputs) -> Result<Replay<'a>, String> {
        let mut server = None;
        if workload == Workload::ServeWarm {
            let resident = layers::server_new(Batch::CONCURRENCY);
            let mut client = resident.new_client();
            let prime = workloads::priming_request(inputs);
            let lines = layers::server_handle_line(&resident, &prime, &mut client);
            let request = lines
                .first()
                .and_then(|accepted| workloads::keyed_request(inputs, accepted))
                .ok_or_else(|| format!("in-process priming request not accepted: {lines:?}"))?;
            server = Some((resident, client, request));
        }
        Ok(Replay {
            workload,
            inputs,
            server,
            artifacts: None,
        })
    }

    /// Replay one op under `rec` and return what was observed besides
    /// time: the counts the program made, and a few per-op figures.
    fn op(&mut self, rec: &Recorder) -> Values {
        let mut seen = Values::new();
        if let Some(sim) = self.workload.sim() {
            self.simulate(rec, &sim, &mut seen);
        } else if let Some(batch) = self.workload.batch() {
            if self.workload == Workload::SweepBatch8 {
                self.sweep(rec, &batch, &mut seen);
            } else {
                self.request(rec, &mut seen);
            }
        } else {
            let ir = compile(rec, &self.inputs.source, false, &mut seen);
            let (program, sched) = generate(rec, &ir, &mut seen);
            let text = rec.time("codegen.emit_ms", || {
                layers::emit_parallel_f90(&program, &sched, 2, &ir)
            });
            seen.insert("codegen.emit_bytes", text.len() as f64);
        }
        seen
    }

    fn simulate(&mut self, rec: &Recorder, sim: &Sim, seen: &mut Values) {
        let ir = compile(rec, &self.inputs.source, sim.array_aware, seen);
        let y0 = ir.initial_state();
        let stats = if sim.workers == 1 {
            let evaluator = rec.time("ir.evalr_build_ms", || layers::evaluator_new(&ir));
            let mut sys = TimedSystem {
                inner: layers::evaluator_system(evaluator),
                rec,
            };
            rec.time("solver.solve_ms", || {
                layers::solve(sim.solver, &mut sys, &y0, sim.tend)
            })
            .stats
        } else {
            let (program, sched) = generate(rec, &ir, seen);
            if self.artifacts.is_none() {
                self.artifacts = Some(Artifacts {
                    graph: program.graph.clone(),
                    y0: y0.clone(),
                    assignment: sched.assignment.clone(),
                });
            }
            let pool = rec.time("runtime.pool_spawn_ms", || {
                layers::pool_build(
                    program.graph,
                    sim.workers,
                    sched.assignment,
                    Strategy::WorkStealing,
                )
            });
            let mut sys = TimedSystem {
                inner: layers::parallel_rhs(pool),
                rec,
            };
            let sol = rec.time("solver.solve_ms", || {
                layers::solve(sim.solver, &mut sys, &y0, sim.tend)
            });
            seen.insert(
                "runtime.sched_overhead_ratio",
                sys.inner.scheduler.overhead_fraction(sys.inner.rhs_time),
            );
            // `omc` joins the workers before it exits; so does the op.
            rec.time("runtime.pool_join_ms", || drop(sys));
            sol.stats
        };
        seen.insert("solver.steps", stats.steps as f64);
        seen.insert("solver.rejected", stats.rejected as f64);
        seen.insert("solver.rhs_calls", stats.rhs_calls as f64);
        seen.insert("solver.jac_evals", stats.jac_evals as f64);
        seen.insert("solver.lu_factorizations", stats.lu_factorizations as f64);
        seen.insert("solver.newton_iters", stats.newton_iters as f64);
        seen.insert(
            "solver.jac_rhs_share",
            (stats.jac_evals * ir.dim()) as f64 / stats.rhs_calls.max(1) as f64,
        );
    }

    fn sweep(&mut self, rec: &Recorder, batch: &Batch, seen: &mut Values) {
        // A fresh registry per op: every `omc sweep` process starts cold.
        let registry = om_codegen::ModelRegistry::new();
        let model = rec.time("codegen.registry_miss_ms", || {
            layers::registry_get_or_compile(&registry, &self.inputs.source)
        });
        let specs = batch.specs(self.inputs);
        let cfg = batch.sweep_config(batch.lanes, Batch::CONCURRENCY);
        let result = rec.time("ensemble.sweep_ms", || {
            layers::run_sweep(&model, &specs, &cfg)
        });
        let manifest = rec.time("ensemble.manifest_render_ms", || {
            layers::manifest_render(&result.manifest)
        });
        let report = &result.report;
        let busy_ms = report.latencies_ns.iter().sum::<u64>() as f64 / 1e6;
        let retries: u32 = result
            .manifest
            .entries
            .iter()
            .map(|(_, outcome)| match outcome {
                Some(om_runtime::ScenarioOutcome::Completed { retries, .. }) => *retries,
                _ => 0,
            })
            .sum();
        seen.insert("ensemble.manifest_bytes", manifest.len() as f64);
        seen.insert("ensemble.effective_batch", report.effective_batch as f64);
        seen.insert("ensemble.retries", f64::from(retries));
        seen.insert(
            "ensemble.scenario_us_p50",
            report.latency_percentile_ns(0.50) as f64 / 1e3,
        );
        // Scenario time the workers overlapped; what is left of the
        // sweep span is the driver.
        seen.insert("ensemble.busy_ms", busy_ms / Batch::CONCURRENCY as f64);
        if self.artifacts.is_none() {
            self.artifacts = Some(model_artifacts(&model));
        }
    }

    fn request(&mut self, rec: &Recorder, seen: &mut Values) {
        let (server, client, request) = self.server.as_mut().expect("serve_warm has a server");
        let lines = rec.time("serve.handle_ms_p50", || {
            layers::server_handle_line(server, request, client)
        });
        seen.insert(
            "serve.response_bytes",
            lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64,
        );
    }
}

fn model_artifacts(model: &om_codegen::CompiledModel) -> Artifacts {
    Artifacts {
        graph: model.program().graph.clone(),
        y0: model.ir().initial_state(),
        assignment: model.schedule(2).assignment.clone(),
    }
}

/// The front half of every `omc MODEL …` command.
fn compile(rec: &Recorder, source: &str, array_aware: bool, seen: &mut Values) -> om_ir::OdeIr {
    let unit = rec.time("lang.parse_ms", || layers::parse_unit(source));
    rec.time("lang.scope_ms", || layers::scope_check(&unit));
    let flat = rec.time("lang.flatten_ms", || {
        if array_aware {
            layers::flatten_arrays(&unit)
        } else {
            layers::flatten(&unit)
        }
    });
    let ir = rec.time("ir.causalize_ms", || layers::causalize(&flat));
    rec.time("ir.verify_ms", || layers::verify_compilable(&ir));
    seen.insert("lang.source_bytes", source.len() as f64);
    seen.insert("lang.flat_eqs", flat.equations.len() as f64);
    seen.insert("lang.flat_classes", flat.classes.len() as f64);
    seen.insert("ir.states", ir.dim() as f64);
    seen.insert("ir.algebraics", ir.algebraics.len() as f64);
    ir
}

/// Code generation and the 2-worker schedule.
fn generate(
    rec: &Recorder,
    ir: &om_ir::OdeIr,
    seen: &mut Values,
) -> (om_codegen::ParallelProgram, om_codegen::Schedule) {
    let program = rec.time("codegen.generate_ms", || layers::generate(ir));
    let sched = rec.time("codegen.schedule_ms", || layers::schedule(&program, 2));
    let tasks = &program.graph.tasks;
    seen.insert("codegen.tasks", tasks.len() as f64);
    seen.insert(
        "codegen.loop_tasks",
        tasks.iter().filter(|t| t.loop_info.is_some()).count() as f64,
    );
    seen.insert("codegen.levels", program.graph.levels().len() as f64);
    seen.insert(
        "codegen.instrs",
        tasks.iter().map(|t| t.program.instrs.len()).sum::<usize>() as f64,
    );
    seen.insert("codegen.lpt_imbalance", sched.imbalance());
    (program, sched)
}

/// Median nanoseconds of one call of `f`: five batches, each sized from a
/// first call to last about 20 ms.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    f();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    let calls = ((0.02 / once) as usize).clamp(3, 100_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..calls {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    stats::median(&batches)
}

fn probe_vm(art: &Artifacts, values: &mut Values) {
    let graph = &art.graph;
    let mut dydt = vec![0.0; graph.dim];
    let scalar = per_call_ns(|| {
        layers::eval_serial(graph, 0.0, std::hint::black_box(&art.y0), &mut dydt);
        std::hint::black_box(&dydt);
    });
    let batched = |lanes: usize| {
        // Structure of arrays, lane index innermost.
        let ys: Vec<f64> = art.y0.iter().flat_map(|y| vec![*y; lanes]).collect();
        let mut dydt = vec![0.0; ys.len()];
        let mut scratch = layers::batch_scratch(graph, lanes);
        per_call_ns(|| {
            layers::eval_batch(
                graph,
                0.0,
                std::hint::black_box(&ys),
                &mut dydt,
                &mut scratch,
            );
            std::hint::black_box(&dydt);
        })
    };
    let batch1 = batched(1);
    let batch8_per_lane = batched(8) / 8.0;
    values.insert("vm.scalar_ns_per_rhs", scalar);
    values.insert("vm.batch1_ns_per_rhs", batch1);
    values.insert("vm.batch8_ns_per_lane_rhs", batch8_per_lane);
    values.insert("vm.batch8_vs_scalar", scalar / batch8_per_lane);
}

/// Needs `vm.scalar_ns_per_rhs` (the base of the measured ratio).
fn probe_executors(art: &Artifacts, values: &mut Values) {
    let pooled = |strategy| {
        let mut pool = layers::pool_build(art.graph.clone(), 2, art.assignment.clone(), strategy);
        let mut dydt = vec![0.0; art.graph.dim];
        per_call_ns(|| {
            layers::pool_rhs(&mut pool, 0.0, std::hint::black_box(&art.y0), &mut dydt);
            std::hint::black_box(&dydt);
        })
    };
    let ws2 = pooled(Strategy::WorkStealing);
    let barrier2 = pooled(Strategy::Barrier);
    values.insert("runtime.ws2_ns_per_rhs", ws2);
    values.insert("runtime.barrier2_ns_per_rhs", barrier2);
    values.insert(
        "runtime.ws2_vs_serial",
        values["vm.scalar_ns_per_rhs"] / ws2,
    );
    values.insert(
        "runtime.sim_ws2_vs_serial",
        layers::sim_speedup(&art.graph, &art.assignment, 2),
    );
}

/// Dense LU at the workload's dimension on a banded, diagonally dominant
/// matrix — the shape of the stencil's Newton matrix.
fn probe_lu(dim: usize, values: &mut Values) {
    let mut matrix = Matrix::zeros(dim, dim);
    for i in 0..dim {
        matrix[(i, i)] = 4.0;
        if i + 1 < dim {
            matrix[(i, i + 1)] = -1.0;
            matrix[(i + 1, i)] = -1.0;
        }
    }
    let rhs = vec![1.0; dim];
    values.insert(
        "solver.lu_factor_us",
        per_call_ns(|| {
            std::hint::black_box(layers::lu_factor(std::hint::black_box(&matrix)));
        }) / 1e3,
    );
    let factors = layers::lu_factor(&matrix);
    values.insert(
        "solver.lu_solve_us",
        per_call_ns(|| {
            std::hint::black_box(layers::lu_solve(&factors, std::hint::black_box(&rhs)));
        }) / 1e3,
    );
}

/// Wall milliseconds of the cheapest `omc` process there is.
fn spawn_floor_ms(omc: &Path) -> Result<f64, String> {
    let started = Instant::now();
    // Spawned the way the timed ops are.
    let status = sys::spawn_by_fork(&mut Command::new(omc))
        .args(["lint", "--explain", "OM040"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot spawn {}: {e}", omc.display()))?;
    if status.success() {
        Ok(started.elapsed().as_secs_f64() * 1e3)
    } else {
        Err(format!("omc lint --explain exited with {status}"))
    }
}

/// The figures `serve_warm` takes from the server's own `stats` reply.
fn server_stats(reply: &str, values: &mut Values) -> Option<()> {
    let doc = layers::json::parse(reply.trim_end()).ok()?;
    let shed = doc.get("shed")?.as_obj()?;
    let latency = doc.get("latency")?;
    values.insert(
        "serve.registry_hit_ratio",
        doc.get("registry")?.get("hit_ratio")?.as_f64()?,
    );
    values.insert(
        "serve.shed",
        shed.iter().filter_map(|(_, v)| v.as_f64()).sum(),
    );
    values.insert("serve.scenario_us_p50", latency.get("p50_us")?.as_f64()?);
    values.insert("serve.scenario_us_p99", latency.get("p99_us")?.as_f64()?);
    Some(())
}

/// Run the traced pass of `workload` within about `seconds`. `attempted`
/// counts real ops plus replayed ops; a failed output check or a count
/// that did not repeat is a failure.
pub fn run(
    workload: Workload,
    omc: &Path,
    seed: u64,
    seconds: f64,
    dir: &Path,
    trace_file: &Path,
) -> Result<Measured, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut values: Values = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    let mut traced = Measured::default();
    let exact = |seen: &Values| -> Vec<(&'static str, u64)> {
        PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .filter_map(|m| Some((m.name, seen.get(m.name)?.to_bits())))
            .collect()
    };

    // The real program (tracing off) and the in-process replay (span
    // recording on, then off) take turns, so drift of the host reaches
    // the op time and the layer times it is compared with alike.
    let mut session = Session::setup(workload, omc, seed, dir)?;
    let inputs = session.inputs.clone();
    let mut replay = Replay::new(workload, &inputs)?;
    let recording = Recorder::new(true);
    let silent = Recorder::new(false);
    let (mut op_ms, mut spawn_ms) = (Vec::new(), Vec::new());
    let (mut recorded_ms, mut silent_ms) = (Vec::new(), Vec::new());
    let mut seen_by_op: Vec<Values> = Vec::new();
    while recorded_ms.len() < MIN_OPS || started.elapsed() < budget * 3 / 4 {
        let op = session.op();
        traced.attempted += 1;
        op_ms.push(op.ms);
        if workload == Workload::ServeWarm {
            values.insert("serve.response_bytes", op.output_bytes as f64);
        } else {
            values.insert("cli.stdout_bytes", op.output_bytes as f64);
            spawn_ms.push(spawn_floor_ms(omc)?);
        }
        if let Err(reason) = op.outcome {
            traced.fail(reason);
        }
        for (rec, wall_ms) in [(&recording, &mut recorded_ms), (&silent, &mut silent_ms)] {
            let began = Instant::now();
            let seen = rec.op(|| replay.op(rec));
            wall_ms.push(began.elapsed().as_secs_f64() * 1e3);
            traced.attempted += 1;
            if seen_by_op
                .first()
                .is_some_and(|first| exact(first) != exact(&seen))
            {
                traced.fail("a count differs between two replayed ops".to_owned());
            }
            seen_by_op.push(seen);
        }
    }
    let op_ms_p50 = stats::median(&op_ms);
    values.insert("cli.op_ms_p50", op_ms_p50);
    values.insert("cli.spawn_ms", stats::median(&spawn_ms));
    if workload == Workload::ServeWarm {
        values.insert("serve.request_bytes", session.request_bytes() as f64);
        let reply = session.server_stats().unwrap_or_default();
        if server_stats(&reply, &mut values).is_none() {
            traced.fail(format!("unusable stats reply: {reply}"));
        }
        values.insert("serve.drain_ok", f64::from(u8::from(session.finish().0)));
    } else {
        session.finish();
    }
    traced.samples = recorded_ms.len();

    // Counts from the first op; other per-op figures as medians.
    for name in seen_by_op[0].keys() {
        let per_op: Vec<f64> = seen_by_op
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        values.insert(name, stats::median(&per_op));
    }
    let spans = recording.into_spans();
    let by_name = trace::per_op_ms(&spans);
    let median_of = |name: &str, pick: fn(&(f64, f64)) -> f64| {
        by_name.get(name).map_or(0.0, |per_op| {
            stats::median(&per_op.iter().map(pick).collect::<Vec<_>>())
        })
    };
    for metric in PER_LAYER {
        if by_name.contains_key(metric.name) {
            values.insert(metric.name, median_of(metric.name, |p| p.0));
        }
    }
    values.insert("solver.self_ms", median_of("solver.solve_ms", |p| p.1));
    // Everything inside the root span that is not the root's own glue.
    let layers_ms = median_of("op", |p| p.0 - p.1);
    values.insert("trace.layers_ms", layers_ms);
    values.insert(
        "trace.overhead_ratio",
        stats::median(&recorded_ms) / stats::median(&silent_ms),
    );
    if let Some(busy_ms) = values.remove("ensemble.busy_ms") {
        values.insert("ensemble.driver_ms", values["ensemble.sweep_ms"] - busy_ms);
    }
    if workload.sim().is_some_and(|sim| sim.workers == 1) {
        values.insert(
            "ir.evalr_ns_per_rhs",
            values["solver.rhs_ms"] * 1e6 / values["solver.rhs_calls"].max(1.0),
        );
    }
    values.insert(
        "serve.transport_ms",
        if workload == Workload::ServeWarm {
            op_ms_p50 - values["serve.handle_ms_p50"]
        } else {
            0.0
        },
    );
    // spawn + layers + residual = op, by construction: what the replay
    // cannot see (file read, flag parsing, printing, teardown, and for
    // `serve_warm` the transport) is the residual.
    values.insert(
        "cli.residual_ms",
        op_ms_p50 - values["cli.spawn_ms"] - layers_ms,
    );

    // Phase 3: per-call probes on the workload's own model.
    if workload.batch().is_some() {
        let registry = om_codegen::ModelRegistry::new();
        let model = layers::registry_get_or_compile(&registry, &inputs.source);
        values.insert(
            "codegen.registry_hit_us",
            per_call_ns(|| {
                std::hint::black_box(layers::registry_get_or_compile(&registry, &inputs.source));
            }) / 1e3,
        );
        replay
            .artifacts
            .get_or_insert_with(|| model_artifacts(&model));
    }
    if let Some(art) = &replay.artifacts {
        probe_vm(art, &mut values);
        if workload.sim().is_some() {
            probe_executors(art, &mut values);
        }
    }
    if workload == Workload::StiffHeat128 {
        probe_lu(values["ir.states"] as usize, &mut values);
    }

    if let Some(parent) = trace_file.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(trace_file, trace::chrome_json(&spans, RHS_SPAN))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    traced.values = values;
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a small model of every op shape and checks the pieces the
    /// residual identity rests on.
    #[test]
    fn replayed_spans_cover_the_op_and_counts_repeat() {
        let dir = std::env::temp_dir().join(format!("ledger-traced-{}", std::process::id()));
        let mut inputs = workloads::generate(Workload::Ws2Bearing10, 3, &dir).expect("inputs");
        inputs.scenario_y = vec![-4.0e-5, -4.1e-5];
        for workload in [
            Workload::Ws2Bearing10,
            Workload::SweepBatch8,
            Workload::ServeWarm,
        ] {
            let mut replay = Replay::new(workload, &inputs).expect("replay");
            if let Some((_, _, request)) = &replay.server {
                assert!(request.contains("\"key\""), "{request}");
            }
            let rec = Recorder::new(true);
            let first = rec.op(|| replay.op(&rec));
            let second = rec.op(|| replay.op(&rec));
            for metric in PER_LAYER.iter().filter(|m| m.exact) {
                assert_eq!(
                    first.get(metric.name),
                    second.get(metric.name),
                    "{}",
                    metric.name
                );
            }
            let spans = rec.into_spans();
            let own = trace::self_times_ns(&spans);
            let root = spans[0].duration_ns();
            let first_op: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.op == 1)
                .map(|(_, own)| *own)
                .sum();
            assert_eq!(first_op, root, "{workload:?}: self times add up to the op");
            let json = trace::chrome_json(&spans, RHS_SPAN);
            assert!(om_obs::chrome::validate_chrome_json(&json).is_ok());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reply_fields_are_read() {
        let reply = "{\"type\":\"stats\",\"id\":\"stats\",\"requests\":5,\
            \"registry\":{\"hits\":4,\"misses\":1,\"hit_ratio\":0.8000},\
            \"shed\":{\"rate\":1,\"inflight\":0,\"capacity\":2,\"draining\":0},\
            \"latency\":{\"p50_us\":1500,\"p99_us\":1900}}\n";
        let mut values = Values::new();
        assert_eq!(server_stats(reply, &mut values), Some(()));
        assert_eq!(values["serve.registry_hit_ratio"], 0.8);
        assert_eq!(values["serve.shed"], 3.0);
        assert_eq!(values["serve.scenario_us_p99"], 1900.0);
        assert_eq!(server_stats("{}", &mut values), None);
    }

    #[test]
    fn per_call_probe_measures_something() {
        let mut calls = 0u64;
        let ns = per_call_ns(|| calls += 1);
        assert!(ns >= 0.0 && calls > 15);
    }
}
