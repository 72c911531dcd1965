//! **Experiment E12b** — level fence vs work stealing, the two
//! scheduling policies of the one executor pool (`om_runtime::pool`):
//! measured wall-clock per RHS call for every built-in model × worker
//! count, on real threads on the host.
//!
//! This is the perf gate that seeds the benchmark trajectory
//! (`BENCH_5.json`): work stealing must be no slower than the fence on
//! any multi-level graph, where the fence idles workers between levels
//! (hydro's parallel gate groups, the 3D bearing). Graphs are generated
//! with `inline_algebraics = false` so algebraic producers stay as tasks
//! — the multi-level shape the fence pays for. On a single-level graph
//! the two policies differ only in stealing (one fence ≡ no fence), so
//! those cells are reported ungated. The `barrier` column measures the
//! fence on shared deques; before the executors were unified it measured
//! an mpsc round-trip per level.
//!
//! Measurement protocol (single-machine, noisy-neighbour tolerant): the
//! two pools are built over the same graph and LPT/list assignment, then
//! timed in *interleaved* batches (barrier batch, ws batch, repeat) and
//! summarised by the median per-call time across rounds, so drift hits
//! both executors symmetrically.
//!
//! Every model also gets a measured *serial* baseline (`eval_serial`,
//! no pool at all), recorded as `serial_ns_per_call` and used for the
//! `barrier_vs_serial` / `ws_vs_serial` columns. `ws_speedup` is ws
//! relative to *barrier* — at 1 worker it mostly measures barrier
//! synchronization overhead, not parallel speedup (an earlier
//! BENCH_5.json reported a 10x oscillator "speedup" at 1 worker that
//! was exactly this artifact), which is why both baselines are now
//! labeled explicitly.
//!
//! Flags:
//! * `--quick` — fewer rounds / shorter batches (the CI smoke setting),
//! * `--json`  — machine-readable JSON on stdout (the human table moves
//!   to stderr; CI redirects stdout to `BENCH_5.json`),
//! * `--workers a,b,c` — override the default 1,2,4 sweep.

use om_codegen::{CodeGenerator, GenOptions};
use om_runtime::{ExecutorPool, Strategy};
use std::fmt::Write as _;
use std::time::Instant;

struct Cell {
    workers: usize,
    barrier_ns: f64,
    ws_ns: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.barrier_ns / self.ws_ns
    }
}

struct ModelRow {
    name: &'static str,
    tasks: usize,
    levels: usize,
    /// Pool-free `eval_serial` baseline, ns per RHS call.
    serial_ns: f64,
    cells: Vec<Cell>,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Time `calls` RHS evaluations; returns ns per call.
fn time_batch(mut rhs: impl FnMut(f64), t0: f64, calls: usize) -> f64 {
    let start = Instant::now();
    for k in 0..calls {
        rhs(t0 + 1e-6 * k as f64);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let workers_list: Vec<usize> = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|w| w.parse().expect("--workers takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    let (rounds, target_batch_ns) = if quick {
        (7usize, 4_000_000.0)
    } else {
        (15usize, 20_000_000.0)
    };

    let mut rows: Vec<ModelRow> = Vec::new();
    for (name, ir) in om_bench::builtin_models() {
        // Keep algebraic producers as tasks: the dependent, multi-level
        // graph shape is exactly where the barrier has something to lose.
        let program = CodeGenerator::new(GenOptions {
            inline_algebraics: false,
            ..GenOptions::default()
        })
        .generate(&ir);
        let graph = program.graph.clone();
        let y0 = ir.initial_state();
        // Serial baseline: the same bytecode without any pool.
        let serial_ns = {
            let mut dydt = vec![0.0; graph.dim];
            let warm = time_batch(|t| graph.eval_serial(t, &y0, &mut dydt), 0.0, 30);
            let batch = ((target_batch_ns / warm) as usize).clamp(20, 5000);
            let mut serial_rounds = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let t0 = 0.01 * r as f64;
                serial_rounds.push(time_batch(
                    |t| graph.eval_serial(t, &y0, &mut dydt),
                    t0,
                    batch,
                ));
            }
            median(serial_rounds)
        };
        let mut cells = Vec::new();
        for &w in &workers_list {
            let sched = program.schedule(w);
            let build = |strategy| {
                ExecutorPool::build(graph.clone(), w, sched.assignment.clone(), strategy)
                    .expect("valid pool")
            };
            let mut barrier = build(Strategy::Barrier);
            let mut ws = build(Strategy::WorkStealing);
            let mut dydt = vec![0.0; graph.dim];
            // Warmup both pools and calibrate the batch size so one batch
            // lands near the target duration.
            let warm = time_batch(|t| barrier.rhs(t, &y0, &mut dydt), 0.0, 30).min(time_batch(
                |t| ws.rhs(t, &y0, &mut dydt),
                0.0,
                30,
            ));
            let batch = ((target_batch_ns / warm) as usize).clamp(20, 5000);
            let mut barrier_rounds = Vec::with_capacity(rounds);
            let mut ws_rounds = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let t0 = 0.01 * r as f64;
                barrier_rounds.push(time_batch(|t| barrier.rhs(t, &y0, &mut dydt), t0, batch));
                ws_rounds.push(time_batch(|t| ws.rhs(t, &y0, &mut dydt), t0, batch));
            }
            cells.push(Cell {
                workers: w,
                barrier_ns: median(barrier_rounds),
                ws_ns: median(ws_rounds),
            });
        }
        rows.push(ModelRow {
            name,
            tasks: graph.tasks.len(),
            levels: graph.levels().len(),
            serial_ns,
            cells,
        });
    }

    // Human-readable table (stderr in --json mode so stdout stays pure).
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E12b: barrier vs work-stealing executor (measured ns/call, median of {rounds} rounds{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        table,
        "{:<12} {:>5} {:>6} {:>3}  {:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "model",
        "tasks",
        "levels",
        "w",
        "serial",
        "barrier",
        "ws",
        "ws/barrier",
        "bar/serial",
        "ws/serial"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        for c in &row.cells {
            let _ = writeln!(
                table,
                "{:<12} {:>5} {:>6} {:>3}  {:>10.0} {:>12.0} {:>12.0} {:>9.2}x {:>9.2}x {:>9.2}x",
                row.name,
                row.tasks,
                row.levels,
                c.workers,
                row.serial_ns,
                c.barrier_ns,
                c.ws_ns,
                c.speedup(),
                row.serial_ns / c.barrier_ns,
                row.serial_ns / c.ws_ns,
            );
            csv_rows.push(format!(
                "{},{},{},{},{:.0},{:.0},{:.0},{:.4},{:.4},{:.4}",
                row.name,
                row.tasks,
                row.levels,
                c.workers,
                row.serial_ns,
                c.barrier_ns,
                c.ws_ns,
                c.speedup(),
                row.serial_ns / c.barrier_ns,
                row.serial_ns / c.ws_ns,
            ));
        }
    }
    if json {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    om_bench::write_csv_quiet(
        "e12b_ws_sweep",
        "model,tasks,levels,workers,serial_ns_per_call,barrier_ns_per_call,ws_ns_per_call,\
         ws_speedup_vs_barrier,barrier_vs_serial,ws_vs_serial",
        &csv_rows,
    );

    if json {
        // Hand-rolled JSON (the workspace carries no serde): the CI
        // bench-smoke job redirects this to BENCH_5.json.
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"E12b\",");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",",
            if quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "  \"unit\": \"ns_per_rhs_call\",");
        let _ = writeln!(
            out,
            "  \"strategies\": [\"{}\", \"{}\"],",
            Strategy::Barrier,
            Strategy::WorkStealing
        );
        let _ = writeln!(out, "  \"baseline\": \"serial_eval\",");
        let _ = writeln!(
            out,
            "  \"note\": \"barrier is the level-fence policy of the one executor pool \
             (not the mpsc round-trips of BENCH_5 files before the executors were \
             unified); ws_speedup is ws vs barrier (at 1 worker it measures fence \
             overhead, not parallelism); *_vs_serial columns use the measured \
             pool-free serial baseline\","
        );
        let _ = writeln!(out, "  \"models\": [");
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"model\": \"{}\",", row.name);
            let _ = writeln!(out, "      \"tasks\": {},", row.tasks);
            let _ = writeln!(out, "      \"levels\": {},", row.levels);
            let _ = writeln!(out, "      \"serial_ns_per_call\": {:.0},", row.serial_ns);
            let _ = writeln!(out, "      \"results\": [");
            for (j, c) in row.cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"workers\": {}, \"barrier_ns_per_call\": {:.0}, \
                     \"ws_ns_per_call\": {:.0}, \"ws_speedup\": {:.4}, \
                     \"barrier_vs_serial\": {:.4}, \"ws_vs_serial\": {:.4}}}{}",
                    c.workers,
                    c.barrier_ns,
                    c.ws_ns,
                    c.speedup(),
                    row.serial_ns / c.barrier_ns,
                    row.serial_ns / c.ws_ns,
                    if j + 1 < row.cells.len() { "," } else { "" }
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        print!("{out}");
    }

    // Gate summary: fail loudly (named-column diff + nonzero exit) if
    // work stealing ever regresses past the fence beyond noise. Only
    // multi-level graphs are gated: with one level the fence policy *is*
    // work stealing minus the steals, and the ratio is a coin flip.
    let mut gates = om_bench::GateDiff::new("e12b");
    for (gated, required) in [(true, ">= 0.95x"), (false, "ungated (1 level)")] {
        let worst = rows
            .iter()
            .flat_map(|row| row.cells.iter().map(move |c| (row, c)))
            .filter(|(row, _)| (row.levels > 1) == gated)
            .map(|(row, c)| (row.name, c.workers, c.speedup()))
            .min_by(|a, b| a.2.total_cmp(&b.2));
        if let Some((model, w, s)) = worst {
            gates.check(
                &format!("ws_vs_barrier ({model}, {w} workers, worst cell)"),
                format!("{s:.2}x"),
                required,
                !gated || s >= 0.95,
            );
        }
    }
    gates.finish();
}
