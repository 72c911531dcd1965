//! **Experiment E12b** — the one executor pool (`om_runtime::pool`,
//! dependency-counter work stealing): measured wall-clock per RHS call
//! for every built-in model × worker count, on real threads on the host,
//! beside the pool-free serial baseline.
//!
//! Graphs are generated with `inline_algebraics = false` so algebraic
//! producers stay as tasks: the multi-level shape on which dependency
//! counters, successor pushes and steals all run. It records and gates
//! nothing; EXPERIMENTS E12b has the comparison with the paper's level
//! fence that left the pool one policy.
//!
//! Measurement protocol (single-machine, noisy-neighbour tolerant): the
//! serial baseline (`eval_serial`, no pool at all) and the pool are timed
//! in *interleaved* batches (serial batch, pool batch, repeat) and
//! summarised by the median per-call time across rounds, so drift hits
//! both symmetrically. At one worker the pool column measures the pool's
//! own cost, not parallel speedup.
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
    /// Pool-free `eval_serial` baseline, ns per RHS call, interleaved
    /// with this cell's pool rounds.
    serial_ns: f64,
    pool_ns: f64,
}

struct ModelRow {
    name: &'static str,
    tasks: usize,
    levels: usize,
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
        let program = CodeGenerator::new(GenOptions {
            inline_algebraics: false,
            ..GenOptions::default()
        })
        .generate(&ir);
        let graph = &program.graph;
        let y0 = ir.initial_state();
        let mut cells = Vec::new();
        for &w in &workers_list {
            let sched = program.schedule(w);
            let mut pool =
                ExecutorPool::build(graph.clone(), w, sched.assignment, Strategy::WorkStealing)
                    .expect("valid pool");
            let mut dydt = vec![0.0; graph.dim];
            // Warm both up and calibrate the batch size so one batch lands
            // near the target duration.
            let warm = time_batch(|t| pool.rhs(t, &y0, &mut dydt), 0.0, 30).min(time_batch(
                |t| graph.eval_serial(t, &y0, &mut dydt),
                0.0,
                30,
            ));
            let batch = ((target_batch_ns / warm) as usize).clamp(20, 5000);
            let mut serial_rounds = Vec::with_capacity(rounds);
            let mut pool_rounds = Vec::with_capacity(rounds);
            for r in 0..rounds {
                let t0 = 0.01 * r as f64;
                serial_rounds.push(time_batch(
                    |t| graph.eval_serial(t, &y0, &mut dydt),
                    t0,
                    batch,
                ));
                pool_rounds.push(time_batch(|t| pool.rhs(t, &y0, &mut dydt), t0, batch));
            }
            cells.push(Cell {
                workers: w,
                serial_ns: median(serial_rounds),
                pool_ns: median(pool_rounds),
            });
        }
        rows.push(ModelRow {
            name,
            tasks: graph.tasks.len(),
            levels: graph.levels().len(),
            cells,
        });
    }

    // Human-readable table (stderr in --json mode so stdout stays pure).
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E12b: the work-stealing pool vs serial (measured ns/call, median of {rounds} rounds{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        table,
        "{:<12} {:>5} {:>6} {:>3}  {:>10} {:>12} {:>10}",
        "model", "tasks", "levels", "w", "serial", "pool", "pool/serial"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        for c in &row.cells {
            let ratio = c.serial_ns / c.pool_ns;
            let _ = writeln!(
                table,
                "{:<12} {:>5} {:>6} {:>3}  {:>10.0} {:>12.0} {:>9.2}x",
                row.name, row.tasks, row.levels, c.workers, c.serial_ns, c.pool_ns, ratio,
            );
            csv_rows.push(format!(
                "{},{},{},{},{:.0},{:.0},{:.4}",
                row.name, row.tasks, row.levels, c.workers, c.serial_ns, c.pool_ns, ratio,
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
        "model,tasks,levels,workers,serial_ns_per_call,ws_ns_per_call,ws_vs_serial",
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
        let _ = writeln!(out, "  \"strategies\": [\"ws\"],");
        let _ = writeln!(out, "  \"baseline\": \"serial_eval\",");
        let _ = writeln!(
            out,
            "  \"note\": \"ws is the one executor pool (dependency-counter work \
             stealing; the level-fence barrier policy of earlier BENCH_5 files was \
             removed); ws_vs_serial is the measured pool-free serial baseline over \
             the pool, each cell's serial rounds interleaved with its pool rounds\","
        );
        let _ = writeln!(out, "  \"models\": [");
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"model\": \"{}\",", row.name);
            let _ = writeln!(out, "      \"tasks\": {},", row.tasks);
            let _ = writeln!(out, "      \"levels\": {},", row.levels);
            let _ = writeln!(out, "      \"results\": [");
            for (j, c) in row.cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"workers\": {}, \"serial_ns_per_call\": {:.0}, \
                     \"ws_ns_per_call\": {:.0}, \"ws_vs_serial\": {:.4}}}{}",
                    c.workers,
                    c.serial_ns,
                    c.pool_ns,
                    c.serial_ns / c.pool_ns,
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
}
