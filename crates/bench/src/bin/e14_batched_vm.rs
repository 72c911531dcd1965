//! **Experiment E14** — batched SoA VM: measured ns *per scenario* per
//! RHS call for every built-in model × lane width K, against the
//! one-lane `eval_serial` baseline.
//!
//! The interpreter (`TaskGraph::eval_batch`) walks the bytecode once per
//! batch and executes each instruction as a tight loop over K lanes, so
//! instruction dispatch, operand decoding, and task-graph bookkeeping
//! are amortized K ways and the per-lane inner loops are contiguous
//! stride-1 candidates for auto-vectorization; at K=1 the same source
//! folds to a scalar interpreter, which is what `eval_serial` runs. The
//! claims this experiment pins down (and CI gates on): per-scenario cost
//! drops as K grows and at K=8 is strictly below the one-lane baseline
//! on every model, and a held one-lane scratch never costs more than
//! `eval_serial` — while PR 7's differential suites prove every lane
//! stays bitwise identical to a one-lane execution.
//!
//! Measurement protocol, per model and cell (the baseline, then each K
//! in turn): warm up, calibrate the batch size to a target duration,
//! time the rounds, take the median.
//!
//! Flags:
//! * `--quick` — fewer rounds / shorter batches (the CI smoke setting),
//! * `--json`  — machine-readable JSON on stdout (the human table moves
//!   to stderr; CI redirects stdout to `BENCH_7.json`),
//! * `--widths a,b,c` — override the default 1,2,4,8,16 lane sweep.

use om_codegen::task::BatchScratch;
use om_codegen::{CodeGenerator, GenOptions};
use std::fmt::Write as _;
use std::time::Instant;

struct Cell {
    lanes: usize,
    /// ns per scenario per RHS call (batch call time / lanes).
    ns_per_scenario: f64,
}

struct ModelRow {
    name: &'static str,
    dim: usize,
    tasks: usize,
    /// `eval_serial` baseline (one lane, scratch built per call), ns per call.
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

/// Time `calls` evaluations; returns ns per call.
fn time_batch(mut eval: impl FnMut(f64), t0: f64, calls: usize) -> f64 {
    let start = Instant::now();
    for k in 0..calls {
        eval(t0 + 1e-6 * k as f64);
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Warm up, calibrate the call count to `target_ns` per round, then time
/// `rounds` rounds; returns the median ns per call.
fn measure(mut eval: impl FnMut(f64), rounds: usize, target_ns: f64) -> f64 {
    let warm = time_batch(&mut eval, 0.0, 30);
    let calls = ((target_ns / warm) as usize).clamp(50, 20_000);
    median(
        (0..rounds)
            .map(|r| time_batch(&mut eval, 0.01 * r as f64, calls))
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let widths: Vec<usize> = args
        .iter()
        .position(|a| a == "--widths")
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.split(',')
                .map(|w| w.parse().expect("--widths takes e.g. 1,2,4,8"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16]);
    let (rounds, target_batch_ns) = if quick {
        (7usize, 2_000_000.0)
    } else {
        (15usize, 10_000_000.0)
    };

    let mut rows: Vec<ModelRow> = Vec::new();
    for (name, ir) in om_bench::builtin_models() {
        let program = CodeGenerator::new(GenOptions::default()).generate(&ir);
        let graph = program.graph.clone();
        let dim = graph.dim;
        let y0 = ir.initial_state();

        // One-lane baseline.
        let serial_ns = {
            let mut dydt = vec![0.0; dim];
            let eval = |t| graph.eval_serial(t, &y0, &mut dydt);
            measure(eval, rounds, target_batch_ns)
        };

        // Batched: per lane width, an SoA pack of slightly perturbed
        // initial states (distinct lanes, same instruction stream).
        let mut cells = Vec::new();
        for &lanes in &widths {
            let mut ys = vec![0.0; dim * lanes];
            for l in 0..lanes {
                for i in 0..dim {
                    ys[i * lanes + l] = y0[i] + 0.001 * l as f64;
                }
            }
            let mut dydts = vec![0.0; dim * lanes];
            let mut scratch = BatchScratch::new(&graph, lanes);
            let eval = |t| graph.eval_batch(t, &ys, &mut dydts, &mut scratch);
            let ns_per_call = measure(eval, rounds, target_batch_ns);
            cells.push(Cell {
                lanes,
                ns_per_scenario: ns_per_call / lanes as f64,
            });
        }
        rows.push(ModelRow {
            name,
            dim,
            tasks: graph.tasks.len(),
            serial_ns,
            cells,
        });
    }

    // Human-readable table (stderr in --json mode so stdout stays pure).
    let mut table = String::new();
    let _ = writeln!(
        table,
        "== E14: batched SoA VM (measured ns per scenario per RHS call, \
         median of {rounds} rounds{}) ==",
        if quick { ", quick" } else { "" }
    );
    let _ = writeln!(
        table,
        "{:<12} {:>4} {:>5} {:>12} {:>4}  {:>14} {:>10}",
        "model", "dim", "tasks", "serial(K=1)", "K", "ns/scenario", "vs serial"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        for c in &row.cells {
            let _ = writeln!(
                table,
                "{:<12} {:>4} {:>5} {:>12.0} {:>4}  {:>14.1} {:>9.2}x",
                row.name,
                row.dim,
                row.tasks,
                row.serial_ns,
                c.lanes,
                c.ns_per_scenario,
                row.serial_ns / c.ns_per_scenario,
            );
            csv_rows.push(format!(
                "{},{},{},{:.1},{},{:.1},{:.4}",
                row.name,
                row.dim,
                row.tasks,
                row.serial_ns,
                c.lanes,
                c.ns_per_scenario,
                row.serial_ns / c.ns_per_scenario,
            ));
        }
    }
    if json {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    om_bench::write_csv_quiet(
        "e14_batched_vm",
        "model,dim,tasks,serial_ns_per_call,lanes,ns_per_scenario_per_call,speedup_vs_serial",
        &csv_rows,
    );

    if json {
        // Hand-rolled JSON (the workspace carries no serde): the CI
        // bench-smoke job redirects this to BENCH_7.json.
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"E14\",");
        let _ = writeln!(
            out,
            "  \"mode\": \"{}\",",
            if quick { "quick" } else { "full" }
        );
        let _ = writeln!(out, "  \"unit\": \"ns_per_scenario_per_rhs_call\",");
        let _ = writeln!(out, "  \"baseline\": \"serial_eval_k1\",");
        let _ = writeln!(out, "  \"models\": [");
        for (i, row) in rows.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"model\": \"{}\",", row.name);
            let _ = writeln!(out, "      \"dim\": {},", row.dim);
            let _ = writeln!(out, "      \"tasks\": {},", row.tasks);
            let _ = writeln!(out, "      \"serial_ns_per_call\": {:.1},", row.serial_ns);
            let _ = writeln!(out, "      \"results\": [");
            for (j, c) in row.cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"lanes\": {}, \"ns_per_scenario_per_call\": {:.1}, \
                     \"speedup_vs_serial\": {:.4}}}{}",
                    c.lanes,
                    c.ns_per_scenario,
                    row.serial_ns / c.ns_per_scenario,
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

    let mut gates = om_bench::GateDiff::new("e14");
    for row in &rows {
        // Gate: a held one-lane scratch (`omc simulate`, every batch-1
        // scenario) must not cost more than `eval_serial`, which builds
        // one per call around the same code (0.5-0.7x when the two were
        // separate interpreters). Under four tasks is below resolution.
        if let Some(c) = row.cells.iter().find(|c| c.lanes == 1 && row.tasks >= 4) {
            let ratio = row.serial_ns / c.ns_per_scenario;
            gates.check(
                &format!("{} batched K=1 vs serial", row.name),
                format!("{:.1} ns ({ratio:.2}x)", c.ns_per_scenario),
                format!(">= 0.85x of {:.1} ns", row.serial_ns),
                ratio >= 0.85,
            );
        }
        // Gate: at K=8 the per-scenario cost must be strictly below the
        // one-lane baseline on every model, or batching is not paying
        // for itself — the named-column diff says which model broke it.
        if let Some(c) = row.cells.iter().find(|c| c.lanes == 8) {
            let speedup = row.serial_ns / c.ns_per_scenario;
            gates.check(
                &format!("{} K=8 vs K=1", row.name),
                format!("{:.1} ns/scn ({speedup:.2}x)", c.ns_per_scenario),
                format!("< {:.1} ns/scn", row.serial_ns),
                c.ns_per_scenario < row.serial_ns,
            );
        }
    }
    gates.finish();
}
