//! Deterministic machine-model simulation of one parallel RHS call.
//!
//! This is the substitute for running on the paper's Parsytec GC/PP and
//! SPARCcenter 2000 (see DESIGN.md): the same task graph, schedule, and
//! communication pattern are *timed* on a parametrized machine instead of
//! executed on period hardware. The communication pattern is the one the
//! evaluated system used (§3.2.3): the supervisor sends the state vector
//! to every worker (whole state, or composed messages in the future-work
//! variant), each worker evaluates its tasks, and the derivative values
//! travel back to the supervisor.
//!
//! The model:
//!
//! * the supervisor serializes sends: message `i` leaves at
//!   `i·(send_overhead + bytes/bandwidth)`,
//! * a worker starts computing when its message arrives
//!   (`+ latency`), and computes `Σ task flops · sec_per_flop`, scaled by
//!   the time-sharing factor,
//! * results return over the wire and are drained serially by the
//!   supervisor,
//! * dependent tasks (shared slots) execute level by level with an extra
//!   exchange per level boundary that crosses workers.

use crate::machine::MachineSpec;
use om_codegen::comm::MessagePolicy;
use om_codegen::task::{OutSlot, TaskGraph};

/// Timing breakdown of one simulated RHS call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimBreakdown {
    /// Total wall-clock seconds per RHS call.
    pub total: f64,
    /// Time attributable to communication (send + wire + gather).
    pub comm: f64,
    /// Longest per-worker compute time.
    pub max_compute: f64,
    /// Sum of all compute (for efficiency metrics).
    pub total_compute: f64,
}

impl SimBreakdown {
    /// RHS calls per second on this machine.
    pub fn rhs_calls_per_sec(&self) -> f64 {
        if self.total > 0.0 {
            1.0 / self.total
        } else {
            f64::INFINITY
        }
    }
}

/// Simulate the duration of one RHS evaluation of `graph` under
/// `assignment` on `workers` workers of `machine`.
///
/// `assignment[task]` gives the worker (0-based). The supervisor blocks
/// during worker compute, so only `workers` processors are subscribed.
pub fn simulate_rhs_time(
    graph: &TaskGraph,
    assignment: &[usize],
    workers: usize,
    machine: &MachineSpec,
    policy: MessagePolicy,
) -> SimBreakdown {
    assert_eq!(assignment.len(), graph.tasks.len());
    assert!(workers >= 1);
    let f64_bytes = 8.0;
    // The supervisor blocks while workers compute, so it shares a
    // processor gracefully; only the *workers* subscribe cores.
    let ts = machine.timeshare_factor(workers);

    // Per-worker state-message size.
    let plan = om_codegen::comm::analyze(graph, assignment, workers, policy);

    // Level structure for dependent graphs (level = longest dep chain).
    let n = graph.tasks.len();
    // deps are producer tasks with smaller construction order but not
    // necessarily smaller index; iterate to fixpoint (graphs are small
    // DAGs).
    let mut level = vec![0usize; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for &d in &graph.deps[i] {
                if level[i] < level[d] + 1 {
                    level[i] = level[d] + 1;
                    changed = true;
                }
            }
        }
    }
    let n_levels = level.iter().copied().max().unwrap_or(0) + 1;

    // Downlink: supervisor sends one state message per worker. On 1995
    // hardware (and in the evaluated system) sends serialize at the
    // supervisor; machines with tree collectives scatter in log2 depth.
    let mut worker_ready = vec![0.0f64; workers];
    let downlink_done;
    if machine.tree_collectives {
        let depth = (workers + 1).next_power_of_two().trailing_zeros() as f64;
        for (ready, &down) in worker_ready.iter_mut().zip(&plan.send_down) {
            let bytes = down as f64 * f64_bytes;
            *ready = depth * (machine.send_overhead + bytes / machine.bandwidth + machine.latency);
        }
        downlink_done = machine.send_overhead;
    } else {
        let mut send_clock = 0.0f64;
        for (ready, &down) in worker_ready.iter_mut().zip(&plan.send_down) {
            let bytes = down as f64 * f64_bytes;
            send_clock += machine.send_overhead + bytes / machine.bandwidth;
            *ready = send_clock + machine.latency;
        }
        downlink_done = send_clock;
    }

    // Compute, level by level. Between levels, cross-worker shared values
    // cost one wire hop each (overlapped: the level barrier waits for the
    // slowest worker plus one latency if anything crossed).
    let mut worker_done = worker_ready.clone();
    let mut total_compute = 0.0;
    for lvl in 0..n_levels {
        let mut level_compute = vec![0.0f64; workers];
        for (task, &w) in graph.tasks.iter().zip(assignment) {
            if level[task.id] == lvl {
                let secs = task.static_cost as f64 * machine.sec_per_flop * ts;
                level_compute[w] += secs;
                total_compute += secs;
            }
        }
        for w in 0..workers {
            worker_done[w] += level_compute[w];
        }
        // Cross-worker shared transfers at this level boundary.
        if lvl + 1 < n_levels {
            let mut crossings = 0usize;
            for (task, &w) in graph.tasks.iter().zip(assignment) {
                if level[task.id] == lvl + 1 {
                    for &d in &graph.deps[task.id] {
                        if assignment[d] != w {
                            crossings += 1;
                        }
                    }
                }
            }
            if crossings > 0 {
                let barrier =
                    worker_done.iter().cloned().fold(0.0f64, f64::max) + machine.wire_time(8);
                for w in worker_done.iter_mut() {
                    *w = (*w).max(barrier);
                }
            }
        }
    }

    // Uplink: each worker sends its derivative values back. Serial drain
    // at the supervisor, or a log2-depth reduction tree.
    let total = if machine.tree_collectives {
        let slowest = (0..workers)
            .map(|w| {
                let bytes = plan.send_up[w] as f64 * f64_bytes;
                worker_done[w] + bytes / machine.bandwidth
            })
            .fold(0.0f64, f64::max);
        let depth = (workers + 1).next_power_of_two().trailing_zeros() as f64;
        slowest + depth * (machine.latency + machine.send_overhead)
    } else {
        let mut arrivals: Vec<f64> = (0..workers)
            .map(|w| {
                let bytes = plan.send_up[w] as f64 * f64_bytes;
                worker_done[w] + machine.latency + bytes / machine.bandwidth
            })
            .collect();
        arrivals.sort_by(f64::total_cmp);
        let mut clock: f64 = 0.0;
        for a in arrivals {
            clock = clock.max(a) + machine.send_overhead;
        }
        clock
    };
    let max_compute = (0..workers)
        .map(|w| worker_done[w] - worker_ready[w])
        .fold(0.0f64, f64::max);
    // Communication time: whatever is not the critical worker's compute.
    let comm = (total - max_compute).max(downlink_done);
    SimBreakdown {
        total,
        comm,
        max_compute,
        total_compute,
    }
}

/// Convenience: simulate the serial (1 processor, no communication)
/// execution time of the whole task graph.
pub fn simulate_serial_time(graph: &TaskGraph, machine: &MachineSpec) -> f64 {
    graph.total_cost() as f64 * machine.sec_per_flop
}

/// Derivative slots produced by the graph — sanity helper for tests.
pub fn deriv_slot_count(graph: &TaskGraph) -> usize {
    graph
        .tasks
        .iter()
        .flat_map(|t| &t.writes)
        .filter(|w| matches!(w, OutSlot::Deriv(_)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_codegen::cse::CseMode;
    use om_codegen::task::{compile_tasks, equation_tasks};
    use om_codegen::{lpt, CodeGenerator, GenOptions};
    use om_expr::CostModel;
    use om_ir::causalize;

    fn graph(src: &str) -> TaskGraph {
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        compile_tasks(
            &equation_tasks(&ir, true),
            &ir,
            CseMode::PerTask,
            &CostModel::default(),
        )
    }

    /// A model with `n` independent right-hand sides of `terms` heavy
    /// terms each (distinct constants defeat CSE, like real contact
    /// formulas).
    fn heavy_model_terms(n: usize, terms: usize) -> String {
        let mut src = String::from("model Heavy;\n");
        for i in 0..n {
            src.push_str(&format!("Real x{i}(start=0.1);\n"));
        }
        src.push_str("equation\n");
        for i in 0..n {
            src.push_str(&format!("der(x{i}) = 0.0"));
            for j in 0..terms {
                let c = 1.0 + 0.01 * j as f64;
                src.push_str(&format!(
                    " + sin(x{i}*{c}) + cos(x{i})*exp(sin(x{i}*{c})) \
                     + tanh(x{i}*{c})*sqrt(x{i}*x{i} + {c})"
                ));
            }
            src.push_str(";\n");
        }
        src.push_str("end Heavy;\n");
        src
    }

    /// A model with several equally heavy independent right-hand sides.
    fn heavy_model(n: usize) -> String {
        heavy_model_terms(n, 1)
    }

    fn speedup_at(g: &TaskGraph, workers: usize, machine: &MachineSpec) -> f64 {
        let costs: Vec<u64> = g.tasks.iter().map(|t| t.static_cost).collect();
        let sched = lpt(&costs, workers);
        let par = simulate_rhs_time(
            g,
            &sched.assignment,
            workers,
            machine,
            MessagePolicy::WholeState,
        );
        simulate_serial_time(g, machine) / par.total
    }

    #[test]
    fn low_latency_machine_scales_further_than_high_latency() {
        let g = graph(&heavy_model(16));
        let sparc = MachineSpec::sparc_center_2000();
        let parsytec = MachineSpec::parsytec_gcpp();
        let s4_sparc = speedup_at(&g, 4, &sparc);
        let s4_parsytec = speedup_at(&g, 4, &parsytec);
        assert!(
            s4_sparc > s4_parsytec,
            "sparc {s4_sparc} parsytec {s4_parsytec}"
        );
    }

    #[test]
    fn distributed_machine_peaks_and_declines() {
        // Small-granularity problem on the 140 µs machine: adding
        // workers beyond the peak must not help (paper: "reach a peak at
        // four processors").
        let g = graph(&heavy_model(16));
        let parsytec = MachineSpec::parsytec_gcpp();
        let speedups: Vec<f64> = (1..=16).map(|w| speedup_at(&g, w, &parsytec)).collect();
        let peak = speedups
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i + 1)
            .expect("nonempty");
        assert!(peak < 16, "no peak: {speedups:?}");
        assert!(
            speedups[15] < speedups[peak - 1],
            "no decline after peak: {speedups:?}"
        );
    }

    #[test]
    fn shared_memory_machine_is_near_linear_below_core_count() {
        // Bearing-grade granularity (the paper's right-hand sides are
        // "several tens of thousands of floating point operations").
        let g = graph(&heavy_model_terms(16, 12));
        let sparc = MachineSpec::sparc_center_2000();
        let s = speedup_at(&g, 4, &sparc);
        assert!(s > 3.0, "speedup at 4 workers only {s}");
    }

    #[test]
    fn timesharing_produces_a_knee() {
        let g = graph(&heavy_model(32));
        let sparc = MachineSpec::sparc_center_2000();
        let s7 = speedup_at(&g, 7, &sparc);
        let s12 = speedup_at(&g, 12, &sparc);
        // Beyond the machine's 8 processors, efficiency collapses.
        assert!(s12 < s7 * 1.05, "expected knee: s7={s7} s12={s12}");
    }

    #[test]
    fn ideal_machine_matches_lpt_makespan_ratio() {
        let g = graph(&heavy_model(8));
        let ideal = MachineSpec::ideal(64);
        let s = speedup_at(&g, 8, &ideal);
        // 8 equal tasks on 8 workers: speedup ≈ 8.
        assert!(s > 7.0, "{s}");
    }

    #[test]
    fn composed_messages_beat_whole_state_on_sparse_reads() {
        // Many states, each task reads only its own → composed messages
        // shrink the downlink.
        let g = graph(&heavy_model(24));
        let m = MachineSpec::parsytec_gcpp();
        let costs: Vec<u64> = g.tasks.iter().map(|t| t.static_cost).collect();
        let sched = lpt(&costs, 8);
        let whole = simulate_rhs_time(&g, &sched.assignment, 8, &m, MessagePolicy::WholeState);
        let composed = simulate_rhs_time(&g, &sched.assignment, 8, &m, MessagePolicy::Composed);
        assert!(
            composed.total <= whole.total,
            "composed {} whole {}",
            composed.total,
            whole.total
        );
    }

    #[test]
    fn dependent_graphs_pay_level_barriers() {
        // Shared-CSE extraction introduces levels; on a high-latency
        // machine that must cost extra communication time vs the ideal
        // machine.
        let src = "model M;
            Real x; Real y;
            equation
              der(x) = exp(sin(x) + cos(x)) * 2.0 + y;
              der(y) = exp(sin(x) + cos(x)) * 3.0 - y;
            end M;";
        let ir = causalize(&om_lang::compile(src).unwrap()).unwrap();
        let generator = CodeGenerator::new(GenOptions {
            extract_shared_min_cost: Some(40),
            merge_threshold: 0,
            ..GenOptions::default()
        });
        let program = generator.generate(&ir);
        assert!(!program.graph.is_independent());
        let sched = program.schedule(2);
        let m = MachineSpec::parsytec_gcpp();
        let sim = simulate_rhs_time(
            &program.graph,
            &sched.assignment,
            2,
            &m,
            MessagePolicy::WholeState,
        );
        assert!(sim.total > 0.0);
        assert!(sim.comm > 0.0);
    }

    #[test]
    fn breakdown_accounts_are_consistent() {
        let g = graph(&heavy_model(8));
        let m = MachineSpec::sparc_center_2000();
        let costs: Vec<u64> = g.tasks.iter().map(|t| t.static_cost).collect();
        let sched = lpt(&costs, 4);
        let sim = simulate_rhs_time(&g, &sched.assignment, 4, &m, MessagePolicy::WholeState);
        assert!(sim.total >= sim.max_compute);
        assert!(sim.total_compute >= sim.max_compute);
        assert!(sim.rhs_calls_per_sec() > 0.0);
        assert_eq!(deriv_slot_count(&g), 8);
    }
}
