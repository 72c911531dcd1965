//! The top-level code generator.
//!
//! Wires the stages of Figure 9 together: expression transformation
//! (derivative removal happened in `om-ir`), task partitioning, CSE,
//! bytecode compilation, and the static LPT schedule; also produces the
//! textual intermediate form and Fortran/C++ renderings plus the
//! statistics the paper reports in §3.3.

use crate::cse::CseMode;
use crate::emit_cpp;
use crate::emit_fortran::{self, SourceStats};
use crate::sched::{self, Schedule};
use crate::task::{
    cluster, compile_tasks, equation_tasks, extract_shared_cse, merge_small, split_large,
    symbolic_deps, SymbolicTask, TaskGraph,
};
use om_expr::CostModel;
use om_ir::OdeIr;
use std::fmt::Write as _;

/// Options of the parallel code generator — the knobs the ablation
/// experiment (E10) sweeps.
#[derive(Clone, Debug)]
pub struct GenOptions {
    /// CSE mode for the compiled bytecode.
    pub cse: CseMode,
    /// Inline algebraic variables into consumers (the paper's evaluated
    /// configuration) or keep them as producer tasks.
    pub inline_algebraics: bool,
    /// Group tasks cheaper than this (flops) into one task.
    pub merge_threshold: u64,
    /// Split a task whose top-level sum costs more than this.
    pub split_threshold: Option<u64>,
    /// Extract subexpressions costing at least this that are shared
    /// between tasks (the paper's future-work optimization).
    pub extract_shared_min_cost: Option<u64>,
    /// Cost model used for all static estimates.
    pub cost_model: CostModel,
}

impl Default for GenOptions {
    fn default() -> GenOptions {
        GenOptions {
            cse: CseMode::PerTask,
            inline_algebraics: true,
            merge_threshold: 16,
            split_threshold: None,
            extract_shared_min_cost: None,
            cost_model: CostModel::default(),
        }
    }
}

/// The generated parallel program: symbolic tasks (kept for the textual
/// emitters) and the compiled task graph.
#[derive(Clone, Debug)]
pub struct ParallelProgram {
    pub tasks: Vec<SymbolicTask>,
    pub graph: TaskGraph,
}

impl ParallelProgram {
    /// Static costs of all tasks (scheduler input).
    pub fn costs(&self) -> Vec<u64> {
        self.graph.tasks.iter().map(|t| t.static_cost).collect()
    }

    /// Build the static schedule for `m` workers: plain LPT when tasks
    /// are independent, LPT-priority list scheduling otherwise.
    pub fn schedule(&self, m: usize) -> Schedule {
        sched::schedule(&self.costs(), &self.graph.deps, m)
    }
}

/// The static scheduler's input for the equation-level tasks, read off
/// the symbolic tasks without compiling them: each task's static cost
/// and predecessors, equal to the `static_cost` and `deps` that
/// [`compile_tasks`] gives the same tasks.
#[derive(Clone, Debug)]
pub struct TaskCosts {
    pub costs: Vec<u64>,
    pub deps: Vec<Vec<usize>>,
}

impl TaskCosts {
    /// The static schedule on `m` workers: plain LPT when the tasks are
    /// independent, LPT-priority list scheduling otherwise (equal to
    /// [`ParallelProgram::schedule`] of the same tasks).
    pub fn schedule(&self, m: usize) -> Schedule {
        sched::schedule(&self.costs, &self.deps, m)
    }
}

/// The executable graph for `m` workers: the equation-level tasks
/// scheduled, then each worker's plain tasks fused into one cluster
/// ([`crate::task::cluster`]). Bitwise the equation-level graph.
#[derive(Clone, Debug)]
pub struct Placement {
    /// The equation-level tasks' static costs and edges, from which a
    /// schedule on any worker count follows without compiling.
    pub costs: TaskCosts,
    /// The equation-level schedule the clusters were formed from
    /// (`costs.schedule(m)`).
    pub schedule: Schedule,
    /// The clustered graph.
    pub graph: TaskGraph,
    /// `assignment[task of graph] = worker`.
    pub assignment: Vec<usize>,
}

/// Code-generation statistics for the §3.3 table (experiment E5).
#[derive(Clone, Debug)]
pub struct GenStats {
    pub model_name: String,
    pub n_states: usize,
    pub n_equations: usize,
    /// Lines of type-annotated prefix intermediate code.
    pub intermediate_lines: usize,
    /// Parallel Fortran 90: lines / declaration lines / CSE count.
    pub parallel_f90: SourceStats,
    /// Serial Fortran 90 with global CSE.
    pub serial_f90: SourceStats,
}

/// The ObjectMath code generator.
#[derive(Clone, Debug, Default)]
pub struct CodeGenerator {
    pub options: GenOptions,
}

impl CodeGenerator {
    pub fn new(options: GenOptions) -> CodeGenerator {
        CodeGenerator { options }
    }

    /// Run the partitioning pipeline on `ir` and compile the task graph.
    pub fn generate(&self, ir: &OdeIr) -> ParallelProgram {
        let o = &self.options;
        let _span = om_obs::span("codegen.generate", "compile");
        let tasks = self.tasks(ir);
        let graph = {
            let _span = om_obs::span("codegen.compile_tasks", "compile");
            compile_tasks(&tasks, ir, o.cse, &o.cost_model)
        };
        ParallelProgram { tasks, graph }
    }

    /// The equation-level symbolic tasks: the partitioning passes of
    /// [`CodeGenerator::generate`] without the compilation.
    pub fn tasks(&self, ir: &OdeIr) -> Vec<SymbolicTask> {
        let o = &self.options;
        let mut tasks = {
            let _span = om_obs::span("codegen.inline_simplify", "compile");
            equation_tasks(ir, o.inline_algebraics)
        };
        if let Some(min_cost) = o.extract_shared_min_cost {
            tasks = extract_shared_cse(tasks, min_cost, &o.cost_model);
        }
        if let Some(threshold) = o.split_threshold {
            tasks = split_large(tasks, threshold, &o.cost_model);
        }
        if o.merge_threshold > 0 {
            let _span = om_obs::span("codegen.merge", "compile");
            tasks = merge_small(tasks, o.merge_threshold, &o.cost_model);
        }
        tasks
    }

    /// The static scheduler's input for the equation-level `tasks`: what
    /// [`CodeGenerator::generate`] would compile them to cost, without
    /// compiling them.
    pub fn costs(&self, tasks: &[SymbolicTask]) -> TaskCosts {
        let o = &self.options;
        TaskCosts {
            costs: tasks
                .iter()
                .map(|t| t.static_cost(o.cse, &o.cost_model))
                .collect(),
            deps: symbolic_deps(tasks),
        }
    }

    /// Place the equation-level `tasks` of `ir` on `m` workers: schedule
    /// them as [`ParallelProgram::schedule`] would, fuse each worker's
    /// plain tasks into one cluster, and compile only that graph. At
    /// `m = 1` this is the one-cluster, global-CSE serial graph.
    pub fn place(&self, ir: &OdeIr, tasks: &[SymbolicTask], m: usize) -> Placement {
        let o = &self.options;
        let _span = om_obs::span("codegen.place", "compile");
        let costs = self.costs(tasks);
        let schedule = costs.schedule(m);
        let (placed, assignment) = cluster(tasks, &schedule.assignment, m);
        let graph = compile_tasks(&placed, ir, o.cse, &o.cost_model);
        if om_obs::is_enabled() {
            let gauge = |name: &str, value: usize| om_obs::metrics().gauge(name).set(value as f64);
            gauge("codegen.tasks", tasks.len());
            gauge("codegen.clusters", graph.tasks.len());
            gauge("codegen.placed_instrs", graph.instrs());
        }
        Placement {
            costs,
            schedule,
            graph,
            assignment,
        }
    }

    /// The type-annotated prefix intermediate code (paper Figure 11
    /// middle panel): one `Equal[Derivative[1][…]…]` per equation wrapped
    /// in a `List[…]`.
    pub fn intermediate_code(&self, ir: &OdeIr) -> String {
        if ir.has_classes() {
            // The textual forms enumerate every scalar equation.
            return self.intermediate_code(&ir.expand_classes());
        }
        let mut out = String::new();
        let _ = writeln!(out, "List[");
        let _ = writeln!(out, "  List[");
        let n = ir.derivs.len() + ir.algebraics.len();
        let mut k = 0usize;
        for d in &ir.derivs {
            k += 1;
            let lhs = om_expr::full_form_typed(&om_expr::expr::Expr::Der(d.state));
            let rhs = om_expr::full_form_typed(&d.rhs);
            let comma = if k < n { "," } else { "" };
            let _ = writeln!(out, "    Equal[{lhs}, {rhs}]{comma}");
        }
        for a in &ir.algebraics {
            k += 1;
            let lhs = om_expr::full_form_typed(&om_expr::expr::Expr::Var(a.var));
            let rhs = om_expr::full_form_typed(&a.rhs);
            let comma = if k < n { "," } else { "" };
            let _ = writeln!(out, "    Equal[{lhs}, {rhs}]{comma}");
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  List[t, om$Type[tstart, om$Real], om$Type[tend, om$Real]]"
        );
        let _ = writeln!(out, "]");
        out
    }

    /// Generate the §3.3 statistics: intermediate code size, parallel vs
    /// serial Fortran with their CSE counts.
    pub fn stats(&self, ir: &OdeIr, m: usize) -> GenStats {
        if ir.has_classes() {
            return self.stats(&ir.expand_classes(), m);
        }
        let program = self.generate(ir);
        let sched = program.schedule(m);
        let parallel_f90 = emit_fortran::emit_parallel(
            &program.tasks,
            &sched.assignment,
            m,
            ir,
            &self.options.cost_model,
        );
        let serial_f90 = emit_fortran::emit_serial(ir, &self.options.cost_model);
        GenStats {
            model_name: ir.name.clone(),
            n_states: ir.dim(),
            n_equations: ir.derivs.len() + ir.algebraics.len(),
            intermediate_lines: self.intermediate_code(ir).lines().count(),
            parallel_f90,
            serial_f90,
        }
    }

    /// Parallel C++ rendering (same schedule as `stats`).
    pub fn emit_cpp(&self, ir: &OdeIr, m: usize) -> SourceStats {
        if ir.has_classes() {
            return self.emit_cpp(&ir.expand_classes(), m);
        }
        let program = self.generate(ir);
        let sched = program.schedule(m);
        emit_cpp::emit_parallel(
            &program.tasks,
            &sched.assignment,
            m,
            ir,
            &self.options.cost_model,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_ir::causalize;

    fn ir(src: &str) -> OdeIr {
        causalize(&om_lang::compile(src).unwrap()).unwrap()
    }

    const MODEL: &str = "model M;
        Real x(start=1.0); Real v; Real f;
        equation
          der(x) = v;
          der(v) = f;
          f = -4.0*x - 0.1*v + sin(time);
        end M;";

    #[test]
    fn default_pipeline_produces_correct_graph() {
        let sys = ir(MODEL);
        let generator = CodeGenerator::default();
        let program = generator.generate(&sys);
        let reference = om_ir::IrEvaluator::new(&sys).unwrap();
        let y = [0.2, -0.5];
        let mut expect = [0.0; 2];
        let mut got = [0.0; 2];
        reference.rhs(1.2, &y, &mut expect);
        program.graph.eval_serial(1.2, &y, &mut got);
        for i in 0..2 {
            assert!((expect[i] - got[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn schedule_uses_lpt_for_independent_tasks() {
        let sys = ir(MODEL);
        let program = CodeGenerator::default().generate(&sys);
        assert!(program.graph.is_independent());
        let s = program.schedule(2);
        assert_eq!(s.loads.len(), 2);
        assert_eq!(s.loads.iter().sum::<u64>(), program.graph.total_cost());
    }

    #[test]
    fn all_option_combinations_preserve_semantics() {
        let sys = ir("model M;
            Real x(start=0.5); Real v(start=-0.2); Real f; Real g;
            equation
              der(x) = v + g;
              der(v) = f - exp(sin(x) + cos(x));
              f = -4.0*x - 0.1*v + exp(sin(x) + cos(x));
              g = 0.5*f;
            end M;");
        let reference = om_ir::IrEvaluator::new(&sys).unwrap();
        let y = [0.5, -0.2];
        let mut expect = [0.0; 2];
        reference.rhs(0.3, &y, &mut expect);

        for cse in [CseMode::Off, CseMode::PerTask, CseMode::Global] {
            for inline in [true, false] {
                for split in [None, Some(40)] {
                    for extract in [None, Some(40)] {
                        for merge in [0, 16] {
                            let generator = CodeGenerator::new(GenOptions {
                                cse,
                                inline_algebraics: inline,
                                merge_threshold: merge,
                                split_threshold: split,
                                extract_shared_min_cost: extract,
                                cost_model: CostModel::default(),
                            });
                            let program = generator.generate(&sys);
                            let mut got = [0.0; 2];
                            program.graph.eval_serial(0.3, &y, &mut got);
                            for i in 0..2 {
                                assert!(
                                    (expect[i] - got[i]).abs() < 1e-10,
                                    "cse={cse:?} inline={inline} split={split:?} \
                                     extract={extract:?} merge={merge}: \
                                     slot {i}: {} vs {}",
                                    expect[i],
                                    got[i]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn intermediate_code_is_fullform_typed() {
        let sys = ir("model M; Real x; equation der(x) = -x; end M;");
        let text = CodeGenerator::default().intermediate_code(&sys);
        assert!(
            text.contains("Derivative[1][om$Type[x, om$Real]]"),
            "{text}"
        );
        assert!(text.contains("List["));
        assert!(text.contains("om$Type[tstart, om$Real]"));
    }

    #[test]
    fn stats_report_parallel_vs_serial_difference() {
        // Heavy shared subexpression: parallel code must be bigger.
        let sys = ir("model M;
            Real x; Real y; Real z;
            equation
              der(x) = exp(sin(x)+cos(y)) + x;
              der(y) = exp(sin(x)+cos(y)) + y;
              der(z) = exp(sin(x)+cos(y)) + z;
            end M;");
        let generator = CodeGenerator::new(GenOptions {
            merge_threshold: 0,
            ..GenOptions::default()
        });
        let stats = generator.stats(&sys, 3);
        assert_eq!(stats.n_states, 3);
        assert!(stats.intermediate_lines > 4);
        assert!(
            stats.parallel_f90.total_lines > stats.serial_f90.total_lines,
            "parallel {} vs serial {}",
            stats.parallel_f90.total_lines,
            stats.serial_f90.total_lines
        );
        assert!(stats.serial_f90.cse_count >= 1);
    }
}
