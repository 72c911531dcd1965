//! C++ emitter.
//!
//! The ObjectMath generator could also produce C++ (paper Figure 8); this
//! emitter renders the same task bodies as `emit_fortran` into a
//! `void rhs(int worker_id, const double* yin, double* yout)` function
//! with a `switch` over workers.

use crate::emit_fortran::{mangle, render_task, serial_task, target_name, Lang, SourceStats};
use crate::task::{OutTarget, SymbolicTask};
use om_expr::CostModel;
use om_ir::OdeIr;
use std::fmt::Write as _;

fn finish_stats(text: String, cse_count: usize) -> SourceStats {
    let total_lines = text.lines().count();
    let decl_lines = text
        .lines()
        .filter(|l| l.trim_start().starts_with("double "))
        .count();
    SourceStats {
        text,
        total_lines,
        decl_lines,
        cse_count,
    }
}

/// Emit the parallel SPMD RHS as C++.
pub fn emit_parallel(
    tasks: &[SymbolicTask],
    assignment: &[usize],
    m: usize,
    ir: &OdeIr,
    model: &CostModel,
) -> SourceStats {
    assert_eq!(tasks.len(), assignment.len());
    let _span = om_obs::span("codegen.emit", "compile");
    let state_index = ir.state_index();
    let mut out = String::new();
    let _ = writeln!(out, "#include <cmath>");
    let _ = writeln!(out, "namespace om {{ inline double sign(double x) {{ return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }} }}");
    let _ = writeln!(
        out,
        "void rhs(int worker_id, const double* yin, double* yout) {{"
    );
    let _ = writeln!(out, "  switch (worker_id) {{");

    let mut cse_total = 0usize;
    let mut per_worker: Vec<Vec<String>> = vec![Vec::new(); m];
    for (t_idx, (task, &w)) in tasks.iter().zip(assignment).enumerate() {
        let rendered = render_task(task, model, Lang::Cpp, &format!("t{t_idx}_"));
        cse_total += rendered.cse_count;
        let mut body = String::new();
        for s in &rendered.read_states {
            if let Some(i) = state_index.get(s) {
                let _ = writeln!(body, "      double {} = yin[{i}];", mangle(*s));
            }
        }
        for (name, def) in &rendered.temps {
            let _ = writeln!(body, "      double {name} = {def};");
        }
        for (target, expr) in &rendered.outputs {
            let name = target_name(target, ir);
            let _ = writeln!(body, "      double {name} = {expr};");
            if let OutTarget::Deriv(i) = target {
                let _ = writeln!(body, "      yout[{i}] = {name};");
            }
        }
        per_worker[w].push(body);
    }
    for (w, bodies) in per_worker.iter().enumerate() {
        let _ = writeln!(out, "    case {w}: {{");
        for b in bodies {
            out.push_str(b);
        }
        let _ = writeln!(out, "      break;");
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    finish_stats(out, cse_total)
}

/// Emit the serial RHS as C++ with global CSE.
pub fn emit_serial(ir: &OdeIr, model: &CostModel) -> SourceStats {
    let _span = om_obs::span("codegen.emit", "compile");
    let rendered = render_task(&serial_task(ir), model, Lang::Cpp, "t");
    let state_index = ir.state_index();
    let mut out = String::new();
    let _ = writeln!(out, "#include <cmath>");
    let _ = writeln!(out, "namespace om {{ inline double sign(double x) {{ return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); }} }}");
    let _ = writeln!(out, "void rhs(const double* yin, double* yout) {{");
    for s in &rendered.read_states {
        if let Some(i) = state_index.get(s) {
            let _ = writeln!(out, "  double {} = yin[{i}];", mangle(*s));
        }
    }
    for (name, def) in &rendered.temps {
        let _ = writeln!(out, "  double {name} = {def};");
    }
    for (target, expr) in &rendered.outputs {
        let name = target_name(target, ir);
        let _ = writeln!(out, "  double {name} = {expr};");
        if let OutTarget::Deriv(i) = target {
            let _ = writeln!(out, "  yout[{i}] = {name};");
        }
    }
    let _ = writeln!(out, "}}");
    finish_stats(out, rendered.cse_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::equation_tasks;
    use om_ir::causalize;

    fn oscillator() -> OdeIr {
        causalize(
            &om_lang::compile(
                "model Osc; Real x(start=1.0); Real y;
                 equation der(x) = y; der(y) = -x; end Osc;",
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn emits_switch_over_workers() {
        let ir = oscillator();
        let model = CostModel::default();
        let tasks = equation_tasks(&ir, true);
        let src = emit_parallel(&tasks, &[0, 1], 2, &ir, &model);
        assert!(src.text.contains("void rhs(int worker_id"), "{}", src.text);
        assert!(src.text.contains("switch (worker_id)"));
        assert!(src.text.contains("case 0:"));
        assert!(src.text.contains("case 1:"));
        assert!(src.text.contains("yout[0] = xdot;"));
        assert!(src.text.contains("yout[1] = ydot;"));
    }

    #[test]
    fn serial_version_has_no_switch() {
        let ir = oscillator();
        let src = emit_serial(&ir, &CostModel::default());
        assert!(!src.text.contains("switch"));
        assert!(src.text.contains("yout[0] = xdot;"));
        assert!(src.decl_lines >= 4, "{}", src.text);
    }

    #[test]
    fn functions_use_std_namespace() {
        let ir = causalize(
            &om_lang::compile("model M; Real x; equation der(x) = sin(x) + x^2.5; end M;").unwrap(),
        )
        .unwrap();
        let src = emit_serial(&ir, &CostModel::default());
        assert!(src.text.contains("std::sin("), "{}", src.text);
        assert!(src.text.contains("std::pow("), "{}", src.text);
    }

    #[test]
    fn conditionals_render_as_ternaries() {
        let ir = causalize(
            &om_lang::compile(
                "model M; Real x;
                 equation der(x) = if x > 0.0 then x*x else 0.0; end M;",
            )
            .unwrap(),
        )
        .unwrap();
        let src = emit_serial(&ir, &CostModel::default());
        assert!(src.text.contains('?'), "{}", src.text);
    }
}
