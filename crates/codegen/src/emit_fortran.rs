//! Fortran 90 emitter.
//!
//! Reproduces the shape of the generated SPMD code in paper Figure 11:
//!
//! ```text
//! subroutine RHS(workerid, yin, yout)
//!   integer workerid
//!   real(double) yin(2), yout(2)
//!   ...
//!   select case (workerid)
//!   case (1)
//!     y = yin(2); xdot = y; yout(1) = xdot
//!   ...
//! ```
//!
//! Two entry points mirror §3.3's comparison: [`emit_parallel`] (per-task
//! CSE — "no subexpressions are shared between the tasks") and
//! [`emit_serial`] (global CSE over all right-hand sides). The returned
//! [`SourceStats`] feed the code-statistics experiment (E5).

use crate::cse::{self, CseProgram};
use crate::dag::{Dag, DagNode, NodeId};
use crate::task::{OutTarget, SymbolicTask};
use om_expr::expr::{CmpOp, Func};
use om_expr::{CostModel, Symbol};
use om_ir::OdeIr;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Emitted source text plus the metrics the paper reports.
#[derive(Clone, Debug)]
pub struct SourceStats {
    pub text: String,
    /// Total line count of the unit.
    pub total_lines: usize,
    /// Lines that are variable declarations (the paper: "4 709 lines are
    /// variable declarations").
    pub decl_lines: usize,
    /// Number of extracted common subexpressions.
    pub cse_count: usize,
}

/// Target language of the shared renderer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lang {
    F90,
    Cpp,
}

/// Make a symbol printable as a Fortran/C identifier.
pub fn mangle(sym: Symbol) -> String {
    let mut out = String::with_capacity(sym.name().len());
    for ch in sym.name().chars() {
        match ch {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' => out.push(ch),
            '[' | ']' | '.' | '$' => out.push('_'),
            _ => out.push('_'),
        }
    }
    if out.starts_with(|c: char| c.is_ascii_digit()) {
        out.insert(0, 'v');
    }
    out
}

pub(crate) fn fmt_const(v: f64, lang: Lang) -> String {
    let body = if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    };
    match lang {
        Lang::F90 => body.replace(['e', 'E'], "d") + if body.contains('d') { "" } else { "d0" },
        Lang::Cpp => body,
    }
}

/// Render a DAG node to source, substituting temporary names for CSE'd
/// children.
pub(crate) struct Renderer<'a> {
    pub dag: &'a Dag,
    pub temp_names: HashMap<NodeId, String>,
    pub lang: Lang,
}

impl Renderer<'_> {
    pub fn expr(&self, id: NodeId) -> String {
        self.render(id, 0, true)
    }

    /// Render ignoring a temp name at the root (used when *defining* the
    /// temp itself).
    pub fn expr_definition(&self, id: NodeId) -> String {
        self.render(id, 0, false)
    }

    fn render(&self, id: NodeId, parent_prec: u8, use_temp: bool) -> String {
        if use_temp {
            if let Some(name) = self.temp_names.get(&id) {
                return name.clone();
            }
        }
        let (text, prec) = self.render_raw(id);
        if prec < parent_prec {
            format!("({text})")
        } else {
            text
        }
    }

    fn render_raw(&self, id: NodeId) -> (String, u8) {
        const ADD: u8 = 1;
        const MUL: u8 = 2;
        const POW: u8 = 3;
        const ATOM: u8 = 4;
        match self.dag.node(id) {
            DagNode::Const(bits) => {
                let v = f64::from_bits(*bits);
                let s = fmt_const(v, self.lang);
                if v < 0.0 {
                    (s, ADD)
                } else {
                    (s, ATOM)
                }
            }
            DagNode::Var(s) => (mangle(*s), ATOM),
            DagNode::Add(kids) => {
                let mut out = String::new();
                for (i, &k) in kids.iter().enumerate() {
                    let piece = self.render(k, ADD, true);
                    if i > 0 {
                        if let Some(stripped) = piece.strip_prefix('-') {
                            let _ = write!(out, " - {stripped}");
                            continue;
                        }
                        out.push_str(" + ");
                    }
                    out.push_str(&piece);
                }
                (out, ADD)
            }
            DagNode::Mul(kids) => {
                // A leading negative constant renders as a prefix minus:
                // `-x`, `-2.0d0*x` — matching hand-written code.
                let mut out = String::new();
                let mut rest = &kids[..];
                if let DagNode::Const(bits) = self.dag.node(kids[0]) {
                    let c = f64::from_bits(*bits);
                    if c < 0.0 && kids.len() > 1 && !self.temp_names.contains_key(&kids[0]) {
                        out.push('-');
                        if c != -1.0 {
                            out.push_str(&fmt_const(-c, self.lang));
                            out.push('*');
                        }
                        rest = &kids[1..];
                    }
                }
                for (i, &k) in rest.iter().enumerate() {
                    if i > 0 {
                        out.push('*');
                    }
                    out.push_str(&self.render(k, MUL + 1, true));
                }
                let prec = if out.starts_with('-') { ADD } else { MUL };
                (out, prec)
            }
            DagNode::Pow(a, b) => {
                let base = self.render(*a, ATOM, true);
                // Small integer powers render as repeated multiplication
                // (both targets), like the real generator.
                if let DagNode::Const(bits) = self.dag.node(*b) {
                    let c = f64::from_bits(*bits);
                    if c.fract() == 0.0 && (2.0..=4.0).contains(&c.abs()) {
                        let reps = vec![base.clone(); c.abs() as usize].join("*");
                        if c < 0.0 {
                            return (format!("{}/({reps})", fmt_const(1.0, self.lang)), MUL);
                        }
                        return (reps, MUL);
                    }
                    if c == -1.0 {
                        return (format!("{}/{base}", fmt_const(1.0, self.lang)), MUL);
                    }
                    if c == 0.5 {
                        let f = if self.lang == Lang::F90 {
                            "sqrt"
                        } else {
                            "std::sqrt"
                        };
                        return (format!("{f}({})", self.render(*a, 0, true)), ATOM);
                    }
                }
                let exp = self.render(*b, POW, true);
                match self.lang {
                    Lang::F90 => (format!("{base}**{exp}"), POW),
                    Lang::Cpp => (
                        format!(
                            "std::pow({}, {})",
                            self.render(*a, 0, true),
                            self.render(*b, 0, true)
                        ),
                        ATOM,
                    ),
                }
            }
            DagNode::Call(f, kids) => {
                let name = match (self.lang, f) {
                    (Lang::F90, Func::Ln) => "log".to_owned(),
                    (Lang::F90, _) => f.name().to_owned(),
                    (Lang::Cpp, Func::Sign) => "om::sign".to_owned(),
                    (Lang::Cpp, Func::Min) => "std::fmin".to_owned(),
                    (Lang::Cpp, Func::Max) => "std::fmax".to_owned(),
                    (Lang::Cpp, _) => format!("std::{}", f.name()),
                };
                let args: Vec<String> = kids.iter().map(|&k| self.render(k, 0, true)).collect();
                (format!("{name}({})", args.join(", ")), ATOM)
            }
            DagNode::Cmp(op, a, b) => {
                let (l, r) = (self.render(*a, ADD, true), self.render(*b, ADD, true));
                let o = match (self.lang, op) {
                    (Lang::F90, CmpOp::Ne) => "/=".to_owned(),
                    (Lang::F90, CmpOp::EqCmp) => "==".to_owned(),
                    (_, op) => op.name().to_owned(),
                };
                (format!("({l} {o} {r})"), ATOM)
            }
            DagNode::And(kids) => (self.join_bool(kids, " .and. ", " && "), ATOM),
            DagNode::Or(kids) => (self.join_bool(kids, " .or. ", " || "), ATOM),
            DagNode::Not(a) => {
                let inner = self.render(*a, ATOM, true);
                match self.lang {
                    Lang::F90 => (format!("(.not. {inner})"), ATOM),
                    Lang::Cpp => (format!("(!{inner})"), ATOM),
                }
            }
            DagNode::If(c, t, e) => {
                let cc = self.render(*c, 0, true);
                let tt = self.render(*t, 0, true);
                let ee = self.render(*e, 0, true);
                match self.lang {
                    Lang::F90 => (format!("merge({tt}, {ee}, {cc})"), ATOM),
                    Lang::Cpp => (format!("({cc} ? {tt} : {ee})"), ATOM),
                }
            }
        }
    }

    fn join_bool(&self, kids: &[NodeId], f90: &str, cpp: &str) -> String {
        let sep = if self.lang == Lang::F90 { f90 } else { cpp };
        let parts: Vec<String> = kids.iter().map(|&k| self.render(k, 0, true)).collect();
        format!("({})", parts.join(sep))
    }
}

/// Build the per-task rendering pieces: CSE temp assignments plus output
/// assignments.
pub(crate) struct RenderedTask {
    /// `(name, definition)` pairs in evaluation order.
    pub temps: Vec<(String, String)>,
    /// `(target name, expression)` assignments.
    pub outputs: Vec<(OutTarget, String)>,
    /// Mangled names of state variables this task reads.
    pub read_states: Vec<Symbol>,
    pub cse_count: usize,
}

pub(crate) fn render_task(
    task: &SymbolicTask,
    model: &CostModel,
    lang: Lang,
    temp_prefix: &str,
) -> RenderedTask {
    let (dag, roots) = task.dag();
    let cse: CseProgram = cse::eliminate(&dag, &roots, model);
    let temp_names: HashMap<NodeId, String> = cse
        .temps
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, format!("{temp_prefix}{i}")))
        .collect();
    let renderer = Renderer {
        dag: &dag,
        temp_names,
        lang,
    };
    let temps: Vec<(String, String)> = cse
        .temps
        .iter()
        .map(|&id| {
            (
                renderer.temp_names[&id].clone(),
                renderer.expr_definition(id),
            )
        })
        .collect();
    let outputs: Vec<(OutTarget, String)> = task
        .outputs
        .iter()
        .zip(&roots)
        .map(|((target, _), &root)| (target.clone(), renderer.expr(root)))
        .collect();
    let read_states = dag.free_vars(&roots);
    RenderedTask {
        temps,
        outputs,
        read_states,
        cse_count: cse.cse_count(),
    }
}

fn finish_stats(text: String, cse_count: usize) -> SourceStats {
    let total_lines = text.lines().count();
    let decl_lines = text
        .lines()
        .filter(|l| {
            let t = l.trim_start();
            t.starts_with("real(double)") || t.starts_with("integer")
        })
        .count();
    SourceStats {
        text,
        total_lines,
        decl_lines,
        cse_count,
    }
}

/// Emit the parallel `RHS(workerid, yin, yout)` subroutine: one `case`
/// per worker, per-task CSE.
pub fn emit_parallel(
    tasks: &[SymbolicTask],
    assignment: &[usize],
    m: usize,
    ir: &OdeIr,
    model: &CostModel,
) -> SourceStats {
    assert_eq!(tasks.len(), assignment.len());
    let _span = om_obs::span("codegen.emit", "compile");
    let dim = ir.dim();
    let state_index = ir.state_index();
    let mut out = String::new();
    let _ = writeln!(out, "subroutine RHS(workerid, yin, yout)");
    let _ = writeln!(out, "  integer workerid");
    let _ = writeln!(out, "  real(double) yin({dim}), yout({dim})");

    // Render everything first so declarations can be collected.
    let mut per_worker: Vec<Vec<RenderedTask>> = (0..m).map(|_| Vec::new()).collect();
    let mut cse_total = 0usize;
    for (temp_counter, (task, &w)) in tasks.iter().zip(assignment).enumerate() {
        let rendered = render_task(task, model, Lang::F90, &format!("t{temp_counter}_"));
        cse_total += rendered.cse_count;
        per_worker[w].push(rendered);
    }

    // Declarations: all state copies, derivative temporaries, shared
    // values, and CSE temps.
    let mut declared: Vec<String> = Vec::new();
    for worker in &per_worker {
        for t in worker {
            for s in &t.read_states {
                if state_index.contains_key(s) {
                    declared.push(mangle(*s));
                }
            }
            for (name, _) in &t.temps {
                declared.push(name.clone());
            }
            for (target, _) in &t.outputs {
                declared.push(target_name(target, ir));
            }
        }
    }
    declared.sort();
    declared.dedup();
    for name in &declared {
        let _ = writeln!(out, "  real(double) {name}");
    }

    let _ = writeln!(out, "  select case (workerid)");
    for (w, worker_tasks) in per_worker.iter().enumerate() {
        let _ = writeln!(out, "  case ({})", w + 1);
        for t in worker_tasks {
            for s in &t.read_states {
                if let Some(i) = state_index.get(s) {
                    let _ = writeln!(out, "    {} = yin({})", mangle(*s), i + 1);
                }
            }
            for (name, def) in &t.temps {
                let _ = writeln!(out, "    {name} = {def}");
            }
            for (target, expr) in &t.outputs {
                let name = target_name(target, ir);
                let _ = writeln!(out, "    {name} = {expr}");
                if let OutTarget::Deriv(i) = target {
                    let _ = writeln!(out, "    yout({}) = {name}", i + 1);
                }
            }
        }
    }
    let _ = writeln!(out, "  end select");
    let _ = writeln!(out, "end subroutine");
    finish_stats(out, cse_total)
}

/// Emit the serial RHS: a single body with *global* CSE over every
/// right-hand side together ("allowing the CSE-eliminator to optimize all
/// equation right-hand sides together", §3.3).
pub fn emit_serial(ir: &OdeIr, model: &CostModel) -> SourceStats {
    let _span = om_obs::span("codegen.emit", "compile");
    let dim = ir.dim();
    let rendered = render_task(&serial_task(ir), model, Lang::F90, "t");
    let state_index = ir.state_index();

    let mut out = String::new();
    let _ = writeln!(out, "subroutine RHS(yin, yout)");
    let _ = writeln!(out, "  real(double) yin({dim}), yout({dim})");
    let mut declared: Vec<String> = rendered
        .read_states
        .iter()
        .filter(|s| state_index.contains_key(s))
        .map(|s| mangle(*s))
        .chain(rendered.temps.iter().map(|(n, _)| n.clone()))
        .chain(rendered.outputs.iter().map(|(t, _)| target_name(t, ir)))
        .collect();
    declared.sort();
    declared.dedup();
    for name in &declared {
        let _ = writeln!(out, "  real(double) {name}");
    }
    for s in &rendered.read_states {
        if let Some(i) = state_index.get(s) {
            let _ = writeln!(out, "  {} = yin({})", mangle(*s), i + 1);
        }
    }
    for (name, def) in &rendered.temps {
        let _ = writeln!(out, "  {name} = {def}");
    }
    for (target, expr) in &rendered.outputs {
        let name = target_name(target, ir);
        let _ = writeln!(out, "  {name} = {expr}");
        if let OutTarget::Deriv(i) = target {
            let _ = writeln!(out, "  yout({}) = {name}", i + 1);
        }
    }
    let _ = writeln!(out, "end subroutine");
    finish_stats(out, rendered.cse_count)
}

/// One synthetic task holding all inlined right-hand sides: CSE over it
/// is global CSE.
pub(crate) fn serial_task(ir: &OdeIr) -> SymbolicTask {
    let outputs = ir
        .inlined_rhs()
        .into_iter()
        .enumerate()
        .map(|(i, e)| (OutTarget::Deriv(i), e))
        .collect();
    SymbolicTask {
        label: "serial".to_owned(),
        outputs,
        array_loop: None,
    }
}

pub(crate) fn target_name(target: &OutTarget, ir: &OdeIr) -> String {
    match target {
        OutTarget::Deriv(i) => format!("{}dot", mangle(ir.states[*i].sym)),
        OutTarget::Shared(s) => mangle(*s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::lpt;
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
    fn figure_11_shape() {
        let ir = oscillator();
        let model = CostModel::default();
        let tasks = equation_tasks(&ir, true);
        let costs: Vec<u64> = tasks.iter().map(|t| t.cost(&model)).collect();
        let sched = lpt(&costs, 2);
        let src = emit_parallel(&tasks, &sched.assignment, 2, &ir, &model);
        let text = &src.text;
        assert!(
            text.contains("subroutine RHS(workerid, yin, yout)"),
            "{text}"
        );
        assert!(text.contains("integer workerid"));
        assert!(text.contains("real(double) yin(2), yout(2)"));
        assert!(text.contains("select case (workerid)"));
        assert!(text.contains("case (1)"));
        assert!(text.contains("case (2)"));
        assert!(text.contains("xdot"), "{text}");
        assert!(text.contains("ydot"), "{text}");
        assert!(text.contains("yout(1) = xdot"));
        assert!(text.contains("yout(2) = ydot"));
        assert!(text.contains("end subroutine"));
    }

    #[test]
    fn negated_state_renders_as_minus() {
        let ir = oscillator();
        let model = CostModel::default();
        let tasks = equation_tasks(&ir, true);
        let src = emit_parallel(&tasks, &[0, 1], 2, &ir, &model);
        assert!(
            src.text.contains("ydot = -x") || src.text.contains("ydot = -1.0d0*x"),
            "{}",
            src.text
        );
    }

    #[test]
    fn stats_count_declarations() {
        let ir = oscillator();
        let model = CostModel::default();
        let tasks = equation_tasks(&ir, true);
        let src = emit_parallel(&tasks, &[0, 1], 2, &ir, &model);
        assert!(src.decl_lines >= 4, "{}", src.text); // x, y, xdot, ydot + headers
        assert_eq!(src.total_lines, src.text.lines().count());
    }

    #[test]
    fn serial_emitter_uses_global_cse() {
        // Shared expensive subexpression across two equations: global CSE
        // extracts it once, per-task CSE cannot.
        let ir = causalize(
            &om_lang::compile(
                "model M; Real x; Real y;
                 equation
                   der(x) = exp(sin(x) + cos(x)) * 2.0;
                   der(y) = exp(sin(x) + cos(x)) * 3.0;
                 end M;",
            )
            .unwrap(),
        )
        .unwrap();
        let model = CostModel::default();
        let serial = emit_serial(&ir, &model);
        let tasks = equation_tasks(&ir, true);
        let parallel = emit_parallel(&tasks, &[0, 1], 2, &ir, &model);
        assert!(serial.cse_count >= 1, "{}", serial.text);
        assert_eq!(parallel.cse_count, 0, "{}", parallel.text);
        // The duplicated exp(...) makes the parallel text longer per
        // equation.
        assert_eq!(parallel.text.matches("exp(").count(), 2);
        assert_eq!(serial.text.matches("exp(").count(), 1);
    }

    #[test]
    fn mangle_qualified_names() {
        assert_eq!(mangle(Symbol::intern("w[3].x")), "w_3__x");
        assert_eq!(mangle(Symbol::intern("om$cse$0")), "om_cse_0");
        assert_eq!(mangle(Symbol::intern("x")), "x");
    }

    #[test]
    fn constants_use_d_exponents() {
        assert_eq!(fmt_const(1.0, Lang::F90), "1.0d0");
        assert_eq!(fmt_const(2.5e-3, Lang::F90), "0.0025d0");
        assert_eq!(fmt_const(1.0, Lang::Cpp), "1.0");
    }
}
