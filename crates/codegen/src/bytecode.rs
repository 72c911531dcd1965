//! Register bytecode — the executable target of the code generator.
//!
//! The original system emitted Fortran 90 and let the Fortran compiler
//! produce machine code. Here, the same task bodies are compiled to a
//! simple register bytecode executed by [`crate::vm`]; the *task
//! structure, operation counts, and communication pattern* are identical,
//! which is what the scheduling experiments measure (see DESIGN.md).
//!
//! Conditionals compile to `Select` (both branches evaluated, one kept).
//! All expressions in the compilable subset are total, so this is
//! semantics-preserving; it also matches the cost model's
//! worst-case-branch accounting.

use crate::cse::CseMode;
use crate::dag::{Dag, DagNode, NodeId};
use om_expr::expr::{CmpOp, Func};
use om_expr::Symbol;
use std::collections::HashMap;

/// How a variable leaf resolves at execution time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarRef {
    /// Index into the state vector `y`.
    State(u32),
    /// Index into the shared-values array (outputs of other tasks).
    Shared(u32),
    /// The free variable `t`.
    Time,
}

/// One bytecode instruction. `dst`, `a`, `b`, `c` are register indices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// `r[dst] = consts[idx]`
    Const {
        dst: u32,
        idx: u32,
    },
    /// `r[dst] = y[idx]`
    State {
        dst: u32,
        idx: u32,
    },
    /// `r[dst] = shared[idx]`
    Shared {
        dst: u32,
        idx: u32,
    },
    /// `r[dst] = t`
    Time {
        dst: u32,
    },
    Add {
        dst: u32,
        a: u32,
        b: u32,
    },
    Mul {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `r[dst] = r[a] ^ n` by repeated multiplication (n may be negative).
    PowI {
        dst: u32,
        a: u32,
        n: i32,
    },
    /// `r[dst] = r[a] ^ r[b]` via `powf`.
    Powf {
        dst: u32,
        a: u32,
        b: u32,
    },
    Call1 {
        f: Func,
        dst: u32,
        a: u32,
    },
    Call2 {
        f: Func,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `r[dst] = r[a] <op> r[b] ? 1.0 : 0.0`
    Cmp {
        op: CmpOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Boolean ops over 0/1-normalized operands.
    BoolAnd {
        dst: u32,
        a: u32,
        b: u32,
    },
    BoolOr {
        dst: u32,
        a: u32,
        b: u32,
    },
    BoolNot {
        dst: u32,
        a: u32,
    },
    /// `r[dst] = r[c] != 0 ? r[a] : r[b]`
    Select {
        dst: u32,
        c: u32,
        a: u32,
        b: u32,
    },
}

/// A compiled straight-line program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub consts: Vec<f64>,
    pub instrs: Vec<Instr>,
    pub n_regs: u32,
    /// Registers holding the program's outputs, in root order.
    pub outputs: Vec<u32>,
}

impl Program {
    /// Rough size metric for reporting.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Index of the unique `State` load reading `slot`, if any. Leaf
    /// loads are cached per symbol by the compiler in every CSE mode, so
    /// a state slot is loaded by at most one instruction.
    pub fn find_state_load(&self, slot: u32) -> Option<usize> {
        self.instrs
            .iter()
            .position(|i| matches!(i, Instr::State { idx, .. } if *idx == slot))
    }
}

/// Bytecode compiler over a [`Dag`].
pub struct Compiler<'d> {
    dag: &'d Dag,
    vars: &'d HashMap<Symbol, VarRef>,
    program: Program,
    const_index: HashMap<u64, u32>,
    /// Register cache per node (used in sharing modes).
    reg_of: Vec<Option<u32>>,
    mode: CseMode,
}

impl<'d> Compiler<'d> {
    pub fn new(dag: &'d Dag, vars: &'d HashMap<Symbol, VarRef>, mode: CseMode) -> Compiler<'d> {
        Compiler {
            dag,
            vars,
            program: Program::default(),
            const_index: HashMap::new(),
            reg_of: vec![None; dag.len()],
            mode,
        }
    }

    fn fresh(&mut self) -> u32 {
        let r = self.program.n_regs;
        self.program.n_regs += 1;
        r
    }

    fn const_slot(&mut self, bits: u64) -> u32 {
        if let Some(&i) = self.const_index.get(&bits) {
            return i;
        }
        let i = self.program.consts.len() as u32;
        self.program.consts.push(f64::from_bits(bits));
        self.const_index.insert(bits, i);
        i
    }

    /// Compile the subtree rooted at `id`, returning the register holding
    /// its value.
    fn compile_node(&mut self, id: NodeId) -> u32 {
        // In sharing modes, reuse the register of an already-compiled
        // node. In `Off` mode only leaves are cached (reloading a leaf is
        // indistinguishable from re-reading memory, and duplicating the
        // register would not change the instruction count of interest).
        let cacheable = !matches!(self.mode, CseMode::Off)
            || matches!(self.dag.node(id), DagNode::Const(_) | DagNode::Var(_));
        if cacheable {
            if let Some(r) = self.reg_of[id.index()] {
                return r;
            }
        }
        let reg = match self.dag.node(id).clone() {
            DagNode::Const(bits) => {
                let idx = self.const_slot(bits);
                let dst = self.fresh();
                self.program.instrs.push(Instr::Const { dst, idx });
                dst
            }
            DagNode::Var(s) => {
                let dst = self.fresh();
                let vr = *self
                    .vars
                    .get(&s)
                    .unwrap_or_else(|| panic!("unresolved variable `{s}` in codegen"));
                let instr = match vr {
                    VarRef::State(i) => Instr::State { dst, idx: i },
                    VarRef::Shared(i) => Instr::Shared { dst, idx: i },
                    VarRef::Time => Instr::Time { dst },
                };
                self.program.instrs.push(instr);
                dst
            }
            DagNode::Add(kids) => self.reduce(&kids, |dst, a, b| Instr::Add { dst, a, b }),
            DagNode::Mul(kids) => self.reduce(&kids, |dst, a, b| Instr::Mul { dst, a, b }),
            DagNode::Pow(a, b) => {
                let ra = self.compile_node(a);
                // Integer exponents lower to repeated multiplication, like
                // the emitted Fortran (x*x instead of x**2.0d0).
                if let DagNode::Const(bits) = self.dag.node(b) {
                    let c = f64::from_bits(*bits);
                    if c.fract() == 0.0 && c.abs() <= 64.0 && c != 0.0 {
                        let dst = self.fresh();
                        self.program.instrs.push(Instr::PowI {
                            dst,
                            a: ra,
                            n: c as i32,
                        });
                        return self.finish(id, dst, cacheable);
                    }
                }
                let rb = self.compile_node(b);
                let dst = self.fresh();
                self.program.instrs.push(Instr::Powf { dst, a: ra, b: rb });
                dst
            }
            DagNode::Call(f, kids) => {
                let ra = self.compile_node(kids[0]);
                let dst = self.fresh();
                if kids.len() == 1 {
                    self.program.instrs.push(Instr::Call1 { f, dst, a: ra });
                } else {
                    let rb = self.compile_node(kids[1]);
                    self.program.instrs.push(Instr::Call2 {
                        f,
                        dst,
                        a: ra,
                        b: rb,
                    });
                }
                dst
            }
            DagNode::Cmp(op, a, b) => {
                let (ra, rb) = (self.compile_node(a), self.compile_node(b));
                let dst = self.fresh();
                self.program.instrs.push(Instr::Cmp {
                    op,
                    dst,
                    a: ra,
                    b: rb,
                });
                dst
            }
            DagNode::And(kids) => self.reduce(&kids, |dst, a, b| Instr::BoolAnd { dst, a, b }),
            DagNode::Or(kids) => self.reduce(&kids, |dst, a, b| Instr::BoolOr { dst, a, b }),
            DagNode::Not(a) => {
                let ra = self.compile_node(a);
                let dst = self.fresh();
                self.program.instrs.push(Instr::BoolNot { dst, a: ra });
                dst
            }
            DagNode::If(c, t, e) => {
                let rc = self.compile_node(c);
                let rt = self.compile_node(t);
                let re = self.compile_node(e);
                let dst = self.fresh();
                self.program.instrs.push(Instr::Select {
                    dst,
                    c: rc,
                    a: rt,
                    b: re,
                });
                dst
            }
        };
        self.finish(id, reg, cacheable)
    }

    fn finish(&mut self, id: NodeId, reg: u32, cacheable: bool) -> u32 {
        if cacheable {
            self.reg_of[id.index()] = Some(reg);
        }
        reg
    }

    fn reduce(&mut self, kids: &[NodeId], make: impl Fn(u32, u32, u32) -> Instr) -> u32 {
        let mut acc = self.compile_node(kids[0]);
        for &k in &kids[1..] {
            let rk = self.compile_node(k);
            let dst = self.fresh();
            self.program.instrs.push(make(dst, acc, rk));
            acc = dst;
        }
        acc
    }

    /// Compile `roots` and return the finished program.
    pub fn compile(mut self, roots: &[NodeId]) -> Program {
        for &r in roots {
            let reg = self.compile_node(r);
            self.program.outputs.push(reg);
        }
        self.program
    }
}

/// Convenience: compile a set of roots with the given variable resolution.
pub fn compile_roots(
    dag: &Dag,
    roots: &[NodeId],
    vars: &HashMap<Symbol, VarRef>,
    mode: CseMode,
) -> Program {
    Compiler::new(dag, vars, mode).compile(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::execute;
    use om_expr::{num, simplify, var};

    fn vars(pairs: &[(&str, VarRef)]) -> HashMap<Symbol, VarRef> {
        pairs.iter().map(|(n, v)| (Symbol::intern(n), *v)).collect()
    }

    fn run1(p: &Program, t: f64, y: &[f64]) -> f64 {
        let mut out = vec![0.0; p.outputs.len()];
        execute(p, t, y, &[], &mut out);
        out[0]
    }

    #[test]
    fn compiles_and_runs_arithmetic() {
        let mut dag = Dag::new();
        let e = simplify(&((var("x") + num(1.0)) * var("y")));
        let root = dag.import(&e);
        let v = vars(&[("x", VarRef::State(0)), ("y", VarRef::State(1))]);
        let p = compile_roots(&dag, &[root], &v, CseMode::PerTask);
        assert_eq!(run1(&p, 0.0, &[2.0, 4.0]), 12.0);
    }

    #[test]
    fn integer_powers_lower_to_powi() {
        let mut dag = Dag::new();
        let root = dag.import(&simplify(&var("x").powi(3)));
        let v = vars(&[("x", VarRef::State(0))]);
        let p = compile_roots(&dag, &[root], &v, CseMode::PerTask);
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::PowI { n: 3, .. })));
        assert_eq!(run1(&p, 0.0, &[2.0]), 8.0);
        // Negative exponent.
        let mut dag = Dag::new();
        let root = dag.import(&simplify(&var("x").powi(-2)));
        let p = compile_roots(&dag, &[root], &v, CseMode::PerTask);
        assert_eq!(run1(&p, 0.0, &[2.0]), 0.25);
    }

    #[test]
    fn sharing_mode_compiles_shared_nodes_once() {
        let mut dag = Dag::new();
        let s = om_expr::expr::Expr::call1(Func::Sin, var("x"));
        let r1 = dag.import(&simplify(&(s.clone() + num(1.0))));
        let r2 = dag.import(&simplify(&(s.clone() + num(2.0))));
        let v = vars(&[("x", VarRef::State(0))]);
        let shared = compile_roots(&dag, &[r1, r2], &v, CseMode::PerTask);
        let unshared = compile_roots(&dag, &[r1, r2], &v, CseMode::Off);
        let count = |p: &Program| {
            p.instrs
                .iter()
                .filter(|i| matches!(i, Instr::Call1 { f: Func::Sin, .. }))
                .count()
        };
        assert_eq!(count(&shared), 1);
        assert_eq!(count(&unshared), 2);
        // Same results either way.
        let mut o1 = vec![0.0; 2];
        let mut o2 = vec![0.0; 2];
        execute(&shared, 0.0, &[0.5], &[], &mut o1);
        execute(&unshared, 0.0, &[0.5], &[], &mut o2);
        assert_eq!(o1, o2);
    }

    #[test]
    fn conditionals_select() {
        let mut dag = Dag::new();
        let e = om_expr::expr::Expr::ite(
            om_expr::expr::Expr::cmp(CmpOp::Gt, var("x"), num(0.0)),
            var("x") * num(2.0),
            var("x") * num(-3.0),
        );
        let root = dag.import(&simplify(&e));
        let v = vars(&[("x", VarRef::State(0))]);
        let p = compile_roots(&dag, &[root], &v, CseMode::PerTask);
        assert_eq!(run1(&p, 0.0, &[5.0]), 10.0);
        assert_eq!(run1(&p, 0.0, &[-1.0]), 3.0);
    }

    #[test]
    fn time_and_shared_inputs() {
        let mut dag = Dag::new();
        let e = simplify(&(var("t_builtin") + var("g")));
        let root = dag.import(&e);
        let v = vars(&[("t_builtin", VarRef::Time), ("g", VarRef::Shared(0))]);
        let p = compile_roots(&dag, &[root], &v, CseMode::PerTask);
        let mut out = vec![0.0];
        execute(&p, 2.5, &[], &[10.0], &mut out);
        assert_eq!(out[0], 12.5);
    }

    #[test]
    fn constants_are_pooled() {
        let mut dag = Dag::new();
        let e = simplify(&(var("x") * num(2.0) + var("y") * num(2.0) + num(2.0)));
        let root = dag.import(&e);
        let v = vars(&[("x", VarRef::State(0)), ("y", VarRef::State(1))]);
        let p = compile_roots(&dag, &[root], &v, CseMode::PerTask);
        assert_eq!(p.consts.iter().filter(|&&c| c == 2.0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "unresolved variable")]
    fn unresolved_variable_panics() {
        let mut dag = Dag::new();
        let root = dag.import(&var("ghost"));
        let v = vars(&[]);
        compile_roots(&dag, &[root], &v, CseMode::PerTask);
    }
}
