//! Jacobian structure and symbolic Jacobian generation.
//!
//! Two products of the same analysis. [`jacobian_pattern`] says *which*
//! `∂f_i/∂y_j` can be non-zero — cheap (no expression is built), asked
//! for by every implicit solve, and the reason a tridiagonal model pays
//! 3 RHS calls and an O(n) factorization per Jacobian refresh instead of
//! n and O(n³). [`symbolic_jacobian`] says what those entries *are*.
//!
//! The paper (§3.2.1): "There is also a possibility for the user to
//! provide the solver with an extra function that computes the Jacobian,
//! instead of having the solver doing it internally (which is usually very
//! expensive). If the user can provide this function the computation time
//! might be reduced drastically." Here the code generator derives that
//! function automatically by symbolic differentiation of the inlined
//! right-hand sides.

use crate::system::{AlgebraicEq, DerivEq, OdeIr, StateVar};
use om_expr::{diff, EvalError, Expr, Symbol, SymbolMap};

/// The structural pattern of the Jacobian: which `∂f_i/∂y_j` can be
/// non-zero. This is the one place the pattern is derived; the solver's
/// column colouring and LU bandwidths, `omc analyze` and
/// [`symbolic_jacobian`] all start from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JacobianPattern {
    /// `rows[i]` holds, ascending, the index `j` of every state the
    /// right-hand side of `der(states[i])` reads.
    pub rows: Vec<Vec<usize>>,
}

impl JacobianPattern {
    /// Number of structurally non-zero entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Whether entry `(i, j)` is in the pattern.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.rows[i].binary_search(&j).is_ok()
    }
}

/// Derive the structural pattern of `∂f/∂y` symbolically, without
/// building or differentiating a single inlined expression.
///
/// Row `i` is the set of states among the free variables of `f_i` with
/// every algebraic variable inlined: an algebraic contributes the states
/// *it* reads, transitively (one pass, since algebraics are topologically
/// ordered). That is a superset of what survives `simplify` in
/// [`OdeIr::inlined_rhs`] and covers every state the generated code can
/// read — the property grouped finite differencing relies on.
///
/// An array class contributes its rows straight from its access
/// footprint: the free variables of the one representative right-hand
/// side, renamed per iteration through [`om_lang::EqClass::rows`] — the
/// table the loop tasks' affine read patterns are recognised from. Class
/// members are pure renamings of the representative, so the footprint is
/// exact and equals what the scalarized model yields, in O(classes ·
/// reads) rather than one expanded expression per element.
pub fn jacobian_pattern(ir: &OdeIr) -> JacobianPattern {
    let index = ir.state_index();
    let mut algebraic: SymbolMap<Vec<usize>> = SymbolMap::default();
    for alg in &ir.algebraics {
        let reads = state_reads(alg.rhs.free_vars(), &index, &algebraic);
        algebraic.insert(alg.var, reads);
    }
    let mut rows = vec![Vec::new(); ir.dim()];
    for d in &ir.derivs {
        if let Some(&i) = index.get(&d.state) {
            rows[i] = state_reads(d.rhs.free_vars(), &index, &algebraic);
        }
    }
    for class in &ir.classes {
        let vars = class.rhs.free_vars();
        let members: SymbolMap<&[Symbol]> = class
            .rows
            .iter()
            .map(|(representative, elems)| (*representative, elems.as_slice()))
            .collect();
        for (k, state) in class.states.iter().enumerate() {
            let renamed = vars
                .iter()
                .map(|v| members.get(v).map_or(*v, |elems| elems[k]));
            if let Some(&i) = index.get(state) {
                rows[i] = state_reads(renamed, &index, &algebraic);
            }
        }
    }
    JacobianPattern { rows }
}

/// The sorted state indices behind a set of free variables: a state is
/// itself, an algebraic is the states it (transitively) reads, anything
/// else is `time`.
fn state_reads(
    vars: impl IntoIterator<Item = Symbol>,
    index: &SymbolMap<usize>,
    algebraic: &SymbolMap<Vec<usize>>,
) -> Vec<usize> {
    let mut out = Vec::new();
    for v in vars {
        if let Some(&j) = index.get(&v) {
            out.push(j);
        } else if let Some(reads) = algebraic.get(&v) {
            out.extend_from_slice(reads);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The dense symbolic Jacobian `J[i][j] = ∂f_i/∂y_j` of an ODE system.
pub struct SymbolicJacobian {
    /// Row-major entries, `dim × dim`.
    pub entries: Vec<Vec<Expr>>,
    /// Number of structurally nonzero entries (not identically zero).
    pub nnz: usize,
}

/// Differentiate the inlined right-hand sides of `ir` with respect to
/// the states in each row's [`jacobian_pattern`] — nnz differentiations,
/// not `dim²`; every other entry is the constant 0 it would have come
/// out as.
pub fn symbolic_jacobian(ir: &OdeIr) -> SymbolicJacobian {
    let pattern = jacobian_pattern(ir);
    let rhs = ir.inlined_rhs();
    let mut entries = Vec::with_capacity(ir.dim());
    let mut nnz = 0;
    for (f, cols) in rhs.iter().zip(&pattern.rows) {
        let mut row = vec![om_expr::num(0.0); ir.dim()];
        for &j in cols {
            let d = diff(f, ir.states[j].sym);
            if !d.is_const(0.0) {
                nnz += 1;
            }
            row[j] = d;
        }
        entries.push(row);
    }
    SymbolicJacobian { entries, nnz }
}

impl SymbolicJacobian {
    /// Build a numeric evaluator `(t, y, &mut J_flat)` for this Jacobian
    /// (row-major `dim*dim` output), reusing the IR evaluator machinery by
    /// wrapping the entries in a synthetic system.
    pub fn evaluator(&self, ir: &OdeIr) -> Result<JacobianEvaluator, EvalError> {
        // Synthetic OdeIr whose "derivatives" are the Jacobian entries.
        let dim = ir.dim();
        let mut derivs = Vec::with_capacity(dim * dim);
        for (i, row) in self.entries.iter().enumerate() {
            for (j, e) in row.iter().enumerate() {
                derivs.push(DerivEq {
                    state: om_expr::Symbol::intern(&format!("om$jac${i}_{j}")),
                    rhs: e.clone(),
                    origin: String::new(),
                    pos: om_lang::SourcePos::default(),
                });
            }
        }
        let states: Vec<StateVar> = ir.states.clone();
        let synthetic = OdeIr {
            name: format!("{}$jacobian", ir.name),
            states,
            derivs,
            algebraics: Vec::<AlgebraicEq>::new(),
            classes: Vec::new(),
        };
        // IrEvaluator requires parallel states/derivs only for indexing
        // of *inputs*; outputs are positional. Build a raw evaluator that
        // maps states to slots and evaluates all dim² expressions.
        let inner = IrEvaluatorRaw::new(&synthetic)?;
        Ok(JacobianEvaluator { inner, dim })
    }
}

/// Numeric Jacobian evaluator produced by [`SymbolicJacobian::evaluator`].
pub struct JacobianEvaluator {
    inner: IrEvaluatorRaw,
    dim: usize,
}

impl JacobianEvaluator {
    /// Evaluate into a row-major `dim × dim` buffer.
    pub fn eval(&self, t: f64, y: &[f64], jac: &mut [f64]) {
        assert_eq!(jac.len(), self.dim * self.dim);
        self.inner.eval_all(t, y, jac);
    }

    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// Minimal expression-list evaluator sharing `IrEvaluator`'s slot scheme
/// but without the states/derivs parallelism requirement.
struct IrEvaluatorRaw {
    exprs: Vec<Expr>,
    slots: std::collections::HashMap<om_expr::Symbol, usize>,
}

impl IrEvaluatorRaw {
    fn new(ir: &OdeIr) -> Result<IrEvaluatorRaw, EvalError> {
        let slots: std::collections::HashMap<om_expr::Symbol, usize> = ir
            .states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.sym, i))
            .collect();
        // Validate all symbols now so eval can't fail later.
        for d in &ir.derivs {
            for v in d.rhs.free_vars() {
                if !slots.contains_key(&v) && v != om_lang::flatten::time_symbol() {
                    return Err(EvalError::UnboundVariable(v));
                }
            }
        }
        Ok(IrEvaluatorRaw {
            exprs: ir.derivs.iter().map(|d| d.rhs.clone()).collect(),
            slots,
        })
    }

    fn eval_all(&self, t: f64, y: &[f64], out: &mut [f64]) {
        let time = om_lang::flatten::time_symbol();
        let env = |s: om_expr::Symbol| -> Option<f64> {
            if s == time {
                return Some(t);
            }
            self.slots.get(&s).map(|&i| y[i])
        };
        for (i, e) in self.exprs.iter().enumerate() {
            out[i] = om_expr::eval(e, &env).expect("validated at build time");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causalize::causalize;
    use crate::evalr::IrEvaluator;

    fn ir(src: &str) -> OdeIr {
        causalize(&om_lang::compile(src).unwrap()).unwrap()
    }

    #[test]
    fn linear_system_jacobian_is_constant() {
        let sys = ir("model M; Real x; Real y;
                      equation der(x) = y; der(y) = -4.0*x - 0.5*y; end M;");
        let jac = symbolic_jacobian(&sys);
        assert_eq!(jac.nnz, 3);
        assert_eq!(jac.entries[0][0], om_expr::num(0.0));
        assert_eq!(jac.entries[0][1], om_expr::num(1.0));
        assert_eq!(jac.entries[1][0], om_expr::num(-4.0));
        assert_eq!(jac.entries[1][1], om_expr::num(-0.5));
    }

    #[test]
    fn jacobian_sees_through_algebraic_variables() {
        let sys = ir("model M; Real x; Real a;
                      equation der(x) = a; a = -3.0*x; end M;");
        let jac = symbolic_jacobian(&sys);
        assert_eq!(jac.entries[0][0], om_expr::num(-3.0));
    }

    #[test]
    fn array_class_jacobian_matches_oracle() {
        let src = "model H; Real[5] u; equation
                     der(u[1]) = 0.0 - u[1];
                     for i in 2:4 loop
                       der(u[i]) = 2.0*(u[i-1] - 2.0*u[i] + u[i+1]);
                     end for;
                     der(u[5]) = 0.0 - u[5];
                   end H;";
        let aware = causalize(&om_lang::compile_arrays(src).unwrap()).unwrap();
        let oracle = causalize(&om_lang::compile(src).unwrap()).unwrap();
        assert!(aware.has_classes());
        let ja = symbolic_jacobian(&aware);
        let jo = symbolic_jacobian(&oracle);
        assert_eq!(ja.nnz, jo.nnz);
        assert_eq!(ja.entries, jo.entries);
        // The class footprint is the scalarized pattern: tridiagonal
        // inside, diagonal-only boundary rows.
        let pattern = jacobian_pattern(&aware);
        assert_eq!(pattern, jacobian_pattern(&oracle));
        assert_eq!(
            pattern.rows,
            vec![
                vec![0],
                vec![0, 1, 2],
                vec![1, 2, 3],
                vec![2, 3, 4],
                vec![4]
            ]
        );
        assert_eq!(pattern.nnz(), 11);
    }

    #[test]
    fn pattern_follows_algebraic_chains_to_states() {
        // der(x) reads z only through b → a → z; der(z) reads nothing
        // but time.
        let sys = ir("model M; Real x; Real y; Real z; Real a; Real b;
                      equation
                        der(x) = b + y; der(y) = -x; der(z) = time;
                        a = 2.0*z; b = a*a;
                      end M;");
        let pattern = jacobian_pattern(&sys);
        assert_eq!(pattern.rows, vec![vec![1, 2], vec![0], vec![]]);
        assert!(pattern.contains(0, 2) && !pattern.contains(0, 0));
    }

    #[test]
    fn pattern_limited_differentiation_equals_all_n_squared() {
        // Off the pattern, differentiating would have produced exactly
        // the constant 0 the entry is filled with — and the pattern is a
        // superset of the non-zero entries.
        let sys = ir("model M; Real x; Real v; Real w; Real f;
                      equation
                        der(x) = v;
                        der(v) = f - 0.1*v*v;
                        der(w) = cos(time) - w;
                        f = -sin(x) + 0.0*w;
                      end M;");
        let pattern = jacobian_pattern(&sys);
        let jac = symbolic_jacobian(&sys);
        let rhs = sys.inlined_rhs();
        for (i, f) in rhs.iter().enumerate() {
            for (j, s) in sys.states.iter().enumerate() {
                let d = diff(f, s.sym);
                assert_eq!(jac.entries[i][j], d, "J[{i}][{j}]");
                assert!(
                    d.is_const(0.0) || pattern.contains(i, j),
                    "J[{i}][{j}] = {d:?}"
                );
            }
        }
    }

    #[test]
    fn numeric_evaluator_matches_finite_differences() {
        let sys = ir("model M; Real x(start=0.4); Real v(start=0.2);
                      equation
                        der(x) = v;
                        der(v) = -sin(x) - 0.1*v*v;
                      end M;");
        let jac = symbolic_jacobian(&sys);
        let je = jac.evaluator(&sys).unwrap();
        let ev = IrEvaluator::new(&sys).unwrap();
        let y = [0.4, 0.2];
        let t = 0.0;
        let mut j = vec![0.0; 4];
        je.eval(t, &y, &mut j);
        // Finite differences.
        let h = 1e-6;
        for col in 0..2 {
            let mut yp = y;
            yp[col] += h;
            let mut ym = y;
            ym[col] -= h;
            let mut fp = [0.0; 2];
            let mut fm = [0.0; 2];
            ev.rhs(t, &yp, &mut fp);
            ev.rhs(t, &ym, &mut fm);
            for row in 0..2 {
                let fd = (fp[row] - fm[row]) / (2.0 * h);
                assert!(
                    (fd - j[row * 2 + col]).abs() < 1e-5,
                    "J[{row}][{col}]: fd={fd}, sym={}",
                    j[row * 2 + col]
                );
            }
        }
    }
}
