//! Causalization: from acausal flat equations to solved internal form.
//!
//! ObjectMath models state physics acausally — equilibria like
//! `F_I + F_E + F_ext = 0` (paper Figure 1) do not say which quantity is
//! "computed from" which. The numerical solver, however, needs explicit
//! form `ẏ = f(y, t)`. This pass performs the assignment:
//!
//! 1. Equations containing a `der(x)` marker become *differential*
//!    equations and are solved for the derivative (which may occur inside
//!    a larger expression, e.g. `m·der(v) = F`).
//! 2. The remaining equations are matched one-to-one with the remaining
//!    (algebraic) variables using bipartite matching with augmenting
//!    paths; each matched equation is solved symbolically for its
//!    variable ([`om_expr::solve_linear`]).
//! 3. Algebraic assignments are ordered topologically. A dependency cycle
//!    among algebraic variables is an *algebraic loop*; like the original
//!    system, we reject those (the paper's applications are ODE systems,
//!    not general DAEs).

use crate::system::{AlgebraicEq, DerivEq, OdeIr, StateVar};
use om_expr::expr::Expr;
use om_expr::{simplify, solve_linear, Symbol, SymbolMap, SymbolSet};
use om_lang::{FlatEquation, FlatModel, SourcePos};
use std::collections::HashMap;
use std::fmt;

/// Errors produced by causalization.
#[derive(Clone, Debug, PartialEq)]
pub enum CausalizeError {
    /// An equation contains derivatives of two or more different states.
    MultipleDerivatives {
        origin: String,
        states: Vec<String>,
        pos: SourcePos,
    },
    /// The derivative could not be isolated (nonlinear occurrence).
    UnsolvableDerivative {
        origin: String,
        state: String,
        pos: SourcePos,
    },
    /// Two equations define the derivative of the same state.
    DuplicateDerivative { state: String, pos: SourcePos },
    /// `der(x)` of something that is not a declared variable.
    UnknownState { state: String, pos: SourcePos },
    /// More algebraic equations than unknowns, or vice versa.
    UnbalancedSystem {
        equations: usize,
        unknowns: usize,
        details: String,
    },
    /// No perfect matching between algebraic equations and variables
    /// exists (structurally singular system).
    StructurallySingular { origin: String, pos: SourcePos },
    /// Cyclic dependency among algebraic variables.
    AlgebraicLoop { variables: Vec<String> },
    /// An internal invariant of the matching algorithm was violated.
    /// Reported as an error instead of panicking so malformed input can
    /// never take the compiler down.
    Internal { detail: String },
}

impl CausalizeError {
    /// Source position associated with the error, when one is known.
    pub fn pos(&self) -> Option<SourcePos> {
        match self {
            CausalizeError::MultipleDerivatives { pos, .. }
            | CausalizeError::UnsolvableDerivative { pos, .. }
            | CausalizeError::DuplicateDerivative { pos, .. }
            | CausalizeError::UnknownState { pos, .. }
            | CausalizeError::StructurallySingular { pos, .. } => Some(*pos),
            CausalizeError::UnbalancedSystem { .. }
            | CausalizeError::AlgebraicLoop { .. }
            | CausalizeError::Internal { .. } => None,
        }
    }
}

impl fmt::Display for CausalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalizeError::MultipleDerivatives { origin, states, .. } => write!(
                f,
                "equation from `{origin}` contains derivatives of several states: {}",
                states.join(", ")
            ),
            CausalizeError::UnsolvableDerivative { origin, state, .. } => write!(
                f,
                "cannot isolate der({state}) in equation from `{origin}` (nonlinear occurrence)"
            ),
            CausalizeError::DuplicateDerivative { state, .. } => {
                write!(f, "der({state}) is defined by more than one equation")
            }
            CausalizeError::UnknownState { state, .. } => {
                write!(f, "der({state}) refers to an undeclared variable")
            }
            CausalizeError::UnbalancedSystem {
                equations,
                unknowns,
                details,
            } => write!(
                f,
                "system is unbalanced: {equations} algebraic equation(s) for {unknowns} algebraic unknown(s); {details}"
            ),
            CausalizeError::StructurallySingular { origin, .. } => write!(
                f,
                "structurally singular: no assignment of equations to unknowns exists (near `{origin}`)"
            ),
            CausalizeError::AlgebraicLoop { variables } => write!(
                f,
                "algebraic loop among {{{}}} — simultaneous algebraic systems are not in the compilable subset",
                variables.join(", ")
            ),
            CausalizeError::Internal { detail } => {
                write!(f, "internal causalization invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for CausalizeError {}

/// Replace `Der(state)` markers by a fresh variable so the linear solver
/// can treat the derivative as the unknown.
fn replace_der(e: &Expr, state: Symbol, fresh: Symbol) -> Expr {
    match e {
        Expr::Der(s) if *s == state => Expr::Var(fresh),
        _ => e.map_children(|c| replace_der(c, state, fresh)),
    }
}

/// Distinct states whose derivative occurs in the equation.
fn der_states(eq: &FlatEquation) -> Vec<Symbol> {
    let mut found = Vec::new();
    let mut push = |e: &Expr| {
        e.walk(&mut |n| {
            if let Expr::Der(s) = n {
                if !found.contains(s) {
                    found.push(*s);
                }
            }
        });
    };
    push(&eq.lhs);
    push(&eq.rhs);
    found
}

/// State of the equation ↔ unknown matching (Kuhn's algorithm), with the
/// bipartite graph discovered on demand.
struct Matching<'a> {
    eqs: &'a [&'a FlatEquation],
    unknowns: &'a [Symbol],
    var_index: SymbolMap<usize>,
    /// Unknowns occurring in each equation, in free-variable order; built
    /// when a search first reaches the equation.
    candidates: Vec<Option<Vec<usize>>>,
    /// Per equation, every unknown a search has tried it against: the
    /// equation solved for the unknown, or `None` when it cannot be
    /// isolated (then the pair is no edge).
    solved: Vec<Vec<(usize, Option<Expr>)>>,
    /// Unknown → the equation currently matched to it.
    match_of_var: Vec<Option<usize>>,
    /// `visited[j] == stamp` ⇔ unknown `j` was reached by search `stamp`.
    visited: Vec<usize>,
}

impl Matching<'_> {
    /// Whether equation `eq` can be solved for unknown `j`.
    fn solvable(&mut self, eq: usize, j: usize) -> bool {
        if let Some((_, solution)) = self.solved[eq].iter().find(|(tried, _)| *tried == j) {
            return solution.is_some();
        }
        let equation = self.eqs[eq];
        let solution = solve_linear(&equation.lhs, &equation.rhs, self.unknowns[j]);
        let solvable = solution.is_some();
        self.solved[eq].push((j, solution));
        solvable
    }

    /// Search an augmenting path from equation `eq`; `stamp` names the
    /// search (one per top-level equation). A search enters an equation
    /// at most once, so its candidate row can be held out while it runs.
    fn try_augment(&mut self, eq: usize, stamp: usize) -> bool {
        let row = self.candidates[eq].take().unwrap_or_else(|| {
            let mut vars = self.eqs[eq].lhs.free_vars();
            self.eqs[eq].rhs.collect_free_vars(&mut vars);
            vars.iter()
                .filter_map(|v| self.var_index.get(v).copied())
                .collect()
        });
        let mut augmented = false;
        for &j in &row {
            if self.visited[j] == stamp || !self.solvable(eq, j) {
                continue;
            }
            self.visited[j] = stamp;
            let free = match self.match_of_var[j] {
                None => true,
                Some(other) => self.try_augment(other, stamp),
            };
            if free {
                self.match_of_var[j] = Some(eq);
                augmented = true;
                break;
            }
        }
        self.candidates[eq] = Some(row);
        augmented
    }
}

/// How a state's derivative is defined: by its own scalar equation, or as
/// one member of a symbolic array-equation class.
enum DerivDef {
    Scalar(Expr, String, SourcePos),
    Class,
}

/// Causalize a flattened model into the ODE internal form.
///
/// When the model carries array-equation classes (array-aware flattening),
/// each class is causalized *once through its representative*: every
/// member state is registered as derivative-defined for the duplicate and
/// balance checks, but no per-element equation is materialized — the
/// class rides through symbolically on [`OdeIr::classes`].
pub fn causalize(model: &FlatModel) -> Result<OdeIr, CausalizeError> {
    let declared: SymbolSet = model.variables.iter().map(|v| v.sym).collect();

    // Phase 1: differential equations.
    let mut deriv_rhs: SymbolMap<DerivDef> = SymbolMap::default();
    let mut algebraic_eqs: Vec<&FlatEquation> = Vec::new();
    for class in &model.classes {
        for &state in &class.states {
            if !declared.contains(&state) {
                return Err(CausalizeError::UnknownState {
                    state: state.name().to_owned(),
                    pos: class.pos,
                });
            }
            if deriv_rhs.insert(state, DerivDef::Class).is_some() {
                return Err(CausalizeError::DuplicateDerivative {
                    state: state.name().to_owned(),
                    pos: class.pos,
                });
            }
        }
    }
    for eq in &model.equations {
        let ders = der_states(eq);
        match ders.len() {
            0 => algebraic_eqs.push(eq),
            1 => {
                let state = ders[0];
                if !declared.contains(&state) {
                    return Err(CausalizeError::UnknownState {
                        state: state.name().to_owned(),
                        pos: eq.pos,
                    });
                }
                // Fast path: lhs is exactly der(x).
                let rhs =
                    if matches!(&eq.lhs, Expr::Der(s) if *s == state) && !eq.rhs.contains_der() {
                        eq.rhs.clone()
                    } else {
                        let fresh = Symbol::intern(&format!("om$der${}", state.name()));
                        let lhs = replace_der(&eq.lhs, state, fresh);
                        let rhs = replace_der(&eq.rhs, state, fresh);
                        solve_linear(&lhs, &rhs, fresh).ok_or_else(|| {
                            CausalizeError::UnsolvableDerivative {
                                origin: eq.origin.clone(),
                                state: state.name().to_owned(),
                                pos: eq.pos,
                            }
                        })?
                    };
                if deriv_rhs
                    .insert(
                        state,
                        DerivDef::Scalar(simplify(&rhs), eq.origin.clone(), eq.pos),
                    )
                    .is_some()
                {
                    return Err(CausalizeError::DuplicateDerivative {
                        state: state.name().to_owned(),
                        pos: eq.pos,
                    });
                }
            }
            _ => {
                return Err(CausalizeError::MultipleDerivatives {
                    origin: eq.origin.clone(),
                    states: ders.iter().map(|s| s.name().to_owned()).collect(),
                    pos: eq.pos,
                })
            }
        }
    }

    // Phase 2: split variables into states and algebraic unknowns,
    // preserving declaration order for a deterministic state layout.
    // Class-covered states enter `states` (the solver layout is always
    // full) but get no scalar DerivEq — the class defines them.
    let mut states: Vec<StateVar> = Vec::new();
    let mut derivs: Vec<DerivEq> = Vec::new();
    let mut alg_vars: Vec<Symbol> = Vec::new();
    for v in &model.variables {
        match deriv_rhs.remove(&v.sym) {
            Some(DerivDef::Scalar(rhs, origin, pos)) => {
                states.push(StateVar {
                    sym: v.sym,
                    start: v.start,
                });
                derivs.push(DerivEq {
                    state: v.sym,
                    rhs,
                    origin,
                    pos,
                });
            }
            Some(DerivDef::Class) => {
                states.push(StateVar {
                    sym: v.sym,
                    start: v.start,
                });
            }
            None => alg_vars.push(v.sym),
        }
    }

    if algebraic_eqs.len() != alg_vars.len() {
        let details = if algebraic_eqs.len() < alg_vars.len() {
            let defined: SymbolSet = states.iter().map(|s| s.sym).collect();
            let undefined: Vec<&str> = alg_vars
                .iter()
                .filter(|v| !defined.contains(v))
                .map(|v| v.name())
                .take(5)
                .collect();
            format!("undefined variable(s) include: {}", undefined.join(", "))
        } else {
            "the model is over-determined".to_owned()
        };
        return Err(CausalizeError::UnbalancedSystem {
            equations: algebraic_eqs.len(),
            unknowns: alg_vars.len(),
            details,
        });
    }

    // Phase 3: bipartite matching equations ↔ unknowns (Kuhn's augmenting
    // paths, equations in source order). An edge exists when the unknown
    // occurs in the equation and can be isolated symbolically; it is
    // solved when a search first walks it, not before.
    let n = algebraic_eqs.len();
    let mut matching = Matching {
        eqs: &algebraic_eqs,
        unknowns: &alg_vars,
        var_index: alg_vars.iter().enumerate().map(|(i, v)| (*v, i)).collect(),
        candidates: vec![None; n],
        solved: vec![Vec::new(); n],
        match_of_var: vec![None; n],
        visited: vec![usize::MAX; n],
    };
    for (eq, equation) in algebraic_eqs.iter().enumerate() {
        // An explicit assignment `v = expr` whose unknown is still free is
        // its own augmenting path: no search, one solve.
        if let Some(&j) = equation
            .lhs
            .as_var()
            .and_then(|v| matching.var_index.get(&v))
        {
            if matching.match_of_var[j].is_none() && matching.solvable(eq, j) {
                matching.match_of_var[j] = Some(eq);
                continue;
            }
        }
        if !matching.try_augment(eq, eq) {
            return Err(CausalizeError::StructurallySingular {
                origin: equation.origin.clone(),
                pos: equation.pos,
            });
        }
    }

    // Build assignments from the matching.
    let mut assignments: Vec<AlgebraicEq> = Vec::with_capacity(n);
    for (j, eq_opt) in matching.match_of_var.iter().enumerate() {
        let Some(eq) = *eq_opt else {
            return Err(CausalizeError::Internal {
                detail: format!(
                    "unknown `{}` left unmatched after a perfect matching was found",
                    alg_vars[j].name()
                ),
            });
        };
        let Some(solved) = matching.solved[eq]
            .iter_mut()
            .find(|(tried, _)| *tried == j)
            .and_then(|(_, solution)| solution.take())
        else {
            return Err(CausalizeError::Internal {
                detail: format!(
                    "matched edge for unknown `{}` vanished after matching",
                    alg_vars[j].name()
                ),
            });
        };
        assignments.push(AlgebraicEq {
            var: alg_vars[j],
            rhs: solved,
            origin: algebraic_eqs[eq].origin.clone(),
            pos: algebraic_eqs[eq].pos,
        });
    }

    // Phase 4: topological order of algebraic assignments (Kahn).
    let alg_set: HashMap<Symbol, usize> = assignments
        .iter()
        .enumerate()
        .map(|(i, a)| (a.var, i))
        .collect();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n]; // deps[i] = assignments i reads
    let mut rdeps: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (i, a) in assignments.iter().enumerate() {
        for v in a.rhs.free_vars() {
            if let Some(&j) = alg_set.get(&v) {
                deps[i].push(j);
                rdeps[j].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &k in &rdeps[i] {
            indegree[k] -= 1;
            if indegree[k] == 0 {
                queue.push(k);
            }
        }
    }
    if order.len() != n {
        let looped: Vec<String> = (0..n)
            .filter(|i| !order.contains(i))
            .map(|i| assignments[i].var.name().to_owned())
            .collect();
        return Err(CausalizeError::AlgebraicLoop { variables: looped });
    }
    let mut assignments: Vec<Option<AlgebraicEq>> = assignments.into_iter().map(Some).collect();
    let ordered: Vec<AlgebraicEq> = order
        .into_iter()
        .filter_map(|i| assignments[i].take())
        .collect();

    Ok(OdeIr {
        name: model.name.clone(),
        states,
        derivs,
        algebraics: ordered,
        classes: model.classes.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_lang::compile;

    fn ir(src: &str) -> OdeIr {
        causalize(&compile(src).unwrap()).unwrap()
    }

    fn ir_err(src: &str) -> CausalizeError {
        causalize(&compile(src).unwrap()).unwrap_err()
    }

    #[test]
    fn explicit_ode_passes_through() {
        let sys = ir("model M; Real x(start=1.0); Real y;
                      equation der(x) = y; der(y) = -x; end M;");
        assert_eq!(sys.dim(), 2);
        assert!(sys.algebraics.is_empty());
        assert_eq!(sys.derivs[0].rhs, om_expr::var("y"));
    }

    #[test]
    fn implicit_derivative_is_isolated() {
        // m·der(v) = F with m = 2: der(v) = F/2 = 0.5·F
        let sys = ir("model M;
                        parameter Real m = 2.0;
                        Real v; Real F;
                        equation
                          m * der(v) = F;
                          F = -v;
                      end M;");
        assert_eq!(sys.states.len(), 1);
        assert_eq!(
            sys.derivs[0].rhs,
            om_expr::simplify(&(om_expr::num(0.5) * om_expr::var("F")))
        );
    }

    #[test]
    fn equilibrium_equation_solved_for_matched_unknown() {
        // F1 + F2 = 0 where F1 = 3x is known-form: matching must assign
        // the equilibrium to F2.
        let sys = ir("model M;
                        Real x(start=1.0); Real F1; Real F2;
                        equation
                          der(x) = F2;
                          F1 = 3.0 * x;
                          F1 + F2 = 0.0;
                      end M;");
        let f2 = sys
            .algebraics
            .iter()
            .find(|a| a.var.name() == "F2")
            .unwrap();
        assert_eq!(
            om_expr::simplify(&f2.rhs),
            om_expr::simplify(&om_expr::var("F1").neg())
        );
    }

    #[test]
    fn algebraics_are_topologically_ordered() {
        let sys = ir("model M;
                        Real x; Real a; Real b; Real c;
                        equation
                          der(x) = c;
                          c = b * 2.0;
                          b = a + 1.0;
                          a = x;
                      end M;");
        let pos = |name: &str| {
            sys.algebraics
                .iter()
                .position(|a| a.var.name() == name)
                .unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
    }

    #[test]
    fn inlined_rhs_depends_only_on_states() {
        let sys = ir("model M;
                        Real x; Real a; Real b;
                        equation
                          der(x) = b;
                          b = 2.0 * a;
                          a = -x;
                      end M;");
        let rhs = sys.inlined_rhs();
        assert_eq!(
            rhs[0],
            om_expr::simplify(&(om_expr::num(-2.0) * om_expr::var("x")))
        );
    }

    #[test]
    fn rejects_two_derivatives_in_one_equation() {
        let e = ir_err(
            "model M; Real x; Real y;
                        equation der(x) + der(y) = 1.0; der(y) = x; end M;",
        );
        assert!(matches!(e, CausalizeError::MultipleDerivatives { .. }));
    }

    #[test]
    fn rejects_duplicate_derivative_definitions() {
        let e = ir_err(
            "model M; Real x; Real y;
                        equation der(x) = 1.0; der(x) = 2.0; y = x; end M;",
        );
        // The second der(x) makes the system unbalanced OR duplicate,
        // depending on detection order; duplicate fires first.
        assert!(matches!(e, CausalizeError::DuplicateDerivative { .. }));
    }

    #[test]
    fn rejects_nonlinear_derivative_occurrence() {
        let e = ir_err("model M; Real x; equation der(x)^2.0 = x; end M;");
        assert!(matches!(e, CausalizeError::UnsolvableDerivative { .. }));
    }

    #[test]
    fn rejects_underdetermined_model() {
        let e = ir_err("model M; Real x; Real y; equation der(x) = y; end M;");
        match e {
            CausalizeError::UnbalancedSystem {
                equations,
                unknowns,
                ..
            } => {
                assert_eq!((equations, unknowns), (0, 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_overdetermined_model() {
        let e = ir_err(
            "model M; Real x;
                        equation der(x) = 1.0; x + 1.0 = 2.0; end M;",
        );
        assert!(matches!(e, CausalizeError::UnbalancedSystem { .. }));
    }

    #[test]
    fn rejects_algebraic_loop() {
        let e = ir_err(
            "model M; Real x; Real a; Real b;
                        equation
                          der(x) = a;
                          a = b + x;
                          b = a - x;
                        end M;",
        );
        // a = b + x and b = a - x: the matching may pair either equation
        // with either unknown, but every assignment is cyclic.
        assert!(
            matches!(e, CausalizeError::AlgebraicLoop { .. })
                || matches!(e, CausalizeError::StructurallySingular { .. }),
            "{e:?}"
        );
    }

    #[test]
    fn rejects_structurally_singular_system() {
        // Two equations constrain only `a`; `b` appears in none.
        let e = ir_err(
            "model M; Real x; Real a; Real b;
                        equation
                          der(x) = a + b;
                          a = x;
                          a = 2.0 * x;
                        end M;",
        );
        assert!(matches!(e, CausalizeError::StructurallySingular { .. }));
    }

    const HEAT: &str = "model Heat;
        parameter Real d = 4.0;
        parameter Real a = 0.5;
        Real[8] u;
        equation
          der(u[1]) = d*(0.0 - 2.0*u[1] + u[2]) - a*(u[1] - 0.0);
          for i in 2:7 loop
            der(u[i]) = d*(u[i-1] - 2.0*u[i] + u[i+1]) - a*(u[i] - u[i-1]);
          end for;
          der(u[8]) = d*(u[7] - 2.0*u[8] + 0.0) - a*(u[8] - u[7]);
        end Heat;";

    #[test]
    fn array_classes_ride_through_causalization() {
        let aware = causalize(&om_lang::compile_arrays(HEAT).unwrap()).unwrap();
        let oracle = causalize(&om_lang::compile(HEAT).unwrap()).unwrap();
        assert!(aware.has_classes());
        assert_eq!(aware.classes.len(), 1);
        // The state layout is always full and identical to the oracle;
        // only the boundary equations stay scalar.
        assert_eq!(aware.states.len(), 8);
        assert_eq!(aware.derivs.len(), 2);
        let names: Vec<&str> = aware.states.iter().map(|s| s.sym.name()).collect();
        let onames: Vec<&str> = oracle.states.iter().map(|s| s.sym.name()).collect();
        assert_eq!(names, onames);
    }

    #[test]
    fn expand_classes_is_bitwise_equal_to_oracle() {
        let aware = causalize(&om_lang::compile_arrays(HEAT).unwrap()).unwrap();
        let oracle = causalize(&om_lang::compile(HEAT).unwrap()).unwrap();
        let expanded = aware.expand_classes();
        assert!(!expanded.has_classes());
        assert_eq!(expanded.derivs.len(), oracle.derivs.len());
        for (e, o) in expanded.derivs.iter().zip(&oracle.derivs) {
            assert_eq!(e.state, o.state);
            assert_eq!(e.rhs, o.rhs, "der({})", o.state.name());
        }
        // Inlined form (what the Jacobian and code generators consume)
        // agrees as well.
        assert_eq!(aware.inlined_rhs(), oracle.inlined_rhs());
    }

    #[test]
    fn class_member_clashing_with_scalar_derivative_is_rejected() {
        let e = causalize(
            &om_lang::compile_arrays(
                "model M; Real[4] u; equation
                   for i in 1:4 loop der(u[i]) = 0.0 - u[i]; end for;
                   der(u[2]) = 1.0;
                 end M;",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(e, CausalizeError::DuplicateDerivative { .. }));
    }

    #[test]
    fn matching_handles_permuted_definitions() {
        // A chain written backwards still matches.
        let sys = ir("model M;
                        Real x; Real p; Real q; Real r;
                        equation
                          q + r = 0.0;
                          p + q = x;
                          p = 2.0 * x;
                          der(x) = r;
                      end M;");
        assert_eq!(sys.algebraics.len(), 3);
        // Evaluate the chain at x = 1: p = 2, q = x - p = -1, r = -q = 1.
        let mut env: std::collections::HashMap<om_expr::Symbol, f64> =
            std::collections::HashMap::new();
        env.insert(Symbol::intern("x"), 1.0);
        for a in &sys.algebraics {
            let v = om_expr::eval(&a.rhs, &env).unwrap();
            env.insert(a.var, v);
        }
        assert_eq!(env[&Symbol::intern("p")], 2.0);
        assert_eq!(env[&Symbol::intern("q")], -1.0);
        assert_eq!(env[&Symbol::intern("r")], 1.0);
    }
}
