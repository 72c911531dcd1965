//! The ODE internal form data structures.

use om_expr::{Expr, Symbol, SymbolMap};
use om_lang::{EqClass, SourcePos};
use std::collections::HashMap;

/// A state variable: one slot of the solver's state vector `y`.
#[derive(Clone, Debug)]
pub struct StateVar {
    pub sym: Symbol,
    /// Initial value at `t = tstart`.
    pub start: f64,
}

/// A derivative equation `der(state) = rhs` in solved (explicit) form.
#[derive(Clone, Debug)]
pub struct DerivEq {
    pub state: Symbol,
    pub rhs: Expr,
    /// Where the equation came from (instance path / class), for
    /// diagnostics and for grouping in the dependency visualization.
    pub origin: String,
    /// Source position of the defining equation (for diagnostics).
    pub pos: SourcePos,
}

/// A solved algebraic assignment `var = rhs`.
#[derive(Clone, Debug)]
pub struct AlgebraicEq {
    pub var: Symbol,
    pub rhs: Expr,
    pub origin: String,
    /// Source position of the defining equation (for diagnostics).
    pub pos: SourcePos,
}

/// The internal form of a model: a system of explicit first-order ODEs
/// plus topologically ordered algebraic assignments.
///
/// Invariants (established by [`crate::causalize()`], checked by
/// [`crate::verify`]):
///
/// * `states` always holds *every* state in declaration order (the solver
///   state layout never depends on array-awareness),
/// * when `classes` is empty, `states` and `derivs` are parallel:
///   `derivs[i].state == states[i].sym`,
/// * when `classes` is non-empty, each class covers a set of states whose
///   derivatives are given by the class representative (one symbolic
///   equation per class); `derivs` then holds only the remaining *scalar*
///   derivative equations, still in state declaration order, and each
///   state is covered exactly once (by a class or by a scalar equation),
/// * `algebraics` are ordered so each assignment only reads states, time,
///   and *earlier* algebraic variables,
/// * right-hand sides contain no `Der` markers and no tuples.
#[derive(Clone, Debug, Default)]
pub struct OdeIr {
    pub name: String,
    pub states: Vec<StateVar>,
    pub derivs: Vec<DerivEq>,
    pub algebraics: Vec<AlgebraicEq>,
    /// Symbolic array-equation classes (array-aware compilation). Empty
    /// for the fully scalarized oracle form.
    pub classes: Vec<EqClass>,
}

/// Replaces algebraic variables by their defining right-hand sides,
/// transitively, where an expression reads them. Nothing is grounded ahead
/// of a read, so the work done is the size of the expressions produced —
/// an algebraic no derivative reaches costs nothing, and a chain of
/// partial sums is walked once by its reader instead of once per prefix.
pub struct Inliner<'a> {
    /// Position in [`OdeIr::algebraics`] and right-hand side per variable.
    defs: SymbolMap<(usize, &'a Expr)>,
}

impl Inliner<'_> {
    /// `e` with every algebraic variable expanded down to states and time
    /// (unsimplified: exactly the tree textual substitution in
    /// topological order yields).
    pub fn expand(&self, e: &Expr) -> Expr {
        self.expand_below(e, usize::MAX)
    }

    /// The fully expanded definition of `v`, if `v` is an algebraic.
    pub fn definition(&self, v: Symbol) -> Option<Expr> {
        let &(at, def) = self.defs.get(&v)?;
        Some(self.expand_below(def, at))
    }

    /// Expand reads of algebraics defined before position `limit`. A
    /// definition only ever expands *earlier* ones — the order
    /// causalization establishes — so this terminates on any input.
    fn expand_below(&self, e: &Expr, limit: usize) -> Expr {
        match e {
            Expr::Var(s) => match self.defs.get(s) {
                Some(&(at, def)) if at < limit => self.expand_below(def, at),
                _ => e.clone(),
            },
            _ => e.map_children(|c| self.expand_below(c, limit)),
        }
    }
}

impl OdeIr {
    /// Number of state variables (the ODE dimension).
    pub fn dim(&self) -> usize {
        self.states.len()
    }

    /// Map from state symbol to its index in the state vector.
    pub fn state_index(&self) -> SymbolMap<usize> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.sym, i))
            .collect()
    }

    /// The initial state vector `y(tstart)`.
    pub fn initial_state(&self) -> Vec<f64> {
        self.states.iter().map(|s| s.start).collect()
    }

    /// True when the system carries symbolic array-equation classes.
    pub fn has_classes(&self) -> bool {
        !self.classes.is_empty()
    }

    /// Expand every array-equation class into scalar [`DerivEq`]s,
    /// producing the fully scalarized system the oracle pipeline builds.
    ///
    /// Expansion is *bitwise-exact*: flatten only forms a class when
    /// renaming the simplified representative per iteration is provably a
    /// simplify fixed point, so each member right-hand side here is
    /// structurally `==` to what `causalize(flatten(unit))` produces for
    /// the same source.
    pub fn expand_classes(&self) -> OdeIr {
        if !self.has_classes() {
            return self.clone();
        }
        let mut by_state: HashMap<Symbol, DerivEq> = HashMap::new();
        for d in &self.derivs {
            by_state.insert(d.state, d.clone());
        }
        for c in &self.classes {
            for (k, &state) in c.states.iter().enumerate() {
                by_state.insert(
                    state,
                    DerivEq {
                        state,
                        rhs: c.rhs_at(k),
                        origin: c.origin.clone(),
                        pos: c.pos,
                    },
                );
            }
        }
        let derivs = self
            .states
            .iter()
            .filter_map(|s| by_state.remove(&s.sym))
            .collect();
        OdeIr {
            name: self.name.clone(),
            states: self.states.clone(),
            derivs,
            algebraics: self.algebraics.clone(),
            classes: Vec::new(),
        }
    }

    /// Derivative right-hand sides with every algebraic variable inlined,
    /// so each RHS depends only on states and time.
    ///
    /// This is the *equation-level parallel form*: after inlining, the
    /// right-hand sides share no computed quantities and "can be computed
    /// in parallel" (paper §2.5.2). The cost is duplicated work — exactly
    /// the duplication the paper measures as extra common subexpressions
    /// in the parallel code (§3.3).
    pub fn inlined_rhs(&self) -> Vec<Expr> {
        if self.has_classes() {
            // Expand to the oracle-equal scalar form first so the result
            // is parallel to `states` regardless of array-awareness.
            return self.expand_classes().inlined_rhs();
        }
        let inliner = self.inliner();
        self.derivs
            .iter()
            .map(|d| om_expr::simplify(&inliner.expand(&d.rhs)))
            .collect()
    }

    /// The demand-driven substituter behind [`OdeIr::inlined_rhs`], for
    /// callers that inline expressions of their own (class
    /// representatives).
    pub fn inliner(&self) -> Inliner<'_> {
        Inliner {
            defs: self
                .algebraics
                .iter()
                .enumerate()
                .map(|(at, a)| (a.var, (at, &a.rhs)))
                .collect(),
        }
    }

    /// Set a state's start value by name (runtime-settable start values,
    /// paper §3.2: "start values … changed without re-compilation"). An
    /// unknown name returns false and is not interned.
    pub fn set_start(&mut self, name: &str, value: f64) -> bool {
        let Some(sym) = Symbol::lookup(name) else {
            return false;
        };
        for s in &mut self.states {
            if s.sym == sym {
                s.start = value;
                return true;
            }
        }
        false
    }

    /// Find a state's index by name.
    pub fn find_state(&self, name: &str) -> Option<usize> {
        let sym = Symbol::lookup(name)?;
        self.states.iter().position(|s| s.sym == sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_expr::{num, var};

    fn toy() -> OdeIr {
        // der(x) = v ; der(v) = a ; a = -k·x with k folded to 4.
        OdeIr {
            name: "toy".into(),
            states: vec![
                StateVar {
                    sym: Symbol::intern("x"),
                    start: 1.0,
                },
                StateVar {
                    sym: Symbol::intern("v"),
                    start: 0.0,
                },
            ],
            derivs: vec![
                DerivEq {
                    state: Symbol::intern("x"),
                    rhs: var("v"),
                    origin: String::new(),
                    pos: SourcePos::default(),
                },
                DerivEq {
                    state: Symbol::intern("v"),
                    rhs: var("a"),
                    origin: String::new(),
                    pos: SourcePos::default(),
                },
            ],
            algebraics: vec![AlgebraicEq {
                var: Symbol::intern("a"),
                rhs: om_expr::simplify(&(num(-4.0) * var("x"))),
                origin: String::new(),
                pos: SourcePos::default(),
            }],
            classes: Vec::new(),
        }
    }

    #[test]
    fn dim_and_layout() {
        let ir = toy();
        assert_eq!(ir.dim(), 2);
        assert_eq!(ir.initial_state(), vec![1.0, 0.0]);
        assert_eq!(ir.state_index()[&Symbol::intern("v")], 1);
    }

    #[test]
    fn inlining_grounds_rhs_on_states() {
        let ir = toy();
        let rhs = ir.inlined_rhs();
        assert_eq!(rhs[0], var("v"));
        assert_eq!(rhs[1], om_expr::simplify(&(num(-4.0) * var("x"))));
        assert!(!rhs[1].depends_on(Symbol::intern("a")));
    }

    #[test]
    fn chained_algebraics_inline_transitively() {
        let mut ir = toy();
        // b = 2a ; der(v) = b instead.
        ir.algebraics.push(AlgebraicEq {
            var: Symbol::intern("b"),
            rhs: om_expr::simplify(&(num(2.0) * var("a"))),
            origin: String::new(),
            pos: SourcePos::default(),
        });
        ir.derivs[1].rhs = var("b");
        let rhs = ir.inlined_rhs();
        assert_eq!(rhs[1], om_expr::simplify(&(num(-8.0) * var("x"))));
    }

    #[test]
    fn set_start_by_name() {
        let mut ir = toy();
        assert!(ir.set_start("x", 5.0));
        assert!(!ir.set_start("nope", 1.0));
        assert_eq!(ir.initial_state()[0], 5.0);
    }

    /// The eager grounding `Inliner` replaced: every algebraic gets a
    /// fully substituted definition, in order, before any derivative
    /// asks. Kept as the reference the demand-driven form must equal.
    fn inlined_rhs_eager(ir: &OdeIr) -> Vec<Expr> {
        let mut defs: HashMap<Symbol, Expr> = HashMap::new();
        for alg in &ir.algebraics {
            let grounded = om_expr::substitute_map(&alg.rhs, &defs);
            defs.insert(alg.var, grounded);
        }
        ir.derivs
            .iter()
            .map(|d| om_expr::simplify(&om_expr::substitute_map(&d.rhs, &defs)))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random algebraic DAGs — chains (each reads its predecessor),
        /// diamonds (two earlier ones, possibly the same), leaves and
        /// algebraics nothing reads.
        #[test]
        fn demand_driven_inlining_equals_eager_grounding(
            shape in proptest::collection::vec((0usize..4, 0usize..64, 0usize..64, -3i32..4), 1..24),
            reads in proptest::collection::vec((0usize..64, 0usize..64), 2..3),
        ) {
            let mut ir = toy();
            ir.algebraics.clear();
            let alg = |i: usize| var(&format!("a{i}"));
            for (i, &(kind, p, q, c)) in shape.iter().enumerate() {
                let coeff = num(f64::from(c) * 0.5);
                let rhs = match (kind, i) {
                    (0, _) | (_, 0) => coeff * var("x") + var("v"),
                    (1, _) => alg(i - 1) + coeff * var("v"),
                    (2, _) => alg(p % i) * alg(q % i) + coeff,
                    _ => om_expr::Expr::call1(om_expr::expr::Func::Sin, alg(p % i)) - alg(q % i),
                };
                ir.algebraics.push(AlgebraicEq {
                    var: Symbol::intern(&format!("a{i}")),
                    rhs: om_expr::simplify(&rhs),
                    origin: String::new(),
                    pos: SourcePos::default(),
                });
            }
            let n = shape.len();
            for (d, &(p, q)) in ir.derivs.iter_mut().zip(&reads) {
                d.rhs = om_expr::simplify(&(alg(p % n) - var("x") * alg(q % n)));
            }
            proptest::prop_assert_eq!(ir.inlined_rhs(), inlined_rhs_eager(&ir));
        }
    }
}
