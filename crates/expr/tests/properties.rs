//! Property-based tests for the symbolic engine.
//!
//! The central invariant: *simplification never changes the value of an
//! expression*. Random expression trees are generated over a small set of
//! variables, evaluated at random points, and the canonical form must
//! agree with the original within floating-point re-association tolerance.

use om_expr::expr::{CmpOp, Expr, Func};
use om_expr::{diff, eval, simplify, Symbol};
use proptest::prelude::*;
use std::collections::HashMap;

const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// Strategy for leaf expressions.
fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        // Constants kept small and tame so products do not overflow.
        (-4i32..=4).prop_map(|n| Expr::Const(f64::from(n) / 2.0)),
        (0usize..VARS.len()).prop_map(|i| Expr::Var(Symbol::intern(VARS[i]))),
    ]
}

/// Strategy for well-behaved expression trees (total functions only, so
/// evaluation never produces NaN/inf at our sample points).
fn arb_expr() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::Add),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Expr::Mul),
            (inner.clone(), 1u32..=3).prop_map(|(e, p)| e.powi(p as i32)),
            inner.clone().prop_map(|e| Expr::call1(Func::Sin, e)),
            inner.clone().prop_map(|e| Expr::call1(Func::Cos, e)),
            inner.clone().prop_map(|e| Expr::call1(Func::Tanh, e)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::ite(
                Expr::cmp(CmpOp::Gt, c, Expr::Const(0.0)),
                t,
                e
            )),
        ]
    })
}

fn sample_envs() -> Vec<HashMap<Symbol, f64>> {
    // Slightly irrational points: with half-integer leaf constants, sums
    // never land exactly on a conditional boundary, so floating-point
    // re-association in the canonicalizer cannot flip an `If` branch.
    let points: [[f64; 4]; 5] = [
        [0.0137, -0.0071, 0.0233, 0.0517],
        [1.0213, -1.0171, 0.5309, 2.0117],
        [-0.3191, 0.7207, -1.5411, 0.1093],
        [2.5171, 1.1059, 0.9323, -0.4201],
        [-1.0313, -2.0219, 3.0157, 0.2683],
    ];
    points
        .iter()
        .map(|p| {
            VARS.iter()
                .zip(p)
                .map(|(n, v)| (Symbol::intern(n), *v))
                .collect()
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    let scale = 1.0 + a.abs().max(b.abs());
    (a - b).abs() <= 1e-9 * scale
}

/// How an operand list is spelled as nested binary `Add`s / `Mul`s.
#[derive(Clone, Copy, Debug)]
enum Nesting {
    Left,
    Right,
    Balanced,
    Flat,
}

/// Spell `operands` under `head` (`Expr::Add` or `Expr::Mul`) as a chain
/// or tree of binary nodes — the shapes substitution and the parser
/// produce — or as the one flat n-ary node they all mean.
fn nest(operands: &[Expr], nesting: Nesting, head: fn(Vec<Expr>) -> Expr) -> Expr {
    let (first, rest) = operands.split_first().expect("nonempty operand list");
    if rest.is_empty() {
        return first.clone();
    }
    match nesting {
        Nesting::Left => rest
            .iter()
            .fold(first.clone(), |acc, x| head(vec![acc, x.clone()])),
        Nesting::Right => {
            let (last, init) = operands.split_last().expect("nonempty");
            init.iter()
                .rfold(last.clone(), |acc, x| head(vec![x.clone(), acc]))
        }
        Nesting::Balanced => {
            let (lo, hi) = operands.split_at(operands.len() / 2);
            head(vec![nest(lo, nesting, head), nest(hi, nesting, head)])
        }
        Nesting::Flat => head(operands.to_vec()),
    }
}

fn arb_nesting() -> impl Strategy<Value = Nesting> {
    prop::sample::select(vec![Nesting::Left, Nesting::Right, Nesting::Balanced])
}

fn arb_head() -> impl Strategy<Value = fn(Vec<Expr>) -> Expr> {
    prop::sample::select(vec![
        Expr::Add as fn(Vec<Expr>) -> Expr,
        Expr::Mul as fn(Vec<Expr>) -> Expr,
    ])
}

/// A small pool of non-constant cores, so long operand lists repeat them
/// and like-term / like-base collection has work to do.
fn arb_core() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0usize..VARS.len()).prop_map(|i| Expr::Var(Symbol::intern(VARS[i]))),
        (0usize..VARS.len())
            .prop_map(|i| Expr::call1(Func::Sin, Expr::Var(Symbol::intern(VARS[i])))),
        (0usize..VARS.len(), 0usize..VARS.len()).prop_map(|(i, j)| Expr::Add(vec![
            Expr::Var(Symbol::intern(VARS[i])),
            Expr::call1(Func::Cos, Expr::Var(Symbol::intern(VARS[j]))),
        ])),
    ]
}

/// An operand whose numeric weight is exactly representable and stays so
/// under any association: a dyadic coefficient on a core (for sums) —
/// which is also a power-of-two factor and a core (for products).
fn arb_exact_operand() -> impl Strategy<Value = Expr> {
    (
        prop::sample::select(vec![-2.0, -0.5, 0.25, 0.5, 1.0, 2.0, 4.0]),
        arb_core(),
    )
        .prop_map(|(c, core)| Expr::Mul(vec![Expr::Const(c), core]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn simplify_preserves_value(e in arb_expr()) {
        let s = simplify(&e);
        for env in sample_envs() {
            let before = eval(&e, &env).unwrap();
            let after = eval(&s, &env).unwrap();
            prop_assert!(
                close(before, after),
                "simplify changed value: {before} vs {after}\n  orig: {e:?}\n  simp: {s:?}"
            );
        }
    }

    #[test]
    fn simplify_is_idempotent(e in arb_expr()) {
        let once = simplify(&e);
        let twice = simplify(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn derivative_matches_finite_difference(e in arb_expr()) {
        let x = Symbol::intern("x");
        let d = diff(&e, x);
        for mut env in sample_envs() {
            let x0 = env[&x];
            let h = 1e-5;
            // Skip points where a conditional boundary sits inside [x0-h, x0+h]:
            // finite differences are meaningless across a switch.
            env.insert(x, x0 + h);
            let fp = eval(&e, &env).unwrap();
            env.insert(x, x0 - h);
            let fm = eval(&e, &env).unwrap();
            env.insert(x, x0);
            let sym = eval(&d, &env).unwrap();
            let fd = (fp - fm) / (2.0 * h);
            // Tolerant comparison; skip wildly curved regions where the
            // second-order FD error dominates (|f''| large).
            if fd.abs() < 1e4 && sym.abs() < 1e4 {
                let scale = 1.0 + fd.abs().max(sym.abs());
                if (fd - sym).abs() > 1e-2 * scale {
                    // Could be a switching point of an If/min/max; verify by
                    // checking one-sided derivatives disagree.
                    env.insert(x, x0 + 2.0 * h);
                    let fpp = eval(&e, &env).unwrap();
                    let fd_right = (fpp - fp) / h;
                    env.insert(x, x0);
                    let kink = (fd_right - fd).abs() > 1e-2 * scale;
                    prop_assert!(
                        kink,
                        "derivative mismatch at smooth point x={x0}: fd={fd} sym={sym}\n  expr: {e:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn substitution_then_eval_equals_eval_with_binding(e in arb_expr(), v in -2.0f64..2.0) {
        let x = Symbol::intern("x");
        let substituted = om_expr::substitute(&e, x, &Expr::Const(v));
        for mut env in sample_envs() {
            env.insert(x, v);
            let direct = eval(&e, &env).unwrap();
            let via_subst = eval(&substituted, &env).unwrap();
            prop_assert!(close(direct, via_subst));
        }
    }

    #[test]
    fn cost_is_stable_under_simplify_direction(e in arb_expr()) {
        // Canonicalization must not blow the expression up: the simplified
        // form should not cost dramatically more than the original. (It is
        // allowed to cost a little more when folding rewrites `x*x` into
        // `x^2` etc.)
        let before = om_expr::flops(&e).max(1);
        let after = om_expr::flops(&simplify(&e)).max(1);
        prop_assert!(after <= 2 * before + 8, "cost exploded: {before} -> {after}");
    }

    #[test]
    fn printer_never_panics_and_is_nonempty(e in arb_expr()) {
        prop_assert!(!om_expr::infix(&e).is_empty());
        prop_assert!(!om_expr::full_form(&e).is_empty());
        prop_assert!(!om_expr::full_form_typed(&e).is_empty());
    }

    #[test]
    fn linear_solve_recovers_solution(a in 1.0f64..5.0, b in -5.0f64..5.0) {
        // a·x + b = 0 → x = -b/a, built with symbolic coefficients.
        let x = Symbol::intern("x");
        let lhs = Expr::Const(a) * Expr::Var(x) + Expr::Const(b);
        let sol = om_expr::solve_linear(&lhs, &Expr::Const(0.0), x).unwrap();
        let env: HashMap<Symbol, f64> = HashMap::new();
        let got = eval(&sol, &env).unwrap();
        prop_assert!(close(got, -b / a));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Deep chains are the shape inlining partial sums produces: one
    /// binary node per level, 64+ levels.
    #[test]
    fn deeply_nested_sums_and_products_simplify_once(
        operands in prop::collection::vec(arb_expr(), 65..80),
        nesting in arb_nesting(),
        head in arb_head(),
    ) {
        let e = nest(&operands, nesting, head);
        let s = simplify(&e);
        prop_assert_eq!(simplify(&s), s.clone(), "not idempotent under {:?}", nesting);
        for env in sample_envs() {
            let (before, after) = (eval(&e, &env).unwrap(), eval(&s, &env).unwrap());
            prop_assert!(
                close(before, after),
                "simplify changed value under {nesting:?}: {before} vs {after}"
            );
        }
    }

    /// Nesting is spelling: with weights that add and multiply exactly,
    /// every association of one operand list is one canonical expression.
    #[test]
    fn every_nesting_of_one_operand_list_is_one_canonical_form(
        operands in prop::collection::vec(arb_exact_operand(), 2..80),
        head in arb_head(),
    ) {
        let flat = simplify(&nest(&operands, Nesting::Flat, head));
        for nesting in [Nesting::Left, Nesting::Right, Nesting::Balanced] {
            prop_assert_eq!(
                simplify(&nest(&operands, nesting, head)),
                flat.clone(),
                "{:?} spelling canonicalises differently",
                nesting
            );
        }
    }
}
