//! Property tests: bytecode VM vs the tree interpreter, scheduler bounds.

use om_codegen::bytecode::{compile_roots, VarRef};
use om_codegen::{lpt, CseMode, Dag};
use om_expr::expr::{CmpOp, Expr, Func};
use om_expr::{simplify, Symbol};
use proptest::prelude::*;
use std::collections::HashMap;

const VARS: [&str; 3] = ["x", "y", "z"];

/// Lane counts for the VM property: the one-lane instantiation, sub-chunk
/// widths, exactly one chunk, and a ragged multi-chunk tail.
const LANE_WIDTHS: [usize; 5] = [1, 2, 3, 8, 17];

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (-6i32..=6).prop_map(|n| Expr::Const(f64::from(n) / 2.0)),
        (0usize..VARS.len()).prop_map(|i| Expr::Var(Symbol::intern(VARS[i]))),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(4, 40, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Expr::Add),
            prop::collection::vec(inner.clone(), 2..3).prop_map(Expr::Mul),
            (inner.clone(), 1u32..=4).prop_map(|(e, p)| e.powi(p as i32)),
            inner.clone().prop_map(|e| Expr::call1(Func::Sin, e)),
            inner.clone().prop_map(|e| Expr::call1(Func::Cos, e)),
            inner.clone().prop_map(|e| Expr::call1(Func::Abs, e)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::call2(Func::Max, a, b)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::ite(
                Expr::cmp(CmpOp::Le, c, Expr::Const(0.25)),
                t,
                e
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The compiled bytecode computes exactly what the tree interpreter
    /// computes, in every CSE mode and at every lane count: the one-lane
    /// and the chunked instantiation of the VM share their source, so
    /// each is checked against this independent reference, not only
    /// against the other.
    #[test]
    fn vm_matches_tree_eval(
        exprs in prop::collection::vec(arb_expr(), 1..4),
        width_pick in 0usize..LANE_WIDTHS.len(),
    ) {
        let lanes = LANE_WIDTHS[width_pick];
        let simplified: Vec<Expr> = exprs.iter().map(simplify).collect();
        let mut dag = Dag::new();
        let roots: Vec<_> = simplified
            .iter()
            .map(|e| {
                let r = dag.import(e);
                dag.mark_root(r);
                r
            })
            .collect();
        let vars: HashMap<Symbol, VarRef> = VARS
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::intern(n), VarRef::State(i as u32)))
            .collect();
        let points = [
            [0.0, 0.0, 0.0],
            [1.0, -1.0, 0.5],
            [-0.7, 2.0, -1.25],
            [0.3, 0.3, 0.3],
        ];
        for mode in [CseMode::Off, CseMode::PerTask, CseMode::Global] {
            let program = compile_roots(&dag, &roots, &vars, mode);
            for y in &points {
                let env: HashMap<Symbol, f64> = VARS
                    .iter()
                    .zip(y)
                    .map(|(n, v)| (Symbol::intern(n), *v))
                    .collect();
                // SoA pack: every lane carries a copy of the same point.
                let ys: Vec<f64> = y.iter().flat_map(|v| vec![*v; lanes]).collect();
                let mut out = vec![0.0; roots.len() * lanes];
                om_codegen::execute_batch(&program, 0.0, &ys, &[], &mut out, lanes);
                for (i, e) in simplified.iter().enumerate() {
                    let expect = om_expr::eval(e, &env).unwrap();
                    for (l, got) in out[i * lanes..(i + 1) * lanes].iter().enumerate() {
                        let close = if expect.is_nan() {
                            got.is_nan()
                        } else {
                            (got - expect).abs() <= 1e-9 * (1.0 + expect.abs())
                        };
                        prop_assert!(
                            close,
                            "mode {mode:?} lanes {lanes} lane {l} root {i}: \
                             vm={got} tree={expect} expr={e:?}"
                        );
                    }
                }
            }
        }
    }

    /// LPT satisfies Graham's greedy guarantee: makespan ≤ total/m +
    /// (1 − 1/m)·max_cost, and never beats the trivial lower bound.
    #[test]
    fn lpt_respects_bound(costs in prop::collection::vec(1u64..1000, 1..60), m in 1usize..9) {
        let s = lpt(&costs, m);
        let total: u64 = costs.iter().sum();
        prop_assert_eq!(s.loads.iter().sum::<u64>(), total);
        let cmax = *costs.iter().max().unwrap();
        let lower = (total.div_ceil(m as u64)).max(cmax);
        let graham = total as f64 / m as f64 + (1.0 - 1.0 / m as f64) * cmax as f64;
        prop_assert!(s.makespan as f64 <= graham + 1e-9);
        prop_assert!(s.makespan >= lower);
    }

    /// List scheduling produces a feasible schedule: no worker overload
    /// (sum of loads equals total) and makespan at least the critical
    /// path and at least the load bound.
    #[test]
    fn list_schedule_is_feasible(
        costs in prop::collection::vec(1u64..100, 1..40),
        m in 1usize..5,
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..60),
    ) {
        let n = costs.len();
        // Build a DAG: only edges from lower to higher index.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a < b && !deps[b].contains(&a) {
                deps[b].push(a);
            }
        }
        let s = om_codegen::list_schedule(&costs, &deps, m);
        let total: u64 = costs.iter().sum();
        prop_assert_eq!(s.loads.iter().sum::<u64>(), total);
        prop_assert!(s.makespan >= total.div_ceil(m as u64));
        // Critical path lower bound.
        let mut cp = vec![0u64; n];
        for i in 0..n {
            cp[i] = costs[i] + deps[i].iter().map(|&d| cp[d]).max().unwrap_or(0);
        }
        prop_assert!(s.makespan >= cp.iter().copied().max().unwrap());
    }
}
