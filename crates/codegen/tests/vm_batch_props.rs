//! Differential property tests for the batched SoA VM: for random
//! programs, random lane counts, and random scenario packs, every lane
//! of `execute_batch` must be *bitwise* identical (compared as hex f64
//! bit patterns) to a sequential K=1 run of the scalar `execute` oracle.
//! Both are instantiations of one instruction body — the chunked lane
//! loop and its one-lane fold, different machine code from the same
//! source — so this pins the two to each other; `properties.rs` checks
//! each against the tree evaluator.
//!
//! Bitwise — not approximately — because the batched interpreter claims
//! to perform the same scalar f64 operations in the same order per lane;
//! any reassociation, fused operation, or lane mixup shows up as a
//! single differing bit long before it would trip an epsilon test.

use om_codegen::bytecode::{compile_roots, VarRef};
use om_codegen::{execute, execute_batch, CseMode, Dag};
use om_expr::expr::{CmpOp, Expr, Func};
use om_expr::{simplify, Symbol};
use proptest::prelude::*;
use std::collections::HashMap;

const VARS: [&str; 3] = ["x", "y", "z"];

/// Lane widths that exercise the chunking: 1 (degenerate), sub-chunk
/// (2, 3), exactly one chunk (8), and a ragged multi-chunk tail (17).
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
            inner.clone().prop_map(|e| Expr::call1(Func::Exp, e)),
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

/// One lane's state vector: finite values across several magnitudes,
/// including negatives and exact dyadic fractions.
fn arb_state() -> impl Strategy<Value = [f64; 3]> {
    let coord = || {
        prop_oneof![
            (-64i32..=64).prop_map(|n| f64::from(n) / 16.0),
            (-4000i32..=4000).prop_map(|n| f64::from(n) / 1024.0),
        ]
    };
    (coord(), coord(), coord()).prop_map(|(x, y, z)| [x, y, z])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random program × random lane width × random scenario pack: every
    /// lane of one batched call equals its own scalar call, bit for bit,
    /// in every CSE mode.
    #[test]
    fn batch_execution_is_bitwise_equal_to_scalar(
        exprs in prop::collection::vec(arb_expr(), 1..4),
        width_pick in 0usize..LANE_WIDTHS.len(),
        pack in prop::collection::vec(arb_state(), 17),
        t in (-8i32..=8).prop_map(|n| f64::from(n) / 4.0),
    ) {
        let lanes = LANE_WIDTHS[width_pick];
        let pack = &pack[..lanes];
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
        for mode in [CseMode::Off, CseMode::PerTask, CseMode::Global] {
            let program = compile_roots(&dag, &roots, &vars, mode);
            let n_out = roots.len();
            // Scalar oracle: K=1, one call per lane, in lane order.
            let mut oracle = vec![0.0; n_out * lanes];
            for (l, y) in pack.iter().enumerate() {
                let mut out = vec![0.0; n_out];
                execute(&program, t, y, &[], &mut out);
                for (o, v) in out.iter().enumerate() {
                    oracle[o * lanes + l] = *v;
                }
            }
            // Batched: one call over all lanes (SoA gather of the pack).
            let mut ys = vec![0.0; VARS.len() * lanes];
            for (l, y) in pack.iter().enumerate() {
                for (i, v) in y.iter().enumerate() {
                    ys[i * lanes + l] = *v;
                }
            }
            let mut batched = vec![0.0; n_out * lanes];
            execute_batch(&program, t, &ys, &[], &mut batched, lanes);
            for o in 0..n_out {
                for l in 0..lanes {
                    let a = oracle[o * lanes + l];
                    let b = batched[o * lanes + l];
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "mode {mode:?} lanes {lanes} lane {l} output {o}: \
                         scalar {a} ({:016x}) vs batched {b} ({:016x})",
                        a.to_bits(),
                        b.to_bits()
                    );
                }
            }
        }
    }

    /// Lane isolation: batching a pack where one lane carries NaN leaves
    /// every other lane's outputs bitwise unchanged.
    #[test]
    fn poisoned_lane_never_leaks_into_siblings(
        exprs in prop::collection::vec(arb_expr(), 1..3),
        width_pick in 1usize..LANE_WIDTHS.len(),
        pack in prop::collection::vec(arb_state(), 17),
        victim_pick in 0usize..17,
    ) {
        let lanes = LANE_WIDTHS[width_pick];
        let pack = &pack[..lanes];
        let victim = victim_pick % lanes;
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
        let program = compile_roots(&dag, &roots, &vars, CseMode::Global);
        let n_out = roots.len();
        let gather = |pack: &[[f64; 3]]| {
            let mut ys = vec![0.0; VARS.len() * lanes];
            for (l, y) in pack.iter().enumerate() {
                for (i, v) in y.iter().enumerate() {
                    ys[i * lanes + l] = *v;
                }
            }
            ys
        };
        let clean = gather(pack);
        let mut poisoned_pack = pack.to_vec();
        poisoned_pack[victim] = [f64::NAN, f64::NAN, f64::NAN];
        let poisoned = gather(&poisoned_pack);
        let mut out_clean = vec![0.0; n_out * lanes];
        let mut out_poisoned = vec![0.0; n_out * lanes];
        execute_batch(&program, 0.5, &clean, &[], &mut out_clean, lanes);
        execute_batch(&program, 0.5, &poisoned, &[], &mut out_poisoned, lanes);
        for o in 0..n_out {
            for l in 0..lanes {
                if l == victim {
                    continue;
                }
                let a = out_clean[o * lanes + l];
                let b = out_poisoned[o * lanes + l];
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "lane {l} output {o} changed when lane {victim} was poisoned: \
                     {a} ({:016x}) vs {b} ({:016x})",
                    a.to_bits(),
                    b.to_bits()
                );
            }
        }
    }
}
