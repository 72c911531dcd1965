//! Loop-kernel properties: an array-loop task runs its iterations as the
//! lanes of one VM block, and must be bitwise (`to_bits`) equal to its
//! element-wise expansion — one plain task per iteration with the patched
//! `State` loads repointed, the shape the scalarized oracle compiles.
//!
//! Covered: trip counts around the block width ([`LOOP_BLOCK`] ± 1) and
//! two chunk sizes the array-aware heat1d produces; contiguous (affine
//! stride 1), strided (affine stride −3) and scattered (`Pattern::Set`)
//! reads; one and several outputs per iteration; 1, 3, 8 and 17 lanes;
//! bodies with calls, integer powers and selects, random ones and the
//! heat1d reaction stencil. A NaN planted in one cell stays in that cell.

use om_analysis::Pattern;
use om_codegen::bytecode::{compile_roots, Instr, Program, VarRef};
use om_codegen::task::{deriv_run, CompiledTask, LoopInfo, OutSlot};
use om_codegen::vm::LOOP_BLOCK;
use om_codegen::{BatchScratch, CodeGenerator, CseMode, Dag, TaskGraph};
use om_expr::expr::{CmpOp, Expr, Func};
use om_expr::{simplify, Symbol};
use proptest::prelude::*;
use std::collections::HashMap;

const TRIPS: [usize; 6] = [1, LOOP_BLOCK - 1, LOOP_BLOCK, LOOP_BLOCK + 1, 1000, 1024];
const LANES: [usize; 4] = [1, 3, 8, 17];

/// `x` and `y` are read through the patch table, `z` is loop-invariant.
const VARS: [&str; 3] = ["x", "y", "z"];

/// How a patched variable's slot moves with the iteration.
#[derive(Clone, Copy, Debug)]
enum Rows {
    /// `base + k`: affine, stride 1 — a contiguous load.
    Contiguous,
    /// `base + 3·(count − 1 − k)`: affine, stride −3 — a gather.
    Strided,
    /// A scrambled order: a `Pattern::Set` from three iterations up.
    Scattered,
}

const ROWS: [Rows; 3] = [Rows::Contiguous, Rows::Strided, Rows::Scattered];

impl Rows {
    /// Slots of `count` iterations, all inside `base..base + 3·count`.
    fn slots(self, base: u32, count: usize) -> Vec<u32> {
        let c = count as u32;
        (0..c)
            .map(|k| {
                base + match self {
                    Rows::Contiguous => k,
                    Rows::Strided => 3 * (c - 1 - k),
                    Rows::Scattered => (k * 7 + 5) % c * 3 + 1,
                }
            })
            .collect()
    }
}

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
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::call2(Func::Max, a, b)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::ite(
                Expr::cmp(CmpOp::Le, c, Expr::Const(0.25)),
                t,
                e
            )),
        ]
    })
}

/// A fixed body with every instruction class the stencils use.
fn mixed_body() -> Vec<Expr> {
    let v = |s: &str| Expr::Var(Symbol::intern(s));
    vec![
        Expr::ite(
            Expr::cmp(CmpOp::Le, v("x"), Expr::Const(0.25)),
            Expr::call1(Func::Sin, v("x") * v("y")),
            Expr::call2(Func::Max, v("x").powi(3), v("y").powi(-2)),
        ) + v("z") * Expr::Const(0.5),
        Expr::call1(Func::Exp, v("y") * Expr::Const(-1.0)) + v("x") * v("z"),
    ]
}

/// Compile `exprs` with `x`, `y` and `z` reading iteration 0's slots.
fn program(exprs: &[Expr], mode: CseMode, xs: &[u32], ys: &[u32], z: u32) -> Program {
    let mut dag = Dag::new();
    let roots: Vec<_> = exprs
        .iter()
        .map(|e| {
            let r = dag.import(&simplify(e));
            dag.mark_root(r);
            r
        })
        .collect();
    let vars: HashMap<Symbol, VarRef> = [("x", xs[0]), ("y", ys[0]), ("z", z)]
        .into_iter()
        .map(|(n, s)| (Symbol::intern(n), VarRef::State(s)))
        .collect();
    compile_roots(&dag, &roots, &vars, mode)
}

fn task(id: usize, program: Program, writes: Vec<OutSlot>, li: Option<LoopInfo>) -> CompiledTask {
    CompiledTask {
        id,
        label: format!("t{id}"),
        program,
        deriv_run: deriv_run(&writes),
        writes,
        loop_info: li,
        reads_states: Vec::new(),
        reads_shared: Vec::new(),
        reads_time: false,
        static_cost: 1,
        cse_count: 0,
    }
}

fn graph(dim: usize, tasks: Vec<CompiledTask>) -> TaskGraph {
    TaskGraph {
        dim,
        n_shared: 0,
        deps: vec![Vec::new(); tasks.len()],
        tasks,
    }
}

/// The loop task over `xs`/`ys` and its element-wise expansion, as two
/// graphs over one state space; iteration `k` writes `k·n .. (k+1)·n`.
fn loop_and_expansion(
    program: &Program,
    xs: &[u32],
    ys: &[u32],
    dim: usize,
) -> (TaskGraph, TaskGraph) {
    let (count, n) = (xs.len(), program.outputs.len());
    // A row simplification dropped from the body has no load to patch.
    let patches: Vec<(u32, Vec<u32>)> = [xs, ys]
        .into_iter()
        .filter_map(|rows| Some((program.find_state_load(rows[0])? as u32, rows.to_vec())))
        .collect();
    let expansion = (0..count)
        .map(|k| {
            let mut p = program.clone();
            for (i, rows) in &patches {
                if let Instr::State { idx, .. } = &mut p.instrs[*i as usize] {
                    *idx = rows[k];
                }
            }
            task(
                k,
                p,
                (k * n..(k + 1) * n).map(OutSlot::Deriv).collect(),
                None,
            )
        })
        .collect();
    let out_slots: Vec<u32> = (0..count).map(|k| (k * n) as u32).collect();
    let li = LoopInfo::new(program, patches, &out_slots);
    let writes = (0..count * n).map(OutSlot::Deriv).collect();
    (
        graph(dim, vec![task(0, program.clone(), writes, Some(li))]),
        graph(dim, expansion),
    )
}

/// A deterministic SoA state over `dim` slots × `lanes` members.
fn soa_state(dim: usize, lanes: usize) -> Vec<f64> {
    (0..dim * lanes)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 16.0 - 3.0)
        .collect()
}

fn eval(g: &TaskGraph, ys: &[f64], lanes: usize) -> Vec<f64> {
    let mut dydt = vec![0.0; g.dim * lanes];
    g.eval_batch(0.3, ys, &mut dydt, &mut BatchScratch::new(g, lanes));
    dydt
}

/// First slot where the two evaluations differ in any bit.
fn first_difference(a: &[f64], b: &[f64]) -> Option<(usize, f64, f64)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find(|(_, (x, y))| x.to_bits() != y.to_bits())
        .map(|(i, (x, y))| (i, *x, *y))
}

/// Build the case and compare; `None` when bitwise equal.
fn mismatch(
    exprs: &[Expr],
    mode: CseMode,
    count: usize,
    (xr, yr): (Rows, Rows),
    lanes: usize,
) -> Option<String> {
    let xs = xr.slots(0, count);
    let ys = yr.slots(3 * count as u32, count);
    let z = 6 * count as u32;
    let p = program(exprs, mode, &xs, &ys, z);
    let dim = (z as usize + 1).max(count * p.outputs.len());
    let (looped, expansion) = loop_and_expansion(&p, &xs, &ys, dim);
    let state = soa_state(dim, lanes);
    first_difference(
        &eval(&looped, &state, lanes),
        &eval(&expansion, &state, lanes),
    )
    .map(|(i, a, b)| {
        format!(
            "trips {count} rows {xr:?}/{yr:?} lanes {lanes} mode {mode:?}: slot {} lane {}: \
                 loop {a} ({:016x}) vs expansion {b} ({:016x})",
            i / lanes,
            i % lanes,
            a.to_bits(),
            b.to_bits()
        )
    })
}

#[test]
fn read_patterns_cover_every_load_kind() {
    for count in [3, 1000] {
        assert!(
            matches!(Pattern::from_slots(&Rows::Contiguous.slots(0, count)), Pattern::Affine(a) if a.stride == 1)
        );
        assert!(
            matches!(Pattern::from_slots(&Rows::Strided.slots(0, count)), Pattern::Affine(a) if a.stride == -3)
        );
        assert!(matches!(
            Pattern::from_slots(&Rows::Scattered.slots(0, count)),
            Pattern::Set(_)
        ));
    }
}

/// Every trip count × lane count × load kind, one and two outputs.
#[test]
fn every_trip_count_lane_count_and_load_kind_matches_the_expansion() {
    let body = mixed_body();
    let pairs = [
        (Rows::Contiguous, Rows::Contiguous),
        (Rows::Strided, Rows::Scattered),
        (Rows::Scattered, Rows::Contiguous),
    ];
    for count in TRIPS {
        for lanes in LANES {
            for rows in pairs {
                for outputs in [&body[..1], &body[..]] {
                    if let Some(m) = mismatch(outputs, CseMode::PerTask, count, rows, lanes) {
                        panic!("{m}");
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bodies (1–3 outputs) × trip count × read patterns × lanes ×
    /// CSE mode.
    #[test]
    fn random_loop_bodies_match_their_expansion(
        exprs in prop::collection::vec(arb_expr(), 1..4),
        trip in 0usize..TRIPS.len(),
        xr in 0usize..ROWS.len(),
        yr in 0usize..ROWS.len(),
        lane in 0usize..LANES.len(),
        mode in 0usize..3,
    ) {
        let mode = [CseMode::Off, CseMode::PerTask, CseMode::Global][mode];
        let m = mismatch(&exprs, mode, TRIPS[trip], (ROWS[xr], ROWS[yr]), LANES[lane]);
        prop_assert!(m.is_none(), "{}", m.unwrap_or_default());
    }
}

/// A NaN in one cell's state reaches that cell's outputs (the second
/// reads `x` arithmetically; `max` in the first may drop it) and no
/// other iteration's or member's.
#[test]
fn a_poisoned_cell_stays_in_its_own_iteration() {
    let count = 300;
    let xs = Rows::Contiguous.slots(0, count);
    let ys = Rows::Scattered.slots(3 * count as u32, count);
    let p = program(&mixed_body(), CseMode::PerTask, &xs, &ys, 6 * count as u32);
    let dim = 6 * count + 1;
    let (looped, _) = loop_and_expansion(&p, &xs, &ys, dim);
    let n = p.outputs.len();
    for lanes in LANES {
        let clean = soa_state(dim, lanes);
        let before = eval(&looped, &clean, lanes);
        let (cell, member) = (LOOP_BLOCK + 7, lanes / 2);
        let mut poisoned = clean.clone();
        poisoned[xs[cell] as usize * lanes + member] = f64::NAN;
        let after = eval(&looped, &poisoned, lanes);
        for k in 0..count {
            for o in 0..n {
                for m in 0..lanes {
                    let i = (k * n + o) * lanes + m;
                    if (k, m) == (cell, member) {
                        assert!(
                            o == 0 || after[i].is_nan(),
                            "lanes {lanes}: output {o} is {}",
                            after[i]
                        );
                    } else {
                        assert_eq!(
                            before[i].to_bits(),
                            after[i].to_bits(),
                            "lanes {lanes} iteration {k} output {o} member {m}"
                        );
                    }
                }
            }
        }
    }
}

/// The heat1d reaction stencil (`exp`, squares) compiled array-aware is
/// bitwise the scalarized oracle at every lane count, with chunk trip
/// counts just past the block width.
#[test]
fn heat1d_reaction_loop_tasks_match_the_scalarized_oracle() {
    let cells = 8 * (LOOP_BLOCK + 1) + 2;
    let src = om_models::heat1d::source_distributed(&om_models::heat1d::HeatConfig {
        cells,
        velocity: 0.4,
        reaction_terms: 2,
        ..Default::default()
    });
    let aware = om_ir::causalize(&om_lang::compile_arrays(&src).unwrap()).unwrap();
    let oracle = om_ir::causalize(&om_lang::compile(&src).unwrap()).unwrap();
    let ga = CodeGenerator::default().generate(&aware).graph;
    let go = CodeGenerator::default().generate(&oracle).graph;
    let loops: Vec<_> = ga
        .tasks
        .iter()
        .filter_map(|t| t.loop_info.as_ref().map(|li| (t, li)))
        .collect();
    assert_eq!(loops.len(), 8, "the interior must classify into 8 chunks");
    assert!(loops
        .iter()
        .all(|(_, li)| li.count as usize == LOOP_BLOCK + 1));
    let (body, _) = loops[0];
    assert!(body
        .program
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::Call1 { .. })));
    assert!(body
        .program
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::PowI { .. })));
    let y0 = aware.initial_state();
    for lanes in LANES {
        let ys: Vec<f64> = (0..cells * lanes)
            .map(|i| y0[i / lanes] + 0.01 * (i % lanes) as f64)
            .collect();
        let d = first_difference(&eval(&ga, &ys, lanes), &eval(&go, &ys, lanes));
        assert!(d.is_none(), "lanes {lanes}: {d:?}");
    }
}
