//! Bytecode interpreter.
//!
//! Straight-line execution over a register file; no jumps, no allocation
//! in the hot loop when the caller supplies a scratch register file via
//! [`execute_batch_with_regs`].
//!
//! There is one instruction body (`run_lanes`), written over a
//! structure-of-arrays register file whose lane axis is one *block* of
//! `kb` loop iterations × `mw` ensemble members (register `r` of lane
//! (`kk`, `mm`) at `regs[r * stride + kk * mw + mm]`).
//! [`execute_batch_with_regs`] instantiates it once per addressing mode
//! and picks one per call from the lane count and loop payload it is
//! passed:
//!
//! * **K lanes**, one iteration, members in chunks of [`LANE_CHUNK`] —
//!   each op is a tight loop over the chunk's lanes, so the
//!   per-instruction dispatch cost is amortized K-fold and the inner
//!   loops auto-vectorize.
//! * **One lane**, entered with literal block bounds — an SoA buffer with
//!   one lane *is* the scalar layout (`y[state * 1 + 0]`), so once inlined
//!   every lane loop has trip count one and what is left is a plain
//!   scalar interpreter: what [`execute`], the in-thread serial RHS and
//!   every pool worker run for a plain task.
//! * **Loop kernel** — an array-loop task's iterations (× members) are
//!   the lane axis, [`LOOP_BLOCK`] lanes per block. A patched `State`
//!   load reads `y[slots[k]·lanes + m]` through the task's
//!   per-instruction [`Load`] table: one slice copy when the slots are
//!   affine with stride 1, a gather otherwise. Outputs land
//!   iteration-major, `out[(k·n + o)·lanes + m]`.
//!
//! Folding changes how an element is addressed, never what is computed:
//! every lane — member or iteration — performs the same f64 operations in
//! the same order, with no cross-lane arithmetic, so a block's results
//! are bitwise identical to one-lane executions of each (iteration,
//! member) with its loads repointed.

use crate::bytecode::{Instr, Program};
use crate::task::LoopInfo;

/// Lanes per register-file chunk in batched execution. Chunking keeps
/// the live register working set (`n_regs × LANE_CHUNK × 8` bytes)
/// L1-resident even for wide batches, while the inner loops stay
/// contiguous (stride 1 along lanes) for the auto-vectorizer.
pub const LANE_CHUNK: usize = 8;

/// Lanes (iterations × members) per loop-kernel block: wide enough that
/// dispatch is paid once per many cells, narrow enough that a stencil
/// body's registers stay L1-resident (EXPERIMENTS E19 measures 8 to 256).
pub const LOOP_BLOCK: usize = 128;

/// How a loop kernel addresses the `State` load at one instruction
/// index ([`LoopInfo::loads`], built once from the patch table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// Not patched: every iteration reads the instruction's own slot.
    Fixed,
    /// Iteration `k` reads slot `base + k`: one slice copy per block.
    Contiguous(u32),
    /// Iteration `k` reads `patches[p].1[k]`: a gather.
    Gather(u32),
}

/// One block of the lane axis: iterations `k0..k0 + kb` × members
/// `m0..m0 + mw`. Either `kb == 1` or `mw` is every member.
#[derive(Clone, Copy)]
struct Block {
    k0: usize,
    kb: usize,
    m0: usize,
    mw: usize,
}

/// Block shape over `lanes` members, as (iterations, members): a plain
/// program is one iteration in [`LANE_CHUNK`]-member chunks; a loop
/// kernel takes whole iterations while they fit in [`LOOP_BLOCK`] lanes.
fn shape(lanes: usize, loop_task: bool) -> (usize, usize) {
    match loop_task {
        false => (1, LANE_CHUNK),
        true if lanes <= LOOP_BLOCK => (LOOP_BLOCK / lanes, lanes),
        true => (1, LOOP_BLOCK),
    }
}

/// Register-file length that runs a program with `n_regs` registers over
/// `lanes` members; `trips` is an array-loop task's trip count, `None`
/// for a plain program.
pub fn regs_len(n_regs: u32, lanes: usize, trips: Option<usize>) -> usize {
    let (per_block, chunk) = shape(lanes, trips.is_some());
    n_regs as usize * per_block.min(trips.unwrap_or(1)) * chunk.min(lanes)
}

/// Execute `p` for one ensemble member with time `t`, state vector `y`,
/// shared-values array `shared`; writes one value per program output
/// into `out`. The one-lane case of [`execute_batch`].
pub fn execute(p: &Program, t: f64, y: &[f64], shared: &[f64], out: &mut [f64]) {
    execute_batch(p, t, y, shared, out, 1);
}

/// Execute `p` over `lanes` ensemble members at once. All batch buffers
/// are structure-of-arrays with the lane index innermost:
/// `y[state * lanes + lane]`, `shared[slot * lanes + lane]`,
/// `out[output * lanes + lane]`.
pub fn execute_batch(
    p: &Program,
    t: f64,
    y: &[f64],
    shared: &[f64],
    out: &mut [f64],
    lanes: usize,
) {
    let mut regs = vec![0.0f64; regs_len(p.n_regs, lanes.max(1), None)];
    execute_batch_with_regs(p, None, t, y, shared, out, &mut regs, lanes);
}

/// Like [`execute_batch`] but reusing a caller-provided register file of
/// at least [`regs_len`] values. With a loop payload `kernel`, `p` is an
/// array-loop task's body and runs over its `count` iterations × `lanes`
/// members into `out` (`count × outputs × lanes` values, iteration-major).
#[allow(clippy::too_many_arguments)]
pub fn execute_batch_with_regs(
    p: &Program,
    kernel: Option<&LoopInfo>,
    t: f64,
    y: &[f64],
    shared: &[f64],
    out: &mut [f64],
    regs: &mut [f64],
    lanes: usize,
) {
    assert!(lanes > 0, "batch must have at least one lane");
    let count = kernel.map_or(1, |li| li.count as usize);
    let trips = kernel.map(|_| count);
    assert!(
        regs.len() >= regs_len(p.n_regs, lanes, trips),
        "register file too small"
    );
    assert_eq!(
        out.len(),
        count * p.outputs.len() * lanes,
        "output buffer length mismatch"
    );
    if let Some(li) = kernel {
        assert_eq!(li.loads.len(), p.instrs.len(), "load table length mismatch");
    }
    // Literal arguments give every addressing mode its own instantiation;
    // at one lane of a plain program every lane loop has trip count one
    // and the SoA indices reduce to scalar ones.
    let (plain, looped, one) = (shape(lanes, false), shape(lanes, true), (LOOP_BLOCK, 1));
    match kernel {
        None if lanes == 1 => run_blocks(p, None, t, y, shared, out, regs, 1, 1, (1, 1)),
        None => run_blocks(p, None, t, y, shared, out, regs, lanes, 1, plain),
        Some(li) if lanes == 1 => run_blocks(p, Some(li), t, y, shared, out, regs, 1, count, one),
        Some(li) => run_blocks(p, Some(li), t, y, shared, out, regs, lanes, count, looped),
    }
}

/// Walk `count` iterations × `lanes` members in blocks of at most
/// `per_block` iterations × `chunk` members.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_blocks(
    p: &Program,
    kernel: Option<&LoopInfo>,
    t: f64,
    y: &[f64],
    shared: &[f64],
    out: &mut [f64],
    regs: &mut [f64],
    lanes: usize,
    count: usize,
    (per_block, chunk): (usize, usize),
) {
    let stride = per_block.min(count) * chunk.min(lanes);
    let mut k0 = 0;
    while k0 < count {
        let kb = (count - k0).min(per_block);
        let mut m0 = 0;
        while m0 < lanes {
            let mw = (lanes - m0).min(chunk);
            let block = Block { k0, kb, m0, mw };
            run_lanes(p, kernel, t, y, shared, out, regs, lanes, block, stride);
            m0 += mw;
        }
        k0 += kb;
    }
}

/// The instruction body: every instruction loops over the block's
/// `kb × mw` lanes. Inlined into each call site so the one-lane entry
/// folds to scalar code and a plain program (`kernel` literally `None`)
/// carries no load-table lookup; the per-lane operation sequence is the
/// same in every instantiation (bitwise identity depends on it).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_lanes(
    p: &Program,
    kernel: Option<&LoopInfo>,
    t: f64,
    y: &[f64],
    shared: &[f64],
    out: &mut [f64],
    regs: &mut [f64],
    lanes: usize,
    block: Block,
    stride: usize,
) {
    let Block { k0, kb, m0, mw } = block;
    let w = kb * mw;
    let at = |r: u32| r as usize * stride;
    // A per-member operand `src[base + m]`, the same for every iteration
    // of the block.
    let fill = |regs: &mut [f64], dst: u32, src: &[f64], base: usize| {
        for kk in 0..kb {
            for mm in 0..mw {
                regs[at(dst) + kk * mw + mm] = src[base + m0 + mm];
            }
        }
    };
    for (i, instr) in p.instrs.iter().enumerate() {
        match *instr {
            Instr::Const { dst, idx } => {
                let v = p.consts[idx as usize];
                for l in 0..w {
                    regs[at(dst) + l] = v;
                }
            }
            Instr::State { dst, idx } => match kernel.map(|li| (li.loads[i], li)) {
                None | Some((Load::Fixed, _)) => fill(regs, dst, y, idx as usize * lanes),
                Some((Load::Contiguous(base), _)) => {
                    let src = (base as usize + k0) * lanes + m0;
                    regs[at(dst)..at(dst) + w].copy_from_slice(&y[src..src + w]);
                }
                Some((Load::Gather(pi), li)) => {
                    let slots = &li.patches[pi as usize].1[k0..k0 + kb];
                    for (kk, &slot) in slots.iter().enumerate() {
                        let src = slot as usize * lanes + m0;
                        for mm in 0..mw {
                            regs[at(dst) + kk * mw + mm] = y[src + mm];
                        }
                    }
                }
            },
            Instr::Shared { dst, idx } => fill(regs, dst, shared, idx as usize * lanes),
            Instr::Time { dst } => {
                for l in 0..w {
                    regs[at(dst) + l] = t;
                }
            }
            Instr::Add { dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = regs[at(a) + l] + regs[at(b) + l];
                }
            }
            Instr::Mul { dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = regs[at(a) + l] * regs[at(b) + l];
                }
            }
            Instr::PowI { dst, a, n } => {
                for l in 0..w {
                    regs[at(dst) + l] = powi(regs[at(a) + l], n);
                }
            }
            Instr::Powf { dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = regs[at(a) + l].powf(regs[at(b) + l]);
                }
            }
            Instr::Call1 { f, dst, a } => {
                for l in 0..w {
                    regs[at(dst) + l] = f.apply(&[regs[at(a) + l]]);
                }
            }
            Instr::Call2 { f, dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = f.apply(&[regs[at(a) + l], regs[at(b) + l]]);
                }
            }
            Instr::Cmp { op, dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = if op.apply(regs[at(a) + l], regs[at(b) + l]) {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Instr::BoolAnd { dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = if regs[at(a) + l] != 0.0 && regs[at(b) + l] != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Instr::BoolOr { dst, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = if regs[at(a) + l] != 0.0 || regs[at(b) + l] != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Instr::BoolNot { dst, a } => {
                for l in 0..w {
                    regs[at(dst) + l] = if regs[at(a) + l] == 0.0 { 1.0 } else { 0.0 };
                }
            }
            Instr::Select { dst, c, a, b } => {
                for l in 0..w {
                    regs[at(dst) + l] = if regs[at(c) + l] != 0.0 {
                        regs[at(a) + l]
                    } else {
                        regs[at(b) + l]
                    };
                }
            }
        }
    }
    let n = p.outputs.len();
    for (o, &reg) in p.outputs.iter().enumerate() {
        if kernel.is_some() && n == 1 && mw == lanes {
            // One output per iteration, every member: the block's share
            // of `out` is one contiguous run.
            out[k0 * lanes..k0 * lanes + w].copy_from_slice(&regs[at(reg)..at(reg) + w]);
            continue;
        }
        for kk in 0..kb {
            let dst = ((k0 + kk) * n + o) * lanes + m0;
            for mm in 0..mw {
                out[dst + mm] = regs[at(reg) + kk * mw + mm];
            }
        }
    }
}

/// Integer power by repeated multiplication, matching
/// [`om_expr::eval::powf_like_codegen`].
#[inline]
fn powi(base: f64, n: i32) -> f64 {
    let mut acc = 1.0;
    for _ in 0..n.unsigned_abs() {
        acc *= base;
    }
    if n < 0 {
        1.0 / acc
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile_roots, VarRef};
    use crate::cse::CseMode;
    use crate::dag::Dag;
    use om_expr::{num, simplify, var, Symbol};
    use std::collections::HashMap;

    #[test]
    fn powi_matches_reference() {
        assert_eq!(powi(2.0, 10), 1024.0);
        assert_eq!(powi(2.0, -2), 0.25);
        assert_eq!(powi(-3.0, 2), 9.0);
        assert_eq!(powi(5.0, 0), 1.0);
    }

    #[test]
    fn register_file_reuse() {
        let mut dag = Dag::new();
        let root = dag.import(&simplify(&(var("x") * num(3.0))));
        let vars: HashMap<Symbol, VarRef> = [(Symbol::intern("x"), VarRef::State(0))]
            .into_iter()
            .collect();
        let p = compile_roots(&dag, &[root], &vars, CseMode::PerTask);
        let mut regs = vec![0.0; p.n_regs as usize + 8];
        let mut out = vec![0.0];
        execute_batch_with_regs(&p, None, 0.0, &[7.0], &[], &mut out, &mut regs, 1);
        assert_eq!(out[0], 21.0);
    }

    /// A program exercising every instruction class (arithmetic, powers,
    /// transcendental calls, comparisons, boolean ops, select).
    fn mixed_program() -> crate::bytecode::Program {
        use om_expr::expr::{CmpOp, Expr, Func};
        let e = simplify(
            &(Expr::ite(
                Expr::cmp(CmpOp::Le, var("x"), num(0.25)),
                Expr::call1(Func::Sin, var("x") * var("y")),
                Expr::call2(Func::Max, var("x").powi(3), var("y").powi(-2)),
            ) + var("x") * num(0.5)
                + Expr::call1(Func::Exp, var("y") * num(-1.0))),
        );
        let mut dag = Dag::new();
        let root = dag.import(&e);
        dag.mark_root(root);
        let vars: HashMap<Symbol, VarRef> = [
            (Symbol::intern("x"), VarRef::State(0)),
            (Symbol::intern("y"), VarRef::State(1)),
        ]
        .into_iter()
        .collect();
        compile_roots(&dag, &[root], &vars, CseMode::PerTask)
    }

    /// Batched execution is bitwise-identical to per-lane scalar
    /// execution for every lane count, including ragged tails (3, 17)
    /// and the degenerate single lane.
    #[test]
    fn batch_matches_scalar_bitwise_per_lane() {
        let p = mixed_program();
        for lanes in [1usize, 2, 3, 8, 16, 17] {
            // SoA state: y[state * lanes + lane].
            let mut y = vec![0.0f64; 2 * lanes];
            for l in 0..lanes {
                y[l] = -0.9 + 0.31 * l as f64;
                y[lanes + l] = 1.7 - 0.13 * l as f64;
            }
            let mut batched = vec![0.0f64; lanes];
            execute_batch(&p, 0.4, &y, &[], &mut batched, lanes);
            for l in 0..lanes {
                let mut scalar = vec![0.0f64];
                execute(&p, 0.4, &[y[l], y[lanes + l]], &[], &mut scalar);
                assert_eq!(
                    scalar[0].to_bits(),
                    batched[l].to_bits(),
                    "lanes={lanes} lane={l}: scalar {:016x} vs batched {:016x}",
                    scalar[0].to_bits(),
                    batched[l].to_bits()
                );
            }
        }
    }

    /// A NaN in one lane stays in that lane: ops are elementwise, so a
    /// poisoned batch-mate cannot leak into its siblings.
    #[test]
    fn batch_lanes_are_isolated() {
        let p = mixed_program();
        let lanes = 8;
        let mut y = vec![0.5f64; 2 * lanes];
        y[3] = f64::NAN; // lane 3's x
        let mut out = vec![0.0f64; lanes];
        execute_batch(&p, 0.0, &y, &[], &mut out, lanes);
        for (l, v) in out.iter().enumerate() {
            if l == 3 {
                assert!(v.is_nan(), "poisoned lane must stay NaN");
            } else {
                assert!(v.is_finite(), "lane {l} poisoned by a sibling: {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "register file too small")]
    fn undersized_batch_register_file_panics() {
        let p = mixed_program();
        let mut regs = vec![0.0; 1];
        let mut out = vec![0.0; 8];
        execute_batch_with_regs(&p, None, 0.0, &[0.5; 16], &[], &mut out, &mut regs, 8);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lane_batch_panics() {
        let p = mixed_program();
        execute_batch(&p, 0.0, &[], &[], &mut [], 0);
    }

    #[test]
    #[should_panic(expected = "register file too small")]
    fn undersized_register_file_panics() {
        let mut dag = Dag::new();
        let root = dag.import(&simplify(&(var("x") * num(3.0))));
        let vars: HashMap<Symbol, VarRef> = [(Symbol::intern("x"), VarRef::State(0))]
            .into_iter()
            .collect();
        let p = compile_roots(&dag, &[root], &vars, CseMode::PerTask);
        let mut regs = vec![0.0; 0];
        let mut out = vec![0.0];
        execute_batch_with_regs(&p, None, 0.0, &[7.0], &[], &mut out, &mut regs, 1);
    }
}
