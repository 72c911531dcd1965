//! Bytecode interpreter.
//!
//! Straight-line execution over a register file; no jumps, no allocation
//! in the hot loop when the caller supplies a scratch register file via
//! [`execute_batch_with_regs`].
//!
//! There is one instruction body (`run_lanes`), written over a
//! structure-of-arrays register file of K ensemble members (lanes).
//! [`execute_batch_with_regs`] instantiates it twice and picks one per
//! call from the lane count it is passed:
//!
//! * **K lanes**, in chunks of [`LANE_CHUNK`] — each op is a tight loop
//!   over the chunk's lanes, so the per-instruction dispatch cost is
//!   amortized K-fold and the inner loops auto-vectorize.
//! * **One lane**, entered with the literal 1 — an SoA buffer with one
//!   lane *is* the scalar layout (`y[state * 1 + 0]`), so once inlined
//!   every lane loop has trip count one, stride and chunk offset are
//!   constants, and what is left is a plain scalar interpreter: what
//!   [`execute`], the in-thread serial RHS and every pool worker run.
//!
//! Folding changes how an element is addressed, never what is computed:
//! at every lane count each lane performs the same f64 operations in the
//! same order with no cross-lane arithmetic, so a K-lane result is
//! bitwise identical to K one-lane executions.

use crate::bytecode::{Instr, Program};

/// Lanes per register-file chunk in batched execution. Chunking keeps
/// the live register working set (`n_regs × LANE_CHUNK × 8` bytes)
/// L1-resident even for wide batches, while the inner loops stay
/// contiguous (stride 1 along lanes) for the auto-vectorizer.
pub const LANE_CHUNK: usize = 8;

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
    let mut regs = vec![0.0f64; p.n_regs as usize * LANE_CHUNK.min(lanes.max(1))];
    execute_batch_with_regs(p, t, y, shared, out, &mut regs, lanes);
}

/// Like [`execute_batch`] but reusing a caller-provided register file of
/// at least `p.n_regs * min(LANE_CHUNK, lanes)` values. The register
/// file is chunk-local: lanes are processed [`LANE_CHUNK`] at a time and
/// registers are laid out `regs[reg * chunk_stride + lane_in_chunk]`.
pub fn execute_batch_with_regs(
    p: &Program,
    t: f64,
    y: &[f64],
    shared: &[f64],
    out: &mut [f64],
    regs: &mut [f64],
    lanes: usize,
) {
    assert!(lanes > 0, "batch must have at least one lane");
    let stride = LANE_CHUNK.min(lanes);
    assert!(
        regs.len() >= p.n_regs as usize * stride,
        "register file too small"
    );
    assert_eq!(
        out.len(),
        p.outputs.len() * lanes,
        "output buffer length mismatch"
    );
    if lanes == 1 {
        // Literal arguments: after inlining, every lane loop has trip
        // count one and the SoA indices reduce to scalar ones.
        run_lanes(p, t, y, shared, out, regs, 1, 0, 1, 1);
    } else {
        let mut c0 = 0;
        while c0 < lanes {
            let cw = (lanes - c0).min(LANE_CHUNK);
            run_lanes(p, t, y, shared, out, regs, lanes, c0, cw, stride);
            c0 += cw;
        }
    }
}

/// The instruction body: every instruction loops over `cw ≤ LANE_CHUNK`
/// lanes starting at batch lane `c0`. Inlined into each call site so the
/// one-lane entry folds to scalar code; the per-lane operation sequence
/// is the same at every lane count (bitwise identity depends on it).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_lanes(
    p: &Program,
    t: f64,
    y: &[f64],
    shared: &[f64],
    out: &mut [f64],
    regs: &mut [f64],
    lanes: usize,
    c0: usize,
    cw: usize,
    stride: usize,
) {
    let at = |r: u32| r as usize * stride;
    for instr in &p.instrs {
        match *instr {
            Instr::Const { dst, idx } => {
                let v = p.consts[idx as usize];
                for l in 0..cw {
                    regs[at(dst) + l] = v;
                }
            }
            Instr::State { dst, idx } => {
                for l in 0..cw {
                    regs[at(dst) + l] = y[idx as usize * lanes + c0 + l];
                }
            }
            Instr::Shared { dst, idx } => {
                for l in 0..cw {
                    regs[at(dst) + l] = shared[idx as usize * lanes + c0 + l];
                }
            }
            Instr::Time { dst } => {
                for l in 0..cw {
                    regs[at(dst) + l] = t;
                }
            }
            Instr::Add { dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = regs[at(a) + l] + regs[at(b) + l];
                }
            }
            Instr::Mul { dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = regs[at(a) + l] * regs[at(b) + l];
                }
            }
            Instr::PowI { dst, a, n } => {
                for l in 0..cw {
                    regs[at(dst) + l] = powi(regs[at(a) + l], n);
                }
            }
            Instr::Powf { dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = regs[at(a) + l].powf(regs[at(b) + l]);
                }
            }
            Instr::Call1 { f, dst, a } => {
                for l in 0..cw {
                    regs[at(dst) + l] = f.apply(&[regs[at(a) + l]]);
                }
            }
            Instr::Call2 { f, dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = f.apply(&[regs[at(a) + l], regs[at(b) + l]]);
                }
            }
            Instr::Cmp { op, dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = if op.apply(regs[at(a) + l], regs[at(b) + l]) {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Instr::BoolAnd { dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = if regs[at(a) + l] != 0.0 && regs[at(b) + l] != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Instr::BoolOr { dst, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = if regs[at(a) + l] != 0.0 || regs[at(b) + l] != 0.0 {
                        1.0
                    } else {
                        0.0
                    };
                }
            }
            Instr::BoolNot { dst, a } => {
                for l in 0..cw {
                    regs[at(dst) + l] = if regs[at(a) + l] == 0.0 { 1.0 } else { 0.0 };
                }
            }
            Instr::Select { dst, c, a, b } => {
                for l in 0..cw {
                    regs[at(dst) + l] = if regs[at(c) + l] != 0.0 {
                        regs[at(a) + l]
                    } else {
                        regs[at(b) + l]
                    };
                }
            }
        }
    }
    for (o, &reg) in p.outputs.iter().enumerate() {
        for l in 0..cw {
            out[o * lanes + c0 + l] = regs[at(reg) + l];
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
        execute_batch_with_regs(&p, 0.0, &[7.0], &[], &mut out, &mut regs, 1);
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
        execute_batch_with_regs(&p, 0.0, &[0.5; 16], &[], &mut out, &mut regs, 8);
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
        execute_batch_with_regs(&p, 0.0, &[7.0], &[], &mut out, &mut regs, 1);
    }
}
