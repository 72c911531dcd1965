//! Algebraic simplification.
//!
//! The simplifier rewrites an expression into a *canonical form*:
//!
//! * nested sums/products are flattened,
//! * constants are folded (including function applications on constants),
//! * in a product, the numeric coefficient is collected into a single
//!   leading constant and equal bases are merged into powers
//!   (`x·x → x²`, `x^a·x^b → x^(a+b)` for constant exponents),
//! * in a sum, structurally equal terms are collected
//!   (`2x + 3x → 5x`),
//! * n-ary operands are sorted by the canonical order of [`crate::visit::compare`],
//! * trivial identities are applied (`x+0`, `x·1`, `x·0`, `x^1`, `x^0`,
//!   `1^x`, `if true … `, boolean constant folding).
//!
//! Canonical form is what makes common-subexpression elimination effective
//! in `om-codegen`: two occurrences of the same mathematical subterm hash
//! identically after simplification.
//!
//! Simplification never changes the value of an expression (up to floating
//! point re-association on *constant* operands only — variable terms are
//! reordered but additions/multiplications of runtime values keep their
//! grouping semantics because `Add`/`Mul` are n-ary and evaluated in
//! canonical order both before and after).
//!
//! **Cost and association.** An n-ary node is canonicalised in one pass
//! over its *flattened* operand list — nested same-head operands are
//! descended in place, each leaf is simplified once — so a nesting chain
//! of depth n costs n leaf simplifications plus one O(n log n) sort, not
//! one re-canonicalisation per level. Numeric weights (like-term
//! coefficients, like-base exponents, the additive constant, the
//! multiplicative coefficient) combine left to right in that flattened
//! order; emitted code is pinned to this association (DESIGN.md, "The
//! scalarized compile path").

use crate::expr::{Expr, Func};
use crate::visit::compare;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Simplify an expression into canonical form. Idempotent.
pub fn simplify(e: &Expr) -> Expr {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Der(_) => e.clone(),
        Expr::Add(_) => simplify_add(e),
        Expr::Mul(_) => simplify_mul(e),
        Expr::Pow(a, b) => simplify_pow(simplify(a), simplify(b)),
        Expr::Call(f, args) => simplify_call(*f, args.iter().map(simplify).collect()),
        Expr::Cmp(op, a, b) => {
            let (a, b) = (simplify(a), simplify(b));
            if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
                return Expr::Const(if op.apply(x, y) { 1.0 } else { 0.0 });
            }
            Expr::Cmp(*op, Box::new(a), Box::new(b))
        }
        Expr::And(xs) => simplify_bool(xs, true),
        Expr::Or(xs) => simplify_bool(xs, false),
        Expr::Not(a) => {
            let a = simplify(a);
            match a.as_const() {
                Some(c) => Expr::Const(if c != 0.0 { 0.0 } else { 1.0 }),
                None => Expr::Not(Box::new(a)),
            }
        }
        Expr::If(c, t, e2) => {
            let c = simplify(c);
            let (t, e2) = (simplify(t), simplify(e2));
            match c.as_const() {
                Some(v) if v != 0.0 => t,
                Some(_) => e2,
                None => {
                    if t == e2 {
                        t
                    } else {
                        Expr::If(Box::new(c), Box::new(t), Box::new(e2))
                    }
                }
            }
        }
        Expr::Tuple(xs) => Expr::Tuple(xs.iter().map(simplify).collect()),
    }
}

/// Flatten an n-ary operand list into `out`, simplifying each leaf operand
/// exactly once. A raw nested operand with the same head (`Add` inside
/// `Add`, `Mul` inside `Mul`) is descended in place rather than simplified
/// as a unit, and a leaf that *simplifies* to the same head is already
/// canonical, so its operands are spliced without a second pass. A
/// left-nested chain of depth n therefore costs n leaf simplifications,
/// not one re-canonicalisation per nesting level.
fn flatten_nary(xs: &[Expr], sum: bool, out: &mut Vec<Expr>) {
    for x in xs {
        match (x, sum) {
            (Expr::Add(inner), true) | (Expr::Mul(inner), false) => flatten_nary(inner, sum, out),
            _ => match (simplify(x), sum) {
                (Expr::Add(spliced), true) | (Expr::Mul(spliced), false) => out.extend(spliced),
                (leaf, _) => out.push(leaf),
            },
        }
    }
}

/// Sums the weights of structurally equal keys — coefficients of like
/// terms, exponents of like bases — keeping keys in first-occurrence
/// order and adding weights in encounter order (so constant folding
/// associates exactly as a left-to-right scan would). Short lists are
/// scanned; past [`LikeTerms::SCAN_LIMIT`] keys a structural-hash index
/// takes over, so collecting n operands is O(n), not O(n²) comparisons.
#[derive(Default)]
struct LikeTerms {
    items: Vec<(Expr, f64)>,
    /// Structural hash → slots of `items` with that hash; empty until the
    /// scan limit is crossed.
    index: HashMap<u64, Vec<usize>>,
}

impl LikeTerms {
    const SCAN_LIMIT: usize = 8;

    fn hash_of(key: &Expr) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    fn add(&mut self, key: Expr, weight: f64) {
        if self.items.len() < Self::SCAN_LIMIT {
            match self.items.iter_mut().find(|(k, _)| *k == key) {
                Some((_, w)) => *w += weight,
                None => self.items.push((key, weight)),
            }
            return;
        }
        if self.index.is_empty() {
            for (slot, (k, _)) in self.items.iter().enumerate() {
                self.index.entry(Self::hash_of(k)).or_default().push(slot);
            }
        }
        let slots = self.index.entry(Self::hash_of(&key)).or_default();
        match slots.iter().find(|&&slot| self.items[slot].0 == key) {
            Some(&slot) => self.items[slot].1 += weight,
            None => {
                slots.push(self.items.len());
                self.items.push((key, weight));
            }
        }
    }
}

fn simplify_add(e: &Expr) -> Expr {
    let mut terms = Vec::new();
    flatten_nary(std::slice::from_ref(e), true, &mut terms);

    // Collect like terms: map each term to (coefficient, core) and sum the
    // coefficients of structurally equal cores.
    let mut constant = 0.0;
    let mut collected = LikeTerms::default();
    for t in terms {
        if let Some(c) = t.as_const() {
            constant += c;
            continue;
        }
        let (coeff, core) = split_coefficient(t);
        collected.add(core, coeff);
    }

    let mut result: Vec<Expr> = Vec::with_capacity(collected.items.len() + 1);
    for (core, coeff) in collected.items {
        if coeff == 0.0 {
            continue;
        }
        result.push(attach_coefficient(coeff, core));
    }
    result.sort_by(compare);
    if constant != 0.0 || result.is_empty() {
        result.insert(0, Expr::Const(constant));
    }
    if result.len() == 1 {
        result.pop().expect("nonempty")
    } else {
        Expr::Add(result)
    }
}

/// Split a (simplified) term into `(numeric coefficient, residual core)`.
/// `3·x·y → (3, x·y)`, `x → (1, x)`.
fn split_coefficient(t: Expr) -> (f64, Expr) {
    match t {
        Expr::Mul(xs) => {
            let mut coeff = 1.0;
            let mut rest: Vec<Expr> = Vec::with_capacity(xs.len());
            for x in xs {
                match x.as_const() {
                    Some(c) => coeff *= c,
                    None => rest.push(x),
                }
            }
            let core = match rest.len() {
                0 => Expr::Const(1.0),
                1 => rest.pop().expect("nonempty"),
                _ => Expr::Mul(rest),
            };
            (coeff, core)
        }
        other => (1.0, other),
    }
}

fn attach_coefficient(coeff: f64, core: Expr) -> Expr {
    if core.is_const(1.0) {
        return Expr::Const(coeff);
    }
    if coeff == 1.0 {
        return core;
    }
    match core {
        Expr::Mul(mut xs) => {
            xs.insert(0, Expr::Const(coeff));
            Expr::Mul(xs)
        }
        other => Expr::Mul(vec![Expr::Const(coeff), other]),
    }
}

fn simplify_mul(e: &Expr) -> Expr {
    let mut factors = Vec::new();
    flatten_nary(std::slice::from_ref(e), false, &mut factors);

    // Merge equal bases: represent each factor as (base, constant exponent)
    // where possible and sum exponents of structurally equal bases.
    let mut coeff = 1.0;
    let mut bases = LikeTerms::default();
    let mut opaque: Vec<Expr> = Vec::new(); // factors with non-constant exponents
    for f in factors {
        if let Some(c) = f.as_const() {
            coeff *= c;
            continue;
        }
        let (base, exp) = match f {
            Expr::Pow(b, e2) => match e2.as_const() {
                Some(c) => (*b, c),
                None => {
                    opaque.push(Expr::Pow(b, e2));
                    continue;
                }
            },
            other => (other, 1.0),
        };
        bases.add(base, exp);
    }

    if coeff == 0.0 {
        // 0 · x = 0. (The compilable subset excludes expressions whose
        // value could be non-finite at this point; the numeric solvers
        // detect non-finite states separately.)
        return Expr::Const(0.0);
    }

    let mut result: Vec<Expr> = Vec::with_capacity(bases.items.len() + opaque.len() + 1);
    for (base, exp) in bases.items {
        if exp == 0.0 {
            continue; // x^0 = 1
        }
        if exp == 1.0 {
            result.push(base);
        } else {
            result.push(Expr::Pow(Box::new(base), Box::new(Expr::Const(exp))));
        }
    }
    result.extend(opaque);
    result.sort_by(compare);
    if coeff != 1.0 || result.is_empty() {
        result.insert(0, Expr::Const(coeff));
    }
    if result.len() == 1 {
        result.pop().expect("nonempty")
    } else {
        Expr::Mul(result)
    }
}

fn simplify_pow(base: Expr, exp: Expr) -> Expr {
    if let (Some(b), Some(e)) = (base.as_const(), exp.as_const()) {
        let v = b.powf(e);
        if v.is_finite() {
            return Expr::Const(v);
        }
    }
    if exp.is_const(0.0) {
        return Expr::Const(1.0);
    }
    if exp.is_const(1.0) {
        return base;
    }
    if base.is_const(1.0) {
        return Expr::Const(1.0);
    }
    // (x^a)^b = x^(a·b) for constant a, b (safe for integer exponents and
    // for the positive bases produced by sqrt-like terms in our models).
    if let Expr::Pow(inner_base, inner_exp) = &base {
        if let (Some(a), Some(b)) = (inner_exp.as_const(), exp.as_const()) {
            return simplify_pow((**inner_base).clone(), Expr::Const(a * b));
        }
    }
    Expr::Pow(Box::new(base), Box::new(exp))
}

fn simplify_call(f: Func, args: Vec<Expr>) -> Expr {
    let consts: Option<Vec<f64>> = args.iter().map(Expr::as_const).collect();
    if let Some(vals) = consts {
        let v = f.apply(&vals);
        if v.is_finite() {
            return Expr::Const(v);
        }
    }
    // A few cheap structural identities.
    match (f, args.first()) {
        (Func::Sin | Func::Tan | Func::Sinh | Func::Tanh | Func::Asin | Func::Atan, Some(a))
            if a.is_const(0.0) =>
        {
            return Expr::Const(0.0)
        }
        (Func::Cos | Func::Cosh, Some(a)) if a.is_const(0.0) => return Expr::Const(1.0),
        (Func::Exp, Some(a)) if a.is_const(0.0) => return Expr::Const(1.0),
        (Func::Ln, Some(a)) if a.is_const(1.0) => return Expr::Const(0.0),
        _ => {}
    }
    Expr::Call(f, args)
}

fn simplify_bool(xs: &[Expr], is_and: bool) -> Expr {
    let mut out: Vec<Expr> = Vec::with_capacity(xs.len());
    for x in xs {
        let s = simplify(x);
        match s.as_const() {
            Some(c) => {
                let truthy = c != 0.0;
                if is_and && !truthy {
                    return Expr::Const(0.0);
                }
                if !is_and && truthy {
                    return Expr::Const(1.0);
                }
                // Neutral element: drop.
            }
            None => out.push(s),
        }
    }
    match out.len() {
        0 => Expr::Const(if is_and { 1.0 } else { 0.0 }),
        1 => out.pop().expect("nonempty"),
        _ => {
            out.sort_by(compare);
            if is_and {
                Expr::And(out)
            } else {
                Expr::Or(out)
            }
        }
    }
}

/// Compare two expressions after simplification; equal canonical forms mean
/// the expressions are structurally identical mathematics.
pub fn canonical_eq(a: &Expr, b: &Expr) -> bool {
    simplify(a) == simplify(b)
}

/// `Ordering` on canonical forms — useful for deterministic output.
pub fn canonical_cmp(a: &Expr, b: &Expr) -> Ordering {
    compare(&simplify(a), &simplify(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::{num, var};

    fn s(e: Expr) -> Expr {
        simplify(&e)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(s(num(2.0) + num(3.0)), num(5.0));
        assert_eq!(s(num(2.0) * num(3.0) * num(4.0)), num(24.0));
        assert_eq!(s(num(2.0).powi(10)), num(1024.0));
        assert_eq!(s(Expr::call1(Func::Cos, num(0.0))), num(1.0));
    }

    #[test]
    fn additive_identities() {
        assert_eq!(s(var("x") + num(0.0)), var("x"));
        assert_eq!(s(var("x") - var("x")), num(0.0));
        assert_eq!(s(num(0.0) + num(0.0)), num(0.0));
    }

    #[test]
    fn multiplicative_identities() {
        assert_eq!(s(var("x") * num(1.0)), var("x"));
        assert_eq!(s(var("x") * num(0.0)), num(0.0));
        assert_eq!(s(var("x") / var("x")), num(1.0));
    }

    #[test]
    fn like_terms_collect() {
        let e = var("x") * num(2.0) + var("x") * num(3.0);
        assert_eq!(s(e), Expr::Mul(vec![num(5.0), var("x")]));
        let e = var("x") + var("x");
        assert_eq!(s(e), Expr::Mul(vec![num(2.0), var("x")]));
    }

    #[test]
    fn like_factors_merge_into_powers() {
        assert_eq!(s(var("x") * var("x")), var("x").powi(2));
        let e = var("x").powi(2) * var("x").powi(3);
        assert_eq!(s(e), var("x").powi(5));
    }

    #[test]
    fn pow_identities() {
        assert_eq!(s(var("x").powi(1)), var("x"));
        assert_eq!(s(var("x").powi(0)), num(1.0));
        assert_eq!(s(num(1.0).pow(var("x"))), num(1.0));
        // (x^2)^3 = x^6
        assert_eq!(s(var("x").powi(2).powi(3)), var("x").powi(6));
    }

    #[test]
    fn sums_are_sorted_canonically() {
        let a = var("b") + var("a") + num(1.0);
        let b = num(1.0) + var("a") + var("b");
        assert_eq!(s(a), s(b));
    }

    #[test]
    fn conditional_folding() {
        let e = Expr::ite(Expr::cmp(CmpOp::Lt, num(1.0), num(2.0)), var("x"), var("y"));
        assert_eq!(s(e), var("x"));
        let e = Expr::ite(var("c"), var("x"), var("x"));
        assert_eq!(s(e), var("x"));
    }

    #[test]
    fn boolean_folding() {
        let t = Expr::cmp(CmpOp::Lt, num(0.0), num(1.0));
        let f = Expr::cmp(CmpOp::Gt, num(0.0), num(1.0));
        assert_eq!(s(Expr::And(vec![t.clone(), f.clone()])), num(0.0));
        assert_eq!(s(Expr::Or(vec![t.clone(), f.clone()])), num(1.0));
        assert_eq!(s(Expr::Not(Box::new(f))), num(1.0));
        // Neutral constants drop out of mixed conjunctions.
        let e = Expr::And(vec![t, Expr::cmp(CmpOp::Gt, var("x"), num(0.0))]);
        assert_eq!(s(e), Expr::cmp(CmpOp::Gt, var("x"), num(0.0)));
    }

    #[test]
    fn simplify_is_idempotent_on_samples() {
        let samples = [
            var("x") * num(2.0) + var("y") / var("x") - Expr::call1(Func::Sin, var("t")),
            (var("a") + var("b")) * (var("a") - var("b")),
            var("x").powi(2) * var("x") + var("x") * num(0.0),
            Expr::ite(
                Expr::cmp(CmpOp::Gt, var("p"), num(0.0)),
                var("p").powi(3),
                num(0.0),
            ),
        ];
        for e in samples {
            let once = simplify(&e);
            let twice = simplify(&once);
            assert_eq!(once, twice, "not idempotent for {e:?}");
        }
    }

    #[test]
    fn division_cancels() {
        // (2x) / x = 2
        let e = (num(2.0) * var("x")) / var("x");
        assert_eq!(s(e), num(2.0));
    }

    #[test]
    fn zero_coefficient_sum_collapses() {
        // x·y - x·y + 7 = 7
        let e = var("x") * var("y") - var("x") * var("y") + num(7.0);
        assert_eq!(s(e), num(7.0));
    }

    /// The quadratic like-term collection `LikeTerms` replaced: a linear
    /// `find` per operand. Kept as the reference the index must match.
    fn collect_quadratic(pairs: &[(Expr, f64)]) -> Vec<(Expr, f64)> {
        let mut collected: Vec<(Expr, f64)> = Vec::new();
        for (key, weight) in pairs {
            match collected.iter_mut().find(|(k, _)| k == key) {
                Some((_, existing)) => *existing += weight,
                None => collected.push((key.clone(), *weight)),
            }
        }
        collected
    }

    /// Near-identical cores, the shape inlined rollers have: equal down to
    /// one leaf.
    fn core(i: usize) -> Expr {
        let v = var(&format!("k{i}"));
        match i % 3 {
            0 => v,
            1 => Expr::call1(Func::Sin, v),
            _ => Expr::Mul(vec![Expr::call1(Func::Cos, v.clone()), v.powi(2)]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Past the scan limit the hash index takes over; on more than a
        /// thousand distinct cores it must keep the reference's order and
        /// add weights in the reference's association, bit for bit.
        #[test]
        fn like_terms_agree_with_the_quadratic_reference(
            distinct in 1001usize..1300,
            repeats in proptest::collection::vec((0usize..1300, -40i32..40), 1300..1301),
        ) {
            let mut pairs = Vec::new();
            for (i, &(j, w)) in repeats.iter().take(distinct).enumerate() {
                pairs.push((core(i), 0.1 * (i % 7) as f64 - 0.3));
                pairs.push((core(j % distinct), 0.1 * f64::from(w)));
            }
            let mut indexed = LikeTerms::default();
            for (key, weight) in &pairs {
                indexed.add(key.clone(), *weight);
            }
            let reference = collect_quadratic(&pairs);
            proptest::prop_assert_eq!(indexed.items.len(), distinct);
            proptest::prop_assert_eq!(indexed.items, reference);
        }
    }
}
