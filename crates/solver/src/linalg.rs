//! Linear algebra for the implicit solvers: one band-limited LU.
//!
//! The Newton iteration of BDF methods solves `(I − h·β·J)·Δ = r` each
//! iteration; LU factorization with partial pivoting is reused across
//! iterations (and across steps until the Jacobian is refreshed), which
//! is where the paper's "quadratic speedup thanks to a smaller Jacobian
//! matrix" for partitioned systems comes from (§2.3).
//!
//! There is one elimination kernel, parameterised by the bandwidths
//! `(kl, ku)` of the matrix: pivot search and row updates touch `kl` rows
//! below the diagonal, and — because a row interchange can pull a row's
//! `ku` superdiagonals up by `kl` — `kl + ku` columns to its right. A
//! factorization costs O(n·kl·(kl+ku)) and a solve O(n·(2kl+ku)); a
//! tridiagonal system is O(n). The dense case is `(n−1, n−1)` through the
//! same loops (O(n³) / O(n²)), not a second routine.
//!
//! **The band limit changes no digit.** Outside the band every entry is
//! exactly zero, so each operation the limits skip is `l = 0/p` (a zero
//! multiplier), `a −= l·0` or `a −= 0·u` — the identity on `a` for finite
//! data — and a zero never wins the pivot search (`|0| > best` is false).
//! The pivot sequence, every multiplier and every stored digit therefore
//! equal what the full-bandwidth loops produce; the tests pin it bit for
//! bit, row interchanges included.

// Kernels are written with explicit indices on purpose: the row/column
// loop form mirrors the textbook algorithms.
#![allow(clippy::needless_range_loop)]

use crate::ode::SolveError;

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    pub n_rows: usize,
    pub n_cols: usize,
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Matrix {
        Matrix {
            n_rows,
            n_cols,
            data: vec![0.0; n_rows * n_cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice.
    pub fn from_rows(n_rows: usize, n_cols: usize, data: &[f64]) -> Matrix {
        assert_eq!(data.len(), n_rows * n_cols);
        Matrix {
            n_rows,
            n_cols,
            data: data.to_vec(),
        }
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        let mut out = vec![0.0; self.n_rows];
        for i in 0..self.n_rows {
            let row = &self.data[i * self.n_cols..(i + 1) * self.n_cols];
            out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Smallest `(kl, ku)` with every non-zero entry inside the band: one
    /// pass over the entries outside the band found so far.
    fn bandwidth(&self) -> (usize, usize) {
        // `v != 0.0` on the bit pattern (sign shifted out), OR-reduced
        // with no early exit so the pass over a banded matrix's zeros
        // vectorizes.
        let all_zero = |xs: &[f64]| xs.iter().fold(0u64, |acc, v| acc | v.to_bits()) << 1 == 0;
        let n = self.n_rows;
        let (mut kl, mut ku) = (0, 0);
        for (i, row) in self.data.chunks_exact(n.max(1)).enumerate() {
            let below = &row[..i.saturating_sub(kl)];
            if !all_zero(below) {
                kl = i - below.iter().position(|&v| v != 0.0).unwrap_or(i);
            }
            let beyond = (i + ku + 1).min(n);
            if !all_zero(&row[beyond..]) {
                ku = beyond + row[beyond..].iter().rposition(|&v| v != 0.0).unwrap_or(0) - i;
            }
        }
        (kl, ku)
    }

    /// LU-factorize a copy for repeated solves. The elimination is limited
    /// to the matrix's own bandwidth, so a banded matrix costs O(n) to
    /// factor after the O(n²) scan that measures it.
    pub fn lu(&self) -> Result<LuFactors, SolveError> {
        assert_eq!(self.n_rows, self.n_cols, "LU requires a square matrix");
        let n = self.n_rows;
        let (kl, ku) = self.bandwidth();
        let mut factors = LuFactors::zeros(n, kl, ku);
        let w = factors.w;
        for i in 0..n {
            let from = i * n + factors.start(i);
            factors.data[i * w..(i + 1) * w].copy_from_slice(&self.data[from..from + w]);
        }
        factors.factor_in_place()?;
        Ok(factors)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n_cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n_cols + j]
    }
}

/// LU factorization with partial pivoting, `P·A = L·U`, in band storage.
///
/// Row `i` keeps one window of `w = min(n, 2·kl + ku + 1)` consecutive
/// columns starting at `start(i) = min(max(i − kl, 0), n − w)`: room for
/// its `kl` multipliers, the diagonal and the `kl + ku` columns pivoting
/// can fill to the right. At full bandwidth `w = n` and `start = 0`, so
/// the storage *is* the dense row-major matrix.
///
/// Interchanges are recorded per elimination step and replayed on the
/// right-hand side during the forward sweep (multipliers stay in the
/// column they were computed in), which is what lets a swapped row keep
/// its own window.
#[derive(Clone, Debug)]
pub struct LuFactors {
    n: usize,
    kl: usize,
    ku: usize,
    w: usize,
    data: Vec<f64>,
    /// `row_swaps[c]` is the row exchanged with row `c` at step `c`.
    /// Empty until [`LuFactors::factor_in_place`] has run.
    row_swaps: Vec<usize>,
}

#[inline]
fn window_start(i: usize, kl: usize, n: usize, w: usize) -> usize {
    i.saturating_sub(kl).min(n - w)
}

impl LuFactors {
    /// An all-zero `n × n` band matrix to be assembled with
    /// [`LuFactors::entry_mut`] and then factored in place. Bandwidths are
    /// clamped to `n − 1`.
    pub(crate) fn zeros(n: usize, kl: usize, ku: usize) -> LuFactors {
        let kl = kl.min(n.saturating_sub(1));
        let ku = ku.min(n.saturating_sub(1));
        let w = n.min(2 * kl + ku + 1);
        LuFactors {
            n,
            kl,
            ku,
            w,
            data: vec![0.0; n * w],
            row_swaps: Vec::with_capacity(n),
        }
    }

    /// Back to the all-zero unfactored state, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0.0);
        self.row_swaps.clear();
    }

    /// First column of row `i`'s window.
    #[inline]
    fn start(&self, i: usize) -> usize {
        window_start(i, self.kl, self.n, self.w)
    }

    /// Entry `(i, j)` of the matrix being assembled; `(i, j)` must lie in
    /// the band.
    #[inline]
    pub(crate) fn entry_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(
            i <= j + self.kl && j <= i + self.ku,
            "({i}, {j}) outside the band"
        );
        let at = i * self.w + j - self.start(i);
        &mut self.data[at]
    }

    /// Gaussian elimination with partial pivoting over the band.
    pub(crate) fn factor_in_place(&mut self) -> Result<(), SolveError> {
        let (n, kl, ku, w) = (self.n, self.kl, self.ku, self.w);
        self.row_swaps.clear();
        for col in 0..n {
            let last_row = (col + kl).min(n - 1);
            let last_col = (col + kl + ku).min(n - 1);
            let start_col = self.start(col);
            // Pivot: largest magnitude in the column at or below the
            // diagonal (first one wins ties).
            let mut pivot_row = col;
            let mut best = self.data[col * w + col - start_col].abs();
            for row in col + 1..=last_row {
                let v = self.data[row * w + col - self.start(row)].abs();
                if v > best {
                    best = v;
                    pivot_row = row;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(SolveError::SingularJacobian { t: f64::NAN });
            }
            if pivot_row != col {
                let start_pivot = self.start(pivot_row);
                for j in col..=last_col {
                    self.data
                        .swap(col * w + j - start_col, pivot_row * w + j - start_pivot);
                }
            }
            self.row_swaps.push(pivot_row);

            let (head, below) = self.data.split_at_mut((col + 1) * w);
            let pivot = &head[col * w..];
            let diag = pivot[col - start_col];
            let pivot_tail = &pivot[col + 1 - start_col..last_col + 1 - start_col];
            for row in col + 1..=last_row {
                let start_row = window_start(row, kl, n, w);
                let r = &mut below[(row - col - 1) * w..(row - col) * w];
                let factor = r[col - start_row] / diag;
                r[col - start_row] = factor;
                let tail = &mut r[col + 1 - start_row..last_col + 1 - start_row];
                for (a, &u) in tail.iter_mut().zip(pivot_tail) {
                    *a -= factor * u;
                }
            }
        }
        Ok(())
    }

    /// Solve `A·x = b`, returning `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solve `A·x = b` in place: `b` becomes `x`, nothing is allocated.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let (n, kl, ku, w) = (self.n, self.kl, self.ku, self.w);
        assert_eq!(b.len(), n);
        assert_eq!(self.row_swaps.len(), n, "solve before factorization");
        // Forward sweep: replay each step's interchange, then eliminate
        // its column (L has unit diagonal).
        for col in 0..n {
            b.swap(col, self.row_swaps[col]);
            let x = b[col];
            for row in col + 1..=(col + kl).min(n - 1) {
                b[row] -= self.data[row * w + col - self.start(row)] * x;
            }
        }
        // Back substitution over the (pivot-widened) upper band.
        for i in (0..n).rev() {
            let start = self.start(i);
            let row = &self.data[i * w..(i + 1) * w];
            let last_col = (i + kl + ku).min(n - 1);
            let mut acc = b[i];
            for (u, x) in row[i + 1 - start..last_col + 1 - start]
                .iter()
                .zip(&b[i + 1..])
            {
                acc -= u * x;
            }
            b[i] = acc / row[i - start];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let a = Matrix::identity(3);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0]);
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_small_system_exactly() {
        // [2 1; 1 3]·x = [5; 10] → x = [1; 3]
        let a = Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let x = a.lu().unwrap().solve(&[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a[0][0] = 0 requires a row swap.
        let a = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = a.lu().unwrap().solve(&[3.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(a.lu(), Err(SolveError::SingularJacobian { .. })));
    }

    #[test]
    fn residual_is_small_for_random_like_matrix() {
        // Fixed pseudo-random (deterministic) 5×5 system; check A·x ≈ b.
        let n = 5;
        let mut a = Matrix::zeros(n, n);
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = a.lu().unwrap().solve(&b);
        let r = a.mul_vec(&x);
        for i in 0..n {
            assert!(
                (r[i] - b[i]).abs() < 1e-12,
                "residual {i}: {} vs {}",
                r[i],
                b[i]
            );
        }
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = Matrix::from_rows(2, 2, &[3.0, 1.0, 1.0, 2.0]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[9.0, 8.0]);
        let mut b = [9.0, 8.0];
        lu.solve_in_place(&mut b);
        assert_eq!(b.to_vec(), x);
    }

    /// The textbook dense LU this crate shipped before the band kernel —
    /// full-row interchanges, a permuted right-hand side, row-oriented
    /// sweeps over all `n` columns — kept as the oracle the kernel must
    /// match bit for bit.
    fn reference_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let n = a.n_rows;
        let mut a = a.clone();
        let mut pivots: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut pivot_row = col;
            let mut best = a[(col, col)].abs();
            for row in col + 1..n {
                let v = a[(row, col)].abs();
                if v > best {
                    best = v;
                    pivot_row = row;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(SolveError::SingularJacobian { t: f64::NAN });
            }
            if pivot_row != col {
                for j in 0..n {
                    a.data.swap(col * n + j, pivot_row * n + j);
                }
                pivots.swap(col, pivot_row);
            }
            let diag = a[(col, col)];
            for row in col + 1..n {
                let factor = a[(row, col)] / diag;
                a[(row, col)] = factor;
                for j in col + 1..n {
                    let sub = factor * a[(col, j)];
                    a[(row, j)] -= sub;
                }
            }
        }
        let mut x: Vec<f64> = pivots.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= a[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= a[(i, j)] * x[j];
            }
            x[i] = acc / a[(i, i)];
        }
        Ok(x)
    }

    /// Factor `a` through the kernel at a forced bandwidth.
    fn lu_at(a: &Matrix, kl: usize, ku: usize) -> Result<LuFactors, SolveError> {
        let mut f = LuFactors::zeros(a.n_rows, kl, ku);
        for i in 0..a.n_rows {
            for j in i.saturating_sub(kl)..=(i + ku).min(a.n_rows - 1) {
                *f.entry_mut(i, j) = a[(i, j)];
            }
        }
        f.factor_in_place()?;
        Ok(f)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn bandwidth_is_measured_from_the_entries() {
        let mut a = Matrix::identity(6);
        assert_eq!(a.bandwidth(), (0, 0));
        a[(4, 1)] = -0.0; // a signed zero is still a zero
        assert_eq!(a.bandwidth(), (0, 0));
        a[(4, 2)] = 1e-300;
        a[(0, 3)] = f64::NAN; // and a NaN is not
        assert_eq!(a.bandwidth(), (2, 3));
        assert_eq!(Matrix::zeros(0, 0).bandwidth(), (0, 0));
        assert!(Matrix::zeros(0, 0).lu().is_ok());
    }

    #[test]
    fn tridiagonal_factors_keep_four_columns_per_row() {
        let n = 128;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 4.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let lu = a.lu().unwrap();
        assert_eq!((lu.kl, lu.ku, lu.data.len()), (1, 1, 4 * n));
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        assert_eq!(bits(&lu.solve(&b)), bits(&reference_solve(&a, &b).unwrap()));
    }

    use proptest::prelude::*;

    proptest! {
        /// Band-limited ≡ full-bandwidth ≡ the textbook dense LU, bit for
        /// bit, on banded matrices whose subdiagonals dominate (so the
        /// pivot search interchanges rows) — and all three agree on which
        /// inputs are singular.
        #[test]
        fn band_kernel_is_bitwise_the_dense_kernel(
            n in 1usize..14,
            kl in 0usize..4,
            ku in 0usize..4,
            values in proptest::collection::vec(-1.0f64..1.0, 14 * 14 + 14),
            dead_column in 0usize..28,
        ) {
            let (kl, ku) = (kl.min(n - 1), ku.min(n - 1));
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                    let v = values[i * 14 + j];
                    // Weak diagonal, strong subdiagonals: forces swaps.
                    a[(i, j)] = if i == j { 0.01 * v } else if j < i { 4.0 * v } else { v };
                }
                // A dead column makes the matrix exactly singular.
                if dead_column < n {
                    a[(i, dead_column)] = 0.0;
                }
            }
            let b = &values[14 * 14..14 * 14 + n];

            let banded = lu_at(&a, kl, ku);
            let full = lu_at(&a, n - 1, n - 1);
            let measured = a.lu();
            let reference = reference_solve(&a, b);
            match reference {
                Err(e) => {
                    prop_assert!(matches!(e, SolveError::SingularJacobian { .. }));
                    for got in [banded, full, measured] {
                        prop_assert!(matches!(got, Err(SolveError::SingularJacobian { .. })));
                    }
                }
                Ok(x) => {
                    let (banded, full, measured) =
                        (banded.unwrap(), full.unwrap(), measured.unwrap());
                    prop_assert!(measured.kl <= kl && measured.ku <= ku);
                    prop_assert_eq!(bits(&banded.solve(b)), bits(&x));
                    prop_assert_eq!(bits(&full.solve(b)), bits(&x));
                    prop_assert_eq!(bits(&measured.solve(b)), bits(&x));
                    prop_assert_eq!(&banded.row_swaps, &full.row_swaps);
                    let mut in_place = b.to_vec();
                    banded.solve_in_place(&mut in_place);
                    prop_assert_eq!(bits(&in_place), bits(&x));
                }
            }
        }
    }
}
