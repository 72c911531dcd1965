//! Structural Jacobian patterns: which `∂f_i/∂y_j` can be non-zero.
//!
//! A pattern is what lets the implicit path scale with the number of
//! non-zeros instead of `n²`/`n³`. It drives three things, all derived
//! once here so they cannot disagree:
//!
//! * **column colouring** — two columns may share a finite-difference
//!   perturbation when no row reads both, so a Jacobian costs χ RHS
//!   calls instead of `n` (χ = 3 for a tridiagonal stencil);
//! * **O(nnz) assembly** of the Newton matrix `I − h·b·J`;
//! * **bandwidths** `(kl, ku)` that bound the LU elimination loops.
//!
//! The dense case is not special: [`Sparsity::dense`] is the pattern with
//! every entry set, `n` singleton colour groups and bandwidth
//! `(n−1, n−1)`, and runs through the same code.

/// An `n × n` structural sparsity pattern with its column colouring and
/// bandwidths. Immutable once built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sparsity {
    n: usize,
    /// CSC: the rows of column `j` are `rows[col_ptr[j]..col_ptr[j + 1]]`,
    /// ascending.
    col_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Colour classes: every column appears in exactly one group, and no
    /// two columns of a group share a row.
    groups: Vec<Vec<usize>>,
    kl: usize,
    ku: usize,
}

impl Sparsity {
    /// Build from per-row column lists: `rows[i]` holds every `j` with
    /// `∂f_i/∂y_j` structurally non-zero (any order, duplicates allowed).
    ///
    /// # Panics
    /// If a column index is `≥ rows.len()`.
    pub fn from_rows(mut rows: Vec<Vec<usize>>) -> Sparsity {
        let n = rows.len();
        let mut col_ptr = vec![0usize; n + 1];
        let (mut kl, mut ku) = (0, 0);
        for (i, row) in rows.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            for &j in row.iter() {
                assert!(j < n, "sparsity: column {j} out of range for dimension {n}");
                col_ptr[j + 1] += 1;
                kl = kl.max(i.saturating_sub(j));
                ku = ku.max(j.saturating_sub(i));
            }
        }
        for j in 0..n {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut csc = vec![0usize; col_ptr[n]];
        let mut next = col_ptr.clone();
        for (i, row) in rows.iter().enumerate() {
            for &j in row {
                csc[next[j]] = i;
                next[j] += 1;
            }
        }

        // Greedy distance-1 colouring of the column intersection graph in
        // natural order: column `j` takes the smallest colour no column
        // sharing one of its rows already holds.
        let mut colour = vec![usize::MAX; n];
        let mut forbidden = vec![usize::MAX; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for j in 0..n {
            for &r in &csc[col_ptr[j]..col_ptr[j + 1]] {
                for &c in &rows[r] {
                    if colour[c] != usize::MAX {
                        forbidden[colour[c]] = j;
                    }
                }
            }
            let k = (0..groups.len())
                .find(|&k| forbidden[k] != j)
                .unwrap_or(groups.len());
            if k == groups.len() {
                groups.push(Vec::new());
            }
            colour[j] = k;
            groups[k].push(j);
        }
        Sparsity {
            n,
            col_ptr,
            rows: csc,
            groups,
            kl,
            ku,
        }
    }

    /// The full pattern: what a system that reports no structure gets.
    /// Equal to `from_rows` of `n` full rows, built without the O(n³)
    /// colouring pass (every column conflicts with every other).
    pub fn dense(n: usize) -> Sparsity {
        Sparsity {
            n,
            col_ptr: (0..=n).map(|j| j * n).collect(),
            rows: (0..n * n).map(|k| k % n.max(1)).collect(),
            groups: (0..n).map(|j| vec![j]).collect(),
            kl: n.saturating_sub(1),
            ku: n.saturating_sub(1),
        }
    }

    /// System dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structurally non-zero entries.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Lower and upper bandwidth `(kl, ku)`: every entry `(i, j)` has
    /// `i − j ≤ kl` and `j − i ≤ ku`.
    pub fn bandwidth(&self) -> (usize, usize) {
        (self.kl, self.ku)
    }

    /// The colour classes; their count is the number of RHS calls one
    /// finite-difference Jacobian costs.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The rows that read column `j`, ascending.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rows[self.col_ptr[j]..self.col_ptr[j + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn tridiagonal(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| (i.saturating_sub(1)..=(i + 1).min(n - 1)).collect())
            .collect()
    }

    /// No two columns of a group share a row; every column is coloured
    /// exactly once.
    fn assert_valid_colouring(rows: &[Vec<usize>], sp: &Sparsity) {
        let n = rows.len();
        let mut colour = vec![usize::MAX; n];
        for (k, group) in sp.groups().iter().enumerate() {
            assert!(!group.is_empty(), "empty colour group {k}");
            for &j in group {
                assert_eq!(colour[j], usize::MAX, "column {j} coloured twice");
                colour[j] = k;
            }
        }
        assert!(colour.iter().all(|&c| c != usize::MAX), "uncoloured column");
        for (i, row) in rows.iter().enumerate() {
            let cols: BTreeSet<usize> = row.iter().copied().collect();
            let colours: BTreeSet<usize> = cols.iter().map(|&j| colour[j]).collect();
            assert_eq!(
                colours.len(),
                cols.len(),
                "row {i}: two columns share a colour"
            );
        }
    }

    #[test]
    fn tridiagonal_needs_three_colours_and_unit_bandwidth() {
        let rows = tridiagonal(128);
        let sp = Sparsity::from_rows(rows.clone());
        assert_eq!(sp.groups().len(), 3);
        assert_eq!(sp.bandwidth(), (1, 1));
        assert_eq!(sp.nnz(), 3 * 128 - 2);
        assert_eq!(sp.col_rows(5), &[4, 5, 6]);
        assert_valid_colouring(&rows, &sp);
    }

    #[test]
    fn dense_is_the_n_colour_full_bandwidth_pattern() {
        for n in [0usize, 1, 2, 7] {
            let full: Vec<Vec<usize>> = (0..n).map(|_| (0..n).collect()).collect();
            assert_eq!(Sparsity::dense(n), Sparsity::from_rows(full), "n = {n}");
        }
    }

    #[test]
    fn empty_columns_are_still_coloured() {
        // Column 1 is read by nobody; it must still sit in some group.
        let rows = vec![vec![0], vec![0, 2], vec![2]];
        let sp = Sparsity::from_rows(rows.clone());
        assert_valid_colouring(&rows, &sp);
        assert!(sp.col_rows(1).is_empty());
    }

    proptest! {
        #[test]
        fn colouring_is_valid_on_random_patterns(
            n in 1usize..24,
            picks in proptest::collection::vec((0usize..24, 0usize..24), 0..120),
        ) {
            let mut rows = vec![Vec::new(); n];
            for (i, j) in picks {
                rows[i % n].push(j % n);
            }
            let sp = Sparsity::from_rows(rows.clone());
            assert_valid_colouring(&rows, &sp);
            let nnz: usize = rows
                .iter()
                .map(|r| r.iter().collect::<BTreeSet<_>>().len())
                .sum();
            prop_assert_eq!(sp.nnz(), nnz);
            let (kl, ku) = sp.bandwidth();
            for (i, row) in rows.iter().enumerate() {
                for &j in row {
                    prop_assert!(i <= j + kl && j <= i + ku);
                }
            }
        }
    }
}
