//! Incremental re-solve after low-rank updates (Sherman–Morrison–Woodbury).
//!
//! During the power-grid Monte Carlo (Algorithm 1 of the paper), every
//! electromigration failure event changes the resistance of one via array —
//! a rank-1 change `c · u uᵀ` of the conductance matrix, where `u = e_i - e_j`
//! for an internal edge. Re-factoring the full grid after each failure is
//! wasteful; this module keeps the base factorization and accumulates the
//! Woodbury correction
//!
//! `(A + U C Uᵀ)⁻¹ b = A⁻¹ b − Z (C⁻¹ + Uᵀ Z)⁻¹ Uᵀ A⁻¹ b`, with `Z = A⁻¹ U`.
//!
//! Each update costs one base solve plus a small dense factorization; each
//! subsequent system solve costs one base solve plus `O(n·k)` work, where `k`
//! is the number of accumulated updates.

use crate::csr::CsrMatrix;
use crate::dense::{DenseMatrix, LuFactor};
use crate::error::SparseError;
use crate::ldl::{FactorOptions, LdlFactor};

/// A sparse update vector: a short list of `(index, coefficient)` pairs.
pub type UpdateVector = Vec<(usize, f64)>;

/// A factored SPD system that accepts rank-1 updates without refactoring.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), emgrid_sparse::SparseError> {
/// use emgrid_sparse::{TripletMatrix, IncrementalSolver};
///
/// // Two resistors of conductance 1 from node 0 and 1 to ground, plus a
/// // unit conductance between them.
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, 2.0);
/// t.push_sym(0, 1, -1.0);
/// let a = t.to_csr();
/// let mut solver = IncrementalSolver::new(&a)?;
///
/// // Cut the internal conductance (edge 0-1 fails): A += (-1)·u uᵀ.
/// solver.update_edge(0, 1, -1.0)?;
/// let x = solver.solve(&[1.0, 0.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-10); // node 0 now isolated from node 1
/// assert!(x[1].abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    a: CsrMatrix,
    base: LdlFactor,
    /// Factorization configuration reused by [`IncrementalSolver::rebase`].
    opts: FactorOptions,
    n: usize,
    /// Sparse update vectors u_k.
    us: Vec<UpdateVector>,
    /// Scalars c_k in `A + Σ c_k u_k u_kᵀ`.
    cs: Vec<f64>,
    /// Columns of `Z = A⁻¹ U`.
    z: Vec<Vec<f64>>,
    /// LU of the capacitance matrix `S = C⁻¹ + Uᵀ Z`.
    s_lu: Option<LuFactor>,
}

impl IncrementalSolver {
    /// Factors the base matrix with the default [`FactorOptions`] and starts
    /// with no updates.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures from [`LdlFactor::factor_with`].
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        Self::with_options(a, &FactorOptions::default())
    }

    /// [`IncrementalSolver::new`] with explicit factorization options; the
    /// same options are reused on every [`IncrementalSolver::rebase`].
    ///
    /// # Errors
    ///
    /// Propagates factorization failures from [`LdlFactor::factor_with`].
    pub fn with_options(a: &CsrMatrix, opts: &FactorOptions) -> Result<Self, SparseError> {
        let base = LdlFactor::factor_with(a, opts)?;
        Ok(IncrementalSolver {
            a: a.clone(),
            n: a.rows(),
            base,
            opts: *opts,
            us: Vec::new(),
            cs: Vec::new(),
            z: Vec::new(),
            s_lu: None,
        })
    }

    /// Dimension of the system.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the system is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of accumulated rank-1 updates since the last (re)base.
    pub fn rank(&self) -> usize {
        self.us.len()
    }

    /// Adds the rank-1 update `c · u uᵀ` where `u` is given sparsely.
    ///
    /// Coefficients `c > 0` add conductance; `c < 0` removes it (a failure).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for bad indices, and
    /// [`SparseError::Singular`] if the updated system is singular (e.g. the
    /// update disconnects part of the grid from every voltage source).
    /// On error the update is rolled back and the solver stays usable.
    pub fn update(&mut self, u: UpdateVector, c: f64) -> Result<(), SparseError> {
        for &(i, _) in &u {
            if i >= self.n {
                return Err(SparseError::IndexOutOfBounds {
                    index: i,
                    bound: self.n,
                });
            }
        }
        // z_k = A⁻¹ u_k.
        let mut dense_u = vec![0.0; self.n];
        for &(i, v) in &u {
            dense_u[i] += v;
        }
        let zk = self.base.solve(&dense_u);
        self.us.push(u);
        self.cs.push(c);
        self.z.push(zk);
        match self.refresh_capacitance() {
            Ok(()) => Ok(()),
            Err(e) => {
                // Roll back so the solver remains consistent.
                self.us.pop();
                self.cs.pop();
                self.z.pop();
                self.refresh_capacitance().ok();
                Err(e)
            }
        }
    }

    /// Convenience: changes the conductance of the edge `(i, j)` by `delta_g`
    /// (the update `delta_g · (e_i − e_j)(e_i − e_j)ᵀ`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`IncrementalSolver::update`].
    pub fn update_edge(&mut self, i: usize, j: usize, delta_g: f64) -> Result<(), SparseError> {
        self.update(vec![(i, 1.0), (j, -1.0)], delta_g)
    }

    /// Convenience: changes the conductance from node `i` to ground by
    /// `delta_g` (the update `delta_g · e_i e_iᵀ`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`IncrementalSolver::update`].
    pub fn update_ground(&mut self, i: usize, delta_g: f64) -> Result<(), SparseError> {
        self.update(vec![(i, 1.0)], delta_g)
    }

    fn refresh_capacitance(&mut self) -> Result<(), SparseError> {
        let k = self.us.len();
        if k == 0 {
            self.s_lu = None;
            return Ok(());
        }
        let mut s = DenseMatrix::zeros(k, k);
        for (row, u) in self.us.iter().enumerate() {
            for (col, zc) in self.z.iter().enumerate() {
                let mut acc = 0.0;
                for &(i, v) in u {
                    acc += v * zc[i];
                }
                s[(row, col)] = acc;
            }
        }
        for (i, &c) in self.cs.iter().enumerate() {
            if c == 0.0 {
                return Err(SparseError::Singular { column: i });
            }
            s[(i, i)] += 1.0 / c;
        }
        self.s_lu = Some(LuFactor::factor(&s)?);
        Ok(())
    }

    /// Solves the **updated** system `(A + Σ c_k u_k u_kᵀ) x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SparseError> {
        if b.len() != self.n {
            return Err(SparseError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        let y = self.base.solve(b);
        let Some(s_lu) = &self.s_lu else {
            return Ok(y);
        };
        let k = self.us.len();
        // w = Uᵀ y.
        let mut w = vec![0.0; k];
        for (row, u) in self.us.iter().enumerate() {
            w[row] = u.iter().map(|&(i, v)| v * y[i]).sum();
        }
        let t = s_lu.solve(&w)?;
        // x = y − Z t.
        let mut x = y;
        for (col, zc) in self.z.iter().enumerate() {
            let tc = t[col];
            if tc != 0.0 {
                for i in 0..self.n {
                    x[i] -= zc[i] * tc;
                }
            }
        }
        Ok(x)
    }

    /// Folds all accumulated updates into the matrix and refactors from
    /// scratch, resetting the update rank to zero.
    ///
    /// Useful when many failures have accumulated and per-solve `O(n·k)`
    /// overhead starts to dominate.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures (e.g. if the folded matrix is
    /// singular).
    pub fn rebase(&mut self) -> Result<(), SparseError> {
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(self.a.nnz() + 4 * self.rank());
        for r in 0..self.n {
            for (c, v) in self.a.row(r) {
                triplets.push((r as u32, c as u32, v));
            }
        }
        for (u, &c) in self.us.iter().zip(&self.cs) {
            for &(i, vi) in u {
                for &(j, vj) in u {
                    triplets.push((i as u32, j as u32, c * vi * vj));
                }
            }
        }
        let folded = CsrMatrix::from_triplets(self.n, self.n, &triplets);
        let base = LdlFactor::factor_with(&folded, &self.opts)?;
        self.a = folded;
        self.base = base;
        self.us.clear();
        self.cs.clear();
        self.z.clear();
        self.s_lu = None;
        Ok(())
    }

    /// The current (updated) matrix, reconstructed explicitly. Intended for
    /// verification and debugging; costs a full matrix rebuild.
    pub fn to_matrix(&self) -> CsrMatrix {
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(self.a.nnz() + 4 * self.rank());
        for r in 0..self.n {
            for (c, v) in self.a.row(r) {
                triplets.push((r as u32, c as u32, v));
            }
        }
        for (u, &c) in self.us.iter().zip(&self.cs) {
            for &(i, vi) in u {
                for &(j, vj) in u {
                    triplets.push((i as u32, j as u32, c * vi * vj));
                }
            }
        }
        CsrMatrix::from_triplets(self.n, self.n, &triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::TripletMatrix;
    use proptest::prelude::*;

    /// A 1-D resistor chain grounded at both ends through unit conductances.
    fn chain(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let mut d = 0.0;
            if i == 0 || i == n - 1 {
                d += 1.0; // to ground
            }
            if i > 0 {
                t.push_sym(i, i - 1, -1.0);
                d += 1.0;
            }
            if i + 1 < n {
                d += 1.0;
            }
            t.push(i, i, d);
        }
        t.to_csr()
    }

    #[test]
    fn no_update_matches_base_solve() {
        let a = chain(8);
        let solver = IncrementalSolver::new(&a).unwrap();
        let b = vec![1.0; 8];
        let x = solver.solve(&b).unwrap();
        assert!(a.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn single_update_matches_refactor() {
        let a = chain(10);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.update_edge(3, 4, -0.9).unwrap();
        let updated = solver.to_matrix();
        let b: Vec<f64> = (0..10).map(|i| i as f64 * 0.1).collect();
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&updated, &FactorOptions::default())
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn stacked_updates_match_refactor() {
        let a = chain(12);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.update_edge(2, 3, -0.5).unwrap();
        solver.update_edge(7, 8, -0.25).unwrap();
        solver.update_ground(5, 2.0).unwrap();
        solver.update_edge(2, 3, -0.49).unwrap(); // nearly sever
        let b = vec![1.0; 12];
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &FactorOptions::default())
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn rebase_preserves_solution_and_resets_rank() {
        let a = chain(9);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        solver.update_edge(1, 2, -0.7).unwrap();
        solver.update_edge(5, 6, -0.2).unwrap();
        let b = vec![0.5; 9];
        let before = solver.solve(&b).unwrap();
        assert_eq!(solver.rank(), 2);
        solver.rebase().unwrap();
        assert_eq!(solver.rank(), 0);
        let after = solver.solve(&b).unwrap();
        for (u, v) in before.iter().zip(&after) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn disconnecting_update_is_rejected_and_rolled_back() {
        // Chain of 3 grounded only at node 0; cutting edge 0-1 floats {1,2}.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0); // ground + edge to 1
        t.push_sym(0, 1, -1.0);
        t.push(1, 1, 2.0);
        t.push_sym(1, 2, -1.0);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let err = solver.update_edge(0, 1, -1.0);
        assert!(err.is_err());
        assert_eq!(solver.rank(), 0);
        // Solver still answers the base system.
        let b = vec![1.0, 0.0, 0.0];
        let x = solver.solve(&b).unwrap();
        assert!(a.residual_norm(&x, &b) < 1e-10);
    }

    #[test]
    fn zero_coefficient_update_rejected() {
        let a = chain(4);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let err = solver.update_edge(0, 1, 0.0);
        assert!(matches!(err, Err(SparseError::Singular { .. })));
        assert_eq!(solver.rank(), 0);
    }

    #[test]
    fn smw_and_refactor_agree_under_amd() {
        // Regression guard for the FactorOptions migration: the Woodbury
        // correction must stay consistent with a from-scratch AMD+supernodal
        // refactorization, including across a rebase.
        use crate::ldl::Ordering;
        let a = chain(16);
        let opts = FactorOptions::default().with_ordering(Ordering::Amd);
        let mut solver = IncrementalSolver::with_options(&a, &opts).unwrap();
        solver.update_edge(4, 5, -0.7).unwrap();
        solver.update_edge(10, 11, -0.3).unwrap();
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).cos()).collect();
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &opts)
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
        solver.rebase().unwrap();
        solver.update_edge(7, 8, -0.5).unwrap();
        let x_smw = solver.solve(&b).unwrap();
        let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &opts)
            .unwrap()
            .solve(&b);
        for (u, v) in x_smw.iter().zip(&x_direct) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn out_of_bounds_index_rejected() {
        let a = chain(4);
        let mut solver = IncrementalSolver::new(&a).unwrap();
        let err = solver.update(vec![(9, 1.0)], 1.0);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn smw_equals_refactor_for_random_cut_sequences(
            cuts in proptest::collection::vec((0usize..13, 0.05f64..0.95), 1..6),
            b in proptest::collection::vec(-2.0f64..2.0, 14),
        ) {
            let a = chain(14);
            let mut solver = IncrementalSolver::new(&a).unwrap();
            let mut remaining = [1.0f64; 13];
            for (edge, frac) in cuts {
                // Reduce edge (edge, edge+1) conductance by `frac` of what is
                // left, never fully severing so the system stays SPD.
                let cut = frac * 0.9 * remaining[edge];
                remaining[edge] -= cut;
                solver.update_edge(edge, edge + 1, -cut).unwrap();
            }
            let x_smw = solver.solve(&b).unwrap();
            let x_direct = LdlFactor::factor_with(&solver.to_matrix(), &FactorOptions::default())
                .unwrap()
                .solve(&b);
            for (u, v) in x_smw.iter().zip(&x_direct) {
                prop_assert!((u - v).abs() < 1e-6);
            }
        }
    }
}
