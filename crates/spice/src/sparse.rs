//! The sparse LU kernel behind every MNA solve, and a dense reference.
//!
//! The MNA matrices of SRAM-column netlists are large (thousands of
//! unknowns for a 1024-cell bit line) but extremely sparse and nearly
//! banded when nodes are numbered along the wire. Newton iterations,
//! transient timesteps and Monte-Carlo trials re-solve the *same*
//! structure with fresh values, so the kernel is *compiled*:
//! [`CsrMatrix`] freezes the assembly pattern into compressed-sparse-row
//! arrays, [`SymbolicLu`] runs the pivot search and fill-in analysis
//! **once** per netlist structure, and numeric-only
//! [`SymbolicLu::refactor`] calls reuse the static pattern with fresh
//! values in a preallocated [`LuWorkspace`]. MC trials perturb values,
//! never structure, so the symbolic phase amortizes across every trial;
//! one factorization serves any number of right-hand sides, so a linear
//! circuit at a fixed step factors once and back-substitutes per step.
//!
//! [`DenseMatrix`] is the O(n³) reference solver: tests feed it the same
//! stamp stream as the compiled kernel and compare solutions.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::SpiceError;

/// Relative pivot threshold: a pivot smaller than this times the largest
/// assembled entry is treated as structural singularity.
const PIVOT_RTOL: f64 = 1e-13;

/// A square sparse matrix with a **frozen** nonzero pattern in
/// compressed-sparse-row form.
///
/// The pattern (row pointers + column indices) is fixed at construction;
/// only the value array changes afterwards. This is the assembly target
/// for the compiled MNA path: the stamp sequence of a netlist is
/// structural, so every re-assembly writes the same slots. Entries whose
/// value happens to be `0.0` stay **structurally present** — nothing is
/// dropped — which is what lets a [`SymbolicLu`] analysis remain valid
/// when values change.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a pattern from explicit coordinates and returns, for each
    /// input coordinate (in order, duplicates allowed), the value-slot
    /// index it accumulates into. This is the "stamp program" used to
    /// replay an MNA assembly sequence into the frozen pattern.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_coords(n: usize, coords: &[(usize, usize)]) -> (Self, Vec<u32>) {
        let mut pattern: Vec<(usize, usize)> = coords.to_vec();
        pattern.sort_unstable();
        pattern.dedup();
        assert!(
            pattern.len() < u32::MAX as usize,
            "pattern too large for u32 slots"
        );
        let mut row_ptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(pattern.len());
        for &(r, c) in &pattern {
            assert!(r < n && c < n, "index out of range");
            row_ptr[r + 1] += 1;
            cols.push(c);
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let slots = coords
            .iter()
            .map(|rc| pattern.binary_search(rc).expect("coord in pattern") as u32)
            .collect();
        let vals = vec![0.0; cols.len()];
        (
            Self {
                n,
                row_ptr,
                cols,
                vals,
            },
            slots,
        )
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural slots (including value-zero entries).
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Resets every value to zero, keeping the pattern.
    pub fn zero_values(&mut self) {
        self.vals.fill(0.0);
    }

    /// Mutable access to the value array, indexed by the slots returned
    /// from [`CsrMatrix::from_coords`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Computes `y = A x` (used by tests to check residuals).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn multiply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        (0..self.n)
            .map(|r| {
                (self.row_ptr[r]..self.row_ptr[r + 1])
                    .map(|p| self.vals[p] * x[self.cols[p]])
                    .sum()
            })
            .collect()
    }
}

/// The symbolic phase of a compiled LU factorization: a pivot order and
/// the static fill-in pattern of `P A = L U`, computed once per matrix
/// *structure* and reused by numeric-only [`SymbolicLu::refactor`] calls
/// as values change across Newton iterations, timesteps, and MC trials.
///
/// The analysis runs a partial-pivoted elimination with **whole-row**
/// interchanges (multipliers move with their rows, LAPACK-style), so the
/// recorded permutation alone maps right-hand sides — no interleaved
/// swap replay. Crucially it treats *every* pattern entry as structural:
/// fill-in propagates even through zero-valued multipliers, so a later
/// refactor with different values can never need a position the
/// analysis did not allocate.
///
/// # Example
///
/// ```
/// use mpvar_spice::{CsrMatrix, SymbolicLu};
///
/// // [2 1][x]   [3]      x = 1, y = 1
/// // [1 3][y] = [4]
/// let (mut csr, slots) = CsrMatrix::from_coords(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
/// for (&slot, v) in slots.iter().zip([2.0, 1.0, 1.0, 3.0]) {
///     csr.values_mut()[slot as usize] += v;
/// }
/// let sym = SymbolicLu::analyze(&csr)?;
/// let mut ws = sym.workspace();
/// sym.refactor(&csr, &mut ws)?;
/// let x = sym.solve(&ws, &[3.0, 4.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), mpvar_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// `perm[k]` = original row index eliminated at step `k`.
    perm: Vec<usize>,
    /// Unit-lower pattern per pivot row: `l_cols[l_ptr[k]..l_ptr[k+1]]`
    /// ascending, all `< k`.
    l_ptr: Vec<usize>,
    l_cols: Vec<usize>,
    /// Upper pattern per pivot row: diagonal first, then ascending.
    u_ptr: Vec<usize>,
    u_cols: Vec<usize>,
}

impl SymbolicLu {
    /// Runs the one-time pivoted fill analysis of `a`'s pattern. Current
    /// values steer the pivot choice (so the order is numerically sound
    /// for the value regime the matrix was assembled in), but the
    /// resulting pattern is valid for **any** values: fill-in is
    /// propagated for every structural entry, zero-valued or not.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] when no column entry exceeds the
    /// relative pivot threshold (floating node or singular system).
    pub fn analyze(a: &CsrMatrix) -> Result<Self, SpiceError> {
        let n = a.n;
        let mut rows: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); n];
        let mut max_abs = 0.0f64;
        for (r, row) in rows.iter_mut().enumerate() {
            for p in a.row_ptr[r]..a.row_ptr[r + 1] {
                row.insert(a.cols[p], a.vals[p]);
                max_abs = max_abs.max(a.vals[p].abs());
            }
        }
        let mut cols: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for (r, row) in rows.iter().enumerate() {
            for &c in row.keys() {
                cols[c].insert(r);
            }
        }
        let tol = (max_abs * PIVOT_RTOL).max(f64::MIN_POSITIVE);
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Pivot search among structural entries in column k, rows >= k.
            let mut pivot_row = usize::MAX;
            let mut pivot_mag = tol;
            for &r in cols[k].range(k..) {
                let mag = rows[r].get(&k).map(|v| v.abs()).unwrap_or(0.0);
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
            if pivot_row == usize::MAX {
                return Err(SpiceError::SingularMatrix { row: k });
            }
            if pivot_row != k {
                // Whole-row interchange, multipliers included, so the
                // final permutation alone describes the row order.
                for &c in rows[k].keys() {
                    cols[c].remove(&k);
                }
                for &c in rows[pivot_row].keys() {
                    cols[c].remove(&pivot_row);
                }
                rows.swap(k, pivot_row);
                for &c in rows[k].keys() {
                    cols[c].insert(k);
                }
                for &c in rows[pivot_row].keys() {
                    cols[c].insert(pivot_row);
                }
                perm.swap(k, pivot_row);
            }

            let piv = *rows[k].get(&k).expect("pivot present by construction");
            let tail: Vec<(usize, f64)> = rows[k].range(k + 1..).map(|(&c, &v)| (c, v)).collect();
            let below: Vec<usize> = cols[k].range(k + 1..).copied().collect();
            for i in below {
                let aik = *rows[i].get(&k).expect("occupancy tracks entries");
                let m = aik / piv;
                // Keep the multiplier in place (it becomes the L entry)
                // and propagate fill even when m == 0.0 — the *pattern*
                // must cover every value assignment, not just this one.
                *rows[i].get_mut(&k).expect("entry present") = m;
                for &(c, v) in &tail {
                    let entry = rows[i].entry(c).or_insert_with(|| {
                        cols[c].insert(i);
                        0.0
                    });
                    *entry -= m * v;
                }
            }
        }

        let mut l_ptr = Vec::with_capacity(n + 1);
        let mut l_cols = Vec::new();
        let mut u_ptr = Vec::with_capacity(n + 1);
        let mut u_cols = Vec::new();
        l_ptr.push(0);
        u_ptr.push(0);
        for (k, row) in rows.iter().enumerate() {
            l_cols.extend(row.range(..k).map(|(&c, _)| c));
            l_ptr.push(l_cols.len());
            debug_assert_eq!(row.range(k..).next().map(|(&c, _)| c), Some(k));
            u_cols.extend(row.range(k..).map(|(&c, _)| c));
            u_ptr.push(u_cols.len());
        }

        Ok(Self {
            n,
            perm,
            l_ptr,
            l_cols,
            u_ptr,
            u_cols,
        })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total structural nonzeros of `L + U` (fill-in included).
    pub fn lu_nnz(&self) -> usize {
        self.l_cols.len() + self.u_cols.len()
    }

    /// Allocates a numeric workspace sized for this analysis.
    pub fn workspace(&self) -> LuWorkspace {
        LuWorkspace {
            l_vals: vec![0.0; self.l_cols.len()],
            u_vals: vec![0.0; self.u_cols.len()],
            inv_diag: vec![0.0; self.n],
            work: vec![0.0; self.n],
        }
    }

    /// Numeric-only refactorization: recomputes `L`/`U` values from the
    /// current values of `a` into `ws`, reusing the static pivot order
    /// and fill pattern (row-Doolittle with a dense scatter row). No
    /// allocation, no pivot search.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] when a pivot has drifted below the
    /// relative threshold under the frozen order; the caller should
    /// re-[`analyze`](SymbolicLu::analyze) with the current values.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `ws` do not match this analysis' dimensions.
    pub fn refactor(&self, a: &CsrMatrix, ws: &mut LuWorkspace) -> Result<(), SpiceError> {
        assert_eq!(a.n, self.n, "dimension mismatch");
        assert_eq!(ws.inv_diag.len(), self.n, "workspace mismatch");
        let max_abs = a.vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = (max_abs * PIVOT_RTOL).max(f64::MIN_POSITIVE);

        for k in 0..self.n {
            // Scatter row perm[k] of A into the dense work row. Every A
            // position is inside this row's static L∪U pattern.
            let r = self.perm[k];
            for p in a.row_ptr[r]..a.row_ptr[r + 1] {
                ws.work[a.cols[p]] = a.vals[p];
            }
            // Eliminate with every earlier pivot row in the L pattern
            // (ascending, so updates only touch columns still ahead).
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                let j = self.l_cols[idx];
                let m = ws.work[j] * ws.inv_diag[j];
                ws.l_vals[idx] = m;
                ws.work[j] = 0.0;
                if m != 0.0 {
                    for t in self.u_ptr[j] + 1..self.u_ptr[j + 1] {
                        ws.work[self.u_cols[t]] -= m * ws.u_vals[t];
                    }
                }
            }
            // Gather the U row (clearing the work row as we go).
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                let c = self.u_cols[t];
                ws.u_vals[t] = ws.work[c];
                ws.work[c] = 0.0;
            }
            let diag = ws.u_vals[self.u_ptr[k]];
            if diag.abs() <= tol {
                return Err(SpiceError::SingularMatrix { row: k });
            }
            ws.inv_diag[k] = 1.0 / diag;
        }
        Ok(())
    }

    /// Solves `A x = b` with the factors last computed into `ws`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, ws: &LuWorkspace, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        self.solve_into(ws, b, &mut x);
        x
    }

    /// Allocation-free variant of [`SymbolicLu::solve`]: writes the
    /// solution into `x` (resized as needed).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_into(&self, ws: &LuWorkspace, b: &[f64], x: &mut Vec<f64>) {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        x.clear();
        x.extend(self.perm.iter().map(|&r| b[r]));
        // Forward: L is unit-lower, rows in elimination order.
        for k in 0..self.n {
            let mut acc = x[k];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                acc -= ws.l_vals[idx] * x[self.l_cols[idx]];
            }
            x[k] = acc;
        }
        // Backward: U rows store the diagonal first.
        for k in (0..self.n).rev() {
            let mut acc = x[k];
            for t in self.u_ptr[k] + 1..self.u_ptr[k + 1] {
                acc -= ws.u_vals[t] * x[self.u_cols[t]];
            }
            x[k] = acc * ws.inv_diag[k];
        }
    }
}

impl SymbolicLu {
    /// The pivot permutation: `perm()[k]` = original row eliminated at
    /// step `k`. Used by the batched solver to verify that every lane's
    /// own analysis agrees with the batch's shared one.
    pub(crate) fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Batched numeric refactorization: the structure-of-arrays
    /// counterpart of [`SymbolicLu::refactor`]. `vals` holds `lanes`
    /// matrices sharing `pattern`, laid out `[slot][lane]`
    /// (`vals[slot * lanes + lane]`), and the factors land in `ws` with
    /// the same interleaving. Per lane, the floating-point operation
    /// sequence is *exactly* the scalar `refactor`'s — the skipped
    /// `m == 0` update becomes a per-lane select — so each lane's
    /// factors are bit-identical to a scalar refactor of that lane.
    ///
    /// Instead of failing on the first drifted pivot, every lane runs to
    /// completion and `fail_row[lane]` records the first step whose
    /// pivot fell below that lane's relative threshold (`None` = clean).
    /// Failed lanes keep computing garbage harmlessly — lanes never mix.
    ///
    /// # Panics
    ///
    /// Panics if `pattern`, `vals`, `ws`, or `fail_row` disagree with
    /// this analysis' dimensions or the lane count.
    pub(crate) fn refactor_batch(
        &self,
        pattern: &CsrMatrix,
        vals: &[f64],
        ws: &mut LuBatchWorkspace,
        fail_row: &mut [Option<usize>],
    ) {
        // Monomorphize the hot widths: with `L` const the lane count
        // folds into every subslice length below, so the per-slot loops
        // compile to straight-line SIMD with no bounds checks.
        match ws.lanes {
            8 => self.refactor_batch_lanes::<8>(pattern, vals, ws, fail_row),
            4 => self.refactor_batch_lanes::<4>(pattern, vals, ws, fail_row),
            2 => self.refactor_batch_lanes::<2>(pattern, vals, ws, fail_row),
            _ => self.refactor_batch_lanes::<0>(pattern, vals, ws, fail_row),
        }
    }

    fn refactor_batch_lanes<const L: usize>(
        &self,
        pattern: &CsrMatrix,
        vals: &[f64],
        ws: &mut LuBatchWorkspace,
        fail_row: &mut [Option<usize>],
    ) {
        let lanes = if L > 0 { L } else { ws.lanes };
        assert_eq!(pattern.n, self.n, "dimension mismatch");
        assert_eq!(vals.len(), pattern.nnz() * lanes, "vals layout mismatch");
        assert_eq!(ws.inv_diag.len(), self.n * lanes, "workspace mismatch");
        assert_eq!(fail_row.len(), lanes, "fail_row lane mismatch");

        // Per-lane relative pivot tolerance, mirroring the scalar fold
        // over the value array in slot order.
        ws.tol.clear();
        ws.tol.resize(lanes, 0.0);
        for slot in 0..pattern.nnz() {
            let v = &vals[slot * lanes..slot * lanes + lanes];
            for (m, x) in ws.tol.iter_mut().zip(v) {
                *m = m.max(x.abs());
            }
        }
        for t in ws.tol.iter_mut() {
            *t = (*t * PIVOT_RTOL).max(f64::MIN_POSITIVE);
        }

        // Every inner loop below runs on `lanes`-long subslices via
        // iterator zips: no bounds checks survive, so the compiler
        // vectorizes the lane dimension.
        for k in 0..self.n {
            // Scatter row perm[k] of every lane's A into the dense rows.
            let r = self.perm[k];
            for p in pattern.row_ptr[r]..pattern.row_ptr[r + 1] {
                let c = pattern.cols[p];
                let src = &vals[p * lanes..p * lanes + lanes];
                ws.work[c * lanes..c * lanes + lanes].copy_from_slice(src);
            }
            // Eliminate with every earlier pivot row in the L pattern.
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                let j = self.l_cols[idx];
                {
                    let wrow = &mut ws.work[j * lanes..j * lanes + lanes];
                    let drow = &ws.inv_diag[j * lanes..j * lanes + lanes];
                    let mrow = &mut ws.l_vals[idx * lanes..idx * lanes + lanes];
                    for ((m, w), d) in mrow.iter_mut().zip(wrow.iter_mut()).zip(drow) {
                        *m = *w * *d;
                        *w = 0.0;
                    }
                }
                for t in self.u_ptr[j] + 1..self.u_ptr[j + 1] {
                    let c = self.u_cols[t];
                    let u = &ws.u_vals[t * lanes..t * lanes + lanes];
                    let m = &ws.l_vals[idx * lanes..idx * lanes + lanes];
                    let w = &mut ws.work[c * lanes..c * lanes + lanes];
                    for ((w, &m), &u) in w.iter_mut().zip(m).zip(u) {
                        // Scalar skips the update when m == 0; the select
                        // preserves those bit-exact semantics (0 * u may
                        // be -0.0 or NaN) while letting lanes vectorize.
                        let wi = *w;
                        *w = if m != 0.0 { wi - m * u } else { wi };
                    }
                }
            }
            // Gather the U row, clearing the work rows as we go.
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                let c = self.u_cols[t];
                let src = &mut ws.work[c * lanes..c * lanes + lanes];
                let dst = &mut ws.u_vals[t * lanes..t * lanes + lanes];
                for (d, s) in dst.iter_mut().zip(src.iter_mut()) {
                    *d = *s;
                    *s = 0.0;
                }
            }
            let dpos = self.u_ptr[k] * lanes;
            let urow = &ws.u_vals[dpos..dpos + lanes];
            let inv = &mut ws.inv_diag[k * lanes..k * lanes + lanes];
            for (i, &d) in inv.iter_mut().zip(urow) {
                *i = 1.0 / d;
            }
            for (l, (&d, &tol)) in urow.iter().zip(&ws.tol).enumerate() {
                if d.abs() <= tol && fail_row[l].is_none() {
                    fail_row[l] = Some(k);
                }
            }
        }
    }

    /// Batched counterpart of [`SymbolicLu::solve_into`]: solves every
    /// lane's system with the factors last computed by
    /// [`SymbolicLu::refactor_batch`]. Both `rhs` and `out` are
    /// `[row][lane]` interleaved, matching the assembled values layout:
    /// the permutation gather is a contiguous row copy and — because
    /// `x[k]` already *is* the solution for variable `k` (columns stay
    /// in natural order; only rows are permuted, on the gather) — the
    /// output is a single contiguous copy, no transpose.
    /// Per-lane operation order is exactly the scalar `solve_into`'s.
    ///
    /// # Panics
    ///
    /// Panics if `rhs`/`out` are not `lanes * dim()` long.
    pub(crate) fn solve_batch(&self, ws: &mut LuBatchWorkspace, rhs: &[f64], out: &mut [f64]) {
        match ws.lanes {
            8 => self.solve_batch_lanes::<8>(ws, rhs, out),
            4 => self.solve_batch_lanes::<4>(ws, rhs, out),
            2 => self.solve_batch_lanes::<2>(ws, rhs, out),
            _ => self.solve_batch_lanes::<0>(ws, rhs, out),
        }
    }

    fn solve_batch_lanes<const L: usize>(
        &self,
        ws: &mut LuBatchWorkspace,
        rhs: &[f64],
        out: &mut [f64],
    ) {
        let lanes = if L > 0 { L } else { ws.lanes };
        let n = self.n;
        assert_eq!(rhs.len(), n * lanes, "rhs layout mismatch");
        assert_eq!(out.len(), n * lanes, "out layout mismatch");
        for (k, &r) in self.perm.iter().enumerate() {
            ws.x[k * lanes..k * lanes + lanes].copy_from_slice(&rhs[r * lanes..r * lanes + lanes]);
        }
        // Forward: L is unit-lower, rows in elimination order; splitting
        // at `k * lanes` proves to the compiler that row k and its
        // earlier dependencies `j < k` never alias, so the lane loops
        // vectorize without bounds checks.
        for k in 0..n {
            let (lo, hi) = ws.x.split_at_mut(k * lanes);
            let xk = &mut hi[..lanes];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                let j = self.l_cols[idx];
                let xj = &lo[j * lanes..j * lanes + lanes];
                let lv = &ws.l_vals[idx * lanes..idx * lanes + lanes];
                for ((x, &a), &b) in xk.iter_mut().zip(lv).zip(xj) {
                    *x -= a * b;
                }
            }
        }
        // Backward: U rows store the diagonal first; off-diagonal
        // columns satisfy `c > k`, so split just past row k.
        for k in (0..n).rev() {
            let (lo, hi) = ws.x.split_at_mut((k + 1) * lanes);
            let xk = &mut lo[k * lanes..];
            for t in self.u_ptr[k] + 1..self.u_ptr[k + 1] {
                let off = (self.u_cols[t] - k - 1) * lanes;
                let xc = &hi[off..off + lanes];
                let uv = &ws.u_vals[t * lanes..t * lanes + lanes];
                for ((x, &a), &b) in xk.iter_mut().zip(uv).zip(xc) {
                    *x -= a * b;
                }
            }
            let inv = &ws.inv_diag[k * lanes..k * lanes + lanes];
            for (x, &i) in xk.iter_mut().zip(inv) {
                *x *= i;
            }
        }
        out.copy_from_slice(&ws.x);
    }
}

/// Preallocated numeric buffers for [`SymbolicLu::refactor`] /
/// [`SymbolicLu::solve`]: the `L`/`U` value arrays, inverted pivots, and
/// the dense scatter row. One workspace per thread — workspaces are
/// plain owned data, created inside each `mpvar-exec` worker closure, so
/// parallel trials never alias each other's buffers.
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    inv_diag: Vec<f64>,
    work: Vec<f64>,
}

/// Structure-of-arrays numeric buffers for [`SymbolicLu::refactor_batch`]
/// / [`SymbolicLu::solve_batch`]: every scalar buffer widened by the lane
/// count, `[slot][lane]` interleaved. [`LuBatchWorkspace::prepare`]
/// resizes in place, so one workspace amortizes across every trial batch
/// a worker processes — steady-state batches allocate nothing here.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuBatchWorkspace {
    lanes: usize,
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    inv_diag: Vec<f64>,
    work: Vec<f64>,
    tol: Vec<f64>,
    x: Vec<f64>,
}

impl LuBatchWorkspace {
    /// Sizes the buffers for `sym` at `lanes` lanes, reusing capacity.
    pub(crate) fn prepare(&mut self, sym: &SymbolicLu, lanes: usize) {
        self.lanes = lanes;
        self.l_vals.clear();
        self.l_vals.resize(sym.l_cols.len() * lanes, 0.0);
        self.u_vals.clear();
        self.u_vals.resize(sym.u_cols.len() * lanes, 0.0);
        self.inv_diag.clear();
        self.inv_diag.resize(sym.n * lanes, 0.0);
        self.work.clear();
        self.work.resize(sym.n * lanes, 0.0);
        self.x.clear();
        self.x.resize(sym.n * lanes, 0.0);
    }

    /// Capacity bytes currently held (for the workspace-stability gauge).
    pub(crate) fn bytes(&self) -> usize {
        8 * (self.l_vals.capacity()
            + self.u_vals.capacity()
            + self.inv_diag.capacity()
            + self.work.capacity()
            + self.tol.capacity()
            + self.x.capacity())
    }
}

/// A dense reference matrix with naive partial-pivoted elimination.
///
/// The oracle the compiled kernel is cross-checked against in tests;
/// anything sized like a real netlist goes through [`CsrMatrix`] and
/// [`SymbolicLu`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    a: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n x n` zero matrix.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Accumulates `v` into `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.n && c < self.n, "index out of range");
        self.a[r * self.n + c] += v;
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.n && c < self.n, "index out of range");
        self.a[r * self.n + c]
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for singular systems.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        assert_eq!(b.len(), self.n, "dimension mismatch");
        let n = self.n;
        let mut a = self.a.clone();
        let mut x = b.to_vec();
        let scale = a.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = (scale * PIVOT_RTOL).max(f64::MIN_POSITIVE);

        for k in 0..n {
            let (p, mag) = (k..n)
                .map(|r| (r, a[r * n + k].abs()))
                .max_by(|x, y| x.1.partial_cmp(&y.1).expect("no NaN in matrix"))
                .expect("non-empty range");
            if mag <= tol {
                return Err(SpiceError::SingularMatrix { row: k });
            }
            if p != k {
                for c in 0..n {
                    a.swap(k * n + c, p * n + c);
                }
                x.swap(k, p);
            }
            let piv = a[k * n + k];
            for r in k + 1..n {
                let m = a[r * n + k] / piv;
                if m != 0.0 {
                    a[r * n + k] = 0.0;
                    for c in k + 1..n {
                        a[r * n + c] -= m * a[k * n + c];
                    }
                    x[r] -= m * x[k];
                }
            }
        }
        for k in (0..n).rev() {
            let mut acc = x[k];
            for c in k + 1..n {
                acc -= a[k * n + c] * x[c];
            }
            x[k] = acc / a[k * n + k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assembles `entries` (duplicates accumulate) into the compiled
    /// kernel's [`CsrMatrix`] and the [`DenseMatrix`] oracle alike.
    fn build(n: usize, entries: &[(usize, usize, f64)]) -> (CsrMatrix, DenseMatrix) {
        let coords: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let (mut csr, slots) = CsrMatrix::from_coords(n, &coords);
        let mut dense = DenseMatrix::new(n);
        for (&slot, &(r, c, v)) in slots.iter().zip(entries) {
            csr.values_mut()[slot as usize] += v;
            dense.add(r, c, v);
        }
        (csr, dense)
    }

    /// Analyzes, refactors and solves `a x = b` on the compiled kernel.
    fn compiled_solve(a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let sym = SymbolicLu::analyze(a)?;
        let mut ws = sym.workspace();
        sym.refactor(a, &mut ws)?;
        Ok(sym.solve(&ws, b))
    }

    fn residual_norm(m: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        m.multiply(x)
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    /// Solves on both kernels and checks they agree entry by entry.
    fn assert_matches_dense(entries: &[(usize, usize, f64)], n: usize, b: &[f64], tol: f64) {
        let (csr, dense) = build(n, entries);
        let xs = compiled_solve(&csr, b).unwrap();
        let xd = dense.solve(b).unwrap();
        for (a, bb) in xs.iter().zip(&xd) {
            assert!((a - bb).abs() < tol, "n={n}: {a} vs {bb}");
        }
        assert!(residual_norm(&csr, &xs, b) < tol);
    }

    /// Xorshift values in [-0.5, 0.5).
    fn xorshift(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// An `n`-node arrow matrix: a full first row and column over a
    /// diagonal, which fills in completely when eliminated top-down.
    fn arrow(n: usize, diag: impl Fn(usize) -> f64, edge: f64) -> Vec<(usize, usize, f64)> {
        let mut e = Vec::new();
        for i in 0..n {
            e.push((i, i, diag(i)));
            if i > 0 {
                e.push((0, i, edge));
                e.push((i, 0, edge));
            }
        }
        e
    }

    /// An `n`-node `[-1, diag, -1]` tridiagonal (an RC ladder's shape).
    fn tridiagonal(n: usize, diag: f64) -> Vec<(usize, usize, f64)> {
        let mut e = Vec::new();
        for i in 0..n {
            e.push((i, i, diag));
            if i > 0 {
                e.push((i, i - 1, -1.0));
                e.push((i - 1, i, -1.0));
            }
        }
        e
    }

    #[test]
    fn solves_2x2() {
        let e = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)];
        let (csr, _) = build(2, &e);
        let x = compiled_solve(&csr, &[3.0, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert_matches_dense(&e, 2, &[3.0, 4.0], 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [0 1][x] = [2] -> x = 3, y = 2
        // [1 0][y]   [3]
        let e = [(0, 1, 1.0), (1, 0, 1.0)];
        let (csr, _) = build(2, &e);
        let x = compiled_solve(&csr, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert_matches_dense(&e, 2, &[2.0, 3.0], 1e-12);
    }

    #[test]
    fn detects_singular_and_empty_columns() {
        let (csr, dense) = build(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
        assert!(matches!(
            SymbolicLu::analyze(&csr),
            Err(SpiceError::SingularMatrix { .. })
        ));
        assert!(dense.solve(&[1.0, 2.0]).is_err());
        // Empty column.
        let (csr, dense) = build(2, &[(0, 0, 1.0)]);
        assert!(matches!(
            SymbolicLu::analyze(&csr),
            Err(SpiceError::SingularMatrix { row: 1 })
        ));
        assert!(dense.solve(&[1.0, 0.0]).is_err());
    }

    #[test]
    fn duplicate_coordinates_accumulate_into_one_slot() {
        let (mut csr, slots) = CsrMatrix::from_coords(1, &[(0, 0), (0, 0)]);
        assert_eq!(slots, vec![0, 0]);
        assert_eq!(csr.nnz(), 1);
        csr.values_mut()[0] += 1.5;
        csr.values_mut()[0] += 2.5;
        assert_eq!(csr.multiply(&[1.0]), vec![4.0]);
        csr.zero_values();
        assert_eq!(csr.multiply(&[1.0]), vec![0.0]);
    }

    #[test]
    fn multiply_works() {
        let (csr, _) = build(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        assert_eq!(csr.multiply(&[1.0, 1.0]), vec![3.0, 3.0]);
    }

    #[test]
    fn compiled_kernel_matches_dense_on_random_band_systems() {
        let mut next = xorshift(0xA5A5_5A5A_1234_5678);
        for n in [1usize, 3, 10, 40] {
            let mut e = Vec::new();
            for r in 0..n {
                for off in -2i64..=2 {
                    let c = r as i64 + off;
                    if c < 0 || c >= n as i64 {
                        continue;
                    }
                    let v = if off == 0 { 8.0 + next() } else { next() };
                    e.push((r, c as usize, v));
                }
            }
            let b: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
            assert_matches_dense(&e, n, &b, 1e-9);
        }
    }

    #[test]
    fn fill_in_is_handled() {
        let n = 20;
        let e = arrow(n, |_| 4.0, 1.0);
        assert_matches_dense(&e, n, &vec![1.0; n], 1e-10);
    }

    #[test]
    fn compiled_matches_dense_on_fill_heavy_matrix() {
        let n = 30;
        let mut e = Vec::new();
        for i in 0..n {
            e.push((i, i, 5.0 + (i % 3) as f64));
            if i > 0 {
                e.push((0, i, 1.0 + 0.01 * i as f64));
                e.push((i, 0, 1.0 - 0.01 * i as f64));
                e.push((i, i - 1, -1.0));
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        assert_matches_dense(&e, n, &b, 1e-9);
    }

    #[test]
    fn factors_reusable_across_rhs() {
        let e = [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 1, 3.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (2, 2, 2.0),
        ];
        let (csr, dense) = build(3, &e);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let mut ws = sym.workspace();
        sym.refactor(&csr, &mut ws).unwrap();
        for b in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [3.0, -1.0, 2.0]] {
            let x = sym.solve(&ws, &b);
            assert!(residual_norm(&csr, &x, &b) < 1e-12);
            for (a, bb) in x.iter().zip(&dense.solve(&b).unwrap()) {
                assert!((a - bb).abs() < 1e-12, "{a} vs {bb}");
            }
        }
    }

    #[test]
    fn refactor_reuses_pattern_across_value_changes() {
        // Same arrow structure, three different value sets — one
        // analysis, three numeric refactors, all checked by residual.
        let n = 20;
        let coords: Vec<(usize, usize)> = arrow(n, |_| 0.0, 0.0)
            .iter()
            .map(|&(r, c, _)| (r, c))
            .collect();
        let (mut csr, slots) = CsrMatrix::from_coords(n, &coords);
        let mut sym = None;
        for trial in 0..3 {
            csr.zero_values();
            let vals = csr.values_mut();
            for (pos, &slot) in slots.iter().enumerate() {
                let (r, c) = coords[pos];
                let base = if r == c {
                    6.0 + trial as f64
                } else {
                    0.3 + 0.1 * trial as f64
                };
                vals[slot as usize] += base;
            }
            let sym = sym.get_or_insert_with(|| SymbolicLu::analyze(&csr).unwrap());
            let mut ws = sym.workspace();
            sym.refactor(&csr, &mut ws).unwrap();
            let b = vec![1.0; n];
            let x = sym.solve(&ws, &b);
            assert!(residual_norm(&csr, &x, &b) < 1e-9, "trial {trial} residual");
        }
    }

    #[test]
    fn zero_valued_structural_entries_survive_refactor() {
        // The (1,0) slot is zero during analysis but nonzero at
        // refactor: the fill it induces at (1,2) must have been
        // allocated by the (structural, not numeric) analysis.
        let coords = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)];
        let (mut csr, slots) = CsrMatrix::from_coords(3, &coords);
        let set = |csr: &mut CsrMatrix, vs: &[f64]| {
            csr.zero_values();
            for (&slot, &v) in slots.iter().zip(vs) {
                csr.values_mut()[slot as usize] = v;
            }
        };
        set(&mut csr, &[2.0, 1.0, 0.0, 3.0, 1.0, 2.0]);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let mut ws = sym.workspace();
        set(&mut csr, &[2.0, 1.0, 1.5, 3.0, 1.0, 2.0]);
        sym.refactor(&csr, &mut ws).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = sym.solve(&ws, &b);
        assert!(residual_norm(&csr, &x, &b) < 1e-12);
    }

    #[test]
    fn refactor_detects_pivot_drift() {
        let (mut csr, slots) = CsrMatrix::from_coords(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let set = |csr: &mut CsrMatrix, vs: [f64; 4]| {
            for (&slot, v) in slots.iter().zip(vs) {
                csr.values_mut()[slot as usize] = v;
            }
        };
        set(&mut csr, [1.0, 2.0, 3.0, 4.0]);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let mut ws = sym.workspace();
        sym.refactor(&csr, &mut ws).unwrap();
        // Make the matrix exactly singular; the frozen order must
        // report the drifted pivot instead of dividing by ~0.
        set(&mut csr, [1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(
            sym.refactor(&csr, &mut ws),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn batched_refactor_solve_bit_identical_to_scalar() {
        // A fill-heavy asymmetric system: each lane scales the values
        // differently, so lanes exercise genuinely distinct arithmetic.
        let n = 24;
        let lanes = 5;
        let mut e = Vec::new();
        for i in 0..n {
            e.push((i, i, 4.0 + (i % 5) as f64));
            if i > 0 {
                e.push((0, i, 0.5 + 0.02 * i as f64));
                e.push((i, 0, 0.4 - 0.01 * i as f64));
                e.push((i, i - 1, -1.25));
            }
        }
        let (csr, _) = build(n, &e);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let nnz = csr.nnz();

        // Per-lane value sets sharing the pattern, plus per-lane RHS.
        let lane_scale = |l: usize| 1.0 + 0.37 * l as f64;
        let mut soa = vec![0.0f64; nnz * lanes];
        for (slot, v) in csr.vals.iter().enumerate() {
            for l in 0..lanes {
                soa[slot * lanes + l] = v * lane_scale(l);
            }
        }
        // Row-major `[row][lane]` RHS for the batch; lane-major copy for
        // the scalar reference solves.
        let mut rhs = vec![0.0f64; n * lanes];
        let mut rhs_lanes = vec![0.0f64; n * lanes];
        for l in 0..lanes {
            for i in 0..n {
                let v = ((i * (l + 2)) as f64).sin();
                rhs[i * lanes + l] = v;
                rhs_lanes[l * n + i] = v;
            }
        }

        // Scalar reference: refactor+solve each lane independently.
        let mut expected = Vec::new();
        for l in 0..lanes {
            let mut lane_csr = csr.clone();
            for (slot, v) in lane_csr.values_mut().iter_mut().enumerate() {
                *v = soa[slot * lanes + l];
            }
            let mut ws = sym.workspace();
            sym.refactor(&lane_csr, &mut ws).unwrap();
            let mut x = Vec::new();
            sym.solve_into(&ws, &rhs_lanes[l * n..(l + 1) * n], &mut x);
            expected.push(x);
        }

        // Batched path.
        let mut bws = LuBatchWorkspace::default();
        bws.prepare(&sym, lanes);
        let mut fail = vec![None; lanes];
        sym.refactor_batch(&csr, &soa, &mut bws, &mut fail);
        assert!(fail.iter().all(Option::is_none), "{fail:?}");
        let mut out = vec![0.0f64; n * lanes];
        sym.solve_batch(&mut bws, &rhs, &mut out);

        for l in 0..lanes {
            for i in 0..n {
                assert_eq!(
                    out[i * lanes + l].to_bits(),
                    expected[l][i].to_bits(),
                    "lane {l} entry {i}"
                );
            }
        }
    }

    #[test]
    fn batched_refactor_flags_singular_lane_without_poisoning_others() {
        let n = 6;
        let lanes = 3;
        let (csr, _) = build(n, &tridiagonal(n, 2.0));
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let nnz = csr.nnz();

        // Lane 1 is all zeros, so every one of its pivots sits below
        // tolerance; lanes 0 and 2 are healthy scalings.
        let mut soa = vec![0.0f64; nnz * lanes];
        for (slot, v) in csr.vals.iter().enumerate() {
            soa[slot * lanes] = *v;
            soa[slot * lanes + 1] = 0.0;
            soa[slot * lanes + 2] = v * 2.0;
        }
        let mut bws = LuBatchWorkspace::default();
        bws.prepare(&sym, lanes);
        let mut fail = vec![None; lanes];
        sym.refactor_batch(&csr, &soa, &mut bws, &mut fail);
        assert_eq!(fail[0], None);
        assert_eq!(fail[1], Some(0), "all-zero lane fails at the first pivot");
        assert_eq!(fail[2], None);

        // Healthy lanes still solve bit-identically to scalar.
        let rhs_lane: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut rhs = vec![0.0f64; n * lanes];
        for (i, &v) in rhs_lane.iter().enumerate() {
            rhs[i * lanes..(i + 1) * lanes].fill(v);
        }
        let mut out = vec![0.0f64; n * lanes];
        sym.solve_batch(&mut bws, &rhs, &mut out);
        for &l in &[0usize, 2] {
            let mut lane_csr = csr.clone();
            for (slot, v) in lane_csr.values_mut().iter_mut().enumerate() {
                *v = soa[slot * lanes + l];
            }
            let mut ws = sym.workspace();
            sym.refactor(&lane_csr, &mut ws).unwrap();
            let mut x = Vec::new();
            sym.solve_into(&ws, &rhs_lane, &mut x);
            for i in 0..n {
                assert_eq!(out[i * lanes + l].to_bits(), x[i].to_bits(), "lane {l}");
            }
        }
    }

    #[test]
    fn large_tridiagonal_performance_smoke() {
        // 2000-node RC-ladder-like system must solve quickly and accurately.
        let n = 2000;
        let mut e = tridiagonal(n, 2.0);
        e.push((n - 1, n - 1, 1.0)); // make it nonsingular at the end
        let (csr, _) = build(n, &e);
        let b = vec![1.0; n];
        let x = compiled_solve(&csr, &b).unwrap();
        assert!(residual_norm(&csr, &x, &b) < 1e-8);
    }

    #[test]
    fn dense_singular_detection() {
        let mut d = DenseMatrix::new(2);
        d.add(0, 0, 1.0);
        d.add(1, 0, 1.0);
        assert!(d.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "index out of range")]
    fn out_of_range_panics() {
        let _ = CsrMatrix::from_coords(2, &[(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rhs_length_checked() {
        let (csr, _) = build(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let _ = compiled_solve(&csr, &[1.0]);
    }
}
