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
//! One refactor body and one solve body serve one lane and many: they
//! work on a group of `G` ∈ {16, 8, 4, 2, 1} lanes of `[slot][lane]`
//! storage in `[f64; G]` locals. The one-lane [`SymbolicLu::refactor`]
//! is the `G = 1` group; a batch runs its lanes in groups, widest first.
//! Per lane the floating-point operations and their order never change,
//! so a batched lane is bit-identical to the same matrix factored alone.
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
    pub(crate) fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Resets every value to zero, keeping the pattern.
    pub(crate) fn zero_values(&mut self) {
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

/// Calls `$sym.$body::<G, FULL>(.., g0)` for each group of `G` lanes of
/// a `$lanes`-lane batch, widest first (5 = 4 + 1, 12 = 8 + 4, 20 =
/// 16 + 4); `FULL` when the one group spans every lane.
macro_rules! for_each_group {
    ($lanes:expr, $g0:ident => $sym:ident.$body:ident($($arg:expr),*)) => {
        let lanes: usize = $lanes;
        let mut $g0 = 0;
        while $g0 < lanes {
            let g = [16, 8, 4, 2, 1].into_iter().find(|&g| g <= lanes - $g0).expect("lanes left");
            match (g, g == lanes) {
                (16, true) => $sym.$body::<16, true>($($arg),*),
                (16, false) => $sym.$body::<16, false>($($arg),*),
                (8, true) => $sym.$body::<8, true>($($arg),*),
                (8, false) => $sym.$body::<8, false>($($arg),*),
                (4, true) => $sym.$body::<4, true>($($arg),*),
                (4, false) => $sym.$body::<4, false>($($arg),*),
                (2, true) => $sym.$body::<2, true>($($arg),*),
                (2, false) => $sym.$body::<2, false>($($arg),*),
                (_, true) => $sym.$body::<1, true>($($arg),*),
                (_, false) => $sym.$body::<1, false>($($arg),*),
            }
            $g0 += g;
        }
    };
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

    /// The pivot permutation: `perm()[k]` = original row eliminated at
    /// step `k` (the batch checks each lane's analysis against it).
    pub(crate) fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Allocates a one-lane numeric workspace sized for this analysis.
    pub fn workspace(&self) -> LuWorkspace {
        let mut ws = LuWorkspace::default();
        ws.prepare(self, 1);
        ws
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
        let mut fail_row = [None];
        self.refactor_group::<1, true>(a, &a.vals, ws, 0, &mut fail_row);
        fail_row[0].map_or(Ok(()), |row| Err(SpiceError::SingularMatrix { row }))
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
    pub(crate) fn solve_into(&self, ws: &LuWorkspace, b: &[f64], x: &mut Vec<f64>) {
        x.resize(self.n, 0.0);
        self.solve_group::<1, true>(ws, b, x, 0);
    }

    /// [`SymbolicLu::refactor`] of every lane of a batch: `vals` holds
    /// `ws`'s lane count of matrices sharing `pattern`, `[slot][lane]`,
    /// and the factors land in `ws` alike. A `None` in `fail_row[lane]`
    /// becomes the first row whose pivot fell below that lane's
    /// threshold; a failed lane computes garbage harmlessly.
    pub(crate) fn refactor_batch(
        &self,
        pattern: &CsrMatrix,
        vals: &[f64],
        ws: &mut LuWorkspace,
        fail_row: &mut [Option<usize>],
    ) {
        assert_eq!(fail_row.len(), ws.lanes, "fail_row lane mismatch");
        for_each_group!(ws.lanes, g0 => self.refactor_group(pattern, vals, ws, g0, fail_row));
    }

    /// [`SymbolicLu::solve`] of every lane with the factors of
    /// [`SymbolicLu::refactor_batch`]; `rhs` and `out` are `[row][lane]`.
    pub(crate) fn solve_batch(&self, ws: &LuWorkspace, rhs: &[f64], out: &mut [f64]) {
        for_each_group!(ws.lanes, g0 => self.solve_group(ws, rhs, out, g0));
    }

    /// The one refactor body, for lanes `g0..g0 + G` of `ws`'s lanes at
    /// `slot * stride + lane`; a group spanning every lane (`FULL`) has
    /// the constant stride `G`. A lane whose multiplier is exactly `0.0`
    /// skips that row update (`0 * inf` would be NaN), and when every
    /// lane's is, the whole update is skipped. A failed pivot sets the
    /// lane's `fail_row` and the sweep goes on.
    fn refactor_group<const G: usize, const FULL: bool>(
        &self,
        pattern: &CsrMatrix,
        vals: &[f64],
        ws: &mut LuWorkspace,
        g0: usize,
        fail_row: &mut [Option<usize>],
    ) {
        let fail_row = &mut fail_row[g0..g0 + G];
        let (stride, g0) = if FULL { (G, 0) } else { (ws.lanes, g0) };
        assert_eq!(pattern.n, self.n, "dimension mismatch");
        assert_eq!(ws.inv_diag.len(), self.n * stride, "workspace mismatch");
        assert_eq!(vals.len(), pattern.nnz() * stride, "vals layout mismatch");
        // Slices keep pointers and lengths in registers across stores.
        let (l_vals, u_vals) = (&mut ws.l_vals[..], &mut ws.u_vals[..]);
        let (inv_diag, work) = (&mut ws.inv_diag[..], &mut ws.work[..]);
        let at = |i: usize| i * stride + g0;
        let tol = lane_max::<G>(vals, stride, g0).map(|m| (m * PIVOT_RTOL).max(f64::MIN_POSITIVE));

        for k in 0..self.n {
            // Scatter row perm[k] of A into the dense work row. Every A
            // position is inside this row's static L∪U pattern.
            let r = self.perm[k];
            for p in pattern.row_ptr[r]..pattern.row_ptr[r + 1] {
                *group_mut(work, at(pattern.cols[p])) = *group::<G>(vals, at(p));
            }
            // Eliminate with every earlier pivot row in the L pattern
            // (ascending, so updates only touch columns still ahead).
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                let j = self.l_cols[idx];
                let w = std::mem::replace(group_mut::<G>(work, at(j)), [0.0; G]);
                let d = group::<G>(inv_diag, at(j));
                let m: [f64; G] = std::array::from_fn(|l| w[l] * d[l]);
                *group_mut(l_vals, at(idx)) = m;
                if m.iter().all(|&m| m == 0.0) {
                    continue;
                }
                for t in self.u_ptr[j] + 1..self.u_ptr[j + 1] {
                    let u = group::<G>(u_vals, at(t));
                    let w = group_mut::<G>(work, at(self.u_cols[t]));
                    for ((w, &m), &u) in w.iter_mut().zip(&m).zip(u) {
                        // A select, not a branch, so the lanes vectorize.
                        *w = if m != 0.0 { *w - m * u } else { *w };
                    }
                }
            }
            // Gather the U row (clearing the work row as we go).
            for t in self.u_ptr[k]..self.u_ptr[k + 1] {
                let w = std::mem::replace(group_mut(work, at(self.u_cols[t])), [0.0; G]);
                *group_mut(u_vals, at(t)) = w;
            }
            let diag = *group::<G>(u_vals, at(self.u_ptr[k]));
            *group_mut(inv_diag, at(k)) = diag.map(|d| 1.0 / d);
            for ((f, d), tol) in fail_row.iter_mut().zip(diag).zip(tol) {
                if d.abs() <= tol && f.is_none() {
                    *f = Some(k);
                }
            }
        }
    }

    /// The one solve body, for lanes `g0..g0 + G`; strides as in
    /// [`SymbolicLu::refactor_group`].
    fn solve_group<const G: usize, const FULL: bool>(
        &self,
        ws: &LuWorkspace,
        rhs: &[f64],
        out: &mut [f64],
        g0: usize,
    ) {
        let (stride, g0) = if FULL { (G, 0) } else { (ws.lanes, g0) };
        assert_eq!(ws.inv_diag.len(), self.n * stride, "workspace mismatch");
        assert_eq!(rhs.len(), self.n * stride, "dimension mismatch");
        assert_eq!(out.len(), self.n * stride, "dimension mismatch");
        let at = |i: usize| i * stride + g0;
        // Forward from the permuted right-hand side; L is unit-lower.
        for (k, &r) in self.perm.iter().enumerate() {
            let mut acc = *group::<G>(rhs, at(r));
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                let l = group::<G>(&ws.l_vals, at(idx));
                let x = group::<G>(out, at(self.l_cols[idx]));
                acc = std::array::from_fn(|i| acc[i] - l[i] * x[i]);
            }
            *group_mut(out, at(k)) = acc;
        }
        // Backward: U rows store the diagonal first.
        for k in (0..self.n).rev() {
            let mut acc = *group::<G>(out, at(k));
            for t in self.u_ptr[k] + 1..self.u_ptr[k + 1] {
                let u = group::<G>(&ws.u_vals, at(t));
                let x = group::<G>(out, at(self.u_cols[t]));
                acc = std::array::from_fn(|i| acc[i] - u[i] * x[i]);
            }
            let inv = group::<G>(&ws.inv_diag, at(k));
            *group_mut::<G>(out, at(k)) = std::array::from_fn(|i| acc[i] * inv[i]);
        }
    }
}

/// The `G` lanes of one slot starting at `at`.
fn group<const G: usize>(buf: &[f64], at: usize) -> &[f64; G] {
    buf[at..at + G].try_into().expect("G lanes")
}

fn group_mut<const G: usize>(buf: &mut [f64], at: usize) -> &mut [f64; G] {
    (&mut buf[at..at + G]).try_into().expect("G lanes")
}

/// Each lane's largest `|a|` over every slot, for the relative pivot
/// tolerance. One contiguous lane folds the plain value array; every
/// `|a|` is at least `+0`, so the max does not depend on the order and
/// both spellings give the same bits.
fn lane_max<const G: usize>(vals: &[f64], stride: usize, g0: usize) -> [f64; G] {
    if stride == 1 {
        return [vals.iter().fold(0.0f64, |m, v| m.max(v.abs())); G];
    }
    vals.chunks_exact(stride).fold([0.0; G], |m, slot| {
        let v = group::<G>(slot, g0).map(f64::abs);
        std::array::from_fn(|l| if v[l] > m[l] { v[l] } else { m[l] })
    })
}

/// Preallocated numeric buffers for the LU kernel: the `L`/`U` value
/// arrays, inverted pivots and the dense scatter row, each holding
/// `lanes` interleaved lanes (`[slot][lane]`). [`SymbolicLu::workspace`]
/// makes a one-lane workspace; the batched solver prepares one for its
/// lane count and reuses its capacity across batches. One workspace per
/// thread: workspaces are plain owned data, created inside each
/// `mpvar-exec` worker closure, so parallel trials never alias.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    lanes: usize,
    l_vals: Vec<f64>,
    u_vals: Vec<f64>,
    inv_diag: Vec<f64>,
    work: Vec<f64>,
}

impl LuWorkspace {
    /// Sizes the buffers for `sym` at `lanes` lanes, reusing capacity.
    /// The scatter row starts zeroed; every refactor leaves it zeroed.
    pub(crate) fn prepare(&mut self, sym: &SymbolicLu, lanes: usize) {
        self.lanes = lanes;
        let zeroed = |buf: &mut Vec<f64>, len: usize| {
            buf.clear();
            buf.resize(len * lanes, 0.0);
        };
        zeroed(&mut self.l_vals, sym.l_cols.len());
        zeroed(&mut self.u_vals, sym.u_cols.len());
        zeroed(&mut self.inv_diag, sym.n);
        zeroed(&mut self.work, sym.n);
    }

    /// Capacity bytes currently held (for the workspace-stability gauge).
    pub(crate) fn bytes(&self) -> usize {
        8 * (self.l_vals.capacity()
            + self.u_vals.capacity()
            + self.inv_diag.capacity()
            + self.work.capacity())
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
        // Every split into lane groups of 16/8/4/2/1, with the full-stride
        // (one group spans every lane) and the strided instances, through
        // one workspace prepared for each lane count in turn.
        let mut bws = LuWorkspace::default();
        for lanes in [1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 20] {
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
            bws.prepare(&sym, lanes);
            let mut fail = vec![None; lanes];
            sym.refactor_batch(&csr, &soa, &mut bws, &mut fail);
            assert!(fail.iter().all(Option::is_none), "{fail:?}");
            let mut out = vec![0.0f64; n * lanes];
            sym.solve_batch(&bws, &rhs, &mut out);

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
        let mut bws = LuWorkspace::default();
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
        sym.solve_batch(&bws, &rhs, &mut out);
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

    /// Factors and solves `lane_vals` (each a value array over `csr`'s
    /// slots) as one batch and each lane alone on a one-lane workspace:
    /// every lane's failing pivot row and solution bits must agree.
    fn assert_batch_matches_one_lane(
        sym: &SymbolicLu,
        csr: &CsrMatrix,
        lane_vals: &[Vec<f64>],
        b: &[f64],
    ) {
        let (n, lanes) = (sym.dim(), lane_vals.len());
        let soa: Vec<f64> = (0..csr.nnz())
            .flat_map(|slot| lane_vals.iter().map(move |v| v[slot]))
            .collect();
        let rhs: Vec<f64> = b.iter().flat_map(|&v| vec![v; lanes]).collect();
        let mut bws = LuWorkspace::default();
        bws.prepare(sym, lanes);
        let mut fail = vec![None; lanes];
        sym.refactor_batch(csr, &soa, &mut bws, &mut fail);
        let mut out = vec![0.0; n * lanes];
        sym.solve_batch(&bws, &rhs, &mut out);
        for (l, vals) in lane_vals.iter().enumerate() {
            let mut lane_csr = csr.clone();
            lane_csr.values_mut().copy_from_slice(vals);
            let mut ws = sym.workspace();
            let row = match sym.refactor(&lane_csr, &mut ws) {
                Ok(()) => None,
                Err(SpiceError::SingularMatrix { row }) => Some(row),
                Err(e) => panic!("{e}"),
            };
            assert_eq!(fail[l], row, "lane {l} failing row");
            let x = sym.solve(&ws, b);
            for i in 0..n {
                assert_eq!(
                    out[i * lanes + l].to_bits(),
                    x[i].to_bits(),
                    "lane {l} entry {i}"
                );
            }
        }
    }

    #[test]
    fn zero_multiplier_lanes_ignore_inf_and_nan_in_u() {
        // Pivot row 1's U picks up +inf (1.5e308 + 1.5e308), -inf or NaN
        // at column 2; row 2's multiplier on it is A[2][1] / 1e300, so a
        // lane with A[2][1] = 0 must skip the update (0 * inf is NaN).
        let coords = [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let (mut csr, slots) = CsrMatrix::from_coords(3, &coords);
        let nnz = csr.nnz();
        let lane = |u02: f64, u12: f64, a21: f64| {
            let mut v = vec![0.0; nnz];
            let vals = [1e300, u02, -1e300, 1e300, u12, a21, 1e300];
            for (&slot, x) in slots.iter().zip(vals) {
                v[slot as usize] = x;
            }
            v
        };
        let (big, nan) = (1.5e308, f64::NAN);
        csr.values_mut().copy_from_slice(&lane(1.0, 1.0, 1.0));
        let sym = SymbolicLu::analyze(&csr).unwrap();
        assert_eq!(sym.perm(), [0, 1, 2]);
        let b = [1.0, -2.0, 3.0];
        // One group of four mixes zero and nonzero multipliers (lane 1
        // takes the inf), then a strided fifth lane.
        let mixed = [
            lane(big, big, 0.0),
            lane(big, big, 1e290),
            lane(1.0, nan, 0.0),
            lane(-big, -big, 0.0),
            lane(1.0, nan, 1e290),
        ];
        assert_batch_matches_one_lane(&sym, &csr, &mixed, &b);
        // Every lane's multiplier on row 1 is zero: the whole row update
        // is skipped.
        let zeros = [
            lane(big, big, 0.0),
            lane(1.0, nan, 0.0),
            lane(-big, -big, 0.0),
        ];
        assert_batch_matches_one_lane(&sym, &csr, &zeros, &b);
        // The skip keeps the unit-lower row exact: x_2 = b_2 / 1e300.
        let mut ws = sym.workspace();
        csr.values_mut().copy_from_slice(&zeros[0]);
        sym.refactor(&csr, &mut ws).unwrap();
        assert_eq!(sym.solve(&ws, &b)[2], 3.0 * (1.0 / 1e300));
    }

    #[test]
    fn workspace_after_singular_refactor_matches_a_fresh_one() {
        let coords = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)];
        let (mut csr, slots) = CsrMatrix::from_coords(3, &coords);
        let mut set = |vs: [f64; 7]| {
            for (&slot, v) in slots.iter().zip(vs) {
                csr.values_mut()[slot as usize] = v;
            }
            csr.clone()
        };
        let healthy = set([4.0, 1.0, 2.0, 5.0, 1.0, 1.0, 3.0]);
        // Row 1 is twice row 0 on the first two columns: pivot 1 is 0.
        let singular = set([1.0, 2.0, 2.0, 4.0, 1.0, 1.0, 3.0]);
        // Row 0's pivot is 0: the analysis must swap rows 0 and 1.
        let swapped = set([0.0, 1.0, 2.0, 5.0, 1.0, 1.0, 3.0]);
        let b = [1.0, -2.0, 0.5];
        let fresh = |a: &CsrMatrix| {
            let sym = SymbolicLu::analyze(a).unwrap();
            let mut ws = sym.workspace();
            sym.refactor(a, &mut ws).unwrap();
            sym.solve(&ws, &b)
        };
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();

        let sym = SymbolicLu::analyze(&healthy).unwrap();
        let mut ws = sym.workspace();
        assert!(matches!(
            sym.refactor(&singular, &mut ws),
            Err(SpiceError::SingularMatrix { row: 1 })
        ));
        // The same analysis on the same workspace: the failed sweep ran
        // to the end and left nothing behind that the next one reads.
        sym.refactor(&healthy, &mut ws).unwrap();
        assert_eq!(bits(sym.solve(&ws, &b)), bits(fresh(&healthy)));

        // A re-analysis prepared into the same workspace, as
        // `MnaWorkspace::factor` does on pivot drift.
        assert!(sym.refactor(&swapped, &mut ws).is_err());
        let sym = SymbolicLu::analyze(&swapped).unwrap();
        assert_ne!(sym.perm(), [0, 1, 2]);
        ws.prepare(&sym, 1);
        sym.refactor(&swapped, &mut ws).unwrap();
        assert_eq!(bits(sym.solve(&ws, &b)), bits(fresh(&swapped)));
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
