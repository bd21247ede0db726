//! 3D first-order Lorenzo prediction, one row segment at a time.
//!
//! The Lorenzo predictor estimates a value from its already-processed
//! neighbors (the corner of a unit cube):
//!
//! ```text
//! pred(i,j,k) =  v(i−1,j,k) + v(i,j−1,k) + v(i,j,k−1)
//!              − v(i−1,j−1,k) − v(i−1,j,k−1) − v(i,j−1,k−1)
//!              + v(i−1,j−1,k−1)
//! ```
//!
//! Out-of-domain neighbors contribute 0, which degrades gracefully to 2D/1D
//! Lorenzo on faces/edges. During compression the neighbor values must be
//! *reconstructed* values so the decompressor can mirror the computation.
//!
//! [`Neighbours::walk`] predicts one x-row segment. The seven neighbors of a
//! cell live in four rows — the row itself and the rows at `j−1`, `k−1` and
//! `(j−1, k−1)` — so [`Neighbours`] cuts the three finished rows out of the
//! buffer once per segment, with an all-zero row standing in for a row that
//! is out of the domain, and the four `i−1` values ride from cell to cell
//! in registers. The cell loop then has no boundary test and no index
//! arithmetic.
//!
//! The sum is evaluated exactly as written above, left to right. That pins
//! every stream byte, and it puts `v(i−1,j,k)` — the value the previous
//! cell has only just produced — innermost: encoding a Lorenzo row is a
//! serial chain of six additions plus the quantize round trip per cell, so
//! it is latency-bound and stays well above the regression and
//! interpolation rates. Re-associating the sum would shorten the chain and
//! change the bits.

/// The finished neighbor rows of one row segment and the values just west
/// of it.
pub(crate) struct Neighbours<'a> {
    /// Row `(j−1, k)`, aligned with the segment.
    rj: &'a [f64],
    /// Row `(j, k−1)`.
    rk: &'a [f64],
    /// Row `(j−1, k−1)`.
    rjk: &'a [f64],
    /// The `i−1` values of the segment's own row and of `rj`, `rk`, `rjk`.
    west: [f64; 4],
}

impl<'a> Neighbours<'a> {
    /// Neighbors of the `len`-cell segment that starts at offset
    /// `done.len()` of a volume with x-extent `nx` and plane size `plane`;
    /// `done` is everything before the segment. `inside` says whether the
    /// segment has a west neighbor (`i > 0`), a `j−1` row and a `k−1` row;
    /// `zero` (at least `len` zeros) stands in for the rows it lacks.
    #[inline]
    pub(crate) fn new(
        done: &'a [f64],
        zero: &'a [f64],
        nx: usize,
        plane: usize,
        inside: [bool; 3],
        len: usize,
    ) -> Self {
        let row = done.len();
        let [west, south, below] = inside;
        // Start offset of each neighbor row, `None` when out of the domain.
        let starts = [
            south.then(|| row - nx),
            below.then(|| row - plane),
            (south && below).then(|| row - plane - nx),
        ];
        let cut = |s: Option<usize>| s.map_or(&zero[..len], |s| &done[s..s + len]);
        let before = |s: Option<usize>| match s {
            Some(s) if west => done[s - 1],
            _ => 0.0,
        };
        Neighbours {
            rj: cut(starts[0]),
            rk: cut(starts[1]),
            rjk: cut(starts[2]),
            west: [
                before(Some(row)),
                before(starts[0]),
                before(starts[1]),
                before(starts[2]),
            ],
        }
    }

    /// Walks the segment: `visit(n, pred)` returns the value cell `n` ends
    /// up holding, which is the west neighbor of cell `n + 1`.
    #[inline(always)]
    pub(crate) fn walk(&self, mut visit: impl FnMut(usize, f64) -> f64) {
        let len = self.rj.len();
        let (rj, rk, rjk) = (self.rj, &self.rk[..len], &self.rjk[..len]);
        let [mut w, mut wj, mut wk, mut wjk] = self.west;
        for n in 0..len {
            let pred = w + rj[n] + rk[n] - wj - wk - rjk[n] + wjk;
            w = visit(n, pred);
            (wj, wk, wjk) = (rj[n], rk[n], rjk[n]);
        }
    }
}

/// Per-cell reference the row kernels are tested against: Lorenzo prediction
/// reading neighbors from a dense buffer `v` with dims `[nx, ny, nz]`.
#[cfg(test)]
pub(crate) fn lorenzo3_predict(v: &[f64], dims: [usize; 3], i: usize, j: usize, k: usize) -> f64 {
    let [nx, ny, _] = dims;
    let idx = |i: usize, j: usize, k: usize| i + nx * (j + ny * k);
    let g = |di: usize, dj: usize, dk: usize| -> f64 {
        // di/dj/dk ∈ {0,1} meaning "subtract one from that axis".
        if (di == 1 && i == 0) || (dj == 1 && j == 0) || (dk == 1 && k == 0) {
            0.0
        } else {
            v[idx(i - di, j - dj, k - dk)]
        }
    };
    g(1, 0, 0) + g(0, 1, 0) + g(0, 0, 1) - g(1, 1, 0) - g(1, 0, 1) - g(0, 1, 1) + g(1, 1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(dims: [usize; 3], f: impl Fn(usize, usize, usize) -> f64) -> Vec<f64> {
        let [nx, ny, nz] = dims;
        let mut v = Vec::with_capacity(nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    v.push(f(i, j, k));
                }
            }
        }
        v
    }

    #[test]
    fn exact_for_trilinear_polynomials() {
        // Lorenzo-1 reproduces any function of the form
        // a + b·i + c·j + d·k + e·ij + f·ik + g·jk exactly (the residual of
        // the inclusion–exclusion is the pure ijk mixed difference).
        let dims = [6, 5, 4];
        let f = |i: usize, j: usize, k: usize| {
            2.0 + 3.0 * i as f64 - 1.5 * j as f64 + 0.25 * k as f64 + 0.5 * (i * j) as f64
                - 0.125 * (i * k) as f64
                + 0.75 * (j * k) as f64
        };
        let v = dense(dims, f);
        for k in 1..dims[2] {
            for j in 1..dims[1] {
                for i in 1..dims[0] {
                    let p = lorenzo3_predict(&v, dims, i, j, k);
                    assert!(
                        (p - f(i, j, k)).abs() < 1e-9,
                        "at ({i},{j},{k}): {p} vs {}",
                        f(i, j, k)
                    );
                }
            }
        }
    }

    #[test]
    fn origin_predicts_zero() {
        let v = dense([3, 3, 3], |_, _, _| 42.0);
        assert_eq!(lorenzo3_predict(&v, [3, 3, 3], 0, 0, 0), 0.0);
    }

    #[test]
    fn boundary_degrades_to_lower_dim() {
        // On the j=k=0 edge the predictor is 1D Lorenzo: pred = v(i-1,0,0).
        let dims = [4, 3, 3];
        let v = dense(dims, |i, j, k| (i + 10 * j + 100 * k) as f64);
        assert_eq!(lorenzo3_predict(&v, dims, 2, 0, 0), 1.0);
        // On the k=0 face it is 2D Lorenzo:
        // v(i-1,j,0) + v(i,j-1,0) - v(i-1,j-1,0) = 21 + 12 - 11 = 22,
        // exact for this bilinear field.
        assert_eq!(lorenzo3_predict(&v, dims, 2, 2, 0), 22.0);
    }

    #[test]
    fn constant_field_interior_prediction_is_exact() {
        let dims = [4, 4, 4];
        let v = dense(dims, |_, _, _| 7.0);
        // Interior: 3·7 − 3·7 + 7 = 7.
        assert_eq!(lorenzo3_predict(&v, dims, 2, 2, 2), 7.0);
    }
}
