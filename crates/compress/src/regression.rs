//! Per-block linear regression prediction (the "R" of SZ-L/R), one block
//! row at a time.
//!
//! Each block fits `f(di,dj,dk) = β₀ + β₁·di + β₂·dj + β₃·dk` to the block's
//! original values by least squares. Because block offsets form a full
//! rectangular lattice, the design matrix is orthogonal after centering and
//! the fit has a cheap closed form — no linear solve needed.
//!
//! [`FitSums`] accumulates the four sums of that closed form one row slice
//! at a time, in x-fastest block order (the order pins the bits). The
//! prediction along a row is `((β₀ + β₁·di) + β₂·dj) + β₃·dk` with the last
//! two products hoisted per row; it does not depend on the previous cell, so
//! unlike Lorenzo the quantize steps of a row overlap.

/// Regression plane coefficients for one block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RegressionCoeffs {
    /// Intercept at block offset (0,0,0).
    pub b0: f64,
    /// Slopes along the block-local i/j/k offsets.
    pub b: [f64; 3],
}

impl RegressionCoeffs {
    #[cfg(test)]
    pub(crate) fn predict(&self, di: usize, dj: usize, dk: usize) -> f64 {
        self.b0 + self.b[0] * di as f64 + self.b[1] * dj as f64 + self.b[2] * dk as f64
    }

    /// The coefficients as the stream stores them (`f32`×4, little-endian).
    pub(crate) fn to_wire(self) -> [f32; 4] {
        [
            self.b0 as f32,
            self.b[0] as f32,
            self.b[1] as f32,
            self.b[2] as f32,
        ]
    }

    /// The coefficients the decoder sees; the encoder predicts with the
    /// same rounded values to stay in sync.
    pub(crate) fn from_wire(c: [f32; 4]) -> Self {
        RegressionCoeffs {
            b0: c[0] as f64,
            b: [c[1] as f64, c[2] as f64, c[3] as f64],
        }
    }

    /// Walks row `(dj, dk)` of the block: `visit(di, pred)`. The visitor
    /// has the shape the Lorenzo walk needs, so one quantize step serves
    /// both; the value it returns is not used here.
    #[inline(always)]
    pub(crate) fn walk(
        &self,
        len: usize,
        [dj, dk]: [usize; 2],
        mut visit: impl FnMut(usize, f64) -> f64,
    ) {
        let (tj, tk) = (self.b[1] * dj as f64, self.b[2] * dk as f64);
        // `x` is `di as f64`, counted up exactly instead of converted.
        let mut x = 0.0;
        for di in 0..len {
            visit(di, self.b0 + self.b[0] * x + tj + tk);
            x += 1.0;
        }
    }
}

/// Running sums of the closed-form fit over a block with extents `ext`.
pub(crate) struct FitSums {
    ext: [usize; 3],
    /// Centroid of the block offsets: centering makes the design orthogonal.
    center: [f64; 3],
    sv: f64,
    sxv: [f64; 3],
}

impl FitSums {
    pub(crate) fn new(ext: [usize; 3]) -> Self {
        FitSums {
            ext,
            center: ext.map(|m| (m as f64 - 1.0) / 2.0),
            sv: 0.0,
            sxv: [0.0; 3],
        }
    }

    /// Adds row `(dj, dk)`; rows must arrive in x-fastest block order.
    #[inline]
    pub(crate) fn add_row(&mut self, row: &[f64], [dj, dk]: [usize; 2]) {
        let [ci, cj, ck] = self.center;
        let (wj, wk) = (dj as f64 - cj, dk as f64 - ck);
        // `x` is `di as f64`, counted up exactly instead of converted.
        let mut x = 0.0;
        for &v in row {
            self.sv += v;
            self.sxv[0] += (x - ci) * v;
            self.sxv[1] += wj * v;
            self.sxv[2] += wk * v;
            x += 1.0;
        }
    }

    /// The least-squares plane:
    ///   β_a = Σ (x_a − x̄_a)·v / Σ (x_a − x̄_a)²   per axis,
    ///   β₀' = v̄ (intercept at the centroid), shifted back to offset 0.
    pub(crate) fn finish(self) -> RegressionCoeffs {
        let [bi, bj, bk] = self.ext;
        // Σ (x − x̄)² for 0..m-1 along one axis, times the count of the
        // other two axes.
        let sq = |m: usize| m as f64 * (m as f64 * m as f64 - 1.0) / 12.0;
        let denom = [
            sq(bi) * (bj * bk) as f64,
            sq(bj) * (bi * bk) as f64,
            sq(bk) * (bi * bj) as f64,
        ];
        let vbar = self.sv / (bi * bj * bk) as f64;
        let mut b = [0.0f64; 3];
        for a in 0..3 {
            b[a] = if denom[a] > 0.0 {
                self.sxv[a] / denom[a]
            } else {
                0.0
            };
        }
        let [ci, cj, ck] = self.center;
        let b0 = vbar - b[0] * ci - b[1] * cj - b[2] * ck;
        RegressionCoeffs { b0, b }
    }
}

/// Whole-block reference [`FitSums`] is tested against: fits the plane to
/// `values`, the block contents in x-fastest order with extents
/// `bs = [bi, bj, bk]` (partial edge blocks allowed).
#[cfg(test)]
pub(crate) fn fit_block(values: &[f64], bs: [usize; 3]) -> RegressionCoeffs {
    let [bi, bj, bk] = bs;
    let n = bi * bj * bk;
    assert_eq!(values.len(), n, "block buffer mismatch");

    // Centered coordinates make the design orthogonal:
    //   β_a = Σ (x_a − x̄_a)·v / Σ (x_a − x̄_a)²   per axis,
    //   β₀' = v̄ (intercept at the centroid).
    let mean = |m: usize| (m as f64 - 1.0) / 2.0;
    let (ci, cj, ck) = (mean(bi), mean(bj), mean(bk));

    let mut sv = 0.0;
    let mut sxv = [0.0f64; 3];
    let mut idx = 0;
    for dk in 0..bk {
        for dj in 0..bj {
            for di in 0..bi {
                let v = values[idx];
                sv += v;
                sxv[0] += (di as f64 - ci) * v;
                sxv[1] += (dj as f64 - cj) * v;
                sxv[2] += (dk as f64 - ck) * v;
                idx += 1;
            }
        }
    }
    // Σ (x − x̄)² for 0..m-1 along one axis, times the count of the other
    // two axes.
    let sq = |m: usize| m as f64 * (m as f64 * m as f64 - 1.0) / 12.0;
    let denom = [
        sq(bi) * (bj * bk) as f64,
        sq(bj) * (bi * bk) as f64,
        sq(bk) * (bi * bj) as f64,
    ];
    let vbar = sv / n as f64;
    let mut b = [0.0f64; 3];
    for a in 0..3 {
        b[a] = if denom[a] > 0.0 {
            sxv[a] / denom[a]
        } else {
            0.0
        };
    }
    // Shift intercept from centroid back to offset (0,0,0).
    let b0 = vbar - b[0] * ci - b[1] * cj - b[2] * ck;
    RegressionCoeffs { b0, b }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(bs: [usize; 3], f: impl Fn(usize, usize, usize) -> f64) -> Vec<f64> {
        let mut v = Vec::new();
        for dk in 0..bs[2] {
            for dj in 0..bs[1] {
                for di in 0..bs[0] {
                    v.push(f(di, dj, dk));
                }
            }
        }
        v
    }

    #[test]
    fn exact_on_planes() {
        let bs = [6, 6, 6];
        let f =
            |i: usize, j: usize, k: usize| 1.5 + 2.0 * i as f64 - 0.5 * j as f64 + 3.0 * k as f64;
        let c = fit_block(&block(bs, f), bs);
        assert!((c.b0 - 1.5).abs() < 1e-10);
        assert!((c.b[0] - 2.0).abs() < 1e-10);
        assert!((c.b[1] + 0.5).abs() < 1e-10);
        assert!((c.b[2] - 3.0).abs() < 1e-10);
        for (idx, (dk, dj, di)) in iproduct(bs).enumerate() {
            let want = block(bs, f)[idx];
            assert!((c.predict(di, dj, dk) - want).abs() < 1e-9);
        }
    }

    fn iproduct(bs: [usize; 3]) -> impl Iterator<Item = (usize, usize, usize)> {
        (0..bs[2])
            .flat_map(move |k| (0..bs[1]).flat_map(move |j| (0..bs[0]).map(move |i| (k, j, i))))
    }

    #[test]
    fn constant_block() {
        let bs = [4, 4, 4];
        let c = fit_block(&block(bs, |_, _, _| 9.0), bs);
        assert!((c.b0 - 9.0).abs() < 1e-12);
        assert!(c.b.iter().all(|&b| b.abs() < 1e-12));
    }

    #[test]
    fn partial_edge_blocks() {
        // 6×2×1 sliver like a domain edge.
        let bs = [6, 2, 1];
        let f = |i: usize, j: usize, _: usize| i as f64 - 4.0 * j as f64;
        let c = fit_block(&block(bs, f), bs);
        assert!((c.b[0] - 1.0).abs() < 1e-10);
        assert!((c.b[1] + 4.0).abs() < 1e-10);
        assert_eq!(c.b[2], 0.0); // single-layer axis has no slope
    }

    #[test]
    fn single_cell_block() {
        let c = fit_block(&[5.5], [1, 1, 1]);
        assert_eq!(c.b0, 5.5);
        assert_eq!(c.b, [0.0; 3]);
        assert_eq!(c.predict(0, 0, 0), 5.5);
    }

    #[test]
    fn least_squares_beats_naive_on_noisy_plane() {
        // Plane + deterministic "noise"; the fit should be closer to the
        // plane than a constant predictor.
        let bs = [6, 6, 6];
        let f = |i: usize, j: usize, k: usize| {
            2.0 * i as f64
                + j as f64
                + 0.5 * k as f64
                + 0.3 * (((i * 7 + j * 13 + k * 29) % 5) as f64 - 2.0)
        };
        let vals = block(bs, f);
        let c = fit_block(&vals, bs);
        let mut sse_fit = 0.0;
        let mut sse_mean = 0.0;
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        for (idx, (dk, dj, di)) in iproduct(bs).enumerate() {
            sse_fit += (vals[idx] - c.predict(di, dj, dk)).powi(2);
            sse_mean += (vals[idx] - mean).powi(2);
        }
        assert!(sse_fit < 0.05 * sse_mean, "{sse_fit} vs {sse_mean}");
    }
}
