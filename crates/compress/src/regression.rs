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
//!
//! [`PlaneCoder`] stores a plane the way SZ does (Liang et al. 2018): each
//! coefficient is quantized against the same coefficient of the piece's
//! previous regression block, the intercept to `eb/100` and each slope to
//! `eb/(100·bs)`, so the plane moves by at most `0.035·eb` at the far corner
//! of a 6³ block. A quantized difference is coded the way JPEG codes a DC
//! difference: its bit length is a *category* symbol, entropy-coded in the
//! chunk's side section, and its bits follow raw in the piece's model. A
//! coefficient that is not finite, or whose difference is out of range,
//! escapes: [`ESCAPE`] and its 64 raw bits.

use amrviz_codec::{BitReader, BitWriter};

use crate::CompressError;

/// Regression plane coefficients for one block: the intercept at block
/// offset (0,0,0), then the slopes along the block-local i/j/k offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RegressionCoeffs(pub [f64; 4]);

impl RegressionCoeffs {
    #[cfg(test)]
    pub(crate) fn predict(&self, di: usize, dj: usize, dk: usize) -> f64 {
        let [b0, bi, bj, bk] = self.0;
        b0 + bi * di as f64 + bj * dj as f64 + bk * dk as f64
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
        let [b0, bi, bj, bk] = self.0;
        let (tj, tk) = (bj * dj as f64, bk * dk as f64);
        // `x` is `di as f64`, counted up exactly instead of converted.
        let mut x = 0.0;
        for di in 0..len {
            visit(di, b0 + bi * x + tj + tk);
            x += 1.0;
        }
    }
}

/// Widest category: a quantized difference of up to 32 bits.
const MAX_CATEGORY: u32 = 32;

/// The category of a coefficient stored raw: not finite, or out of range.
pub(crate) const ESCAPE: u32 = MAX_CATEGORY + 1;

/// A fitted plane as the stream stores it: each coefficient's quantized
/// value (`None`: escaped) and `plane`, what they dequantize to — the plane
/// encoder, selection and decoder all predict with.
pub(crate) struct CodedPlane {
    q: [Option<i64>; 4],
    pub plane: RegressionCoeffs,
}

/// The coefficient codec of one piece's regression planes (module docs).
pub(crate) struct PlaneCoder {
    /// Quantization step (twice the bound) of the intercept and each slope.
    step: [f64; 4],
    /// The quantized coefficients of the piece's previous regression block.
    prev: [i64; 4],
}

impl PlaneCoder {
    pub(crate) fn new(eb: f64, bs: usize) -> Self {
        let slope = eb / (50.0 * bs as f64);
        PlaneCoder {
            step: [eb / 50.0, slope, slope, slope],
            prev: [0; 4],
        }
    }

    /// Quantizes `fit`, without making it the next block's prediction.
    pub(crate) fn quantize(&self, fit: RegressionCoeffs) -> CodedPlane {
        let c = fit.0;
        let q: [Option<i64>; 4] = std::array::from_fn(|a| {
            // |t| < 2⁵² keeps `t` an exact integer and the difference below
            // in range of `i64`; NaN fails it.
            let t = (c[a] / self.step[a]).round();
            let q = (t.abs() < (1u64 << 52) as f64).then_some(t as i64)?;
            ((q - self.prev[a]).unsigned_abs() < 1 << MAX_CATEGORY).then_some(q)
        });
        let deq = std::array::from_fn(|a| q[a].map_or(c[a], |q| q as f64 * self.step[a]));
        CodedPlane {
            q,
            plane: RegressionCoeffs(deq),
        }
    }

    /// Writes `coded` — category symbols onto `side`, their bits onto
    /// `bits` — and makes it the next block's prediction.
    pub(crate) fn commit(&mut self, coded: &CodedPlane, side: &mut Vec<u32>, bits: &mut BitWriter) {
        let coefficients = coded.q.iter().zip(coded.plane.0).zip(&mut self.prev);
        for ((q, raw), prev) in coefficients {
            let Some(q) = *q else {
                side.push(ESCAPE);
                bits.write_bits(raw.to_bits(), 64);
                continue;
            };
            let d = q - *prev;
            let category = u64::BITS - d.unsigned_abs().leading_zeros();
            side.push(category);
            // JPEG's one's complement: a negative difference is `d − 1` in
            // its low `category` bits, so the top bit gives the sign.
            bits.write_bits((d - i64::from(d < 0)) as u64, category);
            *prev = q;
        }
    }

    /// The bits the planes of `categories` take, or `Malformed` if one is
    /// not a category.
    pub(crate) fn bit_count(categories: &[u32]) -> Result<usize, CompressError> {
        categories.iter().try_fold(0, |bits, &c| match c {
            ESCAPE => Ok(bits + 64),
            0..=MAX_CATEGORY => Ok(bits + c as usize),
            _ => Err(CompressError::Malformed(format!("plane category {c}"))),
        })
    }

    /// Inverse of [`PlaneCoder::commit`]: the plane of the next four
    /// `categories`, checked by [`PlaneCoder::bit_count`], off `bits`, which
    /// holds the bits they take.
    pub(crate) fn decode(
        &mut self,
        categories: &[u32],
        bits: &mut BitReader<'_>,
    ) -> RegressionCoeffs {
        let mut read = |n| bits.read_bits(n).expect("sized by bit_count");
        RegressionCoeffs(std::array::from_fn(|a| match categories[a] {
            ESCAPE => f64::from_bits(read(64)),
            category => {
                let v = read(category) as i64;
                let negative = category > 0 && v < 1 << (category - 1);
                let d = if negative { v - (1 << category) + 1 } else { v };
                self.prev[a] = self.prev[a].wrapping_add(d);
                self.prev[a] as f64 * self.step[a]
            }
        }))
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
        RegressionCoeffs([b0, b[0], b[1], b[2]])
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
    RegressionCoeffs([b0, b[0], b[1], b[2]])
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
        let want = [1.5, 2.0, -0.5, 3.0];
        assert!(c.0.iter().zip(want).all(|(c, w)| (c - w).abs() < 1e-10));
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
        assert!((c.0[0] - 9.0).abs() < 1e-12);
        assert!(c.0[1..].iter().all(|&b| b.abs() < 1e-12));
    }

    #[test]
    fn partial_edge_blocks() {
        // 6×2×1 sliver like a domain edge.
        let bs = [6, 2, 1];
        let f = |i: usize, j: usize, _: usize| i as f64 - 4.0 * j as f64;
        let c = fit_block(&block(bs, f), bs);
        assert!((c.0[1] - 1.0).abs() < 1e-10);
        assert!((c.0[2] + 4.0).abs() < 1e-10);
        assert_eq!(c.0[3], 0.0); // single-layer axis has no slope
    }

    #[test]
    fn single_cell_block() {
        let c = fit_block(&[5.5], [1, 1, 1]);
        assert_eq!(c.0, [5.5, 0.0, 0.0, 0.0]);
        assert_eq!(c.predict(0, 0, 0), 5.5);
    }

    #[test]
    fn coefficient_quantization_moves_a_plane_by_at_most_0_035_eb() {
        amrviz_rng::check(0x9A7E, 64, |rng| {
            let eb = 10f64.powf(rng.range_f64(-6.0, 2.0));
            let mut coder = PlaneCoder::new(eb, 6);
            let (mut side, mut bits, mut planes) = (Vec::new(), BitWriter::new(), Vec::new());
            // A run of blocks, each quantized against the one before.
            for _ in 0..12 {
                let ext = [0; 3].map(|_| rng.range_usize(1, 7));
                let scale = eb * 10f64.powf(rng.range_f64(-2.0, 4.0));
                let tilt = [0; 3].map(|_| rng.range_f64(-scale, scale));
                let mut noise = rng.fork(1);
                let mut f = |i: usize, j: usize, k: usize| {
                    let plane = tilt[0] * i as f64 + tilt[1] * j as f64 + tilt[2] * k as f64;
                    plane + scale + noise.range_f64(-scale, scale)
                };
                let mut vals = Vec::new();
                for dk in 0..ext[2] {
                    for dj in 0..ext[1] {
                        for di in 0..ext[0] {
                            vals.push(f(di, dj, dk));
                        }
                    }
                }
                let fit = fit_block(&vals, ext);
                let coded = coder.quantize(fit);
                assert!(coded.q.iter().all(Option::is_some), "nothing escapes");
                for (dk, dj, di) in iproduct(ext) {
                    let moved = (coded.plane.predict(di, dj, dk) - fit.predict(di, dj, dk)).abs();
                    assert!(moved <= 0.035 * eb * (1.0 + 1e-9), "{moved:e} at eb {eb:e}");
                }
                coder.commit(&coded, &mut side, &mut bits);
                planes.push(coded.plane);
            }
            // The decoder rebuilds the same planes from categories and bits.
            let bits = bits.finish();
            assert_eq!(
                PlaneCoder::bit_count(&side).unwrap().div_ceil(8),
                bits.len()
            );
            let (mut decoder, mut reader) = (PlaneCoder::new(eb, 6), BitReader::new(&bits));
            for (categories, want) in side.chunks_exact(4).zip(planes) {
                assert_eq!(decoder.decode(categories, &mut reader), want);
            }
        });
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
