//! The SZ-Interp compressor: global multi-level spline interpolation
//! (Zhao et al. 2021, the paper's second algorithm).
//!
//! Unlike SZ-L/R there is no blocking: prediction sweeps the *entire*
//! volume level by level. Starting from the single stored corner value, each
//! level halves the grid stride, predicting the new points along one
//! dimension at a time with 4-point cubic interpolation
//! (weights −1/16, 9/16, 9/16, −1/16), falling back to linear/constant
//! where neighbors are missing. Residuals go through the shared
//! error-bounded quantizer; symbols through the shared Huffman + LZSS
//! stage. A piece's model is the raw corner anchor and the outliers.
//!
//! The global smooth predictor is why SZ-Interp wins on smooth fields
//! (WarpX) and why its artifacts are smooth "bumps"/faulted geometry rather
//! than blocks (paper §4).

use amrviz_par::scratch;

use crate::field::{Field3View, FieldMut};
use crate::quantizer::{Outliers, QuantStats, Quantizer};
use crate::wire::{ByteReader, ByteWriter, SideSymbols};
use crate::{CompressError, Compressor};

/// Magic byte identifying an SZ-Interp stream.
const MAGIC: u8 = 0xA2;

/// SZ-Interp compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct SzInterp;

/// 4-point cubic interpolation at the midpoint of the central interval.
#[inline]
fn cubic(a: f64, b: f64, c: f64, d: f64) -> f64 {
    (-a + 9.0 * b + 9.0 * c - d) * (1.0 / 16.0)
}

/// How a site is predicted from the known points of its line, which sit at
/// `t−3s`, `t−s`, `t+s`, `t+3s` along the axis being interpolated.
#[derive(Clone, Copy)]
enum Stencil {
    /// All four neighbors exist.
    Cubic,
    /// Only the inner pair is usable: their mean.
    Linear,
    /// Nothing beyond the site: constant extension of `t−s`.
    Constant,
}

impl Stencil {
    /// The stencil of site `t` (an odd multiple of `s`) on an axis of `n`
    /// points.
    #[inline]
    fn at(t: usize, s: usize, n: usize) -> Stencil {
        if t + s >= n {
            Stencil::Constant
        } else if t >= 3 * s && t + 3 * s < n {
            Stencil::Cubic
        } else {
            Stencil::Linear
        }
    }
}

/// Predicts and visits the sites `row + i` for `i = 0, step, 2·step, … < nx`
/// of one x-row whose interpolation axis runs *across* rows: the neighbors
/// of a site sit `d` and `3d` elements before and after it, in rows that
/// are already complete. The stencil is the same for the whole row, and the
/// five rows are cut out once, so the site loop indexes equal-length slices.
#[inline(always)]
fn across_rows(
    v: &mut [f64],
    (row, nx, step): (usize, usize, usize),
    d: usize,
    stencil: Stencil,
    visit: &mut impl FnMut(usize, f64) -> f64,
) {
    let (before, rest) = v.split_at_mut(row);
    let (cur, after) = rest.split_at_mut(nx);
    let m1 = &before[row - d..][..nx];
    match stencil {
        Stencil::Constant => {
            for i in (0..nx).step_by(step) {
                cur[i] = visit(row + i, m1[i]);
            }
        }
        Stencil::Linear => {
            let p1 = &after[d - nx..][..nx];
            for i in (0..nx).step_by(step) {
                cur[i] = visit(row + i, 0.5 * (m1[i] + p1[i]));
            }
        }
        Stencil::Cubic => {
            let m3 = &before[row - 3 * d..][..nx];
            let p1 = &after[d - nx..][..nx];
            let p3 = &after[3 * d - nx..][..nx];
            for i in (0..nx).step_by(step) {
                cur[i] = visit(row + i, cubic(m3[i], m1[i], p1[i], p3[i]));
            }
        }
    }
}

/// Visits every site of one full interpolation schedule in a fixed order,
/// computing the prediction from the current reconstruction buffer and
/// handing `(index, prediction)` to `visit`, which returns the
/// reconstructed value to store.
///
/// Shared by compressor and decompressor so the traversal can never drift
/// out of sync. Each pass walks x-rows by base offset and stride; nothing
/// is addressed as `i + nx·(j + ny·k)` per site.
fn sweep(recon: FieldMut<'_>, mut visit: impl FnMut(usize, f64) -> f64) {
    let [nx, ny, nz] = recon.dims;
    let v = recon.data;
    let max_dim = nx.max(ny).max(nz);
    if max_dim <= 1 {
        return;
    }
    let plane = nx * ny;
    let mut s = max_dim.next_power_of_two() / 2;
    while s >= 1 {
        let s2 = 2 * s;
        // Pass 1: interpolate along x on the (2s, 2s) coarse lattice. Sites
        // and neighbors interleave in one row, so the stencil is per site.
        for k in (0..nz).step_by(s2) {
            for j in (0..ny).step_by(s2) {
                let row = nx * j + plane * k;
                for i in (s..nx).step_by(s2) {
                    let at = row + i;
                    let pred = match Stencil::at(i, s, nx) {
                        Stencil::Constant => v[at - s],
                        Stencil::Linear => 0.5 * (v[at - s] + v[at + s]),
                        Stencil::Cubic => cubic(v[at - 3 * s], v[at - s], v[at + s], v[at + 3 * s]),
                    };
                    v[at] = visit(at, pred);
                }
            }
        }
        // Pass 2: along y; x is now known at stride s.
        for k in (0..nz).step_by(s2) {
            for j in (s..ny).step_by(s2) {
                let rows = (nx * j + plane * k, nx, s);
                across_rows(v, rows, s * nx, Stencil::at(j, s, ny), &mut visit);
            }
        }
        // Pass 3: along z; x and y known at stride s.
        for k in (s..nz).step_by(s2) {
            let stencil = Stencil::at(k, s, nz);
            for j in (0..ny).step_by(s) {
                let rows = (nx * j + plane * k, nx, s);
                across_rows(v, rows, s * plane, stencil, &mut visit);
            }
        }
        s /= 2;
    }
}

impl Compressor for SzInterp {
    fn name(&self) -> &'static str {
        "SZ-Itp"
    }

    fn tag(&self) -> u64 {
        MAGIC.into()
    }

    /// Every cell but the corner anchor, which the model stores raw.
    fn symbol_count(&self, dims: [usize; 3]) -> usize {
        dims.iter().product::<usize>() - 1
    }

    fn encode_piece(
        &self,
        field: Field3View<'_>,
        eb: f64,
        model: &mut ByteWriter,
        symbols: &mut Vec<u32>,
        _side: &mut Vec<u32>,
    ) {
        let _sp = amrviz_obs::span!("szitp.compress", values = field.len());
        let dims = field.dims;
        let n = field.len();
        let data = field.data;
        let q = Quantizer::new(eb);

        // Working buffers are rented per worker thread, not allocated per
        // field.
        let mut recon = scratch::take_f64();
        recon.resize(n, 0.0);
        recon[0] = data[0]; // corner anchor, stored raw
        let mut outliers = scratch::take_f64();
        let start = symbols.len();
        symbols.resize(start + n - 1, 0);
        let codes = &mut symbols[start..];

        let mut pos = 0usize;
        sweep(FieldMut::new(dims, &mut recon), |at, pred| {
            let (code, value) = q.encode(pred, data[at]);
            codes[pos] = code;
            pos += 1;
            if code == 0 {
                outliers.push(value);
            }
            value
        });

        // The model: the anchor, then the outliers.
        model.f64(data[0]);
        model.f64_section(&outliers);
        QuantStats {
            codes: (codes.len() - outliers.len()) as u64,
            outliers: outliers.len() as u64,
        }
        .report();
        scratch::give_f64(outliers);
        scratch::give_f64(recon);
    }

    fn decode_piece(
        &self,
        dims: [usize; 3],
        eb: f64,
        model: &mut ByteReader<'_>,
        codes: &[u32],
        _side: &mut SideSymbols<'_>,
        out: &mut Vec<f64>,
    ) -> Result<(), CompressError> {
        let _sp = amrviz_obs::span!("szitp.decompress", values = codes.len() + 1);
        let q = Quantizer::new(eb);
        let anchor = model.f64()?;
        // Checked against the zero codes — short *and* surplus — before
        // anything is written; the sweep below cannot fail. Outliers stream
        // straight out of the borrowed section, no copy.
        let mut outliers = Outliers::new(model.section()?, codes)?;

        // Every cell is written below, so a buffer that already has the
        // right length (a fab decoded in place) is not zeroed first.
        out.resize(codes.len() + 1, 0.0);
        out[0] = anchor;
        let mut pos = 0usize;
        sweep(FieldMut::new(dims, out), |_, pred| {
            let code = codes[pos];
            pos += 1;
            match code {
                0 => outliers.take(),
                code => q.reconstruct(pred, code),
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{
        bits, decode, decode_in_place, decode_into, encode, from_fn, oracle_case,
    };
    use crate::{DecodeBudget, ErrorBound};
    use amrviz_rng::check;

    /// The per-site sweep the row passes replaced, kept verbatim as the
    /// reference (only the framing follows the wire: the body of a
    /// one-piece chunk): every neighbor addressed through `idx(i, j, k)`
    /// behind a `&dyn Fn`, the stencil decided per site, and the
    /// `f64::round` quantizer.
    mod oracle {
        use super::super::cubic;
        use crate::quantizer::{quantize_oracle, Quantized, Quantizer};
        use crate::wire::{ByteReader, ByteWriter};
        use crate::CompressError;

        fn sweep(dims: [usize; 3], recon: &mut [f64], mut visit: impl FnMut(usize, f64) -> f64) {
            let [nx, ny, nz] = dims;
            let idx = |i: usize, j: usize, k: usize| i + nx * (j + ny * k);
            let max_dim = nx.max(ny).max(nz);
            if max_dim <= 1 {
                return;
            }
            let mut s = max_dim.next_power_of_two() / 2;
            while s >= 1 {
                let s2 = 2 * s;
                let predict_line =
                    |recon: &[f64], n: usize, t: usize, at: &dyn Fn(usize) -> usize| {
                        let vm1 = recon[at(t - s)];
                        let p1 = t + s;
                        if p1 >= n {
                            return vm1;
                        }
                        let vp1 = recon[at(p1)];
                        let m3 = t as isize - 3 * s as isize;
                        let p3 = t + 3 * s;
                        if m3 >= 0 && p3 < n {
                            cubic(recon[at(m3 as usize)], vm1, vp1, recon[at(p3)])
                        } else {
                            0.5 * (vm1 + vp1)
                        }
                    };
                for k in (0..nz).step_by(s2) {
                    for j in (0..ny).step_by(s2) {
                        for i in (s..nx).step_by(s2) {
                            let pred = predict_line(recon, nx, i, &|t| idx(t, j, k));
                            recon[idx(i, j, k)] = visit(idx(i, j, k), pred);
                        }
                    }
                }
                for k in (0..nz).step_by(s2) {
                    for j in (s..ny).step_by(s2) {
                        for i in (0..nx).step_by(s) {
                            let pred = predict_line(recon, ny, j, &|t| idx(i, t, k));
                            recon[idx(i, j, k)] = visit(idx(i, j, k), pred);
                        }
                    }
                }
                for k in (s..nz).step_by(s2) {
                    for j in (0..ny).step_by(s) {
                        for i in (0..nx).step_by(s) {
                            let pred = predict_line(recon, nz, k, &|t| idx(i, j, t));
                            recon[idx(i, j, k)] = visit(idx(i, j, k), pred);
                        }
                    }
                }
                s /= 2;
            }
        }

        pub fn compress(dims: [usize; 3], data: &[f64], eb: f64) -> Vec<u8> {
            let q = Quantizer::new(eb);
            let mut recon = vec![0.0; data.len()];
            recon[0] = data[0];
            let (mut codes, mut outliers) = (Vec::new(), Vec::new());
            sweep(dims, &mut recon, |at, pred| {
                let actual = data[at];
                match quantize_oracle(&q, pred, actual) {
                    Quantized::Code { code, recon } => {
                        codes.push(code);
                        recon
                    }
                    Quantized::Outlier => {
                        codes.push(0);
                        outliers.push(actual);
                        actual
                    }
                }
            });
            let mut model = ByteWriter::new();
            model.f64(data[0]);
            let outlier_bytes: Vec<u8> = outliers.iter().flat_map(|v| v.to_le_bytes()).collect();
            model.section(&outlier_bytes);
            let mut w = ByteWriter::new();
            w.section(&model.finish());
            w.coded_section(&codes);
            w.coded_section(&[]);
            w.finish()
        }

        pub fn decompress(
            dims: [usize; 3],
            eb: f64,
            body: &[u8],
        ) -> Result<Vec<f64>, CompressError> {
            let n = dims.iter().product();
            let q = Quantizer::new(eb);
            let mut r = ByteReader::new(body);
            let mut model = ByteReader::new(r.section()?);
            let mut recon = vec![0.0; n];
            recon[0] = model.f64()?;
            let mut outliers = model
                .section()?
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
            let mut codes = Vec::new();
            r.coded_section(n - 1..=n - 1, &mut codes)?;
            let mut code_pos = 0;
            sweep(dims, &mut recon, |_, pred| {
                let code = codes[code_pos];
                code_pos += 1;
                if code == 0 {
                    outliers.next().unwrap()
                } else {
                    q.reconstruct(pred, code)
                }
            });
            Ok(recon)
        }
    }

    #[test]
    fn row_passes_match_the_per_site_oracle() {
        check(0x17E2, 96, |rng| {
            let (dims, f, bound) = oracle_case(rng);
            let (got, eb) = encode(&SzInterp, dims, &f, bound);
            let want = oracle::compress(dims, &f, eb);
            assert_eq!(got, want, "body differs: dims {dims:?} {bound:?}");
            let want = oracle::decompress(dims, eb, &got).unwrap();
            let got = decode_in_place(&SzInterp, (dims, eb), &got);
            assert_eq!(bits(&got), bits(&want), "decode differs: {dims:?}");
        });
    }

    #[test]
    fn short_and_surplus_outliers_are_rejected_before_writing() {
        let mut rng = amrviz_rng::Rng::seed(9);
        let dims = [9, 6, 5];
        let f = from_fn(dims, |i, _, _| {
            i as f64 + if rng.chance(0.1) { 1e6 } else { 0.0 }
        });
        let (good, eb) = encode(&SzInterp, dims, &f, ErrorBound::Abs(0.01));
        // The model (anchor and outliers), the coded symbols, the empty
        // side section.
        let mut r = ByteReader::new(&good);
        let mut model = ByteReader::new(r.section().unwrap());
        let anchor = model.f64().unwrap();
        let outliers = model.section().unwrap();
        let coded = r.section().unwrap();
        assert!(outliers.len() >= 16 && r.section().unwrap().is_empty() && r.remaining() == 0);
        // One byte more, one value fewer.
        for edited in [[outliers, &[0u8][..]].concat(), outliers[8..].to_vec()] {
            let mut model = ByteWriter::new();
            model.f64(anchor);
            model.section(&edited);
            let mut w = ByteWriter::new();
            w.section(&model.finish());
            w.section(coded);
            w.section(&[]);
            let mut out = vec![7.0; 3];
            let budget = DecodeBudget::default();
            let err = decode_into(&SzInterp, (dims, eb), &w.finish(), &budget, &mut out);
            let err = err.unwrap_err();
            assert!(matches!(err, CompressError::Malformed(_)), "{err}");
            assert_eq!(out, [7.0; 3], "output touched");
        }
    }

    fn check_bound(orig: &[f64], recon: &[f64], eb: f64) {
        assert_eq!(orig.len(), recon.len());
        for (n, (a, b)) in orig.iter().zip(recon).enumerate() {
            assert!(
                (a - b).abs() <= eb * (1.0 + 1e-12),
                "bound violated at {n}: |{a} - {b}| > {eb}"
            );
        }
    }

    fn smooth_field(dims: [usize; 3]) -> Vec<f64> {
        from_fn(dims, |i, j, k| {
            (i as f64 * 0.1).sin() * (j as f64 * 0.08).cos() * (1.0 + 0.02 * k as f64)
        })
    }

    /// `f` through a one-piece chunk under `bound`, checked against the
    /// bound it resolved to: the body's length and the decoded cells.
    fn roundtrip(dims: [usize; 3], f: &[f64], bound: ErrorBound) -> (usize, Vec<f64>) {
        let (body, eb) = encode(&SzInterp, dims, f, bound);
        let back = decode(&SzInterp, (dims, eb), &body).unwrap();
        check_bound(f, &back, eb);
        (body.len(), back)
    }

    #[test]
    fn sweep_visits_every_point_once() {
        for dims in [[8, 8, 8], [7, 5, 3], [1, 1, 9], [16, 1, 1], [2, 3, 2]] {
            let n = dims[0] * dims[1] * dims[2];
            let mut seen = vec![false; n];
            seen[0] = true; // anchor
            let mut recon = vec![0.0; n];
            sweep(FieldMut::new(dims, &mut recon), |at, _| {
                assert!(!seen[at], "site {at} visited twice (dims {dims:?})");
                seen[at] = true;
                0.0
            });
            assert!(
                seen.iter().all(|&s| s),
                "not all sites visited for {dims:?}"
            );
        }
    }

    #[test]
    fn roundtrip_smooth_within_bound() {
        let f = smooth_field([20, 18, 16]);
        for rel in [1e-4, 1e-3, 1e-2] {
            roundtrip([20, 18, 16], &f, ErrorBound::Rel(rel));
        }
    }

    #[test]
    fn beats_szlr_on_very_smooth_data() {
        use crate::szlr::SzLr;
        let dims = [32, 32, 32];
        let f = smooth_field(dims);
        let bytes = |comp: &dyn Compressor| encode(comp, dims, &f, ErrorBound::Rel(1e-3)).0.len();
        let (itp, lr) = (bytes(&SzInterp), bytes(&SzLr::default()));
        assert!(
            itp < lr,
            "interp should win on smooth data: {itp} vs {lr} bytes"
        );
    }

    #[test]
    fn random_field_respects_bound() {
        let mut rng = amrviz_rng::Rng::seed(5);
        let f = from_fn([11, 13, 6], |_, _, _| rng.range_f64(-50.0, 50.0));
        roundtrip([11, 13, 6], &f, ErrorBound::Abs(0.25));
    }

    #[test]
    fn degenerate_shapes() {
        for dims in [[1, 1, 1], [64, 1, 1], [1, 32, 1], [2, 2, 2], [1, 1, 128]] {
            let f = from_fn(dims, |i, j, k| (i + 2 * j + 3 * k) as f64 * 0.37);
            roundtrip(dims, &f, ErrorBound::Rel(1e-3));
        }
    }

    #[test]
    fn constant_field_exact() {
        let f = vec![-2.5; 729];
        let (len, back) = roundtrip([9, 9, 9], &f, ErrorBound::Rel(1e-2));
        assert_eq!(back, f);
        assert!(len < 200, "constant body too big: {len}");
    }

    #[test]
    fn larger_bound_compresses_more() {
        let dims = [24, 24, 24];
        let f = smooth_field(dims);
        let (small, _) = roundtrip(dims, &f, ErrorBound::Rel(1e-4));
        let (large, _) = roundtrip(dims, &f, ErrorBound::Rel(1e-2));
        assert!(large < small);
    }

    #[test]
    fn corrupt_stream_rejected() {
        let dims = [8, 8, 8];
        let (body, eb) = encode(&SzInterp, dims, &smooth_field(dims), ErrorBound::Rel(1e-3));
        assert!(decode(&SzInterp, (dims, eb), &body[..6]).is_err());
        let mut bad = body.clone();
        bad[0] = 0x00;
        assert!(decode(&SzInterp, (dims, eb), &bad).is_err());
    }

    #[test]
    fn bound_never_violated() {
        check(0x1CE, 16, |rng| {
            let nx = rng.range_usize(1, 13);
            let ny = rng.range_usize(1, 13);
            let nz = rng.range_usize(1, 13);
            let eb_exp = rng.range_i64(-6, -1) as i32;
            let mut field_rng = rng.fork(1);
            let dims = [nx, ny, nz];
            let f = from_fn(dims, |i, _, k| {
                (k as f64 * 0.2).cos() + field_rng.range_f64(-0.3, 0.3) + i as f64 * 0.05
            });
            let eb = 10f64.powi(eb_exp) * Field3View::new(dims, &f).range().max(1e-12);
            roundtrip(dims, &f, ErrorBound::Abs(eb));
        });
    }
}
