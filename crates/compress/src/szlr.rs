//! The SZ-L/R compressor: block-wise Lorenzo / linear-regression prediction
//! with error-bounded quantization (Liang et al. 2018, as used by the
//! paper's §3.3).
//!
//! The volume is partitioned into `block_size³` blocks (6³ by default,
//! matching the paper). Each block independently selects the predictor with
//! the smaller estimated total error:
//!
//! * **Lorenzo** — 3D first-order corner predictor on previously
//!   reconstructed values; shares information across block boundaries.
//! * **Regression** — a least-squares plane fitted to the block's original
//!   values; fully local, which is what gives SZ-L/R random access and its
//!   "block-wise" artifact structure at large error bounds.
//!
//! Stream layout (after the common header): predictor-selection bits,
//! regression coefficients (`f32`×4 per regression block), Huffman+LZSS
//! coded quantization symbols, raw outlier values.

use amrviz_codec::{
    huffman_decode_into, huffman_encode_into, lzss_compress_into, lzss_decompress_into,
    DecodeBudget,
};
use amrviz_codec::{BitReader, BitWriter};
use amrviz_par::scratch;

use crate::field::Field3View;
use crate::lorenzo::lorenzo3_predict;
use crate::quantizer::{QuantStats, Quantized, Quantizer};
use crate::regression::{fit_block, RegressionCoeffs};
use crate::wire::{ByteReader, ByteWriter};
use crate::{CompressError, Compressor, ErrorBound};

/// Magic byte identifying an SZ-L/R stream.
const MAGIC: u8 = 0xA1;

/// Which predictors a block may choose — `Hybrid` is the real SZ-L/R;
/// the single-predictor modes exist for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorMode {
    /// Per-block choice between Lorenzo and regression (the paper's SZ-L/R).
    #[default]
    Hybrid,
    /// Force the Lorenzo predictor everywhere.
    LorenzoOnly,
    /// Force the regression predictor everywhere.
    RegressionOnly,
}

/// SZ-L/R compressor configuration.
#[derive(Debug, Clone, Copy)]
pub struct SzLr {
    /// Edge length of prediction blocks (paper: 6).
    pub block_size: usize,
    /// Predictor selection policy.
    pub mode: PredictorMode,
}

impl Default for SzLr {
    fn default() -> Self {
        SzLr {
            block_size: 6,
            mode: PredictorMode::Hybrid,
        }
    }
}

impl SzLr {
    /// Ablation constructor: Lorenzo predictor only.
    pub fn lorenzo_only() -> Self {
        SzLr {
            mode: PredictorMode::LorenzoOnly,
            ..Default::default()
        }
    }

    /// Ablation constructor: regression predictor only.
    pub fn regression_only() -> Self {
        SzLr {
            mode: PredictorMode::RegressionOnly,
            ..Default::default()
        }
    }
}

/// Effective absolute bound; degenerate (zero) bounds get a tiny positive
/// stand-in so the quantizer is well-defined (constant fields then encode
/// as all-zero residuals).
fn effective_eb(bound: ErrorBound, range: f64) -> f64 {
    let eb = bound.to_abs(range);
    if eb > 0.0 {
        eb
    } else {
        1e-300
    }
}

/// Per-block predictor choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pred {
    Lorenzo,
    Regression,
}

impl SzLr {
    fn block_extents(&self, dims: [usize; 3]) -> [usize; 3] {
        [
            dims[0].div_ceil(self.block_size),
            dims[1].div_ceil(self.block_size),
            dims[2].div_ceil(self.block_size),
        ]
    }

    /// Estimates which predictor fits a block better, comparing summed
    /// absolute prediction errors. The Lorenzo estimate uses *original*
    /// neighbors — the standard SZ approximation, cheap and adequate for
    /// selection.
    fn select_predictor(
        &self,
        data: &[f64],
        dims: [usize; 3],
        base: [usize; 3],
        ext: [usize; 3],
        coeffs: &RegressionCoeffs,
    ) -> Pred {
        match self.mode {
            PredictorMode::LorenzoOnly => return Pred::Lorenzo,
            PredictorMode::RegressionOnly => return Pred::Regression,
            PredictorMode::Hybrid => {}
        }
        let mut err_lorenzo = 0.0;
        let mut err_reg = 0.0;
        let [nx, ny, _] = dims;
        for dk in 0..ext[2] {
            for dj in 0..ext[1] {
                for di in 0..ext[0] {
                    let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                    let actual = data[i + nx * (j + ny * k)];
                    err_lorenzo += (lorenzo3_predict(data, dims, i, j, k) - actual).abs();
                    err_reg += (coeffs.predict(di, dj, dk) - actual).abs();
                }
            }
        }
        if err_reg < err_lorenzo {
            Pred::Regression
        } else {
            Pred::Lorenzo
        }
    }
}

impl Compressor for SzLr {
    fn name(&self) -> &'static str {
        "SZ-L/R"
    }

    fn compress_into(&self, field: Field3View<'_>, bound: ErrorBound, out: &mut Vec<u8>) {
        let mut sp = amrviz_obs::span!("szlr.compress", values = field.len());
        let start_len = out.len();
        let dims = field.dims;
        let [nx, ny, nz] = dims;
        let n = field.len();
        let eb = effective_eb(bound, field.range());
        let q = Quantizer::new(eb);
        let mut qstats = QuantStats::default();
        let bs = self.block_size;
        let nblocks = self.block_extents(dims);

        // All working state is rented from the per-thread scratch pool, so
        // a worker compressing many boxes allocates these once, not per box.
        let mut recon = scratch::take_f64();
        recon.resize(n, 0.0);
        let mut codes = scratch::take_u32();
        codes.reserve(n);
        let mut outliers = scratch::take_f64();
        let mut pred_bits = BitWriter::with_buffer(scratch::take_bytes());
        let mut coeff_bytes = ByteWriter::from_vec(scratch::take_bytes());

        let mut block_vals = scratch::take_f64();
        block_vals.reserve(bs * bs * bs);
        for bk in 0..nblocks[2] {
            for bj in 0..nblocks[1] {
                for bi in 0..nblocks[0] {
                    let base = [bi * bs, bj * bs, bk * bs];
                    let ext = [
                        bs.min(nx - base[0]),
                        bs.min(ny - base[1]),
                        bs.min(nz - base[2]),
                    ];
                    // Gather block and fit the regression plane.
                    block_vals.clear();
                    for dk in 0..ext[2] {
                        for dj in 0..ext[1] {
                            for di in 0..ext[0] {
                                let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                                block_vals.push(field.data[i + nx * (j + ny * k)]);
                            }
                        }
                    }
                    let coeffs = fit_block(&block_vals, ext);
                    let pred_kind = self.select_predictor(field.data, dims, base, ext, &coeffs);
                    pred_bits.write_bit(pred_kind == Pred::Regression);

                    // Decompressor sees f32 coefficients; predict with the
                    // same rounded values to stay in sync.
                    let c32 = if pred_kind == Pred::Regression {
                        let c = RegressionCoeffs {
                            b0: coeffs.b0 as f32 as f64,
                            b: [
                                coeffs.b[0] as f32 as f64,
                                coeffs.b[1] as f32 as f64,
                                coeffs.b[2] as f32 as f64,
                            ],
                        };
                        coeff_bytes.f32(coeffs.b0 as f32);
                        coeff_bytes.f32(coeffs.b[0] as f32);
                        coeff_bytes.f32(coeffs.b[1] as f32);
                        coeff_bytes.f32(coeffs.b[2] as f32);
                        Some(c)
                    } else {
                        None
                    };

                    for dk in 0..ext[2] {
                        for dj in 0..ext[1] {
                            for di in 0..ext[0] {
                                let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                                let idx = i + nx * (j + ny * k);
                                let pred = match &c32 {
                                    Some(c) => c.predict(di, dj, dk),
                                    None => lorenzo3_predict(&recon, dims, i, j, k),
                                };
                                let actual = field.data[idx];
                                let quantized = q.quantize(pred, actual);
                                qstats.tally(&quantized);
                                match quantized {
                                    Quantized::Code { code, recon: r } => {
                                        codes.push(code);
                                        recon[idx] = r;
                                    }
                                    Quantized::Outlier => {
                                        codes.push(0);
                                        outliers.push(actual);
                                        recon[idx] = actual;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        scratch::give_f64(block_vals);

        // Assemble the stream directly onto the caller's buffer; the
        // entropy stages run through rented intermediates.
        let mut w = ByteWriter::from_vec(std::mem::take(out));
        w.u8(MAGIC);
        w.uvarint(nx as u64);
        w.uvarint(ny as u64);
        w.uvarint(nz as u64);
        w.f64(eb);
        w.uvarint(bs as u64);
        let pred = pred_bits.finish();
        w.section(&pred);
        scratch::give_bytes(pred);
        let coeff = coeff_bytes.finish();
        w.section(&coeff);
        scratch::give_bytes(coeff);
        let mut huff = scratch::take_bytes();
        huffman_encode_into(&codes, &mut huff);
        let mut lz = scratch::take_bytes();
        lzss_compress_into(&huff, &mut lz);
        w.section(&lz);
        scratch::give_bytes(lz);
        scratch::give_bytes(huff);
        scratch::give_u32(codes);
        scratch::give_f64(recon);
        let mut outlier_bytes = scratch::take_bytes();
        outlier_bytes.reserve(outliers.len() * 8);
        for v in &outliers {
            outlier_bytes.extend_from_slice(&v.to_le_bytes());
        }
        w.section(&outlier_bytes);
        scratch::give_bytes(outlier_bytes);
        scratch::give_f64(outliers);
        *out = w.finish();
        qstats.report();
        sp.add_field("bytes_out", out.len() - start_len);
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        budget: &DecodeBudget,
        out: &mut Vec<f64>,
    ) -> Result<[usize; 3], CompressError> {
        let _sp = amrviz_obs::span!("szlr.decompress", bytes_in = bytes.len());
        let mut r = ByteReader::with_budget(bytes, *budget);
        if r.u8()? != MAGIC {
            return Err(CompressError::Malformed("bad SZ-L/R magic".into()));
        }
        let ([nx, ny, nz], n) = r.dims3()?;
        let eb = r.f64()?;
        let bs = r.uvarint()? as usize;
        if bs == 0 || eb.is_nan() || eb <= 0.0 {
            return Err(CompressError::Malformed("bad SZ-L/R header".into()));
        }
        let dims = [nx, ny, nz];
        let q = Quantizer::new(eb);

        // Section slices borrow the input stream directly (`ByteReader`
        // hands back `&[u8]` tied to `bytes`), so nothing here is copied.
        let pred_section = r.section()?;
        let coeff_section = r.section()?;
        let mut lz = scratch::take_bytes();
        lzss_decompress_into(r.section()?, budget, &mut lz)?;
        let mut codes = scratch::take_u32();
        huffman_decode_into(&lz, budget, &mut codes)?;
        scratch::give_bytes(lz);
        if codes.len() != n {
            return Err(CompressError::Malformed(format!(
                "expected {n} codes, found {}",
                codes.len()
            )));
        }
        let outlier_section = r.section()?;
        if outlier_section.len() % 8 != 0 {
            return Err(CompressError::Malformed("ragged outlier section".into()));
        }
        // Outliers stream straight out of the borrowed section.
        let mut outlier_iter = outlier_section
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")));

        let mut pred_bits = BitReader::new(pred_section);
        let mut coeffs_r = ByteReader::new(coeff_section);
        out.clear();
        out.resize(n, 0.0);
        let recon = &mut out[..];
        let mut code_pos = 0usize;
        let nblocks = self.block_extents_for(dims, bs);

        for bk in 0..nblocks[2] {
            for bj in 0..nblocks[1] {
                for bi in 0..nblocks[0] {
                    let base = [bi * bs, bj * bs, bk * bs];
                    let ext = [
                        bs.min(nx - base[0]),
                        bs.min(ny - base[1]),
                        bs.min(nz - base[2]),
                    ];
                    let is_reg = pred_bits.read_bit()?;
                    let c = if is_reg {
                        Some(RegressionCoeffs {
                            b0: coeffs_r.f32()? as f64,
                            b: [
                                coeffs_r.f32()? as f64,
                                coeffs_r.f32()? as f64,
                                coeffs_r.f32()? as f64,
                            ],
                        })
                    } else {
                        None
                    };
                    for dk in 0..ext[2] {
                        for dj in 0..ext[1] {
                            for di in 0..ext[0] {
                                let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                                let idx = i + nx * (j + ny * k);
                                let pred = match &c {
                                    Some(c) => c.predict(di, dj, dk),
                                    None => lorenzo3_predict(recon, dims, i, j, k),
                                };
                                let code = codes[code_pos];
                                code_pos += 1;
                                recon[idx] = if code == 0 {
                                    outlier_iter.next().ok_or_else(|| {
                                        CompressError::Malformed("missing outlier".into())
                                    })?
                                } else {
                                    q.reconstruct(pred, code)
                                };
                            }
                        }
                    }
                }
            }
        }
        scratch::give_u32(codes);
        Ok(dims)
    }
}

impl SzLr {
    fn block_extents_for(&self, dims: [usize; 3], bs: usize) -> [usize; 3] {
        [
            dims[0].div_ceil(bs),
            dims[1].div_ceil(bs),
            dims[2].div_ceil(bs),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field3;
    use amrviz_rng::check;

    fn check_bound(orig: &Field3, recon: &Field3, eb: f64) {
        assert_eq!(orig.dims, recon.dims);
        for (a, b) in orig.data.iter().zip(&recon.data) {
            assert!(
                (a - b).abs() <= eb * (1.0 + 1e-12),
                "bound violated: |{a} - {b}| > {eb}"
            );
        }
    }

    fn smooth_field(dims: [usize; 3]) -> Field3 {
        Field3::from_fn(dims, |i, j, k| {
            (i as f64 * 0.2).sin() * (j as f64 * 0.15).cos() + 0.05 * k as f64
        })
    }

    #[test]
    fn roundtrip_smooth_within_bound() {
        let f = smooth_field([20, 18, 16]);
        let sz = SzLr::default();
        for rel in [1e-4, 1e-3, 1e-2] {
            let buf = sz.compress(&f, ErrorBound::Rel(rel));
            let back = sz.decompress(&buf).unwrap();
            check_bound(&f, &back, rel * f.range());
        }
    }

    #[test]
    fn compresses_smooth_data_well() {
        let f = smooth_field([32, 32, 32]);
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Rel(1e-3));
        let ratio = f.nbytes() as f64 / buf.len() as f64;
        assert!(ratio > 15.0, "ratio too low: {ratio:.1}");
    }

    #[test]
    fn constant_field_is_tiny_and_exact() {
        let f = Field3::new([16, 16, 16], vec![3.25; 4096]);
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Rel(1e-3));
        assert!(
            buf.len() < 600,
            "constant field stream too big: {}",
            buf.len()
        );
        let back = sz.decompress(&buf).unwrap();
        assert_eq!(back.data, f.data);
    }

    #[test]
    fn random_field_respects_bound() {
        let mut rng = amrviz_rng::Rng::seed(11);
        let f = Field3::from_fn([13, 9, 7], |_, _, _| rng.range_f64(-100.0, 100.0));
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Abs(0.5));
        let back = sz.decompress(&buf).unwrap();
        check_bound(&f, &back, 0.5);
    }

    #[test]
    fn outlier_heavy_data_roundtrips_exactly() {
        // Alternating huge jumps — every residual escapes.
        let f = Field3::from_fn(
            [8, 8, 8],
            |i, j, k| {
                if (i + j + k) % 2 == 0 {
                    1e9
                } else {
                    -1e9
                }
            },
        );
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Abs(1e-9));
        let back = sz.decompress(&buf).unwrap();
        check_bound(&f, &back, 1e-9);
    }

    #[test]
    fn non_multiple_dims_handled() {
        let f = smooth_field([7, 11, 5]); // none a multiple of 6
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Rel(1e-3));
        let back = sz.decompress(&buf).unwrap();
        check_bound(&f, &back, 1e-3 * f.range());
    }

    #[test]
    fn single_cell_field() {
        let f = Field3::new([1, 1, 1], vec![42.0]);
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Abs(0.1));
        let back = sz.decompress(&buf).unwrap();
        assert!((back.data[0] - 42.0).abs() <= 0.1);
    }

    #[test]
    fn regression_wins_on_planes() {
        // A perfect plane: regression predicts exactly; the stream should be
        // almost all zero-residual symbols → very small.
        let f = Field3::from_fn([24, 24, 24], |i, j, k| {
            2.0 * i as f64 - 3.0 * j as f64 + 0.5 * k as f64
        });
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Rel(1e-4));
        let ratio = f.nbytes() as f64 / buf.len() as f64;
        assert!(ratio > 20.0, "plane should compress hard, got {ratio:.1}");
    }

    #[test]
    fn corrupt_stream_rejected() {
        let f = smooth_field([8, 8, 8]);
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Rel(1e-3));
        assert!(sz.decompress(&buf[..4]).is_err());
        let mut bad = buf.clone();
        bad[0] = 0xFF;
        assert!(sz.decompress(&bad).is_err());
    }

    #[test]
    fn expired_deadline_surfaces_through_decompress() {
        // 40³ codes are more than three deadline strides of symbols.
        let f = smooth_field([40, 40, 40]);
        assert!(f.data.len() >= 3 * DecodeBudget::DEADLINE_STRIDE);
        let sz = SzLr::default();
        let buf = sz.compress(&f, ErrorBound::Rel(1e-3));
        let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
        let expired = DecodeBudget::default().with_deadline(past);
        let mut out = Vec::new();
        assert!(sz
            .decompress_into(&buf, &expired, &mut out)
            .unwrap_err()
            .is_deadline());
        let dims = sz
            .decompress_into(&buf, &DecodeBudget::default(), &mut out)
            .unwrap();
        assert_eq!(dims, f.dims);
    }

    #[test]
    fn larger_bound_compresses_more() {
        let f = smooth_field([24, 24, 24]);
        let sz = SzLr::default();
        let small = sz.compress(&f, ErrorBound::Rel(1e-4)).len();
        let large = sz.compress(&f, ErrorBound::Rel(1e-2)).len();
        assert!(large < small, "{large} !< {small}");
    }

    #[test]
    fn bound_never_violated() {
        check(0x52A, 16, |rng| {
            let nx = rng.range_usize(1, 13);
            let ny = rng.range_usize(1, 13);
            let nz = rng.range_usize(1, 13);
            let eb_exp = rng.range_i64(-6, -1) as i32;
            let mut field_rng = rng.fork(1);
            let f = Field3::from_fn([nx, ny, nz], |i, j, _| {
                (i as f64 * 0.3).sin() + field_rng.range_f64(-0.2, 0.2) + j as f64 * 0.01
            });
            let eb = 10f64.powi(eb_exp) * f.range().max(1e-12);
            let sz = SzLr::default();
            let buf = sz.compress(&f, ErrorBound::Abs(eb));
            let back = sz.decompress(&buf).unwrap();
            for (a, b) in f.data.iter().zip(&back.data) {
                assert!((a - b).abs() <= eb * (1.0 + 1e-12));
            }
        });
    }
}
