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
//! A piece's model: predictor-selection bits, the raw bits of its regression
//! planes, raw outlier values. Its symbols are one quantization code per
//! cell, entropy-coded with the other pieces'; its side symbols are four
//! plane categories per regression block, entropy-coded in the chunk's side
//! section. Each plane is quantized against the piece's previous one
//! (`PlaneCoder`), and encoder, selection and decoder all predict with the
//! dequantized plane.
//!
//! # Shape of the hot path
//!
//! Everything below the block loop works on x-row slices of the field; no
//! cell is addressed as `i + nx·(j + ny·k)` and no block is copied out.
//! Selection reads a block twice: one pass feeds each row to the fit sums
//! (`FitSums`) and to the Lorenzo-on-originals error (neither needs the
//! coefficients), a second accumulates the regression error. The predictor
//! choice is then made once per block, outside the cell loop, and the block
//! is encoded row by row through one of two predictor walks
//! (`Neighbours::walk`, `RegressionCoeffs::walk`) around a single inline
//! quantize → code → reconstruct step that writes `codes[pos..pos + len]`
//! by slice; outliers are appended out of line and counted afterwards. The
//! decoder validates its sections up front and then runs the same walks
//! around the inverse step, which cannot fail.
//!
//! What pins the arithmetic: stream bytes are a function of the exact
//! operation order — the Lorenzo sum left to right (see `lorenzo.rs` for why
//! that makes Lorenzo *encode* latency-bound), the regression prediction as
//! `((β₀ + β₁·di) + β₂·dj) + β₃·dk` on the dequantized coefficients, the
//! four fit accumulators adding in x-fastest block order, and
//! `err_reg < err_lorenzo` with its NaN behaviour. The per-cell loops these
//! kernels replaced are kept as test oracles that must agree byte for byte.

use amrviz_codec::{BitReader, BitWriter};
use amrviz_par::scratch;

use crate::field::Field3View;
use crate::lorenzo::Neighbours;
use crate::quantizer::{append_outliers, Outliers, QuantStats, Quantizer};
use crate::regression::{CodedPlane, FitSums, PlaneCoder};
use crate::wire::{ByteReader, ByteWriter, SideSymbols};
use crate::{CompressError, Compressor};

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

/// The block partition of a volume: every block's row segments, in the one
/// order encoder and decoder share.
#[derive(Clone, Copy)]
struct Blocks {
    dims: [usize; 3],
    bs: usize,
}

/// One block: origin and (possibly partial) extents.
#[derive(Clone, Copy)]
struct Block {
    base: [usize; 3],
    ext: [usize; 3],
}

impl Blocks {
    fn count(&self) -> usize {
        self.dims.iter().map(|d| d.div_ceil(self.bs)).product()
    }

    /// Calls `f` for every block, x-fastest.
    fn for_each(&self, mut f: impl FnMut(Block)) {
        let bs = self.bs;
        let [nx, ny, nz] = self.dims;
        for k in (0..nz).step_by(bs) {
            for j in (0..ny).step_by(bs) {
                for i in (0..nx).step_by(bs) {
                    f(Block {
                        base: [i, j, k],
                        ext: [bs.min(nx - i), bs.min(ny - j), bs.min(nz - k)],
                    });
                }
            }
        }
    }

    /// Calls `f(offset, [dj, dk])` for every row of `block`, x-fastest;
    /// `offset` is where the row's first cell sits in the volume.
    #[inline(always)]
    fn rows(&self, block: Block, mut f: impl FnMut(usize, [usize; 2])) {
        let [nx, ny, _] = self.dims;
        let [i, j, k] = block.base;
        for dk in 0..block.ext[2] {
            for dj in 0..block.ext[1] {
                f(i + nx * ((j + dj) + ny * (k + dk)), [dj, dk]);
            }
        }
    }

    /// The Lorenzo neighbors of the row of `block` at `offset`; `done` is
    /// the volume up to `offset`.
    #[inline(always)]
    fn neighbours<'a>(
        &self,
        block: Block,
        [dj, dk]: [usize; 2],
        done: &'a [f64],
        zero: &'a [f64],
    ) -> Neighbours<'a> {
        let [nx, ny, _] = self.dims;
        let [i, j, k] = block.base;
        let inside = [i > 0, j + dj > 0, k + dk > 0];
        Neighbours::new(done, zero, nx, nx * ny, inside, block.ext[0])
    }
}

impl SzLr {
    /// The coded regression plane of `block` if it is to be predicted by
    /// regression, `None` for Lorenzo. `Hybrid` compares summed absolute
    /// prediction errors — the regression error of the dequantized plane the
    /// block would be encoded with; the Lorenzo estimate uses *original*
    /// neighbors, the standard SZ approximation, cheap and adequate for
    /// selection.
    fn select(
        &self,
        data: &[f64],
        (blocks, block): (&Blocks, Block),
        zero: &[f64],
        coder: &PlaneCoder,
    ) -> Option<CodedPlane> {
        if self.mode == PredictorMode::LorenzoOnly {
            return None;
        }
        let hybrid = self.mode == PredictorMode::Hybrid;
        let len = block.ext[0];
        let mut fit = FitSums::new(block.ext);
        let mut err_lorenzo = 0.0;
        blocks.rows(block, |at, row| {
            let actual = &data[at..at + len];
            fit.add_row(actual, row);
            if hybrid {
                let nb = blocks.neighbours(block, row, &data[..at], zero);
                nb.walk(|n, pred| {
                    err_lorenzo += (pred - actual[n]).abs();
                    actual[n]
                });
            }
        });
        let coded = coder.quantize(fit.finish());
        if !hybrid {
            return Some(coded);
        }
        let mut err_reg = 0.0;
        blocks.rows(block, |at, row| {
            let actual = &data[at..at + len];
            coded.plane.walk(len, row, |n, pred| {
                err_reg += (pred - actual[n]).abs();
                actual[n]
            });
        });
        (err_reg < err_lorenzo).then_some(coded)
    }
}

impl Compressor for SzLr {
    fn name(&self) -> &'static str {
        "SZ-L/R"
    }

    fn tag(&self) -> u64 {
        u64::from(MAGIC) | (self.block_size as u64) << 8
    }

    fn symbol_count(&self, dims: [usize; 3]) -> usize {
        dims.iter().product()
    }

    /// Four plane categories per regression block.
    fn side_capacity(&self, dims: [usize; 3]) -> usize {
        4 * Blocks {
            dims,
            bs: self.block_size,
        }
        .count()
    }

    fn encode_piece(
        &self,
        field: Field3View<'_>,
        eb: f64,
        model: &mut ByteWriter,
        symbols: &mut Vec<u32>,
        side: &mut Vec<u32>,
    ) {
        let _sp = amrviz_obs::span!("szlr.compress", values = field.len());
        let nx = field.dims[0];
        let n = field.len();
        let data = field.data;
        let q = Quantizer::new(eb);
        let bs = self.block_size;
        let blocks = Blocks {
            dims: field.dims,
            bs,
        };

        // All working state is rented from the per-thread scratch pool, so
        // a worker compressing many boxes allocates these once, not per box.
        // The zero row is its own short buffer: growing `recon` by a row
        // instead can tip a rented buffer over its next doubling step.
        let mut recon = scratch::take_f64();
        recon.resize(n, 0.0);
        let mut outliers = scratch::take_f64();
        let mut zero = scratch::take_f64();
        zero.resize(bs.min(nx), 0.0);
        let start = symbols.len();
        symbols.resize(start + n, 0);
        let codes = &mut symbols[start..];
        let mut pred_bits = BitWriter::with_buffer(scratch::take_bytes());
        let mut plane_bits = BitWriter::with_buffer(scratch::take_bytes());
        let mut coder = PlaneCoder::new(eb, bs);

        let mut pos = 0usize;
        blocks.for_each(|block| {
            let len = block.ext[0];
            let plane = self
                .select(data, (&blocks, block), &zero, &coder)
                .map(|coded| {
                    coder.commit(&coded, side, &mut plane_bits);
                    coded.plane
                });
            pred_bits.write_bit(plane.is_some());
            blocks.rows(block, |at, row| {
                let actual = &data[at..at + len];
                let codes = &mut codes[pos..pos + len];
                let (done, rest) = recon.split_at_mut(at);
                let recon = &mut rest[..len];
                // Quantize → code → reconstruct, one inline step per cell.
                let step = |n: usize, pred: f64| {
                    (codes[n], recon[n]) = q.encode(pred, actual[n]);
                    recon[n]
                };
                match &plane {
                    Some(plane) => plane.walk(len, row, step),
                    None => blocks.neighbours(block, row, done, &zero).walk(step),
                }
                append_outliers(codes, actual, &mut outliers);
                pos += len;
            });
        });

        // The model: predictor bits, plane bits, outliers.
        let pred = pred_bits.finish();
        model.section(&pred);
        let planes = plane_bits.finish();
        model.section(&planes);
        model.f64_section(&outliers);
        QuantStats {
            codes: (n - outliers.len()) as u64,
            outliers: outliers.len() as u64,
        }
        .report();
        scratch::give_bytes(planes);
        scratch::give_bytes(pred);
        scratch::give_f64(zero);
        scratch::give_f64(outliers);
        scratch::give_f64(recon);
    }

    fn decode_piece(
        &self,
        dims: [usize; 3],
        eb: f64,
        model: &mut ByteReader<'_>,
        codes: &[u32],
        side: &mut SideSymbols<'_>,
        out: &mut Vec<f64>,
    ) -> Result<(), CompressError> {
        let _sp = amrviz_obs::span!("szlr.decompress", values = codes.len());
        let q = Quantizer::new(eb);
        let bs = self.block_size;
        let blocks = Blocks { dims, bs };

        // Section slices borrow the input stream directly (`ByteReader`
        // hands back `&[u8]` tied to its buffer), so nothing is copied.
        // Every section is checked against what the loop below will read —
        // short *and* surplus — before anything is written, so the
        // reconstruction itself cannot fail.
        let pred_section = model.section()?;
        let plane_section = model.section()?;
        let mut outliers = Outliers::new(model.section()?, codes)?;
        let is_regression = |b: usize| pred_section[b / 8] & (0x80 >> (b % 8)) != 0;
        if pred_section.len() != blocks.count().div_ceil(8) {
            return Err(CompressError::Malformed(format!(
                "{} blocks but a {}-byte predictor section",
                blocks.count(),
                pred_section.len()
            )));
        }
        let planes = (0..blocks.count()).filter(|&b| is_regression(b)).count();
        let categories = side.take(4 * planes)?;
        let bits = PlaneCoder::bit_count(categories)?;
        if plane_section.len() != bits.div_ceil(8) {
            return Err(CompressError::Malformed(format!(
                "{planes} regression planes of {bits} bits but a {}-byte plane section",
                plane_section.len()
            )));
        }
        let (mut coder, mut reader) = (PlaneCoder::new(eb, bs), BitReader::new(plane_section));
        let mut categories = categories.chunks_exact(4);

        // Every cell is written below, so a buffer that already has the
        // right length (a fab decoded in place) is not zeroed first.
        out.resize(codes.len(), 0.0);
        let mut zero = scratch::take_f64();
        zero.resize(bs.min(dims[0]), 0.0);
        let (mut pos, mut b) = (0usize, 0usize);
        blocks.for_each(|block| {
            let len = block.ext[0];
            let plane = is_regression(b).then(|| {
                let categories = categories.next().expect("four categories per plane");
                coder.decode(categories, &mut reader)
            });
            b += 1;
            blocks.rows(block, |at, row| {
                let codes = &codes[pos..pos + len];
                let (done, rest) = out.split_at_mut(at);
                let recon = &mut rest[..len];
                let step = |n: usize, pred: f64| {
                    recon[n] = match codes[n] {
                        0 => outliers.take(),
                        code => q.reconstruct(pred, code),
                    };
                    recon[n]
                };
                match &plane {
                    Some(plane) => plane.walk(len, row, step),
                    None => blocks.neighbours(block, row, done, &zero).walk(step),
                }
                pos += len;
            });
        });
        scratch::give_f64(zero);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::keeps;
    use crate::regression::ESCAPE;
    use crate::test_support::{
        bits, decode, decode_in_place, decode_into, encode, from_fn, oracle_case, roundtrip,
    };
    use crate::{DecodeBudget, ErrorBound};
    use amrviz_rng::check;

    /// The per-cell encoder and decoder the row kernels replaced, kept
    /// verbatim as the reference (only the framing follows the wire: the
    /// body of a one-piece chunk): a side-buffer gather into `fit_block`, a
    /// second read in `select_predictor`, then a walk that recomputes the
    /// cell offset, branches on the predictor and calls `lorenzo3_predict`
    /// with its boundary tests per cell, quantizing through `f64::round`.
    mod oracle {
        use crate::lorenzo::lorenzo3_predict;
        use crate::quantizer::{quantize_oracle, Quantized, Quantizer};
        use crate::regression::{fit_block, RegressionCoeffs};
        use crate::szlr::{PredictorMode, SzLr};
        use crate::wire::{ByteReader, ByteWriter};
        use crate::CompressError;
        use amrviz_codec::{BitReader, BitWriter};

        fn select_predictor(
            mode: PredictorMode,
            data: &[f64],
            dims: [usize; 3],
            base: [usize; 3],
            ext: [usize; 3],
            coeffs: &RegressionCoeffs,
        ) -> bool {
            match mode {
                PredictorMode::LorenzoOnly => return false,
                PredictorMode::RegressionOnly => return true,
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
            err_reg < err_lorenzo
        }

        fn blocks(dims: [usize; 3], bs: usize) -> Vec<([usize; 3], [usize; 3])> {
            let [nx, ny, nz] = dims;
            let mut out = Vec::new();
            for bk in 0..nz.div_ceil(bs) {
                for bj in 0..ny.div_ceil(bs) {
                    for bi in 0..nx.div_ceil(bs) {
                        let base = [bi * bs, bj * bs, bk * bs];
                        let ext = [
                            bs.min(nx - base[0]),
                            bs.min(ny - base[1]),
                            bs.min(nz - base[2]),
                        ];
                        out.push((base, ext));
                    }
                }
            }
            out
        }

        /// The quantization steps of a plane's intercept and slopes.
        fn steps(eb: f64, bs: usize) -> [f64; 4] {
            let slope = 2.0 * eb / (100.0 * bs as f64);
            [2.0 * eb / 100.0, slope, slope, slope]
        }

        /// The bit length of `|d|`: a plane category.
        fn category(d: i64) -> u32 {
            let mut c = 0;
            while d.abs() >> c != 0 {
                c += 1;
            }
            c
        }

        pub fn compress(sz: &SzLr, dims: [usize; 3], data: &[f64], eb: f64) -> Vec<u8> {
            let [nx, ny, _] = dims;
            let q = Quantizer::new(eb);
            let mut recon = vec![0.0; data.len()];
            let (mut codes, mut outliers) = (Vec::new(), Vec::new());
            let (mut pred_bits, mut plane_bits) = (BitWriter::new(), BitWriter::new());
            let (mut categories, mut prev) = (Vec::new(), [0i64; 4]);
            let step = steps(eb, sz.block_size);
            for (base, ext) in blocks(dims, sz.block_size) {
                let mut block_vals = Vec::new();
                for dk in 0..ext[2] {
                    for dj in 0..ext[1] {
                        for di in 0..ext[0] {
                            let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                            block_vals.push(data[i + nx * (j + ny * k)]);
                        }
                    }
                }
                // Each coefficient quantized against the previous regression
                // block's, or escaped (`None`) when not finite or when its
                // difference needs more than 32 bits.
                let fit = fit_block(&block_vals, ext);
                let raw = fit.0;
                let mut quantized = [None; 4];
                let mut deq = raw;
                for a in 0..4 {
                    let t = (raw[a] / step[a]).round();
                    if t.abs() < 2f64.powi(52) && (t as i64 - prev[a]).abs() < 1 << 32 {
                        quantized[a] = Some(t as i64);
                        deq[a] = t * step[a];
                    }
                }
                let coeffs = RegressionCoeffs(deq);
                let is_reg = select_predictor(sz.mode, data, dims, base, ext, &coeffs);
                pred_bits.write_bit(is_reg);
                for a in (0..4).filter(|_| is_reg) {
                    let Some(qa) = quantized[a] else {
                        categories.push(33);
                        plane_bits.write_bits(raw[a].to_bits(), 64);
                        continue;
                    };
                    let (d, c) = (qa - prev[a], category(qa - prev[a]));
                    categories.push(c);
                    let magnitude = if d < 0 { d + (1 << c) - 1 } else { d };
                    plane_bits.write_bits(magnitude as u64, c);
                    prev[a] = qa;
                }
                let plane = is_reg.then_some(coeffs);
                for dk in 0..ext[2] {
                    for dj in 0..ext[1] {
                        for di in 0..ext[0] {
                            let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                            let idx = i + nx * (j + ny * k);
                            let pred = match &plane {
                                Some(c) => c.predict(di, dj, dk),
                                None => lorenzo3_predict(&recon, dims, i, j, k),
                            };
                            let actual = data[idx];
                            match quantize_oracle(&q, pred, actual) {
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
            let mut model = ByteWriter::new();
            model.section(&pred_bits.finish());
            model.section(&plane_bits.finish());
            let outlier_bytes: Vec<u8> = outliers.iter().flat_map(|v| v.to_le_bytes()).collect();
            model.section(&outlier_bytes);
            let mut w = ByteWriter::new();
            w.section(&model.finish());
            w.coded_section(&codes);
            w.coded_section(&categories);
            w.finish()
        }

        pub fn decompress(
            bs: usize,
            dims: [usize; 3],
            eb: f64,
            body: &[u8],
        ) -> Result<Vec<f64>, CompressError> {
            let n = dims.iter().product();
            let [nx, ny, _] = dims;
            let q = Quantizer::new(eb);
            let mut r = ByteReader::new(body);
            let mut model = ByteReader::new(r.section()?);
            let mut pred_bits = BitReader::new(model.section()?);
            let mut plane_bits = BitReader::new(model.section()?);
            let mut outliers = model
                .section()?
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
            let (mut codes, mut categories) = (Vec::new(), Vec::new());
            r.coded_section(n..=n, &mut codes)?;
            r.coded_section(0..=usize::MAX, &mut categories)?;
            let mut categories = categories.into_iter();
            let (step, mut prev) = (steps(eb, bs), [0i64; 4]);
            let mut recon = vec![0.0; n];
            let mut code_pos = 0;
            for (base, ext) in blocks(dims, bs) {
                let c = if pred_bits.read_bit()? {
                    let mut c = [0.0; 4];
                    for a in 0..4 {
                        c[a] = match categories.next().unwrap() {
                            33 => f64::from_bits(plane_bits.read_bits(64)?),
                            cat => {
                                let v = plane_bits.read_bits(cat)? as i64;
                                let negative = cat > 0 && v < 1 << (cat - 1);
                                prev[a] += if negative { v - (1 << cat) + 1 } else { v };
                                prev[a] as f64 * step[a]
                            }
                        };
                    }
                    Some(RegressionCoeffs(c))
                } else {
                    None
                };
                for dk in 0..ext[2] {
                    for dj in 0..ext[1] {
                        for di in 0..ext[0] {
                            let (i, j, k) = (base[0] + di, base[1] + dj, base[2] + dk);
                            let pred = match &c {
                                Some(c) => c.predict(di, dj, dk),
                                None => lorenzo3_predict(&recon, dims, i, j, k),
                            };
                            let code = codes[code_pos];
                            code_pos += 1;
                            recon[i + nx * (j + ny * k)] = if code == 0 {
                                outliers.next().unwrap()
                            } else {
                                q.reconstruct(pred, code)
                            };
                        }
                    }
                }
            }
            Ok(recon)
        }
    }

    #[test]
    fn row_kernels_match_the_per_cell_oracle() {
        check(0x5A1B, 96, |rng| {
            let (dims, f, bound) = oracle_case(rng);
            let sz = SzLr {
                block_size: [6, 6, 6, 4, 1, 9][rng.below(6) as usize],
                mode: [
                    PredictorMode::Hybrid,
                    PredictorMode::LorenzoOnly,
                    PredictorMode::RegressionOnly,
                ][rng.below(3) as usize],
            };
            let (got, eb) = encode(&sz, dims, &f, bound);
            let want = oracle::compress(&sz, dims, &f, eb);
            assert_eq!(got, want, "body differs: {sz:?} dims {dims:?} {bound:?}");
            let want = oracle::decompress(sz.block_size, dims, eb, &got).unwrap();
            let got = decode_in_place(&sz, (dims, eb), &got);
            assert_eq!(bits(&got), bits(&want), "decode differs: {sz:?} {dims:?}");
        });
    }

    /// A valid chunk body re-assembled with its three model sections passed
    /// through `edit(section index, bytes)` and its side section rewritten
    /// by `side(decoded side symbols, writer)`.
    fn with_sections(
        body: &[u8],
        edit: impl Fn(usize, &[u8]) -> Vec<u8>,
        side: impl FnOnce(Vec<u32>, &mut ByteWriter),
    ) -> Vec<u8> {
        let mut r = ByteReader::new(body);
        let mut w = ByteWriter::new();
        let mut model = ByteReader::new(r.section().unwrap());
        let mut edited = ByteWriter::new();
        for n in 0..3 {
            edited.section(&edit(n, model.section().unwrap()));
        }
        w.section(&edited.finish());
        w.section(r.section().unwrap());
        let mut symbols = Vec::new();
        r.coded_section(0..=usize::MAX, &mut symbols).unwrap();
        side(symbols, &mut w);
        w.finish()
    }

    fn same_side(symbols: Vec<u32>, w: &mut ByteWriter) {
        w.coded_section(&symbols);
    }

    #[test]
    fn short_and_surplus_sections_are_rejected_before_writing() {
        // Rough enough for outliers, planar enough for regression blocks.
        let mut rng = amrviz_rng::Rng::seed(3);
        let dims = [13, 8, 7];
        let f = from_fn(dims, |i, j, _| {
            i as f64 + 2.0 * j as f64 + if rng.chance(0.05) { 1e6 } else { 0.0 }
        });
        let sz = SzLr::default();
        let (good, eb) = encode(&sz, dims, &f, ErrorBound::Abs(0.01));
        assert_eq!(with_sections(&good, |_, s| s.to_vec(), same_side), good);
        let rejected = |bad: &[u8], what: &str| {
            let mut out = vec![7.0; 3];
            let budget = DecodeBudget::default();
            let err = decode_into(&sz, (dims, eb), bad, &budget, &mut out).unwrap_err();
            assert!(matches!(err, CompressError::Malformed(_)), "{what}: {err}");
            assert_eq!(out, [7.0; 3], "{what}: output touched");
            err.to_string()
        };
        // (section, bytes per value): predictor bits, plane bits, outliers.
        for (section, unit) in [(0, 1), (1, 1), (2, 8)] {
            // One byte more, one value fewer.
            for surplus in [true, false] {
                let edit = |n, s: &[u8]| {
                    assert!(
                        n != section || s.len() >= unit,
                        "section {n}: nothing to cut"
                    );
                    match (n == section, surplus) {
                        (false, _) => s.to_vec(),
                        (true, true) => [s, &[0u8][..]].concat(),
                        (true, false) => s[..s.len() - unit].to_vec(),
                    }
                };
                rejected(&with_sections(&good, edit, same_side), "model");
            }
        }
        // One plane category short, one surplus: the piece is the chunk's
        // last, so both are found before it writes.
        let keep = |_, s: &[u8]| s.to_vec();
        let short = with_sections(&good, keep, |mut side, w| {
            assert!(side.pop().is_some(), "no regression blocks");
            w.coded_section(&side)
        });
        assert!(rejected(&short, "short side").contains("last piece takes"));
        let surplus = with_sections(&good, keep, |mut side, w| {
            side.push(0);
            w.coded_section(&side)
        });
        assert!(rejected(&surplus, "surplus side").contains("last piece takes"));
        // A side count over four per block, and a forged count of 2⁴⁰, fail
        // on the declared count, before the side buffer is sized.
        let blocks = Blocks { dims, bs: 6 }.count();
        let over = with_sections(&good, keep, |_, w| {
            w.coded_section(&vec![0; 4 * blocks + 1])
        });
        assert!(rejected(&over, "over capacity").contains("symbols coded"));
        let forged = with_sections(&good, keep, |_, w| {
            let mut huff = Vec::new();
            amrviz_codec::write_uvarint(&mut huff, 1 << 40);
            huff.extend([1, 0, 1]);
            w.section(&huff)
        });
        assert!(rejected(&forged, "forged count").contains("1099511627776 symbols coded"));
    }

    #[test]
    fn non_finite_and_huge_planes_round_trip_exactly_through_the_escape() {
        let dims = [12, 6, 6];
        let sz = SzLr::regression_only();
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            // The first block holds `special`; the second is a plain plane.
            let f = from_fn(dims, |i, j, k| match (i, j, k) {
                (2, 3, 1) => special,
                _ => 0.5 * i as f64 - 0.25 * j as f64,
            });
            let (body, eb) = encode(&sz, dims, &f, ErrorBound::Abs(1e-3));
            let mut side = Vec::new();
            with_sections(&body, |_, s| s.to_vec(), |s, _| side = s);
            assert_eq!(side.len(), 8, "{special}: two planes");
            assert!(side[..4].contains(&ESCAPE), "{special}: {side:?}");
            let back = decode(&sz, (dims, eb), &body).unwrap();
            for (n, (a, b)) in f.iter().zip(&back).enumerate() {
                let exact = a.to_bits() == b.to_bits();
                assert!(
                    exact || (a - b).abs() <= eb,
                    "{special}: cell {n}: {a} vs {b}"
                );
            }
            assert_eq!(back[2 + 12 * (3 + 6)].to_bits(), special.to_bits());
        }
    }

    #[test]
    fn roundtrip_smooth_within_bound() {
        keeps("szlr", "smooth fields at three bounds");
    }

    #[test]
    fn compresses_smooth_data_well() {
        keeps("szlr", "the smooth-data ratio");
    }

    #[test]
    fn constant_field_is_tiny_and_exact() {
        keeps("szlr", "a constant field, exact");
    }

    #[test]
    fn random_field_respects_bound() {
        keeps("szlr", "a random field under an absolute bound");
    }

    #[test]
    fn outlier_heavy_data_roundtrips_exactly() {
        keeps("szlr", "outliers and huge values");
    }

    #[test]
    fn non_multiple_dims_handled() {
        keeps("szlr", "odd, degenerate and single-cell shapes");
    }

    #[test]
    fn single_cell_field() {
        keeps("szlr", "odd, degenerate and single-cell shapes");
    }

    #[test]
    fn corrupt_stream_rejected() {
        keeps("szlr", "corrupt and truncated bodies");
    }

    #[test]
    fn expired_deadline_surfaces_through_decompress() {
        keeps("szlr", "an expired deadline");
    }

    #[test]
    fn larger_bound_compresses_more() {
        keeps("szlr", "a larger bound gives fewer bytes");
    }

    #[test]
    fn bound_never_violated() {
        keeps("szlr", "three seeded bound sweeps");
    }

    #[test]
    fn regression_wins_on_planes() {
        // A perfect plane: regression predicts exactly; the body should be
        // almost all zero-residual symbols → very small.
        let dims = [24, 24, 24];
        let f = from_fn(dims, |i, j, k| {
            2.0 * i as f64 - 3.0 * j as f64 + 0.5 * k as f64
        });
        let (len, _) = roundtrip(&SzLr::default(), dims, &f, ErrorBound::Rel(1e-4));
        let ratio = (f.len() * 8) as f64 / len as f64;
        assert!(ratio > 20.0, "plane should compress hard, got {ratio:.1}");
    }
}
