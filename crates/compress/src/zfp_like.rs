//! A transform-based error-bounded codec in the spirit of ZFP
//! (Lindstrom 2014) — the transform-coder family the paper's background
//! discusses alongside SZ.
//!
//! **Substitution note (see DESIGN.md):** real ZFP uses a custom integer
//! lifting transform and embedded bit-plane coding. We keep its essential
//! structure — independent 4×4×4 blocks, integer decorrelating transform,
//! entropy-coded coefficients — but use a separable 2-level Haar
//! S-transform (exactly invertible integer lifting) and the workspace's
//! Huffman+LZSS backend. The codec honors an absolute error bound by
//! pre-quantizing values with step `2·eb` (the transform itself is
//! lossless on integers). A piece's model is its escaped coefficients and
//! raw-block values; its symbols are 64 per block.

use amrviz_codec::{zigzag_decode, zigzag_encode};
use amrviz_par::scratch;

use crate::field::Field3View;
use crate::quantizer::round_half_away;
use crate::wire::{ByteReader, ByteWriter, SideSymbols};
use crate::{CompressError, Compressor};

const MAGIC: u8 = 0xA3;
const BS: usize = 4;
/// Pre-quantized integers beyond this trip the block's raw escape (the
/// transform adds up to a few bits of growth; stay far from i64 range).
const MAX_Q: i64 = 1 << 45;
/// Symbol budget for the Huffman stage: coefficient codes beyond this are
/// escaped. Symbol 0 marks the cells of a raw block.
const SYM_CAP: u64 = 1 << 20;

/// Forward S-transform on a pair: `(a, b) → (⌊(a+b)/2⌋, a − b)`.
#[inline]
fn s_fwd(a: i64, b: i64) -> (i64, i64) {
    ((a + b) >> 1, a - b)
}

/// Inverse S-transform: exact integer inverse of [`s_fwd`]. Wrapping, so a
/// forged escape coefficient decodes to garbage, not to an overflow panic.
#[inline]
fn s_inv(s: i64, d: i64) -> (i64, i64) {
    let a = s.wrapping_add(d.wrapping_add(1) >> 1);
    (a, a.wrapping_sub(d))
}

/// 2-level Haar along a length-4 lane (in place): after this, lane =
/// [global avg, level-2 detail, level-1 details...].
#[inline]
fn lane_fwd(v: &mut [i64; 4]) {
    let (s0, d0) = s_fwd(v[0], v[1]);
    let (s1, d1) = s_fwd(v[2], v[3]);
    let (ss, sd) = s_fwd(s0, s1);
    *v = [ss, sd, d0, d1];
}

#[inline]
fn lane_inv(v: &mut [i64; 4]) {
    let [ss, sd, d0, d1] = *v;
    let (s0, s1) = s_inv(ss, sd);
    let (a, b) = s_inv(s0, d0);
    let (c, d) = s_inv(s1, d1);
    *v = [a, b, c, d];
}

/// Applies the lane transform along every axis of a 4×4×4 block.
fn block_fwd(block: &mut [i64; 64]) {
    for axis in 0..3 {
        apply_axis(block, axis, lane_fwd);
    }
}

fn block_inv(block: &mut [i64; 64]) {
    for axis in (0..3).rev() {
        apply_axis(block, axis, lane_inv);
    }
}

fn apply_axis(block: &mut [i64; 64], axis: usize, f: impl Fn(&mut [i64; 4])) {
    let stride = [1usize, 4, 16][axis];
    for a in 0..4 {
        for b in 0..4 {
            // Base index with the transformed axis at 0.
            let base = match axis {
                0 => 4 * a + 16 * b,
                1 => a + 16 * b,
                _ => a + 4 * b,
            };
            let mut lane = [0i64; 4];
            for (t, item) in lane.iter_mut().enumerate() {
                *item = block[base + t * stride];
            }
            f(&mut lane);
            for (t, &item) in lane.iter().enumerate() {
                block[base + t * stride] = item;
            }
        }
    }
}

/// The 4×4×4 block partition of a volume.
#[derive(Clone, Copy)]
struct Blocks {
    dims: [usize; 3],
}

impl Blocks {
    /// `(origin, interior)` of every block, x-fastest; an interior block
    /// lies wholly inside the volume.
    fn iter(self) -> impl Iterator<Item = ([usize; 3], bool)> {
        let [nx, ny, nz] = self.dims;
        let along = |n: usize| (0..n).step_by(BS).map(move |o| (o, o + BS <= n));
        along(nz).flat_map(move |(k, fk)| {
            along(ny)
                .flat_map(move |(j, fj)| along(nx).map(move |(i, fi)| ([i, j, k], fi && fj && fk)))
        })
    }

    /// Offset of cell `(i, j, k)`.
    #[inline]
    fn at(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.dims[0] * (j + self.dims[1] * k)
    }

    /// Copies the block at `origin` out of `data`. Interior blocks go row
    /// by row; edge blocks pad by clamping indices so partial blocks stay
    /// smooth (padding is discarded on decode).
    #[inline]
    fn gather(&self, data: &[f64], [i, j, k]: [usize; 3], interior: bool) -> [f64; 64] {
        let mut vals = [0.0f64; 64];
        if interior {
            for (r, row) in vals.chunks_exact_mut(BS).enumerate() {
                let at = self.at(i, j + r % BS, k + r / BS);
                row.copy_from_slice(&data[at..at + BS]);
            }
        } else {
            let [nx, ny, nz] = self.dims;
            for (n, v) in vals.iter_mut().enumerate() {
                let (di, dj, dk) = (n % BS, n / BS % BS, n / (BS * BS));
                *v = data[self.at(
                    (i + di).min(nx - 1),
                    (j + dj).min(ny - 1),
                    (k + dk).min(nz - 1),
                )];
            }
        }
        vals
    }

    /// Inverse of [`Blocks::gather`]: writes the in-volume part of `vals`.
    #[inline]
    fn scatter(&self, out: &mut [f64], [i, j, k]: [usize; 3], interior: bool, vals: &[f64; 64]) {
        if interior {
            for (r, row) in vals.chunks_exact(BS).enumerate() {
                let at = self.at(i, j + r % BS, k + r / BS);
                out[at..at + BS].copy_from_slice(row);
            }
        } else {
            let [nx, ny, nz] = self.dims;
            for (n, &v) in vals.iter().enumerate() {
                let (i, j, k) = (i + n % BS, j + n / BS % BS, k + n / (BS * BS));
                if i < nx && j < ny && k < nz {
                    out[self.at(i, j, k)] = v;
                }
            }
        }
    }
}

/// ZFP-like fixed-accuracy compressor.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpLike;

impl Compressor for ZfpLike {
    fn name(&self) -> &'static str {
        "ZFP-like"
    }

    fn tag(&self) -> u64 {
        MAGIC.into()
    }

    /// One symbol per coefficient of every 4×4×4 block, raw blocks too.
    fn symbol_count(&self, dims: [usize; 3]) -> usize {
        dims.iter().map(|n| n.div_ceil(BS)).product::<usize>() * 64
    }

    fn encode_piece(
        &self,
        field: Field3View<'_>,
        eb: f64,
        model: &mut ByteWriter,
        symbols: &mut Vec<u32>,
        _side: &mut Vec<u32>,
    ) {
        let _sp = amrviz_obs::span!("zfp.compress", values = field.len());
        let inv_step = 1.0 / (2.0 * eb);
        symbols.reserve(self.symbol_count(field.dims));
        // Escaped coefficients are almost always none (only adversarially
        // huge ones land here), raw-block values likewise.
        let mut escapes = scratch::take_bytes();
        let mut raw = scratch::take_f64();

        let blocks = Blocks { dims: field.dims };
        for (origin, interior) in blocks.iter() {
            let vals = blocks.gather(field.data, origin, interior);
            // Pre-quantize; a value too large for the transform's headroom
            // (or not finite) sends the whole block down the raw escape.
            let mut block = [0i64; 64];
            let mut fits = true;
            for (q, &v) in block.iter_mut().zip(&vals) {
                let scaled = v * inv_step;
                fits &= scaled.abs() < MAX_Q as f64;
                *q = round_half_away(scaled);
            }
            if !fits {
                // Raw escape: 64 zero symbols, 64 raw values.
                symbols.extend([0; 64]);
                raw.extend_from_slice(&vals);
                continue;
            }
            block_fwd(&mut block);
            symbols.extend(block.iter().map(|&c| {
                let z = zigzag_encode(c);
                if z + 2 < SYM_CAP {
                    (z + 2) as u32 // 0 = raw, 1 = escape
                } else {
                    escapes.extend_from_slice(&c.to_le_bytes());
                    1
                }
            }));
        }

        // The model: escaped coefficients, then raw-block values.
        model.section(&escapes);
        model.f64_section(&raw);
        scratch::give_f64(raw);
        scratch::give_bytes(escapes);
    }

    fn decode_piece(
        &self,
        dims: [usize; 3],
        eb: f64,
        model: &mut ByteReader<'_>,
        symbols: &[u32],
        _side: &mut SideSymbols<'_>,
        out: &mut Vec<f64>,
    ) -> Result<(), CompressError> {
        let n = dims.iter().product();
        let _sp = amrviz_obs::span!("zfp.decompress", values = n);
        let step = 2.0 * eb;
        let escapes = model.section()?;
        let raws = model.section()?;
        // Checked before anything is written, so the loop below cannot
        // fail: a block's symbols are all zero (raw) or none is, and the
        // escape and raw sections hold exactly what the symbols call for.
        let mut raw_blocks = 0;
        for block in symbols.chunks(64) {
            match block.iter().filter(|&&s| s == 0).count() {
                0 => {}
                64 => raw_blocks += 1,
                _ => {
                    return Err(CompressError::Malformed(
                        "a block mixes raw and coded symbols".into(),
                    ))
                }
            }
        }
        let n_escapes = symbols.iter().filter(|&&s| s == 1).count();
        if escapes.len() != 8 * n_escapes || raws.len() != 512 * raw_blocks {
            return Err(CompressError::Malformed(format!(
                "{n_escapes} escapes and {raw_blocks} raw blocks but a {}-byte escape \
                 and a {}-byte raw section",
                escapes.len(),
                raws.len()
            )));
        }
        let mut escapes = escapes.chunks_exact(8);
        let mut raws = raws.chunks_exact(8);
        let next = |chunks: &mut std::slice::ChunksExact<u8>| -> [u8; 8] {
            chunks
                .next()
                .expect("sized above")
                .try_into()
                .expect("8 bytes")
        };

        // Every cell is written below, so a buffer that already has the
        // right length (a fab decoded in place) is not zeroed first.
        out.resize(n, 0.0);
        let blocks = Blocks { dims };
        for ((origin, interior), coded) in blocks.iter().zip(symbols.chunks_exact(64)) {
            let mut vals = [0.0f64; 64];
            if coded[0] == 0 {
                vals.iter_mut()
                    .for_each(|v| *v = f64::from_le_bytes(next(&mut raws)));
            } else {
                let mut block = [0i64; 64];
                for (item, &s) in block.iter_mut().zip(coded) {
                    *item = match s {
                        1 => i64::from_le_bytes(next(&mut escapes)),
                        s => zigzag_decode(s as u64 - 2),
                    };
                }
                block_inv(&mut block);
                for (v, &q) in vals.iter_mut().zip(&block) {
                    *v = q as f64 * step;
                }
            }
            blocks.scatter(out, origin, interior, &vals);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{bits, decode, decode_in_place, encode, from_fn, oracle_case};
    use crate::ErrorBound;
    use amrviz_rng::check;

    /// The per-cell block loops the row gather/scatter replaced, kept
    /// verbatim as the reference (only the framing follows the wire: the
    /// body of a one-piece chunk): every block clamps each index on the way
    /// in and tests each on the way out, and pre-quantizes with
    /// `f64::round`.
    mod oracle {
        use super::super::{block_fwd, block_inv, BS, MAX_Q, SYM_CAP};
        use crate::wire::{ByteReader, ByteWriter};
        use crate::CompressError;
        use amrviz_codec::{zigzag_decode, zigzag_encode};

        pub fn compress(dims: [usize; 3], data: &[f64], eb: f64) -> Vec<u8> {
            let [nx, ny, nz] = dims;
            let inv_step = 1.0 / (2.0 * eb);
            let nb = [nx.div_ceil(BS), ny.div_ceil(BS), nz.div_ceil(BS)];
            let (mut symbols, mut escapes, mut raw) = (Vec::new(), Vec::<i64>::new(), Vec::new());
            for bk in 0..nb[2] {
                for bj in 0..nb[1] {
                    for bi in 0..nb[0] {
                        let mut vals = [0.0f64; 64];
                        let mut overflow = false;
                        for dk in 0..BS {
                            for dj in 0..BS {
                                for di in 0..BS {
                                    let i = (bi * BS + di).min(nx - 1);
                                    let j = (bj * BS + dj).min(ny - 1);
                                    let k = (bk * BS + dk).min(nz - 1);
                                    let v = data[i + nx * (j + ny * k)];
                                    vals[di + 4 * (dj + 4 * dk)] = v;
                                    let q = v * inv_step;
                                    if !q.is_finite() || q.abs() >= MAX_Q as f64 {
                                        overflow = true;
                                    }
                                }
                            }
                        }
                        if overflow {
                            symbols.extend([0; 64]);
                            raw.extend_from_slice(&vals);
                            continue;
                        }
                        let mut block = [0i64; 64];
                        for (q, &v) in block.iter_mut().zip(&vals) {
                            *q = (v * inv_step).round() as i64;
                        }
                        block_fwd(&mut block);
                        for &c in &block {
                            let z = zigzag_encode(c);
                            if z + 2 < SYM_CAP {
                                symbols.push((z + 2) as u32);
                            } else {
                                symbols.push(1);
                                escapes.push(c);
                            }
                        }
                    }
                }
            }
            let mut model = ByteWriter::new();
            let esc_bytes: Vec<u8> = escapes.iter().flat_map(|e| e.to_le_bytes()).collect();
            model.section(&esc_bytes);
            let raw_bytes: Vec<u8> = raw.iter().flat_map(|v| v.to_le_bytes()).collect();
            model.section(&raw_bytes);
            let mut w = ByteWriter::new();
            w.section(&model.finish());
            w.coded_section(&symbols);
            w.coded_section(&[]);
            w.finish()
        }

        pub fn decompress(
            dims: [usize; 3],
            eb: f64,
            body: &[u8],
        ) -> Result<Vec<f64>, CompressError> {
            let [nx, ny, nz] = dims;
            let n = nx * ny * nz;
            let step = 2.0 * eb;
            let mut r = ByteReader::new(body);
            let mut model = ByteReader::new(r.section()?);
            let mut escapes = model
                .section()?
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().unwrap()));
            let mut raws = model
                .section()?
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
            let blocks = nx.div_ceil(BS) * ny.div_ceil(BS) * nz.div_ceil(BS);
            let mut symbols = Vec::new();
            r.coded_section(64 * blocks..=64 * blocks, &mut symbols)?;
            let mut sym = symbols.iter().copied();
            let mut out = vec![0.0; n];
            for bk in 0..nz.div_ceil(BS) {
                for bj in 0..ny.div_ceil(BS) {
                    for bi in 0..nx.div_ceil(BS) {
                        let first = sym.next().unwrap();
                        let mut vals = [0.0f64; 64];
                        if first == 0 {
                            (1..64).for_each(|_| assert_eq!(sym.next(), Some(0)));
                            vals.iter_mut().for_each(|v| *v = raws.next().unwrap());
                        } else {
                            let mut block = [0i64; 64];
                            for (n, item) in block.iter_mut().enumerate() {
                                let s = if n == 0 { first } else { sym.next().unwrap() };
                                *item = match s {
                                    0 => panic!("raw marker mid-block"),
                                    1 => escapes.next().unwrap(),
                                    s => zigzag_decode(s as u64 - 2),
                                };
                            }
                            block_inv(&mut block);
                            for (v, &q) in vals.iter_mut().zip(&block) {
                                *v = q as f64 * step;
                            }
                        }
                        for dk in 0..BS {
                            for dj in 0..BS {
                                for di in 0..BS {
                                    let (i, j, k) = (bi * BS + di, bj * BS + dj, bk * BS + dk);
                                    if i < nx && j < ny && k < nz {
                                        out[i + nx * (j + ny * k)] = vals[di + 4 * (dj + 4 * dk)];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Ok(out)
        }
    }

    #[test]
    fn row_gather_and_scatter_match_the_per_cell_oracle() {
        check(0x2F90, 96, |rng| {
            let (dims, mut f, bound) = oracle_case(rng);
            // Now and then a value past the transform's headroom, so raw
            // blocks and coded blocks interleave.
            if rng.chance(0.3) {
                let at = rng.below(f.len() as u64) as usize;
                f[at] = 1e300;
            }
            let (got, eb) = encode(&ZfpLike, dims, &f, bound);
            let want = oracle::compress(dims, &f, eb);
            assert_eq!(got, want, "body differs: dims {dims:?} {bound:?}");
            let want = oracle::decompress(dims, eb, &got).unwrap();
            let got = decode_in_place(&ZfpLike, (dims, eb), &got);
            assert_eq!(bits(&got), bits(&want), "decode differs: {dims:?}");
        });
    }

    #[test]
    fn s_transform_inverts_exactly() {
        for a in -10i64..10 {
            for b in -10i64..10 {
                let (s, d) = s_fwd(a, b);
                assert_eq!(s_inv(s, d), (a, b));
            }
        }
    }

    #[test]
    fn lane_roundtrip() {
        let cases = [
            [0i64, 0, 0, 0],
            [1, 2, 3, 4],
            [-7, 13, -2, 900],
            [i64::MIN / 4; 4],
        ];
        for c in cases {
            let mut v = c;
            lane_fwd(&mut v);
            lane_inv(&mut v);
            assert_eq!(v, c);
        }
    }

    #[test]
    fn block_roundtrip() {
        let mut block = [0i64; 64];
        for (n, b) in block.iter_mut().enumerate() {
            *b = (n as i64 * 37 - 1000) % 271;
        }
        let orig = block;
        block_fwd(&mut block);
        assert_ne!(block, orig, "transform should change coefficients");
        block_inv(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn haar_decorrelates_smooth_lane() {
        // A linear ramp should concentrate energy in the average slot.
        let mut v = [100i64, 102, 104, 106];
        lane_fwd(&mut v);
        assert_eq!(v[0], 103); // mean-ish
        assert!(v[2].abs() <= 2 && v[3].abs() <= 2);
    }

    /// `f` through a one-piece chunk under `bound`, every cell checked
    /// against the bound it resolved to; returns the body's length.
    fn roundtrip(dims: [usize; 3], f: &[f64], bound: ErrorBound) -> usize {
        let (body, eb) = encode(&ZfpLike, dims, f, bound);
        let back = decode(&ZfpLike, (dims, eb), &body).unwrap();
        assert_eq!(back.len(), f.len());
        for (a, b) in f.iter().zip(&back) {
            assert!((a - b).abs() <= eb * (1.0 + 1e-12), "|{a}-{b}| > {eb}");
        }
        body.len()
    }

    #[test]
    fn roundtrip_smooth_within_bound() {
        let f = from_fn([17, 12, 9], |i, j, k| {
            (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos() * k as f64 * 0.1
        });
        for rel in [1e-4, 1e-2] {
            roundtrip([17, 12, 9], &f, ErrorBound::Rel(rel));
        }
    }

    #[test]
    fn compresses_smooth_data() {
        let f = from_fn([32, 32, 32], |i, j, k| ((i + j + k) as f64 * 0.05).sin());
        let len = roundtrip([32, 32, 32], &f, ErrorBound::Rel(1e-3));
        let ratio = (f.len() * 8) as f64 / len as f64;
        assert!(ratio > 8.0, "ratio {ratio:.1}");
    }

    #[test]
    fn huge_values_escape_to_raw_blocks() {
        let f = from_fn([8, 8, 8], |i, _, _| if i == 0 { 1e300 } else { 1.0 });
        roundtrip([8, 8, 8], &f, ErrorBound::Abs(1e-6));
    }

    #[test]
    fn corrupt_stream_rejected() {
        let dims = [8, 8, 8];
        let f = from_fn(dims, |i, _, _| i as f64);
        let (body, eb) = encode(&ZfpLike, dims, &f, ErrorBound::Abs(0.01));
        assert!(decode(&ZfpLike, (dims, eb), &body[..5]).is_err());
    }

    #[test]
    fn bound_never_violated() {
        check(0x2F9, 12, |rng| {
            let nx = rng.range_usize(1, 10);
            let ny = rng.range_usize(1, 10);
            let nz = rng.range_usize(1, 10);
            let mut field_rng = rng.fork(1);
            let f = from_fn([nx, ny, nz], |_, _, _| field_rng.range_f64(-10.0, 10.0));
            roundtrip([nx, ny, nz], &f, ErrorBound::Abs(0.05));
        });
    }
}
